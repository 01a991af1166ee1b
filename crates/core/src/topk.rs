//! Best-first kMaxRRST processing (paper Algorithms 3 and 4).
//!
//! Every candidate facility carries an exploration *state*: the service value
//! `aserve` accumulated from the q-node lists evaluated so far, plus an
//! optimistic bound `hserve` — the sum of the stored `sub` upper bounds of
//! the q-nodes still on the state's frontier. States are explored
//! best-first by `fserve = aserve + hserve`; a state popped with an empty
//! frontier is fully evaluated and, because `fserve` is an admissible upper
//! bound, is guaranteed to dominate every facility still in the queue. The
//! first `k` such states are the answer.
//!
//! Initialization descends from the root while the facility's EMBR fits
//! strictly inside a single child (the paper's `containingQNode`): ancestor
//! lists along that path are deferred as cheap *list-only* frontier entries
//! (or skipped outright for binary two-point service, where straddling
//! ancestors provably cannot be served — see DESIGN.md §5).

use crate::eval::{EvalCtx, EvalState, EvalStats, FacilityComponent};
use crate::parallel;
use crate::service::{Scenario, ServiceModel};
use crate::tqtree::{NodeId, Placement, TqTree, ROOT};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use tq_geometry::{Point, Rect};
use tq_trajectory::{Facility, FacilityId, FacilitySet, UserSet};

/// Result of a kMaxRRST query.
#[derive(Debug, Clone)]
pub struct TopKOutcome {
    /// The top facilities with their exact service values, best first.
    pub ranked: Vec<(FacilityId, f64)>,
    /// Evaluation counters summed over every state the search touched,
    /// ranked or not.
    pub stats: EvalStats,
    /// Number of state relaxations (Algorithm 4 invocations).
    pub relaxations: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryKind {
    /// Evaluate only the node's own list (deferred ancestor list).
    ListOnly,
    /// Evaluate the node's list and expand into its children.
    Subtree,
}

struct State {
    fid: FacilityId,
    frontier: Vec<(EntryKind, NodeId, Vec<Point>)>,
    hserve: f64,
    eval: EvalState,
}

/// Max-heap key: `fserve` descending, facility id ascending on ties (for
/// determinism).
struct HeapKey {
    fserve: f64,
    idx: u32,
    fid: FacilityId,
}

impl PartialEq for HeapKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapKey {}
impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.fserve
            .total_cmp(&other.fserve)
            .then_with(|| other.fid.cmp(&self.fid))
    }
}

// Branch-free like `Rect::contains` — this sits in the per-facility descent.
fn rect_contains_strict(outer: &Rect, inner: &Rect) -> bool {
    (inner.min.x > outer.min.x)
        & (inner.min.y > outer.min.y)
        & (inner.max.x < outer.max.x)
        & (inner.max.y < outer.max.y)
}

/// Answers a kMaxRRST query: the `k` facilities of `facilities` with the
/// highest service value over the indexed users, best first.
pub fn top_k_facilities(
    tree: &TqTree,
    users: &UserSet,
    model: &ServiceModel,
    facilities: &FacilitySet,
    k: usize,
) -> TopKOutcome {
    let ctx = EvalCtx::new(tree, users, *model, false);
    // Straddling ancestor lists are provably unservable for binary
    // two-point service when the EMBR sits strictly inside one child.
    let skip_ancestor_lists = model.scenario == Scenario::Transit
        && tree.config().placement == Placement::TwoPoint;

    // Per-facility initialization (tree descent + bound accumulation) is
    // independent work over shared immutable state: fan it out. The heap is
    // then filled sequentially from the ordered state vector, so exploration
    // order — and with it the result — is identical to a serial run.
    let entries: Vec<(FacilityId, &Facility)> = facilities.iter().collect();
    let mut states: Vec<State> = parallel::par_map(&entries, |&(fid, f)| {
        init_state(tree, model, skip_ancestor_lists, fid, f)
    });
    let mut heap: BinaryHeap<HeapKey> = BinaryHeap::with_capacity(facilities.len());
    for (idx, state) in states.iter().enumerate() {
        let fserve = state.eval.value + state.hserve;
        heap.push(HeapKey {
            fserve,
            idx: idx as u32,
            fid: state.fid,
        });
    }

    let mut ranked = Vec::with_capacity(k.min(facilities.len()));
    let mut stats = EvalStats::default();
    let mut relaxations = 0usize;

    while ranked.len() < k.min(facilities.len()) {
        let Some(HeapKey { idx, .. }) = heap.pop() else {
            break;
        };
        let state = &mut states[idx as usize];
        if state.frontier.is_empty() {
            // Fully explored: fserve == exact value ≥ every remaining bound.
            // Report the finished column's fold, not the running deltas, so
            // values carry no floating-point drift and are bit-identical to
            // any other evaluation of the same facility.
            let out = std::mem::take(&mut state.eval).finish(&ctx);
            ranked.push((state.fid, out.value));
            stats.add(&out.stats);
            continue;
        }
        relax(&ctx, state, model);
        relaxations += 1;
        let fserve = state.eval.value + state.hserve;
        heap.push(HeapKey {
            fserve,
            idx,
            fid: state.fid,
        });
    }

    // States still on the heap did work too. A ranked state's `eval` was
    // taken above, so it adds zero here.
    for state in &states {
        stats.add(&state.eval.stats);
    }
    TopKOutcome {
        ranked,
        stats,
        relaxations,
    }
}

/// Builds one facility's initial exploration state: descends from the root
/// while the facility's EMBR fits strictly inside a single child (the
/// paper's `containingQNode`), deferring ancestor lists as cheap list-only
/// frontier entries.
fn init_state(
    tree: &TqTree,
    model: &ServiceModel,
    skip_ancestor_lists: bool,
    fid: FacilityId,
    f: &Facility,
) -> State {
    let mut state = State {
        fid,
        frontier: Vec::new(),
        hserve: 0.0,
        eval: EvalState::default(),
    };
    let root_comp = FacilityComponent::restrict(f.stops(), &tree.bounds(), model.psi);
    if root_comp.is_empty() {
        return state;
    }
    let embr = f.embr(model.psi);
    let mut cur = ROOT;
    let mut stops = root_comp.stops;
    // Descend while the EMBR fits strictly inside one existing child.
    loop {
        let node = tree.node(cur);
        let next = node.children.iter().enumerate().find_map(|(qi, c)| {
            let crect = node.rect.quadrant(tq_geometry::Quadrant::from_index(qi as u8));
            rect_contains_strict(&crect, &embr).then_some((qi, *c))
        });
        match next {
            Some((_, maybe_child)) => {
                // Straddling-ancestor skipping is only sound for
                // *internal* nodes: their own lists hold inter-node
                // items whose endpoints sit in different children,
                // so an EMBR strictly inside one child cannot serve
                // both. A leaf's intra-node items carry no such
                // guarantee and must always be evaluated.
                let skip = skip_ancestor_lists && !node.is_leaf();
                if !node.list.is_empty() && !skip {
                    state.hserve += model.bound_of(&node.own);
                    state
                        .frontier
                        .push((EntryKind::ListOnly, cur, stops.clone()));
                }
                match maybe_child {
                    Some(child) => {
                        let crect = tree.node(child).rect;
                        let comp = FacilityComponent::restrict(&stops, &crect, model.psi);
                        if comp.is_empty() {
                            break;
                        }
                        stops = comp.stops;
                        cur = child;
                    }
                    // Quadrant exists geometrically but holds no
                    // data: nothing below to explore.
                    None => break,
                }
            }
            None => {
                // EMBR straddles children (or leaf): anchor the
                // whole subtree here.
                state.hserve += model.bound_of(&node.sub);
                state.frontier.push((EntryKind::Subtree, cur, stops));
                break;
            }
        }
    }
    state
}

/// One relaxation step (paper Algorithm 4): evaluates every frontier node's
/// own list and replaces subtree entries by their children.
fn relax(ctx: &EvalCtx<'_>, state: &mut State, model: &ServiceModel) {
    let frontier = std::mem::take(&mut state.frontier);
    let mut hserve = 0.0;
    for (kind, node_id, stops) in frontier {
        state.eval.eval_node_list(ctx, node_id, &stops);
        if kind == EntryKind::ListOnly {
            continue;
        }
        let node = ctx.tree.node(node_id);
        for child in node.children.iter().flatten() {
            let crect = ctx.tree.node(*child).rect;
            let comp = FacilityComponent::restrict(&stops, &crect, model.psi);
            if comp.is_empty() {
                continue;
            }
            hserve += model.bound_of(&ctx.tree.node(*child).sub);
            state
                .frontier
                .push((EntryKind::Subtree, *child, comp.stops));
        }
    }
    state.hserve = hserve;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::brute_force_value;
    use crate::tqtree::{Storage, TqTreeConfig};
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use tq_trajectory::{Facility, Trajectory};

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn random_users(n: usize, seed: u64) -> UserSet {
        let mut rng = StdRng::seed_from_u64(seed);
        UserSet::from_vec(
            (0..n)
                .map(|_| {
                    // Mixture of hotspot and uniform trips for spatial skew.
                    let hot = rng.gen_bool(0.5);
                    let (cx, cy) = if hot { (25.0, 25.0) } else { (70.0, 60.0) };
                    Trajectory::two_point(
                        p(
                            (cx + rng.gen_range(-20.0..20.0f64)).clamp(0.0, 100.0),
                            (cy + rng.gen_range(-20.0..20.0f64)).clamp(0.0, 100.0),
                        ),
                        p(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)),
                    )
                })
                .collect(),
        )
    }

    fn random_facilities(n: usize, stops: usize, seed: u64) -> FacilitySet {
        let mut rng = StdRng::seed_from_u64(seed);
        FacilitySet::from_vec(
            (0..n)
                .map(|_| {
                    let mut x = rng.gen_range(5.0..95.0);
                    let mut y = rng.gen_range(5.0..95.0);
                    Facility::new(
                        (0..stops)
                            .map(|_| {
                                x = (x + rng.gen_range(-6.0..6.0f64)).clamp(0.0, 100.0);
                                y = (y + rng.gen_range(-6.0..6.0f64)).clamp(0.0, 100.0);
                                p(x, y)
                            })
                            .collect(),
                    )
                })
                .collect(),
        )
    }

    /// Naive reference: full evaluation of every facility, sorted.
    fn naive_topk(
        users: &UserSet,
        model: &ServiceModel,
        facilities: &FacilitySet,
        k: usize,
    ) -> Vec<f64> {
        let mut vals: Vec<f64> = facilities
            .iter()
            .map(|(_, f)| brute_force_value(users, model, f))
            .collect();
        vals.sort_by(|a, b| b.total_cmp(a));
        vals.truncate(k);
        vals
    }

    #[test]
    fn reported_stats_are_the_work_done() {
        let users = random_users(400, 21);
        let facilities = random_facilities(24, 8, 22);
        for storage in [Storage::Basic, Storage::ZOrder] {
            let cfg = TqTreeConfig {
                beta: 8,
                storage,
                placement: Placement::TwoPoint,
                max_depth: 10,
            };
            let tree = TqTree::build(&users, cfg);
            for scenario in Scenario::ALL {
                let model = ServiceModel::new(scenario, 6.0);
                for k in [1, 8] {
                    crate::eval::tally::take();
                    let out = top_k_facilities(&tree, &users, &model, &facilities, k);
                    let done = crate::eval::tally::take();
                    assert!(done.nodes_visited > 0, "{storage:?} {scenario:?} k={k}");
                    assert_eq!(out.stats, done, "{storage:?} {scenario:?} k={k}");
                }
            }
        }
    }

    #[test]
    fn matches_naive_all_scenarios_and_storages() {
        let users = random_users(400, 21);
        let facilities = random_facilities(24, 8, 22);
        for storage in [Storage::Basic, Storage::ZOrder] {
            for scenario in Scenario::ALL {
                let cfg = TqTreeConfig {
                    beta: 8,
                    storage,
                    placement: Placement::TwoPoint,
                    max_depth: 10,
                };
                let tree = TqTree::build(&users, cfg);
                let model = ServiceModel::new(scenario, 4.0);
                let got = top_k_facilities(&tree, &users, &model, &facilities, 5);
                let want = naive_topk(&users, &model, &facilities, 5);
                assert_eq!(got.ranked.len(), 5);
                for (i, ((_, gv), wv)) in got.ranked.iter().zip(&want).enumerate() {
                    assert!(
                        (gv - wv).abs() < 1e-9,
                        "{storage:?}/{scenario:?} rank {i}: got {gv}, want {wv}"
                    );
                }
                // Best-first must return values in non-increasing order.
                assert!(got
                    .ranked
                    .windows(2)
                    .all(|w| w[0].1 >= w[1].1 - 1e-12));
            }
        }
    }

    #[test]
    fn segmented_placement_topk_matches_naive() {
        let mut rng = StdRng::seed_from_u64(31);
        let users = UserSet::from_vec(
            (0..200)
                .map(|_| {
                    let n = rng.gen_range(2..6);
                    let mut x = rng.gen_range(0.0..100.0);
                    let mut y = rng.gen_range(0.0..100.0);
                    Trajectory::new(
                        (0..n)
                            .map(|_| {
                                x = (x + rng.gen_range(-10.0..10.0f64)).clamp(0.0, 100.0);
                                y = (y + rng.gen_range(-10.0..10.0f64)).clamp(0.0, 100.0);
                                p(x, y)
                            })
                            .collect(),
                    )
                })
                .collect(),
        );
        let facilities = random_facilities(16, 6, 32);
        for placement in [Placement::Segmented, Placement::FullTrajectory] {
            let cfg = TqTreeConfig {
                beta: 8,
                storage: Storage::ZOrder,
                placement,
                max_depth: 10,
            };
            let tree = TqTree::build(&users, cfg);
            let model = ServiceModel::new(Scenario::PointCount, 5.0);
            let got = top_k_facilities(&tree, &users, &model, &facilities, 4);
            let want = naive_topk(&users, &model, &facilities, 4);
            for ((_, gv), wv) in got.ranked.iter().zip(&want) {
                assert!((gv - wv).abs() < 1e-9, "{placement:?}: {gv} vs {wv}");
            }
        }
    }

    #[test]
    fn k_larger_than_f_returns_all() {
        let users = random_users(100, 41);
        let facilities = random_facilities(4, 5, 42);
        let tree = TqTree::build(&users, TqTreeConfig::default());
        let model = ServiceModel::new(Scenario::Transit, 3.0);
        let got = top_k_facilities(&tree, &users, &model, &facilities, 10);
        assert_eq!(got.ranked.len(), 4);
    }

    #[test]
    fn empty_facilities_or_users() {
        let users = random_users(50, 51);
        let tree = TqTree::build(&users, TqTreeConfig::default());
        let model = ServiceModel::new(Scenario::Transit, 3.0);
        let got = top_k_facilities(&tree, &users, &model, &FacilitySet::new(), 5);
        assert!(got.ranked.is_empty());

        let empty_users = UserSet::new();
        let empty_tree = TqTree::build(&empty_users, TqTreeConfig::default());
        let facilities = random_facilities(5, 4, 52);
        let got = top_k_facilities(&empty_tree, &empty_users, &model, &facilities, 3);
        assert_eq!(got.ranked.len(), 3);
        assert!(got.ranked.iter().all(|(_, v)| *v == 0.0));
    }

    #[test]
    fn best_first_explores_less_than_exhaustive() {
        // With a clear winner, the best-first search should finish without
        // fully evaluating every facility: compare items_tested against an
        // exhaustive evaluation of all facilities.
        let users = random_users(2000, 61);
        let facilities = random_facilities(64, 8, 62);
        let cfg = TqTreeConfig {
            beta: 16,
            storage: Storage::ZOrder,
            placement: Placement::TwoPoint,
            max_depth: 12,
        };
        let tree = TqTree::build(&users, cfg);
        let model = ServiceModel::new(Scenario::Transit, 3.0);
        let got = top_k_facilities(&tree, &users, &model, &facilities, 1);
        let mut exhaustive = EvalStats::default();
        for (_, f) in facilities.iter() {
            exhaustive.add(&crate::eval::evaluate_service(&tree, &users, &model, f).stats);
        }
        assert!(
            got.stats.items_tested <= exhaustive.items_tested,
            "best-first tested {} items, exhaustive {}",
            got.stats.items_tested,
            exhaustive.items_tested
        );
    }

    /// Regression: a facility whose EMBR fits strictly inside one quadrant
    /// of a *leaf* node (here: the root is a single leaf) must still see
    /// that leaf's intra-node trajectories under the Transit + two-point
    /// ancestor-skipping optimization.
    #[test]
    fn tiny_facility_inside_leaf_quadrant_is_not_skipped() {
        // 10 users in the SW corner of a large extent → one root leaf
        // (β = 64 default).
        let users = UserSet::from_vec(
            (0..10)
                .map(|i| {
                    let o = i as f64 * 0.5;
                    Trajectory::two_point(p(10.0 + o, 10.0), p(20.0 + o, 12.0))
                })
                .collect(),
        );
        let mut tree = TqTree::build_with_bounds(
            &users,
            crate::tqtree::TqTreeConfig::default(),
            tq_geometry::Rect::new(p(0.0, 0.0), p(1000.0, 1000.0)),
        );
        assert!(tree.node(crate::tqtree::ROOT).is_leaf(), "setup: root leaf");
        let model = ServiceModel::new(Scenario::Transit, 2.0);
        // Facility tucked next to the users: EMBR ⊂ the root's SW quadrant.
        let facilities = FacilitySet::from_vec(vec![Facility::new(vec![
            p(12.0, 10.5),
            p(22.0, 12.5),
        ])]);
        let got = top_k_facilities(&tree, &users, &model, &facilities, 1);
        let want = brute_force_value(&users, &model, facilities.get(0));
        assert!(want > 0.0, "setup: facility must serve someone");
        assert!(
            (got.ranked[0].1 - want).abs() < 1e-9,
            "leaf list skipped: got {}, want {want}",
            got.ranked[0].1
        );
        // Same check after the tree grows children via inserts (the
        // original setup becomes a deeper path).
        let mut users2 = users.clone();
        for i in 0..200 {
            let b = 300.0 + i as f64;
            tree.insert(&mut users2, Trajectory::two_point(p(b, b), p(b + 1.0, b)))
                .unwrap();
        }
        let got = top_k_facilities(&tree, &users2, &model, &facilities, 1);
        assert!((got.ranked[0].1 - want).abs() < 1e-9);
    }

    #[test]
    fn deterministic_ordering_on_ties() {
        // Identical facilities → tie values; ids must come out ascending.
        let users = random_users(100, 71);
        let f = Facility::new(vec![p(50.0, 50.0), p(55.0, 55.0)]);
        let facilities = FacilitySet::from_vec(vec![f.clone(), f.clone(), f]);
        let tree = TqTree::build(&users, TqTreeConfig::default());
        let model = ServiceModel::new(Scenario::Transit, 5.0);
        let got = top_k_facilities(&tree, &users, &model, &facilities, 3);
        let ids: Vec<u32> = got.ranked.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert!(got.ranked[0].1 == got.ranked[1].1 && got.ranked[1].1 == got.ranked[2].1);
    }
}
