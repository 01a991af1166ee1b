//! Dynamic insertion (paper §III-C, the update discussion following
//! Algorithm 2).
//!
//! A new trajectory is routed to its q-node in `O(h)` by the same
//! straddle-or-descend rule used at build time (the recursion of
//! `constructTQtree`), then merged into that node's list:
//!
//! * **z-ordered nodes** take the incremental path — z-ids are assigned from
//!   the node's *existing* [`super::ZPartition`]s (`O(log n)` lookups) and
//!   the one run of ≤ 2β items the item sorts into is rewritten
//!   ([`super::Runs`]). The paper instead reassigns z-ids within the
//!   affected β-sized z-node; both keep `zReduce` exact and both cost
//!   `O(β)`, ours trades a temporarily over-full z-cell (marginally weaker
//!   pruning until the node is next rebuilt) for zero repartitioning
//!   bookkeeping.
//! * **Copy-on-write** — every write goes through [`TqTree::node_mut`], so
//!   a tree that shares its nodes with a clone (the engine's previous
//!   epoch) copies the headers on the routing path and the rewritten run,
//!   nothing else.
//! * **Leaves that outgrow β** split exactly like during construction
//!   (`maybe_split_leaf` reuses the build recursion), so an incrementally
//!   grown tree has the same canonical shape a bulk build over the same
//!   items produces — the invariant `remove.rs` restores from the other
//!   direction and [`TqTree::validate`] checks.
//! * **Arena slots** freed by earlier removals are reused
//!   ([`TqTree::alloc_node`]), so insert/remove churn does not grow the
//!   arena without bound.
//!
//! Every node on the routing path accumulates the item's service-bound
//! contribution into its `sub` aggregate, keeping the kMaxRRST bounds
//! (paper Algorithms 3/4) admissible without a rebuild.
//!
//! Out-of-bounds trajectories are rejected rather than silently clamped:
//! the root rectangle is fixed at build time, so callers growing the space
//! should rebuild (`TqTree::build_with_bounds` with a larger rect).

use super::build::{child_quadrant, items_of, make_list};
use super::item::StoredItem;
use super::{NodeId, NodeList, QNode, TqTree, ROOT};
use crate::service::ServiceBounds;
use tq_geometry::Quadrant;
use tq_trajectory::{Trajectory, TrajectoryId, UserSet};

/// Errors returned by [`TqTree::insert`].
#[derive(Debug, PartialEq, Eq)]
pub enum InsertError {
    /// The trajectory has points outside the tree's root rectangle.
    OutOfBounds,
}

impl std::fmt::Display for InsertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InsertError::OutOfBounds => {
                write!(f, "trajectory lies outside the index bounds; rebuild with larger bounds")
            }
        }
    }
}

impl std::error::Error for InsertError {}

impl TqTree {
    /// Inserts a new user trajectory, appending it to `users` and indexing
    /// it. Returns the assigned id.
    ///
    /// `users` must be the same set the tree was built over (the tree
    /// stores ids into it).
    pub fn insert(
        &mut self,
        users: &mut UserSet,
        t: Trajectory,
    ) -> Result<TrajectoryId, InsertError> {
        if t.points().iter().any(|p| !self.bounds().contains(p)) {
            return Err(InsertError::OutOfBounds);
        }
        let id = users.push(t);
        for it in items_of(id, users.get(id), self.config().placement) {
            self.insert_item(it, users);
        }
        Ok(id)
    }

    fn insert_item(&mut self, item: StoredItem, users: &UserSet) {
        let bounds = item.bounds(users);
        let mut cur = ROOT;
        loop {
            // Every node on the path gains the item in its subtree bound.
            let node = self.node_mut(cur);
            node.sub.add(&bounds);
            if node.is_leaf() {
                self.store_at(cur, item, &bounds);
                self.maybe_split_leaf(cur, users);
                return;
            }
            let Some(qi) = child_quadrant(&node.rect, &item) else {
                self.store_at(cur, item, &bounds);
                return;
            };
            match node.children[qi] {
                Some(child) => cur = child,
                None => {
                    // Create a fresh leaf for this quadrant (reusing a
                    // reclaimed arena slot when one is free).
                    let child_rect = node.rect.quadrant(Quadrant::from_index(qi as u8));
                    let depth = node.depth + 1;
                    let child_id = self.alloc_node(QNode {
                        rect: child_rect,
                        depth,
                        children: [None; 4],
                        list: make_list(self.config(), child_rect, vec![item]),
                        own: bounds,
                        sub: bounds,
                        dead: false,
                    });
                    self.node_mut(cur).children[qi] = Some(child_id);
                    self.item_count += 1;
                    return;
                }
            }
        }
    }

    /// Adds `item` to the list of `id`: a binary search for its run and a
    /// rewrite of that one run (see [`super::Runs`]). Empty z-lists are
    /// (re)built so the partitions exist.
    fn store_at(&mut self, id: NodeId, item: StoredItem, bounds: &ServiceBounds) {
        let config = *self.config();
        let node = self.node_mut(id);
        match &mut node.list {
            NodeList::Z(z) if z.is_empty() => {
                node.list = make_list(&config, node.rect, vec![item]);
            }
            list => list.insert_item(item, config.beta),
        }
        node.own.add(bounds);
        self.item_count += 1;
    }

    /// Splits an over-full leaf, pushing descendable items one level down
    /// (recursively, via the construction path).
    ///
    /// The straddlers that stay behind keep the node's *existing* list —
    /// descended items are filtered out of it rather than the list being
    /// rebuilt. For a z-ordered list this preserves the node's
    /// z-partitions, which is what lets a later removal of the descended
    /// items restore the node bit-for-bit (the insert-then-remove property
    /// of `remove.rs`); it is also cheaper than re-sorting the survivors.
    fn maybe_split_leaf(&mut self, id: NodeId, users: &UserSet) {
        let beta = self.config().beta;
        let node = self.node(id);
        let (rect, depth) = (node.rect, node.depth);
        if node.list.len() <= beta || depth >= self.config().max_depth {
            return;
        }
        let mut per_child: [Vec<StoredItem>; 4] = Default::default();
        for it in node.list.items() {
            if let Some(q) = child_quadrant(&rect, it) {
                per_child[q].push(*it);
            }
        }
        if per_child.iter().all(Vec::is_empty) {
            // Every item straddles the children: the node stays an
            // (over-full) leaf, exactly as bulk construction leaves it.
            return;
        }
        self.node_mut(id)
            .list
            .retain(beta, |it| child_quadrant(&rect, it).is_none());
        // Recompute the retained bounds exactly from the survivors.
        let mut own_bounds = ServiceBounds::ZERO;
        for it in self.node(id).list.items() {
            own_bounds.add(&it.bounds(users));
        }
        let mut children = [None; 4];
        let mut sub = own_bounds;
        for (qi, bucket) in per_child.into_iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let child_rect = rect.quadrant(Quadrant::from_index(qi as u8));
            let child_id = self.build_rec(child_rect, depth + 1, bucket, users);
            sub.add(&self.node(child_id).sub);
            children[qi] = Some(child_id);
        }
        let node = self.node_mut(id);
        node.children = children;
        node.own = own_bounds;
        node.sub = sub;
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Placement, Storage, TqTreeConfig};
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use tq_geometry::{Point, Rect};

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn random_users(n: usize, seed: u64) -> UserSet {
        let mut rng = StdRng::seed_from_u64(seed);
        UserSet::from_vec(
            (0..n)
                .map(|_| {
                    Trajectory::two_point(
                        p(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)),
                        p(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)),
                    )
                })
                .collect(),
        )
    }

    fn bounds() -> Rect {
        Rect::new(p(0.0, 0.0), p(100.0, 100.0))
    }

    #[test]
    fn incremental_matches_bulk_invariants() {
        let reference = random_users(300, 11);
        for storage in [Storage::Basic, Storage::ZOrder] {
            let cfg = TqTreeConfig {
                beta: 8,
                storage,
                placement: Placement::TwoPoint,
                max_depth: 12,
            };
            let mut users = UserSet::new();
            let mut tree = TqTree::build_with_bounds(&users, cfg, bounds());
            for (_, t) in reference.iter() {
                tree.insert(&mut users, t.clone()).unwrap();
            }
            assert_eq!(tree.item_count(), 300);
            tree.validate(&users).unwrap();
            assert!(tree.height() > 1, "inserts should have split leaves");
        }
    }

    #[test]
    fn insert_into_prebuilt_tree() {
        let mut users = random_users(100, 12);
        let cfg = TqTreeConfig {
            beta: 8,
            storage: Storage::ZOrder,
            placement: Placement::TwoPoint,
            max_depth: 12,
        };
        let mut tree = TqTree::build_with_bounds(&users, cfg, bounds());
        for i in 0..50 {
            let t = Trajectory::two_point(
                p(10.0 + i as f64 * 0.1, 20.0),
                p(30.0, 40.0 + i as f64 * 0.2),
            );
            tree.insert(&mut users, t).unwrap();
        }
        assert_eq!(tree.item_count(), 150);
        tree.validate(&users).unwrap();
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut users = UserSet::new();
        let mut tree =
            TqTree::build_with_bounds(&users, TqTreeConfig::default(), bounds());
        let err = tree
            .insert(&mut users, Trajectory::two_point(p(50.0, 50.0), p(200.0, 50.0)))
            .unwrap_err();
        assert_eq!(err, InsertError::OutOfBounds);
        assert!(users.is_empty(), "rejected trajectory must not be appended");
        assert_eq!(tree.item_count(), 0);
    }

    #[test]
    fn segmented_insert() {
        let mut users = UserSet::new();
        let cfg = TqTreeConfig {
            beta: 4,
            storage: Storage::ZOrder,
            placement: Placement::Segmented,
            max_depth: 10,
        };
        let mut tree = TqTree::build_with_bounds(&users, cfg, bounds());
        for i in 0..30 {
            let base = i as f64;
            tree.insert(
                &mut users,
                Trajectory::new(vec![
                    p(base, base),
                    p(base + 1.0, base),
                    p(base + 1.0, base + 2.0),
                ]),
            )
            .unwrap();
        }
        assert_eq!(tree.item_count(), 60); // 2 segments each
        tree.validate(&users).unwrap();
    }

    #[test]
    fn sub_bounds_stay_consistent_under_inserts() {
        let mut users = UserSet::new();
        let cfg = TqTreeConfig {
            beta: 2,
            storage: Storage::ZOrder,
            placement: Placement::TwoPoint,
            max_depth: 10,
        };
        let mut tree = TqTree::build_with_bounds(&users, cfg, bounds());
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..100 {
            let t = Trajectory::two_point(
                p(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)),
                p(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)),
            );
            tree.insert(&mut users, t).unwrap();
            // validate() checks sub aggregation at every step.
            tree.validate(&users).unwrap();
        }
        let root_sub = tree.node(ROOT).sub;
        assert_eq!(root_sub.s1, 100.0);
    }
}
