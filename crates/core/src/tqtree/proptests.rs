//! Property tests of the run container against the flat list it replaced.
//!
//! [`FlatList`] is the pre-runs implementation kept verbatim as the
//! reference: one sorted `Vec<StoredItem>` per node, spliced with
//! `partition_point` + `Vec::insert`/`Vec::remove`, and a `zReduce` whose
//! two `partition_point`s index that vector. Whatever sequence of updates a
//! seed draws, the runs must flatten to the model's vector, keep their size
//! bounds, make `zReduce` visit the model's items in the model's order, and
//! never leak a run boundary into the arena codec.

use super::build::{items_of, make_list};
use super::persist::{decode_tree, encode_tree};
use super::zlist::ReduceMode;
use super::*;
use bytes::BytesMut;
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use tq_geometry::{Point, ZId};
use tq_store::codec::Reader;
use tq_trajectory::{Trajectory, TrajectoryId};

const PLACEMENTS: [Placement; 3] = [
    Placement::TwoPoint,
    Placement::Segmented,
    Placement::FullTrajectory,
];

fn space() -> Rect {
    Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0))
}

fn random_point(rng: &mut StdRng) -> Point {
    Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0))
}

fn random_trajectory(rng: &mut StdRng) -> Trajectory {
    Trajectory::new(
        (0..rng.gen_range(2..5))
            .map(|_| random_point(rng))
            .collect(),
    )
}

fn z_key(it: &StoredItem) -> (ZId, ZId, u32, u32) {
    (it.start_z, it.end_z, it.traj, it.seg)
}

/// What two lists must agree on, item by item.
fn fingerprint(it: &StoredItem) -> (u32, u32, ZId, ZId, Point, Point, Rect) {
    (
        it.traj, it.seg, it.start_z, it.end_z, it.start, it.end, it.mbr,
    )
}

/// The flat sorted list both `NodeList` flavours used to be. `of` is the
/// list under test: the model borrows its flavour and (immutable)
/// partitions, exactly the state the old `ZList` carried beside its vector.
struct FlatList {
    items: Vec<StoredItem>,
}

impl FlatList {
    fn insert(&mut self, of: &NodeList, mut item: StoredItem) {
        let pos = match of {
            NodeList::Basic(_) => self
                .items
                .partition_point(|x| (x.traj, x.seg) < (item.traj, item.seg)),
            NodeList::Z(z) => {
                item.start_z = z.starts().locate(&item.start);
                item.end_z = z.ends().locate(&item.end);
                let key = z_key(&item);
                self.items.partition_point(|x| z_key(x) < key)
            }
        };
        self.items.insert(pos, item);
    }

    fn remove(&mut self, of: &NodeList, probe: &StoredItem) -> bool {
        if let NodeList::Z(z) = of {
            let key = (
                z.starts().locate(&probe.start),
                z.ends().locate(&probe.end),
                probe.traj,
                probe.seg,
            );
            let pos = self.items.partition_point(|x| z_key(x) < key);
            if self.items.get(pos).is_some_and(|x| z_key(x) == key) {
                self.items.remove(pos);
                return true;
            }
        }
        match self
            .items
            .iter()
            .position(|x| x.traj == probe.traj && x.seg == probe.seg)
        {
            Some(pos) => {
                self.items.remove(pos);
                true
            }
            None => false,
        }
    }

    /// The flat `zReduce`, returning the pruned count.
    fn z_reduce<F: FnMut(&StoredItem)>(
        &self,
        z: &ZList,
        stops: &[Point],
        psi: f64,
        mode: ReduceMode,
        mut visit: F,
    ) -> usize {
        let items = &self.items;
        let comp_embr = Rect::bounding(stops.iter()).expect("stops").expand(psi);
        let (mut start_ranges, mut end_ranges) = (Vec::new(), Vec::new());
        z.starts().covered_ranges(stops, psi, &mut start_ranges);
        z.ends().covered_ranges(stops, psi, &mut end_ranges);
        let mut visited = 0usize;
        match mode {
            ReduceMode::Both => {
                for &(lo, hi) in &start_ranges {
                    let from = items.partition_point(|it| it.start_z < lo);
                    let to = items.partition_point(|it| it.start_z <= hi);
                    for it in &items[from..to] {
                        if ZPartition::ranges_cover(&end_ranges, &it.end_z) {
                            visited += 1;
                            visit(it);
                        }
                    }
                }
            }
            ReduceMode::Either => {
                let rescue = |it: &StoredItem, visited: &mut usize, visit: &mut F| {
                    if comp_embr.intersects(&it.mbr)
                        && ZPartition::ranges_cover(&end_ranges, &it.end_z)
                    {
                        *visited += 1;
                        visit(it);
                    }
                };
                let mut cursor = 0usize;
                for &(lo, hi) in &start_ranges {
                    let from = items.partition_point(|it| it.start_z < lo);
                    let to = items.partition_point(|it| it.start_z <= hi);
                    for it in &items[cursor.min(from)..from] {
                        rescue(it, &mut visited, &mut visit);
                    }
                    for it in &items[from..to] {
                        visited += 1;
                        visit(it);
                    }
                    cursor = cursor.max(to);
                }
                for it in &items[cursor..] {
                    rescue(it, &mut visited, &mut visit);
                }
            }
            ReduceMode::Scan => unreachable!("not a z-pruning mode"),
        }
        items.len() - visited
    }
}

/// (a) + (b): same flattened sequence, run sizes in bounds.
fn assert_matches_model(list: &NodeList, model: &FlatList, beta: usize) {
    let got: Vec<_> = list.items().iter().map(fingerprint).collect();
    let want: Vec<_> = model.items.iter().map(fingerprint).collect();
    assert_eq!(got, want, "runs do not flatten to the model");
    assert_eq!(list.len(), model.items.len());
    list.items().check(beta).expect("run bounds");
}

/// (c): `zReduce` over the runs visits the model's items in the model's
/// order and prunes as many.
fn assert_same_reduce(list: &NodeList, model: &FlatList, rng: &mut StdRng) {
    let NodeList::Z(z) = list else { return };
    if z.is_empty() {
        return;
    }
    let stops: Vec<Point> = (0..rng.gen_range(1..4))
        .map(|_| random_point(rng))
        .collect();
    let psi = rng.gen_range(1.0..40.0);
    for mode in [ReduceMode::Both, ReduceMode::Either] {
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let pruned = z.z_reduce(&stops, psi, mode, &mut Default::default(), |it| {
            got.push((it.traj, it.seg))
        });
        let model_pruned = model.z_reduce(z, &stops, psi, mode, |it| want.push((it.traj, it.seg)));
        assert_eq!(got, want, "{mode:?} visit order");
        assert_eq!(pruned, model_pruned, "{mode:?} pruned count");
    }
}

fn encoded(tree: &TqTree) -> bytes::Bytes {
    let mut buf = BytesMut::with_capacity(1 << 14);
    encode_tree(tree, &mut buf);
    buf.freeze()
}

fn run_lengths(list: &NodeList) -> Vec<usize> {
    list.items().slices().map(<[StoredItem]>::len).collect()
}

/// (d): a tree whose run boundaries were drawn by its update history
/// encodes to the bytes of its decoded twin, whose lists are fresh bulk
/// builds (runs of β) over the same items.
fn assert_codec_ignores_run_boundaries(tree: &TqTree, users: &UserSet) {
    let bytes = encoded(tree);
    let mut r = Reader::new(bytes.clone());
    let twin = decode_tree(&mut r, users).expect("decodes");
    r.finish().expect("fully consumed");
    assert_eq!(
        encoded(&twin),
        bytes,
        "run boundaries leaked into the codec"
    );
    let beta = tree.config().beta;
    for (a, b) in tree.nodes.iter().zip(&twin.nodes) {
        let flat = a.list.items().to_vec();
        assert_eq!(
            flat.iter().map(fingerprint).collect::<Vec<_>>(),
            b.list.items().iter().map(fingerprint).collect::<Vec<_>>()
        );
        assert_eq!(
            run_lengths(&b.list),
            run_lengths(&NodeList::Basic(Runs::from_sorted(&flat, beta))),
            "a decoded list is a bulk build"
        );
    }
    twin.validate_with_count(users, tree.item_count())
        .expect("decoded twin validates");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One list of either flavour, bulk-built then churned, against the
    /// flat model after every single update.
    #[test]
    fn runs_behave_like_the_flat_list(
        seed in any::<u64>(),
        beta in 1usize..10,
        z_order in any::<bool>(),
        placement_i in 0usize..3,
        initial in 0usize..60,
        ops in 40usize..160,
    ) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let placement = PLACEMENTS[placement_i];
        let config = TqTreeConfig {
            beta,
            storage: if z_order { Storage::ZOrder } else { Storage::Basic },
            placement,
            max_depth: 8,
        };
        let mut live: Vec<(TrajectoryId, Trajectory)> =
            (0..initial as u32).map(|id| (id, random_trajectory(rng))).collect();
        let mut next_id = initial as TrajectoryId;
        let bulk = live.iter().flat_map(|(id, t)| items_of(*id, t, placement)).collect();
        let mut list = make_list(&config, space(), bulk);
        let mut model = FlatList { items: list.items().to_vec() };
        assert_matches_model(&list, &model, beta);

        for op in 0..ops {
            if live.is_empty() || rng.gen_bool(0.55) {
                let t = random_trajectory(rng);
                for item in items_of(next_id, &t, placement) {
                    model.insert(&list, item);
                    list.insert_item(item, beta);
                    assert_matches_model(&list, &model, beta);
                }
                live.push((next_id, t));
                next_id += 1;
            } else {
                let (id, t) = live.swap_remove(rng.gen_range(0..live.len()));
                for probe in items_of(id, &t, placement) {
                    prop_assert!(list.contains(&probe));
                    prop_assert!(model.remove(&list, &probe));
                    prop_assert!(list.remove_item(&probe, beta));
                    prop_assert!(!list.contains(&probe));
                    assert_matches_model(&list, &model, beta);
                }
            }
            if op % 8 == 0 {
                assert_same_reduce(&list, &model, rng);
            }
        }
        assert_same_reduce(&list, &model, rng);
    }

    /// A whole tree under the same churn: it validates after every update
    /// (run bounds included), and its codec never sees a run boundary. A
    /// shallow depth limit keeps long lists — many runs — in play.
    #[test]
    fn tree_codec_ignores_history_dependent_run_boundaries(
        seed in any::<u64>(),
        beta in 1usize..6,
        z_order in any::<bool>(),
        placement_i in 0usize..3,
        ops in 60usize..200,
    ) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let config = TqTreeConfig {
            beta,
            storage: if z_order { Storage::ZOrder } else { Storage::Basic },
            placement: PLACEMENTS[placement_i],
            max_depth: 2,
        };
        let mut users = UserSet::new();
        let mut tree = TqTree::build_with_bounds(&users, config, space());
        let mut live: Vec<TrajectoryId> = Vec::new();
        for _ in 0..ops {
            if live.is_empty() || rng.gen_bool(0.6) {
                live.push(tree.insert(&mut users, random_trajectory(rng)).expect("in bounds"));
            } else {
                let id = live.swap_remove(rng.gen_range(0..live.len()));
                tree.remove(&users, id).expect("live");
            }
            if let Err(why) = tree.validate_with_count(&users, tree.item_count()) {
                panic!("{why}");
            }
        }
        assert_codec_ignores_run_boundaries(&tree, &users);
    }
}

/// The teeth of (d): the history below really does leave run boundaries a
/// bulk build would not draw, and the bytes still do not move.
#[test]
fn churned_run_boundaries_differ_from_a_bulk_build_and_encode_the_same() {
    let rng = &mut StdRng::seed_from_u64(0xB0DA);
    let config = TqTreeConfig {
        beta: 4,
        storage: Storage::ZOrder,
        placement: Placement::TwoPoint,
        max_depth: 1,
    };
    let mut users = UserSet::new();
    let mut tree = TqTree::build_with_bounds(&users, config, space());
    for _ in 0..400 {
        tree.insert(&mut users, random_trajectory(rng))
            .expect("in bounds");
    }
    for id in (0..400).step_by(3) {
        tree.remove(&users, id).expect("live");
    }
    let drifted = tree.nodes.iter().any(|n| {
        let bulk = NodeList::Basic(Runs::from_sorted(&n.list.items().to_vec(), 4));
        run_lengths(&n.list) != run_lengths(&bulk)
    });
    assert!(
        drifted,
        "setup: the churn should have moved some run boundary"
    );
    assert_codec_ignores_run_boundaries(&tree, &users);
}
