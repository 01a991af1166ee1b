//! Property tests of [`Column`] against the hash-map code it replaced.
//!
//! [`reference`] is the pre-column implementation kept verbatim: a facility's
//! masks as an `FxHashMap`, put in order by `sorted_entries` on every use,
//! valued by a `canonical_value` that sorts the keys and re-values every
//! mask, encoded by a `put_table` body that sorts before it writes, and
//! merged across shards by `globalize` into another map. Whatever sequence
//! of appends, removals and rebuilds a seed draws, the column must stream
//! the reference's entries, report the reference's value **bits**, encode to
//! the reference's bytes and merge to the reference's union.

use super::Column;
use crate::fasthash::FxHashMap;
use crate::persist::{get_column, put_column};
use crate::service::{PointMask, Scenario, ServiceModel};
use bytes::BytesMut;
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use tq_geometry::Point;
use tq_trajectory::{Trajectory, TrajectoryId, UserSet};

/// The parent commit's map-side code, the oracle of every property below.
mod reference {
    use crate::fasthash::FxHashMap;
    use crate::persist::put_mask;
    use crate::service::{PointMask, ServiceModel};
    use bytes::{BufMut, BytesMut};
    use tq_store::codec::put_varint_u32;
    use tq_trajectory::{TrajectoryId, UserSet};

    pub fn sorted_entries(
        masks: &FxHashMap<TrajectoryId, PointMask>,
    ) -> Vec<(TrajectoryId, &PointMask)> {
        let mut entries: Vec<(TrajectoryId, &PointMask)> =
            masks.iter().map(|(id, m)| (*id, m)).collect();
        entries.sort_unstable_by_key(|(id, _)| *id);
        entries
    }

    pub fn canonical_value(
        users: &UserSet,
        model: &ServiceModel,
        masks: &FxHashMap<TrajectoryId, PointMask>,
    ) -> f64 {
        let mut ids: Vec<TrajectoryId> = masks.keys().copied().collect();
        ids.sort_unstable();
        let sum: f64 = ids
            .iter()
            .map(|id| model.value(users.get(*id), &masks[id]))
            .sum();
        sum + 0.0
    }

    /// One facility's iteration of the old `put_table` loop.
    pub fn put_facility(
        value: f64,
        masks: &FxHashMap<TrajectoryId, PointMask>,
        blob: &mut BytesMut,
    ) {
        blob.put_f64_le(value);
        let mut entries: Vec<(&u32, &PointMask)> = masks.iter().collect();
        entries.sort_by_key(|(id, _)| **id);
        put_varint_u32(blob, entries.len() as u32);
        let mut prev: u32 = 0;
        for (&traj, mask) in entries {
            put_varint_u32(blob, traj - prev);
            prev = traj + 1;
            put_mask(mask.view(), blob);
        }
    }

    pub fn globalize(
        locals: &[Vec<TrajectoryId>],
        per_shard: &[FxHashMap<TrajectoryId, PointMask>],
    ) -> FxHashMap<TrajectoryId, PointMask> {
        let mut merged = FxHashMap::default();
        for (locals, masks) in locals.iter().zip(per_shard) {
            for (lid, mask) in masks {
                merged.insert(locals[*lid as usize], mask.clone());
            }
        }
        merged
    }
}

/// Mask widths on both sides of the one-word and inline/heap boundaries.
const WIDTHS: [usize; 4] = [2, 64, 65, 129];

type MaskMap = FxHashMap<TrajectoryId, PointMask>;

fn random_trajectory(rng: &mut StdRng, width: usize) -> Trajectory {
    Trajectory::new(
        (0..width)
            .map(|_| Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
            .collect(),
    )
}

/// A mask of random density; one in six is empty and one in six only the
/// first point, so zero-value entries (every scenario has some) are common.
fn random_mask(rng: &mut StdRng, width: usize) -> PointMask {
    let mut mask = PointMask::empty(width);
    match rng.gen_range(0..6) {
        0 => {}
        1 => {
            mask.set(0);
        }
        _ => {
            let density = rng.gen_range(0.05..1.0);
            for i in 0..width {
                if rng.gen_bool(density) {
                    mask.set(i);
                }
            }
        }
    }
    mask
}

fn random_map(rng: &mut StdRng, users: &UserSet, width: usize) -> MaskMap {
    let keep = rng.gen_range(0.0..1.0);
    let mut map = MaskMap::default();
    for id in 0..users.len() as TrajectoryId {
        if rng.gen_bool(keep) {
            map.insert(id, random_mask(rng, width));
        }
    }
    map
}

/// Properties (a), (b) and (d): the entries, the value bits and the codec.
fn assert_matches_reference(users: &UserSet, model: &ServiceModel, column: &Column, map: &MaskMap) {
    let streamed: Vec<(TrajectoryId, PointMask)> =
        column.iter().map(|(id, v)| (id, v.to_mask())).collect();
    let sorted: Vec<(TrajectoryId, PointMask)> = reference::sorted_entries(map)
        .into_iter()
        .map(|(id, m)| (id, m.clone()))
        .collect();
    assert_eq!(streamed, sorted);
    assert_eq!(column.len(), map.len());
    for (id, mask) in map {
        assert_eq!(column.get(*id), Some(mask.view()));
    }

    let want = reference::canonical_value(users, model, map);
    assert_eq!(
        column.value().to_bits(),
        want.to_bits(),
        "{} vs {want}",
        column.value()
    );
    let served = map
        .iter()
        .filter(|(id, m)| model.value(users.get(**id), m) > 0.0)
        .count();
    assert_eq!(column.users_served(), served);

    let (mut got, mut expect) = (BytesMut::new(), BytesMut::new());
    put_column(column.value(), column, &mut got);
    reference::put_facility(want, map, &mut expect);
    let got = got.freeze();
    assert_eq!(got, expect.freeze(), "encoded blob");
    let (value, decoded) = get_column(&got, users, model).expect("decodes");
    assert_eq!(value.to_bits(), want.to_bits());
    assert_eq!(&decoded, column, "decode is the inverse of encode");
    let mut again = BytesMut::new();
    put_column(value, &decoded, &mut again);
    assert_eq!(again.freeze(), got, "decode → encode is the identity");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One column churned by appends, removals and whole-column rebuilds,
    /// against the reference map after every single step.
    #[test]
    fn column_behaves_like_the_sorted_map(
        seed in any::<u64>(),
        scenario_i in 0usize..3,
        width_i in 0usize..4,
        initial in 0usize..40,
        ops in 20usize..80,
    ) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let model = ServiceModel::new(Scenario::ALL[scenario_i], 1.0);
        let width = WIDTHS[width_i];
        let mut users =
            UserSet::from_vec((0..initial).map(|_| random_trajectory(rng, width)).collect());

        // The empty column reports +0.0, not the -0.0 `f64::sum` starts from.
        let mut map = MaskMap::default();
        let mut column = Column::default();
        assert_eq!(column.value().to_bits(), 0.0f64.to_bits());
        assert_matches_reference(&users, &model, &column, &map);

        for _ in 0..ops {
            match rng.gen_range(0..8) {
                // An arrival: the id is past every id the column holds and
                // the fold continues by one `+ val`. (c): the check after
                // the match holds that continuation to the bits of the
                // reference's from-scratch `sum() + 0.0`; a rebuilt column
                // must be the very same column.
                0..=3 => {
                    let id = users.push(random_trajectory(rng, width));
                    let mask = random_mask(rng, width);
                    column.push(id, mask.view(), model.value(users.get(id), &mask));
                    map.insert(id, mask);
                    assert_eq!(column, Column::from_map(&users, &model, &map));
                }
                // A removal, of a served id or of one the column never had.
                4..=6 => {
                    if users.is_empty() {
                        continue;
                    }
                    let id = rng.gen_range(0..users.len() as TrajectoryId);
                    assert_eq!(column.remove(id), map.remove(&id).is_some());
                }
                // A heavy facility's rebuild replaces the column.
                _ => {
                    map = random_map(rng, &users, width);
                    column = Column::from_map(&users, &model, &map);
                }
            }
            assert_matches_reference(&users, &model, &column, &map);
        }

        // Emptied by removals: +0.0 again, and equal to a fresh column.
        for id in column.ids().to_vec() {
            assert!(column.remove(id));
            map.remove(&id);
            assert_matches_reference(&users, &model, &column, &map);
        }
        assert_eq!(column.value().to_bits(), 0.0f64.to_bits());
        assert_eq!(column, Column::default());
    }

    /// A column of only zero-value entries reports +0.0 however it was
    /// made, exactly like the reference's `-0.0 + 0.0 + … + 0.0`.
    #[test]
    fn zero_value_entries_sum_to_positive_zero(
        seed in any::<u64>(),
        scenario_i in 0usize..3,
        width_i in 0usize..4,
        n in 1usize..20,
    ) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let model = ServiceModel::new(Scenario::ALL[scenario_i], 1.0);
        let width = WIDTHS[width_i];
        let users = UserSet::from_vec((0..n).map(|_| random_trajectory(rng, width)).collect());
        let map: MaskMap = (0..n as TrajectoryId)
            .map(|id| (id, PointMask::empty(width)))
            .collect();
        let mut pushed = Column::default();
        for id in 0..n as TrajectoryId {
            pushed.push(id, map[&id].view(), model.value(users.get(id), &map[&id]));
        }
        for column in [&pushed, &Column::from_map(&users, &model, &map)] {
            assert_eq!(column.value().to_bits(), 0.0f64.to_bits());
            assert_eq!(column.users_served(), 0);
            assert_matches_reference(&users, &model, column, &map);
        }
    }

    /// (e): columns of 1 / 2 / 4 shards merged through monotone local →
    /// global id maps against the reference's `globalize` + `canonical_value`.
    #[test]
    fn merged_column_equals_the_globalized_map(
        seed in any::<u64>(),
        scenario_i in 0usize..3,
        width_i in 0usize..4,
        n in 0usize..60,
        shards_i in 0usize..3,
    ) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let model = ServiceModel::new(Scenario::ALL[scenario_i], 1.0);
        let width = WIDTHS[width_i];
        let shards = [1usize, 2, 4][shards_i];
        let trajectories: Vec<Trajectory> =
            (0..n).map(|_| random_trajectory(rng, width)).collect();
        let users = UserSet::from_vec(trajectories.clone());

        // Route every global id to one shard; a shard's local ids follow
        // ascending global id, so its local → global map is monotone.
        let mut locals: Vec<Vec<TrajectoryId>> = vec![Vec::new(); shards];
        for gid in 0..n as TrajectoryId {
            locals[rng.gen_range(0..shards)].push(gid);
        }
        let shard_users: Vec<UserSet> = locals
            .iter()
            .map(|l| UserSet::from_vec(l.iter().map(|&g| trajectories[g as usize].clone()).collect()))
            .collect();
        let shard_maps: Vec<MaskMap> =
            shard_users.iter().map(|u| random_map(rng, u, width)).collect();
        let shard_columns: Vec<Column> = shard_users
            .iter()
            .zip(&shard_maps)
            .map(|(u, m)| Column::from_map(u, &model, m))
            .collect();

        let merged = Column::merged(locals.iter().map(|l| l.as_slice()).zip(&shard_columns));
        let global = reference::globalize(&locals, &shard_maps);
        assert_matches_reference(&users, &model, &merged, &global);
        assert_eq!(merged, Column::from_map(&users, &model, &global));
    }
}
