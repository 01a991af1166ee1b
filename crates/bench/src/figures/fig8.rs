//! Figure 8: kMaxRRST on multipoint NYF check-ins — segmented (S-TQ) vs
//! full-trajectory (F-TQ) index generalizations, each in Basic and Z-order
//! storage, against BL.
//!
//! Expected shape (paper §VI-B.3): F-TQ beats S-TQ (far fewer stored items),
//! the S-TQ(B)→S-TQ(Z) gap is smaller than on two-point data, and every
//! TQ variant beats BL.

use crate::data::{self, defaults};
use crate::report::{Series, Unit};
use crate::{timed, Scale};
use tq_core::baseline::BaselineIndex;
use tq_core::service::{Scenario, ServiceModel};
use tq_core::tqtree::{Placement, TqTree, TqTreeConfig};
use tq_datagen::presets;
use tq_trajectory::{FacilitySet, UserSet};

const LABELS: [&str; 5] = ["BL", "S-TQ(B)", "S-TQ(Z)", "F-TQ(B)", "F-TQ(Z)"];

struct MultiIndexes {
    bl: BaselineIndex,
    s_b: TqTree,
    s_z: TqTree,
    f_b: TqTree,
    f_z: TqTree,
}

fn build(users: &UserSet) -> MultiIndexes {
    MultiIndexes {
        bl: BaselineIndex::build_with_capacity(users, defaults::BETA),
        s_b: TqTree::build(
            users,
            TqTreeConfig::basic(Placement::Segmented).with_beta(defaults::BETA),
        ),
        s_z: TqTree::build(
            users,
            TqTreeConfig::z_order(Placement::Segmented).with_beta(defaults::BETA),
        ),
        f_b: TqTree::build(
            users,
            TqTreeConfig::basic(Placement::FullTrajectory).with_beta(defaults::BETA),
        ),
        f_z: TqTree::build(
            users,
            TqTreeConfig::z_order(Placement::FullTrajectory).with_beta(defaults::BETA),
        ),
    }
}

fn row(
    idx: &MultiIndexes,
    users: &UserSet,
    model: &ServiceModel,
    facilities: &FacilitySet,
    k: usize,
) -> Vec<Option<f64>> {
    let mut out = Vec::with_capacity(5);
    let (_, t) = timed(|| idx.bl.top_k(users, model, facilities, k));
    out.push(Some(t));
    for tree in [&idx.s_b, &idx.s_z, &idx.f_b, &idx.f_z] {
        let (_, t) = timed(|| tq_core::top_k_facilities(tree, users, model, facilities, k));
        out.push(Some(t));
    }
    out
}

/// The multipoint scenario: point-count service over check-in sequences.
fn model() -> ServiceModel {
    ServiceModel::new(Scenario::PointCount, defaults::PSI)
}

fn nyf_users(scale: Scale) -> std::sync::Arc<UserSet> {
    data::nyf(scale.users(presets::NYF_SIZE))
}

/// Fig 8(a): time vs stops per facility on NYF.
pub fn run_a(scale: Scale) -> String {
    let users = nyf_users(scale);
    let idx = build(&users);
    let model = model();
    let mut series = Series::new(
        "Fig 8(a) — kMaxRRST multipoint NYF: time (s) vs stops per facility",
        "stops",
        &LABELS,
        Unit::Seconds,
    );
    for stops in [8usize, 16, 32, 64, 128, 256, 512] {
        let facilities = data::ny_routes(defaults::FACILITIES, stops);
        series.push(
            stops.to_string(),
            row(&idx, &users, &model, &facilities, defaults::K),
        );
    }
    series.render()
}

/// Fig 8(b): time vs number of facilities on NYF.
pub fn run_b(scale: Scale) -> String {
    let users = nyf_users(scale);
    let idx = build(&users);
    let model = model();
    let mut series = Series::new(
        "Fig 8(b) — kMaxRRST multipoint NYF: time (s) vs candidate facilities",
        "facilities",
        &LABELS,
        Unit::Seconds,
    );
    for n in [16usize, 32, 64, 128, 256, 512] {
        let facilities = data::ny_routes(n, defaults::STOPS);
        series.push(
            n.to_string(),
            row(&idx, &users, &model, &facilities, defaults::K),
        );
    }
    series.render()
}
