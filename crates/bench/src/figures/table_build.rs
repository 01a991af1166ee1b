//! Index construction times (paper §VI-B.4, reported in the text).
//!
//! The paper: TQ(B) builds in 0.74/0.95/2.42/3.74 s and TQ(Z) in
//! 1.03/1.86/4.23/9.95 s for the four NYT sizes (Java, i5-3570K). We report
//! the same sweep plus the BL point quadtree for context. Expected shape:
//! build time grows roughly linearly; TQ(Z) costs a small constant factor
//! over TQ(B) for the z-ordering.

use crate::data::{self, defaults};
use crate::report::{Series, Unit};
use crate::{timed, Scale};
use tq_core::baseline::BaselineIndex;
use tq_core::tqtree::{Placement, TqTree, TqTreeConfig};

/// Runs the construction-time sweep.
pub fn run(scale: Scale) -> String {
    let mut series = Series::new(
        "Index construction: time (s) vs user trajectories (NYT days)",
        "days",
        &["BL", "TQ(B)", "TQ(Z)"],
        Unit::Seconds,
    );
    for (label, users) in data::nyt_sweep(scale) {
        let (_, t_bl) = timed(|| BaselineIndex::build_with_capacity(&users, defaults::BETA));
        let (tqb, t_b) = timed(|| {
            TqTree::build(
                &users,
                TqTreeConfig::basic(Placement::TwoPoint).with_beta(defaults::BETA),
            )
        });
        let (tqz, t_z) = timed(|| {
            TqTree::build(
                &users,
                TqTreeConfig::z_order(Placement::TwoPoint).with_beta(defaults::BETA),
            )
        });
        assert_eq!(tqb.item_count(), users.len());
        assert_eq!(tqz.item_count(), users.len());
        series.push(
            format!("{label} ({})", users.len()),
            vec![Some(t_bl), Some(t_b), Some(t_z)],
        );
    }
    series.render()
}
