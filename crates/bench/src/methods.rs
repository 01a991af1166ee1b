//! Uniform wrappers over the compared methods.
//!
//! The paper compares, for kMaxRRST: **BL** (point-quadtree baseline),
//! **TQ(B)** (hierarchy only) and **TQ(Z)** (hierarchy + z-ordering); and
//! for MaxkCovRST: **G-BL**, **G-TQ(B)**, **G-TQ(Z)** and **Gn-TQ(Z)**.
//! These helpers build the three indexes consistently and expose
//! one-call-per-method entry points so every figure module reads the same.

use tq_core::baseline::BaselineIndex;
use tq_core::maxcov::{genetic, greedy, CovOutcome, GeneticConfig, ServedTable};
use tq_core::service::ServiceModel;
use tq_core::tqtree::{Placement, Storage, TqTree, TqTreeConfig};
use tq_trajectory::{FacilitySet, UserSet};

/// The kMaxRRST method family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Point-quadtree baseline.
    Bl,
    /// TQ-tree with flat per-node lists.
    TqBasic,
    /// TQ-tree with z-ordered per-node lists.
    TqZ,
}

impl Method {
    /// Display label as used in the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            Method::Bl => "BL",
            Method::TqBasic => "TQ(B)",
            Method::TqZ => "TQ(Z)",
        }
    }
}

/// The three indexes over one user set.
pub struct Indexes {
    /// The paper's BL index.
    pub bl: BaselineIndex,
    /// TQ(B).
    pub tq_basic: TqTree,
    /// TQ(Z).
    pub tq_z: TqTree,
}

/// Builds all three indexes with a given placement and β.
pub fn build_indexes(users: &UserSet, placement: Placement, beta: usize) -> Indexes {
    Indexes {
        bl: BaselineIndex::build_with_capacity(users, beta),
        tq_basic: TqTree::build(users, TqTreeConfig::basic(placement).with_beta(beta)),
        tq_z: TqTree::build(users, TqTreeConfig::z_order(placement).with_beta(beta)),
    }
}

impl Indexes {
    /// Service value of one facility through `method`.
    pub fn evaluate(
        &self,
        method: Method,
        users: &UserSet,
        model: &ServiceModel,
        facility: &tq_trajectory::Facility,
    ) -> f64 {
        match method {
            Method::Bl => self.bl.evaluate(users, model, facility).value,
            Method::TqBasic => {
                tq_core::evaluate_service(&self.tq_basic, users, model, facility).value
            }
            Method::TqZ => tq_core::evaluate_service(&self.tq_z, users, model, facility).value,
        }
    }

    /// kMaxRRST through `method`; returns the ranked result.
    pub fn top_k(
        &self,
        method: Method,
        users: &UserSet,
        model: &ServiceModel,
        facilities: &FacilitySet,
        k: usize,
    ) -> Vec<(u32, f64)> {
        match method {
            Method::Bl => self.bl.top_k(users, model, facilities, k).ranked,
            Method::TqBasic => {
                tq_core::top_k_facilities(&self.tq_basic, users, model, facilities, k).ranked
            }
            Method::TqZ => {
                tq_core::top_k_facilities(&self.tq_z, users, model, facilities, k).ranked
            }
        }
    }

    /// MaxkCovRST greedy through `method` (G-BL / G-TQ(B) / G-TQ(Z)).
    pub fn greedy_cov(
        &self,
        method: Method,
        users: &UserSet,
        model: &ServiceModel,
        facilities: &FacilitySet,
        k: usize,
    ) -> CovOutcome {
        let table = self.served_table(method, users, model, facilities);
        greedy(&table, users, model, k)
    }

    /// The genetic competitor over the TQ(Z) evaluation (Gn-TQ(Z)).
    pub fn genetic_cov(
        &self,
        users: &UserSet,
        model: &ServiceModel,
        facilities: &FacilitySet,
        k: usize,
    ) -> CovOutcome {
        let table = self.served_table(Method::TqZ, users, model, facilities);
        genetic(&table, users, model, k, &GeneticConfig::default())
    }

    /// The [`ServedTable`] built through `method`'s evaluator.
    pub fn served_table(
        &self,
        method: Method,
        users: &UserSet,
        model: &ServiceModel,
        facilities: &FacilitySet,
    ) -> ServedTable {
        match method {
            Method::Bl => self.bl.served_table(users, model, facilities),
            Method::TqBasic => ServedTable::build(&self.tq_basic, users, model, facilities),
            Method::TqZ => ServedTable::build(&self.tq_z, users, model, facilities),
        }
    }
}

/// Marker that all storage variants exist (compile-time sanity for the
/// method mapping above).
pub const STORAGES: [Storage; 2] = [Storage::Basic, Storage::ZOrder];

#[cfg(test)]
mod tests {
    use super::*;
    use tq_core::service::Scenario;
    use tq_datagen::{bus_routes, taxi_trips, CityModel};

    #[test]
    fn all_methods_agree_on_values() {
        let city = CityModel::synthetic(3, 6, 5_000.0);
        let users = taxi_trips(&city, 800, 1);
        let facilities = bus_routes(&city, 8, 10, 2_000.0, 2);
        let model = ServiceModel::new(Scenario::Transit, 150.0);
        let idx = build_indexes(&users, Placement::TwoPoint, 32);
        for (_, f) in facilities.iter() {
            let bl = idx.evaluate(Method::Bl, &users, &model, f);
            let tb = idx.evaluate(Method::TqBasic, &users, &model, f);
            let tz = idx.evaluate(Method::TqZ, &users, &model, f);
            assert!((bl - tb).abs() < 1e-9);
            assert!((bl - tz).abs() < 1e-9);
        }
        // And on the top-k ranking values.
        let want: Vec<f64> = idx
            .top_k(Method::Bl, &users, &model, &facilities, 4)
            .iter()
            .map(|(_, v)| *v)
            .collect();
        for m in [Method::TqBasic, Method::TqZ] {
            let got: Vec<f64> = idx
                .top_k(m, &users, &model, &facilities, 4)
                .iter()
                .map(|(_, v)| *v)
                .collect();
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-9, "{m:?}");
            }
        }
    }

    #[test]
    fn greedy_families_agree() {
        let city = CityModel::synthetic(4, 6, 5_000.0);
        let users = taxi_trips(&city, 500, 3);
        let facilities = bus_routes(&city, 10, 8, 2_000.0, 4);
        let model = ServiceModel::new(Scenario::Transit, 150.0);
        let idx = build_indexes(&users, Placement::TwoPoint, 32);
        let a = idx.greedy_cov(Method::Bl, &users, &model, &facilities, 3);
        let b = idx.greedy_cov(Method::TqBasic, &users, &model, &facilities, 3);
        let c = idx.greedy_cov(Method::TqZ, &users, &model, &facilities, 3);
        assert_eq!(a.value, b.value);
        assert_eq!(b.value, c.value);
        assert_eq!(a.chosen, c.chosen);
    }
}
