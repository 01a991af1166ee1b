//! Parallel candidate evaluation (the `parallel` feature, on by default).
//!
//! Every query family in this crate contains an embarrassingly parallel
//! stage — per-facility work that touches only shared immutable state (the
//! [`TqTree`], the users, the [`ServiceModel`]):
//!
//! * **[`ServedTable`](crate::maxcov::ServedTable) builds** fan the
//!   per-candidate `evaluate_masks` calls out via
//!   [`par_evaluate_candidates`] — the dominant cost of every MaxkCovRST
//!   solve;
//! * **kMaxRRST initialization** ([`crate::topk`]) builds the per-facility
//!   exploration states (tree descent + bound accumulation) in parallel
//!   before the inherently sequential best-first loop takes over;
//! * **greedy rounds** ([`mod@crate::maxcov::greedy`]) compute the marginal
//!   gain of every remaining candidate in parallel;
//! * **genetic fitness** ([`mod@crate::maxcov::genetic`]) evaluates each
//!   generation's offspring concurrently.
//!
//! Determinism is non-negotiable: parallel results are **bit-identical** to
//! the serial path. The fan-out preserves input order (ordered chunk
//! concatenation), every per-item computation is pure, and reductions that
//! pick winners re-run the exact serial tie-breaking (ascending facility
//! id) over the ordered result vector. `tests/parallel_equivalence.rs`
//! asserts mask-level equality on seeded workloads.
//!
//! Thread count is a process-wide setting ([`set_threads`], surfaced as
//! `--threads` in the CLI) with a scoped override for explicit-count calls
//! such as [`ServedTable::build_parallel`](crate::maxcov::ServedTable::build_parallel).
//! Disabling the `parallel` feature removes the rayon dependency entirely;
//! every entry point below then degrades to its serial loop.
//!
//! # Composition with concurrent sessions
//!
//! The scoped override ([`with_threads`]) is **per calling thread**, not
//! process-global: each serving session can run its queries under its own
//! budget ([`crate::engine::Query::threads`]) and the fan-outs compose
//! instead of multiplying. For `S` concurrent sessions on `C` cores a
//! budget of `max(1, C / S)` threads per query keeps the machine from
//! oversubscribing to `S × C` threads. A budget of 1 makes every
//! evaluation inline on the session's own thread (zero spawn overhead),
//! which is the right call once sessions outnumber cores.

use crate::eval::{evaluate_masks, evaluate_service, EvalOutcome};
use crate::service::ServiceModel;
use crate::tqtree::TqTree;
use tq_trajectory::{FacilityId, FacilitySet, UserSet};

/// Below this many independent work items the fan-out is skipped: thread
/// spawn + join overhead would dominate the per-item work.
pub(crate) const MIN_PAR_ITEMS: usize = 8;

/// Sets the process-wide thread count for parallel evaluation
/// (`0` = automatic, one thread per available core). No-op without the
/// `parallel` feature.
pub fn set_threads(threads: usize) {
    #[cfg(feature = "parallel")]
    {
        let _ = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build_global();
    }
    #[cfg(not(feature = "parallel"))]
    let _ = threads;
}

/// The thread count parallel evaluation currently fans out to
/// (`1` without the `parallel` feature).
pub fn current_threads() -> usize {
    #[cfg(feature = "parallel")]
    {
        rayon::current_num_threads()
    }
    #[cfg(not(feature = "parallel"))]
    {
        1
    }
}

/// Ordered parallel map: applies `f` to every item, returning results in
/// input order. Serial when the `parallel` feature is off, the workload is
/// tiny, or one thread is configured.
#[cfg(feature = "parallel")]
pub(crate) fn par_map<T: Sync, R: Send>(
    items: &[T],
    f: impl Fn(&T) -> R + Sync + Send,
) -> Vec<R> {
    if items.len() < MIN_PAR_ITEMS {
        return items.iter().map(f).collect();
    }
    use rayon::prelude::*;
    items.par_iter().map(f).collect()
}

/// Serial fallback of the ordered map (feature `parallel` disabled).
#[cfg(not(feature = "parallel"))]
pub(crate) fn par_map<T: Sync, R: Send>(
    items: &[T],
    f: impl Fn(&T) -> R + Sync + Send,
) -> Vec<R> {
    items.iter().map(f).collect()
}

/// Runs `f` with `threads` worker threads active for parallel operations
/// started inside it (`0` = automatic). With the `parallel` feature off the
/// closure simply runs serially.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    #[cfg(feature = "parallel")]
    {
        match rayon::ThreadPoolBuilder::new().num_threads(threads).build() {
            Ok(pool) => pool.install(f),
            Err(_) => f(),
        }
    }
    #[cfg(not(feature = "parallel"))]
    {
        let _ = threads;
        f()
    }
}

/// Evaluates the given candidate facilities against the index, fanning the
/// independent per-facility `evaluateService` calls across threads.
///
/// Returns one [`EvalOutcome`] per candidate, **in candidate order**, each
/// bit-identical to what the serial evaluator produces for that facility.
/// `exact_masks` selects [`evaluate_masks`] (complete served-point masks,
/// as MaxkCovRST's `AGG` union requires) over [`evaluate_service`]
/// (strongest pruning, values only).
///
/// When the fan-out actually runs in parallel, each outcome's
/// [`EvalStats::parallel_tasks`](crate::eval::EvalStats::parallel_tasks)
/// is set to `1`, so aggregated stats report how many evaluations were
/// dispatched as parallel tasks.
pub fn par_evaluate_candidates(
    tree: &TqTree,
    users: &UserSet,
    model: &ServiceModel,
    facilities: &FacilitySet,
    candidates: &[FacilityId],
    exact_masks: bool,
) -> Vec<EvalOutcome> {
    let parallel_run = current_threads() > 1 && candidates.len() >= MIN_PAR_ITEMS;
    let mut outcomes = par_map(candidates, |&fid| {
        let f = facilities.get(fid);
        if exact_masks {
            evaluate_masks(tree, users, model, f)
        } else {
            evaluate_service(tree, users, model, f)
        }
    });
    if parallel_run {
        for out in &mut outcomes {
            out.stats.parallel_tasks = 1;
        }
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::Scenario;
    use crate::tqtree::TqTreeConfig;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use tq_geometry::Point;
    use tq_trajectory::{Facility, Trajectory};

    fn instance(seed: u64, n_users: usize, n_fac: usize) -> (UserSet, FacilitySet) {
        let mut rng = StdRng::seed_from_u64(seed);
        let users = UserSet::from_vec(
            (0..n_users)
                .map(|_| {
                    Trajectory::two_point(
                        Point::new(rng.gen_range(0.0..90.0), rng.gen_range(0.0..90.0)),
                        Point::new(rng.gen_range(0.0..90.0), rng.gen_range(0.0..90.0)),
                    )
                })
                .collect(),
        );
        let facilities = FacilitySet::from_vec(
            (0..n_fac)
                .map(|_| {
                    Facility::new(vec![
                        Point::new(rng.gen_range(0.0..90.0), rng.gen_range(0.0..90.0)),
                        Point::new(rng.gen_range(0.0..90.0), rng.gen_range(0.0..90.0)),
                    ])
                })
                .collect(),
        );
        (users, facilities)
    }

    #[test]
    fn parallel_outcomes_match_serial_evaluator() {
        let (users, facilities) = instance(11, 400, 24);
        let tree = TqTree::build(&users, TqTreeConfig::default());
        let model = ServiceModel::new(Scenario::Transit, 5.0);
        let ids: Vec<FacilityId> = facilities.iter().map(|(id, _)| id).collect();
        for exact in [false, true] {
            let par = with_threads(4, || {
                par_evaluate_candidates(&tree, &users, &model, &facilities, &ids, exact)
            });
            assert_eq!(par.len(), ids.len());
            for (i, &fid) in ids.iter().enumerate() {
                let f = facilities.get(fid);
                let serial = if exact {
                    evaluate_masks(&tree, &users, &model, f)
                } else {
                    evaluate_service(&tree, &users, &model, f)
                };
                assert_eq!(par[i].value, serial.value, "facility {fid}");
                assert_eq!(par[i].masks, serial.masks, "facility {fid}");
            }
        }
    }

    #[test]
    fn candidate_subsets_and_order_are_respected() {
        let (users, facilities) = instance(12, 200, 16);
        let tree = TqTree::build(&users, TqTreeConfig::default());
        let model = ServiceModel::new(Scenario::PointCount, 6.0);
        // Reversed, strided subset: outcomes must follow the given order.
        let mut ids: Vec<FacilityId> = facilities
            .iter()
            .map(|(id, _)| id)
            .filter(|id| id % 2 == 0)
            .collect();
        ids.reverse();
        let got = par_evaluate_candidates(&tree, &users, &model, &facilities, &ids, true);
        for (i, &fid) in ids.iter().enumerate() {
            let want = evaluate_masks(&tree, &users, &model, facilities.get(fid));
            assert_eq!(got[i].value, want.value, "candidate order broken at {i}");
        }
    }

    #[test]
    fn thread_setting_is_visible() {
        assert!(current_threads() >= 1);
        let inside = with_threads(3, current_threads);
        if cfg!(feature = "parallel") {
            assert_eq!(inside, 3);
        } else {
            assert_eq!(inside, 1);
        }
    }
}
