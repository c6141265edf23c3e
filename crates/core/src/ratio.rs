//! Empirical competitive-ratio measurement (Definitions 2.7 and 2.8).
//!
//! The adversarial model takes the minimum ratio over all arrival orders;
//! the random-order model takes the expectation over uniformly random
//! orders. Both are estimated by sampling permutations of the instance's
//! arrival stream and comparing each online run to the offline optimum
//! (the exact Fig. 4 matching of a one-shot instance).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use com_sim::Instance;

use crate::engine::run_online;
use crate::matcher::OnlineMatcher;
use crate::offline::offline_solve;

/// The result of a competitive-ratio study on one instance.
#[derive(Debug, Clone, PartialEq)]
pub struct CrReport {
    /// Offline optimum `MaxSum(OPT)` the ratios are measured against.
    pub(crate) optimum: f64,
    /// One ratio per sampled arrival order.
    pub ratios: Vec<f64>,
    /// Minimum sampled ratio — an (optimistic) estimate of `CR_A`.
    pub min: f64,
    /// Mean sampled ratio — an estimate of `CR_RO`'s inner expectation.
    pub mean: f64,
}

impl CrReport {
    fn from_ratios(optimum: f64, ratios: Vec<f64>) -> Self {
        let min = ratios.iter().copied().fold(f64::INFINITY, f64::min);
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        CrReport {
            optimum,
            ratios,
            min,
            mean,
        }
    }
}

/// Estimate the random-order competitive ratio of `make_matcher`'s
/// algorithm on `instance` by sampling `orders` uniformly random arrival
/// permutations (the first sample is the instance's own order, so the
/// report also covers the "natural" arrival sequence).
///
/// Permuting reassigns the stream's fixed time axis to different
/// entities, so each sampled order is its own offline input; every ratio
/// is therefore measured against *that order's* exact optimum, which
/// keeps all ratios in `[0, 1]` by the dominance invariant. (A permuted
/// order with a zero optimum — nothing feasible — contributes ratio 1:
/// the online algorithm also earns exactly zero there.) The reported
/// `CrReport::optimum` is the natural order's.
///
/// # Panics
/// Panics if `orders == 0`, if the instance's workers re-enter (the exact
/// optimum is the one-shot matching, which a re-entry run can beat, so
/// its ratios could exceed 1), or if the natural-order offline optimum
/// is zero (no feasible matching — a degenerate instance with no
/// meaningful ratio).
pub fn competitive_ratio_random_order(
    instance: &Instance,
    make_matcher: &mut dyn FnMut() -> Box<dyn OnlineMatcher>,
    orders: usize,
    seed: u64,
) -> CrReport {
    assert!(orders > 0, "need at least one arrival order");
    assert!(
        !instance.config.service.reentry,
        "competitive ratio needs a one-shot instance; its workers re-enter"
    );
    let opt = offline_solve(instance).total_revenue;
    assert!(
        opt > 0.0,
        "offline optimum is zero; competitive ratio undefined"
    );

    let mut rng = StdRng::seed_from_u64(seed);
    let n = instance.stream.len();
    let mut ratios = Vec::with_capacity(orders);

    for trial in 0..orders {
        let permuted;
        let inst = if trial == 0 {
            instance
        } else {
            let mut perm: Vec<usize> = (0..n).collect();
            perm.shuffle(&mut rng);
            permuted = instance.permuted(&perm);
            &permuted
        };
        let opt_trial = if trial == 0 {
            opt
        } else {
            offline_solve(inst).total_revenue
        };
        let mut matcher = make_matcher();
        let result = run_online(inst, matcher.as_mut(), seed.wrapping_add(trial as u64));
        ratios.push(if opt_trial > 0.0 {
            result.total_revenue() / opt_trial
        } else {
            1.0
        });
    }

    CrReport::from_ratios(opt, ratios)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DemCom, RamCom, TotaGreedy};
    use com_geo::Point;
    use com_pricing::WorkerHistory;
    use com_sim::{
        EventStream, PlatformId, RequestId, RequestSpec, ServiceModel, Timestamp, WorkerId,
        WorkerSpec, WorldConfig,
    };
    use std::collections::HashMap;

    fn ts(s: f64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn cr_instance() -> Instance {
        let p0 = PlatformId(0);
        let p1 = PlatformId(1);
        let workers = vec![
            WorkerSpec::new(WorkerId(1), p0, ts(0.0), Point::new(2.0, 2.0), 1.5),
            WorkerSpec::new(WorkerId(2), p0, ts(0.0), Point::new(4.0, 2.0), 1.5),
            WorkerSpec::new(WorkerId(3), p1, ts(0.0), Point::new(3.0, 3.0), 1.5),
        ];
        let requests = vec![
            RequestSpec::new(RequestId(1), p0, ts(10.0), Point::new(2.2, 2.0), 8.0),
            RequestSpec::new(RequestId(2), p0, ts(20.0), Point::new(4.2, 2.0), 6.0),
            RequestSpec::new(RequestId(3), p0, ts(30.0), Point::new(3.0, 2.8), 4.0),
        ];
        let mut histories = HashMap::new();
        histories.insert(WorkerId(3), WorkerHistory::from_values(vec![0.1]));
        let mut config = WorldConfig::city(10.0);
        config.service = ServiceModel::one_shot();
        Instance {
            config,
            platform_names: vec!["A".into(), "B".into()],
            histories,
            stream: EventStream::from_specs(workers, requests),
        }
    }

    #[test]
    fn ratios_are_within_unit_interval() {
        let inst = cr_instance();
        let report = competitive_ratio_random_order(
            &inst,
            &mut || Box::new(TotaGreedy) as Box<dyn OnlineMatcher>,
            16,
            1,
        );
        assert_eq!(report.ratios.len(), 16);
        for r in &report.ratios {
            assert!((0.0..=1.0 + 1e-9).contains(r), "ratio {r} out of range");
        }
        assert!(report.min <= report.mean);
        assert!(report.optimum > 0.0);
    }

    #[test]
    fn com_algorithms_beat_tota_on_average_here() {
        // With an outer worker covering the third request, the COM
        // algorithms have strictly more opportunity than TOTA.
        let inst = cr_instance();
        let tota = competitive_ratio_random_order(
            &inst,
            &mut || Box::new(TotaGreedy) as Box<dyn OnlineMatcher>,
            24,
            7,
        );
        let dem = competitive_ratio_random_order(
            &inst,
            &mut || Box::new(DemCom::default()) as Box<dyn OnlineMatcher>,
            24,
            7,
        );
        assert!(
            dem.mean >= tota.mean - 1e-9,
            "DemCOM mean {} < TOTA mean {}",
            dem.mean,
            tota.mean
        );
    }

    #[test]
    fn ramcom_report_is_reproducible() {
        let inst = cr_instance();
        let a = competitive_ratio_random_order(
            &inst,
            &mut || Box::new(RamCom::default()) as Box<dyn OnlineMatcher>,
            8,
            99,
        );
        let b = competitive_ratio_random_order(
            &inst,
            &mut || Box::new(RamCom::default()) as Box<dyn OnlineMatcher>,
            8,
            99,
        );
        assert_eq!(a.ratios, b.ratios);
    }

    #[test]
    #[should_panic(expected = "at least one arrival order")]
    fn zero_orders_rejected() {
        let inst = cr_instance();
        competitive_ratio_random_order(
            &inst,
            &mut || Box::new(TotaGreedy) as Box<dyn OnlineMatcher>,
            0,
            1,
        );
    }

    #[test]
    #[should_panic(expected = "needs a one-shot instance")]
    fn reentry_instance_rejected() {
        // Under re-entry a worker serves several requests, so an online
        // run can beat the one-shot optimum (ratios above 1).
        let mut inst = cr_instance();
        inst.config.service = ServiceModel::taxi(30.0, 60.0);
        competitive_ratio_random_order(
            &inst,
            &mut || Box::new(TotaGreedy) as Box<dyn OnlineMatcher>,
            4,
            1,
        );
    }
}
