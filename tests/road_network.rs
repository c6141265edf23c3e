//! The §II-A road-network generalisation: the Manhattan metric changes
//! service ranges from circles to diamonds without breaking any of
//! Definition 2.6's constraints.

use com::geo::DistanceMetric;
use com::prelude::*;

fn instance(metric: DistanceMetric) -> Instance {
    let mut inst = generate(&synthetic(SyntheticParams {
        n_requests: 400,
        n_workers: 100,
        seed: 88,
        ..Default::default()
    }));
    inst.config.metric = metric;
    inst
}

#[test]
fn manhattan_range_constraint_is_enforced() {
    let inst = instance(DistanceMetric::Manhattan);
    let workers: std::collections::HashMap<WorkerId, WorkerSpec> =
        inst.stream.workers().map(|w| (w.id, *w)).collect();
    let run = run_online(&inst, &mut DemCom::default(), 3);
    let mut first_service: std::collections::HashSet<WorkerId> = Default::default();
    for a in run.assignments.iter().filter(|a| a.is_completed()) {
        let wid = a.worker.unwrap();
        if first_service.insert(wid) {
            // First service starts from the spec location: the L1 range
            // must hold (re-entries drift, so only the first is
            // spec-checkable).
            let spec = workers[&wid];
            assert!(
                spec.location.manhattan_distance(a.request.location) <= spec.radius + 1e-9,
                "L1 range violated for {wid}"
            );
        }
    }
}

#[test]
fn diamonds_serve_fewer_than_circles() {
    // The L1 ball is the inscribed diamond of the L2 ball: strictly less
    // coverage, so completions cannot increase.
    let l2 = run_online(&instance(DistanceMetric::Euclidean), &mut TotaGreedy, 3);
    let l1 = run_online(&instance(DistanceMetric::Manhattan), &mut TotaGreedy, 3);
    assert!(
        l1.completed() <= l2.completed(),
        "L1 {} > L2 {}",
        l1.completed(),
        l2.completed()
    );
    assert!(l1.completed() > 0, "diamond ranges should still serve");
}

#[test]
fn com_ordering_survives_the_metric_change() {
    let inst = instance(DistanceMetric::Manhattan);
    let tota = run_online(&inst, &mut TotaGreedy, 3).total_revenue();
    let dem = run_online(&inst, &mut DemCom::default(), 3).total_revenue();
    let ram = run_online(&inst, &mut RamCom::default(), 3).total_revenue();
    assert!(dem >= tota, "DemCOM {dem} < TOTA {tota} under L1");
    assert!(ram >= tota * 0.95, "RamCOM {ram} ≪ TOTA {tota} under L1");
}

#[test]
fn offline_still_dominates_under_manhattan() {
    let mut inst = instance(DistanceMetric::Manhattan);
    inst.config.service = ServiceModel::one_shot();
    let opt = offline_solve(&inst).total_revenue;
    for seed in [1, 2] {
        let run = run_online(&inst, &mut DemCom::default(), seed);
        assert!(run.total_revenue() <= opt + 1e-6);
    }
}
