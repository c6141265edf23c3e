//! OFF dominates every online algorithm on one-shot instances — the
//! invariant behind every competitive-ratio statement.

use com::prelude::*;

fn one_shot_instance(seed: u64, n_requests: usize, n_workers: usize) -> Instance {
    let mut config = synthetic(SyntheticParams {
        n_requests,
        n_workers,
        radius_km: 2.0,
        seed,
        ..Default::default()
    });
    config.service = ServiceModel::one_shot();
    generate(&config)
}

#[test]
fn exact_off_dominates_every_online_run() {
    for seed in [11, 22, 33] {
        let inst = one_shot_instance(seed, 120, 60);
        let opt = offline_solve(&inst, OfflineMode::ExactBipartite).total_revenue;
        for run_seed in [1, 2] {
            for run in [
                run_online(&inst, &mut TotaGreedy, run_seed),
                run_online(&inst, &mut GreedyRt::default(), run_seed),
                run_online(&inst, &mut DemCom::default(), run_seed),
                run_online(&inst, &mut RamCom::default(), run_seed),
            ] {
                assert!(
                    run.total_revenue() <= opt + 1e-6,
                    "{} revenue {} exceeds OFF {}",
                    run.algorithm,
                    run.total_revenue(),
                    opt
                );
            }
        }
    }
}

#[test]
fn sparse_and_dense_exact_solvers_agree_on_synthetic_instances() {
    for seed in [5, 6] {
        let inst = one_shot_instance(seed, 150, 70);
        let dense = offline_solve(&inst, OfflineMode::ExactBipartite);
        let sparse = offline_solve(&inst, OfflineMode::SparseExact);
        assert!(
            (dense.total_revenue - sparse.total_revenue).abs() < 1e-6,
            "hungarian {} vs ssp {}",
            dense.total_revenue,
            sparse.total_revenue
        );
        assert_eq!(dense.completed, sparse.completed);
    }
}

#[test]
fn exact_off_caps_the_greedy_schedule_without_reentry() {
    // No re-entry, so both solve the same combinatorial problem and the
    // exact matching is at least the schedule heuristic.
    let inst = one_shot_instance(77, 100, 50);
    let exact = offline_solve(&inst, OfflineMode::ExactBipartite).total_revenue;
    let greedy = offline_solve(&inst, OfflineMode::GreedySchedule).total_revenue;
    assert!(exact >= greedy - 1e-6);
}

#[test]
fn reentry_off_never_serves_fewer_than_one_shot_off() {
    let mut one_shot = synthetic(SyntheticParams {
        n_requests: 200,
        n_workers: 40,
        seed: 9,
        ..Default::default()
    });
    one_shot.service = ServiceModel::one_shot();
    let inst_one = generate(&one_shot);

    let mut reentry = one_shot.clone();
    reentry.service = ServiceModel::default_taxi();
    let inst_re = generate(&reentry);

    // Same entities, same stream (service model does not affect
    // generation), so the comparison is apples to apples.
    assert_eq!(inst_one.stream, inst_re.stream);

    let off_one = offline_solve(&inst_one, OfflineMode::GreedySchedule);
    let off_re = offline_solve(&inst_re, OfflineMode::GreedySchedule);
    assert!(
        off_re.completed >= off_one.completed,
        "re-entry {} < one-shot {}",
        off_re.completed,
        off_one.completed
    );
    assert!(off_re.total_revenue >= off_one.total_revenue - 1e-6);
}

#[test]
fn empirical_ratios_match_report_invariants() {
    let inst = one_shot_instance(3, 80, 40);
    let report = competitive_ratio_random_order(
        &inst,
        &mut || Box::new(DemCom::default()) as Box<dyn OnlineMatcher>,
        12,
        17,
    );
    assert_eq!(report.ratios.len(), 12);
    assert!(report.min <= report.mean && report.mean <= 1.0 + 1e-9);
    assert!(
        report.min > 0.0,
        "greedy never earns zero on these instances"
    );
}
