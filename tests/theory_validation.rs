//! Empirical checks of the paper's theoretical statements (Theorems 1–2
//! and the Section II/VI remarks).

use std::collections::HashMap;

use com::prelude::*;

fn ts(s: f64) -> Timestamp {
    Timestamp::from_secs(s)
}

/// The classic greedy-killer: one worker, a cheap request arrives first,
/// an expensive one second. Greedy burns the worker on the cheap request.
fn adversarial_instance(big_value: f64) -> Instance {
    let p0 = PlatformId(0);
    let workers = vec![WorkerSpec::new(
        WorkerId(1),
        p0,
        ts(0.0),
        Point::new(5.0, 5.0),
        1.0,
    )];
    let requests = vec![
        RequestSpec::new(RequestId(1), p0, ts(10.0), Point::new(5.1, 5.0), 1.0),
        RequestSpec::new(RequestId(2), p0, ts(20.0), Point::new(5.2, 5.0), big_value),
    ];
    let mut config = WorldConfig::city(10.0);
    config.service = ServiceModel::one_shot();
    Instance {
        config,
        platform_names: vec!["solo".into()],
        histories: HashMap::new(),
        stream: EventStream::from_specs(workers, requests),
    }
}

#[test]
fn theorem_1_greedy_adversarial_ratio_is_unbounded() {
    // Theorem 1: CR_A of DemCOM (= greedy when W_out = ∅) has no bound —
    // the adversarial ratio can be driven arbitrarily close to zero.
    let mut ratios = Vec::new();
    for big in [10.0, 100.0, 1000.0] {
        let inst = adversarial_instance(big);
        let opt = offline_solve(&inst).total_revenue;
        assert_eq!(opt, big); // the optimum serves the expensive request
        let greedy = run_online(&inst, &mut TotaGreedy, 1).total_revenue();
        assert_eq!(greedy, 1.0); // greedy burned the worker on ¥1
        ratios.push(greedy / opt);
    }
    assert!(ratios[0] > ratios[1] && ratios[1] > ratios[2]);
    assert!(ratios[2] < 0.002, "ratio should vanish: {ratios:?}");
}

#[test]
fn ramcom_randomization_hedges_the_adversary() {
    // The whole point of the e^k threshold: with some probability the
    // cheap request is filtered out and the worker survives for the
    // expensive one, so the *expected* ratio stays bounded away from the
    // greedy collapse.
    let inst = adversarial_instance(1000.0);
    let opt = offline_solve(&inst).total_revenue;
    let mut total = 0.0;
    let trials = 64;
    // No-fallback literal mode: the hedge is the rejection of the cheap
    // request (with fallback it would be served inner and the hedge
    // disappears, exactly as in plain greedy).
    for seed in 0..trials {
        let mut m = RamCom::new(RamComConfig::paper_literal());
        total += run_online(&inst, &mut m, seed).total_revenue() / opt;
    }
    let mean_ratio = total / trials as f64;
    let greedy_ratio = run_online(&inst, &mut TotaGreedy, 1).total_revenue() / opt;
    assert!(
        mean_ratio > greedy_ratio * 10.0,
        "RamCOM mean ratio {mean_ratio} should dwarf greedy's {greedy_ratio}"
    );
    // And comfortably above the proven 1/(8e) bound on this instance.
    assert!(mean_ratio > 1.0 / (8.0 * std::f64::consts::E));
}

#[test]
fn demcom_reduces_to_tota_without_outer_workers() {
    // Section II-A: TOTA is the special case W_out = ∅ of COM. On a
    // single-platform instance DemCOM must behave *identically* to the
    // greedy baseline, decision for decision.
    let mut config = synthetic(SyntheticParams {
        n_requests: 300,
        n_workers: 80,
        seed: 3030,
        ..Default::default()
    });
    // Collapse to one platform: move everything to platform 0.
    config.platforms[0].n_requests += config.platforms[1].n_requests;
    config.platforms[0].n_workers += config.platforms[1].n_workers;
    config.platforms.truncate(1);
    let inst = generate(&config);

    let tota = run_online(&inst, &mut TotaGreedy, 9);
    let dem = run_online(&inst, &mut DemCom::default(), 9);
    assert_eq!(tota.total_revenue(), dem.total_revenue());
    assert_eq!(tota.completed(), dem.completed());
    assert_eq!(dem.cooperative_count(), 0);
    let kinds_t: Vec<MatchKind> = tota.assignments.iter().map(|a| a.kind).collect();
    let kinds_d: Vec<MatchKind> = dem.assignments.iter().map(|a| a.kind).collect();
    assert_eq!(kinds_t, kinds_d);
    let workers_t: Vec<Option<WorkerId>> = tota.assignments.iter().map(|a| a.worker).collect();
    let workers_d: Vec<Option<WorkerId>> = dem.assignments.iter().map(|a| a.worker).collect();
    assert_eq!(workers_t, workers_d);
}

#[test]
fn worst_case_orders_are_rare() {
    // The Section II-B remark (after [12]): the worst arrival order has
    // probability ≈ 1/k!, so random-order performance concentrates far
    // above the adversarial bound. Measure the spread of ratios over
    // many random orders of a moderate instance.
    let mut config = synthetic(SyntheticParams {
        n_requests: 60,
        n_workers: 30,
        radius_km: 3.0,
        seed: 515,
        ..Default::default()
    });
    config.service = ServiceModel::one_shot();
    let inst = generate(&config);
    let report = competitive_ratio_random_order(
        &inst,
        &mut || Box::new(TotaGreedy) as Box<dyn OnlineMatcher>,
        64,
        2,
    );
    // The mean sits well above the observed minimum, and no sampled
    // order comes close to the pathological 1/v collapse.
    assert!(report.mean > report.min);
    assert!(
        report.min > 0.05,
        "sampled min {} suspiciously low",
        report.min
    );
    let below_half_mean = report
        .ratios
        .iter()
        .filter(|&&r| r < report.mean * 0.5)
        .count();
    assert!(
        below_half_mean * 10 <= report.ratios.len(),
        "too many near-worst-case orders: {below_half_mean}/{}",
        report.ratios.len()
    );
}

#[test]
fn ramcom_beats_its_proven_bound_on_random_instances() {
    // Theorem 2: CR ≥ 1/(8e). The proven bound is a worst-case floor;
    // every sampled random-order ratio should clear it with a wide
    // margin.
    let mut config = synthetic(SyntheticParams {
        n_requests: 60,
        n_workers: 30,
        radius_km: 3.0,
        seed: 616,
        ..Default::default()
    });
    config.service = ServiceModel::one_shot();
    let inst = generate(&config);
    let report = competitive_ratio_random_order(
        &inst,
        &mut || Box::new(RamCom::default()) as Box<dyn OnlineMatcher>,
        32,
        3,
    );
    let bound = 1.0 / (8.0 * std::f64::consts::E);
    assert!(
        report.min > bound,
        "sampled min {} at or below the 1/(8e) bound {bound}",
        report.min
    );
}
