//! Property-based tests over the full engine: random instances, every
//! algorithm, all of Definition 2.6's invariants plus accounting
//! identities. These complement the per-module proptest suites with
//! whole-system coverage.

use std::collections::HashMap;

use com::core::{MatchSession, SessionConfig};
use com::datagen::profiles::quick;
use com::prelude::*;
use proptest::prelude::*;

/// Build a random instance from proptest-drawn raw data.
fn build_instance(
    workers: Vec<(f64, f64, f64, f64, bool)>,
    requests: Vec<(f64, f64, f64, f64, bool)>,
    one_shot: bool,
) -> Instance {
    let side = 10.0;
    let specs: Vec<WorkerSpec> = workers
        .iter()
        .enumerate()
        .map(|(i, &(x, y, t, rad, plat))| {
            WorkerSpec::new(
                WorkerId(i as u64 + 1),
                PlatformId(plat as u16),
                Timestamp::from_secs(t * 80_000.0),
                Point::new(x * side, y * side),
                0.3 + rad * 2.0,
            )
        })
        .collect();
    let reqs: Vec<RequestSpec> = requests
        .iter()
        .enumerate()
        .map(|(i, &(x, y, t, v, plat))| {
            RequestSpec::new(
                RequestId(i as u64 + 1),
                PlatformId(plat as u16),
                Timestamp::from_secs(t * 86_000.0),
                Point::new(x * side, y * side),
                1.0 + v * 50.0,
            )
        })
        .collect();
    let histories: HashMap<WorkerId, WorkerHistory> = specs
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let base = 2.0 + (i % 7) as f64 * 3.0;
            (
                w.id,
                WorkerHistory::from_values(vec![base, base + 4.0, base + 9.0]),
            )
        })
        .collect();
    let mut config = WorldConfig::city(side);
    if one_shot {
        config.service = ServiceModel::one_shot();
    }
    Instance {
        config,
        platform_names: vec!["A".into(), "B".into()],
        histories,
        stream: EventStream::from_specs(specs, reqs),
    }
}

fn entity_strategy(max: usize) -> impl Strategy<Value = Vec<(f64, f64, f64, f64, bool)>> {
    proptest::collection::vec(
        (
            0.0..1.0f64,
            0.0..1.0f64,
            0.0..1.0f64,
            0.0..1.0f64,
            proptest::bool::ANY,
        ),
        1..max,
    )
}

/// Replay `inst` through a [`MatchSession`] per builtin online matcher,
/// ticking the clock to each event with `drain_timers` before ingesting
/// it, and check after every call that the world's footprint, kept as
/// running sums, equals a recount from every worker and grid cell.
/// `live` registers each worker at its arrival instead of up front.
fn check_footprint(inst: &Instance, live: bool, seed: u64) -> Result<(), TestCaseError> {
    for matcher in [
        Box::new(TotaGreedy) as Box<dyn OnlineMatcher>,
        Box::new(DemCom::default()),
        Box::new(RamCom::default()),
    ] {
        let mut session = if live {
            let config = SessionConfig {
                world: inst.config.clone(),
                platform_names: inst.platform_names.clone(),
                max_value_hint: inst.max_value(),
            };
            let mut session = MatchSession::new(config, matcher, seed);
            for (&id, history) in &inst.histories {
                session.add_history(id, history.clone());
            }
            session
        } else {
            MatchSession::for_instance(inst, matcher, seed)
        };
        let agree = |session: &MatchSession, after: &str| {
            let world = session.world();
            prop_assert_eq!(
                world.approx_bytes(),
                world.recount_bytes(),
                "after {}",
                after
            );
            Ok(())
        };
        for event in inst.stream.iter() {
            session.drain_timers(event.time()).unwrap();
            agree(&session, "drain_timers")?;
            session.ingest(event).unwrap();
            agree(&session, "ingest")?;
        }
        session.drain_timers(Timestamp::from_secs(1e7)).unwrap();
        agree(&session, "the last drain_timers")?;
    }
    Ok(())
}

#[test]
fn footprint_sums_match_a_recount_on_the_quick_profile() {
    let mut inst = generate(&quick());
    check_footprint(&inst, false, 7).unwrap();
    inst.config.update_histories = true;
    check_footprint(&inst, false, 7).unwrap();
}

fn check_run(inst: &Instance, run: &RunResult) -> Result<(), TestCaseError> {
    // One decision per request, in order.
    prop_assert_eq!(run.assignments.len(), inst.request_count());

    // Accounting identities.
    let recomputed: f64 = run.assignments.iter().map(|a| a.platform_revenue()).sum();
    prop_assert!((recomputed - run.total_revenue()).abs() < 1e-6);
    let split: f64 = (0..2).map(|p| run.revenue_for(PlatformId(p))).sum();
    prop_assert!((split - run.total_revenue()).abs() < 1e-6);

    // Per-assignment invariants.
    let specs: HashMap<WorkerId, WorkerSpec> = inst.stream.workers().map(|w| (w.id, *w)).collect();
    let mut serve_counts: HashMap<WorkerId, usize> = HashMap::new();
    for a in &run.assignments {
        prop_assert!(a.platform_revenue() >= -1e-9);
        prop_assert!(a.outer_payment >= 0.0);
        prop_assert!(a.outer_payment <= a.request.value + 1e-9);
        if let Some(w) = a.worker {
            let spec = specs[&w];
            prop_assert!(spec.arrival <= a.request.arrival);
            match a.kind {
                MatchKind::Inner => prop_assert_eq!(spec.platform, a.request.platform),
                MatchKind::Outer => prop_assert_ne!(spec.platform, a.request.platform),
                MatchKind::Rejected => unreachable!("rejections carry no worker"),
            }
            *serve_counts.entry(w).or_insert(0) += 1;
        }
    }
    // 1-by-1 in one-shot worlds.
    if !inst.config.service.reentry {
        for (w, count) in serve_counts {
            prop_assert!(count <= 1, "worker {w} served {count} times");
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_all_algorithms_respect_invariants(
        workers in entity_strategy(16),
        requests in entity_strategy(40),
        one_shot in proptest::bool::ANY,
        seed in 0u64..1000,
    ) {
        let inst = build_instance(workers, requests, one_shot);
        for mut matcher in [
            Box::new(TotaGreedy) as Box<dyn OnlineMatcher>,
            Box::new(GreedyRt::default()),
            Box::new(DemCom::default()),
            Box::new(RamCom::default()),
            Box::new(DemCom::with_pickup_cap(0.8)),
        ] {
            let run = run_online(&inst, matcher.as_mut(), seed);
            check_run(&inst, &run)?;
        }
    }

    #[test]
    fn prop_offline_dominates_online_one_shot(
        workers in entity_strategy(12),
        requests in entity_strategy(24),
        seed in 0u64..100,
    ) {
        let inst = build_instance(workers, requests, true);
        let opt = offline_solve(&inst).total_revenue;
        for mut matcher in [
            Box::new(TotaGreedy) as Box<dyn OnlineMatcher>,
            Box::new(DemCom::default()),
            Box::new(RamCom::default()),
        ] {
            let run = run_online(&inst, matcher.as_mut(), seed);
            prop_assert!(
                run.total_revenue() <= opt + 1e-6,
                "{} beat the optimum: {} > {}",
                run.algorithm, run.total_revenue(), opt
            );
        }
    }

    #[test]
    fn prop_runs_are_seed_deterministic(
        workers in entity_strategy(10),
        requests in entity_strategy(20),
        seed in 0u64..100,
    ) {
        let inst = build_instance(workers, requests, false);
        let a = run_online(&inst, &mut RamCom::default(), seed);
        let b = run_online(&inst, &mut RamCom::default(), seed);
        prop_assert_eq!(a.total_revenue(), b.total_revenue());
        prop_assert_eq!(a.assignments.len(), b.assignments.len());
        for (x, y) in a.assignments.iter().zip(&b.assignments) {
            prop_assert_eq!(x.kind, y.kind);
            prop_assert_eq!(x.worker, y.worker);
            prop_assert_eq!(x.outer_payment, y.outer_payment);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_footprint_sums_match_a_recount(
        workers in entity_strategy(16),
        requests in entity_strategy(40),
        one_shot in proptest::bool::ANY,
        update_histories in proptest::bool::ANY,
        (finite_shift, shift) in (proptest::bool::ANY, 0.0..1.0f64),
        live in proptest::bool::ANY,
        seed in 0u64..1000,
    ) {
        let mut inst = build_instance(workers, requests, one_shot);
        inst.config.update_histories = update_histories;
        if finite_shift {
            inst.config.service = inst.config.service.with_shift(1_000.0 + shift * 40_000.0);
        }
        check_footprint(&inst, live, seed)?;
    }
}
