//! The paper's running Example 1 (Fig. 3, Tables I–II), reproduced
//! end-to-end: 5 workers, 5 requests, the exact arrival order of
//! Table II, and the revenue arithmetic of Fig. 3(b)/(c).

use std::collections::HashMap;

use com::prelude::*;

fn ts(s: f64) -> Timestamp {
    Timestamp::from_secs(s)
}

/// Example 1 geometry: worker coverage matches the paper's Fig. 3 —
/// w1 ⊇ {r1, r2}, w2 ⊇ {r2, r3}, w3 ⊇ {r3}, w4 ⊇ {r4}, w5 ⊇ {r5};
/// w3 and w5 belong to another platform (outer workers).
fn example_1(outer_floor_w3: f64, outer_floor_w5: f64) -> Instance {
    let p0 = PlatformId(0);
    let p1 = PlatformId(1);
    let workers = vec![
        WorkerSpec::new(WorkerId(1), p0, ts(1.0), Point::new(1.0, 1.0), 1.0),
        WorkerSpec::new(WorkerId(2), p0, ts(2.0), Point::new(2.6, 1.0), 1.0),
        WorkerSpec::new(WorkerId(3), p1, ts(4.0), Point::new(3.4, 1.6), 1.0),
        WorkerSpec::new(WorkerId(4), p0, ts(7.0), Point::new(5.0, 5.0), 1.0),
        WorkerSpec::new(WorkerId(5), p1, ts(9.0), Point::new(7.0, 7.0), 1.0),
    ];
    let requests = vec![
        RequestSpec::new(RequestId(1), p0, ts(3.0), Point::new(0.8, 1.6), 4.0),
        RequestSpec::new(RequestId(2), p0, ts(5.0), Point::new(1.9, 1.0), 9.0),
        RequestSpec::new(RequestId(3), p0, ts(6.0), Point::new(3.3, 1.0), 6.0),
        RequestSpec::new(RequestId(4), p0, ts(8.0), Point::new(5.5, 5.0), 3.0),
        RequestSpec::new(RequestId(5), p0, ts(10.0), Point::new(7.5, 7.0), 4.0),
    ];
    let mut histories = HashMap::new();
    histories.insert(
        WorkerId(3),
        WorkerHistory::from_values(vec![outer_floor_w3]),
    );
    histories.insert(
        WorkerId(5),
        WorkerHistory::from_values(vec![outer_floor_w5]),
    );
    let mut config = WorldConfig::city(10.0);
    config.service = ServiceModel::one_shot();
    Instance {
        config,
        platform_names: vec!["target".into(), "lender".into()],
        histories,
        stream: EventStream::from_specs(workers, requests),
    }
}

#[test]
fn table_ii_arrival_order_is_reproduced() {
    let inst = example_1(3.0, 2.0);
    let kinds: Vec<char> = inst
        .stream
        .iter()
        .map(|e| match e {
            com::sim::ArrivalEvent::Worker(_) => 'w',
            com::sim::ArrivalEvent::Request(_) => 'r',
        })
        .collect();
    // Table II: w1 w2 r1 w3 r2 r3 w4 r4 w5 r5.
    assert_eq!(
        kinds,
        vec!['w', 'w', 'r', 'w', 'r', 'r', 'w', 'r', 'w', 'r']
    );
}

#[test]
fn tota_offline_optimum_is_18() {
    // Fig. 3(b): without cooperation the offline optimum serves 3
    // requests for 9 + 6 + 3 = 18. Strip the outer workers to model a
    // single platform.
    let inst = example_1(3.0, 2.0);
    let workers: Vec<WorkerSpec> = inst
        .stream
        .workers()
        .filter(|w| w.platform == PlatformId(0))
        .copied()
        .collect();
    let requests: Vec<RequestSpec> = inst.stream.requests().copied().collect();
    let single = Instance {
        config: inst.config.clone(),
        platform_names: vec!["target".into()],
        histories: HashMap::new(),
        stream: EventStream::from_specs(workers, requests),
    };
    let off = offline_solve(&single, OfflineMode::ExactBipartite);
    assert_eq!(off.total_revenue, 18.0);
    assert_eq!(off.completed, 3);
}

#[test]
fn com_offline_optimum_is_21() {
    // Fig. 3(c) / Fig. 4(b): borrowing w3 and w5 at their floors (50% of
    // the request values) lifts the optimum to
    // 4 + 9 + (6−3) + 3 + (4−2) = 21.
    let inst = example_1(3.0, 2.0);
    let off = offline_solve(&inst, OfflineMode::ExactBipartite);
    assert_eq!(off.total_revenue, 21.0);
    assert_eq!(off.completed, 5);
    // Sparse solver agrees.
    let sparse = offline_solve(&inst, OfflineMode::SparseExact);
    assert_eq!(sparse.total_revenue, 21.0);
}

#[test]
fn demcom_completes_all_five_with_willing_outer_workers() {
    // With low acceptance floors both borrowed workers accept DemCOM's
    // minimum payments and all 5 requests complete (Example 2's shape).
    let inst = example_1(0.1, 0.1);
    let run = run_online(&inst, &mut DemCom::default(), 7);
    assert_eq!(run.completed(), 5);
    assert_eq!(run.cooperative_count(), 2);
    // Inner assignments give 4 + 9 + 3 = 16; outer margins are positive.
    assert!(run.total_revenue() > 16.0);
    // The two borrowed workers are exactly w3 and w5.
    let outer_ids: Vec<WorkerId> = run
        .assignments
        .iter()
        .filter(|a| a.is_cooperative_success())
        .map(|a| a.worker.unwrap())
        .collect();
    assert_eq!(outer_ids, vec![WorkerId(3), WorkerId(5)]);
}

#[test]
fn online_never_beats_offline_on_example_1() {
    let inst = example_1(0.1, 0.1);
    let off = offline_solve(&inst, OfflineMode::ExactBipartite);
    for seed in 0..10 {
        let dem = run_online(&inst, &mut DemCom::default(), seed);
        assert!(dem.total_revenue() <= off.total_revenue + 1e-9);
        let ram = run_online(&inst, &mut RamCom::default(), seed);
        assert!(ram.total_revenue() <= off.total_revenue + 1e-9);
        let tota = run_online(&inst, &mut TotaGreedy, seed);
        assert!(tota.total_revenue() <= off.total_revenue + 1e-9);
    }
}
