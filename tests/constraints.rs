//! Definition 2.6's four constraints, checked over full runs of every
//! algorithm (property-style: the engine's assertions enforce them at
//! assignment time; these tests re-verify from the immutable assignment
//! records, independently of the engine).

use std::collections::HashMap;

use com::prelude::*;
use com::sim::ArrivalEvent;

fn check_constraints(inst: &Instance, run: &RunResult) {
    // Reconstruct worker arrival times and specs from the stream.
    let workers: HashMap<WorkerId, WorkerSpec> =
        inst.stream.workers().map(|w| (w.id, *w)).collect();

    // 1-by-1 (one-shot world): every worker serves at most one request.
    let one_shot = !inst.config.service.reentry;
    let mut served_by: HashMap<WorkerId, usize> = HashMap::new();

    for a in &run.assignments {
        match a.kind {
            MatchKind::Rejected => {
                assert!(a.worker.is_none());
                assert_eq!(a.outer_payment, 0.0);
            }
            MatchKind::Inner | MatchKind::Outer => {
                let wid = a.worker.expect("served request has a worker");
                let spec = workers[&wid];
                // Inner/outer classification is correct.
                if a.kind == MatchKind::Inner {
                    assert_eq!(spec.platform, a.request.platform);
                    assert_eq!(a.outer_payment, 0.0);
                } else {
                    assert_ne!(spec.platform, a.request.platform);
                    assert!(a.outer_payment > 0.0);
                    assert!(a.outer_payment <= a.request.value + 1e-9);
                }
                // Time constraint: the worker's first arrival precedes
                // the request (re-entries only happen later still).
                assert!(
                    spec.arrival <= a.request.arrival,
                    "worker {wid} arrived after request {}",
                    a.request.id
                );
                // Range constraint, first service only: the worker's
                // spec location covers the request (after re-entry the
                // worker moves, so only the first service is checkable
                // from the specs alone).
                let count = served_by.entry(wid).or_insert(0);
                if *count == 0 {
                    assert!(
                        spec.covers(a.request.location) || inst.config.service.reentry,
                        "range violated on first service of {wid}"
                    );
                }
                *count += 1;
            }
        }
    }

    if one_shot {
        for (wid, count) in &served_by {
            assert!(*count <= 1, "worker {wid} served {count} times (one-shot)");
        }
    }

    // Every request in the stream got exactly one decision, in order.
    let request_ids: Vec<RequestId> = inst
        .stream
        .iter()
        .filter_map(|e| match e {
            ArrivalEvent::Request(r) => Some(r.id),
            _ => None,
        })
        .collect();
    let decided: Vec<RequestId> = run.assignments.iter().map(|a| a.request.id).collect();
    assert_eq!(request_ids, decided);
}

fn instances() -> Vec<Instance> {
    let mut one_shot = synthetic(SyntheticParams {
        n_requests: 300,
        n_workers: 90,
        seed: 404,
        ..Default::default()
    });
    one_shot.service = ServiceModel::one_shot();
    let reentry = synthetic(SyntheticParams {
        n_requests: 300,
        n_workers: 90,
        seed: 405,
        ..Default::default()
    });
    vec![generate(&one_shot), generate(&reentry)]
}

#[test]
fn tota_satisfies_definition_2_6() {
    for inst in instances() {
        let run = run_online(&inst, &mut TotaGreedy, 1);
        check_constraints(&inst, &run);
        // TOTA additionally never borrows.
        assert!(run.assignments.iter().all(|a| a.kind != MatchKind::Outer));
    }
}

#[test]
fn demcom_satisfies_definition_2_6() {
    for inst in instances() {
        let run = run_online(&inst, &mut DemCom::default(), 2);
        check_constraints(&inst, &run);
    }
}

#[test]
fn ramcom_satisfies_definition_2_6() {
    for inst in instances() {
        let run = run_online(&inst, &mut RamCom::default(), 3);
        check_constraints(&inst, &run);
    }
}

#[test]
fn greedy_rt_satisfies_definition_2_6() {
    for inst in instances() {
        let run = run_online(&inst, &mut GreedyRt::default(), 4);
        check_constraints(&inst, &run);
    }
}

#[test]
fn invariable_constraint_under_reentry() {
    // A worker serving a request stays busy for the whole service window:
    // no other assignment of the same worker may start before the
    // previous one's completion. We reconstruct service windows with the
    // service model.
    let inst = generate(&synthetic(SyntheticParams {
        n_requests: 400,
        n_workers: 30, // scarce workers → lots of re-use
        seed: 406,
        ..Default::default()
    }));
    let run = run_online(&inst, &mut DemCom::default(), 9);
    let mut windows: HashMap<WorkerId, Vec<(f64, f64)>> = HashMap::new();
    let mut locations: HashMap<WorkerId, Point> =
        inst.stream.workers().map(|w| (w.id, w.location)).collect();
    for a in &run.assignments {
        if let Some(wid) = a.worker {
            let start = a.request.arrival.as_secs();
            let loc = locations[&wid];
            let busy = inst.config.service.busy_secs(loc, a.request.location);
            windows.entry(wid).or_default().push((start, start + busy));
            locations.insert(wid, a.request.location);
        }
    }
    for (wid, spans) in windows {
        for pair in spans.windows(2) {
            assert!(
                pair[1].0 >= pair[0].1 - 1e-6,
                "worker {wid} reassigned at {} before finishing at {}",
                pair[1].0,
                pair[0].1
            );
        }
    }
}
