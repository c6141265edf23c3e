//! Post-run auditing — an always-on, release-mode check of every paper
//! invariant over a finished assignment log.
//!
//! The engine enforces COM's constraints *while* replaying; the auditor
//! independently re-derives them *after* the fact from nothing but the
//! [`Instance`] and the [`RunResult`]. Because it never looks at the
//! engine's internal state, it catches bugs in the enforcement path
//! itself (the differential-oracle property pinned by
//! `tests/audit_oracle.rs`) and corruption introduced anywhere between
//! the run and its consumer. Unlike the `debug_assert!`s it complements,
//! it runs in `--release` builds too.
//!
//! Invariants checked, next to their paper definitions (§II):
//!
//! * **Range constraint** (Def. 2.2): the serving worker's circle, at its
//!   position when the decision was taken, covers the request.
//! * **Invariable assignment / 1-by-1 occupancy** (Def. 2.2): replaying
//!   each worker's assignments in decision order, every next decision
//!   starts at or after the previous service completion — and a one-shot
//!   service model admits at most one assignment per worker.
//! * **Time constraint** (Def. 2.2): the worker was present (arrived, or
//!   re-entered after its previous job) no later than the request's
//!   arrival, and nobody is assigned after their shift ended.
//! * **Cross-platform rules** (Def. 2.3): inner assignments use the
//!   request's own platform, outer assignments use a genuinely foreign
//!   worker whose recorded platform matches its spec.
//! * **Payment bound** (Def. 2.4): outer payments lie in `(0, v_r]`;
//!   inner assignments and rejections carry no payment.
//! * **Revenue / travel arithmetic** (Def. 2.5): recorded `travel_km`
//!   equals the metric distance actually travelled.
//! * **Log shape**: exactly one record per stream request, each matching
//!   its spec, reported in arrival order.
//!
//! For one-shot service models the audit additionally rebuilds the run as
//! a bipartite matching and cross-checks it with
//! [`com_matching::is_valid_matching`] — the same validator the offline
//! solver trusts.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use com_matching::{BipartiteGraph, Matching};
use com_sim::{ConstraintViolation, Instance, MatchKind, RequestId, WorkerId};

use crate::engine::RunResult;

/// Absolute slack for time comparisons (seconds) and distance/value
/// comparisons (km / currency). The replay recomputes the exact same
/// f64 expressions the world evaluated, so this only needs to absorb
/// non-associativity noise.
const EPS: f64 = 1e-6;

/// One defect the auditor found in a finished run.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditFinding {
    /// A paper constraint is breached by the log itself.
    Violation {
        /// The request whose record breaches the constraint, when the
        /// breach is attributable to one.
        request: Option<RequestId>,
        violation: ConstraintViolation,
    },
    /// The log's shape disagrees with the instance (missing/duplicated
    /// requests, out-of-order reporting, specs that match no stream
    /// request).
    LogShape { detail: String },
    /// A recorded quantity disagrees with its recomputation.
    Arithmetic {
        request: RequestId,
        field: &'static str,
        recorded: f64,
        expected: f64,
    },
    /// The one-shot matching cross-check
    /// ([`com_matching::is_valid_matching`]) rejected the run's matching.
    MatchingInvalid { detail: String },
    /// A serving-layer defect observed by `matchd` (e.g. a poisoned
    /// writer lock recovered after a connection-thread panic). Never
    /// produced by `validate_run`; recorded through the global recorder
    /// so sweeps and tests can surface it.
    Serving { detail: String },
}

impl fmt::Display for AuditFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditFinding::Violation { request, violation } => match request {
                Some(r) => write!(f, "request {r}: {violation}"),
                None => write!(f, "{violation}"),
            },
            AuditFinding::LogShape { detail } => write!(f, "log shape: {detail}"),
            AuditFinding::Arithmetic {
                request,
                field,
                recorded,
                expected,
            } => write!(
                f,
                "request {request}: {field} recorded as {recorded} but recomputes to {expected}"
            ),
            AuditFinding::MatchingInvalid { detail } => {
                write!(f, "matching cross-check failed: {detail}")
            }
            AuditFinding::Serving { detail } => write!(f, "serving: {detail}"),
        }
    }
}

/// Audit `run` against `instance`. Returns every defect found (empty for
/// a sound run). Pure — reads both arguments, mutates nothing, never
/// panics on malformed logs.
pub fn validate_run(instance: &Instance, run: &RunResult) -> Vec<AuditFinding> {
    let mut findings = Vec::new();
    let metric = instance.config.metric;
    let service = instance.config.service;

    // ---- Log shape: one record per stream request, specs intact, in
    // arrival order.
    let stream_requests: std::collections::HashMap<RequestId, &com_sim::RequestSpec> =
        instance.stream.requests().map(|r| (r.id, r)).collect();
    if run.assignments.len() != stream_requests.len() {
        findings.push(AuditFinding::LogShape {
            detail: format!(
                "log has {} records for {} stream requests",
                run.assignments.len(),
                stream_requests.len()
            ),
        });
    }
    let mut seen = std::collections::HashSet::new();
    let mut prev_key: Option<(com_sim::Timestamp, RequestId)> = None;
    for a in &run.assignments {
        if !seen.insert(a.request.id) {
            findings.push(AuditFinding::LogShape {
                detail: format!("request {} recorded twice", a.request.id),
            });
        }
        match stream_requests.get(&a.request.id) {
            None => findings.push(AuditFinding::LogShape {
                detail: format!("request {} is not in the stream", a.request.id),
            }),
            Some(spec) => {
                if **spec != a.request {
                    findings.push(AuditFinding::LogShape {
                        detail: format!(
                            "request {} logged with a spec that differs from the stream's",
                            a.request.id
                        ),
                    });
                }
            }
        }
        let key = (a.request.arrival, a.request.id);
        if let Some(prev) = prev_key {
            if key < prev {
                findings.push(AuditFinding::LogShape {
                    detail: format!("request {} reported out of arrival order", a.request.id),
                });
            }
        }
        prev_key = Some(key);
        if a.decided_at.as_secs() < a.request.arrival.as_secs() - EPS {
            findings.push(AuditFinding::LogShape {
                detail: format!(
                    "request {} decided at {} before its arrival {}",
                    a.request.id, a.decided_at, a.request.arrival
                ),
            });
        }
    }

    let worker_specs: std::collections::HashMap<WorkerId, &com_sim::WorkerSpec> =
        instance.stream.workers().map(|w| (w.id, w)).collect();

    // ---- Per-record constraint checks that need no occupancy context.
    for a in &run.assignments {
        match a.kind {
            MatchKind::Rejected => {
                if a.worker.is_some() || a.outer_payment != 0.0 || a.travel_km != 0.0 {
                    findings.push(AuditFinding::LogShape {
                        detail: format!(
                            "rejected request {} carries a worker, payment, or travel",
                            a.request.id
                        ),
                    });
                }
            }
            MatchKind::Inner | MatchKind::Outer => {
                let Some(worker) = a.worker else {
                    findings.push(AuditFinding::LogShape {
                        detail: format!("served request {} has no worker", a.request.id),
                    });
                    continue;
                };
                let Some(spec) = worker_specs.get(&worker) else {
                    findings.push(AuditFinding::Violation {
                        request: Some(a.request.id),
                        violation: ConstraintViolation::UnknownWorker { worker },
                    });
                    continue;
                };
                if let Some(claimed) = a.worker_platform {
                    if claimed != spec.platform {
                        findings.push(AuditFinding::Violation {
                            request: Some(a.request.id),
                            violation: ConstraintViolation::PlatformMismatch {
                                worker,
                                claimed,
                                actual: spec.platform,
                            },
                        });
                    }
                }
                match a.kind {
                    MatchKind::Inner => {
                        if spec.platform != a.request.platform {
                            findings.push(AuditFinding::Violation {
                                request: Some(a.request.id),
                                violation: ConstraintViolation::ForeignWorker {
                                    worker,
                                    worker_platform: spec.platform,
                                    request: a.request.id,
                                    request_platform: a.request.platform,
                                },
                            });
                        }
                        if a.outer_payment != 0.0 {
                            findings.push(AuditFinding::Arithmetic {
                                request: a.request.id,
                                field: "outer_payment",
                                recorded: a.outer_payment,
                                expected: 0.0,
                            });
                        }
                    }
                    MatchKind::Outer => {
                        if spec.platform == a.request.platform {
                            findings.push(AuditFinding::Violation {
                                request: Some(a.request.id),
                                violation: ConstraintViolation::InnerWorkerAsOuter {
                                    worker,
                                    request: a.request.id,
                                    platform: spec.platform,
                                },
                            });
                        }
                        if !(a.outer_payment > 0.0 && a.outer_payment <= a.request.value + EPS) {
                            findings.push(AuditFinding::Violation {
                                request: Some(a.request.id),
                                violation: ConstraintViolation::PaymentOutOfBounds {
                                    request: a.request.id,
                                    payment: a.outer_payment,
                                    value: a.request.value,
                                },
                            });
                        }
                    }
                    MatchKind::Rejected => unreachable!(),
                }
            }
        }
    }

    // ---- Occupancy replay: per worker, in decision order, check the
    // 1-by-1, range, time, and shift constraints plus travel arithmetic.
    let mut per_worker: std::collections::HashMap<WorkerId, Vec<&com_sim::Assignment>> =
        std::collections::HashMap::new();
    for a in &run.assignments {
        if let (Some(w), true) = (a.worker, a.is_completed()) {
            per_worker.entry(w).or_default().push(a);
        }
    }
    for (worker, mut jobs) in per_worker {
        let Some(spec) = worker_specs.get(&worker) else {
            continue; // already reported as UnknownWorker above
        };
        jobs.sort_by(|a, b| {
            (a.decided_at, a.request.arrival, a.request.id)
                .partial_cmp(&(b.decided_at, b.request.arrival, b.request.id))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        if !service.reentry && jobs.len() > 1 {
            findings.push(AuditFinding::Violation {
                request: Some(jobs[1].request.id),
                violation: ConstraintViolation::WorkerNotIdle {
                    worker,
                    request: jobs[1].request.id,
                },
            });
            // The replay below would cascade the same defect onto every
            // later job; one finding per worker is enough.
            jobs.truncate(1);
        }
        let mut location = spec.location;
        // When the worker becomes available: its arrival, then each
        // service completion.
        let mut available_at = spec.arrival;
        for a in jobs {
            // 1-by-1 occupancy: the decision must not pre-date the
            // previous completion (re-entry time).
            if a.decided_at.as_secs() < available_at.as_secs() - EPS {
                findings.push(AuditFinding::Violation {
                    request: Some(a.request.id),
                    violation: ConstraintViolation::WorkerNotIdle {
                        worker,
                        request: a.request.id,
                    },
                });
            }
            // Time constraint: present before the request arrived.
            if available_at.as_secs() > a.request.arrival.as_secs() + EPS {
                findings.push(AuditFinding::Violation {
                    request: Some(a.request.id),
                    violation: ConstraintViolation::EnteredAfterRequest {
                        worker,
                        request: a.request.id,
                        entered_at: available_at,
                        arrival: a.request.arrival,
                    },
                });
            }
            // Shift: no new assignment after the worker went home.
            if service.shift_secs.is_finite()
                && a.decided_at.since(spec.arrival) > service.shift_secs + EPS
            {
                findings.push(AuditFinding::Violation {
                    request: Some(a.request.id),
                    violation: ConstraintViolation::WorkerNotIdle {
                        worker,
                        request: a.request.id,
                    },
                });
            }
            // Range constraint from the worker's position at decision
            // time (its previous drop-off point).
            let distance = metric.distance(location, a.request.location);
            if distance > spec.radius + EPS {
                findings.push(AuditFinding::Violation {
                    request: Some(a.request.id),
                    violation: ConstraintViolation::OutOfRange {
                        worker,
                        request: a.request.id,
                        distance_km: distance,
                        radius_km: spec.radius,
                    },
                });
            }
            // Travel arithmetic: the recorded deadhead distance is the
            // same metric distance.
            if (a.travel_km - distance).abs() > EPS {
                findings.push(AuditFinding::Arithmetic {
                    request: a.request.id,
                    field: "travel_km",
                    recorded: a.travel_km,
                    expected: distance,
                });
            }
            let busy = service.busy_secs_metric(metric, location, a.request.location);
            available_at = a.decided_at + busy;
            location = a.request.location;
        }
    }

    // ---- One-shot cross-check: rebuild the run as a bipartite matching
    // and let com-matching's validator confirm feasibility and 1-by-1.
    if !service.reentry {
        let workers: Vec<&com_sim::WorkerSpec> = instance.stream.workers().collect();
        let requests: Vec<&com_sim::RequestSpec> = instance.stream.requests().collect();
        let widx: std::collections::HashMap<WorkerId, usize> =
            workers.iter().enumerate().map(|(i, w)| (w.id, i)).collect();
        let ridx: std::collections::HashMap<RequestId, usize> = requests
            .iter()
            .enumerate()
            .map(|(j, r)| (r.id, j))
            .collect();
        let mut graph = BipartiteGraph::new(workers.len(), requests.len());
        for (i, w) in workers.iter().enumerate() {
            for (j, r) in requests.iter().enumerate() {
                if w.arrival.as_secs() <= r.arrival.as_secs() + EPS
                    && metric.covers(w.location, r.location, w.radius)
                {
                    graph.add_edge(i, j, r.value);
                }
            }
        }
        let mut pairs = Vec::new();
        let mut representable = true;
        for a in &run.assignments {
            if !a.is_completed() {
                continue;
            }
            match (a.worker.and_then(|w| widx.get(&w)), ridx.get(&a.request.id)) {
                (Some(&i), Some(&j)) => pairs.push((i, j, a.request.value)),
                // Unknown worker/request already reported above; the
                // matching indices can't represent them.
                _ => representable = false,
            }
        }
        if representable {
            let matching = Matching { pairs };
            if !com_matching::is_valid_matching(&graph, &matching) {
                findings.push(AuditFinding::MatchingInvalid {
                    detail: format!(
                        "{} completed assignments do not form a valid worker-request \
                         matching of the instance",
                        matching.pairs.len()
                    ),
                });
            }
        }
    }

    findings
}

// ---------------------------------------------------------------------
// Always-on global recorder. Sweep infrastructure audits every run it
// executes and records findings here; `--strict` consumers drain the
// recorder and turn a non-zero total into a failing exit code. Recording
// is cheap (one atomic add when clean) and never panics.

/// How many findings the recorder keeps verbatim; beyond this only the
/// total is counted.
const SAMPLE_CAP: usize = 64;

static TOTAL_FINDINGS: AtomicU64 = AtomicU64::new(0);
static SAMPLE: Mutex<Vec<RecordedFinding>> = Mutex::new(Vec::new());

/// A finding retained by the global recorder, tagged with where it came
/// from (e.g. `"tota seed=3"`).
#[derive(Debug, Clone)]
pub struct RecordedFinding {
    pub context: String,
    pub finding: AuditFinding,
}

/// Record `findings` (typically one audited run's) under `context`.
pub fn record_findings(context: &str, findings: &[AuditFinding]) {
    if findings.is_empty() {
        return;
    }
    TOTAL_FINDINGS.fetch_add(findings.len() as u64, Ordering::Relaxed);
    let Ok(mut sample) = SAMPLE.lock() else {
        return;
    };
    for finding in findings {
        if sample.len() >= SAMPLE_CAP {
            break;
        }
        sample.push(RecordedFinding {
            context: context.to_string(),
            finding: finding.clone(),
        });
    }
}

/// Total findings recorded since the last [`take_findings`].
pub fn total_findings() -> u64 {
    TOTAL_FINDINGS.load(Ordering::Relaxed)
}

/// Drain the recorder: the total since the last drain plus up to
/// `SAMPLE_CAP` (64) retained findings.
pub fn take_findings() -> (u64, Vec<RecordedFinding>) {
    let total = TOTAL_FINDINGS.swap(0, Ordering::Relaxed);
    let sample = match SAMPLE.lock() {
        Ok(mut s) => std::mem::take(&mut *s),
        Err(_) => Vec::new(),
    };
    (total, sample)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_online, DemCom, TotaGreedy};
    use com_geo::Point;
    use com_pricing::WorkerHistory;
    use com_sim::{
        EventStream, Instance, MatchKind, PlatformId, RequestSpec, ServiceModel, Timestamp,
        WorkerSpec, WorldConfig,
    };
    use std::collections::HashMap;

    fn ts(s: f64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn instance(service: ServiceModel) -> Instance {
        let p0 = PlatformId(0);
        let p1 = PlatformId(1);
        let workers = vec![
            WorkerSpec::new(WorkerId(1), p0, ts(0.0), Point::new(5.0, 5.0), 1.0),
            WorkerSpec::new(WorkerId(2), p1, ts(0.0), Point::new(6.0, 5.0), 1.0),
        ];
        let requests = vec![
            RequestSpec::new(RequestId(1), p0, ts(10.0), Point::new(5.2, 5.0), 8.0),
            RequestSpec::new(RequestId(2), p0, ts(20.0), Point::new(5.8, 5.0), 6.0),
        ];
        let mut histories = HashMap::new();
        histories.insert(WorkerId(2), WorkerHistory::from_values(vec![0.1]));
        let mut config = WorldConfig::city(10.0);
        config.service = service;
        Instance {
            config,
            platform_names: vec!["A".into(), "B".into()],
            histories,
            stream: EventStream::from_specs(workers, requests),
        }
    }

    #[test]
    fn clean_runs_audit_clean() {
        for service in [ServiceModel::one_shot(), ServiceModel::taxi(36.0, 300.0)] {
            let inst = instance(service);
            for (name, run) in [
                ("tota", run_online(&inst, &mut TotaGreedy, 1)),
                ("demcom", run_online(&inst, &mut DemCom::default(), 1)),
            ] {
                let findings = validate_run(&inst, &run);
                assert!(findings.is_empty(), "{name}: {findings:?}");
            }
        }
    }

    #[test]
    fn flags_payment_out_of_bounds() {
        let inst = instance(ServiceModel::one_shot());
        let mut run = run_online(&inst, &mut DemCom::default(), 1);
        let outer = run
            .assignments
            .iter_mut()
            .find(|a| a.kind == MatchKind::Outer)
            .expect("demcom borrows the outer worker");
        outer.outer_payment = outer.request.value * 2.0;
        let findings = validate_run(&inst, &run);
        assert!(
            findings.iter().any(|f| matches!(
                f,
                AuditFinding::Violation {
                    violation: ConstraintViolation::PaymentOutOfBounds { .. },
                    ..
                }
            )),
            "{findings:?}"
        );
    }

    #[test]
    fn flags_foreign_inner_worker() {
        let inst = instance(ServiceModel::one_shot());
        let mut run = run_online(&inst, &mut TotaGreedy, 1);
        let a = &mut run.assignments[0];
        assert_eq!(a.kind, MatchKind::Inner);
        // Rewrite the record to claim the other platform's worker.
        a.worker = Some(WorkerId(2));
        a.worker_platform = Some(PlatformId(1));
        let findings = validate_run(&inst, &run);
        assert!(
            findings.iter().any(|f| matches!(
                f,
                AuditFinding::Violation {
                    violation: ConstraintViolation::ForeignWorker { .. },
                    ..
                }
            )),
            "{findings:?}"
        );
    }

    #[test]
    fn flags_double_booked_worker_and_invalid_matching() {
        let inst = instance(ServiceModel::one_shot());
        let mut run = run_online(&inst, &mut TotaGreedy, 1);
        // Both requests now claim worker 1 — breaks 1-by-1 in a one-shot
        // model, and the rebuilt matching uses a left vertex twice.
        for a in &mut run.assignments {
            a.kind = MatchKind::Inner;
            a.worker = Some(WorkerId(1));
            a.worker_platform = Some(PlatformId(0));
            a.outer_payment = 0.0;
            a.travel_km = inst
                .config
                .metric
                .distance(Point::new(5.0, 5.0), a.request.location);
        }
        // Second job starts from the first drop-off, so fix its travel.
        run.assignments[1].travel_km = inst
            .config
            .metric
            .distance(Point::new(5.2, 5.0), run.assignments[1].request.location);
        let findings = validate_run(&inst, &run);
        assert!(
            findings.iter().any(|f| matches!(
                f,
                AuditFinding::Violation {
                    violation: ConstraintViolation::WorkerNotIdle { .. },
                    ..
                }
            )),
            "{findings:?}"
        );
        assert!(
            findings
                .iter()
                .any(|f| matches!(f, AuditFinding::MatchingInvalid { .. })),
            "{findings:?}"
        );
    }

    #[test]
    fn flags_unknown_worker_and_log_shape() {
        let inst = instance(ServiceModel::one_shot());
        let mut run = run_online(&inst, &mut TotaGreedy, 1);
        run.assignments[0].worker = Some(WorkerId(42));
        run.assignments.pop();
        let findings = validate_run(&inst, &run);
        assert!(
            findings.iter().any(|f| matches!(
                f,
                AuditFinding::Violation {
                    violation: ConstraintViolation::UnknownWorker { .. },
                    ..
                }
            )),
            "{findings:?}"
        );
        assert!(
            findings
                .iter()
                .any(|f| matches!(f, AuditFinding::LogShape { .. })),
            "{findings:?}"
        );
    }

    #[test]
    fn flags_travel_arithmetic_drift() {
        let inst = instance(ServiceModel::one_shot());
        let mut run = run_online(&inst, &mut TotaGreedy, 1);
        run.assignments[0].travel_km += 0.5;
        let findings = validate_run(&inst, &run);
        assert!(
            findings.iter().any(|f| matches!(
                f,
                AuditFinding::Arithmetic {
                    field: "travel_km",
                    ..
                }
            )),
            "{findings:?}"
        );
    }

    #[test]
    fn recorder_counts_and_drains() {
        // The recorder is global: drain first so parallel tests that
        // legitimately record (none today) don't interfere.
        let _ = take_findings();
        record_findings("ctx", &[]);
        assert_eq!(total_findings(), 0);
        let finding = AuditFinding::LogShape { detail: "x".into() };
        record_findings("cell-a", std::slice::from_ref(&finding));
        record_findings("cell-b", &[finding.clone(), finding]);
        assert_eq!(total_findings(), 3);
        let (total, sample) = take_findings();
        assert_eq!(total, 3);
        assert_eq!(sample.len(), 3);
        assert_eq!(sample[0].context, "cell-a");
        assert_eq!(total_findings(), 0);
        assert!(take_findings().1.is_empty());
    }
}
