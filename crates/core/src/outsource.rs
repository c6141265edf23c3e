//! The outsourcing seam — where a cross-platform assignment stops being
//! a local decision and becomes a negotiation.
//!
//! In the paper's model (Definitions 2.3/2.4) an outer assignment *is*
//! an agreement between two platforms: the requester offers payment
//! `v' ∈ (0, v_r]`, the rival platform accepts or declines. The batch
//! engine collapses that negotiation into a single in-process decision.
//! [`OutsourceChannel`] re-opens it for a federated session
//! ([`MatchSession::with_federation`](crate::MatchSession::with_federation)):
//! every `Decision::Outer` for a request the session's platform owns is
//! first presented to the channel, and only an
//! [`OutsourceOutcome::Accepted`] reply lets the assignment proceed. A
//! declined or timed-out offer degrades to the no-outsource decision
//! (`Decision::Reject` with `was_cooperative_offer: true` — an offer
//! round ran, nobody served), which is always audit-valid. A session
//! without federation never consults a channel.
//!
//! `com-serve`'s federated mode supplies the one production channel: it
//! turns each offer into an `outsource_offer` protocol message to the
//! rival platform's daemon.
//!
//! [`project_platform_run`] cuts a finished run down to one platform's
//! requests: it is what a federated daemon reports as the owned half of
//! its `bye`, and what that half is compared against.

use com_sim::{PlatformId, RequestSpec, Value};
use com_stream::WorkerId;

use crate::engine::RunResult;

/// The peer platform's answer to one outsourcing offer.
#[derive(Debug, Clone, PartialEq)]
pub enum OutsourceOutcome {
    /// The peer lends the worker at the offered payment; the assignment
    /// proceeds exactly as the matcher decided.
    Accepted,
    /// The peer declined with the wire-level `outsource_reject.code`; the
    /// session degrades to the no-outsource decision.
    Rejected(String),
    /// No answer within the offer deadline (retries included); the
    /// session degrades to the no-outsource decision.
    TimedOut,
}

/// The negotiation seam a federated [`MatchSession`](crate::MatchSession)
/// consults before applying any `Decision::Outer` for a request it owns.
/// The offer carries everything the rival platform needs to validate
/// against its own replica: the request, the named worker, the worker's
/// home platform, and the payment `v'`.
pub trait OutsourceChannel {
    /// Present one offer and block for the peer's verdict (or local
    /// deadline). Implementations own their timeout/retry policy.
    fn offer(
        &mut self,
        request: &RequestSpec,
        worker: WorkerId,
        worker_platform: PlatformId,
        payment: Value,
    ) -> OutsourceOutcome;
}

/// Project a finished run onto one platform's ownership slice: only the
/// per-request records (and refused decisions) for requests `platform`
/// owns, in arrival order. Memory/time metrics are carried over
/// unchanged — they describe the session that produced the log, not the
/// slice.
pub fn project_platform_run(run: &RunResult, platform: PlatformId) -> RunResult {
    RunResult {
        algorithm: run.algorithm.clone(),
        assignments: run
            .assignments
            .iter()
            .filter(|a| a.request.platform == platform)
            .cloned()
            .collect(),
        peak_memory_bytes: run.peak_memory_bytes,
        final_memory_bytes: run.final_memory_bytes,
        total_decision_nanos: run.total_decision_nanos,
        telemetry: None,
        failures: run
            .failures
            .iter()
            .filter(|f| f.request.platform == platform)
            .cloned()
            .collect(),
    }
}

/// A scripted channel for core's unit tests: pops one pre-seeded outcome
/// per offer, accepting once the script runs dry.
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct ScriptedOutsource {
    script: std::collections::VecDeque<OutsourceOutcome>,
    pub(crate) offers_seen: usize,
}

#[cfg(test)]
impl ScriptedOutsource {
    /// A channel that answers the first offers with `outcomes` in order,
    /// then accepts everything after the script is exhausted.
    pub(crate) fn new(outcomes: Vec<OutsourceOutcome>) -> Self {
        ScriptedOutsource {
            script: outcomes.into(),
            offers_seen: 0,
        }
    }
}

#[cfg(test)]
impl OutsourceChannel for ScriptedOutsource {
    fn offer(
        &mut self,
        _request: &RequestSpec,
        _worker: WorkerId,
        _worker_platform: PlatformId,
        _payment: Value,
    ) -> OutsourceOutcome {
        self.offers_seen += 1;
        self.script
            .pop_front()
            .unwrap_or(OutsourceOutcome::Accepted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{try_run_online, validate_run, DemCom, MatchKind, RamCom};
    use com_geo::Point;
    use com_pricing::WorkerHistory;
    use com_sim::{
        ArrivalEvent, EventStream, Instance, RequestId, ServiceModel, Timestamp, WorkerSpec,
        WorldConfig,
    };
    use std::collections::HashMap;

    /// Two platforms, each with requests only the *other* platform's
    /// idle worker can reach mid-stream, so both directions of
    /// outsourcing occur in one run.
    fn cross_instance() -> Instance {
        let p0 = PlatformId(0);
        let p1 = PlatformId(1);
        let ts = Timestamp::from_secs;
        let workers = vec![
            WorkerSpec::new(WorkerId(1), p0, ts(1.0), Point::new(1.0, 1.0), 1.0),
            WorkerSpec::new(WorkerId(2), p0, ts(2.0), Point::new(5.0, 5.0), 1.0),
            WorkerSpec::new(WorkerId(3), p1, ts(3.0), Point::new(1.5, 1.0), 1.0),
            WorkerSpec::new(WorkerId(4), p1, ts(4.0), Point::new(5.5, 5.0), 1.0),
        ];
        let requests = vec![
            RequestSpec::new(RequestId(1), p0, ts(5.0), Point::new(1.2, 1.0), 4.0),
            RequestSpec::new(RequestId(2), p1, ts(6.0), Point::new(5.4, 5.0), 6.0),
            RequestSpec::new(RequestId(3), p0, ts(7.0), Point::new(1.4, 1.0), 5.0),
            RequestSpec::new(RequestId(4), p1, ts(8.0), Point::new(5.2, 5.0), 3.0),
        ];
        let mut histories = HashMap::new();
        for id in 1..=4 {
            histories.insert(WorkerId(id), WorkerHistory::from_values(vec![0.1]));
        }
        let mut config = WorldConfig::city(10.0);
        config.service = ServiceModel::one_shot();
        Instance {
            config,
            platform_names: vec!["A".into(), "B".into()],
            histories,
            stream: EventStream::from_specs(workers, requests),
        }
    }

    /// `instance` cut to what one platform is accountable for: the full
    /// worker roster (any platform may lend its workers) plus only the
    /// requests `platform` owns.
    fn owned_slice(instance: &Instance, platform: PlatformId) -> Instance {
        let events: Vec<ArrivalEvent> = instance
            .stream
            .iter()
            .filter(|event| match event {
                ArrivalEvent::Worker(_) => true,
                ArrivalEvent::Request(r) => r.platform == platform,
            })
            .cloned()
            .collect();
        Instance {
            config: instance.config.clone(),
            platform_names: instance.platform_names.clone(),
            histories: instance.histories.clone(),
            stream: EventStream::from_ordered(events),
        }
    }

    fn sample_request() -> RequestSpec {
        RequestSpec::new(
            RequestId(1),
            PlatformId(0),
            Timestamp::from_secs(1.0),
            Point::new(1.0, 1.0),
            5.0,
        )
    }

    #[test]
    fn scripted_channel_replays_then_accepts() {
        let mut ch = ScriptedOutsource::new(vec![
            OutsourceOutcome::Rejected("desync".into()),
            OutsourceOutcome::TimedOut,
        ]);
        let r = sample_request();
        assert_eq!(
            ch.offer(&r, WorkerId(1), PlatformId(1), 1.0),
            OutsourceOutcome::Rejected("desync".into())
        );
        assert_eq!(
            ch.offer(&r, WorkerId(1), PlatformId(1), 1.0),
            OutsourceOutcome::TimedOut
        );
        assert_eq!(
            ch.offer(&r, WorkerId(1), PlatformId(1), 1.0),
            OutsourceOutcome::Accepted
        );
        assert_eq!(ch.offers_seen, 3);
    }

    /// The two owned projections partition the run: every record (and
    /// every refused decision) lies in exactly one of them, each keeps
    /// arrival order, and each audits silently against its platform's
    /// slice of the instance.
    #[test]
    fn platform_projections_cover_the_run_and_audit_silently() {
        for (seed, matcher_is_demcom) in [(7u64, true), (11, false), (42, true)] {
            let instance = cross_instance();
            let run = if matcher_is_demcom {
                try_run_online(&instance, &mut DemCom::default(), seed)
            } else {
                try_run_online(&instance, &mut RamCom::default(), seed)
            };
            assert!(validate_run(&instance, &run).is_empty());

            let projections = [PlatformId(0), PlatformId(1)].map(|p| project_platform_run(&run, p));
            for a in &run.assignments {
                let holders: Vec<usize> = (0..2)
                    .filter(|&i| projections[i].assignments.contains(a))
                    .collect();
                assert_eq!(holders, vec![a.request.platform.index()], "{a:?}");
            }
            for f in &run.failures {
                let holders: Vec<usize> = (0..2)
                    .filter(|&i| projections[i].failures.contains(f))
                    .collect();
                assert_eq!(holders, vec![f.request.platform.index()], "{f:?}");
            }
            let [a, b] = &projections;
            assert_eq!(
                a.assignments.len() + b.assignments.len(),
                run.assignments.len()
            );
            assert_eq!(a.failures.len() + b.failures.len(), run.failures.len());
            for (p, pr) in [PlatformId(0), PlatformId(1)].iter().zip(&projections) {
                assert!(pr
                    .assignments
                    .windows(2)
                    .all(|w| w[0].request.arrival <= w[1].request.arrival));
                let slice = owned_slice(&instance, *p);
                assert_eq!(slice.request_count(), pr.assignments.len());
                assert_eq!(slice.worker_count(), instance.worker_count());
                let findings = validate_run(&slice, pr);
                assert!(
                    findings.is_empty(),
                    "platform {p:?} projection should audit silently: {findings:?}"
                );
            }
        }
    }

    #[test]
    fn projected_revenue_splits_the_total() {
        let instance = cross_instance();
        let run = try_run_online(&instance, &mut DemCom::default(), 3);
        assert!(
            run.assignments.iter().any(|a| a.kind == MatchKind::Outer),
            "fixture should exercise outsourcing"
        );
        let a = project_platform_run(&run, PlatformId(0));
        let b = project_platform_run(&run, PlatformId(1));
        let split: f64 = a
            .assignments
            .iter()
            .chain(b.assignments.iter())
            .map(|x| x.platform_revenue())
            .sum();
        assert!((split - run.total_revenue()).abs() < 1e-9);
        // Outer assignments in one slice are payments owed to the other.
        for x in a.assignments.iter().chain(b.assignments.iter()) {
            if x.kind == MatchKind::Outer {
                assert!(x.outer_payment > 0.0 && x.outer_payment <= x.request.value + 1e-9);
            }
        }
    }
}
