//! Typed constraint violations — the error layer of the paper's
//! Definitions 2.2–2.4.
//!
//! Every mechanical constraint the world and the replay engine enforce
//! (invariable assignment, range, 1-by-1 occupancy, payment in
//! `(0, v_r]`, monotone time) has a variant here, so a misbehaving
//! matcher produces a structured, matchable error instead of a process
//! abort. The `Display` strings deliberately contain the exact phrases
//! the historical `assert!` messages used ("not idle", "range
//! constraint", "time must be monotone", "duplicate worker id", …): the
//! panicking wrappers format a violation straight into their panic
//! message, so `#[should_panic(expected = …)]` tests written against the
//! old asserts keep passing.

use std::fmt;

use com_stream::{PlatformId, RequestId, Timestamp, Value, WorkerId};

/// A breach of one of COM's matching constraints (§II, Def. 2.2–2.4),
/// detected either at enforcement time (`World::try_assign`, the
/// engine's decision validation) or after the fact by the run auditor
/// reconstructing the assignment log.
#[derive(Debug, Clone, PartialEq)]
pub enum ConstraintViolation {
    /// The decision references a worker id the world never registered.
    UnknownWorker { worker: WorkerId },
    /// Two workers were registered under the same id.
    DuplicateWorker { worker: WorkerId },
    /// A worker spec names a platform outside the world's roster.
    UnknownPlatform {
        worker: WorkerId,
        platform: PlatformId,
    },
    /// 1-by-1 / invariable constraint: the worker is already serving a
    /// request (or has not arrived / already departed).
    WorkerNotIdle {
        worker: WorkerId,
        request: RequestId,
    },
    /// Range constraint (Def. 2.2): the worker's service circle does not
    /// cover the request location.
    OutOfRange {
        worker: WorkerId,
        request: RequestId,
        distance_km: f64,
        radius_km: f64,
    },
    /// Time constraint: the worker entered its waiting list only after
    /// the request arrived.
    EnteredAfterRequest {
        worker: WorkerId,
        request: RequestId,
        entered_at: Timestamp,
        arrival: Timestamp,
    },
    /// Events must be replayed in time order.
    TimeRewind { now: Timestamp, to: Timestamp },
    /// A worker's arrival event was processed twice.
    WorkerArrivedTwice { worker: WorkerId },
    /// A worker arrival event was processed after the clock already
    /// passed its arrival time (events must be fed in time order).
    ArrivalOutOfOrder {
        worker: WorkerId,
        arrival: Timestamp,
        now: Timestamp,
    },
    /// An `Inner` decision used a worker from another platform.
    ForeignWorker {
        worker: WorkerId,
        worker_platform: PlatformId,
        request: RequestId,
        request_platform: PlatformId,
    },
    /// An `Outer` decision used one of the target platform's own workers.
    InnerWorkerAsOuter {
        worker: WorkerId,
        request: RequestId,
        platform: PlatformId,
    },
    /// An `Outer` decision's claimed lender platform disagrees with the
    /// worker's actual home platform.
    PlatformMismatch {
        worker: WorkerId,
        claimed: PlatformId,
        actual: PlatformId,
    },
    /// Payment constraint (Def. 2.4): the outer payment must lie in
    /// `(0, v_r]`.
    PaymentOutOfBounds {
        request: RequestId,
        payment: Value,
        value: Value,
    },
    /// A stream event whose own fields cannot describe a request or a
    /// worker (non-finite coordinates or time, a value or radius that is
    /// not positive, a request for a platform outside the roster). Events
    /// decoded from the wire or a trace bypass `RequestSpec::new` /
    /// `WorkerSpec::new`, so the session refuses them before anything
    /// else sees them. `problem` names the field and what it must be — a
    /// static string on purpose: a heap field here gives every
    /// `Result<_, ConstraintViolation>` on the hot path drop glue
    /// (measured: −5–8 % TOTA engine throughput).
    MalformedEvent { problem: &'static str },
}

impl fmt::Display for ConstraintViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use ConstraintViolation::*;
        match self {
            UnknownWorker { worker } => write!(f, "unknown worker {worker}"),
            DuplicateWorker { worker } => write!(f, "duplicate worker id {worker}"),
            UnknownPlatform { worker, platform } => {
                write!(f, "unknown platform {platform} for worker {worker}")
            }
            WorkerNotIdle { worker, request } => {
                write!(f, "worker {worker} is not idle (request {request})")
            }
            OutOfRange {
                worker,
                request,
                distance_km,
                radius_km,
            } => write!(
                f,
                "range constraint violated: {worker} cannot reach {request} \
                 ({distance_km:.3} km away, radius {radius_km:.3} km)"
            ),
            EnteredAfterRequest {
                worker,
                request,
                entered_at,
                arrival,
            } => write!(
                f,
                "time constraint violated: worker {worker} entered at {entered_at} \
                 after request {request} arrived at {arrival}"
            ),
            TimeRewind { now, to } => write!(f, "time must be monotone: {to} < {now}"),
            WorkerArrivedTwice { worker } => write!(f, "worker {worker} arrived twice"),
            ArrivalOutOfOrder {
                worker,
                arrival,
                now,
            } => write!(
                f,
                "arrival event out of order for worker {worker} \
                 (arrival {arrival}, clock already at {now})"
            ),
            ForeignWorker {
                worker,
                worker_platform,
                request,
                request_platform,
            } => write!(
                f,
                "inner decision used a foreign worker: {worker} of platform \
                 {worker_platform} for request {request} of platform {request_platform}"
            ),
            InnerWorkerAsOuter {
                worker,
                request,
                platform,
            } => write!(
                f,
                "outer decision used an inner worker: {worker} belongs to the \
                 requesting platform {platform} (request {request})"
            ),
            PlatformMismatch {
                worker,
                claimed,
                actual,
            } => write!(
                f,
                "outer decision platform mismatch: {worker} claimed from \
                 {claimed} but belongs to {actual}"
            ),
            PaymentOutOfBounds {
                request,
                payment,
                value,
            } => write!(
                f,
                "outer payment {payment} outside (0, v_r] for request {request} \
                 (v_r = {value})"
            ),
            MalformedEvent { problem } => write!(f, "malformed event: {problem}"),
        }
    }
}

impl std::error::Error for ConstraintViolation {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_preserves_historic_assert_phrases() {
        // The panicking World/engine wrappers format these violations
        // straight into panic messages; `#[should_panic(expected = …)]`
        // tests match on these substrings.
        let cases: [(ConstraintViolation, &str); 6] = [
            (
                ConstraintViolation::WorkerNotIdle {
                    worker: WorkerId(1),
                    request: RequestId(2),
                },
                "not idle",
            ),
            (
                ConstraintViolation::OutOfRange {
                    worker: WorkerId(1),
                    request: RequestId(2),
                    distance_km: 3.0,
                    radius_km: 1.0,
                },
                "range constraint",
            ),
            (
                ConstraintViolation::TimeRewind {
                    now: Timestamp::from_secs(10.0),
                    to: Timestamp::from_secs(5.0),
                },
                "time must be monotone",
            ),
            (
                ConstraintViolation::DuplicateWorker {
                    worker: WorkerId(1),
                },
                "duplicate worker id",
            ),
            (
                ConstraintViolation::ForeignWorker {
                    worker: WorkerId(1),
                    worker_platform: PlatformId(1),
                    request: RequestId(2),
                    request_platform: PlatformId(0),
                },
                "inner decision used a foreign worker",
            ),
            (
                ConstraintViolation::PaymentOutOfBounds {
                    request: RequestId(2),
                    payment: -1.0,
                    value: 4.0,
                },
                "outside (0, v_r]",
            ),
        ];
        for (violation, phrase) in cases {
            let msg = violation.to_string();
            assert!(msg.contains(phrase), "`{msg}` lacks `{phrase}`");
        }
    }

    #[test]
    fn violations_are_std_errors() {
        fn takes_error<E: std::error::Error>(_: &E) {}
        takes_error(&ConstraintViolation::UnknownWorker {
            worker: WorkerId(9),
        });
    }
}
