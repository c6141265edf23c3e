//! Deterministic re-execution of a recorded session trace.
//!
//! [`replay_trace`] feeds a trace's events straight into a
//! [`ServeSession`] — no sockets, no JSON protocol framing on the hot
//! path — and byte-compares every decision the replay produces against
//! the recorded one (both in canonical projection, so wall-clock
//! `decision_nanos` never enters the comparison). Because the engine is
//! seeded and single-threaded, a clean trace replays **byte-identically**:
//! any divergence means the engine's decision logic changed, the trace
//! was tampered with, or determinism broke — exactly the three things a
//! flight recorder exists to catch.
//!
//! The comparison is total: per-decision bytes (each request event
//! answered by exactly one decision line, each decision line answering a
//! request event), the final run digest, and the decision/event counts of
//! the `finish` line. Divergences are
//! collected (not thrown) so a caller can report the first mismatching
//! event index with both decisions side by side; `matchreplay` then exits
//! nonzero on any divergence or audit finding.
//!
//! [`record_session`] is the inverse: play a local [`Instance`] through a
//! recorded `ServeSession` without a server, which is how the committed
//! `traces/` corpus is (re)generated deterministically.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::time::Instant;

use com_sim::{ArrivalEvent, Instance};

use crate::protocol::{Hello, WorkerMsg};
use crate::session::{FinishedSession, ServeSession};
use crate::trace::{
    decision_from_response, encode_line, parse_line, TraceDecision, TraceLine, TraceMeta,
    TraceRecorder, TRACE_VERSION,
};

/// One point where the replay disagreed with the recording.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Event index the disagreement is anchored to (`u64::MAX` for
    /// trace-level mismatches such as the final digest).
    pub index: u64,
    /// What diverged: `"decision"`, `"missing-decision"`,
    /// `"extra-decision"`, `"digest"`, `"events"`, or `"decisions"`.
    pub field: String,
    /// The recorded value (one-line JSON or scalar rendering).
    pub expected: String,
    /// What this replay produced instead.
    pub got: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.index == u64::MAX {
            write!(
                f,
                "{}: recorded {} but replay produced {}",
                self.field, self.expected, self.got
            )
        } else {
            write!(
                f,
                "event {} {}: recorded {} but replay produced {}",
                self.index, self.field, self.expected, self.got
            )
        }
    }
}

/// What one trace replay measured and found.
#[derive(Debug)]
pub struct TraceReplayReport {
    pub path: String,
    pub algorithm: String,
    pub matcher: String,
    pub seed: u64,
    /// Events replayed.
    pub events: u64,
    /// Decisions produced (and compared).
    pub decisions: u64,
    pub wall_secs: f64,
    /// Every disagreement with the recording, in event order. Empty for a
    /// byte-identical replay.
    pub divergences: Vec<Divergence>,
    /// The recorded run digest (`finish` line), if the trace has one.
    pub digest_expected: Option<String>,
    /// The digest this replay's run produced, to compare against a live
    /// `bye.digest` or a batch run's.
    pub digest_got: String,
    /// `validate_run` findings on the replayed run (0 = silent auditor).
    pub audit_findings: Vec<String>,
}

impl TraceReplayReport {
    /// Byte-identical replay with a silent auditor.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty() && self.audit_findings.is_empty()
    }

    /// Events replayed per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            return 0.0;
        }
        self.events as f64 / self.wall_secs
    }

    /// The first divergence, for one-line reporting.
    pub fn first_divergence(&self) -> Option<&Divergence> {
        self.divergences.first()
    }
}

/// Read and parse a whole trace file. Returns the meta line and every
/// subsequent line (unknown types preserved as [`TraceLine::Unknown`]).
/// Fails on unparseable lines, a missing/late meta line, or a meta `v`
/// newer than this reader ([`TRACE_VERSION`]).
pub(crate) fn read_trace(path: &Path) -> Result<(TraceMeta, Vec<TraceLine>), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read trace {}: {e}", path.display()))?;
    let mut meta: Option<TraceMeta> = None;
    let mut lines = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        if raw.trim().is_empty() {
            continue;
        }
        let line =
            parse_line(raw).map_err(|e| format!("{}:{}: {e}", path.display(), lineno + 1))?;
        match line {
            TraceLine::Meta(m) if meta.is_none() => {
                if m.v > TRACE_VERSION {
                    return Err(format!(
                        "{}: trace schema v{} is newer than this reader (v{})",
                        path.display(),
                        m.v,
                        TRACE_VERSION
                    ));
                }
                meta = Some(m);
            }
            TraceLine::Meta(_) => {
                return Err(format!("{}: duplicate meta line", path.display()));
            }
            other => {
                if meta.is_none() && !matches!(other, TraceLine::Unknown { .. }) {
                    return Err(format!(
                        "{}: first line must be {{\"type\":\"meta\"}}",
                        path.display()
                    ));
                }
                lines.push(other);
            }
        }
    }
    let meta = meta.ok_or_else(|| format!("{}: empty trace (no meta line)", path.display()))?;
    Ok((meta, lines))
}

fn decision_text(d: &TraceDecision) -> String {
    encode_line(&TraceLine::Decision(d.clone()))
}

/// Re-execute the trace at `path` through a fresh [`ServeSession`] and
/// compare every decision (and the final digest) against the recording.
///
/// Structural problems — unreadable file, bad schema, or an event the
/// session *refuses* (impossible for an untampered trace, since only
/// accepted events are recorded) — are hard errors. Disagreement with the
/// recording is not an error: it lands in `report.divergences`.
pub fn replay_trace(path: &Path) -> Result<TraceReplayReport, String> {
    let (meta, lines) = read_trace(path)?;
    let hello = Hello {
        matcher: meta.matcher.clone(),
        seed: meta.seed,
        world: meta.world.clone(),
        platforms: meta.platforms.clone(),
        max_value: meta.max_value,
        frame: meta.frame.clone(),
        origin: None,
        fed: None,
    };
    let mut session =
        ServeSession::open(&hello).map_err(|(code, detail)| format!("{code}: {detail}"))?;
    let mut divergences = Vec::new();
    // Each request event's recorded decision: the first line naming its
    // index. Any other decision line — a worker's index, an index past the
    // stream, a repeat — answers no request.
    let mut unanswered: HashSet<u64> = lines
        .iter()
        .filter_map(|l| match l {
            TraceLine::Event(ev) if matches!(ev.event, ArrivalEvent::Request(_)) => Some(ev.i),
            _ => None,
        })
        .collect();
    let mut recorded: HashMap<u64, &TraceDecision> = HashMap::new();
    for line in &lines {
        let TraceLine::Decision(d) = line else {
            continue;
        };
        if unanswered.remove(&d.i) {
            recorded.insert(d.i, d);
        } else {
            divergences.push(Divergence {
                index: d.i,
                field: "extra-decision".into(),
                expected: decision_text(d),
                got: "no request event left to answer".into(),
            });
        }
    }

    let started = Instant::now();
    let (mut events, mut decisions) = (0u64, 0u64);
    let mut recorded_finish = None;
    for line in &lines {
        match line {
            TraceLine::Event(ev) => {
                events += 1;
                match &ev.event {
                    ArrivalEvent::Worker(spec) => {
                        session
                            .worker(&WorkerMsg {
                                spec: *spec,
                                history: ev.history.clone(),
                            })
                            .map_err(|v| format!("event {}: worker refused: {v}", ev.i))?;
                    }
                    ArrivalEvent::Request(spec) => {
                        let response = session
                            .request(spec)
                            .map_err(|v| format!("event {}: request refused: {v}", ev.i))?;
                        decisions += 1;
                        let got = decision_from_response(ev.i, &response).ok_or_else(|| {
                            format!("event {}: request produced a non-decision", ev.i)
                        })?;
                        match recorded.get(&ev.i) {
                            Some(expected) if **expected != got => {
                                divergences.push(Divergence {
                                    index: ev.i,
                                    field: "decision".into(),
                                    expected: decision_text(expected),
                                    got: decision_text(&got),
                                });
                            }
                            Some(_) => {}
                            None => divergences.push(Divergence {
                                index: ev.i,
                                field: "missing-decision".into(),
                                expected: "a recorded decision line".into(),
                                got: decision_text(&got),
                            }),
                        }
                    }
                }
            }
            TraceLine::Tick(t) => {
                session
                    .tick(t.to_secs)
                    .map_err(|v| format!("tick to {}: refused: {v}", t.to_secs))?;
            }
            TraceLine::Finish(f) => recorded_finish = Some(f.clone()),
            // Meta was consumed by read_trace; unknown types are a newer
            // revision's business. Decision lines are matched from their
            // events above.
            TraceLine::Meta(_) | TraceLine::Decision(_) | TraceLine::Unknown { .. } => {}
        }
    }
    let wall_secs = started.elapsed().as_secs_f64();
    divergences.sort_by_key(|d| d.index);

    let finished = session.finish();
    let digest_got = finished.digest;
    let mut digest_expected = None;
    if let Some(f) = &recorded_finish {
        digest_expected = Some(f.digest.clone());
        for (field, expected, got) in [
            ("digest", f.digest.clone(), digest_got.clone()),
            ("events", f.events.to_string(), events.to_string()),
            ("decisions", f.decisions.to_string(), decisions.to_string()),
        ] {
            if expected != got {
                divergences.push(Divergence {
                    index: u64::MAX,
                    field: field.into(),
                    expected,
                    got,
                });
            }
        }
    }

    Ok(TraceReplayReport {
        path: path.display().to_string(),
        algorithm: meta.algorithm.clone(),
        matcher: meta.matcher,
        seed: meta.seed,
        events,
        decisions,
        wall_secs,
        divergences,
        digest_expected,
        digest_got,
        audit_findings: finished.findings,
    })
}

/// Record a session trace at `path` by playing `instance` through a
/// [`ServeSession`] locally (no server, no sockets). This is exactly what
/// a `matchd --record` session over the same instance/matcher/seed
/// writes, minus wall-clock arrival jitter — the deterministic way to
/// (re)generate the committed trace corpus.
pub fn record_session(
    path: &Path,
    instance: &Instance,
    matcher: &str,
    seed: u64,
) -> Result<FinishedSession, String> {
    let hello = Hello {
        matcher: matcher.to_string(),
        seed,
        world: instance.config.clone(),
        platforms: instance.platform_names.clone(),
        max_value: instance.max_value(),
        frame: None,
        origin: None,
        fed: None,
    };
    let mut session =
        ServeSession::open(&hello).map_err(|(code, detail)| format!("{code}: {detail}"))?;
    let recorder = TraceRecorder::create(path)
        .map_err(|e| format!("cannot create trace {}: {e}", path.display()))?;
    session.attach_recorder(recorder, &hello, "matchreplay", None, None);
    for event in instance.stream.iter() {
        match event {
            ArrivalEvent::Worker(spec) => session
                .worker(&WorkerMsg {
                    spec: *spec,
                    history: instance.histories.get(&spec.id).cloned(),
                })
                .map_err(|v| format!("worker {:?} refused: {v}", spec.id))?,
            ArrivalEvent::Request(spec) => {
                session
                    .request(spec)
                    .map_err(|v| format!("request {:?} refused: {v}", spec.id))?;
            }
        }
    }
    let finished = session.finish();
    if finished.trace_path.is_none() {
        return Err(format!("trace {} was not fully written", path.display()));
    }
    Ok(finished)
}
