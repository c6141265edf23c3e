//! The flight-recorder session trace: schema v1.
//!
//! One recorded session is one JSONL file — one JSON object per line,
//! discriminated by a `"type"` field, exactly the convention
//! `simulate --trace` established for span lines (`{"type":"span",...}`).
//! A session trace uses four record types:
//!
//! | line                | written when                       | carries                                        |
//! |---------------------|------------------------------------|------------------------------------------------|
//! | `{"type":"meta"}`   | once, first line                   | schema version, hello config, seed, world      |
//! | `{"type":"event"}`  | every successfully ingested event  | index, arrival wall-clock ns, event, history   |
//! | `{"type":"tick"}`   | every clock advance without event  | index-free: wall-clock ns, target sim time     |
//! | `{"type":"decision"}`| every request decision            | event index, outcome, canonical assignment     |
//! | `{"type":"finish"}` | once, last line                    | event/decision counts, canonical run digest    |
//!
//! **Versioning rule:** `meta.v` is the schema major version. Readers
//! must (a) refuse a trace whose `v` is greater than what they know, and
//! (b) skip line types and object fields they do not recognise — new
//! minor additions are new fields or new line types, never changed
//! meanings. Events that the live session *refused* at ingest (time
//! rewinds, duplicate arrivals) are deliberately absent: they never
//! touched session state, so a replay without them reproduces the run.
//!
//! Decisions are recorded in their **canonical projection**
//! ([`com_core::canonical_assignment_json`]): every
//! decision-determined field, excluding the wall-clock `decision_nanos`.
//! Byte-comparing the serialized projection is exactly the byte-identity
//! `matchreplay --strict` asserts, and the `finish` line's FNV-1a digest
//! over [`com_core::canonical_run_json`] fingerprints the whole
//! run (assignment order included) as a second, independent check.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use serde::content::Content;
use serde::{Deserialize, Serialize};

use com_pricing::WorkerHistory;
use com_sim::{ArrivalEvent, WorldConfig};

use crate::protocol::ServerMsg;

/// Current trace schema major version (the `v` field of the meta line).
pub const TRACE_VERSION: u32 = 1;

/// First line of every trace: everything a replay needs to reconstruct
/// the session — the `hello` facts plus the resolved algorithm name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceMeta {
    /// Schema major version ([`TRACE_VERSION`]).
    pub v: u32,
    /// Which recorder wrote this trace: `"matchd"` or `"matchreplay"`.
    pub source: String,
    /// Matcher spec string from the `hello` (registry syntax).
    pub matcher: String,
    /// Resolved display name (e.g. `"DemCOM"`).
    pub algorithm: String,
    pub seed: u64,
    pub max_value: Option<f64>,
    pub platforms: Vec<String>,
    pub world: WorldConfig,
    /// Wire framing the session asked for in `hello` (`"binary"` or
    /// `"ndjson"`/absent). Informational: traces are always JSONL and
    /// replay identically whatever the session's framing was.
    pub frame: Option<String>,
    /// The mux envelope sid this logical session was driven under, when
    /// it was multiplexed (`None` = bare session). Informational,
    /// like `frame`: replay never depends on it.
    #[serde(default)]
    pub sid: Option<u64>,
    /// Which shard executor owned the session in the recording server.
    /// Placement is deterministic, so re-serving the same workload lands
    /// the session on the same shard — but replay itself is single
    /// threaded and ignores this.
    #[serde(default)]
    pub shard: Option<u64>,
}

/// One successfully ingested arrival event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Ingest index (0-based, counts every accepted event).
    pub i: u64,
    /// Wall-clock arrival, nanoseconds since the session opened. Replay
    /// pacing metadata only — decisions never depend on it.
    pub at_ns: u64,
    pub event: ArrivalEvent,
    /// The acceptance history that rode on a `worker` message, if any.
    pub history: Option<WorkerHistory>,
}

/// A `tick` protocol message: the clock advanced without an event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceTick {
    pub at_ns: u64,
    /// Target simulation time, seconds.
    pub to_secs: f64,
}

/// The decision a request event produced, in canonical projection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceDecision {
    /// The `i` of the request's event line.
    pub i: u64,
    /// `"assign"`, `"reject"`, or `"timeout"` (engine-refused).
    pub outcome: String,
    /// The constraint violation text on `"timeout"` outcomes.
    pub violation: Option<String>,
    /// [`com_core::canonical_assignment_json`] of the record.
    pub assignment: serde_json::Value,
}

/// Last line: the closed run's fingerprint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceFinish {
    /// Events ingested over the whole session.
    pub events: u64,
    /// Decision lines written (request events).
    pub decisions: u64,
    /// [`com_core::canonical_run_digest`] of the final run.
    pub digest: String,
    pub revenue: f64,
    pub completed: u64,
    /// `validate_run` findings at close (0 for a sound session).
    pub audit_findings: u64,
}

/// One line of a session trace.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceLine {
    Meta(TraceMeta),
    Event(TraceEvent),
    Tick(TraceTick),
    Decision(TraceDecision),
    Finish(TraceFinish),
    /// A line type this reader does not know (e.g. a `span` line, or a
    /// type added by a newer minor revision). Skipped by replay.
    Unknown {
        kind: String,
    },
}

impl TraceLine {
    fn kind(&self) -> &str {
        match self {
            TraceLine::Meta(_) => "meta",
            TraceLine::Event(_) => "event",
            TraceLine::Tick(_) => "tick",
            TraceLine::Decision(_) => "decision",
            TraceLine::Finish(_) => "finish",
            TraceLine::Unknown { kind } => kind,
        }
    }
}

/// The envelope is hand-rolled (not derived) because the discriminator
/// field is the Rust keyword `type`: the payload struct's fields are
/// flattened into the line object with `"type"` prepended.
impl Serialize for TraceLine {
    fn to_content(&self) -> Content {
        let payload = match self {
            TraceLine::Meta(m) => m.to_content(),
            TraceLine::Event(e) => e.to_content(),
            TraceLine::Tick(t) => t.to_content(),
            TraceLine::Decision(d) => d.to_content(),
            TraceLine::Finish(f) => f.to_content(),
            TraceLine::Unknown { .. } => Content::Map(Vec::new()),
        };
        let mut entries = vec![(
            Content::Str("type".to_string()),
            Content::Str(self.kind().to_string()),
        )];
        if let Content::Map(fields) = payload {
            entries.extend(fields);
        }
        Content::Map(entries)
    }
}

impl Deserialize for TraceLine {
    fn from_content(c: &Content) -> Result<Self, serde::de::Error> {
        let Content::Map(map) = c else {
            return Err(serde::de::Error::unexpected("a trace line object", c));
        };
        let Some(Content::Str(kind)) = Content::find(map, "type") else {
            return Err(serde::de::Error::custom("trace line has no \"type\""));
        };
        Ok(match kind.as_str() {
            "meta" => TraceLine::Meta(TraceMeta::from_content(c)?),
            "event" => TraceLine::Event(TraceEvent::from_content(c)?),
            "tick" => TraceLine::Tick(TraceTick::from_content(c)?),
            "decision" => TraceLine::Decision(TraceDecision::from_content(c)?),
            "finish" => TraceLine::Finish(TraceFinish::from_content(c)?),
            other => TraceLine::Unknown {
                kind: other.to_string(),
            },
        })
    }
}

/// Serialize one trace line to its wire form (no trailing newline).
pub fn encode_line(line: &TraceLine) -> String {
    serde_json::to_string(line).expect("trace lines always serialize")
}

/// Parse one trace line. Unknown line types come back as
/// [`TraceLine::Unknown`] (forward compatibility); malformed JSON or a
/// known type with missing fields is an error.
pub fn parse_line(text: &str) -> Result<TraceLine, String> {
    serde_json::from_str(text).map_err(|e| format!("bad trace line: {e}: {text}"))
}

/// Project a request's protocol response onto its trace decision record.
/// Returns `None` for responses that are not decisions (errors).
pub fn decision_from_response(i: u64, response: &ServerMsg) -> Option<TraceDecision> {
    let (outcome, violation, assignment) = match response {
        ServerMsg::assign(a) => ("assign", None, a),
        ServerMsg::reject(a) => ("reject", None, a),
        ServerMsg::timeout {
            assignment,
            violation,
        } => ("timeout", Some(violation.clone()), assignment),
        _ => return None,
    };
    Some(TraceDecision {
        i,
        outcome: outcome.to_string(),
        violation,
        assignment: com_core::canonical_assignment_json(assignment),
    })
}

/// Streaming trace writer with wall-clock epoch bookkeeping. Write errors
/// never propagate into the serving path: the recorder marks itself
/// damaged, reports once on stderr, and drops subsequent lines —
/// recording must not take the daemon down with a full disk.
pub struct TraceRecorder {
    out: BufWriter<File>,
    path: PathBuf,
    epoch: Instant,
    damaged: bool,
    lines: u64,
}

impl TraceRecorder {
    /// Create (truncate) `path` and open a recorder over it.
    pub fn create(path: &Path) -> std::io::Result<TraceRecorder> {
        Ok(TraceRecorder {
            out: BufWriter::new(File::create(path)?),
            path: path.to_path_buf(),
            epoch: Instant::now(),
            damaged: false,
            lines: 0,
        })
    }

    /// Nanoseconds since the recorder (≈ the session) opened.
    pub fn at_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The file being written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Lines written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Append one line.
    pub fn write(&mut self, line: &TraceLine) {
        if self.damaged {
            return;
        }
        let mut text = encode_line(line);
        text.push('\n');
        if let Err(e) = self.out.write_all(text.as_bytes()) {
            eprintln!(
                "matchd: trace recording to {} failed ({e}); dropping further lines",
                self.path.display()
            );
            self.damaged = true;
            return;
        }
        self.lines += 1;
    }

    /// Flush and close. Returns the path for reporting, or `None` when
    /// the recorder went damaged along the way.
    pub fn finish(mut self) -> Option<PathBuf> {
        if self.damaged {
            return None;
        }
        if let Err(e) = self.out.flush() {
            eprintln!("matchd: flushing trace {} failed: {e}", self.path.display());
            return None;
        }
        Some(self.path)
    }
}

/// A filesystem-safe rendering of a matcher spec string for trace file
/// names (`route-aware:2.5` → `route-aware-2.5`).
pub fn sanitize_spec(spec: &str) -> String {
    spec.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '.' || c == '_' {
                c
            } else {
                '-'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use com_geo::Point;
    use com_sim::{PlatformId, RequestId, RequestSpec, Timestamp};

    fn meta() -> TraceMeta {
        TraceMeta {
            v: TRACE_VERSION,
            source: "matchd".into(),
            matcher: "demcom".into(),
            algorithm: "DemCOM".into(),
            seed: 7,
            max_value: Some(30.0),
            platforms: vec!["A".into(), "B".into()],
            world: WorldConfig::city(10.0),
            frame: None,
            sid: Some(3),
            shard: Some(1),
        }
    }

    #[test]
    fn lines_round_trip_through_text() {
        let request = RequestSpec::new(
            RequestId(3),
            PlatformId(1),
            Timestamp::from_secs(4.5),
            Point::new(1.0, 2.0),
            9.0,
        );
        let lines = vec![
            TraceLine::Meta(meta()),
            TraceLine::Event(TraceEvent {
                i: 0,
                at_ns: 123,
                event: ArrivalEvent::Request(request),
                history: None,
            }),
            TraceLine::Tick(TraceTick {
                at_ns: 456,
                to_secs: 9.5,
            }),
            TraceLine::Decision(TraceDecision {
                i: 0,
                outcome: "reject".into(),
                violation: None,
                assignment: serde_json::json!({"request": 3}),
            }),
            TraceLine::Finish(TraceFinish {
                events: 1,
                decisions: 1,
                digest: "fnv1a64:0123456789abcdef".into(),
                revenue: 0.0,
                completed: 0,
                audit_findings: 0,
            }),
        ];
        for line in lines {
            let text = encode_line(&line);
            assert!(!text.contains('\n'), "one line: {text}");
            assert!(
                text.starts_with(&format!("{{\"type\":\"{}\"", line.kind())),
                "type discriminator leads: {text}"
            );
            let back = parse_line(&text).unwrap();
            assert_eq!(line, back, "{text}");
        }
    }

    #[test]
    fn unknown_line_types_are_skippable_not_fatal() {
        let line = parse_line(r#"{"type":"span","algo":"x","phase":"decision","dur_ns":12}"#)
            .expect("span lines parse as unknown");
        assert_eq!(
            line,
            TraceLine::Unknown {
                kind: "span".into()
            }
        );
        assert!(parse_line(r#"{"no_type":1}"#).is_err());
        assert!(parse_line("not json").is_err());
    }

    #[test]
    fn known_types_ignore_extra_fields() {
        // Forward compatibility: a newer minor revision may add fields.
        let text = encode_line(&TraceLine::Tick(TraceTick {
            at_ns: 1,
            to_secs: 2.0,
        }));
        let with_extra = text.replacen("{", r#"{"future_field":true,"#, 1);
        let back = parse_line(&with_extra).unwrap();
        assert_eq!(
            back,
            TraceLine::Tick(TraceTick {
                at_ns: 1,
                to_secs: 2.0
            })
        );
    }

    #[test]
    fn recorder_writes_one_line_per_record() {
        let dir = std::env::temp_dir().join("com-serve-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("rec-{}.jsonl", std::process::id()));
        let mut rec = TraceRecorder::create(&path).unwrap();
        rec.write(&TraceLine::Meta(meta()));
        rec.write(&TraceLine::Tick(TraceTick {
            at_ns: rec.at_ns(),
            to_secs: 1.0,
        }));
        assert_eq!(rec.lines(), 2);
        assert_eq!(rec.finish(), Some(path.clone()));
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed: Vec<TraceLine> = text.lines().map(|l| parse_line(l).unwrap()).collect();
        assert_eq!(parsed.len(), 2);
        assert!(matches!(parsed[0], TraceLine::Meta(_)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sanitize_keeps_spec_readable() {
        assert_eq!(sanitize_spec("route-aware:2.5"), "route-aware-2.5");
        assert_eq!(sanitize_spec("demcom"), "demcom");
        assert_eq!(sanitize_spec("a/b c"), "a-b-c");
    }
}
