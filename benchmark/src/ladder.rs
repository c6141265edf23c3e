//! The traced run's in-process rungs (passes A–C of the ladder).
//!
//! The same event stream goes through `com-core`, `com-serve::session`
//! and the two codecs, one public call at a time, with a harness span
//! around each call. The gap between adjacent rungs is the layer's cost.
//! Spans live in memory ([`Spans`]) and are summarised after the pass;
//! nothing is written while a clock runs.

use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use com_bench::runner::canonical_run_digest;
use com_core::{validate_run, DemComConfig, MatchSession, MatcherRegistry, RamComConfig};
use com_pricing::{max_expected_revenue, MinPaymentEstimator, WorkerHistory};
use com_serve::{
    client_frame_from_content, decode_client_frame, decode_payload, encode, write_frame, Hello,
    ServeSession, ServerFrame, ServerMsg, WireFormat, WorkerMsg,
};
use com_sim::ArrivalEvent;

use crate::inputs::{event_msg, put_msg, SessionInput};
use crate::report::Collector;
use crate::stats::Sorted;

/// The layer a span belongs to. Names are the per-layer metric prefixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Root span of one event in pass A: shadow calls + `ingest`.
    Event,
    Candidates,
    PricingMc,
    PricingMer,
    CoreIngest,
    ServeSession,
    Decode(WireFormat),
    Encode(WireFormat),
}

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::Event => "event",
            Layer::Candidates => "sim.candidates",
            Layer::PricingMc => "pricing.mc",
            Layer::PricingMer => "pricing.mer",
            Layer::CoreIngest => "core.ingest",
            Layer::ServeSession => "serve.session",
            Layer::Decode(WireFormat::Binary) => "codec.binary.decode",
            Layer::Decode(WireFormat::Ndjson) => "codec.ndjson.decode",
            Layer::Encode(WireFormat::Binary) => "codec.binary.encode",
            Layer::Encode(WireFormat::Ndjson) => "codec.ndjson.encode",
        }
    }
}

/// One timed call. `id` is the event's index in the workload's stream
/// (sessions concatenated); all spans of one event share it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub parent: Option<Layer>,
    pub id: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Whether the event is a request (else a worker arrival).
    pub is_request: bool,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store for one traced run.
pub struct Spans {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Time `f` as one span.
    fn time<T>(
        &mut self,
        layer: Layer,
        parent: Option<Layer>,
        id: u32,
        is_request: bool,
        f: impl FnOnce() -> T,
    ) -> T {
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.spans.push(Span {
            layer,
            parent,
            id,
            start_ns,
            end_ns,
            is_request,
        });
        out
    }

    fn durations(&self, layer: Layer, requests: Option<bool>) -> Sorted {
        Sorted::new(
            self.spans
                .iter()
                .filter(|s| s.layer == layer && requests.is_none_or(|r| s.is_request == r))
                .map(Span::dur)
                .collect(),
        )
    }

    /// Mean duration of an empty span: what two clock reads and a push
    /// cost. Every span mean in the report carries this much on top.
    pub fn timer_overhead_ns() -> f64 {
        let mut probe = Spans::new();
        probe.spans.reserve(200_000);
        for i in 0..200_000u32 {
            probe.time(Layer::Event, None, i, false, || black_box(i));
        }
        probe.durations(Layer::Event, None).mean()
    }

    /// Write every span of the `n` slowest events (by pass A's root span)
    /// as JSON lines.
    pub fn write_slowest(&self, path: &Path, n: usize) -> std::io::Result<()> {
        let mut roots: Vec<&Span> = self
            .spans
            .iter()
            .filter(|s| s.layer == Layer::Event)
            .collect();
        roots.sort_by_key(|s| std::cmp::Reverse(s.dur()));
        let slow: Vec<u32> = roots.iter().take(n).map(|s| s.id).collect();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for id in slow {
            for s in self.spans.iter().filter(|s| s.id == id) {
                writeln!(
                    out,
                    "{}",
                    serde_json::json!({
                        "id": s.id,
                        "name": s.layer.name(),
                        "parent": s.parent.map(Layer::name),
                        "start_ns": s.start_ns,
                        "end_ns": s.end_ns,
                        "request": s.is_request,
                    })
                )?;
            }
        }
        out.flush()
    }
}

/// Which pricing kernel a matcher spec runs on the cooperative path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    None,
    MonteCarlo,
    MaxExpectedRevenue,
}

fn kernel_of(matcher: &str) -> Kernel {
    match matcher {
        "demcom" => Kernel::MonteCarlo,
        "ramcom" => Kernel::MaxExpectedRevenue,
        _ => Kernel::None,
    }
}

/// What pass A measured besides its spans.
pub struct PassA {
    pub wall_s: f64,
    pub digests: Vec<String>,
    pub audit_findings: usize,
    /// Candidate-set size summed over shadow candidate searches.
    set_size_sum: u64,
    finish_s: f64,
    audit_s: f64,
    digest_s: f64,
}

/// Pass A, `com-core`: step a `MatchSession` event by event. Before each
/// request the harness makes *shadow calls* on `session.world()` — the
/// candidate search DemCOM performs and, when no inner worker covers the
/// request, the matcher's pricing kernel with the arguments the matcher
/// passes. They are read-only and draw from their own RNG, so the
/// session's decisions and digest are untouched.
pub fn pass_a(sessions: &[SessionInput], matcher: &str, spans: &mut Spans) -> PassA {
    let registry = MatcherRegistry::builtin();
    let kernel = kernel_of(matcher);
    let estimator = MinPaymentEstimator::new(DemComConfig::default().monte_carlo);
    let strategy = RamComConfig::default().candidates;
    let mut out = PassA {
        wall_s: 0.0,
        digests: Vec::new(),
        audit_findings: 0,
        set_size_sum: 0,
        finish_s: 0.0,
        audit_s: 0.0,
        digest_s: 0.0,
    };
    let mut outer = Vec::new();
    let mut grid_buf = Vec::new();
    let mut id = 0u32;
    for s in sessions {
        let started = Instant::now();
        let mut session = MatchSession::for_instance(
            &s.instance,
            registry
                .build(matcher)
                .expect("workload matcher is builtin"),
            s.seed,
        );
        let mut shadow_rng = StdRng::seed_from_u64(s.seed ^ 0x05AA_D0E5);
        for event in s.instance.stream.iter() {
            let root_start = spans.now();
            if let ArrivalEvent::Request(r) = event {
                let world = session.world();
                let inner = spans.time(Layer::Candidates, Some(Layer::Event), id, true, || {
                    let inner = world.nearest_inner_coverer(r.platform, r.location);
                    if inner.is_none() {
                        world.outer_coverers_into(
                            r.platform,
                            r.location,
                            &mut outer,
                            &mut grid_buf,
                        );
                    } else {
                        outer.clear();
                    }
                    inner
                });
                out.set_size_sum += outer.len() as u64 + u64::from(inner.is_some());
                if inner.is_none() && !outer.is_empty() && kernel != Kernel::None {
                    let histories: Vec<&WorkerHistory> = outer
                        .iter()
                        .map(|(_, w)| &world.worker(w.id).history)
                        .collect();
                    match kernel {
                        Kernel::MonteCarlo => {
                            spans.time(Layer::PricingMc, Some(Layer::Event), id, true, || {
                                black_box(estimator.estimate(r.value, &histories, &mut shadow_rng))
                            });
                        }
                        Kernel::MaxExpectedRevenue => {
                            spans.time(Layer::PricingMer, Some(Layer::Event), id, true, || {
                                black_box(max_expected_revenue(r.value, &histories, strategy))
                            });
                        }
                        Kernel::None => {}
                    }
                }
            }
            let is_request = event.is_request();
            spans
                .time(
                    Layer::CoreIngest,
                    Some(Layer::Event),
                    id,
                    is_request,
                    || session.ingest(event),
                )
                .expect("generated streams are time-ordered");
            spans.spans.push(Span {
                layer: Layer::Event,
                parent: None,
                id,
                start_ns: root_start,
                end_ns: spans.now(),
                is_request,
            });
            id += 1;
        }
        out.wall_s += started.elapsed().as_secs_f64();
        let t = Instant::now();
        let run = session.finish();
        out.finish_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        out.audit_findings += validate_run(&s.instance, &run).len();
        out.audit_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        out.digests.push(canonical_run_digest(&run));
        out.digest_s += t.elapsed().as_secs_f64();
    }
    out
}

/// Pass B, `com-serve::session`: `ServeSession::open/worker/request` per
/// event. Returns every response, addressed like the daemon would
/// address it, for pass C to encode.
pub fn pass_b(sessions: &[SessionInput], matcher: &str, spans: &mut Spans) -> Vec<ServerFrame> {
    let mut responses = Vec::new();
    let mut id = 0u32;
    for s in sessions {
        let hello = Hello {
            matcher: matcher.to_string(),
            seed: s.seed,
            world: s.instance.config.clone(),
            platforms: s.instance.platform_names.clone(),
            max_value: s.instance.max_value(),
            frame: None,
            origin: None,
            fed: None,
        };
        let mut session = ServeSession::open(&hello).expect("workload matcher is builtin");
        for event in s.instance.stream.iter() {
            let msg = match event {
                ArrivalEvent::Worker(spec) => {
                    let msg = WorkerMsg {
                        spec: *spec,
                        history: s.instance.histories.get(&spec.id).cloned(),
                    };
                    spans
                        .time(Layer::ServeSession, None, id, false, || {
                            session.worker(&msg)
                        })
                        .expect("generated streams are time-ordered");
                    ServerMsg::ok
                }
                ArrivalEvent::Request(spec) => spans
                    .time(Layer::ServeSession, None, id, true, || {
                        session.request(spec)
                    })
                    .expect("generated streams are time-ordered"),
            };
            responses.push(ServerFrame { sid: s.sid, msg });
            id += 1;
        }
    }
    responses
}

/// Bytes in and out of one codec over the whole stream.
pub struct CodecBytes {
    pub bytes_in: usize,
    pub bytes_out: usize,
}

/// Pass C, `com-serve::{protocol, framing}`: the daemon's side of the
/// codec — decode every pre-encoded event the way the router does,
/// encode every pass-B response the way the shared writer does.
pub fn pass_c(
    sessions: &[SessionInput],
    responses: &[ServerFrame],
    format: WireFormat,
    spans: &mut Spans,
) -> CodecBytes {
    let mut bytes_in = 0usize;
    let mut bytes_out = 0usize;
    let mut wire = Vec::new();
    let mut out = Vec::with_capacity(512 * 1024);
    let mut id = 0u32;
    for s in sessions {
        for event in s.instance.stream.iter() {
            wire.clear();
            put_msg(format, s.sid, event_msg(&s.instance, event), &mut wire);
            bytes_in += wire.len();
            let is_request = event.is_request();
            let decoded = spans.time(
                Layer::Decode(format),
                None,
                id,
                is_request,
                || match format {
                    WireFormat::Binary => decode_payload(&wire[5..])
                        .ok()
                        .and_then(|c| client_frame_from_content(&c).ok()),
                    WireFormat::Ndjson => std::str::from_utf8(&wire)
                        .ok()
                        .and_then(|line| decode_client_frame(line.trim()).ok()),
                },
            );
            assert!(decoded.is_some(), "pre-encoded event {id} did not decode");
            black_box(decoded);

            let response = &responses[id as usize];
            if out.len() > 256 * 1024 {
                out.clear(); // the writer's flush threshold
            }
            let before = out.len();
            spans.time(
                Layer::Encode(format),
                None,
                id,
                is_request,
                || match format {
                    WireFormat::Binary => write_frame(response, &mut out),
                    WireFormat::Ndjson => {
                        out.extend_from_slice(encode(response).as_bytes());
                        out.push(b'\n');
                    }
                },
            );
            bytes_out += out.len() - before;
            id += 1;
        }
    }
    CodecBytes {
        bytes_in,
        bytes_out,
    }
}

/// The program's own numbers for one instrumented engine run
/// (`RunResult::telemetry`), summed over sessions.
#[derive(Default)]
pub struct EngineTelemetry {
    pub pricing_calls: u64,
    pub pricing_total_ns: u128,
    pub candidate_searches: u64,
    pub cells_scanned: u64,
    pub mc_estimates: u64,
    pub mc_samples: u64,
    pub mer_candidates: u64,
}

impl EngineTelemetry {
    pub fn absorb(&mut self, t: &com_obs::RunTelemetry) {
        if let Some(p) = t.phase(com_obs::PHASE_PRICING) {
            self.pricing_calls += p.count;
            self.pricing_total_ns += p.total_ns;
        }
        if let Some(p) = t.phase(com_obs::PHASE_CANDIDATES) {
            self.candidate_searches += p.count;
        }
        self.cells_scanned += t.counter("grid.cells_scanned").unwrap_or(0);
        self.mc_estimates += t.counter("mc.estimates").unwrap_or(0);
        self.mc_samples += t.counter("mc.samples").unwrap_or(0);
        self.mer_candidates += t.counter("pricing.candidates_evaluated").unwrap_or(0);
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Turn the spans of passes A–C (plus the program's own counters) into
/// the per-layer metrics of `com-sim` … `com-serve::framing`.
#[allow(clippy::too_many_arguments)]
pub fn summarise(
    m: &mut Collector,
    spans: &Spans,
    a: &PassA,
    own: &EngineTelemetry,
    codec: &[(WireFormat, CodecBytes)],
    events: usize,
    requests: usize,
    engine_wall_s: f64,
) {
    let cand = spans.durations(Layer::Candidates, None);
    m.set("sim.candidates.calls", cand.len() as f64);
    m.set("sim.candidates.mean_ns", cand.mean());
    m.set("sim.candidates.p99_ns", cand.p(99.0) as f64);
    m.set(
        "sim.candidates.mean_set_size",
        ratio(a.set_size_sum as f64, cand.len() as f64),
    );
    m.set(
        "geo.cells_scanned_per_query",
        ratio(own.cells_scanned as f64, own.candidate_searches as f64),
    );

    let mc = spans.durations(Layer::PricingMc, None);
    m.set("pricing.mc.calls", mc.len() as f64);
    m.set("pricing.mc.mean_ns", mc.mean());
    m.set("pricing.mc.p99_ns", mc.p(99.0) as f64);
    m.set(
        "pricing.mc.samples_per_call",
        ratio(own.mc_samples as f64, own.mc_estimates as f64),
    );
    let mer = spans.durations(Layer::PricingMer, None);
    m.set("pricing.mer.calls", mer.len() as f64);
    m.set("pricing.mer.mean_ns", mer.mean());
    m.set("pricing.mer.p99_ns", mer.p(99.0) as f64);
    m.set(
        "pricing.mer.candidates_per_call",
        if mer.len() > 0 {
            ratio(own.mer_candidates as f64, own.pricing_calls as f64)
        } else {
            0.0
        },
    );

    let ingest_req = spans.durations(Layer::CoreIngest, Some(true));
    let ingest_wrk = spans.durations(Layer::CoreIngest, Some(false));
    m.set("core.ingest.request_mean_ns", ingest_req.mean());
    m.set("core.ingest.request_p99_ns", ingest_req.p(99.0) as f64);
    m.set("core.ingest.worker_mean_ns", ingest_wrk.mean());
    // Approximate: the matcher's candidate searches and pricing calls are
    // costed at the shadow calls' per-call means, counted as often as the
    // program's own phase table says they ran.
    let per_request = |calls: u64, mean_ns: f64| ratio(calls as f64 * mean_ns, requests as f64);
    let kernel_mean = if mc.len() > 0 { mc.mean() } else { mer.mean() };
    m.set(
        "core.ingest.self_mean_ns",
        ingest_req.mean()
            - per_request(own.candidate_searches, cand.mean())
            - per_request(own.pricing_calls, kernel_mean),
    );
    m.set("core.finish_s", a.finish_s);
    m.set("core.audit_s", a.audit_s);
    m.set("core.digest_s", a.digest_s);

    let sess_req = spans.durations(Layer::ServeSession, Some(true));
    let sess_wrk = spans.durations(Layer::ServeSession, Some(false));
    m.set("serve.session.request_mean_ns", sess_req.mean());
    m.set("serve.session.request_p99_ns", sess_req.p(99.0) as f64);
    m.set("serve.session.worker_mean_ns", sess_wrk.mean());
    // Same event indices in both passes, so the difference of the means
    // is the mean of the per-event differences.
    let all = |layer| spans.durations(layer, None).mean();
    m.set(
        "serve.session.self_mean_ns",
        all(Layer::ServeSession) - all(Layer::CoreIngest),
    );

    for (format, bytes) in codec {
        let name = |suffix: &str| format!("codec.{}.{suffix}", format.as_str());
        m.set(
            &name("decode_request_ns"),
            spans.durations(Layer::Decode(*format), Some(true)).mean(),
        );
        m.set(
            &name("decode_worker_ns"),
            spans.durations(Layer::Decode(*format), Some(false)).mean(),
        );
        m.set(
            &name("encode_response_ns"),
            spans.durations(Layer::Encode(*format), None).mean(),
        );
        m.set(
            &name("bytes_in_per_event"),
            ratio(bytes.bytes_in as f64, events as f64),
        );
        m.set(
            &name("bytes_out_per_event"),
            ratio(bytes.bytes_out as f64, events as f64),
        );
    }

    m.set("harness.timer_overhead_ns", Spans::timer_overhead_ns());
    m.set(
        "harness.trace_overhead_pct",
        100.0 * ratio(a.wall_s - engine_wall_s, engine_wall_s),
    );
    // The shadow kernel calls against the program's own `pricing` phase:
    // the two totals should agree if the shadow calls cost what the
    // matcher's own calls cost.
    let shadow_ns = mc.len() as f64 * mc.mean() + mer.len() as f64 * mer.mean();
    m.note("pricing.shadow_total_ms", shadow_ns / 1e6, "ms");
    m.note(
        "pricing.program_total_ms",
        own.pricing_total_ns as f64 / 1e6,
        "ms",
    );
    m.sample_count("program_pricing_calls", own.pricing_calls as usize);
    m.sample_count("pass_a_events", events);
    m.sample_count("shadow_pricing_calls", mc.len() + mer.len());
}

/// Per-event in-process serving cost of the workload's own wire format,
/// ns: pass B's session call plus pass C's decode and encode. What is
/// left of a served event after subtracting this is the wire residual.
pub fn in_process_ns_per_event(spans: &Spans, format: WireFormat) -> f64 {
    spans.durations(Layer::ServeSession, None).mean()
        + spans.durations(Layer::Decode(format), None).mean()
        + spans.durations(Layer::Encode(format), None).mean()
}
