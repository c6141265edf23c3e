//! The benchmark's fixed vocabulary: the six workloads with their frozen
//! open-loop rates, and every metric name with its unit.
//!
//! `BENCHMARK.json` at the repo root declares the same names (a test keeps
//! the two in step). The rates are constants on purpose: both sides of a
//! before/after comparison must be offered the same load, so nothing here
//! adapts to the host at run time. The measurements behind each rate are
//! in `benchmark/README.md`.

use com_serve::WireFormat;

/// Which generated instance a workload streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceKind {
    /// `profiles::chengdu_oct()` with every platform's requests and
    /// workers ×10 — Table III magnitudes (181,910 requests + 16,190
    /// workers), ≈17 candidate workers per request.
    City,
    /// `profiles::chengdu_oct()` unchanged (18,191 + 1,619), ≈2 candidates
    /// per request.
    Town,
    /// `--smoke` only: `chengdu_oct()` ÷4, so the whole ladder runs in
    /// seconds. Never used for a reported number.
    Hamlet,
}

/// How a workload reaches the daemon(s).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One bare session on one connection to a one-shard daemon.
    Bare,
    /// `sessions` mux sessions over `connections` sockets to
    /// `matchd --shards shards`, interleaved round-robin.
    Mux {
        sessions: usize,
        connections: usize,
        shards: usize,
    },
    /// Two daemons, one platform each, one session driven through
    /// `com_fed::drive_federated` (closed loop by construction).
    FedPair,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub instance: InstanceKind,
    pub matcher: &'static str,
    pub format: WireFormat,
    pub topology: Topology,
    /// Open-loop offered rate, events/second, aggregate over all
    /// connections. Frozen; see the module docs. Unused by `fed_pair`.
    pub rate: f64,
}

/// `BENCHMARK.json`'s `run_seconds`, and `--seconds`' default.
pub const RUN_SECONDS: f64 = 15.0;

/// Latency limit on the open-loop workloads' windowed p99, µs.
pub const LATENCY_LIMIT_US: f64 = 5_000.0;

/// Closed-loop window of the *saturate* blocks, events in flight per
/// connection.
pub const SATURATE_WINDOW: usize = 64;

/// A served pass streams its events in this many consecutive blocks,
/// alternately closed loop (*saturate*) and open loop (*openloop*), so
/// each load mode samples the whole simulated day — the cost of an event
/// grows several-fold from the empty morning to the dense evening.
pub const BLOCKS: usize = 8;

/// Share of each closed/open block pair's events that is sent open loop.
/// A quarter keeps the open-loop phase (the slow one: its rate is a
/// fraction of saturation by design) to a few seconds per pass.
pub const OPEN_LOOP_SHARE: f64 = 0.25;

/// Served throughput and tail latency are medians over windows of this
/// many consecutive responses (requests, for latency). The host this was
/// built on stalls a vCPU for 10–60 ms several times per run; a stall
/// lands in one window and the median window does not see it, where a
/// whole-pass mean or a pooled p99 is mostly a count of stalls. A window's
/// p99 has 20 samples beyond it.
pub const STAT_WINDOW: usize = 2048;

/// `matchd --queue`: per-shard ingress capacity. The default (1024)
/// overflows when the host stalls the shard thread for 50 ms at 20k
/// events/s, and a dropped event is a failed run; with room for a second
/// of backlog a stall shows up as latency instead.
pub const DAEMON_QUEUE: usize = 16_384;

/// `fed_pair`'s traced run serves its `town` session through one plain
/// daemon for comparison (`fed.slowdown_vs_single`); that pass's open-loop
/// blocks run at this rate, events/second. Frozen like the workloads'.
pub const FED_SINGLE_RATE: f64 = 25_000.0;

/// What one `drive_federated` call over the `town` session is budgeted
/// at, seconds; `fed_pair` makes `seconds ÷ this` calls per run.
pub const FED_CALL_S: f64 = 3.0;

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "city_demcom",
        instance: InstanceKind::City,
        matcher: "demcom",
        format: WireFormat::Binary,
        topology: Topology::Bare,
        rate: 10_000.0,
    },
    Workload {
        name: "city_ramcom",
        instance: InstanceKind::City,
        matcher: "ramcom",
        format: WireFormat::Binary,
        topology: Topology::Bare,
        rate: 15_000.0,
    },
    Workload {
        name: "wire_tota",
        instance: InstanceKind::City,
        matcher: "tota",
        format: WireFormat::Binary,
        topology: Topology::Bare,
        rate: 45_000.0,
    },
    Workload {
        name: "wire_tota_ndjson",
        instance: InstanceKind::City,
        matcher: "tota",
        format: WireFormat::Ndjson,
        topology: Topology::Bare,
        rate: 25_000.0,
    },
    Workload {
        name: "shards_mux",
        instance: InstanceKind::Town,
        matcher: "ramcom",
        format: WireFormat::Binary,
        topology: Topology::Mux {
            sessions: 8,
            connections: 2,
            shards: 2,
        },
        rate: 40_000.0,
    },
    Workload {
        name: "fed_pair",
        instance: InstanceKind::Town,
        matcher: "ramcom",
        format: WireFormat::Binary,
        topology: Topology::FedPair,
        rate: 0.0,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Whether this workload exercises the layer behind per-layer metric
    /// `name`. Where it does not, the traced run reports 0; where it does,
    /// a value that was not measured is a named failure. (`pricing.*` of
    /// the kernel the matcher does not use are measured zeros, not
    /// exceptions: pass A counts no calls.)
    pub fn measures(&self, name: &str) -> bool {
        let fed = self.topology == Topology::FedPair;
        if name.starts_with("fed.") {
            fed
        } else if name.starts_with("openloop.") || name == "datagen.preencode_s" {
            !fed
        } else {
            true
        }
    }

    /// The `--smoke` variant: `town` in place of `city`, `hamlet` in
    /// place of `town`, rates ÷4 — every code path, a tenth of the time.
    pub fn smoke(mut self) -> Workload {
        self.instance = match self.instance {
            InstanceKind::City => InstanceKind::Town,
            _ => InstanceKind::Hamlet,
        };
        self.rate /= 4.0;
        self
    }
}

/// Which way an end-to-end metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One end-to-end metric: what a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// Every end-to-end metric, in print order. The bounds are the widest
/// the benchmark contract allows for everything but memory: on the host
/// this was built on, a quarter of all runs land in a period where the
/// whole VM is 10–30 % slower, and a tighter bound would call that a
/// regression (measurements in `benchmark/README.md`).
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "engine_events_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "serve_events_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.05,
    },
];

/// `(name, unit)` of every per-layer metric (the `--trace` run), grouped
/// by the crate the layer lives in.
pub const PER_LAYER: [(&str, &str); 69] = [
    // com-sim / com-geo: candidate search (pass A shadow calls).
    ("sim.candidates.calls", "count"),
    ("sim.candidates.mean_ns", "ns"),
    ("sim.candidates.p99_ns", "ns"),
    ("sim.candidates.mean_set_size", "count"),
    ("geo.cells_scanned_per_query", "count"),
    // com-pricing: Monte Carlo minimum payment (Alg. 2).
    ("pricing.mc.calls", "count"),
    ("pricing.mc.mean_ns", "ns"),
    ("pricing.mc.p99_ns", "ns"),
    ("pricing.mc.samples_per_call", "count"),
    // com-pricing: maximum expected revenue (Def. 4.1).
    ("pricing.mer.calls", "count"),
    ("pricing.mer.mean_ns", "ns"),
    ("pricing.mer.p99_ns", "ns"),
    ("pricing.mer.candidates_per_call", "count"),
    // com-core: MatchSession::ingest and the end-of-run costs.
    ("core.ingest.request_mean_ns", "ns"),
    ("core.ingest.request_p99_ns", "ns"),
    ("core.ingest.worker_mean_ns", "ns"),
    ("core.ingest.self_mean_ns", "ns"),
    ("core.finish_s", "s"),
    ("core.audit_s", "s"),
    ("core.digest_s", "s"),
    // com-serve::session (pass B).
    ("serve.session.request_mean_ns", "ns"),
    ("serve.session.request_p99_ns", "ns"),
    ("serve.session.worker_mean_ns", "ns"),
    ("serve.session.self_mean_ns", "ns"),
    // com-serve::{protocol, framing} (pass C).
    ("codec.binary.decode_request_ns", "ns"),
    ("codec.binary.decode_worker_ns", "ns"),
    ("codec.binary.encode_response_ns", "ns"),
    ("codec.binary.bytes_in_per_event", "B"),
    ("codec.binary.bytes_out_per_event", "B"),
    ("codec.ndjson.decode_request_ns", "ns"),
    ("codec.ndjson.decode_worker_ns", "ns"),
    ("codec.ndjson.encode_response_ns", "ns"),
    ("codec.ndjson.bytes_in_per_event", "B"),
    ("codec.ndjson.bytes_out_per_event", "B"),
    // com-serve::{server, shard} (pass D).
    ("wire.residual_ns_per_event", "ns"),
    ("wire.flush_count", "count"),
    ("wire.flush_mean_us", "us"),
    ("wire.queue_high_water", "count"),
    ("wire.busy_dropped", "count"),
    ("wire.refused", "count"),
    ("shard.events_max_over_mean", "ratio"),
    ("shard.queue_high_water_max", "count"),
    ("serve.teardown_s", "s"),
    ("serve.teardown_rss_mb", "MiB"),
    ("serve.bye_bytes", "B"),
    ("obs.serve_overhead_pct", "%"),
    // com-fed (fed_pair only).
    ("fed.offers", "count"),
    ("fed.offer_rtt_p50_us", "us"),
    ("fed.offer_rtt_p99_us", "us"),
    ("fed.degraded_offers", "count"),
    ("fed.stale_replies", "count"),
    ("fed.stream_events_per_s", "1/s"),
    ("fed.slowdown_vs_single", "ratio"),
    // com-datagen.
    ("datagen.generate_s", "s"),
    ("datagen.preencode_s", "s"),
    // Open-loop validity.
    ("openloop.offered_rate", "1/s"),
    ("openloop.achieved_rate", "1/s"),
    ("openloop.gen_lag_p99_us", "us"),
    ("openloop.svc_p50_us", "us"),
    ("openloop.svc_p99_us", "us"),
    ("openloop.lat_p50_us", "us"),
    ("openloop.lat_p95_us", "us"),
    ("openloop.lat_p99_us", "us"),
    ("openloop.lat_p999_us", "us"),
    ("openloop.max_outstanding", "count"),
    ("openloop.drain_ms", "ms"),
    ("openloop.slo_miss_frac", "ratio"),
    // The harness itself.
    ("harness.timer_overhead_ns", "ns"),
    ("harness.trace_overhead_pct", "%"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        let all = END_TO_END
            .iter()
            .map(|e| e.name)
            .chain(PER_LAYER.iter().map(|(n, _)| *n))
            .chain(WORKLOADS.iter().map(|w| w.name));
        for name in all {
            assert!(seen.insert(name), "duplicate name {name}");
            assert!(!name.is_empty() && name.len() <= 64, "{name}");
            assert!(
                name.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-')),
                "{name} has a character outside [A-Za-z0-9_.-]"
            );
            assert!(name.as_bytes()[0].is_ascii_alphanumeric(), "{name}");
        }
    }

    #[test]
    fn smoke_shrinks_instance_and_rate() {
        let w = Workload::by_name("city_demcom").unwrap().smoke();
        assert_eq!(w.instance, InstanceKind::Town);
        assert_eq!(w.rate, 2_500.0);
        let w = Workload::by_name("fed_pair").unwrap().smoke();
        assert_eq!(w.instance, InstanceKind::Hamlet);
    }

    /// `BENCHMARK.json` at the repo root is the declaration the driver
    /// reads; this file is what the harness emits. They must agree name
    /// for name, unit for unit, bound for bound — and each workload's
    /// frozen rate must be the one its `why` line states.
    #[test]
    fn benchmark_json_declares_exactly_this_vocabulary() {
        use serde::Content;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = serde_json::parse_content(&text).expect("BENCHMARK.json parses");
        let get = |c: &Content, key: &str| -> Content {
            let Content::Map(m) = c else {
                panic!("expected an object holding {key}")
            };
            Content::find(m, key)
                .unwrap_or_else(|| panic!("no {key}"))
                .clone()
        };
        let list = |key: &str| -> Vec<Content> {
            let Content::Seq(v) = get(&doc, key) else {
                panic!("{key} is not an array")
            };
            v
        };
        let text_of = |c: &Content, key: &str| -> String {
            let Content::Str(s) = get(c, key) else {
                panic!("{key} is not a string")
            };
            s
        };

        let declared: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text_of(w, "name"), text_of(w, "why")))
            .collect();
        assert_eq!(
            declared.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
            WORKLOADS.map(|w| w.name)
        );
        for (w, (_, why)) in WORKLOADS.iter().zip(&declared) {
            if w.rate > 0.0 {
                let stated = format!("open loop {} ev/s", w.rate);
                assert!(why.contains(&stated), "{}: why lacks `{stated}`", w.name);
            }
        }

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (d, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text_of(d, "name"), m.name);
            assert_eq!(text_of(d, "unit"), m.unit, "{}", m.name);
            let better = match m.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            assert_eq!(text_of(d, "better"), better, "{}", m.name);
            assert_eq!(get(d, "bound").as_f64(), Some(m.bound), "{}", m.name);
            assert!(m.bound <= 0.25);
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));

        let per = list("per_layer");
        assert_eq!(per.len(), PER_LAYER.len());
        for (d, (name, unit)) in per.iter().zip(&PER_LAYER) {
            assert_eq!(text_of(d, "name"), *name);
            assert_eq!(text_of(d, "unit"), *unit, "{name}");
        }
        assert_eq!(get(&doc, "run_seconds").as_f64(), Some(RUN_SECONDS));
    }
}
