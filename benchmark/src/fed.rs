//! The federated rung: two `matchd` processes, one platform each.
//!
//! The only driver is `com_fed::drive_federated` — the public lockstep
//! driver `matchfed` users run. It is a closed loop with one event
//! outstanding, and its clock covers the whole call, `hello` and teardown
//! included. It reports no per-request timing; the latency signal of this
//! rung is the daemons' own `fed-offer` round-trip histogram
//! (`fed.offer_rtt_*`, from `stats_deep`).

use std::io;
use std::net::TcpStream;
use std::time::Instant;

use com_fed::{drive_federated, verify, FedOptions};

use crate::daemon::Daemon;
use crate::inputs;
use crate::report::Collector;
use crate::run::{setup_median, traced_rungs, Engine, Gate, RunConfig, SetupTiming, SETUP_REPS};
use crate::stats::median;

/// The whole `fed_pair` workload.
pub fn run(cfg: &RunConfig, m: &mut Collector, gate: &mut Gate) -> io::Result<()> {
    let w = &cfg.workload;
    // *setup*: generation + spawning the pair + one keep-alive connection
    // to each daemon (which also stops a `--once` daemon from exiting
    // between sessions). Nothing is pre-encoded — `drive_federated` encodes
    // as it sends — and `hello` happens inside its clock.
    let reps = if cfg.trace { 1 } else { SETUP_REPS };
    let mut setups = Vec::new();
    let mut kept = None;
    for rep in 0..reps {
        let t0 = Instant::now();
        let sessions = inputs::sessions(w, cfg.seed);
        let generate_s = t0.elapsed().as_secs_f64();
        let a = Daemon::spawn(&cfg.env, 1, true)?;
        let b = Daemon::spawn(&cfg.env, 1, true)?;
        let keep = (TcpStream::connect(&a.addr)?, TcpStream::connect(&b.addr)?);
        setups.push(SetupTiming {
            total_s: t0.elapsed().as_secs_f64(),
            generate_s,
            preencode_s: 0.0,
        });
        if rep + 1 < reps {
            drop(keep);
            a.wait_exit()?;
            b.wait_exit()?;
        } else {
            kept = Some((sessions, a, b, keep));
        }
    }
    let (sessions, mut a, mut b, keep) = kept.expect("at least one setup repetition");
    let s = &sessions[0];
    let n = s.instance.stream.len();
    m.set("setup_s", setup_median(&setups, |t| t.total_s));
    m.sample_count("setup_reps", setups.len());

    let mut reference = Engine::new(&sessions);
    reference.measure(&sessions, w.matcher, cfg.engine_floor() / 2.0, gate);

    // The same session through `drive_federated`, several times over on
    // the one pair (a fresh `fed_sid` each); the median call is reported.
    let (mut call_rates, mut stream_rates) = (Vec::new(), Vec::new());
    let (mut offers, mut degraded, mut stale) = (0u64, 0u64, 0u64);
    let (mut rtt_p50, mut rtt_p99) = (Vec::new(), Vec::new());
    for call in 0..cfg.fed_calls() {
        let options = FedOptions {
            matcher: w.matcher.to_string(),
            seed: s.seed,
            frame: w.format,
            fed_sid: call as u64 + 1,
            ..FedOptions::default()
        };
        let t = Instant::now();
        let report = drive_federated(&a.addr, &b.addr, &s.instance, &options);
        let wall = t.elapsed().as_secs_f64();
        let report = match report {
            Ok(report) => report,
            Err(e) => {
                gate.record("fed", n, 0, vec![format!("call {call} aborted: {e}")]);
                break;
            }
        };
        call_rates.push(n as f64 / wall);
        stream_rates.push(n as f64 / report.wall_secs);
        let mut problems = verify(&s.instance, &report, &options);
        for d in &report.daemons {
            if d.bye.digest != reference.digests[0] {
                problems.push(format!(
                    "call {call} platform {}: bye.digest differs from the engine's",
                    d.platform
                ));
            }
            degraded += d.bye.fed.as_ref().map_or(0, |f| f.degraded_offers);
            let Some(deep) = &d.deep_stats else { continue };
            if let Some(f) = &deep.federation {
                offers += f.offers_sent;
                stale += f.stale_replies;
            }
            if let Some(p) = deep.phase(com_obs::PHASE_FED_OFFER) {
                rtt_p50.push(p.p50_ns as f64 / 1e3);
                rtt_p99.push(p.p99_ns as f64 / 1e3);
            }
        }
        gate.record("fed", n, 0, problems);
    }
    if !call_rates.is_empty() {
        m.set("serve_events_per_s", median(&call_rates));
    }
    m.sample_count("fed_calls", call_rates.len());
    // Summed over the pair; read after the last call, so unlike the
    // single-daemon workloads it includes the teardown peaks.
    m.set("peak_rss_mb", a.peak_rss_mib()? + b.peak_rss_mib()?);

    reference.measure(&sessions, w.matcher, cfg.engine_floor(), gate);
    m.set("engine_events_per_s", reference.events_per_s());

    drop(keep);
    let clean = a.wait_exit()? & b.wait_exit()?;
    if !clean {
        gate.record(
            "fed",
            0,
            0,
            vec!["a daemon did not exit cleanly after its last connection closed".into()],
        );
    }

    if cfg.trace {
        m.set(
            "datagen.generate_s",
            setup_median(&setups, |t| t.generate_s),
        );
        m.set("fed.offers", offers as f64);
        m.set("fed.offer_rtt_p50_us", median(&rtt_p50));
        m.set("fed.offer_rtt_p99_us", median(&rtt_p99));
        m.set("fed.degraded_offers", degraded as f64);
        m.set("fed.stale_replies", stale as f64);
        let pair_rate = median(&stream_rates);
        m.set("fed.stream_events_per_s", pair_rate);
        let single = traced_rungs(cfg, &sessions, &sessions, &reference, None, m, gate)?;
        if let Some(single) = single.filter(|_| pair_rate > 0.0) {
            m.set("fed.slowdown_vs_single", single / pair_rate);
        }
    }
    Ok(())
}
