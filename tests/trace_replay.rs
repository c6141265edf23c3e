//! The flight-recorder contract, end to end:
//!
//! * a trace recorded by playing an instance through a `ServeSession`
//!   replays **byte-identically** (decisions, digest, canonical run) for
//!   every builtin matcher spec, with a silent auditor;
//! * a trace recorded by a *live* `matchd --record` session over loopback
//!   TCP replays byte-identically to what the live client observed;
//! * a tampered trace is caught: lenient replay reports the divergence at
//!   the right event index with both decisions, and `matchreplay
//!   --strict` exits nonzero;
//! * `stats_deep` over loopback returns the populated serving phase
//!   table.

use std::path::PathBuf;
use std::process::Command;

use com_core::MatcherSpec;
use com_datagen::{generate, synthetic, SyntheticParams};
use com_serve::{drive, record_session, replay_trace, serve, DriveOptions, ServerConfig};
use com_sim::Instance;

fn quick_instance() -> Instance {
    generate(&synthetic(SyntheticParams {
        n_requests: 120,
        n_workers: 40,
        ..SyntheticParams::default()
    }))
}

/// A unique scratch directory per test (tests run in parallel threads of
/// one process, so the pid alone is not enough).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("com-trace-replay-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn canonical_text(value: &serde_json::Value) -> String {
    let text = serde_json::to_string(value).expect("serialise");
    let parsed: serde_json::Value = serde_json::from_str(&text).expect("round-trip");
    serde_json::to_string(&parsed).expect("serialise")
}

#[test]
fn every_builtin_spec_replays_byte_identically() {
    let instance = quick_instance();
    let dir = scratch("specs");
    for spec in MatcherSpec::all_builtin() {
        let spec_str = spec.to_string();
        let path = dir.join(format!(
            "{}.jsonl",
            com_serve::trace::sanitize_spec(&spec_str)
        ));
        let recorded =
            record_session(&path, &instance, &spec_str, 7).expect("record local session");
        assert!(recorded.findings.is_empty(), "{spec_str}: audit at record");

        let report = replay_trace(&path).expect("replay recorded trace");
        assert!(
            report.is_clean(),
            "{spec_str}: divergences {:?}, findings {:?}",
            report.divergences,
            report.audit_findings,
        );
        assert_eq!(report.digest_expected.as_deref(), Some(&*report.digest_got));
        assert_eq!(report.events, instance.stream.len() as u64);
        assert_eq!(report.decisions, instance.request_count() as u64);
        // Full canonical byte-identity with the recording-time run, not
        // just the digest.
        let recorded_canonical = com_core::canonical_run_json(&recorded.run);
        assert_eq!(
            canonical_text(&recorded_canonical),
            canonical_text(&report.canonical),
            "{spec_str}: canonical run changed across replay",
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn live_recorded_session_replays_byte_identically() {
    let instance = quick_instance();
    let dir = scratch("live");
    let handle = serve(ServerConfig {
        record_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = handle.addr().to_string();

    let options = DriveOptions {
        matcher: "demcom".into(),
        seed: 31,
        sessions: 1,
        ..DriveOptions::default()
    };
    let report = drive(&addr, &instance, &options).expect("loopback replay");
    let bye = &report.sessions[0].bye;
    assert!(bye.audit_findings.is_empty());
    handle.shutdown();

    // Exactly one session trace was recorded, named after the session.
    let traces: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("read record dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    assert_eq!(traces.len(), 1, "traces: {traces:?}");
    let name = traces[0].file_name().unwrap().to_string_lossy().to_string();
    assert!(
        name.starts_with("session-0-demcom-31") && name.ends_with(".jsonl"),
        "unexpected trace name {name}"
    );

    // The recording replays byte-identically, and the replayed canonical
    // run is the very value the live client received in its `bye`.
    let replayed = replay_trace(&traces[0]).expect("replay live trace");
    assert!(
        replayed.is_clean(),
        "divergences {:?}, findings {:?}",
        replayed.divergences,
        replayed.audit_findings,
    );
    assert_eq!(replayed.events, instance.stream.len() as u64);
    assert_eq!(
        canonical_text(&replayed.canonical),
        canonical_text(&bye.canonical),
        "replay of the live recording diverged from what the client saw",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tampered_decision_is_reported_at_its_event_index_and_fails_strict() {
    let instance = quick_instance();
    let dir = scratch("tamper");
    let path = dir.join("original.jsonl");
    record_session(&path, &instance, "demcom", 7).expect("record");

    // Flip the first assigned decision to a rejection, leaving every
    // other byte of the trace alone.
    let text = std::fs::read_to_string(&path).expect("read trace");
    let mut tampered_index = None;
    let tampered_text: Vec<String> = text
        .lines()
        .map(|line| {
            if tampered_index.is_none()
                && line.starts_with("{\"type\":\"decision\"")
                && line.contains("\"outcome\":\"assign\"")
            {
                let i_field = line
                    .split("\"i\":")
                    .nth(1)
                    .and_then(|rest| rest.split([',', '}']).next())
                    .and_then(|digits| digits.trim().parse::<u64>().ok())
                    .expect("decision line has an index");
                tampered_index = Some(i_field);
                line.replace("\"outcome\":\"assign\"", "\"outcome\":\"reject\"")
            } else {
                line.to_string()
            }
        })
        .collect();
    let tampered_index = tampered_index.expect("trace has at least one assignment");
    let tampered_path = dir.join("tampered.jsonl");
    std::fs::write(&tampered_path, tampered_text.join("\n") + "\n").expect("write tampered");

    // Lenient replay: the run itself is unchanged (the engine ignores
    // recorded decisions), so exactly one divergence — the flipped
    // decision, at its event index, with both sides reported.
    let report = replay_trace(&tampered_path).expect("replay tampered");
    assert_eq!(report.divergences.len(), 1, "{:?}", report.divergences);
    let d = &report.divergences[0];
    assert_eq!(d.index, tampered_index);
    assert_eq!(d.field, "decision");
    assert!(d.expected.contains("\"outcome\":\"reject\""), "{d:?}");
    assert!(d.got.contains("\"outcome\":\"assign\""), "{d:?}");
    assert!(!report.is_clean());

    // The matchreplay binary: strict exits nonzero on the tampered
    // trace, lenient exits zero while still reporting; the pristine
    // trace passes strict.
    let bin = env!("CARGO_BIN_EXE_matchreplay");
    let strict_bad = Command::new(bin)
        .args(["--strict", tampered_path.to_str().unwrap()])
        .output()
        .expect("run matchreplay");
    assert!(
        !strict_bad.status.success(),
        "strict must fail on a tampered trace: {}",
        String::from_utf8_lossy(&strict_bad.stdout)
    );
    let stderr = String::from_utf8_lossy(&strict_bad.stderr);
    assert!(
        stderr.contains(&format!("event {tampered_index} decision")),
        "divergence report names the event index: {stderr}"
    );
    let lenient_bad = Command::new(bin)
        .arg(tampered_path.to_str().unwrap())
        .output()
        .expect("run matchreplay");
    assert!(lenient_bad.status.success(), "lenient reports but passes");
    let strict_good = Command::new(bin)
        .args(["--strict", path.to_str().unwrap()])
        .output()
        .expect("run matchreplay");
    assert!(
        strict_good.status.success(),
        "pristine trace must pass strict: {}{}",
        String::from_utf8_lossy(&strict_good.stdout),
        String::from_utf8_lossy(&strict_good.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deep_stats_reports_the_serving_phase_table_over_loopback() {
    let instance = quick_instance();
    let handle = serve(ServerConfig::default()).expect("bind ephemeral port");
    let addr = handle.addr().to_string();

    let options = DriveOptions {
        matcher: "greedy-rt".into(),
        seed: 5,
        sessions: 1,
        ..DriveOptions::default()
    };
    let report = drive(&addr, &instance, &options).expect("loopback replay");
    handle.shutdown();

    let deep = report.deep_stats.expect("server answers stats_deep");
    assert_eq!(deep.stats.events, instance.stream.len() as u64);
    assert_eq!(deep.busy_dropped, 0);
    // Lockstep client: at most one line in flight, but the queue was used.
    assert!(deep.queue_high_water >= 1, "{:?}", deep.queue_high_water);
    for phase in ["decode", "ingest", "encode", "flush"] {
        let row = deep
            .phase(phase)
            .unwrap_or_else(|| panic!("phase {phase} missing: {:?}", deep.phases));
        assert!(row.count > 0, "{phase}: zero spans");
        assert!(row.max_ns > 0, "{phase}: zero max");
    }
    // The engine's own decision phase rides in the same table (nested
    // inside ingest), one span per request.
    let decision = deep.phase("decision").expect("decision phase");
    assert_eq!(decision.count, instance.request_count() as u64);
}
