//! The flight-recorder contract, end to end:
//!
//! * a trace recorded by playing an instance through a `ServeSession`
//!   replays **byte-identically** (decisions, run digest) for every
//!   builtin matcher spec, with a silent auditor;
//! * a trace recorded by a *live* `matchd --record` session over loopback
//!   TCP replays byte-identically to what the live client observed, and
//!   two connections that each open sid 0 get one trace each;
//! * a tampered trace is caught: replay reports the divergence at the
//!   right event index with both decisions, and `matchreplay` exits
//!   nonzero; so is a decision line that answers no request, a missing
//!   path and a file that is not a trace;
//! * `stats_deep` over loopback returns the populated serving phase
//!   table.

use std::path::{Path, PathBuf};
use std::process::Command;

use com_core::MatcherSpec;
use com_datagen::generate;
use com_datagen::profiles::{synthetic, SyntheticParams};
use com_serve::{
    drive, event_msg, hello_msg, record_session, replay_trace, serve, Client, DriveOptions,
    ServerConfig, WireFormat,
};
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

/// Every file in `dir`, sorted by name.
fn files_in(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read record dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    files.sort();
    files
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
        assert_eq!(report.digest_got, recorded.digest, "{spec_str}");
        assert_eq!(report.events, instance.stream.len() as u64);
        assert_eq!(report.decisions, instance.request_count() as u64);
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
    let traces = files_in(&dir);
    assert_eq!(traces.len(), 1, "traces: {traces:?}");
    let name = traces[0].file_name().unwrap().to_string_lossy().to_string();
    assert!(
        name.starts_with("session-0-demcom-31") && name.ends_with(".jsonl"),
        "unexpected trace name {name}"
    );

    // The recording replays byte-identically, to the very digest the
    // live client received in its `bye`.
    let replayed = replay_trace(&traces[0]).expect("replay live trace");
    assert!(
        replayed.is_clean(),
        "divergences {:?}, findings {:?}",
        replayed.divergences,
        replayed.audit_findings,
    );
    assert_eq!(replayed.events, instance.stream.len() as u64);
    assert_eq!(
        replayed.digest_got, bye.digest,
        "replay of the live recording diverged from what the client saw",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A wire `sid` names a session within one connection only: two
/// connections that each open sid 0 with the same matcher and seed on a
/// recording daemon get a trace each, and both replay clean. Their events
/// interleave on the daemon, so two writers sharing one file would corrupt
/// it.
#[test]
fn mux_sessions_on_two_connections_record_one_trace_each() {
    let instance = quick_instance();
    let dir = scratch("mux-sid0");
    let handle = serve(ServerConfig {
        record_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = handle.addr().to_string();

    let mut clients: Vec<Client> = (0..2)
        .map(|_| {
            let mut client = Client::connect(&addr).expect("connect");
            let hello = hello_msg(&instance, "tota", 3, WireFormat::Ndjson);
            client.open(Some(0), hello).expect("hello");
            client
        })
        .collect();
    for event in instance.stream.iter() {
        for client in &mut clients {
            client
                .rpc_for(Some(0), &event_msg(&instance, event))
                .expect("event");
        }
    }
    let digests: Vec<String> = clients
        .iter_mut()
        .map(|client| client.close(Some(0)).expect("close").1.digest)
        .collect();
    handle.shutdown();
    assert_eq!(digests[0], digests[1]);

    let traces = files_in(&dir);
    assert_eq!(traces.len(), 2, "traces: {traces:?}");
    for trace in &traces {
        let replayed = replay_trace(trace).expect("replay");
        assert!(
            replayed.is_clean(),
            "{}: divergences {:?}, findings {:?}",
            trace.display(),
            replayed.divergences,
            replayed.audit_findings,
        );
        assert_eq!(replayed.events, instance.stream.len() as u64);
        assert_eq!(replayed.digest_got, digests[0]);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A decision line that answers no request — a repeat of a recorded one,
/// one at a worker's index, one past the stream — is an `extra-decision`
/// divergence at its index: appended to a committed trace, it fails a
/// replay that was clean.
#[test]
fn a_decision_line_that_answers_no_request_is_an_extra_decision() {
    // This file builds as a `com-serve` test, two levels below the root.
    let original = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../traces/tota-seed42.jsonl");
    assert!(replay_trace(&original).expect("replay").is_clean());
    let text = std::fs::read_to_string(&original).expect("read trace");
    let last_decision = text
        .lines()
        .rfind(|l| l.starts_with("{\"type\":\"decision\""))
        .expect("the trace has decisions");
    let worker_index = text
        .lines()
        .find(|l| l.contains("\"event\":{\"Worker\""))
        .and_then(|l| l.split("\"i\":").nth(1))
        .and_then(|rest| rest.split(',').next())
        .expect("the trace has a worker event");
    let index_of = |line: &str| {
        let rest = line.split("\"i\":").nth(1).unwrap();
        rest.split(',').next().unwrap().to_string()
    };
    let recorded = index_of(last_decision);
    let dir = scratch("extra");
    for index in [recorded.as_str(), worker_index, "100000"] {
        let extra =
            last_decision.replacen(&format!("\"i\":{recorded},"), &format!("\"i\":{index},"), 1);
        let path = dir.join(format!("extra-{index}.jsonl"));
        std::fs::write(&path, format!("{text}{extra}\n")).expect("write trace");
        let report = replay_trace(&path).expect("replay");
        assert!(!report.is_clean(), "index {index}");
        let [d] = &report.divergences[..] else {
            panic!("index {index}: {:?}", report.divergences);
        };
        assert_eq!(d.field, "extra-decision");
        assert_eq!(d.index.to_string(), index);
    }
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

    // Replay: the run itself is unchanged (the engine ignores
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

    // The matchreplay binary exits nonzero on the tampered trace, on a
    // missing path and on a file that is not a trace, naming each on
    // stderr; the pristine trace passes.
    let bin = env!("CARGO_BIN_EXE_matchreplay");
    let replay = |path: &Path| {
        Command::new(bin)
            .arg(path)
            .output()
            .expect("run matchreplay")
    };
    let bad = replay(&tampered_path);
    assert!(
        !bad.status.success(),
        "a tampered trace must fail: {}",
        String::from_utf8_lossy(&bad.stdout)
    );
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert!(
        stderr.contains(&format!("event {tampered_index} decision")),
        "divergence report names the event index: {stderr}"
    );
    let not_a_trace = dir.join("not-a-trace.jsonl");
    std::fs::write(&not_a_trace, "not a trace\n").expect("write non-trace");
    for unreadable in [dir.join("missing.jsonl"), not_a_trace] {
        let out = replay(&unreadable);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{}: {stderr}", unreadable.display());
        assert!(
            stderr.contains(unreadable.to_str().unwrap()),
            "the error names {}: {stderr}",
            unreadable.display()
        );
    }
    let good = replay(&path);
    assert!(
        good.status.success(),
        "pristine trace must pass: {}{}",
        String::from_utf8_lossy(&good.stdout),
        String::from_utf8_lossy(&good.stderr)
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
