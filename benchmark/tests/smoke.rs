//! The whole ladder, end to end, at `--smoke` scale: every workload runs
//! untraced and traced against a real `matchd`, every run is correct, and
//! the names that come out are exactly the names `BENCHMARK.json`
//! declares — no more, no fewer.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use serde::Content;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repo root")
        .to_path_buf()
}

/// The target directory this test was built into
/// (`<target>/debug/perfladder` → `<target>`).
fn target_dir() -> PathBuf {
    Path::new(env!("CARGO_BIN_EXE_perfladder"))
        .ancestors()
        .nth(2)
        .expect("binary lives two levels below the target dir")
        .to_path_buf()
}

/// Build the daemon exactly as `run.sh` does.
fn build_matchd() -> PathBuf {
    let status = Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
        ])
        .arg(repo_root().join("Cargo.toml"))
        .args(["-p", "com-serve", "--bin", "matchd"])
        .env("CARGO_TARGET_DIR", target_dir())
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building matchd failed");
    target_dir().join("release").join("matchd")
}

fn parse(path: &Path) -> Content {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    serde_json::parse_content(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn field<'a>(c: &'a Content, key: &str) -> &'a Content {
    match c {
        Content::Map(m) => Content::find(m, key).unwrap_or_else(|| panic!("no field {key}")),
        other => panic!("expected an object with {key}, got {other:?}"),
    }
}

fn items(c: &Content) -> &[Content] {
    match c {
        Content::Seq(v) => v,
        other => panic!("expected an array, got {other:?}"),
    }
}

fn text(c: &Content) -> &str {
    match c {
        Content::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn keys(c: &Content) -> BTreeSet<String> {
    match c {
        Content::Map(m) => m.iter().map(|(k, _)| text(k).to_string()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

/// The `name`s of one list of `BENCHMARK.json`.
fn declared(benchmark: &Content, list: &str) -> BTreeSet<String> {
    items(field(benchmark, list))
        .iter()
        .map(|e| text(field(e, "name")).to_string())
        .collect()
}

/// One `--smoke` run over every workload; returns `results.json`.
fn smoke_run(matchd: &Path, trace: bool) -> Content {
    let out = target_dir().join(format!("smoke-out-{}", u8::from(trace)));
    let output = Command::new(env!("CARGO_BIN_EXE_perfladder"))
        .args([
            "run",
            "--smoke",
            "--workload",
            "all",
            "--seed",
            "7",
            "--seconds",
            "3",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--matchd")
        .arg(matchd)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("perfladder runs");
    assert!(
        output.status.success(),
        "smoke run (trace {trace}) failed:\n{}\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    parse(&out.join("results.json"))
}

fn number(c: &Content) -> f64 {
    c.as_f64()
        .unwrap_or_else(|| panic!("expected a number, got {c:?}"))
}

/// Per-layer counters of things that must not happen: 0 on every healthy
/// run, so they cannot show that they are measured by being non-zero.
const ZERO_WHEN_HEALTHY: [&str; 5] = [
    "wire.busy_dropped",
    "wire.refused",
    "fed.degraded_offers",
    "fed.stale_replies",
    "openloop.slo_miss_frac",
];

#[test]
fn smoke_run_emits_exactly_the_declared_names() {
    let benchmark = parse(&repo_root().join("BENCHMARK.json"));
    let matchd = build_matchd();
    for (trace, list, section) in [
        (false, "end_to_end", "end_to_end"),
        (true, "per_layer", "per_layer"),
    ] {
        let results = smoke_run(&matchd, trace);
        // With two CPUs or more, harness and daemons were pinned to one
        // (every spawn checks it; the host block says which).
        let host = field(&results, "host");
        if number(field(host, "host_cores")) >= 2.0 {
            assert_eq!(items(field(host, "pinned_cpus")).len(), 1, "nothing pinned");
        }
        let mut nonzero = BTreeSet::new();
        let ran: BTreeSet<String> = items(field(&results, "results"))
            .iter()
            .map(|r| text(field(r, "workload")).to_string())
            .collect();
        assert_eq!(
            ran,
            declared(&benchmark, "workloads"),
            "workloads, trace {trace}"
        );
        for r in items(field(&results, "results")) {
            let workload = text(field(r, "workload"));
            assert_eq!(
                field(r, "correct"),
                &Content::Bool(true),
                "{workload} (trace {trace}) was not correct: {:?}",
                field(r, "failures")
            );
            assert_eq!(
                keys(field(r, section)),
                declared(&benchmark, list),
                "{workload}: {section} names differ from BENCHMARK.json"
            );
            if let Content::Map(metrics) = field(r, section) {
                for (name, m) in metrics {
                    if number(field(m, "value")) != 0.0 {
                        nonzero.insert(text(name).to_string());
                    }
                }
            }
        }
        // A name that reads 0 on every workload is a layer nothing
        // measures any more.
        let mut expected = declared(&benchmark, list);
        if trace {
            expected.retain(|n| !ZERO_WHEN_HEALTHY.contains(&n.as_str()));
        }
        assert_eq!(
            expected.difference(&nonzero).collect::<Vec<_>>(),
            Vec::<&String>::new(),
            "{section} metrics that are 0 on every workload"
        );
        let summary = field(&results, "summary");
        assert_eq!(field(summary, "claim"), &Content::Null);
        assert_eq!(field(summary, "ops_failed"), &Content::U64(0));
    }
}
