//! The `simulate` binary end to end: `--matcher all` runs the standard
//! three matchers and reports exactly what the in-process engine
//! computes, `--emit-config` round-trips through `--config`, an unknown
//! `--matcher` is a usage error that lists the valid specs, and a CSV row
//! the engine would refuse is an error naming its line. `repro` checks
//! every experiment name and creates `--out` before it runs anything, and
//! its `--help` names every experiment.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use serde::Deserialize;

use com_bench::experiments::EXPERIMENTS;
use com_core::{run_online, MatcherSpec};
use com_datagen::{generate, profiles};

/// The part of `simulate --json`'s report these tests read.
#[derive(Deserialize)]
struct Report {
    runs: Vec<Run>,
}

#[derive(Debug, PartialEq, Deserialize)]
struct Run {
    algorithm: String,
    revenue: f64,
    completed: usize,
}

fn simulate(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(args)
        .output()
        .expect("run simulate")
}

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("com-simulate-cli-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Run `simulate ARGS --json FILE` and return the report's `runs`.
fn runs(args: &[&str], json: &Path) -> Vec<Run> {
    let mut args = args.to_vec();
    args.extend(["--json", json.to_str().unwrap()]);
    let out = simulate(&args);
    assert!(
        out.status.success(),
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(json).expect("read report");
    let report: Report = serde_json::from_str(&text).expect("parse report");
    report.runs
}

#[test]
fn algo_all_reports_the_standard_runs_and_the_config_round_trips() {
    let dir = scratch("all");
    let from_profile = runs(
        &["--profile", "quick", "--matcher", "all"],
        &dir.join("profile.json"),
    );

    let instance = generate(&profiles::quick());
    let expected: Vec<Run> = MatcherSpec::standard()
        .iter()
        .map(|spec| {
            let run = run_online(&instance, spec.build().as_mut(), 42);
            Run {
                algorithm: run.algorithm.clone(),
                revenue: run.total_revenue(),
                completed: run.completed(),
            }
        })
        .collect();
    let names: Vec<&str> = from_profile.iter().map(|r| r.algorithm.as_str()).collect();
    assert_eq!(names, ["TOTA", "DemCOM", "RamCOM"]);
    assert_eq!(from_profile, expected);

    let emitted = simulate(&["--emit-config", "--profile", "quick"]);
    assert!(emitted.status.success());
    let config = dir.join("quick-config.json");
    std::fs::write(&config, &emitted.stdout).expect("write config");
    let from_config = runs(
        &["--config", config.to_str().unwrap(), "--matcher", "all"],
        &dir.join("config.json"),
    );
    assert_eq!(from_config, from_profile);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unknown_algo_is_a_usage_error_listing_the_valid_specs() {
    let out = simulate(&["--profile", "quick", "--matcher", "nope"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--matcher `nope`"), "{stderr}");
    for spec in ["tota", "demcom", "ramcom"] {
        assert!(stderr.contains(spec), "{spec} missing from: {stderr}");
    }
}

#[test]
fn a_bad_requests_csv_row_exits_2_naming_its_line() {
    let dir = scratch("csv");
    let workers = dir.join("workers.csv");
    let requests = dir.join("requests.csv");
    std::fs::write(
        &workers,
        "id,platform,arrival_secs,x_km,y_km,radius_km,history\n1,1,0,5.0,5.0,1.0,\n",
    )
    .expect("write workers");
    std::fs::write(
        &requests,
        "id,platform,arrival_secs,x_km,y_km,value\n1,0,60,5.2,5.0,inf\n",
    )
    .expect("write requests");
    let out = simulate(&[
        "--workers-csv",
        workers.to_str().unwrap(),
        "--requests-csv",
        requests.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("line 2"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unknown_repro_experiment_exits_2_and_writes_nothing() {
    let dir = scratch("repro");
    for names in [["all", "typo"], ["cr", "typo"]] {
        let mut args = vec!["--quick", "--out", dir.to_str().unwrap()];
        args.extend(names);
        let out = repro(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{names:?}: {stderr}");
        assert!(stderr.contains("unknown experiment `typo`"), "{stderr}");
        let written: Vec<_> = std::fs::read_dir(&dir).expect("read out dir").collect();
        assert!(written.is_empty(), "{names:?} wrote {written:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repro_help_names_every_experiment() {
    let out = repro(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let usage = String::from_utf8_lossy(&out.stdout);
    for name in EXPERIMENTS.iter().chain(&["all"]) {
        let listed = usage
            .split(|c: char| c.is_whitespace() || c == '|')
            .any(|word| word == *name);
        assert!(listed, "`{name}` missing from: {usage}");
    }
}

#[test]
fn an_unwritable_repro_out_exits_2_before_anything_runs() {
    let dir = scratch("repro-out");
    let file = dir.join("a-file");
    std::fs::write(&file, "").expect("write file");
    let out_dir = file.join("results");
    let out = repro(&["cr", "--quick", "--out", out_dir.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("--out"), "{stderr}");
    assert!(out.stdout.is_empty(), "an experiment ran");
    let _ = std::fs::remove_dir_all(&dir);
}
