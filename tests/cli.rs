//! The command-line contract of the six binaries, one table for all:
//! `--help` prints the usage to stdout and exits 0; an unknown flag, a
//! missing value, an unparsable number and a 0 for a count each exit 2
//! with one line naming the flag, then the usage, on stderr — and print
//! nothing on stdout, so nothing bound a port (matchd prints its address
//! once bound) or started a run.
//!
//! A test sees only its own package's binaries, so this file is a test
//! target of each package that has some (`com-bench`: simulate, repro;
//! `com-serve`: matchd, matchload, matchreplay; `com-fed`: matchfed). Each
//! run checks the rows its package builds; together they cover the table.

use std::process::{Command, Output};

struct Row {
    name: &'static str,
    exe: Option<&'static str>,
    /// A flag that takes a value, given none.
    missing_value: &'static str,
    /// A flag that takes a number.
    number: &'static str,
    /// A flag that takes a count, where 0 is refused.
    count: Option<&'static str>,
}

const ROWS: [Row; 6] = [
    Row {
        name: "simulate",
        exe: option_env!("CARGO_BIN_EXE_simulate"),
        missing_value: "--matcher",
        number: "--threads",
        count: None,
    },
    Row {
        name: "repro",
        exe: option_env!("CARGO_BIN_EXE_repro"),
        missing_value: "--out",
        number: "--threads",
        count: None,
    },
    Row {
        name: "matchd",
        exe: option_env!("CARGO_BIN_EXE_matchd"),
        missing_value: "--addr",
        number: "--shards",
        count: Some("--queue"),
    },
    Row {
        name: "matchload",
        exe: option_env!("CARGO_BIN_EXE_matchload"),
        missing_value: "--addr",
        number: "--seed",
        count: Some("--window"),
    },
    Row {
        name: "matchreplay",
        exe: option_env!("CARGO_BIN_EXE_matchreplay"),
        missing_value: "--record",
        number: "--seed",
        count: None,
    },
    Row {
        name: "matchfed",
        exe: option_env!("CARGO_BIN_EXE_matchfed"),
        missing_value: "--matcher",
        number: "--seed",
        count: Some("--deadline-ms"),
    },
];

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe).args(args).output().expect("spawn binary")
}

/// `args` is refused: exit 2, stderr naming `flag` then the usage, and
/// nothing on stdout.
fn assert_refused(name: &str, exe: &str, args: &[&str], flag: &str) {
    let out = run(exe, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
    let first = stderr.lines().next().unwrap_or_default();
    assert!(
        first.starts_with(&format!("{name}: ")) && first.contains(flag),
        "{name} {args:?}: first line does not name {flag}: {stderr}"
    );
    assert!(
        stderr.contains(&format!("usage: {name}")),
        "{name} {args:?}: no usage: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "{name} {args:?} started: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn every_binary_keeps_one_help_and_exit_code_policy() {
    let mut checked = 0;
    for row in &ROWS {
        let Some(exe) = row.exe else { continue };
        checked += 1;
        let name = row.name;

        for help in ["--help", "-h"] {
            let out = run(exe, &[help]);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert_eq!(out.status.code(), Some(0), "{name} {help}");
            assert!(stdout.starts_with(&format!("usage: {name}")), "{stdout}");
            assert!(out.stderr.is_empty(), "{name} {help} wrote to stderr");
        }

        assert_refused(name, exe, &["--no-such-flag"], "--no-such-flag");
        assert_refused(name, exe, &[row.missing_value], row.missing_value);
        assert_refused(name, exe, &[row.number, "x"], row.number);
        if let Some(count) = row.count {
            assert_refused(name, exe, &[count, "0"], count);
            assert_refused(name, exe, &[count, "-1"], count);
        }
    }
    assert!(checked > 0, "this package builds none of the six binaries");
}
