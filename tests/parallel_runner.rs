//! The PR-2 contract: the matcher registry replaces panicking name
//! lookups with `Result`s, and the sweep runner produces bit-identical
//! results for every worker-thread count.

use com::obs::RunTelemetry;
use com::prelude::*;

fn small_instance() -> Instance {
    let scenario = synthetic(SyntheticParams {
        n_requests: 120,
        n_workers: 40,
        seed: 7,
        ..Default::default()
    });
    generate(&scenario)
}

fn grid_specs() -> Vec<MatcherSpec> {
    vec![
        MatcherSpec::Tota,
        MatcherSpec::DemCom,
        MatcherSpec::RamCom,
        MatcherSpec::RouteAware { pickup_cap_km: 2.5 },
    ]
}

/// The (matcher × seed) grid replayed with 1 and 4 worker threads must
/// serialise to byte-identical canonical JSON: same assignments, same
/// revenue, same telemetry counters. Only wall-clock fields (excluded
/// from the canonical projection) may differ.
#[test]
fn parallel_grid_is_bit_identical_to_serial() {
    let instance = small_instance();
    let specs = grid_specs();
    let seeds = [11u64, 12, 13];

    let serial = run_grid(
        &SweepRunner::new(1).with_telemetry(true),
        &instance,
        &specs,
        &seeds,
    );
    let parallel = run_grid(
        &SweepRunner::new(4).with_telemetry(true),
        &instance,
        &specs,
        &seeds,
    );

    assert_eq!(serial.len(), specs.len() * seeds.len());
    assert_eq!(parallel.len(), serial.len());
    for (s, p) in serial.iter().zip(&parallel) {
        let s_json = serde_json::to_string(&canonical_run_json(s)).unwrap();
        let p_json = serde_json::to_string(&canonical_run_json(p)).unwrap();
        assert_eq!(s_json, p_json, "mismatch for {}", s.algorithm);
    }
}

/// Oversubscription (more threads than jobs, odd worker counts) changes
/// nothing either.
#[test]
fn thread_count_is_irrelevant_to_results() {
    let instance = small_instance();
    let specs = [MatcherSpec::RamCom];
    let seeds = [5u64, 6];
    let baseline: Vec<String> = run_grid(&SweepRunner::serial(), &instance, &specs, &seeds)
        .iter()
        .map(|r| serde_json::to_string(&canonical_run_json(r)).unwrap())
        .collect();
    for threads in [2, 7, 32] {
        let got: Vec<String> = run_grid(&SweepRunner::new(threads), &instance, &specs, &seeds)
            .iter()
            .map(|r| serde_json::to_string(&canonical_run_json(r)).unwrap())
            .collect();
        assert_eq!(got, baseline, "diverged at --threads {threads}");
    }
}

/// Per-thread collectors merge into one report whose counters are exact
/// sums — identical whichever thread ran which cell.
#[test]
fn merged_telemetry_counters_match_across_thread_counts() {
    let instance = small_instance();
    let specs = grid_specs();
    let seeds = [3u64, 4];
    let serial = run_grid(
        &SweepRunner::new(1).with_telemetry(true),
        &instance,
        &specs,
        &seeds,
    );
    let parallel = run_grid(
        &SweepRunner::new(4).with_telemetry(true),
        &instance,
        &specs,
        &seeds,
    );

    let counters = |runs: &[RunResult]| -> Vec<(String, u64)> {
        let merged: RunTelemetry = merged_telemetry("grid", runs).expect("telemetry collected");
        merged
            .counters
            .iter()
            .map(|c| (c.name.clone(), c.value))
            .collect()
    };
    let s = counters(&serial);
    assert!(!s.is_empty(), "expected counters in the merged report");
    assert_eq!(s, counters(&parallel));
}

/// Registry lookups are `Result`s: every built-in spec resolves (case
/// insensitively), and unknown names fail with a message listing the
/// valid templates instead of panicking.
#[test]
fn registry_resolves_known_specs_and_rejects_unknown() {
    let registry = MatcherRegistry::builtin();
    for spec in [
        "tota",
        "TOTA",
        "demcom",
        "DemCOM",
        "ramcom",
        "greedy-rt",
        "route-aware:2.5",
    ] {
        registry
            .build(spec)
            .unwrap_or_else(|e| panic!("`{spec}` should resolve: {e}"));
    }

    let msg = match registry.build("uber-dispatch") {
        Ok(_) => panic!("`uber-dispatch` should not resolve"),
        Err(e) => e.to_string(),
    };
    assert!(msg.contains("tota"), "error should list valid specs: {msg}");
    assert!(
        msg.contains("route-aware:<cap-km>"),
        "error should list the parameterised template: {msg}"
    );
}

/// `route-aware:<cap>` parsing: the cap must be a positive finite number.
#[test]
fn route_aware_spec_parses_its_cap() {
    match "route-aware:2.5".parse::<MatcherSpec>() {
        Ok(MatcherSpec::RouteAware { pickup_cap_km }) => {
            assert!((pickup_cap_km - 2.5).abs() < 1e-12)
        }
        other => panic!("expected RouteAware, got {other:?}"),
    }
    for bad in [
        "route-aware:",
        "route-aware:abc",
        "route-aware:-1",
        "route-aware:0",
    ] {
        assert!(
            bad.parse::<MatcherSpec>().is_err(),
            "`{bad}` should be rejected"
        );
    }
}

/// Every build mints a fresh matcher, so parallel workers never share
/// mutable algorithm state.
#[test]
fn factories_mint_fresh_matchers() {
    let registry = MatcherRegistry::builtin();
    let a = registry.build("ramcom").unwrap();
    let b = registry.build("ramcom").unwrap();
    assert_eq!(a.name(), b.name());
    let pa = &*a as *const dyn OnlineMatcher as *const u8;
    let pb = &*b as *const dyn OnlineMatcher as *const u8;
    assert_ne!(pa, pb, "build returned the same allocation twice");
}
