//! Observability must be free: the `com-obs` collector may never change a
//! run's decisions, and the telemetry it reports must describe the run it
//! was attached to.

use com::obs;
use com::prelude::*;

fn instance() -> Instance {
    generate(&synthetic(SyntheticParams {
        n_requests: 400,
        n_workers: 100,
        seed: 2024,
        ..Default::default()
    }))
}

fn kinds(run: &RunResult) -> Vec<MatchKind> {
    run.assignments.iter().map(|a| a.kind).collect()
}

fn payments(run: &RunResult) -> Vec<f64> {
    run.assignments.iter().map(|a| a.outer_payment).collect()
}

#[test]
fn results_are_bit_identical_with_collector_on_and_off() {
    let inst = instance();
    for make in [
        || Box::new(TotaGreedy) as Box<dyn OnlineMatcher>,
        || Box::new(DemCom::default()) as Box<dyn OnlineMatcher>,
        || Box::new(RamCom::default()) as Box<dyn OnlineMatcher>,
        || Box::new(DemCom::with_pickup_cap(1.0)) as Box<dyn OnlineMatcher>,
    ] {
        // Collector off (the default for this thread).
        let mut m = make();
        let off = run_online(&inst, m.as_mut(), 7);
        assert!(off.telemetry.is_none());

        // Collector on.
        obs::install();
        let mut m = make();
        let on = run_online(&inst, m.as_mut(), 7);
        obs::uninstall();

        assert_eq!(
            off.total_revenue().to_bits(),
            on.total_revenue().to_bits(),
            "{}: revenue changed under instrumentation",
            off.algorithm
        );
        assert_eq!(kinds(&off), kinds(&on), "{}", off.algorithm);
        assert_eq!(payments(&off), payments(&on), "{}", off.algorithm);
        // peak_memory_bytes is deliberately not compared: HashMap
        // capacities vary a few words between runs (per-instance random
        // hash state), with or without a collector installed.

        // And the instrumented run carries a meaningful report.
        let t = on.telemetry.expect("collector installed");
        assert_eq!(t.algorithm, on.algorithm);
        let decision = t.phase(obs::PHASE_DECISION).expect("decision phase");
        assert_eq!(decision.count as usize, inst.request_count());
        assert!(decision.max_ns >= decision.p50_ns);
    }
}

#[test]
fn telemetry_counters_track_the_pricing_work() {
    let inst = instance();
    obs::install();
    let run = run_online(&inst, &mut DemCom::default(), 3);
    obs::uninstall();
    let t = run.telemetry.expect("collector installed");

    // Every priced request ran Lemma 1's 48 sampling instances.
    let estimates = t.counter("mc.estimates").unwrap_or(0);
    let samples = t.counter("mc.samples").unwrap_or(0);
    assert_eq!(
        samples,
        estimates * MonteCarloParams::default().instances() as u64
    );
    // The instances share one CDF lookup per (payment, worker); only the
    // draws are paid per instance.
    let lookups = t.counter("mc.cdf_lookups").unwrap_or(0);
    let draws = t.counter("mc.draws").unwrap_or(0);
    assert!(lookups > 0, "mc.cdf_lookups missing");
    assert!(draws > 0, "mc.draws missing");

    // The grid answered every candidate query.
    assert!(t.counter("grid.cells_scanned").unwrap_or(0) > 0);
    // Occupancy gauges were sampled.
    assert!(t.gauge("world.idle_workers").is_some());

    // RamCOM's maximiser reports how often the margin bound ended a call
    // before its candidates ran out: useful work ÷ attempts, no profiler.
    obs::install();
    let run = run_online(&inst, &mut RamCom::default(), 3);
    obs::uninstall();
    let t = run.telemetry.expect("collector installed");
    let merges = t.counter("pricing.breakpoint_merges").unwrap_or(0);
    let exits = t.counter("pricing.margin_exits").unwrap_or(0);
    assert!(exits > 0, "pricing.margin_exits missing");
    assert!(exits <= merges, "{exits} margin exits in {merges} merges");
    assert!(t.counter("pricing.candidates_evaluated").unwrap_or(0) >= merges);

    // Candidate search splits into the workers its ring scanned and the
    // ones whose range covered the request: the gap is what the coverage
    // test discarded.
    let candidates = t.counter("grid.candidates").unwrap_or(0);
    let scanned = t.counter("grid.entries_scanned").unwrap_or(0);
    assert!(
        0 < candidates && candidates <= scanned,
        "{candidates} candidates of {scanned} entries scanned"
    );
}

#[test]
fn trace_file_is_valid_jsonl() {
    let dir = std::env::temp_dir().join("com-obs-integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("trace-{}.jsonl", std::process::id()));

    let inst = generate(&synthetic(SyntheticParams {
        n_requests: 50,
        n_workers: 30,
        seed: 5,
        ..Default::default()
    }));
    obs::install_with_trace(&path).unwrap();
    let run = run_online(&inst, &mut DemCom::default(), 11);
    obs::uninstall();
    assert!(run.telemetry.is_some());

    let text = std::fs::read_to_string(&path).unwrap();
    let mut spans = 0usize;
    for line in text.lines() {
        let v: serde_json::Value = serde_json::from_str(line).expect("valid JSON per line");
        let _ = v;
        assert!(line.contains("\"type\":\"span\""));
        spans += 1;
    }
    // At least one decision span per request reached the sink.
    assert!(spans >= inst.request_count());
    let _ = std::fs::remove_file(&path);
}
