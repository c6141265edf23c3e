//! The PR-3 oracle: every built-in algorithm, over both service models
//! and several seeds, must leave the always-on auditor silent — the
//! fallible engine refuses nothing (`failures` empty) and the post-run
//! re-derivation of every paper invariant ([`com::prelude::validate_run`])
//! returns no findings. This is the whole-surface soundness net: any
//! future matcher change that emits a busy worker, an out-of-range
//! pairing, or an out-of-bounds payment trips it immediately.

use com::prelude::*;

/// A Table IV-style synthetic city, optionally flipped to the one-shot
/// service model so both audit replay paths (occupancy intervals and the
/// bipartite cross-check) get exercised.
fn oracle_instance(one_shot: bool) -> Instance {
    let mut scenario = synthetic(SyntheticParams {
        n_requests: 240,
        n_workers: 60,
        ..Default::default()
    });
    if one_shot {
        scenario.service = ServiceModel::one_shot();
    }
    generate(&scenario)
}

#[test]
fn every_builtin_matcher_passes_the_auditor() {
    for one_shot in [false, true] {
        let instance = oracle_instance(one_shot);
        for spec in MatcherSpec::all_builtin() {
            for seed in [1_u64, 7, 42] {
                let mut matcher = spec.build();
                let run = try_run_online(&instance, matcher.as_mut(), seed);
                assert!(
                    run.failures.is_empty(),
                    "{spec} seed={seed} one_shot={one_shot}: engine refused {} decision(s), first: {}",
                    run.failures.len(),
                    run.failures[0].violation,
                );
                let findings = validate_run(&instance, &run);
                assert!(
                    findings.is_empty(),
                    "{spec} seed={seed} one_shot={one_shot}: auditor found {} problem(s), first: {}",
                    findings.len(),
                    findings[0],
                );
            }
        }
    }
}
