//! Bit-identity lock for the `MatchSession` refactor: the batch wrappers
//! (`run_online`/`try_run_online`, now thin loops over a session) and a
//! manually-fed incremental session must produce byte-identical
//! `canonical_run_json` for every builtin matcher spec — the projection
//! that captures every decision and payment while excluding wall-clock
//! fields and telemetry.
//!
//! The wrappers were verified unchanged against the pre-refactor test
//! suite when the session landed; this test pins wrapper ≡ session from
//! here on, so future session changes cannot silently fork the two
//! replay paths.

use com_core::canonical_run_json;
use com_core::{run_online, try_run_online, MatchSession, MatcherSpec, RunResult, SessionConfig};
use com_datagen::generate;
use com_datagen::profiles::{synthetic, SyntheticParams};
use com_sim::Instance;

fn canon(run: &RunResult) -> String {
    serde_json::to_string(&canonical_run_json(run)).expect("serialise canonical run")
}

fn instance() -> Instance {
    generate(&synthetic(SyntheticParams {
        n_requests: 300,
        n_workers: 80,
        ..SyntheticParams::default()
    }))
}

#[test]
fn wrappers_and_manual_sessions_are_bit_identical_for_all_builtins() {
    let instance = instance();
    for spec in MatcherSpec::all_builtin() {
        for seed in [7u64, 1234] {
            let strict = run_online(&instance, spec.build().as_mut(), seed);
            let lenient = try_run_online(&instance, spec.build().as_mut(), seed);

            let mut session = MatchSession::for_instance(&instance, spec.build(), seed);
            for event in instance.stream.iter() {
                session
                    .ingest(event)
                    .expect("generated streams are in order");
            }
            let manual = session.finish();

            let label = format!("{} seed {}", spec.canonical(), seed);
            assert_eq!(
                canon(&strict),
                canon(&lenient),
                "strict vs lenient: {label}"
            );
            assert_eq!(
                canon(&strict),
                canon(&manual),
                "wrapper vs session: {label}"
            );
            assert!(
                manual.failures.is_empty(),
                "builtin matchers never get refused: {label}"
            );
        }
    }
}

#[test]
fn live_sessions_decide_identically_without_preregistration() {
    // `MatchSession::new` registers workers at their arrival events
    // instead of up front; decisions (and therefore the canonical run)
    // must not change — only memory accounting may. Histories are staged
    // per worker, as the serving layer stages them.
    let instance = instance();
    let config = SessionConfig {
        world: instance.config.clone(),
        platform_names: instance.platform_names.clone(),
        max_value_hint: instance.max_value(),
    };
    for spec in MatcherSpec::all_builtin() {
        let batch = try_run_online(&instance, spec.build().as_mut(), 99);

        let mut session = MatchSession::new(config.clone(), spec.build(), 99);
        for (&id, history) in &instance.histories {
            session.add_history(id, history.clone());
        }
        for event in instance.stream.iter() {
            session.ingest(event).expect("stream in order");
        }
        let live = session.finish();
        assert_eq!(
            canon(&batch),
            canon(&live),
            "live vs batch: {}",
            spec.canonical()
        );
    }
}
