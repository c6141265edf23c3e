//! The canonical projection of a run — the bytes every serving mode is
//! compared on.

use std::fmt::{self, Write};

use com_sim::Assignment;

use crate::engine::RunResult;

/// The deterministic projection of a run: everything the matcher decided
/// (assignments, payments, travel) plus derived revenue metrics,
/// excluding *all* telemetry — wall-clock measurements vary between
/// executions, and even deterministic counters only exist when a
/// collector happens to be installed, so including them would make run
/// identity depend on the observer (a batch run and a served run of the
/// same instance/matcher/seed must compare equal even though serving
/// always collects). Byte-identical across thread counts, runs, and
/// telemetry configurations.
pub fn canonical_run_json(run: &RunResult) -> serde_json::Value {
    let assignments: Vec<serde_json::Value> = run
        .assignments
        .iter()
        .map(canonical_assignment_json)
        .collect();
    serde_json::json!({
        "algorithm": run.algorithm,
        "assignments": assignments,
        "total_revenue": run.total_revenue(),
        "completed": run.completed(),
        "cooperative": run.cooperative_count(),
        "acceptance_ratio": run.acceptance_ratio(),
    })
}

/// The deterministic projection of one per-request record: everything the
/// matcher decided, excluding the wall-clock `decision_nanos`. This is
/// the unit of byte-exact decision comparison used by [`canonical_run_json`]
/// and by the serving layer's session traces (`matchd --record` /
/// `matchreplay`).
pub fn canonical_assignment_json(a: &Assignment) -> serde_json::Value {
    serde_json::json!({
        "request": a.request.id.0,
        "platform": a.request.platform.0,
        "kind": format!("{:?}", a.kind),
        "worker": a.worker.map(|w| w.0),
        "worker_platform": a.worker_platform.map(|p| p.0),
        "outer_payment": a.outer_payment,
        "was_cooperative_offer": a.was_cooperative_offer,
        "travel_km": a.travel_km,
        "decided_at": a.decided_at.as_secs(),
    })
}

/// 64-bit FNV-1a: dependency-free and stable across runs, builds and
/// platforms (unlike `std`'s randomized hasher). The one hash behind the
/// canonical run digest and `matchd`'s session→shard placement.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a64::default();
    hash.update(bytes);
    hash.0
}

/// [`fnv1a64`] fed in pieces: hashes text as it is written instead of
/// keeping it.
#[derive(Debug, Clone, Copy)]
struct Fnv1a64(u64);

impl Default for Fnv1a64 {
    fn default() -> Self {
        Fnv1a64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a64 {
    /// Hash `bytes` after everything hashed so far.
    fn update(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest of everything hashed so far, as every run digest is
    /// rendered: `"fnv1a64:<16 hex digits>"`.
    fn digest(&self) -> String {
        format!("fnv1a64:{:016x}", self.0)
    }
}

impl Write for Fnv1a64 {
    fn write_str(&mut self, text: &str) -> fmt::Result {
        self.update(text.as_bytes());
        Ok(())
    }
}

/// [`fnv1a64`] digest of an already-built [`canonical_run_json`] tree,
/// rendered as `"fnv1a64:<16 hex digits>"`.
pub fn canonical_digest(canonical: &serde_json::Value) -> String {
    let mut hash = Fnv1a64::default();
    write!(hash, "{canonical}").expect("hashing never fails");
    hash.digest()
}

/// [`canonical_digest`] of `run`'s canonical JSON, hashed as the text is
/// rendered straight from the run: no tree, no copy of the text. Session
/// traces and every `bye` carry it, so a replay or a client can check that
/// it reproduced the whole run, not just each individual decision.
pub fn canonical_run_digest(run: &RunResult) -> String {
    let mut hash = Fnv1a64::default();
    write_canonical_run(&mut hash, run).expect("hashing never fails");
    hash.digest()
}

/// The compact text of `canonical_run_json(run)` — the same keys in the
/// same order, numbers and strings rendered as `serde_json` renders them.
fn write_canonical_run(out: &mut impl Write, run: &RunResult) -> fmt::Result {
    let algorithm = serde_json::to_string(&run.algorithm).expect("a string always serializes");
    write!(out, "{{\"algorithm\":{algorithm},\"assignments\":[")?;
    for (i, a) in run.assignments.iter().enumerate() {
        if i > 0 {
            out.write_char(',')?;
        }
        write!(
            out,
            "{{\"request\":{},\"platform\":{},\"kind\":\"{:?}\",\"worker\":",
            a.request.id.0, a.request.platform.0, a.kind
        )?;
        write_opt(out, a.worker.map(|w| w.0))?;
        out.write_str(",\"worker_platform\":")?;
        write_opt(out, a.worker_platform.map(|p| p.0.into()))?;
        out.write_str(",\"outer_payment\":")?;
        write_f64(out, a.outer_payment)?;
        write!(
            out,
            ",\"was_cooperative_offer\":{},\"travel_km\":",
            a.was_cooperative_offer
        )?;
        write_f64(out, a.travel_km)?;
        out.write_str(",\"decided_at\":")?;
        write_f64(out, a.decided_at.as_secs())?;
        out.write_char('}')?;
    }
    out.write_str("],\"total_revenue\":")?;
    write_f64(out, run.total_revenue())?;
    write!(
        out,
        ",\"completed\":{},\"cooperative\":{},\"acceptance_ratio\":",
        run.completed(),
        run.cooperative_count()
    )?;
    match run.acceptance_ratio() {
        Some(ratio) => write_f64(out, ratio)?,
        None => out.write_str("null")?,
    }
    out.write_char('}')
}

/// `serde_json`'s float: shortest round trip, non-finite as `null`.
fn write_f64(out: &mut impl Write, v: f64) -> fmt::Result {
    if v.is_finite() {
        write!(out, "{v:?}")
    } else {
        out.write_str("null")
    }
}

fn write_opt(out: &mut impl Write, v: Option<u64>) -> fmt::Result {
    match v {
        Some(v) => write!(out, "{v}"),
        None => out.write_str("null"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_online, MatcherSpec};

    /// The streamed text is the reference tree's, byte for byte: for every
    /// builtin matcher, with no assignments at all, with a name that needs
    /// escaping, and with non-finite floats.
    #[test]
    fn the_streamed_text_is_the_tree_text() {
        let instance = com_datagen::generate(&com_datagen::profiles::quick());
        let mut runs: Vec<RunResult> = MatcherSpec::all_builtin()
            .iter()
            .map(|spec| run_online(&instance, spec.build().as_mut(), 7))
            .collect();
        let mut odd = runs[0].clone();
        odd.algorithm = "Dem\"COM\\ naïve\n\u{1}".into();
        odd.assignments[0].outer_payment = f64::NAN;
        odd.assignments[1].travel_km = f64::INFINITY;
        let mut empty = odd.clone();
        empty.assignments.clear();
        runs.extend([odd, empty]);
        for run in &runs {
            let mut text = String::new();
            write_canonical_run(&mut text, run).unwrap();
            assert_eq!(
                text,
                canonical_run_json(run).to_string(),
                "{}",
                run.algorithm
            );
            let tree_digest = canonical_digest(&canonical_run_json(run));
            assert_eq!(canonical_run_digest(run), tree_digest);
        }
    }
}
