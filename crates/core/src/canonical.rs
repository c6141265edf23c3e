//! The canonical projection of a run — the bytes every serving mode is
//! compared on.

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
pub struct Fnv1a64(u64);

impl Default for Fnv1a64 {
    fn default() -> Self {
        Fnv1a64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a64 {
    /// Hash `bytes` after everything hashed so far.
    pub fn update(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest of everything hashed so far, as every run digest is
    /// rendered: `"fnv1a64:<16 hex digits>"`.
    pub fn digest(&self) -> String {
        format!("fnv1a64:{:016x}", self.0)
    }
}

impl std::fmt::Write for Fnv1a64 {
    fn write_str(&mut self, text: &str) -> std::fmt::Result {
        self.update(text.as_bytes());
        Ok(())
    }
}

/// [`fnv1a64`] digest of an already-built [`canonical_run_json`] tree,
/// rendered as `"fnv1a64:<16 hex digits>"`.
pub fn canonical_digest(canonical: &serde_json::Value) -> String {
    // `Display` renders `serde_json::to_string`'s bytes from a borrow
    // (`to_string` deep-clones the tree first), hashed as they are
    // written: a `city` run is ≈ 29 MB of text, and a second exact-size
    // copy of it (`canonical.to_string()`) is not harmless — CHANGES.md,
    // PR 17.
    use std::fmt::Write as _;
    let mut hash = Fnv1a64::default();
    write!(hash, "{canonical}").expect("hashing never fails");
    hash.digest()
}

/// [`canonical_digest`] of `run`'s canonical JSON; used by session traces
/// to fingerprint the final [`RunResult`] so a replay can assert it
/// reproduced the whole run, not just each individual decision. The
/// reference definition: `com_serve` hashes the same text as it renders
/// it, without the tree.
pub fn canonical_run_digest(run: &RunResult) -> String {
    canonical_digest(&canonical_run_json(run))
}
