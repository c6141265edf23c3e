//! Deterministic parallel sweep runner.
//!
//! Every paper artefact replays an (instance × matcher × seed) grid, and
//! the grid is embarrassingly parallel: each cell builds a fresh matcher
//! from its [`MatcherSpec`] and seeds its own `StdRng` from the cell's
//! explicit seed, so no state crosses cells. [`SweepRunner`] fans such
//! grids across `std::thread::scope` workers (no external dependencies)
//! while guaranteeing **bit-identical results to serial execution**
//! regardless of thread count or scheduling:
//!
//! * every job's RNG seed is a function of the (cell, seed) pair alone,
//!   never of the executing thread or of execution order;
//! * jobs pull from an atomic queue but results are re-ordered by job
//!   index before being returned, so downstream aggregation (float
//!   accumulation included) folds in exactly the serial order;
//! * telemetry uses per-thread `com-obs` collectors (installed by the
//!   runner in each worker when [`SweepRunner::with_telemetry`] is on)
//!   and each run's report rides on its `RunResult`; cross-run summaries
//!   merge those reports in job order via [`RunTelemetry::merged`]
//!   instead of relying on a single globally installed collector.
//!
//! Wall-clock fields (`decision_nanos`, response-time metrics) are
//! measured, not simulated, and therefore differ between any two runs —
//! serial or parallel. [`canonical_run_json`] projects a `RunResult`
//! onto its deterministic content (assignments, revenue, telemetry
//! counters) for byte-exact comparison across thread counts.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use com_core::{run_online, Instance, MatcherSpec, RunResult};
// The canonical projection lives in `com-core` (the serving crates need it
// without the experiment harness); re-exported here for existing imports.
pub use com_core::{canonical_assignment_json, canonical_run_digest, canonical_run_json, fnv1a64};
use com_obs::RunTelemetry;

/// A job that panicked inside [`SweepRunner::try_map`]: which cell, and
/// the panic payload (when it was a string).
#[derive(Debug, Clone, PartialEq)]
pub struct CellPanic {
    /// Job index in the submitted order.
    pub index: usize,
    /// The panic message, or `"<non-string panic payload>"`.
    pub message: String,
}

impl std::fmt::Display for CellPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cell {} panicked: {}", self.index, self.message)
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Fans jobs across scoped worker threads, preserving job order in the
/// returned results. `threads == 1` runs everything on the calling
/// thread (the old serial behaviour).
#[derive(Debug, Clone, Copy)]
pub struct SweepRunner {
    threads: usize,
    collect_telemetry: bool,
}

impl Default for SweepRunner {
    fn default() -> Self {
        SweepRunner::all_cores()
    }
}

impl SweepRunner {
    /// A runner with an explicit worker count; `0` means "all cores"
    /// (`std::thread::available_parallelism`).
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            threads
        };
        SweepRunner {
            threads,
            collect_telemetry: false,
        }
    }

    /// The old single-threaded behaviour.
    pub fn serial() -> Self {
        SweepRunner::new(1)
    }

    /// One worker per available core.
    pub fn all_cores() -> Self {
        SweepRunner::new(0)
    }

    /// Install a fresh `com-obs` collector around each worker's job loop
    /// (and around the serial loop), so every `RunResult` carries its
    /// `RunTelemetry` even though collectors are thread-local.
    pub fn with_telemetry(mut self, on: bool) -> Self {
        self.collect_telemetry = on;
        self
    }

    /// Resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `f` over every job, in parallel, returning results in job
    /// order. `f` receives the job's index and the job itself; it must
    /// derive any randomness from the job alone (not from shared state)
    /// for the thread-count invariance guarantee to hold.
    ///
    /// A panicking job aborts the whole sweep (re-raised on the calling
    /// thread with the cell index attached); use
    /// [`SweepRunner::try_map`] to isolate poisoned cells instead.
    pub fn map<T, R, F>(&self, jobs: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Send + Sync,
    {
        self.try_map(jobs, f)
            .into_iter()
            .map(|r| match r {
                Ok(v) => v,
                Err(p) => panic!("sweep {p}"),
            })
            .collect()
    }

    /// Like [`SweepRunner::map`], but each cell runs under
    /// `catch_unwind`: a panicking job yields `Err(CellPanic)` for its
    /// slot while every other cell completes normally — with results
    /// still bit-identical to a serial execution of the surviving cells.
    pub fn try_map<T, R, F>(&self, jobs: Vec<T>, f: F) -> Vec<Result<R, CellPanic>>
    where
        T: Send + Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Send + Sync,
    {
        let guarded = |i: usize, job: &T| {
            std::panic::catch_unwind(AssertUnwindSafe(|| f(i, job))).map_err(|payload| CellPanic {
                index: i,
                message: panic_message(payload),
            })
        };

        let n = jobs.len();
        let threads = self.threads.min(n).max(1);
        // Telemetry policy must not depend on the thread count (the
        // canonical projection of a run includes its telemetry
        // counters): when this runner collects, OR an outer collector is
        // already active on the calling thread, every execution path
        // attaches telemetry — the serial loop reuses the outer
        // collector when present, and each parallel worker installs a
        // fresh thread-local one.
        let effective_collect = self.collect_telemetry || com_obs::is_active();
        if threads == 1 {
            let install = effective_collect && !com_obs::is_active();
            if install {
                com_obs::install();
            }
            let out = jobs
                .iter()
                .enumerate()
                .map(|(i, job)| guarded(i, job))
                .collect();
            if install {
                com_obs::uninstall();
            }
            return out;
        }

        let next = AtomicUsize::new(0);
        let jobs = &jobs;
        let guarded = &guarded;
        let mut indexed: Vec<(usize, Result<R, CellPanic>)> = thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn({
                        let next = &next;
                        move || {
                            if effective_collect {
                                com_obs::install();
                            }
                            let mut out = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= n {
                                    break;
                                }
                                out.push((i, guarded(i, &jobs[i])));
                            }
                            if effective_collect {
                                com_obs::uninstall();
                            }
                            out
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("sweep worker panicked"))
                .collect()
        });
        indexed.sort_by_key(|(i, _)| *i);
        indexed.into_iter().map(|(_, r)| r).collect()
    }
}

/// Replay the full (matcher × seed) grid on one instance, in spec-major
/// order (`specs[0]` × every seed, then `specs[1]` × every seed, …).
/// Each cell builds a fresh matcher from its spec and seeds its RNG from
/// the cell's own seed, so the output is independent of thread count.
///
/// Every cell is a strict [`run_online`], so it audits itself; an
/// unsound cell aborts the sweep through [`SweepRunner::map`].
pub fn run_grid(
    runner: &SweepRunner,
    instance: &Instance,
    specs: &[MatcherSpec],
    seeds: &[u64],
) -> Vec<RunResult> {
    let jobs: Vec<(MatcherSpec, u64)> = specs
        .iter()
        .flat_map(|spec| seeds.iter().map(move |&seed| (*spec, seed)))
        .collect();
    runner.map(jobs, |_, (spec, seed)| {
        run_online(instance, spec.build().as_mut(), *seed)
    })
}

/// Merge the telemetry reports of a slice of runs (in run order) into
/// one report labelled `label`. Runs without telemetry contribute
/// nothing; returns `None` when no run carried a report.
pub fn merged_telemetry(label: &str, runs: &[RunResult]) -> Option<RunTelemetry> {
    let reports: Vec<RunTelemetry> = runs.iter().filter_map(|r| r.telemetry.clone()).collect();
    if reports.is_empty() {
        return None;
    }
    Some(RunTelemetry::merged(label, &reports))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_job_order_across_thread_counts() {
        let jobs: Vec<usize> = (0..97).collect();
        let serial = SweepRunner::serial().map(jobs.clone(), |i, j| (i, j * 3));
        for threads in [2, 4, 7] {
            let parallel = SweepRunner::new(threads).map(jobs.clone(), |i, j| (i, j * 3));
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn zero_threads_means_all_cores() {
        assert!(SweepRunner::new(0).threads() >= 1);
        assert_eq!(SweepRunner::serial().threads(), 1);
    }

    #[test]
    fn empty_job_list_is_fine() {
        let out: Vec<u32> = SweepRunner::new(4).map(Vec::<u32>::new(), |_, j| *j);
        assert!(out.is_empty());
    }

    #[test]
    fn try_map_isolates_panicking_cells() {
        let jobs: Vec<usize> = (0..20).collect();
        let work = |_: usize, j: &usize| {
            if *j == 7 {
                panic!("poisoned cell {j}");
            }
            j * 3
        };
        let serial = SweepRunner::serial().try_map(jobs.clone(), work);
        for threads in [1, 4] {
            let out = SweepRunner::new(threads).try_map(jobs.clone(), work);
            assert_eq!(out.len(), 20);
            for (i, r) in out.iter().enumerate() {
                if i == 7 {
                    let p = r.as_ref().unwrap_err();
                    assert_eq!(p.index, 7);
                    assert!(p.message.contains("poisoned cell 7"), "{}", p.message);
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i * 3);
                }
            }
            assert_eq!(serial, out, "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "cell 2 panicked")]
    fn map_still_propagates_panics() {
        SweepRunner::new(4).map((0..8).collect::<Vec<usize>>(), |_, j| {
            if *j == 2 {
                panic!("boom");
            }
            *j
        });
    }

    #[test]
    fn nested_collector_policy_is_thread_count_invariant() {
        use com_datagen::{generate, synthetic, SyntheticParams};
        let instance = generate(&synthetic(SyntheticParams {
            n_requests: 40,
            n_workers: 15,
            ..Default::default()
        }));
        let specs = [MatcherSpec::Tota];
        let seeds = [1, 2, 3, 4];

        // Under an already-installed outer collector, telemetry must
        // attach identically at every thread count — for an explicitly
        // telemetry-enabled runner AND for a default one (which inherits
        // the outer collector's intent). Before unification the serial
        // path attached via the outer collector while parallel workers
        // ran bare, so canonical JSON differed by thread count.
        com_obs::install();
        for telemetry in [true, false] {
            let mut canonical = Vec::new();
            for threads in [1, 4] {
                let runner = SweepRunner::new(threads).with_telemetry(telemetry);
                let runs = run_grid(&runner, &instance, &specs, &seeds);
                for run in &runs {
                    assert!(
                        run.telemetry.is_some(),
                        "telemetry={telemetry} threads={threads}: report missing"
                    );
                }
                canonical.push(runs.iter().map(canonical_run_json).collect::<Vec<_>>());
            }
            assert_eq!(canonical[0], canonical[1], "telemetry={telemetry}");
        }
        com_obs::uninstall();

        // Without an outer collector a telemetry-off runner stays bare at
        // every thread count.
        for threads in [1, 4] {
            let runner = SweepRunner::new(threads).with_telemetry(false);
            let runs = run_grid(&runner, &instance, &specs, &seeds);
            assert!(runs.iter().all(|r| r.telemetry.is_none()));
        }
    }

    #[test]
    fn telemetry_collection_attaches_reports_in_parallel() {
        use com_datagen::{generate, synthetic, SyntheticParams};
        let instance = generate(&synthetic(SyntheticParams {
            n_requests: 60,
            n_workers: 20,
            ..Default::default()
        }));
        let specs = [MatcherSpec::Tota, MatcherSpec::DemCom];
        let runner = SweepRunner::new(2).with_telemetry(true);
        let runs = run_grid(&runner, &instance, &specs, &[1, 2]);
        assert_eq!(runs.len(), 4);
        for run in &runs {
            let t = run
                .telemetry
                .as_ref()
                .expect("collector installed per worker");
            assert_eq!(t.algorithm, run.algorithm);
            assert!(t.phase(com_obs::PHASE_DECISION).is_some());
        }
        let merged = merged_telemetry("all", &runs).unwrap();
        let per_run: u64 = runs
            .iter()
            .map(|r| {
                r.telemetry
                    .as_ref()
                    .and_then(|t| t.phase(com_obs::PHASE_DECISION))
                    .map_or(0, |p| p.count)
            })
            .sum();
        assert_eq!(
            merged.phase(com_obs::PHASE_DECISION).unwrap().count,
            per_run
        );
    }
}
