//! What a run produces: named metrics with units, per-phase operation
//! counts, named failures — and how they are printed and stored.

use std::collections::BTreeMap;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::spec::{END_TO_END, LATENCY_LIMIT_US, PER_LAYER};

/// Operations attempted and failed in one phase of one workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseOps {
    pub phase: String,
    pub ops_attempted: u64,
    pub ops_failed: u64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricValue {
    pub value: f64,
    pub unit: String,
}

/// Everything measured for one workload in one run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadResult {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub correct: bool,
    pub end_to_end: BTreeMap<String, MetricValue>,
    /// Empty unless `trace`.
    pub per_layer: BTreeMap<String, MetricValue>,
    /// Measured in every run but too unsteady on a shared host to carry a
    /// bound: `teardown_s` and the latencies (`lat_p50_us`, windowed
    /// `lat_p95_us` / `lat_p99_us`). The latency limit is checked against
    /// `lat_p99_us` here.
    pub info: BTreeMap<String, MetricValue>,
    /// How many samples sit behind the percentiles (`lat_requests`,
    /// `served_passes`, …).
    pub samples: BTreeMap<String, u64>,
    pub phases: Vec<PhaseOps>,
    /// Every correctness failure, by name. Empty when `correct`.
    pub failures: Vec<String>,
    pub wall_s: f64,
}

impl WorkloadResult {
    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.ops_attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.ops_failed).sum()
    }
}

/// Where and on what the numbers were taken. Every result file carries
/// one, so two files are never compared without seeing their hosts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Host {
    /// `std::thread::available_parallelism` (what `nproc` prints).
    pub host_cores: u64,
    pub cpu_model: String,
    /// `git rev-parse HEAD` of the checkout, or "unknown" outside git.
    pub commit: String,
    pub rustc: String,
    /// Most threads the harness itself ever runs at once (open-loop
    /// sender + receiver).
    pub harness_threads: u64,
    /// The CPU the harness pinned itself and (checked per spawn) every
    /// daemon to; see `affinity`. Empty = nothing pinned.
    pub pinned_cpus: Vec<usize>,
    /// True when the host has fewer than two cores: the benchmark then
    /// shares its one core with everything else on the machine, and every
    /// number in the file is suspect.
    pub oversubscribed: bool,
}

impl Host {
    pub fn detect() -> Host {
        let host_cores = std::thread::available_parallelism()
            .map(|n| n.get() as u64)
            .unwrap_or(1);
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|s| s.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let tool = |cmd: &str, args: &[&str]| {
            std::process::Command::new(cmd)
                .args(args)
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| "unknown".into())
        };
        Host {
            host_cores,
            cpu_model,
            commit: tool("git", &["rev-parse", "HEAD"]),
            rustc: tool("rustc", &["-V"]),
            harness_threads: 2,
            pinned_cpus: Vec::new(),
            oversubscribed: host_cores < 2,
        }
    }
}

/// One invocation's output file (`benchmark/out/results.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResultsFile {
    pub host: Host,
    pub results: Vec<WorkloadResult>,
    pub summary: Summary,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Summary {
    pub workloads: u64,
    pub correct: bool,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    /// Open-loop workloads whose windowed p99 latency exceeded the limit.
    pub over_latency_limit: Vec<String>,
    pub wall_s: f64,
    /// This benchmark measures; it never claims a gain. Always `null`.
    pub claim: Option<String>,
}

impl ResultsFile {
    pub fn new(host: Host, results: Vec<WorkloadResult>, wall_s: f64) -> ResultsFile {
        let over_latency_limit = results
            .iter()
            .filter(|r| {
                r.info
                    .get("lat_p99_us")
                    .is_some_and(|m| r.workload != "fed_pair" && m.value > LATENCY_LIMIT_US)
            })
            .map(|r| r.workload.clone())
            .collect();
        let summary = Summary {
            workloads: results.len() as u64,
            correct: results.iter().all(|r| r.correct),
            ops_attempted: results.iter().map(|r| r.attempted()).sum(),
            ops_failed: results.iter().map(|r| r.failed()).sum(),
            over_latency_limit,
            wall_s,
            claim: None,
        };
        ResultsFile {
            host,
            results,
            summary,
        }
    }

    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let text = serde_json::to_string_pretty(self).map_err(std::io::Error::other)?;
        std::fs::write(path, text + "\n")
    }

    pub fn read(path: &Path) -> Result<ResultsFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// `(name, unit)` of every declared metric, end-to-end first.
fn declared_names() -> impl Iterator<Item = (&'static str, &'static str)> {
    END_TO_END
        .iter()
        .map(|e| (e.name, e.unit))
        .chain(PER_LAYER.iter().copied())
}

/// Collects one workload's numbers while it runs and checks at the end
/// that exactly the declared names were produced.
#[derive(Default)]
pub struct Collector {
    values: BTreeMap<&'static str, f64>,
    pub info: BTreeMap<String, MetricValue>,
    pub samples: BTreeMap<String, u64>,
}

impl Collector {
    /// Record a declared metric. Panics on an undeclared name — a typo
    /// here would otherwise surface as a silently missing metric.
    pub fn set(&mut self, name: &str, value: f64) {
        let declared = declared_names()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared in spec.rs"));
        self.values.insert(declared.0, value);
    }

    /// Record an informational value (printed and stored, never bounded).
    pub fn note(&mut self, name: &str, value: f64, unit: &str) {
        self.info.insert(
            name.to_string(),
            MetricValue {
                value,
                unit: unit.to_string(),
            },
        );
    }

    pub fn sample_count(&mut self, name: &str, n: usize) {
        self.samples.insert(name.to_string(), n as u64);
    }

    /// The declared metrics of one list, each with its unit. A metric
    /// that `required` names and nothing measured is a harness bug and is
    /// named in `missing`; the others read 0 (a layer the workload never
    /// exercises, see [`crate::spec::Workload::measures`]).
    pub fn finish(
        &self,
        list: impl Iterator<Item = (&'static str, &'static str)>,
        required: impl Fn(&str) -> bool,
        missing: &mut Vec<String>,
    ) -> BTreeMap<String, MetricValue> {
        list.map(|(name, unit)| {
            let value = self.values.get(name).copied().unwrap_or_else(|| {
                if required(name) {
                    missing.push(format!("metric {name} was not measured"));
                }
                0.0
            });
            (
                name.to_string(),
                MetricValue {
                    value,
                    unit: unit.to_string(),
                },
            )
        })
        .collect()
    }
}

/// Human-readable block for one workload: every metric by name with its
/// unit, the sample counts, and the per-phase operation counts.
pub fn print_workload(r: &WorkloadResult) {
    println!(
        "== {} (seed {}, {} s{}{}) — {} in {:.1} s",
        r.workload,
        r.seed,
        r.seconds,
        if r.trace { ", traced" } else { "" },
        if r.smoke { ", smoke" } else { "" },
        if r.correct { "correct" } else { "INCORRECT" },
        r.wall_s,
    );
    for name in END_TO_END.map(|e| e.name) {
        if let Some(m) = r.end_to_end.get(name) {
            println!("  {name:<34} {:>16.4} {}", m.value, m.unit);
        }
    }
    for (name, m) in &r.info {
        println!("  info.{name:<29} {:>16.4} {}", m.value, m.unit);
    }
    if r.trace {
        for (name, _) in PER_LAYER {
            if let Some(m) = r.per_layer.get(name) {
                println!("  {name:<34} {:>16.4} {}", m.value, m.unit);
            }
        }
    }
    for (name, n) in &r.samples {
        println!("  samples.{name:<26} {n:>16}");
    }
    for p in &r.phases {
        println!(
            "  phase {:<12} ops_attempted {:>9}  ops_failed {:>9}",
            p.phase, p.ops_attempted, p.ops_failed
        );
    }
    for f in &r.failures {
        println!("  FAILURE: {f}");
    }
}

/// The contract's machine-readable last line for a single-workload run:
/// `correct`, `attempted`, `failed`, and the end-to-end metrics (untraced)
/// or the per-layer metrics (traced).
pub fn contract_line(r: &WorkloadResult) -> String {
    let metrics = if r.trace { &r.per_layer } else { &r.end_to_end };
    serde_json::json!({
        "correct": r.correct,
        "attempted": r.attempted().max(1),
        "failed": r.failed(),
        "metrics": metrics,
    })
    .to_string()
}
