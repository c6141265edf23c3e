//! Per-run telemetry report: what [`crate::end_run`] hands back to the
//! engine for attachment to its `RunResult`.

use crate::histogram::Histogram;

/// Latency summary of one instrumented phase within a run.
///
/// The summary fields (`mean_ns`, `p50_ns`, …) are snapshots of `hist` at
/// report time; the histogram itself rides along so reports can be merged
/// without losing distribution information (see [`RunTelemetry::merged`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStats {
    pub phase: String,
    /// Number of spans recorded.
    pub count: u64,
    /// Exact running mean duration in nanoseconds.
    pub mean_ns: f64,
    /// Median, bucket-quantized (<= ~6% relative error).
    pub p50_ns: u64,
    pub p90_ns: u64,
    pub p99_ns: u64,
    /// Exact maximum duration.
    pub max_ns: u64,
    /// Exact sum of all span durations.
    pub total_ns: u128,
    /// The full log-bucketed latency distribution behind the summary
    /// fields. Merging reports folds these bucket-by-bucket, so merged
    /// percentiles carry the same ~6% bucket-quantization error as
    /// per-run ones — no extra approximation.
    pub(crate) hist: Histogram,
}

impl PhaseStats {
    /// Build a phase summary from its histogram (the only constructor —
    /// keeps the summary fields consistent with the distribution).
    pub fn from_histogram(phase: impl Into<String>, hist: Histogram) -> Self {
        PhaseStats {
            phase: phase.into(),
            count: hist.count(),
            mean_ns: hist.mean(),
            p50_ns: hist.p50(),
            p90_ns: hist.p90(),
            p99_ns: hist.p99(),
            max_ns: hist.max(),
            total_ns: hist.total(),
            hist,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct CounterStat {
    pub name: String,
    pub value: u64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct GaugeStat {
    pub name: String,
    /// Most recently set value.
    pub last: f64,
    /// Maximum value observed during the run.
    pub max: f64,
}

/// Everything the collector gathered over one engine run. Phase, counter,
/// and gauge lists are sorted by name so reports are deterministic.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunTelemetry {
    pub algorithm: String,
    pub phases: Vec<PhaseStats>,
    pub counters: Vec<CounterStat>,
    pub gauges: Vec<GaugeStat>,
}

impl RunTelemetry {
    pub fn phase(&self, name: &str) -> Option<&PhaseStats> {
        self.phases.iter().find(|p| p.phase == name)
    }

    /// Merge several per-run (or per-thread) reports into one, labelled
    /// `algorithm`. Used by the parallel sweep runner to fold the
    /// collectors its worker threads filled into a single report.
    ///
    /// Counters sum exactly and gauges keep the max-of-max (with the last
    /// report's `last`). Phases merge their underlying log-bucketed
    /// histograms bucket-by-bucket, so the merged `p50/p90/p99` are the
    /// true quantiles of the combined distribution (same ~6%
    /// bucket-quantization error as any single report), and
    /// `count`/`mean_ns`/`max_ns`/`total_ns` are exact.
    ///
    /// The fold visits `reports` in slice order, so merging is
    /// deterministic when callers order reports deterministically (the
    /// sweep runner orders them by job index, independent of scheduling).
    pub fn merged(algorithm: &str, reports: &[RunTelemetry]) -> RunTelemetry {
        let mut out = RunTelemetry {
            algorithm: algorithm.to_string(),
            ..RunTelemetry::default()
        };
        // Phase histograms are folded first; summary fields are derived
        // once from the merged distributions below.
        let mut hists: Vec<(String, Histogram)> = Vec::new();
        for report in reports {
            for p in &report.phases {
                match hists.iter_mut().find(|(name, _)| *name == p.phase) {
                    Some((_, h)) => h.merge(&p.hist),
                    None => hists.push((p.phase.clone(), p.hist.clone())),
                }
            }
            for c in &report.counters {
                match out.counters.iter_mut().find(|d| d.name == c.name) {
                    Some(d) => d.value += c.value,
                    None => out.counters.push(c.clone()),
                }
            }
            for g in &report.gauges {
                match out.gauges.iter_mut().find(|h| h.name == g.name) {
                    Some(h) => {
                        h.last = g.last;
                        h.max = h.max.max(g.max);
                    }
                    None => out.gauges.push(g.clone()),
                }
            }
        }
        out.phases = hists
            .into_iter()
            .map(|(phase, h)| PhaseStats::from_histogram(phase, h))
            .collect();
        out.phases.sort_by(|a, b| a.phase.cmp(&b.phase));
        out.counters.sort_by(|a, b| a.name.cmp(&b.name));
        out.gauges.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    pub fn gauge(&self, name: &str) -> Option<&GaugeStat> {
        self.gauges.iter().find(|g| g.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase_from_samples(name: &str, samples: &[u64]) -> PhaseStats {
        let mut h = Histogram::new();
        for &s in samples {
            h.record(s);
        }
        PhaseStats::from_histogram(name, h)
    }

    #[test]
    fn merged_sums_counters_and_folds_phases() {
        let a = RunTelemetry {
            algorithm: "A".into(),
            phases: vec![phase_from_samples("decision", &[100, 100, 100, 100])],
            counters: vec![CounterStat {
                name: "grid.cells_scanned".into(),
                value: 10,
            }],
            gauges: vec![GaugeStat {
                name: "world.approx_bytes".into(),
                last: 5.0,
                max: 9.0,
            }],
        };
        let b = RunTelemetry {
            algorithm: "B".into(),
            phases: vec![
                phase_from_samples("decision", &[200, 200, 200, 200, 200, 200]),
                phase_from_samples("pricing", &[10, 10]),
            ],
            counters: vec![
                CounterStat {
                    name: "grid.cells_scanned".into(),
                    value: 5,
                },
                CounterStat {
                    name: "mc.samples".into(),
                    value: 7,
                },
            ],
            gauges: vec![GaugeStat {
                name: "world.approx_bytes".into(),
                last: 3.0,
                max: 4.0,
            }],
        };
        let m = RunTelemetry::merged("merged", &[a, b]);
        assert_eq!(m.algorithm, "merged");
        let d = m.phase("decision").unwrap();
        assert_eq!(d.count, 10);
        assert_eq!(d.total_ns, 1600);
        assert_eq!(d.max_ns, 200);
        assert!((d.mean_ns - 160.0).abs() < 1e-9);
        assert_eq!(m.phase("pricing").unwrap().count, 2);
        assert_eq!(m.counter("grid.cells_scanned"), Some(15));
        assert_eq!(m.counter("mc.samples"), Some(7));
        let g = m.gauge("world.approx_bytes").unwrap();
        assert_eq!(g.max, 9.0);
        assert_eq!(g.last, 3.0);
    }

    #[test]
    fn merged_of_empty_is_empty() {
        let m = RunTelemetry::merged("none", &[]);
        assert!(m.phases.is_empty() && m.counters.is_empty() && m.gauges.is_empty());
    }

    /// The historic count-weighted-percentile approximation could be off
    /// by an unbounded factor on skewed inputs (e.g. one thread all-fast,
    /// one all-slow); bucket merging reports the true combined quantile.
    #[test]
    fn merged_percentiles_are_true_quantiles_of_the_union() {
        // 90 fast samples in one report, 10 slow in the other. The true
        // p50 of the union is fast; the old count-weighted mean of the
        // two p50s would have been ~0.1 * slow ≈ 100x too large.
        let fast: Vec<u64> = vec![1_000; 90];
        let slow: Vec<u64> = vec![1_000_000; 10];
        let a = RunTelemetry {
            algorithm: "a".into(),
            phases: vec![phase_from_samples("decision", &fast)],
            ..RunTelemetry::default()
        };
        let b = RunTelemetry {
            algorithm: "b".into(),
            phases: vec![phase_from_samples("decision", &slow)],
            ..RunTelemetry::default()
        };
        let m = RunTelemetry::merged("m", &[a, b]);
        let d = m.phase("decision").unwrap();

        // Reference: one histogram fed the combined stream.
        let mut both = Histogram::new();
        for s in fast.iter().chain(slow.iter()) {
            both.record(*s);
        }
        assert_eq!(d.p50_ns, both.p50());
        assert_eq!(d.p90_ns, both.p90());
        assert_eq!(d.p99_ns, both.p99());
        assert_eq!(d.hist, both);
        // Sanity: p50 stays in the fast cluster, p99 reaches the slow one.
        assert!(d.p50_ns < 2_000, "p50 {} should be fast", d.p50_ns);
        assert!(d.p99_ns > 500_000, "p99 {} should be slow", d.p99_ns);
    }
}
