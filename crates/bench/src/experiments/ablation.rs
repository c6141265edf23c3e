//! Ablation studies for the design choices Section III/IV leave open.
//!
//! * **DemCOM ξ sensitivity** — the Monte Carlo accuracy parameter trades
//!   response time against estimate quality (Lemma 1's `n_s` grows as
//!   `ln(2/ξ)`).
//! * **RamCOM pricing candidates** — exact CDF breakpoints vs the paper's
//!   `O(max v_r)` integer grid vs a coarse uniform grid.
//! * **RamCOM inner fallback** — what the paper-faithful "small requests
//!   never use inner workers" rule costs or gains.
//! * **History updates** — static histories (paper model) vs histories
//!   that absorb completed payments during the day.

use serde::{Deserialize, Serialize};

use com_core::{
    run_batched, run_online, BatchedCom, DemCom, DemComConfig, MatcherSpec, RamCom, RamComConfig,
    RunResult,
};
use com_datagen::generate;
use com_datagen::profiles::{synthetic, SyntheticParams};
use com_pricing::{MonteCarloParams, PriceCandidates};

use crate::runner::SweepRunner;
use crate::Table;

use super::EXPERIMENT_SEED;

/// One ablation variant's measurements.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationRow {
    pub(crate) variant: String,
    pub(crate) revenue: f64,
    pub(crate) completed: usize,
    pub(crate) cooperative: usize,
    pub(crate) acceptance_ratio: Option<f64>,
    pub(crate) payment_rate: Option<f64>,
    pub(crate) response_ms: f64,
}

/// A named ablation experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationResult {
    pub(crate) id: String,
    pub(crate) title: String,
    pub(crate) rows: Vec<AblationRow>,
}

impl AblationResult {
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            self.title.clone(),
            &[
                "Variant",
                "Revenue",
                "Completed",
                "|CoR|",
                "|AcpRt|",
                "v'_r/v_r",
                "Response (ms)",
            ],
        );
        for r in &self.rows {
            t.push_row(vec![
                r.variant.clone(),
                format!("{:.0}", r.revenue),
                r.completed.to_string(),
                r.cooperative.to_string(),
                r.acceptance_ratio.map_or("-".into(), |v| format!("{v:.2}")),
                r.payment_rate.map_or("-".into(), |v| format!("{v:.2}")),
                format!("{:.3}", r.response_ms),
            ]);
        }
        t
    }
}

/// The synthetic city every ablation starts from: Table IV's defaults, or
/// 600 requests and 150 workers under `--quick`.
fn base_params(quick: bool) -> SyntheticParams {
    if quick {
        SyntheticParams {
            n_requests: 600,
            n_workers: 150,
            ..Default::default()
        }
    } else {
        SyntheticParams::default()
    }
}

fn default_instance(quick: bool) -> com_sim::Instance {
    generate(&synthetic(base_params(quick)))
}

/// The one place an ablation row is read off a run.
fn row(variant: impl Into<String>, run: &RunResult) -> AblationRow {
    AblationRow {
        variant: variant.into(),
        revenue: run.total_revenue(),
        completed: run.completed(),
        cooperative: run.cooperative_count(),
        acceptance_ratio: run.acceptance_ratio(),
        payment_rate: run.mean_outer_payment_rate(),
        response_ms: run.mean_response_ms(),
    }
}

fn measure(
    instance: &com_sim::Instance,
    variant: &str,
    matcher: &mut dyn com_core::OnlineMatcher,
) -> AblationRow {
    row(variant, &run_online(instance, matcher, EXPERIMENT_SEED))
}

/// DemCOM's Monte Carlo accuracy (ξ) sweep.
pub(crate) fn demcom_xi_sweep(quick: bool) -> AblationResult {
    let instance = default_instance(quick);
    let xis = [0.02, 0.05, 0.1, 0.2, 0.4];
    let rows = xis
        .iter()
        .map(|&xi| {
            let mut m = DemCom::new(DemComConfig {
                monte_carlo: MonteCarloParams::new(xi, 0.5, 0.01),
            });
            measure(&instance, &format!("xi={xi}"), &mut m)
        })
        .collect();
    AblationResult {
        id: "ablation-demcom-xi".into(),
        title: "Ablation: DemCOM Monte Carlo accuracy (xi)".into(),
        rows,
    }
}

/// RamCOM pricing-candidate strategies.
pub(crate) fn ramcom_pricing_strategies(quick: bool) -> AblationResult {
    let instance = default_instance(quick);
    let variants: [(&str, PriceCandidates); 3] = [
        ("breakpoints", PriceCandidates::Breakpoints),
        ("integer-grid", PriceCandidates::IntegerGrid),
        ("uniform-grid-16", PriceCandidates::UniformGrid(16)),
    ];
    let rows = variants
        .iter()
        .map(|(name, candidates)| {
            let mut m = RamCom::new(RamComConfig {
                candidates: *candidates,
                ..Default::default()
            });
            measure(&instance, name, &mut m)
        })
        .collect();
    AblationResult {
        id: "ablation-ramcom-pricing".into(),
        title: "Ablation: RamCOM pricing candidate strategies".into(),
        rows,
    }
}

/// RamCOM with and without the inner-worker fallback for small requests.
pub(crate) fn ramcom_fallback(quick: bool) -> AblationResult {
    let instance = default_instance(quick);
    let rows = [false, true]
        .iter()
        .map(|&fallback| {
            let mut m = RamCom::new(RamComConfig {
                candidates: PriceCandidates::Breakpoints,
                fallback_to_inner: fallback,
                ..Default::default()
            });
            measure(
                &instance,
                if fallback {
                    "fallback-to-inner"
                } else {
                    "paper-faithful"
                },
                &mut m,
            )
        })
        .collect();
    AblationResult {
        id: "ablation-ramcom-fallback".into(),
        title: "Ablation: RamCOM inner fallback for small requests".into(),
        rows,
    }
}

/// Static vs evolving worker histories (DemCOM).
pub(crate) fn history_updates(quick: bool) -> AblationResult {
    let mut static_inst = default_instance(quick);
    static_inst.config.update_histories = false;
    let mut dynamic_inst = static_inst.clone();
    dynamic_inst.config.update_histories = true;

    let rows = vec![
        measure(&static_inst, "static-histories", &mut DemCom::default()),
        measure(&dynamic_inst, "evolving-histories", &mut DemCom::default()),
    ];
    AblationResult {
        id: "ablation-histories".into(),
        title: "Ablation: static vs evolving acceptance histories (DemCOM)".into(),
        rows,
    }
}

/// Table IV's "value distribution" factor: heavy-tailed real-like fares
/// vs Gaussian fares, for all three online algorithms. The heavy tail is
/// what funds RamCOM's value-threshold routing; under Gaussian fares the
/// top-30% of requests hold only ≈ 40% of the value and the COM
/// algorithms converge.
pub(crate) fn value_distributions(quick: bool) -> AblationResult {
    use com_datagen::ValueDistribution;
    let mut rows = Vec::new();
    for (dist_name, dist) in [
        ("real", ValueDistribution::real_like()),
        ("normal", ValueDistribution::normal()),
    ] {
        let instance = generate(&synthetic(SyntheticParams {
            values: dist,
            ..base_params(quick)
        }));
        for spec in MatcherSpec::standard() {
            let mut matcher = spec.build();
            rows.push(measure(
                &instance,
                &format!("{dist_name}/{}", spec.display_name()),
                matcher.as_mut(),
            ));
        }
    }
    AblationResult {
        id: "ablation-value-distribution".into(),
        title: "Ablation: Table IV value distributions (real vs normal)".into(),
        rows,
    }
}

/// RamCOM threshold policies: the literal per-run draw (high variance)
/// vs the default per-request redraw, with and without the inner
/// fallback.
pub(crate) fn ramcom_threshold_modes(quick: bool) -> AblationResult {
    use com_core::ThresholdMode;
    let instance = default_instance(quick);
    let variants: [(&str, ThresholdMode, bool); 4] = [
        ("per-request+fallback", ThresholdMode::PerRequest, true),
        ("per-run+fallback", ThresholdMode::PerRun, true),
        ("per-request literal", ThresholdMode::PerRequest, false),
        ("per-run literal (Alg. 3)", ThresholdMode::PerRun, false),
    ];
    let rows = variants
        .iter()
        .map(|(name, mode, fallback)| {
            let mut m = RamCom::new(RamComConfig {
                threshold: *mode,
                fallback_to_inner: *fallback,
                ..Default::default()
            });
            measure(&instance, name, &mut m)
        })
        .collect();
    AblationResult {
        id: "ablation-ramcom-threshold".into(),
        title: "Ablation: RamCOM threshold policy x inner fallback".into(),
        rows,
    }
}

/// Route-aware matching (§VII future work): sweep the pickup-distance
/// cap and measure the revenue ↔ deadhead-travel trade-off.
pub(crate) fn route_aware_caps(quick: bool) -> AblationResult {
    let instance = default_instance(quick);
    let caps = [0.3, 0.5, 0.8, 1.0, f64::INFINITY];
    let rows = caps
        .iter()
        .map(|&cap| {
            let run = run_online(
                &instance,
                &mut DemCom::with_pickup_cap(cap),
                EXPERIMENT_SEED,
            );
            let cap = if cap.is_finite() {
                format!("cap={cap}km")
            } else {
                "uncapped".into()
            };
            let pickup = run.mean_pickup_km().unwrap_or(0.0);
            row(format!("{cap} (pickup {pickup:.2}km)"), &run)
        })
        .collect();
    AblationResult {
        id: "ablation-route-aware".into(),
        title: "Ablation: route-aware pickup caps (revenue vs deadhead travel)".into(),
        rows,
    }
}

/// Batched matching (latency ↔ quality): sweep the window length and
/// report revenue alongside the mean user-visible waiting time
/// (decision time − arrival time).
pub(crate) fn batched_windows(quick: bool) -> AblationResult {
    let instance = default_instance(quick);
    // Reference: per-request DemCOM (zero added waiting).
    let mut rows = vec![measure(
        &instance,
        "online DemCOM (wait 0s)",
        &mut DemCom::default(),
    )];

    for window in [30.0, 120.0, 600.0] {
        let run = run_batched(&instance, BatchedCom::new(window), EXPERIMENT_SEED);
        let mean_wait: f64 = run
            .assignments
            .iter()
            .map(|a| a.decided_at - a.request.arrival)
            .sum::<f64>()
            / run.assignments.len().max(1) as f64;
        rows.push(row(
            format!("batched {window}s (wait {mean_wait:.0}s)"),
            &run,
        ));
    }
    AblationResult {
        id: "ablation-batched".into(),
        title: "Ablation: batched windows (revenue vs user waiting)".into(),
        rows,
    }
}

/// Worker shifts (realism extension): bounded shifts thin the afternoon
/// fleet; the paper's model keeps every worker available all day.
pub(crate) fn worker_shifts(quick: bool) -> AblationResult {
    let mut rows = Vec::new();
    for (label, shift) in [
        ("4h shifts", 4.0 * 3600.0),
        ("8h shifts", 8.0 * 3600.0),
        ("12h shifts", 12.0 * 3600.0),
        ("unbounded (paper)", f64::INFINITY),
    ] {
        let mut config = synthetic(base_params(quick));
        if shift.is_finite() {
            config.service = config.service.with_shift(shift);
        }
        let instance = generate(&config);
        rows.push(measure(&instance, label, &mut DemCom::default()));
    }
    AblationResult {
        id: "ablation-shifts".into(),
        title: "Ablation: worker shift lengths (DemCOM)".into(),
        rows,
    }
}

/// All ablations, one parallel job per study. Every study regenerates
/// its own instance and replays with explicit seeds, so the fan-out is
/// deterministic; results come back in presentation order.
pub fn run_all(runner: &SweepRunner, quick: bool) -> Vec<AblationResult> {
    let studies: Vec<fn(bool) -> AblationResult> = vec![
        demcom_xi_sweep,
        ramcom_pricing_strategies,
        ramcom_fallback,
        ramcom_threshold_modes,
        history_updates,
        value_distributions,
        route_aware_caps,
        batched_windows,
        worker_shifts,
    ];
    runner.map(studies, |_, study| study(quick))
}

#[cfg(test)]
impl AblationResult {
    fn row(&self, variant: &str) -> Option<&AblationRow> {
        self.rows.iter().find(|r| r.variant == variant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xi_sweep_trades_time_for_samples() {
        let a = demcom_xi_sweep(true);
        assert_eq!(a.rows.len(), 5);
        // Smaller xi ⇒ more Monte Carlo instances ⇒ slower decisions.
        let fine = a.row("xi=0.02").unwrap().response_ms;
        let coarse = a.row("xi=0.4").unwrap().response_ms;
        assert!(
            fine >= coarse,
            "xi=0.02 ({fine} ms) should not be faster than xi=0.4 ({coarse} ms)"
        );
    }

    #[test]
    fn pricing_strategies_all_complete_requests() {
        let a = ramcom_pricing_strategies(true);
        for r in &a.rows {
            assert!(r.completed > 0, "{} completed nothing", r.variant);
            assert!(r.revenue > 0.0);
        }
    }

    #[test]
    fn fallback_never_reduces_completions() {
        let a = ramcom_fallback(true);
        let paper = a.row("paper-faithful").unwrap();
        let fallback = a.row("fallback-to-inner").unwrap();
        assert!(fallback.completed >= paper.completed);
    }

    #[test]
    fn tables_render() {
        for a in run_all(&SweepRunner::serial(), true) {
            let ascii = a.to_table().render_ascii();
            assert!(ascii.contains("Variant"));
        }
    }

    #[test]
    fn literal_threshold_policy_underperforms() {
        // The headline deviation, quantified: the literal Algorithm 3
        // completes far fewer requests than the fallback reading.
        let a = ramcom_threshold_modes(true);
        let literal = a.row("per-run literal (Alg. 3)").unwrap();
        let fallback = a.row("per-request+fallback").unwrap();
        assert!(
            fallback.completed > literal.completed,
            "fallback {} should complete more than literal {}",
            fallback.completed,
            literal.completed
        );
    }

    #[test]
    fn longer_shifts_never_hurt() {
        let a = worker_shifts(true);
        let four = a.row("4h shifts").unwrap().completed;
        let unbounded = a.row("unbounded (paper)").unwrap().completed;
        assert!(
            unbounded >= four,
            "unbounded {unbounded} < 4h {four}: departures should only reduce supply"
        );
    }

    #[test]
    fn batched_windows_report_waits() {
        let a = batched_windows(true);
        assert_eq!(a.rows.len(), 4);
        assert!(a.rows[0].variant.contains("wait 0s"));
        for r in &a.rows {
            assert!(r.revenue > 0.0, "{} earned nothing", r.variant);
        }
    }

    #[test]
    fn route_caps_trade_revenue_for_travel() {
        let a = route_aware_caps(true);
        // The uncapped variant completes at least as much as any cap.
        let completions: Vec<usize> = a.rows.iter().map(|r| r.completed).collect();
        assert!(
            completions.last().unwrap() >= completions.first().unwrap(),
            "uncapped should complete at least the tightest cap: {completions:?}"
        );
    }

    #[test]
    fn heavy_tail_is_where_ramcom_shines() {
        let a = value_distributions(true);
        let real_ram = a.row("real/RamCOM").unwrap().revenue;
        let real_tota = a.row("real/TOTA").unwrap().revenue;
        let norm_ram = a.row("normal/RamCOM").unwrap().revenue;
        let norm_tota = a.row("normal/TOTA").unwrap().revenue;
        // COM dominates TOTA under both fare shapes…
        assert!(real_ram > real_tota);
        assert!(norm_ram > norm_tota * 0.95);
        // …and the relative COM gain is larger under heavy-tailed fares.
        let real_gain = real_ram / real_tota;
        let norm_gain = norm_ram / norm_tota;
        assert!(
            real_gain > norm_gain * 0.9,
            "real gain {real_gain} vs normal gain {norm_gain}"
        );
    }
}
