//! Competitive ratios: measure the empirical `CR_RO` of each algorithm
//! against the exact offline optimum on small one-shot instances
//! (Definitions 2.7/2.8; Theorems 1–2).
//!
//! ```text
//! cargo run --release --example competitive_ratio
//! ```

use com::prelude::*;

fn main() {
    // Small instances where Hungarian OFF is exact and fast. One-shot
    // service (no re-entry) is the regime the theory speaks about.
    let mut config = synthetic(SyntheticParams {
        n_requests: 80,
        n_workers: 40,
        radius_km: 3.0,
        seed: 99,
        ..Default::default()
    });
    config.service = ServiceModel::one_shot();
    let instance = generate(&config);

    let opt = offline_solve(&instance, OfflineMode::ExactBipartite);
    println!(
        "offline optimum (Hungarian, one-shot): ¥{:.0} over {} requests\n",
        opt.total_revenue,
        instance.request_count()
    );

    let orders = 40;
    let mut table = Table::new(
        format!("Empirical competitive ratios over {orders} random arrival orders"),
        &["Algorithm", "min ratio", "mean ratio (≈ CR_RO)"],
    );

    for spec in [
        MatcherSpec::Tota,
        MatcherSpec::GreedyRt,
        MatcherSpec::DemCom,
        MatcherSpec::RamCom,
    ] {
        let report = competitive_ratio_random_order(&instance, &mut || spec.build(), orders, 2020);
        table.push_row(vec![
            spec.display_name().into(),
            format!("{:.3}", report.min),
            format!("{:.3}", report.mean),
        ]);
    }

    println!("{}", table.render_ascii());
    println!(
        "theory: RamCOM's proven worst-case bound is 1/(8e) ≈ {:.3};\n\
         DemCOM matches greedy TOTA's random-order ratio (Theorem 1).\n\
         Empirical means sit far above the worst-case bounds, as the\n\
         paper observes — the 1/k! worst cases essentially never occur.",
        1.0 / (8.0 * std::f64::consts::E)
    );
}
