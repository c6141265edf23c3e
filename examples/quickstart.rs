//! Quickstart: generate a small two-platform city, run all four methods,
//! and print a Table V-style comparison.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use com::prelude::*;

fn main() {
    // A Table IV-style synthetic scenario: two competing platforms
    // ("DiDi" and "Yueche") over the Chengdu geometry, 2,500 requests and
    // 500 workers in total, rad = 1 km.
    let scenario = synthetic(SyntheticParams::default());
    let instance = generate(&scenario);
    println!(
        "instance: {} requests, {} workers, 2 platforms, max fare ¥{:.1}\n",
        instance.request_count(),
        instance.worker_count(),
        instance.max_value().unwrap_or(0.0),
    );

    let mut table = Table::new(
        "Quickstart: one synthetic city-day",
        &[
            "Method",
            "Revenue (¥)",
            "Completed",
            "|CoR|",
            "|AcpRt|",
            "v'/v",
            "ms/request",
        ],
    );

    // OFF: the full-knowledge baseline (upper reference).
    let off = offline_solve(&instance);
    table.push_row(vec![
        "OFF".into(),
        format!("{:.0}", off.total_revenue),
        off.completed.to_string(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);

    // The three online algorithms, replayed over the same arrival stream.
    let seed = 42;
    let mut matchers: Vec<Box<dyn OnlineMatcher>> = vec![
        Box::new(TotaGreedy),
        Box::new(DemCom::default()),
        Box::new(RamCom::default()),
    ];
    for matcher in &mut matchers {
        let run = run_online(&instance, matcher.as_mut(), seed);
        table.push_row(vec![
            run.algorithm.clone(),
            format!("{:.0}", run.total_revenue()),
            run.completed().to_string(),
            run.cooperative_count().to_string(),
            run.acceptance_ratio()
                .map_or("-".into(), |v| format!("{v:.2}")),
            run.mean_outer_payment_rate()
                .map_or("-".into(), |v| format!("{v:.2}")),
            format!("{:.4}", run.mean_response_ms()),
        ]);
    }

    println!("{}", table.render_ascii());
    println!(
        "Reading the table: DemCOM and RamCOM \"borrow\" idle workers from\n\
         the competing platform for requests TOTA has to reject, so they\n\
         complete more requests and collect more revenue; RamCOM's\n\
         expected-revenue pricing accepts more cooperative offers than\n\
         DemCOM's minimum payments (higher |AcpRt|), at a higher v'/v."
    );
}
