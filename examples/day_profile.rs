//! Day profile: the hour-by-hour operational view of one simulated city
//! day under DemCOM — where the demand peaks hit, when requests get
//! rejected, and when cross-platform borrowing actually fires.
//!
//! ```text
//! cargo run --release --example day_profile
//! ```

use com::bench::sparkline_row;
use com::core::{hourly_timeline, HourlyBucket};
use com::prelude::*;

fn main() {
    let instance = generate(&synthetic(SyntheticParams {
        n_requests: 5_000,
        n_workers: 800,
        seed: 2024,
        ..Default::default()
    }));
    let run = run_online(&instance, &mut DemCom::default(), 11);
    let timeline = hourly_timeline(&run);

    println!(
        "DemCOM over one synthetic day: {} requests, {} workers\n",
        instance.request_count(),
        instance.worker_count()
    );

    let col = |f: fn(&HourlyBucket) -> f64| -> Vec<f64> { timeline.iter().map(f).collect() };
    println!("hour                     0                      23");
    println!("{}", sparkline_row("requests", &col(|b| b.requests as f64)));
    println!(
        "{}",
        sparkline_row("completed", &col(|b| b.completed as f64))
    );
    println!("{}", sparkline_row("rejected", &col(|b| b.rejected as f64)));
    println!(
        "{}",
        sparkline_row("borrowed", &col(|b| b.cooperative as f64))
    );
    println!("{}", sparkline_row("revenue ¥", &col(|b| b.revenue)));
    println!("{}", sparkline_row("pickup km", &col(|b| b.mean_pickup_km)));

    // Detail table for the rush hours.
    let mut table = Table::new(
        "Rush-hour detail",
        &[
            "Hour", "Requests", "Served", "Inner", "Borrowed", "Rejected", "Revenue", "Rate",
        ],
    );
    for b in timeline.iter().filter(|b| b.requests > 0) {
        if b.hour >= 7 && b.hour <= 9 || b.hour >= 17 && b.hour <= 19 {
            table.push_row(vec![
                format!("{:02}:00", b.hour),
                b.requests.to_string(),
                b.completed.to_string(),
                b.inner.to_string(),
                b.cooperative.to_string(),
                b.rejected.to_string(),
                format!("{:.0}", b.revenue),
                format!("{:.0}%", b.completion_rate() * 100.0),
            ]);
        }
    }
    println!("\n{}", table.render_ascii());
    println!(
        "Borrowing concentrates in the peaks: when a platform's own fleet\n\
         saturates, the rival's idle workers absorb the overflow — exactly\n\
         the situation of the paper's Fig. 1/Fig. 2 motivation."
    );
}
