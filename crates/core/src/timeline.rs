//! Hour-by-hour decomposition of a run — the operational view a platform
//! team would actually look at (peak load, rejection spikes, when
//! borrowing kicks in).

use serde::{Deserialize, Serialize};

use com_sim::SECONDS_PER_HOUR;

use crate::engine::RunResult;

/// Aggregates for one hour of the simulated day.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct HourlyBucket {
    /// Hour of day, `0..=23` (later hours clamp into 23).
    pub hour: u32,
    pub requests: usize,
    pub completed: usize,
    pub inner: usize,
    pub cooperative: usize,
    pub rejected: usize,
    pub revenue: f64,
    /// Mean pickup distance over this hour's served requests (km).
    pub mean_pickup_km: f64,
}

impl HourlyBucket {
    /// Fraction of this hour's requests that were served.
    pub fn completion_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.completed as f64 / self.requests as f64
        }
    }
}

/// Bucket a run's assignments into 24 hourly aggregates.
pub fn hourly_timeline(run: &RunResult) -> Vec<HourlyBucket> {
    let mut buckets: Vec<HourlyBucket> = (0..24)
        .map(|hour| HourlyBucket {
            hour,
            ..Default::default()
        })
        .collect();
    let mut pickup_sums = [0.0f64; 24];

    for a in &run.assignments {
        let hour = ((a.request.arrival.as_secs() / SECONDS_PER_HOUR) as usize).min(23);
        let b = &mut buckets[hour];
        b.requests += 1;
        if a.is_completed() {
            b.completed += 1;
            b.revenue += a.platform_revenue();
            pickup_sums[hour] += a.travel_km;
            if a.is_cooperative_success() {
                b.cooperative += 1;
            } else {
                b.inner += 1;
            }
        } else {
            b.rejected += 1;
        }
    }
    for (b, pickup) in buckets.iter_mut().zip(pickup_sums) {
        if b.completed > 0 {
            b.mean_pickup_km = pickup / b.completed as f64;
        }
    }
    buckets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_online, DemCom};
    use com_datagen::generate;
    use com_datagen::profiles::{synthetic, SyntheticParams};

    fn run() -> RunResult {
        let inst = generate(&synthetic(SyntheticParams {
            n_requests: 800,
            n_workers: 200,
            seed: 909,
            ..Default::default()
        }));
        run_online(&inst, &mut DemCom::default(), 4)
    }

    #[test]
    fn buckets_partition_the_day() {
        let r = run();
        let tl = hourly_timeline(&r);
        assert_eq!(tl.len(), 24);
        let total_requests: usize = tl.iter().map(|b| b.requests).sum();
        assert_eq!(total_requests, r.assignments.len());
        let total_completed: usize = tl.iter().map(|b| b.completed).sum();
        assert_eq!(total_completed, r.completed());
        let total_revenue: f64 = tl.iter().map(|b| b.revenue).sum();
        assert!((total_revenue - r.total_revenue()).abs() < 1e-6);
        let total_coop: usize = tl.iter().map(|b| b.cooperative).sum();
        assert_eq!(total_coop, r.cooperative_count());
    }

    #[test]
    fn bucket_internals_are_consistent() {
        let tl = hourly_timeline(&run());
        for b in &tl {
            assert_eq!(b.completed + b.rejected, b.requests, "hour {}", b.hour);
            assert_eq!(b.inner + b.cooperative, b.completed, "hour {}", b.hour);
            assert!((0.0..=1.0).contains(&b.completion_rate()));
            assert!(b.mean_pickup_km >= 0.0);
        }
    }

    #[test]
    fn demand_peaks_show_in_the_timeline() {
        // The two-peak daily profile must be visible: the busiest hour
        // carries several times the quietest (non-empty) hour's load.
        let tl = hourly_timeline(&run());
        let max = tl.iter().map(|b| b.requests).max().unwrap();
        let positive_min = tl
            .iter()
            .map(|b| b.requests)
            .filter(|&r| r > 0)
            .min()
            .unwrap();
        assert!(
            max >= positive_min * 3,
            "no peak structure: max {max}, min {positive_min}"
        );
    }
}
