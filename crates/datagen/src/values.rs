//! Request-value (fare) distributions.
//!
//! Table IV lists two value distributions: "real" (the empirical fare
//! distribution of the traces — heavy-tailed, which we model log-normal)
//! and "normal". Fares are clamped to a sane band and rounded to 0.1 ¥ so
//! histories have meaningful CDF breakpoints.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::dist::{LogNormal, Normal, Sampler};

/// Minimum fare (¥): the flag-fall of a Chengdu taxi ride.
pub(crate) const MIN_FARE: f64 = 5.0;
/// Maximum fare (¥): caps the log-normal tail at a long intercity run.
pub(crate) const MAX_FARE: f64 = 500.0;

/// A request-fare distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ValueDistribution {
    /// Heavy-tailed log-normal calibrated so the arithmetic mean fare is
    /// `mean_fare` with log-space spread `sigma` — the shape of real
    /// trip-fare data ("real" in Table IV). Real fare data is *strongly*
    /// skewed: with `sigma = 1.0` the top 30% of requests carry ≈ 70% of
    /// the total value, which is what makes RamCOM's value-threshold
    /// routing profitable (see DESIGN.md).
    RealLike { mean_fare: f64, sigma: f64 },
    /// Gaussian fares ("normal" in Table IV).
    Normal { mean: f64, std: f64 },
}

impl ValueDistribution {
    /// The paper-calibrated default: mean fare ≈ ¥19 (Table V's OFF
    /// revenue of ¥1.75M over 91k requests), heavy tail.
    pub fn real_like() -> Self {
        ValueDistribution::RealLike {
            mean_fare: 19.0,
            sigma: 1.2,
        }
    }

    /// The Table IV "normal" alternative with the same mean.
    pub fn normal() -> Self {
        ValueDistribution::Normal {
            mean: 19.0,
            std: 6.0,
        }
    }

    /// The default *worker-history* distribution: per-job worker payments
    /// have the same heavy-tailed shape as fares but a mean of ¥15 —
    /// about 0.79 of the ¥19 mean fare (the worker's side of a ride after
    /// the platform's cut). Because the history CDF spans small payments
    /// too, borrowed workers will take cheap jobs with reasonable
    /// probability at mid prices — which is what gives RamCOM's
    /// expected-revenue payments their high acceptance while DemCOM's
    /// floor-hugging minimum payments stay rarely accepted, the paper's
    /// reported incentive shape.
    pub(crate) fn worker_history() -> Self {
        ValueDistribution::RealLike {
            mean_fare: 10.0,
            sigma: 0.5,
        }
    }

    /// Draw one fare, clamped to `[MIN_FARE, MAX_FARE]` and rounded to
    /// 0.1.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let raw = match self {
            ValueDistribution::RealLike { mean_fare, sigma } => {
                LogNormal::with_mean(*mean_fare, *sigma).sample(rng)
            }
            ValueDistribution::Normal { mean, std } => Normal::new(*mean, *std).sample(rng),
        };
        (raw.clamp(MIN_FARE, MAX_FARE) * 10.0).round() / 10.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn draw(d: ValueDistribution, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| d.sample(&mut rng)).collect()
    }

    #[test]
    fn fares_respect_band_and_rounding() {
        for d in [ValueDistribution::real_like(), ValueDistribution::normal()] {
            for v in draw(d, 5_000, 1) {
                assert!((MIN_FARE..=MAX_FARE).contains(&v), "fare {v} out of band");
                let tenths = v * 10.0;
                assert!(
                    (tenths - tenths.round()).abs() < 1e-9,
                    "fare {v} not rounded"
                );
            }
        }
    }

    #[test]
    fn real_like_mean_near_nineteen() {
        let samples = draw(ValueDistribution::real_like(), 50_000, 2);
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        // The [MIN_FARE, MAX_FARE] clamp shifts the mean slightly up.
        assert!(
            (17.0..24.0).contains(&mean),
            "real-like mean fare {mean} off target"
        );
    }

    #[test]
    fn real_like_top_30_percent_carry_most_value() {
        // The heavy-tail property RamCOM's threshold routing relies on.
        let mut samples = draw(ValueDistribution::real_like(), 50_000, 7);
        samples.sort_by(f64::total_cmp);
        let total: f64 = samples.iter().sum();
        let top30: f64 = samples[(samples.len() as f64 * 0.7) as usize..]
            .iter()
            .sum();
        let share = top30 / total;
        assert!(share > 0.55, "top-30% value share {share} too light-tailed");
    }

    #[test]
    fn real_like_is_heavier_tailed_than_normal() {
        let real = draw(ValueDistribution::real_like(), 50_000, 3);
        let norm = draw(ValueDistribution::normal(), 50_000, 3);
        let p99 = |mut v: Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[(v.len() as f64 * 0.99) as usize]
        };
        assert!(
            p99(real) > p99(norm),
            "real-like should have a heavier tail"
        );
    }

    #[test]
    fn normal_mean_matches_parameter() {
        let samples = draw(
            ValueDistribution::Normal {
                mean: 25.0,
                std: 4.0,
            },
            50_000,
            4,
        );
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((24.0..26.0).contains(&mean));
    }
}
