//! Daily arrival-time profiles.
//!
//! Taxi demand has pronounced morning and evening peaks. Arrival times
//! are drawn from a weighted mixture of two Gaussian rush-hour peaks and
//! a uniform base load over the 24-hour day, then wrapped into
//! `[0, 86_400)` seconds.

use rand::Rng;
use serde::{Deserialize, Serialize};

use com_sim::{Timestamp, SECONDS_PER_DAY, SECONDS_PER_HOUR};

use crate::dist::Normal;

/// A daily arrival profile.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DailyProfile {
    /// Morning-peak centre (hours, e.g. 8.5) and std (hours).
    pub morning: (f64, f64),
    /// Evening-peak centre and std (hours).
    pub evening: (f64, f64),
    /// Weights: morning peak, evening peak, uniform base.
    pub weights: (f64, f64, f64),
}

impl DailyProfile {
    /// The default two-peak city profile: 8:30 ± 1.5 h, 18:00 ± 2 h,
    /// 30%/35%/35% split.
    pub(crate) fn two_peak() -> Self {
        DailyProfile {
            morning: (8.5, 1.5),
            evening: (18.0, 2.0),
            weights: (0.30, 0.35, 0.35),
        }
    }

    /// Draw one arrival time.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Timestamp {
        let (wm, we, wu) = self.weights;
        let total = wm + we + wu;
        assert!(total > 0.0, "profile weights must sum to a positive value");
        let pick = rng.random_range(0.0..total);
        let hours = if pick < wm {
            Normal::new(self.morning.0, self.morning.1).sample_hours(rng)
        } else if pick < wm + we {
            Normal::new(self.evening.0, self.evening.1).sample_hours(rng)
        } else {
            rng.random_range(0.0..24.0)
        };
        // Wrap into [0, 24) — a 1:00 am tail of the evening peak is
        // simply late-night demand.
        let wrapped = hours.rem_euclid(24.0);
        Timestamp::from_secs((wrapped * SECONDS_PER_HOUR).min(SECONDS_PER_DAY - 1e-3))
    }
}

trait SampleHours {
    fn sample_hours<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;
}

impl SampleHours for Normal {
    fn sample_hours<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        use crate::dist::Sampler;
        self.sample(rng)
    }
}

#[cfg(test)]
impl DailyProfile {
    /// A flat profile (uniform over the day) — used by scenarios that
    /// should not carry temporal structure.
    pub(crate) fn flat() -> Self {
        DailyProfile {
            morning: (8.0, 1.0),
            evening: (18.0, 1.0),
            weights: (0.0, 0.0, 1.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn samples_inside_day() {
        let p = DailyProfile::two_peak();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let t = p.sample(&mut rng);
            assert!(t.as_secs() >= 0.0 && t.as_secs() < SECONDS_PER_DAY);
        }
    }

    #[test]
    fn peaks_carry_more_mass_than_valleys() {
        let p = DailyProfile::two_peak();
        let mut rng = StdRng::seed_from_u64(2);
        let mut morning = 0usize; // 7–10 h
        let mut valley = 0usize; // 2–5 h
        for _ in 0..20_000 {
            let h = p.sample(&mut rng).as_hours();
            if (7.0..10.0).contains(&h) {
                morning += 1;
            }
            if (2.0..5.0).contains(&h) {
                valley += 1;
            }
        }
        assert!(
            morning > valley * 2,
            "morning {morning} vs valley {valley}: no peak structure"
        );
    }

    #[test]
    fn flat_profile_is_roughly_uniform() {
        let p = DailyProfile::flat();
        let mut rng = StdRng::seed_from_u64(3);
        let first_half = (0..10_000)
            .filter(|_| p.sample(&mut rng).as_hours() < 12.0)
            .count();
        assert!((4_500..5_500).contains(&first_half));
    }
}
