//! Bernoulli sampling helpers shared by DemCOM, RamCOM and Algorithm 2.

use rand::Rng;

use crate::{Value, WorkerHistory};

/// One Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
///
/// This is exactly the paper's "generate a random number x ∈ [0, 1]; accept
/// if x ≤ pr(...)" step.
#[inline]
pub fn bernoulli<R: Rng + ?Sized>(rng: &mut R, p: f64) -> bool {
    let p = p.clamp(0.0, 1.0);
    if p <= 0.0 {
        return false;
    }
    if p >= 1.0 {
        return true;
    }
    rng.random_range(0.0..1.0) <= p
}

/// Whether *any* worker accepts at `payment` (one sampling instance of
/// Algorithm 2, lines 4/9: "sample each w_out … check whether someone
/// would like to serve"). Draws a decision for every worker so the RNG
/// stream is independent of short-circuiting.
pub fn any_accepts<R: Rng + ?Sized>(
    workers: &[&WorkerHistory],
    payment: Value,
    rng: &mut R,
) -> bool {
    let mut any = false;
    for w in workers {
        if bernoulli(rng, w.acceptance_prob(payment)) {
            any = true;
        }
    }
    any
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bernoulli_extremes_are_deterministic() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert!(bernoulli(&mut rng, 1.0));
            assert!(!bernoulli(&mut rng, 0.0));
            assert!(bernoulli(&mut rng, 2.0)); // clamped
            assert!(!bernoulli(&mut rng, -0.5)); // clamped
        }
    }

    #[test]
    fn bernoulli_frequency_close_to_p() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let hits = (0..n).filter(|_| bernoulli(&mut rng, 0.3)).count();
        let freq = hits as f64 / n as f64;
        assert!(
            (freq - 0.3).abs() < 0.02,
            "empirical frequency {freq} too far from 0.3"
        );
    }

    #[test]
    fn any_accepts_extremes() {
        // At ¥5: a newcomer always accepts, a ¥50-floor worker never does.
        let yes = WorkerHistory::new();
        let no = WorkerHistory::from_values(vec![50.0]);
        let mut rng = StdRng::seed_from_u64(3);
        assert!(!any_accepts(&[&no, &no], 5.0, &mut rng));
        assert!(any_accepts(&[&no, &yes], 5.0, &mut rng));
        assert!(!any_accepts(&[], 5.0, &mut rng));
    }

    #[test]
    fn deterministic_under_seed() {
        // Ten coin-flip workers: same seed, same answer, and the same
        // number of draws consumed (one per worker, no short-circuit).
        let m = WorkerHistory::from_values(vec![1.0, 3.0]);
        let group = [&m; 10];
        let (mut a, mut b) = (StdRng::seed_from_u64(42), StdRng::seed_from_u64(42));
        assert_eq!(
            any_accepts(&group, 1.0, &mut a),
            any_accepts(&group, 1.0, &mut b)
        );
        let mut ten_draws = StdRng::seed_from_u64(42);
        for _ in 0..10 {
            let _: f64 = ten_draws.random_range(0.0..1.0);
        }
        let next: f64 = a.random_range(0.0..1.0);
        assert_eq!(next, b.random_range(0.0..1.0));
        assert_eq!(next, ten_draws.random_range(0.0..1.0));
    }
}
