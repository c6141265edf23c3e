//! The Bernoulli draw behind every cooperative offer (DemCOM's and
//! RamCOM's offer loops). Algorithm 2 samples whole worker sets with the
//! same short-circuits, memoised per payment — see `monte_carlo`.

use rand::Rng;

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
}
