//! Spatial hotspot mixtures.
//!
//! The paper's Fig. 2 motivates COM with *non-uniform* worker/request
//! distributions: one platform's workers cluster where another platform's
//! requests are, and vice versa. A [`SpatialMixture`] is a weighted
//! mixture of 2-D Gaussian hotspots plus a uniform background; two
//! platforms get *complementary* mixtures (see
//! [`SpatialMixture::complement`]) to reproduce that imbalance.

use rand::Rng;
use serde::{Deserialize, Serialize};

use com_geo::{BoundingBox, Point};

use crate::dist::Normal;

/// One Gaussian hotspot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Hotspot {
    pub(crate) center: Point,
    /// Isotropic standard deviation in km.
    pub(crate) std_km: f64,
    /// Relative weight within the mixture.
    pub(crate) weight: f64,
}

impl Hotspot {
    pub fn new(center: Point, std_km: f64, weight: f64) -> Self {
        assert!(std_km > 0.0, "hotspot std must be positive");
        assert!(weight > 0.0, "hotspot weight must be positive");
        Hotspot {
            center,
            std_km,
            weight,
        }
    }
}

/// A mixture of Gaussian hotspots plus a uniform background over the city
/// box. Samples are clamped to the box (border mass is negligible for
/// city-scale std values).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpatialMixture {
    pub(crate) extent: BoundingBox,
    pub(crate) hotspots: Vec<Hotspot>,
    /// Weight of the uniform background (same scale as hotspot weights).
    pub(crate) uniform_weight: f64,
}

impl SpatialMixture {
    /// Hotspots plus a uniform background.
    pub fn new(extent: BoundingBox, hotspots: Vec<Hotspot>, uniform_weight: f64) -> Self {
        assert!(uniform_weight >= 0.0, "uniform weight must be non-negative");
        assert!(
            uniform_weight > 0.0 || !hotspots.is_empty(),
            "mixture needs at least one component"
        );
        SpatialMixture {
            extent,
            hotspots,
            uniform_weight,
        }
    }

    /// The mirror image of this mixture: every hotspot reflected through
    /// the box centre. Platform A's workers + platform B's requests using
    /// a mixture, and A's requests + B's workers using its complement,
    /// recreates the cross-platform imbalance of the paper's Fig. 2.
    pub fn complement(&self) -> SpatialMixture {
        let c = self.extent.center();
        SpatialMixture {
            extent: self.extent,
            hotspots: self
                .hotspots
                .iter()
                .map(|h| Hotspot {
                    center: Point::new(2.0 * c.x - h.center.x, 2.0 * c.y - h.center.y),
                    std_km: h.std_km,
                    weight: h.weight,
                })
                .collect(),
            uniform_weight: self.uniform_weight,
        }
    }

    /// A weighted blend of two mixtures over the same extent: hotspots
    /// from both, with each side's weights (including the uniform
    /// background) scaled by its blend factor. `blend(m, c, 0.6, 0.4)`
    /// places 60% of the mass like `m` and 40% like `c` — the partial
    /// supply/demand imbalance of real cities (platforms cover *most* of
    /// their own demand; the paper's Fig. 2 deserts are the minority).
    pub(crate) fn blend(
        a: &SpatialMixture,
        b: &SpatialMixture,
        wa: f64,
        wb: f64,
    ) -> SpatialMixture {
        assert_eq!(a.extent, b.extent, "blend requires a common extent");
        assert!(wa >= 0.0 && wb >= 0.0 && wa + wb > 0.0, "bad blend weights");
        let scale = |m: &SpatialMixture, w: f64| -> (Vec<Hotspot>, f64) {
            let total = m.total_weight();
            let hotspots = m
                .hotspots
                .iter()
                .map(|h| Hotspot {
                    weight: h.weight / total * w,
                    ..*h
                })
                .collect();
            (hotspots, m.uniform_weight / total * w)
        };
        let (mut hotspots, ua) = scale(a, wa);
        let (hb, ub) = scale(b, wb);
        hotspots.extend(hb);
        SpatialMixture {
            extent: a.extent,
            hotspots,
            uniform_weight: ua + ub,
        }
    }

    /// This mixture geometrically rescaled by `factor` (coordinates and
    /// spreads multiplied), for scenario down-scaling that preserves
    /// spatial *density*.
    pub(crate) fn scaled(&self, factor: f64) -> SpatialMixture {
        assert!(factor > 0.0, "scale factor must be positive");
        SpatialMixture {
            extent: BoundingBox::from_corners(
                Point::new(self.extent.min.x * factor, self.extent.min.y * factor),
                Point::new(self.extent.max.x * factor, self.extent.max.y * factor),
            ),
            hotspots: self
                .hotspots
                .iter()
                .map(|h| Hotspot {
                    center: Point::new(h.center.x * factor, h.center.y * factor),
                    std_km: h.std_km * factor,
                    weight: h.weight,
                })
                .collect(),
            uniform_weight: self.uniform_weight,
        }
    }

    fn total_weight(&self) -> f64 {
        self.uniform_weight + self.hotspots.iter().map(|h| h.weight).sum::<f64>()
    }

    /// Draw one location.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Point {
        let mut pick = rng.random_range(0.0..self.total_weight());
        for h in &self.hotspots {
            if pick < h.weight {
                let p = Point::new(
                    h.center.x + h.std_km * Normal::standard(rng),
                    h.center.y + h.std_km * Normal::standard(rng),
                );
                return self.extent.clamp(p);
            }
            pick -= h.weight;
        }
        Point::new(
            rng.random_range(self.extent.min.x..self.extent.max.x),
            rng.random_range(self.extent.min.y..self.extent.max.y),
        )
    }
}

#[cfg(test)]
impl SpatialMixture {
    /// A pure uniform distribution over the box.
    fn uniform(extent: BoundingBox) -> Self {
        SpatialMixture {
            extent,
            hotspots: Vec::new(),
            uniform_weight: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn box30() -> BoundingBox {
        BoundingBox::square(30.0)
    }

    #[test]
    fn samples_stay_inside_extent() {
        let m = SpatialMixture::new(
            box30(),
            vec![Hotspot::new(Point::new(1.0, 1.0), 5.0, 1.0)],
            0.2,
        );
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..5_000 {
            let p = m.sample(&mut rng);
            assert!(m.extent.contains(p), "sample {p} escaped the box");
        }
    }

    #[test]
    fn hotspot_concentrates_mass() {
        let m = SpatialMixture::new(
            box30(),
            vec![Hotspot::new(Point::new(5.0, 5.0), 1.0, 1.0)],
            0.0,
        );
        let mut rng = StdRng::seed_from_u64(2);
        let near = (0..2_000)
            .filter(|_| m.sample(&mut rng).distance(Point::new(5.0, 5.0)) < 3.0)
            .count();
        // 3σ of an isotropic Gaussian ≈ 99% of mass.
        assert!(near > 1_900, "only {near}/2000 samples near the hotspot");
    }

    #[test]
    fn uniform_mixture_spreads_mass() {
        let m = SpatialMixture::uniform(box30());
        let mut rng = StdRng::seed_from_u64(3);
        let left = (0..10_000).filter(|_| m.sample(&mut rng).x < 15.0).count();
        assert!((4_500..5_500).contains(&left), "uniform split {left}/10000");
    }

    #[test]
    fn complement_mirrors_hotspots() {
        let m = SpatialMixture::new(
            box30(),
            vec![Hotspot::new(Point::new(5.0, 10.0), 2.0, 1.0)],
            0.1,
        );
        let c = m.complement();
        assert_eq!(c.hotspots[0].center, Point::new(25.0, 20.0));
        assert_eq!(c.complement().hotspots[0].center, m.hotspots[0].center);
    }

    #[test]
    fn complementary_mixtures_separate_in_space() {
        // The Fig. 2 situation: mass of m on the left, mass of its
        // complement on the right.
        let m = SpatialMixture::new(
            box30(),
            vec![Hotspot::new(Point::new(6.0, 15.0), 2.0, 1.0)],
            0.0,
        );
        let c = m.complement();
        let mut rng = StdRng::seed_from_u64(4);
        let mean_x_m: f64 = (0..2_000).map(|_| m.sample(&mut rng).x).sum::<f64>() / 2_000.0;
        let mean_x_c: f64 = (0..2_000).map(|_| c.sample(&mut rng).x).sum::<f64>() / 2_000.0;
        assert!(mean_x_m < 10.0 && mean_x_c > 20.0);
    }

    #[test]
    #[should_panic(expected = "at least one component")]
    fn rejects_empty_mixture() {
        SpatialMixture::new(box30(), vec![], 0.0);
    }
}
