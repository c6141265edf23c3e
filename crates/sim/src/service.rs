//! Service model: how long an assignment occupies a worker.

use serde::{Deserialize, Serialize};

use com_geo::{DistanceMetric, Point};

/// Busy-time model for assignments.
///
/// The paper's core model is one-shot bipartite matching (each worker
/// serves one request), but its day-long experiments clearly reuse workers
/// ("after a worker finishes the service of `r`, s/he can come back to
/// the platform again at a new time point", Section II-A). The service
/// model makes both modes available:
///
/// * [`ServiceModel::one_shot`] — workers never return; the strict
///   bipartite model used for the competitive-ratio experiments.
/// * [`ServiceModel::taxi`] — travel to the rider at `speed_kmh`, serve
///   for `service_secs`, then re-enter the waiting list at the request's
///   location.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceModel {
    /// Travel speed in km/h used to convert worker→request distance into
    /// travel time.
    pub(crate) speed_kmh: f64,
    /// Fixed service duration in seconds added on top of travel.
    pub(crate) service_secs: f64,
    /// Whether workers re-enter the waiting list after completing.
    pub reentry: bool,
    /// Shift length in seconds: a worker stops taking new assignments
    /// once `shift_secs` have passed since its arrival (it still finishes
    /// the job in progress). `f64::INFINITY` disables departures — the
    /// paper's model, where workers stay available all day. Omitted from
    /// JSON when unbounded (JSON cannot express infinity).
    #[serde(default = "unbounded_shift", skip_serializing_if = "is_unbounded")]
    pub shift_secs: f64,
}

fn unbounded_shift() -> f64 {
    f64::INFINITY
}

#[allow(clippy::trivially_copy_pass_by_ref)]
fn is_unbounded(v: &f64) -> bool {
    v.is_infinite()
}

impl ServiceModel {
    /// Workers serve exactly one request and never return.
    pub fn one_shot() -> Self {
        ServiceModel {
            speed_kmh: 30.0,
            service_secs: 0.0,
            reentry: false,
            shift_secs: f64::INFINITY,
        }
    }

    /// A city taxi profile: `speed_kmh` travel, `service_secs` on the job,
    /// re-entry enabled.
    pub fn taxi(speed_kmh: f64, service_secs: f64) -> Self {
        assert!(speed_kmh > 0.0, "speed must be positive");
        assert!(service_secs >= 0.0, "service time must be non-negative");
        ServiceModel {
            speed_kmh,
            service_secs,
            reentry: true,
            shift_secs: f64::INFINITY,
        }
    }

    /// A copy of this model with workers leaving `shift_secs` after their
    /// arrival.
    pub fn with_shift(mut self, shift_secs: f64) -> Self {
        assert!(shift_secs > 0.0, "shift must be positive");
        self.shift_secs = shift_secs;
        self
    }

    /// Default day-simulation profile: 30 km/h through city traffic and a
    /// 30-minute average engagement per job (pickup, ride, drop-off and
    /// repositioning before the driver is assignable again). At the
    /// paper's request:worker ratios this makes fleet occupancy bind
    /// during the rush-hour peaks — the regime in which reserving inner
    /// workers for high-value requests (RamCOM) pays off.
    pub fn default_taxi() -> Self {
        Self::taxi(30.0, 2_400.0)
    }

    /// Seconds the worker is busy when assigned from `worker_loc` to a
    /// request at `request_loc` (Euclidean travel).
    pub fn busy_secs(&self, worker_loc: Point, request_loc: Point) -> f64 {
        self.busy_secs_metric(DistanceMetric::Euclidean, worker_loc, request_loc)
    }

    /// Seconds busy with travel measured under `metric` (Manhattan for
    /// the road-network surrogate).
    pub fn busy_secs_metric(
        &self,
        metric: DistanceMetric,
        worker_loc: Point,
        request_loc: Point,
    ) -> f64 {
        let travel_h = metric.distance(worker_loc, request_loc) / self.speed_kmh;
        travel_h * 3600.0 + self.service_secs
    }
}

impl Default for ServiceModel {
    fn default() -> Self {
        Self::default_taxi()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_time_includes_travel_and_service() {
        let m = ServiceModel::taxi(60.0, 600.0);
        // 1 km at 60 km/h = 60 s travel.
        let secs = m.busy_secs(Point::new(0.0, 0.0), Point::new(1.0, 0.0));
        assert!((secs - 660.0).abs() < 1e-9);
    }

    #[test]
    fn zero_distance_costs_only_service_time() {
        let m = ServiceModel::taxi(30.0, 300.0);
        assert_eq!(
            m.busy_secs(Point::new(2.0, 2.0), Point::new(2.0, 2.0)),
            300.0
        );
    }

    #[test]
    fn one_shot_disables_reentry() {
        assert!(!ServiceModel::one_shot().reentry);
        assert!(ServiceModel::default_taxi().reentry);
    }

    #[test]
    fn shifts_default_to_unbounded() {
        assert!(ServiceModel::default_taxi().shift_secs.is_infinite());
        let m = ServiceModel::default_taxi().with_shift(8.0 * 3600.0);
        assert_eq!(m.shift_secs, 8.0 * 3600.0);
    }

    #[test]
    #[should_panic(expected = "shift must be positive")]
    fn rejects_zero_shift() {
        ServiceModel::default_taxi().with_shift(0.0);
    }

    #[test]
    #[should_panic(expected = "speed must be positive")]
    fn rejects_zero_speed() {
        ServiceModel::taxi(0.0, 0.0);
    }
}
