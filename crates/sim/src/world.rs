//! The multi-platform world state.

use std::collections::HashMap;

use com_geo::{BoundingBox, DistanceMetric, Km, Point};
use com_pricing::WorkerHistory;
use com_stream::{PlatformId, RequestSpec, TimerQueue, Timestamp, Value, WorkerId, WorkerSpec};
use serde::{Deserialize, Serialize};

use crate::waiting_list::IdleWorker;
use crate::{ConstraintViolation, ServiceModel, WaitingList, Worker, WorkerState};

/// Static configuration of a world. Serializes as plain JSON (the
/// `com-serve` wire protocol ships one in its `hello` message); the
/// unbounded-shift `ServiceModel` caveat applies — see
/// [`ServiceModel::shift_secs`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorldConfig {
    /// City extent (every waiting list's grid is laid over it).
    pub extent: BoundingBox,
    /// Expected service radius — grid cell-size hint.
    pub expected_radius: Km,
    /// Busy-time / re-entry model.
    pub service: ServiceModel,
    /// When `true`, each completed assignment's worker payment is appended
    /// to the worker's value history, so acceptance probabilities evolve
    /// during the day. The paper's model uses static histories; this flag
    /// is an ablation extension (default `false`).
    pub update_histories: bool,
    /// Distance metric for the range constraint and travel times.
    /// `Manhattan` is the road-network surrogate the paper's §II-A
    /// generalisation describes (service ranges become diamonds).
    pub metric: DistanceMetric,
}

impl WorldConfig {
    /// Sensible defaults for a `side × side` km city.
    pub fn city(side: Km) -> Self {
        WorldConfig {
            extent: BoundingBox::square(side),
            expected_radius: 1.0,
            service: ServiceModel::default_taxi(),
            update_histories: false,
            metric: DistanceMetric::Euclidean,
        }
    }
}

/// The full simulation state: every platform's waiting list, every
/// worker's occupancy, and the pending re-entry timers.
///
/// The world enforces the paper's constraints mechanically:
///
/// * **Time**: a worker enters a waiting list only when its arrival (or
///   re-entry) event is processed, and the engine processes events in
///   time order — so every waiting worker arrived before the current
///   request.
/// * **1-by-1 / invariable**: assignment removes the worker from its
///   waiting list and marks it busy until service completion; assigning a
///   non-idle worker panics.
/// * **Range**: the coverer queries only return workers whose service
///   circle covers the request location.
/// * **Cross-platform visibility**: [`World::outer_coverers`] exposes only
///   *unoccupied* workers of other platforms, which is all the paper
///   allows competitors to share.
#[derive(Debug, Clone)]
pub struct World {
    config: WorldConfig,
    platform_names: Vec<String>,
    waiting: Vec<WaitingList>,
    workers: HashMap<WorkerId, Worker>,
    reentries: TimerQueue<WorkerId>,
    /// Scheduled shift-end checks (only populated for finite shifts).
    departures: TimerQueue<WorkerId>,
    now: Timestamp,
}

impl World {
    /// Create an empty world with one waiting list per platform.
    pub fn new(config: WorldConfig, platform_names: Vec<String>) -> Self {
        assert!(!platform_names.is_empty(), "need at least one platform");
        let waiting = platform_names
            .iter()
            .map(|_| WaitingList::with_metric(config.extent, config.expected_radius, config.metric))
            .collect();
        World {
            config,
            platform_names,
            waiting,
            workers: HashMap::new(),
            reentries: TimerQueue::new(),
            departures: TimerQueue::new(),
            now: Timestamp::ZERO,
        }
    }

    /// Number of platforms.
    pub fn platform_count(&self) -> usize {
        self.platform_names.len()
    }

    /// Platform display name.
    pub fn platform_name(&self, p: PlatformId) -> &str {
        &self.platform_names[p.index()]
    }

    /// Current simulation time.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// The static configuration.
    pub fn config(&self) -> &WorldConfig {
        &self.config
    }

    /// Register a worker before the simulation starts (state
    /// `NotArrived`).
    ///
    /// # Panics
    /// Panics on duplicate ids or out-of-range platforms (see
    /// [`World::try_register_worker`] for the fallible form).
    pub fn register_worker(&mut self, spec: WorkerSpec, history: WorkerHistory) {
        if let Err(violation) = self.try_register_worker(spec, history) {
            panic!("{violation}");
        }
    }

    /// Fallible registration: duplicate ids and unknown platforms become
    /// typed [`ConstraintViolation`]s. On error the world is unchanged.
    pub fn try_register_worker(
        &mut self,
        spec: WorkerSpec,
        history: WorkerHistory,
    ) -> Result<(), ConstraintViolation> {
        if spec.platform.index() >= self.platform_names.len() {
            return Err(ConstraintViolation::UnknownPlatform {
                worker: spec.id,
                platform: spec.platform,
            });
        }
        if self.workers.contains_key(&spec.id) {
            return Err(ConstraintViolation::DuplicateWorker { worker: spec.id });
        }
        self.workers.insert(spec.id, Worker::new(spec, history));
        Ok(())
    }

    /// Advance simulation time to `t`, processing any due re-entries.
    ///
    /// # Panics
    /// Panics if `t` is earlier than the current time (events must be
    /// replayed in order); see [`World::try_advance_to`].
    pub fn advance_to(&mut self, t: Timestamp) {
        if let Err(violation) = self.try_advance_to(t) {
            panic!("{violation}");
        }
    }

    /// Fallible clock advance: a rewind is a typed
    /// [`ConstraintViolation::TimeRewind`] and leaves the world unchanged.
    pub fn try_advance_to(&mut self, t: Timestamp) -> Result<(), ConstraintViolation> {
        if t < self.now {
            return Err(ConstraintViolation::TimeRewind {
                now: self.now,
                to: t,
            });
        }
        let shift = self.config.service.shift_secs;
        while let Some((at, id)) = self.reentries.pop_due(t) {
            let worker = self
                .workers
                .get_mut(&id)
                .expect("re-entry timer for unknown worker");
            debug_assert!(matches!(worker.state, WorkerState::Busy { .. }));
            // Shift end: the worker finished its last job and goes home
            // instead of re-entering the waiting list.
            if at.since(worker.spec.arrival) >= shift {
                worker.state = WorkerState::Departed;
                continue;
            }
            worker.enter_idle(worker.location);
            let entry = IdleWorker {
                id,
                location: worker.location,
                radius: worker.spec.radius,
                entered_at: at,
            };
            self.waiting[worker.spec.platform.index()].add(entry);
        }
        // Idle workers whose shift ended leave the waiting lists (busy
        // ones retire at their re-entry check above).
        while let Some((_, id)) = self.departures.pop_due(t) {
            let worker = self.workers.get_mut(&id).expect("unknown worker");
            if worker.is_idle() {
                self.waiting[worker.spec.platform.index()].remove(id);
                worker.state = WorkerState::Departed;
            }
        }
        self.now = t;
        Ok(())
    }

    /// Process a worker arrival event: the worker joins its home
    /// platform's waiting list at its spec location.
    ///
    /// # Panics
    /// Panics on a repeated arrival, an unknown id, or an arrival event
    /// fed after the clock already passed its time; see
    /// [`World::try_worker_arrives`] for the fallible form.
    pub fn worker_arrives(&mut self, id: WorkerId) {
        if let Err(violation) = self.try_worker_arrives(id) {
            panic!("{violation}");
        }
    }

    /// Fallible arrival processing: unknown ids, repeated arrivals, and
    /// out-of-order arrival events become typed
    /// [`ConstraintViolation`]s. On error the world is unchanged, so a
    /// live event feed (the serving daemon) can reject the one bad event
    /// and keep going.
    pub fn try_worker_arrives(&mut self, id: WorkerId) -> Result<(), ConstraintViolation> {
        let Some(worker) = self.workers.get_mut(&id) else {
            return Err(ConstraintViolation::UnknownWorker { worker: id });
        };
        if !matches!(worker.state, WorkerState::NotArrived) {
            return Err(ConstraintViolation::WorkerArrivedTwice { worker: id });
        }
        if !(worker.spec.arrival >= self.now || (worker.spec.arrival - self.now).abs() < 1e-9) {
            return Err(ConstraintViolation::ArrivalOutOfOrder {
                worker: id,
                arrival: worker.spec.arrival,
                now: self.now,
            });
        }
        worker.enter_idle(worker.spec.location);
        let entry = IdleWorker {
            id,
            location: worker.location,
            radius: worker.spec.radius,
            entered_at: worker.spec.arrival,
        };
        let platform = worker.spec.platform;
        let shift = self.config.service.shift_secs;
        if shift.is_finite() {
            self.departures.schedule(worker.spec.arrival + shift, id);
        }
        self.waiting[platform.index()].add(entry);
        self.record_occupancy_gauges();
        Ok(())
    }

    /// Idle workers of platform `p` covering `point` (the candidate
    /// *inner* workers for a request of `p`), nearest-first.
    pub fn inner_coverers(&self, p: PlatformId, point: Point) -> Vec<IdleWorker> {
        self.waiting[p.index()].coverers(point)
    }

    /// Allocation-free [`World::inner_coverers`]: candidates land in `out`
    /// (cleared first, same nearest-first order). Matchers that keep the
    /// buffer across decisions stop allocating per request.
    pub fn inner_coverers_into(&self, p: PlatformId, point: Point, out: &mut Vec<IdleWorker>) {
        self.waiting[p.index()].coverers_into(point, out);
    }

    /// The nearest idle inner worker covering `point`.
    pub fn nearest_inner_coverer(&self, p: PlatformId, point: Point) -> Option<IdleWorker> {
        self.waiting[p.index()].nearest_coverer(point)
    }

    /// Idle workers of *other* platforms covering `point` (the candidate
    /// *outer* workers, Definition 2.3), merged nearest-first.
    pub fn outer_coverers(&self, p: PlatformId, point: Point) -> Vec<(PlatformId, IdleWorker)> {
        let mut out = Vec::new();
        self.outer_coverers_into(p, point, &mut out, &mut Vec::new());
        out
    }

    /// Allocation-free [`World::outer_coverers`]: candidates land in `out`
    /// (cleared first, same merged nearest-first order). Per-list results
    /// are appended unsorted and sorted once globally — the (distance, id)
    /// key is total because worker ids are globally unique, so the order
    /// is identical to sorting each list first.
    ///
    /// `_unused` is never touched: it is kept only so existing four-argument
    /// callers still compile. Pass `&mut Vec::new()`, which does not
    /// allocate.
    pub fn outer_coverers_into(
        &self,
        p: PlatformId,
        point: Point,
        out: &mut Vec<(PlatformId, IdleWorker)>,
        _unused: &mut Vec<IdleWorker>,
    ) {
        out.clear();
        for (idx, wl) in self.waiting.iter().enumerate() {
            if idx == p.index() {
                continue;
            }
            let pid = PlatformId(idx as u16);
            wl.coverers_each(point, |w| out.push((pid, w)));
        }
        let metric = self.config.metric;
        out.sort_by(|a, b| {
            metric
                .distance(a.1.location, point)
                .total_cmp(&metric.distance(b.1.location, point))
                .then_with(|| a.1.id.cmp(&b.1.id))
        });
    }

    /// Immutable access to a worker.
    pub fn worker(&self, id: WorkerId) -> &Worker {
        &self.workers[&id]
    }

    /// Non-panicking worker lookup (`None` for unregistered ids).
    pub fn find_worker(&self, id: WorkerId) -> Option<&Worker> {
        self.workers.get(&id)
    }

    /// Whether the worker is currently idle (in some waiting list).
    pub fn is_idle(&self, id: WorkerId) -> bool {
        self.workers[&id].is_idle()
    }

    /// Number of idle workers on platform `p`.
    pub fn idle_count(&self, p: PlatformId) -> usize {
        self.waiting[p.index()].len()
    }

    /// Total registered workers.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Pending re-entry timers (busy workers that will return).
    pub fn pending_reentries(&self) -> usize {
        self.reentries.len()
    }

    /// Assign `worker_id` to `request`, paying the worker `earned`
    /// (`v_r` for inner assignments, the outer payment `v'_r` for
    /// borrowed workers). Removes the worker from its waiting list, marks
    /// it busy, moves it to the request location for when it frees up,
    /// and schedules re-entry when the service model allows. Returns the
    /// service completion time.
    ///
    /// # Panics
    /// Panics if the worker is not idle, its circle does not cover the
    /// request, or the request arrived before the worker entered the
    /// list (time constraint). [`World::try_assign`] is the fallible
    /// form that returns a [`ConstraintViolation`] instead.
    pub fn assign(
        &mut self,
        worker_id: WorkerId,
        request: &RequestSpec,
        earned: Value,
    ) -> Timestamp {
        match self.try_assign(worker_id, request, earned) {
            Ok(until) => until,
            Err(violation) => panic!("{violation}"),
        }
    }

    /// Fallible assignment. All constraint checks run *before* any state
    /// mutation, so on `Err` the world is exactly as it was — callers can
    /// record the violation and keep replaying the stream.
    pub fn try_assign(
        &mut self,
        worker_id: WorkerId,
        request: &RequestSpec,
        earned: Value,
    ) -> Result<Timestamp, ConstraintViolation> {
        let metric = self.config.metric;
        let Some(worker) = self.workers.get_mut(&worker_id) else {
            return Err(ConstraintViolation::UnknownWorker { worker: worker_id });
        };
        if !worker.is_idle() {
            return Err(ConstraintViolation::WorkerNotIdle {
                worker: worker_id,
                request: request.id,
            });
        }
        if !metric.covers(worker.location, request.location, worker.spec.radius) {
            return Err(ConstraintViolation::OutOfRange {
                worker: worker_id,
                request: request.id,
                distance_km: metric.distance(worker.location, request.location),
                radius_km: worker.spec.radius,
            });
        }
        // Check the time constraint via `get` before `remove` so a
        // violation leaves the waiting list untouched.
        let entry = self.waiting[worker.spec.platform.index()]
            .get(worker_id)
            .expect("idle worker missing from waiting list");
        if entry.entered_at > request.arrival {
            return Err(ConstraintViolation::EnteredAfterRequest {
                worker: worker_id,
                request: request.id,
                entered_at: entry.entered_at,
                arrival: request.arrival,
            });
        }
        self.waiting[worker.spec.platform.index()]
            .remove(worker_id)
            .expect("idle worker missing from waiting list");
        let worker = self
            .workers
            .get_mut(&worker_id)
            .expect("worker vanished mid-assign");

        let busy = self.config.service.busy_secs_metric(
            self.config.metric,
            worker.location,
            request.location,
        );
        let until = self.now + busy;
        worker.start_service(until, earned);
        worker.location = request.location;
        if self.config.update_histories {
            worker.history.record(earned);
        }
        if self.config.service.reentry {
            self.reentries.schedule(until, worker_id);
        }
        self.record_occupancy_gauges();
        Ok(until)
    }

    /// Publish occupancy gauges to the telemetry collector (idle pool
    /// size, deepest waiting list, busy workers pending re-entry). A
    /// single flag check when no collector is installed.
    fn record_occupancy_gauges(&self) {
        if !com_obs::is_active() {
            return;
        }
        let idle: usize = self.waiting.iter().map(|w| w.len()).sum();
        let deepest = self.waiting.iter().map(|w| w.len()).max().unwrap_or(0);
        com_obs::gauge_set("world.idle_workers", idle as f64);
        com_obs::gauge_set("world.waiting_list_depth", deepest as f64);
        com_obs::gauge_set("world.busy_workers", self.reentries.len() as f64);
    }

    /// Approximate heap footprint in bytes (memory metric): workers,
    /// waiting lists, and the re-entry queue.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let workers: usize = self
            .workers
            .values()
            .map(|w| w.approx_bytes() + size_of::<WorkerId>() + 16)
            .sum();
        let waiting: usize = self.waiting.iter().map(|w| w.approx_bytes()).sum();
        workers + waiting + self.reentries.len() * (size_of::<(Timestamp, WorkerId)>() + 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use com_stream::RequestId;

    fn ts(s: f64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn world(service: ServiceModel) -> World {
        let config = WorldConfig {
            extent: BoundingBox::square(10.0),
            expected_radius: 1.0,
            service,
            update_histories: false,
            metric: DistanceMetric::Euclidean,
        };
        World::new(config, vec!["DiDi".into(), "Yueche".into()])
    }

    fn wspec(id: u64, platform: u16, t: f64, x: f64, y: f64) -> WorkerSpec {
        WorkerSpec::new(
            WorkerId(id),
            PlatformId(platform),
            ts(t),
            Point::new(x, y),
            1.0,
        )
    }

    fn rspec(id: u64, platform: u16, t: f64, x: f64, y: f64, v: f64) -> RequestSpec {
        RequestSpec::new(
            RequestId(id),
            PlatformId(platform),
            ts(t),
            Point::new(x, y),
            v,
        )
    }

    #[test]
    fn arrival_and_inner_query() {
        let mut w = world(ServiceModel::one_shot());
        w.register_worker(wspec(1, 0, 0.0, 5.0, 5.0), WorkerHistory::new());
        w.register_worker(wspec(2, 1, 0.0, 5.2, 5.0), WorkerHistory::new());
        w.worker_arrives(WorkerId(1));
        w.worker_arrives(WorkerId(2));
        w.advance_to(ts(1.0));

        let inner = w.inner_coverers(PlatformId(0), Point::new(5.1, 5.0));
        assert_eq!(inner.len(), 1);
        assert_eq!(inner[0].id, WorkerId(1));

        let outer = w.outer_coverers(PlatformId(0), Point::new(5.1, 5.0));
        assert_eq!(outer.len(), 1);
        assert_eq!(outer[0].0, PlatformId(1));
        assert_eq!(outer[0].1.id, WorkerId(2));
    }

    #[test]
    fn assignment_locks_worker() {
        let mut w = world(ServiceModel::one_shot());
        w.register_worker(wspec(1, 0, 0.0, 5.0, 5.0), WorkerHistory::new());
        w.worker_arrives(WorkerId(1));
        w.advance_to(ts(10.0));

        let r = rspec(1, 0, 10.0, 5.3, 5.0, 8.0);
        let until = w.assign(WorkerId(1), &r, 8.0);
        assert!(until > ts(10.0));
        assert!(!w.is_idle(WorkerId(1)));
        assert_eq!(w.idle_count(PlatformId(0)), 0);
        assert_eq!(w.worker(WorkerId(1)).earnings, 8.0);
        assert_eq!(w.worker(WorkerId(1)).completed, 1);
        // One-shot: no re-entry scheduled.
        assert_eq!(w.pending_reentries(), 0);
    }

    #[test]
    fn reentry_returns_worker_at_request_location() {
        let mut w = world(ServiceModel::taxi(36.0, 100.0));
        w.register_worker(wspec(1, 0, 0.0, 5.0, 5.0), WorkerHistory::new());
        w.worker_arrives(WorkerId(1));
        w.advance_to(ts(10.0));

        let r = rspec(1, 0, 10.0, 5.5, 5.0, 4.0);
        // 0.5 km at 36 km/h = 50 s travel + 100 s service = busy 150 s.
        let until = w.assign(WorkerId(1), &r, 4.0);
        assert!((until.as_secs() - 160.0).abs() < 1e-9);
        assert_eq!(w.pending_reentries(), 1);

        // Not yet back.
        w.advance_to(ts(100.0));
        assert_eq!(w.idle_count(PlatformId(0)), 0);

        // Back after completion, at the request location.
        w.advance_to(ts(200.0));
        assert_eq!(w.idle_count(PlatformId(0)), 1);
        assert!(w.is_idle(WorkerId(1)));
        assert_eq!(w.worker(WorkerId(1)).location, Point::new(5.5, 5.0));

        // And can be assigned again.
        let r2 = rspec(2, 0, 200.0, 5.6, 5.0, 3.0);
        w.assign(WorkerId(1), &r2, 3.0);
        assert_eq!(w.worker(WorkerId(1)).completed, 2);
    }

    #[test]
    fn outer_coverers_exclude_own_platform_and_sort_by_distance() {
        let mut w = World::new(
            WorldConfig::city(10.0),
            vec!["A".into(), "B".into(), "C".into()],
        );
        w.register_worker(wspec(1, 0, 0.0, 5.0, 5.0), WorkerHistory::new());
        w.register_worker(wspec(2, 1, 0.0, 5.4, 5.0), WorkerHistory::new());
        w.register_worker(wspec(3, 2, 0.0, 5.2, 5.0), WorkerHistory::new());
        for id in 1..=3 {
            w.worker_arrives(WorkerId(id));
        }
        let outer = w.outer_coverers(PlatformId(0), Point::new(5.0, 5.0));
        let ids: Vec<u64> = outer.iter().map(|(_, w)| w.id.as_u64()).collect();
        assert_eq!(ids, vec![3, 2]);
    }

    #[test]
    fn histories_update_only_when_enabled() {
        let mut config = WorldConfig::city(10.0);
        config.service = ServiceModel::one_shot();
        config.update_histories = true;
        let mut w = World::new(config, vec!["A".into(), "B".into()]);
        w.register_worker(
            wspec(1, 0, 0.0, 5.0, 5.0),
            WorkerHistory::from_values(vec![10.0]),
        );
        w.worker_arrives(WorkerId(1));
        w.advance_to(ts(5.0));
        w.assign(WorkerId(1), &rspec(1, 0, 5.0, 5.1, 5.0, 6.0), 6.0);
        assert_eq!(w.worker(WorkerId(1)).history.values(), &[6.0, 10.0]);
    }

    #[test]
    #[should_panic(expected = "not idle")]
    fn cannot_assign_busy_worker() {
        let mut w = world(ServiceModel::one_shot());
        w.register_worker(wspec(1, 0, 0.0, 5.0, 5.0), WorkerHistory::new());
        w.worker_arrives(WorkerId(1));
        w.advance_to(ts(5.0));
        let r1 = rspec(1, 0, 5.0, 5.1, 5.0, 2.0);
        let r2 = rspec(2, 0, 5.0, 5.2, 5.0, 2.0);
        w.assign(WorkerId(1), &r1, 2.0);
        w.assign(WorkerId(1), &r2, 2.0);
    }

    #[test]
    #[should_panic(expected = "range constraint")]
    fn cannot_assign_out_of_range() {
        let mut w = world(ServiceModel::one_shot());
        w.register_worker(wspec(1, 0, 0.0, 1.0, 1.0), WorkerHistory::new());
        w.worker_arrives(WorkerId(1));
        w.advance_to(ts(5.0));
        w.assign(WorkerId(1), &rspec(1, 0, 5.0, 9.0, 9.0, 2.0), 2.0);
    }

    #[test]
    #[should_panic(expected = "time must be monotone")]
    fn time_cannot_rewind() {
        let mut w = world(ServiceModel::one_shot());
        w.advance_to(ts(10.0));
        w.advance_to(ts(5.0));
    }

    #[test]
    #[should_panic(expected = "duplicate worker id")]
    fn duplicate_registration_rejected() {
        let mut w = world(ServiceModel::one_shot());
        w.register_worker(wspec(1, 0, 0.0, 1.0, 1.0), WorkerHistory::new());
        w.register_worker(wspec(1, 0, 0.0, 2.0, 2.0), WorkerHistory::new());
    }

    #[test]
    fn reentry_order_is_deterministic_for_ties() {
        let mut w = world(ServiceModel::taxi(30.0, 100.0));
        // Two workers assigned to zero-distance requests at the same time
        // finish simultaneously; both must come back.
        w.register_worker(wspec(1, 0, 0.0, 5.0, 5.0), WorkerHistory::new());
        w.register_worker(wspec(2, 0, 0.0, 6.0, 6.0), WorkerHistory::new());
        w.worker_arrives(WorkerId(1));
        w.worker_arrives(WorkerId(2));
        w.advance_to(ts(1.0));
        w.assign(WorkerId(1), &rspec(1, 0, 1.0, 5.0, 5.0, 2.0), 2.0);
        w.assign(WorkerId(2), &rspec(2, 0, 1.0, 6.0, 6.0, 2.0), 2.0);
        w.advance_to(ts(500.0));
        assert_eq!(w.idle_count(PlatformId(0)), 2);
    }

    #[test]
    fn idle_workers_depart_at_shift_end() {
        let mut config = WorldConfig::city(10.0);
        config.service = ServiceModel::taxi(30.0, 100.0).with_shift(1_000.0);
        let mut w = World::new(config, vec!["A".into()]);
        w.register_worker(wspec(1, 0, 0.0, 5.0, 5.0), WorkerHistory::new());
        w.worker_arrives(WorkerId(1));
        w.advance_to(ts(999.0));
        assert_eq!(w.idle_count(PlatformId(0)), 1);
        w.advance_to(ts(1_000.0));
        assert_eq!(w.idle_count(PlatformId(0)), 0);
        assert_eq!(w.worker(WorkerId(1)).state, WorkerState::Departed);
    }

    #[test]
    fn busy_workers_finish_their_job_then_depart() {
        let mut config = WorldConfig::city(10.0);
        config.service = ServiceModel::taxi(30.0, 2_000.0).with_shift(1_000.0);
        let mut w = World::new(config, vec!["A".into()]);
        w.register_worker(wspec(1, 0, 0.0, 5.0, 5.0), WorkerHistory::new());
        w.worker_arrives(WorkerId(1));
        w.advance_to(ts(500.0));
        // Assigned before shift end; the job runs past it.
        w.assign(WorkerId(1), &rspec(1, 0, 500.0, 5.0, 5.0, 4.0), 4.0);
        w.advance_to(ts(5_000.0));
        // The worker completed the job (invariable constraint) but did
        // not re-enter the waiting list.
        assert_eq!(w.worker(WorkerId(1)).completed, 1);
        assert_eq!(w.worker(WorkerId(1)).state, WorkerState::Departed);
        assert_eq!(w.idle_count(PlatformId(0)), 0);
    }

    #[test]
    fn infinite_shifts_never_depart() {
        let mut w = world(ServiceModel::taxi(30.0, 100.0));
        w.register_worker(wspec(1, 0, 0.0, 5.0, 5.0), WorkerHistory::new());
        w.worker_arrives(WorkerId(1));
        w.advance_to(ts(80_000.0));
        assert_eq!(w.idle_count(PlatformId(0)), 1);
    }

    #[test]
    fn try_assign_reports_violations_without_mutating() {
        let mut w = world(ServiceModel::one_shot());
        w.register_worker(wspec(1, 0, 0.0, 5.0, 5.0), WorkerHistory::new());
        w.worker_arrives(WorkerId(1));
        w.advance_to(ts(5.0));

        // Unknown worker.
        let err = w
            .try_assign(WorkerId(99), &rspec(1, 0, 5.0, 5.0, 5.0, 2.0), 2.0)
            .unwrap_err();
        assert_eq!(
            err,
            ConstraintViolation::UnknownWorker {
                worker: WorkerId(99)
            }
        );

        // Out of range: worker stays idle and in the waiting list.
        let err = w
            .try_assign(WorkerId(1), &rspec(2, 0, 5.0, 9.0, 9.0, 2.0), 2.0)
            .unwrap_err();
        assert!(matches!(err, ConstraintViolation::OutOfRange { .. }));
        assert!(w.is_idle(WorkerId(1)));
        assert_eq!(w.idle_count(PlatformId(0)), 1);

        // Time constraint: request that arrived before the worker entered.
        let err = w
            .try_assign(WorkerId(1), &rspec(3, 0, -1.0, 5.1, 5.0, 2.0), 2.0)
            .unwrap_err();
        assert!(matches!(
            err,
            ConstraintViolation::EnteredAfterRequest { .. }
        ));
        assert!(w.is_idle(WorkerId(1)));
        assert_eq!(w.idle_count(PlatformId(0)), 1);
        assert_eq!(w.worker(WorkerId(1)).completed, 0);

        // A valid assignment still goes through afterwards.
        let until = w
            .try_assign(WorkerId(1), &rspec(4, 0, 5.0, 5.1, 5.0, 2.0), 2.0)
            .unwrap();
        assert!(until > ts(5.0));

        // Busy worker.
        let err = w
            .try_assign(WorkerId(1), &rspec(5, 0, 5.0, 5.1, 5.0, 2.0), 2.0)
            .unwrap_err();
        assert_eq!(
            err,
            ConstraintViolation::WorkerNotIdle {
                worker: WorkerId(1),
                request: RequestId(5),
            }
        );
    }

    #[test]
    fn try_register_and_advance_report_violations() {
        let mut w = world(ServiceModel::one_shot());
        w.try_register_worker(wspec(1, 0, 0.0, 1.0, 1.0), WorkerHistory::new())
            .unwrap();
        let err = w
            .try_register_worker(wspec(1, 0, 0.0, 2.0, 2.0), WorkerHistory::new())
            .unwrap_err();
        assert_eq!(
            err,
            ConstraintViolation::DuplicateWorker {
                worker: WorkerId(1)
            }
        );
        let err = w
            .try_register_worker(wspec(2, 7, 0.0, 2.0, 2.0), WorkerHistory::new())
            .unwrap_err();
        assert!(matches!(err, ConstraintViolation::UnknownPlatform { .. }));
        assert_eq!(w.worker_count(), 1);

        w.try_advance_to(ts(10.0)).unwrap();
        let err = w.try_advance_to(ts(5.0)).unwrap_err();
        assert_eq!(
            err,
            ConstraintViolation::TimeRewind {
                now: ts(10.0),
                to: ts(5.0),
            }
        );
        assert_eq!(w.now(), ts(10.0));
    }

    #[test]
    fn memory_footprint_grows_with_workers() {
        let mut w = world(ServiceModel::one_shot());
        let before = w.approx_bytes();
        for id in 0..100 {
            w.register_worker(
                wspec(id, 0, 0.0, 5.0, 5.0),
                WorkerHistory::from_values(vec![1.0, 2.0, 3.0]),
            );
        }
        assert!(w.approx_bytes() > before);
    }
}
