//! OFF — the offline baseline (Section II-B).
//!
//! The offline version of COM knows the spatiotemporal information, the
//! arrival order, *and* the outer payments in advance, and reduces to
//! maximum-weight bipartite matching (the paper's Fig. 4): workers on one
//! side, requests on the other, an edge where the time and range
//! constraints hold, weighted `v_r` for an inner worker and `v_r − v'_w`
//! for an outer worker (with full knowledge, the outer payment is the
//! worker's acceptance floor — the smallest value in its history).
//!
//! The instance's service model picks the solver:
//!
//! * one-shot service (a worker serves at most once) is exactly Fig. 4:
//!   the sparse min-cost flow of `ssp.rs` solves it, and it is the
//!   optimum competitive ratios are measured against;
//! * re-entry service (a worker rejoins after each job, as in the paper's
//!   day-long tables) is solved by a full-knowledge value-descending
//!   scheduler; not provably optimal, documented as such in
//!   EXPERIMENTS.md.

use serde::{Deserialize, Serialize};

use com_sim::{
    IdleWorker, Instance, PlatformId, RequestSpec, Value, WaitingList, WorkerId, WorkerSpec,
};

use crate::graph::BipartiteGraph;
use crate::ssp::ssp_max_weight;

/// The outcome of an offline solve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OfflineResult {
    pub total_revenue: Value,
    pub completed: usize,
    /// Revenue attributed to each platform (by the platform that owns the
    /// request).
    pub revenue_by_platform: Vec<Value>,
    /// Completed requests per platform.
    pub completed_by_platform: Vec<usize>,
}

/// The offline-known outer payment of worker `w`: its acceptance floor.
/// Workers with empty histories accept any positive payment, i.e. a floor
/// of zero.
fn acceptance_floor(instance: &Instance, w: &WorkerSpec) -> Value {
    instance
        .histories
        .get(&w.id)
        .and_then(|h| h.min_accepted_payment())
        .unwrap_or(0.0)
}

/// The offline edge weight for worker `w`, whose range covers request
/// `r`, serving `r`; `None` when infeasible (time violated — the worker
/// not yet arrived or its shift over, the window `World::advance_to`
/// keeps — or the outer floor eats the whole value).
fn edge_weight(instance: &Instance, w: &WorkerSpec, r: &RequestSpec) -> Option<Value> {
    if w.arrival > r.arrival || r.arrival - w.arrival >= instance.config.service.shift_secs {
        return None;
    }
    let weight = if w.platform == r.platform {
        r.value
    } else {
        r.value - acceptance_floor(instance, w)
    };
    (weight > 0.0).then_some(weight)
}

/// Every worker of the instance in one waiting list, so edge discovery
/// probes only the workers whose range can cover a request. A worker's id
/// is its index in `workers`, and it entered at its arrival.
fn index_workers(instance: &Instance, workers: &[WorkerSpec]) -> WaitingList {
    let config = &instance.config;
    let mut list = WaitingList::with_metric(config.extent, config.expected_radius, config.metric);
    for (i, w) in workers.iter().enumerate() {
        list.add(IdleWorker {
            id: WorkerId(i as u64),
            location: w.location,
            radius: w.radius,
            entered_at: w.arrival,
        });
    }
    list
}

/// Build the Fig. 4 bipartite graph; `requests` is the instance's requests
/// in stream order, indexed like the graph's right side.
fn build_graph(instance: &Instance, requests: &[RequestSpec]) -> BipartiteGraph {
    let workers: Vec<WorkerSpec> = instance.stream.workers().copied().collect();
    let index = index_workers(instance, &workers);
    let mut graph = BipartiteGraph::new(workers.len(), requests.len());
    for (j, r) in requests.iter().enumerate() {
        index.coverers_each(r.location, |c| {
            let i = c.id.as_u64() as usize;
            if let Some(w) = edge_weight(instance, &workers[i], r) {
                graph.add_edge(i, j, w);
            }
        });
    }
    graph
}

/// Solve the offline COM instance: the exact Fig. 4 matching under
/// one-shot service, the re-entry scheduler when workers re-enter.
pub fn offline_solve(instance: &Instance) -> OfflineResult {
    let platforms = instance.platform_names.len();
    let mut revenue_by_platform = vec![0.0; platforms];
    let mut completed_by_platform = vec![0usize; platforms];

    let mut credit = |platform: PlatformId, revenue: Value| {
        revenue_by_platform[platform.index()] += revenue;
        completed_by_platform[platform.index()] += 1;
    };

    if instance.config.service.reentry {
        greedy_schedule(instance, &mut credit);
    } else {
        let requests: Vec<RequestSpec> = instance.stream.requests().copied().collect();
        for (_, j, w) in ssp_max_weight(&build_graph(instance, &requests)).pairs {
            credit(requests[j].platform, w);
        }
    }

    OfflineResult {
        total_revenue: revenue_by_platform.iter().sum(),
        completed: completed_by_platform.iter().sum(),
        revenue_by_platform,
        completed_by_platform,
    }
}

/// Full-knowledge scheduler with worker re-entry: requests in descending
/// value order each grab the best feasible worker that is free for the
/// request's service window. Worker locations are approximated by their
/// initial positions (travel-induced drift is second-order for the
/// revenue bound; see DESIGN.md).
fn greedy_schedule<F: FnMut(PlatformId, Value)>(instance: &Instance, credit: &mut F) {
    let workers: Vec<WorkerSpec> = instance.stream.workers().copied().collect();
    let requests: Vec<RequestSpec> = instance.stream.requests().copied().collect();
    let service = instance.config.service;

    let index = index_workers(instance, &workers);

    // Busy intervals per worker, kept sorted by start.
    let mut busy: Vec<Vec<(f64, f64)>> = vec![Vec::new(); workers.len()];

    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by(|&a, &b| {
        requests[b]
            .value
            .total_cmp(&requests[a].value)
            .then_with(|| requests[a].id.cmp(&requests[b].id))
    });

    for j in order {
        let r = &requests[j];
        let start = r.arrival.as_secs();

        // Best candidate: highest edge weight, then nearest, then id.
        let mut best: Option<(f64, f64, usize)> = None;
        index.coverers_each(r.location, |c| {
            let i = c.id.as_u64() as usize;
            let w = &workers[i];
            let Some(weight) = edge_weight(instance, w, r) else {
                return;
            };
            let end =
                start + service.busy_secs_metric(instance.config.metric, w.location, r.location);
            let overlaps = busy[i].iter().any(|&(s, e)| s < end && start < e);
            if overlaps {
                return;
            }
            let dist = instance.config.metric.distance(w.location, r.location);
            let better = match best {
                None => true,
                Some((bw, bd, bi)) => {
                    weight > bw + 1e-12
                        || ((weight - bw).abs() <= 1e-12 && (dist < bd || (dist == bd && i < bi)))
                }
            };
            if better {
                best = Some((weight, dist, i));
            }
        });

        if let Some((weight, _, i)) = best {
            let end = start
                + service.busy_secs_metric(instance.config.metric, workers[i].location, r.location);
            let pos = busy[i].partition_point(|&(s, _)| s < start);
            busy[i].insert(pos, (start, end));
            credit(r.platform, weight);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use com_geo::Point;
    use com_pricing::WorkerHistory;
    use com_sim::{EventStream, RequestId, ServiceModel, Timestamp, WorkerId, WorldConfig};
    use std::collections::HashMap;

    fn ts(s: f64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    /// Two platforms; platform 0 has one inner worker, platform 1 lends
    /// one outer worker (floor 2).
    fn small_instance(one_shot: bool) -> Instance {
        let p0 = PlatformId(0);
        let p1 = PlatformId(1);
        let workers = vec![
            WorkerSpec::new(WorkerId(1), p0, ts(0.0), Point::new(2.0, 2.0), 1.0),
            WorkerSpec::new(WorkerId(2), p1, ts(0.0), Point::new(4.0, 2.0), 1.0),
        ];
        let requests = vec![
            RequestSpec::new(RequestId(1), p0, ts(10.0), Point::new(2.2, 2.0), 8.0),
            RequestSpec::new(RequestId(2), p0, ts(20.0), Point::new(4.2, 2.0), 6.0),
            RequestSpec::new(RequestId(3), p0, ts(30.0), Point::new(9.0, 9.0), 5.0),
        ];
        let mut histories = HashMap::new();
        histories.insert(WorkerId(2), WorkerHistory::from_values(vec![2.0]));
        let mut config = WorldConfig::city(10.0);
        config.service = if one_shot {
            ServiceModel::one_shot()
        } else {
            ServiceModel::taxi(30.0, 60.0)
        };
        Instance {
            config,
            platform_names: vec!["A".into(), "B".into()],
            histories,
            stream: EventStream::from_specs(workers, requests),
        }
    }

    #[test]
    fn exact_bipartite_solves_the_small_instance() {
        let inst = small_instance(true);
        let off = offline_solve(&inst);
        // w1 → r1 (8), w2 → r2 (6 − 2 = 4); r3 unreachable.
        assert_eq!(off.completed, 2);
        assert_eq!(off.total_revenue, 12.0);
        assert_eq!(off.revenue_by_platform, vec![12.0, 0.0]);
        assert_eq!(off.completed_by_platform, vec![2, 0]);
    }

    #[test]
    fn greedy_schedule_reuses_workers_under_reentry() {
        // Two requests near the same worker, far apart in time: one-shot
        // serves one; re-entry serves both.
        let p0 = PlatformId(0);
        let workers = vec![WorkerSpec::new(
            WorkerId(1),
            p0,
            ts(0.0),
            Point::new(2.0, 2.0),
            1.0,
        )];
        let requests = vec![
            RequestSpec::new(RequestId(1), p0, ts(10.0), Point::new(2.1, 2.0), 5.0),
            RequestSpec::new(RequestId(2), p0, ts(5_000.0), Point::new(2.2, 2.0), 4.0),
        ];
        let mut config = WorldConfig::city(10.0);
        config.service = ServiceModel::taxi(30.0, 60.0);
        let inst = Instance {
            config,
            platform_names: vec!["A".into()],
            histories: HashMap::new(),
            stream: EventStream::from_specs(workers, requests),
        };
        let off = offline_solve(&inst);
        assert_eq!(off.completed, 2);
        assert_eq!(off.total_revenue, 9.0);

        let mut one_shot = inst.clone();
        one_shot.config.service = ServiceModel::one_shot();
        let off1 = offline_solve(&one_shot);
        assert_eq!(off1.completed, 1);
        assert_eq!(off1.total_revenue, 5.0);
    }

    #[test]
    fn greedy_schedule_respects_busy_windows() {
        // Two requests overlapping in time on a single worker: only the
        // more valuable is served.
        let p0 = PlatformId(0);
        let workers = vec![WorkerSpec::new(
            WorkerId(1),
            p0,
            ts(0.0),
            Point::new(2.0, 2.0),
            1.0,
        )];
        let requests = vec![
            RequestSpec::new(RequestId(1), p0, ts(10.0), Point::new(2.1, 2.0), 5.0),
            RequestSpec::new(RequestId(2), p0, ts(20.0), Point::new(2.2, 2.0), 9.0),
        ];
        let mut config = WorldConfig::city(10.0);
        config.service = ServiceModel::taxi(30.0, 600.0);
        let inst = Instance {
            config,
            platform_names: vec!["A".into()],
            histories: HashMap::new(),
            stream: EventStream::from_specs(workers, requests),
        };
        let off = offline_solve(&inst);
        assert_eq!(off.completed, 1);
        assert_eq!(off.total_revenue, 9.0);
    }

    #[test]
    fn outer_floor_above_value_produces_no_edge() {
        let p0 = PlatformId(0);
        let p1 = PlatformId(1);
        let workers = vec![WorkerSpec::new(
            WorkerId(1),
            p1,
            ts(0.0),
            Point::new(2.0, 2.0),
            1.0,
        )];
        let requests = vec![RequestSpec::new(
            RequestId(1),
            p0,
            ts(10.0),
            Point::new(2.1, 2.0),
            5.0,
        )];
        let mut histories = HashMap::new();
        histories.insert(WorkerId(1), WorkerHistory::from_values(vec![50.0]));
        let mut inst = Instance {
            config: WorldConfig::city(10.0),
            platform_names: vec!["A".into(), "B".into()],
            histories,
            stream: EventStream::from_specs(workers, requests),
        };
        for service in [ServiceModel::one_shot(), ServiceModel::taxi(30.0, 60.0)] {
            inst.config.service = service;
            let off = offline_solve(&inst);
            assert_eq!(off.completed, 0, "{service:?}");
            assert_eq!(off.total_revenue, 0.0, "{service:?}");
        }
    }

    #[test]
    fn a_closed_shift_gives_no_edge_under_either_service_model() {
        // One worker arriving at 0 s with a 100 s shift: a request at 50 s
        // is served, the same request at 500 s finds the worker gone.
        let p0 = PlatformId(0);
        let workers = vec![WorkerSpec::new(
            WorkerId(1),
            p0,
            ts(0.0),
            Point::new(2.0, 2.0),
            1.0,
        )];
        for (at, completed) in [(50.0, 1), (500.0, 0)] {
            let requests = vec![RequestSpec::new(
                RequestId(1),
                p0,
                ts(at),
                Point::new(2.1, 2.0),
                5.0,
            )];
            for service in [ServiceModel::one_shot(), ServiceModel::taxi(30.0, 60.0)] {
                let mut config = WorldConfig::city(10.0);
                config.service = service.with_shift(100.0);
                let inst = Instance {
                    config,
                    platform_names: vec!["A".into()],
                    histories: HashMap::new(),
                    stream: EventStream::from_specs(workers.clone(), requests.clone()),
                };
                let off = offline_solve(&inst);
                let service = inst.config.service;
                assert_eq!(off.completed, completed, "request at {at} s, {service:?}");
            }
        }
    }

    #[test]
    fn time_constraint_blocks_late_workers() {
        // Worker arrives after the request: no edge.
        let p0 = PlatformId(0);
        let workers = vec![WorkerSpec::new(
            WorkerId(1),
            p0,
            ts(100.0),
            Point::new(2.0, 2.0),
            1.0,
        )];
        let requests = vec![RequestSpec::new(
            RequestId(1),
            p0,
            ts(10.0),
            Point::new(2.1, 2.0),
            5.0,
        )];
        let mut config = WorldConfig::city(10.0);
        config.service = ServiceModel::one_shot();
        let inst = Instance {
            config,
            platform_names: vec!["A".into()],
            histories: HashMap::new(),
            stream: EventStream::from_specs(workers, requests),
        };
        let off = offline_solve(&inst);
        assert_eq!(off.completed, 0);
    }
}
