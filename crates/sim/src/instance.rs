//! A self-contained problem instance: the input `G(T, W_in, W_out)` of the
//! competitive-ratio definitions.
//!
//! An [`Instance`] bundles everything needed to replay one COM scenario —
//! the world configuration, the platform roster, every worker's acceptance
//! history, and the global arrival stream — so the same instance can be
//! fed to every algorithm (and to the offline solver) for an
//! apples-to-apples comparison.

use std::collections::HashMap;

use com_pricing::WorkerHistory;

use crate::{EventStream, WorkerId, World, WorldConfig};

/// One replayable COM problem instance.
#[derive(Debug, Clone)]
pub struct Instance {
    pub config: WorldConfig,
    pub platform_names: Vec<String>,
    /// Acceptance history per worker (drives Definition 3.1).
    pub histories: HashMap<WorkerId, WorkerHistory>,
    /// The global arrival order across all platforms.
    pub stream: EventStream,
}

impl Instance {
    /// Build the initial world: every worker registered (state
    /// `NotArrived`), clock at zero. The engine replays `self.stream`
    /// against it.
    ///
    /// # Panics
    /// Panics with the violation's text on a duplicate worker id or a
    /// worker of a platform outside the roster.
    pub fn build_world(&self) -> World {
        let mut world = World::new(self.config.clone(), self.platform_names.clone());
        for spec in self.stream.workers() {
            let history = self.histories.get(&spec.id).cloned().unwrap_or_default();
            if let Err(violation) = world.register_worker(*spec, history) {
                panic!("{violation}");
            }
        }
        world
    }

    /// Total number of requests.
    pub fn request_count(&self) -> usize {
        self.stream.request_count()
    }

    /// Total number of workers.
    pub fn worker_count(&self) -> usize {
        self.stream.worker_count()
    }

    /// Largest request value (`max v_r`), or `None` with no requests.
    pub fn max_value(&self) -> Option<f64> {
        self.stream.max_value()
    }

    /// A copy of this instance with its arrival order permuted (for the
    /// random-order competitive-ratio model). `permutation[i]` is the
    /// index into the current stream of the event that comes i-th.
    pub fn permuted(&self, permutation: &[usize]) -> Instance {
        Instance {
            config: self.config.clone(),
            platform_names: self.platform_names.clone(),
            histories: self.histories.clone(),
            stream: self.stream.permuted(permutation),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PlatformId, RequestId, RequestSpec, Timestamp, WorkerSpec};
    use com_geo::Point;

    fn tiny_instance() -> Instance {
        let workers = vec![WorkerSpec::new(
            WorkerId(1),
            PlatformId(0),
            Timestamp::from_secs(0.0),
            Point::new(1.0, 1.0),
            1.0,
        )];
        let requests = vec![RequestSpec::new(
            RequestId(1),
            PlatformId(0),
            Timestamp::from_secs(1.0),
            Point::new(1.2, 1.0),
            7.0,
        )];
        let mut histories = HashMap::new();
        histories.insert(WorkerId(1), WorkerHistory::from_values(vec![3.0, 6.0]));
        Instance {
            config: WorldConfig::city(10.0),
            platform_names: vec!["A".into(), "B".into()],
            histories,
            stream: EventStream::from_specs(workers, requests),
        }
    }

    #[test]
    fn build_world_registers_all_workers() {
        let inst = tiny_instance();
        let world = inst.build_world();
        assert_eq!(world.worker_count(), 1);
        assert_eq!(world.platform_count(), 2);
        assert_eq!(world.worker(WorkerId(1)).history.values(), &[3.0, 6.0]);
    }

    #[test]
    fn counts_and_max_value() {
        let inst = tiny_instance();
        assert_eq!(inst.request_count(), 1);
        assert_eq!(inst.worker_count(), 1);
        assert_eq!(inst.max_value(), Some(7.0));
    }

    #[test]
    fn permuted_leaves_original_untouched() {
        let inst = tiny_instance();
        let p = inst.permuted(&[1, 0]);
        assert_eq!(inst.stream.len(), p.stream.len());
        assert_ne!(inst.stream, p.stream);
    }
}
