//! Everything a workload feeds the system, derived from `--seed` alone:
//! generated instances, their events pre-encoded to wire bytes, and the
//! open-loop arrival schedule. All of it is built before any clock
//! starts, so client-side encoding never shows up in a served number.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use com_datagen::{generate, profiles, ScenarioConfig};
use com_serve::{encode, write_frame, ClientFrame, ClientMsg, Hello, WireFormat, WorkerMsg};
use com_sim::{ArrivalEvent, Instance};

use crate::spec::{InstanceKind, Topology, Workload, BLOCKS, OPEN_LOOP_SHARE};

/// The scenario behind an [`InstanceKind`], seeded with `seed`. Built
/// from outside through `ScenarioConfig`'s public fields only.
pub fn scenario(kind: InstanceKind, seed: u64) -> ScenarioConfig {
    let mut cfg = profiles::chengdu_oct();
    for p in &mut cfg.platforms {
        match kind {
            InstanceKind::City => {
                p.n_requests *= 10;
                p.n_workers *= 10;
            }
            InstanceKind::Town => {}
            InstanceKind::Hamlet => {
                p.n_requests /= 4;
                p.n_workers /= 4;
            }
        }
    }
    cfg.seed = seed;
    cfg
}

/// One logical session: an instance, the seed its matcher runs with, and
/// its mux address (`None` = bare).
pub struct SessionInput {
    pub instance: Instance,
    pub seed: u64,
    pub sid: Option<u64>,
}

/// The sessions a workload drives: one for the bare workloads, seeds
/// `s…s+n-1` for `shards_mux` (sids `0…n-1`).
pub fn sessions(w: &Workload, seed: u64) -> Vec<SessionInput> {
    let (n, mux) = match w.topology {
        Topology::Bare => (1, false),
        Topology::Mux { sessions, .. } => (sessions, true),
        Topology::FedPair => (1, false),
    };
    (0..n as u64)
        .map(|i| SessionInput {
            instance: generate(&scenario(w.instance, seed.wrapping_add(i))),
            seed: seed.wrapping_add(i),
            sid: mux.then_some(i),
        })
        .collect()
}

/// Serialise one client message in `format`, mux-enveloped when `sid` is
/// set — the same two encoders `com_serve::Client` uses.
pub fn put_msg(format: WireFormat, sid: Option<u64>, msg: ClientMsg, out: &mut Vec<u8>) {
    match (format, sid) {
        (WireFormat::Binary, None) => write_frame(&msg, out),
        (WireFormat::Binary, Some(_)) => write_frame(&ClientFrame { sid, msg }, out),
        (WireFormat::Ndjson, None) => {
            out.extend_from_slice(encode(&msg).as_bytes());
            out.push(b'\n');
        }
        (WireFormat::Ndjson, Some(_)) => {
            out.extend_from_slice(encode(&ClientFrame { sid, msg }).as_bytes());
            out.push(b'\n');
        }
    }
}

/// The protocol message for one arrival event (workers carry their
/// acceptance history, as `client::replay_scenario` sends them).
pub fn event_msg(instance: &Instance, event: &ArrivalEvent) -> ClientMsg {
    match event {
        ArrivalEvent::Worker(spec) => ClientMsg::worker(WorkerMsg {
            spec: *spec,
            history: instance.histories.get(&spec.id).cloned(),
        }),
        ArrivalEvent::Request(spec) => ClientMsg::request(*spec),
    }
}

/// The `hello` line for a session. Always NDJSON — framing switches only
/// after the `welcome`.
fn hello_line(s: &SessionInput, matcher: &str, format: WireFormat) -> Vec<u8> {
    let hello = ClientMsg::hello(Hello {
        matcher: matcher.to_string(),
        seed: s.seed,
        world: s.instance.config.clone(),
        platforms: s.instance.platform_names.clone(),
        max_value: s.instance.max_value(),
        frame: Some(format.as_str().to_string()),
        origin: None,
        fed: None,
    });
    let mut out = Vec::new();
    put_msg(WireFormat::Ndjson, s.sid, hello, &mut out);
    out
}

/// Where one event of the global send order goes.
#[derive(Debug, Clone, Copy)]
pub struct EventRef {
    pub conn: u16,
    /// Index into the workload's session list.
    pub session: u16,
    pub is_request: bool,
}

/// One connection's share of the stream: its sessions' `hello`s, the
/// pre-encoded events in send order, and the closing messages.
#[derive(Default)]
pub struct ConnPlan {
    /// Session indices this connection carries.
    pub sessions: Vec<usize>,
    pub hellos: Vec<Vec<u8>>,
    pub bytes: Vec<u8>,
    /// End offset in `bytes` of each event, in this connection's order.
    pub ends: Vec<usize>,
    /// One `shutdown` per session, in `sessions` order.
    pub shutdowns: Vec<Vec<u8>>,
}

/// A workload's whole wire plan: per-connection byte streams plus the
/// global order the open-loop schedule walks.
pub struct WirePlan {
    pub conns: Vec<ConnPlan>,
    /// Global send order: sessions interleaved round-robin, event `i` of
    /// every session before event `i+1` of any.
    pub order: Vec<EventRef>,
}

impl WirePlan {
    pub fn events(&self) -> usize {
        self.order.len()
    }
}

/// Pre-encode `sessions` for `connections` sockets; session `i` rides
/// connection `i % connections`.
pub fn wire_plan(
    sessions: &[SessionInput],
    matcher: &str,
    format: WireFormat,
    connections: usize,
) -> WirePlan {
    let mut conns: Vec<ConnPlan> = (0..connections).map(|_| ConnPlan::default()).collect();
    for (i, s) in sessions.iter().enumerate() {
        let c = &mut conns[i % connections];
        c.sessions.push(i);
        c.hellos.push(hello_line(s, matcher, format));
        let mut bye = Vec::new();
        put_msg(format, s.sid, ClientMsg::shutdown, &mut bye);
        c.shutdowns.push(bye);
    }
    let longest = sessions
        .iter()
        .map(|s| s.instance.stream.len())
        .max()
        .unwrap_or(0);
    let mut cursors: Vec<_> = sessions.iter().map(|s| s.instance.stream.iter()).collect();
    let mut order = Vec::with_capacity(sessions.iter().map(|s| s.instance.stream.len()).sum());
    for _ in 0..longest {
        for (i, cursor) in cursors.iter_mut().enumerate() {
            let Some(event) = cursor.next() else { continue };
            let conn = i % connections;
            let c = &mut conns[conn];
            put_msg(
                format,
                sessions[i].sid,
                event_msg(&sessions[i].instance, event),
                &mut c.bytes,
            );
            c.ends.push(c.bytes.len());
            order.push(EventRef {
                conn: conn as u16,
                session: i as u16,
                is_request: event.is_request(),
            });
        }
    }
    WirePlan { conns, order }
}

/// Boundaries of a served pass's blocks over a stream of `n` events:
/// `BLOCKS + 1` offsets, block `b` = `bounds[b]..bounds[b + 1]`. Even
/// blocks are closed loop, odd ones open loop; each closed/open pair
/// covers an equal share of the stream and the open block takes
/// [`OPEN_LOOP_SHARE`] of the pair.
pub fn block_bounds(n: usize) -> Vec<usize> {
    let pairs = BLOCKS / 2;
    let mut bounds = vec![0];
    for p in 0..pairs {
        let (from, upto) = (n * p / pairs, n * (p + 1) / pairs);
        let open = ((upto - from) as f64 * OPEN_LOOP_SHARE).round() as usize;
        bounds.push(upto - open);
        bounds.push(upto);
    }
    bounds
}

/// Whether block `b` of a served pass is an open-loop block.
pub fn is_open_loop(block: usize) -> bool {
    block % 2 == 1
}

/// Seeded Poisson arrival schedule for a stream of `n` events sent in the
/// blocks of [`block_bounds`]: entry `k` is event `k`'s send instant in
/// nanoseconds *from the start of its block*, exponential gaps with mean
/// `1/rate` (entries of closed-loop blocks are unused). The same seed
/// gives the same schedule; the program under test never sees the seed.
pub fn block_schedule(n: usize, rate: f64, seed: u64) -> Vec<u64> {
    assert!(rate > 0.0, "open-loop rate must be positive");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0A11_0CA7_ED5C_4ED1);
    let mut due = Vec::with_capacity(n);
    for block in block_bounds(n).windows(2) {
        let mut t = 0.0f64;
        for _ in block[0]..block[1] {
            // Inverse-CDF draw; 1-u keeps the argument of ln in (0, 1].
            let u: f64 = rng.random();
            t += -(1.0 - u).ln() / rate;
            due.push((t * 1e9) as u64);
        }
    }
    due
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn instance_sizes_are_table_iii_scale() {
        let city = scenario(InstanceKind::City, 1);
        assert_eq!(city.total_requests(), 181_910);
        assert_eq!(city.total_workers(), 16_190);
        let town = scenario(InstanceKind::Town, 1);
        assert_eq!(town.total_requests() + town.total_workers(), 19_810);
    }

    #[test]
    fn generated_events_repeat_for_equal_seeds_and_differ_otherwise() {
        for kind in [InstanceKind::Town, InstanceKind::City] {
            let a = generate(&scenario(kind, 7));
            let b = generate(&scenario(kind, 7));
            let c = generate(&scenario(kind, 8));
            assert_eq!(a.stream.len(), b.stream.len());
            assert_eq!(a.stream, b.stream, "{kind:?}: equal seeds, equal events");
            assert_eq!(a.stream.len(), c.stream.len());
            assert_ne!(a.stream, c.stream, "{kind:?}: different seeds differ");
        }
    }

    #[test]
    fn blocks_alternate_and_open_loop_takes_its_share() {
        let b = block_bounds(198_100);
        assert_eq!(b.len(), BLOCKS + 1);
        assert_eq!((b[0], b[BLOCKS]), (0, 198_100));
        assert!(b.windows(2).all(|w| w[0] < w[1]));
        let open: usize = (0..BLOCKS)
            .filter(|&i| is_open_loop(i))
            .map(|i| b[i + 1] - b[i])
            .sum();
        assert!((open as f64 / 198_100.0 - OPEN_LOOP_SHARE).abs() < 0.001);
    }

    #[test]
    fn block_schedule_is_seeded_monotone_per_block_and_on_rate() {
        let n = 160_000;
        let a = block_schedule(n, 20_000.0, 42);
        assert_eq!(a.len(), n);
        assert_eq!(a, block_schedule(n, 20_000.0, 42));
        assert_ne!(a, block_schedule(n, 20_000.0, 43));
        let bounds = block_bounds(n);
        for w in bounds.windows(2) {
            let block = &a[w[0]..w[1]];
            assert!(block.windows(2).all(|p| p[0] <= p[1]));
            // m arrivals at 20k/s span m/20k s; the mean of ≥10k
            // exponentials is within 5 % of that beyond 5 sigma.
            let expect = block.len() as f64 / 20_000.0;
            let span = *block.last().unwrap() as f64 / 1e9;
            assert!(
                (span / expect - 1.0).abs() < 0.05,
                "span {span} vs {expect}"
            );
        }
        // Every block restarts its clock.
        assert!(a[bounds[1]] < a[bounds[1] - 1]);
    }

    #[test]
    fn mux_plan_interleaves_round_robin_and_tags_every_frame() {
        let w = WORKLOADS
            .iter()
            .find(|w| w.name == "shards_mux")
            .unwrap()
            .smoke();
        let sessions = sessions(&w, 3);
        assert_eq!(sessions.len(), 8);
        let plan = wire_plan(&sessions, w.matcher, w.format, 2);
        assert_eq!(plan.conns.len(), 2);
        assert_eq!(plan.conns[0].sessions, vec![0, 2, 4, 6]);
        let per_session = sessions[0].instance.stream.len();
        assert_eq!(plan.events(), 8 * per_session);
        for (k, e) in plan.order.iter().take(16).enumerate() {
            assert_eq!(e.session as usize, k % 8);
            assert_eq!(e.conn as usize, k % 2);
        }
        let on_conn0 = plan.order.iter().filter(|e| e.conn == 0).count();
        assert_eq!(plan.conns[0].ends.len(), on_conn0);
        assert_eq!(
            *plan.conns[0].ends.last().unwrap(),
            plan.conns[0].bytes.len()
        );
        // Every pre-encoded frame decodes server-side to its session's sid.
        let first = &plan.conns[1].bytes[..plan.conns[1].ends[0]];
        let content = com_serve::decode_payload(&first[5..]).unwrap();
        let frame = com_serve::client_frame_from_content(&content).unwrap();
        assert_eq!(frame.sid, Some(1));
    }
}
