//! Queueing-theoretic sanity checks of the simulator: the whole
//! reproduction hinges on servers behaving like finite-capacity queueing
//! stations, so verify the M/D/c-style behaviour directly with a synthetic
//! open-loop workload.

use contrarian_sim::actor::{Actor, ActorCtx, TimerKind};
use contrarian_sim::cost::{CostModel, MsgClass, SimMessage};
use contrarian_sim::sim::Sim;
use contrarian_sim::SchedKind;
use contrarian_types::{Addr, DcId, Op, PartitionId};

#[derive(Clone)]
struct Req(u64);

impl SimMessage for Req {
    fn wire_size(&self) -> usize {
        64
    }
    fn class(&self) -> MsgClass {
        MsgClass::Data
    }
}

/// A client that fires `n` requests at a fixed interval (open loop) and
/// records response latencies; a server that just replies.
struct OpenLoop {
    server: Option<Addr>,
    interval_ns: u64,
    remaining: u64,
    sent_at: std::collections::HashMap<u64, u64>,
    latencies: Vec<u64>,
    seq: u64,
}

const FIRE: u16 = 1;

impl Actor for OpenLoop {
    type Msg = Req;

    fn on_start(&mut self, ctx: &mut dyn ActorCtx<Req>) {
        if self.server.is_some() {
            ctx.set_timer(1000, TimerKind::new(FIRE));
        }
    }

    fn on_message(&mut self, ctx: &mut dyn ActorCtx<Req>, from: Addr, msg: Req) {
        match self.server {
            None => ctx.send(from, msg), // server: echo
            Some(_) => {
                // client: record latency
                if let Some(t0) = self.sent_at.remove(&msg.0) {
                    self.latencies.push(ctx.now() - t0);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn ActorCtx<Req>, _kind: TimerKind) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        self.seq += 1;
        self.sent_at.insert(self.seq, ctx.now());
        ctx.send(self.server.unwrap(), Req(self.seq));
        if self.remaining > 0 {
            ctx.set_timer(self.interval_ns, TimerKind::new(FIRE));
        }
    }

    fn inject(_op: Op) -> Req {
        Req(0)
    }
}

fn run_open_loop(interval_ns: u64, workers: u32, n: u64) -> Vec<u64> {
    let mut cost = CostModel::functional();
    cost.rx_ns = 50_000; // 50µs deterministic service
    cost.tx_ns = 0;
    cost.client_tx_ns = 0;
    cost.client_rx_ns = 0;
    cost.cpu_per_kb_ns = 0;
    cost.wire_ns_per_kb = 0;
    cost.hop_latency_ns = 1_000;
    let mut sim: Sim<OpenLoop> = Sim::with_scheduler(cost, 1, SchedKind::from_env());
    let server = Addr::server(DcId(0), PartitionId(0));
    sim.add_server(
        server,
        OpenLoop {
            server: None,
            interval_ns: 0,
            remaining: 0,
            sent_at: Default::default(),
            latencies: vec![],
            seq: 0,
        },
        workers,
    );
    let client = Addr::client(DcId(0), 0);
    sim.add_client(
        client,
        OpenLoop {
            server: Some(server),
            interval_ns,
            remaining: n,
            sent_at: Default::default(),
            latencies: vec![],
            seq: 1000,
        },
    );
    sim.start();
    sim.run_to_quiescence(u64::MAX);
    sim.actor(client).latencies.clone()
}

#[test]
fn underloaded_server_adds_no_queueing() {
    // Service 50µs, arrivals every 200µs (ρ = 0.25): latency ≈ 2 hops +
    // service, no queueing.
    let lats = run_open_loop(200_000, 1, 200);
    assert_eq!(lats.len(), 200);
    let mean = lats.iter().sum::<u64>() as f64 / lats.len() as f64;
    assert!((mean - 52_000.0).abs() < 2_000.0, "mean {mean}");
}

#[test]
fn overloaded_server_queues_linearly() {
    // Service 50µs, arrivals every 25µs (ρ = 2): the queue grows without
    // bound, so the *last* request waits roughly n × 25µs.
    let lats = run_open_loop(25_000, 1, 200);
    let max = *lats.iter().max().unwrap();
    assert!(
        max > 4_000_000,
        "saturated queue must build delay, max {max}"
    );
    // And latencies grow monotonically-ish: last > 10x first.
    assert!(lats.last().unwrap() > &(lats[0] * 10));
}

#[test]
fn doubling_workers_doubles_capacity() {
    // ρ = 2 with 1 worker is overload; with 2 workers it is critical but
    // stable-ish; with 4 it is underloaded.
    let l1 = run_open_loop(25_000, 1, 200);
    let l4 = run_open_loop(25_000, 4, 200);
    let max1 = *l1.iter().max().unwrap();
    let max4 = *l4.iter().max().unwrap();
    assert!(
        max4 * 10 < max1,
        "4 workers must remove the overload: max1={max1} max4={max4}"
    );
}

#[test]
fn deterministic_latency_sequences() {
    let a = run_open_loop(60_000, 2, 100);
    let b = run_open_loop(60_000, 2, 100);
    assert_eq!(a, b);
}
