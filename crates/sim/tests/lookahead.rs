//! Property tests of the conservative horizons the sharded engine cuts
//! its windows on, and of the engine built on them.
//!
//! The engine's soundness argument rests on two layers, each pinned here
//! on random clusters with a random uniform inter-DC latency `L`, zero
//! included:
//!
//! 1. no causal chain of messages — starting from *any* shard's earliest
//!    pending event, relayed through any path, including bounce-backs
//!    through the destination's own sends — can arrive before the
//!    destination's horizon;
//! 2. the full engine agrees bit-for-bit with the serial calendar run,
//!    with serial and parallel windows; with `L = 0` no window opens and
//!    the window driver runs in lockstep.

use contrarian_sim::actor::{Actor, ActorCtx, TimerKind};
use contrarian_sim::cost::{CostModel, MsgClass, SimMessage};
use contrarian_sim::sched::SchedKind;
use contrarian_sim::sim::{horizon, Sim};
use contrarian_types::{Addr, DcId, Op, PartitionId};
use proptest::prelude::*;

/// Maps a `(class, raw)` pair to the inter-DC latency: mostly moderate
/// values, some tiny, some zero, some saturated.
fn latency(class: u8, raw: u64) -> u64 {
    match class {
        0..=3 => 1 + raw % 100_000,
        4 | 5 => 1 + raw % 100,
        6 => 0,
        _ => u64::MAX,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// No causal chain can land inside a horizon. A chain starts at some
    /// shard's earliest pending event and hops between distinct shards,
    /// `L` per hop — each relay processes and resends no earlier than its
    /// arrival — and may start at the destination itself (the bounce-back
    /// case). The horizon must lower-bound every such arrival.
    #[test]
    fn horizons_never_admit_a_chained_message(
        n in 2usize..6,
        link in (0u8..8, 0u64..u64::MAX),
        clock_cells in prop::collection::vec((0u8..5, 0u64..1_000_000), 6),
        path_seed in prop::collection::vec(0usize..6, 2..6),
    ) {
        let l = latency(link.0, link.1);
        // Mostly busy shards, occasionally idle (u64::MAX clock).
        let next_t: Vec<u64> = clock_cells[..n]
            .iter()
            .map(|&(class, v)| if class == 0 { u64::MAX } else { v })
            .collect();

        // Build a path: start anywhere pending, end anywhere, consecutive
        // hops distinct.
        let mut path: Vec<usize> = Vec::with_capacity(path_seed.len());
        for &s in &path_seed {
            let v = s % n;
            if path.last() != Some(&v) {
                path.push(v);
            }
        }
        prop_assume!(path.len() >= 2);
        let start = path[0];
        let dest = *path.last().unwrap();
        prop_assume!(next_t[start] != u64::MAX);

        let mut arrive = next_t[start];
        for _ in path.windows(2) {
            arrive = arrive.saturating_add(l);
        }
        let h = horizon(&next_t, dest, l);
        prop_assert!(
            arrive >= h,
            "chain {:?} arrives at {} inside shard {}'s horizon {}",
            path, arrive, dest, h
        );
    }
}

// ---- engine-level differential on random uniform clusters ----

#[derive(Clone)]
struct Ping(u32);

impl SimMessage for Ping {
    fn wire_size(&self) -> usize {
        48
    }
    fn class(&self) -> MsgClass {
        MsgClass::Data
    }
}

/// Clients round-robin requests over every server of every DC; servers
/// echo. The per-client observation stream digests the full run.
struct Mesh {
    dcs: u8,
    servers: u16,
    next: u32,
    echoes: u64,
    sum: u64,
}

impl Mesh {
    fn new(dcs: u8, servers: u16) -> Self {
        Mesh {
            dcs,
            servers,
            next: 0,
            echoes: 0,
            sum: 0,
        }
    }
    fn target(&mut self) -> Addr {
        let t = self.next;
        self.next += 1;
        let all = self.dcs as u32 * self.servers as u32;
        Addr::server(
            DcId((t % all / self.servers as u32) as u8),
            PartitionId((t % self.servers as u32) as u16),
        )
    }
}

impl Actor for Mesh {
    type Msg = Ping;
    fn on_start(&mut self, ctx: &mut dyn ActorCtx<Ping>) {
        if !ctx.self_addr().is_server() {
            for _ in 0..3 {
                let to = self.target();
                ctx.send(to, Ping(0));
            }
        }
    }
    fn on_message(&mut self, ctx: &mut dyn ActorCtx<Ping>, from: Addr, msg: Ping) {
        if ctx.self_addr().is_server() {
            ctx.send(from, Ping(msg.0 + 1));
        } else {
            self.echoes += 1;
            self.sum = self.sum.wrapping_mul(31).wrapping_add(msg.0 as u64);
            if msg.0 < 20 {
                let to = self.target();
                ctx.send(to, Ping(msg.0 + 1));
            }
        }
    }
    fn on_timer(&mut self, _ctx: &mut dyn ActorCtx<Ping>, _kind: TimerKind) {}
    fn inject(_op: Op) -> Ping {
        Ping(0)
    }
}

fn digest(
    cost: &CostModel,
    dcs: u8,
    servers: u16,
    clients: u16,
    seed: u64,
    sched: SchedKind,
    parallel: bool,
) -> (u64, u64, Vec<u64>) {
    let mut sim: Sim<Mesh> = Sim::with_scheduler(*cost, seed, sched);
    for dc in 0..dcs {
        for p in 0..servers {
            sim.add_server(
                Addr::server(DcId(dc), PartitionId(p)),
                Mesh::new(dcs, servers),
                2,
            );
        }
        for c in 0..clients {
            sim.add_client(Addr::client(DcId(dc), c), Mesh::new(dcs, servers));
        }
    }
    sim.set_parallel(parallel);
    sim.start();
    sim.run_until(30_000_000);
    sim.run_to_quiescence(u64::MAX);
    let mut sums = Vec::new();
    for dc in 0..dcs {
        for c in 0..clients {
            let a = sim.actor(Addr::client(DcId(dc), c));
            sums.push(a.sum.wrapping_mul(1023).wrapping_add(a.echoes));
        }
    }
    (sim.now(), sim.events_processed(), sums)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random 2–4 DC cluster, uniform inter-DC latency (zero in about
    /// one case in five) and window path: the per-DC engine, with serial
    /// or parallel windows, must replay the serial calendar run
    /// bit-identically. A zero latency opens no window and exercises the
    /// driver's lockstep fallback inside the same property.
    #[test]
    fn sharded_engine_matches_calendar_on_random_uniform_clusters(
        dcs in 2u8..=4,
        servers in 1u16..3,
        clients in 1u16..3,
        seed in 0u64..500,
        window_path in 0u8..2,
        link in (0u8..5, 0u64..30_000_000),
    ) {
        let cost = CostModel {
            interdc_latency_ns: if link.0 == 0 { 0 } else { 1_000_000 + link.1 },
            ..CostModel::functional()
        };
        let want = digest(&cost, dcs, servers, clients, seed, SchedKind::Calendar, false);
        let parallel = window_path == 1;
        let got = digest(&cost, dcs, servers, clients, seed, SchedKind::Sharded, parallel);
        prop_assert_eq!(got, want);
    }
}
