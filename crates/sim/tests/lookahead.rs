//! Property tests of the per-link lookahead matrix and the conservative
//! per-shard horizons built on it.
//!
//! The engine's soundness argument rests on three layers, each pinned
//! here against random (asymmetric, zero-entry, triangle-violating)
//! matrices:
//!
//! 1. metric closure is a well-behaved lower bound (idempotent, never
//!    raises an entry, satisfies the triangle inequality);
//! 2. no causal chain of messages — starting from *any* shard's earliest
//!    pending event, relayed through any path, including bounce-backs
//!    through the destination's own sends — can arrive before the
//!    destination's horizon;
//! 3. the full engine agrees bit-for-bit with the serial calendar run on
//!    random heterogeneous topologies and thread counts.

use contrarian_sim::actor::{Actor, ActorCtx, TimerKind};
use contrarian_sim::cost::{CostModel, LookaheadMatrix, MsgClass, SimMessage};
use contrarian_sim::sched::SchedKind;
use contrarian_sim::sim::Sim;
use contrarian_types::{Addr, DcId, Op, PartitionId};
use proptest::prelude::*;

/// Maps a `(class, raw)` pair to a link latency: mostly moderate values,
/// some tiny, some zero, some saturated — deliberately violating the
/// triangle inequality most of the time.
fn entry(class: u8, raw: u64) -> u64 {
    match class {
        0..=3 => 1 + raw % 100_000,
        4 | 5 => 1 + raw % 100,
        6 => 0,
        _ => u64::MAX,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn closure_is_a_sound_idempotent_lower_bound(
        n in 2usize..6,
        seed_entries in prop::collection::vec(0u64..200_000, 36),
    ) {
        let raw = LookaheadMatrix::from_fn(n, |i, j| seed_entries[i * 6 + j]);
        let mut closed = raw.clone();
        closed.close();
        // Never raises an entry, keeps the diagonal at zero.
        for i in 0..n {
            prop_assert_eq!(closed.get(i, i), 0);
            for j in 0..n {
                prop_assert!(closed.get(i, j) <= raw.get(i, j));
            }
        }
        // Triangle inequality holds after closing…
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    prop_assert!(
                        closed.get(i, j)
                            <= closed.get(i, k).saturating_add(closed.get(k, j)),
                        "triangle violated at ({}, {}, {})", i, k, j
                    );
                }
            }
        }
        // …which is exactly the fixed point: closing again changes nothing.
        let mut twice = closed.clone();
        twice.close();
        prop_assert_eq!(twice, closed);
    }

    /// No causal chain can land inside a horizon. A chain starts at some
    /// shard's earliest pending event and hops along raw (pre-closure)
    /// link entries — each relay processes and resends no earlier than its
    /// arrival — and may start at the destination itself (the bounce-back
    /// case). The horizon computed from the *closed* matrix must
    /// lower-bound every such arrival.
    #[test]
    fn horizons_never_admit_a_chained_message(
        n in 2usize..6,
        cells in prop::collection::vec((0u8..8, 0u64..u64::MAX), 36),
        clock_cells in prop::collection::vec((0u8..5, 0u64..1_000_000), 6),
        path_seed in prop::collection::vec(0usize..6, 2..6),
    ) {
        let raw = LookaheadMatrix::from_fn(n, |i, j| {
            let (class, v) = cells[i * 6 + j];
            entry(class, v)
        });
        // Mostly busy shards, occasionally idle (u64::MAX clock).
        let next_t: Vec<u64> = clock_cells[..n]
            .iter()
            .map(|&(class, v)| if class == 0 { u64::MAX } else { v })
            .collect();
        let mut closed = raw.clone();
        closed.close();

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
        for hop in path.windows(2) {
            arrive = arrive.saturating_add(raw.get(hop[0], hop[1]));
        }
        let horizon = closed.horizon(dest, &next_t);
        prop_assert!(
            arrive >= horizon,
            "chain {:?} arrives at {} inside shard {}'s horizon {}",
            path, arrive, dest, horizon
        );
    }
}

// ---- engine-level differential on random heterogeneous topologies ----

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
    threads: usize,
) -> (u64, u64, Vec<u64>) {
    let mut sim: Sim<Mesh> = Sim::with_scheduler(cost.clone(), seed, sched);
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
    sim.set_shard_threads(threads);
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

    /// Random heterogeneous topology (directional overrides, possibly
    /// zero-latency links) and thread count: the parallel per-DC engine
    /// must replay the serial calendar run bit-identically. Zero-latency
    /// links collapse the matrix minimum to 0 and exercise the lockstep
    /// fallback inside the same property.
    #[test]
    fn sharded_matrix_engine_matches_calendar_on_random_topologies(
        dcs in 2u8..4,
        servers in 1u16..3,
        clients in 1u16..3,
        seed in 0u64..500,
        threads in 1usize..4,
        raw_overrides in prop::collection::vec((0u8..4, 0u8..4, 0u8..5, 0u64..30_000_000), 0..5),
    ) {
        let mut cost = CostModel::functional();
        cost.interdc_overrides = raw_overrides
            .into_iter()
            .filter(|&(f, t, _, _)| f != t && f < dcs && t < dcs)
            .map(|(f, t, class, v)| (f, t, if class == 0 { 0 } else { 1_000_000 + v }))
            .collect();
        let want = digest(&cost, dcs, servers, clients, seed, SchedKind::Calendar, 1);
        let got = digest(&cost, dcs, servers, clients, seed, SchedKind::Sharded, threads);
        prop_assert_eq!(got, want);
    }
}
