//! Pins the sharded engine's window schedule on two functional-cost
//! meshes, 2 and 3 DCs: the driver's round count and each shard's
//! rounds, events and cross-shard messages. The schedule is a function of
//! the inter-DC bound and the event stream alone, so serial and parallel
//! windows read the same numbers, and a change to how horizons are formed
//! that moves a single window boundary shows here.

use contrarian_sim::actor::{Actor, ActorCtx, TimerKind};
use contrarian_sim::cost::{CostModel, MsgClass, SimMessage};
use contrarian_sim::sched::SchedKind;
use contrarian_sim::sim::Sim;
use contrarian_types::{Addr, DcId, Op, PartitionId};

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
/// echo.
struct Mesh {
    dcs: u8,
    servers: u16,
    next: u32,
}

impl Mesh {
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
        } else if msg.0 < 30 {
            let to = self.target();
            ctx.send(to, Ping(msg.0 + 1));
        }
    }
    fn on_timer(&mut self, _ctx: &mut dyn ActorCtx<Ping>, _kind: TimerKind) {}
    fn inject(_op: Op) -> Ping {
        Ping(0)
    }
}

/// `(driver rounds, per shard (rounds, events, cross-shard messages))`.
type Schedule = (u64, Vec<(u64, u64, u64)>);

fn schedule(dcs: u8, servers: u16, clients: u16, parallel: bool) -> Schedule {
    let mut sim: Sim<Mesh> = Sim::with_scheduler(CostModel::functional(), 21, SchedKind::Sharded);
    for dc in 0..dcs {
        for p in 0..servers {
            let mesh = Mesh {
                dcs,
                servers,
                next: 0,
            };
            sim.add_server(Addr::server(DcId(dc), PartitionId(p)), mesh, 2);
        }
        for c in 0..clients {
            let mesh = Mesh {
                dcs,
                servers,
                next: c as u32,
            };
            sim.add_client(Addr::client(DcId(dc), c), mesh);
        }
    }
    sim.set_parallel(parallel);
    sim.start();
    sim.run_until(2_000_000);
    sim.run_to_quiescence(u64::MAX);
    let shards = sim
        .window_stats()
        .iter()
        .map(|s| (s.rounds, s.events, s.cross_msgs))
        .collect();
    (sim.window_rounds(), shards)
}

#[test]
fn two_dc_window_schedule_is_pinned() {
    let want: Schedule = (24, vec![(22, 960, 192), (23, 960, 192)]);
    for parallel in [false, true] {
        assert_eq!(schedule(2, 3, 4, parallel), want, "parallel: {parallel}");
    }
}

#[test]
fn three_dc_window_schedule_is_pinned() {
    let want: Schedule = (27, vec![(26, 720, 192), (26, 720, 192), (27, 720, 192)]);
    for parallel in [false, true] {
        assert_eq!(schedule(3, 2, 3, parallel), want, "parallel: {parallel}");
    }
}
