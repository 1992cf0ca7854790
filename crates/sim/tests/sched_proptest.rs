//! Property tests of the calendar-queue scheduler: whatever the schedule
//! shape, it must pop in exactly the global `(t, seq)` order a binary heap
//! defines, and the simulator built on it must preserve per-link FIFO
//! delivery.

use contrarian_sim::actor::{Actor, ActorCtx, TimerKind};
use contrarian_sim::cost::{CostModel, MsgClass, SimMessage};
use contrarian_sim::sched::{CalendarQueue, SchedKind};
use contrarian_sim::sim::Sim;
use contrarian_types::{Addr, DcId, Op, PartitionId};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Differential test against a binary min-heap, the engine the
    /// calendar queue replaced: arbitrary interleaved pushes (zero-delay,
    /// intra-bucket, cross-bucket, and far-overflow deltas) and pops yield
    /// identical `(t, seq)` streams, which also proves the global ordering
    /// invariant (the heap is trivially ordered).
    #[test]
    fn calendar_matches_heap_reference(
        ops in prop::collection::vec((0u8..4, 0u64..u64::MAX), 1..400),
        pop_every in 1usize..6,
    ) {
        let mut cal: CalendarQueue<()> = CalendarQueue::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut now = 0u64;
        let mut seq = 0u64;
        for (i, (class, raw)) in ops.iter().enumerate() {
            seq += 1;
            let dt = match class {
                0 => 0,                      // same-tick fast path
                1 => raw % 10_000,           // current bucket
                2 => raw % 5_000_000,        // wheel
                _ => raw % 500_000_000,      // likely overflow
            };
            cal.push(now + dt, seq, ());
            heap.push(Reverse((now + dt, seq)));
            if i % pop_every == 0 {
                let a = cal.pop().map(|(t, s, _)| (t, s));
                let b = heap.pop().map(|Reverse(e)| e);
                prop_assert_eq!(a, b);
                if let Some((t, _)) = a {
                    prop_assert!(t >= now, "time went backwards");
                    now = t;
                }
            }
        }
        let mut last = (now, 0u64);
        loop {
            let a = cal.pop().map(|(t, s, _)| (t, s));
            let b = heap.pop().map(|Reverse(e)| e);
            prop_assert_eq!(a, b);
            match a {
                Some(pair) => {
                    prop_assert!(pair > last, "pops must be strictly (t, seq)-ordered");
                    last = pair;
                }
                None => break,
            }
        }
        prop_assert!(cal.is_empty());
    }
}

// ---- per-link FIFO under the calendar queue ----

#[derive(Clone)]
struct Tagged {
    n: u32,
    size: usize,
}

impl SimMessage for Tagged {
    fn wire_size(&self) -> usize {
        self.size
    }
    fn class(&self) -> MsgClass {
        if self.n.is_multiple_of(3) {
            MsgClass::Control
        } else {
            MsgClass::Data
        }
    }
}

/// Clients blast numbered messages at every server; servers log the
/// arrival order per sender.
struct FifoProbe {
    servers: u16,
    burst: u32,
    sizes: Vec<usize>,
    got: Vec<(Addr, u32)>,
}

impl Actor for FifoProbe {
    type Msg = Tagged;

    fn on_start(&mut self, ctx: &mut dyn ActorCtx<Tagged>) {
        if !ctx.self_addr().is_server() {
            for n in 0..self.burst {
                let size = self.sizes[n as usize % self.sizes.len()];
                for p in 0..self.servers {
                    ctx.send(Addr::server(DcId(0), PartitionId(p)), Tagged { n, size });
                }
            }
        }
    }

    fn on_message(&mut self, _ctx: &mut dyn ActorCtx<Tagged>, from: Addr, msg: Tagged) {
        self.got.push((from, msg.n));
    }

    fn on_timer(&mut self, _ctx: &mut dyn ActorCtx<Tagged>, _kind: TimerKind) {}

    fn inject(_op: Op) -> Tagged {
        Tagged { n: 0, size: 8 }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Whatever the cluster shape, message sizes, and worker counts, every
    /// (client, server) link delivers in send order.
    #[test]
    fn sim_preserves_per_link_fifo(
        servers in 1u16..5,
        clients in 1u16..5,
        burst in 1u32..25,
        workers in 1u32..4,
        sizes in prop::collection::vec(1usize..4096, 1..6),
        seed in 0u64..1000,
    ) {
        let mk = |servers: u16| FifoProbe {
            servers,
            burst,
            sizes: sizes.clone(),
            got: Vec::new(),
        };
        let mut sim: Sim<FifoProbe> =
            Sim::with_scheduler(CostModel::functional(), seed, SchedKind::Calendar);
        for p in 0..servers {
            sim.add_server(Addr::server(DcId(0), PartitionId(p)), mk(servers), workers);
        }
        for c in 0..clients {
            sim.add_client(Addr::client(DcId(0), c), mk(servers));
        }
        sim.start();
        sim.run_to_quiescence(u64::MAX);
        for p in 0..servers {
            let got = &sim.actor(Addr::server(DcId(0), PartitionId(p))).got;
            prop_assert_eq!(got.len(), clients as usize * burst as usize);
            for c in 0..clients {
                let from = Addr::client(DcId(0), c);
                let seen: Vec<u32> = got
                    .iter()
                    .filter(|(f, _)| *f == from)
                    .map(|(_, n)| *n)
                    .collect();
                let want: Vec<u32> = (0..burst).collect();
                prop_assert_eq!(seen, want, "link {}→p{} reordered", from, p);
            }
        }
    }
}
