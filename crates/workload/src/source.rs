//! Pluggable operation sources for protocol clients.

use crate::driver::ClientDriver;
use crate::openloop::OpenLoopDriver;
use contrarian_types::Op;
use rand::rngs::SmallRng;

/// What a client should do next, as answered by [`OpSource::draw`].
#[derive(Debug)]
pub enum Draw {
    /// Issue `op` now. `intended` is the operation's scheduled arrival
    /// time: closed-loop sources arrive "now", open-loop sources
    /// carry the Poisson schedule's timestamp so latency measured from
    /// `intended` includes driver queueing delay (coordinated omission).
    Op { op: Op, intended: u64 },
    /// Nothing due yet: arm a wake-up timer for `due`.
    Wait { due: u64 },
}

/// Where a load-generating client gets its next operation from. (The
/// interactive facade's client has no source: it runs injected operations
/// only.)
pub enum OpSource {
    /// Closed-loop generation (the paper's experiments): always yields an
    /// operation, the next one the instant the previous completes.
    Closed(ClientDriver),
    /// Open-loop generation (saturation experiments): the merged Poisson
    /// arrival stream of a shard of logical sessions.
    Open(OpenLoopDriver),
}

impl OpSource {
    /// What to do at time `now`: issue or sleep.
    pub fn draw(&mut self, now: u64, rng: &mut SmallRng) -> Draw {
        match self {
            OpSource::Closed(d) => Draw::Op {
                op: d.next_op(rng),
                intended: now,
            },
            OpSource::Open(d) => d.draw(now, rng),
        }
    }

    /// Heap bytes of the operation generator.
    pub fn heap_bytes(&self) -> usize {
        match self {
            OpSource::Closed(d) => d.heap_bytes(),
            OpSource::Open(d) => d.heap_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadSpec;
    use crate::zipf::Zipf;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn driver() -> ClientDriver {
        ClientDriver::new(
            WorkloadSpec::paper_default(),
            Arc::new(Zipf::new(10, 0.99)),
            8,
        )
    }

    #[test]
    fn closed_source_always_yields_at_now() {
        let mut s = OpSource::Closed(driver());
        let mut rng = SmallRng::seed_from_u64(0);
        for now in 0..10u64 {
            match s.draw(now, &mut rng) {
                Draw::Op { intended, .. } => assert_eq!(intended, now),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn open_source_waits_then_fires() {
        let ol = OpenLoopDriver::new(driver(), 4, 1000.0);
        let mut s = OpSource::Open(ol);
        let mut rng = SmallRng::seed_from_u64(1);
        let due = match s.draw(0, &mut rng) {
            Draw::Wait { due } => due,
            other => panic!("unexpected {other:?}"),
        };
        match s.draw(due, &mut rng) {
            Draw::Op { intended, .. } => assert_eq!(intended, due),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// A draw that comes late still issues the arrival at its scheduled
    /// time, so latency measured from `intended` counts the delay.
    #[test]
    fn a_late_open_draw_keeps_the_scheduled_arrival_time() {
        let mut s = OpSource::Open(OpenLoopDriver::new(driver(), 4, 1000.0));
        let mut rng = SmallRng::seed_from_u64(2);
        let due = match s.draw(0, &mut rng) {
            Draw::Wait { due } => due,
            other => panic!("unexpected {other:?}"),
        };
        let late = due + 10_000_000_000;
        match s.draw(late, &mut rng) {
            Draw::Op { intended, .. } => assert_eq!(intended, due),
            other => panic!("unexpected {other:?}"),
        }
    }
}
