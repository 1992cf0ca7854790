//! Pluggable operation sources for protocol clients.

use crate::driver::ClientDriver;
use crate::openloop::OpenLoopDriver;
use contrarian_types::Op;
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use std::collections::VecDeque;
use std::sync::Arc;

/// What a client should do next, as answered by [`OpSource::draw`].
#[derive(Debug)]
pub enum Draw {
    /// Issue `op` now. `intended` is the operation's scheduled arrival
    /// time: closed-loop and queue sources arrive "now", open-loop sources
    /// carry the Poisson schedule's timestamp so latency measured from
    /// `intended` includes driver queueing delay (coordinated omission).
    Op { op: Op, intended: u64 },
    /// Nothing due yet: arm a wake-up timer for `due`.
    Wait { due: u64 },
    /// Nothing to issue; an injected op will wake the client.
    Idle,
}

/// Where a protocol client gets its next operation from.
pub enum OpSource {
    /// Closed-loop generation (the paper's experiments): always yields an
    /// operation, the next one the instant the previous completes.
    Closed(ClientDriver),
    /// Open-loop generation (saturation experiments): the merged Poisson
    /// arrival stream of a shard of logical sessions.
    Open(OpenLoopDriver),
    /// An externally fed queue (interactive facade): yields whatever has
    /// been injected, if anything.
    Queue(Arc<Mutex<VecDeque<Op>>>),
}

impl OpSource {
    pub fn closed(driver: ClientDriver) -> Self {
        OpSource::Closed(driver)
    }

    pub fn open(driver: OpenLoopDriver) -> Self {
        OpSource::Open(driver)
    }

    pub fn queue() -> (Self, Arc<Mutex<VecDeque<Op>>>) {
        let q = Arc::new(Mutex::new(VecDeque::new()));
        (OpSource::Queue(q.clone()), q)
    }

    /// What to do at time `now`: issue, sleep, or idle.
    pub fn draw(&mut self, now: u64, rng: &mut SmallRng) -> Draw {
        match self {
            OpSource::Closed(d) => Draw::Op {
                op: d.next_op(rng),
                intended: now,
            },
            OpSource::Open(d) => d.draw(now, rng),
            OpSource::Queue(q) => match q.lock().pop_front() {
                Some(op) => Draw::Op { op, intended: now },
                None => Draw::Idle,
            },
        }
    }

    pub fn is_closed_loop(&self) -> bool {
        matches!(self, OpSource::Closed(_))
    }

    /// Load-generating sources (closed- and open-loop) go quiet when the
    /// harness stops the run; queue sources always drain what was injected.
    pub fn is_load_generating(&self) -> bool {
        !matches!(self, OpSource::Queue(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadSpec;
    use crate::zipf::Zipf;
    use contrarian_types::Key;
    use rand::SeedableRng;

    fn driver() -> ClientDriver {
        ClientDriver::new(
            WorkloadSpec::paper_default(),
            Arc::new(Zipf::new(10, 0.99)),
            8,
        )
    }

    #[test]
    fn closed_source_always_yields_at_now() {
        let mut s = OpSource::closed(driver());
        let mut rng = SmallRng::seed_from_u64(0);
        assert!(s.is_closed_loop());
        assert!(s.is_load_generating());
        for now in 0..10u64 {
            match s.draw(now, &mut rng) {
                Draw::Op { intended, .. } => assert_eq!(intended, now),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn queue_source_yields_injected_ops_in_order() {
        let (mut s, q) = OpSource::queue();
        let mut rng = SmallRng::seed_from_u64(0);
        assert!(!s.is_load_generating());
        assert!(matches!(s.draw(5, &mut rng), Draw::Idle));
        q.lock().push_back(Op::Rot(vec![Key(1)]));
        q.lock().push_back(Op::Rot(vec![Key(2)]));
        match s.draw(6, &mut rng) {
            Draw::Op {
                op: Op::Rot(keys),
                intended,
            } => {
                assert_eq!(keys[0], Key(1));
                assert_eq!(intended, 6);
            }
            other => panic!("unexpected {other:?}"),
        }
        match s.draw(7, &mut rng) {
            Draw::Op {
                op: Op::Rot(keys), ..
            } => assert_eq!(keys[0], Key(2)),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(s.draw(8, &mut rng), Draw::Idle));
    }

    #[test]
    fn open_source_waits_then_fires() {
        let ol = OpenLoopDriver::new(driver(), 4, 1000.0);
        let mut s = OpSource::open(ol);
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(s.is_load_generating());
        assert!(!s.is_closed_loop());
        let due = match s.draw(0, &mut rng) {
            Draw::Wait { due } => due,
            other => panic!("unexpected {other:?}"),
        };
        match s.draw(due, &mut rng) {
            Draw::Op { intended, .. } => assert_eq!(intended, due),
            other => panic!("unexpected {other:?}"),
        }
    }
}
