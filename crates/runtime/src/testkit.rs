//! A scripted driver for protocol state machines.
//!
//! [`ScriptCtx`] is the owned [`Step`] with fully manual control: tests
//! (and the Section-6 theory harness) invoke handlers directly and decide
//! when — and in which adversarial order — each produced message is
//! delivered. This is how the paper's execution constructions (Figures 1, 2
//! and 10) are replayed deterministically.

use crate::step::{NodeState, Sink, Step};
use contrarian_types::Addr;

/// A hand-driven step that owns its node state and sink, so every output
/// stays in `sink` for the test to inspect.
pub type ScriptCtx<M> = Step<NodeState, Sink<M>>;

impl<M> ScriptCtx<M> {
    /// A recording context at time 0 for `addr`, RNG seeded with 0.
    pub fn new(addr: Addr) -> Self {
        Step {
            now: 0,
            node: NodeState::new(addr, 0, 0),
            sink: Sink {
                recording: true,
                ..Sink::default()
            },
        }
    }

    /// Takes every message sent so far, clearing the buffer.
    pub fn drain_sent(&mut self) -> Vec<(Addr, M)> {
        std::mem::take(&mut self.sink.sent)
    }

    /// Takes the messages destined to `to`.
    pub fn drain_to(&mut self, to: Addr) -> Vec<M> {
        let mut out = Vec::new();
        let mut keep = Vec::new();
        for (dst, m) in self.sink.sent.drain(..) {
            if dst == to {
                out.push(m);
            } else {
                keep.push((dst, m));
            }
        }
        self.sink.sent = keep;
        out
    }

    /// Re-points the context at another node (the usual pattern is one
    /// `ScriptCtx` shared by a handful of hand-driven nodes).
    pub fn at(&mut self, addr: Addr, now: u64) -> &mut Self {
        self.node.addr = addr;
        self.now = now;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{ActorCtx, TimerKind};
    use contrarian_types::DcId;

    #[test]
    fn drain_to_filters_by_destination() {
        let a = Addr::client(DcId(0), 0);
        let b = Addr::client(DcId(0), 1);
        let mut ctx: ScriptCtx<u32> = ScriptCtx::new(a);
        ctx.send(a, 1);
        ctx.send(b, 2);
        ctx.send(a, 3);
        assert_eq!(ctx.drain_to(a), vec![1, 3]);
        assert_eq!(ctx.drain_sent().len(), 1);
    }

    #[test]
    fn timers_resolve_against_now() {
        let a = Addr::client(DcId(0), 0);
        let mut ctx: ScriptCtx<u32> = ScriptCtx::new(a);
        ctx.now = 100;
        ctx.set_timer(50, TimerKind::new(1));
        assert_eq!(ctx.sink.timers[0].0, 150);
    }

    #[test]
    fn at_repoints_the_node_and_its_clock() {
        let (a, b) = (Addr::client(DcId(0), 0), Addr::client(DcId(1), 4));
        let mut ctx: ScriptCtx<u32> = ScriptCtx::new(a);
        assert_eq!((ctx.self_addr(), ctx.now()), (a, 0));
        ctx.at(b, 70).set_timer(5, TimerKind::new(2));
        assert_eq!((ctx.self_addr(), ctx.now()), (b, 70));
        assert_eq!(ctx.sink.timers, [(75, TimerKind::new(2))]);
    }

    #[test]
    fn a_script_records_and_accumulates_charges() {
        let mut ctx: ScriptCtx<u32> = ScriptCtx::new(Addr::client(DcId(0), 0));
        assert!(ctx.recording());
        assert!(!ctx.tracing() && !ctx.stopped());
        ctx.charge(30);
        ctx.charge(12);
        assert_eq!(ctx.sink.charge, 42);
    }
}
