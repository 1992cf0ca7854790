//! The protocol ⇄ runtime interface.
//!
//! Protocol nodes (servers and clients) are deterministic state machines
//! implementing [`Actor`]; the runtime — either the discrete-event
//! simulator (`contrarian-sim`) or the live TCP runtime
//! (`contrarian-net`) — delivers messages and timer ticks through an
//! [`ActorCtx`], and the node responds by sending messages and arming
//! timers. Protocol code never knows which runtime is driving it.

use crate::cost::SimMessage;
use crate::metrics::Metrics;
use contrarian_types::{Addr, HeapCensus, HistoryEvent, Op, TraceKind};
use rand::rngs::SmallRng;

/// A timer tag: `kind` identifies the purpose (protocol-defined constants),
/// `a` is an optional payload (e.g. a token of a deferred operation).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TimerKind {
    pub kind: u16,
    pub a: u64,
}

impl TimerKind {
    pub fn new(kind: u16) -> Self {
        TimerKind { kind, a: 0 }
    }

    pub fn with_arg(kind: u16, a: u64) -> Self {
        TimerKind { kind, a }
    }
}

/// Capabilities the runtime offers a node while it handles an event.
pub trait ActorCtx<M> {
    /// Current time in nanoseconds since the start of the run (virtual time
    /// under simulation, wall-clock time under the TCP runtime).
    fn now(&self) -> u64;

    /// Address of the node handling the event.
    fn self_addr(&self) -> Addr;

    /// Sends `msg` to `to`. Ordering per (source, destination) pair is FIFO.
    fn send(&mut self, to: Addr, msg: M);

    /// Arms a one-shot timer `delay_ns` from now.
    fn set_timer(&mut self, delay_ns: u64, kind: TimerKind);

    /// Charges extra CPU time to the current handler (state-dependent work
    /// such as version-chain scans whose length is only known here).
    fn charge(&mut self, ns: u64);

    /// Deterministic randomness.
    fn rng(&mut self) -> &mut SmallRng;

    /// Run-wide metrics sink.
    fn metrics(&mut self) -> &mut Metrics;

    /// Records a history event (no-op unless recording is enabled).
    fn record(&mut self, ev: HistoryEvent);

    /// Whether history recording is on (lets nodes skip building payloads).
    fn recording(&self) -> bool;

    /// True once the harness asked closed-loop clients to stop issuing.
    fn stopped(&self) -> bool;

    /// Whether deterministic tracing is on. Nodes must check this before
    /// doing any work to *prepare* a trace event — when it is false (the
    /// default on every runtime that doesn't override it) tracing costs
    /// one branch.
    fn tracing(&self) -> bool {
        false
    }

    /// Emits a trace event stamped with the current time and this node's
    /// identity (see `contrarian_types::trace`). A no-op unless the
    /// runtime collects traces and [`ActorCtx::tracing`] is set; callers
    /// should gate on `tracing()` first.
    fn trace(&mut self, _kind: TraceKind, _a: u64, _b: u64) {}
}

/// A protocol node.
pub trait Actor: Sized {
    type Msg: SimMessage + Send + 'static;

    /// Called once when the runtime starts, before any message delivery.
    fn on_start(&mut self, ctx: &mut dyn ActorCtx<Self::Msg>);

    /// A message from `from` has been received (and, under simulation, its
    /// service time has elapsed).
    fn on_message(&mut self, ctx: &mut dyn ActorCtx<Self::Msg>, from: Addr, msg: Self::Msg);

    /// A timer armed via [`ActorCtx::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut dyn ActorCtx<Self::Msg>, kind: TimerKind);

    /// Wraps an externally injected operation into a protocol message
    /// (delivered to a client node; used by the interactive facade).
    fn inject(op: Op) -> Self::Msg;

    /// Adds what this node holds on the heap to `census`, one row per
    /// owner (see [`HeapCensus`]). Runs only when a census is taken; a
    /// node that reports nothing adds no rows.
    fn heap_census(&self, _census: &mut HeapCensus) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_kind_carries_payload() {
        let t = TimerKind::with_arg(3, 99);
        assert_eq!(t.kind, 3);
        assert_eq!(t.a, 99);
        assert_eq!(TimerKind::new(3).a, 0);
    }
}
