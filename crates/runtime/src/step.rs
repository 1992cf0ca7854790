//! The one node step: the only [`ActorCtx`] implementation every runtime
//! hands its handlers.
//!
//! A handler sees three things, split by who owns them:
//!
//! * [`NodeState`] — what one node carries from handler to handler: its
//!   address, global id, RNG, history record counter and trace ring. The
//!   simulator keeps one per node slot, a TCP reactor one per node it
//!   hosts, a scripted test one for the nodes it drives by hand.
//! * [`Sink`] — where a handler's effects go: metrics, `(t, node, seq)`
//!   tagged history, the sends and timers it produced, the CPU it
//!   charged, and the run's `recording`/`tracing`/`stopped` flags. The
//!   simulator keeps one per shard (every node of the shard writes into
//!   it), the TCP runtime one per reactor thread, shared the same way by
//!   the nodes it hosts.
//! * [`Step`] — one handler's view of both at `now`, which its runtime
//!   hands it. It owns or borrows each part (`N: BorrowMut<NodeState>`,
//!   `S: BorrowMut<Sink<M>>`), so the simulator lends a slot's state and
//!   its shard's sink for one event without copying either and without
//!   another layer of dynamic dispatch.
//!
//! What stays with each runtime is *when* a step runs (the calendar
//! queue, the reactor's socket edges and timer heap, a test's hand)
//! and *how* the sends and timers it leaves in the sink travel (the
//! simulator's cost model and FIFO clamp, the reactor's rings).

use crate::actor::{ActorCtx, TimerKind};
use crate::history::TaggedEvent;
use crate::metrics::Metrics;
use crate::trace::{TraceRing, TRACE_CAP};
use contrarian_types::{Addr, HistoryEvent, TraceKind};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::borrow::BorrowMut;

/// One node's state outside its actor.
#[derive(Debug)]
pub struct NodeState {
    pub addr: Addr,
    /// Registration-order id, the same on every runtime: the `node` of
    /// this node's history and trace keys.
    pub global_id: u32,
    /// This node's deterministic randomness stream.
    pub rng: SmallRng,
    /// History records created so far by this node (canonical-order tag).
    pub record_seq: u64,
    /// This node's trace ring; its `seq` counter advances only while this
    /// node's handlers run, so it is engine- and shard-count-independent.
    pub trace: TraceRing,
}

impl NodeState {
    /// A node whose RNG is seeded with `seed` (runtimes derive it from the
    /// cluster seed with [`crate::node_seed`]).
    pub fn new(addr: Addr, global_id: u32, seed: u64) -> Self {
        NodeState {
            addr,
            global_id,
            rng: SmallRng::seed_from_u64(seed),
            record_seq: 0,
            trace: TraceRing::new(TRACE_CAP),
        }
    }
}

/// Where handlers' effects collect until their runtime takes them.
pub struct Sink<M> {
    pub metrics: Metrics,
    /// Records in canonical-key form, merged by
    /// [`crate::merge_shard_histories`].
    pub history: Vec<TaggedEvent>,
    pub recording: bool,
    pub tracing: bool,
    pub stopped: bool,
    /// Messages sent, in order.
    pub sent: Vec<(Addr, M)>,
    /// Timers armed: `(deadline, kind)`, the deadline saturated at
    /// `u64::MAX` ("effectively never") instead of wrapping.
    pub timers: Vec<(u64, TimerKind)>,
    /// CPU charged by the handlers since the runtime last reset it.
    pub charge: u64,
}

impl<M> Default for Sink<M> {
    fn default() -> Self {
        Sink {
            metrics: Metrics::new(),
            history: Vec::new(),
            recording: false,
            tracing: false,
            stopped: false,
            sent: Vec::new(),
            timers: Vec::new(),
            charge: 0,
        }
    }
}

/// One handler's context: a node's state and a sink, at `now`.
pub struct Step<N, S> {
    pub now: u64,
    pub node: N,
    pub sink: S,
}

impl<N: BorrowMut<NodeState>, S> Step<N, S> {
    fn state(&self) -> &NodeState {
        self.node.borrow()
    }

    fn sink_mut<M>(&mut self) -> &mut Sink<M>
    where
        S: BorrowMut<Sink<M>>,
    {
        self.sink.borrow_mut()
    }

    fn sink_ref<M>(&self) -> &Sink<M>
    where
        S: BorrowMut<Sink<M>>,
    {
        self.sink.borrow()
    }
}

/// `M: 'static` lets `metrics` hand out a reference reached through the
/// sink (every actor's message type is owned).
impl<M: 'static, N: BorrowMut<NodeState>, S: BorrowMut<Sink<M>>> ActorCtx<M> for Step<N, S> {
    fn now(&self) -> u64 {
        self.now
    }

    fn self_addr(&self) -> Addr {
        self.state().addr
    }

    fn send(&mut self, to: Addr, msg: M) {
        self.sink_mut().sent.push((to, msg));
    }

    fn set_timer(&mut self, delay_ns: u64, kind: TimerKind) {
        let at = self.now.saturating_add(delay_ns);
        self.sink_mut::<M>().timers.push((at, kind));
    }

    fn charge(&mut self, ns: u64) {
        self.sink_mut::<M>().charge += ns;
    }

    fn rng(&mut self) -> &mut SmallRng {
        let node: &mut NodeState = self.node.borrow_mut();
        &mut node.rng
    }

    fn metrics(&mut self) -> &mut Metrics {
        &mut self.sink_mut::<M>().metrics
    }

    fn record(&mut self, ev: HistoryEvent) {
        let sink: &mut Sink<M> = self.sink.borrow_mut();
        if sink.recording {
            let node: &mut NodeState = self.node.borrow_mut();
            sink.history.push(TaggedEvent {
                t: self.now,
                node: node.global_id,
                seq: node.record_seq,
                ev,
            });
            node.record_seq += 1;
        }
    }

    fn recording(&self) -> bool {
        self.sink_ref::<M>().recording
    }

    fn stopped(&self) -> bool {
        self.sink_ref::<M>().stopped
    }

    fn tracing(&self) -> bool {
        self.sink_ref::<M>().tracing
    }

    fn trace(&mut self, kind: TraceKind, a: u64, b: u64) {
        if self.sink_ref::<M>().tracing {
            let node: &mut NodeState = self.node.borrow_mut();
            node.trace.push(self.now, node.global_id, kind, a, b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contrarian_types::{ClientId, DcId, Key, VersionId};

    fn step(now: u64) -> Step<NodeState, Sink<u32>> {
        Step {
            now,
            node: NodeState::new(Addr::client(DcId(0), 0), 7, 0),
            sink: Sink::default(),
        }
    }

    /// A far-future delay parks at the end of time instead of wrapping
    /// into the past (or overflowing in a debug build).
    #[test]
    fn a_max_delay_parks_at_the_end_of_time() {
        let mut s = step(1_000);
        s.set_timer(u64::MAX, TimerKind::new(1));
        s.set_timer(u64::MAX - 1_000, TimerKind::new(2));
        s.set_timer(5, TimerKind::new(3));
        let at: Vec<u64> = s.sink.timers.iter().map(|(t, _)| *t).collect();
        assert_eq!(at, [u64::MAX, u64::MAX, 1_005]);
    }

    #[test]
    fn records_carry_the_canonical_key_only_while_recording() {
        let put = HistoryEvent::PutDone {
            client: ClientId::new(DcId(0), 0),
            seq: 0,
            t_start: 0,
            t_end: 1,
            key: Key(1),
            vid: VersionId::new(1, DcId(0)),
        };
        let mut s = step(40);
        s.record(put.clone());
        assert!(s.sink.history.is_empty());
        s.sink.recording = true;
        s.record(put.clone());
        s.now = 50;
        s.record(put);
        let keys: Vec<_> = s
            .sink
            .history
            .iter()
            .map(|e| (e.t, e.node, e.seq))
            .collect();
        assert_eq!(keys, [(40, 7, 0), (50, 7, 1)]);
    }

    /// A borrowed state and sink see the same effects an owned pair
    /// would: the simulator lends both per event.
    #[test]
    fn a_borrowed_step_writes_through_to_its_owners() {
        let mut owned = step(9);
        let mut lent = Step {
            now: owned.now,
            node: &mut owned.node,
            sink: &mut owned.sink,
        };
        lent.sink.tracing = true;
        lent.send(Addr::client(DcId(0), 1), 3);
        lent.charge(11);
        lent.trace(TraceKind::MsgSend, 1, 2);
        assert_eq!(lent.self_addr(), Addr::client(DcId(0), 0));
        assert_eq!(owned.sink.sent, [(Addr::client(DcId(0), 1), 3)]);
        assert_eq!(owned.sink.charge, 11);
        let ev = owned.node.trace.drain();
        assert_eq!((ev[0].t, ev[0].node, ev[0].seq), (9, 7, 0));
    }
}
