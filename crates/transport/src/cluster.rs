//! Thread-per-node live cluster over in-process channels.

use contrarian_runtime::actor::Actor;
use contrarian_runtime::metrics::Metrics;
use contrarian_runtime::node_loop::{node_seed, run_node, Input, Outbound, RunShared};
use contrarian_types::{Addr, HistoryEvent, Op};
use crossbeam::channel::{bounded, Receiver, Sender};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Shared run state: the routing table plus the flags/history every live
/// runtime carries (see [`RunShared`]).
struct Shared<M> {
    routes: HashMap<Addr, Sender<Input<M>>>,
    run: RunShared,
}

/// A running cluster of actor threads.
pub struct LiveCluster<A: Actor> {
    shared: Arc<Shared<A::Msg>>,
    threads: Vec<JoinHandle<(A, Metrics)>>,
    addrs: Vec<Addr>,
}

/// A handle for injecting messages from outside the cluster (facade role).
pub struct LiveHandle<M> {
    shared: Arc<Shared<M>>,
}

impl<M: Send + 'static> LiveHandle<M> {
    pub fn send(&self, from: Addr, to: Addr, msg: M) {
        if let Some(tx) = self.shared.routes.get(&to) {
            let _ = tx.send(Input::Msg { from, msg });
        }
    }

    /// Blocks until some history event satisfies `pred`, scanning from
    /// `*cursor`; advances the cursor past the match. Waiters sleep on the
    /// sink's condition variable and are woken by appends — no CPU is
    /// burned polling.
    pub fn wait_for_history<F>(
        &self,
        cursor: &mut usize,
        timeout: Duration,
        pred: F,
    ) -> Option<HistoryEvent>
    where
        F: FnMut(&HistoryEvent) -> bool,
    {
        self.shared.run.history.wait_for(cursor, timeout, pred)
    }
}

/// The [`Outbound`] of the in-process transport: deliver = push onto the
/// destination's input channel.
struct ChannelOutbound<M>(Arc<Shared<M>>);

impl<M: Send + 'static> Outbound<M> for ChannelOutbound<M> {
    fn deliver(&mut self, from: Addr, to: Addr, msg: M) {
        if let Some(tx) = self.0.routes.get(&to) {
            let _ = tx.send(Input::Msg { from, msg });
        }
    }
}

impl<A: Actor + Send + 'static> LiveCluster<A> {
    /// Spawns one thread per node and calls `on_start` on each.
    pub fn start(nodes: Vec<(Addr, A)>, recording: bool, seed: u64) -> Self {
        let mut routes = HashMap::new();
        let mut rxs: Vec<(Addr, Receiver<Input<A::Msg>>)> = Vec::new();
        for (addr, _) in &nodes {
            let (tx, rx) = bounded::<Input<A::Msg>>(64 * 1024);
            routes.insert(*addr, tx);
            rxs.push((*addr, rx));
        }
        let shared = Arc::new(Shared {
            routes,
            run: RunShared::new(recording),
        });

        let mut threads = Vec::new();
        let mut addrs = Vec::new();
        for ((addr, actor), (_, rx)) in nodes.into_iter().zip(rxs) {
            addrs.push(addr);
            let shared = shared.clone();
            let node_seed = node_seed(seed, addr);
            threads.push(std::thread::spawn(move || {
                run_node(
                    addr,
                    actor,
                    rx,
                    ChannelOutbound(shared.clone()),
                    &shared.run,
                    node_seed,
                )
            }));
        }
        LiveCluster {
            shared,
            threads,
            addrs,
        }
    }

    pub fn handle(&self) -> LiveHandle<A::Msg> {
        LiveHandle {
            shared: self.shared.clone(),
        }
    }

    pub fn addrs(&self) -> &[Addr] {
        &self.addrs
    }

    /// Sends an operation to a client node. An address that is not in the
    /// cluster is a driver bug, not a droppable message: it panics, as on
    /// the simulator.
    pub fn inject_op(&self, client: Addr, op: Op) {
        let tx = self
            .shared
            .routes
            .get(&client)
            .unwrap_or_else(|| panic!("unknown addr {client}"));
        let _ = tx.send(Input::Msg {
            from: client,
            msg: A::inject(op),
        });
    }

    /// Turns measurement on or off (the live analogue of flipping
    /// `Metrics::enabled` after warmup; each node thread samples this flag).
    pub fn set_measuring(&self, on: bool) {
        self.shared.run.measuring.store(on, Ordering::SeqCst);
    }

    /// Signals closed-loop clients to stop issuing new operations.
    pub fn stop_issuing(&self) {
        self.shared.run.stopped.store(true, Ordering::SeqCst);
    }

    /// Drains the history recorded since the last drain, releasing it
    /// from the shared sink (see
    /// [`contrarian_runtime::HistorySink::drain`]). Lets a
    /// streaming consumer check long runs without the sink holding the
    /// whole log.
    pub fn drain_history(&self) -> Vec<HistoryEvent> {
        self.shared.run.history.drain()
    }

    /// Stops every node and returns the final actors, metrics and history.
    /// The returned metrics are the per-thread sinks merged at join.
    pub fn shutdown(self) -> (Vec<(Addr, A)>, Metrics, Vec<HistoryEvent>) {
        self.shared.run.stopped.store(true, Ordering::SeqCst);
        for tx in self.shared.routes.values() {
            let _ = tx.send(Input::Stop);
        }
        let mut actors = Vec::new();
        let mut metrics = Metrics::new();
        for (t, addr) in self.threads.into_iter().zip(self.addrs.iter()) {
            let (actor, local) = t.join().expect("node thread panicked");
            metrics.absorb(&local);
            actors.push((*addr, actor));
        }
        let history = self.shared.run.history.take();
        (actors, metrics, history)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contrarian_runtime::actor::{ActorCtx, TimerKind};
    use contrarian_runtime::cost::{MsgClass, SimMessage};
    use contrarian_types::DcId;

    struct Nop;

    impl SimMessage for Nop {
        fn wire_size(&self) -> usize {
            0
        }
        fn class(&self) -> MsgClass {
            MsgClass::Data
        }
    }

    struct Idle;

    impl Actor for Idle {
        type Msg = Nop;
        fn on_start(&mut self, _ctx: &mut dyn ActorCtx<Nop>) {}
        fn on_message(&mut self, _ctx: &mut dyn ActorCtx<Nop>, _from: Addr, _msg: Nop) {}
        fn on_timer(&mut self, _ctx: &mut dyn ActorCtx<Nop>, _kind: TimerKind) {}
        fn inject(_op: Op) -> Nop {
            Nop
        }
    }

    /// An operation injected at an address that is not in the cluster is a
    /// driver bug: it panics, as on the simulator, instead of vanishing.
    #[test]
    #[should_panic(expected = "unknown addr")]
    fn injecting_at_an_unknown_address_panics() {
        let client = Addr::client(DcId(0), 0);
        let cluster = LiveCluster::start(vec![(client, Idle)], false, 1);
        let stray = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cluster.inject_op(Addr::client(DcId(0), 999), Op::Rot(Vec::new()))
        }));
        // Stop the node thread before re-raising, so none outlives the test.
        cluster.shutdown();
        if let Err(panic) = stray {
            std::panic::resume_unwind(panic);
        }
    }
}
