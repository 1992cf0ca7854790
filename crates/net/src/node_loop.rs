//! The per-node event loop of the live runtime.
//!
//! Every node of a [`NetCluster`](crate::NetCluster) is an OS thread
//! running [`run_node`]. The thread owns the node's
//! [`NodeState`] and one [`Sink`], and runs each handler as the same
//! [`Step`] the simulator runs, at the wall-clock `now` it reads before
//! the handler. What this runtime keeps of its own is *when* a step runs
//! — the next due timer off the thread's deadline heap, else the next
//! message on its input channel — and *how* the sends a step leaves in
//! the sink travel: through the node's [`ReactorOutbound`], encoded on
//! this thread, pushed onto the connection's bounded ring, written to the
//! socket by a reactor thread. The step's `(t, node, seq)`-tagged records
//! are flushed to the cluster's log once per handler and come out of it
//! merged into canonical order, as the simulator's shards' do.

use crate::reactor::ReactorOutbound;
use contrarian_runtime::actor::{Actor, TimerKind};
use contrarian_runtime::history::{merge_shard_histories, TaggedEvent};
use contrarian_runtime::metrics::Metrics;
use contrarian_runtime::step::{NodeState, Sink, Step};
use contrarian_types::codec::Wire;
use contrarian_types::{Addr, HistoryEvent};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Longest a node thread waits for input before it looks at its timers
/// again.
const POLL: Duration = Duration::from_millis(5);

/// One item on a node's input channel.
pub(crate) enum Input<M> {
    /// A delivered message.
    Msg { from: Addr, msg: M },
    /// Orderly shutdown of the node thread.
    Stop,
}

/// Cluster-wide run state the node threads share: the clock origin, the
/// stop/measure flags, and the history log.
///
/// Metrics are *not* here: every node thread accumulates its own
/// [`Metrics`] and hands it back when the thread joins — the measurement
/// hot path takes no lock. History is only ever touched when `recording`
/// is set (functional runs), once per handler that recorded.
pub(crate) struct RunShared {
    pub(crate) start: Instant,
    pub(crate) stopped: AtomicBool,
    pub(crate) measuring: AtomicBool,
    history: Mutex<Vec<TaggedEvent>>,
    pub(crate) recording: bool,
}

impl RunShared {
    pub(crate) fn new(recording: bool) -> Self {
        RunShared {
            start: Instant::now(),
            stopped: AtomicBool::new(false),
            measuring: AtomicBool::new(false),
            history: Mutex::new(Vec::new()),
            recording,
        }
    }

    /// The history log. Every update is one append or one take, so a log
    /// whose lock a panicking node poisoned is still whole.
    fn history(&self) -> std::sync::MutexGuard<'_, Vec<TaggedEvent>> {
        self.history
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Moves one handler's records into the log, leaving `records` empty.
    fn flush_history(&self, records: &mut Vec<TaggedEvent>) {
        if !records.is_empty() {
            self.history().append(records);
        }
    }

    /// Takes every event recorded since the last take, in canonical
    /// `(t, node, seq)` order.
    pub(crate) fn take_history(&self) -> Vec<HistoryEvent> {
        let taken = std::mem::take(&mut *self.history());
        merge_shard_histories([taken])
    }

    /// Wall-clock nanoseconds since the run started.
    pub(crate) fn now(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

enum Event<M> {
    Start,
    Msg { from: Addr, msg: M },
    Timer(TimerKind),
}

/// The per-node event loop: runs `on_start`, then one step per due timer
/// or input until a [`Input::Stop`] arrives (or every sender
/// disconnects). Returns the actor and the thread's metrics.
pub(crate) fn run_node<A>(
    node: NodeState,
    mut actor: A,
    rx: Receiver<Input<A::Msg>>,
    mut out: ReactorOutbound<A::Msg>,
    shared: &RunShared,
) -> (A, Metrics)
where
    A: Actor,
    A::Msg: Wire + Send + 'static,
{
    let mut step = Step {
        now: 0,
        node,
        sink: Sink::default(),
    };
    step.sink.recording = shared.recording;
    // Armed timers, earliest deadline first, ties in arming order:
    // `(deadline, armed, kind, arg)`.
    let mut timers: BinaryHeap<Reverse<(u64, u64, u16, u64)>> = BinaryHeap::new();
    let mut armed = 0u64;
    let mut next = Some(Event::Start);
    loop {
        if let Some(ev) = next.take() {
            step.now = shared.now();
            step.sink.stopped = shared.stopped.load(Ordering::SeqCst);
            step.sink.metrics.enabled = shared.measuring.load(Ordering::Relaxed);
            match ev {
                Event::Start => actor.on_start(&mut step),
                Event::Msg { from, msg } => actor.on_message(&mut step, from, msg),
                Event::Timer(kind) => actor.on_timer(&mut step, kind),
            }
            for (to, msg) in step.sink.sent.drain(..) {
                out.deliver(to, msg);
            }
            for (at, kind) in step.sink.timers.drain(..) {
                armed += 1;
                timers.push(Reverse((at, armed, kind.kind, kind.a)));
            }
            shared.flush_history(&mut step.sink.history);
        }
        // A due timer runs before any input; otherwise wait for input
        // until the next deadline.
        let now = shared.now();
        let wait = match timers.peek() {
            Some(&Reverse((at, _, kind, a))) if at <= now => {
                timers.pop();
                next = Some(Event::Timer(TimerKind::with_arg(kind, a)));
                continue;
            }
            Some(&Reverse((at, ..))) => Duration::from_nanos(at - now).min(POLL),
            None => POLL,
        };
        match rx.recv_timeout(wait) {
            Ok(Input::Msg { from, msg }) => next = Some(Event::Msg { from, msg }),
            Ok(Input::Stop) | Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {}
        }
    }
    (actor, step.sink.metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use contrarian_types::{ClientId, DcId, Key, VersionId};

    fn put(seq: u32) -> HistoryEvent {
        HistoryEvent::PutDone {
            client: ClientId::new(DcId(0), 0),
            seq,
            t_start: 0,
            t_end: 1,
            key: Key(1),
            vid: VersionId::new(seq as u64 + 1, DcId(0)),
        }
    }

    /// One record of node `node`, its `seq`-th, at time `seq`.
    fn tagged(node: u32, seq: u32) -> TaggedEvent {
        TaggedEvent {
            t: seq as u64,
            node,
            seq: seq as u64,
            ev: put(node * 1_000 + seq),
        }
    }

    fn seq_of(ev: &HistoryEvent) -> u32 {
        match ev {
            HistoryEvent::PutDone { seq, .. } => *seq,
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Takes racing flushes from several node threads hand out every
    /// event exactly once, and each thread's events in its own order.
    #[test]
    fn takes_racing_appends_hand_out_each_event_once() {
        const THREADS: u32 = 4;
        const PER_THREAD: u32 = 500;
        let shared = RunShared::new(true);
        let mut taken = Vec::new();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let shared = &shared;
                s.spawn(move || {
                    let mut records = Vec::new();
                    for i in 0..PER_THREAD {
                        records.push(tagged(t, i));
                        shared.flush_history(&mut records);
                        assert!(records.is_empty());
                    }
                });
            }
            while taken.len() < (THREADS * PER_THREAD) as usize {
                taken.extend(shared.take_history());
                std::thread::yield_now();
            }
        });
        assert!(shared.take_history().is_empty());
        let seqs: Vec<u32> = taken.iter().map(seq_of).collect();
        for t in 0..THREADS {
            let own: Vec<u32> = seqs.iter().copied().filter(|s| s / 1_000 == t).collect();
            let want: Vec<u32> = (t * 1_000..t * 1_000 + PER_THREAD).collect();
            assert_eq!(own, want, "thread {t}");
        }
    }

    /// A node that panics while appending poisons the lock; the events
    /// already in the log are still handed out, and appends go on.
    #[test]
    fn a_poisoned_log_still_hands_out_its_events() {
        let shared = RunShared::new(true);
        shared.history().push(tagged(0, 1));
        let poisoner = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = shared.history.lock().unwrap();
            panic!("node handler failed");
        }));
        assert!(poisoner.is_err());
        assert!(shared.history.is_poisoned());
        shared.history().push(tagged(0, 2));
        let seqs: Vec<u32> = shared.take_history().iter().map(seq_of).collect();
        assert_eq!(seqs, [1, 2]);
    }
}
