//! The per-node event loop of the live runtime.
//!
//! Every node of a [`NetCluster`](crate::NetCluster) is an OS thread
//! running [`run_node`]: it drains the node's input channel, fires due
//! timers off a deadline queue, accumulates a thread-local metrics sink,
//! and hands the state machine a [`LiveCtx`] as its `ActorCtx`. What the
//! node sends leaves through its [`ReactorOutbound`]: encoded on this
//! thread, pushed onto the connection's bounded ring, written to the
//! socket by a reactor thread.

use crate::reactor::ReactorOutbound;
use contrarian_runtime::actor::{Actor, ActorCtx, TimerKind};
use contrarian_runtime::history::HistorySink;
use contrarian_runtime::metrics::Metrics;
use contrarian_types::codec::Wire;
use contrarian_types::{Addr, HistoryEvent};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};

/// One item on a node's input channel.
pub(crate) enum Input<M> {
    /// A delivered message.
    Msg { from: Addr, msg: M },
    /// Orderly shutdown of the node thread.
    Stop,
}

/// Cluster-wide run state the node threads share: the clock origin, the
/// stop/measure flags, and the waitable history sink.
///
/// Metrics are *not* here: every node thread accumulates its own
/// [`Metrics`] and hands it back when the thread joins — the measurement
/// hot path takes no lock. History is only ever touched when `recording`
/// is set (functional runs), through a [`HistorySink`] whose condition
/// variable lets waiters sleep instead of poll.
pub(crate) struct RunShared {
    pub(crate) start: Instant,
    pub(crate) stopped: AtomicBool,
    pub(crate) measuring: AtomicBool,
    pub(crate) history: HistorySink,
    pub(crate) recording: bool,
}

impl RunShared {
    pub(crate) fn new(recording: bool) -> Self {
        RunShared {
            start: Instant::now(),
            stopped: AtomicBool::new(false),
            measuring: AtomicBool::new(false),
            history: HistorySink::new(),
            recording,
        }
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

/// The per-node event loop: drains the input channel and fires due timers
/// until a [`Input::Stop`] arrives (or every sender disconnects). Returns
/// the actor and the thread-local metrics sink.
pub(crate) fn run_node<A>(
    addr: Addr,
    mut actor: A,
    rx: Receiver<Input<A::Msg>>,
    mut out: ReactorOutbound<A::Msg>,
    shared: &RunShared,
    seed: u64,
) -> (A, Metrics)
where
    A: Actor,
    A::Msg: Wire + Send + 'static,
{
    let mut rng = SmallRng::seed_from_u64(seed);
    // Timer queue: (deadline, seq, kind, arg); BinaryHeap is a max-heap so
    // store reversed deadlines.
    let mut timers: BinaryHeap<std::cmp::Reverse<(Instant, u64, u16, u64)>> = BinaryHeap::new();
    let mut timer_seq = 0u64;
    // The thread-local metrics sink: all handler effects accumulate here and
    // the whole thing is handed back on join — no shared lock on this path.
    let mut metrics = Metrics::new();

    let fire = |actor: &mut A,
                rng: &mut SmallRng,
                timers: &mut BinaryHeap<std::cmp::Reverse<(Instant, u64, u16, u64)>>,
                timer_seq: &mut u64,
                metrics: &mut Metrics,
                out: &mut ReactorOutbound<A::Msg>,
                ev: Event<A::Msg>| {
        metrics.enabled = shared.measuring.load(Ordering::Relaxed);
        let mut ctx = LiveCtx {
            addr,
            shared,
            rng,
            out: Vec::new(),
            new_timers: Vec::new(),
            metrics,
        };
        match ev {
            Event::Start => actor.on_start(&mut ctx),
            Event::Msg { from, msg } => actor.on_message(&mut ctx, from, msg),
            Event::Timer(kind) => actor.on_timer(&mut ctx, kind),
        }
        let LiveCtx {
            out: sent,
            new_timers,
            ..
        } = ctx;
        for (to, msg) in sent {
            out.deliver(to, msg);
        }
        for (delay_ns, kind) in new_timers {
            *timer_seq += 1;
            let deadline = Instant::now() + Duration::from_nanos(delay_ns);
            timers.push(std::cmp::Reverse((deadline, *timer_seq, kind.kind, kind.a)));
        }
    };

    macro_rules! dispatch {
        ($ev:expr) => {
            fire(
                &mut actor,
                &mut rng,
                &mut timers,
                &mut timer_seq,
                &mut metrics,
                &mut out,
                $ev,
            )
        };
    }

    dispatch!(Event::Start);

    loop {
        // Fire due timers.
        let now = Instant::now();
        while let Some(std::cmp::Reverse((deadline, _, kind, a))) = timers.peek().copied() {
            if deadline > now {
                break;
            }
            timers.pop();
            dispatch!(Event::Timer(TimerKind::with_arg(kind, a)));
        }
        // Wait for the next input or timer deadline.
        let wait = timers
            .peek()
            .map(|std::cmp::Reverse((d, ..))| d.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_millis(5));
        match rx.recv_timeout(wait.min(Duration::from_millis(5))) {
            Ok(Input::Msg { from, msg }) => dispatch!(Event::Msg { from, msg }),
            Ok(Input::Stop) => break,
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    (actor, metrics)
}

struct LiveCtx<'a, M> {
    addr: Addr,
    shared: &'a RunShared,
    rng: &'a mut SmallRng,
    out: Vec<(Addr, M)>,
    new_timers: Vec<(u64, TimerKind)>,
    /// The node thread's metrics sink (merged into the cluster total when
    /// the thread joins).
    metrics: &'a mut Metrics,
}

impl<'a, M> ActorCtx<M> for LiveCtx<'a, M> {
    fn now(&self) -> u64 {
        self.shared.now()
    }

    fn self_addr(&self) -> Addr {
        self.addr
    }

    fn send(&mut self, to: Addr, msg: M) {
        self.out.push((to, msg));
    }

    fn set_timer(&mut self, delay_ns: u64, kind: TimerKind) {
        self.new_timers.push((delay_ns, kind));
    }

    fn charge(&mut self, _ns: u64) {
        // Real time: CPU is charged by actually spending it.
    }

    fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    fn metrics(&mut self) -> &mut Metrics {
        self.metrics
    }

    fn record(&mut self, ev: HistoryEvent) {
        if self.shared.recording {
            self.shared.history.append(ev);
        }
    }

    fn recording(&self) -> bool {
        self.shared.recording
    }

    fn stopped(&self) -> bool {
        self.shared.stopped.load(Ordering::SeqCst)
    }
}
