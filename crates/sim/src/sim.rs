//! The discrete-event simulation engine.
//!
//! Rebuilt twice: first for 100+-partition sweeps (interned `Addr → index`
//! routing, per-link FIFO tables, inline per-node backlog queues, reusable
//! handler scratch buffers, the calendar-queue scheduler of
//! [`crate::sched`]), then as a *sharded* engine: one event loop per DC
//! ([`crate::shard`]), synchronized in conservative cross-DC windows.
//! Event ordering is the source-attributed `(time, key)` total order
//! described in the shard module — identical under the single calendar
//! loop and one loop per DC, which the golden determinism tests pin down.
//!
//! [`Sim`] itself is the cluster facade: registration, routing geometry,
//! the single-loop and window drivers, and the merged views of per-shard
//! metrics and history.

use crate::sched::{QueueStats, SchedKind};
use crate::shard::{EvKind, NodeSlot, Routing, Shard, WindowStats};
use contrarian_runtime::actor::Actor;
use contrarian_runtime::cost::CostModel;
use contrarian_runtime::history::merge_shard_histories;
use contrarian_runtime::metrics::Metrics;
use contrarian_runtime::node_seed;
use contrarian_runtime::step::NodeState;
use contrarian_runtime::trace::merge_traces;
use contrarian_types::{heap, Addr, HeapCensus, HistoryEvent, NodeKind, Op, TraceEvent};
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};

/// The deterministic cluster simulator. Generic over the protocol's
/// [`Actor`] type; one `Sim` runs one protocol on one cluster.
pub struct Sim<A: Actor> {
    now: u64,
    cost: CostModel,
    seed: u64,
    sched: SchedKind,
    /// Whether a window runs its busy shards on threads. `None` until
    /// [`Sim::start`] measures the machine (more than one core ⇒ parallel)
    /// or a test forces a path with [`Sim::set_parallel`]. Either path
    /// produces the same run; only wall-clock speed differs.
    parallel: Option<bool>,
    /// Conservative window rounds driven so far (scheduling telemetry;
    /// engine-comparison tests pin schedules with it).
    rounds: u64,
    /// Host wall time of those rounds, barrier to barrier (the exchange
    /// excluded): what [`WindowStats::wait_ns`] is measured against.
    window_wall_ns: u64,
    /// Pre-start registrations, in order; drained into shards at start.
    staging: Vec<(Addr, A, u32)>,
    /// Registration-time index (`Addr → global id`): duplicate detection
    /// and pre-start `actor()` lookups. Released at the end of
    /// [`Sim::start`] — everything routes through `routing` from then on.
    index: HashMap<Addr, usize>,
    routing: Routing,
    shards: Vec<Shard<A>>,
    /// Some shard other than shard 0 may hold metrics not yet folded into
    /// shard 0's (see [`Sim::metrics`]).
    metrics_dirty: bool,
    /// The run flags, for the shards built at start; once started, every
    /// setter also writes them into each shard's sink.
    recording: bool,
    tracing: bool,
    stopped: bool,
    started: bool,
}

impl<A: Actor> Sim<A> {
    /// A simulator on the given engine: [`SchedKind::default()`] for a run,
    /// an entry of [`crate::ENGINES`] for a test that compares engines.
    pub fn with_scheduler(cost: CostModel, seed: u64, sched: SchedKind) -> Self {
        Sim {
            now: 0,
            cost,
            seed,
            sched,
            parallel: None,
            rounds: 0,
            window_wall_ns: 0,
            staging: Vec::new(),
            index: HashMap::new(),
            routing: Routing::empty(),
            shards: Vec::new(),
            metrics_dirty: false,
            recording: false,
            tracing: false,
            stopped: false,
            started: false,
        }
    }

    /// Registers a server node with `workers` worker threads.
    pub fn add_server(&mut self, addr: Addr, actor: A, workers: u32) {
        assert!(addr.is_server());
        assert!(workers > 0);
        self.register(addr, actor, workers);
    }

    /// Registers a client node (infinitely parallel).
    pub fn add_client(&mut self, addr: Addr, actor: A) {
        assert_eq!(addr.kind, NodeKind::Client);
        self.register(addr, actor, 0);
    }

    fn register(&mut self, addr: Addr, actor: A, workers: u32) {
        assert!(!self.started, "cannot add nodes after start");
        assert!(!self.index.contains_key(&addr), "duplicate node {addr}");
        self.index.insert(addr, self.staging.len());
        self.staging.push((addr, actor, workers));
    }

    /// Forces the window path (tests): `true` runs every busy shard of a
    /// window on its own thread even on a one-core machine, `false` runs
    /// them one after another. Without it [`Sim::start`] picks parallel
    /// when the machine has more than one core.
    pub fn set_parallel(&mut self, parallel: bool) {
        self.parallel = Some(parallel);
    }

    /// Conservative window rounds driven so far (0 on the single-shard path
    /// and when no window can open). The window schedule is a pure function
    /// of the inter-DC latency and the event stream, so identical runs
    /// drive identical round counts.
    pub fn window_rounds(&self) -> u64 {
        self.rounds
    }

    /// Per-shard window telemetry, in shard order (one entry per DC under
    /// [`SchedKind::Sharded`], one under [`SchedKind::Calendar`]; empty
    /// before [`Sim::start`]). The `events` fields sum to
    /// [`Sim::events_processed`]; see [`WindowStats`] for which fields
    /// repeat across serial and parallel windows.
    pub fn window_stats(&self) -> Vec<WindowStats> {
        self.shards
            .iter()
            .map(|s| WindowStats {
                events: s.events_processed,
                wait_ns: self.window_wall_ns.saturating_sub(s.window.busy_ns),
                ..s.window
            })
            .collect()
    }

    /// Number of shards: one per DC under [`SchedKind::Sharded`], else 1.
    pub fn n_shards(&self) -> usize {
        if self.started {
            self.shards.len()
        } else {
            1
        }
    }

    /// Total events the engine has processed (all shards).
    pub fn events_processed(&self) -> u64 {
        self.shards.iter().map(|s| s.events_processed).sum()
    }

    /// Calendar-queue self-telemetry summed over all shards: buckets loaded
    /// and the events they held, late-lane pushes and overflow pushes.
    pub fn queue_stats(&self) -> QueueStats {
        let mut sum = QueueStats::default();
        for s in &self.shards {
            sum += s.queue.stats();
        }
        sum
    }

    /// What the cluster holds on the heap, by node class and owner: the
    /// engine's rows (`engine`: routing, node slots, calendar queues,
    /// backlogs, link state, cross-shard mail, trace rings, metrics,
    /// history), summed over shards, then every node's own rows under
    /// `server` or `client`. Computed on demand from the owners' block
    /// sizes; a run that never asks pays nothing. Only once started.
    pub fn heap_census(&self) -> HeapCensus {
        assert!(self.started, "the nodes live in the shards, built at start");
        let mut census = HeapCensus::new();
        census.set_class("engine");
        census.add(
            "routing",
            self.routing.heap_bytes() + heap::vec_bytes(&self.shards),
            self.routing.addrs.len(),
        );
        for s in &self.shards {
            s.heap_census(&mut census);
        }
        census
    }

    /// Distributes the registered nodes over shards, builds the routing
    /// geometry, then calls every node's `on_start` (in registration
    /// order).
    pub fn start(&mut self) {
        assert!(!self.started);
        self.started = true;
        let n_dcs = self
            .staging
            .iter()
            .map(|(a, _, _)| a.dc.index() + 1)
            .max()
            .unwrap_or(1);
        // A node's shard is its DC under the sharded engine, the one shard
        // otherwise: a function of the address alone, never of machine
        // parallelism, so placement cannot perturb determinism.
        let per_dc = self.sched == SchedKind::Sharded;
        let n_shards = if per_dc { n_dcs } else { 1 };
        self.parallel.get_or_insert_with(|| {
            // lint:allow(determinism): picks threaded or serial windows only; both produce the same history
            std::thread::available_parallelism().is_ok_and(|n| n.get() > 1)
        });

        let shard_of = |addr: Addr| if per_dc { addr.dc.index() } else { 0 };
        // Node slots are ~500 B: sized exactly, a shard holds none spare
        // (doubling from empty left 896 of them, 444 KB, on the 2 × 64-server
        // Okapi cluster under either engine).
        let mut sizes = vec![0; n_shards];
        for (addr, _, _) in &self.staging {
            sizes[shard_of(*addr)] += 1;
        }
        self.shards = (0..n_shards)
            .map(|i| {
                let mut s = Shard::new(i, self.cost);
                s.nodes.reserve_exact(sizes[i]);
                s.sink.recording = self.recording;
                s.sink.tracing = self.tracing;
                s.sink.stopped = self.stopped;
                s
            })
            .collect();
        let mut addrs = Vec::with_capacity(self.staging.len());
        let mut locate = Vec::with_capacity(self.staging.len());
        // `take`, not `drain`: the registration buffer is freed with it
        // (1 152 slots at 1 152 nodes).
        for (gid, (addr, actor, workers)) in
            std::mem::take(&mut self.staging).into_iter().enumerate()
        {
            let shard = shard_of(addr);
            let local = self.shards[shard].nodes.len();
            addrs.push(addr);
            locate.push((shard as u32, local as u32));
            let state = NodeState::new(addr, gid as u32, node_seed(self.seed, addr));
            self.shards[shard]
                .nodes
                .push(NodeSlot::new(state, actor, workers));
        }
        if n_shards > 1 {
            Shard::connect(&mut self.shards);
        }
        self.routing = Routing::build(addrs, locate);
        for s in &mut self.shards {
            s.size_links(&self.routing);
        }
        for gid in 0..self.routing.addrs.len() {
            let (s, l) = self.routing.locate(gid);
            self.shards[s].start_node(&self.routing, l);
        }
        // Bring-up happens before any pop, so cross-shard `on_start` sends
        // merge into the target queues ahead of execution regardless of
        // their arrival time — no window invariant applies yet.
        self.exchange(None);
        // Nothing reads the registration index once started (≈ 1 MB at
        // 1 152 nodes).
        self.index = HashMap::new();
    }

    pub fn now(&self) -> u64 {
        self.now
    }

    /// The run's metrics, all shards merged. Shard 0's own copy is the
    /// merged one: the others are folded into it and cleared here, so a
    /// sharded run holds one set of totals, not one per shard plus a merged
    /// copy. Kept by the shards, so only available once started.
    pub fn metrics(&mut self) -> &Metrics {
        self.merge_metrics();
        &self.shards[0].sink.metrics
    }

    /// The merged metrics for editing (see [`Sim::metrics`]): edits stick,
    /// and the `enabled` flag set through the guard reaches every shard
    /// when it drops.
    pub fn metrics_mut(&mut self) -> MetricsMut<'_, A> {
        self.merge_metrics();
        MetricsMut {
            shards: &mut self.shards,
        }
    }

    fn merge_metrics(&mut self) {
        assert!(
            self.started,
            "metrics are kept by the shards, built at start"
        );
        let (first, rest) = self
            .shards
            .split_first_mut()
            .expect("a started Sim has a shard");
        if self.metrics_dirty {
            for s in rest {
                first.sink.metrics.absorb(&s.sink.metrics);
                s.sink.metrics.clear();
            }
            self.metrics_dirty = false;
        }
    }

    /// Snapshot of the history recorded so far, in canonical order (see
    /// `contrarian_runtime::history`). Clones; use [`Sim::drain_history`]
    /// to consume.
    pub fn history(&self) -> Vec<HistoryEvent> {
        merge_shard_histories(self.shards.iter().map(|s| s.sink.history.clone()))
    }

    /// Drains the events recorded since the last drain, merged into
    /// canonical order. Called between run calls (`run_until` /
    /// `run_to_quiescence` boundaries) the concatenation of drains is
    /// exactly the canonical full history — each drain's events all
    /// precede the next's — which is what lets long recorded runs stream
    /// into a checker instead of buffering the full event `Vec`.
    pub fn drain_history(&mut self) -> Vec<HistoryEvent> {
        merge_shard_histories(
            self.shards
                .iter_mut()
                .map(|s| std::mem::take(&mut s.sink.history)),
        )
    }

    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
        for s in &mut self.shards {
            s.sink.recording = on;
        }
    }

    /// Enables the deterministic tracer (see `contrarian_runtime::trace`).
    /// Off by default: disabled runs pay one branch per potential event.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
        for s in &mut self.shards {
            s.sink.tracing = on;
        }
    }

    /// Drains the trace events buffered since the last drain, merged into
    /// the canonical `(t, node, seq)` order — identical across engines and
    /// shard counts, the same property the history merge has.
    pub fn drain_trace(&mut self) -> Vec<TraceEvent> {
        merge_traces(
            self.shards
                .iter_mut()
                .flat_map(|s| s.drain_trace())
                .collect(),
        )
    }

    /// Tells closed-loop clients to stop issuing new operations.
    pub fn set_stopped(&mut self, stopped: bool) {
        self.stopped = stopped;
        for s in &mut self.shards {
            s.sink.stopped = stopped;
        }
    }

    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Resolves an address to its (shard, local slot) once started.
    #[inline]
    fn locate(&self, addr: Addr) -> (usize, usize) {
        if self.started {
            self.routing.locate(self.routing.global(addr))
        } else {
            let gid = *self
                .index
                .get(&addr)
                .unwrap_or_else(|| panic!("unknown addr {addr}"));
            (usize::MAX, gid)
        }
    }

    /// Read access to a node's actor (post-run inspection: convergence
    /// checks, protocol statistics).
    pub fn actor(&self, addr: Addr) -> &A {
        let (s, i) = self.locate(addr);
        if s == usize::MAX {
            &self.staging[i].1
        } else {
            &self.shards[s].nodes[i].actor
        }
    }

    /// All registered addresses, in registration order.
    pub fn addrs(&self) -> Vec<Addr> {
        if self.started {
            self.routing.addrs.clone()
        } else {
            self.staging.iter().map(|(a, _, _)| *a).collect()
        }
    }

    /// Injects an external operation into a client node (interactive use).
    pub fn inject_op(&mut self, client: Addr, op: Op) {
        let msg = A::inject(op);
        self.external_send(client, client, msg);
    }

    fn external_send(&mut self, from: Addr, to: Addr, msg: A::Msg) {
        assert!(
            self.started,
            "external sends require a started Sim (call start() first)"
        );
        let (s, l) = self.routing.locate(self.routing.global(to));
        let shard = &mut self.shards[s];
        let key = shard.alloc_key(l);
        shard
            .queue
            .push(self.now, key, EvKind::Arrive { to: l, from, msg });
    }

    /// Processes a single event — the globally minimal `(t, key)` across
    /// all shards. Returns `false` when no events remain.
    pub fn step(&mut self) -> bool {
        assert!(self.started, "Sim::start must be called before stepping");
        self.lockstep_step()
    }

    /// `(t, key)`-minimal single step across shards, exchanging cross-shard
    /// messages immediately. This is plain sequential simulation and the
    /// window driver's fallback whenever no window can open (zero
    /// inter-DC latency, or horizons saturated at `u64::MAX`).
    fn lockstep_step(&mut self) -> bool {
        let mut best: Option<(u64, u64, usize)> = None;
        for (i, s) in self.shards.iter_mut().enumerate() {
            if let Some((t, k)) = s.queue.peek_key() {
                if best.is_none_or(|(bt, bk, _)| (t, k) < (bt, bk)) {
                    best = Some((t, k, i));
                }
            }
        }
        let Some((t, _, i)) = best else {
            return false;
        };
        let routing = &self.routing;
        let sent = self.shards[i].window.cross_msgs;
        self.shards[i].step_one(routing);
        if self.shards[i].window.cross_msgs != sent {
            self.exchange(None);
        }
        self.now = self.now.max(t);
        self.metrics_dirty = true;
        true
    }

    /// Delivers every cross-shard message still in flight — gathered,
    /// in an inbox or parked in an outbox — into its target queue. With
    /// `ends` (the per-shard window bounds of a conservative round),
    /// asserts the window invariant: nothing sent during a round may land
    /// inside its *destination's* just-run window.
    fn exchange(&mut self, ends: Option<&[u64]>) {
        let end = |j: usize| ends.map_or(0, |e| e[j]);
        for s in &mut self.shards {
            s.post_all();
        }
        for (j, s) in self.shards.iter_mut().enumerate() {
            s.take_inbox(&self.routing, end(j));
        }
        for i in 0..self.shards.len() {
            let mut outbox = std::mem::take(&mut self.shards[i].outbox);
            for batch in outbox.drain(..) {
                // A batch has one destination: the peer it was gathered for.
                let Some(first) = batch.first() else { continue };
                let (j, _) = self.routing.locate(first.to as usize);
                self.shards[j].deliver(&self.routing, batch, end(j));
            }
            self.shards[i].outbox = outbox;
        }
    }

    /// Processes every event with `t ≤ bound`.
    fn run_bounded(&mut self, bound: u64)
    where
        A: Send,
    {
        assert!(self.started, "Sim::start must be called before running");
        if self.shards.len() == 1 {
            // Single event loop: the classic engine, no barriers at all.
            let routing = &self.routing;
            let s = &mut self.shards[0];
            while let Some(t) = s.queue.peek_t() {
                if t > bound {
                    break;
                }
                s.step_one(routing);
            }
            self.now = self.now.max(s.now);
        } else {
            self.run_windows(bound);
        }
        self.metrics_dirty = true;
    }

    /// The conservative-window driver. Each round computes every shard's
    /// [`horizon`] — the earliest instant any pending work could still get
    /// a message to it — and runs each shard up to its own (bound-clamped)
    /// horizon, in parallel when more than one shard has work and the
    /// machine has a second core: the caller runs the first busy shard
    /// itself and a scoped thread each of the others. Cross-shard messages
    /// still in flight are delivered at the barrier; the next round
    /// recomputes horizons from the advanced clocks.
    ///
    /// Progress: with a nonzero inter-DC latency `L` the shard holding the
    /// global minimum `m` has horizon ≥ `m + L` > `m`, so it always clears
    /// at least its minimal event. No window opens when `L` is zero (every
    /// horizon is `m`) or when horizons saturate near `u64::MAX`; the
    /// driver then runs one lockstep event instead, so the loop never
    /// spins without progress and a zero-latency run is plain sequential
    /// simulation.
    fn run_windows(&mut self, bound: u64)
    where
        A: Send,
    {
        let parallel = self.parallel == Some(true);
        let lookahead = self.cost.interdc_latency_ns;
        let n = self.shards.len();
        let mut next_t = vec![u64::MAX; n];
        let mut ends = vec![0u64; n];
        loop {
            let mut m = u64::MAX;
            let mut any = false;
            for (i, s) in self.shards.iter_mut().enumerate() {
                next_t[i] = match s.queue.peek_t() {
                    Some(t) => {
                        any = true;
                        m = m.min(t);
                        t
                    }
                    None => u64::MAX,
                };
            }
            if !any || m > bound {
                break;
            }
            let mut active = 0usize;
            for (i, end) in ends.iter_mut().enumerate() {
                *end = window_end(horizon(&next_t, i, lookahead), bound);
                if next_t[i] < *end {
                    active += 1;
                }
            }
            if active == 0 {
                // Every window clamped empty: a zero inter-DC latency, or
                // horizons and events saturated at u64::MAX. Lockstep one
                // event so the driver still makes progress.
                self.lockstep_step();
                continue;
            }
            self.rounds += 1;
            let routing = &self.routing;
            let busy = self
                .shards
                .iter_mut()
                .zip(&ends)
                .filter(|(s, &end)| next_t[s.id] < end);
            // lint:allow(determinism): window telemetry only; the reading never reaches an event, history or trace
            let t0 = std::time::Instant::now();
            if !parallel || active <= 1 {
                for (s, &end) in busy {
                    s.run_window(routing, end);
                }
            } else {
                std::thread::scope(|scope| {
                    let mut busy = busy;
                    let (first, &first_end) = busy.next().expect("two busy shards");
                    let others: Vec<_> = busy
                        .map(|(s, &end)| scope.spawn(move || s.run_window(routing, end)))
                        .collect();
                    first.run_window(routing, first_end);
                    for handle in others {
                        // Re-raise a handler's panic with its own payload;
                        // the scope alone would replace it with a generic
                        // "a scoped thread panicked".
                        if let Err(panic) = handle.join() {
                            std::panic::resume_unwind(panic);
                        }
                    }
                });
            }
            self.window_wall_ns += t0.elapsed().as_nanos() as u64;
            self.exchange(Some(&ends));
        }
        self.now = self
            .now
            .max(self.shards.iter().map(|s| s.now).max().unwrap_or(0));
    }

    /// Runs until virtual time `t` (inclusive of events at `t`).
    pub fn run_until(&mut self, t: u64)
    where
        A: Send,
    {
        self.run_bounded(t);
        if self.now < t {
            self.now = t;
        }
        self.release_mail();
    }

    /// Ends a run call with no spare batches or outbox capacity on any
    /// shard (see [`Shard::release_mail`]).
    fn release_mail(&mut self) {
        for s in &mut self.shards {
            s.release_mail();
        }
    }

    /// Runs until the event queue drains or `max_t` is hit (whichever is
    /// first). Useful to quiesce a cluster whose periodic timers have been
    /// stopped.
    pub fn run_to_quiescence(&mut self, max_t: u64)
    where
        A: Send,
    {
        self.run_bounded(max_t);
        // The historical loop (`while now <= max_t && step()`) also ran the
        // *first* event past the bound; keep that observable behaviour.
        if self.now <= max_t {
            self.lockstep_step();
        }
        self.release_mail();
    }
}

/// [`Sim::metrics_mut`]'s guard: derefs to the merged metrics and, when
/// it drops, copies their `enabled` flag to every other shard's sink.
pub struct MetricsMut<'a, A: Actor> {
    shards: &'a mut [Shard<A>],
}

impl<A: Actor> Deref for MetricsMut<'_, A> {
    type Target = Metrics;

    fn deref(&self) -> &Metrics {
        &self.shards[0].sink.metrics
    }
}

impl<A: Actor> DerefMut for MetricsMut<'_, A> {
    fn deref_mut(&mut self) -> &mut Metrics {
        &mut self.shards[0].sink.metrics
    }
}

impl<A: Actor> Drop for MetricsMut<'_, A> {
    fn drop(&mut self) {
        if let Some((first, rest)) = self.shards.split_first_mut() {
            for s in rest {
                s.sink.metrics.enabled = first.sink.metrics.enabled;
            }
        }
    }
}

/// Shard `to`'s conservative horizon under the one inter-DC bound
/// `lookahead`, given each shard's earliest pending event time (`u64::MAX`
/// = idle): the earliest instant any message could still arrive at it.
/// Events of shard `to` strictly before it are safe to run without further
/// communication. Two terms:
///
/// * `next_t[i] + L` for every peer `i` — a chain starting at `i`'s
///   earliest pending event; a relay through further shards only adds
///   hops of at least `L` each;
/// * `next_t[to] + 2L` — the *bounce-back*: `to`'s own pending work can
///   send to a peer whose reply lands back at `to` after a round trip.
///   Without it a shard far ahead of the pack would over-run the replies
///   its own sends provoke.
///
/// `u64::MAX` for a lone shard or when every shard is idle; saturating.
pub fn horizon(next_t: &[u64], to: usize, lookahead: u64) -> u64 {
    let bounce = next_t[to]
        .saturating_add(lookahead)
        .saturating_add(lookahead);
    next_t
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != to)
        .map(|(_, &t)| t.saturating_add(lookahead).min(bounce))
        .min()
        .unwrap_or(u64::MAX)
}

/// Clamps a shard's conservative horizon to the run bound — the one
/// audited place window ends are formed. The window is half-open
/// `[next_t, end)` while the bound is *inclusive* (`run_bounded` must
/// process events at exactly `bound`), hence the `+ 1` — saturating,
/// because `bound == u64::MAX` means "unbounded" and must not wrap into a
/// permanently empty window (the old `(bound + 1).min(..)` /
/// `saturating_add` pairing could spin a degenerate `[u64::MAX, u64::MAX)`
/// window forever once the clamp engaged). The residual saturated case —
/// horizon *and* bound both at `u64::MAX` with every pending event there
/// too — is handled by the driver's lockstep fallback, not here.
#[inline]
fn window_end(horizon: u64, bound: u64) -> u64 {
    horizon.min(bound.saturating_add(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use contrarian_runtime::actor::{ActorCtx, TimerKind};
    use contrarian_runtime::cost::{MsgClass, SimMessage};
    use contrarian_types::{DcId, PartitionId};

    /// A ping-pong actor: servers echo, the client counts echoes.
    struct Echo {
        pongs: u64,
        peer: Option<Addr>,
    }

    #[derive(Clone)]
    struct Ping(u32);

    impl SimMessage for Ping {
        fn wire_size(&self) -> usize {
            32
        }
        fn class(&self) -> MsgClass {
            MsgClass::Data
        }
    }

    impl Actor for Echo {
        type Msg = Ping;

        fn on_start(&mut self, ctx: &mut dyn ActorCtx<Ping>) {
            if let Some(peer) = self.peer {
                ctx.send(peer, Ping(0));
            }
        }

        fn on_message(&mut self, ctx: &mut dyn ActorCtx<Ping>, from: Addr, msg: Ping) {
            if ctx.self_addr().is_server() {
                ctx.send(from, Ping(msg.0 + 1));
            } else {
                self.pongs += 1;
                if msg.0 < 9 {
                    ctx.send(from, Ping(msg.0 + 1));
                }
            }
        }

        fn on_timer(&mut self, _ctx: &mut dyn ActorCtx<Ping>, _kind: TimerKind) {}

        fn inject(_op: Op) -> Ping {
            Ping(0)
        }
    }

    fn mk_with(sched: SchedKind) -> Sim<Echo> {
        let mut sim = Sim::with_scheduler(CostModel::functional(), 1, sched);
        let server = Addr::server(DcId(0), contrarian_types::PartitionId(0));
        let client = Addr::client(DcId(0), 0);
        sim.add_server(
            server,
            Echo {
                pongs: 0,
                peer: None,
            },
            1,
        );
        sim.add_client(
            client,
            Echo {
                pongs: 0,
                peer: Some(server),
            },
        );
        sim
    }

    fn mk() -> Sim<Echo> {
        mk_with(SchedKind::Calendar)
    }

    #[test]
    fn ping_pong_runs_to_completion() {
        for sched in crate::ENGINES {
            let mut sim = mk_with(sched);
            sim.start();
            sim.run_to_quiescence(u64::MAX);
            let client = Addr::client(DcId(0), 0);
            assert_eq!(
                sim.actor(client).pongs,
                5,
                "pings 0,2,4,6,8 produce 5 pongs ({sched:?})"
            );
        }
    }

    #[test]
    fn identical_seeds_are_deterministic_across_engines() {
        let run = |seed, sched| {
            let mut sim = Sim::with_scheduler(CostModel::calibrated(), seed, sched);
            let server = Addr::server(DcId(0), contrarian_types::PartitionId(0));
            let client = Addr::client(DcId(0), 0);
            sim.add_server(
                server,
                Echo {
                    pongs: 0,
                    peer: None,
                },
                2,
            );
            sim.add_client(
                client,
                Echo {
                    pongs: 0,
                    peer: Some(server),
                },
            );
            sim.start();
            sim.run_to_quiescence(u64::MAX);
            sim.now()
        };
        assert_eq!(run(42, SchedKind::Calendar), run(42, SchedKind::Calendar));
        for sched in crate::ENGINES {
            assert_eq!(run(42, SchedKind::Calendar), run(42, sched), "{sched:?}");
        }
    }

    #[test]
    fn traces_merge_identically_across_engines() {
        // The engine-level MsgSend/MsgDeliver events alone must form the
        // same canonical stream under every scheduler — same `(t, node,
        // seq)` keys, same payloads.
        let run = |sched| {
            let mut sim = mk_with(sched);
            sim.set_tracing(true);
            sim.start();
            sim.run_to_quiescence(u64::MAX);
            sim.drain_trace()
        };
        let want = run(SchedKind::Calendar);
        assert!(!want.is_empty(), "ping-pong produces send/deliver events");
        assert!(
            want.windows(2).all(|w| w[0].key() < w[1].key()),
            "canonical order"
        );
        assert_eq!(run(SchedKind::Sharded), want);
    }

    #[test]
    fn tracing_off_buffers_nothing() {
        let mut sim = mk();
        sim.start();
        sim.run_to_quiescence(u64::MAX);
        assert!(sim.drain_trace().is_empty());
    }

    /// Once the nodes live in their shards, neither the registration
    /// buffer nor the registration index holds a block.
    #[test]
    fn start_frees_the_registration_state() {
        for sched in crate::ENGINES {
            let mut sim = mk_with(sched);
            assert!(sim.staging.capacity() >= 2);
            sim.start();
            assert_eq!(sim.staging.capacity(), 0, "{sched:?}");
            assert_eq!(sim.index.capacity(), 0, "{sched:?}");
        }
    }

    #[test]
    fn time_advances_with_costs() {
        let mut sim = mk();
        sim.start();
        sim.run_to_quiescence(u64::MAX);
        // 10 one-way messages, each at least one hop.
        assert!(sim.now() >= 10 * sim.cost_model().hop_latency_ns);
    }

    #[test]
    fn queue_stats_account_for_every_event() {
        let run = |sched| {
            let mut sim = Sim::with_scheduler(CostModel::calibrated(), 5, sched);
            let server = Addr::server(DcId(0), contrarian_types::PartitionId(0));
            let echo = |peer| Echo { pongs: 0, peer };
            sim.add_server(server, echo(None), 1);
            sim.add_client(Addr::client(DcId(0), 0), echo(Some(server)));
            sim.start();
            sim.run_to_quiescence(u64::MAX);
            (sim.queue_stats(), sim.events_processed())
        };
        // Every event entered through the late heap or a loaded bucket
        // (overflow events migrate into buckets before they run).
        let (stats, events) = run(SchedKind::Calendar);
        assert_eq!(stats.late_pushes + stats.bucket_events, events);
        assert!(
            stats.buckets_loaded > 0 && stats.late_pushes > 0,
            "{stats:?}"
        );
        assert_eq!(run(SchedKind::Sharded).0, stats);
    }

    #[test]
    fn run_until_stops_at_bound() {
        let mut sim = mk();
        sim.start();
        sim.run_until(5_000);
        assert!(sim.now() <= 5_001);
        // And picks up where it left off.
        sim.run_to_quiescence(u64::MAX);
        assert_eq!(sim.actor(Addr::client(DcId(0), 0)).pongs, 5);
    }

    #[test]
    fn single_worker_serializes_service() {
        // Two clients hammer one single-worker server; the server must take
        // at least 20 × rx_cost of virtual time to serve 20 requests.
        let cost = CostModel::functional();
        let rx = Ping(0).rx_cost(&cost);
        let mut sim: Sim<Echo> = Sim::with_scheduler(cost, 3, SchedKind::Calendar);
        let server = Addr::server(DcId(0), contrarian_types::PartitionId(0));
        sim.add_server(
            server,
            Echo {
                pongs: 0,
                peer: None,
            },
            1,
        );
        for i in 0..2 {
            sim.add_client(
                Addr::client(DcId(0), i),
                Echo {
                    pongs: 0,
                    peer: Some(server),
                },
            );
        }
        sim.start();
        sim.run_to_quiescence(u64::MAX);
        let total: u64 = (0..2)
            .map(|i| sim.actor(Addr::client(DcId(0), i)).pongs)
            .sum();
        assert_eq!(total, 10);
        assert!(sim.now() >= 20 * rx);
    }

    #[test]
    fn fifo_per_link_is_preserved() {
        // Messages sent in order on one link arrive in order even with
        // zero-latency config (FIFO clamp).
        struct Burst {
            got: Vec<u32>,
        }
        impl Actor for Burst {
            type Msg = Ping;
            fn on_start(&mut self, ctx: &mut dyn ActorCtx<Ping>) {
                if !ctx.self_addr().is_server() {
                    for i in 0..5 {
                        ctx.send(
                            Addr::server(DcId(0), contrarian_types::PartitionId(0)),
                            Ping(i),
                        );
                    }
                }
            }
            fn on_message(&mut self, _ctx: &mut dyn ActorCtx<Ping>, _from: Addr, msg: Ping) {
                self.got.push(msg.0);
            }
            fn on_timer(&mut self, _ctx: &mut dyn ActorCtx<Ping>, _kind: TimerKind) {}
            fn inject(_op: Op) -> Ping {
                Ping(0)
            }
        }
        for sched in crate::ENGINES {
            let mut sim: Sim<Burst> = Sim::with_scheduler(CostModel::functional(), 9, sched);
            let server = Addr::server(DcId(0), contrarian_types::PartitionId(0));
            sim.add_server(server, Burst { got: vec![] }, 4);
            sim.add_client(Addr::client(DcId(0), 0), Burst { got: vec![] });
            sim.start();
            sim.run_to_quiescence(u64::MAX);
            assert_eq!(sim.actor(server).got, vec![0, 1, 2, 3, 4], "{sched:?}");
        }
    }

    #[test]
    fn external_send_injects_and_stops() {
        let mut sim = mk();
        sim.start();
        let client = Addr::client(DcId(0), 0);
        sim.external_send(client, client, Ping(100));
        sim.run_to_quiescence(u64::MAX);
        // The injected Ping(100) is past the pong limit: counted, no reply.
        assert_eq!(sim.actor(client).pongs, 6);
        sim.set_stopped(true);
        assert_eq!(sim.addrs().len(), 2);
    }

    #[test]
    #[should_panic(expected = "unknown addr")]
    fn out_of_range_partition_does_not_alias_across_dcs() {
        // A flat route table must reject idx >= stride instead of reading
        // into the next DC's row.
        let mut sim = mk();
        sim.start();
        sim.actor(Addr::server(DcId(0), contrarian_types::PartitionId(7)));
    }

    #[test]
    #[should_panic(expected = "unknown addr")]
    fn out_of_range_send_does_not_alias_into_a_neighbouring_link_block() {
        // The send path's sibling of the test above. The client's link row
        // is `[dc0 servers | dc1 servers]`, one entry each; partition 1 of
        // DC 0 does not exist, and its FIFO entry would be the DC-1 block's
        // first slot if the index were not bounded by the class stride.
        struct Stray;
        impl Actor for Stray {
            type Msg = Ping;
            fn on_start(&mut self, ctx: &mut dyn ActorCtx<Ping>) {
                if !ctx.self_addr().is_server() {
                    for (dc, p) in [(0, 0), (1, 0), (0, 1)] {
                        let to = Addr::server(DcId(dc), contrarian_types::PartitionId(p));
                        ctx.send(to, Ping(0));
                    }
                }
            }
            fn on_message(&mut self, _ctx: &mut dyn ActorCtx<Ping>, _from: Addr, _msg: Ping) {}
            fn on_timer(&mut self, _ctx: &mut dyn ActorCtx<Ping>, _kind: TimerKind) {}
            fn inject(_op: Op) -> Ping {
                Ping(0)
            }
        }
        let mut sim: Sim<Stray> =
            Sim::with_scheduler(CostModel::functional(), 1, SchedKind::Calendar);
        for dc in 0..2 {
            sim.add_server(
                Addr::server(DcId(dc), contrarian_types::PartitionId(0)),
                Stray,
                1,
            );
        }
        sim.add_client(Addr::client(DcId(0), 0), Stray);
        sim.start();
    }

    #[test]
    fn fifo_clamp_holds_per_link_across_destination_classes() {
        // One handler of one server sends a 64 KiB message and then a
        // 32-byte one to a client, to a server of its own DC and to a
        // server of the other DC. The wire time of the first (640 µs) is
        // far above the send spacing (100 ns), so each second message would
        // overtake its predecessor and must be clamped to one tick behind
        // it — on its own link only: the last send goes to the *other*
        // remote server, whose entry sits next to the clamped one in the
        // sender's link row, and must arrive unclamped. Handler times below
        // were captured on the `n_nodes`-wide link table this layout
        // replaced.
        #[derive(Clone)]
        struct Blob {
            tag: u32,
            bytes: usize,
        }
        impl SimMessage for Blob {
            fn wire_size(&self) -> usize {
                self.bytes
            }
            fn class(&self) -> MsgClass {
                MsgClass::Data
            }
        }
        struct Fan {
            got: Vec<(u32, u64)>,
        }
        fn server(dc: u8, p: u16) -> Addr {
            Addr::server(DcId(dc), contrarian_types::PartitionId(p))
        }
        impl Actor for Fan {
            type Msg = Blob;
            fn on_start(&mut self, ctx: &mut dyn ActorCtx<Blob>) {
                if ctx.self_addr() != server(0, 0) {
                    return;
                }
                let links = [Addr::client(DcId(0), 0), server(0, 1), server(1, 1)];
                for (i, bytes) in [64 << 10, 32].into_iter().enumerate() {
                    for (j, to) in links.into_iter().enumerate() {
                        let tag = (i * links.len() + j) as u32;
                        ctx.send(to, Blob { tag, bytes });
                    }
                }
                ctx.send(server(1, 0), Blob { tag: 6, bytes: 32 });
            }
            fn on_message(&mut self, ctx: &mut dyn ActorCtx<Blob>, _from: Addr, msg: Blob) {
                self.got.push((msg.tag, ctx.now()));
            }
            fn on_timer(&mut self, _ctx: &mut dyn ActorCtx<Blob>, _kind: TimerKind) {}
            fn inject(_op: Op) -> Blob {
                Blob { tag: 0, bytes: 0 }
            }
        }
        // Size moves the wire time only, so receive costs stay constant.
        let cost = CostModel {
            wire_ns_per_kb: 10_000,
            cpu_per_kb_ns: 0,
            ..CostModel::functional()
        };
        for sched in crate::ENGINES {
            let mut sim: Sim<Fan> = Sim::with_scheduler(cost, 3, sched);
            for dc in 0..2 {
                for p in 0..2 {
                    sim.add_server(server(dc, p), Fan { got: vec![] }, 4);
                }
                sim.add_client(Addr::client(DcId(dc), 0), Fan { got: vec![] });
            }
            sim.start();
            sim.run_to_quiescence(u64::MAX);
            let got = |a: Addr| sim.actor(a).got.clone();
            assert_eq!(
                got(Addr::client(DcId(0), 0)),
                vec![(0, 650_200), (3, 650_201)],
                "{sched:?}"
            );
            assert_eq!(
                got(server(0, 1)),
                vec![(1, 650_300), (4, 650_301)],
                "{sched:?}"
            );
            assert_eq!(
                got(server(1, 1)),
                vec![(2, 740_400), (5, 740_401)],
                "{sched:?}"
            );
            assert_eq!(got(server(1, 0)), vec![(6, 101_112)], "{sched:?}");
            assert!(got(server(0, 0)).is_empty() && got(Addr::client(DcId(1), 0)).is_empty());
        }
    }

    #[test]
    fn backlog_slots_are_reused() {
        // Hammer a single-worker server hard enough to build a backlog and
        // drain it fully; the free list must keep the slab bounded.
        let mut sim: Sim<Echo> =
            Sim::with_scheduler(CostModel::functional(), 5, SchedKind::Calendar);
        let server = Addr::server(DcId(0), contrarian_types::PartitionId(0));
        sim.add_server(
            server,
            Echo {
                pongs: 0,
                peer: None,
            },
            1,
        );
        for i in 0..8 {
            sim.add_client(
                Addr::client(DcId(0), i),
                Echo {
                    pongs: 0,
                    peer: Some(server),
                },
            );
        }
        sim.start();
        sim.run_to_quiescence(u64::MAX);
        let total: u64 = (0..8)
            .map(|i| sim.actor(Addr::client(DcId(0), i)).pongs)
            .sum();
        assert_eq!(total, 40);
        let shard = &sim.shards[0];
        assert_eq!(
            shard.backlog.iter().filter(|m| m.is_some()).count(),
            0,
            "backlog fully drained"
        );
        assert_eq!(shard.backlog.len(), shard.backlog_free.len());
    }

    // ---- sharded engine: cross-DC clusters and window barriers ----

    /// A two-DC echo mesh: every client round-robins requests over every
    /// server of both DCs, so most traffic crosses the shard boundary.
    fn mk_geo(sched: SchedKind, cost: CostModel, servers: u16, clients: u16) -> Sim<Mesh> {
        let mut sim: Sim<Mesh> = Sim::with_scheduler(cost, 11, sched);
        for dc in 0..2 {
            for p in 0..servers {
                sim.add_server(
                    Addr::server(DcId(dc), contrarian_types::PartitionId(p)),
                    Mesh::new(servers),
                    2,
                );
            }
        }
        for dc in 0..2 {
            for c in 0..clients {
                sim.add_client(Addr::client(DcId(dc), c), Mesh::new(servers));
            }
        }
        sim
    }

    struct Mesh {
        /// The DCs whose servers this node round-robins over.
        dcs: Vec<u8>,
        servers: u16,
        next: u32,
        echoes: u64,
        sum: u64,
    }

    impl Mesh {
        fn new(servers: u16) -> Self {
            Self::spanning(2, servers)
        }
        fn spanning(dcs: u8, servers: u16) -> Self {
            Self::over((0..dcs).collect(), servers)
        }
        fn over(dcs: Vec<u8>, servers: u16) -> Self {
            Mesh {
                dcs,
                servers,
                next: 0,
                echoes: 0,
                sum: 0,
            }
        }
        fn target(&mut self) -> Addr {
            let t = self.next;
            self.next += 1;
            let all = self.dcs.len() as u32 * self.servers as u32;
            Addr::server(
                DcId(self.dcs[(t % all / self.servers as u32) as usize]),
                contrarian_types::PartitionId((t % self.servers as u32) as u16),
            )
        }
    }

    impl Actor for Mesh {
        type Msg = Ping;
        fn on_start(&mut self, ctx: &mut dyn ActorCtx<Ping>) {
            if !ctx.self_addr().is_server() {
                for _ in 0..4 {
                    let to = self.target();
                    ctx.send(to, Ping(0));
                }
            }
        }
        fn on_message(&mut self, ctx: &mut dyn ActorCtx<Ping>, from: Addr, msg: Ping) {
            if ctx.self_addr().is_server() {
                ctx.send(from, Ping(msg.0 + 1));
            } else {
                self.echoes += 1;
                self.sum = self.sum.wrapping_mul(31).wrapping_add(msg.0 as u64);
                if msg.0 < 40 {
                    let to = self.target();
                    ctx.send(to, Ping(msg.0 + 1));
                }
            }
        }
        fn on_timer(&mut self, _ctx: &mut dyn ActorCtx<Ping>, _kind: TimerKind) {}
        fn inject(_op: Op) -> Ping {
            Ping(0)
        }
    }

    /// Digest of the run every engine must agree on: final time, event
    /// count, and the full per-client observation streams.
    fn geo_digest(
        sched: SchedKind,
        cost: CostModel,
        parallel: Option<bool>,
    ) -> (u64, u64, Vec<u64>) {
        let mut sim = mk_geo(sched, cost, 3, 4);
        if let Some(p) = parallel {
            sim.set_parallel(p);
        }
        sim.start();
        sim.run_until(40_000_000);
        sim.run_to_quiescence(u64::MAX);
        let mut sums = Vec::new();
        for dc in 0..2 {
            for c in 0..4 {
                let a = sim.actor(Addr::client(DcId(dc), c));
                sums.push(a.sum.wrapping_mul(1023).wrapping_add(a.echoes));
            }
        }
        (sim.now(), sim.events_processed(), sums)
    }

    #[test]
    fn sharded_geo_run_matches_single_threaded_engines() {
        let want = geo_digest(SchedKind::Calendar, CostModel::calibrated(), None);
        assert_eq!(
            geo_digest(SchedKind::Sharded, CostModel::calibrated(), None),
            want,
            "sharded engine diverged from the calendar engine"
        );
        // The default engine gives two DCs two shards, and the same run.
        let mut sim = mk_geo(SchedKind::default(), CostModel::calibrated(), 3, 4);
        sim.start();
        assert_eq!(sim.n_shards(), 2);
        assert_eq!(
            geo_digest(SchedKind::default(), CostModel::calibrated(), None),
            want,
            "the default engine diverged from the calendar engine"
        );
        // Forced parallel windows (the machine may report 1 CPU): the
        // threaded window path itself must replay the same run.
        assert_eq!(
            geo_digest(SchedKind::Sharded, CostModel::calibrated(), Some(true)),
            want,
            "parallel windows diverged"
        );
    }

    #[test]
    fn a_nodes_shard_is_its_dc() {
        // Placement is a function of the address alone: under the sharded
        // engine shard `i` holds exactly DC `i`'s nodes in registration
        // order; the calendar engine holds every node in its one shard.
        // Routing must locate each registration id at its slot.
        let servers = |dc| (0..3).map(move |p| Addr::server(DcId(dc), PartitionId(p)));
        let clients = |dc| (0..4).map(move |c| Addr::client(DcId(dc), c));
        for sched in crate::ENGINES {
            let mut sim = mk_geo(sched, CostModel::calibrated(), 3, 4);
            sim.start();
            let placed: Vec<Vec<Addr>> = sim
                .shards
                .iter()
                .map(|s| s.nodes.iter().map(|n| n.state.addr).collect())
                .collect();
            let want: Vec<Vec<Addr>> = match sched {
                SchedKind::Calendar => vec![servers(0)
                    .chain(servers(1))
                    .chain(clients(0))
                    .chain(clients(1))
                    .collect()],
                SchedKind::Sharded => (0..2)
                    .map(|dc| servers(dc).chain(clients(dc)).collect())
                    .collect(),
            };
            assert_eq!(placed, want, "{sched:?}");
            for (gid, &addr) in sim.routing.addrs.iter().enumerate() {
                let (s, l) = sim.routing.locate(gid);
                let slot = &sim.shards[s].nodes[l];
                assert_eq!(
                    (slot.state.addr, slot.state.global_id),
                    (addr, gid as u32),
                    "{sched:?}"
                );
            }
        }
    }

    #[test]
    fn the_engine_value_fixes_shards_and_windows() {
        // The engine value alone fixes the geometry: the calendar engine
        // runs one shard with no window, the sharded one a shard per DC
        // windowed on the cost model's inter-DC latency.
        let run = |sched| {
            let mut sim = mk_geo(sched, CostModel::calibrated(), 2, 2);
            sim.start();
            let shards = sim.n_shards();
            sim.run_to_quiescence(u64::MAX);
            (shards, sim.window_rounds())
        };
        assert_eq!(run(SchedKind::Calendar), (1, 0));
        let (shards, rounds) = run(SchedKind::Sharded);
        assert_eq!(shards, 2);
        assert!(rounds > 0, "cross-DC traffic runs in windows");
    }

    #[test]
    fn single_dc_sharded_run_is_one_shard_replaying_calendar() {
        // One DC gives the sharded engine one shard: no peer, no window
        // rounds, and exactly the calendar run.
        let run = |sched| {
            let mut sim: Sim<Mesh> = Sim::with_scheduler(CostModel::calibrated(), 5, sched);
            for p in 0..4 {
                sim.add_server(
                    Addr::server(DcId(0), PartitionId(p)),
                    Mesh::spanning(1, 4),
                    2,
                );
            }
            for c in 0..4 {
                sim.add_client(Addr::client(DcId(0), c), Mesh::spanning(1, 4));
            }
            sim.start();
            assert_eq!(sim.n_shards(), 1, "{sched:?}");
            sim.run_to_quiescence(u64::MAX);
            assert_eq!(sim.window_rounds(), 0, "{sched:?}");
            let sums: Vec<u64> = (0..4)
                .map(|c| {
                    let a = sim.actor(Addr::client(DcId(0), c));
                    a.sum.wrapping_mul(1023).wrapping_add(a.echoes)
                })
                .collect();
            (sim.now(), sim.events_processed(), sums)
        };
        let want = run(SchedKind::Calendar);
        assert_eq!(run(SchedKind::Sharded), want);
        assert_eq!(run(SchedKind::default()), want);
    }

    #[test]
    fn window_stats_repeat_across_window_paths_and_count_every_event() {
        // Rounds, events and cross-shard messages per shard are a function
        // of the run, serial or parallel; the host-time fields are not
        // compared.
        let run = |parallel| {
            let mut sim = mk_geo(SchedKind::Sharded, CostModel::calibrated(), 3, 4);
            sim.set_parallel(parallel);
            sim.start();
            sim.run_until(40_000_000);
            sim.run_to_quiescence(u64::MAX);
            let stats = sim.window_stats();
            let events: u64 = stats.iter().map(|s| s.events).sum();
            assert_eq!(events, sim.events_processed(), "parallel: {parallel}");
            let rounds = sim.window_rounds();
            assert!(stats.iter().all(|s| s.rounds <= rounds), "{stats:?}");
            stats
                .iter()
                .map(|s| (s.rounds, s.events, s.cross_msgs))
                .collect::<Vec<_>>()
        };
        let serial = run(false);
        assert_eq!(serial.len(), 2, "one shard per DC");
        assert!(
            serial.iter().all(|&(r, e, x)| r > 0 && e > 0 && x > 0),
            "both shards ran windows and crossed DCs: {serial:?}"
        );
        assert_eq!(run(true), serial);
        // One loop: every event on the one shard, no rounds, no exchange.
        let mut sim = mk_geo(SchedKind::Calendar, CostModel::calibrated(), 3, 4);
        sim.start();
        sim.run_to_quiescence(u64::MAX);
        let stats = sim.window_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(
            (stats[0].rounds, stats[0].events, stats[0].cross_msgs),
            (0, sim.events_processed(), 0)
        );
    }

    /// The engine's census rows repeat from run to run of one threaded
    /// 2-DC cluster: a run call leaves no spare batches and no outbox
    /// capacity, whose amount would depend on how the threads met.
    #[test]
    fn engine_census_rows_repeat_across_threaded_runs() {
        let rows = || {
            let mut sim = mk_geo(SchedKind::Sharded, CostModel::calibrated(), 4, 64);
            sim.set_parallel(true);
            sim.start();
            for ms in 1..=40 {
                sim.run_until(ms * 1_000_000);
            }
            let census = sim.heap_census();
            assert!(census.items("engine", "nodes") > 0);
            census
                .rows()
                .iter()
                .filter(|r| r.class == "engine")
                .map(|r| (r.owner, r.bytes, r.items))
                .collect::<Vec<_>>()
        };
        let first = rows();
        for _ in 0..5 {
            assert_eq!(rows(), first);
        }
    }

    #[test]
    fn a_handler_panic_on_a_worker_shard_surfaces_from_run_until() {
        // DC 1's server fails on its 20th message. Mesh traffic keeps both
        // shards busy in every round, so with two threads DC 1 runs on the
        // spawned thread while the caller runs DC 0: the panic must reach
        // the caller with the handler's own message — not hang the
        // barrier, not be swallowed, not be replaced by the scope's generic
        // one — and the message records that it came from the worker.
        thread_local!(static CALLER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) });
        struct Faulty {
            inner: Mesh,
            served: u32,
        }
        impl Actor for Faulty {
            type Msg = Ping;
            fn on_start(&mut self, ctx: &mut dyn ActorCtx<Ping>) {
                self.inner.on_start(ctx);
            }
            fn on_message(&mut self, ctx: &mut dyn ActorCtx<Ping>, from: Addr, msg: Ping) {
                if ctx.self_addr() == Addr::server(DcId(1), PartitionId(0)) {
                    self.served += 1;
                    if self.served == 20 {
                        let on_caller = CALLER.with(|c| c.get());
                        panic!("DC 1 server failed (on the caller's thread: {on_caller})");
                    }
                }
                self.inner.on_message(ctx, from, msg);
            }
            fn on_timer(&mut self, _ctx: &mut dyn ActorCtx<Ping>, _kind: TimerKind) {}
            fn inject(_op: Op) -> Ping {
                Ping(0)
            }
        }
        let faulty = || Faulty {
            inner: Mesh::new(2),
            served: 0,
        };
        let mut sim: Sim<Faulty> =
            Sim::with_scheduler(CostModel::calibrated(), 3, SchedKind::Sharded);
        for dc in 0..2 {
            for p in 0..2 {
                sim.add_server(Addr::server(DcId(dc), PartitionId(p)), faulty(), 2);
            }
            for c in 0..4 {
                sim.add_client(Addr::client(DcId(dc), c), faulty());
            }
        }
        sim.set_parallel(true);
        sim.start();
        CALLER.with(|c| c.set(true));
        let run = std::panic::AssertUnwindSafe(|| sim.run_until(1_000_000_000));
        let payload = std::panic::catch_unwind(run).expect_err("the handler panicked");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| format!("a non-string payload: {payload:?}"));
        assert_eq!(msg, "DC 1 server failed (on the caller's thread: false)");
    }

    #[test]
    fn surplus_shards_stay_empty_and_harmless() {
        // DCs 0 and 2 only: the sharded engine still gives DC 1 a shard,
        // which owns no nodes. It must not perturb the run (or deadlock
        // the window barrier).
        let digest = |sched, parallel: Option<bool>| {
            let mut sim: Sim<Mesh> = Sim::with_scheduler(CostModel::calibrated(), 17, sched);
            for dc in [0, 2] {
                for p in 0..2 {
                    let addr = Addr::server(DcId(dc), PartitionId(p));
                    sim.add_server(addr, Mesh::over(vec![0, 2], 2), 2);
                }
                for c in 0..3 {
                    sim.add_client(Addr::client(DcId(dc), c), Mesh::over(vec![0, 2], 2));
                }
            }
            if let Some(p) = parallel {
                sim.set_parallel(p);
            }
            sim.start();
            let empty: Vec<usize> = (0..sim.n_shards())
                .filter(|&s| sim.shards[s].nodes.is_empty())
                .collect();
            sim.run_until(40_000_000);
            sim.run_to_quiescence(u64::MAX);
            let mut sums = Vec::new();
            for dc in [0, 2] {
                for c in 0..3 {
                    let a = sim.actor(Addr::client(DcId(dc), c));
                    sums.push(a.sum.wrapping_mul(1023).wrapping_add(a.echoes));
                }
            }
            let rounds = sim.window_rounds();
            (
                (sim.n_shards(), empty),
                (sim.now(), sim.events_processed(), sums),
                rounds,
            )
        };
        let (geometry, want, _) = digest(SchedKind::Calendar, None);
        assert_eq!(geometry, (1, vec![]));
        let (geometry, got, rounds) = digest(SchedKind::Sharded, Some(true));
        assert_eq!(geometry, (3, vec![1]), "DC 1's shard is empty");
        assert_eq!(got, want);
        assert!(rounds > 0, "the run went through the window barrier");
    }

    #[test]
    fn zero_cross_dc_latency_degenerates_to_lockstep() {
        // With free cross-DC links no conservative window opens: the
        // window driver runs one globally minimal event at a time, drives
        // no round, and still matches the single-threaded run exactly.
        let mut cost = CostModel::functional();
        cost.interdc_latency_ns = 0;
        let want = geo_digest(SchedKind::Calendar, cost, None);
        for parallel in [false, true] {
            assert_eq!(geo_digest(SchedKind::Sharded, cost, Some(parallel)), want);
        }
        let mut sim = mk_geo(SchedKind::Sharded, cost, 3, 4);
        sim.start();
        sim.run_to_quiescence(u64::MAX);
        assert_eq!(sim.n_shards(), 2);
        assert_eq!(sim.window_rounds(), 0);
        assert_eq!(sim.events_processed(), want.1);
    }

    #[test]
    fn arrival_exactly_on_the_window_boundary_is_next_window() {
        // Strip every cost except the inter-DC latency L. A cross-DC send
        // fired at t=0 then arrives at exactly L — the exclusive end of
        // the first window [0, L). It must be exchanged into the *next*
        // window and still be delivered, identically to the serial engine.
        struct OneShot {
            delivered: Vec<u64>,
        }
        impl Actor for OneShot {
            type Msg = Ping;
            fn on_start(&mut self, ctx: &mut dyn ActorCtx<Ping>) {
                if !ctx.self_addr().is_server() {
                    ctx.send(
                        Addr::server(DcId(1), contrarian_types::PartitionId(0)),
                        Ping(7),
                    );
                }
            }
            fn on_message(&mut self, ctx: &mut dyn ActorCtx<Ping>, _from: Addr, _msg: Ping) {
                self.delivered.push(ctx.now());
            }
            fn on_timer(&mut self, _ctx: &mut dyn ActorCtx<Ping>, _kind: TimerKind) {}
            fn inject(_op: Op) -> Ping {
                Ping(0)
            }
        }
        const L: u64 = 123_456;
        let zeroed = CostModel {
            rx_ns: 0,
            tx_ns: 0,
            check_rx_ns: 0,
            check_tx_ns: 0,
            client_rx_ns: 0,
            client_tx_ns: 0,
            read_op_ns: 0,
            write_op_ns: 0,
            snap_ns: 0,
            scan_per_version_ns: 0,
            reader_record_ns: 0,
            per_rot_id_ns: 0,
            cpu_per_kb_ns: 0,
            timer_ns: 0,
            hop_latency_ns: 0,
            interdc_latency_ns: L,
            wire_ns_per_kb: 0,
        };
        let run = |sched| {
            let mut sim: Sim<OneShot> = Sim::with_scheduler(zeroed, 2, sched);
            // A server in each DC so both shards have a node; only DC1's
            // server receives anything.
            for dc in 0..2 {
                sim.add_server(
                    Addr::server(DcId(dc), contrarian_types::PartitionId(0)),
                    OneShot { delivered: vec![] },
                    1,
                );
            }
            sim.add_client(Addr::client(DcId(0), 0), OneShot { delivered: vec![] });
            sim.start();
            sim.run_to_quiescence(u64::MAX);
            sim.actor(Addr::server(DcId(1), contrarian_types::PartitionId(0)))
                .delivered
                .clone()
        };
        let serial = run(SchedKind::Calendar);
        assert_eq!(serial, vec![L], "arrival lands exactly at the lookahead");
        assert_eq!(run(SchedKind::Sharded), serial);
    }

    /// A recording actor: clients tag a PutDone per echo.
    struct Rec {
        inner: Mesh,
    }

    impl Actor for Rec {
        type Msg = Ping;
        fn on_start(&mut self, ctx: &mut dyn ActorCtx<Ping>) {
            self.inner.on_start(ctx);
        }
        fn on_message(&mut self, ctx: &mut dyn ActorCtx<Ping>, from: Addr, msg: Ping) {
            use contrarian_types::{ClientId, Key, VersionId};
            let me = ctx.self_addr();
            if !me.is_server() {
                ctx.record(HistoryEvent::PutDone {
                    client: ClientId::new(me.dc, me.idx),
                    seq: msg.0,
                    t_start: ctx.now(),
                    t_end: ctx.now(),
                    key: Key(msg.0 as u64),
                    vid: VersionId::new(ctx.now(), me.dc),
                });
            }
            self.inner.on_message(ctx, from, msg);
        }
        fn on_timer(&mut self, _ctx: &mut dyn ActorCtx<Ping>, _kind: TimerKind) {}
        fn inject(_op: Op) -> Ping {
            Ping(0)
        }
    }

    /// A started, recording two-DC mesh of [`Rec`] actors.
    fn recording_mesh(sched: SchedKind) -> Sim<Rec> {
        let mut sim: Sim<Rec> = Sim::with_scheduler(CostModel::calibrated(), 4, sched);
        for dc in 0..2 {
            sim.add_server(
                Addr::server(DcId(dc), contrarian_types::PartitionId(0)),
                Rec {
                    inner: Mesh::new(1),
                },
                2,
            );
            sim.add_client(
                Addr::client(DcId(dc), 0),
                Rec {
                    inner: Mesh::new(1),
                },
            );
        }
        sim.set_recording(true);
        sim.start();
        sim
    }

    #[test]
    fn drained_history_concatenation_equals_one_drain() {
        // Draining at run boundaries then concatenating must equal the
        // one-shot history of an identical run.
        let mut whole = recording_mesh(SchedKind::Sharded);
        whole.run_to_quiescence(u64::MAX);
        let want = whole.drain_history();
        assert!(!want.is_empty());

        let mut chunked = recording_mesh(SchedKind::Sharded);
        let mut got = Vec::new();
        for slice in [10_000_000u64, 25_000_000, 60_000_000] {
            chunked.run_until(slice);
            got.extend(chunked.drain_history());
        }
        chunked.run_to_quiescence(u64::MAX);
        got.extend(chunked.drain_history());
        assert_eq!(format!("{want:?}"), format!("{got:?}"));
    }

    /// `history` is a snapshot of exactly what the next drain returns,
    /// and a drain leaves nothing behind for either.
    #[test]
    fn a_drain_returns_the_snapshot_and_leaves_nothing() {
        for sched in crate::ENGINES {
            let mut sim = recording_mesh(sched);
            sim.run_until(25_000_000);
            let snapshot = sim.history();
            assert!(!snapshot.is_empty(), "{sched:?}");
            assert_eq!(format!("{snapshot:?}"), format!("{:?}", sim.history()));
            let drained = sim.drain_history();
            assert_eq!(format!("{snapshot:?}"), format!("{drained:?}"), "{sched:?}");
            assert!(sim.history().is_empty(), "{sched:?}");
            assert!(sim.drain_history().is_empty(), "{sched:?}");
        }
    }

    /// Measurement switched through `metrics_mut` reaches every shard:
    /// both engines count the same messages while it is on, and none once
    /// it is off again.
    #[test]
    fn measuring_set_through_metrics_mut_reaches_every_shard() {
        let counted = |sched| {
            let mut sim = recording_mesh(sched);
            sim.metrics_mut().enabled = true;
            sim.run_until(25_000_000);
            sim.metrics_mut().enabled = false;
            let on = sim.metrics().msgs;
            let t = sim.now();
            sim.run_to_quiescence(u64::MAX);
            assert!(sim.now() > t, "{sched:?}: the run goes on after 25 ms");
            (on, sim.metrics().msgs)
        };
        let (on, after) = counted(SchedKind::Calendar);
        assert!(on > 0);
        assert_eq!(after, on, "nothing is counted once off");
        assert_eq!(counted(SchedKind::Sharded), (on, on));
    }

    // ---- horizon and window-bound arithmetic ----

    #[test]
    fn horizon_is_min_over_other_shards_clocks_plus_bounds() {
        // The laggard is gated by its own bounce-back (0 + 10 + 10), not
        // the peers' clocks.
        assert_eq!(horizon(&[0, 100, 40], 0, 10), 20);
        assert_eq!(
            horizon(&[5, 100, 40], 1, 10),
            15,
            "gated by shard 0's clock"
        );
        // Idle peers (u64::MAX) saturate out of the incoming-chain terms,
        // but the bounce-back still applies: the busy shard's own sends can
        // wake an idle peer into replying.
        assert_eq!(horizon(&[0, u64::MAX, u64::MAX], 0, 10), 20);
        // A genuinely idle shard, and a lone one, have unbounded horizons.
        assert_eq!(horizon(&[u64::MAX; 3], 0, 10), u64::MAX);
        assert_eq!(horizon(&[7], 0, 10), u64::MAX);
        // A zero bound opens no window: every horizon is the global minimum.
        assert_eq!(horizon(&[3, 5], 0, 0), 3);
        assert_eq!(horizon(&[3, 5], 1, 0), 3);
    }

    #[test]
    fn window_end_clamps_with_saturating_semantics() {
        // The bound is inclusive, the window end exclusive: +1, saturating.
        assert_eq!(window_end(100, 500), 100, "horizon below the bound wins");
        assert_eq!(window_end(100, 50), 51, "bound+1 caps the window");
        assert_eq!(window_end(100, 99), 100);
        assert_eq!(
            window_end(100, u64::MAX),
            100,
            "unbounded run, real horizon"
        );
        assert_eq!(window_end(u64::MAX, 10), 11);
        // The degenerate clamp the old arithmetic got wrong: both saturated
        // must stay [MAX, MAX) — empty — and be handled by the driver's
        // lockstep fallback, never wrap to a tiny bogus window.
        assert_eq!(window_end(u64::MAX, u64::MAX), u64::MAX);
        assert_eq!(window_end(u64::MAX, u64::MAX - 1), u64::MAX);
        assert_eq!(window_end(0, 0), 0, "empty window at the origin is fine");
    }

    #[test]
    fn timers_at_u64_max_terminate_via_lockstep_fallback() {
        // Regression: events pending exactly at u64::MAX saturate every
        // horizon, so every window clamps empty ([MAX, MAX)); the driver
        // must fall back to lockstep instead of spinning forever.
        struct FarTimer {
            fired: bool,
        }
        impl Actor for FarTimer {
            type Msg = Ping;
            fn on_start(&mut self, ctx: &mut dyn ActorCtx<Ping>) {
                if !ctx.self_addr().is_server() {
                    ctx.set_timer(u64::MAX, TimerKind::new(1));
                }
            }
            fn on_message(&mut self, _ctx: &mut dyn ActorCtx<Ping>, _from: Addr, _msg: Ping) {}
            fn on_timer(&mut self, _ctx: &mut dyn ActorCtx<Ping>, _kind: TimerKind) {
                self.fired = true;
            }
            fn inject(_op: Op) -> Ping {
                Ping(0)
            }
        }
        let mut sim: Sim<FarTimer> =
            Sim::with_scheduler(CostModel::functional(), 7, SchedKind::Sharded);
        for dc in 0..2 {
            sim.add_server(
                Addr::server(DcId(dc), contrarian_types::PartitionId(0)),
                FarTimer { fired: false },
                1,
            );
            sim.add_client(Addr::client(DcId(dc), 0), FarTimer { fired: false });
        }
        sim.start();
        sim.run_to_quiescence(u64::MAX);
        for dc in 0..2 {
            assert!(
                sim.actor(Addr::client(DcId(dc), 0)).fired,
                "DC{dc}'s far timer must still fire"
            );
        }
        assert_eq!(sim.now(), u64::MAX);
    }

    #[test]
    fn sends_from_a_far_future_timer_saturate_on_delivery() {
        // Regression: the send phase saturated arrivals at u64::MAX, but
        // delivery (`on_arrive`, `on_worker_free`, `finish_worker`) still
        // added service costs unsaturated — a debug-build overflow panic,
        // a wrap into the past in release. The echo exchange a timer at
        // MAX - 10 starts must run to completion at the end of time.
        struct LateEcho {
            pongs: u64,
        }
        fn server() -> Addr {
            Addr::server(DcId(0), contrarian_types::PartitionId(0))
        }
        impl Actor for LateEcho {
            type Msg = Ping;
            fn on_start(&mut self, ctx: &mut dyn ActorCtx<Ping>) {
                if !ctx.self_addr().is_server() {
                    ctx.set_timer(u64::MAX - 10, TimerKind::new(1));
                }
            }
            fn on_message(&mut self, ctx: &mut dyn ActorCtx<Ping>, from: Addr, msg: Ping) {
                if !ctx.self_addr().is_server() {
                    self.pongs += 1;
                }
                if msg.0 < 9 {
                    ctx.send(from, Ping(msg.0 + 1));
                }
            }
            fn on_timer(&mut self, ctx: &mut dyn ActorCtx<Ping>, _kind: TimerKind) {
                ctx.send(server(), Ping(0));
            }
            fn inject(_op: Op) -> Ping {
                Ping(0)
            }
        }
        for sched in crate::ENGINES {
            let mut sim: Sim<LateEcho> = Sim::with_scheduler(CostModel::calibrated(), 7, sched);
            sim.add_server(server(), LateEcho { pongs: 0 }, 1);
            sim.add_client(Addr::client(DcId(0), 0), LateEcho { pongs: 0 });
            sim.start();
            sim.run_to_quiescence(u64::MAX);
            assert_eq!(sim.actor(Addr::client(DcId(0), 0)).pongs, 5, "{sched:?}");
            assert_eq!(sim.now(), u64::MAX, "{sched:?}");
        }
    }
}
