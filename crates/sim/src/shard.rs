//! The per-shard execution core of the sharded simulator.
//!
//! A [`crate::Sim`] is a set of `Shard`s. Each shard owns its nodes —
//! every node under the calendar engine, one DC's under the sharded one —
//! the calendar queue of their pending events, their backlog slab, and the
//! FIFO state of every link *originating* at their nodes. The
//! single-threaded engine is the one-shard special case — there is exactly
//! one event-processing code path, which is what makes
//! "sharded is bit-identical to single-threaded" a structural property
//! instead of a parallel-maintenance burden.
//!
//! ## Link state sized by what a sender reaches
//!
//! FIFO per link needs one `u64` — the last scheduled arrival — per
//! (sender, receiver) pair that ever carries a message. A row of
//! `n_nodes` entries per sender is the obvious table and mostly empty
//! capacity: on the 2 × 64-server / 1 024-client tier each of 1 152 rows
//! took 9 216 B (10.6 MB resident) although a client only ever addresses
//! the 64 servers of its own DC. Receivers are therefore grouped into
//! *destination classes* — `dc × {server, client}`, the same geometry the
//! `RouteTable` is indexed by — and a sender's row is made of one block
//! per class it has sent into, appended on the first such send and
//! `stride` entries long (see `Shard::links`). That client holds 512 B,
//! a server that talks to its DC's servers and clients and to the other
//! DC's servers 5 120 B. The row stays flat — one base lookup, one
//! indexed load — because a nested `Vec<Vec<Vec<u64>>>` table read ≈ 5 %
//! slower end to end when both were sized.
//!
//! ## Determinism: source-attributed event keys
//!
//! A discrete-event simulator needs a total order over events; ties at
//! equal virtual time must break deterministically. The pre-shard engine
//! used one global insertion counter — inherently sequential, since the
//! counter value depends on the exact global interleaving of handler
//! executions. Sharded execution replaces it with a *source-attributed
//! key*: every event is stamped `(t, source-node-id ∥ per-source-counter)`
//! at push time, where the counter belongs to the node whose handler (or
//! arrival processing) created the event. Two properties make this
//! engine-independent:
//!
//! * a node's counter advances only while *that node's* events execute, so
//!   its value is a function of the node's own event sequence;
//! * a node's event sequence is determined by the keys of its incoming
//!   events — which, by induction over `(t, key)` order, are identical
//!   under any engine.
//!
//! Ties at equal `t` therefore break by `(source id, source counter)`:
//! arbitrary, but the *same* arbitrary under one thread or eight. Cross-
//! shard messages carry their precomputed key with them, so the receiving
//! shard inserts them exactly where the single-threaded engine would have.
//!
//! ## Conservative windows
//!
//! Shards synchronize with classic conservative parallel-DES lookahead on
//! one bound. Each shard owns one DC, and the inter-DC latency `L`
//! lower-bounds the arrival delta of any message one shard sends another
//! (CPU, wire and FIFO terms only push arrivals later). Each round, shard
//! `j` runs every event strictly before its *horizon* — the smaller of
//! the incoming chain `min over i≠j of next_t_i + L` and the bounce-back
//! `next_t_j + 2L` (replies provoked by `j`'s own pending sends) — without
//! communication: no message can reach `j` inside that range, whichever
//! shard's pending work it originates from. The same bound lets a shard
//! take what its peers send *while* its window runs: cross-shard messages
//! travel in batches through the destination's bounded inbox — posted
//! when full, and at the end of the sender's window — and every few dozen
//! events a running shard moves what it was posted into its own queue: it
//! lands at or past the window's end, so nothing reorders, and the
//! queue's buckets are allocated by the thread that uses them. A batch
//! that does not fit waits in the sender's outbox. At the barrier all of
//! it is delivered — the engine asserts that nothing lands inside its
//! destination's just-run window — and the next round recomputes horizons
//! from the new per-shard clocks. With `L = 0` (free links between DCs) no
//! window opens, and the driver runs one globally minimal event at a
//! time, exchanging after every step — plain sequential simulation with
//! extra steps.

use crate::sched::CalendarQueue;
use contrarian_runtime::actor::{Actor, ActorCtx, TimerKind};
use contrarian_runtime::cost::CostModel;
use contrarian_runtime::step::{NodeState, Sink, Step};
use contrarian_runtime::SimMessage;
use contrarian_types::{heap, Addr, HeapCensus, NodeKind, TraceEvent, TraceKind};
use std::collections::VecDeque;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};

/// Most cross-shard messages one batch carries: a batch is one channel
/// operation, so traffic that mostly crosses DCs does not pay one per
/// message.
const BATCH: usize = 64;

/// Batches a shard's inbox holds before senders park the rest in their
/// outboxes.
const INBOX_BATCHES: usize = 16;

/// Emptied batches a shard keeps for reuse. Two shards trading batches
/// keep a handful in circulation; more than this are freed.
const SPARE_BATCHES: usize = 4;

/// Events between a running shard's looks at its inbox: a few
/// microseconds of host time.
const INBOX_POLL: u64 = 64;

type Batch<M> = Vec<CrossShardMsg<M>>;

/// What a shard sends one peer.
struct Mail<M> {
    /// Messages for the peer since the last post.
    batch: Batch<M>,
    /// Into the peer's inbox.
    tx: SyncSender<Batch<M>>,
}

/// Bits of an event key holding the per-source counter; the source node id
/// occupies the bits above. 2^20 nodes and 2^44 events per node both sit
/// orders of magnitude beyond any cluster this engine will see.
const KEY_SEQ_BITS: u32 = 44;

#[inline]
fn event_key(src: u32, seq: u64) -> u64 {
    debug_assert!(src < 1 << (64 - KEY_SEQ_BITS), "node id overflow");
    debug_assert!(seq < 1 << KEY_SEQ_BITS, "per-node event counter overflow");
    ((src as u64) << KEY_SEQ_BITS) | seq
}

pub(crate) enum EvKind<M> {
    /// A message reached a node's NIC.
    Arrive { to: usize, from: Addr, msg: M },
    /// A message's service time elapsed; run the handler.
    ServiceDone { node: usize, from: Addr, msg: M },
    /// A server worker finished its send phase; pull the next queued job.
    WorkerFree { node: usize },
    /// A timer fired.
    Timer { node: usize, kind: TimerKind },
}

/// Interned routing: `Addr → global node id` as pure arithmetic on two flat
/// tables, built once at [`crate::Sim::start`]. Replaces the per-send
/// `HashMap` lookup of the original engine.
pub(crate) struct RouteTable {
    /// `servers[dc * server_stride + partition]`, `u32::MAX` = absent.
    servers: Vec<u32>,
    /// `clients[dc * client_stride + idx]`, `u32::MAX` = absent.
    clients: Vec<u32>,
    server_stride: usize,
    client_stride: usize,
}

impl RouteTable {
    const ABSENT: u32 = u32::MAX;

    pub(crate) fn build(addrs: impl Iterator<Item = Addr> + Clone) -> Self {
        let mut dcs = 0usize;
        let mut max_server = 0usize;
        let mut max_client = 0usize;
        for a in addrs.clone() {
            dcs = dcs.max(a.dc.index() + 1);
            match a.kind {
                NodeKind::Server => max_server = max_server.max(a.idx as usize + 1),
                NodeKind::Client => max_client = max_client.max(a.idx as usize + 1),
            }
        }
        let mut t = RouteTable {
            servers: vec![Self::ABSENT; dcs * max_server],
            clients: vec![Self::ABSENT; dcs * max_client],
            server_stride: max_server,
            client_stride: max_client,
        };
        for (i, a) in addrs.enumerate() {
            match a.kind {
                NodeKind::Server => {
                    t.servers[a.dc.index() * t.server_stride + a.idx as usize] = i as u32
                }
                NodeKind::Client => {
                    t.clients[a.dc.index() * t.client_stride + a.idx as usize] = i as u32
                }
            }
        }
        t
    }

    #[inline]
    fn get(&self, addr: Addr) -> Option<usize> {
        let (table, stride) = match addr.kind {
            NodeKind::Server => (&self.servers, self.server_stride),
            NodeKind::Client => (&self.clients, self.client_stride),
        };
        // The idx bound matters: without it an out-of-range index would
        // alias into the next DC's row instead of failing like the HashMap
        // lookup this table replaced.
        if addr.idx as usize >= stride {
            return None;
        }
        let slot = *table.get(addr.dc.index() * stride + addr.idx as usize)?;
        (slot != Self::ABSENT).then_some(slot as usize)
    }

    /// The link-table class of a routable address and the class's block
    /// length: `dc × {server, client}`, and the stride `get` bounds `idx`
    /// by.
    #[inline]
    fn link_class(&self, addr: Addr) -> (usize, usize) {
        match addr.kind {
            NodeKind::Server => (addr.dc.index() * 2, self.server_stride),
            NodeKind::Client => (addr.dc.index() * 2 + 1, self.client_stride),
        }
    }
}

/// Shared, read-only cluster geometry every shard routes through: the
/// address table and the global-id → (shard, local-slot) map.
pub(crate) struct Routing {
    table: RouteTable,
    /// `global id → (shard, local index)`.
    locate: Vec<(u32, u32)>,
    /// `global id → address`, registration order.
    pub(crate) addrs: Vec<Addr>,
    n_dcs: usize,
}

impl Routing {
    pub(crate) fn empty() -> Self {
        Routing {
            table: RouteTable {
                servers: Vec::new(),
                clients: Vec::new(),
                server_stride: 0,
                client_stride: 0,
            },
            locate: Vec::new(),
            addrs: Vec::new(),
            n_dcs: 0,
        }
    }

    pub(crate) fn build(addrs: Vec<Addr>, locate: Vec<(u32, u32)>) -> Self {
        let table = RouteTable::build(addrs.iter().copied());
        let n_dcs = addrs.iter().map(|a| a.dc.index() + 1).max().unwrap_or(0);
        Routing {
            table,
            locate,
            addrs,
            n_dcs,
        }
    }

    /// Heap bytes of the tables.
    pub(crate) fn heap_bytes(&self) -> usize {
        heap::vec_bytes(&self.table.servers)
            + heap::vec_bytes(&self.table.clients)
            + heap::vec_bytes(&self.locate)
            + heap::vec_bytes(&self.addrs)
    }

    /// Destination classes of the link table (`dc × {server, client}`).
    #[inline]
    fn link_classes(&self) -> usize {
        self.n_dcs * 2
    }

    /// Resolves an address to its global node id.
    #[inline]
    pub(crate) fn global(&self, addr: Addr) -> usize {
        self.table
            .get(addr)
            .unwrap_or_else(|| panic!("unknown addr {addr}"))
    }

    #[inline]
    pub(crate) fn locate(&self, global: usize) -> (usize, usize) {
        let (s, l) = self.locate[global];
        (s as usize, l as usize)
    }
}

pub(crate) struct NodeSlot<A> {
    /// What every runtime keeps per node; its registration-order
    /// `global_id` is also the high bits of every event key this node
    /// creates.
    pub(crate) state: NodeState,
    pub(crate) actor: A,
    /// Worker threads; clients are "infinite" (no queueing — client machines
    /// are not the bottleneck).
    workers: u32,
    busy: u32,
    /// Messages that arrived while all workers were busy, FIFO.
    queue: VecDeque<(Addr, u64)>, // (from, backlog slot)
    /// Events created so far by this node — the low bits of its keys.
    push_seq: u64,
}

impl<A> NodeSlot<A> {
    pub(crate) fn new(state: NodeState, actor: A, workers: u32) -> Self {
        NodeSlot {
            state,
            actor,
            workers,
            busy: 0,
            queue: VecDeque::new(),
            push_seq: 0,
        }
    }
}

/// A message crossing a shard boundary, on its way through the receiver's
/// inbox or parked in the sender's outbox until the next window barrier.
/// Carries its precomputed arrival key so the receiving shard inserts it
/// exactly where a single-threaded engine would have.
pub(crate) struct CrossShardMsg<M> {
    pub(crate) t: u64,
    pub(crate) key: u64,
    /// Global id of the receiver, resolved to its shard and slot on
    /// delivery (two `usize`s here would add 16 B to every message).
    pub(crate) to: u32,
    pub(crate) from: Addr,
    pub(crate) msg: M,
}

/// One shard's view of the engine's work so far, read through
/// [`crate::Sim::window_stats`]. `rounds`, `events` and `cross_msgs` are
/// a function of the run alone — equal with serial or parallel windows —
/// while `busy_ns` and `wait_ns` are host wall-clock readings.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct WindowStats {
    /// Conservative window rounds in which this shard had events to run.
    pub rounds: u64,
    /// Events this shard processed, on every path (windows, lockstep and
    /// the single-loop path alike).
    pub events: u64,
    /// Messages this shard sent to other shards.
    pub cross_msgs: u64,
    /// Host nanoseconds this shard spent running its windows.
    pub busy_ns: u64,
    /// Host nanoseconds of window rounds this shard spent not running:
    /// the rounds' wall time minus `busy_ns`.
    pub wait_ns: u64,
}

/// One event loop of the engine: its nodes, queue, and link state.
///
/// Aligned to two cache lines so that shards running on different threads
/// never write to one line: `now`, `events_processed` and the queue's
/// cursors change on every event.
#[repr(align(128))]
pub(crate) struct Shard<A: Actor> {
    pub(crate) id: usize,
    pub(crate) now: u64,
    pub(crate) queue: CalendarQueue<EvKind<A::Msg>>,
    pub(crate) nodes: Vec<NodeSlot<A>>,
    /// FIFO enforcement: last scheduled arrival per (local sender,
    /// receiver) link. One flat row per local sender, made of one block per
    /// destination class the sender has sent into; a block is appended on
    /// the first send into its class and is that class's route-table
    /// stride long, so the entry of `to` is `row[base + to.idx]`. Idle
    /// senders hold nothing, and nobody holds entries for a class it never
    /// addresses (module docs have the numbers).
    links: Vec<Vec<u64>>,
    /// `link_base[node × classes + class]` = where that class's block
    /// starts in `links[node]`, [`RouteTable::ABSENT`] until the first send.
    /// Sized by [`Shard::size_links`] once the cluster geometry is known.
    link_base: Vec<u32>,
    /// Backlogged messages awaiting a worker (slab, free-list reuse).
    pub(crate) backlog: Vec<Option<A::Msg>>,
    pub(crate) backlog_free: Vec<u64>,
    /// Batches a peer's inbox had no room for, delivered at the barrier.
    pub(crate) outbox: Vec<Batch<A::Msg>>,
    /// `mail[j]` is for shard `j`; `None` for this shard itself (and
    /// everywhere in a one-shard engine).
    mail: Vec<Option<Mail<A::Msg>>>,
    /// What other shards send this one, taken into its queue while its
    /// window runs (see [`Shard::take_inbox`]) and at the barrier.
    inbox: Option<Receiver<Batch<A::Msg>>>,
    /// Delivered batches, emptied, that this shard fills next. Batches
    /// circulate instead of being freed by the receiving thread: a block
    /// freed into another thread's malloc arena takes that arena's lock
    /// while its owner allocates.
    spare: Vec<Batch<A::Msg>>,
    pub(crate) cost: CostModel,
    /// What every handler of this shard's nodes writes into: metrics,
    /// history, the run flags, and the send and timer buffers the shard
    /// empties after each handler (reused: no per-event allocation).
    pub(crate) sink: Sink<A::Msg>,
    pub(crate) events_processed: u64,
    /// Window telemetry; `events` and `wait_ns` are filled in on read.
    pub(crate) window: WindowStats,
}

impl<A: Actor> Shard<A> {
    pub(crate) fn new(id: usize, cost: CostModel) -> Self {
        Shard {
            id,
            now: 0,
            queue: CalendarQueue::new(),
            nodes: Vec::new(),
            links: Vec::new(),
            link_base: Vec::new(),
            backlog: Vec::new(),
            backlog_free: Vec::new(),
            outbox: Vec::new(),
            mail: Vec::new(),
            inbox: None,
            spare: Vec::new(),
            cost,
            sink: Sink::default(),
            events_processed: 0,
            window: WindowStats::default(),
        }
    }

    /// Gives every shard an inbox and every other shard mail into it.
    pub(crate) fn connect(shards: &mut [Shard<A>]) {
        let n = shards.len();
        for s in shards.iter_mut() {
            s.mail = (0..n).map(|_| None).collect();
        }
        for j in 0..n {
            let (tx, rx) = sync_channel(INBOX_BATCHES);
            shards[j].inbox = Some(rx);
            for (i, s) in shards.iter_mut().enumerate() {
                if i != j {
                    let tx = tx.clone();
                    s.mail[j] = Some(Mail {
                        batch: Vec::new(),
                        tx,
                    });
                }
            }
        }
    }

    /// Sends shard `j` the batch gathered for it, into its inbox or, when
    /// that is full, this shard's outbox.
    fn post(&mut self, j: usize) {
        let mail = self.mail[j].as_mut().expect("a peer shard");
        let batch = std::mem::take(&mut mail.batch);
        match mail.tx.try_send(batch) {
            Ok(()) => {}
            Err(TrySendError::Full(batch)) => self.outbox.push(batch),
            Err(TrySendError::Disconnected(_)) => unreachable!("peers outlive sends"),
        }
    }

    /// Posts every non-empty batch.
    pub(crate) fn post_all(&mut self) {
        for j in 0..self.mail.len() {
            if self.mail[j].as_ref().is_some_and(|m| !m.batch.is_empty()) {
                self.post(j);
            }
        }
    }

    /// Moves what other shards have posted this one so far into its queue
    /// (see [`Shard::deliver`]).
    pub(crate) fn take_inbox(&mut self, routing: &Routing, end_excl: u64) {
        while let Some(batch) = self.inbox.as_ref().and_then(|rx| rx.try_recv().ok()) {
            self.deliver(routing, batch, end_excl);
        }
    }

    /// Queues a batch of messages for this shard. Each arrives at or past
    /// `end_excl`, the end of this shard's current window — the
    /// conservative-window invariant, checked here — so taking one in
    /// while the window runs cannot reorder anything.
    pub(crate) fn deliver(&mut self, routing: &Routing, mut batch: Batch<A::Msg>, end_excl: u64) {
        for m in batch.drain(..) {
            assert!(
                m.t >= end_excl,
                "conservative window violated: cross-shard message for t={} \
                 inside shard {}'s window ending at {end_excl}",
                m.t,
                self.id
            );
            let (_, to) = routing.locate(m.to as usize);
            let from = m.from;
            let arrive = EvKind::Arrive {
                to,
                from,
                msg: m.msg,
            };
            self.queue.push(m.t, m.key, arrive);
        }
        if self.spare.len() < SPARE_BATCHES {
            self.spare.push(batch);
        }
    }

    /// Frees the spare batches and the emptied outbox's block. How many
    /// of them a threaded run leaves depends on thread timing, so a run
    /// call ends with none, and the heap the next census reads is a
    /// function of the run alone. Called once per run call, outside the
    /// window loop: the next run call re-allocates the few batches it
    /// circulates.
    pub(crate) fn release_mail(&mut self) {
        debug_assert!(self.outbox.is_empty(), "outboxes empty at the barrier");
        self.spare = Vec::new();
        self.outbox = Vec::new();
    }

    /// Sizes the (still empty) link table for this shard's nodes; called
    /// once at start, after the last node was added.
    pub(crate) fn size_links(&mut self, routing: &Routing) {
        self.links = vec![Vec::new(); self.nodes.len()];
        self.link_base = vec![RouteTable::ABSENT; self.nodes.len() * routing.link_classes()];
    }

    /// Adds this shard's heap to `census`: the engine's rows, then every
    /// node's own under its class (`server` or `client`).
    pub(crate) fn heap_census(&self, census: &mut HeapCensus) {
        let msg = |m: &A::Msg| m.heap_bytes();
        census.set_class("engine");
        census.add(
            "nodes",
            heap::vec_bytes(&self.nodes) + heap::vec_bytes(&self.links),
            self.nodes.len(),
        );
        let event = |ev: &EvKind<A::Msg>| match ev {
            EvKind::Arrive { msg: m, .. } | EvKind::ServiceDone { msg: m, .. } => msg(m),
            EvKind::WorkerFree { .. } | EvKind::Timer { .. } => 0,
        };
        census.add(
            "calendar queue",
            self.queue.heap_bytes(event),
            self.queue.len(),
        );
        let queued: usize = self.nodes.iter().map(|n| n.queue.len()).sum();
        census.add(
            "backlogs",
            heap::vec_bytes(&self.backlog)
                + self.backlog.iter().flatten().map(msg).sum::<usize>()
                + heap::vec_bytes(&self.backlog_free)
                + self
                    .nodes
                    .iter()
                    .map(|n| heap::deque_bytes(&n.queue))
                    .sum::<usize>(),
            queued,
        );
        // Row blocks plus the base table; the per-node row headers are in
        // `nodes`.
        let rows: usize = self.links.iter().map(heap::vec_bytes).sum();
        let entries: usize = self.links.iter().map(Vec::len).sum();
        census.add(
            "link state",
            rows + heap::vec_bytes(&self.link_base),
            entries,
        );
        let batch =
            |b: &Batch<A::Msg>| heap::vec_bytes(b) + b.iter().map(|m| msg(&m.msg)).sum::<usize>();
        let batches = self
            .outbox
            .iter()
            .chain(&self.spare)
            .chain(self.mail.iter().flatten().map(|m| &m.batch));
        // An inbox is a bounded channel of `INBOX_BATCHES` slots, each a
        // batch header and a stamp; its own batches are in flight only
        // while a window runs, and were delivered before any census.
        let inbox = self.inbox.as_ref().map_or(0, |_| {
            INBOX_BATCHES * (std::mem::size_of::<Batch<A::Msg>>() + 8)
        });
        census.add(
            "cross-shard mail",
            heap::vec_bytes(&self.outbox)
                + heap::vec_bytes(&self.spare)
                + heap::vec_bytes(&self.mail)
                + batches.map(batch).sum::<usize>()
                + inbox,
            self.outbox.len(),
        );
        let sink = &self.sink;
        census.add(
            "scratch",
            heap::vec_bytes(&sink.sent) + heap::vec_bytes(&sink.timers),
            0,
        );
        census.add(
            "trace rings",
            self.nodes.iter().map(|n| n.state.trace.heap_bytes()).sum(),
            self.nodes.iter().map(|n| n.state.trace.len()).sum(),
        );
        census.add("metrics", sink.metrics.heap_bytes(), 1);
        census.add(
            "history",
            heap::vec_bytes(&sink.history)
                + sink
                    .history
                    .iter()
                    .map(|e| e.ev.heap_bytes())
                    .sum::<usize>(),
            sink.history.len(),
        );
        for n in &self.nodes {
            census.set_class(match n.state.addr.kind {
                NodeKind::Server => "server",
                NodeKind::Client => "client",
            });
            n.actor.heap_census(census);
        }
    }

    /// The FIFO entry of the link `node → to`; `to` must be routable
    /// (callers resolve it through [`Routing::global`] first, which is
    /// what bounds `to.idx` by the class stride).
    #[inline]
    fn link_mut(&mut self, routing: &Routing, node: usize, to: Addr) -> &mut u64 {
        let (class, stride) = routing.table.link_class(to);
        debug_assert!((to.idx as usize) < stride, "unroutable {to}");
        let base = &mut self.link_base[node * routing.link_classes() + class];
        let row = &mut self.links[node];
        if *base == RouteTable::ABSENT {
            // First send into this class: append its block. Exact, not
            // amortized — a row grows at most once per class.
            *base = u32::try_from(row.len()).expect("link row overflow");
            row.reserve_exact(stride);
            row.resize(row.len() + stride, 0);
        }
        &mut row[*base as usize + to.idx as usize]
    }

    /// Takes every node's buffered trace events (one batch per node;
    /// identity counters keep running).
    pub(crate) fn drain_trace(&mut self) -> Vec<Vec<TraceEvent>> {
        self.nodes
            .iter_mut()
            .map(|n| n.state.trace.drain())
            .collect()
    }

    /// Allocates the next event key for a local node.
    #[inline]
    pub(crate) fn alloc_key(&mut self, node: usize) -> u64 {
        let slot = &mut self.nodes[node];
        let key = event_key(slot.state.global_id, slot.push_seq);
        slot.push_seq += 1;
        key
    }

    #[inline]
    fn push_from(&mut self, node: usize, t: u64, kind: EvKind<A::Msg>) {
        let key = self.alloc_key(node);
        self.queue.push(t, key, kind);
    }

    /// Runs a node's `on_start` (registration-order bring-up).
    pub(crate) fn start_node(&mut self, routing: &Routing, node: usize) {
        self.with_ctx(routing, node, 0, |actor, ctx| actor.on_start(ctx));
    }

    /// Processes every pending event with `t < end_excl`, one window
    /// round's work, taking in what peers have posted it every
    /// [`INBOX_POLL`] events; a batch is posted when full, and what is
    /// left when the window ends.
    pub(crate) fn run_window(&mut self, routing: &Routing, end_excl: u64) {
        // lint:allow(determinism): window telemetry only; the reading never reaches an event, history or trace
        let t0 = std::time::Instant::now();
        while let Some(t) = self.queue.peek_t() {
            if t >= end_excl {
                break;
            }
            self.step_one(routing);
            if self.events_processed.is_multiple_of(INBOX_POLL) {
                self.take_inbox(routing, end_excl);
            }
        }
        self.post_all();
        self.window.rounds += 1;
        self.window.busy_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Pops and processes exactly one event. Returns its time.
    pub(crate) fn step_one(&mut self, routing: &Routing) -> Option<u64> {
        let (t, _key, kind) = self.queue.pop()?;
        debug_assert!(t >= self.now, "time went backwards");
        self.now = t;
        self.events_processed += 1;
        match kind {
            EvKind::Arrive { to, from, msg } => self.on_arrive(routing, to, from, msg),
            EvKind::ServiceDone { node, from, msg } => {
                self.on_service_done(routing, node, from, msg)
            }
            EvKind::WorkerFree { node } => self.on_worker_free(node),
            EvKind::Timer { node, kind } => self.on_timer(routing, node, kind),
        }
        Some(t)
    }

    fn stash_backlog(&mut self, msg: A::Msg) -> u64 {
        if let Some(slot) = self.backlog_free.pop() {
            self.backlog[slot as usize] = Some(msg);
            slot
        } else {
            self.backlog.push(Some(msg));
            (self.backlog.len() - 1) as u64
        }
    }

    fn take_backlog(&mut self, slot: u64) -> A::Msg {
        let msg = self.backlog[slot as usize].take().expect("stashed message");
        self.backlog_free.push(slot);
        msg
    }

    fn on_arrive(&mut self, routing: &Routing, to: usize, from: Addr, msg: A::Msg) {
        if self.sink.metrics.enabled {
            self.sink.metrics.msgs += 1;
            self.sink.metrics.bytes += msg.wire_size() as u64;
        }
        if self.sink.tracing {
            let src = routing.global(from) as u64;
            let node = &mut self.nodes[to].state;
            let gid = node.global_id;
            node.trace.push(
                self.now,
                gid,
                TraceKind::MsgDeliver,
                src,
                msg.wire_size() as u64,
            );
        }
        let slot = &self.nodes[to];
        if slot.workers == 0 {
            // Client: infinite parallelism, fixed receive cost.
            let c = self.cost.client_rx_ns + self.cost.cpu_bytes(msg.wire_size());
            // Saturating, like the send phase: a delivery near `u64::MAX`
            // (a far-future timer's handler sent it) must park at the end
            // of time, not wrap into the past.
            let t = self.now.saturating_add(c);
            self.push_from(
                to,
                t,
                EvKind::ServiceDone {
                    node: to,
                    from,
                    msg,
                },
            );
        } else if slot.busy < slot.workers {
            self.nodes[to].busy += 1;
            let c = msg.rx_cost(&self.cost);
            if self.sink.metrics.enabled {
                self.sink.metrics.busy_ns += c;
            }
            let t = self.now.saturating_add(c);
            self.push_from(
                to,
                t,
                EvKind::ServiceDone {
                    node: to,
                    from,
                    msg,
                },
            );
        } else {
            let slot_id = self.stash_backlog(msg);
            self.nodes[to].queue.push_back((from, slot_id));
        }
    }

    fn on_service_done(&mut self, routing: &Routing, node: usize, from: Addr, msg: A::Msg) {
        let busy_extra = self.with_ctx(routing, node, 0, |actor, ctx| {
            actor.on_message(ctx, from, msg)
        });
        self.finish_worker(node, busy_extra);
    }

    fn on_worker_free(&mut self, node: usize) {
        let slot = &mut self.nodes[node];
        slot.busy -= 1;
        if slot.busy < slot.workers {
            if let Some((from, slot_id)) = slot.queue.pop_front() {
                self.nodes[node].busy += 1;
                let msg = self.take_backlog(slot_id);
                let c = msg.rx_cost(&self.cost);
                if self.sink.metrics.enabled {
                    self.sink.metrics.busy_ns += c;
                }
                let t = self.now.saturating_add(c);
                self.push_from(node, t, EvKind::ServiceDone { node, from, msg });
            }
        }
    }

    fn on_timer(&mut self, routing: &Routing, node: usize, kind: TimerKind) {
        // Timers run off the worker pool with a small base cost; their sends
        // still pay tx costs (folded into departure spacing).
        self.with_ctx(routing, node, self.cost.timer_ns, |actor, ctx| {
            actor.on_timer(ctx, kind)
        });
    }

    /// Runs a handler as one [`Step`] on the node's state and this
    /// shard's sink, then applies the sends and timers it left there.
    /// Returns the handler's total send-phase CPU so the caller can keep
    /// the worker busy for it.
    fn with_ctx<F>(&mut self, routing: &Routing, node: usize, base_charge: u64, f: F) -> u64
    where
        F: FnOnce(&mut A, &mut dyn ActorCtx<A::Msg>),
    {
        debug_assert!(self.sink.sent.is_empty() && self.sink.timers.is_empty());
        self.sink.charge = base_charge;
        let slot = &mut self.nodes[node];
        f(
            &mut slot.actor,
            &mut Step {
                now: self.now,
                node: &mut slot.state,
                sink: &mut self.sink,
            },
        );
        let (addr, gid, is_server) = (slot.state.addr, slot.state.global_id, slot.workers > 0);
        let charge = self.sink.charge;
        // Taken for the send phase, which needs the rest of the shard, and
        // put back empty: the buffers' capacity is reused across handlers.
        let mut out = std::mem::take(&mut self.sink.sent);
        let mut timers = std::mem::take(&mut self.sink.timers);

        // Send phase: messages depart back-to-back after the handler, each
        // paying its tx cost on the sender's CPU.
        // Saturating throughout the send phase: handlers can legitimately
        // run at times near `u64::MAX` (far-future timers), where a wrap
        // would schedule into the past and corrupt the queue invariant.
        let mut depart = self.now.saturating_add(charge);
        for (to, msg) in out.drain(..) {
            let tx = if is_server {
                msg.tx_cost(&self.cost)
            } else {
                self.cost.client_tx_ns + self.cost.cpu_bytes(msg.wire_size())
            };
            depart = depart.saturating_add(tx);
            if is_server && self.sink.metrics.enabled {
                self.sink.metrics.busy_ns += tx;
            }
            let to_global = routing.global(to);
            let latency = self.cost.link_latency(addr.dc.0, to.dc.0);
            let mut arrive = depart
                .saturating_add(latency)
                .saturating_add(self.cost.wire_bytes(msg.wire_size()));
            // FIFO per link.
            let link = self.link_mut(routing, node, to);
            if arrive <= *link {
                arrive = link.saturating_add(1);
            }
            *link = arrive;
            if self.sink.tracing {
                self.nodes[node].state.trace.push(
                    self.now,
                    gid,
                    TraceKind::MsgSend,
                    to_global as u64,
                    msg.wire_size() as u64,
                );
            }
            let key = self.alloc_key(node);
            let (to_shard, to_local) = routing.locate(to_global);
            if to_shard == self.id {
                self.queue.push(
                    arrive,
                    key,
                    EvKind::Arrive {
                        to: to_local,
                        from: addr,
                        msg,
                    },
                );
            } else {
                // Cross-shard: the link latency is the inter-DC bound the
                // windows are cut on, so the arrival lies at or beyond the
                // destination's window end, and the destination may take
                // it before its window is over.
                let m = CrossShardMsg {
                    t: arrive,
                    key,
                    to: to_global as u32,
                    from: addr,
                    msg,
                };
                self.window.cross_msgs += 1;
                let mail = self.mail[to_shard].as_mut().expect("a peer shard");
                if mail.batch.capacity() == 0 {
                    let spare = self.spare.pop();
                    mail.batch = spare.unwrap_or_else(|| Vec::with_capacity(BATCH));
                }
                mail.batch.push(m);
                if mail.batch.len() == BATCH {
                    self.post(to_shard);
                }
            }
        }
        // Deadlines come saturated from the step: a `u64::MAX` delay
        // parks at the end of time.
        for (t, kind) in timers.drain(..) {
            self.push_from(node, t, EvKind::Timer { node, kind });
        }
        self.sink.sent = out;
        self.sink.timers = timers;
        if self.sink.metrics.enabled && is_server {
            self.sink.metrics.busy_ns += charge.saturating_sub(base_charge);
        }
        depart - self.now
    }

    fn finish_worker(&mut self, node: usize, busy_extra: u64) {
        if self.nodes[node].workers == 0 {
            return;
        }
        if busy_extra == 0 {
            self.on_worker_free(node);
        } else {
            let t = self.now.saturating_add(busy_extra);
            self.push_from(node, t, EvKind::WorkerFree { node });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_keys_order_by_source_then_counter() {
        assert!(event_key(0, 5) < event_key(1, 0));
        assert!(event_key(3, 1) < event_key(3, 2));
        assert_eq!(event_key(0, 0), 0);
        // Distinct (src, seq) pairs never collide.
        assert_ne!(event_key(1, 0), event_key(0, (1 << KEY_SEQ_BITS) - 1));
    }
}
