//! The CC-LO storage server: latency-optimal ROTs, expensive PUTs.

use crate::msg::{Dep, Msg};
use crate::records::{BlockRecord, CurrentReader, Reader, ReaderEntry, ReaderSet, RotFloor};
use crate::stats;
use contrarian_clock::LogicalClock;
use contrarian_protocol::{timers, Parked, ProtocolServer, Timers};
use contrarian_runtime::actor::{ActorCtx, TimerKind};
use contrarian_storage::{MvStore, Version};
use contrarian_types::{
    heap, Addr, ClusterConfig, HeapCensus, Key, PartitionId, TraceKind, TxId, Value, VersionId,
};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};

/// The read-version bound of every readers-check answer. COPS-SNOW returns
/// *all* old readers of a key — anyone who read a superseded version, "an
/// old reader of x in general" (the paper's footnote 3) — not only those
/// old relative to the checked dependency version.
const ALL_OLD_READERS: u64 = u64::MAX;

/// A PUT waiting for its readers check to complete.
struct PendingPut {
    client: Addr,
    key: Key,
    value: Value,
    ts: u64,
    /// The client's explicit dependency list, shipped along on replication
    /// so every remote DC can run its own dependency + readers check.
    deps: Vec<Dep>,
    /// Old-reader pairs collected so far, unsorted: the local dependencies'
    /// first, then each reply's. Sealed into the version's [`BlockRecord`]
    /// once, at `finalize_put`.
    block: Vec<(TxId, u64)>,
    /// Where the replies start in `block`. Figure 6 counts the ids that
    /// crossed the network, not the locally collected ones.
    n_local: usize,
    awaiting: usize,
    // Figure 6 statistics.
    n_deps: u64,
    n_partitions: u64,
}

/// Adds a reply's old-reader pairs to a pending block. The first reply's
/// vector becomes the block when nothing was collected before it.
fn append_reply(block: &mut Vec<(TxId, u64)>, entries: Vec<(TxId, u64)>) {
    if block.is_empty() {
        *block = entries;
    } else {
        block.extend(entries);
    }
}

/// A replicated update waiting for its combined dependency + readers check.
struct PendingRepl {
    key: Key,
    value: Value,
    vid: VersionId,
    /// Unsorted old-reader pairs, sealed at `finalize_repl`.
    block: Vec<(TxId, u64)>,
    awaiting: usize,
    /// Origin-install runtime timestamp carried by the Replicate message.
    birth: u64,
}

/// The timestamp of `key`'s head version, 0 for ⊥ (genesis is 0 too).
fn head_ts(store: &MvStore<BlockRecord>, key: Key) -> u64 {
    store.latest(key).map_or(0, |h| h.vid.ts)
}

/// `(heap bytes, entries)` of a readers map.
fn readers_heap<E: Reader>(map: &HashMap<Key, ReaderSet<E>>) -> (usize, usize) {
    let (mut bytes, mut entries) = (heap::map_bytes(map), 0);
    // lint:allow(determinism): commutative sums for a heap census
    for set in map.values() {
        bytes += set.heap_bytes();
        entries += set.len();
    }
    (bytes, entries)
}

/// A dependency-check query that cannot be answered yet because some
/// dependency has not been installed locally.
struct DepWaiter {
    reply_to: Addr,
    token: u64,
    deps: Vec<Dep>,
}

pub struct Server {
    addr: Addr,
    cfg: ClusterConfig,
    lamport: LogicalClock,
    store: MvStore<BlockRecord>,
    /// Current readers of each key's head version (or of ⊥). Each read
    /// the head, so none stores a version: `supersede_head` stamps them
    /// with the head's timestamp as they become old readers.
    readers: HashMap<Key, ReaderSet<CurrentReader>>,
    /// Old readers of each key (readers of superseded versions).
    old_readers: HashMap<Key, ReaderSet>,
    /// The server's per-client table: the newest ROT each client has read
    /// here, raised by every `RotRead` — a record sealed on this server
    /// drops a client's ROTs below it, which can never read here again —
    /// and the seal's per-client scratch (`records` module docs).
    rot_floor: RotFloor,
    pending_puts: HashMap<u64, PendingPut>,
    pending_repls: HashMap<u64, PendingRepl>,
    /// Dependency-check queries parked until their dependencies install
    /// (released by `flush_dep_waiters` after every install).
    dep_waiters: Parked<DepWaiter>,
    next_token: u64,
    timers: Timers,
}

impl Server {
    pub fn new(addr: Addr, cfg: ClusterConfig) -> Self {
        // Sweep reader records well inside the GC window so stale ids
        // neither linger in memory nor get shipped around.
        let sweep_ns = (cfg.old_reader_gc_us * 1000) / 4;
        Server {
            addr,
            cfg,
            lamport: LogicalClock::new(),
            store: MvStore::new(),
            readers: HashMap::new(),
            old_readers: HashMap::new(),
            rot_floor: RotFloor::new(),
            pending_puts: HashMap::new(),
            pending_repls: HashMap::new(),
            dep_waiters: Parked::new(),
            next_token: 0,
            timers: Timers::default().with_periodic(timers::GC, sweep_ns),
        }
    }

    pub fn store(&self) -> &MvStore<BlockRecord> {
        &self.store
    }

    /// The per-client table (diagnostics).
    pub fn rot_floor(&self) -> &RotFloor {
        &self.rot_floor
    }

    fn gc_window_ns(&self) -> u64 {
        self.cfg.old_reader_gc_us * 1000
    }

    fn gc(&mut self, ctx: &mut dyn ActorCtx<Msg>) {
        let now = ctx.now();
        let window = self.gc_window_ns();
        let mut touched = 0usize;
        // lint:allow(determinism): per-entry GC; kept/dropped fold commutatively
        for set in self.readers.values_mut() {
            let (kept, dropped) = set.gc(now, window);
            touched += kept + dropped;
        }
        // lint:allow(determinism): per-entry emptiness predicate, order-free
        self.readers.retain(|_, s| !s.is_empty());
        // lint:allow(determinism): per-entry GC; kept/dropped fold commutatively
        for set in self.old_readers.values_mut() {
            let (kept, dropped) = set.gc(now, window);
            touched += kept + dropped;
        }
        // lint:allow(determinism): per-entry emptiness predicate, order-free
        self.old_readers.retain(|_, s| !s.is_empty());
        // Version GC: drop versions stamped more than 1 000 000 Lamport
        // ticks ago. The clock advances per message, not per nanosecond, so
        // at benchmark rates that is ≈ 25 virtual seconds, not twice the
        // 500 ms reader window, and no benchmark run ever collects a
        // version. Stating the horizon in virtual time is ROADMAP item 13.
        let horizon = self.lamport.peek().saturating_sub(1_000_000);
        let dropped = self.store.gc_all(horizon.max(1), 1);
        ctx.charge((touched + dropped) as u64 * 100);
        ctx.metrics()
            .add(stats::READER_ENTRIES_SWEPT, touched as u64);
    }

    fn handle_message(&mut self, ctx: &mut dyn ActorCtx<Msg>, from: Addr, msg: Msg) {
        match msg {
            Msg::RotRead { tx, keys, lamport } => self.handle_rot(ctx, from, tx, keys, lamport),
            Msg::PutReq {
                key,
                value,
                deps,
                lamport,
            } => self.handle_put(ctx, from, key, value, deps, lamport),
            Msg::OldReadersQuery {
                token,
                deps,
                lamport,
            } => {
                self.lamport.observe(lamport);
                self.answer_check(ctx, from, token, deps, false)
            }
            Msg::OldReadersReply {
                token,
                entries,
                lamport,
            } => {
                self.lamport.observe(lamport);
                self.on_check_reply(ctx, token, entries)
            }
            Msg::Replicate {
                key,
                value,
                vid,
                deps,
                lamport,
                birth,
            } => {
                self.lamport.observe(lamport.max(vid.ts));
                self.handle_replicate(ctx, key, value, vid, deps, birth)
            }
            Msg::DepCheckQuery {
                token,
                deps,
                lamport,
            } => {
                self.lamport.observe(lamport);
                self.answer_check(ctx, from, token, deps, true)
            }
            Msg::DepCheckReply {
                token,
                entries,
                lamport,
            } => {
                self.lamport.observe(lamport);
                self.on_dep_reply(ctx, token, entries)
            }
            Msg::RotSlice { .. } | Msg::PutResp { .. } | Msg::Inject(_) => {
                unreachable!("client-bound message delivered to server")
            }
        }
    }

    /// The latency-optimal ROT path: one round, one version, nonblocking.
    fn handle_rot(
        &mut self,
        ctx: &mut dyn ActorCtx<Msg>,
        client: Addr,
        tx: TxId,
        keys: Vec<Key>,
        client_lamport: u64,
    ) {
        let read_time = self.lamport.observe(client_lamport);
        self.rot_floor.observe(tx);
        let now = ctx.now();
        let mut pairs = Vec::with_capacity(keys.len());
        let mut scanned = 0usize;
        for &key in &keys {
            let (mut ver, blocked, walked) = self.version_for(key, tx);
            scanned += walked;
            if blocked {
                // Data staleness: an old reader is served a version older
                // than the newest installed one.
                if let Some(head) = self.store.latest(key) {
                    if head.birth > 0 {
                        let stale = now.saturating_sub(head.birth);
                        ctx.metrics().data_stale(stale);
                    }
                }
            }
            if ver.is_none() && self.cfg.prepopulated {
                // Prepopulated platform: the preloaded genesis version
                // stands in for ⊥ (it is older than any read-time bound).
                ver = Some((VersionId::GENESIS, contrarian_types::genesis_value()));
            }
            let read_version_ts = ver.as_ref().map(|(vid, _)| vid.ts).unwrap_or(0);
            if blocked {
                // Reading a superseded version makes this ROT an old reader
                // of the key immediately.
                self.old_readers
                    .entry(key)
                    .or_default()
                    .insert(ReaderEntry {
                        tx,
                        read_time,
                        read_version_ts,
                        inserted_at: now,
                    });
            } else {
                // What `supersede_head` will stamp this reader with.
                debug_assert_eq!(
                    read_version_ts,
                    head_ts(&self.store, key),
                    "{tx} read {key:?}"
                );
                self.readers.entry(key).or_default().insert(CurrentReader {
                    tx,
                    read_time,
                    inserted_at: now,
                });
            }
            pairs.push((key, ver));
        }
        ctx.charge(scanned as u64 * 500);
        ctx.send(
            client,
            Msg::RotSlice {
                tx,
                pairs,
                lamport: self.lamport.peek(),
            },
        );
    }

    /// Which version `tx` may observe: the newest whose old-reader record
    /// does not name `tx`; if named with read-time bound `rt`, the newest
    /// version created before `rt`. Returns (version, was_blocked, scanned).
    fn version_for(&self, key: Key, tx: TxId) -> (Option<(VersionId, Value)>, bool, usize) {
        let Some(chain) = self.store.chain(key) else {
            return (None, false, 0);
        };
        let mut bound: Option<u64> = None;
        let mut scanned = 0;
        for v in chain.iter_desc() {
            scanned += 1;
            if let Some(rt) = v.meta.bound(tx) {
                bound = Some(bound.map_or(rt, |b: u64| b.min(rt)));
                continue;
            }
            match bound {
                None => return (Some((v.vid, v.value.clone())), false, scanned),
                Some(b) if v.vid.ts < b => return (Some((v.vid, v.value.clone())), true, scanned),
                Some(_) => continue,
            }
        }
        (None, bound.is_some(), scanned)
    }

    /// PUT: assign a timestamp, then run the readers check against every
    /// partition holding a dependency; only when all old readers are known
    /// does the version install and the client get its ack.
    fn handle_put(
        &mut self,
        ctx: &mut dyn ActorCtx<Msg>,
        client: Addr,
        key: Key,
        value: Value,
        deps: Vec<Dep>,
        client_lamport: u64,
    ) {
        let ts = self.lamport.observe(client_lamport);
        let token = self.next_token;
        self.next_token += 1;

        let groups = self.group_deps(&deps);
        let mut pending = PendingPut {
            client,
            key,
            value,
            ts,
            n_deps: deps.len() as u64,
            deps,
            block: Vec::new(),
            n_local: 0,
            awaiting: 0,
            n_partitions: 0,
        };

        let now = ctx.now();
        let window = self.gc_window_ns();
        for (p, part_deps) in groups {
            if p == self.addr.partition() {
                // Local dependencies: collect old readers directly.
                for (k, _) in &part_deps {
                    let set = self.old_readers.get(k);
                    ctx.charge(set.map_or(0, |s| s.len() as u64) * 100);
                    let found = set.map_or(0, |s| {
                        s.query_into(ALL_OLD_READERS, now, window, &mut pending.block)
                    });
                    ctx.charge(found as u64 * 150);
                }
            } else {
                pending.awaiting += 1;
                pending.n_partitions += 1;
                let peer = Addr::server(self.addr.dc, p);
                ctx.send(
                    peer,
                    Msg::OldReadersQuery {
                        token,
                        deps: part_deps,
                        lamport: self.lamport.peek(),
                    },
                );
            }
        }

        pending.n_local = pending.block.len();

        if pending.awaiting == 0 {
            self.finalize_put(ctx, pending);
        } else {
            self.pending_puts.insert(token, pending);
        }
    }

    fn group_deps(&self, deps: &[Dep]) -> BTreeMap<PartitionId, Vec<Dep>> {
        let mut groups: BTreeMap<PartitionId, Vec<Dep>> = BTreeMap::new();
        for &(k, vid) in deps {
            groups
                .entry(k.partition(self.cfg.n_partitions))
                .or_default()
                .push((k, vid));
        }
        groups
    }

    /// A readers-check (or combined dep-check) query. For dependency checks
    /// the answer is deferred until every dependency is installed locally.
    fn answer_check(
        &mut self,
        ctx: &mut dyn ActorCtx<Msg>,
        from: Addr,
        token: u64,
        deps: Vec<Dep>,
        dep_check: bool,
    ) {
        if dep_check && !self.deps_installed(&deps) {
            if ctx.tracing() {
                ctx.trace(TraceKind::Park, 1, self.dep_waiters.len() as u64);
            }
            self.dep_waiters.park_until_ready_at(
                ctx.now(),
                DepWaiter {
                    reply_to: from,
                    token,
                    deps,
                },
            );
            return;
        }
        let entries = self.collect_old_readers(ctx, &deps);
        let lamport = self.lamport.peek();
        let reply = if dep_check {
            Msg::DepCheckReply {
                token,
                entries,
                lamport,
            }
        } else {
            Msg::OldReadersReply {
                token,
                entries,
                lamport,
            }
        };
        ctx.send(from, reply);
    }

    fn deps_installed(&self, deps: &[Dep]) -> bool {
        deps.iter().all(|(k, vid)| {
            // Genesis dependencies are installed everywhere by construction.
            vid.is_genesis()
                || self
                    .store
                    .chain(*k)
                    .and_then(|c| c.head())
                    .is_some_and(|h| h.vid >= *vid)
        })
    }

    fn collect_old_readers(
        &mut self,
        ctx: &mut dyn ActorCtx<Msg>,
        deps: &[Dep],
    ) -> Vec<(TxId, u64)> {
        let now = ctx.now();
        let window = self.gc_window_ns();
        // Per dependency key, at most one ROT id per client (its most
        // recent — `ReaderSet::query_into` applies the paper's optimization).
        // The same ROT id can still appear for several keys: this is the
        // duplication the paper measures (≈855 cumulative vs ≈252 distinct
        // ids per check at 256 clients).
        // One block of the worst case up front, so no query regrows it.
        let sets = || deps.iter().filter_map(|(k, _)| self.old_readers.get(k));
        let scanned: usize = sets().map(ReaderSet::len).sum();
        let mut out = Vec::with_capacity(scanned);
        for set in sets() {
            set.query_into(ALL_OLD_READERS, now, window, &mut out);
        }
        // The full record is walked per queried key; hot keys make this the
        // readers check's dominant (and bursty) CPU cost.
        ctx.charge(scanned as u64 * 100 + out.len() as u64 * 150);
        out
    }

    fn on_check_reply(
        &mut self,
        ctx: &mut dyn ActorCtx<Msg>,
        token: u64,
        entries: Vec<(TxId, u64)>,
    ) {
        let Entry::Occupied(mut slot) = self.pending_puts.entry(token) else {
            return;
        };
        let pending = slot.get_mut();
        append_reply(&mut pending.block, entries);
        pending.awaiting -= 1;
        if pending.awaiting == 0 {
            let pending = slot.remove();
            self.finalize_put(ctx, pending);
        }
    }

    /// Install the version (current readers of the key become old readers),
    /// acknowledge the client, replicate, account Figure-6 statistics.
    fn finalize_put(&mut self, ctx: &mut dyn ActorCtx<Msg>, pending: PendingPut) {
        let PendingPut {
            client,
            key,
            value,
            ts,
            deps,
            block,
            n_local,
            n_deps,
            n_partitions,
            ..
        } = pending;

        // Distinct *clients* named by the responses (the paper's "distinct
        // ROT ids" — with at most one id per client per response, the
        // distinct count collapses to clients, matching "252 distinct at
        // 256 clients"), counted by the seal's own pass.
        let ids_cum = (block.len() - n_local) as u64;
        let (block, ids_distinct) = BlockRecord::seal(&block, n_local, &mut self.rot_floor);
        let block_ids = block.len() as u64;

        self.supersede_head(key);
        let vid = VersionId::new(ts, self.addr.dc);
        let birth = ctx.now();
        self.store.put(
            key,
            Version::new(vid, value.clone(), block).with_birth(birth),
        );
        ctx.send(
            client,
            Msg::PutResp {
                key,
                vid,
                lamport: self.lamport.peek(),
            },
        );

        let m = ctx.metrics();
        m.add(stats::CHECKS, 1);
        m.add(stats::CHECK_KEYS, n_deps);
        m.add(stats::CHECK_PARTITIONS, n_partitions);
        m.add(stats::CHECK_IDS_CUM, ids_cum);
        m.add(stats::CHECK_IDS_DISTINCT, ids_distinct as u64);
        m.add(stats::CHECK_BYTES, ids_cum * 16);
        m.add(stats::BLOCK_RECORD_IDS, block_ids);

        if self.cfg.n_dcs > 1 {
            // Ship the update with the client's full dependency list; each
            // remote DC runs its own combined dependency + readers check
            // before installing — the per-DC replication cost of latency
            // optimality (Section 5.4).
            for dc in 0..self.cfg.n_dcs {
                if dc != self.addr.dc.0 {
                    let peer = Addr::server(contrarian_types::DcId(dc), self.addr.partition());
                    ctx.send(
                        peer,
                        Msg::Replicate {
                            key,
                            value: value.clone(),
                            vid,
                            deps: deps.clone(),
                            lamport: self.lamport.peek(),
                            birth,
                        },
                    );
                }
            }
        }
        // A fresh local install can satisfy parked dependency checks.
        self.flush_dep_waiters(ctx);
    }

    /// Turns `key`'s current readers into old readers of its head, stamped
    /// with the head's timestamp. Runs before every install, even of a
    /// replicated version older than the head: what the current readers
    /// read is always the head, because they were all recorded since the
    /// last install.
    fn supersede_head(&mut self, key: Key) {
        if let Some(cur) = self.readers.get_mut(&key) {
            if !cur.is_empty() {
                let head_ts = head_ts(&self.store, key);
                self.old_readers
                    .entry(key)
                    .or_default()
                    .absorb(cur, head_ts);
            }
        }
    }

    /// A replicated update arriving from another DC: run the combined
    /// dependency + readers check in *this* DC before installing (the
    /// replication-side cost of latency optimality).
    fn handle_replicate(
        &mut self,
        ctx: &mut dyn ActorCtx<Msg>,
        key: Key,
        value: Value,
        vid: VersionId,
        deps: Vec<Dep>,
        birth: u64,
    ) {
        let token = self.next_token;
        self.next_token += 1;
        let mut pending = PendingRepl {
            key,
            value,
            vid,
            block: Vec::new(),
            awaiting: 0,
            birth,
        };

        let groups = self.group_deps(&deps);
        let now = ctx.now();
        let window = self.gc_window_ns();
        for (p, part_deps) in groups {
            if p == self.addr.partition() {
                if self.deps_installed(&part_deps) {
                    for (k, _) in &part_deps {
                        if let Some(set) = self.old_readers.get(k) {
                            set.query_into(ALL_OLD_READERS, now, window, &mut pending.block);
                        }
                    }
                } else {
                    // Wait for our own install path to catch up: park a
                    // self-addressed waiter resolved by `flush_dep_waiters`.
                    pending.awaiting += 1;
                    if ctx.tracing() {
                        ctx.trace(TraceKind::Park, 1, self.dep_waiters.len() as u64);
                    }
                    self.dep_waiters.park_until_ready_at(
                        now,
                        DepWaiter {
                            reply_to: self.addr,
                            token,
                            deps: part_deps,
                        },
                    );
                }
            } else {
                pending.awaiting += 1;
                let peer = Addr::server(self.addr.dc, p);
                ctx.send(
                    peer,
                    Msg::DepCheckQuery {
                        token,
                        deps: part_deps,
                        lamport: self.lamport.peek(),
                    },
                );
            }
        }

        if pending.awaiting == 0 {
            self.finalize_repl(ctx, pending);
        } else {
            self.pending_repls.insert(token, pending);
        }
    }

    fn on_dep_reply(&mut self, ctx: &mut dyn ActorCtx<Msg>, token: u64, entries: Vec<(TxId, u64)>) {
        let Entry::Occupied(mut slot) = self.pending_repls.entry(token) else {
            return;
        };
        let pending = slot.get_mut();
        append_reply(&mut pending.block, entries);
        pending.awaiting -= 1;
        if pending.awaiting == 0 {
            let pending = slot.remove();
            self.finalize_repl(ctx, pending);
        }
    }

    fn finalize_repl(&mut self, ctx: &mut dyn ActorCtx<Msg>, pending: PendingRepl) {
        let PendingRepl {
            key,
            value,
            vid,
            block,
            birth,
            ..
        } = pending;
        self.lamport.merge(vid.ts);
        self.supersede_head(key);
        if birth > 0 {
            // Visibility staleness: how long after the origin install this
            // replica's dependency + readers check let the write in.
            let stale = ctx.now().saturating_sub(birth);
            ctx.metrics().vis_stale(stale);
        }
        let (block, _) = BlockRecord::seal(&block, block.len(), &mut self.rot_floor);
        let m = ctx.metrics();
        m.add(stats::REPL_CHECKS, 1);
        m.add(stats::BLOCK_RECORD_IDS, block.len() as u64);
        self.store
            .put(key, Version::new(vid, value, block).with_birth(birth));
        self.flush_dep_waiters(ctx);
    }

    /// After any install, release dependency checks that were waiting.
    fn flush_dep_waiters(&mut self, ctx: &mut dyn ActorCtx<Msg>) {
        // Take the queue so the readiness predicate can borrow the store;
        // handlers below may park new waiters (and recurse through
        // `finalize_repl`), which land in the restored queue.
        let mut q = std::mem::take(&mut self.dep_waiters);
        let ready = q.take_ready_timed(ctx.now(), |w| self.deps_installed(&w.deps));
        self.dep_waiters = q;
        for (waited, w) in ready {
            ctx.metrics().blocked(waited);
            if ctx.tracing() {
                ctx.trace(TraceKind::Unpark, 1, waited);
            }
            let entries = self.collect_old_readers(ctx, &w.deps);
            if w.reply_to == self.addr {
                // Self-waiter of a pending replication on this server.
                self.on_dep_reply(ctx, w.token, entries);
            } else {
                let lamport = self.lamport.peek();
                ctx.send(
                    w.reply_to,
                    Msg::DepCheckReply {
                        token: w.token,
                        entries,
                        lamport,
                    },
                );
            }
        }
    }

    /// Test/diagnostic access.
    pub fn lamport(&self) -> u64 {
        self.lamport.peek()
    }

    pub fn has_pending_puts(&self) -> bool {
        !self.pending_puts.is_empty()
    }
}

impl ProtocolServer for Server {
    type Msg = Msg;

    fn on_start(&mut self, ctx: &mut dyn ActorCtx<Msg>) {
        self.timers.start(ctx);
    }

    fn on_message(&mut self, ctx: &mut dyn ActorCtx<Msg>, from: Addr, msg: Msg) {
        self.handle_message(ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut dyn ActorCtx<Msg>, kind: TimerKind) {
        debug_assert_eq!(kind.kind, timers::GC);
        self.gc(ctx);
        self.timers.rearm(ctx, kind.kind);
    }

    fn store_heads(&self) -> Vec<(Key, VersionId)> {
        self.store.heads()
    }

    /// The store, the two reader maps (items: reader entries), the sealed
    /// records in the versions (items: versions), the readers checks in
    /// progress, the per-client table and the timer table.
    fn heap_census(&self, census: &mut HeapCensus) {
        let (chains, records) = self.store.heap_bytes(BlockRecord::heap_bytes);
        let versions = self.store.n_versions();
        census.add("store", chains, versions);
        census.add("sealed records", records, versions);
        let (bytes, entries) = readers_heap(&self.readers);
        census.add("current readers", bytes, entries);
        let (bytes, entries) = readers_heap(&self.old_readers);
        census.add("old readers", bytes, entries);
        // lint:allow(determinism): commutative sums for a heap census
        let puts: usize = self
            .pending_puts
            .values()
            .map(|p| heap::vec_bytes(&p.block) + heap::vec_bytes(&p.deps))
            .sum();
        // lint:allow(determinism): commutative sums for a heap census
        let repls: usize = self
            .pending_repls
            .values()
            .map(|p| heap::vec_bytes(&p.block))
            .sum();
        census.add(
            "pending checks",
            heap::map_bytes(&self.pending_puts)
                + puts
                + heap::map_bytes(&self.pending_repls)
                + repls
                + self.dep_waiters.heap_bytes(|w| heap::vec_bytes(&w.deps)),
            self.pending_puts.len() + self.pending_repls.len() + self.dep_waiters.len(),
        );
        census.add(
            "rot floor",
            self.rot_floor.heap_bytes(),
            self.rot_floor.slots(),
        );
        census.add("timers", self.timers.heap_bytes(), 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contrarian_runtime::testkit::ScriptCtx;
    use contrarian_types::{ClientId, DcId};

    fn addr(p: u16) -> Addr {
        Addr::server(DcId(0), PartitionId(p))
    }

    fn server(p: u16) -> Server {
        Server::new(addr(p), ClusterConfig::small())
    }

    fn tx(c: u16, seq: u32) -> TxId {
        TxId::new(ClientId::new(DcId(0), c), seq)
    }

    /// `(current, old)` reader entries, read off the server's census rows.
    fn reader_entries(s: &Server) -> (usize, usize) {
        let mut census = HeapCensus::new();
        census.set_class("server");
        s.heap_census(&mut census);
        (
            census.items("server", "current readers"),
            census.items("server", "old readers"),
        )
    }

    fn client() -> Addr {
        Addr::client(DcId(0), 9)
    }

    fn do_put(s: &mut Server, ctx: &mut ScriptCtx<Msg>, key: Key, deps: Vec<Dep>) -> VersionId {
        s.on_message(
            ctx,
            client(),
            Msg::PutReq {
                key,
                value: Value::from_static(b"v"),
                deps,
                lamport: 0,
            },
        );
        match ctx.drain_to(client()).pop() {
            Some(Msg::PutResp { vid, .. }) => vid,
            other => panic!("expected immediate PutResp, got {other:?}"),
        }
    }

    fn do_rot(
        s: &mut Server,
        ctx: &mut ScriptCtx<Msg>,
        t: TxId,
        keys: Vec<Key>,
    ) -> Vec<(Key, Option<VersionId>)> {
        s.on_message(
            ctx,
            client(),
            Msg::RotRead {
                tx: t,
                keys,
                lamport: 0,
            },
        );
        match ctx.drain_to(client()).pop() {
            Some(Msg::RotSlice { pairs, .. }) => pairs
                .into_iter()
                .map(|(k, v)| (k, v.map(|(vid, _)| vid)))
                .collect(),
            other => panic!("expected RotSlice, got {other:?}"),
        }
    }

    #[test]
    fn rot_is_single_round_and_reads_head() {
        let mut s = server(0);
        let mut ctx = ScriptCtx::new(addr(0));
        let v1 = do_put(&mut s, &mut ctx, Key(0), vec![]);
        let got = do_rot(&mut s, &mut ctx, tx(0, 0), vec![Key(0)]);
        assert_eq!(got[0].1, Some(v1));
    }

    #[test]
    fn reader_is_recorded_then_becomes_old_reader_on_put() {
        let mut s = server(0);
        let mut ctx = ScriptCtx::new(addr(0));
        do_put(&mut s, &mut ctx, Key(0), vec![]);
        do_rot(&mut s, &mut ctx, tx(0, 0), vec![Key(0)]);
        let (cur, old) = reader_entries(&s);
        assert_eq!((cur, old), (1, 0));
        do_put(&mut s, &mut ctx, Key(0), vec![]);
        let (cur, old) = reader_entries(&s);
        assert_eq!((cur, old), (0, 1), "reader must migrate to old readers");
    }

    #[test]
    fn local_dependency_check_blocks_old_reader() {
        // Figure 2 on one partition: T1 reads x=X0; X1 written; a write Y1
        // (y on the same partition) depends on X1; T1 must not see Y1.
        let mut s = server(0);
        let mut ctx = ScriptCtx::new(addr(0));
        let x = Key(0);
        let y = Key(4); // same partition (4 % 4 == 0)
        let _x0 = do_put(&mut s, &mut ctx, x, vec![]);
        let y0 = do_put(&mut s, &mut ctx, y, vec![]);
        let t1 = tx(0, 0);
        do_rot(&mut s, &mut ctx, t1, vec![x]); // T1 reads X0
        let x1 = do_put(&mut s, &mut ctx, x, vec![]); // X0 overwritten
        let _y1 = do_put(&mut s, &mut ctx, y, vec![(x, x1)]); // Y1 ; X1
                                                              // T1's read of y must return Y0, not Y1.
        let got = do_rot(&mut s, &mut ctx, t1, vec![y]);
        assert_eq!(
            got[0].1,
            Some(y0),
            "old reader must get the version before its read time"
        );
        // A fresh ROT sees Y1.
        let got2 = do_rot(&mut s, &mut ctx, tx(1, 0), vec![y]);
        assert_ne!(got2[0].1, Some(y0));
    }

    #[test]
    fn sealed_record_keeps_only_the_newest_rot_of_a_client_that_read_twice() {
        // Figure 2 with a client c that read twice: (c,3) reads A0, (c,5)
        // reads B0 (as does d's ROT), A1 and B1 overwrite both, and Y1
        // depends on A1, B1 and a key of partition 1.
        let mut s = server(0);
        let mut ctx = ScriptCtx::new(addr(0));
        let (a, b, y) = (Key(0), Key(4), Key(8)); // all on partition 0
        do_put(&mut s, &mut ctx, a, vec![]);
        do_put(&mut s, &mut ctx, b, vec![]);
        let y0 = do_put(&mut s, &mut ctx, y, vec![]); // Lamport 3
        do_rot(&mut s, &mut ctx, tx(0, 3), vec![a]);
        do_rot(&mut s, &mut ctx, tx(0, 5), vec![b]); // read time 5
        do_rot(&mut s, &mut ctx, tx(1, 0), vec![b]); // read time 6
        let a1 = do_put(&mut s, &mut ctx, a, vec![]);
        let b1 = do_put(&mut s, &mut ctx, b, vec![]);
        s.on_message(
            &mut ctx,
            client(),
            Msg::PutReq {
                key: y,
                value: Value::from_static(b"y1"),
                deps: vec![(a, a1), (b, b1), (Key(1), VersionId::new(1, DcId(0)))],
                lamport: 0,
            },
        );
        let token = match ctx.drain_sent().pop() {
            Some((_, Msg::OldReadersQuery { token, .. })) => token,
            other => panic!("expected OldReadersQuery, got {other:?}"),
        };
        // The peer names both of c's ROTs again, (c,5) at an earlier read
        // time than its read here.
        s.on_message(
            &mut ctx,
            addr(1),
            Msg::OldReadersReply {
                token,
                entries: vec![(tx(0, 3), 1), (tx(0, 5), 4)],
                lamport: 0,
            },
        );
        assert!(matches!(ctx.drain_to(client())[..], [Msg::PutResp { .. }]));
        let rec = &s.store().latest(y).unwrap().meta;
        assert_eq!(rec.bound(tx(0, 3)), None, "c's older ROT is gone");
        assert_eq!(rec.bound(tx(0, 5)), Some(4), "smallest read time");
        assert_eq!(rec.bound(tx(1, 0)), Some(6));
        assert_eq!(rec.len(), 2);
        // (c,5) must still be kept from Y1.
        assert_eq!(do_rot(&mut s, &mut ctx, tx(0, 5), vec![y])[0].1, Some(y0));
        // Once this server has seen (c,6), no record sealed here names c.
        do_rot(&mut s, &mut ctx, tx(0, 6), vec![Key(12)]);
        let z = Key(16);
        do_put(&mut s, &mut ctx, z, vec![(b, b1)]);
        let rec = &s.store().latest(z).unwrap().meta;
        assert_eq!(rec.bound(tx(0, 5)), None);
        assert_eq!(rec.bound(tx(1, 0)), Some(6), "d's ROT is still live");
        assert_eq!(rec.len(), 1);
    }

    #[test]
    fn remote_dependency_triggers_readers_check_query() {
        let mut s = server(0);
        let mut ctx = ScriptCtx::new(addr(0));
        // Dependency on a key owned by partition 1.
        let dep_key = Key(1);
        s.on_message(
            &mut ctx,
            client(),
            Msg::PutReq {
                key: Key(0),
                value: Value::new(),
                deps: vec![(dep_key, VersionId::new(5, DcId(0)))],
                lamport: 0,
            },
        );
        // No ack yet: the PUT is pending on the readers check.
        assert!(ctx.drain_to(client()).is_empty());
        assert!(s.has_pending_puts());
        let sent = ctx.drain_sent();
        let (to, token) = match &sent[0] {
            (to, Msg::OldReadersQuery { token, deps, .. }) => {
                assert_eq!(deps[0].0, dep_key);
                (*to, *token)
            }
            other => panic!("expected OldReadersQuery, got {other:?}"),
        };
        assert_eq!(to, addr(1));
        // Reply arrives: the PUT completes and the ids land in the block
        // record of the new version.
        let blocked = tx(3, 1);
        s.on_message(
            &mut ctx,
            addr(1),
            Msg::OldReadersReply {
                token,
                entries: vec![(blocked, 7)],
                lamport: 9,
            },
        );
        let resp = ctx.drain_to(client());
        assert!(matches!(resp[0], Msg::PutResp { .. }));
        let head = s.store().latest(Key(0)).unwrap();
        assert_eq!(head.meta.bound(blocked), Some(7));
    }

    #[test]
    fn old_readers_query_is_answered_with_per_client_filtering() {
        let mut s = server(0);
        let mut ctx = ScriptCtx::new(addr(0));
        do_put(&mut s, &mut ctx, Key(0), vec![]);
        // Two ROTs of the same client read X0, one of another client.
        do_rot(&mut s, &mut ctx, tx(0, 0), vec![Key(0)]);
        do_rot(&mut s, &mut ctx, tx(0, 1), vec![Key(0)]);
        do_rot(&mut s, &mut ctx, tx(1, 0), vec![Key(0)]);
        let x1 = do_put(&mut s, &mut ctx, Key(0), vec![]); // all three become old
        s.on_message(
            &mut ctx,
            addr(1),
            Msg::OldReadersQuery {
                token: 42,
                deps: vec![(Key(0), x1)],
                lamport: 0,
            },
        );
        match ctx.drain_to(addr(1)).pop() {
            Some(Msg::OldReadersReply { entries, .. }) => {
                assert_eq!(entries.len(), 2, "one id per client");
                assert!(
                    entries.iter().any(|(t, _)| *t == tx(0, 1)),
                    "most recent ROT of client 0"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// X0 and X1 written, T reads X1, X2 overwrites it: T is an old reader
    /// of x although it read the very version a later write depends on.
    fn old_reader_of_the_dependency(s: &mut Server, ctx: &mut ScriptCtx<Msg>) -> (TxId, VersionId) {
        let x = Key(0);
        do_put(s, ctx, x, vec![]);
        let x1 = do_put(s, ctx, x, vec![]);
        let t = tx(2, 0);
        assert_eq!(do_rot(s, ctx, t, vec![x])[0].1, Some(x1));
        do_put(s, ctx, x, vec![]);
        (t, x1)
    }

    #[test]
    fn readers_check_answers_with_all_old_readers_not_only_those_before_the_dependency() {
        // Footnote 3: the answer names every old reader of the key, so T's
        // read of X1 itself is in it when the checked dependency is X1.
        let mut s = server(0);
        let mut ctx = ScriptCtx::new(addr(0));
        let (t, x1) = old_reader_of_the_dependency(&mut s, &mut ctx);
        s.on_message(
            &mut ctx,
            addr(1),
            Msg::OldReadersQuery {
                token: 7,
                deps: vec![(Key(0), x1)],
                lamport: 0,
            },
        );
        match ctx.drain_to(addr(1)).pop() {
            Some(Msg::OldReadersReply { entries, .. }) => {
                assert!(entries.iter().any(|(id, _)| *id == t), "{entries:?}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn local_readers_check_blocks_every_old_reader_of_a_dependency() {
        let mut s = server(0);
        let mut ctx = ScriptCtx::new(addr(0));
        let (t, x1) = old_reader_of_the_dependency(&mut s, &mut ctx);
        let y = Key(4); // same partition
        do_put(&mut s, &mut ctx, y, vec![(Key(0), x1)]);
        let rec = &s.store().latest(y).unwrap().meta;
        assert!(rec.bound(t).is_some(), "T must be kept from Y");
    }

    #[test]
    fn replicated_readers_check_blocks_every_old_reader_of_a_dependency() {
        let mut s = Server::new(addr(0), ClusterConfig::small().with_dcs(2));
        let mut ctx = ScriptCtx::new(addr(0));
        let (t, x1) = old_reader_of_the_dependency(&mut s, &mut ctx);
        let y = Key(4); // same partition: the check runs locally
        let y1 = VersionId::new(100, DcId(1));
        s.on_message(
            &mut ctx,
            Addr::server(DcId(1), PartitionId(0)),
            Msg::Replicate {
                key: y,
                value: Value::from_static(b"y1"),
                vid: y1,
                deps: vec![(Key(0), x1)],
                lamport: 100,
                birth: 0,
            },
        );
        let head = s.store().latest(y).unwrap();
        assert_eq!(head.vid, y1, "the dependency is installed here");
        assert!(head.meta.bound(t).is_some(), "T must be kept from Y1");
    }

    /// A replicated version older than the head (an interleaved install)
    /// supersedes the current readers like any install, and stamps them
    /// with the head they read, not with the arriving version: a readers
    /// check against a dependency between the two finds none of them.
    #[test]
    fn interleaved_install_stamps_current_readers_with_the_head() {
        let mut s = Server::new(addr(0), ClusterConfig::small().with_dcs(2));
        let mut ctx = ScriptCtx::new(addr(0));
        let x = Key(0);
        for _ in 0..3 {
            do_put(&mut s, &mut ctx, Key(4), vec![]);
        }
        let head = do_put(&mut s, &mut ctx, x, vec![]);
        let t = tx(3, 0);
        assert_eq!(do_rot(&mut s, &mut ctx, t, vec![x]), vec![(x, Some(head))]);
        let older = VersionId::new(head.ts - 2, DcId(1));
        s.on_message(
            &mut ctx,
            Addr::server(DcId(1), PartitionId(0)),
            Msg::Replicate {
                key: x,
                value: Value::from_static(b"x-older"),
                vid: older,
                deps: vec![],
                lamport: older.ts,
                birth: 0,
            },
        );
        assert_eq!(s.store().latest(x).unwrap().vid, head, "the head stays");
        assert_eq!(s.store().chain(x).unwrap().len(), 2);
        assert_eq!(reader_entries(&s), (0, 1), "superseded by the install");
        let window = s.gc_window_ns();
        let old = &s.old_readers[&x];
        assert!(old.query(older.ts + 1, 0, window).is_empty());
        assert!(old.query(head.ts, 0, window).is_empty());
        let named: Vec<TxId> = old
            .query(head.ts + 1, 0, window)
            .iter()
            .map(|p| p.0)
            .collect();
        assert_eq!(named, [t]);
    }

    #[test]
    fn replicate_waits_for_dependency_install() {
        // DC1's partition 0 receives Y1 (dep on X1 at partition 1 of DC1)
        // before X1 arrived there: the dep check reply is deferred.
        let cfg = ClusterConfig::small().with_dcs(2);
        let y_part = Addr::server(DcId(1), PartitionId(0));
        let x_part = Addr::server(DcId(1), PartitionId(1));
        let mut sy = Server::new(y_part, cfg.clone());
        let mut sx = Server::new(x_part, cfg.clone());
        let mut ctx = ScriptCtx::new(y_part);

        let x1 = VersionId::new(10, DcId(0));
        let y1 = VersionId::new(11, DcId(0));
        sy.on_message(
            &mut ctx,
            Addr::server(DcId(0), PartitionId(0)),
            Msg::Replicate {
                key: Key(0),
                value: Value::from_static(b"y1"),
                vid: y1,
                deps: vec![(Key(1), x1)],
                lamport: 11,
                birth: 0,
            },
        );
        // Y1 must not be visible yet.
        assert!(sy.store().latest(Key(0)).is_none());
        let q = ctx.drain_to(x_part);
        let token = match &q[0] {
            Msg::DepCheckQuery { token, .. } => *token,
            other => panic!("unexpected {other:?}"),
        };
        // X1 hasn't arrived at x_part: the query is parked.
        ctx.at(x_part, 0);
        sx.on_message(&mut ctx, y_part, q[0].clone());
        assert!(ctx.drain_sent().is_empty(), "dep check must wait");
        // X1 arrives; the parked reply flushes.
        sx.on_message(
            &mut ctx,
            Addr::server(DcId(0), PartitionId(1)),
            Msg::Replicate {
                key: Key(1),
                value: Value::from_static(b"x1"),
                vid: x1,
                deps: vec![],
                lamport: 10,
                birth: 0,
            },
        );
        let replies = ctx.drain_to(y_part);
        assert!(
            matches!(replies[0], Msg::DepCheckReply { token: t, .. } if t == token),
            "reply released after install"
        );
        // Deliver it: Y1 installs.
        ctx.at(y_part, 0);
        sy.on_message(&mut ctx, x_part, replies[0].clone());
        assert_eq!(sy.store().latest(Key(0)).unwrap().vid, y1);
    }

    #[test]
    fn gc_expires_reader_records() {
        let mut s = server(0);
        let mut ctx = ScriptCtx::new(addr(0));
        do_put(&mut s, &mut ctx, Key(0), vec![]);
        do_rot(&mut s, &mut ctx, tx(0, 0), vec![Key(0)]);
        assert_eq!(reader_entries(&s).0, 1);
        // Far beyond the 500ms (scaled in small config) window.
        ctx.now = 10_000_000_000;
        s.on_timer(&mut ctx, TimerKind::new(timers::GC));
        assert_eq!(reader_entries(&s), (0, 0));
    }

    #[test]
    fn reads_of_bottom_are_recorded_as_readers() {
        let mut s = server(0);
        let mut ctx = ScriptCtx::new(addr(0));
        let got = do_rot(&mut s, &mut ctx, tx(0, 0), vec![Key(0)]);
        assert_eq!(got[0].1, None);
        assert_eq!(reader_entries(&s).0, 1, "⊥ readers must be tracked too");
        // When the first version is written, the ⊥ reader becomes old.
        do_put(&mut s, &mut ctx, Key(0), vec![]);
        assert_eq!(reader_entries(&s), (0, 1));
    }

    #[test]
    fn figure6_stats_are_accounted() {
        let mut s = server(0);
        let mut ctx = ScriptCtx::new(addr(0));
        ctx.metrics.enabled = true;
        s.on_message(
            &mut ctx,
            client(),
            Msg::PutReq {
                key: Key(0),
                value: Value::new(),
                deps: vec![
                    (Key(1), VersionId::new(1, DcId(0))),
                    (Key(2), VersionId::new(1, DcId(0))),
                ],
                lamport: 0,
            },
        );
        let sent = ctx.drain_sent();
        for (from_i, (_, q)) in sent.iter().enumerate() {
            if let Msg::OldReadersQuery { token, .. } = q {
                s.on_message(
                    &mut ctx,
                    addr(1 + from_i as u16),
                    Msg::OldReadersReply {
                        token: *token,
                        entries: vec![(tx(5, 0), 1), (tx(6, 0), 2)],
                        lamport: 0,
                    },
                );
            }
        }
        assert_eq!(ctx.metrics.counter(stats::CHECKS), 1);
        assert_eq!(ctx.metrics.counter(stats::CHECK_PARTITIONS), 2);
        assert_eq!(ctx.metrics.counter(stats::CHECK_IDS_CUM), 4);
        assert_eq!(ctx.metrics.counter(stats::CHECK_IDS_DISTINCT), 2);
    }
}
