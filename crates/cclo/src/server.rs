//! The CC-LO storage server: latency-optimal ROTs, expensive PUTs.

use crate::msg::{Dep, Msg};
use crate::records::{
    readers_heap, BlockRecord, CurrentReaders, ReaderEntry, ReaderSet, RotFloor, Stamp,
    OFFSET_REACH,
};
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

/// A version waiting for its readers check: a client's PUT in its own DC,
/// or a replicated update in every other DC. Both run one check
/// (`start_check`) and end in one install (`install`).
struct Pending {
    key: Key,
    value: Value,
    vid: VersionId,
    /// The writer's explicit dependency list. A PUT ships it along on
    /// replication, so every remote DC can run its own check.
    deps: Vec<Dep>,
    /// Old-reader pairs collected so far, unsorted: this partition's own
    /// first when its dependencies are installed, then each reply's.
    /// Sealed into the version's [`BlockRecord`] once, at `install`.
    block: Vec<(TxId, u64)>,
    /// Where the replies start in `block`. Figure 6 counts the ids that
    /// crossed the network, not the locally collected ones.
    n_local: usize,
    /// Peer partitions queried (Figure 6).
    peers: u64,
    /// Answers still to come, this partition's own parked one included.
    awaiting: usize,
    origin: Origin,
}

/// Where a pending version was written, which says what its install does
/// besides storing it.
enum Origin {
    /// A PUT of this client: acknowledge it, count Figure 6, replicate.
    Client(Addr),
    /// A replicated update, installed at its origin at runtime `birth`
    /// (zero when unknown): merge its stamp, record visibility staleness.
    Replica { birth: u64 },
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

/// The timestamp of `key`'s head version, 0 for ⊥ (genesis is 0 too).
fn head_ts(store: &MvStore<BlockRecord>, key: Key) -> u64 {
    store.latest(key).map_or(0, |h| h.vid.ts)
}

/// A readers check that cannot be answered yet because some dependency
/// has not been installed here.
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
    /// with the head's timestamp as they become old readers. Their clocks
    /// are 32-bit offsets, of at most `OFFSET_REACH`, from this server's
    /// epoch, which every GC sweep re-bases; a key's set is 16 B, its one
    /// reader inline (`records` module docs).
    readers: CurrentReaders,
    /// Old readers of each key (readers of superseded versions).
    old_readers: HashMap<Key, ReaderSet>,
    /// The server's per-client table: the newest ROT each client has read
    /// here, raised by every `RotRead` — a record sealed on this server
    /// drops a client's ROTs below it, which can never read here again —
    /// and the seal's per-client scratch (`records` module docs).
    rot_floor: RotFloor,
    /// Versions whose readers check is in progress, by token.
    pending: HashMap<u64, Pending>,
    /// Readers checks parked until their dependencies install (released
    /// by `flush_dep_waiters` after every install).
    dep_waiters: Parked<DepWaiter>,
    next_token: u64,
    timers: Timers,
}

impl Server {
    pub fn new(addr: Addr, cfg: ClusterConfig) -> Self {
        // Sweep reader records well inside the GC window so stale ids
        // neither linger in memory nor get shipped around.
        let window = cfg.old_reader_gc_us * 1000;
        let sweep_ns = window / 4;
        // Between sweeps a current reader's ns offset reaches the window
        // plus a quarter (`records` module docs).
        assert!(
            window + sweep_ns <= OFFSET_REACH,
            "old_reader_gc_us = {}: the GC window plus a quarter must fit a 32-bit \
             ns offset, so the window is at most {} us",
            cfg.old_reader_gc_us,
            OFFSET_REACH * 4 / 5 / 1000
        );
        Server {
            addr,
            cfg,
            lamport: LogicalClock::new(),
            store: MvStore::new(),
            readers: CurrentReaders::new(window),
            old_readers: HashMap::new(),
            rot_floor: RotFloor::new(),
            pending: HashMap::new(),
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
        let (kept, dropped) = self.readers.gc(now);
        let mut touched = kept + dropped;
        #[expect(
            clippy::disallowed_methods,
            clippy::iter_over_hash_type,
            reason = "per-entry GC; kept/dropped fold commutatively"
        )]
        for set in self.old_readers.values_mut() {
            let (kept, dropped) = set.gc(now, window);
            touched += kept + dropped;
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "per-entry emptiness predicate, order-free"
        )]
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
        // Any peer of a live cluster can send a client-bound message, or a
        // stamp that would take the clock past the current readers' reach
        // (and so a read time past what their offsets hold): each is
        // counted and dropped rather than trusted, and the clock stays
        // where it was.
        let clock = self.lamport.peek();
        let limit = self.readers.tick_limit(clock);
        let Some(t) = msg
            .stamp()
            .filter(|&s| s.max(clock) < limit)
            .and_then(|s| self.lamport.observe(s))
        else {
            ctx.metrics().rejected();
            return;
        };
        match msg {
            Msg::RotRead { tx, keys, .. } => self.handle_rot(ctx, from, tx, keys, t),
            Msg::PutReq {
                key, value, deps, ..
            } => self.handle_put(ctx, from, key, value, deps, t),
            Msg::ReadersCheck { token, deps, .. } => self.answer_check(ctx, from, token, deps),
            Msg::ReadersCheckReply { token, entries, .. } => {
                self.on_check_reply(ctx, token, entries)
            }
            Msg::Replicate {
                key,
                value,
                vid,
                deps,
                birth,
                ..
            } => self.handle_replicate(ctx, key, value, vid, deps, birth),
            Msg::RotSlice { .. } | Msg::PutResp { .. } | Msg::Inject(_) => {
                unreachable!("a client-bound message has no stamp")
            }
        }
    }

    /// The latency-optimal ROT path: one round, one version, nonblocking.
    /// `read_time` is the Lamport time of the read's arrival.
    fn handle_rot(
        &mut self,
        ctx: &mut dyn ActorCtx<Msg>,
        client: Addr,
        tx: TxId,
        keys: Vec<Key>,
        read_time: u64,
    ) {
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
                let at = Stamp {
                    ticks: read_time,
                    ns: now,
                };
                self.readers.insert(key, tx, at);
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

    /// PUT at timestamp `ts` (the Lamport time of its arrival): only when
    /// its readers check has found every old reader does the version
    /// install and the client get its ack.
    fn handle_put(
        &mut self,
        ctx: &mut dyn ActorCtx<Msg>,
        client: Addr,
        key: Key,
        value: Value,
        deps: Vec<Dep>,
        ts: u64,
    ) {
        let vid = VersionId::new(ts, self.addr.dc);
        self.start_check(ctx, key, value, vid, deps, Origin::Client(client));
    }

    /// A replicated update arriving from another DC: it runs the same
    /// readers check in *this* DC before installing, each dependency
    /// waited for until it has installed here (the replication-side cost
    /// of latency optimality, Section 5.4).
    fn handle_replicate(
        &mut self,
        ctx: &mut dyn ActorCtx<Msg>,
        key: Key,
        value: Value,
        vid: VersionId,
        deps: Vec<Dep>,
        birth: u64,
    ) {
        self.start_check(ctx, key, value, vid, deps, Origin::Replica { birth });
    }

    /// The readers check: this partition collects the old readers of its
    /// own dependency keys — or parks a self-addressed waiter while a
    /// replica's dependencies here have not installed yet — and every
    /// other partition of this DC holding a dependency gets one
    /// `ReadersCheck`. The version installs once every answer is in.
    fn start_check(
        &mut self,
        ctx: &mut dyn ActorCtx<Msg>,
        key: Key,
        value: Value,
        vid: VersionId,
        deps: Vec<Dep>,
        origin: Origin,
    ) {
        let token = self.next_token;
        self.next_token += 1;
        let mut p = Pending {
            key,
            value,
            vid,
            deps,
            block: Vec::new(),
            n_local: 0,
            peers: 0,
            awaiting: 0,
            origin,
        };
        for (part, part_deps) in self.group_deps(&p.deps) {
            if part != self.addr.partition() {
                p.peers += 1;
                p.awaiting += 1;
                let peer = Addr::server(self.addr.dc, part);
                ctx.send(
                    peer,
                    Msg::ReadersCheck {
                        token,
                        deps: part_deps,
                        lamport: self.lamport.peek(),
                    },
                );
            } else if self.deps_installed(&part_deps) {
                p.block = self.collect_old_readers(ctx, &part_deps);
            } else {
                debug_assert!(
                    matches!(p.origin, Origin::Replica { .. }),
                    "a client's dependencies are installed in its own DC"
                );
                p.awaiting += 1;
                self.park_check(ctx, self.addr, token, part_deps);
            }
        }
        p.n_local = p.block.len();
        if p.awaiting == 0 {
            self.install(ctx, p);
        } else {
            self.pending.insert(token, p);
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

    /// A peer's readers check, answered once every dependency in `deps` is
    /// installed here: in the same step for a PUT of this DC, whose
    /// client's dependencies are installed in its own DC, maybe later for
    /// a replicated update.
    fn answer_check(
        &mut self,
        ctx: &mut dyn ActorCtx<Msg>,
        from: Addr,
        token: u64,
        deps: Vec<Dep>,
    ) {
        if self.deps_installed(&deps) {
            let entries = self.collect_old_readers(ctx, &deps);
            self.reply(ctx, from, token, entries);
        } else {
            self.park_check(ctx, from, token, deps);
        }
    }

    fn park_check(
        &mut self,
        ctx: &mut dyn ActorCtx<Msg>,
        reply_to: Addr,
        token: u64,
        deps: Vec<Dep>,
    ) {
        if ctx.tracing() {
            ctx.trace(TraceKind::Park, 1, self.dep_waiters.len() as u64);
        }
        self.dep_waiters.park_until_ready(
            ctx.now(),
            DepWaiter {
                reply_to,
                token,
                deps,
            },
        );
    }

    /// Sends a readers-check answer to the peer that asked, or hands it to
    /// this server's own pending version.
    fn reply(
        &mut self,
        ctx: &mut dyn ActorCtx<Msg>,
        to: Addr,
        token: u64,
        entries: Vec<(TxId, u64)>,
    ) {
        if to == self.addr {
            self.on_check_reply(ctx, token, entries);
        } else {
            let lamport = self.lamport.peek();
            ctx.send(
                to,
                Msg::ReadersCheckReply {
                    token,
                    entries,
                    lamport,
                },
            );
        }
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

    /// One answer to a pending readers check; the last one installs.
    fn on_check_reply(
        &mut self,
        ctx: &mut dyn ActorCtx<Msg>,
        token: u64,
        entries: Vec<(TxId, u64)>,
    ) {
        let Entry::Occupied(mut slot) = self.pending.entry(token) else {
            return;
        };
        let p = slot.get_mut();
        append_reply(&mut p.block, entries);
        p.awaiting -= 1;
        if p.awaiting == 0 {
            let p = slot.remove();
            self.install(ctx, p);
        }
    }

    /// Installs a checked version: the key's current readers become old
    /// readers, the block seals into the version's record, and the
    /// readers checks the install satisfies are released. A PUT also
    /// acknowledges its client, counts Figure 6 and replicates; a replica
    /// merges its stamp and records visibility staleness.
    fn install(&mut self, ctx: &mut dyn ActorCtx<Msg>, p: Pending) {
        let Pending {
            key,
            value,
            vid,
            deps,
            block,
            n_local,
            peers,
            origin,
            ..
        } = p;
        // Distinct *clients* named by the responses (the paper's "distinct
        // ROT ids" — with at most one id per client per response, the
        // distinct count collapses to clients, matching "252 distinct at
        // 256 clients"), counted by the seal's own pass.
        let (record, ids_distinct) = BlockRecord::seal(&block, n_local, &mut self.rot_floor);
        ctx.metrics()
            .add(stats::BLOCK_RECORD_IDS, record.len() as u64);
        self.supersede_head(key);
        let birth = match origin {
            Origin::Client(client) => {
                let lamport = self.lamport.peek();
                ctx.send(client, Msg::PutResp { key, vid, lamport });
                let ids_cum = (block.len() - n_local) as u64;
                let m = ctx.metrics();
                m.add(stats::CHECKS, 1);
                m.add(stats::CHECK_KEYS, deps.len() as u64);
                m.add(stats::CHECK_PARTITIONS, peers);
                m.add(stats::CHECK_IDS_CUM, ids_cum);
                m.add(stats::CHECK_IDS_DISTINCT, ids_distinct as u64);
                m.add(stats::CHECK_BYTES, ids_cum * 16);
                // Ship the update with the client's full dependency list;
                // each remote DC runs its own readers check before
                // installing — the per-DC replication cost of latency
                // optimality (Section 5.4).
                let birth = ctx.now();
                for dc in (0..self.cfg.n_dcs).filter(|&dc| dc != self.addr.dc.0) {
                    let peer = Addr::server(contrarian_types::DcId(dc), self.addr.partition());
                    let msg = Msg::Replicate {
                        key,
                        value: value.clone(),
                        vid,
                        deps: deps.clone(),
                        lamport,
                        birth,
                    };
                    ctx.send(peer, msg);
                }
                birth
            }
            Origin::Replica { birth } => {
                self.lamport.merge(vid.ts);
                if birth > 0 {
                    // Visibility staleness: how long after the origin
                    // install this replica's readers check let the write in.
                    let stale = ctx.now().saturating_sub(birth);
                    ctx.metrics().vis_stale(stale);
                }
                ctx.metrics().add(stats::REPL_CHECKS, 1);
                birth
            }
        };
        self.store
            .put(key, Version::new(vid, value, record).with_birth(birth));
        self.flush_dep_waiters(ctx);
    }

    /// Turns `key`'s current readers into old readers of its head, stamped
    /// with the head's timestamp. Runs before every install, even of a
    /// replicated version older than the head: what the current readers
    /// read is always the head, because they were all recorded since the
    /// last install.
    fn supersede_head(&mut self, key: Key) {
        if self.readers.has(key) {
            let head_ts = head_ts(&self.store, key);
            let old = self.old_readers.entry(key).or_default();
            self.readers.supersede(key, old, head_ts);
        }
    }

    /// After any install, answer the readers checks that were waiting for
    /// it. Their waits are not client blocking — no ROT waits on them —
    /// so they show as Park/Unpark trace events and in visibility
    /// staleness, not in `Metrics::block_ns`.
    fn flush_dep_waiters(&mut self, ctx: &mut dyn ActorCtx<Msg>) {
        // Take the queue so the readiness predicate can borrow the store;
        // the answers below may install (and recurse through `install`)
        // and park new waiters, which land in the restored queue.
        let mut q = std::mem::take(&mut self.dep_waiters);
        let ready = q.take_ready(ctx.now(), |w| self.deps_installed(&w.deps));
        self.dep_waiters = q;
        for (waited, w) in ready {
            if ctx.tracing() {
                ctx.trace(TraceKind::Unpark, 1, waited);
            }
            let entries = self.collect_old_readers(ctx, &w.deps);
            self.reply(ctx, w.reply_to, w.token, entries);
        }
    }

    /// Test/diagnostic access.
    pub fn lamport(&self) -> u64 {
        self.lamport.peek()
    }

    pub fn has_pending_checks(&self) -> bool {
        !self.pending.is_empty()
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

    /// The store (index, slab and multi-version chains; items: keys, keys
    /// and versions), the two reader maps (items: reader entries), the sealed
    /// records in the versions (items: versions), the readers checks in
    /// progress, the per-client table and the timer table.
    fn heap_census(&self, census: &mut HeapCensus) {
        let store = self.store.heap_bytes(BlockRecord::heap_bytes);
        let (keys, versions) = (self.store.n_keys(), self.store.n_versions());
        census.add("store: index", store.index, keys);
        census.add("store: slab", store.slab, keys);
        census.add("store: chains", store.chains, versions);
        census.add("sealed records", store.meta, versions);
        let (bytes, entries) = self.readers.heap();
        census.add("current readers", bytes, entries);
        let (bytes, entries) = readers_heap(&self.old_readers);
        census.add("old readers", bytes, entries);
        #[expect(
            clippy::disallowed_methods,
            reason = "commutative sums for a heap census"
        )]
        let pending: usize = self
            .pending
            .values()
            .map(|p| heap::vec_bytes(&p.block) + heap::vec_bytes(&p.deps))
            .sum();
        census.add(
            "pending checks",
            heap::map_bytes(&self.pending)
                + pending
                + self.dep_waiters.heap_bytes(|w| heap::vec_bytes(&w.deps)),
            self.pending.len() + self.dep_waiters.len(),
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

    /// A client-bound message delivered to a server is dropped and
    /// counted; the server stays usable.
    #[test]
    fn a_client_bound_message_is_counted_and_dropped() {
        let mut s = server(0);
        let mut ctx = ScriptCtx::new(addr(0));
        s.on_message(
            &mut ctx,
            addr(1),
            Msg::RotSlice {
                tx: tx(1, 0),
                pairs: vec![(Key(0), None)],
                lamport: 0,
            },
        );
        assert_eq!(ctx.sink.metrics.rejected_msgs, 1);
        assert!(ctx.drain_sent().is_empty());
        assert_eq!(s.store().n_keys(), 0);
    }

    /// A server-bound message whose Lamport stamp has no successor is
    /// counted and dropped: no panic, no wrapped clock, no reply, and the
    /// next ordinary read is still answered.
    #[test]
    fn a_stamp_without_a_successor_is_counted_and_dropped() {
        let mut s = server(0);
        let mut ctx = ScriptCtx::new(addr(0));
        let v1 = do_put(&mut s, &mut ctx, Key(0), vec![]);
        let clock = s.lamport();
        let max = u64::MAX;
        let stamped = [
            Msg::RotRead {
                tx: tx(0, 0),
                keys: vec![Key(0)],
                lamport: max,
            },
            Msg::PutReq {
                key: Key(4),
                value: Value::new(),
                deps: vec![],
                lamport: max,
            },
            Msg::ReadersCheck {
                token: 1,
                deps: vec![(Key(0), v1)],
                lamport: max,
            },
            Msg::Replicate {
                key: Key(8),
                value: Value::new(),
                vid: VersionId::new(max, DcId(1)),
                deps: vec![],
                lamport: 0,
                birth: 0,
            },
        ];
        for (n, msg) in stamped.into_iter().enumerate() {
            s.on_message(&mut ctx, client(), msg);
            assert_eq!(ctx.sink.metrics.rejected_msgs, n as u64 + 1);
            assert!(ctx.drain_sent().is_empty(), "no reply");
            assert_eq!(s.lamport(), clock, "the clock does not move");
        }
        assert_eq!(s.store().n_keys(), 1);
        let got = do_rot(&mut s, &mut ctx, tx(0, 1), vec![Key(0)]);
        assert_eq!(got, vec![(Key(0), Some(v1))]);
        assert_eq!(ctx.sink.metrics.rejected_msgs, 4);
    }

    /// Delivers `msg` from a client and asserts that it was counted and
    /// dropped: no reply, and the clock did not move.
    fn assert_dropped(s: &mut Server, ctx: &mut ScriptCtx<Msg>, msg: Msg) {
        let (clock, rejected) = (s.lamport(), ctx.sink.metrics.rejected_msgs);
        s.on_message(ctx, client(), msg);
        assert_eq!(ctx.sink.metrics.rejected_msgs, rejected + 1);
        assert!(ctx.drain_sent().is_empty(), "no reply");
        assert_eq!(s.lamport(), clock, "the clock does not move");
    }

    fn rot_read(seq: u32, lamport: u64) -> Msg {
        Msg::RotRead {
            tx: tx(1, seq),
            keys: vec![Key(4)],
            lamport,
        }
    }

    /// A stamp that would take the clock past the current readers' reach
    /// — counted from their epoch, or from the clock while there are none
    /// — is counted and dropped rather than panicking the server, and the
    /// next ordinary ROT is answered. The last stamp in reach is taken; a
    /// clock at the edge then takes nothing until a sweep expires the
    /// readers, so no read time creeps past the reach either.
    #[test]
    fn a_stamp_past_the_current_readers_reach_is_counted_and_dropped() {
        let mut s = server(0);
        let mut ctx = ScriptCtx::new(addr(0));
        let v1 = do_put(&mut s, &mut ctx, Key(0), vec![]);
        do_rot(&mut s, &mut ctx, tx(0, 0), vec![Key(0)]);
        let far = 1 << 33;
        for msg in [
            rot_read(0, far),
            rot_read(0, u64::MAX - 1),
            Msg::PutReq {
                key: Key(4),
                value: Value::new(),
                deps: vec![],
                lamport: far,
            },
            Msg::ReadersCheck {
                token: 1,
                deps: vec![(Key(0), v1)],
                lamport: far,
            },
            Msg::Replicate {
                key: Key(8),
                value: Value::new(),
                vid: VersionId::new(far, DcId(1)),
                deps: vec![],
                lamport: 0,
                birth: 0,
            },
        ] {
            assert_dropped(&mut s, &mut ctx, msg);
        }
        let got = do_rot(&mut s, &mut ctx, tx(1, 1), vec![Key(0)]);
        assert_eq!(got, vec![(Key(0), Some(v1))]);
        let edge = s.readers.tick_limit(s.lamport()) - 1;
        s.on_message(&mut ctx, client(), rot_read(2, edge));
        assert!(matches!(ctx.drain_to(client())[..], [Msg::RotSlice { .. }]));
        assert_dropped(&mut s, &mut ctx, rot_read(3, 0));
        ctx.now = 10_000_000_000;
        s.on_timer(&mut ctx, TimerKind::new(timers::GC));
        let got = do_rot(&mut s, &mut ctx, tx(1, 4), vec![Key(0)]);
        assert_eq!(got, vec![(Key(0), Some(v1))]);
        assert_eq!(ctx.sink.metrics.rejected_msgs, 6);

        // With no current readers, the reach counts from the clock.
        let mut s = server(0);
        let mut ctx = ScriptCtx::new(addr(0));
        assert_dropped(&mut s, &mut ctx, rot_read(0, u64::MAX - 1));
        assert_dropped(&mut s, &mut ctx, rot_read(0, OFFSET_REACH));
        s.on_message(&mut ctx, client(), rot_read(0, OFFSET_REACH - 1));
        assert!(matches!(ctx.drain_to(client())[..], [Msg::RotSlice { .. }]));
    }

    /// The longest GC window whose ns offsets, plus a quarter window
    /// between sweeps, fit 32 bits builds; 1 us more fails at
    /// construction, not partway through a run.
    #[test]
    #[should_panic(expected = "old_reader_gc_us = 3435974: the GC window plus a quarter")]
    fn a_gc_window_past_32_bit_offsets_fails_at_construction() {
        let mut cfg = ClusterConfig::small();
        cfg.old_reader_gc_us = 3_435_973;
        Server::new(addr(0), cfg.clone());
        cfg.old_reader_gc_us += 1;
        Server::new(addr(0), cfg);
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

    /// A ROT handled 2³³ ns after an unswept one — a wall clock that
    /// stalled, its overdue sweep still to run — is served, and the
    /// stalled reader, expired, names no ROT in the next readers check.
    #[test]
    fn a_rot_after_a_stall_past_32_bit_offsets_is_served() {
        let mut s = server(0);
        let mut ctx = ScriptCtx::new(addr(0));
        let v1 = do_put(&mut s, &mut ctx, Key(0), vec![]);
        do_rot(&mut s, &mut ctx, tx(0, 0), vec![Key(0)]);
        ctx.now = 1 << 33;
        let got = do_rot(&mut s, &mut ctx, tx(1, 0), vec![Key(0)]);
        assert_eq!(got[0].1, Some(v1));
        assert_eq!(reader_entries(&s), (2, 0));
        do_put(&mut s, &mut ctx, Key(0), vec![]);
        let window = s.gc_window_ns();
        let named = s.old_readers[&Key(0)].query(u64::MAX, ctx.now, window);
        assert_eq!(named, [(tx(1, 0), 3)]);
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
            Some((_, Msg::ReadersCheck { token, .. })) => token,
            other => panic!("expected ReadersCheck, got {other:?}"),
        };
        // The peer names both of c's ROTs again, (c,5) at an earlier read
        // time than its read here.
        s.on_message(
            &mut ctx,
            addr(1),
            Msg::ReadersCheckReply {
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
        assert!(s.has_pending_checks());
        let sent = ctx.drain_sent();
        let (to, token) = match &sent[0] {
            (to, Msg::ReadersCheck { token, deps, .. }) => {
                assert_eq!(deps[0].0, dep_key);
                (*to, *token)
            }
            other => panic!("expected ReadersCheck, got {other:?}"),
        };
        assert_eq!(to, addr(1));
        // Reply arrives: the PUT completes and the ids land in the block
        // record of the new version.
        let blocked = tx(3, 1);
        s.on_message(
            &mut ctx,
            addr(1),
            Msg::ReadersCheckReply {
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
            Msg::ReadersCheck {
                token: 42,
                deps: vec![(Key(0), x1)],
                lamport: 0,
            },
        );
        match ctx.drain_to(addr(1)).pop() {
            Some(Msg::ReadersCheckReply { entries, .. }) => {
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
            Msg::ReadersCheck {
                token: 7,
                deps: vec![(Key(0), x1)],
                lamport: 0,
            },
        );
        match ctx.drain_to(addr(1)).pop() {
            Some(Msg::ReadersCheckReply { entries, .. }) => {
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
            Msg::ReadersCheck { token, .. } => *token,
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
            matches!(replies[0], Msg::ReadersCheckReply { token: t, .. } if t == token),
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

    /// A ROT read just below a multiple of 2³² — in Lamport ticks and in
    /// ns — and a PUT that supersedes it just after: the readers check
    /// names it with its exact read time, and it expires exactly one
    /// window after its insertion.
    #[test]
    fn a_reader_across_a_multiple_of_2_32_keeps_its_exact_stamps() {
        let mut s = server(0);
        let mut ctx = ScriptCtx::new(addr(0));
        let m = 1u64 << 32;
        ctx.now = m - 1;
        s.on_message(
            &mut ctx,
            client(),
            Msg::RotRead {
                tx: tx(0, 0),
                keys: vec![Key(0)],
                lamport: m - 3,
            },
        );
        ctx.drain_to(client());
        ctx.now = m + 1;
        do_put(&mut s, &mut ctx, Key(0), vec![]);
        let window = s.gc_window_ns();
        let old = &s.old_readers[&Key(0)];
        assert_eq!(
            old.query(u64::MAX, m - 1 + window, window),
            [(tx(0, 0), m - 2)]
        );
        assert!(old.query(u64::MAX, m + window, window).is_empty());
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
        ctx.sink.metrics.enabled = true;
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
            if let Msg::ReadersCheck { token, .. } = q {
                s.on_message(
                    &mut ctx,
                    addr(1 + from_i as u16),
                    Msg::ReadersCheckReply {
                        token: *token,
                        entries: vec![(tx(5, 0), 1), (tx(6, 0), 2)],
                        lamport: 0,
                    },
                );
            }
        }
        assert_eq!(ctx.sink.metrics.counter(stats::CHECKS), 1);
        assert_eq!(ctx.sink.metrics.counter(stats::CHECK_PARTITIONS), 2);
        assert_eq!(ctx.sink.metrics.counter(stats::CHECK_IDS_CUM), 4);
        assert_eq!(ctx.sink.metrics.counter(stats::CHECK_IDS_DISTINCT), 2);
    }

    /// Two ROTs of different clients read X0 and X1 supersedes it: both
    /// are old readers of x when a later write depends on X1.
    fn two_old_readers_of(s: &mut Server, ctx: &mut ScriptCtx<Msg>, x: Key) -> VersionId {
        do_put(s, ctx, x, vec![]);
        do_rot(s, ctx, tx(0, 0), vec![x]);
        do_rot(s, ctx, tx(1, 0), vec![x]);
        do_put(s, ctx, x, vec![])
    }

    /// The same old readers of a local dependency key cost the origin's
    /// PUT and a replica's `Replicate` the same lookup: the record's two
    /// entries walked and the two ids returned.
    #[test]
    fn a_replica_charges_its_local_readers_check_like_its_origin() {
        let mut s = Server::new(addr(0), ClusterConfig::small().with_dcs(2));
        let mut ctx = ScriptCtx::new(addr(0));
        let x = Key(0);
        let x1 = two_old_readers_of(&mut s, &mut ctx, x);
        let charged = |s: &mut Server, ctx: &mut ScriptCtx<Msg>, from: Addr, msg: Msg| {
            let before = ctx.sink.charge;
            s.on_message(ctx, from, msg);
            ctx.sink.charge - before
        };
        let put = Msg::PutReq {
            key: Key(4),
            value: Value::from_static(b"y"),
            deps: vec![(x, x1)],
            lamport: 0,
        };
        let origin = charged(&mut s, &mut ctx, client(), put);
        let y1 = VersionId::new(s.lamport() + 1, DcId(1));
        let replicate = Msg::Replicate {
            key: Key(8),
            value: Value::from_static(b"z"),
            vid: y1,
            deps: vec![(x, x1)],
            lamport: y1.ts,
            birth: 0,
        };
        let from = Addr::server(DcId(1), PartitionId(0));
        let replica = charged(&mut s, &mut ctx, from, replicate);
        assert_eq!(origin, 2 * 100 + 2 * 150);
        assert_eq!(replica, origin);
        assert_eq!(s.store().latest(Key(8)).unwrap().vid, y1);
    }

    /// A replica whose own partition lacks a dependency parks a
    /// self-addressed waiter and sends nothing; the dependency's install
    /// answers it in that step, and only then does the replica install.
    #[test]
    fn a_replica_waits_on_itself_for_a_local_dependency() {
        let cfg = ClusterConfig::small().with_dcs(2);
        let here = Addr::server(DcId(1), PartitionId(0));
        let origin = Addr::server(DcId(0), PartitionId(0));
        let mut s = Server::new(here, cfg);
        let mut ctx = ScriptCtx::new(here);
        ctx.sink.tracing = true;
        let (x, y) = (Key(0), Key(4)); // both on partition 0
        let x1 = VersionId::new(10, DcId(0));
        let y1 = VersionId::new(11, DcId(0));
        let replicate = |key, vid, deps| Msg::Replicate {
            key,
            value: Value::from_static(b"v"),
            vid,
            deps,
            lamport: vid.ts,
            birth: 0,
        };
        s.on_message(&mut ctx, origin, replicate(y, y1, vec![(x, x1)]));
        assert!(s.store().latest(y).is_none(), "Y1 waits for X1");
        assert!(s.has_pending_checks());
        assert!(ctx.drain_sent().is_empty(), "the waiter is self-addressed");
        s.on_message(&mut ctx, origin, replicate(x, x1, vec![]));
        assert_eq!(s.store().latest(x).unwrap().vid, x1);
        assert_eq!(s.store().latest(y).unwrap().vid, y1);
        assert!(!s.has_pending_checks());
        assert!(ctx.drain_sent().is_empty());
        let kinds: Vec<TraceKind> = ctx.node.trace.drain().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, [TraceKind::Park, TraceKind::Unpark]);
        assert_eq!(ctx.sink.metrics.block_ns.count(), 0, "no client blocked");
    }

    /// In the origin DC a peer's `ReadersCheck` is answered in the step
    /// that receives it: a client's dependencies are installed there.
    #[test]
    fn a_readers_check_from_the_origin_dc_is_answered_in_the_same_step() {
        let (mut s0, mut s1) = (server(0), server(1));
        let (mut ctx0, mut ctx1) = (ScriptCtx::new(addr(0)), ScriptCtx::new(addr(1)));
        let x = Key(1); // partition 1
        let x1 = two_old_readers_of(&mut s1, &mut ctx1, x);
        s0.on_message(
            &mut ctx0,
            client(),
            Msg::PutReq {
                key: Key(0),
                value: Value::from_static(b"y"),
                deps: vec![(x, x1)],
                lamport: 0,
            },
        );
        let [check] = &ctx0.drain_to(addr(1))[..] else {
            panic!("one ReadersCheck to partition 1")
        };
        s1.on_message(&mut ctx1, addr(0), check.clone());
        let [reply @ Msg::ReadersCheckReply { entries, .. }] = &ctx1.drain_to(addr(0))[..] else {
            panic!("answered in the same step")
        };
        assert_eq!(entries.len(), 2);
        s0.on_message(&mut ctx0, addr(1), reply.clone());
        assert!(matches!(ctx0.drain_to(client())[..], [Msg::PutResp { .. }]));
        assert!(s0
            .store()
            .latest(Key(0))
            .unwrap()
            .meta
            .bound(tx(1, 0))
            .is_some());
    }

    /// An install of a replicated update counts one replica check and
    /// none of Figure 6's: those count the origin's PUTs only.
    #[test]
    fn a_replica_install_counts_a_replica_check_not_a_put_check() {
        let mut s = Server::new(addr(0), ClusterConfig::small().with_dcs(2));
        let mut ctx = ScriptCtx::new(addr(0));
        ctx.sink.metrics.enabled = true;
        let x1 = two_old_readers_of(&mut s, &mut ctx, Key(0));
        let (puts, ids) = (
            ctx.sink.metrics.counter(stats::CHECKS),
            ctx.sink.metrics.counter(stats::BLOCK_RECORD_IDS),
        );
        s.on_message(
            &mut ctx,
            Addr::server(DcId(1), PartitionId(0)),
            Msg::Replicate {
                key: Key(4),
                value: Value::from_static(b"y"),
                vid: VersionId::new(50, DcId(1)),
                deps: vec![(Key(0), x1)],
                lamport: 50,
                birth: 0,
            },
        );
        let m = &ctx.sink.metrics;
        assert_eq!(m.counter(stats::REPL_CHECKS), 1);
        assert_eq!(m.counter(stats::CHECKS), puts);
        assert_eq!(m.counter(stats::CHECK_IDS_CUM), 0);
        assert_eq!(m.counter(stats::BLOCK_RECORD_IDS), ids + 2);
        assert_eq!(s.lamport(), 51, "the replica's stamp is merged");
    }
}
