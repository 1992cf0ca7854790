//! The snapshot server: the one storage-server state machine (one per
//! partition per DC) behind Contrarian, Cure and Okapi.
//!
//! The paper presents Contrarian as the Cure design with the physical clock
//! swapped for an HLC, and Okapi is Contrarian with a scalar stable time. So
//! there is one server, [`SnapshotServer`], and a backend states two
//! decisions and nothing else:
//!
//! * **the timestamp source** — a [`ServerClock`]: [`HlcClock`] (Contrarian,
//!   Okapi) jumps forward to any timestamp it is shown; a physical clock
//!   (Cure) cannot, and makes the request wait instead;
//! * **the stable-time shape** — [`Flavor::stable`]: a snapshot's remote
//!   entries start from the GSS itself (Contrarian, Cure) or from its minimum
//!   applied to every DC (Okapi's universal stable time).
//!
//! PUT, the three ROT entry points, the one-version read loop, replication,
//! stabilization, heartbeat, GC *and their virtual costs* are written once,
//! here: every flavor pays 10 µs per key a 1½-round coordinator reads itself
//! and 200 ns per version a GC sweep drops (the hand-written Okapi and Cure
//! servers this replaced had each lost one of the two charges).
//!
//! # Blocking: the `Err(wait_ns)` contract
//!
//! A [`ServerClock`] method returning `Err(wait_ns)` says "this clock cannot
//! be pushed; ask again in `wait_ns`" and must have changed nothing. The
//! skeleton parks the request and, when [`timers::RESUME`] fires, hands it to
//! [`ProtocolServer::on_message`] again; the handler runs from the top and
//! may park again. An HLC never returns `Err`, so for Contrarian and Okapi
//! those arms compile away. The fold relies on three invariants:
//!
//! * a parked request is re-dispatched as the message it arrived as, every
//!   field intact (one rewrite: a coordinator's `RotFwd` parks as a `RotRead`
//!   from the client, which is how it is served anyway);
//! * a physical clock's snapshot reads the clock without counting as an
//!   issued timestamp — only PUTs advance Cure's `last_ts`;
//! * the snapshot's local entry is *set* to the fresh timestamp `ts`. Okapi
//!   used to *raise* it over the stable time already in the slot; the two
//!   agree because a session's `gss[local] ≤ lts < ts` and the stable time
//!   never passes this partition's own clock.

use crate::msg::Msg;
use crate::spec::Contrarian;
use contrarian_clock::{hlc, Hlc, PhysicalClockModel};
use contrarian_protocol::{peer_replicas, timers, Parked, ProtocolServer, Stabilizer, Timers};
use contrarian_runtime::actor::{ActorCtx, TimerKind};
use contrarian_runtime::SimMessage;
use contrarian_storage::{MvStore, Version};
use contrarian_types::{
    Addr, ClusterConfig, DcId, DepVector, HeapCensus, Key, PartitionId, TraceKind, TxId, Value,
    VersionId,
};

/// A server's timestamp source. Every method takes true time `now` (ns);
/// `Err(wait_ns)` means the clock cannot be pushed and the request must be
/// retried after `wait_ns` (see the module docs).
pub trait ServerClock: From<PhysicalClockModel> {
    /// The timestamp of a new version, strictly past `floor` (the client's
    /// causal past) and past every timestamp issued before.
    fn stamp_put(&mut self, now: u64, floor: u64) -> Result<u64, u64>;

    /// The local entry of a new snapshot, strictly past `lts` (the latest
    /// local timestamp the session has seen).
    fn stamp_snapshot(&mut self, now: u64, lts: u64) -> Result<u64, u64>;

    /// Admits a read at local snapshot entry `ts`: afterwards no version
    /// can be created at or below `ts`.
    fn admit_read(&mut self, now: u64, ts: u64) -> Result<(), u64>;

    /// The current reading, without creating an event (stabilization and
    /// heartbeats: an idle partition must not hold the GSS back).
    fn peek(&self, now: u64) -> u64;
}

/// What a backend decides: its clock and the shape of its stable time.
pub trait Flavor {
    type Clock: ServerClock;

    /// The remote snapshot entries to start from, given the DC's GSS. The
    /// skeleton joins the client's view in and sets the local entry.
    fn stable(gss: &DepVector) -> DepVector;
}

/// A hybrid logical clock over a skewed physical clock: jumps forward to
/// whatever it is shown, so it never makes a request wait.
pub struct HlcClock {
    hlc: Hlc,
    phys: PhysicalClockModel,
}

impl From<PhysicalClockModel> for HlcClock {
    fn from(phys: PhysicalClockModel) -> Self {
        HlcClock {
            hlc: Hlc::new(),
            phys,
        }
    }
}

impl ServerClock for HlcClock {
    fn stamp_put(&mut self, now: u64, floor: u64) -> Result<u64, u64> {
        Ok(self.hlc.update(self.phys.now_us(now), floor))
    }

    fn stamp_snapshot(&mut self, now: u64, lts: u64) -> Result<u64, u64> {
        Ok(self.hlc.update(self.phys.now_us(now), lts))
    }

    fn admit_read(&mut self, _now: u64, ts: u64) -> Result<(), u64> {
        self.hlc.advance_to(ts);
        Ok(())
    }

    fn peek(&self, now: u64) -> u64 {
        self.hlc.peek(self.phys.now_us(now))
    }
}

/// Contrarian: HLC timestamps, the full GSS vector as stable time.
impl Flavor for Contrarian {
    type Clock = HlcClock;

    fn stable(gss: &DepVector) -> DepVector {
        gss.clone()
    }
}

/// The Contrarian storage server.
pub type Server = SnapshotServer<Contrarian>;

/// Per-partition server state: the flavor's `clock`; `stab`, the shared
/// stabilization state (version vector, aggregation table and the DC-wide
/// Global Stable Snapshot — remote versions are visible iff `DV ≤ GSS`); and
/// the requests `parked` until the clock admits them, as `(sender, request)`.
pub struct SnapshotServer<F: Flavor> {
    addr: Addr,
    cfg: ClusterConfig,
    my_dc: usize,
    clock: F::Clock,
    store: MvStore<DepVector>,
    stab: Stabilizer,
    parked: Parked<(Addr, Msg)>,
    timers: Timers,
}

impl<F: Flavor> SnapshotServer<F> {
    pub fn new(addr: Addr, cfg: ClusterConfig, phys: PhysicalClockModel) -> Self {
        SnapshotServer {
            addr,
            my_dc: addr.dc.index(),
            clock: phys.into(),
            store: MvStore::new(),
            stab: Stabilizer::new(addr, &cfg),
            parked: Parked::new(),
            timers: Timers::replication_server(addr, &cfg),
            cfg,
        }
    }

    pub fn store(&self) -> &MvStore<DepVector> {
        &self.store
    }

    pub fn gss(&self) -> &DepVector {
        self.stab.gss()
    }

    pub fn vv(&self) -> &DepVector {
        self.stab.vv()
    }

    /// Parks `msg` (as sent by `from`) until the clock may admit it.
    fn park(&mut self, ctx: &mut dyn ActorCtx<Msg>, wait: u64, from: Addr, msg: Msg) {
        if ctx.tracing() {
            ctx.trace(TraceKind::Park, 0, self.parked.len() as u64);
        }
        self.parked.park(ctx, wait, (from, msg));
    }

    /// RESUME tick: re-dispatches every request whose wait is over.
    fn resume(&mut self, ctx: &mut dyn ActorCtx<Msg>) {
        for (waited, (from, msg)) in self.parked.take_due(ctx.now()) {
            ctx.metrics().blocked(waited);
            if ctx.tracing() {
                ctx.trace(TraceKind::Unpark, 0, waited);
            }
            self.on_message(ctx, from, msg);
        }
    }

    /// PUT: timestamp strictly past the client's causal past, build the
    /// dependency vector, install, reply, replicate.
    fn handle_put(
        &mut self,
        ctx: &mut dyn ActorCtx<Msg>,
        client: Addr,
        key: Key,
        value: Value,
        lts: u64,
        client_gss: DepVector,
    ) {
        // DV's remote entries: the freshest causally complete remote
        // snapshot either side has seen.
        let mut dv = self.stab.gss().joined(&client_gss);
        // The version's timestamp must dominate the client's causal past:
        // both its last observed local timestamp and every remote entry
        // (DV[s] is "enforced to be higher than any other entry", §4).
        let now = ctx.now();
        let ts = match self.clock.stamp_put(now, lts.max(dv.max_entry())) {
            Ok(ts) => ts,
            Err(wait) => {
                let req = Msg::PutReq {
                    key,
                    value,
                    lts,
                    gss: client_gss,
                };
                return self.park(ctx, wait, client, req);
            }
        };
        dv.set(self.my_dc, ts);
        self.stab.record_local(ts);
        let vid = VersionId::new(ts, self.addr.dc);
        self.store.put(
            key,
            Version::new(vid, value.clone(), dv.clone()).with_birth(now),
        );

        ctx.send(
            client,
            Msg::PutResp {
                key,
                vid,
                gss: self.stab.gss().clone(),
            },
        );

        if self.cfg.n_dcs > 1 {
            self.stab.note_replication_sent(now);
            for peer in peer_replicas(self.addr, self.cfg.n_dcs) {
                ctx.send(
                    peer,
                    Msg::Replicate {
                        key,
                        value: value.clone(),
                        dv: dv.clone(),
                        origin: self.addr.dc,
                        birth: now,
                    },
                );
            }
        }
    }

    /// Computes the snapshot vector for a ROT (coordinator role): local
    /// entry from the clock ∨ client timestamp, remote entries from the
    /// flavor's stable time ∨ the client's GSS view.
    fn snapshot_vector(
        &mut self,
        now: u64,
        lts: u64,
        client_gss: &DepVector,
    ) -> Result<DepVector, u64> {
        let ts = self.clock.stamp_snapshot(now, lts)?;
        let mut sv = F::stable(self.stab.gss());
        sv.join(client_gss);
        sv.set(self.my_dc, ts);
        Ok(sv)
    }

    /// 1½-round ROT: pick the snapshot, serve own keys, forward the rest;
    /// the other partitions answer the client directly (3 steps total).
    fn handle_rot_req(
        &mut self,
        ctx: &mut dyn ActorCtx<Msg>,
        client: Addr,
        tx: TxId,
        keys: Vec<Key>,
        lts: u64,
        gss: DepVector,
    ) {
        let sv = match self.snapshot_vector(ctx.now(), lts, &gss) {
            Ok(sv) => sv,
            Err(wait) => return self.park(ctx, wait, client, Msg::RotReq { tx, keys, lts, gss }),
        };
        let n = self.cfg.n_partitions;
        // Group keys by partition, preserving deterministic order.
        let mut groups: std::collections::BTreeMap<u16, Vec<Key>> = Default::default();
        for k in keys {
            groups.entry(k.partition(n).0).or_default().push(k);
        }
        let mut own: Vec<Key> = Vec::new();
        for (p, ks) in groups {
            if p == self.addr.idx {
                own = ks;
            } else {
                let peer = Addr::server(self.addr.dc, PartitionId(p));
                ctx.send(
                    peer,
                    Msg::RotFwd {
                        tx,
                        client,
                        keys: ks,
                        sv: sv.clone(),
                    },
                );
            }
        }
        if !own.is_empty() {
            // The coordinator's own reads are not part of its rx_extra
            // (which only covers snapshot computation), so charge them here.
            // The snapshot's local entry is this clock's own reading: no
            // admission needed.
            ctx.charge(own.len() as u64 * 10_000);
            let pairs = self.read_snapshot(ctx, &own, &sv);
            ctx.send(client, Msg::RotSlice { tx, pairs, sv });
        }
    }

    /// 2-round ROT, first round: just the snapshot vector.
    fn handle_snap_req(
        &mut self,
        ctx: &mut dyn ActorCtx<Msg>,
        client: Addr,
        tx: TxId,
        lts: u64,
        gss: DepVector,
    ) {
        match self.snapshot_vector(ctx.now(), lts, &gss) {
            Ok(sv) => ctx.send(client, Msg::RotSnap { tx, sv }),
            Err(wait) => self.park(ctx, wait, client, Msg::RotSnapReq { tx, lts, gss }),
        }
    }

    /// Serves a read under a snapshot (2-round second phase, or a 1½-round
    /// forward) once the clock admits the snapshot's local entry: an HLC
    /// jumps to it, a physical clock waits until it has passed.
    fn handle_read(
        &mut self,
        ctx: &mut dyn ActorCtx<Msg>,
        client: Addr,
        tx: TxId,
        keys: Vec<Key>,
        sv: DepVector,
    ) {
        if let Err(wait) = self.clock.admit_read(ctx.now(), sv[self.my_dc]) {
            return self.park(ctx, wait, client, Msg::RotRead { tx, keys, sv });
        }
        let pairs = self.read_snapshot(ctx, &keys, &sv);
        ctx.send(client, Msg::RotSlice { tx, pairs, sv });
    }

    /// One-version reads: for each key, the freshest version with `DV ≤ SV`.
    /// On a prepopulated platform a key with no matching version serves the
    /// genesis version (in every snapshot by construction).
    fn read_snapshot(
        &self,
        ctx: &mut dyn ActorCtx<Msg>,
        keys: &[Key],
        sv: &DepVector,
    ) -> Vec<(Key, Option<(VersionId, Value)>)> {
        let mut out = Vec::with_capacity(keys.len());
        let mut scanned_total = 0;
        for &k in keys {
            let (v, scanned) = self.store.read_visible(k, |ver| ver.meta.leq(sv));
            scanned_total += scanned;
            // Data staleness: the snapshot hides a newer stored version, so
            // this read returns data older than what the node already holds.
            if let Some(head) = self.store.latest(k) {
                if head.birth > 0 && v.map(|ver| ver.vid) != Some(head.vid) {
                    let stale = ctx.now().saturating_sub(head.birth);
                    ctx.metrics().data_stale(stale);
                }
            }
            let pair = match v {
                Some(ver) => Some((ver.vid, ver.value.clone())),
                None if self.cfg.prepopulated => {
                    Some((VersionId::GENESIS, contrarian_types::genesis_value()))
                }
                None => None,
            };
            out.push((k, pair));
        }
        ctx.charge(scanned_total as u64 * 500);
        out
    }

    /// Stabilization tick: the shared [`Stabilizer`] aggregates, joins and
    /// broadcasts; this server contributes its clock reading so an idle
    /// partition does not hold the GSS back.
    fn stabilize(&mut self, ctx: &mut dyn ActorCtx<Msg>) {
        let fresh = self.clock.peek(ctx.now());
        self.stab.stabilize(
            ctx,
            &self.cfg,
            fresh,
            |partition, vv| Msg::VvReport { partition, vv },
            |gss| Msg::GssBcast { gss },
        );
    }

    /// Heartbeat tick: if no replication traffic went out recently, tell the
    /// replicas how far our clock has advanced so their VVs (and hence the
    /// remote GSS entries) keep moving.
    fn heartbeat(&mut self, ctx: &mut dyn ActorCtx<Msg>) {
        let ts = self.clock.peek(ctx.now());
        self.stab
            .heartbeat(ctx, &self.cfg, ts, |origin, ts| Msg::Heartbeat {
                origin,
                ts,
            });
    }

    fn gc(&mut self, ctx: &mut dyn ActorCtx<Msg>) {
        let now_us = ctx.now() / 1000;
        let horizon_us = now_us.saturating_sub(self.cfg.version_gc_retention_us);
        let dropped = self.store.gc_all(hlc::encode(horizon_us, 0), 1);
        ctx.charge(dropped as u64 * 200);
    }
}

impl<F: Flavor> ProtocolServer for SnapshotServer<F> {
    type Msg = Msg;

    fn on_start(&mut self, ctx: &mut dyn ActorCtx<Msg>) {
        self.timers.start(ctx);
    }

    /// Every vector a message carries must hold one entry per DC, every DC
    /// it names as an origin must be another of this cluster's, and a
    /// reporting partition must exist: anything else is counted and
    /// dropped with the client-bound messages.
    fn on_message(&mut self, ctx: &mut dyn ActorCtx<Msg>, from: Addr, msg: Msg) {
        let dcs = self.cfg.n_dcs as usize;
        let remote = |dc: DcId| dc.index() < dcs && dc.index() != self.my_dc;
        match msg {
            Msg::PutReq {
                key,
                value,
                lts,
                gss,
            } if gss.len() == dcs => self.handle_put(ctx, from, key, value, lts, gss),
            Msg::RotReq { tx, keys, lts, gss } if gss.len() == dcs => {
                self.handle_rot_req(ctx, from, tx, keys, lts, gss)
            }
            Msg::RotSnapReq { tx, lts, gss } if gss.len() == dcs => {
                self.handle_snap_req(ctx, from, tx, lts, gss)
            }
            Msg::RotRead { tx, keys, sv } if sv.len() == dcs => {
                self.handle_read(ctx, from, tx, keys, sv)
            }
            Msg::RotFwd {
                tx,
                client,
                keys,
                sv,
            } if sv.len() == dcs => self.handle_read(ctx, client, tx, keys, sv),
            Msg::Replicate {
                key,
                value,
                dv,
                origin,
                birth,
            } if dv.len() == dcs && remote(origin) => {
                let ts = dv[origin.index()];
                self.stab.record_remote(origin, ts);
                if birth > 0 {
                    // Visibility staleness: how long after the origin install
                    // this replica learned of the write.
                    let stale = ctx.now().saturating_sub(birth);
                    ctx.metrics().vis_stale(stale);
                }
                self.store.put(
                    key,
                    Version::new(VersionId::new(ts, origin), value, dv).with_birth(birth),
                );
            }
            Msg::Heartbeat { origin, ts } if remote(origin) => self.stab.record_remote(origin, ts),
            Msg::VvReport { partition, vv }
                if vv.len() == dcs && partition.0 < self.cfg.n_partitions =>
            {
                self.stab.on_vv_report(partition, vv)
            }
            Msg::GssBcast { gss } if gss.len() == dcs => self.stab.on_gss_bcast(&gss),
            // A client-bound message, or one shaped for another cluster:
            // any peer of a live cluster can send one, so it is counted and
            // dropped rather than trusted.
            _ => ctx.metrics().rejected(),
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn ActorCtx<Msg>, kind: TimerKind) {
        match kind.kind {
            timers::RESUME => self.resume(ctx),
            timers::STABILIZE => self.stabilize(ctx),
            timers::HEARTBEAT => self.heartbeat(ctx),
            timers::GC => self.gc(ctx),
            other => unreachable!("unknown server timer {other}"),
        }
        self.timers.rearm(ctx, kind.kind);
    }

    fn store_heads(&self) -> Vec<(Key, VersionId)> {
        self.store.heads()
    }

    /// The store (its index, its slab, and its multi-version chains with
    /// the versions' dependency vectors; items: keys, keys and versions),
    /// the stabilizer's
    /// vectors, the parked requests and the timer table.
    fn heap_census(&self, census: &mut HeapCensus) {
        let store = self.store.heap_bytes(DepVector::heap_bytes);
        census.add("store: index", store.index, self.store.n_keys());
        census.add("store: slab", store.slab, self.store.n_keys());
        census.add(
            "store: chains",
            store.chains + store.meta,
            self.store.n_versions(),
        );
        census.add("stabilizer", self.stab.heap_bytes(), 0);
        census.add(
            "parked requests",
            self.parked.heap_bytes(|(_, m)| m.heap_bytes()),
            self.parked.len(),
        );
        census.add("timers", self.timers.heap_bytes(), 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contrarian_runtime::testkit::ScriptCtx;
    use contrarian_types::{ClientId, DcId, PartitionId, Value};

    fn server(dc: u8, p: u16, n_dcs: u8) -> Server {
        let cfg = ClusterConfig::small().with_dcs(n_dcs);
        Server::new(
            Addr::server(DcId(dc), PartitionId(p)),
            cfg,
            PhysicalClockModel::perfect(),
        )
    }

    fn put(
        s: &mut Server,
        ctx: &mut ScriptCtx<Msg>,
        key: Key,
        lts: u64,
        gss_len: usize,
    ) -> (VersionId, DepVector) {
        let client = Addr::client(DcId(0), 0);
        s.on_message(
            ctx,
            client,
            Msg::PutReq {
                key,
                value: Value::from_static(b"v"),
                lts,
                gss: DepVector::zero(gss_len),
            },
        );
        let resp = ctx.drain_to(client);
        match &resp[0] {
            Msg::PutResp { vid, .. } => {
                let dv = s.store().latest(key).unwrap().meta.clone();
                (*vid, dv)
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// A client-bound message delivered to a server is dropped and
    /// counted; the server stays usable.
    #[test]
    fn a_client_bound_message_is_counted_and_dropped() {
        let mut s = server(0, 0, 1);
        let mut ctx = ScriptCtx::new(Addr::server(DcId(0), PartitionId(0)));
        s.on_message(
            &mut ctx,
            Addr::server(DcId(0), PartitionId(1)),
            Msg::PutResp {
                key: Key(0),
                vid: VersionId::new(1, DcId(0)),
                gss: DepVector::zero(1),
            },
        );
        assert_eq!(ctx.sink.metrics.rejected_msgs, 1);
        assert!(ctx.drain_sent().is_empty());
        assert!(s.store().latest(Key(0)).is_none());
        put(&mut s, &mut ctx, Key(0), 1, 1);
        assert_eq!(ctx.sink.metrics.rejected_msgs, 1);
    }

    #[test]
    fn put_timestamp_dominates_client_past() {
        let mut s = server(0, 0, 1);
        let mut ctx = ScriptCtx::new(Addr::server(DcId(0), PartitionId(0)));
        let (vid, dv) = put(&mut s, &mut ctx, Key(0), 12345, 1);
        assert!(vid.ts > 12345);
        assert_eq!(dv[0], vid.ts);
    }

    #[test]
    fn put_dv_local_entry_dominates_remote_entries() {
        let mut s = server(0, 0, 2);
        let mut ctx = ScriptCtx::new(Addr::server(DcId(0), PartitionId(0)));
        // Pretend the client saw a remote snapshot far in the future.
        let client = Addr::client(DcId(0), 0);
        let mut cgss = DepVector::zero(2);
        cgss.set(1, 1 << 30);
        s.on_message(
            &mut ctx,
            client,
            Msg::PutReq {
                key: Key(0),
                value: Value::new(),
                lts: 0,
                gss: cgss,
            },
        );
        let dv = s.store().latest(Key(0)).unwrap().meta.clone();
        assert!(dv[0] > dv[1], "local entry must dominate: {dv}");
    }

    #[test]
    fn put_replicates_to_every_other_dc() {
        let mut s = server(0, 2, 3);
        let mut ctx = ScriptCtx::new(Addr::server(DcId(0), PartitionId(2)));
        put(&mut s, &mut ctx, Key(2), 0, 3);
        let sent = ctx.drain_sent();
        let repl: Vec<_> = sent
            .iter()
            .filter_map(|(to, m)| matches!(m, Msg::Replicate { .. }).then_some(*to))
            .collect();
        assert_eq!(
            repl,
            vec![
                Addr::server(DcId(1), PartitionId(2)),
                Addr::server(DcId(2), PartitionId(2))
            ]
        );
    }

    #[test]
    fn successive_puts_get_increasing_timestamps() {
        let mut s = server(0, 0, 1);
        let mut ctx = ScriptCtx::new(Addr::server(DcId(0), PartitionId(0)));
        let (v1, _) = put(&mut s, &mut ctx, Key(0), 0, 1);
        let (v2, _) = put(&mut s, &mut ctx, Key(0), 0, 1);
        assert!(v2.ts > v1.ts);
    }

    #[test]
    fn read_is_one_version_within_snapshot() {
        let mut s = server(0, 0, 1);
        let mut ctx = ScriptCtx::new(Addr::server(DcId(0), PartitionId(0)));
        let (v1, _) = put(&mut s, &mut ctx, Key(0), 0, 1);
        let (v2, _) = put(&mut s, &mut ctx, Key(0), 0, 1);
        ctx.drain_sent();
        // Snapshot that includes only v1.
        let client = Addr::client(DcId(0), 0);
        let tx = TxId::new(ClientId::new(DcId(0), 0), 0);
        let mut sv = DepVector::zero(1);
        sv.set(0, v1.ts);
        s.on_message(
            &mut ctx,
            client,
            Msg::RotRead {
                tx,
                keys: vec![Key(0)],
                sv,
            },
        );
        match &ctx.drain_to(client)[0] {
            Msg::RotSlice { pairs, .. } => {
                assert_eq!(pairs.len(), 1);
                assert_eq!(pairs[0].1.as_ref().unwrap().0, v1);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Snapshot that includes v2 returns v2 (freshest within snapshot).
        let mut sv2 = DepVector::zero(1);
        sv2.set(0, v2.ts);
        s.on_message(
            &mut ctx,
            client,
            Msg::RotRead {
                tx,
                keys: vec![Key(0)],
                sv: sv2,
            },
        );
        match &ctx.drain_to(client)[0] {
            Msg::RotSlice { pairs, .. } => assert_eq!(pairs[0].1.as_ref().unwrap().0, v2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn read_in_the_future_is_nonblocking_and_advances_clock() {
        let mut s = server(0, 0, 1);
        let mut ctx = ScriptCtx::new(Addr::server(DcId(0), PartitionId(0)));
        let client = Addr::client(DcId(0), 0);
        let tx = TxId::new(ClientId::new(DcId(0), 0), 0);
        let future = contrarian_clock::hlc::encode(1 << 30, 0);
        let mut sv = DepVector::zero(1);
        sv.set(0, future);
        s.on_message(
            &mut ctx,
            client,
            Msg::RotRead {
                tx,
                keys: vec![Key(0)],
                sv,
            },
        );
        // Reply produced immediately (nonblocking), key absent → ⊥.
        match &ctx.drain_to(client)[0] {
            Msg::RotSlice { pairs, .. } => assert!(pairs[0].1.is_none()),
            other => panic!("unexpected {other:?}"),
        }
        // A later PUT is timestamped past the advanced clock: no version can
        // ever be created below an already-served snapshot.
        let (vid, _) = put(&mut s, &mut ctx, Key(0), 0, 1);
        assert!(vid.ts > future);
    }

    #[test]
    fn remote_version_invisible_until_gss_covers_it() {
        let mut s = server(0, 0, 2);
        let mut ctx = ScriptCtx::new(Addr::server(DcId(0), PartitionId(0)));
        // A remote version from DC1 with dv = [0, 100<<16].
        let ts = contrarian_clock::hlc::encode(100, 0);
        let mut dv = DepVector::zero(2);
        dv.set(1, ts);
        s.on_message(
            &mut ctx,
            Addr::server(DcId(1), PartitionId(0)),
            Msg::Replicate {
                key: Key(0),
                value: Value::from_static(b"r"),
                dv,
                origin: DcId(1),
                birth: 0,
            },
        );
        assert_eq!(s.vv()[1], ts, "vv tracks received replication");
        // Snapshot whose remote entry predates the version: invisible.
        let client = Addr::client(DcId(0), 0);
        let tx = TxId::new(ClientId::new(DcId(0), 0), 0);
        let mut sv = DepVector::zero(2);
        sv.set(0, u64::MAX);
        sv.set(1, ts - 1);
        s.on_message(
            &mut ctx,
            client,
            Msg::RotRead {
                tx,
                keys: vec![Key(0)],
                sv,
            },
        );
        match &ctx.drain_to(client)[0] {
            Msg::RotSlice { pairs, .. } => assert!(pairs[0].1.is_none()),
            other => panic!("unexpected {other:?}"),
        }
        // Snapshot covering it: visible.
        let mut sv2 = DepVector::zero(2);
        sv2.set(0, u64::MAX);
        sv2.set(1, ts);
        s.on_message(
            &mut ctx,
            client,
            Msg::RotRead {
                tx,
                keys: vec![Key(0)],
                sv: sv2,
            },
        );
        match &ctx.drain_to(client)[0] {
            Msg::RotSlice { pairs, .. } => {
                assert_eq!(pairs[0].1.as_ref().unwrap().0, VersionId::new(ts, DcId(1)))
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rot_req_fans_out_and_serves_own_keys() {
        let mut s = server(0, 0, 1);
        let mut ctx = ScriptCtx::new(Addr::server(DcId(0), PartitionId(0)));
        let client = Addr::client(DcId(0), 0);
        let tx = TxId::new(ClientId::new(DcId(0), 0), 0);
        // Keys on partitions 0, 1, 2 (of 4).
        let keys = vec![Key(0), Key(1), Key(2)];
        s.on_message(
            &mut ctx,
            client,
            Msg::RotReq {
                tx,
                keys,
                lts: 0,
                gss: DepVector::zero(1),
            },
        );
        let sent = ctx.drain_sent();
        let fwds: Vec<_> = sent
            .iter()
            .filter(|(_, m)| matches!(m, Msg::RotFwd { .. }))
            .collect();
        let slices: Vec<_> = sent
            .iter()
            .filter(|(_, m)| matches!(m, Msg::RotSlice { .. }))
            .collect();
        assert_eq!(fwds.len(), 2, "two foreign partitions");
        assert_eq!(slices.len(), 1, "own slice straight to the client");
        assert_eq!(slices[0].0, client);
        // All forwards carry the same snapshot vector.
        if let (Msg::RotFwd { sv: a, .. }, Msg::RotFwd { sv: b, .. }) = (&fwds[0].1, &fwds[1].1) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn snapshot_vector_uses_max_of_clock_and_client() {
        let mut s = server(0, 0, 1);
        let mut ctx = ScriptCtx::new(Addr::server(DcId(0), PartitionId(0)));
        let client = Addr::client(DcId(0), 0);
        let tx = TxId::new(ClientId::new(DcId(0), 0), 0);
        let lts = contrarian_clock::hlc::encode(1 << 25, 3);
        s.on_message(
            &mut ctx,
            client,
            Msg::RotSnapReq {
                tx,
                lts,
                gss: DepVector::zero(1),
            },
        );
        match &ctx.drain_to(client)[0] {
            Msg::RotSnap { sv, .. } => assert!(sv[0] > lts),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stabilization_star_round_trip() {
        // Three partitions report; aggregator computes the min and
        // broadcasts; GSS is monotone.
        let cfg = ClusterConfig::small().with_dcs(2).with_partitions(3);
        let agg_addr = Addr::server(DcId(0), PartitionId(0));
        let mut agg = Server::new(agg_addr, cfg.clone(), PhysicalClockModel::perfect());
        let mut ctx = ScriptCtx::new(agg_addr);

        let report = |p: u16, remote: u64| Msg::VvReport {
            partition: PartitionId(p),
            vv: DepVector::from_vec(vec![0, remote]),
        };
        agg.on_message(
            &mut ctx,
            Addr::server(DcId(0), PartitionId(1)),
            report(1, 50),
        );
        agg.on_message(
            &mut ctx,
            Addr::server(DcId(0), PartitionId(2)),
            report(2, 80),
        );
        ctx.now = (cfg.stabilization_interval_us + 1) * 1000;
        agg.stab.vv.raise(1, 60); // the aggregator's own remote entry
        agg.on_timer(&mut ctx, TimerKind::new(timers::STABILIZE));
        // GSS remote entry = min(50, 80, 60) = 50.
        assert_eq!(agg.gss()[1], 50);
        let sent = ctx.drain_sent();
        let bcasts: Vec<_> = sent
            .iter()
            .filter(|(_, m)| matches!(m, Msg::GssBcast { .. }))
            .collect();
        assert_eq!(bcasts.len(), 2);
    }

    #[test]
    fn gss_never_regresses() {
        let mut s = server(0, 1, 2);
        let mut ctx = ScriptCtx::new(Addr::server(DcId(0), PartitionId(1)));
        let agg = Addr::server(DcId(0), PartitionId(0));
        s.on_message(
            &mut ctx,
            agg,
            Msg::GssBcast {
                gss: DepVector::from_vec(vec![10, 90]),
            },
        );
        s.on_message(
            &mut ctx,
            agg,
            Msg::GssBcast {
                gss: DepVector::from_vec(vec![5, 100]),
            },
        );
        assert_eq!(s.gss().as_slice(), &[10, 100]);
    }

    #[test]
    fn heartbeat_suppressed_by_recent_replication() {
        let mut s = server(0, 0, 2);
        let mut ctx = ScriptCtx::new(Addr::server(DcId(0), PartitionId(0)));
        put(&mut s, &mut ctx, Key(0), 0, 2); // sends Replicate, stamps the stabilizer
        ctx.drain_sent();
        ctx.now = 100; // still within the heartbeat interval
        s.on_timer(&mut ctx, TimerKind::new(timers::HEARTBEAT));
        assert!(ctx
            .drain_sent()
            .iter()
            .all(|(_, m)| !matches!(m, Msg::Heartbeat { .. })));
        // After a long idle period the heartbeat flows.
        ctx.now = 10_000_000_000;
        s.on_timer(&mut ctx, TimerKind::new(timers::HEARTBEAT));
        let hbs = ctx.drain_sent();
        assert_eq!(
            hbs.iter()
                .filter(|(_, m)| matches!(m, Msg::Heartbeat { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn gc_prunes_old_versions_but_keeps_head() {
        let mut s = server(0, 0, 1);
        let mut ctx = ScriptCtx::new(Addr::server(DcId(0), PartitionId(0)));
        for _ in 0..5 {
            put(&mut s, &mut ctx, Key(0), 0, 1);
        }
        assert_eq!(s.store().chain(Key(0)).unwrap().len(), 5);
        // Far in the future, everything but the head is past retention.
        ctx.now = 3_600_000_000_000;
        s.on_timer(&mut ctx, TimerKind::new(timers::GC));
        assert_eq!(s.store().chain(Key(0)).unwrap().len(), 1);
    }

    #[test]
    fn store_heads_reports_lww_winners() {
        let mut s = server(0, 0, 1);
        let mut ctx = ScriptCtx::new(Addr::server(DcId(0), PartitionId(0)));
        let (_v1, _) = put(&mut s, &mut ctx, Key(0), 0, 1);
        let (v2, _) = put(&mut s, &mut ctx, Key(0), 0, 1);
        let (v3, _) = put(&mut s, &mut ctx, Key(4), 0, 1);
        let mut heads = s.store_heads();
        heads.sort_unstable();
        assert_eq!(heads, vec![(Key(0), v2), (Key(4), v3)]);
    }
}
