//! The Contrarian client session, reused by Cure and Okapi: the highest
//! *local* timestamp observed (`lts`) and the highest GSS observed,
//! piggybacked on every request so the client observes monotonically
//! increasing snapshots (Figure 3 caption).

use crate::msg::Msg;
use contrarian_protocol::client::by_partition;
use contrarian_protocol::{Inbound, ReadPair, Session};
use contrarian_runtime::actor::ActorCtx;
use contrarian_types::{
    Addr, ClusterConfig, DcId, DepVector, Key, PartitionId, RotMode, TxId, Value, VersionId,
};
use rand::RngExt;

/// The snapshot family's session metadata.
pub struct SnapshotSession {
    dc: DcId,
    n_partitions: u16,
    rot_mode: RotMode,
    lts: u64,
    gss: DepVector,
    /// The keys of a 2-round ROT waiting for its snapshot.
    snap_keys: Vec<Key>,
}

impl Session for SnapshotSession {
    type Msg = Msg;
    /// A snapshot or GSS vector.
    type Meta = DepVector;

    fn new(addr: Addr, cfg: &ClusterConfig) -> Self {
        SnapshotSession {
            dc: addr.dc,
            n_partitions: cfg.n_partitions,
            rot_mode: cfg.rot_mode,
            lts: 0,
            gss: DepVector::zero(cfg.n_dcs as usize),
            snap_keys: Vec::new(),
        }
    }

    fn inbound(msg: Msg) -> Inbound<DepVector> {
        match msg {
            Msg::Inject(op) => Inbound::Inject(op),
            Msg::RotSnap { tx, sv } => Inbound::Snapshot(tx, sv),
            Msg::RotSlice { tx, pairs, sv } => Inbound::Slice(tx, pairs, sv),
            Msg::PutResp { key, vid, gss } => Inbound::PutAck(key, vid, gss),
            other => unreachable!("server-bound message at client: {other:?}"),
        }
    }

    fn send_put(&mut self, ctx: &mut dyn ActorCtx<Msg>, key: Key, value: Value) {
        let to = Addr::server(self.dc, key.partition(self.n_partitions));
        let (lts, gss) = (self.lts, self.gss.clone());
        ctx.send(
            to,
            Msg::PutReq {
                key,
                value,
                lts,
                gss,
            },
        );
    }

    fn send_rot(&mut self, ctx: &mut dyn ActorCtx<Msg>, tx: TxId, keys: Vec<Key>) -> usize {
        let mut parts: Vec<PartitionId> = keys
            .iter()
            .map(|k| k.partition(self.n_partitions))
            .collect();
        parts.sort_unstable();
        parts.dedup();
        // Any involved partition can coordinate; pick one at random.
        let coord = Addr::server(self.dc, parts[ctx.rng().random_range(0..parts.len())]);
        let (lts, gss) = (self.lts, self.gss.clone());
        match self.rot_mode {
            RotMode::OneHalfRound => {
                ctx.send(coord, Msg::RotReq { tx, keys, lts, gss });
                parts.len()
            }
            RotMode::TwoRound => {
                ctx.send(coord, Msg::RotSnapReq { tx, lts, gss });
                self.snap_keys = keys;
                0
            }
        }
    }

    /// The client fans the reads out itself (Figure 3b).
    fn send_reads(&mut self, ctx: &mut dyn ActorCtx<Msg>, tx: TxId, sv: DepVector) -> usize {
        let groups = by_partition(&std::mem::take(&mut self.snap_keys), self.n_partitions);
        let expect = groups.len();
        for (p, keys) in groups {
            let sv = sv.clone();
            ctx.send(
                Addr::server(self.dc, PartitionId(p)),
                Msg::RotRead { tx, keys, sv },
            );
        }
        expect
    }

    /// A completed ROT absorbs its last slice's snapshot.
    fn absorb_slice(&mut self, sv: DepVector, done: Option<&[ReadPair]>) {
        if done.is_some() {
            self.lts = self.lts.max(sv[self.dc.index()]);
            self.gss.join(&sv);
        }
    }

    fn absorb_put(&mut self, _key: Key, vid: VersionId, gss: DepVector) {
        self.lts = self.lts.max(vid.ts);
        self.gss.join(&gss);
    }

    fn heap_bytes(&self) -> usize {
        self.gss.heap_bytes() + contrarian_types::heap::vec_bytes(&self.snap_keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;
    use contrarian_protocol::timers::CLIENT_START;
    use contrarian_runtime::actor::TimerKind;
    use contrarian_runtime::testkit::ScriptCtx;
    use contrarian_types::{HistoryEvent, Op};
    use contrarian_workload::{ClientDriver, OpSource, WorkloadSpec, Zipf};
    use std::sync::Arc;

    fn client(mode: RotMode) -> (Client, ScriptCtx<Msg>) {
        let cfg = ClusterConfig::small().with_rot_mode(mode);
        let addr = Addr::client(DcId(0), 0);
        (Client::new(addr, &cfg, None), ScriptCtx::new(addr))
    }

    /// The `lts` the next PUT carries.
    fn next_put_lts(c: &mut Client, ctx: &mut ScriptCtx<Msg>) -> u64 {
        let me = ctx.node.addr;
        c.on_message(ctx, me, Msg::Inject(Op::Put(Key(9), Value::new())));
        match ctx.drain_sent().pop() {
            Some((_, Msg::PutReq { lts, .. })) => lts,
            other => panic!("unexpected {other:?}"),
        }
    }

    fn slice_for(tx: TxId, key: Key, ts: u64, sv_local: u64) -> Msg {
        let mut sv = DepVector::zero(1);
        sv.set(0, sv_local);
        Msg::RotSlice {
            tx,
            pairs: vec![(
                key,
                Some((VersionId::new(ts, DcId(0)), Value::from_static(b"v"))),
            )],
            sv,
        }
    }

    #[test]
    fn one_half_round_sends_single_request_to_coordinator() {
        let (mut c, mut ctx) = client(RotMode::OneHalfRound);
        let a = ctx.node.addr;
        c.on_message(
            &mut ctx,
            a,
            Msg::Inject(Op::Rot(vec![Key(0), Key(1), Key(2)])),
        );
        let sent = ctx.drain_sent();
        assert_eq!(sent.len(), 1);
        let (to, m) = &sent[0];
        assert!(to.is_server());
        match m {
            Msg::RotReq { keys, .. } => assert_eq!(keys.len(), 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn two_round_snap_then_reads() {
        let (mut c, mut ctx) = client(RotMode::TwoRound);
        let a = ctx.node.addr;
        c.on_message(&mut ctx, a, Msg::Inject(Op::Rot(vec![Key(0), Key(1)])));
        let sent = ctx.drain_sent();
        let tx = match &sent[0].1 {
            Msg::RotSnapReq { tx, .. } => *tx,
            other => panic!("unexpected {other:?}"),
        };
        // Deliver the snapshot: client fans out reads itself.
        let mut sv = DepVector::zero(1);
        sv.set(0, 77);
        c.on_message(&mut ctx, sent[0].0, Msg::RotSnap { tx, sv });
        let reads = ctx.drain_sent();
        assert_eq!(reads.len(), 2, "one RotRead per involved partition");
        for (_, m) in &reads {
            match m {
                Msg::RotRead { sv, .. } => assert_eq!(sv[0], 77),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn rot_completes_after_all_slices_and_session_advances() {
        let (mut c, mut ctx) = client(RotMode::OneHalfRound);
        ctx.sink.metrics.enabled = true;
        let a = ctx.node.addr;
        c.on_message(&mut ctx, a, Msg::Inject(Op::Rot(vec![Key(0), Key(1)])));
        let tx = TxId::new(a.client_id(), 0);
        let from = Addr::server(DcId(0), PartitionId(0));
        c.on_message(&mut ctx, from, slice_for(tx, Key(0), 10, 99));
        assert_eq!(
            ctx.sink.metrics.rots_done, 0,
            "still waiting for partition 1"
        );
        c.on_message(&mut ctx, from, slice_for(tx, Key(1), 11, 99));
        assert_eq!(ctx.sink.metrics.rots_done, 1);
        assert_eq!(ctx.sink.history.len(), 1);
        match &ctx.sink.history[0].ev {
            HistoryEvent::RotDone { pairs, .. } => assert_eq!(pairs.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            next_put_lts(&mut c, &mut ctx),
            99,
            "lts absorbed the snapshot"
        );
    }

    #[test]
    fn a_rot_absorbs_its_last_slice_snapshot_at_completion() {
        let (mut c, mut ctx) = client(RotMode::OneHalfRound);
        let a = ctx.node.addr;
        c.on_message(&mut ctx, a, Msg::Inject(Op::Rot(vec![Key(0), Key(1)])));
        let tx = TxId::new(a.client_id(), 0);
        let from = Addr::server(DcId(0), PartitionId(0));
        c.on_message(&mut ctx, from, slice_for(tx, Key(0), 10, 99));
        c.on_message(&mut ctx, from, slice_for(tx, Key(1), 11, 50));
        assert_eq!(next_put_lts(&mut c, &mut ctx), 50);
    }

    #[test]
    fn put_carries_session_and_updates_it() {
        let (mut c, mut ctx) = client(RotMode::OneHalfRound);
        ctx.sink.metrics.enabled = true;
        let a = ctx.node.addr;
        // A ROT under a snapshot at 55 raises the session first.
        c.on_message(&mut ctx, a, Msg::Inject(Op::Rot(vec![Key(0)])));
        let from = Addr::server(DcId(0), PartitionId(0));
        let tx = TxId::new(a.client_id(), 0);
        c.on_message(&mut ctx, from, slice_for(tx, Key(0), 10, 55));
        ctx.drain_sent();
        c.on_message(
            &mut ctx,
            a,
            Msg::Inject(Op::Put(Key(3), Value::from_static(b"x"))),
        );
        let sent = ctx.drain_sent();
        match &sent[0].1 {
            Msg::PutReq { lts, .. } => assert_eq!(*lts, 55),
            other => panic!("unexpected {other:?}"),
        }
        // Partition of Key(3) with N=4 is 3.
        assert_eq!(sent[0].0, Addr::server(DcId(0), PartitionId(3)));
        c.on_message(
            &mut ctx,
            sent[0].0,
            Msg::PutResp {
                key: Key(3),
                vid: VersionId::new(200, DcId(0)),
                gss: DepVector::zero(1),
            },
        );
        assert_eq!(ctx.sink.metrics.puts_done, 1);
        assert_eq!(next_put_lts(&mut c, &mut ctx), 200);
    }

    #[test]
    fn closed_loop_reissues_after_completion() {
        let cfg = ClusterConfig::small();
        let addr = Addr::client(DcId(0), 0);
        let driver = ClientDriver::new(
            WorkloadSpec::paper_default().with_rot_size(2),
            Arc::new(Zipf::new(64, 0.99)),
            cfg.n_partitions,
        );
        let mut c = Client::new(addr, &cfg, Some(OpSource::Closed(driver)));
        let mut ctx = ScriptCtx::new(addr);
        c.on_timer(&mut ctx, TimerKind::new(CLIENT_START));
        let first = ctx.drain_sent();
        assert!(!first.is_empty(), "closed loop issues immediately");
    }

    #[test]
    fn stopped_closed_loop_goes_idle() {
        let cfg = ClusterConfig::small();
        let addr = Addr::client(DcId(0), 0);
        let driver = ClientDriver::new(
            WorkloadSpec::paper_default().with_rot_size(2),
            Arc::new(Zipf::new(64, 0.99)),
            cfg.n_partitions,
        );
        let mut c = Client::new(addr, &cfg, Some(OpSource::Closed(driver)));
        let mut ctx = ScriptCtx::new(addr);
        ctx.sink.stopped = true;
        c.on_timer(&mut ctx, TimerKind::new(CLIENT_START));
        assert!(ctx.drain_sent().is_empty());
    }

    #[test]
    fn monotonic_snapshots_across_rots() {
        let (mut c, mut ctx) = client(RotMode::OneHalfRound);
        let a = ctx.node.addr;
        c.on_message(&mut ctx, a, Msg::Inject(Op::Rot(vec![Key(0)])));
        ctx.drain_sent();
        let tx0 = TxId::new(a.client_id(), 0);
        let from = Addr::server(DcId(0), PartitionId(0));
        c.on_message(&mut ctx, from, slice_for(tx0, Key(0), 10, 100));
        // Next ROT must carry lts = 100.
        let a = ctx.node.addr;
        c.on_message(&mut ctx, a, Msg::Inject(Op::Rot(vec![Key(0)])));
        let sent = ctx.drain_sent();
        let req = sent.iter().find_map(|(_, m)| match m {
            Msg::RotReq { lts, .. } => Some(*lts),
            _ => None,
        });
        assert_eq!(req, Some(100));
    }
}
