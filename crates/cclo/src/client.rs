//! The CC-LO client session: COPS-style explicit dependency tracking.

use crate::msg::Msg;
use contrarian_protocol::client::by_partition;
use contrarian_protocol::{Inbound, ReadPair, Session};
use contrarian_runtime::actor::ActorCtx;
use contrarian_types::{Addr, ClusterConfig, DcId, Key, PartitionId, TxId, Value, VersionId};
use std::collections::BTreeMap;

/// CC-LO's session metadata: a Lamport clock and the dependency list.
///
/// `deps` is the COPS dependency list: one entry per key read since the
/// client's previous PUT, plus that PUT itself. After a PUT completes, the
/// new version subsumes the accumulated dependencies (its readers check
/// covered them), so the list collapses to the single new version — this is
/// why the paper's default workload yields ~20 dependency keys per PUT
/// (~4.75 ROTs × 4 keys + 1).
pub struct DepSession {
    dc: DcId,
    n_partitions: u16,
    lamport: u64,
    // BTreeMap so the dependency list serializes in key order without a
    // sort — message bytes must be engine-independent.
    deps: BTreeMap<Key, VersionId>,
}

impl Session for DepSession {
    type Msg = Msg;
    /// A Lamport clock.
    type Meta = u64;

    fn new(addr: Addr, cfg: &ClusterConfig) -> Self {
        DepSession {
            dc: addr.dc,
            n_partitions: cfg.n_partitions,
            lamport: 0,
            deps: BTreeMap::new(),
        }
    }

    fn inbound(msg: Msg) -> Inbound<u64> {
        match msg {
            Msg::Inject(op) => Inbound::Inject(op),
            Msg::RotSlice { tx, pairs, lamport } => Inbound::Slice(tx, pairs, lamport),
            Msg::PutResp { key, vid, lamport } => Inbound::PutAck(key, vid, lamport),
            other => unreachable!("server-bound message at client: {other:?}"),
        }
    }

    /// Ships everything read since the last PUT, in key order.
    fn send_put(&mut self, ctx: &mut dyn ActorCtx<Msg>, key: Key, value: Value) {
        let to = Addr::server(self.dc, key.partition(self.n_partitions));
        let deps = self.deps.iter().map(|(k, v)| (*k, *v)).collect();
        let lamport = self.lamport;
        ctx.send(
            to,
            Msg::PutReq {
                key,
                value,
                deps,
                lamport,
            },
        );
    }

    /// One round: a read request straight to every involved partition.
    fn send_rot(&mut self, ctx: &mut dyn ActorCtx<Msg>, tx: TxId, keys: Vec<Key>) -> usize {
        let groups = by_partition(&keys, self.n_partitions);
        let (expect, lamport) = (groups.len(), self.lamport);
        for (p, keys) in groups {
            ctx.send(
                Addr::server(self.dc, PartitionId(p)),
                Msg::RotRead { tx, keys, lamport },
            );
        }
        expect
    }

    /// Every slice advances the clock; a completed ROT's versions become
    /// dependencies of the next PUT.
    fn absorb_slice(&mut self, lamport: u64, done: Option<&[ReadPair]>) {
        self.lamport = self.lamport.max(lamport);
        for (k, v) in done.unwrap_or_default() {
            if let Some((vid, _)) = v {
                let cur = self.deps.entry(*k).or_insert(*vid);
                *cur = (*cur).max(*vid);
            }
        }
    }

    /// The new version subsumes every dependency it was checked against.
    fn absorb_put(&mut self, key: Key, vid: VersionId, lamport: u64) {
        self.lamport = self.lamport.max(lamport);
        self.deps.clear();
        self.deps.insert(key, vid);
    }

    fn heap_bytes(&self) -> usize {
        contrarian_types::heap::btree_bytes::<Key, VersionId>(self.deps.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Dep;
    use crate::Client;
    use contrarian_runtime::testkit::ScriptCtx;
    use contrarian_types::Op;

    fn client() -> (Client, ScriptCtx<Msg>) {
        let cfg = ClusterConfig::small();
        let addr = Addr::client(DcId(0), 0);
        (Client::new(addr, &cfg, None), ScriptCtx::new(addr))
    }

    /// The dependencies and clock the next PUT carries.
    fn next_put(c: &mut Client, ctx: &mut ScriptCtx<Msg>) -> (Vec<Dep>, u64) {
        let me = ctx.addr;
        c.on_message(ctx, me, Msg::Inject(Op::Put(Key(9), Value::new())));
        match ctx.drain_sent().pop() {
            Some((_, Msg::PutReq { deps, lamport, .. })) => (deps, lamport),
            other => panic!("unexpected {other:?}"),
        }
    }

    fn slice(tx: TxId, key: Key, ts: u64, lamport: u64) -> Msg {
        Msg::RotSlice {
            tx,
            pairs: vec![(
                key,
                Some((VersionId::new(ts, DcId(0)), Value::from_static(b"v"))),
            )],
            lamport,
        }
    }

    #[test]
    fn rot_goes_directly_to_every_partition_in_one_round() {
        let (mut c, mut ctx) = client();
        let a = ctx.addr;
        c.on_message(
            &mut ctx,
            a,
            Msg::Inject(Op::Rot(vec![Key(0), Key(1), Key(2)])),
        );
        let sent = ctx.drain_sent();
        assert_eq!(sent.len(), 3, "one message per partition, no coordinator");
        for (to, m) in &sent {
            assert!(to.is_server());
            assert!(matches!(m, Msg::RotRead { .. }));
        }
    }

    #[test]
    fn reads_accumulate_dependencies_and_put_carries_them() {
        let (mut c, mut ctx) = client();
        let a = ctx.addr;
        c.on_message(&mut ctx, a, Msg::Inject(Op::Rot(vec![Key(0), Key(1)])));
        ctx.drain_sent();
        let tx0 = TxId::new(a.client_id(), 0);
        let s0 = Addr::server(DcId(0), PartitionId(0));
        c.on_message(&mut ctx, s0, slice(tx0, Key(0), 10, 1));
        c.on_message(&mut ctx, s0, slice(tx0, Key(1), 11, 2));
        // The following PUT ships both dependencies.
        c.on_message(
            &mut ctx,
            a,
            Msg::Inject(Op::Put(Key(2), Value::from_static(b"w"))),
        );
        let sent = ctx.drain_sent();
        match &sent[0].1 {
            Msg::PutReq { deps, lamport, .. } => {
                assert_eq!(deps.len(), 2);
                assert_eq!(*lamport, 2, "client lamport is the max observed");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn put_completion_collapses_dependency_list() {
        let (mut c, mut ctx) = client();
        let a = ctx.addr;
        c.on_message(&mut ctx, a, Msg::Inject(Op::Rot(vec![Key(0), Key(1)])));
        ctx.drain_sent();
        let tx0 = TxId::new(a.client_id(), 0);
        let s0 = Addr::server(DcId(0), PartitionId(0));
        c.on_message(&mut ctx, s0, slice(tx0, Key(0), 10, 1));
        c.on_message(&mut ctx, s0, slice(tx0, Key(1), 11, 2));
        c.on_message(
            &mut ctx,
            a,
            Msg::Inject(Op::Put(Key(2), Value::from_static(b"w"))),
        );
        ctx.drain_sent();
        c.on_message(
            &mut ctx,
            Addr::server(DcId(0), PartitionId(2)),
            Msg::PutResp {
                key: Key(2),
                vid: VersionId::new(30, DcId(0)),
                lamport: 30,
            },
        );
        let (deps, _) = next_put(&mut c, &mut ctx);
        assert_eq!(
            deps,
            vec![(Key(2), VersionId::new(30, DcId(0)))],
            "deps collapse to the PUT itself"
        );
    }

    #[test]
    fn bottom_reads_add_no_dependency() {
        let (mut c, mut ctx) = client();
        let a = ctx.addr;
        c.on_message(&mut ctx, a, Msg::Inject(Op::Rot(vec![Key(0)])));
        ctx.drain_sent();
        let tx0 = TxId::new(a.client_id(), 0);
        c.on_message(
            &mut ctx,
            Addr::server(DcId(0), PartitionId(0)),
            Msg::RotSlice {
                tx: tx0,
                pairs: vec![(Key(0), None)],
                lamport: 1,
            },
        );
        assert!(next_put(&mut c, &mut ctx).0.is_empty());
    }

    #[test]
    fn dependency_keeps_newest_version_per_key() {
        let (mut c, mut ctx) = client();
        let a = ctx.addr;
        let s0 = Addr::server(DcId(0), PartitionId(0));
        c.on_message(&mut ctx, a, Msg::Inject(Op::Rot(vec![Key(0)])));
        ctx.drain_sent();
        c.on_message(
            &mut ctx,
            s0,
            slice(TxId::new(a.client_id(), 0), Key(0), 10, 1),
        );
        c.on_message(&mut ctx, a, Msg::Inject(Op::Rot(vec![Key(0)])));
        ctx.drain_sent();
        c.on_message(
            &mut ctx,
            s0,
            slice(TxId::new(a.client_id(), 1), Key(0), 25, 2),
        );
        // The following PUT carries one dependency, at ts 25.
        let (deps, _) = next_put(&mut c, &mut ctx);
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].1.ts, 25);
    }

    #[test]
    fn every_slice_advances_the_lamport_clock() {
        let (mut c, mut ctx) = client();
        let a = ctx.addr;
        c.on_message(&mut ctx, a, Msg::Inject(Op::Rot(vec![Key(0), Key(1)])));
        ctx.drain_sent();
        let tx0 = TxId::new(a.client_id(), 0);
        let s0 = Addr::server(DcId(0), PartitionId(0));
        c.on_message(&mut ctx, s0, slice(tx0, Key(0), 10, 5));
        c.on_message(&mut ctx, s0, slice(tx0, Key(1), 11, 2));
        assert_eq!(next_put(&mut c, &mut ctx).1, 5);
    }
}
