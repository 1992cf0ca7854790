//! Contrarian's storage server against any decodable input.
//!
//! Over TCP any peer can send any frame that decodes, so the server must
//! survive arbitrary sequences of well-typed messages from arbitrary
//! senders — server-bound or client-bound, with vectors of any length,
//! DC and partition ids the cluster does not have, and timestamps up to
//! `u64::MAX` — interleaved with its own timer ticks. After every step:
//!
//! * nothing has panicked;
//! * the Global Stable Snapshot has not decreased in any entry;
//! * no key's head version has moved to a smaller version.
//!
//! What the server cannot act on is counted and dropped
//! (`Metrics::rejected_msgs`), never trusted.

use contrarian_clock::PhysicalClockModel;
use contrarian_core::msg::Msg;
use contrarian_core::timers;
use contrarian_core::Server;
use contrarian_protocol::ProtocolServer;
use contrarian_runtime::actor::TimerKind;
use contrarian_runtime::testkit::ScriptCtx;
use contrarian_types::{
    Addr, ClientId, ClusterConfig, DcId, DepVector, Key, Op, PartitionId, TxId, Value, VersionId,
};
use proptest::prelude::*;
use std::collections::HashMap;

/// Message tags 0..13 name the `Msg` variants; 13 is a timer tick.
const TAGS: u8 = 14;

/// A timestamp drawn from one of four classes: small, near `u64::MAX`,
/// anything, or an HLC-encoded reading close to `now`.
fn timestamp(class: u8, raw: u64, now: u64) -> u64 {
    match class {
        0 => raw % 1_000_000,
        1 => u64::MAX - raw % 1_000,
        2 => raw,
        _ => contrarian_clock::hlc::encode(now / 1_000 + raw % 1_000, raw % 4),
    }
}

/// Builds one step's message. `ids` are a DC index, a partition / client
/// index and a sequence number, `ts` its timestamp, `keys` and `entries`
/// its keys and vector entries (the vector's length is the cluster's DC
/// count only sometimes).
fn build(tag: u8, ids: (u8, u16, u32), ts: u64, keys: Vec<u64>, entries: Vec<u64>) -> Msg {
    let (dc, idx, seq) = ids;
    let tx = TxId::new(ClientId::new(DcId(dc), idx), seq);
    let keys: Vec<Key> = keys.into_iter().map(Key).collect();
    let vector = DepVector::from_vec(entries);
    let value = Value::from(vec![dc; (idx % 8) as usize]);
    match tag {
        0 => Msg::RotReq {
            tx,
            keys,
            lts: ts,
            gss: vector,
        },
        1 => Msg::RotSnapReq {
            tx,
            lts: ts,
            gss: vector,
        },
        2 => Msg::RotSnap { tx, sv: vector },
        3 => Msg::RotRead {
            tx,
            keys,
            sv: vector,
        },
        4 => Msg::RotFwd {
            tx,
            client: Addr::client(DcId(dc), idx),
            keys,
            sv: vector,
        },
        5 => Msg::RotSlice {
            tx,
            pairs: keys
                .iter()
                .map(|&k| (k, Some((VersionId::new(ts, DcId(dc)), value.clone()))))
                .collect(),
            sv: vector,
        },
        6 => Msg::PutReq {
            key: keys.first().copied().unwrap_or(Key(0)),
            value,
            lts: ts,
            gss: vector,
        },
        7 => Msg::PutResp {
            key: Key(ts),
            vid: VersionId::new(ts, DcId(dc)),
            gss: vector,
        },
        8 => Msg::Replicate {
            key: keys.first().copied().unwrap_or(Key(0)),
            value,
            dv: vector,
            origin: DcId(dc),
            birth: ts,
        },
        9 => Msg::Heartbeat {
            origin: DcId(dc),
            ts,
        },
        10 => Msg::VvReport {
            partition: PartitionId(idx),
            vv: vector,
        },
        11 => Msg::GssBcast { gss: vector },
        _ => Msg::Inject(Op::Rot(keys)),
    }
}

/// The sender of a step: a server or a client, of any DC id (the cluster
/// has two), any index.
fn sender(dc: u8, idx: u16, client: bool) -> Addr {
    if client {
        Addr::client(DcId(dc), idx)
    } else {
        Addr::server(DcId(dc), PartitionId(idx))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn any_decodable_input_keeps_gss_and_heads_monotone(
        partition in 0u16..2,
        steps in prop::collection::vec(
            (
                (0u8..TAGS, 0u8..4, 0u16..6, 0u32..4),
                (0u8..4, 0u64..u64::MAX, 0u64..2_000_000),
                prop::collection::vec(0u64..16, 0..4),
                prop::collection::vec(0u64..u64::MAX, 0..4),
            ),
            1..48,
        ),
    ) {
        let cfg = ClusterConfig::small().with_dcs(2);
        let me = Addr::server(DcId(0), PartitionId(partition));
        let mut server = Server::new(me, cfg, PhysicalClockModel::perfect());
        let mut ctx = ScriptCtx::new(me);
        server.on_start(&mut ctx);
        let mut now = 0u64;
        let mut gss = server.gss().clone();
        let mut heads: HashMap<Key, VersionId> = HashMap::new();
        for ((tag, dc, idx, seq), (class, raw, advance), keys, entries) in steps {
            now += advance;
            ctx.now = now;
            let ts = timestamp(class, raw, now);
            if tag == TAGS - 1 {
                let kind = [timers::STABILIZE, timers::HEARTBEAT, timers::GC, timers::RESUME];
                server.on_timer(&mut ctx, TimerKind::new(kind[(raw % 4) as usize]));
            } else {
                // Half of the vectors get one entry per DC, so that they
                // reach past the shape checks.
                let entries = if seq % 2 == 0 {
                    entries.iter().copied().chain([ts, raw]).take(2).collect()
                } else {
                    entries
                };
                let msg = build(tag, (dc, idx, seq), ts, keys, entries);
                let from = sender(dc, idx, seq % 3 == 0);
                server.on_message(&mut ctx, from, msg);
            }
            ctx.drain_sent();

            let now_gss = server.gss();
            prop_assert_eq!(now_gss.len(), gss.len());
            prop_assert!(gss.leq(now_gss), "GSS fell from {} to {}", gss, now_gss);
            gss = now_gss.clone();
            let now_heads: HashMap<Key, VersionId> = server.store_heads().into_iter().collect();
            for (key, vid) in &heads {
                let head = now_heads.get(key);
                prop_assert!(
                    head.is_some_and(|h| h >= vid),
                    "{:?}'s head moved from {} to {:?}", key, vid, head
                );
            }
            heads = now_heads;
        }
    }
}

/// Each input the server cannot act on is one counted drop, and leaves
/// the server as it was.
#[test]
fn malformed_server_bound_messages_are_counted_and_dropped() {
    let cfg = ClusterConfig::small().with_dcs(2);
    let me = Addr::server(DcId(0), PartitionId(0));
    let peer = Addr::server(DcId(1), PartitionId(0));
    let client = Addr::client(DcId(0), 0);
    let tx = TxId::new(ClientId::new(DcId(0), 0), 1);
    let one_dc = DepVector::zero(1);
    let malformed = [
        Msg::PutReq {
            key: Key(1),
            value: Value::new(),
            lts: 0,
            gss: one_dc.clone(),
        },
        Msg::RotReq {
            tx,
            keys: vec![Key(1)],
            lts: 0,
            gss: DepVector::zero(3),
        },
        Msg::RotSnapReq {
            tx,
            lts: 0,
            gss: one_dc.clone(),
        },
        Msg::RotRead {
            tx,
            keys: vec![Key(1)],
            sv: one_dc.clone(),
        },
        Msg::RotFwd {
            tx,
            client,
            keys: vec![Key(1)],
            sv: DepVector::zero(0),
        },
        Msg::Replicate {
            key: Key(1),
            value: Value::new(),
            dv: DepVector::zero(2),
            origin: DcId(2),
            birth: 0,
        },
        Msg::Replicate {
            key: Key(1),
            value: Value::new(),
            dv: DepVector::zero(2),
            origin: DcId(0),
            birth: 0,
        },
        Msg::Replicate {
            key: Key(1),
            value: Value::new(),
            dv: one_dc.clone(),
            origin: DcId(1),
            birth: 0,
        },
        Msg::Heartbeat {
            origin: DcId(7),
            ts: 5,
        },
        Msg::VvReport {
            partition: PartitionId(cfg.n_partitions),
            vv: DepVector::zero(2),
        },
        Msg::VvReport {
            partition: PartitionId(1),
            vv: one_dc.clone(),
        },
        Msg::GssBcast { gss: one_dc },
    ];
    let mut server = Server::new(me, cfg, PhysicalClockModel::perfect());
    let mut ctx = ScriptCtx::new(me);
    server.on_start(&mut ctx);
    let (gss, vv) = (server.gss().clone(), server.vv().clone());
    for (i, msg) in malformed.into_iter().enumerate() {
        server.on_message(&mut ctx, peer, msg);
        assert_eq!(ctx.sink.metrics.rejected_msgs, i as u64 + 1);
        assert!(ctx.drain_sent().is_empty(), "message {i} was answered");
    }
    assert!(server.store_heads().is_empty());
    assert_eq!((server.gss(), server.vv()), (&gss, &vv));
    // A stabilization round over the dropped report still runs.
    server.on_timer(&mut ctx, TimerKind::new(timers::STABILIZE));
}
