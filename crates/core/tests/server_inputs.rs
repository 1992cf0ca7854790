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
//! * no key's head version has moved to a smaller version;
//! * an acknowledged PUT's timestamp exceeds the client's `lts`;
//! * no timestamp the server sends for a peer to take in is `hlc::MAX`,
//!   which every peer drops.
//!
//! What the server cannot act on is counted and dropped
//! (`Metrics::rejected_msgs`), never trusted.

use contrarian_clock::{hlc, PhysicalClockModel};
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

/// A timestamp drawn from one of five classes: small, near `u64::MAX`, at
/// most 3 below it (the clock's last encodable successors), anything, or
/// an HLC-encoded reading close to `now`.
fn timestamp(class: u8, raw: u64, now: u64) -> u64 {
    match class {
        0 => raw % 1_000_000,
        1 => u64::MAX - raw % 1_000,
        2 => u64::MAX - raw % 4,
        3 => raw,
        _ => contrarian_clock::hlc::encode(now / 1_000 + raw % 1_000, raw % 4),
    }
}

/// The timestamp of a message the server sent that a peer hands its own
/// clock or vectors, and so drops if it is `hlc::MAX`: this server's entry
/// of a snapshot or dependency vector, a heartbeat's reading, a version
/// id, or any entry of a report or a broadcast.
fn issued(msg: &Msg, me: DcId) -> Option<u64> {
    match msg {
        Msg::RotSnap { sv, .. } | Msg::RotFwd { sv, .. } | Msg::RotSlice { sv, .. } => {
            Some(sv[me.index()])
        }
        Msg::PutResp { vid, .. } => Some(vid.ts),
        Msg::Replicate { dv, .. } => Some(dv[me.index()]),
        Msg::Heartbeat { ts, .. } => Some(*ts),
        Msg::VvReport { vv, .. } => Some(vv.max_entry()),
        Msg::GssBcast { gss } => Some(gss.max_entry()),
        _ => None,
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
                (0u8..5, 0u64..u64::MAX, 0u64..2_000_000),
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
            for (_, msg) in ctx.drain_sent() {
                if let Msg::PutResp { vid, .. } = msg {
                    prop_assert!(tag == 6 && vid.ts > ts, "PUT at lts {} acknowledged as {}", ts, vid);
                }
                if let Some(issued) = issued(&msg, me.dc) {
                    prop_assert!(issued < hlc::MAX, "{:?} carries the last timestamp", msg);
                }
            }

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
        // A timestamp with no encodable successor, wherever it would reach
        // the clock: an HLC shown one would wrap to 0.
        Msg::PutReq {
            key: Key(1),
            value: Value::new(),
            lts: u64::MAX,
            gss: DepVector::zero(2),
        },
        Msg::PutReq {
            key: Key(1),
            value: Value::new(),
            lts: 0,
            gss: DepVector::from_vec(vec![0, u64::MAX]),
        },
        Msg::RotReq {
            tx,
            keys: vec![Key(1)],
            lts: u64::MAX,
            gss: DepVector::zero(2),
        },
        Msg::RotSnapReq {
            tx,
            lts: u64::MAX,
            gss: DepVector::zero(2),
        },
        Msg::RotRead {
            tx,
            keys: vec![Key(1)],
            sv: DepVector::from_vec(vec![u64::MAX, 0]),
        },
        Msg::Replicate {
            key: Key(1),
            value: Value::new(),
            dv: DepVector::from_vec(vec![0, u64::MAX]),
            origin: DcId(1),
            birth: 0,
        },
        Msg::Heartbeat {
            origin: DcId(1),
            ts: u64::MAX,
        },
        Msg::VvReport {
            partition: PartitionId(1),
            vv: DepVector::from_vec(vec![u64::MAX, 0]),
        },
        Msg::GssBcast {
            gss: DepVector::from_vec(vec![0, u64::MAX]),
        },
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

/// A client's PUT request for key 1 at causal floor `lts`.
fn put(lts: u64) -> Msg {
    Msg::PutReq {
        key: Key(1),
        value: Value::new(),
        lts,
        gss: DepVector::zero(2),
    }
}

/// A physical clock that reads `us` µs at true time `at_ns`.
fn clock_reading(us: u64, at_ns: u64) -> PhysicalClockModel {
    PhysicalClockModel::with_offset_ns((us * 1_000) as i64 - at_ns as i64)
}

/// A client stamp more than twice the skew bound past the server's
/// physical clock was issued by no clock of the cluster: it is counted and
/// dropped, and the partition still takes ordinary PUTs after it. Before,
/// the clock took it in, stood one below `hlc::MAX`, and dropped every
/// later PUT.
#[test]
fn a_stamp_past_every_clock_leaves_the_partition_writable() {
    let cfg = ClusterConfig::small().with_dcs(2);
    let me = Addr::server(DcId(0), PartitionId(0));
    let client = Addr::client(DcId(0), 0);
    let mut server = Server::new(me, cfg, PhysicalClockModel::perfect());
    let mut ctx = ScriptCtx::new(me);
    server.on_start(&mut ctx);
    ctx.drain_sent();
    ctx.now = 1_000_000;
    server.on_message(&mut ctx, client, put(hlc::MAX - 2));
    assert!(ctx.drain_sent().is_empty(), "the far stamp was answered");
    assert_eq!(ctx.sink.metrics.rejected_msgs, 1);
    server.on_message(&mut ctx, client, put(5));
    let acks: Vec<Msg> = ctx.drain_to(client);
    assert!(
        matches!(acks[..], [Msg::PutResp { vid, .. }] if hlc::decode(vid.ts).0 == 1_000),
        "{acks:?}"
    );
}

/// A clock that has issued the last timestamp a server may issue (one
/// below `hlc::MAX`) cannot stamp another event: a PUT that would need
/// `hlc::MAX` and every PUT after it are counted and dropped, not
/// acknowledged with a timestamp no peer accepts or one that wrapped to 0.
/// The clock's own physical reading is at the top of the range, so the
/// PUT that takes it to its last timestamp is within the skew bound.
#[test]
fn a_clock_at_its_last_timestamp_drops_what_it_cannot_stamp() {
    let cfg = ClusterConfig::small().with_dcs(2);
    let me = Addr::server(DcId(0), PartitionId(0));
    let client = Addr::client(DcId(0), 0);
    let top = hlc::decode(hlc::MAX).0;
    let mut server = Server::new(me, cfg, clock_reading(top, 0));
    let mut ctx = ScriptCtx::new(me);
    server.on_start(&mut ctx);
    server.on_message(&mut ctx, client, put(hlc::MAX - 2));
    let acks: Vec<Msg> = ctx.drain_to(client);
    assert!(
        matches!(acks[..], [Msg::PutResp { vid, .. }] if vid.ts == hlc::MAX - 1),
        "{acks:?}"
    );
    ctx.drain_sent();
    server.on_message(&mut ctx, client, put(hlc::MAX - 1));
    server.on_message(&mut ctx, client, put(5));
    assert!(
        ctx.drain_sent().is_empty(),
        "a PUT past the last timestamp was answered"
    );
    assert_eq!(ctx.sink.metrics.rejected_msgs, 2);
}

/// An acknowledged PUT just below the top of the timestamp range is
/// replicated like any other, and stabilization carries on around it: the
/// peer replica applies the version, every server accepts every message,
/// and every server's GSS keeps advancing in every entry. Two DCs of two
/// partitions each, every message delivered by hand.
#[test]
fn a_put_near_the_top_of_the_range_replicates_and_stabilization_goes_on() {
    /// Short enough that 2.5 rounds stay within the skew bound's ε.
    const ROUND: u64 = 250_000;
    let cfg = ClusterConfig::small().with_dcs(2).with_partitions(2);
    let addrs: Vec<Addr> = [(0, 0), (0, 1), (1, 0), (1, 1)]
        .map(|(dc, p)| Addr::server(DcId(dc), PartitionId(p)))
        .into();
    // Every clock reaches the top of the range at the last round.
    let top = hlc::decode(hlc::MAX).0;
    let mut servers: Vec<Server> = addrs
        .iter()
        .map(|&a| Server::new(a, cfg.clone(), clock_reading(top, 6 * ROUND)))
        .collect();
    let mut ctx = ScriptCtx::new(addrs[0]);
    for (server, &a) in servers.iter_mut().zip(&addrs) {
        server.on_start(ctx.at(a, 0));
    }
    ctx.drain_sent();
    // One round every `ROUND` ns: every server stabilizes and heartbeats,
    // then every server-bound message is delivered until none is left.
    let round = |servers: &mut [Server], ctx: &mut ScriptCtx<Msg>, now: u64| {
        for (server, &a) in servers.iter_mut().zip(&addrs) {
            server.on_timer(ctx.at(a, now), TimerKind::new(timers::STABILIZE));
            server.on_timer(ctx.at(a, now), TimerKind::new(timers::HEARTBEAT));
        }
        let mut from = addrs[0];
        loop {
            let sent = ctx.drain_sent();
            if sent.is_empty() {
                break;
            }
            for (to, msg) in sent {
                if let Some(i) = addrs.iter().position(|&a| a == to) {
                    servers[i].on_message(ctx.at(to, now), from, msg);
                }
                from = to;
            }
        }
    };
    for r in 1..=3 {
        round(&mut servers, &mut ctx, r * ROUND);
    }

    // Three PUTs whose floors climb to the top of the range, 2.5 rounds
    // past the clock's reading: the clock stamps each just past its floor
    // while the stamp stays below `hlc::MAX`, and drops the rest.
    let client = Addr::client(DcId(0), 0);
    let mut acked = Vec::new();
    for k in 1..=3 {
        let lts = hlc::MAX - 4 + k;
        servers[1].on_message(
            ctx.at(addrs[1], 7 * ROUND / 2),
            client,
            Msg::PutReq {
                key: Key(k),
                value: Value::from(vec![7]),
                lts,
                gss: DepVector::zero(2),
            },
        );
        for msg in ctx.drain_to(client) {
            match msg {
                Msg::PutResp { key, vid, .. } if vid.ts > lts => acked.push((key, vid)),
                other => panic!("PUT at lts {lts} answered with {other:?}"),
            }
        }
    }
    assert!(!acked.is_empty(), "no PUT near the top was acknowledged");
    let dropped = 3 - acked.len() as u64;
    let before: Vec<DepVector> = servers.iter().map(|s| s.gss().clone()).collect();
    for r in 4..=6 {
        round(&mut servers, &mut ctx, r * ROUND);
    }

    assert_eq!(
        ctx.sink.metrics.rejected_msgs, dropped,
        "a server dropped a peer's message"
    );
    for (key, vid) in acked {
        let replica = servers[3].store().latest(key).map(|v| v.vid);
        assert_eq!(replica, Some(vid), "the peer replica did not apply {key:?}");
    }
    for (s, (server, old)) in servers.iter().zip(&before).enumerate() {
        let gss = server.gss();
        for dc in 0..2 {
            assert!(
                gss[dc] > old[dc],
                "server {s}: GSS stuck at {old}, now {gss}"
            );
        }
    }
}
