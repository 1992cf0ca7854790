//! Wire-codec round-trip properties for every CC-LO message variant.
//!
//! `decode(encode(m)) == m` must hold for any message the backend can
//! construct — this is what lets the TCP runtime carry the protocol.

use contrarian_cclo::msg::{Dep, Msg};
use contrarian_types::codec::{from_bytes, to_bytes, CodecError};
use contrarian_types::{ClientId, DcId, Key, Op, TxId, Value, VersionId};
use proptest::prelude::*;

/// Number of variants in [`Msg`] — keep in sync with the enum (the `_ =>`
/// arm below panics if a tag is unmapped, so a miscount fails loudly).
const N_VARIANTS: u8 = 10;

#[allow(clippy::too_many_arguments)]
fn build_msg(
    tag: u8,
    dc: u8,
    idx: u16,
    seq: u32,
    ts: u64,
    keys: Vec<u64>,
    deps: Vec<(u64, u64, u8)>,
    val: Vec<u8>,
    raw_pairs: Vec<(u64, Option<(u64, u8)>)>,
) -> Msg {
    let tx = TxId::new(ClientId::new(DcId(dc), idx), seq);
    let keys: Vec<Key> = keys.into_iter().map(Key).collect();
    let value = Value::from(val);
    let deps: Vec<Dep> = deps
        .into_iter()
        .map(|(k, dts, o)| (Key(k), VersionId::new(dts, DcId(o))))
        .collect();
    let entries: Vec<(TxId, u64)> = (0..3u32).map(|i| (TxId::new(tx.client, i), ts)).collect();
    let pairs: Vec<(Key, Option<(VersionId, Value)>)> = raw_pairs
        .into_iter()
        .map(|(k, v)| {
            (
                Key(k),
                v.map(|(vts, vo)| (VersionId::new(vts, DcId(vo)), value.clone())),
            )
        })
        .collect();
    match tag {
        0 => Msg::RotRead {
            tx,
            keys,
            lamport: ts,
        },
        1 => Msg::RotSlice {
            tx,
            pairs,
            lamport: ts,
        },
        2 => Msg::PutReq {
            key: Key(ts),
            value,
            deps,
            lamport: ts,
        },
        3 => Msg::PutResp {
            key: Key(ts),
            vid: VersionId::new(ts, DcId(dc)),
            lamport: ts,
        },
        4 => Msg::OldReadersQuery {
            token: ts,
            deps,
            lamport: ts,
        },
        5 => Msg::OldReadersReply {
            token: ts,
            entries,
            lamport: ts,
        },
        6 => Msg::Replicate {
            key: Key(ts),
            value,
            vid: VersionId::new(ts, DcId(dc)),
            deps,
            lamport: ts,
            birth: ts,
        },
        7 => Msg::DepCheckQuery {
            token: ts,
            deps,
            lamport: ts,
        },
        8 => Msg::DepCheckReply {
            token: ts,
            entries,
            lamport: ts,
        },
        9 => {
            if ts.is_multiple_of(2) {
                Msg::Inject(Op::Rot(keys))
            } else {
                Msg::Inject(Op::Put(Key(ts), value))
            }
        }
        other => panic!("unmapped Msg tag {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_variant_round_trips(
        tag in 0u8..N_VARIANTS,
        dc in 0u8..4,
        idx in 0u16..512,
        seq in 0u32..100_000,
        ts in 0u64..u64::MAX,
        keys in prop::collection::vec(0u64..1_000_000, 0..8),
        deps in prop::collection::vec((0u64..1_000_000, 0u64..1_000_000, 0u8..4), 0..6),
        val in prop::collection::vec(0u8..=255, 0..80),
        raw_pairs in prop::collection::vec(
            (0u64..1_000_000, prop::option::of((0u64..1_000_000, 0u8..4))),
            0..6
        ),
    ) {
        let msg = build_msg(tag, dc, idx, seq, ts, keys, deps, val, raw_pairs);
        let bytes = to_bytes(&msg);
        let back: Msg = from_bytes(&bytes)
            .map_err(|e| TestCaseError::Fail(format!("decode failed: {e}")))?;
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn truncated_encodings_never_decode_to_a_value(
        tag in 0u8..N_VARIANTS,
        ts in 0u64..u64::MAX,
        keys in prop::collection::vec(0u64..1_000, 1..5),
        deps in prop::collection::vec((0u64..1_000, 0u64..1_000, 0u8..2), 1..4),
        cut_frac in 0u8..100,
    ) {
        let msg = build_msg(tag, 1, 7, 9, ts, keys, deps, vec![1, 2, 3], vec![]);
        let bytes = to_bytes(&msg);
        let cut = (bytes.len() - 1) * cut_frac as usize / 100;
        prop_assert!(from_bytes::<Msg>(&bytes[..cut]).is_err());
    }
}

#[test]
fn unknown_variant_tags_are_rejected() {
    for tag in N_VARIANTS..=u8::MAX {
        match from_bytes::<Msg>(&[tag]) {
            Err(CodecError::BadTag { .. }) => {}
            other => panic!("tag {tag}: expected BadTag, got {other:?}"),
        }
    }
}

/// Lowercase hex of an encoding, for the golden literals below.
fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// One fixed value of every variant, in declaration order, and its exact
/// encoding: the tag byte, then the fields in declaration order. The TCP
/// runtime's format is these bytes, so a reordered variant or field fails
/// here instead of on a live cluster.
#[test]
fn every_variant_encodes_to_its_golden_bytes() {
    let tx = TxId::new(ClientId::new(DcId(1), 2), 3);
    let keys = vec![Key(4)];
    let value = Value::from_static(b"v");
    let vid = VersionId::new(6, DcId(1));
    let deps: Vec<Dep> = vec![(Key(8), vid)];
    let entries = vec![(tx, 6)];
    let golden: [(Msg, &str); N_VARIANTS as usize] = [
        (
            Msg::RotRead {
                tx,
                keys: keys.clone(),
                lamport: 7,
            },
            "0002000100030000000100000004000000000000000700000000000000",
        ),
        (
            Msg::RotSlice {
                tx,
                pairs: vec![(Key(4), Some((vid, value.clone()))), (Key(8), None)],
                lamport: 7,
            },
            "0102000100030000000200000004000000000000000106000000000000000101000000760800000000000000000700000000000000",
        ),
        (
            Msg::PutReq {
                key: Key(4),
                value: value.clone(),
                deps: deps.clone(),
                lamport: 7,
            },
            "02040000000000000001000000760100000008000000000000000600000000000000010700000000000000",
        ),
        (
            Msg::PutResp {
                key: Key(4),
                vid,
                lamport: 7,
            },
            "0304000000000000000600000000000000010700000000000000",
        ),
        (
            Msg::OldReadersQuery {
                token: 9,
                deps: deps.clone(),
                lamport: 7,
            },
            "0409000000000000000100000008000000000000000600000000000000010700000000000000",
        ),
        (
            Msg::OldReadersReply {
                token: 9,
                entries: entries.clone(),
                lamport: 7,
            },
            "05090000000000000001000000020001000300000006000000000000000700000000000000",
        ),
        (
            Msg::Replicate {
                key: Key(4),
                value,
                vid,
                deps: deps.clone(),
                lamport: 7,
                birth: 9,
            },
            "060400000000000000010000007606000000000000000101000000080000000000000006000000000000000107000000000000000900000000000000",
        ),
        (
            Msg::DepCheckQuery {
                token: 9,
                deps,
                lamport: 7,
            },
            "0709000000000000000100000008000000000000000600000000000000010700000000000000",
        ),
        (
            Msg::DepCheckReply {
                token: 9,
                entries,
                lamport: 7,
            },
            "08090000000000000001000000020001000300000006000000000000000700000000000000",
        ),
        (Msg::Inject(Op::Rot(keys)), "0900010000000400000000000000"),
    ];
    for (msg, want) in golden {
        let bytes = to_bytes(&msg);
        assert_eq!(hex(&bytes), want, "{msg:?}");
        assert_eq!(from_bytes::<Msg>(&bytes).unwrap(), msg);
    }
}
