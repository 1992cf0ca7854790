//! Wire-codec round-trip properties for every Contrarian message variant.
//!
//! `decode(encode(m)) == m` must hold for any message the backend can
//! construct — this is what lets the TCP runtime carry the protocol.
//! Because Cure and the Okapi-style backend reuse this message type, these
//! properties cover three of the four backends (CC-LO has its own file).

use contrarian_core::msg::Msg;
use contrarian_types::codec::{from_bytes, to_bytes, CodecError};
use contrarian_types::{
    Addr, ClientId, DcId, DepVector, Key, Op, PartitionId, TxId, Value, VersionId,
};
use proptest::prelude::*;

/// Number of variants in [`Msg`] — keep in sync with the enum (the `_ =>`
/// arm below panics if a tag is unmapped, so a miscount fails loudly).
const N_VARIANTS: u8 = 13;

#[allow(clippy::too_many_arguments)]
fn build_msg(
    tag: u8,
    dc: u8,
    idx: u16,
    seq: u32,
    ts: u64,
    keys: Vec<u64>,
    entries: Vec<u64>,
    val: Vec<u8>,
    raw_pairs: Vec<(u64, Option<(u64, u8)>)>,
) -> Msg {
    let tx = TxId::new(ClientId::new(DcId(dc), idx), seq);
    let keys: Vec<Key> = keys.into_iter().map(Key).collect();
    let vecs = DepVector::from_vec(entries);
    let value = Value::from(val);
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
        0 => Msg::RotReq {
            tx,
            keys,
            lts: ts,
            gss: vecs,
        },
        1 => Msg::RotSnapReq {
            tx,
            lts: ts,
            gss: vecs,
        },
        2 => Msg::RotSnap { tx, sv: vecs },
        3 => Msg::RotRead { tx, keys, sv: vecs },
        4 => Msg::RotFwd {
            tx,
            client: Addr::client(DcId(dc), idx),
            keys,
            sv: vecs,
        },
        5 => Msg::RotSlice {
            tx,
            pairs,
            sv: vecs,
        },
        6 => Msg::PutReq {
            key: Key(ts),
            value,
            lts: ts,
            gss: vecs,
        },
        7 => Msg::PutResp {
            key: Key(ts),
            vid: VersionId::new(ts, DcId(dc)),
            gss: vecs,
        },
        8 => Msg::Replicate {
            key: Key(ts),
            value,
            dv: vecs,
            origin: DcId(dc),
            birth: ts,
        },
        9 => Msg::Heartbeat {
            origin: DcId(dc),
            ts,
        },
        10 => Msg::VvReport {
            partition: PartitionId(idx),
            vv: vecs,
        },
        11 => Msg::GssBcast { gss: vecs },
        12 => {
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
        entries in prop::collection::vec(0u64..u64::MAX, 1..5),
        val in prop::collection::vec(0u8..=255, 0..80),
        raw_pairs in prop::collection::vec(
            (0u64..1_000_000, prop::option::of((0u64..1_000_000, 0u8..4))),
            0..6
        ),
    ) {
        let msg = build_msg(tag, dc, idx, seq, ts, keys, entries, val, raw_pairs);
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
        entries in prop::collection::vec(0u64..1_000, 1..4),
        cut_frac in 0u8..100,
    ) {
        let msg = build_msg(tag, 1, 7, 9, ts, keys, entries, vec![1, 2, 3], vec![]);
        let bytes = to_bytes(&msg);
        // Every strict prefix must be rejected — a truncated frame cannot
        // silently decode into a (different) message.
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

#[test]
fn trailing_bytes_after_a_message_are_rejected() {
    let mut bytes = to_bytes(&Msg::Heartbeat {
        origin: DcId(0),
        ts: 42,
    });
    bytes.push(0);
    assert!(matches!(
        from_bytes::<Msg>(&bytes),
        Err(CodecError::Trailing { .. })
    ));
}

#[test]
fn corrupt_length_prefixes_are_rejected() {
    // Take a RotRead and overwrite its key-count length prefix (right
    // after the tag and 8-byte TxId) with a huge value.
    let msg = Msg::RotRead {
        tx: TxId::new(ClientId::new(DcId(0), 0), 0),
        keys: vec![Key(1), Key(2)],
        sv: DepVector::zero(2),
    };
    let mut bytes = to_bytes(&msg);
    bytes[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        from_bytes::<Msg>(&bytes),
        Err(CodecError::BadLength { .. })
    ));
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
    let dv = DepVector::from_vec(vec![5]);
    let value = Value::from_static(b"v");
    let vid = VersionId::new(6, DcId(1));
    let golden: [(Msg, &str); N_VARIANTS as usize] = [
        (
            Msg::RotReq {
                tx,
                keys: keys.clone(),
                lts: 7,
                gss: dv.clone(),
            },
            "0002000100030000000100000004000000000000000700000000000000010000000500000000000000",
        ),
        (
            Msg::RotSnapReq {
                tx,
                lts: 7,
                gss: dv.clone(),
            },
            "0102000100030000000700000000000000010000000500000000000000",
        ),
        (Msg::RotSnap { tx, sv: dv.clone() }, "020200010003000000010000000500000000000000"),
        (
            Msg::RotRead {
                tx,
                keys: keys.clone(),
                sv: dv.clone(),
            },
            "030200010003000000010000000400000000000000010000000500000000000000",
        ),
        (
            Msg::RotFwd {
                tx,
                client: Addr::client(DcId(1), 2),
                keys: keys.clone(),
                sv: dv.clone(),
            },
            "04020001000300000001010200010000000400000000000000010000000500000000000000",
        ),
        (
            Msg::RotSlice {
                tx,
                pairs: vec![(Key(4), Some((vid, value.clone()))), (Key(8), None)],
                sv: dv.clone(),
            },
            "050200010003000000020000000400000000000000010600000000000000010100000076080000000000000000010000000500000000000000",
        ),
        (
            Msg::PutReq {
                key: Key(4),
                value: value.clone(),
                lts: 7,
                gss: dv.clone(),
            },
            "06040000000000000001000000760700000000000000010000000500000000000000",
        ),
        (
            Msg::PutResp {
                key: Key(4),
                vid,
                gss: dv.clone(),
            },
            "070400000000000000060000000000000001010000000500000000000000",
        ),
        (
            Msg::Replicate {
                key: Key(4),
                value: value.clone(),
                dv: dv.clone(),
                origin: DcId(1),
                birth: 9,
            },
            "0804000000000000000100000076010000000500000000000000010900000000000000",
        ),
        (
            Msg::Heartbeat {
                origin: DcId(1),
                ts: 7,
            },
            "09010700000000000000",
        ),
        (
            Msg::VvReport {
                partition: PartitionId(2),
                vv: dv.clone(),
            },
            "0a0200010000000500000000000000",
        ),
        (Msg::GssBcast { gss: dv }, "0b010000000500000000000000"),
        (Msg::Inject(Op::Put(Key(4), value)), "0c0104000000000000000100000076"),
    ];
    for (msg, want) in golden {
        let bytes = to_bytes(&msg);
        assert_eq!(hex(&bytes), want, "{msg:?}");
        assert_eq!(from_bytes::<Msg>(&bytes).unwrap(), msg);
    }
}
