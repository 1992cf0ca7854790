//! Contrarian protocol messages and their simulation cost accounting.

use contrarian_protocol::ProtocolMsg;
use contrarian_runtime::cost::{CostModel, MsgClass, SimMessage};
use contrarian_types::{heap, wire};
use contrarian_types::{Addr, DcId, DepVector, Key, Op, PartitionId, TxId, Value, VersionId};

contrarian_types::wire_enum! {
    /// All messages exchanged by Contrarian nodes. Cure and the Okapi-style
    /// backend reuse this type, so its `wire_enum!` codec carries three of
    /// the four backends over TCP.
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub enum Msg {
        /// Client → coordinator, 1½-round mode: the whole ROT in one request.
        RotReq {
            tx: TxId,
            keys: Vec<Key>,
            lts: u64,
            gss: DepVector,
        },
        /// Client → coordinator, 2-round mode: ask for a snapshot vector.
        RotSnapReq { tx: TxId, lts: u64, gss: DepVector },
        /// Coordinator → client, 2-round mode: the snapshot vector.
        RotSnap { tx: TxId, sv: DepVector },
        /// Client → partition, 2-round mode: read under the snapshot.
        RotRead {
            tx: TxId,
            keys: Vec<Key>,
            sv: DepVector,
        },
        /// Coordinator → partition, 1½-round mode: forwarded read; the partition
        /// answers the *client* directly (the extra half round saved).
        RotFwd {
            tx: TxId,
            client: Addr,
            keys: Vec<Key>,
            sv: DepVector,
        },
        /// Partition → client: the versions of this partition's share of keys.
        RotSlice {
            tx: TxId,
            pairs: Vec<(Key, Option<(VersionId, Value)>)>,
            sv: DepVector,
        },
        /// Client → partition.
        PutReq {
            key: Key,
            value: Value,
            lts: u64,
            gss: DepVector,
        },
        /// Partition → client.
        PutResp {
            key: Key,
            vid: VersionId,
            gss: DepVector,
        },
        /// Origin partition → replica partition (asynchronous, FIFO).
        Replicate {
            key: Key,
            value: Value,
            dv: DepVector,
            origin: DcId,
            /// Runtime timestamp of the origin install, so the replica can
            /// measure visibility staleness (zero when unknown).
            birth: u64,
        },
        /// Idle replication heartbeat: advances the replica's version vector.
        Heartbeat { origin: DcId, ts: u64 },
        /// Partition → aggregator (stabilization).
        VvReport {
            partition: PartitionId,
            vv: DepVector,
        },
        /// Aggregator → partitions: the new GSS.
        GssBcast { gss: DepVector },
        /// Externally injected operation (interactive facade).
        Inject(op: Op),
    }
}

fn vec_bytes(v: &DepVector) -> usize {
    v.len() * wire::VEC_ENTRY
}

impl SimMessage for Msg {
    fn heap_bytes(&self) -> usize {
        match self {
            Msg::RotReq { keys, gss, .. } => heap::vec_bytes(keys) + gss.heap_bytes(),
            Msg::RotSnapReq { gss, .. } => gss.heap_bytes(),
            Msg::RotSnap { sv, .. } => sv.heap_bytes(),
            Msg::RotRead { keys, sv, .. } | Msg::RotFwd { keys, sv, .. } => {
                heap::vec_bytes(keys) + sv.heap_bytes()
            }
            Msg::RotSlice { pairs, sv, .. } => heap::vec_bytes(pairs) + sv.heap_bytes(),
            Msg::PutReq { gss, .. } | Msg::PutResp { gss, .. } => gss.heap_bytes(),
            Msg::Replicate { dv, .. } => dv.heap_bytes(),
            Msg::Heartbeat { .. } => 0,
            Msg::VvReport { vv, .. } => vv.heap_bytes(),
            Msg::GssBcast { gss } => gss.heap_bytes(),
            Msg::Inject(op) => op.heap_bytes(),
        }
    }

    fn wire_size(&self) -> usize {
        wire::MSG_HEADER
            + match self {
                Msg::RotReq { keys, gss, .. } => {
                    wire::TX_ID + keys.len() * wire::KEY + wire::TS + vec_bytes(gss)
                }
                Msg::RotSnapReq { gss, .. } => wire::TX_ID + wire::TS + vec_bytes(gss),
                Msg::RotSnap { sv, .. } => wire::TX_ID + vec_bytes(sv),
                Msg::RotRead { keys, sv, .. } => {
                    wire::TX_ID + keys.len() * wire::KEY + vec_bytes(sv)
                }
                Msg::RotFwd { keys, sv, .. } => {
                    wire::TX_ID + 6 + keys.len() * wire::KEY + vec_bytes(sv)
                }
                Msg::RotSlice { pairs, sv, .. } => {
                    wire::TX_ID
                        + vec_bytes(sv)
                        + pairs
                            .iter()
                            .map(|(_, v)| {
                                wire::KEY
                                    + 1
                                    + v.as_ref()
                                        .map(|(_, val)| wire::VERSION_ID + val.len())
                                        .unwrap_or(0)
                            })
                            .sum::<usize>()
                }
                Msg::PutReq { value, gss, .. } => {
                    wire::KEY + value.len() + wire::TS + vec_bytes(gss)
                }
                Msg::PutResp { gss, .. } => wire::KEY + wire::VERSION_ID + vec_bytes(gss),
                Msg::Replicate { value, dv, .. } => {
                    wire::KEY + value.len() + vec_bytes(dv) + 1 + wire::TS
                }
                Msg::Heartbeat { .. } => 1 + wire::TS,
                Msg::VvReport { vv, .. } => 2 + vec_bytes(vv),
                Msg::GssBcast { gss } => vec_bytes(gss),
                Msg::Inject(_) => 0,
            }
    }

    fn class(&self) -> MsgClass {
        match self {
            Msg::Heartbeat { .. } | Msg::VvReport { .. } | Msg::GssBcast { .. } => {
                MsgClass::Control
            }
            _ => MsgClass::Data,
        }
    }

    fn rx_extra(&self, m: &CostModel) -> u64 {
        match self {
            // Coordinator work: pick the snapshot vector.
            Msg::RotReq { .. } | Msg::RotSnapReq { .. } => m.snap_ns,
            // Per-key lookup work at a reading partition.
            Msg::RotRead { keys, .. } | Msg::RotFwd { keys, .. } => {
                m.read_op_ns * keys.len() as u64
            }
            // Version installation.
            Msg::PutReq { .. } | Msg::Replicate { .. } => m.write_op_ns,
            _ => 0,
        }
    }
}

impl ProtocolMsg for Msg {
    fn inject(op: Op) -> Msg {
        Msg::Inject(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contrarian_types::ClientId;

    #[test]
    fn wire_sizes_scale_with_content() {
        let tx = TxId::new(ClientId::new(DcId(0), 0), 1);
        let small = Msg::RotReq {
            tx,
            keys: vec![Key(1)],
            lts: 0,
            gss: DepVector::zero(1),
        };
        let large = Msg::RotReq {
            tx,
            keys: vec![Key(1); 24],
            lts: 0,
            gss: DepVector::zero(1),
        };
        assert!(large.wire_size() > small.wire_size());
        assert_eq!(large.wire_size() - small.wire_size(), 23 * wire::KEY);
    }

    #[test]
    fn slice_carries_value_bytes() {
        let tx = TxId::new(ClientId::new(DcId(0), 0), 1);
        let vid = VersionId::new(5, DcId(0));
        let empty = Msg::RotSlice {
            tx,
            pairs: vec![(Key(1), None)],
            sv: DepVector::zero(2),
        };
        let full = Msg::RotSlice {
            tx,
            pairs: vec![(Key(1), Some((vid, Value::from(vec![0u8; 2048]))))],
            sv: DepVector::zero(2),
        };
        assert!(full.wire_size() >= empty.wire_size() + 2048);
    }

    #[test]
    fn stabilization_messages_are_control_class() {
        assert_eq!(
            Msg::GssBcast {
                gss: DepVector::zero(2)
            }
            .class(),
            MsgClass::Control
        );
        assert_eq!(
            Msg::Heartbeat {
                origin: DcId(0),
                ts: 1
            }
            .class(),
            MsgClass::Control
        );
        assert_eq!(
            Msg::PutReq {
                key: Key(1),
                value: Value::new(),
                lts: 0,
                gss: DepVector::zero(1)
            }
            .class(),
            MsgClass::Data
        );
    }

    #[test]
    fn multi_key_reads_cost_more_cpu() {
        let m = CostModel::calibrated();
        let tx = TxId::new(ClientId::new(DcId(0), 0), 1);
        let one = Msg::RotFwd {
            tx,
            client: Addr::client(DcId(0), 0),
            keys: vec![Key(1)],
            sv: DepVector::zero(1),
        };
        let four = Msg::RotFwd {
            tx,
            client: Addr::client(DcId(0), 0),
            keys: vec![Key(1); 4],
            sv: DepVector::zero(1),
        };
        assert_eq!(four.rx_extra(&m) - one.rx_extra(&m), 3 * m.read_op_ns);
    }
}
