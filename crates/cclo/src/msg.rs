//! CC-LO protocol messages and their simulation cost accounting.

use contrarian_protocol::ProtocolMsg;
use contrarian_runtime::cost::{CostModel, MsgClass, SimMessage};
use contrarian_types::{heap, wire};
use contrarian_types::{Key, Op, TxId, Value, VersionId};

/// A dependency: the paper's COPS-style explicit "version Y depends on
/// version X of key x" metadata, carried by PUTs and replication.
pub type Dep = (Key, VersionId);

contrarian_types::wire_enum! {
    /// All messages exchanged by CC-LO nodes.
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub enum Msg {
        /// Client → partition: the one and only ROT round.
        RotRead {
            tx: TxId,
            keys: Vec<Key>,
            lamport: u64,
        },
        /// Partition → client.
        RotSlice {
            tx: TxId,
            pairs: Vec<(Key, Option<(VersionId, Value)>)>,
            lamport: u64,
        },
        /// Client → partition: PUT with its explicit dependency list (every
        /// version read since the client's previous PUT, plus that PUT).
        PutReq {
            key: Key,
            value: Value,
            deps: Vec<Dep>,
            lamport: u64,
        },
        /// Partition → client: sent only after the readers check completed and
        /// the version became visible.
        PutResp {
            key: Key,
            vid: VersionId,
            lamport: u64,
        },
        /// Readers check: PUT partition → dependency partition.
        OldReadersQuery {
            token: u64,
            deps: Vec<Dep>,
            lamport: u64,
        },
        /// The old readers of those keys: at most one ROT id per client.
        OldReadersReply {
            token: u64,
            entries: Vec<(TxId, u64)>,
            lamport: u64,
        },
        /// Origin partition → replica partition (async, FIFO), dependencies
        /// attached for the remote dependency + readers check.
        Replicate {
            key: Key,
            value: Value,
            vid: VersionId,
            deps: Vec<Dep>,
            lamport: u64,
            /// Runtime timestamp of the origin install, so the replica can
            /// measure visibility staleness (zero when unknown).
            birth: u64,
        },
        /// Combined dependency check + readers check (remote DC): answered only
        /// once every dependency in `deps` is installed at the queried partition.
        DepCheckQuery {
            token: u64,
            deps: Vec<Dep>,
            lamport: u64,
        },
        DepCheckReply {
            token: u64,
            entries: Vec<(TxId, u64)>,
            lamport: u64,
        },
        /// Externally injected operation.
        Inject(op: Op),
    }
}

impl Msg {
    /// The Lamport time a server-bound message carries (a `Replicate`'s
    /// version stamp included); `None` for a client-bound one.
    pub(crate) fn stamp(&self) -> Option<u64> {
        match self {
            Msg::RotRead { lamport, .. }
            | Msg::PutReq { lamport, .. }
            | Msg::OldReadersQuery { lamport, .. }
            | Msg::OldReadersReply { lamport, .. }
            | Msg::DepCheckQuery { lamport, .. }
            | Msg::DepCheckReply { lamport, .. } => Some(*lamport),
            Msg::Replicate { lamport, vid, .. } => Some((*lamport).max(vid.ts)),
            Msg::RotSlice { .. } | Msg::PutResp { .. } | Msg::Inject(_) => None,
        }
    }
}

fn deps_bytes(deps: &[Dep]) -> usize {
    deps.len() * (wire::KEY + wire::VERSION_ID)
}

fn entries_bytes(entries: &[(TxId, u64)]) -> usize {
    // A ROT id plus its logical read time.
    entries.len() * (wire::TX_ID + wire::TS)
}

impl SimMessage for Msg {
    fn heap_bytes(&self) -> usize {
        match self {
            Msg::RotRead { keys, .. } => heap::vec_bytes(keys),
            Msg::RotSlice { pairs, .. } => heap::vec_bytes(pairs),
            Msg::PutReq { deps, .. }
            | Msg::OldReadersQuery { deps, .. }
            | Msg::Replicate { deps, .. }
            | Msg::DepCheckQuery { deps, .. } => heap::vec_bytes(deps),
            Msg::OldReadersReply { entries, .. } | Msg::DepCheckReply { entries, .. } => {
                heap::vec_bytes(entries)
            }
            Msg::PutResp { .. } => 0,
            Msg::Inject(op) => op.heap_bytes(),
        }
    }

    fn wire_size(&self) -> usize {
        wire::MSG_HEADER
            + match self {
                Msg::RotRead { keys, .. } => wire::TX_ID + keys.len() * wire::KEY + wire::TS,
                Msg::RotSlice { pairs, .. } => {
                    wire::TX_ID
                        + wire::TS
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
                Msg::PutReq { value, deps, .. } => {
                    wire::KEY + value.len() + deps_bytes(deps) + wire::TS
                }
                Msg::PutResp { .. } => wire::KEY + wire::VERSION_ID + wire::TS,
                Msg::OldReadersQuery { deps, .. } => 8 + deps_bytes(deps) + wire::TS,
                Msg::OldReadersReply { entries, .. } => 8 + entries_bytes(entries) + wire::TS,
                Msg::Replicate { value, deps, .. } => {
                    wire::KEY + value.len() + wire::VERSION_ID + deps_bytes(deps) + 2 * wire::TS
                }
                Msg::DepCheckQuery { deps, .. } => 8 + deps_bytes(deps) + wire::TS,
                Msg::DepCheckReply { entries, .. } => 8 + entries_bytes(entries) + wire::TS,
                Msg::Inject(_) => 0,
            }
    }

    fn class(&self) -> MsgClass {
        match self {
            Msg::OldReadersQuery { .. }
            | Msg::OldReadersReply { .. }
            | Msg::DepCheckQuery { .. }
            | Msg::DepCheckReply { .. } => MsgClass::Control,
            _ => MsgClass::Data,
        }
    }

    fn rx_extra(&self, m: &CostModel) -> u64 {
        match self {
            // Per-key lookup plus reader-record insertion.
            Msg::RotRead { keys, .. } => (m.read_op_ns + m.reader_record_ns) * keys.len() as u64,
            Msg::PutReq { deps, .. } => m.write_op_ns + m.per_rot_id_ns * deps.len() as u64,
            Msg::Replicate { deps, .. } => m.write_op_ns + m.per_rot_id_ns * deps.len() as u64,
            // Record lookups on the query side…
            Msg::OldReadersQuery { deps, .. } | Msg::DepCheckQuery { deps, .. } => {
                m.read_op_ns / 2 * deps.len() as u64
            }
            // …and per-id merge work on the reply side: this is the load the
            // readers check injects, linear in the ids carried (Section 5.4).
            Msg::OldReadersReply { entries, .. } | Msg::DepCheckReply { entries, .. } => {
                m.per_rot_id_ns * entries.len() as u64
            }
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
    use contrarian_types::{ClientId, DcId};

    fn tx() -> TxId {
        TxId::new(ClientId::new(DcId(0), 0), 0)
    }

    #[test]
    fn reply_cost_grows_linearly_with_rot_ids() {
        let m = CostModel::calibrated();
        let small = Msg::OldReadersReply {
            token: 0,
            entries: vec![(tx(), 1); 10],
            lamport: 0,
        };
        let large = Msg::OldReadersReply {
            token: 0,
            entries: vec![(tx(), 1); 500],
            lamport: 0,
        };
        assert_eq!(
            large.rx_extra(&m) - small.rx_extra(&m),
            490 * m.per_rot_id_ns
        );
        assert!(large.wire_size() > small.wire_size());
    }

    #[test]
    fn put_carries_dependency_bytes() {
        let deps: Vec<Dep> = (0..20)
            .map(|i| (Key(i), VersionId::new(i, DcId(0))))
            .collect();
        let with = Msg::PutReq {
            key: Key(0),
            value: Value::new(),
            deps,
            lamport: 0,
        };
        let without = Msg::PutReq {
            key: Key(0),
            value: Value::new(),
            deps: vec![],
            lamport: 0,
        };
        assert_eq!(
            with.wire_size() - without.wire_size(),
            20 * (wire::KEY + wire::VERSION_ID)
        );
    }

    #[test]
    fn checks_travel_on_the_control_plane() {
        let q = Msg::OldReadersQuery {
            token: 0,
            deps: vec![],
            lamport: 0,
        };
        assert_eq!(q.class(), MsgClass::Control);
        let r = Msg::RotRead {
            tx: tx(),
            keys: vec![Key(0)],
            lamport: 0,
        };
        assert_eq!(r.class(), MsgClass::Data);
    }

    #[test]
    fn seven_kb_for_855_ids_matches_paper_scale() {
        // The paper reports ≈855 cumulative ROT ids ≈ 7 KB per readers
        // check (8 bytes per id); with read times attached ours is 2×.
        let msg = Msg::OldReadersReply {
            token: 0,
            entries: vec![(tx(), 1); 855],
            lamport: 0,
        };
        assert!(msg.wire_size() >= 6840);
    }
}
