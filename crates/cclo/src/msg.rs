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
        /// Readers check: a pending version's partition → a partition of
        /// the same DC holding some of its dependencies. Answered once
        /// every dependency in `deps` is installed there: at once for a PUT
        /// of that DC, maybe later for a replicated update.
        ReadersCheck {
            token: u64,
            deps: Vec<Dep>,
            lamport: u64,
        },
        /// The old readers of those keys: at most one ROT id per client.
        ReadersCheckReply {
            token: u64,
            entries: Vec<(TxId, u64)>,
            lamport: u64,
        },
        /// Origin partition → replica partition (async, FIFO), dependencies
        /// attached for the replica's own readers check.
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
            | Msg::ReadersCheck { lamport, .. }
            | Msg::ReadersCheckReply { lamport, .. } => Some(*lamport),
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
            | Msg::ReadersCheck { deps, .. }
            | Msg::Replicate { deps, .. } => heap::vec_bytes(deps),
            Msg::ReadersCheckReply { entries, .. } => heap::vec_bytes(entries),
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
                Msg::ReadersCheck { deps, .. } => 8 + deps_bytes(deps) + wire::TS,
                Msg::ReadersCheckReply { entries, .. } => 8 + entries_bytes(entries) + wire::TS,
                Msg::Replicate { value, deps, .. } => {
                    wire::KEY + value.len() + wire::VERSION_ID + deps_bytes(deps) + 2 * wire::TS
                }
                Msg::Inject(_) => 0,
            }
    }

    fn class(&self) -> MsgClass {
        match self {
            Msg::ReadersCheck { .. } | Msg::ReadersCheckReply { .. } => MsgClass::Control,
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
            Msg::ReadersCheck { deps, .. } => m.read_op_ns / 2 * deps.len() as u64,
            // …and per-id merge work on the reply side: this is the load the
            // readers check injects, linear in the ids carried (Section 5.4).
            Msg::ReadersCheckReply { entries, .. } => m.per_rot_id_ns * entries.len() as u64,
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
        let small = Msg::ReadersCheckReply {
            token: 0,
            entries: vec![(tx(), 1); 10],
            lamport: 0,
        };
        let large = Msg::ReadersCheckReply {
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
        let q = Msg::ReadersCheck {
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
        let msg = Msg::ReadersCheckReply {
            token: 0,
            entries: vec![(tx(), 1); 855],
            lamport: 0,
        };
        assert!(msg.wire_size() >= 6840);
    }

    /// A check's virtual cost: a token, the dependencies and a stamp on
    /// the wire, half a read per dependency on receipt; the reply, per id
    /// carried. Both travel on the control plane.
    #[test]
    fn a_readers_check_and_its_reply_keep_their_virtual_cost() {
        let m = CostModel::calibrated();
        let deps: Vec<Dep> = (0..3)
            .map(|i| (Key(i), VersionId::new(i, DcId(0))))
            .collect();
        let check = Msg::ReadersCheck {
            token: 0,
            deps,
            lamport: 0,
        };
        let dep = wire::KEY + wire::VERSION_ID;
        assert_eq!(check.wire_size(), wire::MSG_HEADER + 8 + 3 * dep + wire::TS);
        assert_eq!(check.rx_extra(&m), m.read_op_ns / 2 * 3);
        let reply = Msg::ReadersCheckReply {
            token: 0,
            entries: vec![(tx(), 1); 4],
            lamport: 0,
        };
        let id = wire::TX_ID + wire::TS;
        assert_eq!(reply.wire_size(), wire::MSG_HEADER + 8 + 4 * id + wire::TS);
        assert_eq!(reply.rx_extra(&m), m.per_rot_id_ns * 4);
        assert_eq!(reply.class(), MsgClass::Control);
    }
}
