//! Execution history events used by the causal-consistency checker and by
//! the interactive store facade.
//!
//! Recording is optional (disabled in performance runs); when enabled, every
//! client records the completion of each of its operations, in its session
//! order. The checker in `contrarian-harness` replays these events to verify
//! the causal-snapshot property of ROTs, session guarantees, eventual
//! visibility and convergence.

use crate::ids::{ClientId, TxId};
use crate::key::Key;
use crate::version::VersionId;
use crate::Value;

/// One completed client operation.
#[derive(Clone, Debug)]
pub enum HistoryEvent {
    /// A ROT completed, returning for each key the version observed
    /// (`None` = ⊥, the key did not exist in the snapshot).
    RotDone {
        client: ClientId,
        tx: TxId,
        t_start: u64,
        t_end: u64,
        pairs: Vec<(Key, Option<VersionId>)>,
        /// Values, aligned with `pairs` (kept for the interactive facade;
        /// cheap `Bytes` clones).
        values: Vec<Option<Value>>,
    },
    /// A PUT completed, creating `vid`.
    PutDone {
        client: ClientId,
        /// Client-local PUT sequence number (for matching by the facade).
        seq: u32,
        t_start: u64,
        t_end: u64,
        key: Key,
        vid: VersionId,
    },
}

impl HistoryEvent {
    /// Heap bytes: a ROT's read pairs and values (the value blocks are
    /// their writers').
    pub fn heap_bytes(&self) -> usize {
        match self {
            HistoryEvent::RotDone { pairs, values, .. } => {
                crate::heap::vec_bytes(pairs) + crate::heap::vec_bytes(values)
            }
            HistoryEvent::PutDone { .. } => 0,
        }
    }

    pub fn client(&self) -> ClientId {
        match self {
            HistoryEvent::RotDone { client, .. } => *client,
            HistoryEvent::PutDone { client, .. } => *client,
        }
    }

    pub fn t_end(&self) -> u64 {
        match self {
            HistoryEvent::RotDone { t_end, .. } => *t_end,
            HistoryEvent::PutDone { t_end, .. } => *t_end,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::DcId;

    #[test]
    fn accessors() {
        let c = ClientId::new(DcId(0), 1);
        let ev = HistoryEvent::PutDone {
            client: c,
            seq: 0,
            t_start: 5,
            t_end: 9,
            key: Key(1),
            vid: VersionId::new(7, DcId(0)),
        };
        assert_eq!(ev.client(), c);
        assert_eq!(ev.t_end(), 9);
    }
}
