//! Sharded history recording.
//!
//! Every record a node makes goes through the one node step
//! ([`crate::Step`]), which tags it and appends it to its sink's plain
//! `Vec` with no locking: a simulator shard's (the single-threaded engine
//! is the one-shard special case), or a TCP reactor's, flushed to the
//! cluster's log once per handler. [`merge_shard_histories`] folds the
//! streams into one canonical global sequence afterwards. It lives here,
//! in the runtime layer, because history recording is part of the
//! substrate contract every runtime offers ([`crate::ActorCtx::record`]).
//! Under the TCP runtime the key's time is the wall-clock `now` of the
//! recording handler.
//!
//! ## The canonical history order
//!
//! A sharded run has no single "the order events were recorded in" — shards
//! execute concurrently. Instead every record carries a *canonical key*
//! `(virtual time, recording node, per-node record counter)`:
//!
//! * within one node the counter follows execution order, so a node's
//!   subsequence is exactly its real order;
//! * across nodes, ties at equal virtual time break by node id — arbitrary
//!   but engine-independent.
//!
//! Sorting by that key therefore yields the *same* event sequence whether
//! the run executed on one thread or eight, which is what lets the
//! determinism suite fingerprint sharded histories against the
//! single-threaded engines byte for byte.

use contrarian_types::HistoryEvent;

/// One history record plus its canonical key (see the module docs): the
/// virtual time it was recorded at, the global id of the recording node,
/// and that node's running record counter.
#[derive(Clone, Debug)]
pub struct TaggedEvent {
    pub t: u64,
    pub node: u32,
    pub seq: u64,
    pub ev: HistoryEvent,
}

/// Folds per-shard tagged streams into the canonical global sequence.
///
/// The result is identical for any partition of the same records into
/// streams — keys are unique (`(node, seq)` never repeats), so the sort is
/// a total order and the shard count cannot show through.
pub fn merge_shard_histories(
    streams: impl IntoIterator<Item = Vec<TaggedEvent>>,
) -> Vec<HistoryEvent> {
    let mut all: Vec<TaggedEvent> = Vec::new();
    for mut s in streams {
        if all.is_empty() {
            all = s;
        } else {
            all.append(&mut s);
        }
    }
    all.sort_unstable_by_key(|e| (e.t, e.node, e.seq));
    all.into_iter().map(|e| e.ev).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use contrarian_types::{ClientId, DcId, Key, VersionId};

    fn put(seq: u32) -> HistoryEvent {
        HistoryEvent::PutDone {
            client: ClientId::new(DcId(0), 0),
            seq,
            t_start: 0,
            t_end: 1,
            key: Key(1),
            vid: VersionId::new(seq as u64 + 1, DcId(0)),
        }
    }

    fn tagged(t: u64, node: u32, seq: u64) -> TaggedEvent {
        TaggedEvent {
            t,
            node,
            seq,
            ev: put(seq as u32),
        }
    }

    #[test]
    fn merge_is_partition_independent() {
        // The same records, split across shards three different ways, must
        // merge to the same sequence — that independence is what makes
        // sharded histories comparable with single-threaded ones.
        let records = vec![
            tagged(5, 1, 0),
            tagged(5, 0, 3),
            tagged(1, 2, 0),
            tagged(5, 1, 1),
            tagged(9, 0, 4),
        ];
        let key = |e: &TaggedEvent| (e.t, e.node, e.seq);
        let as_one = merge_shard_histories([records.clone()]);
        let split_a = merge_shard_histories([records[..2].to_vec(), records[2..].to_vec()]);
        let by_node: Vec<Vec<TaggedEvent>> = (0..3u32)
            .map(|n| records.iter().filter(|e| e.node == n).cloned().collect())
            .collect();
        let split_b = merge_shard_histories(by_node);
        assert_eq!(format!("{as_one:?}"), format!("{split_a:?}"));
        assert_eq!(format!("{as_one:?}"), format!("{split_b:?}"));
        // And the order really is the canonical key order.
        let mut sorted = records.clone();
        sorted.sort_unstable_by_key(key);
        assert_eq!(
            format!("{:?}", sorted.into_iter().map(|e| e.ev).collect::<Vec<_>>()),
            format!("{as_one:?}")
        );
    }

    fn seqs(events: &[HistoryEvent]) -> Vec<u32> {
        events
            .iter()
            .map(|e| match e {
                HistoryEvent::PutDone { seq, .. } => *seq,
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    }

    /// Records of one node at one virtual time keep the node's own record
    /// order, even when its shard stream lists them out of order.
    #[test]
    fn a_nodes_records_at_one_time_keep_their_counter_order() {
        let merged = merge_shard_histories([
            vec![tagged(7, 3, 2), tagged(7, 3, 0)],
            vec![tagged(7, 3, 1)],
        ]);
        assert_eq!(seqs(&merged), [0, 1, 2]);
    }

    /// At equal virtual time, records of different nodes order by node id
    /// whatever their counters say.
    #[test]
    fn equal_times_break_ties_by_node_id() {
        let merged = merge_shard_histories([
            vec![tagged(4, 2, 0)],
            vec![tagged(4, 0, 9), tagged(3, 5, 8)],
            vec![tagged(4, 1, 5)],
        ]);
        assert_eq!(seqs(&merged), [8, 9, 5, 0]);
    }

    #[test]
    fn merge_of_empty_streams_is_empty() {
        assert!(merge_shard_histories(Vec::<Vec<TaggedEvent>>::new()).is_empty());
        assert!(merge_shard_histories([vec![], vec![]]).is_empty());
    }
}
