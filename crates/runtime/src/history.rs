//! A shared, waitable history sink.
//!
//! The TCP runtime records [`HistoryEvent`]s from many node threads and
//! external observers (the facade, conformance tests) block until a
//! matching event appears. [`HistorySink`] pairs the event log with a
//! condition variable so waiters sleep until an append actually happens
//! instead of burning CPU in a poll loop.
//!
//! The simulator records through the *sharded* half of this module
//! instead: each shard (or the single-threaded engine, which is the
//! one-shard special case) appends [`TaggedEvent`]s to a plain local `Vec`
//! with no locking, and [`merge_shard_histories`] folds the per-shard
//! streams into one canonical global sequence afterwards. Both sinks live
//! here, in the runtime layer, because history recording is part of the
//! substrate contract every runtime offers ([`crate::ActorCtx::record`]).
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
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

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

/// The log behind a [`HistorySink`]: the not-yet-drained suffix plus the
/// absolute index of its first element. `events[i]` is the
/// `base + i`-th event ever recorded, so [`HistorySink::drain`] can
/// release memory without invalidating [`HistorySink::wait_for`]'s
/// absolute cursors.
#[derive(Default)]
struct Log {
    base: usize,
    events: Vec<HistoryEvent>,
}

/// An append-only event log multiple threads write and waiters watch.
///
/// A long-running consumer (the saturation driver's streaming checker)
/// calls [`drain`](Self::drain) periodically: drained segments are handed
/// off rather than retained, so the sink holds only the window since the
/// last drain, not the whole run.
#[derive(Default)]
pub struct HistorySink {
    log: Mutex<Log>,
    appended: Condvar,
}

impl HistorySink {
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Log> {
        self.log
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Appends one event and wakes every waiter.
    pub fn append(&self, ev: HistoryEvent) {
        self.lock().events.push(ev);
        self.appended.notify_all();
    }

    /// Number of events currently held (recorded and not yet drained).
    pub fn len(&self) -> usize {
        self.lock().events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever recorded, including drained segments.
    pub fn recorded(&self) -> usize {
        let log = self.lock();
        log.base + log.events.len()
    }

    /// Takes the whole undrained log (post-run extraction) and resets the
    /// drain offset.
    pub fn take(&self) -> Vec<HistoryEvent> {
        let mut log = self.lock();
        log.base = 0;
        std::mem::take(&mut log.events)
    }

    /// Drains the events recorded since the last drain, releasing them
    /// from the sink and advancing the base offset so `wait_for` cursors
    /// (absolute indices) keep their meaning. Intended for one streaming
    /// consumer; a `wait_for` cursor behind the drain point skips the
    /// drained events.
    pub fn drain(&self) -> Vec<HistoryEvent> {
        let mut log = self.lock();
        let seg = std::mem::take(&mut log.events);
        log.base += seg.len();
        seg
    }

    /// Clones the undrained events recorded so far.
    pub fn snapshot(&self) -> Vec<HistoryEvent> {
        self.lock().events.clone()
    }

    /// Blocks until some event at or past `*cursor` satisfies `pred` or
    /// `timeout` expires; advances the cursor past the match. Waiting is
    /// condition-variable based: the thread sleeps until an append occurs.
    pub fn wait_for<F>(
        &self,
        cursor: &mut usize,
        timeout: Duration,
        mut pred: F,
    ) -> Option<HistoryEvent>
    where
        F: FnMut(&HistoryEvent) -> bool,
    {
        let deadline = Instant::now() + timeout;
        let mut log = self.lock();
        // Within this call events are tested once; across calls the cursor
        // only moves past a match, so a later call with a different
        // predicate still sees the skipped-over events. Cursors are
        // absolute indices; events drained away cannot be tested, so a
        // cursor behind the drain point resumes at the drain point.
        let mut scanned = *cursor;
        loop {
            for i in scanned.saturating_sub(log.base)..log.events.len() {
                if pred(&log.events[i]) {
                    *cursor = log.base + i + 1;
                    return Some(log.events[i].clone());
                }
            }
            scanned = log.base + log.events.len();
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _timed_out) = self
                .appended
                .wait_timeout(log, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            log = guard;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contrarian_types::{ClientId, DcId, Key, VersionId};
    use std::sync::Arc;

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

    #[test]
    fn wait_for_sees_events_appended_before_the_wait() {
        let sink = HistorySink::new();
        sink.append(put(0));
        sink.append(put(1));
        let mut cursor = 0;
        let ev = sink.wait_for(&mut cursor, Duration::from_millis(10), |ev| {
            matches!(ev, HistoryEvent::PutDone { seq: 1, .. })
        });
        assert!(ev.is_some());
        assert_eq!(cursor, 2);
    }

    #[test]
    fn wait_for_wakes_on_append_from_another_thread() {
        let sink = Arc::new(HistorySink::new());
        let writer = sink.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            writer.append(put(7));
        });
        let mut cursor = 0;
        let ev = sink.wait_for(&mut cursor, Duration::from_secs(5), |ev| {
            matches!(ev, HistoryEvent::PutDone { seq: 7, .. })
        });
        t.join().unwrap();
        assert!(ev.is_some(), "waiter must wake on append");
    }

    #[test]
    fn wait_for_times_out_without_matching_event() {
        let sink = HistorySink::new();
        sink.append(put(0));
        let mut cursor = 0;
        let ev = sink.wait_for(&mut cursor, Duration::from_millis(20), |ev| {
            matches!(ev, HistoryEvent::PutDone { seq: 99, .. })
        });
        assert!(ev.is_none());
    }

    #[test]
    fn take_empties_the_log() {
        let sink = HistorySink::new();
        sink.append(put(0));
        assert_eq!(sink.take().len(), 1);
        assert!(sink.is_empty());
    }

    #[test]
    fn drain_releases_segments_and_keeps_the_total_count() {
        let sink = HistorySink::new();
        sink.append(put(0));
        sink.append(put(1));
        assert_eq!(sink.drain().len(), 2);
        assert!(sink.is_empty());
        sink.append(put(2));
        assert_eq!(sink.len(), 1, "only the undrained window is held");
        assert_eq!(sink.recorded(), 3, "the total spans drained segments");
        let seg = sink.drain();
        assert_eq!(seg.len(), 1);
        assert!(matches!(seg[0], HistoryEvent::PutDone { seq: 2, .. }));
    }

    #[test]
    fn wait_for_cursors_survive_drains() {
        let sink = HistorySink::new();
        sink.append(put(0));
        sink.append(put(1));
        let mut cursor = 0;
        assert!(sink
            .wait_for(&mut cursor, Duration::from_millis(10), |ev| matches!(
                ev,
                HistoryEvent::PutDone { seq: 1, .. }
            ))
            .is_some());
        assert_eq!(cursor, 2);
        sink.drain();
        sink.append(put(2));
        // The cursor is an absolute index: after draining the first two
        // events it still lines up with the third.
        let ev = sink.wait_for(&mut cursor, Duration::from_millis(10), |_| true);
        assert!(matches!(ev, Some(HistoryEvent::PutDone { seq: 2, .. })));
        assert_eq!(cursor, 3);
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

    #[test]
    fn merge_of_empty_streams_is_empty() {
        assert!(merge_shard_histories(Vec::<Vec<TaggedEvent>>::new()).is_empty());
        assert!(merge_shard_histories([vec![], vec![]]).is_empty());
    }
}
