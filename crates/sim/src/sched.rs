//! The simulator's event queue — the calendar queue that makes
//! 100+-partition sweeps tractable — and the engine selector, which picks
//! one event loop or one per DC.
//!
//! Both engines implement the *same total order* — events leave strictly
//! by `(t, key)`, where `key` is the deterministic source-attributed event
//! key the simulator computes (see [`crate::shard`]) — so a run is
//! bit-identical under either. That equivalence is load-bearing: the
//! cross-engine determinism tests diff full histories across engines, and
//! the `sim_scale` bench measures them at a fixed, identical workload. The
//! binary heap the calendar queue replaced survives only as the reference
//! its differential tests pop against.
//!
//! ## The calendar queue
//!
//! A single [`std::collections::BinaryHeap`] costs `O(log n)` per
//! operation with `n` the *entire* event population — at 128 partitions and
//! hundreds of closed-loop clients that population is tens of thousands of
//! in-flight messages and timers, and the heap's cache-hostile sifting
//! dominates the engine. The calendar queue exploits what a cluster
//! simulation actually looks like:
//!
//! * most insertions land a few service times ahead of `now` — they go into
//!   an unsorted per-bucket `Vec` (`O(1)` push, [`CalendarQueue::W_NS`]
//!   nanoseconds of virtual time per bucket);
//! * only the *current* bucket needs total order. When time enters a
//!   bucket its `Vec` stays where it is as the payload store, and a side
//!   vector of 24-byte `(t, seq, index)` keys is sorted once, descending,
//!   so the minimum pops off the back and takes its payload by index —
//!   the ~120-byte events themselves are never moved again (heapifying
//!   and sifting them was a sixth of the engine's host time);
//! * events pushed into the loaded bucket's range after it was loaded
//!   (same-tick self-delivery: worker hand-offs, zero-cost injections;
//!   service times shorter than the rest of the bucket) go to the one
//!   small `late` heap — it holds only stragglers created since the load,
//!   a handful where the bucket holds hundreds. A heap rather than a FIFO
//!   because source-attributed keys are not monotone in push order at a
//!   fixed `t`;
//! * the rare far-future event (GC and heartbeat timers) overflows into a
//!   small heap that drains into the wheel as the horizon advances.
//!
//! Insertion is thus `O(1)` for everything but the loaded bucket's
//! stragglers, and only keys of events that are about to execute are ever
//! sorted. Two invariants carry the design:
//!
//! 1. *The payload `Vec` is never reordered after load* — the sorted keys
//!    index into it, and a popped payload leaves a `None` behind.
//! 2. *The drained `Vec` is dropped, not recycled into its wheel slot.*
//!    Keeping the allocations (`clear` + swap back) was measured at
//!    30 → 78 MB RSS on the 32-partition benchmark cluster and slower than
//!    the heap it replaced: 4 096 slots each pin their peak capacity and
//!    the working set leaves cache, whereas a freed bucket's hot chunks
//!    come straight back from the allocator for the next pushes.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Which engine a [`crate::Sim`] runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SchedKind {
    /// One event loop on one calendar queue (the default).
    #[default]
    Calendar,
    /// One event loop and one calendar queue per DC, run in parallel under
    /// conservative per-link windows.
    Sharded,
}

/// The in-process engine list: the calendar reference and one shard per
/// DC. The virtual-identity pins and the conformance battery run every
/// entry, and each must reproduce the calendar run exactly.
pub const ENGINES: [SchedKind; 2] = [SchedKind::Calendar, SchedKind::Sharded];

impl SchedKind {
    /// Parses a `CONTRARIAN_SCHED` value. `None` (unset) defaults to
    /// [`SchedKind::Calendar`]; any other value is an error listing the
    /// valid set — silently falling back would make an engine comparison
    /// measure the calendar queue against itself.
    pub fn parse(value: Option<&str>) -> Result<Self, String> {
        match value {
            Some("calendar") | None => Ok(SchedKind::Calendar),
            Some("sharded") => Ok(SchedKind::Sharded),
            Some(other) => Err(format!(
                "CONTRARIAN_SCHED must be `calendar` (the default) or `sharded`, got `{other}`"
            )),
        }
    }

    /// Reads [`contrarian_runtime::env::SCHED`] from the environment; an
    /// unrecognized value is a hard error (see [`SchedKind::parse`]).
    pub fn from_env() -> Self {
        let value = contrarian_runtime::env::var(contrarian_runtime::env::SCHED);
        Self::parse(value.as_deref()).unwrap_or_else(|e| panic!("{e}"))
    }
}

struct Entry<T> {
    t: u64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.t == other.t && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we need earliest-first.
        (other.t, other.seq).cmp(&(self.t, self.seq))
    }
}

/// What a calendar queue has done so far: plain counters bumped on paths
/// the queue takes anyway. `bucket_events / buckets_loaded` is the mean
/// sort size; `late_pushes` against total pushes says how much traffic
/// bypasses the wheel; `overflow_pushes` how much lies past the horizon.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct QueueStats {
    /// Wheel buckets loaded (sorted) so far.
    pub buckets_loaded: u64,
    /// Events those buckets held when loaded.
    pub bucket_events: u64,
    /// Pushes that landed in the loaded bucket's range (the `late` heap).
    pub late_pushes: u64,
    /// Pushes at or past the wheel's horizon (the overflow heap).
    pub overflow_pushes: u64,
}

impl std::ops::AddAssign for QueueStats {
    fn add_assign(&mut self, o: Self) {
        self.buckets_loaded += o.buckets_loaded;
        self.bucket_events += o.bucket_events;
        self.late_pushes += o.late_pushes;
        self.overflow_pushes += o.overflow_pushes;
    }
}

/// See the module docs for the design.
pub struct CalendarQueue<T> {
    /// Events pushed into (or, after a horizon jump, before) the loaded
    /// bucket's range since it was loaded. A small heap.
    late: BinaryHeap<Entry<T>>,
    /// The loaded bucket's payloads, in push order; never reordered. A pop
    /// takes the item and leaves `None`.
    loaded: Vec<Entry<Option<T>>>,
    /// `(t, seq, index into loaded)` of its unpopped events, sorted
    /// descending: the earliest is at the back.
    keys: Vec<(u64, u64, u32)>,
    /// Future buckets within the horizon, unsorted.
    wheel: Vec<Vec<Entry<Option<T>>>>,
    /// Total events parked in `wheel`.
    wheel_len: usize,
    /// Events at or past the horizon.
    overflow: BinaryHeap<Entry<T>>,
    /// Virtual-time start of the current bucket.
    bucket_start: u64,
    /// Ring index of the current bucket.
    cur_idx: usize,
    /// `t` of the most recent pop (0 before the first).
    last_pop_t: u64,
    len: usize,
    stats: QueueStats,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// Bucket width in virtual nanoseconds (power of two). ~16 µs spans a
    /// handful of service times of the calibrated cost model, keeping the
    /// per-bucket sort small without making the wheel spin hot.
    pub const W_NS: u64 = 1 << Self::W_SHIFT;
    const W_SHIFT: u32 = 14;
    /// Ring size (power of two): horizon = `N_BUCKETS * W_NS` ≈ 67 ms.
    const N_BUCKETS: usize = 4096;

    pub fn new() -> Self {
        CalendarQueue {
            late: BinaryHeap::new(),
            loaded: Vec::new(),
            keys: Vec::new(),
            wheel: std::iter::repeat_with(Vec::new)
                .take(Self::N_BUCKETS)
                .collect(),
            wheel_len: 0,
            overflow: BinaryHeap::new(),
            bucket_start: 0,
            cur_idx: 0,
            last_pop_t: 0,
            len: 0,
            stats: QueueStats::default(),
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Wheel span in nanoseconds; `bucket_start + SPAN` is the horizon, but
    /// all range tests are phrased as `t - bucket_start < SPAN` (saturating)
    /// so times near `u64::MAX` — far-future timers — never overflow the
    /// addition.
    const SPAN_NS: u64 = (Self::N_BUCKETS as u64) << Self::W_SHIFT;

    #[inline]
    pub fn push(&mut self, t: u64, seq: u64, item: T) {
        debug_assert!(t >= self.last_pop_t, "scheduling into the past");
        self.len += 1;
        // `t` can sit below `bucket_start` right after a horizon jump (the
        // pop cursor lags the jump); saturating_sub folds that case — and
        // `t == last_pop_t` — into the late heap, which tolerates early
        // times.
        let off_ns = t.saturating_sub(self.bucket_start);
        if off_ns < Self::W_NS {
            self.late.push(Entry { t, seq, item });
            self.stats.late_pushes += 1;
        } else if off_ns < Self::SPAN_NS {
            let off = (off_ns >> Self::W_SHIFT) as usize;
            let idx = (self.cur_idx + off) & (Self::N_BUCKETS - 1);
            let item = Some(item);
            self.wheel[idx].push(Entry { t, seq, item });
            self.wheel_len += 1;
        } else {
            self.overflow.push(Entry { t, seq, item });
            self.stats.overflow_pushes += 1;
        }
    }

    #[inline]
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        loop {
            // The global minimum is the smaller of the late heap's top and
            // the loaded bucket's last key (all other events sit in
            // strictly later buckets or past the horizon).
            let take_late = match (self.late.peek(), self.keys.last()) {
                (Some(l), Some(&(t, seq, _))) => (l.t, l.seq) < (t, seq),
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => {
                    if !self.advance() {
                        return None;
                    }
                    continue;
                }
            };
            let (t, seq, item) = if take_late {
                let e = self.late.pop().expect("checked peek");
                (e.t, e.seq, e.item)
            } else {
                let (t, seq, i) = self.keys.pop().expect("checked last");
                let item = self.loaded[i as usize].item.take();
                (t, seq, item.expect("a key pops once"))
            };
            self.last_pop_t = t;
            self.len -= 1;
            return Some((t, seq, item));
        }
    }

    /// Engine self-telemetry: what the queue has done so far.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Timestamp of the earliest pending event (see [`Self::peek_key`]).
    #[inline]
    pub fn peek_t(&mut self) -> Option<u64> {
        self.peek_key().map(|(t, _)| t)
    }

    /// `(t, seq)` of the earliest pending event. Takes `&mut self` because
    /// it rotates the wheel if the current bucket is exhausted —
    /// observationally pure. The sharded engine uses the full key to pick
    /// the globally minimal event across shard queues in lockstep mode.
    pub fn peek_key(&mut self) -> Option<(u64, u64)> {
        loop {
            let key = match (self.late.peek(), self.keys.last()) {
                (Some(l), Some(&(t, seq, _))) => Some((l.t, l.seq).min((t, seq))),
                (Some(l), None) => Some((l.t, l.seq)),
                (None, Some(&(t, seq, _))) => Some((t, seq)),
                (None, None) => None,
            };
            if key.is_some() {
                return key;
            }
            if !self.advance() {
                return None;
            }
        }
    }

    /// Rotates the wheel to the next non-empty bucket and loads it: the
    /// bucket's `Vec` becomes the payload store (the drained one is
    /// dropped here) and its keys are sorted. Returns false when no events
    /// remain anywhere.
    fn advance(&mut self) -> bool {
        debug_assert!(self.late.is_empty() && self.keys.is_empty());
        if self.wheel_len == 0 {
            // Wheel drained: jump the horizon straight to the overflow's
            // earliest event (far-future timers in an otherwise idle
            // cluster).
            if self.overflow.is_empty() {
                return false;
            }
            let t_min = self.overflow.peek().expect("non-empty").t;
            self.bucket_start = t_min & !(Self::W_NS - 1);
            self.migrate_overflow();
            debug_assert!(!self.wheel[self.cur_idx].is_empty());
        } else {
            loop {
                self.cur_idx = (self.cur_idx + 1) & (Self::N_BUCKETS - 1);
                self.bucket_start += Self::W_NS;
                self.migrate_overflow();
                if !self.wheel[self.cur_idx].is_empty() {
                    break;
                }
            }
        }
        self.loaded = std::mem::take(&mut self.wheel[self.cur_idx]);
        self.wheel_len -= self.loaded.len();
        let keys = self.loaded.iter().zip(0u32..);
        self.keys.extend(keys.map(|(e, i)| (e.t, e.seq, i)));
        self.keys.sort_unstable_by(|a, b| b.cmp(a));
        self.stats.buckets_loaded += 1;
        self.stats.bucket_events += self.loaded.len() as u64;
        true
    }

    /// Drains overflow events that now fall inside the horizon into their
    /// wheel buckets. The range test is subtraction-based for the same
    /// `u64::MAX`-safety reason as [`Self::push`]: with `bucket_start` in
    /// the top wheel-span of the u64 range, `bucket_start + SPAN_NS` would
    /// wrap and strand far-future events in the overflow heap forever.
    fn migrate_overflow(&mut self) {
        while let Some(e) = self.overflow.peek() {
            if e.t.saturating_sub(self.bucket_start) >= Self::SPAN_NS {
                break;
            }
            let e = self.overflow.pop().expect("peeked");
            let off = (e.t.saturating_sub(self.bucket_start) >> Self::W_SHIFT) as usize;
            let idx = (self.cur_idx + off) & (Self::N_BUCKETS - 1);
            let (t, seq, item) = (e.t, e.seq, Some(e.item));
            self.wheel[idx].push(Entry { t, seq, item });
            self.wheel_len += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;

    #[test]
    fn sched_kind_parses_valid_values_and_default() {
        assert_eq!(
            SchedKind::parse(Some("calendar")).unwrap(),
            SchedKind::Calendar
        );
        assert_eq!(
            SchedKind::parse(Some("sharded")).unwrap(),
            SchedKind::Sharded
        );
        assert_eq!(SchedKind::parse(None).unwrap(), SchedKind::Calendar);
    }

    #[test]
    fn sched_kind_rejects_unknown_values_listing_the_valid_set() {
        // A typo must be a hard error, not a silent calendar fallback (an
        // engine comparison would measure calendar vs itself), and so must
        // the removed forms: the heap engine and explicit shard counts.
        for bogus in ["heap", "sharded:2", "sharded:", "Calendar", "wheel", ""] {
            let err = SchedKind::parse(Some(bogus)).unwrap_err();
            assert!(err.contains("`calendar`"), "{err}");
            assert!(err.contains("`sharded`"), "{err}");
            assert!(err.contains(&format!("`{bogus}`")), "{err}");
        }
    }

    fn drain<T>(q: &mut CalendarQueue<T>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some((t, seq, _)) = q.pop() {
            out.push((t, seq));
        }
        out
    }

    #[test]
    fn calendar_pops_in_t_seq_order() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        // Same tick, far future, next bucket, current bucket.
        q.push(0, 1, 0);
        q.push(500_000_000, 2, 0); // overflow (beyond 67 ms horizon)
        q.push(CalendarQueue::<u32>::W_NS * 3, 3, 0);
        q.push(100, 4, 0);
        q.push(0, 5, 0);
        let order = drain(&mut q);
        assert_eq!(
            order,
            vec![
                (0, 1),
                (0, 5),
                (100, 4),
                (CalendarQueue::<u32>::W_NS * 3, 3),
                (500_000_000, 2)
            ]
        );
    }

    #[test]
    fn same_tick_ties_break_by_seq_across_lanes() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        let t = CalendarQueue::<u32>::W_NS * 2 + 100;
        q.push(t, 1, 0); // wheel, then the loaded bucket's sorted keys
        q.push(t, 4, 0);
        assert_eq!(q.pop().map(|e| e.1), Some(1));
        // now == t: same-tick pushes take the late heap and must interleave
        // by key with what the loaded bucket still holds.
        q.push(t, 3, 0);
        q.push(t, 5, 0);
        assert_eq!(q.pop().map(|e| e.1), Some(3));
        assert_eq!(q.pop().map(|e| e.1), Some(4));
        assert_eq!(q.pop().map(|e| e.1), Some(5));
    }

    #[test]
    fn late_heap_orders_out_of_order_keys() {
        // Source-attributed keys are not monotone in push order: a
        // same-tick event pushed *later* may carry a *smaller* key (a
        // lower-numbered node scheduling behind a higher-numbered one).
        // The late heap must pop by key, not insertion order.
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        q.push(50, 10, 0);
        assert_eq!(q.pop().map(|e| e.1), Some(10));
        q.push(50, 9, 0); // pushed first, larger key
        q.push(50, 3, 0); // pushed second, smaller key
        assert_eq!(q.pop().map(|e| e.1), Some(3));
        assert_eq!(q.pop().map(|e| e.1), Some(9));
    }

    #[test]
    fn heap_and_calendar_agree_on_a_dense_schedule() {
        // The reference: one global binary min-heap of `(t, seq)`, the
        // engine the calendar queue replaced.
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut cal: CalendarQueue<u32> = CalendarQueue::new();
        // Deterministic pseudo-random interleaving of pushes and pops,
        // with keys drawn pseudo-randomly (unique, but *not* monotone in
        // push order — the shape source-attributed keys have).
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut rnd = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut seq = 0;
        let mut now = 0u64;
        let mut step = |heap: &mut BinaryHeap<Reverse<(u64, u64)>>,
                        cal: &mut CalendarQueue<u32>,
                        dts: [u64; 4]| {
            if rnd() % 3 != 0 {
                seq += 1;
                let dt = match dts[(rnd() % 4) as usize] {
                    0 => 0,
                    span => rnd() % span,
                };
                // Unique key that scrambles push order within a tick.
                let key = (rnd() % 1024) << 40 | seq;
                heap.push(Reverse((now + dt, key)));
                cal.push(now + dt, key, 0);
            } else {
                let a = heap.pop().map(|Reverse(e)| e);
                let b = cal.pop().map(|e| (e.0, e.1));
                assert_eq!(a, b);
                if let Some((t, _)) = a {
                    now = t;
                }
            }
        };
        // Mixed: same tick, loaded bucket, wheel, overflow.
        for _ in 0..5_000 {
            step(&mut heap, &mut cal, [0, 1_000, 1_000_000, 200_000_000]);
        }
        // Loaded bucket: nearly every push lands in the bucket being
        // popped (the late heap beside the sorted keys) while the backlog
        // of the first phase drains through it.
        for _ in 0..5_000 {
            step(&mut heap, &mut cal, [0, 100, 2_000, 16_000]);
        }
        let late = cal.stats().late_pushes;
        assert!(
            late > 3_000,
            "loaded-bucket pushes take the late lane: {late}"
        );
        // Overflow only: everything lands past the horizon, so draining
        // must migrate it back through the wheel, across several jumps.
        let span = CalendarQueue::<u32>::SPAN_NS;
        for _ in 0..3_000 {
            step(&mut heap, &mut cal, [span, 2 * span, 8 * span, 64 * span]);
        }
        let reference: Vec<(u64, u64)> =
            std::iter::from_fn(|| heap.pop().map(|Reverse(e)| e)).collect();
        assert_eq!(reference, drain(&mut cal));
        let stats = cal.stats();
        assert!(stats.overflow_pushes > 1_500, "{stats:?}");
        assert!(stats.buckets_loaded > 0 && stats.bucket_events >= stats.buckets_loaded);
    }

    #[test]
    fn peek_matches_next_pop() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        q.push(70_000_000, 1, 0);
        assert_eq!(q.peek_t(), Some(70_000_000));
        assert_eq!(q.peek_key(), Some((70_000_000, 1)));
        assert_eq!(q.pop().map(|e| e.0), Some(70_000_000));
        assert_eq!(q.peek_t(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn stats_count_each_lane_a_push_takes() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        assert_eq!(q.stats(), QueueStats::default());
        q.push(100, 1, 0); // inside the current bucket: late lane
        q.push(CalendarQueue::<u32>::W_NS * 3, 2, 0); // wheel
        q.push(500_000_000, 3, 0); // past the horizon: overflow
        let after_push = q.stats();
        assert_eq!((after_push.late_pushes, after_push.overflow_pushes), (1, 1));
        assert_eq!(after_push.buckets_loaded, 0, "pushes load no bucket");
        assert_eq!(drain(&mut q).len(), 3);
        // The wheel event's bucket, then the overflow event migrated into
        // the bucket the horizon jump lands on.
        let want = QueueStats {
            buckets_loaded: 2,
            bucket_events: 2,
            late_pushes: 1,
            overflow_pushes: 1,
        };
        assert_eq!(q.stats(), want);
    }

    #[test]
    fn peek_is_observationally_pure_across_a_wheel_rotation() {
        // Peeking a later bucket rotates the wheel past earlier, empty
        // buckets. An event pushed behind the new cursor afterwards must
        // still pop first, exactly as if the peek had not happened.
        let w = CalendarQueue::<u32>::W_NS;
        let mut peeked: CalendarQueue<u32> = CalendarQueue::new();
        let mut plain: CalendarQueue<u32> = CalendarQueue::new();
        for q in [&mut peeked, &mut plain] {
            q.push(w * 5, 2, 0);
            q.push(w * 9, 4, 0);
        }
        assert_eq!(peeked.peek_t(), Some(w * 5));
        for q in [&mut peeked, &mut plain] {
            q.push(w + 7, 1, 0);
            q.push(w * 5, 3, 0);
        }
        assert_eq!(peeked.len(), 4);
        let want = vec![(w + 7, 1), (w * 5, 2), (w * 5, 3), (w * 9, 4)];
        assert_eq!(drain(&mut plain), want);
        assert_eq!(drain(&mut peeked), want);
        assert!(peeked.is_empty() && peeked.peek_t().is_none());
    }

    #[test]
    fn idle_cluster_jumps_to_far_timers() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        // Two sparse GC-style timers, hours of virtual time apart.
        q.push(3_600_000_000_000, 1, 0);
        q.push(7_200_000_000_000, 2, 0);
        assert_eq!(q.pop().map(|e| e.0), Some(3_600_000_000_000));
        assert_eq!(q.pop().map(|e| e.0), Some(7_200_000_000_000));
        assert_eq!(q.pop().map(|e| e.0), None);
    }
}
