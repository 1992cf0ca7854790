//! The shared deferred-request queue.
//!
//! Two kinds of deferral occur across the backends and used to be
//! implemented twice as ad-hoc structures:
//!
//! * **time-based** — Cure parks an operation until its physical clock
//!   catches up with a timestamp; the park arms a [`crate::timers::RESUME`]
//!   timer and [`Parked::take_due`] releases everything whose wake time has
//!   passed;
//! * **condition-based** — CC-LO parks a dependency-check reply until the
//!   dependencies install locally; [`Parked::take_ready`] releases
//!   everything matching a predicate after each install.
//!
//! Released items are handed back to the caller, which re-runs its normal
//! handler (and may park again if still not serviceable).
//!
//! Every entry remembers *when* it was parked, so each release reports
//! how long each item sat blocked — the per-op blocking-time gauge the
//! telemetry layer records.

use crate::timers;
use contrarian_runtime::actor::{ActorCtx, TimerKind};
use std::collections::VecDeque;

/// A queue of deferred requests, each with an optional wake time and the
/// park timestamp.
pub struct Parked<T> {
    q: VecDeque<Entry<T>>,
}

struct Entry<T> {
    wake: u64,
    /// When the item was parked.
    since: u64,
    item: T,
}

impl<T> Default for Parked<T> {
    fn default() -> Self {
        Parked { q: VecDeque::new() }
    }
}

impl<T> Parked<T> {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.q.len()
    }

    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Heap bytes: the queue's block plus what `item` says each parked
    /// item holds on the heap.
    pub fn heap_bytes(&self, item: impl Fn(&T) -> usize) -> usize {
        contrarian_types::heap::deque_bytes(&self.q)
            + self.q.iter().map(|e| item(&e.item)).sum::<usize>()
    }

    /// Parks `item` for `delay_ns`, arming the shared RESUME timer. The
    /// server's timer dispatch calls [`Parked::take_due`] on RESUME.
    pub fn park<M>(&mut self, ctx: &mut dyn ActorCtx<M>, delay_ns: u64, item: T) {
        let now = ctx.now();
        self.q.push_back(Entry {
            wake: now + delay_ns,
            since: now,
            item,
        });
        ctx.set_timer(delay_ns, TimerKind::new(timers::RESUME));
    }

    /// Parks `item` at time `now` with no wake time: only
    /// [`Parked::take_ready`] can release it.
    pub fn park_until_ready(&mut self, now: u64, item: T) {
        self.q.push_back(Entry {
            wake: u64::MAX,
            since: now,
            item,
        });
    }

    /// Removes and returns every item whose wake time has passed, in park
    /// order, each with its time spent parked (ns).
    pub fn take_due(&mut self, now: u64) -> Vec<(u64, T)> {
        self.take(now, |e| e.wake <= now)
    }

    /// Removes and returns every item matching `pred`, in park order, each
    /// with its time spent parked until `now` (ns).
    pub fn take_ready(&mut self, now: u64, mut pred: impl FnMut(&T) -> bool) -> Vec<(u64, T)> {
        self.take(now, |e| pred(&e.item))
    }

    fn take(&mut self, now: u64, mut release: impl FnMut(&Entry<T>) -> bool) -> Vec<(u64, T)> {
        let mut out = Vec::new();
        let mut keep = VecDeque::with_capacity(self.q.len());
        for e in self.q.drain(..) {
            if release(&e) {
                out.push((now.saturating_sub(e.since), e.item));
            } else {
                keep.push_back(e);
            }
        }
        self.q = keep;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contrarian_runtime::testkit::ScriptCtx;
    use contrarian_types::{Addr, DcId, PartitionId};

    #[test]
    fn time_based_release_in_park_order() {
        let addr = Addr::server(DcId(0), PartitionId(0));
        let mut ctx: ScriptCtx<u32> = ScriptCtx::new(addr);
        let mut p: Parked<&'static str> = Parked::new();
        ctx.now = 100;
        p.park(&mut ctx, 50, "early");
        p.park(&mut ctx, 500, "late");
        assert_eq!(ctx.sink.timers.len(), 2, "each park arms RESUME");
        assert_eq!(ctx.sink.timers[0].1.kind, timers::RESUME);
        assert_eq!(p.take_due(149), Vec::new());
        assert_eq!(p.take_due(150), vec![(50, "early")]);
        assert_eq!(p.len(), 1);
        assert_eq!(p.take_due(u64::MAX - 1), vec![(u64::MAX - 101, "late")]);
    }

    #[test]
    fn condition_based_release() {
        let mut p: Parked<u32> = Parked::new();
        p.park_until_ready(10, 1);
        p.park_until_ready(20, 2);
        p.park_until_ready(30, 3);
        assert_eq!(p.take_due(u64::MAX - 1), Vec::new(), "no wake time");
        assert_eq!(p.take_ready(40, |x| x % 2 == 1), vec![(30, 1), (10, 3)]);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn timed_release_reports_wait_durations() {
        let addr = Addr::server(DcId(0), PartitionId(0));
        let mut ctx: ScriptCtx<u32> = ScriptCtx::new(addr);
        let mut p: Parked<&'static str> = Parked::new();
        ctx.now = 1_000;
        p.park(&mut ctx, 500, "timer");
        let due = p.take_due(2_000);
        assert_eq!(due, vec![(1_000, "timer")], "waited now - park time");

        p.park_until_ready(3_000, "dep");
        assert_eq!(p.take_ready(3_750, |_| true), vec![(750, "dep")]);
    }

    /// Virtual time starts at 0, so a park at t = 0 is a real park whose
    /// wait must be measured like any other.
    #[test]
    fn a_park_at_time_zero_reports_its_full_wait() {
        let addr = Addr::server(DcId(0), PartitionId(0));
        let mut ctx: ScriptCtx<u32> = ScriptCtx::new(addr);
        let mut p: Parked<&'static str> = Parked::new();
        p.park_until_ready(0, "dep");
        assert_eq!(p.take_ready(750, |_| true), vec![(750, "dep")]);
        ctx.now = 0;
        p.park(&mut ctx, 500, "timer");
        assert_eq!(p.take_due(750), vec![(750, "timer")]);
    }

    /// A release takes only what is due and leaves the rest queued in
    /// park order, whatever order their wake times fall in.
    #[test]
    fn take_due_leaves_later_wakes_queued_in_park_order() {
        let addr = Addr::server(DcId(0), PartitionId(0));
        let mut ctx: ScriptCtx<u32> = ScriptCtx::new(addr);
        let mut p: Parked<&'static str> = Parked::new();
        ctx.now = 0;
        p.park(&mut ctx, 300, "third");
        p.park(&mut ctx, 100, "first");
        p.park(&mut ctx, 200, "second");
        p.park(&mut ctx, 100, "first-too");
        assert_eq!(p.take_due(100), vec![(100, "first"), (100, "first-too")]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.take_due(300), vec![(300, "third"), (300, "second")]);
        assert!(p.is_empty());
    }

    /// An item a predicate passes over keeps its own park time: its wait,
    /// when it is finally released, runs from when it was parked.
    #[test]
    fn items_left_behind_keep_their_park_time() {
        let mut p: Parked<u32> = Parked::new();
        p.park_until_ready(100, 1);
        p.park_until_ready(200, 2);
        assert_eq!(p.take_ready(300, |x| *x == 2), vec![(100, 2)]);
        assert_eq!(p.take_ready(300, |_| false), Vec::new());
        assert_eq!(p.take_ready(1_000, |_| true), vec![(900, 1)]);
        assert!(p.is_empty());
    }

    /// The heap census counts each parked item's own heap, through the
    /// caller's measure, on top of the queue's block.
    #[test]
    fn heap_bytes_adds_each_parked_items_heap() {
        let mut p: Parked<Vec<u8>> = Parked::new();
        assert_eq!(p.heap_bytes(|v| v.capacity()), 0, "no block before a park");
        p.park_until_ready(0, Vec::with_capacity(1_000));
        p.park_until_ready(0, Vec::with_capacity(24));
        let queue_only = p.heap_bytes(|_| 0);
        assert!(queue_only > 0);
        assert_eq!(p.heap_bytes(|v| v.capacity()), queue_only + 1_024);
    }
}
