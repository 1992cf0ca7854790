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
//! Every entry remembers *when* it was parked, so the `_timed` release
//! variants can report how long each item sat blocked — the per-op
//! blocking-time gauge the telemetry layer records. Entries parked through
//! the legacy untimed entry points carry `since = 0` and report a wait of
//! zero rather than a bogus from-the-epoch duration.

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
    /// When the item was parked (0 = unknown: wait not measured).
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

    /// Parks `item` with no wake time: only [`Parked::take_ready`] can
    /// release it. The wait is not measured (`since = 0`); use
    /// [`Parked::park_until_ready_at`] when blocking time matters.
    pub fn park_until_ready(&mut self, item: T) {
        self.q.push_back(Entry {
            wake: u64::MAX,
            since: 0,
            item,
        });
    }

    /// Like [`Parked::park_until_ready`], but stamps the park time so the
    /// `_timed` release variants can report how long the item waited.
    pub fn park_until_ready_at(&mut self, now: u64, item: T) {
        self.q.push_back(Entry {
            wake: u64::MAX,
            since: now,
            item,
        });
    }

    /// Removes and returns every item whose wake time has passed, in park
    /// order.
    pub fn take_due(&mut self, now: u64) -> Vec<T> {
        self.take_due_timed(now)
            .into_iter()
            .map(|(_, t)| t)
            .collect()
    }

    /// [`Parked::take_due`] plus each item's time spent parked (ns; zero
    /// when the park was untimed).
    pub fn take_due_timed(&mut self, now: u64) -> Vec<(u64, T)> {
        let mut due = Vec::new();
        let mut keep = VecDeque::with_capacity(self.q.len());
        for e in self.q.drain(..) {
            if e.wake <= now {
                due.push((waited(e.since, now), e.item));
            } else {
                keep.push_back(e);
            }
        }
        self.q = keep;
        due
    }

    /// Removes and returns every item matching `pred`, in park order.
    pub fn take_ready(&mut self, mut pred: impl FnMut(&T) -> bool) -> Vec<T> {
        self.take_ready_timed(u64::MAX, |t| pred(t))
            .into_iter()
            .map(|(_, t)| t)
            .collect()
    }

    /// [`Parked::take_ready`] plus each item's time spent parked, measured
    /// against `now` (ns; zero for untimed parks — and zero when `now` is
    /// the `u64::MAX` sentinel the untimed wrapper passes).
    pub fn take_ready_timed(
        &mut self,
        now: u64,
        mut pred: impl FnMut(&T) -> bool,
    ) -> Vec<(u64, T)> {
        let mut ready = Vec::new();
        let mut keep = VecDeque::with_capacity(self.q.len());
        for e in self.q.drain(..) {
            if pred(&e.item) {
                let w = if now == u64::MAX {
                    0
                } else {
                    waited(e.since, now)
                };
                ready.push((w, e.item));
            } else {
                keep.push_back(e);
            }
        }
        self.q = keep;
        ready
    }
}

fn waited(since: u64, now: u64) -> u64 {
    if since == 0 {
        0
    } else {
        now.saturating_sub(since)
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
        assert_eq!(ctx.timers.len(), 2, "each park arms RESUME");
        assert_eq!(ctx.timers[0].1.kind, timers::RESUME);
        assert_eq!(p.take_due(149), Vec::<&str>::new());
        assert_eq!(p.take_due(150), vec!["early"]);
        assert_eq!(p.len(), 1);
        assert_eq!(p.take_due(u64::MAX - 1), vec!["late"]);
    }

    #[test]
    fn condition_based_release() {
        let mut p: Parked<u32> = Parked::new();
        p.park_until_ready(1);
        p.park_until_ready(2);
        p.park_until_ready(3);
        assert_eq!(p.take_due(u64::MAX - 1), Vec::<u32>::new(), "no wake time");
        assert_eq!(p.take_ready(|x| x % 2 == 1), vec![1, 3]);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn timed_release_reports_wait_durations() {
        let addr = Addr::server(DcId(0), PartitionId(0));
        let mut ctx: ScriptCtx<u32> = ScriptCtx::new(addr);
        let mut p: Parked<&'static str> = Parked::new();
        ctx.now = 1_000;
        p.park(&mut ctx, 500, "timer");
        let due = p.take_due_timed(2_000);
        assert_eq!(due, vec![(1_000, "timer")], "waited now - park time");

        p.park_until_ready_at(3_000, "dep");
        p.park_until_ready("untimed"); // wait reads as zero
        let mut rel = p.take_ready_timed(3_750, |_| true);
        rel.sort_by_key(|(w, _)| *w);
        assert_eq!(rel[0].0, 0, "untimed park reports zero wait");
        assert_eq!(rel[1], (750, "dep"));
    }

    #[test]
    fn untimed_wrappers_stay_compatible() {
        let mut p: Parked<u32> = Parked::new();
        p.park_until_ready_at(500, 7);
        assert_eq!(p.take_ready(|_| true), vec![7], "untimed take still works");
    }
}
