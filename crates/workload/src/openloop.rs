//! Open-loop load generation: Poisson arrivals over the Zipf key
//! population, millions of logical sessions per driver actor.
//!
//! ## Model
//!
//! A closed-loop client ([`crate::ClientDriver`] behind
//! [`crate::OpSource::Closed`]) issues its next operation the instant the
//! previous one completes, so offered load is capped by round-trip latency
//! — it physically cannot saturate a fast backend. The open-loop driver
//! inverts that: every *logical session* has its own Poisson arrival
//! process (exponential inter-arrival times at the configured per-session
//! rate), and arrivals fire whether or not earlier operations finished.
//!
//! One [`OpenLoopDriver`] multiplexes a shard of sessions onto a single
//! driver actor. It keeps a pending-arrival calendar (≈ 9 bytes per
//! session, so a million sessions across a bounded actor pool is cheap)
//! and answers [`draw`](OpenLoopDriver::draw) with either the next *due*
//! operation — tagged with its scheduled arrival time — or the instant the
//! actor should wake up next.
//!
//! ## The session calendar
//!
//! The session set is fixed and every session has exactly one pending
//! arrival, so the calendar is an intrusive bucket ring rather than a
//! heap: one word per session threads it onto the list of the bucket
//! `due >> shift` (taken modulo the ring), the bucket width is derived
//! once from the shard's aggregate rate (≈ 32 arrivals per bucket, a ring
//! of a quarter as many slots as sessions, so ≥ 8 mean session gaps
//! long), and only the *loaded* bucket is ordered — a small vector sorted
//! descending, minimum at the back. Loading a bucket walks its list, sorts
//! the entries that belong to this lap and leaves those of a later lap
//! linked. A rescheduled arrival that falls at or before the loaded bucket
//! is a binary-search insert into that vector. A draw thus touches a few
//! independent cache lines where a binary heap of the same sessions walks
//! a dozen dependent ones (the heap was a quarter of the simulator's host
//! time at a million sessions). Pops are strictly ascending in
//! `(due, session)` — the order the heap produced; it survives as the
//! test-only reference model of a differential proptest.
//!
//! ### Eight bytes per linked session
//!
//! With `k` the bit width of the session count, a session's word holds its
//! list link in the low `k` bits (all ones ends a list) and its due time
//! *modulo* `W = 2^(64 − k)` in the high bits; with the ring's `u32` head
//! per four sessions that is ≈ 9 bytes per session (8 + 1; the benchmark's
//! 3 906-session shards: 8 + 1.05). The truncation is exact because of
//! one rule: a session is linked only when its due lies in the *window*
//! `[start, start + W)`, `start` being the loaded bucket's first instant.
//! Starts only grow, so at any later load each linked due still lies in
//! `[start, start + W)` and decodes as `start + ((stored − start) mod W)`.
//! A due past the window waits in a small `far` heap and rejoins the ring
//! when the window reaches it (the shape of the calendar queue's overflow
//! heap; a bucket is capped at half the window so the rejoin always lands
//! in a bucket not yet loaded). At benchmark rates the far heap stays
//! empty: a gap is at most 53·ln 2 ≈ 36.7 mean session gaps (the RNG's
//! 53-bit floats), ≤ 5·10¹¹ ns on every rung, against `W` ≥ 2^52 ns. Only
//! shards slower than about one op per `W / 37` per session use it.
//!
//! ## Coordinated omission
//!
//! The scheduled arrival time (`intended`) is the latency clock's start,
//! *not* the moment the actor got around to sending the request. When the
//! actor (or the backend behind it) falls behind, overdue arrivals drain
//! back-to-back and each one's measured latency includes the full time it
//! spent queued in the driver — the saturation signal coordinated-omission
//! -blind drivers silently discard. See
//! `contrarian_runtime::metrics::Histogram::record_corrected` for the
//! complementary correction applied to closed-loop histograms.
//!
//! ## Determinism
//!
//! All randomness (inter-arrival gaps and the operation mix) is drawn from
//! the calling actor's RNG stream in calendar order, and the order of the
//! draws is a contract: priming draws one gap per session in session
//! order, and a due arrival draws its session's next gap *then* its
//! operation. Calendar keys `(due, session)` are unique, so pops are a
//! total order and a fixed seed yields the identical arrival sequence on
//! every engine — arrivals are ordinary timer events under simulation,
//! preserving bit-identical histories across
//! `CONTRARIAN_SCHED=heap/calendar/sharded`
//! (`tests/arrival_pin.rs` pins the stream itself).

use crate::driver::ClientDriver;
use crate::source::Draw;
use rand::rngs::SmallRng;
use rand::RngExt;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Target arrivals per calendar bucket (the width rounds up to a power of
/// two): enough that a ring of a quarter as many slots as sessions spans
/// ≥ 8 mean session gaps, so few sessions wait a lap out and get re-walked,
/// few enough that the loaded bucket sorts in a few cache lines.
const ARRIVALS_PER_BUCKET: f64 = 32.0;

/// Exact-order calendar of one pending arrival per session. See the
/// module docs for the design.
struct SessionCalendar {
    /// Per *linked* session: its due time modulo the window `W` in the
    /// high bits, the next session on the same bucket list (or `nil`) in
    /// the low `link_bits`.
    word: Vec<u64>,
    /// List head per ring slot (power-of-two many), or `nil`.
    head: Vec<u32>,
    /// Bits of a link: the bit width of the session count, so the
    /// all-ones `nil` is never a session index.
    link_bits: u32,
    /// The list terminator, `2^link_bits − 1`.
    nil: u32,
    /// Sessions currently linked into the ring.
    linked: u32,
    /// Bucket of a time is `t >> shift`; its ring slot is that modulo the
    /// ring size.
    shift: u32,
    /// The loaded bucket (and anything rescheduled at or before it),
    /// sorted descending: the earliest `(due, session)` is at the back.
    /// Every session is here, linked into a *later* bucket or in `far`,
    /// so once primed this is never empty between draws.
    cur: Vec<(u64, u32)>,
    /// Absolute number of the loaded bucket.
    cur_bucket: u64,
    /// Arrivals at or past the window, earliest first.
    far: BinaryHeap<Reverse<(u64, u32)>>,
}

impl SessionCalendar {
    fn new(sessions: u32, mean_gap_ns: f64) -> Self {
        let n = sessions as usize;
        let link_bits = u32::BITS - sessions.leading_zeros();
        let nil = ((1u64 << link_bits) - 1) as u32;
        // The shard's arrivals are `mean_gap / sessions` apart on average.
        // Saturating float cast: sub-ns widths clamp to 1 ns buckets.
        let width_ns = (ARRIVALS_PER_BUCKET * mean_gap_ns / sessions as f64) as u64;
        let ceil_log2 = u64::BITS - (width_ns.max(1) - 1).leading_zeros();
        SessionCalendar {
            word: vec![0; n],
            head: vec![nil; (n / 4).max(1).next_power_of_two()],
            link_bits,
            nil,
            linked: 0,
            // At most half the window: see `load_next`.
            shift: ceil_log2.min(63 - link_bits),
            cur: Vec::new(),
            cur_bucket: 0,
            far: BinaryHeap::new(),
        }
    }

    /// `W − 1`, the largest offset from the loaded bucket's start at which
    /// a due may be linked.
    #[inline]
    fn window(&self) -> u64 {
        u64::MAX >> self.link_bits
    }

    #[inline]
    fn push(&mut self, due: u64, session: u32) {
        if due >> self.shift <= self.cur_bucket {
            let at = self.cur.partition_point(|&e| e > (due, session));
            self.cur.insert(at, (due, session));
        } else if due - (self.cur_bucket << self.shift) <= self.window() {
            self.link(due, session);
        } else {
            self.far.push(Reverse((due, session)));
        }
    }

    /// Threads `session` onto the list of `due`'s bucket, which must lie
    /// in the window and not before the loaded bucket.
    #[inline]
    fn link(&mut self, due: u64, session: u32) {
        let slot = ((due >> self.shift) & (self.head.len() as u64 - 1)) as usize;
        self.word[session as usize] = due << self.link_bits | self.head[slot] as u64;
        self.head[slot] = session;
        self.linked += 1;
    }

    /// Schedules every session's first arrival, in session order, on a
    /// calendar anchored at `now` (no arrival is earlier).
    fn prime(&mut self, now: u64, mut first_due: impl FnMut() -> u64) {
        self.cur_bucket = now >> self.shift;
        for s in 0..self.word.len() as u32 {
            self.push(first_due(), s);
        }
        if self.cur.is_empty() {
            self.load_next();
        }
    }

    /// The earliest pending `(due, session)`.
    #[inline]
    fn peek(&self) -> Option<(u64, u32)> {
        self.cur.last().copied()
    }

    /// Moves the earliest session's arrival to `due` (the pop and the push
    /// of one draw), then makes sure the next minimum is loaded.
    #[inline]
    fn reschedule_min(&mut self, due: u64) {
        let (_, session) = self.cur.pop().expect("a primed calendar is never empty");
        self.push(due, session);
        if self.cur.is_empty() {
            self.load_next();
        }
    }

    /// Advances to the next bucket holding an arrival of its own lap and
    /// sorts it into `cur`. Requires at least one session outside `cur`.
    fn load_next(&mut self) {
        let (mask, window, nil) = (self.head.len() as u64 - 1, self.window(), self.nil);
        while self.cur.is_empty() {
            self.cur_bucket = match self.far.peek() {
                // Ring drained: jump straight to the far heap's earliest
                // arrival (a shard much slower than its window).
                Some(&Reverse((due, _))) if self.linked == 0 => due >> self.shift,
                _ => self.cur_bucket + 1,
            };
            let start = self.cur_bucket << self.shift;
            // Far arrivals the window now reaches rejoin the ring. The
            // first time one fits, it is still ≥ W − width ≥ width past
            // `start` (a bucket is at most half the window), so it lands in
            // a bucket not yet loaded — unless the jump above loaded its
            // own bucket, whose list is walked next.
            while let Some(&Reverse((due, s))) = self.far.peek() {
                if due - start > window {
                    break;
                }
                self.far.pop();
                self.link(due, s);
            }
            let slot = (self.cur_bucket & mask) as usize;
            let mut s = std::mem::replace(&mut self.head[slot], nil);
            while s != nil {
                let word = self.word[s as usize];
                // Exact: every linked due lies in `[start, start + W)`.
                let due = start + ((word >> self.link_bits).wrapping_sub(start) & window);
                let after = (word & nil as u64) as u32;
                if due >> self.shift == self.cur_bucket {
                    self.cur.push((due, s));
                    self.linked -= 1;
                } else {
                    // A later lap of the ring: stays linked.
                    self.word[s as usize] = word & !(nil as u64) | self.head[slot] as u64;
                    self.head[slot] = s;
                }
                s = after;
            }
        }
        self.cur.sort_unstable_by(|a, b| b.cmp(a));
    }
}

/// Poisson arrival schedule for one actor's shard of logical sessions.
pub struct OpenLoopDriver {
    gen: ClientDriver,
    sessions: u32,
    /// Mean inter-arrival gap per session, ns.
    mean_gap_ns: f64,
    /// Empty until the first `draw` primes it (the actor's RNG only exists
    /// once the runtime is driving it, and `now` anchors the schedule).
    calendar: SessionCalendar,
    scheduled: u64,
}

/// Inverse-CDF exponential sample, mean `mean_gap_ns`, clamped to ≥1 ns
/// so a session never schedules two arrivals at the same instant.
fn exp_gap(mean_gap_ns: f64, rng: &mut SmallRng) -> u64 {
    let u: f64 = rng.random();
    // `u ∈ [0,1)` so `1-u ∈ (0,1]` and the log is finite and ≤ 0.
    let gap = -(1.0 - u).ln() * mean_gap_ns;
    (gap.ceil() as u64).max(1)
}

impl OpenLoopDriver {
    /// `sessions` logical sessions, each an independent Poisson process at
    /// `session_rate_ops_per_sec`; operations drawn from `gen`'s mix.
    pub fn new(gen: ClientDriver, sessions: u32, session_rate_ops_per_sec: f64) -> Self {
        assert!(sessions > 0, "an open-loop driver needs at least 1 session");
        assert!(
            session_rate_ops_per_sec > 0.0 && session_rate_ops_per_sec.is_finite(),
            "per-session rate must be positive and finite"
        );
        let mean_gap_ns = 1e9 / session_rate_ops_per_sec;
        OpenLoopDriver {
            gen,
            sessions,
            mean_gap_ns,
            calendar: SessionCalendar::new(sessions, mean_gap_ns),
            scheduled: 0,
        }
    }

    pub fn sessions(&self) -> u32 {
        self.sessions
    }

    /// Total arrivals scheduled so far (primed initial arrivals excluded).
    pub fn scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Scheduled time of the earliest pending arrival (`None` before the
    /// first `draw` primes the calendar). A harness reads generator
    /// lateness off it: `now - next_due` whenever that is positive.
    pub fn next_due(&self) -> Option<u64> {
        self.calendar.peek().map(|(due, _)| due)
    }

    /// The next due arrival at time `now`, or when to wake up.
    ///
    /// Overdue arrivals (scheduled while the actor was busy) are returned
    /// immediately, oldest first, each carrying its original scheduled
    /// time as `intended`.
    pub fn draw(&mut self, now: u64, rng: &mut SmallRng) -> Draw {
        let (due, _) = match self.calendar.peek() {
            Some(min) => min,
            None => {
                let mean_gap_ns = self.mean_gap_ns;
                self.calendar.prime(now, || now + exp_gap(mean_gap_ns, rng));
                self.calendar.peek().expect("primed with ≥ 1 session")
            }
        };
        if due > now {
            return Draw::Wait { due };
        }
        // The arrival process is independent of service: the next arrival
        // is anchored at the scheduled time, not at `now`.
        self.calendar
            .reschedule_min(due + exp_gap(self.mean_gap_ns, rng));
        self.scheduled += 1;
        Draw::Op {
            op: self.gen.next_op(rng),
            intended: due,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadSpec;
    use crate::zipf::Zipf;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn gen() -> ClientDriver {
        ClientDriver::new(
            WorkloadSpec::paper_default().with_rot_size(2),
            Arc::new(Zipf::new(64, 0.99)),
            4,
        )
    }

    fn driver(sessions: u32, rate: f64) -> OpenLoopDriver {
        OpenLoopDriver::new(gen(), sessions, rate)
    }

    /// The schedule [`OpenLoopDriver`] kept before the bucket ring — one
    /// binary min-heap of `(due, session)` — as the reference model: same
    /// RNG contract, same answers, plus the session of every arrival.
    struct HeapDriver {
        gen: ClientDriver,
        sessions: u32,
        mean_gap_ns: f64,
        calendar: BinaryHeap<Reverse<(u64, u32)>>,
    }

    impl HeapDriver {
        fn new(sessions: u32, rate: f64) -> Self {
            HeapDriver {
                gen: gen(),
                sessions,
                mean_gap_ns: 1e9 / rate,
                calendar: BinaryHeap::new(),
            }
        }

        fn draw(&mut self, now: u64, rng: &mut SmallRng) -> (Draw, Option<u32>) {
            if self.calendar.is_empty() {
                for s in 0..self.sessions {
                    let due = now + exp_gap(self.mean_gap_ns, rng);
                    self.calendar.push(Reverse((due, s)));
                }
            }
            let &Reverse((due, session)) = self.calendar.peek().expect("primed");
            if due > now {
                return (Draw::Wait { due }, None);
            }
            self.calendar.pop();
            let next = due + exp_gap(self.mean_gap_ns, rng);
            self.calendar.push(Reverse((next, session)));
            let op = self.gen.next_op(rng);
            (Draw::Op { op, intended: due }, Some(session))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Differential test against the heap reference: whatever the
        /// shard size, rate and `now` schedule — small steps, long stalls,
        /// a permanently overdue caller — both produce the same
        /// `(intended, session, op)` arrivals and the same `Wait` answers
        /// from the same RNG stream. Rates of 1e9/s give same-instant ties
        /// across sessions and shift 0; 1e-3/s gives shift > 40; below
        /// ≈ 1e-5/s the largest shards' gaps outrun the window, so arrivals
        /// wait in the far heap and rejoin; gaps shorter than a bucket and
        /// longer than the whole ring (several laps) occur naturally at
        /// every size.
        #[test]
        fn calendar_matches_heap_reference(
            size in (0u8..3, 2u32..48),
            rate_exp in -7.0f64..9.0,
            seed in 0u64..u64::MAX,
            start in (0u8..3, 0u64..1 << 50),
            steps in prop::collection::vec((0u8..8, 0u64..u64::MAX, 1usize..40), 1..120),
        ) {
            let sessions = match size {
                (0, _) => 1,
                (1, n) => n,
                (_, n) => n * 64,
            };
            let rate = 10f64.powf(rate_exp);
            let mut cal = OpenLoopDriver::new(gen(), sessions, rate);
            let mut heap = HeapDriver::new(sessions, rate);
            let (mut rng_c, mut rng_h) = (SmallRng::seed_from_u64(seed), SmallRng::seed_from_u64(seed));
            // The shard's mean inter-arrival gap: the natural step size.
            let shard_gap = ((1e9 / rate / sessions as f64) as u64).max(1);
            let mut now = match start {
                (0, _) => 0,
                (1, t) => t,
                (_, t) => t << 10,
            };
            prop_assert_eq!(cal.next_due(), None);
            let mut ops = 0u64;
            for (kind, raw, draws) in steps {
                now = match kind {
                    0..=3 => now + raw % (4 * shard_gap),
                    4 | 5 => now + raw % (64 * shard_gap),
                    // A stall of many session gaps: everything is overdue.
                    6 => now + raw % (40 * shard_gap).saturating_mul(sessions as u64).min(1 << 56),
                    // The replay's shadow generator: overdue for good.
                    _ => now.max(u64::MAX / 2),
                }
                // Headroom for a 36.7-mean-gap draw at 1e-7/s (≤ 4e17 ns).
                .min(u64::MAX / 4 * 3);
                for _ in 0..draws {
                    let (want, want_session) = heap.draw(now, &mut rng_h);
                    let got_session = cal.calendar.peek().map(|(_, s)| s);
                    let got = cal.draw(now, &mut rng_c);
                    match (&got, &want) {
                        (Draw::Op { op: a, intended: ta }, Draw::Op { op: b, intended: tb }) => {
                            prop_assert_eq!((ta, a), (tb, b));
                            prop_assert_eq!(got_session, want_session);
                            prop_assert!(*ta <= now);
                            ops += 1;
                        }
                        (Draw::Wait { due: a }, Draw::Wait { due: b }) => {
                            prop_assert_eq!(a, b);
                            prop_assert_eq!(cal.next_due(), Some(*a));
                            break;
                        }
                        _ => prop_assert!(false, "{:?} vs {:?}", got, want),
                    }
                }
            }
            prop_assert_eq!(cal.scheduled(), ops);
        }
    }

    /// The ring has a quarter as many slots as sessions, so a bucket holds
    /// ≈ 32 arrivals (rounded up to a power of two) to keep the ring ≥ 8
    /// mean session gaps long; fewer per bucket re-walked lapped sessions
    /// (8 per bucket measured 5–10 % more host time).
    #[test]
    fn bucket_width_follows_the_shard_rate() {
        let shift = |sessions, rate| driver(sessions, rate).calendar.shift;
        assert_eq!(shift(1, 1e9), 5, "32 arrivals of a 1 ns gap");
        assert_eq!(shift(64, 1e9), 0, "sub-ns widths clamp to 1 ns buckets");
        assert!(shift(1, 1e-3) > 40, "3.2e13 ns per bucket");
        assert_eq!(shift(1, 1e-9), 62, "a bucket is at most half the window");
        // The benchmark's shard: 3 906 sessions at 1 op/s, ~8 ms buckets
        // on a ring of 1 024 slots (8.6 s, 8.6 mean gaps), 12-bit links.
        let cal = driver(3906, 1.0).calendar;
        assert_eq!((cal.shift, cal.head.len(), cal.link_bits), (23, 1024, 12));
    }

    #[test]
    fn arrivals_several_ring_laps_out_pop_in_order() {
        // 16 sessions give 4 slots, and 32 arrivals of a 2^15 ns shard gap
        // give 2^20 ns buckets: a ring of ~4 ms. Four sessions are
        // scheduled; dues up to ~1000 laps out share slots with near ones
        // and must stay linked until their own lap comes round.
        let mut cal = SessionCalendar::new(16, 524_288.0);
        assert_eq!((cal.shift, cal.head.len()), (20, 4));
        let mut dues = [5 << 30, 3, (1 << 22) + 7, 1 << 30];
        for (s, &due) in dues.iter().enumerate() {
            cal.push(due, s as u32);
        }
        for round in 0..40u64 {
            let min = dues.iter().zip(0u32..).map(|(&d, s)| (d, s)).min();
            assert_eq!(cal.peek(), min, "round {round}");
            let (due, session) = min.expect("4 sessions");
            // Alternate a hop inside the bucket with a many-lap jump.
            let next = due + if round % 2 == 0 { 100 } else { 37 << 22 };
            dues[session as usize] = next;
            cal.reschedule_min(next);
        }
    }

    #[test]
    fn arrivals_past_the_window_wait_far_and_rejoin_in_order() {
        // 16 sessions: 5-bit links, a window of 2^59 ns. Every third
        // reschedule jumps 3·2^59 ns, past the window, so the four sessions
        // go far one by one; the fourth leaves the ring empty, and the load
        // after it jumps straight to the earliest and takes all four back.
        let mut cal = SessionCalendar::new(16, 524_288.0);
        assert_eq!(cal.window(), (1 << 59) - 1);
        let mut dues = [3, 1 << 21, (1 << 22) + 7, 7 << 22];
        for (s, &due) in dues.iter().enumerate() {
            cal.push(due, s as u32);
        }
        let mut far = Vec::new();
        for round in 0..60u64 {
            let min = dues.iter().zip(0u32..).map(|(&d, s)| (d, s)).min();
            assert_eq!(cal.peek(), min, "round {round}");
            let (due, session) = min.expect("4 sessions");
            let next = due + if round % 3 == 2 { 3 << 59 } else { 37 << 18 };
            dues[session as usize] = next;
            cal.reschedule_min(next);
            if round % 3 == 2 {
                far.push(cal.far.len());
            }
        }
        assert_eq!(far, [1, 2, 3, 0].repeat(5));
    }

    /// Shards much slower than their window: `W` = 2^52 ns ≈ 0.45 mean
    /// gaps at 4 000 sessions of 1e-7/s and 2^47 ns ≈ 1.4 at 70 000 of
    /// 1e-5/s, so most (a quarter) of the sessions start in the far heap.
    /// Each of them rejoins the ring and pops, in the heap reference's
    /// order, draw for draw.
    #[test]
    fn sessions_past_the_window_rejoin_and_match_the_heap_reference() {
        for (sessions, rate) in [(4_000u32, 1e-7), (70_000, 1e-5)] {
            let mut cal = driver(sessions, rate);
            let mut heap = HeapDriver::new(sessions, rate);
            let (mut rng_c, mut rng_h) = (SmallRng::seed_from_u64(11), SmallRng::seed_from_u64(11));
            // Prime both: nothing is due at 0.
            assert!(matches!(heap.draw(0, &mut rng_h).0, Draw::Wait { .. }));
            assert!(matches!(cal.draw(0, &mut rng_c), Draw::Wait { .. }));
            let mut waiting = vec![false; sessions as usize];
            for &Reverse((_, s)) in cal.calendar.far.iter() {
                waiting[s as usize] = true;
            }
            let mut left = cal.calendar.far.len();
            assert!(left > sessions as usize / 5, "{left} start far");
            let mean_gap = (1e9 / rate) as u64;
            let mut now = 0;
            while left > 0 {
                now += mean_gap / sessions as u64 * 16;
                assert!(now < 64 * mean_gap, "{left} never rejoined");
                loop {
                    let (want, want_session) = heap.draw(now, &mut rng_h);
                    let got_session = cal.calendar.peek().map(|(_, s)| s);
                    match (cal.draw(now, &mut rng_c), want) {
                        (
                            Draw::Op {
                                op: a,
                                intended: ta,
                            },
                            Draw::Op {
                                op: b,
                                intended: tb,
                            },
                        ) => {
                            assert_eq!((ta, a, got_session), (tb, b, want_session));
                            let s = got_session.expect("an op has a session") as usize;
                            if std::mem::take(&mut waiting[s]) {
                                left -= 1;
                            }
                        }
                        (Draw::Wait { due: a }, Draw::Wait { due: b }) => {
                            assert_eq!(a, b);
                            break;
                        }
                        (got, want) => panic!("{got:?} vs {want:?}"),
                    }
                }
            }
        }
    }

    /// Drains everything due by `now`, returning the intended times.
    fn drain_due(d: &mut OpenLoopDriver, now: u64, rng: &mut SmallRng) -> Vec<u64> {
        let mut out = Vec::new();
        loop {
            match d.draw(now, rng) {
                Draw::Op { intended, .. } => out.push(intended),
                _ => return out,
            }
        }
    }

    #[test]
    fn arrivals_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut d = driver(16, 1000.0);
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut times = Vec::new();
            for step in 1..=50u64 {
                times.extend(drain_due(&mut d, step * 1_000_000, &mut rng));
            }
            times
        };
        assert_eq!(run(7), run(7), "same seed, same schedule");
        assert_ne!(run(7), run(8), "different seeds diverge");
    }

    #[test]
    fn intended_times_are_nondecreasing_and_at_most_now() {
        let mut d = driver(32, 5000.0);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut last = 0;
        for step in 1..=100u64 {
            let now = step * 500_000;
            for t in drain_due(&mut d, now, &mut rng) {
                assert!(t >= last, "arrivals must drain oldest first");
                assert!(t <= now, "only due arrivals are returned");
                last = t;
            }
        }
    }

    #[test]
    fn wait_names_the_next_due_instant() {
        let mut d = driver(4, 100.0);
        let mut rng = SmallRng::seed_from_u64(9);
        // Prime at t=0; nothing can be due yet.
        match d.draw(0, &mut rng) {
            Draw::Wait { due } => {
                assert!(due > 0);
                // Advancing exactly to `due` yields the op with that
                // intended time.
                match d.draw(due, &mut rng) {
                    Draw::Op { intended, .. } => assert_eq!(intended, due),
                    other => panic!("expected due op, got {other:?}"),
                }
            }
            other => panic!("expected wait, got {other:?}"),
        }
    }

    #[test]
    fn overdue_arrivals_backfill_with_original_intended_times() {
        let mut d = driver(8, 10_000.0);
        let mut rng = SmallRng::seed_from_u64(4);
        let _ = d.draw(0, &mut rng); // prime
                                     // Simulate a long stall: everything due in 10ms drains at once,
                                     // each with its scheduled (not current) timestamp.
        let drained = drain_due(&mut d, 10_000_000, &mut rng);
        assert!(drained.len() > 10, "a stalled actor has a backlog");
        assert!(drained.iter().all(|&t| t <= 10_000_000));
        assert!(
            drained.windows(2).all(|w| w[0] <= w[1]),
            "backlog drains in schedule order"
        );
    }

    #[test]
    fn mean_rate_is_realized() {
        // 64 sessions × 1000 ops/s for 2 virtual seconds ≈ 128k arrivals.
        let mut d = driver(64, 1000.0);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut n = 0u64;
        for step in 1..=2000u64 {
            n += drain_due(&mut d, step * 1_000_000, &mut rng).len() as u64;
        }
        let expected = 128_000.0;
        assert!(
            (n as f64 - expected).abs() / expected < 0.05,
            "arrivals {n} too far from {expected}"
        );
    }

    #[test]
    #[should_panic(expected = "at least 1 session")]
    fn zero_sessions_rejected() {
        driver(0, 1.0);
    }
}
