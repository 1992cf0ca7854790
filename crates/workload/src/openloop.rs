//! Open-loop load generation: Poisson arrivals over the Zipf key
//! population, millions of logical sessions per driver actor.
//!
//! ## Model
//!
//! A closed-loop client ([`crate::ClientDriver`] behind
//! [`crate::OpSource::Closed`]) issues its next operation the instant the
//! previous one completes, so offered load is capped by round-trip latency
//! — it physically cannot saturate a fast backend. The open-loop driver
//! inverts that: every *logical session* is its own Poisson arrival
//! process at the configured per-session rate λ, and arrivals fire whether
//! or not earlier operations finished.
//!
//! One [`OpenLoopDriver`] multiplexes a shard of `n` sessions onto a single
//! driver actor without keeping anything per session. The superposition of
//! `n` independent Poisson(λ) processes is exactly one Poisson(`n`λ)
//! process whose arrivals carry i.i.d. uniform session labels, so the
//! driver draws that merged stream directly: one pending arrival,
//! exponential gaps of mean `1 / (n`λ`)`. It never draws the label because
//! nothing reads one — the operation comes from the actor's own
//! [`ClientDriver`], the causal checker's sessions are the driver actors,
//! and no API returns a session. A million sessions cost what one does;
//! only `sessions × session_rate` per actor matters.
//! [`draw`](OpenLoopDriver::draw) answers with either the next *due*
//! operation — tagged with its scheduled arrival time — or the instant the
//! actor should wake up next.
//!
//! Gaps are whole nanoseconds, rounded to nearest (`exp_gap`), so two
//! arrivals may share an instant. Rounding to nearest keeps the mean gap
//! within `1 / (24·gap)` ns of exact — a relative bias of 4e-4 at a 10 ns
//! shard gap and below 1e-12 at the benchmark's ≥ 250 µs — where rounding
//! up would add ≈ ½ ns per gap (5 % at 10 ns).
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
//! the calling actor's RNG stream, and the order of the draws is a
//! contract: the first `draw` primes the stream with one gap, a due
//! arrival draws the next gap *then* its operation, and a `Wait` draws
//! nothing. Each gap is anchored at the previous scheduled time, never at
//! `now`, so the arrival sequence depends on the seed alone, not on when
//! the actor polls. A fixed seed thus yields the identical arrival
//! sequence on every engine — arrivals are ordinary timer events under
//! simulation, preserving bit-identical histories across the calendar and
//! sharded engines (`tests/arrival_pin.rs` pins the stream itself).

use crate::driver::ClientDriver;
use crate::source::Draw;
use rand::rngs::SmallRng;
use rand::RngExt;

/// Poisson arrival schedule for one actor's shard of logical sessions.
pub struct OpenLoopDriver {
    gen: ClientDriver,
    sessions: u32,
    /// Mean gap of the shard's merged stream, ns:
    /// `1e9 / (sessions × session_rate)`.
    shard_gap_ns: f64,
    /// The pending arrival; `None` until the first `draw` primes it (the
    /// actor's RNG only exists once the runtime is driving it, and `now`
    /// anchors the schedule).
    next: Option<u64>,
    scheduled: u64,
}

/// Inverse-CDF exponential sample, mean `mean_gap_ns`, rounded to the
/// nearest ns (possibly 0: see the module docs on rounding).
fn exp_gap(mean_gap_ns: f64, rng: &mut SmallRng) -> u64 {
    let u: f64 = rng.random();
    // `u ∈ [0,1)` so `1-u ∈ (0,1]` and the log is finite and ≤ 0.
    (-(1.0 - u).ln() * mean_gap_ns).round() as u64
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
        OpenLoopDriver {
            gen,
            sessions,
            shard_gap_ns: 1e9 / (sessions as f64 * session_rate_ops_per_sec),
            next: None,
            scheduled: 0,
        }
    }

    pub fn sessions(&self) -> u32 {
        self.sessions
    }

    /// Heap bytes: its generator's. It keeps nothing per session.
    pub fn heap_bytes(&self) -> usize {
        self.gen.heap_bytes()
    }

    /// Total arrivals scheduled so far (the primed first arrival excluded).
    pub fn scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Scheduled time of the pending arrival (`None` before the first
    /// `draw` primes the stream). A harness reads generator lateness off
    /// it: `now - next_due` whenever that is positive.
    pub fn next_due(&self) -> Option<u64> {
        self.next
    }

    /// The next due arrival at time `now`, or when to wake up.
    ///
    /// Overdue arrivals (scheduled while the actor was busy) are returned
    /// immediately, oldest first, each carrying its original scheduled
    /// time as `intended`.
    pub fn draw(&mut self, now: u64, rng: &mut SmallRng) -> Draw {
        let due = match self.next {
            Some(due) => due,
            None => now + exp_gap(self.shard_gap_ns, rng),
        };
        if due > now {
            self.next = Some(due);
            return Draw::Wait { due };
        }
        // The arrival process is independent of service: the next arrival
        // is anchored at the scheduled time, not at `now`.
        self.next = Some(due + exp_gap(self.shard_gap_ns, rng));
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
    use contrarian_types::Op;
    use rand::SeedableRng;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
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

    /// The per-session model by definition — one pending arrival per
    /// session in a binary min-heap of `(due, session)`, each session
    /// drawing its own exponential gaps — as the reference the merged
    /// stream is compared with *in law* (not draw for draw).
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

        fn draw(&mut self, now: u64, rng: &mut SmallRng) -> Draw {
            if self.calendar.is_empty() {
                for s in 0..self.sessions {
                    let due = now + exp_gap(self.mean_gap_ns, rng);
                    self.calendar.push(Reverse((due, s)));
                }
            }
            let &Reverse((due, session)) = self.calendar.peek().expect("primed");
            if due > now {
                return Draw::Wait { due };
            }
            self.calendar.pop();
            let next = due + exp_gap(self.mean_gap_ns, rng);
            self.calendar.push(Reverse((next, session)));
            let op = self.gen.next_op(rng);
            Draw::Op { op, intended: due }
        }
    }

    /// `n` arrival times drawn by `draw`, primed at 0 and then polled
    /// permanently overdue.
    fn arrival_times(n: usize, mut draw: impl FnMut(u64) -> Draw) -> Vec<u64> {
        assert!(matches!(draw(0), Draw::Wait { .. }), "nothing is due at 0");
        (0..n)
            .map(|_| match draw(u64::MAX / 2) {
                Draw::Op { intended, .. } => intended,
                other => panic!("an overdue driver must yield an op, got {other:?}"),
            })
            .collect()
    }

    /// Two-sample Kolmogorov–Smirnov statistic. Ties are stepped over
    /// together, so integer samples get the exact statistic.
    fn ks_two_sample(mut a: Vec<u64>, mut b: Vec<u64>) -> f64 {
        a.sort_unstable();
        b.sort_unstable();
        let (n, m) = (a.len() as f64, b.len() as f64);
        let (mut i, mut j, mut d) = (0, 0, 0f64);
        while i < a.len() && j < b.len() {
            let x = a[i].min(b[j]);
            while i < a.len() && a[i] == x {
                i += 1;
            }
            while j < b.len() && b[j] == x {
                j += 1;
            }
            d = d.max((i as f64 / n - j as f64 / m).abs());
        }
        d
    }

    /// One-sample Kolmogorov–Smirnov statistic of whole-ns gaps against
    /// Exp(mean `mean_ns`) rounded to the nanosecond — the law `exp_gap`
    /// samples: a gap of `k` ns stands for `[k − ½, k + ½)`.
    fn ks_rounded_exp(mut gaps: Vec<u64>, mean_ns: f64) -> f64 {
        gaps.sort_unstable();
        let cdf = |x: f64| 1.0 - (-x.max(0.0) / mean_ns).exp();
        let n = gaps.len() as f64;
        gaps.iter().enumerate().fold(0f64, |d, (i, &k)| {
            let k = k as f64;
            d.max((i + 1) as f64 / n - cdf(k + 0.5))
                .max(cdf(k - 0.5) - i as f64 / n)
        })
    }

    /// Variance over mean of the arrival counts in consecutive windows of
    /// `width` ns: 1 for a Poisson process.
    fn dispersion(times: &[u64], width: u64) -> f64 {
        let t0 = times[0];
        let windows = ((times[times.len() - 1] - t0) / width) as usize;
        let mut counts = vec![0u64; windows];
        for &t in times {
            if let Some(c) = counts.get_mut(((t - t0) / width) as usize) {
                *c += 1;
            }
        }
        let mean = counts.iter().sum::<u64>() as f64 / windows as f64;
        let var = counts
            .iter()
            .map(|&c| (c as f64 - mean).powi(2))
            .sum::<f64>()
            / (windows - 1) as f64;
        var / mean
    }

    /// The merged stream and the per-session reference are the same
    /// process: on 100 000 gaps a side, their inter-arrival gaps pass a
    /// two-sample KS test and each side a one-sample test against the
    /// rounded Exp(`n`λ), at the α = 0.05 critical values (1.358·√(2/N)
    /// and 1.358/√N); arrivals per window of four mean gaps have
    /// variance/mean within 5 % of 1 (≈ 5 standard errors). Per-session
    /// rates span 1e-3 … 1e6 /s at 1, 64 and 3 906 (the benchmark's shard)
    /// sessions; 3 906 sessions at 1e6 /s, a shard gap of 0.26 ns, is left
    /// out because whole-ns time cannot express it in either model. The
    /// seed follows the shard size only, so across rates each side is one
    /// realization rescaled: the rate sweep holds whole-ns rounding and the
    /// `u64` range to the law from 1e-3 to 1e6 /s. At one session the two
    /// models are the same draws, so there `D` is 0.
    #[test]
    fn merged_stream_is_equal_in_law_to_independent_sessions() {
        const GAPS: usize = 100_000;
        let crit_one = 1.358 / (GAPS as f64).sqrt();
        let crit_two = 1.358 * (2.0 / GAPS as f64).sqrt();
        let gaps = |t: &[u64]| t.windows(2).map(|w| w[1] - w[0]).collect::<Vec<_>>();
        for (sessions, rate) in [
            (1u32, 1e-3),
            (1, 1.0),
            (1, 1e3),
            (1, 1e6),
            (64, 1e-3),
            (64, 1.0),
            (64, 1e3),
            (64, 1e6),
            (3_906, 1e-3),
            (3_906, 1.0),
            (3_906, 1e3),
        ] {
            let shard_gap = 1e9 / (sessions as f64 * rate);
            let seed = 28 + sessions as u64;
            let mut merged = driver(sessions, rate);
            let mut rng = SmallRng::seed_from_u64(seed);
            let merged = arrival_times(GAPS + 1, |now| merged.draw(now, &mut rng));
            let mut heap = HeapDriver::new(sessions, rate);
            let mut rng = SmallRng::seed_from_u64(seed);
            let heap = arrival_times(GAPS + 1, |now| heap.draw(now, &mut rng));
            let at = format!("{sessions} sessions at {rate:e}/s");
            let d = ks_two_sample(gaps(&merged), gaps(&heap));
            assert!(d < crit_two, "{at}: two-sample D {d:.5} ≥ {crit_two:.5}");
            for (side, times) in [("merged", &merged), ("heap", &heap)] {
                let d = ks_rounded_exp(gaps(times), shard_gap);
                assert!(d < crit_one, "{at}, {side}: D {d:.5} ≥ {crit_one:.5}");
                let width = (4.0 * shard_gap).round() as u64;
                let r = dispersion(times, width);
                assert!((0.95..=1.05).contains(&r), "{at}, {side}: var/mean {r:.4}");
            }
        }
    }

    /// The arrival sequence is a function of the seed alone: polling every
    /// millisecond and polling with 0.5 s and 2 s stalls (thousands of
    /// overdue arrivals drained back to back) give the identical
    /// `(intended, op)` sequence, because every gap is anchored at the
    /// previous scheduled time and a `Wait` draws nothing.
    #[test]
    fn arrivals_do_not_depend_on_when_the_driver_is_polled() {
        const OPS: usize = 20_000;
        let run = |stalls: bool| {
            let mut d = driver(3_906, 1.0);
            let mut rng = SmallRng::seed_from_u64(28);
            let mut out: Vec<(u64, Op)> = Vec::with_capacity(OPS);
            let mut now = 0u64;
            for step in 0u64.. {
                now += match step {
                    1_000 if stalls => 500_000_000,
                    3_000 if stalls => 2_000_000_000,
                    _ => 1_000_000,
                };
                while let Draw::Op { op, intended } = d.draw(now, &mut rng) {
                    out.push((intended, op));
                    if out.len() == OPS {
                        return out;
                    }
                }
            }
            unreachable!("the step loop only ends by returning")
        };
        let (smooth, stalled) = (run(false), run(true));
        assert!(smooth.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(smooth, stalled);
    }

    /// Rounding a gap to the nearest ns keeps the realized rate within 1 %
    /// at a 10 ns shard gap (the bias is 1/(24·10) ns per gap); rounding
    /// up read ≈ 5 % slow there. Some gaps round to 0, so arrivals may
    /// share an instant.
    #[test]
    fn rounded_gaps_realize_the_rate_at_a_10_ns_shard_gap() {
        const ARRIVALS: usize = 200_000;
        let mut d = driver(64, 1e8 / 64.0);
        let mut rng = SmallRng::seed_from_u64(28);
        let times = arrival_times(ARRIVALS, |now| d.draw(now, &mut rng));
        let mean_gap = times[ARRIVALS - 1] as f64 / ARRIVALS as f64;
        assert!((mean_gap - 10.0).abs() < 0.1, "mean gap {mean_gap:.4} ns");
        assert!(times.windows(2).any(|w| w[0] == w[1]), "no shared instant");
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

    /// Only `sessions × session_rate` reaches the stream: 4 sessions at
    /// 250 /s and 1 000 000 at 1e-3 /s are one 1 000 /s shard, and draw the
    /// identical `(intended, op)` sequence from one seed.
    #[test]
    fn only_the_shard_rate_matters() {
        let run = |sessions: u32, rate: f64| {
            let mut d = driver(sessions, rate);
            assert_eq!(d.sessions(), sessions);
            let mut rng = SmallRng::seed_from_u64(11);
            let mut out: Vec<(u64, Op)> = Vec::new();
            for step in 1..=200u64 {
                while let Draw::Op { op, intended } = d.draw(step * 1_000_000, &mut rng) {
                    out.push((intended, op));
                }
            }
            out
        };
        let few = run(4, 250.0);
        assert!(
            few.len() > 150,
            "{} arrivals in 0.2 s at 1 000 /s",
            few.len()
        );
        assert_eq!(few, run(1_000_000, 1e-3));
    }

    /// `next_due` is `None` until the first `draw` primes the stream, and
    /// the primed arrival is not yet counted as scheduled. Polling before
    /// it is due keeps answering the same instant and draws nothing from
    /// the RNG.
    #[test]
    fn a_wait_neither_moves_the_schedule_nor_draws() {
        let mut d = driver(16, 100.0);
        let mut rng = SmallRng::seed_from_u64(12);
        assert_eq!(d.next_due(), None);
        let Draw::Wait { due } = d.draw(0, &mut rng) else {
            panic!("nothing is due at 0");
        };
        assert_eq!((d.next_due(), d.scheduled()), (Some(due), 0));
        let untouched = rng.clone();
        for now in [0, due / 3, due - 1] {
            assert!(matches!(d.draw(now, &mut rng), Draw::Wait { due: w } if w == due));
        }
        assert_eq!(d.next_due(), Some(due));
        assert_eq!(rng.random::<u64>(), untouched.clone().random::<u64>());
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
                assert_eq!(d.next_due(), Some(due));
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
        assert_eq!(d.scheduled(), n);
    }

    #[test]
    #[should_panic(expected = "at least 1 session")]
    fn zero_sessions_rejected() {
        driver(0, 1.0);
    }
}
