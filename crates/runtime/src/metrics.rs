//! Latency histograms and run-wide counters.

use std::collections::BTreeMap;

const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
const N_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB + SUB;

/// A log-bucketed histogram (~3% relative resolution, HdrHistogram-style):
/// 32 linear buckets below 32, then 32 sub-buckets per power of two.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
    min: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; N_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
            min: u64::MAX,
        }
    }

    #[inline]
    fn bucket_of(v: u64) -> usize {
        if v < SUB as u64 {
            v as usize
        } else {
            let msb = 63 - v.leading_zeros();
            let shift = msb - SUB_BITS;
            let sub = ((v >> shift) & (SUB as u64 - 1)) as usize;
            ((msb - SUB_BITS + 1) as usize) * SUB + sub
        }
    }

    /// Lower bound of a bucket (inverse of `bucket_of`).
    fn bucket_low(idx: usize) -> u64 {
        if idx < SUB {
            idx as u64
        } else {
            let exp = (idx / SUB - 1) as u32 + SUB_BITS;
            let sub = (idx % SUB) as u64;
            (1u64 << exp) + (sub << (exp - SUB_BITS))
        }
    }

    /// Heap bytes: the bucket vector.
    pub fn heap_bytes(&self) -> usize {
        contrarian_types::heap::vec_bytes(&self.buckets)
    }

    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.max = self.max.max(v);
        self.min = self.min.min(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Approximate `p`-th percentile.
    ///
    /// `p` is clamped into `(0, 100]`: a non-positive `p` means the
    /// smallest meaningful quantile — the lowest occupied bucket's bound —
    /// and anything ≥ 100, or a NaN `p`, behaves like exactly 100, which
    /// returns the *exact* recorded maximum rather than a bucket bound
    /// (bucket lows understate the tail by up to ~3%). Everything strictly
    /// between resolves to the lower bound of the bucket holding the
    /// `ceil(p% · count)`-th sample.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = if p.is_nan() {
            100.0
        } else {
            p.clamp(0.0, 100.0)
        };
        if p >= 100.0 {
            return self.max;
        }
        let target = (((p / 100.0) * self.count as f64).ceil() as u64).max(1);
        let mut acc = 0;
        for (i, n) in self.buckets.iter().enumerate() {
            acc += n;
            if acc >= target {
                return Self::bucket_low(i);
            }
        }
        self.max
    }

    pub fn clear(&mut self) {
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.count = 0;
        self.sum = 0;
        self.max = 0;
        self.min = u64::MAX;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
    }

    /// The interval histogram between a `prev` snapshot of this histogram
    /// and its current state: bucketwise `self − prev`. `prev` must be an
    /// earlier clone of the same histogram (counts only grow), which the
    /// time-series snapshotter ([`crate::window::MetricsWindow`])
    /// guarantees. The interval's min/max are recovered from occupied
    /// bucket bounds (~3% resolution) — except when the run max moved
    /// during the interval, which pins the exact max.
    pub fn diff(&self, prev: &Histogram) -> Histogram {
        let mut out = Histogram::new();
        let mut first = None;
        let mut last = None;
        for (i, (a, b)) in self.buckets.iter().zip(prev.buckets.iter()).enumerate() {
            debug_assert!(a >= b, "histogram buckets only grow");
            let d = a.saturating_sub(*b);
            out.buckets[i] = d;
            if d > 0 {
                first.get_or_insert(i);
                last = Some(i);
            }
        }
        out.count = self.count.saturating_sub(prev.count);
        out.sum = self.sum.saturating_sub(prev.sum);
        if let (Some(lo), Some(hi)) = (first, last) {
            out.min = Self::bucket_low(lo);
            out.max = if self.max > prev.max {
                self.max
            } else {
                Self::bucket_low(hi)
            };
        }
        out
    }
}

/// Run-wide measurement state. `enabled` is flipped on after warmup.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    pub enabled: bool,
    /// End-to-end ROT latency, ns.
    pub rot_latency: Histogram,
    /// End-to-end PUT latency, ns.
    pub put_latency: Histogram,
    pub rots_done: u64,
    pub puts_done: u64,
    /// Messages delivered / bytes moved while enabled.
    pub msgs: u64,
    pub bytes: u64,
    /// Messages a handler refused (a client-bound message delivered to a
    /// server), counted whether or not measurement is enabled.
    pub rejected_msgs: u64,
    /// Aggregate server busy time, ns (utilization diagnostics).
    pub busy_ns: u64,
    /// Visibility staleness: at every remote install, now − the write's
    /// origin birth time (runtime ns — comparable across backends).
    pub vis_staleness: Histogram,
    /// Data staleness: at a read that could not see a key's newest
    /// version, now − that newest-invisible version's birth time (ns).
    pub data_staleness: Histogram,
    /// Stabilization lag: fresh local timestamp − GSS minimum after each
    /// stabilization round, in the backend's *protocol timestamp units*
    /// (HLC-encoded µs for the physical-clock backends, Lamport-scaled
    /// for the logical ones) — comparable within a backend, not across.
    pub gss_lag: Histogram,
    /// Time client requests spent parked until a server's clock admitted
    /// them (Cure's clock waits), ns. No other wait is counted here.
    pub block_ns: Histogram,
    /// Free-form protocol counters (e.g. readers-check statistics).
    pub counters: BTreeMap<&'static str, u64>,
}

impl Metrics {
    pub fn new() -> Self {
        Metrics {
            enabled: false,
            ..Default::default()
        }
    }

    /// Heap bytes: the six histograms and the counter map.
    pub fn heap_bytes(&self) -> usize {
        [
            &self.rot_latency,
            &self.put_latency,
            &self.vis_staleness,
            &self.data_staleness,
            &self.gss_lag,
            &self.block_ns,
        ]
        .iter()
        .map(|h| h.heap_bytes())
        .sum::<usize>()
            + contrarian_types::heap::btree_bytes::<&str, u64>(self.counters.len())
    }

    #[inline]
    pub fn add(&mut self, name: &'static str, delta: u64) {
        if self.enabled {
            *self.counters.entry(name).or_insert(0) += delta;
        }
    }

    /// Counts one refused message.
    #[inline]
    pub fn rejected(&mut self) {
        self.rejected_msgs += 1;
    }

    #[inline]
    pub fn rot_done(&mut self, latency_ns: u64) {
        if self.enabled {
            self.rots_done += 1;
            self.rot_latency.record(latency_ns);
        }
    }

    #[inline]
    pub fn put_done(&mut self, latency_ns: u64) {
        if self.enabled {
            self.puts_done += 1;
            self.put_latency.record(latency_ns);
        }
    }

    /// Records the visibility staleness of one remote install.
    #[inline]
    pub fn vis_stale(&mut self, staleness_ns: u64) {
        if self.enabled {
            self.vis_staleness.record(staleness_ns);
        }
    }

    /// Records the data staleness of one read that missed a newer version.
    #[inline]
    pub fn data_stale(&mut self, staleness_ns: u64) {
        if self.enabled {
            self.data_staleness.record(staleness_ns);
        }
    }

    /// Records the GSS lag after one stabilization round.
    #[inline]
    pub fn gss_lagged(&mut self, lag: u64) {
        if self.enabled {
            self.gss_lag.record(lag);
        }
    }

    /// Records how long one parked operation waited before release.
    #[inline]
    pub fn blocked(&mut self, waited_ns: u64) {
        if self.enabled {
            self.block_ns.record(waited_ns);
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn ops_done(&self) -> u64 {
        self.rots_done + self.puts_done
    }

    /// Zeroes every histogram and counter in place, keeping `enabled`, the
    /// allocations and the counter names.
    pub fn clear(&mut self) {
        for h in [
            &mut self.rot_latency,
            &mut self.put_latency,
            &mut self.vis_staleness,
            &mut self.data_staleness,
            &mut self.gss_lag,
            &mut self.block_ns,
        ] {
            h.clear();
        }
        self.rots_done = 0;
        self.puts_done = 0;
        self.msgs = 0;
        self.bytes = 0;
        self.rejected_msgs = 0;
        self.busy_ns = 0;
        self.counters.values_mut().for_each(|v| *v = 0);
    }

    /// Folds another metrics object into this one (used by the live
    /// transport, where every handler writes into a local scratch that is
    /// merged under a lock afterwards).
    pub fn absorb(&mut self, other: &Metrics) {
        self.rot_latency.merge(&other.rot_latency);
        self.put_latency.merge(&other.put_latency);
        self.rots_done += other.rots_done;
        self.puts_done += other.puts_done;
        self.msgs += other.msgs;
        self.bytes += other.bytes;
        self.rejected_msgs += other.rejected_msgs;
        self.busy_ns += other.busy_ns;
        self.vis_staleness.merge(&other.vis_staleness);
        self.data_staleness.merge(&other.data_staleness);
        self.gss_lag.merge(&other.gss_lag);
        self.block_ns.merge(&other.block_ns);
        for (k, v) in &other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_zeroes_the_totals_but_keeps_the_flag_and_names() {
        let mut m = Metrics::new();
        m.enabled = true;
        m.rot_done(1_000);
        m.put_done(2_000);
        m.vis_stale(3);
        m.add("checks", 4);
        m.msgs = 5;
        m.clear();
        assert!(m.enabled);
        assert_eq!((m.ops_done(), m.msgs, m.rot_latency.count()), (0, 0, 0));
        assert_eq!(m.vis_staleness.count(), 0);
        assert_eq!(m.counters.get("checks"), Some(&0));
        // Folding a cleared copy into totals changes nothing.
        let mut totals = Metrics::new();
        totals.enabled = true;
        totals.rot_done(7);
        totals.absorb(&m);
        assert_eq!((totals.rots_done, totals.rot_latency.max()), (1, 7));
        assert_eq!(totals.rot_latency.min(), 7);
    }

    #[test]
    fn bucket_round_trip_low_values() {
        for v in 0..32u64 {
            let b = Histogram::bucket_of(v);
            assert_eq!(Histogram::bucket_low(b), v);
        }
    }

    #[test]
    fn bucket_low_is_monotone_and_tight() {
        let mut prev = 0;
        for idx in 1..600 {
            let low = Histogram::bucket_low(idx);
            assert!(low > prev, "bucket lows must increase");
            prev = low;
        }
        // Every value lands in a bucket whose low bound is ≤ the value and
        // within ~3.2% of it.
        for v in [100u64, 999, 5_000, 123_456, 9_999_999, u64::from(u32::MAX)] {
            let low = Histogram::bucket_low(Histogram::bucket_of(v));
            assert!(low <= v);
            assert!(((v - low) as f64) / (v as f64) < 0.04);
        }
    }

    #[test]
    fn mean_and_count() {
        let mut h = Histogram::new();
        for v in [10, 20, 30] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert!((h.mean() - 20.0).abs() < 1e-9);
        assert_eq!(h.max(), 30);
        assert_eq!(h.min(), 10);
    }

    #[test]
    fn percentiles_are_ordered() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        let p50 = h.percentile(50.0);
        let p99 = h.percentile(99.0);
        assert!(p50 < p99);
        // p50 should be near 500_000 (within bucket resolution).
        assert!((p50 as f64 - 500_000.0).abs() / 500_000.0 < 0.05);
        assert!((p99 as f64 - 990_000.0).abs() / 990_000.0 < 0.05);
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(5);
        b.record(500);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 500);
        assert_eq!(a.min(), 5);
    }

    #[test]
    fn metrics_disabled_records_nothing() {
        let mut m = Metrics::new();
        m.rot_done(100);
        m.put_done(100);
        m.add("x", 5);
        assert_eq!(m.ops_done(), 0);
        assert_eq!(m.counter("x"), 0);
        m.enabled = true;
        m.rot_done(100);
        m.add("x", 5);
        assert_eq!(m.ops_done(), 1);
        assert_eq!(m.counter("x"), 5);
    }

    #[test]
    fn empty_percentile_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.percentile(99.0), 0);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn percentile_edges_clamp_and_pin_max() {
        let mut h = Histogram::new();
        for v in [10u64, 100, 1_000_003] {
            h.record(v);
        }
        // p == 100 returns the exact recorded max, not a bucket low
        // (1_000_003 is not a bucket boundary).
        assert_eq!(h.percentile(100.0), 1_000_003);
        assert_eq!(h.percentile(250.0), 1_000_003, "overshoot clamps to 100");
        // Non-positive p behaves like the smallest quantile: the lowest
        // occupied bucket (10 is exactly representable below SUB).
        assert_eq!(h.percentile(0.0), 10);
        assert_eq!(h.percentile(-7.5), 10);
        assert_eq!(h.percentile(f64::NAN), 1_000_003, "NaN acts like 100");
    }

    #[test]
    fn diff_isolates_the_interval() {
        let mut h = Histogram::new();
        h.record(100);
        h.record(200);
        let snap = h.clone();
        h.record(1_000);
        h.record(4_000_000);
        let d = h.diff(&snap);
        assert_eq!(d.count(), 2);
        assert_eq!(d.max(), 4_000_000, "new run max is exact in the diff");
        // The interval min is a bucket bound near 1_000.
        assert!(d.min() <= 1_000 && d.min() as f64 >= 1_000.0 * 0.96);
        // Empty interval: all-zero histogram.
        let e = h.diff(&h.clone());
        assert_eq!(e.count(), 0);
        assert_eq!(e.percentile(99.0), 0);
    }

    #[test]
    fn gauges_respect_enabled_and_absorb() {
        let mut m = Metrics::new();
        m.vis_stale(10);
        m.data_stale(10);
        m.gss_lagged(10);
        m.blocked(10);
        assert_eq!(m.vis_staleness.count(), 0, "disabled records nothing");
        m.enabled = true;
        m.vis_stale(10);
        m.data_stale(20);
        m.gss_lagged(30);
        m.blocked(40);
        let mut total = Metrics::new();
        total.absorb(&m);
        assert_eq!(total.vis_staleness.count(), 1);
        assert_eq!(total.data_staleness.count(), 1);
        assert_eq!(total.gss_lag.count(), 1);
        assert_eq!(total.block_ns.count(), 1);
        assert_eq!(total.block_ns.max(), 40);
    }
}
