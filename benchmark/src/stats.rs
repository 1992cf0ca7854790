//! Estimators: order statistics over round samples, and percentiles read
//! out of the runtime's log-bucketed [`Histogram`] from outside.

use contrarian_runtime::metrics::Histogram;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// How a metric's per-round samples collapse into the reported value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Estimator {
    /// Virtual-time value: every round must give the same number.
    Exact,
    Min,
    Max,
    Median,
    /// Simulator CPU cost: per-slice minima over rounds, which the runner
    /// assembles from the rounds' slice readings. On plain samples it is
    /// the minimum.
    SlicewiseMin,
}

impl Estimator {
    pub fn apply(self, samples: &[f64]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        match self {
            Estimator::Exact => samples[0],
            Estimator::Min | Estimator::SlicewiseMin => {
                samples.iter().copied().fold(f64::INFINITY, f64::min)
            }
            Estimator::Max => samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            Estimator::Median => median(samples),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Estimator::Exact => "exact",
            Estimator::Min => "min",
            Estimator::Max => "max",
            Estimator::Median => "median",
            Estimator::SlicewiseMin => "slicewise min",
        }
    }
}

/// The value the histogram reports for the `k`-th smallest sample
/// (1-based): the lower bound of the bucket holding it.
fn value_at_rank(h: &Histogram, k: u64) -> u64 {
    // `percentile` resolves `ceil(p% · count)`; `k - ½` lands on rank `k`
    // with half a sample of slack on both sides for rounding.
    h.percentile((k as f64 - 0.5) / h.count() as f64 * 100.0)
}

/// Width of the histogram bucket whose lower bound is `low`: 1 below 32,
/// then 32 sub-buckets per power of two (the documented layout).
fn bucket_width(low: u64) -> u64 {
    if low < 32 {
        1
    } else {
        1 << (63 - low.leading_zeros() - 5)
    }
}

/// The `p`-th percentile (0 < p < 100) with linear interpolation inside
/// the bucket. `Histogram::percentile` returns bucket lower bounds, ~3 %
/// apart, so a metric read through it moves in 3 % steps or not at all;
/// interpolating by the target's rank within its bucket makes the reading
/// continuous. Uses only the public API: the ranks at which the reported
/// value changes are found by bisection.
pub fn hist_percentile(h: &Histogram, p: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    let target = (((p / 100.0) * n as f64).ceil() as u64).clamp(1, n);
    let low = value_at_rank(h, target);
    // First rank reporting `low`.
    let (mut a, mut b) = (1, target);
    while a < b {
        let mid = a + (b - a) / 2;
        if value_at_rank(h, mid) >= low {
            b = mid;
        } else {
            a = mid + 1;
        }
    }
    let first = a;
    // Last rank reporting `low`.
    let (mut a, mut b) = (target, n);
    while a < b {
        let mid = a + (b - a).div_ceil(2);
        if value_at_rank(h, mid) <= low {
            a = mid;
        } else {
            b = mid - 1;
        }
    }
    let last = a;
    let in_bucket = (last - first + 1) as f64;
    let pos = ((target - first) as f64 + 0.5) / in_bucket;
    let v = low as f64 + pos * bucket_width(low) as f64;
    v.min(h.max() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn estimators_pick_the_right_sample() {
        let s = [5.0, 3.0, 9.0, 4.0];
        assert_eq!(Estimator::Min.apply(&s), 3.0);
        assert_eq!(Estimator::Max.apply(&s), 9.0);
        assert_eq!(Estimator::Median.apply(&s), 4.5);
        assert_eq!(Estimator::Exact.apply(&s), 5.0);
        assert_eq!(Estimator::Min.apply(&[]), 0.0);
    }

    #[test]
    fn interpolated_percentile_is_close_to_the_true_one() {
        let mut h = Histogram::new();
        // 100 000 evenly spaced samples from 200 000 to 1 199 990 ns.
        for i in 0..100_000u64 {
            h.record(200_000 + i * 10);
        }
        for p in [50.0, 90.0, 99.0] {
            let exact = 200_000.0 + p / 100.0 * 1_000_000.0;
            let got = hist_percentile(&h, p);
            assert!(
                (got - exact).abs() / exact < 0.01,
                "p{p}: got {got}, want {exact}"
            );
            // (p99 sits in the last, part-filled bucket, where the uniform
            // fill interpolation assumes is off by half a percent.)
            // The raw reading is a bucket bound, up to 3 % low.
            assert!(h.percentile(p) as f64 <= got);
        }
    }

    #[test]
    fn interpolated_percentile_handles_small_and_empty() {
        let mut h = Histogram::new();
        assert_eq!(hist_percentile(&h, 99.0), 0.0);
        h.record(7);
        assert_eq!(hist_percentile(&h, 50.0), 7.0);
        h.record(1_000_003);
        // Two samples: p99 is the larger, clamped to the recorded maximum.
        let p99 = hist_percentile(&h, 99.0);
        assert!(p99 > 900_000.0 && p99 <= 1_000_003.0, "{p99}");
    }
}
