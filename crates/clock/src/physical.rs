//! Simulated loosely synchronized physical clocks.

use rand::Rng;

/// A physical clock with a constant offset from true (simulated) time.
///
/// Offsets model NTP-level synchronization error: each server draws an
/// offset uniformly from `±skew_us`. Cure must *wait* when asked for a
/// snapshot timestamp ahead of its local clock; HLC-based Contrarian merely
/// jumps forward. This asymmetry is the entire latency story of Figure 4.
#[derive(Clone, Copy, Debug)]
pub struct PhysicalClockModel {
    offset_ns: i64,
}

impl PhysicalClockModel {
    /// A perfectly synchronized clock.
    pub fn perfect() -> Self {
        PhysicalClockModel { offset_ns: 0 }
    }

    pub fn with_offset_ns(offset_ns: i64) -> Self {
        PhysicalClockModel { offset_ns }
    }

    /// Draws an offset uniformly from `[-skew_us, +skew_us]`.
    pub fn random<R: Rng>(rng: &mut R, skew_us: u64) -> Self {
        if skew_us == 0 {
            return Self::perfect();
        }
        let bound = skew_us as i64 * 1000;
        PhysicalClockModel {
            offset_ns: rng.random_range(-bound..=bound),
        }
    }

    #[inline]
    pub fn offset_ns(&self) -> i64 {
        self.offset_ns
    }

    /// Local physical time, microseconds, as a function of true time in ns.
    #[inline]
    pub fn now_us(&self, true_now_ns: u64) -> u64 {
        let local = true_now_ns as i64 + self.offset_ns;
        (local.max(0) as u64) / 1000
    }

    /// True (simulated) nanoseconds until this clock reads at least
    /// `target_us`; zero if it already does. This is the blocking time a
    /// physical-clock protocol incurs.
    pub fn ns_until(&self, true_now_ns: u64, target_us: u64) -> u64 {
        let target_local_ns = (target_us + 1) * 1000; // strictly past target
        let local = true_now_ns as i64 + self.offset_ns;
        if local >= target_local_ns as i64 {
            0
        } else {
            (target_local_ns as i64 - local) as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn perfect_clock_tracks_true_time() {
        let c = PhysicalClockModel::perfect();
        assert_eq!(c.now_us(5_000), 5);
        assert_eq!(c.now_us(5_999), 5);
        assert_eq!(c.now_us(6_000), 6);
    }

    #[test]
    fn positive_offset_runs_ahead() {
        let c = PhysicalClockModel::with_offset_ns(2_000);
        assert_eq!(c.now_us(0), 2);
        assert_eq!(c.ns_until(0, 1), 0);
    }

    #[test]
    fn negative_offset_lags_and_blocks() {
        let c = PhysicalClockModel::with_offset_ns(-3_000);
        assert_eq!(c.now_us(3_000), 0);
        // To read strictly past 10µs the clock needs local time 11µs,
        // i.e. true time 14µs.
        assert_eq!(c.ns_until(3_000, 10), 11_000);
        assert_eq!(c.ns_until(14_000, 10), 0);
    }

    #[test]
    fn random_offsets_respect_bound() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..200 {
            let c = PhysicalClockModel::random(&mut rng, 100);
            assert!(c.offset_ns().abs() <= 100_000);
        }
        let c = PhysicalClockModel::random(&mut rng, 0);
        assert_eq!(c.offset_ns(), 0);
    }

    #[test]
    fn clock_never_goes_negative() {
        let c = PhysicalClockModel::with_offset_ns(-10_000);
        assert_eq!(c.now_us(1_000), 0);
    }

    #[test]
    fn ns_until_waits_strictly_past_the_target() {
        let c = PhysicalClockModel::perfect();
        // At exactly the target microsecond the clock has not passed it.
        assert_eq!(c.ns_until(10_000, 10), 1_000);
        assert_eq!(c.ns_until(10_999, 10), 1);
        assert_eq!(c.ns_until(11_000, 10), 0);
    }

    #[test]
    fn random_offsets_fall_on_both_sides() {
        let mut rng = SmallRng::seed_from_u64(11);
        let offsets: Vec<i64> = (0..100)
            .map(|_| PhysicalClockModel::random(&mut rng, 50).offset_ns())
            .collect();
        assert!(offsets.iter().any(|&o| o > 0));
        assert!(offsets.iter().any(|&o| o < 0));
    }
}
