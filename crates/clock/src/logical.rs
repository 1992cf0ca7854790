//! Lamport logical clocks.

/// A classic Lamport clock (Lamport, CACM 1978).
///
/// CC-LO timestamps versions and reads with Lamport times; clients piggyback
/// their last observed time on every request so that the logical times seen
/// by a client are monotone across the servers it talks to (this is what
/// makes "return the most recent version before the old reader's read time"
/// meaningful across partitions).
#[derive(Clone, Debug, Default)]
pub struct LogicalClock {
    t: u64,
}

impl LogicalClock {
    pub fn new() -> Self {
        LogicalClock { t: 0 }
    }

    /// A local or send event: advances the clock and returns the new time.
    #[inline]
    pub fn tick(&mut self) -> u64 {
        self.t += 1;
        self.t
    }

    /// A receive event carrying time `other`: the clock jumps past both its
    /// own time and the observed time. `None`, with the clock unchanged,
    /// when that time has no representable successor.
    #[inline]
    pub fn observe(&mut self, other: u64) -> Option<u64> {
        self.t = self.t.max(other).checked_add(1)?;
        Some(self.t)
    }

    /// Merges an observed time without producing an event (no increment).
    #[inline]
    pub fn merge(&mut self, other: u64) {
        if other > self.t {
            self.t = other;
        }
    }

    /// Current value, without advancing.
    #[inline]
    pub fn peek(&self) -> u64 {
        self.t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_is_strictly_monotone() {
        let mut c = LogicalClock::new();
        let a = c.tick();
        let b = c.tick();
        assert!(b > a);
    }

    #[test]
    fn observe_jumps_past_remote() {
        let mut c = LogicalClock::new();
        c.tick();
        assert_eq!(c.observe(100), Some(101));
        // Observing an old time still advances locally.
        assert_eq!(c.observe(5), Some(102));
    }

    #[test]
    fn merge_does_not_create_event() {
        let mut c = LogicalClock::new();
        c.merge(50);
        assert_eq!(c.peek(), 50);
        c.merge(10);
        assert_eq!(c.peek(), 50);
    }

    #[test]
    fn happens_before_implies_clock_order() {
        // a -> send m -> receive at b: ts(recv) > ts(send).
        let mut a = LogicalClock::new();
        let mut b = LogicalClock::new();
        let send = a.tick();
        let recv = b.observe(send).unwrap();
        assert!(recv > send);
    }

    #[test]
    fn observing_the_own_time_still_ticks() {
        let mut c = LogicalClock::new();
        c.merge(7);
        assert_eq!(c.observe(7), Some(8));
        assert_eq!(c.tick(), 9);
    }

    #[test]
    fn a_time_without_a_successor_is_refused() {
        let mut c = LogicalClock::new();
        c.merge(7);
        assert_eq!(c.observe(u64::MAX), None);
        assert_eq!(c.peek(), 7, "the clock does not move");
        assert_eq!(c.observe(u64::MAX - 1), Some(u64::MAX));
        assert_eq!(c.observe(0), None);
        assert_eq!(c.peek(), u64::MAX);
    }
}
