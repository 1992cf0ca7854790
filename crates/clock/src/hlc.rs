//! Hybrid Logical Clocks (Kulkarni, Demirbas, Madappa, Avva, Leone:
//! *Logical Physical Clocks*, OPODIS 2014).
//!
//! An HLC timestamp is a pair `(l, c)`: `l` tracks the largest physical time
//! seen so far and `c` is a bounded counter that breaks ties among events
//! with the same `l`. We encode the pair in a single `u64` — 48 bits of
//! physical microseconds and 16 bits of counter — so HLC values compare with
//! plain integer comparison and fit wherever a timestamp fits.
//!
//! Why Contrarian uses HLCs (paper, Section 4):
//! * like a **logical** clock, an HLC can be moved *forward* to match the
//!   snapshot timestamp of an incoming ROT, so reads never block;
//! * like a **physical** clock, it advances even in the absence of events,
//!   so the stabilization protocol identifies *fresh* snapshots instead of
//!   being held back by a laggard partition.
//!
//! Correctness never depends on clock synchrony; skew only affects snapshot
//! freshness.

/// Number of counter bits in the encoded representation.
pub const COUNTER_BITS: u32 = 16;
const COUNTER_MASK: u64 = (1 << COUNTER_BITS) - 1;

/// The largest encodable timestamp. No event can be stamped past it: its
/// successor needs a 49th physical bit, which [`encode`] would shift out,
/// wrapping the stamp to 0. So a server neither issues nor accepts it: a
/// clock stamps an event only if the stamp stays below it, and a message
/// carrying it is dropped.
pub const MAX: u64 = u64::MAX;

/// Packs `(l, c)` into a single totally ordered `u64`.
#[inline]
pub fn encode(l: u64, c: u64) -> u64 {
    debug_assert!(c <= COUNTER_MASK);
    debug_assert!(
        l >> (64 - COUNTER_BITS) == 0,
        "HLC physical part {l} overflows"
    );
    (l << COUNTER_BITS) | c
}

/// Unpacks an encoded HLC timestamp into `(l, c)`.
#[inline]
pub fn decode(ts: u64) -> (u64, u64) {
    (ts >> COUNTER_BITS, ts & COUNTER_MASK)
}

/// A Hybrid Logical Clock.
#[derive(Clone, Debug, Default)]
pub struct Hlc {
    l: u64,
    c: u64,
}

impl Hlc {
    pub fn new() -> Self {
        Hlc { l: 0, c: 0 }
    }

    /// Timestamps a local or send event given the local physical time in µs.
    ///
    /// Returns a value strictly greater than every previously returned or
    /// observed value.
    pub fn tick(&mut self, pt_us: u64) -> u64 {
        if pt_us > self.l {
            self.l = pt_us;
            self.c = 0;
        } else {
            self.bump();
        }
        encode(self.l, self.c)
    }

    /// Timestamps a receive event of a message carrying timestamp `m`.
    ///
    /// The returned value is strictly greater than both the clock's previous
    /// value and `m` — this is how a PUT's timestamp is forced past the
    /// client's causal past.
    pub fn update(&mut self, pt_us: u64, m: u64) -> u64 {
        let (lm, cm) = decode(m);
        if pt_us > self.l && pt_us > lm {
            self.l = pt_us;
            self.c = 0;
        } else if self.l == lm {
            self.c = self.c.max(cm);
            self.bump();
        } else if lm > self.l {
            self.l = lm;
            self.c = cm;
            self.bump();
        } else {
            self.bump();
        }
        encode(self.l, self.c)
    }

    /// Moves the clock forward so that its *current* value is at least `ts`.
    ///
    /// This is the "partitions can move the value of their local clock
    /// forward to match the local entry of SV" step that makes Contrarian's
    /// ROTs nonblocking. Never moves the clock backwards.
    pub fn advance_to(&mut self, ts: u64) {
        let (lm, cm) = decode(ts);
        if (lm, cm) > (self.l, self.c) {
            self.l = lm;
            self.c = cm;
        }
    }

    /// The clock's current reading given the physical time, without creating
    /// an event (used for heartbeats and version-vector reports).
    pub fn peek(&self, pt_us: u64) -> u64 {
        if pt_us > self.l {
            encode(pt_us, 0)
        } else {
            encode(self.l, self.c)
        }
    }

    #[inline]
    fn bump(&mut self) {
        self.c += 1;
        if self.c > COUNTER_MASK {
            // Counter overflow: borrow one unit of physical time. With 16
            // bits this needs 65k causally chained events within 1µs, which
            // does not happen in practice, but stay correct anyway.
            self.l += 1;
            self.c = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let last = ((1 << (64 - COUNTER_BITS)) - 1, COUNTER_MASK);
        for (l, c) in [(0u64, 0u64), (1, 5), (1 << 40, 65535), last] {
            assert_eq!(decode(encode(l, c)), (l, c));
        }
        assert_eq!(encode(last.0, last.1), MAX);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "overflows")]
    fn encode_refuses_a_physical_part_past_its_bits() {
        encode(1 << (64 - COUNTER_BITS), 0);
    }

    #[test]
    fn encoded_order_is_lexicographic() {
        assert!(encode(5, 100) < encode(6, 0));
        assert!(encode(5, 1) < encode(5, 2));
    }

    #[test]
    fn tick_tracks_physical_time() {
        let mut h = Hlc::new();
        let t = h.tick(1000);
        assert_eq!(decode(t), (1000, 0));
        // Physical time stalled: counter takes over.
        let t2 = h.tick(1000);
        assert_eq!(decode(t2), (1000, 1));
        let t3 = h.tick(999);
        assert_eq!(decode(t3), (1000, 2));
    }

    #[test]
    fn tick_is_strictly_monotone() {
        let mut h = Hlc::new();
        let mut prev = 0;
        for pt in [5, 5, 3, 10, 10, 2, 11] {
            let t = h.tick(pt);
            assert!(t > prev);
            prev = t;
        }
    }

    #[test]
    fn update_exceeds_message_and_self() {
        let mut h = Hlc::new();
        h.tick(10);
        let m = encode(50, 3);
        let t = h.update(12, m);
        assert!(t > m);
        assert!(t > encode(10, 0));
        // Physical time far ahead dominates.
        let t2 = h.update(100, encode(50, 9));
        assert_eq!(decode(t2), (100, 0));
    }

    #[test]
    fn update_with_equal_l_merges_counters() {
        let mut h = Hlc::new();
        h.tick(50); // (50, 0)
        let t = h.update(40, encode(50, 7));
        assert_eq!(decode(t), (50, 8));
    }

    #[test]
    fn advance_to_moves_forward_only() {
        let mut h = Hlc::new();
        h.tick(10);
        h.advance_to(encode(100, 4));
        assert_eq!(h.peek(0), encode(100, 4));
        h.advance_to(encode(50, 0)); // no-op, would move backwards
        assert_eq!(h.peek(0), encode(100, 4));
        // Next event is strictly after the advanced-to point.
        assert!(h.tick(0) > encode(100, 4));
    }

    #[test]
    fn peek_does_not_mutate() {
        let mut h = Hlc::new();
        h.tick(10);
        let p1 = h.peek(500);
        let p2 = h.peek(500);
        assert_eq!(p1, p2);
        assert_eq!(decode(p1), (500, 0));
        // tick after peek with stalled time continues from internal state.
        assert_eq!(decode(h.tick(10)), (10, 1));
    }

    #[test]
    fn counter_overflow_borrows_physical_time() {
        let mut h = Hlc::new();
        h.tick(1);
        let mut last = 0;
        for _ in 0..70_000 {
            last = h.tick(1);
        }
        let (l, _) = decode(last);
        assert!(l >= 2, "counter overflow must carry into l");
    }

    #[test]
    fn hlc_stays_close_to_physical_time() {
        // The HLC bound: l never exceeds the max physical time observed.
        let mut h = Hlc::new();
        let mut max_pt = 0;
        for pt in [10, 20, 20, 21, 5, 30] {
            max_pt = max_pt.max(pt);
            let (l, _) = decode(h.tick(pt));
            assert!(l <= max_pt);
        }
    }

    #[test]
    fn the_last_timestamp_decodes_to_both_parts_full() {
        let (l, c) = decode(MAX);
        assert_eq!(l, (1 << (64 - COUNTER_BITS)) - 1);
        assert_eq!(c, COUNTER_MASK);
        // Its predecessor is still a stamp a clock can move past.
        let mut h = Hlc::new();
        h.advance_to(MAX - 1);
        assert_eq!(h.tick(0), MAX);
    }

    #[test]
    fn a_stale_message_still_moves_the_counter() {
        let mut h = Hlc::new();
        h.tick(100); // (100, 0)
        let t = h.update(50, encode(20, 9));
        assert_eq!(decode(t), (100, 1));
    }

    #[test]
    fn update_from_a_message_ahead_of_physical_time_adopts_it() {
        let mut h = Hlc::new();
        h.tick(10);
        let t = h.update(20, encode(80, 4));
        assert_eq!(decode(t), (80, 5));
        // Physical time that overtakes the clock resets the counter.
        assert_eq!(decode(h.tick(81)), (81, 0));
    }
}
