//! Pins the open-loop arrival stream itself: the first 50 000 draws of one
//! driver actor's session shard (the repo benchmark's shape: 3 906
//! sessions at 1 op/s each), hashed over `(intended, op)` and every
//! `Wait { due }` answer. The constants were captured after the driver
//! switched from one arrival process per session to the merged Poisson
//! stream of its shard, which changed the realization (equal in law) and
//! the RNG contract: one gap to prime, then a gap and an operation per
//! arrival. A change to the stream that loses an overdue arrival, anchors
//! a gap at the polling instant or consumes the RNG in a different order
//! fails here by name rather than as an opaque golden-fingerprint diff in
//! the harness.

use contrarian_types::Op;
use contrarian_workload::{ClientDriver, Draw, OpenLoopDriver, WorkloadSpec, Zipf};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

const DRAWS: usize = 50_000;

struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn arrival_hash(theta: f64) -> u64 {
    let spec = WorkloadSpec::paper_default().with_zipf(theta);
    let gen = ClientDriver::new(spec, Arc::new(Zipf::new(100_000, theta)), 32);
    let mut driver = OpenLoopDriver::new(gen, 3_906, 1.0);
    let mut rng = SmallRng::seed_from_u64(42);
    let mut h = Fnv1a::new();
    let mut ops = 0usize;
    // ~3.9 arrivals per 1 ms step; two stalls leave a backlog of ~2 K and
    // ~8 K overdue arrivals that must drain oldest first.
    let mut now = 0u64;
    for step in 0u64.. {
        now += match step {
            2_000 => 500_000_000,
            6_000 => 2_000_000_000,
            _ => 1_000_000,
        };
        loop {
            match driver.draw(now, &mut rng) {
                Draw::Op { op, intended } => {
                    h.u64(intended);
                    match op {
                        Op::Rot(keys) => {
                            h.bytes(&[0, keys.len() as u8]);
                            keys.iter().for_each(|k| h.u64(k.0));
                        }
                        Op::Put(key, value) => {
                            h.bytes(&[1]);
                            h.u64(key.0);
                            h.u64(value.len() as u64);
                        }
                    }
                    ops += 1;
                    if ops == DRAWS {
                        return h.0;
                    }
                }
                Draw::Wait { due } => {
                    assert!(due > now, "a due arrival must be drawn, not waited on");
                    h.bytes(&[2]);
                    h.u64(due);
                    break;
                }
            }
        }
    }
    unreachable!("the step loop only ends by returning")
}

#[test]
fn arrivals_are_bit_identical_to_the_pinned_schedule_zipf_099() {
    assert_eq!(arrival_hash(0.99), 17_798_837_103_018_621_614);
}

#[test]
fn arrivals_are_bit_identical_to_the_pinned_schedule_uniform() {
    assert_eq!(arrival_hash(0.0), 9_842_176_183_562_199_843);
}
