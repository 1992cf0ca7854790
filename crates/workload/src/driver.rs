//! Closed-loop operation generation for one client.

use crate::spec::WorkloadSpec;
use crate::zipf::Zipf;
use bytes::Bytes;
use contrarian_types::{Key, Op, PartitionId, Value};
use rand::rngs::SmallRng;
use rand::RngExt;
use std::sync::Arc;

/// Generates the operation stream of one closed-loop client.
///
/// * With probability `q = w·p/(1-w+w·p)` the next operation is a `PUT` to a
///   uniformly random partition, key drawn zipfian within the partition.
/// * Otherwise it is a `ROT` spanning `p` distinct partitions chosen
///   uniformly at random, reading one zipfian key per partition — exactly
///   the workload of Section 5.2.
///
/// Values are a shared `Bytes` buffer of the configured size (cloning is a
/// refcount bump, mirroring scatter-gather writes of a constant-size
/// payload).
#[derive(Clone, Debug)]
pub struct ClientDriver {
    spec: WorkloadSpec,
    zipf: Arc<Zipf>,
    n_partitions: u16,
    value: Value,
    put_prob: f64,
    /// Scratch permutation for sampling distinct partitions.
    scratch: Vec<u16>,
}

impl ClientDriver {
    /// `zipf` must be built over `keys_per_partition`; it is shared across
    /// clients because constructing it is `O(keys)`.
    pub fn new(spec: WorkloadSpec, zipf: Arc<Zipf>, n_partitions: u16) -> Self {
        assert!(spec.rot_size >= 1);
        assert!(
            spec.rot_size <= n_partitions,
            "a ROT spans at most all partitions (p={} > N={})",
            spec.rot_size,
            n_partitions
        );
        let put_prob = spec.put_probability();
        let value = Bytes::from(vec![0xABu8; spec.value_size]);
        let scratch = (0..n_partitions).collect();
        ClientDriver {
            spec,
            zipf,
            n_partitions,
            value,
            put_prob,
            scratch,
        }
    }

    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Heap bytes: the value block every PUT of this driver shares (its
    /// reference counts and bytes) and the partition scratch. The Zipf
    /// table is shared by every driver of the cluster and not counted.
    pub fn heap_bytes(&self) -> usize {
        (16 + self.value.len()).next_multiple_of(8)
            + contrarian_types::heap::vec_bytes(&self.scratch)
    }

    /// Draws the next operation.
    pub fn next_op(&mut self, rng: &mut SmallRng) -> Op {
        if rng.random::<f64>() < self.put_prob {
            let p = PartitionId(rng.random_range(0..self.n_partitions));
            Op::Put(self.key_in(p, rng), self.value.clone())
        } else {
            let p = self.spec.rot_size as usize;
            // Partial Fisher-Yates over the scratch permutation: the first
            // `p` entries become a uniform sample of distinct partitions.
            for i in 0..p {
                let j = rng.random_range(i..self.scratch.len());
                self.scratch.swap(i, j);
            }
            let mut keys = Vec::with_capacity(p);
            for i in 0..p {
                keys.push(self.key_in(PartitionId(self.scratch[i]), rng));
            }
            Op::Rot(keys)
        }
    }

    fn key_in(&self, p: PartitionId, rng: &mut SmallRng) -> Key {
        let local = self.zipf.sample(rng);
        Key::compose(p, local, self.n_partitions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn driver(spec: WorkloadSpec, n: u16) -> ClientDriver {
        let zipf = Arc::new(Zipf::new(100, spec.zipf_theta));
        ClientDriver::new(spec, zipf, n)
    }

    #[test]
    fn rot_spans_distinct_partitions() {
        let mut d = driver(WorkloadSpec::paper_default().with_rot_size(4), 8);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..500 {
            if let Op::Rot(keys) = d.next_op(&mut rng) {
                assert_eq!(keys.len(), 4);
                let mut parts: Vec<u16> = keys.iter().map(|k| k.partition(8).0).collect();
                parts.sort_unstable();
                parts.dedup();
                assert_eq!(parts.len(), 4, "partitions must be distinct");
            }
        }
    }

    #[test]
    fn rot_can_span_all_partitions() {
        let mut d = driver(WorkloadSpec::paper_default().with_rot_size(8), 8);
        let mut rng = SmallRng::seed_from_u64(2);
        let rot = loop {
            if let Op::Rot(keys) = d.next_op(&mut rng) {
                break keys;
            }
        };
        let mut parts: Vec<u16> = rot.iter().map(|k| k.partition(8).0).collect();
        parts.sort_unstable();
        assert_eq!(parts, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn realized_write_ratio_matches_w() {
        let spec = WorkloadSpec::paper_default(); // w = 0.05, p = 4
        let mut d = driver(spec, 16);
        let mut rng = SmallRng::seed_from_u64(3);
        let (mut puts, mut reads) = (0u64, 0u64);
        for _ in 0..200_000 {
            match d.next_op(&mut rng) {
                Op::Put(..) => puts += 1,
                Op::Rot(keys) => reads += keys.len() as u64,
            }
        }
        let w = puts as f64 / (puts + reads) as f64;
        assert!((w - 0.05).abs() < 0.004, "realized w = {w}");
    }

    #[test]
    fn keys_respect_partition_layout() {
        let mut d = driver(WorkloadSpec::paper_default(), 8);
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..200 {
            match d.next_op(&mut rng) {
                Op::Put(k, v) => {
                    assert!(k.local_index(8) < 100);
                    assert_eq!(v.len(), 8);
                }
                Op::Rot(keys) => {
                    for k in keys {
                        assert!(k.local_index(8) < 100);
                    }
                }
            }
        }
    }

    #[test]
    fn skewed_keys_concentrate() {
        let mut d = driver(WorkloadSpec::paper_default().with_zipf(0.99), 4);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut rank0 = 0u64;
        let mut total = 0u64;
        for _ in 0..20_000 {
            if let Op::Rot(keys) = d.next_op(&mut rng) {
                for k in keys {
                    total += 1;
                    if k.local_index(4) == 0 {
                        rank0 += 1;
                    }
                }
            }
        }
        assert!(rank0 as f64 / total as f64 > 0.1, "hot key share too low");
    }

    #[test]
    #[should_panic(expected = "at most all partitions")]
    fn rot_size_larger_than_cluster_is_rejected() {
        driver(WorkloadSpec::paper_default().with_rot_size(9), 8);
    }
}
