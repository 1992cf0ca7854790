//! Keys and the deterministic key → partition mapping.

use crate::ids::PartitionId;
use std::fmt;

/// A key of the data store. Keys are 8 bytes, as in the paper's evaluation.
///
/// The key space is structured so that `key % n_partitions` is the owning
/// partition. This is the "deterministic hash function" of the system model
/// (Section 2.3) and makes it trivial for the workload generator to pick
/// "one key per partition" for a ROT, exactly as the paper's workloads do.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct Key(pub u64);

impl Key {
    /// Builds the key with local index `local` on partition `p` out of `n`
    /// partitions.
    #[inline]
    pub fn compose(p: PartitionId, local: u64, n_partitions: u16) -> Key {
        Key(local * n_partitions as u64 + p.0 as u64)
    }

    /// The partition owning this key.
    #[inline]
    pub fn partition(self, n_partitions: u16) -> PartitionId {
        PartitionId((self.0 % n_partitions as u64) as u16)
    }

    /// The index of this key within its partition.
    #[inline]
    pub fn local_index(self, n_partitions: u16) -> u64 {
        self.0 / n_partitions as u64
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}", self.0)
    }
}

impl From<u64> for Key {
    fn from(v: u64) -> Key {
        Key(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compose_round_trips() {
        let n = 32;
        for p in [0u16, 1, 17, 31] {
            for local in [0u64, 1, 999_999] {
                let k = Key::compose(PartitionId(p), local, n);
                assert_eq!(k.partition(n), PartitionId(p));
                assert_eq!(k.local_index(n), local);
            }
        }
    }

    #[test]
    fn distinct_locals_give_distinct_keys() {
        let a = Key::compose(PartitionId(3), 5, 8);
        let b = Key::compose(PartitionId(3), 6, 8);
        assert_ne!(a, b);
        assert_eq!(a.partition(8), b.partition(8));
    }

    #[test]
    fn partitions_cover_modulo_classes() {
        let n = 4u16;
        // Every raw key maps to the expected class.
        for raw in 0u64..64 {
            assert_eq!(Key(raw).partition(n).0 as u64, raw % n as u64);
        }
    }

    #[test]
    fn display_and_conversion() {
        assert_eq!(Key::from(17).to_string(), "k17");
        assert_eq!(Key::default(), Key(0));
    }

    #[test]
    fn one_partition_owns_every_key() {
        for raw in [0u64, 1, 12345, u64::MAX] {
            assert_eq!(Key(raw).partition(1), PartitionId(0));
            assert_eq!(Key(raw).local_index(1), raw);
        }
    }
}
