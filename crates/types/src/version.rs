//! Version identifiers and the convergence (last-writer-wins) order.

use crate::ids::DcId;
use std::fmt;

/// Globally unique identifier of a version of some key.
///
/// `ts` is the timestamp assigned by the partition that created the version
/// (a Lamport time in CC-LO, an HLC value in Contrarian, a physical clock
/// value in Cure). `origin` is the DC where the PUT was performed.
///
/// The derived lexicographic order `(ts, origin)` is a total order used for
/// the last-writer-wins convergence rule of Section 2.2: concurrent updates
/// to the same key are ordered by timestamp, with the origin DC breaking
/// ties deterministically, so all replicas converge to the same value.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct VersionId {
    pub ts: u64,
    pub origin: DcId,
}

impl VersionId {
    #[inline]
    pub fn new(ts: u64, origin: DcId) -> Self {
        VersionId { ts, origin }
    }

    /// The synthetic *genesis* version: the paper's platform prepopulates
    /// every partition with 1M keys, so a read never returns ⊥. We model the
    /// preloaded initial version of every key as a shared timestamp-0
    /// version served lazily (no memory per key). It has no causal
    /// dependencies and belongs to every snapshot.
    pub const GENESIS: VersionId = VersionId {
        ts: 0,
        origin: DcId(0),
    };

    #[inline]
    pub fn is_genesis(&self) -> bool {
        self.ts == 0
    }
}

impl fmt::Display for VersionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}@{}", self.ts, self.origin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lww_order_is_timestamp_major() {
        let a = VersionId::new(10, DcId(1));
        let b = VersionId::new(11, DcId(0));
        assert!(a < b);
    }

    #[test]
    fn lww_order_breaks_ties_by_origin() {
        let a = VersionId::new(10, DcId(0));
        let b = VersionId::new(10, DcId(1));
        assert!(a < b);
        assert_ne!(a, b);
    }

    #[test]
    fn genesis_precedes_every_real_version() {
        assert!(VersionId::GENESIS.is_genesis());
        assert!(VersionId::GENESIS < VersionId::new(1, DcId(0)));
        assert!(!VersionId::new(1, DcId(0)).is_genesis());
    }

    #[test]
    fn display_names_timestamp_and_origin() {
        assert_eq!(VersionId::new(42, DcId(1)).to_string(), "v42@dc1");
        assert_eq!(VersionId::GENESIS.to_string(), "v0@dc0");
    }

    #[test]
    fn every_replica_picks_the_same_last_writer() {
        // Two replicas that saw the same concurrent versions in different
        // orders converge on the same winner.
        let vs = [
            VersionId::new(7, DcId(2)),
            VersionId::new(9, DcId(0)),
            VersionId::new(9, DcId(1)),
            VersionId::new(3, DcId(1)),
        ];
        let a = vs.iter().max().copied();
        let b = vs.iter().rev().max().copied();
        assert_eq!(a, b);
        assert_eq!(a, Some(VersionId::new(9, DcId(1))));
    }
}
