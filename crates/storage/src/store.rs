//! The per-partition multi-version store.

use crate::chain::{Chain, Version};
use contrarian_types::{heap, Key, VersionId};
use std::collections::HashMap;

/// A partition's share of the data set: key → version chain.
///
/// Keys never written occupy no memory ("every partition stores 1M keys" in
/// the paper, lazily materialized here). Reads of absent keys return `None`
/// (the API's ⊥).
#[derive(Clone, Debug)]
pub struct MvStore<M> {
    map: HashMap<Key, Chain<M>>,
    n_versions: usize,
}

impl<M> Default for MvStore<M> {
    fn default() -> Self {
        MvStore {
            map: HashMap::new(),
            n_versions: 0,
        }
    }
}

impl<M> MvStore<M> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a version of `key`.
    pub fn put(&mut self, key: Key, v: Version<M>) {
        let chain = self.map.entry(key).or_default();
        let before = chain.len();
        chain.insert(v);
        self.n_versions += chain.len() - before;
    }

    pub fn chain(&self, key: Key) -> Option<&Chain<M>> {
        self.map.get(&key)
    }

    /// The newest version of `key`, if any.
    pub fn latest(&self, key: Key) -> Option<&Version<M>> {
        self.map.get(&key).and_then(|c| c.head())
    }

    /// The newest version of `key` satisfying `pred`; also returns the scan
    /// length for CPU accounting.
    pub fn read_visible<F>(&self, key: Key, pred: F) -> (Option<&Version<M>>, usize)
    where
        F: FnMut(&Version<M>) -> bool,
    {
        match self.map.get(&key) {
            None => (None, 0),
            Some(c) => c.newest_visible(pred),
        }
    }

    /// Runs GC over every chain. Returns versions dropped.
    pub fn gc_all(&mut self, horizon_ts: u64, min_keep: usize) -> usize {
        let mut dropped = 0;
        // lint:allow(determinism): per-chain GC with a commutative drop count; visit order cannot reach histories or bytes
        for chain in self.map.values_mut() {
            dropped += chain.gc(horizon_ts, min_keep);
        }
        self.n_versions -= dropped;
        dropped
    }

    /// Number of materialized keys.
    pub fn n_keys(&self) -> usize {
        self.map.len()
    }

    /// Total number of live versions.
    pub fn n_versions(&self) -> usize {
        self.n_versions
    }

    /// Heap bytes as `(table and chains, metadata)`: the key table with
    /// its inline chains, every multi-version chain's vector, and what
    /// `meta` says each version's metadata holds on the heap. Values are
    /// shared blocks their writer owns, and are not counted.
    pub fn heap_bytes(&self, meta: impl Fn(&M) -> usize) -> (usize, usize) {
        let mut chains = heap::map_bytes(&self.map);
        let mut metas = 0;
        // lint:allow(determinism): commutative byte sums for a heap census
        for chain in self.map.values() {
            chains += chain.heap_bytes();
            metas += chain
                .versions()
                .iter()
                .map(|v| meta(&v.meta))
                .sum::<usize>();
        }
        (chains, metas)
    }

    /// Iterates over all (key, chain) pairs in arbitrary order — callers
    /// (convergence checks) must treat the result as an unordered set.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &Chain<M>)> {
        // lint:allow(determinism): documented-unordered accessor; the convergence checks sort or set-compare what they collect
        self.map.iter()
    }

    /// `(key, head version id)` for every materialized key, in arbitrary
    /// order (the shape convergence checks compare).
    pub fn heads(&self) -> Vec<(Key, VersionId)> {
        self.map
            .iter()
            .filter_map(|(k, c)| c.head().map(|h| (*k, h.vid)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contrarian_types::{DcId, Value, VersionId};

    fn ver(ts: u64) -> Version<u32> {
        Version::new(
            VersionId::new(ts, DcId(0)),
            Value::from_static(b"v"),
            ts as u32,
        )
    }

    #[test]
    fn absent_key_reads_bottom() {
        let s: MvStore<u32> = MvStore::new();
        assert!(s.latest(Key(9)).is_none());
        let (v, scanned) = s.read_visible(Key(9), |_| true);
        assert!(v.is_none());
        assert_eq!(scanned, 0);
        assert_eq!(s.n_keys(), 0);
    }

    #[test]
    fn put_then_read_latest() {
        let mut s = MvStore::new();
        s.put(Key(1), ver(5));
        s.put(Key(1), ver(9));
        s.put(Key(2), ver(7));
        assert_eq!(s.latest(Key(1)).unwrap().vid.ts, 9);
        assert_eq!(s.latest(Key(2)).unwrap().vid.ts, 7);
        assert_eq!(s.n_keys(), 2);
        assert_eq!(s.n_versions(), 3);
    }

    #[test]
    fn read_visible_filters() {
        let mut s = MvStore::new();
        for ts in [1, 5, 9] {
            s.put(Key(1), ver(ts));
        }
        let (v, _) = s.read_visible(Key(1), |x| x.meta <= 5);
        assert_eq!(v.unwrap().vid.ts, 5);
    }

    #[test]
    fn gc_all_updates_version_count() {
        let mut s = MvStore::new();
        for k in 0..4u64 {
            for ts in 1..=5 {
                s.put(Key(k), ver(ts));
            }
        }
        assert_eq!(s.n_versions(), 20);
        let dropped = s.gc_all(100, 1);
        assert_eq!(dropped, 16);
        assert_eq!(s.n_versions(), 4);
        for k in 0..4u64 {
            assert_eq!(s.latest(Key(k)).unwrap().vid.ts, 5);
        }
    }

    #[test]
    fn idempotent_put_does_not_inflate_count() {
        let mut s = MvStore::new();
        s.put(Key(1), ver(5));
        s.put(Key(1), ver(5));
        assert_eq!(s.n_versions(), 1);
    }
}
