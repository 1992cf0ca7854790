//! The per-partition multi-version store.
//!
//! ## Layout: a key index over an append-only slab of chains
//!
//! The store is two parts. The *index* maps a key to a `u32` slot: a
//! 16-byte table entry (pinned by a test). The *slab* holds the chains in
//! the order their keys were first written, in chunks of `CHUNK` chains
//! that are allocated at full size and never grow, so a chain never moves
//! once placed. Keys are never removed (GC keeps a key's chain even when
//! it empties it), so the slab needs no free list.
//!
//! A table whose buckets held the 72-byte chains inline paid 81 B (key,
//! chain and control byte) for every bucket, empty or not: at the 44–88 %
//! load a hash table runs at, ≈ 126 B per key, most of the store row of
//! every snapshot backend's heap census. Here an empty bucket costs 17 B
//! and a chain 72 B, with the slab's last chunk the only one that has an
//! unwritten tail. The chunk size was measured on the 128-server Okapi
//! benchmark (`sim_scale_okapi`, 20 s), whose chains almost all hold one
//! version: 1 024 chains cut its `peak_rss_mb` 20.0 → 17.3 MB at
//! unchanged CPU. Smaller chunks leave more of it behind (512: 17.7 MB,
//! 256: 18.4 MB) and 32 cost 7–11 % more CPU per operation; 2 048 read
//! the same as 1 024 with chunks past glibc's 128 KB `mmap` threshold.
//!
//! Walking the slab visits chains in insertion order, so GC and the heap
//! census need no hash-order reasoning; only [`MvStore::iter`] and
//! [`MvStore::heads`], which need the keys, walk the index.

use crate::chain::{Chain, Version};
use contrarian_types::{heap, Key, VersionId};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Chains per slab chunk (72 KB of 72-byte chains).
const CHUNK: usize = 1 << 10;

/// A partition's share of the data set: key → version chain.
///
/// Keys never written occupy no memory ("every partition stores 1M keys" in
/// the paper, lazily materialized here). Reads of absent keys return `None`
/// (the API's ⊥).
#[derive(Clone, Debug)]
pub struct MvStore<M> {
    index: HashMap<Key, u32>,
    slab: Slab<M>,
    n_versions: usize,
}

/// Heap bytes of an [`MvStore`], by part.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreHeap {
    /// The key → slot table.
    pub index: usize,
    /// The slab's chunks, each at its full capacity, and their list.
    pub slab: usize,
    /// The vectors of the chains that hold two or more versions.
    pub chains: usize,
    /// What the versions' metadata holds, as the caller's `meta` says.
    pub meta: usize,
}

impl<M> Default for MvStore<M> {
    fn default() -> Self {
        MvStore {
            index: HashMap::new(),
            slab: Slab::default(),
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
        let slot = match self.index.entry(key) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => *e.insert(self.slab.push()),
        };
        let chain = self.slab.get_mut(slot);
        let before = chain.len();
        chain.insert(v);
        self.n_versions += chain.len() - before;
    }

    pub fn chain(&self, key: Key) -> Option<&Chain<M>> {
        self.index.get(&key).map(|&slot| self.slab.get(slot))
    }

    /// The newest version of `key`, if any.
    pub fn latest(&self, key: Key) -> Option<&Version<M>> {
        self.chain(key).and_then(|c| c.head())
    }

    /// The newest version of `key` satisfying `pred`; also returns the scan
    /// length for CPU accounting.
    pub fn read_visible<F>(&self, key: Key, pred: F) -> (Option<&Version<M>>, usize)
    where
        F: FnMut(&Version<M>) -> bool,
    {
        match self.chain(key) {
            None => (None, 0),
            Some(c) => c.newest_visible(pred),
        }
    }

    /// Runs GC over every chain. Returns versions dropped.
    pub fn gc_all(&mut self, horizon_ts: u64, min_keep: usize) -> usize {
        let mut dropped = 0;
        for chain in self.slab.chunks.iter_mut().flatten() {
            dropped += chain.gc(horizon_ts, min_keep);
        }
        self.n_versions -= dropped;
        dropped
    }

    /// Number of materialized keys.
    pub fn n_keys(&self) -> usize {
        self.index.len()
    }

    /// Total number of live versions.
    pub fn n_versions(&self) -> usize {
        self.n_versions
    }

    /// Heap bytes of the index, the slab and the multi-version chains'
    /// vectors, and what `meta` says each version's metadata holds on the
    /// heap. Values are shared blocks their writer owns, and are not
    /// counted. The slab counts at full capacity: the last chunk's
    /// unwritten tail is allocated but not yet resident.
    pub fn heap_bytes(&self, meta: impl Fn(&M) -> usize) -> StoreHeap {
        let mut out = StoreHeap {
            index: heap::map_bytes(&self.index),
            slab: heap::vec_bytes(&self.slab.chunks)
                + self.slab.chunks.iter().map(heap::vec_bytes).sum::<usize>(),
            ..StoreHeap::default()
        };
        for chain in self.slab.chunks.iter().flatten() {
            out.chains += chain.heap_bytes();
            out.meta += chain
                .versions()
                .iter()
                .map(|v| meta(&v.meta))
                .sum::<usize>();
        }
        out
    }

    /// Iterates over all (key, chain) pairs in arbitrary order — callers
    /// (convergence checks) must treat the result as an unordered set.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &Chain<M>)> {
        // lint:allow(determinism): documented-unordered accessor; the convergence checks sort or set-compare what they collect
        self.index.iter().map(|(k, &slot)| (k, self.slab.get(slot)))
    }

    /// `(key, head version id)` for every materialized key, in arbitrary
    /// order (the shape convergence checks compare).
    pub fn heads(&self) -> Vec<(Key, VersionId)> {
        self.iter()
            .filter_map(|(k, c)| c.head().map(|h| (*k, h.vid)))
            .collect()
    }
}

/// The chains in insertion order: every chunk is allocated with room for
/// exactly [`CHUNK`] chains and only the last one is not yet full, so a
/// push never reallocates and a slot's chain stays where it was placed.
#[derive(Debug)]
struct Slab<M> {
    chunks: Vec<Vec<Chain<M>>>,
}

impl<M> Default for Slab<M> {
    fn default() -> Self {
        Slab { chunks: Vec::new() }
    }
}

/// A clone keeps every chunk at full capacity (`Vec::clone` would trim
/// the last one, and its next push would move it).
impl<M: Clone> Clone for Slab<M> {
    fn clone(&self) -> Self {
        let chunks = self
            .chunks
            .iter()
            .map(|chunk| {
                let mut copy = Vec::with_capacity(CHUNK);
                copy.extend_from_slice(chunk);
                copy
            })
            .collect();
        Slab { chunks }
    }
}

impl<M> Slab<M> {
    /// Appends an empty chain and returns its slot.
    fn push(&mut self) -> u32 {
        let len = match self.chunks.last() {
            Some(last) => (self.chunks.len() - 1) * CHUNK + last.len(),
            None => 0,
        };
        let slot = slot_of(len);
        match self.chunks.last_mut() {
            Some(last) if last.len() < CHUNK => last.push(Chain::new()),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.push(Chain::new());
                self.chunks.push(chunk);
            }
        }
        slot
    }

    fn get(&self, slot: u32) -> &Chain<M> {
        let slot = slot as usize;
        &self.chunks[slot / CHUNK][slot % CHUNK]
    }

    fn get_mut(&mut self, slot: u32) -> &mut Chain<M> {
        let slot = slot as usize;
        &mut self.chunks[slot / CHUNK][slot % CHUNK]
    }
}

/// The slot of the `n`-th chain; panics past the `u32` index's reach.
fn slot_of(n: usize) -> u32 {
    u32::try_from(n).unwrap_or_else(|_| {
        panic!(
            "MvStore holds at most {} keys per partition",
            u32::MAX as u64 + 1
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use contrarian_types::{DcId, DepVector, Value, VersionId};
    use proptest::prelude::*;

    /// The `HashMap<Key, Chain>` store this module held before the index
    /// and slab split, kept as the oracle of the differential proptest
    /// below — and nowhere else.
    mod oracle {
        use crate::chain::{Chain, Version};
        use contrarian_types::{Key, VersionId};
        use std::collections::HashMap;

        pub(super) struct MapStore<M> {
            pub(super) map: HashMap<Key, Chain<M>>,
            pub(super) n_versions: usize,
        }

        impl<M> MapStore<M> {
            pub(super) fn new() -> Self {
                MapStore {
                    map: HashMap::new(),
                    n_versions: 0,
                }
            }

            pub(super) fn put(&mut self, key: Key, v: Version<M>) {
                let chain = self.map.entry(key).or_default();
                let before = chain.len();
                chain.insert(v);
                self.n_versions += chain.len() - before;
            }

            pub(super) fn latest(&self, key: Key) -> Option<&Version<M>> {
                self.map.get(&key).and_then(|c| c.head())
            }

            pub(super) fn read_visible<F>(&self, key: Key, pred: F) -> (Option<&Version<M>>, usize)
            where
                F: FnMut(&Version<M>) -> bool,
            {
                match self.map.get(&key) {
                    None => (None, 0),
                    Some(c) => c.newest_visible(pred),
                }
            }

            pub(super) fn gc_all(&mut self, horizon_ts: u64, min_keep: usize) -> usize {
                let mut dropped = 0;
                for chain in self.map.values_mut() {
                    dropped += chain.gc(horizon_ts, min_keep);
                }
                self.n_versions -= dropped;
                dropped
            }

            pub(super) fn heads(&self) -> Vec<(Key, VersionId)> {
                self.map
                    .iter()
                    .filter_map(|(k, c)| c.head().map(|h| (*k, h.vid)))
                    .collect()
            }
        }
    }

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

    /// The index entry is a key and a `u32` slot: 16 B, against the 80 B
    /// of a bucket that holds its chain inline.
    #[test]
    fn index_slot_is_16_bytes() {
        assert_eq!(std::mem::size_of::<(Key, u32)>(), 16);
    }

    /// Chains stay where they were placed while the slab grows by many
    /// chunks (and once a clone has been taken): the slab never
    /// reallocates a chunk.
    #[test]
    fn existing_chains_never_move() {
        let mut s = MvStore::new();
        s.put(Key(0), ver(1));
        s.put(Key(1), ver(1));
        let addr = |s: &MvStore<u32>, k| s.chain(Key(k)).unwrap() as *const Chain<u32>;
        let (first, second) = (addr(&s, 0), addr(&s, 1));
        let mut copy = s.clone();
        let copied = addr(&copy, 1);
        for k in 2..(3 * CHUNK as u64 + 7) {
            s.put(Key(k), ver(k));
            copy.put(Key(k), ver(k));
        }
        assert_eq!(addr(&s, 0), first);
        assert_eq!(addr(&s, 1), second);
        assert_eq!(addr(&copy, 1), copied);
        assert!(s.slab.chunks.iter().all(|c| c.capacity() == CHUNK));
        assert!(copy.slab.chunks.iter().all(|c| c.capacity() == CHUNK));
        assert_eq!(s.n_keys(), 3 * CHUNK + 7);
    }

    /// The heap split: a full table of index entries, whole chunks, and a
    /// vector only for the chains of two or more versions.
    #[test]
    fn heap_bytes_splits_index_slab_and_chains() {
        let mut s: MvStore<DepVector> = MvStore::new();
        assert_eq!(s.heap_bytes(|_| 0), StoreHeap::default());
        let put = |s: &mut MvStore<DepVector>, k, ts| {
            let vid = VersionId::new(ts, DcId(0));
            s.put(Key(k), Version::new(vid, Value::new(), DepVector::zero(3)));
        };
        for k in 0..(CHUNK as u64 + 1) {
            put(&mut s, k, 1);
        }
        put(&mut s, 0, 2);
        let h = s.heap_bytes(DepVector::heap_bytes);
        assert_eq!(h.index, heap::map_bytes(&s.index));
        let chain = std::mem::size_of::<Chain<DepVector>>();
        let chunk_list = s.slab.chunks.capacity() * std::mem::size_of::<Vec<Chain<DepVector>>>();
        assert_eq!(h.slab, chunk_list + 2 * CHUNK * chain);
        assert_eq!(h.chains, 2 * std::mem::size_of::<Version<DepVector>>());
        assert_eq!(h.meta, (CHUNK + 2) * 24);
    }

    #[test]
    #[should_panic(expected = "at most 4294967296 keys")]
    fn a_slot_past_u32_panics_with_the_limit() {
        slot_of(u32::MAX as usize + 1);
    }

    #[test]
    fn the_last_u32_slot_is_addressable() {
        assert_eq!(slot_of(u32::MAX as usize), u32::MAX);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The index-and-slab store against the map store it replaced,
        /// under random put (new key, append, out-of-order, duplicate id)
        /// / gc / read sequences: same reads, scan counts, drop counts,
        /// heads and counts after every step. Each case first fills a
        /// run of distinct keys that ends before, at or past a chunk
        /// boundary, then works on a window of keys that straddles its
        /// end, so new keys keep landing in fresh slots and chunks.
        #[test]
        fn store_matches_map_oracle(
            fill in (0usize..3, 0u64..48),
            ops in prop::collection::vec((0u8..10, 0u64..40, 0u64..24, 0u8..3), 1..120),
        ) {
            let fill = [0, CHUNK as u64 - 24, 2 * CHUNK as u64 - 24][fill.0] + fill.1;
            let mut s: MvStore<u32> = MvStore::new();
            let mut o: oracle::MapStore<u32> = oracle::MapStore::new();
            for k in 0..fill {
                s.put(Key(k), ver(1));
                o.put(Key(k), ver(1));
            }
            let base = fill.saturating_sub(16);
            for (step, (op, k, ts, x)) in ops.into_iter().enumerate() {
                let key = Key(base + k);
                match op {
                    0..=4 => {
                        // `meta` is the step, so a duplicate-id put that
                        // failed to replace would show in `latest`.
                        let vid = VersionId::new(ts, DcId(x));
                        s.put(key, Version::new(vid, Value::new(), step as u32));
                        o.put(key, Version::new(vid, Value::new(), step as u32));
                    }
                    5 => {
                        let min_keep = [0, 1, 2][x as usize];
                        prop_assert_eq!(s.gc_all(ts, min_keep), o.gc_all(ts, min_keep));
                    }
                    6 | 7 => {
                        let pred = |v: &Version<u32>| v.vid.origin.0 <= x && v.vid.ts < ts;
                        let (got, n) = s.read_visible(key, pred);
                        let (want, m) = o.read_visible(key, pred);
                        let pair = |v: &Version<u32>| (v.vid, v.meta);
                        prop_assert_eq!(got.map(pair), want.map(pair));
                        prop_assert_eq!(n, m);
                    }
                    _ => {
                        let mut got = s.heads();
                        let mut want = o.heads();
                        got.sort();
                        want.sort();
                        prop_assert_eq!(got, want);
                    }
                }
                prop_assert_eq!(
                    s.latest(key).map(|v| (v.vid, v.meta)),
                    o.latest(key).map(|v| (v.vid, v.meta))
                );
                prop_assert_eq!(s.n_keys(), o.map.len());
                prop_assert_eq!(s.n_versions(), o.n_versions);
            }
            for (k, chain) in &o.map {
                let mine = s.chain(*k).expect("every oracle key is indexed");
                prop_assert_eq!(
                    mine.versions().iter().map(|v| (v.vid, v.meta)).collect::<Vec<_>>(),
                    chain.versions().iter().map(|v| (v.vid, v.meta)).collect::<Vec<_>>()
                );
            }
        }
    }
}
