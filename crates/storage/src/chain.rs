//! Per-key version chains.

use contrarian_types::{Value, VersionId};
use std::cmp::Ordering;

/// One version of one key.
#[derive(Clone, Debug)]
pub struct Version<M> {
    pub vid: VersionId,
    pub value: Value,
    /// Protocol-specific metadata (dependency vector, old-reader record, …).
    pub meta: M,
    /// Runtime timestamp (virtual/wall ns) at which the *origin* DC
    /// installed this write. Propagated in replication so remote reads
    /// and installs can measure visibility/data staleness against a
    /// clock comparable across backends. Zero when unknown (tests,
    /// prepopulated genesis data).
    pub birth: u64,
}

impl<M> Version<M> {
    pub fn new(vid: VersionId, value: Value, meta: M) -> Self {
        Version {
            vid,
            value,
            meta,
            birth: 0,
        }
    }

    /// Stamps the origin-install time (builder style so existing
    /// `Version::new` call sites stay untouched).
    pub fn with_birth(mut self, birth: u64) -> Self {
        self.birth = birth;
        self
    }
}

/// The versions of a single key, kept sorted ascending by [`VersionId`].
///
/// Inserts are usually appends (new versions have the largest id); remote
/// replication can interleave, so insertion falls back to a binary search.
///
/// ## Layout: a chain of one version lives inline
///
/// Most keys of a large data set are written once and then only read: on
/// the 128-server uniform-key tier (`sim_scale_okapi`) practically every
/// chain holds exactly one version. A `Vec`-backed chain pays for that
/// case twice — `Vec::push` on an empty vector reserves room for *four*
/// elements, so 84 035 one-version chains held 24.2 MB of 288-byte heap
/// blocks (a third of that cluster's resident set) to store 72 bytes
/// each, and every read chased a pointer to a cold line. The chain is
/// therefore a three-state value: empty, one version stored in the chain
/// itself, or a vector of two or more. The second insert promotes to an
/// exact two-element vector and a GC that cuts back to one version
/// demotes again, so `Many` always holds at least two. Everything reads
/// through the [`Chain::versions`] slice view; scan counts, GC drop
/// counts and iteration order are those of the plain vector (a
/// differential proptest below holds the two against each other). The
/// enum tag rides in a niche of `Version`, so a chain is exactly as large
/// as the one version it can hold — pinned by a test, because it is the
/// size of every `MvStore` bucket. That wider bucket (80 B with the key,
/// against 32 B) is the price: a table small enough to sit in cache fills
/// ≈ 14 % slower per new key, a large one ≈ 35 % faster
/// (`mv_store/put_distinct/{4096,65536}`).
#[derive(Clone, Debug)]
pub struct Chain<M> {
    repr: Repr<M>,
}

#[derive(Clone, Debug, Default)]
enum Repr<M> {
    #[default]
    Empty,
    One(Version<M>),
    /// Two or more versions, ascending.
    Many(Vec<Version<M>>),
}

impl<M> Default for Chain<M> {
    fn default() -> Self {
        Chain {
            repr: Repr::default(),
        }
    }
}

impl<M> Chain<M> {
    pub fn new() -> Self {
        Self::default()
    }

    /// The versions, oldest first.
    #[inline]
    pub fn versions(&self) -> &[Version<M>] {
        match &self.repr {
            Repr::Empty => &[],
            Repr::One(v) => std::slice::from_ref(v),
            Repr::Many(vs) => vs,
        }
    }

    pub fn len(&self) -> usize {
        self.versions().len()
    }

    pub fn is_empty(&self) -> bool {
        matches!(self.repr, Repr::Empty)
    }

    /// Inserts a version, keeping the chain sorted. Inserting an id that is
    /// already present replaces it (idempotent replication delivery).
    pub fn insert(&mut self, v: Version<M>) {
        // A contended key's chain already holds a vector and is updated in
        // place: moving it out and back as the match below does costs a
        // third more per append (`version_chain/insert_append`).
        if let Repr::Many(vs) = &mut self.repr {
            return insert_sorted(vs, v);
        }
        self.repr = match std::mem::take(&mut self.repr) {
            Repr::Empty => Repr::One(v),
            Repr::One(old) => match old.vid.cmp(&v.vid) {
                Ordering::Less => Repr::Many(vec![old, v]),
                Ordering::Equal => Repr::One(v),
                Ordering::Greater => Repr::Many(vec![v, old]),
            },
            Repr::Many(mut vs) => {
                insert_sorted(&mut vs, v);
                Repr::Many(vs)
            }
        };
    }

    /// The newest version (the LWW winner).
    pub fn head(&self) -> Option<&Version<M>> {
        self.versions().last()
    }

    /// Newest-first iteration.
    pub fn iter_desc(&self) -> impl Iterator<Item = &Version<M>> {
        self.versions().iter().rev()
    }

    /// The newest version satisfying `pred` (e.g. `DV ≤ SV`). Also returns
    /// how many versions were scanned, so callers can charge CPU for the
    /// walk.
    pub fn newest_visible<F>(&self, mut pred: F) -> (Option<&Version<M>>, usize)
    where
        F: FnMut(&Version<M>) -> bool,
    {
        let mut scanned = 0;
        for v in self.iter_desc() {
            scanned += 1;
            if pred(v) {
                return (Some(v), scanned);
            }
        }
        (None, scanned)
    }

    /// The newest version with `vid.ts` strictly below `ts_bound`
    /// (CC-LO's "most recent version before that time" rule).
    pub fn newest_before(&self, ts_bound: u64) -> (Option<&Version<M>>, usize) {
        self.newest_visible(|v| v.vid.ts < ts_bound)
    }

    /// Heap bytes of the chain's vector: 0 for an empty or inline chain.
    pub fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Many(vs) => contrarian_types::heap::vec_bytes(vs),
            Repr::Empty | Repr::One(_) => 0,
        }
    }

    /// Drops versions with `vid.ts < horizon_ts`, always retaining at least
    /// the newest `min_keep` versions. Returns the number dropped.
    pub fn gc(&mut self, horizon_ts: u64, min_keep: usize) -> usize {
        let len = self.len();
        if len <= min_keep {
            return 0;
        }
        let cut = self
            .versions()
            .iter()
            .take(len - min_keep)
            .take_while(|v| v.vid.ts < horizon_ts)
            .count();
        if cut > 0 {
            let kept = len - cut;
            self.repr = match std::mem::take(&mut self.repr) {
                Repr::Many(mut vs) if kept >= 2 => {
                    vs.drain(..cut);
                    Repr::Many(vs)
                }
                // Back to one version: the survivor moves inline and the
                // vector is freed.
                Repr::Many(mut vs) if kept == 1 => vs.pop().map_or(Repr::Empty, Repr::One),
                _ => Repr::Empty,
            };
        }
        cut
    }

    /// Panics if the sorted-ascending invariant is violated (test helper).
    pub fn assert_invariants(&self) {
        for w in self.versions().windows(2) {
            assert!(w[0].vid < w[1].vid, "chain must be strictly ascending");
        }
        if let Repr::Many(vs) = &self.repr {
            assert!(
                vs.len() >= 2,
                "a chain of {} must not hold a vector",
                vs.len()
            );
        }
    }
}

/// Appends `v` if it is the newest id, else replaces or inserts at its
/// sorted position.
fn insert_sorted<M>(vs: &mut Vec<Version<M>>, v: Version<M>) {
    match vs.last() {
        Some(last) if last.vid < v.vid => vs.push(v),
        _ => match vs.binary_search_by(|e| e.vid.cmp(&v.vid)) {
            Ok(i) => vs[i] = v,
            Err(i) => vs.insert(i, v),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contrarian_types::{DcId, DepVector};
    use proptest::prelude::*;

    /// The `Vec`-only chain this module held before single versions moved
    /// inline, kept as the oracle of the differential proptest below — and
    /// nowhere else.
    mod model {
        use super::super::Version;

        pub(super) struct Chain<M> {
            pub(super) versions: Vec<Version<M>>,
        }

        impl<M> Chain<M> {
            pub(super) fn new() -> Self {
                Chain {
                    versions: Vec::new(),
                }
            }

            pub(super) fn insert(&mut self, v: Version<M>) {
                match self.versions.last() {
                    Some(last) if last.vid < v.vid => self.versions.push(v),
                    _ => match self.versions.binary_search_by(|e| e.vid.cmp(&v.vid)) {
                        Ok(i) => self.versions[i] = v,
                        Err(i) => self.versions.insert(i, v),
                    },
                }
            }

            pub(super) fn newest_visible<F>(&self, mut pred: F) -> (Option<&Version<M>>, usize)
            where
                F: FnMut(&Version<M>) -> bool,
            {
                let mut scanned = 0;
                for v in self.versions.iter().rev() {
                    scanned += 1;
                    if pred(v) {
                        return (Some(v), scanned);
                    }
                }
                (None, scanned)
            }

            pub(super) fn gc(&mut self, horizon_ts: u64, min_keep: usize) -> usize {
                if self.versions.len() <= min_keep {
                    return 0;
                }
                let max_drop = self.versions.len() - min_keep;
                let cut = self
                    .versions
                    .iter()
                    .take(max_drop)
                    .take_while(|v| v.vid.ts < horizon_ts)
                    .count();
                if cut > 0 {
                    self.versions.drain(..cut);
                }
                cut
            }
        }
    }

    fn v(ts: u64, dc: u8) -> Version<()> {
        Version::new(VersionId::new(ts, DcId(dc)), Value::from_static(b"x"), ())
    }

    /// `(vid, meta)` of every version, oldest first.
    fn contents(vs: &[Version<u32>]) -> Vec<(VersionId, u32)> {
        vs.iter().map(|v| (v.vid, v.meta)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The inline chain against the `Vec`-only model under random
        /// insert (append, out-of-order, duplicate id) / gc / read
        /// sequences: same versions, same scan counts, same drop counts.
        /// Timestamps come from a small range and `min_keep` includes 0, so
        /// a chain crosses empty ↔ one ↔ many in both directions many times
        /// per case, and the representation is checked against the length
        /// after every step: promotion and demotion must both have happened.
        #[test]
        fn chain_matches_vec_model(
            ops in prop::collection::vec((0u8..10, 0u64..24, 0u8..3), 1..160),
        ) {
            let mut chain: Chain<u32> = Chain::new();
            let mut m: model::Chain<u32> = model::Chain::new();
            for (step, (op, ts, x)) in ops.into_iter().enumerate() {
                match op {
                    0..=4 => {
                        // `meta` is the step, so a duplicate-id insert that
                        // failed to replace would show in `contents`.
                        let ver = |meta| {
                            Version::new(VersionId::new(ts, DcId(x)), Value::new(), meta)
                        };
                        chain.insert(ver(step as u32));
                        m.insert(ver(step as u32));
                    }
                    5 | 6 => {
                        let min_keep = [0, 1, 3][x as usize];
                        prop_assert_eq!(chain.gc(ts, min_keep), m.gc(ts, min_keep));
                    }
                    7 => {
                        let (got, scanned) = chain.newest_before(ts);
                        let (want, m_scanned) = m.newest_visible(|v| v.vid.ts < ts);
                        prop_assert_eq!(got.map(|v| v.vid), want.map(|v| v.vid));
                        prop_assert_eq!(scanned, m_scanned);
                    }
                    _ => {
                        let pred = |v: &Version<u32>| v.vid.origin.0 <= x && v.vid.ts & 3 != 0;
                        let (got, scanned) = chain.newest_visible(pred);
                        let (want, m_scanned) = m.newest_visible(pred);
                        prop_assert_eq!(got.map(|v| v.vid), want.map(|v| v.vid));
                        prop_assert_eq!(scanned, m_scanned);
                    }
                }
                chain.assert_invariants();
                prop_assert!(match (&chain.repr, m.versions.len()) {
                    (Repr::Empty, 0) | (Repr::One(_), 1) => true,
                    (Repr::Many(_), n) => n >= 2,
                    _ => false,
                });
                prop_assert_eq!(contents(chain.versions()), contents(&m.versions));
                prop_assert_eq!(chain.len(), m.versions.len());
                prop_assert_eq!(chain.is_empty(), m.versions.is_empty());
                prop_assert_eq!(chain.head().map(|v| v.vid), m.versions.last().map(|v| v.vid));
                prop_assert_eq!(
                    chain.iter_desc().map(|v| v.vid).collect::<Vec<_>>(),
                    m.versions.iter().rev().map(|v| v.vid).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn second_insert_promotes_exactly_and_gc_demotes() {
        let mut c = Chain::new();
        assert!(matches!(c.repr, Repr::Empty));
        c.insert(v(5, 0));
        assert!(matches!(c.repr, Repr::One(_)));
        // A redelivered id replaces in place; an older id promotes too.
        c.insert(v(5, 0));
        assert!(matches!(c.repr, Repr::One(_)));
        c.insert(v(3, 0));
        match &c.repr {
            Repr::Many(vs) => assert_eq!((vs.len(), vs.capacity()), (2, 2)),
            other => panic!("expected a vector, got {other:?}"),
        }
        assert_eq!(c.head().unwrap().vid.ts, 5);
        c.insert(v(9, 0));
        assert_eq!(c.gc(9, 1), 2);
        assert!(matches!(c.repr, Repr::One(_)), "one survivor lives inline");
        assert_eq!(c.head().unwrap().vid.ts, 9);
        assert_eq!(c.gc(100, 0), 1);
        assert!(matches!(c.repr, Repr::Empty));
        assert!(c.is_empty() && c.head().is_none());
        c.assert_invariants();
    }

    /// The chain is the value type of every `MvStore` bucket: it must stay
    /// exactly as large as the one version it holds inline (the enum tag
    /// rides in a niche of `Version`). A field that breaks the niche, or
    /// any growth of `Version`, shows up here instead of as resident set.
    #[test]
    fn chain_is_as_large_as_one_version() {
        use std::mem::size_of;
        assert_eq!(size_of::<Version<DepVector>>(), 72);
        assert_eq!(
            size_of::<Chain<DepVector>>(),
            size_of::<Version<DepVector>>()
        );
    }

    #[test]
    fn insert_appends_in_order() {
        let mut c = Chain::new();
        c.insert(v(1, 0));
        c.insert(v(2, 0));
        c.insert(v(3, 0));
        assert_eq!(c.len(), 3);
        assert_eq!(c.head().unwrap().vid.ts, 3);
        c.assert_invariants();
    }

    #[test]
    fn insert_out_of_order_sorts() {
        let mut c = Chain::new();
        c.insert(v(5, 0));
        c.insert(v(2, 0));
        c.insert(v(9, 0));
        c.insert(v(3, 1));
        assert_eq!(c.head().unwrap().vid.ts, 9);
        let ts: Vec<u64> = c.iter_desc().map(|x| x.vid.ts).collect();
        assert_eq!(ts, vec![9, 5, 3, 2]);
        c.assert_invariants();
    }

    #[test]
    fn insert_same_vid_is_idempotent() {
        let mut c = Chain::new();
        c.insert(v(5, 0));
        c.insert(v(5, 0));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn concurrent_versions_ordered_by_origin() {
        let mut c = Chain::new();
        c.insert(v(5, 1));
        c.insert(v(5, 0));
        // LWW winner is (5, dc1): higher origin breaks the tie.
        assert_eq!(c.head().unwrap().vid, VersionId::new(5, DcId(1)));
    }

    #[test]
    fn newest_visible_scans_newest_first() {
        let mut c = Chain::new();
        for ts in [1, 2, 3, 4] {
            c.insert(v(ts, 0));
        }
        let (found, scanned) = c.newest_visible(|ver| ver.vid.ts <= 2);
        assert_eq!(found.unwrap().vid.ts, 2);
        assert_eq!(scanned, 3); // looked at 4, 3, then matched 2
    }

    #[test]
    fn newest_before_is_strict() {
        let mut c = Chain::new();
        for ts in [10, 20, 30] {
            c.insert(v(ts, 0));
        }
        assert_eq!(c.newest_before(30).0.unwrap().vid.ts, 20);
        assert_eq!(c.newest_before(31).0.unwrap().vid.ts, 30);
        assert!(c.newest_before(10).0.is_none());
    }

    #[test]
    fn gc_respects_min_keep() {
        let mut c = Chain::new();
        for ts in 1..=10 {
            c.insert(v(ts, 0));
        }
        let dropped = c.gc(100, 3);
        assert_eq!(dropped, 7);
        assert_eq!(c.len(), 3);
        assert_eq!(c.head().unwrap().vid.ts, 10);
    }

    #[test]
    fn gc_respects_horizon() {
        let mut c = Chain::new();
        for ts in 1..=10 {
            c.insert(v(ts, 0));
        }
        let dropped = c.gc(4, 1);
        assert_eq!(dropped, 3);
        assert_eq!(c.len(), 7);
        assert_eq!(c.iter_desc().last().unwrap().vid.ts, 4);
    }

    #[test]
    fn gc_on_short_chain_is_noop() {
        let mut c = Chain::new();
        c.insert(v(1, 0));
        assert_eq!(c.gc(100, 1), 0);
        assert_eq!(c.len(), 1);
    }
}
