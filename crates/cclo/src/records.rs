//! Reader records, old-reader records and per-version block records — the
//! bookkeeping that COPS-SNOW's latency-optimal ROTs hang on.
//!
//! Both record types are flat sequences kept in [`TxId`] order, i.e. by
//! `(client, seq)`: vectors, except that a reader set of one keeps its
//! entry inline (layout below). Three invariants hold everything else up:
//!
//! * **Sorted by `TxId`, one entry per id.** A client's ROTs sit next to
//!   each other in issue order, so [`ReaderSet::query_into`] picks each
//!   client's most recent qualifying ROT in one forward pass and its
//!   result — which is message bytes — comes out already sorted;
//!   [`BlockRecord::bound`] is a binary search.
//! * **[`ReaderSet::len`] is a cost-model input.** It counts the distinct
//!   tx ids inserted and not yet swept, expired or not: the server charges
//!   `len() × 100 ns` of virtual CPU per queried key and
//!   `(kept + dropped) × 100 ns` per GC sweep, so a representation that
//!   changed what `len()` counts would change simulated latencies.
//! * **A sealed record names only ROTs that can still read.** A
//!   [`BlockRecord`] keeps, per client, only the newest tx its readers
//!   check named, and only if that tx's `seq` is at or above the client's
//!   [`RotFloor`] at the sealing server (the newest ROT `seq` the server
//!   has seen from that client). This is safe because a client has one
//!   operation in flight and numbers its ROTs in increasing order: a
//!   server can only see `(c, s′)` after `c` issued it, and `c` issues it
//!   only after every slice of every `(c, s < s′)` has returned. So a
//!   pruned tx never reaches the server's version lookup again, and no
//!   `bound` answer a live ROT can ask changes. No cost-model input reads
//!   a sealed record's length — the readers check's Figure-6 counters are
//!   taken from the replies before the seal — so the pruning is invisible
//!   in virtual time.
//!
//! **Layout: a single reader lives inline.** A [`ReaderSet`] holds one
//! entry in place, in the map slot, and moves to a vector only at its
//! second: both entries go, in `TxId` order, into one exact two-element
//! block. A GC sweep that leaves one entry moves it back inline, one that
//! leaves none frees the block, and an absorb leaves the set it drains
//! empty and unallocated. The reason is what the readers maps hold. On
//! `sim_write_cclo`'s overload rung at t = 500 ms, partition 0 had 3 707
//! keys with current readers and 3 327 of them had exactly one. With a
//! vector per set each of those paid a 4-slot, 128 B block: 15 616 slots
//! for 4 757 entries, ≈ 795 KB a partition and ≈ 25 MB over 32, about
//! half the run's heap. Inline, such a key costs its 48 B map slot
//! (`ReaderSet` is 40 B, size pinned by a test), and the run peaks at
//! ≈ 33 MB instead of ≈ 47 MB. `len()` counts the same entries either way.

use contrarian_types::{ClientId, TxId};
use std::cmp::{Ordering, Reverse};

/// One recorded read: which transaction read, at what logical time, and how
/// fresh the version it read was.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReaderEntry {
    pub tx: TxId,
    /// Logical (Lamport) time of the read at this partition.
    pub read_time: u64,
    /// Timestamp of the version that was read (0 for ⊥).
    pub read_version_ts: u64,
    /// True time of insertion, for the 500 ms garbage collection.
    pub inserted_at: u64,
}

impl ReaderEntry {
    fn expired(&self, now: u64, gc_ns: u64) -> bool {
        now.saturating_sub(self.inserted_at) > gc_ns
    }
}

/// Readers of a key — either the *current* readers (of the head version) or
/// the accumulated *old* readers (of superseded versions). Sorted by `tx`,
/// one entry per tx id. A single reader lives inline, a second promotes
/// both into an exact two-slot vector, and an empty set owns no allocation
/// (module docs).
#[derive(Clone, Debug, Default)]
pub struct ReaderSet {
    repr: Repr,
}

#[derive(Clone, Debug)]
enum Repr {
    One(ReaderEntry),
    /// Zero entries (unallocated) or two or more.
    Many(Vec<ReaderEntry>),
}

impl Default for Repr {
    fn default() -> Self {
        Repr::Many(Vec::new())
    }
}

impl Repr {
    /// The representation of `v`, which is sorted: one entry moves inline
    /// and frees the vector, none frees it too.
    fn of(v: Vec<ReaderEntry>) -> Self {
        match v.as_slice() {
            [] => Repr::default(),
            [e] => Repr::One(*e),
            _ => Repr::Many(v),
        }
    }
}

impl ReaderSet {
    pub fn new() -> Self {
        Self::default()
    }

    /// The entries, in `TxId` order.
    fn entries(&self) -> &[ReaderEntry] {
        match &self.repr {
            Repr::One(e) => std::slice::from_ref(e),
            Repr::Many(v) => v,
        }
    }

    /// Distinct tx ids inserted and not yet swept (a cost-model input, see
    /// the module docs).
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries().is_empty()
    }

    /// Records a read. A ROT reads a key at most once, so a duplicate tx id
    /// simply refreshes the entry.
    pub fn insert(&mut self, e: ReaderEntry) {
        match &mut self.repr {
            Repr::One(old) => {
                let old = *old;
                self.repr = match old.tx.cmp(&e.tx) {
                    Ordering::Less => Repr::Many(vec![old, e]),
                    Ordering::Equal => Repr::One(e),
                    Ordering::Greater => Repr::Many(vec![e, old]),
                };
            }
            Repr::Many(v) if v.is_empty() => self.repr = Repr::One(e),
            Repr::Many(v) => {
                if v.last().is_none_or(|last| last.tx < e.tx) {
                    v.push(e);
                    return;
                }
                match v.binary_search_by_key(&e.tx, |x| x.tx) {
                    Ok(i) => v[i] = e,
                    Err(i) => v.insert(i, e),
                }
            }
        }
    }

    /// Moves every entry of `other` into `self` (current readers become old
    /// readers when the head version is superseded), leaving `other` empty
    /// and unallocated. For a tx id in both, `other`'s entry wins.
    pub fn absorb(&mut self, other: &mut ReaderSet) {
        if self.is_empty() {
            std::mem::swap(&mut self.repr, &mut other.repr);
            return;
        }
        let other = std::mem::take(other);
        let (a, b) = (self.entries(), other.entries());
        let mut merged = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].tx.cmp(&b[j].tx) {
                Ordering::Less => {
                    merged.push(a[i]);
                    i += 1;
                }
                Ordering::Greater => {
                    merged.push(b[j]);
                    j += 1;
                }
                Ordering::Equal => {
                    merged.push(b[j]);
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&a[i..]);
        merged.extend_from_slice(&b[j..]);
        self.repr = Repr::of(merged);
    }

    /// The old readers *relative to a dependency version*: transactions that
    /// read something older than `dep_ts`, still within the GC window, with
    /// at most one entry per client (its most recent ROT — clients issue one
    /// operation at a time, so older ROTs of a client can have no in-flight
    /// reads). Appends the `(tx, read_time)` pairs to `out`, sorted by tx
    /// id, leaving what `out` already held untouched; returns how many it
    /// appended. Reserves room for the worst case up front, so a call
    /// allocates at most once, and not at all when `out` has room.
    pub fn query_into(
        &self,
        dep_ts: u64,
        now: u64,
        gc_ns: u64,
        out: &mut Vec<(TxId, u64)>,
    ) -> usize {
        let entries = self.entries();
        out.reserve(entries.len());
        let start = out.len();
        for e in entries {
            // Reading the dependency or newer is not old for it.
            if e.read_version_ts >= dep_ts || e.expired(now, gc_ns) {
                continue;
            }
            // A client's ROTs are adjacent in issue order: a later one
            // replaces the one just emitted.
            match out[start..].last_mut() {
                Some(last) if last.0.client == e.tx.client => *last = (e.tx, e.read_time),
                _ => out.push((e.tx, e.read_time)),
            }
        }
        out.len() - start
    }

    /// [`query_into`](Self::query_into) into a fresh vector.
    pub fn query(&self, dep_ts: u64, now: u64, gc_ns: u64) -> Vec<(TxId, u64)> {
        let mut out = Vec::new();
        self.query_into(dep_ts, now, gc_ns, &mut out);
        out
    }

    /// Drops entries older than the GC window. Returns how many were kept
    /// and dropped (for CPU accounting).
    pub fn gc(&mut self, now: u64, gc_ns: u64) -> (usize, usize) {
        let before = self.len();
        match &mut self.repr {
            Repr::One(e) if e.expired(now, gc_ns) => self.repr = Repr::default(),
            Repr::One(_) => {}
            Repr::Many(v) => {
                v.retain(|e| !e.expired(now, gc_ns));
                if v.len() < 2 {
                    self.repr = Repr::of(std::mem::take(v));
                }
            }
        }
        (self.len(), before - self.len())
    }

    pub fn contains(&self, tx: TxId) -> bool {
        self.entries().binary_search_by_key(&tx, |e| e.tx).is_ok()
    }

    /// Panics unless the entries are strictly `TxId`-ascending, a vector
    /// holds no exactly-one set, and an empty set owns no allocation.
    #[cfg(test)]
    fn assert_invariants(&self) {
        assert!(
            self.entries().windows(2).all(|w| w[0].tx < w[1].tx),
            "reader set must be strictly ascending by tx"
        );
        if let Repr::Many(v) = &self.repr {
            assert_ne!(v.len(), 1, "a single reader must live inline");
            assert!(
                !v.is_empty() || v.capacity() == 0,
                "an empty reader set must not own a block"
            );
        }
    }
}

/// The newest ROT `seq` a server has seen from each client. A client's ROTs
/// below its floor have finished everywhere, so a sealed [`BlockRecord`]
/// need not name them (module docs).
#[derive(Clone, Debug, Default)]
pub struct RotFloor {
    /// Indexed by `[dc][client index]`; client indices are dense, and a
    /// client not seen yet reads as 0, which prunes nothing.
    newest: Vec<Vec<u32>>,
}

impl RotFloor {
    pub fn new() -> Self {
        Self::default()
    }

    /// Notes that `tx` reached this server.
    pub fn observe(&mut self, tx: TxId) {
        let (dc, i) = (tx.client.dc().0 as usize, tx.client.idx() as usize);
        if self.newest.len() <= dc {
            self.newest.resize_with(dc + 1, Vec::new);
        }
        let row = &mut self.newest[dc];
        if row.len() <= i {
            row.resize(i + 1, 0);
        }
        row[i] = row[i].max(tx.seq);
    }

    /// The newest ROT `seq` seen from `client`, 0 if none.
    pub fn of(&self, client: ClientId) -> u32 {
        self.newest
            .get(client.dc().0 as usize)
            .and_then(|row| row.get(client.idx() as usize))
            .copied()
            .unwrap_or(0)
    }
}

/// The per-version old-reader record: ROT ids that must *not* observe this
/// version, each with the logical time bound of its stale read. It stores
/// only ROTs that can still read at the sealing server: at most one per
/// client, none below the client's [`RotFloor`] (module docs).
#[derive(Clone, Debug)]
pub struct BlockRecord {
    /// Sorted by tx id, at most one pair per client.
    entries: Vec<(TxId, u64)>,
}

impl BlockRecord {
    /// Builds the record of a version about to install from everything its
    /// readers check collected — local queries and peers' replies, in any
    /// order and with duplicates. Per client it keeps only the newest tx
    /// named, with that tx's *smallest* read time (the most restrictive
    /// bound), and only if the tx is at or above the client's `floor`.
    pub fn seal(mut pairs: Vec<(TxId, u64)>, floor: &RotFloor) -> Self {
        // Per client: its newest tx first, that tx's smallest read time
        // first within it.
        pairs.sort_unstable_by_key(|&(tx, rt)| (tx.client, Reverse(tx.seq), rt));
        pairs.dedup_by_key(|p| p.0.client);
        pairs.retain(|(tx, _)| tx.seq >= floor.of(tx.client));
        pairs.shrink_to_fit();
        BlockRecord { entries: pairs }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The read-time bound for `tx`, if it is blocked.
    pub fn bound(&self, tx: TxId) -> Option<u64> {
        let i = self.entries.binary_search_by_key(&tx, |p| p.0).ok()?;
        Some(self.entries[i].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contrarian_types::{ClientId, DcId};
    use proptest::prelude::*;

    /// The map-based records this module used before it was rebuilt on flat
    /// vectors — the block record still naming every id the readers check
    /// returned, before sealing dropped the ROTs that can no longer read —
    /// kept as the oracle of the differential proptests below and nowhere
    /// else. (The maps are `by_tx`, not `entries`: the determinism lint
    /// tracks hash-typed names per file.)
    mod model {
        use super::super::ReaderEntry;
        use contrarian_types::{ClientId, TxId};
        use std::collections::HashMap;

        #[derive(Default)]
        pub(super) struct ReaderSet {
            by_tx: HashMap<TxId, ReaderEntry>,
        }

        impl ReaderSet {
            pub(super) fn len(&self) -> usize {
                self.by_tx.len()
            }

            pub(super) fn insert(&mut self, e: ReaderEntry) {
                self.by_tx.insert(e.tx, e);
            }

            pub(super) fn absorb(&mut self, other: &mut ReaderSet) {
                for (tx, e) in other.by_tx.drain() {
                    self.by_tx.insert(tx, e);
                }
            }

            pub(super) fn query(&self, dep_ts: u64, now: u64, gc_ns: u64) -> Vec<(TxId, u64)> {
                let mut per_client: HashMap<ClientId, (TxId, u64)> = HashMap::new();
                for e in self.by_tx.values() {
                    if e.read_version_ts >= dep_ts {
                        continue; // read the dependency or newer: not old for it
                    }
                    if now.saturating_sub(e.inserted_at) > gc_ns {
                        continue; // expired
                    }
                    match per_client.get_mut(&e.tx.client) {
                        Some(best) => {
                            if e.tx.seq > best.0.seq {
                                *best = (e.tx, e.read_time);
                            }
                        }
                        None => {
                            per_client.insert(e.tx.client, (e.tx, e.read_time));
                        }
                    }
                }
                let mut out: Vec<(TxId, u64)> = per_client.into_values().collect();
                out.sort_unstable(); // deterministic message contents
                out
            }

            pub(super) fn gc(&mut self, now: u64, gc_ns: u64) -> (usize, usize) {
                let before = self.by_tx.len();
                self.by_tx
                    .retain(|_, e| now.saturating_sub(e.inserted_at) <= gc_ns);
                (self.by_tx.len(), before - self.by_tx.len())
            }

            pub(super) fn contains(&self, tx: TxId) -> bool {
                self.by_tx.contains_key(&tx)
            }
        }

        #[derive(Default)]
        pub(super) struct BlockRecord {
            by_tx: HashMap<TxId, u64>,
        }

        impl BlockRecord {
            pub(super) fn merge_pairs(&mut self, pairs: &[(TxId, u64)]) {
                for &(tx, read_time) in pairs {
                    self.by_tx
                        .entry(tx)
                        .and_modify(|rt| {
                            if read_time < *rt {
                                *rt = read_time;
                            }
                        })
                        .or_insert(read_time);
                }
            }

            pub(super) fn bound(&self, tx: TxId) -> Option<u64> {
                self.by_tx.get(&tx).copied()
            }
        }
    }

    fn tx(c: u16, seq: u32) -> TxId {
        TxId::new(ClientId::new(DcId(0), c), seq)
    }

    fn entry(t: TxId, rt: u64, rvts: u64, at: u64) -> ReaderEntry {
        ReaderEntry {
            tx: t,
            read_time: rt,
            read_version_ts: rvts,
            inserted_at: at,
        }
    }

    /// Few clients and few ROTs per client, so sequences revisit tx ids,
    /// stack several ROTs on one client and hit both absorb overlap cases.
    const CLIENTS: u16 = 5;
    const SEQS: u32 = 6;
    const GC_NS: u64 = 40;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The flat `ReaderSet` against the map-based model under random
        /// insert / absorb / gc / query sequences over a current and an old
        /// set, on a clock that lets entries expire mid-sequence. Sets stay
        /// small, so they keep crossing 0 → 1 → 2 → 1 → 0 entries through
        /// inserts, sweeps and absorbs in both directions (an inline entry on
        /// either side), and a refresh re-inserts the last tx id, inline or
        /// not. The representation invariants are checked after every step.
        #[test]
        fn reader_set_matches_map_model(
            ops in prop::collection::vec(
                ((0u8..10, 0..CLIENTS, 0..SEQS), (0u64..50, 0u64..20, 0u64..12)),
                1..120,
            ),
        ) {
            let (mut cur, mut old) = (ReaderSet::new(), ReaderSet::new());
            let (mut m_cur, mut m_old) = (model::ReaderSet::default(), model::ReaderSet::default());
            let mut now = 0u64;
            let mut last = tx(0, 0);
            for ((op, c, seq), (rt, rvts, dt)) in ops {
                now += dt;
                let mut e = entry(tx(c, seq), rt, rvts, now);
                match op {
                    0..=2 => {
                        cur.insert(e);
                        m_cur.insert(e);
                    }
                    3 => {
                        // A blocked ROT becomes an old reader directly.
                        old.insert(e);
                        m_old.insert(e);
                    }
                    4 => {
                        old.absorb(&mut cur);
                        m_old.absorb(&mut m_cur);
                    }
                    5 => {
                        prop_assert_eq!(cur.gc(now, GC_NS), m_cur.gc(now, GC_NS));
                        prop_assert_eq!(old.gc(now, GC_NS), m_old.gc(now, GC_NS));
                    }
                    6 => {
                        cur.absorb(&mut old);
                        m_cur.absorb(&mut m_old);
                    }
                    7 => {
                        // A duplicate tx id refreshes its entry.
                        e.tx = last;
                        cur.insert(e);
                        m_cur.insert(e);
                    }
                    _ => {
                        // COPS-SNOW's "all old readers", then dep-precise.
                        for dep_ts in [u64::MAX, rvts] {
                            prop_assert_eq!(
                                old.query(dep_ts, now, GC_NS),
                                m_old.query(dep_ts, now, GC_NS)
                            );
                            prop_assert_eq!(
                                cur.query(dep_ts, now, GC_NS),
                                m_cur.query(dep_ts, now, GC_NS)
                            );
                            // Appending behind a pair of a client the query
                            // may name first leaves that pair alone.
                            let mut out = vec![(e.tx, u64::MAX)];
                            let n = old.query_into(dep_ts, now, GC_NS, &mut out);
                            prop_assert_eq!(out[0], (e.tx, u64::MAX));
                            prop_assert_eq!(out[1..].to_vec(), m_old.query(dep_ts, now, GC_NS));
                            prop_assert_eq!(n, out.len() - 1);
                        }
                    }
                }
                last = e.tx;
                cur.assert_invariants();
                old.assert_invariants();
                prop_assert_eq!((cur.len(), old.len()), (m_cur.len(), m_old.len()));
                prop_assert_eq!(cur.is_empty(), m_cur.len() == 0);
                prop_assert_eq!(old.contains(e.tx), m_old.contains(e.tx));
                prop_assert_eq!(cur.contains(e.tx), m_cur.contains(e.tx));
            }
        }

        /// Sealing the concatenated replies against merging them one by one
        /// into the map-based full record. Each client has one ROT `live`
        /// in flight; replies name any of its ROTs issued so far, several
        /// `seq`s of one client in one record included; the sealing server
        /// saw the client up to a floor at or below `live` (`None`: never).
        /// The in-flight ROT gets the full record's bound, and the record
        /// holds exactly each client's newest named tx when it is at or
        /// above the floor — one entry per client at most, none below it.
        #[test]
        fn sealed_block_record_matches_map_model(
            clients in prop::collection::vec(
                (0..SEQS, prop::option::of(0..SEQS)),
                CLIENTS as usize,
            ),
            replies in prop::collection::vec(
                prop::collection::vec((0..CLIENTS, 0..SEQS, 0u64..50), 0..12),
                0..5,
            ),
        ) {
            let mut floor = RotFloor::new();
            for (c, &(live, seen)) in clients.iter().enumerate() {
                if let Some(s) = seen {
                    floor.observe(tx(c as u16, s.min(live)));
                    floor.observe(tx(c as u16, 0)); // an older ROT never lowers it
                }
            }
            let mut m = model::BlockRecord::default();
            let mut newest: Vec<Option<u32>> = vec![None; CLIENTS as usize];
            let mut pending = Vec::new();
            for reply in &replies {
                let pairs: Vec<(TxId, u64)> = reply
                    .iter()
                    .map(|&(c, seq, rt)| (tx(c, seq % (clients[c as usize].0 + 1)), rt))
                    .collect();
                for (t, _) in &pairs {
                    let n = &mut newest[t.client.idx() as usize];
                    *n = (*n).max(Some(t.seq));
                }
                m.merge_pairs(&pairs);
                pending.extend(pairs);
            }
            let b = BlockRecord::seal(pending, &floor);
            for c in 0..CLIENTS {
                let live = tx(c, clients[c as usize].0);
                prop_assert_eq!(b.bound(live), m.bound(live));
                for seq in 0..SEQS {
                    let t = tx(c, seq);
                    let kept = newest[c as usize] == Some(seq) && seq >= floor.of(t.client);
                    prop_assert_eq!(b.bound(t), if kept { m.bound(t) } else { None });
                }
            }
            prop_assert!(b.entries.windows(2).all(|w| w[0].0.client < w[1].0.client));
            prop_assert!(b.entries.iter().all(|(t, _)| t.seq >= floor.of(t.client)));
        }
    }

    /// The first reader lives inline; the second promotes both, in tx
    /// order, into one exact vector; a sweep down to one reader moves it
    /// back inline and a sweep to none frees the block.
    #[test]
    fn second_insert_promotes_exactly_and_gc_demotes() {
        let mut s = ReaderSet::new();
        assert!(matches!(&s.repr, Repr::Many(v) if v.capacity() == 0));
        s.insert(entry(tx(3, 0), 1, 0, 0));
        assert!(matches!(s.repr, Repr::One(_)));
        // A refresh of the inline entry stays inline.
        s.insert(entry(tx(3, 0), 2, 0, 100));
        assert!(matches!(s.repr, Repr::One(e) if e.read_time == 2));
        s.insert(entry(tx(1, 0), 3, 0, 0));
        match &s.repr {
            Repr::Many(v) => {
                assert_eq!((v.len(), v.capacity()), (2, 2));
                assert_eq!((v[0].tx, v[1].tx), (tx(1, 0), tx(3, 0)));
            }
            other => panic!("expected a vector, got {other:?}"),
        }
        assert_eq!(s.gc(550, 500), (1, 1));
        assert!(matches!(s.repr, Repr::One(e) if e.tx == tx(3, 0)));
        assert_eq!(s.gc(700, 500), (0, 1));
        assert!(matches!(&s.repr, Repr::Many(v) if v.capacity() == 0));
        s.assert_invariants();
    }

    /// An inline entry on either side of an absorb ends up in `self`, and
    /// `other` is left empty and unallocated.
    #[test]
    fn absorb_keeps_inline_entries_on_either_side() {
        let (mut old, mut cur) = (ReaderSet::new(), ReaderSet::new());
        old.insert(entry(tx(2, 0), 1, 0, 0));
        cur.insert(entry(tx(1, 0), 2, 0, 0));
        old.absorb(&mut cur);
        assert_eq!(old.len(), 2);
        assert!(old.contains(tx(1, 0)) && old.contains(tx(2, 0)));
        assert!(matches!(&cur.repr, Repr::Many(v) if v.capacity() == 0));
        // Into an empty set the entry moves as it is, still inline.
        cur.insert(entry(tx(4, 0), 3, 0, 0));
        let mut fresh = ReaderSet::new();
        fresh.absorb(&mut cur);
        assert!(matches!(fresh.repr, Repr::One(e) if e.tx == tx(4, 0)));
        // Two inline entries of one tx merge to one, still inline.
        cur.insert(entry(tx(4, 0), 9, 0, 0));
        fresh.absorb(&mut cur);
        assert!(matches!(fresh.repr, Repr::One(e) if e.read_time == 9));
        for s in [&old, &cur, &fresh] {
            s.assert_invariants();
        }
    }

    /// Every key with readers pays one `ReaderSet` in its map slot, so its
    /// size is pinned: 32 B for the inline `ReaderEntry` plus 8 for the
    /// enum tag (`ReaderEntry` has no niche to hide it in). Growth here is
    /// per-key resident set in every CC-LO partition.
    #[test]
    fn reader_set_is_one_entry_plus_a_tag() {
        use std::mem::size_of;
        assert_eq!(size_of::<ReaderEntry>(), 32);
        assert_eq!(size_of::<ReaderSet>(), 40);
    }

    #[test]
    fn absorb_moves_entries() {
        let mut cur = ReaderSet::new();
        let mut old = ReaderSet::new();
        cur.insert(entry(tx(0, 0), 5, 1, 0));
        cur.insert(entry(tx(1, 0), 6, 1, 0));
        old.absorb(&mut cur);
        assert!(cur.is_empty());
        assert_eq!(old.len(), 2);
        assert!(old.contains(tx(0, 0)));
    }

    #[test]
    fn query_filters_by_dependency_version() {
        let mut old = ReaderSet::new();
        old.insert(entry(tx(0, 0), 5, 10, 0)); // read version 10
        old.insert(entry(tx(1, 0), 6, 20, 0)); // read version 20
                                               // Dependency at ts 15: only the reader of version 10 is old.
        let q = old.query(15, 0, 1_000_000);
        assert_eq!(q, vec![(tx(0, 0), 5)]);
        // Dependency at ts 25: both are old.
        assert_eq!(old.query(25, 0, 1_000_000).len(), 2);
        // Dependency at ts 10: nobody read older than 10.
        assert!(old.query(10, 0, 1_000_000).is_empty());
    }

    #[test]
    fn query_keeps_most_recent_rot_per_client() {
        // The paper's optimization: at most one ROT id per client.
        let mut old = ReaderSet::new();
        old.insert(entry(tx(0, 1), 5, 0, 0));
        old.insert(entry(tx(0, 7), 9, 0, 0)); // same client, later ROT
        old.insert(entry(tx(1, 2), 6, 0, 0));
        let q = old.query(100, 0, 1_000_000);
        assert_eq!(q.len(), 2);
        assert!(q.contains(&(tx(0, 7), 9)), "later ROT wins");
        assert!(q.contains(&(tx(1, 2), 6)));
    }

    #[test]
    fn query_skips_expired_entries() {
        let mut old = ReaderSet::new();
        old.insert(entry(tx(0, 0), 5, 0, 0));
        old.insert(entry(tx(1, 0), 6, 0, 900));
        // At now=1000 with a 500ns window, only the second survives.
        let q = old.query(100, 1000, 500);
        assert_eq!(q, vec![(tx(1, 0), 6)]);
    }

    #[test]
    fn gc_drops_expired() {
        let mut s = ReaderSet::new();
        s.insert(entry(tx(0, 0), 1, 0, 0));
        s.insert(entry(tx(1, 0), 2, 0, 800));
        let (kept, dropped) = s.gc(1000, 500);
        assert_eq!((kept, dropped), (1, 1));
        assert!(s.contains(tx(1, 0)));
    }

    #[test]
    fn block_record_keeps_most_restrictive_bound() {
        let b = BlockRecord::seal(
            vec![(tx(0, 0), 50), (tx(0, 0), 30), (tx(0, 0), 70)],
            &RotFloor::new(),
        );
        assert_eq!(b.bound(tx(0, 0)), Some(30));
        assert_eq!(b.bound(tx(1, 0)), None);
        assert_eq!(b.len(), 1);
    }
}
