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
//!   taken from the replies, not from the record — so the pruning is
//!   invisible in virtual time. The record's vector holds exactly its
//!   entries, with no spare capacity: records live as long as their
//!   versions.
//!
//! **Sealing: one pass, no sort.** Each server has one per-client table,
//! [`RotFloor`], indexed `[dc][client index]` and as long as the largest
//! index it has seen. A slot holds the client's floor and the seal's
//! scratch: a generation stamp with the newest `seq` met and that tx's
//! smallest read time, and a second stamp for the distinct count.
//! [`BlockRecord::seal`] takes a fresh stamp, so a slot stamped by an
//! earlier seal reads as empty and nothing is cleared between seals (a
//! wrapped counter clears every stamp once). It folds each pair into its
//! client's slot and sets the client's bit in a touched bitmap. For the
//! replied pairs it also counts the clients not yet counted under the
//! stamp, which is Figure 6's distinct-ids counter. Then it walks the set
//! bits in `ClientId` order, clearing them, and writes the clients at or
//! above their floor into one vector sized by a running count. No sort:
//! a PUT on `sim_write_cclo` seals ≈ 220 pairs, and sorting them (once
//! for the record, once for the distinct count) took ≈ 12 µs of host time
//! per PUT. The sort-based seal is kept as the test oracle.
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

use contrarian_types::{ClientId, DcId, TxId};
use std::cmp::Ordering;
#[cfg(test)]
use std::cmp::Reverse;

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

/// A server's one per-client table, indexed `[dc][client index]`. Each
/// slot holds the newest ROT `seq` the server has seen from that client —
/// its *floor*: the client's ROTs below it have finished everywhere, so a
/// sealed [`BlockRecord`] need not name them (module docs) — and the
/// scratch state [`BlockRecord::seal`] keeps per client while it seals.
/// A row is as long as the largest client index the server has seen in
/// that DC, not 65 536.
#[derive(Clone, Debug, Default)]
pub struct RotFloor {
    rows: Vec<Row>,
    /// Stamp of the seal in progress: a slot stamped with any other value
    /// holds nothing of it. 0 is never a live stamp.
    gen: u32,
}

#[derive(Clone, Debug, Default)]
struct Row {
    slots: Vec<Slot>,
    /// One bit per slot the seal in progress has touched.
    touched: Vec<u64>,
}

#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    /// The newest ROT `seq` seen from the client, 0 if none (prunes
    /// nothing).
    floor: u32,
    /// The seal that wrote `seq` and `read_time`.
    gen: u32,
    /// The seal that counted this client among the replied pairs.
    counted: u32,
    /// The newest `seq` the seal has met for this client, and that tx's
    /// smallest read time.
    seq: u32,
    read_time: u64,
}

impl RotFloor {
    pub fn new() -> Self {
        Self::default()
    }

    /// The row and index of `client`'s slot, growing the row to reach it.
    #[inline]
    fn slot(&mut self, client: ClientId) -> (&mut Row, usize) {
        let (dc, i) = (client.dc().0 as usize, client.idx() as usize);
        if self.rows.get(dc).is_none_or(|row| row.slots.len() <= i) {
            self.grow(dc, i);
        }
        (&mut self.rows[dc], i)
    }

    #[cold]
    fn grow(&mut self, dc: usize, i: usize) {
        if self.rows.len() <= dc {
            self.rows.resize_with(dc + 1, Row::default);
        }
        let row = &mut self.rows[dc];
        if row.slots.len() <= i {
            row.slots.resize(i + 1, Slot::default());
            row.touched.resize(i / 64 + 1, 0);
        }
    }

    /// Notes that `tx` reached this server.
    pub fn observe(&mut self, tx: TxId) {
        let (row, i) = self.slot(tx.client);
        let floor = &mut row.slots[i].floor;
        *floor = (*floor).max(tx.seq);
    }

    /// The newest ROT `seq` seen from `client`, 0 if none.
    pub fn of(&self, client: ClientId) -> u32 {
        self.rows
            .get(client.dc().0 as usize)
            .and_then(|row| row.slots.get(client.idx() as usize))
            .map_or(0, |s| s.floor)
    }

    /// Slots held over all DCs: one per client index up to the largest
    /// seen in each DC.
    pub fn slots(&self) -> usize {
        self.rows.iter().map(|r| r.slots.len()).sum()
    }

    /// A fresh seal stamp. When the counter wraps, every slot's stamps are
    /// cleared, so none can pass for the new seal's.
    fn next_gen(&mut self) -> u32 {
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            for s in self.rows.iter_mut().flat_map(|r| r.slots.iter_mut()) {
                (s.gen, s.counted) = (0, 0);
            }
            self.gen = 1;
        }
        self.gen
    }
}

/// The per-version old-reader record: ROT ids that must *not* observe this
/// version, each with the logical time bound of its stale read. It stores
/// only ROTs that can still read at the sealing server: at most one per
/// client, none below the client's [`RotFloor`] (module docs). Its vector
/// is exactly as long as its contents.
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
    /// bound), and only if the tx is at or above the client's floor in
    /// `table`. Also returns how many distinct clients `pairs[replied..]`
    /// names (Figure 6's distinct ids). One pass over `pairs` and one over
    /// the touched bits; no sort (module docs).
    pub fn seal(pairs: &[(TxId, u64)], replied: usize, table: &mut RotFloor) -> (Self, usize) {
        let gen = table.next_gen();
        let (mut kept, mut distinct) = (0, 0);
        for (n, &(tx, rt)) in pairs.iter().enumerate() {
            let (row, i) = table.slot(tx.client);
            let s = &mut row.slots[i];
            if s.gen != gen {
                (s.gen, s.seq, s.read_time) = (gen, tx.seq, rt);
                row.touched[i / 64] |= 1 << (i % 64);
                kept += usize::from(tx.seq >= s.floor);
            } else if tx.seq > s.seq {
                kept += usize::from(s.seq < s.floor && tx.seq >= s.floor);
                (s.seq, s.read_time) = (tx.seq, rt);
            } else if tx.seq == s.seq {
                s.read_time = s.read_time.min(rt);
            }
            if n >= replied && s.counted != gen {
                s.counted = gen;
                distinct += 1;
            }
        }
        // Rows in DC order, bits in index order: `ClientId` order.
        let mut entries = Vec::with_capacity(kept);
        for (dc, row) in table.rows.iter_mut().enumerate() {
            for (w, word) in row.touched.iter_mut().enumerate() {
                let mut bits = std::mem::take(word);
                while bits != 0 {
                    let i = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let s = &row.slots[i];
                    if s.seq >= s.floor {
                        let client = ClientId::new(DcId(dc as u8), i as u16);
                        entries.push((TxId::new(client, s.seq), s.read_time));
                    }
                }
            }
        }
        debug_assert_eq!(entries.len(), kept);
        (BlockRecord { entries }, distinct)
    }

    /// The sort-based seal the one-pass [`seal`](Self::seal) replaced, kept
    /// as its test oracle.
    #[cfg(test)]
    fn seal_sorted(mut pairs: Vec<(TxId, u64)>, floor: &RotFloor) -> Self {
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
            let (b, _) = BlockRecord::seal(&pending, pending.len(), &mut floor);
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

        /// The one-pass seal against the sort-based oracle, over a
        /// sequence of seals on one table so stamps of earlier seals are
        /// live in its slots: 1–3 DCs, sparse client indices (0 and 65 535
        /// among them), several `seq`s and read times per client, floors
        /// anywhere (above every named `seq` included), raised between
        /// seals, and any split between local and replied pairs. The
        /// record equals the oracle's entry for entry with no spare
        /// capacity, and the distinct count equals sort + `chunk_by` on
        /// the replied suffix.
        #[test]
        fn one_pass_seal_matches_sorting_oracle(
            n_dcs in 1u8..=3,
            pool in prop::collection::vec((0u8..3, 0u8..4, 0u16..=u16::MAX), 1..8),
            seals in prop::collection::vec(
                (
                    prop::collection::vec((0usize..8, 0..SEQS + 2), 0..4),
                    prop::collection::vec((0usize..8, 0..SEQS, 0u64..50), 0..24),
                    0usize..25,
                ),
                1..5,
            ),
        ) {
            // Index kinds: 0, 65 535, small and dense, anywhere.
            let clients: Vec<ClientId> = pool
                .iter()
                .map(|&(dc, kind, i)| {
                    let i = [0, u16::MAX, i % 8, i][kind as usize];
                    ClientId::new(DcId(dc % n_dcs), i)
                })
                .collect();
            let client = |c: usize| clients[c % clients.len()];
            let mut table = RotFloor::new();
            for (observed, named, split) in seals {
                for (c, seq) in observed {
                    table.observe(TxId::new(client(c), seq));
                }
                let pairs: Vec<(TxId, u64)> = named
                    .iter()
                    .map(|&(c, seq, rt)| (TxId::new(client(c), seq), rt))
                    .collect();
                let replied = split % (pairs.len() + 1);
                let want = BlockRecord::seal_sorted(pairs.clone(), &table);
                let mut suffix = pairs[replied..].to_vec();
                suffix.sort_unstable_by_key(|(tx, _)| tx.client);
                let want_distinct = suffix.chunk_by(|a, b| a.0.client == b.0.client).count();
                let (got, distinct) = BlockRecord::seal(&pairs, replied, &mut table);
                prop_assert_eq!(&got.entries, &want.entries);
                prop_assert_eq!(got.entries.capacity(), got.len());
                prop_assert_eq!(distinct, want_distinct);
            }
            // Sized by the largest index seen per DC, never more.
            let rows: usize = (0..n_dcs)
                .filter_map(|dc| {
                    let in_dc = clients.iter().filter(|c| c.dc() == DcId(dc));
                    in_dc.map(|c| c.idx() as usize + 1).max()
                })
                .sum();
            prop_assert!(table.slots() <= rows);
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
        let (b, _) = BlockRecord::seal(
            &[(tx(0, 0), 50), (tx(0, 0), 30), (tx(0, 0), 70)],
            3,
            &mut RotFloor::new(),
        );
        assert_eq!(b.bound(tx(0, 0)), Some(30));
        assert_eq!(b.bound(tx(1, 0)), None);
        assert_eq!(b.len(), 1);
    }

    /// The seal stamp wraps after 2³² − 1 seals. The wrap clears every
    /// slot's stamps: a slot last written by seal 1 must not pass for
    /// the first seal after the wrap (which reuses stamp 1), or a client
    /// it names would keep the old seal's `seq` and never reach the record.
    #[test]
    fn seal_stamp_wrap_clears_old_stamps() {
        let mut table = RotFloor::new();
        let (b, n) = BlockRecord::seal(&[(tx(2, 5), 10), (tx(2, 5), 3)], 0, &mut table);
        assert_eq!((b.entries.as_slice(), n), (&[(tx(2, 5), 3)][..], 1));
        assert_eq!(table.gen, 1);
        table.gen = u32::MAX - 1;
        let (b, _) = BlockRecord::seal(&[(tx(0, 1), 4)], 1, &mut table);
        assert_eq!(b.entries, vec![(tx(0, 1), 4)]);
        assert_eq!(table.gen, u32::MAX);
        for gen in [1, 2] {
            let pairs = [(tx(2, 3), 7), (tx(0, 0), 9)];
            let (b, n) = BlockRecord::seal(&pairs, 0, &mut table);
            assert_eq!(table.gen, gen);
            assert_eq!(
                b.entries,
                BlockRecord::seal_sorted(pairs.to_vec(), &table).entries
            );
            assert_eq!((b.len(), n), (2, 2));
        }
    }
}
