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
//! half the run's heap. Inline, such a key costs its map slot, and the
//! run peaked at ≈ 33 MB instead of ≈ 47 MB. `len()` counts the same
//! entries either way.
//!
//! **Layout: a current reader stores no version.** One sorted-set
//! implementation serves two entry types. An old reader is a 32 B
//! [`ReaderEntry`]: the version it read may be any superseded one, and
//! [`ReaderSet::query_into`] can filter on it. A current reader is a
//! 16 B [`CurrentReader`] without `read_version_ts`, because what it read
//! is always the key's head (or ⊥ / genesis, timestamp 0): every install
//! supersedes the current readers first, so all of them were recorded
//! since the last install, and a non-blocked read returns the head (the
//! server asserts this at insert in debug builds). The head's timestamp
//! is written into each entry when [`ReaderSet::absorb`] moves them to
//! the old readers — also when the install is a replicated version older
//! than the head, which leaves the head as it was.
//!
//! **Layout: a current reader's stamps are 32-bit offsets.** Its read
//! time (Lamport ticks) and insertion time (runtime ns) are `u32` offsets
//! from two epochs, one [`Stamp`] that a server's [`CurrentReaders`] keeps
//! for all its keys. Each offset reaches [`OFFSET_REACH`], 2³² − 2: the
//! ns offset is stored plus one, so that its 0 is free for the set's tag
//! (below). They are widened back to `u64` wherever they leave the set:
//! into an old reader at [`ReaderSet::absorb`], and into the expiry test
//! of a sweep. The encoding is exact by construction, not while a run is
//! short:
//!
//! * every sweep ([`CurrentReaders::gc`], which the server runs every
//!   quarter window) re-bases both epochs to the oldest stamps it keeps
//!   and rewrites every offset. So between sweeps the ns offsets stay
//!   below the window plus a quarter (625 ms of the 2³² − 2 ns ≈ 4.29 s
//!   an offset holds, at the 500 ms window), and the tick offsets below
//!   the ticks the server's Lamport clock advances in that time;
//! * an insert whose offset would be negative or past the reach re-bases
//!   first, over every current reader and the new stamps. If no epoch can
//!   represent them all — a wall clock that stalled past its sweeps, as a
//!   live (TCP) server's can — the readers that have expired by the
//!   insert are left out and clamped to a stamp that has expired too.
//!   Nothing but their expiry is ever observed: a sweep drops them, and
//!   once superseded an old-reader query skips them. The GC window must
//!   be below the reach ([`CurrentReaders::new`] checks), so the live
//!   readers and the clamped stamp always fit;
//! * a span of live readers that no epoch can represent — more than the
//!   reach between the oldest and the newest read time — panics and names
//!   the limit. Nothing wraps. A server keeps every read time within
//!   reach: it drops a message whose stamp would take its Lamport clock
//!   past `CurrentReaders::tick_limit`.
//!
//! **Layout: a set's tag lives in its inline reader.** A set of none or
//! of two and more entries keeps them in its [`Reader::Spill`]. An old
//! reader's is a plain vector: the 32 B [`ReaderEntry`] has no niche, so
//! the set pays an 8 B tag anyway, and a promotion stays one exact block.
//! A current reader's is an optional boxed vector, `None` when the set is
//! empty: 8 B, laid beside the 16 B inline reader, whose ns offset is
//! never 0 and so tells the two apart. The set is 16 B, and a promotion
//! allocates the vector and its 24 B box.
//!
//! Old-reader sets, readers-check answers and every cost-model input stay
//! exactly what they were with a version and `u64` stamps per entry (a
//! proptest holds the two against each other, with stamps straddling
//! multiples of 2³² and a re-base at every sweep; a second one lets the
//! clock run past an offset's reach, where expired readers are held only
//! to being expired). Sizes, pinned by tests: an old-readers set is 40 B
//! in a 48 B map slot, a current-readers set 16 B in a 24 B slot. The
//! current readers are the largest row of `sim_write_cclo`'s heap census:
//! at the end of its `over` rung (seed 1) 173 137 entries took 14.93 MB
//! with a version each, 12.31 MB without, 9.70 MB with 32-bit stamps in a
//! 32 B slot, and 7.96 MB in a 24 B slot.

use contrarian_types::{heap, ClientId, DcId, Key, TxId};
use std::cmp::Ordering;
#[cfg(test)]
use std::cmp::Reverse;
use std::collections::HashMap;
use std::fmt::Debug;
use std::num::NonZeroU32;

/// Whether a read recorded at `inserted_at` is older than the GC window.
fn expired(inserted_at: u64, now: u64, gc_ns: u64) -> bool {
    now.saturating_sub(inserted_at) > gc_ns
}

/// One recorded read of a superseded version — an *old* reader: which
/// transaction read, at what logical time, and how fresh the version it
/// read was.
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
        expired(self.inserted_at, now, gc_ns)
    }
}

/// A read's two clocks — its logical (Lamport) time at this partition and
/// its true time of insertion, for the 500 ms garbage collection — or the
/// two epochs a [`CurrentReaders`] counts its readers' clocks from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stamp {
    pub ticks: u64,
    pub ns: u64,
}

/// The most a current reader's offset holds, 2³² − 2: its ns offset is
/// stored plus one, so that 0 is free for its set's tag (module docs).
pub const OFFSET_REACH: u64 = u32::MAX as u64 - 1;

/// `stamp − epoch`, if it is neither negative nor past [`OFFSET_REACH`].
fn offset(stamp: u64, epoch: u64) -> Option<u32> {
    let d = stamp.checked_sub(epoch)?;
    (d <= OFFSET_REACH).then_some(d as u32)
}

/// One recorded read of a key's head version (or of ⊥ or genesis) — a
/// *current* reader. It stores no version: what it read is the head, whose
/// timestamp [`ReaderSet::absorb`] writes in when the head is superseded.
/// Its [`Stamp`] is two 32-bit offsets from an epoch the owner keeps
/// (module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CurrentReader {
    tx: TxId,
    /// Read time − the epoch's ticks.
    ticks: u32,
    /// Insertion time − the epoch's ns, plus one: never 0, which is its
    /// set's tag (module docs).
    ns: NonZeroU32,
}

impl CurrentReader {
    /// `tx`'s read at `at`, counted from `epoch`; `None` if either offset
    /// is negative or past [`OFFSET_REACH`].
    pub fn new(tx: TxId, at: Stamp, epoch: Stamp) -> Option<Self> {
        Some(CurrentReader {
            tx,
            ticks: offset(at.ticks, epoch.ticks)?,
            ns: NonZeroU32::new(offset(at.ns, epoch.ns)? + 1)?,
        })
    }

    /// The read's stamp, widened against the `epoch` it counts from.
    fn at(self, epoch: Stamp) -> Stamp {
        Stamp {
            ticks: epoch.ticks + u64::from(self.ticks),
            ns: epoch.ns + u64::from(self.ns.get() - 1),
        }
    }

    /// The old-reader entry of this read, counted from `epoch`, once the
    /// version it read, stamped `read_version_ts`, is superseded.
    fn superseded(self, epoch: Stamp, read_version_ts: u64) -> ReaderEntry {
        let at = self.at(epoch);
        ReaderEntry {
            tx: self.tx,
            read_time: at.ticks,
            read_version_ts,
            inserted_at: at.ns,
        }
    }
}

/// What a [`ReaderSet`] keeps of a read: at least the reading transaction.
pub trait Reader: Copy {
    /// Where a set of none or of two and more such reads keeps them.
    type Spill: Spill<Self>;
    fn tx(&self) -> TxId;
}

impl Reader for ReaderEntry {
    type Spill = Vec<ReaderEntry>;
    fn tx(&self) -> TxId {
        self.tx
    }
}

impl Reader for CurrentReader {
    type Spill = Option<Box<Vec<CurrentReader>>>;
    fn tx(&self) -> TxId {
        self.tx
    }
}

/// A [`ReaderSet`]'s entries when it has none or two and more: a vector,
/// or a boxed vector whose absence is the empty set (module docs).
pub trait Spill<E>: Clone + Debug + Default {
    /// The spill of `v`, which holds two or more entries.
    fn of(v: Vec<E>) -> Self;
    /// The vector, if one is allocated.
    fn vec(&self) -> Option<&Vec<E>>;
    fn vec_mut(&mut self) -> Option<&mut Vec<E>>;
    /// Heap bytes: the vector's block and any box around it.
    fn heap_bytes(&self) -> usize;
}

impl<E: Clone + Debug> Spill<E> for Vec<E> {
    fn of(v: Vec<E>) -> Self {
        v
    }
    fn vec(&self) -> Option<&Vec<E>> {
        Some(self)
    }
    fn vec_mut(&mut self) -> Option<&mut Vec<E>> {
        Some(self)
    }
    fn heap_bytes(&self) -> usize {
        heap::vec_bytes(self)
    }
}

impl<E: Clone + Debug> Spill<E> for Option<Box<Vec<E>>> {
    fn of(v: Vec<E>) -> Self {
        Some(Box::new(v))
    }
    fn vec(&self) -> Option<&Vec<E>> {
        self.as_deref()
    }
    fn vec_mut(&mut self) -> Option<&mut Vec<E>> {
        self.as_deref_mut()
    }
    fn heap_bytes(&self) -> usize {
        self.as_deref()
            .map_or(0, |v| std::mem::size_of::<Vec<E>>() + heap::vec_bytes(v))
    }
}

/// The oldest and the newest stamps of a group of current readers, each
/// clock on its own: what their epoch must represent.
#[derive(Clone, Copy, Debug)]
struct Span {
    lo: Stamp,
    hi: Stamp,
}

impl Span {
    const EMPTY: Span = Span {
        lo: Stamp {
            ticks: u64::MAX,
            ns: u64::MAX,
        },
        hi: Stamp { ticks: 0, ns: 0 },
    };

    fn cover(&mut self, at: Stamp) {
        self.lo.ticks = self.lo.ticks.min(at.ticks);
        self.lo.ns = self.lo.ns.min(at.ns);
        self.hi.ticks = self.hi.ticks.max(at.ticks);
        self.hi.ns = self.hi.ns.max(at.ns);
    }

    /// Ticks and ns between the oldest and the newest stamps (0 if empty).
    fn width(self) -> (u64, u64) {
        (
            self.hi.ticks.saturating_sub(self.lo.ticks),
            self.hi.ns.saturating_sub(self.lo.ns),
        )
    }

    /// Whether one epoch can represent every stamp of the span.
    fn fits(self) -> bool {
        let (ticks, ns) = self.width();
        ticks <= OFFSET_REACH && ns <= OFFSET_REACH
    }

    /// The epoch that represents every stamp of the span, its oldest
    /// stamps; `None` if it covers none. Panics if the span is wider than
    /// an offset holds.
    fn epoch(self) -> Option<Stamp> {
        if self.lo.ticks > self.hi.ticks {
            return None;
        }
        let (ticks, ns) = self.width();
        assert!(
            self.fits(),
            "current readers span {ticks} Lamport ticks and {ns} ns: an offset holds \
             at most {OFFSET_REACH} of each"
        );
        Some(self.lo)
    }
}

/// A server's current readers: each key's [`ReaderSet`] of
/// [`CurrentReader`]s, the epoch all their 32-bit offsets count from, and
/// the GC window. Every sweep re-bases the epoch to the oldest stamps it
/// keeps, an insert it cannot represent re-bases first — clamping expired
/// readers if it must — and a span of live readers no epoch can represent
/// panics (module docs).
#[derive(Clone, Debug)]
pub struct CurrentReaders {
    sets: HashMap<Key, ReaderSet<CurrentReader>>,
    epoch: Stamp,
    gc_ns: u64,
}

impl CurrentReaders {
    /// No readers, for a GC window of `gc_ns`. Panics unless an ns
    /// offset holds the window and 1 ns more (module docs).
    pub fn new(gc_ns: u64) -> Self {
        assert!(
            gc_ns < OFFSET_REACH,
            "a GC window of {gc_ns} ns does not fit a 32-bit offset: at most {} ns",
            OFFSET_REACH - 1
        );
        CurrentReaders {
            sets: HashMap::new(),
            epoch: Stamp::default(),
            gc_ns,
        }
    }

    /// Records `tx`'s read of `key`'s head at `at`, whose ns is the
    /// current time.
    pub fn insert(&mut self, key: Key, tx: TxId, at: Stamp) {
        let r = match CurrentReader::new(tx, at, self.epoch) {
            Some(r) => r,
            None => self.rebase_for(tx, at),
        };
        self.sets.entry(key).or_default().insert(r);
    }

    /// Re-bases the epoch so that it represents `at` and every current
    /// reader, and returns `tx`'s read at `at` counted from it. If no
    /// epoch can, the readers expired by `at.ns` are left out of the span
    /// and clamped: only their expiry is ever observed (by a sweep, and by
    /// an old-reader query or sweep once superseded), and the clamped stamp
    /// is expired too.
    #[cold]
    fn rebase_for(&mut self, tx: TxId, at: Stamp) -> CurrentReader {
        let (now, gc_ns) = (at.ns, self.gc_ns);
        let (mut all, mut live) = (Span::EMPTY, Span::EMPTY);
        all.cover(at);
        live.cover(at);
        let mut any_expired = false;
        #[expect(
            clippy::disallowed_methods,
            clippy::iter_over_hash_type,
            reason = "min/max fold, order-free"
        )]
        for set in self.sets.values() {
            for r in set.entries() {
                let s = r.at(self.epoch);
                all.cover(s);
                if expired(s.ns, now, gc_ns) {
                    any_expired = true;
                } else {
                    live.cover(s);
                }
            }
        }
        let mut span = all;
        if !all.fits() {
            span = live;
            if any_expired {
                // The newest insertion time already expired at `now`, so
                // expired for good: `now` never goes back. It is within
                // the window and 1 ns of every live stamp.
                span.lo.ns = span.lo.ns.min(now - gc_ns - 1);
            }
        }
        self.rebase(span.epoch().expect("the span covers `at`"), now);
        CurrentReader::new(tx, at, self.epoch).expect("the re-based epoch covers `at`")
    }

    /// Rewrites every offset to count from `to`. A reader `to` cannot
    /// represent must be expired at `now`, and so must `to`'s ns: it is
    /// clamped to `to` itself.
    fn rebase(&mut self, to: Stamp, now: u64) {
        let from = std::mem::replace(&mut self.epoch, to);
        if from == to {
            return;
        }
        let gc_ns = self.gc_ns;
        #[expect(
            clippy::disallowed_methods,
            clippy::iter_over_hash_type,
            reason = "per-entry rewrite, order-free"
        )]
        for set in self.sets.values_mut() {
            for r in set.entries_mut() {
                let at = r.at(from);
                *r = CurrentReader::new(r.tx, at, to).unwrap_or_else(|| {
                    assert!(
                        expired(at.ns, now, gc_ns) && expired(to.ns, now, gc_ns),
                        "only an expired reader is clamped to an expired epoch"
                    );
                    CurrentReader {
                        tx: r.tx,
                        ticks: 0,
                        ns: NonZeroU32::MIN,
                    }
                });
            }
        }
    }

    /// The furthest Lamport time a read may take here: [`OFFSET_REACH`]
    /// past the epoch while any key holds a set, past `clock` (the
    /// server's Lamport time) while none does. Every reader is at or past
    /// the epoch, so a read no later than this keeps the span in reach.
    pub(crate) fn tick_limit(&self, clock: u64) -> u64 {
        let from = if self.sets.is_empty() {
            clock
        } else {
            self.epoch.ticks
        };
        from.saturating_add(OFFSET_REACH)
    }

    /// Whether `key` has current readers.
    pub fn has(&self, key: Key) -> bool {
        self.sets.get(&key).is_some_and(|s| !s.is_empty())
    }

    /// Moves `key`'s current readers, if it has any, into its old readers
    /// `old` as the head they read, stamped `read_version_ts`, is
    /// superseded (see [`ReaderSet::absorb`]).
    pub fn supersede(&mut self, key: Key, old: &mut ReaderSet, read_version_ts: u64) {
        if let Some(cur) = self.sets.get_mut(&key).filter(|s| !s.is_empty()) {
            old.absorb(cur, read_version_ts, self.epoch);
        }
    }

    /// Drops the readers older than the GC window and the keys left with
    /// none, then re-bases the epoch to the oldest stamps kept. Returns
    /// how many readers were kept and dropped (for CPU accounting).
    pub fn gc(&mut self, now: u64) -> (usize, usize) {
        let (epoch, gc_ns, mut span) = (self.epoch, self.gc_ns, Span::EMPTY);
        let (mut kept, mut dropped) = (0, 0);
        #[expect(
            clippy::disallowed_methods,
            clippy::iter_over_hash_type,
            reason = "per-entry GC; counts and span fold commutatively"
        )]
        for set in self.sets.values_mut() {
            let (k, d) = set.sweep(|r| {
                let at = r.at(epoch);
                let keep = !expired(at.ns, now, gc_ns);
                if keep {
                    span.cover(at);
                }
                keep
            });
            kept += k;
            dropped += d;
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "per-entry emptiness predicate, order-free"
        )]
        self.sets.retain(|_, s| !s.is_empty());
        if let Some(to) = span.epoch() {
            self.rebase(to, now);
        }
        (kept, dropped)
    }

    /// `(heap bytes, readers)`: the map's table and every set's vector.
    pub fn heap(&self) -> (usize, usize) {
        readers_heap(&self.sets)
    }
}

/// `(heap bytes, entries)` of a readers map: its table and every set's
/// vector.
pub(crate) fn readers_heap<E: Reader>(map: &HashMap<Key, ReaderSet<E>>) -> (usize, usize) {
    let (mut bytes, mut entries) = (heap::map_bytes(map), 0);
    #[expect(
        clippy::disallowed_methods,
        clippy::iter_over_hash_type,
        reason = "commutative sums for a heap census"
    )]
    for set in map.values() {
        bytes += set.heap_bytes();
        entries += set.len();
    }
    (bytes, entries)
}

/// Readers of a key — the *old* readers (of superseded versions, with the
/// default [`ReaderEntry`]) or the *current* readers (of the head version,
/// as [`CurrentReader`]s). Sorted by `tx`, one entry per tx id. A single
/// reader lives inline, a second promotes both into an exact two-slot
/// vector, and an empty set owns no allocation (module docs).
#[derive(Clone, Debug)]
pub struct ReaderSet<E: Reader = ReaderEntry> {
    repr: Repr<E>,
}

impl<E: Reader> Default for ReaderSet<E> {
    fn default() -> Self {
        ReaderSet {
            repr: Repr::default(),
        }
    }
}

#[derive(Clone, Debug)]
enum Repr<E: Reader> {
    One(E),
    /// Zero entries (unallocated) or two or more.
    Many(E::Spill),
}

impl<E: Reader> Default for Repr<E> {
    fn default() -> Self {
        Repr::Many(E::Spill::default())
    }
}

impl<E: Reader> Repr<E> {
    /// The representation of `v`, which is sorted: one entry moves inline
    /// and frees the vector, none frees it too.
    fn of(v: Vec<E>) -> Self {
        match v.as_slice() {
            [] => Repr::default(),
            [e] => Repr::One(*e),
            _ => Repr::Many(E::Spill::of(v)),
        }
    }
}

impl<E: Reader> ReaderSet<E> {
    pub fn new() -> Self {
        Self::default()
    }

    /// The entries, in `TxId` order.
    fn entries(&self) -> &[E] {
        match &self.repr {
            Repr::One(e) => std::slice::from_ref(e),
            Repr::Many(s) => s.vec().map_or(&[], Vec::as_slice),
        }
    }

    fn entries_mut(&mut self) -> &mut [E] {
        match &mut self.repr {
            Repr::One(e) => std::slice::from_mut(e),
            Repr::Many(s) => s.vec_mut().map_or(&mut [], Vec::as_mut_slice),
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
    pub fn insert(&mut self, e: E) {
        match &mut self.repr {
            Repr::One(old) => {
                let old = *old;
                self.repr = match old.tx().cmp(&e.tx()) {
                    Ordering::Less => Repr::Many(E::Spill::of(vec![old, e])),
                    Ordering::Equal => Repr::One(e),
                    Ordering::Greater => Repr::Many(E::Spill::of(vec![e, old])),
                };
            }
            Repr::Many(s) => match s.vec_mut() {
                Some(v) if !v.is_empty() => {
                    if v.last().is_none_or(|last| last.tx() < e.tx()) {
                        v.push(e);
                        return;
                    }
                    match v.binary_search_by_key(&e.tx(), |x| x.tx()) {
                        Ok(i) => v[i] = e,
                        Err(i) => v.insert(i, e),
                    }
                }
                _ => self.repr = Repr::One(e),
            },
        }
    }

    /// Moves every entry of `other` into `self`, each turned into an `E`
    /// by `into`, leaving `other` empty and unallocated. For a tx id in
    /// both, `other`'s entry wins.
    fn absorb_with<F: Reader>(&mut self, other: &mut ReaderSet<F>, into: impl Fn(F) -> E) {
        let other = std::mem::take(other);
        if self.is_empty() {
            // Entry by entry: an inline reader stays inline, a vector is
            // rewritten into one exact block of the wider entries.
            self.repr = match &other.repr {
                Repr::One(e) => Repr::One(into(*e)),
                Repr::Many(_) => Repr::of(other.entries().iter().map(|&e| into(e)).collect()),
            };
            return;
        }
        let (a, b) = (self.entries(), other.entries());
        let mut merged = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].tx().cmp(&b[j].tx()) {
                Ordering::Less => {
                    merged.push(a[i]);
                    i += 1;
                }
                Ordering::Greater => {
                    merged.push(into(b[j]));
                    j += 1;
                }
                Ordering::Equal => {
                    merged.push(into(b[j]));
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&a[i..]);
        merged.extend(b[j..].iter().map(|&e| into(e)));
        self.repr = Repr::of(merged);
    }

    /// Keeps the entries `keep` accepts, in order. Returns how many were
    /// kept and dropped.
    fn sweep(&mut self, mut keep: impl FnMut(&E) -> bool) -> (usize, usize) {
        let before = self.len();
        match &mut self.repr {
            Repr::One(e) if !keep(e) => self.repr = Repr::default(),
            Repr::One(_) => {}
            Repr::Many(s) => {
                if let Some(v) = s.vec_mut() {
                    v.retain(|e| keep(e));
                    if v.len() < 2 {
                        self.repr = Repr::of(std::mem::take(v));
                    }
                }
            }
        }
        (self.len(), before - self.len())
    }

    pub fn contains(&self, tx: TxId) -> bool {
        self.entries().binary_search_by_key(&tx, |e| e.tx()).is_ok()
    }

    /// Heap bytes: the spill of a set of two or more, 0 inline or empty.
    pub fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::One(_) => 0,
            Repr::Many(s) => s.heap_bytes(),
        }
    }

    /// Panics unless the entries are strictly `TxId`-ascending, a vector
    /// holds no exactly-one set, and an empty set owns no allocation.
    #[cfg(test)]
    fn assert_invariants(&self) {
        assert!(
            self.entries().windows(2).all(|w| w[0].tx() < w[1].tx()),
            "reader set must be strictly ascending by tx"
        );
        if let Repr::Many(s) = &self.repr {
            assert_ne!(self.len(), 1, "a single reader must live inline");
            assert!(
                !self.is_empty() || s.heap_bytes() == 0,
                "an empty reader set must not own a block"
            );
        }
    }
}

impl ReaderSet<ReaderEntry> {
    /// Moves the current readers of a head version stamped
    /// `read_version_ts` (0 for ⊥ or genesis), counted from `epoch`, into
    /// these old readers as the head is superseded, leaving `current`
    /// empty and unallocated. For a tx id in both, the current reader
    /// wins.
    pub fn absorb(
        &mut self,
        current: &mut ReaderSet<CurrentReader>,
        read_version_ts: u64,
        epoch: Stamp,
    ) {
        self.absorb_with(current, |r| r.superseded(epoch, read_version_ts));
    }

    /// Drops entries older than the GC window. Returns how many were kept
    /// and dropped (for CPU accounting).
    pub fn gc(&mut self, now: u64, gc_ns: u64) -> (usize, usize) {
        self.sweep(|e| !e.expired(now, gc_ns))
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

    /// Heap bytes of the rows: slots and touched bits.
    pub fn heap_bytes(&self) -> usize {
        heap::vec_bytes(&self.rows)
            + self
                .rows
                .iter()
                .map(|r| heap::vec_bytes(&r.slots) + heap::vec_bytes(&r.touched))
                .sum::<usize>()
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

    /// Heap bytes: the exact vector.
    pub fn heap_bytes(&self) -> usize {
        heap::vec_bytes(&self.entries)
    }

    /// The `(ROT id, read time bound)` pairs, in id order.
    pub fn entries(&self) -> &[(TxId, u64)] {
        &self.entries
    }

    /// The read-time bound for `tx`, if it is blocked.
    pub fn bound(&self, tx: TxId) -> Option<u64> {
        let i = self.entries.binary_search_by_key(&tx, |p| p.0).ok()?;
        Some(self.entries[i].1)
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    clippy::iter_over_hash_type,
    reason = "the map-based reference records walk their tables; tests compare sets"
)]
mod tests {
    use super::*;
    use contrarian_types::{ClientId, DcId};
    use proptest::prelude::*;

    /// The map-based records this module used before it was rebuilt on flat
    /// vectors — the block record still naming every id the readers check
    /// returned, before sealing dropped the ROTs that can no longer read —
    /// kept as the oracle of the differential proptests below and nowhere
    /// else.
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

    /// `t`'s current reader at read time `rt` and insertion time `at`,
    /// counted from the zero epoch.
    fn current(t: TxId, rt: u64, at: u64) -> CurrentReader {
        CurrentReader::new(t, Stamp { ticks: rt, ns: at }, Stamp::default()).unwrap()
    }

    fn stamp(ticks: u64, ns: u64) -> Stamp {
        Stamp { ticks, ns }
    }

    /// `(tx, widened stamp)` of every current reader of `key`, in tx order.
    fn widened(cur: &CurrentReaders, key: Key) -> Vec<(TxId, Stamp)> {
        cur.sets.get(&key).map_or(Vec::new(), |s| {
            s.entries()
                .iter()
                .map(|r| (r.tx, r.at(cur.epoch)))
                .collect()
        })
    }

    /// Panics unless every set keeps its representation invariants and
    /// every reader, widened against the epoch, encodes back to itself.
    fn assert_epoch_covers(cur: &CurrentReaders) {
        for set in cur.sets.values() {
            set.assert_invariants();
            for r in set.entries() {
                let at = r.at(cur.epoch);
                assert_eq!(CurrentReader::new(r.tx, at, cur.epoch), Some(*r));
            }
        }
    }

    /// Few clients and few ROTs per client, so sequences revisit tx ids,
    /// stack several ROTs on one client and hit both absorb overlap cases.
    const CLIENTS: u16 = 5;
    const SEQS: u32 = 6;
    const GC_NS: u64 = 40;
    /// The most an offset holds.
    const SPAN: u64 = OFFSET_REACH;

    /// Clock origins just below the `(a, b)`-th multiples of 2³², so a
    /// sequence's stamps cross them: read times by up to 50 ticks, the
    /// clock by up to 300 ns.
    fn origins((a, b): (u64, u64)) -> (u64, u64) {
        ((a << 32) - 25, (b << 32) - 300)
    }

    type OracleOp = ((u8, u16, u32), (u64, u64, u64));

    fn oracle_ops() -> impl Strategy<Value = Vec<OracleOp>> {
        prop::collection::vec(
            ((0u8..9, 0..CLIENTS, 0..SEQS), (0u64..50, 0u64..12, 0u64..2)),
            1..160,
        )
    }

    /// Runs `ops` on a [`CurrentReaders`] and on the per-entry
    /// representation it replaced — a `ReaderSet<ReaderEntry>` per key
    /// whose every entry carries the head's timestamp and both clocks in
    /// `u64` from the moment it is read — over two keys' lives: reads of
    /// the head, blocked reads of older versions, installs that supersede
    /// the current readers (newer than the head, or interleaved below it,
    /// which leaves the head as it was), GC sweeps, each of which
    /// re-bases, and clock jumps. Both clocks start just below a multiple
    /// of 2³² and cross it. Read times go back and forth, so a read can
    /// land below the epoch. A jump puts the clock exactly 2³² − 1 ns past
    /// the oldest current reader (or 2³² ns on when there is none), so a
    /// read there re-bases whenever that reader is newer than the epoch;
    /// unless `far`, the clock never runs further ahead of the oldest
    /// reader than that. With `far`, a jump goes up to 11 ns further (the
    /// clock never goes back) and the clock is not held back, so reads
    /// re-base past the reach and clamp expired readers.
    ///
    /// The old-reader sets' queries and every sweep's `(kept, dropped)`
    /// are identical, and a sweep leaves the epoch at the oldest stamps
    /// it kept. Every current and old reader's id, version and stamps are
    /// identical too, except that with `far` an expired reader's stamps
    /// are only held to being expired: nothing else of it is observed.
    fn check_against_oracle(
        multiples: (u64, u64),
        ops: Vec<OracleOp>,
        far: bool,
    ) -> TestCaseResult {
        let (ticks0, ns0) = origins(multiples);
        let mut cur = CurrentReaders::new(GC_NS);
        let mut old = [ReaderSet::new(), ReaderSet::new()];
        let mut o_cur = [ReaderSet::<ReaderEntry>::new(), ReaderSet::new()];
        let mut o_old = [ReaderSet::new(), ReaderSet::new()];
        // Per key, the head's timestamp (0: ⊥); the newest one issued.
        let (mut head, mut newest, mut now) = ([0u64; 2], 0u64, ns0);
        let oldest = |o_cur: &[ReaderSet<ReaderEntry>; 2]| {
            let all = || o_cur.iter().flat_map(|s| s.entries());
            Some(stamp(
                all().map(|e| e.read_time).min()?,
                all().map(|e| e.inserted_at).min()?,
            ))
        };
        // What is observed of a reader stamped `at` at `now`: with `far`,
        // only that an expired one is expired.
        let seen = |at: Stamp, now: u64| (!far || !expired(at.ns, now, GC_NS)).then_some(at);
        let seen_old = |set: &ReaderSet, now: u64| -> Vec<_> {
            set.entries()
                .iter()
                .map(|e| {
                    (
                        e.tx,
                        e.read_version_ts,
                        seen(stamp(e.read_time, e.inserted_at), now),
                    )
                })
                .collect()
        };
        for ((op, c, seq), (drawn, dt, k)) in ops {
            now += dt;
            if !far {
                now = now.min(oldest(&o_cur).map_or(u64::MAX, |o| o.ns + SPAN));
            }
            let (t, rt, key, k) = (tx(c, seq), ticks0 + drawn, Key(k), k as usize);
            match op {
                0..=2 => {
                    cur.insert(key, t, stamp(rt, now));
                    o_cur[k].insert(entry(t, rt, head[k], now));
                }
                3 => {
                    // A blocked ROT reads something older than the head.
                    let e = entry(t, rt, head[k].saturating_sub(1 + rt % 3), now);
                    old[k].insert(e);
                    o_old[k].insert(e);
                }
                4 | 5 => {
                    if cur.has(key) {
                        cur.supersede(key, &mut old[k], head[k]);
                    }
                    o_old[k].absorb_with(&mut o_cur[k], |e| e);
                    newest += 1;
                    if op == 4 {
                        head[k] = newest;
                    }
                }
                6 | 7 => {
                    let (mut kept, mut dropped) = (0, 0);
                    for (o, oo) in o_cur.iter_mut().zip(&mut o_old) {
                        let (k, d) = o.gc(now, GC_NS);
                        (kept, dropped) = (kept + k, dropped + d);
                        oo.gc(now, GC_NS);
                    }
                    prop_assert_eq!(cur.gc(now), (kept, dropped));
                    for o in &mut old {
                        o.gc(now, GC_NS);
                    }
                    if let Some(o) = oldest(&o_cur) {
                        prop_assert_eq!(cur.epoch, o);
                    }
                }
                _ => {
                    let reach = oldest(&o_cur).map_or(now + SPAN + 1, |o| o.ns + SPAN);
                    now = if far { now.max(reach + dt) } else { reach };
                }
            }
            assert_epoch_covers(&cur);
            for k in 0..2 {
                old[k].assert_invariants();
                prop_assert_eq!(seen_old(&old[k], now), seen_old(&o_old[k], now));
                let got: Vec<_> = widened(&cur, Key(k as u64))
                    .into_iter()
                    .map(|(t, at)| (t, seen(at, now)))
                    .collect();
                let want: Vec<_> = o_cur[k]
                    .entries()
                    .iter()
                    .map(|e| (e.tx, seen(stamp(e.read_time, e.inserted_at), now)))
                    .collect();
                prop_assert_eq!(got, want);
                prop_assert_eq!(cur.has(Key(k as u64)), !o_cur[k].is_empty());
                // The drawn number, unshifted, lands among the versions.
                for dep_ts in [u64::MAX, head[k], head[k] + 1, drawn] {
                    prop_assert_eq!(
                        old[k].query(dep_ts, now, GC_NS),
                        o_old[k].query(dep_ts, now, GC_NS)
                    );
                }
            }
        }
        Ok(())
    }

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
                        old.absorb_with(&mut cur, |e| e);
                        m_old.absorb(&mut m_cur);
                    }
                    5 => {
                        prop_assert_eq!(cur.gc(now, GC_NS), m_cur.gc(now, GC_NS));
                        prop_assert_eq!(old.gc(now, GC_NS), m_old.gc(now, GC_NS));
                    }
                    6 => {
                        cur.absorb_with(&mut old, |e| e);
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

        /// Current readers that store no version and keep their clocks as
        /// 32-bit offsets from a re-based epoch, against the per-entry
        /// representation they replaced (see [`check_against_oracle`]),
        /// with the clock never further ahead of the oldest current reader
        /// than an offset reaches, as the server's quarter-window sweeps
        /// ensure on a clock that does not stall. Every stamp is exact.
        #[test]
        fn versionless_current_readers_match_the_per_entry_oracle(
            multiples in (1u64..4, 1u64..4),
            ops in oracle_ops(),
        ) {
            check_against_oracle(multiples, ops, false)?;
        }

        /// The same with a clock that jumps past the reach of an offset, as
        /// a stalled wall clock does: the reads there re-base, clamping the
        /// readers that have expired, and nothing panics. Live readers keep
        /// exact stamps, and every expired one stays expired.
        #[test]
        fn current_readers_past_an_offset_s_reach_match_the_oracle_where_observed(
            multiples in (1u64..4, 1u64..4),
            ops in oracle_ops(),
        ) {
            check_against_oracle(multiples, ops, true)?;
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
        let mut s: ReaderSet = ReaderSet::new();
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
        cur.insert(current(tx(1, 0), 2, 0));
        old.absorb(&mut cur, 7, Stamp::default());
        assert_eq!(old.len(), 2);
        assert!(old.contains(tx(1, 0)) && old.contains(tx(2, 0)));
        assert!(matches!(&cur.repr, Repr::Many(None)));
        // Into an empty set the entry moves stamped, still inline.
        cur.insert(current(tx(4, 0), 3, 0));
        let mut fresh = ReaderSet::new();
        fresh.absorb(&mut cur, 7, Stamp::default());
        assert!(matches!(fresh.repr, Repr::One(e) if e == entry(tx(4, 0), 3, 7, 0)));
        // Two inline entries of one tx merge to one, still inline.
        cur.insert(current(tx(4, 0), 9, 0));
        fresh.absorb(&mut cur, 8, Stamp::default());
        assert!(matches!(fresh.repr, Repr::One(e) if (e.read_time, e.read_version_ts) == (9, 8)));
        // A vector into an empty set becomes one exact block of old
        // readers, every entry stamped.
        cur.insert(current(tx(5, 0), 1, 0));
        cur.insert(current(tx(6, 0), 2, 0));
        let mut empty = ReaderSet::new();
        empty.absorb(&mut cur, 3, Stamp::default());
        assert!(matches!(&empty.repr, Repr::Many(v)
            if v.capacity() == 2 && v.iter().all(|e| e.read_version_ts == 3)));
        for s in [&old, &fresh, &empty] {
            s.assert_invariants();
        }
        cur.assert_invariants();
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

    /// A current reader stores no version and two 32-bit offsets: 16 B.
    /// Its set is 16 B too — the boxed vector's 8 B sit beside the inline
    /// entry, whose never-zero ns offset is the tag — and a key's map slot
    /// 24 B. That slot is the largest row of CC-LO's heap census.
    #[test]
    fn current_reader_set_is_a_16_byte_entry_in_a_24_byte_slot() {
        use std::mem::size_of;
        assert_eq!(size_of::<CurrentReader>(), 16);
        assert_eq!(size_of::<ReaderSet<CurrentReader>>(), 16);
        assert_eq!(size_of::<(Key, ReaderSet<CurrentReader>)>(), 24);
    }

    /// Readers stamped just below a multiple of 2³² — in ticks and in ns
    /// — and read again just after it, then superseded after it: each
    /// old reader carries its exact `u64` stamps. Low 32 bits alone would
    /// put the later reads 2³² before the earlier ones.
    #[test]
    fn readers_stamped_across_a_multiple_of_2_32_widen_exactly() {
        let m = 5u64 << 32;
        let mut cur = CurrentReaders::new(GC_NS);
        let key = Key(3);
        cur.insert(key, tx(0, 0), stamp(m - 1, m - 2));
        assert_eq!(cur.epoch, stamp(m - 1, m - 2), "the first read re-bases");
        cur.insert(key, tx(1, 0), stamp(m, m));
        cur.insert(key, tx(2, 0), stamp(m + 1, m + 3));
        let mut old = ReaderSet::new();
        cur.supersede(key, &mut old, 9);
        assert_eq!(
            old.entries(),
            [
                entry(tx(0, 0), m - 1, 9, m - 2),
                entry(tx(1, 0), m, 9, m),
                entry(tx(2, 0), m + 1, 9, m + 3),
            ]
        );
        assert!(!cur.has(key));
    }

    /// A reader inserted 2 ns below a multiple of 2³² survives a sweep at
    /// exactly one window past it and is dropped at one window plus 1 ns,
    /// both sweeps after the multiple; an old reader it became expires at
    /// the same instant.
    #[test]
    fn expiry_across_a_multiple_of_2_32_is_exact() {
        const WINDOW: u64 = 500_000_000;
        let at = (1u64 << 32) - 2;
        let mut cur = CurrentReaders::new(WINDOW);
        cur.insert(Key(0), tx(0, 0), stamp(7, at));
        cur.insert(Key(1), tx(1, 0), stamp(7, at));
        assert_eq!(cur.gc(at + WINDOW), (2, 0));
        assert_eq!(cur.epoch, stamp(7, at));
        let mut old = ReaderSet::new();
        cur.supersede(Key(1), &mut old, 1);
        assert_eq!(old.query(u64::MAX, at + WINDOW, WINDOW), [(tx(1, 0), 7)]);
        assert!(old.query(u64::MAX, at + WINDOW + 1, WINDOW).is_empty());
        assert_eq!(cur.gc(at + WINDOW + 1), (0, 1));
        assert!(cur.sets.is_empty(), "no key is left");
    }

    /// A sweep re-bases the epoch to the oldest stamps it keeps; an insert
    /// the epoch cannot represent re-bases first — up, when the oldest
    /// reader has gone and the new stamp lies exactly 2³² − 1 past the
    /// oldest left, and down, for a read time below the epoch — and every
    /// live reader keeps its stamps.
    #[test]
    fn an_insert_out_of_reach_re_bases_first() {
        let t0 = stamp(1_000, 3 << 32);
        let mut cur = CurrentReaders::new(GC_NS);
        cur.insert(Key(0), tx(0, 0), t0);
        cur.insert(Key(1), tx(1, 0), stamp(t0.ticks + 4, t0.ns + 10));
        cur.gc(t0.ns + 10);
        assert_eq!(cur.epoch, t0);
        // The oldest reader goes; the epoch stays behind.
        cur.supersede(Key(0), &mut ReaderSet::new(), 0);
        assert_eq!(cur.epoch, t0);
        let far = stamp(t0.ticks + 6, t0.ns + 10 + SPAN);
        assert_eq!(CurrentReader::new(tx(2, 0), far, cur.epoch), None);
        cur.insert(Key(1), tx(2, 0), far);
        assert_eq!(cur.epoch, stamp(t0.ticks + 4, t0.ns + 10));
        assert_eq!(
            widened(&cur, Key(1)),
            [(tx(1, 0), stamp(t0.ticks + 4, t0.ns + 10)), (tx(2, 0), far)]
        );
        // A read time below the epoch moves it down.
        cur.insert(Key(2), tx(3, 0), stamp(t0.ticks, far.ns));
        assert_eq!(cur.epoch, stamp(t0.ticks, t0.ns + 10));
        assert_eq!(widened(&cur, Key(2)), [(tx(3, 0), stamp(t0.ticks, far.ns))]);
        assert_eq!(widened(&cur, Key(1))[1], (tx(2, 0), far));
        assert_epoch_covers(&cur);
    }

    /// A read more than 2³² ns after an unswept reader — a wall clock that
    /// stalled past its sweeps — cannot share an epoch with it. That
    /// reader has expired, so the insert re-bases without it and clamps
    /// it to a stamp that is expired too: it still counts in the next
    /// sweep, which drops it, and never answers a query once superseded.
    /// A live reader next to it and the new read keep exact stamps.
    #[test]
    fn a_read_2_32_ns_after_an_unswept_reader_clamps_it() {
        const WINDOW: u64 = 500_000_000;
        let mut cur = CurrentReaders::new(WINDOW);
        let stale = stamp(7, 1 << 40);
        cur.insert(Key(0), tx(0, 0), stale);
        cur.insert(Key(1), tx(1, 0), stale);
        let now = stale.ns + SPAN + 5;
        let live = stamp(9, now - WINDOW);
        cur.insert(Key(1), tx(2, 0), live);
        let late = stamp(12, now);
        assert_eq!(CurrentReader::new(tx(3, 0), late, cur.epoch), None);
        cur.insert(Key(0), tx(3, 0), late);
        assert_epoch_covers(&cur);
        let clamped = stamp(9, now - WINDOW - 1);
        assert_eq!(cur.epoch, clamped);
        assert_eq!(
            widened(&cur, Key(0)),
            [(tx(0, 0), clamped), (tx(3, 0), late)]
        );
        assert_eq!(
            widened(&cur, Key(1)),
            [(tx(1, 0), clamped), (tx(2, 0), live)]
        );
        let mut old = ReaderSet::new();
        cur.supersede(Key(1), &mut old, 4);
        assert_eq!(old.query(u64::MAX, now, WINDOW), [(tx(2, 0), 9)]);
        assert_eq!(old.gc(now, WINDOW), (1, 1));
        assert_eq!(cur.gc(now), (1, 1));
        assert_eq!(cur.epoch, late);
    }

    /// A window an ns offset cannot hold, with 1 ns to spare, fails at
    /// construction.
    #[test]
    #[should_panic(expected = "does not fit a 32-bit offset: at most 4294967293 ns")]
    fn a_gc_window_past_32_bits_panics() {
        CurrentReaders::new(SPAN);
    }

    /// Live readers 2³² − 1 Lamport ticks apart, one past an offset's
    /// reach, cannot share an epoch: the insert panics, naming the limit,
    /// rather than wrap.
    #[test]
    #[should_panic(expected = "current readers span 4294967295 Lamport ticks and 0 ns")]
    fn a_tick_span_past_32_bits_panics() {
        let mut cur = CurrentReaders::new(GC_NS);
        cur.insert(Key(0), tx(0, 0), stamp(7, 0));
        cur.insert(Key(0), tx(1, 0), stamp(7 + SPAN + 1, 0));
    }

    #[test]
    fn absorb_moves_entries() {
        let mut cur = ReaderSet::new();
        let mut old = ReaderSet::new();
        cur.insert(current(tx(0, 0), 5, 0));
        cur.insert(current(tx(1, 0), 6, 0));
        old.absorb(&mut cur, 1, Stamp::default());
        assert!(cur.is_empty());
        assert_eq!(old.len(), 2);
        assert!(old.contains(tx(0, 0)));
        assert_eq!(old.query(2, 0, 1), vec![(tx(0, 0), 5), (tx(1, 0), 6)]);
        assert!(old.query(1, 0, 1).is_empty(), "both read the version at 1");
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
