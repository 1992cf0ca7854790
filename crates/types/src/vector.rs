//! Dependency / snapshot vectors with one entry per data center.
//!
//! Contrarian (like Cure) encodes causality with per-DC vectors:
//!
//! * every item version `X` carries a dependency vector `X.DV`: if
//!   `X.DV[i] = t` then `X` potentially causally depends on every item
//!   originally written in DC `i` with timestamp up to `t`;
//! * every ROT is assigned a snapshot vector `SV`; a version belongs to the
//!   snapshot iff `DV ≤ SV` entrywise;
//! * every partition computes a Global Stable Snapshot `GSS` as the
//!   entrywise minimum of the version vectors of all partitions in its DC.
//!
//! The operations below form the usual vector-clock lattice: `join`
//! (entrywise max), `meet` (entrywise min) and the partial order `leq`.
//!
//! # Layout
//!
//! A vector of up to two entries lives inline; from three DCs on it is one
//! exact boxed slice. Every stored version carries one of these, and on a
//! one- or two-DC cluster a heap vector cost a 32-byte malloc chunk beside
//! the chain that holds its version (72 bytes then, 56 since the value
//! handle shrank to one word): 97 409 live 16-byte blocks, ≈ 3 MB, next
//! to 10.2 MB of `MvStore` tables on the 2-DC × 64 Okapi benchmark's
//! overload rung (when the tables still held the chains in their
//! buckets). Two is the largest inline capacity that keeps the type
//! at 24 B, the size of the boxed form (a length byte and two words), so
//! neither a version nor a chain grows. The representation is canonical
//! (`Heap` never holds ≤ 2 entries), and equality, hashing and `Debug` go
//! through [`DepVector::as_slice`], so the two forms are indistinguishable
//! from outside.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Index;

/// Entries a vector holds without allocating.
const INLINE: usize = 2;

/// A vector with one `u64` timestamp entry per DC.
#[derive(Clone)]
pub struct DepVector(Repr);

#[derive(Clone)]
enum Repr {
    /// The first `len ≤ INLINE` slots are the entries.
    Inline(u8, [u64; INLINE]),
    /// More than `INLINE` entries, exactly sized.
    Heap(Box<[u64]>),
}

impl Default for DepVector {
    fn default() -> Self {
        DepVector::zero(0)
    }
}

impl DepVector {
    /// The all-zero vector for `m` DCs (bottom of the lattice).
    pub fn zero(m: usize) -> Self {
        if m <= INLINE {
            DepVector(Repr::Inline(m as u8, [0; INLINE]))
        } else {
            DepVector(Repr::Heap(vec![0; m].into_boxed_slice()))
        }
    }

    pub fn from_vec(v: Vec<u64>) -> Self {
        if v.len() <= INLINE {
            let mut a = [0; INLINE];
            a[..v.len()].copy_from_slice(&v);
            DepVector(Repr::Inline(v.len() as u8, a))
        } else {
            DepVector(Repr::Heap(v.into_boxed_slice()))
        }
    }

    /// A vector of `len` entries taken in order from `next`, built straight
    /// into its final form (the wire decoder's path; no intermediate `Vec`).
    pub(crate) fn try_from_fn<E>(
        len: usize,
        mut next: impl FnMut() -> Result<u64, E>,
    ) -> Result<Self, E> {
        if len <= INLINE {
            let mut a = [0; INLINE];
            for slot in &mut a[..len] {
                *slot = next()?;
            }
            Ok(DepVector(Repr::Inline(len as u8, a)))
        } else {
            let mut v = Vec::with_capacity(len);
            for _ in 0..len {
                v.push(next()?);
            }
            Ok(DepVector(Repr::Heap(v.into_boxed_slice())))
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes: 0 inline, the exact block from three DCs on.
    pub fn heap_bytes(&self) -> usize {
        match &self.0 {
            Repr::Inline(..) => 0,
            Repr::Heap(b) => std::mem::size_of_val::<[u64]>(b),
        }
    }

    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        self.as_slice()[i]
    }

    #[inline]
    pub fn set(&mut self, i: usize, v: u64) {
        self.as_mut_slice()[i] = v;
    }

    #[inline]
    pub fn as_slice(&self) -> &[u64] {
        match &self.0 {
            Repr::Inline(n, a) => &a[..*n as usize],
            Repr::Heap(b) => b,
        }
    }

    #[inline]
    fn as_mut_slice(&mut self) -> &mut [u64] {
        match &mut self.0 {
            Repr::Inline(n, a) => &mut a[..*n as usize],
            Repr::Heap(b) => b,
        }
    }

    /// Entrywise maximum (lattice join), in place.
    pub fn join(&mut self, other: &DepVector) {
        debug_assert_eq!(self.len(), other.len());
        for (a, b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            if *b > *a {
                *a = *b;
            }
        }
    }

    /// Entrywise minimum (lattice meet), in place.
    pub fn meet(&mut self, other: &DepVector) {
        debug_assert_eq!(self.len(), other.len());
        for (a, b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            if *b < *a {
                *a = *b;
            }
        }
    }

    /// Returns the join of two vectors without mutating either.
    pub fn joined(&self, other: &DepVector) -> DepVector {
        let mut out = self.clone();
        out.join(other);
        out
    }

    /// The lattice partial order: `self ≤ other` iff every entry is ≤.
    pub fn leq(&self, other: &DepVector) -> bool {
        debug_assert_eq!(self.len(), other.len());
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .all(|(a, b)| a <= b)
    }

    /// Raises entry `i` to at least `v`.
    #[inline]
    pub fn raise(&mut self, i: usize, v: u64) {
        let e = &mut self.as_mut_slice()[i];
        if v > *e {
            *e = v;
        }
    }

    /// The maximum entry (used to enforce that the local entry of a new
    /// version's DV dominates the remote entries).
    pub fn max_entry(&self) -> u64 {
        self.as_slice().iter().copied().max().unwrap_or(0)
    }

    /// The minimum entry — the scalar "universal stable time" an
    /// Okapi-style backend distills a stabilized vector down to.
    pub fn min_entry(&self) -> u64 {
        self.as_slice().iter().copied().min().unwrap_or(0)
    }

    /// Panics unless the representation is canonical: an inline length
    /// fits the array, and a boxed slice holds more entries than fit inline.
    #[cfg(test)]
    pub(crate) fn assert_invariants(&self) {
        match &self.0 {
            Repr::Inline(n, _) => assert!(*n as usize <= INLINE, "inline length {n}"),
            Repr::Heap(b) => assert!(b.len() > INLINE, "{} entries on the heap", b.len()),
        }
    }
}

impl PartialEq for DepVector {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for DepVector {}

impl Hash for DepVector {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for DepVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("DepVector").field(&self.as_slice()).finish()
    }
}

impl Index<usize> for DepVector {
    type Output = u64;
    fn index(&self, i: usize) -> &u64 {
        &self.as_slice()[i]
    }
}

impl fmt::Display for DepVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.as_slice().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{from_bytes, to_bytes};
    use proptest::prelude::*;
    use std::collections::hash_map::DefaultHasher;

    fn v(s: &[u64]) -> DepVector {
        DepVector::from_vec(s.to_vec())
    }

    /// The differential model: the lattice operations over plain `Vec<u64>`
    /// entries, the representation this type had before it went inline.
    mod model {
        pub(super) fn join(a: &[u64], b: &[u64]) -> Vec<u64> {
            a.iter().zip(b).map(|(x, y)| *x.max(y)).collect()
        }

        pub(super) fn meet(a: &[u64], b: &[u64]) -> Vec<u64> {
            a.iter().zip(b).map(|(x, y)| *x.min(y)).collect()
        }

        pub(super) fn leq(a: &[u64], b: &[u64]) -> bool {
            a.iter().zip(b).all(|(x, y)| x <= y)
        }
    }

    fn hash_of(d: &impl Hash) -> u64 {
        let mut h = DefaultHasher::new();
        d.hash(&mut h);
        h.finish()
    }

    /// A vector with the same entries as `s`, built by `zero` + `set`.
    fn by_set(s: &[u64]) -> DepVector {
        let mut d = DepVector::zero(s.len());
        for (i, &x) in s.iter().enumerate() {
            d.set(i, x);
        }
        d
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every operation against the `Vec<u64>` model, at 0..=5 DCs so
        /// both the inline and the boxed form are exercised, with the
        /// representation checked after each step. Entries come from a
        /// small range so ties and incomparable pairs are common.
        #[test]
        fn matches_vec_model(
            n in 0usize..=5,
            a in prop::collection::vec(0u64..6, 5),
            b in prop::collection::vec(0u64..6, 5),
            i in 0usize..5,
            x in 0u64..8,
        ) {
            let (ma, mb) = (&a[..n], &b[..n]);
            let (da, db) = (v(ma), v(mb));
            da.assert_invariants();
            prop_assert_eq!(da.as_slice(), ma);
            prop_assert_eq!(da.len(), n);
            prop_assert_eq!(da.is_empty(), n == 0);

            let mut j = da.clone();
            j.join(&db);
            j.assert_invariants();
            prop_assert_eq!(j.as_slice(), &model::join(ma, mb)[..]);
            prop_assert_eq!(&da.joined(&db), &j);
            let mut m = da.clone();
            m.meet(&db);
            m.assert_invariants();
            prop_assert_eq!(m.as_slice(), &model::meet(ma, mb)[..]);
            prop_assert_eq!(da.leq(&db), model::leq(ma, mb));
            prop_assert_eq!(da.max_entry(), ma.iter().copied().max().unwrap_or(0));
            prop_assert_eq!(da.min_entry(), ma.iter().copied().min().unwrap_or(0));

            if n > 0 {
                let i = i % n;
                let (mut s, mut r) = (da.clone(), da.clone());
                let (mut ms, mut mr) = (ma.to_vec(), ma.to_vec());
                s.set(i, x);
                ms[i] = x;
                r.raise(i, x);
                mr[i] = mr[i].max(x);
                s.assert_invariants();
                r.assert_invariants();
                prop_assert_eq!(s.as_slice(), &ms[..]);
                prop_assert_eq!(r.as_slice(), &mr[..]);
                prop_assert_eq!(s[i], x);
                prop_assert_eq!(r.get(i), mr[i]);
            }

            let back: DepVector = from_bytes(&to_bytes(&da)).unwrap();
            back.assert_invariants();
            prop_assert_eq!(&back, &da);

            // However it was built, one value is one value, and it hashes
            // as the `Vec` it replaced did.
            let built = by_set(ma);
            built.assert_invariants();
            prop_assert_eq!(&built, &da);
            prop_assert_eq!(hash_of(&built), hash_of(&da));
            prop_assert_eq!(hash_of(&da), hash_of(&ma.to_vec()));
            prop_assert_eq!(da == db, ma == mb);
        }
    }

    /// A version's chain holds the vector inline, so growth here is per
    /// stored version: two inline entries plus a length byte, the size of
    /// the boxed form.
    #[test]
    fn dep_vector_is_three_words() {
        assert_eq!(std::mem::size_of::<DepVector>(), 24);
    }

    /// Up to two DCs inline; from three on, on the heap; an empty vector
    /// is the default.
    #[test]
    fn representation_follows_the_length() {
        for m in 0..=4 {
            let z = DepVector::zero(m);
            z.assert_invariants();
            assert_eq!(matches!(z.0, Repr::Heap(_)), m > INLINE, "zero({m})");
        }
        assert!(matches!(v(&[1, 2, 3]).0, Repr::Heap(ref b) if b.len() == 3));
        assert_eq!(DepVector::default(), DepVector::zero(0));
    }

    /// `Debug` prints what the derived impl of the `Vec`-backed form did.
    #[test]
    fn debug_prints_the_entries() {
        assert_eq!(format!("{:?}", v(&[1, 2])), "DepVector([1, 2])");
        assert_eq!(format!("{:?}", v(&[1, 2, 3])), "DepVector([1, 2, 3])");
        assert_eq!(format!("{:?}", DepVector::zero(0)), "DepVector([])");
    }

    #[test]
    fn zero_is_bottom() {
        let z = DepVector::zero(3);
        assert!(z.leq(&v(&[0, 0, 0])));
        assert!(z.leq(&v(&[5, 0, 9])));
    }

    #[test]
    fn join_is_entrywise_max() {
        let mut a = v(&[1, 7, 3]);
        a.join(&v(&[4, 2, 3]));
        assert_eq!(a, v(&[4, 7, 3]));
    }

    #[test]
    fn meet_is_entrywise_min() {
        let mut a = v(&[1, 7, 3]);
        a.meet(&v(&[4, 2, 3]));
        assert_eq!(a, v(&[1, 2, 3]));
    }

    #[test]
    fn leq_is_partial() {
        // Incomparable vectors: neither ≤ the other.
        let a = v(&[1, 5]);
        let b = v(&[2, 3]);
        assert!(!a.leq(&b));
        assert!(!b.leq(&a));
        assert!(a.leq(&a));
    }

    #[test]
    fn raise_only_increases() {
        let mut a = v(&[5, 5]);
        a.raise(0, 3);
        assert_eq!(a[0], 5);
        a.raise(0, 9);
        assert_eq!(a[0], 9);
    }

    #[test]
    fn max_entry() {
        assert_eq!(v(&[3, 9, 1]).max_entry(), 9);
        assert_eq!(DepVector::zero(0).max_entry(), 0);
    }

    #[test]
    fn min_entry() {
        assert_eq!(v(&[3, 9, 1]).min_entry(), 1);
        assert_eq!(DepVector::zero(0).min_entry(), 0);
    }

    #[test]
    fn display() {
        assert_eq!(v(&[1, 2]).to_string(), "[1,2]");
    }
}
