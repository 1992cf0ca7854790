//! [`Value`]: an immutable byte string behind one 8-byte handle.
//!
//! # Layout
//!
//! Every stored version holds one value, and the paper's workloads write
//! 8-byte values, so the handle is a single word: a 24-byte handle (a
//! tagged `&'static [u8]` or `Arc<[u8]>`) made every version, and every
//! slot of the store's slab, 72 bytes instead of 56. The handle is a
//! non-null pointer in one of two forms, told apart by its top bit:
//!
//! * **static** (top bit set): bits 0–47 are the address of a
//!   `&'static [u8]`'s first byte and bits 48–62 its length. Cloning and
//!   dropping one is a copy of the word; nothing is counted or freed. The
//!   empty value and the genesis value are static, so they never allocate.
//! * **shared** (top bit clear): the address of one heap block, a
//!   header (reference count and length) followed by the bytes, laid
//!   out as `Arc<[u8]>` lays out its block. Cloning is one atomic
//!   increment; the last handle to drop frees the block.
//!
//! A static slice that does not fit the packed form (32 KiB or longer, or
//! at an address of 2^48 or more, which no user-space mapping of a 64-bit
//! Linux or macOS process has by default) is copied into a shared block.
//! Equality, ordering, hashing and `Debug` go through
//! [`Value::as_slice`], so the two forms are indistinguishable from
//! outside, and `Option<Value>` uses the null niche (8 bytes).
//!
//! A shared value's length is read from its header. Keeping it in the
//! handle's spare bits instead, so that a length or a read never loads the
//! header line the reference count moves between a sharded simulation's
//! threads, measured the same on `sim_geo_cure` (per-round `cpu_us_per_op`
//! over 30 alternating rounds), so the simpler form stays.

use std::alloc::{self, Layout};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::ptr::{self, NonNull};
use std::sync::atomic::{self, AtomicUsize, Ordering};

#[cfg(not(target_pointer_width = "64"))]
compile_error!("`Value` packs a static slice's address and length into a 64-bit word");

/// Tag bit of a static handle.
const STATIC: usize = 1 << 63;
/// Bits of a static handle that hold the slice's address.
const ADDR_BITS: u32 = 48;
const ADDR_MASK: usize = (1 << ADDR_BITS) - 1;
/// Longest slice a static handle carries (the 15 bits between the address
/// and the tag).
const MAX_STATIC_LEN: usize = (1 << (63 - ADDR_BITS)) - 1;

/// The prefix of a shared value's heap block; the bytes follow it.
#[repr(C)]
struct Header {
    /// Live handles to the block.
    refs: AtomicUsize,
    /// Bytes after the header.
    len: usize,
}

/// Offset of the bytes in a shared block.
const HEADER: usize = std::mem::size_of::<Header>();

/// The layout of a shared block of `len` bytes: the header, the bytes and
/// padding to the header's alignment (`Arc<[u8]>`'s block size).
fn block_layout(len: usize) -> Layout {
    HEADER
        .checked_add(len)
        .and_then(|size| Layout::from_size_align(size, std::mem::align_of::<Header>()).ok())
        .expect("value larger than the address space")
        .pad_to_align()
}

/// An opaque, immutable byte string. Cloning a value is a copy or one
/// reference-count increment, never a copy of the bytes, which matters
/// because a single hot version may be returned by thousands of ROTs.
pub struct Value(NonNull<u8>);

// SAFETY: a handle only ever gives shared access to bytes that never change
// after construction, and the one piece of shared mutable state, a shared
// block's reference count, is atomic (the same argument as `Arc<[u8]>`).
unsafe impl Send for Value {}
// SAFETY: as for `Send`: `&Value` allows reading immutable bytes only.
unsafe impl Sync for Value {}

impl Value {
    /// The empty value (no allocation).
    pub const fn new() -> Self {
        // The address bits only have to be non-null for the empty slice
        // `as_slice` builds; no provenance is needed to read zero bytes.
        // SAFETY: `STATIC | 1` is not zero.
        Value(unsafe { NonNull::new_unchecked(ptr::without_provenance_mut(STATIC | 1)) })
    }

    /// Wraps a static slice: no allocation, and cloning or dropping the
    /// value is a copy of one word. A slice of 32 KiB or more is copied into
    /// a shared block instead.
    pub fn from_static(bytes: &'static [u8]) -> Self {
        let p = bytes.as_ptr();
        if p.addr() & !ADDR_MASK != 0 || bytes.len() > MAX_STATIC_LEN {
            return Value::copy_from_slice(bytes);
        }
        let packed = p.map_addr(|a| a | (bytes.len() << ADDR_BITS) | STATIC);
        // SAFETY: the tag bit is set, so the pointer is not null.
        Value(unsafe { NonNull::new_unchecked(packed.cast_mut()) })
    }

    /// Copies `bytes` into a new shared block (one allocation; none for an
    /// empty slice).
    pub fn copy_from_slice(bytes: &[u8]) -> Self {
        if bytes.is_empty() {
            return Value::new();
        }
        let layout = block_layout(bytes.len());
        // SAFETY: the layout is never zero-sized (it holds the header).
        let Some(block) = NonNull::new(unsafe { alloc::alloc(layout) }) else {
            alloc::handle_alloc_error(layout)
        };
        assert_eq!(
            block.addr().get() & STATIC,
            0,
            "a heap address with the static tag bit set"
        );
        // SAFETY: the block is fresh, aligned for `Header` and `HEADER +
        // bytes.len()` bytes long, so the header and the bytes both fit and
        // nothing else can see the block yet.
        unsafe {
            block.cast::<Header>().write(Header {
                refs: AtomicUsize::new(1),
                len: bytes.len(),
            });
            ptr::copy_nonoverlapping(bytes.as_ptr(), block.as_ptr().add(HEADER), bytes.len());
        }
        Value(block)
    }

    /// The header of a shared value's block, or `None` for a static value.
    #[inline]
    fn header(&self) -> Option<&Header> {
        if self.0.addr().get() & STATIC != 0 {
            return None;
        }
        // SAFETY: a handle without the tag bit points to a block built by
        // `copy_from_slice`, aligned for `Header` and kept alive by this
        // handle's count.
        Some(unsafe { self.0.cast::<Header>().as_ref() })
    }

    /// The bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        match self.header() {
            // SAFETY: the block holds `len` initialized bytes after its
            // header, and they live as long as this handle.
            Some(h) => unsafe { std::slice::from_raw_parts(self.0.as_ptr().add(HEADER), h.len) },
            None => {
                let bits = self.0.addr().get();
                let p = self.0.as_ptr().map_addr(|a| a & ADDR_MASK);
                // SAFETY: a static handle was packed by `from_static` from a
                // `&'static [u8]` of this length at this address, with its
                // provenance, or is the empty `Value::new()`, whose address
                // is 1 (non-null, so a valid empty slice).
                unsafe { std::slice::from_raw_parts(p, (bits & !STATIC) >> ADDR_BITS) }
            }
        }
    }

    /// Heap bytes of the value's block: 0 for a static value. Every clone
    /// shares the one block.
    pub fn block_bytes(&self) -> usize {
        self.header().map_or(0, |h| block_layout(h.len).size())
    }
}

impl Clone for Value {
    #[inline]
    fn clone(&self) -> Self {
        if let Some(h) = self.header() {
            // Relaxed, as `Arc::clone`: the new handle comes from a live
            // one, so the block cannot be freed meanwhile.
            if h.refs.fetch_add(1, Ordering::Relaxed) > isize::MAX as usize {
                // Billions of leaked handles: wrapping would free a live block.
                std::process::abort();
            }
        }
        Value(self.0)
    }
}

impl Drop for Value {
    #[inline]
    fn drop(&mut self) {
        let Some(h) = self.header() else { return };
        // Release then Acquire, as `Arc`'s drop: every other handle's reads
        // of the block happen before it is freed.
        if h.refs.fetch_sub(1, Ordering::Release) != 1 {
            return;
        }
        atomic::fence(Ordering::Acquire);
        let layout = block_layout(h.len);
        // SAFETY: that was the last handle, so nothing can reach the block
        // any more; it was allocated with this layout.
        unsafe { alloc::dealloc(self.0.as_ptr(), layout) }
    }
}

impl Default for Value {
    fn default() -> Self {
        Value::new()
    }
}

impl Deref for Value {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::copy_from_slice(&v)
    }
}

impl From<&'static str> for Value {
    fn from(s: &'static str) -> Self {
        Value::from_static(s.as_bytes())
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"{}\"", self.as_slice().escape_ascii())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    /// The handle is one word, and `Option` takes the null niche: this is
    /// the size every stored version pays for its value.
    #[test]
    fn value_is_one_word() {
        assert_eq!(std::mem::size_of::<Value>(), 8);
        assert_eq!(std::mem::size_of::<Option<Value>>(), 8);
    }

    #[test]
    fn both_forms_read_back_their_bytes() {
        let s = Value::from_static(b"genesis\0");
        assert!(s.header().is_none());
        assert_eq!(s.as_slice(), b"genesis\0");
        let h = Value::copy_from_slice(b"genesis\0");
        assert!(h.header().is_some());
        assert_eq!(h, s);
        assert_eq!(h.block_bytes(), 24);
        assert_eq!(s.block_bytes(), 0);
        assert_eq!(Value::from(vec![7u8; 5]).block_bytes(), 24);
        assert!(Value::new().is_empty());
        assert!(Value::from(Vec::new()).header().is_none());
    }

    #[test]
    fn clones_share_one_block() {
        let a = Value::from(vec![1u8; 1024]);
        let b = a.clone();
        assert_eq!(a.as_ptr(), b.as_ptr());
        assert_eq!(a.header().unwrap().refs.load(Ordering::Relaxed), 2);
        drop(a);
        assert_eq!(b.header().unwrap().refs.load(Ordering::Relaxed), 1);
        assert_eq!(b.as_slice(), &[1u8; 1024][..]);
    }

    /// One byte past the packed length's range goes to a shared block; the
    /// longest packed slice stays static.
    #[test]
    fn a_static_slice_too_long_to_pack_is_copied() {
        static BIG: [u8; MAX_STATIC_LEN + 1] = [3; MAX_STATIC_LEN + 1];
        let fits = Value::from_static(&BIG[..MAX_STATIC_LEN]);
        assert!(fits.header().is_none());
        assert_eq!((fits.len(), fits.as_ptr()), (MAX_STATIC_LEN, BIG.as_ptr()));
        let copied = Value::from_static(&BIG);
        assert!(copied.header().is_some());
        assert_eq!(copied.as_slice(), &BIG[..]);
    }

    #[test]
    fn debug_escapes_like_a_byte_string() {
        assert_eq!(format!("{:?}", Value::from_static(b"v1")), r#"b"v1""#);
        assert_eq!(
            format!("{:?}", Value::from(vec![0, b'"', 0xAB, b'\n'])),
            r#"b"\x00\"\xab\n""#
        );
        assert_eq!(format!("{:?}", Value::new()), r#"b"""#);
    }

    /// Byte strings that differ in length, content, order and escaping.
    const WORDS: [&[u8]; 9] = [
        b"",
        b"\0",
        b"a",
        b"ab",
        b"b",
        b"ba",
        b"\xff",
        b"a\"\n",
        b"genesis\0",
    ];

    /// Equality, ordering, hashing and `Debug` are the byte slice's,
    /// whichever form either side takes.
    #[test]
    fn eq_ord_hash_and_debug_are_the_slices() {
        let forms = |w: &'static [u8]| [Value::from_static(w), Value::copy_from_slice(w)];
        for a in WORDS {
            for va in forms(a) {
                assert_eq!(hash_of(&va), hash_of(a));
                assert_eq!(format!("{va:?}"), format!("b\"{}\"", a.escape_ascii()));
                assert_eq!(va.as_slice(), a);
                for b in WORDS {
                    for vb in forms(b) {
                        assert_eq!(va == vb, a == b);
                        assert_eq!(va.cmp(&vb), a.cmp(b));
                        assert_eq!(va.partial_cmp(&vb), a.partial_cmp(b));
                    }
                }
            }
        }
    }
}
