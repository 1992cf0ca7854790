//! The `Value` handle's memory contract, read from this binary's own
//! counting allocator (an integration test is its own binary): static and
//! empty values never allocate, a shared value is one block that every
//! clone shares, and the block is freed exactly once, by whichever handle
//! drops last, on whichever thread.

use contrarian_types::codec::{from_bytes, to_bytes};
use contrarian_types::{genesis_value, Key, Op, Value, VersionId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

thread_local! {
    /// `(allocations, live requested bytes)` of the current thread.
    /// Const-initialized and without a destructor, so touching it inside
    /// the allocator neither allocates nor registers anything.
    static HEAP: Cell<(u64, i64)> = const { Cell::new((0, 0)) };
}

/// An address inside the block under watch (0: none).
static WATCH: AtomicUsize = AtomicUsize::new(0);
/// Frees of the watched block.
static FREES: AtomicUsize = AtomicUsize::new(0);

fn note(allocs: u64, bytes: i64) {
    // `try_with`: the allocator outlives a dying thread's TLS.
    let _ = HEAP.try_with(|h| {
        let (n, live) = h.get();
        h.set((n + allocs, live + bytes));
    });
}

/// `(allocations, live requested bytes)` of the calling thread so far.
fn heap() -> (u64, i64) {
    HEAP.with(|h| h.get())
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result unchanged, so `System`'s guarantees (and
// the caller's obligations) carry over; the counting touches one
// thread-local `Cell` and two atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller upholds `GlobalAlloc`'s contract for this method; it
    // is passed through to `System` untouched.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller upholds `GlobalAlloc`'s contract for this method; it
    // is passed through to `System` untouched.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as i64));
        let watch = WATCH.load(Ordering::SeqCst);
        if (ptr.addr()..ptr.addr() + layout.size()).contains(&watch) {
            FREES.fetch_add(1, Ordering::SeqCst);
        }
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Building, cloning, reading, comparing and dropping static and empty
/// values touches the allocator not once: a genesis read costs a word copy.
#[test]
fn static_and_empty_values_never_allocate() {
    let before = heap();
    let values = [
        genesis_value(),
        Value::from_static(b"8 bytes!"),
        Value::new(),
        Value::default(),
        Value::copy_from_slice(&[]),
        Value::from(Vec::new()),
        Value::from("static str"),
    ];
    for v in &values {
        let copies = [v.clone(), v.clone()];
        let opt = Some(copies[0].clone());
        assert_eq!(opt.as_deref(), Some(v.as_slice()));
        assert!(copies.iter().all(|c| c == v && c.block_bytes() == 0));
    }
    assert_eq!(&values[0][..], b"genesis\0");
    drop(values);
    assert_eq!(heap(), before);
}

/// A shared value is one block of the header plus its bytes; cloning it
/// allocates nothing, and dropping every handle gives all of it back.
#[test]
fn a_shared_value_is_one_block_and_leaks_nothing() {
    let (n0, live0) = heap();
    let v = Value::copy_from_slice(&[0xAB; 8]);
    assert_eq!(heap(), (n0 + 1, live0 + 24), "one 24-byte block");
    assert_eq!(v.block_bytes(), 24);
    let clones: Vec<Value> = std::iter::repeat_n(&v, 100).cloned().collect();
    assert_eq!(
        heap().0,
        n0 + 2,
        "the clones' vector is the only allocation"
    );
    drop(clones);
    drop(v);
    assert_eq!(heap(), (n0 + 2, live0));
}

/// Clones handed to other threads and dropped there, in whatever order the
/// threads reach their drop, free the block exactly once, and only after
/// the last one is gone.
#[test]
fn clones_dropped_on_other_threads_free_the_block_once() {
    const THREADS: usize = 4;
    let rounds = if cfg!(miri) { 3 } else { 200 };
    for _ in 0..rounds {
        let v = Value::from(vec![7u8; 1000]);
        FREES.store(0, Ordering::SeqCst);
        WATCH.store(v.as_ptr().addr(), Ordering::SeqCst);
        let go = Arc::new(Barrier::new(THREADS + 1));
        let threads: Vec<_> = (0..THREADS)
            .map(|_| {
                let (mine, go) = (v.clone(), Arc::clone(&go));
                std::thread::spawn(move || {
                    let more = [mine.clone(), mine.clone()];
                    go.wait();
                    assert!(more.iter().all(|m| m[..] == [7u8; 1000]));
                    drop(more);
                    drop(mine);
                })
            })
            .collect();
        drop(v);
        assert_eq!(FREES.load(Ordering::SeqCst), 0, "freed while shared");
        go.wait();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(FREES.load(Ordering::SeqCst), 1, "freed exactly once");
        WATCH.store(0, Ordering::SeqCst);
    }
}

/// Both forms encode as a length prefix and the bytes, and decoding is one
/// block straight from the wire buffer.
#[test]
fn both_forms_round_trip_through_the_codec() {
    for v in [
        Value::from_static(b"v"),
        Value::from(b"v".to_vec()),
        Value::new(),
        Value::from(vec![0u8; 300]),
    ] {
        let bytes = to_bytes(&v);
        assert_eq!(bytes.len(), 4 + v.len());
        assert_eq!(&bytes[4..], v.as_slice());
        let (n0, _) = heap();
        let back: Value = from_bytes(&bytes).unwrap();
        assert_eq!(heap().0 - n0, u64::from(!v.is_empty()));
        assert_eq!(back, v);
    }
    let put = Op::Put(Key(4), Value::from_static(b"v"));
    assert_eq!(from_bytes::<Op>(&to_bytes(&put)).unwrap(), put);
    let read = (Key(9), Some((VersionId::GENESIS, genesis_value())));
    assert_eq!(
        from_bytes::<(Key, Option<(VersionId, Value)>)>(&to_bytes(&read)).unwrap(),
        read
    );
}
