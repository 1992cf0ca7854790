//! Memory budgets of the layouts whose cost is per key and per link, and
//! of the open-loop driver, whose cost must not be per session.
//!
//! The benchmark's `peak_rss_mb` prices these end to end, but only when
//! somebody runs it; the budgets here hold the same ground in tier-1.
//! The heap figures come from this binary's own counting allocator (an
//! integration test is its own binary), kept per thread because the test
//! harness runs every `#[test]` on a thread of its own: what one test
//! allocates never shows up in another's reading.

use contrarian::cclo::{CcLo, CurrentReader, ReaderEntry, ReaderSet};
use contrarian::core_protocol::Contrarian;
use contrarian::cure::Cure;
use contrarian::okapi::Okapi;
use contrarian::protocol::{build_cluster, Clients, ClusterParams, ProtocolSpec};
use contrarian::sim::cost::CostModel;
use contrarian::sim::SchedKind;
use contrarian::storage::{Chain, MvStore, Version};
use contrarian::types::{
    Addr, ClientId, ClusterConfig, DcId, DepVector, Key, PartitionId, TxId, Value, VersionId,
};
use contrarian::workload::{ClientDriver, Draw, OpenLoopDriver, OpenLoopSpec, WorkloadSpec, Zipf};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

thread_local! {
    /// `(allocations, live requested bytes)` of the current thread.
    /// Const-initialized and without a destructor, so touching it inside
    /// the allocator neither allocates nor registers anything.
    static HEAP: Cell<(u64, i64)> = const { Cell::new((0, 0)) };
}

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
// unchanged and returns its result unchanged, so `System`'s guarantees
// (and the caller's obligations) carry over; the counting touches one
// thread-local `Cell` and never allocates.
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
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: the caller upholds `GlobalAlloc`'s contract for this method; it
    // is passed through to `System` untouched.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as i64));
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: the caller upholds `GlobalAlloc`'s contract for this method; it
    // is passed through to `System` untouched.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growth is one allocation; the block's size changes in place.
        note(1, new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr`/`layout` describe a live `System` block and the
        // caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn version(ts: u64) -> Version<DepVector> {
    Version::new(
        VersionId::new(ts, DcId(0)),
        Value::from_static(b"v"),
        DepVector::zero(2),
    )
}

/// A store of write-once keys — the uniform-key tier's whole data set —
/// costs a table bucket per key and nothing else: the version and its
/// two-DC dependency vector live inline in the bucket's chain. Measured
/// 106.2 B per key (65 536 buckets of 8 + 72 + 1 B for 50 000 keys);
/// a heap-allocated vector made it 122.2 B (plus a 16-byte block per key)
/// and a heap-allocated chain 347.3 B (a 288-byte block of four version
/// slots per key).
#[test]
fn distinct_key_puts_stay_within_112_bytes_per_key() {
    const KEYS: u64 = 50_000;
    let (_, before) = heap();
    let mut store = MvStore::new();
    for k in 0..KEYS {
        store.put(Key(k), version(k + 1));
    }
    let per_key = (heap().1 - before) as f64 / KEYS as f64;
    assert_eq!(store.n_versions(), KEYS as usize);
    assert!(
        per_key <= 112.0,
        "{per_key:.1} live heap bytes per single-version key"
    );
}

/// The first version of a key lives in the chain itself; the second moves
/// both into one exact two-element vector.
#[test]
fn first_insert_into_a_chain_does_not_allocate() {
    let mut chain = Chain::new();
    let (first, second) = (version(1), version(2));
    let (n0, live0) = heap();
    chain.insert(first);
    assert_eq!(heap(), (n0, live0), "one version is stored inline");
    chain.insert(second);
    let two = 2 * std::mem::size_of::<Version<DepVector>>() as i64;
    assert_eq!(
        heap(),
        (n0 + 1, live0 + two),
        "promotion is one exact block"
    );
    assert_eq!(chain.len(), 2);
}

/// A dependency vector of one or two DCs lives inline: building, copying
/// and joining one allocates nothing. From three DCs on it is one exact
/// boxed slice.
#[test]
fn dependency_vectors_of_up_to_two_dcs_do_not_allocate() {
    for m in 1..=2 {
        let entries: Vec<u64> = (1..=m as u64).collect();
        let (n0, live0) = heap();
        let a = DepVector::zero(m);
        let b = a.clone();
        let c = b.joined(&a);
        assert_eq!(heap(), (n0, live0), "zero, clone and joined at {m} DCs");
        let d = DepVector::from_vec(entries);
        assert_eq!(heap().0, n0, "from_vec at {m} DCs");
        assert!(c.leq(&d));
    }
    let (n0, live0) = heap();
    let z = DepVector::zero(3);
    assert_eq!(heap(), (n0 + 1, live0 + 24), "zero(3) is one exact block");
    assert_eq!(z.len(), 3);
}

const CLIENTS_PER_DC: u16 = 512;

/// The 2 × 64-server, 1 024-client geometry of `sim_scale_okapi`, with
/// closed-loop clients.
fn okapi_2dc_params() -> ClusterParams {
    ClusterParams {
        cfg: ClusterConfig::small().with_dcs(2).with_partitions(64),
        cost: CostModel::functional(),
        clients: Clients::Closed {
            workload: WorkloadSpec::paper_default(),
            per_dc: CLIENTS_PER_DC,
        },
        seed: 17,
    }
}

/// Link FIFO state follows what a sender reaches: on the 2 × 64-server,
/// 1 024-client geometry of `sim_scale_okapi` a client's row is the 64
/// servers of its DC (512 B) and a server's at most both DCs' servers plus
/// its DC's clients (5 120 B), against 9 216 B for every sender when rows
/// spanned all 1 152 nodes.
#[test]
fn link_state_stays_within_2_kb_per_node() {
    let nodes = 2 * (64 + CLIENTS_PER_DC as usize);
    let mut sim = build_cluster::<Okapi>(&okapi_2dc_params(), SchedKind::Calendar);
    sim.start();
    sim.run_until(5_000_000);
    let bytes = sim.heap_census().bytes("engine", "link state");
    // Not vacuous: every client has sent into its DC by now.
    assert!(bytes >= 2 * CLIENTS_PER_DC as usize * 64 * 8, "{bytes} B");
    assert!(
        bytes <= nodes * 2048,
        "{} B of link state per node",
        bytes / nodes
    );
}

/// Host allocations per completed operation on the same geometry, counted
/// over one virtual millisecond after a warm-up, metrics on: 26 428
/// operations. Measured 10.84 per operation with inline dependency vectors
/// and 15.85 when each vector was a heap block; those vectors coming back,
/// or one more allocation per message, crosses the ceiling.
#[test]
fn okapi_operations_stay_within_13_allocations_each() {
    let mut sim = build_cluster::<Okapi>(&okapi_2dc_params(), SchedKind::Calendar);
    sim.start();
    sim.run_until(2_000_000);
    sim.metrics_mut().enabled = true;
    let (n0, _) = heap();
    sim.run_until(3_000_000);
    let allocs = heap().0 - n0;
    let ops = sim.metrics().ops_done();
    // Not vacuous: tens of thousands of operations completed.
    assert!(ops > 10_000, "{ops} operations");
    let per_op = allocs as f64 / ops as f64;
    assert!(per_op <= 13.0, "{per_op:.2} allocations per operation");
}

const CCLO_CLIENTS: u16 = 64;
const CCLO_PARTITIONS: u16 = 8;

/// Host allocations per completed operation on a one-DC, 8-partition,
/// 64-client CC-LO cluster at `sim_write_cclo`'s write ratio (0.1), counted
/// like the Okapi guard's, over the second 100 virtual milliseconds (the
/// first fills the reader records' 100 ms GC window): 12 435 operations.
/// Measured 15.05 per operation, and 15.29 when every PUT's readers check
/// grew its pending block reply by reply and its seal shrank the block in
/// place. The ceiling of 17 leaves 13 %: one more allocation per message
/// (8.7 per operation here) crosses it. Every server's per-client table holds one slot per client
/// index it has seen: at most the 64 clients, not 65 536.
#[test]
fn cclo_operations_stay_within_17_allocations_each() {
    let params = ClusterParams {
        cfg: ClusterConfig::small()
            .with_dcs(1)
            .with_partitions(CCLO_PARTITIONS),
        cost: CostModel::functional(),
        clients: Clients::Closed {
            workload: WorkloadSpec::paper_default().with_write_ratio(0.1),
            per_dc: CCLO_CLIENTS,
        },
        seed: 17,
    };
    let mut sim = build_cluster::<CcLo>(&params, SchedKind::Calendar);
    sim.start();
    sim.run_until(100_000_000);
    sim.metrics_mut().enabled = true;
    let (n0, _) = heap();
    sim.run_until(200_000_000);
    let allocs = heap().0 - n0;
    let ops = sim.metrics().ops_done();
    let per_op = allocs as f64 / ops as f64;
    // Not vacuous: thousands of operations completed.
    assert!(ops > 5_000, "{ops} operations");
    assert!(per_op <= 17.0, "{per_op:.2} allocations per operation");
    for p in 0..CCLO_PARTITIONS {
        let addr = Addr::server(DcId(0), PartitionId(p));
        let table = sim.actor(addr).as_server().unwrap().rot_floor();
        // Not vacuous: the server has seen ROTs of most clients.
        assert!(
            table.slots() > CCLO_CLIENTS as usize / 2,
            "{}",
            table.slots()
        );
        assert!(table.slots() <= CCLO_CLIENTS as usize, "{}", table.slots());
    }
}

/// An open-loop driver actor draws its shard's merged Poisson stream and
/// keeps nothing per session: primed and run for a tenth of a virtual
/// second at the same shard rate (100 K arrivals/s), a 1 000-session and a
/// 1 000 000-session driver hold the same live heap, at most 256 B. Even
/// one word per session would differ by ≈ 8 MB here.
#[test]
fn open_loop_driver_heap_does_not_grow_with_its_sessions() {
    let live_after_draws = |sessions: u32| {
        let zipf = Arc::new(Zipf::new(1_000, 0.99));
        let gen = ClientDriver::new(WorkloadSpec::paper_default(), zipf, 32);
        let mut rng = SmallRng::seed_from_u64(1);
        let (_, before) = heap();
        let mut driver = OpenLoopDriver::new(gen, sessions, 1e5 / sessions as f64);
        let mut ops = 0;
        for now in (0..=100_000_000).step_by(1_000_000) {
            while let Draw::Op { .. } = driver.draw(now, &mut rng) {
                ops += 1;
            }
        }
        // Not vacuous: ≈ 10 000 arrivals were drawn.
        assert!(ops > 9_000, "{sessions} sessions: {ops} arrivals");
        heap().1 - before
    };
    let (few, many) = (live_after_draws(1_000), live_after_draws(1_000_000));
    assert_eq!(few, many, "live heap bytes at 1 000 vs 1 000 000 sessions");
    assert!(few <= 256, "{few} live heap bytes");
}

fn reader(client: u16) -> ReaderEntry {
    ReaderEntry {
        tx: TxId::new(ClientId::new(DcId(0), client), 1),
        read_time: 1,
        read_version_ts: 1,
        inserted_at: 0,
    }
}

/// A key's first reader lives in the set itself; the second moves both
/// into one exact two-element vector.
#[test]
fn first_reader_of_a_key_does_not_allocate() {
    let mut set = ReaderSet::new();
    let (n0, live0) = heap();
    set.insert(reader(1));
    assert_eq!(heap(), (n0, live0), "one reader is stored inline");
    set.insert(reader(2));
    let two = 2 * std::mem::size_of::<ReaderEntry>() as i64;
    assert_eq!(
        heap(),
        (n0 + 1, live0 + two),
        "promotion is one exact block"
    );
    assert_eq!(set.len(), 2);
}

/// Most keys a CC-LO partition tracks readers for have exactly one (3 327
/// of 3 707 on `sim_write_cclo`'s overload rung), and such a key costs a
/// table slot and nothing else. Measured 64.2 B per key (65 536 slots of
/// 8 + 40 + 1 B for 50 000 keys); a set that kept its one reader in a
/// vector made it 171.3 B (65 536 slots of 8 + 24 + 1 B plus a 128-byte
/// block of four entry slots per key). That is the old readers' map, whose
/// entries keep the version they read; the current readers' is below.
#[test]
fn single_reader_keys_stay_within_80_bytes_per_key() {
    const KEYS: u64 = 50_000;
    let (_, before) = heap();
    let mut readers: HashMap<Key, ReaderSet> = HashMap::new();
    for k in 0..KEYS {
        readers.entry(Key(k)).or_default().insert(reader(k as u16));
    }
    let per_key = (heap().1 - before) as f64 / KEYS as f64;
    assert_eq!(readers.len(), KEYS as usize);
    assert!(
        per_key <= 80.0,
        "{per_key:.1} live heap bytes per single-reader key"
    );
}

/// A key's current readers all read its head, so they store no version:
/// a single-reader key costs a 40 B table slot. Measured 53.7 B per key
/// (65 536 slots of 8 + 32 + 1 B for 50 000 keys), against 64.2 B when
/// every current reader kept the version it read (the 40 B set above).
/// The current readers are the largest row of `sim_write_cclo`'s heap
/// census.
#[test]
fn current_reader_keys_stay_within_60_bytes_per_key() {
    const KEYS: u64 = 50_000;
    let (_, before) = heap();
    let mut readers: HashMap<Key, ReaderSet<CurrentReader>> = HashMap::new();
    for k in 0..KEYS {
        readers.entry(Key(k)).or_default().insert(CurrentReader {
            tx: TxId::new(ClientId::new(DcId(0), k as u16), 1),
            read_time: 1,
            inserted_at: 0,
        });
    }
    let per_key = (heap().1 - before) as f64 / KEYS as f64;
    assert_eq!(readers.len(), KEYS as usize);
    assert!(
        per_key <= 60.0,
        "{per_key:.1} live heap bytes per current-reader key"
    );
}

/// `(census total, live heap bytes)` of a small open-loop cluster of `P`
/// on the serial engine (so this thread's counter sees every block), at
/// the benchmark's cost model and write ratio, after 150 virtual ms: the
/// live heap counted from before the cluster was built.
fn census_against_live_heap<P: ProtocolSpec>(n_dcs: u8) -> (usize, i64) {
    let mut cfg = ClusterConfig::paper_default()
        .with_dcs(n_dcs)
        .with_partitions(8);
    cfg.keys_per_partition = 100_000;
    cfg.prepopulated = true;
    let workload = WorkloadSpec::paper_default().with_write_ratio(0.1);
    let (_, before) = heap();
    let mut sim = build_cluster::<P>(
        &ClusterParams {
            cfg,
            cost: CostModel::calibrated(),
            clients: Clients::Open(
                OpenLoopSpec::new(workload, 100_000, 40_000.0).with_actors_per_dc(32),
            ),
            seed: 5,
        },
        SchedKind::Calendar,
    );
    sim.start();
    sim.run_until(150_000_000);
    let census = sim.heap_census();
    let live = heap().1 - before;
    // Not vacuous: thousands of PUTs installed versions.
    let versions = census.items("server", "store");
    assert!(versions > 1_000, "{versions} versions");
    (census.total(), live)
}

/// The heap census is the live heap: on a small run of each backend its
/// rows cover at least 90 % of the bytes this thread's allocator holds
/// for the cluster, and claim at most 2 % more than it holds (the
/// B-tree rows are estimates). Measured 99.6 % (Contrarian), 100.2 %
/// (CC-LO), 99.8 % (Cure) and 99.8 % (Okapi). What it misses is ≈ 1.6 KB
/// on every backend, owned by nobody the census asks (the Zipf table all
/// drivers share is among it).
#[test]
fn heap_census_covers_the_live_heap_of_every_backend() {
    for (name, (census, live)) in [
        ("contrarian", census_against_live_heap::<Contrarian>(1)),
        ("cclo", census_against_live_heap::<CcLo>(1)),
        ("cure", census_against_live_heap::<Cure>(2)),
        ("okapi", census_against_live_heap::<Okapi>(2)),
    ] {
        let covered = census as f64 / live as f64;
        println!(
            "{name}: census {census} B of {live} live B ({:.1} %)",
            covered * 100.0
        );
        assert!(
            (0.9..=1.02).contains(&covered),
            "{name}: the census counts {census} B of {live} live heap bytes"
        );
    }
}
