//! Timed calls into single layers on inputs derived from the workload:
//! the key stream its generator draws, the reader population its rate
//! implies, the latency range it produces.

use crate::fields::{put, Fields};
use crate::workloads::Workload;
use contrarian_cclo::{ReaderEntry, ReaderSet};
use contrarian_runtime::metrics::Histogram;
use contrarian_storage::{MvStore, Version};
use contrarian_types::{ClientId, DcId, Key, Op, TxId, Value, VersionId};
use contrarian_workload::{ClientDriver, Zipf};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Operations drawn before timing starts, so hot chains exist.
const PREFILL_OPS: usize = 200_000;
/// Operations in the timed stream.
const TIMED_OPS: usize = 400_000;
/// Operations per timed batch: reads and writes of a batch are timed as
/// two runs, so the clock is read twice per few hundred calls.
const BATCH_OPS: usize = 256;

struct Stores {
    parts: Vec<MvStore<u64>>,
    n_partitions: u16,
    seq: u64,
}

impl Stores {
    fn put(&mut self, key: Key) {
        self.seq += 1;
        let v = Version::new(
            VersionId::new(self.seq, DcId(0)),
            Value::from_static(b"8 bytes!"),
            self.seq,
        );
        self.parts[key.partition(self.n_partitions).0 as usize].put(key, v);
    }
}

/// One DC's partition stores under the workload's own key stream.
fn storage(w: &Workload, seed: u64, out: &mut Fields) {
    let zipf = Arc::new(Zipf::new(w.keys_per_partition, w.zipf_theta));
    let mut gen = ClientDriver::new(w.mix(), zipf, w.n_partitions);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x570E);
    let mut stores = Stores {
        parts: (0..w.n_partitions).map(|_| MvStore::new()).collect(),
        n_partitions: w.n_partitions,
        seq: 0,
    };
    for _ in 0..PREFILL_OPS {
        if let Op::Put(key, _) = gen.next_op(&mut rng) {
            stores.put(key);
        }
    }
    // A read sees versions up to a snapshot that trails the newest write
    // by what one DC writes in a 5 ms stabilization interval at `mid`.
    let put_rate = w.mix().put_probability() * w.mid_rate / w.n_dcs as f64;
    let lag = (put_rate * 0.005) as u64;

    let (mut read_ns, mut put_ns) = (0u128, 0u128);
    let (mut reads, mut puts, mut scanned) = (0u64, 0u64, 0u64);
    let mut read_keys: Vec<Key> = Vec::new();
    let mut put_keys: Vec<Key> = Vec::new();
    for _ in 0..TIMED_OPS / BATCH_OPS {
        read_keys.clear();
        put_keys.clear();
        for _ in 0..BATCH_OPS {
            match gen.next_op(&mut rng) {
                Op::Rot(keys) => read_keys.extend(keys),
                Op::Put(key, _) => put_keys.push(key),
            }
        }
        let snapshot = stores.seq.saturating_sub(lag);
        let t0 = Instant::now();
        for &key in &read_keys {
            let store = &stores.parts[key.partition(w.n_partitions).0 as usize];
            let (v, n) = store.read_visible(key, |v| v.meta <= snapshot);
            black_box(v);
            scanned += n as u64;
        }
        let t1 = Instant::now();
        for &key in &put_keys {
            stores.put(key);
        }
        let t2 = Instant::now();
        read_ns += (t1 - t0).as_nanos();
        put_ns += (t2 - t1).as_nanos();
        reads += read_keys.len() as u64;
        puts += put_keys.len() as u64;
    }
    put(
        out,
        [
            ("storage_read_ns", read_ns as f64 / reads.max(1) as f64),
            ("storage_put_ns", put_ns as f64 / puts.max(1) as f64),
            (
                "storage_versions_scanned_per_read",
                scanned as f64 / reads.max(1) as f64,
            ),
        ],
    );
}

/// The readers check's inner call, on the reader population the hottest
/// key of a partition collects over the 500 ms record lifetime at `mid`.
fn records_query(w: &Workload, out: &mut Fields) {
    const GC_NS: u64 = 500_000_000;
    const QUERIES: u32 = 2_000;
    let mix = w.mix();
    let key_reads_per_s = (1.0 - mix.put_probability()) * w.mid_rate / w.n_dcs as f64
        * mix.rot_size as f64
        / w.n_partitions as f64
        * Zipf::new(w.keys_per_partition, w.zipf_theta).prob(0);
    let readers = ((key_reads_per_s * GC_NS as f64 / 1e9) as u64).max(1);
    let mut set = ReaderSet::new();
    for i in 0..readers {
        set.insert(ReaderEntry {
            tx: TxId::new(
                ClientId::new(DcId(0), (i % w.drivers_per_dc as u64) as u16),
                i as u32,
            ),
            read_time: i,
            read_version_ts: i / 2,
            inserted_at: i * GC_NS / readers,
        });
    }
    let t0 = Instant::now();
    for _ in 0..QUERIES {
        black_box(set.query(black_box(readers), GC_NS, GC_NS));
    }
    let ns = t0.elapsed().as_nanos() as f64 / QUERIES as f64;
    put(out, [("cclo_records_query_ns", ns)]);
}

/// `Histogram::record` over latencies in the range the workloads produce.
fn hist_record(out: &mut Fields) {
    const RECORDS: u64 = 4_000_000;
    let mut h = Histogram::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let t0 = Instant::now();
    for _ in 0..RECORDS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        h.record(200_000 + (x & 0xF_FFFF));
    }
    let ns = t0.elapsed().as_nanos() as f64 / RECORDS as f64;
    black_box(h.count());
    put(out, [("runtime_hist_record_ns", ns)]);
}

pub fn layers(w: &Workload, seed: u64) -> Fields {
    let mut out = Fields::new();
    storage(w, seed, &mut out);
    records_query(w, &mut out);
    hist_record(&mut out);
    out
}
