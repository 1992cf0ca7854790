//! Microbenchmarks of the core data structures and protocol building
//! blocks. These are the operations on every request's critical path; the
//! cost model of the simulator charges them explicitly, and these benches
//! document what they cost natively.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn bench_hlc(c: &mut Criterion) {
    let mut g = c.benchmark_group("hlc");
    g.bench_function("tick", |b| {
        let mut h = contrarian_clock::Hlc::new();
        let mut pt = 0u64;
        b.iter(|| {
            pt += 1;
            black_box(h.tick(pt))
        });
    });
    g.bench_function("update", |b| {
        let mut h = contrarian_clock::Hlc::new();
        let mut pt = 0u64;
        b.iter(|| {
            pt += 1;
            black_box(h.update(pt, contrarian_clock::hlc::encode(pt + 5, 3)))
        });
    });
    g.bench_function("advance_to", |b| {
        let mut h = contrarian_clock::Hlc::new();
        let mut t = 0u64;
        b.iter(|| {
            t += 1 << 16;
            h.advance_to(t);
            black_box(h.peek(0))
        });
    });
    g.finish();
}

fn bench_vectors(c: &mut Criterion) {
    use contrarian_types::DepVector;
    let mut g = c.benchmark_group("dep_vector");
    for m in [1usize, 2, 4, 8] {
        g.bench_with_input(BenchmarkId::new("join", m), &m, |b, &m| {
            let mut a = DepVector::zero(m);
            let other = DepVector::from_vec((0..m as u64).collect());
            b.iter(|| {
                a.join(black_box(&other));
                black_box(&a);
            });
        });
        g.bench_with_input(BenchmarkId::new("leq", m), &m, |b, &m| {
            let a = DepVector::zero(m);
            let other = DepVector::from_vec(vec![u64::MAX; m]);
            b.iter(|| black_box(a.leq(&other)));
        });
    }
    g.finish();
}

fn bench_chain(c: &mut Criterion) {
    use contrarian_storage::{Chain, Version};
    use contrarian_types::{DcId, Value, VersionId};
    let mut g = c.benchmark_group("version_chain");
    for len in [1usize, 8, 64] {
        let mut chain: Chain<u64> = Chain::new();
        for i in 0..len as u64 {
            chain.insert(Version::new(
                VersionId::new(i + 1, DcId(0)),
                Value::from_static(b"v"),
                i,
            ));
        }
        g.bench_with_input(
            BenchmarkId::new("newest_visible_head", len),
            &len,
            |b, _| {
                b.iter(|| black_box(chain.newest_visible(|_| true).0.is_some()));
            },
        );
        g.bench_with_input(
            BenchmarkId::new("newest_visible_scan_all", len),
            &len,
            |b, _| {
                b.iter(|| black_box(chain.newest_visible(|v| v.meta == 0).0.is_some()));
            },
        );
    }
    g.bench_function("insert_append", |b| {
        let mut chain: Chain<u64> = Chain::new();
        let mut ts = 0u64;
        b.iter(|| {
            ts += 1;
            chain.insert(Version::new(
                VersionId::new(ts, DcId(0)),
                Value::from_static(b"v"),
                ts,
            ));
            if chain.len() > 1024 {
                chain.gc(ts - 8, 1);
            }
        });
    });
    g.finish();
}

/// One partition's store over write-once keys — the uniform-key tier
/// (`sim_scale_okapi`), where nearly every PUT materializes a key and
/// nearly every read finds a chain of one. The parameter `n` is the number
/// of distinct keys, and one iteration is `n` operations (divide by `n`
/// for the cost of one): the shim sizes its samples from a single
/// calibration call, so a per-operation body would time only the first
/// few thousand puts of a table that is still growing. `put_distinct`
/// fills an empty store with the first version of `n` keys (static value,
/// 2-DC dependency vector) and drops it — table growth included, as for a
/// partition filling up. `read_distinct` is one snapshot read of every key
/// in an odd-stride order: a hash lookup plus the visit of the key's only
/// version.
fn bench_mv_store(c: &mut Criterion) {
    use contrarian_storage::{MvStore, Version};
    use contrarian_types::{DcId, DepVector, Key, Value, VersionId};
    let fill = |n: u64| {
        let mut store = MvStore::new();
        for k in 0..n {
            let vid = VersionId::new(k + 1, DcId(0));
            store.put(
                Key(k),
                Version::new(vid, Value::from_static(b"v"), DepVector::zero(2)),
            );
        }
        store
    };
    let mut g = c.benchmark_group("mv_store");
    for n in [4_096u64, 65_536] {
        g.bench_with_input(BenchmarkId::new("put_distinct", n), &n, |b, &n| {
            b.iter(|| black_box(fill(black_box(n)).n_keys()));
        });
        let store = fill(n);
        let sv = DepVector::from_vec(vec![u64::MAX; 2]);
        let step = (2_654_435_761 % n) | 1;
        g.bench_with_input(BenchmarkId::new("read_distinct", n), &n, |b, &n| {
            b.iter(|| {
                let (mut k, mut found) = (0u64, 0u64);
                for _ in 0..n {
                    k = (k + step) % n;
                    let (v, scanned) = store.read_visible(Key(k), |v| v.meta.leq(&sv));
                    found += (v.is_some() && scanned == 1) as u64;
                }
                black_box(found)
            });
        });
        // A uniform draw over a key space far larger than what was
        // written (Okapi's 32 M keys) almost always misses.
        g.bench_with_input(BenchmarkId::new("read_absent", n), &n, |b, &n| {
            b.iter(|| {
                let (mut k, mut found) = (0u64, 0u64);
                for _ in 0..n {
                    k = (k + step) % n;
                    let (v, _) = store.read_visible(Key(n + k), |v| v.meta.leq(&sv));
                    found += v.is_some() as u64;
                }
                black_box(found)
            });
        });
    }
    g.finish();
}

fn bench_zipf(c: &mut Criterion) {
    let mut g = c.benchmark_group("zipf");
    for (n, theta) in [(1_000_000u64, 0.99), (1_000_000, 0.8), (1_000_000, 0.0)] {
        let z = contrarian_workload::Zipf::new(n, theta);
        let mut rng = SmallRng::seed_from_u64(1);
        g.bench_with_input(
            BenchmarkId::new("sample", format!("n{n}_z{theta}")),
            &z,
            |b, z| b.iter(|| black_box(z.sample(&mut rng))),
        );
    }
    g.finish();
}

/// The engine's calendar queue in the classic *hold* model: pop the
/// earliest event, push one a service time or a network hop later. The
/// parameter is the event density per 16 µs wheel bucket — the benchmark's
/// clusters load 67 (`sim_read_contrarian`) to 300 (`sim_scale_okapi`)
/// events per bucket — and the payload brings an entry to the ~120 bytes
/// of the simulator's `EvKind<Msg>`. Hops of 40–48 µs (the calibrated
/// `rx_ns` / `hop_latency_ns`) land 2–3 buckets ahead, so one iteration is
/// a wheel push plus a pop off the loaded bucket, with a bucket load every
/// `density` iterations.
fn bench_calendar_queue(c: &mut Criterion) {
    use contrarian_sim::sched::CalendarQueue;
    const HOP_NS: u64 = 40_000;
    const JITTER_NS: u64 = 8_192;
    let mut g = c.benchmark_group("calendar_queue");
    for density in [64u64, 512] {
        let population = density * (HOP_NS + JITTER_NS / 2) / CalendarQueue::<()>::W_NS;
        let mut q: CalendarQueue<[u64; 13]> = CalendarQueue::new();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut jitter = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % JITTER_NS
        };
        let mut seq = 0u64;
        for _ in 0..population {
            seq += 1;
            q.push(jitter() * 6, seq, [seq; 13]);
        }
        g.bench_with_input(BenchmarkId::new("hold", density), &density, |b, _| {
            b.iter(|| {
                let (t, _, item) = q.pop().expect("hold keeps the population constant");
                seq += 1;
                q.push(t + HOP_NS + jitter(), seq, black_box(item));
            });
        });
    }
    g.finish();
}

/// One overdue open-loop `draw`: the shard's next exponential gap, then
/// the operation. 256 driver instances of the benchmark's 3 906 sessions
/// are visited round-robin, as the benchmark's cluster visits its 256
/// driver actors. A driver keeps no per-session state, so the session
/// count is no parameter.
fn bench_open_loop(c: &mut Criterion) {
    use contrarian_workload::{ClientDriver, OpenLoopDriver, WorkloadSpec, Zipf};
    const INSTANCES: usize = 256;
    let mut g = c.benchmark_group("open_loop");
    g.sample_size(10);
    let zipf = std::sync::Arc::new(Zipf::new(1_000, 0.99));
    let mut rng = SmallRng::seed_from_u64(13);
    let mut drivers: Vec<OpenLoopDriver> = (0..INSTANCES)
        .map(|_| {
            let gen = ClientDriver::new(WorkloadSpec::paper_default(), zipf.clone(), 32);
            let mut d = OpenLoopDriver::new(gen, 3_906, 1.0);
            let _ = d.draw(0, &mut rng); // prime
            d
        })
        .collect();
    let mut i = 0usize;
    g.bench_function("draw", |b| {
        b.iter(|| {
            i = (i + 1) % INSTANCES;
            // Permanently overdue: every draw yields an operation.
            black_box(drivers[i].draw(u64::MAX / 2, &mut rng))
        });
    });
    g.finish();
}

/// CC-LO's reader bookkeeping at the record sizes a hot key collects:
/// 256 clients (one driver pool of the benchmark's `sim_write_cclo`), ids
/// arriving in client-interleaved order, so `insert` is a mid-vector
/// insert and `query` collapses `n / 256` ROTs per client.
fn bench_reader_records(c: &mut Criterion) {
    use contrarian_cclo::records::{
        BlockRecord, CurrentReader, ReaderEntry, ReaderSet, RotFloor, Stamp,
    };
    use contrarian_types::{ClientId, DcId, TxId};
    const CLIENTS: usize = 256;
    // A sealing server that has seen none of these ROTs: the floor keeps
    // every client's newest id, so the block rows time the one-pass seal's
    // per-client collapse, its distinct count over all pairs (as for a PUT
    // whose dependencies are all remote) and the emission of every client.
    let mut floor = RotFloor::new();
    let mut g = c.benchmark_group("reader_records");
    for n in [16usize, 256, 1024, 4096] {
        let entries: Vec<ReaderEntry> = (0..n)
            .map(|i| ReaderEntry {
                tx: TxId::new(ClientId::new(DcId(0), (i % CLIENTS) as u16), i as u32),
                read_time: i as u64,
                read_version_ts: i as u64,
                inserted_at: 0,
            })
            .collect();
        let build = |entries: &[ReaderEntry]| {
            let mut set = ReaderSet::new();
            for &e in entries {
                set.insert(e);
            }
            set
        };
        g.bench_with_input(BenchmarkId::new("insert", n), &entries, |b, entries| {
            b.iter(|| black_box(build(black_box(entries)).len()));
        });
        let set = build(&entries);
        g.bench_with_input(BenchmarkId::new("query", n), &set, |b, set| {
            b.iter(|| black_box(set.query(u64::MAX, 0, u64::MAX).len()));
        });
        // Current readers (the older half) handed over to the old readers
        // (the newer half), as a PUT on the key does; the timed region
        // includes cloning both halves. The stamps count from the zero
        // epoch.
        let (cur, old) = entries.split_at(n / 2);
        let epoch = Stamp::default();
        let mut current = ReaderSet::new();
        for e in cur {
            let at = Stamp {
                ticks: e.read_time,
                ns: e.inserted_at,
            };
            current.insert(CurrentReader::new(e.tx, at, epoch).expect("a small stamp"));
        }
        let halves = (current, build(old));
        g.bench_with_input(BenchmarkId::new("absorb", n), &halves, |b, (cur, old)| {
            b.iter(|| {
                let (mut cur, mut old) = (cur.clone(), old.clone());
                old.absorb(&mut cur, n as u64, epoch);
                black_box(old.len())
            });
        });
        // The periodic sweep's usual case: everything is inside the window.
        let mut swept = set.clone();
        g.bench_function(BenchmarkId::new("gc", n), |b| {
            b.iter(|| black_box(swept.gc(0, u64::MAX)));
        });

        // One reply's worth of distinct ids, then four overlapping replies
        // (the duplication the paper measures: the same ROT id returned for
        // several dependency keys).
        let pairs = set.query(u64::MAX, 0, u64::MAX);
        g.bench_with_input(BenchmarkId::new("block_merge", n), &pairs, |b, pairs| {
            b.iter(|| black_box(BlockRecord::seal(black_box(pairs), 0, &mut floor).0.len()));
        });
        let replies: Vec<(TxId, u64)> = (0..4u64)
            .flat_map(|r| pairs.iter().map(move |&(tx, rt)| (tx, rt + r)))
            .collect();
        g.bench_with_input(BenchmarkId::new("block_seal", n), &replies, |b, replies| {
            b.iter(|| black_box(BlockRecord::seal(black_box(replies), 0, &mut floor).0.len()));
        });
        // One hit and one miss, as a ROT walking a version chain does.
        let (blk, _) = BlockRecord::seal(&replies, 0, &mut floor);
        let absent = TxId::new(ClientId::new(DcId(1), 0), 0);
        let mut i = 0;
        g.bench_function(BenchmarkId::new("block_bound", n), |b| {
            b.iter(|| {
                i = (i + 1) % pairs.len();
                black_box((blk.bound(pairs[i].0), blk.bound(absent)))
            });
        });
    }
    g.finish();
}

/// Engine throughput over a synthetic geo-replicated echo flood: trivial
/// handlers, calibrated network latencies, thousands of in-flight
/// messages spread over a ~10 ms inter-DC span — the event population
/// shape of a real protocol run. Every engine of
/// [`contrarian_sim::ENGINES`] — `calendar` and `sharded` (one shard per
/// DC, windows ≈ the inter-DC latency) — runs two tiers:
///
/// * 8/32/128 partitions × 4 DCs;
/// * 256 partitions × 2 DCs, the saturated tier (rows `*_2dc`).
///
/// All engines process the *same* events — asserted before the bench —
/// so ns/iter ratios are engine speedups; events ÷ ns/iter is engine
/// events/sec. Note the parallel win needs cores: on a single-CPU
/// machine the sharded engine degrades to serially executed windows and
/// measures only its bookkeeping overhead (the `meta` entry in the JSON
/// report records the logical-core count of the box that produced it).
fn bench_sim_scale(c: &mut Criterion) {
    use contrarian_runtime::actor::{Actor, ActorCtx, TimerKind};
    use contrarian_runtime::cost::{CostModel, MsgClass, SimMessage};
    use contrarian_sim::sched::{SchedKind, ENGINES};
    use contrarian_sim::sim::Sim;
    use contrarian_types::{Addr, DcId, Op, PartitionId};

    const HORIZON_NS: u64 = 25_000_000; // 25 virtual ms ≈ 2½ inter-DC RTTs
    const WINDOW: u32 = 48;

    #[derive(Clone)]
    struct Ball;
    impl SimMessage for Ball {
        fn wire_size(&self) -> usize {
            64
        }
        fn class(&self) -> MsgClass {
            MsgClass::Data
        }
    }

    /// Clients keep `WINDOW` echo requests in flight, round-robin over
    /// every server of every DC (like replication traffic, most messages
    /// spend ~10 ms on the inter-DC wire); servers bounce them straight
    /// back.
    struct Flood {
        dcs: u8,
        servers: u16,
        next: u32,
    }
    impl Flood {
        fn target(&mut self) -> Addr {
            let t = self.next;
            self.next = (self.next + 1) % (self.dcs as u32 * self.servers as u32);
            Addr::server(
                DcId((t / self.servers as u32) as u8),
                PartitionId((t % self.servers as u32) as u16),
            )
        }
    }
    impl Actor for Flood {
        type Msg = Ball;
        fn on_start(&mut self, ctx: &mut dyn ActorCtx<Ball>) {
            if !ctx.self_addr().is_server() {
                for _ in 0..WINDOW {
                    let to = self.target();
                    ctx.send(to, Ball);
                }
            }
        }
        fn on_message(&mut self, ctx: &mut dyn ActorCtx<Ball>, from: Addr, msg: Ball) {
            if ctx.self_addr().is_server() {
                ctx.send(from, msg);
            } else {
                let to = self.target();
                ctx.send(to, Ball);
            }
        }
        fn on_timer(&mut self, _ctx: &mut dyn ActorCtx<Ball>, _kind: TimerKind) {}
        fn inject(_op: Op) -> Ball {
            Ball
        }
    }

    let run = |dcs: u8, partitions: u16, sched: SchedKind| -> (u64, u64) {
        let mut sim: Sim<Flood> = Sim::with_scheduler(CostModel::calibrated(), 7, sched);
        for dc in 0..dcs {
            for p in 0..partitions {
                sim.add_server(
                    Addr::server(DcId(dc), PartitionId(p)),
                    Flood {
                        dcs,
                        servers: partitions,
                        next: 0,
                    },
                    16,
                );
            }
        }
        for dc in 0..dcs {
            for i in 0..partitions {
                sim.add_client(
                    Addr::client(DcId(dc), i),
                    Flood {
                        dcs,
                        servers: partitions,
                        next: i as u32 % (dcs as u32 * partitions as u32),
                    },
                );
            }
        }
        sim.start();
        sim.run_until(HORIZON_NS);
        (sim.events_processed(), sim.now())
    };
    let label = |sched: SchedKind| match sched {
        SchedKind::Calendar => "calendar",
        SchedKind::Sharded => "sharded",
    };

    // The comparison is only meaningful if every engine does identical
    // work: assert the processed-event counts match before timing. The
    // calendar run *is* the reference, so only the others re-run.
    let tiers: [(u8, &[u16]); 2] = [(4, &[8, 32, 128]), (2, &[256])];
    for (dcs, sizes) in tiers {
        for &partitions in sizes {
            let want = run(dcs, partitions, SchedKind::Calendar);
            assert!(want.0 > 0, "flood made no progress");
            for &sched in &ENGINES[1..] {
                assert_eq!(
                    run(dcs, partitions, sched),
                    want,
                    "{} diverged at N={partitions}",
                    label(sched)
                );
            }
        }
    }

    let mut g = c.benchmark_group("sim_scale");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_secs(2));
    for (dcs, sizes) in tiers {
        for &partitions in sizes {
            for sched in ENGINES {
                // The 4-DC tier keeps its historical row names; re-keying
                // the 2-DC rows avoids a duplicate BenchmarkId.
                let label = if dcs == 4 {
                    label(sched).to_string()
                } else {
                    format!("{}_2dc", label(sched))
                };
                g.bench_with_input(BenchmarkId::new(label, partitions), &partitions, |b, &p| {
                    b.iter(|| black_box(run(dcs, p, sched)))
                });
            }
        }
    }
    g.finish();
}

fn bench_checker(c: &mut Criterion) {
    // End-to-end functional run + causal check of the full history.
    use contrarian_harness::experiment::{run_recorded, Protocol, RunSpec};
    let mut g = c.benchmark_group("checker");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));
    let history = run_recorded(&RunSpec::functional(Protocol::Contrarian)).1;
    g.bench_function("check_causal", |b| {
        b.iter(|| {
            let r = contrarian_harness::check_causal(black_box(&history));
            assert!(r.ok());
            black_box(r.rots_checked)
        });
    });
    g.finish();
}

criterion_group!(
    micro,
    bench_hlc,
    bench_vectors,
    bench_chain,
    bench_mv_store,
    bench_zipf,
    bench_calendar_queue,
    bench_open_loop,
    bench_reader_records,
    bench_sim_scale,
    bench_checker
);
criterion_main!(micro);
