//! Checker throughput at cluster scale: the frontier-compressed streaming
//! checker vs the map-based oracle it replaced, on functional histories of
//! 8, 32 and 128 partitions.
//!
//! The oracle materializes per-version causal pasts as per-key maps, so
//! its cost grows with `versions × distinct keys` — at 128 partitions it
//! is the piece that used to keep tier-1 from checking full histories.
//! The frontier checker must beat it by ≥10× events/sec on the
//! 128-partition history (tracked in `BENCH_pr4.json`); in practice the
//! gap is orders of magnitude.
//!
//! The measurement window is kept shorter than the tier-1 scale tests so
//! the *oracle* finishes a sample in CI-tolerable time; the partition
//! count (i.e. the distinct-key spread that hurts the oracle) is the same.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use contrarian_harness::check_causal;
use contrarian_harness::experiment::{run_recorded, Clients, Protocol, RunSpec};
use contrarian_harness::oracle::check_causal_oracle;
use contrarian_runtime::cost::CostModel;
use contrarian_types::{ClusterConfig, HistoryEvent};
use contrarian_workload::WorkloadSpec;

/// A functional run at `partitions` partitions, mirroring the tier-1 scale
/// test's cluster shape (sparse store, production timer cadence).
fn history_at(partitions: u16) -> Vec<HistoryEvent> {
    let mut cfg = RunSpec::functional(Protocol::Contrarian);
    cfg.cluster = ClusterConfig::large();
    cfg.cluster.n_partitions = partitions;
    cfg.cluster.keys_per_partition = 1_000;
    cfg.cluster.stabilization_interval_us = 10_000;
    cfg.cluster.heartbeat_interval_us = 5_000;
    cfg.clients = Clients::Closed {
        workload: WorkloadSpec::paper_default().with_rot_size(2),
        per_dc: 16,
    };
    cfg.measure_ns = 15_000_000;
    cfg.cost = CostModel::functional();
    run_recorded(&cfg).history
}

fn bench_checker_scale(c: &mut Criterion) {
    let mut g = c.benchmark_group("checker_scale");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(200));
    g.measurement_time(std::time::Duration::from_secs(3));
    for partitions in [8u16, 32, 128] {
        let history = history_at(partitions);
        eprintln!(
            "checker_scale: {partitions} partitions -> {} events",
            history.len()
        );
        g.bench_with_input(
            BenchmarkId::new("frontier", partitions),
            &history,
            |b, h| {
                b.iter(|| {
                    let r = check_causal(black_box(h));
                    assert!(r.ok());
                    black_box(r.rots_checked)
                })
            },
        );
        g.bench_with_input(BenchmarkId::new("map", partitions), &history, |b, h| {
            b.iter(|| {
                let r = check_causal_oracle(black_box(h));
                assert!(r.ok());
                black_box(r.rots_checked)
            })
        });
    }
    g.finish();
}

criterion_group!(checker_scale, bench_checker_scale);
criterion_main!(checker_scale);
