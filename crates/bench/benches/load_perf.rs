//! load_perf — one open-loop load point with the deterministic tracer on.
//!
//! `telemetry_traced/contrarian` runs Contrarian on the small functional
//! cluster (100 K logical sessions, 6 Kops/s offered, 150 ms of measured
//! virtual time) with every node's trace ring recording: the per-event
//! ring pushes and the merge-and-drain at the end. One iteration is the
//! full simulated run, so mean ns/iter tracks events processed, not
//! latency quality.
//!
//! Every repo-benchmark workload runs with tracing off (`benchmark/`,
//! `cpu_us_per_op`), so this row is the one place the tracer's *on* cost
//! is timed.

use contrarian_harness::experiment::{run_sim, Observe, Protocol, RunSpec};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_traced_point(c: &mut Criterion) {
    let mut g = c.benchmark_group("load_perf");
    g.sample_size(10);
    g.bench_function("telemetry_traced/contrarian", |b| {
        let mut conf = RunSpec::functional_open(Protocol::Contrarian, 6_000.0);
        conf.warmup_ns = 50_000_000;
        conf.measure_ns = 150_000_000;
        b.iter(|| {
            let run = run_sim(
                &conf,
                Observe {
                    trace: true,
                    ..Observe::default()
                },
            );
            assert!(!run.trace.is_empty());
            run.metrics.ops_done()
        });
    });
    g.finish();
}

criterion_group!(benches, bench_traced_point);
criterion_main!(benches);
