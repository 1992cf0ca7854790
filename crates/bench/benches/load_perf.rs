//! load_perf — the open-loop saturation driver under the profiler.
//!
//! Two questions, both about driver cost rather than protocol quality:
//!
//! * `point/<backend>` — one fixed open-loop load point per backend
//!   (small cluster, 100 K logical sessions, 6 Kops/s offered, 150 ms of
//!   measured virtual time). One iteration is the full simulated run:
//!   Poisson calendar pops, Zipf draws, coordinated-omission latency
//!   recording, and the backend's message churn. Comparing backends here
//!   shows the *driver overhead spread* — the Poisson/Zipf machinery is
//!   identical, so differences are protocol message volume.
//! * `overload/contrarian` — the same point offered 200 Kops/s, 10×
//!   past the small-cluster knee. The arrival calendar backs up and
//!   every completion records a large intended-to-completion latency;
//!   this is the worst case for the driver (maximum queue depth,
//!   maximum histogram traffic) and guards the knee-finding sweep's
//!   wall-clock cost.
//! * `checked/contrarian` — the load point re-run with history
//!   recording on and the streaming causal checker + periodic gc
//!   attached; the delta over `point/contrarian` is the price of
//!   verifying a history at rate.
//! * `telemetry_traced/contrarian` — the load point with the deterministic
//!   tracer on. Every run snapshots its per-slice metrics windows, so
//!   `point/contrarian` already carries the windowing and the
//!   always-present `ctx.tracing()` flag checks; this row adds the
//!   per-event ring pushes and drains.
//!
//! Offered rates are virtual-time rates; one iteration's wall time is
//! dominated by simulator event count, so mean ns/iter tracks events
//! processed, not latency quality.

use contrarian_harness::experiment::{run_sim, Observe, Protocol, RunSpec};
use contrarian_harness::load::{run_load_sim, run_load_sim_checked};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn cfg(protocol: Protocol, offered: f64) -> RunSpec {
    let mut c = RunSpec::functional_open(protocol, offered);
    c.warmup_ns = 50_000_000;
    c.measure_ns = 150_000_000;
    c
}

fn bench_points(c: &mut Criterion) {
    let mut g = c.benchmark_group("load_perf");
    g.sample_size(10);
    for protocol in [
        Protocol::Contrarian,
        Protocol::CcLo,
        Protocol::Cure,
        Protocol::Okapi,
    ] {
        g.bench_with_input(
            BenchmarkId::new("point", protocol.label()),
            &protocol,
            |b, &p| {
                let conf = cfg(p, 6_000.0);
                b.iter(|| {
                    let r = run_load_sim(&conf);
                    assert!(r.completed_ops > 0);
                    r.completed_ops
                });
            },
        );
    }
    g.bench_function("overload/contrarian", |b| {
        let conf = cfg(Protocol::Contrarian, 200_000.0);
        b.iter(|| {
            let r = run_load_sim(&conf);
            assert!(r.saturated, "200 Kops/s must saturate the small cluster");
            r.completed_ops
        });
    });
    g.bench_function("checked/contrarian", |b| {
        let conf = cfg(Protocol::Contrarian, 6_000.0);
        b.iter(|| {
            let r = run_load_sim_checked(&conf);
            assert!(r.check.ok());
            r.events
        });
    });
    g.bench_function("telemetry_traced/contrarian", |b| {
        let conf = cfg(Protocol::Contrarian, 6_000.0);
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

criterion_group!(benches, bench_points);
criterion_main!(benches);
