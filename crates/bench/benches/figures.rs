//! One Criterion group per paper table/figure: each bench runs a
//! scaled-down, deterministic instance of the corresponding experiment end
//! to end. Full-size regeneration lives in the `contrarian-harness`
//! binaries; these benches keep every experiment's machinery exercised (and
//! timed) on every `cargo bench`.

use contrarian_bench::{bench_cluster, bench_scale};
use contrarian_harness::experiment::{run_experiment, Clients, Protocol, RunSpec};
use contrarian_harness::theory;
use contrarian_workload::WorkloadSpec;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn mini_experiment(protocol: Protocol, dcs: u8, workload: WorkloadSpec) -> RunSpec {
    mini_experiment_with(protocol, dcs, workload, bench_scale().load_points[0])
}

fn mini_experiment_with(
    protocol: Protocol,
    dcs: u8,
    workload: WorkloadSpec,
    per_dc: u16,
) -> RunSpec {
    let scale = bench_scale();
    RunSpec {
        cluster: bench_cluster().with_dcs(dcs),
        clients: Clients::Closed { workload, per_dc },
        warmup_ns: scale.warmup_ns,
        measure_ns: scale.measure_ns,
        ..RunSpec::paper_default(protocol)
    }
}

fn run(cfg: &RunSpec) -> f64 {
    let r = run_experiment(cfg);
    assert!(r.throughput_kops > 0.0);
    r.throughput_kops
}

/// Figure 4: Contrarian 1½-round vs 2-round vs Cure (2 DCs).
fn bench_fig4(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig4");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));
    let wl = WorkloadSpec::paper_default();
    for p in [
        Protocol::Contrarian,
        Protocol::ContrarianTwoRound,
        Protocol::Cure,
    ] {
        let cfg = mini_experiment(p, 2, wl.clone());
        g.bench_with_input(BenchmarkId::from_parameter(p.label()), &cfg, |b, cfg| {
            b.iter(|| black_box(run(cfg)))
        });
    }
    g.finish();
}

/// Figure 5: Contrarian vs CC-LO, 1 and 2 DCs.
fn bench_fig5(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig5");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));
    let wl = WorkloadSpec::paper_default();
    for dcs in [1u8, 2] {
        for p in [Protocol::Contrarian, Protocol::CcLo] {
            let cfg = mini_experiment(p, dcs, wl.clone());
            g.bench_with_input(
                BenchmarkId::from_parameter(format!("{}_{}dc", p.label(), dcs)),
                &cfg,
                |b, cfg| b.iter(|| black_box(run(cfg))),
            );
        }
    }
    g.finish();
}

/// Figure 6: readers-check statistics collection (CC-LO).
fn bench_fig6(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig6");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));
    let cfg = mini_experiment_with(
        Protocol::CcLo,
        1,
        WorkloadSpec::paper_default(),
        bench_scale().fig6_points[0],
    );
    g.bench_function("readers_check_stats", |b| {
        b.iter(|| {
            let r = run_experiment(&cfg);
            assert!(r.counter(contrarian_cclo::stats::CHECKS) > 0);
            black_box(r.counter(contrarian_cclo::stats::CHECK_IDS_CUM))
        })
    });
    g.finish();
}

/// Figure 7: write-intensity sweep.
fn bench_fig7(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig7");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));
    for w in [0.01f64, 0.1] {
        for p in [Protocol::Contrarian, Protocol::CcLo] {
            let cfg = mini_experiment(p, 1, WorkloadSpec::paper_default().with_write_ratio(w));
            g.bench_with_input(
                BenchmarkId::from_parameter(format!("{}_w{}", p.label(), w)),
                &cfg,
                |b, cfg| b.iter(|| black_box(run(cfg))),
            );
        }
    }
    g.finish();
}

/// Figure 8: skew sweep.
fn bench_fig8(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig8");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));
    for z in [0.0f64, 0.99] {
        for p in [Protocol::Contrarian, Protocol::CcLo] {
            let cfg = mini_experiment(p, 1, WorkloadSpec::paper_default().with_zipf(z));
            g.bench_with_input(
                BenchmarkId::from_parameter(format!("{}_z{}", p.label(), z)),
                &cfg,
                |b, cfg| b.iter(|| black_box(run(cfg))),
            );
        }
    }
    g.finish();
}

/// Figure 9: ROT-size sweep.
fn bench_fig9(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig9");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));
    for rot_size in [4u16, 8] {
        for p in [Protocol::Contrarian, Protocol::CcLo] {
            let cfg = mini_experiment(p, 1, WorkloadSpec::paper_default().with_rot_size(rot_size));
            g.bench_with_input(
                BenchmarkId::from_parameter(format!("{}_p{}", p.label(), rot_size)),
                &cfg,
                |b, cfg| b.iter(|| black_box(run(cfg))),
            );
        }
    }
    g.finish();
}

/// Section 5.8: value-size sweep.
fn bench_value_size(c: &mut Criterion) {
    let mut g = c.benchmark_group("value_size");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));
    for bsize in [8usize, 2048] {
        for p in [Protocol::Contrarian, Protocol::CcLo] {
            let cfg = mini_experiment(p, 1, WorkloadSpec::paper_default().with_value_size(bsize));
            g.bench_with_input(
                BenchmarkId::from_parameter(format!("{}_b{}", p.label(), bsize)),
                &cfg,
                |b, cfg| b.iter(|| black_box(run(cfg))),
            );
        }
    }
    g.finish();
}

/// Table 2 rendering (trivial, but keeps the artifact exercised).
fn bench_table2(c: &mut Criterion) {
    c.bench_function("table2/render", |b| {
        b.iter(|| black_box(contrarian_harness::table2::render_table2().len()))
    });
}

/// Section 6: the theory harness (scenario + small distinguishability run).
fn bench_theory(c: &mut Criterion) {
    let mut g = c.benchmark_group("theory");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));
    g.bench_function("cclo_scenario", |b| {
        b.iter(|| {
            let res = theory::run_cclo_scenario(black_box(&[0, 1, 2, 3]));
            assert!(res.check().ok());
            black_box(res.transcript.len())
        })
    });
    g.bench_function("distinguishability_n4", |b| {
        b.iter(|| {
            let d = theory::distinguishability(4);
            assert_eq!(d.distinct_transcripts, 16);
            black_box(d.min_bits)
        })
    });
    g.finish();
}

/// Ablation: the dep-precise old-readers refinement (DESIGN.md §9) vs the
/// faithful general definition.
fn bench_ablation_dep_precise(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_dep_precise");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));
    for precise in [false, true] {
        let mut cfg = mini_experiment(Protocol::CcLo, 1, WorkloadSpec::paper_default());
        cfg.cluster.cclo_dep_precise_old_readers = precise;
        g.bench_with_input(
            BenchmarkId::from_parameter(if precise { "precise" } else { "general" }),
            &cfg,
            |b, cfg| b.iter(|| black_box(run(cfg))),
        );
    }
    g.finish();
}

/// Ablation: adaptive per-ROT mode (Section 5.7's proposed optimization)
/// against the fixed 1½-round and 2-round configurations, on a large-ROT
/// workload where the fan-out cost dominates.
fn bench_ablation_adaptive(c: &mut Criterion) {
    use contrarian_types::RotMode;
    let mut g = c.benchmark_group("ablation_adaptive_rot_mode");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));
    let wl = WorkloadSpec::paper_default().with_rot_size(8);
    for (label, mode) in [
        ("one_half", RotMode::OneHalfRound),
        ("two_round", RotMode::TwoRound),
        ("adaptive_at_6", RotMode::Adaptive { two_round_at: 6 }),
    ] {
        let mut cfg = mini_experiment(Protocol::Contrarian, 1, wl.clone());
        cfg.cluster.rot_mode = mode;
        g.bench_with_input(BenchmarkId::from_parameter(label), &cfg, |b, cfg| {
            b.iter(|| black_box(run(cfg)))
        });
    }
    g.finish();
}

/// Ablation: stabilization topology (star vs all-to-all).
fn bench_ablation_stabilization(c: &mut Criterion) {
    use contrarian_types::StabilizationTopology;
    let mut g = c.benchmark_group("ablation_stabilization");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));
    for topo in [StabilizationTopology::Star, StabilizationTopology::AllToAll] {
        let mut cfg = mini_experiment(Protocol::Contrarian, 2, WorkloadSpec::paper_default());
        cfg.cluster.stab_topology = topo;
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{topo:?}")),
            &cfg,
            |b, cfg| b.iter(|| black_box(run(cfg))),
        );
    }
    g.finish();
}

criterion_group!(
    figures,
    bench_fig4,
    bench_fig5,
    bench_fig6,
    bench_fig7,
    bench_fig8,
    bench_fig9,
    bench_value_size,
    bench_table2,
    bench_theory,
    bench_ablation_dep_precise,
    bench_ablation_adaptive,
    bench_ablation_stabilization
);
criterion_main!(figures);
