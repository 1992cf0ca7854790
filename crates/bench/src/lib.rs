//! Criterion benchmark crate.
//!
//! Two benchmark binaries live under `benches/`:
//!
//! * `micro` — microbenchmarks of the building blocks: HLC operations,
//!   version-chain reads, dependency-vector lattice operations, zipfian
//!   sampling, reader-record queries and block-record merges.
//! * `figures` — one benchmark group per paper table/figure, each running a
//!   scaled-down instance of the corresponding experiment end to end
//!   (deterministic simulations, so Criterion measures the simulator +
//!   protocol execution cost of regenerating the result).
//!
//! The full-size experiments (the actual figures) are regenerated by the
//! `contrarian-harness` binary's scenarios (`fig4` … `fig9`, `value_size`,
//! `theory`), not by Criterion.

/// Shared scaled-down experiment configuration used by the `figures` bench.
pub fn bench_scale() -> contrarian_harness::experiment::Scale {
    contrarian_harness::experiment::Scale {
        warmup_ns: 20_000_000,
        measure_ns: 60_000_000,
        load_points: vec![32],
        fig6_points: vec![24],
    }
}

/// A small cluster (8 partitions) keeping bench iterations fast.
pub fn bench_cluster() -> contrarian_types::ClusterConfig {
    let mut cfg = contrarian_types::ClusterConfig::paper_default().with_partitions(8);
    cfg.keys_per_partition = 10_000;
    cfg
}
