//! Criterion benchmark crate. Its benches live under `benches/`; this
//! library target exists only because cargo needs one.
//!
//! * `micro` — the building blocks: HLC operations, version-chain reads,
//!   dependency-vector lattice operations, zipfian sampling, reader-record
//!   queries, block-record merges, and the `sim_scale` engine sweep.
//! * `checker_scale` — the streaming causal checker on functional
//!   histories of 8, 32 and 128 partitions.
//! * `net_perf` — the epoll reactor's frames per second over loopback
//!   sockets.
//! * `load_perf` — one traced open-loop load point: the deterministic
//!   tracer's ring pushes and drains.
//!
//! End-to-end host cost per operation is the repo benchmark's job
//! (`benchmark/`, gated by `BENCHMARK.json`), and the paper's figures are
//! regenerated by the `contrarian-harness` binary's scenarios (`fig4` …
//! `fig9`, `value_size`, `theory`), not by Criterion.
