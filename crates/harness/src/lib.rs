//! The experiment harness: everything needed to regenerate the paper's
//! tables and figures, plus the causal-consistency checker and the
//! Section-6 theory harness.
//!
//! One binary per experiment lives in `src/bin/` (`fig4` … `fig9`,
//! `table1`, `table2`, `value_size`, `theory`, `all`); each prints the
//! series the paper reports and writes CSVs under `results/`.
//!
//! # Running a cluster
//!
//! Every simulated run — a figure's closed-loop point, an open-loop load
//! point, a traced run — is one [`RunSpec`] driven by one loop,
//! [`run_sim`]: warmup, the measured window in slices, stop, quiesce. The
//! caller observes it through [`Observe`] (a history sink, tracing) and
//! gets back its metrics and per-slice windows ([`SimRun`]);
//! [`RunResult`] and [`contrarian_runtime::LoadReport`] are two summaries
//! of those metrics ([`run_experiment`], [`run_recorded`],
//! [`run_load_sim`], [`run_load_sim_checked`]). [`run_net`] runs the same
//! spec over TCP on the wall clock.
//!
//! Experiment scale is controlled by the `CONTRARIAN_SCALE` environment
//! variable: `smoke` (seconds, for CI), `quick` (the default, a few
//! minutes), `paper` (longest, closest to the paper's methodology).
//!
//! # Checking histories
//!
//! Every functional run records a [`contrarian_types::HistoryEvent`] per
//! completed client operation; the checker replays that record and
//! certifies the guarantees of the paper's Section 2.2 — the causal
//! snapshot property of ROTs plus per-client session guarantees
//! (monotonic reads in the causal order, read-your-writes).
//!
//! Two entry points:
//!
//! - [`check_causal`] takes a finished history slice — the one-liner used
//!   by tests: `assert!(check_causal(&run.history).ok())`.
//! - [`CausalChecker`] is the streaming form: [`CausalChecker::feed`]
//!   events as they arrive (e.g. straight off a
//!   [`contrarian_runtime::HistorySink`]) and call
//!   [`CausalChecker::report`] once at the end. For open-ended streams
//!   (the saturation driver checks millions of operations), periodic
//!   [`CausalChecker::gc`] calls reclaim versions below the all-session
//!   minimum observed frontier, keeping resident state bounded by the
//!   *recent* window rather than the whole history.
//!
//! The checker is frontier-compressed (versions carry per-writer-session
//! high-water vectors instead of per-key past maps — see [`checker`] for
//! the representation), which is what lets tier-1 check *full*
//! 128-partition histories in well under a second. The original map-based
//! implementation survives as [`oracle::check_causal_oracle`], the
//! differential second opinion: `tests/checker_differential.rs` asserts
//! both agree on randomized multi-DC runs of every backend.

pub mod checker;
pub mod experiment;
pub mod figures;
pub mod load;
pub mod oracle;
pub mod table;
pub mod table2;
pub mod theory;

pub use checker::{check_causal, CausalChecker, CheckReport, CheckerResidency};
pub use experiment::{
    run_experiment, run_recorded, run_sim, sweep_series, Clients, Observe, Protocol, RunResult,
    RunSpec, Scale, Series, SimRun,
};
pub use load::{
    run_load_net, run_load_sim, run_load_sim_checked, run_net, sweep_to_saturation, CheckedLoad,
    NetSample, SaturationSweep,
};
