//! The experiment harness: everything needed to regenerate the paper's
//! tables and figures, plus the causal-consistency checker and the
//! Section-6 theory harness.
//!
//! One binary, `contrarian-harness`, runs them: its subcommands are the
//! rows of [`scenarios::SCENARIOS`], each printing the series the paper
//! reports and writing CSVs under `results/`.
//!
//! # Running a cluster
//!
//! Every simulated run — a figure's closed-loop point, an open-loop load
//! point, a traced run — is one [`RunSpec`] driven by one loop,
//! [`run_sim`]: warmup, the measured window in slices, stop, quiesce. The
//! caller observes it through [`Observe`] (a history sink, tracing) and
//! gets back its metrics and per-slice windows ([`SimRun`]). One
//! [`Report`] summarizes any run ([`RunSpec::report`]); [`run`],
//! [`run_recorded`] and [`run_load_sim_checked`] return one for the
//! simulator, [`run_net`] for the same spec over TCP on the wall clock.
//! One [`sweep`] repeats a run along an axis — client counts for a figure
//! curve, offered rates up to the saturation knee — into a [`Series`].
//!
//! Experiment scale is controlled by the `CONTRARIAN_SCALE` environment
//! variable: `smoke` (seconds, for CI), `quick` (the default, a few
//! minutes), `paper` (longest, closest to the paper's methodology), and
//! the partition tiers `large` and `xlarge`; any other value is an error.
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
//! implementation survives in the test tree (`tests/oracle/mod.rs`) as
//! the differential second opinion: `tests/checker_differential.rs`
//! asserts both agree on randomized multi-DC runs of every backend.

pub mod census;
pub mod checker;
pub mod experiment;
pub mod load;
pub mod scenarios;
pub mod table;
pub mod table2;
pub mod theory;

pub use checker::{check_causal, CausalChecker, CheckReport, CheckerResidency};
pub use experiment::{
    run, run_recorded, run_sim, sweep, Clients, Observe, Protocol, Report, RunSpec, Scale, Series,
    SimRun,
};
pub use load::{run_load_sim_checked, run_net, CheckedLoad, NetSample};
