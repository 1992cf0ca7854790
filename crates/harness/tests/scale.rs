//! The 128-partition ceiling, exercised in tier 1: a `ClusterConfig::large`
//! cluster must run deterministically, make progress in CI-tolerable time
//! on the rebuilt engine, and have its *full* history certified by the
//! frontier-compressed causal checker — *streamed*: the history drains out
//! of the engine in slices straight into [`CausalChecker::feed`], so
//! neither the engine nor the harness ever holds the whole event `Vec`
//! (the first bite at the ROADMAP "history recording memory" item; the old
//! map-based checker needed ~41 s here, which is why this file once shrank
//! the measured window).

use contrarian_harness::experiment::{
    run_recorded, run_sim, Clients, Observe, Protocol, RunSpec, Scale,
};
use contrarian_harness::CausalChecker;
use contrarian_runtime::cost::CostModel;
use contrarian_types::{ClusterConfig, HistoryEvent};
use contrarian_workload::WorkloadSpec;
use std::time::Instant;

/// Checking a 128-partition history must stay a rounding error next to
/// running the experiment itself — generous for slow CI machines, but two
/// orders of magnitude under the old checker's cost.
const CHECK_BUDGET_MS: u128 = 2_000;

fn large_functional(protocol: Protocol, clients: u16) -> RunSpec {
    let mut cfg = RunSpec::functional(protocol);
    cfg.cluster = ClusterConfig::large();
    // Keep the store sparse in tests: lazily materialized keys mean the
    // partition count, not the key count, is what's being exercised.
    cfg.cluster.keys_per_partition = 1_000;
    // Periodic machinery at a production cadence: 128 servers ticking
    // sub-millisecond timers through the post-run drain would dominate the
    // test's wall time without exercising anything new.
    cfg.cluster.stabilization_interval_us = 10_000;
    cfg.cluster.heartbeat_interval_us = 5_000;
    cfg.clients = Clients::Closed {
        workload: WorkloadSpec::paper_default().with_rot_size(2),
        per_dc: clients,
    };
    cfg.cost = CostModel::functional();
    cfg
}

/// Runs `spec`, handing its history to `sink` slice by slice; returns
/// throughput in ops/s.
fn run_streamed(spec: &RunSpec, sink: &mut dyn FnMut(HistoryEvent)) -> f64 {
    let run = run_sim(
        spec,
        Observe {
            history: Some(sink),
            trace: false,
        },
    );
    spec.report(&run.metrics).throughput_kops()
}

/// Runs the experiment with the history streamed into the checker —
/// events are fed as run slices complete, never buffered whole — and
/// asserts the verdict plus the CI wall-time budget on the checking work.
fn run_streaming_checked(label: &str, cfg: &RunSpec) -> (u64, usize) {
    let mut checker = CausalChecker::new();
    let mut events = 0usize;
    let mut check_nanos = 0u128;
    let tput = run_streamed(cfg, &mut |ev| {
        events += 1;
        let t0 = Instant::now();
        checker.feed(&ev);
        check_nanos += t0.elapsed().as_nanos();
    });
    let t0 = Instant::now();
    let report = checker.report();
    check_nanos += t0.elapsed().as_nanos();
    assert!(report.ok(), "{label}: {:?}", report.violations.first());
    assert!(report.rots_checked > 0, "{label}: no ROTs checked");
    let check_ms = check_nanos / 1_000_000;
    assert!(
        check_ms < CHECK_BUDGET_MS,
        "{label}: checking {events} events took {check_ms} ms (budget {CHECK_BUDGET_MS} ms)"
    );
    ((tput * 1e6) as u64, events)
}

#[test]
fn contrarian_128_partitions_run_is_deterministic_and_causal() {
    let cfg = large_functional(Protocol::Contrarian, 16);
    assert_eq!(cfg.cluster.n_partitions, 128);
    // The full functional measurement window: nothing is shaved off to
    // dodge the checker anymore.
    assert_eq!(
        cfg.measure_ns,
        RunSpec::functional(Protocol::Contrarian).measure_ns
    );
    let (tput_a, events_a) = run_streaming_checked("contrarian-128", &cfg);
    assert!(
        events_a > 100,
        "too little progress at 128 partitions: {events_a} events"
    );

    // And the streamed run is the run: a buffered re-run produces the
    // same history length and throughput.
    let (b, history) = run_recorded(&cfg);
    assert_eq!(events_a, history.len(), "non-deterministic");
    assert_eq!(tput_a, (b.throughput_kops() * 1e6) as u64);
}

#[test]
fn cclo_128_partitions_makes_progress_and_stays_causal() {
    let (tput, events) = run_streaming_checked("cclo-128", &large_functional(Protocol::CcLo, 8));
    assert!(tput > 0);
    assert!(events > 50, "{events} events");
}

#[test]
fn large_scale_knobs_are_sized_for_128_partitions() {
    let s = Scale::large();
    assert!(!s.load_points.is_empty());
    assert!(s.measure_ns <= 500_000_000, "must stay CI-tolerable");
    let c = ClusterConfig::large();
    assert!(c.n_partitions >= 128);
    // Same ~32M-key data set as the paper's platform, spread wider.
    assert_eq!(
        c.n_partitions as u64 * c.keys_per_partition,
        ClusterConfig::paper_default().n_partitions as u64
            * ClusterConfig::paper_default().keys_per_partition
    );
}

#[test]
fn xlarge_scale_knobs_are_sized_for_256_partitions() {
    // The 256-partition tier the sharded engine exists for: geo-replicated
    // (so DC-granular shards are real) and short enough for bench-smoke.
    let s = Scale::xlarge();
    assert!(!s.load_points.is_empty());
    assert!(s.measure_ns <= 200_000_000, "must stay CI-tolerable");
    let c = ClusterConfig::xlarge();
    assert_eq!(c.n_partitions, 256);
    assert!(c.n_dcs >= 2);
}

#[test]
fn sharded_256_partition_run_matches_calendar_and_stays_causal() {
    // A scaled-down 256-partition, two-DC run on both engines: identical
    // histories (the tier-1 face of the golden determinism test, at the
    // scale the sharded engine targets), causally certified via the
    // streaming checker.
    use contrarian_sim::SchedKind;
    let mut cfg = large_functional(Protocol::Contrarian, 4);
    cfg.cluster = ClusterConfig::xlarge();
    cfg.cluster.keys_per_partition = 1_000;
    cfg.cluster.stabilization_interval_us = 10_000;
    cfg.cluster.heartbeat_interval_us = 5_000;
    cfg.measure_ns = 10_000_000;
    let run = |sched: SchedKind| {
        let mut c = cfg.clone();
        c.sched = sched;
        let mut events = Vec::new();
        run_streamed(&c, &mut |ev| events.push(ev));
        events
    };
    let calendar = run(SchedKind::Calendar);
    assert!(calendar.len() > 50, "{} events", calendar.len());
    let sharded = run(SchedKind::Sharded);
    assert_eq!(
        format!("{calendar:?}"),
        format!("{sharded:?}"),
        "sharded 256-partition history diverged"
    );
    let mut checker = CausalChecker::new();
    for ev in &sharded {
        checker.feed(ev);
    }
    let report = checker.report();
    assert!(report.ok(), "{:?}", report.violations.first());
}
