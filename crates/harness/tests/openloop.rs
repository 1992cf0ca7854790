//! The open-loop driver, end to end: cross-engine determinism of the
//! arrival schedule, coordinated-omission-safe latency under overload,
//! and bounded checker residency on recorded open-loop histories.

use contrarian_harness::checker::{CausalChecker, CheckerResidency};
use contrarian_harness::experiment::{run, run_sim, Clients, Observe, Protocol, Report, RunSpec};
use contrarian_harness::load::run_load_sim_checked;
use contrarian_sim::{Lookahead, SchedKind};
use contrarian_types::HistoryEvent;
use contrarian_workload::{ClientDriver, Draw, OpenLoopDriver, OpenLoopSpec, WorkloadSpec, Zipf};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A three-DC open-loop point small enough for tier-1 but big enough that
/// the sharded engine has real cross-DC traffic.
fn cross_dc_config(offered: f64) -> RunSpec {
    let spec = RunSpec::functional_open(Protocol::Contrarian, offered);
    RunSpec {
        cluster: spec.cluster.clone().with_dcs(3),
        clients: Clients::Open(
            OpenLoopSpec::new(WorkloadSpec::paper_default(), 30_000, offered).with_actors_per_dc(3),
        ),
        ..spec
    }
}

/// Runs `spec` recorded, handing every history event to `sink`.
fn run_recorded_into(spec: &RunSpec, sink: &mut dyn FnMut(HistoryEvent)) -> Report {
    let run = run_sim(
        spec,
        Observe {
            history: Some(sink),
            trace: false,
        },
    );
    spec.report(&run.metrics)
}

/// Same seed ⇒ byte-identical open-loop history and identical load report
/// on every engine: the Poisson calendar must not leak engine order.
#[test]
fn open_loop_engines_replay_identical_histories() {
    let mut cfg = cross_dc_config(6_000.0);
    let mut reference = None;
    for (sched, lookahead) in [
        (SchedKind::Calendar, Lookahead::Matrix),
        (SchedKind::Heap, Lookahead::Matrix),
        (
            SchedKind::Sharded {
                shards: 3,
                groups: 1,
            },
            Lookahead::Scalar,
        ),
        // Sub-DC groups under the per-link matrix: 3 DCs × 2 groups.
        (SchedKind::sharded(2), Lookahead::Matrix),
    ] {
        cfg.sched = sched;
        cfg.lookahead = lookahead.clone();
        let mut history = Vec::new();
        let report = run_recorded_into(&cfg, &mut |ev| history.push(ev));
        let fp = (
            history.len(),
            fnv1a(format!("{history:?}").as_bytes()),
            report.completed_ops,
            report.p99_ms.to_bits(),
            report.p999_ms.to_bits(),
        );
        match &reference {
            None => reference = Some(fp),
            Some(r) => assert_eq!(
                &fp, r,
                "{sched:?}/{lookahead:?} diverged from the calendar engine"
            ),
        }
    }
    let (events, _, completed, _, _) = reference.unwrap();
    assert!(events > 500, "run too small to be meaningful: {events}");
    assert!(completed > 0);
}

/// The latency clocks start at *scheduled* arrival time, so overload must
/// surface as queueing delay in the percentiles — the signature that
/// coordinated omission is absent. A closed-loop pool at the same
/// capacity would keep p99 near the service latency while silently
/// issuing fewer ops; the open-loop driver instead shows the backlog.
#[test]
fn overload_latency_includes_queueing_delay() {
    // Far below the small-cluster capacity (~20 Kops/s virtual). A long
    // enough window that Poisson arrival noise cannot fake a goodput
    // shortfall (expected ops ≫ the 5% saturation margin).
    let mut low_cfg = cross_dc_config(2_000.0);
    low_cfg.measure_ns = 1_500_000_000;
    let low = run(&low_cfg);
    assert!(!low.saturated, "2 Kops/s must not saturate: {low:?}");

    // Far above capacity: arrivals keep coming, the calendar backs up.
    let over = run(&cross_dc_config(200_000.0));
    assert!(over.saturated, "200 Kops/s must saturate: {over:?}");
    assert!(
        over.achieved_ops_per_sec < 0.95 * over.offered_ops_per_sec,
        "goodput must collapse under overload: {over:?}"
    );
    // The backlog grows for the whole window, so even the *median*
    // intended-to-completion latency dwarfs the unloaded tail.
    assert!(
        over.p50_ms > 10.0 * low.p99_ms,
        "overload p50 ({:.3} ms) must dwarf low-load p99 ({:.3} ms)",
        over.p50_ms,
        low.p99_ms
    );
    assert!(
        over.p999_ms >= over.p50_ms && over.p999_ms > 50.0 * low.p999_ms,
        "overload p999 ({:.3} ms) must show queueing, low-load p999 was {:.3} ms",
        over.p999_ms,
        low.p999_ms
    );
}

/// Streamed open-loop histories stay causal, and periodic gc keeps the
/// checker's resident state bounded by the recent window rather than the
/// full history.
#[test]
fn checked_open_loop_run_is_causal_with_bounded_residency() {
    let mut cfg = cross_dc_config(15_000.0);
    cfg.measure_ns = 1_500_000_000;

    // Manual streaming with a tight gc cadence so the bound is exercised
    // many times within a tier-1 run.
    let mut ck = CausalChecker::new();
    let min_sessions = cfg.total_clients();
    let mut versions_total = 0usize;
    let mut since = 0usize;
    let mut peak = CheckerResidency::default();
    run_recorded_into(&cfg, &mut |ev| {
        if matches!(ev, HistoryEvent::PutDone { .. }) {
            versions_total += 1;
        }
        ck.feed(&ev);
        since += 1;
        if since >= 2_000 {
            since = 0;
            let r = ck.residency();
            peak.live_versions = peak.live_versions.max(r.live_versions);
            ck.gc(min_sessions);
        }
    });
    let end = ck.gc(min_sessions);
    assert!(
        versions_total > 2_000,
        "need a meaningful version count, got {versions_total}"
    );
    assert!(
        end.reclaimed_total > (versions_total as u64) / 2,
        "gc must reclaim most of the history: {end:?} of {versions_total}"
    );
    assert!(
        peak.live_versions < versions_total / 2,
        "peak residency {peak:?} must stay well below total versions {versions_total}"
    );
    let report = ck.report();
    assert!(report.ok(), "violations: {:?}", report.violations);

    // And the packaged checked runner agrees end to end.
    let checked = run_load_sim_checked(&cross_dc_config(8_000.0));
    assert!(checked.check.ok(), "{:?}", checked.check.violations);
    assert!(checked.events > 0);
}

/// All four backends run open-loop on the simulator and make progress at
/// a modest offered rate.
#[test]
fn all_backends_run_open_loop() {
    for protocol in [
        Protocol::Contrarian,
        Protocol::CcLo,
        Protocol::Cure,
        Protocol::Okapi,
    ] {
        let r = run(&RunSpec::functional_open(protocol, 3_000.0));
        assert!(
            r.completed_ops > 0,
            "{} made no progress: {r:?}",
            protocol.label()
        );
    }
}

fn driver(sessions: u32, rate: f64) -> OpenLoopDriver {
    let wl = WorkloadSpec::paper_default();
    let zipf = Arc::new(Zipf::new(64, wl.zipf_theta));
    OpenLoopDriver::new(ClientDriver::new(wl, zipf, 4), sessions, rate)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Same (sessions, rate, seed) ⇒ the same arrival schedule and the
    /// same operations, draw for draw, regardless of how far `now` has
    /// advanced between draws.
    #[test]
    fn arrival_schedule_is_deterministic(
        sessions in 1u32..400,
        rate in 1.0f64..1e6,
        seed in 0u64..u64::MAX,
        step in 1u64..2_000_000,
    ) {
        let mut a = driver(sessions, rate);
        let mut b = driver(sessions, rate);
        let mut rng_a = SmallRng::seed_from_u64(seed);
        let mut rng_b = SmallRng::seed_from_u64(seed);
        let mut now = 0u64;
        let mut last_intended = 0u64;
        for _ in 0..200 {
            let da = a.draw(now, &mut rng_a);
            let db = b.draw(now, &mut rng_b);
            prop_assert_eq!(format!("{da:?}"), format!("{db:?}"));
            match da {
                Draw::Op { intended, .. } => {
                    // Arrivals come off the calendar in order, never from
                    // the future.
                    prop_assert!(intended <= now);
                    prop_assert!(intended >= last_intended);
                    last_intended = intended;
                }
                Draw::Wait { due } => {
                    // The named wake-up is genuinely in the future; jump
                    // to it (plus a step) and the next draw must fire.
                    prop_assert!(due > now);
                    now = due;
                    continue;
                }
                Draw::Idle => prop_assert!(false, "populated driver went idle"),
            }
            now += step;
        }
    }
}
