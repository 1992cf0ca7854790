//! Open-loop load points: throughput against coordinated-omission-safe
//! latency, driven by the million-session Poisson arrival schedule.
//!
//! The figure experiments are *closed-loop*: a client waits for its
//! previous operation, so under overload the pool slows down and never
//! shows the queueing a real user population would suffer (coordinated
//! omission). Here arrivals follow a deterministic Poisson schedule over
//! millions of logical sessions multiplexed onto a bounded driver-actor
//! pool ([`contrarian_workload::OpenLoopDriver`]); the offered rate does
//! not bend when the system slows, and latency clocks start at the
//! *scheduled* arrival, so driver queueing is part of every percentile of
//! the [`Report`]. A point is *saturated* when goodput falls below
//! [`Report::SATURATION_GOODPUT_FRACTION`] of the offered rate by more
//! than the spread of the window's Poisson arrival count, and a
//! [`crate::sweep`] up a geometric offered-rate axis with
//! `until = |r| r.saturated` finds the knee ([`crate::Series::knee`]).
//!
//! A load point is a [`RunSpec`] with open-loop clients, run on the
//! simulator ([`crate::run`]) or over TCP on the reactor ([`run_net`]).
//! [`run_load_sim_checked`] streams its history into the causal checker
//! with periodic [`CausalChecker::gc`] passes, so checking is O(recent
//! window), not O(history).

use crate::checker::{CausalChecker, CheckReport, CheckerResidency};
use crate::experiment::{run_sim, with_protocol, Observe, Protocol, Report, RunSpec};
use contrarian_net::NetCluster;
use contrarian_protocol::{build_nodes, ProtocolSpec};
use std::time::{Duration, Instant};

/// A recorded load point that was checked as it streamed.
#[derive(Debug)]
pub struct CheckedLoad {
    pub report: Report,
    pub check: CheckReport,
    /// Largest resident checker state seen at any gc boundary — the bound
    /// the gc actually achieved.
    pub peak_residency: CheckerResidency,
    /// Resident state after the final gc pass.
    pub final_residency: CheckerResidency,
    pub events: usize,
}

/// Feed-then-gc cadence for [`run_load_sim_checked`]: one gc pass per this
/// many fed events keeps residency bounded by the inter-gc window.
const GC_EVERY_EVENTS: usize = 100_000;

/// Runs one recorded simulated load point with the streaming causal
/// checker as its history sink: every event is fed, and a
/// [`CausalChecker::gc`] pass runs every `GC_EVERY_EVENTS` events
/// (guarded on the full driver-actor population having appeared), so the
/// history is verified end to end with resident state bounded by the
/// recent window.
pub fn run_load_sim_checked(spec: &RunSpec) -> CheckedLoad {
    let mut ck = CausalChecker::new();
    let min_sessions = spec.total_clients();
    let mut events = 0usize;
    let mut peak = CheckerResidency::default();
    // Raises `peak` to what the checker holds, then reclaims.
    let gc = |ck: &mut CausalChecker, peak: &mut CheckerResidency| {
        let r = ck.residency();
        peak.live_versions = peak.live_versions.max(r.live_versions);
        peak.meta_slots = peak.meta_slots.max(r.meta_slots);
        peak.write_recs = peak.write_recs.max(r.write_recs);
        ck.gc(min_sessions)
    };
    let run = run_sim(
        spec,
        Observe {
            history: Some(&mut |ev| {
                ck.feed(&ev);
                events += 1;
                if events.is_multiple_of(GC_EVERY_EVENTS) {
                    gc(&mut ck, &mut peak);
                }
            }),
            trace: false,
        },
    );
    let final_residency = gc(&mut ck, &mut peak);
    peak.reclaimed_total = final_residency.reclaimed_total;
    CheckedLoad {
        report: spec.report(&run.metrics),
        check: ck.report(),
        peak_residency: peak,
        final_residency,
        events,
    }
}

/// The socket counters of a TCP run at one point of its measured window.
#[derive(Clone, Copy, Debug)]
pub struct NetSample {
    /// Wall time since the measured window opened.
    pub elapsed: Duration,
    /// Frames and bytes written to sockets since the cluster started.
    pub frames: u64,
    pub bytes: u64,
    /// Socket endpoints established so far.
    pub sockets: u64,
}

/// Runs `spec` on the TCP reactor over loopback sockets: a wall-clock
/// warmup, the measured window in `slices` equal sleeps, then an unmeasured
/// 150 ms grace for in-flight operations. `sample` sees the socket counters
/// when the window opens and after every slice. Recording stays off: the
/// history sink's lock would sit on the measured path. Returns the report
/// of the window's merged metrics.
pub fn run_net(spec: &RunSpec, slices: u32, sample: &mut dyn FnMut(NetSample)) -> Report {
    with_protocol!(spec.protocol, |P| drive_net::<P>(spec, slices, sample))
}

fn drive_net<P: ProtocolSpec>(
    spec: &RunSpec,
    slices: u32,
    sample: &mut dyn FnMut(NetSample),
) -> Report {
    let p = spec.cluster_params();
    let cluster = NetCluster::start(build_nodes::<P>(&p.cfg, &p.clients, p.seed), false, p.seed);
    std::thread::sleep(Duration::from_nanos(spec.warmup_ns));
    cluster.set_measuring(true);
    let t0 = Instant::now();
    let mut take_sample = || {
        let (frames, bytes) = cluster.wire_stats();
        sample(NetSample {
            elapsed: t0.elapsed(),
            frames,
            bytes,
            sockets: cluster.io_stats().sockets,
        });
    };
    take_sample();
    for _ in 0..slices {
        std::thread::sleep(Duration::from_nanos(spec.measure_ns) / slices);
        take_sample();
    }
    cluster.set_measuring(false);
    cluster.stop_issuing();
    std::thread::sleep(Duration::from_millis(150));
    spec.report(&cluster.shutdown().1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run, STREAM_SLICES};

    #[test]
    fn functional_sim_point_reports_goodput() {
        let r = run(&RunSpec::functional_open(Protocol::Contrarian, 5_000.0));
        assert!(r.completed_ops > 0);
        assert!(r.achieved_ops_per_sec > 0.0);
        assert!(!r.saturated, "5 Kops/s must be far below capacity: {r:?}");
        assert!(r.p999_ms >= r.p99_ms && r.p99_ms >= r.p50_ms);
    }

    #[test]
    fn sim_load_point_is_deterministic() {
        let spec = RunSpec::functional_open(Protocol::CcLo, 4_000.0);
        let a = run(&spec);
        let b = run(&spec);
        assert_eq!(a.completed_ops, b.completed_ops);
        assert_eq!(a.p99_ms, b.p99_ms);
    }

    #[test]
    fn telemetry_point_produces_windows_and_trace() {
        let spec = RunSpec::functional_open(Protocol::Contrarian, 5_000.0);
        let run = run_sim(
            &spec,
            Observe {
                trace: true,
                ..Observe::default()
            },
        );
        let report = spec.report(&run.metrics);
        assert_eq!(run.windows.windows().len(), STREAM_SLICES as usize);
        assert!(report.completed_ops > 0);
        let windowed_ops: u64 = run
            .windows
            .windows()
            .iter()
            .map(|w| w.rots_done + w.puts_done)
            .sum();
        assert_eq!(
            windowed_ops, report.completed_ops,
            "window deltas partition the measured completions"
        );
        assert!(!run.trace.is_empty());
        assert!(
            run.trace.windows(2).all(|w| w[0].key() < w[1].key()),
            "canonical trace order"
        );
        assert!(
            report.utilization > 0.0 && report.utilization < 1.0,
            "per-server utilization at 5 Kops/s: {}",
            report.utilization
        );
    }

    #[test]
    fn telemetry_without_tracing_keeps_trace_empty() {
        let run = run_sim(
            &RunSpec::functional_open(Protocol::Cure, 3_000.0),
            Observe::default(),
        );
        assert!(run.trace.is_empty());
        assert_eq!(run.windows.windows().len(), STREAM_SLICES as usize);
    }

    /// CC-LO over TCP at the smoke sweep's first point (800 ops/s, seed
    /// 42): its driver actors draw 509 arrivals in the 0.7 s window, 2.2
    /// standard deviations under the 560 offered, because its session
    /// draws no random number per operation and the snapshot sessions
    /// draw a coordinator. Every operation must still complete: every
    /// driver actor keeps completing operations to the end of the run,
    /// none holds one in flight or backlogged at shutdown, and the point
    /// does not read as saturated.
    #[test]
    fn every_cclo_operation_offered_over_tcp_completes() {
        use contrarian_runtime::Actor;
        use contrarian_types::{ClusterConfig, HeapCensus, HistoryEvent};
        use contrarian_workload::{OpenLoopSpec, WorkloadSpec};
        use std::collections::BTreeMap;

        let open = OpenLoopSpec::new(WorkloadSpec::paper_default(), 1_000_000, 800.0);
        let spec = RunSpec {
            cluster: ClusterConfig::small(),
            clients: crate::experiment::Clients::Open(open),
            warmup_ns: 300_000_000,
            measure_ns: 700_000_000,
            ..RunSpec::functional_open(Protocol::CcLo, 800.0)
        };
        let p = spec.cluster_params();
        let nodes = build_nodes::<contrarian_cclo::CcLo>(&p.cfg, &p.clients, p.seed);
        let cluster = NetCluster::start(nodes, true, p.seed);
        std::thread::sleep(Duration::from_nanos(spec.warmup_ns));
        cluster.set_measuring(true);
        std::thread::sleep(Duration::from_nanos(spec.measure_ns));
        cluster.set_measuring(false);
        cluster.stop_issuing();
        std::thread::sleep(Duration::from_millis(300));
        let (actors, metrics, history) = cluster.shutdown();

        let report = spec.report(&metrics);
        assert!(!report.saturated, "{report}");
        let mut last_end: BTreeMap<_, u64> = BTreeMap::new();
        for ev in &history {
            let (client, t_end) = match ev {
                HistoryEvent::RotDone { client, t_end, .. }
                | HistoryEvent::PutDone { client, t_end, .. } => (*client, *t_end),
            };
            let last = last_end.entry(client).or_default();
            *last = (*last).max(t_end);
        }
        let clients: Vec<_> = actors.iter().filter(|(a, _)| !a.is_server()).collect();
        assert_eq!(
            last_end.len(),
            clients.len(),
            "every driver actor completed operations"
        );
        for (client, &t) in &last_end {
            // 100 arrivals a second each: a working actor completes one in
            // the last 200 ms before issuing stops, at ~1 s.
            assert!(
                t > 800_000_000,
                "{client:?} last completed an operation at {t} ns"
            );
        }
        for (addr, node) in clients {
            let mut census = HeapCensus::new();
            census.set_class("client");
            node.heap_census(&mut census);
            assert_eq!(
                census.items("client", "operations"),
                0,
                "{addr} holds an operation"
            );
        }
    }
}
