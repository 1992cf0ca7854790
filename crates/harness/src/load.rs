//! Open-loop saturation experiments: throughput-vs-latency sweeps driven
//! by the million-session Poisson arrival schedule.
//!
//! The figure experiments ([`crate::experiment`]) are *closed-loop*: a
//! fixed client pool where each client waits for its previous operation —
//! under overload the pool slows down and, by construction, never shows
//! the queueing delay a real user population would suffer (coordinated
//! omission). This module is the *open-loop* counterpart the paper's
//! latency argument actually calls for:
//!
//! * arrivals follow a deterministic Poisson schedule over millions of
//!   logical sessions ([`contrarian_workload::OpenLoopDriver`]),
//!   multiplexed onto a bounded pool of driver actors;
//! * the offered rate does not bend when the system slows — overdue
//!   arrivals queue in the driver;
//! * latency clocks start at the *scheduled* arrival time, so driver
//!   queueing is part of every percentile
//!   ([`contrarian_runtime::LoadReport`]);
//! * a load point is *saturated* when goodput falls below
//!   [`contrarian_runtime::metrics::SATURATION_GOODPUT_FRACTION`] of the
//!   offered rate; [`sweep_to_saturation`] ramps the offered rate until it
//!   finds that knee.
//!
//! A load point is a [`RunSpec`] with open-loop clients. It runs on the
//! simulator through the one run loop, [`crate::experiment::run_sim`]
//! ([`run_load_sim`] summarizes it), or over TCP on the reactor through
//! the one wall-clock loop, [`run_net`] ([`run_load_net`]). Recorded runs stream the history into
//! the causal checker with periodic [`CausalChecker::gc`] passes, so
//! checking is O(recent window), not O(history)
//! ([`run_load_sim_checked`]).

use crate::checker::{CausalChecker, CheckReport, CheckerResidency};
use crate::experiment::{run_sim, with_protocol, Observe, Protocol, RunSpec};
use contrarian_net::NetCluster;
use contrarian_protocol::{build_nodes, ProtocolSpec};
use contrarian_runtime::metrics::{LoadReport, Metrics};
use std::time::{Duration, Instant};

/// Runs one simulated open-loop load point without recording.
pub fn run_load_sim(spec: &RunSpec) -> LoadReport {
    spec.load_report(&run_sim(spec, Observe::default()).metrics)
}

/// A recorded load point that was checked as it streamed.
#[derive(Debug)]
pub struct CheckedLoad {
    pub report: LoadReport,
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
/// [`CausalChecker::gc`] pass runs every [`GC_EVERY_EVENTS`] events
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
        report: spec.load_report(&run.metrics),
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
/// history sink's lock would sit on the measured path. Returns the merged
/// metrics of the window.
pub fn run_net(spec: &RunSpec, slices: u32, sample: &mut dyn FnMut(NetSample)) -> Metrics {
    with_protocol!(spec.protocol, |P| drive_net::<P>(spec, slices, sample))
}

fn drive_net<P: ProtocolSpec>(
    spec: &RunSpec,
    slices: u32,
    sample: &mut dyn FnMut(NetSample),
) -> Metrics {
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
    cluster.shutdown().1
}

/// Runs one open-loop load point on the TCP reactor (see [`run_net`]).
pub fn run_load_net(spec: &RunSpec) -> LoadReport {
    spec.load_report(&run_net(spec, 1, &mut |_| {}))
}

/// One backend's offered-rate ramp, ending at (or past) its saturation
/// knee.
#[derive(Debug)]
pub struct SaturationSweep {
    pub protocol: Protocol,
    pub points: Vec<LoadReport>,
}

impl SaturationSweep {
    /// The saturation knee: the last load point the backend kept up with.
    /// `None` when even the first point saturated.
    pub fn knee(&self) -> Option<&LoadReport> {
        self.points.iter().rev().find(|p| !p.saturated)
    }

    /// Did the ramp actually cross into saturation?
    pub fn saturated(&self) -> bool {
        self.points.last().is_some_and(|p| p.saturated)
    }
}

/// Ramps the offered rate geometrically (`start_rate`, then `× factor`)
/// until a point saturates or `max_points` is hit, running each point with
/// `run` — pass [`run_load_sim`] or [`run_load_net`], so one sweep driver
/// serves both runtimes.
pub fn sweep_to_saturation(
    base: &RunSpec,
    start_rate: f64,
    factor: f64,
    max_points: usize,
    mut run: impl FnMut(&RunSpec) -> LoadReport,
) -> SaturationSweep {
    assert!(start_rate > 0.0 && factor > 1.0 && max_points > 0);
    let mut points = Vec::new();
    let mut rate = start_rate;
    for _ in 0..max_points {
        let report = run(&base.with_offered(rate));
        let stop = report.saturated;
        points.push(report);
        if stop {
            break;
        }
        rate *= factor;
    }
    SaturationSweep {
        protocol: base.protocol,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::STREAM_SLICES;

    #[test]
    fn functional_sim_point_reports_goodput() {
        let r = run_load_sim(&RunSpec::functional_open(Protocol::Contrarian, 5_000.0));
        assert!(r.completed_ops > 0);
        assert!(r.achieved_ops_per_sec > 0.0);
        assert!(!r.saturated, "5 Kops/s must be far below capacity: {r:?}");
        assert!(r.p999_ms >= r.p99_ms && r.p99_ms >= r.p50_ms);
    }

    #[test]
    fn sim_load_point_is_deterministic() {
        let spec = RunSpec::functional_open(Protocol::CcLo, 4_000.0);
        let a = run_load_sim(&spec);
        let b = run_load_sim(&spec);
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
        let report = spec.load_report(&run.metrics);
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

    #[test]
    fn sweep_stops_at_first_saturated_point() {
        // Base rate is a placeholder: the sweep sets each point's rate.
        let base = RunSpec::functional_open(Protocol::Contrarian, 1.0);
        let mut rates = Vec::new();
        let sweep = sweep_to_saturation(&base, 1_000.0, 2.0, 10, |spec| {
            let offered = spec.offered_ops_per_sec();
            rates.push(offered);
            // Fake runner: capacity 3.5k ops/s.
            let achieved = offered.min(3_500.0);
            LoadReport {
                offered_ops_per_sec: offered,
                achieved_ops_per_sec: achieved,
                completed_ops: achieved as u64,
                mean_ms: 1.0,
                p50_ms: 1.0,
                p99_ms: 2.0,
                p999_ms: 3.0,
                max_ms: 4.0,
                utilization: 0.0,
                vis_p50_ms: 0.0,
                vis_p99_ms: 0.0,
                saturated: achieved
                    < contrarian_runtime::metrics::SATURATION_GOODPUT_FRACTION * offered,
            }
        });
        assert_eq!(rates, vec![1_000.0, 2_000.0, 4_000.0]);
        assert!(sweep.saturated());
        let knee = sweep.knee().expect("2k point was unsaturated");
        assert_eq!(knee.offered_ops_per_sec, 2_000.0);
    }
}
