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
//! Runners exist for all three runtimes: [`run_load_sim`] (virtual time,
//! any engine), [`run_load_live`] (threaded transport, wall clock) and
//! [`run_load_net`] (TCP reactor). Recorded
//! runs stream the history into the causal checker with periodic
//! [`CausalChecker::gc`] passes, so checking is O(recent window), not
//! O(history) ([`run_load_sim_checked`]).

use crate::checker::{CausalChecker, CheckReport, CheckerResidency};
use crate::experiment::{with_protocol, Protocol};
use contrarian_runtime::cost::CostModel;
use contrarian_runtime::metrics::LoadReport;
use contrarian_runtime::window::WindowSeries;
use contrarian_sim::{Lookahead, SchedKind};
use contrarian_types::{ClusterConfig, HistoryEvent, TraceEvent};
use contrarian_workload::OpenLoopSpec;
use std::time::Duration;

/// Full description of one open-loop load point.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    pub protocol: Protocol,
    pub cluster: ClusterConfig,
    /// Session population, offered rate and driver-actor pool.
    pub spec: OpenLoopSpec,
    pub warmup_ns: u64,
    pub measure_ns: u64,
    pub seed: u64,
    pub cost: CostModel,
    /// Engine mode for [`run_load_sim`]; wall-clock runners ignore it.
    pub sched: SchedKind,
    /// How the sharded engine derives its conservative bounds (default:
    /// the per-link matrix).
    pub lookahead: Lookahead,
}

impl LoadConfig {
    /// A small-cluster configuration for CI smoke and functional tests.
    pub fn functional(protocol: Protocol, offered_ops_per_sec: f64) -> Self {
        LoadConfig {
            protocol,
            cluster: ClusterConfig::small(),
            spec: OpenLoopSpec::new(
                contrarian_workload::WorkloadSpec::paper_default(),
                100_000,
                offered_ops_per_sec,
            ),
            warmup_ns: 50_000_000,
            measure_ns: 200_000_000,
            seed: 42,
            cost: CostModel::calibrated(),
            sched: SchedKind::from_env(),
            lookahead: Lookahead::default(),
        }
    }

    /// Same point at a different offered rate (sweep step).
    pub fn with_offered(&self, offered_ops_per_sec: f64) -> Self {
        let mut cfg = self.clone();
        cfg.spec = cfg.spec.with_offered(offered_ops_per_sec);
        cfg
    }

    /// Total driver actors — the checker's session count.
    pub fn total_actors(&self) -> usize {
        self.cluster.n_dcs as usize * self.spec.actors_per_dc as usize
    }

    fn params(&self) -> contrarian_protocol::OpenLoopParams {
        contrarian_protocol::OpenLoopParams {
            cfg: self.protocol.cluster(&self.cluster),
            cost: self.cost.clone(),
            spec: self.spec.clone(),
            seed: self.seed,
        }
    }

    /// Server nodes in the cluster (per-node utilization divisor).
    pub fn n_servers(&self) -> usize {
        self.cluster.n_servers()
    }
}

/// How many slices the measured window is drained in when streaming (same
/// rationale as the closed-loop harness: bounded history buffers).
const STREAM_SLICES: u64 = 8;

/// Runs one simulated open-loop load point, streaming recorded history to
/// `sink` (pass `record: false`-style `None` by using [`run_load_sim`]).
/// Deterministic given seed and engine; the engines are bit-identical, so
/// `sched` only changes wall time, never the report.
pub fn run_load_sim_streamed(
    cfg: &LoadConfig,
    record: bool,
    sink: &mut dyn FnMut(HistoryEvent),
) -> LoadReport {
    macro_rules! drive {
        ($sim:expr) => {{
            let mut sim = $sim;
            sim.set_recording(record);
            sim.set_lookahead(cfg.lookahead.clone());
            sim.start();
            sim.run_until(cfg.warmup_ns);
            for ev in sim.drain_history() {
                sink(ev);
            }
            sim.metrics_mut().enabled = true;
            let end = cfg.warmup_ns + cfg.measure_ns;
            let slice = (cfg.measure_ns / STREAM_SLICES).max(1);
            let mut t = cfg.warmup_ns;
            while t < end {
                t = (t + slice).min(end);
                sim.run_until(t);
                for ev in sim.drain_history() {
                    sink(ev);
                }
            }
            sim.metrics_mut().enabled = false;
            // Stop the arrival schedule and let in-flight work finish so
            // recorded histories are complete.
            sim.set_stopped(true);
            sim.run_to_quiescence(end + 5_000_000_000);
            for ev in sim.drain_history() {
                sink(ev);
            }
            LoadReport::from_metrics(sim.metrics(), cfg.spec.offered_ops_per_sec, cfg.measure_ns)
                .normalize_utilization(cfg.n_servers())
        }};
    }

    let p = cfg.params();
    with_protocol!(cfg.protocol, |P| drive!(
        contrarian_protocol::build_openloop_cluster_with::<P>(&p, cfg.sched)
    ))
}

/// Runs one simulated open-loop load point without recording.
pub fn run_load_sim(cfg: &LoadConfig) -> LoadReport {
    run_load_sim_streamed(cfg, false, &mut |_| {})
}

/// One load point with its per-window time series and (optionally) the
/// merged deterministic trace attached.
#[derive(Debug)]
pub struct LoadTelemetry {
    pub report: LoadReport,
    /// One [`contrarian_runtime::window::MetricsWindow`] per stream slice
    /// of the measured interval.
    pub windows: WindowSeries,
    /// Canonical `(t, node, seq)`-ordered trace of the measured interval
    /// (empty unless `tracing` was requested). Identical across engines.
    pub trace: Vec<TraceEvent>,
}

/// Runs one simulated open-loop load point with the time-series snapshotter
/// armed at every stream-slice boundary, and — when `tracing` — the
/// deterministic tracer enabled for the measured interval.
pub fn run_load_sim_telemetry(cfg: &LoadConfig, tracing: bool) -> LoadTelemetry {
    macro_rules! drive {
        ($sim:expr) => {{
            let mut sim = $sim;
            sim.set_tracing(tracing);
            sim.set_lookahead(cfg.lookahead.clone());
            sim.start();
            sim.run_until(cfg.warmup_ns);
            if tracing {
                // Warmup events are not part of the telemetry.
                sim.drain_trace();
            }
            sim.metrics_mut().enabled = true;
            let mut windows = WindowSeries::new();
            windows.origin(sim.metrics(), cfg.warmup_ns);
            let mut trace: Vec<TraceEvent> = Vec::new();
            let end = cfg.warmup_ns + cfg.measure_ns;
            let slice = (cfg.measure_ns / STREAM_SLICES).max(1);
            let mut t = cfg.warmup_ns;
            while t < end {
                t = (t + slice).min(end);
                sim.run_until(t);
                windows.snap(sim.metrics(), t);
                if tracing {
                    // Per-slice drains keep ring drops low; drains at fixed
                    // virtual times concatenate canonically (like history).
                    trace.extend(sim.drain_trace());
                }
            }
            sim.metrics_mut().enabled = false;
            sim.set_stopped(true);
            sim.run_to_quiescence(end + 5_000_000_000);
            if tracing {
                trace.extend(sim.drain_trace());
            }
            let report = LoadReport::from_metrics(
                sim.metrics(),
                cfg.spec.offered_ops_per_sec,
                cfg.measure_ns,
            )
            .normalize_utilization(cfg.n_servers());
            LoadTelemetry {
                report,
                windows,
                trace,
            }
        }};
    }

    let p = cfg.params();
    with_protocol!(cfg.protocol, |P| drive!(
        contrarian_protocol::build_openloop_cluster_with::<P>(&p, cfg.sched)
    ))
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
/// checker attached: every event is fed, and a [`CausalChecker::gc`] pass
/// runs every [`GC_EVERY_EVENTS`] events (guarded on the full driver-actor
/// population having appeared), so the history is verified end to end with
/// resident state bounded by the recent window.
pub fn run_load_sim_checked(cfg: &LoadConfig) -> CheckedLoad {
    let mut ck = CausalChecker::new();
    let min_sessions = cfg.total_actors();
    let mut events = 0usize;
    let mut since_gc = 0usize;
    let mut peak = CheckerResidency::default();
    let report = run_load_sim_streamed(cfg, true, &mut |ev| {
        ck.feed(&ev);
        events += 1;
        since_gc += 1;
        if since_gc >= GC_EVERY_EVENTS {
            since_gc = 0;
            let before = ck.residency();
            peak.live_versions = peak.live_versions.max(before.live_versions);
            peak.meta_slots = peak.meta_slots.max(before.meta_slots);
            peak.write_recs = peak.write_recs.max(before.write_recs);
            ck.gc(min_sessions);
        }
    });
    let before = ck.residency();
    peak.live_versions = peak.live_versions.max(before.live_versions);
    peak.meta_slots = peak.meta_slots.max(before.meta_slots);
    peak.write_recs = peak.write_recs.max(before.write_recs);
    let final_residency = ck.gc(min_sessions);
    peak.reclaimed_total = final_residency.reclaimed_total;
    CheckedLoad {
        report,
        check: ck.report(),
        peak_residency: peak,
        final_residency,
        events,
    }
}

/// Drives one wall-clock cluster through warmup / measure / drain windows
/// and summarizes the metrics. Shared by the live and net runners.
macro_rules! drive_wall {
    ($cluster:expr, $cfg:expr) => {{
        let cluster = $cluster;
        std::thread::sleep(Duration::from_nanos($cfg.warmup_ns));
        cluster.set_measuring(true);
        std::thread::sleep(Duration::from_nanos($cfg.measure_ns));
        cluster.set_measuring(false);
        cluster.stop_issuing();
        // Grace window for in-flight operations (unmeasured).
        std::thread::sleep(Duration::from_millis(150));
        let (_, metrics, _) = cluster.shutdown();
        LoadReport::from_metrics(&metrics, $cfg.spec.offered_ops_per_sec, $cfg.measure_ns)
    }};
}

/// Runs one open-loop load point on the threaded live transport
/// (wall-clock windows; `recording` off — the sink lock would sit on the
/// measured path).
pub fn run_load_live(cfg: &LoadConfig) -> LoadReport {
    with_protocol!(cfg.protocol, |P| drive_wall!(
        contrarian_protocol::build_openloop_live_cluster::<P>(
            &cfg.protocol.cluster(&cfg.cluster),
            &cfg.spec,
            cfg.seed,
            false,
        ),
        cfg
    ))
}

/// Runs one open-loop load point on the TCP reactor (wall-clock windows,
/// loopback sockets, recording off).
pub fn run_load_net(cfg: &LoadConfig) -> LoadReport {
    with_protocol!(cfg.protocol, |P| drive_wall!(
        contrarian_protocol::build_openloop_net_cluster::<P>(
            &cfg.protocol.cluster(&cfg.cluster),
            &cfg.spec,
            cfg.seed,
            false,
        ),
        cfg
    ))
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
/// `run` — pass a closure over [`run_load_sim`], [`run_load_net`], … so
/// one sweep driver serves every runtime.
pub fn sweep_to_saturation(
    base: &LoadConfig,
    start_rate: f64,
    factor: f64,
    max_points: usize,
    mut run: impl FnMut(&LoadConfig) -> LoadReport,
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

    #[test]
    fn functional_sim_point_reports_goodput() {
        let cfg = LoadConfig::functional(Protocol::Contrarian, 5_000.0);
        let r = run_load_sim(&cfg);
        assert!(r.completed_ops > 0);
        assert!(r.achieved_ops_per_sec > 0.0);
        assert!(!r.saturated, "5 Kops/s must be far below capacity: {r:?}");
        assert!(r.p999_ms >= r.p99_ms && r.p99_ms >= r.p50_ms);
    }

    #[test]
    fn sim_load_point_is_deterministic() {
        let cfg = LoadConfig::functional(Protocol::CcLo, 4_000.0);
        let a = run_load_sim(&cfg);
        let b = run_load_sim(&cfg);
        assert_eq!(a.completed_ops, b.completed_ops);
        assert_eq!(a.p99_ms, b.p99_ms);
    }

    #[test]
    fn telemetry_point_produces_windows_and_trace() {
        let cfg = LoadConfig::functional(Protocol::Contrarian, 5_000.0);
        let t = run_load_sim_telemetry(&cfg, true);
        assert_eq!(t.windows.windows().len(), STREAM_SLICES as usize);
        assert!(t.report.completed_ops > 0);
        let windowed_ops: u64 = t
            .windows
            .windows()
            .iter()
            .map(|w| w.rots_done + w.puts_done)
            .sum();
        assert_eq!(
            windowed_ops, t.report.completed_ops,
            "window deltas partition the measured completions"
        );
        assert!(!t.trace.is_empty());
        assert!(
            t.trace.windows(2).all(|w| w[0].key() < w[1].key()),
            "canonical trace order"
        );
        assert!(
            t.report.utilization > 0.0 && t.report.utilization < 1.0,
            "per-server utilization at 5 Kops/s: {}",
            t.report.utilization
        );
    }

    #[test]
    fn telemetry_without_tracing_keeps_trace_empty() {
        let cfg = LoadConfig::functional(Protocol::Cure, 3_000.0);
        let t = run_load_sim_telemetry(&cfg, false);
        assert!(t.trace.is_empty());
        assert_eq!(t.windows.windows().len(), STREAM_SLICES as usize);
    }

    #[test]
    fn sweep_stops_at_first_saturated_point() {
        // Base rate is a placeholder: the sweep sets each point's rate.
        let base = LoadConfig::functional(Protocol::Contrarian, 1.0);
        let mut rates = Vec::new();
        let sweep = sweep_to_saturation(&base, 1_000.0, 2.0, 10, |cfg| {
            rates.push(cfg.spec.offered_ops_per_sec);
            // Fake runner: capacity 3.5k ops/s.
            let achieved = cfg.spec.offered_ops_per_sec.min(3_500.0);
            LoadReport {
                offered_ops_per_sec: cfg.spec.offered_ops_per_sec,
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
                    < contrarian_runtime::metrics::SATURATION_GOODPUT_FRACTION
                        * cfg.spec.offered_ops_per_sec,
            }
        });
        assert_eq!(rates, vec![1_000.0, 2_000.0, 4_000.0]);
        assert!(sweep.saturated());
        let knee = sweep.knee().expect("2k point was unsaturated");
        assert_eq!(knee.offered_ops_per_sec, 2_000.0);
    }
}
