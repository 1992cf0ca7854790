//! Running one measured experiment (one protocol, one cluster, one load):
//! the [`RunSpec`] every run is described by, [`run_sim`], the one loop
//! that drives it on the simulator, the [`Report`] that summarizes any run,
//! and [`sweep`], the one driver that repeats a run along an axis.

pub use contrarian_protocol::Clients;
use contrarian_protocol::{build_cluster, ClusterParams, ProtoNode, ProtocolSpec};
use contrarian_runtime::cost::CostModel;
use contrarian_runtime::metrics::Metrics;
use contrarian_runtime::window::WindowSeries;
use contrarian_sim::sim::Sim;
use contrarian_sim::{SchedKind, WindowStats};
use contrarian_types::{ClusterConfig, HistoryEvent, RotMode, TraceEvent};
use contrarian_workload::{OpenLoopSpec, WorkloadSpec};
use std::collections::BTreeMap;
use std::fmt;

/// Which of the four systems to run (Contrarian in either ROT mode).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Protocol {
    /// Contrarian, 1½-round ROTs (the default configuration).
    Contrarian,
    /// Contrarian, 2-round ROTs (Figure 4's throughput-oriented variant).
    ContrarianTwoRound,
    /// CC-LO: the COPS-SNOW latency-optimal design.
    CcLo,
    /// Cure: blocking two-round design on physical clocks.
    Cure,
    /// Okapi-style: HLC timestamps, scalar universal-stable-time snapshots.
    Okapi,
}

impl Protocol {
    /// Every system × ROT mode the harness can run.
    pub const ALL: [Protocol; 5] = [
        Protocol::Contrarian,
        Protocol::ContrarianTwoRound,
        Protocol::CcLo,
        Protocol::Cure,
        Protocol::Okapi,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Protocol::Contrarian => "Contrarian",
            Protocol::ContrarianTwoRound => "Contrarian-2R",
            Protocol::CcLo => "CC-LO",
            Protocol::Cure => "Cure",
            Protocol::Okapi => "Okapi",
        }
    }

    /// `base` as this system runs it: Contrarian's two variants pin their
    /// ROT mode; the other backends' specs normalize the mode themselves.
    pub fn cluster(self, base: &ClusterConfig) -> ClusterConfig {
        match self {
            Protocol::Contrarian => base.clone().with_rot_mode(RotMode::OneHalfRound),
            Protocol::ContrarianTwoRound => base.clone().with_rot_mode(RotMode::TwoRound),
            Protocol::CcLo | Protocol::Cure | Protocol::Okapi => base.clone(),
        }
    }
}

/// Evaluates `$body` with `$P` naming the [`Protocol`]'s backend spec — the
/// one place a `Protocol` value turns into a `ProtocolSpec` type.
macro_rules! with_protocol {
    ($protocol:expr, |$P:ident| $body:expr) => {
        match $protocol {
            Protocol::Contrarian | Protocol::ContrarianTwoRound => {
                type $P = contrarian_core::Contrarian;
                $body
            }
            Protocol::CcLo => {
                type $P = contrarian_cclo::CcLo;
                $body
            }
            Protocol::Cure => {
                type $P = contrarian_cure::Cure;
                $body
            }
            Protocol::Okapi => {
                type $P = contrarian_okapi::Okapi;
                $body
            }
        }
    };
}
pub(crate) use with_protocol;

/// Experiment scale knobs (see crate docs).
#[derive(Clone, Debug)]
pub struct Scale {
    pub warmup_ns: u64,
    pub measure_ns: u64,
    /// Client counts per DC for load sweeps.
    pub load_points: Vec<u16>,
    /// Client counts for the Figure 6 sweep.
    pub fig6_points: Vec<u16>,
}

impl Scale {
    pub fn smoke() -> Self {
        Scale {
            warmup_ns: 60_000_000,
            measure_ns: 150_000_000,
            load_points: vec![8, 64, 192],
            fig6_points: vec![10, 60],
        }
    }

    pub fn quick() -> Self {
        Scale {
            warmup_ns: 200_000_000,
            measure_ns: 600_000_000,
            load_points: vec![4, 16, 48, 96, 160, 256, 384],
            fig6_points: vec![10, 120, 360, 560],
        }
    }

    pub fn paper() -> Self {
        Scale {
            warmup_ns: 500_000_000,
            measure_ns: 2_000_000_000,
            load_points: vec![4, 16, 48, 96, 160, 224, 288, 384, 512],
            fig6_points: vec![10, 60, 120, 240, 360, 480, 560],
        }
    }

    /// Production-scale sweeps: load points sized for a 128-partition
    /// cluster (`ClusterConfig::large`), windows kept short enough that a
    /// full sweep stays CI-tolerable on the calendar-queue engine.
    pub fn large() -> Self {
        Scale {
            warmup_ns: 100_000_000,
            measure_ns: 300_000_000,
            load_points: vec![64, 256, 512],
            fig6_points: vec![60],
        }
    }

    /// The 256-partition tier (`ClusterConfig::xlarge`): a two-DC,
    /// 512-server cluster is ~4× the event volume of `large` per load
    /// point, so the sweep keeps a single saturating load point and a
    /// short window — its job is demonstrating the sharded engine's
    /// ceiling inside CI's bench-smoke budget, not tracing a full curve.
    pub fn xlarge() -> Self {
        Scale {
            warmup_ns: 50_000_000,
            measure_ns: 150_000_000,
            load_points: vec![128],
            fig6_points: vec![60],
        }
    }

    /// The environment variable the harness binary reads its scale from,
    /// the workspace's one knob.
    pub const ENV: &'static str = "CONTRARIAN_SCALE";

    /// The values `CONTRARIAN_SCALE` accepts.
    pub const NAMES: [&'static str; 5] = ["smoke", "quick", "paper", "large", "xlarge"];

    /// Checks a `CONTRARIAN_SCALE` value; an unknown one is an error that
    /// names every valid value.
    pub fn check(value: &str) -> Result<&'static str, String> {
        Self::NAMES
            .into_iter()
            .find(|name| *name == value)
            .ok_or_else(|| {
                format!(
                    "CONTRARIAN_SCALE must be one of {} (or unset), got `{value}`",
                    Self::NAMES.join(", ")
                )
            })
    }

    /// Parses a `CONTRARIAN_SCALE` value: unset is [`Scale::quick`], an
    /// unknown value is an error (see [`Scale::check`]).
    pub fn parse(value: Option<&str>) -> Result<Self, String> {
        Ok(match Self::check(value.unwrap_or("quick"))? {
            "smoke" => Scale::smoke(),
            "paper" => Scale::paper(),
            "large" => Scale::large(),
            "xlarge" => Scale::xlarge(),
            _ => Scale::quick(),
        })
    }
}

/// Full description of one simulated run: which system, on which cluster,
/// driven by which clients, for how long. The closed-loop figure runs and
/// the open-loop load points are both a `RunSpec`; only `clients` differs.
#[derive(Clone, Debug)]
pub struct RunSpec {
    pub protocol: Protocol,
    pub cluster: ClusterConfig,
    /// Closed-loop clients or open-loop driver actors.
    pub clients: Clients,
    pub warmup_ns: u64,
    pub measure_ns: u64,
    pub seed: u64,
    pub cost: CostModel,
    /// Engine: the constructors take the default (sharded); it is the
    /// tests' engine selector — the cross-engine determinism tests set
    /// each of `contrarian_sim::ENGINES` per run. Wall-clock runs ignore
    /// it.
    pub sched: SchedKind,
}

impl RunSpec {
    /// The paper's default workload on the paper's default platform.
    pub fn paper_default(protocol: Protocol) -> Self {
        Self::closed(
            protocol,
            ClusterConfig::paper_default(),
            WorkloadSpec::paper_default(),
        )
    }

    /// The paper's run defaults on `cluster`, with 64 closed-loop clients
    /// per DC issuing `workload` (a load curve sets the count per point).
    pub fn closed(protocol: Protocol, cluster: ClusterConfig, workload: WorkloadSpec) -> Self {
        RunSpec {
            protocol,
            cluster,
            clients: Clients::Closed {
                workload,
                per_dc: 64,
            },
            warmup_ns: 200_000_000,
            measure_ns: 600_000_000,
            seed: 42,
            cost: CostModel::calibrated(),
            sched: SchedKind::default(),
        }
    }

    /// A tiny closed-loop configuration for checker-driven tests.
    pub fn functional(protocol: Protocol) -> Self {
        RunSpec {
            protocol,
            cluster: ClusterConfig::small(),
            clients: Clients::Closed {
                workload: WorkloadSpec::paper_default().with_rot_size(2),
                per_dc: 4,
            },
            warmup_ns: 0,
            measure_ns: 30_000_000,
            seed: 7,
            cost: CostModel::functional(),
            sched: SchedKind::default(),
        }
    }

    /// A small-cluster open-loop point for CI smoke and functional tests:
    /// 100 K sessions offering `offered_ops_per_sec` in all.
    pub fn functional_open(protocol: Protocol, offered_ops_per_sec: f64) -> Self {
        RunSpec {
            clients: Clients::Open(OpenLoopSpec::new(
                WorkloadSpec::paper_default(),
                100_000,
                offered_ops_per_sec,
            )),
            warmup_ns: 50_000_000,
            measure_ns: 200_000_000,
            seed: 42,
            cost: CostModel::calibrated(),
            ..Self::functional(protocol)
        }
    }

    /// The same open-loop point at a different offered rate (sweep step).
    pub fn with_offered(&self, offered_ops_per_sec: f64) -> Self {
        let mut spec = self.clone();
        match &mut spec.clients {
            Clients::Open(open) => *open = open.clone().with_offered(offered_ops_per_sec),
            other => panic!("an offered rate needs open-loop clients, not {other:?}"),
        }
        spec
    }

    /// The same closed-loop spec with `per_dc` clients per DC (sweep step).
    pub fn with_clients_per_dc(&self, per_dc: u16) -> Self {
        let mut spec = self.clone();
        match &mut spec.clients {
            Clients::Closed { per_dc: n, .. } => *n = per_dc,
            other => panic!("a client count needs closed-loop clients, not {other:?}"),
        }
        spec
    }

    /// The open-loop offered rate; closed-loop clients offer none (0).
    pub fn offered_ops_per_sec(&self) -> f64 {
        match &self.clients {
            Clients::Open(open) => open.offered_ops_per_sec,
            _ => 0.0,
        }
    }

    /// Client sessions across the cluster — the checker's session count.
    pub fn total_clients(&self) -> usize {
        let (dcs, per_dc) = self.clients.layout(self.cluster.n_dcs);
        usize::from(dcs) * usize::from(per_dc)
    }

    /// The cluster this spec stands up, with the protocol's ROT mode set.
    pub(crate) fn cluster_params(&self) -> ClusterParams {
        ClusterParams {
            cfg: self.protocol.cluster(&self.cluster),
            cost: self.cost,
            clients: self.clients.clone(),
            seed: self.seed,
        }
    }

    /// Summarizes the measured window's metrics of a run of this spec.
    ///
    /// Degenerate inputs are explicit, not accidental: a zero window
    /// yields no goodput, no utilization and `saturated = false` (there
    /// was no window to fall behind in), and closed-loop clients, which
    /// offer no rate, never saturate.
    pub fn report(&self, m: &Metrics) -> Report {
        let ms = |ns: u64| ns as f64 / 1e6;
        let mut all = m.rot_latency.clone();
        all.merge(&m.put_latency);
        let window_ns = self.measure_ns as f64;
        let secs = window_ns / 1e9;
        let achieved = if secs > 0.0 {
            m.ops_done() as f64 / secs
        } else {
            0.0
        };
        // Aggregate busy time per second of window: "busy cores".
        let busy_cores = if secs > 0.0 {
            m.busy_ns as f64 / window_ns
        } else {
            0.0
        };
        let offered = self.offered_ops_per_sec();
        Report {
            protocol: self.protocol,
            clients_per_dc: self.clients.layout(self.cluster.n_dcs).1,
            offered_ops_per_sec: offered,
            achieved_ops_per_sec: achieved,
            completed_ops: m.ops_done(),
            avg_rot_ms: m.rot_latency.mean() / 1e6,
            p99_rot_ms: ms(m.rot_latency.percentile(99.0)),
            avg_put_ms: m.put_latency.mean() / 1e6,
            p99_put_ms: ms(m.put_latency.percentile(99.0)),
            mean_ms: all.mean() / 1e6,
            p50_ms: ms(all.percentile(50.0)),
            p99_ms: ms(all.percentile(99.0)),
            p999_ms: ms(all.percentile(99.9)),
            max_ms: ms(all.max()),
            utilization: busy_cores / self.cluster.n_servers().max(1) as f64,
            vis_p50_ms: ms(m.vis_staleness.percentile(50.0)),
            vis_p99_ms: ms(m.vis_staleness.percentile(99.0)),
            blocked_ops: m.block_ns.count(),
            saturated: secs > 0.0 && offered > 0.0 && {
                // The arrivals the schedule offers in the window: a Poisson
                // count of this mean, whose spread a short window's
                // shortfall must exceed too.
                let expected = offered * secs;
                let allowed = ((1.0 - Report::SATURATION_GOODPUT_FRACTION) * expected)
                    .max(Report::SATURATION_SIGMAS * expected.sqrt());
                (m.ops_done() as f64) < expected - allowed
            },
            counters: m.counters.clone(),
        }
    }
}

/// The summary of one measured run — closed- or open-loop, simulated or
/// over TCP ([`RunSpec::report`]). Latencies are in ms. The all-ops
/// distribution folds ROTs and PUTs together: under an open-loop driver
/// both queue behind the same arrival calendar, and their clocks start at
/// the *scheduled* arrival, so driver queueing is part of every percentile.
#[derive(Clone, Debug)]
pub struct Report {
    pub protocol: Protocol,
    pub clients_per_dc: u16,
    /// What the open-loop schedule asked for; 0 for closed-loop clients.
    pub offered_ops_per_sec: f64,
    /// Completions per second of measured window (goodput).
    pub achieved_ops_per_sec: f64,
    pub completed_ops: u64,
    pub avg_rot_ms: f64,
    pub p99_rot_ms: f64,
    pub avg_put_ms: f64,
    pub p99_put_ms: f64,
    pub mean_ms: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub p999_ms: f64,
    pub max_ms: f64,
    /// Server busy time per second of window, averaged over the servers.
    pub utilization: f64,
    /// Visibility staleness of remote installs (now − origin-write time),
    /// median / 99th. Zero when the run recorded none (single DC).
    pub vis_p50_ms: f64,
    pub vis_p99_ms: f64,
    /// Client requests a server parked until its clock admitted them (the
    /// count of `Metrics::block_ns`): Cure's clock waits. CC-LO's replicated updates awaiting their
    /// dependencies park no client and are not counted.
    pub blocked_ops: u64,
    /// Goodput fell below [`Report::SATURATION_GOODPUT_FRACTION`] of the
    /// offered rate, and the shortfall is more than
    /// [`Report::SATURATION_SIGMAS`] standard deviations of the window's
    /// Poisson arrival count: the backend can't keep up and the arrival
    /// backlog grows without bound.
    pub saturated: bool,
    pub counters: BTreeMap<&'static str, u64>,
}

impl Report {
    /// Goodput below this fraction of the offered rate marks a run
    /// saturated, if the shortfall also clears [`Self::SATURATION_SIGMAS`].
    pub const SATURATION_GOODPUT_FRACTION: f64 = 0.95;

    /// Standard deviations of the window's arrival count a shortfall must
    /// exceed. A window offering `n` arrivals on average draws a Poisson
    /// count of spread `√n`; at a few hundred arrivals 5 % of them is about
    /// one standard deviation, so the fraction alone would flag a low draw
    /// of a backend that completed every operation it was offered.
    pub const SATURATION_SIGMAS: f64 = 3.0;

    /// Goodput in thousands of ops/s, the figures' throughput axis.
    pub fn throughput_kops(&self) -> f64 {
        self.achieved_ops_per_sec / 1e3
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// One log line per run, the same for every scenario and runtime.
impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<13} clients/DC={:<4} offered={:>9.0}/s achieved={:>9.0}/s | ROT avg={:.3} p99={:.3} \
             | PUT avg={:.3} | op p50={:.3} p99={:.3} p999={:.3} | vis p50={:.3} p99={:.3} ms \
             | util={:.2}{}",
            self.protocol.label(),
            self.clients_per_dc,
            self.offered_ops_per_sec,
            self.achieved_ops_per_sec,
            self.avg_rot_ms,
            self.p99_rot_ms,
            self.avg_put_ms,
            self.p50_ms,
            self.p99_ms,
            self.p999_ms,
            self.vis_p50_ms,
            self.vis_p99_ms,
            self.utilization,
            if self.saturated { "  SATURATED" } else { "" }
        )
    }
}

/// How many slices the measured window is run in. History and trace are
/// drained, and a metrics window closed, at every slice boundary, so the
/// engine's buffers hold at most ~1/8 of the measured window's events.
pub(crate) const STREAM_SLICES: u64 = 8;

/// What a caller observes of a simulated run besides its metrics.
#[derive(Default)]
pub struct Observe<'a> {
    /// Receives every recorded history event as run phases complete;
    /// `None` leaves recording off. Drains happen at run barriers, so the
    /// events form exactly the canonical full history, in order — pipe
    /// them straight into [`crate::CausalChecker::feed`].
    pub history: Option<&'a mut dyn FnMut(HistoryEvent)>,
    /// Turns the deterministic tracer on; the measured interval's trace
    /// lands in [`SimRun::trace`].
    pub trace: bool,
}

/// What one simulated run measured.
#[derive(Debug)]
pub struct SimRun {
    /// The measured window's metrics: summarize them with
    /// [`RunSpec::report`].
    pub metrics: Metrics,
    /// One [`contrarian_runtime::window::MetricsWindow`] per slice of the
    /// measured window.
    pub windows: WindowSeries,
    /// Canonical `(t, node, seq)`-ordered trace of the measured interval,
    /// identical across engines; empty unless [`Observe::trace`].
    pub trace: Vec<TraceEvent>,
    /// The engine's per-shard telemetry over the whole run (see
    /// [`contrarian_sim::Sim::window_stats`]).
    pub window_stats: Vec<WindowStats>,
}

/// Runs one simulation: warmup, the measured window in `STREAM_SLICES`
/// slices, then stop and quiesce so in-flight operations finish and a
/// recorded history is complete. Fully deterministic given the spec; the
/// engines are bit-identical, so `spec.sched` only changes wall time, and
/// slicing does not perturb the run either: engines process the same
/// events in the same order whatever the `run_until` boundaries.
pub fn run_sim(spec: &RunSpec, observe: Observe<'_>) -> SimRun {
    with_protocol!(spec.protocol, |P| drive::<P>(spec, observe))
}

fn drive<P: ProtocolSpec>(spec: &RunSpec, mut observe: Observe<'_>) -> SimRun {
    let mut sim = build_cluster::<P>(&spec.cluster_params(), spec.sched);
    sim.set_recording(observe.history.is_some());
    sim.set_tracing(observe.trace);
    sim.start();
    let mut trace = Vec::new();
    // Hands the history drained so far to the sink and keeps the trace of
    // the measured interval (warmup events are not part of it).
    let mut drain = |sim: &mut Sim<ProtoNode<P>>, measured: bool| {
        if let Some(sink) = observe.history.as_mut() {
            for ev in sim.drain_history() {
                sink(ev);
            }
        }
        if observe.trace {
            let events = sim.drain_trace();
            if measured {
                trace.extend(events);
            }
        }
    };
    sim.run_until(spec.warmup_ns);
    drain(&mut sim, false);
    sim.metrics_mut().enabled = true;
    let mut windows = WindowSeries::new();
    windows.origin(sim.metrics(), spec.warmup_ns);
    let end = spec.warmup_ns + spec.measure_ns;
    let slice = (spec.measure_ns / STREAM_SLICES).max(1);
    let mut t = spec.warmup_ns;
    while t < end {
        t = (t + slice).min(end);
        sim.run_until(t);
        windows.snap(sim.metrics(), t);
        drain(&mut sim, true);
    }
    sim.metrics_mut().enabled = false;
    // Stop the clients and let in-flight operations finish.
    sim.set_stopped(true);
    sim.run_to_quiescence(end + 5_000_000_000);
    drain(&mut sim, true);
    let metrics = std::mem::take(&mut *sim.metrics_mut());
    SimRun {
        metrics,
        windows,
        trace,
        window_stats: sim.window_stats(),
    }
}

/// Runs `spec` on the simulator without recording (see [`run_sim`]).
pub fn run(spec: &RunSpec) -> Report {
    spec.report(&run_sim(spec, Observe::default()).metrics)
}

/// [`run`] with recording on: the full history comes back beside the
/// report. Long recorded runs should stream it through
/// [`Observe::history`] instead.
pub fn run_recorded(spec: &RunSpec) -> (Report, Vec<HistoryEvent>) {
    let mut history = Vec::new();
    let run = run_sim(
        spec,
        Observe {
            history: Some(&mut |ev| history.push(ev)),
            trace: false,
        },
    );
    (spec.report(&run.metrics), history)
}

/// One named curve of reports: one line of a figure, or one backend's
/// offered-rate ramp.
#[derive(Clone, Debug)]
pub struct Series {
    pub name: String,
    pub points: Vec<Report>,
}

impl Series {
    pub fn peak_throughput(&self) -> f64 {
        self.points
            .iter()
            .map(Report::throughput_kops)
            .fold(0.0, f64::max)
    }

    /// Latency at the lowest load point.
    pub fn low_load_rot_ms(&self) -> f64 {
        self.points.first().map(|r| r.avg_rot_ms).unwrap_or(0.0)
    }

    /// The saturation knee: the last point the backend kept up with.
    /// `None` when even the first point saturated.
    pub fn knee(&self) -> Option<&Report> {
        self.points.iter().rev().find(|p| !p.saturated)
    }

    /// Did the ramp actually cross into saturation?
    pub fn saturated(&self) -> bool {
        self.points.last().is_some_and(|p| p.saturated)
    }
}

/// Runs `points` in order with `run`, stopping after the first report
/// `until` accepts. This is the one sweep driver: a figure curve is a
/// client-count axis that never stops early ([`load_curve`]), a saturation
/// ramp an offered-rate axis with `until = |r| r.saturated`. `run` picks
/// the runtime: [`run`] for the simulator, a [`crate::run_net`] call for
/// TCP.
pub fn sweep(
    points: impl IntoIterator<Item = RunSpec>,
    mut run: impl FnMut(&RunSpec) -> Report,
    mut until: impl FnMut(&Report) -> bool,
) -> Vec<Report> {
    let mut reports = Vec::new();
    for spec in points {
        let report = run(&spec);
        let stop = until(&report);
        reports.push(report);
        if stop {
            break;
        }
    }
    reports
}

/// A closed-loop load curve on the simulator: `base` at every client count
/// of `scale`, in `scale`'s warmup and measured windows.
pub fn load_curve(name: String, base: &RunSpec, scale: &Scale) -> Series {
    load_curve_with(name, base, scale, run)
}

/// [`load_curve`] with its points run by `run`.
pub fn load_curve_with(
    name: String,
    base: &RunSpec,
    scale: &Scale,
    mut run: impl FnMut(&RunSpec) -> Report,
) -> Series {
    let points = scale.load_points.iter().map(|&per_dc| RunSpec {
        warmup_ns: scale.warmup_ns,
        measure_ns: scale.measure_ns,
        ..base.with_clients_per_dc(per_dc)
    });
    let points = sweep(
        points,
        |spec| {
            let r = run(spec);
            eprintln!("  [{name}] {r}");
            r
        },
        |_| false,
    );
    Series { name, points }
}

/// What a figure varies in the paper's default workload (Table 1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Knob {
    Default,
    Write(f64),
    Zipf(f64),
    RotSize(u16),
    ValueSize(usize),
}

/// One load curve of a figure: a protocol on a number of DCs under a knob.
pub type Line = (Protocol, u8, Knob);

/// `line`'s closed-loop [`load_curve`] on `cluster` at `scale`, under the
/// paper's default workload with its knob set, named `label`, the knob's
/// value (`w=0.01`) and, if `dc_label`, the DC count (`2DC`).
pub fn line_curve(
    label: &str,
    (protocol, dcs, knob): Line,
    dc_label: bool,
    cluster: &ClusterConfig,
    scale: &Scale,
) -> Series {
    let w = WorkloadSpec::paper_default();
    let (workload, value) = match knob {
        Knob::Default => (w, None),
        Knob::Write(v) => (w.with_write_ratio(v), Some(format!("w={v}"))),
        Knob::Zipf(v) => (w.with_zipf(v), Some(format!("z={v}"))),
        Knob::RotSize(v) => (w.with_rot_size(v), Some(format!("p={v}"))),
        Knob::ValueSize(v) => (w.with_value_size(v), Some(format!("b={v}"))),
    };
    let dc = dc_label.then(|| format!("{dcs}DC"));
    let name = [Some(label.into()), value, dc].into_iter().flatten();
    let name = name.collect::<Vec<_>>().join(" ");
    let spec = RunSpec::closed(protocol, cluster.clone().with_dcs(dcs), workload);
    load_curve(name, &spec, scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parse_defaults_to_quick() {
        let points = |v| Scale::parse(v).unwrap().load_points;
        assert_eq!(points(None), Scale::quick().load_points);
        assert_eq!(points(Some("smoke")), Scale::smoke().load_points);
        assert_eq!(points(Some("xlarge")), Scale::xlarge().load_points);
    }

    #[test]
    fn scale_parse_rejects_a_typo_naming_every_value() {
        let err = Scale::parse(Some("smok")).unwrap_err();
        assert!(err.contains("`smok`"), "{err}");
        for name in Scale::NAMES {
            assert!(err.contains(name), "{err} lacks {name}");
            assert!(Scale::parse(Some(name)).is_ok());
        }
    }

    /// The scale list the usage line prints names exactly the values the
    /// parser accepts.
    #[test]
    fn the_usage_line_names_every_scale() {
        let usage = crate::scenarios::usage();
        let prefix = format!("{}=", Scale::ENV);
        let list = usage
            .split_once(&prefix)
            .and_then(|(_, rest)| rest.split_once(')'))
            .map(|(list, _)| list)
            .unwrap_or_else(|| panic!("usage names no {prefix}: {usage}"));
        assert_eq!(list.split('|').collect::<Vec<_>>(), Scale::NAMES, "{usage}");
    }

    #[test]
    fn functional_run_produces_history_and_metrics() {
        let (r, history) = run_recorded(&RunSpec::functional(Protocol::Contrarian));
        assert!(r.throughput_kops() > 0.0);
        assert!(!history.is_empty());
        assert!(r.avg_rot_ms > 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let spec = RunSpec::functional(Protocol::CcLo);
        let (a, ha) = run_recorded(&spec);
        let (b, hb) = run_recorded(&spec);
        assert_eq!(a.throughput_kops(), b.throughput_kops());
        assert_eq!(ha.len(), hb.len());
    }

    #[test]
    fn different_seeds_differ() {
        let mut spec = RunSpec::functional(Protocol::Contrarian);
        let (a, ha) = run_recorded(&spec);
        spec.seed = 8;
        let (b, hb) = run_recorded(&spec);
        // Same scale, but not bit-identical histories.
        assert_ne!(ha.len(), 0);
        assert!(ha.len() != hb.len() || a.throughput_kops() != b.throughput_kops());
    }

    #[test]
    fn streamed_run_delivers_the_buffered_history() {
        // The sink receives, slice by slice, exactly the history an
        // unsliced run leaves buffered in the engine, in the same order,
        // and neither recording nor the sink moves a metric.
        let spec = RunSpec::functional(Protocol::Contrarian);
        let mut streamed = Vec::new();
        let recorded = run_sim(
            &spec,
            Observe {
                history: Some(&mut |ev| streamed.push(ev)),
                trace: false,
            },
        );
        let mut sim =
            build_cluster::<contrarian_core::Contrarian>(&spec.cluster_params(), spec.sched);
        sim.set_recording(true);
        sim.start();
        let end = spec.warmup_ns + spec.measure_ns;
        sim.run_until(end);
        sim.set_stopped(true);
        sim.run_to_quiescence(end + 5_000_000_000);
        let buffered = sim.drain_history();
        assert!(!buffered.is_empty());
        assert_eq!(format!("{streamed:?}"), format!("{buffered:?}"));
        assert_eq!(
            spec.report(&recorded.metrics).throughput_kops(),
            run(&spec).throughput_kops()
        );
    }

    #[test]
    fn all_protocols_run() {
        for p in Protocol::ALL {
            let r = run(&RunSpec::functional(p));
            assert!(r.throughput_kops() > 0.0, "{} made no progress", p.label());
        }
    }

    /// An open-loop spec offering `offered` ops/s over a 1 s window.
    fn one_second(offered: f64) -> RunSpec {
        RunSpec {
            measure_ns: 1_000_000_000,
            ..RunSpec::functional_open(Protocol::Contrarian, offered)
        }
    }

    fn enabled() -> Metrics {
        Metrics {
            enabled: true,
            ..Metrics::new()
        }
    }

    #[test]
    fn load_report_flags_saturation_from_goodput() {
        let mut m = enabled();
        for _ in 0..1000 {
            m.rot_done(2_000_000);
        }
        // 1000 completions over 1 s against 1000 offered: keeping up.
        let ok = one_second(1000.0).report(&m);
        assert!(!ok.saturated);
        assert_eq!(ok.completed_ops, 1000);
        assert!((ok.achieved_ops_per_sec - 1000.0).abs() < 1e-9);
        assert!((ok.throughput_kops() - 1.0).abs() < 1e-12);
        assert!(ok.p50_ms > 1.8 && ok.p50_ms < 2.2);
        // The same completions against 4000 offered: saturated.
        assert!(one_second(4000.0).report(&m).saturated);
    }

    /// A short window's arrivals are a Poisson sample: 509 of 560 expected
    /// is 2.2 standard deviations low, and a backend that completed all of
    /// them kept up. Only a shortfall beyond both 5 % and 3 standard
    /// deviations is saturation.
    #[test]
    fn a_low_arrival_draw_in_a_short_window_is_not_saturation() {
        let report = |spec: &RunSpec, done: u64| {
            let mut m = enabled();
            for _ in 0..done {
                m.put_done(200_000);
            }
            spec.report(&m)
        };
        let short = RunSpec {
            measure_ns: 700_000_000,
            ..RunSpec::functional_open(Protocol::CcLo, 800.0)
        };
        let low_draw = report(&short, 509);
        assert!(low_draw.achieved_ops_per_sec < 0.95 * 800.0);
        assert!(!low_draw.saturated, "{low_draw:?}");
        // 560 − 3·√560 ≈ 489: below that the backend fell behind.
        assert!(!report(&short, 490).saturated);
        assert!(report(&short, 488).saturated);
        // Over many arrivals the 5 % band is the wider one and decides.
        let long = one_second(100_000.0);
        assert!(!report(&long, 95_001).saturated);
        assert!(report(&long, 94_999).saturated);
    }

    #[test]
    fn load_report_zero_window_is_explicitly_unsaturated() {
        let mut m = enabled();
        m.rot_done(1_000_000);
        let spec = RunSpec {
            measure_ns: 0,
            ..one_second(1000.0)
        };
        let r = spec.report(&m);
        assert_eq!(r.achieved_ops_per_sec, 0.0);
        assert!(!r.saturated, "no window means nothing fell behind");
        assert_eq!(r.utilization, 0.0);
        // Closed-loop clients offer no rate, so they can't saturate either.
        let closed = RunSpec {
            measure_ns: 1_000_000_000,
            ..RunSpec::functional(Protocol::Contrarian)
        };
        let r2 = closed.report(&m);
        assert_eq!(r2.offered_ops_per_sec, 0.0);
        assert!(!r2.saturated);
    }

    #[test]
    fn load_report_surfaces_utilization_and_staleness() {
        let mut m = enabled();
        m.rot_done(1_000_000);
        m.busy_ns = 500_000_000;
        m.vis_stale(2_000_000);
        m.vis_stale(2_000_000);
        let spec = one_second(10.0);
        let r = spec.report(&m);
        // Busy half the window in all, spread over every server.
        let per_server = 0.5 / spec.cluster.n_servers() as f64;
        assert!((r.utilization - per_server).abs() < 1e-12, "{r:?}");
        assert!(r.vis_p50_ms > 1.8 && r.vis_p50_ms < 2.1);
    }

    #[test]
    fn load_report_combines_rot_and_put_latencies() {
        let mut m = enabled();
        m.rot_done(1_000_000);
        m.put_done(9_000_000);
        let r = one_second(10.0).report(&m);
        assert_eq!(r.completed_ops, 2);
        assert!(r.max_ms > 8.0, "PUT latency must be in the fold");
        assert!(r.mean_ms > 4.0 && r.mean_ms < 6.0);
        assert!(r.avg_rot_ms < 1.1 && r.avg_put_ms > 8.0, "and apart: {r:?}");
    }

    #[test]
    fn series_peak_and_low_load_are_extracted() {
        let point = |tput_kops: f64, rot_ms: f64| Report {
            achieved_ops_per_sec: tput_kops * 1e3,
            avg_rot_ms: rot_ms,
            ..RunSpec::functional(Protocol::Contrarian).report(&Metrics::new())
        };
        let s = Series {
            name: "test".into(),
            points: vec![point(50.0, 0.3), point(200.0, 0.5), point(180.0, 1.2)],
        };
        assert_eq!(s.peak_throughput(), 200.0);
        assert_eq!(s.low_load_rot_ms(), 0.3);
        assert!(
            !s.saturated() && s.knee().is_some(),
            "closed loops never saturate"
        );
    }

    #[test]
    fn sweep_stops_at_first_saturated_point() {
        // Base rate is a placeholder: the ramp sets each point's rate.
        let base = one_second(1.0);
        let ramp = std::iter::successors(Some(1_000.0), |r| Some(r * 2.0))
            .take(10)
            .map(|rate| base.with_offered(rate));
        let mut rates = Vec::new();
        let points = sweep(
            ramp,
            |spec| {
                rates.push(spec.offered_ops_per_sec());
                // Fake runner: capacity 3.5 K ops/s.
                let done = spec.offered_ops_per_sec().min(3_500.0) as u64;
                spec.report(&Metrics {
                    rots_done: done,
                    ..Metrics::new()
                })
            },
            |r| r.saturated,
        );
        assert_eq!(rates, vec![1_000.0, 2_000.0, 4_000.0]);
        let series = Series {
            name: "ramp".into(),
            points,
        };
        assert!(series.saturated());
        let knee = series.knee().expect("2 K point was unsaturated");
        assert_eq!(knee.offered_ops_per_sec, 2_000.0);
    }
}
