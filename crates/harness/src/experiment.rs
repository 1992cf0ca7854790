//! Running one measured experiment (one protocol, one cluster, one load):
//! the [`RunSpec`] every simulated run is described by, and [`run_sim`],
//! the one loop that drives it.

pub use contrarian_protocol::Clients;
use contrarian_protocol::{build_cluster, ClusterParams, ProtoNode, ProtocolSpec};
use contrarian_runtime::cost::CostModel;
use contrarian_runtime::metrics::{LoadReport, Metrics};
use contrarian_runtime::window::WindowSeries;
use contrarian_sim::sim::Sim;
use contrarian_sim::{Lookahead, SchedKind};
use contrarian_types::{ClusterConfig, HistoryEvent, RotMode, TraceEvent};
use contrarian_workload::{OpenLoopSpec, WorkloadSpec};
use std::collections::BTreeMap;

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

    /// Reads [`contrarian_runtime::env::SCALE`] (see [`Scale::parse`]).
    pub fn from_env() -> Self {
        Self::parse(contrarian_runtime::env::var(contrarian_runtime::env::SCALE).as_deref())
    }

    /// Parses a `CONTRARIAN_SCALE` value; unset or unrecognized is
    /// [`Scale::quick`].
    pub fn parse(value: Option<&str>) -> Self {
        match value {
            Some("smoke") => Scale::smoke(),
            Some("paper") => Scale::paper(),
            Some("large") => Scale::large(),
            Some("xlarge") => Scale::xlarge(),
            _ => Scale::quick(),
        }
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
    /// Engine mode (heap / calendar / sharded). The constructors follow
    /// `CONTRARIAN_SCHED`; the cross-engine determinism tests pin it per
    /// run instead of racing on the process environment. Wall-clock runs
    /// ignore it.
    pub sched: SchedKind,
    /// How the sharded engine derives its conservative bounds (default:
    /// the per-link matrix).
    pub lookahead: Lookahead,
}

impl RunSpec {
    /// The paper's default workload on the paper's default platform.
    pub fn paper_default(protocol: Protocol) -> Self {
        RunSpec {
            protocol,
            cluster: ClusterConfig::paper_default(),
            clients: Clients::Closed {
                workload: WorkloadSpec::paper_default(),
                per_dc: 64,
            },
            warmup_ns: 200_000_000,
            measure_ns: 600_000_000,
            seed: 42,
            cost: CostModel::calibrated(),
            sched: SchedKind::from_env(),
            lookahead: Lookahead::default(),
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
            sched: SchedKind::from_env(),
            lookahead: Lookahead::default(),
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
            cost: self.cost.clone(),
            clients: self.clients.clone(),
            seed: self.seed,
        }
    }

    /// The closed-loop summary of a run's metrics.
    pub fn run_result(&self, m: &Metrics) -> RunResult {
        let secs = self.measure_ns as f64 / 1e9;
        RunResult {
            protocol: self.protocol,
            clients_per_dc: self.clients.layout(self.cluster.n_dcs).1,
            throughput_kops: m.ops_done() as f64 / secs / 1e3,
            avg_rot_ms: m.rot_latency.mean() / 1e6,
            p99_rot_ms: m.rot_latency.percentile(99.0) as f64 / 1e6,
            avg_put_ms: m.put_latency.mean() / 1e6,
            p99_put_ms: m.put_latency.percentile(99.0) as f64 / 1e6,
            counters: m.counters.clone(),
            history: Vec::new(),
        }
    }

    /// The open-loop summary of a run's metrics, with utilization per
    /// server.
    pub fn load_report(&self, m: &Metrics) -> LoadReport {
        LoadReport::from_metrics(m, self.offered_ops_per_sec(), self.measure_ns)
            .normalize_utilization(self.cluster.n_servers())
    }
}

/// The measured outcome of one closed-loop run.
#[derive(Clone, Debug)]
pub struct RunResult {
    pub protocol: Protocol,
    pub clients_per_dc: u16,
    pub throughput_kops: f64,
    pub avg_rot_ms: f64,
    pub p99_rot_ms: f64,
    pub avg_put_ms: f64,
    pub p99_put_ms: f64,
    pub counters: BTreeMap<&'static str, u64>,
    /// The recorded history ([`run_recorded`]); empty otherwise.
    pub history: Vec<HistoryEvent>,
}

impl RunResult {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
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
    /// [`RunSpec::run_result`] or [`RunSpec::load_report`].
    pub metrics: Metrics,
    /// One [`contrarian_runtime::window::MetricsWindow`] per slice of the
    /// measured window.
    pub windows: WindowSeries,
    /// Canonical `(t, node, seq)`-ordered trace of the measured interval,
    /// identical across engines; empty unless [`Observe::trace`].
    pub trace: Vec<TraceEvent>,
}

/// Runs one simulation: warmup, the measured window in [`STREAM_SLICES`]
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
    sim.set_lookahead(spec.lookahead.clone());
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
    SimRun {
        metrics: std::mem::take(sim.metrics_mut()),
        windows,
        trace,
    }
}

/// Runs one closed-loop experiment without recording (see [`run_sim`]).
pub fn run_experiment(spec: &RunSpec) -> RunResult {
    spec.run_result(&run_sim(spec, Observe::default()).metrics)
}

/// [`run_experiment`] with recording on: the full history rides home in
/// the result. Long recorded runs should stream it through
/// [`Observe::history`] instead.
pub fn run_recorded(spec: &RunSpec) -> RunResult {
    let mut history = Vec::new();
    let run = run_sim(
        spec,
        Observe {
            history: Some(&mut |ev| history.push(ev)),
            trace: false,
        },
    );
    RunResult {
        history,
        ..spec.run_result(&run.metrics)
    }
}

/// One named throughput/latency curve (one line of a figure).
#[derive(Clone, Debug)]
pub struct Series {
    pub name: String,
    pub points: Vec<RunResult>,
}

impl Series {
    pub fn peak_throughput(&self) -> f64 {
        self.points
            .iter()
            .map(|r| r.throughput_kops)
            .fold(0.0, f64::max)
    }

    /// Latency at the lowest load point.
    pub fn low_load_rot_ms(&self) -> f64 {
        self.points.first().map(|r| r.avg_rot_ms).unwrap_or(0.0)
    }
}

/// Runs a load sweep (one run per client count) for one protocol.
pub fn sweep_series(
    name: &str,
    protocol: Protocol,
    cluster: ClusterConfig,
    workload: WorkloadSpec,
    scale: &Scale,
    seed: u64,
) -> Series {
    let mut points = Vec::with_capacity(scale.load_points.len());
    for &clients in &scale.load_points {
        let spec = RunSpec {
            cluster: cluster.clone(),
            clients: Clients::Closed {
                workload: workload.clone(),
                per_dc: clients,
            },
            warmup_ns: scale.warmup_ns,
            measure_ns: scale.measure_ns,
            seed,
            ..RunSpec::paper_default(protocol)
        };
        let r = run_experiment(&spec);
        eprintln!(
            "  [{name}] clients/DC={clients:<4} tput={:8.1} Kops/s  rot avg={:.3} ms p99={:.3} ms  put avg={:.3} ms",
            r.throughput_kops, r.avg_rot_ms, r.p99_rot_ms, r.avg_put_ms
        );
        points.push(r);
    }
    Series {
        name: name.to_string(),
        points,
    }
}

/// A named (protocol, cluster, workload) combination to sweep — one line
/// of a figure.
#[derive(Clone)]
pub struct SweepSpec {
    pub name: String,
    pub protocol: Protocol,
    pub cluster: ClusterConfig,
    pub workload: WorkloadSpec,
}

impl SweepSpec {
    pub fn new(
        name: impl Into<String>,
        protocol: Protocol,
        cluster: ClusterConfig,
        workload: WorkloadSpec,
    ) -> Self {
        SweepSpec {
            name: name.into(),
            protocol,
            cluster,
            workload,
        }
    }
}

/// Runs one load sweep per spec — the boilerplate every figure binary used
/// to repeat, folded onto [`sweep_series`].
pub fn sweep_grid(
    specs: impl IntoIterator<Item = SweepSpec>,
    scale: &Scale,
    seed: u64,
) -> Vec<Series> {
    specs
        .into_iter()
        .map(|s| sweep_series(&s.name, s.protocol, s.cluster, s.workload, scale, seed))
        .collect()
}

/// The commonest grid: the Contrarian-vs-CC-LO pair for every value of one
/// workload parameter (the write-intensity, skew, ROT-size and value-size
/// sweeps of Figures 7–9 and Section 5.8).
pub fn contrarian_vs_cclo_over<V: Copy>(
    values: &[V],
    cluster: &ClusterConfig,
    label: impl Fn(Protocol, V) -> String,
    workload: impl Fn(V) -> WorkloadSpec,
) -> Vec<SweepSpec> {
    values
        .iter()
        .flat_map(|&v| {
            [Protocol::Contrarian, Protocol::CcLo]
                .map(|p| SweepSpec::new(label(p, v), p, cluster.clone(), workload(v)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parse_defaults_to_quick() {
        let points = |v| Scale::parse(v).load_points;
        assert_eq!(points(None), Scale::quick().load_points);
        assert_eq!(points(Some("bogus")), Scale::quick().load_points);
        assert_eq!(points(Some("smoke")), Scale::smoke().load_points);
        assert_eq!(points(Some("xlarge")), Scale::xlarge().load_points);
    }

    #[test]
    fn functional_run_produces_history_and_metrics() {
        let r = run_recorded(&RunSpec::functional(Protocol::Contrarian));
        assert!(r.throughput_kops > 0.0);
        assert!(!r.history.is_empty());
        assert!(r.avg_rot_ms > 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let spec = RunSpec::functional(Protocol::CcLo);
        let a = run_recorded(&spec);
        let b = run_recorded(&spec);
        assert_eq!(a.throughput_kops, b.throughput_kops);
        assert_eq!(a.history.len(), b.history.len());
    }

    #[test]
    fn different_seeds_differ() {
        let mut spec = RunSpec::functional(Protocol::Contrarian);
        let a = run_recorded(&spec);
        spec.seed = 8;
        let b = run_recorded(&spec);
        // Same scale, but not bit-identical histories.
        assert_ne!(a.history.len(), 0);
        assert!(a.history.len() != b.history.len() || a.throughput_kops != b.throughput_kops);
    }

    #[test]
    fn streamed_run_delivers_the_buffered_history() {
        // The sink receives, slice by slice, exactly the history an
        // unsliced run leaves buffered in the engine, in the same order,
        // and neither recording nor the sink moves a metric.
        let spec = RunSpec::functional(Protocol::Contrarian);
        let mut streamed = Vec::new();
        let run = run_sim(
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
        let buffered = sim.take_history();
        assert!(!buffered.is_empty());
        assert_eq!(format!("{streamed:?}"), format!("{buffered:?}"));
        let unrecorded = run_experiment(&spec);
        assert!(
            unrecorded.history.is_empty(),
            "unrecorded runs keep no history"
        );
        assert_eq!(
            spec.run_result(&run.metrics).throughput_kops,
            unrecorded.throughput_kops
        );
    }

    #[test]
    fn all_protocols_run() {
        for p in Protocol::ALL {
            let r = run_experiment(&RunSpec::functional(p));
            assert!(r.throughput_kops > 0.0, "{} made no progress", p.label());
        }
    }
}
