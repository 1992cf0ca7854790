//! Running one measured experiment (one protocol, one cluster, one load).

use contrarian_runtime::cost::CostModel;
use contrarian_runtime::metrics::Metrics;
use contrarian_sim::{Lookahead, SchedKind};
use contrarian_types::{ClusterConfig, HistoryEvent, RotMode};
use contrarian_workload::WorkloadSpec;
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

/// Full description of one run.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    pub protocol: Protocol,
    pub cluster: ClusterConfig,
    pub workload: WorkloadSpec,
    pub clients_per_dc: u16,
    pub warmup_ns: u64,
    pub measure_ns: u64,
    pub seed: u64,
    pub cost: CostModel,
    /// Record history for the causal checker. Use
    /// [`run_experiment_streamed`] to consume it incrementally instead of
    /// keeping every operation in memory.
    pub record: bool,
    /// Engine mode (heap / calendar / sharded). Defaults follow
    /// `CONTRARIAN_SCHED`; the cross-engine determinism tests pin it per
    /// run instead of racing on the process environment.
    pub sched: SchedKind,
    /// How the sharded engine derives its conservative bounds (default:
    /// the per-link matrix).
    pub lookahead: Lookahead,
}

impl ExperimentConfig {
    /// The paper's default workload on the paper's default platform.
    pub fn paper_default(protocol: Protocol) -> Self {
        ExperimentConfig {
            protocol,
            cluster: ClusterConfig::paper_default(),
            workload: WorkloadSpec::paper_default(),
            clients_per_dc: 64,
            warmup_ns: 200_000_000,
            measure_ns: 600_000_000,
            seed: 42,
            cost: CostModel::calibrated(),
            record: false,
            sched: SchedKind::from_env(),
            lookahead: Lookahead::default(),
        }
    }

    /// A tiny functional configuration for checker-driven tests.
    pub fn functional(protocol: Protocol) -> Self {
        ExperimentConfig {
            protocol,
            cluster: ClusterConfig::small(),
            workload: WorkloadSpec::paper_default().with_rot_size(2),
            clients_per_dc: 4,
            warmup_ns: 0,
            measure_ns: 30_000_000,
            seed: 7,
            cost: CostModel::functional(),
            record: true,
            sched: SchedKind::from_env(),
            lookahead: Lookahead::default(),
        }
    }
}

/// The measured outcome of one run.
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
    pub history: Vec<HistoryEvent>,
}

impl RunResult {
    fn from_metrics(
        protocol: Protocol,
        clients_per_dc: u16,
        m: &Metrics,
        measure_ns: u64,
        history: Vec<HistoryEvent>,
    ) -> Self {
        let secs = measure_ns as f64 / 1e9;
        RunResult {
            protocol,
            clients_per_dc,
            throughput_kops: m.ops_done() as f64 / secs / 1e3,
            avg_rot_ms: m.rot_latency.mean() / 1e6,
            p99_rot_ms: m.rot_latency.percentile(99.0) as f64 / 1e6,
            avg_put_ms: m.put_latency.mean() / 1e6,
            p99_put_ms: m.put_latency.percentile(99.0) as f64 / 1e6,
            counters: m.counters.clone(),
            history,
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Runs one experiment to completion: warmup, measurement window, result
/// extraction. Fully deterministic given the seed. The full recorded
/// history rides home in the result; long recorded runs should prefer
/// [`run_experiment_streamed`].
pub fn run_experiment(cfg: &ExperimentConfig) -> RunResult {
    let mut history = Vec::new();
    let mut r = run_experiment_streamed(cfg, &mut |ev| history.push(ev));
    r.history = history;
    r
}

/// How many slices the measured window is drained in when streaming: the
/// engine's history buffers hold at most ~1/8 of the measured window's
/// events at any point.
const STREAM_SLICES: u64 = 8;

/// Runs one experiment, handing recorded history events to `sink` as run
/// phases complete instead of buffering them all (`history` in the
/// returned result stays empty). The measured window is drained in
/// [`STREAM_SLICES`] slices; drains happen at run barriers, so the events
/// delivered to the sink form exactly the canonical full history, in
/// order — pipe them straight into [`crate::CausalChecker::feed`]. Slicing
/// does not perturb the run: engines process the same events in the same
/// order whatever the run_until boundaries.
pub fn run_experiment_streamed(
    cfg: &ExperimentConfig,
    sink: &mut dyn FnMut(HistoryEvent),
) -> RunResult {
    macro_rules! drive {
        ($sim:expr) => {{
            let mut sim = $sim;
            sim.set_recording(cfg.record);
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
            // Let in-flight operations finish so histories are complete.
            sim.set_stopped(true);
            sim.run_to_quiescence(end + 5_000_000_000);
            for ev in sim.drain_history() {
                sink(ev);
            }
            RunResult::from_metrics(
                cfg.protocol,
                cfg.clients_per_dc,
                sim.metrics(),
                cfg.measure_ns,
                Vec::new(),
            )
        }};
    }

    let p = contrarian_protocol::ClusterParams {
        cfg: cfg.protocol.cluster(&cfg.cluster),
        cost: cfg.cost.clone(),
        workload: cfg.workload.clone(),
        clients_per_dc: cfg.clients_per_dc,
        seed: cfg.seed,
    };
    with_protocol!(cfg.protocol, |P| drive!(
        contrarian_protocol::build_cluster_with::<P>(&p, cfg.sched)
    ))
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
        let cfg = ExperimentConfig {
            protocol,
            cluster: cluster.clone(),
            workload: workload.clone(),
            clients_per_dc: clients,
            warmup_ns: scale.warmup_ns,
            measure_ns: scale.measure_ns,
            seed,
            cost: CostModel::calibrated(),
            record: false,
            sched: SchedKind::from_env(),
            lookahead: Lookahead::default(),
        };
        let r = run_experiment(&cfg);
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
        let cfg = ExperimentConfig::functional(Protocol::Contrarian);
        let r = run_experiment(&cfg);
        assert!(r.throughput_kops > 0.0);
        assert!(!r.history.is_empty());
        assert!(r.avg_rot_ms > 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = ExperimentConfig::functional(Protocol::CcLo);
        let a = run_experiment(&cfg);
        let b = run_experiment(&cfg);
        assert_eq!(a.throughput_kops, b.throughput_kops);
        assert_eq!(a.history.len(), b.history.len());
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = ExperimentConfig::functional(Protocol::Contrarian);
        let a = run_experiment(&cfg);
        cfg.seed = 8;
        let b = run_experiment(&cfg);
        // Same scale, but not bit-identical histories.
        assert_ne!(a.history.len(), 0);
        assert!(a.history.len() != b.history.len() || a.throughput_kops != b.throughput_kops);
    }

    #[test]
    fn streamed_run_delivers_the_buffered_history() {
        // Slice-drained streaming must hand the sink exactly the events a
        // buffered run returns, in the same order, with identical metrics.
        let cfg = ExperimentConfig::functional(Protocol::Contrarian);
        let buffered = run_experiment(&cfg);
        let mut streamed = Vec::new();
        let r = run_experiment_streamed(&cfg, &mut |ev| streamed.push(ev));
        assert!(r.history.is_empty(), "streamed result must not buffer");
        assert_eq!(r.throughput_kops, buffered.throughput_kops);
        assert_eq!(streamed.len(), buffered.history.len());
        assert_eq!(format!("{streamed:?}"), format!("{:?}", buffered.history));
    }

    #[test]
    fn all_protocols_run() {
        for p in Protocol::ALL {
            let r = run_experiment(&ExperimentConfig::functional(p));
            assert!(r.throughput_kops > 0.0, "{} made no progress", p.label());
        }
    }
}
