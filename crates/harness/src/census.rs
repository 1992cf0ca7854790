//! The heap census of the repo benchmark's four simulator workloads: each
//! geometry run to the end of its `over` rung, the point where the
//! benchmark's `peak_rss_mb` is read, then [`contrarian_sim::Sim::heap_census`] taken.
//!
//! The geometries copy `benchmark/src/workloads.rs` (that workspace is not
//! a dependency of this one); a change there must be copied here.

use crate::experiment::{with_protocol, Protocol};
use contrarian_protocol::{build_openloop_cluster, OpenLoopParams, ProtocolSpec};
use contrarian_runtime::cost::CostModel;
use contrarian_runtime::window::WindowSeries;
use contrarian_types::{ClusterConfig, HeapCensus, RotMode};
use contrarian_workload::{OpenLoopSpec, WorkloadSpec};

/// One benchmark workload's cluster and its `over` rung.
pub struct Geometry {
    pub name: &'static str,
    pub protocol: Protocol,
    pub n_dcs: u8,
    pub n_partitions: u16,
    pub keys_per_partition: u64,
    pub write_ratio: f64,
    pub zipf_theta: f64,
    pub sessions: u64,
    pub drivers_per_dc: u16,
    pub over_rate: f64,
    pub warmup_ns: u64,
    pub over_window_ns: u64,
}

const MS: u64 = 1_000_000;

/// `sim_read_contrarian`, `sim_write_cclo`, `sim_geo_cure` and
/// `sim_scale_okapi`, as the benchmark runs them.
pub const GEOMETRIES: [Geometry; 4] = [
    Geometry {
        name: "sim_read_contrarian",
        protocol: Protocol::Contrarian,
        n_dcs: 1,
        n_partitions: 32,
        keys_per_partition: 1_000_000,
        write_ratio: 0.05,
        zipf_theta: 0.99,
        sessions: 1_000_000,
        drivers_per_dc: 256,
        over_rate: 1_000_000.0,
        warmup_ns: 100 * MS,
        over_window_ns: 500 * MS,
    },
    Geometry {
        name: "sim_write_cclo",
        protocol: Protocol::CcLo,
        n_dcs: 1,
        n_partitions: 32,
        keys_per_partition: 1_000_000,
        write_ratio: 0.1,
        zipf_theta: 0.99,
        sessions: 1_000_000,
        drivers_per_dc: 256,
        over_rate: 600_000.0,
        warmup_ns: 200 * MS,
        over_window_ns: 400 * MS,
    },
    Geometry {
        name: "sim_geo_cure",
        protocol: Protocol::Cure,
        n_dcs: 2,
        n_partitions: 32,
        keys_per_partition: 1_000_000,
        write_ratio: 0.05,
        zipf_theta: 0.99,
        sessions: 1_000_000,
        drivers_per_dc: 256,
        over_rate: 2_000_000.0,
        warmup_ns: 100 * MS,
        over_window_ns: 250 * MS,
    },
    Geometry {
        name: "sim_scale_okapi",
        protocol: Protocol::Okapi,
        n_dcs: 2,
        n_partitions: 64,
        keys_per_partition: 500_000,
        write_ratio: 0.05,
        zipf_theta: 0.0,
        sessions: 1_000_000,
        drivers_per_dc: 512,
        over_rate: 4_000_000.0,
        warmup_ns: 100 * MS,
        over_window_ns: 200 * MS,
    },
];

impl Geometry {
    fn cluster(&self) -> ClusterConfig {
        let mut cfg = ClusterConfig::paper_default()
            .with_dcs(self.n_dcs)
            .with_partitions(self.n_partitions)
            .with_rot_mode(RotMode::OneHalfRound);
        cfg.keys_per_partition = self.keys_per_partition;
        cfg.prepopulated = true;
        cfg
    }

    fn spec(&self) -> OpenLoopSpec {
        let mix = WorkloadSpec::paper_default()
            .with_write_ratio(self.write_ratio)
            .with_zipf(self.zipf_theta);
        OpenLoopSpec::new(mix, self.sessions, self.over_rate)
            .with_actors_per_dc(self.drivers_per_dc)
    }

    /// Runs the `over` rung — warm-up and window each cut to `1 / shrink`
    /// of the benchmark's — on the default engine, and takes the census
    /// at its end. A `harness`-class row adds the metric windows a harness
    /// run keeps (one window, measured over the rung); the benchmark child
    /// keeps none.
    pub fn census(&self, seed: u64, shrink: u64) -> HeapCensus {
        with_protocol!(self.protocol, |P| self.census_of::<P>(seed, shrink))
    }

    fn census_of<P: ProtocolSpec>(&self, seed: u64, shrink: u64) -> HeapCensus {
        let (warmup, end) = (
            self.warmup_ns / shrink,
            (self.warmup_ns + self.over_window_ns) / shrink,
        );
        let mut sim = build_openloop_cluster::<P>(&OpenLoopParams {
            cfg: self.cluster(),
            cost: CostModel::calibrated(),
            spec: self.spec(),
            seed,
        });
        sim.start();
        sim.run_until(warmup);
        sim.metrics_mut().enabled = true;
        let mut windows = WindowSeries::new();
        windows.origin(sim.metrics(), warmup);
        sim.run_until(end);
        windows.snap(sim.metrics(), end);
        let mut census = sim.heap_census();
        census.set_class("harness");
        census.add(
            "metric windows",
            windows.heap_bytes(),
            windows.windows().len(),
        );
        census
    }
}
