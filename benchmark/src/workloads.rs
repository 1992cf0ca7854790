//! The five workloads. Every number here is frozen: rates, populations
//! and windows are never derived from the machine at run time.
//!
//! All are open loop (Poisson sessions, latency clocked from the scheduled
//! arrival). Each has two rungs: `mid`, about half of capacity, where
//! latency is read, and `over`, at least 4x capacity, where the backlog
//! grows, goodput equals capacity, and capacity and cost are read.

use contrarian_types::{ClusterConfig, RotMode};
use contrarian_workload::{OpenLoopSpec, WorkloadSpec};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backend {
    Contrarian,
    CcLo,
    Cure,
    Okapi,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RuntimeKind {
    /// Discrete-event simulator: virtual time, calibrated cost model.
    Sim,
    /// Loopback TCP through the default socket engine: wall clock.
    Net,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rung {
    Mid,
    Over,
}

impl Rung {
    pub fn name(self) -> &'static str {
        match self {
            Rung::Mid => "mid",
            Rung::Over => "over",
        }
    }

    pub fn parse(s: &str) -> Option<Rung> {
        match s {
            "mid" => Some(Rung::Mid),
            "over" => Some(Rung::Over),
            _ => None,
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub backend: Backend,
    pub runtime: RuntimeKind,
    pub n_dcs: u8,
    pub n_partitions: u16,
    pub keys_per_partition: u64,
    pub write_ratio: f64,
    pub zipf_theta: f64,
    pub sessions: u64,
    /// Driver actors per DC. Each keeps one operation in flight, so the
    /// pool caps throughput at `drivers / latency`: 8 per DC (the library
    /// default) tops out near 24 Kops/s on the 32-partition cluster for
    /// every backend alike. 256 lifts the ceiling above the backends'.
    pub drivers_per_dc: u16,
    pub mid_rate: f64,
    pub over_rate: f64,
    /// Simulator windows, virtual ns. (The TCP workload's wall-clock
    /// windows are cut from `--seconds` instead.)
    pub warmup_ns: u64,
    pub mid_window_ns: u64,
    pub over_window_ns: u64,
    /// Cluster realizations `mid` is read on (simulator only): the seed
    /// also draws the servers' physical-clock offsets, and Cure's latency
    /// follows the draw.
    pub mid_clusters: u32,
}

const MS: u64 = 1_000_000;

pub const WORKLOADS: [Workload; 5] = [
    // The paper's headline point: ROT fan-out and the coordinator path,
    // hot version chains, and the event loop with few nodes.
    Workload {
        name: "sim_read_contrarian",
        backend: Backend::Contrarian,
        runtime: RuntimeKind::Sim,
        n_dcs: 1,
        n_partitions: 32,
        keys_per_partition: 1_000_000,
        write_ratio: 0.05,
        zipf_theta: 0.99,
        sessions: 1_000_000,
        drivers_per_dc: 256,
        mid_rate: 120_000.0,
        over_rate: 1_000_000.0,
        warmup_ns: 100 * MS,
        mid_window_ns: 1_000 * MS,
        over_window_ns: 500 * MS,
        mid_clusters: 3,
    },
    // Writes beside reads: PUTs drive the readers check, so a gain for
    // reads that costs writes shows here. Reader records live 500 ms, so
    // the windows sit where the records are still filling; the run is
    // deterministic, which is what the comparison needs.
    Workload {
        name: "sim_write_cclo",
        backend: Backend::CcLo,
        runtime: RuntimeKind::Sim,
        n_dcs: 1,
        n_partitions: 32,
        keys_per_partition: 1_000_000,
        write_ratio: 0.1,
        zipf_theta: 0.99,
        sessions: 1_000_000,
        drivers_per_dc: 256,
        mid_rate: 80_000.0,
        over_rate: 600_000.0,
        warmup_ns: 200 * MS,
        mid_window_ns: 800 * MS,
        over_window_ns: 400 * MS,
        mid_clusters: 3,
    },
    // Replication, GSS stabilization and physical-clock blocking.
    Workload {
        name: "sim_geo_cure",
        backend: Backend::Cure,
        runtime: RuntimeKind::Sim,
        n_dcs: 2,
        n_partitions: 32,
        keys_per_partition: 1_000_000,
        write_ratio: 0.05,
        zipf_theta: 0.99,
        sessions: 1_000_000,
        drivers_per_dc: 256,
        mid_rate: 200_000.0,
        over_rate: 2_000_000.0,
        warmup_ns: 100 * MS,
        mid_window_ns: 500 * MS,
        over_window_ns: 250 * MS,
        mid_clusters: 8,
    },
    // The 128-server tier with uniform keys over 32 M: nearly every lookup
    // is a distinct-key hash or a miss, so storage and the scheduler do
    // most of the work here and little in the first two workloads.
    Workload {
        name: "sim_scale_okapi",
        backend: Backend::Okapi,
        runtime: RuntimeKind::Sim,
        n_dcs: 2,
        n_partitions: 64,
        keys_per_partition: 500_000,
        write_ratio: 0.05,
        zipf_theta: 0.0,
        sessions: 1_000_000,
        drivers_per_dc: 512,
        mid_rate: 400_000.0,
        over_rate: 4_000_000.0,
        warmup_ns: 100 * MS,
        mid_window_ns: 300 * MS,
        over_window_ns: 200 * MS,
        mid_clusters: 3,
    },
    // The only workload that crosses the codec, the frame layer, the
    // reactor and real syscalls. One driver thread per core of the
    // two-core box the rates were probed on.
    Workload {
        name: "net_read_contrarian",
        backend: Backend::Contrarian,
        runtime: RuntimeKind::Net,
        n_dcs: 1,
        n_partitions: 4,
        keys_per_partition: 100_000,
        write_ratio: 0.05,
        zipf_theta: 0.99,
        sessions: 100_000,
        drivers_per_dc: 2,
        mid_rate: 3_000.0,
        over_rate: 40_000.0,
        warmup_ns: 0,
        mid_window_ns: 0,
        over_window_ns: 0,
        mid_clusters: 1,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn rate(&self, rung: Rung) -> f64 {
        match rung {
            Rung::Mid => self.mid_rate,
            Rung::Over => self.over_rate,
        }
    }

    pub fn window_ns(&self, rung: Rung) -> u64 {
        match rung {
            Rung::Mid => self.mid_window_ns,
            Rung::Over => self.over_window_ns,
        }
    }

    pub fn cluster(&self) -> ClusterConfig {
        let base = match self.runtime {
            RuntimeKind::Sim => ClusterConfig::paper_default(),
            RuntimeKind::Net => ClusterConfig::small().for_wall_clock(),
        };
        let mut cfg = base
            .with_dcs(self.n_dcs)
            .with_partitions(self.n_partitions)
            .with_rot_mode(RotMode::OneHalfRound);
        cfg.keys_per_partition = self.keys_per_partition;
        cfg.prepopulated = true;
        cfg
    }

    pub fn mix(&self) -> WorkloadSpec {
        WorkloadSpec::paper_default()
            .with_write_ratio(self.write_ratio)
            .with_zipf(self.zipf_theta)
    }

    pub fn spec(&self, rate: f64) -> OpenLoopSpec {
        OpenLoopSpec::new(self.mix(), self.sessions, rate).with_actors_per_dc(self.drivers_per_dc)
    }

    pub fn n_servers(&self) -> usize {
        self.n_dcs as usize * self.n_partitions as usize
    }

    pub fn n_drivers(&self) -> usize {
        self.n_dcs as usize * self.drivers_per_dc as usize
    }
}

/// Runs `$f::<P>($args)` with `P` the workload's backend spec.
#[macro_export]
macro_rules! with_backend {
    ($backend:expr, $f:ident ( $($arg:expr),* $(,)? )) => {
        match $backend {
            $crate::workloads::Backend::Contrarian => $f::<contrarian_core::Contrarian>($($arg),*),
            $crate::workloads::Backend::CcLo => $f::<contrarian_cclo::CcLo>($($arg),*),
            $crate::workloads::Backend::Cure => $f::<contrarian_cure::Cure>($($arg),*),
            $crate::workloads::Backend::Okapi => $f::<contrarian_okapi::Okapi>($($arg),*),
        }
    };
}
