//! Cluster-level configuration shared by all three protocols.

/// How Contrarian runs its ROTs: 1½ rounds (3 communication steps: client →
/// coordinator → partitions → client) or 2 rounds (4 steps: client →
/// coordinator → client → partitions → client), the paper's two variants
/// (Section 4).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RotMode {
    /// 3 communication steps; lower latency, more messages (Figure 3a).
    OneHalfRound,
    /// 4 communication steps; fewer messages, ~8% higher peak throughput
    /// (Figure 3b).
    TwoRound,
}

/// Static description of the cluster and of protocol tuning knobs.
///
/// Defaults mirror the paper's platform (Section 5.2): 32 partitions, 1M
/// keys per partition, stabilization every 5 ms, 500 ms garbage collection
/// of ROT ids in CC-LO reader records.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of DCs (`M ≥ 1`).
    pub n_dcs: u8,
    /// Number of partitions per DC (`N > 1`).
    pub n_partitions: u16,
    /// Worker threads per storage server (models the 16-hw-thread machines).
    pub workers_per_server: u16,
    /// Keys per partition (storage is lazily materialized).
    pub keys_per_partition: u64,
    /// Stabilization (GSS computation) period, microseconds.
    pub stabilization_interval_us: u64,
    /// Idle heartbeat period for replication channels, microseconds.
    pub heartbeat_interval_us: u64,
    /// CC-LO: ROT ids are garbage-collected from reader records this long
    /// after insertion (the paper's optimized implementation uses 500 ms).
    pub old_reader_gc_us: u64,
    /// Version chains retain superseded versions at least this long so that
    /// slightly stale snapshots remain readable.
    pub version_gc_retention_us: u64,
    /// Bound on simulated physical clock offset from true time (±), in
    /// microseconds. Only physical-clock protocols (Cure) block on it; HLC
    /// and Lamport protocols stay nonblocking regardless.
    pub clock_skew_us: u64,
    /// Contrarian ROT mode.
    pub rot_mode: RotMode,
    /// Whether the data set is preloaded: the paper's platform stores 1M
    /// keys per partition *before* the run, so reads never return ⊥. When
    /// set, reads of never-written keys serve the shared genesis version
    /// (timestamp 0, no dependencies) instead of ⊥.
    pub prepopulated: bool,
}

impl ClusterConfig {
    /// The paper's evaluation platform: 32 partitions, 1M keys each.
    pub fn paper_default() -> Self {
        ClusterConfig {
            n_dcs: 1,
            n_partitions: 32,
            workers_per_server: 2,
            keys_per_partition: 1_000_000,
            stabilization_interval_us: 5_000,
            heartbeat_interval_us: 1_000,
            old_reader_gc_us: 500_000,
            version_gc_retention_us: 1_000_000,
            clock_skew_us: 1_000,
            rot_mode: RotMode::OneHalfRound,
            prepopulated: true,
        }
    }

    /// A production-scale cluster: 128 partitions, 4× the paper's platform.
    /// The key count per partition is scaled down so the whole cluster
    /// still covers the paper's ~32M-key data set.
    pub fn large() -> Self {
        ClusterConfig {
            n_partitions: 128,
            keys_per_partition: 250_000,
            ..ClusterConfig::paper_default()
        }
    }

    /// The 256-partition tier: 8× the paper's platform, geo-replicated
    /// over two DCs so the sharded engine has a real shard boundary (the
    /// scale this tier exists to exercise). Keys per partition again
    /// scaled so the cluster covers the paper's ~32M-key data set.
    pub fn xlarge() -> Self {
        ClusterConfig {
            n_dcs: 2,
            n_partitions: 256,
            keys_per_partition: 125_000,
            ..ClusterConfig::paper_default()
        }
    }

    /// A small cluster for unit and integration tests.
    pub fn small() -> Self {
        ClusterConfig {
            n_dcs: 1,
            n_partitions: 4,
            workers_per_server: 2,
            keys_per_partition: 64,
            stabilization_interval_us: 1_000,
            heartbeat_interval_us: 500,
            old_reader_gc_us: 100_000,
            version_gc_retention_us: 200_000,
            clock_skew_us: 500,
            rot_mode: RotMode::OneHalfRound,
            prepopulated: false,
        }
    }

    pub fn with_dcs(mut self, m: u8) -> Self {
        self.n_dcs = m;
        self
    }

    pub fn with_partitions(mut self, n: u16) -> Self {
        self.n_partitions = n;
        self
    }

    pub fn with_rot_mode(mut self, mode: RotMode) -> Self {
        self.rot_mode = mode;
        self
    }

    /// Adjusts a configuration for wall-clock execution (the live
    /// transports): simulated clock skew is meaningless under a real
    /// clock, and the test defaults' sub-millisecond stabilization /
    /// heartbeat periods are simulator-tuned — over real sockets every
    /// tick is a frame plus thread wakeups per server, and production
    /// systems stabilize every few milliseconds (the paper uses 5 ms).
    pub fn for_wall_clock(mut self) -> Self {
        self.clock_skew_us = 0;
        self.stabilization_interval_us = 5_000;
        self.heartbeat_interval_us = 5_000;
        self
    }

    /// Number of storage servers in the whole cluster.
    pub fn n_servers(&self) -> usize {
        self.n_dcs as usize * self.n_partitions as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_5_2() {
        let c = ClusterConfig::paper_default();
        assert_eq!(c.n_partitions, 32);
        assert_eq!(c.keys_per_partition, 1_000_000);
        assert_eq!(c.stabilization_interval_us, 5_000);
        assert_eq!(c.old_reader_gc_us, 500_000);
    }

    #[test]
    fn xlarge_tier_is_geo_replicated_and_covers_the_paper_data_set() {
        let c = ClusterConfig::xlarge();
        assert_eq!(c.n_partitions, 256);
        assert!(c.n_dcs >= 2, "a single-DC cluster has no shard boundary");
        assert_eq!(
            c.n_partitions as u64 * c.keys_per_partition,
            ClusterConfig::paper_default().n_partitions as u64
                * ClusterConfig::paper_default().keys_per_partition
        );
    }

    #[test]
    fn builders_compose() {
        let c = ClusterConfig::small().with_dcs(2).with_partitions(8);
        assert_eq!(c.n_dcs, 2);
        assert_eq!(c.n_servers(), 16);
    }

    #[test]
    fn wall_clock_config_softens_control_plane() {
        let c = ClusterConfig::small().for_wall_clock();
        assert_eq!(c.clock_skew_us, 0);
        assert_eq!(c.stabilization_interval_us, 5_000);
        assert_eq!(c.heartbeat_interval_us, 5_000);
    }
}
