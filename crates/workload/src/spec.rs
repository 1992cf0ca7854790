//! Workload parameterization (Table 1).

/// The workload parameters of Table 1. Defaults (bold in the paper):
/// `w = 0.05` (YCSB read-heavy), `p = 4`, `b = 8`, `z = 0.99`.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Write/read ratio `w = #PUT / (#PUT + #reads)`; a ROT of `k` keys
    /// counts as `k` reads.
    pub write_ratio: f64,
    /// Number of partitions spanned by a ROT (one key per partition).
    pub rot_size: u16,
    /// Value size in bytes.
    pub value_size: usize,
    /// Zipfian skew of key popularity within a partition.
    pub zipf_theta: f64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl WorkloadSpec {
    /// The paper's default workload.
    pub fn paper_default() -> Self {
        WorkloadSpec {
            write_ratio: 0.05,
            rot_size: 4,
            value_size: 8,
            zipf_theta: 0.99,
        }
    }

    pub fn with_write_ratio(mut self, w: f64) -> Self {
        self.write_ratio = w;
        self
    }

    pub fn with_rot_size(mut self, p: u16) -> Self {
        self.rot_size = p;
        self
    }

    pub fn with_value_size(mut self, b: usize) -> Self {
        self.value_size = b;
        self
    }

    pub fn with_zipf(mut self, z: f64) -> Self {
        self.zipf_theta = z;
        self
    }

    /// Probability that the next operation is a PUT.
    ///
    /// With PUT probability `q` per operation, a client produces `q` PUTs
    /// and `(1-q)·p` reads per operation in expectation, so
    /// `w = q / (q + (1-q)·p)`, which solves to `q = w·p / (1 - w + w·p)`.
    pub fn put_probability(&self) -> f64 {
        let w = self.write_ratio;
        let p = self.rot_size as f64;
        w * p / (1.0 - w + w * p)
    }

    /// The full Table 1 parameter grid (for documentation binaries).
    pub fn table1_grid() -> (Vec<f64>, Vec<u16>, Vec<usize>, Vec<f64>) {
        (
            vec![0.01, 0.05, 0.1],
            vec![4, 8, 24],
            vec![8, 128, 2048],
            vec![0.99, 0.8, 0.0],
        )
    }
}

/// Parameters of one open-loop (saturation) load: how many logical
/// sessions, at what aggregate offered rate, multiplexed onto how many
/// driver actors per DC. See [`crate::openloop`] for the model.
#[derive(Clone, Debug)]
pub struct OpenLoopSpec {
    /// The operation mix (Table 1 knobs) every session draws from.
    pub workload: WorkloadSpec,
    /// Total logical sessions across the whole cluster. A driver actor
    /// keeps no per-session state: only `sessions × session_rate` per
    /// actor — its shard's aggregate rate — shapes its arrival stream.
    pub sessions: u64,
    /// Aggregate offered rate across all sessions, operations per second.
    pub offered_ops_per_sec: f64,
    /// Bounded driver-actor pool size per DC; sessions are sharded evenly
    /// across `n_dcs × actors_per_dc` actors.
    pub actors_per_dc: u16,
}

impl OpenLoopSpec {
    pub fn new(workload: WorkloadSpec, sessions: u64, offered_ops_per_sec: f64) -> Self {
        assert!(sessions > 0);
        assert!(offered_ops_per_sec > 0.0);
        OpenLoopSpec {
            workload,
            sessions,
            offered_ops_per_sec,
            actors_per_dc: 8,
        }
    }

    pub fn with_actors_per_dc(mut self, n: u16) -> Self {
        assert!(n > 0);
        self.actors_per_dc = n;
        self
    }

    pub fn with_offered(mut self, ops_per_sec: f64) -> Self {
        assert!(ops_per_sec > 0.0);
        self.offered_ops_per_sec = ops_per_sec;
        self
    }

    /// Per-session Poisson rate: the aggregate rate split evenly.
    pub fn session_rate(&self) -> f64 {
        self.offered_ops_per_sec / self.sessions as f64
    }

    /// Number of sessions owned by actor `i` of `total`: an even split
    /// with the remainder going to the lowest-indexed actors, so the
    /// shard sizes differ by at most one.
    pub fn sessions_for(&self, i: usize, total: usize) -> u64 {
        debug_assert!(i < total);
        let (total, i) = (total as u64, i as u64);
        self.sessions / total + u64::from(i < self.sessions % total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_default() {
        let s = WorkloadSpec::default();
        assert_eq!(s.write_ratio, 0.05);
        assert_eq!(s.rot_size, 4);
        assert_eq!(s.value_size, 8);
        assert_eq!(s.zipf_theta, 0.99);
    }

    #[test]
    fn put_probability_realizes_write_ratio() {
        // For any (w, p): q/(q + (1-q)p) must equal w.
        for w in [0.01, 0.05, 0.1, 0.5] {
            for p in [1u16, 4, 8, 24] {
                let s = WorkloadSpec::paper_default()
                    .with_write_ratio(w)
                    .with_rot_size(p);
                let q = s.put_probability();
                let realized = q / (q + (1.0 - q) * p as f64);
                assert!((realized - w).abs() < 1e-12, "w={w} p={p}");
            }
        }
    }

    #[test]
    fn put_probability_default_value() {
        // w=0.05, p=4 → q = 0.2/1.15 ≈ 0.1739.
        let q = WorkloadSpec::paper_default().put_probability();
        assert!((q - 0.17391304).abs() < 1e-6);
    }

    #[test]
    fn builders() {
        let s = WorkloadSpec::paper_default()
            .with_value_size(2048)
            .with_zipf(0.8);
        assert_eq!(s.value_size, 2048);
        assert_eq!(s.zipf_theta, 0.8);
    }

    #[test]
    fn open_loop_session_sharding_is_even_and_exhaustive() {
        let spec = OpenLoopSpec::new(WorkloadSpec::paper_default(), 1_000_003, 50_000.0);
        let total = 24;
        let shards: Vec<u64> = (0..total).map(|i| spec.sessions_for(i, total)).collect();
        assert_eq!(shards.iter().sum::<u64>(), 1_000_003);
        let (min, max) = (shards.iter().min().unwrap(), shards.iter().max().unwrap());
        assert!(max - min <= 1, "shards differ by at most one session");
    }

    #[test]
    fn open_loop_session_rate_splits_offered_rate() {
        let spec = OpenLoopSpec::new(WorkloadSpec::paper_default(), 1_000_000, 250_000.0)
            .with_actors_per_dc(16);
        assert!((spec.session_rate() - 0.25).abs() < 1e-12);
        assert_eq!(spec.actors_per_dc, 16);
    }

    #[test]
    fn put_probability_at_the_extremes() {
        let w = |ratio| WorkloadSpec::paper_default().with_write_ratio(ratio);
        assert_eq!(w(0.0).put_probability(), 0.0);
        assert_eq!(w(1.0).put_probability(), 1.0);
        // A one-key ROT is one read: the PUT share is the write ratio.
        let single = w(0.3).with_rot_size(1);
        assert!((single.put_probability() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn the_table1_grid_holds_the_defaults() {
        let d = WorkloadSpec::paper_default();
        let (w, p, b, z) = WorkloadSpec::table1_grid();
        assert!(w.contains(&d.write_ratio));
        assert!(p.contains(&d.rot_size));
        assert!(b.contains(&d.value_size));
        assert!(z.contains(&d.zipf_theta));
    }

    #[test]
    fn more_actors_than_sessions_leave_the_last_ones_idle() {
        let spec = OpenLoopSpec::new(WorkloadSpec::paper_default(), 3, 100.0);
        let shards: Vec<u64> = (0..5).map(|i| spec.sessions_for(i, 5)).collect();
        assert_eq!(shards, [1, 1, 1, 0, 0]);
    }
}
