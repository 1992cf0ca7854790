//! The calibrated CPU / network cost model.

/// All CPU and network cost parameters, in nanoseconds.
///
/// The defaults in [`CostModel::calibrated`] were chosen so that the
/// simulated cluster reproduces the paper's low-load latency anchors
/// (Section 5.3–5.4): ≈0.30 ms CC-LO ROTs, ≈0.35 ms Contrarian 1½-round
/// ROTs, ≈0.45 ms 2-round ROTs, ≈1 ms Cure ROTs under NTP-level clock skew —
/// and saturation throughput in the paper's range for 32 partitions. The
/// absolute numbers are a property of the paper's hardware; the *relative*
/// costs (fan-out messages, readers-check ids, marshalling bytes) are what
/// drive every comparison.
#[derive(Clone, Debug)]
pub struct CostModel {
    // --- server CPU, data-path messages (client-facing, replication) ---
    /// Receiving + dispatching one data message.
    pub rx_ns: u64,
    /// Serializing + sending one data message.
    pub tx_ns: u64,
    // --- server CPU, control messages (server↔server checks, vv reports) ---
    /// Receiving one control message (persistent connections, no client
    /// marshalling).
    pub check_rx_ns: u64,
    /// Sending one control message.
    pub check_tx_ns: u64,
    // --- client CPU ---
    /// Client-side processing of one received message.
    pub client_rx_ns: u64,
    /// Client-side cost of building + sending one request message.
    pub client_tx_ns: u64,
    // --- per-operation work ---
    /// Looking one key up in the store.
    pub read_op_ns: u64,
    /// Installing one version.
    pub write_op_ns: u64,
    /// Computing a snapshot vector at a coordinator.
    pub snap_ns: u64,
    /// Walking one version while scanning a chain for visibility.
    pub scan_per_version_ns: u64,
    /// CC-LO: inserting one reader into a reader record.
    pub reader_record_ns: u64,
    /// CC-LO: processing one ROT id during a readers check (either side).
    pub per_rot_id_ns: u64,
    /// Marshalling/unmarshalling cost per KiB of payload.
    pub cpu_per_kb_ns: u64,
    /// Base cost of a timer handler.
    pub timer_ns: u64,
    // --- network ---
    /// One-way intra-DC message latency.
    pub hop_latency_ns: u64,
    /// One-way inter-DC message latency (replication is asynchronous, so
    /// this affects staleness, not operation latency).
    pub interdc_latency_ns: u64,
    /// Heterogeneous topologies: per-pair `(from_dc, to_dc, one_way_ns)`
    /// overrides of `interdc_latency_ns`, directional, first match wins.
    /// Empty for the paper's homogeneous geo-deployments; the related
    /// work's availability scenarios (Okapi) and adaptive per-shard
    /// policies assume links with very different latencies, which is what
    /// makes the per-link lookahead matrix worth deriving.
    pub interdc_overrides: Vec<(u8, u8, u64)>,
    /// Wire transmission time per KiB (10 Gb/s ≈ 800 ns/KiB).
    pub wire_ns_per_kb: u64,
}

impl CostModel {
    /// The calibrated model used by all experiments (see module docs).
    pub fn calibrated() -> Self {
        CostModel {
            rx_ns: 40_000,
            tx_ns: 10_000,
            check_rx_ns: 14_000,
            check_tx_ns: 5_000,
            client_rx_ns: 30_000,
            client_tx_ns: 25_000,
            read_op_ns: 10_000,
            write_op_ns: 20_000,
            snap_ns: 8_000,
            scan_per_version_ns: 500,
            reader_record_ns: 1_500,
            per_rot_id_ns: 380,
            cpu_per_kb_ns: 30_000,
            timer_ns: 2_000,
            hop_latency_ns: 45_000,
            interdc_latency_ns: 10_000_000,
            interdc_overrides: Vec::new(),
            wire_ns_per_kb: 800,
        }
    }

    /// A near-zero-cost model for functional tests where only protocol
    /// behaviour matters, not performance.
    pub fn functional() -> Self {
        CostModel {
            rx_ns: 100,
            tx_ns: 100,
            check_rx_ns: 100,
            check_tx_ns: 100,
            client_rx_ns: 100,
            client_tx_ns: 100,
            read_op_ns: 10,
            write_op_ns: 10,
            snap_ns: 10,
            scan_per_version_ns: 1,
            reader_record_ns: 1,
            per_rot_id_ns: 1,
            cpu_per_kb_ns: 10,
            timer_ns: 10,
            hop_latency_ns: 10_000,
            interdc_latency_ns: 100_000,
            interdc_overrides: Vec::new(),
            wire_ns_per_kb: 10,
        }
    }

    /// Marshalling CPU for a payload of `bytes`.
    #[inline]
    pub fn cpu_bytes(&self, bytes: usize) -> u64 {
        (bytes as u64 * self.cpu_per_kb_ns) >> 10
    }

    /// One-way network latency from `from_dc` to `to_dc`: the intra-DC hop
    /// for a DC talking to itself, the matching [`Self::interdc_overrides`]
    /// entry if one exists (directional, first match wins), and the uniform
    /// `interdc_latency_ns` otherwise.
    #[inline]
    pub fn link_latency(&self, from_dc: u8, to_dc: u8) -> u64 {
        if from_dc == to_dc {
            return self.hop_latency_ns;
        }
        self.interdc_overrides
            .iter()
            .find(|&&(f, t, _)| f == from_dc && t == to_dc)
            .map(|&(_, _, ns)| ns)
            .unwrap_or(self.interdc_latency_ns)
    }

    /// The per-link lookahead matrix of a cluster of `n_dcs` DCs, one
    /// simulator shard each: entry `(i, j)` is [`Self::link_latency`]`(i,
    /// j)`, a lower bound on the arrival delta of any message DC `i` sends
    /// DC `j` — every other term of an arrival time (sender CPU, wire time
    /// per byte, per-link FIFO clamping) only pushes delivery later. The
    /// result is metric-closed ([`LookaheadMatrix::close`]), so it stays a
    /// valid bound for influence relayed through intermediate DCs across
    /// multiple window rounds. A zero entry (degenerate cost models) means
    /// that pair has no usable window and the engine runs in lockstep.
    pub fn lookahead_matrix(&self, n_dcs: usize) -> LookaheadMatrix {
        let mut m = LookaheadMatrix::from_fn(n_dcs, |i, j| self.link_latency(i as u8, j as u8));
        m.close();
        m
    }

    /// Wire transmission time for a message of `bytes`.
    #[inline]
    pub fn wire_bytes(&self, bytes: usize) -> u64 {
        (bytes as u64 * self.wire_ns_per_kb) >> 10
    }
}

/// An `n × n` matrix of per-link conservative lookaheads for the sharded
/// simulator: entry `(i, j)` lower-bounds the arrival delta of any message
/// a node of shard `i` sends to a node of shard `j`. The diagonal is
/// forced to zero and never consulted — a shard needs no bound against
/// itself. The parallel engine is sound only for *metric-closed* matrices
/// (entry `(i, j)` ≤ any path sum `i → k → … → j`): shard `j`'s horizon in
/// one window round only inspects the other shards' *current* clocks, so a
/// cheap two-hop relay through `k` must never undercut the direct bound.
/// [`LookaheadMatrix::close`] enforces this; [`CostModel::lookahead_matrix`]
/// returns closed matrices. The default is the empty matrix of a simulator
/// that has not started.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LookaheadMatrix {
    n: usize,
    min_ns: Vec<u64>,
}

impl LookaheadMatrix {
    /// Heap bytes of the matrix.
    pub fn heap_bytes(&self) -> usize {
        contrarian_types::heap::vec_bytes(&self.min_ns)
    }

    /// Builds from an entry function; the diagonal is forced to zero. The
    /// result is *not* closed — call [`Self::close`] before driving an
    /// engine with it.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> u64) -> Self {
        let mut min_ns = vec![0u64; n * n];
        for i in 0..n {
            for j in 0..n {
                min_ns[i * n + j] = if i == j { 0 } else { f(i, j) };
            }
        }
        LookaheadMatrix { n, min_ns }
    }

    /// Matrix dimension (the shard count it was built for).
    pub fn n(&self) -> usize {
        self.n
    }

    #[inline]
    pub fn get(&self, from: usize, to: usize) -> u64 {
        self.min_ns[from * self.n + to]
    }

    /// Min-plus metric closure (Floyd–Warshall, saturating): lowers every
    /// entry to the cheapest relay path, making multi-round transitive
    /// influence respect the pairwise bounds. Idempotent; only ever lowers
    /// entries, so a closed entry is still a valid per-message lower bound
    /// (real messages travel direct links, which cost at least the raw
    /// entry).
    pub fn close(&mut self) {
        let n = self.n;
        for k in 0..n {
            for i in 0..n {
                let ik = self.min_ns[i * n + k];
                if ik == u64::MAX {
                    continue;
                }
                for j in 0..n {
                    let via = ik.saturating_add(self.min_ns[k * n + j]);
                    if via < self.min_ns[i * n + j] {
                        self.min_ns[i * n + j] = via;
                    }
                }
            }
        }
    }

    /// The smallest off-diagonal entry — the engine's lockstep-fallback
    /// test (zero means some pair of shards has no usable window) and its
    /// per-round progress bound. `u64::MAX` for matrices of dimension ≤ 1.
    pub fn min_off_diagonal(&self) -> u64 {
        let mut min = u64::MAX;
        for i in 0..self.n {
            for j in 0..self.n {
                if i != j {
                    min = min.min(self.get(i, j));
                }
            }
        }
        min
    }

    /// Shard `to`'s conservative horizon: the earliest instant any message
    /// could still arrive at it, given each shard's earliest pending event
    /// time (`u64::MAX` = idle; an idle shard sends nothing until something
    /// reaches it, and relayed influence through busy shards is covered by
    /// metric closure). Events of shard `to` strictly before this bound are
    /// safe to execute without further communication.
    ///
    /// Two terms per peer `i`:
    ///
    /// * `next_t[i] + L(i, to)` — a chain starting at `i`'s earliest
    ///   pending event (closure makes the single entry cover multi-hop
    ///   relays);
    /// * `next_t[to] + L(to, i) + L(i, to)` — the *bounce-back*: `to`'s
    ///   own pending work can send to `i`, whose reply lands back at `to`
    ///   after a round trip. Without this term a shard far ahead of the
    ///   pack would over-run the replies its own sends provoke (the
    ///   classic self-influence hazard of per-link conservative bounds;
    ///   a global scalar window would avoid it only because every shard
    ///   shares one bound).
    pub fn horizon(&self, to: usize, next_t: &[u64]) -> u64 {
        debug_assert_eq!(next_t.len(), self.n);
        let own = next_t[to];
        let mut h = u64::MAX;
        for (i, &t) in next_t.iter().enumerate() {
            if i != to {
                let back = self.get(i, to);
                h = h.min(t.saturating_add(back));
                h = h.min(own.saturating_add(self.get(to, i)).saturating_add(back));
            }
        }
        h
    }
}

/// Message classes, mapped to cost-model parameters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MsgClass {
    /// Client-facing or replication data message.
    Data,
    /// Server↔server control message (readers checks, dep checks,
    /// stabilization reports, heartbeats).
    Control,
}

/// What the simulator needs to know about a protocol message.
pub trait SimMessage {
    /// Estimated serialized size in bytes (drives wire + marshalling costs).
    fn wire_size(&self) -> usize;

    /// Heap bytes the message owns beyond its inline size (a heap census
    /// of the events and backlogs holding it; shared value blocks are
    /// their writer's).
    fn heap_bytes(&self) -> usize {
        0
    }

    /// Data or control path.
    fn class(&self) -> MsgClass;

    /// Extra *receive-side* CPU beyond the per-class base (e.g. per-ROT-id
    /// work for a readers-check reply carrying `k` ids).
    fn rx_extra(&self, _m: &CostModel) -> u64 {
        0
    }

    /// Full receive-side service time at a server.
    fn rx_cost(&self, m: &CostModel) -> u64 {
        let base = match self.class() {
            MsgClass::Data => m.rx_ns,
            MsgClass::Control => m.check_rx_ns,
        };
        base + m.cpu_bytes(self.wire_size()) + self.rx_extra(m)
    }

    /// Send-side CPU at a server.
    fn tx_cost(&self, m: &CostModel) -> u64 {
        let base = match self.class() {
            MsgClass::Data => m.tx_ns,
            MsgClass::Control => m.check_tx_ns,
        };
        base + m.cpu_bytes(self.wire_size())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake(usize, MsgClass);
    impl SimMessage for Fake {
        fn wire_size(&self) -> usize {
            self.0
        }
        fn class(&self) -> MsgClass {
            self.1
        }
    }

    #[test]
    fn byte_costs_scale_linearly() {
        let m = CostModel::calibrated();
        assert_eq!(m.cpu_bytes(1024), m.cpu_per_kb_ns);
        assert_eq!(m.cpu_bytes(2048), 2 * m.cpu_per_kb_ns);
        assert_eq!(m.wire_bytes(0), 0);
    }

    #[test]
    fn control_messages_are_cheaper() {
        let m = CostModel::calibrated();
        let data = Fake(64, MsgClass::Data);
        let ctrl = Fake(64, MsgClass::Control);
        assert!(ctrl.rx_cost(&m) < data.rx_cost(&m));
        assert!(ctrl.tx_cost(&m) < data.tx_cost(&m));
    }

    #[test]
    fn link_latency_resolves_hop_override_then_uniform() {
        let mut m = CostModel::calibrated();
        m.interdc_overrides = vec![(0, 1, 2_000_000), (1, 0, 3_000_000)];
        assert_eq!(m.link_latency(0, 0), m.hop_latency_ns);
        assert_eq!(m.link_latency(0, 1), 2_000_000);
        assert_eq!(m.link_latency(1, 0), 3_000_000, "overrides are directional");
        assert_eq!(m.link_latency(0, 2), m.interdc_latency_ns);
    }

    #[test]
    fn lookahead_is_the_interdc_latency() {
        // The window width of the sharded engine: must never exceed the
        // earliest possible cross-DC arrival. All other arrival-time terms
        // (tx CPU, wire bytes, FIFO clamp) are non-negative.
        let m = CostModel::calibrated();
        let la = m.lookahead_matrix(2);
        assert_eq!(la.n(), 2);
        assert_eq!(la.get(0, 1), m.interdc_latency_ns);
        assert_eq!(la.get(1, 0), m.interdc_latency_ns);
        assert!(la.min_off_diagonal() > 0);
    }

    #[test]
    fn lookahead_matrix_is_the_closed_per_dc_latency_table() {
        // Directional overrides, one of them slower than the relay path
        // 0 → 1 → 2 (2 ms + 10 ms), which closure caps it at.
        let mut m = CostModel::calibrated();
        m.interdc_overrides = vec![(0, 1, 2_000_000), (0, 2, 100_000_000)];
        let la = m.lookahead_matrix(3);
        assert_eq!(la.get(0, 0), 0, "diagonal is never consulted");
        assert_eq!(la.get(0, 1), 2_000_000);
        assert_eq!(
            la.get(1, 0),
            m.interdc_latency_ns,
            "reverse direction is not overridden"
        );
        assert_eq!(la.get(0, 2), 2_000_000 + m.interdc_latency_ns);
        assert_eq!(la.min_off_diagonal(), 2_000_000);
        assert_eq!(m.lookahead_matrix(1).min_off_diagonal(), u64::MAX);
    }

    #[test]
    fn metric_closure_caps_entries_at_relay_paths() {
        // Direct 0→2 is slow (100), but 0→1→2 costs 5 + 7: the closed bound
        // must drop to 12, else influence relayed through shard 1 over two
        // window rounds could land inside shard 2's window.
        let mut la = LookaheadMatrix::from_fn(3, |i, j| match (i, j) {
            (0, 2) => 100,
            (0, 1) => 5,
            (1, 2) => 7,
            _ => 50,
        });
        la.close();
        assert_eq!(la.get(0, 2), 12);
        assert_eq!(la.get(0, 1), 5);
        let again = {
            let mut c = la.clone();
            c.close();
            c
        };
        assert_eq!(again, la, "closure is idempotent");
        // Saturated entries neither overflow nor infect finite paths.
        let mut sat = LookaheadMatrix::from_fn(3, |i, j| match (i, j) {
            (0, 1) | (1, 0) => u64::MAX,
            _ => 10,
        });
        sat.close();
        assert_eq!(
            sat.get(0, 1),
            20,
            "0→2→1 relay undercuts the unreachable direct link"
        );
    }

    #[test]
    fn horizon_is_min_over_other_shards_clocks_plus_bounds() {
        let la = LookaheadMatrix::from_fn(3, |_, _| 10);
        // The laggard is gated by its own bounce-back (0 + 10 + 10), not
        // the peers' clocks.
        assert_eq!(la.horizon(0, &[0, 100, 40]), 20);
        assert_eq!(la.horizon(1, &[5, 100, 40]), 15, "gated by shard 0's clock");
        // Idle peers (u64::MAX) saturate out of the incoming-chain terms,
        // but the bounce-back still applies: the busy shard's own sends can
        // wake an idle peer into replying.
        assert_eq!(la.horizon(0, &[0, u64::MAX, u64::MAX]), 20);
        // A genuinely idle shard has an unbounded horizon.
        assert_eq!(la.horizon(0, &[u64::MAX; 3]), u64::MAX);
        assert_eq!(la.min_off_diagonal(), 10);
    }

    #[test]
    fn large_values_dominate_cost() {
        // Section 5.8: with 2 KiB values marshalling dominates per-message
        // overhead, shrinking the gap between designs.
        let m = CostModel::calibrated();
        let big = Fake(2048, MsgClass::Data);
        assert!(m.cpu_bytes(big.wire_size()) > m.rx_ns);
    }
}
