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
#[derive(Clone, Copy, Debug)]
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
            wire_ns_per_kb: 10,
        }
    }

    /// Marshalling CPU for a payload of `bytes`.
    #[inline]
    pub fn cpu_bytes(&self, bytes: usize) -> u64 {
        (bytes as u64 * self.cpu_per_kb_ns) >> 10
    }

    /// One-way network latency from `from_dc` to `to_dc`: the intra-DC hop
    /// for a DC talking to itself, the uniform `interdc_latency_ns`
    /// otherwise.
    #[inline]
    pub fn link_latency(&self, from_dc: u8, to_dc: u8) -> u64 {
        if from_dc == to_dc {
            self.hop_latency_ns
        } else {
            self.interdc_latency_ns
        }
    }

    /// Wire transmission time for a message of `bytes`.
    #[inline]
    pub fn wire_bytes(&self, bytes: usize) -> u64 {
        (bytes as u64 * self.wire_ns_per_kb) >> 10
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
    fn link_latency_is_the_hop_within_a_dc_and_uniform_across() {
        let m = CostModel::calibrated();
        assert_eq!(m.link_latency(0, 0), m.hop_latency_ns);
        assert_eq!(m.link_latency(0, 1), m.interdc_latency_ns);
        assert_eq!(m.link_latency(2, 0), m.interdc_latency_ns);
    }

    #[test]
    fn large_values_dominate_cost() {
        // Section 5.8: with 2 KiB values marshalling dominates per-message
        // overhead, shrinking the gap between designs.
        let m = CostModel::calibrated();
        let big = Fake(2048, MsgClass::Data);
        assert!(m.cpu_bytes(big.wire_size()) > m.rx_ns);
    }

    #[test]
    fn wire_time_follows_the_wire_rate() {
        let m = CostModel::calibrated();
        assert_eq!(m.wire_bytes(1024), m.wire_ns_per_kb);
        assert_eq!(m.wire_bytes(4096), 4 * m.wire_ns_per_kb);
        assert!(CostModel::functional().wire_bytes(4096) < m.wire_bytes(4096));
    }

    #[test]
    fn receive_side_extra_work_is_not_charged_on_send() {
        struct Check;
        impl SimMessage for Check {
            fn wire_size(&self) -> usize {
                0
            }
            fn class(&self) -> MsgClass {
                MsgClass::Control
            }
            fn rx_extra(&self, m: &CostModel) -> u64 {
                10 * m.per_rot_id_ns
            }
        }
        let m = CostModel::calibrated();
        assert_eq!(Check.rx_cost(&m), m.check_rx_ns + 10 * m.per_rot_id_ns);
        assert_eq!(Check.tx_cost(&m), m.check_tx_ns);
    }
}
