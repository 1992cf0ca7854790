//! Deterministic trace identities: what one traced occurrence *is*.
//!
//! A [`TraceEvent`] is the tracing analogue of a tagged history record:
//! it carries the virtual/wall timestamp the runtime already maintains
//! plus a `(node, seq)` identity assigned by the emitting node, so traces
//! collected by different simulator engines (calendar, sharded)
//! merge into the *same* byte sequence the way histories do — sorting by
//! `(t, node, seq)` is a total order no engine interleaving can perturb.
//!
//! The payload stays deliberately flat (`kind` + two `u64` arguments)
//! so building an event costs two stores and no allocation; semantic
//! interpretation of `a`/`b` per kind lives in the table on
//! [`TraceKind`].

/// What kind of occurrence a [`TraceEvent`] records.
///
/// Argument meaning per kind:
///
/// | kind | `a` | `b` |
/// |---|---|---|
/// | `OpBegin` | op class (0 = ROT, 1 = PUT) | op sequence number |
/// | `OpEnd` | op class (0 = ROT, 1 = PUT) | start timestamp `t0` |
/// | `MsgSend` | destination node (global id) | wire size (bytes) |
/// | `MsgDeliver` | source node (global id) | wire size (bytes) |
/// | `Park` | park class (protocol-defined) | queue depth after parking |
/// | `Unpark` | park class (protocol-defined) | nanoseconds spent parked |
/// | `GssAdvance` | new GSS minimum entry | lag (fresh − GSS min) |
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
#[repr(u8)]
pub enum TraceKind {
    OpBegin = 0,
    OpEnd = 1,
    MsgSend = 2,
    MsgDeliver = 3,
    Park = 4,
    Unpark = 5,
    GssAdvance = 6,
}

impl TraceKind {
    /// Short stable label used by exporters.
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::OpBegin => "op_begin",
            TraceKind::OpEnd => "op_end",
            TraceKind::MsgSend => "msg_send",
            TraceKind::MsgDeliver => "msg_deliver",
            TraceKind::Park => "park",
            TraceKind::Unpark => "unpark",
            TraceKind::GssAdvance => "gss_advance",
        }
    }
}

/// Op classes used in `OpBegin`/`OpEnd` events' `a` argument.
pub mod op_class {
    pub const ROT: u64 = 0;
    pub const PUT: u64 = 1;
}

/// One traced occurrence on one node.
///
/// `node` is the emitting node's *global* id (dense index over the
/// cluster's address list — the same id the simulator uses for event
/// keys), and `seq` is a per-node counter that keeps incrementing even
/// when the ring drops events, so drops are engine-independent and a
/// merged trace is a deterministic function of the run, never of the
/// engine or thread schedule.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TraceEvent {
    /// Virtual (simulator) or wall (live runtime) nanoseconds.
    pub t: u64,
    /// Emitting node's global id.
    pub node: u32,
    /// Per-node emission counter (monotone, survives ring drops).
    pub seq: u64,
    pub kind: TraceKind,
    /// First argument (see [`TraceKind`] table).
    pub a: u64,
    /// Second argument (see [`TraceKind`] table).
    pub b: u64,
}

impl TraceEvent {
    /// The canonical merge key: identical for the same logical run on
    /// every engine.
    pub fn key(&self) -> (u64, u32, u64) {
        (self.t, self.node, self.seq)
    }
}

impl PartialOrd for TraceEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TraceEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_order_by_time_then_node_then_seq() {
        let ev = |t, node, seq| TraceEvent {
            t,
            node,
            seq,
            kind: TraceKind::MsgSend,
            a: 0,
            b: 0,
        };
        let mut v = [ev(5, 0, 1), ev(1, 2, 0), ev(1, 1, 7), ev(1, 1, 3)];
        v.sort();
        let keys: Vec<_> = v.iter().map(|e| e.key()).collect();
        assert_eq!(keys, vec![(1, 1, 3), (1, 1, 7), (1, 2, 0), (5, 0, 1)]);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(TraceKind::OpBegin.label(), "op_begin");
        assert_eq!(TraceKind::GssAdvance.label(), "gss_advance");
    }

    const KINDS: [TraceKind; 7] = [
        TraceKind::OpBegin,
        TraceKind::OpEnd,
        TraceKind::MsgSend,
        TraceKind::MsgDeliver,
        TraceKind::Park,
        TraceKind::Unpark,
        TraceKind::GssAdvance,
    ];

    #[test]
    fn kinds_are_dense_bytes_with_distinct_labels() {
        for (i, k) in KINDS.iter().enumerate() {
            assert_eq!(*k as u8 as usize, i, "{k:?}");
        }
        let mut labels: Vec<&str> = KINDS.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), KINDS.len());
    }

    #[test]
    fn the_merge_order_ignores_the_payload() {
        let ev = |kind, a| TraceEvent {
            t: 3,
            node: 1,
            seq: 2,
            kind,
            a,
            b: 0,
        };
        let (x, y) = (ev(TraceKind::Park, 5), ev(TraceKind::Unpark, 9));
        assert_eq!(x.cmp(&y), std::cmp::Ordering::Equal);
        assert_ne!(x, y);
    }
}
