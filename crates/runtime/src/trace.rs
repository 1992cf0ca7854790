//! The deterministic tracer: per-node rings, engine-independent merge,
//! and exporters.
//!
//! Tracing mirrors history recording: every node owns a fixed-capacity
//! [`TraceRing`] that its context fills while the tracing flag is set,
//! and a run's rings merge into one stream ordered by the canonical
//! `(t, node, seq)` key — so the calendar and sharded simulator engines
//! both produce byte-identical traces for the same run, drops
//! included (the ring keeps the *newest* events and counts what it shed;
//! because capacity and the per-node `seq` counter are engine
//! independent, so is the set of surviving events).
//!
//! Exporters: [`chrome_trace_json`] writes the Chrome `trace_event`
//! format (load the file in `chrome://tracing` or Perfetto), and
//! [`summarize`] renders a per-node/per-kind text digest for terminals.

use contrarian_types::{TraceEvent, TraceKind};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

pub use contrarian_types::trace::op_class;

/// Default per-node ring capacity (events). Override with
/// `CONTRARIAN_TRACE_CAP`.
pub const DEFAULT_TRACE_CAP: usize = 1 << 16;

/// Parses a `CONTRARIAN_TRACE_CAP` value: unset is [`DEFAULT_TRACE_CAP`],
/// zero is clamped to 1 (a zero-capacity ring would make every trace
/// empty while still paying the bookkeeping), and anything but a
/// non-negative integer is an error.
pub fn parse_trace_cap(value: Option<&str>) -> Result<usize, String> {
    match value {
        None => Ok(DEFAULT_TRACE_CAP),
        Some(v) => v
            .parse::<usize>()
            .map(|n| n.max(1))
            .map_err(|_| format!("CONTRARIAN_TRACE_CAP must be a non-negative integer, got `{v}`")),
    }
}

/// Reads [`crate::env::TRACE_CAP`] (see [`parse_trace_cap`]); a malformed
/// value panics.
pub fn trace_cap_from_env() -> usize {
    let value = crate::env::var(crate::env::TRACE_CAP);
    parse_trace_cap(value.as_deref()).unwrap_or_else(|e| panic!("{e}"))
}

/// A fixed-capacity ring of trace events for one node.
///
/// The `next_seq` counter is persistent: it keeps incrementing across
/// drops and drains, so event identities never repeat and a drained
/// prefix concatenates with later drains exactly like history segments.
///
/// A ring owns no memory until its first event: every simulated node has
/// one whether or not tracing is ever switched on, and a pre-sized buffer
/// per node was 47 MB of address space (3.7 MB of it resident) on a
/// 1 152-node cluster that never traced.
#[derive(Debug)]
pub struct TraceRing {
    buf: VecDeque<TraceEvent>,
    cap: usize,
    next_seq: u64,
    dropped: u64,
}

impl TraceRing {
    pub fn new(cap: usize) -> Self {
        TraceRing {
            buf: VecDeque::new(),
            cap: cap.max(1),
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Heap bytes: the ring's block (none until tracing first pushes).
    pub fn heap_bytes(&self) -> usize {
        contrarian_types::heap::deque_bytes(&self.buf)
    }

    /// Appends one event, assigning the node-local `seq`. Oldest events
    /// are shed when the ring is full.
    pub fn push(&mut self, t: u64, node: u32, kind: TraceKind, a: u64, b: u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(TraceEvent {
            t,
            node,
            seq,
            kind,
            a,
            b,
        });
    }

    /// Takes the buffered events, leaving the ring empty (identity
    /// counters keep running).
    pub fn drain(&mut self) -> Vec<TraceEvent> {
        self.buf.drain(..).collect()
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events shed to capacity so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Merges per-node (or per-shard) event batches into the canonical
/// stream: ascending `(t, node, seq)`. The same key function histories
/// merge by, so a merged trace is independent of which engine — or which
/// thread schedule — produced the batches.
pub fn merge_traces(batches: Vec<Vec<TraceEvent>>) -> Vec<TraceEvent> {
    let mut all: Vec<TraceEvent> = batches.into_iter().flatten().collect();
    all.sort_unstable();
    all
}

fn json_escape_free(s: &str) -> &str {
    // Labels and names here are all static identifiers; this guard keeps
    // the exporter honest if that ever changes.
    debug_assert!(!s.contains(['"', '\\']));
    s
}

/// Renders a merged trace as Chrome `trace_event` JSON (the "JSON array
/// format"): `OpEnd` events become complete (`"X"`) spans using their
/// carried `t0`, everything else becomes an instant (`"i"`). `pid` is a
/// constant 1 (one logical process), `tid` is the node id, timestamps
/// are microseconds as the format requires (sub-µs detail survives in
/// the `ns` argument).
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 2);
    out.push('[');
    let mut first = true;
    for ev in events {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
        let name = json_escape_free(ev.kind.label());
        match ev.kind {
            TraceKind::OpEnd => {
                let t0 = ev.b;
                let dur_us = (ev.t.saturating_sub(t0)) as f64 / 1000.0;
                let op = if ev.a == op_class::PUT { "put" } else { "rot" };
                let _ = write!(
                    out,
                    "{{\"name\":\"{op}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"seq\":{},\"ns\":{}}}}}",
                    ev.node,
                    t0 as f64 / 1000.0,
                    dur_us,
                    ev.seq,
                    ev.t
                );
            }
            _ => {
                let _ = write!(
                    out,
                    "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"args\":{{\"seq\":{},\"a\":{},\"b\":{},\"ns\":{}}}}}",
                    ev.node,
                    ev.t as f64 / 1000.0,
                    ev.seq,
                    ev.a,
                    ev.b,
                    ev.t
                );
            }
        }
    }
    out.push_str("\n]\n");
    out
}

/// A terminal-friendly digest: per-kind counts, per-node event counts,
/// and op-span statistics recovered from `OpEnd` events.
pub fn summarize(events: &[TraceEvent]) -> String {
    let mut by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut by_node: BTreeMap<u32, u64> = BTreeMap::new();
    let mut spans_ns: Vec<u64> = Vec::new();
    for ev in events {
        *by_kind.entry(ev.kind.label()).or_default() += 1;
        *by_node.entry(ev.node).or_default() += 1;
        if ev.kind == TraceKind::OpEnd {
            spans_ns.push(ev.t.saturating_sub(ev.b));
        }
    }
    let (t_lo, t_hi) = match (events.first(), events.last()) {
        (Some(a), Some(b)) => (a.t, b.t),
        _ => (0, 0),
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace: {} events over [{:.3} ms, {:.3} ms] on {} nodes",
        events.len(),
        t_lo as f64 / 1e6,
        t_hi as f64 / 1e6,
        by_node.len()
    );
    for (kind, n) in &by_kind {
        let _ = writeln!(out, "  {kind:<12} {n}");
    }
    if !spans_ns.is_empty() {
        spans_ns.sort_unstable();
        let pct = |p: f64| spans_ns[((spans_ns.len() - 1) as f64 * p) as usize];
        let _ = writeln!(
            out,
            "  op spans: n={} p50={:.3} ms p99={:.3} ms max={:.3} ms",
            spans_ns.len(),
            pct(0.50) as f64 / 1e6,
            pct(0.99) as f64 / 1e6,
            spans_ns[spans_ns.len() - 1] as f64 / 1e6,
        );
    }
    let busiest = by_node.iter().max_by_key(|(_, n)| **n);
    if let Some((node, n)) = busiest {
        let _ = writeln!(out, "  busiest node: #{node} ({n} events)");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, node: u32, seq: u64, kind: TraceKind, a: u64, b: u64) -> TraceEvent {
        TraceEvent {
            t,
            node,
            seq,
            kind,
            a,
            b,
        }
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let mut r = TraceRing::new(3);
        for i in 0..5 {
            r.push(i, 0, TraceKind::MsgSend, 0, 0);
        }
        assert_eq!(r.dropped(), 2);
        let got = r.drain();
        assert_eq!(got.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![2, 3, 4]);
        // Identity survives the drain: the next push continues the count.
        r.push(9, 0, TraceKind::MsgSend, 0, 0);
        assert_eq!(r.drain()[0].seq, 5);
    }

    #[test]
    fn ring_owns_no_buffer_until_the_first_push() {
        let mut r = TraceRing::new(DEFAULT_TRACE_CAP);
        assert_eq!(r.buf.capacity(), 0, "an untraced node owns no buffer");
        r.push(0, 0, TraceKind::MsgSend, 0, 0);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn merge_is_order_independent() {
        let a = vec![
            ev(3, 0, 1, TraceKind::MsgSend, 0, 0),
            ev(1, 0, 0, TraceKind::MsgSend, 0, 0),
        ];
        let b = vec![ev(2, 1, 0, TraceKind::MsgDeliver, 0, 0)];
        let m1 = merge_traces(vec![a.clone(), b.clone()]);
        let m2 = merge_traces(vec![b, a]);
        assert_eq!(m1, m2);
        assert!(m1.windows(2).all(|w| w[0].key() < w[1].key()));
    }

    #[test]
    fn chrome_export_spans_and_instants() {
        let events = vec![
            ev(1_000, 0, 0, TraceKind::OpBegin, op_class::ROT, 7),
            ev(5_000, 0, 1, TraceKind::OpEnd, op_class::ROT, 1_000),
            ev(2_000, 1, 0, TraceKind::GssAdvance, 10, 3),
        ];
        let json = chrome_trace_json(&events);
        assert!(json.starts_with('['), "array format");
        assert!(json.contains("\"ph\":\"X\""), "OpEnd emits a span");
        assert!(json.contains("\"dur\":4.000"), "span duration in µs");
        assert!(json.contains("\"name\":\"gss_advance\""));
        // Well-formed enough for a JSON parser: balanced brackets/braces.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
    }

    #[test]
    fn summary_counts_kinds_and_spans() {
        let events = vec![
            ev(0, 0, 0, TraceKind::OpBegin, op_class::PUT, 0),
            ev(2_000_000, 0, 1, TraceKind::OpEnd, op_class::PUT, 0),
            ev(500, 1, 0, TraceKind::Park, 2, 1),
        ];
        let s = summarize(&events);
        assert!(s.contains("3 events"));
        assert!(s.contains("op_end       1"));
        assert!(s.contains("p50=2.000 ms"));
    }

    #[test]
    fn env_cap_default_and_clamp() {
        assert_eq!(DEFAULT_TRACE_CAP, 65536);
        assert!(trace_cap_from_env() >= 1);
    }

    #[test]
    fn trace_cap_parse_defaults_clamps_and_rejects() {
        assert_eq!(parse_trace_cap(None), Ok(DEFAULT_TRACE_CAP));
        assert_eq!(parse_trace_cap(Some("0")), Ok(1));
        assert_eq!(parse_trace_cap(Some("64")), Ok(64));
        let err = parse_trace_cap(Some("64k")).unwrap_err();
        assert!(
            err.contains("CONTRARIAN_TRACE_CAP") && err.contains("`64k`"),
            "{err}"
        );
    }
}
