//! The outside-in layer replay: a small event loop the benchmark owns,
//! which runs the workload's real nodes and times every call into a
//! layer's public functions.
//!
//! It builds the nodes with `build_openloop_nodes`, implements `ActorCtx`
//! itself, and delivers events in `(t, seq)` order out of a
//! `CalendarQueue` at the cost model's link latency. Every sent message
//! goes `Wire::encode -> encode_frame -> FrameAssembler -> Wire::decode`
//! in memory, the path the TCP runtime takes minus the socket. Servers
//! have no service time and no worker queue here: the replay prices the
//! host work of each layer, not virtual latency.
//!
//! With spans on, each of those calls is wrapped in an in-memory span
//! (layer, start, end, causing span, op id). The same loop runs once with
//! spans off; the difference is the tracing overhead.

use crate::machine::cpu_ns;
use crate::workloads::{Rung, Workload};
use contrarian_protocol::{build_openloop_nodes, ProtoNode, ProtocolSpec};
use contrarian_runtime::actor::{Actor, ActorCtx, TimerKind};
use contrarian_runtime::cost::CostModel;
use contrarian_runtime::metrics::Metrics;
use contrarian_runtime::{encode_frame, node_seed, FrameAssembler};
use contrarian_sim::sched::CalendarQueue;
use contrarian_types::codec::Reader;
use contrarian_types::{Addr, HistoryEvent, Wire};
use contrarian_workload::{ClientDriver, Draw, OpenLoopDriver, Zipf};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// The layer a span belongs to (layer = crate name; `backend` is whichever
/// of core/cclo/cure/okapi the workload runs).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Layer {
    /// `OpenLoopDriver::draw` on the replay's own generator.
    Draw,
    /// `CalendarQueue::push` / `pop`.
    Sched,
    /// A server's `on_message`.
    Server,
    /// A client's `on_message` / `on_timer` / `on_start`.
    Client,
    /// A server's `on_timer` (stabilization, heartbeat, GC).
    Timer,
    /// `Wire::encode` of `(from, msg)`.
    Encode,
    /// `Wire::decode` of `(from, msg)`.
    Decode,
    /// `encode_frame` and `FrameAssembler::{extend, next_frame}`.
    Frame,
}

pub const N_LAYERS: usize = 8;

const NO_SPAN: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: Layer,
    /// ns since the traced window opened.
    pub start: u64,
    pub end: u64,
    /// Index of the span during which this one's work was created: the
    /// enclosing handler for an encode, the sending handler for a delivery.
    pub cause: u32,
    /// Spans of one client operation share this; 0 is background work.
    pub op: u32,
}

struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    #[inline]
    fn open(&mut self, layer: Layer, cause: u32, op: u32) -> u32 {
        if !self.on {
            return NO_SPAN;
        }
        let start = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            layer,
            start,
            end: start,
            cause,
            op,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes `prev` and opens the next span on one clock reading: calls
    /// that follow each other directly leave no gap and cost one read.
    #[inline]
    fn then(&mut self, prev: u32, layer: Layer, cause: u32, op: u32) -> u32 {
        let next = self.open(layer, cause, op);
        if prev != NO_SPAN && next != NO_SPAN {
            self.spans[prev as usize].end = self.spans[next as usize].start;
        }
        next
    }

    #[inline]
    fn close(&mut self, idx: u32) {
        if idx != NO_SPAN {
            self.spans[idx as usize].end = self.t0.elapsed().as_nanos() as u64;
        }
    }

    /// What an empty span measures: the share of a clock reading that falls
    /// inside every span. Median over a chain of empty spans.
    fn clock_floor_ns() -> u64 {
        let mut t = Tracer {
            on: true,
            t0: Instant::now(),
            spans: Vec::with_capacity(4096),
        };
        let mut s = t.open(Layer::Sched, NO_SPAN, 0);
        for _ in 0..4000 {
            s = t.then(s, Layer::Sched, NO_SPAN, 0);
        }
        t.close(s);
        let mut d: Vec<u64> = t.spans.iter().map(|s| s.end - s.start).collect();
        d.sort_unstable();
        d[d.len() / 2]
    }
}

enum Ev {
    Frame { to: u32, bytes: Vec<u8> },
    Timer { node: u32, kind: TimerKind },
}

struct Item {
    ev: Ev,
    cause: u32,
    op: u32,
}

/// Counts taken at the same boundaries as the spans.
#[derive(Default, Clone, Copy)]
pub struct Counts {
    pub msgs: u64,
    pub encoded_bytes: u64,
    pub sched_ops: u64,
    pub server_calls: u64,
}

/// Everything a handler may touch except its own node.
struct Core {
    now: u64,
    seq: u64,
    queue: CalendarQueue<Item>,
    /// Node index of an address: servers DC-major, then clients DC-major —
    /// the order `build_openloop_nodes` returns them in.
    n_partitions: u32,
    n_servers: u32,
    drivers_per_dc: u32,
    cost: CostModel,
    metrics: Metrics,
    tracer: Tracer,
    counts: Counts,
    next_op: u32,
    scratch: Vec<u8>,
}

impl Core {
    #[inline]
    fn node_of(&self, addr: Addr) -> u32 {
        let (dc, idx) = (addr.dc.0 as u32, addr.idx as u32);
        if addr.is_server() {
            dc * self.n_partitions + idx
        } else {
            self.n_servers + dc * self.drivers_per_dc + idx
        }
    }

    /// Queues `item`; the push's span opens on the reading that closes
    /// `after` (or on its own if `after` is `NO_SPAN`).
    fn push(&mut self, t: u64, item: Item, cause: u32, after: u32) {
        let s = self.tracer.then(after, Layer::Sched, cause, item.op);
        self.seq += 1;
        self.queue.push(t, self.seq, item);
        self.tracer.close(s);
        self.counts.sched_ops += 1;
    }
}

struct Ctx<'a> {
    core: &'a mut Core,
    addr: Addr,
    rng: &'a mut SmallRng,
    /// The handler span every send and timer of this handler is caused by.
    span: u32,
    op: u32,
    /// Client handlers only: operations completed when the handler began.
    /// A send after a completion belongs to the next operation.
    client_ops_before: Option<u64>,
}

impl<M: Wire> ActorCtx<M> for Ctx<'_> {
    fn now(&self) -> u64 {
        self.core.now
    }

    fn self_addr(&self) -> Addr {
        self.addr
    }

    fn send(&mut self, to: Addr, msg: M) {
        if self
            .client_ops_before
            .is_some_and(|n| self.core.metrics.ops_done() > n)
        {
            self.client_ops_before = None;
            self.core.next_op += 1;
            self.op = self.core.next_op;
        }
        let core = &mut *self.core;
        let s = core.tracer.open(Layer::Encode, self.span, self.op);
        core.scratch.clear();
        self.addr.encode(&mut core.scratch);
        msg.encode(&mut core.scratch);
        let s = core.tracer.then(s, Layer::Frame, self.span, self.op);
        let bytes = encode_frame(&core.scratch);
        core.counts.msgs += 1;
        core.counts.encoded_bytes += bytes.len() as u64;
        let to_idx = core.node_of(to);
        let t = core.now + core.cost.link_latency(self.addr.dc.0, to.dc.0);
        let item = Item {
            ev: Ev::Frame { to: to_idx, bytes },
            cause: self.span,
            op: self.op,
        };
        core.push(t, item, self.span, s);
    }

    fn set_timer(&mut self, delay_ns: u64, kind: TimerKind) {
        let node = self.core.node_of(self.addr);
        let t = self.core.now + delay_ns;
        let item = Item {
            ev: Ev::Timer { node, kind },
            cause: self.span,
            op: self.op,
        };
        self.core.push(t, item, self.span, NO_SPAN);
    }

    fn charge(&mut self, _ns: u64) {
        // Real time: the host pays for work by doing it.
    }

    fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    fn metrics(&mut self) -> &mut Metrics {
        &mut self.core.metrics
    }

    fn record(&mut self, _ev: HistoryEvent) {}

    fn recording(&self) -> bool {
        false
    }

    fn stopped(&self) -> bool {
        false
    }
}

struct Slot<A> {
    addr: Addr,
    actor: A,
    rng: SmallRng,
}

pub struct Replay<P: ProtocolSpec> {
    nodes: Vec<Slot<ProtoNode<P>>>,
    core: Core,
    assembler: FrameAssembler,
    /// The replay's own generator, the same shape as one driver actor's.
    /// The clients draw inside their handlers, where no outside span can
    /// reach; one draw here per completed operation prices the generator.
    shadow: OpenLoopDriver,
    shadow_rng: SmallRng,
}

pub struct ReplayResult {
    pub ops: u64,
    pub wall_ns: u64,
    pub cpu_ns: u64,
    pub spans: Vec<Span>,
    pub counts: Counts,
    /// See [`layer_times`]; 0 on an untraced run.
    pub clock_floor_ns: u64,
}

impl<P: ProtocolSpec> Replay<P> {
    pub fn new(w: &Workload, seed: u64) -> Self {
        let cfg = w.cluster();
        let spec = w.spec(w.rate(Rung::Mid));
        let nodes: Vec<Slot<ProtoNode<P>>> = build_openloop_nodes::<P>(&cfg, &spec, seed)
            .into_iter()
            .map(|(addr, actor)| Slot {
                addr,
                actor,
                rng: SmallRng::seed_from_u64(node_seed(seed, addr)),
            })
            .collect();
        let zipf = Arc::new(Zipf::new(cfg.keys_per_partition, w.zipf_theta));
        let gen = ClientDriver::new(w.mix(), zipf, cfg.n_partitions);
        let sessions = spec.sessions_for(0, w.n_drivers());
        let shadow = OpenLoopDriver::new(
            gen,
            u32::try_from(sessions).expect("sessions per driver fit u32"),
            spec.session_rate(),
        );
        Replay {
            nodes,
            core: Core {
                now: 0,
                seq: 0,
                queue: CalendarQueue::new(),
                n_partitions: w.n_partitions as u32,
                n_servers: w.n_servers() as u32,
                drivers_per_dc: w.drivers_per_dc as u32,
                cost: CostModel::calibrated(),
                metrics: Metrics::new(),
                tracer: Tracer {
                    on: false,
                    t0: Instant::now(),
                    spans: Vec::new(),
                },
                counts: Counts::default(),
                next_op: 0,
                scratch: Vec::new(),
            },
            assembler: FrameAssembler::new(),
            shadow,
            shadow_rng: SmallRng::seed_from_u64(seed ^ 0xD4A3),
        }
    }

    /// Runs `on_start` everywhere, `warmup_ns` of virtual time without
    /// spans or metrics (session calendars prime here), then `window_ns`
    /// measured, with spans if `traced`.
    pub fn run(mut self, warmup_ns: u64, window_ns: u64, traced: bool) -> ReplayResult {
        for i in 0..self.nodes.len() {
            let layer = self.handler_layer(i as u32);
            self.dispatch(i as u32, layer, NO_SPAN, 0, NO_SPAN, |actor, ctx| {
                actor.on_start(ctx)
            });
        }
        self.run_until(warmup_ns);
        // Prime the shadow generator outside the measured window too.
        let _ = self.shadow.draw(0, &mut self.shadow_rng);

        self.core.metrics.enabled = true;
        self.core.counts = Counts::default();
        self.core.tracer = Tracer {
            on: traced,
            t0: Instant::now(),
            spans: Vec::with_capacity(if traced { 1 << 21 } else { 0 }),
        };
        let clock_floor_ns = if traced { Tracer::clock_floor_ns() } else { 0 };
        let cpu0 = cpu_ns();
        let wall0 = Instant::now();
        self.run_until(warmup_ns + window_ns);
        let wall_ns = wall0.elapsed().as_nanos() as u64;
        let cpu_ns = cpu_ns() - cpu0;
        ReplayResult {
            ops: self.core.metrics.ops_done(),
            wall_ns,
            cpu_ns,
            spans: std::mem::take(&mut self.core.tracer.spans),
            counts: self.core.counts,
            clock_floor_ns,
        }
    }

    fn run_until(&mut self, t_end: u64) {
        loop {
            let s = self.core.tracer.open(Layer::Sched, NO_SPAN, 0);
            let due = matches!(self.core.queue.peek_key(), Some((t, _)) if t <= t_end);
            let popped = if due { self.core.queue.pop() } else { None };
            let Some((t, _seq, item)) = popped else {
                self.core.tracer.close(s);
                self.core.now = self.core.now.max(t_end);
                return;
            };
            if s != NO_SPAN {
                let span = &mut self.core.tracer.spans[s as usize];
                span.cause = item.cause;
                span.op = item.op;
            }
            self.core.counts.sched_ops += 1;
            self.core.now = t;
            match item.ev {
                Ev::Frame { to, bytes } => self.deliver(to, bytes, item.cause, item.op, s),
                Ev::Timer { node, kind } => {
                    // A client timer is an arrival wake-up: a new operation.
                    // A server timer is stabilization, heartbeat or GC.
                    let (layer, op) = if self.nodes[node as usize].addr.is_server() {
                        (Layer::Timer, item.op)
                    } else {
                        self.core.next_op += 1;
                        (Layer::Client, self.core.next_op)
                    };
                    self.dispatch(node, layer, item.cause, op, s, |actor, ctx| {
                        actor.on_timer(ctx, kind)
                    });
                }
            }
        }
    }

    /// `after` is the pop's span, still open: each step closes the one
    /// before it on a shared clock reading.
    fn deliver(&mut self, to: u32, bytes: Vec<u8>, cause: u32, op: u32, after: u32) {
        let s = self.core.tracer.then(after, Layer::Frame, cause, op);
        self.assembler.extend(&bytes);
        let payload = self
            .assembler
            .next_frame()
            .expect("replay: frame layer rejected its own frame")
            .expect("replay: a whole frame was fed");
        drop(bytes);
        let s = self.core.tracer.then(s, Layer::Decode, cause, op);
        let mut reader = Reader::new(&payload);
        let (from, msg) =
            <(Addr, P::Msg)>::decode(&mut reader).expect("replay: codec rejected its own encoding");
        assert_eq!(reader.remaining(), 0, "replay: trailing bytes in a frame");
        let layer = self.handler_layer(to);
        self.dispatch(to, layer, cause, op, s, |actor, ctx| {
            actor.on_message(ctx, from, msg)
        });
    }

    fn handler_layer(&self, i: u32) -> Layer {
        if self.nodes[i as usize].addr.is_server() {
            Layer::Server
        } else {
            Layer::Client
        }
    }

    /// Runs one handler of node `i` inside a span of `layer`, opened on the
    /// reading that closes `after`.
    fn dispatch(
        &mut self,
        i: u32,
        layer: Layer,
        cause: u32,
        op: u32,
        after: u32,
        f: impl FnOnce(&mut ProtoNode<P>, &mut dyn ActorCtx<P::Msg>),
    ) {
        let slot = &mut self.nodes[i as usize];
        let is_server = slot.addr.is_server();
        let ops_before = self.core.metrics.ops_done();
        let span = self.core.tracer.then(after, layer, cause, op);
        let mut ctx = Ctx {
            core: &mut self.core,
            addr: slot.addr,
            rng: &mut slot.rng,
            span,
            op,
            client_ops_before: (!is_server).then_some(ops_before),
        };
        f(&mut slot.actor, &mut ctx);
        if is_server {
            self.core.tracer.close(span);
            self.core.counts.server_calls += 1;
            return;
        }
        // One draw on the replay's generator per operation this handler
        // completed (at most one: a driver keeps one in flight). Every
        // arrival is due at `u64::MAX / 2`, so each draw pops an arrival,
        // schedules the session's next and draws an operation, as the
        // client's own draw for its next request just did.
        let mut last = span;
        for _ in ops_before..self.core.metrics.ops_done() {
            last = self.core.tracer.then(last, Layer::Draw, span, op);
            let draw = self.shadow.draw(u64::MAX / 2, &mut self.shadow_rng);
            debug_assert!(matches!(draw, Draw::Op { .. }));
            std::hint::black_box(draw);
        }
        self.core.tracer.close(last);
    }
}

/// Per-layer totals of a traced run.
pub struct LayerTimes {
    /// Self time per layer, ns: a span's duration minus the part of it its
    /// child spans (those it caused and that lie inside it) cover.
    pub self_ns: [u64; N_LAYERS],
    /// Wall time inside any span.
    pub covered_ns: u64,
}

/// `clock_floor_ns`, what an empty span measures, is taken off every
/// span's self time: it is the tracer's cost, not the layer's. Coverage
/// keeps it, because it is wall time the spans do account for.
pub fn layer_times(spans: &[Span], clock_floor_ns: u64) -> LayerTimes {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if s.cause == NO_SPAN {
            continue;
        }
        let p = &spans[s.cause as usize];
        let lo = s.start.max(p.start);
        let hi = s.end.min(p.end);
        if hi > lo {
            child[s.cause as usize] += hi - lo;
        }
    }
    let mut out = LayerTimes {
        self_ns: [0; N_LAYERS],
        covered_ns: 0,
    };
    for (s, c) in spans.iter().zip(&child) {
        let own = (s.end - s.start).saturating_sub(*c);
        out.self_ns[s.layer as usize] += own.saturating_sub(clock_floor_ns);
        out.covered_ns += own;
    }
    out
}

/// Writes spans as CSV: `layer,start_ns,end_ns,cause,op`, one per line,
/// the line number (from 0) being the span's index.
pub fn write_spans(path: &str, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let cause = if s.cause == NO_SPAN {
            -1
        } else {
            i64::from(s.cause)
        };
        writeln!(f, "{:?},{},{},{},{}", s.layer, s.start, s.end, cause, s.op)?;
    }
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start: u64, end: u64, cause: u32) -> Span {
        Span {
            layer,
            start,
            end,
            cause,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_only() {
        let spans = [
            // A server handler, 100 ns, with an encode (20 ns) and a frame
            // (10 ns) inside it ...
            span(Layer::Server, 0, 100, NO_SPAN),
            span(Layer::Encode, 10, 30, 0),
            span(Layer::Frame, 30, 40, 0),
            // ... and a delivery it caused, later: not nested, not subtracted.
            span(Layer::Decode, 200, 250, 0),
        ];
        let t = layer_times(&spans, 0);
        assert_eq!(t.self_ns[Layer::Server as usize], 70);
        assert_eq!(t.self_ns[Layer::Encode as usize], 20);
        assert_eq!(t.self_ns[Layer::Frame as usize], 10);
        assert_eq!(t.self_ns[Layer::Decode as usize], 50);
        assert_eq!(t.covered_ns, 150);
        // The clock floor comes off every span's self time, not off coverage.
        let t = layer_times(&spans, 15);
        assert_eq!(t.self_ns[Layer::Server as usize], 55);
        assert_eq!(t.self_ns[Layer::Frame as usize], 0);
        assert_eq!(t.covered_ns, 150);
    }
}
