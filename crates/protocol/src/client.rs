//! The one client-session loop every backend runs.
//!
//! The paper's Table 2 says the clients it compares differ in one thing:
//! the metadata a request carries and a reply returns (Contrarian an
//! M-entry vector, COPS-SNOW its dependency list). A backend writes only
//! that, as a [`Session`]; [`Client`] owns the rest: the next operation
//! (an [`OpSource`] plus the backlog of injected ones), the staggered start
//! and open-loop wake-ups, per-ROT slice accumulation, and completion —
//! metrics, trace and the history every correctness check reads.
//!
//! One operation is in flight at a time. A reply that matches none is a
//! protocol bug: it trips a `debug_assert!`, and a release build leaves
//! the pending operation untouched.

use crate::timers::CLIENT_START;
use contrarian_runtime::actor::{ActorCtx, TimerKind};
use contrarian_runtime::trace::op_class;
use contrarian_types::{
    heap, Addr, ClientId, ClusterConfig, HeapCensus, HistoryEvent, Key, Op, TraceKind, TxId, Value,
    VersionId,
};
use contrarian_workload::{Draw, OpSource};
use rand::RngExt;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Display;

/// One key of a ROT answer: the version read and its value, if any.
pub type ReadPair = (Key, Option<(VersionId, Value)>);

/// A client-bound message as the loop sees it; `M` is [`Session::Meta`].
pub enum Inbound<M> {
    /// An externally injected operation.
    Inject(Op),
    /// The snapshot a 2-round ROT waits for.
    Snapshot(TxId, M),
    /// One partition's share of a ROT's answer.
    Slice(TxId, Vec<ReadPair>, M),
    /// A PUT's acknowledgment: the key and the version it installed.
    PutAck(Key, VersionId, M),
}

/// A backend's client-session metadata: what its requests carry and its
/// replies return. It must be deterministic: the same calls with the same
/// context inputs send the same messages and draw the same random numbers.
pub trait Session: Send + 'static {
    type Msg;
    /// The metadata a reply returns.
    type Meta;

    fn new(addr: Addr, cfg: &ClusterConfig) -> Self;

    /// Classifies a client-bound message (a server-bound one may panic).
    fn inbound(msg: Self::Msg) -> Inbound<Self::Meta>;

    /// Sends a PUT carrying the session's metadata.
    fn send_put(&mut self, ctx: &mut dyn ActorCtx<Self::Msg>, key: Key, value: Value);

    /// Sends a ROT's first round; returns how many slices will answer, or
    /// 0 when the ROT waits for a snapshot first.
    fn send_rot(&mut self, ctx: &mut dyn ActorCtx<Self::Msg>, tx: TxId, keys: Vec<Key>) -> usize;

    /// Sends the reads of a ROT that waited for snapshot `sv`; returns how
    /// many slices will answer.
    fn send_reads(&mut self, _: &mut dyn ActorCtx<Self::Msg>, tx: TxId, _: Self::Meta) -> usize {
        unreachable!("{tx}: this session never waits for a snapshot")
    }

    /// Absorbs one slice's metadata; `done` is the whole answer when this
    /// slice completes the ROT.
    fn absorb_slice(&mut self, meta: Self::Meta, done: Option<&[ReadPair]>);

    fn absorb_put(&mut self, key: Key, vid: VersionId, meta: Self::Meta);

    /// Heap bytes of the session's metadata (a heap census).
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// `keys` grouped by partition, in partition order: one read per entry.
pub fn by_partition(keys: &[Key], n_partitions: u16) -> BTreeMap<u16, Vec<Key>> {
    let mut groups: BTreeMap<u16, Vec<Key>> = BTreeMap::new();
    for k in keys {
        groups
            .entry(k.partition(n_partitions).0)
            .or_default()
            .push(*k);
    }
    groups
}

enum Pending {
    /// A ROT waiting for `expect` more slices (for its snapshot while 0).
    Rot {
        tx: TxId,
        t0: u64,
        expect: usize,
        pairs: Vec<ReadPair>,
    },
    Put {
        seq: u32,
        t0: u64,
        key: Key,
    },
}

/// A closed-loop, open-loop or interactive client over session `S`.
pub struct Client<S> {
    id: ClientId,
    session: S,
    /// `None` for the interactive facade's client: injected ops only.
    source: Option<OpSource>,
    backlog: VecDeque<Op>,
    next_tx: u32,
    next_put: u32,
    pending: Option<Pending>,
}

impl<S: Session> Client<S> {
    pub fn new(addr: Addr, cfg: &ClusterConfig, source: Option<OpSource>) -> Self {
        Client {
            id: addr.client_id(),
            session: S::new(addr, cfg),
            source,
            backlog: VecDeque::new(),
            next_tx: 0,
            next_put: 0,
            pending: None,
        }
    }

    /// Adds the client's heap to `census`: its session's metadata, the
    /// operation in flight with the injected backlog, and its driver.
    pub fn heap_census(&self, census: &mut HeapCensus) {
        census.add("session", self.session.heap_bytes(), 1);
        let pending = match &self.pending {
            Some(Pending::Rot { pairs, .. }) => heap::vec_bytes(pairs),
            Some(Pending::Put { .. }) | None => 0,
        };
        census.add(
            "operations",
            heap::deque_bytes(&self.backlog)
                + self.backlog.iter().map(Op::heap_bytes).sum::<usize>()
                + pending,
            self.backlog.len() + usize::from(self.pending.is_some()),
        );
        census.add(
            "driver",
            self.source.as_ref().map_or(0, OpSource::heap_bytes),
            usize::from(self.source.is_some()),
        );
    }

    /// Staggers the start so the clients do not burst in lock-step.
    pub fn on_start(&mut self, ctx: &mut dyn ActorCtx<S::Msg>) {
        let jitter = ctx.rng().random_range(0..200_000u64);
        ctx.set_timer(jitter, TimerKind::new(CLIENT_START));
    }

    pub fn on_timer(&mut self, ctx: &mut dyn ActorCtx<S::Msg>, kind: TimerKind) {
        debug_assert_eq!(kind.kind, CLIENT_START);
        // An injected op may be in flight before the start timer fires.
        if self.pending.is_none() {
            self.issue_next(ctx);
        }
    }

    pub fn on_message(&mut self, ctx: &mut dyn ActorCtx<S::Msg>, _from: Addr, msg: S::Msg) {
        match S::inbound(msg) {
            Inbound::Inject(op) => {
                self.backlog.push_back(op);
                if self.pending.is_none() {
                    self.issue_next(ctx);
                }
            }
            Inbound::Snapshot(tx, sv) => self.on_snapshot(ctx, tx, sv),
            Inbound::Slice(tx, pairs, meta) => self.on_slice(ctx, tx, pairs, meta),
            Inbound::PutAck(key, vid, meta) => self.on_put_ack(ctx, key, vid, meta),
        }
    }

    fn issue_next(&mut self, ctx: &mut dyn ActorCtx<S::Msg>) {
        debug_assert!(self.pending.is_none());
        // The injected backlog always drains; a load source goes quiet when
        // the harness stops the run.
        if let Some(op) = self.backlog.pop_front() {
            let now = ctx.now();
            return self.issue(ctx, op, now);
        }
        let Some(source) = &mut self.source else {
            return; // an Inject will wake us up
        };
        if ctx.stopped() {
            return;
        }
        let now = ctx.now();
        match source.draw(now, ctx.rng()) {
            // `intended` is the scheduled arrival time; measuring latency
            // from it keeps driver queueing delay in the histograms
            // (coordinated omission). Closed-loop draws arrive "now".
            Draw::Op { op, intended } => self.issue(ctx, op, intended),
            Draw::Wait { due } => ctx.set_timer(due - now, TimerKind::new(CLIENT_START)),
        }
    }

    fn issue(&mut self, ctx: &mut dyn ActorCtx<S::Msg>, op: Op, t0: u64) {
        match op {
            Op::Put(key, value) => {
                let seq = self.next_put;
                self.next_put += 1;
                if ctx.tracing() {
                    ctx.trace(TraceKind::OpBegin, op_class::PUT, seq as u64);
                }
                self.pending = Some(Pending::Put { seq, t0, key });
                self.session.send_put(ctx, key, value);
            }
            Op::Rot(keys) => {
                let tx = TxId::new(self.id, self.next_tx);
                if ctx.tracing() {
                    ctx.trace(TraceKind::OpBegin, op_class::ROT, self.next_tx as u64);
                }
                self.next_tx += 1;
                let pairs = Vec::with_capacity(keys.len());
                let expect = self.session.send_rot(ctx, tx, keys);
                self.pending = Some(Pending::Rot {
                    tx,
                    t0,
                    expect,
                    pairs,
                });
            }
        }
    }

    fn on_snapshot(&mut self, ctx: &mut dyn ActorCtx<S::Msg>, tx: TxId, sv: S::Meta) {
        match &mut self.pending {
            Some(Pending::Rot {
                tx: want, expect, ..
            }) if *want == tx && *expect == 0 => {
                *expect = self.session.send_reads(ctx, tx, sv);
            }
            _ => self.stale(tx),
        }
    }

    fn on_slice(
        &mut self,
        ctx: &mut dyn ActorCtx<S::Msg>,
        tx: TxId,
        mut new: Vec<ReadPair>,
        meta: S::Meta,
    ) {
        match &mut self.pending {
            Some(Pending::Rot {
                tx: want,
                expect,
                pairs,
                ..
            }) if *want == tx && *expect > 0 => {
                pairs.append(&mut new);
                *expect -= 1;
                if *expect > 0 {
                    return self.session.absorb_slice(meta, None);
                }
            }
            _ => return self.stale(tx),
        }
        let Some(Pending::Rot { t0, pairs, .. }) = self.pending.take() else {
            unreachable!("matched above")
        };
        self.session.absorb_slice(meta, Some(&pairs));
        let latency = ctx.now() - t0;
        ctx.metrics().rot_done(latency);
        if ctx.tracing() {
            ctx.trace(TraceKind::OpEnd, op_class::ROT, t0);
        }
        if ctx.recording() {
            let values = pairs
                .iter()
                .map(|(_, v)| v.as_ref().map(|(_, b)| b.clone()));
            let read = pairs
                .iter()
                .map(|(k, v)| (*k, v.as_ref().map(|(vid, _)| *vid)));
            ctx.record(HistoryEvent::RotDone {
                client: self.id,
                tx,
                t_start: t0,
                t_end: ctx.now(),
                pairs: read.collect(),
                values: values.collect(),
            });
        }
        self.issue_next(ctx);
    }

    fn on_put_ack(
        &mut self,
        ctx: &mut dyn ActorCtx<S::Msg>,
        key: Key,
        vid: VersionId,
        meta: S::Meta,
    ) {
        let Some(Pending::Put { seq, t0, key: put }) = self.pending else {
            return self.stale(format_args!("PUT ack {vid}"));
        };
        self.pending = None;
        self.session.absorb_put(key, vid, meta);
        let latency = ctx.now() - t0;
        ctx.metrics().put_done(latency);
        if ctx.tracing() {
            ctx.trace(TraceKind::OpEnd, op_class::PUT, t0);
        }
        if ctx.recording() {
            ctx.record(HistoryEvent::PutDone {
                client: self.id,
                seq,
                t_start: t0,
                t_end: ctx.now(),
                key: put,
                vid,
            });
        }
        self.issue_next(ctx);
    }

    fn stale(&self, reply: impl Display) {
        debug_assert!(false, "client {}: {reply} matches no in-flight op", self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contrarian_runtime::history::TaggedEvent;
    use contrarian_runtime::testkit::ScriptCtx;
    use contrarian_types::{DcId, PartitionId};
    use contrarian_workload::{ClientDriver, OpenLoopDriver, WorkloadSpec, Zipf};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    /// A toy backend's messages: requests say what they ask for, replies
    /// carry one number of metadata.
    #[derive(Debug)]
    enum Toy {
        Inject(Op),
        Read {
            tx: TxId,
            keys: Vec<Key>,
        },
        Put {
            key: Key,
        },
        Snapshot {
            tx: TxId,
        },
        Slice {
            tx: TxId,
            pairs: Vec<ReadPair>,
            meta: u64,
        },
        Ack {
            key: Key,
            vid: VersionId,
            meta: u64,
        },
    }

    /// Reads every partition in one round and logs what it absorbs.
    struct ToySession {
        n_partitions: u16,
        slices: Vec<(u64, bool)>,
        puts: Vec<(Key, u64)>,
    }

    impl Session for ToySession {
        type Msg = Toy;
        type Meta = u64;

        fn new(_addr: Addr, cfg: &ClusterConfig) -> Self {
            ToySession {
                n_partitions: cfg.n_partitions,
                slices: Vec::new(),
                puts: Vec::new(),
            }
        }

        fn inbound(msg: Toy) -> Inbound<u64> {
            match msg {
                Toy::Inject(op) => Inbound::Inject(op),
                Toy::Snapshot { tx } => Inbound::Snapshot(tx, 0),
                Toy::Slice { tx, pairs, meta } => Inbound::Slice(tx, pairs, meta),
                Toy::Ack { key, vid, meta } => Inbound::PutAck(key, vid, meta),
                other => unreachable!("server-bound message at client: {other:?}"),
            }
        }

        fn send_put(&mut self, ctx: &mut dyn ActorCtx<Toy>, key: Key, _value: Value) {
            let to = Addr::server(DcId(0), key.partition(self.n_partitions));
            ctx.send(to, Toy::Put { key });
        }

        fn send_rot(&mut self, ctx: &mut dyn ActorCtx<Toy>, tx: TxId, keys: Vec<Key>) -> usize {
            let groups = by_partition(&keys, self.n_partitions);
            let expect = groups.len();
            for (p, keys) in groups {
                ctx.send(
                    Addr::server(DcId(0), PartitionId(p)),
                    Toy::Read { tx, keys },
                );
            }
            expect
        }

        fn absorb_slice(&mut self, meta: u64, done: Option<&[ReadPair]>) {
            self.slices.push((meta, done.is_some()));
        }

        fn absorb_put(&mut self, key: Key, _vid: VersionId, meta: u64) {
            self.puts.push((key, meta));
        }
    }

    fn client(source: Option<OpSource>) -> (Client<ToySession>, ScriptCtx<Toy>) {
        let addr = Addr::client(DcId(0), 0);
        let mut ctx = ScriptCtx::new(addr);
        ctx.sink.metrics.enabled = true;
        (Client::new(addr, &ClusterConfig::small(), source), ctx)
    }

    fn generator() -> ClientDriver {
        ClientDriver::new(
            WorkloadSpec::paper_default().with_rot_size(2),
            Arc::new(Zipf::new(64, 0.99)),
            ClusterConfig::small().n_partitions,
        )
    }

    fn vid(ts: u64) -> VersionId {
        VersionId::new(ts, DcId(0))
    }

    /// The reply a server would send to `req`.
    fn reply_to(req: Toy) -> Toy {
        match req {
            Toy::Read { tx, keys } => Toy::Slice {
                tx,
                pairs: keys
                    .iter()
                    .map(|k| (*k, Some((vid(k.0), Value::new()))))
                    .collect(),
                meta: 0,
            },
            Toy::Put { key } => Toy::Ack {
                key,
                vid: vid(1),
                meta: 0,
            },
            other => panic!("not a request: {other:?}"),
        }
    }

    /// Answers every request sent so far; returns how many there were.
    fn answer(c: &mut Client<ToySession>, ctx: &mut ScriptCtx<Toy>) -> usize {
        let sent = ctx.drain_sent();
        let n = sent.len();
        for (from, req) in sent {
            c.on_message(ctx, from, reply_to(req));
        }
        n
    }

    /// The keys of the PUT requests sent and not yet answered.
    fn puts_sent(ctx: &ScriptCtx<Toy>) -> Vec<Key> {
        let puts = ctx.sink.sent.iter().filter_map(|(_, m)| match m {
            Toy::Put { key } => Some(*key),
            _ => None,
        });
        puts.collect()
    }

    #[test]
    fn an_inject_before_the_stagger_timer_runs_exactly_once() {
        // The timer fires while the op is in flight, then after it is done.
        for fire_in_flight in [true, false] {
            let (mut c, mut ctx) = client(None);
            c.on_start(&mut ctx);
            assert_eq!(ctx.sink.timers.len(), 1);
            assert_eq!(ctx.sink.timers[0].1.kind, CLIENT_START);
            let me = ctx.node.addr;
            c.on_message(&mut ctx, me, Toy::Inject(Op::Put(Key(1), Value::new())));
            if fire_in_flight {
                c.on_timer(&mut ctx, TimerKind::new(CLIENT_START));
            }
            assert_eq!(answer(&mut c, &mut ctx), 1, "one PUT request");
            if !fire_in_flight {
                c.on_timer(&mut ctx, TimerKind::new(CLIENT_START));
            }
            assert!(ctx.sink.sent.is_empty(), "nothing issued after the PUT");
            assert_eq!(ctx.sink.metrics.puts_done, 1);
            assert_eq!(ctx.sink.history.len(), 1);
            assert_eq!(c.session.puts, vec![(Key(1), 0)]);
        }
    }

    #[test]
    fn a_stopped_load_source_goes_quiet_but_the_backlog_drains() {
        let (mut c, mut ctx) = client(Some(OpSource::Closed(generator())));
        c.on_timer(&mut ctx, TimerKind::new(CLIENT_START));
        assert!(!ctx.sink.sent.is_empty(), "the closed loop issues at start");
        let me = ctx.node.addr;
        for k in [10, 11] {
            c.on_message(&mut ctx, me, Toy::Inject(Op::Put(Key(k), Value::new())));
        }
        ctx.sink.stopped = true;
        answer(&mut c, &mut ctx);
        assert_eq!(puts_sent(&ctx), vec![Key(10)]);
        answer(&mut c, &mut ctx);
        assert_eq!(puts_sent(&ctx), vec![Key(11)]);
        answer(&mut c, &mut ctx);
        assert!(ctx.sink.sent.is_empty(), "the stopped source draws nothing");
        assert_eq!(ctx.sink.metrics.ops_done(), 3);
    }

    #[test]
    fn an_open_loop_wait_arms_the_start_timer_and_latency_counts_from_intended() {
        let source = OpSource::Open(OpenLoopDriver::new(generator(), 4, 1000.0));
        let (mut c, mut ctx) = client(Some(source));
        ctx.now = 1_000;
        c.on_timer(&mut ctx, TimerKind::new(CLIENT_START));
        assert!(ctx.sink.sent.is_empty(), "nothing is due yet");
        assert_eq!(ctx.sink.timers.len(), 1);
        let (due, kind) = ctx.sink.timers[0];
        assert_eq!(kind.kind, CLIENT_START);
        assert!(due > 1_000, "armed at due - now, so it fires at due");
        // A late wake-up issues the op; its latency counts from `due`.
        ctx.now = due + 5_000;
        c.on_timer(&mut ctx, TimerKind::new(CLIENT_START));
        ctx.now = due + 8_000;
        answer(&mut c, &mut ctx);
        let m = &ctx.sink.metrics;
        assert_eq!(m.ops_done(), 1);
        assert_eq!(m.rot_latency.max().max(m.put_latency.max()), 8_000);
        let (HistoryEvent::RotDone { t_start, t_end, .. }
        | HistoryEvent::PutDone { t_start, t_end, .. }) = &ctx.sink.history[0].ev;
        assert_eq!((*t_start, *t_end), (due, due + 8_000));
    }

    #[test]
    fn rot_done_pairs_are_the_slices_in_arrival_order() {
        let (mut c, mut ctx) = client(None);
        let me = ctx.node.addr;
        // Four partitions: keys 1 and 5 share partition 1.
        let keys = vec![Key(0), Key(1), Key(2), Key(5)];
        c.on_message(&mut ctx, me, Toy::Inject(Op::Rot(keys)));
        let mut reads = ctx.drain_sent();
        assert_eq!(reads.len(), 3, "one read per partition");
        // Partitions answer 2, 0, 1, each with its own metadata.
        reads.reverse();
        reads.swap(1, 2);
        for (meta, (from, req)) in (1..).zip(reads) {
            let Toy::Slice { tx, pairs, .. } = reply_to(req) else {
                unreachable!()
            };
            c.on_message(&mut ctx, from, Toy::Slice { tx, pairs, meta });
        }
        assert_eq!(c.session.slices, vec![(1, false), (2, false), (3, true)]);
        let want = vec![Key(2), Key(0), Key(1), Key(5)];
        match &ctx.sink.history[..] {
            [TaggedEvent {
                ev: HistoryEvent::RotDone { pairs, values, .. },
                ..
            }] => {
                let got: Vec<Key> = pairs.iter().map(|(k, _)| *k).collect();
                assert_eq!(got, want);
                assert!(pairs.iter().all(|(k, v)| *v == Some(vid(k.0))));
                assert_eq!(values.len(), 4);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn a_reply_that_matches_no_in_flight_op_leaves_it_pending() {
        let (mut c, mut ctx) = client(None);
        let me = ctx.node.addr;
        c.on_message(&mut ctx, me, Toy::Inject(Op::Rot(vec![Key(0)])));
        let (from, req) = ctx.drain_sent().remove(0);
        let other = TxId::new(me.client_id(), 9);
        let stale = [
            (
                Toy::Slice {
                    tx: other,
                    pairs: vec![(Key(0), None)],
                    meta: 0,
                },
                format!("{other}"),
            ),
            (
                Toy::Snapshot {
                    tx: TxId::new(me.client_id(), 0),
                },
                format!("{}", TxId::new(me.client_id(), 0)),
            ),
            (
                Toy::Ack {
                    key: Key(0),
                    vid: vid(1),
                    meta: 0,
                },
                "PUT ack".to_string(),
            ),
        ];
        for (msg, names) in stale {
            let r = catch_unwind(AssertUnwindSafe(|| c.on_message(&mut ctx, from, msg)));
            assert_eq!(r.is_err(), cfg!(debug_assertions), "a debug build asserts");
            if let Err(payload) = r {
                let text = payload.downcast_ref::<String>().expect("formatted message");
                assert!(text.contains(&names), "{text}");
            }
        }
        assert!(c.session.slices.is_empty() && c.session.puts.is_empty());
        // The ROT in flight is still pending and completes normally.
        c.on_message(&mut ctx, from, reply_to(req));
        assert_eq!(ctx.sink.metrics.rots_done, 1);
        assert_eq!(ctx.sink.history.len(), 1);
    }
}
