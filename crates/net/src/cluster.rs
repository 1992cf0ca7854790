//! The TCP cluster: every node hosted on the reactor pool, every message
//! crossing a loopback socket.
//!
//! [`NetCluster`] is what the builders and the harness talk to. Starting
//! one binds a loopback listener per node (recording where each listens)
//! and deals the nodes round-robin across the [`reactor`](crate::reactor)
//! pool; each reactor runs its nodes' handlers and drives their sockets.
//! What crosses threads is only what the driver hands in and reads out:
//! each reactor's inject queue (messages from outside, shutdown), the run
//! flags and history log (`RunShared`), and the wire counters.

use crate::reactor::{pool_size, spawn_reactor, Hosted, Inject, Mailbox};
use contrarian_runtime::actor::Actor;
use contrarian_runtime::history::{merge_shard_histories, TaggedEvent};
use contrarian_runtime::metrics::Metrics;
use contrarian_runtime::node_seed;
use contrarian_runtime::step::NodeState;
use contrarian_types::codec::Wire;
use contrarian_types::{Addr, HistoryEvent, Op};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Frames/bytes/sockets actually put on the wire, updated by the reactor
/// threads that do the socket writes. Relaxed atomics off the latency
/// path. Hello handshake frames are *not* counted — the totals mean
/// protocol traffic.
#[derive(Default)]
pub struct WireStats {
    frames: AtomicU64,
    bytes: AtomicU64,
    sockets: AtomicU64,
}

impl WireStats {
    pub fn on_frames(&self, frames: u64, bytes: u64) {
        if frames == 0 && bytes == 0 {
            return;
        }
        self.frames.fetch_add(frames, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one socket endpoint coming up (a completed connect or an
    /// accept) — the cluster's footprint metric.
    pub fn on_socket(&self) {
        self.sockets.fetch_add(1, Ordering::Relaxed);
    }

    pub fn frames_bytes(&self) -> (u64, u64) {
        (
            self.frames.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
        )
    }

    pub fn sockets(&self) -> u64 {
        self.sockets.load(Ordering::Relaxed)
    }
}

/// Cluster-wide run state: the clock origin, the stop/measure flags, and
/// the history log.
///
/// Metrics are *not* here: every reactor accumulates its nodes' own
/// [`Metrics`] and hands them back when its thread joins — the
/// measurement hot path takes no lock. History is only ever touched when
/// `recording` is set (functional runs), once per handler that recorded.
pub(crate) struct RunShared {
    pub(crate) start: Instant,
    pub(crate) stopped: AtomicBool,
    pub(crate) measuring: AtomicBool,
    history: Mutex<Vec<TaggedEvent>>,
    pub(crate) recording: bool,
}

impl RunShared {
    pub(crate) fn new(recording: bool) -> Self {
        RunShared {
            start: Instant::now(),
            stopped: AtomicBool::new(false),
            measuring: AtomicBool::new(false),
            history: Mutex::new(Vec::new()),
            recording,
        }
    }

    /// The history log. Every update is one append or one take, so a log
    /// whose lock a panicking thread poisoned is still whole.
    fn history(&self) -> std::sync::MutexGuard<'_, Vec<TaggedEvent>> {
        self.history
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Moves one handler's records into the log, leaving `records` empty.
    pub(crate) fn flush_history(&self, records: &mut Vec<TaggedEvent>) {
        if !records.is_empty() {
            self.history().append(records);
        }
    }

    /// Takes every event recorded since the last take, in canonical
    /// `(t, node, seq)` order.
    pub(crate) fn take_history(&self) -> Vec<HistoryEvent> {
        let taken = std::mem::take(&mut *self.history());
        merge_shard_histories([taken])
    }

    /// Wall-clock nanoseconds since the run started.
    pub(crate) fn now(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

/// State the reactors and the driver share: run flags + history, the wire
/// counters, where every node listens and which reactor hosts it, and
/// each reactor's inject queue.
pub(crate) struct ClusterCore<M> {
    pub(crate) run: RunShared,
    pub(crate) wire: WireStats,
    pub(crate) endpoints: HashMap<Addr, SocketAddr>,
    /// Node → `(reactor, index among that reactor's nodes)`.
    home: HashMap<Addr, (usize, usize)>,
    pub(crate) reactors: Vec<Mailbox<M>>,
}

impl<M> ClusterCore<M> {
    /// Hands `msg` to `to`'s reactor, bypassing the sockets. An address
    /// that is not in the cluster is a driver bug: it panics.
    fn deliver(&self, from: Addr, to: Addr, msg: M) {
        let &(r, node) = self
            .home
            .get(&to)
            .unwrap_or_else(|| panic!("unknown addr {to}"));
        self.reactors[r].push(Inject::Deliver { node, from, msg });
    }
}

/// I/O footprint of the running cluster, reported by `net_perf` and the
/// benchmark's TCP rungs: the OS threads and socket endpoints it takes to
/// move the frames.
#[derive(Clone, Copy, Debug)]
pub struct NetIoStats {
    /// Reactor threads, i.e. every thread the cluster runs (nodes and
    /// socket I/O alike): one per core, fixed at start.
    pub transport_threads: usize,
    /// Socket endpoints established so far (connects + accepts). One
    /// connection per peer pair, so a chatty pair costs two.
    pub sockets: u64,
}

/// A running TCP cluster: every node hosted on the reactor pool, every
/// message crossing a loopback socket.
pub struct NetCluster<A: Actor> {
    pub(crate) core: Arc<ClusterCore<A::Msg>>,
    pub(crate) reactors: Vec<JoinHandle<(Vec<A>, Metrics)>>,
    addrs: Vec<Addr>,
}

/// A handle for injecting messages from outside the cluster (facade role).
pub struct NetHandle<M> {
    core: Arc<ClusterCore<M>>,
}

impl<M: Send + 'static> NetHandle<M> {
    /// Hands `msg` straight to `to`, bypassing the sockets. An address
    /// that is not in the cluster is a driver bug: it panics, as
    /// [`NetCluster::inject_op`] does.
    pub fn send(&self, from: Addr, to: Addr, msg: M) {
        self.core.deliver(from, to, msg);
    }
}

impl<A> NetCluster<A>
where
    A: Actor + Send + 'static,
    A::Msg: Wire,
{
    /// Binds one loopback listener per node and starts the reactor pool,
    /// the nodes dealt round-robin across it.
    pub fn start(nodes: Vec<(Addr, A)>, recording: bool, seed: u64) -> Self {
        Self::launch(nodes, recording, seed, pool_size(), HashMap::new())
    }

    /// [`NetCluster::start`] on `pool` reactors, with `endpoints` naming
    /// where peers outside the cluster listen.
    pub(crate) fn launch(
        nodes: Vec<(Addr, A)>,
        recording: bool,
        seed: u64,
        pool: usize,
        mut endpoints: HashMap<Addr, SocketAddr>,
    ) -> Self {
        let mut hosted: Vec<Vec<Hosted<A>>> = (0..pool).map(|_| Vec::new()).collect();
        let mut home = HashMap::new();
        let mut addrs = Vec::with_capacity(nodes.len());
        for (gid, (addr, actor)) in nodes.into_iter().enumerate() {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
            listener
                .set_nonblocking(true)
                .expect("listener nonblocking");
            endpoints.insert(
                addr,
                listener.local_addr().expect("listener has local addr"),
            );
            let r = gid % pool;
            home.insert(addr, (r, hosted[r].len()));
            hosted[r].push(Hosted {
                state: NodeState::new(addr, gid as u32, node_seed(seed, addr)),
                actor,
                listener,
            });
            addrs.push(addr);
        }
        let (mailboxes, wake_rxs): (Vec<_>, Vec<_>) = (0..pool).map(|_| Mailbox::new()).unzip();
        let core = Arc::new(ClusterCore {
            run: RunShared::new(recording),
            wire: WireStats::default(),
            endpoints,
            home,
            reactors: mailboxes,
        });
        let reactors = hosted
            .into_iter()
            .zip(wake_rxs)
            .enumerate()
            .map(|(id, (nodes, wake_rx))| spawn_reactor(core.clone(), id, wake_rx, nodes))
            .collect();
        NetCluster {
            core,
            reactors,
            addrs,
        }
    }

    pub fn handle(&self) -> NetHandle<A::Msg> {
        NetHandle {
            core: self.core.clone(),
        }
    }

    pub fn addrs(&self) -> &[Addr] {
        &self.addrs
    }

    /// Sends an operation to a client node. External injection bypasses the
    /// sockets (it is not cluster traffic), exactly as on the other
    /// runtimes, and an address that is not in the cluster panics as it
    /// does there.
    pub fn inject_op(&self, client: Addr, op: Op) {
        self.core.deliver(client, client, A::inject(op));
    }

    /// Turns measurement on or off (sampled before every handler).
    pub fn set_measuring(&self, on: bool) {
        self.core.run.measuring.store(on, Ordering::SeqCst);
    }

    /// Signals closed-loop clients to stop issuing new operations.
    pub fn stop_issuing(&self) {
        self.core.run.stopped.store(true, Ordering::SeqCst);
    }

    /// Drains the history recorded since the last drain, releasing it
    /// from the shared log. Lets a streaming consumer check long runs
    /// without the cluster holding the whole log.
    pub fn drain_history(&self) -> Vec<HistoryEvent> {
        self.core.run.take_history()
    }

    /// `(frames, bytes)` successfully written to sockets so far (hello
    /// handshakes excluded).
    pub fn wire_stats(&self) -> (u64, u64) {
        self.core.wire.frames_bytes()
    }

    /// The cluster's current I/O footprint.
    pub fn io_stats(&self) -> NetIoStats {
        NetIoStats {
            transport_threads: self.reactors.len(),
            sockets: self.core.wire.sockets(),
        }
    }

    /// Stops every node, drains and tears down the sockets, and returns the
    /// final actors (in start order), merged metrics and history.
    /// Socket-level totals are folded into the metrics as
    /// `net.frames_sent` / `net.bytes_sent`. A reactor that panicked — a
    /// handler's panic, a corrupt frame, an unreachable peer — re-raises
    /// its own panic here, once every reactor has stopped.
    pub fn shutdown(self) -> (Vec<(Addr, A)>, Metrics, Vec<HistoryEvent>) {
        let core = &self.core;
        core.run.stopped.store(true, Ordering::SeqCst);
        for mailbox in &core.reactors {
            mailbox.push(Inject::Shutdown);
        }
        let mut metrics = Metrics::new();
        let mut panic = None;
        let mut hosted = Vec::with_capacity(self.reactors.len());
        for t in self.reactors {
            match t.join() {
                Ok((actors, local)) => {
                    metrics.absorb(&local);
                    hosted.push(actors.into_iter());
                }
                Err(payload) => {
                    panic.get_or_insert(payload);
                    hosted.push(Vec::new().into_iter());
                }
            }
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
        let actors = self
            .addrs
            .into_iter()
            .map(|addr| {
                let actor = hosted[core.home[&addr].0].next();
                (addr, actor.expect("every reactor returns its nodes"))
            })
            .collect();
        let (frames, bytes) = core.wire.frames_bytes();
        metrics.enabled = true;
        metrics.add("net.frames_sent", frames);
        metrics.add("net.bytes_sent", bytes);
        metrics.enabled = false;
        let history = core.run.take_history();
        (actors, metrics, history)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use contrarian_runtime::actor::{ActorCtx, TimerKind};
    use contrarian_runtime::cost::{MsgClass, SimMessage};
    use contrarian_types::codec::{CodecError, Reader};
    use contrarian_types::{ClientId, DcId, Key, PartitionId, VersionId};
    use std::time::Duration;

    /// A ping-pong actor: servers echo, clients count echoes.
    pub(crate) struct Echo {
        pub(crate) pongs: u64,
        pub(crate) peer: Option<Addr>,
    }

    #[derive(Clone, PartialEq, Debug)]
    pub(crate) struct Ping(pub(crate) u32);

    impl SimMessage for Ping {
        fn wire_size(&self) -> usize {
            32
        }
        fn class(&self) -> MsgClass {
            MsgClass::Data
        }
    }

    impl Wire for Ping {
        fn encode(&self, out: &mut Vec<u8>) {
            self.0.encode(out);
        }
        fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
            Ok(Ping(u32::decode(r)?))
        }
    }

    impl Actor for Echo {
        type Msg = Ping;

        fn on_start(&mut self, ctx: &mut dyn ActorCtx<Ping>) {
            if let Some(peer) = self.peer {
                ctx.send(peer, Ping(0));
            }
        }

        fn on_message(&mut self, ctx: &mut dyn ActorCtx<Ping>, from: Addr, msg: Ping) {
            if ctx.self_addr().is_server() {
                ctx.send(from, Ping(msg.0 + 1));
            } else {
                self.pongs += 1;
                if msg.0 < 99 {
                    ctx.send(from, Ping(msg.0 + 1));
                }
            }
        }

        fn on_timer(&mut self, _ctx: &mut dyn ActorCtx<Ping>, _kind: TimerKind) {}

        fn inject(_op: Op) -> Ping {
            Ping(0)
        }
    }

    #[test]
    fn ping_pong_over_real_sockets_reactor() {
        let server = Addr::server(DcId(0), PartitionId(0));
        let client = Addr::client(DcId(0), 0);
        let nodes = vec![
            (
                server,
                Echo {
                    pongs: 0,
                    peer: None,
                },
            ),
            (
                client,
                Echo {
                    pongs: 0,
                    peer: Some(server),
                },
            ),
        ];
        let cluster = NetCluster::start(nodes, false, 1);
        // 100 round trips over loopback finish in well under a second.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let (frames, _) = cluster.wire_stats();
            if frames >= 100 || Instant::now() > deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let (actors, metrics, _) = cluster.shutdown();
        let pongs = actors
            .iter()
            .find(|(a, _)| *a == client)
            .map(|(_, e)| e.pongs)
            .unwrap();
        assert_eq!(pongs, 50, "pings 0,2,..,98 produce 50 pongs");
        assert!(metrics.counter("net.frames_sent") >= 100);
        assert!(metrics.counter("net.bytes_sent") > 0);
    }

    /// The ping-pong exchange has a known wire footprint: pings 0..=99,
    /// one frame each — 4-byte length prefix, 4-byte sender `Addr`,
    /// 4-byte `u32` payload. The counters must report exactly that, and
    /// the totals must survive the shutdown drain (folded into
    /// `net.frames_sent`/`net.bytes_sent`).
    #[test]
    fn exact_wire_counters_reactor() {
        let server = Addr::server(DcId(0), PartitionId(0));
        let client = Addr::client(DcId(0), 0);
        let nodes = vec![
            (
                server,
                Echo {
                    pongs: 0,
                    peer: None,
                },
            ),
            (
                client,
                Echo {
                    pongs: 0,
                    peer: Some(server),
                },
            ),
        ];
        let cluster = NetCluster::start(nodes, false, 7);
        let deadline = Instant::now() + Duration::from_secs(10);
        while cluster.wire_stats().0 < 100 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        // The exchange is self-limiting: after frame 100 nothing else may
        // hit the wire.
        std::thread::sleep(Duration::from_millis(50));
        let (frames, bytes) = cluster.wire_stats();
        assert_eq!(frames, 100, "one frame per ping 0..=99");
        assert_eq!(bytes, 100 * 12, "prefix(4) + Addr(4) + payload(4)");
        assert!(cluster.io_stats().sockets >= 1);
        let (_, metrics, _) = cluster.shutdown();
        assert_eq!(metrics.counter("net.frames_sent"), 100);
        assert_eq!(metrics.counter("net.bytes_sent"), 1200);
    }

    /// Client bursts 200 pings at start; server records receive order.
    struct Burst {
        got: Vec<u32>,
    }
    impl Actor for Burst {
        type Msg = Ping;
        fn on_start(&mut self, ctx: &mut dyn ActorCtx<Ping>) {
            if !ctx.self_addr().is_server() {
                for i in 0..200 {
                    ctx.send(Addr::server(DcId(0), PartitionId(0)), Ping(i));
                }
            }
        }
        fn on_message(&mut self, _ctx: &mut dyn ActorCtx<Ping>, _from: Addr, msg: Ping) {
            self.got.push(msg.0);
        }
        fn on_timer(&mut self, _ctx: &mut dyn ActorCtx<Ping>, _kind: TimerKind) {}
        fn inject(_op: Op) -> Ping {
            Ping(0)
        }
    }

    #[test]
    fn fifo_is_preserved_per_link_reactor() {
        let server = Addr::server(DcId(0), PartitionId(0));
        let nodes = vec![
            (server, Burst { got: vec![] }),
            (Addr::client(DcId(0), 0), Burst { got: vec![] }),
        ];
        let cluster = NetCluster::start(nodes, false, 2);
        let deadline = Instant::now() + Duration::from_secs(10);
        while cluster.wire_stats().0 < 200 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        std::thread::sleep(Duration::from_millis(50));
        let (actors, ..) = cluster.shutdown();
        let got = &actors.iter().find(|(a, _)| *a == server).unwrap().1.got;
        assert_eq!(*got, (0..200).collect::<Vec<_>>(), "TCP link must be FIFO");
    }

    #[test]
    fn injection_reaches_clients_reactor() {
        let server = Addr::server(DcId(0), PartitionId(0));
        let client = Addr::client(DcId(0), 0);
        let nodes = vec![
            (
                server,
                Echo {
                    pongs: 0,
                    peer: None,
                },
            ),
            (
                client,
                Echo {
                    pongs: 0,
                    peer: None, // idle until injected
                },
            ),
        ];
        let cluster = NetCluster::start(nodes, false, 3);
        cluster.handle().send(client, client, Ping(500));
        std::thread::sleep(Duration::from_millis(100));
        let (actors, ..) = cluster.shutdown();
        let pongs = actors.iter().find(|(a, _)| *a == client).unwrap().1.pongs;
        assert_eq!(pongs, 1, "injected ping counted, no further round trips");
    }

    /// Runs `stray` against a one-server idle cluster, tears the reactors
    /// down, then re-raises any panic, so no thread outlives the test.
    fn on_idle_cluster(stray: impl FnOnce(&NetCluster<Echo>)) {
        let server = Addr::server(DcId(0), PartitionId(0));
        let idle = Echo {
            pongs: 0,
            peer: None,
        };
        let cluster = NetCluster::start(vec![(server, idle)], false, 5);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| stray(&cluster)));
        cluster.shutdown();
        if let Err(panic) = outcome {
            std::panic::resume_unwind(panic);
        }
    }

    /// An operation injected at an address that is not in the cluster is a
    /// driver bug: it panics, as on the simulator, instead of vanishing.
    #[test]
    #[should_panic(expected = "unknown addr")]
    fn injecting_at_an_unknown_address_panics() {
        on_idle_cluster(|cluster| {
            cluster.inject_op(Addr::client(DcId(0), 999), Op::Rot(Vec::new()))
        });
    }

    /// A handle's message to an address that is not in the cluster panics
    /// the same way, instead of being dropped.
    #[test]
    #[should_panic(expected = "unknown addr")]
    fn sending_to_an_unknown_address_panics() {
        on_idle_cluster(|cluster| {
            let stray = Addr::client(DcId(0), 999);
            cluster.handle().send(stray, stray, Ping(0))
        });
    }

    /// Sockets are dialed lazily: a cluster nobody talks in opens none,
    /// writes nothing, and hands its actors back in start order.
    #[test]
    fn idle_cluster_opens_no_sockets_and_shuts_down_clean() {
        let nodes: Vec<(Addr, Echo)> = (0..3)
            .map(|p| {
                (
                    Addr::server(DcId(0), PartitionId(p)),
                    Echo {
                        pongs: 0,
                        peer: None,
                    },
                )
            })
            .collect();
        let order: Vec<Addr> = nodes.iter().map(|(a, _)| *a).collect();
        let cluster = NetCluster::start(nodes, false, 4);
        assert_eq!(cluster.addrs(), &order[..]);
        std::thread::sleep(Duration::from_millis(50));
        let io = cluster.io_stats();
        assert_eq!(io.transport_threads, pool_size());
        assert_eq!(io.sockets, 0);
        assert_eq!(cluster.wire_stats(), (0, 0));
        let (actors, metrics, history) = cluster.shutdown();
        let back: Vec<Addr> = actors.iter().map(|(a, _)| *a).collect();
        assert_eq!(back, order);
        assert_eq!(metrics.counter("net.frames_sent"), 0);
        assert!(history.is_empty());
    }

    /// Every node gets its own loopback listener, and the reactors know
    /// each one's address before the first dial.
    #[test]
    fn every_node_listens_on_its_own_loopback_port() {
        let nodes: Vec<(Addr, Echo)> = (0..3)
            .map(|p| {
                (
                    Addr::server(DcId(0), PartitionId(p)),
                    Echo {
                        pongs: 0,
                        peer: None,
                    },
                )
            })
            .collect();
        let cluster = NetCluster::start(nodes, false, 6);
        let endpoints = &cluster.core.endpoints;
        assert_eq!(endpoints.len(), 3);
        let mut ports: Vec<u16> = cluster
            .addrs()
            .iter()
            .map(|a| {
                let at = endpoints[a];
                assert!(at.ip().is_loopback(), "{a} listens on {at}");
                at.port()
            })
            .collect();
        ports.sort_unstable();
        ports.dedup();
        assert_eq!(ports.len(), 3, "one port per node");
        cluster.shutdown();
    }

    /// Records one PUT per message it receives, tagged with the ping's
    /// number, and counts what it saw.
    struct Recorder {
        seen: u32,
    }

    impl Actor for Recorder {
        type Msg = Ping;
        fn on_start(&mut self, _ctx: &mut dyn ActorCtx<Ping>) {}
        fn on_message(&mut self, ctx: &mut dyn ActorCtx<Ping>, _from: Addr, msg: Ping) {
            self.seen += 1;
            ctx.record(HistoryEvent::PutDone {
                client: contrarian_types::ClientId::new(DcId(0), 0),
                seq: msg.0,
                t_start: 0,
                t_end: 0,
                key: contrarian_types::Key(1),
                vid: contrarian_types::VersionId::new(1, DcId(0)),
            });
        }
        fn on_timer(&mut self, _ctx: &mut dyn ActorCtx<Ping>, _kind: TimerKind) {}
        fn inject(_op: Op) -> Ping {
            Ping(0)
        }
    }

    fn seqs(history: &[HistoryEvent]) -> Vec<u32> {
        history
            .iter()
            .map(|e| match e {
                HistoryEvent::PutDone { seq, .. } => *seq,
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    }

    /// What a drain hands out is gone from the log: shutdown returns only
    /// what was recorded after it.
    #[test]
    fn drained_history_is_not_handed_out_again_at_shutdown() {
        let client = Addr::client(DcId(0), 0);
        let cluster = NetCluster::start(vec![(client, Recorder { seen: 0 })], true, 8);
        let handle = cluster.handle();
        handle.send(client, client, Ping(1));
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut drained = Vec::new();
        while drained.is_empty() && Instant::now() < deadline {
            drained = cluster.drain_history();
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(seqs(&drained), [1]);
        handle.send(client, client, Ping(2));
        handle.send(client, client, Ping(3));
        let (actors, _, history) = cluster.shutdown();
        assert_eq!(actors[0].1.seen, 3);
        assert_eq!(seqs(&history), [2, 3]);
    }

    /// Records two PUTs per message it receives, stamped with the
    /// handler's time and its node's index and numbered by the node's
    /// own running count: the fields of the history's canonical key.
    struct Tagger {
        n: u32,
    }

    impl Actor for Tagger {
        type Msg = Ping;
        fn on_start(&mut self, _ctx: &mut dyn ActorCtx<Ping>) {}
        fn on_message(&mut self, ctx: &mut dyn ActorCtx<Ping>, _from: Addr, _msg: Ping) {
            for _ in 0..2 {
                let now = ctx.now();
                ctx.record(HistoryEvent::PutDone {
                    client: contrarian_types::ClientId::new(DcId(0), ctx.self_addr().idx),
                    seq: self.n,
                    t_start: now,
                    t_end: now,
                    key: contrarian_types::Key(1),
                    vid: contrarian_types::VersionId::new(1, DcId(0)),
                });
                self.n += 1;
            }
        }
        fn on_timer(&mut self, _ctx: &mut dyn ActorCtx<Ping>, _kind: TimerKind) {}
        fn inject(_op: Op) -> Ping {
            Ping(0)
        }
    }

    /// A recorded TCP run's history is tagged `(t, node, seq)` like the
    /// simulator's: every drain comes out in canonical order, each node's
    /// records keep their counter order across drains, and the drains
    /// plus shutdown hand out every record exactly once.
    #[test]
    fn recorded_history_drains_in_canonical_order() {
        const NODES: u16 = 3;
        const MSGS: u32 = 200;
        let addr = |i: u16| Addr::client(DcId(0), i);
        let nodes = (0..NODES).map(|i| (addr(i), Tagger { n: 0 })).collect();
        let cluster = NetCluster::start(nodes, true, 10);
        let handle = cluster.handle();
        let mut drains = Vec::new();
        for m in 0..MSGS {
            for i in 0..NODES {
                handle.send(addr(i), addr(i), Ping(m));
            }
            if m % 20 == 19 {
                drains.push(cluster.drain_history());
            }
        }
        let (_, _, rest) = cluster.shutdown();
        drains.push(rest);
        // Registration order is index order, so the index is the node id.
        let key = |e: &HistoryEvent| match e {
            HistoryEvent::PutDone {
                client, seq, t_end, ..
            } => (*t_end, client.idx(), *seq),
            other => panic!("unexpected {other:?}"),
        };
        for (d, drain) in drains.iter().enumerate() {
            let keys: Vec<_> = drain.iter().map(key).collect();
            assert!(keys.is_sorted(), "drain {d} is out of canonical order");
        }
        let all: Vec<_> = drains.iter().flatten().map(key).collect();
        for i in 0..NODES {
            let own: Vec<u32> = all.iter().filter(|k| k.1 == i).map(|k| k.2).collect();
            let want: Vec<u32> = (0..2 * MSGS).collect();
            assert_eq!(own, want, "node {i}: each record once, in counter order");
        }
        assert_eq!(all.len(), (2 * MSGS * NODES as u32) as usize);
    }

    /// A cluster started without recording keeps no history, though its
    /// nodes record as they would in a functional run.
    #[test]
    fn a_cluster_that_does_not_record_keeps_no_history() {
        let client = Addr::client(DcId(0), 0);
        let cluster = NetCluster::start(vec![(client, Recorder { seen: 0 })], false, 9);
        cluster.handle().send(client, client, Ping(1));
        cluster.handle().send(client, client, Ping(2));
        assert!(cluster.drain_history().is_empty());
        let (actors, _, history) = cluster.shutdown();
        assert_eq!(actors[0].1.seen, 2, "both messages were handled");
        assert!(history.is_empty());
    }

    /// A handler's panic stops its reactor, and `shutdown` re-raises it
    /// with the handler's own message.
    #[test]
    fn a_handlers_panic_keeps_its_message() {
        struct Boom;
        impl Actor for Boom {
            type Msg = Ping;
            fn on_start(&mut self, _ctx: &mut dyn ActorCtx<Ping>) {}
            fn on_message(&mut self, _ctx: &mut dyn ActorCtx<Ping>, _from: Addr, msg: Ping) {
                panic!("boom {}", msg.0);
            }
            fn on_timer(&mut self, _ctx: &mut dyn ActorCtx<Ping>, _kind: TimerKind) {}
            fn inject(_op: Op) -> Ping {
                Ping(0)
            }
        }
        let client = Addr::client(DcId(0), 0);
        let cluster = NetCluster::start(vec![(client, Boom)], false, 12);
        cluster.handle().send(client, client, Ping(7));
        let msg = shutdown_panic(cluster);
        assert!(msg.contains("boom 7"), "{msg}");
    }

    /// Shuts `cluster` down expecting a reactor's panic, and returns its
    /// message.
    pub(crate) fn shutdown_panic<A: Actor + Send + 'static>(cluster: NetCluster<A>) -> String
    where
        A::Msg: Wire,
    {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cluster.shutdown()));
        let Err(payload) = outcome else {
            panic!("shutdown returned: no reactor panicked");
        };
        match payload.downcast::<String>() {
            Ok(msg) => *msg,
            Err(payload) => payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .unwrap_or_default(),
        }
    }

    /// A message of ~100 B on the wire: ballast.
    #[derive(Clone)]
    struct Chunk(Vec<u8>);

    impl SimMessage for Chunk {
        fn wire_size(&self) -> usize {
            self.0.len()
        }
        fn class(&self) -> MsgClass {
            MsgClass::Data
        }
    }

    impl Wire for Chunk {
        fn encode(&self, out: &mut Vec<u8>) {
            self.0.encode(out);
        }
        fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
            Ok(Chunk(Vec::decode(r)?))
        }
    }

    /// Answers every message with two: a flood that outgrows any buffer.
    struct Flood {
        seen: u64,
        peer: Option<Addr>,
    }

    impl Actor for Flood {
        type Msg = Chunk;
        fn on_start(&mut self, ctx: &mut dyn ActorCtx<Chunk>) {
            if let Some(peer) = self.peer {
                ctx.send(peer, Chunk(vec![0; 84]));
            }
        }
        fn on_message(&mut self, ctx: &mut dyn ActorCtx<Chunk>, from: Addr, msg: Chunk) {
            self.seen += 1;
            ctx.send(from, msg.clone());
            ctx.send(from, msg);
        }
        fn on_timer(&mut self, _ctx: &mut dyn ActorCtx<Chunk>, _kind: TimerKind) {}
        fn inject(_op: Op) -> Chunk {
            Chunk(Vec::new())
        }
    }

    /// Two nodes that answer every frame with two fill each other's rings
    /// until both are paused and progress stops. Nothing blocks, so
    /// shutdown still drains the rings and hands both actors back.
    #[test]
    fn a_flooded_pair_stalls_and_still_shuts_down() {
        let a = Addr::server(DcId(0), PartitionId(0));
        let b = Addr::server(DcId(0), PartitionId(1));
        let nodes = vec![
            (
                a,
                Flood {
                    seen: 0,
                    peer: Some(b),
                },
            ),
            (
                b,
                Flood {
                    seen: 0,
                    peer: None,
                },
            ),
        ];
        let cluster = NetCluster::start(nodes, false, 13);
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut last = (0, 0);
        loop {
            std::thread::sleep(Duration::from_millis(200));
            let now = cluster.wire_stats();
            if now == last && now.0 > 0 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "the flood never stalled: {now:?}"
            );
            last = now;
        }
        let t0 = Instant::now();
        let (actors, ..) = cluster.shutdown();
        assert!(t0.elapsed() < Duration::from_secs(10), "{:?}", t0.elapsed());
        assert_eq!(actors.len(), 2);
        assert!(actors.iter().all(|(_, f)| f.seen > 0));
    }
    fn put(seq: u32) -> HistoryEvent {
        HistoryEvent::PutDone {
            client: ClientId::new(DcId(0), 0),
            seq,
            t_start: 0,
            t_end: 1,
            key: Key(1),
            vid: VersionId::new(seq as u64 + 1, DcId(0)),
        }
    }

    /// One record of node `node`, its `seq`-th, at time `seq`.
    fn tagged(node: u32, seq: u32) -> TaggedEvent {
        TaggedEvent {
            t: seq as u64,
            node,
            seq: seq as u64,
            ev: put(node * 1_000 + seq),
        }
    }

    fn seq_of(ev: &HistoryEvent) -> u32 {
        match ev {
            HistoryEvent::PutDone { seq, .. } => *seq,
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Takes racing flushes from several reactor threads hand out every
    /// event exactly once, and each thread's events in its own order.
    #[test]
    fn takes_racing_appends_hand_out_each_event_once() {
        const THREADS: u32 = 4;
        const PER_THREAD: u32 = 500;
        let shared = RunShared::new(true);
        let mut taken = Vec::new();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let shared = &shared;
                s.spawn(move || {
                    let mut records = Vec::new();
                    for i in 0..PER_THREAD {
                        records.push(tagged(t, i));
                        shared.flush_history(&mut records);
                        assert!(records.is_empty());
                    }
                });
            }
            while taken.len() < (THREADS * PER_THREAD) as usize {
                taken.extend(shared.take_history());
                std::thread::yield_now();
            }
        });
        assert!(shared.take_history().is_empty());
        let seqs: Vec<u32> = taken.iter().map(seq_of).collect();
        for t in 0..THREADS {
            let own: Vec<u32> = seqs.iter().copied().filter(|s| s / 1_000 == t).collect();
            let want: Vec<u32> = (t * 1_000..t * 1_000 + PER_THREAD).collect();
            assert_eq!(own, want, "thread {t}");
        }
    }

    /// A thread that panics while appending poisons the lock; the events
    /// already in the log are still handed out, and appends go on.
    #[test]
    fn a_poisoned_log_still_hands_out_its_events() {
        let shared = RunShared::new(true);
        shared.history().push(tagged(0, 1));
        let poisoner = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = shared.history.lock().unwrap();
            panic!("node handler failed");
        }));
        assert!(poisoner.is_err());
        assert!(shared.history.is_poisoned());
        shared.history().push(tagged(0, 2));
        let seqs: Vec<u32> = shared.take_history().iter().map(seq_of).collect();
        assert_eq!(seqs, [1, 2]);
    }
}
