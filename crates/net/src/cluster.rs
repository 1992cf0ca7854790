//! The TCP cluster: node threads on the live event loop, every socket on
//! the reactor pool.
//!
//! [`NetCluster`] is what the builders and the harness talk to. Starting
//! one binds a loopback listener per node (recording where each listens),
//! spawns the [`reactor`](crate::reactor) pool, then one
//! thread per node running the [`node_loop`](crate::node_loop). The node
//! threads and the reactors share a `ClusterCore`: the run flags and
//! history log ([`RunShared`]), every node's input channel, and the wire
//! counters.

use crate::node_loop::{run_node, Input, RunShared};
use crate::reactor::{pool_size, spawn_reactors, stop_reactors, NetInner, ReactorOutbound};
use contrarian_runtime::actor::Actor;
use contrarian_runtime::metrics::Metrics;
use contrarian_runtime::node_seed;
use contrarian_runtime::step::NodeState;
use contrarian_types::codec::Wire;
use contrarian_types::{Addr, HistoryEvent, Op};
use std::collections::HashMap;
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Capacity of each node's input channel (frames). Bounded so a stalled
/// node exerts backpressure instead of ballooning memory.
const CHANNEL_CAP: usize = 64 * 1024;

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

/// State the node threads and the reactors share: run flags + history,
/// the inbox of every node (reactors deliver into it, injection bypasses
/// the sockets through it), and the wire counters.
pub(crate) struct ClusterCore<M> {
    pub(crate) run: RunShared,
    pub(crate) inbox: HashMap<Addr, SyncSender<Input<M>>>,
    pub(crate) wire: WireStats,
}

/// I/O footprint of the running cluster, reported by `net_perf` and the
/// benchmark's TCP rungs: the OS threads and socket endpoints it takes to
/// move the frames.
#[derive(Clone, Copy, Debug)]
pub struct NetIoStats {
    /// Reactor threads, i.e. threads dedicated to socket I/O (node
    /// threads excluded): one per core, fixed at start.
    pub transport_threads: usize,
    /// Socket endpoints established so far (connects + accepts). One
    /// connection per peer pair, so a chatty pair costs two.
    pub sockets: u64,
}

/// A running TCP cluster: every node an OS thread, every message crossing
/// a loopback socket driven by the reactor pool.
pub struct NetCluster<A: Actor> {
    net: Arc<NetInner<A::Msg>>,
    node_threads: Vec<JoinHandle<(A, Metrics)>>,
    reactor_threads: Vec<JoinHandle<()>>,
    addrs: Vec<Addr>,
}

/// A handle for injecting messages from outside the cluster (facade role).
pub struct NetHandle<M> {
    core: Arc<ClusterCore<M>>,
}

impl<M: Send + 'static> NetHandle<M> {
    /// Puts `msg` straight into `to`'s inbox, bypassing the sockets. An
    /// address that is not in the cluster is a driver bug: it panics, as
    /// [`NetCluster::inject_op`] does.
    pub fn send(&self, from: Addr, to: Addr, msg: M) {
        let tx = self
            .core
            .inbox
            .get(&to)
            .unwrap_or_else(|| panic!("unknown addr {to}"));
        let _ = tx.send(Input::Msg { from, msg });
    }
}

impl<A> NetCluster<A>
where
    A: Actor + Send + 'static,
    A::Msg: Wire,
{
    /// Binds one loopback listener per node, spawns the reactor pool
    /// (listeners dealt round-robin across it), then the node threads.
    pub fn start(nodes: Vec<(Addr, A)>, recording: bool, seed: u64) -> Self {
        let pool = pool_size();
        let mut inbox = HashMap::new();
        let mut rxs = Vec::with_capacity(nodes.len());
        let mut endpoints = HashMap::new();
        let mut listeners_per: Vec<Vec<(Addr, TcpListener)>> =
            (0..pool).map(|_| Vec::new()).collect();
        for (i, (addr, _)) in nodes.iter().enumerate() {
            let (tx, rx) = sync_channel::<Input<A::Msg>>(CHANNEL_CAP);
            inbox.insert(*addr, tx);
            rxs.push(rx);
            let l = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
            l.set_nonblocking(true).expect("listener nonblocking");
            endpoints.insert(*addr, l.local_addr().expect("listener has local addr"));
            listeners_per[i % pool].push((*addr, l));
        }
        let core = Arc::new(ClusterCore {
            run: RunShared::new(recording),
            inbox,
            wire: WireStats::default(),
        });
        let (net, reactor_threads) = spawn_reactors(core, endpoints, listeners_per);

        let addrs: Vec<Addr> = nodes.iter().map(|(a, _)| *a).collect();
        let node_threads = nodes
            .into_iter()
            .zip(rxs)
            .enumerate()
            .map(|(gid, ((addr, actor), rx))| {
                let out = ReactorOutbound::new(addr, net.clone());
                let core = net.core.clone();
                let node = NodeState::new(addr, gid as u32, node_seed(seed, addr));
                std::thread::spawn(move || run_node(node, actor, rx, out, &core.run))
            })
            .collect();
        NetCluster {
            net,
            node_threads,
            reactor_threads,
            addrs,
        }
    }

    pub fn handle(&self) -> NetHandle<A::Msg> {
        NetHandle {
            core: self.net.core.clone(),
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
        let tx = self
            .net
            .core
            .inbox
            .get(&client)
            .unwrap_or_else(|| panic!("unknown addr {client}"));
        let _ = tx.send(Input::Msg {
            from: client,
            msg: A::inject(op),
        });
    }

    /// Turns measurement on or off (sampled by every node thread).
    pub fn set_measuring(&self, on: bool) {
        self.net.core.run.measuring.store(on, Ordering::SeqCst);
    }

    /// Signals closed-loop clients to stop issuing new operations.
    pub fn stop_issuing(&self) {
        self.net.core.run.stopped.store(true, Ordering::SeqCst);
    }

    /// Drains the history recorded since the last drain, releasing it
    /// from the shared log. Lets a streaming consumer check long runs
    /// without the cluster holding the whole log.
    pub fn drain_history(&self) -> Vec<HistoryEvent> {
        self.net.core.run.take_history()
    }

    /// `(frames, bytes)` successfully written to sockets so far (hello
    /// handshakes excluded).
    pub fn wire_stats(&self) -> (u64, u64) {
        self.net.core.wire.frames_bytes()
    }

    /// The cluster's current I/O footprint.
    pub fn io_stats(&self) -> NetIoStats {
        NetIoStats {
            transport_threads: self.reactor_threads.len(),
            sockets: self.net.core.wire.sockets(),
        }
    }

    /// Stops every node, drains and tears down the sockets, and returns the
    /// final actors, merged metrics and history. Socket-level totals are
    /// folded into the metrics as `net.frames_sent` / `net.bytes_sent`.
    pub fn shutdown(self) -> (Vec<(Addr, A)>, Metrics, Vec<HistoryEvent>) {
        let core = &self.net.core;
        // 1. Stop the state machines (reactors still live, so in-flight
        // output keeps draining while nodes wind down).
        core.run.stopped.store(true, Ordering::SeqCst);
        for tx in core.inbox.values() {
            let _ = tx.send(Input::Stop);
        }
        let mut actors = Vec::new();
        let mut metrics = Metrics::new();
        for (t, addr) in self.node_threads.into_iter().zip(self.addrs) {
            let (actor, local) = t.join().expect("node thread panicked");
            metrics.absorb(&local);
            actors.push((addr, actor));
        }
        // 2. Drain what remains on the wire and stop the reactors; one that
        // panicked mid-run fails the shutdown here.
        stop_reactors(&self.net, self.reactor_threads);
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
    use contrarian_types::{DcId, PartitionId};
    use std::time::{Duration, Instant};

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
        let endpoints = &cluster.net.endpoints;
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
}
