//! The TCP cluster: node threads on the live event loop, every socket on
//! the reactor pool.
//!
//! [`NetCluster`] is what the builders and the harness talk to. Starting
//! one binds a loopback listener per node (assembling the loopback
//! [`StaticBook`]), spawns the [`reactor`](crate::reactor) pool, then one
//! thread per node running the [`node_loop`](crate::node_loop). The node
//! threads and the reactors share a `ClusterCore`: the run flags and
//! history sink ([`RunShared`]), every node's input channel, and the wire
//! counters.

use crate::addrbook::StaticBook;
use crate::node_loop::{run_node, Input, RunShared};
use crate::reactor::{pool_size, spawn_reactors, stop_reactors, NetInner, ReactorOutbound};
use contrarian_runtime::actor::Actor;
use contrarian_runtime::metrics::Metrics;
use contrarian_runtime::node_seed;
use contrarian_types::codec::Wire;
use contrarian_types::{Addr, HistoryEvent, Op};
use std::collections::HashMap;
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

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
    /// threads excluded). Fixed at start by `CONTRARIAN_NET_THREADS`.
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

    /// Blocks until some history event satisfies `pred` (see
    /// [`contrarian_runtime::HistorySink::wait_for`]).
    pub fn wait_for_history<F>(
        &self,
        cursor: &mut usize,
        timeout: Duration,
        pred: F,
    ) -> Option<HistoryEvent>
    where
        F: FnMut(&HistoryEvent) -> bool,
    {
        self.core.run.history.wait_for(cursor, timeout, pred)
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
        let mut book = StaticBook::default();
        let mut listeners_per: Vec<Vec<(Addr, TcpListener)>> =
            (0..pool).map(|_| Vec::new()).collect();
        for (i, (addr, _)) in nodes.iter().enumerate() {
            let (tx, rx) = sync_channel::<Input<A::Msg>>(CHANNEL_CAP);
            inbox.insert(*addr, tx);
            rxs.push(rx);
            let l = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
            l.set_nonblocking(true).expect("listener nonblocking");
            book.insert(*addr, l.local_addr().expect("listener has local addr"));
            listeners_per[i % pool].push((*addr, l));
        }
        let core = Arc::new(ClusterCore {
            run: RunShared::new(recording),
            inbox,
            wire: WireStats::default(),
        });
        let (net, reactor_threads) = spawn_reactors(core, Arc::new(book), listeners_per);

        let addrs: Vec<Addr> = nodes.iter().map(|(a, _)| *a).collect();
        let node_threads = nodes
            .into_iter()
            .zip(rxs)
            .map(|((addr, actor), rx)| {
                let out = ReactorOutbound::new(addr, net.clone());
                let core = net.core.clone();
                let seed = node_seed(seed, addr);
                std::thread::spawn(move || run_node(addr, actor, rx, out, &core.run, seed))
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
    /// from the shared sink (see
    /// [`contrarian_runtime::HistorySink::drain`]). Lets a streaming
    /// consumer check long runs without the sink holding the whole log.
    pub fn drain_history(&self) -> Vec<HistoryEvent> {
        self.net.core.run.history.drain()
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
        let history = core.run.history.take();
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
    use std::time::Instant;

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
}
