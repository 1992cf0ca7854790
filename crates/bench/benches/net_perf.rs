//! net_perf — the contrarian-net reactor's socket throughput and I/O
//! footprint.
//!
//! Headline metric: **frames/sec/core** — wire frames moved per second,
//! divided by the I/O threads doing the moving. The reactor pool (one
//! thread per core, `available_parallelism`) hosts every node and drives
//! every socket, so the divisor stays flat as the cluster grows.
//!
//! Two experiments:
//!
//! * `stream/reactor` — a 2-node pair with 64 concurrent ping-pong
//!   volleys in flight; one iteration is the wall time for 2000 frames to
//!   cross the wire. This is the per-socket hot path: frame encode,
//!   vectored write, readiness wakeup, incremental reassembly.
//! * `all_to_all/reactor/<n>` at n = 16 and 64 — n nodes each ping every
//!   other node once and every ping is echoed (n·(n-1)·2 frames); one
//!   iteration is the full cluster lifecycle: bind, dial, handshake,
//!   drain, shutdown. This is the scaling story: at n=64 the 4032 directed
//!   links run from the same fixed pool of I/O threads. (With every node
//!   dialing simultaneously both directions of a pair race their dials,
//!   so connection reuse is at its worst here.)
//!
//! Alongside each measurement the bench prints the observed sockets, I/O
//! threads and the process's OS threads while the cluster runs (from
//! `/proc/self/status`: the reactors plus this process's own), and the
//! derived frames/sec and frames/sec/core.

use contrarian_net::NetCluster;
use contrarian_runtime::actor::{Actor, ActorCtx, TimerKind};
use contrarian_runtime::cost::{MsgClass, SimMessage};
use contrarian_types::codec::{CodecError, Reader, Wire};
use contrarian_types::{Addr, DcId, Op, PartitionId};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::{Duration, Instant};

/// The wire message: a hop budget. Every delivery with hops left is echoed
/// back with one hop fewer, so injecting `Hop(k)` produces k+1 frames and
/// `Hop(u32::MAX)` an endless volley (cut off by shutdown).
#[derive(Clone)]
struct Hop(u32);

impl SimMessage for Hop {
    fn wire_size(&self) -> usize {
        32
    }
    fn class(&self) -> MsgClass {
        MsgClass::Data
    }
}

impl Wire for Hop {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Hop(u32::decode(r)?))
    }
}

/// Echoes every message while its hop budget lasts; on start, optionally
/// pings every peer partition once (the all-to-all experiment).
struct Pump {
    /// Partitions 0..fan_out get one `Hop(1)` each at startup (self
    /// excluded); 0 means stay quiet until spoken to.
    fan_out: u16,
}

impl Actor for Pump {
    type Msg = Hop;

    fn on_start(&mut self, ctx: &mut dyn ActorCtx<Hop>) {
        let me = ctx.self_addr();
        for p in 0..self.fan_out {
            let peer = Addr::server(DcId(0), PartitionId(p));
            if peer != me {
                ctx.send(peer, Hop(1));
            }
        }
    }

    fn on_message(&mut self, ctx: &mut dyn ActorCtx<Hop>, from: Addr, msg: Hop) {
        if msg.0 > 0 {
            ctx.send(from, Hop(msg.0 - 1));
        }
    }

    fn on_timer(&mut self, _ctx: &mut dyn ActorCtx<Hop>, _kind: TimerKind) {}

    fn inject(_op: Op) -> Hop {
        Hop(0)
    }
}

/// Blocks until the cluster's frame counter reaches `target` (yielding,
/// not sleeping — the waiter shares cores with the cluster under test).
fn wait_frames<A: Actor + Send + 'static>(
    cluster: &NetCluster<A>,
    target: u64,
    deadline: Instant,
) -> u64
where
    A::Msg: Wire,
{
    loop {
        let (frames, _) = cluster.wire_stats();
        if frames >= target {
            return frames;
        }
        assert!(
            Instant::now() < deadline,
            "stalled at {frames}/{target} frames"
        );
        std::thread::yield_now();
    }
}

/// The process's OS threads now (`Threads:` in `/proc/self/status`; 0
/// where there is no procfs).
fn os_threads() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|n| n.trim().parse().ok())
        })
        .unwrap_or(0)
}

fn cores() -> f64 {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1) as f64
}

/// Frames the stream experiment counts per iteration.
const STREAM_BURST: u64 = 2000;
/// Concurrent volleys kept in flight (deeper pipeline = more frames per
/// readiness wakeup, which is exactly what vectored drains exploit).
const STREAM_DEPTH: u32 = 64;

fn bench_stream(c: &mut Criterion) {
    let mut g = c.benchmark_group("net_perf");
    g.sample_size(10).measurement_time(Duration::from_secs(8));
    let a = Addr::server(DcId(0), PartitionId(0));
    let b = Addr::server(DcId(0), PartitionId(1));
    let nodes = vec![(a, Pump { fan_out: 0 }), (b, Pump { fan_out: 0 })];
    let cluster = NetCluster::start(nodes, false, 7);
    let handle = cluster.handle();
    for i in 0..STREAM_DEPTH {
        // Spoof the sender so a's echoes go to b over the wire.
        handle.send(b, a, Hop(u32::MAX - i));
    }
    // Let dials, handshakes, and the first echoes settle.
    wait_frames(
        &cluster,
        STREAM_DEPTH as u64,
        Instant::now() + Duration::from_secs(10),
    );

    let mut total_ns = 0.0f64;
    let mut bursts = 0u64;
    g.bench_function(BenchmarkId::new("stream", "reactor"), |bch| {
        bch.iter(|| {
            let t0 = Instant::now();
            let (start, _) = cluster.wire_stats();
            wait_frames(&cluster, start + STREAM_BURST, t0 + Duration::from_secs(30));
            total_ns += t0.elapsed().as_nanos() as f64;
            bursts += 1;
        })
    });

    let io = cluster.io_stats();
    let fps = (bursts * STREAM_BURST) as f64 / (total_ns / 1e9);
    eprintln!(
        "net_perf/stream/reactor: {:.0} frames/s, {:.0} frames/s/core ({} io threads, {} os threads, {} socket endpoints, {} machine cores)",
        fps,
        fps / io.transport_threads.max(1) as f64,
        io.transport_threads,
        os_threads(),
        io.sockets,
        cores(),
    );
    cluster.shutdown();
    g.finish();
}

/// One full all-to-all lifecycle; returns the sockets, io threads and OS
/// threads observed while the cluster ran.
fn all_to_all_once(n: u16) -> (u64, usize, u64) {
    let nodes: Vec<(Addr, Pump)> = (0..n)
        .map(|p| (Addr::server(DcId(0), PartitionId(p)), Pump { fan_out: n }))
        .collect();
    let cluster = NetCluster::start(nodes, false, 11);
    let want = n as u64 * (n as u64 - 1) * 2;
    wait_frames(&cluster, want, Instant::now() + Duration::from_secs(60));
    let io = cluster.io_stats();
    let threads = os_threads();
    cluster.shutdown();
    (io.sockets, io.transport_threads, threads)
}

fn bench_all_to_all(c: &mut Criterion) {
    let mut g = c.benchmark_group("net_perf");
    g.sample_size(2).measurement_time(Duration::from_secs(5));
    for n in [16u16, 64] {
        let mut stats = (0u64, 0usize, 0u64);
        g.bench_function(
            BenchmarkId::new("all_to_all", format!("reactor/{n}")),
            |bch| bch.iter(|| stats = all_to_all_once(n)),
        );
        let frames = n as u64 * (n as u64 - 1) * 2;
        eprintln!(
            "net_perf/all_to_all/reactor/{}: {} frames, {} socket endpoints, {} io threads, {} os threads ({:.1} endpoints/io-thread)",
            n,
            frames,
            stats.0,
            stats.1,
            stats.2,
            stats.0 as f64 / stats.1.max(1) as f64,
        );
    }
    g.finish();
}

criterion_group!(benches, bench_stream, bench_all_to_all);
criterion_main!(benches);
