//! What one child process does: one timed round of one rung, or one
//! recorded pass through the causal checker.
//!
//! Every function returns flat `(name, number)` fields; the runner that
//! spawned the child folds them into metrics.

use crate::alloc;
use crate::fields::{get, put, Fields};
use crate::machine::{cpu_ns, cpu_ticks, ctx_switches, vm_hwm_mb};
use crate::stats::hist_percentile;
use crate::workloads::{Rung, Workload};
use contrarian_harness::CausalChecker;
use contrarian_net::NetCluster;
use contrarian_protocol::{
    build_openloop_cluster, build_openloop_nodes, OpenLoopParams, ProtoNode, ProtocolSpec,
};
use contrarian_runtime::cost::CostModel;
use contrarian_runtime::metrics::{Histogram, Metrics};
use contrarian_types::HistoryEvent;
use std::time::{Duration, Instant};

/// Slices the simulated window is cut into for the host-cost reading. A
/// simulated round repeats exactly, so slice `i` is the same work in every
/// round of a rung, and the least time any round spent on it is that
/// work's cost with the machine at its quietest. On a shared host the cost
/// of one operation moves by half within a second; summing the per-slice
/// minima reads the quiet machine even when no whole round met it. The
/// engine is one thread, so its time is the wall clock's: the kernel
/// accounts CPU time per 4 ms tick, too coarse for a 20 ms slice.
pub const SIM_SLICES: u64 = 25;

/// Fixed warm-up sleep of a TCP round (connections dial, session
/// calendars prime). Not part of `setup_s`.
const NET_WARMUP: Duration = Duration::from_millis(1_000);
/// Grace for in-flight operations after `stop_issuing`.
const NET_DRAIN: Duration = Duration::from_millis(150);
/// Length of the recorded TCP pass the checker reads.
const NET_CHECK_RUN: Duration = Duration::from_millis(1_000);
/// Virtual length of the recorded simulator pass the checker reads.
const SIM_CHECK_NS: u64 = 200_000_000;
/// One checker gc pass per this many fed events.
const GC_EVERY_EVENTS: usize = 100_000;

fn ms(h: &Histogram, p: f64) -> f64 {
    hist_percentile(h, p) / 1e6
}

/// The readings every rung shares, from the run's merged metrics.
fn metric_fields(m: &Metrics, out: &mut Fields) {
    let ops = m.ops_done();
    put(
        out,
        [
            ("ops", ops as f64),
            ("rot_n", m.rot_latency.count() as f64),
            ("put_n", m.put_latency.count() as f64),
            ("rot_p50_ms", ms(&m.rot_latency, 50.0)),
            ("rot_p99_ms", ms(&m.rot_latency, 99.0)),
            ("put_p50_ms", ms(&m.put_latency, 50.0)),
            ("put_p99_ms", ms(&m.put_latency, 99.0)),
            ("vis_n", m.vis_staleness.count() as f64),
            ("vis_p99_ms", ms(&m.vis_staleness, 99.0)),
            ("block_n", m.block_ns.count() as f64),
            ("block_p99_ms", ms(&m.block_ns, 99.0)),
            ("gss_lag_p50", hist_percentile(&m.gss_lag, 50.0)),
            ("data_stale_p99_ms", ms(&m.data_staleness, 99.0)),
            ("msgs", m.msgs as f64),
            ("wire_bytes", m.bytes as f64),
            ("busy_ns", m.busy_ns as f64),
            (
                "cclo_checks",
                m.counter(contrarian_cclo::stats::CHECKS) as f64,
            ),
            (
                "cclo_check_ids",
                m.counter(contrarian_cclo::stats::CHECK_IDS_CUM) as f64,
            ),
            (
                "cclo_check_bytes",
                m.counter(contrarian_cclo::stats::CHECK_BYTES) as f64,
            ),
        ],
    );
}

/// Process readings around a measured window.
struct Probe {
    wall: Instant,
    cpu_ns: u64,
    ticks: (u64, u64),
    ctx: u64,
    alloc: (u64, u64),
}

impl Probe {
    fn start() -> Self {
        Probe {
            alloc: alloc::snapshot(),
            ctx: ctx_switches(),
            ticks: cpu_ticks(),
            cpu_ns: cpu_ns(),
            wall: Instant::now(),
        }
    }

    fn finish(self, out: &mut Fields) {
        let wall = self.wall.elapsed().as_secs_f64();
        let cpu = cpu_ns() - self.cpu_ns;
        let (u, s) = cpu_ticks();
        let ctx = ctx_switches();
        let (ac, ab) = alloc::snapshot();
        put(
            out,
            [
                ("window_wall_s", wall),
                ("cpu_ns", cpu as f64),
                ("user_ticks", (u - self.ticks.0) as f64),
                ("sys_ticks", (s - self.ticks.1) as f64),
                ("ctx_switches", ctx.saturating_sub(self.ctx) as f64),
                ("allocs", (ac - self.alloc.0) as f64),
                ("alloc_bytes", (ab - self.alloc.1) as f64),
            ],
        );
    }
}

/// One simulated round: build, warm up, measure `window` of virtual time.
pub fn sim_rung<P: ProtocolSpec>(w: &Workload, rung: Rung, seed: u64) -> Fields {
    let t0 = Instant::now();
    let params = OpenLoopParams {
        cfg: w.cluster(),
        cost: CostModel::calibrated(),
        spec: w.spec(w.rate(rung)),
        seed,
    };
    let mut sim = build_openloop_cluster::<P>(&params);
    sim.start();
    sim.run_until(w.warmup_ns);
    let mut out = Fields::new();
    put(&mut out, [("setup_s", t0.elapsed().as_secs_f64())]);

    let window = w.window_ns(rung);
    let events0 = sim.events_processed();
    let probe = Probe::start();
    sim.metrics_mut().enabled = true;
    let (mut t_prev, mut ops_prev) = (Instant::now(), 0);
    for i in 0..SIM_SLICES {
        sim.run_until(w.warmup_ns + window * (i + 1) / SIM_SLICES);
        let (t, ops) = (Instant::now(), sim.metrics().ops_done());
        out.insert(format!("slice_ns_{i}"), (t - t_prev).as_nanos() as f64);
        out.insert(format!("slice_ops_{i}"), (ops - ops_prev) as f64);
        (t_prev, ops_prev) = (t, ops);
    }
    sim.metrics_mut().enabled = false;
    probe.finish(&mut out);
    put(
        &mut out,
        [
            ("events", (sim.events_processed() - events0) as f64),
            ("window_s", window as f64 / 1e9),
            ("rss_mb", vm_hwm_mb()),
        ],
    );
    metric_fields(sim.metrics(), &mut out);
    out
}

/// One TCP round: build and start the cluster, sleep the fixed warm-up,
/// measure `window` of wall time, drain, shut down.
pub fn net_rung<P: ProtocolSpec>(w: &Workload, rung: Rung, seed: u64, window: Duration) -> Fields {
    let t0 = Instant::now();
    let nodes = build_openloop_nodes::<P>(&w.cluster(), &w.spec(w.rate(rung)), seed);
    let cluster: NetCluster<ProtoNode<P>> = NetCluster::start(nodes, false, seed);
    let mut out = Fields::new();
    put(&mut out, [("setup_s", t0.elapsed().as_secs_f64())]);
    std::thread::sleep(NET_WARMUP);

    let (frames0, bytes0) = cluster.wire_stats();
    let probe = Probe::start();
    cluster.set_measuring(true);
    std::thread::sleep(window);
    cluster.set_measuring(false);
    probe.finish(&mut out);
    let (frames1, bytes1) = cluster.wire_stats();
    let io = cluster.io_stats();
    put(
        &mut out,
        [
            ("net_frames", (frames1 - frames0) as f64),
            ("net_bytes", (bytes1 - bytes0) as f64),
            ("net_sockets", io.sockets as f64),
            ("net_io_threads", io.transport_threads as f64),
        ],
    );

    cluster.stop_issuing();
    std::thread::sleep(NET_DRAIN);
    let (_, metrics, _) = cluster.shutdown();
    // The window is what was slept, measured; goodput uses the same.
    let window_s = get(&out, "window_wall_s");
    put(&mut out, [("window_s", window_s), ("rss_mb", vm_hwm_mb())]);
    metric_fields(&metrics, &mut out);
    out
}

/// Feeds a history through the streaming checker with periodic gc and
/// times the feeding.
struct CheckerFeed {
    checker: CausalChecker,
    sessions: usize,
    events: usize,
    since_gc: usize,
    feed_ns: u64,
}

impl CheckerFeed {
    fn new(sessions: usize) -> Self {
        CheckerFeed {
            checker: CausalChecker::new(),
            sessions,
            events: 0,
            since_gc: 0,
            feed_ns: 0,
        }
    }

    fn feed(&mut self, batch: &[HistoryEvent]) {
        let t0 = Instant::now();
        for ev in batch {
            self.checker.feed(ev);
        }
        self.feed_ns += t0.elapsed().as_nanos() as u64;
        self.events += batch.len();
        self.since_gc += batch.len();
        if self.since_gc >= GC_EVERY_EVENTS {
            self.since_gc = 0;
            self.checker.gc(self.sessions);
        }
    }

    fn finish(self) -> Fields {
        let report = self.checker.report();
        for v in report.violations.iter().take(5) {
            eprintln!("checker violation: {v}");
        }
        let mut out = Fields::new();
        put(
            &mut out,
            [
                ("check_events", self.events as f64),
                ("check_violations", report.violations.len() as f64),
                ("check_feed_ns", self.feed_ns as f64),
            ],
        );
        out
    }
}

/// The simulator correctness gate: `mid` rate from virtual time zero with
/// recording on, the history streamed through `CausalChecker`.
pub fn sim_check<P: ProtocolSpec>(w: &Workload, seed: u64) -> Fields {
    let params = OpenLoopParams {
        cfg: w.cluster(),
        cost: CostModel::calibrated(),
        spec: w.spec(w.mid_rate),
        seed,
    };
    let mut sim = build_openloop_cluster::<P>(&params);
    sim.set_recording(true);
    sim.start();
    let mut feed = CheckerFeed::new(w.n_drivers());
    const SLICES: u64 = 8;
    for i in 1..=SLICES {
        sim.run_until(SIM_CHECK_NS * i / SLICES);
        feed.feed(&sim.drain_history());
    }
    // Stop the arrivals and let in-flight operations finish, so the
    // recorded history is complete.
    sim.set_stopped(true);
    sim.run_to_quiescence(SIM_CHECK_NS + 5_000_000_000);
    feed.feed(&sim.drain_history());
    feed.finish()
}

/// The TCP correctness gate: a recorded pass at `mid`, checked after
/// shutdown.
pub fn net_check<P: ProtocolSpec>(w: &Workload, seed: u64) -> Fields {
    let nodes = build_openloop_nodes::<P>(&w.cluster(), &w.spec(w.mid_rate), seed);
    let cluster: NetCluster<ProtoNode<P>> = NetCluster::start(nodes, true, seed);
    std::thread::sleep(NET_CHECK_RUN);
    cluster.stop_issuing();
    std::thread::sleep(NET_DRAIN);
    let (_, _, history) = cluster.shutdown();
    let mut feed = CheckerFeed::new(w.n_drivers());
    feed.feed(&history);
    feed.finish()
}
