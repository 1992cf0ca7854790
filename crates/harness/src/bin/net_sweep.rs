//! Beyond the paper: ROT latency over **real sockets** vs the simulator's
//! cost-model prediction.
//!
//! The paper's core claim is that the latency cost of causal consistency
//! shows up on real message exchanges. The discrete-event simulator
//! reproduces the paper's numbers from a calibrated cost model; this
//! binary runs the *same* Contrarian and CC-LO state machines on the TCP
//! runtime (`contrarian-net`, loopback sockets, Nagle off, hand-rolled
//! wire codec) and puts the measured ROT latency next to the simulator's
//! prediction for an identical cluster and workload.
//!
//! What should match is the *shape*, not the absolute numbers: the
//! simulator models the paper's hardware (45 µs hops, per-message CPU
//! costs), while loopback on the CI box has its own constants. Expected
//! shape, from the paper's taxonomy: CC-LO's one-round ROTs beat
//! Contrarian's 1½ rounds at low load on reads, while CC-LO pays on PUTs
//! (readers checks). `CONTRARIAN_SCALE=smoke` shrinks the grid for CI.

use contrarian_harness::experiment::{run_experiment, ExperimentConfig, Protocol};
use contrarian_harness::table;
use contrarian_protocol::{build_net_cluster, ProtocolSpec};
use contrarian_runtime::cost::CostModel;
use contrarian_types::{ClusterConfig, RotMode};
use contrarian_workload::WorkloadSpec;
use std::time::Duration;

/// One measured point on the TCP runtime.
struct NetPoint {
    clients: u16,
    tput_kops: f64,
    rot_avg_ms: f64,
    rot_p99_ms: f64,
    put_avg_ms: f64,
}

/// Sub-windows the measure interval is sampled in for the io-rate series.
const IO_SLICES: u32 = 4;

/// Runs one backend on loopback TCP for a wall-clock window, sampling the
/// socket-level [`WireStats`](contrarian_net) counters at sub-window
/// boundaries into `io_rows` (backend, clients, t_ms, frames/s, bytes/s,
/// sockets) — the reactor's io activity *over time*, not just a total.
#[allow(clippy::too_many_arguments)]
fn run_net<P: ProtocolSpec>(
    backend: &str,
    cfg: &ClusterConfig,
    wl: &WorkloadSpec,
    clients: u16,
    warmup: Duration,
    measure: Duration,
    seed: u64,
    io_rows: &mut Vec<Vec<String>>,
) -> NetPoint {
    // recording=false: the history sink's cluster-wide lock would sit on
    // the measured latency path (the sim prediction runs with record:false
    // for the same reason).
    let cluster = build_net_cluster::<P>(cfg, wl, clients, seed, false);
    std::thread::sleep(warmup);
    cluster.set_measuring(true);
    let t0 = std::time::Instant::now();
    let (mut prev_frames, mut prev_bytes) = cluster.wire_stats();
    let mut prev_t = t0;
    for _ in 0..IO_SLICES {
        std::thread::sleep(measure / IO_SLICES);
        let now = std::time::Instant::now();
        let (frames, bytes) = cluster.wire_stats();
        let dt = now.duration_since(prev_t).as_secs_f64();
        io_rows.push(vec![
            backend.to_string(),
            clients.to_string(),
            format!("{:.0}", t0.elapsed().as_secs_f64() * 1e3),
            format!("{:.0}", (frames - prev_frames) as f64 / dt),
            format!("{:.0}", (bytes - prev_bytes) as f64 / dt),
            cluster.io_stats().sockets.to_string(),
        ]);
        (prev_frames, prev_bytes, prev_t) = (frames, bytes, now);
    }
    cluster.set_measuring(false);
    cluster.stop_issuing();
    std::thread::sleep(Duration::from_millis(150));
    let (_, metrics, _) = cluster.shutdown();
    NetPoint {
        clients,
        tput_kops: metrics.ops_done() as f64 / measure.as_secs_f64() / 1e3,
        rot_avg_ms: metrics.rot_latency.mean() / 1e6,
        rot_p99_ms: metrics.rot_latency.percentile(99.0) as f64 / 1e6,
        put_avg_ms: metrics.put_latency.mean() / 1e6,
    }
}

/// The simulator's prediction for the identical cluster and workload.
fn predict_sim(
    protocol: Protocol,
    cluster: &ClusterConfig,
    wl: &WorkloadSpec,
    clients: u16,
    seed: u64,
) -> (f64, f64, f64) {
    let r = run_experiment(&ExperimentConfig {
        protocol,
        cluster: cluster.clone(),
        workload: wl.clone(),
        clients_per_dc: clients,
        warmup_ns: 100_000_000,
        measure_ns: 400_000_000,
        seed,
        cost: CostModel::calibrated(),
        record: false,
        sched: contrarian_sim::SchedKind::from_env(),
        lookahead: Default::default(),
    });
    (r.avg_rot_ms, r.p99_rot_ms, r.avg_put_ms)
}

fn main() {
    let smoke = matches!(
        contrarian_runtime::env::var(contrarian_runtime::env::SCALE).as_deref(),
        Some("smoke")
    );
    let (warmup, measure, load_points): (Duration, Duration, Vec<u16>) = if smoke {
        (
            Duration::from_millis(150),
            Duration::from_millis(400),
            vec![1, 4],
        )
    } else {
        (
            Duration::from_millis(300),
            Duration::from_millis(800),
            vec![1, 4, 16],
        )
    };

    // One DC (ROT latency is an intra-DC path; replication is async), the
    // small key space, wall-clock control-plane tuning.
    let cfg = ClusterConfig::small().for_wall_clock();
    let wl = WorkloadSpec::paper_default().with_rot_size(2);

    let headers = [
        "backend",
        "clients",
        "net tput Kops/s",
        "net ROT avg ms",
        "net ROT p99 ms",
        "net PUT avg ms",
        "sim ROT avg ms",
        "sim ROT p99 ms",
        "sim PUT avg ms",
    ];
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut io_rows: Vec<Vec<String>> = Vec::new();

    for &clients in &load_points {
        let contrarian_cfg = cfg.clone().with_rot_mode(RotMode::OneHalfRound);
        let net = run_net::<contrarian_core::Contrarian>(
            "Contrarian",
            &contrarian_cfg,
            &wl,
            clients,
            warmup,
            measure,
            42,
            &mut io_rows,
        );
        let (sim_rot, sim_p99, sim_put) =
            predict_sim(Protocol::Contrarian, &contrarian_cfg, &wl, clients, 42);
        rows.push(point_row("Contrarian", &net, sim_rot, sim_p99, sim_put));

        let net = run_net::<contrarian_cclo::CcLo>(
            "CC-LO",
            &cfg,
            &wl,
            clients,
            warmup,
            measure,
            43,
            &mut io_rows,
        );
        let (sim_rot, sim_p99, sim_put) = predict_sim(Protocol::CcLo, &cfg, &wl, clients, 43);
        rows.push(point_row("CC-LO", &net, sim_rot, sim_p99, sim_put));
    }

    println!(
        "\n=== net_sweep: ROT latency over the loopback TCP reactor vs simulator prediction ===\n"
    );
    println!("{}", table::render(&headers, &rows));
    match table::write_csv("net_sweep.csv", &headers, &rows) {
        Ok(path) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write CSV: {e}"),
    }
    let io_headers = [
        "backend", "clients", "t_ms", "frames_s", "bytes_s", "sockets",
    ];
    match table::write_csv("net_io_windows.csv", &io_headers, &io_rows) {
        Ok(path) => println!("wrote {path} (socket io rates over time)"),
        Err(e) => eprintln!("could not write CSV: {e}"),
    }
    println!(
        "\nnote: absolute numbers differ (the simulator models the paper's hardware,\n\
         loopback has its own constants); the paper's *shape* — CC-LO's one-round\n\
         ROTs fastest at low load, Contrarian cheaper on PUTs — is what carries over."
    );
}

fn point_row(
    backend: &str,
    net: &NetPoint,
    sim_rot: f64,
    sim_p99: f64,
    sim_put: f64,
) -> Vec<String> {
    println!(
        "  [{backend}] clients={:<3} net: tput={:7.1} Kops/s rot avg={:.3} ms p99={:.3} ms | sim: rot avg={:.3} ms",
        net.clients, net.tput_kops, net.rot_avg_ms, net.rot_p99_ms, sim_rot
    );
    vec![
        backend.to_string(),
        net.clients.to_string(),
        table::f1(net.tput_kops),
        table::f3(net.rot_avg_ms),
        table::f3(net.rot_p99_ms),
        table::f3(net.put_avg_ms),
        table::f3(sim_rot),
        table::f3(sim_p99),
        table::f3(sim_put),
    ]
}
