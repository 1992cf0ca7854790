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

use contrarian_harness::experiment::{run_experiment, Clients, Protocol, RunResult, RunSpec};
use contrarian_harness::load::{run_net, NetSample};
use contrarian_harness::table;
use contrarian_types::ClusterConfig;
use contrarian_workload::WorkloadSpec;

/// Sub-windows the measure interval is sampled in for the io-rate series.
const IO_SLICES: u32 = 4;

fn main() {
    let smoke = matches!(
        contrarian_runtime::env::var(contrarian_runtime::env::SCALE).as_deref(),
        Some("smoke")
    );
    // Wall-clock warmup and measured window, ns, and client counts per DC.
    let (warmup_ns, measure_ns, load_points): (u64, u64, Vec<u16>) = if smoke {
        (150_000_000, 400_000_000, vec![1, 4])
    } else {
        (300_000_000, 800_000_000, vec![1, 4, 16])
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
        for (protocol, seed) in [(Protocol::Contrarian, 42), (Protocol::CcLo, 43)] {
            let spec = RunSpec {
                cluster: cfg.clone(),
                clients: Clients::Closed {
                    workload: wl.clone(),
                    per_dc: clients,
                },
                warmup_ns,
                measure_ns,
                seed,
                ..RunSpec::paper_default(protocol)
            };
            // The socket-level counters at sub-window boundaries: the
            // reactor's io activity *over time*, not just a total.
            let mut prev: Option<NetSample> = None;
            let metrics = run_net(&spec, IO_SLICES, &mut |s| {
                if let Some(p) = prev {
                    let dt = (s.elapsed - p.elapsed).as_secs_f64();
                    io_rows.push(vec![
                        protocol.label().to_string(),
                        clients.to_string(),
                        format!("{:.0}", s.elapsed.as_secs_f64() * 1e3),
                        format!("{:.0}", (s.frames - p.frames) as f64 / dt),
                        format!("{:.0}", (s.bytes - p.bytes) as f64 / dt),
                        s.sockets.to_string(),
                    ]);
                }
                prev = Some(s);
            });
            // The simulator's prediction for the identical cluster and
            // workload.
            let sim = run_experiment(&RunSpec {
                warmup_ns: 100_000_000,
                measure_ns: 400_000_000,
                ..spec.clone()
            });
            rows.push(point_row(&spec.run_result(&metrics), &sim));
        }
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

fn point_row(net: &RunResult, sim: &RunResult) -> Vec<String> {
    let backend = net.protocol.label();
    println!(
        "  [{backend}] clients={:<3} net: tput={:7.1} Kops/s rot avg={:.3} ms p99={:.3} ms | sim: rot avg={:.3} ms",
        net.clients_per_dc, net.throughput_kops, net.avg_rot_ms, net.p99_rot_ms, sim.avg_rot_ms
    );
    vec![
        backend.to_string(),
        net.clients_per_dc.to_string(),
        table::f1(net.throughput_kops),
        table::f3(net.avg_rot_ms),
        table::f3(net.p99_rot_ms),
        table::f3(net.avg_put_ms),
        table::f3(sim.avg_rot_ms),
        table::f3(sim.p99_rot_ms),
        table::f3(sim.avg_put_ms),
    ]
}
