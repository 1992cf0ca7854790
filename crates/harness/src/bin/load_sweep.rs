//! Beyond the paper: open-loop saturation sweeps — throughput vs.
//! coordinated-omission-safe latency for every backend.
//!
//! The figure binaries measure *closed-loop* client pools, like the
//! paper's YCSB setup. A closed-loop pool under overload slows its own
//! arrival rate, so tail latencies near saturation silently exclude the
//! queueing delay a real user population would see (coordinated
//! omission). This binary drives the *open-loop* counterpart: one million
//! logical sessions emit Poisson arrivals at a fixed offered rate
//! (multiplexed onto a bounded driver-actor pool), latency clocks start
//! at each operation's *scheduled* arrival time, and the offered rate is
//! ramped geometrically until goodput collapses — locating each backend's
//! saturation knee.
//!
//! Two sweeps run:
//!
//! * **sim** — the deterministic discrete-event simulator (virtual time,
//!   calibrated cost model; engine from `CONTRARIAN_SCHED`), all four
//!   backends;
//! * **net** — the TCP reactor on loopback sockets (wall-clock time), all
//!   four backends.
//!
//! One load point additionally re-runs recorded with the streaming causal
//! checker attached: the history is verified end to end while periodic
//! `CausalChecker::gc` passes keep checker residency bounded by the
//! recent window, proving the driver's histories stay causal at rate.
//!
//! `CONTRARIAN_SCALE=smoke` shrinks windows and ramp lengths for CI.
//! Results land in `results/load_sweep_{sim,net}.csv`.

use contrarian_harness::experiment::{run_sim, Clients, Observe, Protocol, RunSpec};
use contrarian_harness::load::{
    run_load_net, run_load_sim, run_load_sim_checked, sweep_to_saturation, SaturationSweep,
};
use contrarian_harness::table;
use contrarian_runtime::metrics::LoadReport;
use contrarian_runtime::trace::{chrome_trace_json, summarize};
use contrarian_runtime::window::MetricsWindow;
use contrarian_sim::SchedKind;
use contrarian_types::ClusterConfig;
use contrarian_workload::{OpenLoopSpec, WorkloadSpec};
use std::time::Instant;

/// The session population: a million logical Poisson streams. Sessions
/// are neither threads nor state — each driver actor draws its shard as
/// one merged Poisson stream — so the actor pool and its memory stay
/// bounded no matter the population.
const SESSIONS: u64 = 1_000_000;

const BACKENDS: [Protocol; 4] = [
    Protocol::Contrarian,
    Protocol::CcLo,
    Protocol::Cure,
    Protocol::Okapi,
];

/// One runtime's ramp plan.
struct Ramp {
    start_rate: f64,
    factor: f64,
    max_points: usize,
}

fn base_config(
    protocol: Protocol,
    cluster: ClusterConfig,
    warmup_ns: u64,
    measure_ns: u64,
) -> RunSpec {
    RunSpec {
        cluster,
        clients: Clients::Open(OpenLoopSpec::new(
            WorkloadSpec::paper_default(),
            SESSIONS,
            1.0,
        )),
        warmup_ns,
        measure_ns,
        ..RunSpec::functional_open(protocol, 1.0)
    }
}

fn point_row(runtime: &str, protocol: Protocol, r: &LoadReport) -> Vec<String> {
    vec![
        runtime.to_string(),
        protocol.label().to_string(),
        format!("{:.0}", r.offered_ops_per_sec),
        format!("{:.0}", r.achieved_ops_per_sec),
        r.completed_ops.to_string(),
        table::f3(r.mean_ms),
        table::f3(r.p50_ms),
        table::f3(r.p99_ms),
        table::f3(r.p999_ms),
        table::f3(r.max_ms),
        format!("{:.3}", r.utilization),
        table::f3(r.vis_p50_ms),
        table::f3(r.vis_p99_ms),
        if r.saturated { "yes" } else { "no" }.to_string(),
    ]
}

fn print_sweep(runtime: &str, sweep: &SaturationSweep, rows: &mut Vec<Vec<String>>) {
    for r in &sweep.points {
        eprintln!(
            "  [{runtime}] {:<13} offered={:>9.0}/s achieved={:>9.0}/s p50={:>8.3}ms p99={:>9.3}ms p999={:>9.3}ms util={:.2}{}",
            sweep.protocol.label(),
            r.offered_ops_per_sec,
            r.achieved_ops_per_sec,
            r.p50_ms,
            r.p99_ms,
            r.p999_ms,
            r.utilization,
            if r.saturated { "  SATURATED" } else { "" }
        );
        rows.push(point_row(runtime, sweep.protocol, r));
    }
    match sweep.knee() {
        Some(k) => eprintln!(
            "  [{runtime}] {:<13} knee: {:.0} ops/s ({} keeps up; next step collapses)",
            sweep.protocol.label(),
            k.achieved_ops_per_sec,
            sweep.protocol.label(),
        ),
        None => eprintln!(
            "  [{runtime}] {:<13} knee below the ramp start — lower the start rate",
            sweep.protocol.label()
        ),
    }
}

fn main() {
    let smoke = matches!(
        contrarian_runtime::env::var(contrarian_runtime::env::SCALE).as_deref(),
        Some("smoke")
    );
    let headers = [
        "runtime",
        "protocol",
        "offered_ops_s",
        "achieved_ops_s",
        "completed",
        "mean_ms",
        "p50_ms",
        "p99_ms",
        "p999_ms",
        "max_ms",
        "utilization",
        "vis_p50_ms",
        "vis_p99_ms",
        "saturated",
    ];

    // ---- Simulator sweep (virtual time, deterministic). -----------------
    let (sim_cluster, sim_warmup, sim_measure, sim_ramp) = if smoke {
        (
            ClusterConfig::small(),
            50_000_000,
            150_000_000,
            Ramp {
                start_rate: 5_000.0,
                factor: 4.0,
                max_points: 4,
            },
        )
    } else {
        (
            ClusterConfig::paper_default(),
            100_000_000,
            400_000_000,
            Ramp {
                start_rate: 25_000.0,
                factor: 2.0,
                max_points: 10,
            },
        )
    };
    eprintln!(
        "== open-loop sim sweep: {SESSIONS} sessions, {} partitions, engine={:?} ==",
        sim_cluster.n_partitions,
        SchedKind::from_env()
    );
    let mut sim_rows = Vec::new();
    for protocol in BACKENDS {
        let base = base_config(protocol, sim_cluster.clone(), sim_warmup, sim_measure);
        let t0 = Instant::now();
        let sweep = sweep_to_saturation(
            &base,
            sim_ramp.start_rate,
            sim_ramp.factor,
            sim_ramp.max_points,
            run_load_sim,
        );
        print_sweep("sim", &sweep, &mut sim_rows);
        eprintln!(
            "  [sim] {:<13} swept in {:.1}s wall",
            protocol.label(),
            t0.elapsed().as_secs_f64()
        );
    }
    match table::write_csv("load_sweep_sim.csv", &headers, &sim_rows) {
        Ok(path) => eprintln!("  wrote {path}"),
        Err(e) => eprintln!("  csv write failed: {e}"),
    }

    // ---- Checked point: history verified at rate, bounded residency. ----
    let checked_cfg = base_config(
        Protocol::Contrarian,
        ClusterConfig::small(),
        sim_warmup,
        sim_measure,
    )
    .with_offered(sim_ramp.start_rate);
    let checked = run_load_sim_checked(&checked_cfg);
    eprintln!(
        "== checked point: {} events, causal={}, peak residency {} live versions ({} reclaimed) ==",
        checked.events,
        if checked.check.ok() { "OK" } else { "VIOLATED" },
        checked.peak_residency.live_versions,
        checked.final_residency.reclaimed_total,
    );
    if !checked.check.ok() {
        for v in checked.check.violations.iter().take(5) {
            eprintln!("  violation: {v}");
        }
        std::process::exit(1);
    }

    // ---- Telemetry: windowed curves, staleness gauges, trace sample. ----
    // A 2-DC cluster so remote installs exist: visibility staleness (remote
    // install time − origin write time) is the paper's cost of the CC-LO
    // latency optimum made visible, measured per backend at the ramp's
    // starting rate.
    let telem_cluster = sim_cluster.clone().with_dcs(2);
    let mut win_headers: Vec<&str> = vec!["protocol"];
    win_headers.extend(MetricsWindow::CSV_HEADERS);
    let mut win_rows: Vec<Vec<String>> = Vec::new();
    eprintln!("== telemetry: 2-DC sim, per-window curves + visibility staleness ==");
    for protocol in BACKENDS {
        let cfg = base_config(protocol, telem_cluster.clone(), sim_warmup, sim_measure)
            .with_offered(sim_ramp.start_rate);
        // Trace one backend's run: enough for a Chrome-trace artifact
        // without quadrupling the JSON size.
        let trace_this = matches!(protocol, Protocol::Contrarian);
        let run = run_sim(
            &cfg,
            Observe {
                trace: trace_this,
                ..Observe::default()
            },
        );
        let report = cfg.load_report(&run.metrics);
        eprintln!(
            "  [telemetry] {:<13} op p50={:>8.3}ms p99={:>9.3}ms | vis p50={:>8.3}ms p99={:>9.3}ms | util={:.2}",
            protocol.label(),
            report.p50_ms,
            report.p99_ms,
            report.vis_p50_ms,
            report.vis_p99_ms,
            report.utilization,
        );
        for row in run.windows.csv_rows() {
            let mut r = Vec::with_capacity(row.len() + 1);
            r.push(protocol.label().to_string());
            r.extend(row);
            win_rows.push(r);
        }
        if trace_this {
            eprint!("{}", summarize(&run.trace));
            match table::write_text("trace_contrarian.json", &chrome_trace_json(&run.trace)) {
                Ok(path) => eprintln!("  wrote {path} (load in chrome://tracing or Perfetto)"),
                Err(e) => eprintln!("  trace write failed: {e}"),
            }
        }
    }
    match table::write_csv("telemetry_windows.csv", &win_headers, &win_rows) {
        Ok(path) => eprintln!("  wrote {path}"),
        Err(e) => eprintln!("  csv write failed: {e}"),
    }

    // ---- TCP sweep (wall clock, loopback sockets). ----------------------
    let (net_warmup, net_measure, net_ramp) = if smoke {
        (
            300_000_000,
            700_000_000,
            Ramp {
                start_rate: 800.0,
                factor: 4.0,
                max_points: 4,
            },
        )
    } else {
        (
            500_000_000,
            1_500_000_000,
            Ramp {
                start_rate: 1_000.0,
                factor: 2.0,
                max_points: 7,
            },
        )
    };
    eprintln!("== open-loop net sweep: {SESSIONS} sessions, loopback TCP reactor ==");
    let mut net_rows = Vec::new();
    for protocol in BACKENDS {
        let base = base_config(protocol, ClusterConfig::small(), net_warmup, net_measure);
        let t0 = Instant::now();
        let sweep = sweep_to_saturation(
            &base,
            net_ramp.start_rate,
            net_ramp.factor,
            net_ramp.max_points,
            run_load_net,
        );
        print_sweep("net", &sweep, &mut net_rows);
        eprintln!(
            "  [net] {:<13} swept in {:.1}s wall",
            protocol.label(),
            t0.elapsed().as_secs_f64()
        );
    }
    match table::write_csv("load_sweep_net.csv", &headers, &net_rows) {
        Ok(path) => eprintln!("  wrote {path}"),
        Err(e) => eprintln!("  csv write failed: {e}"),
    }

    println!(
        "{}",
        table::render(
            &headers,
            &sim_rows
                .iter()
                .chain(net_rows.iter())
                .cloned()
                .collect::<Vec<_>>(),
        )
    );
}
