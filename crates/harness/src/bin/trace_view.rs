//! Trace viewer: one traced load point on the deterministic simulator,
//! exported as a Chrome-trace JSON plus a text summary.
//!
//! Usage: `trace_view [backend] [offered_ops_per_sec]`
//!
//! * `backend` — `contrarian` (default), `contrarian-2r`, `cc-lo`,
//!   `cure`, or `okapi`;
//! * `offered_ops_per_sec` — open-loop offered rate (default 5000).
//!
//! The engine comes from `CONTRARIAN_SCHED` (heap, calendar, sharded)
//! and the per-node ring capacity from `CONTRARIAN_TRACE_CAP`; the
//! merged event stream is bit-identical across engines, so the exported
//! trace is a deterministic artifact of (backend, rate, seed) alone.
//! The JSON lands in `results/trace_view.json` — load it in
//! `chrome://tracing` or Perfetto; span rows are nodes, `X` events are
//! client operations, instants are sends/delivers/parks/GSS advances.

use contrarian_harness::experiment::{run_sim, Clients, Observe, Protocol, RunSpec};
use contrarian_harness::table;
use contrarian_runtime::trace::{chrome_trace_json, summarize};
use contrarian_runtime::window::MetricsWindow;
use contrarian_types::ClusterConfig;
use contrarian_workload::{OpenLoopSpec, WorkloadSpec};

fn parse_backend(s: &str) -> Option<Protocol> {
    match s.to_ascii_lowercase().as_str() {
        "contrarian" => Some(Protocol::Contrarian),
        "contrarian-2r" | "2r" => Some(Protocol::ContrarianTwoRound),
        "cc-lo" | "cclo" => Some(Protocol::CcLo),
        "cure" => Some(Protocol::Cure),
        "okapi" => Some(Protocol::Okapi),
        _ => None,
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let protocol = match args.next() {
        Some(s) => match parse_backend(&s) {
            Some(p) => p,
            None => {
                eprintln!("unknown backend {s:?} (want contrarian | contrarian-2r | cc-lo | cure | okapi)");
                std::process::exit(2);
            }
        },
        None => Protocol::Contrarian,
    };
    let rate: f64 = args
        .next()
        .map(|s| s.parse().expect("offered rate must be a number"))
        .unwrap_or(5_000.0);

    // 2 DCs so replication exists: remote installs feed the visibility-
    // staleness gauge, and GSS advances cross the inter-DC links.
    let spec = RunSpec {
        cluster: ClusterConfig::small().with_dcs(2),
        clients: Clients::Open(OpenLoopSpec::new(
            WorkloadSpec::paper_default(),
            1_000_000,
            rate,
        )),
        ..RunSpec::functional_open(protocol, rate)
    };
    eprintln!(
        "== trace_view: {} at {rate:.0} ops/s, engine={:?} ==",
        protocol.label(),
        spec.sched
    );
    let run = run_sim(
        &spec,
        Observe {
            trace: true,
            ..Observe::default()
        },
    );
    let report = spec.load_report(&run.metrics);

    print!("{}", summarize(&run.trace));
    println!(
        "op latency p50={:.3}ms p99={:.3}ms | vis staleness p50={:.3}ms p99={:.3}ms | util={:.2}",
        report.p50_ms, report.p99_ms, report.vis_p50_ms, report.vis_p99_ms, report.utilization,
    );
    println!(
        "{}",
        table::render(&MetricsWindow::CSV_HEADERS, &run.windows.csv_rows())
    );
    match table::write_text("trace_view.json", &chrome_trace_json(&run.trace)) {
        Ok(path) => println!("wrote {path} (load in chrome://tracing or Perfetto)"),
        Err(e) => {
            eprintln!("trace write failed: {e}");
            std::process::exit(1);
        }
    }
}
