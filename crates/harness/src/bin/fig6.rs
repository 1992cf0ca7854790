//! Figure 6: ROT ids collected during a readers check in CC-LO (1 DC,
//! default workload) as a function of the number of clients.
//!
//! Paper's findings: the average number of distinct ROT ids per readers
//! check is roughly the number of clients (252 distinct at 256 clients);
//! with duplicates across the ~12 contacted partitions the cumulative count
//! is ≈855 ids (≈71 per contacted node, ≈7 KB) — communication linear in
//! the number of clients, matching Theorem 1.

use contrarian_harness::experiment::{run_experiment, Clients, Protocol, RunSpec, Scale};
use contrarian_harness::table;
use contrarian_workload::WorkloadSpec;

fn main() {
    let scale = Scale::from_env();
    println!("\n=== fig6: readers-check cost vs number of clients (CC-LO, 1 DC) ===\n");

    let headers = [
        "clients/DC",
        "checks",
        "keys/check",
        "partitions/check",
        "distinct ids/check",
        "cumulative ids/check",
        "ids per contacted node",
        "bytes/check",
    ];
    let mut rows = Vec::new();
    for &clients in &scale.fig6_points {
        let r = run_experiment(&RunSpec {
            clients: Clients::Closed {
                workload: WorkloadSpec::paper_default(),
                per_dc: clients,
            },
            // Reader records take a full 500 ms GC window to reach steady
            // state; keep warmup and measurement beyond it.
            warmup_ns: scale.warmup_ns.max(700_000_000),
            measure_ns: scale.measure_ns.max(1_500_000_000),
            ..RunSpec::paper_default(Protocol::CcLo)
        });
        let checks = r.counter(contrarian_cclo::stats::CHECKS).max(1);
        let keys = r.counter(contrarian_cclo::stats::CHECK_KEYS) as f64 / checks as f64;
        let parts = r.counter(contrarian_cclo::stats::CHECK_PARTITIONS) as f64 / checks as f64;
        let distinct = r.counter(contrarian_cclo::stats::CHECK_IDS_DISTINCT) as f64 / checks as f64;
        let cum = r.counter(contrarian_cclo::stats::CHECK_IDS_CUM) as f64 / checks as f64;
        let bytes = r.counter(contrarian_cclo::stats::CHECK_BYTES) as f64 / checks as f64;
        eprintln!("  [fig6] clients={clients}: {distinct:.0} distinct / {cum:.0} cumulative ids per check");
        rows.push(vec![
            clients.to_string(),
            checks.to_string(),
            table::f1(keys),
            table::f1(parts),
            table::f1(distinct),
            table::f1(cum),
            table::f1(cum / parts.max(1.0)),
            table::f1(bytes),
        ]);
    }
    println!("{}", table::render(&headers, &rows));
    match table::write_csv("fig6.csv", &headers, &rows) {
        Ok(p) => println!("wrote {p}"),
        Err(e) => eprintln!("could not write CSV: {e}"),
    }
    println!(
        "\npaper vs measured: at 256 clients the paper reports ~20 keys, ~12 partitions,\n\
         ~252 distinct and ~855 cumulative ids (~71 per node) per readers check;\n\
         both id counts must grow linearly with the number of clients."
    );
}
