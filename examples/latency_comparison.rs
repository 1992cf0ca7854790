//! A miniature of the paper's headline experiment (Figure 5): Contrarian vs
//! the "latency-optimal" CC-LO under increasing load, on a scaled-down
//! cluster so it completes in seconds.
//!
//! ```bash
//! cargo run --release --example latency_comparison
//! ```
//!
//! Watch for the paper's counterintuitive result: CC-LO's one-round ROTs win
//! only at trivial load; as load grows, the readers check's write-side cost
//! congests the servers and CC-LO loses on *read* latency too.

use contrarian::harness::experiment::{run, sweep, Protocol, RunSpec};
use contrarian::harness::table;
use contrarian::types::ClusterConfig;
use contrarian::workload::WorkloadSpec;

fn main() {
    let mut cluster = ClusterConfig::paper_default().with_partitions(8);
    cluster.keys_per_partition = 100_000;

    let mut rows = Vec::new();
    for protocol in [Protocol::Contrarian, Protocol::CcLo] {
        let base = RunSpec {
            warmup_ns: 100_000_000,
            measure_ns: 300_000_000,
            seed: 1,
            ..RunSpec::closed(protocol, cluster.clone(), WorkloadSpec::paper_default())
        };
        let points = [8u16, 32, 64, 96].map(|n| base.with_clients_per_dc(n));
        for r in sweep(points, run, |_| false) {
            rows.push(vec![
                protocol.label().to_string(),
                r.clients_per_dc.to_string(),
                table::f1(r.throughput_kops()),
                table::f3(r.avg_rot_ms),
                table::f3(r.p99_rot_ms),
                table::f3(r.avg_put_ms),
            ]);
        }
    }
    println!(
        "{}",
        table::render(
            &[
                "system",
                "clients",
                "tput Kops/s",
                "ROT avg ms",
                "ROT p99 ms",
                "PUT avg ms"
            ],
            &rows
        )
    );
    println!(
        "CC-LO starts ahead on ROT latency and ends behind — the write-side cost of\n\
         latency \"optimality\" (readers checks) congests every server."
    );
}
