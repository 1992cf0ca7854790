//! A miniature of the paper's headline experiment (Figure 5): Contrarian vs
//! the "latency-optimal" CC-LO under increasing load, at the claims table's
//! small geometry (8 partitions of 100 K keys), so it completes in seconds.
//!
//! ```bash
//! cargo run --release --example latency_comparison
//! ```
//!
//! It prints the curves Fig. 5's claims read, then each claim with the
//! paper's value, the measured one and the verdict: CC-LO's one-round ROTs
//! win only at trivial load, and Contrarian peaks higher and scales better.

use contrarian::harness::claims::{self, Curves, CLAIMS};
use contrarian::harness::table;

fn main() {
    let mut curves = Curves::default();
    let fig5 = CLAIMS.iter().filter(|c| c.figure == "fig5");
    let measured = claims::evaluate(fig5, &mut curves);
    let headers = table::columns("curve,clients/DC,tput Kops/s,ROT avg ms,ROT p99 ms,PUT avg ms");
    let mut rows = Vec::new();
    for (_, series) in &curves.0 {
        for r in &series.points {
            rows.push(vec![
                series.name.clone(),
                r.clients_per_dc.to_string(),
                table::f1(r.throughput_kops()),
                table::f3(r.avg_rot_ms),
                table::f3(r.p99_rot_ms),
                table::f3(r.avg_put_ms),
            ]);
        }
    }
    println!("{}", table::render(&headers, &rows));
    let verdicts = claims::rows(&measured);
    println!(
        "{}",
        table::render(&table::columns(claims::HEADERS), &verdicts)
    );
}
