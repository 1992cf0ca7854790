//! The experiment scenarios behind the `contrarian-harness` binary: one
//! row per paper table or figure plus the studies beyond the paper. A row
//! runs in-process, prints what the paper reports next to what was
//! measured, and writes its artifacts under `results/`; a failed write
//! fails the invocation and names the path. `CONTRARIAN_SCALE` is checked
//! once per invocation: an unknown value is an error, not a silent `quick`.

use crate::census::GEOMETRIES;
use crate::experiment::{
    contrarian_vs_cclo, load_curve, load_curve_with, run, run_sim, sweep, Clients, Observe,
    Protocol, Report, RunSpec, Scale, Series,
};
use crate::load::{run_load_sim_checked, run_net, NetSample};
use crate::{table, table2, theory};
use contrarian_runtime::trace::{chrome_trace_json, summarize};
use contrarian_runtime::window::MetricsWindow;
use contrarian_sim::WindowStats;
use contrarian_types::ClusterConfig;
use contrarian_workload::{OpenLoopSpec, WorkloadSpec};
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What one invocation hands its scenario.
pub struct Ctx {
    /// The checked `CONTRARIAN_SCALE` value; `None` when unset.
    pub scale: Option<&'static str>,
    /// Where artifacts are written (`results/` for the binary).
    pub out: PathBuf,
    /// The arguments after the subcommand.
    pub args: Vec<String>,
}

impl Ctx {
    /// The figure scale: `CONTRARIAN_SCALE`, [`Scale::quick`] when unset.
    fn scale(&self) -> Scale {
        Scale::parse(self.scale).expect("checked by run_cli")
    }

    /// Writes one artifact under [`Ctx::out`]; an error names the path.
    fn write(&self, name: &str, content: &str) -> io::Result<()> {
        let path = self.out.join(name);
        std::fs::write(&path, content).map_err(|e| {
            io::Error::new(e.kind(), format!("could not write {}: {e}", path.display()))
        })?;
        println!("wrote {}", path.display());
        Ok(())
    }

    fn csv(&self, name: &str, headers: &[&str], rows: &[Vec<String>]) -> io::Result<()> {
        self.write(name, &table::csv(headers, rows))
    }

    /// Prints a figure's series as one aligned table, writes them all to
    /// `{fig_id}.csv`, and prints each series' headline numbers.
    fn figure(&self, fig_id: &str, caption: &str, series: &[Series]) -> io::Result<()> {
        println!("\n=== {fig_id}: {caption} ===\n");
        let headers = table::columns(
            "series,clients/DC,tput Kops/s,ROT avg ms,ROT p99 ms,PUT avg ms,PUT p99 ms",
        );
        let rows: Vec<Vec<String>> = series
            .iter()
            .flat_map(|s| {
                s.points.iter().map(|r| {
                    vec![
                        s.name.clone(),
                        r.clients_per_dc.to_string(),
                        table::f1(r.throughput_kops()),
                        table::f3(r.avg_rot_ms),
                        table::f3(r.p99_rot_ms),
                        table::f3(r.avg_put_ms),
                        table::f3(r.p99_put_ms),
                    ]
                })
            })
            .collect();
        println!("{}", table::render(&headers, &rows));
        self.csv(&format!("{fig_id}.csv"), &headers, &rows)?;
        println!("\nsummary:");
        for s in series {
            println!(
                "  {:<28} peak throughput {:>8.1} Kops/s   low-load ROT {:>6.3} ms",
                s.name,
                s.peak_throughput(),
                s.low_load_rot_ms()
            );
        }
        println!();
        Ok(())
    }
}

/// One subcommand of the harness binary.
pub struct Scenario {
    pub name: &'static str,
    /// One line for the usage table.
    pub doc: &'static str,
    pub run: fn(&Ctx) -> io::Result<()>,
}

/// `SCENARIOS`, one row per `function: "doc"`; a row's name is its
/// function's.
macro_rules! scenarios {
    ($($run:ident: $doc:literal,)*) => {
        /// Every scenario, in the order the usage table lists them: the
        /// paper's, `all`, then the studies beyond the paper.
        pub const SCENARIOS: &[Scenario] =
            &[$(Scenario { name: stringify!($run), doc: $doc, run: $run }),*];
    };
}

scenarios! {
    table1: "Table 1: the workload parameter grid",
    table2: "Table 2: causally consistent systems with ROT support",
    fig4: "Fig. 4: Contrarian 1½ vs 2 rounds vs Cure (2 DCs)",
    fig5: "Fig. 5: Contrarian vs CC-LO, 1 and 2 DCs, avg and p99 ROT latency",
    fig6: "Fig. 6: CC-LO readers-check cost vs number of clients",
    fig7: "Fig. 7: write-intensity sweep w ∈ {0.01, 0.05, 0.1}, 1 and 2 DCs",
    fig8: "Fig. 8: skew sweep z ∈ {0.99, 0.8, 0}",
    fig9: "Fig. 9: ROT-size sweep p ∈ {4, 8, 24}",
    value_size: "Section 5.8: value-size sweep b ∈ {8, 128, 2048}",
    theory: "Section 6: Theorem 1 and its lemmas on real state machines",
    all: "every paper scenario above, in order",
    scale_sweep: "partition-count scaling, 8 → 256 partitions (default scale: large)",
    load_sweep: "open-loop saturation knees, simulator and TCP, plus telemetry",
    net_sweep: "ROT latency over loopback TCP vs the simulator's prediction",
    trace_view: "[backend] [rate]: one traced open-loop point as Chrome-trace JSON",
    heap_census: "[seed]: heap bytes by owner at the end of each benchmark workload's over rung",
}

/// The paper scenarios `all` runs, in order: the rows above `all`.
pub fn paper() -> &'static [Scenario] {
    let all = SCENARIOS.iter().position(|s| s.name == "all");
    &SCENARIOS[..all.expect("`all` is a row")]
}

/// The usage text: the scenario table.
pub fn usage() -> String {
    let mut out = String::from(
        "usage: contrarian-harness <scenario> [args]   (CONTRARIAN_SCALE=smoke|quick|paper|large|xlarge)\n\nscenarios:\n",
    );
    for s in SCENARIOS {
        out.push_str(&format!("  {:<12} {}\n", s.name, s.doc));
    }
    out
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, msg)
}

/// Runs the scenario named by `args[0]` with the rest as its arguments,
/// `scale` (the raw `CONTRARIAN_SCALE`) and artifacts under `out`. No
/// subcommand prints the usage. An unknown one, a bad scale or bad
/// arguments are [`io::ErrorKind::InvalidInput`] errors carrying the
/// reason (see [`exit_code`]).
pub fn run_cli(args: &[String], scale: Option<&str>, out: &Path) -> io::Result<()> {
    let Some(name) = args.first() else {
        print!("{}", usage());
        return Ok(());
    };
    let scenario = SCENARIOS
        .iter()
        .find(|s| s.name == name)
        .ok_or_else(|| invalid(format!("unknown scenario `{name}`\n\n{}", usage())))?;
    let scale = scale.map(Scale::check).transpose().map_err(invalid)?;
    (scenario.run)(&Ctx {
        scale,
        out: out.to_path_buf(),
        args: args[1..].to_vec(),
    })
}

/// The process exit status of an invocation: 0 on success, 2 for a bad
/// invocation (usage), 1 for a scenario that failed.
pub fn exit_code(result: &io::Result<()>) -> u8 {
    match result {
        Ok(()) => 0,
        Err(e) if e.kind() == io::ErrorKind::InvalidInput => 2,
        Err(_) => 1,
    }
}

/// Runs every [`paper`] scenario in-process, in order.
fn all(ctx: &Ctx) -> io::Result<()> {
    for s in paper() {
        println!("\n################ running {} ################", s.name);
        (s.run)(ctx)?;
    }
    println!(
        "\nall experiments completed; CSVs are under {}/",
        ctx.out.display()
    );
    Ok(())
}

/// Ratio of two series' peak throughputs, for paper-vs-measured remarks.
fn peak_ratio(a: &Series, b: &Series) -> f64 {
    a.peak_throughput() / b.peak_throughput()
}

/// Table 1: the workload parameter grid of the evaluation (configuration,
/// not an experiment). The paper's defaults are marked with `*`.
fn table1(_: &Ctx) -> io::Result<()> {
    println!("\n=== Table 1: workload parameters ===\n");
    let (ws, ps, bs, zs) = WorkloadSpec::table1_grid();
    let def = WorkloadSpec::paper_default();
    fn values<T: PartialEq + ToString>(vs: &[T], default: &T) -> String {
        let mark = |v: &T| v.to_string() + if v == default { "*" } else { "" };
        vs.iter().map(mark).collect::<Vec<_>>().join(", ")
    }
    let rows = [
        (
            "w (write/read ratio)",
            values(&ws, &def.write_ratio),
            "0.01 extreme read-heavy; 0.05 YCSB default; 0.1 COPS-SNOW default",
        ),
        (
            "p (partitions per ROT)",
            values(&ps, &def.rot_size),
            "application ops span multiple partitions",
        ),
        (
            "b (value bytes)",
            values(&bs, &def.value_size),
            "8 typical of production; 128 COPS-SNOW default; 2048 large items",
        ),
        (
            "z (zipfian skew)",
            values(&zs, &def.zipf_theta),
            "0.99 strong production skew; 0.8 COPS-SNOW default; 0 uniform",
        ),
    ]
    .map(|(param, vs, why)| vec![param.to_string(), vs, why.to_string()]);
    println!(
        "{}",
        table::render(&["parameter", "values (* = default)", "motivation"], &rows)
    );
    println!(
        "derived: PUT probability per op q = w*p/(1-w+w*p) = {:.4} at defaults",
        def.put_probability()
    );
    Ok(())
}

/// Table 2: causally consistent systems with ROT support, geo-replicated.
/// COPS-SNOW is the only latency-optimal (1-round, 1-version, nonblocking)
/// system — at the price of O(N) extra write communication carrying O(K)
/// metadata; Contrarian gives up half a round and pays none of it.
fn table2(_: &Ctx) -> io::Result<()> {
    println!("\n=== Table 2: CC systems with ROT support ===\n");
    println!("{}", table2::render_table2());
    println!("N = partitions, M = DCs, K = clients/DC, P = master DCs (Occult), |deps| = explicit dependency list");
    Ok(())
}

/// Figure 4: Contrarian's design (2 DCs, default workload). The paper
/// (Section 5.3): Contrarian beats Cure's latency by up to ≈3× (0.35 vs
/// 1.0 ms) with nonblocking ROTs; at low load 1½ rounds are ≈0.1 ms faster
/// than 2 (0.35 vs 0.45 ms); 2 rounds peak ≈8% higher on fewer messages.
fn fig4(ctx: &Ctx) -> io::Result<()> {
    let scale = ctx.scale();
    let cluster = ClusterConfig::paper_default().with_dcs(2);
    let series = [
        ("Contrarian 1 1/2 rounds", Protocol::Contrarian),
        ("Contrarian 2 rounds", Protocol::ContrarianTwoRound),
        ("Cure", Protocol::Cure),
    ]
    .map(|(name, p)| {
        let spec = RunSpec::closed(p, cluster.clone(), WorkloadSpec::paper_default());
        load_curve(name.to_string(), &spec, &scale)
    });
    ctx.figure(
        "fig4",
        "Contrarian design evaluation (2 DCs, default workload)",
        &series,
    )?;
    let [c15, c2, cure] = &series;
    println!(
        "paper vs measured:\n  \
         low-load ROT latency  paper: 0.35 / 0.45 / ~1.0 ms   measured: {:.3} / {:.3} / {:.3} ms\n  \
         2-round peak / 1.5-round peak  paper: ~1.08x   measured: {:.2}x\n  \
         Cure/Contrarian low-load latency ratio  paper: ~3x   measured: {:.2}x",
        c15.low_load_rot_ms(),
        c2.low_load_rot_ms(),
        cure.low_load_rot_ms(),
        peak_ratio(c2, c15),
        cure.low_load_rot_ms() / c15.low_load_rot_ms()
    );
    Ok(())
}

/// Figure 5: Contrarian vs CC-LO under the default workload, 1 and 2 DCs.
/// The paper (Section 5.4): CC-LO's ROT latency is lower only under
/// trivial load (0.30 vs 0.35 ms); beyond ≈25% of Contrarian's peak its
/// readers checks inflate queueing. Contrarian peaks 1.45× (1 DC) and 1.6×
/// (2 DCs) higher, and scales 1.9× from 1 → 2 DCs against CC-LO's 1.6×.
fn fig5(ctx: &Ctx) -> io::Result<()> {
    let series = contrarian_vs_cclo(
        &[1u8, 2],
        &ctx.scale(),
        |dcs| format!("{dcs}DC"),
        |p, dcs| {
            let cluster = ClusterConfig::paper_default().with_dcs(dcs);
            RunSpec::closed(p, cluster, WorkloadSpec::paper_default())
        },
    );
    ctx.figure(
        "fig5",
        "Contrarian vs CC-LO, default workload (avg and p99 columns)",
        &series,
    )?;
    let [contr1, cclo1, contr2, cclo2] = &series[..] else {
        unreachable!("two DC counts × two protocols")
    };
    println!(
        "paper vs measured:\n  \
         low-load ROT avg (1DC)  paper: CC-LO 0.30 ms vs Contrarian 0.35 ms   measured: {:.3} vs {:.3} ms\n  \
         peak throughput ratio Contrarian/CC-LO  paper: 1.45x (1DC), 1.6x (2DC)   measured: {:.2}x, {:.2}x\n  \
         1->2 DC scaling  paper: Contrarian 1.9x, CC-LO 1.6x   measured: {:.2}x, {:.2}x",
        cclo1.low_load_rot_ms(),
        contr1.low_load_rot_ms(),
        peak_ratio(contr1, cclo1),
        peak_ratio(contr2, cclo2),
        peak_ratio(contr2, contr1),
        peak_ratio(cclo2, cclo1)
    );
    // Crossover on the throughput axis: the lowest throughput above which
    // Contrarian's latency (interpolated over its own curve) stays below
    // CC-LO's. Past CC-LO's peak Contrarian wins by default.
    type Latency = fn(&Report) -> f64;
    let latencies: [(&str, Latency); 2] = [("avg", |r| r.avg_rot_ms), ("p99", |r| r.p99_rot_ms)];
    for (what, lat) in latencies {
        let interp = |s: &Series, x: f64| {
            s.points.windows(2).find_map(|w| {
                let (ta, tb) = (w[0].throughput_kops(), w[1].throughput_kops());
                let f = (x - ta) / (tb - ta).max(1e-9);
                (ta <= x && x <= tb).then(|| lat(&w[0]) + f * (lat(&w[1]) - lat(&w[0])))
            })
        };
        let cross = cclo1.points.windows(2).find_map(|w| {
            let x = w[1].throughput_kops();
            (interp(contr1, x)? < lat(&w[1])).then_some(x)
        });
        match cross {
            Some(t) => println!(
                "  {what} ROT latency crossover (1DC)  paper: ~25% of Contrarian peak   \
                 measured: <= {t:.0} Kops/s = {:.0}% of peak",
                100.0 * t / contr1.peak_throughput()
            ),
            None => println!(
                "  {what} crossover (1DC): beyond CC-LO's peak ({:.0} Kops/s = {:.0}% of Contrarian's)",
                cclo1.peak_throughput(),
                100.0 * cclo1.peak_throughput() / contr1.peak_throughput()
            ),
        }
    }
    Ok(())
}

/// Figure 6: ROT ids collected by a CC-LO readers check (1 DC, default
/// workload) against the number of clients. The paper: ≈ the number of
/// clients distinct ids per check (252 at 256 clients); ≈855 cumulative
/// over the ~12 contacted partitions (≈71 per node, ≈7 KB) — communication
/// linear in the clients, matching Theorem 1.
fn fig6(ctx: &Ctx) -> io::Result<()> {
    use contrarian_cclo::stats;
    let scale = ctx.scale();
    println!("\n=== fig6: readers-check cost vs number of clients (CC-LO, 1 DC) ===\n");
    let base = RunSpec {
        // Reader records take a full 500 ms GC window to reach steady
        // state; keep warmup and measurement beyond it.
        warmup_ns: scale.warmup_ns.max(700_000_000),
        measure_ns: scale.measure_ns.max(1_500_000_000),
        ..RunSpec::paper_default(Protocol::CcLo)
    };
    let points = scale
        .fig6_points
        .iter()
        .map(|&n| base.with_clients_per_dc(n));
    let headers = table::columns(
        "clients/DC,checks,keys/check,partitions/check,distinct ids/check,\
         cumulative ids/check,ids per contacted node,bytes/check",
    );
    let mut rows = Vec::new();
    for r in sweep(points, run, |_| false) {
        let checks = r.counter(stats::CHECKS).max(1);
        let per_check = |name| r.counter(name) as f64 / checks as f64;
        let parts = per_check(stats::CHECK_PARTITIONS);
        let distinct = per_check(stats::CHECK_IDS_DISTINCT);
        let cum = per_check(stats::CHECK_IDS_CUM);
        eprintln!(
            "  [fig6] clients={}: {distinct:.0} distinct / {cum:.0} cumulative ids per check",
            r.clients_per_dc
        );
        rows.push(vec![
            r.clients_per_dc.to_string(),
            checks.to_string(),
            table::f1(per_check(stats::CHECK_KEYS)),
            table::f1(parts),
            table::f1(distinct),
            table::f1(cum),
            table::f1(cum / parts.max(1.0)),
            table::f1(per_check(stats::CHECK_BYTES)),
        ]);
    }
    println!("{}", table::render(&headers, &rows));
    ctx.csv("fig6.csv", &headers, &rows)?;
    println!(
        "\npaper vs measured: at 256 clients the paper reports ~20 keys, ~12 partitions,\n\
         ~252 distinct and ~855 cumulative ids (~71 per node) per readers check;\n\
         both id counts must grow linearly with the number of clients."
    );
    Ok(())
}

/// The Contrarian-vs-CC-LO grid over one workload parameter on `dcs` DCs
/// (Figures 7–9, Section 5.8): runs it, emits `fig_id`, returns the series
/// (Contrarian then CC-LO per value).
fn workload_grid<V: Copy>(
    ctx: &Ctx,
    (fig_id, caption): (&str, &str),
    dcs: u8,
    values: &[V],
    label: impl Fn(V) -> String,
    workload: impl Fn(V) -> WorkloadSpec,
) -> io::Result<Vec<Series>> {
    let cluster = ClusterConfig::paper_default().with_dcs(dcs);
    let series = contrarian_vs_cclo(values, &ctx.scale(), label, |p, v| {
        RunSpec::closed(p, cluster.clone(), workload(v))
    });
    ctx.figure(fig_id, caption, &series)?;
    Ok(series)
}

/// Figure 7: write intensity, 1 DC (a) and 2 DCs (b). The paper (Section
/// 5.5): Contrarian's throughput *grows* with w (PUTs touch one partition),
/// CC-LO's *shrinks* (more readers checks); CC-LO wins only at w=0.01 in
/// 1 DC (≈10%), and at w=0.1 in 2 DCs Contrarian peaks ≈2.35× higher.
fn fig7(ctx: &Ctx) -> io::Result<()> {
    for (dcs, panel) in [(1u8, "a"), (2, "b")] {
        workload_grid(
            ctx,
            (
                &format!("fig7{panel}"),
                &format!("write-intensity sweep, {dcs} DC(s)"),
            ),
            dcs,
            &[0.01, 0.05, 0.1],
            |w| format!("w={w} {dcs}DC"),
            |w| WorkloadSpec::paper_default().with_write_ratio(w),
        )?;
    }
    println!(
        "paper vs measured: CC-LO may beat Contrarian's peak only at w=0.01 in 1 DC (~10%);\n\
         Contrarian's advantage should grow with w, up to ~2.35x at w=0.1 with 2 DCs."
    );
    Ok(())
}

/// Figure 8: skew in data popularity (1 DC). The paper (Section 5.6): skew
/// barely moves Contrarian but hampers CC-LO — hot keys keep reader records
/// fresh, dependency chains grow, and readers checks carry more ids.
fn fig8(ctx: &Ctx) -> io::Result<()> {
    let series = workload_grid(
        ctx,
        ("fig8", "skew sweep (single DC)"),
        1,
        &[0.99, 0.8, 0.0],
        |z| format!("z={z}"),
        |z| WorkloadSpec::paper_default().with_zipf(z),
    )?;
    let [contr_z99, cclo_z99, _, _, contr_z0, cclo_z0] = &series[..] else {
        unreachable!("three skews × two protocols")
    };
    println!(
        "paper vs measured:\n  \
         Contrarian peak z=0.99 vs z=0: {:.1} vs {:.1} Kops/s (skew ~irrelevant)\n  \
         CC-LO peak z=0.99 vs z=0: {:.1} vs {:.1} Kops/s (skew hurts)\n  \
         Contrarian/CC-LO peak ratio at z=0.99: {:.2}x, at z=0: {:.2}x",
        contr_z99.peak_throughput(),
        contr_z0.peak_throughput(),
        cclo_z99.peak_throughput(),
        cclo_z0.peak_throughput(),
        peak_ratio(contr_z99, cclo_z99),
        peak_ratio(contr_z0, cclo_z0)
    );
    Ok(())
}

/// Figure 9: ROT size in partitions (1 DC). The paper (Section 5.7):
/// CC-LO's low-load latency edge and Contrarian's throughput edge both
/// shrink as p grows (more partitions amortize Contrarian's extra step);
/// the peak advantage is largest at p=4 (≈1.45×).
fn fig9(ctx: &Ctx) -> io::Result<()> {
    let sizes = [4u16, 8, 24];
    let series = workload_grid(
        ctx,
        ("fig9", "ROT-size sweep (single DC)"),
        1,
        &sizes,
        |p| format!("p={p}"),
        |p| WorkloadSpec::paper_default().with_rot_size(p),
    )?;
    println!("paper vs measured (Contrarian/CC-LO peak ratio should shrink with p):");
    for (p, pair) in sizes.iter().zip(series.chunks(2)) {
        println!(
            "  p={p}: peak ratio {:.2}x, low-load latency gap (CC-LO − Contrarian) {:.3} ms",
            peak_ratio(&pair[0], &pair[1]),
            pair[1].low_load_rot_ms() - pair[0].low_load_rot_ms()
        );
    }
    Ok(())
}

/// Section 5.8 (no figure in the paper): value size in bytes (1 DC).
/// Larger values raise per-byte costs for both systems and shrink the gap;
/// even at b=2048 Contrarian keeps lower-or-comparable ROT latency and
/// ≈43% higher peak throughput.
fn value_size(ctx: &Ctx) -> io::Result<()> {
    let sizes = [8usize, 128, 2048];
    let series = workload_grid(
        ctx,
        ("value_size", "value-size sweep (single DC, Section 5.8)"),
        1,
        &sizes,
        |b| format!("b={b}"),
        |b| WorkloadSpec::paper_default().with_value_size(b),
    )?;
    println!("paper vs measured (ratio should shrink with b; ~1.43x at b=2048):");
    for (b, pair) in sizes.iter().zip(series.chunks(2)) {
        println!(
            "  b={b}: Contrarian/CC-LO peak ratio {:.2}x",
            peak_ratio(&pair[0], &pair[1])
        );
    }
    Ok(())
}

/// Section 6, executably: Theorem 1 (the cost of latency-optimal ROTs)
/// and its lemmas on real protocol state machines.
fn theory(ctx: &Ctx) -> io::Result<()> {
    println!("\n=== Section 6: the inherent cost of latency-optimal ROTs ===");
    let snapshots = |s: &theory::ScenarioResult| {
        s.reads
            .iter()
            .map(|(tx, vx, vy)| format!("{tx}: (x={vx:?}, y={vy:?})"))
            .collect::<Vec<_>>()
    };

    println!("\n--- straw-man LO protocol (Lamport clocks only, no readers communicated) ---");
    let s = theory::run_strawman_scenario(&[0, 1, 2]);
    let report = s.check();
    println!(
        "E* schedule: readers read x before X1, y after Y1 became visible.\n\
         returned snapshots: {:?}",
        snapshots(&s)
    );
    println!(
        "causal checker: {} violation(s) — {}",
        report.violations.len(),
        report.violations.first().map_or("none", String::as_str)
    );
    assert!(
        !report.ok(),
        "the straw-man must violate causal consistency"
    );

    println!("\n--- CC-LO (COPS-SNOW) under the same schedule ---");
    let c = theory::run_cclo_scenario(&[0, 1, 2]);
    let report = c.check();
    println!("returned snapshots: {:?}", snapshots(&c));
    println!(
        "causal checker: {} violation(s); readers check carried {} ROT id(s) from px to py",
        report.violations.len(),
        c.transcript.len()
    );
    assert!(report.ok());

    println!("\n--- Lemma 1/2: distinct reader subsets force distinct communication ---\n");
    let headers = table::columns(
        "|D| clients,executions (2^|D|),distinct transcripts,min bits,max ids in transcript",
    );
    let rows: Vec<Vec<String>> = (1..=8u16)
        .map(|n| {
            let d = theory::distinguishability(n);
            vec![
                d.n_clients.to_string(),
                d.executions.to_string(),
                d.distinct_transcripts.to_string(),
                d.min_bits.to_string(),
                d.max_transcript_ids.to_string(),
            ]
        })
        .collect();
    println!("{}", table::render(&headers, &rows));
    ctx.csv("theory.csv", &headers, &rows)?;
    println!(
        "every subset of readers produced a different px→py transcript, so the\n\
         worst-case readers-check communication is at least |D| bits — linear in\n\
         the number of clients, before every dangerous PUT completes (Theorem 1)."
    );
    Ok(())
}

/// Beyond the paper: Contrarian and CC-LO at 8, 32 and 128 partitions on
/// [`Scale::large`] (the default here), then the two-DC, 512-server
/// [`ClusterConfig::xlarge`] tier at one load point. Expected: Contrarian's
/// peak grows with partitions; CC-LO's readers checks fan out to every
/// partition a ROT's dependencies touch, so its curve flattens sooner.
fn scale_sweep(ctx: &Ctx) -> io::Result<()> {
    let scale = match ctx.scale {
        None => Scale::large(),
        Some(_) => ctx.scale(),
    };
    let mut series = Vec::new();
    for parts in [8u16, 32, 128] {
        let cluster = ClusterConfig::large().with_partitions(parts);
        let t0 = Instant::now();
        let label = |parts| format!("N={parts}");
        series.extend(contrarian_vs_cclo(&[parts], &scale, label, |p, _| {
            RunSpec::closed(p, cluster.clone(), WorkloadSpec::paper_default())
        }));
        let secs = t0.elapsed().as_secs_f64();
        eprintln!("  [scale_sweep] N={parts}: swept in {secs:.1}s");
    }
    // The 256-partition tier: its own cluster shape (two DCs) and scale —
    // at 512 servers a full load curve would blow the CI budget without
    // saying anything new. Its two DCs run as two shards under the default
    // engine, so each point also prints what each shard did (stderr only:
    // the host times differ from run to run, and the CSV must not).
    let cluster = ClusterConfig::xlarge();
    let t0 = Instant::now();
    for p in [Protocol::Contrarian, Protocol::CcLo] {
        let name = format!(
            "{} N={}x{}dc",
            p.label(),
            cluster.n_partitions,
            cluster.n_dcs
        );
        let base = RunSpec::closed(p, cluster.clone(), WorkloadSpec::paper_default());
        series.push(load_curve_with(
            name.clone(),
            &base,
            &Scale::xlarge(),
            |spec| {
                let run = run_sim(spec, Observe::default());
                eprintln!("  [{name}] engine: {}", engine_line(&run.window_stats));
                spec.report(&run.metrics)
            },
        ));
    }
    let secs = t0.elapsed().as_secs_f64();
    eprintln!("  [scale_sweep] N=256 (2 DCs): swept in {secs:.1}s");
    // The figure's summary lists every series' peak: the scaling curve.
    ctx.figure(
        "scale_sweep",
        "partition-count scaling, 8 → 256 partitions (beyond the paper)",
        &series,
    )
}

/// One line of per-shard engine telemetry: rounds, events, cross-shard
/// messages, and busy / barrier-wait host time.
fn engine_line(stats: &[WindowStats]) -> String {
    let shard = |(i, s): (usize, &WindowStats)| {
        format!(
            "shard {i}: {} rounds, {} events, {} cross-shard msgs, busy {:.3} s, barrier wait {:.3} s",
            s.rounds,
            s.events,
            s.cross_msgs,
            s.busy_ns as f64 / 1e9,
            s.wait_ns as f64 / 1e9
        )
    };
    let shards: Vec<String> = stats.iter().enumerate().map(shard).collect();
    shards.join(" | ")
}

/// The session population of the open-loop scenarios: a million logical
/// Poisson streams. Sessions are neither threads nor state — each driver
/// actor draws its shard as one merged Poisson stream — so the actor pool
/// and its memory stay bounded whatever the population.
const SESSIONS: u64 = 1_000_000;

const BACKENDS: [Protocol; 4] = [
    Protocol::Contrarian,
    Protocol::CcLo,
    Protocol::Cure,
    Protocol::Okapi,
];

/// An open-loop point over [`SESSIONS`]; a ramp sets its offered rate.
fn open_spec(
    protocol: Protocol,
    cluster: ClusterConfig,
    (warmup_ns, measure_ns): (u64, u64),
) -> RunSpec {
    let open = OpenLoopSpec::new(WorkloadSpec::paper_default(), SESSIONS, 1.0);
    RunSpec {
        cluster,
        clients: Clients::Open(open),
        warmup_ns,
        measure_ns,
        ..RunSpec::functional_open(protocol, 1.0)
    }
}

/// A geometric offered-rate axis: `points` rates from `start`, each
/// `factor` times the last.
fn geometric(start: f64, factor: f64, points: usize) -> Vec<f64> {
    std::iter::successors(Some(start), |rate| Some(rate * factor))
        .take(points)
        .collect()
}

/// Ramps every backend up `rates` on `cluster` until a point saturates,
/// running each point with `run`; returns the CSV rows of every point.
fn saturation_ramps(
    runtime: &str,
    cluster: &ClusterConfig,
    windows: (u64, u64),
    rates: &[f64],
    mut run: impl FnMut(&RunSpec) -> Report,
) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for protocol in BACKENDS {
        let label = protocol.label();
        let base = open_spec(protocol, cluster.clone(), windows);
        let t0 = Instant::now();
        let series = Series {
            name: label.to_string(),
            points: sweep(
                rates.iter().map(|&rate| base.with_offered(rate)),
                &mut run,
                |r| r.saturated,
            ),
        };
        for r in &series.points {
            eprintln!("  [{runtime}] {r}");
            rows.push(vec![
                runtime.to_string(),
                label.to_string(),
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
            ]);
        }
        let knee = series.knee().map_or("below the ramp start".into(), |k| {
            format!(
                "{:.0} ops/s, the last point that kept up",
                k.achieved_ops_per_sec
            )
        });
        let wall = t0.elapsed().as_secs_f64();
        eprintln!("  [{runtime}] {label:<13} knee: {knee} (swept in {wall:.1}s wall)");
    }
    rows
}

/// Beyond the paper: every backend's open-loop saturation knee ([`crate::load`])
/// on the simulator and on the TCP reactor over loopback, one point re-run
/// through the streaming checker, and a 2-DC telemetry pass. Writes
/// `load_sweep_{sim,net}.csv`, `telemetry_windows.csv` and
/// `trace_contrarian.json`.
fn load_sweep(ctx: &Ctx) -> io::Result<()> {
    // The sweeps with their own ramps only shrink them for CI's smoke scale.
    let smoke = ctx.scale == Some("smoke");
    let headers = table::columns(
        "runtime,protocol,offered_ops_s,achieved_ops_s,completed,mean_ms,p50_ms,p99_ms,\
         p999_ms,max_ms,utilization,vis_p50_ms,vis_p99_ms,saturated",
    );

    // ---- Simulator sweep (virtual time, deterministic). -----------------
    let (sim_cluster, sim_windows, sim_rates) = if smoke {
        let rates = geometric(5_000.0, 4.0, 4);
        (ClusterConfig::small(), (50_000_000, 150_000_000), rates)
    } else {
        let rates = geometric(25_000.0, 2.0, 10);
        (
            ClusterConfig::paper_default(),
            (100_000_000, 400_000_000),
            rates,
        )
    };
    eprintln!(
        "== open-loop sim sweep: {SESSIONS} sessions, {} partitions ==",
        sim_cluster.n_partitions
    );
    let sim_rows = saturation_ramps("sim", &sim_cluster, sim_windows, &sim_rates, run);
    ctx.csv("load_sweep_sim.csv", &headers, &sim_rows)?;

    // ---- Checked point: history verified at rate, bounded residency. ----
    let checked_spec = open_spec(Protocol::Contrarian, ClusterConfig::small(), sim_windows)
        .with_offered(sim_rates[0]);
    let checked = run_load_sim_checked(&checked_spec);
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
        return Err(io::Error::other(
            "the checked load point violated causality",
        ));
    }

    // ---- Telemetry: windowed curves, staleness gauges, trace sample. ----
    // A 2-DC cluster so remote installs exist: visibility staleness (remote
    // install time − origin write time) is the paper's cost of the CC-LO
    // latency optimum made visible, measured per backend at the ramp's
    // starting rate.
    let telemetry_cluster = sim_cluster.with_dcs(2);
    let mut win_headers = vec!["protocol"];
    win_headers.extend(MetricsWindow::CSV_HEADERS);
    let mut win_rows = Vec::new();
    eprintln!("== telemetry: 2-DC sim, per-window curves + visibility staleness ==");
    for protocol in BACKENDS {
        let spec =
            open_spec(protocol, telemetry_cluster.clone(), sim_windows).with_offered(sim_rates[0]);
        // Trace one backend's run: enough for a Chrome-trace artifact
        // without quadrupling the JSON size.
        let trace = protocol == Protocol::Contrarian;
        let run = run_sim(
            &spec,
            Observe {
                trace,
                ..Observe::default()
            },
        );
        eprintln!("  [telemetry] {}", spec.report(&run.metrics));
        for row in run.windows.csv_rows() {
            win_rows.push([vec![protocol.label().to_string()], row].concat());
        }
        if trace {
            eprint!("{}", summarize(&run.trace));
            ctx.write("trace_contrarian.json", &chrome_trace_json(&run.trace))?;
        }
    }
    ctx.csv("telemetry_windows.csv", &win_headers, &win_rows)?;

    // ---- TCP sweep (wall clock, loopback sockets). ----------------------
    let (net_windows, net_rates) = if smoke {
        ((300_000_000, 700_000_000), geometric(800.0, 4.0, 4))
    } else {
        ((500_000_000, 1_500_000_000), geometric(1_000.0, 2.0, 7))
    };
    eprintln!("== open-loop net sweep: {SESSIONS} sessions, loopback TCP reactor ==");
    let net_rows = saturation_ramps(
        "net",
        &ClusterConfig::small(),
        net_windows,
        &net_rates,
        |spec| run_net(spec, 1, &mut |_| {}),
    );
    ctx.csv("load_sweep_net.csv", &headers, &net_rows)?;
    let all_rows = [sim_rows, net_rows].concat();
    println!("{}", table::render(&headers, &all_rows));
    Ok(())
}

/// Beyond the paper: ROT latency of Contrarian and CC-LO over loopback TCP
/// next to the simulator's prediction for the same cluster and workload.
/// The *shape* should match, not the numbers (the simulator models the
/// paper's hardware). Writes `net_sweep.csv` and the socket io rates over
/// time, `net_io_windows.csv`.
fn net_sweep(ctx: &Ctx) -> io::Result<()> {
    /// Sub-windows the measured window is sampled in for the io rates.
    const IO_SLICES: u32 = 4;
    // Wall-clock warmup and measured window, ns, and client counts per DC.
    let (warmup_ns, measure_ns, load_points): (u64, u64, &[u16]) = if ctx.scale == Some("smoke") {
        (150_000_000, 400_000_000, &[1, 4])
    } else {
        (300_000_000, 800_000_000, &[1, 4, 16])
    };
    // One DC (ROT latency is an intra-DC path; replication is async), the
    // small key space, wall-clock control-plane tuning.
    let cluster = ClusterConfig::small().for_wall_clock();
    let workload = WorkloadSpec::paper_default().with_rot_size(2);
    let headers = table::columns(
        "backend,clients,net tput Kops/s,net ROT avg ms,net ROT p99 ms,net PUT avg ms,\
         sim ROT avg ms,sim ROT p99 ms,sim PUT avg ms",
    );
    let mut rows = Vec::new();
    let mut io_rows = Vec::new();
    for &clients in load_points {
        for (protocol, seed) in [(Protocol::Contrarian, 42), (Protocol::CcLo, 43)] {
            let spec = RunSpec {
                warmup_ns,
                measure_ns,
                seed,
                ..RunSpec::closed(protocol, cluster.clone(), workload.clone())
                    .with_clients_per_dc(clients)
            };
            // The socket-level counters at sub-window boundaries: the
            // reactor's io activity *over time*, not just a total.
            let mut prev: Option<NetSample> = None;
            let net = run_net(&spec, IO_SLICES, &mut |s| {
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
            let sim = run(&RunSpec {
                warmup_ns: 100_000_000,
                measure_ns: 400_000_000,
                ..spec
            });
            println!("  [net] {net}\n  [sim] {sim}");
            rows.push(vec![
                protocol.label().to_string(),
                clients.to_string(),
                table::f1(net.throughput_kops()),
                table::f3(net.avg_rot_ms),
                table::f3(net.p99_rot_ms),
                table::f3(net.avg_put_ms),
                table::f3(sim.avg_rot_ms),
                table::f3(sim.p99_rot_ms),
                table::f3(sim.avg_put_ms),
            ]);
        }
    }
    println!(
        "\n=== net_sweep: ROT latency over the loopback TCP reactor vs simulator prediction ===\n"
    );
    println!("{}", table::render(&headers, &rows));
    ctx.csv("net_sweep.csv", &headers, &rows)?;
    let io_headers = table::columns("backend,clients,t_ms,frames_s,bytes_s,sockets");
    ctx.csv("net_io_windows.csv", &io_headers, &io_rows)?;
    println!(
        "\nnote: absolute numbers differ (the simulator models the paper's hardware,\n\
         loopback has its own constants); the paper's *shape* — CC-LO's one-round\n\
         ROTs fastest at low load, Contrarian cheaper on PUTs — is what carries over."
    );
    Ok(())
}

/// Trace viewer: one traced open-loop point on 2 simulated DCs, written as
/// Chrome-trace `trace_view.json` (`chrome://tracing` or Perfetto; rows are
/// nodes) plus a text summary. Arguments: `[backend] [offered_ops_per_sec]`,
/// default `contrarian 5000`. The trace is the same on every engine: a
/// deterministic artifact of (backend, rate, seed).
fn trace_view(ctx: &Ctx) -> io::Result<()> {
    let protocol = match ctx.args.first().map(|s| s.to_ascii_lowercase()).as_deref() {
        None | Some("contrarian") => Protocol::Contrarian,
        Some("contrarian-2r" | "2r") => Protocol::ContrarianTwoRound,
        Some("cc-lo" | "cclo") => Protocol::CcLo,
        Some("cure") => Protocol::Cure,
        Some("okapi") => Protocol::Okapi,
        Some(other) => {
            return Err(invalid(format!(
                "unknown backend {other:?} (want contrarian | contrarian-2r | cc-lo | cure | okapi)"
            )))
        }
    };
    let rate = match ctx.args.get(1) {
        None => 5_000.0,
        Some(s) => s
            .parse::<f64>()
            .map_err(|_| invalid(format!("offered rate must be a number, got {s:?}")))?,
    };
    // 2 DCs so replication exists: remote installs feed the visibility-
    // staleness gauge, and GSS advances cross the inter-DC links.
    let cluster = ClusterConfig::small().with_dcs(2);
    let spec = open_spec(protocol, cluster, (50_000_000, 200_000_000)).with_offered(rate);
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
    print!("{}", summarize(&run.trace));
    println!("{}", spec.report(&run.metrics));
    println!(
        "{}",
        table::render(&MetricsWindow::CSV_HEADERS, &run.windows.csv_rows())
    );
    ctx.write("trace_view.json", &chrome_trace_json(&run.trace))
}

/// Heap census: the repo benchmark's four simulator workloads, each run to
/// the end of its `over` rung on the default engine, and what every owner
/// holds there, per node class (`census::GEOMETRIES`). Argument: `[seed]`,
/// default 1. At `CONTRARIAN_SCALE=smoke` the warm-up and window are cut
/// to a quarter. Writes `heap_census.csv`. The `engine` rows repeat
/// from run to run of one seed, threads or not: every run call ends with
/// no spare cross-shard batches and no outbox capacity. Capacities of
/// hash tables may move between runs: std's hasher is seeded per
/// process, and where a table grows depends on where its deletions land.
fn heap_census(ctx: &Ctx) -> io::Result<()> {
    let seed = match ctx.args.first() {
        None => 1,
        Some(s) => s
            .parse::<u64>()
            .map_err(|_| invalid(format!("seed must be an integer, got {s:?}")))?,
    };
    let shrink = if ctx.scale == Some("smoke") { 4 } else { 1 };
    let headers = ["workload", "class", "owner", "MB", "share %", "items"];
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for g in &GEOMETRIES {
        let t0 = Instant::now();
        let census = g.census(seed, shrink);
        let total = census.total();
        eprintln!(
            "== heap_census: {} (seed {seed}, {:.1} s) ==",
            g.name,
            t0.elapsed().as_secs_f64()
        );
        let mb = |b: usize| format!("{:.2}", b as f64 / 1e6);
        for r in census.rows() {
            rows.push(vec![
                g.name.to_string(),
                r.class.to_string(),
                r.owner.to_string(),
                mb(r.bytes),
                table::f1(100.0 * r.bytes as f64 / total.max(1) as f64),
                r.items.to_string(),
            ]);
            csv.push(vec![
                g.name.to_string(),
                r.class.to_string(),
                r.owner.to_string(),
                r.bytes.to_string(),
                r.items.to_string(),
            ]);
        }
        rows.push(vec![
            g.name.to_string(),
            "all".into(),
            "total".into(),
            mb(total),
            "100.0".into(),
            String::new(),
        ]);
    }
    println!("{}", table::render(&headers, &rows));
    ctx.csv(
        "heap_census.csv",
        &["workload", "class", "owner", "bytes", "items"],
        &csv,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use contrarian_runtime::metrics::Metrics;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    /// A directory that does not exist (nor does its parent), so nothing
    /// is ever written: the shared `results/` stays untouched.
    fn missing_dir() -> PathBuf {
        std::env::temp_dir()
            .join(format!("contrarian-harness-absent-{}", std::process::id()))
            .join("results")
    }

    #[test]
    fn scenario_names_are_unique_and_todays_sixteen_programs() {
        let mut names: Vec<&str> = SCENARIOS.iter().map(|s| s.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate scenario names");
        let mut want = vec![
            "all",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "heap_census",
            "load_sweep",
            "net_sweep",
            "scale_sweep",
            "table1",
            "table2",
            "theory",
            "trace_view",
            "value_size",
        ];
        want.sort_unstable();
        assert_eq!(names, want);
        assert!(SCENARIOS.iter().all(|s| !s.doc.is_empty()));
    }

    #[test]
    fn all_runs_the_ten_paper_scenarios_in_order() {
        let names: Vec<&str> = paper().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "table1",
                "table2",
                "fig4",
                "fig5",
                "fig6",
                "fig7",
                "fig8",
                "fig9",
                "value_size",
                "theory"
            ]
        );
    }

    #[test]
    fn unknown_subcommand_prints_usage_and_exits_2() {
        let r = run_cli(&args(&["fig10"]), None, &missing_dir());
        assert_eq!(exit_code(&r), 2);
        let msg = r.unwrap_err().to_string();
        assert!(msg.contains("`fig10`"), "{msg}");
        assert!(msg.contains(&usage()), "{msg}");
        for s in SCENARIOS {
            assert!(usage().contains(s.name) && usage().contains(s.doc));
        }
        assert_eq!(exit_code(&run_cli(&[], None, &missing_dir())), 0);
    }

    #[test]
    fn bad_scale_or_backend_is_a_usage_error() {
        let r = run_cli(&args(&["table1"]), Some("smok"), &missing_dir());
        assert_eq!(exit_code(&r), 2);
        assert!(r.unwrap_err().to_string().contains("xlarge"));
        let r = run_cli(&args(&["trace_view", "paxos"]), None, &missing_dir());
        assert_eq!(exit_code(&r), 2);
        assert_eq!(
            exit_code(&run_cli(&args(&["table1"]), Some("paper"), &missing_dir())),
            0
        );
    }

    #[test]
    fn failed_artifact_write_fails_the_scenario_naming_the_path() {
        let out = missing_dir();
        let r = run_cli(&args(&["theory"]), None, &out);
        assert_eq!(exit_code(&r), 1);
        let msg = r.unwrap_err().to_string();
        assert!(
            msg.contains(&out.join("theory.csv").display().to_string()),
            "{msg}"
        );
        assert!(!out.exists());
    }

    #[test]
    fn peak_ratio_compares_series() {
        let point = |tput_kops: f64| Report {
            achieved_ops_per_sec: tput_kops * 1e3,
            ..RunSpec::functional(Protocol::Contrarian).report(&Metrics::new())
        };
        let series = |name: &str, tput| Series {
            name: name.into(),
            points: vec![point(tput)],
        };
        assert!((peak_ratio(&series("a", 300.0), &series("b", 200.0)) - 1.5).abs() < 1e-9);
    }
}
