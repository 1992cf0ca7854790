//! From what the children reported to metrics: estimators, correctness
//! verdicts, the printed table and the JSON the driver reads.

use crate::fields::{get, ratio, Fields};
use crate::json::Json;
use crate::metrics::{self, END_TO_END, PER_LAYER};
use crate::rungs;
use crate::runner::{Collected, Runner, Want};
use crate::stats::{self, median};
use crate::workloads::{RuntimeKind, Workload};

/// A `mid` round may fall this far short of `rate x window` before the
/// shortfall counts as failed operations, or four Poisson standard
/// deviations of the expected count if that is more: arrivals wobble.
const SHORTFALL_TOLERANCE: f64 = 0.01;

/// Fields of a simulated round that are functions of (workload, seed)
/// alone: two rounds of one rung must report them bit for bit.
const VIRTUAL_FIELDS: [&str; 19] = [
    "ops",
    "rot_n",
    "put_n",
    "rot_p50_ms",
    "rot_p99_ms",
    "put_p50_ms",
    "put_p99_ms",
    "vis_n",
    "vis_p99_ms",
    "block_n",
    "block_p99_ms",
    "gss_lag_p50",
    "data_stale_p99_ms",
    "msgs",
    "wire_bytes",
    "busy_ns",
    "events",
    "cclo_check_ids",
    "cclo_check_bytes",
];

pub struct Value {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// Per-round samples behind `value` and how they were collapsed.
    samples: Vec<f64>,
    estimator: &'static str,
    spread: f64,
    /// Latency samples behind a percentile; 0 where it does not apply.
    count: u64,
}

pub struct Assembled {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub end_to_end: Vec<Value>,
    pub per_layer: Vec<Value>,
}

impl Assembled {
    /// `{"correct", "attempted", "failed"}`: the head of a result.
    pub fn verdict_json(&self) -> Json {
        let mut j = Json::obj();
        j.set("correct", Json::Bool(self.correct))
            .set("attempted", Json::Num(self.attempted as f64))
            .set("failed", Json::Num(self.failed as f64));
        j
    }
}

/// The rounds end-to-end values are read from.
struct Rounds<'a> {
    /// On the simulator one `mid` round per cluster realization (the repeat
    /// of the first only checks determinism), on TCP all of them.
    mid: Vec<&'a Fields>,
    over: Vec<&'a Fields>,
}

impl<'a> Rounds<'a> {
    fn of(c: &'a Collected, sim: bool) -> Self {
        let mut seen = Vec::new();
        let mid = c
            .mid
            .iter()
            .filter(|r| {
                let cluster = get(r, "cluster") as u32;
                let repeat = sim && seen.contains(&cluster);
                seen.push(cluster);
                !repeat
            })
            .collect();
        Rounds {
            mid,
            over: c.over.iter().collect(),
        }
    }

    /// Every second round of each rung. Rounds are spread across the whole
    /// invocation, so both halves see the same machine epochs; how far
    /// their estimates lie apart is the noise of the estimate itself.
    fn half(&self, parity: usize) -> Rounds<'a> {
        let pick = |v: &[&'a Fields]| v.iter().copied().skip(parity).step_by(2).collect();
        Rounds {
            mid: pick(&self.mid),
            over: pick(&self.over),
        }
    }
}

/// Per-round samples of an end-to-end metric.
fn end_to_end_samples(name: &str, sim: bool, r: &Rounds) -> Vec<f64> {
    let of = |rounds: &[&Fields], f: &dyn Fn(&Fields) -> f64| rounds.iter().map(|m| f(m)).collect();
    match name {
        // A simulated set-up runs the warm-up, which costs more at `over`;
        // one rung keeps the samples alike. A TCP set-up is the same work
        // on both rungs, so all six rounds count.
        "setup_s" if sim => of(&r.over, &|m| get(m, "setup_s")),
        "setup_s" => {
            let all: Vec<&Fields> = r.mid.iter().chain(&r.over).copied().collect();
            of(&all, &|m| get(m, "setup_s"))
        }
        "rot_p50_ms" | "rot_p99_ms" | "put_p50_ms" | "put_p99_ms" => of(&r.mid, &|m| get(m, name)),
        "peak_ops_s" => of(&r.over, &|m| ratio(get(m, "ops"), get(m, "window_s"))),
        // The simulator's one thread is timed per slice by the wall clock
        // (see `slicewise_min_cost`); TCP's many threads by process CPU time.
        "cpu_us_per_op" if sim => of(&r.over, &|m| {
            let ns: f64 = (0..rungs::SIM_SLICES)
                .map(|i| get(m, &format!("slice_ns_{i}")))
                .sum();
            ratio(ns / 1e3, get(m, "ops"))
        }),
        "cpu_us_per_op" => of(&r.over, &|m| ratio(get(m, "cpu_ns") / 1e3, get(m, "ops"))),
        "peak_rss_mb" => of(&r.over, &|m| get(m, "rss_mb")),
        other => unreachable!("no recipe for end-to-end metric {other}"),
    }
}

/// Host time per operation from the per-slice minima over rounds of one
/// seed (see [`rungs::SIM_SLICES`]): slice `i` is the same work in every
/// round, so the least any round spent on it is its cost at the machine's
/// best.
fn slicewise_min_cost(rounds: &[&Fields]) -> f64 {
    let (mut ns, mut ops) = (0.0, 0.0);
    for i in 0..rungs::SIM_SLICES {
        let key = format!("slice_ns_{i}");
        let best = rounds
            .iter()
            .map(|m| get(m, &key))
            .filter(|v| *v > 0.0)
            .fold(f64::INFINITY, f64::min);
        if best.is_finite() {
            ns += best;
            ops += get(rounds[0], &format!("slice_ops_{i}"));
        }
    }
    ratio(ns / 1e3, ops)
}

fn end_to_end_value(m: &metrics::EndToEnd, sim: bool, r: &Rounds) -> f64 {
    match if sim { m.sim } else { m.net } {
        stats::Estimator::SlicewiseMin => slicewise_min_cost(&r.over),
        est => est.apply(&end_to_end_samples(m.name, sim, r)),
    }
}

/// Field by field, the median over several runs of one child kind.
fn median_fields(runs: &[Fields]) -> Fields {
    let Some(first) = runs.first() else {
        return Fields::new();
    };
    first
        .keys()
        .map(|k| {
            let values: Vec<f64> = runs.iter().map(|r| get(r, k)).collect();
            (k.clone(), median(&values))
        })
        .collect()
}

/// What the per-layer recipes read: the first round of each rung, the
/// checker pass, and the replay and layer runs folded to medians.
struct LayerInputs<'a> {
    mid: &'a Fields,
    over: &'a Fields,
    check: &'a Fields,
    replay: &'a Fields,
    layers: &'a Fields,
}

fn per_layer_value(name: &str, w: &Workload, c: &Collected, r: &Runner, i: &LayerInputs) -> f64 {
    let LayerInputs {
        mid,
        over,
        check,
        replay,
        layers,
    } = *i;
    let util = |r: &Fields| {
        let cfg = w.cluster();
        let worker_ns =
            get(r, "window_s") * 1e9 * (w.n_servers() * cfg.workers_per_server as usize) as f64;
        ratio(get(r, "busy_ns"), worker_ns)
    };
    let per_op = |r: &Fields, key: &str| ratio(get(r, key), get(r, "ops"));
    match name {
        "sim.events_per_op" => per_op(over, "events"),
        "sim.events_per_s" => ratio(get(over, "events"), get(over, "window_wall_s")),
        "runtime.msgs_per_op" => per_op(mid, "msgs"),
        "runtime.wire_bytes_per_op" => per_op(mid, "wire_bytes"),
        "runtime.server_util_mid" => util(mid),
        "runtime.server_util_over" => util(over),
        "protocol.block_p99_ms" => get(mid, "block_p99_ms"),
        "protocol.gss_lag_p50" => get(mid, "gss_lag_p50"),
        "protocol.vis_p99_ms" => get(mid, "vis_p99_ms"),
        "storage.data_stale_p99_ms" => get(mid, "data_stale_p99_ms"),
        "cclo.check_ids_per_put" => ratio(get(mid, "cclo_check_ids"), get(mid, "cclo_checks")),
        "cclo.check_bytes_per_put" => ratio(get(mid, "cclo_check_bytes"), get(mid, "cclo_checks")),
        "net.frames_per_op" => per_op(over, "net_frames"),
        "net.bytes_per_op" => per_op(over, "net_bytes"),
        "net.sockets" => get(over, "net_sockets"),
        "net.io_threads" => get(over, "net_io_threads"),
        "net.sys_cpu_frac" => ratio(
            get(over, "sys_ticks"),
            get(over, "sys_ticks") + get(over, "user_ticks"),
        ),
        "net.ctx_switches_per_op" => per_op(over, "ctx_switches"),
        "net.cpu_us_per_op_mid" => per_op(mid, "cpu_ns") / 1e3,
        "alloc.count_per_op" => per_op(over, "allocs"),
        "alloc.bytes_per_op" => per_op(over, "alloc_bytes"),
        "workload.failed_ops_frac" => {
            if c.errors.is_empty() {
                c.mid
                    .iter()
                    .map(|r| (1.0 - ratio(get(r, "ops"), w.mid_rate * get(r, "window_s"))).max(0.0))
                    .fold(0.0, f64::max)
            } else {
                1.0
            }
        }
        "machine.spin_ns" => median(&r.spin_ns),
        "machine.pingpong_ns" => median(&r.pingpong_ns),
        "workload.draw_ns_per_op" => get(replay, "draw_ns_per_op"),
        "sim.sched_ns_per_op" => get(replay, "sched_ns_per_op"),
        "sim.sched_ops_per_op" => get(replay, "sched_ops_per_op"),
        "backend.server_ns_per_op" => get(replay, "server_ns_per_op"),
        "backend.server_calls_per_op" => get(replay, "server_calls_per_op"),
        "backend.client_ns_per_op" => get(replay, "client_ns_per_op"),
        "protocol.timer_ns_per_op" => get(replay, "timer_ns_per_op"),
        "types.encode_ns_per_op" => get(replay, "encode_ns_per_op"),
        "types.decode_ns_per_op" => get(replay, "decode_ns_per_op"),
        "types.encoded_bytes_per_msg" => get(replay, "encoded_bytes_per_msg"),
        "runtime.frame_ns_per_op" => get(replay, "frame_ns_per_op"),
        "replay.self_ns_per_op" => get(replay, "self_ns_per_op"),
        "replay.cpu_us_per_op" => get(replay, "replay_cpu_us_per_op"),
        "replay.coverage_frac" => get(replay, "coverage_frac"),
        "replay.trace_overhead_frac" => get(replay, "trace_overhead_frac"),
        "storage.read_ns" => get(layers, "storage_read_ns"),
        "storage.put_ns" => get(layers, "storage_put_ns"),
        "storage.versions_scanned_per_read" => get(layers, "storage_versions_scanned_per_read"),
        "cclo.records_query_ns" => get(layers, "cclo_records_query_ns"),
        "runtime.hist_record_ns" => get(layers, "runtime_hist_record_ns"),
        "harness.checker_feed_ns_per_event" => {
            ratio(get(check, "check_feed_ns"), get(check, "check_events"))
        }
        "harness.checker_events" => get(check, "check_events"),
        "harness.checker_violations" => get(check, "check_violations"),
        other => unreachable!("no recipe for per-layer metric {other}"),
    }
}

pub fn assemble(w: &Workload, c: &Collected, r: &Runner, want: Want) -> Assembled {
    let mut problems = c.errors.clone();
    let is_sim = w.runtime == RuntimeKind::Sim;
    if is_sim {
        for (rung, rounds) in [("mid", &c.mid), ("over", &c.over)] {
            for (i, a) in rounds.iter().enumerate() {
                for b in &rounds[i + 1..] {
                    if get(a, "cluster") != get(b, "cluster") {
                        continue;
                    }
                    for key in VIRTUAL_FIELDS {
                        if get(a, key).to_bits() != get(b, key).to_bits() {
                            problems.push(format!(
                                "{rung} rounds of one seed disagree on {key}: {} vs {}",
                                get(a, key),
                                get(b, key)
                            ));
                        }
                    }
                }
            }
        }
    }
    match &c.check {
        Some(check) if get(check, "check_violations") > 0.0 => problems.push(format!(
            "causal checker: {} violation(s)",
            get(check, "check_violations")
        )),
        Some(check) if get(check, "check_events") < 50.0 => {
            problems.push("causal checker saw almost no history".to_string())
        }
        _ => {}
    }
    if c.replay.iter().any(|m| get(m, "replay_ops") < 1.0) {
        problems.push("replay completed no operation".to_string());
    }

    let completed: f64 = c.mid.iter().chain(&c.over).map(|m| get(m, "ops")).sum();
    let mut failed = 0.0;
    for m in &c.mid {
        let expected = w.mid_rate * get(m, "window_s");
        let tolerance = SHORTFALL_TOLERANCE.max(4.0 / expected.sqrt());
        if get(m, "ops") < (1.0 - tolerance) * expected {
            failed += expected - get(m, "ops");
            problems.push(format!(
                "mid round completed {} of {expected:.0} offered operations",
                get(m, "ops")
            ));
        }
    }
    let mut attempted = completed + failed;
    if !c.errors.is_empty() || attempted < 1.0 {
        // A child that panicked or hung failed everything it was offered.
        attempted = attempted.max(1.0);
        failed = attempted;
    }

    let mut end_to_end = Vec::new();
    if want != Want::PerLayer {
        let rounds = Rounds::of(c, is_sim);
        let (even, odd) = (rounds.half(0), rounds.half(1));
        for m in &END_TO_END {
            let est = if is_sim { m.sim } else { m.net };
            let value = end_to_end_value(m, is_sim, &rounds);
            let spread = if est == stats::Estimator::Exact {
                0.0
            } else {
                let (a, b) = (
                    end_to_end_value(m, is_sim, &even),
                    end_to_end_value(m, is_sim, &odd),
                );
                if a > 0.0 && b > 0.0 {
                    ratio((a - b).abs(), value)
                } else {
                    0.0
                }
            };
            let count = match m.name {
                "rot_p50_ms" | "rot_p99_ms" => "rot_n",
                "put_p50_ms" | "put_p99_ms" => "put_n",
                _ => "",
            };
            end_to_end.push(Value {
                name: m.name,
                unit: m.unit,
                value,
                spread,
                estimator: est.name(),
                samples: end_to_end_samples(m.name, is_sim, &rounds),
                count: rounds.mid.first().map_or(0, |r| get(r, count) as u64),
            });
        }
    }
    let mut per_layer = Vec::new();
    if want != Want::EndToEnd {
        let empty = Fields::new();
        let (replay, layers) = (median_fields(&c.replay), median_fields(&c.layers));
        let inputs = LayerInputs {
            mid: c.mid.first().unwrap_or(&empty),
            over: c.over.first().unwrap_or(&empty),
            check: c.check.as_ref().unwrap_or(&empty),
            replay: &replay,
            layers: &layers,
        };
        for m in &PER_LAYER {
            per_layer.push(Value {
                name: m.name,
                unit: m.unit,
                value: per_layer_value(m.name, w, c, r, &inputs),
                samples: Vec::new(),
                estimator: "",
                spread: 0.0,
                count: 0,
            });
        }
    }
    for v in end_to_end.iter().chain(&per_layer) {
        if !v.value.is_finite() {
            problems.push(format!("{} is not a finite number", v.name));
        }
    }
    Assembled {
        correct: problems.is_empty(),
        attempted: attempted.round() as u64,
        failed: failed.round() as u64,
        problems,
        end_to_end,
        per_layer,
    }
}

pub fn print_table(w: &Workload, a: &Assembled) {
    println!("== {} ==", w.name);
    for v in a.end_to_end.iter().chain(&a.per_layer) {
        let mut note = String::new();
        if !v.estimator.is_empty() {
            note = format!("  [{} of {}", v.estimator, v.samples.len());
            if v.samples.len() > 1 {
                note += &format!(
                    ", rounds {:.6}..{:.6}",
                    stats::Estimator::Min.apply(&v.samples),
                    stats::Estimator::Max.apply(&v.samples)
                );
            }
            if v.count > 0 {
                note += &format!(", {} latency samples", v.count);
            }
            note += "]";
        }
        println!("{:<36} {:>18.6} {}{}", v.name, v.value, v.unit, note);
    }
    for p in &a.problems {
        println!("PROBLEM: {p}");
    }
}

/// Min / median / max of a machine-epoch probe over the invocation.
pub fn probe_summary(samples: &[f64]) -> [f64; 3] {
    [
        stats::Estimator::Min.apply(samples),
        median(samples),
        stats::Estimator::Max.apply(samples),
    ]
}

pub fn print_probes(r: &Runner) {
    for (name, samples) in [
        ("machine.spin_ns", &r.spin_ns),
        ("machine.pingpong_ns", &r.pingpong_ns),
    ] {
        let [min, med, max] = probe_summary(samples);
        println!(
            "{name:<36} min {min:.0}  median {med:.0}  max {max:.0} ns  [{} probes]",
            samples.len()
        );
    }
}

/// `{"name": {"value": v, "unit": u}}`, the shape the driver reads.
pub fn metrics_json(values: &[Value], detailed: bool) -> Json {
    let mut out = Json::obj();
    for v in values {
        let mut j = Json::obj();
        j.set("value", Json::Num(v.value))
            .set("unit", Json::Str(v.unit.to_string()));
        if detailed && !v.estimator.is_empty() {
            j.set("estimator", Json::Str(v.estimator.to_string()))
                .set("spread", Json::Num(v.spread))
                .set("count", Json::Num(v.count as f64))
                .set(
                    "samples",
                    Json::Arr(v.samples.iter().map(|s| Json::Num(*s)).collect()),
                );
        }
        out.set(v.name, j);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use std::path::PathBuf;

    fn round(cluster: u32, fields: &[(&str, f64)]) -> Fields {
        let mut m: Fields = fields.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        m.insert("cluster".to_string(), f64::from(cluster));
        m
    }

    fn runner() -> Runner {
        Runner {
            exe: PathBuf::new(),
            seed: 1,
            seconds: 12.0,
            spans_out: None,
            spin_ns: vec![1.0],
            pingpong_ns: vec![1.0],
        }
    }

    #[test]
    fn latency_is_read_once_per_cluster_on_the_simulator() {
        let mut c = Collected::default();
        for (cluster, p50) in [(0, 1.0), (0, 1.0), (1, 3.0), (2, 2.0)] {
            c.mid
                .push(round(cluster, &[("rot_p50_ms", p50), ("rot_n", 10.0)]));
        }
        let sim = end_to_end_samples("rot_p50_ms", true, &Rounds::of(&c, true));
        assert_eq!(sim, [1.0, 3.0, 2.0]);
        let net = end_to_end_samples("rot_p50_ms", false, &Rounds::of(&c, false));
        assert_eq!(net.len(), 4);
        let even = Rounds::of(&c, true).half(0);
        assert_eq!(end_to_end_samples("rot_p50_ms", true, &even), [1.0, 2.0]);
    }

    #[test]
    fn slicewise_minimum_takes_each_slice_from_its_quietest_round() {
        let slices = |cpu: [f64; 3]| {
            let mut m = Fields::new();
            for (i, c) in cpu.iter().enumerate() {
                m.insert(format!("slice_ns_{i}"), *c);
                m.insert(format!("slice_ops_{i}"), 10.0);
            }
            m
        };
        let (a, b) = (slices([5e3, 9e3, 7e3]), slices([8e3, 6e3, 7e3]));
        // (5 + 6 + 7) us over 30 operations; either round alone costs more.
        assert!((slicewise_min_cost(&[&a, &b]) - 0.6).abs() < 1e-12);
        assert!((slicewise_min_cost(&[&a]) - 0.7).abs() < 1e-12);
        assert_eq!(slicewise_min_cost(&[]), 0.0);
    }

    #[test]
    fn rounds_of_one_seed_that_disagree_make_the_run_incorrect() {
        let w = &WORKLOADS[0];
        let good = [("ops", 120_000.0), ("window_s", 1.0), ("events", 5.0)];
        let mut c = Collected {
            mid: vec![
                round(0, &good),
                round(0, &good),
                round(1, &[("ops", 120_100.0), ("window_s", 1.0)]),
            ],
            over: vec![round(0, &good)],
            ..Collected::default()
        };
        let a = assemble(w, &c, &runner(), Want::EndToEnd);
        assert!(a.correct, "{:?}", a.problems);
        assert_eq!(a.failed, 0);
        assert_eq!(a.attempted, 480_100);

        c.mid[1].insert("events".to_string(), 6.0);
        let a = assemble(w, &c, &runner(), Want::EndToEnd);
        assert!(!a.correct);
        assert!(a.problems[0].contains("events"), "{:?}", a.problems);
    }

    #[test]
    fn shortfalls_violations_and_dead_children_count_as_failures() {
        let w = &WORKLOADS[0];
        // 10 % short of 120 K offered operations.
        let mut c = Collected {
            mid: vec![round(0, &[("ops", 108_000.0), ("window_s", 1.0)])],
            ..Collected::default()
        };
        let a = assemble(w, &c, &runner(), Want::EndToEnd);
        assert!(!a.correct);
        assert_eq!(a.failed, 12_000);
        assert_eq!(a.attempted, 120_000);

        // Within Poisson wobble: not a failure.
        c.mid = vec![round(0, &[("ops", 119_500.0), ("window_s", 1.0)])];
        assert!(assemble(w, &c, &runner(), Want::EndToEnd).correct);

        c.check = Some(round(
            0,
            &[("check_violations", 1.0), ("check_events", 1000.0)],
        ));
        assert!(!assemble(w, &c, &runner(), Want::EndToEnd).correct);

        c.check = None;
        c.errors.push("Check: timed out".to_string());
        let a = assemble(w, &c, &runner(), Want::PerLayer);
        assert!(!a.correct);
        assert_eq!(a.failed, a.attempted);
        let frac = a
            .per_layer
            .iter()
            .find(|v| v.name == "workload.failed_ops_frac")
            .unwrap();
        assert_eq!(frac.value, 1.0);
    }
}
