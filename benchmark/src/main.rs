//! The repo benchmark: five open-loop workloads, end-to-end metrics, and
//! an outside-in layer replay. See `README.md` beside this package.
//!
//! Three ways in:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one workload; the
//!   last stdout line is `{"correct", "attempted", "failed", "metrics"}`
//!   with every end-to-end metric (`--trace 0`) or every per-layer metric
//!   (`--trace 1`).
//! * no `--workload` — every workload, rounds interleaved round-robin,
//!   every metric; `--out FILE` also writes the full report there.
//! * `--compare A.json B.json` — judge two full reports.
//!
//! The runner re-executes itself (`--child ...`) once per round, so every
//! round starts from a fresh address space and its peak RSS is its own.

mod alloc;
mod child;
mod compare;
mod fields;
mod json;
mod layers;
mod machine;
mod metrics;
mod replay;
mod report;
mod rungs;
mod runner;
mod stats;
mod workloads;

use fields::get;
use json::Json;
use report::{assemble, metrics_json, print_probes, print_table, probe_summary};
use runner::{plan, Collected, Job, Runner, Want, OVER};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{RuntimeKind, Workload, WORKLOADS};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// `--seconds` when none is given; `BENCHMARK.json` freezes the same.
const DEFAULT_SECONDS: f64 = 20.0;
/// Most `over` rounds of one simulator workload in one invocation.
const MAX_OVER_ROUNDS: usize = 20;

pub struct Args {
    pairs: Vec<(String, String)>,
    compare: Option<(String, String)>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut it = std::env::args().skip(1);
        let mut args = Args {
            pairs: Vec::new(),
            compare: None,
        };
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            if key == "compare" {
                args.compare = Some((value()?, value()?));
            } else {
                args.pairs.push((key.to_string(), value()?));
            }
        }
        Ok(args)
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    pub fn number(&self, key: &str) -> Result<Option<f64>, String> {
        self.get(key)
            .map(|v| {
                v.parse::<f64>()
                    .ok()
                    .filter(|n| n.is_finite() && *n >= 0.0)
                    .ok_or_else(|| format!("--{key} must be a non-negative number, got `{v}`"))
            })
            .transpose()
    }

    pub fn seed(&self) -> Result<u64, String> {
        match self.get("seed") {
            None => Ok(42),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--seed must be a whole number, got `{v}`")),
        }
    }

    pub fn workload(&self) -> Result<Option<&'static Workload>, String> {
        self.get("workload")
            .map(|name| {
                workloads::find(name).ok_or_else(|| {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{name}`; known: {}", known.join(", "))
                })
            })
            .transpose()
    }
}

fn read_report(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// One workload, for the driver: the last stdout line is the result.
fn run_one(runner: &mut Runner, w: &'static Workload, want: Want) -> ExitCode {
    let started = Instant::now();
    let mut c = Collected::default();
    for job in plan(w, want) {
        runner.run(w, job, &mut c);
    }
    // Repeats of a simulated round give identical virtual numbers; what
    // more rounds buy is a quieter host-cost reading. Spend what is left
    // of `--seconds` of measured time on them.
    if want == Want::EndToEnd && w.runtime == RuntimeKind::Sim {
        while c.errors.is_empty() && c.over.len() < MAX_OVER_ROUNDS {
            let last = c.over.last().map_or(f64::MAX, |r| get(r, "window_wall_s"));
            if c.measured_s() + last > runner.seconds {
                break;
            }
            runner.run(w, OVER, &mut c);
        }
    }
    // Per-layer timings are short and noisy; repeat the replay and the
    // timed calls while `--seconds` lasts and report medians.
    while want == Want::PerLayer
        && c.errors.is_empty()
        && started.elapsed().as_secs_f64() < runner.seconds
    {
        runner.run(w, Job::Replay, &mut c);
        runner.run(w, Job::Layers, &mut c);
    }
    let a = assemble(w, &c, runner, want);
    print_table(w, &a);
    print_probes(runner);
    let metrics = if want == Want::EndToEnd {
        &a.end_to_end
    } else {
        &a.per_layer
    };
    let mut line = a.verdict_json();
    line.set("metrics", metrics_json(metrics, false));
    println!("{}", line.encode());
    // An incorrect run still exits 0: the verdict is in the line.
    ExitCode::SUCCESS
}

/// Every workload, every metric. Round-robin: position i of every
/// workload's plan runs before position i+1 of any, so each workload's
/// repeats span the whole invocation and a slow machine epoch lands on
/// all alike.
fn run_all(runner: &mut Runner, out: Option<&str>) -> Result<ExitCode, String> {
    let plans: Vec<Vec<Job>> = WORKLOADS.iter().map(|w| plan(w, Want::Both)).collect();
    let mut collected: Vec<Collected> = WORKLOADS.iter().map(|_| Collected::default()).collect();
    for i in 0..plans.iter().map(Vec::len).max().unwrap_or(0) {
        for ((w, jobs), c) in WORKLOADS.iter().zip(&plans).zip(&mut collected) {
            if let Some(job) = jobs.get(i) {
                runner.run(w, *job, c);
            }
        }
    }
    let probe = |samples: &[f64]| {
        let [min, med, max] = probe_summary(samples);
        let mut j = Json::obj();
        j.set("min", Json::Num(min))
            .set("median", Json::Num(med))
            .set("max", Json::Num(max));
        j
    };
    let mut meta = machine::meta();
    meta.set("seed", Json::Num(runner.seed as f64))
        .set("seconds", Json::Num(runner.seconds))
        .set("machine.spin_ns", probe(&runner.spin_ns))
        .set("machine.pingpong_ns", probe(&runner.pingpong_ns));
    let mut all_correct = true;
    let mut workloads_json = Json::obj();
    for (w, c) in WORKLOADS.iter().zip(&collected) {
        let a = assemble(w, c, runner, Want::Both);
        print_table(w, &a);
        all_correct &= a.correct;
        let mut j = a.verdict_json();
        j.set(
            "problems",
            Json::Arr(a.problems.iter().cloned().map(Json::Str).collect()),
        )
        .set("end_to_end", metrics_json(&a.end_to_end, true))
        .set("per_layer", metrics_json(&a.per_layer, false));
        workloads_json.set(w.name, j);
    }
    print_probes(runner);
    let mut report = Json::obj();
    report.set("meta", meta).set("workloads", workloads_json);
    let text = report.encode();
    if let Some(path) = out {
        std::fs::write(path, &text).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{text}");
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run() -> Result<ExitCode, String> {
    let args = Args::parse()?;
    if let Some(kind) = args.get("child") {
        child::child_main(kind, &args)?;
        return Ok(ExitCode::SUCCESS);
    }
    if let Some((a, b)) = &args.compare {
        let worse = compare::compare(&read_report(a)?, &read_report(b)?);
        return Ok(if worse == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    let mut runner = Runner {
        exe: std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?,
        seed: args.seed()?,
        seconds: args.number("seconds")?.unwrap_or(DEFAULT_SECONDS).max(1.0),
        spans_out: args.get("spans").map(str::to_string),
        spin_ns: Vec::new(),
        pingpong_ns: Vec::new(),
    };
    match args.workload()? {
        Some(w) => {
            let want = match args.get("trace") {
                None | Some("0") => Want::EndToEnd,
                Some("1") => Want::PerLayer,
                Some(other) => return Err(format!("--trace must be 0 or 1, got `{other}`")),
            };
            Ok(run_one(&mut runner, w, want))
        }
        None => run_all(&mut runner, args.get("out")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("contrarian-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
