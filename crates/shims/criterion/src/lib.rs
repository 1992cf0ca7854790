//! A minimal stand-in for the [`criterion`] benchmark harness, used because
//! this workspace builds in offline environments.
//!
//! Implements the API subset the `contrarian-bench` targets use:
//! benchmark groups, `bench_function` / `bench_with_input`, `Bencher::iter`,
//! `black_box`, and the `criterion_group!` / `criterion_main!` macros.
//!
//! Measurement is deliberately simple — no outlier analysis, no HTML
//! reports. Each benchmark is warmed up once, then sampled until either the
//! configured sample count or the measurement-time budget is exhausted; the
//! mean ns/iter is printed and, when `CRITERION_JSON=<path>` is set, all
//! results are written to `<path>` as a JSON array (this is how the repo's
//! `BENCH_baseline.json` is produced).
//!
//! [`criterion`]: https://crates.io/crates/criterion

use std::fmt::Display;
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// One finished measurement.
#[derive(Clone, Debug)]
pub struct BenchResult {
    pub group: String,
    pub name: String,
    pub mean_ns_per_iter: f64,
    pub samples: u64,
    pub iters_per_sample: u64,
}

static RESULTS: Mutex<Vec<BenchResult>> = Mutex::new(Vec::new());

/// The harness entry point (one per `criterion_group!` run).
#[derive(Default)]
pub struct Criterion {
    _priv: (),
}

impl Criterion {
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _c: self,
            name: name.into(),
            sample_size: 10,
            warm_up_time: Duration::from_millis(100),
            measurement_time: Duration::from_secs(2),
        }
    }

    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut g = self.benchmark_group("ungrouped");
        g.bench_function(name, f);
        g.finish();
        self
    }
}

/// A named set of related benchmarks.
pub struct BenchmarkGroup<'a> {
    _c: &'a mut Criterion,
    name: String,
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
}

impl<'a> BenchmarkGroup<'a> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up_time = d;
        self
    }

    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        self.run(id, |b| f(b));
        self
    }

    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.run(id, |b| f(b, input));
        self
    }

    pub fn finish(self) {}

    fn run(&mut self, id: BenchmarkId, mut f: impl FnMut(&mut Bencher)) {
        let mut b = Bencher {
            total: Duration::ZERO,
            iters: 0,
            batch: 1,
        };
        // One calibration pass (batch = 1) sizes the per-sample iteration
        // count so cheap (nanosecond) bodies are timed over a long enough
        // window while expensive bodies run once per sample. The batch is
        // frozen here: recomputing it from the reset counters would send
        // the first measured sample to the 1M-iteration cap.
        f(&mut b);
        let iters_per_sample = b.iters_per_sample();
        b.batch = iters_per_sample;
        b.total = Duration::ZERO;
        b.iters = 0;

        let deadline = Instant::now() + self.measurement_time;
        let mut samples = 0u64;
        while samples < self.sample_size as u64 {
            f(&mut b);
            samples += 1;
            if Instant::now() >= deadline {
                break;
            }
        }
        let mean = if b.iters == 0 {
            0.0
        } else {
            b.total.as_nanos() as f64 / b.iters as f64
        };
        eprintln!(
            "bench {:<40} {:>14.1} ns/iter ({} samples)",
            format!("{}/{}", self.name, id.0),
            mean,
            samples
        );
        RESULTS.lock().unwrap().push(BenchResult {
            group: self.name.clone(),
            name: id.0,
            mean_ns_per_iter: mean,
            samples,
            iters_per_sample,
        });
    }
}

/// Identifies one benchmark within a group.
pub struct BenchmarkId(String);

impl BenchmarkId {
    pub fn new(name: impl Into<String>, param: impl Display) -> Self {
        BenchmarkId(format!("{}/{}", name.into(), param))
    }

    pub fn from_parameter(param: impl Display) -> Self {
        BenchmarkId(param.to_string())
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId(s.to_string())
    }
}

/// Passed to each benchmark body; `iter` times the closure.
pub struct Bencher {
    total: Duration,
    iters: u64,
    /// Iterations per `iter` call — 1 while calibrating, then frozen to the
    /// calibrated per-sample count for every measurement sample.
    batch: u64,
}

impl Bencher {
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let n = self.batch;
        let t0 = Instant::now();
        for _ in 0..n {
            black_box(f());
        }
        self.total += t0.elapsed();
        self.iters += n;
    }

    /// How many iterations one measurement sample should run: enough that a
    /// sample spans ≥1 ms, capped so expensive bodies run once.
    fn iters_per_sample(&self) -> u64 {
        let per_iter = (self.total.as_nanos().max(1) as u64)
            .checked_div(self.iters)
            .unwrap_or(u64::MAX)
            .max(1);
        (1_000_000 / per_iter).clamp(1, 1_000_000)
    }
}

/// Writes the accumulated results as JSON to `$CRITERION_JSON`, if set.
/// Called by `criterion_main!` after all groups ran.
///
/// Each bench *binary* is its own process, so `cargo bench` runs this once
/// per target. The report therefore merges with an existing file instead of
/// truncating it: entries whose `(group, bench)` this process re-measured
/// are replaced, everything else (results from the other bench targets) is
/// preserved. A single `"meta"` entry recording the machine (logical cores
/// — parallel-engine numbers are meaningless without it) is refreshed on
/// every write.
pub fn write_report() {
    let results = RESULTS.lock().unwrap();
    let Ok(path) = std::env::var("CRITERION_JSON") else {
        return;
    };
    // Entries from a previous bench target's process, minus those this
    // process re-measured and minus any stale machine-metadata entry (it
    // is re-emitted below). The file is our own line-per-entry format; on
    // anything unrecognized, start fresh.
    let mut kept: Vec<String> = Vec::new();
    if let Ok(existing) = std::fs::read_to_string(&path) {
        for line in existing.lines() {
            let entry = line.trim().trim_end_matches(',');
            if !entry.starts_with('{') || entry.contains("\"group\": \"meta\"") {
                continue;
            }
            let remeasured = results.iter().any(|r| {
                entry.contains(&format!("\"group\": \"{}\"", r.group))
                    && entry.contains(&format!("\"bench\": \"{}\"", r.name))
            });
            if !remeasured {
                kept.push(entry.to_string());
            }
        }
    }
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let meta =
        format!("{{\"group\": \"meta\", \"bench\": \"machine\", \"logical_cores\": {cores}}}");
    let entries: Vec<String> = std::iter::once(meta)
        .chain(kept)
        .chain(results.iter().map(|r| {
            format!(
                "{{\"group\": \"{}\", \"bench\": \"{}\", \"mean_ns_per_iter\": {:.1}, \"samples\": {}}}",
                r.group, r.name, r.mean_ns_per_iter, r.samples
            )
        }))
        .collect();
    let mut out = String::from("[\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str("  ");
        out.push_str(e);
        out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    if let Err(e) = std::fs::write(&path, out) {
        eprintln!("criterion-shim: could not write {path}: {e}");
    } else {
        eprintln!(
            "criterion-shim: wrote {} results to {path} ({} total entries)",
            results.len(),
            entries.len()
        );
    }
}

#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
            $crate::write_report();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn times_a_cheap_closure() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim");
        g.sample_size(3).measurement_time(Duration::from_millis(50));
        let mut acc = 0u64;
        g.bench_function("add", |b| b.iter(|| acc = acc.wrapping_add(1)));
        g.finish();
        let results = RESULTS.lock().unwrap();
        let r = results.iter().find(|r| r.group == "shim").unwrap();
        assert!(r.samples >= 1);
    }

    #[test]
    fn benchmark_ids_format() {
        assert_eq!(BenchmarkId::new("join", 4).0, "join/4");
        assert_eq!(BenchmarkId::from_parameter("Cure").0, "Cure");
    }

    #[test]
    fn report_refreshes_the_machine_meta_entry() {
        let path = std::env::temp_dir().join("criterion_shim_meta_test.json");
        // A stale meta entry (from another machine) must be replaced, not
        // accumulated; foreign bench entries must survive the merge.
        std::fs::write(
            &path,
            "[\n  {\"group\": \"meta\", \"bench\": \"machine\", \"logical_cores\": 999},\n  \
             {\"group\": \"other\", \"bench\": \"kept\", \"mean_ns_per_iter\": 1.0, \"samples\": 1}\n]\n",
        )
        .unwrap();
        std::env::set_var("CRITERION_JSON", &path);
        write_report();
        std::env::remove_var("CRITERION_JSON");
        let out = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(out.matches("\"group\": \"meta\"").count(), 1);
        assert!(!out.contains("999"), "stale meta survived: {out}");
        assert!(out.contains("\"logical_cores\""));
        for retired in ["shard_groups", "shard_threads", "sched"] {
            assert!(
                !out.contains(&format!("\"{retired}\"")),
                "retired knob: {out}"
            );
        }
        assert!(out.contains("\"bench\": \"kept\""));
    }
}
