//! `--compare A.json B.json`: every end-to-end metric x workload of two
//! full reports, judged against the metric's bound (the table in
//! `metrics.rs`, which a unit test holds equal to `BENCHMARK.json`).

use crate::json::Json;
use crate::metrics::{Better, END_TO_END};
use crate::workloads::WORKLOADS;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Improved,
    Unchanged,
    Worse,
    /// The run-to-run spread is wider than the bound: neither "unchanged"
    /// nor a change can be claimed.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` against `a`. `spread` is the larger of the two sides' own
/// noise estimates, as a share of the value. A change counts only when it
/// exceeds both the bound and the noise; otherwise noise wider than the
/// bound leaves the pair unresolved.
pub fn verdict(a: f64, b: f64, better: Better, bound: f64, spread: f64) -> Verdict {
    if a == b {
        return Verdict::Unchanged;
    }
    // Relative change, positive when `b` is worse than `a`.
    let worse_by = match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    };
    if worse_by > bound && worse_by > spread {
        Verdict::Worse
    } else if -worse_by > bound && -worse_by > spread {
        Verdict::Improved
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

fn metric<'a>(report: &'a Json, workload: &str, name: &str) -> Option<&'a Json> {
    report
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(name)
}

/// Prints one line per metric x workload. Returns the number of `worse`.
pub fn compare(a: &Json, b: &Json) -> usize {
    let mut worse = 0;
    println!(
        "{:<22} {:<14} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "bound", "spread"
    );
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (Some(ja), Some(jb)) = (metric(a, w.name, m.name), metric(b, w.name, m.name))
            else {
                println!("{:<22} {:<14} missing in a report", w.name, m.name);
                continue;
            };
            let num = |j: &Json, k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            let (va, vb) = (num(ja, "value"), num(jb, "value"));
            let spread = num(ja, "spread").max(num(jb, "spread"));
            let v = verdict(va, vb, m.better, m.bound, spread);
            worse += usize::from(v == Verdict::Worse);
            println!(
                "{:<22} {:<14} {:>14.6} {:>14.6} {:>+7.1}% {:>6.0}% {:>6.1}%  {}",
                w.name,
                m.name,
                va,
                vb,
                (vb - va) / va.abs() * 100.0,
                m.bound * 100.0,
                spread * 100.0,
                v.name()
            );
        }
    }
    worse
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn changes_inside_the_bound_are_unchanged() {
        assert_eq!(
            verdict(100.0, 104.0, Better::Lower, 0.05, 0.01),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(100.0, 96.0, Better::Lower, 0.05, 0.01),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(7.0, 7.0, Better::Higher, 0.01, 0.5),
            Verdict::Unchanged
        );
    }

    #[test]
    fn direction_decides_which_way_is_worse() {
        assert_eq!(
            verdict(100.0, 120.0, Better::Lower, 0.1, 0.0),
            Verdict::Worse
        );
        assert_eq!(
            verdict(100.0, 120.0, Better::Higher, 0.1, 0.0),
            Verdict::Improved
        );
        assert_eq!(
            verdict(100.0, 80.0, Better::Lower, 0.1, 0.0),
            Verdict::Improved
        );
        assert_eq!(
            verdict(100.0, 80.0, Better::Higher, 0.1, 0.0),
            Verdict::Worse
        );
    }

    #[test]
    fn noise_wider_than_the_bound_is_unresolved_unless_the_change_clears_it() {
        // 8 % worse, bound 5 %, but the runs themselves spread 12 %.
        assert_eq!(
            verdict(100.0, 108.0, Better::Lower, 0.05, 0.12),
            Verdict::Unresolved
        );
        // No visible change either way: still cannot call it unchanged.
        assert_eq!(
            verdict(100.0, 101.0, Better::Lower, 0.05, 0.12),
            Verdict::Unresolved
        );
        // 40 % worse clears both the bound and the noise.
        assert_eq!(
            verdict(100.0, 140.0, Better::Lower, 0.05, 0.12),
            Verdict::Worse
        );
    }

    #[test]
    fn compare_reads_reports_and_counts_worse() {
        let report = |rot: f64| {
            let mut metrics = Json::obj();
            for m in &END_TO_END {
                let mut j = Json::obj();
                let v = if m.name == "rot_p50_ms" { rot } else { 1.0 };
                j.set("value", Json::Num(v)).set("spread", Json::Num(0.0));
                metrics.set(m.name, j);
            }
            let mut workloads = Json::obj();
            for w in &WORKLOADS {
                let mut jw = Json::obj();
                jw.set("end_to_end", metrics.clone());
                workloads.set(w.name, jw);
            }
            let mut r = Json::obj();
            r.set("workloads", workloads);
            r
        };
        assert_eq!(compare(&report(1.0), &report(1.0)), 0);
        // rot_p50_ms doubles on every workload.
        assert_eq!(compare(&report(1.0), &report(2.0)), WORKLOADS.len());
    }
}
