//! The paper's findings as one table, [`CLAIMS`]: per row its figure, the
//! paper's value, the load curves it reads, a [`Measure`] over them, the
//! inequality the measure must clear by [`MARGIN`], and whether it holds
//! here. A paper scenario prints its rows, `all` writes them all to
//! `results/claims.csv`, and a tier-1 test fails on an unexpected verdict.
//!
//! Every curve runs at one fixed geometry, not at `CONTRARIAN_SCALE`: 8
//! partitions of 100 K keys, [`LOAD_POINTS`], 50 ms measured windows,
//! seed 42, and CC-LO's reader GC window cut to 100 ms so that the 120 ms
//! warmup outlasts it (before that a CC-LO server has not filled its old
//! readers, and its peak reads high).

use crate::experiment::{line_curve, Knob, Line, Protocol, Report, Scale, Series};
use crate::table;
use contrarian_cclo::stats;
use contrarian_types::ClusterConfig;

/// Closed-loop clients per DC of every curve's points.
pub const LOAD_POINTS: [u16; 3] = [8, 48, 128];

/// How far past its bound a measure must land. Across seeds 1–4 and 42
/// at this geometry, a Contrarian / CC-LO peak ratio moved by up to ±3 %
/// about its mean, and a ratio of two such ratios by up to ±2 %.
pub const MARGIN: f64 = 0.05;

/// The cluster every curve runs on, with the curve's DC count.
pub fn geometry() -> ClusterConfig {
    ClusterConfig {
        keys_per_partition: 100_000,
        old_reader_gc_us: 100_000,
        ..ClusterConfig::paper_default().with_partitions(8)
    }
}

/// A statistic of one curve.
type Stat = fn(&Series) -> f64;
const PEAK: Stat = Series::peak_throughput;
const LOW_ROT: Stat = Series::low_load_rot_ms;

/// What a claim measures over its curves, in the order its row lists them.
#[derive(Clone, Copy, Debug)]
pub enum Measure {
    /// `a / b` over curves `[a, b]`.
    Ratio(Stat),
    /// `(a / b) / (c / d)` over `[a, b, c, d]`: how far a ratio moves.
    Change(Stat),
    /// The throughput past which `a`'s average ROT latency, interpolated
    /// along its curve, is below `b`'s (`b`'s peak if it never is), as a
    /// fraction of `a`'s peak.
    Crossover,
    /// The log–log slope of CC-LO's distinct ids per readers check against
    /// the client count, first point to last: 1 is linear.
    IdsSlope,
    /// Requests a server parked, over every point of every curve. At one
    /// DC only a clock wait parks one; at two, CC-LO also parks each
    /// replicated PUT until its dependencies have arrived.
    Blocked,
}

impl Measure {
    fn of(self, s: &[&Series]) -> f64 {
        let ratio = |stat: Stat, a, b| stat(a) / stat(b);
        match self {
            Measure::Ratio(stat) => ratio(stat, s[0], s[1]),
            Measure::Change(stat) => ratio(stat, s[0], s[1]) / ratio(stat, s[2], s[3]),
            Measure::Crossover => {
                let lat_a = |x: f64| {
                    s[0].points.windows(2).find_map(|w| {
                        let (ta, tb) = (w[0].throughput_kops(), w[1].throughput_kops());
                        let f = (x - ta) / (tb - ta).max(1e-9);
                        let (la, lb) = (w[0].avg_rot_ms, w[1].avg_rot_ms);
                        (ta <= x && x <= tb).then_some(la + f * (lb - la))
                    })
                };
                let cross = s[1].points.windows(2).find_map(|w| {
                    let x = w[1].throughput_kops();
                    (lat_a(x)? < w[1].avg_rot_ms).then_some(x)
                });
                cross.unwrap_or_else(|| s[1].peak_throughput()) / s[0].peak_throughput()
            }
            Measure::IdsSlope => {
                let ids = |r: &Report| {
                    r.counter(stats::CHECK_IDS_DISTINCT) as f64 / r.counter(stats::CHECKS) as f64
                };
                let (first, last) = (&s[0].points[0], &s[0].points[s[0].points.len() - 1]);
                let clients = f64::from(last.clients_per_dc) / f64::from(first.clients_per_dc);
                (ids(last) / ids(first)).ln() / clients.ln()
            }
            Measure::Blocked => s
                .iter()
                .flat_map(|c| &c.points)
                .map(|r| r.blocked_ops as f64)
                .sum(),
        }
    }
}

/// The inequality a claim's measure must satisfy, past [`MARGIN`].
#[derive(Clone, Copy, Debug)]
pub enum Ineq {
    Above(f64),
    Below(f64),
}

/// Whether a claim holds at this geometry today. A `Differs` row is a
/// finding: the reproduction does not show what the paper reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    Holds,
    Differs,
}

/// One finding of the paper.
pub struct Claim {
    pub id: &'static str,
    /// The paper scenario that prints it (`fig5`).
    pub figure: &'static str,
    /// What the paper reports.
    pub paper: &'static str,
    pub measure: Measure,
    pub lines: &'static [Line],
    pub holds_if: Ineq,
    pub expect: Expect,
}

impl Claim {
    /// `holds` or `differs` at `measured`, flagged `CHANGED` when it is
    /// not the expected verdict.
    pub fn verdict(&self, measured: f64) -> String {
        let holds = match self.holds_if {
            Ineq::Above(bound) => measured >= bound + MARGIN,
            Ineq::Below(bound) => measured <= bound - MARGIN,
        };
        let verdict = if holds { "holds" } else { "differs" };
        let expected = holds == (self.expect == Expect::Holds);
        format!("{verdict}{}", if expected { "" } else { " CHANGED" })
    }
}

use Expect::{Differs, Holds};
use Ineq::{Above, Below};
use Knob::{RotSize, ValueSize, Write, Zipf};
use Measure::{Blocked, Change, Crossover, IdsSlope, Ratio};
use Protocol::{CcLo, Contrarian, ContrarianTwoRound, Cure, Okapi};
const C1: Line = (Contrarian, 1, Knob::Default);
const L1: Line = (CcLo, 1, Knob::Default);
const C2: Line = (Contrarian, 2, Knob::Default);
const L2: Line = (CcLo, 2, Knob::Default);
const TWO_ROUND: Line = (ContrarianTwoRound, 2, Knob::Default);

/// The paper's findings, in the order of its scenarios.
#[rustfmt::skip] // one claim per line, as a table
pub const CLAIMS: &[Claim] = &[
    Claim { figure: "table2", id: "cure_blocks", paper: "Cure blocks on skew", measure: Blocked, lines: &[(Cure, 1, Knob::Default)], holds_if: Above(0.0), expect: Holds },
    Claim { figure: "table2", id: "others_never_block", paper: "nonblocking", measure: Blocked, lines: &[C1, L1, (Okapi, 1, Knob::Default)], holds_if: Below(1.0), expect: Holds },
    Claim { figure: "fig4", id: "rounds_low_rot", paper: "0.45 / 0.35 ms", measure: Ratio(LOW_ROT), lines: &[TWO_ROUND, C2], holds_if: Above(1.0), expect: Holds },
    Claim { figure: "fig4", id: "cure_low_rot", paper: "~1.0 / 0.35 ms", measure: Ratio(LOW_ROT), lines: &[(Cure, 2, Knob::Default), C2], holds_if: Above(2.0), expect: Holds },
    Claim { figure: "fig4", id: "rounds_peak", paper: "1.08x", measure: Ratio(PEAK), lines: &[TWO_ROUND, C2], holds_if: Above(1.0), expect: Differs },
    Claim { figure: "fig5", id: "cclo_low_rot", paper: "0.35 / 0.30 ms", measure: Ratio(LOW_ROT), lines: &[C1, L1], holds_if: Above(1.0), expect: Holds },
    Claim { figure: "fig5", id: "peak_1dc", paper: "1.45x", measure: Ratio(PEAK), lines: &[C1, L1], holds_if: Above(1.0), expect: Holds },
    Claim { figure: "fig5", id: "peak_2dc", paper: "1.6x", measure: Ratio(PEAK), lines: &[C2, L2], holds_if: Above(1.0), expect: Holds },
    Claim { figure: "fig5", id: "scaling", paper: "1.9x / 1.6x", measure: Change(PEAK), lines: &[C2, C1, L2, L1], holds_if: Above(1.0), expect: Holds },
    Claim { figure: "fig5", id: "crossover", paper: "~0.25", measure: Crossover, lines: &[C1, L1], holds_if: Below(1.0), expect: Holds },
    Claim { figure: "fig6", id: "ids_linear", paper: "~252 ids at 256 clients", measure: IdsSlope, lines: &[L1], holds_if: Above(0.75), expect: Holds },
    Claim { figure: "fig7", id: "peak_ratio_w", paper: "0.9x at w=0.01 to 2.35x", measure: Change(PEAK), lines: &[(Contrarian, 1, Write(0.1)), (CcLo, 1, Write(0.1)), (Contrarian, 1, Write(0.01)), (CcLo, 1, Write(0.01))], holds_if: Above(1.0), expect: Holds },
    Claim { figure: "fig8", id: "skew_hurts_cclo", paper: "skew hurts only CC-LO", measure: Change(PEAK), lines: &[C1, L1, (Contrarian, 1, Zipf(0.0)), (CcLo, 1, Zipf(0.0))], holds_if: Above(1.0), expect: Holds },
    Claim { figure: "fig9", id: "low_rot_edge_p", paper: "shrinks with p", measure: Change(LOW_ROT), lines: &[C1, L1, (Contrarian, 1, RotSize(8)), (CcLo, 1, RotSize(8))], holds_if: Above(1.0), expect: Holds },
    Claim { figure: "fig9", id: "peak_ratio_p", paper: "1.45x at p=4; shrinks", measure: Change(PEAK), lines: &[C1, L1, (Contrarian, 1, RotSize(8)), (CcLo, 1, RotSize(8))], holds_if: Above(1.0), expect: Differs },
    Claim { figure: "value_size", id: "peak_ratio_b", paper: "1.45x to 1.43x", measure: Change(PEAK), lines: &[C1, L1, (Contrarian, 1, ValueSize(2048)), (CcLo, 1, ValueSize(2048))], holds_if: Above(1.0), expect: Differs },
];

/// The curves claims read, each run once at the claims geometry.
#[derive(Default)]
pub struct Curves(pub Vec<(Line, Series)>);

impl Curves {
    /// The curve of `line`, if it was run.
    pub fn get(&self, line: &Line) -> Option<&Series> {
        self.0.iter().find(|(l, _)| l == line).map(|(_, s)| s)
    }
}

/// Measures `claims`, first running the curves they read that `curves`
/// lacks, one share of them per core.
pub fn evaluate<'a>(
    claims: impl IntoIterator<Item = &'a Claim>,
    curves: &mut Curves,
) -> Vec<(&'a Claim, f64)> {
    let claims: Vec<&Claim> = claims.into_iter().collect();
    let mut missing: Vec<Line> = Vec::new();
    for &l in claims.iter().flat_map(|c| c.lines) {
        if !missing.contains(&l) && curves.get(&l).is_none() {
            missing.push(l);
        }
    }
    let scale = Scale {
        warmup_ns: 120_000_000,
        measure_ns: 50_000_000,
        load_points: LOAD_POINTS.to_vec(),
        fig6_points: Vec::new(),
    };
    let curve = |&l: &Line| (l, line_curve(l.0.label(), l, true, &geometry(), &scale));
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let share = missing.len().div_ceil(cores).max(1);
    std::thread::scope(|s| {
        let workers: Vec<_> = missing
            .chunks(share)
            .map(|part| s.spawn(move || part.iter().map(curve).collect::<Vec<_>>()))
            .collect();
        for w in workers {
            curves.0.extend(w.join().expect("a claims curve panicked"));
        }
    });
    let measure = |c: &Claim| {
        let series: Vec<&Series> = c
            .lines
            .iter()
            .map(|l| curves.get(l).expect("run"))
            .collect();
        c.measure.of(&series)
    };
    claims.into_iter().map(|c| (c, measure(c))).collect()
}

/// The CSV header line of [`rows`].
pub const HEADERS: &str = "id,figure,paper,measured,holds if,margin,verdict";

/// One table row per measured claim.
pub fn rows(measured: &[(&Claim, f64)]) -> Vec<Vec<String>> {
    let row = |&(c, m): &(&Claim, f64)| {
        let (holds_if, margin) = (format!("{:?}", c.holds_if), MARGIN.to_string());
        let cells = [c.id.into(), c.figure.into(), c.paper.into(), table::f3(m)];
        cells
            .into_iter()
            .chain([holds_if, margin, c.verdict(m)])
            .collect()
    };
    measured.iter().map(row).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunSpec;
    use contrarian_runtime::metrics::Metrics;

    /// Every claim of the paper, measured: a row whose verdict is not the
    /// one it expects is a regression, or a finding to record.
    #[test]
    fn every_claim_has_its_expected_verdict() {
        let measured = evaluate(CLAIMS, &mut Curves::default());
        let rows = rows(&measured);
        assert!(
            rows.iter().all(|r| !r[6].ends_with("CHANGED")),
            "a claim changed verdict:\n{}",
            table::render(&table::columns(HEADERS), &rows)
        );
    }

    #[test]
    fn claim_ids_are_unique_and_each_row_lists_the_curves_its_measure_reads() {
        for (i, c) in CLAIMS.iter().enumerate() {
            assert!(CLAIMS[..i].iter().all(|o| o.id != c.id), "{}", c.id);
            let curves = match c.measure {
                Measure::Ratio(_) | Measure::Crossover => 2..=2,
                Measure::Change(_) => 4..=4,
                Measure::IdsSlope => 1..=1,
                Measure::Blocked => 1..=usize::MAX,
            };
            assert!(curves.contains(&c.lines.len()), "{}", c.id);
        }
    }

    /// Two one-point curves, `C1` and `L1`, peaking at `a` and `b` Kops/s.
    fn peaks(a: f64, b: f64) -> Curves {
        let curve = |kops: f64| Series {
            name: String::new(),
            points: vec![Report {
                achieved_ops_per_sec: kops * 1e3,
                ..RunSpec::functional(Contrarian).report(&Metrics::new())
            }],
        };
        Curves(vec![(C1, curve(a)), (L1, curve(b))])
    }

    const PEAK_RATIO: Claim = Claim {
        id: "peak",
        figure: "fig5",
        paper: "",
        measure: Ratio(PEAK),
        lines: &[C1, L1],
        holds_if: Above(1.0),
        expect: Holds,
    };

    #[test]
    fn a_ratio_exactly_at_its_margin_holds() {
        let [(c, m)] = evaluate([&PEAK_RATIO], &mut peaks(105.0, 100.0))[..] else {
            unreachable!()
        };
        assert_eq!(m, 1.0 + MARGIN);
        assert_eq!(c.verdict(m), "holds");
    }

    #[test]
    fn a_ratio_just_past_its_margin_differs() {
        let [(c, m)] = evaluate([&PEAK_RATIO], &mut peaks(104.99, 100.0))[..] else {
            unreachable!()
        };
        assert_eq!(c.verdict(m), "differs CHANGED");
        let below = Claim {
            holds_if: Below(1.0),
            ..PEAK_RATIO
        };
        assert_eq!(below.verdict(1.0 - MARGIN), "holds");
        assert_eq!(below.verdict(0.9501), "differs CHANGED");
    }

    #[test]
    fn a_differs_row_that_starts_to_hold_reports_the_change() {
        let finding = Claim {
            expect: Differs,
            ..PEAK_RATIO
        };
        let measured = evaluate([&finding], &mut peaks(100.0, 100.0));
        assert_eq!(rows(&measured)[0][6], "differs");
        let measured = evaluate([&finding], &mut peaks(130.0, 100.0));
        let row = &rows(&measured)[0];
        assert_eq!(row.len(), table::columns(HEADERS).len());
        assert_eq!(row[6], "holds CHANGED");
    }
}
