//! Periodic time-series snapshots of [`Metrics`].
//!
//! A [`MetricsWindow`] is the delta between two snapshots of a run's
//! metrics: counter differences plus *interval* histograms
//! ([`crate::metrics::Histogram::diff`]), so each window carries its own
//! p50/p99 instead of a from-the-start cumulative blur. The
//! [`WindowSeries`] helper owns the previous snapshot and accumulates
//! windows as the harness calls [`WindowSeries::snap`] at its natural
//! barriers (the load drivers' run slices, a wall-clock sampling loop);
//! the result exports as CSV rows (for `results/`) or a JSON array.

use crate::metrics::{Histogram, Metrics};
use std::fmt::Write as _;

/// One window's worth of measurement: `[t_start_ns, t_end_ns)` deltas.
#[derive(Clone, Debug)]
pub struct MetricsWindow {
    pub t_start_ns: u64,
    pub t_end_ns: u64,
    pub rots_done: u64,
    pub puts_done: u64,
    pub msgs: u64,
    pub bytes: u64,
    pub busy_ns: u64,
    /// Interval latency/gauge histograms (see [`Metrics`] field docs).
    pub rot_latency: Histogram,
    pub put_latency: Histogram,
    pub vis_staleness: Histogram,
    pub data_staleness: Histogram,
    pub gss_lag: Histogram,
    pub block_ns: Histogram,
}

impl MetricsWindow {
    /// The delta from `prev` (an earlier clone of the same run's metrics)
    /// to `cur`, spanning `[t_start_ns, t_end_ns)`.
    pub fn delta(prev: &Metrics, cur: &Metrics, t_start_ns: u64, t_end_ns: u64) -> Self {
        MetricsWindow {
            t_start_ns,
            t_end_ns,
            rots_done: cur.rots_done - prev.rots_done,
            puts_done: cur.puts_done - prev.puts_done,
            msgs: cur.msgs - prev.msgs,
            bytes: cur.bytes - prev.bytes,
            busy_ns: cur.busy_ns - prev.busy_ns,
            rot_latency: cur.rot_latency.diff(&prev.rot_latency),
            put_latency: cur.put_latency.diff(&prev.put_latency),
            vis_staleness: cur.vis_staleness.diff(&prev.vis_staleness),
            data_staleness: cur.data_staleness.diff(&prev.data_staleness),
            gss_lag: cur.gss_lag.diff(&prev.gss_lag),
            block_ns: cur.block_ns.diff(&prev.block_ns),
        }
    }

    pub fn window_ns(&self) -> u64 {
        self.t_end_ns - self.t_start_ns
    }

    /// Completions per second within the window.
    pub fn achieved_ops_per_sec(&self) -> f64 {
        let secs = self.window_ns() as f64 / 1e9;
        if secs > 0.0 {
            (self.rots_done + self.puts_done) as f64 / secs
        } else {
            0.0
        }
    }

    /// Aggregate busy cores within the window (divide by server count
    /// for per-node utilization).
    pub fn utilization(&self) -> f64 {
        let w = self.window_ns();
        if w > 0 {
            self.busy_ns as f64 / w as f64
        } else {
            0.0
        }
    }

    /// Column names matching [`MetricsWindow::csv_row`], in order.
    pub const CSV_HEADERS: [&'static str; 16] = [
        "t_start_ms",
        "t_end_ms",
        "ops",
        "achieved_ops_s",
        "p50_ms",
        "p99_ms",
        "msgs",
        "bytes",
        "utilization",
        "vis_p50_ms",
        "vis_p99_ms",
        "data_p50_ms",
        "data_p99_ms",
        "gss_lag_p99",
        "block_p50_ms",
        "block_p99_ms",
    ];

    pub fn csv_row(&self) -> Vec<String> {
        let mut all = self.rot_latency.clone();
        all.merge(&self.put_latency);
        let ms = |v: u64| format!("{:.3}", v as f64 / 1e6);
        vec![
            format!("{:.3}", self.t_start_ns as f64 / 1e6),
            format!("{:.3}", self.t_end_ns as f64 / 1e6),
            (self.rots_done + self.puts_done).to_string(),
            format!("{:.0}", self.achieved_ops_per_sec()),
            ms(all.percentile(50.0)),
            ms(all.percentile(99.0)),
            self.msgs.to_string(),
            self.bytes.to_string(),
            format!("{:.4}", self.utilization()),
            ms(self.vis_staleness.percentile(50.0)),
            ms(self.vis_staleness.percentile(99.0)),
            ms(self.data_staleness.percentile(50.0)),
            ms(self.data_staleness.percentile(99.0)),
            self.gss_lag.percentile(99.0).to_string(),
            ms(self.block_ns.percentile(50.0)),
            ms(self.block_ns.percentile(99.0)),
        ]
    }
}

/// Accumulates windows over a run: clone-snapshot the metrics at every
/// barrier and the series computes the deltas.
#[derive(Debug, Default)]
pub struct WindowSeries {
    prev: Option<(Metrics, u64)>,
    windows: Vec<MetricsWindow>,
}

impl WindowSeries {
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the series origin without emitting a window (call once when
    /// measurement starts, e.g. right after warmup).
    pub fn origin(&mut self, m: &Metrics, now_ns: u64) {
        self.prev = Some((m.clone(), now_ns));
    }

    /// Closes the current window at `now_ns` against the run-cumulative
    /// `m`. The first call without a prior [`WindowSeries::origin`] only
    /// sets the origin.
    pub fn snap(&mut self, m: &Metrics, now_ns: u64) {
        match self.prev.take() {
            Some((prev, t0)) if now_ns > t0 => {
                self.windows
                    .push(MetricsWindow::delta(&prev, m, t0, now_ns));
            }
            Some(_) | None => {}
        }
        self.prev = Some((m.clone(), now_ns));
    }

    pub fn windows(&self) -> &[MetricsWindow] {
        &self.windows
    }

    /// Heap bytes: the kept origin's metrics, the window vector and each
    /// window's six histograms.
    pub fn heap_bytes(&self) -> usize {
        let window = |w: &MetricsWindow| {
            [
                &w.rot_latency,
                &w.put_latency,
                &w.vis_staleness,
                &w.data_staleness,
                &w.gss_lag,
                &w.block_ns,
            ]
            .iter()
            .map(|h| h.heap_bytes())
            .sum::<usize>()
        };
        self.prev.as_ref().map_or(0, |(m, _)| m.heap_bytes())
            + contrarian_types::heap::vec_bytes(&self.windows)
            + self.windows.iter().map(window).sum::<usize>()
    }

    /// The whole series as CSV rows (headers in
    /// [`MetricsWindow::CSV_HEADERS`]).
    pub fn csv_rows(&self) -> Vec<Vec<String>> {
        self.windows.iter().map(|w| w.csv_row()).collect()
    }

    /// The whole series as a JSON array of per-window objects using the
    /// CSV column names as keys.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, w) in self.windows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n{");
            for (j, (k, v)) in MetricsWindow::CSV_HEADERS
                .iter()
                .zip(w.csv_row().iter())
                .enumerate()
            {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{k}\":{v}");
            }
            out.push('}');
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_carry_interval_deltas_not_cumulative_totals() {
        let mut m = Metrics::new();
        m.enabled = true;
        let mut s = WindowSeries::new();
        s.origin(&m, 0);

        m.rot_done(1_000_000);
        m.rot_done(1_000_000);
        m.busy_ns = 500_000;
        s.snap(&m, 1_000_000_000);

        m.put_done(50_000_000);
        m.busy_ns = 600_000;
        s.snap(&m, 2_000_000_000);

        let w = s.windows();
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].rots_done, 2);
        assert_eq!(w[0].puts_done, 0);
        assert_eq!(w[1].rots_done, 0, "second window excludes the first's ops");
        assert_eq!(w[1].puts_done, 1);
        assert_eq!(w[1].busy_ns, 100_000);
        assert!((w[0].achieved_ops_per_sec() - 2.0).abs() < 1e-9);
        // The second window's latency distribution is the PUT alone.
        assert_eq!(w[1].put_latency.count(), 1);
        assert_eq!(w[1].rot_latency.count(), 0);
    }

    #[test]
    fn snap_without_origin_only_arms() {
        let m = Metrics::new();
        let mut s = WindowSeries::new();
        s.snap(&m, 5);
        assert!(s.windows().is_empty());
        s.snap(&m, 10);
        assert_eq!(s.windows().len(), 1);
    }

    #[test]
    fn csv_and_json_shapes_agree() {
        let mut m = Metrics::new();
        m.enabled = true;
        let mut s = WindowSeries::new();
        s.origin(&m, 0);
        m.rot_done(2_000_000);
        m.vis_stale(1_000_000);
        s.snap(&m, 1_000_000_000);
        let rows = s.csv_rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].len(), MetricsWindow::CSV_HEADERS.len());
        let json = s.to_json();
        assert!(json.contains("\"achieved_ops_s\":1"));
        assert!(json.contains("\"vis_p50_ms\":"));
        assert_eq!(json.matches('{').count(), 1);
    }
}
