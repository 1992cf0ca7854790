//! Plain-text table rendering and CSV output for the experiment scenarios.

/// Renders an aligned text table.
pub fn render(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:>width$}", cell, width = widths[i]));
        }
        line
    };
    let hdr: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&hdr, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// The column names of a CSV header line.
pub fn columns(header_line: &str) -> Vec<&str> {
    header_line.split(',').collect()
}

/// Renders a CSV document: a header line, then one line per row.
pub fn csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = headers.join(",");
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

/// Formats a float with 3 decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a float with 1 decimal.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let t = render(
            &["a", "long-header"],
            &[
                vec!["1".into(), "2".into()],
                vec!["100".into(), "20000000".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        // All rows same width.
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn csv_is_one_line_per_row() {
        let rows = [vec!["1".into(), "x".into()], vec!["2".into(), "y".into()]];
        assert_eq!(csv(&["n", "s"], &rows), "n,s\n1,x\n2,y\n");
    }

    #[test]
    fn floats_format() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f1(10.0), "10.0");
    }

    #[test]
    fn render_right_aligns_under_a_ruled_header() {
        let t = render(&["id", "ms"], &[vec!["7".into(), "0.350".into()]]);
        assert_eq!(t, "id     ms\n---------\n 7  0.350\n");
    }

    #[test]
    fn columns_split_a_csv_header_line() {
        let doc = csv(&["backend", "p50_ms", "p99_ms"], &[]);
        let header = doc.lines().next().unwrap();
        assert_eq!(columns(header), ["backend", "p50_ms", "p99_ms"]);
    }
}
