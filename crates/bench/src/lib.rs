//! The benchmark harness behind the one `repro` command: the paper's
//! tables, figures and studies ([`paper`]), the static plan audit
//! ([`audit`]) and the runtime profile ([`profile`]), parsed by [`cli`],
//! plus the table and distribution printers they share. `EXPERIMENTS.md`
//! at the workspace root indexes the outputs.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod audit;
pub mod cli;
pub mod paper;
pub mod profile;

/// What an entry or command returns.
pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Simple fixed-width table printer for terminal reports.
#[derive(Debug, Default)]
pub struct TablePrinter {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TablePrinter {
    /// Creates a printer with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TablePrinter {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (cells are preformatted strings).
    pub fn row(&mut self, cells: &[String]) {
        self.rows.push(cells.to_vec());
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                let w = widths.get(i).copied().unwrap_or(0);
                line.push_str(&format!("{c:<w$}"));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Summary statistics of a runtime distribution (for the violin figures).
#[derive(Debug, Clone, Copy)]
pub struct Distribution {
    /// Minimum (best) time.
    pub best: f64,
    /// Maximum (worst) time.
    pub worst: f64,
    /// Median.
    pub median: f64,
    /// 10th percentile.
    pub p10: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Number of samples.
    pub n: usize,
}

impl Distribution {
    /// Summarizes a sample of times.
    ///
    /// # Panics
    ///
    /// Panics if `times` is empty.
    pub fn from_times(times: &[f64]) -> Self {
        assert!(!times.is_empty(), "empty distribution");
        let mut sorted = times.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let q = |p: f64| sorted[((sorted.len() - 1) as f64 * p).round() as usize];
        Distribution {
            best: sorted[0],
            worst: *sorted.last().expect("non-empty"),
            median: q(0.5),
            p10: q(0.1),
            p90: q(0.9),
            n: sorted.len(),
        }
    }

    /// A tiny ASCII sparkline of the distribution over log-spaced bins,
    /// standing in for the paper's violin plots.
    pub fn sparkline(&self, times: &[f64], bins: usize) -> String {
        let glyphs = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        if self.worst <= self.best {
            return "█".repeat(bins);
        }
        let lo = self.best.ln();
        let hi = self.worst.ln();
        let mut counts = vec![0usize; bins];
        for &t in times {
            let f = ((t.ln() - lo) / (hi - lo)).clamp(0.0, 1.0);
            let b = ((f * bins as f64) as usize).min(bins - 1);
            counts[b] += 1;
        }
        let max = *counts.iter().max().expect("bins > 0") as f64;
        counts
            .iter()
            .map(|&c| {
                let level = ((c as f64 / max) * 8.0).round() as usize;
                glyphs[level.min(8)]
            })
            .collect()
    }
}

/// `s` as a JSON string literal, for the hand-rolled `BENCH_*.json`
/// emitters.
fn jstr(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TablePrinter::new(&["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["long-name".into(), "2".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[3].starts_with("long-name"));
    }

    #[test]
    fn distribution_stats() {
        let times: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let d = Distribution::from_times(&times);
        assert_eq!(d.best, 1.0);
        assert_eq!(d.worst, 100.0);
        assert!(d.median >= 49.0 && d.median <= 52.0);
        assert_eq!(d.n, 100);
        let spark = d.sparkline(&times, 10);
        assert_eq!(spark.chars().count(), 10);
    }
}
