#![warn(missing_docs)]

//! Experiment harness utilities: table rendering, paper-vs-measured
//! comparison rows, and JSON result persistence.
//!
//! Every table and figure of the paper's evaluation has a binary in
//! `src/bin/` (see `DESIGN.md` for the index). Binaries print the
//! regenerated rows/series and write machine-readable results under
//! `target/experiments/`. The paper claims they check are saved there
//! too, and the `report` binary assembles them into the headline table
//! of `EXPERIMENTS.md`. Each binary declares its flags once, as a
//! [`cli`] table.

pub mod cli;
pub mod plot;

use std::fs;
use std::path::PathBuf;

use serde::{Deserialize, Serialize};

/// Unwrap a session result, or print one `bin: engine error: …` line
/// and exit **1**: an engine fault is a failed run, not a usage error.
pub fn or_engine_exit<T>(bin: &str, result: Result<T, heterollm::EngineError>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{bin}: engine error: {e}");
        std::process::exit(1)
    })
}

/// A simple aligned text table.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Render as a GitHub-flavored markdown table.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!("|{}\n", "---|".repeat(self.headers.len())));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }
}

/// A paper-claim check: the measured value against the paper's value
/// with a qualitative tolerance.
///
/// The binary that measures a claim is the one place its paper value
/// and tolerance are written: [`print_claims`] saves them, and `report`
/// only renders what was saved.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Claim {
    /// What is being compared.
    pub what: String,
    /// The paper's reported value.
    pub paper: f64,
    /// Our measured value.
    pub measured: f64,
    /// Acceptable |measured/paper - 1| for a ✓. Unused when the paper
    /// value is zero: the measured value must then be zero too.
    pub rel_tol: f64,
}

impl Claim {
    /// Whether the measured value falls within tolerance.
    pub fn holds(&self) -> bool {
        if self.paper == 0.0 {
            return self.measured == 0.0;
        }
        (self.measured / self.paper - 1.0).abs() <= self.rel_tol
    }

    /// One-line rendering; a zero paper value has no relative error
    /// to show.
    pub fn render(&self) -> String {
        let line = format!(
            "  [{}] {}: paper {:.2}, measured {:.2}",
            if self.holds() { "ok" } else { "--" },
            self.what,
            self.paper,
            self.measured,
        );
        if self.paper == 0.0 {
            return line;
        }
        format!(
            "{line} ({:+.1}%)",
            (self.measured / self.paper - 1.0) * 100.0
        )
    }
}

/// Print a titled claim block and save the claims as
/// `target/experiments/<bin>.claims.json` ([`claims_path`]), the record
/// `report` assembles into `EXPERIMENTS.md`.
pub fn print_claims(bin: &str, title: &str, claims: &[Claim]) {
    println!("\n{title}");
    for c in claims {
        println!("{}", c.render());
    }
    let json = serde_json::to_string_pretty(claims).expect("serialize claims");
    fs::write(claims_path(bin), json).expect("write claims json");
}

/// Where [`print_claims`] saves the claims of experiment binary `bin`.
pub fn claims_path(bin: &str) -> PathBuf {
    experiments_dir().join(format!("{bin}.claims.json"))
}

/// Directory for machine-readable experiment results.
pub fn experiments_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    fs::create_dir_all(&dir).expect("create experiments dir");
    dir
}

/// Persist a serializable result set under `target/experiments/`.
pub fn save_json<T: Serialize>(name: &str, value: &T) {
    let path = experiments_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize experiment");
    fs::write(&path, json).expect("write experiment json");
    println!("\n[saved {}]", path.display());
}

/// Format a float with sensible precision for tables.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["longer".into(), "22".into()]);
        let r = t.render();
        assert!(r.contains("name"));
        assert!(r.lines().count() == 4);
        let md = t.render_markdown();
        assert!(md.starts_with("| name | value |"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_checks_width() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn claim_tolerance() {
        let c = Claim {
            what: "x".into(),
            paper: 100.0,
            measured: 108.0,
            rel_tol: 0.10,
        };
        assert!(c.holds());
        let c2 = Claim {
            what: "x".into(),
            paper: 100.0,
            measured: 130.0,
            rel_tol: 0.10,
        };
        assert!(!c2.holds());
        let collapse = Claim {
            what: "x".into(),
            paper: 0.0,
            measured: 0.0,
            rel_tol: 0.0,
        };
        assert!(collapse.holds());
        assert_eq!(collapse.render(), "  [ok] x: paper 0.00, measured 0.00");
        let c3 = Claim {
            measured: 0.01,
            ..collapse
        };
        assert!(!c3.holds());
    }

    #[test]
    fn claims_read_back_as_written() {
        let c = Claim {
            what: "ratio (paper 1.234x)".into(),
            paper: 1.234,
            measured: 0.1 + 0.2,
            rel_tol: 0.15,
        };
        let text = serde_json::to_string_pretty(&[c.clone()][..]).unwrap();
        let back: Vec<Claim> = serde_json::from_str(&text).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].render(), c.render());
        assert_eq!(back[0].measured.to_bits(), c.measured.to_bits());
    }

    #[test]
    fn fmt_precision() {
        assert_eq!(fmt(1234.5), "1234"); // round-half-to-even
        assert_eq!(fmt(34.56), "34.6");
        assert_eq!(fmt(3.456), "3.46");
        assert_eq!(fmt(0.0), "0");
    }
}
