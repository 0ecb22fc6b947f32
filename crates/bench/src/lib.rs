#![warn(missing_docs)]

//! Experiment harness utilities: table rendering, paper-vs-measured
//! comparison rows, and JSON result persistence.
//!
//! Every table and figure of the paper's evaluation has a binary in
//! `src/bin/` (see `DESIGN.md` for the index). Binaries print the
//! regenerated rows/series and write machine-readable results under
//! `target/experiments/` which the `report` binary assembles into
//! `EXPERIMENTS.md`.

pub mod plot;

use std::fs;
use std::path::PathBuf;

use serde::Serialize;

/// Handle the `--analyze` flag shared by every experiment binary.
///
/// When `--analyze` is on the command line, run the static invariant
/// checker over the solver output for the paper's evaluation models
/// (prefill sweep + decode, fast sync) *before* the experiment itself,
/// and abort with a non-zero exit status on any deny-level finding.
/// The sweep includes the abstract-interpretation bound certification:
/// static peak footprint and `[lo, hi]` latency bounds per model,
/// gated for soundness against fresh DES runs (`bound-unsound`).
/// Without the flag this is a no-op, so every figure/table binary can
/// call it unconditionally at the top of `main`.
pub fn maybe_analyze() {
    if !std::env::args().skip(1).any(|a| a == "--analyze") {
        return;
    }
    let models = heterollm::ModelConfig::evaluation_models();
    let mut report = hetero_analyze::lint_models(
        &models,
        &hetero_analyze::sweep::DEFAULT_SEQS,
        hetero_soc::sync::SyncMechanism::Fast,
    );
    report.merge(hetero_analyze::bound_lint_models(
        &models,
        300,
        4,
        hetero_analyze::DEFAULT_POOL_BYTES,
    ));
    for d in &report.findings {
        eprintln!("{d}");
    }
    eprintln!(
        "[analyze] checked {} plans: {} deny, {} warn",
        report.summary.checked, report.summary.deny, report.summary.warn
    );
    if !report.is_clean() {
        eprintln!("[analyze] deny-level findings; aborting experiment");
        std::process::exit(1);
    }
}

/// Handle `--help`/`-h` for an experiment binary: print a uniform
/// usage block and exit **0**.
///
/// Every experiment binary calls this first in `main`, before
/// [`maybe_analyze`] and before its own flag parsing, so `--help`
/// never runs an experiment and never exits non-zero. CI greps the
/// binaries named in `EXPERIMENTS.md` and `--help`-runs each one; a
/// binary whose flags drift from its documentation shows up there
/// (the usage block is the single source of truth both must match).
///
/// `flags` lists `(flag-with-metavar, description)` pairs specific to
/// the binary; the shared `--analyze` and `--help` rows are appended
/// automatically.
pub fn maybe_help(bin: &str, about: &str, flags: &[(&str, &str)]) {
    if !std::env::args().skip(1).any(|a| a == "--help" || a == "-h") {
        return;
    }
    println!("{bin}: {about}\n");
    println!("usage: cargo run --release -p hetero-bench --bin {bin} [--] [FLAGS]\n");
    let shared: &[(&str, &str)] = &[
        (
            "--analyze",
            "run the static invariant checker first; abort on deny findings",
        ),
        ("--help, -h", "print this help and exit"),
    ];
    let width = flags
        .iter()
        .chain(shared)
        .map(|(f, _)| f.len())
        .max()
        .unwrap_or(0);
    for (f, d) in flags.iter().chain(shared) {
        println!("  {f:<width$}  {d}");
    }
    std::process::exit(0);
}

/// Parse one flag's value for an experiment binary, or exit **2**
/// with a uniform `bad value` message.
///
/// Every binary that takes `--seed N` (or any numeric flag) funnels
/// the raw string through here, so `some_bin --seed junk` fails the
/// same way everywhere: one `bin: bad value 'junk' for --seed` line
/// pointing at `--help`, and exit code 2 — never a silent fallback to
/// the default.
pub fn parse_flag<T: std::str::FromStr>(bin: &str, flag: &str, raw: &str) -> T {
    raw.trim()
        .parse()
        .unwrap_or_else(|_| bad_value(bin, flag, raw))
}

/// Parse a raw size flag (`--jobs`, `--devices`, `--requests`) through
/// [`parse_flag`], also rejecting zero with the same `bad value` line.
///
/// Zero workers, devices or requests is a usage error, not a run. The
/// determinism contract (see `PERFORMANCE.md`) is that `--jobs` only
/// changes wall-clock time: output is byte-identical for every
/// accepted value.
pub fn parse_positive(bin: &str, flag: &str, raw: &str) -> usize {
    let v = parse_flag(bin, flag, raw);
    if v == 0 {
        bad_value(bin, flag, raw);
    }
    v
}

fn bad_value(bin: &str, flag: &str, raw: &str) -> ! {
    eprintln!("{bin}: bad value '{raw}' for {flag} (run with --help for usage)");
    std::process::exit(2)
}

/// Unwrap a session result, or print one `bin: engine error: …` line
/// and exit **1**: an engine fault is a failed run, not a usage error.
pub fn or_engine_exit<T>(bin: &str, result: Result<T, heterollm::EngineError>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{bin}: engine error: {e}");
        std::process::exit(1)
    })
}

/// Scan argv for the shared `--jobs N` flag (default 1), for binaries
/// whose remaining argv is handled by [`expect_no_flags`] rather than
/// a flag loop of their own. Bad values exit **2** via [`parse_positive`];
/// a trailing `--jobs` with no value exits **2** too.
pub fn jobs_from_args(bin: &str) -> usize {
    let mut jobs = 1;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        if a == "--jobs" {
            let raw = it.next().unwrap_or_else(|| {
                eprintln!("{bin}: --jobs needs a value");
                eprintln!("run with --help for usage");
                std::process::exit(2)
            });
            jobs = parse_positive(bin, "--jobs", &raw);
        }
    }
    jobs
}

/// Reject stray command-line arguments for binaries that define no
/// flags of their own (exit **2**), keeping argv handling uniform
/// across the suite.
///
/// The shared `--analyze` / `--help` / `-h` flags are allowed (they
/// are consumed by [`maybe_analyze`] / [`maybe_help`], which run
/// first), as is `--jobs N` (read by [`jobs_from_args`] on binaries
/// that run parallelizable sessions). Anything else — including a
/// well-intentioned `--seed` on a binary that is deterministic by
/// construction — is an error, not silently ignored.
pub fn expect_no_flags(bin: &str) {
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        if a == "--jobs" {
            // Value validated by jobs_from_args; skip it here.
            it.next();
            continue;
        }
        if a != "--analyze" && a != "--help" && a != "-h" {
            eprintln!("{bin}: unexpected argument '{a}' (this binary takes no flags of its own)");
            eprintln!("run with --help for usage");
            std::process::exit(2);
        }
    }
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
#[derive(Debug, Clone, Serialize)]
pub struct Claim {
    /// What is being compared.
    pub what: String,
    /// The paper's reported value.
    pub paper: f64,
    /// Our measured value.
    pub measured: f64,
    /// Acceptable |measured/paper - 1| for a ✓.
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

    /// One-line rendering.
    pub fn render(&self) -> String {
        format!(
            "  [{}] {}: paper {:.2}, measured {:.2} ({:+.1}%)",
            if self.holds() { "ok" } else { "--" },
            self.what,
            self.paper,
            self.measured,
            (self.measured / self.paper - 1.0) * 100.0,
        )
    }
}

/// Print a titled claim block.
pub fn print_claims(title: &str, claims: &[Claim]) {
    println!("\n{title}");
    for c in claims {
        println!("{}", c.render());
    }
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
    }

    #[test]
    fn fmt_precision() {
        assert_eq!(fmt(1234.5), "1234"); // round-half-to-even
        assert_eq!(fmt(34.56), "34.6");
        assert_eq!(fmt(3.456), "3.46");
        assert_eq!(fmt(0.0), "0");
    }
}
