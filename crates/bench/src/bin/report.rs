//! Run every experiment binary and rewrite the headline table of
//! `EXPERIMENTS.md` from the paper claims they record.
//!
//! Each binary that checks the paper saves its claims, paper values and
//! tolerances included, as `target/experiments/<bin>.claims.json`
//! (`hetero_bench::print_claims`). This binary only assembles them: one
//! table row per claim, then the count of claims that hold. It rewrites
//! the block between the `report:begin` and `report:end` marker
//! comments and leaves every other byte of the file as it is.
//!
//! Usage: `cargo run --release -p hetero-bench --bin report`, from
//! inside the workspace it was built from. The claim files and
//! `EXPERIMENTS.md` are found through the compiled-in workspace root,
//! so the binary refuses to run from any other tree. A run that
//! records no claim at all is a failure, not an empty table.

use std::fs;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::process::{exit, Command};

use hetero_bench::{claims_path, Claim, Table};

/// The experiment binaries, in the order their claims are tabled.
#[rustfmt::skip]
const BINS: [&str; 27] = [
    "table1_socs", "table2_frameworks", "fig02_gpu_linear", "fig04_npu_stage",
    "fig05_order_shape", "fig06_bandwidth", "fig09_graph_gen", "fig13_prefill",
    "fig14_misaligned", "fig15_fastsync_prefill", "fig16_decode", "fig17_fastsync_decode",
    "fig18_interference", "fig19_energy", "table2_accuracy", "ablate_strategies",
    "ablate_alignment", "ablate_profiler", "ablate_mempool", "ablate_min_gain",
    "ablate_speculative", "ablate_kv_quant", "ablate_thermal", "compare_socs",
    "ablate_arrivals", "ablate_battery", "ablate_coldstart",
];

const BEGIN: &str = "<!-- report:begin -->";
const END: &str = "<!-- report:end -->";

/// Run `bin` and return the claims it saved in this run (none if it
/// checks no paper claim).
fn run(bin: &str) -> Result<Vec<Claim>, String> {
    let path = claims_path(bin);
    match fs::remove_file(&path) {
        Err(e) if e.kind() != ErrorKind::NotFound => {
            return Err(format!("cannot remove stale {}: {e}", path.display()))
        }
        _ => {}
    }
    println!(">>> {bin}");
    let status = Command::new(env!("CARGO"))
        .args(["run", "--release", "-q", "-p", "hetero-bench", "--bin", bin])
        .status()
        .map_err(|e| format!("cannot run {bin}: {e}"))?;
    if !status.success() {
        return Err(format!("{bin} failed ({status})"));
    }
    match fs::read_to_string(&path) {
        Ok(text) => serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display())),
        Err(e) if e.kind() == ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

/// The markdown between the markers: one row per claim, then the
/// count; an error if there is no claim to table.
fn render(rows: &[(&str, Claim)]) -> Result<String, String> {
    if rows.is_empty() {
        return Err("no experiment recorded a claim; EXPERIMENTS.md left as it is".into());
    }
    let mut table = Table::new(&["Experiment", "Claim", "Paper", "Measured", "Verdict"]);
    for (bin, c) in rows {
        let verdict = if c.holds() {
            "reproduced"
        } else {
            "deviation (see notes)"
        };
        table.row(&[
            format!("`{bin}`"),
            c.what.clone(),
            format!("{:.2}", c.paper),
            format!("{:.2}", c.measured),
            verdict.into(),
        ]);
    }
    let held = rows.iter().filter(|(_, c)| c.holds()).count();
    Ok(format!(
        "\n{}\n**{held} / {} paper claims reproduced.**\n\n",
        table.render_markdown(),
        rows.len()
    ))
}

/// `doc` with the text between its one `BEGIN` line and its one `END`
/// line replaced by `block`, or an error naming the bad marker.
fn splice(doc: &str, block: &str) -> Result<String, String> {
    let find = |marker: &str| {
        let mut at = doc.match_indices(marker).map(|(i, _)| i);
        match (at.next(), at.next()) {
            (Some(i), None) => Ok(i),
            (None, _) => Err(format!("marker {marker} is missing")),
            _ => Err(format!("marker {marker} appears more than once")),
        }
    };
    let (begin, end) = (find(BEGIN)? + BEGIN.len(), find(END)?);
    if end < begin {
        return Err(format!("marker {END} comes before {BEGIN}"));
    }
    Ok(format!("{}\n{block}{}", &doc[..begin], &doc[end..]))
}

/// The workspace root this binary was built in.
fn built_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The root of the cargo workspace `dir` lies in: the nearest
/// ancestor whose `Cargo.toml` declares `[workspace]`.
fn workspace_root(dir: &Path) -> Option<&Path> {
    dir.ancestors().find(|d| {
        fs::read_to_string(d.join("Cargo.toml"))
            .is_ok_and(|toml| toml.lines().any(|l| l.trim() == "[workspace]"))
    })
}

/// Check that the compiled-in workspace root is the workspace the
/// current directory lies in.
fn check_root() -> Result<(), String> {
    let canonical = |p: &Path| fs::canonicalize(p).map_err(|e| format!("{}: {e}", p.display()));
    let built = canonical(&built_root())?;
    let cwd = std::env::current_dir().map_err(|e| format!("current directory: {e}"))?;
    let here = workspace_root(&cwd)
        .ok_or_else(|| format!("{} is not inside a cargo workspace", cwd.display()))?;
    let here = canonical(here)?;
    if built != here {
        return Err(format!(
            "built for the workspace at {} but run in the workspace at {}; \
             rebuild it in the tree it should report on",
            built.display(),
            here.display()
        ));
    }
    Ok(())
}

/// Splice `block` into the file at `path`; the file is written only if
/// its markers are sound.
fn rewrite(path: &Path, block: &str) -> Result<(), String> {
    let doc = fs::read_to_string(path).map_err(|e| e.to_string())?;
    fs::write(path, splice(&doc, block)?).map_err(|e| e.to_string())
}

fn main() {
    hetero_bench::cli::parse(
        "report",
        "run every experiment binary and rewrite EXPERIMENTS.md's headline table",
        &[],
    );
    let fail = |e: String| -> ! {
        eprintln!("report: {e}");
        exit(1)
    };
    check_root().unwrap_or_else(|e| fail(e));
    let mut rows = Vec::new();
    for bin in BINS {
        rows.extend(
            run(bin)
                .unwrap_or_else(|e| fail(e))
                .into_iter()
                .map(|c| (bin, c)),
        );
    }
    let block = render(&rows).unwrap_or_else(|e| fail(e));
    let path = built_root().join("EXPERIMENTS.md");
    rewrite(&path, &block).unwrap_or_else(|e| fail(format!("{}: {e}", path.display())));
    println!("\nwrote {} ({} claims)", path.display(), rows.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str =
        "# title\n\nintro\n<!-- report:begin -->\nold\n<!-- report:end -->\n\n## after\n";

    #[test]
    fn splice_replaces_only_the_marked_block() {
        let out = splice(DOC, "new\n").unwrap();
        assert_eq!(
            out,
            "# title\n\nintro\n<!-- report:begin -->\nnew\n<!-- report:end -->\n\n## after\n"
        );
        assert_eq!(splice(&out, "old\n").unwrap(), DOC);
    }

    #[test]
    fn bad_markers_are_errors_and_leave_the_file_alone() {
        let doubled = DOC.replace("intro", BEGIN);
        let reversed = DOC
            .replace(BEGIN, "@")
            .replace(END, BEGIN)
            .replace('@', END);
        let bad = [
            ("missing", DOC.replace(BEGIN, "")),
            ("missing", DOC.replace(END, "")),
            ("more than once", doubled),
            ("more than once", format!("{DOC}{END}\n")),
            ("comes before", reversed),
        ];
        let path = hetero_bench::experiments_dir().join("report_splice_test.md");
        for (why, doc) in bad {
            let err = splice(&doc, "new\n").unwrap_err();
            assert!(err.contains(why), "{err}");
            fs::write(&path, &doc).unwrap();
            assert!(rewrite(&path, "new\n").is_err());
            assert_eq!(fs::read_to_string(&path).unwrap(), doc);
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn one_row_per_claim_and_a_computed_count() {
        let claim = |measured| Claim {
            what: "x".into(),
            paper: 2.0,
            measured,
            rel_tol: 0.1,
        };
        let md = render(&[("fig_a", claim(2.1)), ("fig_b", claim(3.0))]).unwrap();
        assert!(md.contains("| `fig_a` | x | 2.00 | 2.10 | reproduced |\n"));
        assert!(md.contains("| `fig_b` | x | 2.00 | 3.00 | deviation (see notes) |\n"));
        assert!(md.contains("**1 / 2 paper claims reproduced.**"));
    }

    #[test]
    fn no_claims_is_an_error_not_an_empty_table() {
        let err = render(&[]).unwrap_err();
        assert!(err.contains("no experiment recorded a claim"), "{err}");
    }

    #[test]
    fn the_built_root_is_this_workspace() {
        let root = workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).unwrap();
        assert_eq!(
            fs::canonicalize(root).unwrap(),
            fs::canonicalize(built_root()).unwrap()
        );
    }
}
