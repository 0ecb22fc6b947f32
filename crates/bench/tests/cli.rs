//! The command-line contract of the experiment binaries, driven by the
//! flag tables they print with `--help`: help exits 0 and shows each
//! flag's default and range; an unknown flag, a missing value, a value
//! outside the range or a name outside a one-of list is a usage error
//! (exit 2, one stderr line, nothing on stdout), never a run.

use std::process::{Command, Output};

/// Every binary with flags of its own, and the flags its table holds.
const TABLES: [(&str, &[&str]); 9] = [
    (
        env!("CARGO_BIN_EXE_fleet_sweep"),
        &[
            "--seed",
            "--devices",
            "--requests",
            "--jobs",
            "--json",
            "--events-out",
        ],
    ),
    (
        env!("CARGO_BIN_EXE_rollout_sweep"),
        &[
            "--seed",
            "--devices",
            "--requests",
            "--jobs",
            "--json",
            "--events-out",
        ],
    ),
    (
        env!("CARGO_BIN_EXE_fault_sweep"),
        &[
            "--seed",
            "--requests",
            "--jobs",
            "--json",
            "--integrity",
            "--trace-out",
            "--metrics",
        ],
    ),
    (
        env!("CARGO_BIN_EXE_heterollm_sim"),
        &[
            "--model",
            "--engine",
            "--prompt",
            "--decode",
            "--sync",
            "--trace-out",
            "--metrics",
        ],
    ),
    (
        env!("CARGO_BIN_EXE_timeline"),
        &[
            "--model",
            "--engine",
            "--prompt",
            "--decode",
            "--sync",
            "--width",
            "--trace-out",
        ],
    ),
    (
        env!("CARGO_BIN_EXE_fig13_prefill"),
        &["--trace-out", "--jobs"],
    ),
    (
        env!("CARGO_BIN_EXE_fig16_decode"),
        &["--trace-out", "--jobs"],
    ),
    (env!("CARGO_BIN_EXE_compare_socs"), &["--jobs"]),
    (
        env!("CARGO_BIN_EXE_bench_sim"),
        &["--devices", "--jobs", "--json"],
    ),
];

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("run binary")
}

fn assert_usage_error(bin: &str, args: &[&str], expect: &str) {
    let out = run(bin, args);
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{bin} {args:?}: {stderr}");
    assert!(stderr.contains(expect), "{bin} {args:?}: {stderr}");
    assert!(
        stderr.ends_with(" (run with --help for usage)\n"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "{bin} {args:?} ran anyway");
}

/// One flag row of a help text.
struct Row {
    flag: String,
    /// Whether the flag takes a value.
    valued: bool,
    about: String,
}

/// The flag rows of `bin --help`, the shared `--help, -h` row aside.
fn help_rows(bin: &str) -> Vec<Row> {
    let out = run(bin, &["--help"]);
    assert_eq!(out.status.code(), Some(0), "{bin} --help");
    let text = String::from_utf8(out.stdout).expect("utf-8 help");
    assert!(text.contains("\n  --help, -h  "), "{bin}: {text}");
    text.lines()
        .filter(|l| l.starts_with("  --") && !l.starts_with("  --help, -h"))
        .map(|l| {
            let (flag, about) = l.trim_start().split_once("  ").expect("flag column");
            let (name, metavar) = flag.split_once(' ').unwrap_or((flag, ""));
            Row {
                flag: name.to_string(),
                valued: !metavar.is_empty(),
                about: about.trim().to_string(),
            }
        })
        .collect()
}

/// The `min..=max` range a help row states, if any.
fn range(about: &str) -> Option<(u128, u128)> {
    let (_, rest) = about.split_once("range ")?;
    let (lo, rest) = rest.split_once("..=")?;
    let hi = rest.trim_end_matches(')');
    Some((lo.parse().unwrap(), hi.parse().unwrap()))
}

#[test]
fn help_and_usage_errors_follow_the_tables() {
    for (bin, flags) in TABLES {
        let rows = help_rows(bin);
        let listed: Vec<&str> = rows.iter().map(|r| r.flag.as_str()).collect();
        let mut expected = flags.to_vec();
        expected.push("--analyze");
        assert_eq!(listed, expected, "{bin}");

        assert_usage_error(
            bin,
            &["--no-such-flag"],
            "unexpected argument '--no-such-flag'",
        );
        for row in rows.iter().filter(|r| r.valued) {
            let flag = row.flag.as_str();
            assert_usage_error(bin, &[flag], &format!("{flag} needs a value"));
            if let Some((lo, hi)) = range(&row.about) {
                assert!(
                    row.about.contains("(default "),
                    "{bin} {flag}: {}",
                    row.about
                );
                let below = lo.checked_sub(1).map_or("-1".into(), |v| v.to_string());
                for bad in [below, (hi + 1).to_string()] {
                    assert_usage_error(bin, &[flag, &bad], &format!("bad value '{bad}'"));
                }
            }
            if let Some((_, names)) = row.about.split_once("one of: ") {
                let default = row.about.split("(default ").nth(1).unwrap();
                let default = default.split(',').next().unwrap();
                assert!(names.contains(default), "{bin} {flag}: {}", row.about);
                assert_usage_error(bin, &[flag, "junk"], "bad value 'junk'");
            }
        }
    }
}

#[test]
fn known_bad_lines_are_usage_errors() {
    let sim = env!("CARGO_BIN_EXE_heterollm_sim");
    assert_usage_error(sim, &["--model", "junk"], "bad value 'junk' for --model");
    // Past every model's context: a run would take minutes.
    assert_usage_error(
        sim,
        &["--prompt", "99999999"],
        "bad value '99999999' for --prompt",
    );
    // Past the chosen model's context, though each flag is in range.
    assert_usage_error(
        sim,
        &["--prompt", "4096", "--decode", "4096"],
        "--prompt 4096 + --decode 4096 exceeds Llama-8B's context of 4096 tokens",
    );
    // The context is checked before `--analyze` runs its sweep, so the
    // usage line is the only stderr line.
    assert_usage_error(
        sim,
        &["--analyze", "--prompt", "4096", "--decode", "4096"],
        "--prompt 4096 + --decode 4096 exceeds Llama-8B's context of 4096 tokens",
    );
    assert_usage_error(
        sim,
        &["--model", "tiny", "--prompt", "100", "--decode", "29"],
        "exceeds Tiny-Test's context of 128 tokens",
    );
    let fits = run(
        sim,
        &["--model", "tiny", "--prompt", "100", "--decode", "28"],
    );
    assert_eq!(fits.status.code(), Some(0), "{fits:?}");
    let timeline = env!("CARGO_BIN_EXE_timeline");
    assert_usage_error(timeline, &["--width", "5"], "bad value '5' for --width");
    assert_usage_error(
        timeline,
        &["--prompt", "4090", "--decode", "7"],
        "exceeds InternLM-1.8B's context of 4096 tokens",
    );
    // A binary without a --jobs flag no longer ignores one.
    let fig02 = env!("CARGO_BIN_EXE_fig02_gpu_linear");
    assert_usage_error(fig02, &["--jobs", "2"], "unexpected argument '--jobs'");
    let help = run(fig02, &["--help"]);
    assert_eq!(help.status.code(), Some(0));
}

#[test]
fn zero_or_junk_size_flags_exit_two() {
    for bin in [
        env!("CARGO_BIN_EXE_fleet_sweep"),
        env!("CARGO_BIN_EXE_rollout_sweep"),
    ] {
        for flag in ["--jobs", "--devices", "--requests"] {
            assert_usage_error(bin, &[flag, "0"], "bad value");
            assert_usage_error(bin, &[flag, "junk"], "bad value");
        }
    }
}
