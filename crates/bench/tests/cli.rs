//! Exit-code contract of the fleet binaries' size flags: a zero or
//! non-numeric `--jobs`, `--devices` or `--requests` is a usage error
//! (exit 2, one stderr line), never a panic inside the run.

use std::process::Command;

fn assert_usage_error(bin: &str, args: &[&str]) {
    let out = Command::new(bin).args(args).output().expect("run binary");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{bin} {args:?}: {stderr}");
    assert!(stderr.contains("bad value"), "{bin} {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} ran anyway");
}

#[test]
fn zero_or_junk_size_flags_exit_two() {
    for bin in [
        env!("CARGO_BIN_EXE_fleet_sweep"),
        env!("CARGO_BIN_EXE_rollout_sweep"),
    ] {
        for flag in ["--jobs", "--devices", "--requests"] {
            assert_usage_error(bin, &[flag, "0"]);
            assert_usage_error(bin, &[flag, "junk"]);
        }
    }
}
