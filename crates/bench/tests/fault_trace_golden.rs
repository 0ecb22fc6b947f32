//! `fault_sweep --seed 42 --trace-out PATH --metrics` at its default
//! request count writes the adaptive arm's Chrome trace and prints its
//! compact metrics snapshot. Both must match the length and FNV-1a
//! that `heterollm`'s `obs_golden` test pins for that arm
//! (`fault_sweep_adaptive` in `crates/core/tests/golden/obs_digests.txt`),
//! so the golden and the binary's own arm set-up cannot drift apart.

use std::process::Command;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn digest_line(what: &str, bytes: &[u8]) -> String {
    format!(
        "fault_sweep_adaptive.{what} bytes={} fnv1a={:016x}",
        bytes.len(),
        fnv1a(bytes)
    )
}

#[test]
fn fault_sweep_trace_matches_the_pinned_digest() {
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../core/tests/golden/obs_digests.txt"
    ))
    .expect("digest golden checked in");
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("fault_trace.json");
    let out = Command::new(env!("CARGO_BIN_EXE_fault_sweep"))
        .args(["--seed", "42", "--trace-out"])
        .arg(&path)
        .arg("--metrics")
        .output()
        .expect("fault_sweep runs");
    assert!(out.status.success(), "fault_sweep failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let metrics = stdout
        .lines()
        .find(|l| l.starts_with("{\"counters\""))
        .expect("metrics snapshot line");
    let trace = std::fs::read(&path).expect("trace written");
    std::fs::remove_file(&path).expect("remove trace");

    for line in [
        digest_line("trace", &trace),
        digest_line("metrics", metrics.as_bytes()),
    ] {
        assert!(
            golden.lines().any(|g| g == line),
            "`{line}` is not in obs_digests.txt"
        );
    }
}
