//! End-to-end tests of the `analyze` binary's exit-code / JSON
//! contract: `--json` emits a machine-readable [`Report`] on stdout
//! *regardless* of the exit status, exit 0 means no deny-level
//! finding, exit 1 means at least one, and exit 2 is reserved for
//! usage errors (which emit no report).

use std::process::{Command, Output};

fn analyze(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_analyze"))
        .args(args)
        .output()
        .expect("run analyze binary")
}

fn report_json(out: &Output) -> serde_json::Value {
    let stdout = String::from_utf8(out.stdout.clone()).expect("utf-8 stdout");
    serde_json::from_str(&stdout).expect("stdout is one parseable Report")
}

#[test]
fn bound_subcommand_is_clean_and_emits_report_json() {
    let out = analyze(&["bound", "--model", "internlm-1.8b", "--json"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let report = report_json(&out);
    assert_eq!(report["version"], 1);
    assert_eq!(report["summary"]["deny"], 0);
    assert!(
        report["summary"]["checked"].as_u64().unwrap() > 0,
        "bound sweep checked nothing: {report}"
    );
    assert!(report["findings"].as_array().unwrap().is_empty());
}

#[test]
fn deny_exit_still_emits_report_json() {
    // A structurally broken trace file: the timeline lint denies it,
    // but --json must still print the full report before exiting 1.
    let dir = std::env::temp_dir().join("hetero-analyze-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("broken_trace.json");
    std::fs::write(&path, "{\"traceEvents\": [{\"ph\": \"B\"}]}").expect("write trace");

    let out = analyze(&["timeline", path.to_str().unwrap(), "--json"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let report = report_json(&out);
    assert!(report["summary"]["deny"].as_u64().unwrap() > 0);
    assert!(!report["findings"].as_array().unwrap().is_empty());
}

#[test]
fn usage_errors_exit_two() {
    let out = analyze(&["no-such-subcommand"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "usage errors emit no report");

    let out = analyze(&["bound", "--model", "no-such-model"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn deeply_nested_json_is_a_typed_error_not_a_stack_overflow() {
    use std::io::Write;
    use std::process::Stdio;

    // 1 MB of `[` on stdin: the event-log reader refuses nesting past
    // its depth cap, and the CLI reports it in one line with exit 2.
    let mut child = Command::new(env!("CARGO_BIN_EXE_analyze"))
        .args(["monitor", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run analyze binary");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(&[b'['; 1 << 20])
        .expect("write stdin");
    let out = child.wait_with_output().expect("analyze exits");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("recursion limit exceeded"), "{stderr}");

    // The trace reader shares the parser: the same input inside a
    // trace file is a `trace-format` finding.
    let dir = std::env::temp_dir().join("hetero-analyze-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("deep_trace.json");
    let mut deep = String::from("{\"traceEvents\": ");
    deep.push_str(&"[".repeat(1 << 20));
    std::fs::write(&path, deep).expect("write trace");
    let out = analyze(&["timeline", path.to_str().unwrap(), "--json"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert_eq!(report_json(&out)["findings"][0]["rule_id"], "trace-format");
}
