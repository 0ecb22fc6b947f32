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
fn seq_past_the_chosen_models_context_is_a_usage_error() {
    // The bound is the shortest context among the chosen models: 4096
    // tokens for the evaluation models, 128 for Tiny.
    let cases: [&[&str]; 5] = [
        &["--seq", "99999999"],
        &["--seq", "4097"],
        &["--seq", "135,4097"],
        &["--model", "tiny", "--seq", "4096"],
        &[
            "bound", "--model", "llama-8b", "--model", "tiny", "--seq", "129",
        ],
    ];
    for args in cases {
        let out = analyze(args);
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains("bad --seq"), "{stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
    let out = analyze(&["--model", "tiny", "--seq", "4096"]);
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(
        stderr.contains("longer than Tiny-Test's context of 128 tokens"),
        "{stderr}"
    );
    // At the context itself the lint runs.
    let out = analyze(&["--model", "tiny", "--seq", "128"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn default_lengths_stay_inside_the_models_context() {
    // Tiny-Test's context is 128 tokens: of the default lengths only 32
    // and 128 fit, so its 4 weight Matmuls give 4 × (2 + decode) sites.
    for sweep in [&[][..], &["integrity"][..]] {
        let out = analyze(&[sweep, &["--model", "tiny"]].concat());
        let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
        assert_eq!(out.status.code(), Some(0), "{sweep:?}: {stdout}");
        assert_eq!(
            stdout, "checked 12 artifacts: 0 deny, 0 warn\n",
            "{sweep:?}"
        );
    }
    // The one-length sweeps run at the whole context, not at 300.
    let out = analyze(&["explore", "--model", "tiny"]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.starts_with("Tiny-Test/qkv[m=128]: "), "{stdout}");
    assert!(!stdout.contains("m=300"), "{stdout}");
    // `race` decodes 2 tokens after its prompt and `bound` 4: an
    // explicit prompt must leave room for them, and the default one
    // does.
    for (sweep, longest) in [("race", "126"), ("bound", "124")] {
        let out = analyze(&[sweep, "--model", "tiny", "--json"]);
        assert_eq!(out.status.code(), Some(0), "{sweep}: {out:?}");
        assert_eq!(report_json(&out)["summary"]["deny"], 0, "{sweep}");
        let out = analyze(&[sweep, "--model", "tiny", "--seq", longest, "--json"]);
        assert_eq!(out.status.code(), Some(0), "{sweep}: {out:?}");
        let out = analyze(&[sweep, "--model", "tiny", "--seq", "127"]);
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        assert_eq!(out.status.code(), Some(2), "{sweep}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{sweep}: {stderr}");
        assert!(
            stderr.contains("decode tokens, longer than Tiny-Test's context of 128 tokens"),
            "{sweep}: {stderr}"
        );
    }
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

/// `analyze monitor -` on `stdin`: its exit code and stderr.
fn monitor_stdin(stdin: &str) -> (Option<i32>, String) {
    use std::io::Write;
    use std::process::Stdio;

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
        .write_all(stdin.as_bytes())
        .expect("write stdin");
    let out = child.wait_with_output().expect("analyze exits");
    (
        out.status.code(),
        String::from_utf8(out.stderr).expect("utf-8 stderr"),
    )
}

#[test]
fn malformed_rollout_windows_are_typed_errors() {
    use hetero_fleet::{FleetEvent, FleetEventLog, RolloutLogSet, EVENT_LOG_VERSION};
    use hetero_soc::SimTime;

    let at = SimTime::from_millis(1);
    let log = |windows: Vec<u64>| FleetEventLog {
        version: EVENT_LOG_VERSION,
        seed: 1,
        policy: "rollout-test".into(),
        devices: 2,
        requests: 1,
        slo_ttft_ns: 1_000_000,
        deadline_ns: 4_000_000,
        census_interval_ns: 50_000_000,
        windows,
        events: vec![
            FleetEvent::Lost { at, req: 0 },
            FleetEvent::RolloutStage {
                at,
                stage: 1,
                pct: 1,
                canary: 1,
            },
            FleetEvent::Promote { at, stage: 1 },
        ],
    };
    let text = |windows| {
        serde_json::to_string(&RolloutLogSet {
            runs: vec![log(windows)],
        })
        .expect("log set serializes")
    };

    let (code, stderr) = monitor_stdin(&text(vec![0, 1]));
    assert_eq!(code, Some(0), "{stderr}");

    for (windows, message) in [
        (vec![1], "windows[0] is 1, not 0"),
        (
            vec![0, 2, 1],
            "windows[2] = 1 does not exceed windows[1] = 2",
        ),
        (
            vec![0, 1, 1],
            "windows[2] = 1 does not exceed windows[1] = 1",
        ),
        (vec![0, 3], "windows[1] = 3 is not below the log's 3 events"),
        (
            Vec::new(),
            "events[1] is a `rollout-stage` rollout event, but the log has no windows",
        ),
    ] {
        let (code, stderr) = monitor_stdin(&text(windows));
        assert_eq!(code, Some(2), "{message}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
        assert!(
            stderr.starts_with("malformed windows in -, log 0 (rollout-test): "),
            "{stderr}"
        );
        assert!(stderr.trim_end().ends_with(message), "{stderr}");
    }
}

/// A one-event log of `policy`, `Lost { at: 7 ns, req: 3 }`.
fn lost_log(policy: &str) -> hetero_fleet::FleetEventLog {
    hetero_fleet::FleetEventLog {
        version: hetero_fleet::EVENT_LOG_VERSION,
        seed: 1,
        policy: policy.into(),
        devices: 2,
        requests: 1,
        slo_ttft_ns: 1_000_000,
        deadline_ns: 4_000_000,
        census_interval_ns: 50_000_000,
        windows: Vec::new(),
        events: vec![hetero_fleet::FleetEvent::Lost {
            at: hetero_soc::SimTime::from_nanos(7),
            req: 3,
        }],
    }
}

#[test]
fn both_log_shapes_load_with_keys_in_any_order() {
    use hetero_fleet::{FleetLogPair, RolloutLogSet};

    let pair = serde_json::to_string(&FleetLogPair {
        robust: lost_log("robust"),
        naive: lost_log("round-robin"),
    })
    .expect("pair serializes");
    let set = serde_json::to_string(&RolloutLogSet {
        runs: vec![lost_log("rollout")],
    })
    .expect("set serializes");
    let (robust, naive) = pair[1..pair.len() - 1]
        .split_once(",\"naive\":")
        .expect("two keys");
    let swapped = format!("{{\"naive\":{naive},{robust}}}");
    for text in [
        &pair,
        &set,
        &swapped,
        &format!(" \n{{ \"runs\" :{}", &set[8..]),
    ] {
        let (code, stderr) = monitor_stdin(text);
        assert!(matches!(code, Some(0 | 1)), "{text}: {stderr}");
    }
}

#[test]
fn out_of_range_integers_in_a_log_exit_two() {
    let text = serde_json::to_string(&hetero_fleet::RolloutLogSet {
        runs: vec![lost_log("robust")],
    })
    .expect("set serializes");
    for (lost, why) in [
        (
            r#"{"Lost":{"at":1e30,"req":18446744073709551616}}"#,
            "integer 1e30 out of range for u64 at byte ",
        ),
        // JSON forbids leading zeros.
        (r#"{"Lost":{"at":007,"req":3}}"#, "invalid number at byte "),
    ] {
        let bad = text.replacen(r#"{"Lost":{"at":7,"req":3}}"#, lost, 1);
        assert_ne!(bad, text);
        let (code, stderr) = monitor_stdin(&bad);
        assert_eq!(code, Some(2), "{stderr}");
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
        assert!(
            stderr.starts_with(&format!(
                "cannot parse - as a fleet event-log pair or a rollout log set: {why}"
            )),
            "{stderr}"
        );
    }
}
