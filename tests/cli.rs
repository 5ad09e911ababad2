//! End-to-end tests of the `parsynt` command-line tool, driving the real
//! binary over the shipped example programs.

use std::process::Command;

fn parsynt(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_parsynt"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_prints_usage() {
    let (ok, stdout, _) = parsynt(&["--help"]);
    assert!(ok);
    assert!(stdout.contains("parallelize"));
    assert!(stdout.contains("bench-list"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let (ok, _, stderr) = parsynt(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}

#[test]
fn missing_file_is_reported() {
    let (ok, _, stderr) = parsynt(&["parallelize", "no/such/file.psl"]);
    assert!(!ok);
    assert!(stderr.contains("no/such/file.psl"));
}

#[test]
fn bench_list_names_all_27() {
    let (ok, stdout, _) = parsynt(&["bench-list"]);
    assert!(ok);
    for id in ["mbbs", "mtls", "bp", "lcs", "sum", "mode"] {
        assert!(stdout.contains(id), "missing `{id}` in:\n{stdout}");
    }
    assert_eq!(stdout.lines().count(), 28); // header + 27 benchmarks
}

#[test]
fn parallelize_sum_prints_join() {
    let (ok, stdout, stderr) = parsynt(&["parallelize", "programs/sum2d.psl"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("divide-and-conquer"), "{stdout}");
    assert!(stdout.contains("synthesized join"), "{stdout}");
    assert!(stdout.contains("s__l + s__r"), "{stdout}");
    assert!(stdout.contains("HomomorphismJoin"), "{stdout}");
}

#[test]
fn run_sum_executes_and_agrees() {
    let (ok, stdout, stderr) = parsynt(&[
        "run",
        "programs/sum2d.psl",
        "--threads",
        "3",
        "--rows",
        "24",
        "--cols",
        "8",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("results agree"), "{stdout}");
    assert!(stdout.contains("s = "), "{stdout}");
}

/// `run --stream` pages the generated input through the executor in
/// chunks, prints progressive snapshots, and cross-checks the
/// end-of-input state against the batch run (the binary exits non-zero
/// on any mismatch, so success here *is* the byte-identity check).
#[test]
fn run_stream_snapshots_and_agrees_with_batch() {
    let (ok, stdout, stderr) = parsynt(&[
        "run",
        "programs/sum2d.psl",
        "--threads",
        "3",
        "--rows",
        "40",
        "--cols",
        "6",
        "--stream",
        "--chunk-rows",
        "7",
        "--snapshot-every",
        "2",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("[stream]"), "{stdout}");
    assert!(stdout.contains("rows/s"), "{stdout}");
    assert!(stdout.contains("matches the batch run"), "{stdout}");
}

/// The JSON report for a streamed run carries the optional `stream`
/// block with chunk/element/snapshot counts, still under schema v1.
#[test]
fn run_stream_json_reports_the_stream_block() {
    let (ok, stdout, stderr) = parsynt(&[
        "run",
        "programs/mbbs.psl",
        "--threads",
        "2",
        "--rows",
        "30",
        "--cols",
        "5",
        "--stream",
        "--chunk-rows",
        "8",
        "--json",
    ]);
    assert!(ok, "stderr: {stderr}");
    let report: parsynt::core::PipelineReportJson =
        serde_json::from_str(&stdout).expect("stdout is a PipelineReport");
    let stream = report.stream.expect("stream block present");
    assert_eq!(stream.chunks, 4, "{stdout}"); // ceil(30 / 8)
    assert_eq!(stream.elements, 30, "{stdout}");
    assert_eq!(stream.degraded_chunks, 0, "{stdout}");
    assert!(stream.snapshots >= 1, "{stdout}");

    // Batch runs stay byte-identical: no `stream` key at all.
    let (ok, stdout, _) = parsynt(&[
        "run",
        "programs/mbbs.psl",
        "--threads",
        "2",
        "--rows",
        "10",
        "--cols",
        "4",
        "--json",
    ]);
    assert!(ok);
    assert!(!stdout.contains("\"stream\""), "{stdout}");
}

#[test]
fn check_sum_verifies_the_law() {
    let (ok, stdout, stderr) = parsynt(&["check", "programs/sum2d.psl", "--tests", "30"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("held on 30 random splits"), "{stdout}");
}

#[test]
fn unknown_flag_is_a_usage_error() {
    for args in [
        &["parallelize", "programs/sum2d.psl", "--frobnicate"][..],
        &["run", "programs/sum2d.psl", "--engine", "interp"],
    ] {
        let (ok, _, stderr) = parsynt(args);
        assert!(!ok, "{args:?}");
        assert!(stderr.contains("unknown flag"), "{args:?}: {stderr}");
    }
}

#[test]
fn parallelize_json_emits_a_report() {
    let (ok, stdout, stderr) = parsynt(&["parallelize", "programs/sum2d.psl", "--json"]);
    assert!(ok, "stderr: {stderr}");
    let report: parsynt::core::PipelineReportJson =
        serde_json::from_str(&stdout).expect("stdout is a PipelineReport");
    assert_eq!(report.outcome, "divide_and_conquer");
    assert!(report.phase_timings.contains_key("total"));
}

/// `--cache-dir` across two invocations of the binary: the second run
/// finds the first run's solution on disk and reports a cache hit
/// without synthesis timings.
#[test]
fn cache_dir_reserves_across_processes() {
    let cache_dir = std::env::temp_dir().join(format!("parsynt-cli-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let args = [
        "parallelize",
        "programs/sum2d.psl",
        "--json",
        "--cache-dir",
        cache_dir.to_str().unwrap(),
    ];

    let (ok, stdout, stderr) = parsynt(&args);
    assert!(ok, "stderr: {stderr}");
    let cold: parsynt::core::PipelineReportJson = serde_json::from_str(&stdout).unwrap();
    assert!(!cold.cache_hit);
    assert!(cold.phase_timings.contains_key("synthesize"));

    let (ok, stdout, stderr) = parsynt(&args);
    assert!(ok, "stderr: {stderr}");
    let warm: parsynt::core::PipelineReportJson = serde_json::from_str(&stdout).unwrap();
    assert!(warm.cache_hit, "{stdout}");
    assert!(!warm.phase_timings.contains_key("synthesize"), "{stdout}");
    assert_eq!(warm.outcome, cold.outcome);

    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// `serve` is wired into the binary: a bad bind address fails fast with
/// the io exit code rather than being rejected as an unknown command.
#[test]
fn serve_rejects_an_unbindable_address() {
    let (ok, _, stderr) = parsynt(&["serve", "--addr", "256.0.0.1:0"]);
    assert!(!ok);
    assert!(stderr.contains("error"), "{stderr}");
}

/// The acceptance path: `bench <id> --json --trace out.jsonl` must emit
/// a serde-valid `PipelineReport` with non-zero normalize/synthesize
/// timings AND a JSONL trace carrying rewrite-rule, CEGIS-round, and
/// runtime-executor events.
#[test]
fn bench_json_trace_reports_phases_and_events() {
    let trace_path =
        std::env::temp_dir().join(format!("parsynt-cli-trace-{}.jsonl", std::process::id()));
    let (ok, stdout, stderr) = parsynt(&[
        "bench",
        "max_bottom_strip",
        "--json",
        "--trace",
        trace_path.to_str().unwrap(),
    ]);
    assert!(ok, "stderr: {stderr}");

    let report: parsynt::core::PipelineReportJson =
        serde_json::from_str(&stdout).expect("stdout is a PipelineReport");
    assert_eq!(report.outcome, "divide_and_conquer", "{stdout}");
    assert!(report.phase_timings["normalize"] > 0.0, "{stdout}");
    assert!(report.phase_timings["synthesize"] > 0.0, "{stdout}");
    assert!(
        report.counters.contains_key("synthesize.cegis_round"),
        "{stdout}"
    );

    let trace = std::fs::read_to_string(&trace_path).expect("trace file written");
    let mut seen = std::collections::BTreeSet::new();
    for line in trace.lines() {
        let event: serde_json::Value = serde_json::from_str(line).expect("each line is JSON");
        seen.insert(format!(
            "{}.{}",
            event["phase"].as_str().unwrap(),
            event["name"].as_str().unwrap()
        ));
    }
    for expected in [
        "normalize.rule_fired",
        "synthesize.cegis_round",
        "execute.run_parallel",
        "execute.worker_chunks",
        "schema.outcome",
    ] {
        assert!(seen.contains(expected), "missing `{expected}` in {seen:?}");
    }
    std::fs::remove_file(&trace_path).ok();
}
