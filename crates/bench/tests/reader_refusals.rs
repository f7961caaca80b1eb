//! `stale-bench` reads every observability file through its format's one
//! reader, so a file `stale-lint preflight` names is refused where the
//! program loads it: `report`, `explain` and `timeline --audit` on a
//! truncated audit, `timeline --trace` on a trace of another version and
//! `compare` on a metrics export of another version each exit 1 with the
//! reader's reason on stderr and nothing on stdout.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

/// The tiny preset's audit, trace, metrics and world-log exports, written
/// once by `repro tiny table3` into a scratch directory.
fn exports() -> &'static PathBuf {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = std::env::temp_dir().join("stale_bench_reader_refusals");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["tiny", "table3", "--audit-out"])
            .arg(dir.join("audit.jsonl"))
            .arg("--trace-out")
            .arg(dir.join("trace.jsonl"))
            .arg("--metrics-json")
            .arg(dir.join("metrics.json"))
            .arg("--export-worldlog")
            .arg(dir.join("world.jsonl"))
            .output()
            .expect("run repro");
        assert!(out.status.success(), "{out:?}");
        dir
    })
}

fn read(name: &str) -> String {
    std::fs::read_to_string(exports().join(name)).expect("read export")
}

/// Write `text` as `name` beside the exports and return its path.
fn damaged(name: &str, text: &str) -> PathBuf {
    let path = exports().join(name);
    std::fs::write(&path, text).expect("write damaged copy");
    path
}

/// A fingerprint the audit and the log both know.
fn fingerprint() -> String {
    let audit = read("audit.jsonl");
    let at = audit
        .find("\"cert\":\"")
        .expect("a decision names a certificate")
        + 8;
    let len = audit[at..].find('"').expect("closing quote");
    audit[at..at + len].to_string()
}

/// Run `stale-bench` and assert it refused: exit 1, `reason` on stderr,
/// nothing on stdout.
fn refuses(args: &[&str], files: &[&Path], reason: &str) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_stale-bench"));
    cmd.args(args);
    for f in files {
        cmd.arg(f);
    }
    let out = cmd.output().expect("run stale-bench");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.contains(reason), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a result");
}

#[test]
fn a_truncated_audit_is_refused_by_every_command_that_reads_it() {
    let audit = read("audit.jsonl");
    let lines: Vec<&str> = audit.lines().collect();
    let cut: String = lines[..lines.len() - 1]
        .iter()
        .map(|l| format!("{l}\n"))
        .collect();
    let path = damaged("audit.cut.jsonl", &cut);
    let reason = format!(
        "header declares {} decision(s) but the file holds {}",
        lines.len() - 1,
        lines.len() - 2
    );
    let fp = fingerprint();
    let log = exports().join("world.jsonl");
    refuses(&["report", "--audit"], &[&path], &reason);
    refuses(&["explain", &fp, "--audit"], &[&path], &reason);
    refuses(
        &["timeline", &fp, "--log"],
        &[&log, Path::new("--audit"), &path],
        &reason,
    );
    // The reader's words are the ones preflight prints.
    let named = obs::audit::validate_audit_jsonl(&cut);
    assert!(named.contains(&reason), "{named:?}");
}

#[test]
fn a_trace_of_another_version_is_refused_by_timeline() {
    let trace = read("trace.jsonl").replacen("\"version\":1", "\"version\":9", 1);
    let path = damaged("trace.v9.jsonl", &trace);
    let log = exports().join("world.jsonl");
    refuses(
        &["timeline", &fingerprint(), "--log"],
        &[&log, Path::new("--trace"), &path],
        "header version 9 (expected 1)",
    );
}

#[test]
fn a_metrics_export_of_another_version_is_refused_by_compare() {
    let metrics = read("metrics.json").replacen("\"version\": 1", "\"version\": 9", 1);
    let path = damaged("metrics.v9.json", &metrics);
    let clean = exports().join("metrics.json");
    refuses(&["compare"], &[&clean, &path], "version 9 (expected 1)");
}
