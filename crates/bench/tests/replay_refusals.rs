//! `stale-bench replay` reads a world-fact log through the log's one
//! reader, so a log preflight names is refused before any detector runs:
//! exit 1, the violation on stderr, nothing on stdout.

use std::path::Path;
use worldsim::{ScenarioConfig, World, WorldEvent, WorldLog};

/// A tenth of the tiny world's log, with every event kind.
fn small_log() -> WorldLog {
    let mut cfg = ScenarioConfig::tiny();
    cfg.initial_domains = 12;
    cfg.eras.domain_births_per_day = cfg.eras.domain_births_per_day.scaled(0.1);
    WorldLog::from_datasets(&World::run(cfg))
}

/// Replay the log text at `name` and return (exit code, stdout, stderr).
fn replay(name: &str, text: &str) -> (Option<i32>, String, String) {
    let dir = std::env::temp_dir().join("stale_bench_replay_refusals");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    std::fs::write(&path, text).expect("write log");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_stale-bench"))
        .arg("replay")
        .arg(Path::new(&path))
        .output()
        .expect("run stale-bench");
    let _ = std::fs::remove_file(&path);
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn replay_refuses_successes_above_attempts() {
    let mut log = small_log();
    let tally = log
        .events
        .iter_mut()
        .find_map(|ev| match ev {
            WorldEvent::CrlPublished { attempted, ok, .. } => Some((attempted, ok)),
            _ => None,
        })
        .expect("a CA tally");
    *tally.1 = *tally.0 + 5;
    let (code, stdout, stderr) = replay("ok_above_attempted.jsonl", &log.to_jsonl());
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stdout.is_empty(), "no report: {stdout}");
    assert!(stderr.contains("successes out of"), "{stderr}");
}

#[test]
fn replay_refuses_lines_out_of_canonical_order() {
    let jsonl = small_log().to_jsonl();
    let mut lines: Vec<&str> = jsonl.lines().collect();
    lines.swap(1, 2);
    let swapped: String = lines.iter().map(|l| format!("{l}\n")).collect();
    let (code, stdout, stderr) = replay("reordered.jsonl", &swapped);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stdout.is_empty(), "no report: {stdout}");
    assert!(stderr.contains("canonical order"), "{stderr}");
}
