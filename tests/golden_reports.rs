//! Golden-report snapshots: the paper2023 preset's rendered reports are
//! pinned byte-for-byte under `tests/golden/`.
//!
//! The whole pipeline — world simulation, detection, report rendering —
//! is deterministic for a fixed `ScenarioConfig`, so any byte of drift in
//! these snapshots is a behaviour change that must be intentional. To
//! accept a new baseline after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_reports
//! ```
//!
//! then commit the rewritten files under `tests/golden/`.
//!
//! One test function covers all five snapshots so the (expensive)
//! paper-scale world is simulated exactly once.

use stale_bench::Experiments;
use stale_tls::prelude::*;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

#[test]
fn paper2023_reports_match_goldens() {
    let experiments = Experiments::new(ScenarioConfig::paper2023());
    let snapshots: [(&str, String); 5] = [
        ("table3", experiments.table3()),
        ("table4", experiments.table4()),
        ("fig4", experiments.fig4()),
        ("fig6", experiments.fig6()),
        ("mitigations", experiments.mitigations()),
    ];
    let update = std::env::var("UPDATE_GOLDEN").is_ok_and(|v| !v.is_empty() && v != "0");
    let mut failures = Vec::new();
    for (name, rendered) in &snapshots {
        let path = golden_path(name);
        if update {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, rendered).unwrap();
            eprintln!("updated {}", path.display());
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
            panic!(
                "missing golden {} — run `UPDATE_GOLDEN=1 cargo test --test golden_reports`",
                path.display()
            )
        });
        if *rendered != expected {
            // Point at the first divergent line; a full diff of a table
            // dump is unreadable in test output.
            let line = rendered
                .lines()
                .zip(expected.lines())
                .position(|(a, b)| a != b)
                .map(|i| i + 1)
                .unwrap_or_else(|| rendered.lines().count().min(expected.lines().count()) + 1);
            failures.push(format!("{name}: first divergence at line {line}"));
        }
    }
    assert!(
        failures.is_empty(),
        "golden snapshots drifted ({}); if intentional, refresh with \
         `UPDATE_GOLDEN=1 cargo test --test golden_reports`",
        failures.join("; ")
    );
}
