//! `stale-lint` — the workspace's determinism/panic-safety linter and
//! corpus preflight analyzer.
//!
//! ```text
//! stale-lint source [--root DIR] [--json] [--baseline FILE] [--update-baseline]
//! stale-lint why <RULE> <FN> [--root DIR]
//! stale-lint preflight <FILE> [--json]
//! stale-lint rules
//! ```
//!
//! `source` runs the reachability pass: entry points declared in source
//! (`// stale-lint: entry(<class>)`), one call-graph walk per rule,
//! per-line sink checks inside the reachable functions. `why` answers
//! "why does this rule apply to this function?" with the entry→function
//! call chain the pass proved. `preflight` accepts a world bundle, an
//! engine checkpoint, a metrics-JSON export
//! (`repro --metrics-json`), or a span-trace JSONL file
//! (`repro --trace-out`) — the file kind is sniffed from its shape.
//!
//! The baseline ratchet is strict in both directions: findings beyond a
//! bucket's allowance fail the run, and so do baseline entries that no
//! longer fire (the committed file can only shrink).
//!
//! Exit codes: 0 clean, 1 violations or stale baseline, 2 usage or I/O
//! error.

use stale_lint::diagnostics::{render_human, render_json};
use stale_lint::reach::Analysis;
use stale_lint::{preflight, rules, source, Baseline};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("source") => cmd_source(&args[1..]),
        Some("why") => cmd_why(&args[1..]),
        Some("preflight") => cmd_preflight(&args[1..]),
        Some("rules") => cmd_rules(),
        _ => {
            eprintln!(
                "usage: stale-lint source [--root DIR] [--json] [--baseline FILE] [--update-baseline]\n\
                 \x20      stale-lint why <RULE> <FN> [--root DIR]\n\
                 \x20      stale-lint preflight <FILE> [--json]\n\
                 \x20      stale-lint rules"
            );
            ExitCode::from(2)
        }
    }
}

fn analysis_for(root: &Path) -> Result<Analysis, ExitCode> {
    match source::collect_sources(root) {
        Ok(files) => Ok(Analysis::new(&files)),
        Err(e) => {
            eprintln!("stale-lint: cannot scan {}: {e}", root.display());
            Err(ExitCode::from(2))
        }
    }
}

fn cmd_source(args: &[String]) -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json = false;
    let mut baseline_path: Option<PathBuf> = None;
    let mut update_baseline = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage("--root needs a directory"),
            },
            "--json" => json = true,
            "--baseline" => match it.next() {
                Some(file) => baseline_path = Some(PathBuf::from(file)),
                None => return usage("--baseline needs a file"),
            },
            "--update-baseline" => update_baseline = true,
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    if update_baseline && baseline_path.is_none() {
        return usage("--update-baseline needs --baseline FILE");
    }

    let analysis = match analysis_for(&root) {
        Ok(a) => a,
        Err(code) => return code,
    };
    let diags = analysis.check(true);

    if let Some(path) = &baseline_path {
        if update_baseline {
            let baseline = Baseline::from_diagnostics(&diags);
            if let Err(e) = std::fs::write(path, baseline.to_json()) {
                eprintln!("stale-lint: cannot write {}: {e}", path.display());
                return ExitCode::from(2);
            }
            eprintln!(
                "stale-lint: baseline updated with {} finding(s)",
                diags.len()
            );
            return ExitCode::SUCCESS;
        }
        let baseline = match std::fs::read_to_string(path) {
            Ok(text) => match Baseline::from_json(&text) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("stale-lint: {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            },
            Err(e) => {
                eprintln!("stale-lint: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let stale = baseline.stale_entries(&diags);
        let violations = baseline.violations(&diags);
        let code = report(&violations, json, "source");
        if !stale.is_empty() {
            for entry in &stale {
                eprintln!("stale-lint: stale baseline entry: {entry}");
            }
            eprintln!(
                "stale-lint: {} baseline entr{} no longer fire — the baseline only shrinks; \
                 regenerate with --update-baseline",
                stale.len(),
                if stale.len() == 1 { "y" } else { "ies" }
            );
            return ExitCode::FAILURE;
        }
        return code;
    }
    report(&diags, json, "source")
}

fn cmd_why(args: &[String]) -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut positional: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage("--root needs a directory"),
            },
            _ if !arg.starts_with("--") => positional.push(arg),
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let [rule, target] = positional.as_slice() else {
        return usage(
            "why needs a rule id and a function name (e.g. `why panic-in-shard TableView::table3`)",
        );
    };
    let analysis = match analysis_for(&root) {
        Ok(a) => a,
        Err(code) => return code,
    };
    match analysis.why(rule, target) {
        Ok(chain) => {
            println!("{rule} applies to `{target}` via:");
            for (i, hop) in chain.iter().enumerate() {
                let arrow = if i == 0 { "entry" } else { "calls" };
                println!("  {arrow:>5}  {hop}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("stale-lint: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_preflight(args: &[String]) -> ExitCode {
    let mut file: Option<PathBuf> = None;
    let mut json = false;
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            other if file.is_none() && !other.starts_with("--") => {
                file = Some(PathBuf::from(other));
            }
            other => return usage(&format!("unexpected argument {other}")),
        }
    }
    let Some(file) = file else {
        return usage("preflight needs a bundle, checkpoint, metrics-JSON or trace-JSONL file");
    };
    let diags = preflight::preflight_path(&file);
    report(&diags, json, "preflight")
}

fn cmd_rules() -> ExitCode {
    for rule in rules::ALL {
        println!("{} ({}): {}", rule.id, rule.severity, rule.describe);
        if !rule.classes.is_empty() {
            println!("    entry classes: {}", rule.classes.join(", "));
        }
    }
    println!(
        "declared scopes (via `// stale-lint: scope(...)`): {}",
        rules::DECLARED_SCOPES.join(", ")
    );
    ExitCode::SUCCESS
}

fn report(diags: &[stale_lint::Diagnostic], json: bool, pass: &str) -> ExitCode {
    if json {
        println!("{}", render_json(diags));
    } else if diags.is_empty() {
        eprintln!("stale-lint: {pass} pass clean");
    } else {
        print!("{}", render_human(diags));
        eprintln!("stale-lint: {} {pass} violation(s)", diags.len());
    }
    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("stale-lint: {msg}");
    ExitCode::from(2)
}
