//! `stale-bench` — bench-trajectory, decision-audit and daemon tooling.
//!
//! ```text
//! stale-bench compare <BASELINE> <CURRENT> [--threshold 0.25]
//!                     [--min-wall-us 1000] [--out BENCH_obs.json] [--json]
//! stale-bench explain <FINGERPRINT> (--audit AUDIT.jsonl | --server ADDR)
//! stale-bench report (--audit AUDIT.jsonl | --server ADDR)
//! stale-bench replay (<WORLDLOG.jsonl> | --simulate PRESET) [--shards N]
//!                    [--incremental] [--rewrite cap-days=N]
//! stale-bench timeline <FINGERPRINT> (--log WORLDLOG.jsonl [--audit FILE]
//!                    [--trace FILE] | --server ADDR)
//! stale-bench query <ADDR> <CMD> [ARGS...]
//! stale-bench watch <ADDR> [--interval-ms 1000] [--frames N]
//! stale-bench slowlog <ADDR>
//! stale-bench subscribe <ADDR> [--max-records N]
//! ```
//!
//! `compare`: `BASELINE` and `CURRENT` are metrics-JSON exports from
//! `repro --metrics-json` — or previous `BENCH_obs.json` comparison
//! artifacts, whose embedded `current` snapshot is used (so CI can chain
//! the committed artifact run over run). Stage wall times are held to the
//! threshold; deterministic `audit.*` count counters present on both
//! sides must match exactly. Exit codes: 0 clean, 1 at least one stage
//! regressed or count drifted, 2 usage/IO error.
//!
//! `explain`: reconstruct one certificate's full decision chain from a
//! `repro --audit-out` JSONL export — or, with `--server`, from a
//! resident `stale-served` daemon's live audit store. File-backed
//! lookups go through a persistent fingerprint→offset sidecar index
//! (`<audit>.idx`, rebuilt automatically when stale and replaced
//! crash-safely), so only the matching decision lines are parsed. `FINGERPRINT` may be any unique
//! prefix; an ambiguous prefix lists its candidates. Exit codes:
//! 0 found, 1 unknown/ambiguous fingerprint, 2 usage/IO error.
//!
//! `replay`: rerun detection from an exported world-fact log
//! (`repro --export-worldlog`) alone and print the fixed replay report
//! (Table 3/4/7, Fig. 4/6/8/9, audit coverage). `--simulate PRESET`
//! simulates the world directly instead — the two paths are
//! byte-identical, which is the CI replay gate. `--rewrite cap-days=N`
//! applies the §6 lifetime-cap counterfactual as a log rewrite before
//! replaying. Exit codes: 0 clean, 1 log/engine failure, 2 usage/IO.
//!
//! `timeline`: render one certificate's joined three-layer view — the
//! world events that created it (layer 1), the audit decisions that
//! kept/dropped it (layer 2), and the spans of the run that touched it
//! (layer 3) — from exported files, or from a resident daemon with
//! `--server`. Exit codes: 0 found, 1 unknown/ambiguous fingerprint,
//! 2 usage/IO error.
//!
//! `report`: render the per-detector coverage table (candidates, kept,
//! dropped-by-reason, Table-7-style CRL match rate) from an audit export
//! or a daemon.
//!
//! `query`: send one raw protocol command (`ping`, `status`, `table4`,
//! `feed-day`, `snapshot`, `shutdown`, …) to a daemon and print the
//! response body. Connection attempts retry briefly, so a query issued
//! right after spawning `stale-served` waits for the socket. Exit codes:
//! 0 `ok` response, 1 `err` response, 2 transport/usage error.
//!
//! `watch`: a refreshing terminal view of a resident daemon — ingest
//! progress and lag, per-command query latency quantiles, staleness
//! events by detector, subscriber/drop counters. Redraws every
//! `--interval-ms` (ANSI clear only when stdout is a TTY); `--frames N`
//! renders N frames and exits (for scripts and CI).
//!
//! `slowlog`: print the daemon's slow-query log (queries that exceeded
//! its `--slow-query-us` threshold, span tree included).
//!
//! `subscribe`: attach as a push subscriber and print streamed records
//! (`event<TAB>json` / `span<TAB>json`, one per line) as the daemon
//! ingests. `--max-records N` exits 0 after N records; without it the
//! stream runs until the daemon closes it.

use stale_bench::compare::{compare, parse_snapshot, DEFAULT_MIN_WALL_US, DEFAULT_THRESHOLD};
use std::path::Path;
use std::process::ExitCode;

fn usage() -> String {
    "usage: stale-bench compare <BASELINE> <CURRENT> [--threshold FRACTION] \
     [--min-wall-us US] [--out PATH] [--json]\n\
     \x20      stale-bench explain <FINGERPRINT> (--audit FILE | --server ADDR)\n\
     \x20      stale-bench report (--audit FILE | --server ADDR)\n\
     \x20      stale-bench replay (<WORLDLOG> | --simulate PRESET) [--shards N]\n\
     \x20                         [--incremental] [--rewrite cap-days=N]\n\
     \x20      stale-bench timeline <FINGERPRINT> (--log WORLDLOG [--audit FILE]\n\
     \x20                         [--trace FILE] | --server ADDR)\n\
     \x20      stale-bench query <ADDR> <CMD> [ARGS...]\n\
     \x20      stale-bench watch <ADDR> [--interval-ms MS] [--frames N]\n\
     \x20      stale-bench slowlog <ADDR>\n\
     \x20      stale-bench subscribe <ADDR> [--max-records N]\n\
     \n\
     compare: diff two metrics-JSON exports (repro --metrics-json) stage by\n\
     stage. A stage regresses when its wall time exceeds baseline *\n\
     (1 + threshold) and the baseline is at least the noise floor; audit.*\n\
     count counters present on both sides must match exactly. Either input\n\
     may be a previous comparison artifact (its embedded `current` is used).\n\
     Exit: 0 clean, 1 regression(s)/drift(s), 2 error.\n\
     \n\
     explain: print one certificate's decision chain from a decision-audit\n\
     export (repro --audit-out) or a resident stale-served daemon.\n\
     FINGERPRINT may be a unique prefix.\n\
     Exit: 0 found, 1 unknown or ambiguous fingerprint, 2 error.\n\
     \n\
     report: print the per-detector coverage table from an audit export\n\
     or a resident stale-served daemon.\n\
     \n\
     replay: rerun detection from an exported world-fact log alone\n\
     (repro --export-worldlog) and print the fixed replay report;\n\
     --simulate PRESET simulates directly instead (byte-identical).\n\
     --rewrite cap-days=N applies the lifetime-cap counterfactual as a\n\
     log rewrite. Exit: 0 clean, 1 log/engine failure, 2 error.\n\
     \n\
     timeline: one certificate's joined world-event + audit-decision +\n\
     telemetry view, from exported files or a resident daemon.\n\
     Exit: 0 found, 1 unknown or ambiguous fingerprint, 2 error.\n\
     \n\
     query: send one protocol command to a stale-served daemon and print\n\
     the response body. Exit: 0 ok, 1 err response, 2 transport error.\n\
     \n\
     watch: refreshing live view of a daemon (ingest lag, per-command\n\
     latency quantiles, staleness events by detector). --frames N exits\n\
     after N renders.\n\
     \n\
     slowlog: print the daemon's slow-query log (span trees of queries\n\
     over its --slow-query-us threshold).\n\
     \n\
     subscribe: stream pushed event/span records, one per line, until\n\
     --max-records N records arrived (or the daemon closes the stream)."
        .to_string()
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("stale-bench: {msg}");
    ExitCode::from(2)
}

/// Where an audit-backed command reads its decisions from: a JSONL
/// export on disk, or a resident daemon.
enum AuditSource {
    File { path: String, text: String },
    Server(String),
}

/// Parse `rest` as `[POSITIONAL...] (--audit FILE | --server ADDR)`,
/// expecting exactly `positional` free arguments.
fn load_audit_source(
    rest: &[String],
    positional: usize,
) -> Result<(Vec<String>, AuditSource), String> {
    let mut free: Vec<String> = Vec::new();
    let mut audit_path: Option<String> = None;
    let mut server: Option<String> = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--audit" => {
                let Some(v) = it.next() else {
                    return Err("--audit needs a path".to_string());
                };
                audit_path = Some(v.clone());
            }
            "--server" => {
                let Some(v) = it.next() else {
                    return Err("--server needs an address".to_string());
                };
                server = Some(v.clone());
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other:?}\n{}", usage()));
            }
            _ => free.push(arg.clone()),
        }
    }
    if free.len() != positional {
        return Err(format!(
            "expected {positional} positional argument(s), got {}\n{}",
            free.len(),
            usage()
        ));
    }
    match (audit_path, server) {
        (Some(_), Some(_)) => Err("--audit and --server are mutually exclusive".to_string()),
        (None, None) => Err(format!(
            "--audit FILE or --server ADDR is required\n{}",
            usage()
        )),
        (None, Some(addr)) => Ok((free, AuditSource::Server(addr))),
        (Some(path), None) => {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
            Ok((free, AuditSource::File { path, text }))
        }
    }
}

/// Send one command line to a daemon, with brief connection retries.
fn server_request(addr: &str, line: &str) -> Result<Result<String, String>, String> {
    let mut client =
        stale_served::Client::connect_retry(addr, 40, std::time::Duration::from_millis(250))
            .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    client
        .request(line)
        .map_err(|e| format!("request to {addr} failed: {e}"))
}

/// Print an audit-query response: the body on success (exit 0), the
/// daemon/report error on a known failure (exit 1).
fn finish_audit_query(resp: Result<String, String>) -> ExitCode {
    match resp {
        Ok(text) => {
            print!("{text}");
            if !text.ends_with('\n') {
                println!();
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("stale-bench: {e}");
            ExitCode::from(1)
        }
    }
}

fn cmd_explain(rest: &[String]) -> ExitCode {
    let (free, source) = match load_audit_source(rest, 1) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    let Some(fingerprint) = free.first() else {
        return fail("missing fingerprint");
    };
    match source {
        AuditSource::File { path, text } => {
            // The sidecar index makes repeat lookups read only the
            // decision lines for one fingerprint, however large the
            // store; its rendering is byte-identical to the in-memory
            // path (tests/explain_index.rs).
            let index = match obs::ExplainIndex::load_or_build(Path::new(&path), &text) {
                Ok(i) => i,
                Err(e) => return fail(&format!("{path}: {e}")),
            };
            finish_audit_query(index.render_explain_from(&text, fingerprint))
        }
        AuditSource::Server(addr) => {
            match server_request(&addr, &format!("explain {fingerprint}")) {
                Ok(resp) => finish_audit_query(resp),
                Err(e) => fail(&e),
            }
        }
    }
}

fn cmd_report(rest: &[String]) -> ExitCode {
    let (_, source) = match load_audit_source(rest, 0) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    match source {
        AuditSource::File { path, text } => {
            let report = match obs::AuditReport::from_jsonl(&text) {
                Ok(r) => r,
                Err(e) => return fail(&format!("{path}: {e}")),
            };
            finish_audit_query(Ok(report.render_coverage()))
        }
        AuditSource::Server(addr) => match server_request(&addr, "report") {
            Ok(resp) => finish_audit_query(resp),
            Err(e) => fail(&e),
        },
    }
}

fn cmd_replay(rest: &[String]) -> ExitCode {
    let mut log_path: Option<String> = None;
    let mut simulate: Option<String> = None;
    let mut opts = stale_bench::replay::ReplayOptions::default();
    let mut cap_days: Option<i64> = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--simulate" => {
                let Some(v) = it.next() else {
                    return fail("--simulate needs a preset (paper | small | tiny)");
                };
                simulate = Some(v.clone());
            }
            "--shards" => {
                let Some(v) = it.next().and_then(|v| v.parse::<usize>().ok()) else {
                    return fail("--shards needs a positive integer");
                };
                if v == 0 {
                    return fail("--shards needs a positive integer");
                }
                opts.shards = v;
            }
            "--incremental" => opts.incremental = true,
            "--rewrite" => {
                let Some(v) = it.next() else {
                    return fail("--rewrite needs a rule (cap-days=N)");
                };
                let Some(n) = v
                    .strip_prefix("cap-days=")
                    .and_then(|n| n.parse::<i64>().ok())
                else {
                    return fail(&format!("unknown rewrite rule {v:?} (try cap-days=N)"));
                };
                cap_days = Some(n);
            }
            other if other.starts_with('-') => {
                return fail(&format!("unknown flag {other:?}\n{}", usage()));
            }
            _ if log_path.is_none() => log_path = Some(arg.clone()),
            _ => return fail(&format!("replay takes one log path\n{}", usage())),
        }
    }
    // Obtain a world log: parsed from an export, or extracted from a
    // fresh simulation (the direct side of the CI byte-identity gate).
    let log = match (log_path, simulate) {
        (Some(_), Some(_)) => return fail("--simulate and a log path are mutually exclusive"),
        (None, None) => {
            return fail(&format!(
                "replay needs a log path or --simulate\n{}",
                usage()
            ))
        }
        (Some(path), None) => {
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => return fail(&format!("cannot read {path}: {e}")),
            };
            match worldsim::WorldLog::from_jsonl(&text) {
                Ok(log) => log,
                Err(e) => {
                    eprintln!("stale-bench: {path}: {e}");
                    return ExitCode::from(1);
                }
            }
        }
        (None, Some(preset)) => {
            let cfg = match preset.as_str() {
                "paper" => worldsim::ScenarioConfig::paper2023(),
                "small" => worldsim::ScenarioConfig::small(),
                "tiny" => worldsim::ScenarioConfig::tiny(),
                other => return fail(&format!("unknown preset {other:?}")),
            };
            worldsim::WorldLog::from_datasets(&worldsim::World::run(cfg))
        }
    };
    let log = match cap_days {
        None => log,
        Some(n) => match log.rewrite_cap_days(n) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("stale-bench: {e}");
                return ExitCode::from(1);
            }
        },
    };
    let data = match log.to_datasets() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("stale-bench: log does not reconstruct: {e}");
            return ExitCode::from(1);
        }
    };
    match stale_bench::replay::replay_run(data, &opts) {
        Ok(run) => {
            print!("{}", stale_bench::replay::replay_report(&run));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("stale-bench: {e}");
            ExitCode::from(1)
        }
    }
}

fn cmd_timeline(rest: &[String]) -> ExitCode {
    let mut fingerprint: Option<String> = None;
    let mut log_path: Option<String> = None;
    let mut audit_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut server: Option<String> = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--log" => match it.next() {
                Some(v) => log_path = Some(v.clone()),
                None => return fail("--log needs a path"),
            },
            "--audit" => match it.next() {
                Some(v) => audit_path = Some(v.clone()),
                None => return fail("--audit needs a path"),
            },
            "--trace" => match it.next() {
                Some(v) => trace_path = Some(v.clone()),
                None => return fail("--trace needs a path"),
            },
            "--server" => match it.next() {
                Some(v) => server = Some(v.clone()),
                None => return fail("--server needs an address"),
            },
            other if other.starts_with('-') => {
                return fail(&format!("unknown flag {other:?}\n{}", usage()));
            }
            _ if fingerprint.is_none() => fingerprint = Some(arg.clone()),
            _ => return fail(&format!("timeline takes one fingerprint\n{}", usage())),
        }
    }
    let Some(fingerprint) = fingerprint else {
        return fail(&format!("timeline needs a fingerprint\n{}", usage()));
    };
    if let Some(addr) = server {
        if log_path.is_some() || audit_path.is_some() || trace_path.is_some() {
            return fail("--server and file layers are mutually exclusive");
        }
        return match server_request(&addr, &format!("timeline {fingerprint}")) {
            Ok(resp) => finish_audit_query(resp),
            Err(e) => fail(&e),
        };
    }
    let Some(log_path) = log_path else {
        return fail(&format!(
            "timeline needs --log FILE or --server ADDR\n{}",
            usage()
        ));
    };
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let log_text = match read(&log_path) {
        Ok(t) => t,
        Err(e) => return fail(&e),
    };
    let log = match worldsim::WorldLog::from_jsonl(&log_text) {
        Ok(log) => log,
        Err(e) => {
            eprintln!("stale-bench: {log_path}: {e}");
            return ExitCode::from(1);
        }
    };
    let audit = match &audit_path {
        None => None,
        Some(path) => match read(path)
            .and_then(|t| obs::AuditReport::from_jsonl(&t).map_err(|e| format!("{path}: {e}")))
        {
            Ok(report) => Some(report),
            Err(e) => return fail(&e),
        },
    };
    let trace_text = match &trace_path {
        None => None,
        Some(path) => match read(path) {
            Ok(t) => Some(t),
            Err(e) => return fail(&e),
        },
    };
    finish_audit_query(stale_core::timeline::render_timeline(
        &log,
        audit.as_ref(),
        trace_text.as_deref(),
        &fingerprint,
    ))
}

fn cmd_query(rest: &[String]) -> ExitCode {
    let Some((addr, words)) = rest.split_first() else {
        return fail(&format!(
            "query needs an address and a command\n{}",
            usage()
        ));
    };
    if words.is_empty() {
        return fail(&format!(
            "query needs a command after the address\n{}",
            usage()
        ));
    }
    match server_request(addr, &words.join(" ")) {
        Ok(resp) => finish_audit_query(resp),
        Err(e) => fail(&e),
    }
}

fn cmd_slowlog(rest: &[String]) -> ExitCode {
    let [addr] = rest else {
        return fail(&format!("slowlog needs exactly one address\n{}", usage()));
    };
    match server_request(addr, "slowlog") {
        Ok(resp) => finish_audit_query(resp),
        Err(e) => fail(&e),
    }
}

fn cmd_subscribe(rest: &[String]) -> ExitCode {
    let mut addr: Option<&String> = None;
    let mut max_records: Option<u64> = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--max-records" => {
                let Some(v) = it.next().and_then(|v| v.parse::<u64>().ok()) else {
                    return fail("--max-records needs a positive integer");
                };
                if v == 0 {
                    return fail("--max-records needs a positive integer");
                }
                max_records = Some(v);
            }
            other if other.starts_with('-') => {
                return fail(&format!("unknown flag {other:?}\n{}", usage()));
            }
            _ if addr.is_none() => addr = Some(arg),
            _ => return fail(&format!("subscribe takes one address\n{}", usage())),
        }
    }
    let Some(addr) = addr else {
        return fail(&format!("subscribe needs an address\n{}", usage()));
    };
    let client = match stale_served::Client::connect_retry(
        addr,
        40,
        std::time::Duration::from_millis(250),
    ) {
        Ok(c) => c,
        Err(e) => return fail(&format!("cannot connect to {addr}: {e}")),
    };
    let (ack, mut sub) = match client.subscribe() {
        Ok(v) => v,
        Err(e) => return fail(&format!("subscribe to {addr} failed: {e}")),
    };
    eprintln!("stale-bench: {ack}");
    let mut received = 0u64;
    loop {
        match sub.next_record() {
            Ok((kind, body)) => {
                println!("{kind}\t{body}");
                received += 1;
                if let Some(max) = max_records {
                    if received >= max {
                        return ExitCode::SUCCESS;
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                return match max_records {
                    // An open-ended stream ending is the normal exit.
                    None => ExitCode::SUCCESS,
                    Some(max) => {
                        eprintln!("stale-bench: stream closed after {received} of {max} record(s)");
                        ExitCode::from(1)
                    }
                };
            }
            Err(e) => return fail(&format!("subscription to {addr} failed: {e}")),
        }
    }
}

/// One rendered `watch` frame.
fn render_watch_frame(addr: &str, frame: u64, status: &str, snap: &obs::MetricsSnapshot) -> String {
    let mut out = format!("stale-served {addr} — watch frame {frame}\n\n");
    for line in status.lines() {
        out.push_str(&format!("  {line}\n"));
    }
    let get_hist = |name: &str| snap.histograms.get(name);
    out.push_str("\ningest\n");
    match get_hist("served.ingest.lag_days") {
        Some(lag) => out.push_str(&format!(
            "  lag-days: p50 {} p90 {} max {} ({} sample(s))\n",
            lag.p50, lag.p90, lag.max, lag.count
        )),
        None => out.push_str("  lag-days: no samples yet\n"),
    }
    if let Some(batch) = get_hist("served.ingest.batch_wall_us") {
        out.push_str(&format!(
            "  batch-wall-us: p50 {} p99 {} max {} ({} batch(es))\n",
            batch.p50, batch.p99, batch.max, batch.count
        ));
    }
    out.push_str("\nquery latency (µs)\n");
    let mut any = false;
    for (name, hist) in &snap.histograms {
        let Some(tag) = name
            .strip_prefix("served.query.")
            .and_then(|n| n.strip_suffix("_us"))
        else {
            continue;
        };
        any = true;
        out.push_str(&format!(
            "  {:<12} {:>7}  p50 {:>9}  p90 {:>9}  p99 {:>9}  max {:>9}\n",
            tag, hist.count, hist.p50, hist.p90, hist.p99, hist.max
        ));
    }
    if !any {
        out.push_str("  no queries served yet\n");
    }
    out.push_str("\nstaleness events by detector\n");
    let mut any = false;
    for (name, value) in &snap.counters {
        let Some(det) = name.strip_prefix("served.events.") else {
            continue;
        };
        any = true;
        out.push_str(&format!("  {det:<12} {value:>10}\n"));
    }
    if !any {
        out.push_str("  none emitted yet\n");
    }
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let attached = counter("served.sub.attached");
    let detached = counter("served.sub.detached");
    out.push_str(&format!(
        "\nsubscribers: {} active ({attached} attached, {detached} detached, {} record(s) dropped)\n",
        attached.saturating_sub(detached),
        counter("served.sub.dropped"),
    ));
    out
}

fn cmd_watch(rest: &[String]) -> ExitCode {
    let mut addr: Option<&String> = None;
    let mut interval_ms = 1_000u64;
    let mut frames = 0u64; // 0 = until interrupted
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--interval-ms" => {
                let Some(v) = it.next().and_then(|v| v.parse::<u64>().ok()) else {
                    return fail("--interval-ms needs an integer millisecond value");
                };
                interval_ms = v.max(50);
            }
            "--frames" => {
                let Some(v) = it.next().and_then(|v| v.parse::<u64>().ok()) else {
                    return fail("--frames needs a positive integer");
                };
                if v == 0 {
                    return fail("--frames needs a positive integer");
                }
                frames = v;
            }
            other if other.starts_with('-') => {
                return fail(&format!("unknown flag {other:?}\n{}", usage()));
            }
            _ if addr.is_none() => addr = Some(arg),
            _ => return fail(&format!("watch takes one address\n{}", usage())),
        }
    }
    let Some(addr) = addr else {
        return fail(&format!("watch needs an address\n{}", usage()));
    };
    use std::io::{IsTerminal, Write as _};
    let clear = std::io::stdout().is_terminal();
    let mut frame = 0u64;
    loop {
        frame += 1;
        let fetch = |line: &str| -> Result<String, String> {
            match server_request(addr, line) {
                Ok(Ok(body)) => Ok(body),
                Ok(Err(e)) => Err(format!("daemon error: {e}")),
                Err(e) => Err(e),
            }
        };
        let status = match fetch("status") {
            Ok(s) => s,
            Err(e) => return fail(&e),
        };
        let metrics = match fetch("metrics") {
            Ok(s) => s,
            Err(e) => return fail(&e),
        };
        let snap: obs::MetricsSnapshot = match serde_json::from_str(&metrics) {
            Ok(s) => s,
            Err(e) => return fail(&format!("metrics export does not parse: {e}")),
        };
        if clear {
            print!("\x1b[2J\x1b[H");
        }
        print!("{}", render_watch_frame(addr, frame, &status, &snap));
        let _ = std::io::stdout().flush();
        if frames > 0 && frame >= frames {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

fn cmd_compare(rest: &[String]) -> ExitCode {
    let mut paths: Vec<&String> = Vec::new();
    let mut threshold = DEFAULT_THRESHOLD;
    let mut min_wall_us = DEFAULT_MIN_WALL_US;
    let mut out_path: Option<String> = None;
    let mut emit_json = false;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threshold" => {
                let Some(v) = it.next().and_then(|v| v.parse::<f64>().ok()) else {
                    return fail("--threshold needs a fractional value (e.g. 0.25)");
                };
                if !v.is_finite() || v < 0.0 {
                    return fail("--threshold must be a non-negative finite fraction");
                }
                threshold = v;
            }
            "--min-wall-us" => {
                let Some(v) = it.next().and_then(|v| v.parse::<u64>().ok()) else {
                    return fail("--min-wall-us needs an integer microsecond value");
                };
                min_wall_us = v;
            }
            "--out" => {
                let Some(v) = it.next() else {
                    return fail("--out needs a path");
                };
                out_path = Some(v.clone());
            }
            "--json" => emit_json = true,
            other if other.starts_with('-') => {
                return fail(&format!("unknown flag {other:?}\n{}", usage()));
            }
            _ => paths.push(arg),
        }
    }
    let [baseline_path, current_path] = paths.as_slice() else {
        return fail(&format!("compare needs exactly two inputs\n{}", usage()));
    };

    let read = |path: &str| -> Result<obs::MetricsSnapshot, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        parse_snapshot(&text).map_err(|e| format!("{path}: {e}"))
    };
    let baseline = match read(baseline_path) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };
    let current = match read(current_path) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };

    let cmp = compare(&baseline, &current, threshold, min_wall_us);
    let artifact = serde_json::to_string_pretty(&cmp);
    if let Some(path) = &out_path {
        let artifact = match &artifact {
            Ok(a) => a,
            Err(e) => return fail(&format!("cannot serialize comparison: {e:?}")),
        };
        if let Err(e) = std::fs::write(path, format!("{artifact}\n")) {
            return fail(&format!("cannot write {path}: {e}"));
        }
    }
    if emit_json {
        match &artifact {
            Ok(a) => println!("{a}"),
            Err(e) => return fail(&format!("cannot serialize comparison: {e:?}")),
        }
    } else {
        print!("{}", cmp.render_human());
    }

    if cmp.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    match cmd.as_str() {
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            ExitCode::SUCCESS
        }
        "compare" => cmd_compare(rest),
        "explain" => cmd_explain(rest),
        "report" => cmd_report(rest),
        "replay" => cmd_replay(rest),
        "timeline" => cmd_timeline(rest),
        "query" => cmd_query(rest),
        "watch" => cmd_watch(rest),
        "slowlog" => cmd_slowlog(rest),
        "subscribe" => cmd_subscribe(rest),
        other => fail(&format!("unknown subcommand {other:?}\n{}", usage())),
    }
}
