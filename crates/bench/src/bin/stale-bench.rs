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
//! regressed or count drifted, or an input the metrics reader refuses,
//! 2 usage/IO error.
//!
//! Every file a command reads goes through its format's one reader —
//! the same reader `stale-lint preflight` runs to completion — so a file
//! preflight names is refused: exit 1, the file and the first violated
//! rule on stderr, nothing on stdout.
//!
//! `explain`: reconstruct one certificate's full decision chain from a
//! `repro --audit-out` JSONL export — or, with `--server`, from a
//! resident `stale-served` daemon's live audit store. File-backed
//! lookups go through a persistent fingerprint→offset sidecar index
//! (`<audit>.idx`, keyed to the audit's content digest, built only
//! through the audit's reader, rebuilt whenever it does not describe the
//! file and replaced crash-safely), so only the matching decision lines
//! are parsed. `FINGERPRINT` may be any unique prefix; an ambiguous
//! prefix lists its candidates. Exit codes: 0 found, 1 unknown/ambiguous
//! fingerprint or refused audit, 2 usage/IO error.
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
//! `--server`. Exit codes: 0 found, 1 unknown/ambiguous fingerprint or
//! a refused log, audit or trace, 2 usage/IO error.
//!
//! `report`: render the per-detector coverage table (candidates, kept,
//! dropped-by-reason, Table-7-style CRL match rate) from an audit export
//! or a daemon. Exit codes: 0 rendered, 1 refused audit or daemon error,
//! 2 usage/IO error.
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
use std::collections::BTreeMap;
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
     Exit: 0 clean, 1 regression(s)/drift(s) or a refused input, 2 error.\n\
     \n\
     explain: print one certificate's decision chain from a decision-audit\n\
     export (repro --audit-out) or a resident stale-served daemon.\n\
     FINGERPRINT may be a unique prefix.\n\
     Exit: 0 found, 1 unknown/ambiguous fingerprint or refused audit, 2 error.\n\
     \n\
     report: print the per-detector coverage table from an audit export\n\
     or a resident stale-served daemon. Exit: 0 ok, 1 refused audit, 2 error.\n\
     \n\
     replay: rerun detection from an exported world-fact log alone\n\
     (repro --export-worldlog) and print the fixed replay report;\n\
     --simulate PRESET simulates directly instead (byte-identical).\n\
     --rewrite cap-days=N applies the lifetime-cap counterfactual as a\n\
     log rewrite. Exit: 0 clean, 1 log/engine failure, 2 error.\n\
     \n\
     timeline: one certificate's joined world-event + audit-decision +\n\
     telemetry view, from exported files or a resident daemon.\n\
     Exit: 0 found, 1 unknown/ambiguous fingerprint or refused file, 2 error.\n\
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

/// A file its format's reader refused: exit 1, the file and the first
/// violated rule on stderr.
fn refused(path: &str, why: &str) -> ExitCode {
    eprintln!("stale-bench: {path}: {why}");
    ExitCode::from(1)
}

/// The file at `path`, through its format's `reader`: exit 2 when it
/// cannot be read, [`refused`] when the reader refuses it.
fn load<T>(path: &str, reader: impl FnOnce(&str) -> Result<T, String>) -> Result<T, ExitCode> {
    let text =
        std::fs::read_to_string(path).map_err(|e| fail(&format!("cannot read {path}: {e}")))?;
    reader(&text).map_err(|e| refused(path, &e))
}

/// One subcommand's arguments: its positional words, and the flags it
/// accepts — `--flag VALUE`, or a bare `--flag` for a switch (a repeated
/// flag keeps its last value).
struct Args {
    free: Vec<String>,
    flags: BTreeMap<&'static str, String>,
}

impl Args {
    fn parse(
        rest: &[String],
        valued: &[&'static str],
        switches: &[&'static str],
    ) -> Result<Args, String> {
        let mut args = Args {
            free: Vec::new(),
            flags: BTreeMap::new(),
        };
        let mut it = rest.iter();
        while let Some(arg) = it.next() {
            if let Some(flag) = valued.iter().find(|f| **f == arg) {
                let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                args.flags.insert(flag, value.clone());
            } else if let Some(flag) = switches.iter().find(|f| **f == arg) {
                args.flags.insert(flag, String::new());
            } else if arg.starts_with('-') {
                return Err(format!("unknown flag {arg:?}\n{}", usage()));
            } else {
                args.free.push(arg.clone());
            }
        }
        Ok(args)
    }

    fn get(&self, flag: &str) -> Option<&String> {
        self.flags.get(flag)
    }

    /// A numeric flag's value: `default` when it is absent, `None` when
    /// it does not parse.
    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Option<T> {
        self.get(flag).map_or(Some(default), |v| v.parse().ok())
    }
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
    let Args { free, flags } = Args::parse(rest, &["--audit", "--server"], &[])?;
    if free.len() != positional {
        return Err(format!(
            "expected {positional} positional argument(s), got {}\n{}",
            free.len(),
            usage()
        ));
    }
    match (flags.get("--audit"), flags.get("--server")) {
        (Some(_), Some(_)) => Err("--audit and --server are mutually exclusive".to_string()),
        (None, None) => Err(format!(
            "--audit FILE or --server ADDR is required\n{}",
            usage()
        )),
        (None, Some(addr)) => Ok((free, AuditSource::Server(addr.clone()))),
        (Some(path), None) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let path = path.clone();
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
            // Through the sidecar index: byte-identical to the full scan
            // (tests/explain_index.rs), reading one fingerprint's lines.
            let index = match obs::ExplainIndex::load_or_build(Path::new(&path), &text) {
                Ok(i) => i,
                Err(e) => return refused(&path, &e),
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
                Err(e) => return refused(&path, &e),
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
    let args = match Args::parse(
        rest,
        &["--simulate", "--shards", "--rewrite"],
        &["--incremental"],
    ) {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    let mut opts = stale_bench::replay::ReplayOptions::default();
    opts.incremental = args.get("--incremental").is_some();
    opts.shards = match args.number("--shards", opts.shards) {
        Some(n) if n > 0 => n,
        _ => return fail("--shards needs a positive integer"),
    };
    let cap_days = match args.get("--rewrite") {
        None => None,
        Some(v) => match v
            .strip_prefix("cap-days=")
            .and_then(|n| n.parse::<i64>().ok())
        {
            Some(n) => Some(n),
            None => return fail(&format!("unknown rewrite rule {v:?} (try cap-days=N)")),
        },
    };
    if args.free.len() > 1 {
        return fail(&format!("replay takes one log path\n{}", usage()));
    }
    // Obtain a world log: parsed from an export, or extracted from a
    // fresh simulation (the direct side of the CI byte-identity gate).
    let log = match (args.free.first(), args.get("--simulate")) {
        (Some(_), Some(_)) => return fail("--simulate and a log path are mutually exclusive"),
        (None, None) => {
            return fail(&format!(
                "replay needs a log path or --simulate\n{}",
                usage()
            ))
        }
        (Some(path), None) => match load(path, worldsim::WorldLog::from_jsonl) {
            Ok(log) => log,
            Err(code) => return code,
        },
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
    let args = match Args::parse(rest, &["--log", "--audit", "--trace", "--server"], &[]) {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    let [fingerprint] = args.free.as_slice() else {
        return fail(&format!("timeline takes one fingerprint\n{}", usage()));
    };
    let (log_path, audit_path, trace_path) =
        (args.get("--log"), args.get("--audit"), args.get("--trace"));
    if let Some(addr) = args.get("--server") {
        if log_path.is_some() || audit_path.is_some() || trace_path.is_some() {
            return fail("--server and file layers are mutually exclusive");
        }
        return match server_request(addr, &format!("timeline {fingerprint}")) {
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
    let log = match load(log_path, worldsim::WorldLog::from_jsonl) {
        Ok(log) => log,
        Err(code) => return code,
    };
    let audit = match audit_path
        .map(|p| load(p, obs::AuditReport::from_jsonl))
        .transpose()
    {
        Ok(audit) => audit,
        Err(code) => return code,
    };
    let spans = match trace_path
        .map(|p| load(p, obs::trace::spans_from_jsonl))
        .transpose()
    {
        Ok(spans) => spans,
        Err(code) => return code,
    };
    finish_audit_query(stale_core::timeline::render_timeline(
        &log,
        audit.as_ref(),
        spans.as_deref(),
        fingerprint,
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
    let args = match Args::parse(rest, &["--max-records"], &[]) {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    let max_records = match args.get("--max-records").map(|v| v.parse::<u64>()) {
        None => None,
        Some(Ok(n)) if n > 0 => Some(n),
        Some(_) => return fail("--max-records needs a positive integer"),
    };
    let [addr] = args.free.as_slice() else {
        return fail(&format!("subscribe takes one address\n{}", usage()));
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
    let args = match Args::parse(rest, &["--interval-ms", "--frames"], &[]) {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    let Some(interval_ms) = args.number("--interval-ms", 1_000u64) else {
        return fail("--interval-ms needs an integer millisecond value");
    };
    let frames = match args.get("--frames").map(|v| v.parse::<u64>()) {
        None => 0, // until interrupted
        Some(Ok(n)) if n > 0 => n,
        Some(_) => return fail("--frames needs a positive integer"),
    };
    let [addr] = args.free.as_slice() else {
        return fail(&format!("watch takes one address\n{}", usage()));
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
        let snap = match obs::MetricsSnapshot::from_json(&metrics) {
            Ok(s) => s,
            Err(e) => return refused(&format!("{addr} metrics"), &e),
        };
        if clear {
            print!("\x1b[2J\x1b[H");
        }
        print!("{}", render_watch_frame(addr, frame, &status, &snap));
        let _ = std::io::stdout().flush();
        if frames > 0 && frame >= frames {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(50)));
    }
}

fn cmd_compare(rest: &[String]) -> ExitCode {
    let args = match Args::parse(
        rest,
        &["--threshold", "--min-wall-us", "--out"],
        &["--json"],
    ) {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    let threshold = match args.number("--threshold", DEFAULT_THRESHOLD) {
        Some(v) if v.is_finite() && v >= 0.0 => v,
        _ => return fail("--threshold needs a non-negative finite fraction (e.g. 0.25)"),
    };
    let Some(min_wall_us) = args.number("--min-wall-us", DEFAULT_MIN_WALL_US) else {
        return fail("--min-wall-us needs an integer microsecond value");
    };
    let (out_path, emit_json) = (args.get("--out"), args.get("--json").is_some());
    let [baseline_path, current_path] = args.free.as_slice() else {
        return fail(&format!("compare needs exactly two inputs\n{}", usage()));
    };
    let baseline = match load(baseline_path, parse_snapshot) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let current = match load(current_path, parse_snapshot) {
        Ok(s) => s,
        Err(code) => return code,
    };

    let cmp = compare(&baseline, &current, threshold, min_wall_us);
    let artifact = serde_json::to_string_pretty(&cmp);
    if let Some(path) = out_path {
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
