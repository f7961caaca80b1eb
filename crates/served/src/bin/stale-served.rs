//! `stale-served` — serve detection state over TCP.
//!
//! ```text
//! stale-served [preset] [--listen ADDR] [--shards N] [--delay-days N]
//!              [--checkpoint FILE] [--checkpoint-every N] [--http ADDR]
//!              [--slow-query-us N] [--worldlog FILE]
//!
//! presets:      paper (default) | small | tiny
//! --listen ADDR bind address (default 127.0.0.1:7979; use :0 for an
//!               ephemeral port — the bound address is printed)
//! --shards N    partition width (answers are byte-identical for any N)
//! --delay-days N
//!               hold fed days back from queries for N fed days
//! --checkpoint FILE
//!               resume from FILE at boot: re-fold the feed through the
//!               day it records (a batch, incremental or daemon
//!               checkpoint of the same world, taken at any width;
//!               anything else is refused with the reason on stderr)
//!               and use it as the default `snapshot` target
//! --checkpoint-every N
//!               auto-snapshot to the --checkpoint file after every N
//!               ingested days (needs --checkpoint)
//! --http ADDR   also serve the read-only HTTP telemetry plane
//!               (/metrics, /healthz, /readyz, /status, /timeline,
//!               /tables/..., /slowlog, /window) on ADDR
//! --slow-query-us N
//!               capture queries at or above N µs (span tree included)
//!               in the slow-query log (`slowlog` / GET /slowlog), which
//!               keeps the last 64
//! --worldlog FILE
//!               boot the world from an exported stale-obs-worldlog
//!               JSONL file instead of simulating the preset
//! ```
//!
//! Prints `listening on ADDR` once the socket is bound (and `http on
//! ADDR` when `--http` is given), then serves until a client sends
//! `shutdown`. The world builds in the background; early requests
//! queue, so a successful `ping` means the daemon is ready. Query with
//! `stale-bench query ADDR CMD [ARGS...]`, watch live with
//! `stale-bench watch ADDR`.

use stale_served::{Daemon, DaemonConfig};
use worldsim::ScenarioConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut preset = "paper".to_string();
    let mut listen = "127.0.0.1:7979".to_string();
    let mut shards = 1usize;
    let mut delay_days = 0i64;
    let mut checkpoint: Option<std::path::PathBuf> = None;
    let mut http: Option<String> = None;
    let mut slow_query_us: Option<u64> = None;
    let mut checkpoint_every: Option<u64> = None;
    let mut worldlog: Option<std::path::PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "paper" | "small" | "tiny" => preset = arg.clone(),
            "--listen" => match it.next() {
                Some(addr) => listen = addr.clone(),
                None => usage_error("--listen needs an address"),
            },
            "--shards" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => shards = n,
                _ => usage_error("--shards needs a positive integer"),
            },
            "--delay-days" => match it.next().and_then(|v| v.parse::<i64>().ok()) {
                Some(n) if n >= 0 => delay_days = n,
                _ => usage_error("--delay-days needs a non-negative integer"),
            },
            "--checkpoint" => match it.next() {
                Some(path) => checkpoint = Some(path.into()),
                None => usage_error("--checkpoint needs a file path"),
            },
            "--http" => match it.next() {
                Some(addr) => http = Some(addr.clone()),
                None => usage_error("--http needs an address"),
            },
            "--slow-query-us" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) => slow_query_us = Some(n),
                None => usage_error("--slow-query-us needs a non-negative integer"),
            },
            "--checkpoint-every" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) if n > 0 => checkpoint_every = Some(n),
                _ => usage_error("--checkpoint-every needs a positive integer"),
            },
            "--worldlog" => match it.next() {
                Some(path) => worldlog = Some(path.into()),
                None => usage_error("--worldlog needs a file path"),
            },
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }
    if checkpoint_every.is_some() && checkpoint.is_none() {
        usage_error("--checkpoint-every needs --checkpoint for the snapshot target");
    }
    let scenario = match preset.as_str() {
        "small" => ScenarioConfig::small(),
        "tiny" => ScenarioConfig::tiny(),
        _ => ScenarioConfig::paper2023(),
    };
    let mut cfg = DaemonConfig::new(&preset, scenario);
    cfg.shards = shards;
    cfg.delay_days = delay_days;
    cfg.checkpoint = checkpoint;
    cfg.http = http;
    cfg.slow_query_us = slow_query_us;
    cfg.checkpoint_every = checkpoint_every;
    cfg.worldlog = worldlog;
    let daemon = match Daemon::start(cfg, &listen) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("stale-served: cannot bind {listen}: {e}");
            std::process::exit(2);
        }
    };
    // The readiness line scripts scrape for the resolved port; flush so
    // it lands even when stdout is a pipe.
    println!("listening on {}", daemon.addr());
    if let Some(http_addr) = daemon.http_addr() {
        println!("http on {http_addr}");
    }
    let _ = std::io::Write::flush(&mut std::io::stdout());
    eprintln!(
        "stale-served: preset {preset}, {shards} shard(s), delay {delay_days} day(s); \
         send `shutdown` to exit"
    );
    daemon.wait_shutdown();
    daemon.stop();
}

fn usage_error(msg: &str) -> ! {
    eprintln!(
        "stale-served: {msg}\n\
         usage: stale-served [paper|small|tiny] [--listen ADDR] [--shards N] \
         [--delay-days N] [--checkpoint FILE] [--checkpoint-every N] [--http ADDR] \
         [--slow-query-us N] [--worldlog FILE]"
    );
    std::process::exit(2);
}
