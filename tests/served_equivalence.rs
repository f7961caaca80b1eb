//! The daemon's correctness anchor: every query answer is byte-identical
//! to a fresh batch run over the same ingested days — across shard
//! counts, across a snapshot/restart boundary, under a consistency
//! delay, and while queries race ingestion.

use stale_bench::Experiments;
use stale_served::{Client, Daemon, DaemonConfig};
use stale_tls::engine::{EngineConfig, IncrementalState};
use stale_tls::prelude::*;
use stale_tls::stale_types::{Date, Duration};
use stale_tls::worldsim::DayFeed;

fn ok(client: &mut Client, line: &str) -> String {
    client
        .request(line)
        .expect("transport")
        .unwrap_or_else(|e| panic!("{line:?} should succeed, got err {e:?}"))
}

/// Feed bounds of the deterministic tiny world.
fn tiny_feed_bounds() -> (Date, Date) {
    let data = World::run(ScenarioConfig::tiny());
    let feed = DayFeed::new(&data);
    (feed.start(), feed.end())
}

/// Batch-oracle renderings over the tiny world ingested through
/// `through` (`None` = the whole feed): table3, table4, coverage report,
/// and — when any certificate has been audited by then — one
/// certificate's fingerprint with its explain chain.
fn batch_oracle(through: Option<Date>) -> (String, String, String, Option<(String, String)>) {
    let (data, psl) = Experiments::build_world(ScenarioConfig::tiny());
    let mut cfg = EngineConfig::with_shards(1);
    cfg.audit = true;
    cfg.through = through;
    let run = Experiments::with_engine_incremental_on(data, psl, cfg).expect("batch oracle");
    let audit = run.audit.expect("audited run");
    let explain = audit
        .decisions
        .iter()
        .find(|d| !d.cert.is_empty())
        .map(|d| d.cert.clone())
        .map(|fp| {
            let chain = audit.render_explain(&fp).expect("explain oracle");
            (fp, chain)
        });
    (
        run.experiments.table3(),
        run.experiments.table4(),
        audit.render_coverage(),
        explain,
    )
}

#[test]
fn drained_daemon_matches_batch_across_shard_counts() {
    let (_, end) = tiny_feed_bounds();
    let (t3, t4, coverage, explain) = batch_oracle(None);
    let (fp, explain) = explain.expect("full drain audits some certificate");
    for shards in [1usize, 2, 7] {
        let mut cfg = DaemonConfig::new("tiny", ScenarioConfig::tiny());
        cfg.shards = shards;
        let daemon = Daemon::start(cfg, "127.0.0.1:0").expect("bind");
        let mut client = Client::connect(daemon.addr()).expect("connect");
        ok(&mut client, &format!("feed-day {end}"));
        assert_eq!(ok(&mut client, "table3"), t3, "shards={shards}");
        assert_eq!(ok(&mut client, "table4"), t4, "shards={shards}");
        assert_eq!(ok(&mut client, "report"), coverage, "shards={shards}");
        assert_eq!(
            ok(&mut client, &format!("explain {fp}")),
            explain,
            "shards={shards}"
        );
        daemon.stop();
    }
}

#[test]
fn snapshot_restart_preserves_answers_and_drains_to_batch() {
    let (start, end) = tiny_feed_bounds();
    let mid = start + Duration::days((end - start).num_days() / 2);
    let dir = std::env::temp_dir().join("stale_served_restart_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("served_mid.json");
    let _ = std::fs::remove_file(&path);

    // Mid-stream oracle: a fresh incremental batch run through `mid`.
    let (mid_t3, mid_t4, mid_coverage, _) = batch_oracle(Some(mid));

    // First life: feed through the midpoint and snapshot.
    let mut cfg = DaemonConfig::new("tiny", ScenarioConfig::tiny());
    cfg.shards = 2;
    cfg.checkpoint = Some(path.clone());
    let daemon = Daemon::start(cfg, "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(daemon.addr()).expect("connect");
    ok(&mut client, &format!("feed-day {mid}"));
    assert_eq!(ok(&mut client, "table3"), mid_t3);
    assert_eq!(ok(&mut client, "table4"), mid_t4);
    assert_eq!(ok(&mut client, "report"), mid_coverage);
    let snap_msg = ok(&mut client, "snapshot");
    assert!(snap_msg.contains(&mid.to_string()), "{snap_msg}");
    daemon.stop();
    assert!(path.exists(), "snapshot written");

    // The daemon's snapshot is a standard engine checkpoint and upholds
    // every preflight invariant.
    let snapshot = std::fs::read_to_string(&path).expect("read snapshot");
    let diags = stale_lint::preflight::preflight_str("snapshot", &snapshot);
    assert!(diags.is_empty(), "snapshot preflight: {diags:?}");

    // Second life: restore from the checkpoint; answers are the same
    // bytes, and draining the rest of the feed lands on the full-batch
    // bytes.
    let (t3, t4, coverage, explain) = batch_oracle(None);
    let (fp, explain) = explain.expect("full drain audits some certificate");
    let mut cfg = DaemonConfig::new("tiny", ScenarioConfig::tiny());
    cfg.shards = 2;
    cfg.checkpoint = Some(path.clone());
    let daemon = Daemon::start(cfg, "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(daemon.addr()).expect("connect");
    let status = ok(&mut client, "status");
    assert!(
        status.contains(&format!("applied-through {mid}")),
        "restored cursor: {status}"
    );
    assert_eq!(ok(&mut client, "table3"), mid_t3);
    assert_eq!(ok(&mut client, "table4"), mid_t4);
    assert_eq!(ok(&mut client, "report"), mid_coverage);
    ok(&mut client, &format!("feed-day {end}"));
    assert_eq!(ok(&mut client, "table3"), t3);
    assert_eq!(ok(&mut client, "table4"), t4);
    assert_eq!(ok(&mut client, "report"), coverage);
    assert_eq!(ok(&mut client, &format!("explain {fp}")), explain);
    daemon.stop();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn delayed_daemon_answers_as_of_the_visible_day() {
    let (start, _) = tiny_feed_bounds();
    let delay = 5i64;
    let fed_target = start + Duration::days(90);
    let visible = fed_target - Duration::days(delay);
    let (_, t4, coverage, _) = batch_oracle(Some(visible));

    let mut cfg = DaemonConfig::new("tiny", ScenarioConfig::tiny());
    cfg.shards = 2;
    cfg.delay_days = delay;
    let daemon = Daemon::start(cfg, "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(daemon.addr()).expect("connect");
    ok(&mut client, &format!("feed-day {fed_target}"));
    let status = ok(&mut client, "status");
    assert!(
        status.contains(&format!("fed-through {fed_target}")),
        "{status}"
    );
    assert!(
        status.contains(&format!("applied-through {visible}")),
        "{status}"
    );
    assert_eq!(ok(&mut client, "table4"), t4);
    assert_eq!(ok(&mut client, "report"), coverage);
    daemon.stop();
}

/// One HTTP/1.1 GET against the daemon's telemetry plane; returns the
/// status code and the response body.
fn http_get(addr: std::net::SocketAddr, target: &str) -> (u16, String) {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("http connect");
    write!(stream, "GET {target} HTTP/1.1\r\nHost: test\r\n\r\n").expect("send request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("utf-8 response");
    let (head, body) = text.split_once("\r\n\r\n").expect("header terminator");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    (status, body.to_string())
}

#[test]
fn live_telemetry_plane_preserves_byte_equivalence() {
    let (_, end) = tiny_feed_bounds();
    let (t3, t4, coverage, _) = batch_oracle(None);

    // Boot with the whole live plane on: HTTP endpoints, a zero-threshold
    // slow-query log, and (below) an attached subscriber. None of it may
    // change a single answer byte versus the batch oracle.
    let mut cfg = DaemonConfig::new("tiny", ScenarioConfig::tiny());
    cfg.shards = 2;
    cfg.http = Some("127.0.0.1:0".to_string());
    cfg.slow_query_us = Some(0);
    let daemon = Daemon::start(cfg, "127.0.0.1:0").expect("bind");
    let http = daemon.http_addr().expect("http bound");

    // Drain pushed records on a side thread for the whole run.
    let sub_client = Client::connect(daemon.addr()).expect("sub connect");
    let (ack, mut sub) = sub_client.subscribe().expect("subscribe");
    assert!(ack.contains("subscribed"), "{ack}");
    let drain = std::thread::spawn(move || {
        let mut records = Vec::new();
        while let Ok(record) = sub.next_record() {
            records.push(record);
        }
        records
    });

    let mut client = Client::connect(daemon.addr()).expect("connect");
    ok(&mut client, &format!("feed-day {end}"));
    assert_eq!(ok(&mut client, "table3"), t3);
    assert_eq!(ok(&mut client, "table4"), t4);
    assert_eq!(ok(&mut client, "report"), coverage);

    // HTTP table bodies are the same bytes as the frame answers, which
    // are the same bytes as the batch oracle.
    assert_eq!(http_get(http, "/tables/table3"), (200, t3));
    assert_eq!(http_get(http, "/tables/table4"), (200, t4));
    assert_eq!(http_get(http, "/status").1, ok(&mut client, "status"));

    let (code, health) = http_get(http, "/healthz");
    assert_eq!(code, 200, "{health}");
    let (code, ready) = http_get(http, "/readyz");
    assert_eq!(code, 200, "{ready}");
    assert!(ready.contains("ready"), "{ready}");

    let (code, prom) = http_get(http, "/metrics");
    assert_eq!(code, 200);
    assert!(prom.contains("stale_served_query_table4_us"), "{prom}");
    assert!(prom.contains("stale_served_ingest_batch_wall_us"), "{prom}");

    // The zero-threshold slow-query log captured the table4 query with
    // its span tree; the rolling window saw the ingest batch.
    let (code, slowlog) = http_get(http, "/slowlog");
    assert_eq!(code, 200);
    assert!(slowlog.contains("query.table4"), "{slowlog}");
    assert!(slowlog.contains("view.rebuild"), "{slowlog}");
    let (code, window) = http_get(http, "/window");
    assert_eq!(code, 200);
    assert!(window.contains("rolling window"), "{window}");

    daemon.stop();

    // The subscriber saw at least one staleness event and the ingest
    // span record, every record valid JSON of a known kind.
    let records = drain.join().expect("drain thread");
    let mut events = 0usize;
    let mut spans = 0usize;
    for (kind, body) in &records {
        let parsed: serde::value::Value = serde_json::from_str(body)
            .unwrap_or_else(|e| panic!("bad {kind} record {body:?}: {e}"));
        match kind.as_str() {
            "event" => events += 1,
            "span" => {
                spans += 1;
                assert_eq!(
                    parsed.get("name"),
                    Some(&serde::value::Value::Str("served.ingest".to_string())),
                    "{body}"
                );
            }
            other => panic!("unknown push kind {other:?}"),
        }
    }
    assert!(events > 0, "subscriber saw no staleness events");
    assert!(spans > 0, "subscriber saw no ingest span records");
}

#[test]
fn concurrent_queries_never_observe_a_partial_day() {
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    const DAYS: i64 = 120;
    let (start, _) = tiny_feed_bounds();

    // Oracle: cumulative event count after each fully ingested day, from
    // a local day-by-day replay with the same chunking the daemon uses.
    let data = World::run(ScenarioConfig::tiny());
    let psl = SuffixList::default_list();
    let feed = DayFeed::new(&data);
    let registry = obs::Registry::new();
    let mut state = IncrementalState::new(&data, &psl, 2);
    let mut oracle: HashMap<String, usize> = HashMap::new();
    oracle.insert("none".to_string(), 0);
    let mut cumulative = 0usize;
    for offset in 0..DAYS {
        let day = start + Duration::days(offset);
        cumulative += state.ingest_delta(&feed.delta(day, day), &registry).len();
        oracle.insert(day.to_string(), cumulative);
    }
    let oracle = Arc::new(oracle);

    let mut cfg = DaemonConfig::new("tiny", ScenarioConfig::tiny());
    cfg.shards = 2;
    let daemon = Daemon::start(cfg, "127.0.0.1:0").expect("bind");
    let addr = daemon.addr();

    // Hammer `status` from several connections while the main thread
    // feeds the same days one at a time. Every (applied-through,
    // events-since-boot) pair a worker observes must be one of the
    // oracle's whole-day states — a partially ingested day would show a
    // cumulative count no whole day ever has.
    let done = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..4)
        .map(|w| {
            let done = Arc::clone(&done);
            let oracle = Arc::clone(&oracle);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("worker connect");
                let mut observed = 0usize;
                while !done.load(Ordering::SeqCst) {
                    let status = client
                        .request("status")
                        .expect("transport")
                        .expect("status ok");
                    let field = |key: &str| {
                        status
                            .lines()
                            .find_map(|l| l.strip_prefix(&format!("{key} ")))
                            .unwrap_or_else(|| panic!("no {key:?} in {status:?}"))
                            .to_string()
                    };
                    let applied = field("applied-through");
                    let events: usize = field("events-since-boot").parse().expect("count");
                    let expected = *oracle
                        .get(&applied)
                        .unwrap_or_else(|| panic!("worker {w} saw unknown day {applied}"));
                    assert_eq!(
                        events, expected,
                        "worker {w}: day {applied} visible with {events} events, \
                         whole-day state has {expected}"
                    );
                    observed += 1;
                }
                observed
            })
        })
        .collect();

    let mut feeder = Client::connect(addr).expect("feeder connect");
    for offset in 0..DAYS {
        let day = start + Duration::days(offset);
        ok(&mut feeder, &format!("feed-day {day}"));
    }
    done.store(true, Ordering::SeqCst);
    let mut total = 0usize;
    for worker in workers {
        total += worker.join().expect("worker");
    }
    assert!(
        total > 0,
        "workers should have observed at least one status"
    );

    // The daemon landed exactly on the oracle's final state.
    let status = ok(&mut feeder, "status");
    let last = start + Duration::days(DAYS - 1);
    assert!(
        status.contains(&format!("applied-through {last}")),
        "{status}"
    );
    assert!(
        status.contains(&format!("events-since-boot {cumulative}")),
        "{status}"
    );
    daemon.stop();
}

#[test]
fn auto_checkpoint_restart_mid_stream_is_byte_equivalent() {
    let (start, end) = tiny_feed_bounds();
    let dir = std::env::temp_dir().join("stale_served_auto_checkpoint_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("served_auto.json");
    let _ = std::fs::remove_file(&path);

    // First life: --checkpoint-every 10, fed day by day. The daemon
    // snapshots on its own; no explicit `snapshot` command is ever sent.
    let mut cfg = DaemonConfig::new("tiny", ScenarioConfig::tiny());
    cfg.shards = 2;
    cfg.checkpoint = Some(path.clone());
    cfg.checkpoint_every = Some(10);
    let daemon = Daemon::start(cfg, "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(daemon.addr()).expect("connect");
    for offset in 0..35 {
        let day = start + Duration::days(offset);
        ok(&mut client, &format!("feed-day {day}"));
    }
    let metrics = ok(&mut client, "metrics");
    assert!(
        metrics.contains("served.checkpoint.auto"),
        "auto-checkpoint never fired: {metrics}"
    );
    // Simulated crash: stop without snapshotting the remaining days.
    daemon.stop();
    assert!(path.exists(), "auto-checkpoint written");
    let snapshot = std::fs::read_to_string(&path).expect("read snapshot");
    let diags = stale_lint::preflight::preflight_str("snapshot", &snapshot);
    assert!(diags.is_empty(), "auto-checkpoint preflight: {diags:?}");

    // Second life: restore from the auto-checkpoint mid-stream, feed
    // the rest, and land on the straight-through batch bytes.
    let (t3, t4, coverage, explain) = batch_oracle(None);
    let (fp, explain) = explain.expect("full drain audits some certificate");
    let mut cfg = DaemonConfig::new("tiny", ScenarioConfig::tiny());
    cfg.shards = 2;
    cfg.checkpoint = Some(path.clone());
    cfg.checkpoint_every = Some(10);
    let daemon = Daemon::start(cfg, "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(daemon.addr()).expect("connect");
    // With 35 single-day feeds and a period of 10, the last auto
    // snapshot fired after the 30th day — the restored cursor sits on
    // that boundary, mid-stream.
    let status = ok(&mut client, "status");
    let boundary = start + Duration::days(29);
    assert!(
        status.contains(&format!("applied-through {boundary}")),
        "restored to the last auto-checkpoint boundary: {status}"
    );
    ok(&mut client, &format!("feed-day {end}"));
    assert_eq!(ok(&mut client, "table3"), t3);
    assert_eq!(ok(&mut client, "table4"), t4);
    assert_eq!(ok(&mut client, "report"), coverage);
    assert_eq!(ok(&mut client, &format!("explain {fp}")), explain);
    daemon.stop();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn daemon_timeline_matches_offline_join_even_when_booted_from_worldlog() {
    use stale_tls::worldsim::WorldLog;

    let (_, end) = tiny_feed_bounds();

    // Offline oracle: the same three-layer join `stale-bench timeline`
    // renders from files, over the full audit and the extracted log.
    let (data, psl) = Experiments::build_world(ScenarioConfig::tiny());
    let log = WorldLog::from_datasets(&data);
    let jsonl = log.to_jsonl();
    let mut ecfg = EngineConfig::with_shards(1);
    ecfg.audit = true;
    let run = Experiments::with_engine_incremental_on(data, psl, ecfg).expect("oracle run");
    let audit = run.audit.expect("audited run");
    let fp = audit
        .decisions
        .iter()
        .find(|d| !d.cert.is_empty())
        .map(|d| d.cert.clone())
        .expect("some audited certificate");
    let expected = stale_tls::stale_core::timeline::render_timeline(&log, Some(&audit), None, &fp)
        .expect("offline timeline");

    // Boot the daemon FROM the exported log (no simulator in the loop),
    // drain it, and ask for the same timeline on both fronts.
    let dir = std::env::temp_dir().join("stale_served_worldlog_boot_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let log_path = dir.join("world.jsonl");
    std::fs::write(&log_path, &jsonl).expect("write log");
    let mut cfg = DaemonConfig::new("tiny", ScenarioConfig::tiny());
    cfg.shards = 2;
    cfg.worldlog = Some(log_path.clone());
    cfg.http = Some("127.0.0.1:0".to_string());
    let daemon = Daemon::start(cfg, "127.0.0.1:0").expect("bind");
    let http = daemon.http_addr().expect("http bound");
    let mut client = Client::connect(daemon.addr()).expect("connect");
    ok(&mut client, &format!("feed-day {end}"));
    assert_eq!(ok(&mut client, &format!("timeline {fp}")), expected);
    assert_eq!(
        http_get(http, &format!("/timeline?fp={fp}")),
        (200, expected)
    );

    // Unknown prefixes and malformed queries fail without touching state.
    let miss = client
        .request("timeline ffffffffffffffff")
        .expect("transport");
    assert!(miss.is_err(), "unknown fingerprint should error");
    assert_eq!(http_get(http, "/timeline").0, 400);
    assert_eq!(http_get(http, "/timeline?fp=").0, 400);
    daemon.stop();
    let _ = std::fs::remove_file(&log_path);
}
