//! One checkpoint schema across modes — a position in the day feed —
//! saved crash-safely, refused with a reason.
//!
//! * A batch checkpoint resumes the incremental driver and boots the
//!   daemon with nothing re-ingested, and a checkpoint taken at one width
//!   resumes a run at another. Every path renders the same suite, audit
//!   and table bytes as a clean batch run.
//! * Batch and incremental runs write the same checkpoint at the feed end;
//!   an incremental run saves once, after its final delta, unless asked
//!   to save every N days as well.
//! * The loader refuses a real checkpoint truncated anywhere, and a save
//!   interrupted before its rename leaves the previous file intact.
//! * Every refusal names its reason, is counted, and leaves the results
//!   byte-identical to a fresh run.

use stale_served::{Client, Daemon, DaemonConfig};
use stale_tls::engine::{
    Checkpoint, Engine, EngineConfig, EngineReport, IncrementalState, Rejection,
};
use stale_tls::prelude::*;
use stale_tls::stale_core::tables::TableView;
use stale_tls::worldsim::DayFeed;
use std::path::PathBuf;

const SHARDS: usize = 4;

/// The comparable byte form of a suite: the full revocation join plus
/// the three record streams.
fn suite_bytes(suite: &DetectionSuite) -> String {
    serde_json::to_string(&(
        &suite.revocations.matched,
        &suite.revocations.stats,
        &suite.revocations.cutoff,
        &suite.key_compromise,
        &suite.registrant_change,
        &suite.managed_tls,
    ))
    .expect("suite serialises")
}

/// Suite and audit bytes of a report.
fn report_bytes(report: &EngineReport) -> (String, String) {
    (
        suite_bytes(&report.suite),
        report.audit.as_ref().expect("audited run").to_jsonl(),
    )
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("stale_checkpoint_modes_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

fn config(checkpoint: Option<&PathBuf>) -> EngineConfig {
    let mut cfg = EngineConfig::with_shards(SHARDS);
    cfg.audit = true;
    cfg.checkpoint = checkpoint.cloned();
    cfg
}

fn ok(client: &mut Client, line: &str) -> String {
    client
        .request(line)
        .expect("transport")
        .unwrap_or_else(|e| panic!("{line:?} should succeed, got err {e:?}"))
}

#[test]
fn batch_checkpoint_resumes_incremental_and_boots_the_daemon_with_nothing_reingested() {
    let data = World::run(ScenarioConfig::tiny());
    let psl = SuffixList::default_list();
    let end = DayFeed::new(&data).end();
    let path = scratch("batch.json");

    let batch = Engine::new(config(Some(&path)))
        .run(&data, &psl)
        .expect("batch run");
    let expected = report_bytes(&batch);
    let saved = Checkpoint::load(&path, data.fingerprint())
        .expect("batch checkpoint loads")
        .expect("batch checkpoint written");
    assert_eq!(saved.through, end, "batch saves at the feed end");
    // The file records a position, nothing else.
    let text = std::fs::read_to_string(&path).expect("read checkpoint");
    assert_eq!(
        text,
        format!(
            r#"{{"version":5,"fingerprint":{},"through":"{end}"}}"#,
            data.fingerprint()
        )
    );
    let diags = stale_lint::preflight::preflight_str("batch checkpoint", &text);
    assert!(diags.is_empty(), "{diags:?}");

    // The incremental driver resumes every shard and ingests nothing.
    let incremental = Engine::new(config(Some(&path)))
        .run_incremental(&data, &psl)
        .expect("incremental resume");
    assert_eq!(incremental.metrics.resumed_shards, SHARDS);
    let ingest = incremental.metrics.ingest.as_ref().expect("ingest metrics");
    assert_eq!((ingest.days, ingest.items), (0, 0), "nothing re-ingested");
    assert_eq!(report_bytes(&incremental), expected);

    // The daemon boots from it, already through the feed end.
    let mut cfg = DaemonConfig::new("tiny", ScenarioConfig::tiny());
    cfg.shards = SHARDS;
    cfg.checkpoint = Some(path.clone());
    let daemon = Daemon::start(cfg, "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(daemon.addr()).expect("connect");
    let status = ok(&mut client, "status");
    assert!(
        status.contains(&format!("applied-through {end}")),
        "{status}"
    );
    assert!(status.contains("events-since-boot 0"), "{status}");
    let table4 = TableView {
        data: &data,
        psl: &psl,
        suite: &batch.suite,
    }
    .table4();
    assert_eq!(ok(&mut client, "table4"), table4);
    let coverage = batch.audit.as_ref().expect("audit").render_coverage();
    assert_eq!(ok(&mut client, "report"), coverage);
    let refeed = client
        .request(&format!("feed-day {end}"))
        .expect("transport");
    assert!(
        refeed.is_err(),
        "the restored daemon has nothing left to feed"
    );
    let metrics = daemon.registry().snapshot();
    assert_eq!(metrics.counters.get("served.checkpoint.restores"), Some(&1));
    assert_eq!(metrics.counters.get("served.checkpoint.rejected"), None);
    // The boot times the feed build and the restore, once each.
    for timer in ["served.boot.feed_us", "served.boot.restore_us"] {
        let count = metrics.histograms.get(timer).map(|h| h.count);
        assert_eq!(count, Some(1), "{timer}");
    }
    daemon.stop();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn batch_and_incremental_checkpoints_at_the_feed_end_are_byte_identical() {
    let data = World::run(ScenarioConfig::tiny());
    let psl = SuffixList::default_list();
    let batch_path = scratch("one_order_batch.json");
    let incremental_path = scratch("one_order_incremental.json");

    Engine::new(config(Some(&batch_path)))
        .run(&data, &psl)
        .expect("batch run");
    // By default the run saves once, at the feed end.
    let obs = obs::Obs::enabled();
    Engine::new(config(Some(&incremental_path)))
        .with_obs(obs.clone())
        .run_incremental(&data, &psl)
        .expect("incremental run");
    assert_eq!(
        obs.registry.snapshot().counters.get("checkpoint.saves"),
        Some(&1)
    );

    let batch = std::fs::read(&batch_path).expect("batch checkpoint");
    let incremental = std::fs::read(&incremental_path).expect("incremental checkpoint");
    let first_difference = batch.iter().zip(&incremental).position(|(a, b)| a != b);
    assert_eq!(
        (batch.len(), first_difference),
        (incremental.len(), None),
        "batch and incremental checkpoints differ"
    );
    let _ = std::fs::remove_file(&batch_path);
    let _ = std::fs::remove_file(&incremental_path);
}

#[test]
fn incremental_runs_save_after_the_final_delta_and_every_n_days_on_request() {
    let data = World::run(ScenarioConfig::tiny());
    let psl = SuffixList::default_list();
    let feed = DayFeed::new(&data);
    // (`checkpoint.saves`, the day the file records) for one run.
    let run = |every: Option<usize>| {
        let path = scratch(&format!("cadence_{}.json", every.unwrap_or(0)));
        let mut cfg = config(Some(&path));
        cfg.checkpoint_every_days = every;
        let obs = obs::Obs::enabled();
        Engine::new(cfg)
            .with_obs(obs.clone())
            .run_incremental(&data, &psl)
            .expect("incremental run");
        let saved = Checkpoint::load(&path, data.fingerprint())
            .expect("checkpoint loads")
            .expect("checkpoint written");
        let _ = std::fs::remove_file(&path);
        let saves = obs
            .registry
            .snapshot()
            .counters
            .get("checkpoint.saves")
            .copied();
        (saves, saved.through)
    };
    // One save after the final delta, not one per ingested day.
    assert_eq!(run(None), (Some(1), feed.end()));
    // `--checkpoint-every 30`: one save per 30 ingested days, and the
    // final day on top when the window is not a multiple of 30.
    let every_30 = feed.day_count().div_ceil(30) as u64;
    assert_eq!(run(Some(30)), (Some(every_30), feed.end()));
}

#[test]
fn truncated_checkpoints_are_refused_at_every_cut() {
    let data = World::run(ScenarioConfig::tiny());
    let psl = SuffixList::default_list();
    let path = scratch("whole.json");
    let clean = Engine::new(config(Some(&path)))
        .run(&data, &psl)
        .expect("batch run");
    let bytes = std::fs::read(&path).expect("read checkpoint");
    let cut_path = scratch("cut.json");
    for k in 0..64 {
        let cut = bytes.len() * k / 64;
        std::fs::write(&cut_path, &bytes[..cut]).expect("write cut");
        match Checkpoint::load(&cut_path, data.fingerprint()) {
            Err(Rejection::Parse(_)) => {}
            other => panic!("cut at {k}/64 ({cut} bytes) gave {other:?}"),
        }
    }

    // The incremental driver handed a truncated file says so, counts it,
    // and starts fresh with identical results.
    std::fs::write(&cut_path, &bytes[..bytes.len() / 2]).expect("write cut");
    let obs = obs::Obs::enabled();
    let fresh = Engine::new(config(Some(&cut_path)))
        .with_obs(obs.clone())
        .run_incremental(&data, &psl)
        .expect("fresh run");
    let why = fresh.metrics.checkpoint_rejected.as_deref().unwrap_or("");
    assert!(why.contains("not a checkpoint"), "{why:?}");
    assert_eq!(fresh.metrics.resumed_shards, 0);
    assert_eq!(
        obs.registry.snapshot().counters.get("checkpoint.rejected"),
        Some(&1)
    );
    assert_eq!(report_bytes(&fresh), report_bytes(&clean));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&cut_path);
}

#[test]
fn a_save_stopped_before_the_rename_leaves_the_previous_checkpoint_intact() {
    let data = World::run(ScenarioConfig::tiny());
    let psl = SuffixList::default_list();
    let feed = DayFeed::new(&data);
    let mid = feed.start() + Duration::days((feed.end() - feed.start()).num_days() / 2);
    let path = scratch("previous.json");

    let mut state = IncrementalState::new(&data, &psl, SHARDS);
    state.ingest_delta(&feed.delta(feed.start(), mid), &obs::NullSink);
    let previous = state.snapshot().expect("snapshot");
    previous.save(&path).expect("save");
    let before = std::fs::read(&path).expect("read");

    state.ingest_delta(&feed.delta(mid.succ(), feed.end()), &obs::NullSink);
    let next = state.snapshot().expect("snapshot");
    let staged = next.stage(&path).expect("stage");
    // The process dies here: the new contents sit in the temporary file,
    // the target still holds the previous checkpoint, byte for byte.
    assert!(staged.temp_path().exists());
    assert_eq!(std::fs::read(&path).expect("read"), before);
    let loaded = Checkpoint::load(&path, data.fingerprint())
        .expect("previous loads")
        .expect("previous present");
    assert_eq!(loaded, previous);
    let resumed = IncrementalState::restore(&data, &psl, SHARDS, &feed, &loaded).expect("restores");
    assert_eq!(resumed.through(), Some(mid));

    staged.commit().expect("commit");
    let committed = Checkpoint::load(&path, data.fingerprint())
        .expect("next loads")
        .expect("next present");
    assert_eq!(committed, next);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn refusals_name_their_reason() {
    let data = World::run(ScenarioConfig::tiny());
    let psl = SuffixList::default_list();
    let path = scratch("reasons.json");
    Engine::new(config(Some(&path)))
        .run(&data, &psl)
        .expect("batch run");
    let fp = data.fingerprint();

    assert!(matches!(
        Checkpoint::load(&path, fp ^ 1),
        Err(Rejection::Fingerprint { .. })
    ));
    let unreadable = std::env::temp_dir().join("stale_checkpoint_modes_test");
    assert!(matches!(
        Checkpoint::load(&unreadable, fp),
        Err(Rejection::Unreadable(_))
    ));
    // Earlier schemas — v3 batch completions, v4 stored shard state — are
    // refused on their version, and preflight names them so.
    let end = DayFeed::new(&data).end();
    let old = scratch("old.json");
    for (version, text) in [
        (
            3,
            format!(
                r#"{{"version": 3, "fingerprint": {fp}, "shards": {SHARDS}, "completed": []}}"#
            ),
        ),
        (
            4,
            format!(
                r#"{{"version": 4, "fingerprint": {fp}, "shards": 1, "through": "{end}", "states": [{{"shard": 0, "kc": {{"index": [], "losers": []}}, "rc": {{"certs_by_e2ld": [], "creations": []}}, "mtd": {{"delegated": [], "undelegated": [], "departures": [], "certs_by_customer": []}}}}]}}"#
            ),
        ),
    ] {
        std::fs::write(&old, &text).expect("write");
        assert_eq!(
            Checkpoint::load(&old, fp),
            Err(Rejection::Version(Some(version)))
        );
        let rules: Vec<&str> = stale_lint::preflight::preflight_str("old", &text)
            .iter()
            .map(|d| d.rule)
            .collect();
        assert_eq!(rules, ["checkpoint-version"], "v{version}");
    }

    // The daemon refuses another world's file, counts it and starts fresh.
    Checkpoint::new(fp ^ 1, end)
        .save(&path)
        .expect("save foreign");
    let mut cfg = DaemonConfig::new("tiny", ScenarioConfig::tiny());
    cfg.shards = SHARDS;
    cfg.checkpoint = Some(path.clone());
    let daemon = Daemon::start(cfg, "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(daemon.addr()).expect("connect");
    let status = ok(&mut client, "status");
    assert!(status.contains("applied-through none"), "{status}");
    let counters = daemon.registry().snapshot().counters;
    assert_eq!(counters.get("served.checkpoint.rejected"), Some(&1));
    assert_eq!(counters.get("served.checkpoint.restores"), None);
    daemon.stop();
    for p in [&path, &old] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn a_checkpoint_taken_at_one_width_resumes_runs_and_the_daemon_at_another() {
    let data = World::run(ScenarioConfig::tiny());
    let psl = SuffixList::default_list();
    let feed = DayFeed::new(&data);
    let (start, end) = (feed.start(), feed.end());
    let mid = start + Duration::days((end - start).num_days() / 2);
    let clean = Engine::new(config(None)).run(&data, &psl).expect("clean");
    let expected = report_bytes(&clean);
    let table4 = TableView {
        data: &data,
        psl: &psl,
        suite: &clean.suite,
    }
    .table4();

    // Two shards, through the midpoint.
    let path = scratch("width_mid.json");
    let mut first = EngineConfig::with_shards(2);
    first.checkpoint = Some(path.clone());
    first.through = Some(mid);
    Engine::new(first)
        .run_incremental(&data, &psl)
        .expect("first half");
    let daemon_path = scratch("width_mid_daemon.json");
    std::fs::copy(&path, &daemon_path).expect("copy checkpoint");

    // Seven shards resume from it and drain the feed.
    let mut second = config(Some(&path));
    second.shards = 7;
    let resumed = Engine::new(second)
        .run_incremental(&data, &psl)
        .expect("resumed at seven shards");
    assert_eq!(resumed.metrics.resumed_shards, 7);
    assert_eq!(resumed.metrics.checkpoint_rejected, None);
    let ingest = resumed.metrics.ingest.as_ref().expect("ingest metrics");
    assert_eq!(ingest.days, (end - mid).num_days() as usize);
    assert_eq!(report_bytes(&resumed), expected);
    let resumed_table4 = TableView {
        data: &data,
        psl: &psl,
        suite: &resumed.suite,
    }
    .table4();
    assert_eq!(resumed_table4, table4);

    // So does a seven-shard daemon.
    let mut cfg = DaemonConfig::new("tiny", ScenarioConfig::tiny());
    cfg.shards = 7;
    cfg.checkpoint = Some(daemon_path.clone());
    let daemon = Daemon::start(cfg, "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(daemon.addr()).expect("connect");
    let status = ok(&mut client, "status");
    assert!(
        status.contains(&format!("applied-through {mid}")),
        "{status}"
    );
    ok(&mut client, &format!("feed-day {end}"));
    assert_eq!(ok(&mut client, "table4"), table4);
    let coverage = clean.audit.as_ref().expect("audit").render_coverage();
    assert_eq!(ok(&mut client, "report"), coverage);
    let counters = daemon.registry().snapshot().counters;
    assert_eq!(counters.get("served.checkpoint.restores"), Some(&1));
    assert_eq!(counters.get("served.checkpoint.rejected"), None);
    daemon.stop();
    for p in [&path, &daemon_path] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn a_checkpoint_past_the_feed_end_is_refused_and_the_run_starts_fresh() {
    let data = World::run(ScenarioConfig::tiny());
    let psl = SuffixList::default_list();
    let feed = DayFeed::new(&data);
    let beyond = feed.end() + Duration::days(30);
    let path = scratch("beyond.json");
    let cp = Checkpoint::new(data.fingerprint(), beyond);
    cp.save(&path).expect("save");

    // The refusal names the reason.
    match IncrementalState::restore(&data, &psl, SHARDS, &feed, &cp) {
        Err(Rejection::Through(why)) => assert!(why.contains("outside the feed"), "{why}"),
        Err(other) => panic!("refused for another reason: {other}"),
        Ok(_) => panic!("a checkpoint past the feed end restored"),
    }

    // The incremental driver names it, counts it and starts fresh.
    let clean = Engine::new(config(None)).run(&data, &psl).expect("clean");
    let obs = obs::Obs::enabled();
    let fresh = Engine::new(config(Some(&path)))
        .with_obs(obs.clone())
        .run_incremental(&data, &psl)
        .expect("fresh run");
    let why = fresh.metrics.checkpoint_rejected.as_deref().unwrap_or("");
    assert!(why.contains(&format!("taken through {beyond}")), "{why:?}");
    assert_eq!(fresh.metrics.resumed_shards, 0);
    assert_eq!(
        obs.registry.snapshot().counters.get("checkpoint.rejected"),
        Some(&1)
    );
    assert_eq!(report_bytes(&fresh), report_bytes(&clean));

    // So does the daemon: it boots with nothing applied and feeds the
    // whole window.
    cp.save(&path).expect("save again");
    let mut cfg = DaemonConfig::new("tiny", ScenarioConfig::tiny());
    cfg.shards = SHARDS;
    cfg.checkpoint = Some(path.clone());
    let daemon = Daemon::start(cfg, "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(daemon.addr()).expect("connect");
    let status = ok(&mut client, "status");
    assert!(status.contains("applied-through none"), "{status}");
    let counters = daemon.registry().snapshot().counters;
    assert_eq!(counters.get("served.checkpoint.rejected"), Some(&1));
    assert_eq!(counters.get("served.checkpoint.restores"), None);
    ok(&mut client, &format!("feed-day {}", feed.end()));
    let table4 = TableView {
        data: &data,
        psl: &psl,
        suite: &clean.suite,
    }
    .table4();
    assert_eq!(ok(&mut client, "table4"), table4);
    daemon.stop();
    let _ = std::fs::remove_file(&path);
}
