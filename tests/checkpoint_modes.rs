//! One checkpoint schema across modes, saved crash-safely, refused with a
//! reason.
//!
//! * A complete batch checkpoint resumes the incremental driver and boots
//!   the daemon with nothing re-ingested; an incremental checkpoint at the
//!   feed end makes a batch run re-run zero shards. Every path renders the
//!   same suite and audit bytes.
//! * Batch and incremental runs fold the same feed items in the same
//!   order, so their checkpoints at the feed end are byte-identical.
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
    let saved = Checkpoint::load(&path, data.fingerprint(), SHARDS)
        .expect("batch checkpoint loads")
        .expect("batch checkpoint written");
    assert!(saved.is_complete(), "every shard saved");
    assert_eq!(saved.through, end, "batch saves at the feed end");
    let text = std::fs::read_to_string(&path).expect("read checkpoint");
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
    let counters = daemon.registry().snapshot().counters;
    assert_eq!(counters.get("served.checkpoint.restores"), Some(&1));
    assert_eq!(counters.get("served.checkpoint.rejected"), None);
    daemon.stop();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn incremental_checkpoint_at_the_feed_end_reruns_no_batch_shard() {
    let data = World::run(ScenarioConfig::tiny());
    let psl = SuffixList::default_list();
    let path = scratch("incremental.json");

    let mut cfg = config(Some(&path));
    cfg.day_batch = 30;
    let incremental = Engine::new(cfg)
        .run_incremental(&data, &psl)
        .expect("incremental run");
    let obs = obs::Obs::enabled();
    let batch = Engine::new(config(Some(&path)))
        .with_obs(obs.clone())
        .run(&data, &psl)
        .expect("batch resume");
    assert_eq!(batch.metrics.resumed_shards, SHARDS);
    assert_eq!(batch.metrics.shards.len(), SHARDS);
    assert!(batch.metrics.shards.iter().all(|s| s.attempts == 0));
    let attempts = obs
        .trace
        .records()
        .iter()
        .filter(|r| r.name.starts_with("shard ") && r.name.contains(" attempt "))
        .count();
    assert_eq!(attempts, 0, "no shard was folded again");
    assert_eq!(report_bytes(&batch), report_bytes(&incremental));
    let clean = Engine::new(config(None)).run(&data, &psl).expect("clean");
    assert_eq!(report_bytes(&batch), report_bytes(&clean));
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
    // Save once, at the feed end, not after every ingested day.
    let mut cfg = config(Some(&incremental_path));
    cfg.checkpoint_every_days = DayFeed::new(&data).day_count() + 1;
    let obs = obs::Obs::enabled();
    Engine::new(cfg)
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
        match Checkpoint::load(&cut_path, data.fingerprint(), SHARDS) {
            Err(Rejection::Parse(_)) => {}
            other => panic!("cut at {k}/64 ({cut} bytes) gave {other:?}"),
        }
    }

    // An engine handed a truncated file says so, counts it, and starts
    // fresh with identical results.
    std::fs::write(&cut_path, &bytes[..bytes.len() / 2]).expect("write cut");
    let obs = obs::Obs::enabled();
    let fresh = Engine::new(config(Some(&cut_path)))
        .with_obs(obs.clone())
        .run(&data, &psl)
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
    let loaded = Checkpoint::load(&path, data.fingerprint(), SHARDS)
        .expect("previous loads")
        .expect("previous present");
    assert_eq!(loaded, previous);
    let resumed = IncrementalState::restore(&data, &psl, &loaded).expect("restores");
    assert_eq!(resumed.through(), Some(mid));

    staged.commit().expect("commit");
    let committed = Checkpoint::load(&path, data.fingerprint(), SHARDS)
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
    let saved = Checkpoint::load(&path, fp, SHARDS)
        .expect("loads")
        .expect("present");

    assert!(matches!(
        Checkpoint::load(&path, fp ^ 1, SHARDS),
        Err(Rejection::Fingerprint { .. })
    ));
    assert!(matches!(
        Checkpoint::load(&path, fp, SHARDS + 1),
        Err(Rejection::Width { .. })
    ));
    let unreadable = std::env::temp_dir().join("stale_checkpoint_modes_test");
    assert!(matches!(
        Checkpoint::load(&unreadable, fp, SHARDS),
        Err(Rejection::Unreadable(_))
    ));
    let v3 = scratch("v3.json");
    std::fs::write(
        &v3,
        format!(r#"{{"version": 3, "fingerprint": {fp}, "shards": {SHARDS}, "completed": []}}"#),
    )
    .expect("write");
    assert_eq!(
        Checkpoint::load(&v3, fp, SHARDS),
        Err(Rejection::Version(Some(3)))
    );

    let mut permuted = saved.clone();
    permuted.states.swap(0, 1);
    assert!(matches!(
        IncrementalState::restore(&data, &psl, &permuted),
        Err(Rejection::ShardOrder(_))
    ));
    let mut partial = saved.clone();
    partial.states.pop();
    assert!(matches!(
        IncrementalState::restore(&data, &psl, &partial),
        Err(Rejection::Incomplete { .. })
    ));

    // State over another world names certificates this corpus lacks.
    let mut other_cfg = ScenarioConfig::tiny();
    other_cfg.seed ^= 0x5eed;
    let other = World::run(other_cfg);
    let other_path = scratch("other.json");
    Engine::new(config(Some(&other_path)))
        .run(&other, &psl)
        .expect("other batch run");
    let mut foreign = Checkpoint::load(&other_path, other.fingerprint(), SHARDS)
        .expect("loads")
        .expect("present");
    foreign.fingerprint = fp;
    assert!(matches!(
        IncrementalState::restore(&data, &psl, &foreign),
        Err(Rejection::UnknownCertificate { .. })
    ));

    // The daemon refuses a permuted file, counts it and starts fresh.
    permuted.save(&path).expect("save permuted");
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
    for p in [&path, &v3, &other_path] {
        let _ = std::fs::remove_file(p);
    }
}
