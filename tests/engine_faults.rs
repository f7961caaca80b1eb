//! Supervisor fault tolerance: panic isolation, retry, degraded-shard
//! reporting, and the checkpoint a batch run leaves.
//!
//! Every worker folds its slice of the same shared, borrowed world (the
//! slices are routed once, up front), so the isolation tests here also
//! pin the sharing invariant: a panicking worker must not poison the
//! shared world or corrupt a sibling's slice — whatever the siblings
//! produce must be exactly what they produce in a clean run.

use stale_tls::engine::{Checkpoint, Engine, EngineConfig};
use stale_tls::prelude::*;
use stale_tls::worldsim::DayFeed;

/// The comparable byte form of a suite (same shape as the equivalence
/// tests): the full revocation join plus the three record streams.
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

fn world() -> (WorldDatasets, SuffixList) {
    (
        World::run(ScenarioConfig::tiny()),
        SuffixList::default_list(),
    )
}

fn record_key(r: &StaleCertRecord) -> (stale_tls::stale_types::CertId, String, Date) {
    (r.cert_id, r.domain.to_string(), r.invalidation)
}

#[test]
fn injected_panic_degrades_shard_but_others_survive() {
    let (data, psl) = world();
    let clean = Engine::with_shards(4).run(&data, &psl).expect("clean run");
    assert!(clean.is_complete());

    let mut cfg = EngineConfig::with_shards(4);
    cfg.fail_shards = vec![2];
    let report = Engine::new(cfg)
        .run(&data, &psl)
        .expect("degraded run still returns");

    assert!(!report.is_complete());
    assert_eq!(report.degraded.len(), 1);
    let d = &report.degraded[0];
    assert_eq!(d.shard, 2);
    assert_eq!(
        d.attempts, 2,
        "poisoned shard is retried once before degrading"
    );
    assert!(d.error.contains("injected failure"));

    // The degraded shard contributed nothing, but every record that did
    // come back belongs to the clean run's output.
    let clean_keys: std::collections::BTreeSet<_> =
        clean.suite.all_records().map(record_key).collect();
    let degraded_count = report.suite.all_records().count();
    assert!(
        degraded_count > 0,
        "three healthy shards still produce results"
    );
    assert!(degraded_count < clean.suite.all_records().count());
    for r in report.suite.all_records() {
        assert!(
            clean_keys.contains(&record_key(r)),
            "unexpected record {r:?}"
        );
    }
    // Shard 2 has no metrics entry; the others do.
    assert_eq!(report.metrics.shards.len(), 3);
    assert!(report.metrics.shards.iter().all(|s| s.shard != 2));
}

#[test]
fn transient_panic_is_retried_and_results_are_intact() {
    let (data, psl) = world();
    let clean = Engine::with_shards(4).run(&data, &psl).expect("clean run");

    let mut cfg = EngineConfig::with_shards(4);
    cfg.fail_once_shards = vec![1];
    let report = Engine::new(cfg).run(&data, &psl).expect("retried run");

    assert!(report.is_complete(), "one panic is retried, not degraded");
    let retried = report
        .metrics
        .shards
        .iter()
        .find(|s| s.shard == 1)
        .expect("shard 1 ran");
    assert_eq!(retried.attempts, 2);
    assert_eq!(
        report
            .suite
            .all_records()
            .map(record_key)
            .collect::<Vec<_>>(),
        clean
            .suite
            .all_records()
            .map(record_key)
            .collect::<Vec<_>>(),
    );
}

/// Batch reads no checkpoint: it folds the whole window whatever the
/// file holds, and a complete run records the feed end there.
#[test]
fn checkpoint_resume_skips_completed_shards_and_matches() {
    let (data, psl) = world();
    let dir = std::env::temp_dir().join("stale_engine_fault_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("resume.json");
    let _ = std::fs::remove_file(&path);

    let mut cfg = EngineConfig::with_shards(4);
    cfg.checkpoint = Some(path.clone());
    let first = Engine::new(cfg.clone())
        .run(&data, &psl)
        .expect("first run");
    assert!(first.is_complete());
    assert_eq!(first.metrics.resumed_shards, 0);
    let saved = Checkpoint::load(&path, data.fingerprint())
        .expect("loads")
        .expect("written");
    assert_eq!(saved.through, DayFeed::new(&data).end());

    let second = Engine::new(cfg).run(&data, &psl).expect("rerun");
    assert!(second.is_complete());
    assert_eq!(second.metrics.resumed_shards, 0, "batch resumes nothing");
    assert_eq!(second.metrics.shards.len(), 4);
    assert_eq!(
        second
            .suite
            .all_records()
            .map(record_key)
            .collect::<Vec<_>>(),
        first
            .suite
            .all_records()
            .map(record_key)
            .collect::<Vec<_>>(),
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn degraded_shard_is_not_checkpointed_and_recovers_on_rerun() {
    let (data, psl) = world();
    let dir = std::env::temp_dir().join("stale_engine_fault_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("recover.json");
    let _ = std::fs::remove_file(&path);

    let mut failing = EngineConfig::with_shards(4);
    failing.checkpoint = Some(path.clone());
    failing.fail_shards = vec![0];
    let broken = Engine::new(failing).run(&data, &psl).expect("degraded run");
    assert!(!broken.is_complete());
    assert!(!path.exists(), "a degraded run records no checkpoint");

    // Re-run without the fault: every shard folds again, and the
    // complete run records the feed end.
    let mut healthy = EngineConfig::with_shards(4);
    healthy.checkpoint = Some(path.clone());
    let recovered = Engine::new(healthy).run(&data, &psl).expect("recovery run");
    assert!(recovered.is_complete());
    assert_eq!(recovered.metrics.resumed_shards, 0);
    assert!(path.exists(), "a complete run records its checkpoint");

    let clean = Engine::with_shards(4).run(&data, &psl).expect("clean run");
    assert_eq!(
        recovered
            .suite
            .all_records()
            .map(record_key)
            .collect::<Vec<_>>(),
        clean
            .suite
            .all_records()
            .map(record_key)
            .collect::<Vec<_>>(),
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn panicking_shard_does_not_corrupt_sibling_views() {
    // Fail every shard in turn. Each degraded run must (a) be
    // deterministic — the same panic twice yields byte-identical surviving
    // output, which it could not if the panic scribbled on the shared
    // world — (b) emit only records the clean run emits, and (c) across
    // all four failure positions, every clean record must come back from
    // some run where its shard survived.
    let (data, psl) = world();
    let clean = Engine::with_shards(4).run(&data, &psl).expect("clean run");
    let clean_keys: std::collections::BTreeSet<_> =
        clean.suite.all_records().map(record_key).collect();

    let mut survived: std::collections::BTreeSet<_> = std::collections::BTreeSet::new();
    for fail in 0..4 {
        let mut cfg = EngineConfig::with_shards(4);
        cfg.fail_shards = vec![fail];
        let once = Engine::new(cfg.clone())
            .run(&data, &psl)
            .expect("degraded run");
        let twice = Engine::new(cfg).run(&data, &psl).expect("degraded rerun");
        assert!(!once.is_complete());
        assert_eq!(
            suite_bytes(&once.suite),
            suite_bytes(&twice.suite),
            "fail={fail}: surviving shards must be deterministic over the shared world"
        );
        assert_eq!(once.degraded.len(), 1);
        assert_eq!(once.degraded[0].shard, fail);
        assert_eq!(once.metrics.shards.len(), 3, "fail={fail}");
        assert!(once.metrics.shards.iter().all(|s| s.shard != fail));
        for r in once.suite.all_records() {
            let key = record_key(r);
            assert!(clean_keys.contains(&key), "fail={fail}: spurious record");
            survived.insert(key);
        }
    }
    assert_eq!(
        survived, clean_keys,
        "every record must survive the runs where its shard was healthy"
    );
}

#[test]
fn transient_panics_on_multiple_view_shards_retry_to_byte_identity() {
    // Two workers panic once each mid-run and are retried over the same
    // borrowed slices; the final report must be byte-identical to a clean
    // run — a first-attempt panic must leave nothing behind.
    let (data, psl) = world();
    let clean = Engine::with_shards(4).run(&data, &psl).expect("clean run");

    let mut cfg = EngineConfig::with_shards(4);
    cfg.fail_once_shards = vec![0, 2];
    let report = Engine::new(cfg).run(&data, &psl).expect("retried run");
    assert!(report.is_complete());
    for shard in [0, 2] {
        let m = report
            .metrics
            .shards
            .iter()
            .find(|s| s.shard == shard)
            .expect("shard ran");
        assert_eq!(m.attempts, 2, "shard {shard} retried exactly once");
    }
    assert_eq!(suite_bytes(&report.suite), suite_bytes(&clean.suite));
}

#[test]
fn mid_failure_checkpoint_resume_is_byte_identical() {
    // Two shards panic with checkpointing on: the degraded run records no
    // checkpoint. The recovery run folds every shard against the freshly
    // routed world and merges to the clean run's bytes.
    let (data, psl) = world();
    let dir = std::env::temp_dir().join("stale_engine_fault_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mid_failure.json");
    let _ = std::fs::remove_file(&path);

    let mut failing = EngineConfig::with_shards(4);
    failing.checkpoint = Some(path.clone());
    failing.fail_shards = vec![1, 3];
    let broken = Engine::new(failing).run(&data, &psl).expect("degraded run");
    assert!(!broken.is_complete());
    assert_eq!(broken.degraded.len(), 2);
    assert_eq!(broken.metrics.resumed_shards, 0);
    assert!(!path.exists(), "a degraded run records no checkpoint");

    let mut healthy = EngineConfig::with_shards(4);
    healthy.checkpoint = Some(path.clone());
    let recovered = Engine::new(healthy).run(&data, &psl).expect("recovery run");
    assert!(recovered.is_complete());
    assert_eq!(recovered.metrics.resumed_shards, 0);

    let clean = Engine::with_shards(4).run(&data, &psl).expect("clean run");
    assert_eq!(suite_bytes(&recovered.suite), suite_bytes(&clean.suite));
    let _ = std::fs::remove_file(&path);
}
