//! Regression: a checkpoint is restored only if it keeps every invariant
//! its writer guarantees — states by their shard label, never by file
//! position, and ledgers sorted with no key twice.
//!
//! A snapshot whose states were permuted (hand-edited, or written by a
//! buggy tool) must be refused. Restoring shard 3's state into shard 0's
//! slot would route every later day's WHOIS and DNS items to ledgers
//! that never saw the certificates they pair with, silently losing
//! registrant-change and managed-TLS records. So must a snapshot whose
//! ledgers name one domain twice: restoring it keeps only the last
//! entry, silently dropping the certificates or delegation states of
//! the others.

use serde::value::Value;
use stale_tls::engine::{Checkpoint, Engine, EngineConfig};
use stale_tls::prelude::*;
use std::path::{Path, PathBuf};

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

#[test]
fn permuted_checkpoint_states_are_refused_and_the_run_starts_fresh() {
    let data = World::run(ScenarioConfig::tiny());
    let psl = SuffixList::default_list();
    let dir = std::env::temp_dir().join("stale_checkpoint_order_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("permuted.json");
    let _ = std::fs::remove_file(&path);

    // A real snapshot at 4 shards, 20 days into the aDNS window.
    let mut cfg = EngineConfig::with_shards(4);
    cfg.day_batch = 10;
    cfg.checkpoint = Some(path.clone());
    cfg.through = Some(data.adns_window.start + Duration::days(20));
    Engine::new(cfg)
        .run_incremental(&data, &psl)
        .expect("snapshot run");

    // Reverse the states, each keeping the shard label it was saved with.
    let text = std::fs::read_to_string(&path).expect("read snapshot");
    let mut value: Value = serde_json::from_str(&text).expect("snapshot is JSON");
    let mut permuted = false;
    if let Value::Obj(fields) = &mut value {
        for (key, field) in fields.iter_mut() {
            if let (true, Value::Arr(states)) = (key == "states", field) {
                assert_eq!(states.len(), 4, "a complete snapshot");
                states.reverse();
                permuted = true;
            }
        }
    }
    assert!(permuted, "snapshot has a states list");
    std::fs::write(&path, serde_json::to_string(&value).expect("serialise")).expect("write");

    // Draining the feed from the permuted file must match a clean run.
    let mut cfg = EngineConfig::with_shards(4);
    cfg.day_batch = 10;
    let clean = Engine::new(cfg.clone())
        .run_incremental(&data, &psl)
        .expect("clean run");
    cfg.checkpoint = Some(path.clone());
    let resumed = Engine::new(cfg)
        .run_incremental(&data, &psl)
        .expect("resumed run");
    assert_eq!(
        resumed.metrics.resumed_shards, 0,
        "a checkpoint with permuted states must be refused"
    );
    assert_eq!(suite_bytes(&resumed.suite), suite_bytes(&clean.suite));
    let _ = std::fs::remove_file(&path);
}

/// Write a real snapshot of the tiny world at 4 shards, 20 days into the
/// aDNS window, to `name`, and return the world and the snapshot's path.
fn snapshot(name: &str) -> (WorldDatasets, SuffixList, PathBuf) {
    let data = World::run(ScenarioConfig::tiny());
    let psl = SuffixList::default_list();
    let dir = std::env::temp_dir().join("stale_checkpoint_order_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    let mut cfg = EngineConfig::with_shards(4);
    cfg.day_batch = 10;
    cfg.checkpoint = Some(path.clone());
    cfg.through = Some(data.adns_window.start + Duration::days(20));
    Engine::new(cfg)
        .run_incremental(&data, &psl)
        .expect("snapshot run");
    (data, psl, path)
}

/// Draining the feed from the checkpoint at `path` must refuse it with a
/// reason naming `needle`, count the refusal and match a clean run.
fn refused_and_fresh(data: &WorldDatasets, psl: &SuffixList, path: &Path, needle: &str) {
    let mut cfg = EngineConfig::with_shards(4);
    cfg.day_batch = 10;
    let clean = Engine::new(cfg.clone())
        .run_incremental(data, psl)
        .expect("clean run");
    cfg.checkpoint = Some(path.to_path_buf());
    let obs = obs::Obs::enabled();
    let resumed = Engine::new(cfg)
        .with_obs(obs.clone())
        .run_incremental(data, psl)
        .expect("resumed run");
    assert_eq!(resumed.metrics.resumed_shards, 0, "must be refused");
    let why = resumed.metrics.checkpoint_rejected.as_deref().unwrap_or("");
    assert!(why.contains(needle), "{why:?}");
    assert_eq!(
        obs.registry.snapshot().counters.get("checkpoint.rejected"),
        Some(&1)
    );
    assert_eq!(suite_bytes(&resumed.suite), suite_bytes(&clean.suite));
}

#[test]
fn a_split_rc_ledger_is_refused_and_the_run_starts_fresh() {
    let (data, psl, path) = snapshot("split_rc.json");
    let mut cp = Checkpoint::load(&path, data.fingerprint(), 4)
        .expect("snapshot loads")
        .expect("snapshot present");
    // One certificate per entry: every domain naming several appears
    // several times.
    let mut split = false;
    for state in &mut cp.states {
        let mut entries = Vec::new();
        for (domain, certs) in std::mem::take(&mut state.rc.certs_by_e2ld) {
            split |= certs.len() > 1;
            entries.extend(certs.into_iter().map(|c| (domain.clone(), vec![c])));
        }
        state.rc.certs_by_e2ld = entries;
    }
    assert!(split, "some domain is named by several certificates");
    cp.save(&path).expect("write");
    refused_and_fresh(&data, &psl, &path, "rc.certs_by_e2ld");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_target_both_delegated_and_undelegated_is_refused_and_the_run_starts_fresh() {
    let (data, psl, path) = snapshot("both.json");
    let mut cp = Checkpoint::load(&path, data.fingerprint(), 4)
        .expect("snapshot loads")
        .expect("snapshot present");
    // List every delegated target as undelegated too.
    let mut listed = false;
    for state in &mut cp.states {
        listed |= !state.mtd.delegated.is_empty();
        state
            .mtd
            .undelegated
            .extend(state.mtd.delegated.iter().cloned());
        state.mtd.undelegated.sort();
    }
    assert!(listed, "some target is delegated 20 days in");
    cp.save(&path).expect("write");
    refused_and_fresh(&data, &psl, &path, "both delegated and undelegated");
    let _ = std::fs::remove_file(&path);
}
