//! Regression: checkpoint states are restored by their shard label,
//! never by file position.
//!
//! A snapshot whose states were permuted (hand-edited, or written by a
//! buggy tool) must be refused. Restoring shard 3's state into shard 0's
//! slot would route every later day's WHOIS and DNS items to ledgers
//! that never saw the certificates they pair with, silently losing
//! registrant-change and managed-TLS records.

use serde::value::Value;
use stale_tls::engine::{Engine, EngineConfig};
use stale_tls::prelude::*;

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
