//! Overprovisioned shard counts (`--shards N` with N above the candidate
//! count): shards whose slices are empty are accounted, not spawned.
//!
//! Routing the whole window for a large N can leave some shards with
//! nothing routed to them. The supervisor must skip spawning those
//! workers entirely — fewer shard attempt spans in the trace — while the
//! merged report stays byte-identical to a single-shard run and the
//! skips stay visible (zero-attempt metrics entries plus the
//! `engine.shards_skipped` counter).

use stale_tls::engine::{route, Engine, EngineConfig};
use stale_tls::prelude::*;
use stale_tls::stale_core::detector::managed_tls::ManagedTlsDetector;
use stale_tls::worldsim::DayFeed;

/// Same comparable byte form as `engine_equivalence.rs`.
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

/// A world small enough that a generous shard count is guaranteed to
/// leave hash buckets empty.
fn micro_world() -> WorldDatasets {
    let mut cfg = ScenarioConfig::tiny();
    cfg.initial_domains = 3;
    cfg.end = Date::parse("2021-07-01").expect("fixed");
    World::run(cfg)
}

#[test]
fn overprovisioned_shards_skip_empty_views_and_match() {
    let data = micro_world();
    let psl = SuffixList::default_list();
    let n = 32;

    let mtd_detector = ManagedTlsDetector::new(&data.cdn_config, &psl);
    let feed = DayFeed::new(&data);
    let occupied = route(
        &feed.delta(feed.start(), feed.end()),
        &psl,
        &mtd_detector,
        n,
        1,
    )
    .iter()
    .filter(|slice| !slice.is_empty())
    .count();
    assert!(occupied > 0, "micro world still routes something");
    assert!(
        occupied < n,
        "micro world must leave some of {n} shards empty"
    );

    let baseline = Engine::with_shards(1)
        .run(&data, &psl)
        .expect("single-shard run");
    let obs = obs::Obs::enabled();
    let report = Engine::new(EngineConfig::with_shards(n))
        .with_obs(obs.clone())
        .run(&data, &psl)
        .expect("overprovisioned run");

    assert!(report.is_complete());
    assert_eq!(
        suite_bytes(&report.suite),
        suite_bytes(&baseline.suite),
        "skipping empty slices must not change the merged report"
    );

    // Only occupied shards were spawned: one attempt span each.
    let spawned = obs
        .trace
        .records()
        .iter()
        .filter(|r| r.name.starts_with("shard ") && r.name.contains(" attempt "))
        .count();
    assert_eq!(
        spawned, occupied,
        "exactly one attempt span per non-empty slice"
    );
    assert!(spawned < n, "fewer spawned shard spans than shards");

    // The skips are accounted: zero-attempt metrics entries for every
    // skipped shard, and the counter agrees.
    assert_eq!(report.metrics.shards.len(), n);
    let skipped = report
        .metrics
        .shards
        .iter()
        .filter(|s| s.attempts == 0)
        .count();
    assert_eq!(skipped, n - occupied);
    assert_eq!(
        obs.registry
            .snapshot()
            .counters
            .get("engine.shards_skipped")
            .copied(),
        Some((n - occupied) as u64)
    );
}

#[test]
fn shard_count_above_candidates_still_byte_identical_on_tiny_world() {
    // The full tiny world at a shard count near its candidate count:
    // whatever mix of occupied and empty buckets falls out, the report
    // matches the serial suite.
    let data = World::run(ScenarioConfig::tiny());
    let psl = SuffixList::default_list();
    let serial = suite_bytes(&DetectionSuite::run(&data, &psl));
    for n in [64, 257] {
        let report = Engine::with_shards(n)
            .run(&data, &psl)
            .expect("overprovisioned run");
        assert!(report.is_complete());
        assert_eq!(suite_bytes(&report.suite), serial, "shards={n}");
    }
}
