//! Criterion benches for the DESIGN.md ablations: both sides of each
//! design decision on identical inputs.

use criterion::{criterion_group, criterion_main, Criterion};
use stale_bench::{ablate, Experiments};
use stale_types::DomainName;
use std::sync::OnceLock;
use worldsim::ScenarioConfig;

fn experiments() -> &'static Experiments {
    static CELL: OnceLock<Experiments> = OnceLock::new();
    CELL.get_or_init(|| Experiments::new(ScenarioConfig::tiny()))
}

/// The paper-preset world, simulated once and shared by the engine-scale
/// benches (simulation stays outside every timing loop).
fn paper_world() -> &'static (worldsim::WorldDatasets, psl::SuffixList) {
    static WORLD: OnceLock<(worldsim::WorldDatasets, psl::SuffixList)> = OnceLock::new();
    WORLD.get_or_init(|| {
        (
            worldsim::World::run(ScenarioConfig::paper2023()),
            psl::SuffixList::default_list(),
        )
    })
}

fn bench_dns_history(c: &mut Criterion) {
    let e = experiments();
    let domains: Vec<DomainName> = e.data.adns.domains().take(200).cloned().collect();
    let window = e.data.adns_window;
    let config = e.data.cdn_config.clone();
    let is_target = move |n: &DomainName| config.is_delegation_target(n);
    let mut group = c.benchmark_group("ablate_dns_history");
    group.sample_size(10);
    group.bench_function("interval_queries", |b| {
        b.iter(|| ablate::departures_interval(&e.data.adns, &domains, window, &is_target))
    });
    group.bench_function("materialised_snapshots", |b| {
        b.iter(|| ablate::departures_materialised(&e.data.adns, &domains, window, &is_target))
    });
    group.finish();
}

fn bench_crl_join(c: &mut Criterion) {
    let e = experiments();
    let mut group = c.benchmark_group("ablate_crl_join");
    group.sample_size(10);
    group.bench_function("hash_join", |b| {
        b.iter(|| ablate::crl_join_hash(&e.data.crl, &e.data.monitor))
    });
    group.bench_function("sort_merge_join", |b| {
        b.iter(|| ablate::crl_join_sort_merge(&e.data.crl, &e.data.monitor))
    });
    group.finish();
}

/// The engine's shard-count ablation (1/2/4/8) over the paper-preset
/// world, detection only — the world is simulated once, outside timing.
/// Record a baseline with `BENCH_JSON=BENCH_engine.json cargo bench
/// --bench ablations ablate_engine_shards`.
fn bench_engine_shards(c: &mut Criterion) {
    let (data, psl) = paper_world();
    let mut group = c.benchmark_group("ablate_engine_shards");
    group.sample_size(10);
    for shards in [1usize, 2, 4, 8] {
        group.bench_function(&format!("shards_{shards}"), |b| {
            b.iter(|| {
                let report = engine::Engine::with_shards(shards)
                    .run(data, psl)
                    .expect("engine");
                assert!(report.is_complete());
                report.suite.key_compromise.len()
            })
        });
    }
    group.finish();
}

/// Incremental-ingestion ablation over the paper-preset world: the cost
/// of producing today's report by (a) re-running the full batch engine,
/// (b) replaying the whole day feed through incremental state from
/// scratch (catch-up), and (c) appending a single day to state that is
/// already caught up — the steady-state daily cost the incremental mode
/// exists for. Record a baseline with `BENCH_JSON=BENCH_incremental.json
/// cargo bench --bench ablations ablate_incremental`.
fn bench_incremental(c: &mut Criterion) {
    use engine::partition::route;
    use stale_core::detector::key_compromise::{self, RevocationAnalysis};
    use stale_core::detector::managed_tls::{self, ManagedTlsDetector};
    use stale_core::detector::registrant_change::{
        self, enumerate_changes, RegistrantChangeDetector,
    };
    use stale_core::incremental::{KcIncremental, MtdIncremental, RcIncremental};
    use worldsim::DayFeed;

    let (data, psl) = paper_world();
    let batch_counts = {
        let report = engine::Engine::with_shards(1)
            .run(data, psl)
            .expect("engine");
        (
            report.suite.key_compromise.len(),
            report.suite.registrant_change.len(),
            report.suite.managed_tls.len(),
        )
    };
    let mut group = c.benchmark_group("ablate_incremental");
    group.sample_size(10);

    // (a) Full batch re-run: partition + detect + merge, every day.
    group.bench_function("full_batch", |b| {
        b.iter(|| {
            let report = engine::Engine::with_shards(1)
                .run(data, psl)
                .expect("engine");
            assert!(report.is_complete());
            report.suite.key_compromise.len()
        })
    });

    // (b) Incremental catch-up: replay every day-delta from an empty state.
    group.bench_function("incremental_catchup", |b| {
        b.iter(|| {
            let mut cfg = engine::EngineConfig::with_shards(1);
            cfg.day_batch = 1;
            let report = engine::Engine::new(cfg)
                .run_incremental(data, psl)
                .expect("engine");
            assert!(report.is_complete());
            report.suite.key_compromise.len()
        })
    });

    // (c) Single-day append: detector state caught up through the feed's
    // penultimate day (built once, outside timing); each iteration clones
    // it, ingests the final day, and regenerates the full merged report.
    let cutoff = RevocationAnalysis::cutoff_for(data.crl_window.start);
    let rc_detector = RegistrantChangeDetector::new(psl);
    let mtd_detector = ManagedTlsDetector::new(&data.cdn_config, psl);
    let feed = DayFeed::new(data);
    let last = feed.end();
    let mut kc = KcIncremental::new(cutoff);
    let mut rc = RcIncremental::new();
    let mut mtd = MtdIncremental::new(data.adns_window);
    let sink = &obs::NullSink;
    for (from, to) in feed.batches(feed.start(), 1, last.pred()) {
        let delta = feed.delta(from, to);
        let slices = route(&delta, psl, &mtd_detector, 1, 1);
        let slice = &slices[0];
        kc.ingest_day_observed(to, &slice.kc, &delta.crl, sink);
        rc.ingest_day_observed(to, &rc_detector, &slice.rc, &slice.whois, sink);
        mtd.ingest_day_observed(to, &mtd_detector, &slice.mtd, &slice.dns, sink);
    }
    let final_delta = feed.delta(last, last);
    let change_index: std::collections::HashMap<_, _> = enumerate_changes(&data.whois)
        .into_iter()
        .map(|ch| ((ch.domain, ch.creation), ch.index))
        .collect();
    group.bench_function("single_day_append", |b| {
        // The clone stands in for "state already resident in memory" (a
        // long-running ingester mutates in place), so it is setup, not
        // measured work.
        b.iter_batched(
            || (kc.clone(), rc.clone(), mtd.clone()),
            |(mut kc, mut rc, mut mtd)| {
                let slices = route(&final_delta, psl, &mtd_detector, 1, 1);
                let slice = &slices[0];
                kc.ingest_day_observed(last, &slice.kc, &final_delta.crl, sink);
                rc.ingest_day_observed(last, &rc_detector, &slice.rc, &slice.whois, sink);
                mtd.ingest_day_observed(last, &mtd_detector, &slice.mtd, &slice.dns, sink);
                let revocations = key_compromise::merge_shards(
                    data.crl.records().len(),
                    cutoff,
                    vec![kc.finish()],
                );
                let kc_records = revocations.stale_records();
                let rc_records = registrant_change::merge_shards(vec![rc
                    .finish()
                    .into_iter()
                    .map(|(domain, creation, record)| (change_index[&(domain, creation)], record))
                    .collect()]);
                let mtd_records = managed_tls::merge_shards(vec![mtd.finish(&mtd_detector)]);
                assert_eq!(
                    (kc_records.len(), rc_records.len(), mtd_records.len()),
                    batch_counts,
                    "single-day append must reproduce the batch report"
                );
                kc_records.len()
            },
            criterion::BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_cruise_liner(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate_cruise_liner");
    group.sample_size(10);
    group.bench_function("blast_radius_32_customers", |b| {
        b.iter(|| {
            let (cruise, per_domain) = ablate::cruise_liner_blast_radius(32, 40);
            assert!(cruise >= per_domain);
            (cruise, per_domain)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_dns_history,
    bench_crl_join,
    bench_engine_shards,
    bench_incremental,
    bench_cruise_liner
);
criterion_main!(benches);
