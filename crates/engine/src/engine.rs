//! The batch engine: route the day feed's full delta → fold each shard
//! under the supervisor → merge.
//!
//! Self-timing with `Instant` is sanctioned here (stage metrics never
//! feed detection results); the wall-clock rule still flags
//! `SystemTime` in this file.
// stale-lint: trusted-file(wallclock-in-detector)

use crate::checkpoint::{Checkpoint, Rejection};
use crate::config::EngineConfig;
use crate::metrics::{DegradedShardMetrics, EngineMetrics, ShardMetrics, StageMetrics};
use crate::partition::{route, ShardSlice};
use crate::stream::{Detectors, FoldTimes, ShardAudit, ShardOutput, ShardState, StateView};
use crate::supervisor::{run_shards, DegradedShard};
use ca::scraper::RevocationRecord;
use obs::{Obs, Registry, SpanId};
use psl::SuffixList;
use stale_core::detector::key_compromise::{self, RevocationAnalysis};
use stale_core::detector::managed_tls;
use stale_core::detector::registrant_change;
use stale_core::detector::DetectionSuite;
use stale_core::staleness::StaleCertRecord;
use stale_types::Date;
use std::path::Path;
use std::time::Instant;
use worldsim::{DayDelta, DayFeed, WorldDatasets};

/// Errors the engine itself can raise (detector panics degrade shards
/// instead of erroring; see [`EngineReport::degraded`], and an unusable
/// checkpoint is refused and the run starts fresh).
#[derive(Debug)]
pub enum EngineError {
    /// A checkpoint file could not be written.
    Checkpoint(std::io::Error),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Checkpoint(e) => write!(f, "cannot write checkpoint: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Everything one engine run produced.
pub struct EngineReport {
    /// Merged detector outputs — byte-identical across shard counts.
    pub suite: DetectionSuite,
    /// Shards that kept panicking and contributed no results.
    pub degraded: Vec<DegradedShard>,
    /// Stage/shard observability.
    pub metrics: EngineMetrics,
    /// Partition width of the run.
    pub shards: usize,
    /// Stale events in discovery order (incremental runs only; batch runs
    /// leave this empty — every record lands at once).
    pub events: Vec<stale_core::incremental::StaleEvent>,
    /// Merged decision audit ([`EngineConfig::audit`]); canonical order,
    /// independent of shard count and of batch vs incremental mode.
    pub audit: Option<obs::AuditReport>,
}

impl EngineReport {
    /// Whether every shard contributed (a degraded run is incomplete and
    /// the repro binary exits non-zero on it).
    pub fn is_complete(&self) -> bool {
        self.degraded.is_empty()
    }
}

/// The sharded detection engine. See the crate docs for the layering and
/// the determinism guarantee.
pub struct Engine {
    pub(crate) config: EngineConfig,
    pub(crate) obs: Obs,
}

impl Engine {
    /// Build with a configuration (tracing off).
    pub fn new(config: EngineConfig) -> Self {
        Engine {
            config,
            obs: Obs::disabled(),
        }
    }

    /// Convenience: default configuration at `shards`.
    pub fn with_shards(shards: usize) -> Self {
        Engine::new(EngineConfig::with_shards(shards))
    }

    /// Attach an observability bundle (shared tracer + registry). The
    /// caller keeps a clone to render/export after the run; observability
    /// is write-only from the engine's side and never alters results.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The run's observability bundle.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Run the three detectors over `data`, sharded per the
    /// configuration, and merge deterministically.
    ///
    /// Batch is the fold over the whole window: the bundle's [`DayFeed`]
    /// is routed once as its full delta — the items incremental runs
    /// fold, in the same day-major order — each shard folds its slice
    /// into fresh state and finishes as one supervised job, and the
    /// outputs go through the same merge as incremental runs. It reads
    /// no checkpoint; with [`EngineConfig::checkpoint`] set, a complete
    /// run records the feed end there (a degraded one records nothing).
    // stale-lint: entry(serial)
    pub fn run(&self, data: &WorldDatasets, psl: &SuffixList) -> Result<EngineReport, EngineError> {
        let obs = &self.obs;
        let mut root = obs.span("engine.run");
        let n = self.config.shards.max(1);
        root.count("shards", n as u64);

        // Stage 1: partition — the feed's full delta, routed once. Slices
        // borrow the shared immutable world; nothing is copied.
        let partition_start = Instant::now();
        let mut partition_span = root.child("partition");
        let delta = {
            let feed = DayFeed::new(data);
            feed.delta(feed.start(), feed.end())
        };
        let dets = Detectors::new(data, psl);
        let slices = route(&delta, psl, &dets.mtd, n, self.config.effective_workers());
        let routed_items: usize = slices.iter().map(ShardSlice::items).sum();
        partition_span.count("routed", routed_items as u64);
        drop(partition_span);
        let stage_partition = StageMetrics {
            name: "partition".to_string(),
            wall_us: partition_start.elapsed().as_micros() as u64,
            items_in: delta.items(),
            items_out: routed_items,
        };
        // The slices hold everything else; only the broadcast CRL stays.
        let DayDelta {
            to: through, crl, ..
        } = delta;
        record_stage(&obs.registry, &stage_partition);
        let cutoff = RevocationAnalysis::cutoff_for(data.crl_window.start);
        let job = FoldJob {
            data,
            dets: &dets,
            slices: &slices,
            crl: &crl,
            through,
            cutoff,
            audit: self.config.audit,
        };

        // A fresh shard with an empty slice can only finish empty:
        // synthesize its completion instead of paying supervisor setup for
        // it. Shards with injected faults still spawn — the panic is the
        // point of those runs.
        let mut completed: Vec<CompletedShard> = Vec::with_capacity(n);
        for (shard, slice) in slices.iter().enumerate() {
            if !slice.is_empty()
                || self.config.fail_shards.contains(&shard)
                || self.config.fail_once_shards.contains(&shard)
            {
                continue;
            }
            completed.push(job.finish(
                shard,
                ShardState::new(data, cutoff),
                0,
                &mut FoldTimes::default(),
            ));
        }
        if !completed.is_empty() {
            obs.registry
                .add("engine.shards_skipped", completed.len() as u64);
        }
        let jobs: Vec<usize> = (0..n)
            .filter(|s| !completed.iter().any(|c| c.metrics.shard == *s))
            .collect();

        // Stage 2: detect — one supervised fold job per remaining shard,
        // on the worker pool. Each attempt runs under its own span (child
        // of the detect span, created by the supervisor) and starts from
        // fresh state, so a panicked attempt leaves nothing behind.
        let detect_start = Instant::now();
        let detect_span = root.child("detect");
        let detect_id = detect_span.id();
        let config = &self.config;
        let run_shard = |shard: usize, attempt: u32, _span: SpanId| -> CompletedShard {
            if config.fail_shards.contains(&shard)
                || (config.fail_once_shards.contains(&shard) && attempt == 1)
            {
                // The fault-injection feature itself: this panic exercises
                // the supervisor's isolation and is caught by it.
                // stale-lint: allow(panic-in-shard)
                panic!("injected failure in shard {shard} (attempt {attempt})");
            }
            job.fold(shard, attempt, &obs.registry)
        };

        let (results, degraded, queue_depths) =
            run_shards(jobs, config.effective_workers(), obs, detect_id, run_shard);
        completed.extend(results.into_iter().flatten().map(|(_, _, done)| done));
        drop(detect_span);
        obs.registry
            .record_histogram("engine.queue.depth", &queue_depths);
        let stage_detect_wall = detect_start.elapsed().as_micros() as u64;
        drop(slices);
        if degraded.is_empty() {
            self.save_checkpoint(data, through, root.id())?;
        }

        // Collect outputs (synthesized + folded) in shard order.
        completed.sort_by_key(|c| c.metrics.shard);
        let emitted: usize = completed.iter().map(|c| c.output.items()).sum();
        let stage_detect = StageMetrics {
            name: "detect".to_string(),
            wall_us: stage_detect_wall,
            items_in: routed_items,
            items_out: emitted,
        };
        record_stage(&obs.registry, &stage_detect);

        // Stage 3: deterministic merge.
        let merge_start = Instant::now();
        let mut merge_span = root.child("merge");
        let mut gathered = self.config.audit.then(ShardAudit::default);
        let mut outputs = Vec::with_capacity(completed.len());
        let mut shard_metrics = Vec::with_capacity(completed.len());
        for c in completed {
            if let (Some(all), Some(shard)) = (gathered.as_mut(), c.audit) {
                all.decisions.extend(shard.decisions);
                all.kc_losers.extend(shard.kc_losers);
            }
            outputs.push(c.output);
            shard_metrics.push(c.metrics);
        }
        let StateView { suite, audit } = merge_outputs(data, cutoff, outputs, gathered);
        if let Some(report) = &audit {
            report.register_coverage(&obs.registry);
        }
        let merged =
            suite.key_compromise.len() + suite.registrant_change.len() + suite.managed_tls.len();
        merge_span.count("merged", merged as u64);
        drop(merge_span);
        let stage_merge = StageMetrics {
            name: "merge".to_string(),
            wall_us: merge_start.elapsed().as_micros() as u64,
            items_in: emitted,
            items_out: merged,
        };
        record_stage(&obs.registry, &stage_merge);

        let metrics = EngineMetrics {
            stages: vec![stage_partition, stage_detect, stage_merge],
            shards: shard_metrics,
            degraded: degraded
                .iter()
                .map(|d| DegradedShardMetrics {
                    shard: d.shard,
                    attempts: d.attempts,
                })
                .collect(),
            queue_depth: queue_depths.snapshot(),
            resumed_shards: 0,
            ingest: None,
            checkpoint_rejected: None,
        };
        Ok(EngineReport {
            suite,
            degraded,
            metrics,
            shards: n,
            events: Vec::new(),
            audit,
        })
    }

    /// Record `through` as the checkpoint at the configured path,
    /// crash-safely (nothing to do without one).
    pub(crate) fn save_checkpoint(
        &self,
        data: &WorldDatasets,
        through: Date,
        parent: SpanId,
    ) -> Result<(), EngineError> {
        let Some(path) = &self.config.checkpoint else {
            return Ok(());
        };
        let save_start = Instant::now();
        let span = self.obs.trace.child(parent, "checkpoint.save");
        let result = Checkpoint::new(data.fingerprint(), through)
            .save(path)
            .map_err(EngineError::Checkpoint);
        drop(span);
        self.obs.registry.add("checkpoint.saves", 1);
        self.obs.registry.observe_latency_us(
            "checkpoint.save_us",
            save_start.elapsed().as_micros() as u64,
        );
        result
    }

    /// Account a refused checkpoint: count it and return the reason for
    /// [`EngineMetrics::checkpoint_rejected`]. The run starts fresh.
    pub(crate) fn reject(&self, path: &Path, why: &Rejection) -> String {
        self.obs.registry.add("checkpoint.rejected", 1);
        format!(
            "checkpoint {} refused ({why}); starting fresh",
            path.display()
        )
    }
}

/// Accumulate one stage's wall/items into the registry's
/// `engine.stage.{name}.*` counters (what `stale-bench compare` diffs).
pub(crate) fn record_stage(registry: &Registry, stage: &StageMetrics) {
    registry.add(
        &format!("engine.stage.{}.wall_us", stage.name),
        stage.wall_us,
    );
    registry.add(
        &format!("engine.stage.{}.items_in", stage.name),
        stage.items_in as u64,
    );
    registry.add(
        &format!("engine.stage.{}.items_out", stage.name),
        stage.items_out as u64,
    );
}

/// Merge finished shard outputs into the suite and, given the shards'
/// gathered audit contributions, the decision audit. Batch, incremental
/// runs and the daemon's views all end here, which is what makes their
/// reports byte-identical and shard-count-invariant: kc
/// decisions are expanded from the global join, and every merge sorts
/// canonically (rc records by their own `(domain, invalidation,
/// cert_id)`, the serial enumeration order).
// stale-lint: entry(serial)
pub(crate) fn merge_outputs(
    data: &WorldDatasets,
    cutoff: Date,
    outputs: Vec<ShardOutput>,
    audit: Option<ShardAudit>,
) -> StateView {
    let mut kc = Vec::with_capacity(outputs.len());
    let mut rc = Vec::with_capacity(outputs.len());
    let mut mtd = Vec::with_capacity(outputs.len());
    for output in outputs {
        kc.push(output.kc);
        rc.push(output.rc);
        mtd.push(output.mtd);
    }
    let audit = audit.map(|mut a| {
        a.decisions.extend(key_compromise::audit_decisions(
            &data.crl,
            &kc,
            &a.kc_losers,
        ));
        obs::AuditReport::from_decisions(a.decisions)
    });
    let suite = merge_suite(data.crl.records().len(), cutoff, kc, rc, mtd);
    StateView { suite, audit }
}

/// The deterministic suite merge: exactly the three per-detector merge
/// functions, composed into a [`DetectionSuite`].
fn merge_suite(
    crl_total: usize,
    cutoff: Date,
    kc: Vec<Vec<key_compromise::ShardMatch>>,
    rc: Vec<Vec<StaleCertRecord>>,
    mtd: Vec<Vec<StaleCertRecord>>,
) -> DetectionSuite {
    let revocations = key_compromise::merge_shards(crl_total, cutoff, kc);
    DetectionSuite {
        key_compromise: revocations.stale_records(),
        revocations,
        registrant_change: registrant_change::merge_shards(rc),
        managed_tls: managed_tls::merge_shards(mtd),
    }
}

/// A finished shard, held in memory during a batch run.
struct CompletedShard {
    output: ShardOutput,
    /// The shard's decision-audit contribution (when auditing).
    audit: Option<ShardAudit>,
    metrics: ShardMetrics,
}

/// What every batch fold job shares, borrowed for the run.
struct FoldJob<'a, 'w> {
    data: &'w WorldDatasets,
    dets: &'a Detectors<'a>,
    slices: &'a [ShardSlice<'w>],
    crl: &'a [(usize, &'w RevocationRecord)],
    through: Date,
    cutoff: Date,
    audit: bool,
}

impl<'w> FoldJob<'_, 'w> {
    /// One shard's batch job: fold its whole-window slice into fresh
    /// state and finish. Runs under the supervisor, so a panic here
    /// degrades only this shard.
    // stale-lint: entry(shard)
    fn fold(&self, shard: usize, attempt: u32, registry: &Registry) -> CompletedShard {
        let start = Instant::now();
        let mut times = FoldTimes::default();
        let mut state = ShardState::new(self.data, self.cutoff);
        if let Some(slice) = self.slices.get(shard) {
            state.apply(
                self.through,
                slice,
                self.crl,
                self.dets,
                registry,
                &mut times,
            );
        }
        let done = self.finish(shard, state, attempt, &mut times);
        let wall_us = start.elapsed().as_micros() as u64;
        registry.observe_latency_us("engine.shard.wall_us", wall_us);
        registry.observe_latency_us("engine.shard.kc_us", times.kc_us);
        registry.observe_latency_us("engine.shard.rc_us", times.rc_us);
        registry.observe_latency_us("engine.shard.mtd_us", times.mtd_us);
        CompletedShard {
            metrics: ShardMetrics {
                wall_us,
                ..done.metrics
            },
            ..done
        }
    }

    /// Finish a shard's final state into its completion: merge output,
    /// audit contribution (when auditing) and metrics (timings so far in
    /// `times`).
    fn finish(
        &self,
        shard: usize,
        state: ShardState<'w>,
        attempts: u32,
        times: &mut FoldTimes,
    ) -> CompletedShard {
        let mut audit = self.audit.then(ShardAudit::default);
        let output = state.output(self.dets, audit.as_mut(), times);
        let items_in = self.slices.get(shard).map_or(0, ShardSlice::items);
        CompletedShard {
            metrics: ShardMetrics {
                shard,
                wall_us: times.kc_us + times.rc_us + times.mtd_us,
                kc_us: times.kc_us,
                rc_us: times.rc_us,
                mtd_us: times.mtd_us,
                items_in,
                items_out: output.items(),
                attempts,
            },
            output,
            audit,
        }
    }
}
