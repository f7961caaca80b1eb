//! Engine configuration.

use stale_types::Date;
use std::path::PathBuf;

/// Tuning knobs for one [`crate::Engine`] run.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of shards the datasets are partitioned into. `1` degrades to
    /// a serial run through the same partition/merge machinery. The run
    /// drains the shard queue on [`EngineConfig::effective_workers`]
    /// threads.
    pub shards: usize,
    /// Checkpoint file ([`crate::checkpoint`]: the last day folded in,
    /// one schema for every mode). Batch mode ([`crate::Engine::run`])
    /// reads none and records the feed end after a complete run.
    /// Incremental mode ([`crate::Engine::run_incremental`]) re-folds the
    /// feed through a matching checkpoint's day, at any width, and resumes
    /// after it, recording its own progress as it goes.
    pub checkpoint: Option<PathBuf>,
    /// Fault injection (tests / `repro --fail-shard`): these shards panic
    /// on every attempt and end up degraded.
    pub fail_shards: Vec<usize>,
    /// Fault injection: these shards panic on their first attempt only,
    /// exercising the retry path.
    pub fail_once_shards: Vec<usize>,
    /// Incremental mode: days ingested per delta (1 = strictly daily;
    /// larger batches amortise routing overhead, results are identical).
    pub day_batch: usize,
    /// Incremental mode: stop after ingesting this day (catch-up through a
    /// cutoff). `None` drains the full feed.
    pub through: Option<Date>,
    /// Incremental mode: also write the checkpoint after at least this
    /// many ingested days (when `checkpoint` is set). The final day is
    /// always written; with `None` it is the only one, since a resume
    /// re-folds the feed through the checkpoint's day anyway.
    pub checkpoint_every_days: Option<usize>,
    /// Record per-candidate decision audits (`repro --audit-out`). The
    /// audit stream is write-only from the detectors' side and never
    /// alters results; [`crate::EngineReport::suite`] is byte-identical
    /// with auditing on or off.
    pub audit: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            shards: available_parallelism(),
            checkpoint: None,
            fail_shards: Vec::new(),
            fail_once_shards: Vec::new(),
            day_batch: 1,
            through: None,
            checkpoint_every_days: None,
            audit: false,
        }
    }
}

impl EngineConfig {
    /// Default configuration with an explicit shard count.
    pub fn with_shards(shards: usize) -> Self {
        EngineConfig {
            shards: shards.max(1),
            ..Default::default()
        }
    }

    /// Worker threads a run uses: the host's available parallelism,
    /// clamped to `[1, shards]`.
    pub fn effective_workers(&self) -> usize {
        available_parallelism().clamp(1, self.shards.max(1))
    }
}

/// The host's available parallelism, defaulting to 1 when unknown.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
