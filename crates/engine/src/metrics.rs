//! Layer 3: the engine's run metrics.
//!
//! Wall times are measured with `std::time::Instant` and recorded in
//! microseconds; they are observability only and never feed back into
//! results (which stay byte-deterministic). Unbounded per-observation
//! vectors (queue depths, per-batch ingest latencies) are folded into
//! bounded [`obs::HistogramSnapshot`]s so a large run's metrics stay a
//! fixed size; exact maxima are preserved (`max_queue_depth` reads the
//! histogram's exact max, not an estimate).

// Self-timing with `Instant` is sanctioned in the metrics layer.
// stale-lint: trusted-file(wallclock-in-detector)

use obs::HistogramSnapshot;
use serde::{Deserialize, Serialize};

/// One pipeline stage (partition, detect, merge).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageMetrics {
    /// Stage name.
    pub name: String,
    /// Wall time, microseconds.
    pub wall_us: u64,
    /// Items entering the stage.
    pub items_in: usize,
    /// Items leaving the stage.
    pub items_out: usize,
}

/// One shard's detector timings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardMetrics {
    /// Shard index.
    pub shard: usize,
    /// Total wall time, microseconds.
    pub wall_us: u64,
    /// Key-compromise join time.
    pub kc_us: u64,
    /// Registrant-change detection time.
    pub rc_us: u64,
    /// Managed-TLS detection time.
    pub mtd_us: u64,
    /// Items routed into the shard.
    pub items_in: usize,
    /// Matches/records the shard emitted.
    pub items_out: usize,
    /// Attempts taken (2 means the first attempt panicked).
    pub attempts: u32,
}

/// A shard that degraded (kept panicking); it contributed no results
/// but the metrics table still accounts for it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DegradedShardMetrics {
    /// Shard index.
    pub shard: usize,
    /// Attempts made before the shard was abandoned.
    pub attempts: u32,
}

/// One ingested day-batch in incremental mode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IngestBatchMetrics {
    /// Last day the batch covers.
    pub day: String,
    /// Days in the batch.
    pub days: usize,
    /// Wall time to route + ingest the batch across all shards.
    pub wall_us: u64,
    /// Delta items ingested (certificates, CRL records, WHOIS pairs, DNS
    /// changes).
    pub items: usize,
    /// Stale events emitted by the batch.
    pub events: usize,
}

/// Incremental-mode ingest observability. Per-batch latency is a bounded
/// histogram (plus the single slowest batch, kept verbatim), so the
/// metrics stay fixed-size no matter how many days a run replays.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct IngestMetrics {
    /// Configured days per delta.
    pub day_batch: usize,
    /// Total days ingested this run (excludes checkpoint-resumed days).
    pub days: usize,
    /// Batches ingested this run.
    pub batches: usize,
    /// Delta items ingested across all batches.
    pub items: usize,
    /// Stale events emitted across all batches.
    pub events: usize,
    /// Per-batch wall-time distribution (sum = total ingest wall).
    pub batch_wall: HistogramSnapshot,
    /// The slowest batch, verbatim.
    pub slowest: Option<IngestBatchMetrics>,
}

impl IngestMetrics {
    /// Mean wall time per ingested day.
    pub fn mean_day_us(&self) -> u64 {
        if self.days == 0 {
            return 0;
        }
        self.batch_wall.sum / self.days as u64
    }

    /// The slowest batch, if any.
    pub fn slowest(&self) -> Option<&IngestBatchMetrics> {
        self.slowest.as_ref()
    }

    /// Total stale events emitted.
    pub fn events(&self) -> usize {
        self.events
    }
}

/// The whole run's metrics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EngineMetrics {
    /// Pipeline stages, in execution order.
    pub stages: Vec<StageMetrics>,
    /// Per-shard detail, in shard order (degraded shards listed in
    /// [`EngineMetrics::degraded`] instead).
    pub shards: Vec<ShardMetrics>,
    /// Shards that degraded, in shard order.
    pub degraded: Vec<DegradedShardMetrics>,
    /// Queue depth observed at each job pop, as a bounded histogram
    /// (exact max preserved).
    pub queue_depth: HistogramSnapshot,
    /// Shards resumed from a checkpoint (incremental runs; batch folds
    /// the whole window and resumes none).
    pub resumed_shards: usize,
    /// Incremental-mode ingest detail (`None` for batch runs).
    pub ingest: Option<IngestMetrics>,
    /// Why the configured checkpoint was refused, if it was (the run
    /// then started fresh).
    pub checkpoint_rejected: Option<String>,
}

impl EngineMetrics {
    /// Ratio of the busiest shard's input to the mean shard input
    /// (1.0 = perfectly balanced). `None` with no shard data.
    pub fn shard_skew(&self) -> Option<f64> {
        if self.shards.is_empty() {
            return None;
        }
        let total: usize = self.shards.iter().map(|s| s.items_in).sum();
        let mean = total as f64 / self.shards.len() as f64;
        if mean == 0.0 {
            return Some(1.0);
        }
        let max = self.shards.iter().map(|s| s.items_in).max().unwrap_or(0);
        Some(max as f64 / mean)
    }

    /// Deepest queue observed (exact: the histogram tracks max).
    pub fn max_queue_depth(&self) -> usize {
        self.queue_depth.max as usize
    }

    /// Render the human-readable summary table the repro binary prints.
    pub fn render_table(&self) -> String {
        let human = |us: u64| -> String {
            if us < 1_000 {
                format!("{us} µs")
            } else if us < 1_000_000 {
                format!("{:.2} ms", us as f64 / 1_000.0)
            } else {
                format!("{:.3} s", us as f64 / 1_000_000.0)
            }
        };
        let mut out = String::new();
        out.push_str("engine metrics\n");
        out.push_str("  stage         wall        in        out\n");
        for s in &self.stages {
            out.push_str(&format!(
                "  {:<12}  {:>9}  {:>8}  {:>8}\n",
                s.name,
                human(s.wall_us),
                s.items_in,
                s.items_out
            ));
        }
        if !self.shards.is_empty() || !self.degraded.is_empty() {
            out.push_str(
                "  shard         wall        kc        rc       mtd        in       out  att\n",
            );
            // Interleave healthy and degraded rows in shard order, so the
            // table accounts for every shard instead of skipping failures.
            let mut healthy = self.shards.iter().peekable();
            let mut failed = self.degraded.iter().peekable();
            loop {
                let next_healthy = healthy.peek().map(|s| s.shard);
                let next_failed = failed.peek().map(|d| d.shard);
                match (next_healthy, next_failed) {
                    (Some(h), Some(f)) if f < h => {
                        render_degraded_row(&mut out, failed.next());
                    }
                    (Some(_), _) => {
                        if let Some(s) = healthy.next() {
                            out.push_str(&format!(
                                "  {:<12}  {:>9}  {:>8}  {:>8}  {:>8}  {:>8}  {:>8}  {:>3}\n",
                                format!("#{}", s.shard),
                                human(s.wall_us),
                                human(s.kc_us),
                                human(s.rc_us),
                                human(s.mtd_us),
                                s.items_in,
                                s.items_out,
                                s.attempts
                            ));
                        }
                    }
                    (None, Some(_)) => {
                        render_degraded_row(&mut out, failed.next());
                    }
                    (None, None) => break,
                }
            }
        }
        if let Some(skew) = self.shard_skew() {
            out.push_str(&format!(
                "  skew {:.2}x, max queue depth {}, resumed {} shard(s)\n",
                skew,
                self.max_queue_depth(),
                self.resumed_shards
            ));
        }
        if let Some(ingest) = &self.ingest {
            out.push_str(&format!(
                "  ingest: {} day(s) in {} batch(es) of {}, {} event(s), mean {}/day (p90 {}/batch)",
                ingest.days,
                ingest.batches,
                ingest.day_batch,
                ingest.events(),
                human(ingest.mean_day_us()),
                human(ingest.batch_wall.p90),
            ));
            if let Some(slow) = ingest.slowest() {
                out.push_str(&format!(
                    ", slowest batch {} ({} items) {}",
                    slow.day,
                    slow.items,
                    human(slow.wall_us)
                ));
            }
            if self.resumed_shards > 0 {
                out.push_str(&format!(", resumed {} shard(s)", self.resumed_shards));
            }
            out.push('\n');
        }
        out
    }
}

fn render_degraded_row(out: &mut String, d: Option<&DegradedShardMetrics>) {
    if let Some(d) = d {
        out.push_str(&format!(
            "  {:<12}  {:>9}  {:>8}  {:>8}  {:>8}  {:>8}  {:>8}  {:>3}\n",
            format!("#{}", d.shard),
            "DEGRADED",
            "-",
            "-",
            "-",
            "-",
            "-",
            d.attempts
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::Histogram;

    fn shard(id: usize, items_in: usize) -> ShardMetrics {
        ShardMetrics {
            shard: id,
            wall_us: 1500,
            kc_us: 500,
            rc_us: 500,
            mtd_us: 500,
            items_in,
            items_out: 1,
            attempts: 1,
        }
    }

    fn depths(values: &[u64]) -> HistogramSnapshot {
        let mut h = Histogram::depth();
        for &v in values {
            h.observe(v);
        }
        h.snapshot()
    }

    #[test]
    fn skew_and_depth() {
        let mut m = EngineMetrics::default();
        assert_eq!(m.shard_skew(), None);
        m.shards = vec![shard(0, 10), shard(1, 30)];
        m.queue_depth = depths(&[2, 1, 0]);
        assert_eq!(m.shard_skew(), Some(1.5));
        assert_eq!(m.max_queue_depth(), 2);
    }

    #[test]
    fn bounded_depth_histogram_preserves_exact_max() {
        // The histogram replaces the unbounded Vec<usize>: whatever the
        // observation count, max_queue_depth stays exact.
        let observations: Vec<u64> = (0..10_000).map(|i| i % 37).collect();
        let m = EngineMetrics {
            queue_depth: depths(&observations),
            ..Default::default()
        };
        assert_eq!(m.max_queue_depth(), 36);
        assert_eq!(m.queue_depth.count, 10_000);
        // Fixed size: the snapshot's buckets are the ladder, not the data.
        assert_eq!(m.queue_depth.counts.len(), m.queue_depth.bounds.len() + 1);
    }

    #[test]
    fn table_mentions_stages_and_shards() {
        let m = EngineMetrics {
            stages: vec![StageMetrics {
                name: "partition".into(),
                wall_us: 1234,
                items_in: 10,
                items_out: 10,
            }],
            shards: vec![shard(0, 5)],
            degraded: Vec::new(),
            queue_depth: depths(&[1, 0]),
            resumed_shards: 0,
            ingest: None,
            checkpoint_rejected: None,
        };
        let t = m.render_table();
        assert!(t.contains("partition"));
        assert!(t.contains("#0"));
        assert!(t.contains("skew"));
    }

    #[test]
    fn table_accounts_for_degraded_shards() {
        let m = EngineMetrics {
            stages: Vec::new(),
            shards: vec![shard(0, 5), shard(2, 5)],
            degraded: vec![DegradedShardMetrics {
                shard: 1,
                attempts: 2,
            }],
            queue_depth: depths(&[1, 0]),
            resumed_shards: 0,
            ingest: None,
            checkpoint_rejected: None,
        };
        let t = m.render_table();
        let lines: Vec<&str> = t.lines().collect();
        let row = |tag: &str| {
            lines
                .iter()
                .position(|l| l.trim_start().starts_with(tag))
                .unwrap_or_else(|| panic!("no row for {tag} in:\n{t}"))
        };
        // Every shard has a row, in shard order, and the degraded row
        // names the state and the attempts taken.
        assert!(row("#0") < row("#1") && row("#1") < row("#2"));
        let degraded_line = lines[row("#1")];
        assert!(degraded_line.contains("DEGRADED"));
        assert!(degraded_line.trim_end().ends_with('2'));
    }

    #[test]
    fn ingest_mean_uses_histogram_sum() {
        let mut batch_wall = Histogram::latency_us();
        batch_wall.observe(100);
        batch_wall.observe(300);
        let ingest = IngestMetrics {
            day_batch: 1,
            days: 2,
            batches: 2,
            items: 10,
            events: 3,
            batch_wall: batch_wall.snapshot(),
            slowest: Some(IngestBatchMetrics {
                day: "2023-05-02".into(),
                days: 1,
                wall_us: 300,
                items: 7,
                events: 2,
            }),
        };
        assert_eq!(ingest.mean_day_us(), 200);
        assert_eq!(ingest.events(), 3);
        assert_eq!(ingest.slowest().map(|b| b.wall_us), Some(300));
    }
}
