//! The shard fold: routed deltas → persistent per-shard detector state.
//!
//! Self-timing with `Instant` is sanctioned here (fold metrics never
//! feed detection results), and slice indexing is in scope for the
//! panic rule: the indices below come from routed feeds.
//!
//! The paper defines every detector over daily feeds (§4.1 daily CRL
//! downloads, §4.2 WHOIS snapshots, §4.3 neighbouring-day aDNS diffs), so
//! the engine has one detection kernel: each shard's [`ShardState`]
//! folds routed deltas ([`crate::partition::route`]) into the
//! [`stale_core::incremental`] detector states, then finishes into a
//! [`ShardOutput`] that the shared merge ([`crate::engine`]) combines.
//! Three drivers feed it:
//!
//! * [`Engine::run`] (batch) folds the bundle's [`DayFeed`] as one full
//!   delta, one supervised job per shard;
//! * [`Engine::run_incremental`] replays the bundle's [`DayFeed`] one
//!   day-batch at a time through an [`IncrementalState`];
//! * the resident daemon (`stale-served`) keeps an [`IncrementalState`]
//!   alive, ingests one [`worldsim::DayDelta`] per fed day and
//!   materializes a [`StateView`] — the merged [`DetectionSuite`] plus
//!   the merged decision audit — **without consuming the state**, so it
//!   can answer queries after every ingested day and keep ingesting.
//!
//! Every mode takes its items from the one [`DayFeed`], in the same
//! day-major order, and a multi-day delta is exactly the concatenation of
//! its single-day deltas. So a shard's state after any day is the same
//! however the feed was batched, and every mode reports byte-identical
//! results over the same bundle. That also makes a shard's state through
//! day D a pure function of the world and D, which is all a checkpoint
//! ([`crate::checkpoint::Checkpoint`]) records: with
//! `EngineConfig::checkpoint` set, an incremental run records the last
//! ingested day after the final delta (and, when
//! `checkpoint_every_days` is set, every that many ingested days), and
//! [`IncrementalState::restore`] resumes from one by folding the feed
//! through that day into fresh state.

// stale-lint: trusted-file(wallclock-in-detector)
// stale-lint: scope(panic-index)

use crate::checkpoint::{Checkpoint, Rejection};
use crate::engine::{merge_outputs, record_stage, Engine, EngineError, EngineReport};
use crate::metrics::{EngineMetrics, IngestBatchMetrics, IngestMetrics, StageMetrics};
use crate::partition::{route, ShardSlice};
use ca::scraper::RevocationRecord;
use obs::audit::Decision;
use obs::{AuditReport, CounterSink, Histogram, HistogramSnapshot};
use psl::SuffixList;
use stale_core::detector::key_compromise::{KcLoser, RevocationAnalysis, ShardMatch};
use stale_core::detector::managed_tls::ManagedTlsDetector;
use stale_core::detector::registrant_change::RegistrantChangeDetector;
use stale_core::detector::DetectionSuite;
use stale_core::incremental::{KcIncremental, MtdIncremental, RcIncremental, StaleEvent};
use stale_core::staleness::StaleCertRecord;
use stale_types::Date;
use std::time::Instant;
use worldsim::{DayDelta, DayFeed, WorldDatasets};

/// The detectors a fold consults, built once per run.
pub(crate) struct Detectors<'a> {
    pub(crate) rc: RegistrantChangeDetector<'a>,
    pub(crate) mtd: ManagedTlsDetector<'a>,
}

impl<'a> Detectors<'a> {
    pub(crate) fn new(data: &'a WorldDatasets, psl: &'a SuffixList) -> Self {
        Detectors {
            rc: RegistrantChangeDetector::new(psl),
            mtd: ManagedTlsDetector::new(&data.cdn_config, psl),
        }
    }
}

/// Per-detector wall time of fold steps, in microseconds (observability
/// only).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FoldTimes {
    pub(crate) kc_us: u64,
    pub(crate) rc_us: u64,
    pub(crate) mtd_us: u64,
}

/// Microseconds since `*lap`, resetting the lap.
fn lap_us(lap: &mut Instant) -> u64 {
    let now = Instant::now();
    let us = (now - *lap).as_micros() as u64;
    *lap = now;
    us
}

/// One shard's decision-audit contribution: the rc/mtd decisions it
/// derives plus the kc duplicate-fingerprint losers it observed (kc
/// decisions proper are expanded at merge time from the global join, so
/// they cannot depend on shard count).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct ShardAudit {
    pub(crate) decisions: Vec<Decision>,
    pub(crate) kc_losers: Vec<KcLoser>,
}

/// What one shard's fold finished with: its contribution to the merge.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ShardOutput {
    /// Key-compromise join matches, in CRL-index order.
    pub(crate) kc: Vec<ShardMatch>,
    /// Registrant-change records.
    pub(crate) rc: Vec<StaleCertRecord>,
    /// Managed-TLS departure records.
    pub(crate) mtd: Vec<StaleCertRecord>,
}

impl ShardOutput {
    /// Matches and records the shard emitted.
    pub(crate) fn items(&self) -> usize {
        self.kc.len() + self.rc.len() + self.mtd.len()
    }
}

/// One shard's fold state: the three detectors' persistent state.
pub(crate) struct ShardState<'w> {
    kc: KcIncremental<'w>,
    rc: RcIncremental<'w>,
    mtd: MtdIncremental<'w>,
}

impl<'w> ShardState<'w> {
    /// Fresh state over `data`'s windows.
    pub(crate) fn new(data: &WorldDatasets, cutoff: Date) -> Self {
        ShardState {
            kc: KcIncremental::new(cutoff),
            rc: RcIncremental::new(),
            mtd: MtdIncremental::new(data.adns_window),
        }
    }

    /// Approximate retained-entry footprint.
    pub(crate) fn footprint(&self) -> usize {
        self.kc.footprint() + self.rc.footprint() + self.mtd.footprint()
    }

    /// Fold one routed slice, plus the delta's broadcast CRL records, in
    /// detector order. Returns the stale events it revealed, stamped
    /// `discovered`. Item counts flow into `sink`, which is write-only —
    /// folding cannot depend on what was recorded.
    pub(crate) fn apply(
        &mut self,
        discovered: Date,
        slice: &ShardSlice<'w>,
        crl: &[(usize, &'w RevocationRecord)],
        dets: &Detectors<'_>,
        sink: &dyn CounterSink,
        times: &mut FoldTimes,
    ) -> Vec<StaleEvent> {
        let mut lap = Instant::now();
        let mut events = self
            .kc
            .ingest_day_observed(discovered, &slice.kc, crl, sink);
        times.kc_us += lap_us(&mut lap);
        events.extend(self.rc.ingest_day_observed(
            discovered,
            &dets.rc,
            &slice.rc,
            &slice.whois,
            sink,
        ));
        times.rc_us += lap_us(&mut lap);
        events.extend(
            self.mtd
                .ingest_day_observed(discovered, &dets.mtd, &slice.mtd, &slice.dns, sink),
        );
        times.mtd_us += lap_us(&mut lap);
        events
    }

    /// Finish into the shard's merge contribution, without consuming the
    /// state; with `audit`, also append the shard's decision-audit
    /// contribution to it (one accumulator can gather every shard's).
    pub(crate) fn output(
        &self,
        dets: &Detectors<'_>,
        mut audit: Option<&mut ShardAudit>,
        times: &mut FoldTimes,
    ) -> ShardOutput {
        let mut lap = Instant::now();
        let kc = self.kc.finish();
        if let Some(a) = audit.as_deref_mut() {
            a.kc_losers.extend(self.kc.losers());
        }
        times.kc_us += lap_us(&mut lap);
        let rc = self.rc.finish();
        if let Some(a) = audit.as_deref_mut() {
            a.decisions.extend(self.rc.decisions());
        }
        times.rc_us += lap_us(&mut lap);
        let mtd = self.mtd.finish(&dets.mtd);
        if let Some(a) = audit {
            a.decisions.extend(self.mtd.decisions());
        }
        times.mtd_us += lap_us(&mut lap);
        ShardOutput { kc, rc, mtd }
    }
}

/// A materialized answer over everything ingested so far: the merged
/// detector suite and (when requested) the merged decision audit. Both
/// are produced by the **same** finish + merge the batch driver runs, so
/// a view over a drained feed is byte-identical to a batch report.
pub struct StateView {
    /// Merged detector outputs in canonical order.
    pub suite: DetectionSuite,
    /// Merged decision audit (`None` when the view was taken without
    /// auditing).
    pub audit: Option<AuditReport>,
}

/// Persistent per-shard fold state with a query-safe read surface.
///
/// The state borrows the world (`'w`) — certificates, CRL records and
/// scan histories are referenced, never copied — so it lives alongside a
/// [`WorldDatasets`] owned by the caller (the engine driver's stack
/// frame, or the daemon's state-actor thread).
///
/// Determinism: ingesting the same deltas in the same order yields the
/// same state regardless of how they were batched, and
/// [`IncrementalState::view`] is non-destructive and repeatable — two
/// views with no ingest between them render identical bytes.
pub struct IncrementalState<'w> {
    data: &'w WorldDatasets,
    psl: &'w SuffixList,
    shards: usize,
    cutoff: Date,
    states: Vec<ShardState<'w>>,
    through: Option<Date>,
}

impl<'w> IncrementalState<'w> {
    /// Fresh state at `shards` width over `data`.
    pub fn new(data: &'w WorldDatasets, psl: &'w SuffixList, shards: usize) -> Self {
        let n = shards.max(1);
        let cutoff = RevocationAnalysis::cutoff_for(data.crl_window.start);
        IncrementalState {
            data,
            psl,
            shards: n,
            cutoff,
            states: (0..n).map(|_| ShardState::new(data, cutoff)).collect(),
            through: None,
        }
    }

    /// Resume at `shards` width from a checkpoint over the *same* bundle:
    /// fresh state with `feed` folded in from its start through the
    /// checkpoint's day, the stale events discarded. The fold is
    /// deterministic and a multi-day delta is the concatenation of its
    /// days, so this is the state every run of this world through that
    /// day holds at this width, whatever width wrote the checkpoint.
    /// Refused (with the reason) when the checkpoint belongs to another
    /// world or its day lies outside the feed.
    // stale-lint: entry(serial)
    pub fn restore(
        data: &'w WorldDatasets,
        psl: &'w SuffixList,
        shards: usize,
        feed: &DayFeed<'w>,
        cp: &Checkpoint,
    ) -> Result<Self, Rejection> {
        cp.verify_for_run(data.fingerprint())?;
        if cp.through < feed.start() || cp.through > feed.end() {
            return Err(Rejection::Through(format!(
                "taken through {}, outside the feed {}..{}",
                cp.through,
                feed.start(),
                feed.end()
            )));
        }
        let mut state = IncrementalState::new(data, psl, shards);
        state.ingest_delta(&feed.delta(feed.start(), cp.through), &obs::NullSink);
        Ok(state)
    }

    /// Partition width.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Last ingested day (`None` before the first delta).
    pub fn through(&self) -> Option<Date> {
        self.through
    }

    /// Approximate retained-entry footprint across all shards.
    pub fn footprint(&self) -> usize {
        self.states.iter().map(ShardState::footprint).sum()
    }

    /// Ingest one delta: route it and fold each shard's slice into its
    /// state. Returns the stale events the delta revealed, in shard
    /// order. Item counts flow into `sink` (write-only; ingestion cannot
    /// depend on what was recorded).
    // stale-lint: entry(serial)
    pub fn ingest_delta(
        &mut self,
        delta: &DayDelta<'w>,
        sink: &dyn CounterSink,
    ) -> Vec<StaleEvent> {
        let dets = Detectors::new(self.data, self.psl);
        let slices = route(delta, self.psl, &dets.mtd, self.shards, 1);
        let mut times = FoldTimes::default();
        let mut events = Vec::new();
        for (state, slice) in self.states.iter_mut().zip(&slices) {
            events.extend(state.apply(delta.to, slice, &delta.crl, &dets, sink, &mut times));
        }
        self.through = Some(delta.to);
        events
    }

    /// The checkpoint of this state: how far it has folded. `None` until
    /// the first delta has been ingested (an empty state has no `through`
    /// day, and resuming it is the same as starting fresh).
    pub fn snapshot(&self) -> Option<Checkpoint> {
        Some(Checkpoint::new(self.data.fingerprint(), self.through?))
    }

    /// Materialize the merged suite (and, with `audit`, the merged
    /// decision audit) over everything ingested so far — the batch
    /// driver's finish + merge, without consuming the state.
    ///
    /// Every call over the same ingested prefix renders identical bytes,
    /// and a view over the drained feed is byte-identical to
    /// [`Engine::run`] over the same bundle. The merge cannot fail (its
    /// every input is this world's own fold); the `Result` keeps callers'
    /// error paths.
    pub fn view(&self, audit: bool) -> Result<StateView, EngineError> {
        Ok(self.view_counted(audit).0)
    }

    /// [`IncrementalState::view`] plus the pre-merge emitted-item count
    /// (the sum of every shard's finished kc/rc/mtd outputs) — what the
    /// engine's merge-stage metrics report as `items_in`.
    pub fn view_counted(&self, audit: bool) -> (StateView, usize) {
        let dets = Detectors::new(self.data, self.psl);
        let mut merged = audit.then(ShardAudit::default);
        let outputs: Vec<ShardOutput> = self
            .states
            .iter()
            .map(|s| s.output(&dets, merged.as_mut(), &mut FoldTimes::default()))
            .collect();
        let emitted = outputs.iter().map(ShardOutput::items).sum();
        (
            merge_outputs(self.data, self.cutoff, outputs, merged),
            emitted,
        )
    }
}

impl Engine {
    /// Run the detectors incrementally: replay the bundle's day feed
    /// through persistent per-shard state, emitting stale events per
    /// delta, and finish with the batch driver's deterministic merge.
    ///
    /// The resulting [`EngineReport::suite`] is byte-identical to
    /// [`Engine::run`] over the same bundle when the feed is drained
    /// (`through` unset or past the last feed day).
    // stale-lint: entry(serial)
    pub fn run_incremental(
        &self,
        data: &WorldDatasets,
        psl: &SuffixList,
    ) -> Result<EngineReport, EngineError> {
        let obs = &self.obs;
        let mut root = obs.span("engine.run_incremental");
        let n = self.config.shards.max(1);
        root.count("shards", n as u64);

        // Stage 1: index the bundle by observability day.
        let feed_start = Instant::now();
        let mut feed_span = root.child("feed");
        let feed = DayFeed::new(data);
        let feed_items = feed.items();
        let through = self.config.through.unwrap_or(feed.end()).min(feed.end());
        feed_span.count("items", feed_items as u64);
        drop(feed_span);
        let stage_feed = StageMetrics {
            name: "feed".to_string(),
            wall_us: feed_start.elapsed().as_micros() as u64,
            items_in: feed_items,
            items_out: feed_items,
        };
        record_stage(&obs.registry, &stage_feed);

        // Checkpoint: re-fold the feed through its day and resume after
        // it. A checkpoint past `through` is unusable (the caller asked
        // to stop before it) and is refused.
        let restore_span = root.child("checkpoint.restore");
        let mut rejected = None;
        let restored = match &self.config.checkpoint {
            Some(path) => {
                let restored = Checkpoint::load(path, data.fingerprint()).and_then(|cp| {
                    let Some(cp) = cp else { return Ok(None) };
                    if cp.through > through {
                        return Err(Rejection::Through(format!(
                            "taken through {}, past this run's last day {through}",
                            cp.through
                        )));
                    }
                    IncrementalState::restore(data, psl, n, &feed, &cp).map(Some)
                });
                restored.unwrap_or_else(|why| {
                    rejected = Some(self.reject(path, &why));
                    None
                })
            }
            None => None,
        };
        let resumed_shards = if restored.is_some() { n } else { 0 };
        drop(restore_span);
        obs.registry
            .add("engine.resumed_shards", resumed_shards as u64);
        if resumed_shards > 0 {
            obs.registry.add("checkpoint.restores", 1);
        }
        let mut state = restored.unwrap_or_else(|| IncrementalState::new(data, psl, n));
        let resume_from = match state.through() {
            Some(cp_through) => cp_through.succ(),
            None => feed.start(),
        };

        // Stage 2: ingest day-deltas, one batch of `day_batch` days at a
        // time, each routed and folded into every shard's state.
        let ingest_start = Instant::now();
        let day_batch = self.config.day_batch.max(1);
        let mut ingest = IngestMetrics {
            day_batch,
            ..Default::default()
        };
        // Per-batch latency is folded into a bounded histogram (plus the
        // slowest batch verbatim) instead of a per-batch vector, so a
        // years-long replay's metrics stay fixed-size.
        let mut batch_wall = Histogram::latency_us();
        let mut slowest: Option<IngestBatchMetrics> = None;
        let mut events: Vec<StaleEvent> = Vec::new();
        let mut ingested_total = 0usize;
        let mut days_since_ckpt = 0usize;
        for (from, to) in feed.batches(resume_from, day_batch, through) {
            let batch_start = Instant::now();
            let mut batch_span = root.child(&format!("ingest {to}"));
            let delta = feed.delta(from, to);
            let events_before = events.len();
            events.extend(state.ingest_delta(&delta, &obs.registry));
            obs.registry
                .observe_depth("engine.ingest.footprint", state.footprint() as u64);
            let batch_events = events.len() - events_before;
            let days = ((to - from).num_days() + 1) as usize;
            batch_span.count("days", days as u64);
            batch_span.count("items", delta.items() as u64);
            batch_span.count("events", batch_events as u64);
            drop(batch_span);
            let batch = IngestBatchMetrics {
                day: to.to_string(),
                days,
                wall_us: batch_start.elapsed().as_micros() as u64,
                items: delta.items(),
                events: batch_events,
            };
            batch_wall.observe(batch.wall_us);
            obs.registry
                .observe_latency_us("engine.ingest.batch_wall_us", batch.wall_us);
            if slowest.as_ref().is_none_or(|s| batch.wall_us > s.wall_us) {
                slowest = Some(batch.clone());
            }
            ingest.days += days;
            ingest.batches += 1;
            ingest.items += batch.items;
            ingest.events += batch.events;
            ingested_total += delta.items();
            days_since_ckpt += days;

            if self
                .config
                .checkpoint_every_days
                .is_some_and(|every| days_since_ckpt >= every)
            {
                self.save_checkpoint(data, to, root.id())?;
                days_since_ckpt = 0;
            }
        }
        ingest.batch_wall = batch_wall.snapshot();
        ingest.slowest = slowest;
        // The final day is always recorded (when checkpointing at all).
        if let Some(last) = state.through().filter(|_| days_since_ckpt > 0) {
            self.save_checkpoint(data, last, root.id())?;
        }
        let stage_ingest = StageMetrics {
            name: "ingest".to_string(),
            wall_us: ingest_start.elapsed().as_micros() as u64,
            items_in: ingested_total,
            items_out: events.len(),
        };
        record_stage(&obs.registry, &stage_ingest);

        // Stage 3: finish each shard's state and run the batch merge.
        let merge_start = Instant::now();
        let mut merge_span = root.child("merge");
        let (StateView { suite, audit }, emitted) = state.view_counted(self.config.audit);
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
            stages: vec![stage_feed, stage_ingest, stage_merge],
            shards: Vec::new(),
            degraded: Vec::new(),
            queue_depth: HistogramSnapshot::default(),
            resumed_shards,
            ingest: Some(ingest),
            checkpoint_rejected: rejected,
        };
        Ok(EngineReport {
            suite,
            degraded: Vec::new(),
            metrics,
            shards: n,
            events,
            audit,
        })
    }
}
