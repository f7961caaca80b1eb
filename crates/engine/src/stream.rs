//! The shard fold: routed deltas → persistent per-shard detector state.
//!
//! Self-timing with `Instant` is sanctioned here (fold metrics never
//! feed detection results), and slice indexing is in scope for the
//! panic rule: the indices below come from routed feeds and restored
//! checkpoints.
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
//! its single-day deltas. So a shard's state after the feed's last day is
//! the same however the feed was batched — a complete batch checkpoint is
//! byte-identical to an incremental run's at the feed end — and every
//! mode reports byte-identical results over the same bundle. With
//! `EngineConfig::checkpoint` set, an incremental run snapshots every
//! shard ([`crate::checkpoint::Checkpoint`]) every
//! `checkpoint_every_days` ingested days and after the final delta; a
//! matching checkpoint resumes ingestion after its last recorded day.

// stale-lint: trusted-file(wallclock-in-detector)
// stale-lint: scope(panic-index)

use crate::checkpoint::{Checkpoint, Rejection, ShardStateSnapshot};
use crate::engine::{merge_outputs, record_stage, Engine, EngineError, EngineReport};
use crate::metrics::{EngineMetrics, IngestBatchMetrics, IngestMetrics, StageMetrics};
use crate::partition::{route, ShardSlice};
use ca::scraper::RevocationRecord;
use obs::audit::Decision;
use obs::{AuditReport, CounterSink, Histogram, HistogramSnapshot, SpanId};
use psl::SuffixList;
use stale_core::detector::key_compromise::{KcLoser, RevocationAnalysis, ShardMatch};
use stale_core::detector::managed_tls::ManagedTlsDetector;
use stale_core::detector::registrant_change::RegistrantChangeDetector;
use stale_core::detector::DetectionSuite;
use stale_core::incremental::{
    KcIncremental, MtdIncremental, RcIncremental, RestoreError, StaleEvent,
};
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

    /// Rebuild a saved state over the bundle it was taken from, through
    /// `through`. Certificates are re-resolved by id, and every ledger
    /// entry is held to what a fold of this world through `through` could
    /// hold; a certificate the corpus lacks or an entry no such fold holds
    /// marks the checkpoint as another world's state, or a forged one.
    pub(crate) fn restore(
        saved: &ShardStateSnapshot,
        data: &'w WorldDatasets,
        dets: &Detectors<'_>,
        cutoff: Date,
        through: Date,
    ) -> Result<Self, Rejection> {
        let shard = saved.shard;
        let refuse = |e: RestoreError| match e {
            RestoreError::UnknownCertificate => Rejection::UnknownCertificate { shard },
            RestoreError::Unfounded(what) => Rejection::Unfounded { shard, what },
        };
        Ok(ShardState {
            kc: KcIncremental::restore(&saved.kc, &data.monitor, &data.crl, through, cutoff)
                .map_err(refuse)?,
            rc: RcIncremental::restore(&saved.rc, &data.monitor, &dets.rc, &data.whois, through)
                .map_err(refuse)?,
            mtd: MtdIncremental::restore(
                &saved.mtd,
                &data.monitor,
                &dets.mtd,
                &data.adns,
                data.adns_window,
                through,
            )
            .map_err(refuse)?,
        })
    }

    /// The persisted form of this state.
    pub(crate) fn snapshot(&self, shard: usize) -> ShardStateSnapshot {
        ShardStateSnapshot {
            shard,
            kc: self.kc.save(),
            rc: self.rc.save(),
            mtd: self.mtd.save(),
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

    /// Restore every shard from a checkpoint over the *same* bundle.
    ///
    /// Refused (with the reason) when the checkpoint belongs to another
    /// world, lacks a shard's state, breaks an invariant of the file
    /// ([`Checkpoint::violations`]: states out of shard order, ledgers
    /// unsorted or holding a key twice), names a certificate the monitor
    /// does not hold, or holds a ledger entry no fold of this world
    /// through its day could hold — stale state is discarded, never
    /// trusted.
    // stale-lint: entry(serial)
    pub fn restore(
        data: &'w WorldDatasets,
        psl: &'w SuffixList,
        cp: &Checkpoint,
    ) -> Result<Self, Rejection> {
        let n = cp.shards.max(1);
        cp.verify_for_run(data.fingerprint(), n)?;
        if !cp.is_complete() {
            return Err(Rejection::Incomplete {
                found: cp.states.len(),
                expected: n,
            });
        }
        let cutoff = RevocationAnalysis::cutoff_for(data.crl_window.start);
        let dets = Detectors::new(data, psl);
        let states = cp
            .states
            .iter()
            .map(|s| ShardState::restore(s, data, &dets, cutoff, cp.through))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(IncrementalState {
            data,
            psl,
            shards: n,
            cutoff,
            states,
            through: Some(cp.through),
        })
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

    /// Snapshot every shard. `None` until the first delta has been
    /// ingested (an empty state has no `through` day, and resuming it is
    /// the same as starting fresh).
    pub fn snapshot(&self) -> Option<Checkpoint> {
        let mut cp = Checkpoint::new(self.data.fingerprint(), self.shards, self.through?);
        cp.states = self
            .states
            .iter()
            .enumerate()
            .map(|(shard, s)| s.snapshot(shard))
            .collect();
        Some(cp)
    }

    /// Materialize the merged suite (and, with `audit`, the merged
    /// decision audit) over everything ingested so far — the batch
    /// driver's finish + merge, without consuming the state.
    ///
    /// Every call over the same ingested prefix renders identical bytes,
    /// and a view over the drained feed is byte-identical to
    /// [`Engine::run`] over the same bundle. The merge cannot fail (what
    /// it trusts was checked where it entered, at restore); the `Result`
    /// keeps callers' error paths.
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

        // Checkpoint: resume every shard after the last ingested day. A
        // checkpoint past `through` is unusable (its state already
        // contains days the caller asked to exclude) and is refused.
        let restore_span = root.child("checkpoint.restore");
        let mut rejected = None;
        let restored = match &self.config.checkpoint {
            Some(path) => {
                let restored = Checkpoint::load(path, data.fingerprint(), n).and_then(|cp| {
                    let Some(cp) = cp else { return Ok(None) };
                    if cp.through > through {
                        return Err(Rejection::Through(format!(
                            "taken through {}, past this run's last day {through}",
                            cp.through
                        )));
                    }
                    IncrementalState::restore(data, psl, &cp).map(Some)
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

            if days_since_ckpt >= self.config.checkpoint_every_days.max(1) {
                self.write_checkpoint(&state, root.id())?;
                days_since_ckpt = 0;
            }
        }
        ingest.batch_wall = batch_wall.snapshot();
        ingest.slowest = slowest;
        // The final state is always persisted (when checkpointing at all).
        if days_since_ckpt > 0 {
            self.write_checkpoint(&state, root.id())?;
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

    fn write_checkpoint(
        &self,
        state: &IncrementalState<'_>,
        parent: SpanId,
    ) -> Result<(), EngineError> {
        let Some(path) = &self.config.checkpoint else {
            return Ok(());
        };
        let Some(cp) = state.snapshot() else {
            return Ok(());
        };
        let save_start = Instant::now();
        let mut span = self.obs.trace.child(parent, "checkpoint.save");
        span.count("shards", cp.shards as u64);
        let result = cp.save(path).map_err(EngineError::Checkpoint);
        drop(span);
        self.obs.registry.add("checkpoint.saves", 1);
        self.obs.registry.observe_latency_us(
            "checkpoint.save_us",
            save_start.elapsed().as_micros() as u64,
        );
        result
    }
}
