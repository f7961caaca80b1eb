//! The metrics registry: named counters and fixed-bucket histograms.
//!
//! Counters are monotonic `u64` accumulators. Histograms use a fixed
//! bound ladder chosen at construction ([`Histogram::latency_us`] for
//! wall times, [`Histogram::depth`] for queue/ledger depths), so their
//! memory is bounded no matter how many observations a run makes — this
//! is what replaced the engine's unbounded `queue_depths: Vec<usize>`
//! and per-batch ingest vectors. Exact `min`/`max`/`sum` are tracked
//! alongside the buckets, so `max_queue_depth()`-style semantics are
//! preserved exactly; p50/p90/p99 are bucket-upper-bound estimates
//! clamped to `[min, max]`.
//!
//! Exports:
//! * [`Registry::export_json`] — a [`MetricsSnapshot`] rendered as
//!   pretty JSON, schema-tagged ([`METRICS_SCHEMA`], [`METRICS_VERSION`])
//!   and stable: object keys are sorted (BTreeMap), histograms always
//!   carry `bounds`/`counts`/`count`/`sum`/`min`/`max`/`p50`/`p90`/`p99`.
//!   Its one reader is [`MetricsSnapshot::from_json`]: decode, then the
//!   rules of [`MetricsSnapshot::validate`]. `stale-bench compare` and
//!   `watch` read through it, and `stale-lint preflight` reports the
//!   same two halves (`metrics-parse`, then every `metrics-schema`
//!   violation).
//! * [`Registry::export_prom`] — Prometheus text exposition (counters
//!   and cumulative `_bucket{le=...}` histogram series), for scraping.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Schema tag in the metrics-JSON export.
pub const METRICS_SCHEMA: &str = "stale-obs-metrics";
/// Current metrics schema version.
pub const METRICS_VERSION: u32 = 1;

/// Bucket upper bounds for wall-time histograms, microseconds
/// (10 µs … 60 s, roughly 1-2-5 per decade; one overflow bucket above).
pub const LATENCY_BOUNDS_US: &[u64] = &[
    10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 200_000,
    500_000, 1_000_000, 2_000_000, 5_000_000, 10_000_000, 30_000_000, 60_000_000,
];

/// Bucket upper bounds for depth/size histograms (queue depths, batch
/// item counts, ledger footprints).
pub const DEPTH_BOUNDS: &[u64] = &[
    0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576,
];

/// A fixed-bucket histogram with exact min/max/sum.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<u64>,
    /// `bounds.len() + 1` buckets; the last is the overflow bucket.
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// A histogram over explicit bucket upper bounds (must be strictly
    /// increasing; an overflow bucket is added automatically).
    pub fn with_bounds(bounds: &[u64]) -> Histogram {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
        }
    }

    /// Wall-time histogram ([`LATENCY_BOUNDS_US`]).
    pub fn latency_us() -> Histogram {
        Histogram::with_bounds(LATENCY_BOUNDS_US)
    }

    /// Depth/size histogram ([`DEPTH_BOUNDS`]).
    pub fn depth() -> Histogram {
        Histogram::with_bounds(DEPTH_BOUNDS)
    }

    /// Record one observation.
    pub fn observe(&mut self, value: u64) {
        let bucket = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        if let Some(slot) = self.counts.get_mut(bucket) {
            *slot += 1;
        }
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Fold another histogram in (same bound ladder only; a mismatched
    /// ladder is ignored rather than mis-binned).
    pub fn merge_from(&mut self, other: &Histogram) {
        if other.count == 0 || other.bounds != self.bounds {
            return;
        }
        for (slot, c) in self.counts.iter_mut().zip(&other.counts) {
            *slot += c;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Exact largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Bucket-estimated quantile (`0.0 < q <= 1.0`): the upper bound of
    /// the bucket where the cumulative count crosses `q`, clamped to the
    /// exact `[min, max]`. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                let upper = self.bounds.get(i).copied().unwrap_or(self.max);
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Freeze into the serializable export form.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self.counts.clone(),
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

/// The serialized form of a [`Histogram`] — what lands in metrics-JSON
/// exports and in `EngineMetrics`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds, strictly increasing.
    pub bounds: Vec<u64>,
    /// Per-bucket counts; `bounds.len() + 1` entries (overflow last).
    pub counts: Vec<u64>,
    /// Observations recorded.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Exact smallest observation (0 when empty).
    pub min: u64,
    /// Exact largest observation (0 when empty).
    pub max: u64,
    /// Estimated median.
    pub p50: u64,
    /// Estimated 90th percentile.
    pub p90: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Mean observation (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Schema violations in this snapshot (empty = clean).
    pub fn validate(&self, name: &str) -> Vec<String> {
        let mut out = Vec::new();
        if self.counts.len() != self.bounds.len() + 1 {
            out.push(format!(
                "histogram {name}: {} counts for {} bounds (expected bounds + 1)",
                self.counts.len(),
                self.bounds.len()
            ));
        }
        if !self.bounds.windows(2).all(|w| w[0] < w[1]) {
            out.push(format!(
                "histogram {name}: bounds are not strictly increasing"
            ));
        }
        if self.counts.iter().sum::<u64>() != self.count {
            out.push(format!(
                "histogram {name}: bucket counts sum to {} but count is {}",
                self.counts.iter().sum::<u64>(),
                self.count
            ));
        }
        if self.count > 0 {
            if self.min > self.max {
                out.push(format!(
                    "histogram {name}: min {} > max {}",
                    self.min, self.max
                ));
            }
            for (q, v) in [("p50", self.p50), ("p90", self.p90), ("p99", self.p99)] {
                if v < self.min || v > self.max {
                    out.push(format!(
                        "histogram {name}: {q} {v} outside [min {}, max {}]",
                        self.min, self.max
                    ));
                }
            }
            if !(self.p50 <= self.p90 && self.p90 <= self.p99) {
                out.push(format!(
                    "histogram {name}: quantiles not monotone (p50 {} p90 {} p99 {})",
                    self.p50, self.p90, self.p99
                ));
            }
        }
        out
    }
}

/// The whole registry, frozen for export. This is the stable
/// metrics-JSON schema: `stale-bench compare` diffs two of these.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Always [`METRICS_SCHEMA`].
    pub schema: String,
    /// Always [`METRICS_VERSION`].
    pub version: u32,
    /// Monotonic counters, name-sorted.
    pub counters: BTreeMap<String, u64>,
    /// Histograms, name-sorted.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Decode a metrics-JSON export, the first half of [`from_json`](MetricsSnapshot::from_json).
    pub fn decode(text: &str) -> Result<MetricsSnapshot, String> {
        serde_json::from_str(text)
            .map_err(|e| format!("does not deserialize as a metrics snapshot: {e}"))
    }

    /// The metrics export's one reader: decode, then refuse the first
    /// violation [`validate`](MetricsSnapshot::validate) names.
    pub fn from_json(text: &str) -> Result<MetricsSnapshot, String> {
        let snapshot = MetricsSnapshot::decode(text)?;
        snapshot
            .validate()
            .into_iter()
            .next()
            .map_or(Ok(snapshot), Err)
    }

    /// Every rule violation in this snapshot (empty = clean): schema,
    /// version, each histogram's shape.
    pub fn validate(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.schema != METRICS_SCHEMA {
            out.push(format!(
                "schema {:?} (expected {METRICS_SCHEMA:?})",
                self.schema
            ));
        }
        if self.version != METRICS_VERSION {
            out.push(format!(
                "version {} (expected {METRICS_VERSION})",
                self.version
            ));
        }
        for (name, hist) in &self.histograms {
            out.extend(hist.validate(name));
        }
        out
    }
}

struct RegistryInner {
    counters: Mutex<BTreeMap<String, u64>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

/// Thread-safe counter/histogram registry. Cloning shares the store.
#[derive(Clone)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry {
            inner: Arc::new(RegistryInner {
                counters: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// Add `value` to counter `name`.
    pub fn add(&self, name: &str, value: u64) {
        let mut counters = self
            .inner
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let slot = counters.entry(name.to_string()).or_insert(0);
        *slot = slot.saturating_add(value);
    }

    /// Record a wall-time observation (latency bound ladder).
    pub fn observe_latency_us(&self, name: &str, us: u64) {
        self.observe_with(name, us, Histogram::latency_us);
    }

    /// Record a depth/size observation (depth bound ladder).
    pub fn observe_depth(&self, name: &str, depth: u64) {
        self.observe_with(name, depth, Histogram::depth);
    }

    fn observe_with(&self, name: &str, value: u64, make: fn() -> Histogram) {
        let mut hists = self
            .inner
            .histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        hists
            .entry(name.to_string())
            .or_insert_with(make)
            .observe(value);
    }

    /// Fold a pre-built histogram into `name` (same bound ladder).
    pub fn record_histogram(&self, name: &str, hist: &Histogram) {
        let mut hists = self
            .inner
            .histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        match hists.get_mut(name) {
            Some(existing) => existing.merge_from(hist),
            None => {
                hists.insert(name.to_string(), hist.clone());
            }
        }
    }

    /// Freeze the registry into its stable export form.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .inner
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        let histograms = self
            .inner
            .histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(name, hist)| (name.clone(), hist.snapshot()))
            .collect();
        MetricsSnapshot {
            schema: METRICS_SCHEMA.to_string(),
            version: METRICS_VERSION,
            counters,
            histograms,
        }
    }

    /// Stable-schema JSON export (see [`MetricsSnapshot`]).
    pub fn export_json(&self) -> String {
        serde_json::to_string_pretty(&self.snapshot()).unwrap_or_default()
    }

    /// Prometheus text exposition: counters as `counter`, histograms as
    /// cumulative `_bucket{le=...}` series with `_sum`/`_count`. The
    /// per-reason audit counters (`audit.<det>.dropped.<reason>`) export
    /// as one labelled family per detector
    /// (`stale_audit_<det>_dropped{reason="..."}`); label values are
    /// escaped per the exposition format ([`prom_label_escape`]).
    pub fn export_prom(&self) -> String {
        let snapshot = self.snapshot();
        let mut out = String::new();
        let mut last_family: Option<String> = None;
        for (name, value) in &snapshot.counters {
            match split_reason_counter(name) {
                Some((family, reason)) => {
                    let prom = prom_name(&family);
                    // Counters are name-sorted, so one family's reasons
                    // are adjacent: emit its TYPE line once.
                    if last_family.as_deref() != Some(prom.as_str()) {
                        out.push_str(&format!("# TYPE {prom} counter\n"));
                        last_family = Some(prom.clone());
                    }
                    out.push_str(&format!(
                        "{prom}{{reason=\"{}\"}} {value}\n",
                        prom_label_escape(&reason)
                    ));
                }
                None => {
                    last_family = None;
                    let prom = prom_name(name);
                    out.push_str(&format!("# TYPE {prom} counter\n{prom} {value}\n"));
                }
            }
        }
        for (name, hist) in &snapshot.histograms {
            let prom = prom_name(name);
            out.push_str(&format!("# TYPE {prom} histogram\n"));
            let mut cum = 0u64;
            for (bound, count) in hist.bounds.iter().zip(&hist.counts) {
                cum += count;
                out.push_str(&format!(
                    "{prom}_bucket{{le=\"{}\"}} {cum}\n",
                    prom_label_escape(&bound.to_string())
                ));
            }
            out.push_str(&format!(
                "{prom}_bucket{{le=\"+Inf\"}} {}\n{prom}_sum {}\n{prom}_count {}\n",
                hist.count, hist.sum, hist.count
            ));
        }
        out
    }
}

/// Split an `audit.<det>.dropped.<reason>` counter into its labelled
/// family (`audit.<det>.dropped`) and the `reason` label value.
fn split_reason_counter(name: &str) -> Option<(String, String)> {
    let rest = name.strip_prefix("audit.")?;
    let (det, reason) = rest.split_once(".dropped.")?;
    if det.is_empty() || reason.is_empty() {
        return None;
    }
    Some((format!("audit.{det}.dropped"), reason.to_string()))
}

/// Escape a Prometheus label value per the text exposition format:
/// backslash, double quote and newline must be escaped inside the
/// `label="value"` quotes.
pub fn prom_label_escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Prometheus-safe metric name: `stale_` prefix, non-alphanumerics
/// folded to `_`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 6);
    out.push_str("stale_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_tracks_exact_min_max_and_buckets() {
        let mut h = Histogram::depth();
        for d in [3u64, 17, 2, 0, 9] {
            h.observe(d);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 17);
        assert_eq!(h.sum(), 31);
        let snap = h.snapshot();
        assert_eq!(snap.counts.iter().sum::<u64>(), 5);
        assert!(snap.validate("q").is_empty(), "{:?}", snap.validate("q"));
    }

    #[test]
    fn quantiles_are_ordered_and_clamped() {
        let mut h = Histogram::latency_us();
        for us in [100u64, 150, 200, 5_000, 100_000] {
            h.observe(us);
        }
        let snap = h.snapshot();
        assert!(snap.p50 <= snap.p90 && snap.p90 <= snap.p99);
        assert!(snap.p50 >= snap.min && snap.p99 <= snap.max);
        // Overflow values land in the overflow bucket and clamp to max.
        let mut h = Histogram::with_bounds(&[10]);
        h.observe(1_000_000);
        assert_eq!(h.quantile(0.99), 1_000_000);
    }

    #[test]
    fn empty_histogram_is_all_zeroes() {
        let h = Histogram::latency_us();
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0);
        let snap = h.snapshot();
        assert_eq!(snap.mean(), 0);
        assert!(snap.validate("empty").is_empty());
    }

    #[test]
    fn registry_snapshot_roundtrips_and_validates() {
        let reg = Registry::new();
        reg.add("engine.stage.partition.wall_us", 1234);
        reg.add("engine.stage.partition.wall_us", 1);
        reg.observe_latency_us("engine.shard.wall_us", 900);
        reg.observe_depth("engine.queue.depth", 3);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["engine.stage.partition.wall_us"], 1235);
        assert!(snap.validate().is_empty(), "{:?}", snap.validate());
        let json = reg.export_json();
        assert_eq!(MetricsSnapshot::from_json(&json), Ok(snap));
        // The reader refuses what validation names, with the same words.
        let future = json.replace("\"version\": 1", "\"version\": 9");
        assert_ne!(future, json, "damage applied");
        let refused = MetricsSnapshot::from_json(&future).expect_err("refused");
        let named = MetricsSnapshot::decode(&future)
            .expect("decodes")
            .validate();
        assert_eq!(Some(&refused), named.first());
        assert!(MetricsSnapshot::from_json("{}").is_err());
    }

    #[test]
    fn merge_preserves_exact_max() {
        let mut a = Histogram::depth();
        a.observe(4);
        let mut b = Histogram::depth();
        b.observe(99);
        a.merge_from(&b);
        assert_eq!(a.max(), 99);
        assert_eq!(a.count(), 2);
        // Mismatched ladders are ignored, not mis-binned.
        let mut c = Histogram::with_bounds(&[1, 2]);
        c.observe(1);
        a.merge_from(&c);
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn prom_exposition_shape() {
        let reg = Registry::new();
        reg.add("supervisor.retries", 2);
        reg.observe_latency_us("engine.shard.wall_us", 42);
        let prom = reg.export_prom();
        assert!(prom.contains("# TYPE stale_supervisor_retries counter"));
        assert!(prom.contains("stale_supervisor_retries 2"));
        assert!(prom.contains("# TYPE stale_engine_shard_wall_us histogram"));
        assert!(prom.contains("stale_engine_shard_wall_us_bucket{le=\"+Inf\"} 1"));
        assert!(prom.contains("stale_engine_shard_wall_us_count 1"));
    }

    #[test]
    fn prom_label_values_escape_hostile_strings() {
        // Per the exposition format, `\`, `"` and newline must be
        // escaped inside label quotes.
        assert_eq!(prom_label_escape("plain-reason"), "plain-reason");
        assert_eq!(prom_label_escape(r#"a\b"#), r#"a\\b"#);
        assert_eq!(prom_label_escape(r#"say "hi""#), r#"say \"hi\""#);
        assert_eq!(prom_label_escape("two\nlines"), "two\\nlines");
        assert_eq!(
            prom_label_escape("\\\"\n"),
            "\\\\\\\"\\n",
            "all three escapes compose"
        );

        // A hostile reason tag cannot break out of the quoted label.
        let reg = Registry::new();
        reg.add("audit.kc.dropped.evil\"} 9\nbroken 1", 4);
        let prom = reg.export_prom();
        assert!(
            prom.contains("stale_audit_kc_dropped{reason=\"evil\\\"} 9\\nbroken 1\"} 4"),
            "{prom}"
        );
        assert!(!prom.contains("\nbroken 1\n"), "{prom}");
    }

    #[test]
    fn prom_exports_reason_counters_as_one_labelled_family() {
        let reg = Registry::new();
        reg.add("audit.kc.dropped.crl-outlier", 3);
        reg.add("audit.kc.dropped.crl-unmatched", 11);
        reg.add("audit.kc.kept", 5);
        reg.add("audit.mtd.dropped.outside-validity-window", 2);
        let prom = reg.export_prom();
        assert!(prom.contains("# TYPE stale_audit_kc_dropped counter"));
        assert!(prom.contains("stale_audit_kc_dropped{reason=\"crl-outlier\"} 3"));
        assert!(prom.contains("stale_audit_kc_dropped{reason=\"crl-unmatched\"} 11"));
        assert!(prom.contains("stale_audit_mtd_dropped{reason=\"outside-validity-window\"} 2"));
        // One TYPE line per family, not per reason.
        assert_eq!(
            prom.matches("# TYPE stale_audit_kc_dropped counter")
                .count(),
            1
        );
        // Unlabelled counters keep their plain form.
        assert!(prom.contains("# TYPE stale_audit_kc_kept counter\nstale_audit_kc_kept 5"));
    }

    #[test]
    fn snapshot_validation_flags_corruption() {
        let reg = Registry::new();
        reg.observe_depth("q", 5);
        let mut snap = reg.snapshot();
        snap.version = 99;
        assert!(!snap.validate().is_empty());
        let mut snap = reg.snapshot();
        if let Some(h) = snap.histograms.get_mut("q") {
            h.counts.pop();
        }
        assert!(!snap.validate().is_empty());
        let mut snap = reg.snapshot();
        if let Some(h) = snap.histograms.get_mut("q") {
            h.p50 = h.max + 10;
        }
        assert!(!snap.validate().is_empty());
    }
}
