//! The span-based tracer.
//!
//! A [`Trace`] is an append-only, thread-safe buffer of [`SpanRecord`]s.
//! Spans are created through RAII guards ([`SpanGuard`]): creation
//! allocates the record (ids are allocation-ordered), dropping the guard
//! stamps the wall time from a monotonic clock and flushes the guard's
//! counters. Parent/child nesting is explicit — a child span is created
//! from its parent guard (or from a [`SpanId`] when the parent lives on
//! another thread, as with the supervisor's per-shard spans).
//!
//! The JSONL export ([`Trace::to_jsonl`]) is one header line
//! ([`TraceHeader`]) followed by one [`SpanRecord`] object per line. It
//! has one reader, [`spans_from_jsonl`], which holds every rule: schema
//! and version, dense allocation-ordered ids, each parent before its
//! child, non-empty names, and a header span count that equals the
//! lines. [`validate_trace_jsonl`] — what `stale-lint preflight` reports
//! on `--trace-out` files — runs the same reader to completion.

// Span timing with `Instant` is the whole point of this module; only
// the duration fields carry it, never detection results.
// stale-lint: trusted-file(wallclock-in-detector)

use crate::faults::{Faults, Stop};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Schema tag on the JSONL header line.
pub const TRACE_SCHEMA: &str = "stale-obs-trace";
/// Current trace schema version.
pub const TRACE_VERSION: u32 = 1;

/// One finished (or still-open) span, as buffered and exported.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Allocation-ordered id, dense from 0.
    pub id: usize,
    /// Parent span id; `None` for roots.
    pub parent: Option<usize>,
    /// Span name (dotted lowercase by convention, e.g. `engine.run`).
    pub name: String,
    /// Start offset from the trace epoch, microseconds.
    pub start_us: u64,
    /// Wall time, microseconds (0 while the span is still open).
    pub wall_us: u64,
    /// Per-span counters, flushed when the guard drops.
    pub counters: BTreeMap<String, u64>,
}

/// The JSONL header line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceHeader {
    /// Always [`TRACE_SCHEMA`].
    pub schema: String,
    /// Always [`TRACE_VERSION`].
    pub version: u32,
    /// Number of span lines that follow.
    pub spans: usize,
}

/// Opaque span handle, safe to pass across threads (the supervisor hands
/// worker threads the detect-stage span to parent their attempts under).
/// A disabled trace issues only the `none` id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// The id that parents a root span (or comes from a disabled trace).
    pub fn none() -> SpanId {
        SpanId(None)
    }

    fn index(self) -> Option<usize> {
        self.0
    }
}

struct TraceInner {
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
}

/// The tracer. Cloning shares the buffer; `disabled()` traces record
/// nothing and cost nothing beyond an `Option` check per call.
#[derive(Clone)]
pub struct Trace {
    inner: Option<Arc<TraceInner>>,
}

impl Trace {
    /// A recording trace.
    pub fn enabled() -> Trace {
        Trace {
            inner: Some(Arc::new(TraceInner {
                epoch: Instant::now(),
                spans: Mutex::new(Vec::new()),
            })),
        }
    }

    /// A no-op trace: spans are never recorded.
    pub fn disabled() -> Trace {
        Trace { inner: None }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Start a root span.
    pub fn span(&self, name: &str) -> SpanGuard {
        self.child(SpanId::none(), name)
    }

    /// Start a span under `parent` (use the guard's [`SpanGuard::child`]
    /// when the parent guard is in scope; this form crosses threads).
    pub fn child(&self, parent: SpanId, name: &str) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard {
                trace: self.clone(),
                id: SpanId::none(),
                started: None,
                counters: BTreeMap::new(),
            };
        };
        let started = Instant::now();
        let start_us = started.duration_since(inner.epoch).as_micros() as u64;
        let mut spans = inner.spans.lock().unwrap_or_else(|e| e.into_inner());
        let id = spans.len();
        spans.push(SpanRecord {
            id,
            parent: parent.index(),
            name: name.to_string(),
            start_us,
            wall_us: 0,
            counters: BTreeMap::new(),
        });
        SpanGuard {
            trace: self.clone(),
            id: SpanId(Some(id)),
            started: Some(started),
            counters: BTreeMap::new(),
        }
    }

    /// Snapshot of every span recorded so far, in id order.
    pub fn records(&self) -> Vec<SpanRecord> {
        match &self.inner {
            Some(inner) => inner
                .spans
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone(),
            None => Vec::new(),
        }
    }

    /// Render the span buffer as an indented tree, children under
    /// parents in start order. Empty string for a disabled trace.
    pub fn render_tree(&self) -> String {
        let records = self.records();
        if records.is_empty() {
            return String::new();
        }
        // children[i] = ids whose parent is i; roots separately.
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); records.len()];
        let mut roots: Vec<usize> = Vec::new();
        for rec in &records {
            match rec.parent {
                Some(p) if p < records.len() => children[p].push(rec.id),
                _ => roots.push(rec.id),
            }
        }
        let mut out = String::new();
        out.push_str("trace\n");
        // Iterative DFS: (id, depth), children pushed in reverse so the
        // earliest-started child renders first.
        let mut stack: Vec<(usize, usize)> = roots.iter().rev().map(|&r| (r, 1)).collect();
        while let Some((id, depth)) = stack.pop() {
            let Some(rec) = records.get(id) else { continue };
            out.push_str(&"  ".repeat(depth));
            out.push_str(&rec.name);
            out.push_str(&format!("  {}", human_us(rec.wall_us)));
            if !rec.counters.is_empty() {
                let kv: Vec<String> = rec
                    .counters
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect();
                out.push_str(&format!("  [{}]", kv.join(" ")));
            }
            out.push('\n');
            for &c in children
                .get(id)
                .map(Vec::as_slice)
                .unwrap_or(&[])
                .iter()
                .rev()
            {
                stack.push((c, depth + 1));
            }
        }
        out
    }

    /// Export as JSONL: a [`TraceHeader`] line, then one span per line.
    pub fn to_jsonl(&self) -> String {
        let records = self.records();
        let header = TraceHeader {
            schema: TRACE_SCHEMA.to_string(),
            version: TRACE_VERSION,
            spans: records.len(),
        };
        let mut out = serde_json::to_string(&header).unwrap_or_default();
        out.push('\n');
        for rec in &records {
            out.push_str(&serde_json::to_string(rec).unwrap_or_default());
            out.push('\n');
        }
        out
    }

    fn finish(&self, id: SpanId, started: Option<Instant>, counters: BTreeMap<String, u64>) {
        let (Some(inner), Some(idx), Some(started)) = (&self.inner, id.index(), started) else {
            return;
        };
        let wall_us = started.elapsed().as_micros() as u64;
        let mut spans = inner.spans.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(rec) = spans.get_mut(idx) {
            rec.wall_us = wall_us;
            rec.counters = counters;
        }
    }
}

/// RAII span handle: dropping it stamps the wall time and flushes the
/// counters into the trace buffer.
pub struct SpanGuard {
    trace: Trace,
    id: SpanId,
    started: Option<Instant>,
    counters: BTreeMap<String, u64>,
}

impl SpanGuard {
    /// This span's id (to parent spans created on other threads).
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// Accumulate `value` onto this span's counter `name`.
    pub fn count(&mut self, name: &str, value: u64) {
        if self.id.index().is_none() {
            return;
        }
        *self.counters.entry(name.to_string()).or_insert(0) += value;
    }

    /// Start a child span.
    pub fn child(&self, name: &str) -> SpanGuard {
        self.trace.child(self.id, name)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let counters = std::mem::take(&mut self.counters);
        self.trace.finish(self.id, self.started.take(), counters);
    }
}

/// The trace's one reader (module docs list its rules). Returns the
/// spans in file (id) order.
fn read_spans(text: &str, faults: &mut Faults) -> Result<Vec<SpanRecord>, Stop> {
    let mut lines = text.lines();
    let first = lines
        .next()
        .ok_or_else(|| faults.fatal("empty file (expected a trace header line)".to_string()))?;
    let header: TraceHeader = serde_json::from_str(first)
        .map_err(|e| faults.fatal(format!("header line does not parse: {e}")))?;
    if header.schema != TRACE_SCHEMA {
        faults.report(format!(
            "header schema {:?} (expected {TRACE_SCHEMA:?})",
            header.schema
        ))?;
    }
    if header.version != TRACE_VERSION {
        faults.report(format!(
            "header version {} (expected {TRACE_VERSION})",
            header.version
        ))?;
    }
    let mut spans = Vec::new();
    let mut span_lines = 0usize;
    for (i, line) in lines.enumerate() {
        let lineno = i + 2;
        if line.trim().is_empty() {
            continue;
        }
        span_lines += 1;
        let rec: SpanRecord = match serde_json::from_str(line) {
            Ok(r) => r,
            Err(e) => {
                faults.report(format!("line {lineno}: does not parse as a span: {e}"))?;
                continue;
            }
        };
        // Ids are dense and allocation-ordered; a parent always
        // allocates before its children.
        let expected_id = span_lines - 1;
        if rec.id != expected_id {
            faults.report(format!(
                "line {lineno}: span id {} out of order (expected {expected_id})",
                rec.id
            ))?;
        }
        if let Some(p) = rec.parent {
            if p >= rec.id {
                faults.report(format!(
                    "line {lineno}: parent {p} does not precede span {}",
                    rec.id
                ))?;
            }
        }
        if rec.name.is_empty() {
            faults.report(format!("line {lineno}: empty span name"))?;
        }
        spans.push(rec);
    }
    if span_lines != header.spans {
        faults.report(format!(
            "header declares {} span(s) but the file holds {span_lines}",
            header.spans
        ))?;
    }
    Ok(spans)
}

/// Read a `--trace-out` JSONL export back into its spans, in id order.
/// Fails with the first violated rule of the trace's one reader.
pub fn spans_from_jsonl(text: &str) -> Result<Vec<SpanRecord>, String> {
    let mut faults = Faults::stop_at_first();
    let spans = read_spans(text, &mut faults);
    faults.verdict(spans)
}

/// Every violation in a `--trace-out` JSONL export, found by the trace's
/// own reader run to completion. Empty exactly when [`spans_from_jsonl`]
/// accepts the text. Pure and panic-free on any input — `stale-lint
/// preflight` wraps it.
pub fn validate_trace_jsonl(text: &str) -> Vec<String> {
    let mut faults = Faults::collect_all();
    let _ = read_spans(text, &mut faults);
    faults.found
}

/// Human-readable microseconds (same scale the engine table uses).
pub fn human_us(us: u64) -> String {
    if us < 1_000 {
        format!("{us} µs")
    } else if us < 1_000_000 {
        format!("{:.2} ms", us as f64 / 1_000.0)
    } else {
        format!("{:.3} s", us as f64 / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_record() {
        let trace = Trace::enabled();
        {
            let mut root = trace.span("engine.run");
            root.count("shards", 4);
            {
                let mut kc = root.child("kc");
                kc.count("certs", 10);
                kc.count("certs", 5);
            }
            let _merge = root.child("merge");
        }
        let records = trace.records();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].name, "engine.run");
        assert_eq!(records[0].parent, None);
        assert_eq!(records[1].parent, Some(0));
        assert_eq!(records[1].counters["certs"], 15);
        assert_eq!(records[2].parent, Some(0));
        assert_eq!(records[0].counters["shards"], 4);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let trace = Trace::disabled();
        let mut span = trace.span("anything");
        span.count("x", 1);
        let child = span.child("inner");
        drop(child);
        drop(span);
        assert!(trace.records().is_empty());
        assert_eq!(trace.render_tree(), "");
        assert!(!trace.is_enabled());
    }

    #[test]
    fn cross_thread_parenting_via_span_id() {
        let trace = Trace::enabled();
        let root = trace.span("detect");
        let parent = root.id();
        std::thread::scope(|scope| {
            for shard in 0..2 {
                let trace = trace.clone();
                scope.spawn(move || {
                    let _span = trace.child(parent, &format!("shard {shard}"));
                });
            }
        });
        drop(root);
        let records = trace.records();
        assert_eq!(records.len(), 3);
        assert!(records[1..].iter().all(|r| r.parent == Some(0)));
    }

    #[test]
    fn tree_renders_nested() {
        let trace = Trace::enabled();
        {
            let root = trace.span("engine.run");
            let part = root.child("partition");
            drop(part);
            let _merge = root.child("merge");
        }
        let tree = trace.render_tree();
        assert!(tree.contains("engine.run"));
        assert!(tree.contains("\n    partition"));
        assert!(tree.contains("\n    merge"));
    }

    #[test]
    fn jsonl_roundtrips_and_validates() {
        let trace = Trace::enabled();
        {
            let root = trace.span("a");
            let _c = root.child("b");
        }
        let jsonl = trace.to_jsonl();
        assert!(validate_trace_jsonl(&jsonl).is_empty(), "{jsonl}");
        assert_eq!(spans_from_jsonl(&jsonl), Ok(trace.records()));
    }

    #[test]
    fn validation_flags_corruption() {
        let trace = Trace::enabled();
        let _ = trace.span("a");
        let jsonl = trace.to_jsonl();
        // Truncated: header claims more spans than present.
        let header_only = jsonl.lines().next().map(String::from).unwrap_or_default();
        assert!(!validate_trace_jsonl(&header_only).is_empty());
        // A garbage span line.
        let garbled = format!("{header_only}\nnot json");
        assert!(!validate_trace_jsonl(&garbled).is_empty());
        // Not a trace at all.
        assert!(!validate_trace_jsonl("{\"certs\": []}").is_empty());
        assert!(!validate_trace_jsonl("").is_empty());
    }

    #[test]
    fn the_reader_refuses_what_validation_names() {
        let trace = Trace::enabled();
        {
            let root = trace.span("a");
            let _c = root.child("b");
        }
        let jsonl = trace.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        let damaged = [
            jsonl.replace("\"version\":1", "\"version\":9"),
            format!("{}\n{}\n", lines[0], lines[1]),
            format!("{}\n{}\n{}\n", lines[0], lines[2], lines[1]),
            jsonl.replace("\"b\"", "\"\""),
        ];
        for text in &damaged {
            assert_ne!(text, &jsonl, "damage applied");
            let found = validate_trace_jsonl(text);
            assert_eq!(
                spans_from_jsonl(text).err().as_ref(),
                found.first(),
                "{text}"
            );
        }
    }
}
