//! `stale-obs` — the workspace's observability subsystem.
//!
//! Dependency-free (std plus the workspace serde shim), and built around
//! one hard invariant: **observability never feeds back into results**.
//! Everything here is write-only from the pipeline's point of view —
//! spans and counters are recorded, rendered and exported, but no
//! detector or merge path ever reads a measurement back. The engine's
//! byte-identical-report guarantee therefore holds with tracing on or
//! off (`tests/obs_determinism.rs` enforces it), and `stale-lint`'s
//! `wallclock-in-detector` rule stays clean: this crate owns the
//! monotonic clocks, and it sits outside every detector scope.
//!
//! Three pieces:
//!
//! 1. **Tracer** ([`trace`]) — [`Trace`] records hierarchical spans with
//!    monotonic-clock timing and per-span counters into an in-memory
//!    buffer. The buffer renders as an indented span tree
//!    ([`Trace::render_tree`]) and exports as JSONL
//!    ([`Trace::to_jsonl`], schema [`trace::TRACE_SCHEMA`]) via
//!    `repro --trace-out`. A disabled trace ([`Trace::disabled`]) makes
//!    every span a no-op.
//! 2. **Metrics registry** ([`metrics`]) — [`Registry`] holds named
//!    monotonic counters and fixed-bucket histograms (with exact
//!    min/max and bucket-estimated p50/p90/p99). It exports as
//!    stable-schema JSON ([`Registry::export_json`], schema
//!    [`metrics::METRICS_SCHEMA`], via `repro --metrics-json`) and as
//!    Prometheus text exposition ([`Registry::export_prom`], via
//!    `repro --metrics-prom`).
//! 3. **Sink trait** ([`CounterSink`]) — the write-only surface
//!    detectors report item counts through. Detector code receives
//!    `&dyn CounterSink` and can only `add`; it cannot read anything
//!    back, which is what makes the determinism invariant structural
//!    rather than a convention.
//! 4. **Live-plane types** ([`window`], [`slowlog`]) — the rolling
//!    [`WindowedHistogram`] ring and the bounded [`SlowLog`] the
//!    resident daemon serves over its telemetry surface. Both are
//!    write-only from the query path's point of view.
//! 5. **Decision audit** ([`audit`]) — typed kept/dropped decisions
//!    with provenance, derived from the detectors' finished state and
//!    merged by the engine into a canonically ordered
//!    [`audit::AuditReport`] (JSONL schema [`audit::AUDIT_SCHEMA`], via
//!    `repro --audit-out`).
//! 6. **Crash-safe persistence** ([`persist`]) — the one temp-file,
//!    sync and rename path that engine checkpoints and explain-index
//!    sidecars are written through.
//!
//! Each file this crate writes has one reader, which is its validator:
//! [`AuditReport::from_jsonl`] (whose pass also builds [`ExplainIndex`]),
//! [`trace::spans_from_jsonl`] and [`MetricsSnapshot::from_json`] stop at
//! the first violated rule, and what `stale-lint preflight` reports is
//! the same pass run to completion.

pub mod audit;
mod faults;
pub mod metrics;
pub mod persist;
pub mod slowlog;
pub mod trace;
pub mod window;

pub use audit::{AuditReport, Decision, ExplainIndex};
pub use metrics::{Histogram, HistogramSnapshot, MetricsSnapshot, Registry};
pub use slowlog::{SlowLog, SlowQueryRecord};
pub use trace::{SpanGuard, SpanId, SpanRecord, Trace, TraceHeader};
pub use window::WindowedHistogram;

/// FNV-1a over a byte string: the engine's stable routing hash and the
/// explain sidecar's digest of the audit it indexes.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Write-only counter sink. Detector stages report item counts through
/// this trait; the trait has no read surface, so instrumented code
/// cannot depend on what was recorded.
pub trait CounterSink: Sync {
    /// Add `value` to the counter `name` (monotonic accumulate).
    fn add(&self, name: &str, value: u64);
}

/// A sink that drops everything — the default for uninstrumented runs.
pub struct NullSink;

impl CounterSink for NullSink {
    fn add(&self, _name: &str, _value: u64) {}
}

impl CounterSink for Registry {
    fn add(&self, name: &str, value: u64) {
        Registry::add(self, name, value);
    }
}

/// The observability bundle one run carries: a tracer and a registry.
/// Cloning is cheap (both are `Arc`-backed) and clones share the same
/// buffers, so the engine and the driver binary see one record.
#[derive(Clone)]
pub struct Obs {
    /// Hierarchical span tracer.
    pub trace: Trace,
    /// Counter/histogram registry.
    pub registry: Registry,
}

impl Obs {
    /// Tracing on: spans are recorded to the in-memory buffer.
    pub fn enabled() -> Obs {
        Obs {
            trace: Trace::enabled(),
            registry: Registry::new(),
        }
    }

    /// Tracing off: spans are no-ops. The registry still accumulates
    /// (its cost is a few atomic-free map updates per stage, and an
    /// unread registry has no output surface).
    pub fn disabled() -> Obs {
        Obs {
            trace: Trace::disabled(),
            registry: Registry::new(),
        }
    }

    /// Start a root span (shorthand for `self.trace.span`).
    pub fn span(&self, name: &str) -> SpanGuard {
        self.trace.span(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_accepts_everything() {
        NullSink.add("anything", 7);
    }

    #[test]
    fn registry_is_a_counter_sink() {
        let obs = Obs::disabled();
        let sink: &dyn CounterSink = &obs.registry;
        sink.add("detector.kc.certs", 3);
        sink.add("detector.kc.certs", 4);
        assert_eq!(obs.registry.snapshot().counters["detector.kc.certs"], 7);
    }
}
