//! Spans around the benchmark's calls into each layer, on `obs::Trace`.
//!
//! Every span the benchmark opens is named `bench/<layer>.<call>`; the
//! layer is the crate the call enters (`worldsim`, `worldlog`, `engine`,
//! `render`, `obs`, `served`). With tracing off a span costs formatting
//! its name and an `Option` check, and nothing is sampled. With tracing on each span also
//! samples this process's `VmHWM` when it opens and when it closes, so
//! the rise is charged to the layer that caused it.

use obs::{Obs, SpanGuard, SpanId, SpanRecord, Trace};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Prefix of every span the benchmark itself records.
pub const PREFIX: &str = "bench/";

/// The layers, in report order.
pub const LAYERS: [&str; 6] = ["worldsim", "worldlog", "engine", "render", "obs", "served"];

/// The benchmark's tracer and per-layer memory ledger.
pub struct Tracer {
    obs: Obs,
    mem_rise_mb: Mutex<BTreeMap<String, f64>>,
}

impl Tracer {
    /// A tracer; `on` records spans, `!on` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            obs: if on { Obs::enabled() } else { Obs::disabled() },
            mem_rise_mb: Mutex::new(BTreeMap::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.obs.trace.is_enabled()
    }

    /// The observability bundle to hand the engine: its own spans then
    /// land in the same trace, inside the benchmark's `engine.run` span.
    pub fn obs(&self) -> Obs {
        self.obs.clone()
    }

    /// The underlying trace (shared by clones).
    pub fn trace(&self) -> &Trace {
        &self.obs.trace
    }

    /// Open a root span `bench/<name>`; `name` starts with its layer.
    pub fn span(&self, name: &str) -> LayerSpan<'_> {
        let hwm_open = if self.on() {
            crate::sys::hwm_mb(None).ok()
        } else {
            None
        };
        LayerSpan {
            guard: Some(self.obs.trace.span(&format!("{PREFIX}{name}"))),
            tracer: self,
            layer: layer_of(name).to_string(),
            hwm_open,
        }
    }

    /// Memory rise charged to each layer, in MiB.
    pub fn mem_rise_mb(&self) -> BTreeMap<String, f64> {
        self.mem_rise_mb
            .lock()
            .expect("memory ledger poisoned by a panicking span")
            .clone()
    }

    /// Self time per layer in seconds: each benchmark span's wall time
    /// minus the part covered by its direct children from other layers.
    /// The engine's own spans are not the benchmark's and are skipped;
    /// they sit inside the `bench/engine.run` interval.
    pub fn self_times_s(&self) -> BTreeMap<String, f64> {
        self_times_s(&self.obs.trace.records())
    }

    /// Write every recorded span as `stale-obs-trace` JSONL.
    pub fn write_jsonl(&self, path: &std::path::Path) -> Result<(), String> {
        std::fs::write(path, self.obs.trace.to_jsonl())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// The layer a span name belongs to (`worldsim.build` → `worldsim`).
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// See [`Tracer::self_times_s`].
pub fn self_times_s(records: &[SpanRecord]) -> BTreeMap<String, f64> {
    fn ours(r: &SpanRecord) -> Option<&str> {
        r.name.strip_prefix(PREFIX).map(layer_of)
    }
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for r in records {
        let Some(layer) = ours(r) else { continue };
        let covered: u64 = records
            .iter()
            .filter(|c| c.parent == Some(r.id) && ours(c).is_some_and(|l| l != layer))
            .map(|c| c.wall_us)
            .sum();
        *out.entry(layer.to_string()).or_default() +=
            r.wall_us.saturating_sub(covered) as f64 / 1e6;
    }
    out
}

/// An open layer span; closing it records its wall time and, when
/// tracing, the layer's memory rise.
pub struct LayerSpan<'t> {
    guard: Option<SpanGuard>,
    tracer: &'t Tracer,
    layer: String,
    hwm_open: Option<f64>,
}

impl LayerSpan<'_> {
    /// The span's id, to parent spans opened on other threads.
    pub fn id(&self) -> SpanId {
        self.guard.as_ref().map(SpanGuard::id).unwrap_or_default()
    }
}

impl Drop for LayerSpan<'_> {
    fn drop(&mut self) {
        drop(self.guard.take());
        let (Some(open), Ok(close)) = (self.hwm_open, crate::sys::hwm_mb(None)) else {
            return;
        };
        if let Ok(mut ledger) = self.tracer.mem_rise_mb.lock() {
            *ledger.entry(self.layer.clone()).or_default() += (close - open).max(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_only_other_layers_children() {
        let t = Tracer::new(true);
        {
            let outer = t.span("engine.run");
            let _inner = t.trace().child(outer.id(), "bench/render.table4");
            let _same = t.trace().child(outer.id(), "bench/engine.merge");
            let _foreign = t.trace().child(outer.id(), "merge");
        }
        let recs = t.trace().records();
        let wall = |name: &str| recs.iter().find(|r| r.name == name).unwrap().wall_us as f64 / 1e6;
        let selfs = self_times_s(&recs);
        let engine =
            wall("bench/engine.run") - wall("bench/render.table4") + wall("bench/engine.merge");
        assert!((selfs["engine"] - engine).abs() < 1e-9);
        assert!((selfs["render"] - wall("bench/render.table4")).abs() < 1e-9);
        assert!(t.mem_rise_mb().contains_key("engine"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        drop(t.span("worldsim.build"));
        assert!(t.trace().records().is_empty());
        assert!(t.mem_rise_mb().is_empty());
    }
}
