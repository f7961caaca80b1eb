//! The corpus pass: validate serialized inputs before anything executes.
//!
//! `stale-lint preflight <file>` is a dispatcher. It sniffs which format
//! a file is in and reports the violations of that format's owner — the
//! one reader the program loads the file with — so a file passes
//! preflight exactly when the program would load it. The same sanitation
//! discipline the paper applied to its raw CRL, CT and WHOIS feeds
//! before analysis: a truncated, bit-flipped or hand-edited file fails
//! with a named diagnostic; it never panics and never produces a
//! silently-wrong report. This module holds no rule of its own:
//! * engine checkpoints ([`engine::checkpoint`]): a file that
//!   [`engine::Checkpoint::decode`] refuses is `checkpoint-version` or
//!   `checkpoint-parse`; otherwise every
//!   [`engine::Checkpoint::violations`] entry under its rule id
//!   (`checkpoint-shards`, `checkpoint-order`, `checkpoint-monotone`);
//! * world-fact logs (`repro --export-worldlog`): `worldlog-schema`, one
//!   per violation that [`worldsim::WorldLog::from_jsonl`] and
//!   [`worldsim::WorldLog::to_datasets`] find
//!   ([`worldsim::worldlog::validate_worldlog_jsonl`]);
//! * metrics-JSON exports (`repro --metrics-json`): a file that
//!   [`obs::MetricsSnapshot::decode`] refuses is `metrics-parse`;
//!   otherwise every [`obs::MetricsSnapshot::validate`] entry is
//!   `metrics-schema` — the two halves of
//!   [`obs::MetricsSnapshot::from_json`], which `stale-bench compare`
//!   and `watch` read through;
//! * span traces (`repro --trace-out`): `trace-schema`, one per
//!   violation that [`obs::trace::spans_from_jsonl`] finds
//!   ([`obs::trace::validate_trace_jsonl`]), the reader `stale-bench
//!   timeline --trace` loads with;
//! * decision audits (`repro --audit-out`): `audit-schema`, one per
//!   violation that [`obs::AuditReport::from_jsonl`] and the explain
//!   index's build find ([`obs::audit::validate_audit_jsonl`]), the
//!   reader `stale-bench report`, `explain` and `timeline --audit` load
//!   with.
//!
//! A file that is not JSON at all is `preflight-parse`; JSON of none of
//! these shapes is `preflight-schema`; an unreadable file is
//! `preflight-read`.

use crate::diagnostics::{Diagnostic, Severity};
use engine::checkpoint::{Checkpoint, Rejection};
use serde::value::Value;
use std::path::Path;

/// Validate the file at `path`, sniffing its format. Every failure is a
/// diagnostic; this never panics on any byte sequence.
pub fn preflight_path(path: &Path) -> Vec<Diagnostic> {
    let label = path.display().to_string();
    match std::fs::read_to_string(path) {
        Ok(text) => preflight_str(&label, &text),
        Err(e) => vec![diag(
            "preflight-read",
            &label,
            format!("cannot read file: {e}"),
        )],
    }
}

/// Validate file contents, dispatching on shape: a JSONL stream opening
/// with a `stale-obs-trace`, `stale-obs-audit` or `stale-obs-worldlog`
/// header is a span trace, decision audit or world-fact log; a JSON
/// document with a `stale-obs-metrics` schema tag a metrics export, and
/// one with `states` (or an earlier schema's `completed`) a checkpoint.
pub fn preflight_str(label: &str, text: &str) -> Vec<Diagnostic> {
    // Trace, audit and world-log exports are JSONL, not one JSON
    // document — sniff their header line before insisting the whole
    // file parses as a single value.
    if let Some(first) = text.lines().next() {
        if let Ok(Value::Obj(fields)) = serde_json::from_str::<Value>(first) {
            let has_schema = |tag: &str| {
                fields
                    .iter()
                    .any(|(k, v)| k == "schema" && *v == Value::Str(tag.into()))
            };
            if has_schema(obs::trace::TRACE_SCHEMA) {
                let violations = obs::trace::validate_trace_jsonl(text);
                return named("trace-schema", label, violations);
            }
            if has_schema(obs::audit::AUDIT_SCHEMA) {
                let violations = obs::audit::validate_audit_jsonl(text);
                return named("audit-schema", label, violations);
            }
            if has_schema(worldsim::worldlog::WORLDLOG_SCHEMA) {
                let violations = worldsim::worldlog::validate_worldlog_jsonl(text);
                return named("worldlog-schema", label, violations);
            }
        }
    }
    let value: Value = match serde_json::from_str(text) {
        Ok(v) => v,
        Err(e) => {
            return vec![diag(
                "preflight-parse",
                label,
                format!("not valid JSON: {e}"),
            )];
        }
    };
    if matches!(value.get("schema"), Some(Value::Str(s)) if s == obs::metrics::METRICS_SCHEMA) {
        // The two halves of the metrics reader, `MetricsSnapshot::from_json`.
        match obs::MetricsSnapshot::decode(text) {
            Err(e) => vec![diag("metrics-parse", label, e)],
            Ok(snapshot) => named("metrics-schema", label, snapshot.validate()),
        }
    } else if value.get("states").is_some() || value.get("completed").is_some() {
        preflight_checkpoint(label, &value)
    } else {
        vec![diag(
            "preflight-schema",
            label,
            "file is neither a checkpoint (no `states`/`completed`) nor an observability \
             export or world-fact log (no recognized `schema` tag)"
                .to_string(),
        )]
    }
}

/// Validate an engine checkpoint (already parsed as JSON) through the
/// checkpoint's own reader.
pub fn preflight_checkpoint(label: &str, value: &Value) -> Vec<Diagnostic> {
    match Checkpoint::decode(value) {
        Err(Rejection::Version(found)) => {
            let found = found.map_or_else(|| "none".to_string(), |v| v.to_string());
            vec![diag(
                "checkpoint-version",
                label,
                format!("schema version {found} (expected {})", Checkpoint::VERSION),
            )]
        }
        Err(why) => vec![diag("checkpoint-parse", label, why.to_string())],
        Ok(cp) => cp
            .violations()
            .into_iter()
            .map(|v| diag(v.rule(), label, v.message().to_string()))
            .collect(),
    }
}

fn diag(rule: &'static str, file: &str, message: String) -> Diagnostic {
    Diagnostic::new(rule, Severity::Error, file, 0, message)
}

/// A reader's violations, each a diagnostic under `rule`.
fn named(rule: &'static str, file: &str, violations: Vec<String>) -> Vec<Diagnostic> {
    violations
        .into_iter()
        .map(|message| diag(rule, file, message))
        .collect()
}
