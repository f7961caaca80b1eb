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
//! * metrics-JSON exports (`repro --metrics-json`): `metrics-parse` /
//!   `metrics-schema` ([`obs::MetricsSnapshot::validate`]);
//! * span traces (`repro --trace-out`): `trace-schema`
//!   ([`obs::trace::validate_trace_jsonl`]);
//! * decision audits (`repro --audit-out`): `audit-schema`
//!   ([`obs::audit::validate_audit_jsonl`]).
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
                return preflight_trace(label, text);
            }
            if has_schema(obs::audit::AUDIT_SCHEMA) {
                return preflight_audit(label, text);
            }
            if has_schema(worldsim::worldlog::WORLDLOG_SCHEMA) {
                return preflight_worldlog(label, text);
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
        preflight_metrics(label, text)
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

/// Validate a metrics-JSON export (`repro --metrics-json`).
pub fn preflight_metrics(label: &str, text: &str) -> Vec<Diagnostic> {
    let snapshot: obs::MetricsSnapshot = match serde_json::from_str(text) {
        Ok(s) => s,
        Err(e) => {
            return vec![diag(
                "metrics-parse",
                label,
                format!("does not deserialize as a metrics snapshot: {e}"),
            )];
        }
    };
    snapshot
        .validate()
        .into_iter()
        .map(|msg| diag("metrics-schema", label, msg))
        .collect()
}

/// Validate a span-trace JSONL export (`repro --trace-out`).
pub fn preflight_trace(label: &str, text: &str) -> Vec<Diagnostic> {
    obs::trace::validate_trace_jsonl(text)
        .into_iter()
        .map(|msg| diag("trace-schema", label, msg))
        .collect()
}

/// Validate a decision-audit JSONL export (`repro --audit-out`).
pub fn preflight_audit(label: &str, text: &str) -> Vec<Diagnostic> {
    obs::audit::validate_audit_jsonl(text)
        .into_iter()
        .map(|msg| diag("audit-schema", label, msg))
        .collect()
}

/// Validate a world-fact log export (`repro --export-worldlog`) through
/// the log's own reader.
pub fn preflight_worldlog(label: &str, text: &str) -> Vec<Diagnostic> {
    worldsim::worldlog::validate_worldlog_jsonl(text)
        .into_iter()
        .map(|msg| diag("worldlog-schema", label, msg))
        .collect()
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
