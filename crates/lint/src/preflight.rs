//! The corpus pass: validate serialized inputs before anything executes.
//!
//! `stale-lint preflight <file>` accepts either a
//! [`worldsim::bundle::WorldBundle`] or an engine checkpoint and checks
//! every invariant the pipeline assumes statically —
//! the same sanitation discipline the paper applied to its raw CRL, CT
//! and WHOIS feeds before analysis. A truncated, bit-flipped or
//! hand-edited file fails with a named diagnostic; it never panics and
//! never produces a silently-wrong report.
//!
//! Bundle invariants:
//! * `bundle-parse` / `bundle-version` — well-formed JSON at schema v1;
//! * `window-degenerate` — every window has `start <= end`;
//! * `cert-der` / `cert-validity` — certificates DER-decode with a
//!   non-degenerate validity;
//! * `cert-first-seen` — CT cannot observe a certificate before its
//!   `notBefore`;
//! * `crl-unknown-issuer` — a CRL entry's AKI must belong to some
//!   certificate issuer present in the CT set;
//! * `crl-window` / `crl-degenerate` — CRL observations fall inside the
//!   collection window, and the record set is deduplicated by
//!   `(authority key, serial)` as [`ca::scraper::CrlDataset`] guarantees
//!   (a CA's full CRL is visible from the first scrape, so a revocation
//!   date *after* its first observation is legitimate here);
//! * `whois-monotone` / `dns-monotone` — per-domain observability
//!   streams are strictly chronological (the incremental detectors
//!   assume this);
//! * `fingerprint-mismatch` — the recorded fingerprint matches one
//!   recomputed from the payload.
//!
//! Checkpoint invariants (`checkpoint-*`): schema version, states in
//! strictly increasing shard order below the declared width, and the
//! sortedness/monotonicity of every saved detector ledger (what `save()`
//! guarantees and `restore()` assumes). Files of earlier schemas (v2
//! incremental state, v3 batch completions) fail on their version.
//!
//! Observability exports are accepted too, so CI can preflight the
//! artifacts `repro --trace-out` / `--metrics-json` emit the same way it
//! preflights corpora:
//! * `metrics-schema` — a metrics-JSON export's histograms have
//!   consistent ladders, counts and quantile ordering
//!   ([`obs::MetricsSnapshot::validate`]);
//! * `trace-schema` — a trace-JSONL file's header matches its span
//!   count, ids are dense and allocation-ordered, and every parent
//!   precedes its children ([`obs::trace::validate_trace_jsonl`]);
//! * `audit-schema` — a decision-audit JSONL export (`repro
//!   --audit-out`) has a header whose coverage tallies match its decision
//!   lines, canonical decision ordering, well-formed fingerprints and
//!   day stamps, and detector/provenance kinds that agree
//!   ([`obs::audit::validate_audit_jsonl`]);
//! * `worldlog-schema` — a world-fact log (`repro --export-worldlog`)
//!   has a schema/version header, canonically ordered day-stamped
//!   events with well-formed hex, dense CRL indices, a tally trailer
//!   that matches the lines, and a fingerprint that re-folds from the
//!   stream ([`worldsim::worldlog::validate_worldlog_jsonl`]).

use crate::diagnostics::{Diagnostic, Severity};
use engine::checkpoint::Checkpoint;
use serde::value::Value;
use stale_types::Date;
use std::collections::BTreeSet;
use std::path::Path;
use worldsim::bundle::{decode_hex, WorldBundle};
use x509::Certificate;

/// Validate the file at `path`, sniffing whether it is a world bundle or
/// a checkpoint. Every failure is a diagnostic; this never panics on any
/// byte sequence.
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

/// Validate file contents, dispatching on shape: a `certs` field means a
/// world bundle, `states` (or an earlier schema's `completed`) a
/// checkpoint, a `stale-obs-metrics` schema tag a metrics-JSON
/// export, and a JSONL stream opening with a `stale-obs-trace`,
/// `stale-obs-audit` or `stale-obs-worldlog` header a span trace,
/// decision audit or world-fact log.
pub fn preflight_str(label: &str, text: &str) -> Vec<Diagnostic> {
    // Trace and audit exports are JSONL, not one JSON document — sniff
    // their header line before insisting the whole file parses as a
    // single value.
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
            return vec![diag("bundle-parse", label, format!("not valid JSON: {e}"))];
        }
    };
    if matches!(value.get("schema"), Some(Value::Str(s)) if s == obs::metrics::METRICS_SCHEMA) {
        preflight_metrics(label, text)
    } else if value.get("certs").is_some() {
        preflight_bundle(label, text)
    } else if value.get("states").is_some() || value.get("completed").is_some() {
        preflight_checkpoint(label, &value)
    } else {
        vec![diag(
            "preflight-schema",
            label,
            "file is neither a world bundle (no `certs`), a checkpoint (no `states`/`completed`), \
             nor an observability export (no recognized `schema` tag)"
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

/// Validate a world-fact log export (`repro --export-worldlog`).
pub fn preflight_worldlog(label: &str, text: &str) -> Vec<Diagnostic> {
    worldsim::worldlog::validate_worldlog_jsonl(text)
        .into_iter()
        .map(|msg| diag("worldlog-schema", label, msg))
        .collect()
}

/// Validate a serialized [`WorldBundle`].
pub fn preflight_bundle(label: &str, text: &str) -> Vec<Diagnostic> {
    let bundle: WorldBundle = match serde_json::from_str(text) {
        Ok(b) => b,
        Err(e) => {
            return vec![diag(
                "bundle-parse",
                label,
                format!("does not deserialize as a world bundle: {e}"),
            )];
        }
    };
    let mut out = Vec::new();
    if bundle.version != WorldBundle::VERSION {
        out.push(diag(
            "bundle-version",
            label,
            format!(
                "schema version {} (expected {})",
                bundle.version,
                WorldBundle::VERSION
            ),
        ));
    }
    for (name, window) in [
        ("sim_window", bundle.sim_window),
        ("adns_window", bundle.adns_window),
        ("crl_window", bundle.crl_window),
    ] {
        if window.end < window.start {
            out.push(diag(
                "window-degenerate",
                label,
                format!(
                    "{name} ends {} before it starts {}",
                    window.end, window.start
                ),
            ));
        }
    }

    let mut issuer_keys = BTreeSet::new();
    for (i, bc) in bundle.certs.iter().enumerate() {
        let Some(der) = decode_hex(&bc.der) else {
            out.push(diag(
                "cert-der",
                label,
                format!("certs[{i}]: der field is not valid hex"),
            ));
            continue;
        };
        let cert = match Certificate::decode(&der) {
            Ok(c) => c,
            Err(e) => {
                out.push(diag(
                    "cert-der",
                    label,
                    format!("certs[{i}]: DER does not decode: {e:?}"),
                ));
                continue;
            }
        };
        let validity = cert.tbs.validity;
        if validity.end <= validity.start {
            out.push(diag(
                "cert-validity",
                label,
                format!(
                    "certs[{i}]: degenerate validity {} – {}",
                    validity.start, validity.end
                ),
            ));
        }
        if bc.first_seen < validity.start {
            out.push(diag(
                "cert-first-seen",
                label,
                format!(
                    "certs[{i}]: first seen in CT {} before notBefore {}",
                    bc.first_seen, validity.start
                ),
            ));
        }
        if let Some(aki) = cert.tbs.authority_key_id() {
            issuer_keys.insert(aki);
        }
    }

    let mut crl_keys = BTreeSet::new();
    for (i, rec) in bundle.crl.iter().enumerate() {
        if !issuer_keys.contains(&rec.authority_key_id) {
            out.push(diag(
                "crl-unknown-issuer",
                label,
                format!("crl[{i}]: AKI matches no certificate issuer in the CT set"),
            ));
        }
        if rec.observed < bundle.crl_window.start || rec.observed > bundle.crl_window.end {
            out.push(diag(
                "crl-window",
                label,
                format!(
                    "crl[{i}]: observed {} outside the collection window {} – {}",
                    rec.observed, bundle.crl_window.start, bundle.crl_window.end
                ),
            ));
        }
        if !crl_keys.insert((rec.authority_key_id, rec.serial)) {
            out.push(diag(
                "crl-degenerate",
                label,
                format!(
                    "crl[{i}]: duplicate entry for serial {} under one authority key — the dataset must be deduplicated",
                    rec.serial
                ),
            ));
        }
    }

    for (domain, dates) in &bundle.whois {
        if let Some((prev, date)) = first_non_increasing(dates) {
            out.push(diag(
                "whois-monotone",
                label,
                format!("whois[{domain}]: creation date {date} does not follow {prev}"),
            ));
        }
    }
    for (domain, log) in &bundle.dns {
        let dates: Vec<Date> = log.iter().map(|(d, _)| *d).collect();
        if let Some((prev, date)) = first_non_increasing(&dates) {
            out.push(diag(
                "dns-monotone",
                label,
                format!("dns[{domain}]: change at {date} does not follow {prev}"),
            ));
        }
    }

    let recomputed = bundle.recompute_fingerprint();
    if recomputed != bundle.fingerprint {
        out.push(diag(
            "fingerprint-mismatch",
            label,
            format!(
                "recorded fingerprint {} but payload folds to {recomputed} — the bundle was altered after serialization",
                bundle.fingerprint
            ),
        ));
    }
    out
}

/// Validate an engine checkpoint (already parsed as JSON).
pub fn preflight_checkpoint(label: &str, value: &Value) -> Vec<Diagnostic> {
    let version = value.get("version").and_then(Value::as_i128);
    if version != Some(i128::from(Checkpoint::VERSION)) {
        let found = version.map_or_else(|| "none".to_string(), |v| v.to_string());
        return vec![diag(
            "checkpoint-version",
            label,
            format!("schema version {found} (expected {})", Checkpoint::VERSION),
        )];
    }
    let cp: Checkpoint = match serde_json::from_value(value) {
        Ok(cp) => cp,
        Err(e) => {
            return vec![diag(
                "checkpoint-parse",
                label,
                format!("does not deserialize as a checkpoint: {e}"),
            )];
        }
    };
    let mut out = Vec::new();
    let mut previous: Option<usize> = None;
    for (i, state) in cp.states.iter().enumerate() {
        if state.shard >= cp.shards {
            out.push(diag(
                "checkpoint-shards",
                label,
                format!(
                    "states[{i}] claims shard {} but the declared width is {}",
                    state.shard, cp.shards
                ),
            ));
        }
        if let Some(p) = previous.filter(|p| state.shard <= *p) {
            out.push(diag(
                "checkpoint-order",
                label,
                format!(
                    "states[{i}] claims shard {} after shard {p} (states must be in strictly increasing shard order)",
                    state.shard
                ),
            ));
        }
        previous = Some(state.shard);
        let ids: Vec<_> = state.kc.index.iter().map(|(_, _, id)| *id).collect();
        if !strictly_increasing(&ids) {
            out.push(diag(
                "checkpoint-monotone",
                label,
                format!("states[{i}].kc.index cert ids are not strictly increasing"),
            ));
        }
        for (field, domains) in [
            (
                "rc.certs_by_e2ld",
                state
                    .rc
                    .certs_by_e2ld
                    .iter()
                    .map(|(d, _)| d)
                    .collect::<Vec<_>>(),
            ),
            (
                "rc.creations",
                state.rc.creations.iter().map(|(d, _)| d).collect(),
            ),
            ("mtd.delegated", state.mtd.delegated.iter().collect()),
            ("mtd.undelegated", state.mtd.undelegated.iter().collect()),
            (
                "mtd.departures",
                state.mtd.departures.iter().map(|(d, _)| d).collect(),
            ),
            (
                "mtd.certs_by_customer",
                state.mtd.certs_by_customer.iter().map(|(d, _)| d).collect(),
            ),
        ] {
            if !strictly_increasing(&domains) {
                out.push(diag(
                    "checkpoint-order",
                    label,
                    format!("states[{i}].{field} domains are not sorted and unique"),
                ));
            }
        }
        let delegated: BTreeSet<_> = state.mtd.delegated.iter().collect();
        if let Some(both) = state.mtd.undelegated.iter().find(|d| delegated.contains(d)) {
            out.push(diag(
                "checkpoint-order",
                label,
                format!("states[{i}]: {both} is both delegated and undelegated"),
            ));
        }
        for (domain, dates) in &state.rc.creations {
            if let Some((prev, date)) = first_non_increasing(dates) {
                out.push(diag(
                    "checkpoint-monotone",
                    label,
                    format!("states[{i}].rc.creations[{domain}]: {date} does not follow {prev}"),
                ));
            }
        }
        for (domain, dates) in &state.mtd.departures {
            if let Some((prev, date)) = first_non_increasing(dates) {
                out.push(diag(
                    "checkpoint-monotone",
                    label,
                    format!("states[{i}].mtd.departures[{domain}]: {date} does not follow {prev}"),
                ));
            }
        }
    }
    out
}

/// First adjacent pair that breaks strict chronological order, if any.
fn first_non_increasing(dates: &[Date]) -> Option<(Date, Date)> {
    dates
        .windows(2)
        .find(|w| w[1] <= w[0])
        .map(|w| (w[0], w[1]))
}

fn strictly_increasing<T: Ord>(items: &[T]) -> bool {
    items.windows(2).all(|w| w[0] < w[1])
}

fn diag(rule: &'static str, file: &str, message: String) -> Diagnostic {
    Diagnostic::new(rule, Severity::Error, file, 0, message)
}
