//! Preflight rejects corrupted serialized inputs — truncated, bit-flipped
//! or hand-edited — with a named diagnostic and never panics, while a
//! freshly exported world-fact log, checkpoint and observability export
//! pass clean.

use engine::checkpoint::Checkpoint;
use stale_lint::preflight::preflight_str;
use stale_types::Date;
use std::sync::OnceLock;
use worldsim::{ScenarioConfig, World};

fn rules(diags: &[stale_lint::Diagnostic]) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = diags.iter().map(|d| d.rule).collect();
    rules.sort_unstable();
    rules.dedup();
    rules
}

fn minimal_checkpoint() -> Checkpoint {
    Checkpoint::new(7, Date::parse("2022-11-30").unwrap())
}

#[test]
fn well_formed_checkpoint_passes() {
    let json = serde_json::to_string(&minimal_checkpoint()).unwrap();
    let diags = preflight_str("ckpt", &json);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn earlier_checkpoint_schemas_are_named_by_version() {
    // A v3 batch checkpoint (completed shards) and v2 and v4 ones (shard
    // states): all stale schemas, named, not misparsed.
    let v3 = r#"{"version": 3, "fingerprint": 7, "shards": 2, "completed": []}"#;
    let diags = preflight_str("ckpt", v3);
    assert_eq!(rules(&diags), ["checkpoint-version"], "{diags:?}");
    for version in [2, 4] {
        let mut old = minimal_checkpoint();
        old.version = version;
        let json = serde_json::to_string(&old).unwrap();
        let diags = preflight_str("ckpt", &json);
        assert_eq!(rules(&diags), ["checkpoint-version"], "{diags:?}");
    }
    // The right version with the wrong shape is a parse failure.
    let malformed = r#"{"version": 5, "fingerprint": 7, "through": 5}"#;
    let diags = preflight_str("ckpt", malformed);
    assert_eq!(rules(&diags), ["checkpoint-parse"], "{diags:?}");
}

#[test]
fn unrecognized_shape_is_named_not_panicked() {
    let diags = preflight_str("mystery", "{\"foo\": 1}");
    assert_eq!(rules(&diags), ["preflight-schema"], "{diags:?}");
    let diags = preflight_str("garbage", "not json at all {{{");
    assert_eq!(rules(&diags), ["preflight-parse"], "{diags:?}");
}

#[test]
fn binary_exits_nonzero_on_a_truncated_worldlog() {
    // The CLI contract CI relies on: corrupted input → exit 1, diagnostics
    // on stdout, no panic.
    let jsonl = tiny_worldlog_jsonl();
    let dir = std::env::temp_dir().join("stale_lint_preflight_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("truncated.jsonl");
    std::fs::write(&path, &jsonl[..jsonl.len() / 3]).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_stale-lint"))
        .arg("preflight")
        .arg(&path)
        .output()
        .expect("run stale-lint");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("worldlog-schema"), "{stdout}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn fresh_metrics_export_preflights_clean() {
    let registry = obs::Registry::new();
    registry.add("engine.stage.detect.wall_us", 120_000);
    registry.observe_latency_us("engine.shard.wall_us", 5_000);
    registry.observe_depth("engine.queue.depth", 3);
    let diags = preflight_str("metrics", &registry.export_json());
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn tampered_metrics_export_rejected() {
    let registry = obs::Registry::new();
    registry.observe_latency_us("engine.shard.wall_us", 5_000);
    // Inflate a bucket count so the histogram's total no longer matches.
    let tampered = registry
        .export_json()
        .replacen("\"count\": 1", "\"count\": 7", 1);
    let diags = preflight_str("metrics", &tampered);
    assert_eq!(rules(&diags), ["metrics-schema"], "{diags:?}");
    // A metrics file that is not even a snapshot parses to metrics-parse.
    let diags = preflight_str(
        "metrics",
        "{\"schema\": \"stale-obs-metrics\", \"version\": \"not a number\"}",
    );
    assert_eq!(rules(&diags), ["metrics-parse"], "{diags:?}");
}

fn tiny_trace_jsonl() -> String {
    let trace = obs::Trace::enabled();
    {
        let root = trace.span("engine.run");
        let mut child = trace.child(root.id(), "detect");
        child.count("matches", 3);
    }
    trace.to_jsonl()
}

#[test]
fn fresh_trace_export_preflights_clean() {
    let diags = preflight_str("trace", &tiny_trace_jsonl());
    assert!(diags.is_empty(), "{diags:?}");
}

fn tiny_audit_jsonl() -> String {
    use obs::audit::{AuditReport, Decision, Detector, DropReason, Provenance, Verdict};
    let decisions = vec![
        Decision {
            detector: Detector::Kc,
            cert: "aa11".to_string(),
            verdict: Verdict::Kept,
            provenance: Provenance::CrlEntry {
                crl_index: 0,
                authority_key_id: "ab".to_string(),
                serial: "01".to_string(),
                revoked: "2021-03-04".to_string(),
                reason: "keyCompromise".to_string(),
            },
        },
        Decision {
            detector: Detector::Kc,
            cert: String::new(),
            verdict: Verdict::Dropped(DropReason::CrlUnmatched),
            provenance: Provenance::CrlEntry {
                crl_index: 1,
                authority_key_id: "ab".to_string(),
                serial: "02".to_string(),
                revoked: "2021-03-05".to_string(),
                reason: "unspecified".to_string(),
            },
        },
        Decision {
            detector: Detector::Rc,
            cert: "bb22".to_string(),
            verdict: Verdict::Dropped(DropReason::OutsideValidityWindow),
            provenance: Provenance::WhoisCreation {
                domain: "a.com".to_string(),
                created: "2021-06-01".to_string(),
            },
        },
        Decision {
            detector: Detector::Mtd,
            cert: "cc33".to_string(),
            verdict: Verdict::Kept,
            provenance: Provenance::DnsDeparture {
                customer: "b.com".to_string(),
                last_delegated: "2021-07-01".to_string(),
                departed: "2021-07-02".to_string(),
            },
        },
    ];
    AuditReport::from_decisions(decisions).to_jsonl()
}

#[test]
fn fresh_audit_export_preflights_clean() {
    let diags = preflight_str("audit", &tiny_audit_jsonl());
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn truncated_or_bitflipped_audit_rejected() {
    let jsonl = tiny_audit_jsonl();
    // Drop the last decision line: the header's decision count and
    // coverage tallies no longer match the body.
    let truncated: String = jsonl
        .lines()
        .take(jsonl.lines().count() - 1)
        .map(|l| format!("{l}\n"))
        .collect();
    let diags = preflight_str("audit", &truncated);
    assert_eq!(rules(&diags), ["audit-schema"], "{diags:?}");

    // Flip one fingerprint character out of lowercase hex: the flipped
    // line is named, the rest of the file still validates.
    let flipped = jsonl.replacen("\"aa11\"", "\"aaZ1\"", 1);
    assert_ne!(flipped, jsonl, "tamper target present");
    let diags = preflight_str("audit", &flipped);
    assert_eq!(rules(&diags), ["audit-schema"], "{diags:?}");
    assert!(
        diags.iter().any(|d| d.message.contains("lowercase hex")),
        "{diags:?}"
    );

    // Rewrite a drop reason to one outside the closed enum (wherever it
    // appears — header tally and decision line both fail).
    let unknown = jsonl.replace("\"outside-validity-window\"", "\"cosmic-rays\"");
    assert_ne!(unknown, jsonl, "tamper target present");
    let diags = preflight_str("audit", &unknown);
    assert_eq!(rules(&diags), ["audit-schema"], "{diags:?}");
}

/// The tiny world's log, simulated once for the whole test binary.
fn tiny_worldlog_jsonl() -> &'static str {
    static JSONL: OnceLock<String> = OnceLock::new();
    JSONL.get_or_init(|| {
        let data = World::run(ScenarioConfig::tiny());
        worldsim::WorldLog::from_datasets(&data).to_jsonl()
    })
}

#[test]
fn fresh_worldlog_export_preflights_clean() {
    let diags = preflight_str("worldlog", tiny_worldlog_jsonl());
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn truncated_worldlog_rejected() {
    let jsonl = tiny_worldlog_jsonl();
    // Drop the tally trailer: truncation is visible without the header.
    let no_trailer: String = jsonl
        .lines()
        .take(jsonl.lines().count() - 1)
        .map(|l| format!("{l}\n"))
        .collect();
    let diags = preflight_str("worldlog", &no_trailer);
    assert_eq!(rules(&diags), ["worldlog-schema"], "{diags:?}");
    assert!(
        diags.iter().any(|d| d.message.contains("trailer")),
        "{diags:?}"
    );

    // Drop an event line but keep the trailer: tallies no longer match.
    let mut lines: Vec<&str> = jsonl.lines().collect();
    lines.remove(1);
    let short: String = lines.iter().map(|l| format!("{l}\n")).collect();
    let diags = preflight_str("worldlog", &short);
    assert_eq!(rules(&diags), ["worldlog-schema"], "{diags:?}");

    // Cut mid-line: the torn last line does not parse.
    let diags = preflight_str("worldlog", &jsonl[..jsonl.len() / 2]);
    assert_eq!(rules(&diags), ["worldlog-schema"], "{diags:?}");
}

#[test]
fn bitflipped_worldlog_rejected() {
    let jsonl = tiny_worldlog_jsonl();
    // Flip a day digit so the stamp is no longer a valid day.
    let day = jsonl.find("\"day\":\"").expect("an event") + "\"day\":\"".len();
    let mut flipped = jsonl.to_string();
    flipped.replace_range(day..day + 4, "zzzz");
    let diags = preflight_str("worldlog", &flipped);
    assert_eq!(rules(&diags), ["worldlog-schema"], "{diags:?}");

    // Rewrite an event kind to one outside the closed vocabulary.
    let unknown = jsonl.replacen("\"cert-issued\"", "\"cert-banana\"", 1);
    assert_ne!(unknown, jsonl, "tamper target present");
    let diags = preflight_str("worldlog", &unknown);
    assert_eq!(rules(&diags), ["worldlog-schema"], "{diags:?}");

    // Flip one hex digit of a certificate's DER: still well-formed JSON
    // and hex, but the body no longer decodes to the named certificate.
    let der = jsonl.find("\"der\":\"").expect("a cert") + "\"der\":\"".len() + 10;
    let mut flipped = jsonl.to_string();
    let new = if flipped.as_bytes()[der] == b'0' {
        "1"
    } else {
        "0"
    };
    flipped.replace_range(der..=der, new);
    let diags = preflight_str("worldlog", &flipped);
    assert_eq!(rules(&diags), ["worldlog-schema"], "{diags:?}");
    assert!(
        diags.iter().any(|d| d.message.contains("cert-issued")),
        "{diags:?}"
    );
}

#[test]
fn uppercase_der_rejected() {
    // Uppercase digits decode to the same bytes, so accepting them would
    // load a second file as the same world.
    let jsonl = tiny_worldlog_jsonl();
    let der = jsonl.find("\"der\":\"").expect("a cert") + "\"der\":\"".len();
    let end = der + jsonl[der..].find('"').expect("closing quote");
    let mut upper = jsonl.to_string();
    upper[der..end].make_ascii_uppercase();
    assert_ne!(upper, jsonl, "the DER has letter digits");
    let diags = preflight_str("worldlog", &upper);
    assert_eq!(rules(&diags), ["worldlog-schema"], "{diags:?}");
    assert!(
        diags
            .iter()
            .any(|d| d.message.contains("der is not lowercase hex")),
        "{diags:?}"
    );
}

#[test]
fn tampered_count_fails_fingerprint() {
    let jsonl = tiny_worldlog_jsonl();
    let key = "\"ct_raw_entries\":";
    let at = jsonl.find(key).expect("field") + key.len();
    let mut tampered = jsonl.to_string();
    tampered.insert(at, '9'); // prepend a digit: value changes, JSON stays valid
    let diags = preflight_str("worldlog", &tampered);
    assert_eq!(rules(&diags), ["worldlog-schema"], "{diags:?}");
    assert!(
        diags.iter().any(|d| d.message.contains("fingerprint")),
        "{diags:?}"
    );
}

#[test]
fn reordered_worldlog_rejected() {
    let jsonl = tiny_worldlog_jsonl();
    let mut lines: Vec<&str> = jsonl.lines().collect();
    lines.swap(1, 2);
    let swapped: String = lines.iter().map(|l| format!("{l}\n")).collect();
    let diags = preflight_str("worldlog", &swapped);
    assert_eq!(rules(&diags), ["worldlog-schema"], "{diags:?}");
}

#[test]
fn random_worldlog_mutations_never_panic() {
    // A tenth of the tiny world, with every event kind: a flip that
    // survives the line pass makes preflight rebuild the whole world.
    let mut cfg = ScenarioConfig::tiny();
    cfg.initial_domains = 12;
    cfg.eras.domain_births_per_day = cfg.eras.domain_births_per_day.scaled(0.1);
    let jsonl = worldsim::WorldLog::from_datasets(&World::run(cfg)).to_jsonl();
    assert!(preflight_str("worldlog", &jsonl).is_empty());
    // xorshift64, as in tests/der_roundtrip.rs — deterministic fuzzing.
    let mut state = 0x243f_6a88_85a3_08d3u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..200 {
        let mut bytes = jsonl.as_bytes().to_vec();
        let pos = (next() % bytes.len() as u64) as usize;
        let bit = 1u8 << (next() % 8);
        bytes[pos] ^= bit;
        let mutated = String::from_utf8_lossy(&bytes).into_owned();
        // Must return diagnostics or a clean pass — never panic.
        let _ = preflight_str("worldlog", &mutated);
    }
}

#[test]
fn truncated_or_reordered_trace_rejected() {
    let jsonl = tiny_trace_jsonl();
    // Drop the last span line: the header's span count no longer matches.
    let truncated: String = jsonl
        .lines()
        .take(jsonl.lines().count() - 1)
        .map(|l| format!("{l}\n"))
        .collect();
    let diags = preflight_str("trace", &truncated);
    assert_eq!(rules(&diags), ["trace-schema"], "{diags:?}");

    // Swap the two span lines: ids fall out of allocation order.
    let lines: Vec<&str> = jsonl.lines().collect();
    let swapped = format!("{}\n{}\n{}\n", lines[0], lines[2], lines[1]);
    let diags = preflight_str("trace", &swapped);
    assert_eq!(rules(&diags), ["trace-schema"], "{diags:?}");
}
