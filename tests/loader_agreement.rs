//! Every file the system reads back has one reader, and `stale-lint
//! preflight` reports that reader's verdict — so the two can never
//! disagree, and neither panics, whatever the bytes:
//!
//! * world-fact log: `validate_worldlog_jsonl` (and the preflight
//!   dispatcher around it) is empty exactly when `WorldLog::from_jsonl`
//!   and then `to_datasets` both accept the text;
//! * checkpoint: every file preflight names is refused by
//!   `Checkpoint::load`, and every refusal that does not need the run's
//!   world (unreadable, parse, version) is named by preflight;
//! * decision audit: `validate_audit_jsonl` is empty exactly when
//!   `AuditReport::from_jsonl` and `ExplainIndex::build` accept the text,
//!   and their refusal is its first violation;
//! * span trace: `validate_trace_jsonl` is empty exactly when
//!   `spans_from_jsonl` accepts the text, refusing with its first
//!   violation;
//! * metrics export: preflight is clean exactly when
//!   `MetricsSnapshot::from_json` accepts the text.
//!
//! Inputs are real exports damaged by truncation, bit flips, line swaps
//! and runs of random bytes.

use obs::audit::validate_audit_jsonl;
use obs::trace::{spans_from_jsonl, validate_trace_jsonl};
use obs::{AuditReport, ExplainIndex, MetricsSnapshot};
use proptest::prelude::*;
use stale_lint::preflight::{preflight_path, preflight_str};
use stale_tls::engine::{Checkpoint, Engine, EngineConfig, Rejection};
use stale_tls::prelude::*;
use stale_tls::worldsim::worldlog::validate_worldlog_jsonl;
use stale_tls::worldsim::WorldLog;
use std::path::PathBuf;
use std::sync::OnceLock;

const SHARDS: usize = 4;

/// Damage `bytes` one way, drawn from `kind`, at positions drawn from `a`
/// and `b`: 0 truncates, 1 flips a bit, 2 swaps two lines, 3 overwrites a
/// run of up to 16 bytes with noise.
fn damage(bytes: &[u8], kind: u8, a: u64, b: u64) -> Vec<u8> {
    let at = (a % bytes.len().max(1) as u64) as usize;
    let mut out = bytes.to_vec();
    match kind {
        0 => out.truncate(at),
        1 => {
            if let Some(byte) = out.get_mut(at) {
                *byte ^= 1 << (b % 8);
            }
        }
        2 => {
            let mut lines: Vec<&[u8]> = bytes.split_inclusive(|c| *c == b'\n').collect();
            let n = lines.len() as u64;
            lines.swap((a % n) as usize, (b % n) as usize);
            out = lines.concat();
        }
        _ => {
            let mut noise = b | 1;
            for byte in out.iter_mut().skip(at).take(1 + (b % 16) as usize) {
                // xorshift64, as in tests/der_roundtrip.rs.
                noise ^= noise << 13;
                noise ^= noise >> 7;
                noise ^= noise << 17;
                *byte = noise as u8;
            }
        }
    }
    out
}

/// A tenth of the tiny world.
fn small_world() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::tiny();
    cfg.initial_domains = 12;
    cfg.eras.domain_births_per_day = cfg.eras.domain_births_per_day.scaled(0.1);
    cfg
}

/// The small world's log, with every event kind.
fn small_log() -> &'static str {
    static LOG: OnceLock<String> = OnceLock::new();
    LOG.get_or_init(|| WorldLog::from_datasets(&World::run(small_world())).to_jsonl())
}

/// The decision audit, span trace and metrics export of one audited,
/// traced engine run over the small world.
struct ObsExports {
    audit: String,
    trace: String,
    metrics: String,
}

fn obs_exports() -> &'static ObsExports {
    static EXPORTS: OnceLock<ObsExports> = OnceLock::new();
    EXPORTS.get_or_init(|| {
        let data = World::run(small_world());
        let psl = SuffixList::default_list();
        let obs = obs::Obs::enabled();
        let mut cfg = EngineConfig::with_shards(2);
        cfg.audit = true;
        let report = Engine::new(cfg)
            .with_obs(obs.clone())
            .run(&data, &psl)
            .expect("audited run");
        ObsExports {
            audit: report.audit.expect("audit on").to_jsonl(),
            trace: obs.trace.to_jsonl(),
            metrics: obs.registry.export_json(),
        }
    })
}

/// A real checkpoint of the tiny world at four shards, 20 days into the
/// aDNS window, pretty-printed so line swaps move fields; and the
/// world's fingerprint.
fn snapshot() -> &'static (u64, String) {
    static SNAPSHOT: OnceLock<(u64, String)> = OnceLock::new();
    SNAPSHOT.get_or_init(|| {
        let data = World::run(ScenarioConfig::tiny());
        let psl = SuffixList::default_list();
        let path = scratch("snapshot.json");
        let mut cfg = EngineConfig::with_shards(SHARDS);
        cfg.day_batch = 10;
        cfg.checkpoint = Some(path.clone());
        cfg.through = Some(data.adns_window.start + Duration::days(20));
        Engine::new(cfg)
            .run_incremental(&data, &psl)
            .expect("snapshot run");
        let cp = Checkpoint::load(&path, data.fingerprint())
            .expect("snapshot loads")
            .expect("snapshot present");
        let _ = std::fs::remove_file(&path);
        let text = serde_json::to_string_pretty(&cp).expect("serialises");
        (data.fingerprint(), text)
    })
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("stale_loader_agreement_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

#[test]
fn clean_exports_pass_both() {
    let log = small_log();
    assert!(validate_worldlog_jsonl(log).is_empty());
    assert!(WorldLog::from_jsonl(log)
        .and_then(|l| l.to_datasets())
        .is_ok());
    let exports = obs_exports();
    assert!(validate_audit_jsonl(&exports.audit).is_empty());
    assert!(AuditReport::from_jsonl(&exports.audit).is_ok());
    assert!(validate_trace_jsonl(&exports.trace).is_empty());
    assert!(spans_from_jsonl(&exports.trace).is_ok());
    assert!(preflight_str("metrics", &exports.metrics).is_empty());
    assert!(MetricsSnapshot::from_json(&exports.metrics).is_ok());
    let (fp, text) = snapshot();
    let path = scratch("clean.json");
    std::fs::write(&path, text).expect("write");
    assert!(preflight_path(&path).is_empty());
    assert!(matches!(Checkpoint::load(&path, *fp), Ok(Some(_))));
    let _ = std::fs::remove_file(&path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn worldlog_preflight_agrees_with_its_loaders(
        kind in 0u8..4,
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let bytes = damage(small_log().as_bytes(), kind, a, b);
        let text = String::from_utf8_lossy(&bytes);
        let loads = WorldLog::from_jsonl(&text)
            .and_then(|l| l.to_datasets())
            .is_ok();
        let violations = validate_worldlog_jsonl(&text);
        prop_assert_eq!(violations.is_empty(), loads, "damage {} {} {}: {:?}", kind, a, b, violations);
        let diags = preflight_str("worldlog", &text);
        prop_assert_eq!(diags.is_empty(), loads, "damage {} {} {}: {:?}", kind, a, b, diags);
    }

    #[test]
    fn checkpoint_preflight_agrees_with_its_loader(
        kind in 0u8..4,
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let (fp, text) = snapshot();
        let path = scratch("damaged.json");
        std::fs::write(&path, damage(text.as_bytes(), kind, a, b)).expect("write");
        let loaded = Checkpoint::load(&path, *fp);
        let diags = preflight_path(&path);
        if !diags.is_empty() {
            prop_assert!(loaded.is_err(), "damage {} {} {}: preflight named {:?} but it loads", kind, a, b, diags);
        }
        if let Err(why @ (Rejection::Unreadable(_) | Rejection::Parse(_) | Rejection::Version(_))) =
            &loaded
        {
            prop_assert!(!diags.is_empty(), "damage {} {} {}: refused ({}) but preflight is clean", kind, a, b, why);
        }
    }

    #[test]
    fn audit_preflight_agrees_with_its_readers(
        kind in 0u8..4,
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let bytes = damage(obs_exports().audit.as_bytes(), kind, a, b);
        let text = String::from_utf8_lossy(&bytes);
        let violations = validate_audit_jsonl(&text);
        let refusal = AuditReport::from_jsonl(&text).err();
        prop_assert_eq!(refusal.as_ref(), violations.first(), "damage {} {} {}", kind, a, b);
        let index_refusal = ExplainIndex::build(&text).err();
        prop_assert_eq!(index_refusal.as_ref(), violations.first(), "damage {} {} {}", kind, a, b);
        let diags = preflight_str("audit", &text);
        prop_assert_eq!(diags.is_empty(), refusal.is_none(), "damage {} {} {}: {:?}", kind, a, b, diags);
    }

    #[test]
    fn trace_preflight_agrees_with_its_reader(
        kind in 0u8..4,
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let bytes = damage(obs_exports().trace.as_bytes(), kind, a, b);
        let text = String::from_utf8_lossy(&bytes);
        let violations = validate_trace_jsonl(&text);
        let refusal = spans_from_jsonl(&text).err();
        prop_assert_eq!(refusal.as_ref(), violations.first(), "damage {} {} {}", kind, a, b);
        let diags = preflight_str("trace", &text);
        prop_assert_eq!(diags.is_empty(), refusal.is_none(), "damage {} {} {}: {:?}", kind, a, b, diags);
    }

    #[test]
    fn metrics_preflight_agrees_with_its_reader(
        kind in 0u8..4,
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let bytes = damage(obs_exports().metrics.as_bytes(), kind, a, b);
        let text = String::from_utf8_lossy(&bytes);
        let loads = MetricsSnapshot::from_json(&text).is_ok();
        let diags = preflight_str("metrics", &text);
        prop_assert_eq!(diags.is_empty(), loads, "damage {} {} {}: {:?}", kind, a, b, diags);
    }
}
