//! The persistent explain index over a real audit export: `stale-bench
//! explain` and the daemon both resolve fingerprints through a
//! fingerprint→offset index so lookups read only the matching decision
//! lines. This test drives the same sidecar lifecycle the CLI uses —
//! build, persist, reload, match, reject-on-growth — over an audit
//! store produced by an actual engine run, and pins the core contract:
//! the indexed rendering is byte-identical to the full scan.

use obs::ExplainIndex;
use stale_bench::Experiments;
use stale_tls::engine::EngineConfig;
use stale_tls::prelude::*;

/// A real audit export: the tiny world, fully detected with auditing on.
fn tiny_audit() -> obs::AuditReport {
    audit_of(ScenarioConfig::tiny())
}

/// The audit export of one world, fully detected with auditing on.
fn audit_of(cfg: ScenarioConfig) -> obs::AuditReport {
    let (data, psl) = Experiments::build_world(cfg);
    let mut cfg = EngineConfig::with_shards(2);
    cfg.audit = true;
    Experiments::with_engine_on(data, psl, cfg)
        .expect("engine run")
        .audit
        .expect("audited run")
}

#[test]
fn sidecar_lifecycle_preserves_scan_bytes() {
    let audit = tiny_audit();
    let jsonl = audit.to_jsonl();
    let index = ExplainIndex::build(&jsonl).expect("index builds over real export");

    // Round-trip through the sidecar text form, as the CLI persists it.
    let reloaded = ExplainIndex::parse(&index.to_text()).expect("sidecar parses");
    assert!(reloaded.matches(&jsonl), "fresh sidecar matches its store");

    // Every audited fingerprint renders byte-identically via the index
    // and via the full scan, including through the reloaded sidecar.
    let mut checked = 0usize;
    for cert in audit.decisions.iter().map(|d| &d.cert) {
        if cert.is_empty() {
            continue;
        }
        let scan = audit.render_explain(cert).expect("scan renders");
        assert_eq!(
            reloaded
                .render_explain_from(&jsonl, cert)
                .expect("indexed render"),
            scan,
            "indexed explain for {cert} diverged from the scan"
        );
        checked += 1;
    }
    assert!(checked > 0, "tiny world audits at least one certificate");

    // A store that grew after the index was built is refused, not
    // silently mis-resolved — the CLI rebuilds on this signal.
    let grown = format!("{jsonl}{}", jsonl.lines().last().unwrap());
    assert!(!reloaded.matches(&grown), "stale sidecar must not match");
    let err = reloaded
        .render_explain_from(&grown, audit.decisions.last().map(|d| &d.cert).unwrap())
        .expect_err("stale index must refuse to render");
    assert!(err.contains("stale"), "{err}");
}

#[test]
fn prefix_semantics_match_between_index_and_scan() {
    let audit = tiny_audit();
    let jsonl = audit.to_jsonl();
    let index = ExplainIndex::build(&jsonl).expect("index builds");
    let full = audit
        .decisions
        .iter()
        .find(|d| !d.cert.is_empty())
        .map(|d| d.cert.clone())
        .expect("some audited certificate");

    // A short unique prefix resolves identically on both paths.
    for len in (8..=full.len()).rev() {
        let prefix = &full[..len];
        let scan = audit.render_explain(prefix);
        let indexed = index.render_explain_from(&jsonl, prefix);
        assert_eq!(indexed, scan, "prefix {prefix} diverged");
    }

    // Misses error the same way on both paths.
    let scan_miss = audit.render_explain("ffffffffffffffff").unwrap_err();
    let index_miss = index
        .render_explain_from(&jsonl, "ffffffffffffffff")
        .unwrap_err();
    assert_eq!(scan_miss, index_miss);
}

#[test]
fn a_sidecar_save_stopped_before_its_rename_leaves_the_previous_sidecar() {
    let dir = std::env::temp_dir().join("stale_explain_index_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("audit.jsonl");
    let sidecar = ExplainIndex::sidecar_path(&path);
    let _ = std::fs::remove_file(&sidecar);

    // The first lookup builds the sidecar and saves it.
    let first = tiny_audit().to_jsonl();
    std::fs::write(&path, &first).expect("write store");
    ExplainIndex::load_or_build(&path, &first).expect("index builds");
    let previous = std::fs::read(&sidecar).expect("sidecar saved");

    // The store is regenerated; saving its new index dies before the
    // rename. The previous sidecar is untouched, byte for byte.
    let mut other = ScenarioConfig::tiny();
    other.seed ^= 0x5eed;
    let audit = audit_of(other);
    let jsonl = audit.to_jsonl();
    assert_ne!(jsonl.len(), first.len(), "the regenerated store differs");
    std::fs::write(&path, &jsonl).expect("rewrite store");
    let staged = ExplainIndex::build(&jsonl)
        .expect("index builds")
        .stage_sidecar(&path)
        .expect("stage");
    assert!(staged.temp_path().exists());
    assert_eq!(std::fs::read(&sidecar).expect("read sidecar"), previous);

    // The next lookup refuses the stale sidecar, rebuilds it, and renders
    // every fingerprint exactly as the full scan does.
    let index = ExplainIndex::load_or_build(&path, &jsonl).expect("index rebuilds");
    let mut checked = 0usize;
    for cert in audit.decisions.iter().map(|d| &d.cert) {
        if cert.is_empty() {
            continue;
        }
        assert_eq!(
            index.render_explain_from(&jsonl, cert),
            audit.render_explain(cert),
            "indexed explain for {cert} diverged from the scan"
        );
        checked += 1;
    }
    assert!(checked > 0, "the regenerated world audits some certificate");
    let saved = ExplainIndex::parse(&std::fs::read_to_string(&sidecar).expect("read"))
        .expect("the rebuilt sidecar parses");
    assert!(saved.matches(&jsonl), "the rebuilt sidecar was saved");
    for p in [&path, &sidecar] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn a_same_length_rewrite_under_an_existing_sidecar_answers_like_the_scan() {
    let dir = std::env::temp_dir().join("stale_explain_index_rewrite_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("audit.jsonl");
    let _ = std::fs::remove_file(ExplainIndex::sidecar_path(&path));

    // The first lookup builds and saves the sidecar.
    let audit = tiny_audit();
    let jsonl = audit.to_jsonl();
    std::fs::write(&path, &jsonl).expect("write store");
    ExplainIndex::load_or_build(&path, &jsonl).expect("index builds");

    // Rewrite one kc decision's fingerprint to another of the same
    // length. Its CRL entry is the only one at its index, so canonical
    // order holds; the verdict is unchanged, so coverage holds: the store
    // is still a valid audit, of the same length.
    let kc_at = |i: u64| {
        audit
            .decisions
            .iter()
            .filter(|d| matches!(d.provenance, obs::audit::Provenance::CrlEntry { crl_index, .. } if crl_index == i))
            .count()
    };
    let at = audit
        .decisions
        .iter()
        .position(|d| {
            !d.cert.is_empty()
                && matches!(d.provenance, obs::audit::Provenance::CrlEntry { crl_index, .. } if kc_at(crl_index) == 1)
        })
        .expect("a kc decision alone at its CRL index");
    let mut rewritten = audit.clone();
    let old = rewritten.decisions[at].cert.clone();
    let new = format!(
        "{}{}",
        &old[..old.len() - 1],
        if old.ends_with('0') { '1' } else { '0' }
    );
    rewritten.decisions[at].cert = new.clone();
    let text = rewritten.to_jsonl();
    assert_eq!(text.len(), jsonl.len(), "same length");
    assert!(obs::audit::validate_audit_jsonl(&text).is_empty());
    std::fs::write(&path, &text).expect("rewrite store");

    // The sidecar no longer describes the store, so it is rebuilt, and
    // every fingerprint (the old and the new one included) answers
    // exactly as the full scan does.
    let index = ExplainIndex::load_or_build(&path, &text).expect("index rebuilds");
    assert!(index.matches(&text));
    for cert in [&old, &new]
        .into_iter()
        .chain(rewritten.decisions.iter().map(|d| &d.cert))
        .filter(|c| !c.is_empty())
    {
        assert_eq!(
            index.render_explain_from(&text, cert),
            rewritten.render_explain(cert),
            "indexed explain for {cert} diverged from the scan"
        );
    }
    let _ = std::fs::remove_file(ExplainIndex::sidecar_path(&path));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_damaged_sidecar_body_under_an_intact_header_is_rebuilt_and_answers_like_the_scan() {
    let dir = std::env::temp_dir().join("stale_explain_index_damaged_body_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("audit.jsonl");
    let sidecar = ExplainIndex::sidecar_path(&path);
    let _ = std::fs::remove_file(&sidecar);

    // The first lookup builds and saves the sidecar.
    let audit = tiny_audit();
    let jsonl = audit.to_jsonl();
    std::fs::write(&path, &jsonl).expect("write store");
    ExplainIndex::load_or_build(&path, &jsonl).expect("index builds");
    let clean = std::fs::read_to_string(&sidecar).expect("sidecar saved");

    // Add 1 to the first offset of the first entry; the header (length,
    // digest, count) still describes the store.
    let mut lines: Vec<String> = clean.lines().map(str::to_string).collect();
    let mut fields: Vec<String> = lines[1].split(' ').map(str::to_string).collect();
    let cert = fields[0].clone();
    let off: u64 = fields[1].parse().expect("offset");
    fields[1] = (off + 1).to_string();
    lines[1] = fields.join(" ");
    let damaged: String = lines.iter().map(|l| format!("{l}\n")).collect();
    std::fs::write(&sidecar, &damaged).expect("damage sidecar");

    // The damaged sidecar loads (its header matches) and its lookup fails.
    let mut index = ExplainIndex::load_or_build(&path, &jsonl).expect("sidecar loads");
    assert!(index.render_explain_from(&jsonl, &cert).is_err());

    // The explain lookup rebuilds it, answers as the scan does, and
    // rewrites the sidecar.
    assert_eq!(
        index.explain(&path, &jsonl, &cert),
        audit.render_explain(&cert)
    );
    assert_eq!(
        std::fs::read_to_string(&sidecar).expect("read sidecar"),
        clean,
        "the sidecar was rewritten"
    );
    for other in audit
        .decisions
        .iter()
        .map(|d| &d.cert)
        .filter(|c| !c.is_empty())
    {
        assert_eq!(
            index.render_explain_from(&jsonl, other),
            audit.render_explain(other),
            "indexed explain for {other} diverged from the scan"
        );
    }
    for p in [&path, &sidecar] {
        let _ = std::fs::remove_file(p);
    }
}
