//! Regression: a checkpoint is restored only if it keeps every invariant
//! its writer guarantees — states by their shard label, never by file
//! position, and ledgers sorted with no key twice — and only if every
//! ledger entry is one a fold of this world could hold.
//!
//! A snapshot whose states were permuted (hand-edited, or written by a
//! buggy tool) must be refused. Restoring shard 3's state into shard 0's
//! slot would route every later day's WHOIS and DNS items to ledgers
//! that never saw the certificates they pair with, silently losing
//! registrant-change and managed-TLS records. So must a snapshot whose
//! ledgers name one domain twice: restoring it keeps only the last
//! entry, silently dropping the certificates or delegation states of
//! the others. And so must a well-formed file for this world and width
//! whose ledgers name facts the world does not hold: an rc creation date
//! WHOIS lacks (a phantom registrant change, or a merge that cannot place
//! it), an mtd departure for a customer that never left (a phantom
//! Table 4 row), or a kc index row filed under a key other than its
//! certificate's (a lost revocation match).

use serde::value::Value;
use stale_served::{Client, Daemon, DaemonConfig};
use stale_tls::engine::{Checkpoint, Engine, EngineConfig, EngineReport};
use stale_tls::prelude::*;
use stale_tls::stale_types::SerialNumber;
use std::path::{Path, PathBuf};

/// The comparable byte form of a suite: the full revocation join plus
/// the three record streams.
fn suite_bytes(suite: &DetectionSuite) -> String {
    serde_json::to_string(&(
        &suite.revocations.matched,
        &suite.revocations.stats,
        &suite.revocations.cutoff,
        &suite.key_compromise,
        &suite.registrant_change,
        &suite.managed_tls,
    ))
    .expect("suite serialises")
}

#[test]
fn permuted_checkpoint_states_are_refused_and_the_run_starts_fresh() {
    let data = World::run(ScenarioConfig::tiny());
    let psl = SuffixList::default_list();
    let dir = std::env::temp_dir().join("stale_checkpoint_order_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("permuted.json");
    let _ = std::fs::remove_file(&path);

    // A real snapshot at 4 shards, 20 days into the aDNS window.
    let mut cfg = EngineConfig::with_shards(4);
    cfg.day_batch = 10;
    cfg.checkpoint = Some(path.clone());
    cfg.through = Some(data.adns_window.start + Duration::days(20));
    Engine::new(cfg)
        .run_incremental(&data, &psl)
        .expect("snapshot run");

    // Reverse the states, each keeping the shard label it was saved with.
    let text = std::fs::read_to_string(&path).expect("read snapshot");
    let mut value: Value = serde_json::from_str(&text).expect("snapshot is JSON");
    let mut permuted = false;
    if let Value::Obj(fields) = &mut value {
        for (key, field) in fields.iter_mut() {
            if let (true, Value::Arr(states)) = (key == "states", field) {
                assert_eq!(states.len(), 4, "a complete snapshot");
                states.reverse();
                permuted = true;
            }
        }
    }
    assert!(permuted, "snapshot has a states list");
    std::fs::write(&path, serde_json::to_string(&value).expect("serialise")).expect("write");

    // Draining the feed from the permuted file must match a clean run.
    let mut cfg = EngineConfig::with_shards(4);
    cfg.day_batch = 10;
    let clean = Engine::new(cfg.clone())
        .run_incremental(&data, &psl)
        .expect("clean run");
    cfg.checkpoint = Some(path.clone());
    let resumed = Engine::new(cfg)
        .run_incremental(&data, &psl)
        .expect("resumed run");
    assert_eq!(
        resumed.metrics.resumed_shards, 0,
        "a checkpoint with permuted states must be refused"
    );
    assert_eq!(suite_bytes(&resumed.suite), suite_bytes(&clean.suite));
    let _ = std::fs::remove_file(&path);
}

/// Write a real snapshot of the tiny world at 4 shards, 20 days into the
/// aDNS window, to `name`, and return the world and the snapshot's path.
fn snapshot(name: &str) -> (WorldDatasets, SuffixList, PathBuf) {
    let data = World::run(ScenarioConfig::tiny());
    let psl = SuffixList::default_list();
    let dir = std::env::temp_dir().join("stale_checkpoint_order_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    let mut cfg = EngineConfig::with_shards(4);
    cfg.day_batch = 10;
    cfg.checkpoint = Some(path.clone());
    cfg.through = Some(data.adns_window.start + Duration::days(20));
    Engine::new(cfg)
        .run_incremental(&data, &psl)
        .expect("snapshot run");
    (data, psl, path)
}

/// Draining the feed from the checkpoint at `path` must refuse it with a
/// reason naming `needle`, count the refusal and match a clean run.
fn refused_and_fresh(data: &WorldDatasets, psl: &SuffixList, path: &Path, needle: &str) {
    let mut cfg = EngineConfig::with_shards(4);
    cfg.day_batch = 10;
    let clean = Engine::new(cfg.clone())
        .run_incremental(data, psl)
        .expect("clean run");
    cfg.checkpoint = Some(path.to_path_buf());
    let obs = obs::Obs::enabled();
    let resumed = Engine::new(cfg)
        .with_obs(obs.clone())
        .run_incremental(data, psl)
        .expect("resumed run");
    assert_eq!(resumed.metrics.resumed_shards, 0, "must be refused");
    let why = resumed.metrics.checkpoint_rejected.as_deref().unwrap_or("");
    assert!(why.contains(needle), "{why:?}");
    assert_eq!(
        obs.registry.snapshot().counters.get("checkpoint.rejected"),
        Some(&1)
    );
    assert_eq!(suite_bytes(&resumed.suite), suite_bytes(&clean.suite));
}

#[test]
fn a_split_rc_ledger_is_refused_and_the_run_starts_fresh() {
    let (data, psl, path) = snapshot("split_rc.json");
    let mut cp = Checkpoint::load(&path, data.fingerprint(), 4)
        .expect("snapshot loads")
        .expect("snapshot present");
    // One certificate per entry: every domain naming several appears
    // several times.
    let mut split = false;
    for state in &mut cp.states {
        let mut entries = Vec::new();
        for (domain, certs) in std::mem::take(&mut state.rc.certs_by_e2ld) {
            split |= certs.len() > 1;
            entries.extend(certs.into_iter().map(|c| (domain.clone(), vec![c])));
        }
        state.rc.certs_by_e2ld = entries;
    }
    assert!(split, "some domain is named by several certificates");
    cp.save(&path).expect("write");
    refused_and_fresh(&data, &psl, &path, "rc.certs_by_e2ld");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_target_both_delegated_and_undelegated_is_refused_and_the_run_starts_fresh() {
    let (data, psl, path) = snapshot("both.json");
    let mut cp = Checkpoint::load(&path, data.fingerprint(), 4)
        .expect("snapshot loads")
        .expect("snapshot present");
    // List every delegated target as undelegated too.
    let mut listed = false;
    for state in &mut cp.states {
        listed |= !state.mtd.delegated.is_empty();
        state
            .mtd
            .undelegated
            .extend(state.mtd.delegated.iter().cloned());
        state.mtd.undelegated.sort();
    }
    assert!(listed, "some target is delegated 20 days in");
    cp.save(&path).expect("write");
    refused_and_fresh(&data, &psl, &path, "both delegated and undelegated");
    let _ = std::fs::remove_file(&path);
}

/// An audited batch run of `data` at 2 shards, checkpointing to `path`.
fn audited_batch(
    data: &WorldDatasets,
    psl: &SuffixList,
    path: Option<&Path>,
    obs: obs::Obs,
) -> EngineReport {
    let mut cfg = EngineConfig::with_shards(2);
    cfg.audit = true;
    cfg.checkpoint = path.map(Path::to_path_buf);
    Engine::new(cfg)
        .with_obs(obs)
        .run(data, psl)
        .expect("batch run")
}

/// Suite and audit bytes of an audited report.
fn report_bytes(report: &EngineReport) -> (String, String) {
    (
        suite_bytes(&report.suite),
        report.audit.as_ref().expect("audited run").to_jsonl(),
    )
}

/// A complete audited batch checkpoint of the tiny world at 2 shards,
/// written to `name`, with the world and the clean run's bytes.
fn batch_checkpoint(
    name: &str,
) -> (
    WorldDatasets,
    SuffixList,
    PathBuf,
    Checkpoint,
    (String, String),
) {
    let data = World::run(ScenarioConfig::tiny());
    let psl = SuffixList::default_list();
    let dir = std::env::temp_dir().join("stale_checkpoint_order_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    let clean = report_bytes(&audited_batch(
        &data,
        &psl,
        Some(&path),
        obs::Obs::disabled(),
    ));
    let cp = Checkpoint::load(&path, data.fingerprint(), 2)
        .expect("checkpoint loads")
        .expect("checkpoint present");
    assert!(cp.is_complete(), "every shard saved");
    (data, psl, path, cp, clean)
}

/// Save the forged `cp` to `path`: a daemon booted from it must refuse
/// it and start fresh, and an audited batch resume from it must refuse it
/// with a reason naming `needle`, count the refusal, and match the clean
/// run byte for byte.
fn forged_is_refused_at_batch_resume(
    data: &WorldDatasets,
    psl: &SuffixList,
    path: &Path,
    cp: &Checkpoint,
    clean: &(String, String),
    needle: &str,
) {
    assert!(
        cp.violations().is_empty(),
        "the forgery keeps the file's invariants"
    );
    cp.save(path).expect("write forgery");

    let mut cfg = DaemonConfig::new("tiny", ScenarioConfig::tiny());
    cfg.shards = 2;
    cfg.checkpoint = Some(path.to_path_buf());
    let daemon = Daemon::start(cfg, "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(daemon.addr()).expect("connect");
    let status = client
        .request("status")
        .expect("transport")
        .expect("status answers");
    assert!(status.contains("applied-through none"), "{status}");
    let counters = daemon.registry().snapshot().counters;
    assert_eq!(counters.get("served.checkpoint.rejected"), Some(&1));
    daemon.stop();

    // The refused run starts fresh and saves a clean checkpoint over it.
    let obs = obs::Obs::enabled();
    let resumed = audited_batch(data, psl, Some(path), obs.clone());
    assert_eq!(resumed.metrics.resumed_shards, 0, "must be refused");
    let why = resumed.metrics.checkpoint_rejected.as_deref().unwrap_or("");
    assert!(why.contains(needle), "{why:?}");
    assert_eq!(
        obs.registry.snapshot().counters.get("checkpoint.rejected"),
        Some(&1)
    );
    assert_eq!(&report_bytes(&resumed), clean);
    let _ = std::fs::remove_file(path);
}

#[test]
fn an_rc_creation_date_whois_lacks_is_refused_and_the_run_starts_fresh() {
    let (data, psl, path, mut cp, clean) = batch_checkpoint("forged_rc.json");
    // Re-register a once-registered domain the day after its creation: a
    // registrant change WHOIS never recorded, still chronological.
    let (domain, dates) = cp
        .states
        .iter_mut()
        .flat_map(|s| s.rc.creations.iter_mut())
        .find(|(_, dates)| dates.len() == 1)
        .expect("some domain was registered once");
    let forged = dates[0].succ();
    assert!(!data.whois.creation_dates(domain).contains(&forged));
    assert!(forged <= cp.through);
    dates.push(forged);
    forged_is_refused_at_batch_resume(&data, &psl, &path, &cp, &clean, "rc.creations");
}

#[test]
fn an_mtd_departure_for_a_customer_that_never_left_is_refused_and_the_run_starts_fresh() {
    let (data, psl, path, mut cp, clean) = batch_checkpoint("forged_mtd.json");
    // A customer with certificates and no departure departs on a day one
    // of its certificates is valid: a phantom managed-TLS record.
    let window = data.adns_window;
    let (state, customer, day) = cp
        .states
        .iter()
        .enumerate()
        .find_map(|(i, state)| {
            state
                .mtd
                .certs_by_customer
                .iter()
                .find_map(|(customer, ids)| {
                    if state.mtd.departures.iter().any(|(d, _)| d == customer) {
                        return None;
                    }
                    let cert = data.monitor.get(ids.first()?)?;
                    let day = cert.certificate.tbs.not_before().max(window.start).succ();
                    let valid = cert.certificate.tbs.validity.contains(day);
                    (valid && day < window.end).then(|| (i, customer.clone(), day))
                })
        })
        .expect("some customer never left");
    let departures = &mut cp.states[state].mtd.departures;
    let at = departures.partition_point(|(d, _)| *d < customer);
    departures.insert(at, (customer, vec![day]));
    forged_is_refused_at_batch_resume(&data, &psl, &path, &cp, &clean, "mtd.departures");
}

#[test]
fn a_kc_row_keyed_away_from_its_certificate_is_refused_and_the_run_starts_fresh() {
    let (data, psl, path, mut cp, clean) = batch_checkpoint("forged_kc.json");
    // File a CRL-matched certificate under a serial nobody holds: its
    // revocation no longer joins.
    let revoked: std::collections::BTreeSet<_> = data
        .crl
        .records()
        .iter()
        .map(|r| (r.authority_key_id, r.serial))
        .collect();
    let index = cp
        .states
        .iter_mut()
        .map(|s| &mut s.kc.index)
        .find(|index| {
            index
                .iter()
                .any(|(aki, serial, _)| revoked.contains(&(*aki, *serial)))
        })
        .expect("some certificate was revoked");
    let held: std::collections::BTreeSet<_> = index.iter().map(|(a, s, _)| (*a, *s)).collect();
    let row = index
        .iter_mut()
        .find(|(aki, serial, _)| revoked.contains(&(*aki, *serial)))
        .expect("a revoked row");
    let mut serial = row.1 .0;
    while held.contains(&(row.0, SerialNumber(serial)))
        || revoked.contains(&(row.0, SerialNumber(serial)))
    {
        serial = serial.wrapping_add(1);
    }
    row.1 = SerialNumber(serial);
    forged_is_refused_at_batch_resume(&data, &psl, &path, &cp, &clean, "kc.index");
}
