//! Router coverage: the one router (`engine::partition::route`) hands
//! every candidate to exactly the shards that own it.
//!
//! Checked over arbitrary worlds and every shard count in `1..=16`, on
//! the day feed's full delta, which the batch engine folds:
//!
//! * every certificate is in exactly one key-compromise slice, the shard
//!   of its first SAN's e2LD;
//! * a certificate is in the registrant-change slice of every shard
//!   owning one of its SAN e2LDs, and nowhere else, carrying exactly the
//!   e2LDs that shard owns;
//! * a managed certificate is in the managed-TLS slice of every shard
//!   owning one of its non-wildcard customers, and nowhere else, carrying
//!   exactly the customers that shard owns;
//! * every WHOIS observation and DNS change is in exactly one slice, its
//!   owner's;
//! * every list keeps the delta's order;
//! * none of this depends on how many threads route the certificates.
//!
//! The expected assignment is derived independently of the router, from
//! the detectors' own key functions (`cert_e2lds`, `customer_domains`),
//! the suffix list's owned e2LD split and the public shard function.

use proptest::prelude::*;
use stale_tls::ct::monitor::DedupedCert;
use stale_tls::engine::partition::{route, shard_of};
use stale_tls::prelude::*;
use stale_tls::stale_core::detector::managed_tls::ManagedTlsDetector;
use stale_tls::stale_core::detector::registrant_change::RegistrantChangeDetector;
use stale_tls::stale_types::CertId;
use stale_tls::worldsim::DayFeed;
use std::collections::BTreeMap;

/// The kc/mtd routing key: a name's e2LD, or the name itself when the
/// suffix list cannot split it.
fn routing_key(psl: &SuffixList, name: &DomainName) -> DomainName {
    psl.e2ld_of_san(name).unwrap_or_else(|_| name.clone())
}

/// `(shard, cert id)` → the keys a slice carries for that certificate.
type Assignment = BTreeMap<(usize, CertId), Vec<String>>;

fn insert_once(assignment: &mut Assignment, shard: usize, cert: &DedupedCert, keys: Vec<String>) {
    let previous = assignment.insert((shard, cert.cert_id), keys);
    assert!(
        previous.is_none(),
        "certificate {} twice in shard {shard}",
        cert.cert_id
    );
}

fn sorted<T: Ord>(mut items: Vec<T>) -> Vec<T> {
    items.sort();
    items
}

fn check_route(data: &WorldDatasets, psl: &SuffixList, n: usize) {
    let feed = DayFeed::new(data);
    let delta = feed.delta(feed.start(), feed.end());
    let rc_detector = RegistrantChangeDetector::new(psl);
    let mtd_detector = ManagedTlsDetector::new(&data.cdn_config, psl);

    // The independent expectation.
    let mut kc_expected: Vec<(usize, CertId)> = Vec::new();
    let mut rc_expected = Assignment::new();
    let mut mtd_expected = Assignment::new();
    for &cert in &delta.certs {
        let kc_shard = match cert.certificate.tbs.san().first() {
            Some(first) => shard_of(&routing_key(psl, first), n),
            None => 0,
        };
        kc_expected.push((kc_shard, cert.cert_id));
        let mut by_shard: BTreeMap<usize, Vec<String>> = BTreeMap::new();
        for e2ld in rc_detector.cert_e2lds(cert) {
            by_shard
                .entry(shard_of(&e2ld, n))
                .or_default()
                .push(e2ld.to_string());
        }
        for (shard, keys) in by_shard {
            insert_once(&mut rc_expected, shard, cert, keys);
        }
        if mtd_detector.is_managed_cert(cert) {
            let mut by_shard: BTreeMap<usize, Vec<String>> = BTreeMap::new();
            for customer in mtd_detector.customer_domains(cert) {
                if customer.is_wildcard() {
                    continue;
                }
                by_shard
                    .entry(shard_of(&routing_key(psl, customer), n))
                    .or_default()
                    .push(customer.to_string());
            }
            for (shard, keys) in by_shard {
                insert_once(&mut mtd_expected, shard, cert, keys);
            }
        }
    }
    let whois_expected: Vec<(usize, String, Date)> = delta
        .whois
        .iter()
        .map(|(domain, creation)| (shard_of(domain, n), domain.to_string(), *creation))
        .collect();
    let dns_expected: Vec<(usize, String, Date)> = delta
        .dns
        .iter()
        .map(|(date, domain, _)| {
            (
                shard_of(&routing_key(psl, domain), n),
                domain.to_string(),
                *date,
            )
        })
        .collect();

    // What the router did, routing certificates on one and on three
    // threads.
    let position: BTreeMap<CertId, usize> = delta
        .certs
        .iter()
        .enumerate()
        .map(|(i, c)| (c.cert_id, i))
        .collect();
    for threads in [1, 3] {
        let slices = route(&delta, psl, &mtd_detector, n, threads);
        assert_eq!(slices.len(), n, "one slice per shard");
        let in_delta_order =
            |certs: Vec<CertId>| certs.windows(2).all(|w| position[&w[0]] < position[&w[1]]);
        let mut kc_actual = Vec::new();
        let mut rc_actual = Assignment::new();
        let mut mtd_actual = Assignment::new();
        let mut whois_actual = Vec::new();
        let mut dns_actual = Vec::new();
        for (shard, slice) in slices.iter().enumerate() {
            assert!(in_delta_order(slice.kc.iter().map(|c| c.cert_id).collect()));
            assert!(in_delta_order(
                slice.rc.iter().map(|(c, _)| c.cert_id).collect()
            ));
            assert!(in_delta_order(
                slice.mtd.iter().map(|(c, _)| c.cert_id).collect()
            ));
            kc_actual.extend(slice.kc.iter().map(|c| (shard, c.cert_id)));
            for (cert, keys) in &slice.rc {
                insert_once(
                    &mut rc_actual,
                    shard,
                    cert,
                    keys.iter().map(|k| k.to_string()).collect(),
                );
            }
            for (cert, customers) in &slice.mtd {
                insert_once(
                    &mut mtd_actual,
                    shard,
                    cert,
                    customers.iter().map(|c| c.to_string()).collect(),
                );
            }
            whois_actual.extend(slice.whois.iter().map(|(d, c)| (shard, d.to_string(), *c)));
            dns_actual.extend(
                slice
                    .dns
                    .iter()
                    .map(|(date, d, _)| (shard, d.to_string(), *date)),
            );
            // Per-domain streams stay chronological inside a slice.
            for pair in slice.whois.windows(2) {
                assert!(
                    pair[0].0 != pair[1].0 || pair[0].1 < pair[1].1,
                    "whois order"
                );
            }
            for pair in slice.dns.windows(2) {
                assert!(pair[0].1 != pair[1].1 || pair[0].0 < pair[1].0, "dns order");
            }
        }

        assert_eq!(
            sorted(kc_actual),
            sorted(kc_expected.clone()),
            "kc: one slice per certificate, n={n} threads={threads}"
        );
        assert_eq!(
            rc_actual, rc_expected,
            "rc: every owning shard, owned e2LDs only, n={n} threads={threads}"
        );
        assert_eq!(
            mtd_actual, mtd_expected,
            "mtd: every owning shard, owned customers only, n={n} threads={threads}"
        );
        assert_eq!(
            sorted(whois_actual),
            sorted(whois_expected.clone()),
            "whois: owner only, n={n} threads={threads}"
        );
        assert_eq!(
            sorted(dns_actual),
            sorted(dns_expected.clone()),
            "dns: owner only, n={n} threads={threads}"
        );
    }
}

#[test]
fn router_covers_every_candidate_on_fixed_world() {
    let data = World::run(ScenarioConfig::tiny());
    let psl = SuffixList::default_list();
    for n in 1..=16 {
        check_route(&data, &psl, n);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random small worlds, every shard count 1..=16: each candidate
    /// reaches exactly the shards that own it.
    #[test]
    fn router_covers_every_candidate(seed in any::<u64>()) {
        let mut cfg = ScenarioConfig::tiny();
        cfg.seed = seed;
        let data = World::run(cfg);
        let psl = SuffixList::default_list();
        for n in 1..=16 {
            check_route(&data, &psl, n);
        }
    }
}
