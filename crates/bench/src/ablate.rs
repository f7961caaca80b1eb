//! Ablation studies for the design choices called out in DESIGN.md §8.
//!
//! Each function implements both sides of a design decision so the
//! Criterion benches (and tests) can compare them on identical inputs:
//!
//! * interval-compressed DNS history vs. materialised daily snapshots;
//! * hash join vs. sort-merge join for the CRL × CT cross-reference;
//! * cruise-liner SAN packing vs. per-domain certificates (stale-cert
//!   blast radius per departing customer).

use ca::scraper::CrlDataset;
use ct::monitor::CtMonitor;
use dns::scan::{DailyScanner, DnsHistory};
use stale_types::{Date, DateInterval, DomainName, KeyId, SerialNumber};
use std::collections::HashMap;

/// Count provider departures over `window` using interval queries
/// (`view_at`), the production approach.
pub fn departures_interval(
    adns: &DnsHistory,
    domains: &[DomainName],
    window: DateInterval,
    is_target: &dyn Fn(&DomainName) -> bool,
) -> usize {
    let mut departures = 0;
    for domain in domains {
        for (day, next) in DailyScanner::new(window.start, window.end) {
            let on = adns
                .view_at(domain, day)
                .is_some_and(|v| v.any_delegation(|n| is_target(n)));
            let off = !adns
                .view_at(domain, next)
                .is_some_and(|v| v.any_delegation(|n| is_target(n)));
            if on && off {
                departures += 1;
            }
        }
    }
    departures
}

/// The same count via fully materialised daily snapshots — what a naive
/// pipeline storing every scan day would do.
pub fn departures_materialised(
    adns: &DnsHistory,
    domains: &[DomainName],
    window: DateInterval,
    is_target: &dyn Fn(&DomainName) -> bool,
) -> usize {
    let mut departures = 0;
    let mut prev = adns.snapshot(window.start);
    for (_, next) in DailyScanner::new(window.start, window.end) {
        let snap = adns.snapshot(next);
        for domain in domains {
            let on = prev
                .views
                .get(domain)
                .is_some_and(|v| v.any_delegation(|n| is_target(n)));
            let off = !snap
                .views
                .get(domain)
                .is_some_and(|v| v.any_delegation(|n| is_target(n)));
            if on && off {
                departures += 1;
            }
        }
        prev = snap;
    }
    departures
}

/// CRL × CT join via a hash index on `(AKI, serial)` — the production
/// approach in [`stale_core::detector::key_compromise`].
pub fn crl_join_hash(crl: &CrlDataset, monitor: &CtMonitor) -> usize {
    let mut index: HashMap<(KeyId, SerialNumber), ()> = HashMap::new();
    for cert in monitor.corpus_unfiltered() {
        if let Some(aki) = cert.certificate.tbs.authority_key_id() {
            index.insert((aki, cert.certificate.tbs.serial), ());
        }
    }
    crl.records()
        .iter()
        .filter(|r| index.contains_key(&(r.authority_key_id, r.serial)))
        .count()
}

/// The same join via sort-merge over both sides.
pub fn crl_join_sort_merge(crl: &CrlDataset, monitor: &CtMonitor) -> usize {
    let mut certs: Vec<(KeyId, SerialNumber)> = monitor
        .corpus_unfiltered()
        .filter_map(|c| {
            c.certificate
                .tbs
                .authority_key_id()
                .map(|aki| (aki, c.certificate.tbs.serial))
        })
        .collect();
    certs.sort_unstable();
    certs.dedup();
    let mut revs: Vec<(KeyId, SerialNumber)> = crl
        .records()
        .iter()
        .map(|r| (r.authority_key_id, r.serial))
        .collect();
    revs.sort_unstable();
    let (mut i, mut j, mut matched) = (0usize, 0usize, 0usize);
    while i < certs.len() && j < revs.len() {
        match certs[i].cmp(&revs[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                matched += 1;
                j += 1;
            }
        }
    }
    matched
}

/// Blast radius of one departing customer: how many unexpired
/// certificates the provider holds naming that customer, under
/// cruise-liner packing vs per-domain issuance. Returns
/// `(cruise_liner_stale, per_domain_stale)` for identical enrollment
/// schedules.
pub fn cruise_liner_blast_radius(customers: usize, departure_day_offset: i64) -> (usize, usize) {
    use ca::authority::CertificateAuthority;
    use ca::policy::CaPolicy;
    use cdn::provider::{ManagedTlsProvider, ProviderConfig};
    use crypto::KeyPair;
    use ct::log::LogPool;
    use stale_types::{CaId, Duration};

    let run = |config: ProviderConfig| -> usize {
        let ca = CertificateAuthority::new(
            CaId(40),
            "Ablation CA",
            KeyPair::from_seed([40; 32]),
            CaPolicy {
                default_lifetime: Duration::days(365),
                ..CaPolicy::commercial()
            },
        );
        let mut provider = ManagedTlsProvider::new(config, ca, 1);
        let mut pool = LogPool::with_yearly_shards("ablate", 5, 2021, 2025);
        let mut dns = DnsHistory::new();
        let start = Date::parse("2022-01-01").expect("fixed");
        for i in 0..customers {
            let name = DomainName::parse(&format!("cust{i}.com")).expect("valid");
            provider.enroll(name, start + Duration::days(i as i64), &mut pool, &mut dns);
        }
        let victim = DomainName::parse("cust0.com").expect("valid");
        let when = start + Duration::days(departure_day_offset);
        provider.depart(
            &victim,
            when,
            dns::scan::DnsView::with_ns([DomainName::parse("ns1.away.net").expect("valid")]),
            &mut pool,
            &mut dns,
        );
        provider.stale_certs_for(&victim, when).len()
    };
    (
        run(ProviderConfig::cloudflare_cruise_liner()),
        run(ProviderConfig::cloudflare_per_domain()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns::scan::DnsView;

    fn d(s: &str) -> Date {
        Date::parse(s).unwrap()
    }

    fn dn(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    #[test]
    fn interval_and_materialised_agree() {
        let mut adns = DnsHistory::new();
        let cf = || DnsView::with_ns([dn("anna.ns.cloudflare.com")]);
        let off = || DnsView::with_ns([dn("ns1.away.net")]);
        adns.record_change(dn("a.com"), d("2022-08-01"), cf());
        adns.record_change(dn("a.com"), d("2022-09-10"), off());
        adns.record_change(dn("b.com"), d("2022-08-01"), cf());
        adns.record_change(dn("c.com"), d("2022-08-05"), off());
        let domains = vec![dn("a.com"), dn("b.com"), dn("c.com")];
        let window = DateInterval::new(d("2022-08-01"), d("2022-10-31")).unwrap();
        let is_target = |n: &DomainName| n.is_subdomain_of(&dn("ns.cloudflare.com"));
        let fast = departures_interval(&adns, &domains, window, &is_target);
        let slow = departures_materialised(&adns, &domains, window, &is_target);
        assert_eq!(fast, slow);
        assert_eq!(fast, 1);
    }

    #[test]
    fn joins_agree() {
        use ca::scraper::RevocationRecord;
        use crypto::KeyPair;
        use stale_types::Duration;
        use x509::revocation::RevocationReason;
        use x509::CertificateBuilder;

        let ca = KeyPair::from_seed([41; 32]);
        let mut monitor = CtMonitor::new();
        for i in 0..50u128 {
            let cert = CertificateBuilder::tls_leaf(KeyPair::from_seed([42; 32]).public())
                .serial(i)
                .issuer_cn("Join CA")
                .subject_cn("x.com")
                .san(dn("x.com"))
                .validity_days(d("2022-01-01"), Duration::days(90))
                .sign(&ca);
            monitor.ingest(cert, d("2022-01-01"));
        }
        let mut crl = CrlDataset::new();
        for i in (0..80u128).step_by(2) {
            crl.add(RevocationRecord {
                authority_key_id: KeyId::from_bytes(ca.public().key_id()),
                serial: SerialNumber(i),
                revocation_date: d("2022-02-01"),
                reason: RevocationReason::KeyCompromise,
                observed: d("2022-11-01"),
            });
        }
        let h = crl_join_hash(&crl, &monitor);
        let s = crl_join_sort_merge(&crl, &monitor);
        assert_eq!(h, s);
        assert_eq!(h, 25); // serials 0,2,...,48 exist
    }

    #[test]
    fn cruise_liner_amplifies_blast_radius() {
        let (cruise, per_domain) = cruise_liner_blast_radius(8, 30);
        // Cruise-liner: the victim appears on every bus reissue since it
        // enrolled; per-domain: exactly one certificate.
        assert!(
            cruise > per_domain,
            "cruise {cruise} vs per-domain {per_domain}"
        );
        assert_eq!(per_domain, 1);
    }
}
