//! §4.2: domain registrant change via WHOIS creation dates.
//!
//! A new registry creation date means the domain was deleted and
//! re-registered — a new owner. Any certificate whose validity spans the
//! new creation date (`notBefore < creationDate < notAfter`) is stale from
//! the creation date onward: the *previous* owner still holds its key.
//!
//! The method is deliberately conservative (precision over recall): it
//! misses intra/inter-registrar transfers and pre-release re-registrations
//! (§4.4), so its counts are a lower bound.

// Slice indexing here runs over routed-feed indices.
// stale-lint: scope(panic-index)

use crate::staleness::{StaleCertRecord, StalenessClass};
use ct::monitor::{CtMonitor, DedupedCert};
use psl::SuffixList;
use registry::whois::WhoisDataset;
use stale_types::{Date, DomainName};
use std::collections::HashMap;

/// The registrant-change detector.
pub struct RegistrantChangeDetector<'a> {
    psl: &'a SuffixList,
}

impl<'a> RegistrantChangeDetector<'a> {
    /// Build with a suffix list for e2LD grouping.
    pub fn new(psl: &'a SuffixList) -> Self {
        RegistrantChangeDetector { psl }
    }

    /// The SAN e2LDs of one certificate, deduplicated in SAN order. This
    /// is also the partitioner's routing key set for the certificate.
    pub fn cert_e2lds(&self, cert: &DedupedCert) -> Vec<DomainName> {
        let mut seen_e2lds: Vec<DomainName> = Vec::new();
        for san in cert.certificate.tbs.san() {
            if let Ok(e2ld) = self.psl.e2ld_of_san(san) {
                if !seen_e2lds.contains(&e2ld) {
                    seen_e2lds.push(e2ld);
                }
            }
        }
        seen_e2lds
    }

    /// The §4.2 test for one `(change, certificate)` pair: if the
    /// certificate's validity strictly spans the new creation date, build
    /// its stale record. Both the serial detector and the fold call this,
    /// so they cannot disagree on the span test or the record shape.
    pub fn stale_record(
        &self,
        domain: &DomainName,
        creation: Date,
        cert: &DedupedCert,
    ) -> Option<StaleCertRecord> {
        let tbs = &cert.certificate.tbs;
        if !spans(tbs.not_before(), creation, tbs.not_after()) {
            return None;
        }
        // The relevant FQDNs are the SANs under the changed e2LD (a
        // cruise-liner certificate names many other customers that are
        // *not* stale).
        let fqdns: Vec<DomainName> = tbs
            .san()
            .iter()
            .filter(|san| {
                self.psl
                    .e2ld_of_san(san)
                    .map(|e| e == *domain)
                    .unwrap_or(false)
            })
            .cloned()
            .collect();
        Some(StaleCertRecord {
            cert_id: cert.cert_id,
            class: StalenessClass::RegistrantChange,
            domain: domain.clone(),
            fqdns,
            issuer: tbs.issuer.common_name.clone(),
            invalidation: creation,
            validity: tbs.validity,
        })
    }

    /// Detect stale certificates for every registrant change in `whois`:
    /// the serial reference the engine's fold is compared against. One
    /// pass indexes the corpus by SAN e2LD (in cert-id order), then each
    /// change, in enumeration order, is tested against every certificate
    /// naming its domain.
    pub fn detect(&self, whois: &WhoisDataset, monitor: &CtMonitor) -> Vec<StaleCertRecord> {
        let mut index: HashMap<DomainName, Vec<&DedupedCert>> = HashMap::new();
        for cert in monitor.corpus_unfiltered() {
            for e2ld in self.cert_e2lds(cert) {
                index.entry(e2ld).or_default().push(cert);
            }
        }
        let mut records = Vec::new();
        for (domain, creation) in whois.registrant_changes() {
            for cert in index.get(domain).into_iter().flatten() {
                records.extend(self.stale_record(domain, creation, cert));
            }
        }
        records
    }
}

/// Deterministic merge: sort by `(domain, creation, cert_id)`, which is
/// exactly the serial emission order — changes in the WHOIS enumeration
/// order (the dataset is keyed by domain, each domain's creation dates
/// chronological), and within a change the corpus in cert-id order. A
/// record's `domain` and `invalidation` are its change's.
pub fn merge_shards(shards: Vec<Vec<StaleCertRecord>>) -> Vec<StaleCertRecord> {
    let mut all: Vec<StaleCertRecord> = shards.into_iter().flatten().collect();
    all.sort_by(|a, b| {
        (&a.domain, a.invalidation, a.cert_id).cmp(&(&b.domain, b.invalidation, b.cert_id))
    });
    all
}

/// `notBefore < creation < notAfter`, strictly, per §4.2.
fn spans(not_before: Date, creation: Date, not_after: Date) -> bool {
    not_before < creation && creation < not_after
}

/// Whether a certificate's validity strictly spans a creation date — the
/// §4.2 candidate test as one reusable predicate.
pub fn validity_spans(cert: &DedupedCert, creation: Date) -> bool {
    let tbs = &cert.certificate.tbs;
    spans(tbs.not_before(), creation, tbs.not_after())
}

/// The audit decision for one `(registrant change, certificate)`
/// candidate pair, as the fold's finish derives it.
pub fn rc_decision(
    domain: &DomainName,
    creation: Date,
    cert: &DedupedCert,
) -> obs::audit::Decision {
    use obs::audit::{Decision, Detector, DropReason, Provenance, Verdict};
    Decision {
        detector: Detector::Rc,
        cert: cert.cert_id.to_string(),
        verdict: if validity_spans(cert, creation) {
            Verdict::Kept
        } else {
            Verdict::Dropped(DropReason::OutsideValidityWindow)
        },
        provenance: Provenance::WhoisCreation {
            domain: domain.to_string(),
            created: creation.to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crypto::KeyPair;
    use stale_types::domain::dn;
    use stale_types::Duration;
    use x509::CertificateBuilder;

    fn d(s: &str) -> Date {
        Date::parse(s).unwrap()
    }

    fn cert(serial: u128, sans: &[&str], nb: &str, days: i64) -> x509::Certificate {
        CertificateBuilder::tls_leaf(KeyPair::from_seed([81; 32]).public())
            .serial(serial)
            .issuer_cn("RC CA")
            .subject_cn(sans[0])
            .sans(sans.iter().map(|s| dn(s)))
            .validity_days(d(nb), Duration::days(days))
            .sign(&KeyPair::from_seed([80; 32]))
    }

    fn monitor(certs: Vec<x509::Certificate>) -> CtMonitor {
        let mut m = CtMonitor::new();
        for c in certs {
            let date = c.tbs.not_before();
            m.ingest(c, date);
        }
        m
    }

    fn whois(changes: &[(&str, &str, &str)]) -> WhoisDataset {
        // (domain, first creation, second creation)
        let mut w = WhoisDataset::new();
        for (domain, first, second) in changes {
            w.observe(dn(domain), d(first));
            w.observe(dn(domain), d(second));
        }
        w
    }

    #[test]
    fn spanning_cert_detected() {
        let psl = SuffixList::default_list();
        let m = monitor(vec![cert(
            1,
            &["foo.com", "www.foo.com"],
            "2021-01-01",
            398,
        )]);
        let w = whois(&[("foo.com", "2015-05-05", "2021-06-01")]);
        let records = RegistrantChangeDetector::new(&psl).detect(&w, &m);
        assert_eq!(records.len(), 1);
        let r = &records[0];
        assert_eq!(r.class, StalenessClass::RegistrantChange);
        assert_eq!(r.domain, dn("foo.com"));
        assert_eq!(r.invalidation, d("2021-06-01"));
        assert_eq!(r.fqdns.len(), 2);
        // Staleness runs from the change to notAfter.
        assert_eq!(
            r.staleness_days(),
            (d("2021-01-01") + Duration::days(398)) - d("2021-06-01")
        );
    }

    #[test]
    fn non_spanning_certs_ignored() {
        let psl = SuffixList::default_list();
        let m = monitor(vec![
            cert(1, &["foo.com"], "2020-01-01", 90), // expired before change
            cert(2, &["foo.com"], "2021-07-01", 90), // issued after change
        ]);
        let w = whois(&[("foo.com", "2015-05-05", "2021-06-01")]);
        assert!(RegistrantChangeDetector::new(&psl)
            .detect(&w, &m)
            .is_empty());
    }

    #[test]
    fn boundary_strictness() {
        let psl = SuffixList::default_list();
        // Cert issued exactly on the change date: not stale (notBefore is
        // not < creation).
        let m = monitor(vec![cert(1, &["foo.com"], "2021-06-01", 90)]);
        let w = whois(&[("foo.com", "2015-05-05", "2021-06-01")]);
        assert!(RegistrantChangeDetector::new(&psl)
            .detect(&w, &m)
            .is_empty());
    }

    #[test]
    fn subdomain_sans_match_by_e2ld() {
        let psl = SuffixList::default_list();
        let m = monitor(vec![cert(1, &["api.foo.com"], "2021-01-01", 398)]);
        let w = whois(&[("foo.com", "2015-05-05", "2021-06-01")]);
        let records = RegistrantChangeDetector::new(&psl).detect(&w, &m);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].fqdns, vec![dn("api.foo.com")]);
    }

    #[test]
    fn cruise_liner_keeps_only_changed_domains_fqdns() {
        let psl = SuffixList::default_list();
        let m = monitor(vec![cert(
            1,
            &["sni1.cloudflaressl.com", "foo.com", "other-customer.com"],
            "2021-01-01",
            365,
        )]);
        let w = whois(&[("foo.com", "2015-05-05", "2021-06-01")]);
        let records = RegistrantChangeDetector::new(&psl).detect(&w, &m);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].fqdns, vec![dn("foo.com")]);
    }

    #[test]
    fn multiple_changes_multiple_records() {
        let psl = SuffixList::default_list();
        // One long cert spans two changes of the same domain.
        let m = monitor(vec![cert(1, &["foo.com"], "2017-01-01", 825)]);
        let mut w = WhoisDataset::new();
        w.observe(dn("foo.com"), d("2015-01-01"));
        w.observe(dn("foo.com"), d("2017-06-01"));
        w.observe(dn("foo.com"), d("2018-06-01"));
        let records = RegistrantChangeDetector::new(&psl).detect(&w, &m);
        assert_eq!(records.len(), 2);
        assert_ne!(records[0].invalidation, records[1].invalidation);
    }

    #[test]
    fn first_registration_never_matches() {
        let psl = SuffixList::default_list();
        // Only one creation date → no registrant change.
        let m = monitor(vec![cert(1, &["foo.com"], "2021-01-01", 398)]);
        let mut w = WhoisDataset::new();
        w.observe(dn("foo.com"), d("2021-02-01"));
        assert!(RegistrantChangeDetector::new(&psl)
            .detect(&w, &m)
            .is_empty());
    }
}
