//! §4.3: managed TLS departure via daily DNS diffing.
//!
//! Only Cloudflare's managed certificates are identifiable in CT: they
//! carry a `sni….cloudflaressl.com` marker SAN alongside the customer
//! domains. For every domain on such a certificate, the detector walks the
//! daily DNS scans of the measurement window and flags a departure when a
//! Cloudflare nameserver or CNAME is present one day and absent the next.
//! Every unexpired provider-managed certificate naming the domain at that
//! point is stale: the CDN still holds its key.

// Slice indexing here runs over routed-feed indices.
// stale-lint: scope(panic-index)

use crate::staleness::{StaleCertRecord, StalenessClass};
use cdn::provider::ProviderConfig;
use ct::monitor::{CtMonitor, DedupedCert};
use dns::scan::{DailyScanner, DnsHistory};
use psl::SuffixList;
use stale_types::{Date, DateInterval, DomainName};
use std::collections::BTreeMap;

/// The managed-TLS departure detector.
pub struct ManagedTlsDetector<'a> {
    config: &'a ProviderConfig,
    psl: &'a SuffixList,
    /// The marker base, parsed once at construction (the marker test runs
    /// per SAN per certificate on the hot path).
    marker: Option<DomainName>,
}

impl<'a> ManagedTlsDetector<'a> {
    /// Build for one provider's delegation/marker configuration.
    pub fn new(config: &'a ProviderConfig, psl: &'a SuffixList) -> Self {
        let marker = config
            .marker_base
            .as_deref()
            .and_then(|b| DomainName::parse(b).ok());
        ManagedTlsDetector {
            config,
            psl,
            marker,
        }
    }

    /// Whether `san` is the provider's marker name (e.g.
    /// `sni12345.cloudflaressl.com`).
    pub fn is_marker_san(&self, san: &DomainName) -> bool {
        let Some(base) = &self.marker else {
            return false;
        };
        san.is_subdomain_of(base)
            && san != base
            && san.labels().next().is_some_and(|l| l.starts_with("sni"))
    }

    /// Whether a certificate is provider-managed (carries the marker).
    pub fn is_managed_cert(&self, cert: &DedupedCert) -> bool {
        cert.certificate
            .tbs
            .san()
            .iter()
            .any(|s| self.is_marker_san(s))
    }

    /// Customer domains on a managed certificate (everything except the
    /// marker).
    pub fn customer_domains<'c>(&self, cert: &'c DedupedCert) -> Vec<&'c DomainName> {
        cert.certificate
            .tbs
            .san()
            .iter()
            .filter(|s| !self.is_marker_san(s))
            .collect()
    }

    /// Detect departures over `window` and return the stale certificates:
    /// the serial reference the engine's fold is compared against. Each
    /// customer, in sorted order, is evaluated once over every managed
    /// certificate naming it (in cert-id order), departure-major. Wildcard
    /// SANs are not candidates: they carry no DNS signal of their own.
    pub fn detect(
        &self,
        adns: &DnsHistory,
        monitor: &CtMonitor,
        window: DateInterval,
    ) -> Vec<StaleCertRecord> {
        let mut by_customer: BTreeMap<&DomainName, Vec<&DedupedCert>> = BTreeMap::new();
        for cert in monitor.corpus_unfiltered() {
            if !self.is_managed_cert(cert) {
                continue;
            }
            for domain in self.customer_domains(cert) {
                if !domain.is_wildcard() {
                    by_customer.entry(domain).or_default().push(cert);
                }
            }
        }
        let mut records = Vec::new();
        for (domain, certs) in &by_customer {
            for departure in self.departures_for(adns, domain, window) {
                for cert in certs {
                    records.extend(self.stale_record(domain, departure, cert));
                }
            }
        }
        records
    }

    /// The §4.3 test for one `(customer, departure, certificate)` triple:
    /// if the certificate was still valid at the departure, build its
    /// stale record. Shared by the serial detector and the fold.
    pub fn stale_record(
        &self,
        domain: &DomainName,
        departure: Date,
        cert: &DedupedCert,
    ) -> Option<StaleCertRecord> {
        let tbs = &cert.certificate.tbs;
        if !tbs.validity.contains(departure) {
            return None;
        }
        Some(StaleCertRecord {
            cert_id: cert.cert_id,
            class: StalenessClass::ManagedTlsDeparture,
            domain: domain.clone(),
            fqdns: tbs
                .san()
                .iter()
                .filter(|s| {
                    self.psl
                        .e2ld_of_san(s)
                        .ok()
                        .and_then(|e| self.psl.e2ld_of_san(domain).ok().map(|d| e == d))
                        .unwrap_or(false)
                })
                .cloned()
                .collect(),
            issuer: tbs.issuer.common_name.clone(),
            invalidation: departure,
            validity: tbs.validity,
        })
    }

    /// Whether a DNS view shows delegation to this provider.
    pub fn is_delegated(&self, view: &dns::scan::DnsView) -> bool {
        view.any_delegation(|n| self.config.is_delegation_target(n))
    }

    /// Days in `window` on which `domain` departed the provider: provider
    /// delegation present on day `d`, absent on day `d+1` (§4.3's
    /// neighbouring-day comparison).
    pub fn departures_for(
        &self,
        adns: &DnsHistory,
        domain: &DomainName,
        window: DateInterval,
    ) -> Vec<Date> {
        let mut departures = Vec::new();
        for (day, next_day) in DailyScanner::new(window.start, window.end) {
            let on_before = adns
                .view_at(domain, day)
                .is_some_and(|v| self.is_delegated(v));
            if !on_before {
                continue;
            }
            let on_after = adns
                .view_at(domain, next_day)
                .is_some_and(|v| self.is_delegated(v));
            if !on_after {
                departures.push(next_day);
            }
        }
        departures
    }
}

/// The audit decision for one `(customer, departure, certificate)`
/// candidate triple, as the fold's finish derives it. The departure day
/// is the first day the delegation was gone; the day before is the last
/// it was observed (§4.3's neighbouring-day comparison).
pub fn departure_decision(
    domain: &DomainName,
    departure: Date,
    cert: &DedupedCert,
) -> obs::audit::Decision {
    use obs::audit::{Decision, Detector, DropReason, Verdict};
    Decision {
        detector: Detector::Mtd,
        cert: cert.cert_id.to_string(),
        verdict: if cert.certificate.tbs.validity.contains(departure) {
            Verdict::Kept
        } else {
            Verdict::Dropped(DropReason::OutsideValidityWindow)
        },
        provenance: departure_provenance(domain, departure),
    }
}

/// The audit provenance of one departure: the §4.3 neighbouring-day pair
/// (last day delegated, first day gone). Shared by the fold's decisions
/// and its event stream.
pub fn departure_provenance(domain: &DomainName, departure: Date) -> obs::audit::Provenance {
    obs::audit::Provenance::DnsDeparture {
        customer: domain.to_string(),
        last_delegated: (departure - stale_types::Duration::days(1)).to_string(),
        departed: departure.to_string(),
    }
}

/// The audit decision for a certificate of a customer whose delegation
/// never departed in the window: dropped `delegation-still-present`.
pub fn still_present_decision(domain: &DomainName, cert: &DedupedCert) -> obs::audit::Decision {
    use obs::audit::{Decision, Detector, DropReason, Provenance, Verdict};
    Decision {
        detector: Detector::Mtd,
        cert: cert.cert_id.to_string(),
        verdict: Verdict::Dropped(DropReason::DelegationStillPresent),
        provenance: Provenance::DnsDelegated {
            customer: domain.to_string(),
        },
    }
}

/// Deterministic merge: a stable sort by customer domain. Each customer is
/// wholly owned by one shard, so shard-local order (departure-major, then
/// cert id) is preserved within a domain and the result equals the serial
/// sorted-customer iteration.
pub fn merge_shards(shards: Vec<Vec<StaleCertRecord>>) -> Vec<StaleCertRecord> {
    let mut all: Vec<StaleCertRecord> = shards.into_iter().flatten().collect();
    all.sort_by(|a, b| a.domain.cmp(&b.domain));
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crypto::KeyPair;
    use dns::scan::DnsView;
    use stale_types::domain::dn;
    use stale_types::Duration;
    use x509::CertificateBuilder;

    fn d(s: &str) -> Date {
        Date::parse(s).unwrap()
    }

    fn window() -> DateInterval {
        DateInterval::new(d("2022-08-01"), d("2022-10-31")).unwrap()
    }

    fn managed_cert(serial: u128, customers: &[&str], nb: &str, days: i64) -> x509::Certificate {
        let mut sans = vec![dn(&format!("sni{serial}.cloudflaressl.com"))];
        sans.extend(customers.iter().map(|s| dn(s)));
        CertificateBuilder::tls_leaf(KeyPair::from_seed([90; 32]).public())
            .serial(serial)
            .issuer_cn("COMODO ECC DV Secure Server CA 2")
            .subject_cn(customers[0])
            .sans(sans)
            .validity_days(d(nb), Duration::days(days))
            .sign(&KeyPair::from_seed([91; 32]))
    }

    fn monitor(certs: Vec<x509::Certificate>) -> CtMonitor {
        let mut m = CtMonitor::new();
        for c in certs {
            let date = c.tbs.not_before();
            m.ingest(c, date);
        }
        m
    }

    fn cf_view() -> DnsView {
        DnsView::with_ns([dn("anna.ns.cloudflare.com"), dn("bob.ns.cloudflare.com")])
    }

    fn off_view() -> DnsView {
        DnsView::with_ns([dn("ns1.elsewhere.net")])
    }

    #[test]
    fn departure_detected_and_stale_certs_flagged() {
        let psl = SuffixList::default_list();
        let config = ProviderConfig::cloudflare_cruise_liner();
        let detector = ManagedTlsDetector::new(&config, &psl);
        let mut adns = DnsHistory::new();
        adns.record_change(dn("foo.com"), d("2022-01-01"), cf_view());
        adns.record_change(dn("foo.com"), d("2022-09-15"), off_view());
        let m = monitor(vec![
            managed_cert(1, &["foo.com", "bystander.com"], "2022-03-01", 365),
            managed_cert(2, &["foo.com"], "2021-01-01", 365), // expired by departure
        ]);
        let records = detector.detect(&adns, &m, window());
        assert_eq!(records.len(), 1);
        let r = &records[0];
        assert_eq!(r.class, StalenessClass::ManagedTlsDeparture);
        assert_eq!(r.domain, dn("foo.com"));
        assert_eq!(r.invalidation, d("2022-09-15"));
        assert_eq!(r.fqdns, vec![dn("foo.com")], "bystander + marker excluded");
    }

    #[test]
    fn no_departure_no_records() {
        let psl = SuffixList::default_list();
        let config = ProviderConfig::cloudflare_cruise_liner();
        let detector = ManagedTlsDetector::new(&config, &psl);
        let mut adns = DnsHistory::new();
        adns.record_change(dn("foo.com"), d("2022-01-01"), cf_view());
        let m = monitor(vec![managed_cert(1, &["foo.com"], "2022-03-01", 365)]);
        assert!(detector.detect(&adns, &m, window()).is_empty());
    }

    #[test]
    fn departure_outside_window_ignored() {
        let psl = SuffixList::default_list();
        let config = ProviderConfig::cloudflare_cruise_liner();
        let detector = ManagedTlsDetector::new(&config, &psl);
        let mut adns = DnsHistory::new();
        adns.record_change(dn("foo.com"), d("2022-01-01"), cf_view());
        adns.record_change(dn("foo.com"), d("2022-11-15"), off_view()); // after window
        let m = monitor(vec![managed_cert(1, &["foo.com"], "2022-03-01", 365)]);
        assert!(detector.detect(&adns, &m, window()).is_empty());
    }

    #[test]
    fn cname_departure_detected() {
        let psl = SuffixList::default_list();
        let config = ProviderConfig::cloudflare_cruise_liner();
        let detector = ManagedTlsDetector::new(&config, &psl);
        let mut adns = DnsHistory::new();
        adns.record_change(
            dn("foo.com"),
            d("2022-01-01"),
            DnsView::with_cname([dn("foo.com.cdn.cloudflare.com")]),
        );
        adns.record_change(dn("foo.com"), d("2022-08-20"), off_view());
        let m = monitor(vec![managed_cert(1, &["foo.com"], "2022-03-01", 365)]);
        let records = detector.detect(&adns, &m, window());
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].invalidation, d("2022-08-20"));
    }

    #[test]
    fn non_managed_certs_never_flagged() {
        let psl = SuffixList::default_list();
        let config = ProviderConfig::cloudflare_cruise_liner();
        let detector = ManagedTlsDetector::new(&config, &psl);
        let mut adns = DnsHistory::new();
        adns.record_change(dn("foo.com"), d("2022-01-01"), cf_view());
        adns.record_change(dn("foo.com"), d("2022-09-15"), off_view());
        // Customer-uploaded cert without the marker SAN (§4.3: cannot be
        // distinguished as managed; excluded by design).
        let plain = CertificateBuilder::tls_leaf(KeyPair::from_seed([92; 32]).public())
            .serial(9)
            .issuer_cn("Some CA")
            .subject_cn("foo.com")
            .san(dn("foo.com"))
            .validity_days(d("2022-03-01"), Duration::days(365))
            .sign(&KeyPair::from_seed([93; 32]));
        let m = monitor(vec![plain]);
        assert!(detector.detect(&adns, &m, window()).is_empty());
    }

    #[test]
    fn marker_san_rules() {
        let psl = SuffixList::default_list();
        let config = ProviderConfig::cloudflare_cruise_liner();
        let detector = ManagedTlsDetector::new(&config, &psl);
        assert!(detector.is_marker_san(&dn("sni12345.cloudflaressl.com")));
        assert!(!detector.is_marker_san(&dn("cloudflaressl.com")));
        assert!(!detector.is_marker_san(&dn("www.cloudflaressl.com")));
        assert!(!detector.is_marker_san(&dn("sni1.example.com")));
    }

    #[test]
    fn flapping_delegation_counts_each_departure() {
        let psl = SuffixList::default_list();
        let config = ProviderConfig::cloudflare_cruise_liner();
        let detector = ManagedTlsDetector::new(&config, &psl);
        let mut adns = DnsHistory::new();
        adns.record_change(dn("foo.com"), d("2022-01-01"), cf_view());
        adns.record_change(dn("foo.com"), d("2022-08-10"), off_view());
        adns.record_change(dn("foo.com"), d("2022-09-01"), cf_view());
        adns.record_change(dn("foo.com"), d("2022-10-01"), off_view());
        let departures = detector.departures_for(&adns, &dn("foo.com"), window());
        assert_eq!(departures, vec![d("2022-08-10"), d("2022-10-01")]);
    }
}
