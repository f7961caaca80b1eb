//! The monitor-side CT pipeline: ingest, dedup, filter.
//!
//! §4 of the paper: download all entries from every trusted log,
//! "deduplicate precertificates and issued certificates based on their
//! non-CT components", and "ignore fully qualified domain names that have
//! more than 3K certificates ... since they are either test domains or
//! represent an anomalous case of certificate issuance".

use crate::log::LogPool;
use stale_types::{CertId, Date, DomainName};
use std::collections::{BTreeMap, HashMap, HashSet};
use x509::Certificate;

/// The paper's per-FQDN outlier threshold.
pub const FQDN_CERT_CAP: usize = 3000;

/// A deduplicated certificate as the measurement pipeline sees it.
#[derive(Debug, Clone)]
pub struct DedupedCert {
    /// Dedup identity.
    pub cert_id: CertId,
    /// The certificate (final version preferred over precert).
    pub certificate: Certificate,
    /// Earliest log timestamp across the entries that collapsed here.
    pub first_seen: Date,
    /// How many raw log entries collapsed into this record.
    pub entry_count: usize,
}

/// Monitor that aggregates log entries into a deduplicated corpus.
#[derive(Default)]
pub struct CtMonitor {
    certs: BTreeMap<CertId, DedupedCert>,
    /// FQDN → number of deduped certificates naming it.
    fqdn_counts: HashMap<DomainName, usize>,
}

impl CtMonitor {
    /// Empty monitor.
    pub fn new() -> Self {
        CtMonitor::default()
    }

    /// Ingest one certificate observed in a log at `timestamp`.
    pub fn ingest(&mut self, cert: Certificate, timestamp: Date) {
        self.ingest_entries(cert, timestamp, 1);
    }

    /// Ingest `entries` log entries of one certificate, all observed at
    /// `timestamp`: the same as `entries` calls to [`CtMonitor::ingest`],
    /// in one step whatever the count.
    pub fn ingest_entries(&mut self, cert: Certificate, timestamp: Date, entries: usize) {
        if entries == 0 {
            return;
        }
        let id = cert.cert_id();
        match self.certs.get_mut(&id) {
            Some(existing) => {
                existing.entry_count = existing.entry_count.saturating_add(entries);
                existing.first_seen = existing.first_seen.min(timestamp);
                // Prefer keeping the final certificate over the precert.
                if existing.certificate.tbs.is_precert() && !cert.tbs.is_precert() {
                    existing.certificate = cert;
                }
            }
            None => {
                for san in cert.tbs.san() {
                    *self.fqdn_counts.entry(san.clone()).or_insert(0) += 1;
                }
                self.certs.insert(
                    id,
                    DedupedCert {
                        cert_id: id,
                        certificate: cert,
                        first_seen: timestamp,
                        entry_count: entries,
                    },
                );
            }
        }
    }

    /// Ingest every entry of every log in a pool, taking the pool over:
    /// each logged certificate moves into the corpus (or is dropped when
    /// it collapses into one already there) instead of being copied.
    pub fn ingest_pool(&mut self, pool: LogPool) {
        for log in pool.into_logs() {
            for entry in log.into_entries() {
                self.ingest(entry.certificate, entry.timestamp);
            }
        }
    }

    /// FQDNs exceeding the outlier cap.
    pub fn anomalous_fqdns(&self) -> HashSet<DomainName> {
        self.fqdn_counts
            .iter()
            .filter(|(_, &count)| count > FQDN_CERT_CAP)
            .map(|(name, _)| name.clone())
            .collect()
    }

    /// The deduplicated corpus with the per-FQDN outlier filter applied:
    /// certificates naming an anomalous FQDN are dropped.
    pub fn corpus(&self) -> Vec<&DedupedCert> {
        let anomalous = self.anomalous_fqdns();
        self.certs
            .values()
            .filter(|c| {
                anomalous.is_empty()
                    || !c
                        .certificate
                        .tbs
                        .san()
                        .iter()
                        .any(|san| anomalous.contains(san))
            })
            .collect()
    }

    /// The corpus without the outlier filter.
    pub fn corpus_unfiltered(&self) -> impl Iterator<Item = &DedupedCert> {
        self.certs.values()
    }

    /// Look up by dedup id.
    pub fn get(&self, id: &CertId) -> Option<&DedupedCert> {
        self.certs.get(id)
    }

    /// Deduplicated certificate count (before outlier filtering).
    pub fn dedup_count(&self) -> usize {
        self.certs.len()
    }

    /// Raw entries ingested.
    pub fn raw_count(&self) -> usize {
        self.certs.values().map(|c| c.entry_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crypto::KeyPair;
    use stale_types::{domain::dn, Duration};
    use x509::cert::SignedCertificateTimestamp;
    use x509::CertificateBuilder;

    fn d(s: &str) -> Date {
        Date::parse(s).unwrap()
    }

    fn builder(name: &str, serial: u128) -> CertificateBuilder {
        let leaf = KeyPair::from_seed([60; 32]);
        CertificateBuilder::tls_leaf(leaf.public())
            .serial(serial)
            .issuer_cn("Test CA")
            .subject_cn(name)
            .san(dn(name))
            .validity_days(d("2022-01-01"), Duration::days(90))
    }

    fn ca() -> KeyPair {
        KeyPair::from_seed([61; 32])
    }

    #[test]
    fn precert_and_final_collapse() {
        let mut monitor = CtMonitor::new();
        let precert = builder("foo.com", 1).precert().sign(&ca());
        let final_cert = builder("foo.com", 1)
            .scts(vec![SignedCertificateTimestamp {
                log_id: [1; 32],
                timestamp: d("2022-01-01"),
            }])
            .sign(&ca());
        monitor.ingest(precert, d("2022-01-01"));
        monitor.ingest(final_cert.clone(), d("2022-01-02"));
        assert_eq!(monitor.dedup_count(), 1);
        assert_eq!(monitor.raw_count(), 2);
        let rec = monitor.corpus()[0];
        assert_eq!(rec.first_seen, d("2022-01-01"));
        assert!(!rec.certificate.tbs.is_precert(), "final version preferred");
        assert_eq!(rec.entry_count, 2);
    }

    #[test]
    fn final_then_precert_keeps_final() {
        let mut monitor = CtMonitor::new();
        let final_cert = builder("foo.com", 1)
            .scts(vec![SignedCertificateTimestamp {
                log_id: [1; 32],
                timestamp: d("2022-01-01"),
            }])
            .sign(&ca());
        let precert = builder("foo.com", 1).precert().sign(&ca());
        monitor.ingest(final_cert, d("2022-01-02"));
        monitor.ingest(precert, d("2022-01-01"));
        let rec = monitor.corpus()[0];
        assert!(!rec.certificate.tbs.is_precert());
        assert_eq!(
            rec.first_seen,
            d("2022-01-01"),
            "first_seen takes the earlier timestamp"
        );
    }

    #[test]
    fn distinct_serials_do_not_collapse() {
        let mut monitor = CtMonitor::new();
        monitor.ingest(builder("foo.com", 1).sign(&ca()), d("2022-01-01"));
        monitor.ingest(builder("foo.com", 2).sign(&ca()), d("2022-01-01"));
        assert_eq!(monitor.dedup_count(), 2);
    }

    #[test]
    fn fqdn_cap_filters_anomalous_domains() {
        let mut monitor = CtMonitor::new();
        // A "flowers-to-the-world.com" style test domain with >3K certs.
        for i in 0..(FQDN_CERT_CAP + 10) as u128 {
            monitor.ingest(builder("flowers.test.com", i).sign(&ca()), d("2022-01-01"));
        }
        monitor.ingest(builder("normal.com", 999_999).sign(&ca()), d("2022-01-01"));
        assert_eq!(monitor.anomalous_fqdns().len(), 1);
        let corpus = monitor.corpus();
        assert_eq!(corpus.len(), 1);
        assert_eq!(corpus[0].certificate.tbs.san()[0], dn("normal.com"));
        // Unfiltered retains everything.
        assert_eq!(monitor.corpus_unfiltered().count(), FQDN_CERT_CAP + 11);
    }

    #[test]
    fn get_by_id() {
        let mut monitor = CtMonitor::new();
        let cert = builder("foo.com", 5).sign(&ca());
        let id = cert.cert_id();
        monitor.ingest(cert, d("2022-01-01"));
        assert!(monitor.get(&id).is_some());
        assert!(monitor.get(&CertId::from_bytes([0; 32])).is_none());
    }
}
