//! The monitor-side CT pipeline: ingest, dedup, filter.
//!
//! §4 of the paper: download all entries from every trusted log,
//! "deduplicate precertificates and issued certificates based on their
//! non-CT components", and "ignore fully qualified domain names that have
//! more than 3K certificates ... since they are either test domains or
//! represent an anomalous case of certificate issuance".

use crate::log::LogPool;
use stale_types::{CertId, Date, DomainName};
use std::collections::btree_map::Entry;
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
///
/// The corpus does not depend on the order entries arrive in:
/// `first_seen` is the earliest timestamp, `entry_count` a sum, a final
/// certificate replaces its precertificate whichever comes first, and a
/// record's FQDNs are counted once, when it is inserted.
#[derive(Default)]
pub struct CtMonitor {
    /// Records are boxed: a B-tree insert then shifts pointers, not
    /// whole records, and the nodes carry no record-sized slack.
    certs: BTreeMap<CertId, Box<DedupedCert>>,
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
        match self.certs.entry(id) {
            Entry::Occupied(slot) => {
                let existing = slot.into_mut();
                existing.entry_count = existing.entry_count.saturating_add(entries);
                existing.first_seen = existing.first_seen.min(timestamp);
                // Prefer keeping the final certificate over the precert.
                if existing.certificate.tbs.is_precert() && !cert.tbs.is_precert() {
                    existing.certificate = cert;
                }
            }
            Entry::Vacant(slot) => {
                for san in cert.tbs.san() {
                    *self.fqdn_counts.entry(san.clone()).or_insert(0) += 1;
                }
                slot.insert(Box::new(DedupedCert {
                    cert_id: id,
                    certificate: cert,
                    first_seen: timestamp,
                    entry_count: entries,
                }));
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
        self.corpus_unfiltered()
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
        self.certs.values().map(|c| &**c)
    }

    /// Look up by dedup id.
    pub fn get(&self, id: &CertId) -> Option<&DedupedCert> {
        self.certs.get(id).map(|c| &**c)
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
    use proptest::prelude::*;
    use stale_types::{domain::dn, Duration};
    use std::collections::BTreeSet;
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

    /// One corpus record as comparable values: id, first sighting, entry
    /// count, precertificate flag and fingerprint.
    type Record = (CertId, Date, usize, bool, [u8; 32]);

    /// The corpus records, the per-FQDN counts and the anomalous-FQDN set.
    fn snapshot(
        monitor: &CtMonitor,
    ) -> (
        Vec<Record>,
        BTreeMap<DomainName, usize>,
        BTreeSet<DomainName>,
    ) {
        let records = monitor
            .corpus_unfiltered()
            .map(|c| {
                let cert = &c.certificate;
                let precert = cert.tbs.is_precert();
                (
                    c.cert_id,
                    c.first_seen,
                    c.entry_count,
                    precert,
                    cert.fingerprint(),
                )
            })
            .collect();
        let counts = monitor.fqdn_counts.clone().into_iter().collect();
        (
            records,
            counts,
            monitor.anomalous_fqdns().into_iter().collect(),
        )
    }

    proptest! {
        #[test]
        fn ingestion_order_does_not_change_the_corpus(
            pairs in prop::collection::vec((0usize..6, 0usize..3, 0usize..3, 0i64..400), 1..20usize),
            stamps in prop::collection::vec(0i64..400, 80),
            keys in prop::collection::vec(any::<u64>(), 80),
        ) {
            const NAMES: [&str; 6] = ["a.com", "b.com", "c.net", "www.a.com", "d.org", "e.com"];
            // Per pair: a precertificate and its final certificate from
            // one profile (SANs drawn from a small pool, so FQDNs are
            // shared), each logged zero to two times at random days.
            let mut entries = Vec::new();
            for (serial, &(name, precerts, finals, start)) in pairs.iter().enumerate() {
                let not_before = d("2021-01-01") + Duration::days(start);
                let profile = CertificateBuilder::tls_leaf(KeyPair::from_seed([60; 32]).public())
                    .serial(serial as u128)
                    .issuer_cn("Test CA")
                    .subject_cn(NAMES[name])
                    .san(dn(NAMES[name]))
                    .san(dn(NAMES[(name + 1) % NAMES.len()]))
                    .validity_days(not_before, Duration::days(90));
                let precert = profile.clone().precert().sign(&ca());
                let final_cert = profile
                    .scts(vec![SignedCertificateTimestamp {
                        log_id: [1; 32],
                        timestamp: not_before,
                    }])
                    .sign(&ca());
                entries.extend(std::iter::repeat_n(precert, precerts));
                entries.extend(std::iter::repeat_n(final_cert, finals));
            }
            let entries: Vec<(Certificate, Date)> = entries
                .into_iter()
                .zip(&stamps)
                .map(|(cert, &day)| (cert, d("2021-01-01") + Duration::days(day)))
                .collect();
            let mut shuffled: Vec<(u64, &(Certificate, Date))> =
                keys.iter().copied().zip(&entries).collect();
            shuffled.sort_by_key(|&(key, _)| key);

            let mut in_order = CtMonitor::new();
            for (cert, day) in &entries {
                in_order.ingest(cert.clone(), *day);
            }
            let mut reordered = CtMonitor::new();
            for (_, (cert, day)) in shuffled {
                reordered.ingest(cert.clone(), *day);
            }
            prop_assert_eq!(snapshot(&in_order), snapshot(&reordered));
            prop_assert_eq!(in_order.raw_count(), entries.len());
        }
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
