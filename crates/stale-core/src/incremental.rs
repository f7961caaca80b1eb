//! Persistent per-shard detector state for incremental (daily) ingestion.
//!
//! The serial detectors re-scan the full ten-year corpus on every run. The
//! types here let each detector instead *accumulate* state day by day —
//! the way the paper's feeds actually arrive (daily CRL downloads, WHOIS
//! snapshots, neighbouring-day aDNS diffs) — and emit [`StaleEvent`]s as
//! soon as a staleness period opens:
//!
//! * [`KcIncremental`] — the §4.1 CRL × CT join as a symmetric hash join:
//!   an `(AKI, serial)` → certificate index on one side, the CRL records
//!   seen so far on the other, each new arrival probing the opposite side.
//! * [`RcIncremental`] — §4.2 with an interned e2LD table: per-domain
//!   creation-date ledgers detect re-registrations locally, and late
//!   arrivals on either side (change or certificate) re-probe the other.
//! * [`MtdIncremental`] — §4.3 as a delegation status machine per scan
//!   target plus an open departure ledger per customer; certificates and
//!   departures pair up regardless of arrival order.
//!
//! These states are the engine's one shard kernel: its batch driver
//! folds the whole window through them at once, its incremental driver
//! and the daemon one day-delta at a time. Each state's `finish()`
//! reconstructs **exactly** the serial detector's output over what was
//! folded, so the deterministic merges produce byte-identical reports
//! (`tests/engine_equivalence.rs` and `tests/incremental_equivalence.rs`
//! assert this). The states are never persisted: folding is
//! deterministic, so a state through day D is a pure function of the
//! world and D, and the engine resumes from a checkpoint by folding the
//! world's feed through D again.

// Slice indexing here runs over routed-feed indices.
// stale-lint: scope(panic-index)

use crate::detector::key_compromise::{self, JoinOutcome, KcLoser, ShardMatch};
use crate::detector::managed_tls::{self, ManagedTlsDetector};
use crate::detector::registrant_change::{self, RegistrantChangeDetector};
use crate::staleness::StaleCertRecord;
use ca::scraper::RevocationRecord;
use ct::monitor::DedupedCert;
use dns::scan::DnsView;
use obs::audit::Provenance;
use serde::{Deserialize, Serialize};
use stale_types::{CertId, Date, DateInterval, DomainName, KeyId, SerialNumber};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use x509::revocation::RevocationReason;

/// A staleness period opening, discovered during incremental ingestion.
///
/// Events are the streaming mode's notification surface: one per
/// newly-discovered (or improved) stale pairing, stamped with the feed day
/// that revealed it. The authoritative report is still `finish()` + merge;
/// events may be revised (key compromise re-pairs a CRL record when a
/// higher `cert_id` duplicate arrives later, exactly like the batch join's
/// insert-overwrite).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StaleEvent {
    /// Feed day on which the pairing became visible.
    pub discovered: Date,
    /// The stale certificate record it opens.
    pub record: StaleCertRecord,
    /// The source record that revealed the pairing (CRL entry, WHOIS
    /// creation, DNS departure) — the same provenance the decision-audit
    /// layer attaches.
    pub provenance: Provenance,
}

/// An interning table for domain names: dense `u32` ids for hash-heavy
/// per-domain state, with the original names recoverable for output.
#[derive(Debug, Default, Clone)]
pub struct DomainInterner {
    ids: HashMap<DomainName, u32>,
    names: Vec<DomainName>,
}

impl DomainInterner {
    /// Empty table.
    pub fn new() -> Self {
        DomainInterner::default()
    }

    /// Id for `domain`, allocating on first sight.
    pub fn intern(&mut self, domain: &DomainName) -> u32 {
        if let Some(id) = self.ids.get(domain) {
            return *id;
        }
        let id = self.names.len() as u32;
        self.names.push(domain.clone());
        self.ids.insert(domain.clone(), id);
        id
    }

    /// Id for the name `name` spells, allocating on first sight; `None`
    /// when it is not a valid domain name. Lets a hot path probe with a
    /// borrowed string and parse only names it has never seen.
    pub fn intern_str(&mut self, name: &str) -> Option<u32> {
        if let Some(id) = self.ids.get(name) {
            return Some(*id);
        }
        let domain = DomainName::parse(name).ok()?;
        Some(self.intern(&domain))
    }

    /// Id for `domain` if already interned.
    pub fn get(&self, domain: &DomainName) -> Option<u32> {
        self.ids.get(domain).copied()
    }

    /// The name behind an id, if the id was ever allocated.
    pub fn name(&self, id: u32) -> Option<&DomainName> {
        self.names.get(id as usize)
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

// ---------------------------------------------------------------------------
// §4.1 key compromise
// ---------------------------------------------------------------------------

/// Incremental CRL × CT join state for one shard.
#[derive(Clone)]
pub struct KcIncremental<'w> {
    cutoff: Date,
    /// `(AKI, serial)` → certificate, max `cert_id` winning ties (the
    /// batch join's insert-overwrite winner over a cert-id-ordered corpus).
    /// Ordered: `finish()` probes it in key order.
    index: BTreeMap<(KeyId, SerialNumber), &'w DedupedCert>,
    /// CRL records seen so far, by global CRL index.
    seen: BTreeMap<usize, &'w RevocationRecord>,
    /// Join key → CRL indexes seen under it (probe side for late certs).
    seen_by_key: HashMap<(KeyId, SerialNumber), Vec<usize>>,
    /// Join key → certificate ids that lost the newest-cert tiebreak
    /// (every key, whether or not a CRL record ever probed it; the
    /// [`KcIncremental::losers`] accessor filters to probed keys).
    losers: BTreeMap<(KeyId, SerialNumber), BTreeSet<CertId>>,
}

impl<'w> KcIncremental<'w> {
    /// Fresh state with the §4.1 revocation-date cutoff.
    pub fn new(cutoff: Date) -> Self {
        KcIncremental {
            cutoff,
            index: BTreeMap::new(),
            seen: BTreeMap::new(),
            seen_by_key: HashMap::new(),
            losers: BTreeMap::new(),
        }
    }

    /// Ingest one day-delta slice: certificates first seen and CRL records
    /// first observed in the range. Emits an event per kept key-compromise
    /// pairing discovered (or improved) by this delta. Item counts
    /// (`detector.kc.*`) go to a write-only [`obs::CounterSink`];
    /// the sink has no read surface, so ingestion cannot depend on what
    /// was recorded.
    pub fn ingest_day_observed(
        &mut self,
        discovered: Date,
        certs: &[&'w DedupedCert],
        crl: &[(usize, &'w RevocationRecord)],
        sink: &dyn obs::CounterSink,
    ) -> Vec<StaleEvent> {
        sink.add("detector.kc.certs", certs.len() as u64);
        sink.add("detector.kc.crl_records", crl.len() as u64);
        let mut events = Vec::new();
        for cert in certs {
            let Some(aki) = cert.certificate.tbs.authority_key_id() else {
                continue;
            };
            let key = (aki, cert.certificate.tbs.serial);
            match self.index.entry(key) {
                Entry::Vacant(slot) => {
                    slot.insert(cert);
                }
                Entry::Occupied(mut slot) => {
                    if slot.get().cert_id > cert.cert_id {
                        // An earlier arrival already wins: this one is a
                        // duplicate-fingerprint loser.
                        self.losers.entry(key).or_default().insert(cert.cert_id);
                        continue;
                    }
                    if slot.get().cert_id < cert.cert_id {
                        self.losers
                            .entry(key)
                            .or_default()
                            .insert(slot.get().cert_id);
                    }
                    slot.insert(cert);
                }
            }
            // This certificate is now the winner: re-probe every CRL
            // record already seen under the key.
            if let Some(indexes) = self.seen_by_key.get(&key) {
                for idx in indexes {
                    let Some(rec) = self.seen.get(idx) else {
                        continue; // seen_by_key and seen are kept in lockstep
                    };
                    push_kc_event(&mut events, discovered, *idx, rec, cert, self.cutoff);
                }
            }
        }
        for (idx, rec) in crl {
            self.seen.insert(*idx, rec);
            self.seen_by_key
                .entry((rec.authority_key_id, rec.serial))
                .or_default()
                .push(*idx);
            if let Some(cert) = self.index.get(&(rec.authority_key_id, rec.serial)) {
                push_kc_event(&mut events, discovered, *idx, rec, cert, self.cutoff);
            }
        }
        sink.add("detector.kc.events", events.len() as u64);
        events
    }

    /// Retained-state size: join-index entries plus CRL records seen.
    /// Observability only (ledger-growth histograms).
    pub fn footprint(&self) -> usize {
        self.index.len() + self.seen.len()
    }

    /// The shard's join matches so far — exactly what
    /// [`key_compromise::join_shard_audited`] returns over the same
    /// certificates and the CRL records seen so far, in CRL-index order.
    pub fn finish(&self) -> Vec<ShardMatch> {
        // The same sort-merge probe the batch shard join runs: the
        // persistent index is already one winner per key in key order,
        // and the records seen so far form the CRL key index.
        let keyed: Vec<((KeyId, SerialNumber), &DedupedCert)> =
            self.index.iter().map(|(&key, &cert)| (key, cert)).collect();
        let crl_keys =
            key_compromise::CrlKeyIndex::from_entries(self.seen.iter().map(|(&i, &r)| (i, r)));
        key_compromise::probe_winners(
            &keyed,
            &crl_keys,
            &|i| self.seen.get(&i).copied(),
            self.cutoff,
        )
    }

    /// Duplicate-fingerprint losers under CRL-probed keys so far, sorted
    /// by key then certificate id — exactly what the batch
    /// [`key_compromise::join_shard_audited`] returns over the same
    /// certificates and the CRL records seen so far. Losers under keys no
    /// CRL record ever probed are not candidates and are withheld the
    /// same way the batch join withholds them.
    pub fn losers(&self) -> Vec<KcLoser> {
        let mut out = Vec::new();
        for ((aki, serial), dup_ids) in &self.losers {
            if !self.seen_by_key.contains_key(&(*aki, *serial)) {
                continue;
            }
            out.extend(dup_ids.iter().map(|id| (*aki, *serial, *id)));
        }
        out
    }
}

fn push_kc_event(
    events: &mut Vec<StaleEvent>,
    discovered: Date,
    crl_index: usize,
    rec: &RevocationRecord,
    cert: &DedupedCert,
    cutoff: Date,
) {
    if rec.reason != RevocationReason::KeyCompromise {
        return;
    }
    if let JoinOutcome::Kept(revoked) = key_compromise::classify(rec, cert, cutoff) {
        events.push(StaleEvent {
            discovered,
            record: revoked.stale_record(),
            provenance: key_compromise::crl_provenance(crl_index, rec),
        });
    }
}

// ---------------------------------------------------------------------------
// §4.2 registrant change
// ---------------------------------------------------------------------------

/// Incremental registrant-change state for one shard.
#[derive(Clone)]
pub struct RcIncremental<'w> {
    /// Interned e2LD table shared by both sides of the join.
    interner: DomainInterner,
    /// e2LD id → certificates naming it (arrival order; the merge sorts).
    certs_by_e2ld: BTreeMap<u32, Vec<&'w DedupedCert>>,
    /// e2LD id → every creation date observed, chronological. Entries
    /// after the first are registrant changes.
    creations: BTreeMap<u32, Vec<Date>>,
    /// Open staleness ledger: the record of every spanning `(change,
    /// certificate)` match discovered so far, appended as the symmetric
    /// join finds it. Keeping the ledger online makes
    /// [`RcIncremental::finish`] an O(matches) copy instead of a full
    /// re-derivation.
    matches: Vec<StaleCertRecord>,
}

impl<'w> RcIncremental<'w> {
    /// Fresh state.
    pub fn new() -> Self {
        RcIncremental {
            interner: DomainInterner::new(),
            certs_by_e2ld: BTreeMap::new(),
            creations: BTreeMap::new(),
            matches: Vec::new(),
        }
    }

    /// The interned e2LD table (shared statistics surface).
    pub fn interner(&self) -> &DomainInterner {
        &self.interner
    }

    /// Ingest one day-delta slice: certificates, each with the SAN e2LDs
    /// this shard owns (the router derives them once per certificate, as
    /// [`RegistrantChangeDetector::cert_e2lds`] spells them),
    /// and WHOIS `(domain, creation)` observations. A second (or later)
    /// creation date for a domain is a registrant change; each new
    /// arrival on either side probes the other, so every spanning
    /// `(change, certificate)` pair is discovered exactly once. Item
    /// counts (`detector.rc.*`) go to a write-only
    /// [`obs::CounterSink`].
    pub fn ingest_day_observed(
        &mut self,
        discovered: Date,
        detector: &RegistrantChangeDetector<'_>,
        certs: &[(&'w DedupedCert, Vec<&str>)],
        whois: &[(&DomainName, Date)],
        sink: &dyn obs::CounterSink,
    ) -> Vec<StaleEvent> {
        sink.add("detector.rc.certs", certs.len() as u64);
        sink.add("detector.rc.whois", whois.len() as u64);
        let mut events = Vec::new();
        for &(cert, ref e2lds) in certs {
            for e2ld in e2lds {
                let Some(id) = self.interner.intern_str(e2ld) else {
                    continue;
                };
                self.certs_by_e2ld.entry(id).or_default().push(cert);
                let (Some(dates), Some(e2ld)) = (self.creations.get(&id), self.interner.name(id))
                else {
                    continue;
                };
                for creation in dates.iter().skip(1) {
                    if let Some(record) = detector.stale_record(e2ld, *creation, cert) {
                        self.matches.push(record.clone());
                        events.push(StaleEvent {
                            discovered,
                            record,
                            provenance: Provenance::WhoisCreation {
                                domain: e2ld.to_string(),
                                created: creation.to_string(),
                            },
                        });
                    }
                }
            }
        }
        for (domain, creation) in whois {
            let id = self.interner.intern(domain);
            let dates = self.creations.entry(id).or_default();
            debug_assert!(
                dates.last().is_none_or(|last| last < creation),
                "whois feed must be chronological per domain"
            );
            dates.push(*creation);
            if dates.len() < 2 {
                continue; // first registration, not a change
            }
            if let Some(certs) = self.certs_by_e2ld.get(&id) {
                for cert in certs {
                    if let Some(record) = detector.stale_record(domain, *creation, cert) {
                        self.matches.push(record.clone());
                        events.push(StaleEvent {
                            discovered,
                            record,
                            provenance: Provenance::WhoisCreation {
                                domain: domain.to_string(),
                                created: creation.to_string(),
                            },
                        });
                    }
                }
            }
        }
        sink.add("detector.rc.events", events.len() as u64);
        events
    }

    /// Retained-state size: indexed e2LD cert lists, creation ledgers and
    /// open matches. Observability only (ledger-growth histograms).
    pub fn footprint(&self) -> usize {
        self.certs_by_e2ld.len() + self.creations.len() + self.matches.len()
    }

    /// All stale records so far, in discovery order. A record carries its
    /// change as `(domain, invalidation)`, which is all
    /// [`registrant_change::merge_shards`] sorts by, so ledger order is
    /// irrelevant. O(matches): the ledger is maintained online by
    /// [`RcIncremental::ingest_day_observed`].
    pub fn finish(&self) -> Vec<StaleCertRecord> {
        self.matches.clone()
    }

    /// Per-candidate audit decisions for everything ingested so far: one
    /// per `(change, certificate)` pair, kept or dropped through
    /// [`registrant_change::rc_decision`]. Emission order is irrelevant;
    /// the engine's audit merge sorts canonically.
    pub fn decisions(&self) -> Vec<obs::audit::Decision> {
        let mut out = Vec::new();
        for (id, dates) in &self.creations {
            if dates.len() < 2 {
                continue;
            }
            let Some(domain) = self.interner.name(*id) else {
                continue;
            };
            let Some(certs) = self.certs_by_e2ld.get(id) else {
                continue;
            };
            for creation in dates.iter().skip(1) {
                for cert in certs {
                    out.push(registrant_change::rc_decision(domain, *creation, cert));
                }
            }
        }
        out
    }
}

impl Default for RcIncremental<'_> {
    fn default() -> Self {
        RcIncremental::new()
    }
}

// ---------------------------------------------------------------------------
// §4.3 managed TLS departure
// ---------------------------------------------------------------------------

/// Incremental managed-TLS-departure state for one shard.
#[derive(Clone)]
pub struct MtdIncremental<'w> {
    /// The aDNS measurement window departures must fall in.
    window: DateInterval,
    /// Scan-target interner for the delegation status machine.
    interner: DomainInterner,
    /// Interned scan target → currently delegated to the provider.
    delegated: BTreeMap<u32, bool>,
    /// Open departure ledgers: customer → departure days (chronological),
    /// kept even before any certificate names the customer.
    departures: BTreeMap<DomainName, Vec<Date>>,
    /// Customer → managed certificates naming it (owned customers only).
    certs_by_customer: BTreeMap<DomainName, Vec<&'w DedupedCert>>,
}

impl<'w> MtdIncremental<'w> {
    /// Fresh state for one measurement window.
    pub fn new(window: DateInterval) -> Self {
        MtdIncremental {
            window,
            interner: DomainInterner::new(),
            delegated: BTreeMap::new(),
            departures: BTreeMap::new(),
            certs_by_customer: BTreeMap::new(),
        }
    }

    /// Ingest one day-delta slice: managed certificates, each with the
    /// non-wildcard customer domains this shard owns (managed
    /// certificates are handed to every shard owning one of their
    /// customers and must only count against those), and DNS change-log
    /// entries (chronological per domain). A delegated → undelegated
    /// transition at day `d` inside the window is a departure at `d` (the
    /// batch neighbouring-day diff sees delegation at `d-1` and none at
    /// `d`). Item counts (`detector.mtd.*`) go to a write-only
    /// [`obs::CounterSink`].
    pub fn ingest_day_observed(
        &mut self,
        discovered: Date,
        detector: &ManagedTlsDetector<'_>,
        certs: &[(&'w DedupedCert, Vec<&DomainName>)],
        dns: &[(Date, &DomainName, &DnsView)],
        sink: &dyn obs::CounterSink,
    ) -> Vec<StaleEvent> {
        sink.add("detector.mtd.certs", certs.len() as u64);
        sink.add("detector.mtd.dns", dns.len() as u64);
        let mut events = Vec::new();
        for &(cert, ref customers) in certs {
            for &domain in customers {
                match self.certs_by_customer.get_mut(domain) {
                    Some(named) => named.push(cert),
                    None => {
                        self.certs_by_customer.insert(domain.clone(), vec![cert]);
                    }
                }
                if let Some(days) = self.departures.get(domain) {
                    for departure in days {
                        if let Some(record) = detector.stale_record(domain, *departure, cert) {
                            events.push(StaleEvent {
                                discovered,
                                record,
                                provenance: managed_tls::departure_provenance(domain, *departure),
                            });
                        }
                    }
                }
            }
        }
        for (date, domain, view) in dns {
            let now = detector.is_delegated(view);
            let id = self.interner.intern(domain);
            let before = self.delegated.insert(id, now).unwrap_or(false);
            // Departure at `date`: the batch scanner compares days
            // (date-1, date), which must both lie inside the window.
            if before && !now && *date > self.window.start && *date < self.window.end {
                self.departures
                    .entry((*domain).clone())
                    .or_default()
                    .push(*date);
                if let Some(certs) = self.certs_by_customer.get(*domain) {
                    for cert in certs {
                        if let Some(record) = detector.stale_record(domain, *date, cert) {
                            events.push(StaleEvent {
                                discovered,
                                record,
                                provenance: managed_tls::departure_provenance(domain, *date),
                            });
                        }
                    }
                }
            }
        }
        sink.add("detector.mtd.events", events.len() as u64);
        events
    }

    /// Retained-state size: delegation states, departure ledgers and
    /// customer cert lists. Observability only (ledger-growth histograms).
    pub fn footprint(&self) -> usize {
        self.delegated.len() + self.departures.len() + self.certs_by_customer.len()
    }

    /// All stale records so far, customers sorted, departures
    /// chronological, certificates by id — the serial
    /// [`ManagedTlsDetector::detect`]'s order over this shard's customers.
    pub fn finish(&self, detector: &ManagedTlsDetector<'_>) -> Vec<StaleCertRecord> {
        let mut records = Vec::new();
        for (domain, certs) in &self.certs_by_customer {
            let Some(days) = self.departures.get(domain) else {
                continue;
            };
            let mut certs = certs.clone();
            certs.sort_by_key(|c| c.cert_id);
            for departure in days {
                for cert in &certs {
                    if let Some(record) = detector.stale_record(domain, *departure, cert) {
                        records.push(record);
                    }
                }
            }
        }
        records
    }

    /// Per-candidate audit decisions for everything ingested so far:
    /// one per `(customer, departure, certificate)` triple
    /// ([`managed_tls::departure_decision`]), or one
    /// `delegation-still-present` drop per certificate of a customer
    /// with no departure ([`managed_tls::still_present_decision`]).
    /// Emission order is irrelevant; the engine's audit merge sorts
    /// canonically.
    pub fn decisions(&self) -> Vec<obs::audit::Decision> {
        let mut out = Vec::new();
        for (domain, certs) in &self.certs_by_customer {
            match self.departures.get(domain) {
                Some(days) if !days.is_empty() => {
                    for departure in days {
                        for cert in certs {
                            out.push(managed_tls::departure_decision(domain, *departure, cert));
                        }
                    }
                }
                _ => {
                    for cert in certs {
                        out.push(managed_tls::still_present_decision(domain, cert));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdn::provider::ProviderConfig;
    use crypto::KeyPair;
    use psl::SuffixList;
    use stale_types::domain::dn;
    use stale_types::Duration;
    use x509::CertificateBuilder;

    fn d(s: &str) -> Date {
        Date::parse(s).unwrap()
    }

    fn interner_roundtrip() -> DomainInterner {
        let mut i = DomainInterner::new();
        assert_eq!(i.intern(&dn("a.com")), 0);
        assert_eq!(i.intern(&dn("b.com")), 1);
        assert_eq!(i.intern(&dn("a.com")), 0);
        i
    }

    #[test]
    fn interner_is_stable_and_recoverable() {
        let i = interner_roundtrip();
        assert_eq!(i.len(), 2);
        assert_eq!(i.name(1), Some(&dn("b.com")));
        assert_eq!(i.name(2), None);
        assert_eq!(i.get(&dn("a.com")), Some(0));
        assert_eq!(i.get(&dn("c.com")), None);
    }

    fn cert(serial: u128, sans: &[&str], nb: &str, days: i64) -> DedupedCert {
        let c = CertificateBuilder::tls_leaf(KeyPair::from_seed([61; 32]).public())
            .serial(serial)
            .issuer_cn("Inc CA")
            .subject_cn(sans[0])
            .sans(sans.iter().map(|s| dn(s)))
            .validity_days(d(nb), Duration::days(days))
            .sign(&KeyPair::from_seed([60; 32]));
        DedupedCert {
            cert_id: c.cert_id(),
            first_seen: c.tbs.not_before(),
            entry_count: 1,
            certificate: c,
        }
    }

    #[test]
    fn rc_pairs_discovered_once_in_either_arrival_order() {
        let psl = SuffixList::default_list();
        let detector = RegistrantChangeDetector::new(&psl);
        let c = cert(1, &["foo.com"], "2021-01-01", 398);
        let e2lds = detector.cert_e2lds(&c);
        let routed = [(&c, e2lds.iter().map(DomainName::as_str).collect())];
        let sink = &obs::NullSink;

        // Change first, then certificate.
        let mut a = RcIncremental::new();
        let foo = dn("foo.com");
        let e1 = a.ingest_day_observed(
            d("2021-06-01"),
            &detector,
            &[],
            &[(&foo, d("2015-01-01")), (&foo, d("2021-06-01"))],
            sink,
        );
        assert!(e1.is_empty(), "no certificate yet");
        let e2 = a.ingest_day_observed(d("2021-06-02"), &detector, &routed, &[], sink);
        assert_eq!(e2.len(), 1);
        assert_eq!(e2[0].record.invalidation, d("2021-06-01"));

        // Certificate first, then change.
        let mut b = RcIncremental::new();
        let e3 = b.ingest_day_observed(d("2021-01-01"), &detector, &routed, &[], sink);
        assert!(e3.is_empty());
        let e4 = b.ingest_day_observed(
            d("2021-06-01"),
            &detector,
            &[],
            &[(&foo, d("2015-01-01")), (&foo, d("2021-06-01"))],
            sink,
        );
        assert_eq!(e4.len(), 1);
        assert_eq!(a.finish().len(), 1);
        assert_eq!(b.finish().len(), 1);
    }

    #[test]
    fn mtd_departure_requires_prior_delegation_and_window() {
        let psl = SuffixList::default_list();
        let config = ProviderConfig::cloudflare_cruise_liner();
        let detector = ManagedTlsDetector::new(&config, &psl);
        let window = DateInterval::new(d("2022-08-01"), d("2022-10-31")).unwrap();
        let on = DnsView::with_ns([dn("anna.ns.cloudflare.com")]);
        let off = DnsView::with_ns([dn("ns1.elsewhere.net")]);
        let foo = dn("foo.com");

        let mut state = MtdIncremental::new(window);
        let c = cert(1, &["sni1.cloudflaressl.com", "foo.com"], "2022-03-01", 365);
        let sink = &obs::NullSink;
        let customer = dn("foo.com");
        state.ingest_day_observed(
            d("2022-03-01"),
            &detector,
            &[(&c, vec![&customer])],
            &[],
            sink,
        );
        // First observation is already off: no departure.
        let e = state.ingest_day_observed(
            d("2022-08-05"),
            &detector,
            &[],
            &[(d("2022-08-05"), &foo, &off)],
            sink,
        );
        assert!(e.is_empty());
        // On, then off inside the window: departure.
        state.ingest_day_observed(
            d("2022-08-10"),
            &detector,
            &[],
            &[(d("2022-08-10"), &foo, &on)],
            sink,
        );
        let e = state.ingest_day_observed(
            d("2022-09-15"),
            &detector,
            &[],
            &[(d("2022-09-15"), &foo, &off)],
            sink,
        );
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].record.invalidation, d("2022-09-15"));
        assert_eq!(state.finish(&detector).len(), 1);
    }
}
