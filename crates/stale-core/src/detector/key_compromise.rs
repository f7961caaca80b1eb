//! §4.1: key compromise via CRL × CT cross-referencing.
//!
//! CRLs carry only `(authority key id, serial, revocation time, reason)`;
//! the certificate bodies come from joining against the CT corpus. The
//! paper's outlier filters are applied in order:
//!
//! 1. drop revocations with no matching CT certificate;
//! 2. drop certificates revoked before becoming valid (0.0006% in the
//!    paper);
//! 3. drop certificates revoked after expiration (0.037%);
//! 4. drop revocations older than 13 months before CRL collection began
//!    (0.16%) — they "do not represent normal certificate revocation
//!    behaviors".
//!
//! Staleness conservatively assumes the revocation was issued as soon as
//! the invalidation event occurred.

// Slice indexing here runs over routed-feed indices.
// stale-lint: scope(panic-index)

use crate::staleness::{StaleCertRecord, StalenessClass};
use ca::scraper::{CrlDataset, RevocationRecord};
use ct::monitor::{CtMonitor, DedupedCert};
use serde::{Deserialize, Serialize};
use stale_types::{CertId, Date, DateInterval, Duration, KeyId, SerialNumber};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use x509::revocation::RevocationReason;

/// How many filtered revocations fell to each §4.1 filter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RevocationFilterStats {
    /// CRL entries scanned.
    pub total: usize,
    /// No matching certificate in CT.
    pub unmatched: usize,
    /// Revoked before `notBefore`.
    pub revoked_before_valid: usize,
    /// Revoked on/after `notAfter`.
    pub revoked_after_expiry: usize,
    /// Revocation date before the cutoff (13 months before collection).
    pub revoked_too_early: usize,
    /// Survived all filters.
    pub kept: usize,
}

/// One revocation joined with its certificate.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RevokedCert {
    /// CT dedup identity.
    pub cert_id: CertId,
    /// Issuing key.
    pub authority_key_id: KeyId,
    /// Serial.
    pub serial: SerialNumber,
    /// Declared reason.
    pub reason: RevocationReason,
    /// Revocation day.
    pub revocation_date: Date,
    /// Certificate validity.
    pub validity: DateInterval,
    /// Issuer common name.
    pub issuer: String,
    /// Certificate SANs.
    pub fqdns: Vec<stale_types::DomainName>,
}

impl RevokedCert {
    /// View this revocation as a key-compromise stale record (invalidation
    /// at the revocation date).
    pub fn stale_record(&self) -> StaleCertRecord {
        StaleCertRecord {
            cert_id: self.cert_id,
            class: StalenessClass::KeyCompromise,
            domain: self
                .fqdns
                .first()
                .cloned()
                .unwrap_or_else(|| stale_types::domain::dn("unknown.invalid")),
            fqdns: self.fqdns.clone(),
            issuer: self.issuer.clone(),
            invalidation: self.revocation_date,
            validity: self.validity,
        }
    }
}

/// The CRL × CT join result.
pub struct RevocationAnalysis {
    /// Joined, filtered revocations (all reasons).
    pub matched: Vec<RevokedCert>,
    /// Filter accounting.
    pub stats: RevocationFilterStats,
    /// The revocation-date cutoff used (13 months before collection).
    pub cutoff: Date,
}

/// Thirteen months, the §4.1 look-back bound.
fn thirteen_months() -> Duration {
    Duration::days(396)
}

/// How a shard classified one `(CRL record, certificate)` pair.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum JoinOutcome {
    /// Revoked before `notBefore` (filter 2).
    RevokedBeforeValid,
    /// Revoked on/after `notAfter` (filter 3).
    RevokedAfterExpiry,
    /// Revocation date before the 13-month cutoff (filter 4).
    RevokedTooEarly,
    /// Survived all filters.
    Kept(RevokedCert),
}

/// A shard-local join hit for one CRL record. The merge step keeps, per
/// CRL index, the match whose `cert_id` is largest — the same winner the
/// serial hash join's insert-overwrite produces over a cert-id-ordered
/// corpus.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardMatch {
    /// Index of the record in `CrlDataset::records()`.
    pub crl_index: usize,
    /// The certificate this shard matched to the record.
    pub cert_id: CertId,
    /// Filter classification of that pair.
    pub outcome: JoinOutcome,
}

/// Classify one `(CRL record, certificate)` pair through the §4.1 filter
/// chain. Both the batch join and the incremental ingest path go through
/// this single function so they cannot disagree.
pub fn classify(rec: &RevocationRecord, cert: &DedupedCert, cutoff: Date) -> JoinOutcome {
    let tbs = &cert.certificate.tbs;
    if rec.revocation_date < tbs.not_before() {
        JoinOutcome::RevokedBeforeValid
    } else if rec.revocation_date >= tbs.not_after() {
        JoinOutcome::RevokedAfterExpiry
    } else if rec.revocation_date < cutoff {
        JoinOutcome::RevokedTooEarly
    } else {
        JoinOutcome::Kept(RevokedCert {
            cert_id: cert.cert_id,
            authority_key_id: rec.authority_key_id,
            serial: rec.serial,
            reason: rec.reason,
            revocation_date: rec.revocation_date,
            validity: tbs.validity,
            issuer: tbs.issuer.common_name.clone(),
            fqdns: tbs.san().to_vec(),
        })
    }
}

/// A duplicate-fingerprint candidate a shard's join discarded: a
/// certificate that shares its `(AKI, serial)` key with a CRL-matched
/// record but lost the newest-cert tiebreak to the shard's winner.
pub type KcLoser = (KeyId, SerialNumber, CertId);

/// The CRL side of the sort-merge join: every `(AKI, serial)` key with
/// its CRL index, globally sorted. Built once per run and probed
/// read-only by every shard, so no shard ever re-scans (or copies) the
/// CRL — the shard cost is `O(c log c + c log R)` in its own
/// certificates `c`, not `O(R)` in the CRL.
#[derive(Debug, Clone, Default)]
pub struct CrlKeyIndex {
    /// `(AKI, serial, CRL index)` sorted ascending.
    keys: Vec<(KeyId, SerialNumber, usize)>,
}

impl CrlKeyIndex {
    /// Index a full CRL dataset.
    pub fn build(crl: &CrlDataset) -> Self {
        Self::from_entries(crl.records().iter().enumerate())
    }

    /// Index an arbitrary `(CRL index, record)` subset — the incremental
    /// path indexes only the records observed so far.
    pub fn from_entries<'r>(
        entries: impl IntoIterator<Item = (usize, &'r RevocationRecord)>,
    ) -> Self {
        let mut keys: Vec<(KeyId, SerialNumber, usize)> = entries
            .into_iter()
            .map(|(i, r)| (r.authority_key_id, r.serial, i))
            .collect();
        keys.sort_unstable();
        CrlKeyIndex { keys }
    }

    /// Number of indexed records.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// The merge loop both join entry points share: probe sorted certificate
/// keys against the sorted CRL key index. `keyed` must be sorted by
/// `(key, cert_id)`; the group winner is the largest `cert_id` per key
/// and the rest become losers when (and only when) some CRL record
/// carries the key. Matches come back in CRL-index order, losers in
/// `(key, cert_id)` order — exactly the hash join's emission orders.
/// Returns `(matches, losers, distinct key count)`.
fn merge_probe<'r>(
    keyed: &[((KeyId, SerialNumber), &DedupedCert)],
    crl_keys: &CrlKeyIndex,
    rec_of: &dyn Fn(usize) -> Option<&'r RevocationRecord>,
    cutoff: Date,
) -> (Vec<ShardMatch>, Vec<KcLoser>, u64) {
    let keys = crl_keys.keys.as_slice();
    let mut matches = Vec::new();
    let mut losers: Vec<KcLoser> = Vec::new();
    let mut groups: u64 = 0;
    let mut i = 0usize;
    let mut cursor = 0usize; // both sides sorted: never re-scan the prefix
    while let Some(&(key, _)) = keyed.get(i) {
        let mut j = i + 1;
        while keyed.get(j).is_some_and(|&(k, _)| k == key) {
            j += 1;
        }
        groups += 1;
        let tail = keys.get(cursor..).unwrap_or_default();
        let lo = cursor + tail.partition_point(|&(k, s, _)| (k, s) < key);
        let run = keys.get(lo..).unwrap_or_default();
        let hi = lo + run.partition_point(|&(k, s, _)| (k, s) == key);
        cursor = hi;
        if lo < hi {
            let probed = keys.get(lo..hi).unwrap_or_default();
            if let Some((last, rest)) = keyed.get(i..j).and_then(<[_]>::split_last) {
                let winner = last.1;
                for &(_, _, crl_index) in probed {
                    if let Some(rec) = rec_of(crl_index) {
                        matches.push(ShardMatch {
                            crl_index,
                            cert_id: winner.cert_id,
                            outcome: classify(rec, winner, cutoff),
                        });
                    }
                }
                // Only keys a CRL record actually probed yield audit
                // candidates; losers on never-probed keys were never
                // considered by the detector.
                losers.extend(rest.iter().map(|(k, c)| (k.0, k.1, c.cert_id)));
            }
        }
        i = j;
    }
    matches.sort_unstable_by_key(|m| m.crl_index);
    (matches, losers, groups)
}

/// Probe one shard's pre-keyed winners against the CRL key index and
/// return the matches in CRL-index order. This is [`merge_probe`] for
/// callers that already dedup'd their key side (the incremental state's
/// persistent index holds one winner per key).
pub(crate) fn probe_winners<'r>(
    keyed: &[((KeyId, SerialNumber), &DedupedCert)],
    crl_keys: &CrlKeyIndex,
    rec_of: &dyn Fn(usize) -> Option<&'r RevocationRecord>,
    cutoff: Date,
) -> Vec<ShardMatch> {
    merge_probe(keyed, crl_keys, rec_of, cutoff).0
}

/// Shard-local half of the §4.1 join: this shard's certificates against
/// the whole CRL. CRL records that match no local certificate produce
/// nothing; the merge step accounts them as unmatched. Also returns the duplicate-fingerprint losers: for every
/// key some CRL record matched, the shard certificates that lost the
/// newest-cert tiebreak. The loser set is a pure function
/// of which certificates share a key, so summed over any sharding it is
/// `certs_with_key - shards_with_key` per key — [`audit_decisions`] adds
/// the `shards_with_key - 1` losing shard winners back at merge time,
/// which is what makes the audit shard-count-invariant.
///
/// Builds a throwaway [`CrlKeyIndex`] and counts nothing; callers that
/// share the index or want the `detector.kc.*` counts use
/// [`join_shard_audited_with`].
pub fn join_shard_audited<'m>(
    certs: impl IntoIterator<Item = &'m DedupedCert>,
    crl: &CrlDataset,
    cutoff: Date,
) -> (Vec<ShardMatch>, Vec<KcLoser>) {
    join_shard_audited_with(certs, crl, &CrlKeyIndex::build(crl), cutoff, &obs::NullSink)
}

/// The §4.1 shard join as a sort-merge over the shard's certificate keys
/// and a shared, pre-sorted CRL key index. Its merge loop is the one the
/// engine's fold finishes with ([`probe_winners`]);
/// [`join_shard_audited_hash`] survives as the independent equivalence
/// oracle.
pub fn join_shard_audited_with<'m>(
    certs: impl IntoIterator<Item = &'m DedupedCert>,
    crl: &CrlDataset,
    crl_keys: &CrlKeyIndex,
    cutoff: Date,
    sink: &dyn obs::CounterSink,
) -> (Vec<ShardMatch>, Vec<KcLoser>) {
    let mut scanned: u64 = 0;
    let mut keyed: Vec<((KeyId, SerialNumber), &DedupedCert)> = Vec::new();
    for cert in certs {
        scanned += 1;
        if let Some(aki) = cert.certificate.tbs.authority_key_id() {
            keyed.push(((aki, cert.certificate.tbs.serial), cert));
        }
    }
    // Max cert_id wins ties, so sorting by (key, cert_id) puts each
    // group's winner last and its losers, already id-sorted, before it.
    keyed.sort_unstable_by_key(|a| (a.0, a.1.cert_id));
    let records = crl.records();
    let (matches, losers, groups) = merge_probe(&keyed, crl_keys, &|i| records.get(i), cutoff);
    sink.add("detector.kc.certs", scanned);
    sink.add("detector.kc.index_keys", groups);
    sink.add("detector.kc.crl_records", records.len() as u64);
    sink.add("detector.kc.matches", matches.len() as u64);
    (matches, losers)
}

/// The original hash join, kept as the independent oracle the sort-merge
/// implementation is byte-compared against: `(AKI, serial)` →
/// certificate with max `cert_id` winning ties, then a full CRL scan
/// probing the map.
pub fn join_shard_audited_hash<'m>(
    certs: impl IntoIterator<Item = &'m DedupedCert>,
    crl: &CrlDataset,
    cutoff: Date,
    sink: &dyn obs::CounterSink,
) -> (Vec<ShardMatch>, Vec<KcLoser>) {
    let mut scanned: u64 = 0;
    let mut index: HashMap<(KeyId, SerialNumber), &DedupedCert> = HashMap::new();
    let mut displaced: BTreeMap<(KeyId, SerialNumber), Vec<CertId>> = BTreeMap::new();
    for cert in certs {
        scanned += 1;
        if let Some(aki) = cert.certificate.tbs.authority_key_id() {
            let key = (aki, cert.certificate.tbs.serial);
            match index.entry(key) {
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(cert);
                }
                std::collections::hash_map::Entry::Occupied(mut slot) => {
                    let loser = if cert.cert_id > slot.get().cert_id {
                        slot.insert(cert).cert_id
                    } else {
                        cert.cert_id
                    };
                    displaced.entry(key).or_default().push(loser);
                }
            }
        }
    }
    sink.add("detector.kc.certs", scanned);
    sink.add("detector.kc.index_keys", index.len() as u64);
    let mut matches = Vec::new();
    let mut matched_keys: BTreeSet<(KeyId, SerialNumber)> = BTreeSet::new();
    for (crl_index, rec) in crl.records().iter().enumerate() {
        let key = (rec.authority_key_id, rec.serial);
        let Some(cert) = index.get(&key) else {
            continue;
        };
        matched_keys.insert(key);
        matches.push(ShardMatch {
            crl_index,
            cert_id: cert.cert_id,
            outcome: classify(rec, cert, cutoff),
        });
    }
    sink.add("detector.kc.crl_records", crl.records().len() as u64);
    sink.add("detector.kc.matches", matches.len() as u64);
    // Only keys a CRL record actually probed yield audit candidates;
    // losers on never-probed keys were never considered by the detector.
    let mut losers: Vec<KcLoser> = Vec::new();
    for (key, mut ids) in displaced {
        if matched_keys.contains(&key) {
            ids.sort();
            losers.extend(ids.into_iter().map(|id| (key.0, key.1, id)));
        }
    }
    (matches, losers)
}

/// The audit provenance of one CRL entry. Shared by the batch decision
/// expansion and the incremental event stream so both stamp identical
/// records.
pub fn crl_provenance(crl_index: usize, rec: &RevocationRecord) -> obs::audit::Provenance {
    obs::audit::Provenance::CrlEntry {
        crl_index: crl_index as u64,
        authority_key_id: rec.authority_key_id.to_string(),
        serial: rec.serial.to_string(),
        revoked: rec.revocation_date.to_string(),
        reason: format!("{:?}", rec.reason),
    }
}

fn kc_decision(
    cert: String,
    verdict: obs::audit::Verdict,
    provenance: obs::audit::Provenance,
) -> obs::audit::Decision {
    obs::audit::Decision {
        detector: obs::audit::Detector::Kc,
        cert,
        verdict,
        provenance,
    }
}

/// Expand the merged §4.1 join into per-candidate audit decisions: one
/// per CRL entry (kept, a date filter, or `crl-unmatched`) plus one
/// `duplicate-fingerprint` drop per corpus certificate that shared a
/// matched key but lost the newest-cert tiebreak — whether it lost
/// inside a shard (`losers`) or its whole shard's winner lost at merge
/// time. The result is a pure function of the corpus, independent of
/// shard count.
pub fn audit_decisions(
    crl: &CrlDataset,
    shards: &[Vec<ShardMatch>],
    losers: &[KcLoser],
) -> Vec<obs::audit::Decision> {
    use obs::audit::{DropReason, Verdict};
    // Per CRL index: the winning match (largest cert_id), as in
    // `merge_shards`. Per key: every shard winner and the smallest
    // matched CRL index (where duplicate drops are attributed).
    let mut best: BTreeMap<usize, &ShardMatch> = BTreeMap::new();
    let mut key_winners: BTreeMap<(KeyId, SerialNumber), BTreeSet<CertId>> = BTreeMap::new();
    let mut key_index: BTreeMap<(KeyId, SerialNumber), usize> = BTreeMap::new();
    for m in shards.iter().flatten() {
        match best.get(&m.crl_index) {
            Some(cur) if cur.cert_id >= m.cert_id => {}
            _ => {
                best.insert(m.crl_index, m);
            }
        }
        if let Some(rec) = crl.records().get(m.crl_index) {
            let key = (rec.authority_key_id, rec.serial);
            key_winners.entry(key).or_default().insert(m.cert_id);
            let slot = key_index.entry(key).or_insert(m.crl_index);
            *slot = (*slot).min(m.crl_index);
        }
    }
    let mut decisions = Vec::new();
    for (crl_index, rec) in crl.records().iter().enumerate() {
        let provenance = crl_provenance(crl_index, rec);
        match best.get(&crl_index) {
            None => decisions.push(kc_decision(
                String::new(),
                Verdict::Dropped(DropReason::CrlUnmatched),
                provenance,
            )),
            Some(m) => {
                let verdict = match &m.outcome {
                    JoinOutcome::RevokedBeforeValid => {
                        Verdict::Dropped(DropReason::RevokedBeforeValid)
                    }
                    JoinOutcome::RevokedAfterExpiry => {
                        Verdict::Dropped(DropReason::RevokedAfterExpiry)
                    }
                    JoinOutcome::RevokedTooEarly => Verdict::Dropped(DropReason::CrlOutlier),
                    JoinOutcome::Kept(_) => Verdict::Kept,
                };
                decisions.push(kc_decision(m.cert_id.to_string(), verdict, provenance));
            }
        }
    }
    // Shard winners that lost the cross-shard tiebreak.
    for (key, winners) in &key_winners {
        let global = winners.iter().max().copied();
        for cert_id in winners {
            if Some(*cert_id) == global {
                continue;
            }
            if let Some((idx, rec)) = key_index
                .get(key)
                .and_then(|&i| crl.records().get(i).map(|r| (i, r)))
            {
                decisions.push(kc_decision(
                    cert_id.to_string(),
                    Verdict::Dropped(DropReason::DuplicateFingerprint),
                    crl_provenance(idx, rec),
                ));
            }
        }
    }
    // Certificates that already lost inside their shard.
    for (aki, serial, cert_id) in losers {
        let key = (*aki, *serial);
        if let Some((idx, rec)) = key_index
            .get(&key)
            .and_then(|&i| crl.records().get(i).map(|r| (i, r)))
        {
            decisions.push(kc_decision(
                cert_id.to_string(),
                Verdict::Dropped(DropReason::DuplicateFingerprint),
                crl_provenance(idx, rec),
            ));
        }
    }
    decisions
}

/// Deterministic merge of shard-local joins: per CRL index keep the match
/// with the largest `cert_id`, tally filter stats, and emit survivors in
/// CRL-record order. `total` is the full CRL length; indexes no shard
/// matched count as unmatched.
pub fn merge_shards(
    total: usize,
    cutoff: Date,
    shards: Vec<Vec<ShardMatch>>,
) -> RevocationAnalysis {
    let mut best: BTreeMap<usize, ShardMatch> = BTreeMap::new();
    for m in shards.into_iter().flatten() {
        match best.get(&m.crl_index) {
            Some(cur) if cur.cert_id >= m.cert_id => {}
            _ => {
                best.insert(m.crl_index, m);
            }
        }
    }
    let mut stats = RevocationFilterStats {
        total,
        ..Default::default()
    };
    stats.unmatched = total - best.len();
    let mut matched = Vec::new();
    for m in best.into_values() {
        match m.outcome {
            JoinOutcome::RevokedBeforeValid => stats.revoked_before_valid += 1,
            JoinOutcome::RevokedAfterExpiry => stats.revoked_after_expiry += 1,
            JoinOutcome::RevokedTooEarly => stats.revoked_too_early += 1,
            JoinOutcome::Kept(cert) => {
                stats.kept += 1;
                matched.push(cert);
            }
        }
    }
    RevocationAnalysis {
        matched,
        stats,
        cutoff,
    }
}

impl RevocationAnalysis {
    /// The revocation-date cutoff for a given first day of CRL collection.
    pub fn cutoff_for(collection_start: Date) -> Date {
        collection_start - thirteen_months()
    }

    /// Join `crl` against `monitor` with the §4.1 filters;
    /// `collection_start` is the first day of CRL collection. This is the
    /// single-shard composition of [`join_shard_audited`] and
    /// [`merge_shards`].
    pub fn run(crl: &CrlDataset, monitor: &CtMonitor, collection_start: Date) -> Self {
        let cutoff = Self::cutoff_for(collection_start);
        let (matches, _) = join_shard_audited(monitor.corpus_unfiltered(), crl, cutoff);
        merge_shards(crl.records().len(), cutoff, vec![matches])
    }

    /// The key-compromise subset as stale certificate records.
    pub fn stale_records(&self) -> Vec<StaleCertRecord> {
        self.matched
            .iter()
            .filter(|r| r.reason == RevocationReason::KeyCompromise)
            .map(RevokedCert::stale_record)
            .collect()
    }

    /// All matched revocations as records (for the Table 4 "Revoked: all"
    /// row), each treated as an invalidation at its revocation date.
    pub fn all_as_records(&self) -> Vec<StaleCertRecord> {
        self.matched.iter().map(RevokedCert::stale_record).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca::scraper::RevocationRecord;
    use crypto::KeyPair;
    use stale_types::domain::dn;
    use x509::CertificateBuilder;

    fn d(s: &str) -> Date {
        Date::parse(s).unwrap()
    }

    fn ca_key() -> KeyPair {
        KeyPair::from_seed([77; 32])
    }

    fn cert(serial: u128, nb: &str, days: i64) -> x509::Certificate {
        CertificateBuilder::tls_leaf(KeyPair::from_seed([78; 32]).public())
            .serial(serial)
            .issuer_cn("Join CA")
            .subject_cn("foo.com")
            .san(dn("foo.com"))
            .validity_days(d(nb), Duration::days(days))
            .sign(&ca_key())
    }

    fn rev(serial: u128, date: &str, reason: RevocationReason) -> RevocationRecord {
        RevocationRecord {
            authority_key_id: KeyId::from_bytes(ca_key().public().key_id()),
            serial: SerialNumber(serial),
            revocation_date: d(date),
            reason,
            observed: d("2022-11-01"),
        }
    }

    fn setup(certs: Vec<x509::Certificate>, revs: Vec<RevocationRecord>) -> RevocationAnalysis {
        let mut monitor = CtMonitor::new();
        for c in certs {
            let date = c.tbs.not_before();
            monitor.ingest(c, date);
        }
        let mut crl = CrlDataset::new();
        for r in revs {
            crl.add(r);
        }
        RevocationAnalysis::run(&crl, &monitor, d("2022-11-01"))
    }

    #[test]
    fn join_matches_and_classifies() {
        let analysis = setup(
            vec![cert(1, "2022-06-01", 398), cert(2, "2022-06-01", 398)],
            vec![
                rev(1, "2022-08-01", RevocationReason::KeyCompromise),
                rev(2, "2022-08-01", RevocationReason::Superseded),
            ],
        );
        assert_eq!(analysis.stats.kept, 2);
        assert_eq!(analysis.matched.len(), 2);
        let kc = analysis.stale_records();
        assert_eq!(kc.len(), 1);
        assert_eq!(kc[0].class, StalenessClass::KeyCompromise);
        assert_eq!(kc[0].invalidation, d("2022-08-01"));
        // Staleness: 398 - 61 days elapsed.
        assert_eq!(kc[0].staleness_days(), Duration::days(398 - 61));
        assert_eq!(analysis.all_as_records().len(), 2);
    }

    #[test]
    fn unmatched_revocations_filtered() {
        let analysis = setup(
            vec![cert(1, "2022-06-01", 398)],
            vec![rev(99, "2022-08-01", RevocationReason::KeyCompromise)],
        );
        assert_eq!(analysis.stats.unmatched, 1);
        assert_eq!(analysis.stats.kept, 0);
    }

    #[test]
    fn revoked_before_valid_filtered() {
        let analysis = setup(
            vec![cert(1, "2022-06-01", 398)],
            vec![rev(1, "2022-05-01", RevocationReason::KeyCompromise)],
        );
        assert_eq!(analysis.stats.revoked_before_valid, 1);
        assert_eq!(analysis.stats.kept, 0);
    }

    #[test]
    fn revoked_after_expiry_filtered() {
        let analysis = setup(
            vec![cert(1, "2020-01-01", 90)],
            vec![rev(1, "2022-08-01", RevocationReason::KeyCompromise)],
        );
        assert_eq!(analysis.stats.revoked_after_expiry, 1);
    }

    #[test]
    fn too_early_revocations_filtered() {
        // Collection starts 2022-11-01; cutoff is 13 months earlier
        // (2021-10-01). A long-lived cert revoked before that is dropped.
        let analysis = setup(
            vec![cert(1, "2021-01-01", 825)],
            vec![rev(1, "2021-06-01", RevocationReason::KeyCompromise)],
        );
        assert_eq!(analysis.cutoff, d("2021-10-01"));
        assert_eq!(analysis.stats.revoked_too_early, 1);
        assert_eq!(analysis.stats.kept, 0);
    }

    #[test]
    fn audit_decisions_cover_every_entry_and_are_shard_invariant() {
        use obs::audit::{AuditReport, DropReason, Verdict};
        // Three certs share serial 1's key (duplicate fingerprints), one
        // matches serial 2, serial 99 is unmatched.
        let certs = vec![
            cert(1, "2022-06-01", 398),
            cert(1, "2022-06-02", 398),
            cert(1, "2022-06-03", 398),
            cert(2, "2022-06-01", 398),
        ];
        let revs = vec![
            rev(1, "2022-08-01", RevocationReason::KeyCompromise),
            rev(2, "2022-08-01", RevocationReason::Superseded),
            rev(99, "2022-08-01", RevocationReason::KeyCompromise),
        ];
        let mut monitor = CtMonitor::new();
        for c in certs {
            let date = c.tbs.not_before();
            monitor.ingest(c, date);
        }
        let mut crl = CrlDataset::new();
        for r in revs {
            crl.add(r);
        }
        let cutoff = RevocationAnalysis::cutoff_for(d("2022-11-01"));
        let corpus: Vec<&DedupedCert> = monitor.corpus_unfiltered().collect();

        let mut reports = Vec::new();
        for split in 1..=3usize {
            let mut shards = Vec::new();
            let mut losers = Vec::new();
            for s in 0..split {
                let part = corpus.iter().copied().skip(s).step_by(split);
                let (m, l) = join_shard_audited(part, &crl, cutoff);
                shards.push(m);
                losers.extend(l);
            }
            let decisions = audit_decisions(&crl, &shards, &losers);
            reports.push(AuditReport::from_decisions(decisions));
        }
        let first = &reports[0];
        for other in &reports[1..] {
            assert_eq!(first, other, "audit differs across shard splits");
        }
        let cov = &first.coverage["kc"];
        assert!(cov.balanced());
        // 3 CRL entries + 2 duplicate-fingerprint cert candidates.
        assert_eq!(cov.candidates, 5);
        assert_eq!(cov.kept, 2);
        assert_eq!(cov.dropped[DropReason::CrlUnmatched.as_str()], 1);
        assert_eq!(cov.dropped[DropReason::DuplicateFingerprint.as_str()], 2);
        // The unmatched entry has no certificate side.
        assert!(first
            .decisions
            .iter()
            .any(|dec| dec.cert.is_empty()
                && dec.verdict == Verdict::Dropped(DropReason::CrlUnmatched)));
    }

    #[test]
    fn boundary_dates() {
        // Revoked exactly on notBefore: kept (not "before valid").
        let a = setup(
            vec![cert(1, "2022-06-01", 398)],
            vec![rev(1, "2022-06-01", RevocationReason::KeyCompromise)],
        );
        assert_eq!(a.stats.kept, 1);
        // Revoked exactly on notAfter: dropped (cert already expired).
        let b = setup(
            vec![cert(1, "2022-01-01", 90)],
            vec![rev(1, "2022-04-01", RevocationReason::KeyCompromise)],
        );
        assert_eq!(b.stats.revoked_after_expiry, 1);
        // Revoked exactly at the cutoff: kept.
        let c = setup(
            vec![cert(1, "2021-09-01", 825)],
            vec![rev(1, "2021-10-01", RevocationReason::KeyCompromise)],
        );
        assert_eq!(c.stats.kept, 1);
    }
}
