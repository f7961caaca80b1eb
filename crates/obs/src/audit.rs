//! The decision-audit layer: typed per-detector decisions with
//! provenance, merged into a deterministic corpus-wide audit.
//!
//! The paper's headline numbers rest on silent filters — §5.1 drops
//! outlier CRL entries before the key-compromise join, §4.2 discards
//! WHOIS records outside certificate validity windows, §6 only counts
//! customers whose delegation actually departed, and Table 7 reports CRL
//! *coverage* as a first-class result. This module makes each of those
//! decisions explicit: every candidate a detector considers yields one
//! [`Decision`] — kept, or dropped for a reason from the closed
//! [`DropReason`] enum — carrying the [`Provenance`] that justified it
//! (source CRL entry, WHOIS creation date, or DNS day pair).
//!
//! Like the rest of `stale-obs`, the surface detectors see is
//! write-only: they receive `&dyn` [`DecisionSink`] and can only emit.
//! The engine buffers per-shard streams in an [`AuditLog`], then merges
//! them into an [`AuditReport`] whose decision order is canonical
//! (independent of shard count and thread interleaving) and whose
//! per-detector [`CoverageSummary`] satisfies
//! `candidates == kept + Σ dropped` by construction. The report exports
//! as JSONL (schema [`AUDIT_SCHEMA`] v[`AUDIT_VERSION`], via
//! `repro --audit-out`).
//!
//! The export has one reader, a line pass that holds every rule once:
//! a header of this schema and version; every line a [`Decision`] whose
//! detector carries its own provenance kind, with a lowercase-hex
//! fingerprint (empty only on crl-unmatched entries), well-formed days
//! and a monotone departure day pair; decisions in canonical order
//! (refused, never re-sorted); and a header whose decision count and
//! per-detector coverage equal the lines, balance and name only known
//! detectors and drop reasons. [`AuditReport::from_jsonl`] and
//! [`ExplainIndex::build`] stop at the first violation;
//! [`validate_audit_jsonl`] — what `stale-lint preflight` reports — runs
//! the same pass to completion, so an audit passes preflight exactly
//! when `report`, `explain` and `timeline` load it. The explain sidecar
//! is keyed to the digest of the bytes it was built from.

use crate::faults::{Faults, Stop};
use crate::CounterSink;
use serde::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Schema tag on the JSONL header line.
pub const AUDIT_SCHEMA: &str = "stale-obs-audit";
/// How many candidate fingerprints an ambiguous-prefix error lists
/// before eliding the rest.
pub const AMBIGUOUS_LIST_MAX: usize = 8;
/// Current audit schema version.
pub const AUDIT_VERSION: u32 = 1;

/// Which detector made a decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Detector {
    /// Key compromise (§5): CRL × CT join.
    Kc,
    /// Registrant change (§4): WHOIS creation × CT join.
    Rc,
    /// Managed TLS departure (§6): DNS delegation × CT join.
    Mtd,
}

impl Detector {
    /// All detectors, in canonical (report) order.
    pub const ALL: [Detector; 3] = [Detector::Kc, Detector::Rc, Detector::Mtd];

    /// The lowercase tag used in exports and counter names.
    pub fn as_str(self) -> &'static str {
        match self {
            Detector::Kc => "kc",
            Detector::Rc => "rc",
            Detector::Mtd => "mtd",
        }
    }

    /// Parse an export tag.
    pub fn parse(s: &str) -> Option<Detector> {
        Detector::ALL.iter().copied().find(|d| d.as_str() == s)
    }
}

impl Serialize for Detector {
    fn serialize(&self) -> Value {
        Value::Str(self.as_str().to_string())
    }
}

impl Deserialize for Detector {
    fn deserialize(v: &Value) -> Result<Self, serde::de::Error> {
        match v {
            Value::Str(s) => Detector::parse(s)
                .ok_or_else(|| serde::de::Error::msg(format!("unknown detector {s:?}"))),
            other => Err(serde::de::Error::msg(format!(
                "expected detector string, got {other:?}"
            ))),
        }
    }
}

/// Why a candidate was dropped — a closed enum mirroring the paper's
/// filters. Every variant maps to one paper section (see DESIGN.md §7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DropReason {
    /// §5.1 / Table 7: a CRL entry whose (AKI, serial) matched no
    /// certificate in the CT corpus.
    CrlUnmatched,
    /// §5.1: revocation date precedes the certificate's validity.
    RevokedBeforeValid,
    /// §5.1: revocation date follows the certificate's expiry.
    RevokedAfterExpiry,
    /// §5.1: revocation more than 13 months before collection — the
    /// outlier-CRL filter.
    CrlOutlier,
    /// §5.2: several corpus certificates share the CRL entry's key;
    /// only the newest is analysed, the rest are duplicates.
    DuplicateFingerprint,
    /// §4.2 / §6: the triggering event (WHOIS creation or DNS
    /// departure) falls outside the certificate's validity window.
    OutsideValidityWindow,
    /// §6: the customer's delegation never departed in the collection
    /// window, so its certificates cannot be stale.
    DelegationStillPresent,
}

impl DropReason {
    /// All reasons, in canonical order.
    pub const ALL: [DropReason; 7] = [
        DropReason::CrlUnmatched,
        DropReason::RevokedBeforeValid,
        DropReason::RevokedAfterExpiry,
        DropReason::CrlOutlier,
        DropReason::DuplicateFingerprint,
        DropReason::OutsideValidityWindow,
        DropReason::DelegationStillPresent,
    ];

    /// The kebab-case tag used in exports and counter names.
    pub fn as_str(self) -> &'static str {
        match self {
            DropReason::CrlUnmatched => "crl-unmatched",
            DropReason::RevokedBeforeValid => "revoked-before-valid",
            DropReason::RevokedAfterExpiry => "revoked-after-expiry",
            DropReason::CrlOutlier => "crl-outlier",
            DropReason::DuplicateFingerprint => "duplicate-fingerprint",
            DropReason::OutsideValidityWindow => "outside-validity-window",
            DropReason::DelegationStillPresent => "delegation-still-present",
        }
    }

    /// Parse a kebab-case tag.
    pub fn parse(s: &str) -> Option<DropReason> {
        DropReason::ALL.iter().copied().find(|r| r.as_str() == s)
    }
}

/// Keep or drop. Serialises as `"kept"` or the drop-reason tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The candidate survived every filter.
    Kept,
    /// The candidate was dropped, and why.
    Dropped(DropReason),
}

impl Verdict {
    /// The export tag.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Kept => "kept",
            Verdict::Dropped(reason) => reason.as_str(),
        }
    }
}

impl Serialize for Verdict {
    fn serialize(&self) -> Value {
        Value::Str(self.as_str().to_string())
    }
}

impl Deserialize for Verdict {
    fn deserialize(v: &Value) -> Result<Self, serde::de::Error> {
        match v {
            Value::Str(s) if s == "kept" => Ok(Verdict::Kept),
            Value::Str(s) => DropReason::parse(s)
                .map(Verdict::Dropped)
                .ok_or_else(|| serde::de::Error::msg(format!("unknown drop reason {s:?}"))),
            other => Err(serde::de::Error::msg(format!(
                "expected verdict string, got {other:?}"
            ))),
        }
    }
}

/// The source record that justified a decision. Dates are `YYYY-MM-DD`
/// strings (lexicographic order is chronological order), and the enum is
/// string/integer-only so `stale-obs` stays dependency-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Provenance {
    /// A CRL entry (kc candidates).
    CrlEntry {
        /// Position of the entry in the CRL dataset.
        crl_index: u64,
        /// Issuing authority key id, hex.
        authority_key_id: String,
        /// Certificate serial, hex.
        serial: String,
        /// Revocation date.
        revoked: String,
        /// Revocation reason as recorded on the CRL.
        reason: String,
    },
    /// A WHOIS re-registration event (rc candidates).
    WhoisCreation {
        /// The re-registered e2LD.
        domain: String,
        /// The new WHOIS creation date.
        created: String,
    },
    /// A DNS delegation departure day pair (mtd candidates).
    DnsDeparture {
        /// The customer domain that left the managed platform.
        customer: String,
        /// Last day the delegation was observed.
        last_delegated: String,
        /// First day it was gone.
        departed: String,
    },
    /// A delegation that never departed (mtd drop provenance).
    DnsDelegated {
        /// The customer domain still on the platform.
        customer: String,
    },
}

impl Provenance {
    /// The `kind` tag used in exports.
    pub fn kind(&self) -> &'static str {
        match self {
            Provenance::CrlEntry { .. } => "crl-entry",
            Provenance::WhoisCreation { .. } => "whois-creation",
            Provenance::DnsDeparture { .. } => "dns-departure",
            Provenance::DnsDelegated { .. } => "dns-delegated",
        }
    }
}

impl Serialize for Provenance {
    fn serialize(&self) -> Value {
        let kind = ("kind".to_string(), Value::Str(self.kind().to_string()));
        let s = |v: &str| Value::Str(v.to_string());
        match self {
            Provenance::CrlEntry {
                crl_index,
                authority_key_id,
                serial,
                revoked,
                reason,
            } => Value::Obj(vec![
                kind,
                ("crl_index".to_string(), Value::UInt(u128::from(*crl_index))),
                ("authority_key_id".to_string(), s(authority_key_id)),
                ("serial".to_string(), s(serial)),
                ("revoked".to_string(), s(revoked)),
                ("reason".to_string(), s(reason)),
            ]),
            Provenance::WhoisCreation { domain, created } => Value::Obj(vec![
                kind,
                ("domain".to_string(), s(domain)),
                ("created".to_string(), s(created)),
            ]),
            Provenance::DnsDeparture {
                customer,
                last_delegated,
                departed,
            } => Value::Obj(vec![
                kind,
                ("customer".to_string(), s(customer)),
                ("last_delegated".to_string(), s(last_delegated)),
                ("departed".to_string(), s(departed)),
            ]),
            Provenance::DnsDelegated { customer } => {
                Value::Obj(vec![kind, ("customer".to_string(), s(customer))])
            }
        }
    }
}

impl Deserialize for Provenance {
    fn deserialize(v: &Value) -> Result<Self, serde::de::Error> {
        let kind: String = serde::de::field(v, "kind")?;
        match kind.as_str() {
            "crl-entry" => Ok(Provenance::CrlEntry {
                crl_index: serde::de::field(v, "crl_index")?,
                authority_key_id: serde::de::field(v, "authority_key_id")?,
                serial: serde::de::field(v, "serial")?,
                revoked: serde::de::field(v, "revoked")?,
                reason: serde::de::field(v, "reason")?,
            }),
            "whois-creation" => Ok(Provenance::WhoisCreation {
                domain: serde::de::field(v, "domain")?,
                created: serde::de::field(v, "created")?,
            }),
            "dns-departure" => Ok(Provenance::DnsDeparture {
                customer: serde::de::field(v, "customer")?,
                last_delegated: serde::de::field(v, "last_delegated")?,
                departed: serde::de::field(v, "departed")?,
            }),
            "dns-delegated" => Ok(Provenance::DnsDelegated {
                customer: serde::de::field(v, "customer")?,
            }),
            other => Err(serde::de::Error::msg(format!(
                "unknown provenance kind {other:?}"
            ))),
        }
    }
}

/// One detector decision about one candidate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Decision {
    /// Which detector decided.
    pub detector: Detector,
    /// Certificate fingerprint (full lowercase hex). Empty only for
    /// unmatched CRL entries, which have no certificate side.
    pub cert: String,
    /// Kept or dropped (and why).
    pub verdict: Verdict,
    /// The source record that justified the decision.
    pub provenance: Provenance,
}

impl Decision {
    /// The canonical sort key: detector section (kc, rc, mtd), then the
    /// provenance's natural order, then the fingerprint. Sorting by this
    /// key makes a merged audit independent of shard count and thread
    /// interleaving.
    pub fn sort_key(&self) -> (u8, u64, &str, &str, &str) {
        let rank = match self.detector {
            Detector::Kc => 0,
            Detector::Rc => 1,
            Detector::Mtd => 2,
        };
        match &self.provenance {
            Provenance::CrlEntry { crl_index, .. } => (rank, *crl_index, "", "", &self.cert),
            Provenance::WhoisCreation { domain, created } => (rank, 0, domain, created, &self.cert),
            Provenance::DnsDeparture {
                customer, departed, ..
            } => (rank, 0, customer, departed, &self.cert),
            Provenance::DnsDelegated { customer } => (rank, 0, customer, "", &self.cert),
        }
    }
}

/// Write-only decision sink. Detector code receives `&dyn DecisionSink`
/// and can only emit; nothing recorded is readable from inside a
/// detector, so the byte-identical-results invariant stays structural.
pub trait DecisionSink: Sync {
    /// Record one decision.
    fn decision(&self, d: Decision);
}

/// A sink that drops everything — the default when auditing is off.
pub struct NullDecisionSink;

impl DecisionSink for NullDecisionSink {
    fn decision(&self, _d: Decision) {}
}

/// An in-memory decision buffer. Cloning shares the buffer; the engine
/// gives each shard attempt a fresh log so a panicked attempt's partial
/// stream is discarded with it.
#[derive(Clone, Default)]
pub struct AuditLog {
    inner: Arc<Mutex<Vec<Decision>>>,
}

impl AuditLog {
    /// An empty log.
    pub fn new() -> AuditLog {
        AuditLog::default()
    }

    /// Take every buffered decision, leaving the log empty.
    pub fn drain(&self) -> Vec<Decision> {
        let mut buf = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        std::mem::take(&mut *buf)
    }
}

impl DecisionSink for AuditLog {
    fn decision(&self, d: Decision) {
        let mut buf = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        buf.push(d);
    }
}

/// Per-detector candidate accounting. The identity
/// `candidates == kept + Σ dropped` holds by construction when built
/// through [`AuditReport::from_decisions`], and the audit's reader
/// re-checks it on every export it loads.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CoverageSummary {
    /// Candidates the detector considered.
    pub candidates: u64,
    /// Candidates that survived every filter.
    pub kept: u64,
    /// Dropped candidates by reason tag.
    pub dropped: BTreeMap<String, u64>,
}

impl CoverageSummary {
    /// Total dropped across all reasons.
    pub fn dropped_total(&self) -> u64 {
        self.dropped.values().sum()
    }

    /// Whether `candidates == kept + Σ dropped`.
    pub fn balanced(&self) -> bool {
        self.candidates == self.kept + self.dropped_total()
    }
}

/// The JSONL header line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditHeader {
    /// Always [`AUDIT_SCHEMA`].
    pub schema: String,
    /// Always [`AUDIT_VERSION`].
    pub version: u32,
    /// Number of decision lines that follow.
    pub decisions: usize,
    /// Per-detector coverage, keyed by detector tag.
    pub coverage: BTreeMap<String, CoverageSummary>,
}

/// The merged, canonically ordered audit of one engine run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditReport {
    /// Per-detector coverage, keyed by detector tag.
    pub coverage: BTreeMap<String, CoverageSummary>,
    /// Every decision, in canonical order.
    pub decisions: Vec<Decision>,
}

impl AuditReport {
    /// Build a report from an unordered decision stream: sort into
    /// canonical order and tally coverage.
    pub fn from_decisions(mut decisions: Vec<Decision>) -> AuditReport {
        decisions.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        let mut coverage = seeded_coverage();
        for d in &decisions {
            count(&mut coverage, d);
        }
        AuditReport {
            coverage,
            decisions,
        }
    }

    /// Decisions about one certificate, by fingerprint prefix. Returns
    /// the full fingerprint and its decision chain when the prefix is
    /// unambiguous. An ambiguous prefix errors with the matching
    /// fingerprints listed (capped at [`AMBIGUOUS_LIST_MAX`]), so the
    /// caller can extend the prefix instead of guessing.
    pub fn decisions_for(&self, prefix: &str) -> Result<(String, Vec<&Decision>), String> {
        let matching: BTreeSet<&str> = self
            .decisions
            .iter()
            .filter(|d| !d.cert.is_empty() && d.cert.starts_with(prefix))
            .map(|d| d.cert.as_str())
            .collect();
        let cert = resolve_fingerprint_prefix(prefix, &matching, "decision")?.to_string();
        let chain = self
            .decisions
            .iter()
            .filter(|d| d.cert == cert)
            .collect::<Vec<_>>();
        Ok((cert, chain))
    }

    /// Build a fingerprint → decision-index map over [`decisions`]
    /// (`AuditReport::decisions`). Resident query loops (`stale-served`)
    /// cache this so per-fingerprint lookups stop scanning every
    /// decision; invalidate whenever the report is rebuilt.
    pub fn fingerprint_index(&self) -> BTreeMap<String, Vec<usize>> {
        let mut map: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, d) in self.decisions.iter().enumerate() {
            if !d.cert.is_empty() {
                map.entry(d.cert.clone()).or_default().push(i);
            }
        }
        map
    }

    /// [`decisions_for`](AuditReport::decisions_for) served from a
    /// prebuilt [`fingerprint_index`](AuditReport::fingerprint_index):
    /// prefix resolution is a range scan over the index keys instead of
    /// a pass over every decision. Byte-identical results and errors.
    pub fn decisions_for_indexed<'a>(
        &'a self,
        index: &BTreeMap<String, Vec<usize>>,
        prefix: &str,
    ) -> Result<(String, Vec<&'a Decision>), String> {
        let cert = resolve_in(index, prefix)?.to_string();
        let chain = index
            .get(&cert)
            .map(Vec::as_slice)
            .unwrap_or_default()
            .iter()
            .filter_map(|&i| self.decisions.get(i))
            .collect();
        Ok((cert, chain))
    }

    /// Render the decision chain for one certificate (the `stale-bench
    /// explain` body).
    pub fn render_explain(&self, prefix: &str) -> Result<String, String> {
        let (cert, chain) = self.decisions_for(prefix)?;
        Ok(render_explain_chain(&cert, &chain))
    }

    /// [`render_explain`](AuditReport::render_explain) through a cached
    /// [`fingerprint_index`](AuditReport::fingerprint_index).
    pub fn render_explain_indexed(
        &self,
        index: &BTreeMap<String, Vec<usize>>,
        prefix: &str,
    ) -> Result<String, String> {
        let (cert, chain) = self.decisions_for_indexed(index, prefix)?;
        Ok(render_explain_chain(&cert, &chain))
    }

    /// Render the corpus-wide data-quality summary (the `stale-bench
    /// report --audit` body): per-detector coverage plus a Table-7-style
    /// CRL-coverage readout.
    pub fn render_coverage(&self) -> String {
        let mut out = String::from("decision audit coverage\n");
        out.push_str("  detector  candidates        kept     dropped\n");
        for det in Detector::ALL {
            let cov = self.coverage.get(det.as_str()).cloned().unwrap_or_default();
            out.push_str(&format!(
                "  {:<8}  {:>10}  {:>10}  {:>10}\n",
                det.as_str(),
                cov.candidates,
                cov.kept,
                cov.dropped_total(),
            ));
            for (reason, n) in &cov.dropped {
                out.push_str(&format!("              {reason:<28} {n:>10}\n"));
            }
        }
        // Table-7-style CRL coverage: of the CRL entries themselves (the
        // duplicate-fingerprint drops are extra certificate candidates on
        // top of the entry count), how many matched a corpus cert?
        if let Some(kc) = self.coverage.get(Detector::Kc.as_str()) {
            let dups = kc
                .dropped
                .get(DropReason::DuplicateFingerprint.as_str())
                .copied()
                .unwrap_or(0);
            let unmatched = kc
                .dropped
                .get(DropReason::CrlUnmatched.as_str())
                .copied()
                .unwrap_or(0);
            let entries = kc.candidates.saturating_sub(dups);
            let matched = entries.saturating_sub(unmatched);
            let pct = if entries == 0 {
                0.0
            } else {
                100.0 * matched as f64 / entries as f64
            };
            out.push_str(&format!(
                "  crl coverage: {matched}/{entries} entries matched a corpus cert ({pct:.1}%)\n"
            ));
        }
        out
    }

    /// Register the coverage gauges on a metrics sink:
    /// `audit.<detector>.candidates`, `.kept`, and
    /// `.dropped.<reason>`.
    pub fn register_coverage(&self, sink: &dyn CounterSink) {
        for (det, cov) in &self.coverage {
            sink.add(&format!("audit.{det}.candidates"), cov.candidates);
            sink.add(&format!("audit.{det}.kept"), cov.kept);
            for (reason, n) in &cov.dropped {
                sink.add(&format!("audit.{det}.dropped.{reason}"), *n);
            }
        }
    }

    /// Export as JSONL: an [`AuditHeader`] line, then one decision per
    /// line, in canonical order.
    // stale-lint: entry(serial)
    pub fn to_jsonl(&self) -> String {
        let header = AuditHeader {
            schema: AUDIT_SCHEMA.to_string(),
            version: AUDIT_VERSION,
            decisions: self.decisions.len(),
            coverage: self.coverage.clone(),
        };
        let mut out = serde_json::to_string(&header).unwrap_or_default();
        out.push('\n');
        for d in &self.decisions {
            out.push_str(&serde_json::to_string(d).unwrap_or_default());
            out.push('\n');
        }
        out
    }

    /// Parse a JSONL export back into a report — the audit's one reader
    /// (module docs list its rules). Fails with the first violated rule;
    /// decisions out of canonical order are refused, never re-sorted.
    pub fn from_jsonl(text: &str) -> Result<AuditReport, String> {
        let mut faults = Faults::stop_at_first();
        let mut decisions = Vec::new();
        let coverage = read_lines(text, &mut faults, |_, d| decisions.push(d));
        faults.verdict(coverage).map(|coverage| AuditReport {
            coverage,
            decisions,
        })
    }
}

/// Every detector at zero, so a tally keeps all three sections.
fn seeded_coverage() -> BTreeMap<String, CoverageSummary> {
    Detector::ALL
        .iter()
        .map(|det| (det.as_str().to_string(), CoverageSummary::default()))
        .collect()
}

/// Count one decision into a [`seeded_coverage`] table.
fn count(coverage: &mut BTreeMap<String, CoverageSummary>, d: &Decision) {
    let Some(cov) = coverage.get_mut(d.detector.as_str()) else {
        return;
    };
    cov.candidates += 1;
    match d.verdict {
        Verdict::Kept => cov.kept += 1,
        Verdict::Dropped(reason) => match cov.dropped.get_mut(reason.as_str()) {
            Some(n) => *n += 1,
            None => {
                cov.dropped.insert(reason.as_str().to_string(), 1);
            }
        },
    }
}

/// Resolve a fingerprint prefix against the sorted set of matching
/// full fingerprints, which `source` names ("decision" for an audit).
/// Shared by the in-memory scan, the cached in-memory index, the on-disk
/// [`ExplainIndex`] and the world log's timeline, so all produce
/// byte-identical errors.
pub fn resolve_fingerprint_prefix<'a>(
    prefix: &str,
    matching: &BTreeSet<&'a str>,
    source: &str,
) -> Result<&'a str, String> {
    if prefix.is_empty() {
        return Err("empty fingerprint".to_string());
    }
    let mut certs = matching.iter();
    match (certs.next(), certs.next()) {
        (None, _) => Err(format!("no {source} mentions fingerprint {prefix:?}")),
        (Some(cert), None) => Ok(cert),
        (Some(_), Some(_)) => {
            let mut msg = format!(
                "fingerprint prefix {prefix:?} is ambiguous ({} matches):",
                matching.len()
            );
            for cert in matching.iter().take(AMBIGUOUS_LIST_MAX) {
                msg.push_str(&format!("\n  {cert}"));
            }
            if matching.len() > AMBIGUOUS_LIST_MAX {
                msg.push_str(&format!(
                    "\n  ... and {} more",
                    matching.len() - AMBIGUOUS_LIST_MAX
                ));
            }
            Err(msg)
        }
    }
}

/// [`resolve_fingerprint_prefix`] over the keys of a fingerprint-keyed
/// index, scanning only the keys inside the prefix's range.
fn resolve_in<'m, V>(index: &'m BTreeMap<String, V>, prefix: &str) -> Result<&'m str, String> {
    let matching: BTreeSet<&str> = index
        .range(prefix.to_string()..)
        .take_while(|(k, _)| k.starts_with(prefix))
        .map(|(k, _)| k.as_str())
        .collect();
    resolve_fingerprint_prefix(prefix, &matching, "decision")
}

/// Render one certificate's decision chain (the `stale-bench explain`
/// body). Shared by every explain surface so offset-backed and
/// in-memory lookups stay byte-identical.
pub fn render_explain_chain(cert: &str, chain: &[&Decision]) -> String {
    let mut out = format!("fingerprint {cert}\n");
    out.push_str(&format!("decisions   {}\n", chain.len()));
    for d in chain {
        out.push_str(&format!(
            "  [{}] {:24} {}\n",
            d.detector.as_str(),
            d.verdict.as_str(),
            render_provenance(&d.provenance)
        ));
    }
    out
}

/// Schema tag on the first line of a persisted explain index.
pub const EXPLAIN_INDEX_SCHEMA: &str = "stale-obs-audit-index";
/// Current explain-index format version (2: keyed to the audit's
/// content digest, not only its length).
pub const EXPLAIN_INDEX_VERSION: u32 = 2;

/// A persistent fingerprint → byte-offset index over an audit JSONL
/// export, so `explain` lookups read only the decision lines for one
/// certificate instead of parsing the whole store.
///
/// It is only built through the audit's reader, and it remembers the
/// length and FNV-1a digest ([`crate::fnv1a64`]) of the bytes it was
/// built from: [`matches`](ExplainIndex::matches) rechecks both, so any
/// rewrite of the audit, even one keeping its length, invalidates a
/// sidecar. The sidecar is a plain text table (header line, then one
/// `fingerprint off off…` line per certificate), never taken for JSONL.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainIndex {
    /// Byte length of the source JSONL this index was built from.
    pub source_bytes: u64,
    /// FNV-1a digest of the source JSONL's bytes.
    pub source_digest: u64,
    /// fingerprint → byte offsets of its decision lines, in canonical
    /// (file) order.
    pub entries: BTreeMap<String, Vec<u64>>,
}

impl ExplainIndex {
    /// Build an index over an audit JSONL export, through the audit's
    /// reader: an export [`AuditReport::from_jsonl`] refuses is refused
    /// with the same violation. Decision lines with an empty fingerprint
    /// (unmatched CRL entries) are not indexed.
    pub fn build(jsonl: &str) -> Result<ExplainIndex, String> {
        let mut faults = Faults::stop_at_first();
        let mut entries: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        let read = read_lines(jsonl, &mut faults, |offset, d| {
            if !d.cert.is_empty() {
                entries.entry(d.cert).or_default().push(offset);
            }
        });
        faults.verdict(read)?;
        Ok(ExplainIndex {
            source_bytes: jsonl.len() as u64,
            source_digest: crate::fnv1a64(jsonl.as_bytes()),
            entries,
        })
    }

    /// Whether this index was built from exactly these bytes: same
    /// length, same digest.
    pub fn matches(&self, jsonl: &str) -> bool {
        self.source_bytes == jsonl.len() as u64
            && self.source_digest == crate::fnv1a64(jsonl.as_bytes())
    }

    /// Render the explain body for `prefix`, decoding only the indexed
    /// decision lines out of `jsonl` with the reader's line decoder:
    /// byte-identical to [`AuditReport::render_explain`] on a store this
    /// index [`matches`](ExplainIndex::matches) (the digest is not
    /// recomputed here). A store of another length is refused as stale,
    /// and an offset whose line names another certificate is an error.
    pub fn render_explain_from(&self, jsonl: &str, prefix: &str) -> Result<String, String> {
        if self.source_bytes != jsonl.len() as u64 {
            return Err(format!(
                "explain index is stale: built over {} bytes, store is {}",
                self.source_bytes,
                jsonl.len()
            ));
        }
        let cert = resolve_in(&self.entries, prefix)?;
        let offsets = self
            .entries
            .get(cert)
            .map(Vec::as_slice)
            .unwrap_or_default();
        let mut chain = Vec::with_capacity(offsets.len());
        for &off in offsets {
            let rest = jsonl
                .get(off as usize..)
                .ok_or_else(|| format!("explain index offset {off} is past end of store"))?;
            let line = rest.lines().next().unwrap_or_default();
            let d =
                decode_decision(line).map_err(|e| format!("explain index offset {off}: {e}"))?;
            if d.cert != cert {
                return Err(format!(
                    "explain index offset {off} holds a decision for {:?}, not {cert:?}",
                    d.cert
                ));
            }
            chain.push(d);
        }
        let refs: Vec<&Decision> = chain.iter().collect();
        Ok(render_explain_chain(cert, &refs))
    }

    /// Serialize to the sidecar text format.
    // stale-lint: entry(serial)
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "{EXPLAIN_INDEX_SCHEMA} v{EXPLAIN_INDEX_VERSION} bytes={} fnv1a={:016x} certs={}\n",
            self.source_bytes,
            self.source_digest,
            self.entries.len()
        );
        for (cert, offsets) in &self.entries {
            out.push_str(cert);
            for off in offsets {
                out.push_str(&format!(" {off}"));
            }
            out.push('\n');
        }
        out
    }

    /// The sidecar path of the audit export at `audit`: `{audit}.idx`.
    pub fn sidecar_path(audit: &Path) -> PathBuf {
        let mut name = audit.as_os_str().to_os_string();
        name.push(".idx");
        PathBuf::from(name)
    }

    /// The index of the audit export at `audit`, whose contents are
    /// `jsonl`: its sidecar when that parses and matches these bytes, else
    /// a fresh build through the audit's reader, written back best-effort.
    /// A stale, older or unreadable sidecar is rebuilt, never trusted and
    /// never fatal; the only error is the reader's refusal of the audit.
    pub fn load_or_build(audit: &Path, jsonl: &str) -> Result<ExplainIndex, String> {
        if let Some(index) = std::fs::read_to_string(Self::sidecar_path(audit))
            .ok()
            .and_then(|t| ExplainIndex::parse(&t).ok())
            .filter(|i| i.matches(jsonl))
        {
            return Ok(index);
        }
        let index = ExplainIndex::build(jsonl)?;
        let _ = index
            .stage_sidecar(audit)
            .and_then(crate::persist::StagedFile::commit);
        Ok(index)
    }

    /// This index as the sidecar of the audit export at `audit`, written
    /// crash-safely ([`crate::persist`]): synced beside the current
    /// sidecar, which stays in place until
    /// [`commit`](crate::persist::StagedFile::commit), so an interrupted
    /// write leaves the previous sidecar or the new one, never a torn
    /// file.
    pub fn stage_sidecar(&self, audit: &Path) -> std::io::Result<crate::persist::StagedFile> {
        crate::persist::stage(&Self::sidecar_path(audit), self.to_text().as_bytes())
    }

    /// Parse a sidecar produced by [`to_text`](ExplainIndex::to_text).
    pub fn parse(text: &str) -> Result<ExplainIndex, String> {
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or("empty explain index")?;
        let fields = header
            .strip_prefix(&format!("{EXPLAIN_INDEX_SCHEMA} v{EXPLAIN_INDEX_VERSION} "))
            .ok_or_else(|| {
                format!("not a {EXPLAIN_INDEX_SCHEMA} v{EXPLAIN_INDEX_VERSION} index")
            })?;
        let field = |name: &str| {
            fields
                .split_whitespace()
                .find_map(|f| f.strip_prefix(name))
                .ok_or_else(|| format!("explain index header missing {name}"))
        };
        let source_bytes = field("bytes=")?
            .parse::<u64>()
            .map_err(|e| format!("bytes: {e}"))?;
        let source_digest =
            u64::from_str_radix(field("fnv1a=")?, 16).map_err(|e| format!("fnv1a: {e}"))?;
        let certs = field("certs=")?
            .parse::<usize>()
            .map_err(|e| format!("certs: {e}"))?;
        let mut entries: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        for (i, line) in lines.filter(|(_, line)| !line.trim().is_empty()) {
            let mut fields = line.split_whitespace();
            let cert = fields.next().unwrap_or_default().to_string();
            let offsets = fields
                .map(|f| {
                    f.parse::<u64>()
                        .map_err(|e| format!("line {}: offset {f:?}: {e}", i + 1))
                })
                .collect::<Result<Vec<u64>, String>>()?;
            if offsets.is_empty() {
                return Err(format!("line {}: malformed index entry", i + 1));
            }
            if entries.insert(cert.clone(), offsets).is_some() {
                return Err(format!("line {}: duplicate fingerprint {cert:?}", i + 1));
            }
        }
        if entries.len() != certs {
            return Err(format!(
                "explain index header claims {certs} certs, found {}",
                entries.len()
            ));
        }
        Ok(ExplainIndex {
            source_bytes,
            source_digest,
            entries,
        })
    }
}

/// One-line human rendering of a provenance record.
pub fn render_provenance(p: &Provenance) -> String {
    match p {
        Provenance::CrlEntry {
            crl_index,
            authority_key_id,
            serial,
            revoked,
            reason,
        } => format!(
            "crl entry #{crl_index} aki={authority_key_id} serial={serial} revoked={revoked} reason={reason}"
        ),
        Provenance::WhoisCreation { domain, created } => {
            format!("whois creation {domain} created={created}")
        }
        Provenance::DnsDeparture {
            customer,
            last_delegated,
            departed,
        } => format!(
            "dns departure {customer} last_delegated={last_delegated} departed={departed}"
        ),
        Provenance::DnsDelegated { customer } => {
            format!("dns delegation still present for {customer}")
        }
    }
}

fn is_day(s: &str) -> bool {
    let b = s.as_bytes();
    b.len() == 10
        && b.iter().enumerate().all(|(i, c)| match i {
            4 | 7 => *c == b'-',
            _ => c.is_ascii_digit(),
        })
}

fn is_hex(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
}

/// The per-line rules of the audit's reader (module docs list them).
fn check_decision(d: &Decision, lineno: usize, faults: &mut Faults) -> Result<(), Stop> {
    let kind_ok = matches!(
        (d.detector, &d.provenance),
        (Detector::Kc, Provenance::CrlEntry { .. })
            | (Detector::Rc, Provenance::WhoisCreation { .. })
            | (Detector::Mtd, Provenance::DnsDeparture { .. })
            | (Detector::Mtd, Provenance::DnsDelegated { .. })
    );
    if !kind_ok {
        faults.report(format!(
            "line {lineno}: detector {:?} cannot carry {:?} provenance",
            d.detector.as_str(),
            d.provenance.kind()
        ))?;
    }
    if d.cert.is_empty() {
        if d.verdict != Verdict::Dropped(DropReason::CrlUnmatched) {
            faults.report(format!(
                "line {lineno}: empty fingerprint on a {:?} decision (only crl-unmatched entries have no certificate side)",
                d.verdict.as_str()
            ))?;
        }
    } else if !is_hex(&d.cert) {
        faults.report(format!(
            "line {lineno}: fingerprint {:?} is not lowercase hex",
            d.cert
        ))?;
    }
    let days: Vec<&str> = match &d.provenance {
        Provenance::CrlEntry { revoked, .. } => vec![revoked],
        Provenance::WhoisCreation { created, .. } => vec![created],
        Provenance::DnsDeparture {
            last_delegated,
            departed,
            ..
        } => vec![last_delegated, departed],
        Provenance::DnsDelegated { .. } => Vec::new(),
    };
    for day in &days {
        if !is_day(day) {
            faults.report(format!("line {lineno}: malformed day {day:?}"))?;
        }
    }
    if let Provenance::DnsDeparture {
        last_delegated,
        departed,
        ..
    } = &d.provenance
    {
        // Day strings order lexicographically; the delegation must have
        // been observed strictly before it departed.
        if last_delegated.as_str() >= departed.as_str() {
            faults.report(format!(
                "line {lineno}: departure day pair is not monotone ({last_delegated:?} !< {departed:?})"
            ))?;
        }
    }
    Ok(())
}

/// Decode one decision line: the only place a [`Decision`] is read from
/// text, shared by the line pass and the explain index's lookups.
fn decode_decision(line: &str) -> Result<Decision, String> {
    serde_json::from_str(line).map_err(|e| format!("does not parse as a decision: {e}"))
}

/// The audit's one reader: a line pass over a JSONL export holding every
/// rule once (module docs list them). Hands each decision, with the
/// byte offset of its line, to `keep` in file order, and returns the
/// coverage re-tallied from the lines.
fn read_lines(
    text: &str,
    faults: &mut Faults,
    mut keep: impl FnMut(u64, Decision),
) -> Result<BTreeMap<String, CoverageSummary>, Stop> {
    let mut lines = text.split_inclusive('\n');
    let first = lines
        .next()
        .ok_or_else(|| faults.fatal("empty file (expected an audit header line)".to_string()))?;
    let header: AuditHeader = serde_json::from_str(first)
        .map_err(|e| faults.fatal(format!("header line does not parse: {e}")))?;
    if header.schema != AUDIT_SCHEMA {
        faults.report(format!(
            "header schema {:?} (expected {AUDIT_SCHEMA:?})",
            header.schema
        ))?;
    }
    if header.version != AUDIT_VERSION {
        faults.report(format!(
            "header version {} (expected {AUDIT_VERSION})",
            header.version
        ))?;
    }
    let mut coverage = seeded_coverage();
    let mut decision_lines = 0usize;
    let mut offset = first.len() as u64;
    // Each decision is handed on once the next has been ordered against
    // it, so the pass keeps one decision and clones none.
    let mut prev: Option<(u64, Decision)> = None;
    for (i, line) in lines.enumerate() {
        let (lineno, here) = (i + 2, offset);
        offset += line.len() as u64;
        if line.trim().is_empty() {
            continue;
        }
        decision_lines += 1;
        let d = match decode_decision(line) {
            Ok(d) => d,
            Err(e) => {
                faults.report(format!("line {lineno}: {e}"))?;
                continue;
            }
        };
        check_decision(&d, lineno, faults)?;
        if prev
            .as_ref()
            .is_some_and(|(_, p)| p.sort_key() > d.sort_key())
        {
            faults.report(format!("line {lineno}: decisions out of canonical order"))?;
        }
        count(&mut coverage, &d);
        if let Some((at, p)) = prev.replace((here, d)) {
            keep(at, p);
        }
    }
    if let Some((at, p)) = prev {
        keep(at, p);
    }
    if decision_lines != header.decisions {
        faults.report(format!(
            "header declares {} decision(s) but the file holds {decision_lines}",
            header.decisions
        ))?;
    }
    for (det, cov) in &header.coverage {
        if Detector::parse(det).is_none() {
            faults.report(format!("header coverage has unknown detector {det:?}"))?;
        }
        if !cov.balanced() {
            faults.report(format!(
                "coverage for {det:?} does not balance: {} candidates != {} kept + {} dropped",
                cov.candidates,
                cov.kept,
                cov.dropped_total()
            ))?;
        }
        for reason in cov.dropped.keys() {
            if DropReason::parse(reason).is_none() {
                faults.report(format!(
                    "header coverage for {det:?} has unknown drop reason {reason:?}"
                ))?;
            }
        }
    }
    for det in Detector::ALL {
        let empty = CoverageSummary::default();
        let from_header = header.coverage.get(det.as_str()).unwrap_or(&empty);
        if coverage.get(det.as_str()).unwrap_or(&empty) != from_header {
            faults.report(format!(
                "header coverage for {:?} disagrees with the decision lines",
                det.as_str()
            ))?;
        }
    }
    Ok(coverage)
}

/// Every violation in a `--audit-out` JSONL export, found by the audit's
/// own reader run to completion instead of stopping at the first. Empty
/// exactly when [`AuditReport::from_jsonl`] (and so the explain index)
/// accepts the text. Pure and panic-free on any input — `stale-lint
/// preflight` wraps it.
pub fn validate_audit_jsonl(text: &str) -> Vec<String> {
    let mut faults = Faults::collect_all();
    let _ = read_lines(text, &mut faults, |_, _| {});
    faults.found
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kc(idx: u64, cert: &str, verdict: Verdict) -> Decision {
        Decision {
            detector: Detector::Kc,
            cert: cert.to_string(),
            verdict,
            provenance: Provenance::CrlEntry {
                crl_index: idx,
                authority_key_id: "aa11".to_string(),
                serial: "0f".to_string(),
                revoked: "2023-04-01".to_string(),
                reason: "keyCompromise".to_string(),
            },
        }
    }

    fn mtd(customer: &str, cert: &str, verdict: Verdict) -> Decision {
        Decision {
            detector: Detector::Mtd,
            cert: cert.to_string(),
            verdict,
            provenance: Provenance::DnsDeparture {
                customer: customer.to_string(),
                last_delegated: "2023-02-03".to_string(),
                departed: "2023-02-04".to_string(),
            },
        }
    }

    #[test]
    fn report_sorts_and_balances() {
        let report = AuditReport::from_decisions(vec![
            mtd("b.com", "ff02", Verdict::Kept),
            kc(3, "ab01", Verdict::Dropped(DropReason::CrlOutlier)),
            kc(1, "", Verdict::Dropped(DropReason::CrlUnmatched)),
            mtd(
                "a.com",
                "ff01",
                Verdict::Dropped(DropReason::OutsideValidityWindow),
            ),
        ]);
        let keys: Vec<_> = report.decisions.iter().map(Decision::sort_key).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(report.decisions[0].sort_key().1, 1);
        for cov in report.coverage.values() {
            assert!(cov.balanced());
        }
        assert_eq!(report.coverage["kc"].candidates, 2);
        assert_eq!(report.coverage["mtd"].kept, 1);
        assert_eq!(report.coverage["rc"].candidates, 0);
    }

    #[test]
    fn jsonl_roundtrips_and_validates() {
        let report = AuditReport::from_decisions(vec![
            kc(0, "ab01", Verdict::Kept),
            kc(1, "", Verdict::Dropped(DropReason::CrlUnmatched)),
            mtd(
                "c.com",
                "ff03",
                Verdict::Dropped(DropReason::OutsideValidityWindow),
            ),
        ]);
        let jsonl = report.to_jsonl();
        assert!(validate_audit_jsonl(&jsonl).is_empty(), "{jsonl}");
        let back = AuditReport::from_jsonl(&jsonl).expect("parses back");
        assert_eq!(back, report);
        // Verdicts and reasons export as kebab-case tags.
        assert!(jsonl.contains("\"crl-unmatched\""));
        assert!(jsonl.contains("\"outside-validity-window\""));
        assert!(jsonl.contains("\"kept\""));
    }

    #[test]
    fn validation_flags_corruption() {
        let report = AuditReport::from_decisions(vec![
            kc(0, "ab01", Verdict::Kept),
            kc(1, "ab02", Verdict::Dropped(DropReason::CrlOutlier)),
        ]);
        let jsonl = report.to_jsonl();
        // Truncated: header claims more decisions than present.
        let truncated: Vec<&str> = jsonl.lines().take(2).collect();
        assert!(!validate_audit_jsonl(&truncated.join("\n")).is_empty());
        // Unknown drop reason.
        let garbled = jsonl.replace("crl-outlier", "crl-banana");
        assert!(!validate_audit_jsonl(&garbled).is_empty());
        // Out-of-order decisions.
        let mut lines: Vec<&str> = jsonl.lines().collect();
        lines.swap(1, 2);
        assert!(!validate_audit_jsonl(&lines.join("\n")).is_empty());
        // Day corruption breaks the shape check.
        let bad_day = jsonl.replace("2023-04-01", "2023-0401x");
        assert!(!validate_audit_jsonl(&bad_day).is_empty());
        // Not an audit at all.
        assert!(!validate_audit_jsonl("{\"certs\": []}").is_empty());
        assert!(!validate_audit_jsonl("").is_empty());
    }

    #[test]
    fn the_reader_refuses_what_validation_names() {
        let report = AuditReport::from_decisions(vec![
            kc(0, "ab01", Verdict::Kept),
            kc(1, "ab02", Verdict::Dropped(DropReason::CrlOutlier)),
            mtd("a.com", "ff01", Verdict::Kept),
        ]);
        let jsonl = report.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        let damaged = [
            // Truncated, reordered, a future version, a miscounted header.
            format!("{}\n", lines[..lines.len() - 1].join("\n")),
            format!("{}\n{}\n{}\n{}\n", lines[0], lines[2], lines[1], lines[3]),
            jsonl.replace("\"version\":1", "\"version\":7"),
            jsonl.replace("\"decisions\":3", "\"decisions\":2"),
        ];
        for text in &damaged {
            assert_ne!(text, &jsonl, "damage applied");
            let found = validate_audit_jsonl(text);
            assert!(!found.is_empty(), "{text}");
            assert_eq!(
                AuditReport::from_jsonl(text).err().as_ref(),
                found.first(),
                "{text}"
            );
            assert_eq!(ExplainIndex::build(text).err().as_ref(), found.first());
        }
    }

    #[test]
    fn validation_checks_monotone_day_pair_and_identity() {
        let report = AuditReport::from_decisions(vec![mtd("a.com", "ff01", Verdict::Kept)]);
        let jsonl = report.to_jsonl();
        let swapped = jsonl.replace("2023-02-04", "2023-02-02");
        assert!(validate_audit_jsonl(&swapped)
            .iter()
            .any(|m| m.contains("not monotone")));
        // A header whose coverage does not balance is flagged even when
        // the decision lines are dropped with it.
        let unbalanced = "{\"schema\":\"stale-obs-audit\",\"version\":1,\"decisions\":0,\
             \"coverage\":{\"kc\":{\"candidates\":3,\"kept\":1,\"dropped\":{}}}}";
        assert!(validate_audit_jsonl(unbalanced)
            .iter()
            .any(|m| m.contains("does not balance")));
    }

    #[test]
    fn explain_matches_unique_prefixes() {
        let report = AuditReport::from_decisions(vec![
            kc(0, "ab01", Verdict::Kept),
            mtd(
                "a.com",
                "ab01",
                Verdict::Dropped(DropReason::OutsideValidityWindow),
            ),
            kc(1, "ab9f", Verdict::Dropped(DropReason::CrlOutlier)),
        ]);
        let (cert, chain) = report.decisions_for("ab0").expect("unique prefix");
        assert_eq!(cert, "ab01");
        assert_eq!(chain.len(), 2);
        assert!(report.decisions_for("ab").is_err());
        assert!(report.decisions_for("ff").is_err());
        assert!(report.decisions_for("").is_err());
        // An ambiguous prefix lists every candidate so the caller can
        // extend it instead of guessing.
        let err = report.decisions_for("ab").unwrap_err();
        assert!(err.contains("2 matches"), "{err}");
        assert!(err.contains("ab01"), "{err}");
        assert!(err.contains("ab9f"), "{err}");
        assert!(!err.contains("more"), "{err}");
        let rendered = report.render_explain("ab01").expect("renders");
        assert!(rendered.contains("kept"), "{rendered}");
        assert!(rendered.contains("outside-validity-window"), "{rendered}");
        assert!(rendered.contains("crl entry #0"), "{rendered}");
    }

    #[test]
    fn ambiguous_prefix_elides_long_candidate_lists() {
        let decisions: Vec<Decision> = (0..12)
            .map(|i| kc(i, &format!("ab{i:02}"), Verdict::Kept))
            .collect();
        let report = AuditReport::from_decisions(decisions);
        let err = report.decisions_for("ab").unwrap_err();
        assert!(err.contains("12 matches"), "{err}");
        assert!(err.contains("... and 4 more"), "{err}");
    }

    /// A report with prefix collisions, ambiguous prefixes, and an
    /// empty-fingerprint decision — the shapes the explain surfaces
    /// must agree on.
    fn explain_fixture() -> AuditReport {
        AuditReport::from_decisions(vec![
            kc(0, "ab01", Verdict::Kept),
            mtd(
                "a.com",
                "ab01",
                Verdict::Dropped(DropReason::OutsideValidityWindow),
            ),
            kc(1, "ab9f", Verdict::Dropped(DropReason::CrlOutlier)),
            kc(2, "", Verdict::Dropped(DropReason::CrlUnmatched)),
            mtd("b.com", "ff02", Verdict::Kept),
        ])
    }

    #[test]
    fn indexed_explain_is_byte_identical_to_scan() {
        let report = explain_fixture();
        let index = report.fingerprint_index();
        for prefix in ["ab01", "ab0", "ab9", "ff", "ab", "zz", "", "ab01ff"] {
            let scan = report.decisions_for(prefix);
            let fast = report.decisions_for_indexed(&index, prefix);
            match (scan, fast) {
                (Ok((c1, d1)), Ok((c2, d2))) => {
                    assert_eq!(c1, c2, "{prefix}");
                    assert_eq!(d1, d2, "{prefix}");
                }
                (Err(e1), Err(e2)) => assert_eq!(e1, e2, "{prefix}"),
                (a, b) => panic!("{prefix}: scan {a:?} vs indexed {b:?}"),
            }
            match (
                report.render_explain(prefix),
                report.render_explain_indexed(&index, prefix),
            ) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "{prefix}"),
                (Err(a), Err(b)) => assert_eq!(a, b, "{prefix}"),
                (a, b) => panic!("{prefix}: scan {a:?} vs indexed {b:?}"),
            }
        }
        // The empty fingerprint is never indexed.
        assert!(!index.contains_key(""));
    }

    #[test]
    fn explain_index_over_jsonl_is_byte_identical_to_scan() {
        let report = explain_fixture();
        let jsonl = report.to_jsonl();
        let index = ExplainIndex::build(&jsonl).expect("builds");
        assert!(index.matches(&jsonl));
        for prefix in ["ab01", "ab0", "ab9", "ff", "ab", "zz", ""] {
            match (
                report.render_explain(prefix),
                index.render_explain_from(&jsonl, prefix),
            ) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "{prefix}"),
                (Err(a), Err(b)) => assert_eq!(a, b, "{prefix}"),
                (a, b) => panic!("{prefix}: scan {a:?} vs index {b:?}"),
            }
        }
    }

    #[test]
    fn explain_index_sidecar_roundtrips() {
        let report = explain_fixture();
        let jsonl = report.to_jsonl();
        let index = ExplainIndex::build(&jsonl).expect("builds");
        let text = index.to_text();
        let back = ExplainIndex::parse(&text).expect("parses back");
        assert_eq!(back, index);
        // Corrupted sidecars are rejected, never trusted.
        assert!(ExplainIndex::parse("").is_err());
        assert!(ExplainIndex::parse("bogus v1 bytes=3 certs=0\n").is_err());
        // A sidecar of the previous, length-keyed version is not read.
        let v1 = format!(
            "{EXPLAIN_INDEX_SCHEMA} v1 bytes={} certs={}\n",
            index.source_bytes,
            index.entries.len()
        );
        assert!(ExplainIndex::parse(&v1).is_err());
        assert!(ExplainIndex::parse(&text.replace("certs=3", "certs=9")).is_err());
        let garbled = text.replacen(" 0", " x", 1);
        if garbled != text {
            assert!(ExplainIndex::parse(&garbled).is_err());
        }
    }

    #[test]
    fn explain_index_detects_stale_or_lying_offsets() {
        let report = explain_fixture();
        let jsonl = report.to_jsonl();
        let index = ExplainIndex::build(&jsonl).expect("builds");
        // A store of a different length invalidates the index outright.
        let longer = format!("{jsonl}\n");
        assert!(!index.matches(&longer));
        assert!(index
            .render_explain_from(&longer, "ab01")
            .unwrap_err()
            .contains("stale"));
        // Same length, shuffled lines: the digest no longer matches, and
        // an offset that points at a decision for a different fingerprint
        // is caught at read time.
        let mut lines: Vec<&str> = jsonl.lines().collect();
        lines.swap(2, 5);
        let shuffled = format!("{}\n", lines.join("\n"));
        assert_eq!(shuffled.len(), jsonl.len());
        assert!(!index.matches(&shuffled));
        assert!(index.render_explain_from(&shuffled, "ab9f").is_err());
        // A same-length edit that keeps every line in place still
        // changes the digest.
        let edited = jsonl.replacen("ff02", "ff03", 1);
        assert_eq!(edited.len(), jsonl.len());
        assert!(!index.matches(&edited));
        // Building over garbage fails instead of indexing nonsense.
        assert!(ExplainIndex::build("").is_err());
        assert!(ExplainIndex::build("{\"certs\": []}").is_err());
    }

    #[test]
    fn coverage_registers_and_renders() {
        let report = AuditReport::from_decisions(vec![
            kc(0, "ab01", Verdict::Kept),
            kc(1, "", Verdict::Dropped(DropReason::CrlUnmatched)),
            kc(
                1,
                "ab02",
                Verdict::Dropped(DropReason::DuplicateFingerprint),
            ),
        ]);
        let registry = crate::Registry::new();
        report.register_coverage(&registry);
        let counters = registry.snapshot().counters;
        assert_eq!(counters["audit.kc.candidates"], 3);
        assert_eq!(counters["audit.kc.kept"], 1);
        assert_eq!(counters["audit.kc.dropped.crl-unmatched"], 1);
        assert_eq!(counters["audit.kc.dropped.duplicate-fingerprint"], 1);
        let rendered = report.render_coverage();
        // Two real CRL entries (the duplicate is an extra cert candidate),
        // one matched.
        assert!(rendered.contains("1/2 entries matched"), "{rendered}");
    }
}
