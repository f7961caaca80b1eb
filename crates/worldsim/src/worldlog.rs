//! The world-fact log: layer 1 of the three-layer audit model.
//!
//! [`obs::audit`] records *decisions* (layer 2) and the trace/metrics
//! plane records *operations* (layer 3), but the facts those layers
//! refer to — which certificates existed, which CRL entries appeared,
//! which domains changed hands or left their CDN — lived only in
//! process memory until now. [`WorldLog`] is the canonical, append-only
//! record of those facts: every observable event of a simulated world,
//! day-stamped, deterministically ordered, and serialized as the
//! `stale-obs-worldlog` v1 JSONL schema (header line, one event per
//! line in canonical order, tally trailer — the same shape as the audit
//! schema, so the same tooling habits apply).
//!
//! The log is **complete**: [`WorldLog::to_datasets`] reconstructs a
//! [`WorldDatasets`] that is indistinguishable from the original to the
//! entire measurement pipeline (same structural fingerprint, same
//! detector outputs, byte-identical tables — `tests/worldlog_replay.rs`
//! proves it across shard counts and batch/incremental modes). The
//! enrichment side-channels (popularity, reputation) and the
//! ground-truth ledger are deliberately *not* world facts — they are
//! simulator internals no real measurement could observe — so replayed
//! worlds have them empty and Tables 5/6 are out of replay scope
//! (DESIGN.md).
//!
//! Because replay is exact, what-if analyses become log rewrites:
//! [`WorldLog::rewrite_cap_days`] clamps every certificate's validity to
//! a maximum lifetime and re-derives the affected facts, which is how
//! `stale-bench replay --rewrite cap-days=N` reruns the paper's §6
//! lifetime-cap simulations without constructing a fresh world.
//!
//! Determinism invariants:
//! * events sort by [`WorldEvent::sort_key`] — `(day, kind rank,
//!   CRL index, natural key)` — which is a total order over any valid
//!   log, so serialization is canonical: one world, one byte stream;
//! * every fact is day-stamped with the day it became observable
//!   (CT first-seen, CRL observation day, WHOIS creation date, DNS
//!   change day);
//! * DER is carried as lowercase hex by reference, so certificate
//!   bodies round-trip bit-exactly and `cert` ids can be re-verified;
//! * the header fingerprint is [`fold_fingerprint`] over the same
//!   components the live datasets fold, recomputable from the log alone.
//!
//! The log has one reader, and the reader is the validator. Every rule
//! is written once, in one of the two loading passes, and
//! [`validate_worldlog_jsonl`] (what `stale-lint preflight` reports) runs
//! those same passes to completion instead of stopping at the first
//! violation, so a log passes preflight exactly when it loads:
//! * the **line pass**, [`WorldLog::from_jsonl`]: a header of this
//!   schema and version; every line parses as an event; identifiers
//!   are lowercase hex of their fixed length (certificate 64, authority
//!   key 40, serial 32) and DER is lowercase hex; a CA's tally is named
//!   and has no more successes than attempts; a delegation event
//!   resolves to something; lines are in canonical order (refused,
//!   never re-sorted); a trailer whose tally matches the lines and a
//!   header count that agrees;
//! * the **world pass**, [`WorldLog::to_datasets`]: events in canonical
//!   order before any is applied; non-degenerate windows; DER that
//!   decodes to the named certificate, with a non-degenerate validity,
//!   first seen no earlier than its `notBefore` and at least one entry;
//!   exactly one `cert-expired` event per issued certificate, dated on
//!   its DER `notAfter`, and none naming a certificate the log never
//!   issued ([`WorldLog::certificate`] holds one certificate to the same
//!   rule);
//!   one tally per CA; CRL indices dense and ascending, every entry's
//!   authority key belonging to a certificate issuer in the log,
//!   observed inside the CRL window and not a duplicate; per-domain
//!   WHOIS and DNS days strictly increasing; and a reconstructed
//!   fingerprint equal to the header's.

use crate::datasets::{fold_fingerprint, GroundTruth, WorldDatasets};
use crate::popularity::PopularityArchive;
use crate::reputation::ReputationFeed;
use ca::scraper::{CrlDataset, RevocationRecord, ScrapeStats};
use cdn::provider::{DelegationKind, ProviderConfig};
use ct::monitor::CtMonitor;
use dns::scan::{DnsHistory, DnsView};
use registry::whois::WhoisDataset;
use serde::value::Value;
use serde::{Deserialize, Serialize};
use stale_types::{hex, Date, DateInterval, DomainName, Duration, KeyId, SerialNumber};
use std::collections::{BTreeMap, BTreeSet};
use x509::revocation::RevocationReason;
use x509::Certificate;

/// Schema tag on the JSONL header line.
pub const WORLDLOG_SCHEMA: &str = "stale-obs-worldlog";
/// Current world-log schema version.
pub const WORLDLOG_VERSION: u32 = 1;

/// Every event kind, in canonical rank order (the trailer tally is keyed
/// by these, pre-seeded so absent kinds show as zero).
pub const EVENT_KINDS: [&str; 9] = [
    "cert-issued",
    "cert-expired",
    "crl-published",
    "crl-entry-added",
    "domain-registered",
    "domain-re-registered",
    "domain-dropped",
    "delegation-added",
    "delegation-dropped",
];

/// One observable world fact. Dates are day-granular; hex is lowercase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorldEvent {
    /// A certificate first appeared in CT.
    CertIssued {
        /// Earliest log timestamp across the entries that deduped here.
        day: Date,
        /// Dedup identity ([`Certificate::cert_id`]), 64 hex chars — the
        /// join key against audit decisions.
        cert: String,
        /// Full DER encoding, lowercase hex. The body of record: validity, SANs,
        /// AKI and serial are all re-derivable from it.
        der: String,
        /// Raw log entries that collapsed into this certificate.
        entry_count: u64,
    },
    /// A certificate's validity ended (`notAfter`, exclusive).
    CertExpired {
        /// First day the certificate is invalid.
        day: Date,
        /// Dedup identity, 64 hex chars.
        cert: String,
    },
    /// A CA's CRL scrape tally for the collection window (Table 7 row).
    CrlPublished {
        /// Last scrape day of the collection window.
        day: Date,
        /// CA display name.
        ca: String,
        /// Downloads attempted.
        attempted: u64,
        /// Downloads that succeeded.
        ok: u64,
    },
    /// A revocation entry was first observed on a CRL.
    CrlEntryAdded {
        /// Observation day.
        day: Date,
        /// Position in the global CRL dataset (the audit provenance key).
        crl_index: u64,
        /// Issuing authority key id, 40 hex chars.
        authority_key_id: String,
        /// Revoked serial, 32 hex chars.
        serial: String,
        /// Revocation effective date.
        revoked: Date,
        /// RFC 5280 CRLReason code.
        reason: u8,
    },
    /// A domain's first observed WHOIS creation date.
    DomainRegistered {
        /// The creation date itself (thin WHOIS is day-granular).
        day: Date,
        /// The e2LD.
        domain: String,
    },
    /// A later creation date — the domain was deleted and re-registered.
    DomainReRegistered {
        /// The new creation date.
        day: Date,
        /// The e2LD.
        domain: String,
    },
    /// A domain's DNS went dark (empty resolution view).
    DomainDropped {
        /// First day the scan saw nothing.
        day: Date,
        /// The e2LD.
        domain: String,
    },
    /// A domain's resolution changed to (or first appeared with) the
    /// recorded view; covers gaining a managed delegation and generic
    /// changes alike.
    DelegationAdded {
        /// First day of the new view.
        day: Date,
        /// The e2LD.
        domain: String,
        /// NS targets, sorted.
        ns: Vec<String>,
        /// CNAME targets, sorted.
        cname: Vec<String>,
        /// A records (dotted quads), sorted.
        a: Vec<String>,
    },
    /// A domain's resolution lost its managed delegation (the §6
    /// departure signal) while still resolving.
    DelegationDropped {
        /// First day without the delegation.
        day: Date,
        /// The e2LD.
        domain: String,
        /// NS targets, sorted.
        ns: Vec<String>,
        /// CNAME targets, sorted.
        cname: Vec<String>,
        /// A records (dotted quads), sorted.
        a: Vec<String>,
    },
}

impl WorldEvent {
    /// The kind tag used on the wire and in the trailer tally.
    pub fn kind(&self) -> &'static str {
        match self {
            WorldEvent::CertIssued { .. } => "cert-issued",
            WorldEvent::CertExpired { .. } => "cert-expired",
            WorldEvent::CrlPublished { .. } => "crl-published",
            WorldEvent::CrlEntryAdded { .. } => "crl-entry-added",
            WorldEvent::DomainRegistered { .. } => "domain-registered",
            WorldEvent::DomainReRegistered { .. } => "domain-re-registered",
            WorldEvent::DomainDropped { .. } => "domain-dropped",
            WorldEvent::DelegationAdded { .. } => "delegation-added",
            WorldEvent::DelegationDropped { .. } => "delegation-dropped",
        }
    }

    /// The day the fact became observable.
    pub fn day(&self) -> Date {
        match self {
            WorldEvent::CertIssued { day, .. }
            | WorldEvent::CertExpired { day, .. }
            | WorldEvent::CrlPublished { day, .. }
            | WorldEvent::CrlEntryAdded { day, .. }
            | WorldEvent::DomainRegistered { day, .. }
            | WorldEvent::DomainReRegistered { day, .. }
            | WorldEvent::DomainDropped { day, .. }
            | WorldEvent::DelegationAdded { day, .. }
            | WorldEvent::DelegationDropped { day, .. } => *day,
        }
    }

    fn kind_rank(&self) -> u8 {
        match self {
            WorldEvent::CertIssued { .. } => 0,
            WorldEvent::CertExpired { .. } => 1,
            WorldEvent::CrlPublished { .. } => 2,
            WorldEvent::CrlEntryAdded { .. } => 3,
            WorldEvent::DomainRegistered { .. } => 4,
            WorldEvent::DomainReRegistered { .. } => 5,
            WorldEvent::DomainDropped { .. } => 6,
            WorldEvent::DelegationAdded { .. } => 7,
            WorldEvent::DelegationDropped { .. } => 8,
        }
    }

    /// The canonical total order: day first (so a sorted log *is* a
    /// timeline), then kind rank, then the CRL dataset index, then the
    /// event's natural key. Day-major order is also exactly the order
    /// [`WorldLog::to_datasets`] must apply facts in: per-domain WHOIS
    /// and DNS streams stay chronological, and the global CRL index —
    /// nondecreasing in observation day by construction — is preserved.
    pub fn sort_key(&self) -> (Date, u8, u64, &str) {
        let idx = match self {
            WorldEvent::CrlEntryAdded { crl_index, .. } => *crl_index,
            _ => 0,
        };
        let natural = match self {
            WorldEvent::CertIssued { cert, .. } | WorldEvent::CertExpired { cert, .. } => {
                cert.as_str()
            }
            WorldEvent::CrlPublished { ca, .. } => ca.as_str(),
            WorldEvent::CrlEntryAdded { .. } => "",
            WorldEvent::DomainRegistered { domain, .. }
            | WorldEvent::DomainReRegistered { domain, .. }
            | WorldEvent::DomainDropped { domain, .. }
            | WorldEvent::DelegationAdded { domain, .. }
            | WorldEvent::DelegationDropped { domain, .. } => domain.as_str(),
        };
        (self.day(), self.kind_rank(), idx, natural)
    }
}

fn parse_ipv4(s: &str) -> Option<dns::Ipv4Addr> {
    let mut octets = [0u8; 4];
    let mut parts = s.split('.');
    for slot in &mut octets {
        let part = parts.next()?;
        // Reject empty/padded forms so parsing stays canonical.
        if part.is_empty() || (part.len() > 1 && part.starts_with('0')) {
            return None;
        }
        *slot = part.parse().ok()?;
    }
    if parts.next().is_some() {
        return None;
    }
    Some(dns::Ipv4Addr(octets))
}

fn str_arr(items: &[String]) -> Value {
    Value::Arr(items.iter().map(|s| Value::Str(s.clone())).collect())
}

impl Serialize for WorldEvent {
    fn serialize(&self) -> Value {
        let kind = ("kind".to_string(), Value::Str(self.kind().to_string()));
        let day = ("day".to_string(), Value::Str(self.day().to_string()));
        let s = |v: &str| Value::Str(v.to_string());
        let n = |v: u64| Value::UInt(u128::from(v));
        match self {
            WorldEvent::CertIssued {
                cert,
                der,
                entry_count,
                ..
            } => Value::Obj(vec![
                kind,
                day,
                ("cert".to_string(), s(cert)),
                ("der".to_string(), s(der)),
                ("entry_count".to_string(), n(*entry_count)),
            ]),
            WorldEvent::CertExpired { cert, .. } => {
                Value::Obj(vec![kind, day, ("cert".to_string(), s(cert))])
            }
            WorldEvent::CrlPublished {
                ca, attempted, ok, ..
            } => Value::Obj(vec![
                kind,
                day,
                ("ca".to_string(), s(ca)),
                ("attempted".to_string(), n(*attempted)),
                ("ok".to_string(), n(*ok)),
            ]),
            WorldEvent::CrlEntryAdded {
                crl_index,
                authority_key_id,
                serial,
                revoked,
                reason,
                ..
            } => Value::Obj(vec![
                kind,
                day,
                ("crl_index".to_string(), n(*crl_index)),
                ("authority_key_id".to_string(), s(authority_key_id)),
                ("serial".to_string(), s(serial)),
                ("revoked".to_string(), Value::Str(revoked.to_string())),
                ("reason".to_string(), n(u64::from(*reason))),
            ]),
            WorldEvent::DomainRegistered { domain, .. }
            | WorldEvent::DomainReRegistered { domain, .. }
            | WorldEvent::DomainDropped { domain, .. } => {
                Value::Obj(vec![kind, day, ("domain".to_string(), s(domain))])
            }
            WorldEvent::DelegationAdded {
                domain,
                ns,
                cname,
                a,
                ..
            }
            | WorldEvent::DelegationDropped {
                domain,
                ns,
                cname,
                a,
                ..
            } => Value::Obj(vec![
                kind,
                day,
                ("domain".to_string(), s(domain)),
                ("ns".to_string(), str_arr(ns)),
                ("cname".to_string(), str_arr(cname)),
                ("a".to_string(), str_arr(a)),
            ]),
        }
    }
}

fn day_field(v: &Value, name: &str) -> Result<Date, serde::de::Error> {
    let s: String = serde::de::field(v, name)?;
    Date::parse(&s).map_err(|_| serde::de::Error::msg(format!("bad day {s:?} in field {name:?}")))
}

impl Deserialize for WorldEvent {
    fn deserialize(v: &Value) -> Result<Self, serde::de::Error> {
        let kind: String = serde::de::field(v, "kind")?;
        let day = day_field(v, "day")?;
        match kind.as_str() {
            "cert-issued" => Ok(WorldEvent::CertIssued {
                day,
                cert: serde::de::field(v, "cert")?,
                der: serde::de::field(v, "der")?,
                entry_count: serde::de::field(v, "entry_count")?,
            }),
            "cert-expired" => Ok(WorldEvent::CertExpired {
                day,
                cert: serde::de::field(v, "cert")?,
            }),
            "crl-published" => Ok(WorldEvent::CrlPublished {
                day,
                ca: serde::de::field(v, "ca")?,
                attempted: serde::de::field(v, "attempted")?,
                ok: serde::de::field(v, "ok")?,
            }),
            "crl-entry-added" => {
                let reason: u64 = serde::de::field(v, "reason")?;
                Ok(WorldEvent::CrlEntryAdded {
                    day,
                    crl_index: serde::de::field(v, "crl_index")?,
                    authority_key_id: serde::de::field(v, "authority_key_id")?,
                    serial: serde::de::field(v, "serial")?,
                    revoked: day_field(v, "revoked")?,
                    reason: u8::try_from(reason).map_err(|_| {
                        serde::de::Error::msg(format!("reason code {reason} out of range"))
                    })?,
                })
            }
            "domain-registered" => Ok(WorldEvent::DomainRegistered {
                day,
                domain: serde::de::field(v, "domain")?,
            }),
            "domain-re-registered" => Ok(WorldEvent::DomainReRegistered {
                day,
                domain: serde::de::field(v, "domain")?,
            }),
            "domain-dropped" => Ok(WorldEvent::DomainDropped {
                day,
                domain: serde::de::field(v, "domain")?,
            }),
            "delegation-added" => Ok(WorldEvent::DelegationAdded {
                day,
                domain: serde::de::field(v, "domain")?,
                ns: serde::de::field(v, "ns")?,
                cname: serde::de::field(v, "cname")?,
                a: serde::de::field(v, "a")?,
            }),
            "delegation-dropped" => Ok(WorldEvent::DelegationDropped {
                day,
                domain: serde::de::field(v, "domain")?,
                ns: serde::de::field(v, "ns")?,
                cname: serde::de::field(v, "cname")?,
                a: serde::de::field(v, "a")?,
            }),
            other => Err(serde::de::Error::msg(format!(
                "unknown world-event kind {other:?}"
            ))),
        }
    }
}

/// The CDN's delegation/marker configuration, carried in the header so a
/// replayed world knows what §4.3's detector is allowed to know.
/// ([`ProviderConfig`] itself stays serde-free; this is its wire form.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CdnSettings {
    /// Provider display name.
    pub name: String,
    /// NS-delegation targets.
    pub nameservers: Vec<String>,
    /// CNAME-delegation suffix.
    pub cname_base: String,
    /// Marker-SAN base, if the provider has one.
    pub marker_base: Option<String>,
    /// Customer domains per certificate.
    pub sans_per_cert: u64,
    /// `"ns"` or `"cname"`.
    pub delegation: String,
}

impl CdnSettings {
    /// Capture a provider configuration.
    pub fn from_provider(cfg: &ProviderConfig) -> CdnSettings {
        CdnSettings {
            name: cfg.name.clone(),
            nameservers: cfg.nameservers.iter().map(|n| n.to_string()).collect(),
            cname_base: cfg.cname_base.to_string(),
            marker_base: cfg.marker_base.clone(),
            sans_per_cert: cfg.sans_per_cert as u64,
            delegation: match cfg.delegation {
                DelegationKind::Ns => "ns".to_string(),
                DelegationKind::Cname => "cname".to_string(),
            },
        }
    }

    /// Rebuild the provider configuration.
    pub fn to_provider(&self) -> Result<ProviderConfig, String> {
        let mut nameservers = Vec::with_capacity(self.nameservers.len());
        for ns in &self.nameservers {
            nameservers
                .push(DomainName::parse(ns).map_err(|e| format!("cdn nameserver {ns:?}: {e}"))?);
        }
        Ok(ProviderConfig {
            name: self.name.clone(),
            nameservers,
            cname_base: DomainName::parse(&self.cname_base)
                .map_err(|e| format!("cdn cname_base {:?}: {e}", self.cname_base))?,
            marker_base: self.marker_base.clone(),
            sans_per_cert: self.sans_per_cert as usize,
            delegation: match self.delegation.as_str() {
                "ns" => DelegationKind::Ns,
                "cname" => DelegationKind::Cname,
                other => return Err(format!("unknown delegation kind {other:?}")),
            },
        })
    }
}

impl Serialize for CdnSettings {
    fn serialize(&self) -> Value {
        Value::Obj(vec![
            ("name".to_string(), Value::Str(self.name.clone())),
            ("nameservers".to_string(), str_arr(&self.nameservers)),
            (
                "cname_base".to_string(),
                Value::Str(self.cname_base.clone()),
            ),
            ("marker_base".to_string(), self.marker_base.serialize()),
            (
                "sans_per_cert".to_string(),
                Value::UInt(u128::from(self.sans_per_cert)),
            ),
            (
                "delegation".to_string(),
                Value::Str(self.delegation.clone()),
            ),
        ])
    }
}

impl Deserialize for CdnSettings {
    fn deserialize(v: &Value) -> Result<Self, serde::de::Error> {
        Ok(CdnSettings {
            name: serde::de::field(v, "name")?,
            nameservers: serde::de::field(v, "nameservers")?,
            cname_base: serde::de::field(v, "cname_base")?,
            marker_base: serde::de::field(v, "marker_base")?,
            sans_per_cert: serde::de::field(v, "sans_per_cert")?,
            delegation: serde::de::field(v, "delegation")?,
        })
    }
}

/// The JSONL header line: schema identity, event count, the structural
/// fingerprint, and the world parameters that are configuration rather
/// than events (windows, CT shard counts, CDN settings).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorldLogHeader {
    /// Always [`WORLDLOG_SCHEMA`].
    pub schema: String,
    /// Always [`WORLDLOG_VERSION`].
    pub version: u32,
    /// Number of event lines that follow.
    pub events: usize,
    /// [`fold_fingerprint`] over the log's own components — what a
    /// reconstructed [`WorldDatasets::fingerprint`] must equal.
    pub fingerprint: u64,
    /// Simulated window.
    pub sim_window: DateInterval,
    /// aDNS scan window.
    pub adns_window: DateInterval,
    /// CRL collection window.
    pub crl_window: DateInterval,
    /// Raw CT log entries before dedup.
    pub ct_raw_entries: u64,
    /// Number of CT logs.
    pub ct_log_count: u64,
    /// The CDN configuration the detectors may consult.
    pub cdn: CdnSettings,
}

fn window_value(w: DateInterval) -> Value {
    Value::Arr(vec![
        Value::Str(w.start.to_string()),
        Value::Str(w.end.to_string()),
    ])
}

fn window_field(v: &Value, name: &str) -> Result<DateInterval, serde::de::Error> {
    let pair: Vec<String> = serde::de::field(v, name)?;
    let [start, end] = pair.as_slice() else {
        return Err(serde::de::Error::msg(format!(
            "field {name:?}: expected [start, end]"
        )));
    };
    let bad = |s: &str| serde::de::Error::msg(format!("field {name:?}: bad day {s:?}"));
    // A degenerate window is a world rule, checked by the world pass.
    Ok(DateInterval {
        start: Date::parse(start).map_err(|_| bad(start))?,
        end: Date::parse(end).map_err(|_| bad(end))?,
    })
}

impl Serialize for WorldLogHeader {
    fn serialize(&self) -> Value {
        Value::Obj(vec![
            ("schema".to_string(), Value::Str(self.schema.clone())),
            ("version".to_string(), Value::UInt(u128::from(self.version))),
            ("events".to_string(), Value::UInt(self.events as u128)),
            (
                "fingerprint".to_string(),
                Value::UInt(u128::from(self.fingerprint)),
            ),
            ("sim_window".to_string(), window_value(self.sim_window)),
            ("adns_window".to_string(), window_value(self.adns_window)),
            ("crl_window".to_string(), window_value(self.crl_window)),
            (
                "ct_raw_entries".to_string(),
                Value::UInt(u128::from(self.ct_raw_entries)),
            ),
            (
                "ct_log_count".to_string(),
                Value::UInt(u128::from(self.ct_log_count)),
            ),
            ("cdn".to_string(), self.cdn.serialize()),
        ])
    }
}

impl Deserialize for WorldLogHeader {
    fn deserialize(v: &Value) -> Result<Self, serde::de::Error> {
        Ok(WorldLogHeader {
            schema: serde::de::field(v, "schema")?,
            version: serde::de::field(v, "version")?,
            events: serde::de::field(v, "events")?,
            fingerprint: serde::de::field(v, "fingerprint")?,
            sim_window: window_field(v, "sim_window")?,
            adns_window: window_field(v, "adns_window")?,
            crl_window: window_field(v, "crl_window")?,
            ct_raw_entries: serde::de::field(v, "ct_raw_entries")?,
            ct_log_count: serde::de::field(v, "ct_log_count")?,
            cdn: CdnSettings::deserialize(
                v.get("cdn")
                    .ok_or_else(|| serde::de::Error::msg("missing field \"cdn\""))?,
            )?,
        })
    }
}

/// The JSONL trailer line: per-kind event tally plus total, so a
/// truncated file is detectable without re-reading the header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorldLogTally {
    /// Kind tag → count, every kind of [`EVENT_KINDS`] present.
    pub tally: BTreeMap<String, u64>,
    /// Total event lines.
    pub total: u64,
}

impl Serialize for WorldLogTally {
    fn serialize(&self) -> Value {
        Value::Obj(vec![
            ("tally".to_string(), self.tally.serialize()),
            ("total".to_string(), Value::UInt(u128::from(self.total))),
        ])
    }
}

impl Deserialize for WorldLogTally {
    fn deserialize(v: &Value) -> Result<Self, serde::de::Error> {
        Ok(WorldLogTally {
            tally: serde::de::field(v, "tally")?,
            total: serde::de::field(v, "total")?,
        })
    }
}

/// A complete world-fact log: header + canonically ordered events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorldLog {
    /// Schema identity and world parameters.
    pub header: WorldLogHeader,
    /// Every event, in [`WorldEvent::sort_key`] order.
    pub events: Vec<WorldEvent>,
}

impl WorldLog {
    /// Extract the world-fact log from live datasets. The inverse of
    /// [`WorldLog::to_datasets`]: extracting and reconstructing yields a
    /// world with the same fingerprint and byte-identical pipeline
    /// outputs.
    pub fn from_datasets(data: &WorldDatasets) -> WorldLog {
        let mut events = Vec::new();
        for c in data.monitor.corpus_unfiltered() {
            let cert = c.cert_id.to_string();
            events.push(WorldEvent::CertIssued {
                day: c.first_seen,
                cert: cert.clone(),
                der: hex::encode(&c.certificate.encode()),
                entry_count: c.entry_count as u64,
            });
            events.push(WorldEvent::CertExpired {
                day: c.certificate.tbs.not_after(),
                cert,
            });
        }
        // A CA's scrape tally is "published" on the last collection day.
        let crl_day = if data.crl_window.is_empty() {
            data.crl_window.start
        } else {
            data.crl_window.end.pred()
        };
        for (ca, (attempted, ok)) in &data.crl_stats.per_ca {
            events.push(WorldEvent::CrlPublished {
                day: crl_day,
                ca: ca.clone(),
                attempted: *attempted,
                ok: *ok,
            });
        }
        for (i, rec) in data.crl.records().iter().enumerate() {
            events.push(WorldEvent::CrlEntryAdded {
                day: rec.observed,
                crl_index: i as u64,
                authority_key_id: rec.authority_key_id.to_string(),
                serial: rec.serial.to_string(),
                revoked: rec.revocation_date,
                reason: rec.reason.code(),
            });
        }
        let mut seen_domains: BTreeSet<&DomainName> = BTreeSet::new();
        for (domain, creation) in data.whois.observations() {
            let name = domain.to_string();
            if seen_domains.insert(domain) {
                events.push(WorldEvent::DomainRegistered {
                    day: creation,
                    domain: name,
                });
            } else {
                events.push(WorldEvent::DomainReRegistered {
                    day: creation,
                    domain: name,
                });
            }
        }
        let is_provider =
            |view: &DnsView| view.any_delegation(|t| data.cdn_config.is_delegation_target(t));
        for domain in data.adns.domains() {
            let log = data.adns.change_log(domain);
            for (i, (day, view)) in log.iter().enumerate() {
                let empty = view.ns.is_empty() && view.cname.is_empty() && view.a.is_empty();
                if empty {
                    events.push(WorldEvent::DomainDropped {
                        day: *day,
                        domain: domain.to_string(),
                    });
                    continue;
                }
                let was_provider = i > 0 && is_provider(&log[i - 1].1);
                let ns = view.ns.iter().map(|n| n.to_string()).collect();
                let cname = view.cname.iter().map(|n| n.to_string()).collect();
                let a = view.a.iter().map(|ip| ip.to_string()).collect();
                let domain = domain.to_string();
                if was_provider && !is_provider(view) {
                    events.push(WorldEvent::DelegationDropped {
                        day: *day,
                        domain,
                        ns,
                        cname,
                        a,
                    });
                } else {
                    events.push(WorldEvent::DelegationAdded {
                        day: *day,
                        domain,
                        ns,
                        cname,
                        a,
                    });
                }
            }
        }
        events.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        WorldLog {
            header: WorldLogHeader {
                schema: WORLDLOG_SCHEMA.to_string(),
                version: WORLDLOG_VERSION,
                events: events.len(),
                fingerprint: data.fingerprint(),
                sim_window: data.sim_window,
                adns_window: data.adns_window,
                crl_window: data.crl_window,
                ct_raw_entries: data.ct_raw_entries as u64,
                ct_log_count: data.ct_log_count as u64,
                cdn: CdnSettings::from_provider(&data.cdn_config),
            },
            events,
        }
    }

    /// Reconstruct the datasets from facts alone — the world pass of the
    /// log's one reader (module docs list its rules). Popularity,
    /// reputation and ground truth are not world facts and come back
    /// empty — every replay-scoped output (Tables 3/4/7, Figs. 4/6/8/9,
    /// the audit) is byte-identical regardless. Fails with the first
    /// violated rule; events out of canonical order are refused before
    /// any is applied.
    pub fn to_datasets(&self) -> Result<WorldDatasets, String> {
        let mut faults = Faults::stop_at_first();
        let data = self.materialise(&mut faults);
        faults.verdict(data)
    }

    /// The world pass: apply every fact in canonical order, holding each
    /// to the world rules, then compare the reconstructed fingerprint.
    fn materialise(&self, faults: &mut Faults) -> Result<WorldDatasets, Stop> {
        if let Some(i) = self
            .events
            .windows(2)
            .position(|pair| matches!(pair, [a, b] if a.sort_key() > b.sort_key()))
        {
            return Err(faults.fatal(format!("event {}: out of canonical order", i + 1)));
        }
        let header = &self.header;
        for (name, window) in [
            ("sim_window", header.sim_window),
            ("adns_window", header.adns_window),
            ("crl_window", header.crl_window),
        ] {
            if window.end < window.start {
                faults.report(format!(
                    "{name} ends {} before it starts {}",
                    window.end, window.start
                ))?;
            }
        }
        let crl_window = header.crl_window;
        let mut monitor = CtMonitor::new();
        let mut crl = CrlDataset::new();
        crl.window = Some(crl_window);
        let mut crl_stats = ScrapeStats::default();
        let mut whois = WhoisDataset::new();
        let mut adns = DnsHistory::new();
        let mut issuers: BTreeSet<KeyId> = BTreeSet::new();
        let mut next_crl_index = 0u64;
        let mut whois_days: BTreeMap<&str, Date> = BTreeMap::new();
        let mut dns_days: BTreeMap<&str, Date> = BTreeMap::new();
        // Every issued certificate with its `notAfter` (`None` when its
        // DER does not decode), and every expiry event: joined after the
        // pass.
        let mut issued: Vec<(&str, Option<Date>)> = Vec::new();
        let mut expired: Vec<(&str, Date)> = Vec::new();
        for ev in &self.events {
            let kind = ev.kind();
            match ev {
                WorldEvent::CertIssued {
                    day,
                    cert,
                    der,
                    entry_count,
                } => {
                    issued.push((cert, None));
                    let parsed = match decode_cert(cert, der) {
                        Ok(parsed) => parsed,
                        Err(e) => {
                            faults.report(e)?;
                            continue;
                        }
                    };
                    if parsed.cert_id().to_string() != *cert {
                        faults.report(format!(
                            "cert-issued {cert}: DER decodes to a different certificate ({})",
                            parsed.cert_id()
                        ))?;
                        continue;
                    }
                    if *entry_count == 0 {
                        faults.report(format!("cert-issued {cert}: entry_count is zero"))?;
                        continue;
                    }
                    let validity = parsed.tbs.validity;
                    if validity.end <= validity.start {
                        faults.report(format!(
                            "cert-issued {cert}: degenerate validity {} – {}",
                            validity.start, validity.end
                        ))?;
                    }
                    if *day < validity.start {
                        faults.report(format!(
                            "cert-issued {cert}: first seen in CT {day} before notBefore {}",
                            validity.start
                        ))?;
                    }
                    if let Some(last) = issued.last_mut() {
                        last.1 = Some(parsed.tbs.not_after());
                    }
                    issuers.extend(parsed.tbs.authority_key_id());
                    let entries = usize::try_from(*entry_count).unwrap_or(usize::MAX);
                    // The corpus keeps a fresh copy: the decoded
                    // certificate's allocations sit among the decoder's
                    // freed temporaries, and keeping them instead raised
                    // the small world's peak memory by about a tenth.
                    monitor.ingest_entries(parsed.clone(), *day, entries);
                }
                // Expiry is implied by the DER; the event exists so the
                // log reads as a timeline without decoding anything, and
                // is held to the DER after the pass.
                WorldEvent::CertExpired { day, cert } => expired.push((cert, *day)),
                WorldEvent::CrlPublished {
                    ca, attempted, ok, ..
                } => {
                    if crl_stats
                        .per_ca
                        .insert(ca.clone(), (*attempted, *ok))
                        .is_some()
                    {
                        faults
                            .report(format!("crl-published {ca:?}: a second tally for one CA"))?;
                    }
                }
                WorldEvent::CrlEntryAdded {
                    day,
                    crl_index,
                    authority_key_id,
                    serial,
                    revoked,
                    reason,
                } => {
                    let expected = next_crl_index;
                    next_crl_index += 1;
                    if *crl_index != expected {
                        faults.report(format!(
                            "crl-entry-added: index {crl_index} where {expected} was expected"
                        ))?;
                        continue;
                    }
                    let (aki, serial, reason) =
                        match revocation_key(*crl_index, authority_key_id, serial, *reason) {
                            Ok(key) => key,
                            Err(e) => {
                                faults.report(e)?;
                                continue;
                            }
                        };
                    let record = RevocationRecord {
                        authority_key_id: aki,
                        serial,
                        revocation_date: *revoked,
                        reason,
                        observed: *day,
                    };
                    if *day < crl_window.start || *day > crl_window.end {
                        faults.report(format!(
                            "crl-entry-added #{crl_index}: observed {day} outside the collection window {} – {}",
                            crl_window.start, crl_window.end
                        ))?;
                    }
                    if !crl.add(record) {
                        faults.report(format!("crl-entry-added #{crl_index}: duplicate entry"))?;
                    }
                }
                WorldEvent::DomainRegistered { day, domain }
                | WorldEvent::DomainReRegistered { day, domain } => {
                    let name = match DomainName::parse(domain) {
                        Ok(name) => name,
                        Err(e) => {
                            faults.report(format!("{kind} {domain:?}: {e}"))?;
                            continue;
                        }
                    };
                    if let Some(prev) = advance(&mut whois_days, domain, *day) {
                        faults.report(format!(
                            "{kind} {domain:?}: creation date {day} does not follow {prev}"
                        ))?;
                        continue;
                    }
                    whois.observe(name, *day);
                }
                WorldEvent::DomainDropped { day, domain }
                | WorldEvent::DelegationAdded { day, domain, .. }
                | WorldEvent::DelegationDropped { day, domain, .. } => {
                    let targets = match ev {
                        WorldEvent::DelegationAdded { ns, cname, a, .. }
                        | WorldEvent::DelegationDropped { ns, cname, a, .. } => {
                            Some((ns, cname, a))
                        }
                        _ => None,
                    };
                    let (name, view) = match dns_change(kind, domain, targets) {
                        Ok(change) => change,
                        Err(e) => {
                            faults.report(e)?;
                            continue;
                        }
                    };
                    if let Some(prev) = advance(&mut dns_days, domain, *day) {
                        faults.report(format!(
                            "{kind} {domain:?}: change at {day} does not follow {prev}"
                        ))?;
                        continue;
                    }
                    adns.record_change(name, *day, view);
                }
            }
        }
        // A sort-merge join by certificate: maps keyed by 64-character ids
        // cost the small world's replay about a seventh of its time.
        issued.sort_unstable_by_key(|(cert, _)| *cert);
        expired.sort_unstable_by_key(|(cert, _)| *cert);
        let stray = |(c, _): &(&str, Date)| {
            format!("cert-expired {c}: names no certificate issued in the log")
        };
        let mut rest = expired.as_slice();
        for (cert, end) in &issued {
            let (strays, tail) = rest.split_at(rest.iter().take_while(|(c, _)| c < cert).count());
            let (own, tail) = tail.split_at(tail.iter().take_while(|(c, _)| c == cert).count());
            rest = tail;
            let wrong = end.and_then(|end| expiry_rule(cert, end, own).err());
            for violation in strays.iter().map(stray).chain(wrong) {
                faults.report(violation)?;
            }
        }
        for violation in rest.iter().map(stray) {
            faults.report(violation)?;
        }
        for (i, rec) in crl.records().iter().enumerate() {
            if !issuers.contains(&rec.authority_key_id) {
                faults.report(format!(
                    "crl-entry-added #{i}: authority key id {} matches no certificate issuer in the log",
                    rec.authority_key_id
                ))?;
            }
        }
        let cdn_config = header.cdn.to_provider().map_err(|e| faults.fatal(e))?;
        let data = WorldDatasets {
            monitor,
            crl,
            crl_stats,
            whois,
            adns,
            popularity: PopularityArchive::new(),
            reputation: ReputationFeed::new(),
            ground_truth: GroundTruth::default(),
            cdn_config,
            sim_window: header.sim_window,
            adns_window: header.adns_window,
            crl_window,
            ct_raw_entries: header.ct_raw_entries as usize,
            ct_log_count: header.ct_log_count as usize,
        };
        // Only fold on an otherwise clean log: a corrupted one already
        // has a sharper diagnostic.
        if faults.found.is_empty() {
            let fp = data.fingerprint();
            if fp != header.fingerprint {
                faults.report(format!(
                    "reconstructed fingerprint {fp:#018x} does not match header {:#018x}",
                    header.fingerprint
                ))?;
            }
        }
        Ok(data)
    }

    /// The certificate `cert`'s `cert-issued` event carries, decoded by
    /// the world pass's decoder and held to the same expiry rule: what a
    /// view of one certificate (`stale-bench timeline`) checks instead of
    /// running the whole world pass.
    pub fn certificate(&self, cert: &str) -> Result<Certificate, String> {
        let mut der = None;
        let mut expiries = Vec::new();
        for ev in &self.events {
            match ev {
                WorldEvent::CertIssued {
                    cert: c, der: d, ..
                } if c == cert => der = Some(d),
                WorldEvent::CertExpired { day, cert: c } if c == cert => {
                    expiries.push((cert, *day))
                }
                _ => {}
            }
        }
        let der = der.ok_or_else(|| format!("no cert-issued event for {cert}"))?;
        let parsed = decode_cert(cert, der)?;
        expiry_rule(cert, parsed.tbs.not_after(), &expiries)?;
        Ok(parsed)
    }

    /// Per-kind event tally, every kind pre-seeded at zero.
    pub fn tally(&self) -> WorldLogTally {
        let mut tally: BTreeMap<String, u64> = EVENT_KINDS
            .iter()
            .map(|k| ((*k).to_string(), 0u64))
            .collect();
        for ev in &self.events {
            *tally.entry(ev.kind().to_string()).or_insert(0) += 1;
        }
        WorldLogTally {
            tally,
            total: self.events.len() as u64,
        }
    }

    /// Export as JSONL: header line, one event per line in stored order
    /// (canonical for any log built by [`WorldLog::from_datasets`] or a
    /// rewrite), tally trailer.
    // stale-lint: entry(serial)
    pub fn to_jsonl(&self) -> String {
        let mut out = serde_json::to_string(&self.header).unwrap_or_default();
        out.push('\n');
        for ev in &self.events {
            out.push_str(&serde_json::to_string(ev).unwrap_or_default());
            out.push('\n');
        }
        out.push_str(&serde_json::to_string(&self.tally()).unwrap_or_default());
        out.push('\n');
        out
    }

    /// Parse a JSONL export — the line pass of the log's one reader
    /// (module docs list its rules). Fails with the first violated
    /// rule; [`WorldLog::to_datasets`] holds the world rules.
    pub fn from_jsonl(text: &str) -> Result<WorldLog, String> {
        let mut faults = Faults::stop_at_first();
        let log = decode_lines(text, &mut faults);
        faults.verdict(log)
    }

    /// The §6 lifetime-cap rewrite: clamp every certificate's validity
    /// to at most `cap_days` days, re-derive the dependent facts
    /// (DER bytes, dedup identities, expiry events) and refresh the
    /// header. The result is a valid log of the what-if world — replay
    /// it to get the capped Figs. 8–9 without building a fresh world.
    pub fn rewrite_cap_days(&self, cap_days: i64) -> Result<WorldLog, String> {
        if cap_days <= 0 {
            return Err(format!("cap-days must be positive, got {cap_days}"));
        }
        let cap = Duration::days(cap_days);
        let mut events = Vec::with_capacity(self.events.len());
        let mut expiries: Vec<(Date, String)> = Vec::new();
        for ev in &self.events {
            match ev {
                WorldEvent::CertIssued {
                    day,
                    cert,
                    der,
                    entry_count,
                } => {
                    let mut parsed = decode_cert(cert, der)?;
                    parsed.tbs.validity = parsed.tbs.validity.cap_len(cap);
                    let capped_cert = parsed.cert_id().to_string();
                    expiries.push((parsed.tbs.not_after(), capped_cert.clone()));
                    events.push(WorldEvent::CertIssued {
                        day: *day,
                        cert: capped_cert,
                        der: hex::encode(&parsed.encode()),
                        entry_count: *entry_count,
                    });
                }
                // Re-emitted below from the capped validity.
                WorldEvent::CertExpired { .. } => {}
                other => events.push(other.clone()),
            }
        }
        for (day, cert) in expiries {
            events.push(WorldEvent::CertExpired { day, cert });
        }
        // New identities and expiry days move events: restore canonical
        // order before the log is handed on.
        events.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        let mut header = self.header.clone();
        header.events = events.len();
        // Capping can in principle collapse dedup identities, so re-fold
        // the fingerprint from the rewritten stream.
        header.fingerprint = fold_from_events(&header, &events);
        Ok(WorldLog { header, events })
    }
}

/// Where the loaders' rule violations go. [`WorldLog::from_jsonl`] and
/// [`WorldLog::to_datasets`] stop at the first; [`validate_worldlog_jsonl`]
/// runs the same passes and collects them all, so each rule is written
/// once.
struct Faults {
    collect: bool,
    found: Vec<String>,
}

/// A pass cannot go on: it found a violation and its caller stops at the
/// first, or nothing past the violation can be checked.
struct Stop;

impl Faults {
    fn stop_at_first() -> Faults {
        Faults {
            collect: false,
            found: Vec::new(),
        }
    }

    fn collect_all() -> Faults {
        Faults {
            collect: true,
            found: Vec::new(),
        }
    }

    /// Record a violation the pass can check past.
    fn report(&mut self, violation: String) -> Result<(), Stop> {
        self.found.push(violation);
        if self.collect {
            Ok(())
        } else {
            Err(Stop)
        }
    }

    /// Record a violation past which nothing can be checked.
    fn fatal(&mut self, violation: String) -> Stop {
        self.found.push(violation);
        Stop
    }

    /// A loader's answer: the value when its pass found nothing, else
    /// the first violation.
    fn verdict<T>(self, outcome: Result<T, Stop>) -> Result<T, String> {
        match (outcome, self.found.into_iter().next()) {
            (Ok(value), None) => Ok(value),
            (_, Some(first)) => Err(first),
            (Err(Stop), None) => Err("world log refused".to_string()),
        }
    }
}

/// The line pass: header identity, one event per line that parses and
/// keeps the line rules, canonical order, and a trailer whose tally
/// matches the lines.
fn decode_lines(text: &str, faults: &mut Faults) -> Result<WorldLog, Stop> {
    let mut lines = text.lines();
    let first = lines
        .next()
        .ok_or_else(|| faults.fatal("empty world log".to_string()))?;
    let header = serde_json::from_str::<Value>(first)
        .map_err(|e| e.to_string())
        .and_then(|v| WorldLogHeader::deserialize(&v).map_err(|e| e.to_string()))
        .map_err(|e| faults.fatal(format!("world-log header: {e}")))?;
    if header.schema != WORLDLOG_SCHEMA {
        faults.report(format!(
            "schema {:?} is not {WORLDLOG_SCHEMA:?}",
            header.schema
        ))?;
    }
    if header.version != WORLDLOG_VERSION {
        faults.report(format!(
            "version {} is not {WORLDLOG_VERSION}",
            header.version
        ))?;
    }
    // The header's count is only a capacity hint: no event line is
    // shorter than 64 bytes.
    let mut events: Vec<WorldEvent> = Vec::with_capacity(header.events.min(text.len() / 64));
    let mut trailer: Option<WorldLogTally> = None;
    for (i, line) in lines.enumerate() {
        let lineno = i + 2;
        if line.trim().is_empty() {
            continue;
        }
        if trailer.is_some() {
            faults.report(format!("line {lineno}: content after the trailer"))?;
            continue;
        }
        let value: Value = match serde_json::from_str(line) {
            Ok(value) => value,
            Err(e) => {
                faults.report(format!("line {lineno}: {e}"))?;
                continue;
            }
        };
        if value.get("kind").is_none() {
            match WorldLogTally::deserialize(&value) {
                Ok(t) => trailer = Some(t),
                Err(e) => faults.report(format!("line {lineno}: trailer: {e}"))?,
            }
            continue;
        }
        let ev = match WorldEvent::deserialize(&value) {
            Ok(ev) => ev,
            Err(e) => {
                faults.report(format!("line {lineno}: {e}"))?;
                continue;
            }
        };
        check_line(&ev, lineno, faults)?;
        if events
            .last()
            .is_some_and(|prev| prev.sort_key() > ev.sort_key())
        {
            faults.report(format!("line {lineno}: events out of canonical order"))?;
        }
        events.push(ev);
    }
    let log = WorldLog { header, events };
    match trailer {
        None => faults.report("missing trailer line".to_string())?,
        Some(t) if t.total != log.events.len() as u64 => faults.report(format!(
            "trailer declares {} event(s) but the file holds {}",
            t.total,
            log.events.len()
        ))?,
        Some(t) if t != log.tally() => {
            faults.report("trailer tally does not match the event lines".to_string())?
        }
        Some(_) => {}
    }
    if log.header.events != log.events.len() {
        faults.report(format!(
            "header declares {} event(s) but the file holds {}",
            log.header.events,
            log.events.len()
        ))?;
    }
    Ok(log)
}

fn is_hex_id(s: &str, len: usize) -> bool {
    s.len() == len && hex::is_lowercase(s)
}

/// The per-line rules of the line pass.
fn check_line(ev: &WorldEvent, lineno: usize, faults: &mut Faults) -> Result<(), Stop> {
    match ev {
        WorldEvent::CertIssued { cert, .. } | WorldEvent::CertExpired { cert, .. } => {
            if !is_hex_id(cert, 64) {
                faults.report(format!(
                    "line {lineno}: cert {cert:?} is not 64 lowercase hex chars"
                ))?;
            }
            if let WorldEvent::CertIssued { der, .. } = ev {
                if !hex::is_lowercase(der) {
                    faults.report(format!("line {lineno}: der is not lowercase hex"))?;
                }
            }
        }
        WorldEvent::CrlPublished {
            ca, attempted, ok, ..
        } => {
            if ca.is_empty() {
                faults.report(format!("line {lineno}: ca name is empty"))?;
            }
            if ok > attempted {
                faults.report(format!(
                    "line {lineno}: {ok} successes out of {attempted} attempts"
                ))?;
            }
        }
        WorldEvent::CrlEntryAdded {
            authority_key_id,
            serial,
            ..
        } => {
            if !is_hex_id(authority_key_id, 40) {
                faults.report(format!(
                    "line {lineno}: authority_key_id {authority_key_id:?} is not 40 lowercase hex chars"
                ))?;
            }
            if !is_hex_id(serial, 32) {
                faults.report(format!(
                    "line {lineno}: serial {serial:?} is not 32 lowercase hex chars"
                ))?;
            }
        }
        WorldEvent::DelegationAdded { ns, cname, a, .. }
        | WorldEvent::DelegationDropped { ns, cname, a, .. } => {
            if ns.is_empty() && cname.is_empty() && a.is_empty() {
                faults.report(format!(
                    "line {lineno}: delegation event with an empty view (should be domain-dropped)"
                ))?;
            }
        }
        WorldEvent::DomainRegistered { .. }
        | WorldEvent::DomainReRegistered { .. }
        | WorldEvent::DomainDropped { .. } => {}
    }
    Ok(())
}

/// Decode a `cert-issued` event's DER body.
fn decode_cert(cert: &str, der: &str) -> Result<Certificate, String> {
    let bytes = hex::decode(der).ok_or_else(|| format!("cert-issued {cert}: der is not hex"))?;
    Certificate::decode(&bytes).map_err(|e| format!("cert-issued {cert}: bad DER: {e:?}"))
}

/// The expiry rule: a certificate has exactly one `cert-expired` event
/// (`expiries` are those naming it), dated on its DER `notAfter`.
fn expiry_rule(cert: &str, not_after: Date, expiries: &[(&str, Date)]) -> Result<(), String> {
    match expiries {
        [(_, day)] if *day == not_after => Ok(()),
        [] => Err(format!("cert-issued {cert}: no cert-expired event")),
        [(_, day)] => Err(format!(
            "cert-expired {cert}: dated {day}, but the DER's notAfter is {not_after}"
        )),
        more => Err(format!(
            "cert-expired {cert}: {} expiry events for one certificate",
            more.len()
        )),
    }
}

/// The authority key, serial and reason a `crl-entry-added` event names.
fn revocation_key(
    crl_index: u64,
    authority_key_id: &str,
    serial: &str,
    reason: u8,
) -> Result<(KeyId, SerialNumber, RevocationReason), String> {
    let aki = hex::decode(authority_key_id)
        .and_then(|b| <[u8; 20]>::try_from(b).ok())
        .ok_or_else(|| format!("crl-entry-added #{crl_index}: bad authority key id"))?;
    let serial = u128::from_str_radix(serial, 16)
        .map_err(|_| format!("crl-entry-added #{crl_index}: bad serial"))?;
    let reason = RevocationReason::from_code(reason)
        .ok_or_else(|| format!("crl-entry-added #{crl_index}: unknown reason code {reason}"))?;
    Ok((KeyId::from_bytes(aki), SerialNumber(serial), reason))
}

/// The domain and resolution view a DNS event records: empty for a
/// `domain-dropped`, else its NS, CNAME and A targets.
fn dns_change(
    kind: &str,
    domain: &str,
    targets: Option<(&Vec<String>, &Vec<String>, &Vec<String>)>,
) -> Result<(DomainName, DnsView), String> {
    let bad = |e: stale_types::Error| format!("{kind} {domain:?}: {e}");
    let name = DomainName::parse(domain).map_err(bad)?;
    let mut view = DnsView::default();
    if let Some((ns, cname, a)) = targets {
        for t in ns {
            view.ns.insert(DomainName::parse(t).map_err(bad)?);
        }
        for t in cname {
            view.cname.insert(DomainName::parse(t).map_err(bad)?);
        }
        for ip in a {
            view.a.insert(
                parse_ipv4(ip).ok_or_else(|| format!("{kind} {domain:?}: bad address {ip:?}"))?,
            );
        }
    }
    Ok((name, view))
}

/// Record `day` as `domain`'s latest in one per-domain stream; the
/// previous day when `day` does not strictly follow it.
fn advance<'a>(latest: &mut BTreeMap<&'a str, Date>, domain: &'a str, day: Date) -> Option<Date> {
    latest.insert(domain, day).filter(|prev| *prev >= day)
}

/// [`fold_fingerprint`] computed from an event stream plus header
/// configuration, so a rewrite can refresh the header without
/// reconstructing the datasets.
fn fold_from_events(header: &WorldLogHeader, events: &[WorldEvent]) -> u64 {
    let mut certs: BTreeSet<&str> = BTreeSet::new();
    let mut crl_len = 0usize;
    let mut whois_records = 0usize;
    let mut whois_domains: BTreeSet<&str> = BTreeSet::new();
    let mut adns_domains: BTreeSet<&str> = BTreeSet::new();
    for ev in events {
        match ev {
            WorldEvent::CertIssued { cert, .. } => {
                certs.insert(cert);
            }
            WorldEvent::CrlEntryAdded { .. } => crl_len += 1,
            WorldEvent::DomainRegistered { domain, .. }
            | WorldEvent::DomainReRegistered { domain, .. } => {
                whois_records += 1;
                whois_domains.insert(domain);
            }
            WorldEvent::DomainDropped { domain, .. }
            | WorldEvent::DelegationAdded { domain, .. }
            | WorldEvent::DelegationDropped { domain, .. } => {
                adns_domains.insert(domain);
            }
            WorldEvent::CertExpired { .. } | WorldEvent::CrlPublished { .. } => {}
        }
    }
    fold_fingerprint(
        certs.len(),
        header.ct_raw_entries as usize,
        header.ct_log_count as usize,
        crl_len,
        whois_records,
        whois_domains.len(),
        adns_domains.len(),
        [header.sim_window, header.adns_window, header.crl_window],
    )
}

/// Every violation in a `stale-obs-worldlog` JSONL stream, found by the
/// log's own reader: the line pass of [`WorldLog::from_jsonl`] and, when
/// that is clean, the world pass of [`WorldLog::to_datasets`], each run
/// to completion instead of stopping at the first violation. Empty
/// exactly when both loaders accept the text. Pure and panic-free on
/// any input — `stale-lint preflight` wraps it.
pub fn validate_worldlog_jsonl(text: &str) -> Vec<String> {
    let mut faults = Faults::collect_all();
    if let Ok(log) = decode_lines(text, &mut faults) {
        if faults.found.is_empty() {
            // The datasets are only built to be checked.
            let _ = log.materialise(&mut faults);
        }
    }
    faults.found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScenarioConfig;
    use crate::world::World;
    use std::sync::OnceLock;

    /// The tiny world's log, simulated once for the whole module.
    fn tiny() -> &'static WorldLog {
        static LOG: OnceLock<WorldLog> = OnceLock::new();
        LOG.get_or_init(|| WorldLog::from_datasets(&World::run(ScenarioConfig::tiny())))
    }

    /// Re-sort and re-seal a hand-edited log (event count, fingerprint)
    /// so only the edit's own rule can fire.
    fn reseal(mut log: WorldLog) -> WorldLog {
        log.events.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        log.header.events = log.events.len();
        log.header.fingerprint = fold_from_events(&log.header, &log.events);
        log
    }

    /// The serialized log is refused by its reader with a violation
    /// naming `needle`, and preflight's list names it too.
    fn refused(log: &WorldLog, needle: &str) {
        let jsonl = log.to_jsonl();
        let err = WorldLog::from_jsonl(&jsonl)
            .and_then(|l| l.to_datasets())
            .err()
            .expect("the reader must refuse the log");
        assert!(err.contains(needle), "{err}");
        let found = validate_worldlog_jsonl(&jsonl);
        assert!(found.iter().any(|m| m.contains(needle)), "{found:?}");
    }

    /// The first event matching `pick`, mutably.
    fn first(log: &mut WorldLog, pick: impl Fn(&WorldEvent) -> bool) -> &mut WorldEvent {
        log.events
            .iter_mut()
            .find(|ev| pick(ev))
            .expect("the tiny world has such an event")
    }

    #[test]
    fn log_round_trips_through_jsonl() {
        let log = tiny();
        let jsonl = log.to_jsonl();
        let parsed = WorldLog::from_jsonl(&jsonl).expect("parses");
        assert_eq!(&parsed, log);
        assert_eq!(parsed.to_jsonl(), jsonl, "canonical serialization");
    }

    #[test]
    fn reconstruction_preserves_the_fingerprint_and_summary() {
        let data = World::run(ScenarioConfig::tiny());
        let log = WorldLog::from_datasets(&data);
        assert!(!log.events.is_empty());
        let rebuilt = log.to_datasets().expect("reconstructs");
        assert_eq!(rebuilt.fingerprint(), data.fingerprint());
        assert_eq!(rebuilt.summary(), data.summary());
        assert_eq!(rebuilt.crl.records(), data.crl.records());
        assert_eq!(rebuilt.crl_stats.per_ca, data.crl_stats.per_ca);
        assert_eq!(
            log.tally().tally["cert-issued"],
            data.monitor.dedup_count() as u64
        );
        assert_eq!(log.tally().tally["crl-entry-added"], data.crl.len() as u64);
    }

    #[test]
    fn events_are_canonically_sorted_and_the_export_is_clean() {
        let log = tiny();
        for pair in log.events.windows(2) {
            assert!(pair[0].sort_key() <= pair[1].sort_key());
        }
        let tally = log.tally();
        assert_eq!(tally.total, log.events.len() as u64);
        assert_eq!(tally.tally.len(), EVENT_KINDS.len());
        let validation = validate_worldlog_jsonl(&log.to_jsonl());
        assert!(validation.is_empty(), "clean log: {validation:?}");
    }

    #[test]
    fn truncated_log_is_rejected() {
        let jsonl = tiny().to_jsonl();
        let truncated: String = jsonl
            .lines()
            .take(jsonl.lines().count() - 1)
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(WorldLog::from_jsonl(&truncated)
            .unwrap_err()
            .contains("missing trailer"));
        assert!(!validate_worldlog_jsonl(&truncated).is_empty());
        assert!(WorldLog::from_jsonl("").is_err());
    }

    #[test]
    fn corrupted_der_is_refused() {
        let mut broken = tiny().clone();
        if let WorldEvent::CertIssued { der, .. } = first(&mut broken, |ev| {
            matches!(ev, WorldEvent::CertIssued { .. })
        }) {
            // Flip one hex digit in the DER body.
            let flipped = if der.as_bytes()[10] == b'0' { "1" } else { "0" };
            der.replace_range(10..11, flipped);
        }
        refused(&broken, "bad DER");
    }

    #[test]
    fn expiries_are_held_to_the_der() {
        let issued = |log: &WorldLog| {
            log.events
                .iter()
                .find_map(|ev| match ev {
                    WorldEvent::CertIssued { cert, .. } => Some(cert.clone()),
                    _ => None,
                })
                .expect("the tiny world issues certificates")
        };
        let is_expiry_of = |cert: &str, ev: &WorldEvent| matches!(ev, WorldEvent::CertExpired { cert: c, .. } if c == cert);
        let cert = issued(tiny());
        assert!(tiny().certificate(&cert).is_ok());

        // Moved past its notAfter: refused by the world pass and by the
        // one-certificate view alike.
        let mut moved = tiny().clone();
        if let WorldEvent::CertExpired { day, .. } = first(&mut moved, |ev| is_expiry_of(&cert, ev))
        {
            *day = Date::parse("2030-01-01").expect("a day");
        }
        let moved = reseal(moved);
        refused(&moved, "notAfter");
        assert!(moved.certificate(&cert).unwrap_err().contains("notAfter"));

        // Missing, doubled, or naming a certificate the log never issued.
        let mut missing = tiny().clone();
        missing.events.retain(|ev| !is_expiry_of(&cert, ev));
        refused(&reseal(missing), "no cert-expired event");
        let mut doubled = tiny().clone();
        let expiry = doubled
            .events
            .iter()
            .find(|ev| is_expiry_of(&cert, ev))
            .cloned()
            .expect("an expiry");
        doubled.events.push(expiry);
        let doubled = reseal(doubled);
        refused(&doubled, "2 expiry events");
        assert!(doubled.certificate(&cert).is_err());
        let mut stray = tiny().clone();
        stray.events.push(WorldEvent::CertExpired {
            day: Date::parse("2030-01-01").expect("a day"),
            cert: "f".repeat(64),
        });
        refused(&reseal(stray), "names no certificate");
    }

    // The line rules: refused by `from_jsonl` itself.

    #[test]
    fn reordered_lines_are_refused_not_resorted() {
        let jsonl = tiny().to_jsonl();
        let mut lines: Vec<&str> = jsonl.lines().collect();
        lines.swap(1, 2);
        let swapped: String = lines.iter().map(|l| format!("{l}\n")).collect();
        let err = WorldLog::from_jsonl(&swapped).unwrap_err();
        assert!(err.contains("canonical order"), "{err}");
        assert!(validate_worldlog_jsonl(&swapped)
            .iter()
            .any(|m| m.contains("canonical order")));
    }

    #[test]
    fn successes_above_attempts_are_refused() {
        let mut log = tiny().clone();
        if let WorldEvent::CrlPublished { attempted, ok, .. } =
            first(&mut log, |ev| matches!(ev, WorldEvent::CrlPublished { .. }))
        {
            *ok = *attempted + 5;
        }
        let err = WorldLog::from_jsonl(&log.to_jsonl()).unwrap_err();
        assert!(err.contains("successes out of"), "{err}");
    }

    #[test]
    fn identifiers_of_the_wrong_length_are_refused() {
        let mut log = tiny().clone();
        if let WorldEvent::CertExpired { cert, .. } =
            first(&mut log, |ev| matches!(ev, WorldEvent::CertExpired { .. }))
        {
            cert.truncate(63);
        }
        let err = WorldLog::from_jsonl(&log.to_jsonl()).unwrap_err();
        assert!(err.contains("64 lowercase hex"), "{err}");

        let mut log = tiny().clone();
        if let WorldEvent::CrlEntryAdded { serial, .. } = first(&mut log, |ev| {
            matches!(ev, WorldEvent::CrlEntryAdded { .. })
        }) {
            // Parses as a number, but is not the canonical spelling.
            serial.replace_range(0..1, "+");
        }
        let err = WorldLog::from_jsonl(&log.to_jsonl()).unwrap_err();
        assert!(err.contains("32 lowercase hex"), "{err}");
    }

    #[test]
    fn uppercase_der_is_refused() {
        // Uppercase digits decode to the same bytes: accepting them would
        // load two different files as one world.
        let mut log = tiny().clone();
        if let WorldEvent::CertIssued { der, .. } =
            first(&mut log, |ev| matches!(ev, WorldEvent::CertIssued { .. }))
        {
            der.make_ascii_uppercase();
        }
        refused(&log, "der is not lowercase hex");
    }

    #[test]
    fn an_empty_delegation_view_is_refused() {
        let mut log = tiny().clone();
        if let WorldEvent::DelegationAdded { ns, cname, a, .. } = first(&mut log, |ev| {
            matches!(ev, WorldEvent::DelegationAdded { .. })
        }) {
            ns.clear();
            cname.clear();
            a.clear();
        }
        let err = WorldLog::from_jsonl(&log.to_jsonl()).unwrap_err();
        assert!(err.contains("empty view"), "{err}");
    }

    // The world rules: refused by `to_datasets`, one case per rule.

    #[test]
    fn events_out_of_order_are_refused_before_any_is_applied() {
        // Two DNS changes of one domain, swapped: applying them would
        // append a change before its predecessor.
        let mut log = tiny().clone();
        let domain_of = |ev: &WorldEvent| match ev {
            WorldEvent::DelegationAdded { domain, .. } => Some(domain.clone()),
            _ => None,
        };
        let positions: Vec<usize> = log
            .events
            .iter()
            .enumerate()
            .filter_map(|(i, ev)| domain_of(ev).map(|d| (i, d)))
            .fold(BTreeMap::<String, Vec<usize>>::new(), |mut m, (i, d)| {
                m.entry(d).or_default().push(i);
                m
            })
            .into_values()
            .find(|at| at.len() >= 2)
            .expect("some domain changes twice");
        log.events.swap(positions[0], positions[1]);
        let err = log.to_datasets().err().expect("refused");
        assert!(err.contains("out of canonical order"), "{err}");
    }

    #[test]
    fn a_degenerate_window_is_refused() {
        let mut log = tiny().clone();
        let w = log.header.adns_window;
        log.header.adns_window = DateInterval {
            start: w.end,
            end: w.start,
        };
        refused(&reseal(log), "adns_window ends");
    }

    #[test]
    fn a_degenerate_validity_is_refused() {
        let mut log = tiny().clone();
        if let WorldEvent::CertIssued { cert, der, .. } =
            first(&mut log, |ev| matches!(ev, WorldEvent::CertIssued { .. }))
        {
            let mut parsed = decode_cert(cert, der).expect("clean DER");
            let start = parsed.tbs.validity.start;
            parsed.tbs.validity = DateInterval { start, end: start };
            *cert = parsed.cert_id().to_string();
            *der = hex::encode(&parsed.encode());
        }
        refused(&reseal(log), "degenerate validity");
    }

    #[test]
    fn a_certificate_seen_before_its_not_before_is_refused() {
        let mut log = tiny().clone();
        if let WorldEvent::CertIssued { day, cert, der, .. } =
            first(&mut log, |ev| matches!(ev, WorldEvent::CertIssued { .. }))
        {
            let parsed = decode_cert(cert, der).expect("clean DER");
            *day = parsed.tbs.not_before().pred();
        }
        refused(&reseal(log), "before notBefore");
    }

    #[test]
    fn a_revocation_under_an_unknown_issuer_is_refused() {
        let mut log = tiny().clone();
        if let WorldEvent::CrlEntryAdded {
            authority_key_id, ..
        } = first(&mut log, |ev| {
            matches!(ev, WorldEvent::CrlEntryAdded { .. })
        }) {
            *authority_key_id = "ab".repeat(20);
        }
        refused(&log, "matches no certificate issuer");
    }

    #[test]
    fn a_revocation_observed_outside_the_crl_window_is_refused() {
        // The last entry, moved past the window's end, keeps the CRL
        // indices dense.
        let mut log = tiny().clone();
        let end = log.header.crl_window.end;
        if let Some(WorldEvent::CrlEntryAdded { day, .. }) = log
            .events
            .iter_mut()
            .rev()
            .find(|ev| matches!(ev, WorldEvent::CrlEntryAdded { .. }))
        {
            *day = end + Duration::days(30);
        }
        refused(&reseal(log), "outside the collection window");
    }

    #[test]
    fn a_repeated_revocation_is_refused() {
        let mut log = tiny().clone();
        let last = log
            .events
            .iter()
            .rev()
            .find(|ev| matches!(ev, WorldEvent::CrlEntryAdded { .. }))
            .cloned();
        if let Some(WorldEvent::CrlEntryAdded {
            day,
            crl_index,
            authority_key_id,
            serial,
            revoked,
            reason,
        }) = last
        {
            log.events.push(WorldEvent::CrlEntryAdded {
                day,
                crl_index: crl_index + 1,
                authority_key_id,
                serial,
                revoked,
                reason,
            });
        }
        refused(&reseal(log), "duplicate entry");
    }

    #[test]
    fn a_whois_creation_that_does_not_follow_the_last_is_refused() {
        let mut log = tiny().clone();
        let repeat = log.events.iter().find_map(|ev| match ev {
            WorldEvent::DomainRegistered { day, domain } => Some(WorldEvent::DomainReRegistered {
                day: *day,
                domain: domain.clone(),
            }),
            _ => None,
        });
        log.events.extend(repeat);
        refused(&reseal(log), "does not follow");
    }

    #[test]
    fn a_dns_change_that_does_not_follow_the_last_is_refused() {
        let mut log = tiny().clone();
        let repeat = log.events.iter().find_map(|ev| match ev {
            WorldEvent::DelegationAdded { day, domain, .. } => Some(WorldEvent::DomainDropped {
                day: *day,
                domain: domain.clone(),
            }),
            _ => None,
        });
        log.events.extend(repeat);
        refused(&reseal(log), "does not follow");
    }

    #[test]
    fn an_entry_count_is_applied_in_one_step() {
        // Replaying each entry one by one would never finish this log.
        let mut log = tiny().clone();
        let huge = u64::MAX / 2;
        let mut named = String::new();
        if let WorldEvent::CertIssued {
            cert, entry_count, ..
        } = first(&mut log, |ev| matches!(ev, WorldEvent::CertIssued { .. }))
        {
            *entry_count = huge;
            named = cert.clone();
        }
        let data = log.to_datasets().expect("the log loads");
        let rebuilt = data
            .monitor
            .corpus_unfiltered()
            .find(|c| c.cert_id.to_string() == named)
            .expect("the certificate is in the corpus");
        assert_eq!(rebuilt.entry_count as u64, huge);
    }

    #[test]
    fn cap_rewrite_caps_every_validity_and_replays() {
        let log = tiny();
        let capped = log.rewrite_cap_days(90).expect("rewrites");
        assert_eq!(
            capped.tally().tally["cert-issued"],
            log.tally().tally["cert-issued"]
        );
        let rebuilt = capped.to_datasets().expect("capped log replays");
        for c in rebuilt.monitor.corpus_unfiltered() {
            assert!(c.certificate.tbs.validity.len() <= Duration::days(90));
        }
        let validation = validate_worldlog_jsonl(&capped.to_jsonl());
        assert!(validation.is_empty(), "capped log is clean: {validation:?}");
    }

    #[test]
    fn cap_rewrite_rejects_nonpositive_caps() {
        let log = tiny();
        assert!(log.rewrite_cap_days(0).is_err());
        assert!(log.rewrite_cap_days(-3).is_err());
    }
}
