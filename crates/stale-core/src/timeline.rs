//! Time-travel `timeline`: one chronological view per certificate,
//! joining all three layers of the audit model.
//!
//! Layer 1 is the world-fact log ([`worldsim::WorldLog`]): the events
//! that created the candidate — its CT issuance, the CRL entry that
//! revoked it, the WHOIS and delegation history of the domains it
//! names. Layer 2 is the decision audit ([`obs::AuditReport`]): what
//! each detector decided about the fingerprint and why. Layer 3 is
//! operational telemetry (the spans of the runs that touched it).
//! `stale-bench timeline` renders this view from exported files, each
//! read by its format's one reader; `stale-served` serves the same
//! rendering from resident state over the `timeline` frame command and
//! `GET /timeline?fp=`. This module parses nothing itself.
//!
//! The join keys are facts of the certificate itself, recovered from
//! the hex DER carried by its `cert-issued` event
//! ([`WorldLog::certificate`], which also holds the certificate to the
//! log's expiry rule): CRL entries join on (authority key id, serial),
//! domain lifecycle and delegation events join on the SAN list (exact
//! match or parent of a SAN).

use obs::audit::{render_provenance, resolve_fingerprint_prefix, AuditReport};
use obs::SpanRecord;
use std::collections::BTreeSet;
use worldsim::{WorldEvent, WorldLog};
use x509::revocation::RevocationReason;

/// Resolve a fingerprint prefix against the `cert-issued` events of a
/// world log, with [`AuditReport::decisions_for`]'s prefix semantics.
pub fn resolve_fingerprint(log: &WorldLog, prefix: &str) -> Result<String, String> {
    let matching: BTreeSet<&str> = log
        .events
        .iter()
        .filter_map(|ev| match ev {
            WorldEvent::CertIssued { cert, .. } if cert.starts_with(prefix) => Some(cert.as_str()),
            _ => None,
        })
        .collect();
    resolve_fingerprint_prefix(prefix, &matching, "cert-issued event").map(str::to_string)
}

/// Whether a world-log domain event concerns one of the certificate's
/// SANs: the event domain is a SAN, or a SAN sits under it.
fn concerns_sans(sans: &[String], domain: &str) -> bool {
    sans.iter()
        .any(|san| san == domain || san.ends_with(&format!(".{domain}")))
}

fn reason_name(code: u8) -> String {
    match RevocationReason::from_code(code) {
        Some(r) => format!("{r:?}"),
        None => format!("code-{code}"),
    }
}

fn list(items: &[String]) -> String {
    if items.is_empty() {
        "-".to_string()
    } else {
        items.join(",")
    }
}

/// Render the joined timeline for one certificate.
///
/// `audit` and `spans` are optional layers: `None` renders a
/// `(not loaded)` placeholder so the world-fact section is always
/// available on its own. Errors on unknown or ambiguous prefixes
/// (byte-compatible shape with `stale-bench explain` errors) and on a
/// certificate whose DER does not decode or whose expiry events break
/// the log's rule.
pub fn render_timeline(
    log: &WorldLog,
    audit: Option<&AuditReport>,
    spans: Option<&[SpanRecord]>,
    prefix: &str,
) -> Result<String, String> {
    let cert = resolve_fingerprint(log, prefix)?;
    let parsed = log.certificate(&cert)?;
    let serial = parsed.tbs.serial.to_string();
    let aki = parsed.tbs.authority_key_id().map(|k| k.to_string());
    let sans: Vec<String> = parsed.tbs.san().iter().map(|d| d.to_string()).collect();

    let mut out = format!("timeline fingerprint {cert}\n");
    out.push_str(&format!(
        "  serial {serial} aki {}\n",
        aki.as_deref().unwrap_or("-")
    ));
    out.push_str(&format!("  sans   {}\n", list(&sans)));

    // Layer 1: world facts, in canonical (chronological) log order.
    let mut rows = Vec::new();
    for ev in &log.events {
        let row = match ev {
            WorldEvent::CertIssued {
                day,
                cert: c,
                entry_count,
                ..
            } if *c == cert => Some(format!(
                "{day}  cert-issued           ct-entries={entry_count}"
            )),
            WorldEvent::CertExpired { day, cert: c } if *c == cert => {
                Some(format!("{day}  cert-expired          validity ends"))
            }
            WorldEvent::CrlEntryAdded {
                day,
                crl_index,
                authority_key_id,
                serial: s,
                revoked,
                reason,
            } if Some(authority_key_id.as_str()) == aki.as_deref() && *s == serial => {
                Some(format!(
                    "{day}  crl-entry-added       crl #{crl_index} revoked={revoked} reason={}",
                    reason_name(*reason)
                ))
            }
            WorldEvent::DomainRegistered { day, domain }
            | WorldEvent::DomainReRegistered { day, domain }
            | WorldEvent::DomainDropped { day, domain }
                if concerns_sans(&sans, domain) =>
            {
                Some(format!("{day}  {:20}  {domain}", ev.kind()))
            }
            WorldEvent::DelegationAdded {
                day,
                domain,
                ns,
                cname,
                ..
            }
            | WorldEvent::DelegationDropped {
                day,
                domain,
                ns,
                cname,
                ..
            } if concerns_sans(&sans, domain) => Some(format!(
                "{day}  {:20}  {domain} ns={} cname={}",
                ev.kind(),
                list(ns),
                list(cname)
            )),
            _ => None,
        };
        if let Some(row) = row {
            rows.push(row);
        }
    }
    out.push_str(&format!("world events ({})\n", rows.len()));
    for row in &rows {
        out.push_str(&format!("  {row}\n"));
    }

    // Layer 2: audit decisions about this fingerprint.
    match audit {
        None => out.push_str("audit decisions (not loaded)\n"),
        Some(report) => match report.decisions_for(&cert) {
            Ok((_, chain)) => {
                out.push_str(&format!("audit decisions ({})\n", chain.len()));
                for d in chain {
                    out.push_str(&format!(
                        "  [{}] {:24} {}\n",
                        d.detector.as_str(),
                        d.verdict.as_str(),
                        render_provenance(&d.provenance)
                    ));
                }
            }
            Err(e) if e.starts_with("no decision") => {
                out.push_str("audit decisions (0)\n");
            }
            Err(e) => return Err(e),
        },
    }

    // Layer 3: telemetry of the runs that touched the store. Spans are
    // per-run, not per-cert; the root spans situate the decision chain
    // in the pipeline that produced it.
    match spans {
        None => out.push_str("telemetry (not loaded)\n"),
        Some(spans) => {
            out.push_str(&format!("telemetry spans ({})\n", spans.len()));
            for span in spans.iter().filter(|s| s.parent.is_none()) {
                out.push_str(&format!("  {} {}us\n", span.name, span.wall_us));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::Trace;
    use worldsim::{ScenarioConfig, World, WorldLog};

    fn tiny_log() -> WorldLog {
        WorldLog::from_datasets(&World::run(ScenarioConfig::tiny()))
    }

    #[test]
    fn prefix_resolution_matches_explain_semantics() {
        let log = tiny_log();
        assert!(resolve_fingerprint(&log, "").is_err());
        assert!(resolve_fingerprint(&log, "zzzz")
            .unwrap_err()
            .contains("no cert-issued event"));
        let full = log
            .events
            .iter()
            .find_map(|ev| match ev {
                WorldEvent::CertIssued { cert, .. } => Some(cert.clone()),
                _ => None,
            })
            .expect("tiny world issues certs");
        assert_eq!(resolve_fingerprint(&log, &full).unwrap(), full);
        // The shortest ambiguous prefix errors with candidates listed.
        let err = resolve_fingerprint(&log, "").unwrap_err();
        assert_eq!(err, "empty fingerprint");
    }

    #[test]
    fn timeline_renders_all_three_layers() {
        let log = tiny_log();
        let full = log
            .events
            .iter()
            .find_map(|ev| match ev {
                WorldEvent::CertIssued { cert, .. } => Some(cert.clone()),
                _ => None,
            })
            .expect("tiny world issues certs");
        // World-only view.
        let body = render_timeline(&log, None, None, &full).expect("renders");
        assert!(
            body.starts_with(&format!("timeline fingerprint {full}\n")),
            "{body}"
        );
        assert!(body.contains("cert-issued"), "{body}");
        assert!(body.contains("cert-expired"), "{body}");
        assert!(body.contains("audit decisions (not loaded)"), "{body}");
        assert!(body.contains("telemetry (not loaded)"), "{body}");
        // With an (empty) audit layer: renders a zero-decision section
        // instead of failing.
        let audit = AuditReport::from_decisions(Vec::new());
        let body = render_timeline(&log, Some(&audit), None, &full).expect("renders");
        assert!(body.contains("audit decisions (0)"), "{body}");
        // With a trace layer: span totals and root spans render.
        let trace = Trace::enabled();
        {
            let root = trace.span("detect");
            let _kc = root.child("kc");
        }
        let body = render_timeline(&log, None, Some(&trace.records()), &full).expect("renders");
        assert!(body.contains("telemetry spans (2)"), "{body}");
        assert!(body.contains("  detect "), "{body}");
        assert!(!body.contains("  kc "), "{body}");
    }

    #[test]
    fn timeline_is_deterministic() {
        let log = tiny_log();
        let full = log
            .events
            .iter()
            .find_map(|ev| match ev {
                WorldEvent::CertIssued { cert, .. } => Some(cert.clone()),
                _ => None,
            })
            .expect("tiny world issues certs");
        let a = render_timeline(&log, None, None, &full).expect("renders");
        let b = render_timeline(&log, None, None, &full).expect("renders");
        assert_eq!(a, b);
    }
}
