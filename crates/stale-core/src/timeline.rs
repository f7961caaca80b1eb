//! Time-travel `timeline`: one chronological view per certificate,
//! joining all three layers of the audit model.
//!
//! Layer 1 is the world-fact log ([`worldsim::WorldLog`]): the events
//! that created the candidate — its CT issuance, the CRL entry that
//! revoked it, the WHOIS and delegation history of the domains it
//! names. Layer 2 is the decision audit ([`obs::AuditReport`]): what
//! each detector decided about the fingerprint and why. Layer 3 is
//! operational telemetry (the trace JSONL of the runs that touched
//! it). `stale-bench timeline` renders this view from exported files;
//! `stale-served` serves the same rendering from resident state over
//! the `timeline` frame command and `GET /timeline?fp=`.
//!
//! The join keys are facts of the certificate itself, recovered from
//! the hex DER carried by its `cert-issued` event: CRL entries join on
//! (authority key id, serial), domain lifecycle and delegation events
//! join on the SAN list (exact match or parent of a SAN).

use obs::audit::{render_provenance, AuditReport, AMBIGUOUS_LIST_MAX};
use obs::trace::TRACE_SCHEMA;
use obs::{SpanRecord, TraceHeader};
use std::collections::BTreeSet;
use worldsim::worldlog::decode_hex;
use worldsim::{WorldEvent, WorldLog};
use x509::cert::Certificate;
use x509::revocation::RevocationReason;

/// Resolve a fingerprint prefix against the `cert-issued` events of a
/// world log. Mirrors [`AuditReport::decisions_for`]'s prefix
/// semantics: unique prefixes resolve, ambiguous ones error with the
/// candidates listed (capped at [`AMBIGUOUS_LIST_MAX`]).
pub fn resolve_fingerprint(log: &WorldLog, prefix: &str) -> Result<String, String> {
    if prefix.is_empty() {
        return Err("empty fingerprint".to_string());
    }
    let matching: BTreeSet<&str> = log
        .events
        .iter()
        .filter_map(|ev| match ev {
            WorldEvent::CertIssued { cert, .. } if cert.starts_with(prefix) => Some(cert.as_str()),
            _ => None,
        })
        .collect();
    let mut certs = matching.iter();
    match (certs.next(), certs.next()) {
        (None, _) => Err(format!(
            "no cert-issued event mentions fingerprint {prefix:?}"
        )),
        (Some(cert), None) => Ok(cert.to_string()),
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
/// `audit` and `trace_jsonl` are optional layers: `None` renders a
/// `(not loaded)` placeholder so the world-fact section is always
/// available on its own. Errors on unknown or ambiguous prefixes
/// (byte-compatible shape with `stale-bench explain` errors) and on
/// logs whose DER does not decode.
pub fn render_timeline(
    log: &WorldLog,
    audit: Option<&AuditReport>,
    trace_jsonl: Option<&str>,
    prefix: &str,
) -> Result<String, String> {
    let cert = resolve_fingerprint(log, prefix)?;
    let issued = log
        .events
        .iter()
        .find_map(|ev| match ev {
            WorldEvent::CertIssued { cert: c, der, .. } if *c == cert => Some(der),
            _ => None,
        })
        .ok_or_else(|| format!("no cert-issued event for {cert}"))?;
    let bytes = decode_hex(issued).ok_or_else(|| format!("cert-issued {cert}: der is not hex"))?;
    let parsed =
        Certificate::decode(&bytes).map_err(|e| format!("cert-issued {cert}: bad DER: {e:?}"))?;
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
    match trace_jsonl {
        None => out.push_str("telemetry (not loaded)\n"),
        Some(text) => {
            let mut lines = text.lines();
            let first = lines.next().ok_or("empty trace file")?;
            let header: TraceHeader =
                serde_json::from_str(first).map_err(|e| format!("trace header: {e}"))?;
            if header.schema != TRACE_SCHEMA {
                return Err(format!(
                    "schema {:?} is not {TRACE_SCHEMA:?}",
                    header.schema
                ));
            }
            let mut roots = Vec::new();
            let mut total = 0usize;
            for (lineno, line) in lines.enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                let span: SpanRecord = serde_json::from_str(line)
                    .map_err(|e| format!("trace line {}: {e}", lineno + 2))?;
                total += 1;
                if span.parent.is_none() {
                    roots.push(span);
                }
            }
            out.push_str(&format!("telemetry spans ({total})\n"));
            for span in roots {
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
            let _root = trace.span("detect");
        }
        let jsonl = trace.to_jsonl();
        let body = render_timeline(&log, None, Some(&jsonl), &full).expect("renders");
        assert!(body.contains("telemetry spans (1)"), "{body}");
        assert!(body.contains("  detect "), "{body}");
        // Garbage trace input errors instead of rendering nonsense.
        assert!(render_timeline(&log, None, Some("not json"), &full).is_err());
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
