//! Master-file (zone file) parsing and serialisation — RFC 1035 §5
//! subset.
//!
//! The paper's scanner "extracted the domains from all publicly available
//! zone files from the Centralized Zone Data Service" (§4.3). This module
//! implements the format those files use: one record per line,
//! `owner TTL class type rdata`, with `$ORIGIN`/`$TTL` directives,
//! relative owner names, `@` for the origin, and `;` comments. The
//! scanner-side entry point [`registered_names`] extracts the unique
//! second-level names a daily scan enumerates.

use crate::record::{Ipv4Addr, RData, Record, RecordType, Ttl};
use crate::zone::Zone;
use stale_types::hex::Hex;
use stale_types::DomainName;
use std::collections::BTreeSet;
use std::fmt;

/// Zone-file parse errors, with the offending line number (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZoneFileError {
    /// 1-based line.
    pub line: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for ZoneFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "zone file line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ZoneFileError {}

fn err(line: usize, reason: impl Into<String>) -> ZoneFileError {
    ZoneFileError {
        line,
        reason: reason.into(),
    }
}

/// Resolve a possibly-relative name against the origin.
fn resolve_name(
    token: &str,
    origin: Option<&DomainName>,
    line: usize,
) -> Result<DomainName, ZoneFileError> {
    if token == "@" {
        return origin
            .cloned()
            .ok_or_else(|| err(line, "@ used before $ORIGIN"));
    }
    if let Some(absolute) = token.strip_suffix('.') {
        return DomainName::parse(absolute).map_err(|e| err(line, e.to_string()));
    }
    match origin {
        Some(origin) => {
            DomainName::parse(&format!("{token}.{origin}")).map_err(|e| err(line, e.to_string()))
        }
        None => Err(err(line, "relative name before $ORIGIN")),
    }
}

/// Parse a zone file into records.
pub fn parse(text: &str) -> Result<Vec<Record>, ZoneFileError> {
    let mut origin: Option<DomainName> = None;
    let mut default_ttl = Ttl::HOUR;
    let mut last_owner: Option<DomainName> = None;
    let mut records = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = match raw.find(';') {
            Some(pos) => &raw[..pos],
            None => raw,
        };
        if line.trim().is_empty() {
            continue;
        }
        let starts_blank = line.starts_with(' ') || line.starts_with('\t');
        let mut tokens = line.split_whitespace().peekable();
        // Directives.
        if let Some(&first) = tokens.peek() {
            if first == "$ORIGIN" {
                tokens.next();
                let arg = tokens
                    .next()
                    .ok_or_else(|| err(line_no, "$ORIGIN needs a name"))?;
                origin = Some(
                    DomainName::parse(arg.trim_end_matches('.'))
                        .map_err(|e| err(line_no, e.to_string()))?,
                );
                continue;
            }
            if first == "$TTL" {
                tokens.next();
                let arg = tokens
                    .next()
                    .ok_or_else(|| err(line_no, "$TTL needs a value"))?;
                default_ttl = Ttl(arg.parse().map_err(|_| err(line_no, "bad $TTL value"))?);
                continue;
            }
        }
        // Owner: blank-start lines reuse the previous owner.
        let owner = if starts_blank {
            last_owner
                .clone()
                .ok_or_else(|| err(line_no, "no previous owner to inherit"))?
        } else {
            let token = tokens.next().ok_or_else(|| err(line_no, "missing owner"))?;
            resolve_name(token, origin.as_ref(), line_no)?
        };
        last_owner = Some(owner.clone());
        // Optional TTL, optional class, then type.
        let mut ttl = default_ttl;
        let mut next = tokens
            .next()
            .ok_or_else(|| err(line_no, "missing record type"))?;
        if let Ok(explicit) = next.parse::<u32>() {
            ttl = Ttl(explicit);
            next = tokens
                .next()
                .ok_or_else(|| err(line_no, "missing record type"))?;
        }
        if next.eq_ignore_ascii_case("IN") {
            next = tokens
                .next()
                .ok_or_else(|| err(line_no, "missing record type"))?;
        }
        let rtype = next.to_ascii_uppercase();
        let rest: Vec<&str> = tokens.collect();
        let data = parse_rdata(&rtype, &rest, origin.as_ref(), line_no)?;
        records.push(Record {
            name: owner,
            ttl,
            data,
        });
    }
    Ok(records)
}

fn parse_rdata(
    rtype: &str,
    args: &[&str],
    origin: Option<&DomainName>,
    line: usize,
) -> Result<RData, ZoneFileError> {
    let need = |n: usize| -> Result<(), ZoneFileError> {
        if args.len() < n {
            Err(err(line, format!("{rtype} needs {n} field(s)")))
        } else {
            Ok(())
        }
    };
    match rtype {
        "A" => {
            need(1)?;
            let mut octets = [0u8; 4];
            let parts: Vec<&str> = args[0].split('.').collect();
            if parts.len() != 4 {
                return Err(err(line, "bad IPv4 address"));
            }
            for (i, p) in parts.iter().enumerate() {
                octets[i] = p.parse().map_err(|_| err(line, "bad IPv4 octet"))?;
            }
            Ok(RData::A(Ipv4Addr(octets)))
        }
        "NS" => {
            need(1)?;
            Ok(RData::Ns(resolve_name(args[0], origin, line)?))
        }
        "CNAME" => {
            need(1)?;
            Ok(RData::Cname(resolve_name(args[0], origin, line)?))
        }
        "TXT" => {
            need(1)?;
            let joined = args.join(" ");
            Ok(RData::Txt(joined.trim_matches('"').to_string()))
        }
        "SOA" => {
            need(3)?;
            Ok(RData::Soa {
                mname: resolve_name(args[0], origin, line)?,
                rname: resolve_name(args[1], origin, line)?,
                serial: args[2].parse().map_err(|_| err(line, "bad SOA serial"))?,
            })
        }
        "CAA" => {
            need(3)?;
            let flags: u8 = args[0].parse().map_err(|_| err(line, "bad CAA flags"))?;
            Ok(RData::Caa {
                critical: flags & 0x80 != 0,
                tag: args[1].to_string(),
                value: args[2].trim_matches('"').to_string(),
            })
        }
        "TLSA" => {
            need(4)?;
            let parse_u8 = |s: &str| s.parse::<u8>().map_err(|_| err(line, "bad TLSA field"));
            let association = (0..args[3].len())
                .step_by(2)
                .map(|i| {
                    u8::from_str_radix(args[3].get(i..i + 2).unwrap_or("zz"), 16)
                        .map_err(|_| err(line, "bad TLSA hex"))
                })
                .collect::<Result<Vec<u8>, _>>()?;
            Ok(RData::Tlsa {
                usage: parse_u8(args[0])?,
                selector: parse_u8(args[1])?,
                matching_type: parse_u8(args[2])?,
                association,
            })
        }
        other => Err(err(line, format!("unsupported record type {other}"))),
    }
}

/// Serialise records back to zone-file text rooted at `origin`.
pub fn serialize(origin: &DomainName, records: &[Record]) -> String {
    let mut out = format!("$ORIGIN {origin}.\n");
    for record in records {
        let owner = if &record.name == origin {
            "@".to_string()
        } else if record.name.is_subdomain_of(origin) {
            let full = record.name.as_str();
            full[..full.len() - origin.as_str().len() - 1].to_string()
        } else {
            format!("{}.", record.name)
        };
        let rdata = match &record.data {
            RData::A(ip) => format!("A {ip}"),
            RData::Aaaa(_) => continue, // not produced by the simulator
            RData::Ns(n) => format!("NS {n}."),
            RData::Cname(c) => format!("CNAME {c}."),
            RData::Txt(t) => format!("TXT \"{t}\""),
            RData::Soa {
                mname,
                rname,
                serial,
            } => {
                format!("SOA {mname}. {rname}. {serial}")
            }
            RData::Caa {
                critical,
                tag,
                value,
            } => {
                format!("CAA {} {tag} \"{value}\"", if *critical { 128 } else { 0 })
            }
            RData::Tlsa {
                usage,
                selector,
                matching_type,
                association,
            } => format!(
                "TLSA {usage} {selector} {matching_type} {}",
                Hex(association)
            ),
        };
        out.push_str(&format!("{owner} {} IN {rdata}\n", record.ttl.0));
    }
    out
}

/// Serialise a [`Zone`].
pub fn serialize_zone(zone: &Zone) -> String {
    let records: Vec<Record> = zone.iter().cloned().collect();
    match zone.apex() {
        Some(apex) => serialize(apex, &records),
        None => String::new(),
    }
}

/// The scanner-side extraction: the unique names registered directly
/// under `tld` that appear anywhere in the zone file (owner names of NS
/// delegations, per CZDS zone-file shape).
pub fn registered_names(
    text: &str,
    tld: &DomainName,
) -> Result<BTreeSet<DomainName>, ZoneFileError> {
    let records = parse(text)?;
    let mut names = BTreeSet::new();
    for record in &records {
        if record.record_type() != RecordType::Ns {
            continue;
        }
        // Walk up to the label directly below the TLD.
        let mut cursor = record.name.clone();
        if !cursor.is_subdomain_of(tld) || &cursor == tld {
            continue;
        }
        while let Some(parent) = cursor.parent() {
            if &parent == tld {
                names.insert(cursor);
                break;
            }
            cursor = parent;
        }
    }
    Ok(names)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stale_types::domain::dn;

    const SAMPLE: &str = "\
; the com zone, excerpted
$ORIGIN com.
$TTL 86400
foo        IN NS ns1.foo.com.
           IN NS ns2.foo.com.
bar 3600   IN NS anna.ns.cloudflare.com.
baz        IN CNAME target.example.net.
";

    #[test]
    fn parses_directives_owners_and_inheritance() {
        let records = parse(SAMPLE).unwrap();
        assert_eq!(records.len(), 4);
        assert_eq!(records[0].name, dn("foo.com"));
        assert_eq!(records[0].ttl, Ttl(86400));
        // Blank-owner line inherits foo.com.
        assert_eq!(records[1].name, dn("foo.com"));
        assert_eq!(records[1].data, RData::Ns(dn("ns2.foo.com")));
        // Explicit TTL.
        assert_eq!(records[2].ttl, Ttl(3600));
        assert_eq!(records[3].data, RData::Cname(dn("target.example.net")));
    }

    #[test]
    fn at_sign_and_soa() {
        let text = "\
$ORIGIN foo.com.
@ IN SOA ns1 hostmaster 42
@ IN A 192.0.2.1
www IN CNAME @
";
        let records = parse(text).unwrap();
        assert_eq!(
            records[0].data,
            RData::Soa {
                mname: dn("ns1.foo.com"),
                rname: dn("hostmaster.foo.com"),
                serial: 42
            }
        );
        assert_eq!(records[1].data, RData::A(Ipv4Addr::new(192, 0, 2, 1)));
        assert_eq!(records[2].data, RData::Cname(dn("foo.com")));
    }

    #[test]
    fn caa_and_tlsa() {
        let text = "\
$ORIGIN foo.com.
@ IN CAA 128 issue \"letsencrypt.org\"
_443._tcp IN TLSA 3 1 1 aabbccdd
";
        let records = parse(text).unwrap();
        assert_eq!(
            records[0].data,
            RData::Caa {
                critical: true,
                tag: "issue".into(),
                value: "letsencrypt.org".into()
            }
        );
        assert_eq!(
            records[1].data,
            RData::Tlsa {
                usage: 3,
                selector: 1,
                matching_type: 1,
                association: vec![0xaa, 0xbb, 0xcc, 0xdd]
            }
        );
        let text = serialize(&dn("foo.com"), &records);
        assert!(text.contains(" IN TLSA 3 1 1 aabbccdd\n"), "{text}");
        assert_eq!(parse(&text).unwrap(), records);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad_type = "$ORIGIN com.\nfoo IN WAT stuff\n";
        assert_eq!(parse(bad_type).unwrap_err().line, 2);
        let relative_early = "foo IN NS ns1.foo.com.\n";
        assert_eq!(parse(relative_early).unwrap_err().line, 1);
        let bad_ip = "$ORIGIN com.\nfoo IN A 999.1.2.3\n";
        assert!(parse(bad_ip).unwrap_err().reason.contains("octet"));
    }

    #[test]
    fn roundtrip_through_serialize() {
        let records = parse(SAMPLE).unwrap();
        let text = serialize(&dn("com"), &records);
        let reparsed = parse(&text).unwrap();
        assert_eq!(reparsed, records);
    }

    #[test]
    fn zone_roundtrip() {
        let mut zone = Zone::new(dn("foo.com"));
        zone.add_data(dn("foo.com"), RData::A(Ipv4Addr::new(192, 0, 2, 1)));
        zone.add_data(dn("www.foo.com"), RData::Cname(dn("foo.com")));
        let text = serialize_zone(&zone);
        let reparsed = parse(&text).unwrap();
        assert_eq!(reparsed.len(), zone.iter().count());
    }

    #[test]
    fn registered_names_extracts_e2lds() {
        let names = registered_names(SAMPLE, &dn("com")).unwrap();
        assert_eq!(
            names,
            [dn("foo.com"), dn("bar.com")]
                .into_iter()
                .collect::<BTreeSet<_>>()
        );
        // Deep delegations attribute to the 2LD.
        let deep = "$ORIGIN com.\nsub.deep IN NS ns1.example.net.\n";
        let names = registered_names(deep, &dn("com")).unwrap();
        assert_eq!(names.into_iter().next().unwrap(), dn("deep.com"));
    }
}
