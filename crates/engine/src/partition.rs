//! Layer 1: the one router, slicing a delta into per-shard inputs.
//!
//! Routing rules (all keyed through [`route_hash`] over the routing
//! domain, shard = hash mod width):
//!
//! * **Key compromise** — certificates are routed by the e2LD of their
//!   first SAN (the SAN itself when the suffix list cannot split it;
//!   SAN-less certificates land on shard 0). The CRL is keyed by `(AKI,
//!   serial)`, not by domain, so it is not routed at all: every shard
//!   folds the delta's CRL records against its own certificates (a
//!   broadcast join), and the merge resolves certificates that collide on
//!   `(AKI, serial)` across shards.
//! * **Registrant change** — WHOIS observations are routed by their
//!   (e2LD) domain. A certificate goes to every shard owning one of its
//!   SAN e2LDs and carries exactly the e2LDs that shard owns, so each
//!   change sees every certificate naming its domain and every
//!   `(e2LD, certificate)` pair is indexed by one shard.
//! * **Managed TLS** — only provider-managed (marker-carrying)
//!   certificates participate. Each goes to every shard owning one of its
//!   non-wildcard customer domains' routing keys (the customer's e2LD, or
//!   the customer itself when the suffix list cannot split it) and
//!   carries the customers that shard owns; DNS change-log entries go
//!   to their scan target's routing-key shard. Each customer is evaluated
//!   by exactly one shard.
//!
//! Batch routes the day feed's full delta once; incremental runs and the
//! daemon route each day-delta of the same feed as it arrives. Every mode folds the slices into the same per-shard state
//! ([`crate::stream`]), and the router derives each certificate's e2LDs
//! and customer routing keys once, handing them to the shards instead of
//! letting every shard re-derive them.

use ct::monitor::DedupedCert;
use dns::scan::DnsView;
use psl::SuffixList;
use stale_core::detector::managed_tls::ManagedTlsDetector;
pub use stale_core::views::{fnv1a64, route_hash};
use stale_types::{Date, DomainName};
use worldsim::DayDelta;

/// The shard a routing domain belongs to.
pub fn shard_of(key: &DomainName, shards: usize) -> usize {
    shard_of_str(key.as_str(), shards)
}

fn shard_of_str(key: &str, shards: usize) -> usize {
    (route_hash(key) % shards.max(1) as u64) as usize
}

/// The routing key of the kc and mtd rules: a name's e2LD, or the name
/// itself when the suffix list cannot split it, borrowed from the name.
fn routing_str<'d>(psl: &SuffixList, domain: &'d DomainName) -> &'d str {
    psl.e2ld_of_san_str(domain).unwrap_or(domain.as_str())
}

/// One shard's slice of a delta. The delta's CRL records are broadcast,
/// not routed: every shard folds all of them.
#[derive(Default)]
pub struct ShardSlice<'w> {
    /// Certificates this shard joins against the CRL.
    pub kc: Vec<&'w DedupedCert>,
    /// Certificates naming a SAN e2LD this shard owns, with those e2LDs
    /// (deduplicated, in SAN order; the strings
    /// `RegistrantChangeDetector::cert_e2lds` spells).
    pub rc: Vec<(&'w DedupedCert, Vec<&'w str>)>,
    /// Managed certificates naming a customer this shard owns, with those
    /// customers (in SAN order).
    pub mtd: Vec<(&'w DedupedCert, Vec<&'w DomainName>)>,
    /// WHOIS `(domain, creation)` observations of domains this shard owns.
    pub whois: Vec<(&'w DomainName, Date)>,
    /// DNS change-log entries of scan targets this shard owns.
    pub dns: Vec<(Date, &'w DomainName, &'w DnsView)>,
}

impl ShardSlice<'_> {
    /// Items routed into this shard (the skew measure).
    pub fn items(&self) -> usize {
        self.kc.len() + self.rc.len() + self.mtd.len() + self.whois.len() + self.dns.len()
    }

    /// Whether nothing was routed here. A fresh shard folding an empty
    /// slice finishes empty whatever the broadcast CRL holds: with no
    /// certificate, no CRL record can match.
    pub fn is_empty(&self) -> bool {
        self.items() == 0
    }
}

/// Route one delta into `n` shard slices. Within a slice every list
/// keeps the delta's order, which the folds rely on for WHOIS and DNS
/// (chronological per domain). Certificates are routed in `threads`
/// contiguous chunks in parallel, and each shard's lists are joined in
/// chunk order, so the slices do not depend on `threads`.
pub fn route<'w>(
    delta: &DayDelta<'w>,
    psl: &SuffixList,
    mtd_detector: &ManagedTlsDetector<'_>,
    n: usize,
    threads: usize,
) -> Vec<ShardSlice<'w>> {
    let n = n.max(1);
    let chunk = delta.certs.len().div_ceil(threads.max(1)).max(1);
    let chunks: Vec<&[&'w DedupedCert]> = delta.certs.chunks(chunk).collect();
    let mut parts: Vec<Vec<ShardSlice<'w>>> = Vec::new();
    parts.resize_with(chunks.len(), Vec::new);
    match (chunks.as_slice(), parts.as_mut_slice()) {
        ([certs], [part]) => *part = route_certs(certs, psl, mtd_detector, n),
        _ => std::thread::scope(|scope| {
            for (part, certs) in parts.iter_mut().zip(&chunks) {
                scope.spawn(move || *part = route_certs(certs, psl, mtd_detector, n));
            }
        }),
    }
    let mut slices: Vec<ShardSlice<'w>> = (0..n).map(|_| ShardSlice::default()).collect();
    for part in parts {
        for (slice, routed) in slices.iter_mut().zip(part) {
            slice.kc.extend(routed.kc);
            slice.rc.extend(routed.rc);
            slice.mtd.extend(routed.mtd);
        }
    }
    for &(domain, creation) in &delta.whois {
        if let Some(slice) = slices.get_mut(shard_of(domain, n)) {
            slice.whois.push((domain, creation));
        }
    }
    for &(date, domain, view) in &delta.dns {
        if let Some(slice) = slices.get_mut(shard_of_str(routing_str(psl, domain), n)) {
            slice.dns.push((date, domain, view));
        }
    }
    slices
}

/// Route a run of certificates into `n` slices (certificate lists only).
fn route_certs<'w>(
    certs: &[&'w DedupedCert],
    psl: &SuffixList,
    mtd_detector: &ManagedTlsDetector<'_>,
    n: usize,
) -> Vec<ShardSlice<'w>> {
    let mut slices: Vec<ShardSlice<'w>> = (0..n).map(|_| ShardSlice::default()).collect();
    // Per-certificate scratch: each SAN's e2LD (derived once, for all
    // three rules), then (shard, keys it owns) with one entry per shard.
    let mut e2lds: Vec<Option<&'w str>> = Vec::new();
    let mut rc_groups: Vec<(usize, Vec<&'w str>)> = Vec::new();
    let mut mtd_groups: Vec<(usize, Vec<&'w DomainName>)> = Vec::new();
    for &cert in certs {
        let sans = cert.certificate.tbs.san();
        e2lds.clear();
        e2lds.extend(sans.iter().map(|san| psl.e2ld_of_san_str(san).ok()));
        let kc_shard = match (sans.first(), e2lds.first()) {
            (Some(first), Some(key)) => shard_of_str(key.unwrap_or(first.as_str()), n),
            _ => 0,
        };
        if let Some(slice) = slices.get_mut(kc_shard) {
            slice.kc.push(cert);
        }

        for (i, e2ld) in e2lds.iter().enumerate() {
            let Some(e2ld) = *e2ld else { continue };
            if e2lds[..i].contains(&Some(e2ld)) {
                continue;
            }
            let shard = shard_of_str(e2ld, n);
            match rc_groups.iter_mut().find(|(s, _)| *s == shard) {
                Some((_, keys)) => keys.push(e2ld),
                None => rc_groups.push((shard, vec![e2ld])),
            }
        }
        for (shard, keys) in rc_groups.drain(..) {
            if let Some(slice) = slices.get_mut(shard) {
                slice.rc.push((cert, keys));
            }
        }

        if mtd_detector.is_managed_cert(cert) {
            for (customer, e2ld) in sans.iter().zip(&e2lds) {
                if customer.is_wildcard() || mtd_detector.is_marker_san(customer) {
                    continue;
                }
                let shard = shard_of_str(e2ld.unwrap_or(customer.as_str()), n);
                match mtd_groups.iter_mut().find(|(s, _)| *s == shard) {
                    Some((_, customers)) => customers.push(customer),
                    None => mtd_groups.push((shard, vec![customer])),
                }
            }
            for (shard, customers) in mtd_groups.drain(..) {
                if let Some(slice) = slices.get_mut(shard) {
                    slice.mtd.push((cert, customers));
                }
            }
        }
    }
    slices
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_is_in_range() {
        let d = stale_types::domain::dn("example.com");
        for n in 1..10 {
            assert!(shard_of(&d, n) < n);
        }
        assert_eq!(shard_of(&d, 1), 0);
    }

    #[test]
    fn routing_key_is_the_e2ld_or_the_name() {
        let psl = SuffixList::default_list();
        for (name, key) in [
            ("www.example.co.uk", "example.co.uk"),
            ("*.foo.com", "foo.com"),
            ("com", "com"),
            ("a.b.c.example.org", "example.org"),
        ] {
            assert_eq!(routing_str(&psl, &stale_types::domain::dn(name)), key);
        }
    }
}
