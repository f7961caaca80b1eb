//! Active DNS scanning: per-day views and interval-compressed history.
//!
//! The paper's aDNS dataset resolves every e2LD in the public zones once a
//! day and keeps A/AAAA, NS and CNAME records (§4.3, Table 3). At 300M
//! records/day, materialising each day is infeasible even for the real
//! study; our simulator's equivalent is [`DnsHistory`], a per-domain change
//! log from which any day's view is reconstructed in `O(log changes)`.
//! [`DailyScanner`] iterates a date range exactly the way the departure
//! detector consumes it: pairs of neighbouring days.

use crate::record::{Ipv4Addr, RData, RecordType};
use crate::resolver::Resolver;
use crate::wire::{Message, Rcode};
use serde::{Deserialize, Serialize};
use stale_types::{Date, DomainName};
use std::collections::{BTreeMap, BTreeSet};

/// One domain's resolved view on one day: the record sets the scanner
/// collects.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DnsView {
    /// Nameserver delegation.
    pub ns: BTreeSet<DomainName>,
    /// CNAME targets (of the apex and common web labels).
    pub cname: BTreeSet<DomainName>,
    /// IPv4 addresses.
    pub a: BTreeSet<Ipv4Addr>,
}

impl DnsView {
    /// A view with only NS records.
    pub fn with_ns(ns: impl IntoIterator<Item = DomainName>) -> Self {
        DnsView {
            ns: ns.into_iter().collect(),
            ..Default::default()
        }
    }

    /// A view with only CNAME records.
    pub fn with_cname(cname: impl IntoIterator<Item = DomainName>) -> Self {
        DnsView {
            cname: cname.into_iter().collect(),
            ..Default::default()
        }
    }

    /// Whether any NS or CNAME matches `predicate` — the shape of the
    /// Cloudflare-delegation test in §4.3.
    pub fn any_delegation(&self, mut predicate: impl FnMut(&DomainName) -> bool) -> bool {
        self.ns.iter().any(&mut predicate) || self.cname.iter().any(&mut predicate)
    }
}

/// Interval-compressed DNS history for a population of domains.
///
/// Internally a change log: `(date, view)` entries sorted by date, where an
/// entry means "from this date (inclusive) until the next entry, the domain
/// resolved to this view". A `None`-like removal is represented by an
/// explicit empty view.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DnsHistory {
    changes: BTreeMap<DomainName, Vec<(Date, DnsView)>>,
}

impl DnsHistory {
    /// Empty history.
    pub fn new() -> Self {
        DnsHistory::default()
    }

    /// Record that `domain` resolves to `view` from `date` onward.
    ///
    /// Changes must be appended in nondecreasing date order per domain; a
    /// same-day change replaces the earlier one (last write wins, like a
    /// scanner that only sees the end-of-day state).
    pub fn record_change(&mut self, domain: DomainName, date: Date, view: DnsView) {
        let log = self.changes.entry(domain).or_default();
        if let Some((last_date, last_view)) = log.last_mut() {
            assert!(*last_date <= date, "changes must be appended in date order");
            if *last_date == date {
                *last_view = view;
                return;
            }
            if *last_view == view {
                return; // no-op change; keep the log minimal
            }
        }
        log.push((date, view));
    }

    /// The view of `domain` on `date`, if the domain existed by then.
    pub fn view_at(&self, domain: &DomainName, date: Date) -> Option<&DnsView> {
        let log = self.changes.get(domain)?;
        let idx = log.partition_point(|(d, _)| *d <= date);
        if idx == 0 {
            None
        } else {
            Some(&log[idx - 1].1)
        }
    }

    /// All domains ever observed.
    pub fn domains(&self) -> impl Iterator<Item = &DomainName> {
        self.changes.keys()
    }

    /// Number of domains tracked.
    pub fn domain_count(&self) -> usize {
        self.changes.len()
    }

    /// Total change-log entries (the compressed size).
    pub fn change_count(&self) -> usize {
        self.changes.values().map(Vec::len).sum()
    }

    /// Every domain with its raw change log, in domain order.
    pub fn change_logs(&self) -> impl Iterator<Item = (&DomainName, &[(Date, DnsView)])> {
        self.changes.iter().map(|(d, log)| (d, log.as_slice()))
    }

    /// The raw change log for a domain.
    pub fn change_log(&self, domain: &DomainName) -> &[(Date, DnsView)] {
        self.changes.get(domain).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Estimated record count on `date` (A + NS + CNAME across domains),
    /// the unit Table 3 reports dataset size in.
    pub fn record_count_at(&self, date: Date) -> usize {
        self.domains()
            .filter_map(|d| self.view_at(d, date))
            .map(|v| v.a.len() + v.ns.len() + v.cname.len())
            .sum()
    }
}

/// Iterates `(day, next_day)` pairs over a window, the exact access
/// pattern of the §4.3 departure detector ("compared each day's NS and
/// CNAME records with neighbouring days").
pub struct DailyScanner {
    current: Date,
    end: Date,
}

impl DailyScanner {
    /// Scan window `[start, end)`; yields pairs `(d, d+1)` with `d+1 < end`.
    pub fn new(start: Date, end: Date) -> Self {
        DailyScanner {
            current: start,
            end,
        }
    }
}

impl Iterator for DailyScanner {
    type Item = (Date, Date);

    fn next(&mut self) -> Option<(Date, Date)> {
        let next_day = self.current.succ();
        if next_day >= self.end {
            return None;
        }
        let pair = (self.current, next_day);
        self.current = next_day;
        Some(pair)
    }
}

/// Resolve one domain through the wire format against a [`Resolver`],
/// producing the scanner's view. This is the "speak real DNS" path used by
/// examples and integration tests; the bulk simulator writes
/// [`DnsHistory`] directly.
pub fn scan_domain(resolver: &Resolver, domain: &DomainName, txid: u16) -> DnsView {
    let mut view = DnsView::default();
    for (i, rtype) in [RecordType::Ns, RecordType::Cname, RecordType::A]
        .iter()
        .enumerate()
    {
        let query = Message::query(txid.wrapping_add(i as u16), domain.clone(), *rtype);
        // Round-trip through the wire format as a real scanner would.
        let query = Message::decode(&query.encode()).expect("self-encoded query");
        let q = &query.questions[0];
        let answers = match resolver.resolve(&q.name, q.qtype) {
            Ok(data) => data
                .into_iter()
                .map(|d| crate::record::Record::new(q.name.clone(), d))
                .collect(),
            Err(_) => Vec::new(),
        };
        let rcode = if answers.is_empty() {
            Rcode::NxDomain
        } else {
            Rcode::NoError
        };
        let response = Message::response(&query, answers, rcode);
        let response = Message::decode(&response.encode()).expect("self-encoded response");
        for rr in response.answers {
            match rr.data {
                RData::Ns(n) => {
                    view.ns.insert(n);
                }
                RData::Cname(c) => {
                    view.cname.insert(c);
                }
                RData::A(ip) => {
                    view.a.insert(ip);
                }
                _ => {}
            }
        }
    }
    view
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RData;
    use crate::zone::Zone;
    use stale_types::domain::dn;

    fn d(s: &str) -> Date {
        Date::parse(s).unwrap()
    }

    fn cf_view() -> DnsView {
        DnsView::with_ns([dn("anna.ns.cloudflare.com"), dn("bob.ns.cloudflare.com")])
    }

    fn self_view() -> DnsView {
        DnsView::with_ns([dn("ns1.selfhost.net"), dn("ns2.selfhost.net")])
    }

    #[test]
    fn view_at_between_changes() {
        let mut h = DnsHistory::new();
        h.record_change(dn("foo.com"), d("2022-08-01"), cf_view());
        h.record_change(dn("foo.com"), d("2022-09-15"), self_view());
        assert_eq!(h.view_at(&dn("foo.com"), d("2022-07-31")), None);
        assert_eq!(h.view_at(&dn("foo.com"), d("2022-08-01")), Some(&cf_view()));
        assert_eq!(h.view_at(&dn("foo.com"), d("2022-09-14")), Some(&cf_view()));
        assert_eq!(
            h.view_at(&dn("foo.com"), d("2022-09-15")),
            Some(&self_view())
        );
        assert_eq!(
            h.view_at(&dn("foo.com"), d("2023-01-01")),
            Some(&self_view())
        );
    }

    #[test]
    fn same_day_change_replaces() {
        let mut h = DnsHistory::new();
        h.record_change(dn("foo.com"), d("2022-08-01"), cf_view());
        h.record_change(dn("foo.com"), d("2022-08-01"), self_view());
        assert_eq!(
            h.view_at(&dn("foo.com"), d("2022-08-01")),
            Some(&self_view())
        );
        assert_eq!(h.change_count(), 1);
    }

    #[test]
    fn noop_changes_compress() {
        let mut h = DnsHistory::new();
        h.record_change(dn("foo.com"), d("2022-08-01"), cf_view());
        h.record_change(dn("foo.com"), d("2022-08-20"), cf_view());
        assert_eq!(h.change_count(), 1);
    }

    #[test]
    #[should_panic(expected = "date order")]
    fn out_of_order_changes_panic() {
        let mut h = DnsHistory::new();
        h.record_change(dn("foo.com"), d("2022-09-01"), cf_view());
        h.record_change(dn("foo.com"), d("2022-08-01"), self_view());
    }

    #[test]
    fn record_count_sums_the_views_of_the_day() {
        let mut h = DnsHistory::new();
        h.record_change(dn("a.com"), d("2022-08-01"), cf_view());
        h.record_change(dn("b.com"), d("2022-08-05"), self_view());
        assert_eq!(h.record_count_at(d("2022-07-31")), 0);
        assert_eq!(h.record_count_at(d("2022-08-03")), 2);
        assert_eq!(h.record_count_at(d("2022-08-05")), 4);
    }

    #[test]
    fn daily_scanner_pairs() {
        let pairs: Vec<_> = DailyScanner::new(d("2022-08-01"), d("2022-08-05")).collect();
        assert_eq!(pairs.len(), 3);
        assert_eq!(pairs[0], (d("2022-08-01"), d("2022-08-02")));
        assert_eq!(pairs[2], (d("2022-08-03"), d("2022-08-04")));
        // Empty and single-day windows yield nothing.
        assert_eq!(
            DailyScanner::new(d("2022-08-01"), d("2022-08-01")).count(),
            0
        );
        assert_eq!(
            DailyScanner::new(d("2022-08-01"), d("2022-08-02")).count(),
            0
        );
    }

    #[test]
    fn any_delegation_checks_ns_and_cname() {
        let v = DnsView::with_cname([dn("foo.com.cdn.cloudflare.com")]);
        assert!(v.any_delegation(|n| n.as_str().ends_with("cloudflare.com")));
        assert!(!self_view().any_delegation(|n| n.as_str().ends_with("cloudflare.com")));
    }

    #[test]
    fn scan_domain_through_wire() {
        let mut resolver = Resolver::new();
        let mut z = Zone::new(dn("foo.com"));
        z.add_data(dn("foo.com"), RData::Ns(dn("anna.ns.cloudflare.com")));
        z.add_data(dn("foo.com"), RData::A(Ipv4Addr::new(104, 16, 0, 1)));
        resolver.add_zone(z);
        let view = scan_domain(&resolver, &dn("foo.com"), 1);
        assert!(view.ns.contains(&dn("anna.ns.cloudflare.com")));
        assert!(view.a.contains(&Ipv4Addr::new(104, 16, 0, 1)));
        assert!(view.cname.is_empty());
    }
}
