//! Per-day delta feed over a completed dataset bundle.
//!
//! The paper's detectors consume *daily* feeds — CT monitors tail log
//! entries, CRLs are downloaded every day (§4.1), WHOIS is snapshotted
//! (§4.2) and aDNS scans run daily (§4.3). [`DayFeed`] recovers that shape
//! from a [`WorldDatasets`] bundle: every item is assigned to the day it
//! became observable, and the engine's incremental driver pulls one
//! [`DayDelta`] per day (or per day-batch) instead of re-scanning the full
//! ten-year corpus.
//!
//! Observability dates:
//! * CT: `DedupedCert::first_seen` (earliest log entry timestamp);
//! * CRL: `RevocationRecord::observed` (first scrape day that served it);
//! * WHOIS: the registry creation date of each `(domain, creation)` pair
//!   (the day the snapshot first shows the new date);
//! * DNS: the date of each change-log entry (the scan that saw it).
//!
//! Ingesting every delta of the feed reconstructs exactly the batch
//! detectors' inputs — the equivalence the incremental engine's tests
//! assert byte-for-byte.

use crate::datasets::WorldDatasets;
use ca::scraper::RevocationRecord;
use ct::monitor::DedupedCert;
use dns::scan::DnsView;
use stale_types::{Date, DomainName};
use std::collections::BTreeMap;

/// Everything that became observable in one day range (inclusive).
///
/// Item order within a delta is deterministic: date-major, then the
/// underlying dataset's iteration order (cert-id order for CT, CRL-record
/// order, domain order for WHOIS/DNS). Multi-day deltas are therefore
/// exactly the concatenation of their single-day deltas.
#[derive(Default)]
pub struct DayDelta<'w> {
    /// First day covered (inclusive).
    pub from: Date,
    /// Last day covered (inclusive).
    pub to: Date,
    /// Certificates first seen in CT during the range.
    pub certs: Vec<&'w DedupedCert>,
    /// CRL records first observed during the range, with their global
    /// index in `CrlDataset::records()`.
    pub crl: Vec<(usize, &'w RevocationRecord)>,
    /// WHOIS `(domain, creation)` observations dated in the range,
    /// chronological per domain.
    pub whois: Vec<(&'w DomainName, Date)>,
    /// DNS change-log entries dated in the range, chronological per
    /// domain.
    pub dns: Vec<(Date, &'w DomainName, &'w DnsView)>,
}

impl<'w> DayDelta<'w> {
    /// Every item of `data` as one delta spanning the whole feed — what
    /// the batch engine folds. It walks the datasets exactly as
    /// [`DayFeed::new`] does: `from`/`to` are [`DayFeed::start`] and
    /// [`DayFeed::end`], and the items are those of the feed's full
    /// delta in dataset order (cert-id order for CT, CRL-record order,
    /// domain order and chronological within a domain for WHOIS and
    /// DNS) instead of date-major.
    pub fn whole(data: &'w WorldDatasets) -> Self {
        let certs: Vec<&DedupedCert> = data.monitor.corpus_unfiltered().collect();
        let crl: Vec<(usize, &RevocationRecord)> = data.crl.records().iter().enumerate().collect();
        let whois: Vec<(&DomainName, Date)> = data.whois.observations().collect();
        let dns: Vec<(Date, &DomainName, &DnsView)> = dns_changes(data).collect();
        let dates = certs
            .iter()
            .map(|c| c.first_seen)
            .chain(crl.iter().map(|(_, r)| r.observed))
            .chain(whois.iter().map(|(_, creation)| *creation))
            .chain(dns.iter().map(|(date, _, _)| *date));
        let (from, to) = span(data, dates.clone().min(), dates.max());
        DayDelta {
            from,
            to,
            certs,
            crl,
            whois,
            dns,
        }
    }

    /// Total items carried by this delta.
    pub fn items(&self) -> usize {
        self.certs.len() + self.crl.len() + self.whois.len() + self.dns.len()
    }
}

/// Every DNS change-log entry, domain-major and chronological within a
/// domain.
fn dns_changes(data: &WorldDatasets) -> impl Iterator<Item = (Date, &DomainName, &DnsView)> {
    data.adns
        .change_logs()
        .flat_map(|(domain, log)| log.iter().map(move |(date, view)| (*date, domain, view)))
}

/// The feed's span given its first and last observable days. An empty
/// world still yields a well-formed (empty) feed, and the feed runs at
/// least through the last simulated day.
fn span(data: &WorldDatasets, first: Option<Date>, last: Option<Date>) -> (Date, Date) {
    let start = first.unwrap_or(data.sim_window.start);
    let end = last
        .unwrap_or(data.sim_window.start)
        .max(data.sim_window.end.pred());
    (start, end)
}

/// A date-indexed view of the four datasets. Construction is one linear
/// pass over the bundle; each [`Self::delta`] is a range query.
pub struct DayFeed<'w> {
    certs: BTreeMap<Date, Vec<&'w DedupedCert>>,
    crl: BTreeMap<Date, Vec<(usize, &'w RevocationRecord)>>,
    whois: BTreeMap<Date, Vec<(&'w DomainName, Date)>>,
    dns: BTreeMap<Date, Vec<(&'w DomainName, &'w DnsView)>>,
    start: Date,
    end: Date,
}

impl<'w> DayFeed<'w> {
    /// Index `data` by observability day.
    pub fn new(data: &'w WorldDatasets) -> Self {
        let mut certs: BTreeMap<Date, Vec<&DedupedCert>> = BTreeMap::new();
        for cert in data.monitor.corpus_unfiltered() {
            certs.entry(cert.first_seen).or_default().push(cert);
        }
        let mut crl: BTreeMap<Date, Vec<(usize, &RevocationRecord)>> = BTreeMap::new();
        for (index, rec) in data.crl.records().iter().enumerate() {
            crl.entry(rec.observed).or_default().push((index, rec));
        }
        let mut whois: BTreeMap<Date, Vec<(&DomainName, Date)>> = BTreeMap::new();
        for (domain, creation) in data.whois.observations() {
            whois.entry(creation).or_default().push((domain, creation));
        }
        let mut dns: BTreeMap<Date, Vec<(&DomainName, &DnsView)>> = BTreeMap::new();
        for (date, domain, view) in dns_changes(data) {
            dns.entry(date).or_default().push((domain, view));
        }
        let first = [
            certs.keys().next(),
            crl.keys().next(),
            whois.keys().next(),
            dns.keys().next(),
        ];
        let last = [
            certs.keys().next_back(),
            crl.keys().next_back(),
            whois.keys().next_back(),
            dns.keys().next_back(),
        ];
        let (start, end) = span(
            data,
            first.into_iter().flatten().min().copied(),
            last.into_iter().flatten().max().copied(),
        );
        DayFeed {
            certs,
            crl,
            whois,
            dns,
            start,
            end,
        }
    }

    /// First day with any observable item (or the simulation start).
    pub fn start(&self) -> Date {
        self.start
    }

    /// Last day of the feed (at least the last simulated day).
    pub fn end(&self) -> Date {
        self.end
    }

    /// Number of days the feed spans.
    pub fn day_count(&self) -> usize {
        ((self.end - self.start).num_days() + 1).max(0) as usize
    }

    /// Everything observable in `[from, to]`, date-major.
    pub fn delta(&self, from: Date, to: Date) -> DayDelta<'w> {
        let mut delta = DayDelta {
            from,
            to,
            ..Default::default()
        };
        for items in self.certs.range(from..=to).map(|(_, v)| v) {
            delta.certs.extend(items.iter().copied());
        }
        for items in self.crl.range(from..=to).map(|(_, v)| v) {
            delta.crl.extend(items.iter().copied());
        }
        for items in self.whois.range(from..=to).map(|(_, v)| v) {
            delta.whois.extend(items.iter().copied());
        }
        for (date, items) in self.dns.range(from..=to) {
            delta.dns.extend(items.iter().map(|(d, v)| (*date, *d, *v)));
        }
        delta
    }

    /// Consecutive deltas of `day_batch` days covering `[self.start, through]`.
    pub fn batches(&self, day_batch: usize, through: Date) -> Vec<(Date, Date)> {
        let step = day_batch.max(1) as i64;
        let mut out = Vec::new();
        let mut from = self.start;
        let through = through.min(self.end);
        while from <= through {
            let to = (from + stale_types::Duration::days(step - 1)).min(through);
            out.push((from, to));
            from = to.succ();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScenarioConfig;
    use crate::world::World;

    #[test]
    fn feed_covers_every_dataset_item_exactly_once() {
        let data = World::run(ScenarioConfig::tiny());
        let feed = DayFeed::new(&data);
        let full = feed.delta(feed.start(), feed.end());
        assert_eq!(full.certs.len(), data.monitor.dedup_count());
        assert_eq!(full.crl.len(), data.crl.records().len());
        assert_eq!(full.whois.len(), data.whois.observations().count());
        assert_eq!(full.dns.len(), data.adns.change_count());
        // Indices cover 0..len uniquely.
        let mut idx: Vec<usize> = full.crl.iter().map(|(i, _)| *i).collect();
        idx.sort_unstable();
        idx.dedup();
        assert_eq!(idx.len(), data.crl.records().len());
    }

    #[test]
    fn whole_delta_is_the_full_feed_in_dataset_order() {
        let data = World::run(ScenarioConfig::tiny());
        let feed = DayFeed::new(&data);
        let whole = DayDelta::whole(&data);
        assert_eq!((whole.from, whole.to), (feed.start(), feed.end()));
        let full = feed.delta(feed.start(), feed.end());
        let ids = |certs: &[&DedupedCert]| {
            let mut ids: Vec<_> = certs.iter().map(|c| c.cert_id).collect();
            ids.sort();
            ids
        };
        assert_eq!(ids(&whole.certs), ids(&full.certs));
        let mut crl: Vec<usize> = full.crl.iter().map(|(i, _)| *i).collect();
        crl.sort_unstable();
        assert_eq!(whole.crl.iter().map(|(i, _)| *i).collect::<Vec<_>>(), crl);
        let mut whois = full.whois.clone();
        whois.sort();
        assert_eq!(whole.whois, whois, "domain-major, chronological per domain");
        let mut dns: Vec<_> = full.dns.iter().map(|(d, n, _)| (*n, *d)).collect();
        dns.sort();
        let whole_dns: Vec<_> = whole.dns.iter().map(|(d, n, _)| (*n, *d)).collect();
        assert_eq!(whole_dns, dns, "domain-major, chronological per domain");
    }

    #[test]
    fn batches_tile_the_feed_without_overlap() {
        let data = World::run(ScenarioConfig::tiny());
        let feed = DayFeed::new(&data);
        for width in [1usize, 7, 30] {
            let batches = feed.batches(width, feed.end());
            assert_eq!(batches.first().map(|b| b.0), Some(feed.start()));
            assert_eq!(batches.last().map(|b| b.1), Some(feed.end()));
            for pair in batches.windows(2) {
                assert_eq!(pair[0].1.succ(), pair[1].0, "gap or overlap");
            }
            let total: usize = batches
                .iter()
                .map(|(f, t)| feed.delta(*f, *t).items())
                .sum();
            assert_eq!(total, feed.delta(feed.start(), feed.end()).items());
        }
    }

    #[test]
    fn per_domain_streams_are_chronological() {
        let data = World::run(ScenarioConfig::tiny());
        let feed = DayFeed::new(&data);
        let mut last_whois: std::collections::HashMap<&DomainName, Date> = Default::default();
        let mut last_dns: std::collections::HashMap<&DomainName, Date> = Default::default();
        for (from, to) in feed.batches(7, feed.end()) {
            let delta = feed.delta(from, to);
            for (domain, creation) in &delta.whois {
                if let Some(prev) = last_whois.insert(domain, *creation) {
                    assert!(prev < *creation, "whois out of order for {domain}");
                }
            }
            for (date, domain, _) in &delta.dns {
                if let Some(prev) = last_dns.insert(domain, *date) {
                    assert!(prev < *date, "dns out of order for {domain}");
                }
            }
        }
    }
}
