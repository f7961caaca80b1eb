//! Per-day delta feed over a completed dataset bundle.
//!
//! The paper's detectors consume *daily* feeds — CT monitors tail log
//! entries, CRLs are downloaded every day (§4.1), WHOIS is snapshotted
//! (§4.2) and aDNS scans run daily (§4.3). [`DayFeed`] recovers that shape
//! from a [`WorldDatasets`] bundle: every item is assigned to the day it
//! became observable. [`DayFeed::new`] is the only code that turns the
//! datasets into feed items, so every engine mode sees them in one order:
//! incremental runs and the daemon pull one [`DayDelta`] per day (or per
//! day-batch), and batch folds the feed's full delta at once.
//!
//! Observability dates:
//! * CT: `DedupedCert::first_seen` (earliest log entry timestamp);
//! * CRL: `RevocationRecord::observed` (first scrape day that served it);
//! * WHOIS: the registry creation date of each `(domain, creation)` pair
//!   (the day the snapshot first shows the new date);
//! * DNS: the date of each change-log entry (the scan that saw it).
//!
//! Ingesting every delta of the feed reconstructs exactly the serial
//! detectors' inputs — the equivalence the engine's tests assert byte for
//! byte.

use crate::datasets::WorldDatasets;
use ca::scraper::RevocationRecord;
use ct::monitor::DedupedCert;
use dns::scan::DnsView;
use stale_types::{Date, DomainName};

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

impl DayDelta<'_> {
    /// Total items carried by this delta.
    pub fn items(&self) -> usize {
        self.certs.len() + self.crl.len() + self.whois.len() + self.dns.len()
    }
}

/// Items tagged with the day they became observable, stable-sorted by it:
/// within a day, items keep the order the dataset walk produced them in.
struct Dated<T>(Vec<(Date, T)>);

impl<T: Copy> Dated<T> {
    fn new(items: impl Iterator<Item = (Date, T)>) -> Self {
        let mut items: Vec<(Date, T)> = items.collect();
        items.sort_by_key(|(day, _)| *day);
        Dated(items)
    }

    /// The items dated in `[from, to]`, in feed order.
    fn range(&self, from: Date, to: Date) -> &[(Date, T)] {
        let lo = self.0.partition_point(|(day, _)| *day < from);
        let hi = self.0.partition_point(|(day, _)| *day <= to);
        self.0.get(lo..hi).unwrap_or_default()
    }

    fn earliest_day(&self) -> Option<Date> {
        self.0.first().map(|(day, _)| *day)
    }

    fn latest_day(&self) -> Option<Date> {
        self.0.last().map(|(day, _)| *day)
    }
}

/// A date-indexed view of the four datasets: one flat, day-sorted vector
/// per dataset, built by one walk over the bundle; each [`Self::delta`]
/// is a binary search per dataset plus a copy of the range.
pub struct DayFeed<'w> {
    certs: Dated<&'w DedupedCert>,
    crl: Dated<(usize, &'w RevocationRecord)>,
    whois: Dated<&'w DomainName>,
    dns: Dated<(&'w DomainName, &'w DnsView)>,
    start: Date,
    end: Date,
}

impl<'w> DayFeed<'w> {
    /// Index `data` by observability day.
    pub fn new(data: &'w WorldDatasets) -> Self {
        let certs = Dated::new(
            data.monitor
                .corpus_unfiltered()
                .map(|cert| (cert.first_seen, cert)),
        );
        let crl = Dated::new(
            data.crl
                .records()
                .iter()
                .enumerate()
                .map(|(index, rec)| (rec.observed, (index, rec))),
        );
        let whois = Dated::new(
            data.whois
                .observations()
                .map(|(domain, creation)| (creation, domain)),
        );
        let dns =
            Dated::new(data.adns.change_logs().flat_map(|(domain, log)| {
                log.iter().map(move |(date, view)| (*date, (domain, view)))
            }));
        let first = [
            certs.earliest_day(),
            crl.earliest_day(),
            whois.earliest_day(),
            dns.earliest_day(),
        ];
        let last = [
            certs.latest_day(),
            crl.latest_day(),
            whois.latest_day(),
            dns.latest_day(),
        ];
        // An empty world still yields a well-formed (empty) feed, and the
        // feed runs at least through the last simulated day.
        let start = first
            .into_iter()
            .flatten()
            .min()
            .unwrap_or(data.sim_window.start);
        let end = last
            .into_iter()
            .flatten()
            .max()
            .unwrap_or(data.sim_window.start)
            .max(data.sim_window.end.pred());
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

    /// Total items the feed holds — the item count of its full delta,
    /// without building it.
    pub fn items(&self) -> usize {
        self.certs.0.len() + self.crl.0.len() + self.whois.0.len() + self.dns.0.len()
    }

    /// Number of days the feed spans.
    pub fn day_count(&self) -> usize {
        ((self.end - self.start).num_days() + 1).max(0) as usize
    }

    /// Everything observable in `[from, to]`, date-major.
    pub fn delta(&self, from: Date, to: Date) -> DayDelta<'w> {
        DayDelta {
            from,
            to,
            certs: self.certs.range(from, to).iter().map(|(_, c)| *c).collect(),
            crl: self.crl.range(from, to).iter().map(|(_, r)| *r).collect(),
            whois: (self.whois.range(from, to).iter())
                .map(|(day, domain)| (*domain, *day))
                .collect(),
            dns: (self.dns.range(from, to).iter())
                .map(|(day, (domain, view))| (*day, *domain, *view))
                .collect(),
        }
    }

    /// Consecutive `[from, to]` windows of `day_batch` days tiling
    /// `[from, through]`, `through` clamped to the feed's last day.
    pub fn batches(&self, mut from: Date, day_batch: usize, through: Date) -> Vec<(Date, Date)> {
        let step = day_batch.max(1) as i64;
        let mut out = Vec::new();
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
        assert_eq!(feed.items(), full.items());
        // Indices cover 0..len uniquely.
        let mut idx: Vec<usize> = full.crl.iter().map(|(i, _)| *i).collect();
        idx.sort_unstable();
        idx.dedup();
        assert_eq!(idx.len(), data.crl.records().len());
    }

    #[test]
    fn the_full_delta_is_each_dataset_walk_stable_sorted_by_day_and_days_concatenate_to_it() {
        let data = World::run(ScenarioConfig::tiny());
        let feed = DayFeed::new(&data);
        let full = feed.delta(feed.start(), feed.end());
        let ids = |certs: &[&DedupedCert]| certs.iter().map(|c| c.cert_id).collect::<Vec<_>>();

        // Each dataset in its own walk order, stable-sorted by the day its
        // items became observable.
        let mut certs: Vec<&DedupedCert> = data.monitor.corpus_unfiltered().collect();
        certs.sort_by_key(|c| c.first_seen);
        assert_eq!(ids(&full.certs), ids(&certs));
        let mut crl: Vec<usize> = (0..data.crl.records().len()).collect();
        crl.sort_by_key(|i| data.crl.records()[*i].observed);
        let full_crl: Vec<usize> = full.crl.iter().map(|(i, _)| *i).collect();
        assert_eq!(full_crl, crl);
        let mut whois: Vec<(&DomainName, Date)> = data.whois.observations().collect();
        whois.sort_by_key(|(_, day)| *day);
        assert_eq!(full.whois, whois);
        let mut dns: Vec<(Date, &DomainName)> = (data.adns.change_logs())
            .flat_map(|(domain, log)| log.iter().map(move |(day, _)| (*day, domain)))
            .collect();
        dns.sort_by_key(|(day, _)| *day);
        let full_dns: Vec<(Date, &DomainName)> =
            full.dns.iter().map(|(d, n, _)| (*d, *n)).collect();
        assert_eq!(full_dns, dns);

        // The single-day deltas, concatenated, are the full delta item for
        // item.
        let mut days = DayDelta::default();
        for (from, to) in feed.batches(feed.start(), 1, feed.end()) {
            let day = feed.delta(from, to);
            days.certs.extend(day.certs);
            days.crl.extend(day.crl);
            days.whois.extend(day.whois);
            days.dns.extend(day.dns);
        }
        assert_eq!(ids(&days.certs), ids(&full.certs));
        let days_crl: Vec<usize> = days.crl.iter().map(|(i, _)| *i).collect();
        assert_eq!(days_crl, full_crl);
        assert_eq!(days.whois, full.whois);
        let days_dns: Vec<(Date, &DomainName)> =
            days.dns.iter().map(|(d, n, _)| (*d, *n)).collect();
        assert_eq!(days_dns, full_dns);
    }

    #[test]
    fn batches_tile_the_feed_without_overlap() {
        let data = World::run(ScenarioConfig::tiny());
        let feed = DayFeed::new(&data);
        for width in [1usize, 7, 30] {
            let batches = feed.batches(feed.start(), width, feed.end());
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
            // A resumed run tiles from its start day; a `through` past the
            // feed is clamped to its last day.
            let resume = feed.start() + stale_types::Duration::days(10);
            let tail = feed.batches(resume, width, feed.end().succ());
            assert_eq!(tail.first().map(|b| b.0), Some(resume));
            assert_eq!(tail.last().map(|b| b.1), Some(feed.end()));
            assert!(tail.iter().all(|(f, t)| f <= t));
        }
        assert!(feed.batches(feed.end().succ(), 7, feed.end()).is_empty());
    }

    #[test]
    fn per_domain_streams_are_chronological() {
        let data = World::run(ScenarioConfig::tiny());
        let feed = DayFeed::new(&data);
        let mut last_whois: std::collections::HashMap<&DomainName, Date> = Default::default();
        let mut last_dns: std::collections::HashMap<&DomainName, Date> = Default::default();
        for (from, to) in feed.batches(feed.start(), 7, feed.end()) {
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
