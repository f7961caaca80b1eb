//! The simulator's outputs: the Table 3 dataset bundle plus ground truth.

use ca::scraper::{CrlDataset, ScrapeStats};
use cdn::provider::ProviderConfig;
use ct::monitor::CtMonitor;
use dns::scan::DnsHistory;
use registry::whois::WhoisDataset;
use stale_types::{Date, DateInterval, DomainName, KeyId, SerialNumber};

use crate::popularity::PopularityArchive;
use crate::reputation::ReputationFeed;

/// One recorded key compromise (ground truth).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompromiseEvent {
    /// Issuing CA key.
    pub ca_key: KeyId,
    /// Compromised certificate serial.
    pub serial: SerialNumber,
    /// Day the key leaked.
    pub date: Date,
}

/// What actually happened in the world — the detectors are validated
/// against this, and the limitations of each detector (transfers without
/// re-registration, non-Cloudflare providers) show up as the gap between
/// ground truth and detection.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    /// `(domain, change day)` for every re-registration by a new owner.
    pub registrant_changes: Vec<(DomainName, Date)>,
    /// Intra-registry transfers — ownership changes the creation-date
    /// method cannot see (§4.4).
    pub invisible_transfers: Vec<(DomainName, Date)>,
    /// `(domain, departure day)` for every managed-TLS departure.
    pub cdn_departures: Vec<(DomainName, Date)>,
    /// Individual key compromises.
    pub compromises: Vec<CompromiseEvent>,
    /// Serials revoked in the scripted web-host breach.
    pub breach_serials: Vec<SerialNumber>,
    /// Day of the scripted breach, if it fired.
    pub breach_date: Option<Date>,
}

/// Everything the measurement pipeline consumes.
pub struct WorldDatasets {
    /// Deduplicated CT corpus (plays the role of the 5B-cert CT dataset).
    pub monitor: CtMonitor,
    /// The CRL revocation feed (plays the role of the 31M-CRL download).
    pub crl: CrlDataset,
    /// CRL scrape coverage (Table 7).
    pub crl_stats: ScrapeStats,
    /// Registry creation dates (plays the role of the Verisign WHOIS bulk
    /// feed).
    pub whois: WhoisDataset,
    /// Daily DNS scan history (plays the role of the aDNS feed).
    pub adns: DnsHistory,
    /// Popularity samples (Alexa Top-1M analogue).
    pub popularity: PopularityArchive,
    /// Reputation feed (VirusTotal analogue).
    pub reputation: ReputationFeed,
    /// What really happened.
    pub ground_truth: GroundTruth,
    /// The CDN's delegation/marker configuration — what §4.3's detector
    /// is allowed to know about Cloudflare.
    pub cdn_config: ProviderConfig,
    /// Simulated window.
    pub sim_window: DateInterval,
    /// aDNS scan window (§4.3).
    pub adns_window: DateInterval,
    /// CRL collection window (§4.1).
    pub crl_window: DateInterval,
    /// Raw CT log entries before dedup.
    pub ct_raw_entries: usize,
    /// Number of CT logs (shards).
    pub ct_log_count: usize,
}

/// Table 3 shaped dataset summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetSummary {
    /// Dataset name, date range, size description — one row per dataset.
    pub rows: Vec<(String, String, String)>,
}

/// Fold the structural fingerprint from its raw components — FNV-1a over
/// dataset sizes and window bounds. Shared between
/// [`WorldDatasets::fingerprint`] (live datasets, which the world-log
/// reader compares against the log header after reconstruction) and the
/// world-log cap rewrite, which re-folds the header from its rewritten
/// events without rebuilding the world.
#[allow(clippy::too_many_arguments)]
pub fn fold_fingerprint(
    dedup_count: usize,
    ct_raw_entries: usize,
    ct_log_count: usize,
    crl_len: usize,
    whois_records: usize,
    whois_domains: usize,
    adns_domains: usize,
    windows: [DateInterval; 3],
) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    mix(dedup_count as u64);
    mix(ct_raw_entries as u64);
    mix(ct_log_count as u64);
    mix(crl_len as u64);
    mix(whois_records as u64);
    mix(whois_domains as u64);
    mix(adns_domains as u64);
    for window in windows {
        for date in [window.start, window.end] {
            let (y, m, d) = date.ymd();
            mix(((y as u64) << 16) | ((m as u64) << 8) | d as u64);
        }
    }
    h
}

impl WorldDatasets {
    /// A cheap structural fingerprint of the dataset bundle, used by the
    /// engine's checkpoint files to refuse resuming against a different
    /// world. Folds dataset sizes and window bounds through FNV-1a; it is
    /// not cryptographic and does not hash certificate bodies.
    pub fn fingerprint(&self) -> u64 {
        fold_fingerprint(
            self.monitor.dedup_count(),
            self.ct_raw_entries,
            self.ct_log_count,
            self.crl.len(),
            self.whois.record_count(),
            self.whois.domain_count(),
            self.adns.domain_count(),
            [self.sim_window, self.adns_window, self.crl_window],
        )
    }

    /// Build the Table 3 summary.
    pub fn summary(&self) -> DatasetSummary {
        let mut rows = Vec::new();
        rows.push((
            "CT".to_string(),
            format!("{} – {}", self.sim_window.start, self.sim_window.end),
            format!(
                "{} certs (deduplicated from {} entries in {} logs)",
                self.monitor.dedup_count(),
                self.ct_raw_entries,
                self.ct_log_count
            ),
        ));
        rows.push((
            "CRL".to_string(),
            format!("{} – {}", self.crl_window.start, self.crl_window.end),
            format!(
                "{} revocations from {} CAs",
                self.crl.len(),
                self.crl_stats.per_ca.len()
            ),
        ));
        rows.push((
            "WHOIS".to_string(),
            self.whois
                .window_start
                .zip(self.whois.window_end)
                .map(|(a, b)| format!("{a} – {b}"))
                .unwrap_or_else(|| "(empty)".to_string()),
            format!(
                "{} records ({} domains)",
                self.whois.record_count(),
                self.whois.domain_count()
            ),
        ));
        rows.push((
            "aDNS".to_string(),
            format!("{} – {}", self.adns_window.start, self.adns_window.end),
            format!(
                "{} domains scanned daily (~{} records/day)",
                self.adns.domain_count(),
                self.adns.record_count_at(self.adns_window.start)
            ),
        ));
        DatasetSummary { rows }
    }
}
