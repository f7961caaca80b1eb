//! The simulated world, pinned byte for byte.
//!
//! `World::run` is the dominant cost of a paper build, so it is the code
//! most worth optimising and the code an optimisation may most easily
//! perturb. These tests fix what the simulator produces for the `tiny`
//! and `small` presets: the canonical world-fact log (every certificate
//! body, CRL, WHOIS and DNS fact) by byte length and FNV-1a digest, and a
//! canonical rendering of the side channels the log leaves out — ground
//! truth, popularity samples, reputation records and CRL scrape
//! statistics. Any change to the simulator that moves one byte of its
//! datasets fails here with both digests printed.

use stale_tls::prelude::*;
use stale_tls::worldsim::WorldLog;
use std::fmt::Write as _;

/// Length and digest of a rendering.
fn pin(text: &str) -> (usize, String) {
    (
        text.len(),
        format!("{:016x}", obs::fnv1a64(text.as_bytes())),
    )
}

/// The side channels in one canonical text: every list in its recorded
/// order, popularity sorted by (date, domain), maps in key order.
fn side_channels(data: &WorldDatasets) -> String {
    let mut out = String::new();
    let gt = &data.ground_truth;
    for (domain, date) in &gt.registrant_changes {
        let _ = writeln!(out, "registrant-change {date} {domain}");
    }
    for (domain, date) in &gt.invisible_transfers {
        let _ = writeln!(out, "invisible-transfer {date} {domain}");
    }
    for (domain, date) in &gt.cdn_departures {
        let _ = writeln!(out, "cdn-departure {date} {domain}");
    }
    for c in &gt.compromises {
        let _ = writeln!(out, "compromise {} {} {}", c.date, c.ca_key, c.serial);
    }
    for serial in &gt.breach_serials {
        let _ = writeln!(out, "breach-serial {serial}");
    }
    let _ = writeln!(
        out,
        "breach-date {:?}",
        gt.breach_date.map(|d| d.to_string())
    );
    for sample in &data.popularity.samples {
        let mut ranks: Vec<_> = sample.ranks.iter().collect();
        ranks.sort();
        for (domain, rank) in ranks {
            let _ = writeln!(out, "rank {} {domain} {rank}", sample.date);
        }
    }
    for (domain, r) in data.reputation.iter() {
        let _ = writeln!(
            out,
            "reputation {domain} {} {} vendors={} malware={:?} urls={:?}",
            r.first_submission,
            r.above_threshold(),
            r.vendor_count,
            r.malware_families,
            r.url_labels
        );
    }
    for (ca, (attempted, succeeded)) in &data.crl_stats.per_ca {
        let _ = writeln!(out, "crl-scrape {ca} {attempted} {succeeded}");
    }
    out
}

fn check(cfg: ScenarioConfig, log: (usize, &str), side: (usize, &str)) {
    let data = World::run(cfg);
    let got_log = pin(&WorldLog::from_datasets(&data).to_jsonl());
    let got_side = pin(&side_channels(&data));
    assert_eq!(
        (
            got_log.0,
            got_log.1.as_str(),
            got_side.0,
            got_side.1.as_str()
        ),
        (log.0, log.1, side.0, side.1),
        "world log (bytes, fnv1a64), then side channels (bytes, fnv1a64)"
    );
}

#[test]
fn tiny_world_is_pinned() {
    check(
        ScenarioConfig::tiny(),
        (4_087_211, "d06773011f23ea70"),
        (19_541, "6e45e673e1aaff62"),
    );
}

#[test]
fn small_world_is_pinned() {
    check(
        ScenarioConfig::small(),
        (28_780_007, "1b528ba00ac5c46a"),
        (377_267, "d79662d9703e0e04"),
    );
}
