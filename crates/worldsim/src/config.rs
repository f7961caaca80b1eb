//! Scenario configuration and presets.
//!
//! Every behavioural knob of the world is here so the calibration that
//! makes the output match the paper's *shapes* is explicit and auditable.
//! The `paper2023` preset encodes the historical timeline the paper's
//! figures hinge on; `small`/`tiny` are scaled-down versions for tests
//! and quick runs.

use crate::distributions::Timeline;
use stale_types::{Date, DateInterval, Duration};

/// Era-dependent rates, as piecewise-linear functions of the date.
#[derive(Debug, Clone)]
pub struct EraTable {
    /// New domain registrations per day.
    pub domain_births_per_day: Timeline,
    /// Probability a new domain deploys HTTPS at all.
    pub https_adoption: Timeline,
    /// Among HTTPS domains: share choosing the Cloudflare-like CDN.
    pub cdn_share: Timeline,
    /// Among HTTPS domains: share choosing AutoSSL web hosting.
    pub webhost_share: Timeline,
    /// Among self-managed domains: share using the automated 90-day CA
    /// (zero before its launch).
    pub le_share: Timeline,
}

/// Full scenario configuration.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Master RNG seed; the whole world is deterministic given this.
    pub seed: u64,
    /// First simulated day.
    pub start: Date,
    /// One past the last simulated day.
    pub end: Date,
    /// Domains pre-seeded at `start`.
    pub initial_domains: usize,
    /// Era-dependent rates.
    pub eras: EraTable,
    /// Domain registration term.
    pub registration_term: Duration,
    /// Probability the registrant renews at each expiration.
    pub domain_renewal_prob: f64,
    /// Probability a released domain is re-registered by a new owner.
    pub rereg_prob: f64,
    /// Re-registration happens within this many days of release.
    pub rereg_delay_max_days: i64,
    /// Probability a departing CDN customer ever departs (the rest stay
    /// for the whole simulation).
    pub cdn_depart_prob: f64,
    /// Mean days from enrollment to departure, for departers.
    pub cdn_depart_mean_days: f64,
    /// Per-issuance probability of key compromise for commercial CAs.
    pub kc_prob_commercial: f64,
    /// Per-issuance probability of key compromise for automated CAs
    /// (applies only after `le_kc_reporting_start`).
    pub kc_prob_automated: f64,
    /// Mean days from issuance to compromise (Exp-distributed; §5.1/Fig 8:
    /// compromise reporting clusters near issuance).
    pub kc_delay_mean_days: f64,
    /// Per-issuance probability of a non-compromise revocation.
    pub other_revocation_prob: f64,
    /// Fraction of registrant-change domains whose prior owner was
    /// malicious (Table 5 measures ≈1%).
    pub malicious_prior_owner_prob: f64,
    /// Popularity rank universe (Alexa Top-1M analogue).
    pub max_rank: u32,
    /// The automated CA's launch day (Let's Encrypt, Dec 2015).
    pub le_launch: Date,
    /// Day the automated CA began reporting key compromise (July 2022).
    pub le_kc_reporting_start: Date,
    /// Day the CDN moved from cruise-liner COMODO certs to per-domain
    /// own-CA certs (mid-2019, Figure 5b).
    pub cdn_own_ca_transition: Date,
    /// GoDaddy-style web-host breach day (None disables it).
    pub host_breach: Option<Date>,
    /// Breach blast radius: certificates issued within this many days.
    pub host_breach_max_age_days: i64,
    /// Active-DNS scan window (§4.3: 2022-08-01 – 2022-10-30).
    pub adns_window: DateInterval,
    /// CRL collection window (§4.1: 2022-11-01 – 2023-05-05).
    pub crl_window: DateInterval,
    /// Default daily CRL download failure rate.
    pub crl_failure_default: f64,
    /// Fraction of self-managed certificates that add a `www.` SAN.
    pub www_san_prob: f64,
    /// Fraction of self-managed issuances that are for a subdomain
    /// (api./mail./shop.) instead of the apex.
    pub subdomain_cert_prob: f64,
}

impl ScenarioConfig {
    /// The full calibrated preset reproducing the paper's 2013–2023
    /// timeline at laptop scale.
    pub fn paper2023() -> Self {
        ScenarioConfig {
            seed: 0x5741_13c3,
            start: Date::parse("2013-03-01").expect("fixed"),
            end: Date::parse("2023-05-13").expect("fixed"),
            initial_domains: 1500,
            eras: EraTable {
                domain_births_per_day: Timeline::new(&[
                    ("2013-01-01", 2.0),
                    ("2015-01-01", 3.0),
                    ("2017-01-01", 5.0),
                    ("2019-01-01", 7.0),
                    ("2021-01-01", 9.0),
                    ("2023-01-01", 10.0),
                ]),
                https_adoption: Timeline::new(&[
                    ("2013-01-01", 0.15),
                    ("2016-01-01", 0.35),
                    ("2018-01-01", 0.65),
                    ("2020-01-01", 0.85),
                    ("2023-01-01", 0.95),
                ]),
                cdn_share: Timeline::new(&[
                    ("2013-01-01", 0.04),
                    ("2016-01-01", 0.12),
                    ("2018-01-01", 0.25),
                    ("2020-01-01", 0.33),
                    ("2023-01-01", 0.38),
                ]),
                webhost_share: Timeline::new(&[
                    ("2013-01-01", 0.06),
                    ("2018-01-01", 0.10),
                    ("2023-01-01", 0.12),
                ]),
                le_share: Timeline::new(&[
                    ("2015-12-01", 0.0),
                    ("2016-06-01", 0.15),
                    ("2018-01-01", 0.55),
                    ("2020-01-01", 0.75),
                    ("2023-01-01", 0.85),
                ]),
            },
            registration_term: Duration::days(365),
            domain_renewal_prob: 0.75,
            rereg_prob: 0.50,
            rereg_delay_max_days: 120,
            cdn_depart_prob: 0.70,
            cdn_depart_mean_days: 350.0,
            kc_prob_commercial: 0.007,
            kc_prob_automated: 0.002,
            kc_delay_mean_days: 25.0,
            other_revocation_prob: 0.12,
            malicious_prior_owner_prob: 0.01,
            max_rank: 1_000_000,
            le_launch: Date::parse("2015-12-01").expect("fixed"),
            le_kc_reporting_start: Date::parse("2022-07-01").expect("fixed"),
            cdn_own_ca_transition: Date::parse("2019-06-01").expect("fixed"),
            host_breach: Some(Date::parse("2021-11-17").expect("fixed")),
            host_breach_max_age_days: 40,
            adns_window: DateInterval::new(
                Date::parse("2022-08-01").expect("fixed"),
                Date::parse("2022-10-31").expect("fixed"),
            )
            .expect("valid window"),
            crl_window: DateInterval::new(
                Date::parse("2022-11-01").expect("fixed"),
                Date::parse("2023-05-06").expect("fixed"),
            )
            .expect("valid window"),
            crl_failure_default: 0.016,
            www_san_prob: 0.30,
            subdomain_cert_prob: 0.12,
        }
    }

    /// A reduced preset (~1/6 the population) for integration tests and
    /// runs that exercise the full pipeline quickly.
    pub fn small() -> Self {
        let mut cfg = Self::paper2023();
        cfg.initial_domains = 250;
        cfg.eras.domain_births_per_day = cfg.eras.domain_births_per_day.scaled(1.0 / 6.0);
        cfg
    }

    /// A minimal preset covering only 2021–2023 for fast unit tests.
    pub fn tiny() -> Self {
        let mut cfg = Self::paper2023();
        cfg.seed = 11;
        cfg.start = Date::parse("2021-01-01").expect("fixed");
        cfg.end = Date::parse("2023-05-13").expect("fixed");
        cfg.initial_domains = 120;
        cfg.eras.domain_births_per_day = Timeline::constant(0.8);
        cfg
    }

    /// Number of simulated days.
    pub fn sim_days(&self) -> i64 {
        (self.end - self.start).num_days()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_coherent() {
        for cfg in [
            ScenarioConfig::paper2023(),
            ScenarioConfig::small(),
            ScenarioConfig::tiny(),
        ] {
            assert!(cfg.start < cfg.end);
            assert!(cfg.sim_days() > 300);
            assert!(cfg.adns_window.start >= cfg.start && cfg.adns_window.end <= cfg.end);
            assert!(cfg.crl_window.start >= cfg.start);
            assert!((0.0..=1.0).contains(&cfg.domain_renewal_prob));
            assert!((0.0..=1.0).contains(&cfg.rereg_prob));
            assert!(cfg.kc_prob_commercial < 0.1, "compromise must stay rare");
        }
    }

    #[test]
    fn era_values_in_range_over_window() {
        let cfg = ScenarioConfig::paper2023();
        for day in cfg.start.iter_until(cfg.end).step_by(30) {
            for t in [
                &cfg.eras.https_adoption,
                &cfg.eras.cdn_share,
                &cfg.eras.webhost_share,
                &cfg.eras.le_share,
            ] {
                let v = t.at(day);
                assert!((0.0..=1.0).contains(&v), "{v} at {day}");
            }
            assert!(cfg.eras.domain_births_per_day.at(day) >= 0.0);
        }
    }

    #[test]
    fn le_share_zero_before_launch() {
        let cfg = ScenarioConfig::paper2023();
        assert_eq!(
            cfg.eras.le_share.at(Date::parse("2014-01-01").unwrap()),
            0.0
        );
        assert!(cfg.eras.le_share.at(Date::parse("2020-01-01").unwrap()) > 0.5);
    }
}
