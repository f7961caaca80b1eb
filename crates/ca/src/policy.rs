//! Certificate lifetime policy over time.
//!
//! §6 of the paper traces the CA/Browser Forum's maximum-validity history:
//! 39 months until Ballot 193 (effective March 2018) cut DV certificates
//! to 825 days, then browser enforcement from September 2020 cut everything
//! to 398 days (366 + 31 + 1). Some CAs self-impose 90 days on all their
//! issuance (Let's Encrypt, Google Trust Services, cPanel).

use serde::{Deserialize, Serialize};
use stale_types::{Date, Duration};

/// Day Ballot 193's 825-day limit took effect: 2018-03-01.
pub const fn ballot_193_effective() -> Date {
    Date::from_days(17_591)
}

/// Day browsers began enforcing the 398-day maximum: 2020-09-01.
pub const fn limit_398_effective() -> Date {
    Date::from_days(18_506)
}

/// The industry-wide maximum certificate lifetime for a certificate
/// issued on `date`.
pub fn baseline_max_lifetime(date: Date) -> Duration {
    if date >= limit_398_effective() {
        Duration::days(398)
    } else if date >= ballot_193_effective() {
        Duration::days(825)
    } else {
        // 39 months ≈ 1186 days.
        Duration::days(1186)
    }
}

/// Per-CA issuance policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CaPolicy {
    /// Lifetime the CA issues when the subscriber does not ask otherwise.
    pub default_lifetime: Duration,
    /// Self-imposed cap below the industry baseline, if any.
    pub self_imposed_max: Option<Duration>,
    /// Whether the CA honours cached domain validations (398-day reuse).
    pub validation_reuse: bool,
}

impl CaPolicy {
    /// A Let's-Encrypt-style automated CA: 90-day certificates only.
    pub fn automated_90_day() -> Self {
        CaPolicy {
            default_lifetime: Duration::days(90),
            self_imposed_max: Some(Duration::days(90)),
            validation_reuse: false,
        }
    }

    /// A traditional commercial CA: max-lifetime certificates by default,
    /// with validation reuse.
    pub fn commercial() -> Self {
        CaPolicy {
            default_lifetime: Duration::days(398),
            self_imposed_max: None,
            validation_reuse: true,
        }
    }

    /// The effective maximum lifetime this CA may issue on `date`.
    pub fn max_lifetime_at(&self, date: Date) -> Duration {
        let baseline = baseline_max_lifetime(date);
        match self.self_imposed_max {
            Some(own) if own < baseline => own,
            _ => baseline,
        }
    }

    /// Clamp a requested lifetime to policy on `date`; zero or negative
    /// requests get the default.
    pub fn clamp(&self, requested: Option<Duration>, date: Date) -> Duration {
        let max = self.max_lifetime_at(date);
        let want = match requested {
            Some(d) if d.num_days() > 0 => d,
            _ => self.default_lifetime,
        };
        if want > max {
            max
        } else {
            want
        }
    }
}

/// How long a cached domain validation may be reused (CA/B BR: 398 days).
pub fn validation_reuse_window() -> Duration {
    Duration::days(398)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> Date {
        Date::parse(s).unwrap()
    }

    #[test]
    fn policy_days_are_their_calendar_dates() {
        assert_eq!(ballot_193_effective(), Date::from_ymd(2018, 3, 1).unwrap());
        assert_eq!(limit_398_effective(), Date::from_ymd(2020, 9, 1).unwrap());
    }

    #[test]
    fn baseline_epochs() {
        assert_eq!(baseline_max_lifetime(d("2016-01-01")), Duration::days(1186));
        assert_eq!(baseline_max_lifetime(d("2018-02-28")), Duration::days(1186));
        assert_eq!(baseline_max_lifetime(d("2018-03-01")), Duration::days(825));
        assert_eq!(baseline_max_lifetime(d("2020-08-31")), Duration::days(825));
        assert_eq!(baseline_max_lifetime(d("2020-09-01")), Duration::days(398));
        assert_eq!(baseline_max_lifetime(d("2023-05-01")), Duration::days(398));
    }

    #[test]
    fn self_imposed_cap_wins_when_lower() {
        let le = CaPolicy::automated_90_day();
        assert_eq!(le.max_lifetime_at(d("2019-01-01")), Duration::days(90));
        assert_eq!(le.max_lifetime_at(d("2022-01-01")), Duration::days(90));
        let commercial = CaPolicy::commercial();
        assert_eq!(
            commercial.max_lifetime_at(d("2019-01-01")),
            Duration::days(825)
        );
        assert_eq!(
            commercial.max_lifetime_at(d("2022-01-01")),
            Duration::days(398)
        );
    }

    #[test]
    fn clamp_requested_lifetimes() {
        let commercial = CaPolicy::commercial();
        // Requesting 825 days in 2022 gets 398.
        assert_eq!(
            commercial.clamp(Some(Duration::days(825)), d("2022-01-01")),
            Duration::days(398)
        );
        // Requesting 30 days is honoured.
        assert_eq!(
            commercial.clamp(Some(Duration::days(30)), d("2022-01-01")),
            Duration::days(30)
        );
        // No request: default.
        assert_eq!(commercial.clamp(None, d("2022-01-01")), Duration::days(398));
        // Zero request: default.
        assert_eq!(
            commercial.clamp(Some(Duration::days(0)), d("2022-01-01")),
            Duration::days(398)
        );
        // In 2019 the commercial default of 398 fits under the 825 cap.
        assert_eq!(commercial.clamp(None, d("2019-01-01")), Duration::days(398));
    }
}
