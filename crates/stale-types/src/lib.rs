//! Foundation types shared by every crate in the `stale-tls` workspace.
//!
//! The paper operates at *day* granularity over a 2013–2023 window: WHOIS
//! creation dates, certificate `notBefore`/`notAfter` dates, daily DNS scans
//! and daily CRL downloads. [`Date`] is therefore a civil calendar date
//! (days since the Unix epoch) with exact Gregorian conversion, and
//! [`DateInterval`] is the half-open day interval used for certificate
//! validity windows and DNS delegation spans.
//!
//! [`DomainName`] is a validated, lower-cased DNS name; effective-TLD logic
//! lives in the `psl` crate which builds on it.

pub mod domain;
pub mod error;
pub mod hex;
pub mod ids;
pub mod interval;
pub mod time;

pub use domain::DomainName;
pub use error::{Error, Result};
pub use ids::{AccountId, CaId, CertId, KeyId, SerialNumber};
pub use interval::DateInterval;
pub use time::{Date, Duration, Month, YearMonth};
