//! DNS substrate: records, zones, resolution, wire format and the active
//! scanning dataset.
//!
//! The managed-TLS departure detector (§4.3) consumes *daily active DNS
//! scans* of A/AAAA/NS/CNAME records and diffs neighbouring days. This
//! crate provides:
//!
//! * [`record`] — resource records and record data;
//! * [`zone`] — authoritative zone storage with point-in-time mutation;
//! * [`resolver`] — recursive resolution with NS delegation and CNAME
//!   chasing over a set of zones;
//! * [`wire`] — RFC 1035 wire-format encoding/decoding with name
//!   compression (the on-the-wire substrate a real scanner would speak);
//! * [`scan`] — the daily scanner and the interval-compressed
//!   [`scan::DnsHistory`] that stands in for the paper's 300M-record/day
//!   aDNS feed without materialising every day.

pub mod record;
pub mod resolver;
pub mod scan;
pub mod server;
pub mod wire;
pub mod zone;
pub mod zonefile;

pub use record::{Ipv4Addr, RData, Record, RecordType, Ttl};
pub use resolver::{ResolutionError, Resolver};
pub use scan::{DailyScanner, DnsHistory};
pub use zone::Zone;
