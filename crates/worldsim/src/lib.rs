//! The world simulator: a discrete-event model of the 2013–2023 web PKI
//! that generates the four datasets of the paper's Table 3.
//!
//! The paper measures real CT logs, CRLs, WHOIS and active-DNS feeds. Our
//! reproduction substitutes a calibrated simulation (DESIGN.md §2): domains
//! are born, adopt HTTPS, pick hosting (self-managed, Cloudflare-like CDN,
//! AutoSSL web host), renew certificates, lapse, get re-registered by new
//! owners, migrate off their CDN, and occasionally leak keys — including
//! scripted historical events (Let's Encrypt's launch, the COMODO
//! cruise-liner era and Cloudflare's own-CA transition, the September 2020
//! 398-day limit, the GoDaddy managed-WordPress breach of November 2021,
//! Let's Encrypt's July 2022 key-compromise reporting start).
//!
//! Outputs ([`datasets::WorldDatasets`]):
//! * a CT corpus ([`ct::CtMonitor`]) fed through real logs,
//! * a CRL dataset scraped daily from every CA with failure rates,
//! * a WHOIS creation-date feed,
//! * an interval-compressed daily DNS scan,
//! * popularity and reputation side-channels (Tables 5–6),
//! * and the ground-truth event log the detectors are validated against.

pub mod config;
pub mod datasets;
pub mod dayfeed;
pub mod distributions;
pub mod popularity;
pub mod reputation;
pub mod world;
pub mod worldlog;

pub use config::{EraTable, ScenarioConfig};
pub use datasets::{DatasetSummary, GroundTruth, WorldDatasets};
pub use dayfeed::{DayDelta, DayFeed};
pub use popularity::PopularityArchive;
pub use reputation::{DomainReputation, ReputationFeed};
pub use world::World;
pub use worldlog::{WorldEvent, WorldLog};
