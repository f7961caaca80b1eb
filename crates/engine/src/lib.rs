//! Sharded parallel detection engine.
//!
//! The three detectors of [`stale_core::detector`] are embarrassingly
//! parallel once their inputs are partitioned by effective second-level
//! domain (e2LD): every stale-certificate record is derived from one
//! certificate and one event (a CRL entry, a registrant change, or a CDN
//! departure), and both sides of each join can be routed to the same shard
//! by a hash of the event's domain.
//!
//! The paper defines every detector over daily feeds, so the engine has
//! **one detection kernel**: a per-shard fold ([`stream`]) of routed
//! deltas into persistent [`stale_core::incremental`] detector state,
//! finished into shard outputs and merged. Around it sit four layers:
//!
//! 1. **Router** ([`partition`]) — slices a [`worldsim::DayDelta`] of the
//!    one [`worldsim::DayFeed`] into per-shard inputs. Certificates and registrant changes are routed by
//!    e2LD, with cruise-liner certificates handed to every shard that
//!    owns one of their domains (together with the keys it owns); CRL
//!    records are keyed by `(AKI, serial)` rather than by domain, so they
//!    are broadcast to every shard.
//! 2. **Supervisor** ([`supervisor`]) — a fixed worker pool over a bounded
//!    work queue. A panicking shard is isolated, retried once, and then
//!    reported as a [`supervisor::DegradedShard`] instead of aborting the
//!    run.
//! 3. **Checkpoints** ([`checkpoint`]) — a position in the feed (the last
//!    day folded in), saved crash-safely; resuming re-folds the feed
//!    through it, at any partition width.
//! 4. **Metrics** ([`metrics`]) — per-stage wall time, items in/out,
//!    queue depths and shard skew, rendered as a summary table by the
//!    repro binary.
//!
//! Three modes feed the kernel, all from the same [`worldsim::DayFeed`]
//! in the same day-major order. [`Engine::run`] (batch) routes the feed's
//! full delta once and folds each shard as one supervised job, in
//! parallel, and after a complete run records the feed end as its
//! checkpoint. [`Engine::run_incremental`] replays the feed one day-batch
//! at a time, emitting [`stale_core::incremental::StaleEvent`]s as
//! staleness periods open and checkpointing how far it got. The resident
//! daemon keeps an [`IncrementalState`] alive and ingests one day per
//! feed. All three end in the same merge, so a checkpoint written by one
//! mode resumes the others.
//!
//! **Determinism guarantee:** for a fixed dataset bundle,
//! [`Engine::run`] produces byte-identical reports for every shard count,
//! including `shards = 1`, identical to [`Engine::run_incremental`] over
//! the drained feed and to the serial
//! [`stale_core::detector::DetectionSuite::run`]. The merge orders
//! key-compromise matches by CRL index, registrant-change records by
//! their own `(domain, creation, certificate)` — the WHOIS enumeration
//! order — and managed-TLS records by customer domain — exactly the
//! orders the serial detectors emit.

pub mod checkpoint;
pub mod config;
pub mod engine;
pub mod metrics;
pub mod partition;
pub mod stream;
pub mod supervisor;

pub use checkpoint::{Checkpoint, Rejection};
pub use config::EngineConfig;
pub use engine::{Engine, EngineError, EngineReport};
pub use metrics::{EngineMetrics, IngestBatchMetrics, IngestMetrics, ShardMetrics, StageMetrics};
pub use partition::{route, ShardSlice};
pub use stream::{IncrementalState, StateView};
pub use supervisor::DegradedShard;
