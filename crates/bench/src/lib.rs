//! Experiment runners reproducing every table and figure of the paper's
//! evaluation, and the library behind the `repro` and `stale-bench` CLIs.
//!
//! [`experiments::Experiments`] bundles a simulated world with the
//! detection suite and exposes one method per table/figure. Each method
//! returns a plain-text report that prints the measured values next to the
//! paper's reported values, so shape agreement (who wins, rough factors,
//! crossovers) is visible at a glance. The `repro` binary drives them.

pub mod compare;
pub mod experiments;
pub mod paper;
pub mod replay;

pub use experiments::{EngineRun, Experiments};
