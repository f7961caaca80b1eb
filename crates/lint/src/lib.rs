//! `stale-lint`: static analysis defending the engine's core guarantees.
//!
//! The workspace's determinism contract — sharded merge ≡ serial,
//! incremental ≡ batch, byte-identical reports — and the supervisor's
//! panic-isolation boundary are dynamic guarantees: proptests catch
//! violations only when a seed happens to tickle them. This crate defends
//! the same invariants *statically*, on two fronts:
//!
//! * **Reachability pass** ([`reach`]) — a dependency-free Rust item
//!   parser ([`model`], consistent with the offline shim policy: no syn,
//!   no rustc plumbing) extracts every `fn` item and call site in the
//!   workspace; [`graph`] links them into a cross-crate call graph; and
//!   one breadth-first pass per rule walks from the in-source
//!   `// stale-lint: entry(<class>)` declarations (shard bodies, merge
//!   and serialization surfaces, the daemon's actor loop, world
//!   generation) to the per-line sinks of [`source`]:
//!   [`rules::NONDETERMINISTIC_ITERATION`] (`HashMap`/`HashSet`
//!   iteration), [`rules::PANIC_IN_SHARD`]
//!   (`unwrap`/`expect`/`panic!`/indexing),
//!   [`rules::WALLCLOCK_IN_DETECTOR`] and [`rules::RNG_ENV_IN_DETECTOR`]
//!   (wall clock, ambient RNG, process environment) and
//!   [`rules::BLOCKING_IO_IN_ACTOR`] (filesystem/socket/sleep calls in
//!   the resident actor). A rule's scope is *proved* by the graph — a
//!   finding carries the entry→sink call chain (`stale-lint why`
//!   reprints it) — instead of asserted by path prefix, so refactors
//!   that move code between files cannot silently move it out of scope.
//!   Suppression is per-line via `allow(<rule>)` pragmas (dead ones are
//!   flagged by [`rules::UNUSED_ALLOW`]); CI compares surviving
//!   violations against a committed per-function baseline ([`baseline`])
//!   that is strict in both directions: buckets cannot grow, and
//!   burned-down buckets must be removed.
//!
//! * **Corpus pass** ([`preflight`]) — validation of a serialized input
//!   *before* anything executes, by the input's own reader: a world-fact
//!   log through [`worldsim::WorldLog::from_jsonl`] and
//!   [`worldsim::WorldLog::to_datasets`] (DER that decodes to the named
//!   certificate, CRL entries under an issuer key present in the log,
//!   strictly chronological per-domain WHOIS/DNS streams, a fingerprint
//!   that re-folds, …), an engine checkpoint through
//!   [`engine::Checkpoint`]'s decoder (schema version and shape), and
//!   the observability exports through
//!   theirs. Preflight only dispatches, so a file passes it exactly when
//!   the program would load it. The paper's own pipeline had to
//!   sanitize its CRL/CT/WHOIS feeds before analysis (§4); this is the
//!   same discipline applied to our serialized inputs — corrupt files
//!   fail with a named diagnostic, never a panic or a silently-wrong
//!   report.

pub mod baseline;
pub mod diagnostics;
pub mod graph;
pub mod model;
pub mod preflight;
pub mod reach;
pub mod rules;
pub mod scan;
pub mod source;

pub use baseline::Baseline;
pub use diagnostics::{Diagnostic, Severity};
pub use graph::{Graph, NodeId};
pub use reach::Analysis;
