//! Checkpoint/resume: per-shard fold state, one schema for every mode.
//!
//! Batch ([`crate::Engine::run`]), the incremental driver
//! ([`crate::Engine::run_incremental`]) and the daemon all fold deltas
//! into the same per-shard detector state ([`crate::stream`]), so one
//! file format serves them all:
//!
//! ```json
//! {
//!   "version": 4,
//!   "fingerprint": 1234567890,
//!   "shards": 4,
//!   "through": "2023-05-12",
//!   "states": [
//!     { "shard": 0, "kc": { "index": [...], "losers": [...] },
//!       "rc": { ... }, "mtd": { ... } }
//!   ]
//! }
//! ```
//!
//! `fingerprint` is [`worldsim::WorldDatasets::fingerprint`], `shards`
//! the partition width and `through` the last day folded in. `states`
//! holds one entry per saved shard, in strictly increasing shard order.
//! The incremental driver and the daemon save every shard. Batch folds
//! the whole window at once and saves each shard as it completes, so a
//! batch file may hold a subset of the shards, always with `through` at
//! the feed end. On resume, batch skips every shard saved at the feed
//! end, while the incremental driver and the daemon restore all shards
//! and carry on after `through`: a complete checkpoint from either mode
//! resumes the other.
//!
//! Certificates are stored by id and re-resolved from the CT corpus on
//! restore, and the CRL side of the key-compromise join is re-seeded from
//! the dataset (every record observed on or before `through`).
//!
//! The file has one reader, and the reader is the validator:
//! [`Checkpoint::load`] refuses any file that breaks an invariant
//! [`Checkpoint::save`] guarantees and restore assumes, with a
//! [`Rejection`] naming the first, and the run starts fresh.
//! [`Checkpoint::violations`] lists every one of them, and `stale-lint
//! preflight` reports that list, so a file passes preflight exactly when
//! it would load. The invariants (preflight rule ids in brackets):
//! * schema version 4 (`checkpoint-version`; v2 incremental state and v3
//!   batch completions land here) and the shape above
//!   (`checkpoint-parse`);
//! * every state's shard below the declared width (`checkpoint-shards`),
//!   states in strictly increasing shard order (`checkpoint-order`);
//! * `kc.index` rows in strictly increasing certificate-id order
//!   (`checkpoint-monotone`) with one winner per `(AKI, serial)`, and
//!   `kc.losers` sorted and unique (`checkpoint-order`);
//! * every domain table (`rc.certs_by_e2ld`, `rc.creations`,
//!   `mtd.delegated`, `mtd.undelegated`, `mtd.departures`,
//!   `mtd.certs_by_customer`) sorted with no domain twice, and no scan
//!   target both delegated and undelegated (`checkpoint-order`);
//! * per-domain creation and departure dates strictly increasing
//!   (`checkpoint-monotone`).
//!
//! What needs the run — the world's fingerprint, the partition width, the
//! certificates the corpus holds, completeness and `through` — is checked
//! by the consumer and refused the same way, and so is every ledger entry
//! against the world (`Rejection::Unfounded`): restore holds each to what
//! a fold of this world through `through` could hold — kc index and loser
//! rows keyed by their certificate's own `(AKI, serial)`, rc creation
//! dates that are WHOIS creation dates of the domain no later than
//! `through`, rc and mtd certificate lists naming only certificates that
//! carry that e2LD or customer, mtd departures that are undelegation days
//! of the target's DNS change log inside the aDNS window, and delegation
//! flags that match the DNS state at `through`. Saving is crash-safe
//! ([`obs::persist`]): the new contents go to a temporary file in the
//! target's directory, which is synced and then renamed over the target,
//! so a crash leaves either the previous checkpoint or the new one, never
//! a torn file.

use obs::persist::StagedFile;
use serde::value::Value;
use serde::{Deserialize, Serialize};
use stale_core::incremental::{SavedKc, SavedMtd, SavedRc};
use stale_types::{Date, DomainName};
use std::collections::BTreeSet;
use std::path::Path;

/// One shard's fold state, as persisted.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardStateSnapshot {
    /// Shard index.
    pub shard: usize,
    /// §4.1 join state.
    pub kc: SavedKc,
    /// §4.2 state.
    pub rc: SavedRc,
    /// §4.3 state.
    pub mtd: SavedMtd,
}

/// The checkpoint file contents.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Schema version; always [`Checkpoint::VERSION`].
    pub version: u32,
    /// Dataset-bundle fingerprint this checkpoint belongs to.
    pub fingerprint: u64,
    /// Partition width it was taken at.
    pub shards: usize,
    /// Last day folded into every saved state.
    pub through: Date,
    /// Saved shard states, in strictly increasing shard order.
    pub states: Vec<ShardStateSnapshot>,
}

/// Why a checkpoint was refused. Every refusal means "start fresh"; the
/// reason is for the operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejection {
    /// The file exists but cannot be read.
    Unreadable(String),
    /// The contents are not a checkpoint.
    Parse(String),
    /// Another schema version (v2 and v3 files land here).
    Version(Option<i128>),
    /// Taken over a different dataset bundle.
    Fingerprint {
        /// Fingerprint in the file.
        found: u64,
        /// Fingerprint of this run's bundle.
        expected: u64,
    },
    /// Taken at a different partition width.
    Width {
        /// Width in the file.
        found: usize,
        /// This run's width.
        expected: usize,
    },
    /// A state whose shard is out of order, duplicated or beyond the
    /// width.
    ShardOrder(String),
    /// A saved detector ledger out of order, not unique or not
    /// chronological.
    Ledger(String),
    /// A state names a certificate the CT corpus does not hold.
    UnknownCertificate {
        /// The shard whose state did not resolve.
        shard: usize,
    },
    /// A state's ledger holds an entry no fold of this world through the
    /// checkpoint's day could hold (a kc row under another key, an rc
    /// creation date WHOIS lacks, an mtd departure the DNS log does not
    /// show, …).
    Unfounded {
        /// The shard whose state holds it.
        shard: usize,
        /// The ledger and the entry.
        what: String,
    },
    /// Some shard states are missing and this consumer needs all of them.
    Incomplete {
        /// States in the file.
        found: usize,
        /// The width.
        expected: usize,
    },
    /// Taken through a day this run cannot resume from.
    Through(String),
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejection::Unreadable(e) => write!(f, "unreadable: {e}"),
            Rejection::Parse(e) => write!(f, "not a checkpoint: {e}"),
            Rejection::Version(Some(v)) => {
                write!(f, "schema version {v}, expected {}", Checkpoint::VERSION)
            }
            Rejection::Version(None) => write!(f, "no schema version"),
            Rejection::Fingerprint { found, expected } => write!(
                f,
                "taken over another world (fingerprint {found}, expected {expected})"
            ),
            Rejection::Width { found, expected } => {
                write!(f, "taken at {found} shard(s), this run has {expected}")
            }
            Rejection::ShardOrder(what) => write!(f, "shard order: {what}"),
            Rejection::Ledger(what) => write!(f, "ledger: {what}"),
            Rejection::UnknownCertificate { shard } => {
                write!(
                    f,
                    "shard {shard} names a certificate the corpus does not hold"
                )
            }
            Rejection::Unfounded { shard, what } => write!(f, "shard {shard} {what}"),
            Rejection::Incomplete { found, expected } => {
                write!(f, "holds {found} of {expected} shard states")
            }
            Rejection::Through(what) => f.write_str(what),
        }
    }
}

impl std::error::Error for Rejection {}

/// One broken invariant of a checkpoint file, as [`Checkpoint::violations`]
/// lists it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A state's shard is not below the declared width.
    Width(String),
    /// States out of strictly increasing shard order.
    ShardOrder(String),
    /// A ledger unsorted or holding a key twice, or a scan target both
    /// delegated and undelegated.
    Order(String),
    /// `kc.index` rows out of certificate-id order, or per-domain dates
    /// not strictly increasing.
    Monotone(String),
}

impl Violation {
    /// The `stale-lint preflight` rule id.
    pub fn rule(&self) -> &'static str {
        match self {
            Violation::Width(_) => "checkpoint-shards",
            Violation::ShardOrder(_) | Violation::Order(_) => "checkpoint-order",
            Violation::Monotone(_) => "checkpoint-monotone",
        }
    }

    /// Which state and ledger, and what is wrong.
    pub fn message(&self) -> &str {
        match self {
            Violation::Width(m)
            | Violation::ShardOrder(m)
            | Violation::Order(m)
            | Violation::Monotone(m) => m,
        }
    }
}

impl From<Violation> for Rejection {
    fn from(v: Violation) -> Rejection {
        match v {
            Violation::Width(m) | Violation::ShardOrder(m) => Rejection::ShardOrder(m),
            Violation::Order(m) | Violation::Monotone(m) => Rejection::Ledger(m),
        }
    }
}

impl Checkpoint {
    /// The schema version.
    pub const VERSION: u32 = 4;

    /// An empty checkpoint through `through` (batch fills it shard by
    /// shard).
    pub fn new(fingerprint: u64, shards: usize, through: Date) -> Self {
        Checkpoint {
            version: Self::VERSION,
            fingerprint,
            shards,
            through,
            states: Vec::new(),
        }
    }

    /// Whether every shard's state is present.
    pub fn is_complete(&self) -> bool {
        self.states.len() == self.shards
    }

    /// Whether `shard`'s state is present.
    pub fn has(&self, shard: usize) -> bool {
        self.states
            .binary_search_by_key(&shard, |s| s.shard)
            .is_ok()
    }

    /// Add (or replace) one shard's state, keeping shard order.
    pub fn insert(&mut self, state: ShardStateSnapshot) {
        match self.states.binary_search_by_key(&state.shard, |s| s.shard) {
            Ok(i) => self.states[i] = state,
            Err(i) => self.states.insert(i, state),
        }
    }

    /// Load the checkpoint at `path` for a run over the bundle with
    /// `fingerprint` at `shards`. `Ok(None)` when there is no file; a file
    /// that exists but does not pass [`Checkpoint::decode`] and
    /// [`Checkpoint::verify_for_run`] is refused with the reason.
    /// Startup-time restore: the daemon's actor blocks on this read
    /// exactly once, before it serves anything.
    // stale-lint: entry(serial)
    // stale-lint: trusted(blocking-io-in-actor)
    pub fn load(path: &Path, fingerprint: u64, shards: usize) -> Result<Option<Self>, Rejection> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(Rejection::Unreadable(e.to_string())),
        };
        let value: Value =
            serde_json::from_str(&text).map_err(|e| Rejection::Parse(e.to_string()))?;
        let cp = Checkpoint::decode(&value)?;
        cp.verify_for_run(fingerprint, shards)?;
        Ok(Some(cp))
    }

    /// Decode a checkpoint document: refused on another schema version,
    /// then on any shape but this schema's. The file's own invariants
    /// are [`Checkpoint::violations`].
    pub fn decode(value: &Value) -> Result<Checkpoint, Rejection> {
        let version = value.get("version").and_then(Value::as_i128);
        if version != Some(i128::from(Self::VERSION)) {
            return Err(Rejection::Version(version));
        }
        serde_json::from_value(value).map_err(|e| Rejection::Parse(e.to_string()))
    }

    /// Check that this checkpoint belongs to a run over the bundle with
    /// `fingerprint` at `shards`, and that it keeps every invariant of
    /// the file ([`Checkpoint::violations`]; the first one is the
    /// refusal).
    pub fn verify_for_run(&self, fingerprint: u64, shards: usize) -> Result<(), Rejection> {
        if self.version != Self::VERSION {
            return Err(Rejection::Version(Some(i128::from(self.version))));
        }
        if self.fingerprint != fingerprint {
            return Err(Rejection::Fingerprint {
                found: self.fingerprint,
                expected: fingerprint,
            });
        }
        if self.shards != shards {
            return Err(Rejection::Width {
                found: self.shards,
                expected: shards,
            });
        }
        match self.violations().into_iter().next() {
            Some(v) => Err(v.into()),
            None => Ok(()),
        }
    }

    /// Every invariant of the file this checkpoint breaks — what
    /// [`Checkpoint::save`] guarantees and restore assumes (module docs
    /// list them). Empty for anything `save` wrote.
    pub fn violations(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        let mut previous: Option<usize> = None;
        for (i, state) in self.states.iter().enumerate() {
            if state.shard >= self.shards {
                out.push(Violation::Width(format!(
                    "states[{i}] claims shard {} of a width of {}",
                    state.shard, self.shards
                )));
            }
            if let Some(p) = previous.filter(|p| state.shard <= *p) {
                out.push(Violation::ShardOrder(format!(
                    "states[{i}] claims shard {} after shard {p}",
                    state.shard
                )));
            }
            previous = Some(state.shard);
            state.ledger_violations(&format!("states[{i}]"), &mut out);
        }
        out
    }

    /// Persist to `path`, crash-safely: [`Checkpoint::stage`] then
    /// [`StagedFile::commit`]. The daemon's actor calls this
    /// deliberately — a snapshot is atomic *because* the actor writes it
    /// while holding the state — so the blocking write is a sanctioned
    /// boundary, not a finding.
    // stale-lint: entry(serial)
    // stale-lint: trusted(blocking-io-in-actor)
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        self.stage(path)?.commit()
    }

    /// The first half of [`Checkpoint::save`]: write the contents to a
    /// temporary file beside `path` and sync it. `path` itself is not
    /// touched until [`StagedFile::commit`].
    pub fn stage(&self, path: &Path) -> std::io::Result<StagedFile> {
        let text = serde_json::to_string(self).map_err(std::io::Error::other)?;
        obs::persist::stage(path, text.as_bytes())
    }
}

impl ShardStateSnapshot {
    /// The ledger invariants of one saved state, `at` naming it.
    fn ledger_violations(&self, at: &str, out: &mut Vec<Violation>) {
        let ids: Vec<_> = self.kc.index.iter().map(|(_, _, id)| id).collect();
        if !strictly_increasing(&ids) {
            out.push(Violation::Monotone(format!(
                "{at}.kc.index cert ids are not strictly increasing"
            )));
        }
        let mut keys = BTreeSet::new();
        if let Some((aki, serial, _)) = self
            .kc
            .index
            .iter()
            .find(|(aki, serial, _)| !keys.insert((aki, serial)))
        {
            out.push(Violation::Order(format!(
                "{at}.kc.index holds two winners for ({aki}, {serial})"
            )));
        }
        if !strictly_increasing(&self.kc.losers) {
            out.push(Violation::Order(format!(
                "{at}.kc.losers rows are not sorted and unique"
            )));
        }
        let tables: [(&str, Vec<&DomainName>); 6] = [
            (
                "rc.certs_by_e2ld",
                self.rc.certs_by_e2ld.iter().map(|(d, _)| d).collect(),
            ),
            (
                "rc.creations",
                self.rc.creations.iter().map(|(d, _)| d).collect(),
            ),
            ("mtd.delegated", self.mtd.delegated.iter().collect()),
            ("mtd.undelegated", self.mtd.undelegated.iter().collect()),
            (
                "mtd.departures",
                self.mtd.departures.iter().map(|(d, _)| d).collect(),
            ),
            (
                "mtd.certs_by_customer",
                self.mtd.certs_by_customer.iter().map(|(d, _)| d).collect(),
            ),
        ];
        for (field, domains) in tables {
            if !strictly_increasing(&domains) {
                out.push(Violation::Order(format!(
                    "{at}.{field} domains are not sorted and unique"
                )));
            }
        }
        let delegated: BTreeSet<_> = self.mtd.delegated.iter().collect();
        if let Some(both) = self.mtd.undelegated.iter().find(|d| delegated.contains(d)) {
            out.push(Violation::Order(format!(
                "{at}: {both} is both delegated and undelegated"
            )));
        }
        for (field, ledger) in [
            ("rc.creations", &self.rc.creations),
            ("mtd.departures", &self.mtd.departures),
        ] {
            for (domain, dates) in ledger {
                if let Some([prev, date]) = dates.windows(2).find(|w| w[1] <= w[0]) {
                    out.push(Violation::Monotone(format!(
                        "{at}.{field}[{domain}]: {date} does not follow {prev}"
                    )));
                }
            }
        }
    }
}

fn strictly_increasing<T: Ord>(items: &[T]) -> bool {
    items.windows(2).all(|w| w[0] < w[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn state(shard: usize) -> ShardStateSnapshot {
        ShardStateSnapshot {
            shard,
            kc: SavedKc::default(),
            rc: SavedRc::default(),
            mtd: SavedMtd::default(),
        }
    }

    fn sample() -> Checkpoint {
        let mut cp = Checkpoint::new(42, 3, Date::parse("2022-11-30").unwrap());
        cp.insert(state(2));
        cp.insert(state(0));
        cp
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("stale_engine_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn roundtrip_and_validation() {
        let path = scratch("roundtrip.json");
        let cp = sample();
        assert_eq!(
            cp.states.iter().map(|s| s.shard).collect::<Vec<_>>(),
            [0, 2]
        );
        assert!(cp.has(2) && !cp.has(1) && !cp.is_complete());
        cp.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path, 42, 3), Ok(Some(cp)));
        assert!(matches!(
            Checkpoint::load(&path, 43, 3),
            Err(Rejection::Fingerprint { .. })
        ));
        assert!(matches!(
            Checkpoint::load(&path, 42, 4),
            Err(Rejection::Width { .. })
        ));
        assert_eq!(Checkpoint::load(&scratch("missing.json"), 42, 3), Ok(None));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn shard_labels_must_be_strictly_increasing_below_the_width() {
        let cp = sample();
        let mut swapped = cp.clone();
        swapped.states.reverse();
        let mut duplicated = cp.clone();
        duplicated.states[1].shard = 0;
        let mut beyond = cp.clone();
        beyond.states[1].shard = 3;
        for bad in [swapped, duplicated, beyond] {
            assert!(matches!(
                bad.verify_for_run(42, 3),
                Err(Rejection::ShardOrder(_))
            ));
        }
        assert_eq!(cp.verify_for_run(42, 3), Ok(()));
    }

    #[test]
    fn ledger_violations_are_listed_under_their_rule_and_refused() {
        use stale_types::domain::dn;
        assert!(sample().violations().is_empty());
        let mut cp = sample();
        cp.states[0].mtd.delegated = vec![dn("a.com")];
        cp.states[0].mtd.undelegated = vec![dn("a.com")];
        cp.states[1].rc.creations = vec![(
            dn("b.com"),
            vec![
                Date::parse("2021-05-01").unwrap(),
                Date::parse("2020-01-01").unwrap(),
            ],
        )];
        let rules: Vec<_> = cp.violations().iter().map(Violation::rule).collect();
        assert_eq!(rules, ["checkpoint-order", "checkpoint-monotone"]);
        assert!(matches!(
            cp.verify_for_run(42, 3),
            Err(Rejection::Ledger(why)) if why.contains("both delegated and undelegated")
        ));
    }

    #[test]
    fn earlier_schemas_and_garbage_are_refused_with_a_reason() {
        let v3 = scratch("v3.json");
        std::fs::write(
            &v3,
            r#"{"version": 3, "fingerprint": 42, "shards": 2, "completed": []}"#,
        )
        .unwrap();
        assert_eq!(
            Checkpoint::load(&v3, 42, 2),
            Err(Rejection::Version(Some(3)))
        );
        let garbage = scratch("garbage.json");
        std::fs::write(&garbage, "not json {").unwrap();
        assert!(matches!(
            Checkpoint::load(&garbage, 42, 2),
            Err(Rejection::Parse(_))
        ));
        let _ = std::fs::remove_file(&v3);
        let _ = std::fs::remove_file(&garbage);
    }

    #[test]
    fn staged_save_leaves_the_target_alone_until_commit() {
        let path = scratch("staged.json");
        let old = sample();
        old.save(&path).unwrap();
        let before = std::fs::read(&path).unwrap();
        let mut new = sample();
        new.insert(state(1));
        let staged = new.stage(&path).unwrap();
        assert!(staged.temp_path().exists());
        assert_eq!(std::fs::read(&path).unwrap(), before);
        staged.commit().unwrap();
        assert_eq!(Checkpoint::load(&path, 42, 3), Ok(Some(new)));
        let _ = std::fs::remove_file(&path);
    }
}
