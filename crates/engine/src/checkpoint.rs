//! Checkpoint/resume: a checkpoint is a position in the day feed.
//!
//! Every detector is a fold over the world's daily feed ([`crate::stream`]),
//! so a shard's state through day D is a pure function of the world and
//! D. A checkpoint therefore records how far the fold got, not what it
//! holds:
//!
//! ```json
//! { "version": 5, "fingerprint": 1234567890, "through": "2023-05-12" }
//! ```
//!
//! `fingerprint` is [`worldsim::WorldDatasets::fingerprint`] and `through`
//! the last day folded in. Restoring one
//! ([`crate::IncrementalState::restore`]) folds the world's own
//! [`worldsim::DayFeed`] from its start through `through` into fresh
//! state, at whatever partition width the resuming run has; the
//! incremental driver and the daemon then carry on after `through`. Batch
//! folds the whole window in one pass, so it reads no checkpoint; after a
//! complete run it writes one through the feed end. This is the shape of
//! a CT monitor's persisted state: a verified tree head, with the log
//! re-read past it.
//!
//! The file has one reader, and the reader is the validator:
//! [`Checkpoint::load`] refuses, with a [`Rejection`] naming the reason,
//! an unreadable file, one that is not a checkpoint (`checkpoint-parse`
//! in `stale-lint preflight`), another schema version
//! (`checkpoint-version`; the v2–v4 files that stored detector state land
//! here) or another world's fingerprint; the run then starts fresh. What
//! needs the feed — a `through` outside it, or past the day an
//! incremental run stops at — is refused by the consumer the same way.
//! Nothing else in the file can be wrong: the state itself is recomputed
//! from this world's facts.
//!
//! Saving is crash-safe ([`obs::persist`]): the new contents go to a
//! temporary file in the target's directory, which is synced and then
//! renamed over the target, so a crash leaves either the previous
//! checkpoint or the new one, never a torn file.

use obs::persist::StagedFile;
use serde::value::Value;
use serde::{de, Deserialize, Serialize};
use stale_types::Date;
use std::path::Path;

/// The checkpoint file contents.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Schema version; always [`Checkpoint::VERSION`].
    pub version: u32,
    /// Dataset-bundle fingerprint this checkpoint belongs to.
    pub fingerprint: u64,
    /// Last day folded in.
    pub through: Date,
}

/// Why a checkpoint was refused. Every refusal means "start fresh"; the
/// reason is for the operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejection {
    /// The file exists but cannot be read.
    Unreadable(String),
    /// The contents are not a checkpoint.
    Parse(String),
    /// Another schema version (the v2–v4 files land here).
    Version(Option<i128>),
    /// Taken over a different dataset bundle.
    Fingerprint {
        /// Fingerprint in the file.
        found: u64,
        /// Fingerprint of this run's bundle.
        expected: u64,
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
            Rejection::Through(what) => f.write_str(what),
        }
    }
}

impl std::error::Error for Rejection {}

/// `through` is written as its `YYYY-MM-DD` day, so an operator can read
/// how far a checkpoint got.
impl Serialize for Checkpoint {
    fn serialize(&self) -> Value {
        Value::Obj(vec![
            ("version".to_string(), self.version.serialize()),
            ("fingerprint".to_string(), self.fingerprint.serialize()),
            ("through".to_string(), Value::Str(self.through.to_string())),
        ])
    }
}

impl Deserialize for Checkpoint {
    fn deserialize(v: &Value) -> Result<Self, de::Error> {
        let through: String = de::field(v, "through")?;
        Ok(Checkpoint {
            version: de::field(v, "version")?,
            fingerprint: de::field(v, "fingerprint")?,
            through: Date::parse(&through)
                .map_err(|e| de::Error(format!("field `through`: {e}")))?,
        })
    }
}

impl Checkpoint {
    /// The schema version.
    pub const VERSION: u32 = 5;

    /// A checkpoint through `through` over the bundle with `fingerprint`.
    pub fn new(fingerprint: u64, through: Date) -> Self {
        Checkpoint {
            version: Self::VERSION,
            fingerprint,
            through,
        }
    }

    /// Load the checkpoint at `path` for a run over the bundle with
    /// `fingerprint`. `Ok(None)` when there is no file; a file that
    /// exists but does not pass [`Checkpoint::decode`] and
    /// [`Checkpoint::verify_for_run`] is refused with the reason.
    /// Startup-time restore: the daemon's actor blocks on this read
    /// exactly once, before it serves anything.
    // stale-lint: entry(serial)
    // stale-lint: trusted(blocking-io-in-actor)
    pub fn load(path: &Path, fingerprint: u64) -> Result<Option<Self>, Rejection> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(Rejection::Unreadable(e.to_string())),
        };
        let value: Value =
            serde_json::from_str(&text).map_err(|e| Rejection::Parse(e.to_string()))?;
        let cp = Checkpoint::decode(&value)?;
        cp.verify_for_run(fingerprint)?;
        Ok(Some(cp))
    }

    /// Decode a checkpoint document: refused on another schema version,
    /// then on any shape but this schema's.
    pub fn decode(value: &Value) -> Result<Checkpoint, Rejection> {
        let version = value.get("version").and_then(Value::as_i128);
        if version != Some(i128::from(Self::VERSION)) {
            return Err(Rejection::Version(version));
        }
        serde_json::from_value(value).map_err(|e| Rejection::Parse(e.to_string()))
    }

    /// Check that this checkpoint belongs to a run over the bundle with
    /// `fingerprint`.
    pub fn verify_for_run(&self, fingerprint: u64) -> Result<(), Rejection> {
        if self.version != Self::VERSION {
            return Err(Rejection::Version(Some(i128::from(self.version))));
        }
        if self.fingerprint != fingerprint {
            return Err(Rejection::Fingerprint {
                found: self.fingerprint,
                expected: fingerprint,
            });
        }
        Ok(())
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn sample() -> Checkpoint {
        Checkpoint::new(42, Date::parse("2022-11-30").unwrap())
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
        cp.save(&path).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            r#"{"version":5,"fingerprint":42,"through":"2022-11-30"}"#
        );
        assert_eq!(Checkpoint::load(&path, 42), Ok(Some(cp)));
        assert!(matches!(
            Checkpoint::load(&path, 43),
            Err(Rejection::Fingerprint { .. })
        ));
        assert_eq!(Checkpoint::load(&scratch("missing.json"), 42), Ok(None));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn earlier_schemas_and_garbage_are_refused_with_a_reason() {
        let v3 = scratch("v3.json");
        std::fs::write(
            &v3,
            r#"{"version": 3, "fingerprint": 42, "shards": 2, "completed": []}"#,
        )
        .unwrap();
        assert_eq!(Checkpoint::load(&v3, 42), Err(Rejection::Version(Some(3))));
        let garbage = scratch("garbage.json");
        std::fs::write(&garbage, "not json {").unwrap();
        assert!(matches!(
            Checkpoint::load(&garbage, 42),
            Err(Rejection::Parse(_))
        ));
        let shapeless = scratch("shapeless.json");
        std::fs::write(&shapeless, r#"{"version": 5, "fingerprint": 42}"#).unwrap();
        assert!(matches!(
            Checkpoint::load(&shapeless, 42),
            Err(Rejection::Parse(_))
        ));
        for p in [&v3, &garbage, &shapeless] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn staged_save_leaves_the_target_alone_until_commit() {
        let path = scratch("staged.json");
        let old = sample();
        old.save(&path).unwrap();
        let before = std::fs::read(&path).unwrap();
        let new = Checkpoint::new(42, Date::parse("2022-12-01").unwrap());
        let staged = new.stage(&path).unwrap();
        assert!(staged.temp_path().exists());
        assert_eq!(std::fs::read(&path).unwrap(), before);
        staged.commit().unwrap();
        assert_eq!(Checkpoint::load(&path, 42), Ok(Some(new)));
        let _ = std::fs::remove_file(&path);
    }
}
