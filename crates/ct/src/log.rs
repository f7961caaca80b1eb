//! CT logs: append-only certificate logs with SCTs, signed tree heads and
//! temporal sharding.
//!
//! Real logs accept a certificate (or precertificate), return a *signed
//! certificate timestamp* as a promise of inclusion within the maximum
//! merge delay, and periodically publish a *signed tree head*. Operators
//! shard logs by certificate expiry year to bound tree growth (§7.2:
//! "Certificate Transparency logs ... have introduced temporal log
//! sharding").

use crate::merkle::MerkleTree;
use crypto::sha256::sha256;
use crypto::{KeyPair, Signature, SimSig};
use stale_types::Date;
use x509::cert::SignedCertificateTimestamp;
use x509::Certificate;

/// One accepted log entry.
#[derive(Debug, Clone)]
pub struct LogEntry {
    /// Position in the log.
    pub index: u64,
    /// Day the entry was accepted.
    pub timestamp: Date,
    /// The logged certificate (precert or final).
    pub certificate: Certificate,
}

/// A signed tree head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedTreeHead {
    /// Tree size at signing.
    pub tree_size: u64,
    /// Day of signing.
    pub timestamp: Date,
    /// Merkle root at `tree_size`.
    pub root: [u8; 32],
    /// Log signature over (size, timestamp, root).
    pub signature: Signature,
}

/// Why a log rejected a submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogError {
    /// The certificate expires outside this shard's window.
    OutsideShardWindow {
        /// Shard expiry-year start.
        start: Date,
        /// Shard expiry-year end.
        end: Date,
    },
    /// The log stopped accepting entries (retired/read-only).
    Retired,
}

/// An append-only CT log (possibly one temporal shard of an operator's
/// log family).
pub struct CtLog {
    /// Human-readable log name, e.g. `argon2023`.
    pub name: String,
    key: KeyPair,
    tree: MerkleTree,
    entries: Vec<LogEntry>,
    /// Accept only certificates whose `notAfter` falls in `[start, end)`,
    /// when set (temporal shard).
    expiry_window: Option<(Date, Date)>,
    retired: bool,
}

impl CtLog {
    /// A log with no shard window.
    pub fn new(name: impl Into<String>, key: KeyPair) -> Self {
        CtLog {
            name: name.into(),
            key,
            tree: MerkleTree::new(),
            entries: Vec::new(),
            expiry_window: None,
            retired: false,
        }
    }

    /// A temporal shard accepting expiries in `[start, end)`.
    pub fn sharded(name: impl Into<String>, key: KeyPair, start: Date, end: Date) -> Self {
        let mut log = CtLog::new(name, key);
        log.expiry_window = Some((start, end));
        log
    }

    /// The log id: SHA-256 of the log public key.
    pub fn log_id(&self) -> [u8; 32] {
        sha256(self.key.public().as_bytes())
    }

    /// Stop accepting submissions.
    pub fn retire(&mut self) {
        self.retired = true;
    }

    /// Whether the log would accept `cert`: it is not retired and, for a
    /// temporal shard, the certificate expires inside the window.
    pub fn accepts(&self, cert: &Certificate) -> Result<(), LogError> {
        if self.retired {
            return Err(LogError::Retired);
        }
        if let Some((start, end)) = self.expiry_window {
            let not_after = cert.tbs.not_after();
            if not_after < start || not_after >= end {
                return Err(LogError::OutsideShardWindow { start, end });
            }
        }
        Ok(())
    }

    /// Submit a certificate; returns the SCT on acceptance.
    pub fn submit(
        &mut self,
        cert: Certificate,
        today: Date,
    ) -> Result<SignedCertificateTimestamp, LogError> {
        self.accepts(&cert)?;
        let index = self.tree.append(&cert.encode());
        self.entries.push(LogEntry {
            index,
            timestamp: today,
            certificate: cert,
        });
        Ok(SignedCertificateTimestamp {
            log_id: self.log_id(),
            timestamp: today,
        })
    }

    /// Number of entries.
    pub fn size(&self) -> u64 {
        self.tree.size()
    }

    /// Sign the current tree head.
    pub fn tree_head(&self, today: Date) -> SignedTreeHead {
        let root = self.tree.root();
        let mut msg = Vec::with_capacity(48);
        msg.extend_from_slice(&self.tree.size().to_be_bytes());
        msg.extend_from_slice(&today.days_since_epoch().to_be_bytes());
        msg.extend_from_slice(&root);
        SignedTreeHead {
            tree_size: self.tree.size(),
            timestamp: today,
            root,
            signature: SimSig::sign(self.key.private(), &msg),
        }
    }

    /// Verify a tree head against this log's public key.
    pub fn verify_tree_head(&self, sth: &SignedTreeHead) -> bool {
        let mut msg = Vec::with_capacity(48);
        msg.extend_from_slice(&sth.tree_size.to_be_bytes());
        msg.extend_from_slice(&sth.timestamp.days_since_epoch().to_be_bytes());
        msg.extend_from_slice(&sth.root);
        SimSig::verify(&self.key.public(), &msg, &sth.signature)
    }

    /// Inclusion proof for entry `index` at tree size `size`.
    pub fn inclusion_proof(&self, index: u64, size: u64) -> Option<Vec<[u8; 32]>> {
        self.tree.inclusion_proof(index, size)
    }

    /// All entries (monitor download).
    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    /// The entries by value, for a monitor that takes over the log.
    pub fn into_entries(self) -> Vec<LogEntry> {
        self.entries
    }

    /// The underlying tree (for proof verification in tests).
    pub fn tree(&self) -> &MerkleTree {
        &self.tree
    }
}

/// A pool of logs as a monitor sees them: multiple operators, sharded by
/// expiry year.
#[derive(Default)]
pub struct LogPool {
    logs: Vec<CtLog>,
}

impl LogPool {
    /// Empty pool.
    pub fn new() -> Self {
        LogPool::default()
    }

    /// Create yearly shards named `{operator}{year}` covering
    /// `[first_year, last_year]`.
    pub fn with_yearly_shards(
        operator: &str,
        key_seed: u8,
        first_year: i32,
        last_year: i32,
    ) -> Self {
        let mut pool = LogPool::new();
        for year in first_year..=last_year {
            let mut seed = [key_seed; 32];
            seed[0] = (year % 256) as u8;
            seed[1] = (year / 256) as u8;
            let key = KeyPair::from_seed(seed);
            let start = Date::from_ymd(year, 1, 1).expect("jan 1");
            let end = Date::from_ymd(year + 1, 1, 1).expect("jan 1");
            pool.logs
                .push(CtLog::sharded(format!("{operator}{year}"), key, start, end));
        }
        pool
    }

    /// Add a log.
    pub fn add(&mut self, log: CtLog) {
        self.logs.push(log);
    }

    /// Submit to the first accepting log; returns `(log name, SCT)`. A
    /// certificate no log accepts is refused and the pool is unchanged.
    pub fn submit(
        &mut self,
        cert: Certificate,
        today: Date,
    ) -> Option<(String, SignedCertificateTimestamp)> {
        let log = self
            .logs
            .iter_mut()
            .find(|log| log.accepts(&cert).is_ok())?;
        let sct = log.submit(cert, today).ok()?;
        Some((log.name.clone(), sct))
    }

    /// Iterate logs.
    pub fn logs(&self) -> &[CtLog] {
        &self.logs
    }

    /// The logs by value, for a monitor that takes over the pool.
    pub fn into_logs(self) -> Vec<CtLog> {
        self.logs
    }

    /// Total entries across logs.
    pub fn total_entries(&self) -> u64 {
        self.logs.iter().map(CtLog::size).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merkle::verify_inclusion;
    use crypto::KeyPair;
    use stale_types::{domain::dn, Duration};
    use x509::CertificateBuilder;

    fn d(s: &str) -> Date {
        Date::parse(s).unwrap()
    }

    fn cert(name: &str, not_before: &str, days: i64) -> Certificate {
        let ca = KeyPair::from_seed([50; 32]);
        let leaf = KeyPair::from_seed([51; 32]);
        CertificateBuilder::tls_leaf(leaf.public())
            .serial(7)
            .issuer_cn("Test CA")
            .subject_cn(name)
            .san(dn(name))
            .validity_days(d(not_before), Duration::days(days))
            .sign(&ca)
    }

    #[test]
    fn submit_and_prove_inclusion() {
        let mut log = CtLog::new("test-log", KeyPair::from_seed([1; 32]));
        let mut certs = Vec::new();
        for i in 0..10 {
            let c = cert(&format!("site{i}.com"), "2022-01-01", 90);
            log.submit(c.clone(), d("2022-01-01")).unwrap();
            certs.push(c);
        }
        let sth = log.tree_head(d("2022-01-02"));
        assert!(log.verify_tree_head(&sth));
        for (i, c) in certs.iter().enumerate() {
            let proof = log.inclusion_proof(i as u64, sth.tree_size).unwrap();
            assert!(verify_inclusion(
                &c.encode(),
                i as u64,
                sth.tree_size,
                &proof,
                &sth.root
            ));
        }
    }

    #[test]
    fn tampered_sth_rejected() {
        let mut log = CtLog::new("test-log", KeyPair::from_seed([1; 32]));
        log.submit(cert("a.com", "2022-01-01", 90), d("2022-01-01"))
            .unwrap();
        let mut sth = log.tree_head(d("2022-01-02"));
        sth.tree_size += 1;
        assert!(!log.verify_tree_head(&sth));
    }

    #[test]
    fn shard_window_enforced() {
        let key = KeyPair::from_seed([2; 32]);
        let mut shard = CtLog::sharded("argon2023", key, d("2023-01-01"), d("2024-01-01"));
        // Expires 2023-04-01: accepted.
        assert!(shard
            .submit(cert("a.com", "2023-01-01", 90), d("2023-01-01"))
            .is_ok());
        // Expires 2022: rejected.
        assert!(matches!(
            shard.submit(cert("b.com", "2022-01-01", 90), d("2022-01-01")),
            Err(LogError::OutsideShardWindow { .. })
        ));
    }

    #[test]
    fn retired_log_rejects() {
        let mut log = CtLog::new("old-log", KeyPair::from_seed([3; 32]));
        log.retire();
        assert_eq!(
            log.submit(cert("a.com", "2022-01-01", 90), d("2022-01-01")),
            Err(LogError::Retired)
        );
    }

    #[test]
    fn pool_routes_to_matching_shard() {
        let mut pool = LogPool::with_yearly_shards("argon", 9, 2022, 2024);
        let (name, _sct) = pool
            .submit(cert("a.com", "2023-06-01", 90), d("2023-06-01"))
            .unwrap();
        assert_eq!(name, "argon2023");
        let (name2, _) = pool
            .submit(cert("b.com", "2022-01-01", 90), d("2022-01-01"))
            .unwrap();
        assert_eq!(name2, "argon2022");
        // A certificate expiring in 2026 finds no shard.
        assert!(pool
            .submit(cert("c.com", "2025-06-01", 398), d("2025-06-01"))
            .is_none());
        assert_eq!(pool.total_entries(), 2);
    }

    #[test]
    fn pool_refuses_a_certificate_no_shard_covers_and_stays_unchanged() {
        let mut pool = LogPool::with_yearly_shards("argon", 9, 2022, 2024);
        pool.submit(cert("a.com", "2023-06-01", 90), d("2023-06-01"))
            .unwrap();
        let sizes = |p: &LogPool| p.logs().iter().map(CtLog::size).collect::<Vec<_>>();
        let roots = |p: &LogPool| p.logs().iter().map(|l| l.tree().root()).collect::<Vec<_>>();
        let (before_sizes, before_roots) = (sizes(&pool), roots(&pool));
        // Expires 2021-03-31 and 2026-07-04: before and after every shard.
        for refused in [
            cert("early.com", "2021-01-01", 89),
            cert("late.com", "2025-06-01", 398),
        ] {
            assert!(pool.submit(refused, d("2021-01-01")).is_none());
        }
        assert_eq!(sizes(&pool), before_sizes);
        assert_eq!(roots(&pool), before_roots);
        assert_eq!(pool.total_entries(), 1);
        let names: Vec<_> = pool
            .logs()
            .iter()
            .flat_map(|l| l.entries())
            .map(|e| e.certificate.tbs.subject.common_name.clone())
            .collect();
        assert_eq!(names, ["a.com"]);
    }

    #[test]
    fn log_ids_are_distinct_per_key() {
        let a = CtLog::new("a", KeyPair::from_seed([1; 32]));
        let b = CtLog::new("b", KeyPair::from_seed([2; 32]));
        assert_ne!(a.log_id(), b.log_id());
    }
}
