//! The certificate authority: issuance, CT submission, revocation, CRLs.

use crate::policy::CaPolicy;
use crypto::{KeyPair, PublicKey};
use ct::log::LogPool;
use stale_types::{CaId, Date, DateInterval, DomainName, Duration, KeyId, SerialNumber};
use std::collections::BTreeMap;
use std::fmt;
use x509::revocation::{Crl, CrlEntry, RevocationReason};
use x509::{Certificate, CertificateBuilder, Name};

/// A subscriber's certificate request after domain control has been
/// validated.
#[derive(Debug, Clone)]
pub struct IssuanceRequest {
    /// Names to certify (already validated).
    pub domains: Vec<DomainName>,
    /// Subscriber public key.
    pub public_key: PublicKey,
    /// Requested lifetime; `None` takes the CA default.
    pub requested_lifetime: Option<Duration>,
}

/// Issuance failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IssueError {
    /// Request contained no names.
    NoDomains,
    /// No CT log accepted the precertificate (all shards out of range).
    CtSubmissionFailed,
}

impl fmt::Display for IssueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IssueError::NoDomains => write!(f, "issuance request listed no domains"),
            IssueError::CtSubmissionFailed => write!(f, "no CT log accepted the precertificate"),
        }
    }
}

impl std::error::Error for IssueError {}

/// Revocation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RevokeError {
    /// The serial was never issued by this CA.
    UnknownSerial,
    /// Already revoked.
    AlreadyRevoked,
}

/// A certificate authority with one issuing key.
pub struct CertificateAuthority {
    /// Stable identifier.
    pub id: CaId,
    /// Issuer common name (appears in issued certificates).
    pub name: String,
    /// Organization (optional; appears in issuer DN).
    pub organization: Option<String>,
    key: KeyPair,
    policy: CaPolicy,
    crl_url: String,
    next_serial: u128,
    /// Validity of every issued certificate by serial: what revocation
    /// and OCSP check a serial against. The certificates themselves live
    /// with whoever the CA issued them to.
    issued: BTreeMap<SerialNumber, DateInterval>,
    /// Revocations by serial.
    revocations: BTreeMap<SerialNumber, CrlEntry>,
}

impl CertificateAuthority {
    /// Create a CA.
    pub fn new(id: CaId, name: impl Into<String>, key: KeyPair, policy: CaPolicy) -> Self {
        let name = name.into();
        let crl_url = format!("http://crl.{}.example/{}.crl", id.0, name.replace(' ', "-"));
        CertificateAuthority {
            id,
            name,
            organization: None,
            key,
            policy,
            crl_url,
            next_serial: 1,
            issued: BTreeMap::new(),
            revocations: BTreeMap::new(),
        }
    }

    /// Set the organization shown in the issuer DN.
    pub fn with_organization(mut self, org: impl Into<String>) -> Self {
        self.organization = Some(org.into());
        self
    }

    /// The CA's issuing key id — the AKI on everything it issues and the
    /// join key for its CRLs.
    pub fn key_id(&self) -> KeyId {
        KeyId::from_bytes(self.key.public().key_id())
    }

    /// The CA's public key.
    pub fn public_key(&self) -> PublicKey {
        self.key.public()
    }

    /// The issuance policy.
    pub fn policy(&self) -> &CaPolicy {
        &self.policy
    }

    /// The issuer distinguished name stamped on certificates.
    pub fn issuer_name(&self) -> Name {
        match &self.organization {
            Some(org) => Name::cn_org(self.name.clone(), org.clone()),
            None => Name::cn(self.name.clone()),
        }
    }

    /// Issue a certificate: build precert, log it, embed SCTs, sign the
    /// final certificate, record it.
    pub fn issue(
        &mut self,
        request: &IssuanceRequest,
        today: Date,
        ct: &mut LogPool,
    ) -> Result<Certificate, IssueError> {
        if request.domains.is_empty() {
            return Err(IssueError::NoDomains);
        }
        let lifetime = self.policy.clamp(request.requested_lifetime, today);
        let serial = self.next_serial;
        self.next_serial += 1;
        // One profile for both certificates: the precertificate signs a
        // copy with the poison, the final certificate the profile itself
        // with the SCT, so the two share every non-CT field.
        let profile = CertificateBuilder::tls_leaf(request.public_key)
            .serial(serial)
            .issuer(self.issuer_name())
            .subject_cn(request.domains[0].as_str())
            .sans(request.domains.iter().cloned())
            .validity_days(today, lifetime)
            .crl_url(self.crl_url.clone())
            .ocsp_url(format!("http://ocsp.{}.example", self.id.0));
        let precert = profile.clone().precert().sign(&self.key);
        let (_log, sct) = ct
            .submit(precert, today)
            .ok_or(IssueError::CtSubmissionFailed)?;
        let final_cert = profile.scts(vec![sct]).sign(&self.key);
        self.issued
            .insert(SerialNumber(serial), final_cert.tbs.validity);
        Ok(final_cert)
    }

    /// Revoke `serial` effective `date` for `reason`.
    pub fn revoke(
        &mut self,
        serial: SerialNumber,
        date: Date,
        reason: RevocationReason,
    ) -> Result<(), RevokeError> {
        if !self.issued.contains_key(&serial) {
            return Err(RevokeError::UnknownSerial);
        }
        if self.revocations.contains_key(&serial) {
            return Err(RevokeError::AlreadyRevoked);
        }
        self.revocations.insert(
            serial,
            CrlEntry {
                serial,
                revocation_date: date,
                reason,
            },
        );
        Ok(())
    }

    /// Publish today's CRL. Expired revocations are retained (real CRLs
    /// may drop them; keeping them models the paper's observation of
    /// revoked-after-expiration outliers it has to filter).
    pub fn publish_crl(&self, today: Date) -> Crl {
        Crl::build(
            &self.key,
            today,
            today + Duration::days(7),
            self.revocations.values().copied().collect(),
        )
    }

    /// The CRL distribution URL.
    pub fn crl_url(&self) -> &str {
        &self.crl_url
    }

    /// The validity of the certificate issued under `serial`, or `None`
    /// for a serial this CA never issued.
    pub fn issued(&self, serial: SerialNumber) -> Option<DateInterval> {
        self.issued.get(&serial).copied()
    }

    /// Number of certificates issued.
    pub fn issued_count(&self) -> usize {
        self.issued.len()
    }

    /// Number of revocations recorded.
    pub fn revocation_count(&self) -> usize {
        self.revocations.len()
    }

    /// Sign OCSP responder bytes (the responder runs inside the CA in
    /// this model; see [`crate::ocsp`]).
    pub fn sign_ocsp(&self, bytes: &[u8]) -> crypto::Signature {
        crypto::SimSig::sign(self.key.private(), bytes)
    }

    /// Countersign a fully prepared certificate profile and record it as
    /// issued. Used for profiles [`Self::issue`] does not construct
    /// (Must-Staple opt-ins, bespoke key usages); the serial is assigned
    /// by the CA.
    pub fn sign_certificate(&mut self, builder: x509::CertificateBuilder) -> Certificate {
        let serial = self.next_serial;
        self.next_serial += 1;
        let cert = builder
            .serial(serial)
            .issuer(self.issuer_name())
            .sign(&self.key);
        self.issued.insert(SerialNumber(serial), cert.tbs.validity);
        cert
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct::log::LogPool;
    use stale_types::domain::dn;

    fn d(s: &str) -> Date {
        Date::parse(s).unwrap()
    }

    fn pool() -> LogPool {
        LogPool::with_yearly_shards("argon", 9, 2015, 2026)
    }

    fn ca(policy: CaPolicy) -> CertificateAuthority {
        CertificateAuthority::new(CaId(1), "Test CA R1", KeyPair::from_seed([7; 32]), policy)
    }

    fn request(names: &[&str]) -> IssuanceRequest {
        IssuanceRequest {
            domains: names.iter().map(|s| dn(s)).collect(),
            public_key: KeyPair::from_seed([8; 32]).public(),
            requested_lifetime: None,
        }
    }

    #[test]
    fn issue_embeds_scts_and_logs_precert() {
        let mut ct = pool();
        let mut authority = ca(CaPolicy::automated_90_day());
        let cert = authority
            .issue(
                &request(&["foo.com", "www.foo.com"]),
                d("2022-03-01"),
                &mut ct,
            )
            .unwrap();
        assert_eq!(cert.tbs.lifetime(), Duration::days(90));
        assert_eq!(cert.tbs.san().len(), 2);
        assert!(!cert.tbs.is_precert());
        assert!(cert
            .tbs
            .extensions
            .iter()
            .any(|e| matches!(e, x509::Extension::SctList(scts) if scts.len() == 1)));
        // Precert landed in the 2022 shard (expiry 2022-05-30).
        assert_eq!(ct.total_entries(), 1);
        assert_eq!(authority.issued_count(), 1);
        // AKI matches the CA key.
        assert_eq!(cert.tbs.authority_key_id(), Some(authority.key_id()));
    }

    /// The extension kinds of `cert`, in encoding order.
    fn extension_order(cert: &Certificate) -> Vec<&'static str> {
        use x509::Extension::*;
        cert.tbs
            .extensions
            .iter()
            .map(|e| match e {
                SubjectAltName(_) => "san",
                BasicConstraints { .. } => "basic-constraints",
                KeyUsage(_) => "key-usage",
                ExtendedKeyUsage(_) => "eku",
                SubjectKeyId(_) => "ski",
                AuthorityKeyId(_) => "aki",
                CrlDistributionPoint(_) => "crl-dp",
                AuthorityInfoAccess(_) => "aia",
                CertificatePolicies(_) => "policies",
                PrecertPoison => "poison",
                SctList(_) => "sct-list",
                MustStaple => "must-staple",
            })
            .collect()
    }

    #[test]
    fn precert_and_final_share_one_profile_in_the_pinned_extension_order() {
        let mut ct = pool();
        let mut authority = ca(CaPolicy::automated_90_day());
        let final_cert = authority
            .issue(
                &request(&["foo.com", "www.foo.com"]),
                d("2022-03-01"),
                &mut ct,
            )
            .unwrap();
        let logged: Vec<&Certificate> = ct
            .logs()
            .iter()
            .flat_map(|log| log.entries())
            .map(|entry| &entry.certificate)
            .collect();
        let [precert] = logged[..] else {
            panic!("one logged precertificate, found {}", logged.len());
        };
        let shared = [
            "san",
            "basic-constraints",
            "key-usage",
            "eku",
            "ski",
            "aki",
            "crl-dp",
            "aia",
            "policies",
        ];
        assert_eq!(
            extension_order(precert),
            [&shared[..], &["poison"]].concat()
        );
        assert_eq!(
            extension_order(&final_cert),
            [&shared[..], &["sct-list"]].concat()
        );
        // Every non-CT field is the same, so both collapse to one id.
        assert_eq!(
            precert.tbs.extensions[..shared.len()],
            final_cert.tbs.extensions[..shared.len()]
        );
        assert_eq!(precert.cert_id(), final_cert.cert_id());
        assert_ne!(precert.fingerprint(), final_cert.fingerprint());
    }

    #[test]
    fn lifetime_clamped_by_date_policy() {
        let mut ct = pool();
        let mut authority = ca(CaPolicy::commercial());
        // Commercial CA asked for 825 days in 2019: granted.
        let req = IssuanceRequest {
            requested_lifetime: Some(Duration::days(825)),
            ..request(&["foo.com"])
        };
        let cert = authority.issue(&req, d("2019-01-01"), &mut ct).unwrap();
        assert_eq!(cert.tbs.lifetime(), Duration::days(825));
        // Same request after September 2020: clamped to 398.
        let cert2 = authority.issue(&req, d("2021-01-01"), &mut ct).unwrap();
        assert_eq!(cert2.tbs.lifetime(), Duration::days(398));
    }

    #[test]
    fn empty_request_rejected() {
        let mut ct = pool();
        let mut authority = ca(CaPolicy::automated_90_day());
        assert_eq!(
            authority.issue(&request(&[]), d("2022-01-01"), &mut ct),
            Err(IssueError::NoDomains)
        );
    }

    #[test]
    fn ct_rejection_surfaces() {
        // Pool only covers 2015; a 2022 cert finds no shard.
        let mut ct = LogPool::with_yearly_shards("argon", 9, 2015, 2015);
        let mut authority = ca(CaPolicy::automated_90_day());
        assert_eq!(
            authority.issue(&request(&["foo.com"]), d("2022-01-01"), &mut ct),
            Err(IssueError::CtSubmissionFailed)
        );
    }

    #[test]
    fn revoke_and_publish_crl() {
        let mut ct = pool();
        let mut authority = ca(CaPolicy::commercial());
        let cert = authority
            .issue(&request(&["foo.com"]), d("2022-01-01"), &mut ct)
            .unwrap();
        let serial = cert.tbs.serial;
        authority
            .revoke(serial, d("2022-02-01"), RevocationReason::KeyCompromise)
            .unwrap();
        // Double revocation rejected.
        assert_eq!(
            authority.revoke(serial, d("2022-02-02"), RevocationReason::Superseded),
            Err(RevokeError::AlreadyRevoked)
        );
        // Unknown serial rejected.
        assert_eq!(
            authority.revoke(
                SerialNumber(999),
                d("2022-02-01"),
                RevocationReason::Unspecified
            ),
            Err(RevokeError::UnknownSerial)
        );
        let crl = authority.publish_crl(d("2022-02-03"));
        assert_eq!(crl.entries.len(), 1);
        assert_eq!(crl.entries[0].reason, RevocationReason::KeyCompromise);
        assert_eq!(crl.authority_key_id, authority.key_id());
        assert!(crl.verify(&authority.public_key()));
    }

    #[test]
    fn serials_increment() {
        let mut ct = pool();
        let mut authority = ca(CaPolicy::automated_90_day());
        let a = authority
            .issue(&request(&["a.com"]), d("2022-01-01"), &mut ct)
            .unwrap();
        let b = authority
            .issue(&request(&["b.com"]), d("2022-01-01"), &mut ct)
            .unwrap();
        assert_ne!(a.tbs.serial, b.tbs.serial);
        assert!(authority.issued(a.tbs.serial).is_some());
    }

    #[test]
    fn issued_returns_the_validity_of_known_serials_only() {
        let mut ct = pool();
        let mut authority = ca(CaPolicy::commercial());
        let cert = authority
            .issue(&request(&["foo.com"]), d("2022-01-01"), &mut ct)
            .unwrap();
        let signed = authority.sign_certificate(
            CertificateBuilder::tls_leaf(KeyPair::from_seed([9; 32]).public())
                .subject_cn("bar.com")
                .san(dn("bar.com"))
                .validity_days(d("2022-02-01"), Duration::days(30)),
        );
        assert_eq!(authority.issued(cert.tbs.serial), Some(cert.tbs.validity));
        assert_eq!(
            authority.issued(signed.tbs.serial),
            Some(signed.tbs.validity)
        );
        assert_eq!(authority.issued(SerialNumber(999)), None);
        assert_eq!(authority.issued_count(), 2);
        // OCSP answers from the same record.
        let status = |serial| crate::ocsp::respond(&authority, serial, d("2022-02-10")).status;
        assert_eq!(status(cert.tbs.serial), crate::ocsp::CertStatus::Good);
        assert_eq!(status(SerialNumber(999)), crate::ocsp::CertStatus::Unknown);
    }
}
