//! Fluent certificate construction and signing.

use crate::cert::{
    Certificate, EkuPurpose, Extension, KeyUsage, Name, SignedCertificateTimestamp, TbsCertificate,
    Version,
};
use crypto::{KeyPair, PublicKey, SimSig};
use stale_types::{Date, DateInterval, DomainName, Duration, KeyId, SerialNumber};

/// Builder for leaf and CA certificates.
///
/// ```
/// use stale_x509::CertificateBuilder;
/// use stale_types::{Date, Duration, domain::dn};
/// use crypto::KeyPair;
///
/// let ca_key = KeyPair::from_seed([1; 32]);
/// let leaf_key = KeyPair::from_seed([2; 32]);
/// let cert = CertificateBuilder::tls_leaf(leaf_key.public())
///     .serial(7)
///     .issuer_cn("Example CA")
///     .subject_cn("foo.com")
///     .san(dn("foo.com"))
///     .validity_days(Date::parse("2022-01-01").unwrap(), Duration::days(90))
///     .sign(&ca_key);
/// assert_eq!(cert.tbs.lifetime(), Duration::days(90));
/// ```
#[derive(Debug, Clone)]
pub struct CertificateBuilder {
    serial: SerialNumber,
    issuer: Name,
    subject: Name,
    validity: Option<DateInterval>,
    public_key: PublicKey,
    sans: Vec<DomainName>,
    is_ca: bool,
    path_len: Option<u8>,
    key_usage: KeyUsage,
    eku: Vec<EkuPurpose>,
    crl_url: Option<String>,
    ocsp_url: Option<String>,
    policies: Vec<String>,
    precert: bool,
    must_staple: bool,
    scts: Vec<SignedCertificateTimestamp>,
}

impl CertificateBuilder {
    /// Start a TLS server leaf profile for `public_key`.
    pub fn tls_leaf(public_key: PublicKey) -> Self {
        CertificateBuilder {
            serial: SerialNumber(0),
            issuer: Name::cn("unset issuer"),
            subject: Name::cn("unset subject"),
            validity: None,
            public_key,
            sans: Vec::new(),
            is_ca: false,
            path_len: None,
            key_usage: KeyUsage::tls_leaf(),
            eku: vec![EkuPurpose::ServerAuth],
            crl_url: None,
            ocsp_url: None,
            policies: vec!["2.23.140.1.2.1".into()], // CA/B DV policy
            precert: false,
            must_staple: false,
            scts: Vec::new(),
        }
    }

    /// Start a CA certificate profile for `public_key`.
    pub fn ca(public_key: PublicKey) -> Self {
        CertificateBuilder {
            serial: SerialNumber(0),
            issuer: Name::cn("unset issuer"),
            subject: Name::cn("unset subject"),
            validity: None,
            public_key,
            sans: Vec::new(),
            is_ca: true,
            path_len: Some(0),
            key_usage: KeyUsage::ca(),
            eku: Vec::new(),
            crl_url: None,
            ocsp_url: None,
            policies: Vec::new(),
            precert: false,
            must_staple: false,
            scts: Vec::new(),
        }
    }

    /// Set the serial number.
    pub fn serial(mut self, serial: u128) -> Self {
        self.serial = SerialNumber(serial);
        self
    }

    /// Set the issuer name by common name.
    pub fn issuer_cn(mut self, cn: impl Into<String>) -> Self {
        self.issuer = Name::cn(cn);
        self
    }

    /// Set the full issuer name.
    pub fn issuer(mut self, name: Name) -> Self {
        self.issuer = name;
        self
    }

    /// Set the subject name by common name.
    pub fn subject_cn(mut self, cn: impl Into<String>) -> Self {
        self.subject = Name::cn(cn);
        self
    }

    /// Set the full subject name.
    pub fn subject(mut self, name: Name) -> Self {
        self.subject = name;
        self
    }

    /// Add one SAN.
    pub fn san(mut self, name: DomainName) -> Self {
        self.sans.push(name);
        self
    }

    /// Add many SANs.
    pub fn sans(mut self, names: impl IntoIterator<Item = DomainName>) -> Self {
        self.sans.extend(names);
        self
    }

    /// Set validity from a start date and a lifetime.
    pub fn validity_days(mut self, not_before: Date, lifetime: Duration) -> Self {
        self.validity =
            Some(DateInterval::from_start(not_before, lifetime).expect("non-negative lifetime"));
        self
    }

    /// Set validity from an interval.
    pub fn validity(mut self, interval: DateInterval) -> Self {
        self.validity = Some(interval);
        self
    }

    /// Set a path length constraint (CA profiles).
    pub fn path_len(mut self, n: u8) -> Self {
        self.path_len = Some(n);
        self
    }

    /// Override key usage.
    pub fn key_usage(mut self, ku: KeyUsage) -> Self {
        self.key_usage = ku;
        self
    }

    /// Override extended key usage.
    pub fn eku(mut self, purposes: Vec<EkuPurpose>) -> Self {
        self.eku = purposes;
        self
    }

    /// Set the CRL distribution point URL.
    pub fn crl_url(mut self, url: impl Into<String>) -> Self {
        self.crl_url = Some(url.into());
        self
    }

    /// Set the OCSP responder URL.
    pub fn ocsp_url(mut self, url: impl Into<String>) -> Self {
        self.ocsp_url = Some(url.into());
        self
    }

    /// Mark as a precertificate (adds the poison extension).
    pub fn precert(mut self) -> Self {
        self.precert = true;
        self
    }

    /// Require OCSP stapling (RFC 7633 TLS Feature extension).
    pub fn must_staple(mut self) -> Self {
        self.must_staple = true;
        self
    }

    /// Embed SCTs (final certificates).
    pub fn scts(mut self, scts: Vec<SignedCertificateTimestamp>) -> Self {
        self.scts = scts;
        self
    }

    /// Assemble the TBS, moving the builder's fields into it and stamping
    /// `aki` as the authority key id. This is the one place the extension
    /// order is written down: SAN, basic constraints, key usage, EKU, SKI,
    /// AKI, CRL distribution point, AIA, policies, Must-Staple, then the
    /// precertificate poison or the SCT list.
    fn build_tbs(self, aki: KeyId) -> TbsCertificate {
        // Room for every extension a profile can carry: one allocation.
        let mut extensions = Vec::with_capacity(12);
        if !self.sans.is_empty() {
            extensions.push(Extension::SubjectAltName(self.sans));
        }
        extensions.push(Extension::BasicConstraints {
            ca: self.is_ca,
            path_len: self.path_len,
        });
        extensions.push(Extension::KeyUsage(self.key_usage));
        if !self.eku.is_empty() {
            extensions.push(Extension::ExtendedKeyUsage(self.eku));
        }
        extensions.push(Extension::SubjectKeyId(KeyId::from_bytes(
            self.public_key.key_id(),
        )));
        extensions.push(Extension::AuthorityKeyId(aki));
        if let Some(url) = self.crl_url {
            extensions.push(Extension::CrlDistributionPoint(url));
        }
        if let Some(url) = self.ocsp_url {
            extensions.push(Extension::AuthorityInfoAccess(url));
        }
        if !self.policies.is_empty() {
            extensions.push(Extension::CertificatePolicies(self.policies));
        }
        if self.must_staple {
            extensions.push(Extension::MustStaple);
        }
        if self.precert {
            extensions.push(Extension::PrecertPoison);
        }
        if !self.scts.is_empty() {
            extensions.push(Extension::SctList(self.scts));
        }
        TbsCertificate {
            version: Version::V3,
            serial: self.serial,
            issuer: self.issuer,
            validity: self.validity.expect("validity must be set before build"),
            subject: self.subject,
            public_key: self.public_key,
            extensions,
        }
    }

    /// Build and sign with the issuer's keypair, stamping the AKI. The
    /// builder's fields move into the certificate; sign a clone to issue
    /// two certificates from one profile (a precertificate and its final
    /// certificate).
    pub fn sign(self, issuer_key: &KeyPair) -> Certificate {
        let aki = KeyId::from_bytes(issuer_key.public().key_id());
        let tbs = self.build_tbs(aki);
        let signature = SimSig::sign(issuer_key.private(), &tbs.encode(false));
        Certificate { tbs, signature }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stale_types::domain::dn;

    #[test]
    fn leaf_profile() {
        let ca = KeyPair::from_seed([1; 32]);
        let leaf = KeyPair::from_seed([2; 32]);
        let cert = CertificateBuilder::tls_leaf(leaf.public())
            .serial(42)
            .issuer_cn("Test CA")
            .subject_cn("foo.com")
            .san(dn("foo.com"))
            .san(dn("www.foo.com"))
            .validity_days(Date::parse("2022-06-01").unwrap(), Duration::days(398))
            .crl_url("http://crl.test/ca.crl")
            .sign(&ca);
        assert_eq!(cert.tbs.serial, SerialNumber(42));
        assert_eq!(cert.tbs.san().len(), 2);
        assert!(!cert.tbs.is_ca());
        assert_eq!(cert.tbs.lifetime(), Duration::days(398));
        assert_eq!(
            cert.tbs.authority_key_id(),
            Some(KeyId::from_bytes(ca.public().key_id()))
        );
        // Signature verifies under the CA key.
        assert!(SimSig::verify(
            &ca.public(),
            &cert.tbs.encode(false),
            &cert.signature
        ));
    }

    #[test]
    fn ca_profile() {
        let root = KeyPair::from_seed([3; 32]);
        let inter = KeyPair::from_seed([4; 32]);
        let cert = CertificateBuilder::ca(inter.public())
            .serial(1)
            .issuer_cn("Root CA")
            .subject_cn("Intermediate CA R1")
            .path_len(0)
            .validity_days(Date::parse("2020-01-01").unwrap(), Duration::days(1825))
            .sign(&root);
        assert!(cert.tbs.is_ca());
        assert!(cert.tbs.san().is_empty());
    }

    #[test]
    fn precert_builder_matches_final() {
        let ca = KeyPair::from_seed([5; 32]);
        let leaf = KeyPair::from_seed([6; 32]);
        let base = || {
            CertificateBuilder::tls_leaf(leaf.public())
                .serial(9)
                .issuer_cn("Test CA")
                .subject_cn("bar.com")
                .san(dn("bar.com"))
                .validity_days(Date::parse("2023-01-01").unwrap(), Duration::days(90))
        };
        let precert = base().precert().sign(&ca);
        let final_cert = base()
            .scts(vec![SignedCertificateTimestamp {
                log_id: [1; 32],
                timestamp: Date::parse("2023-01-01").unwrap(),
            }])
            .sign(&ca);
        assert_eq!(precert.cert_id(), final_cert.cert_id());
    }

    #[test]
    #[should_panic(expected = "validity must be set")]
    fn missing_validity_panics() {
        let k = KeyPair::from_seed([7; 32]);
        let _ = CertificateBuilder::tls_leaf(k.public()).sign(&k);
    }
}
