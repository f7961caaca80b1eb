//! Certificate structures.
//!
//! [`TbsCertificate`] carries the fields of the paper's certificate
//! information taxonomy (Table 1): subscriber authentication (subject,
//! SANs, subject public key, SKI), key authorization (basic constraints,
//! key usage, EKU), issuer information (issuer name, AKI, CRL distribution
//! points, policies) and certificate metadata (serial, precert poison,
//! SCTs). [`Certificate`] adds the issuer's signature over the encoded TBS.
//!
//! The dedup identity [`Certificate::cert_id`] hashes the TBS with CT
//! components (poison, SCT list) stripped, so a precertificate and the
//! final certificate it became collapse to the same [`CertId`] — the §4
//! deduplication rule.

use crate::der::{Decoder, DerError, Encoder, Tag};
use crypto::sha256::sha256;
use crypto::{PublicKey, Signature};
use serde::{Deserialize, Serialize};
use stale_types::{CertId, Date, DateInterval, DomainName, Duration, KeyId, SerialNumber};

/// Certificate format version. Only v3 exists in the modern web PKI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Version {
    /// X.509 v3.
    V3,
}

/// A distinguished name, reduced to the fields the study uses.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Name {
    /// Common name (a DNS name for subscribers, a display name for CAs).
    pub common_name: String,
    /// Organization, if present.
    pub organization: Option<String>,
}

impl Name {
    /// A bare common name.
    pub fn cn(common_name: impl Into<String>) -> Self {
        Name {
            common_name: common_name.into(),
            organization: None,
        }
    }

    /// Common name plus organization.
    pub fn cn_org(common_name: impl Into<String>, org: impl Into<String>) -> Self {
        Name {
            common_name: common_name.into(),
            organization: Some(org.into()),
        }
    }
}

/// Key-usage bits (RFC 5280 §4.2.1.3), reduced to the ones that appear on
/// web PKI leaves and CA certificates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct KeyUsage {
    /// digitalSignature.
    pub digital_signature: bool,
    /// keyEncipherment.
    pub key_encipherment: bool,
    /// keyCertSign — CA certificates only.
    pub key_cert_sign: bool,
    /// cRLSign — CA certificates only.
    pub crl_sign: bool,
}

impl KeyUsage {
    /// The usual TLS server leaf profile.
    pub fn tls_leaf() -> Self {
        KeyUsage {
            digital_signature: true,
            key_encipherment: true,
            ..Default::default()
        }
    }

    /// The usual CA profile.
    pub fn ca() -> Self {
        KeyUsage {
            key_cert_sign: true,
            crl_sign: true,
            digital_signature: true,
            ..Default::default()
        }
    }

    fn to_bits(self) -> u8 {
        (self.digital_signature as u8)
            | (self.key_encipherment as u8) << 1
            | (self.key_cert_sign as u8) << 2
            | (self.crl_sign as u8) << 3
    }

    fn from_bits(bits: u8) -> Self {
        KeyUsage {
            digital_signature: bits & 1 != 0,
            key_encipherment: bits & 2 != 0,
            key_cert_sign: bits & 4 != 0,
            crl_sign: bits & 8 != 0,
        }
    }
}

/// Extended key usage purposes (RFC 5280 §4.2.1.12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EkuPurpose {
    /// id-kp-serverAuth.
    ServerAuth,
    /// id-kp-clientAuth.
    ClientAuth,
    /// id-kp-codeSigning.
    CodeSigning,
    /// id-kp-emailProtection.
    EmailProtection,
    /// id-kp-OCSPSigning.
    OcspSigning,
}

impl EkuPurpose {
    fn to_code(self) -> u8 {
        match self {
            EkuPurpose::ServerAuth => 1,
            EkuPurpose::ClientAuth => 2,
            EkuPurpose::CodeSigning => 3,
            EkuPurpose::EmailProtection => 4,
            EkuPurpose::OcspSigning => 9,
        }
    }

    fn from_code(code: u8) -> Result<Self, DerError> {
        Ok(match code {
            1 => EkuPurpose::ServerAuth,
            2 => EkuPurpose::ClientAuth,
            3 => EkuPurpose::CodeSigning,
            4 => EkuPurpose::EmailProtection,
            9 => EkuPurpose::OcspSigning,
            _ => return Err(DerError::BadContent("unknown EKU purpose")),
        })
    }
}

/// An embedded signed certificate timestamp from a CT log.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SignedCertificateTimestamp {
    /// Log identifier (hash of the log's public key).
    pub log_id: [u8; 32],
    /// Day the log issued the SCT.
    pub timestamp: Date,
}

/// Certificate extensions.
///
/// Each variant maps to a row of the paper's Table 1 field inventory.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Extension {
    /// Subject Alternative Names — the authenticated DNS identities.
    SubjectAltName(Vec<DomainName>),
    /// CA flag and optional path length constraint.
    BasicConstraints {
        /// Whether the subject may issue certificates.
        ca: bool,
        /// Maximum intermediate chain depth below this certificate.
        path_len: Option<u8>,
    },
    /// Key usage bits.
    KeyUsage(KeyUsage),
    /// Extended key usage list.
    ExtendedKeyUsage(Vec<EkuPurpose>),
    /// Subject key identifier.
    SubjectKeyId(KeyId),
    /// Authority (issuer) key identifier — CRLs join on this.
    AuthorityKeyId(KeyId),
    /// URL of the issuing CA's CRL.
    CrlDistributionPoint(String),
    /// OCSP responder URL (authority information access).
    AuthorityInfoAccess(String),
    /// Certificate policy identifiers (e.g. the DV policy).
    CertificatePolicies(Vec<String>),
    /// CT precertificate poison: present only on precertificates.
    PrecertPoison,
    /// Embedded SCT list: present only on final certificates.
    SctList(Vec<SignedCertificateTimestamp>),
    /// TLS Feature / OCSP Must-Staple (RFC 7633): clients must receive a
    /// stapled OCSP response or hard-fail (§2.4's one hard-fail case).
    MustStaple,
}

impl Extension {
    /// Whether this extension is a CT artifact excluded from the dedup
    /// identity.
    pub fn is_ct_component(&self) -> bool {
        matches!(self, Extension::PrecertPoison | Extension::SctList(_))
    }

    fn type_code(&self) -> u64 {
        match self {
            Extension::SubjectAltName(_) => 1,
            Extension::BasicConstraints { .. } => 2,
            Extension::KeyUsage(_) => 3,
            Extension::ExtendedKeyUsage(_) => 4,
            Extension::SubjectKeyId(_) => 5,
            Extension::AuthorityKeyId(_) => 6,
            Extension::CrlDistributionPoint(_) => 7,
            Extension::AuthorityInfoAccess(_) => 8,
            Extension::CertificatePolicies(_) => 9,
            Extension::PrecertPoison => 10,
            Extension::SctList(_) => 11,
            Extension::MustStaple => 12,
        }
    }
}

/// The to-be-signed portion of a certificate.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TbsCertificate {
    /// Format version.
    pub version: Version,
    /// Issuer-assigned serial number.
    pub serial: SerialNumber,
    /// Issuing CA's distinguished name.
    pub issuer: Name,
    /// Validity window `[notBefore, notAfter)` at day granularity.
    pub validity: DateInterval,
    /// Subject distinguished name.
    pub subject: Name,
    /// Subject public key.
    pub public_key: PublicKey,
    /// Extensions in issuance order.
    pub extensions: Vec<Extension>,
}

impl TbsCertificate {
    /// `notBefore`.
    pub fn not_before(&self) -> Date {
        self.validity.start
    }

    /// `notAfter` (exclusive — the first day the certificate is invalid).
    pub fn not_after(&self) -> Date {
        self.validity.end
    }

    /// Lifetime in days.
    pub fn lifetime(&self) -> Duration {
        self.validity.len()
    }

    /// The SAN list, empty if the extension is absent.
    pub fn san(&self) -> &[DomainName] {
        for ext in &self.extensions {
            if let Extension::SubjectAltName(names) = ext {
                return names;
            }
        }
        &[]
    }

    /// The authority key identifier, if present.
    pub fn authority_key_id(&self) -> Option<KeyId> {
        self.extensions.iter().find_map(|e| match e {
            Extension::AuthorityKeyId(id) => Some(*id),
            _ => None,
        })
    }

    /// The subject key identifier, if present.
    pub fn subject_key_id(&self) -> Option<KeyId> {
        self.extensions.iter().find_map(|e| match e {
            Extension::SubjectKeyId(id) => Some(*id),
            _ => None,
        })
    }

    /// Whether this is a CA certificate per BasicConstraints.
    pub fn is_ca(&self) -> bool {
        self.extensions
            .iter()
            .any(|e| matches!(e, Extension::BasicConstraints { ca: true, .. }))
    }

    /// Whether this is a precertificate (poison present).
    pub fn is_precert(&self) -> bool {
        self.extensions
            .iter()
            .any(|e| matches!(e, Extension::PrecertPoison))
    }

    /// DER-encode the TBS. When `for_dedup` is set, CT components are
    /// omitted so precert and final certificate encode identically.
    pub fn encode(&self, for_dedup: bool) -> Vec<u8> {
        let mut e = Encoder::new();
        self.encode_into(&mut e, for_dedup);
        e.into_inner()
    }

    /// Append the TBS `SEQUENCE` to `e` (see [`Self::encode`]).
    fn encode_into(&self, e: &mut Encoder, for_dedup: bool) {
        e.constructed(Tag::Sequence, |t| {
            t.int(3); // version marker
            t.uint(self.serial.0);
            encode_name(t, &self.issuer);
            t.constructed(Tag::Sequence, |v| {
                v.int(self.validity.start.days_since_epoch());
                v.int(self.validity.end.days_since_epoch());
            });
            encode_name(t, &self.subject);
            t.octets(self.public_key.as_bytes());
            t.constructed(Tag::Context0, |exts| {
                for ext in &self.extensions {
                    if for_dedup && ext.is_ct_component() {
                        continue;
                    }
                    encode_extension(exts, ext);
                }
            });
        });
    }

    /// Decode a TBS from DER.
    pub fn decode(der: &[u8]) -> Result<Self, DerError> {
        let mut top = Decoder::new(der);
        let mut seq = top.nested(Tag::Sequence)?;
        let version = match seq.int()? {
            3 => Version::V3,
            _ => return Err(DerError::BadContent("unsupported version")),
        };
        let serial = SerialNumber(seq.uint()?);
        let issuer = decode_name(&mut seq)?;
        let mut validity = seq.nested(Tag::Sequence)?;
        let start = Date::from_days(validity.int()?);
        let end = Date::from_days(validity.int()?);
        validity.finish()?;
        let validity = DateInterval::new(start, end)
            .map_err(|_| DerError::BadContent("notAfter precedes notBefore"))?;
        let subject = decode_name(&mut seq)?;
        let key_bytes = seq.octets()?;
        let public_key = PublicKey(
            key_bytes
                .try_into()
                .map_err(|_| DerError::BadContent("public key length"))?,
        );
        let mut exts_dec = seq.nested(Tag::Context0)?;
        let mut extensions = Vec::new();
        while !exts_dec.is_empty() {
            extensions.push(decode_extension(&mut exts_dec)?);
        }
        seq.finish()?;
        top.finish()?;
        Ok(TbsCertificate {
            version,
            serial,
            issuer,
            validity,
            subject,
            public_key,
            extensions,
        })
    }
}

fn encode_name(e: &mut Encoder, name: &Name) {
    e.constructed(Tag::Sequence, |n| {
        n.utf8(&name.common_name);
        if let Some(org) = &name.organization {
            n.constructed(Tag::Context1, |o| {
                o.utf8(org);
            });
        }
    });
}

fn decode_name(d: &mut Decoder<'_>) -> Result<Name, DerError> {
    let mut n = d.nested(Tag::Sequence)?;
    let common_name = n.utf8()?.to_string();
    let organization = if !n.is_empty() {
        let mut o = n.nested(Tag::Context1)?;
        let org = o.utf8()?.to_string();
        o.finish()?;
        Some(org)
    } else {
        None
    };
    n.finish()?;
    Ok(Name {
        common_name,
        organization,
    })
}

fn encode_extension(e: &mut Encoder, ext: &Extension) {
    e.constructed(Tag::Sequence, |x| {
        x.uint(ext.type_code() as u128);
        match ext {
            Extension::SubjectAltName(names) => {
                x.constructed(Tag::Sequence, |s| {
                    for name in names {
                        s.utf8(name.as_str());
                    }
                });
            }
            Extension::BasicConstraints { ca, path_len } => {
                x.boolean(*ca);
                match path_len {
                    Some(n) => x.uint(*n as u128),
                    None => x.null(),
                };
            }
            Extension::KeyUsage(ku) => {
                x.uint(ku.to_bits() as u128);
            }
            Extension::ExtendedKeyUsage(purposes) => {
                x.constructed(Tag::Sequence, |s| {
                    for p in purposes {
                        s.uint(p.to_code() as u128);
                    }
                });
            }
            Extension::SubjectKeyId(id) | Extension::AuthorityKeyId(id) => {
                x.octets(id.as_bytes());
            }
            Extension::CrlDistributionPoint(url) | Extension::AuthorityInfoAccess(url) => {
                x.utf8(url);
            }
            Extension::CertificatePolicies(oids) => {
                x.constructed(Tag::Sequence, |s| {
                    for oid in oids {
                        s.utf8(oid);
                    }
                });
            }
            Extension::PrecertPoison | Extension::MustStaple => {
                x.null();
            }
            Extension::SctList(scts) => {
                x.constructed(Tag::Sequence, |s| {
                    for sct in scts {
                        s.constructed(Tag::Sequence, |entry| {
                            entry.octets(&sct.log_id);
                            entry.int(sct.timestamp.days_since_epoch());
                        });
                    }
                });
            }
        }
    });
}

fn decode_extension(d: &mut Decoder<'_>) -> Result<Extension, DerError> {
    let mut x = d.nested(Tag::Sequence)?;
    let code = x.uint()?;
    let ext = match code {
        1 => {
            let mut s = x.nested(Tag::Sequence)?;
            let mut names = Vec::new();
            while !s.is_empty() {
                let raw = s.utf8()?;
                names
                    .push(DomainName::parse(raw).map_err(|_| DerError::BadContent("invalid SAN"))?);
            }
            Extension::SubjectAltName(names)
        }
        2 => {
            let ca = x.boolean()?;
            let path_len = if x.peek_tag()? == Tag::Null {
                x.null()?;
                None
            } else {
                Some(u8::try_from(x.uint()?).map_err(|_| DerError::BadContent("path len"))?)
            };
            Extension::BasicConstraints { ca, path_len }
        }
        3 => Extension::KeyUsage(KeyUsage::from_bits(
            u8::try_from(x.uint()?).map_err(|_| DerError::BadContent("key usage bits"))?,
        )),
        4 => {
            let mut s = x.nested(Tag::Sequence)?;
            let mut purposes = Vec::new();
            while !s.is_empty() {
                let code = u8::try_from(s.uint()?).map_err(|_| DerError::BadContent("eku"))?;
                purposes.push(EkuPurpose::from_code(code)?);
            }
            Extension::ExtendedKeyUsage(purposes)
        }
        5 | 6 => {
            let bytes = x.octets()?;
            let id = KeyId::from_bytes(
                bytes
                    .try_into()
                    .map_err(|_| DerError::BadContent("key id length"))?,
            );
            if code == 5 {
                Extension::SubjectKeyId(id)
            } else {
                Extension::AuthorityKeyId(id)
            }
        }
        7 => Extension::CrlDistributionPoint(x.utf8()?.to_string()),
        8 => Extension::AuthorityInfoAccess(x.utf8()?.to_string()),
        9 => {
            let mut s = x.nested(Tag::Sequence)?;
            let mut oids = Vec::new();
            while !s.is_empty() {
                oids.push(s.utf8()?.to_string());
            }
            Extension::CertificatePolicies(oids)
        }
        10 => {
            x.null()?;
            Extension::PrecertPoison
        }
        12 => {
            x.null()?;
            Extension::MustStaple
        }
        11 => {
            let mut s = x.nested(Tag::Sequence)?;
            let mut scts = Vec::new();
            while !s.is_empty() {
                let mut entry = s.nested(Tag::Sequence)?;
                let log_id: [u8; 32] = entry
                    .octets()?
                    .try_into()
                    .map_err(|_| DerError::BadContent("log id length"))?;
                let timestamp = Date::from_days(entry.int()?);
                entry.finish()?;
                scts.push(SignedCertificateTimestamp { log_id, timestamp });
            }
            Extension::SctList(scts)
        }
        _ => return Err(DerError::BadContent("unknown extension code")),
    };
    x.finish()?;
    Ok(ext)
}

/// A signed certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// The signed payload.
    pub tbs: TbsCertificate,
    /// The issuer's signature over `tbs.encode(false)`.
    pub signature: Signature,
}

impl Certificate {
    /// Dedup identity: SHA-256 over the TBS with CT components stripped.
    pub fn cert_id(&self) -> CertId {
        CertId::from_bytes(sha256(&self.tbs.encode(true)))
    }

    /// Fingerprint over the full encoding including signature.
    pub fn fingerprint(&self) -> [u8; 32] {
        sha256(&self.encode())
    }

    /// DER-encode `SEQUENCE { tbs, signature }`.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.constructed(Tag::Sequence, |c| {
            self.tbs.encode_into(c, false);
            c.octets(self.signature.as_bytes());
        });
        e.into_inner()
    }

    /// Decode a certificate.
    pub fn decode(der: &[u8]) -> Result<Self, DerError> {
        let mut top = Decoder::new(der);
        let mut seq = top.nested(Tag::Sequence)?;
        // The TBS is the first nested SEQUENCE; re-encode boundary by
        // capturing its raw bytes.
        let (tag, tbs_content) = seq.any()?;
        if tag != Tag::Sequence {
            return Err(DerError::UnexpectedTag {
                expected: Tag::Sequence,
                found: tag,
            });
        }
        // Rebuild the full TLV for TbsCertificate::decode.
        let mut tbs_der = Encoder::new();
        tbs_der.raw(&{
            let mut w = Vec::new();
            crate::der::write_tlv(&mut w, Tag::Sequence, tbs_content);
            w
        });
        let tbs = TbsCertificate::decode(&tbs_der.into_inner())?;
        let sig_bytes = seq.octets()?;
        let signature = Signature(
            sig_bytes
                .try_into()
                .map_err(|_| DerError::BadContent("signature length"))?,
        );
        seq.finish()?;
        top.finish()?;
        Ok(Certificate { tbs, signature })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crypto::KeyPair;
    use stale_types::domain::dn;

    fn sample_tbs() -> TbsCertificate {
        let key = KeyPair::from_seed([1; 32]);
        TbsCertificate {
            version: Version::V3,
            serial: SerialNumber(0xABCDEF),
            issuer: Name::cn_org("Example CA R3", "Example Trust Services"),
            validity: DateInterval::new(
                Date::parse("2022-01-01").unwrap(),
                Date::parse("2022-04-01").unwrap(),
            )
            .unwrap(),
            subject: Name::cn("foo.com"),
            public_key: key.public(),
            extensions: vec![
                Extension::SubjectAltName(vec![dn("foo.com"), dn("*.foo.com")]),
                Extension::BasicConstraints {
                    ca: false,
                    path_len: None,
                },
                Extension::KeyUsage(KeyUsage::tls_leaf()),
                Extension::ExtendedKeyUsage(vec![EkuPurpose::ServerAuth, EkuPurpose::ClientAuth]),
                Extension::SubjectKeyId(KeyId::from_bytes(key.public().key_id())),
                Extension::AuthorityKeyId(KeyId::from_bytes([9; 20])),
                Extension::CrlDistributionPoint("http://crl.example/r3.crl".into()),
                Extension::CertificatePolicies(vec!["2.23.140.1.2.1".into()]),
            ],
        }
    }

    #[test]
    fn tbs_roundtrip() {
        let tbs = sample_tbs();
        let der = tbs.encode(false);
        let back = TbsCertificate::decode(&der).unwrap();
        assert_eq!(back, tbs);
    }

    #[test]
    fn accessors() {
        let tbs = sample_tbs();
        assert_eq!(tbs.san().len(), 2);
        assert_eq!(tbs.lifetime(), Duration::days(90));
        assert_eq!(tbs.authority_key_id(), Some(KeyId::from_bytes([9; 20])));
        assert!(!tbs.is_ca());
        assert!(!tbs.is_precert());
    }

    #[test]
    fn precert_and_final_share_cert_id() {
        let key = KeyPair::from_seed([2; 32]);
        let mut precert_tbs = sample_tbs();
        precert_tbs.extensions.push(Extension::PrecertPoison);
        let mut final_tbs = sample_tbs();
        final_tbs
            .extensions
            .push(Extension::SctList(vec![SignedCertificateTimestamp {
                log_id: [7; 32],
                timestamp: Date::parse("2022-01-01").unwrap(),
            }]));
        let sig = crypto::SimSig::sign(key.private(), b"x");
        let precert = Certificate {
            tbs: precert_tbs,
            signature: sig,
        };
        let final_cert = Certificate {
            tbs: final_tbs,
            signature: sig,
        };
        assert_eq!(precert.cert_id(), final_cert.cert_id());
        // But their full fingerprints differ.
        assert_ne!(precert.fingerprint(), final_cert.fingerprint());
        assert!(precert.tbs.is_precert());
        assert!(!final_cert.tbs.is_precert());
    }

    #[test]
    fn different_san_different_cert_id() {
        let key = KeyPair::from_seed([2; 32]);
        let sig = crypto::SimSig::sign(key.private(), b"x");
        let a = Certificate {
            tbs: sample_tbs(),
            signature: sig,
        };
        let mut tbs2 = sample_tbs();
        tbs2.extensions[0] = Extension::SubjectAltName(vec![dn("bar.com")]);
        let b = Certificate {
            tbs: tbs2,
            signature: sig,
        };
        assert_ne!(a.cert_id(), b.cert_id());
    }

    #[test]
    fn certificate_roundtrip() {
        let key = KeyPair::from_seed([3; 32]);
        let tbs = sample_tbs();
        let signature = crypto::SimSig::sign(key.private(), &tbs.encode(false));
        let cert = Certificate { tbs, signature };
        let der = cert.encode();
        let back = Certificate::decode(&der).unwrap();
        assert_eq!(back, cert);
        assert_eq!(back.cert_id(), cert.cert_id());
    }

    #[test]
    fn all_extension_variants_roundtrip() {
        let mut tbs = sample_tbs();
        tbs.extensions
            .push(Extension::AuthorityInfoAccess("http://ocsp.example".into()));
        tbs.extensions.push(Extension::BasicConstraints {
            ca: true,
            path_len: Some(2),
        });
        tbs.extensions.push(Extension::PrecertPoison);
        tbs.extensions.push(Extension::SctList(vec![
            SignedCertificateTimestamp {
                log_id: [1; 32],
                timestamp: Date::from_days(19000),
            },
            SignedCertificateTimestamp {
                log_id: [2; 32],
                timestamp: Date::from_days(19001),
            },
        ]));
        let der = tbs.encode(false);
        assert_eq!(TbsCertificate::decode(&der).unwrap(), tbs);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(TbsCertificate::decode(&[0x30, 0x01, 0x02]).is_err());
        assert!(Certificate::decode(b"not der at all").is_err());
        // Validity with end < start is rejected at decode.
        let tbs = sample_tbs();
        let mut der = tbs.encode(false);
        // Corrupting bytes may produce any DerError but must not panic.
        for i in 0..der.len() {
            der[i] ^= 0xFF;
            let _ = TbsCertificate::decode(&der);
            der[i] ^= 0xFF;
        }
    }
}
