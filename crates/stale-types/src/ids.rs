//! Opaque identifiers used across the ecosystem simulation.
//!
//! Certificates are identified three ways in the paper's pipeline:
//! by CT-log dedup identity ([`CertId`], a hash over non-CT components),
//! by `(issuer key, serial)` as found in CRLs ([`KeyId`], [`SerialNumber`]),
//! and by the subscriber key they certify ([`KeyId`] again — key identity is
//! what "key compromise" and "managed TLS departure" are about).

use crate::hex::Hex;
use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! hex_id {
    ($(#[$doc:meta])* $name:ident, $len:expr) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
        pub struct $name(pub [u8; $len]);

        impl $name {
            /// Construct from raw bytes.
            pub const fn from_bytes(b: [u8; $len]) -> Self {
                Self(b)
            }

            /// The raw bytes.
            pub const fn as_bytes(&self) -> &[u8; $len] {
                &self.0
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({}…)"), Hex(&self.0[..4.min($len)]))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Display::fmt(&Hex(&self.0), f)
            }
        }
    };
}

hex_id!(
    /// Identity of a cryptographic keypair (hash of the public key).
    ///
    /// Matches the X.509 Subject/Authority Key Identifier role.
    KeyId,
    20
);

hex_id!(
    /// Dedup identity of a certificate: hash over its non-CT components,
    /// so a precertificate and its final certificate collapse to one entry
    /// (§4: "deduplicate precertificates and issued certificates based on
    /// their non-CT components").
    CertId,
    32
);

/// A certificate serial number as assigned by the issuing CA.
///
/// CRLs identify revoked certificates by `(authority key id, serial)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct SerialNumber(pub u128);

impl fmt::Display for SerialNumber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&Hex(&self.0.to_be_bytes()), f)
    }
}

/// Identifier of a certificate authority (issuing entity, not a single key:
/// a CA may roll intermediates, each with its own [`KeyId`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct CaId(pub u32);

/// Identifier of a registrant / subscriber account in the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct AccountId(pub u64);

impl fmt::Display for CaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ca{}", self.0)
    }
}

impl fmt::Display for AccountId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "acct{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_debug() {
        let k = KeyId::from_bytes([0xab; 20]);
        assert_eq!(k.to_string(), "ab".repeat(20));
        assert!(format!("{k:?}").starts_with("KeyId(abababab"));
        let s = SerialNumber(0x1234);
        assert_eq!(s.to_string().len(), 32);
        assert!(s.to_string().ends_with("1234"));
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::BTreeSet;
        let mut set = BTreeSet::new();
        set.insert(CertId::from_bytes([1; 32]));
        set.insert(CertId::from_bytes([2; 32]));
        set.insert(CertId::from_bytes([1; 32]));
        assert_eq!(set.len(), 2);
    }
}
