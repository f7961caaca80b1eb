//! Validated DNS domain names.
//!
//! Names are stored lower-cased without a trailing dot. Validation follows
//! the LDH (letters-digits-hyphen) rule plus the underscore prefix labels
//! seen in ACME (`_acme-challenge`) and a leading wildcard label, since
//! both occur throughout the certificate corpus.

use crate::error::{Error, Result};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A validated, normalised (lower-case, no trailing dot) DNS name.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct DomainName(String);

impl DomainName {
    /// Parse and normalise a domain name.
    pub fn parse(input: &str) -> Result<Self> {
        let trimmed = input.strip_suffix('.').unwrap_or(input);
        if trimmed.is_empty() {
            return Err(Error::InvalidDomain {
                input: input.into(),
                reason: "empty name",
            });
        }
        if trimmed.len() > 253 {
            return Err(Error::InvalidDomain {
                input: input.into(),
                reason: "name too long",
            });
        }
        let lower = trimmed.to_ascii_lowercase();
        for (i, label) in lower.split('.').enumerate() {
            validate_label(label, i == 0).map_err(|reason| Error::InvalidDomain {
                input: input.into(),
                reason,
            })?;
        }
        Ok(DomainName(lower))
    }

    /// The normalised name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Labels from leftmost to rightmost.
    pub fn labels(&self) -> impl DoubleEndedIterator<Item = &str> {
        self.0.split('.')
    }

    /// Number of labels.
    pub fn label_count(&self) -> usize {
        self.0.split('.').count()
    }

    /// Whether the leftmost label is `*`.
    pub fn is_wildcard(&self) -> bool {
        self.0.starts_with("*.")
    }

    /// The name with the leftmost label removed, if more than one remains.
    pub fn parent(&self) -> Option<DomainName> {
        self.0
            .split_once('.')
            .map(|(_, rest)| DomainName(rest.to_string()))
    }

    /// Whether `self` equals `ancestor` or is a subdomain of it.
    pub fn is_subdomain_of(&self, ancestor: &DomainName) -> bool {
        self == ancestor
            || (self.0.len() > ancestor.0.len()
                && self.0.ends_with(&ancestor.0)
                && self.0.as_bytes()[self.0.len() - ancestor.0.len() - 1] == b'.')
    }

    /// Whether a concrete name matches this (possibly wildcard) pattern,
    /// using TLS wildcard semantics: `*` matches exactly one leftmost label.
    pub fn matches(&self, name: &DomainName) -> bool {
        if !self.is_wildcard() {
            return self == name;
        }
        let suffix = &self.0[2..];
        match name.0.split_once('.') {
            Some((first, rest)) => rest == suffix && first != "*",
            None => false,
        }
    }

    /// Prefix the name with a new leftmost label.
    pub fn prepend(&self, label: &str) -> Result<DomainName> {
        DomainName::parse(&format!("{label}.{}", self.0))
    }
}

fn validate_label(label: &str, leftmost: bool) -> std::result::Result<(), &'static str> {
    if label.is_empty() {
        return Err("empty label");
    }
    if label.len() > 63 {
        return Err("label longer than 63 octets");
    }
    if leftmost && label == "*" {
        return Ok(()); // wildcard label
    }
    let bytes = label.as_bytes();
    // Underscore-prefixed service labels (e.g. _acme-challenge) are accepted.
    let body = if bytes[0] == b'_' { &bytes[1..] } else { bytes };
    if body.is_empty() {
        return Err("label is a bare underscore");
    }
    if body[0] == b'-' || body[body.len() - 1] == b'-' {
        return Err("label starts or ends with hyphen");
    }
    if !body.iter().all(|b| b.is_ascii_alphanumeric() || *b == b'-') {
        return Err("label contains non-LDH character");
    }
    Ok(())
}

impl fmt::Display for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::str::FromStr for DomainName {
    type Err = Error;
    fn from_str(s: &str) -> Result<Self> {
        DomainName::parse(s)
    }
}

impl AsRef<str> for DomainName {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// Hashing, equality and order all derive from the one `String` field,
/// so they agree with `str`'s: maps keyed by names can be probed with a
/// borrowed string.
impl std::borrow::Borrow<str> for DomainName {
    fn borrow(&self) -> &str {
        &self.0
    }
}

/// Parse a domain name, panicking on invalid input.
///
/// Intended for literals in tests and simulator presets.
pub fn dn(s: &str) -> DomainName {
    DomainName::parse(s).expect("valid domain literal")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalisation() {
        assert_eq!(DomainName::parse("FOO.Com.").unwrap().as_str(), "foo.com");
        assert_eq!(
            DomainName::parse("foo.com").unwrap(),
            DomainName::parse("FOO.COM").unwrap()
        );
    }

    #[test]
    fn rejects_bad_names() {
        for bad in [
            "", ".", "foo..com", "-foo.com", "foo-.com", "f*o.com", "foo.c om", "a.*.com",
        ] {
            assert!(
                DomainName::parse(bad).is_err(),
                "{bad:?} should be rejected"
            );
        }
        let long_label = format!("{}.com", "a".repeat(64));
        assert!(DomainName::parse(&long_label).is_err());
        let long_name = format!("{}.com", vec!["abcdefgh"; 40].join("."));
        assert!(DomainName::parse(&long_name).is_err());
    }

    #[test]
    fn accepts_service_and_wildcard_labels() {
        assert!(DomainName::parse("_acme-challenge.foo.com").is_ok());
        let w = DomainName::parse("*.foo.com").unwrap();
        assert!(w.is_wildcard());
        assert!(!dn("foo.com").is_wildcard());
    }

    #[test]
    fn hierarchy() {
        let name = dn("a.b.foo.com");
        assert_eq!(name.label_count(), 4);
        assert_eq!(name.parent().unwrap(), dn("b.foo.com"));
        assert!(name.is_subdomain_of(&dn("foo.com")));
        assert!(name.is_subdomain_of(&dn("a.b.foo.com")));
        assert!(!name.is_subdomain_of(&dn("b.com")));
        // "oo.com" is a string suffix of "foo.com" but not a parent domain.
        assert!(!dn("foo.com").is_subdomain_of(&dn("oo.com")));
        assert!(dn("com").parent().is_none());
    }

    #[test]
    fn wildcard_matching() {
        let w = dn("*.foo.com");
        assert!(w.matches(&dn("bar.foo.com")));
        assert!(
            !w.matches(&dn("foo.com")),
            "wildcard does not match the bare parent"
        );
        assert!(
            !w.matches(&dn("a.b.foo.com")),
            "wildcard matches exactly one label"
        );
        assert!(dn("foo.com").matches(&dn("foo.com")));
        assert!(!dn("foo.com").matches(&dn("bar.com")));
    }

    #[test]
    fn prepend_builds_child() {
        assert_eq!(dn("foo.com").prepend("www").unwrap(), dn("www.foo.com"));
        assert!(dn("foo.com").prepend("bad label").is_err());
    }
}
