//! Public Suffix List handling: effective TLDs and effective 2LDs.
//!
//! The paper aggregates stale certificates by *effective second-level
//! domain* (e2LD): the registerable unit one level below the effective TLD
//! (§2.1 — `foo.co.uk` is the e2LD under the eTLD `co.uk`). This crate
//! implements the standard PSL matching algorithm over an embedded rule
//! set:
//!
//! * **normal rules** (`com`, `co.uk`) — the rule itself is a public suffix;
//! * **wildcard rules** (`*.ck`) — every child of the base is a suffix;
//! * **exception rules** (`!www.ck`) — carve-outs from a wildcard rule.
//!
//! Matching picks the longest applicable rule; an exception rule beats any
//! other match; a default `*` rule applies when nothing matches, so bare
//! unknown TLDs are treated as public suffixes.

mod rules;

pub use rules::DEFAULT_RULES;

use stale_types::{DomainName, Error, Result};
use std::collections::HashMap;

/// Kind of a PSL rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RuleKind {
    Normal,
    Wildcard,
    Exception,
}

/// A compiled public suffix list.
#[derive(Debug, Clone)]
pub struct SuffixList {
    /// Rule base name → kind.
    rules: HashMap<String, RuleKind>,
}

impl SuffixList {
    /// Compile a rule set from PSL-format lines.
    ///
    /// Lines starting with `//` and blank lines are ignored, matching the
    /// upstream file format.
    pub fn from_rules<'a>(lines: impl IntoIterator<Item = &'a str>) -> Result<Self> {
        let mut rules = HashMap::new();
        for raw in lines {
            let line = raw.trim();
            if line.is_empty() || line.starts_with("//") {
                continue;
            }
            let (kind, name) = if let Some(rest) = line.strip_prefix('!') {
                (RuleKind::Exception, rest)
            } else if let Some(rest) = line.strip_prefix("*.") {
                (RuleKind::Wildcard, rest)
            } else {
                (RuleKind::Normal, line)
            };
            // Validate through DomainName so garbage rules are rejected.
            let parsed = DomainName::parse(name)?;
            rules.insert(parsed.as_str().to_string(), kind);
        }
        Ok(SuffixList { rules })
    }

    /// The embedded default rule set.
    pub fn default_list() -> Self {
        SuffixList::from_rules(DEFAULT_RULES.lines()).expect("embedded rules are valid")
    }

    /// Number of compiled rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Length in labels of the public suffix of `name`.
    ///
    /// Allocation-free: every candidate suffix of a dotted name is a
    /// literal substring starting at a label boundary, so rules are
    /// probed with `&name[offset..]` directly (the rule map's `String`
    /// keys borrow as `str`).
    fn suffix_label_count_str(&self, name: &str) -> usize {
        let n = name.bytes().filter(|&b| b == b'.').count() + 1;
        let mut best: usize = 1; // implicit default rule `*`
        let mut start = 0usize; // byte offset of the current label
        let mut label = 0usize; // its index; the candidate has n - label labels
        loop {
            match self.rules.get(&name[start..]) {
                Some(RuleKind::Exception) => {
                    // Exception: the public suffix is one label shorter
                    // than the exception rule, and it wins outright.
                    return n - label - 1;
                }
                Some(RuleKind::Normal) => {
                    best = best.max(n - label);
                }
                Some(RuleKind::Wildcard) => {
                    // `*.base`: any single child of base is a suffix.
                    // The wildcard match has one more label than `base`
                    // but never more labels than the name itself.
                    best = best.max((n - label + 1).min(n));
                }
                None => {}
            }
            match name[start..].find('.') {
                Some(dot) => {
                    start += dot + 1;
                    label += 1;
                }
                None => break,
            }
        }
        best
    }

    fn suffix_label_count(&self, name: &DomainName) -> usize {
        self.suffix_label_count_str(name.as_str())
    }

    /// Byte offset where the suffix of `name` that keeps its last `count`
    /// labels begins.
    fn offset_of_last_labels(name: &str, count: usize) -> usize {
        let total = name.bytes().filter(|&b| b == b'.').count() + 1;
        let skip = total.saturating_sub(count);
        let mut offset = 0usize;
        for _ in 0..skip {
            match name[offset..].find('.') {
                Some(dot) => offset += dot + 1,
                None => break,
            }
        }
        offset
    }

    /// The effective TLD (public suffix) of `name`.
    ///
    /// Returns the whole name if the name *is* a public suffix.
    pub fn etld(&self, name: &DomainName) -> DomainName {
        let s = name.as_str();
        let count = self.suffix_label_count_str(s);
        let start = Self::offset_of_last_labels(s, count);
        DomainName::parse(&s[start..]).expect("suffix of valid name is valid")
    }

    /// The effective 2LD of a bare dotted name, as a borrowed substring.
    /// Errors if the name is itself a public suffix or shorter.
    pub fn e2ld_str<'a>(&self, name: &'a str) -> Result<&'a str> {
        let count = self.suffix_label_count_str(name);
        let total = name.bytes().filter(|&b| b == b'.').count() + 1;
        if total <= count {
            return Err(Error::InvalidDomain {
                input: name.into(),
                reason: "name is a public suffix; it has no e2LD",
            });
        }
        Ok(&name[Self::offset_of_last_labels(name, count + 1)..])
    }

    /// The effective 2LD: the registerable domain (one label below the
    /// eTLD). Errors if the name is itself a public suffix or shorter.
    pub fn e2ld(&self, name: &DomainName) -> Result<DomainName> {
        self.e2ld_str(name.as_str())
            .map(|s| DomainName::parse(s).expect("suffix of valid name is valid"))
    }

    /// [`SuffixList::e2ld_of_san`] as a borrowed substring of the SAN.
    pub fn e2ld_of_san_str<'a>(&self, san: &'a DomainName) -> Result<&'a str> {
        let s = san.as_str();
        if san.is_wildcard() {
            let base = s.strip_prefix("*.").ok_or(Error::InvalidDomain {
                input: s.into(),
                reason: "bare wildcard has no base",
            })?;
            self.e2ld_str(base)
        } else {
            self.e2ld_str(s)
        }
    }

    /// e2LD for names that may carry a wildcard label: the wildcard label is
    /// stripped first, since `*.foo.com` attests to children of `foo.com`.
    pub fn e2ld_of_san(&self, san: &DomainName) -> Result<DomainName> {
        self.e2ld_of_san_str(san).and_then(DomainName::parse)
    }

    /// Whether `name` is exactly a public suffix.
    pub fn is_public_suffix(&self, name: &DomainName) -> bool {
        self.suffix_label_count(name) == name.label_count()
    }
}

impl Default for SuffixList {
    fn default() -> Self {
        SuffixList::default_list()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stale_types::domain::dn;

    fn list() -> SuffixList {
        SuffixList::default_list()
    }

    #[test]
    fn default_list_compiles() {
        assert!(list().rule_count() > 40);
    }

    #[test]
    fn simple_tlds() {
        let l = list();
        assert_eq!(l.etld(&dn("foo.com")), dn("com"));
        assert_eq!(l.e2ld(&dn("foo.com")).unwrap(), dn("foo.com"));
        assert_eq!(l.e2ld(&dn("www.foo.com")).unwrap(), dn("foo.com"));
        assert_eq!(l.e2ld(&dn("a.b.c.foo.net")).unwrap(), dn("foo.net"));
    }

    #[test]
    fn multi_label_suffixes() {
        let l = list();
        assert_eq!(l.etld(&dn("foo.co.uk")), dn("co.uk"));
        assert_eq!(l.e2ld(&dn("www.foo.co.uk")).unwrap(), dn("foo.co.uk"));
        assert_eq!(l.e2ld(&dn("foo.com.au")).unwrap(), dn("foo.com.au"));
    }

    #[test]
    fn wildcard_rules() {
        let l = list();
        // *.ck: every child of ck is a public suffix...
        assert_eq!(l.etld(&dn("foo.wild.ck")), dn("wild.ck"));
        assert_eq!(l.e2ld(&dn("a.foo.wild.ck")).unwrap(), dn("foo.wild.ck"));
        // ...except the exception rule !www.ck.
        assert_eq!(l.e2ld(&dn("www.ck")).unwrap(), dn("www.ck"));
        assert_eq!(l.e2ld(&dn("a.www.ck")).unwrap(), dn("www.ck"));
    }

    #[test]
    fn public_suffix_has_no_e2ld() {
        let l = list();
        assert!(l.e2ld(&dn("com")).is_err());
        assert!(l.e2ld(&dn("co.uk")).is_err());
        assert!(l.is_public_suffix(&dn("com")));
        assert!(!l.is_public_suffix(&dn("foo.com")));
    }

    #[test]
    fn unknown_tld_uses_default_rule() {
        let l = list();
        assert_eq!(l.etld(&dn("foo.unknowntld")), dn("unknowntld"));
        assert_eq!(
            l.e2ld(&dn("a.foo.unknowntld")).unwrap(),
            dn("foo.unknowntld")
        );
    }

    #[test]
    fn wildcard_san_strips_star() {
        let l = list();
        assert_eq!(l.e2ld_of_san(&dn("*.foo.com")).unwrap(), dn("foo.com"));
        assert_eq!(
            l.e2ld_of_san(&dn("*.a.foo.co.uk")).unwrap(),
            dn("foo.co.uk")
        );
        assert_eq!(l.e2ld_of_san(&dn("bar.foo.com")).unwrap(), dn("foo.com"));
    }

    #[test]
    fn custom_rules() {
        let l = SuffixList::from_rules(["// comment", "", "zz", "*.zz", "!ok.zz"]).unwrap();
        assert_eq!(l.e2ld(&dn("a.b.zz")).unwrap(), dn("a.b.zz"));
        assert_eq!(l.e2ld(&dn("ok.zz")).unwrap(), dn("ok.zz"));
        assert_eq!(l.e2ld(&dn("x.ok.zz")).unwrap(), dn("ok.zz"));
        assert!(SuffixList::from_rules(["bad rule"]).is_err());
    }

    #[test]
    fn wildcard_matches_bare_child() {
        let l = list();
        assert!(l.is_public_suffix(&dn("x.ck")));
    }
}
