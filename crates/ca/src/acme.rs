//! ACME-style automated domain validation (RFC 8555 shape).
//!
//! Figure 1 of the paper: the CA sends the subscriber a nonce; the
//! subscriber provisions it where only the domain's controller can —
//! a DNS TXT record (`dns-01`), an HTTP well-known path (`http-01`) or a
//! TLS ALPN response (`tls-alpn-01`) — and the CA checks it before
//! issuing. Validation here runs against the real `dns` substrate; the
//! HTTP and ALPN side is a small [`WebServer`] map standing in for the
//! subscriber's server.
//!
//! The module also implements *domain validation reuse*: a CA may skip
//! re-validation for 398 days after a successful check, which the paper
//! notes "can result in a certificate that is stale from the moment that
//! it is issued" (§4.4).

use crate::authority::{CertificateAuthority, IssuanceRequest, IssueError};
use crate::policy::validation_reuse_window;
use crypto::sha256::sha256;
use crypto::PublicKey;
use ct::log::LogPool;
use dns::record::{RData, RecordType};
use dns::resolver::Resolver;
use stale_types::hex::Hex;
use stale_types::{AccountId, Date, DomainName, Duration};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use x509::Certificate;

/// Challenge flavours.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChallengeType {
    /// TXT record at `_acme-challenge.<domain>`.
    Dns01,
    /// Token served at `/.well-known/acme-challenge/<token>`.
    Http01,
    /// Token presented in a TLS ALPN handshake.
    TlsAlpn01,
}

/// One pending challenge.
#[derive(Debug, Clone)]
pub struct Challenge {
    /// Flavour.
    pub challenge_type: ChallengeType,
    /// The domain under validation.
    pub domain: DomainName,
    /// Random-nonce token.
    pub token: String,
}

impl Challenge {
    /// The key authorization string the subscriber must provision:
    /// `token || '.' || hex(SHA-256(account key))`.
    pub fn key_authorization(&self, account_key: &PublicKey) -> String {
        let thumb = sha256(account_key.as_bytes());
        format!("{}.{}", self.token, Hex(&thumb[..8]))
    }

    /// Where the dns-01 record must be provisioned.
    pub fn dns_name(&self) -> DomainName {
        self.domain.prepend("_acme-challenge").expect("valid label")
    }
}

/// Order lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderStatus {
    /// Awaiting challenge completion.
    Pending,
    /// All authorizations valid; finalize may be called.
    Ready,
    /// Certificate issued.
    Valid,
    /// A validation failed.
    Invalid,
}

/// A certificate order covering one or more domains.
#[derive(Debug, Clone)]
pub struct Order {
    /// Order id.
    pub id: u64,
    /// Account that placed the order.
    pub account: AccountId,
    /// Domains on the order.
    pub domains: Vec<DomainName>,
    /// Per-domain validation status.
    validated: BTreeMap<DomainName, bool>,
    /// Current status.
    pub status: OrderStatus,
}

impl Order {
    /// Domains still requiring validation.
    pub fn pending_domains(&self) -> Vec<&DomainName> {
        self.validated
            .iter()
            .filter(|(_, &done)| !done)
            .map(|(d, _)| d)
            .collect()
    }
}

/// ACME protocol errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AcmeError {
    /// Order id not found.
    UnknownOrder,
    /// The challenge's provisioned response was missing or wrong.
    ValidationFailed {
        /// Domain that failed.
        domain: String,
        /// What went wrong.
        detail: String,
    },
    /// finalize called before all domains validated.
    OrderNotReady,
    /// Underlying issuance failed.
    Issue(IssueError),
}

impl fmt::Display for AcmeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AcmeError::UnknownOrder => write!(f, "unknown order"),
            AcmeError::ValidationFailed { domain, detail } => {
                write!(f, "validation failed for {domain}: {detail}")
            }
            AcmeError::OrderNotReady => write!(f, "order has unvalidated domains"),
            AcmeError::Issue(e) => write!(f, "issuance failed: {e}"),
        }
    }
}

impl std::error::Error for AcmeError {}

/// The subscriber's web server: domain → served acme-challenge content
/// and ALPN token. Stands in for the HTTP/ALPN side of Figure 1.
#[derive(Debug, Clone, Default)]
pub struct WebServer {
    http_tokens: HashMap<(DomainName, String), String>,
    alpn_tokens: HashMap<DomainName, String>,
}

impl WebServer {
    /// Empty server.
    pub fn new() -> Self {
        WebServer::default()
    }

    /// Serve `content` at `/.well-known/acme-challenge/<token>` for
    /// `domain`.
    pub fn serve_http01(&mut self, domain: DomainName, token: String, content: String) {
        self.http_tokens.insert((domain, token), content);
    }

    /// Present `content` in the TLS ALPN handshake for `domain`.
    pub fn serve_alpn(&mut self, domain: DomainName, content: String) {
        self.alpn_tokens.insert(domain, content);
    }

    fn fetch_http(&self, domain: &DomainName, token: &str) -> Option<&str> {
        self.http_tokens
            .get(&(domain.clone(), token.to_string()))
            .map(String::as_str)
    }

    fn fetch_alpn(&self, domain: &DomainName) -> Option<&str> {
        self.alpn_tokens.get(domain).map(String::as_str)
    }
}

/// An ACME front-end bound to a CA.
pub struct AcmeServer {
    next_order: u64,
    orders: BTreeMap<u64, Order>,
    next_token: u64,
    /// `(account, domain) → validation expiry` — the reuse cache.
    validation_cache: HashMap<(AccountId, DomainName), Date>,
}

impl Default for AcmeServer {
    fn default() -> Self {
        Self::new()
    }
}

impl AcmeServer {
    /// Fresh server.
    pub fn new() -> Self {
        AcmeServer {
            next_order: 1,
            orders: BTreeMap::new(),
            next_token: 1,
            validation_cache: HashMap::new(),
        }
    }

    /// Place an order. Domains with a fresh cached validation (when the
    /// CA's policy allows reuse) are pre-validated.
    pub fn new_order(
        &mut self,
        ca: &CertificateAuthority,
        account: AccountId,
        domains: Vec<DomainName>,
        today: Date,
    ) -> u64 {
        let id = self.next_order;
        self.next_order += 1;
        let mut validated = BTreeMap::new();
        for d in &domains {
            let cached = ca.policy().validation_reuse
                && self
                    .validation_cache
                    .get(&(account, d.clone()))
                    .is_some_and(|expiry| today < *expiry);
            validated.insert(d.clone(), cached);
        }
        let status = if validated.values().all(|&v| v) {
            OrderStatus::Ready
        } else {
            OrderStatus::Pending
        };
        self.orders.insert(
            id,
            Order {
                id,
                account,
                domains,
                validated,
                status,
            },
        );
        id
    }

    /// Get a challenge of `ctype` for `domain` on an order.
    pub fn challenge(
        &mut self,
        order_id: u64,
        domain: &DomainName,
        ctype: ChallengeType,
    ) -> Result<Challenge, AcmeError> {
        let order = self.orders.get(&order_id).ok_or(AcmeError::UnknownOrder)?;
        if !order.validated.contains_key(domain) {
            return Err(AcmeError::ValidationFailed {
                domain: domain.to_string(),
                detail: "domain not on order".into(),
            });
        }
        let token = format!("tok{:08x}", self.next_token);
        self.next_token += 1;
        Ok(Challenge {
            challenge_type: ctype,
            domain: domain.clone(),
            token,
        })
    }

    /// Validate a provisioned challenge against DNS and/or the
    /// subscriber's web server.
    pub fn validate(
        &mut self,
        order_id: u64,
        challenge: &Challenge,
        account_key: &PublicKey,
        resolver: &Resolver,
        web: &WebServer,
        today: Date,
    ) -> Result<(), AcmeError> {
        let order = self.orders.get(&order_id).ok_or(AcmeError::UnknownOrder)?;
        let account = order.account;
        let expected = challenge.key_authorization(account_key);
        let ok = match challenge.challenge_type {
            ChallengeType::Dns01 => {
                let name = challenge.dns_name();
                match resolver.resolve(&name, RecordType::Txt) {
                    Ok(records) => records
                        .iter()
                        .any(|r| matches!(r, RData::Txt(t) if *t == expected)),
                    Err(_) => false,
                }
            }
            ChallengeType::Http01 => {
                web.fetch_http(&challenge.domain, &challenge.token) == Some(expected.as_str())
            }
            ChallengeType::TlsAlpn01 => {
                web.fetch_alpn(&challenge.domain) == Some(expected.as_str())
            }
        };
        let order = self.orders.get_mut(&order_id).expect("checked above");
        if !ok {
            order.status = OrderStatus::Invalid;
            return Err(AcmeError::ValidationFailed {
                domain: challenge.domain.to_string(),
                detail: format!(
                    "{:?} response missing or mismatched",
                    challenge.challenge_type
                ),
            });
        }
        order.validated.insert(challenge.domain.clone(), true);
        self.validation_cache.insert(
            (account, challenge.domain.clone()),
            today + validation_reuse_window(),
        );
        if order.validated.values().all(|&v| v) {
            order.status = OrderStatus::Ready;
        }
        Ok(())
    }

    /// Finalize: issue the certificate for a fully validated order.
    pub fn finalize(
        &mut self,
        order_id: u64,
        subscriber_key: PublicKey,
        requested_lifetime: Option<Duration>,
        ca: &mut CertificateAuthority,
        ct: &mut LogPool,
        today: Date,
    ) -> Result<Certificate, AcmeError> {
        let order = self
            .orders
            .get_mut(&order_id)
            .ok_or(AcmeError::UnknownOrder)?;
        if order.status != OrderStatus::Ready {
            return Err(AcmeError::OrderNotReady);
        }
        let request = IssuanceRequest {
            domains: order.domains.clone(),
            public_key: subscriber_key,
            requested_lifetime,
        };
        let cert = ca.issue(&request, today, ct).map_err(AcmeError::Issue)?;
        order.status = OrderStatus::Valid;
        Ok(cert)
    }

    /// Inspect an order.
    pub fn order(&self, id: u64) -> Option<&Order> {
        self.orders.get(&id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::CaPolicy;
    use crypto::KeyPair;
    use dns::zone::Zone;
    use stale_types::domain::dn;
    use stale_types::CaId;

    fn d(s: &str) -> Date {
        Date::parse(s).unwrap()
    }

    struct Fixture {
        ca: CertificateAuthority,
        acme: AcmeServer,
        resolver: Resolver,
        web: WebServer,
        ct: LogPool,
        account_key: KeyPair,
        subscriber_key: KeyPair,
    }

    fn fixture(policy: CaPolicy) -> Fixture {
        let mut resolver = Resolver::new();
        resolver.add_zone(Zone::new(dn("foo.com")));
        Fixture {
            ca: CertificateAuthority::new(CaId(1), "ACME CA", KeyPair::from_seed([1; 32]), policy),
            acme: AcmeServer::new(),
            resolver,
            web: WebServer::new(),
            ct: LogPool::with_yearly_shards("argon", 9, 2020, 2026),
            account_key: KeyPair::from_seed([2; 32]),
            subscriber_key: KeyPair::from_seed([3; 32]),
        }
    }

    #[test]
    fn dns01_end_to_end() {
        let mut f = fixture(CaPolicy::automated_90_day());
        let today = d("2022-03-01");
        let order = f
            .acme
            .new_order(&f.ca, AccountId(1), vec![dn("foo.com")], today);
        assert_eq!(f.acme.order(order).unwrap().status, OrderStatus::Pending);
        let ch = f
            .acme
            .challenge(order, &dn("foo.com"), ChallengeType::Dns01)
            .unwrap();
        // Subscriber provisions the TXT record.
        let key_auth = ch.key_authorization(&f.account_key.public());
        f.resolver
            .zone_mut(&dn("foo.com"))
            .unwrap()
            .add_data(ch.dns_name(), RData::Txt(key_auth));
        f.acme
            .validate(
                order,
                &ch,
                &f.account_key.public(),
                &f.resolver,
                &f.web,
                today,
            )
            .unwrap();
        assert_eq!(f.acme.order(order).unwrap().status, OrderStatus::Ready);
        let cert = f
            .acme
            .finalize(
                order,
                f.subscriber_key.public(),
                None,
                &mut f.ca,
                &mut f.ct,
                today,
            )
            .unwrap();
        assert_eq!(cert.tbs.san(), &[dn("foo.com")]);
        assert_eq!(cert.tbs.lifetime(), Duration::days(90));
        assert_eq!(f.acme.order(order).unwrap().status, OrderStatus::Valid);
    }

    #[test]
    fn http01_and_alpn_end_to_end() {
        let mut f = fixture(CaPolicy::automated_90_day());
        let today = d("2022-03-01");
        let order = f
            .acme
            .new_order(&f.ca, AccountId(1), vec![dn("foo.com")], today);
        let ch = f
            .acme
            .challenge(order, &dn("foo.com"), ChallengeType::Http01)
            .unwrap();
        let key_auth = ch.key_authorization(&f.account_key.public());
        f.web
            .serve_http01(dn("foo.com"), ch.token.clone(), key_auth);
        f.acme
            .validate(
                order,
                &ch,
                &f.account_key.public(),
                &f.resolver,
                &f.web,
                today,
            )
            .unwrap();
        assert_eq!(f.acme.order(order).unwrap().status, OrderStatus::Ready);

        // ALPN variant on a second order.
        let order2 = f
            .acme
            .new_order(&f.ca, AccountId(1), vec![dn("foo.com")], today);
        let ch2 = f
            .acme
            .challenge(order2, &dn("foo.com"), ChallengeType::TlsAlpn01)
            .unwrap();
        let key_auth2 = ch2.key_authorization(&f.account_key.public());
        f.web.serve_alpn(dn("foo.com"), key_auth2);
        f.acme
            .validate(
                order2,
                &ch2,
                &f.account_key.public(),
                &f.resolver,
                &f.web,
                today,
            )
            .unwrap();
    }

    #[test]
    fn missing_record_fails_validation() {
        let mut f = fixture(CaPolicy::automated_90_day());
        let today = d("2022-03-01");
        let order = f
            .acme
            .new_order(&f.ca, AccountId(1), vec![dn("foo.com")], today);
        let ch = f
            .acme
            .challenge(order, &dn("foo.com"), ChallengeType::Dns01)
            .unwrap();
        let err = f
            .acme
            .validate(
                order,
                &ch,
                &f.account_key.public(),
                &f.resolver,
                &f.web,
                today,
            )
            .unwrap_err();
        assert!(matches!(err, AcmeError::ValidationFailed { .. }));
        assert_eq!(f.acme.order(order).unwrap().status, OrderStatus::Invalid);
        // Finalizing an invalid order fails.
        assert_eq!(
            f.acme
                .finalize(
                    order,
                    f.subscriber_key.public(),
                    None,
                    &mut f.ca,
                    &mut f.ct,
                    today
                )
                .unwrap_err(),
            AcmeError::OrderNotReady
        );
    }

    #[test]
    fn wrong_account_key_fails() {
        let mut f = fixture(CaPolicy::automated_90_day());
        let today = d("2022-03-01");
        let order = f
            .acme
            .new_order(&f.ca, AccountId(1), vec![dn("foo.com")], today);
        let ch = f
            .acme
            .challenge(order, &dn("foo.com"), ChallengeType::Dns01)
            .unwrap();
        // Provision a key auth for a *different* account key.
        let other = KeyPair::from_seed([99; 32]);
        f.resolver.zone_mut(&dn("foo.com")).unwrap().add_data(
            ch.dns_name(),
            RData::Txt(ch.key_authorization(&other.public())),
        );
        assert!(f
            .acme
            .validate(
                order,
                &ch,
                &f.account_key.public(),
                &f.resolver,
                &f.web,
                today
            )
            .is_err());
    }

    #[test]
    fn validation_reuse_skips_revalidation() {
        let mut f = fixture(CaPolicy::commercial()); // reuse enabled
        let today = d("2022-03-01");
        let order = f
            .acme
            .new_order(&f.ca, AccountId(1), vec![dn("foo.com")], today);
        let ch = f
            .acme
            .challenge(order, &dn("foo.com"), ChallengeType::Dns01)
            .unwrap();
        f.resolver.zone_mut(&dn("foo.com")).unwrap().add_data(
            ch.dns_name(),
            RData::Txt(ch.key_authorization(&f.account_key.public())),
        );
        f.acme
            .validate(
                order,
                &ch,
                &f.account_key.public(),
                &f.resolver,
                &f.web,
                today,
            )
            .unwrap();
        // A later order within 398 days is Ready immediately.
        let later = d("2023-01-01");
        let order2 = f
            .acme
            .new_order(&f.ca, AccountId(1), vec![dn("foo.com")], later);
        assert_eq!(f.acme.order(order2).unwrap().status, OrderStatus::Ready);
        // Beyond the window it is Pending again.
        let much_later = d("2023-05-01");
        let order3 = f
            .acme
            .new_order(&f.ca, AccountId(1), vec![dn("foo.com")], much_later);
        assert_eq!(f.acme.order(order3).unwrap().status, OrderStatus::Pending);
        // A different account gets no reuse.
        let order4 = f
            .acme
            .new_order(&f.ca, AccountId(2), vec![dn("foo.com")], later);
        assert_eq!(f.acme.order(order4).unwrap().status, OrderStatus::Pending);
    }

    #[test]
    fn reuse_disabled_for_90_day_ca() {
        let mut f = fixture(CaPolicy::automated_90_day());
        let today = d("2022-03-01");
        let order = f
            .acme
            .new_order(&f.ca, AccountId(1), vec![dn("foo.com")], today);
        let ch = f
            .acme
            .challenge(order, &dn("foo.com"), ChallengeType::Dns01)
            .unwrap();
        f.resolver.zone_mut(&dn("foo.com")).unwrap().add_data(
            ch.dns_name(),
            RData::Txt(ch.key_authorization(&f.account_key.public())),
        );
        f.acme
            .validate(
                order,
                &ch,
                &f.account_key.public(),
                &f.resolver,
                &f.web,
                today,
            )
            .unwrap();
        let order2 = f
            .acme
            .new_order(&f.ca, AccountId(1), vec![dn("foo.com")], d("2022-04-01"));
        assert_eq!(f.acme.order(order2).unwrap().status, OrderStatus::Pending);
    }

    #[test]
    fn multi_domain_order_requires_all() {
        let mut f = fixture(CaPolicy::automated_90_day());
        f.resolver.add_zone(Zone::new(dn("bar.com")));
        let today = d("2022-03-01");
        let order = f.acme.new_order(
            &f.ca,
            AccountId(1),
            vec![dn("foo.com"), dn("bar.com")],
            today,
        );
        let ch = f
            .acme
            .challenge(order, &dn("foo.com"), ChallengeType::Dns01)
            .unwrap();
        f.resolver.zone_mut(&dn("foo.com")).unwrap().add_data(
            ch.dns_name(),
            RData::Txt(ch.key_authorization(&f.account_key.public())),
        );
        f.acme
            .validate(
                order,
                &ch,
                &f.account_key.public(),
                &f.resolver,
                &f.web,
                today,
            )
            .unwrap();
        // bar.com still pending.
        assert_eq!(f.acme.order(order).unwrap().status, OrderStatus::Pending);
        assert_eq!(
            f.acme.order(order).unwrap().pending_domains(),
            vec![&dn("bar.com")]
        );
    }
}
