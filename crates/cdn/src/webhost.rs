//! Shared web hosting with automatic SSL (cPanel AutoSSL / managed
//! WordPress style, §2.3 methods 4–5).
//!
//! The host issues a per-domain certificate through its CA and keeps the
//! key on its own servers. Unlike CDN delegation, hosting usually shows up
//! in DNS as A records pointing at shared infrastructure — the paper's
//! NS/CNAME departure detector cannot see these customers leave, which is
//! one reason its managed-TLS numbers are a lower bound. The GoDaddy
//! managed-WordPress breach (§5.1) is the webhost key-compromise scenario:
//! one incident exposes keys for *every* hosted customer.

use ca::authority::{CertificateAuthority, IssuanceRequest};
use crypto::KeyPair;
use ct::log::LogPool;
use dns::record::Ipv4Addr;
use dns::scan::{DnsHistory, DnsView};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stale_types::{Date, DateInterval, DomainName, SerialNumber};
use std::collections::BTreeMap;
use x509::Certificate;

/// A hosted customer: the key the host generated and the serial and
/// validity of the certificate currently serving the domain.
struct Hosted {
    key: KeyPair,
    serial: SerialNumber,
    validity: DateInterval,
}

impl Hosted {
    fn new(key: KeyPair, cert: &Certificate) -> Self {
        Hosted {
            key,
            serial: cert.tbs.serial,
            validity: cert.tbs.validity,
        }
    }
}

/// A shared hosting provider with AutoSSL.
pub struct WebHost {
    /// Display name, e.g. `bluehost`.
    pub name: String,
    ca: CertificateAuthority,
    /// Shared edge IPs customers' A records point to.
    edge_ips: Vec<Ipv4Addr>,
    /// Hosted customers: domain → key and active certificate.
    customers: BTreeMap<DomainName, Hosted>,
    /// Everything ever issued (keys never leave the host).
    all_issued: Vec<Certificate>,
    /// Renew once the active certificate is this old, even if far from
    /// expiry (managed-WordPress-style eager reissuance). `None` renews
    /// only near expiry.
    renewal_age_days: Option<i64>,
    rng: StdRng,
}

impl WebHost {
    /// Create a host fronted by `ca`.
    pub fn new(name: impl Into<String>, ca: CertificateAuthority, seed: u64) -> Self {
        WebHost {
            name: name.into(),
            ca,
            edge_ips: vec![
                Ipv4Addr::new(198, 51, 100, 10),
                Ipv4Addr::new(198, 51, 100, 11),
            ],
            customers: BTreeMap::new(),
            all_issued: Vec::new(),
            renewal_age_days: None,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Enable eager renewal at a fixed certificate age.
    pub fn with_renewal_age(mut self, days: i64) -> Self {
        self.renewal_age_days = Some(days);
        self
    }

    /// The issuer name on AutoSSL certificates (e.g. `cPanel, Inc. CA`).
    pub fn issuer_name(&self) -> String {
        self.ca.issuer_name().common_name
    }

    /// The DNS view of a hosted customer: A records at the shared edge.
    pub fn hosted_view(&self) -> DnsView {
        DnsView {
            a: self.edge_ips.iter().copied().collect(),
            ..Default::default()
        }
    }

    /// Onboard a customer: point DNS at the edge and AutoSSL a
    /// certificate.
    pub fn host(
        &mut self,
        domain: DomainName,
        today: Date,
        ct: &mut LogPool,
        dns: &mut DnsHistory,
    ) -> Certificate {
        dns.record_change(domain.clone(), today, self.hosted_view());
        let key = KeyPair::generate(&mut self.rng);
        let cert = self
            .ca
            .issue(
                &IssuanceRequest {
                    domains: vec![domain.clone(), domain.prepend("www").expect("label")],
                    public_key: key.public(),
                    requested_lifetime: None,
                },
                today,
                ct,
            )
            .expect("autossl issuance");
        self.customers.insert(domain, Hosted::new(key, &cert));
        self.all_issued.push(cert.clone());
        cert
    }

    /// Customer leaves for other infrastructure. The host keeps the key.
    pub fn offboard(
        &mut self,
        domain: &DomainName,
        today: Date,
        new_view: DnsView,
        dns: &mut DnsHistory,
    ) -> Vec<Certificate> {
        if self.customers.remove(domain).is_none() {
            return Vec::new();
        }
        dns.record_change(domain.clone(), today, new_view);
        self.all_issued
            .iter()
            .filter(|c| c.tbs.validity.contains(today))
            .filter(|c| c.tbs.san().iter().any(|s| s == domain))
            .cloned()
            .collect()
    }

    /// A breach at the host: hosted customers' keys are exposed and their
    /// certificates revoked with `keyCompromise` (as GoDaddy did for its
    /// managed-WordPress service in November 2021).
    ///
    /// `max_age_days` limits the blast radius to certificates issued
    /// within that window before `today` (e.g. keys logged during recent
    /// provisioning); `None` revokes every current customer certificate.
    pub fn breach(&mut self, today: Date, max_age_days: Option<i64>) -> Vec<SerialNumber> {
        let serials: Vec<SerialNumber> = self
            .customers
            .values()
            .filter(|c| max_age_days.is_none_or(|max| (today - c.validity.start).num_days() <= max))
            .map(|c| c.serial)
            .collect();
        for serial in &serials {
            // Ignore already-revoked duplicates.
            let _ = self.ca.revoke(
                *serial,
                today,
                x509::revocation::RevocationReason::KeyCompromise,
            );
        }
        serials
    }

    /// Remove a customer without DNS changes (domain died).
    pub fn force_remove(&mut self, domain: &DomainName) {
        self.customers.remove(domain);
    }

    /// Whether `domain` is hosted here.
    pub fn is_customer(&self, domain: &DomainName) -> bool {
        self.customers.contains_key(domain)
    }

    /// AutoSSL renewal sweep: reissue certificates expiring within
    /// `horizon_days`.
    pub fn renew_due(&mut self, today: Date, horizon_days: i64, ct: &mut LogPool) -> usize {
        let horizon = today + stale_types::Duration::days(horizon_days);
        let due: Vec<DomainName> = self
            .customers
            .iter()
            .filter(|(_, c)| {
                c.validity.end <= horizon
                    || self
                        .renewal_age_days
                        .is_some_and(|age| (today - c.validity.start).num_days() >= age)
            })
            .map(|(d, _)| d.clone())
            .collect();
        let mut renewed = 0;
        for domain in due {
            let key = self.customers[&domain].key.clone();
            let cert = self
                .ca
                .issue(
                    &IssuanceRequest {
                        domains: vec![domain.clone(), domain.prepend("www").expect("label")],
                        public_key: key.public(),
                        requested_lifetime: None,
                    },
                    today,
                    ct,
                )
                .expect("autossl renewal");
            self.customers.insert(domain, Hosted::new(key, &cert));
            self.all_issued.push(cert);
            renewed += 1;
        }
        renewed
    }

    /// The host's CA (to publish CRLs from).
    pub fn ca(&self) -> &CertificateAuthority {
        &self.ca
    }

    /// Mutable CA access (for external revocations).
    pub fn ca_mut(&mut self) -> &mut CertificateAuthority {
        &mut self.ca
    }

    /// Hosted customer count.
    pub fn customer_count(&self) -> usize {
        self.customers.len()
    }

    /// Everything ever issued.
    pub fn all_issued(&self) -> &[Certificate] {
        &self.all_issued
    }

    /// Hand over every issued certificate, leaving the list empty (the CA
    /// and its revocations stay, for the CRL scrape).
    pub fn take_issued(&mut self) -> Vec<Certificate> {
        std::mem::take(&mut self.all_issued)
    }

    /// Pick a random current customer (for simulating churn).
    pub fn random_customer(&mut self) -> Option<DomainName> {
        if self.customers.is_empty() {
            return None;
        }
        let idx = self.rng.gen_range(0..self.customers.len());
        self.customers.keys().nth(idx).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca::policy::CaPolicy;
    use stale_types::domain::dn;
    use stale_types::CaId;

    fn d(s: &str) -> Date {
        Date::parse(s).unwrap()
    }

    fn host() -> WebHost {
        let ca = CertificateAuthority::new(
            CaId(20),
            "cPanel, Inc. CA",
            KeyPair::from_seed([20; 32]),
            CaPolicy::automated_90_day(),
        );
        WebHost::new("bluehost", ca, 5)
    }

    fn pool() -> LogPool {
        LogPool::with_yearly_shards("oak", 12, 2015, 2027)
    }

    #[test]
    fn hosting_issues_and_points_dns() {
        let mut h = host();
        let mut ct = pool();
        let mut dns = DnsHistory::new();
        let cert = h.host(dn("blog.com"), d("2021-06-01"), &mut ct, &mut dns);
        assert!(cert.tbs.san().contains(&dn("blog.com")));
        assert!(cert.tbs.san().contains(&dn("www.blog.com")));
        let view = dns.view_at(&dn("blog.com"), d("2021-06-01")).unwrap();
        assert!(!view.a.is_empty());
        assert!(
            view.ns.is_empty(),
            "hosting is A-record based, invisible to NS/CNAME diffing"
        );
        assert_eq!(h.customer_count(), 1);
    }

    #[test]
    fn offboarding_leaves_host_with_valid_key() {
        let mut h = host();
        let mut ct = pool();
        let mut dns = DnsHistory::new();
        h.host(dn("blog.com"), d("2021-06-01"), &mut ct, &mut dns);
        let stale = h.offboard(
            &dn("blog.com"),
            d("2021-07-01"),
            DnsView::with_ns([dn("ns1.elsewhere.net")]),
            &mut dns,
        );
        assert_eq!(stale.len(), 1);
        assert_eq!(h.customer_count(), 0);
        // Offboarding twice is a no-op.
        assert!(h
            .offboard(
                &dn("blog.com"),
                d("2021-07-02"),
                DnsView::default(),
                &mut dns
            )
            .is_empty());
    }

    #[test]
    fn breach_revokes_every_customer_key() {
        let mut h = host();
        let mut ct = pool();
        let mut dns = DnsHistory::new();
        for i in 0..10 {
            h.host(
                dn(&format!("site{i}.com")),
                d("2021-06-01"),
                &mut ct,
                &mut dns,
            );
        }
        let serials = h.breach(d("2021-11-17"), None);
        assert_eq!(serials.len(), 10);
        // A scoped breach on freshly-issued certs also catches them all
        // (issued 169 days ago), but an over-narrow window catches none.
        assert!(h.breach(d("2021-11-17"), Some(30)).is_empty());
        let crl = h.ca().publish_crl(d("2021-11-18"));
        assert_eq!(crl.entries.len(), 10);
        assert!(crl
            .entries
            .iter()
            .all(|e| e.reason == x509::revocation::RevocationReason::KeyCompromise));
    }

    #[test]
    fn random_customer_sampling() {
        let mut h = host();
        let mut ct = pool();
        let mut dns = DnsHistory::new();
        assert!(h.random_customer().is_none());
        h.host(dn("only.com"), d("2021-06-01"), &mut ct, &mut dns);
        assert_eq!(h.random_customer(), Some(dn("only.com")));
    }
}
