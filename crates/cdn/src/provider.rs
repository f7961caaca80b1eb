//! A managed-TLS CDN provider.
//!
//! The provider terminates TLS for its customers: it requests (or issues
//! through its own CA) certificates covering customer domains and fully
//! controls the private keys. Enrollment points the customer's DNS at the
//! provider (NS or CNAME delegation, Figure 3); departure points it away —
//! but nothing revokes the certificate, so the provider retains a valid
//! key for a domain it no longer serves.

use ca::authority::{CertificateAuthority, IssuanceRequest};
use crypto::KeyPair;
use ct::log::LogPool;
use dns::scan::{DnsHistory, DnsView};
use rand::rngs::StdRng;
use rand::SeedableRng;
use stale_types::{Date, DomainName};
use std::collections::BTreeMap;
use x509::Certificate;

/// How customers delegate traffic to the provider (§2.3 method 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelegationKind {
    /// The provider becomes the authoritative nameserver (full-setup
    /// Cloudflare).
    Ns,
    /// A CNAME points at the provider's edge (partial setup).
    Cname,
}

/// Static configuration of a provider.
#[derive(Debug, Clone)]
pub struct ProviderConfig {
    /// Display name, e.g. `Cloudflare`.
    pub name: String,
    /// Nameservers assigned to NS-delegated customers.
    pub nameservers: Vec<DomainName>,
    /// Suffix for CNAME-delegated customers (`<domain>.{cname_base}`).
    pub cname_base: DomainName,
    /// Base for the marker SAN that identifies managed certificates in CT
    /// (e.g. `cloudflaressl.com` → `sni12345.cloudflaressl.com`).
    /// `None` means the provider's managed certs are indistinguishable
    /// from self-managed ones (every CDN except Cloudflare, §4.3).
    pub marker_base: Option<String>,
    /// Maximum customer domains per certificate. >1 enables cruise-liner
    /// packing; 1 issues per-domain certificates.
    pub sans_per_cert: usize,
    /// Default delegation kind for new customers.
    pub delegation: DelegationKind,
}

impl ProviderConfig {
    /// A Cloudflare-like configuration in its cruise-liner era.
    pub fn cloudflare_cruise_liner() -> Self {
        ProviderConfig {
            name: "Cloudflare".into(),
            nameservers: vec![
                DomainName::parse("anna.ns.cloudflare.com").expect("literal"),
                DomainName::parse("bob.ns.cloudflare.com").expect("literal"),
            ],
            cname_base: DomainName::parse("cdn.cloudflare.com").expect("literal"),
            marker_base: Some("cloudflaressl.com".into()),
            sans_per_cert: 32,
            delegation: DelegationKind::Ns,
        }
    }

    /// Cloudflare after its own-CA transition: per-domain certificates.
    pub fn cloudflare_per_domain() -> Self {
        ProviderConfig {
            sans_per_cert: 1,
            ..Self::cloudflare_cruise_liner()
        }
    }

    /// Whether `name` is one of this provider's delegation targets —
    /// the §4.3 departure test (`*.<ns,cdn>.cloudflare.com`).
    pub fn is_delegation_target(&self, name: &DomainName) -> bool {
        self.nameservers
            .iter()
            .any(|ns| name == ns || name.is_subdomain_of(ns))
            || name.is_subdomain_of(&self.cname_base)
    }
}

/// A cruise-liner grouping: one certificate (and key) shared by many
/// customers.
#[derive(Debug)]
struct Bus {
    id: u64,
    key: KeyPair,
    members: Vec<DomainName>,
    /// Serial of the currently active certificate for this bus.
    current: Option<Certificate>,
}

/// A live customer's state.
#[derive(Debug, Clone)]
pub struct Customer {
    /// Enrollment day.
    pub enrolled: Date,
    /// Which bus the domain rides (index), or per-domain.
    bus: Option<usize>,
    /// Delegation kind in DNS.
    pub delegation: DelegationKind,
}

/// The managed-TLS provider.
pub struct ManagedTlsProvider {
    /// Configuration.
    pub config: ProviderConfig,
    ca: CertificateAuthority,
    buses: Vec<Bus>,
    customers: BTreeMap<DomainName, Customer>,
    /// Certificates issued for per-domain customers (domain → cert+key).
    per_domain: BTreeMap<DomainName, (KeyPair, Certificate)>,
    /// Every certificate this provider ever controlled (it never loses
    /// the keys — the crux of §5.3).
    all_issued: Vec<Certificate>,
    next_bus: u64,
    rng: StdRng,
}

impl ManagedTlsProvider {
    /// Create a provider fronted by `ca`.
    pub fn new(config: ProviderConfig, ca: CertificateAuthority, seed: u64) -> Self {
        ManagedTlsProvider {
            config,
            ca,
            buses: Vec::new(),
            customers: BTreeMap::new(),
            per_domain: BTreeMap::new(),
            all_issued: Vec::new(),
            next_bus: 1,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Switch configuration (e.g. the 2019 cruise-liner → per-domain
    /// transition). Existing buses continue to exist; new enrollments use
    /// the new packing.
    pub fn reconfigure(&mut self, config: ProviderConfig) {
        self.config = config;
    }

    /// Replace the fronting CA (e.g. COMODO → Cloudflare's own CA),
    /// returning the retired one so its revocation state lives on.
    pub fn switch_ca(&mut self, ca: CertificateAuthority) -> CertificateAuthority {
        std::mem::replace(&mut self.ca, ca)
    }

    /// The fronting CA's issuer name (for Figure 5b's by-issuer series).
    pub fn issuer_name(&self) -> String {
        self.ca.issuer_name().common_name
    }

    /// Current customer count.
    pub fn customer_count(&self) -> usize {
        self.customers.len()
    }

    /// Every certificate the provider has ever held keys for.
    pub fn all_issued(&self) -> &[Certificate] {
        &self.all_issued
    }

    /// Hand over every issued certificate, leaving the list empty (the CA
    /// and its revocations stay, for the CRL scrape).
    pub fn take_issued(&mut self) -> Vec<Certificate> {
        std::mem::take(&mut self.all_issued)
    }

    /// The DNS view a customer's domain shows while enrolled.
    pub fn enrolled_view(&self, domain: &DomainName, delegation: DelegationKind) -> DnsView {
        match delegation {
            DelegationKind::Ns => DnsView::with_ns(self.config.nameservers.iter().cloned()),
            DelegationKind::Cname => {
                let target = DomainName::parse(&format!("{domain}.{}", self.config.cname_base))
                    .expect("valid target");
                DnsView::with_cname([target])
            }
        }
    }

    /// Enroll `domain`: delegate DNS to the provider and issue (or join)
    /// a managed certificate. Returns the active certificate covering the
    /// domain.
    pub fn enroll(
        &mut self,
        domain: DomainName,
        today: Date,
        ct: &mut LogPool,
        dns: &mut DnsHistory,
    ) -> Certificate {
        let delegation = self.config.delegation;
        dns.record_change(
            domain.clone(),
            today,
            self.enrolled_view(&domain, delegation),
        );
        if self.config.sans_per_cert > 1 {
            let bus_idx = self.find_or_create_bus();
            self.buses[bus_idx].members.push(domain.clone());
            self.customers.insert(
                domain,
                Customer {
                    enrolled: today,
                    bus: Some(bus_idx),
                    delegation,
                },
            );
            self.reissue_bus(bus_idx, today, ct)
        } else {
            let key = KeyPair::generate(&mut self.rng);
            let cert = self.issue_for(std::slice::from_ref(&domain), &key, today, ct);
            self.per_domain.insert(domain.clone(), (key, cert.clone()));
            self.customers.insert(
                domain,
                Customer {
                    enrolled: today,
                    bus: None,
                    delegation,
                },
            );
            cert
        }
    }

    /// Depart: the customer points DNS at `new_view` (their new
    /// infrastructure). The provider updates its packing, but **retains
    /// every key and certificate** covering the domain; ask
    /// [`Self::stale_certs_for`] for the ones still valid — the §5.3
    /// stale set.
    ///
    /// Returns whether `domain` was a customer (nothing changes if not).
    pub fn depart(
        &mut self,
        domain: &DomainName,
        today: Date,
        new_view: DnsView,
        ct: &mut LogPool,
        dns: &mut DnsHistory,
    ) -> bool {
        let Some(customer) = self.customers.remove(domain) else {
            return false;
        };
        dns.record_change(domain.clone(), today, new_view);
        if let Some(bus_idx) = customer.bus {
            self.buses[bus_idx].members.retain(|m| m != domain);
            // Cloudflare repacks the bus without the departed domain —
            // generating yet another overlapping certificate.
            if !self.buses[bus_idx].members.is_empty() {
                self.reissue_bus(bus_idx, today, ct);
            }
        } else {
            self.per_domain.remove(domain);
        }
        true
    }

    /// Remove a customer without issuing anything or touching DNS — used
    /// when the domain itself dies (released by the registry), which is
    /// not a "departure" in the §5.3 sense.
    pub fn force_remove(&mut self, domain: &DomainName) {
        if let Some(customer) = self.customers.remove(domain) {
            if let Some(bus_idx) = customer.bus {
                self.buses[bus_idx].members.retain(|m| m != domain);
            } else {
                self.per_domain.remove(domain);
            }
        }
    }

    /// Whether `domain` is currently enrolled.
    pub fn is_customer(&self, domain: &DomainName) -> bool {
        self.customers.contains_key(domain)
    }

    /// Automated renewal sweep: reissue any bus or per-domain certificate
    /// expiring within `horizon_days` of `today`. This is the §7.1
    /// *automatic issuance* behaviour — it keeps running regardless of
    /// what the customer intends to do next.
    pub fn renew_due(&mut self, today: Date, horizon_days: i64, ct: &mut LogPool) -> usize {
        let horizon = today + stale_types::Duration::days(horizon_days);
        let mut renewed = 0;
        let due_buses: Vec<usize> = self
            .buses
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.members.is_empty())
            .filter(|(_, b)| match &b.current {
                Some(cert) => cert.tbs.not_after() <= horizon,
                None => false,
            })
            .map(|(i, _)| i)
            .collect();
        for idx in due_buses {
            self.reissue_bus(idx, today, ct);
            renewed += 1;
        }
        let due_domains: Vec<DomainName> = self
            .per_domain
            .iter()
            .filter(|(_, (_, cert))| cert.tbs.not_after() <= horizon)
            .map(|(d, _)| d.clone())
            .collect();
        for domain in due_domains {
            let key = self.per_domain[&domain].0.clone();
            let cert = self.issue_for(std::slice::from_ref(&domain), &key, today, ct);
            self.per_domain.insert(domain, (key, cert));
            renewed += 1;
        }
        renewed
    }

    /// The fronting CA (for CRL scraping).
    pub fn ca(&self) -> &CertificateAuthority {
        &self.ca
    }

    /// Mutable CA access (for revoking provider-issued certificates).
    pub fn ca_mut(&mut self) -> &mut CertificateAuthority {
        &mut self.ca
    }

    /// Certificates naming `domain` that are unexpired at `date` and whose
    /// keys the provider holds.
    pub fn stale_certs_for(&self, domain: &DomainName, date: Date) -> Vec<Certificate> {
        self.all_issued
            .iter()
            .filter(|c| c.tbs.validity.contains(date))
            .filter(|c| c.tbs.san().iter().any(|san| san == domain))
            .cloned()
            .collect()
    }

    fn find_or_create_bus(&mut self) -> usize {
        let capacity = self.config.sans_per_cert;
        if let Some(idx) = self
            .buses
            .iter()
            .position(|b| b.members.len() < capacity - 1)
        {
            return idx;
        }
        let id = self.next_bus;
        self.next_bus += 1;
        self.buses.push(Bus {
            id,
            key: KeyPair::generate(&mut self.rng),
            members: Vec::new(),
            current: None,
        });
        self.buses.len() - 1
    }

    fn reissue_bus(&mut self, bus_idx: usize, today: Date, ct: &mut LogPool) -> Certificate {
        let (bus_id, key, members) = {
            let bus = &self.buses[bus_idx];
            (bus.id, bus.key.clone(), bus.members.clone())
        };
        let mut sans = Vec::with_capacity(members.len() + 1);
        if let Some(base) = &self.config.marker_base {
            sans.push(DomainName::parse(&format!("sni{bus_id}.{base}")).expect("valid marker SAN"));
        }
        sans.extend(members);
        let cert = self.issue_for(&sans, &key, today, ct);
        self.buses[bus_idx].current = Some(cert.clone());
        cert
    }

    fn issue_for(
        &mut self,
        sans: &[DomainName],
        key: &KeyPair,
        today: Date,
        ct: &mut LogPool,
    ) -> Certificate {
        let mut domains = sans.to_vec();
        if self.config.sans_per_cert == 1 {
            // Per-domain certificates cover the apex and a wildcard, as
            // Cloudflare's own-CA certificates do.
            let apex = domains[0].clone();
            if let Ok(wildcard) = apex.prepend("*") {
                domains.push(wildcard);
            }
            if let Some(base) = &self.config.marker_base {
                // Per-domain certs still carry the marker SAN.
                let marker = DomainName::parse(&format!("sni{}.{base}", self.next_bus))
                    .expect("valid marker SAN");
                self.next_bus += 1;
                domains.insert(0, marker);
            }
        }
        let request = IssuanceRequest {
            domains,
            public_key: key.public(),
            requested_lifetime: None,
        };
        let cert = self
            .ca
            .issue(&request, today, ct)
            .expect("provider issuance");
        self.all_issued.push(cert.clone());
        cert
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca::policy::CaPolicy;
    use stale_types::domain::dn;
    use stale_types::{CaId, Duration};

    fn d(s: &str) -> Date {
        Date::parse(s).unwrap()
    }

    fn comodo() -> CertificateAuthority {
        CertificateAuthority::new(
            CaId(10),
            "COMODO ECC DV Secure Server CA 2",
            KeyPair::from_seed([10; 32]),
            CaPolicy::commercial(),
        )
    }

    fn pool() -> LogPool {
        LogPool::with_yearly_shards("nimbus", 11, 2015, 2027)
    }

    #[test]
    fn cruise_liner_packs_customers() {
        let mut p = ManagedTlsProvider::new(ProviderConfig::cloudflare_cruise_liner(), comodo(), 1);
        let mut ct = pool();
        let mut dns = DnsHistory::new();
        let c1 = p.enroll(dn("alpha.com"), d("2018-05-01"), &mut ct, &mut dns);
        let c2 = p.enroll(dn("beta.com"), d("2018-05-02"), &mut ct, &mut dns);
        // Second certificate covers both customers plus the marker.
        assert!(c2.tbs.san().iter().any(|s| s.as_str().starts_with("sni")));
        assert!(c2.tbs.san().contains(&dn("alpha.com")));
        assert!(c2.tbs.san().contains(&dn("beta.com")));
        assert!(c1.tbs.san().contains(&dn("alpha.com")));
        assert_eq!(p.customer_count(), 2);
        // Every enrollment reissues: 2 certs total so far.
        assert_eq!(p.all_issued().len(), 2);
    }

    #[test]
    fn departure_leaves_stale_cert_and_updates_dns() {
        let mut p = ManagedTlsProvider::new(ProviderConfig::cloudflare_cruise_liner(), comodo(), 1);
        let mut ct = pool();
        let mut dns = DnsHistory::new();
        p.enroll(dn("alpha.com"), d("2018-05-01"), &mut ct, &mut dns);
        p.enroll(dn("beta.com"), d("2018-05-02"), &mut ct, &mut dns);
        let new_view = DnsView::with_ns([dn("ns1.newhost.net")]);
        assert!(p.depart(
            &dn("alpha.com"),
            d("2018-08-01"),
            new_view,
            &mut ct,
            &mut dns,
        ));
        let stale = p.stale_certs_for(&dn("alpha.com"), d("2018-08-01"));
        // alpha.com appears on both earlier certs, both unexpired.
        assert_eq!(stale.len(), 2);
        assert!(stale
            .iter()
            .all(|c| c.tbs.validity.contains(d("2018-08-01"))));
        // DNS now shows the new nameserver.
        let view = dns.view_at(&dn("alpha.com"), d("2018-08-01")).unwrap();
        assert!(view.ns.contains(&dn("ns1.newhost.net")));
        assert!(!view.any_delegation(|n| p.config.is_delegation_target(n)));
        // The bus was repacked without alpha: one more cert exists, not
        // naming alpha.
        let last = p.all_issued().last().unwrap();
        assert!(!last.tbs.san().contains(&dn("alpha.com")));
        assert!(last.tbs.san().contains(&dn("beta.com")));
        assert_eq!(p.customer_count(), 1);
    }

    #[test]
    fn per_domain_mode_issues_one_cert_each() {
        let mut p = ManagedTlsProvider::new(ProviderConfig::cloudflare_per_domain(), comodo(), 1);
        let mut ct = pool();
        let mut dns = DnsHistory::new();
        let c1 = p.enroll(dn("alpha.com"), d("2020-05-01"), &mut ct, &mut dns);
        let c2 = p.enroll(dn("beta.com"), d("2020-05-02"), &mut ct, &mut dns);
        assert!(c1.tbs.san().contains(&dn("alpha.com")));
        assert!(!c1.tbs.san().contains(&dn("beta.com")));
        assert!(c2.tbs.san().contains(&dn("beta.com")));
        // Markers still present (Cloudflare's own CA also uses them).
        assert!(c1
            .tbs
            .san()
            .iter()
            .any(|s| s.as_str().ends_with("cloudflaressl.com")));
    }

    #[test]
    fn cname_delegation_view() {
        let mut config = ProviderConfig::cloudflare_cruise_liner();
        config.delegation = DelegationKind::Cname;
        let mut p = ManagedTlsProvider::new(config, comodo(), 1);
        let mut ct = pool();
        let mut dns = DnsHistory::new();
        p.enroll(dn("gamma.com"), d("2018-05-01"), &mut ct, &mut dns);
        let view = dns.view_at(&dn("gamma.com"), d("2018-05-01")).unwrap();
        assert!(view
            .cname
            .iter()
            .any(|c| c.is_subdomain_of(&dn("cdn.cloudflare.com"))));
        assert!(view.any_delegation(|n| p.config.is_delegation_target(n)));
    }

    #[test]
    fn delegation_target_matching() {
        let config = ProviderConfig::cloudflare_cruise_liner();
        assert!(config.is_delegation_target(&dn("anna.ns.cloudflare.com")));
        assert!(config.is_delegation_target(&dn("foo.com.cdn.cloudflare.com")));
        assert!(!config.is_delegation_target(&dn("ns1.selfhost.net")));
        assert!(!config.is_delegation_target(&dn("cloudflare.com")));
    }

    #[test]
    fn bus_overflow_starts_new_bus() {
        let mut config = ProviderConfig::cloudflare_cruise_liner();
        config.sans_per_cert = 3; // marker + 2 customers
        let mut p = ManagedTlsProvider::new(config, comodo(), 1);
        let mut ct = pool();
        let mut dns = DnsHistory::new();
        for i in 0..5 {
            p.enroll(
                dn(&format!("site{i}.com")),
                d("2018-05-01"),
                &mut ct,
                &mut dns,
            );
        }
        // Buses hold ≤2 customers each; the last cert covers at most 3 SANs.
        for cert in p.all_issued() {
            assert!(cert.tbs.san().len() <= 3, "{:?}", cert.tbs.san());
        }
        assert_eq!(p.customer_count(), 5);
    }

    #[test]
    fn depart_unknown_domain_is_noop() {
        let mut p = ManagedTlsProvider::new(ProviderConfig::cloudflare_cruise_liner(), comodo(), 1);
        let mut ct = pool();
        let mut dns = DnsHistory::new();
        assert!(!p.depart(
            &dn("ghost.com"),
            d("2020-01-01"),
            DnsView::default(),
            &mut ct,
            &mut dns,
        ));
        assert!(p
            .stale_certs_for(&dn("ghost.com"), d("2020-01-01"))
            .is_empty());
        assert_eq!(p.all_issued().len(), 0);
        assert_eq!(dns.domain_count(), 0);
    }

    #[test]
    fn cruise_liner_amplifies_blast_radius() {
        // §5.3: eight customers enrol a day apart and the first departs
        // 30 days in. Per-domain issuance leaves it one stale certificate;
        // under cruise-liner packing it is on every bus reissue since.
        let stale_after_departure = |config: ProviderConfig| {
            let mut p = ManagedTlsProvider::new(config, comodo(), 1);
            let mut ct = pool();
            let mut dns = DnsHistory::new();
            let start = d("2022-01-01");
            for i in 0..8 {
                let customer = dn(&format!("cust{i}.com"));
                p.enroll(customer, start + Duration::days(i), &mut ct, &mut dns);
            }
            let when = start + Duration::days(30);
            let away = DnsView::with_ns([dn("ns1.away.net")]);
            assert!(p.depart(&dn("cust0.com"), when, away, &mut ct, &mut dns));
            p.stale_certs_for(&dn("cust0.com"), when).len()
        };
        let per_domain = stale_after_departure(ProviderConfig::cloudflare_per_domain());
        let cruise = stale_after_departure(ProviderConfig::cloudflare_cruise_liner());
        assert_eq!(per_domain, 1);
        assert!(cruise > per_domain, "cruise-liner left {cruise}");
    }
}
