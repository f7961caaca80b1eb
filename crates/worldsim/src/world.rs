//! The discrete-event world.
//!
//! A day-granular event loop over the configured window. Each day the
//! world: advances the registries (processing releases), births new
//! domains, fires scheduled events (renewals, domain lifecycle decisions,
//! CDN departures, key compromises, revocations), runs the automated
//! renewal sweeps of the managed-TLS providers, and executes scripted
//! historical events (the CDN's own-CA transition, the web-host breach).
//! At the end it scrapes CRLs on a second thread while it ingests the CT
//! logs into the monitor, and packages everything into [`WorldDatasets`].

use ca::authority::{CertificateAuthority, IssuanceRequest};
use ca::policy::CaPolicy;
use ca::scraper::CrlScraper;
use cdn::provider::{ManagedTlsProvider, ProviderConfig};
use cdn::webhost::WebHost;
use crypto::KeyPair;
use ct::log::LogPool;
use ct::monitor::CtMonitor;
use dns::scan::{DnsHistory, DnsView};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use registry::registry::Registry;
use registry::whois::WhoisDataset;
use stale_types::{AccountId, CaId, Date, DateInterval, DomainName, Duration, SerialNumber};
use std::collections::{BTreeMap, HashMap};
use x509::revocation::RevocationReason;
use x509::Certificate;

use crate::config::ScenarioConfig;
use crate::datasets::{CompromiseEvent, GroundTruth, WorldDatasets};
use crate::distributions::{
    chance, exponential_days, popularity_rank, rate_to_count, weighted_choice,
};
use crate::popularity::{PopularityArchive, RankSample};
use crate::reputation::{DomainReputation, ReputationFeed, MALWARE_FAMILIES, URL_LABELS};

/// Which CA issued a certificate (for routing revocations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CaRef {
    /// Index into the self-managed roster.
    SelfCa(usize),
    /// The CDN's current (or a retired) fronting CA.
    Cdn,
    /// Index into the web-host table.
    Host(usize),
}

/// How a domain's HTTPS is run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Hosting {
    SelfManaged,
    Cdn,
    Host(usize),
}

/// Scheduled events.
#[derive(Debug, Clone)]
enum Event {
    /// Initial HTTPS adoption decision for a pre-seeded domain.
    SetupHttps(DomainName),
    /// Self-managed certificate renewal.
    RenewCert(DomainName),
    /// Registrant decides whether to renew the registration.
    DomainDecision(DomainName),
    /// The registry releases the name; infrastructure is torn down.
    Release(DomainName),
    /// A new owner re-registers the released name.
    Reregister(DomainName),
    /// A CDN customer migrates away.
    CdnDepart(DomainName),
    /// A private key leaks; the CA revokes with keyCompromise.
    Compromise(CaRef, SerialNumber),
    /// A non-compromise revocation (superseded, cessation, ...).
    RevokeOther(CaRef, SerialNumber, RevocationReason),
}

/// Per-domain simulation state.
struct SimDomain {
    owner: AccountId,
    rank: u32,
    alive: bool,
    hosting: Option<Hosting>,
    /// Subscriber keypair for self-managed certificates.
    key: KeyPair,
    /// Primary certified name (apex or a subdomain like `api.<domain>`).
    primary_san: DomainName,
    /// Whether self-managed certs also cover `www.`.
    add_www: bool,
    /// Sticky CA choice for self-managed issuance.
    ca_idx: usize,
    /// Which registry (index) holds the registration.
    registry_idx: usize,
    /// Tenure start of the current owner (for reputation timing).
    owner_since: Date,
}

/// The simulated world.
pub struct World {
    cfg: ScenarioConfig,
    rng: StdRng,
    registries: Vec<Registry>,
    cas: Vec<CertificateAuthority>,
    cdn: ManagedTlsProvider,
    retired_cdn_cas: Vec<CertificateAuthority>,
    hosts: Vec<WebHost>,
    pool: LogPool,
    monitor: CtMonitor,
    dns: DnsHistory,
    domains: HashMap<DomainName, SimDomain>,
    schedule: BTreeMap<Date, Vec<Event>>,
    popularity: PopularityArchive,
    reputation: ReputationFeed,
    ground_truth: GroundTruth,
    next_domain: u64,
    next_account: u64,
    cdn_transitioned: bool,
    breach_fired: bool,
}

impl World {
    /// Build a world from a configuration. Panics on an inconsistent
    /// scenario are a deliberate startup boundary: generation happens
    /// before anything serves or detects, so the daemon fails fast
    /// instead of running on a half-built world.
    // stale-lint: entry(worldgen)
    // stale-lint: trusted(panic-in-shard)
    pub fn new(cfg: ScenarioConfig) -> World {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let epoch = cfg.start - Duration::days(1600);
        let registries = vec![
            Registry::new(dnn("com"), epoch),
            Registry::new(dnn("net"), epoch),
        ];
        let mk_key = |rng: &mut StdRng| KeyPair::generate(rng);
        let cas = vec![
            CertificateAuthority::new(
                CaId(0),
                "Let's Encrypt X3",
                mk_key(&mut rng),
                CaPolicy::automated_90_day(),
            )
            .with_organization("ISRG (Let's Encrypt)"),
            CertificateAuthority::new(
                CaId(1),
                "Sectigo RSA Domain Validation Secure Server CA",
                mk_key(&mut rng),
                CaPolicy::commercial(),
            )
            .with_organization("Sectigo"),
            CertificateAuthority::new(
                CaId(2),
                "DigiCert SHA2 Secure Server CA",
                mk_key(&mut rng),
                CaPolicy::commercial(),
            )
            .with_organization("DigiCert"),
            CertificateAuthority::new(
                CaId(3),
                "Entrust Certification Authority - L1K",
                mk_key(&mut rng),
                CaPolicy::commercial(),
            )
            .with_organization("Entrust"),
            CertificateAuthority::new(
                CaId(4),
                "GoDaddy Secure Certificate Authority - G2",
                mk_key(&mut rng),
                CaPolicy::commercial(),
            )
            .with_organization("GoDaddy"),
        ];
        let comodo = CertificateAuthority::new(
            CaId(10),
            "COMODO ECC DV Secure Server CA 2",
            mk_key(&mut rng),
            CaPolicy {
                default_lifetime: Duration::days(365),
                ..CaPolicy::commercial()
            },
        )
        .with_organization("COMODO (fronting Cloudflare)");
        let cdn =
            ManagedTlsProvider::new(ProviderConfig::cloudflare_cruise_liner(), comodo, rng.gen());
        let hosts = vec![
            WebHost::new(
                "cpanel-shared",
                CertificateAuthority::new(
                    CaId(20),
                    "cPanel, Inc. CA",
                    mk_key(&mut rng),
                    CaPolicy::automated_90_day(),
                )
                .with_organization("cPanel"),
                rng.gen(),
            ),
            // Managed-WordPress-style host: long-lived certificates renewed
            // eagerly every ~90 days, so the certificates in force at any
            // moment are young — which is why the November 2021 breach
            // revocations land within ~90 days of issuance (Figure 8's
            // key-compromise curve).
            WebHost::new(
                "godaddy-managed-wp",
                CertificateAuthority::new(
                    CaId(21),
                    "GoDaddy Secure Certificate Authority - G2",
                    mk_key(&mut rng),
                    CaPolicy {
                        default_lifetime: Duration::days(398),
                        self_imposed_max: None,
                        validation_reuse: true,
                    },
                )
                .with_organization("GoDaddy"),
                rng.gen(),
            )
            .with_renewal_age(90),
        ];
        // Yearly CT shards comfortably covering every possible expiry.
        let start_year = cfg.start.year() - 4;
        let end_year = cfg.end.year() + 4;
        let pool = LogPool::with_yearly_shards("argon", 3, start_year, end_year);
        World {
            cfg,
            rng,
            registries,
            cas,
            cdn,
            retired_cdn_cas: Vec::new(),
            hosts,
            pool,
            monitor: CtMonitor::new(),
            dns: DnsHistory::new(),
            domains: HashMap::new(),
            schedule: BTreeMap::new(),
            popularity: PopularityArchive::new(),
            reputation: ReputationFeed::new(),
            ground_truth: GroundTruth::default(),
            next_domain: 1,
            next_account: 1,
            cdn_transitioned: false,
            breach_fired: false,
        }
    }

    /// Run the simulation and package the datasets. Same deliberate
    /// startup boundary as [`World::new`] for the panic rule.
    // stale-lint: entry(worldgen)
    // stale-lint: trusted(panic-in-shard)
    pub fn run(cfg: ScenarioConfig) -> WorldDatasets {
        let mut world = World::new(cfg);
        world.seed_initial_domains();
        let (start, end) = (world.cfg.start, world.cfg.end);
        let sample_dates: Vec<Date> =
            PopularityArchive::biannual_dates(start.year() + 1, end.year() - 1)
                .into_iter()
                .filter(|d| *d >= start && *d < end)
                .collect();
        let mut sample_iter = sample_dates.into_iter().peekable();
        for date in start.iter_until(end) {
            for r in &mut world.registries {
                r.advance_to(date);
            }
            world.scripted_events(date);
            world.birth_domains(date);
            if let Some(events) = world.schedule.remove(&date) {
                for ev in events {
                    world.handle(ev, date);
                }
            }
            world.cdn.renew_due(date, 21, &mut world.pool);
            for host in &mut world.hosts {
                host.renew_due(date, 14, &mut world.pool);
            }
            if sample_iter.peek() == Some(&date) {
                sample_iter.next();
                world.take_popularity_sample(date);
            }
        }
        world.finish()
    }

    // ------------------------------------------------------------------
    // Setup
    // ------------------------------------------------------------------

    fn seed_initial_domains(&mut self) {
        let start = self.cfg.start;
        let mut offsets: Vec<i64> = (0..self.cfg.initial_domains)
            .map(|_| self.rng.gen_range(1..1500))
            .collect();
        offsets.sort_unstable();
        offsets.reverse(); // oldest first
        for off in offsets {
            let creation = start - Duration::days(off);
            let (name, registry_idx) = self.fresh_domain_name();
            self.registries[registry_idx].advance_to(creation);
            // Pay enough years that the registration is alive at `start`.
            let years = off / 365 + 1;
            let term = Duration::days(365 * years);
            let owner = self.fresh_account();
            if self.registries[registry_idx]
                .register(name.clone(), owner, self.rng.gen_range(0..8), term)
                .is_err()
            {
                continue;
            }
            let expiration = creation + term;
            self.insert_sim_domain(name.clone(), owner, registry_idx, creation);
            self.schedule_at(expiration.max(start), Event::DomainDecision(name.clone()));
            self.schedule_at(start, Event::SetupHttps(name));
        }
    }

    fn fresh_domain_name(&mut self) -> (DomainName, usize) {
        let id = self.next_domain;
        self.next_domain += 1;
        let registry_idx = usize::from(self.rng.gen_bool(0.2));
        let tld = if registry_idx == 0 { "com" } else { "net" };
        (dnn(&format!("d{id}.{tld}")), registry_idx)
    }

    fn fresh_account(&mut self) -> AccountId {
        let id = self.next_account;
        self.next_account += 1;
        AccountId(id)
    }

    fn insert_sim_domain(
        &mut self,
        name: DomainName,
        owner: AccountId,
        registry_idx: usize,
        owner_since: Date,
    ) {
        let rank = popularity_rank(&mut self.rng, self.cfg.max_rank * 2);
        let primary_san = if chance(&mut self.rng, self.cfg.subdomain_cert_prob) {
            let label = ["api", "mail", "shop", "portal"][self.rng.gen_range(0..4)];
            name.prepend(label).expect("valid label")
        } else {
            name.clone()
        };
        let add_www = chance(&mut self.rng, self.cfg.www_san_prob);
        let key = KeyPair::generate(&mut self.rng);
        self.domains.insert(
            name,
            SimDomain {
                owner,
                rank,
                alive: true,
                hosting: None,
                key,
                primary_san,
                add_www,
                ca_idx: 0,
                registry_idx,
                owner_since,
            },
        );
    }

    // ------------------------------------------------------------------
    // Daily steps
    // ------------------------------------------------------------------

    fn scripted_events(&mut self, date: Date) {
        if !self.cdn_transitioned && date >= self.cfg.cdn_own_ca_transition {
            self.cdn_transitioned = true;
            let own_ca = CertificateAuthority::new(
                CaId(11),
                "CloudFlare ECC CA-2",
                KeyPair::generate(&mut self.rng),
                CaPolicy {
                    default_lifetime: Duration::days(365),
                    ..CaPolicy::commercial()
                },
            )
            .with_organization("Cloudflare");
            let retired = self.cdn.switch_ca(own_ca);
            self.retired_cdn_cas.push(retired);
            self.cdn
                .reconfigure(ProviderConfig::cloudflare_per_domain());
        }
        if !self.breach_fired && self.cfg.host_breach.is_some_and(|b| date >= b) {
            self.breach_fired = true;
            let serials = self.hosts[1].breach(date, Some(self.cfg.host_breach_max_age_days));
            let ca_key = self.hosts[1].ca().key_id();
            for serial in &serials {
                self.ground_truth.compromises.push(CompromiseEvent {
                    ca_key,
                    serial: *serial,
                    date,
                });
            }
            self.ground_truth.breach_serials = serials;
            self.ground_truth.breach_date = Some(date);
        }
    }

    fn birth_domains(&mut self, date: Date) {
        let rate = self.cfg.eras.domain_births_per_day.at(date);
        let count = rate_to_count(&mut self.rng, rate);
        for _ in 0..count {
            let (name, registry_idx) = self.fresh_domain_name();
            let owner = self.fresh_account();
            self.registries[registry_idx].advance_to(date);
            if self.registries[registry_idx]
                .register(
                    name.clone(),
                    owner,
                    self.rng.gen_range(0..8),
                    self.cfg.registration_term,
                )
                .is_err()
            {
                continue;
            }
            self.insert_sim_domain(name.clone(), owner, registry_idx, date);
            self.schedule_at(
                date + self.cfg.registration_term,
                Event::DomainDecision(name.clone()),
            );
            self.setup_https(&name, date);
        }
    }

    fn take_popularity_sample(&mut self, date: Date) {
        let max = self.cfg.max_rank;
        let ranks: HashMap<DomainName, u32> = self
            .domains
            .iter()
            .filter(|(_, d)| d.alive && d.rank <= max)
            .map(|(name, d)| (name.clone(), d.rank))
            .collect();
        self.popularity.add_sample(RankSample { date, ranks });
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    fn handle(&mut self, event: Event, date: Date) {
        match event {
            Event::SetupHttps(name) => {
                if self.domains.get(&name).is_some_and(|d| d.alive) {
                    self.setup_https(&name, date);
                }
            }
            Event::RenewCert(name) => self.renew_self_cert(&name, date),
            Event::DomainDecision(name) => self.domain_decision(&name, date),
            Event::Release(name) => self.release_domain(&name, date),
            Event::Reregister(name) => self.reregister(&name, date),
            Event::CdnDepart(name) => self.cdn_depart(&name, date),
            Event::Compromise(ca_ref, serial) => self.compromise(ca_ref, serial, date),
            Event::RevokeOther(ca_ref, serial, reason) => {
                let _ = self.revoke_on(ca_ref, serial, date, reason);
            }
        }
    }

    fn setup_https(&mut self, name: &DomainName, date: Date) {
        if !chance(&mut self.rng, self.cfg.eras.https_adoption.at(date)) {
            // No HTTPS: the domain still resolves somewhere.
            self.set_self_dns(name, date);
            return;
        }
        let cdn_w = self.cfg.eras.cdn_share.at(date);
        let host_w = self.cfg.eras.webhost_share.at(date);
        let self_w = (1.0 - cdn_w - host_w).max(0.0);
        match weighted_choice(&mut self.rng, &[cdn_w, host_w, self_w]) {
            0 => {
                let cert = self
                    .cdn
                    .enroll(name.clone(), date, &mut self.pool, &mut self.dns);
                self.post_issue(&cert, CaRef::Cdn, date);
                if let Some(d) = self.domains.get_mut(name) {
                    d.hosting = Some(Hosting::Cdn);
                }
                if chance(&mut self.rng, self.cfg.cdn_depart_prob) {
                    let delay = exponential_days(&mut self.rng, self.cfg.cdn_depart_mean_days);
                    self.schedule_at(date + delay, Event::CdnDepart(name.clone()));
                }
            }
            1 => {
                let host_idx = usize::from(chance(&mut self.rng, 0.4));
                let cert =
                    self.hosts[host_idx].host(name.clone(), date, &mut self.pool, &mut self.dns);
                self.post_issue(&cert, CaRef::Host(host_idx), date);
                if let Some(d) = self.domains.get_mut(name) {
                    d.hosting = Some(Hosting::Host(host_idx));
                }
            }
            _ => {
                self.set_self_dns(name, date);
                let ca_idx = self.pick_self_ca(date);
                if let Some(d) = self.domains.get_mut(name) {
                    d.hosting = Some(Hosting::SelfManaged);
                    d.ca_idx = ca_idx;
                }
                self.issue_self(name, date);
            }
        }
    }

    fn set_self_dns(&mut self, name: &DomainName, date: Date) {
        let k = self.rng.gen_range(0..24);
        let view = DnsView::with_ns([
            dnn(&format!("ns1.hostpool{k}.net")),
            dnn(&format!("ns2.hostpool{k}.net")),
        ]);
        self.dns.record_change(name.clone(), date, view);
    }

    fn pick_self_ca(&mut self, date: Date) -> usize {
        if date >= self.cfg.le_launch && chance(&mut self.rng, self.cfg.eras.le_share.at(date)) {
            0
        } else {
            // Commercial roster, weighted towards the big issuers.
            [1, 2, 1, 3, 4, 2][self.rng.gen_range(0..6)]
        }
    }

    fn issue_self(&mut self, name: &DomainName, date: Date) {
        let Some(d) = self.domains.get(name) else {
            return;
        };
        let mut sans = vec![d.primary_san.clone()];
        if d.add_www && d.primary_san == *name {
            sans.push(name.prepend("www").expect("valid label"));
        }
        let request = IssuanceRequest {
            domains: sans,
            public_key: d.key.public(),
            requested_lifetime: None,
        };
        let ca_idx = d.ca_idx;
        let Ok(cert) = self.cas[ca_idx].issue(&request, date, &mut self.pool) else {
            return;
        };
        self.post_issue(&cert, CaRef::SelfCa(ca_idx), date);
        // Schedule the next renewal a little before expiry.
        let jitter = Duration::days(self.rng.gen_range(3..15));
        self.schedule_at(
            cert.tbs.not_after() - jitter,
            Event::RenewCert(name.clone()),
        );
        // Nothing reads the certificate after this, so it moves into the
        // corpus. The monitor draws no randomness, so ingesting last
        // leaves the RNG's draw order as it was.
        self.monitor.ingest(cert, date);
    }

    fn renew_self_cert(&mut self, name: &DomainName, date: Date) {
        let Some(d) = self.domains.get(name) else {
            return;
        };
        if !d.alive || d.hosting != Some(Hosting::SelfManaged) {
            return;
        }
        let registry_idx = d.registry_idx;
        let ca_idx = d.ca_idx;
        let state = self.registries[registry_idx].state(name);
        use registry::lifecycle::DomainState::*;
        let automated = self.cas[ca_idx].policy().self_imposed_max.is_some();
        let renews = match state {
            Active => true,
            // §7.1: unattended automation keeps issuing while the domain
            // coasts through grace/redemption; manual subscribers stop.
            ExpiredGrace | Redemption => automated,
            PendingDelete | Released => false,
        };
        if renews {
            // Some subscribers rotate keys at renewal (first-party
            // staleness; Table 2's "key disuse").
            if chance(&mut self.rng, 0.15) {
                let new_key = KeyPair::generate(&mut self.rng);
                if let Some(d) = self.domains.get_mut(name) {
                    d.key = new_key;
                }
            }
            self.issue_self(name, date);
        }
    }

    fn domain_decision(&mut self, name: &DomainName, date: Date) {
        let Some(d) = self.domains.get(name) else {
            return;
        };
        if !d.alive {
            return;
        }
        let registry_idx = d.registry_idx;
        if chance(&mut self.rng, self.cfg.domain_renewal_prob) {
            self.registries[registry_idx].advance_to(date);
            if self.registries[registry_idx]
                .renew(name, self.cfg.registration_term)
                .is_ok()
            {
                // Occasional invisible ownership transfer (§4.4 blind
                // spot): same registration, new hands.
                if chance(&mut self.rng, 0.02) {
                    let new_owner = self.fresh_account();
                    if self.registries[registry_idx]
                        .transfer(name, new_owner)
                        .is_ok()
                    {
                        self.ground_truth
                            .invisible_transfers
                            .push((name.clone(), date));
                        if let Some(d) = self.domains.get_mut(name) {
                            d.owner = new_owner;
                            d.owner_since = date;
                        }
                    }
                }
                self.schedule_at(
                    date + self.cfg.registration_term,
                    Event::DomainDecision(name.clone()),
                );
                return;
            }
        }
        // Lapse: grace(45) + redemption(30) + pending delete(5) = 80 days.
        let release = date + Duration::days(80);
        self.schedule_at(release, Event::Release(name.clone()));
        if chance(&mut self.rng, self.cfg.rereg_prob) {
            let delay = Duration::days(self.rng.gen_range(1..=self.cfg.rereg_delay_max_days));
            self.schedule_at(release + delay, Event::Reregister(name.clone()));
        }
    }

    fn release_domain(&mut self, name: &DomainName, date: Date) {
        let Some(d) = self.domains.get_mut(name) else {
            return;
        };
        if !d.alive {
            return;
        }
        d.alive = false;
        d.hosting = None;
        self.cdn.force_remove(name);
        for host in &mut self.hosts {
            host.force_remove(name);
        }
        // The zone goes dark.
        self.dns
            .record_change(name.clone(), date, DnsView::default());
    }

    fn reregister(&mut self, name: &DomainName, date: Date) {
        let Some(d) = self.domains.get(name) else {
            return;
        };
        if d.alive {
            return; // somehow resurrected already
        }
        let registry_idx = d.registry_idx;
        let prior_owner_since = d.owner_since;
        self.registries[registry_idx].advance_to(date);
        let new_owner = self.fresh_account();
        if self.registries[registry_idx]
            .register(
                name.clone(),
                new_owner,
                self.rng.gen_range(0..8),
                self.cfg.registration_term,
            )
            .is_err()
        {
            return;
        }
        self.ground_truth
            .registrant_changes
            .push((name.clone(), date));
        // Was the prior owner malicious? (Table 5's ≈1%.)
        if chance(&mut self.rng, self.cfg.malicious_prior_owner_prob) {
            self.insert_reputation(name, prior_owner_since, date);
        }
        if let Some(d) = self.domains.get_mut(name) {
            d.alive = true;
            d.owner = new_owner;
            d.owner_since = date;
            d.key = KeyPair::generate(&mut self.rng);
        }
        self.schedule_at(
            date + self.cfg.registration_term,
            Event::DomainDecision(name.clone()),
        );
        self.setup_https(name, date);
    }

    fn insert_reputation(&mut self, name: &DomainName, owner_since: Date, change: Date) {
        let tenancy_days = (change - owner_since).num_days().max(30);
        let back = self.rng.gen_range(0..tenancy_days);
        let first_submission = change - Duration::days(back);
        // Mirror Table 5's mix: most malicious domains have URL verdicts,
        // a third have malware-file associations, some have both.
        let has_urls = chance(&mut self.rng, 0.68);
        let has_malware = !has_urls || chance(&mut self.rng, 0.035);
        let mut malware_families = Vec::new();
        if has_malware {
            let fam = if chance(&mut self.rng, 0.13) {
                "Unknown".to_string()
            } else {
                MALWARE_FAMILIES[self.rng.gen_range(0..MALWARE_FAMILIES.len())].to_string()
            };
            malware_families.push(fam);
        }
        let mut url_labels = Vec::new();
        if has_urls {
            url_labels.push(URL_LABELS[self.rng.gen_range(0..URL_LABELS.len())].to_string());
        }
        let vendor_count = self.rng.gen_range(5..40);
        self.reputation.insert(
            name.clone(),
            DomainReputation {
                malware_families,
                url_labels,
                first_submission,
                vendor_count,
            },
        );
    }

    fn cdn_depart(&mut self, name: &DomainName, date: Date) {
        if !self.cdn.is_customer(name) {
            return;
        }
        let Some(d) = self.domains.get(name) else {
            return;
        };
        if !d.alive {
            return;
        }
        // Destination: mostly self-hosting, sometimes a web host.
        if chance(&mut self.rng, 0.75) {
            let k = self.rng.gen_range(0..24);
            let view = DnsView::with_ns([
                dnn(&format!("ns1.hostpool{k}.net")),
                dnn(&format!("ns2.hostpool{k}.net")),
            ]);
            self.cdn
                .depart(name, date, view, &mut self.pool, &mut self.dns);
            let ca_idx = self.pick_self_ca(date);
            if let Some(d) = self.domains.get_mut(name) {
                d.hosting = Some(Hosting::SelfManaged);
                d.ca_idx = ca_idx;
            }
            self.issue_self(name, date);
        } else {
            let host_idx = usize::from(chance(&mut self.rng, 0.4));
            // Departure first (records DNS change to a placeholder), then
            // the host points DNS at its own edge.
            let view = self.hosts[host_idx].hosted_view();
            self.cdn
                .depart(name, date, view, &mut self.pool, &mut self.dns);
            let cert = self.hosts[host_idx].host(name.clone(), date, &mut self.pool, &mut self.dns);
            self.post_issue(&cert, CaRef::Host(host_idx), date);
            if let Some(d) = self.domains.get_mut(name) {
                d.hosting = Some(Hosting::Host(host_idx));
            }
        }
        self.ground_truth.cdn_departures.push((name.clone(), date));
    }

    fn post_issue(&mut self, cert: &Certificate, ca_ref: CaRef, date: Date) {
        let automated = match ca_ref {
            CaRef::SelfCa(i) => self.cas[i].policy().self_imposed_max.is_some(),
            CaRef::Cdn => false,
            CaRef::Host(i) => self.hosts[i].ca().policy().self_imposed_max.is_some(),
        };
        let kc_prob = if automated {
            if date >= self.cfg.le_kc_reporting_start {
                self.cfg.kc_prob_automated
            } else {
                0.0
            }
        } else {
            self.cfg.kc_prob_commercial
        };
        if chance(&mut self.rng, kc_prob) {
            let delay = exponential_days(&mut self.rng, self.cfg.kc_delay_mean_days);
            let when = date + delay;
            // Key compromise reports past expiry are vanishingly rare;
            // cap at shortly after notAfter to model the paper's 0.037%
            // revoked-after-expiration outliers.
            if when < cert.tbs.not_after() + Duration::days(20) {
                self.schedule_at(when, Event::Compromise(ca_ref, cert.tbs.serial));
            }
        } else if chance(&mut self.rng, self.cfg.other_revocation_prob) {
            let lifetime = cert.tbs.lifetime().num_days();
            let offset = self.rng.gen_range(1..lifetime + 10);
            let reason = match self.rng.gen_range(0..10) {
                0..=3 => RevocationReason::Superseded,
                4..=6 => RevocationReason::CessationOfOperation,
                7..=8 => RevocationReason::Unspecified,
                _ => RevocationReason::AffiliationChanged,
            };
            self.schedule_at(
                date + Duration::days(offset),
                Event::RevokeOther(ca_ref, cert.tbs.serial, reason),
            );
        }
    }

    fn compromise(&mut self, ca_ref: CaRef, serial: SerialNumber, date: Date) {
        if self.revoke_on(ca_ref, serial, date, RevocationReason::KeyCompromise) {
            let ca_key = match ca_ref {
                CaRef::SelfCa(i) => self.cas[i].key_id(),
                CaRef::Cdn => self.cdn.ca().key_id(),
                CaRef::Host(i) => self.hosts[i].ca().key_id(),
            };
            self.ground_truth.compromises.push(CompromiseEvent {
                ca_key,
                serial,
                date,
            });
        }
    }

    /// Revoke on the referenced CA; for the CDN, falls back to retired
    /// fronting CAs (certificates issued before a CA switch).
    fn revoke_on(
        &mut self,
        ca_ref: CaRef,
        serial: SerialNumber,
        date: Date,
        reason: RevocationReason,
    ) -> bool {
        match ca_ref {
            CaRef::SelfCa(i) => self.cas[i].revoke(serial, date, reason).is_ok(),
            CaRef::Host(i) => self.hosts[i].ca_mut().revoke(serial, date, reason).is_ok(),
            CaRef::Cdn => {
                if self.cdn.ca_mut().revoke(serial, date, reason).is_ok() {
                    return true;
                }
                self.retired_cdn_cas
                    .iter_mut()
                    .any(|ca| ca.revoke(serial, date, reason).is_ok())
            }
        }
    }

    fn schedule_at(&mut self, date: Date, event: Event) {
        if date < self.cfg.end {
            self.schedule.entry(date).or_default().push(event);
        }
    }

    // ------------------------------------------------------------------
    // Finalisation
    // ------------------------------------------------------------------

    fn finish(mut self) -> WorldDatasets {
        let ct_raw_entries = self.pool.total_entries() as usize;
        let ct_log_count = self.pool.logs().len();
        // WHOIS feed from the registries' event logs.
        let mut whois = WhoisDataset::new();
        for r in &self.registries {
            whois.ingest_registry(r);
        }
        // Daily CRL scrape over the collection window.
        let mut scraper = CrlScraper::new(self.cfg.seed ^ 0xC21)
            .with_default_failure(self.cfg.crl_failure_default)
            // A couple of CAs actively block scraping (Table 7's 0% rows).
            .with_failure_rate("Entrust Certification Authority - L1K", 0.016)
            .with_failure_rate("DigiCert SHA2 Secure Server CA", 0.013)
            .with_failure_rate("Sectigo RSA Domain Validation Secure Server CA", 0.004)
            .with_failure_rate("cPanel, Inc. CA", 0.0)
            .with_failure_rate("Let's Encrypt X3", 0.0)
            .with_failure_rate("COMODO ECC DV Secure Server CA 2", 0.10)
            .with_failure_rate("CloudFlare ECC CA-2", 0.02);
        // The providers hand their certificate lists over before the
        // scrape borrows their CAs.
        let provider_issued: Vec<Vec<Certificate>> = std::iter::once(self.cdn.take_issued())
            .chain(self.hosts.iter_mut().map(WebHost::take_issued))
            .collect();
        let cas: Vec<&CertificateAuthority> = self
            .cas
            .iter()
            .chain(std::iter::once(self.cdn.ca()))
            .chain(self.retired_cdn_cas.iter())
            .chain(self.hosts.iter().map(|h| h.ca()))
            .collect();
        // The scrape reads only the CAs and its own seeded RNG, so it runs
        // on a second thread while this one builds the corpus: every log
        // entry (precertificates) and every final certificate the
        // providers hold move into the monitor, exercising dedup. Neither
        // side copies a certificate, and the corpus does not depend on
        // the order it is fed in.
        let (crl, crl_stats) = std::thread::scope(|s| {
            let scrape = s.spawn(|| scraper.scrape(&cas, self.cfg.crl_window));
            self.monitor.ingest_pool(self.pool);
            for cert in provider_issued.into_iter().flatten() {
                let seen = cert.tbs.not_before();
                self.monitor.ingest(cert, seen);
            }
            // A panic in the scrape re-raises here with its own payload.
            scrape
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        });
        WorldDatasets {
            monitor: self.monitor,
            crl,
            crl_stats,
            whois,
            adns: self.dns,
            popularity: self.popularity,
            reputation: self.reputation,
            ground_truth: self.ground_truth,
            cdn_config: self.cdn.config.clone(),
            sim_window: DateInterval::new(self.cfg.start, self.cfg.end).expect("valid window"),
            adns_window: self.cfg.adns_window,
            crl_window: self.cfg.crl_window,
            ct_raw_entries,
            ct_log_count,
        }
    }
}

/// Parse a known-good domain literal.
fn dnn(s: &str) -> DomainName {
    DomainName::parse(s).expect("valid domain literal")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScenarioConfig;

    #[test]
    fn tiny_world_runs_and_produces_all_datasets() {
        let data = World::run(ScenarioConfig::tiny());
        assert!(
            data.monitor.dedup_count() > 100,
            "certs: {}",
            data.monitor.dedup_count()
        );
        assert!(data.ct_raw_entries >= data.monitor.dedup_count());
        assert!(data.whois.domain_count() > 100);
        assert!(data.adns.domain_count() > 100);
        assert!(!data.crl.is_empty(), "some revocations must be collected");
        assert!(data.crl_stats.total_coverage() > 0.9);
    }

    #[test]
    fn tiny_world_is_deterministic() {
        // The whole world-fact log byte for byte, and the scrape's
        // coverage: the CRL scrape runs on a second thread, and nothing
        // may depend on how the two threads are scheduled.
        let run = || {
            let data = World::run(ScenarioConfig::tiny());
            let log = crate::WorldLog::from_datasets(&data).to_jsonl();
            (log, data.crl_stats.per_ca)
        };
        let (a, b) = (run(), run());
        assert!(a == b, "two tiny runs produced different worlds");
    }

    #[test]
    fn ground_truth_events_occur() {
        let data = World::run(ScenarioConfig::tiny());
        let gt = &data.ground_truth;
        assert!(!gt.registrant_changes.is_empty(), "some re-registrations");
        assert!(!gt.cdn_departures.is_empty(), "some departures");
        assert!(!gt.compromises.is_empty(), "some compromises");
        assert_eq!(gt.breach_date, Some(Date::parse("2021-11-17").unwrap()));
        assert!(!gt.breach_serials.is_empty(), "breach revoked something");
    }

    #[test]
    fn whois_changes_match_ground_truth() {
        let data = World::run(ScenarioConfig::tiny());
        let detected: Vec<(DomainName, Date)> = data
            .whois
            .registrant_changes()
            .map(|(d, t)| (d.clone(), t))
            .collect();
        // Every simulated re-registration appears in the WHOIS feed.
        for change in &data.ground_truth.registrant_changes {
            assert!(detected.contains(change), "missing {change:?}");
        }
        // And the WHOIS feed contains nothing else.
        assert_eq!(detected.len(), data.ground_truth.registrant_changes.len());
    }

    #[test]
    fn cdn_departures_visible_in_dns() {
        let data = World::run(ScenarioConfig::tiny());
        let cfg = &data.cdn_config;
        let mut checked = 0;
        for (domain, date) in &data.ground_truth.cdn_departures {
            let before = data.adns.view_at(domain, date.pred());
            let after = data.adns.view_at(domain, *date);
            if let (Some(before), Some(after)) = (before, after) {
                assert!(
                    before.any_delegation(|n| cfg.is_delegation_target(n)),
                    "{domain} should be on the CDN the day before departure"
                );
                assert!(
                    !after.any_delegation(|n| cfg.is_delegation_target(n)),
                    "{domain} should be off the CDN on departure day"
                );
                checked += 1;
            }
        }
        assert!(checked > 0, "at least some departures verified");
    }

    #[test]
    fn compromises_appear_in_crl_feed() {
        let data = World::run(ScenarioConfig::tiny());
        use x509::revocation::RevocationReason;
        let kc: Vec<_> = data
            .crl
            .with_reason(RevocationReason::KeyCompromise)
            .collect();
        assert!(!kc.is_empty(), "key compromise revocations collected");
        // The breach serials are among them.
        let breach_found = data
            .ground_truth
            .breach_serials
            .iter()
            .filter(|s| kc.iter().any(|r| r.serial == **s))
            .count();
        assert!(breach_found > 0, "breach revocations visible in CRLs");
    }

    #[test]
    fn popularity_samples_taken() {
        let data = World::run(ScenarioConfig::tiny());
        assert!(
            data.popularity.sample_count() >= 2,
            "{}",
            data.popularity.sample_count()
        );
    }

    #[test]
    fn summary_has_four_dataset_rows() {
        let data = World::run(ScenarioConfig::tiny());
        let summary = data.summary();
        assert_eq!(summary.rows.len(), 4);
        assert_eq!(summary.rows[0].0, "CT");
        assert_eq!(summary.rows[3].0, "aDNS");
    }
}

#[cfg(test)]
mod history_tests {
    use super::*;
    use crate::config::ScenarioConfig;

    fn tiny_data() -> WorldDatasets {
        World::run(ScenarioConfig::tiny())
    }

    #[test]
    fn cdn_transition_changes_issuer_mix() {
        // tiny preset starts 2021, after the 2019 transition, so all
        // managed certs come from the CDN's own CA; run a window that
        // spans the transition to see both.
        let mut cfg = ScenarioConfig::tiny();
        cfg.start = Date::parse("2018-06-01").unwrap();
        cfg.end = Date::parse("2020-06-01").unwrap();
        let data = World::run(cfg);
        let mut comodo = 0;
        let mut cloudflare = 0;
        for cert in data.monitor.corpus_unfiltered() {
            let issuer = &cert.certificate.tbs.issuer.common_name;
            let managed = cert
                .certificate
                .tbs
                .san()
                .iter()
                .any(|s| s.as_str().ends_with("cloudflaressl.com"));
            if !managed {
                continue;
            }
            if issuer.contains("COMODO") {
                comodo += 1;
                assert!(
                    cert.certificate.tbs.not_before() < Date::parse("2019-06-01").unwrap(),
                    "COMODO cruise-liners end at the transition"
                );
            } else if issuer.contains("CloudFlare") {
                cloudflare += 1;
            }
        }
        assert!(comodo > 0, "cruise-liner era certs exist");
        assert!(cloudflare > 0, "own-CA certs exist after transition");
    }

    #[test]
    fn le_dominates_late_era_self_managed_issuance() {
        let data = tiny_data();
        let mut le = 0usize;
        let mut commercial = 0usize;
        for cert in data.monitor.corpus_unfiltered() {
            let tbs = &cert.certificate.tbs;
            let managed = tbs
                .san()
                .iter()
                .any(|s| s.as_str().ends_with("cloudflaressl.com"));
            let hosted = tbs.issuer.common_name.contains("cPanel")
                || tbs.issuer.organization.as_deref() == Some("GoDaddy");
            if managed || hosted {
                continue;
            }
            if tbs.issuer.common_name.contains("Let's Encrypt") {
                le += 1;
            } else {
                commercial += 1;
            }
        }
        assert!(le > commercial, "LE share in 2021+ is {le} vs {commercial}");
    }

    #[test]
    fn lifetimes_obey_era_policy() {
        let data = tiny_data();
        for cert in data.monitor.corpus_unfiltered() {
            let tbs = &cert.certificate.tbs;
            let max = ca::policy::baseline_max_lifetime(tbs.not_before());
            assert!(
                tbs.lifetime() <= max,
                "{} issued {} for {} days (max {})",
                tbs.issuer.common_name,
                tbs.not_before(),
                tbs.lifetime().num_days(),
                max.num_days()
            );
        }
    }

    #[test]
    fn adns_has_data_through_scan_window() {
        let data = tiny_data();
        let start_records = data.adns.record_count_at(data.adns_window.start);
        let end_records = data.adns.record_count_at(data.adns_window.end.pred());
        assert!(start_records > 100, "{start_records}");
        assert!(end_records > 100, "{end_records}");
    }

    #[test]
    fn crl_scrape_total_coverage_near_98_pct() {
        let data = tiny_data();
        let cov = data.crl_stats.total_coverage();
        assert!((0.93..=1.0).contains(&cov), "coverage {cov}");
    }

    #[test]
    fn world_without_breach_has_no_breach_serials() {
        let mut cfg = ScenarioConfig::tiny();
        cfg.host_breach = None;
        let data = World::run(cfg);
        assert!(data.ground_truth.breach_serials.is_empty());
        assert_eq!(data.ground_truth.breach_date, None);
    }
}
