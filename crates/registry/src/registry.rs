//! A TLD registry: registrations, transfers, expiration processing and
//! re-registration.

use crate::lifecycle::{DomainState, LifecyclePolicy, Registration};
use serde::{Deserialize, Serialize};
use stale_types::{AccountId, Date, DomainName, Duration};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashSet};
use std::fmt;

/// Observable registry events, emitted in order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RegistryEvent {
    /// First or repeat registration (repeat ⇒ fresh creation date).
    Registered {
        /// The domain.
        domain: DomainName,
        /// New owner.
        registrant: AccountId,
        /// The registry creation date stamped on the record.
        creation_date: Date,
        /// Whether a previous registration existed for this name.
        re_registration: bool,
    },
    /// Renewal by the current registrant.
    Renewed {
        /// The domain.
        domain: DomainName,
        /// New paid-through date.
        new_expiration: Date,
    },
    /// Transfer to another registrant without deletion — **not** visible
    /// in the creation date (the §4.4 detector blind spot).
    Transferred {
        /// The domain.
        domain: DomainName,
        /// Previous owner.
        from: AccountId,
        /// New owner.
        to: AccountId,
        /// Day of transfer.
        date: Date,
    },
    /// The registry released the name after pending delete.
    Released {
        /// The domain.
        domain: DomainName,
        /// Day of release.
        date: Date,
    },
}

/// Registry operation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// The name is not available for registration.
    NotAvailable(DomainState),
    /// The name has no live registration to operate on.
    NoSuchRegistration,
    /// The operation is not permitted in the current state.
    WrongState(DomainState),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::NotAvailable(s) => write!(f, "domain not available (state {s:?})"),
            RegistryError::NoSuchRegistration => write!(f, "no such registration"),
            RegistryError::WrongState(s) => write!(f, "operation invalid in state {s:?}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// A registry for one TLD (e.g. Verisign for `.com`/`.net`).
#[derive(Debug, Clone)]
pub struct Registry {
    /// The TLD this registry operates.
    pub tld: DomainName,
    policy: LifecyclePolicy,
    /// Live registrations (anything not yet released).
    registrations: BTreeMap<DomainName, Registration>,
    /// Ordered event log.
    events: Vec<RegistryEvent>,
    /// Every name the registry has ever released, so a registration can
    /// tell a re-registration without scanning the event log.
    released: HashSet<DomainName>,
    /// Day the registry has processed up to.
    clock: Date,
    /// Candidate release dates, lazily validated on pop. Renewals leave
    /// stale entries behind; `advance_to` re-checks against the live
    /// registration, so `advance_to` is amortised `O(log n)` per
    /// lifecycle event instead of `O(live domains)` per day.
    release_queue: BinaryHeap<Reverse<(Date, DomainName)>>,
}

impl Registry {
    /// A registry for `tld` starting at `epoch`.
    pub fn new(tld: DomainName, epoch: Date) -> Self {
        Registry {
            tld,
            policy: LifecyclePolicy::default(),
            registrations: BTreeMap::new(),
            events: Vec::new(),
            released: HashSet::new(),
            clock: epoch,
            release_queue: BinaryHeap::new(),
        }
    }

    /// Override the lifecycle policy.
    pub fn with_policy(mut self, policy: LifecyclePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The lifecycle policy in force.
    pub fn policy(&self) -> &LifecyclePolicy {
        &self.policy
    }

    /// Current processed-up-to day.
    pub fn clock(&self) -> Date {
        self.clock
    }

    /// Advance the registry clock, releasing names whose pending-delete
    /// has elapsed.
    pub fn advance_to(&mut self, date: Date) {
        assert!(date >= self.clock, "registry clock cannot go backwards");
        while let Some(Reverse((due, _))) = self.release_queue.peek() {
            if *due > date {
                break;
            }
            let Reverse((_, domain)) = self.release_queue.pop().expect("peeked");
            let Some(reg) = self.registrations.get(&domain) else {
                continue; // already released or re-registered since queued
            };
            let actual = reg.release_date(&self.policy);
            if actual <= date {
                self.registrations.remove(&domain);
                self.released.insert(domain.clone());
                self.events.push(RegistryEvent::Released {
                    domain,
                    date: actual,
                });
            } else {
                // Renewed since the entry was queued; requeue at the new
                // release date (strictly later, so the loop terminates).
                self.release_queue.push(Reverse((actual, domain)));
            }
        }
        self.clock = date;
    }

    /// Whether `domain` can be registered right now.
    pub fn available(&self, domain: &DomainName) -> bool {
        !self.registrations.contains_key(domain)
    }

    /// Register `domain` to `registrant` for `term` at the current clock.
    pub fn register(
        &mut self,
        domain: DomainName,
        registrant: AccountId,
        registrar: u32,
        term: Duration,
    ) -> Result<&Registration, RegistryError> {
        debug_assert!(
            domain.is_subdomain_of(&self.tld) && domain != self.tld,
            "domain must be under the registry TLD"
        );
        if let Some(existing) = self.registrations.get(&domain) {
            return Err(RegistryError::NotAvailable(
                existing.state_at(self.clock, &self.policy),
            ));
        }
        let re_registration = self.released.contains(&domain);
        let reg = Registration {
            domain: domain.clone(),
            registrant,
            registrar,
            creation_date: self.clock,
            expiration_date: self.clock + term,
            updated_date: self.clock,
        };
        self.events.push(RegistryEvent::Registered {
            domain: domain.clone(),
            registrant,
            creation_date: self.clock,
            re_registration,
        });
        self.release_queue
            .push(Reverse((reg.release_date(&self.policy), domain.clone())));
        Ok(self.registrations.entry(domain).or_insert(reg))
    }

    /// Renew `domain` by `term` (allowed through redemption).
    pub fn renew(&mut self, domain: &DomainName, term: Duration) -> Result<Date, RegistryError> {
        let clock = self.clock;
        let policy = self.policy;
        let reg = self
            .registrations
            .get_mut(domain)
            .ok_or(RegistryError::NoSuchRegistration)?;
        if !reg.renewable_at(clock, &policy) {
            return Err(RegistryError::WrongState(reg.state_at(clock, &policy)));
        }
        // Renewal extends from the old expiration (standard behaviour),
        // or from today if the domain had lapsed into grace/redemption.
        let base = reg.expiration_date.max(clock);
        reg.expiration_date = base + term;
        reg.updated_date = clock;
        let new_expiration = reg.expiration_date;
        let release = reg.release_date(&policy);
        self.events.push(RegistryEvent::Renewed {
            domain: domain.clone(),
            new_expiration,
        });
        self.release_queue.push(Reverse((release, domain.clone())));
        Ok(new_expiration)
    }

    /// Transfer `domain` to `new_registrant` without deletion. The
    /// creation date is untouched, so this ownership change is invisible
    /// to creation-date-based detection.
    pub fn transfer(
        &mut self,
        domain: &DomainName,
        new_registrant: AccountId,
    ) -> Result<(), RegistryError> {
        let clock = self.clock;
        let policy = self.policy;
        let reg = self
            .registrations
            .get_mut(domain)
            .ok_or(RegistryError::NoSuchRegistration)?;
        if reg.state_at(clock, &policy) != DomainState::Active {
            return Err(RegistryError::WrongState(reg.state_at(clock, &policy)));
        }
        let from = reg.registrant;
        reg.registrant = new_registrant;
        reg.updated_date = clock;
        self.events.push(RegistryEvent::Transferred {
            domain: domain.clone(),
            from,
            to: new_registrant,
            date: clock,
        });
        Ok(())
    }

    /// The live registration for `domain`, if any.
    pub fn registration(&self, domain: &DomainName) -> Option<&Registration> {
        self.registrations.get(domain)
    }

    /// State of `domain` at the current clock.
    pub fn state(&self, domain: &DomainName) -> DomainState {
        match self.registrations.get(domain) {
            Some(reg) => reg.state_at(self.clock, &self.policy),
            None => DomainState::Released,
        }
    }

    /// The ordered event log.
    pub fn events(&self) -> &[RegistryEvent] {
        &self.events
    }

    /// Live registration count.
    pub fn live_count(&self) -> usize {
        self.registrations.len()
    }

    /// Iterate live registrations.
    pub fn iter(&self) -> impl Iterator<Item = &Registration> {
        self.registrations.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stale_types::domain::dn;

    fn d(s: &str) -> Date {
        Date::parse(s).unwrap()
    }

    fn registry() -> Registry {
        Registry::new(dn("com"), d("2020-01-01"))
    }

    #[test]
    fn register_and_lookup() {
        let mut r = registry();
        r.register(dn("foo.com"), AccountId(1), 0, Duration::days(365))
            .unwrap();
        let reg = r.registration(&dn("foo.com")).unwrap();
        assert_eq!(reg.creation_date, d("2020-01-01"));
        assert_eq!(reg.expiration_date, d("2020-12-31"));
        assert_eq!(r.state(&dn("foo.com")), DomainState::Active);
        assert!(!r.available(&dn("foo.com")));
    }

    #[test]
    fn double_registration_rejected() {
        let mut r = registry();
        r.register(dn("foo.com"), AccountId(1), 0, Duration::days(365))
            .unwrap();
        assert!(matches!(
            r.register(dn("foo.com"), AccountId(2), 0, Duration::days(365)),
            Err(RegistryError::NotAvailable(DomainState::Active))
        ));
    }

    #[test]
    fn expiration_release_and_reregistration() {
        let mut r = registry();
        r.register(dn("foo.com"), AccountId(1), 0, Duration::days(365))
            .unwrap();
        // Not renewed; advance past release (365 + 80 days).
        r.advance_to(d("2021-03-25"));
        assert_eq!(r.state(&dn("foo.com")), DomainState::Released);
        assert!(r.available(&dn("foo.com")));
        assert!(r.events().iter().any(
            |e| matches!(e, RegistryEvent::Released { domain, .. } if *domain == dn("foo.com"))
        ));
        // Drop-catch by a new registrant: fresh creation date.
        r.register(dn("foo.com"), AccountId(99), 1, Duration::days(365))
            .unwrap();
        let reg = r.registration(&dn("foo.com")).unwrap();
        assert_eq!(reg.creation_date, d("2021-03-25"));
        assert_eq!(reg.registrant, AccountId(99));
        let re_reg = r.events().iter().any(|e| {
            matches!(e, RegistryEvent::Registered { re_registration: true, registrant, .. }
                if *registrant == AccountId(99))
        });
        assert!(re_reg, "re-registration flagged");
    }

    #[test]
    fn every_re_registration_is_flagged_and_a_fresh_name_never_is() {
        let mut r = registry();
        r.register(dn("foo.com"), AccountId(1), 0, Duration::days(365))
            .unwrap();
        // Lapse and release (365 + 80 days), re-register, lapse again.
        r.advance_to(d("2021-03-25"));
        r.register(dn("foo.com"), AccountId(2), 0, Duration::days(365))
            .unwrap();
        r.register(dn("bar.com"), AccountId(3), 0, Duration::days(365))
            .unwrap();
        r.advance_to(d("2022-06-20"));
        r.register(dn("foo.com"), AccountId(4), 0, Duration::days(365))
            .unwrap();
        r.register(dn("baz.com"), AccountId(5), 0, Duration::days(365))
            .unwrap();
        let flags: Vec<(AccountId, bool)> = r
            .events()
            .iter()
            .filter_map(|e| match e {
                RegistryEvent::Registered {
                    registrant,
                    re_registration,
                    ..
                } => Some((*registrant, *re_registration)),
                _ => None,
            })
            .collect();
        assert_eq!(
            flags,
            vec![
                (AccountId(1), false),
                (AccountId(2), true),
                (AccountId(3), false),
                (AccountId(4), true),
                (AccountId(5), false),
            ]
        );
    }

    #[test]
    fn renewal_keeps_creation_date() {
        let mut r = registry();
        r.register(dn("foo.com"), AccountId(1), 0, Duration::days(365))
            .unwrap();
        r.advance_to(d("2020-12-01"));
        let new_exp = r.renew(&dn("foo.com"), Duration::days(365)).unwrap();
        assert_eq!(new_exp, d("2021-12-31"));
        assert_eq!(
            r.registration(&dn("foo.com")).unwrap().creation_date,
            d("2020-01-01")
        );
    }

    #[test]
    fn late_renewal_in_grace() {
        let mut r = registry();
        r.register(dn("foo.com"), AccountId(1), 0, Duration::days(365))
            .unwrap();
        r.advance_to(d("2021-01-20")); // in grace
        assert_eq!(r.state(&dn("foo.com")), DomainState::ExpiredGrace);
        let new_exp = r.renew(&dn("foo.com"), Duration::days(365)).unwrap();
        assert_eq!(new_exp, d("2022-01-20"));
        assert_eq!(r.state(&dn("foo.com")), DomainState::Active);
    }

    #[test]
    fn renewal_after_pending_delete_rejected() {
        let mut r = registry();
        r.register(dn("foo.com"), AccountId(1), 0, Duration::days(365))
            .unwrap();
        r.advance_to(d("2021-03-20")); // day 444: pending delete (380..385)
                                       // foo.com expired 2020-12-31; +45+30 = 2021-03-16 redemption ends.
        assert!(matches!(
            r.renew(&dn("foo.com"), Duration::days(365)),
            Err(RegistryError::WrongState(DomainState::PendingDelete))
        ));
    }

    #[test]
    fn transfer_preserves_creation_date() {
        let mut r = registry();
        r.register(dn("foo.com"), AccountId(1), 0, Duration::days(365))
            .unwrap();
        r.advance_to(d("2020-06-01"));
        r.transfer(&dn("foo.com"), AccountId(2)).unwrap();
        let reg = r.registration(&dn("foo.com")).unwrap();
        assert_eq!(reg.registrant, AccountId(2));
        assert_eq!(
            reg.creation_date,
            d("2020-01-01"),
            "transfer leaves creation date"
        );
        assert_eq!(reg.updated_date, d("2020-06-01"));
    }

    #[test]
    fn transfer_of_missing_domain_fails() {
        let mut r = registry();
        assert_eq!(
            r.transfer(&dn("ghost.com"), AccountId(2)),
            Err(RegistryError::NoSuchRegistration)
        );
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn clock_cannot_rewind() {
        let mut r = registry();
        r.advance_to(d("2020-06-01"));
        r.advance_to(d("2020-01-01"));
    }
}
