//! Managed TLS departure scenario (§3.1, Figure 3 / §5.3), end to end:
//!
//! 1. Customers enroll with a Cloudflare-like CDN (NS delegation); the CDN
//!    issues cruise-liner certificates covering dozens of customers and
//!    keeps every private key.
//! 2. One customer migrates to new infrastructure. The daily DNS scan sees
//!    the Cloudflare nameservers vanish between neighbouring days.
//! 3. The departure detector flags every unexpired managed certificate
//!    still naming the domain — keys the former provider retains.
//!
//! ```sh
//! cargo run --example cdn_migration
//! ```

use stale_tls::prelude::*;

use ca::authority::CertificateAuthority;
use cdn::provider::{ManagedTlsProvider, ProviderConfig};
use ct::log::LogPool;
use ct::monitor::CtMonitor;
use dns::scan::{DnsHistory, DnsView};
use stale_core::detector::managed_tls::ManagedTlsDetector;

fn dn(s: &str) -> DomainName {
    DomainName::parse(s).expect("valid literal")
}

fn d(s: &str) -> Date {
    Date::parse(s).expect("valid literal")
}

fn main() {
    let comodo = CertificateAuthority::new(
        stale_types::CaId(10),
        "COMODO ECC DV Secure Server CA 2",
        crypto::KeyPair::from_seed([10; 32]),
        CaPolicy {
            default_lifetime: Duration::days(365),
            ..CaPolicy::commercial()
        },
    );
    let mut provider =
        ManagedTlsProvider::new(ProviderConfig::cloudflare_cruise_liner(), comodo, 7);
    let mut ct = LogPool::with_yearly_shards("nimbus", 11, 2022, 2024);
    let mut adns = DnsHistory::new();

    // 1. Ten customers enroll over the spring of 2022.
    for (i, day) in (0..10).zip(d("2022-03-01").iter_until(d("2022-03-11"))) {
        let cert = provider.enroll(dn(&format!("customer{i}.com")), day, &mut ct, &mut adns);
        if i == 0 || i == 9 {
            println!(
                "{day}  customer{i}.com enrolls — bus cert covers {} SANs",
                cert.tbs.san().len()
            );
        }
    }

    // 2. customer3.com migrates away on 2022-09-15.
    let victim = dn("customer3.com");
    let departure_day = d("2022-09-15");
    provider.depart(
        &victim,
        departure_day,
        DnsView::with_ns([dn("ns1.newhost.net"), dn("ns2.newhost.net")]),
        &mut ct,
        &mut adns,
    );
    let retained = provider.stale_certs_for(&victim, departure_day);
    println!(
        "\n{departure_day}  {victim} migrates off the CDN; provider retains {} valid certificates naming it",
        retained.len()
    );

    // 3. The measurement pipeline: CT corpus + daily DNS diff.
    let mut monitor = CtMonitor::new();
    for cert in provider.all_issued() {
        monitor.ingest(cert.clone(), cert.tbs.not_before());
    }
    let suffix_list = SuffixList::default_list();
    let detector = ManagedTlsDetector::new(&provider.config, &suffix_list);
    let window = DateInterval::new(d("2022-08-01"), d("2022-10-31")).expect("window");
    let records = detector.detect(&adns, &monitor, window);

    println!("\ndetector findings in the {window} scan window:");
    for record in &records {
        println!(
            "  stale cert {} for {} — issuer {}, stale {} days ({} → {})",
            &record.cert_id.to_string()[..12],
            record.domain,
            record.issuer,
            record.staleness_days().num_days(),
            record.invalidation,
            record.validity.end,
        );
    }
    assert!(!records.is_empty());
    assert!(records.iter().all(|r| r.domain == victim));
    assert_eq!(
        records.len(),
        retained.len(),
        "detector recovers exactly the provider-retained certificates"
    );

    // The cruise-liner effect: the victim rode many overlapping certs.
    println!(
        "\ncruise-liner effect: one departure ⇒ {} stale certificates (per-domain issuance would have produced 1)",
        records.len()
    );
}
