//! Dataset persistence: the simulator's feeds serialise to JSON and come
//! back intact, so worlds can be generated once and analysed elsewhere
//! (the pattern the examples rely on).

use dns::scan::{DnsHistory, DnsView};
use registry::whois::WhoisDataset;
use stale_types::{domain::dn, Date};
use worldsim::popularity::{PopularityArchive, RankSample};
use worldsim::reputation::{DomainReputation, ReputationFeed};

fn d(s: &str) -> Date {
    Date::parse(s).unwrap()
}

#[test]
fn whois_dataset_json_roundtrip() {
    let mut ds = WhoisDataset::new();
    ds.observe(dn("foo.com"), d("2016-01-01"));
    ds.observe(dn("foo.com"), d("2020-06-15"));
    ds.observe(dn("bar.net"), d("2018-03-03"));
    let json = serde_json::to_string(&ds).unwrap();
    let back: WhoisDataset = serde_json::from_str(&json).unwrap();
    assert_eq!(back.domain_count(), 2);
    assert_eq!(back.record_count(), 3);
    assert_eq!(
        back.registrant_changes().collect::<Vec<_>>(),
        ds.registrant_changes().collect::<Vec<_>>()
    );
    assert_eq!(back.window_start, ds.window_start);
}

#[test]
fn dns_history_json_roundtrip() {
    let mut history = DnsHistory::new();
    history.record_change(
        dn("foo.com"),
        d("2022-08-01"),
        DnsView::with_ns([dn("anna.ns.cloudflare.com")]),
    );
    history.record_change(
        dn("foo.com"),
        d("2022-09-15"),
        DnsView::with_ns([dn("ns1.away.net")]),
    );
    let json = serde_json::to_string(&history).unwrap();
    let back: DnsHistory = serde_json::from_str(&json).unwrap();
    assert_eq!(back.domain_count(), 1);
    assert_eq!(back.change_count(), 2);
    assert_eq!(
        back.view_at(&dn("foo.com"), d("2022-09-01")),
        history.view_at(&dn("foo.com"), d("2022-09-01"))
    );
}

#[test]
fn popularity_and_reputation_json_roundtrip() {
    let mut archive = PopularityArchive::new();
    let mut ranks = std::collections::HashMap::new();
    ranks.insert(dn("foo.com"), 777u32);
    archive.add_sample(RankSample {
        date: d("2020-01-01"),
        ranks,
    });
    let json = serde_json::to_string(&archive).unwrap();
    let back: PopularityArchive = serde_json::from_str(&json).unwrap();
    assert_eq!(back.best_rank(&dn("foo.com")), Some(777));

    let mut feed = ReputationFeed::new();
    feed.insert(
        dn("evil.com"),
        DomainReputation {
            malware_families: vec!["backdoor".into()],
            url_labels: vec!["phishing".into()],
            first_submission: d("2019-05-05"),
            vendor_count: 12,
        },
    );
    let json = serde_json::to_string(&feed).unwrap();
    let back: ReputationFeed = serde_json::from_str(&json).unwrap();
    assert_eq!(back.query(&dn("evil.com")), feed.query(&dn("evil.com")));
}

#[test]
fn crl_dataset_json_roundtrip() {
    use ca::scraper::{CrlDataset, RevocationRecord};
    use stale_types::{KeyId, SerialNumber};
    use x509::revocation::RevocationReason;
    let mut ds = CrlDataset::new();
    ds.add(RevocationRecord {
        authority_key_id: KeyId::from_bytes([9; 20]),
        serial: SerialNumber(42),
        revocation_date: d("2022-10-01"),
        reason: RevocationReason::KeyCompromise,
        observed: d("2022-11-01"),
    });
    let json = serde_json::to_string(&ds).unwrap();
    let back: CrlDataset = serde_json::from_str(&json).unwrap();
    assert_eq!(back.records(), ds.records());
    assert_eq!(back.len(), 1);
}

#[test]
fn stale_records_json_roundtrip() {
    use stale_core::staleness::{StaleCertRecord, StalenessClass};
    use stale_types::{CertId, DateInterval};
    let record = StaleCertRecord {
        cert_id: CertId::from_bytes([3; 32]),
        class: StalenessClass::ManagedTlsDeparture,
        domain: dn("foo.com"),
        fqdns: vec![dn("foo.com"), dn("*.foo.com")],
        issuer: "CloudFlare ECC CA-2".into(),
        invalidation: d("2022-09-15"),
        validity: DateInterval::new(d("2022-03-01"), d("2023-03-01")).unwrap(),
    };
    let json = serde_json::to_string(&vec![record.clone()]).unwrap();
    let back: Vec<StaleCertRecord> = serde_json::from_str(&json).unwrap();
    assert_eq!(back, vec![record]);
}

#[test]
fn certificates_persist_as_pem() {
    use crypto::KeyPair;
    use stale_types::Duration;
    use x509::pem::{certificate_from_pem, certificate_to_pem};
    let cert = x509::CertificateBuilder::tls_leaf(KeyPair::from_seed([1; 32]).public())
        .serial(1)
        .issuer_cn("Persist CA")
        .subject_cn("persist.com")
        .san(dn("persist.com"))
        .validity_days(d("2022-01-01"), Duration::days(90))
        .sign(&KeyPair::from_seed([2; 32]));
    let pem = certificate_to_pem(&cert);
    assert_eq!(certificate_from_pem(&pem).unwrap(), cert);
}
