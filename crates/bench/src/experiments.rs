//! One runner per table/figure of the paper's evaluation.

use engine::{DegradedShard, Engine, EngineConfig, EngineError, EngineMetrics};
use psl::SuffixList;
use stale_core::detector::DetectionSuite;
use stale_core::lifetime_sim::LifetimeSimulation;
use stale_core::popularity::{popularity_breakdown, RANK_BUCKETS};
use stale_core::report::{bar_chart, curve_plot, pct, render_table};
use stale_core::reputation::reputation_report;
use stale_core::staleness::{StaleCertRecord, StalenessClass};
use stale_core::stats::{Cdf, GroupedMonthlySeries, MonthlySeries};
use stale_core::survival::SurvivalCurve;
use stale_types::{Date, DateInterval, DomainName};
use std::collections::BTreeSet;
use worldsim::{ScenarioConfig, World, WorldDatasets};

use crate::paper;

/// A simulated world plus its detection results — everything the
/// experiment runners need.
pub struct Experiments {
    /// The dataset bundle.
    pub data: WorldDatasets,
    /// Public suffix list.
    pub psl: SuffixList,
    /// Detector outputs.
    pub suite: DetectionSuite,
}

/// An [`Experiments`] bundle produced by the sharded engine, with the
/// run's health and metrics alongside.
pub struct EngineRun {
    /// The experiments, backed by the engine's merged suite.
    pub experiments: Experiments,
    /// Shards that panicked out of the run (empty on a healthy run).
    pub degraded: Vec<DegradedShard>,
    /// Per-stage/per-shard observability.
    pub metrics: EngineMetrics,
    /// Partition width used.
    pub shards: usize,
    /// Stale events in discovery order (incremental runs; empty in batch
    /// mode, where everything lands at once).
    pub events: Vec<stale_core::incremental::StaleEvent>,
    /// Merged decision audit (`EngineConfig::audit`; `None` when off).
    pub audit: Option<obs::AuditReport>,
}

impl Experiments {
    /// Simulate a world and run all detectors (serial path).
    pub fn new(cfg: ScenarioConfig) -> Experiments {
        let (data, psl) = Experiments::build_world(cfg);
        let suite = DetectionSuite::run(&data, &psl);
        Experiments { data, psl, suite }
    }

    /// Simulate the world and load the suffix list without running any
    /// detector — the datasets can then be exported or preflighted before
    /// being handed to [`Experiments::with_engine_on`].
    pub fn build_world(cfg: ScenarioConfig) -> (WorldDatasets, SuffixList) {
        (World::run(cfg), SuffixList::default_list())
    }

    /// Run the sharded engine over an already-built world (see
    /// [`Experiments::build_world`]). The merged suite is byte-identical
    /// to [`Experiments::new`]'s for any shard count.
    pub fn with_engine_on(
        data: WorldDatasets,
        psl: SuffixList,
        engine_cfg: EngineConfig,
    ) -> Result<EngineRun, EngineError> {
        Experiments::with_engine_on_obs(data, psl, engine_cfg, obs::Obs::disabled())
    }

    /// [`Experiments::with_engine_on`] with an observability bundle
    /// attached: the caller keeps a clone of `obs` to export the trace
    /// and metrics after the run. Results are byte-identical with any
    /// bundle (observability is write-only from the engine's side).
    pub fn with_engine_on_obs(
        data: WorldDatasets,
        psl: SuffixList,
        engine_cfg: EngineConfig,
        obs: obs::Obs,
    ) -> Result<EngineRun, EngineError> {
        let report = Engine::new(engine_cfg).with_obs(obs).run(&data, &psl)?;
        Ok(EngineRun {
            experiments: Experiments {
                data,
                psl,
                suite: report.suite,
            },
            degraded: report.degraded,
            metrics: report.metrics,
            shards: report.shards,
            events: report.events,
            audit: report.audit,
        })
    }

    /// Run the engine incrementally over an already-built world (see
    /// [`Experiments::build_world`]): the day feed is replayed delta by
    /// delta into persistent detector state. The merged suite — and
    /// therefore every rendered table and figure — is byte-identical to
    /// the batch paths when the feed is drained (`EngineConfig::through`
    /// unset).
    pub fn with_engine_incremental_on(
        data: WorldDatasets,
        psl: SuffixList,
        engine_cfg: EngineConfig,
    ) -> Result<EngineRun, EngineError> {
        Experiments::with_engine_incremental_on_obs(data, psl, engine_cfg, obs::Obs::disabled())
    }

    /// [`Experiments::with_engine_incremental_on`] with an observability
    /// bundle attached (see [`Experiments::with_engine_on_obs`]).
    pub fn with_engine_incremental_on_obs(
        data: WorldDatasets,
        psl: SuffixList,
        engine_cfg: EngineConfig,
        obs: obs::Obs,
    ) -> Result<EngineRun, EngineError> {
        let report = Engine::new(engine_cfg)
            .with_obs(obs)
            .run_incremental(&data, &psl)?;
        Ok(EngineRun {
            experiments: Experiments {
                data,
                psl,
                suite: report.suite,
            },
            degraded: report.degraded,
            metrics: report.metrics,
            shards: report.shards,
            events: report.events,
            audit: report.audit,
        })
    }

    /// Records of one class.
    pub fn records(&self, class: StalenessClass) -> &[StaleCertRecord] {
        self.suite.records(class)
    }

    /// Borrowed render view over the world + suite — the same
    /// [`stale_core::tables::TableView`] the resident daemon renders
    /// from, which is what keeps daemon and batch table bytes identical.
    pub fn view(&self) -> stale_core::tables::TableView<'_> {
        stale_core::tables::TableView {
            data: &self.data,
            psl: &self.psl,
            suite: &self.suite,
        }
    }

    // ------------------------------------------------------------------
    // Tables
    // ------------------------------------------------------------------

    /// Table 3: dataset inventory.
    pub fn table3(&self) -> String {
        self.view().table3()
    }

    /// Table 4: daily rates of stale certs / FQDNs / e2LDs per detector.
    pub fn table4(&self) -> String {
        self.view().table4()
    }

    /// Table 5: domain reputation of registrant-change domains.
    pub fn table5(&self) -> String {
        let report = reputation_report(
            &self.suite.registrant_change,
            &self.data.reputation,
            100_000,
        );
        let mut rows = vec![vec![
            "Flagged rate".to_string(),
            pct(report.flagged_rate()),
            pct(paper::TABLE5_FLAGGED_RATE),
        ]];
        rows.push(vec![
            "Malware / both / URL split".to_string(),
            format!(
                "{} / {} / {}",
                report.malware_only, report.both, report.url_only
            ),
            format!(
                "{} / {} / {}",
                paper::TABLE5_SPLIT.0,
                paper::TABLE5_SPLIT.1,
                paper::TABLE5_SPLIT.2
            ),
        ]);
        let mut family_rows: Vec<Vec<String>> = report
            .malware_families
            .iter()
            .map(|(f, c)| vec![format!("malware: {f}"), c.to_string(), "-".into()])
            .collect();
        family_rows.sort();
        rows.extend(family_rows);
        for (label, count) in &report.url_labels {
            rows.push(vec![format!("url: {label}"), count.to_string(), "-".into()]);
        }
        format!(
            "Table 5 — Domain reputation ({} domains sampled, {} flagged)\n{}",
            report.sampled,
            report.flagged,
            render_table(&["Metric", "Measured", "Paper"], &rows)
        )
    }

    /// Table 6: domain popularity buckets per class.
    pub fn table6(&self) -> String {
        let classes = [
            (StalenessClass::RegistrantChange, paper::TABLE6[0]),
            (StalenessClass::ManagedTlsDeparture, paper::TABLE6[1]),
            (StalenessClass::KeyCompromise, paper::TABLE6[2]),
        ];
        let mut rows = Vec::new();
        for (class, (_, paper_buckets, paper_total)) in classes {
            let b = popularity_breakdown(
                class.label(),
                self.records(class),
                &self.data.popularity,
                &self.psl,
            );
            for (i, cut) in RANK_BUCKETS.iter().enumerate() {
                rows.push(vec![
                    b.label.clone(),
                    format!("Top {cut}"),
                    b.bucket_counts[i].to_string(),
                    paper_buckets[i].to_string(),
                ]);
            }
            rows.push(vec![
                b.label.clone(),
                "Total domains".into(),
                format!("{} ({} in top 1M)", b.total_domains, pct(b.pct_in_top_1m())),
                format!("{paper_total}"),
            ]);
        }
        format!(
            "Table 6 — Domain popularity (best rank across biannual samples)\n{}",
            render_table(&["Class", "Bucket", "Measured", "Paper"], &rows)
        )
    }

    /// Table 7: CRL scrape coverage per CA.
    pub fn table7(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .data
            .crl_stats
            .rows_by_coverage()
            .into_iter()
            .map(|(name, ok, total, cov)| vec![name, format!("{ok} / {total}"), pct(cov)])
            .collect();
        format!(
            "Table 7 — CRL coverage\n{}Total coverage: measured {} (paper {})\n",
            render_table(&["CA", "CRLs fetched", "Coverage"], &rows),
            pct(self.data.crl_stats.total_coverage()),
            pct(paper::TABLE7_TOTAL_COVERAGE),
        )
    }

    // ------------------------------------------------------------------
    // Figures
    // ------------------------------------------------------------------

    /// Figure 4: monthly key-compromise revocations by CA.
    pub fn fig4(&self) -> String {
        let mut grouped = GroupedMonthlySeries::new();
        for r in &self.suite.key_compromise {
            grouped.add(&r.issuer, r.invalidation);
        }
        let grouped = grouped.with_other_bucket(10);
        let mut out = String::from("Figure 4 — Monthly key-compromise revocations by CA\n");
        for (issuer, total) in grouped.totals() {
            out.push_str(&format!("  series {issuer}: total {total}\n"));
            let series = &grouped.groups[&issuer];
            if let Some((peak_month, peak)) = series.peak() {
                out.push_str(&format!("    peak {peak} in {peak_month}\n"));
            }
        }
        if let Some((top_issuer, _)) = grouped.totals().first().cloned() {
            let rows: Vec<(String, f64)> = grouped.groups[&top_issuer]
                .rows()
                .into_iter()
                .filter(|(_, c)| *c > 0)
                .map(|(ym, c)| (ym.to_string(), c as f64))
                .collect();
            out.push_str(&format!(
                "  {top_issuer} monthly volume:\n{}",
                bar_chart(&rows, 40)
            ));
        }
        // Shape checks: GoDaddy spike share and LE reporting start.
        let total: u64 = grouped.groups.values().map(|s| s.total()).sum();
        let godaddy: u64 = grouped
            .groups
            .iter()
            .filter(|(k, _)| k.contains("GoDaddy"))
            .map(|(_, s)| s.total())
            .sum();
        let godaddy_share = if total > 0 {
            godaddy as f64 / total as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "Shape: GoDaddy share of KC — {}\n",
            paper::vs_pct(paper::FIG4_GODADDY_SHARE, godaddy_share)
        ));
        let le_before: usize = self
            .suite
            .key_compromise
            .iter()
            .filter(|r| r.issuer.contains("Let's Encrypt"))
            .filter(|r| r.invalidation < Date::parse("2022-07-01").expect("fixed"))
            .count();
        out.push_str(&format!(
            "Shape: Let's Encrypt KC revocations before 2022-07: {le_before} (paper: none — reporting began July 2022)\n"
        ));
        out
    }

    /// Figure 5a: monthly new registrant-change stale certs and e2LDs.
    pub fn fig5a(&self) -> String {
        let mut certs = MonthlySeries::new();
        let mut e2ld_first_seen: BTreeSet<(DomainName, stale_types::YearMonth)> = BTreeSet::new();
        let mut seen: BTreeSet<DomainName> = BTreeSet::new();
        let mut sorted: Vec<&StaleCertRecord> = self.suite.registrant_change.iter().collect();
        sorted.sort_by_key(|r| r.invalidation);
        for r in &sorted {
            certs.add(r.invalidation);
            if seen.insert(r.domain.clone()) {
                e2ld_first_seen.insert((r.domain.clone(), r.invalidation.year_month()));
            }
        }
        let mut e2lds = MonthlySeries::new();
        for (_, ym) in &e2ld_first_seen {
            e2lds.add_n(ym.first_day(), 1);
        }
        let mut out =
            String::from("Figure 5a — New monthly stale certs / e2LDs from registrant change\n");
        out.push_str("month,certs,e2lds\n");
        for (ym, c) in certs.rows() {
            out.push_str(&format!("{ym},{c},{}\n", e2lds.get(ym)));
        }
        if let Some((peak_month, peak)) = certs.peak() {
            out.push_str(&format!(
                "Shape: cert spike of {peak} in {peak_month} (paper: spike in late 2018, after Let's Encrypt multiplied TLS domains)\n"
            ));
        }
        out
    }

    /// Figure 5b: the 2018–2019 spike broken down by issuer.
    pub fn fig5b(&self) -> String {
        let window = DateInterval::new(
            Date::parse("2018-01-01").expect("fixed"),
            Date::parse("2019-07-01").expect("fixed"),
        )
        .expect("valid");
        let mut grouped = GroupedMonthlySeries::new();
        for r in &self.suite.registrant_change {
            if window.contains(r.invalidation) {
                grouped.add(&r.issuer, r.invalidation);
            }
        }
        let grouped = grouped.with_other_bucket(5);
        let mut out =
            String::from("Figure 5b — 2018–2019 registrant-change stale certs by issuer\n");
        for (issuer, total) in grouped.totals() {
            out.push_str(&format!("  {issuer}: {total}\n"));
        }
        let comodo_top = grouped
            .totals()
            .first()
            .map(|(k, _)| k.contains("COMODO"))
            .unwrap_or(false);
        out.push_str(&format!(
            "Shape: COMODO cruise-liner certificates dominate — paper: yes / measured: {}\n",
            if comodo_top { "yes" } else { "no" }
        ));
        out
    }

    /// Figure 6: staleness-period CDFs per class.
    pub fn fig6(&self) -> String {
        let mut out = String::from("Figure 6 — Third-party staleness period distribution\n");
        for (class, (_, paper_median)) in [
            (StalenessClass::RegistrantChange, paper::FIG6_MEDIANS[0]),
            (StalenessClass::ManagedTlsDeparture, paper::FIG6_MEDIANS[1]),
            (StalenessClass::KeyCompromise, paper::FIG6_MEDIANS[2]),
        ] {
            let cdf = self.staleness_cdf(class);
            let median = cdf.median().unwrap_or(0);
            out.push_str(&format!(
                "  {}: n={}, median {} days (paper {}), P(≤90d)={}, P(≤215d)={}, max {}\n",
                class.label(),
                cdf.len(),
                median,
                paper_median,
                pct(cdf.proportion_at(90)),
                pct(cdf.proportion_at(215)),
                cdf.max().unwrap_or(0),
            ));
            out.push_str(&curve_plot(&cdf.points(), 60, 8));
        }
        out.push_str(
            "Shape: over 50% of staleness periods exceed 90 days across classes; KC and MTD medians exceed RC's\n",
        );
        out
    }

    /// Staleness CDF of one class.
    pub fn staleness_cdf(&self, class: StalenessClass) -> Cdf {
        Cdf::new(
            self.records(class)
                .iter()
                .map(|r| r.staleness_days().num_days())
                .collect(),
        )
    }

    /// Figure 7: registrant-change staleness by change year.
    pub fn fig7(&self) -> String {
        let mut out = String::from("Figure 7 — Registrant-change staleness by change year\n");
        for year in 2016..=2021 {
            let samples: Vec<i64> = self
                .suite
                .registrant_change
                .iter()
                .filter(|r| r.invalidation.year() == year)
                .map(|r| r.staleness_days().num_days())
                .collect();
            if samples.is_empty() {
                continue;
            }
            let cdf = Cdf::new(samples);
            out.push_str(&format!(
                "  {year}: n={}, median {}d, mean {:.0}d, max {}d\n",
                cdf.len(),
                cdf.median().unwrap_or(0),
                cdf.mean().unwrap_or(0.0),
                cdf.max().unwrap_or(0),
            ));
        }
        out.push_str("Shape: the long maximum-staleness tail shortens after the 2018/2020 lifetime caps; averages fluctuate rather than fall monotonically\n");
        out
    }

    /// Figure 8: survival — proportion of invalidations after N days of
    /// issuance.
    pub fn fig8(&self) -> String {
        let mut out = String::from(
            "Figure 8 — Certificate survival (share of invalidations ≥ N days after issuance)\n",
        );
        for (class, (_, paper_90, paper_215)) in [
            (StalenessClass::RegistrantChange, paper::FIG8_SURVIVAL[0]),
            (StalenessClass::ManagedTlsDeparture, paper::FIG8_SURVIVAL[1]),
            (StalenessClass::KeyCompromise, paper::FIG8_SURVIVAL[2]),
        ] {
            let curve = SurvivalCurve::from_records(self.records(class).iter());
            let at215 = paper_215
                .map(|p| paper::vs_pct(p, curve.survival_at(215)))
                .unwrap_or_else(|| format!("measured {}", pct(curve.survival_at(215))));
            out.push_str(&format!(
                "  {}: S(90) {} | S(215) {} | median day {}\n",
                class.label(),
                paper::vs_pct(paper_90, curve.survival_at(90)),
                at215,
                curve.median_days().unwrap_or(0),
            ));
            out.push_str(&curve_plot(&curve.points(), 60, 8));
        }
        out.push_str(
            "Shape: registrant change survives longest, key compromise is reported near issuance\n",
        );
        out
    }

    /// Figure 9: staleness-days reductions under 45/90/215-day caps.
    pub fn fig9(&self) -> String {
        let mut out = String::from("Figure 9 — Simulated maximum-lifetime reduction\n");
        let mut total_before = 0i64;
        let mut total_after_90 = 0i64;
        for (class, (_, p45, p90, p215)) in [
            (StalenessClass::RegistrantChange, paper::FIG9_REDUCTIONS[0]),
            (
                StalenessClass::ManagedTlsDeparture,
                paper::FIG9_REDUCTIONS[1],
            ),
            (StalenessClass::KeyCompromise, paper::FIG9_REDUCTIONS[2]),
        ] {
            let sim = LifetimeSimulation::new(self.records(class).iter());
            let results = sim.paper_caps();
            out.push_str(&format!("  {} (n={}):\n", class.label(), sim.len()));
            for (result, paper_val) in results.iter().zip([p45, p90, p215]) {
                out.push_str(&format!(
                    "    cap {:>3}d: staleness-days {} | eliminated {} of {} certs\n",
                    result.cap_days,
                    paper::vs_pct(paper_val, result.staleness_reduction()),
                    result.eliminated_certs,
                    result.total_certs,
                ));
                if result.cap_days == 90 {
                    total_before += result.staleness_days_before;
                    total_after_90 += result.staleness_days_after;
                }
            }
        }
        let overall = if total_before > 0 {
            1.0 - total_after_90 as f64 / total_before as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "Headline: overall staleness-day reduction at 90-day cap — {}\n",
            paper::vs_pct(paper::HEADLINE_90D_STALENESS_REDUCTION, overall)
        ));
        out
    }

    /// §7.2 mitigation analysis (extension beyond the paper's headline
    /// experiments): CRLite-style filters over the measured corpus and
    /// DANE's TTL-scale staleness collapse.
    pub fn mitigations(&self) -> String {
        use stale_core::mitigation::{dane_staleness_days, CrliteFilter, DaneDeployment};
        use x509::revocation::RevocationReason;

        let mut out =
            String::from("Mitigations (§7.2) — measured against the detected stale populations\n");
        // CRLite: build a filter cascade from the full corpus + revoked set.
        let population: Vec<stale_types::CertId> = self
            .data
            .monitor
            .corpus_unfiltered()
            .map(|c| c.cert_id)
            .collect();
        let revoked: Vec<stale_types::CertId> = self
            .suite
            .revocations
            .matched
            .iter()
            .map(|m| m.cert_id)
            .collect();
        let filter = CrliteFilter::build(&population, &revoked);
        let kc_blockable = self
            .suite
            .key_compromise
            .iter()
            .filter(|r| filter.is_revoked(&r.cert_id))
            .count();
        out.push_str(&format!(
            "  CRLite: cascade of {} levels, {} bytes for {} revocations over {} certs; blocks {}/{} key-compromise stale certs with no OCSP fetch (soft-fail bypass eliminated)\n",
            filter.level_count(),
            filter.byte_size(),
            revoked.len(),
            population.len(),
            kc_blockable,
            self.suite.key_compromise.len(),
        ));
        // Revoked-but-unmatched reasons sanity: the filter covers every
        // revocation the join kept.
        let kc_total = self
            .suite
            .revocations
            .matched
            .iter()
            .filter(|m| m.reason == RevocationReason::KeyCompromise)
            .count();
        out.push_str(&format!(
            "          (join kept {kc_total} keyCompromise revocations; all present in the cascade)\n"
        ));
        // DANE: staleness collapses from cert lifetimes to DNS TTLs.
        let deployment = DaneDeployment::typical();
        for class in [
            StalenessClass::RegistrantChange,
            StalenessClass::ManagedTlsDeparture,
            StalenessClass::KeyCompromise,
        ] {
            let (pki, dane) = dane_staleness_days(self.records(class), deployment);
            if pki > 0.0 {
                out.push_str(&format!(
                    "  DANE (1h TTL): {} — {:.0} staleness-days → {:.1} ({:.4}% retained)\n",
                    class.label(),
                    pki,
                    dane,
                    dane / pki * 100.0,
                ));
            }
        }
        out.push_str("  STAR (7-day certs): worst-case staleness per certificate bounded at 7 days — see ca::star\n");
        out
    }

    /// First-party staleness control group (Table 2's key-rotation row):
    /// sizes the valid-but-disused key population against which the three
    /// third-party classes stand out.
    pub fn first_party(&self) -> String {
        let rotations = stale_core::first_party::detect_key_rotations(&self.data.monitor);
        let days: Vec<i64> = rotations
            .iter()
            .map(|e| e.staleness_days().num_days())
            .collect();
        let cdf = Cdf::new(days);
        let third_party_total: usize = [
            self.suite.key_compromise.len(),
            self.suite.registrant_change.len(),
            self.suite.managed_tls.len(),
        ]
        .iter()
        .sum();
        format!(
            "First-party staleness (key rotation, Table 2 control group)\n  {} rotations; median first-party staleness {} days (mean {:.0})\n  vs {} third-party stale certs — the third-party classes are the security-relevant subset\n",
            cdf.len(),
            cdf.median().unwrap_or(0),
            cdf.mean().unwrap_or(0.0),
            third_party_total,
        )
    }

    /// Export every figure's data series as `(filename, csv)` pairs for
    /// external plotting.
    pub fn export_csv(&self) -> Vec<(String, String)> {
        use stale_core::report::render_csv;
        let mut files = Vec::new();
        // Figure 4: monthly KC by issuer.
        let mut grouped = GroupedMonthlySeries::new();
        for r in &self.suite.key_compromise {
            grouped.add(&r.issuer, r.invalidation);
        }
        let mut rows = Vec::new();
        for (issuer, series) in &grouped.groups {
            for (ym, count) in series.rows() {
                rows.push(vec![issuer.clone(), ym.to_string(), count.to_string()]);
            }
        }
        files.push((
            "fig4_kc_by_ca.csv".into(),
            render_csv(&["issuer", "month", "count"], &rows),
        ));
        // Figures 6 and 8: per-class distribution points.
        for class in [
            StalenessClass::RegistrantChange,
            StalenessClass::ManagedTlsDeparture,
            StalenessClass::KeyCompromise,
        ] {
            let slug = match class {
                StalenessClass::RegistrantChange => "registrant_change",
                StalenessClass::ManagedTlsDeparture => "managed_tls",
                StalenessClass::KeyCompromise => "key_compromise",
            };
            let cdf = self.staleness_cdf(class);
            let rows: Vec<Vec<String>> = cdf
                .points()
                .into_iter()
                .map(|(x, p)| vec![x.to_string(), format!("{p:.6}")])
                .collect();
            files.push((
                format!("fig6_cdf_{slug}.csv"),
                render_csv(&["staleness_days", "cdf"], &rows),
            ));
            let curve = SurvivalCurve::from_records(self.records(class).iter());
            let rows: Vec<Vec<String>> = curve
                .points()
                .into_iter()
                .map(|(x, sv)| vec![x.to_string(), format!("{sv:.6}")])
                .collect();
            files.push((
                format!("fig8_survival_{slug}.csv"),
                render_csv(&["days_since_issuance", "survival"], &rows),
            ));
        }
        // Figure 9: cap sweep.
        let mut rows = Vec::new();
        for class in [
            StalenessClass::RegistrantChange,
            StalenessClass::ManagedTlsDeparture,
            StalenessClass::KeyCompromise,
        ] {
            let sim = LifetimeSimulation::new(self.records(class).iter());
            for cap in [30i64, 45, 60, 90, 120, 180, 215, 300, 398] {
                let r = sim.apply_cap(cap);
                rows.push(vec![
                    class.label().to_string(),
                    cap.to_string(),
                    format!("{:.6}", r.staleness_reduction()),
                    format!("{:.6}", r.elimination_rate()),
                ]);
            }
        }
        files.push((
            "fig9_cap_sweep.csv".into(),
            render_csv(
                &[
                    "class",
                    "cap_days",
                    "staleness_reduction",
                    "elimination_rate",
                ],
                &rows,
            ),
        ));
        files
    }

    /// Tables 1 and 2: the certificate-information and invalidation-event
    /// taxonomy, rendered from the `stale_core::taxonomy` types (these are
    /// definitional tables in the paper body, reproduced for completeness).
    pub fn taxonomy_tables(&self) -> String {
        use stale_core::taxonomy::{CertInfoCategory, InvalidationEvent, SecurityImpact};
        let cat = |c: CertInfoCategory| match c {
            CertInfoCategory::SubscriberAuthentication => "Subscriber authentication",
            CertInfoCategory::KeyAuthorization => "Key authorization",
            CertInfoCategory::IssuerInformation => "Issuer information",
            CertInfoCategory::CertificateMetadata => "Certificate metadata",
        };
        let impact = |i: SecurityImpact| match i {
            SecurityImpact::ThirdPartyImpersonation => "Third-party. TLS domain impersonation.",
            SecurityImpact::FirstPartyMinimal => "First-party. Minimal.",
            SecurityImpact::FirstPartyOverPermissioned => "First-party. Over-permissioned.",
        };
        let events = [
            (
                InvalidationEvent::DomainOwnershipChange,
                "Domain registrant change (§5.2)",
            ),
            (
                InvalidationEvent::DomainUseChange,
                "Domain expiration + no new owner",
            ),
            (
                InvalidationEvent::KeyOwnershipChange,
                "Key compromise (§5.1)",
            ),
            (
                InvalidationEvent::KeyUseChange,
                "Key disuse: e.g., rotation",
            ),
            (
                InvalidationEvent::ManagedTlsDeparture,
                "Managed TLS departure (§5.3)",
            ),
            (
                InvalidationEvent::KeyAuthorizationChange,
                "Key scope reduction",
            ),
            (
                InvalidationEvent::RevocationInfoChange,
                "CA infrastructure change",
            ),
        ];
        let rows: Vec<Vec<String>> = events
            .iter()
            .map(|(e, example)| {
                vec![
                    format!("{e:?}"),
                    cat(e.category()).to_string(),
                    example.to_string(),
                    impact(e.impact()).to_string(),
                ]
            })
            .collect();
        format!(
            "Tables 1–2 — Certificate invalidation event taxonomy\n{}",
            render_table(
                &["Event", "Category", "Example", "Security implications"],
                &rows
            )
        )
    }

    /// Run everything in paper order.
    pub fn run_all(&self) -> String {
        [
            self.taxonomy_tables(),
            self.table3(),
            self.fig4(),
            self.fig5a(),
            self.fig5b(),
            self.table4(),
            self.table5(),
            self.fig6(),
            self.table6(),
            self.fig7(),
            self.fig8(),
            self.fig9(),
            self.table7(),
            self.mitigations(),
            self.first_party(),
        ]
        .join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn experiments() -> Experiments {
        Experiments::new(ScenarioConfig::tiny())
    }

    #[test]
    fn all_experiments_run_on_tiny_world() {
        let e = experiments();
        let out = e.run_all();
        for marker in [
            "Table 3",
            "Table 4",
            "Table 5",
            "Table 6",
            "Table 7",
            "Figure 4",
            "Figure 5a",
            "Figure 5b",
            "Figure 6",
            "Figure 7",
            "Figure 8",
            "Figure 9",
        ] {
            assert!(out.contains(marker), "missing {marker}");
        }
    }

    #[test]
    fn detectors_find_all_three_classes() {
        let e = experiments();
        assert!(!e.suite.key_compromise.is_empty(), "KC records");
        assert!(!e.suite.registrant_change.is_empty(), "RC records");
        assert!(!e.suite.managed_tls.is_empty(), "MTD records");
    }

    #[test]
    fn fig9_reductions_monotone_in_cap() {
        let e = experiments();
        for class in [
            StalenessClass::KeyCompromise,
            StalenessClass::RegistrantChange,
            StalenessClass::ManagedTlsDeparture,
        ] {
            let sim = LifetimeSimulation::new(e.records(class).iter());
            let r: Vec<f64> = sim
                .paper_caps()
                .iter()
                .map(|c| c.staleness_reduction())
                .collect();
            assert!(r[0] >= r[1] && r[1] >= r[2], "{class:?}: {r:?}");
        }
    }

    #[test]
    fn survival_consistent_with_records() {
        let e = experiments();
        let curve = SurvivalCurve::from_records(e.suite.registrant_change.iter());
        assert_eq!(curve.len(), e.suite.registrant_change.len());
        assert!(curve.survival_at(0) <= 1.0);
    }
}
