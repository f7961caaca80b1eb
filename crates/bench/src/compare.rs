//! Run-over-run metrics comparison: the machinery behind
//! `stale-bench compare`.
//!
//! Two metrics-JSON exports (see `obs::metrics::METRICS_SCHEMA`, emitted
//! by `repro --metrics-json`) are diffed stage by stage: every counter
//! ending in `.wall_us` is a stage wall time, and a stage regresses when
//! its current wall exceeds the baseline by more than `threshold`
//! (fractional; 0.25 = +25%). Stages whose baseline wall is below
//! `min_wall_us` are exempt — microsecond-scale stages are all jitter.
//!
//! Deterministic *count* counters are held to a stricter standard: every
//! `audit.*` coverage gauge present in **both** snapshots must match
//! exactly. These counters are derived from the decision audit, which is
//! byte-deterministic for a given dataset bundle, so any drift means the
//! detectors changed behaviour — a hard failure at threshold 0, with no
//! noise floor. Counters present on only one side (e.g. the baseline
//! predates auditing) are reported but never flag.
//!
//! Separately, *every* counter name present in only one snapshot lands
//! in the artifact's `added`/`removed` presence lists — informational,
//! never a failure, but it means a renamed stage counter drops out of
//! the gated set loudly instead of silently.
//!
//! The result serializes as `BENCH_obs.json` (schema
//! [`COMPARE_SCHEMA`]), which doubles as the committed CI baseline: it
//! embeds the `current` snapshot, so the next comparison can chain off a
//! previous comparison file directly ([`parse_snapshot`] accepts either
//! form).

use obs::MetricsSnapshot as Snapshot;
use serde::{Deserialize, Serialize};

/// Schema tag of the comparison artifact.
pub const COMPARE_SCHEMA: &str = "stale-bench-obs";
/// Current comparison schema version.
pub const COMPARE_VERSION: u32 = 1;

/// Default regression threshold: +25% stage wall.
pub const DEFAULT_THRESHOLD: f64 = 0.25;
/// Default noise floor: stages under 1 ms baseline wall are exempt.
pub const DEFAULT_MIN_WALL_US: u64 = 1_000;

/// One stage's baseline-vs-current wall time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageDelta {
    /// Counter name (e.g. `engine.stage.detect.wall_us`).
    pub name: String,
    /// Baseline wall, microseconds (0 if the stage is new).
    pub baseline_us: u64,
    /// Current wall, microseconds (0 if the stage disappeared).
    pub current_us: u64,
    /// current / max(baseline, 1) — finite even for new stages.
    pub ratio: f64,
    /// Whether this stage regressed beyond the threshold (and its
    /// baseline cleared the noise floor).
    pub regressed: bool,
}

/// One deterministic count counter's baseline-vs-current value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CountDelta {
    /// Counter name (e.g. `audit.kc.dropped.crl-unmatched`).
    pub name: String,
    /// Baseline value, or `None` when the counter is new.
    pub baseline: Option<u64>,
    /// Current value, or `None` when the counter disappeared.
    pub current: Option<u64>,
    /// Whether the counter exists on both sides with different values.
    /// Any such drift is a hard failure — there is no threshold.
    pub drifted: bool,
}

/// The whole comparison, as written to `BENCH_obs.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Comparison {
    /// Always [`COMPARE_SCHEMA`].
    pub schema: String,
    /// Always [`COMPARE_VERSION`].
    pub version: u32,
    /// Regression threshold used (fractional).
    pub threshold: f64,
    /// Noise floor used, microseconds.
    pub min_wall_us: u64,
    /// Per-stage deltas, name-sorted.
    pub stages: Vec<StageDelta>,
    /// Count of regressed stages.
    pub regressions: usize,
    /// Deterministic `audit.*` count counters, name-sorted. `None` only
    /// when parsing a pre-audit artifact.
    pub counts: Option<Vec<CountDelta>>,
    /// Count of drifted count counters. `None` only when parsing a
    /// pre-audit artifact (treated as 0).
    pub count_drifts: Option<usize>,
    /// Counter names present only in the current snapshot, name-sorted.
    /// Reported (a renamed stage cannot vanish unnoticed) but never a
    /// failure. `None` only when parsing a pre-presence artifact.
    pub added: Option<Vec<String>>,
    /// Counter names present only in the baseline snapshot, name-sorted.
    pub removed: Option<Vec<String>>,
    /// The baseline snapshot compared against.
    pub baseline: Snapshot,
    /// The current snapshot — the next run's baseline.
    pub current: Snapshot,
}

impl Comparison {
    /// Whether the run is clean: no stage regressed *and* no
    /// deterministic count counter drifted.
    pub fn is_clean(&self) -> bool {
        self.regressions == 0 && self.count_drifts.unwrap_or(0) == 0
    }

    /// Human-readable summary table.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "stage wall-time comparison (threshold +{:.0}%, floor {} µs)\n",
            self.threshold * 100.0,
            self.min_wall_us
        ));
        out.push_str("  stage                                baseline     current   ratio\n");
        for s in &self.stages {
            out.push_str(&format!(
                "  {:<36} {:>9} µs {:>9} µs  {:>5.2}x{}\n",
                s.name,
                s.baseline_us,
                s.current_us,
                s.ratio,
                if s.regressed { "  REGRESSED" } else { "" }
            ));
        }
        out.push_str(&format!(
            "  {} stage(s), {} regression(s)\n",
            self.stages.len(),
            self.regressions
        ));
        if let Some(counts) = &self.counts {
            if !counts.is_empty() {
                out.push_str("deterministic count comparison (audit.*, exact match)\n");
                out.push_str(
                    "  counter                                        baseline     current\n",
                );
                let fmt = |v: Option<u64>| match v {
                    Some(n) => n.to_string(),
                    None => "-".to_string(),
                };
                for c in counts {
                    out.push_str(&format!(
                        "  {:<44} {:>10}  {:>10}{}\n",
                        c.name,
                        fmt(c.baseline),
                        fmt(c.current),
                        if c.drifted { "  DRIFTED" } else { "" }
                    ));
                }
                out.push_str(&format!(
                    "  {} counter(s), {} drift(s)\n",
                    counts.len(),
                    self.count_drifts.unwrap_or(0)
                ));
            }
        }
        let added = self.added.as_deref().unwrap_or(&[]);
        let removed = self.removed.as_deref().unwrap_or(&[]);
        if !added.is_empty() || !removed.is_empty() {
            out.push_str("counter presence (informational, never a failure)\n");
            for name in added {
                out.push_str(&format!("  added    {name}\n"));
            }
            for name in removed {
                out.push_str(&format!("  removed  {name}\n"));
            }
            out.push_str(&format!(
                "  {} added, {} removed\n",
                added.len(),
                removed.len()
            ));
        }
        out
    }
}

/// Diff two snapshots' stage wall counters. `threshold` is fractional
/// (0.25 = +25%); baselines below `min_wall_us` never flag. `audit.*`
/// count counters are additionally diffed at threshold 0: any drift
/// between values present on both sides is a hard failure.
pub fn compare(
    baseline: &Snapshot,
    current: &Snapshot,
    threshold: f64,
    min_wall_us: u64,
) -> Comparison {
    let is_stage_wall = |name: &str| name.ends_with(".wall_us");
    let mut names: Vec<String> = baseline
        .counters
        .keys()
        .chain(current.counters.keys())
        .filter(|n| is_stage_wall(n))
        .cloned()
        .collect();
    names.sort();
    names.dedup();

    let mut stages = Vec::with_capacity(names.len());
    let mut regressions = 0usize;
    for name in names {
        let baseline_us = baseline.counters.get(&name).copied().unwrap_or(0);
        let current_us = current.counters.get(&name).copied().unwrap_or(0);
        // max(baseline, 1) keeps the ratio finite for new stages; the
        // serde shim renders non-finite floats as null, so an infinite
        // ratio would corrupt the artifact.
        let ratio = current_us as f64 / baseline_us.max(1) as f64;
        let regressed = baseline_us >= min_wall_us
            && (current_us as f64) > (baseline_us as f64) * (1.0 + threshold);
        if regressed {
            regressions += 1;
        }
        stages.push(StageDelta {
            name,
            baseline_us,
            current_us,
            ratio,
            regressed,
        });
    }
    let is_count = |name: &str| name.starts_with("audit.");
    let mut count_names: Vec<String> = baseline
        .counters
        .keys()
        .chain(current.counters.keys())
        .filter(|n| is_count(n))
        .cloned()
        .collect();
    count_names.sort();
    count_names.dedup();

    let mut counts = Vec::with_capacity(count_names.len());
    let mut count_drifts = 0usize;
    for name in count_names {
        let b = baseline.counters.get(&name).copied();
        let c = current.counters.get(&name).copied();
        let drifted = matches!((b, c), (Some(b), Some(c)) if b != c);
        if drifted {
            count_drifts += 1;
        }
        counts.push(CountDelta {
            name,
            baseline: b,
            current: c,
            drifted,
        });
    }

    // Presence diff over *every* counter (stages, audit gauges, ad-hoc
    // instrumentation alike): one-sided names are reported so a renamed
    // counter can't silently drop out of the gated set.
    let added: Vec<String> = current
        .counters
        .keys()
        .filter(|n| !baseline.counters.contains_key(*n))
        .cloned()
        .collect();
    let removed: Vec<String> = baseline
        .counters
        .keys()
        .filter(|n| !current.counters.contains_key(*n))
        .cloned()
        .collect();

    Comparison {
        schema: COMPARE_SCHEMA.to_string(),
        version: COMPARE_VERSION,
        threshold,
        min_wall_us,
        stages,
        regressions,
        counts: Some(counts),
        count_drifts: Some(count_drifts),
        added: Some(added),
        removed: Some(removed),
        baseline: baseline.clone(),
        current: current.clone(),
    }
}

/// Parse a metrics snapshot out of `text`: either a previous comparison
/// artifact (whose embedded `current` snapshot becomes the baseline —
/// this is how CI chains run over run), or a raw metrics-JSON export,
/// read through its one reader ([`Snapshot::from_json`]), which refuses
/// what `stale-lint preflight` names. An artifact's embedded snapshots
/// are held to the same rules ([`Snapshot::validate`]).
pub fn parse_snapshot(text: &str) -> Result<Snapshot, String> {
    let cmp = match serde_json::from_str::<Comparison>(text) {
        Ok(cmp) if cmp.schema == COMPARE_SCHEMA => cmp,
        _ => return Snapshot::from_json(text),
    };
    for (which, snapshot) in [("baseline", &cmp.baseline), ("current", &cmp.current)] {
        if let Some(reason) = snapshot.validate().into_iter().next() {
            return Err(format!("embedded {which} snapshot: {reason}"));
        }
    }
    Ok(cmp.current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::Registry;

    fn snapshot(stages: &[(&str, u64)]) -> Snapshot {
        let reg = Registry::new();
        for (name, wall) in stages {
            reg.add(&format!("engine.stage.{name}.wall_us"), *wall);
            reg.add(&format!("engine.stage.{name}.items_in"), 10);
        }
        reg.snapshot()
    }

    #[test]
    fn identical_runs_are_clean() {
        let a = snapshot(&[("partition", 50_000), ("detect", 400_000)]);
        let cmp = compare(&a, &a, DEFAULT_THRESHOLD, DEFAULT_MIN_WALL_US);
        assert!(cmp.is_clean());
        assert_eq!(cmp.stages.len(), 2);
        assert!(cmp.stages.iter().all(|s| (s.ratio - 1.0).abs() < 1e-9));
    }

    #[test]
    fn detects_injected_synthetic_regression() {
        // The acceptance-criterion case: inflate one stage's wall by 40%
        // over a 25% threshold and the comparison must flag exactly it.
        let baseline = snapshot(&[
            ("partition", 50_000),
            ("detect", 400_000),
            ("merge", 20_000),
        ]);
        let current = snapshot(&[
            ("partition", 50_000),
            ("detect", 560_000),
            ("merge", 20_000),
        ]);
        let cmp = compare(&baseline, &current, 0.25, DEFAULT_MIN_WALL_US);
        assert!(!cmp.is_clean());
        assert_eq!(cmp.regressions, 1);
        let detect = cmp
            .stages
            .iter()
            .find(|s| s.name == "engine.stage.detect.wall_us")
            .expect("detect stage present");
        assert!(detect.regressed);
        assert!((detect.ratio - 1.4).abs() < 1e-9);
        assert!(cmp
            .stages
            .iter()
            .filter(|s| s.name != "engine.stage.detect.wall_us")
            .all(|s| !s.regressed));
    }

    #[test]
    fn noise_floor_exempts_tiny_stages() {
        // 10 µs → 100 µs is a 10x blowup but below the 1 ms floor.
        let baseline = snapshot(&[("merge", 10)]);
        let current = snapshot(&[("merge", 100)]);
        let cmp = compare(&baseline, &current, 0.25, DEFAULT_MIN_WALL_US);
        assert!(cmp.is_clean());
        assert!((cmp.stages[0].ratio - 10.0).abs() < 1e-9);
    }

    #[test]
    fn new_and_vanished_stages_have_finite_ratios() {
        let baseline = snapshot(&[("detect", 100_000)]);
        let current = snapshot(&[("ingest", 100_000)]);
        let cmp = compare(&baseline, &current, 0.25, DEFAULT_MIN_WALL_US);
        assert!(cmp.stages.iter().all(|s| s.ratio.is_finite()));
        // A brand-new stage has no baseline to regress from.
        assert!(cmp.is_clean());
    }

    #[test]
    fn artifact_roundtrips_and_chains_as_baseline() {
        let baseline = snapshot(&[("detect", 100_000)]);
        let current = snapshot(&[("detect", 110_000)]);
        let cmp = compare(&baseline, &current, 0.25, DEFAULT_MIN_WALL_US);
        let json = serde_json::to_string_pretty(&cmp).expect("serializes");
        let parsed: Comparison = serde_json::from_str(&json).expect("parses");
        assert_eq!(parsed, cmp);
        // parse_snapshot on the artifact yields its `current` snapshot.
        let chained = parse_snapshot(&json).expect("chains");
        assert_eq!(chained, current);
        // ... and on a raw export yields the export.
        let raw = serde_json::to_string(&baseline).expect("serializes");
        assert_eq!(parse_snapshot(&raw).expect("raw"), baseline);
        // Garbage is an error.
        assert!(parse_snapshot("{\"schema\":\"other\"}").is_err());
    }

    #[test]
    fn audit_count_drift_is_a_hard_failure() {
        // A single off-by-one in a coverage counter fails the run even
        // though every wall time is identical.
        let mk = |kept: u64| {
            let reg = Registry::new();
            reg.add("engine.stage.detect.wall_us", 400_000);
            reg.add("audit.kc.candidates", 500);
            reg.add("audit.kc.kept", kept);
            reg.snapshot()
        };
        let cmp = compare(&mk(400), &mk(401), DEFAULT_THRESHOLD, DEFAULT_MIN_WALL_US);
        assert_eq!(cmp.regressions, 0, "no wall regression");
        assert_eq!(cmp.count_drifts, Some(1));
        assert!(!cmp.is_clean());
        let counts = cmp.counts.as_ref().expect("counts present");
        let kept = counts
            .iter()
            .find(|c| c.name == "audit.kc.kept")
            .expect("kept counter present");
        assert!(kept.drifted);
        assert_eq!((kept.baseline, kept.current), (Some(400), Some(401)));
        assert!(counts
            .iter()
            .filter(|c| c.name != "audit.kc.kept")
            .all(|c| !c.drifted));
        let text = cmp.render_human();
        assert!(text.contains("audit.kc.kept"));
        assert!(text.contains("DRIFTED"));
        assert!(text.contains("1 drift(s)"));
    }

    #[test]
    fn one_sided_audit_counters_never_drift() {
        // A baseline from before auditing existed (or with auditing off)
        // has no audit.* counters — the current run must still be clean.
        let baseline = snapshot(&[("detect", 100_000)]);
        let reg = Registry::new();
        reg.add("engine.stage.detect.wall_us", 100_000);
        reg.add("engine.stage.detect.items_in", 10);
        reg.add("audit.rc.candidates", 7);
        let current = reg.snapshot();
        let cmp = compare(&baseline, &current, DEFAULT_THRESHOLD, DEFAULT_MIN_WALL_US);
        assert!(cmp.is_clean());
        assert_eq!(cmp.count_drifts, Some(0));
        let counts = cmp.counts.as_ref().expect("counts present");
        assert_eq!(counts.len(), 1);
        assert_eq!(counts[0].baseline, None);
        assert_eq!(counts[0].current, Some(7));
    }

    #[test]
    fn one_sided_counters_land_in_added_and_removed() {
        // Any counter — stage wall, audit gauge or ad-hoc — present on
        // one side only must be named, so renames can't hide.
        let mk = |names: &[&str]| {
            let reg = Registry::new();
            for n in names {
                reg.add(n, 1);
            }
            reg.snapshot()
        };
        let baseline = mk(&["engine.stage.detect.wall_us", "served.view.rebuilds"]);
        let current = mk(&["engine.stage.detect.wall_us", "served.ingest.batch_count"]);
        let cmp = compare(&baseline, &current, DEFAULT_THRESHOLD, DEFAULT_MIN_WALL_US);
        assert_eq!(
            cmp.added.as_deref(),
            Some(&["served.ingest.batch_count".to_string()][..])
        );
        assert_eq!(
            cmp.removed.as_deref(),
            Some(&["served.view.rebuilds".to_string()][..])
        );
        assert!(cmp.is_clean(), "presence changes are informational");
        let text = cmp.render_human();
        assert!(text.contains("counter presence"), "{text}");
        assert!(
            text.contains("added    served.ingest.batch_count"),
            "{text}"
        );
        assert!(text.contains("removed  served.view.rebuilds"), "{text}");
        assert!(text.contains("1 added, 1 removed"), "{text}");

        // Identical snapshots render no presence section.
        let cmp = compare(&baseline, &baseline, DEFAULT_THRESHOLD, DEFAULT_MIN_WALL_US);
        assert_eq!(cmp.added.as_deref(), Some(&[][..]));
        assert_eq!(cmp.removed.as_deref(), Some(&[][..]));
        assert!(!cmp.render_human().contains("counter presence"));
    }

    #[test]
    fn pre_audit_artifact_still_parses() {
        // BENCH_obs.json files written before `counts` existed have no
        // such field; the Option must absorb that, and an absent
        // count_drifts counts as clean.
        let baseline = snapshot(&[("detect", 100_000)]);
        let snap = serde_json::to_string(&baseline).expect("snapshot serializes");
        let json = format!(
            "{{\"schema\":\"{COMPARE_SCHEMA}\",\"version\":{COMPARE_VERSION},\
             \"threshold\":0.25,\"min_wall_us\":1000,\"stages\":[],\
             \"regressions\":0,\"baseline\":{snap},\"current\":{snap}}}"
        );
        let parsed: Comparison = serde_json::from_str(&json).expect("parses without counts");
        assert_eq!(parsed.counts, None);
        assert_eq!(parsed.count_drifts, None);
        assert_eq!(parsed.added, None, "pre-presence artifacts parse too");
        assert_eq!(parsed.removed, None);
        assert!(parsed.is_clean());
    }

    #[test]
    fn render_human_names_regressions() {
        let baseline = snapshot(&[("detect", 100_000)]);
        let current = snapshot(&[("detect", 200_000)]);
        let cmp = compare(&baseline, &current, 0.25, DEFAULT_MIN_WALL_US);
        let text = cmp.render_human();
        assert!(text.contains("engine.stage.detect.wall_us"));
        assert!(text.contains("REGRESSED"));
        assert!(text.contains("1 regression(s)"));
    }
}
