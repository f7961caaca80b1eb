//! The metric catalogue and the result line.
//!
//! Every workload prints every end-to-end metric (untraced run) or every
//! per-layer metric (traced run). A per-layer metric of a layer the
//! workload never enters reads 0: that layer's prediction on that
//! workload is "no change".

use std::collections::BTreeMap;

/// End-to-end metrics: name, unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("cpu_s", "s"),
];

/// Render sections of `Experiments::run_all`, in its order.
pub const SECTIONS: [&str; 15] = [
    "taxonomy",
    "table3",
    "fig4",
    "fig5a",
    "fig5b",
    "table4",
    "table5",
    "fig6",
    "table6",
    "fig7",
    "fig8",
    "fig9",
    "table7",
    "mitigations",
    "first_party",
];

/// Per-layer metrics: name, unit.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("worldsim.build_s", "s"),
        ("worldsim.certs", "count"),
        ("worldsim.ct_entries", "count"),
        ("worldsim.crl_records", "count"),
        ("worldsim.whois_records", "count"),
        ("worldsim.adns_domains", "count"),
        ("worldlog.extract_s", "s"),
        ("worldlog.encode_s", "s"),
        ("worldlog.bytes", "bytes"),
        ("worldlog.decode_s", "s"),
        ("worldlog.rewrite_s", "s"),
        ("worldlog.materialise_s", "s"),
        ("worldlog.events", "count"),
        ("engine.run_s", "s"),
        ("engine.partition_ms", "ms"),
        ("engine.detect_ms", "ms"),
        ("engine.detect_kc_ms", "ms"),
        ("engine.detect_rc_ms", "ms"),
        ("engine.detect_mtd_ms", "ms"),
        ("engine.merge_ms", "ms"),
        ("engine.items_in", "count"),
        ("engine.items_out", "count"),
        ("engine.attempts", "count"),
        ("engine.view_ms", "ms"),
        ("engine.view_rebuilds", "count"),
        ("engine.ingest_ms", "ms"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    out.extend(SECTIONS.iter().map(|s| (format!("render.{s}_ms"), "ms")));
    out.push(("render.replay_report_ms".to_string(), "ms"));
    for (n, u) in [
        ("audit.index_ms", "ms"),
        ("audit.index_builds", "count"),
        ("audit.decisions", "count"),
        ("served.boot_s", "s"),
    ] {
        out.push((n.to_string(), u));
    }
    for (n, u) in [
        ("served.read_p50_ms", "ms"),
        ("served.read_p99_ms", "ms"),
        ("served.feed_p50_ms", "ms"),
        ("served.feed_p90_ms", "ms"),
    ] {
        out.push((n.to_string(), u));
    }
    for tag in ["status", "status_fp", "explain", "table4", "report"] {
        out.push((format!("served.{tag}_p50_ms"), "ms"));
        out.push((format!("served.{tag}_p90_ms"), "ms"));
    }
    for tag in ["status", "explain", "table4", "report", "feed"] {
        out.push((format!("served.query_{tag}_ms"), "ms"));
    }
    for (n, u) in [
        ("served.view_hit_ratio", "ratio"),
        ("served.actor_busy_share", "ratio"),
        ("served.lateness_max_ms", "ms"),
        ("served.lateness_p99_ms", "ms"),
        ("served.reads_over_limit", "count"),
    ] {
        out.push((n.to_string(), u));
    }
    for layer in crate::layers::LAYERS {
        out.push((format!("self.{layer}_s"), "s"));
    }
    for layer in crate::layers::LAYERS {
        out.push((format!("mem.{layer}_mb"), "MiB"));
    }
    out.push(("trace.overhead_s".to_string(), "s"));
    out
}

/// One run's outcome.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (layer calls, reads, feeds, output checks).
    pub attempted: u64,
    /// Operations that failed: error replies, transport errors, degraded
    /// shards, output mismatches.
    pub failed: u64,
    /// Why each failure happened (printed to stderr).
    pub failures: Vec<String>,
    /// Measured values by metric name.
    pub values: BTreeMap<String, f64>,
}

impl Outcome {
    /// Record a successful operation.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Record a failed operation and why.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        self.failures.push(why.into());
    }

    /// Record a check: passes when `ok`.
    pub fn check(&mut self, ok: bool, why: impl Into<String>) {
        if ok {
            self.ok();
        } else {
            self.fail(why);
        }
    }

    /// Set a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// The result line: every metric of the run's kind, in catalogue
    /// order. An end-to-end metric the workload failed to measure is an
    /// error; a per-layer metric of a skipped layer reads 0.
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        let wanted: Vec<(String, &str)> = if traced {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|(n, u)| (n.to_string(), *u))
                .collect()
        };
        let mut metrics = Vec::new();
        for (name, unit) in wanted {
            let value = match self.values.get(&name) {
                Some(v) => *v,
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// A JSON number with every digit the measurement has; an infinite
/// latency (a failed operation) prints as 1e300, over any limit.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "1e300".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_limits() {
        let mut names: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        names.extend(END_TO_END.iter().map(|(n, _)| n.to_string()));
        let count = names.len();
        assert!(count - END_TO_END.len() <= 128);
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "duplicate metric name");
        assert!(names.iter().all(|n| n.len() <= 64));
    }

    #[test]
    fn result_line_lists_every_metric_in_order() {
        let mut o = Outcome::default();
        for (n, _) in END_TO_END {
            o.set(n, 1.5);
        }
        o.ok();
        let line = o.result_line(false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"cpu_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        o.values.remove("wall_s");
        assert!(o.result_line(false).is_err());
        assert!(o
            .result_line(true)
            .unwrap()
            .contains("\"trace.overhead_s\""));
    }
}
