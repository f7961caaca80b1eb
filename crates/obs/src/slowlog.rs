//! The slow-query log: bounded capture of queries that blew a wall-time
//! threshold, span tree included.
//!
//! The daemon's latency histograms say *that* queries were slow; the
//! slowlog says *why*, by keeping the completed span tree of each
//! offender. Capture is bounded two ways — a fixed entry capacity
//! (oldest evicted first) and a fixed command-tag vocabulary (the
//! caller passes `Request::tag`-style tags, never client input) — so
//! a hostile client can neither grow the log without bound nor mint
//! entry labels. Like everything in this crate the log is write-only
//! from the query path's point of view: recording never changes an
//! answer.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Entry capacity of the daemon's slow-query log.
pub const SLOWLOG_CAP: usize = 64;

/// One captured slow query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlowQueryRecord {
    /// Monotonic capture sequence number (survives eviction, so gaps
    /// reveal how many entries rolled off).
    pub seq: u64,
    /// Fixed-vocabulary command tag (e.g. `table4`).
    pub tag: String,
    /// Total wall time, microseconds.
    pub wall_us: u64,
    /// Rendered span tree of the query (empty when tracing was off).
    pub tree: String,
}

/// The bounded log. `disabled()` records nothing.
pub struct SlowLog {
    threshold_us: Option<u64>,
    cap: usize,
    next_seq: u64,
    entries: VecDeque<SlowQueryRecord>,
}

impl SlowLog {
    /// A log capturing queries at or above `threshold_us`, keeping the
    /// newest `cap` entries.
    pub fn new(threshold_us: u64, cap: usize) -> SlowLog {
        SlowLog {
            threshold_us: Some(threshold_us),
            cap: cap.max(1),
            next_seq: 0,
            entries: VecDeque::new(),
        }
    }

    /// A log that never records (no `--slow-query-us` configured).
    pub fn disabled() -> SlowLog {
        SlowLog {
            threshold_us: None,
            cap: 1,
            next_seq: 0,
            entries: VecDeque::new(),
        }
    }

    /// Whether capture is configured.
    pub fn enabled(&self) -> bool {
        self.threshold_us.is_some()
    }

    /// The capture threshold, if configured.
    pub fn threshold_us(&self) -> Option<u64> {
        self.threshold_us
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Record `tag` if `wall_us` meets the threshold; evicts the oldest
    /// entry past capacity. Returns whether an entry was captured.
    pub fn record(&mut self, tag: &str, wall_us: u64, tree: &str) -> bool {
        let Some(threshold) = self.threshold_us else {
            return false;
        };
        if wall_us < threshold {
            return false;
        }
        if self.entries.len() == self.cap {
            self.entries.pop_front();
        }
        self.entries.push_back(SlowQueryRecord {
            seq: self.next_seq,
            tag: tag.to_string(),
            wall_us,
            tree: tree.to_string(),
        });
        self.next_seq = self.next_seq.saturating_add(1);
        true
    }

    /// Captured entries, oldest first.
    pub fn records(&self) -> Vec<SlowQueryRecord> {
        self.entries.iter().cloned().collect()
    }

    /// Human-readable rendering: a header line, then each entry with its
    /// indented span tree.
    pub fn render(&self) -> String {
        let Some(threshold) = self.threshold_us else {
            return "slow-query log disabled (boot with --slow-query-us)\n".to_string();
        };
        let mut out = format!(
            "slow-query log: {} of {} entr{} held, {} captured since boot, threshold {} µs\n",
            self.entries.len(),
            self.cap,
            if self.entries.len() == 1 { "y" } else { "ies" },
            self.next_seq,
            threshold
        );
        for rec in &self.entries {
            out.push_str(&format!(
                "#{} {} {}\n",
                rec.seq,
                rec.tag,
                crate::trace::human_us(rec.wall_us)
            ));
            if rec.tree.is_empty() {
                continue;
            }
            for line in rec.tree.lines() {
                out.push_str("  ");
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SlowLog::disabled();
        assert!(!log.enabled());
        assert!(!log.record("table4", 1_000_000, "trace\n"));
        assert!(log.is_empty());
        assert!(log.render().contains("disabled"));
    }

    #[test]
    fn threshold_gates_capture() {
        let mut log = SlowLog::new(500, 8);
        assert!(!log.record("ping", 499, ""));
        assert!(log.record("table4", 500, "trace\n  query.table4  1 ms\n"));
        assert!(log.record("report", 9_000, ""));
        assert_eq!(log.len(), 2);
        let recs = log.records();
        assert_eq!(recs[0].tag, "table4");
        assert_eq!(recs[0].seq, 0);
        assert_eq!(recs[1].seq, 1);
    }

    #[test]
    fn capacity_evicts_oldest_but_seq_keeps_counting() {
        let mut log = SlowLog::new(0, 2);
        for i in 0..5u64 {
            assert!(log.record("status", i + 1, ""));
        }
        assert_eq!(log.len(), 2);
        let recs = log.records();
        assert_eq!(recs[0].seq, 3);
        assert_eq!(recs[1].seq, 4);
        assert!(log.render().contains("5 captured since boot"));
    }

    #[test]
    fn render_indents_span_trees() {
        let mut log = SlowLog::new(0, 4);
        log.record("table4", 12_345, "trace\n  query.table4  12.35 ms\n");
        let text = log.render();
        assert!(text.contains("#0 table4 12.35 ms"), "{text}");
        assert!(text.contains("\n    query.table4"), "{text}");
        assert!(text.contains("threshold 0 µs"), "{text}");
    }
}
