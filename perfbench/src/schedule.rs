//! The seeded request schedule of the read/feed phase.
//!
//! Feeds go out every [`FEED_EVERY_S`] through the CRL window (or until
//! the phase ends). Reads arrive as a Poisson process at [`READ_RATE`]
//! conditioned on their count: `n` uniform arrival times, sorted, which
//! fixes the number of reads and the length of the phase while the seed
//! moves every arrival. The read mix is fixed by [`MIX`]; the seed
//! shuffles which read comes when and which certificate it names.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seconds between two `feed-day` requests.
pub const FEED_EVERY_S: f64 = 0.25;
/// Mean reads per second.
pub const READ_RATE: f64 = 30.0;
/// Fewest reads in a phase: p99 needs ten samples beyond it.
pub const MIN_READS: usize = 1000;
/// Fewest feeds in a phase: p90 needs ten samples beyond it.
pub const MIN_FEEDS: usize = 100;

/// The kinds of read the phase sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ReadKind {
    /// `status`: daemon summary, no view needed.
    Status,
    /// `status <fp>`: one certificate's verdict counts.
    StatusFp,
    /// `explain <fp>`: one certificate's decision chain.
    Explain,
    /// `table4`: the paper's Table 4 over the visible days.
    Table4,
    /// `report`: decision-audit coverage.
    Report,
}

/// Read mix by weight: `status` 2 : `status <fp>` 3 : `explain <fp>` 3 :
/// `table4` 1 : `report` 1.
pub const MIX: [(ReadKind, usize); 5] = [
    (ReadKind::Status, 2),
    (ReadKind::StatusFp, 3),
    (ReadKind::Explain, 3),
    (ReadKind::Table4, 1),
    (ReadKind::Report, 1),
];

impl ReadKind {
    /// Metric tag.
    pub fn tag(self) -> &'static str {
        match self {
            ReadKind::Status => "status",
            ReadKind::StatusFp => "status_fp",
            ReadKind::Explain => "explain",
            ReadKind::Table4 => "table4",
            ReadKind::Report => "report",
        }
    }

    /// Whether the daemon answers it from the cached view (so a read
    /// after a feed pays a view rebuild).
    pub fn needs_view(self) -> bool {
        self != ReadKind::Status
    }

    /// The protocol line for this read naming certificate `fp`.
    pub fn line(self, fp: &str) -> String {
        match self {
            ReadKind::Status => "status".to_string(),
            ReadKind::StatusFp => format!("status {fp}"),
            ReadKind::Explain => format!("explain {fp}"),
            ReadKind::Table4 => "table4".to_string(),
            ReadKind::Report => "report".to_string(),
        }
    }
}

/// One scheduled read.
#[derive(Debug, Clone, PartialEq)]
pub struct Read {
    /// Intended send time, seconds from the phase start.
    pub at_s: f64,
    /// What to ask.
    pub kind: ReadKind,
    /// Draw into the certificate pool (`draw % pool.len()`).
    pub draw: u64,
}

/// The whole phase: feed count and the read list in send order.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Feeds, one per [`FEED_EVERY_S`] from the phase start.
    pub feeds: usize,
    /// Reads, sorted by `at_s`.
    pub reads: Vec<Read>,
    /// Phase length in seconds.
    pub span_s: f64,
}

impl Schedule {
    /// The schedule for a phase of `seconds` over a window of
    /// `window_days` feedable days. The phase is stretched when it would
    /// hold fewer than [`MIN_READS`] reads or [`MIN_FEEDS`] feeds.
    pub fn new(seed: u64, seconds: f64, window_days: usize) -> Schedule {
        let weight: usize = MIX.iter().map(|(_, w)| w).sum();
        let seconds = seconds.max(MIN_FEEDS.min(window_days) as f64 * FEED_EVERY_S);
        let wanted = ((READ_RATE * seconds).ceil() as usize).max(MIN_READS);
        let n = wanted.div_ceil(weight) * weight;
        let span_s = n as f64 / READ_RATE;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut kinds: Vec<ReadKind> = MIX
            .iter()
            .flat_map(|(k, w)| std::iter::repeat_n(*k, w * n / weight))
            .collect();
        for i in (1..kinds.len()).rev() {
            let j = rng.gen_range(0..=i);
            kinds.swap(i, j);
        }
        let mut times: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * span_s).collect();
        times.sort_by(f64::total_cmp);
        let reads = times
            .into_iter()
            .zip(kinds)
            .map(|(at_s, kind)| Read {
                at_s,
                kind,
                draw: rng.gen(),
            })
            .collect();
        let feeds = ((span_s / FEED_EVERY_S) as usize).min(window_days);
        Schedule {
            feeds,
            reads,
            span_s,
        }
    }

    /// Reads of one kind.
    #[cfg(test)]
    pub fn count(&self, kind: ReadKind) -> usize {
        self.reads.iter().filter(|r| r.kind == kind).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_seeds_differ_in_inputs_not_in_counts_or_mix() {
        let a = Schedule::new(1, 35.0, 186);
        let b = Schedule::new(2, 35.0, 186);
        assert_ne!(a.reads, b.reads);
        assert_eq!(a.reads.len(), b.reads.len());
        assert_eq!(a.feeds, b.feeds);
        assert_eq!(a.span_s, b.span_s);
        for (kind, weight) in MIX {
            assert_eq!(a.count(kind), b.count(kind), "{kind:?}");
            assert_eq!(a.count(kind) * 10, a.reads.len() * weight, "{kind:?}");
        }
        assert!(a.reads.len() >= MIN_READS);
        assert!(a.reads.windows(2).all(|w| w[0].at_s <= w[1].at_s));
        assert!(a.reads.iter().all(|r| (0.0..a.span_s).contains(&r.at_s)));
        assert_eq!(Schedule::new(1, 35.0, 186), a, "same seed, same inputs");
    }

    #[test]
    fn phase_holds_enough_feeds_and_stops_at_the_window() {
        let short = Schedule::new(7, 10.0, 186);
        assert_eq!(short.reads.len(), MIN_READS);
        assert_eq!(short.feeds, 133);
        assert_eq!(Schedule::new(7, 10.0, 90).feeds, 90);
        assert_eq!(Schedule::new(7, 120.0, 186).feeds, 186);
    }
}
