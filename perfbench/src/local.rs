//! The daemon's state, rebuilt in process over the same world.
//!
//! `served-mix` uses it twice: to draw fingerprints from the certificates
//! already audited at the start of the CRL window, and to check the
//! daemon's final `table4` and `report` against a view over the same
//! days. It goes through the same public calls the daemon answers with:
//! `IncrementalState::ingest_delta` per fed day, `view(true)`, the
//! audit's fingerprint index, `AuditReport::render_coverage` and
//! `TableView::table4`.

use engine::{IncrementalState, StateView};
use psl::SuffixList;
use stale_types::{Date, Duration};
use worldsim::{DayFeed, WorldDatasets};

/// Incremental state over one world, fed the way the daemon is fed.
pub struct Local<'w> {
    data: &'w WorldDatasets,
    psl: &'w SuffixList,
    feed: DayFeed<'w>,
    state: IncrementalState<'w>,
    fed: Option<Date>,
}

/// The last day before the CRL window: the daemon is caught up through
/// it before the measured phase feeds the window day by day.
pub fn catch_up_day(data: &WorldDatasets) -> Date {
    data.crl_window.start - Duration::days(1)
}

/// Feedable days in the CRL window.
pub fn window_days(data: &WorldDatasets) -> usize {
    data.crl_window.len().num_days().max(0) as usize
}

impl<'w> Local<'w> {
    /// Fresh state over `data` at `shards`.
    pub fn new(data: &'w WorldDatasets, psl: &'w SuffixList, shards: usize) -> Local<'w> {
        Local {
            data,
            psl,
            feed: DayFeed::new(data),
            state: IncrementalState::new(data, psl, shards),
            fed: None,
        }
    }

    /// Ingest everything after the last fed day through `day` as one
    /// delta, as the daemon's `feed-day <day>` does.
    pub fn feed_through(&mut self, day: Date) {
        let from = match self.fed {
            Some(fed) => fed.succ(),
            None => self.feed.start(),
        };
        self.state
            .ingest_delta(&self.feed.delta(from, day), &obs::NullSink);
        self.fed = Some(day);
    }

    /// Ingest the next day, as `feed-day` without a date does.
    pub fn feed_next(&mut self) -> Result<(), String> {
        let day = self
            .fed
            .map(Date::succ)
            .unwrap_or_else(|| self.feed.start());
        if day > self.feed.end() {
            return Err(format!("the feed ends {}", self.feed.end()));
        }
        self.feed_through(day);
        Ok(())
    }

    /// The audited view over every fed day.
    pub fn view(&self) -> Result<StateView, String> {
        self.state.view(true).map_err(|e| e.to_string())
    }

    /// Table 4 over `view`, as the daemon renders it.
    pub fn table4(&self, view: &StateView) -> String {
        stale_core::tables::TableView {
            data: self.data,
            psl: self.psl,
            suite: &view.suite,
        }
        .table4()
    }
}

/// Every certificate `view`'s audit has a decision for, in index order.
pub fn fingerprints(view: &StateView) -> Vec<String> {
    view.audit
        .as_ref()
        .map(|a| a.fingerprint_index().into_keys().collect())
        .unwrap_or_default()
}

/// The certificate a read's draw names (empty when the pool is empty,
/// which makes every fingerprint read fail).
pub fn pick(pool: &[String], draw: u64) -> &str {
    if pool.is_empty() {
        return "";
    }
    &pool[(draw % pool.len() as u64) as usize]
}
