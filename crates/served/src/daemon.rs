//! The resident daemon: a state-actor thread owning the world and the
//! incremental detector state, fronted by a TCP accept loop.
//!
//! # Architecture
//!
//! [`engine::IncrementalState`] borrows the [`worldsim::WorldDatasets`]
//! it detects over, so the daemon cannot share it across threads behind
//! a lock without self-referential ownership. Instead a single
//! **state-actor** thread builds the world, owns every borrow, and
//! serves commands from an mpsc queue; each TCP connection runs in its
//! own thread and exchanges [`Request`]s with the actor over a reply
//! channel. Serialized state access is also what makes ingestion
//! atomic: a `feed-day` either has not started or has fully finished by
//! the time any query is answered, so a concurrent client can never
//! observe a partially ingested day.
//!
//! # Consistency delay
//!
//! `delay_days` holds ingested days back from queries: day `D` becomes
//! visible only once the fed cursor reaches `D + delay_days`. The delay
//! is measured in fed days — never wall time — so a replay of the same
//! command sequence reproduces the same responses byte for byte. With
//! the default delay of 0, queries see every fed day immediately.
//!
//! # Equivalence
//!
//! Query answers are rendered from [`engine::StateView`] — the same
//! finish + merge the batch engine runs, including the one shared
//! sort-merge CRL×CT join (`stale_core::detector::key_compromise`'s
//! `CrlKeyIndex` probe) that batch and incremental shards use — and
//! from the shared [`stale_core::tables::TableView`] renderers, so
//! every `table3`, `table4`, `explain` and `report` body is
//! byte-identical to a fresh batch run over the same ingested days
//! (`tests/served_equivalence.rs` at the workspace root asserts this
//! across shard counts and across snapshot/restart boundaries).

// Query/build self-timing with `Instant` is sanctioned here; it feeds
// the metrics registry, never detection results.
// stale-lint: trusted-file(wallclock-in-detector)

use crate::proto;
use crate::subs::{Subscribers, KIND_EVENT, KIND_SPAN};
use engine::{Checkpoint, IncrementalState, StateView};
use obs::trace::{SpanId, Trace};
use obs::{Obs, SlowLog, WindowedHistogram};
use psl::SuffixList;
use serde::Serialize;
use stale_types::{Date, Duration};
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;
use worldsim::{DayFeed, ScenarioConfig, World, WorldDatasets};

/// Daemon configuration: which world to boot, at what shard width, with
/// what visibility delay.
pub struct DaemonConfig {
    /// The scenario the state-actor simulates at boot.
    pub scenario: ScenarioConfig,
    /// Preset label reported by `status` (`paper`, `small`, `tiny`, …).
    pub preset: String,
    /// Partition width (answers are byte-identical for every width).
    pub shards: usize,
    /// Days a fed day is held back from queries (0 = immediate).
    pub delay_days: i64,
    /// Checkpoint path: restored at boot when present and matching (a
    /// batch, incremental or daemon checkpoint of the same world, taken
    /// at any width: boot re-folds the feed through its day), and the
    /// default target of the `snapshot` command.
    pub checkpoint: Option<PathBuf>,
    /// Address for the read-only HTTP telemetry plane (`None` = off).
    pub http: Option<String>,
    /// Capture queries at or above this wall time in the slow-query log
    /// (`None` = slowlog off, no per-query tracing). The log keeps the
    /// last [`obs::slowlog::SLOWLOG_CAP`] entries.
    pub slow_query_us: Option<u64>,
    /// Auto-checkpoint: snapshot applied state to the boot checkpoint
    /// after every N ingested days (`None` = only on explicit
    /// `snapshot` commands). Needs `checkpoint`.
    pub checkpoint_every: Option<u64>,
    /// Boot the world from an exported `stale-obs-worldlog` JSONL file
    /// instead of simulating `scenario` (the daemon as a log consumer:
    /// `feed-day` then replays log segments).
    pub worldlog: Option<PathBuf>,
}

/// Per-subscriber push-queue depth (full queues drop, never block).
const SUB_QUEUE: usize = 256;

/// Rolling-window ring capacity (the last N ingest batches).
const WINDOW_BATCHES: usize = 16;

impl DaemonConfig {
    /// A config over `scenario` with defaults: 1 shard, no delay, no
    /// checkpoint.
    pub fn new(preset: &str, scenario: ScenarioConfig) -> DaemonConfig {
        DaemonConfig {
            scenario,
            preset: preset.to_string(),
            shards: 1,
            delay_days: 0,
            checkpoint: None,
            http: None,
            slow_query_us: None,
            checkpoint_every: None,
            worldlog: None,
        }
    }
}

/// One parsed protocol command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness (and readiness: the reply waits for the state-actor).
    Ping,
    /// Daemon status, or one certificate's verdict summary by prefix.
    Status(Option<String>),
    /// One certificate's full decision chain by fingerprint prefix.
    Explain(String),
    /// One certificate's joined world-event + audit-decision timeline.
    Timeline(String),
    /// Table 3 (dataset inventory) over the visible days.
    Table3,
    /// Table 4 (detection rates) over the visible days.
    Table4,
    /// Decision-audit coverage over the visible days.
    Report,
    /// Advance the fed cursor to the next day, or through a date.
    FeedDay(Option<Date>),
    /// Snapshot applied state to the given path (or the boot checkpoint).
    Snapshot(Option<PathBuf>),
    /// Metrics-registry JSON export.
    Metrics,
    /// Readiness: world built and the consistency delay satisfied.
    Ready,
    /// Rolling-window ingest metrics (last N batches).
    Window,
    /// The slow-query log (queries over `--slow-query-us`, span trees).
    SlowLog,
    /// Flip this connection into push mode (handled connection-side;
    /// the state-actor never sees it).
    Subscribe,
    /// Reply, then shut the daemon down.
    Shutdown,
}

impl Request {
    /// Canonical command tag — the `served.query.<tag>_us` histogram
    /// key. A fixed vocabulary so client input can never mint
    /// unbounded metric names.
    pub fn tag(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Status(_) => "status",
            Request::Explain(_) => "explain",
            Request::Timeline(_) => "timeline",
            Request::Table3 => "table3",
            Request::Table4 => "table4",
            Request::Report => "report",
            Request::FeedDay(_) => "feed-day",
            Request::Snapshot(_) => "snapshot",
            Request::Metrics => "metrics",
            Request::Ready => "ready",
            Request::Window => "window",
            Request::SlowLog => "slowlog",
            Request::Subscribe => "subscribe",
            Request::Shutdown => "shutdown",
        }
    }
}

/// Parse one request line. Errors name the problem without echoing
/// unbounded input.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let mut words = line.split_whitespace();
    let Some(cmd) = words.next() else {
        return Err("empty command".to_string());
    };
    let rest: Vec<&str> = words.collect();
    let none = |req: Request| match rest.as_slice() {
        [] => Ok(req),
        _ => Err(format!("{cmd} takes no arguments")),
    };
    match cmd {
        "ping" => none(Request::Ping),
        "table3" => none(Request::Table3),
        "table4" => none(Request::Table4),
        "report" => none(Request::Report),
        "metrics" => none(Request::Metrics),
        "ready" => none(Request::Ready),
        "window" => none(Request::Window),
        "slowlog" => none(Request::SlowLog),
        "subscribe" => none(Request::Subscribe),
        "shutdown" => none(Request::Shutdown),
        "status" => match rest.as_slice() {
            [] => Ok(Request::Status(None)),
            [prefix] => Ok(Request::Status(Some((*prefix).to_string()))),
            _ => Err("status takes at most one fingerprint prefix".to_string()),
        },
        "explain" => match rest.as_slice() {
            [prefix] => Ok(Request::Explain((*prefix).to_string())),
            _ => Err("explain takes exactly one fingerprint prefix".to_string()),
        },
        "timeline" => match rest.as_slice() {
            [prefix] => Ok(Request::Timeline((*prefix).to_string())),
            _ => Err("timeline takes exactly one fingerprint prefix".to_string()),
        },
        "feed-day" => match rest.as_slice() {
            [] => Ok(Request::FeedDay(None)),
            [day] => Date::parse(day)
                .map(|d| Request::FeedDay(Some(d)))
                .map_err(|_| "feed-day takes an optional YYYY-MM-DD date".to_string()),
            _ => Err("feed-day takes at most one date".to_string()),
        },
        "snapshot" => match rest.as_slice() {
            [] => Ok(Request::Snapshot(None)),
            [path] => Ok(Request::Snapshot(Some(PathBuf::from(path)))),
            _ => Err("snapshot takes at most one path".to_string()),
        },
        other => Err(format!("unknown command {other:?}")),
    }
}

/// Messages into the state-actor.
pub(crate) enum ActorMsg {
    Request {
        req: Request,
        reply: SyncSender<Result<String, String>>,
    },
    Stop,
}

/// Relay one request to the state-actor and wait for its reply. Shared
/// by the frame-protocol connections and the HTTP plane so both fronts
/// see identical actor semantics (and identical shutdown errors).
pub(crate) fn ask_actor(tx: &Sender<ActorMsg>, req: Request) -> Result<String, String> {
    let (reply_tx, reply_rx) = mpsc::sync_channel(1);
    if tx
        .send(ActorMsg::Request {
            req,
            reply: reply_tx,
        })
        .is_err()
    {
        return Err("daemon is shutting down".to_string());
    }
    reply_rx
        .recv()
        .unwrap_or_else(|_| Err("daemon dropped the request".to_string()))
}

/// The per-batch ingest completion record published to subscribers.
#[derive(Serialize)]
struct IngestSpanRecord {
    name: String,
    fed_through: String,
    applied_through: String,
    days: i64,
    events: usize,
    wall_us: u64,
}

/// The state-actor: owns the world, the feed and the incremental state,
/// and serves requests one at a time.
struct Actor<'w> {
    preset: String,
    data: &'w WorldDatasets,
    psl: &'w SuffixList,
    feed: DayFeed<'w>,
    state: IncrementalState<'w>,
    /// Last day the operator fed (>= applied cursor by `delay_days`).
    fed: Option<Date>,
    delay_days: i64,
    checkpoint: Option<PathBuf>,
    /// Stale events emitted since boot (not persisted in snapshots).
    events: usize,
    /// Auto-checkpoint period in ingested days (`None` = off).
    checkpoint_every: Option<u64>,
    /// Days ingested since the last (auto or explicit) checkpoint.
    days_since_checkpoint: u64,
    /// Cached merged view; invalidated by ingestion.
    view: Option<StateView>,
    /// Cached fingerprint → decision-index map over the view's audit;
    /// invalidated with the view, so `explain`/`status <fp>` lookups
    /// stay O(log n) between ingests however large the store grows.
    explain_index: Option<std::collections::BTreeMap<String, Vec<usize>>>,
    /// Lazily extracted world-fact log (layer 1 of the `timeline`
    /// join). The world is immutable for the daemon's lifetime, so this
    /// never invalidates.
    worldlog: Option<worldsim::WorldLog>,
    obs: Obs,
    /// Attached push subscribers (publishing never blocks the actor).
    subs: Subscribers,
    /// Bounded slow-query log (`--slow-query-us`).
    slowlog: SlowLog,
    /// Rolling per-ingest-batch wall times (last N batches).
    window: WindowedHistogram,
    /// Per-query trace, live only while the slowlog is armed and a
    /// request is being handled; `view()` parents its rebuild span here.
    query_trace: Trace,
    query_span: SpanId,
}

impl<'w> Actor<'w> {
    /// The newest day visible to queries once `fed` days are in.
    fn visible_end(&self, fed: Date) -> Option<Date> {
        let end = fed - Duration::days(self.delay_days.max(0));
        (end >= self.feed.start()).then_some(end)
    }

    /// Advance the fed cursor to `target`, ingesting every newly visible
    /// day atomically.
    fn feed_to(&mut self, target: Date) -> Result<String, String> {
        if target > self.feed.end() {
            return Err(format!(
                "cannot feed through {target}: the feed ends {}",
                self.feed.end()
            ));
        }
        if let Some(fed) = self.fed {
            if target <= fed {
                return Err(format!("already fed through {fed}"));
            }
        }
        let mut emitted = 0usize;
        if let Some(visible) = self.visible_end(target) {
            let next = match self.state.through() {
                Some(applied) => applied.succ(),
                None => self.feed.start(),
            };
            if next <= visible {
                let started = Instant::now();
                let delta = self.feed.delta(next, visible);
                let events = self.state.ingest_delta(&delta, &self.obs.registry);
                let batch_us = started.elapsed().as_micros() as u64;
                emitted = events.len();
                self.events += emitted;
                self.view = None;
                self.explain_index = None;
                self.days_since_checkpoint += ((visible - next).num_days() + 1).max(0) as u64;
                // Publishing is observation only: records go out on
                // bounded queues after the state change is complete, so
                // attached subscribers cannot perturb ingest results.
                for event in &events {
                    self.obs.registry.add(detector_counter(event), 1);
                    if let Ok(body) = serde_json::to_string(event) {
                        self.subs.publish(KIND_EVENT, &body);
                    }
                }
                self.window.roll(&visible.to_string());
                self.window.observe(batch_us);
                self.obs
                    .registry
                    .observe_latency_us("served.ingest.batch_wall_us", batch_us);
                let span = IngestSpanRecord {
                    name: "served.ingest".to_string(),
                    fed_through: target.to_string(),
                    applied_through: visible.to_string(),
                    days: (visible - next).num_days() + 1,
                    events: emitted,
                    wall_us: batch_us,
                };
                if let Ok(body) = serde_json::to_string(&span) {
                    self.subs.publish(KIND_SPAN, &body);
                }
            }
        }
        // Auto-checkpoint (`--checkpoint-every N`): snapshot through the
        // same path as the explicit command once N days have been
        // ingested since the last save. A failed save is reported and
        // retried after the next batch; it never blocks ingestion.
        if let Some(every) = self.checkpoint_every {
            if self.days_since_checkpoint >= every {
                match self.snapshot(None) {
                    Ok(_) => {
                        self.days_since_checkpoint = 0;
                        self.obs.registry.add("served.checkpoint.auto", 1);
                    }
                    Err(e) => eprintln!("stale-served: auto-checkpoint failed: {e}"),
                }
            }
        }
        self.fed = Some(target);
        let lag = match self.state.through() {
            Some(applied) => (target - applied).num_days().max(0) as u64,
            None => (target - self.feed.start()).num_days().max(0) as u64 + 1,
        };
        self.obs
            .registry
            .observe_depth("served.ingest.lag_days", lag);
        Ok(format!(
            "fed through {target}; applied through {}; {emitted} new event(s), {} since boot",
            self.applied_label(),
            self.events
        ))
    }

    /// Readiness: the world is built (we are answering at all) and every
    /// day the consistency delay makes visible has been applied.
    fn ready(&self) -> Result<String, String> {
        let Some(fed) = self.fed else {
            return Ok("ready; nothing fed yet".to_string());
        };
        let Some(visible) = self.visible_end(fed) else {
            return Ok(format!(
                "ready; fed through {fed}, nothing visible yet (delay {})",
                self.delay_days.max(0)
            ));
        };
        match self.state.through() {
            Some(applied) if applied >= visible => Ok(format!("ready; applied through {applied}")),
            applied => Err(format!(
                "syncing: visible through {visible}, applied through {}",
                match applied {
                    Some(d) => d.to_string(),
                    None => "none".to_string(),
                }
            )),
        }
    }

    fn applied_label(&self) -> String {
        match self.state.through() {
            Some(d) => d.to_string(),
            None => "none".to_string(),
        }
    }

    /// The cached merged view, rebuilt after ingestion. Always audited:
    /// `status`, `explain` and `report` need the decision store.
    fn view(&mut self) -> Result<&StateView, String> {
        if self.view.is_none() {
            // Parents under the live query's root span when the slowlog
            // is armed; a disabled trace makes this a no-op.
            let _span = self.query_trace.child(self.query_span, "view.rebuild");
            let started = Instant::now();
            let view = self.state.view(true).map_err(|e| e.to_string())?;
            self.obs.registry.observe_latency_us(
                "served.view.rebuild_us",
                started.elapsed().as_micros() as u64,
            );
            self.obs.registry.add("served.view.rebuilds", 1);
            self.view = Some(view);
        }
        self.view
            .as_ref()
            .ok_or_else(|| "view unavailable".to_string())
    }

    /// The audited view's decision store.
    fn audit(&mut self) -> Result<&obs::AuditReport, String> {
        self.view()?
            .audit
            .as_ref()
            .ok_or_else(|| "decision audit unavailable".to_string())
    }

    /// The decision store plus its cached fingerprint index. The index
    /// is built once per view rebuild (invalidated together with the
    /// view on ingest), so repeated `explain`/`status <fp>` lookups
    /// stay logarithmic however large the store grows.
    fn audit_indexed(
        &mut self,
    ) -> Result<
        (
            &obs::AuditReport,
            &std::collections::BTreeMap<String, Vec<usize>>,
        ),
        String,
    > {
        self.view()?;
        let audit = self
            .view
            .as_ref()
            .and_then(|v| v.audit.as_ref())
            .ok_or_else(|| "decision audit unavailable".to_string())?;
        if self.explain_index.is_none() {
            let started = Instant::now();
            let index = audit.fingerprint_index();
            self.obs.registry.observe_latency_us(
                "served.explain.index_build_us",
                started.elapsed().as_micros() as u64,
            );
            self.obs.registry.add("served.explain.index_builds", 1);
            self.explain_index = Some(index);
        }
        let index = self
            .explain_index
            .as_ref()
            .ok_or_else(|| "explain index unavailable".to_string())?;
        Ok((audit, index))
    }

    /// The joined timeline for one certificate: layer-1 world facts from
    /// the (lazily extracted) world log and layer-2 audit decisions from
    /// the visible view. Layer-3 spans live client-side, so the daemon
    /// renders the first two layers; `stale-bench timeline --trace`
    /// joins spans offline.
    fn timeline(&mut self, prefix: &str) -> Result<String, String> {
        self.view()?;
        if self.worldlog.is_none() {
            let started = Instant::now();
            let log = worldsim::WorldLog::from_datasets(self.data);
            self.obs.registry.observe_latency_us(
                "served.timeline.extract_us",
                started.elapsed().as_micros() as u64,
            );
            self.worldlog = Some(log);
        }
        let log = self
            .worldlog
            .as_ref()
            .ok_or_else(|| "world log unavailable".to_string())?;
        let audit = self.view.as_ref().and_then(|v| v.audit.as_ref());
        stale_core::timeline::render_timeline(log, audit, None, prefix)
    }

    // stale-lint: entry(actor)
    fn handle(&mut self, req: &Request) -> Result<String, String> {
        if !self.slowlog.enabled() {
            return self.dispatch(req);
        }
        // Slowlog armed: trace the query so a capture carries its span
        // tree. Tracing is write-only — the response bytes are computed
        // exactly as in the untraced path.
        let started = Instant::now();
        let trace = Trace::enabled();
        self.query_trace = trace.clone();
        let resp = {
            // The guard closes the root span when this block ends, just
            // before the tree is rendered below.
            let root = trace.child(SpanId::none(), &format!("query.{}", req.tag()));
            self.query_span = root.id();
            self.dispatch(req)
        };
        self.query_trace = Trace::disabled();
        self.query_span = SpanId::none();
        let wall_us = started.elapsed().as_micros() as u64;
        if self
            .slowlog
            .record(req.tag(), wall_us, &trace.render_tree())
        {
            self.obs.registry.add("served.slowlog.recorded", 1);
        }
        resp
    }

    fn dispatch(&mut self, req: &Request) -> Result<String, String> {
        match req {
            Request::Ping => Ok("pong".to_string()),
            Request::Status(None) => Ok(self.status()),
            Request::Status(Some(prefix)) => self.status_cert(prefix),
            Request::Explain(prefix) => {
                let (audit, index) = self.audit_indexed()?;
                audit.render_explain_indexed(index, prefix)
            }
            Request::Timeline(prefix) => self.timeline(prefix),
            Request::Report => Ok(self.audit()?.render_coverage()),
            Request::Table3 => {
                let view = self.view_tables()?;
                Ok(view.table3())
            }
            Request::Table4 => {
                let view = self.view_tables()?;
                Ok(view.table4())
            }
            Request::FeedDay(target) => {
                let target = match target {
                    Some(d) => *d,
                    None => match self.fed {
                        Some(fed) => fed.succ(),
                        None => self.feed.start(),
                    },
                };
                self.feed_to(target)
            }
            Request::Snapshot(path) => self.snapshot(path.as_deref()),
            Request::Metrics => Ok(self.obs.registry.export_json()),
            Request::Ready => self.ready(),
            Request::Window => Ok(self.window.render("served.ingest.batch_wall_us")),
            Request::SlowLog => Ok(self.slowlog.render()),
            // Intercepted by the connection thread; reaching the actor
            // means a front end forgot to (HTTP has no push mode).
            Request::Subscribe => {
                Err("subscribe is only available on the frame protocol".to_string())
            }
            Request::Shutdown => Ok("bye".to_string()),
        }
    }

    /// A table-render view borrowing the cached merged suite.
    fn view_tables(&mut self) -> Result<stale_core::tables::TableView<'_>, String> {
        // Split borrows: materialize the view first, then borrow it
        // alongside the world references.
        self.view()?;
        let suite = self
            .view
            .as_ref()
            .map(|v| &v.suite)
            .ok_or_else(|| "view unavailable".to_string())?;
        Ok(stale_core::tables::TableView {
            data: self.data,
            psl: self.psl,
            suite,
        })
    }

    fn status(&mut self) -> String {
        let fed = match self.fed {
            Some(d) => d.to_string(),
            None => "none".to_string(),
        };
        let pending = match (self.fed, self.state.through()) {
            (Some(fed), Some(applied)) => (fed - applied).num_days().max(0),
            (Some(fed), None) => (fed - self.feed.start()).num_days().max(0) + 1,
            _ => 0,
        };
        format!(
            "preset {}\nshards {}\ndelay-days {}\nfeed {}..{}\nfed-through {fed}\napplied-through {}\npending-days {pending}\nevents-since-boot {}\nfootprint {}\n",
            self.preset,
            self.state.shards(),
            self.delay_days.max(0),
            self.feed.start(),
            self.feed.end(),
            self.applied_label(),
            self.events,
            self.state.footprint(),
        )
    }

    /// One certificate's verdict summary (the quick form of `explain`).
    fn status_cert(&mut self, prefix: &str) -> Result<String, String> {
        let (audit, index) = self.audit_indexed()?;
        let (cert, chain) = audit.decisions_for_indexed(index, prefix)?;
        let kept = chain
            .iter()
            .filter(|d| d.verdict == obs::audit::Verdict::Kept)
            .count();
        Ok(format!(
            "fingerprint {cert}\ndecisions {}\nkept {kept}\ndropped {}\n",
            chain.len(),
            chain.len() - kept
        ))
    }

    fn snapshot(&mut self, path: Option<&std::path::Path>) -> Result<String, String> {
        let path = path
            .or(self.checkpoint.as_deref())
            .ok_or_else(|| "no snapshot path: pass one or boot with --checkpoint".to_string())?;
        let cp = self
            .state
            .snapshot()
            .ok_or_else(|| "nothing ingested yet; nothing to snapshot".to_string())?;
        let started = Instant::now();
        cp.save(path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        self.obs.registry.add("served.checkpoint.saves", 1);
        self.obs.registry.observe_latency_us(
            "served.checkpoint.save_us",
            started.elapsed().as_micros() as u64,
        );
        Ok(format!(
            "wrote checkpoint through {} to {}",
            cp.through,
            path.display()
        ))
    }
}

/// Fixed-vocabulary staleness counter for an event's detector.
fn detector_counter(event: &stale_core::StaleEvent) -> &'static str {
    use obs::audit::Provenance;
    match &event.provenance {
        Provenance::CrlEntry { .. } => "served.events.kc",
        Provenance::WhoisCreation { .. } => "served.events.rc",
        Provenance::DnsDeparture { .. } => "served.events.mtd",
        Provenance::DnsDelegated { .. } => "served.events.other",
    }
}

/// Read an exported world-fact log and reconstruct its datasets.
///
/// A deliberate blocking boundary, like [`Checkpoint::load`]: this
/// runs once at boot, before the accept loop opens, so nothing is
/// resident yet to stall.
// stale-lint: trusted(blocking-io-in-actor)
fn load_worldlog(path: &std::path::Path) -> Result<WorldDatasets, String> {
    std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|jsonl| worldsim::WorldLog::from_jsonl(&jsonl))
        .and_then(|log| log.to_datasets())
}

/// Build the world and serve actor messages until `Stop` or `shutdown`.
// stale-lint: entry(actor)
fn run_actor(cfg: DaemonConfig, rx: Receiver<ActorMsg>, obs: Obs, subs: Subscribers) {
    let build_start = Instant::now();
    // Boot from an exported world-fact log when one is given: the daemon
    // then serves exactly the facts the log records, with no simulator
    // in the loop. A bad log fails the boot (the accept loop keeps
    // answering with "daemon is shutting down") rather than silently
    // falling back to simulation.
    let data = match &cfg.worldlog {
        Some(path) => match load_worldlog(path) {
            Ok(data) => {
                obs.registry.add("served.boot.worldlog", 1);
                data
            }
            Err(e) => {
                eprintln!("stale-served: cannot boot from {}: {e}", path.display());
                return;
            }
        },
        None => World::run(cfg.scenario),
    };
    let psl = SuffixList::default_list();
    obs.registry.observe_latency_us(
        "served.boot.world_build_us",
        build_start.elapsed().as_micros() as u64,
    );
    let shards = cfg.shards.max(1);
    let feed_start = Instant::now();
    let feed = DayFeed::new(&data);
    obs.registry.observe_latency_us(
        "served.boot.feed_us",
        feed_start.elapsed().as_micros() as u64,
    );
    let restored = cfg.checkpoint.as_deref().and_then(|path| {
        let restore_start = Instant::now();
        let restored = Checkpoint::load(path, data.fingerprint())
            .and_then(|cp| {
                cp.map(|cp| IncrementalState::restore(&data, &psl, shards, &feed, &cp))
                    .transpose()
            })
            .unwrap_or_else(|why| {
                obs.registry.add("served.checkpoint.rejected", 1);
                eprintln!(
                    "stale-served: checkpoint {} refused ({why}); starting fresh",
                    path.display()
                );
                None
            });
        obs.registry.observe_latency_us(
            "served.boot.restore_us",
            restore_start.elapsed().as_micros() as u64,
        );
        restored
    });
    if restored.is_some() {
        obs.registry.add("served.checkpoint.restores", 1);
    }
    let state = restored.unwrap_or_else(|| IncrementalState::new(&data, &psl, shards));
    let fed = state.through();
    let mut actor = Actor {
        preset: cfg.preset,
        data: &data,
        psl: &psl,
        feed,
        state,
        fed,
        delay_days: cfg.delay_days,
        checkpoint: cfg.checkpoint,
        events: 0,
        checkpoint_every: cfg.checkpoint_every,
        days_since_checkpoint: 0,
        view: None,
        explain_index: None,
        worldlog: None,
        obs: obs.clone(),
        subs,
        slowlog: match cfg.slow_query_us {
            Some(us) => SlowLog::new(us, obs::slowlog::SLOWLOG_CAP),
            None => SlowLog::disabled(),
        },
        window: WindowedHistogram::latency_us(WINDOW_BATCHES),
        query_trace: Trace::disabled(),
        query_span: SpanId::none(),
    };
    obs.registry.add("served.ready", 1);
    while let Ok(msg) = rx.recv() {
        match msg {
            ActorMsg::Stop => break,
            ActorMsg::Request { req, reply } => {
                let stop = req == Request::Shutdown;
                let resp = actor.handle(&req);
                let _ = reply.send(resp);
                if stop {
                    // The connection thread signals the daemon's shutdown
                    // channel once the `bye` response is on the wire.
                    break;
                }
            }
        }
    }
}

/// Serve one connection: read request frames, relay them to the actor,
/// write response frames. Every failure path drops the connection
/// without touching daemon state — a hostile peer can only hurt itself.
///
/// A `shutdown` request is signalled on `shutdown_tx` only after its
/// response frame has been written (or the write has failed), so the
/// process never exits before the `bye` reaches the wire.
// stale-lint: entry(conn)
fn handle_conn(
    stream: TcpStream,
    tx: Sender<ActorMsg>,
    obs: Obs,
    shutdown_tx: Sender<()>,
    subs: Subscribers,
) {
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    loop {
        let payload = match proto::read_frame(&mut reader, proto::MAX_FRAME) {
            Ok(p) => p,
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Oversized length prefix: the stream is unframed from
                // here, so reply (best-effort) and close.
                obs.registry.add("served.conn.oversized_frames", 1);
                let resp = Err(e.to_string());
                let _ = proto::write_frame(&mut writer, &proto::encode_response(&resp));
                return;
            }
            // EOF, truncated frame or transport error: just close.
            Err(_) => return,
        };
        let started = Instant::now();
        let parsed = match String::from_utf8(payload) {
            Err(_) => Err("request payload is not UTF-8".to_string()),
            Ok(line) => parse_request(&line),
        };
        // `subscribe` flips the connection into push mode: it is served
        // here, never relayed — the actor publishes to bounded queues
        // and must not block on any connection.
        if let Ok(Request::Subscribe) = parsed {
            let (id, rx) = subs.attach();
            let resp = Ok(format!(
                "subscribed #{id}; streaming event/span records until disconnect"
            ));
            obs.registry.observe_latency_us(
                "served.query.subscribe_us",
                started.elapsed().as_micros() as u64,
            );
            if proto::write_frame(&mut writer, &proto::encode_response(&resp)).is_err() {
                subs.detach(id);
                return;
            }
            while let Ok(record) = rx.recv() {
                if proto::write_frame(&mut writer, record.as_bytes()).is_err() {
                    break;
                }
            }
            subs.detach(id);
            return;
        }
        let (tag, resp) = match parsed {
            Err(e) => ("invalid", Err(e)),
            Ok(req) => {
                let tag = req.tag();
                (tag, ask_actor(&tx, req))
            }
        };
        obs.registry.observe_latency_us(
            &format!("served.query.{tag}_us"),
            started.elapsed().as_micros() as u64,
        );
        if resp.is_err() {
            obs.registry.add("served.query.errors", 1);
        }
        let written = proto::write_frame(&mut writer, &proto::encode_response(&resp));
        if tag == "shutdown" {
            let _ = shutdown_tx.send(());
            return;
        }
        if written.is_err() {
            // Client disconnected mid-response; nothing shared is dirty.
            return;
        }
    }
}

/// Accept connections until the stop flag is raised (a wake connection
/// is made by [`Daemon::stop`] so the blocking accept returns).
fn run_accept(
    listener: TcpListener,
    tx: Sender<ActorMsg>,
    obs: Obs,
    stop: Arc<AtomicBool>,
    shutdown_tx: Sender<()>,
    subs: Subscribers,
) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        obs.registry.add("served.conn.accepted", 1);
        let tx = tx.clone();
        let obs = obs.clone();
        let shutdown_tx = shutdown_tx.clone();
        let subs = subs.clone();
        let _ = std::thread::Builder::new()
            .name("served-conn".to_string())
            .spawn(move || handle_conn(stream, tx, obs, shutdown_tx, subs));
    }
}

/// Accept HTTP connections until the stop flag is raised (the same
/// wake-connect trick as the frame listener).
fn run_http_accept(listener: TcpListener, tx: Sender<ActorMsg>, obs: Obs, stop: Arc<AtomicBool>) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        obs.registry.add("served.http.accepted", 1);
        let tx = tx.clone();
        let obs = obs.clone();
        let _ = std::thread::Builder::new()
            .name("served-http".to_string())
            .spawn(move || crate::http::handle_http_conn(stream, tx, obs));
    }
}

/// A running daemon: the state-actor plus the TCP front end.
///
/// Dropping the daemon shuts it down (joining both threads); `shutdown`
/// over the wire unblocks [`Daemon::wait_shutdown`] so a binary can
/// serve until a client asks it to exit.
pub struct Daemon {
    addr: SocketAddr,
    http_addr: Option<SocketAddr>,
    tx: Sender<ActorMsg>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    http_accept: Option<JoinHandle<()>>,
    actor: Option<JoinHandle<()>>,
    shutdown_rx: Receiver<()>,
    obs: Obs,
    subs: Subscribers,
}

impl Daemon {
    /// Bind `listen` (e.g. `127.0.0.1:0`) and boot the state-actor.
    ///
    /// Returns as soon as the socket is bound — the world builds in the
    /// actor thread, and early requests queue until it is ready, so a
    /// successful `ping` doubles as a readiness probe.
    // The listener is bound on the caller's thread before the actor
    // spawns; nothing is resident yet to stall.
    // stale-lint: trusted(blocking-io-in-actor)
    pub fn start(cfg: DaemonConfig, listen: &str) -> io::Result<Daemon> {
        let listener = TcpListener::bind(listen)?;
        let addr = listener.local_addr()?;
        let http_listener = match cfg.http.as_deref() {
            Some(http) => Some(TcpListener::bind(http)?),
            None => None,
        };
        let http_addr = match &http_listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };
        let obs = Obs::disabled();
        let subs = Subscribers::new(SUB_QUEUE, obs.registry.clone());
        let (tx, rx) = mpsc::channel();
        let (shutdown_tx, shutdown_rx) = mpsc::channel();
        let stop = Arc::new(AtomicBool::new(false));
        let actor_obs = obs.clone();
        let actor_subs = subs.clone();
        let actor = std::thread::Builder::new()
            .name("served-state".to_string())
            .spawn(move || run_actor(cfg, rx, actor_obs, actor_subs))?;
        let accept_tx = tx.clone();
        let accept_obs = obs.clone();
        let accept_stop = Arc::clone(&stop);
        let accept_subs = subs.clone();
        let accept = std::thread::Builder::new()
            .name("served-accept".to_string())
            .spawn(move || {
                run_accept(
                    listener,
                    accept_tx,
                    accept_obs,
                    accept_stop,
                    shutdown_tx,
                    accept_subs,
                )
            })?;
        let http_accept = match http_listener {
            Some(listener) => {
                let http_tx = tx.clone();
                let http_obs = obs.clone();
                let http_stop = Arc::clone(&stop);
                Some(
                    std::thread::Builder::new()
                        .name("served-http-accept".to_string())
                        .spawn(move || run_http_accept(listener, http_tx, http_obs, http_stop))?,
                )
            }
            None => None,
        };
        Ok(Daemon {
            addr,
            http_addr,
            tx,
            stop,
            accept: Some(accept),
            http_accept,
            actor: Some(actor),
            shutdown_rx,
            obs,
            subs,
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound HTTP telemetry address, when `--http` is configured.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_addr
    }

    /// The daemon's metrics registry (latency histograms, ingest lag).
    pub fn registry(&self) -> &obs::Registry {
        &self.obs.registry
    }

    /// Block until a client sends `shutdown` (or the actor exits).
    pub fn wait_shutdown(&self) {
        let _ = self.shutdown_rx.recv();
    }

    /// Stop the daemon and join its threads.
    pub fn stop(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.tx.send(ActorMsg::Stop);
        // Close every subscriber queue so push-mode connection threads
        // unblock and exit.
        self.subs.close_all();
        // Wake the blocking accepts so they observe the stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(http_addr) = self.http_addr {
            let _ = TcpStream::connect(http_addr);
        }
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.http_accept.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.actor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_parse() {
        assert_eq!(parse_request("ping").unwrap(), Request::Ping);
        assert_eq!(parse_request("  table4  ").unwrap(), Request::Table4);
        assert_eq!(parse_request("status").unwrap(), Request::Status(None));
        assert_eq!(
            parse_request("status ab01").unwrap(),
            Request::Status(Some("ab01".to_string()))
        );
        assert_eq!(
            parse_request("explain ab01").unwrap(),
            Request::Explain("ab01".to_string())
        );
        assert_eq!(
            parse_request("timeline ab01").unwrap(),
            Request::Timeline("ab01".to_string())
        );
        assert_eq!(parse_request("feed-day").unwrap(), Request::FeedDay(None));
        assert_eq!(
            parse_request("feed-day 2022-01-05").unwrap(),
            Request::FeedDay(Some(Date::parse("2022-01-05").unwrap()))
        );
        assert_eq!(
            parse_request("snapshot /tmp/cp.json").unwrap(),
            Request::Snapshot(Some(PathBuf::from("/tmp/cp.json")))
        );
        assert_eq!(parse_request("ready").unwrap(), Request::Ready);
        assert_eq!(parse_request("window").unwrap(), Request::Window);
        assert_eq!(parse_request("slowlog").unwrap(), Request::SlowLog);
        assert_eq!(parse_request("subscribe").unwrap(), Request::Subscribe);
        for bad in [
            "",
            "   ",
            "frobnicate",
            "ping now",
            "explain",
            "explain a b",
            "timeline",
            "timeline a b",
            "feed-day not-a-date",
            "table4 extra",
            "ready now",
            "slowlog 5",
            "subscribe events",
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn request_tags_are_fixed() {
        assert_eq!(Request::Ping.tag(), "ping");
        assert_eq!(Request::Timeline(String::new()).tag(), "timeline");
        assert_eq!(Request::FeedDay(None).tag(), "feed-day");
        assert_eq!(Request::Snapshot(None).tag(), "snapshot");
        assert_eq!(Request::Ready.tag(), "ready");
        assert_eq!(Request::Window.tag(), "window");
        assert_eq!(Request::SlowLog.tag(), "slowlog");
        assert_eq!(Request::Subscribe.tag(), "subscribe");
    }
}
