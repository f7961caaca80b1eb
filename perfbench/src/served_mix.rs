//! `served-mix`: the resident daemon ingesting days while it answers
//! reads.
//!
//! Set-up simulates the `small` world from the seed, writes its log and
//! boots `stale-served --worldlog` on it in its own process, so the seed
//! reaches the daemon only as generated input. The daemon is fed through
//! the day before the CRL window and its view is warmed once. The
//! measured phase is an open loop from this process over two
//! connections: one sends `feed-day` every 250 ms through the CRL
//! window, the other sends the seeded read schedule. Each latency is
//! timed from the request's intended send time, so a stall is charged
//! to every request due during it.

use crate::local::{catch_up_day, fingerprints, pick, window_days, Local};
use crate::report::Outcome;
use crate::schedule::{Schedule, FEED_EVERY_S, MIX};
use crate::stats::{over, percentile};
use crate::{median_of, world_counts, Args};
use obs::{MetricsSnapshot, Trace};
use psl::SuffixList;
use stale_served::Client;
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};
use worldsim::{ScenarioConfig, World, WorldDatasets, WorldLog};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Read latency limit on p99, milliseconds.
pub const READ_LIMIT_MS: f64 = 250.0;
/// Delay between building the schedule and its first send.
const LEAD: Duration = Duration::from_millis(50);

/// One request to send: when, what, and its metric tag.
pub struct Request {
    /// Intended send time, seconds from the phase start.
    pub at_s: f64,
    /// Protocol line.
    pub line: String,
    /// Metric tag (`feed` or a [`ReadKind::tag`]).
    pub tag: &'static str,
}

/// One request as it happened; times in seconds from the phase start.
pub struct Sample {
    /// Request id, unique across both connections.
    pub id: u64,
    /// Metric tag.
    pub tag: &'static str,
    /// Intended send time.
    pub intended_s: f64,
    /// Actual send time.
    pub sent_s: f64,
    /// Answer time.
    pub answered_s: f64,
    /// Whether the daemon answered `ok`.
    pub ok: bool,
}

impl Sample {
    /// Latency from the intended send time, ms; infinite when failed.
    pub fn latency_ms(&self) -> f64 {
        if self.ok {
            (self.answered_s - self.intended_s) * 1e3
        } else {
            f64::INFINITY
        }
    }

    /// How late the generator sent it, ms.
    pub fn lateness_ms(&self) -> f64 {
        (self.sent_s - self.intended_s) * 1e3
    }
}

/// Send `requests` in order over one connection, each no earlier than
/// its intended time. A request due while the previous one is still in
/// flight goes out as soon as the answer arrives; its latency still
/// counts from when it was due. With `trace`, each request records a
/// `bench/served.<tag>` span and a `bench/served.rpc` child, both
/// carrying the request id. Returns the samples and the seconds spent
/// inside the tracer.
pub fn drive(
    addr: &str,
    requests: &[Request],
    first_id: u64,
    t0: Instant,
    trace: &Trace,
) -> (Vec<Sample>, f64) {
    let mut samples = Vec::with_capacity(requests.len());
    let mut traced_s = 0.0;
    let mut client = Client::connect(addr);
    for (i, req) in requests.iter().enumerate() {
        let due = t0 + Duration::from_secs_f64(req.at_s);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let id = first_id + i as u64;
        let t = Instant::now();
        let mut root = trace.span(&format!("bench/served.{}", req.tag));
        let mut rpc = trace.child(root.id(), "bench/served.rpc");
        traced_s += t.elapsed().as_secs_f64();
        let sent = Instant::now();
        let ok = match &mut client {
            Ok(c) => matches!(c.request(&req.line), Ok(Ok(_))),
            Err(_) => false,
        };
        let answered = Instant::now();
        let t = Instant::now();
        let since = |at: Instant| at.saturating_duration_since(t0).as_micros() as u64;
        rpc.count("req", id);
        drop(rpc);
        root.count("req", id);
        root.count("intended_us", (req.at_s * 1e6) as u64);
        root.count("sent_us", since(sent));
        root.count("answered_us", since(answered));
        drop(root);
        traced_s += t.elapsed().as_secs_f64();
        samples.push(Sample {
            id,
            tag: req.tag,
            intended_s: req.at_s,
            sent_s: sent.saturating_duration_since(t0).as_secs_f64(),
            answered_s: answered.saturating_duration_since(t0).as_secs_f64(),
            ok,
        });
    }
    (samples, traced_s)
}

/// A spawned `stale-served` process; killed and reaped on drop unless
/// shut down first.
struct Daemon {
    child: Child,
    addr: String,
    _stdout: std::io::BufReader<ChildStdout>,
}

impl Daemon {
    /// Spawn the daemon on `log` and wait until it answers `ping`.
    fn boot(bin: &Path, log: &Path) -> Result<(Daemon, f64), String> {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .arg("small")
            .arg("--worldlog")
            .arg(log)
            .args(["--listen", "127.0.0.1:0", "--shards", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().ok_or("daemon has no stdout")?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            _stdout: std::io::BufReader::new(stdout),
        };
        let mut line = String::new();
        daemon
            ._stdout
            .read_line(&mut line)
            .map_err(|e| format!("cannot read the daemon's address: {e}"))?;
        daemon.addr = line
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("unexpected daemon banner {line:?}"))?
            .to_string();
        let mut client = Client::connect_retry(daemon.addr.as_str(), 50, Duration::from_millis(20))
            .map_err(|e| format!("cannot connect to {}: {e}", daemon.addr))?;
        ask(&mut client, "ping")?;
        Ok((daemon, started.elapsed().as_secs_f64()))
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Send `shutdown` and wait for the process to exit.
    fn shut_down(mut self) -> Result<(), String> {
        let mut client = Client::connect(self.addr.as_str()).map_err(|e| e.to_string())?;
        ask(&mut client, "shutdown")?;
        for _ in 0..200 {
            if self.child.try_wait().map_err(|e| e.to_string())?.is_some() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        Err("daemon did not exit after shutdown".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One request whose `err` reply or transport failure is an error.
fn ask(client: &mut Client, line: &str) -> Result<String, String> {
    match client.request(line) {
        Ok(Ok(body)) => Ok(body),
        Ok(Err(e)) => Err(format!("{line}: err {e}")),
        Err(e) => Err(format!("{line}: {e}")),
    }
}

fn metrics(client: &mut Client) -> Result<MetricsSnapshot, String> {
    serde_json::from_str(&ask(client, "metrics")?).map_err(|e| format!("metrics: {e:?}"))
}

/// Change in a histogram's (sum µs, count) between two snapshots.
fn hist_delta(a: &MetricsSnapshot, b: &MetricsSnapshot, name: &str) -> (f64, f64) {
    let get = |s: &MetricsSnapshot| {
        s.histograms
            .get(name)
            .map(|h| (h.sum as f64, h.count as f64))
            .unwrap_or((0.0, 0.0))
    };
    let (sa, ca) = get(a);
    let (sb, cb) = get(b);
    (sb - sa, cb - ca)
}

/// Mean of a histogram's new observations, ms (0 when none).
fn hist_mean_ms(a: &MetricsSnapshot, b: &MetricsSnapshot, name: &str) -> f64 {
    let (sum, count) = hist_delta(a, b, name);
    if count > 0.0 {
        sum / count / 1e3
    } else {
        0.0
    }
}

fn counter_delta(a: &MetricsSnapshot, b: &MetricsSnapshot, name: &str) -> f64 {
    let get = |s: &MetricsSnapshot| s.counters.get(name).copied().unwrap_or(0) as f64;
    get(b) - get(a)
}

/// The daemon binary: `PERFBENCH_SERVED_BIN`, else `stale-served` in the
/// release target directory.
fn served_bin() -> Result<PathBuf, String> {
    if let Some(bin) = std::env::var_os("PERFBENCH_SERVED_BIN") {
        return Ok(PathBuf::from(bin));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| crate::repo_root().join("target"));
    let bin = target.join("release/stale-served");
    if bin.exists() {
        Ok(bin)
    } else {
        Err(format!("{} not built", bin.display()))
    }
}

/// Everything set-up leaves for the measured phase.
struct SetUp {
    data: WorldDatasets,
    daemon: Daemon,
    boot_s: f64,
    pool: Vec<String>,
    layer_s: [f64; 3],
    bytes: usize,
}

/// The served world: the `small` preset at half its population, from
/// the preset's own seed. A view rebuild then costs about 50 ms, so one
/// rebuild per 250 ms feed keeps the actor about a quarter busy. With
/// the full `small` world (about 120 ms per rebuild plus index and drop)
/// the actor is about half busy, the median read falls on the edge
/// between cached reads and reads queued behind a rebuild, and it moved
/// between 12 and 34 ms across five seeds. The world is the same for
/// every seed because a world's size moves the rebuild cost, and with it
/// the tail latencies, by more than the machine's own noise; the seed
/// drives the request schedule and the certificates it names.
pub fn world_config() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::small();
    cfg.initial_domains /= 2;
    cfg.eras.domain_births_per_day = cfg.eras.domain_births_per_day.scaled(0.5);
    cfg
}

fn set_up(args: &Args, bin: &Path, log_path: &Path, psl: &SuffixList) -> Result<SetUp, String> {
    let cfg = world_config();
    let t = Instant::now();
    let data = {
        let _span = args.tracer.span("worldsim.build");
        World::run(cfg)
    };
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let log = {
        let _span = args.tracer.span("worldlog.extract");
        WorldLog::from_datasets(&data)
    };
    let extract_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let jsonl = {
        let _span = args.tracer.span("worldlog.encode");
        log.to_jsonl()
    };
    let encode_s = t.elapsed().as_secs_f64();
    drop(log);
    std::fs::write(log_path, &jsonl)
        .map_err(|e| format!("cannot write {}: {e}", log_path.display()))?;
    let (daemon, boot_s) = {
        let _span = args.tracer.span("served.boot");
        Daemon::boot(bin, log_path)?
    };
    // Fingerprints: certificates already audited at the start of the
    // window, so every fingerprint read should answer `ok`.
    let catch_up = catch_up_day(&data);
    let pool = {
        let mut local = Local::new(&data, psl, 2);
        local.feed_through(catch_up);
        fingerprints(&local.view()?)
    };
    let mut client = Client::connect(daemon.addr.as_str()).map_err(|e| e.to_string())?;
    ask(&mut client, &format!("feed-day {catch_up}"))?;
    ask(&mut client, &format!("status {}", pick(&pool, 0)))?;
    Ok(SetUp {
        data,
        daemon,
        boot_s,
        pool,
        layer_s: [build_s, extract_s, encode_s],
        bytes: jsonl.len(),
    })
}

/// Run the workload.
pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let bin = served_bin()?;
    let log_path = args
        .work_dir
        .join(format!("served-mix-{}.jsonl", args.seed));
    let psl = SuffixList::default_list();

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut kept: Option<SetUp> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(prev) = kept.take() {
            prev.daemon.shut_down()?;
        }
        let t = Instant::now();
        let s = set_up(args, &bin, &log_path, &psl)?;
        setups.push(t.elapsed().as_secs_f64());
        kept = Some(s);
    }
    out.set("setup_s", median_of(&setups));
    let s = kept.ok_or("no set-up ran")?;
    // The daemon read the log at boot; it is not needed after that.
    let _ = std::fs::remove_file(&log_path);

    let mut control = Client::connect(s.daemon.addr.as_str()).map_err(|e| e.to_string())?;
    let before = metrics(&mut control)?;
    let rss_at_reset = crate::sys::rss_mb(Some(s.daemon.pid()))?;
    crate::sys::reset_hwm(Some(s.daemon.pid()))?;

    let schedule = Schedule::new(args.seed, args.seconds, window_days(&s.data));
    let feeds: Vec<Request> = (0..schedule.feeds)
        .map(|i| Request {
            at_s: i as f64 * FEED_EVERY_S,
            line: "feed-day".to_string(),
            tag: "feed",
        })
        .collect();
    let reads: Vec<Request> = schedule
        .reads
        .iter()
        .map(|r| Request {
            at_s: r.at_s,
            line: r.kind.line(pick(&s.pool, r.draw)),
            tag: r.kind.tag(),
        })
        .collect();
    let trace = args.tracer.trace().clone();
    let cpu_before = crate::sys::cpu_s(Some(s.daemon.pid()))?;
    let t0 = Instant::now() + LEAD;
    let addr = s.daemon.addr.clone();
    let ((feed_samples, feed_traced), (read_samples, read_traced)) = std::thread::scope(|scope| {
        let feeder = scope.spawn(|| drive(&addr, &feeds, 0, t0, &trace));
        let reader = scope.spawn(|| drive(&addr, &reads, feeds.len() as u64, t0, &trace));
        (
            feeder.join().unwrap_or_default(),
            reader.join().unwrap_or_default(),
        )
    });
    let wall_s = feed_samples
        .iter()
        .chain(&read_samples)
        .map(|x| x.answered_s)
        .fold(0.0, f64::max);
    out.set("wall_s", wall_s);
    out.set("peak_rss_mb", crate::sys::hwm_mb(Some(s.daemon.pid()))?);
    out.set(
        "cpu_s",
        crate::sys::cpu_s(Some(s.daemon.pid()))? - cpu_before,
    );
    let after = metrics(&mut control)?;

    for sample in feed_samples.iter().chain(&read_samples) {
        out.check(
            sample.ok,
            format!("request {} ({}) failed", sample.id, sample.tag),
        );
    }
    let feed_ms: Vec<f64> = feed_samples.iter().map(Sample::latency_ms).collect();
    let read_ms: Vec<f64> = read_samples.iter().map(Sample::latency_ms).collect();
    let latencies = [
        ("served.read_p50_ms", percentile(&read_ms, 50.0)?),
        ("served.read_p99_ms", percentile(&read_ms, 99.0)?),
        ("served.feed_p50_ms", percentile(&feed_ms, 50.0)?),
        ("served.feed_p90_ms", percentile(&feed_ms, 90.0)?),
    ];
    for (name, ms) in latencies {
        eprintln!("perfbench: {name} {ms:.3}");
        out.set(name, ms);
    }

    // The daemon's final answers must equal an in-process view over the
    // same days.
    let mut local = Local::new(&s.data, &psl, 2);
    local.feed_through(catch_up_day(&s.data));
    for _ in feed_samples.iter().filter(|x| x.ok) {
        local.feed_next()?;
    }
    let view = local.view()?;
    let table4 = ask(&mut control, "table4");
    out.check(
        table4 == Ok(local.table4(&view)),
        "daemon table4 differs from the in-process view",
    );
    let audit = view.audit.as_ref().ok_or("in-process view has no audit")?;
    let report = ask(&mut control, "report");
    out.check(
        report == Ok(audit.render_coverage()),
        "daemon report differs from the in-process view",
    );

    if args.trace {
        world_counts(out, &s.data);
        out.set("worldsim.build_s", s.layer_s[0]);
        out.set("worldlog.extract_s", s.layer_s[1]);
        out.set("worldlog.encode_s", s.layer_s[2]);
        out.set("worldlog.bytes", s.bytes as f64);
        out.set(
            "worldlog.decode_s",
            after
                .histograms
                .get("served.boot.world_build_us")
                .map(|h| h.sum as f64 / 1e6)
                .unwrap_or(0.0),
        );
        out.set("served.boot_s", s.boot_s);
        for (kind, _) in MIX {
            let ms: Vec<f64> = read_samples
                .iter()
                .filter(|x| x.tag == kind.tag())
                .map(Sample::latency_ms)
                .collect();
            out.set(
                &format!("served.{}_p50_ms", kind.tag()),
                percentile(&ms, 50.0)?,
            );
            out.set(
                &format!("served.{}_p90_ms", kind.tag()),
                percentile(&ms, 90.0)?,
            );
        }
        for (tag, hist) in [
            ("status", "status"),
            ("explain", "explain"),
            ("table4", "table4"),
            ("report", "report"),
            ("feed", "feed-day"),
        ] {
            out.set(
                &format!("served.query_{tag}_ms"),
                hist_mean_ms(&before, &after, &format!("served.query.{hist}_us")),
            );
        }
        let rebuilds = counter_delta(&before, &after, "served.view.rebuilds");
        out.set("engine.view_rebuilds", rebuilds);
        out.set(
            "engine.view_ms",
            hist_mean_ms(&before, &after, "served.view.rebuild_us"),
        );
        out.set(
            "engine.ingest_ms",
            hist_mean_ms(&before, &after, "served.ingest.batch_wall_us"),
        );
        out.set(
            "audit.index_ms",
            hist_mean_ms(&before, &after, "served.explain.index_build_us"),
        );
        out.set(
            "audit.index_builds",
            counter_delta(&before, &after, "served.explain.index_builds"),
        );
        out.set("audit.decisions", audit.decisions.len() as f64);
        let view_reads = schedule
            .reads
            .iter()
            .filter(|r| r.kind.needs_view())
            .count() as f64;
        out.set("served.view_hit_ratio", 1.0 - rebuilds / view_reads);
        let busy_us: f64 = [
            "served.view.rebuild_us",
            "served.explain.index_build_us",
            "served.ingest.batch_wall_us",
        ]
        .iter()
        .map(|h| hist_delta(&before, &after, h).0)
        .sum();
        out.set("served.actor_busy_share", busy_us / 1e6 / wall_s);
        let late: Vec<f64> = feed_samples
            .iter()
            .chain(&read_samples)
            .map(Sample::lateness_ms)
            .collect();
        out.set(
            "served.lateness_max_ms",
            late.iter().copied().fold(0.0, f64::max),
        );
        out.set("served.lateness_p99_ms", percentile(&late, 99.0)?);
        out.set(
            "served.reads_over_limit",
            over(&read_ms, READ_LIMIT_MS) as f64,
        );
        crate::trace_metrics(out, &args.tracer, feed_traced + read_traced);
        // The daemon's own rise over the measured phase, not this
        // process's.
        out.set(
            "mem.served_mb",
            crate::sys::hwm_mb(Some(s.daemon.pid()))? - rss_at_reset,
        );
        check_request_spans(out, args.tracer.trace());
    }
    s.daemon.shut_down()
}

/// Every request's spans share its id: each `bench/served.rpc` span
/// carries the `req` of its parent `bench/served.<tag>` span.
fn check_request_spans(out: &mut Outcome, trace: &Trace) {
    let records = trace.records();
    let by_id: std::collections::BTreeMap<usize, &obs::SpanRecord> =
        records.iter().map(|r| (r.id, r)).collect();
    let rpcs: Vec<_> = records
        .iter()
        .filter(|r| r.name == "bench/served.rpc")
        .collect();
    let agree = rpcs.iter().all(|rpc| {
        let parent = rpc.parent.and_then(|p| by_id.get(&p));
        matches!(parent, Some(p) if p.counters.get("req") == rpc.counters.get("req")
            && rpc.counters.contains_key("req"))
    });
    out.check(
        !rpcs.is_empty() && agree,
        "a request's spans do not share its id",
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A frame-protocol server that answers at once, except that it
    /// holds request number `stall_at` for `stall`.
    fn stub(stall_at: usize, stall: Duration) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            stream.set_nodelay(true).unwrap();
            let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let mut n = 0;
            while stale_served::proto::read_frame(&mut reader, 1 << 20).is_ok() {
                if n == stall_at {
                    std::thread::sleep(stall);
                }
                n += 1;
                let body = stale_served::proto::encode_response(&Ok("pong".to_string()));
                if stale_served::proto::write_frame(&mut writer, &body).is_err() {
                    break;
                }
            }
        });
        addr
    }

    #[test]
    fn a_stall_is_charged_to_every_read_due_during_it() {
        let addr = stub(5, Duration::from_millis(300));
        let requests: Vec<Request> = (0..30)
            .map(|i| Request {
                at_s: i as f64 * 0.02,
                line: "ping".to_string(),
                tag: "status",
            })
            .collect();
        let (samples, traced) = drive(&addr, &requests, 0, Instant::now(), &Trace::disabled());
        assert_eq!(samples.len(), 30);
        assert!(samples.iter().all(|x| x.ok));
        assert_eq!(traced, traced.max(0.0));
        let stall_start = samples[5].sent_s;
        let stall_end = samples[5].answered_s;
        assert!(stall_end - stall_start >= 0.3);
        let due_during: Vec<&Sample> = samples
            .iter()
            .filter(|x| x.intended_s > stall_start && x.intended_s < stall_end)
            .collect();
        assert!(
            due_during.len() >= 10,
            "{} reads due during the stall",
            due_during.len()
        );
        for x in due_during {
            assert!(
                x.latency_ms() >= (stall_end - x.intended_s) * 1e3,
                "read {} due at {:.3}s charged only {:.1}ms",
                x.id,
                x.intended_s,
                x.latency_ms()
            );
            assert!(x.lateness_ms() > 0.0);
        }
        // Reads due well after the stall are on time again.
        assert!(samples[29].latency_ms() < 100.0);
    }

    #[test]
    fn request_spans_share_an_id() {
        let addr = stub(usize::MAX, Duration::ZERO);
        let trace = Trace::enabled();
        let requests: Vec<Request> = (0..3)
            .map(|i| Request {
                at_s: i as f64 * 0.001,
                line: "ping".to_string(),
                tag: "feed",
            })
            .collect();
        let (samples, _) = drive(&addr, &requests, 7, Instant::now(), &trace);
        assert_eq!(samples.iter().map(|x| x.id).collect::<Vec<_>>(), [7, 8, 9]);
        let mut out = Outcome::default();
        check_request_spans(&mut out, &trace);
        assert_eq!(out.failed, 0);
        assert_eq!(trace.records().len(), 6);
    }
}
