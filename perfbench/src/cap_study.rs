//! `cap-study`: the paper's §6 lifetime-cap study replayed from a
//! world-fact log, as `stale-bench replay --rewrite cap-days=N` runs it.
//!
//! Set-up simulates the `small` world from the seed and writes its log.
//! Each measured iteration reads and decodes the log once, then replays
//! it uncapped and at caps of 215, 90 and 45 days: rewrite (capped only),
//! `to_datasets`, the audited batch engine at 2 shards, `replay_report`.
//! The uncapped report must equal `replay_report` over the directly
//! simulated world, and each capped report's hash must repeat across
//! iterations and across runs of the same seed.

use crate::layers::Tracer;
use crate::report::Outcome;
use crate::{engine_metrics, median_of, world_counts, Args};
use engine::EngineConfig;
use psl::SuffixList;
use stale_bench::replay::replay_report;
use stale_bench::{EngineRun, Experiments};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::time::Instant;
use worldsim::{ScenarioConfig, World, WorldDatasets, WorldLog};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// The replays of one iteration: uncapped, then the caps in days.
const CAPS: [Option<i64>; 4] = [None, Some(215), Some(90), Some(45)];

/// Per-layer timings of one iteration.
#[derive(Default)]
struct Timings {
    decode_s: f64,
    rewrite_s: Vec<f64>,
    materialise_s: Vec<f64>,
    engine_s: Vec<f64>,
    report_ms: Vec<f64>,
}

struct Iteration {
    wall_s: f64,
    cpu_s: f64,
    hashes: Vec<u64>,
    uncapped_report: String,
    /// The uncapped replay, kept for the last iteration only.
    uncapped: Option<EngineRun>,
    events: u64,
    t: Timings,
}

fn hash(text: &str) -> u64 {
    let mut h = DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

/// The replay engine: audited batch at 2 shards, as `replay_run`, with
/// the benchmark's observability bundle attached.
fn replay(data: WorldDatasets, tracer: &Tracer) -> Result<EngineRun, String> {
    let mut cfg = EngineConfig::with_shards(2);
    cfg.audit = true;
    let run = Experiments::with_engine_on_obs(data, SuffixList::default_list(), cfg, tracer.obs())
        .map_err(|e| format!("engine error: {e}"))?;
    match run.degraded.first() {
        Some(d) => Err(format!("shard {} degraded: {}", d.shard, d.error)),
        None => Ok(run),
    }
}

fn iteration(path: &Path, tracer: &Tracer) -> Result<Iteration, String> {
    let cpu = crate::sys::cpu_s(None)?;
    let started = Instant::now();
    let mut t = Timings::default();
    let log = {
        let _span = tracer.span("worldlog.decode");
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        WorldLog::from_jsonl(&text)?
    };
    t.decode_s = started.elapsed().as_secs_f64();
    let events = log.tally().total;
    let mut hashes = Vec::with_capacity(CAPS.len());
    let mut uncapped = None;
    for cap in CAPS {
        let capped = match cap {
            None => None,
            Some(days) => {
                let s = Instant::now();
                let _span = tracer.span("worldlog.rewrite");
                let capped = log.rewrite_cap_days(days)?;
                t.rewrite_s.push(s.elapsed().as_secs_f64());
                Some(capped)
            }
        };
        let s = Instant::now();
        let data = {
            let _span = tracer.span("worldlog.materialise");
            capped.as_ref().unwrap_or(&log).to_datasets()?
        };
        t.materialise_s.push(s.elapsed().as_secs_f64());
        let s = Instant::now();
        let run = {
            let _span = tracer.span("engine.run");
            replay(data, tracer)?
        };
        t.engine_s.push(s.elapsed().as_secs_f64());
        let s = Instant::now();
        let report = {
            let _span = tracer.span("render.replay_report");
            replay_report(&run)
        };
        t.report_ms.push(s.elapsed().as_secs_f64() * 1e3);
        hashes.push(hash(&report));
        if cap.is_none() {
            uncapped = Some((run, report));
        }
    }
    let (uncapped, uncapped_report) = uncapped.ok_or("no uncapped replay")?;
    Ok(Iteration {
        wall_s: started.elapsed().as_secs_f64(),
        cpu_s: crate::sys::cpu_s(None)? - cpu,
        hashes,
        uncapped_report,
        uncapped: Some(uncapped),
        events,
        t,
    })
}

/// Simulate, extract and encode the log, and write it to `path`.
/// Returns the world and the three layer timings.
fn set_up(
    cfg: &ScenarioConfig,
    path: &Path,
    tracer: &Tracer,
) -> Result<(WorldDatasets, [f64; 3], usize), String> {
    let t = Instant::now();
    let data = {
        let _span = tracer.span("worldsim.build");
        World::run(cfg.clone())
    };
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let log = {
        let _span = tracer.span("worldlog.extract");
        WorldLog::from_datasets(&data)
    };
    let extract_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let jsonl = {
        let _span = tracer.span("worldlog.encode");
        log.to_jsonl()
    };
    let encode_s = t.elapsed().as_secs_f64();
    std::fs::write(path, &jsonl).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok((data, [build_s, extract_s, encode_s], jsonl.len()))
}

/// Run the workload.
pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let mut cfg = ScenarioConfig::small();
    cfg.seed = args.seed;
    let path = args.work_dir.join(format!("cap-study-{}.jsonl", args.seed));

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut world = None;
    let mut layer_s = [0.0; 3];
    let mut bytes = 0;
    for _ in 0..SETUP_REPEATS {
        drop(world.take());
        let t = Instant::now();
        let (data, times, len) = set_up(&cfg, &path, &args.tracer)?;
        setups.push(t.elapsed().as_secs_f64());
        world = Some(data);
        layer_s = times;
        bytes = len;
    }
    out.set("setup_s", median_of(&setups));
    let data = world.ok_or("no set-up ran")?;
    if args.trace {
        world_counts(out, &data);
        out.set("worldsim.build_s", layer_s[0]);
        out.set("worldlog.extract_s", layer_s[1]);
        out.set("worldlog.encode_s", layer_s[2]);
        out.set("worldlog.bytes", bytes as f64);
    }
    let reference = replay_report(&replay(data, &Tracer::new(false))?);

    crate::sys::reset_hwm(None)?;
    let phase_start = Instant::now();
    let untraced = Tracer::new(false);
    let mut iterations: Vec<Iteration> = Vec::new();
    loop {
        let tracer = if args.trace && iterations.is_empty() {
            &untraced
        } else {
            &args.tracer
        };
        if let Some(prev) = iterations.last_mut() {
            // Keep only what the checks need; the replayed world goes.
            prev.uncapped = None;
        }
        let it = iteration(&path, tracer)?;
        let wall = it.wall_s;
        eprintln!(
            "perfbench: iteration {} wall {wall:.3}s cpu {:.2}s",
            iterations.len() + 1,
            it.cpu_s
        );
        iterations.push(it);
        let done = if args.trace {
            iterations.len() == 2
        } else {
            phase_start.elapsed().as_secs_f64() + wall > args.seconds
        };
        if done {
            break;
        }
    }
    out.set("peak_rss_mb", crate::sys::hwm_mb(None)?);
    // The log is an intermediate; only the hash record outlives the run.
    let _ = std::fs::remove_file(&path);
    let walls: Vec<f64> = iterations.iter().map(|i| i.wall_s).collect();
    out.set("wall_s", median_of(&walls));
    let cpus: Vec<f64> = iterations.iter().map(|i| i.cpu_s).collect();
    out.set("cpu_s", median_of(&cpus));
    // Per iteration: one decode, three rewrites, four materialisations,
    // four engine runs and four reports.
    out.attempted += (iterations.len() * 16) as u64;

    let first = &iterations[0];
    for it in &iterations {
        out.check(
            it.uncapped_report == reference,
            "uncapped replay report differs from the directly simulated world's",
        );
        out.check(
            it.hashes == first.hashes,
            "capped report hashes differ between iterations",
        );
    }
    let record = args
        .work_dir
        .join(format!("cap-study-{}.hashes", args.seed));
    let hashes = format!("{:?}\n", first.hashes);
    match std::fs::read_to_string(&record) {
        Ok(previous) => out.check(
            previous == hashes,
            "capped report hashes differ from an earlier run of this seed",
        ),
        Err(_) => std::fs::write(&record, &hashes)
            .map_err(|e| format!("cannot write {}: {e}", record.display()))?,
    }

    let last = iterations.last().ok_or("no iteration ran")?;
    let run = last.uncapped.as_ref().ok_or("no uncapped replay kept")?;
    if args.trace {
        let t = &last.t;
        out.set("worldlog.decode_s", t.decode_s);
        out.set("worldlog.rewrite_s", median_of(&t.rewrite_s));
        out.set("worldlog.materialise_s", median_of(&t.materialise_s));
        out.set("worldlog.events", last.events as f64);
        out.set("render.replay_report_ms", median_of(&t.report_ms));
        engine_metrics(out, &run.metrics, median_of(&t.engine_s));
        out.set(
            "audit.decisions",
            run.audit.as_ref().map_or(0, |a| a.decisions.len()) as f64,
        );
        crate::trace_metrics(out, &args.tracer, walls[1] - walls[0]);
    }
    Ok(())
}
