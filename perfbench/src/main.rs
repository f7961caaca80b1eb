//! The repository's benchmark. See `README.md` beside this crate.
//!
//! ```text
//! perfbench --workload <paper-batch|cap-study|served-mix> --seed N
//!           --seconds S --trace <0|1>
//! ```
//!
//! Prints progress to stderr and, as the last line of stdout, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`. A traced run also writes its spans as JSONL to the work
//! directory.

mod cap_study;
mod layers;
mod local;
mod paper_batch;
mod report;
mod schedule;
mod served_mix;
mod stats;
mod sys;

use layers::Tracer;
use report::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured-phase budget, seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// The run's tracer (recording only when `trace`).
    pub tracer: Tracer,
    /// Where logs, hash records and traces go.
    pub work_dir: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <paper-batch|cap-study|served-mix> \
                     --seed N --seconds S --trace <0|1>";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !["paper-batch", "cap-study", "served-mix"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    let trace = trace.unwrap_or(false);
    let work_dir = match std::env::var_os("PERFBENCH_WORK_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => repo_root().join(".bench_build/perfbench"),
    };
    std::fs::create_dir_all(&work_dir)
        .map_err(|e| format!("cannot create {}: {e}", work_dir.display()))?;
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace,
        tracer: Tracer::new(trace),
        work_dir,
    })
}

/// The repository this benchmark was built from.
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map(PathBuf::from)
        .unwrap_or_default()
}

/// Median of a non-empty list (0 when empty).
pub fn median_of(values: &[f64]) -> f64 {
    stats::median(values).unwrap_or(0.0)
}

/// The world's dataset sizes.
pub fn world_counts(out: &mut Outcome, data: &worldsim::WorldDatasets) {
    out.set("worldsim.certs", data.monitor.dedup_count() as f64);
    out.set("worldsim.ct_entries", data.monitor.raw_count() as f64);
    out.set("worldsim.crl_records", data.crl.len() as f64);
    out.set("worldsim.whois_records", data.whois.record_count() as f64);
    out.set("worldsim.adns_domains", data.adns.domain_count() as f64);
}

/// The batch engine's own stage rows (`EngineReport.metrics`).
pub fn engine_metrics(out: &mut Outcome, m: &engine::EngineMetrics, run_s: f64) {
    out.set("engine.run_s", run_s);
    for stage in &m.stages {
        out.set(
            &format!("engine.{}_ms", stage.name),
            stage.wall_us as f64 / 1e3,
        );
    }
    let first = m.stages.first();
    let last = m.stages.last();
    out.set("engine.items_in", first.map_or(0, |s| s.items_in) as f64);
    out.set("engine.items_out", last.map_or(0, |s| s.items_out) as f64);
    let sum = |f: fn(&engine::ShardMetrics) -> u64| m.shards.iter().map(f).sum::<u64>() as f64;
    out.set("engine.detect_kc_ms", sum(|s| s.kc_us) / 1e3);
    out.set("engine.detect_rc_ms", sum(|s| s.rc_us) / 1e3);
    out.set("engine.detect_mtd_ms", sum(|s| s.mtd_us) / 1e3);
    out.set("engine.attempts", sum(|s| u64::from(s.attempts)));
}

/// Self time and memory rise per layer, and the tracing overhead.
pub fn trace_metrics(out: &mut Outcome, tracer: &Tracer, overhead_s: f64) {
    let selfs = tracer.self_times_s();
    let mem = tracer.mem_rise_mb();
    for layer in layers::LAYERS {
        out.set(
            &format!("self.{layer}_s"),
            selfs.get(layer).copied().unwrap_or(0.0),
        );
        if let Some(mb) = mem.get(layer) {
            out.set(&format!("mem.{layer}_mb"), *mb);
        }
    }
    out.set("trace.overhead_s", overhead_s);
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: {} seed {} for {}s (trace {}, {} cpu(s))",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut out = Outcome::default();
    let ran = match args.workload.as_str() {
        "paper-batch" => paper_batch::run(&args, &mut out),
        "cap-study" => cap_study::run(&args, &mut out),
        _ => served_mix::run(&args, &mut out),
    };
    if let Err(e) = ran {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        return ExitCode::from(1);
    }
    for why in &out.failures {
        eprintln!("perfbench: FAILED {why}");
    }
    if args.trace {
        let path = args
            .work_dir
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        match args.tracer.write_jsonl(&path) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(1);
            }
        }
    }
    match out.result_line(args.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
