//! Regenerate the paper's tables and figures.
//!
//! ```text
//! repro [preset] [experiment...] [--csv DIR] [--shards N]
//!       [--checkpoint FILE] [--fail-shard K]...
//!       [--incremental] [--through DATE] [--day-batch N]
//!       [--checkpoint-every N] [--preflight] [--export-worldlog FILE]
//!       [--trace-out FILE] [--metrics-json FILE] [--metrics-prom FILE]
//!
//! presets:     paper (default) | small | tiny
//! experiments: table3 table4 table5 table6 table7
//!              fig4 fig5a fig5b fig6 fig7 fig8 fig9 mitigations
//!              all (default)
//! engine:      --shards N       partition width (default: available
//!                               parallelism; results are byte-identical
//!                               for every N)
//!              --checkpoint F   JSON checkpoint: the last day folded
//!                               in. Batch mode folds the whole window
//!                               and writes it through the feed end
//!                               after a complete run; incremental mode
//!                               re-folds the feed through it, at any
//!                               --shards, and resumes after it (an
//!                               unusable file is refused with the
//!                               reason on stderr and the run starts
//!                               fresh)
//!              --fail-shard K   inject a persistent panic into shard K
//!                               (testing; the run degrades and exits 1)
//! incremental: --incremental    replay the world's day feed through
//!                               persistent detector state; reports are
//!                               byte-identical to batch mode
//!              --through DATE   stop after ingesting DATE (catch-up runs)
//!              --day-batch N    days per ingested delta (default 1)
//!              --checkpoint-every N
//!                               also record progress every N ingested
//!                               days (default: once, after the final
//!                               delta; needs --checkpoint)
//! preflight:   --preflight      before any detector runs, validate the
//!                               simulated world's world-fact log (and
//!                               the --checkpoint file, if it exists)
//!                               with stale-lint, through the readers
//!                               that load them; exit 1 on diagnostics
//!              --export-worldlog FILE
//!                               write the canonical world-fact log
//!                               (stale-obs-worldlog v1 JSONL) to FILE —
//!                               the layer-1 export `stale-bench replay`
//!                               and `timeline` consume; with
//!                               --preflight the exported bytes are the
//!                               ones validated
//! observability:
//!              --trace-out F    enable span tracing, write the trace as
//!                               JSONL to F, and print the span tree to
//!                               stderr after the run
//!              --metrics-json F write the metrics registry (stage walls,
//!                               shard latency histograms, detector item
//!                               counters) as stable-schema JSON to F
//!              --metrics-prom F write the same registry as Prometheus
//!                               text exposition to F
//!              --audit-out F    record per-candidate detector decisions
//!                               (kept / dropped-with-reason, with source
//!                               provenance) and write the merged audit as
//!                               JSONL to F; detector results are
//!                               byte-identical with auditing on or off
//! ```
//!
//! The resident daemon over a preset is `stale-served`.
//!
//! Exit status: 0 on a clean run, 1 when any shard degraded or an engine
//! error occurred, 2 on usage errors.

use engine::EngineConfig;
use stale_bench::Experiments;
use worldsim::ScenarioConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut preset = "paper";
    let mut wanted: Vec<&str> = Vec::new();
    let mut csv_dir: Option<String> = None;
    let mut engine_cfg = EngineConfig::default();
    let mut incremental = false;
    let mut preflight = false;
    let mut export_worldlog: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut metrics_json: Option<String> = None;
    let mut metrics_prom: Option<String> = None;
    let mut audit_out: Option<String> = None;
    let mut args_iter = args.iter().peekable();
    while let Some(arg) = args_iter.next() {
        match arg.as_str() {
            "paper" | "small" | "tiny" => preset = arg,
            "--csv" => {
                csv_dir = args_iter.next().cloned();
                if csv_dir.is_none() {
                    eprintln!("--csv needs a directory");
                    std::process::exit(2);
                }
            }
            "--shards" => {
                engine_cfg.shards = match args_iter.next().and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) if n > 0 => n,
                    _ => {
                        eprintln!("--shards needs a positive integer");
                        std::process::exit(2);
                    }
                };
            }
            "--checkpoint" => {
                engine_cfg.checkpoint = match args_iter.next() {
                    Some(path) => Some(path.into()),
                    None => {
                        eprintln!("--checkpoint needs a file path");
                        std::process::exit(2);
                    }
                };
            }
            "--fail-shard" => match args_iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(k) => engine_cfg.fail_shards.push(k),
                None => {
                    eprintln!("--fail-shard needs a shard index");
                    std::process::exit(2);
                }
            },
            "--incremental" => incremental = true,
            "--preflight" => preflight = true,
            "--export-worldlog" => {
                export_worldlog = args_iter.next().cloned();
                if export_worldlog.is_none() {
                    eprintln!("--export-worldlog needs a file path");
                    std::process::exit(2);
                }
            }
            "--trace-out" => {
                trace_out = args_iter.next().cloned();
                if trace_out.is_none() {
                    eprintln!("--trace-out needs a file path");
                    std::process::exit(2);
                }
            }
            "--metrics-json" => {
                metrics_json = args_iter.next().cloned();
                if metrics_json.is_none() {
                    eprintln!("--metrics-json needs a file path");
                    std::process::exit(2);
                }
            }
            "--metrics-prom" => {
                metrics_prom = args_iter.next().cloned();
                if metrics_prom.is_none() {
                    eprintln!("--metrics-prom needs a file path");
                    std::process::exit(2);
                }
            }
            "--audit-out" => {
                audit_out = args_iter.next().cloned();
                if audit_out.is_none() {
                    eprintln!("--audit-out needs a file path");
                    std::process::exit(2);
                }
                engine_cfg.audit = true;
            }
            "--through" => {
                engine_cfg.through = match args_iter
                    .next()
                    .and_then(|v| stale_types::Date::parse(v).ok())
                {
                    Some(d) => Some(d),
                    None => {
                        eprintln!("--through needs a YYYY-MM-DD date");
                        std::process::exit(2);
                    }
                };
            }
            "--day-batch" => {
                engine_cfg.day_batch = match args_iter.next().and_then(|v| v.parse::<usize>().ok())
                {
                    Some(n) if n > 0 => n,
                    _ => {
                        eprintln!("--day-batch needs a positive integer");
                        std::process::exit(2);
                    }
                };
            }
            "--checkpoint-every" => {
                engine_cfg.checkpoint_every_days =
                    match args_iter.next().and_then(|v| v.parse::<usize>().ok()) {
                        Some(n) if n > 0 => Some(n),
                        _ => {
                            eprintln!("--checkpoint-every needs a positive integer");
                            std::process::exit(2);
                        }
                    };
            }
            other => wanted.push(other),
        }
    }
    if wanted.is_empty() {
        wanted.push("all");
    }
    let cfg = match preset {
        "small" => ScenarioConfig::small(),
        "tiny" => ScenarioConfig::tiny(),
        _ => ScenarioConfig::paper2023(),
    };
    let mode = if incremental {
        format!(" [incremental, day-batch {}]", engine_cfg.day_batch.max(1))
    } else {
        String::new()
    };
    eprintln!(
        "simulating world: preset={preset}, {} days, seed {}, {} shard(s) x {} worker(s){mode}",
        cfg.sim_days(),
        cfg.seed,
        engine_cfg.shards,
        engine_cfg.effective_workers(),
    );
    // Span tracing has buffer costs, so it is opt-in via --trace-out;
    // the counter/histogram registry always accumulates and is exported
    // only when a --metrics-* flag asks for it.
    let obs = if trace_out.is_some() {
        obs::Obs::enabled()
    } else {
        obs::Obs::disabled()
    };
    let started = std::time::Instant::now();
    let (data, psl) = {
        let mut span = obs.span("world.build");
        let (data, psl) = Experiments::build_world(cfg);
        span.count("certs", data.monitor.dedup_count() as u64);
        (data, psl)
    };
    // World-log export and preflight run before detection and under
    // their own spans: layer-1 emission is an explicit export path, never
    // part of the detect hot path (the compare gate holds with or without
    // it). Preflight validates exactly the bytes an export writes.
    if preflight || export_worldlog.is_some() {
        let jsonl = {
            let mut span = obs.span("worldlog.export");
            let jsonl = worldsim::WorldLog::from_datasets(&data).to_jsonl();
            span.count("bytes", jsonl.len() as u64);
            jsonl
        };
        if let Some(path) = &export_worldlog {
            if let Err(e) = std::fs::write(path, &jsonl) {
                eprintln!("cannot write world log to {path}: {e}");
                std::process::exit(2);
            }
            eprintln!("wrote world-fact log to {path}");
        }
        if preflight {
            let mut span = obs.span("preflight");
            let mut diags = stale_lint::preflight::preflight_str("worldlog", &jsonl);
            if let Some(path) = engine_cfg.checkpoint.as_deref().filter(|p| p.exists()) {
                diags.extend(stale_lint::preflight::preflight_path(path));
            }
            span.count("diagnostics", diags.len() as u64);
            if diags.is_empty() {
                eprintln!("preflight: inputs clean");
            } else {
                eprint!("{}", stale_lint::diagnostics::render_human(&diags));
                eprintln!("preflight: {} diagnostic(s); refusing to run", diags.len());
                std::process::exit(1);
            }
        }
    }
    let run = match if incremental {
        Experiments::with_engine_incremental_on_obs(data, psl, engine_cfg, obs.clone())
    } else {
        Experiments::with_engine_on_obs(data, psl, engine_cfg, obs.clone())
    } {
        Ok(run) => run,
        Err(e) => {
            eprintln!("engine error: {e}");
            std::process::exit(1);
        }
    };
    if let Some(why) = &run.metrics.checkpoint_rejected {
        eprintln!("{why}");
    }
    eprintln!(
        "world + detection ready in {:.1}s\n",
        started.elapsed().as_secs_f64()
    );
    if incremental {
        eprintln!(
            "incremental replay emitted {} stale event(s)",
            run.events.len()
        );
    }
    let experiments = &run.experiments;
    let mut failed = false;
    for name in wanted {
        let output = match name {
            "all" => experiments.run_all(),
            "table3" => experiments.table3(),
            "taxonomy" => experiments.taxonomy_tables(),
            "table4" => experiments.table4(),
            "table5" => experiments.table5(),
            "table6" => experiments.table6(),
            "table7" => experiments.table7(),
            "fig4" => experiments.fig4(),
            "fig5a" => experiments.fig5a(),
            "fig5b" => experiments.fig5b(),
            "fig6" => experiments.fig6(),
            "fig7" => experiments.fig7(),
            "fig8" => experiments.fig8(),
            "fig9" => experiments.fig9(),
            "mitigations" => experiments.mitigations(),
            "first_party" => experiments.first_party(),
            other => {
                eprintln!("unknown experiment {other:?}; see --help text in the source");
                std::process::exit(2);
            }
        };
        println!("{output}");
    }
    if let Some(dir) = csv_dir {
        std::fs::create_dir_all(&dir).expect("create csv dir");
        for (name, contents) in experiments.export_csv() {
            let path = std::path::Path::new(&dir).join(name);
            std::fs::write(&path, contents).expect("write csv");
            eprintln!("wrote {}", path.display());
        }
    }
    eprint!("{}", run.metrics.render_table());
    // Observability exports happen even when shards degraded — a
    // degraded run is exactly the one worth inspecting afterwards.
    if let Some(path) = &trace_out {
        if let Err(e) = std::fs::write(path, obs.trace.to_jsonl()) {
            eprintln!("cannot write trace to {path}: {e}");
            std::process::exit(2);
        }
        eprintln!("wrote span trace to {path}");
        eprint!("{}", obs.trace.render_tree());
    }
    if let Some(path) = &metrics_json {
        if let Err(e) = std::fs::write(path, obs.registry.export_json()) {
            eprintln!("cannot write metrics to {path}: {e}");
            std::process::exit(2);
        }
        eprintln!("wrote metrics JSON to {path}");
    }
    if let Some(path) = &metrics_prom {
        if let Err(e) = std::fs::write(path, obs.registry.export_prom()) {
            eprintln!("cannot write metrics to {path}: {e}");
            std::process::exit(2);
        }
        eprintln!("wrote Prometheus metrics to {path}");
    }
    if let Some(path) = &audit_out {
        match &run.audit {
            Some(audit) => {
                if let Err(e) = std::fs::write(path, audit.to_jsonl()) {
                    eprintln!("cannot write audit to {path}: {e}");
                    std::process::exit(2);
                }
                eprintln!("wrote decision audit to {path}");
                eprint!("{}", audit.render_coverage());
            }
            None => {
                eprintln!("engine produced no audit despite --audit-out");
                std::process::exit(1);
            }
        }
    }
    for d in &run.degraded {
        eprintln!(
            "DEGRADED shard {} after {} attempt(s): {}",
            d.shard, d.attempts, d.error
        );
        failed = true;
    }
    if failed {
        eprintln!(
            "run incomplete: {} of {} shard(s) degraded",
            run.degraded.len(),
            run.shards
        );
        std::process::exit(1);
    }
}
