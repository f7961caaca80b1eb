//! `paper-batch`: `repro paper all` as a reader of the paper runs it.
//!
//! Set-up loads the suffix list and warms up: it runs the whole
//! pipeline once on the `tiny` preset from the seed, so lazy statics,
//! allocator arenas and caches are filled before timing. The measured
//! phase simulates the `paper2023` world from the seed, runs the batch
//! engine at 2 shards and renders the 15 sections of
//! `Experiments::run_all`, once per iteration. After timing ends the
//! engine's suite is checked against serial `DetectionSuite::run`, and
//! at the preset seed four sections are byte-compared with
//! `tests/golden/`.

use crate::layers::Tracer;
use crate::report::{Outcome, SECTIONS};
use crate::{engine_metrics, median_of, world_counts, Args};
use engine::EngineConfig;
use psl::SuffixList;
use stale_bench::{EngineRun, Experiments};
use stale_core::detector::DetectionSuite;
use std::time::Instant;
use worldsim::{ScenarioConfig, World};

/// Set-ups per run; `setup_s` is their median. On a shared 2-vCPU
/// container the suffix-list load alone (about 20 µs) moved between 14
/// and 27 µs from one process to the next, more than any bound allows;
/// a set-up with the warm-up takes 0.2 to 0.4 s.
const SETUP_REPEATS: usize = 5;

/// Sections byte-compared with `tests/golden/` at the preset seed.
const GOLDEN: [&str; 4] = ["table3", "table4", "fig4", "fig6"];

struct Iteration {
    run: EngineRun,
    sections: Vec<String>,
    wall_s: f64,
    cpu_s: f64,
    build_s: f64,
    engine_s: f64,
    render_ms: Vec<f64>,
}

fn render(e: &Experiments, section: &str) -> String {
    match section {
        "taxonomy" => e.taxonomy_tables(),
        "table3" => e.table3(),
        "fig4" => e.fig4(),
        "fig5a" => e.fig5a(),
        "fig5b" => e.fig5b(),
        "table4" => e.table4(),
        "table5" => e.table5(),
        "fig6" => e.fig6(),
        "table6" => e.table6(),
        "fig7" => e.fig7(),
        "fig8" => e.fig8(),
        "fig9" => e.fig9(),
        "table7" => e.table7(),
        "mitigations" => e.mitigations(),
        _ => e.first_party(),
    }
}

fn iteration(cfg: &ScenarioConfig, psl: SuffixList, tracer: &Tracer) -> Result<Iteration, String> {
    let cpu = crate::sys::cpu_s(None)?;
    let started = Instant::now();
    let data = {
        let _span = tracer.span("worldsim.build");
        World::run(cfg.clone())
    };
    let build_s = started.elapsed().as_secs_f64();
    let run = {
        let _span = tracer.span("engine.run");
        Experiments::with_engine_on_obs(data, psl, EngineConfig::with_shards(2), tracer.obs())
            .map_err(|e| format!("engine error: {e}"))?
    };
    let engine_s = started.elapsed().as_secs_f64() - build_s;
    let mut sections = Vec::with_capacity(SECTIONS.len());
    let mut render_ms = Vec::with_capacity(SECTIONS.len());
    for section in SECTIONS {
        let t = Instant::now();
        let _span = tracer.span(&format!("render.{section}"));
        sections.push(render(&run.experiments, section));
        render_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(Iteration {
        run,
        sections,
        wall_s: started.elapsed().as_secs_f64(),
        cpu_s: crate::sys::cpu_s(None)? - cpu,
        build_s,
        engine_s,
        render_ms,
    })
}

/// Comparable bytes of a suite: the revocation join plus the three
/// record streams.
fn suite_bytes(suite: &DetectionSuite) -> String {
    serde_json::to_string(&(
        &suite.revocations.matched,
        &suite.revocations.stats,
        &suite.revocations.cutoff,
        &suite.key_compromise,
        &suite.registrant_change,
        &suite.managed_tls,
    ))
    .unwrap_or_default()
}

/// Run the workload.
pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let mut cfg = ScenarioConfig::paper2023();
    let golden_seed = cfg.seed;
    cfg.seed = args.seed;

    let mut warm_up = ScenarioConfig::tiny();
    warm_up.seed = args.seed;
    let untraced = Tracer::new(false);
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut psl = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let list = SuffixList::default_list();
        std::hint::black_box(iteration(&warm_up, list.clone(), &untraced)?);
        setups.push(t.elapsed().as_secs_f64());
        psl = Some(list);
    }
    let psl = psl.ok_or("no suffix list")?;
    out.set("setup_s", median_of(&setups));

    crate::sys::reset_hwm(None)?;
    let phase_start = Instant::now();
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut last: Option<Iteration> = None;
    loop {
        // A traced run times one untraced iteration, then a traced one.
        let tracer = if args.trace && walls.is_empty() {
            &untraced
        } else {
            &args.tracer
        };
        drop(last.take());
        let it = iteration(&cfg, psl.clone(), tracer)?;
        let wall = it.wall_s;
        eprintln!(
            "perfbench: iteration {} wall {wall:.3}s cpu {:.2}s",
            walls.len() + 1,
            it.cpu_s
        );
        walls.push(wall);
        cpus.push(it.cpu_s);
        last = Some(it);
        let done = if args.trace {
            walls.len() == 2
        } else {
            phase_start.elapsed().as_secs_f64() + wall > args.seconds
        };
        if done {
            break;
        }
    }
    let it = last.ok_or("no iteration ran")?;
    out.set("peak_rss_mb", crate::sys::hwm_mb(None)?);
    out.set("wall_s", median_of(&walls));
    out.set("cpu_s", median_of(&cpus));
    out.attempted += (walls.len() * (2 + SECTIONS.len())) as u64;

    for d in &it.run.degraded {
        out.fail(format!("shard {} degraded: {}", d.shard, d.error));
    }
    let e = &it.run.experiments;
    let serial = DetectionSuite::run(&e.data, &e.psl);
    out.check(
        suite_bytes(&serial) == suite_bytes(&e.suite),
        "engine suite differs from serial DetectionSuite::run",
    );
    if args.seed == golden_seed {
        let dir = crate::repo_root().join("tests/golden");
        for name in GOLDEN {
            let want = std::fs::read_to_string(dir.join(format!("{name}.txt")));
            let got = SECTIONS
                .iter()
                .position(|s| *s == name)
                .map(|i| &it.sections[i]);
            out.check(
                matches!((&want, got), (Ok(w), Some(g)) if w == g),
                format!("{name} differs from tests/golden/{name}.txt"),
            );
        }
    }

    if args.trace {
        world_counts(out, &e.data);
        engine_metrics(out, &it.run.metrics, it.engine_s);
        out.set("worldsim.build_s", it.build_s);
        for (section, ms) in SECTIONS.iter().zip(&it.render_ms) {
            out.set(&format!("render.{section}_ms"), *ms);
        }
        let overhead = walls[1] - walls[0];
        crate::trace_metrics(out, &args.tracer, overhead);
        // The traced iteration is the only traced work in this run.
        let selfs = args.tracer.self_times_s();
        let covered: f64 = ["worldsim", "engine", "render"]
            .iter()
            .map(|l| selfs.get(*l).copied().unwrap_or(0.0))
            .sum();
        out.check(
            (walls[1] - covered).abs() <= overhead.abs().max(0.01),
            format!(
                "layer self times sum to {covered:.3}s, traced wall is {:.3}s, overhead {overhead:.3}s",
                walls[1]
            ),
        );
    }
    Ok(())
}
