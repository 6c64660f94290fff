//! Reproduce every table and figure of the paper.
//!
//! ```sh
//! cargo run --release --example reproduce_paper \
//!     [--validate] [--trace] [--threads N] [--faults PROFILE] [--resume] \
//!     [--metrics-out PATH] [--query-hitlist N] [scale] [seed] [out_dir]
//! ```
//!
//! `scale` ∈ {tiny, small, default, large, paper}; default `small`.
//! `large` (~100k routers) is the memory-stress scale the bench gate
//! runs; `paper` (~250k) matches the population the paper's datasets
//! sampled from and takes minutes.
//! When `out_dir` is given, each experiment's raw data is written as
//! JSON (one file per table/figure) alongside a combined `results.md`.
//! `--validate` runs the cross-layer invariant validators between
//! pipeline stages even in release builds (debug builds always run them).
//! `--trace` prints the engine's per-stage execution reports (wall time,
//! validation time, artifact sizes, cache outcomes, attempts, health) to
//! stderr.
//! `--threads N` pins the stage scheduler's worker count (equivalently
//! `GEOTOPO_THREADS=N`; `1` is the legacy sequential path) — the output
//! is byte-identical at any setting.
//! `--faults PROFILE` (none|light|moderate|heavy) runs the collection
//! under a deterministic injected fault plan — same seed + same profile
//! is byte-identical at any thread count.
//! `--resume` spills stage artifacts to `.geotopo-cache/` and, on a
//! re-run, resumes from the last fingerprint-valid artifacts instead of
//! recomputing them (a killed run picks up where it left off).
//! `--chaos PROFILE` (none|torn|corrupt|enospc|eio|mixed) routes the
//! artifact cache through a deterministic *disk*-fault injector (implies
//! `--resume`'s disk store): torn writes, dropped renames, read `EIO`,
//! `ENOSPC`, bit rot. The run still completes byte-identical — damaged
//! entries are quarantined under `.geotopo-cache/quarantine/` and
//! regenerated, failed spills degrade the store to in-memory — and the
//! injector's tally is printed at exit.
//! `--metrics-out PATH` writes the run's metrics snapshot as pretty JSON
//! (stable schema; see `geotopo_core::telemetry`). Counters, gauges and
//! histograms are deterministic per (config, seed); only the span
//! timers carry wall-clock.
//! `--query-hitlist N` resolves an N-address hitlist (Skitter's observed
//! nodes, cycled) against the run's frozen query snapshot on the
//! scheduler's workers and prints a serving summary — the interactive
//! read path, exercised end to end.

use geotopo::core::engine::ArtifactStore;
use geotopo::core::experiments;
use geotopo::core::pipeline::{Pipeline, PipelineConfig, ValidationMode};
use geotopo::core::report;
use geotopo::core::vfs::{ChaosConfig, ChaosVfs, Vfs};
use geotopo::measure::FaultConfig;
use std::io::Write;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args: Vec<String> = std::env::args().collect();
    let validate = args.iter().any(|a| a == "--validate");
    args.retain(|a| a != "--validate");
    let trace = args.iter().any(|a| a == "--trace");
    args.retain(|a| a != "--trace");
    let resume = args.iter().any(|a| a == "--resume");
    args.retain(|a| a != "--resume");
    let mut threads = 0usize;
    if let Some(pos) = args.iter().position(|a| a == "--threads") {
        let val = args
            .get(pos + 1)
            .ok_or("--threads requires a worker count")?;
        threads = val.parse()?;
        args.drain(pos..=pos + 1);
    }
    let mut metrics_out: Option<String> = None;
    if let Some(pos) = args.iter().position(|a| a == "--metrics-out") {
        metrics_out = Some(
            args.get(pos + 1)
                .ok_or("--metrics-out requires a file path")?
                .clone(),
        );
        args.drain(pos..=pos + 1);
    }
    let mut query_hitlist = 0usize;
    if let Some(pos) = args.iter().position(|a| a == "--query-hitlist") {
        let val = args
            .get(pos + 1)
            .ok_or("--query-hitlist requires an address count")?;
        query_hitlist = val.parse()?;
        args.drain(pos..=pos + 1);
    }
    let mut fault_profile = String::from("none");
    if let Some(pos) = args.iter().position(|a| a == "--faults") {
        fault_profile = args
            .get(pos + 1)
            .ok_or("--faults requires a profile (none|light|moderate|heavy)")?
            .clone();
        args.drain(pos..=pos + 1);
    }
    let mut chaos_profile = String::from("none");
    if let Some(pos) = args.iter().position(|a| a == "--chaos") {
        chaos_profile = args
            .get(pos + 1)
            .ok_or("--chaos requires a profile (none|torn|corrupt|enospc|eio|mixed)")?
            .clone();
        args.drain(pos..=pos + 1);
    }
    let scale = args.get(1).map(String::as_str).unwrap_or("small");
    let seed: u64 = args.get(2).map(|s| s.parse()).transpose()?.unwrap_or(2002);
    let out_dir = args.get(3).cloned();

    let mut config = match scale {
        "tiny" => PipelineConfig::tiny(seed),
        "small" => PipelineConfig::small(seed),
        "default" => PipelineConfig::default_scale(seed),
        "large" => PipelineConfig::large(seed),
        "paper" => PipelineConfig::paper(seed),
        other => {
            return Err(format!("unknown scale {other:?} (tiny|small|default|large|paper)").into())
        }
    };
    config.faults = FaultConfig::profile(&fault_profile, seed ^ 0xFA).ok_or_else(|| {
        format!("unknown fault profile {fault_profile:?} (none|light|moderate|heavy)")
    })?;

    eprintln!(
        "[geotopo] generating world and collecting datasets (scale = {scale}, seed = {seed}, faults = {fault_profile})..."
    );
    // CLI progress timing, printed to stderr only.
    #[allow(clippy::disallowed_methods)]
    let t0 = std::time::Instant::now();
    let mode = if validate {
        ValidationMode::Always
    } else {
        ValidationMode::DebugOnly
    };
    let mut pipeline = Pipeline::new(config)
        .with_validation(mode)
        .with_threads(threads);
    let chaos_config = ChaosConfig::profile(&chaos_profile, seed ^ 0xC4A0).ok_or_else(|| {
        format!("unknown chaos profile {chaos_profile:?} (none|torn|corrupt|enospc|eio|mixed)")
    })?;
    let mut chaos_vfs: Option<Arc<ChaosVfs>> = None;
    let mut store: Option<Arc<ArtifactStore>> = None;
    if chaos_profile != "none" {
        // Chaos implies the disk store: the faults target the cache path.
        let vfs = Arc::new(ChaosVfs::new(chaos_config));
        chaos_vfs = Some(Arc::clone(&vfs));
        store = Some(Arc::new(ArtifactStore::with_disk_vfs(
            ".geotopo-cache",
            vfs as Arc<dyn Vfs>,
        )));
    } else if resume {
        store = Some(Arc::new(ArtifactStore::with_disk(".geotopo-cache")));
    }
    if let Some(store) = &store {
        pipeline = pipeline.with_store(Arc::clone(store));
    }
    let out = pipeline.run()?;
    if let Some(vfs) = &chaos_vfs {
        let stats = vfs.stats();
        eprintln!(
            "[geotopo] chaos ({chaos_profile}): {} ops, {} faults injected \
             (eio {}, enospc {}, short {}, flips {}, torn {})",
            stats.ops,
            stats.injected(),
            stats.read_errors,
            stats.no_space,
            stats.short_writes,
            stats.bit_flips,
            stats.torn_renames,
        );
        if let Some(store) = &store {
            if store.corrupt_detected() > 0 || store.spill_disabled_reason().is_some() {
                eprintln!(
                    "[geotopo] chaos survived: {} corrupt entries quarantined ({} moved), \
                     spill disabled: {}",
                    store.corrupt_detected(),
                    store.quarantined(),
                    store.spill_disabled_reason().as_deref().unwrap_or("no"),
                );
            }
        }
    }
    eprintln!(
        "[geotopo] pipeline done in {:.1}s; ground truth: {} routers, {} interfaces, {} links",
        t0.elapsed().as_secs_f64(),
        out.ground_truth.topology.num_routers(),
        out.ground_truth.topology.num_interfaces(),
        out.ground_truth.topology.num_links(),
    );
    if trace {
        eprintln!("{}", report::stage_trace(&out.reports).render());
        if let Some(warning) = geotopo::core::engine::threads_env_warning() {
            eprintln!("[geotopo] warning: {warning}");
        }
        eprintln!("{}", report::metrics_trace(&out.metrics).render());
    }
    if let Some(path) = metrics_out {
        // A user-requested export, not pipeline state.
        #[allow(clippy::disallowed_methods)]
        std::fs::write(&path, serde_json::to_string_pretty(&out.metrics)?)?;
        eprintln!("[geotopo] wrote metrics snapshot to {path}");
    }

    if query_hitlist > 0 {
        // Serve a hitlist against the frozen snapshot: Skitter's observed
        // nodes, cycled up to the requested size (a stable, deterministic
        // address source that exists at every scale).
        let hitlist: Vec<std::net::Ipv4Addr> = out
            .skitter
            .dataset
            .nodes()
            .iter()
            .map(|n| n.ip)
            .cycle()
            .take(query_hitlist)
            .collect();
        let workers = geotopo::core::engine::resolve_threads(threads);
        let telemetry = geotopo::core::telemetry::Telemetry::new();
        // CLI progress timing, printed to stderr only.
        #[allow(clippy::disallowed_methods)]
        let tq = std::time::Instant::now();
        let answers = geotopo::core::query::bulk_lookup(&out.query, &hitlist, workers, &telemetry);
        let secs = tq.elapsed().as_secs_f64();
        let resolved = answers.iter().filter(|a| a.location.is_some()).count();
        let unmapped = answers.iter().filter(|a| a.matched_len.is_none()).count();
        eprintln!(
            "[geotopo] query hitlist: {} addresses in {:.3}s ({:.0}/s, {} workers): \
             {} resolved, {} origin-unmapped, snapshot of {} addresses via {}",
            answers.len(),
            secs,
            answers.len() as f64 / secs.max(1e-9),
            workers,
            resolved,
            unmapped,
            out.query.len(),
            out.query.mapper(),
        );
    }

    let results = experiments::run_all(&out);
    for r in &results {
        println!("=== {} ===\n{}", r.title, r.text);
    }

    if let Some(dir) = out_dir {
        std::fs::create_dir_all(&dir)?;
        let mut md = String::from("# geotopo reproduction results\n\n");
        for r in &results {
            let path = format!("{dir}/{}.json", r.id);
            // Result exports are terminal output, not pipeline state.
            #[allow(clippy::disallowed_methods)]
            std::fs::write(&path, serde_json::to_string_pretty(&r.json)?)?;
            md.push_str(&format!("## {}\n\n```\n{}\n```\n\n", r.title, r.text));
        }
        // Result exports are terminal output, not pipeline state.
        #[allow(clippy::disallowed_methods)]
        let mut f = std::fs::File::create(format!("{dir}/results.md"))?;
        f.write_all(md.as_bytes())?;

        // Gnuplot scripts for the figure-shaped experiments: running
        // `gnuplot figure_N.gp` in `dir/plots` regenerates each figure.
        let plots = std::path::Path::new(&dir).join("plots");
        let mut n_figs = 0;
        for r in &results {
            if let Ok(fig) =
                serde_json::from_value::<geotopo::core::report::FigureData>(r.json.clone())
            {
                geotopo::core::gnuplot::export_figure(&fig, &plots)?;
                n_figs += 1;
            }
        }
        eprintln!(
            "[geotopo] wrote {} experiments to {dir}/ ({n_figs} gnuplot figures in {dir}/plots/)",
            results.len()
        );
    }
    Ok(())
}
