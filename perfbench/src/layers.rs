//! The traced run: drives each layer through its public functions, in
//! the engine's stage order, with a span around every call, then checks
//! that the results match an untraced `Pipeline::run` +
//! `experiments::run_all` of the same configuration. It also serves the
//! hitlist as `resume-serve` does, so every workload's trace carries
//! the query layer's closed-loop figures.

use crate::check::{self, Digests, Tally};
use crate::hitlist;
use crate::stats;
use crate::trace::{self, Tracer};
use crate::workloads::{self, Setup};
use geotopo::bgp::RouteTable;
use geotopo::core::engine::Fingerprint;
use geotopo::core::experiments::{self, ExperimentResult};
use geotopo::core::io::{self, CacheRead};
use geotopo::core::pipeline::process_chunked;
use geotopo::core::section5::{self, RegionBins};
use geotopo::core::telemetry::MetricsSnapshot;
use geotopo::core::vfs::RealVfs;
use geotopo::core::{
    Collector, MapperKind, NearestHints, Pipeline, PipelineConfig, PipelineOutput, ProcessedDataset,
};
use geotopo::geomap::{EdgeScape, Gazetteer, GeoMapper, IxMapper, MapContext, OrgDb};
use geotopo::measure::{
    Mercator, MercatorConfig, MercatorOutput, Skitter, SkitterConfig, SkitterOutput,
};
use geotopo::population::PopulationGrid;
use geotopo::query::QuerySnapshot;
use geotopo::stats::SerialExec;
use geotopo::topology::generate::GroundTruth;
use std::collections::HashSet;
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The four (tool, collector) pairs in Table I order, as the engine
/// maps them.
const TABLE_I: [(MapperKind, Collector); 4] = [
    (MapperKind::IxMapper, Collector::Mercator),
    (MapperKind::IxMapper, Collector::Skitter),
    (MapperKind::EdgeScape, Collector::Mercator),
    (MapperKind::EdgeScape, Collector::Skitter),
];

/// Milliseconds of pipeline time to spend on each side of the
/// engine-overhead comparison.
const OVERHEAD_BUDGET_MS: f64 = 1_500.0;
/// Most pipeline repetitions a traced run makes.
const MAX_REPS: usize = 5;

/// Per-layer metrics of one traced run, with the operation tally.
#[derive(Debug)]
pub struct TraceOutcome {
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Checks made during the run.
    pub tally: Tally,
    /// Where the Chrome trace was written.
    pub trace_path: String,
}

/// Runs the traced workload once.
pub fn traced_run(
    w: &workloads::Workload,
    setup: &Setup,
    seed: u64,
) -> Result<TraceOutcome, String> {
    let cfg = &w.config(seed);
    let mut tally = Tally::default();

    // Untraced reference: the engine path, digested for the equality
    // check and timed for the engine-overhead estimate.
    let engine_run = || -> Result<(PipelineOutput, f64), String> {
        let t = Instant::now();
        let out = Pipeline::new(cfg.clone())
            .with_threads(1)
            .run()
            .map_err(|e| format!("untraced pipeline: {e}"))?;
        Ok((out, t.elapsed().as_secs_f64() * 1e3))
    };
    let (reference, first_ms) = engine_run()?;
    let mut untraced = check::dataset_digests(reference.datasets.iter().map(|d| &**d));
    untraced.extend(check::experiment_digests(&experiments::run_all(&reference)));
    drop(reference);

    // Engine overhead is a small difference of two pipeline times, so
    // short pipelines are repeated (engine and direct runs alternating)
    // until about OVERHEAD_BUDGET_MS has been spent on each side.
    let reps = ((OVERHEAD_BUDGET_MS / first_ms).ceil() as usize).clamp(1, MAX_REPS);
    let mut tr = Tracer::new(seed);
    let root = tr.enter(w.name);
    let mut engine_ms = vec![first_ms];
    let mut layers_ms = Vec::with_capacity(reps);
    let mut pipes = Vec::with_capacity(reps);
    let mut out = None;
    for rep in 0..reps {
        if rep > 0 {
            engine_ms.push(engine_run()?.1);
        }
        drop(out.take());
        let pipe = tr.enter("pipeline");
        out = Some(drive_pipeline(cfg, &mut tr)?);
        tr.exit(pipe);
        layers_ms.push(tr.children_ms(pipe));
        pipes.push(pipe);
    }
    let out = out.expect("at least one repetition");
    let overhead_ms = stats::median(&engine_ms).expect("engine runs")
        - stats::median(&layers_ms).expect("direct runs");

    let mut traced = check::dataset_digests(out.datasets.iter().map(|d| &**d));
    let analysis = tr.enter("analysis");
    let results = drive_experiments(&out, &mut tr);
    tr.exit(analysis);
    traced.extend(check::experiment_digests(&results));
    let mut problems = check::mismatches(&untraced, &traced);
    if results.len() != workloads::EXPERIMENTS {
        problems.push(format!(
            "{} results, expected {}",
            results.len(),
            workloads::EXPERIMENTS
        ));
    }
    tally.op("traced vs untraced digests", &problems);

    // The closed-loop client of resume-serve, over this snapshot.
    let served = tr.span("query.serve", || workloads::serve(&out, &setup.plan));
    tr.count("query.serve.requests", served.request_us.len() as f64);
    tally.lookups(served.lookups, &served.bad);
    traced.insert("answers".into(), served.digest);

    let stored: Digests = setup.reference.get(&seed).cloned().unwrap_or_default();
    if !stored.is_empty() {
        // Stored digests cover what the workload's untraced runs
        // produce: analysis for reproduce-*, answers for resume-serve.
        let comparable: Digests = traced
            .iter()
            .filter(|(k, _)| stored.contains_key(*k))
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        tally.op(
            "traced vs stored digests",
            &check::mismatches(&stored, &comparable),
        );
    }

    let dp = tr.enter("section5.distance_preference");
    let mut inputs = 0usize;
    for (mapper, collector) in TABLE_I {
        let ds = &out.dataset(mapper, collector).dataset;
        for bins in RegionBins::paper() {
            black_box(section5::distance_preference(ds, &bins, false));
            inputs += 1;
        }
    }
    tr.exit(dp);
    tr.count("section5.inputs", inputs as f64);

    let io_dir = setup
        .out_dir
        .join(format!("trace-store-{}", std::process::id()));
    let io_result = drive_io(&out, &io_dir, &mut tr, &mut tally);
    let _ = std::fs::remove_dir_all(&io_dir);
    io_result?;

    drive_lookups(&out, setup, &mut tr);
    tr.exit(root);

    let trace_path = setup
        .out_dir
        .join(format!("trace-{}-seed{seed}.json", w.name));
    std::fs::write(&trace_path, tr.chrome_json())
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    print_spans(&tr);
    println!(
        "  pipeline repetitions {reps}, spans recorded {}",
        tr.spans().len()
    );

    let span_cost = trace::span_cost_ns();
    let spans = tr.spans().len() as f64;
    let section5_ms = tr.total_ms("section5");
    let dp_ms = tr.total_ms("section5.distance_preference");
    let count = |name: &str| tr.count_value(name).unwrap_or(f64::NAN);
    let ms = |name: &str| tr.total_ms(name);
    // Pipeline layers: the median over repetitions of each one's time.
    let layer = |name: &str| {
        let per_rep: Vec<f64> = pipes.iter().map(|&p| tr.total_ms_under(p, name)).collect();
        stats::median(&per_rep).unwrap_or(f64::NAN)
    };
    let metrics = vec![
        (
            "population.grids_ms".into(),
            layer("population.grids"),
            "ms",
        ),
        (
            "topology.generate_ms".into(),
            layer("topology.generate"),
            "ms",
        ),
        (
            "topology.routers".into(),
            count("topology.routers"),
            "count",
        ),
        ("topology.links".into(), count("topology.links"), "count"),
        ("bgp.synthesize_ms".into(), layer("bgp.synthesize"), "ms"),
        (
            "geomap.gazetteer_ms".into(),
            layer("geomap.gazetteer"),
            "ms",
        ),
        (
            "pipeline.nearest_hints_ms".into(),
            layer("pipeline.nearest_hints"),
            "ms",
        ),
        ("measure.skitter_ms".into(), layer("measure.skitter"), "ms"),
        (
            "measure.skitter.probes".into(),
            count("measure.skitter.probes"),
            "count",
        ),
        (
            "measure.skitter.link_yield".into(),
            count("measure.skitter.link_yield"),
            "ratio",
        ),
        (
            "measure.mercator_ms".into(),
            layer("measure.mercator"),
            "ms",
        ),
        ("geomap.mappers_ms".into(), layer("geomap.mappers"), "ms"),
        ("pipeline.map_ms".into(), layer("pipeline.map"), "ms"),
        ("query.freeze_ms".into(), layer("query.freeze"), "ms"),
        ("engine.overhead_ms".into(), overhead_ms, "ms"),
        ("io.save_ms".into(), ms("io.save"), "ms"),
        ("io.saved_bytes".into(), count("io.saved_bytes"), "bytes"),
        ("io.load_ms".into(), ms("io.load"), "ms"),
        ("bgp.lpm_ns".into(), per_op_ns(&tr, "bgp.lpm"), "ns"),
        (
            "query.lookup_known_ns".into(),
            per_op_ns(&tr, "query.lookup_known"),
            "ns",
        ),
        (
            "query.lookup_unknown_ns".into(),
            per_op_ns(&tr, "query.lookup_unknown"),
            "ns",
        ),
        (
            "query.serve_lookups_per_s".into(),
            stats::median(&served.block_rates).unwrap_or(f64::NAN),
            "1/s",
        ),
        (
            "query.request_p50_us".into(),
            stats::percentile(&served.request_us, 50.0).unwrap_or(f64::NAN),
            "us",
        ),
        (
            "query.request_p99_us".into(),
            stats::percentile(&served.request_us, 99.0).unwrap_or(f64::NAN),
            "us",
        ),
        ("section4_ms".into(), ms("section4"), "ms"),
        ("section5_ms".into(), section5_ms, "ms"),
        ("section5.distance_preference_ms".into(), dp_ms, "ms"),
        ("section5.redundancy".into(), section5_ms / dp_ms, "ratio"),
        ("section6_ms".into(), ms("section6"), "ms"),
        ("fractal_ms".into(), ms("fractal"), "ms"),
        ("robustness_ms".into(), ms("robustness"), "ms"),
        ("trace.overhead_ms".into(), spans * span_cost / 1e6, "ms"),
    ];
    Ok(TraceOutcome {
        metrics,
        tally,
        trace_path: trace_path.display().to_string(),
    })
}

/// Nanoseconds per operation of the span `name`, whose `ops` count was
/// recorded on it.
fn per_op_ns(tr: &Tracer, name: &str) -> f64 {
    let ops = tr.count_value(&format!("{name}.ops")).unwrap_or(f64::NAN);
    tr.total_ms(name) * 1e6 / ops
}

/// The pipeline's stages, called directly in the engine's order on one
/// thread; returns the same output `Pipeline::run` would.
fn drive_pipeline(cfg: &PipelineConfig, tr: &mut Tracer) -> Result<PipelineOutput, String> {
    let n_regions = cfg.world.regions.len();
    let grids: Vec<PopulationGrid> = tr
        .span("population.grids", || {
            (0..n_regions)
                .map(|i| cfg.world.population_grid(i))
                .collect::<Result<_, _>>()
        })
        .map_err(|e| format!("population grid: {e}"))?;
    let refs: Vec<&PopulationGrid> = grids.iter().collect();

    let gt = tr
        .span("topology.generate", || {
            GroundTruth::generate_with_grids_exec(cfg.world.clone(), &refs, &SerialExec)
        })
        .map_err(|e| format!("ground truth: {e}"))?;
    tr.count("topology.routers", gt.topology.num_routers() as f64);
    tr.count("topology.links", gt.topology.num_links() as f64);
    let gt = Arc::new(gt);

    let table = Arc::new(tr.span("bgp.synthesize", || {
        RouteTable::synthesize(&gt.allocations, &cfg.route_table)
    }));

    let gazetteer = Arc::new(tr.span("geomap.gazetteer", || {
        let mut g = Gazetteer::builtin();
        for grid in &grids {
            g.extend_from_population(grid, 8_000.0);
        }
        g
    }));
    drop(refs);
    drop(grids);

    let hints = tr.span("pipeline.nearest_hints", || {
        NearestHints::compute(&gt, &gazetteer, &SerialExec)
    });

    let skitter: SkitterOutput = tr.span("measure.skitter", || {
        let scfg = cfg
            .skitter
            .clone()
            .unwrap_or_else(|| SkitterConfig::scaled(&gt, cfg.world.seed ^ 0x51));
        Skitter::collect_with_faults_exec(&gt, &scfg, &cfg.faults, &SerialExec)
    });
    let a = &skitter.dataset.anomalies;
    let distinct = skitter.dataset.num_links() as f64;
    let observed = distinct + (a.duplicate_links + a.self_loops) as f64;
    tr.count("measure.skitter.probes", skitter.probes_sent as f64);
    tr.count("measure.skitter.link_yield", distinct / observed);

    let mercator: MercatorOutput = tr.span("measure.mercator", || {
        let mcfg = cfg
            .mercator
            .clone()
            .unwrap_or_else(|| MercatorConfig::scaled(&gt, cfg.world.seed ^ 0x3E));
        Mercator::collect_with_faults(&gt, &mcfg, &cfg.faults)
    });

    let (ix, es) = tr.span("geomap.mappers", || {
        let mut orgs = OrgDb::new();
        for rec in &gt.as_records {
            orgs.insert(rec.asn, gt.as_name(rec.asn), rec.home);
        }
        let orgs = Arc::new(orgs);
        (
            IxMapper::with_gazetteer(cfg.mapper_seed, Arc::clone(&orgs), Arc::clone(&gazetteer)),
            EdgeScape::with_gazetteer(cfg.mapper_seed ^ 0x77, orgs, Arc::clone(&gazetteer)),
        )
    });

    let map = tr.enter("pipeline.map");
    let mut datasets = Vec::with_capacity(TABLE_I.len());
    for (mapper, collector) in TABLE_I {
        let tool: &(dyn GeoMapper + Sync) = match mapper {
            MapperKind::IxMapper => &ix,
            MapperKind::EdgeScape => &es,
        };
        let measured = match collector {
            Collector::Skitter => &skitter.dataset,
            Collector::Mercator => &mercator.dataset,
        };
        let name = format!("pipeline.map.{mapper}-{collector}").to_lowercase();
        let (dataset, _) = tr.span(&name, || {
            process_chunked(measured, tool, &table, &gt, Some(&hints), &SerialExec)
        });
        datasets.push(Arc::new(ProcessedDataset {
            collector,
            mapper,
            dataset,
        }));
    }
    tr.exit(map);

    let query = tr.span("query.freeze", || {
        let topo = &gt.topology;
        let addresses = topo.interfaces().map(|(_, iface)| {
            let r = topo.router(iface.router);
            (
                iface.ip,
                MapContext::new(r.location, r.asn)
                    .with_nearest_hint(hints.for_router(iface.router)),
            )
        });
        QuerySnapshot::freeze(
            addresses,
            &ix as &dyn GeoMapper,
            Arc::clone(&table),
            Arc::clone(&gazetteer),
        )
    });

    Ok(PipelineOutput {
        ground_truth: gt,
        route_table: table,
        datasets,
        skitter: Arc::new(skitter),
        mercator: Arc::new(mercator),
        query: Arc::new(query),
        reports: Vec::new(),
        metrics: MetricsSnapshot::default(),
    })
}

fn relabel(mut r: ExperimentResult, id: &str, title: &str) -> ExperimentResult {
    r.id = id.into();
    r.title = title.into();
    r
}

/// The 25 experiments, grouped by paper section, one span per section.
fn drive_experiments(out: &PipelineOutput, tr: &mut Tracer) -> Vec<ExperimentResult> {
    use experiments as x;
    let (ix, es) = (MapperKind::IxMapper, MapperKind::EdgeScape);
    let mut results = tr.span("section4", || {
        vec![
            x::table1(out),
            x::table2(),
            x::table3(out),
            x::table4(out),
            x::fig1(out),
            x::fig2(out, ix),
            relabel(x::fig2(out, es), "fig11", "Figure 11 (EdgeScape)"),
        ]
    });
    results.extend(tr.span("section5", || {
        vec![
            x::fig4(out, ix),
            x::fig5(out, ix),
            x::fig6(out, ix),
            x::table5(out, ix),
            relabel(x::fig4(out, es), "fig12", "Figure 12 (EdgeScape)"),
            relabel(x::fig5(out, es), "fig13", "Figure 13 (EdgeScape)"),
            relabel(x::fig6(out, es), "fig14", "Figure 14 (EdgeScape)"),
            relabel(x::table5(out, es), "table5es", "Table V (EdgeScape)"),
        ]
    }));
    results.extend(tr.span("section6", || {
        vec![
            x::fig7(out),
            x::fig8(out),
            x::fig9(out),
            x::fig10(out),
            x::table6(out),
            x::fig15(out),
            x::fig16(out),
            x::fig17(out),
        ]
    }));
    results.push(tr.span("fractal", || x::fractal_dimension(out)));
    results.push(tr.span("robustness", || x::robustness(out)));
    results
}

/// Publishes every persistable artifact as an envelope under `dir`,
/// then loads each back and checks the datasets round-trip.
fn drive_io(
    out: &PipelineOutput,
    dir: &Path,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let vfs = RealVfs;
    let fp = Fingerprint(out.ground_truth.config.seed);
    let path = |name: &str| dir.join(format!("{name}.json"));
    let names: Vec<String> = out
        .datasets
        .iter()
        .map(|d| format!("map-{}-{}", d.mapper, d.collector).to_lowercase())
        .collect();

    let saved: Result<(), io::IoError> = tr.span("io.save", || {
        io::save_json(
            &vfs,
            &*out.ground_truth,
            &path("ground-truth"),
            "ground-truth",
            fp,
        )?;
        io::save_json(
            &vfs,
            &*out.route_table,
            &path("route-table"),
            "route-table",
            fp,
        )?;
        io::save_json(
            &vfs,
            &*out.skitter,
            &path("collect-skitter"),
            "collect-skitter",
            fp,
        )?;
        io::save_json(
            &vfs,
            &*out.mercator,
            &path("collect-mercator"),
            "collect-mercator",
            fp,
        )?;
        for (d, name) in out.datasets.iter().zip(&names) {
            io::save_dataset(&vfs, d, &path(name), name, fp)?;
        }
        Ok(())
    });
    saved.map_err(|e| format!("save envelopes: {e}"))?;
    let bytes: u64 = std::fs::read_dir(dir)
        .map_err(|e| format!("list {}: {e}", dir.display()))?
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    tr.count("io.saved_bytes", bytes as f64);

    let mut problems = Vec::new();
    let mut loaded = Vec::new();
    tr.span("io.load", || {
        let mut note = |name: &str, hit: bool| {
            if !hit {
                problems.push(format!("{name}: envelope did not load"));
            }
        };
        note(
            "ground-truth",
            is_hit(io::load_json::<GroundTruth>(
                &vfs,
                &path("ground-truth"),
                "ground-truth",
                fp,
            )),
        );
        note(
            "route-table",
            is_hit(io::load_json::<RouteTable>(
                &vfs,
                &path("route-table"),
                "route-table",
                fp,
            )),
        );
        note(
            "collect-skitter",
            is_hit(io::load_json::<SkitterOutput>(
                &vfs,
                &path("collect-skitter"),
                "collect-skitter",
                fp,
            )),
        );
        note(
            "collect-mercator",
            is_hit(io::load_json::<MercatorOutput>(
                &vfs,
                &path("collect-mercator"),
                "collect-mercator",
                fp,
            )),
        );
        for name in &names {
            match io::load_dataset(&vfs, &path(name), name, fp) {
                CacheRead::Hit(d) => loaded.push(d),
                _ => note(name, false),
            }
        }
    });
    problems.extend(check::mismatches(
        &check::dataset_digests(out.datasets.iter().map(|d| &**d)),
        &check::dataset_digests(&loaded),
    ));
    tally.op("envelope round trip", &problems);
    Ok(())
}

fn is_hit<T>(r: CacheRead<T>) -> bool {
    matches!(black_box(r), CacheRead::Hit(_))
}

/// Times the two lookup layers over the seeded hitlist: the route
/// table's longest-prefix match, and snapshot lookups split into known
/// and unknown addresses.
fn drive_lookups(out: &PipelineOutput, setup: &Setup, tr: &mut Tracer) {
    let ifaces = workloads::interfaces(out);
    let known_set: HashSet<u32> = ifaces.iter().map(|&ip| u32::from(ip)).collect();
    let addrs = hitlist::materialize(&setup.plan, &ifaces);
    let (known, unknown): (Vec<Ipv4Addr>, Vec<Ipv4Addr>) = addrs
        .iter()
        .partition(|ip| known_set.contains(&u32::from(**ip)));

    tr.span("bgp.lpm", || {
        for &ip in &addrs {
            black_box(out.route_table.origin_with_len(black_box(ip)));
        }
    });
    tr.count("bgp.lpm.ops", addrs.len() as f64);
    for (name, list) in [
        ("query.lookup_known", &known),
        ("query.lookup_unknown", &unknown),
    ] {
        tr.span(name, || {
            for &ip in list {
                black_box(out.query.lookup(black_box(ip)));
            }
        });
        tr.count(&format!("{name}.ops"), list.len() as f64);
    }
}

/// Prints each distinct span name with its total and self time.
fn print_spans(tr: &Tracer) {
    println!("  {:<34} {:>12} {:>12}", "span", "total_ms", "self_ms");
    for (i, s) in tr.spans().iter().enumerate() {
        println!(
            "  {:<34} {:>12.3} {:>12.3}",
            s.name,
            s.dur_ns() as f64 / 1e6,
            tr.self_ns(i) as f64 / 1e6
        );
    }
}
