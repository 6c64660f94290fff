//! The workloads and their untraced runs.
//!
//! Every run is pinned to one worker thread (`GEOTOPO_THREADS=1` plus
//! `with_threads(1)`) and runs in its own process. `resume-serve` ends
//! each iteration by serving the seeded hitlist from the warm run's
//! frozen query snapshot through `core::query::bulk_lookup`: one
//! closed-loop client, 1,000 addresses per request.

use crate::check::{self, Digests, Fnv, Tally};
use crate::hitlist::{self, Draw};
use crate::stats;
use geotopo::bgp::RouteTable;
use geotopo::core::engine::ArtifactStore;
use geotopo::core::query::bulk_lookup;
use geotopo::core::telemetry::Telemetry;
use geotopo::core::{experiments, Pipeline, PipelineConfig, PipelineOutput};
use geotopo::measure::FaultConfig;
use geotopo::query::QueryAnswer;
use std::collections::{BTreeMap, HashSet};
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Addresses per request.
const REQUEST: usize = 1_000;
/// Requests per serving pass: enough that p99 has ten samples beyond it.
const REQUESTS: usize = 1_000;
/// Per-iteration timings reported under their own names in the table
/// (the JSON line folds them into `total_s` and `ready_s`).
const NAMED_TIMINGS: [&str; 4] = ["reproduce_s", "pipeline_s", "cold_s", "resume_s"];

/// Requests per throughput sample: `lookups_per_s` is the median over
/// blocks of this many consecutive requests, so a burst of host noise
/// moves one sample rather than the whole figure.
const RATE_BLOCK: usize = 50;
/// Number of experiment results a reproduction returns.
pub const EXPERIMENTS: usize = 25;

/// Stored digests for the worlds of seed 2002, one line per output.
const REFERENCE: &str = include_str!("../reference-digests.txt");

/// Directory (relative to the working directory) for temporary stores
/// and traces.
const OUT_DIR: &str = ".bench_out";

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// `small` (6k routers) or `large` (100k routers).
    pub scale: &'static str,
    /// Fault profile of the collectors.
    pub faults: &'static str,
    /// Whether the run publishes to and resumes from a disk store.
    pub disk: bool,
}

/// The benchmark's workloads. Why each exists is in `NOTES.md`, which
/// also says why `BENCHMARK.json` declares all but `reproduce-large`.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "reproduce-small",
        scale: "small",
        faults: "none",
        disk: false,
    },
    Workload {
        name: "reproduce-large",
        scale: "large",
        faults: "none",
        disk: false,
    },
    Workload {
        name: "resume-serve",
        scale: "large",
        faults: "moderate",
        disk: true,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name == name)
    }

    /// The pipeline configuration for `seed`, pinned to one thread.
    pub fn config(&self, seed: u64) -> PipelineConfig {
        let mut cfg = match self.scale {
            "small" => PipelineConfig::small(seed),
            _ => PipelineConfig::large(seed),
        };
        // The same derivation the reproduce_paper example uses.
        cfg.faults = FaultConfig::profile(self.faults, seed ^ 0xFA).expect("known fault profile");
        cfg.threads = 1;
        cfg
    }
}

/// Everything a run prepares before its first timed call.
#[derive(Debug)]
pub struct Setup {
    /// The run's seed.
    pub seed: u64,
    /// The hitlist's draws (addresses are fixed once a world exists).
    pub plan: Vec<Draw>,
    /// Stored digests of this run seed and workload, by world seed.
    pub reference: BTreeMap<u64, Digests>,
    /// Scratch directory for stores and traces.
    pub out_dir: PathBuf,
}

/// Builds the run's inputs: hitlist draws, reference digests and the
/// scratch directory.
fn setup(w: &Workload, seed: u64) -> Result<Setup, String> {
    let out_dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    Ok(Setup {
        seed,
        plan: hitlist::plan(seed, REQUEST * REQUESTS),
        reference: check::reference(REFERENCE, seed, w.name)?,
        out_dir,
    })
}

/// The world seed of iteration `i` of a run with `seed`: the seed
/// itself first, then well-mixed derivations of it. How long a
/// reproduction takes depends on the world (Section V's cost swings
/// with how many nodes fall in each study region), so a run reports the
/// median over several worlds rather than the luck of one.
fn world_seed(seed: u64, i: usize) -> u64 {
    if i == 0 {
        seed
    } else {
        hitlist::SplitMix64::new(seed ^ (i as u64).wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
            >> 1
    }
}

/// Set-up repetitions whose median is reported as `setup_s`.
const SETUP_REPEATS: usize = 9;

/// Runs setup [`SETUP_REPEATS`] times and returns the last result with
/// the median setup time in seconds.
pub fn timed_setup(w: &Workload, seed: u64) -> Result<(Setup, f64), String> {
    let mut secs = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let s = setup(w, seed)?;
        secs.push(t.elapsed().as_secs_f64());
        last = Some(std::hint::black_box(s));
    }
    let median = stats::median(&secs).expect("at least one setup");
    Ok((last.expect("at least one setup"), median))
}

/// Samples and counts gathered over one untraced run.
#[derive(Debug, Default)]
pub struct RunSamples {
    /// Per-iteration timings by metric name.
    pub series: BTreeMap<&'static str, Vec<f64>>,
    /// Request latencies in µs, pooled over iterations.
    pub request_us: Vec<f64>,
    /// Share of served addresses that were known interfaces.
    pub known_share: Vec<f64>,
    /// Operation tally.
    pub tally: Tally,
}

impl RunSamples {
    fn push(&mut self, name: &'static str, v: f64) {
        self.series.entry(name).or_default().push(v);
    }
}

/// Runs `w` for about `seconds`: whole iterations, at least one, each on
/// its own world (see [`world_seed`]), stopping where the run's length
/// comes closest to the budget (see [`another_iteration`]).
pub fn run(w: &Workload, setup: &Setup, seconds: f64) -> RunSamples {
    let mut samples = RunSamples::default();
    let start = Instant::now();
    for iter in 0.. {
        let t = Instant::now();
        let world = world_seed(setup.seed, iter);
        let cfg = w.config(world);
        let outcome = if w.disk {
            resume_serve_iteration(&cfg, setup, iter, &mut samples)
        } else {
            reproduce_iteration(&cfg, &mut samples)
        };
        if let Some((d, mut problems)) = outcome {
            match setup.reference.get(&world) {
                Some(expected) => problems.extend(check::mismatches(expected, &d)),
                None => {
                    eprint!(
                        "[perfbench] no stored digests for world {world}; this run's digests:\n{}",
                        check::reference_lines(&d, setup.seed, world, w.name)
                    );
                }
            }
            samples
                .tally
                .op(&format!("{} world {world}", w.name), &problems);
        }
        let last = t.elapsed();
        eprintln!(
            "[perfbench] iteration {iter} (world {world}): {}",
            samples
                .series
                .iter()
                .filter(|(k, _)| NAMED_TIMINGS.contains(k))
                .filter_map(|(k, v)| Some(format!("{k}={:.3}", v.last()?)))
                .collect::<Vec<_>>()
                .join(" ")
        );
        if !another_iteration(start.elapsed().as_secs_f64(), last.as_secs_f64(), seconds) {
            break;
        }
    }
    samples
}

/// Whether to start another iteration expected to last `last` seconds,
/// `elapsed` seconds into a run budgeted at `budget`: yes when finishing
/// it would end the run closer to the budget than stopping now.
fn another_iteration(elapsed: f64, last: f64, budget: f64) -> bool {
    elapsed + last / 2.0 < budget
}

/// What one iteration produced: its digests and any check it failed.
type Outcome = Option<(Digests, Vec<String>)>;

/// One reproduction: `Pipeline::run` then `experiments::run_all`.
/// Returns `None` after an error, already counted as a failed operation.
fn reproduce_iteration(cfg: &PipelineConfig, samples: &mut RunSamples) -> Outcome {
    let t0 = Instant::now();
    let out = match Pipeline::new(cfg.clone()).with_threads(1).run() {
        Ok(out) => out,
        Err(e) => {
            samples.tally.op("pipeline", &[e.to_string()]);
            return None;
        }
    };
    let t1 = Instant::now();
    let results = std::hint::black_box(experiments::run_all(&out));
    let t2 = Instant::now();
    samples.push("reproduce_s", (t2 - t0).as_secs_f64());
    samples.push("pipeline_s", (t1 - t0).as_secs_f64());
    samples.push("total_s", (t2 - t0).as_secs_f64());
    samples.push("ready_s", (t1 - t0).as_secs_f64());

    let mut problems = Vec::new();
    if results.len() != EXPERIMENTS {
        problems.push(format!("{} results, expected {EXPERIMENTS}", results.len()));
    }
    let mut digests = check::experiment_digests(&results);
    digests.extend(check::dataset_digests(out.datasets.iter().map(|d| &**d)));
    Some((digests, problems))
}

/// One resume cycle at large scale: a cold run that publishes every
/// envelope to a fresh disk store, a warm run that resumes from it in a
/// new store handle (as a restarted process would), then serving from
/// the warm run's snapshot. The store directory is deleted afterwards.
fn resume_serve_iteration(
    cfg: &PipelineConfig,
    setup: &Setup,
    iter: usize,
    samples: &mut RunSamples,
) -> Outcome {
    let dir = setup
        .out_dir
        .join(format!("store-{}-{iter}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let result = resume_serve_in(cfg, setup, &dir, samples);
    if let Err(e) = std::fs::remove_dir_all(&dir) {
        eprintln!("[perfbench] could not remove {}: {e}", dir.display());
    }
    result
}

fn resume_serve_in(
    cfg: &PipelineConfig,
    setup: &Setup,
    dir: &Path,
    samples: &mut RunSamples,
) -> Outcome {
    let run = |store: &Arc<ArtifactStore>| {
        Pipeline::new(cfg.clone())
            .with_threads(1)
            .with_store(Arc::clone(store))
            .run()
    };
    let t0 = Instant::now();
    let cold = match run(&Arc::new(ArtifactStore::with_disk(dir))) {
        Ok(out) => out,
        Err(e) => {
            samples.tally.op("cold run", &[e.to_string()]);
            return None;
        }
    };
    let t1 = Instant::now();
    let cold_digests = check::dataset_digests(cold.datasets.iter().map(|d| &**d));
    drop(cold);

    let store = Arc::new(ArtifactStore::with_disk(dir));
    let t2 = Instant::now();
    let warm = match run(&store) {
        Ok(out) => out,
        Err(e) => {
            samples.tally.op("warm run", &[e.to_string()]);
            return None;
        }
    };
    let t3 = Instant::now();
    let cold_s = (t1 - t0).as_secs_f64();
    let resume_s = (t3 - t2).as_secs_f64();
    samples.push("cold_s", cold_s);
    samples.push("resume_s", resume_s);
    samples.push("total_s", cold_s + resume_s);
    samples.push("ready_s", resume_s);

    let mut problems = check::mismatches(
        &cold_digests,
        &check::dataset_digests(warm.datasets.iter().map(|d| &**d)),
    );
    if store.disk_restores() == 0 {
        problems.push("warm run restored nothing from the disk store".into());
    }
    let served = serve(&warm, &setup.plan);
    samples.request_us.extend(&served.request_us);
    for &rate in &served.block_rates {
        samples.push("lookups_per_s", rate);
    }
    samples.known_share.push(served.known_share);
    samples.tally.lookups(served.lookups, &served.bad);
    let mut digests = cold_digests;
    digests.insert("answers".into(), served.digest);
    Some((digests, problems))
}

/// The world's interface addresses in topology order.
pub fn interfaces(out: &PipelineOutput) -> Vec<Ipv4Addr> {
    out.ground_truth
        .topology
        .interfaces()
        .map(|(_, i)| i.ip)
        .collect()
}

/// What one serving pass measured and checked.
#[derive(Debug)]
pub struct Served {
    /// Latency of each request, µs.
    pub request_us: Vec<f64>,
    /// Throughput of each block of [`RATE_BLOCK`] requests, lookups/s.
    pub block_rates: Vec<f64>,
    /// Share of answers that were known interfaces.
    pub known_share: f64,
    /// Digest of the answers, in request order.
    pub digest: u64,
    /// Lookups made.
    pub lookups: u64,
    /// Answers that failed their check.
    pub bad: Vec<String>,
}

/// Serves the hitlist drawn in `plan` from `out.query`, one closed-loop
/// client, and checks every answer.
pub fn serve(out: &PipelineOutput, plan: &[Draw]) -> Served {
    let ifaces = interfaces(out);
    let known: HashSet<u32> = ifaces.iter().map(|&ip| u32::from(ip)).collect();
    let addrs = hitlist::materialize(plan, &ifaces);
    let telemetry = Telemetry::new();
    let mut digest = Fnv::new();
    let mut request_us = Vec::with_capacity(REQUESTS);
    let mut block_rates = Vec::new();
    let mut block = Duration::ZERO;
    let mut known_answers = 0usize;
    let mut bad = Vec::new();
    for (i, request) in addrs.chunks(REQUEST).enumerate() {
        let t = Instant::now();
        let answers = bulk_lookup(&out.query, request, 1, &telemetry);
        let dt = t.elapsed();
        request_us.push(dt.as_secs_f64() * 1e6);
        block += dt;
        if (i + 1) % RATE_BLOCK == 0 {
            block_rates.push((RATE_BLOCK * REQUEST) as f64 / block.as_secs_f64());
            block = Duration::ZERO;
        }
        known_answers += answers.iter().filter(|a| a.known).count();
        bad.extend(check_answers(request, &answers, &out.route_table, &known));
        check::feed_answers(&mut digest, &answers);
    }
    Served {
        request_us,
        block_rates,
        known_share: known_answers as f64 / addrs.len().max(1) as f64,
        digest: digest.finish(),
        lookups: addrs.len() as u64,
        bad,
    }
}

/// Checks each answer independently of the snapshot: the origin and
/// matched length must equal the route table's own longest-prefix
/// match, and `known` must equal membership in the interface set.
fn check_answers(
    request: &[Ipv4Addr],
    answers: &[QueryAnswer],
    table: &RouteTable,
    known: &HashSet<u32>,
) -> Vec<String> {
    if answers.len() != request.len() {
        return vec![format!(
            "{} answers for {} addresses",
            answers.len(),
            request.len()
        )];
    }
    request
        .iter()
        .zip(answers)
        .filter_map(|(&ip, a)| {
            let lpm = table.origin_with_len(ip);
            let want_origin = lpm.map(|(asn, _)| asn);
            let got_origin = a.matched_len.map(|_| a.origin);
            let ok = a.ip == u32::from(ip)
                && got_origin == want_origin
                && a.matched_len == lpm.map(|(_, len)| len)
                && a.known == known.contains(&u32::from(ip));
            (!ok).then(|| format!("{ip}: answer {a:?}, route table {lpm:?}"))
        })
        .collect()
}

/// Prints the run's metrics as a table (name, value, unit, samples) and
/// returns the end-to-end metrics the JSON result carries.
pub fn report(
    w: &Workload,
    s: &RunSamples,
    setup_s: f64,
    rss_mib: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let med = |name: &str| s.series.get(name).and_then(|v| stats::median(v));
    let n = |name: &str| s.series.get(name).map_or(0, Vec::len);
    let req_p = |p: f64| stats::percentile(&s.request_us, p);

    println!(
        "workload {} (scale {}, faults {}, 1 thread)",
        w.name, w.scale, w.faults
    );
    println!(
        "  {:<18} {:>14} {:<6} {:>8}",
        "metric", "value", "unit", "samples"
    );
    let row = |name: &str, v: Option<f64>, unit: &str, samples: usize| {
        if let Some(v) = v {
            println!("  {name:<18} {v:>14.6} {unit:<6} {samples:>8}");
        }
    };
    for t in NAMED_TIMINGS {
        row(t, med(t), "s", n(t));
    }
    if w.disk {
        let requests = s.request_us.len();
        row(
            "lookups_per_s",
            med("lookups_per_s"),
            "1/s",
            n("lookups_per_s"),
        );
        row("request_p50_us", req_p(50.0), "us", requests);
        row("request_p99_us", req_p(99.0), "us", requests);
        if let Some(p) = stats::tail_percentile(requests).filter(|&p| p > 99.0) {
            row(&format!("request_p{p}_us"), req_p(p), "us", requests);
        }
        row(
            "known_share",
            stats::median(&s.known_share),
            "",
            s.known_share.len(),
        );
    }
    row("peak_rss_mib", Some(rss_mib), "MiB", 1);
    row("setup_s", Some(setup_s), "s", SETUP_REPEATS);
    row(
        "failed_ops_frac",
        Some(s.tally.failed_frac()),
        "",
        s.tally.attempted as usize,
    );

    let mut metrics = Vec::new();
    for (name, v, unit) in [
        ("total_s", med("total_s"), "s"),
        ("ready_s", med("ready_s"), "s"),
        ("peak_rss_mib", Some(rss_mib), "MiB"),
        ("setup_s", Some(setup_s), "s"),
    ] {
        if let Some(v) = v {
            metrics.push((name, v, unit));
        }
    }
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iterations_end_closest_to_the_budget() {
        // 15 s iterations in a 40 s budget: a third ends at 45 s, 5 s
        // over, which beats stopping 10 s short.
        assert!(another_iteration(30.0, 15.0, 40.0));
        assert!(!another_iteration(45.0, 15.0, 40.0));
        // 18 s iterations: a third would end 14 s over; stop at 36 s.
        assert!(!another_iteration(36.0, 18.0, 40.0));
        assert!(another_iteration(18.0, 18.0, 40.0));
    }

    #[test]
    fn world_seeds_start_at_the_run_seed_and_differ() {
        assert_eq!(world_seed(2002, 0), 2002);
        let worlds: HashSet<u64> = (0..50).map(|i| world_seed(2002, i)).collect();
        assert_eq!(worlds.len(), 50);
        assert_eq!(world_seed(2002, 3), world_seed(2002, 3));
        assert_ne!(world_seed(2002, 1), world_seed(2003, 1));
    }
}
