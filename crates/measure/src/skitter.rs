//! Skitter-like multi-monitor collection.
//!
//! "Skitter sends hop-limited probes to a list of destination nodes
//! located worldwide ... a successful Skitter probe reports a sequence of
//! interfaces along contiguous routers on the path from the source to the
//! destination. In this study, we treat interfaces as virtual nodes, and
//! define a link to mean a connection between two adjacent interfaces."
//!
//! Faithfully reproduced artifacts:
//!
//! - the dataset is the **union of forward paths from ~19 monitors**;
//! - nodes are **interfaces, not routers** (no alias resolution);
//! - destination-list addresses are end hosts — after collection, "we
//!   further discarded all interfaces appearing in the destination lists";
//! - self-loops and duplicate observations are discarded as anomalies.

use crate::campaign::sample_destinations;
use crate::dataset::{MeasuredDataset, MonitorRecord, NodeKind};
use crate::faults::{FaultConfig, FaultPlan, FaultSession, FaultStats};
use crate::probe::{TraceBuf, TracerouteSim};
use crate::routing::{RoutingOracle, RoutingScratch, RoutingStats};
use geotopo_stats::ChunkExec;
use geotopo_topology::generate::GroundTruth;
use geotopo_topology::{InterfaceId, RouterId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

/// Destinations per trace chunk: the unit of interior parallelism
/// within one monitor's campaign. Fixed (never derived from the thread
/// count) so the job list — and every merged byte — is identical at any
/// parallelism.
pub const DEST_CHUNK: usize = 2048;

/// Trace-chunk jobs dispatched per wave. Each wave's replay logs are
/// merged into the dataset before the next wave runs, bounding how much
/// raw event log is ever resident while still keeping far more jobs in
/// flight than any scheduler has workers. Fixed (never derived from the
/// thread count) so wave boundaries — and the merge order — are
/// identical at any parallelism.
const TRACE_WAVE_JOBS: usize = 64;

/// Skitter collection parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SkitterConfig {
    /// Number of monitors (the paper's dataset unions 19).
    pub n_monitors: usize,
    /// Total destination-list size.
    pub destinations: usize,
    /// Fraction of the destination list each monitor probes
    /// ("each probing a destination list of varying size").
    pub monitor_coverage: f64,
    /// Per-router probe-response probability.
    pub response_prob: f64,
    /// RNG seed.
    pub seed: u64,
}

impl SkitterConfig {
    /// Paper-like defaults scaled to the world size: the destination list
    /// covers the address space densely enough that most of the core is
    /// traversed.
    pub fn scaled(gt: &GroundTruth, seed: u64) -> Self {
        SkitterConfig {
            n_monitors: 19,
            destinations: gt.topology.num_routers() * 3,
            monitor_coverage: 0.8,
            response_prob: 0.97,
            seed,
        }
    }
}

/// Skitter collection result.
#[derive(Debug, Serialize, Deserialize)]
pub struct SkitterOutput {
    /// The processed interface-level dataset (destinations discarded).
    pub dataset: MeasuredDataset,
    /// Interfaces observed before destination discarding.
    pub raw_nodes: usize,
    /// Destination-list nodes discarded (paper: 18%).
    pub discarded_destinations: usize,
    /// The monitors planned for the campaign.
    pub monitors: Vec<RouterId>,
    /// Monitors that lost more of their campaign to outage than they
    /// completed (also recorded per-monitor in `dataset.anomalies`).
    pub failed_monitors: usize,
    /// Probes actually sent during the campaign (retries included).
    #[serde(default)]
    pub probes_sent: u64,
    /// Virtual probe-tick clock reading at campaign end (probes sent
    /// plus backoff waits; see `faults`).
    #[serde(default)]
    pub virtual_ticks: u64,
    /// Shortest-path solver counters, merged in monitor-index order.
    #[serde(default)]
    pub routing: RoutingStats,
}

impl SkitterOutput {
    /// Monitors that stayed healthy for at least half their campaign.
    pub fn active_monitors(&self) -> usize {
        self.monitors.len().saturating_sub(self.failed_monitors)
    }
}

/// One dataset event recorded by a trace chunk, replayed serially in
/// (monitor, chunk) order. Interfaces are named by id — the epilogue
/// resolves them through a vec-indexed intern cache instead of a by-IP
/// hash probe per event.
#[derive(Debug, Clone, Copy)]
enum ReplayEvent {
    /// A responding hop: intern the interface and link it to the
    /// previous node in the chain.
    Iface(InterfaceId),
    /// The destination end host answering last.
    Host(Ipv4Addr),
    /// Chain break (silent router or end of a trace).
    Break,
}

/// One (monitor, destination-chunk) job's output: the dataset events to
/// replay plus every per-chunk counter. Merged serially in job-index
/// order — monitor-major, chunk-minor — which is what keeps the final
/// dataset byte-identical at any thread count.
#[derive(Debug)]
struct TraceChunk {
    replay: Vec<ReplayEvent>,
    probes: u64,
    skipped: u64,
    probes_sent: u64,
    ticks_elapsed: u64,
    fstats: FaultStats,
}

/// The Skitter collector.
#[derive(Debug)]
pub struct Skitter;

impl Skitter {
    /// Runs a collection under an injected fault plan (inert:
    /// [`FaultConfig::none`]) with its interior jobs dispatched through
    /// `exec` — the engine passes its deterministic scoped-thread
    /// scheduler here. Parallelism is two-layered: one routing oracle
    /// per monitor, then one trace job per (monitor, [`DEST_CHUNK`]
    /// destinations) pair, so a 19-monitor campaign exposes far more
    /// than 19 units of work. The output is byte-identical for any
    /// conforming [`ChunkExec`] because all RNG draws happen up front
    /// in the serial prologue, each trace chunk owns a fixed slice of
    /// the virtual fault clock, and results merge in job-index order.
    pub fn collect_with_faults_exec(
        gt: &GroundTruth,
        cfg: &SkitterConfig,
        faults: &FaultConfig,
        exec: &impl ChunkExec,
    ) -> SkitterOutput {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let t = &gt.topology;

        // Destination list: end-host addresses spread over the allocated
        // space, each with the access router serving it.
        let (destinations, attach) = sample_destinations(gt, cfg.destinations, &mut rng, exec);

        // Monitors: distinct routers, preferring distinct regions first.
        let monitors = pick_monitors(gt, cfg.n_monitors, &mut rng);

        let sim = TracerouteSim::new(t, cfg.response_prob, &mut rng);

        // Last of the serial RNG prologue: pre-draw every coverage coin
        // in the exact nested (monitor, destination) order the serial
        // loop used, so the RNG stream — and therefore every downstream
        // byte — is independent of how the jobs are later scheduled.
        let coverage: Vec<bool> = (0..monitors.len() * destinations.len())
            .map(|_| rng.random::<f64>() < cfg.monitor_coverage)
            .collect();

        // Compile the fault plan against the campaign's probe budget
        // (monitors × destinations × coverage × a typical hop count) so
        // flap windows and outage onsets land mid-campaign.
        let expected_probes =
            (monitors.len() as f64 * destinations.len() as f64 * cfg.monitor_coverage * 8.0) as u64;
        let plan = FaultPlan::compile(faults, t.num_routers(), monitors.len(), expected_probes);
        // Each monitor owns a disjoint slice of the virtual clock, so
        // its hash-derived fate stream depends only on its own probes.
        let slice_len = (expected_probes / monitors.len().max(1) as u64).max(1);

        // Phase 1: one policy-aware shortest-path oracle per monitor.
        // Oracles are immutable after the solve and shared by reference
        // into every trace chunk of their monitor.
        let mut solved = exec.dispatch(monitors.len(), &|m| {
            let mut scratch = RoutingScratch::new();
            let oracle = RoutingOracle::new_in(t, monitors[m], &mut scratch);
            (oracle, scratch.stats)
        });
        let mut routing = RoutingStats::default();
        let mut oracles = Vec::with_capacity(solved.len());
        for (oracle, stats) in solved.drain(..) {
            routing.absorb(&stats);
            oracles.push(oracle);
        }

        // Phase 2: trace jobs, one per (monitor, destination chunk),
        // monitor-major so the merge below reads in the same nested
        // order the serial loop produced. Each chunk opens its own
        // fault session at a fixed tick — monitor slice base plus a
        // per-chunk stride — so its hash-derived fate stream depends
        // only on its own coordinates, never on scheduling.
        let n_dest_chunks = destinations.len().div_ceil(DEST_CHUNK).max(1);
        let chunk_ticks = (slice_len / n_dest_chunks as u64).max(1);
        let n_jobs = monitors.len() * n_dest_chunks;
        let trace_job = |j: usize| -> TraceChunk {
            let m_idx = j / n_dest_chunks;
            let c = j % n_dest_chunks;
            let lo = c * DEST_CHUNK;
            let hi = ((c + 1) * DEST_CHUNK).min(destinations.len());
            let oracle = &oracles[m_idx];
            let base = m_idx as u64 * slice_len + c as u64 * chunk_ticks;
            let mut session = FaultSession::at_tick(&plan, base);
            let mut buf = TraceBuf::new();
            let mut replay: Vec<ReplayEvent> = Vec::new();
            let (mut probes, mut skipped) = (0u64, 0u64);
            let cover = &coverage[m_idx * destinations.len()..(m_idx + 1) * destinations.len()];
            for d_idx in lo..hi {
                if !cover[d_idx] {
                    continue;
                }
                if session.monitor_down(m_idx) {
                    skipped += 1;
                    session.stats.outage_skips += 1;
                    continue;
                }
                probes += 1;
                let Some(dst) = attach[d_idx] else { continue };
                let Some(hops) = sim.trace_with_faults_into(oracle, dst, &mut session, &mut buf)
                else {
                    continue;
                };
                // Record the chain events: reported interfaces extend
                // it, silence breaks it so no false link spans an
                // unresponsive router.
                let mut chained = false;
                for hop in hops {
                    match hop.interface {
                        Some(iface) => {
                            replay.push(ReplayEvent::Iface(iface));
                            chained = true;
                        }
                        None => {
                            replay.push(ReplayEvent::Break);
                            chained = false;
                        }
                    }
                }
                // The destination end host responds last.
                if chained {
                    replay.push(ReplayEvent::Host(destinations[d_idx]));
                }
                replay.push(ReplayEvent::Break);
            }
            TraceChunk {
                replay,
                probes,
                skipped,
                probes_sent: session.probes_sent(),
                ticks_elapsed: session.tick() - base,
                fstats: session.stats,
            }
        };

        // Serial epilogue, interleaved in waves: trace jobs are
        // dispatched [`TRACE_WAVE_JOBS`] at a time and each wave's
        // replay logs are folded into the dataset (in job-index order)
        // before the next wave runs, so at most one wave of raw event
        // logs is resident — a large campaign records tens of millions
        // of events, and materializing them all at once costs ~10x the
        // final dataset in peak RSS. Wave boundaries are fixed (never
        // derived from the thread count), so node interning — and with
        // it every downstream byte — is schedule-independent.
        // Interfaces intern through a vec-indexed cache; only first
        // sightings and end hosts touch the dataset's by-IP hash map.
        let mut dataset = MeasuredDataset::new(NodeKind::Interface);
        let mut records: Vec<MonitorRecord> = monitors
            .iter()
            .map(|m| MonitorRecord {
                router: m.0,
                node: None,
                probes: 0,
                skipped: 0,
            })
            .collect();
        let mut fault_stats = FaultStats::default();
        let (mut probes_sent, mut virtual_ticks) = (0u64, 0u64);
        let mut iface_node: Vec<u32> = vec![u32::MAX; t.num_interfaces()];
        let mut wave_base = 0usize;
        while wave_base < n_jobs {
            let wave_len = TRACE_WAVE_JOBS.min(n_jobs - wave_base);
            let chunks = exec.dispatch(wave_len, &|w| trace_job(wave_base + w));
            // Chunks are consumed by value so each replay log is freed
            // as soon as it has been replayed: the allocator reuses
            // those pages for the growing dataset.
            for (w, chunk) in chunks.into_iter().enumerate() {
                let j = wave_base + w;
                let mut prev: Option<u32> = None;
                for ev in &chunk.replay {
                    match ev {
                        ReplayEvent::Iface(id) => {
                            let slot = &mut iface_node[id.0 as usize];
                            let node = if *slot != u32::MAX {
                                *slot
                            } else {
                                let node = dataset.intern(t.interface(*id).ip);
                                *slot = node;
                                node
                            };
                            if let Some(p) = prev {
                                dataset.observe_link(p, node);
                            }
                            prev = Some(node);
                        }
                        ReplayEvent::Host(ip) => {
                            let node = dataset.intern(*ip);
                            if let Some(p) = prev {
                                dataset.observe_link(p, node);
                            }
                            prev = Some(node);
                        }
                        ReplayEvent::Break => prev = None,
                    }
                }
                let record = &mut records[j / n_dest_chunks];
                record.probes += chunk.probes;
                record.skipped += chunk.skipped;
                fault_stats.absorb(&chunk.fstats);
                probes_sent += chunk.probes_sent;
                virtual_ticks += chunk.ticks_elapsed;
            }
            wave_base += wave_len;
        }

        // Anchor each monitor record at the lowest-indexed interface of
        // its router present in the dataset (before destination
        // discarding — remove_nodes remaps or clears the reference).
        let mut first_node_of_router: HashMap<u32, u32> = HashMap::new();
        for (i, node) in dataset.nodes().iter().enumerate() {
            if let Some(iface) = t.interface_by_ip(node.ip) {
                first_node_of_router
                    .entry(t.interface(iface).router.0)
                    .or_insert(i as u32);
            }
        }
        for record in &mut records {
            record.node = first_node_of_router.get(&record.router).copied();
        }
        let failed_monitors = records.iter().filter(|r| r.failed()).count();
        dataset.anomalies.faults.absorb(&fault_stats);
        dataset.anomalies.monitors = records;

        // Discard destination-list interfaces (end hosts).
        let raw_nodes = dataset.num_nodes();
        let remove: HashSet<u32> = destinations
            .iter()
            .filter_map(|&ip| dataset.node_by_ip(ip))
            .collect();
        let discarded_destinations = remove.len();
        dataset.remove_nodes(&remove);

        SkitterOutput {
            dataset,
            raw_nodes,
            discarded_destinations,
            monitors,
            failed_monitors,
            probes_sent,
            virtual_ticks,
            routing,
        }
    }
}

/// Picks monitor routers spread across regions.
fn pick_monitors(gt: &GroundTruth, n: usize, rng: &mut StdRng) -> Vec<RouterId> {
    let n_regions = gt.config.regions.len();
    let mut by_region: Vec<Vec<u32>> = vec![Vec::new(); n_regions];
    for (i, &reg) in gt.router_region.iter().enumerate() {
        by_region[reg as usize].push(i as u32);
    }
    let mut monitors = Vec::with_capacity(n);
    let mut region = 0usize;
    let mut guard = 0usize;
    while monitors.len() < n && guard < n * 20 {
        guard += 1;
        let bucket = &by_region[region % n_regions];
        region += 1;
        if bucket.is_empty() {
            continue;
        }
        let pick = RouterId(bucket[rng.random_range(0..bucket.len())]);
        if !monitors.contains(&pick) {
            monitors.push(pick);
        }
    }
    monitors
}

#[cfg(test)]
mod tests {
    use super::*;
    use geotopo_stats::SerialExec;
    use geotopo_topology::generate::GroundTruthConfig;

    fn world() -> GroundTruth {
        GroundTruth::generate(GroundTruthConfig::tiny(77)).unwrap()
    }

    fn collect(gt: &GroundTruth, cfg: &SkitterConfig, faults: &FaultConfig) -> SkitterOutput {
        Skitter::collect_with_faults_exec(gt, cfg, faults, &SerialExec)
    }

    #[test]
    fn collects_interface_level_dataset() {
        let gt = world();
        let cfg = SkitterConfig {
            n_monitors: 5,
            destinations: 800,
            monitor_coverage: 0.8,
            response_prob: 0.97,
            seed: 1,
        };
        let out = collect(&gt, &cfg, &FaultConfig::none());
        assert_eq!(out.dataset.kind, NodeKind::Interface);
        assert!(
            out.dataset.num_nodes() > 100,
            "nodes {}",
            out.dataset.num_nodes()
        );
        assert!(
            out.dataset.num_links() > 100,
            "links {}",
            out.dataset.num_links()
        );
        assert_eq!(out.monitors.len(), 5);
    }

    #[test]
    fn destination_interfaces_are_discarded() {
        let gt = world();
        let cfg = SkitterConfig {
            n_monitors: 4,
            destinations: 500,
            monitor_coverage: 1.0,
            response_prob: 1.0,
            seed: 2,
        };
        let out = collect(&gt, &cfg, &FaultConfig::none());
        assert!(out.discarded_destinations > 0);
        assert_eq!(
            out.dataset.num_nodes(),
            out.raw_nodes - out.discarded_destinations
        );
        // A meaningful share of raw nodes were destinations (paper: 18%).
        let frac = out.discarded_destinations as f64 / out.raw_nodes as f64;
        assert!(frac > 0.03 && frac < 0.6, "destination share {frac}");
    }

    #[test]
    fn observed_interfaces_exist_in_ground_truth() {
        let gt = world();
        let cfg = SkitterConfig {
            n_monitors: 3,
            destinations: 300,
            monitor_coverage: 1.0,
            response_prob: 1.0,
            seed: 3,
        };
        let out = collect(&gt, &cfg, &FaultConfig::none());
        for node in out.dataset.nodes() {
            assert!(
                gt.topology.interface_by_ip(node.ip).is_some(),
                "phantom interface {}",
                node.ip
            );
        }
    }

    #[test]
    fn more_monitors_see_more() {
        let gt = world();
        let base = SkitterConfig {
            n_monitors: 2,
            destinations: 600,
            monitor_coverage: 1.0,
            response_prob: 1.0,
            seed: 4,
        };
        let few = collect(&gt, &base, &FaultConfig::none());
        let mut more_cfg = base.clone();
        more_cfg.n_monitors = 7;
        let more = collect(&gt, &more_cfg, &FaultConfig::none());
        assert!(more.dataset.num_links() > few.dataset.num_links());
    }

    #[test]
    fn deterministic_per_seed() {
        let gt = world();
        let cfg = SkitterConfig {
            n_monitors: 3,
            destinations: 200,
            monitor_coverage: 0.9,
            response_prob: 0.95,
            seed: 5,
        };
        let a = collect(&gt, &cfg, &FaultConfig::none());
        let b = collect(&gt, &cfg, &FaultConfig::none());
        assert_eq!(a.dataset.num_nodes(), b.dataset.num_nodes());
        assert_eq!(a.dataset.num_links(), b.dataset.num_links());
    }

    #[test]
    fn inert_fault_plan_records_no_faults() {
        let gt = world();
        let cfg = SkitterConfig {
            n_monitors: 4,
            destinations: 300,
            monitor_coverage: 0.85,
            response_prob: 0.95,
            seed: 6,
        };
        let inert = collect(&gt, &cfg, &FaultConfig::none());
        assert!(inert.dataset.anomalies.faults.is_zero());
        assert_eq!(inert.failed_monitors, 0);
    }

    #[test]
    fn active_faults_are_counted_and_survived() {
        let gt = world();
        let cfg = SkitterConfig {
            n_monitors: 6,
            destinations: 400,
            monitor_coverage: 0.9,
            response_prob: 0.97,
            seed: 7,
        };
        let out = collect(&gt, &cfg, &FaultConfig::at_severity(0.6, 21));
        let f = &out.dataset.anomalies.faults;
        assert!(f.probes_lost > 0, "packet loss never fired");
        assert!(f.retries > 0, "no retries issued");
        assert!(f.retry_successes > 0, "no retry recovered an answer");
        assert_eq!(out.dataset.anomalies.monitors.len(), 6);
        // Pathologies distort the dataset (loss thins it, churn adds
        // same-router artifacts) but never corrupt it.
        assert!(out.dataset.validate_against(&gt.topology).is_ok());
        let clean = collect(&gt, &cfg, &FaultConfig::none());
        assert_ne!(
            serde_json::to_string(&out.dataset).unwrap(),
            serde_json::to_string(&clean.dataset).unwrap(),
            "an active fault plan left the dataset untouched"
        );
    }

    #[test]
    fn executor_schedule_does_not_change_bytes() {
        // Jobs executed in reverse order (the worst-case schedule) must
        // produce the same bytes as the serial executor, faulted or not:
        // all RNG is drawn in the prologue and each monitor owns its own
        // clock slice, so only the merge order — fixed — matters.
        let gt = world();
        let cfg = SkitterConfig {
            n_monitors: 5,
            destinations: 300,
            monitor_coverage: 0.85,
            response_prob: 0.95,
            seed: 12,
        };
        struct ReversedExec;
        impl ChunkExec for ReversedExec {
            fn dispatch<T: Send>(&self, n: usize, job: &(dyn Fn(usize) -> T + Sync)) -> Vec<T> {
                let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
                for i in (0..n).rev() {
                    out[i] = Some(job(i));
                }
                out.into_iter().flatten().collect()
            }
        }
        for faults in [FaultConfig::none(), FaultConfig::at_severity(0.6, 9)] {
            let serial = collect(&gt, &cfg, &faults);
            let shuffled = Skitter::collect_with_faults_exec(&gt, &cfg, &faults, &ReversedExec);
            assert_eq!(
                serde_json::to_string(&serial).unwrap(),
                serde_json::to_string(&shuffled).unwrap()
            );
        }
    }

    #[test]
    fn outages_fail_monitors_deterministically() {
        let gt = world();
        let cfg = SkitterConfig {
            n_monitors: 8,
            destinations: 300,
            monitor_coverage: 0.9,
            response_prob: 0.97,
            seed: 8,
        };
        let mut faults = FaultConfig::none();
        faults.outage_fraction = 1.0;
        faults.seed = 5;
        let a = collect(&gt, &cfg, &faults);
        assert!(a.failed_monitors > 0, "no monitor failed under outage 1.0");
        assert!(a.dataset.anomalies.faults.outage_skips > 0);
        assert!(a.active_monitors() < a.monitors.len());
        let b = collect(&gt, &cfg, &faults);
        assert_eq!(a.failed_monitors, b.failed_monitors);
        assert_eq!(
            serde_json::to_string(&a.dataset).unwrap(),
            serde_json::to_string(&b.dataset).unwrap()
        );
    }
}
