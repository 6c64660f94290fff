//! Deterministic stage scheduling.
//!
//! The scheduler topologically executes a stage graph, running
//! independent stages concurrently on scoped worker threads. Determinism
//! is structural, not scheduled: every stage seeds its own RNG from the
//! configuration (never from execution order), so the artifacts — and
//! everything derived from them — are byte-identical at any thread
//! count. The only thing that varies with scheduling is the wall-clock
//! timing recorded in each [`StageReport`].

use super::fingerprint::{config_fingerprint, stage_fingerprint, Fingerprint};
use super::store::ArtifactStore;
use super::supervise::{self, StageError};
use super::{Artifact, CacheLoad, DiskCache, SaveOutcome, Stage, StageCtx};
use crate::pipeline::{PipelineConfig, PipelineError};
use crate::telemetry::{Stopwatch, Telemetry};
use geotopo_stats::ChunkExec;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

/// How a stage's artifact was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CacheStatus {
    /// Computed from scratch.
    Miss,
    /// Served from the in-memory artifact store.
    HitMemory,
    /// Reloaded from the store's on-disk spill directory.
    HitDisk,
}

impl std::fmt::Display for CacheStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheStatus::Miss => write!(f, "miss"),
            CacheStatus::HitMemory => write!(f, "memory"),
            CacheStatus::HitDisk => write!(f, "disk"),
        }
    }
}

/// Per-stage execution record, surfaced through
/// [`PipelineOutput::reports`](crate::pipeline::PipelineOutput::reports)
/// and the `--trace` flag of `reproduce_paper`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StageReport {
    /// Stage name.
    pub stage: String,
    /// Stage fingerprint (config fingerprint + stage name), hex.
    pub fingerprint: String,
    /// The config-derived seed the stage ran with.
    pub seed: u64,
    /// Time spent obtaining the artifact (compute or cache fetch), ms.
    pub wall_ms: f64,
    /// Time spent in the stage's invariant validator, ms (0 when
    /// validation is off or the artifact came from the memory cache).
    pub validate_ms: f64,
    /// Artifact size in stage-specific items (routers, table entries,
    /// nodes...).
    pub artifact_items: usize,
    /// Where the artifact came from.
    pub cache: CacheStatus,
    /// Execution attempts, including the first (>1 means supervision
    /// retried a transient failure).
    pub attempts: u32,
    /// Degradation note when the stage proceeded with a partial result
    /// (e.g. a monitor-quorum collection); `None` when fully healthy.
    pub degraded: Option<String>,
    /// One-line anomaly summary from the stage's artifact (`None` when
    /// clean), surfaced per stage by `--trace`.
    pub anomalies: Option<String>,
    /// Process peak RSS (bytes) sampled right after the stage finished —
    /// a monotone high-water mark, so the first stage where it jumps is
    /// the stage that caused the growth. 0 where unsupported (the
    /// `engine.rss.unavailable` counter records that the 0 is a
    /// degradation, not a measurement).
    #[serde(default)]
    pub peak_rss_bytes: u64,
    /// Durability incident survived on the way to this artifact: a
    /// corrupt cache entry that was quarantined and regenerated, or a
    /// failed spill that latched the store to in-memory residency.
    /// `None` on a clean cache cascade.
    #[serde(default)]
    pub cache_note: Option<String>,
}

/// Interprets one `GEOTOPO_THREADS` value: `Ok(n)` for a positive
/// integer, `Err(reason)` for anything unusable (`"abc"`, `"0"`,
/// `"-2"`, `""`). Pure so the fallback is unit-testable without racing
/// on the process environment.
///
/// # Errors
///
/// A human-readable reason the value was rejected.
pub fn parse_threads_env(raw: &str) -> Result<usize, String> {
    let trimmed = raw.trim();
    match trimmed.parse::<usize>() {
        Ok(0) => Err("must be a positive integer, got 0".into()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("not a positive integer: `{trimmed}`")),
    }
}

/// Resolves a thread-count knob: a positive knob wins, then a positive
/// integer in `GEOTOPO_THREADS`, then the machine's available
/// parallelism (1 if unknown). A malformed env value falls through to
/// auto-detection; [`threads_env_warning`] reports it (and
/// `Pipeline::run` records the `engine.threads.env_malformed` counter)
/// instead of the old silent swallow.
pub fn resolve_threads(knob: usize) -> usize {
    if knob > 0 {
        return knob;
    }
    if let Ok(v) = std::env::var("GEOTOPO_THREADS") {
        if let Ok(n) = parse_threads_env(&v) {
            return n;
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A one-line warning when `GEOTOPO_THREADS` is set but unusable, `None`
/// when the variable is unset or valid. Surfaced by `--trace` and
/// counted under `engine.threads.env_malformed` in the run's telemetry.
pub fn threads_env_warning() -> Option<String> {
    let v = std::env::var("GEOTOPO_THREADS").ok()?;
    parse_threads_env(&v).err().map(|reason| {
        format!("GEOTOPO_THREADS ignored ({reason}); falling back to auto-detected parallelism")
    })
}

/// Shared scheduler state behind the lock.
struct SchedState {
    indegree: Vec<usize>,
    ready: BTreeSet<usize>,
    results: Vec<Option<Artifact>>,
    reports: Vec<Option<StageReport>>,
    done: usize,
    error: Option<PipelineError>,
}

/// Executes a stage graph, returning each stage's artifact and report in
/// the order the stages were given.
///
/// `threads <= 1` runs the legacy sequential path (lowest-index-first,
/// same order every time); otherwise up to `threads` scoped workers
/// claim ready stages concurrently, always picking the lowest-index
/// ready stage. Dependencies are resolved by name against the given
/// slice, which must be topologically ordered consistent with `deps()`
/// (the builder in [`pipeline_stages`](super::pipeline_stages)
/// guarantees this).
///
/// # Errors
///
/// The first stage failure short-circuits the run: workers drain and the
/// error is returned. Already-completed artifacts stay in the store (if
/// one was given), so a retry resumes where it left off.
///
/// # Panics
///
/// Panics if a declared dependency names no stage in the slice, or if
/// the dependency graph is cyclic — both are programming errors in the
/// stage list, not runtime conditions.
pub fn execute(
    stages: &[Box<dyn Stage>],
    config: &PipelineConfig,
    validate: bool,
    threads: usize,
    store: Option<&ArtifactStore>,
    telemetry: &Telemetry,
) -> Result<(Vec<Artifact>, Vec<StageReport>), PipelineError> {
    let n = stages.len();
    let names: Vec<String> = stages.iter().map(|s| s.name()).collect();
    let index: HashMap<&str, usize> = names
        .iter()
        .enumerate()
        .map(|(i, name)| (name.as_str(), i))
        .collect();
    let deps: Vec<Vec<usize>> = stages
        .iter()
        .enumerate()
        .map(|(i, s)| {
            s.deps()
                .iter()
                .map(|d| {
                    *index.get(d.as_str()).unwrap_or_else(|| {
                        panic!("stage `{}` depends on unknown stage `{d}`", names[i])
                    })
                })
                .collect()
        })
        .collect();
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut indegree: Vec<usize> = vec![0; n];
    for (i, ds) in deps.iter().enumerate() {
        indegree[i] = ds.len();
        for &d in ds {
            dependents[d].push(i);
        }
    }
    // An ordered set popped from the front is the lowest-index-first
    // ready queue the old BinaryHeap<Reverse<..>> implemented — and
    // clippy's `disallowed_types` keeps BinaryHeap out of everything but
    // the routing reference solver.
    let ready: BTreeSet<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let config_fp = config_fingerprint(config);

    if threads <= 1 {
        return execute_sequential(
            stages,
            config,
            config_fp,
            validate,
            store,
            telemetry,
            &deps,
            &dependents,
            indegree,
            ready,
        );
    }

    let state = Mutex::new(SchedState {
        indegree,
        ready,
        results: (0..n).map(|_| None).collect(),
        reports: vec![None; n],
        done: 0,
        error: None,
    });
    let cvar = Condvar::new();
    let workers = threads.min(n.max(1));
    // The scheduler is the single concurrency point of the pipeline.
    #[allow(clippy::disallowed_methods)]
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                // Claim the lowest-index ready stage, or exit when the
                // run is complete or failed.
                let (i, dep_artifacts) = {
                    let mut st = state.lock().unwrap_or_else(PoisonError::into_inner);
                    loop {
                        if st.error.is_some() || st.done == n {
                            return;
                        }
                        if let Some(i) = st.ready.pop_first() {
                            let dep_artifacts: Vec<Artifact> = deps[i]
                                .iter()
                                // lint: allow(unwrap): indegree hit 0, so every dependency result is filled
                                .map(|&d| st.results[d].clone().expect("dependency completed"))
                                .collect();
                            break (i, dep_artifacts);
                        }
                        st = cvar.wait(st).unwrap_or_else(PoisonError::into_inner);
                    }
                };
                let outcome = run_stage(
                    &*stages[i],
                    config,
                    config_fp,
                    validate,
                    store,
                    telemetry,
                    dep_artifacts,
                );
                let mut st = state.lock().unwrap_or_else(PoisonError::into_inner);
                match outcome {
                    Ok((artifact, report)) => {
                        st.results[i] = Some(artifact);
                        st.reports[i] = Some(report);
                        st.done += 1;
                        for &j in &dependents[i] {
                            st.indegree[j] -= 1;
                            if st.indegree[j] == 0 {
                                st.ready.insert(j);
                            }
                        }
                        cvar.notify_all();
                    }
                    Err(e) => {
                        if st.error.is_none() {
                            st.error = Some(e);
                        }
                        cvar.notify_all();
                        return;
                    }
                }
            });
        }
    });
    let st = state.into_inner().unwrap_or_else(PoisonError::into_inner);
    if let Some(e) = st.error {
        return Err(e);
    }
    assert_eq!(st.done, n, "stage graph is cyclic or disconnected");
    record_store_gauges(store, telemetry);
    Ok(collect(st.results, st.reports))
}

/// Records the store's end-of-run footprint and durability gauges.
/// Written once after every stage has completed, so the values depend
/// only on what was stored (and evicted, quarantined, degraded), never
/// on worker interleaving.
fn record_store_gauges(store: Option<&ArtifactStore>, telemetry: &Telemetry) {
    if let Some(store) = store {
        telemetry.gauge("engine.store.resident_bytes", store.resident_bytes() as f64);
        telemetry.gauge("engine.store.spill_evictions", store.evictions() as f64);
        telemetry.gauge("engine.store.tmp_swept", store.tmp_swept() as f64);
        // 1.0 = the store latched off spilling mid-run (the per-reason
        // transition counter `engine.store.spill_disabled.<reason>`
        // names why).
        telemetry.gauge(
            "engine.store.spill_disabled",
            if store.spill_disabled_reason().is_some() {
                1.0
            } else {
                0.0
            },
        );
    }
}

/// The `threads <= 1` path: one stage at a time, lowest index first.
#[allow(clippy::too_many_arguments)]
fn execute_sequential(
    stages: &[Box<dyn Stage>],
    config: &PipelineConfig,
    config_fp: Fingerprint,
    validate: bool,
    store: Option<&ArtifactStore>,
    telemetry: &Telemetry,
    deps: &[Vec<usize>],
    dependents: &[Vec<usize>],
    mut indegree: Vec<usize>,
    mut ready: BTreeSet<usize>,
) -> Result<(Vec<Artifact>, Vec<StageReport>), PipelineError> {
    let n = stages.len();
    let mut results: Vec<Option<Artifact>> = (0..n).map(|_| None).collect();
    let mut reports: Vec<Option<StageReport>> = vec![None; n];
    let mut done = 0;
    while let Some(i) = ready.pop_first() {
        let dep_artifacts: Vec<Artifact> = deps[i]
            .iter()
            // lint: allow(unwrap): indegree hit 0, so every dependency result is filled
            .map(|&d| results[d].clone().expect("dependency completed"))
            .collect();
        let (artifact, report) = run_stage(
            &*stages[i],
            config,
            config_fp,
            validate,
            store,
            telemetry,
            dep_artifacts,
        )?;
        results[i] = Some(artifact);
        reports[i] = Some(report);
        done += 1;
        for &j in &dependents[i] {
            indegree[j] -= 1;
            if indegree[j] == 0 {
                ready.insert(j);
            }
        }
    }
    assert_eq!(done, n, "stage graph is cyclic or disconnected");
    record_store_gauges(store, telemetry);
    Ok(collect(results, reports))
}

// lint: allow(unwrap): callers assert done == n before collecting, so every
// slot is filled — the item-scoped marker covers both expect sites below
fn collect(
    results: Vec<Option<Artifact>>,
    reports: Vec<Option<StageReport>>,
) -> (Vec<Artifact>, Vec<StageReport>) {
    (
        results
            .into_iter()
            .map(|a| a.expect("all stages completed"))
            .collect(),
        reports
            .into_iter()
            .map(|r| r.expect("all stages completed"))
            .collect(),
    )
}

/// Supervised stage execution: runs the stage through the cache cascade,
/// retrying retryable [`StageError`]s per the stage's policy, and
/// converting whatever survives supervision into a [`PipelineError`] at
/// this boundary. Injected failures from the fault plan
/// (`config.faults.stage_failures`) fail the first N compute attempts;
/// cache hits never fail — fetching an artifact is not an execution.
#[allow(clippy::too_many_arguments)]
fn run_stage(
    stage: &dyn Stage,
    config: &PipelineConfig,
    config_fp: Fingerprint,
    validate: bool,
    store: Option<&ArtifactStore>,
    telemetry: &Telemetry,
    deps: Vec<Artifact>,
) -> Result<(Artifact, StageReport), PipelineError> {
    let name = stage.name();
    let policy = stage.retry_policy();
    let injected = config.faults.failing_attempts(&name);
    let mut attempt: u32 = 0;
    loop {
        match run_stage_once(
            stage, config, config_fp, validate, store, telemetry, &deps, attempt, injected,
        ) {
            Ok((artifact, mut report)) => {
                report.attempts = attempt + 1;
                return Ok((artifact, report));
            }
            Err(e) if e.is_retryable() && attempt < policy.max_retries => {
                telemetry.count("engine.stage.retries", 1);
                attempt += 1;
            }
            Err(e) => return Err(supervise::into_pipeline_error(&name, attempt + 1, e)),
        }
    }
}

/// One attempt of the cache cascade: memory hit → disk hit → compute
/// (+ validate + store).
#[allow(clippy::too_many_arguments)]
fn run_stage_once(
    stage: &dyn Stage,
    config: &PipelineConfig,
    config_fp: Fingerprint,
    validate: bool,
    store: Option<&ArtifactStore>,
    telemetry: &Telemetry,
    deps: &[Artifact],
    attempt: u32,
    injected: u32,
) -> Result<(Artifact, StageReport), StageError> {
    let name = stage.name();
    let fp = stage_fingerprint(config_fp, &name);
    let seed = stage.seed(config);
    let report = |wall_ms: f64, validate_ms: f64, items: usize, cache: CacheStatus| StageReport {
        stage: name.clone(),
        fingerprint: fp.to_string(),
        seed,
        wall_ms,
        validate_ms,
        artifact_items: items,
        cache,
        attempts: 1,
        degraded: None,
        anomalies: None,
        peak_rss_bytes: 0,
        cache_note: None,
    };
    let finish = |artifact: Artifact, mut r: StageReport| {
        r.degraded = stage.health(&artifact);
        r.anomalies = stage.anomalies(&artifact);
        r.peak_rss_bytes = match crate::telemetry::peak_rss_bytes() {
            Some(bytes) => bytes,
            None => {
                // Degrade loudly: a 0 in the report plus a counter, not
                // a silently wrong measurement.
                telemetry.count("engine.rss.unavailable", 1);
                0
            }
        };
        (artifact, r)
    };
    // A durability incident survived on this attempt (quarantined entry,
    // disabled spill) — attached to the recompute report.
    let mut cache_note: Option<String> = None;
    let sw = Stopwatch::start();
    if let Some(store) = store {
        if let Some(artifact) = store.get(fp) {
            store.record(CacheStatus::HitMemory);
            telemetry.count("engine.cache.hit_memory", 1);
            let items = stage.artifact_items(&artifact);
            let r = report(sw.elapsed_ms(), 0.0, items, CacheStatus::HitMemory);
            return Ok(finish(artifact, r));
        }
        if let Some(dir) = store.disk_dir() {
            let cache = DiskCache {
                dir,
                vfs: store.vfs(),
            };
            match stage.load_cached(&cache, fp) {
                CacheLoad::Hit(artifact) => {
                    // Reloaded entries are disk-backed by definition, so
                    // they stay evictable under a memory budget.
                    store.put_sized(fp, artifact.clone(), stage.artifact_bytes(&artifact), true);
                    store.record(CacheStatus::HitDisk);
                    telemetry.count("engine.cache.hit_disk", 1);
                    let items = stage.artifact_items(&artifact);
                    let r = report(sw.elapsed_ms(), 0.0, items, CacheStatus::HitDisk);
                    return Ok(finish(artifact, r));
                }
                CacheLoad::Miss => {}
                CacheLoad::Corrupt { path, reason } => {
                    // Never resume from garbage: quarantine the damaged
                    // entry, count it, and fall through to a clean
                    // recompute (which re-publishes a fresh entry).
                    store.note_corrupt();
                    telemetry.count("engine.store.corrupt_detected", 1);
                    let moved = store.quarantine(&path);
                    if moved.is_some() {
                        telemetry.count("engine.store.quarantined", 1);
                    }
                    cache_note = Some(format!(
                        "corrupt cache entry {}: {reason}",
                        if moved.is_some() {
                            "quarantined and regenerated"
                        } else {
                            "regenerated in place"
                        }
                    ));
                }
            }
        }
    }
    if attempt < injected {
        telemetry.count("engine.stage.injected_failures", 1);
        return Err(StageError::Transient {
            detail: format!("injected fault plan failure (attempt {})", attempt + 1),
        });
    }
    let ctx = StageCtx {
        config,
        deps: deps.to_vec(),
        telemetry,
    };
    let artifact = stage.run(&ctx)?;
    let wall_ms = sw.elapsed_ms();
    let mut validate_ms = 0.0;
    if validate {
        // Validation time is reported separately from compute time.
        let vsw = Stopwatch::start();
        stage.validate(&artifact, &ctx)?;
        validate_ms = vsw.elapsed_ms();
    }
    if let Some(store) = store {
        store.record(CacheStatus::Miss);
        // Spill before insert: an entry is evictable only once its disk
        // copy is confirmed durably published (atomic envelope write).
        let mut spillable = false;
        if let Some(dir) = store.spill_target() {
            let cache = DiskCache {
                dir,
                vfs: store.vfs(),
            };
            match stage.save_cached(&artifact, &cache, fp) {
                SaveOutcome::Saved => spillable = true,
                SaveOutcome::Unsupported => {}
                SaveOutcome::Failed { reason, detail } => {
                    // Graceful degradation: latch spill off for the rest
                    // of the run and keep everything resident — the
                    // pipeline completes byte-identically, just without
                    // a disk cache.
                    if store.disable_spill(reason) {
                        telemetry.count(&format!("engine.store.spill_disabled.{reason}"), 1);
                    }
                    cache_note = Some(format!(
                        "spill disabled ({reason}), artifacts stay in memory: {detail}"
                    ));
                }
            }
        }
        store.put_sized(
            fp,
            artifact.clone(),
            stage.artifact_bytes(&artifact),
            spillable,
        );
    }
    telemetry.count("engine.cache.miss", 1);
    telemetry.span_record(&format!("stage.{name}"), wall_ms);
    let items = stage.artifact_items(&artifact);
    let mut r = report(wall_ms, validate_ms, items, CacheStatus::Miss);
    r.cache_note = cache_note;
    Ok(finish(artifact, r))
}

/// Runs `n` independent jobs on up to `threads` scoped workers,
/// returning results in job order regardless of completion order.
///
/// With `threads <= 1` (or a single job) the jobs run sequentially on
/// the calling thread — the legacy path. Jobs must be independently
/// deterministic: nothing about worker assignment may leak into their
/// output.
pub fn parallel_map<T, F>(threads: usize, n: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Send + Sync,
{
    if threads <= 1 || n <= 1 {
        return (0..n).map(job).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    // The engine's chunk executor: the one other sanctioned worker pool.
    #[allow(clippy::disallowed_methods)]
    std::thread::scope(|s| {
        for _ in 0..threads.min(n) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return;
                }
                let value = job(i);
                *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(value);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                // lint: allow(unwrap): the atomic counter hands every index to exactly one worker
                .expect("every job index was claimed and completed")
        })
        .collect()
}

/// The engine's [`ChunkExec`]: [`parallel_map`] plus the
/// `engine.parallel_map.*` telemetry every interior-parallel path
/// carries.
///
/// Chunk counts are decided by the *caller* from fixed constants, so
/// every counter here (calls, jobs, per-stage chunks) and the optional
/// per-chunk span count are identical at any thread count — which is
/// what lets the thread-matrix telemetry tests compare snapshots
/// byte-for-byte.
#[derive(Debug, Clone, Copy)]
pub struct EngineExec<'a> {
    threads: usize,
    telemetry: &'a Telemetry,
    /// Stage label for the per-stage chunk counter
    /// (`engine.parallel_map.<stage>.chunks`).
    stage: &'a str,
    /// Optional span key recorded once per chunk with the chunk's wall
    /// time (masked snapshots keep only the count, which is
    /// thread-invariant).
    span: Option<&'a str>,
}

impl<'a> EngineExec<'a> {
    /// Builds an executor for `stage` running on up to `threads`
    /// workers.
    pub fn new(threads: usize, telemetry: &'a Telemetry, stage: &'a str) -> Self {
        Self {
            threads,
            telemetry,
            stage,
            span: None,
        }
    }

    /// Records `span` once per chunk with the chunk's wall time.
    #[must_use]
    pub fn with_span(mut self, span: &'a str) -> Self {
        self.span = Some(span);
        self
    }
}

impl ChunkExec for EngineExec<'_> {
    fn dispatch<T: Send>(&self, n: usize, job: &(dyn Fn(usize) -> T + Sync)) -> Vec<T> {
        let out = parallel_map(self.threads, n, |i| match self.span {
            Some(key) => {
                let sw = Stopwatch::start();
                let value = job(i);
                self.telemetry.span_record(key, sw.elapsed_ms());
                value
            }
            None => job(i),
        });
        self.telemetry.count("engine.parallel_map.calls", 1);
        self.telemetry.count("engine.parallel_map.jobs", n as u64);
        self.telemetry.count(
            &format!("engine.parallel_map.{}.chunks", self.stage),
            n as u64,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_job_order() {
        let out = parallel_map(4, 32, |i| i * i);
        assert_eq!(out, (0..32).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_sequential_path_matches() {
        let seq = parallel_map(1, 10, |i| i + 1);
        let par = parallel_map(3, 10, |i| i + 1);
        assert_eq!(seq, par);
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        assert_eq!(parallel_map(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map(4, 1, |i| i), vec![0]);
    }

    #[test]
    fn resolve_threads_prefers_explicit_knob() {
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn resolve_threads_auto_is_positive() {
        // knob 0 resolves via env or hardware; either way it is >= 1.
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn parse_threads_env_accepts_positive_integers() {
        assert_eq!(parse_threads_env("4"), Ok(4));
        assert_eq!(parse_threads_env(" 8 "), Ok(8));
        assert_eq!(parse_threads_env("1"), Ok(1));
    }

    #[test]
    fn parse_threads_env_rejects_malformed_values() {
        // The trio from the bug report: each used to be silently
        // swallowed by resolve_threads; now each carries a reason that
        // threads_env_warning surfaces (and --trace prints).
        for bad in ["abc", "0", "-2", "", "  ", "3.5"] {
            let err = parse_threads_env(bad).unwrap_err();
            assert!(!err.is_empty(), "no reason for {bad:?}");
        }
        assert!(parse_threads_env("0").unwrap_err().contains("positive"));
        assert!(parse_threads_env("abc").unwrap_err().contains("abc"));
    }

    #[test]
    fn cache_status_displays() {
        assert_eq!(CacheStatus::Miss.to_string(), "miss");
        assert_eq!(CacheStatus::HitMemory.to_string(), "memory");
        assert_eq!(CacheStatus::HitDisk.to_string(), "disk");
    }
}
