//! The stage-graph execution engine.
//!
//! [`Pipeline::run`](crate::pipeline::Pipeline::run) used to be a
//! sequential monolith; it now compiles to an explicit graph of typed
//! [`Stage`]s — population grids, world generation, route-table
//! synthesis, the two collectors, the two mapping tools, and the four
//! processed-dataset jobs — executed by a deterministic scheduler
//! ([`execute`]) on scoped worker threads. Independent stages run
//! concurrently (Skitter ∥ Mercator, the four `process_chunked` jobs, the
//! per-region population grids); dependent stages wait on their named
//! dependencies.
//!
//! Three properties the engine guarantees:
//!
//! - **Determinism.** Every stage derives its RNG seed from the
//!   configuration, never from scheduling, so output is byte-identical
//!   at any thread count (the determinism suite asserts this).
//! - **Reuse.** Artifacts are keyed by a canonical config
//!   [`Fingerprint`]; a shared [`ArtifactStore`] lets a second run of
//!   the same config skip regeneration entirely (memory), and
//!   persistable artifacts additionally spill to disk via `io.rs`.
//! - **Observability.** Each stage execution records a [`StageReport`]
//!   (wall time, validation time, artifact size, cache outcome,
//!   attempts, degradation, anomalies), surfaced through
//!   `PipelineOutput::reports` and `--trace`.
//! - **Supervision.** Stages fail with a typed [`StageError`]; the
//!   scheduler retries transient failures per [`RetryPolicy`], records
//!   degraded-but-acceptable outcomes (monitor quorum runs) instead of
//!   aborting, and — with a disk-backed store — a killed run resumes
//!   from the last fingerprint-valid artifacts.
//! - **Durability.** Disk cache entries are checksummed, versioned
//!   envelopes published atomically through the [`crate::vfs::Vfs`]
//!   seam; damaged entries are quarantined and regenerated
//!   ([`CacheLoad::Corrupt`]), failed spills degrade the store to
//!   in-memory residency ([`SaveOutcome::Failed`]), and the chaos suite
//!   (`tests/chaos.rs`) sweeps injected disk faults across every
//!   filesystem op to hold the contract: byte-identical completion or a
//!   typed error, never silent divergence.

mod fingerprint;
mod scheduler;
mod stages;
mod store;
mod supervise;

pub use fingerprint::{config_fingerprint, stage_fingerprint, Fingerprint};
pub use scheduler::{
    execute, parallel_map, parse_threads_env, resolve_threads, threads_env_warning, CacheStatus,
    EngineExec, StageReport,
};
pub use stages::{map_stage_name, pipeline_stages, pop_grid_name};
pub use stages::{
    COLLECT_MERCATOR, COLLECT_SKITTER, GAZETTEER, GROUND_TRUTH, MAPPER_EDGESCAPE, MAPPER_IXMAPPER,
    NEAREST_HINTS, ORG_DB, QUERY_SNAPSHOT, ROUTE_TABLE,
};
pub use store::ArtifactStore;
pub use supervise::{RetryPolicy, StageError};

pub(crate) use fingerprint::{fnv1a, FNV_OFFSET};
pub(crate) use stages::TABLE_I_ORDER;

use crate::pipeline::PipelineConfig;
use crate::telemetry::Telemetry;
use crate::vfs::Vfs;
use std::any::Any;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A type-erased, cheaply shareable stage output.
pub type Artifact = Arc<dyn Any + Send + Sync>;

/// A handle to the store's on-disk cache directory, carrying the
/// [`Vfs`] seam every read, write and rename must go through — stages
/// never touch `std::fs` directly (clippy's `disallowed_methods`), so the
/// chaos suite can interpose deterministic disk faults on every cache
/// operation.
#[derive(Debug, Clone, Copy)]
pub struct DiskCache<'a> {
    /// The cache directory (entries, `.tmp` staging files, and the
    /// `quarantine/` subdirectory all live here).
    pub dir: &'a Path,
    /// The filesystem implementation: [`crate::vfs::RealVfs`] in
    /// production, a [`crate::vfs::ChaosVfs`] under fault injection.
    pub vfs: &'a dyn Vfs,
}

impl DiskCache<'_> {
    /// The canonical entry path for one (fingerprint, stage) pair.
    pub fn entry_path(&self, fp: Fingerprint, stage: &str) -> PathBuf {
        crate::io::dataset_cache_path(self.dir, &fp.to_string(), stage)
    }
}

/// Outcome of a disk-cache probe — three-valued so the scheduler can
/// tell a cold cache from a damaged one: `Corrupt` entries are
/// quarantined and counted before the stage recomputes, `Miss` just
/// recomputes.
#[derive(Debug)]
pub enum CacheLoad {
    /// The entry decoded, passed every integrity check, and is usable.
    Hit(Artifact),
    /// No entry on disk (or the stage has no persistent form).
    Miss,
    /// The entry at `path` exists but is unusable — torn, bit-flipped,
    /// misaddressed, schema-drifted, or unreadable.
    Corrupt {
        /// The damaged file, for quarantining.
        path: PathBuf,
        /// Human-readable first failed integrity layer.
        reason: String,
    },
}

/// Outcome of persisting an artifact to the disk cache.
#[derive(Debug)]
pub enum SaveOutcome {
    /// A durable disk copy now exists (the entry is safe to evict from
    /// memory under a budget).
    Saved,
    /// The stage has no persistent form; nothing was attempted.
    Unsupported,
    /// The write failed; the scheduler disables spill for the rest of
    /// the run and keeps the artifact resident in memory.
    Failed {
        /// Degradation key (`enospc` | `io` | `serde`), used in the
        /// `engine.store.spill_disabled.<reason>` counter.
        reason: &'static str,
        /// The underlying error, for the stage report.
        detail: String,
    },
}

impl SaveOutcome {
    /// Classifies an envelope-save result.
    pub fn from_save(res: Result<(), crate::io::IoError>) -> Self {
        match res {
            Ok(()) => SaveOutcome::Saved,
            Err(e) => SaveOutcome::Failed {
                reason: crate::io::degrade_reason(&e),
                detail: e.to_string(),
            },
        }
    }
}

/// Wraps a concrete stage output as an [`Artifact`].
pub fn artifact<T: Any + Send + Sync>(value: T) -> Artifact {
    Arc::new(value)
}

/// Everything a running stage sees: the pipeline configuration, the
/// artifacts of its declared dependencies, and the run's telemetry
/// registry.
#[derive(Debug)]
pub struct StageCtx<'a> {
    /// The full pipeline configuration.
    pub config: &'a PipelineConfig,
    /// Dependency artifacts, in [`Stage::deps`] order.
    pub(crate) deps: Vec<Artifact>,
    /// The run's metrics registry (write-only from stages).
    pub(crate) telemetry: &'a Telemetry,
}

impl StageCtx<'_> {
    /// The run's telemetry registry. Stages record domain counters here
    /// (probe volumes, resolution paths, LPM stats); the registry is
    /// write-only, so recording can never perturb an artifact.
    pub fn telemetry(&self) -> &Telemetry {
        self.telemetry
    }

    /// Downcasts the `index`-th dependency (in [`Stage::deps`] order) to
    /// its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range or the type does not match
    /// the producing stage's artifact type — both are wiring errors in
    /// the stage definitions, caught by every test that runs the
    /// pipeline.
    // analyze: allow(panic): wiring errors in the static stage graph must
    // abort loudly (documented above); every pipeline test exercises the
    // full graph, so a bad index or artifact type cannot reach a run
    pub fn dep<T: Any + Send + Sync>(&self, index: usize) -> Arc<T> {
        self.deps
            .get(index)
            .unwrap_or_else(|| panic!("stage declared no dependency at index {index}"))
            .clone()
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("dependency {index} has an unexpected artifact type"))
    }
}

/// One node of the pipeline's stage graph.
///
/// Implementations must be pure functions of the configuration and
/// their dependency artifacts: any randomness comes from an RNG seeded
/// by [`Stage::seed`] (itself derived only from the config), so the
/// artifact is identical however the scheduler interleaves stages.
pub trait Stage: Send + Sync {
    /// Unique stage name; doubles as the dependency reference and the
    /// fingerprint discriminator.
    fn name(&self) -> String;

    /// Names of the stages whose artifacts this stage consumes.
    fn deps(&self) -> Vec<String> {
        Vec::new()
    }

    /// The config-derived seed this stage's RNG runs with (reported in
    /// the [`StageReport`]; stages without randomness report the seed of
    /// the structure they derive from).
    fn seed(&self, config: &PipelineConfig) -> u64;

    /// Computes the stage's artifact.
    ///
    /// # Errors
    ///
    /// A classified [`StageError`]; the scheduler retries retryable
    /// failures per [`Stage::retry_policy`].
    fn run(&self, ctx: &StageCtx<'_>) -> Result<Artifact, StageError>;

    /// Checks the artifact's cross-layer invariants (called by the
    /// scheduler only when validation is active; timed separately).
    ///
    /// # Errors
    ///
    /// The violated invariant, as [`StageError::Invariant`].
    fn validate(&self, _artifact: &Artifact, _ctx: &StageCtx<'_>) -> Result<(), StageError> {
        Ok(())
    }

    /// How often the scheduler re-runs this stage after a retryable
    /// failure. Stages are pure, so the default allows a couple of
    /// retries everywhere.
    fn retry_policy(&self) -> RetryPolicy {
        RetryPolicy::default()
    }

    /// A degradation note when the artifact is usable but partial (e.g.
    /// a collection that lost monitors to an outage but kept quorum).
    /// Recorded in the [`StageReport`]; `None` means fully healthy.
    fn health(&self, _artifact: &Artifact) -> Option<String> {
        None
    }

    /// A one-line summary of collection anomalies survived while
    /// producing the artifact, for `--trace`. `None` when clean.
    fn anomalies(&self, _artifact: &Artifact) -> Option<String> {
        None
    }

    /// Artifact size in stage-specific items, for the [`StageReport`].
    fn artifact_items(&self, _artifact: &Artifact) -> usize {
        1
    }

    /// Approximate artifact heap size in bytes, for the store's
    /// resident-bytes gauge and spill decisions. `0` = unknown (the
    /// artifact is never evicted on its size).
    fn artifact_bytes(&self, _artifact: &Artifact) -> usize {
        0
    }

    /// Attempts to reload this stage's artifact from the on-disk cache.
    /// Stages without a persistent form return [`CacheLoad::Miss`]; an
    /// entry that exists but fails any integrity check must be reported
    /// as [`CacheLoad::Corrupt`] (never folded into a miss) so the
    /// scheduler quarantines and counts it before regenerating.
    fn load_cached(&self, _cache: &DiskCache<'_>, _fp: Fingerprint) -> CacheLoad {
        CacheLoad::Miss
    }

    /// Persists the artifact to the on-disk cache through the envelope
    /// writer. [`SaveOutcome::Saved`] makes the in-memory entry safe to
    /// evict under a store memory budget; [`SaveOutcome::Failed`] makes
    /// the scheduler disable spill for the rest of the run (graceful
    /// degradation to in-memory residency).
    fn save_cached(
        &self,
        _artifact: &Artifact,
        _cache: &DiskCache<'_>,
        _fp: Fingerprint,
    ) -> SaveOutcome {
        SaveOutcome::Unsupported
    }
}

impl std::fmt::Debug for dyn Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Stage({})", self.name())
    }
}
