//! Golden bytes: committed FNV-1a digests of the serialized ground truth
//! and of both collectors' outputs at `tiny` scale, with an inert fault
//! plan and with the `moderate` profile, and of every experiment that
//! `experiments::run_all` reports for the `tiny` pipeline.
//!
//! The determinism tests compare two runs of the same build; these
//! digests pin the bytes across commits, so a refactor that claims to
//! keep the output unchanged is checked in `cargo test`, not only by a
//! benchmark run. A deliberate change of the generated world or of a
//! collector's draws must update the constants below.

use geotopo::core::experiments;
use geotopo::core::pipeline::{Pipeline, PipelineConfig};
use geotopo::measure::{FaultConfig, Mercator, MercatorConfig, Skitter, SkitterConfig};
use geotopo::stats::SerialExec;
use geotopo::topology::generate::{GroundTruth, GroundTruthConfig};

const SEED: u64 = 42;

const GROUND_TRUTH: u64 = 0xb6ea_c673_2fa8_fe63;
/// Per fault plan of [`plans`]: inert, then `moderate`.
const SKITTER: [u64; 2] = [0x64f4_f683_b0cf_4be5, 0x6c80_b118_6554_5156];
const MERCATOR: [u64; 2] = [0xecff_787c_f4b8_243b, 0x38e1_9fe2_549e_c00c];
/// Every [`experiments::run_all`] result (id, title, text and JSON) in
/// paper order.
const EXPERIMENTS: u64 = 0x546d_ca42_b7c8_0530;

/// FNV-1a (64-bit) over a value's JSON serialization.
fn digest(json: Result<String, serde_json::Error>) -> u64 {
    json.expect("serializes")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

fn world() -> GroundTruth {
    GroundTruth::generate(GroundTruthConfig::tiny(SEED)).expect("tiny world")
}

fn plans() -> [FaultConfig; 2] {
    [
        FaultConfig::none(),
        FaultConfig::profile("moderate", SEED).expect("known profile"),
    ]
}

#[test]
fn ground_truth_bytes_are_pinned() {
    assert_eq!(digest(serde_json::to_string(&world())), GROUND_TRUTH);
}

#[test]
fn skitter_bytes_are_pinned() {
    let gt = world();
    let cfg = SkitterConfig::scaled(&gt, SEED ^ 0x51);
    let got = plans().map(|plan| {
        let out = Skitter::collect_with_faults_exec(&gt, &cfg, &plan, &SerialExec);
        digest(serde_json::to_string(&out))
    });
    assert_eq!(got, SKITTER);
}

#[test]
fn mercator_bytes_are_pinned() {
    let gt = world();
    let cfg = MercatorConfig::scaled(&gt, SEED ^ 0x3E);
    let got = plans().map(|plan| {
        let out = Mercator::collect_with_faults(&gt, &cfg, &plan);
        digest(serde_json::to_string(&out))
    });
    assert_eq!(got, MERCATOR);
}

#[test]
fn experiment_bytes_are_pinned() {
    let out = Pipeline::new(PipelineConfig::tiny(SEED))
        .run()
        .expect("tiny pipeline");
    let got = digest(serde_json::to_string(&experiments::run_all(&out)));
    assert_eq!(got, EXPERIMENTS, "got {got:#x}");
}
