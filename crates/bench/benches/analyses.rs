//! One bench per paper table/figure analysis, over a shared pipeline
//! output — these measure the *analysis* cost, world generation is
//! amortized by the fixture.

use criterion::{criterion_group, criterion_main, Criterion};
use geotopo_bench::tiny_output;
use geotopo_core::experiments;
use geotopo_core::pipeline::{Collector, MapperKind};
use geotopo_core::section5::{distance_preference, distance_preference_with_threshold, RegionBins};
use geotopo_core::section6;
use std::hint::black_box;

fn bench_tables(c: &mut Criterion) {
    let out = tiny_output();
    c.bench_function("table1/dataset_sizes", |b| {
        b.iter(|| experiments::table1(black_box(out)))
    });
    c.bench_function("table3/economic_regions", |b| {
        b.iter(|| experiments::table3(black_box(out)))
    });
    c.bench_function("table4/homogeneity", |b| {
        b.iter(|| experiments::table4(black_box(out)))
    });
    c.bench_function("table5/sensitivity_limits", |b| {
        b.iter(|| experiments::table5(black_box(out), MapperKind::IxMapper))
    });
    c.bench_function("table6/domain_links", |b| {
        b.iter(|| experiments::table6(black_box(out)))
    });
}

fn bench_figures(c: &mut Criterion) {
    let out = tiny_output();
    c.bench_function("fig1/ascii_maps", |b| {
        b.iter(|| experiments::fig1(black_box(out)))
    });
    let mut g = c.benchmark_group("fig2");
    g.sample_size(20);
    g.bench_function("population_regression", |b| {
        b.iter(|| experiments::fig2(black_box(out), MapperKind::IxMapper))
    });
    g.finish();
    let mut g = c.benchmark_group("fig4_5_6");
    g.sample_size(20);
    g.bench_function("distance_preference_all_regions", |b| {
        b.iter(|| experiments::fig4(black_box(out), MapperKind::IxMapper))
    });
    g.finish();
    c.bench_function("fig7/as_size_ccdfs", |b| {
        b.iter(|| experiments::fig7(black_box(out)))
    });
    c.bench_function("fig8/as_scatter_correlations", |b| {
        b.iter(|| experiments::fig8(black_box(out)))
    });
    c.bench_function("fig9/convex_hull_cdfs", |b| {
        b.iter(|| experiments::fig9(black_box(out)))
    });
    c.bench_function("fig10/size_vs_hull", |b| {
        b.iter(|| experiments::fig10(black_box(out)))
    });
    c.bench_function("fractal/box_counting", |b| {
        b.iter(|| experiments::fractal_dimension(black_box(out)))
    });
}

fn bench_as_measures(c: &mut Criterion) {
    let out = tiny_output();
    let ds = &out
        .dataset(MapperKind::IxMapper, Collector::Skitter)
        .dataset;
    c.bench_function("section6/as_measures", |b| {
        b.iter(|| section6::as_measures(black_box(ds)))
    });
}

/// The pairs-estimator ablation: the exact denominator (quadratic in
/// distinct in-region locations) vs grid convolution on the same dataset
/// (the accuracy side is asserted in tests; this measures the speed
/// tradeoff).
fn bench_pairs_estimator(c: &mut Criterion) {
    let out = tiny_output();
    let ds = &out
        .dataset(MapperKind::IxMapper, Collector::Skitter)
        .dataset;
    let bins = &RegionBins::paper()[0]; // US
    let mut g = c.benchmark_group("ablate_pairs_estimator");
    g.sample_size(10);
    g.bench_function("exact", |b| {
        b.iter(|| distance_preference(black_box(ds), black_box(bins), true))
    });
    g.bench_function("grid_convolution", |b| {
        b.iter(|| distance_preference_with_threshold(black_box(ds), black_box(bins), false, 0))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_tables,
    bench_figures,
    bench_as_measures,
    bench_pairs_estimator
);
criterion_main!(benches);
