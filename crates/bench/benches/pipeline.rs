//! End-to-end pipeline benchmark: the whole `repro --all` path at quick
//! scale — campaign generation, simulation, the fused analysis pass and
//! every figure builder — plus the two phases in isolation, so a
//! regression can be attributed to the simulator or the analyses without
//! re-profiling. Run with `cargo bench -p mesh11-bench pipeline`.

use criterion::{criterion_group, criterion_main, Criterion};
use mesh11_bench::figures::{self, ALL_IDS};
use mesh11_bench::{DataMode, ReproContext, Scale};
use rayon::prelude::*;
use std::hint::black_box;

const SEED: u64 = 42;

/// Builds every figure in parallel, exactly as `repro --all` does.
fn analyze_all(ctx: &ReproContext) -> Vec<Vec<mesh11_core::report::FigureData>> {
    analyze(ctx, ALL_IDS)
}

fn analyze(ctx: &ReproContext, ids: &[&str]) -> Vec<Vec<mesh11_core::report::FigureData>> {
    ids.par_iter()
        .map(|id| figures::build(ctx, id).expect("known id"))
        .collect()
}

/// The ids for the cold/warm cache comparison: everything except
/// ext-client, whose client-probe pass is computed in the simulate phase
/// (its figure is a cheap read of `ReproContext::client_probes`, and it
/// silently no-ops on campaign-less contexts) — either way it would skew a
/// cache-effect measurement of the analyze phase.
fn cacheable_ids() -> Vec<&'static str> {
    ALL_IDS
        .iter()
        .copied()
        .filter(|&id| id != "ext-client")
        .collect()
}

/// Generate + simulate + analyze everything, from nothing.
fn end_to_end(c: &mut Criterion) {
    c.bench_function("pipeline/quick-end-to-end", |b| {
        b.iter(|| {
            let ctx = ReproContext::build(Scale::Quick, SEED);
            black_box(analyze_all(&ctx))
        })
    });
}

/// Generate + simulate only: a build that folds no kernel.
fn simulate(c: &mut Criterion) {
    c.bench_function("pipeline/quick-simulate", |b| {
        b.iter(|| {
            black_box(ReproContext::build_timed_with_kernels(
                Scale::Quick,
                SEED,
                mesh11_sim::FaultPlan::none(),
                DataMode::InMemory,
                &[],
            ))
        })
    });
}

/// The fused analysis pass over a fresh context, then all figure
/// builders; the dataset clone is timed but cheap next to the analyses.
fn analyze_cold(c: &mut Criterion) {
    let base = ReproContext::build(Scale::Quick, SEED);
    let ids = cacheable_ids();
    c.bench_function("pipeline/quick-analyze-cold", |b| {
        b.iter(|| {
            let ctx =
                ReproContext::from_dataset(base.dataset().clone(), base.config.clone(), base.seed);
            black_box(analyze(&ctx, &ids))
        })
    });
}

/// All figure builders with every shared analysis already folded — the
/// figures' own share of the analyze phase.
fn analyze_warm(c: &mut Criterion) {
    let ctx = ReproContext::build(Scale::Quick, SEED);
    let ids = cacheable_ids();
    analyze(&ctx, &ids);
    c.bench_function("pipeline/quick-analyze-warm", |b| {
        b.iter(|| black_box(analyze(&ctx, &ids)))
    });
}

criterion_group! {
    name = pipeline;
    config = Criterion::default().sample_size(10);
    targets = end_to_end, simulate, analyze_cold, analyze_warm
}
criterion_main!(pipeline);
