//! Analyze-phase benchmarks: the fig4-2 family's kernels sequential (one
//! worker) versus parallel (default pool) over the in-memory quick
//! dataset, and the dataset index build and the Fig 3.1 sigma kernels
//! that walk it. Run with `cargo bench -p mesh11-bench analyze`.

use criterion::{criterion_group, criterion_main, Criterion};
use mesh11_bench::{ReproContext, Scale};
use mesh11_core::bitrate::{LookupTableSet, Scope};
use mesh11_phy::Phy;
use mesh11_trace::snrstats::{self, SigmaKind};
use mesh11_trace::DatasetIndex;
use std::hint::black_box;

const SEED: u64 = 42;

/// The fig4-2 family's dominant kernel: one lookup-table build plus the
/// exact-accuracy walk, per scope.
fn fig4_2_kernel(ctx: &ReproContext, scopes: &[Scope]) -> f64 {
    let view = ctx.view();
    scopes
        .iter()
        .map(|&scope| LookupTableSet::build(view, scope, Phy::Bg).exact_accuracy(view))
        .sum()
}

/// Runs `f` under a scoped pool of exactly `n` workers.
fn with_threads<R: Send>(n: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .expect("build pool")
        .install(f)
}

/// Sequential vs parallel kernel, fully resident quick dataset.
fn fig4_2_quick(c: &mut Criterion) {
    let ctx = ReproContext::build(Scale::Quick, SEED);
    c.bench_function("analyze/fig4-2-quick-seq-1t", |b| {
        b.iter(|| with_threads(1, || black_box(fig4_2_kernel(&ctx, &Scope::ALL))))
    });
    c.bench_function("analyze/fig4-2-quick-par", |b| {
        b.iter(|| black_box(fig4_2_kernel(&ctx, &Scope::ALL)))
    });
}

/// The grouping every request computes once, and the Fig 3.1 kernels
/// that walk it (columns prebuilt, as a request's first reader leaves
/// them).
fn index_quick(c: &mut Criterion) {
    let ctx = ReproContext::build(Scale::Quick, SEED);
    let ds = ctx.view().dataset();
    c.bench_function("analyze/index-build-quick", |b| {
        b.iter(|| black_box(DatasetIndex::build(ds)))
    });
    let kinds = [
        SigmaKind::ProbeSet,
        SigmaKind::Link,
        SigmaKind::RecentK(3),
        SigmaKind::Network,
    ];
    let view = ctx.view();
    view.columns();
    c.bench_function("analyze/fig3-1-sigmas-quick", |b| {
        b.iter(|| {
            for kind in kinds {
                black_box(snrstats::sigmas(view, kind));
            }
        })
    });
}

criterion_group! {
    name = analyze;
    config = Criterion::default().sample_size(10);
    targets = fig4_2_quick, index_quick
}
criterion_main!(analyze);
