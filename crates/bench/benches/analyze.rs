//! Analyze-phase benchmarks: the fig4-2 family's kernels sequential (one
//! worker) versus parallel (default pool) over the in-memory quick
//! dataset, the dataset index build and the Fig 3.1 sigma kernels that
//! walk it, plus a chunk-store contention micro-bench (N threads hammering
//! random chunk gets through one store). Run with
//! `cargo bench -p mesh11-bench analyze`.

use criterion::{criterion_group, criterion_main, Criterion};
use mesh11_bench::{ReproContext, Scale};
use mesh11_core::bitrate::{LookupTableSet, Scope};
use mesh11_phy::{BitRate, Phy};
use mesh11_trace::snrstats::{self, SigmaKind};
use mesh11_trace::{ApId, ChunkStore, DatasetIndex, NetworkId, Probe, ProbeChunk, RateObs};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use rayon::prelude::*;
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

/// A store with `n_chunks` synthetic spilled chunks and a small resident
/// budget, so concurrent gets contend on decode, pinning, and eviction.
fn contention_store(n_chunks: usize, budget: usize) -> ChunkStore {
    let store = ChunkStore::new(budget, None);
    for k in 0..n_chunks {
        let mut chunk = ProbeChunk::default();
        for i in 0..512u32 {
            chunk.push(Probe {
                network: NetworkId(k as u32),
                phy: Phy::Bg,
                time_s: f64::from(i),
                sender: ApId(i % 7),
                receiver: ApId(i % 5 + 7),
                obs: &[RateObs {
                    rate: BitRate::bg_mbps(1.0).unwrap(),
                    loss: 0.25,
                    snr_db: 12.0,
                }],
            });
        }
        store.insert(chunk).expect("insert");
        store.evict_past_budget().expect("evict");
    }
    store
}

/// N workers × random chunk gets against one shared store.
fn chunkstore_contention(c: &mut Criterion) {
    const N_CHUNKS: usize = 32;
    const GETS: usize = 256;
    let store = contention_store(N_CHUNKS, 4);
    for threads in [1usize, 4, 8] {
        let name = format!("chunkstore/contention-{threads}t");
        c.bench_function(&name, |b| {
            b.iter(|| {
                with_threads(threads, || {
                    let mut rng = SmallRng::seed_from_u64(SEED);
                    let ids: Vec<usize> =
                        (0..GETS).map(|_| rng.random_range(0..N_CHUNKS)).collect();
                    let lens: Vec<usize> = ids
                        .par_iter()
                        .map(|&id| {
                            let h = store.chunk(id);
                            let n = h.len();
                            drop(h);
                            let _ = store.evict_past_budget();
                            n
                        })
                        .collect();
                    black_box(lens.iter().sum::<usize>())
                })
            })
        });
    }
}

criterion_group! {
    name = analyze;
    config = Criterion::default().sample_size(10);
    targets = fig4_2_quick, index_quick, chunkstore_contention
}
criterion_main!(analyze);
