//! Analyze-phase benchmarks: the fig4-2 family's kernels sequential (one
//! worker) versus parallel (default pool), over the in-memory quick
//! dataset, the same dataset forced through the spill-able chunk store,
//! and a metro-2 chunked ensemble — plus a chunk-store contention
//! micro-bench (N threads hammering random chunk gets through one store).
//! Run with `cargo bench -p mesh11-bench analyze`.

use criterion::{criterion_group, criterion_main, Criterion};
use mesh11_bench::{DataMode, ReproContext, Scale};
use mesh11_core::bitrate::{LookupTableSet, Scope};
use mesh11_phy::{BitRate, Phy};
use mesh11_trace::{ApId, ChunkConfig, ChunkStore, NetworkId, Probe, ProbeChunk, RateObs};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use rayon::prelude::*;
use std::hint::black_box;

const SEED: u64 = 42;

/// The fig4-2 family's dominant kernel: one lookup-table build plus the
/// exact-accuracy walk, per scope.
fn fig4_2_kernel(ctx: &ReproContext, scopes: &[Scope]) -> f64 {
    let src = ctx.probe_source();
    scopes
        .iter()
        .map(|&scope| {
            let table = LookupTableSet::build_from(&src, scope, Phy::Bg);
            table.exact_accuracy_from(&src)
        })
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

fn build_ctx(scale: Scale, mode: DataMode) -> ReproContext {
    ReproContext::build_timed_with_mode(scale, SEED, mesh11_sim::FaultPlan::none(), mode).0
}

/// Sequential vs parallel kernel, fully resident quick dataset.
fn fig4_2_quick(c: &mut Criterion) {
    let ctx = build_ctx(Scale::Quick, DataMode::InMemory);
    c.bench_function("analyze/fig4-2-quick-seq-1t", |b| {
        b.iter(|| with_threads(1, || black_box(fig4_2_kernel(&ctx, &Scope::ALL))))
    });
    c.bench_function("analyze/fig4-2-quick-par", |b| {
        b.iter(|| black_box(fig4_2_kernel(&ctx, &Scope::ALL)))
    });
}

/// The same kernels with the dataset forced through tiny spilled chunks —
/// measures the concurrent store under kernel-driven window traffic.
fn fig4_2_spill(c: &mut Criterion) {
    let ctx = build_ctx(Scale::Quick, DataMode::Chunked(ChunkConfig::tiny()));
    assert!(
        ctx.chunked().expect("chunked").spilled_bytes() > 0,
        "tiny budget must force spilling"
    );
    c.bench_function("analyze/fig4-2-spill-seq-1t", |b| {
        b.iter(|| with_threads(1, || black_box(fig4_2_kernel(&ctx, &Scope::ALL))))
    });
    c.bench_function("analyze/fig4-2-spill-par", |b| {
        b.iter(|| black_box(fig4_2_kernel(&ctx, &Scope::ALL)))
    });
}

/// The headline scaling case: a metro-2 chunked ensemble (220 networks,
/// default chunk config), Global scope only to keep the bench bounded.
fn fig4_2_metro(c: &mut Criterion) {
    let ctx = build_ctx(
        Scale::Metro { factor: 2 },
        DataMode::Chunked(ChunkConfig::default()),
    );
    c.bench_function("analyze/fig4-2-metro2-seq-1t", |b| {
        b.iter(|| with_threads(1, || black_box(fig4_2_kernel(&ctx, &[Scope::Global]))))
    });
    c.bench_function("analyze/fig4-2-metro2-par", |b| {
        b.iter(|| black_box(fig4_2_kernel(&ctx, &[Scope::Global])))
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
    targets = fig4_2_quick, fig4_2_spill, fig4_2_metro, chunkstore_contention
}
criterion_main!(analyze);
