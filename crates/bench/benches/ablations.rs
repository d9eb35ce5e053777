//! Criterion benchmarks of the extension/ablation kernels (DESIGN.md §8):
//! adapter replay, capped-ExOR, floor sweeps, and triple-definition sweeps.

use criterion::{criterion_group, criterion_main, Criterion};
use mesh11_bench::ReproContext;
use mesh11_core::bitrate::{simulate_adapters, AdapterKind};
use mesh11_core::routing::ablation::{delivery_floor_sweep, improvement_vs_cap};
use mesh11_core::triples::sweep::threshold_sweep;
use mesh11_core::triples::HearRule;
use mesh11_phy::{BitRate, Phy};
use mesh11_trace::DeliveryMatrix;
use std::hint::black_box;
use std::sync::OnceLock;

mod common;
use common::resident;

fn ctx() -> &'static ReproContext {
    static CTX: OnceLock<ReproContext> = OnceLock::new();
    CTX.get_or_init(|| resident(42))
}

fn biggest_bg_matrix() -> DeliveryMatrix {
    let view = ctx().view();
    let one = BitRate::bg_mbps(1.0).unwrap();
    let meta = view
        .networks_with_at_least(5)
        .filter(|m| m.radios.contains(&Phy::Bg))
        .max_by_key(|m| m.n_aps)
        .expect("quick campaign has a big b/g network");
    view.delivery_matrix(Phy::Bg, meta.id, one).clone()
}

fn bench_adapters(c: &mut Criterion) {
    let view = ctx().view();
    let kinds = [
        AdapterKind::Oracle,
        AdapterKind::SnrTable { top_k: 2 },
        AdapterKind::EwmaProbing { alpha: 0.3 },
    ];
    c.bench_function("ablation/adapter-replay", |b| {
        b.iter(|| black_box(simulate_adapters(black_box(view), Phy::Bg, &kinds, 0.10)))
    });
}

fn bench_capped_exor(c: &mut Criterion) {
    let m = biggest_bg_matrix();
    c.bench_function("ablation/exor-cap-sweep", |b| {
        b.iter(|| black_box(improvement_vs_cap(black_box(&m), &[1, 2, 4, usize::MAX])))
    });
}

fn bench_floor_sweep(c: &mut Criterion) {
    let m = biggest_bg_matrix();
    c.bench_function("ablation/delivery-floor-sweep", |b| {
        b.iter(|| black_box(delivery_floor_sweep(black_box(&m), &[0.05, 0.1, 0.2, 0.4])))
    });
}

fn bench_threshold_sweep(c: &mut Criterion) {
    let view = ctx().view();
    let one = BitRate::bg_mbps(1.0).unwrap();
    c.bench_function("ablation/triple-threshold-sweep", |b| {
        b.iter(|| {
            black_box(threshold_sweep(
                black_box(view),
                Phy::Bg,
                one,
                &[0.05, 0.1, 0.2, 0.3],
                HearRule::Mean,
            ))
        })
    });
}

fn bench_ett(c: &mut Criterion) {
    let view = ctx().view();
    c.bench_function("ablation/ett-analysis", |b| {
        b.iter(|| {
            black_box(mesh11_core::routing::ett::analyze_ett(
                black_box(view),
                Phy::Bg,
                5,
            ))
        })
    });
}

fn config() -> Criterion {
    Criterion::default().sample_size(10)
}

criterion_group! {
    name = ablations;
    config = config();
    targets = bench_adapters, bench_capped_exor, bench_floor_sweep, bench_threshold_sweep, bench_ett
}
criterion_main!(ablations);
