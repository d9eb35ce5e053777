//! Criterion benchmarks: one per paper table/figure.
//!
//! Each benchmark measures the *analysis kernel* that regenerates the
//! artifact, over a fixed quick-scale campaign (the dataset is built once,
//! outside the timed region). The context is shared, so builders that lean
//! on its cached heavy analyses measure the warm-cache path here — the
//! cold path is covered by `benches/pipeline.rs` and the explicit bundle
//! benches below. `cargo bench -p mesh11-bench` runs them all; individual
//! ones via e.g. `cargo bench -p mesh11-bench fig5_1`.

use criterion::{criterion_group, criterion_main, Criterion};
use mesh11_bench::figures;
use mesh11_bench::ReproContext;
use std::hint::black_box;
use std::sync::OnceLock;

mod common;
use common::resident;

fn ctx() -> &'static ReproContext {
    static CTX: OnceLock<ReproContext> = OnceLock::new();
    CTX.get_or_init(|| resident(42))
}

macro_rules! figure_bench {
    ($fn_name:ident, $id:literal) => {
        fn $fn_name(c: &mut Criterion) {
            let ctx = ctx();
            c.bench_function(concat!("paper/", $id), |b| {
                b.iter(|| black_box(figures::build(black_box(ctx), $id).expect("known id")))
            });
        }
    };
}

figure_bench!(fig3_1, "fig3-1");
figure_bench!(fig4_1, "fig4-1");
figure_bench!(fig4_2, "fig4-2");
figure_bench!(fig4_3, "fig4-3");
figure_bench!(fig4_4, "fig4-4");
figure_bench!(fig4_5, "fig4-5");
figure_bench!(fig4_6, "fig4-6");
figure_bench!(tab4_1, "tab4-1");
figure_bench!(fig5_2, "fig5-2");
figure_bench!(fig6_1, "fig6-1");
figure_bench!(fig6_2, "fig6-2");
figure_bench!(sec6_3, "sec6-3");
figure_bench!(fig7_1, "fig7-1");
figure_bench!(fig7_2, "fig7-2");
figure_bench!(fig7_3, "fig7-3");
figure_bench!(fig7_4, "fig7-4");
figure_bench!(fig7_5, "fig7-5");

/// Figs 5.1 / 5.3 / 5.4 / 5.5 share the heavy routing bundle; bench the
/// bundle itself (uncached) once, and the figure assembly on the cached
/// bundle separately.
fn fig5_routing_bundle(c: &mut Criterion) {
    let ctx = ctx();
    c.bench_function("paper/fig5-routing-bundle", |b| {
        b.iter(|| {
            black_box(mesh11_core::routing::improvement::analyze_dataset(
                black_box(ctx.view()),
                mesh11_phy::Phy::Bg,
                5,
            ))
        })
    });
}

figure_bench!(fig5_1, "fig5-1");
figure_bench!(fig5_3, "fig5-3");
figure_bench!(fig5_4, "fig5-4");
figure_bench!(fig5_5, "fig5-5");

fn config() -> Criterion {
    Criterion::default().sample_size(10)
}

criterion_group! {
    name = paper;
    config = config();
    targets = fig3_1, fig4_1, fig4_2, fig4_3, fig4_4, fig4_5, fig4_6, tab4_1,
        fig5_routing_bundle, fig5_1, fig5_2, fig5_3, fig5_4, fig5_5,
        fig6_1, fig6_2, sec6_3, fig7_1, fig7_2, fig7_3, fig7_4, fig7_5
}
criterion_main!(paper);
