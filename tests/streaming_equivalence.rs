//! The chunked-build contract: a chunked context, whose streaming build
//! folds every shared analysis over each sealed part while later networks
//! are still simulating, must produce figure JSON byte-identical to the
//! in-memory context (every analysis folded over the whole view as one
//! part, the path the goldens pin) — wherever the chunk boundaries fall,
//! at any thread count, clean or faulted — and must never build a chunk
//! window.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use mesh11::prelude::*;
use mesh11::trace::{ChunkConfig, ChunkStoreStats};
use mesh11_bench::figures::{build, ALL_IDS};
use mesh11_bench::{DataMode, ReproContext, Scale};
use proptest::prelude::*;

const SEED: u64 = 13;

type Figures = BTreeMap<String, String>;

fn fault_plan(faulted: bool) -> FaultPlan {
    if faulted {
        FaultPlan::demo(Scale::Quick.config().probe_horizon_s)
    } else {
        FaultPlan::none()
    }
}

/// Renders every figure of every experiment id to JSON, keyed by figure id.
fn all_figure_json(ctx: &ReproContext) -> Figures {
    let mut out = BTreeMap::new();
    for id in ALL_IDS {
        let figs = build(ctx, id).unwrap_or_else(|| panic!("unknown id {id}"));
        for f in figs {
            let prev = out.insert(f.id.clone(), f.to_json());
            assert!(prev.is_none(), "duplicate figure id {}", f.id);
        }
    }
    out
}

/// Builds a quick-scale context in `mode` on a dedicated pool of `threads`
/// workers and renders all figures; returns them with the chunk-store
/// counters as they stand after the last figure.
fn figures_under(mode: DataMode, threads: usize, faulted: bool) -> (Figures, ChunkStoreStats) {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("build pool")
        .install(|| {
            let (ctx, _) =
                ReproContext::build_timed_with_mode(Scale::Quick, SEED, fault_plan(faulted), mode);
            let figs = all_figure_json(&ctx);
            (figs, ctx.chunk_stats())
        })
}

/// The in-memory figures, computed once per fault setting.
fn reference(faulted: bool) -> &'static Figures {
    static REFERENCE: [OnceLock<Figures>; 2] = [OnceLock::new(), OnceLock::new()];
    REFERENCE[usize::from(faulted)].get_or_init(|| {
        let (figs, _) = figures_under(DataMode::InMemory, 1, faulted);
        assert!(figs.len() >= 39, "expected the full figure set");
        figs
    })
}

#[test]
fn chunked_figures_build_no_window() {
    let (ctx, _) = ReproContext::build_timed_with_mode(
        Scale::Quick,
        SEED,
        FaultPlan::none(),
        DataMode::Chunked(ChunkConfig::tiny()),
    );
    assert!(
        ctx.store_summary().expect("chunked context").spilled_bytes > 0,
        "tiny chunk budget must force disk spill"
    );
    assert!(all_figure_json(&ctx).len() >= 39);
    let stats = ctx.chunk_stats();
    assert_eq!(stats.window_builds, 0, "a figure walked the chunk store");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Adversarial chunk boundaries: for chunk capacities from 64 to 1023
    /// probe sets under a two-chunk resident budget, the streamed chunked
    /// context's figures are byte-for-byte the in-memory context's —
    /// single-threaded and fanned out, with and without an active fault
    /// plan — and no figure builds a window.
    #[test]
    fn streaming_matches_in_memory(
        capacity in 64usize..1_024,
        four_threads in proptest::bool::ANY,
        faulted in proptest::bool::ANY,
    ) {
        let cfg = ChunkConfig {
            chunk_capacity: capacity,
            resident_chunks: 2,
            ..ChunkConfig::tiny()
        };
        let threads = if four_threads { 4 } else { 1 };
        let reference = reference(faulted);
        let (got, stats) = figures_under(DataMode::Chunked(cfg), threads, faulted);
        prop_assert_eq!(stats.window_builds, 0);
        prop_assert_eq!(got.len(), reference.len(), "figure set differs");
        for (id, json) in reference {
            let g = got.get(id).map(String::as_str);
            prop_assert_eq!(
                g,
                Some(json.as_str()),
                "figure {} diverges (capacity={}, threads={}, faulted={})",
                id,
                capacity,
                threads,
                faulted
            );
        }
    }
}
