//! The out-of-core contract: a chunked, spill-to-disk context must produce
//! figure JSON byte-identical to the fully resident path, at any thread
//! count — and pass B's per-network walk of the raw chunks must yield each
//! network's probe sets in dataset order no matter where chunk boundaries
//! fall.

use std::collections::BTreeMap;

use mesh11::prelude::*;
use mesh11::trace::{
    ApId, ChunkConfig, ChunkHandle, ChunkStore, ChunkedDataset, NetworkId, ProbeChunk, RateObs,
};
use mesh11_bench::figures::{build, ALL_IDS};
use mesh11_bench::{DataMode, ReproContext, Scale};
use proptest::prelude::*;

const SEED: u64 = 13;

/// Renders every figure of every experiment id to JSON, keyed by figure id.
fn all_figure_json(ctx: &ReproContext) -> BTreeMap<String, String> {
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

fn build_figures(mode: DataMode, threads: usize, faults: FaultPlan) -> BTreeMap<String, String> {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("build pool")
        .install(|| {
            let (ctx, _) =
                ReproContext::build_timed_with_mode(Scale::Quick, SEED, faults, mode.clone());
            if let DataMode::Chunked(_) = mode {
                let c = ctx.chunked().expect("chunked context");
                assert!(
                    c.spilled_bytes() > 0,
                    "tiny chunk budget must force disk spill"
                );
            }
            all_figure_json(&ctx)
        })
}

/// Asserts every figure of `got` matches `reference` byte for byte.
fn assert_same_figures(
    reference: &BTreeMap<String, String>,
    got: &BTreeMap<String, String>,
    label: &str,
) {
    assert_eq!(got.len(), reference.len(), "figure set differs ({label})");
    for (id, json) in reference {
        assert_eq!(
            got.get(id).map(String::as_str),
            Some(json.as_str()),
            "figure {id} diverges from the in-memory reference ({label})"
        );
    }
}

/// Every figure JSON — all experiments, all panels — is byte-identical
/// between the in-memory and the forced-spill chunked path
/// (`ChunkConfig::tiny()`: many chunks, budget 2, so pass B reads
/// spilled frames back), on one
/// thread, four, and eight (the parallelized kernels fan out per
/// network, so this exercises every reduction order).
#[test]
fn chunked_figures_byte_identical_to_in_memory() {
    let reference = build_figures(DataMode::InMemory, 1, FaultPlan::none());
    assert!(
        reference.len() >= 39,
        "expected the full figure set (29 experiments, 39 panels), got {}",
        reference.len()
    );
    for threads in [1, 4, 8] {
        let chunked = build_figures(
            DataMode::Chunked(ChunkConfig::tiny()),
            threads,
            FaultPlan::none(),
        );
        assert_same_figures(&reference, &chunked, &format!("{threads} threads"));
    }
}

/// The same contract under an active fault plan: outages and interference
/// bursts reshape the probe table, so this catches any spill/parallel
/// divergence that only appears on irregular per-network data.
#[test]
fn faulted_chunked_figures_byte_identical_to_in_memory() {
    let demo = || FaultPlan::demo(Scale::Quick.config().probe_horizon_s);
    let reference = build_figures(DataMode::InMemory, 1, demo());
    for threads in [1, 8] {
        let chunked = build_figures(DataMode::Chunked(ChunkConfig::tiny()), threads, demo());
        assert_same_figures(&reference, &chunked, &format!("faulted, {threads} threads"));
    }
}

/// A small but real multi-network dataset for boundary-placement tests.
fn simulate(seed: u64) -> Dataset {
    let campaign = CampaignSpec::scaled(seed, 3).generate();
    let mut cfg = SimConfig::quick();
    cfg.probe_horizon_s = 900.0;
    cfg.client_horizon_s = 600.0;
    cfg.run_campaign(&campaign)
}

/// A chunk whose contents identify it: `k + 1` probe sets, all tagged
/// with network id `k` — so a handle can prove it still sees chunk `k`
/// after arbitrary eviction traffic.
fn tagged_chunk(k: usize) -> ProbeChunk {
    let mut chunk = ProbeChunk::default();
    for i in 0..=(k as u32) {
        chunk.push(Probe {
            network: NetworkId(k as u32),
            phy: Phy::Bg,
            time_s: f64::from(i),
            sender: ApId(i % 3),
            receiver: ApId(3 + i % 3),
            obs: &[RateObs {
                rate: BitRate::bg_mbps(1.0).unwrap(),
                loss: 0.5,
                snr_db: 10.0,
            }],
        });
    }
    chunk
}

/// The network tag of a chunk's first probe set.
fn first_network(chunk: &ProbeChunk) -> NetworkId {
    let mut first = ProbeTable::new();
    chunk.copy_into(0..1, &mut first);
    first[0].network
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Live handles pin their chunks: however hard the eviction pressure,
    /// a pinned chunk stays resident with its contents intact; once the
    /// pins drop, the store shrinks back within budget and spilled chunks
    /// decode back correctly.
    #[test]
    fn pinned_handles_are_never_evicted(
        n_chunks in 4usize..20,
        budget in 2usize..4,
        pin_stride in 1usize..5,
        gets in proptest::collection::vec(0usize..64, 1..40),
    ) {
        let store = ChunkStore::new(budget, None);
        for k in 0..n_chunks {
            prop_assert_eq!(store.insert(tagged_chunk(k)).expect("insert"), k);
        }
        let pinned: Vec<(usize, ChunkHandle)> = (0..n_chunks)
            .step_by(pin_stride)
            .map(|k| (k, store.chunk(k)))
            .collect();
        for &g in &gets {
            let id = g % n_chunks;
            let h = store.chunk(id);
            prop_assert_eq!(h.len(), id + 1);
            prop_assert_eq!(first_network(&h), NetworkId(id as u32));
            drop(h);
            store.evict_past_budget().expect("evict");
            for (k, h) in &pinned {
                prop_assert!(store.is_resident(*k), "pinned chunk {} was evicted", k);
                prop_assert_eq!(h.len(), *k + 1);
                prop_assert_eq!(first_network(h), NetworkId(*k as u32));
            }
            // Only pinned chunks may hold the store over budget.
            prop_assert!(store.resident_chunks() <= budget.max(pinned.len()));
        }
        drop(pinned);
        store.evict_past_budget().expect("evict");
        prop_assert!(store.resident_chunks() <= budget);
        for k in 0..n_chunks {
            let h = store.chunk(k);
            prop_assert_eq!(h.len(), k + 1);
            prop_assert_eq!(first_network(&h), NetworkId(k as u32));
        }
    }

    /// Wherever the chunk boundaries land — capacity 1 (every probe its own
    /// chunk) through capacities far larger than the dataset — pass B's
    /// per-network walk of the raw chunks yields exactly that network's
    /// rows of the probe table, in order.
    #[test]
    fn network_walk_invariant_to_chunk_boundaries(
        seed in 0u64..200,
        capacity in 1usize..4_000,
    ) {
        let ds = simulate(seed);
        let cfg = ChunkConfig {
            chunk_capacity: capacity,
            resident_chunks: 2,
            ..ChunkConfig::tiny()
        };
        let chunked = ChunkedDataset::from_dataset(&ds, cfg).expect("chunking succeeds");
        prop_assert_eq!(chunked.n_probes() as usize, ds.probes.len());
        for (net, m) in ds.networks.iter().enumerate() {
            let mut walked = ProbeTable::new();
            chunked.for_each_network_probe(net, |p| walked.push(p));
            let want: ProbeTable = ds.probes_for_network(m.id).collect();
            prop_assert_eq!(walked, want, "network {:?}", m.id);
        }
    }
}
