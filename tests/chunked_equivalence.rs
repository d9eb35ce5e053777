//! The out-of-core contract: a chunked, spill-to-disk context must produce
//! figure JSON byte-identical to the fully resident path, at any thread
//! count — and pass B's per-network walk of the raw chunks must yield each
//! network's probe sets in dataset order no matter where chunk boundaries
//! fall, and score them exactly as the indexed penalty evaluation does.

use std::collections::BTreeMap;

use mesh11::prelude::*;
use mesh11::trace::{
    ApId, ChunkConfig, ChunkHandle, ChunkStore, ChunkedDataset, EnvLabel, NetworkId, NetworkMeta,
    ProbeChunk, RateObs,
};
use mesh11_bench::figures::{build, ALL_IDS};
use mesh11_bench::{DataMode, ReproContext, Scale};
use proptest::prelude::*;

mod common;
use common::{dataset, specs, with_threads, ProbeSpec, NET_IDS};

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

/// The generator's dataset for `specs`, with one metadata row per id in
/// its network pool (ascending, as a chunked store needs them).
fn pooled_dataset(specs: &[ProbeSpec]) -> Dataset {
    Dataset {
        networks: NET_IDS
            .iter()
            .map(|&id| NetworkMeta {
                id: NetworkId(id),
                env: EnvLabel::Indoor,
                n_aps: 4,
                radios: vec![Phy::Bg, Phy::Ht],
                location: format!("pool {id}"),
            })
            .collect(),
        ..dataset(specs)
    }
}

/// Counted fields: each distinct diff's count (by bits), the bits of the
/// in-order sum, and the unscored sets.
type Counted = (BTreeMap<u64, u64>, u64, usize);

/// The pre-count penalty loop, kept as the oracle: every set of the
/// table's PHY, network by network in id order and in stream order
/// within each, its diff pushed to a vector; then the vector's counted
/// fields.
fn penalty_oracle(view: DatasetView<'_>, table: &LookupTableSet) -> Counted {
    let (mut diffs, mut unpredicted) = (Vec::new(), 0);
    for p in view
        .network_views(table.phy())
        .iter()
        .flat_map(|nv| nv.probes_in_order())
    {
        match table.predict(p) {
            None => unpredicted += 1,
            Some(pick) => {
                let got = p.obs_for(pick).map_or(0.0, |o| o.throughput_mbps());
                diffs.push((p.optimal().throughput_mbps() - got).max(0.0));
            }
        }
    }
    let mut per_value = BTreeMap::new();
    for d in &diffs {
        *per_value.entry(d.to_bits()).or_insert(0) += 1;
    }
    (per_value, diffs.iter().sum::<f64>().to_bits(), unpredicted)
}

fn counted(p: &ThroughputPenalty) -> Counted {
    let mut per_value = BTreeMap::new();
    for (v, n) in p.diffs_mbps.cells() {
        *per_value.entry(v.to_bits()).or_insert(0) += n;
    }
    (per_value, p.diffs_mbps.sum().to_bits(), p.unpredicted)
}

/// Trains all eight (scope, phy) tables on `train`, then scores them
/// against `eval` three ways: the per-set oracle loop, per table over the
/// indexed view (`ThroughputPenalty::evaluate`, the in-memory path), and
/// pass B's one batched walk over `eval` chunked at `capacity` probe sets
/// per chunk. All three must agree bit for bit in every counted field.
/// Returns the unpredicted counts, table by table.
fn assert_pass_b_matches(train: &Dataset, eval: &Dataset, capacity: usize) -> Vec<usize> {
    let train_ix = DatasetIndex::build(train);
    let train_view = DatasetView::new(train, &train_ix);
    let tables: Vec<LookupTableSet> = [Scope::Global, Scope::Network, Scope::Ap, Scope::Link]
        .into_iter()
        .flat_map(|scope| [Phy::Bg, Phy::Ht].map(|phy| (scope, phy)))
        .map(|(scope, phy)| LookupTableSet::build(train_view, scope, phy))
        .collect();
    let refs: Vec<&LookupTableSet> = tables.iter().collect();
    let cfg = ChunkConfig {
        chunk_capacity: capacity,
        resident_chunks: 2,
        ..ChunkConfig::tiny()
    };
    let chunked = ChunkedDataset::from_dataset(eval, cfg).expect("chunking succeeds");
    let batch = ThroughputPenalty::evaluate_batch_chunked(&chunked, &refs);
    let eval_ix = DatasetIndex::build(eval);
    let eval_view = DatasetView::new(eval, &eval_ix);
    assert_eq!(batch.len(), tables.len());
    for (got, table) in batch.iter().zip(&tables) {
        let want = penalty_oracle(eval_view, table);
        let indexed = ThroughputPenalty::evaluate(eval_view, table);
        let label = format!(
            "{:?}/{:?} at capacity {capacity}",
            table.scope(),
            table.phy()
        );
        assert_eq!(
            (got.scope, got.phy),
            (table.scope(), table.phy()),
            "{label}"
        );
        assert_eq!(
            (indexed.scope, indexed.phy),
            (got.scope, got.phy),
            "{label}"
        );
        assert_eq!(
            counted(got),
            want,
            "pass B differs from the oracle: {label}"
        );
        assert_eq!(
            counted(&indexed),
            want,
            "evaluate differs from the oracle: {label}"
        );
    }
    batch.iter().map(|p| p.unpredicted).collect()
}

/// A median that is `±0.0`: sets whose SNRs are `0.0` and `-0.0` (alone,
/// and interpolated between the two) share SNR key 0 with the sets around
/// them, and pass B must key them exactly as the index does.
#[test]
fn pass_b_matches_indexed_on_signed_zero_medians() {
    let ds = pooled_dataset(&[
        (0, false, (0, 1), 0, vec![(0, 0, 0), (1, 0, 1)]),
        (0, false, (0, 1), 1, vec![(0, 0, 1)]),
        (0, false, (0, 1), 2, vec![(2, 1, 1), (3, 0, 0), (1, 2, 1)]),
        (0, false, (1, 0), 0, vec![(4, 0, 0)]),
        (3, true, (2, 3), 0, vec![(0, 0, 1), (5, 1, 0)]),
    ]);
    for capacity in [1, 2, 64] {
        assert_pass_b_matches(&ds, &ds, capacity);
    }
}

/// Equal-throughput optima: full loss ties every rate at zero and the
/// optimum breaks toward the lower rate, so pass B's once-per-set optimum
/// must be the index's.
#[test]
fn pass_b_matches_indexed_on_equal_throughput_optima() {
    let ds = pooled_dataset(&[
        (1, false, (0, 1), 0, vec![(3, 4, 2), (0, 4, 2), (6, 4, 2)]),
        (1, false, (0, 1), 1, vec![(6, 0, 2), (3, 2, 2)]),
        (1, false, (0, 2), 0, vec![(2, 4, 3), (7, 4, 4)]),
        (2, true, (1, 0), 0, vec![(1, 4, 2), (9, 4, 2)]),
        (2, true, (1, 0), 1, vec![(9, 0, 2)]),
    ]);
    for capacity in [1, 3, 64] {
        assert_pass_b_matches(&ds, &ds, capacity);
    }
}

/// A (key, SNR) cell the tables never saw: every scope's table, trained
/// on one network at one SNR, must report the other network's sets as
/// unpredicted, on both paths alike.
#[test]
fn pass_b_matches_indexed_on_missing_cells() {
    let train = pooled_dataset(&[
        (0, false, (0, 1), 0, vec![(2, 0, 2)]),
        (0, true, (0, 1), 0, vec![(2, 0, 2)]),
    ]);
    let eval = pooled_dataset(&[
        (0, false, (0, 1), 1, vec![(2, 0, 2)]),
        (4, false, (0, 1), 0, vec![(3, 1, 6)]),
        (4, true, (1, 2), 0, vec![(3, 1, 6), (4, 0, 5)]),
    ]);
    let unpredicted = assert_pass_b_matches(&train, &eval, 2);
    // Every table misses exactly network 4's set of its PHY; network 0's
    // b/g set finds its cell at every scope.
    assert_eq!(unpredicted, [1, 1, 1, 1, 1, 1, 1, 1]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Pass B's batched raw-chunk walk scores every probe set exactly as
    /// the per-table indexed evaluation does, on the hostile generator's
    /// datasets (any network order, both PHYs, ties, `±0.0` SNRs),
    /// wherever chunk boundaries fall and at one thread or four.
    #[test]
    fn pass_b_matches_indexed_evaluation(
        specs in specs(120),
        capacity in 1usize..4_000,
    ) {
        let ds = pooled_dataset(&specs);
        for threads in [1, 4] {
            with_threads(threads, || assert_pass_b_matches(&ds, &ds, capacity));
        }
    }

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
