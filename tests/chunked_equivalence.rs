//! The part contract: a simulated context, which folds each part as the
//! simulator emits it, must produce figure JSON byte-identical to a
//! resident context that simulated the whole campaign and folded its whole
//! view as one part, at any thread count, whether or not it also writes
//! its parts to the spill-to-disk chunk store; the store's per-network walk
//! must yield each network's probe sets in dataset order no matter where
//! chunk boundaries fall; and the Fig 4.4 penalties, scored part by part
//! as their tables tally, must match the whole-view penalty evaluation
//! wherever the network-aligned part boundaries fall.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use mesh11::prelude::*;
use mesh11::trace::{ChunkConfig, ChunkedDataset, EnvLabel, NetworkId, NetworkMeta};
use mesh11_bench::figures::{build, ALL_IDS};
use mesh11_bench::{DataMode, FusedOutputs, FusedRunner, Kernel, ReproContext, Scale};
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
                let c = ctx.store_summary().expect("chunked context");
                assert!(
                    c.spilled_bytes > 0,
                    "tiny chunk budget must force disk spill"
                );
            }
            all_figure_json(&ctx)
        })
}

/// The resident reference: the whole campaign simulated first, then every
/// kernel folded over its whole view as one part (the `--seeds` path,
/// which keeps the campaign, so `ext-client` is built too).
fn resident_figures(faults: FaultPlan) -> BTreeMap<String, String> {
    let (mut ctxs, _) =
        ReproContext::build_many_timed(Scale::Quick, SEED, 1, faults, &Kernel::all());
    let ctx = ctxs.pop().expect("one seed");
    assert!(ctx.store_summary().is_none() && !ctx.dataset().probes.is_empty());
    all_figure_json(&ctx)
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
            "figure {id} diverges from the resident reference ({label})"
        );
    }
}

/// Every figure JSON — all experiments, all panels — of the streamed
/// builds is byte-identical to the resident whole-view build: the
/// store-less build, and the forced-spill chunked build
/// (`ChunkConfig::tiny()`: many chunks, budget 2) on one thread, four,
/// and eight (the parallelized kernels fan out per network, so this
/// exercises every reduction order).
#[test]
fn chunked_figures_byte_identical_to_in_memory() {
    let reference = resident_figures(FaultPlan::none());
    assert!(
        reference.len() >= 39,
        "expected the full figure set (29 experiments, 39 panels), got {}",
        reference.len()
    );
    let storeless = build_figures(DataMode::InMemory, 4, FaultPlan::none());
    assert_same_figures(&reference, &storeless, "store-less, 4 threads");
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
    let reference = resident_figures(demo());
    let storeless = build_figures(DataMode::InMemory, 8, demo());
    assert_same_figures(&reference, &storeless, "faulted, store-less, 8 threads");
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

/// Counted fields: each distinct diff's count (by bits), the zeros' runs
/// in push order (by bits), the bits of the in-order sum, and the
/// unscored sets.
type Counted = (BTreeMap<u64, u64>, Vec<(u64, u64)>, u64, usize);

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
    let mut zeros: Vec<(u64, u64)> = Vec::new();
    for d in &diffs {
        *per_value.entry(d.to_bits()).or_insert(0) += 1;
        if *d == 0.0 {
            match zeros.last_mut() {
                Some((bits, run)) if *bits == d.to_bits() => *run += 1,
                _ => zeros.push((d.to_bits(), 1)),
            }
        }
    }
    let sum = diffs.iter().sum::<f64>().to_bits();
    (per_value, zeros, sum, unpredicted)
}

fn counted(p: &ThroughputPenalty) -> Counted {
    let (mut per_value, mut zeros) = (BTreeMap::new(), Vec::new());
    for (v, n) in p.diffs_mbps.cells() {
        *per_value.entry(v.to_bits()).or_insert(0) += n;
        if v == 0.0 {
            zeros.push((v.to_bits(), n));
        }
    }
    (
        per_value,
        zeros,
        p.diffs_mbps.sum().to_bits(),
        p.unpredicted,
    )
}

/// Every (scope, phy) a table is trained at.
fn table_keys() -> Vec<(Scope, Phy)> {
    [Scope::Global, Scope::Network, Scope::Ap, Scope::Link]
        .into_iter()
        .flat_map(|scope| [Phy::Bg, Phy::Ht].map(|phy| (scope, phy)))
        .collect()
}

/// `ds` cut into parts of consecutive networks (id order), a new part
/// starting at each network whose `cuts` entry is set: one network per
/// part when every entry is, the whole view when none is. Each network's
/// probe sets keep their stream order.
fn parts_of(ds: &Dataset, cuts: &[bool]) -> Vec<Dataset> {
    let mut parts: Vec<Dataset> = Vec::new();
    for (i, m) in ds.networks.iter().enumerate() {
        if parts.is_empty() || cuts.get(i).copied().unwrap_or(false) {
            parts.push(Dataset::default());
        }
        let part = parts.last_mut().expect("pushed above");
        part.networks.push(m.clone());
        for p in ds.probes_for_network(m.id) {
            part.probes.push(p);
        }
    }
    parts
}

/// Trains all eight tables with their penalties in a fused runner folded
/// over `ds` cut at `cuts`, each table scoring the sets it tallies.
fn fold_in_parts(ds: &Dataset, cuts: &[bool]) -> FusedOutputs {
    let penalties: Vec<Kernel> = (table_keys().into_iter())
        .map(|(s, p)| Kernel::Penalty(s, p))
        .collect();
    let mut runner = FusedRunner::for_kernels(&penalties);
    for part in parts_of(ds, cuts) {
        let ix = DatasetIndex::build(&part);
        runner.fold_view(DatasetView::new(&part, &ix));
    }
    runner.outputs()
}

/// Scores `eval` against each of `out`'s eight finished tables two ways,
/// the per-set oracle loop and `ThroughputPenalty::evaluate` over the
/// whole view, and checks they agree bit for bit in every counted field.
/// Returns the oracle's counts, table by table.
fn whole_view_scores(out: &FusedOutputs, eval: &Dataset) -> Vec<Counted> {
    let ix = DatasetIndex::build(eval);
    let view = DatasetView::new(eval, &ix);
    (table_keys().into_iter())
        .map(|(scope, phy)| {
            let table: &LookupTableSet = out.get(Kernel::Table(scope, phy));
            let want = penalty_oracle(view, table);
            let indexed = ThroughputPenalty::evaluate(view, table);
            assert_eq!((indexed.scope, indexed.phy), (scope, phy));
            assert_eq!(
                counted(&indexed),
                want,
                "evaluate differs from the oracle: {scope:?}/{phy:?}"
            );
            want
        })
        .collect()
}

/// Scores all eight penalties part by part over `ds` cut at `cuts`, and
/// checks each against the whole-view evaluation of its finished table
/// bit for bit in every counted field: cells, zero runs, the in-order
/// sum and the unscored sets. Returns the unpredicted counts, table by
/// table.
fn assert_pass_b_matches(ds: &Dataset, cuts: &[bool]) -> Vec<usize> {
    let out = fold_in_parts(ds, cuts);
    let want = whole_view_scores(&out, ds);
    (table_keys().into_iter().zip(want))
        .map(|((scope, phy), want)| {
            let got: &ThroughputPenalty = out.get(Kernel::Penalty(scope, phy));
            assert_eq!((got.scope, got.phy), (scope, phy));
            assert_eq!(
                counted(got),
                want,
                "per-part scoring differs from the whole view: {scope:?}/{phy:?}, cuts {cuts:?}"
            );
            got.unpredicted
        })
        .collect()
}

/// Every way to cut the `NET_IDS` pool into parts of consecutive networks.
fn every_cut() -> impl Iterator<Item = Vec<bool>> {
    (0..1u32 << NET_IDS.len()).map(|mask| (0..NET_IDS.len()).map(|i| mask >> i & 1 == 1).collect())
}

/// A median that is `±0.0`: sets whose SNRs are `0.0` and `-0.0` (alone,
/// and interpolated between the two) share SNR key 0 with the sets around
/// them, and the per-part scorer must key them exactly as the index does.
#[test]
fn pass_b_matches_indexed_on_signed_zero_medians() {
    let ds = pooled_dataset(&[
        (0, false, (0, 1), 0, vec![(0, 0, 0), (1, 0, 1)]),
        (0, false, (0, 1), 1, vec![(0, 0, 1)]),
        (0, false, (0, 1), 2, vec![(2, 1, 1), (3, 0, 0), (1, 2, 1)]),
        (0, false, (1, 0), 0, vec![(4, 0, 0)]),
        (3, true, (2, 3), 0, vec![(0, 0, 1), (5, 1, 0)]),
    ]);
    for cuts in every_cut() {
        assert_pass_b_matches(&ds, &cuts);
    }
}

/// Equal-throughput optima: full loss ties every rate at zero and the
/// optimum breaks toward the lower rate, so the once-per-set optimum the
/// Global residue keeps must be the index's.
#[test]
fn pass_b_matches_indexed_on_equal_throughput_optima() {
    let ds = pooled_dataset(&[
        (1, false, (0, 1), 0, vec![(3, 4, 2), (0, 4, 2), (6, 4, 2)]),
        (1, false, (0, 1), 1, vec![(6, 0, 2), (3, 2, 2)]),
        (1, false, (0, 2), 0, vec![(2, 4, 3), (7, 4, 4)]),
        (2, true, (1, 0), 0, vec![(1, 4, 2), (9, 4, 2)]),
        (2, true, (1, 0), 1, vec![(9, 0, 2)]),
    ]);
    for cuts in every_cut() {
        assert_pass_b_matches(&ds, &cuts);
    }
}

/// A (key, SNR) cell a table never saw. The per-part scorer scores each
/// table on the sets that trained it, so it never meets one. The oracle
/// does: every scope's table, trained on one network at one SNR, reports
/// the other network's sets as unpredicted, on both whole-view paths alike.
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
    for ds in [&train, &eval] {
        assert_eq!(assert_pass_b_matches(ds, &[true; 5]), [0; 8]);
    }
    let unpredicted: Vec<usize> = whole_view_scores(&fold_in_parts(&train, &[]), &eval)
        .into_iter()
        .map(|c| c.3)
        .collect();
    // Every table misses exactly network 4's set of its PHY; network 0's
    // b/g set finds its cell at every scope.
    assert_eq!(unpredicted, [1, 1, 1, 1, 1, 1, 1, 1]);
}

/// A quick campaign's dataset, clean or under the demo fault plan, built
/// once per setting.
fn quick_dataset(faulted: bool) -> &'static Dataset {
    static DATASETS: [OnceLock<Dataset>; 2] = [OnceLock::new(), OnceLock::new()];
    DATASETS[usize::from(faulted)].get_or_init(|| {
        let mut cfg = Scale::Quick.config();
        if faulted {
            cfg.faults = FaultPlan::demo(cfg.probe_horizon_s);
        }
        cfg.run_campaign(&Scale::Quick.campaign_spec(SEED).generate())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Per-part scoring matches the whole-view evaluation on the hostile
    /// generator's datasets (any network order, both PHYs, ties, `±0.0`
    /// SNRs), wherever the network-aligned part boundaries fall and at
    /// one thread or four.
    #[test]
    fn pass_b_matches_indexed_evaluation(
        specs in specs(120),
        cuts in proptest::collection::vec(proptest::bool::ANY, NET_IDS.len()..NET_IDS.len() + 1),
    ) {
        let ds = pooled_dataset(&specs);
        for threads in [1, 4] {
            with_threads(threads, || assert_pass_b_matches(&ds, &cuts));
        }
    }

    /// The same on a quick campaign, clean and faulted: its twelve
    /// networks cut anywhere, from one network per part to the whole view.
    #[test]
    fn per_part_scoring_matches_evaluate_on_quick_campaigns(
        faulted in proptest::bool::ANY,
        cuts in proptest::collection::vec(proptest::bool::ANY, 12..13),
        four_threads in proptest::bool::ANY,
    ) {
        let ds = quick_dataset(faulted);
        prop_assert_eq!(ds.networks.len(), 12);
        let threads = if four_threads { 4 } else { 1 };
        with_threads(threads, || assert_pass_b_matches(ds, &cuts));
    }

    /// Wherever the chunk boundaries land — capacity 1 (every probe its own
    /// chunk) through capacities far larger than the dataset — the store's
    /// per-network walk (`window_dataset(net..net + 1)`) yields exactly
    /// that network's rows of the probe table, in order.
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
            let walked = chunked.window_dataset(net..net + 1).probes;
            let want: ProbeTable = ds.probes_for_network(m.id).collect();
            prop_assert_eq!(walked, want, "network {:?}", m.id);
        }
    }
}
