//! Reproduction-run setup: campaign, simulation, shared heavy analyses.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use mesh11_core::bitrate::{
    AdaptationOutcome, LinkStability, LookupTableSet, Scope, SnrThroughputCurves, StrategyEval,
    ThroughputPenalty,
};
use mesh11_core::mobility::MobilityReport;
use mesh11_core::routing::ett::EttAnalysis;
use mesh11_core::routing::improvement::OpportunisticAnalysis;
use mesh11_core::triples::hidden::TripleAnalysis;
use mesh11_phy::{shared_success_table, BitRate, PerModel, Phy, SuccessTable};
use mesh11_sim::{ClientProbeTrace, SimConfig};
use mesh11_topo::{Campaign, CampaignSpec, NetworkSpec};
use mesh11_trace::{
    run_fold, ChunkConfig, ChunkStoreStats, ChunkedDataset, ChunkedDatasetBuilder, ClientSample,
    Dataset, DatasetIndex, DatasetView, NetworkId, NetworkMeta, ProbeSource,
};

use crate::fused::{self, CapMatrix, FusedOutputs, FusedRunner, SnrSigmas};

/// The §6 hearing threshold (10%) used by every cached triple analysis.
pub const TRIPLE_THRESHOLD: f64 = 0.10;

/// How many b/g networks the downlink client-probe pass covers.
pub const CLIENT_PROBE_NETWORKS: usize = 6;
/// Minimum AP count for a network to enter the client-probe pass.
pub const CLIENT_PROBE_MIN_APS: usize = 5;
/// Cap on the client-probe horizon (seconds), so paper-scale runs stay
/// bounded.
pub const CLIENT_PROBE_MAX_HORIZON_S: f64 = 14_400.0;

/// Wall-clock seconds of the two pre-analysis phases of a reproduction
/// run; see [`ReproContext::build_timed`].
#[derive(Debug, Clone, Copy)]
pub struct BuildTimings {
    /// Campaign generation (topology, populations, specs).
    pub generate_s: f64,
    /// Probe + client simulation across all networks.
    pub simulate_s: f64,
    /// Candidate AP pairs the simulate phase ran (across networks and
    /// radios) — the unit of the global pair scheduler's work list.
    pub pairs_simulated: usize,
    /// The downlink client-probe pass (the sharded per-client scheduler
    /// feeding `ext-client`), run eagerly in the simulate phase.
    pub client_probe_s: f64,
    /// Clients the client-probe pass simulated — the unit of its work
    /// list, giving `client_probe_s` a denominator.
    pub clients_simulated: usize,
    /// Analysis seconds the chunked build spends in its streaming
    /// consumer: the index build and kernel fold of every sealed part,
    /// plus the pass-B finish. Chunk encode and spill are store work and
    /// stay out. `None` for in-memory builds, whose analyses run lazily
    /// after the build.
    pub stream_analyze_s: Option<f64>,
}

/// Wall-clock phases of a batched multi-seed build; see
/// [`ReproContext::build_many_timed`]. Generation and simulation are fused
/// across seeds (that is the point of batching), so only their ensemble
/// totals are observable — per-seed work is reported as pair counts.
#[derive(Debug, Clone)]
pub struct MultiBuildTimings {
    /// Campaign generation across all seeds.
    pub generate_s: f64,
    /// The one fused simulate pass over every seed's pair work list.
    pub simulate_s: f64,
    /// The eager client-probe passes, summed over seeds.
    pub client_probe_s: f64,
    /// Pairs simulated across the whole ensemble.
    pub pairs_simulated: usize,
    /// Clients simulated across the whole ensemble.
    pub clients_simulated: usize,
    /// Pairs simulated per seed, in seed order.
    pub per_seed_pairs: Vec<usize>,
}

/// The cached downlink client-probe pass: one trace per covered network.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientProbePass {
    /// `(network, trace)` for the first [`CLIENT_PROBE_NETWORKS`] b/g
    /// networks with ≥ [`CLIENT_PROBE_MIN_APS`] APs, in campaign order.
    pub traces: Vec<(NetworkId, ClientProbeTrace)>,
    /// Clients simulated across all covered networks.
    pub clients_simulated: usize,
}

fn build_client_probe_pass(
    campaign: &Campaign,
    config: &SimConfig,
    table: &SuccessTable,
) -> ClientProbePass {
    let mut cfg = config.clone();
    cfg.client_horizon_s = cfg.client_horizon_s.min(CLIENT_PROBE_MAX_HORIZON_S);
    let specs: Vec<&NetworkSpec> = campaign
        .networks
        .iter()
        .filter(|n| n.has_bg() && n.size() >= CLIENT_PROBE_MIN_APS)
        .take(CLIENT_PROBE_NETWORKS)
        .collect();
    let traces = mesh11_sim::simulate_client_probes_batch(&specs, &cfg, table);
    let clients_simulated = traces.iter().map(|t| t.clients).sum();
    ClientProbePass {
        traces: specs.iter().map(|s| s.id).zip(traces).collect(),
        clients_simulated,
    }
}

/// Default ensemble multiplier for [`Scale::Metro`]: 10× the paper's
/// 110-network campaign (1 100 networks, 14 070 APs). `--metro-factor`
/// scales it up to the 10⁵-AP tier (factor 71) when wall clock allows.
pub const DEFAULT_METRO_FACTOR: usize = 10;

/// Networks simulated per streaming batch in chunked builds: large enough
/// to keep the pair scheduler busy, small enough that at most a handful of
/// network datasets are resident before they drain into the chunk store.
const METRO_BATCH_NETWORKS: usize = 8;

/// How big a reproduction run to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 12 networks, 1 h probes — seconds; for tests and smoke runs.
    Quick,
    /// The full 110-network ensemble with 4 h probes / 6 h clients —
    /// minutes; the default for `repro`.
    Standard,
    /// The paper's 24 h probes / 11 h clients over all 110 networks.
    Paper,
    /// The paper ensemble tiled `factor` times at quick horizons, streamed
    /// through the spill-able chunk store so memory stays bounded.
    Metro {
        /// Ensemble multiplier (110·factor networks, 1407·factor APs).
        factor: usize,
    },
}

impl Scale {
    /// Parses the CLI spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "quick" => Some(Scale::Quick),
            "standard" => Some(Scale::Standard),
            "paper" | "full" => Some(Scale::Paper),
            "metro" => Some(Scale::Metro {
                factor: DEFAULT_METRO_FACTOR,
            }),
            _ => None,
        }
    }

    /// The campaign spec this scale simulates.
    pub fn campaign_spec(self, seed: u64) -> CampaignSpec {
        match self {
            Scale::Quick => CampaignSpec::small(seed),
            Scale::Standard | Scale::Paper => CampaignSpec::paper(seed),
            Scale::Metro { factor } => CampaignSpec::metro(seed, factor),
        }
    }

    /// The simulation configuration this scale runs under (no faults).
    /// Metro keeps the quick horizons: its cost axis is ensemble width,
    /// not trace length.
    pub fn config(self) -> SimConfig {
        match self {
            Scale::Quick | Scale::Metro { .. } => SimConfig::quick(),
            Scale::Standard => SimConfig::standard(),
            Scale::Paper => SimConfig::paper(),
        }
    }

    /// The default data-store mode: metro streams through the chunk store,
    /// everything else stays fully resident.
    pub fn data_mode(self) -> DataMode {
        match self {
            Scale::Metro { .. } => DataMode::Chunked(ChunkConfig::default()),
            _ => DataMode::InMemory,
        }
    }

    /// The stable spelling recorded in `bench_timings.json` /
    /// `BENCH_repro.json` (`"quick"`, `"standard"`, `"paper"`,
    /// `"metro-<factor>"`).
    pub fn label(self) -> String {
        match self {
            Scale::Quick => "quick".into(),
            Scale::Standard => "standard".into(),
            Scale::Paper => "paper".into(),
            Scale::Metro { factor } => format!("metro-{factor}"),
        }
    }
}

/// How the simulated probe reports are stored.
#[derive(Debug, Clone, PartialEq)]
pub enum DataMode {
    /// One resident [`Dataset`] (the Quick/Standard/Paper default).
    InMemory,
    /// Streamed into the spill-able columnar chunk store.
    Chunked(ChunkConfig),
}

/// Where a context's probe reports actually live.
pub enum DataStore {
    /// Everything resident.
    InMemory(Dataset),
    /// Chunked, with cold chunks spilled to disk. Boxed: the chunk-store
    /// handle is much larger than the resident variant's `Dataset` header.
    Chunked(Box<ChunkedDataset>),
}

/// A materialized reproduction run: the dataset plus the heavy analyses
/// shared across figures, one cache cell each. A chunked build fills every
/// analysis cell from its streaming fused pass; an in-memory context
/// computes each one on first touch, with one fold over the whole view.
pub struct ReproContext {
    /// The simulated probe reports — resident or chunked.
    store: DataStore,
    /// The simulation configuration used.
    pub config: SimConfig,
    /// Campaign seed.
    pub seed: u64,
    /// The generated campaign, when this context was built by simulation
    /// (absent for contexts wrapping a loaded dataset). Extension
    /// experiments that need topology ground truth (e.g. client probing)
    /// use it; the paper figures never do.
    campaign: Option<Campaign>,
    client_probes: OnceLock<Option<ClientProbePass>>,
    index: OnceLock<DatasetIndex>,
    routing_bg: OnceLock<Vec<OpportunisticAnalysis>>,
    // One slot per (scope, phy): Figs 4.1–4.4 all key off the same tables.
    lookup_tables: [OnceLock<LookupTableSet>; 8],
    strategy_evals_bg: OnceLock<Vec<StrategyEval>>,
    triples_bg: OnceLock<TripleAnalysis>,
    ranges_bg: OnceLock<BTreeMap<(NetworkId, BitRate), usize>>,
    mobility: OnceLock<MobilityReport>,
    snr_sigmas: OnceLock<SnrSigmas>,
    curves: [OnceLock<SnrThroughputCurves>; 2],
    penalties: [OnceLock<ThroughputPenalty>; 8],
    asymmetry_bg: OnceLock<BTreeMap<BitRate, Vec<f64>>>,
    adapters_ext: OnceLock<Vec<AdaptationOutcome>>,
    sweep_ext: OnceLock<Vec<(f64, Option<f64>)>>,
    stability_bg: OnceLock<LinkStability>,
    diversity_ext: OnceLock<Vec<(usize, f64, f64, usize)>>,
    ett_bg: OnceLock<Vec<EttAnalysis>>,
    cap_ext: OnceLock<Option<CapMatrix>>,
}

pub(crate) fn lookup_slot(scope: Scope, phy: Phy) -> usize {
    let s = match scope {
        Scope::Global => 0,
        Scope::Network => 1,
        Scope::Ap => 2,
        Scope::Link => 3,
    };
    let p = match phy {
        Phy::Bg => 0,
        Phy::Ht => 1,
    };
    s * 2 + p
}

impl ReproContext {
    /// Generates and simulates a campaign.
    pub fn build(scale: Scale, seed: u64) -> Self {
        Self::build_timed(scale, seed).0
    }

    /// As [`ReproContext::build`], also reporting how long the generate and
    /// simulate phases took (wall-clock seconds).
    pub fn build_timed(scale: Scale, seed: u64) -> (Self, BuildTimings) {
        Self::build_timed_with_faults(scale, seed, mesh11_sim::FaultPlan::none())
    }

    /// As [`ReproContext::build_timed`], simulating under a fault plan
    /// (`repro --faults` and the fault-injected CI invariance run). Uses
    /// the scale's default data mode.
    pub fn build_timed_with_faults(
        scale: Scale,
        seed: u64,
        faults: mesh11_sim::FaultPlan,
    ) -> (Self, BuildTimings) {
        Self::build_timed_with_mode(scale, seed, faults, scale.data_mode())
    }

    /// The fully-general build: scale, faults, and an explicit data mode.
    /// `DataMode::Chunked` streams the simulation into the chunk store and
    /// folds every shared analysis over each sealed part on the way, so at
    /// no point is the whole probe table resident and the figures never
    /// walk the store again.
    pub fn build_timed_with_mode(
        scale: Scale,
        seed: u64,
        faults: mesh11_sim::FaultPlan,
        mode: DataMode,
    ) -> (Self, BuildTimings) {
        let spec = scale.campaign_spec(seed);
        let mut config = scale.config();
        config.faults = faults;
        let t0 = std::time::Instant::now();
        let campaign = spec.generate();
        let generate_s = t0.elapsed().as_secs_f64();
        let (this, simulate_s, pairs_simulated, stream_analyze_s) = match mode {
            DataMode::InMemory => {
                let t1 = std::time::Instant::now();
                // One success table serves the whole process: the shared
                // registry builds it on first use (that first build lands
                // in simulate-phase cost) and every later run — and every
                // other seed of a multi-seed campaign — reuses it.
                let table = shared_success_table(PerModel::default());
                let (dataset, stats) = config.run_campaign_counted_with_table(&campaign, table);
                let simulate_s = t1.elapsed().as_secs_f64();
                let store = DataStore::InMemory(dataset);
                let this = Self::assemble(store, config, seed, Some(campaign));
                (this, simulate_s, stats.pairs_simulated, None)
            }
            DataMode::Chunked(cfg) => Self::build_chunked(config, seed, campaign, cfg),
        };
        // Run the client-probe pass eagerly so its cost lands in the
        // simulate phase (it is simulation), not in whichever figure
        // happens to touch the cache first.
        let t2 = std::time::Instant::now();
        let clients_simulated = this.client_probes().map_or(0, |p| p.clients_simulated);
        let client_probe_s = t2.elapsed().as_secs_f64();
        (
            this,
            BuildTimings {
                generate_s,
                simulate_s,
                pairs_simulated,
                client_probe_s,
                clients_simulated,
                stream_analyze_s,
            },
        )
    }

    /// The chunked build: the simulator streams sealed parts through a
    /// bounded channel into a consumer thread that folds every pass-A
    /// kernel over each part *while later networks are still simulating*,
    /// then adds the part to the chunk store. After the channel drains,
    /// pass B scores the finished tables against the raw chunks, and every
    /// analysis cell is filled from the result.
    ///
    /// Parts arrive as consecutive network runs in id order — the
    /// network-aligned partition the fold contract requires — so the
    /// figures are byte-identical to the in-memory context's. Returns the
    /// context, the simulate wall, the pairs simulated and the analysis
    /// seconds spent in the consumer and in pass B.
    fn build_chunked(
        config: SimConfig,
        seed: u64,
        campaign: Campaign,
        cfg: ChunkConfig,
    ) -> (Self, f64, usize, Option<f64>) {
        // The consumer runs on a plain thread: it must make progress while
        // the producer occupies this one (a shared work-stealing scope
        // would deadlock at --threads 1). Thread-count overrides are
        // thread-local, so re-install the producer's budget explicitly.
        let threads = rayon::current_num_threads();
        let t1 = std::time::Instant::now();
        let table = shared_success_table(PerModel::default());
        let (tx, rx) = std::sync::mpsc::sync_channel::<Dataset>(2);
        let ((chunked, runner, fold_s), stats, simulate_s) = std::thread::scope(|s| {
            let consumer = s.spawn(move || {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("build analysis pool");
                pool.install(move || {
                    let mut builder = ChunkedDatasetBuilder::new(cfg);
                    let mut runner = FusedRunner::new();
                    let mut fold_s = 0.0f64;
                    let mut io_err: Option<std::io::Error> = None;
                    while let Ok(part) = rx.recv() {
                        let tb = std::time::Instant::now();
                        let ix = DatasetIndex::build(&part);
                        runner.fold_view(DatasetView::new(&part, &ix));
                        drop(ix);
                        fold_s += tb.elapsed().as_secs_f64();
                        if io_err.is_none() {
                            if let Err(e) = builder.add(part) {
                                io_err = Some(e);
                            }
                        }
                    }
                    if let Some(e) = io_err {
                        panic!("chunk store spill failed during simulation: {e}");
                    }
                    let chunked = builder
                        .finish()
                        .unwrap_or_else(|e| panic!("chunk store finish failed: {e}"));
                    (chunked, runner, fold_s)
                })
            });
            let stats =
                config.stream_campaign_with_table(&campaign, table, METRO_BATCH_NETWORKS, |part| {
                    tx.send(part).expect("analysis consumer hung up")
                });
            let simulate_s = t1.elapsed().as_secs_f64();
            drop(tx);
            (
                consumer.join().expect("analysis consumer panicked"),
                stats,
                simulate_s,
            )
        });
        // Finish the fused pass: pass-A finish plus pass B (penalties over
        // the raw chunks). This is the only analysis left outside the
        // simulate wall.
        let t2 = std::time::Instant::now();
        let fused = runner.finish(&ProbeSource::Chunked(&chunked));
        let finish_s = t2.elapsed().as_secs_f64();
        let store = DataStore::Chunked(Box::new(chunked));
        let mut this = Self::assemble(store, config, seed, Some(campaign));
        this.fill(fused);
        (
            this,
            simulate_s,
            stats.pairs_simulated,
            Some(fold_s + finish_s),
        )
    }

    /// Builds one context per seed `base_seed .. base_seed + n_seeds` by
    /// running all the campaigns as **one** flat batched work list through
    /// [`mesh11_sim::SimConfig::run_campaigns_counted_with_table`], so the
    /// pair scheduler's tail and all per-run setup amortize across the
    /// ensemble. Each returned context is byte-identical to
    /// [`ReproContext::build_timed_with_faults`] at its seed (the runner's
    /// batching tests pin this). In-memory only: multi-seed campaigns are
    /// run at quick/standard scales where the ensemble fits residently.
    pub fn build_many_timed(
        scale: Scale,
        base_seed: u64,
        n_seeds: usize,
        faults: mesh11_sim::FaultPlan,
    ) -> (Vec<Self>, MultiBuildTimings) {
        assert!(n_seeds >= 1, "need at least one seed");
        let mut config = scale.config();
        config.faults = faults;
        let t0 = std::time::Instant::now();
        let campaigns: Vec<Campaign> = (0..n_seeds)
            .map(|k| scale.campaign_spec(base_seed + k as u64).generate())
            .collect();
        let generate_s = t0.elapsed().as_secs_f64();
        let t1 = std::time::Instant::now();
        let table = shared_success_table(PerModel::default());
        let refs: Vec<&Campaign> = campaigns.iter().collect();
        let results = config.run_campaigns_counted_with_table(&refs, table);
        let simulate_s = t1.elapsed().as_secs_f64();
        let per_seed_pairs: Vec<usize> = results.iter().map(|(_, s)| s.pairs_simulated).collect();
        // One eager client-probe pass per seed, as in the single-seed build
        // (each pass's per-client scheduler is already parallel inside).
        let t2 = std::time::Instant::now();
        let mut contexts = Vec::with_capacity(n_seeds);
        let mut clients_simulated = 0;
        for (k, ((dataset, _), campaign)) in results.into_iter().zip(campaigns).enumerate() {
            let ctx = Self::assemble(
                DataStore::InMemory(dataset),
                config.clone(),
                base_seed + k as u64,
                Some(campaign),
            );
            clients_simulated += ctx.client_probes().map_or(0, |p| p.clients_simulated);
            contexts.push(ctx);
        }
        let client_probe_s = t2.elapsed().as_secs_f64();
        let timings = MultiBuildTimings {
            generate_s,
            simulate_s,
            client_probe_s,
            pairs_simulated: per_seed_pairs.iter().sum(),
            clients_simulated,
            per_seed_pairs,
        };
        (contexts, timings)
    }

    /// Wraps an existing dataset (e.g. loaded from disk).
    pub fn from_dataset(dataset: Dataset, config: SimConfig, seed: u64) -> Self {
        Self::assemble(DataStore::InMemory(dataset), config, seed, None)
    }

    fn assemble(
        store: DataStore,
        config: SimConfig,
        seed: u64,
        campaign: Option<Campaign>,
    ) -> Self {
        Self {
            store,
            config,
            seed,
            campaign,
            client_probes: OnceLock::new(),
            index: OnceLock::new(),
            routing_bg: OnceLock::new(),
            lookup_tables: Default::default(),
            strategy_evals_bg: OnceLock::new(),
            triples_bg: OnceLock::new(),
            ranges_bg: OnceLock::new(),
            mobility: OnceLock::new(),
            snr_sigmas: OnceLock::new(),
            curves: Default::default(),
            penalties: Default::default(),
            asymmetry_bg: OnceLock::new(),
            adapters_ext: OnceLock::new(),
            sweep_ext: OnceLock::new(),
            stability_bg: OnceLock::new(),
            diversity_ext: OnceLock::new(),
            ett_bg: OnceLock::new(),
            cap_ext: OnceLock::new(),
        }
    }

    /// Fills every analysis cell from a finished fused pass.
    fn fill(&mut self, fused: FusedOutputs) {
        let FusedOutputs {
            sigmas,
            tables,
            penalties,
            curves,
            strategy_bg,
            routing_bg,
            asymmetry_bg,
            triples_bg,
            ranges_bg,
            adapters_ext,
            sweep_ext,
            stability_bg,
            diversity_ext,
            ett_bg,
            cap_ext,
        } = fused;
        self.snr_sigmas = sigmas.into();
        self.lookup_tables = tables.map(OnceLock::from);
        self.penalties = penalties.map(OnceLock::from);
        self.curves = curves.map(OnceLock::from);
        self.strategy_evals_bg = strategy_bg.into();
        self.routing_bg = routing_bg.into();
        self.asymmetry_bg = asymmetry_bg.into();
        self.triples_bg = triples_bg.into();
        self.ranges_bg = ranges_bg.into();
        self.adapters_ext = adapters_ext.into();
        self.sweep_ext = sweep_ext.into();
        self.stability_bg = stability_bg.into();
        self.diversity_ext = diversity_ext.into();
        self.ett_bg = ett_bg.into();
        self.cap_ext = cap_ext.into();
    }

    /// The campaign this context simulated, when known.
    pub fn scale_campaign(&self) -> Option<&Campaign> {
        self.campaign.as_ref()
    }

    /// The resident dataset. Panics for chunked contexts, whose shared
    /// analyses are all filled by the build; consumers that only read
    /// metadata or client traces should use [`ReproContext::meta_dataset`].
    pub fn dataset(&self) -> &Dataset {
        match &self.store {
            DataStore::InMemory(ds) => ds,
            DataStore::Chunked(_) => {
                panic!("chunked context has no resident dataset; use meta_dataset()")
            }
        }
    }

    /// The dataset carrying network metadata, client traces, and horizons —
    /// the full dataset in memory mode, the probe-free shell in chunked
    /// mode. Never touches the chunk store.
    pub fn meta_dataset(&self) -> &Dataset {
        match &self.store {
            DataStore::InMemory(ds) => ds,
            DataStore::Chunked(c) => c.shell(),
        }
    }

    /// The chunk store, when this context is chunked.
    pub fn chunked(&self) -> Option<&ChunkedDataset> {
        match &self.store {
            DataStore::InMemory(_) => None,
            DataStore::Chunked(c) => Some(c),
        }
    }

    /// A snapshot of the chunk store's observability counters (decode,
    /// hit, eviction, pinned high-water mark, window builds). All zeros
    /// for fully resident contexts.
    pub fn chunk_stats(&self) -> ChunkStoreStats {
        self.chunked().map(|c| c.stats()).unwrap_or_default()
    }

    /// Network metadata, id order.
    pub fn networks(&self) -> &[NetworkMeta] {
        &self.meta_dataset().networks
    }

    /// Client trace samples (always resident; only probes chunk).
    pub fn clients(&self) -> &[ClientSample] {
        &self.meta_dataset().clients
    }

    /// Total probe reports across the run.
    pub fn n_probes(&self) -> usize {
        match &self.store {
            DataStore::InMemory(ds) => ds.probes.len(),
            DataStore::Chunked(c) => c.n_probes() as usize,
        }
    }

    /// Total APs across the ensemble.
    pub fn total_aps(&self) -> usize {
        self.meta_dataset().total_aps()
    }

    /// The probe horizon (seconds).
    pub fn probe_horizon_s(&self) -> f64 {
        self.meta_dataset().probe_horizon_s
    }

    /// The client horizon (seconds).
    pub fn client_horizon_s(&self) -> f64 {
        self.meta_dataset().client_horizon_s
    }

    /// The downlink client-probe pass — computed once (eagerly by
    /// [`ReproContext::build_timed_with_faults`], so simulation cost is
    /// attributed to the simulate phase) and shared by `ext-client` and
    /// anything else reading client traces. `None` for contexts wrapping a
    /// loaded dataset: client probing needs topology ground truth.
    pub fn client_probes(&self) -> Option<&ClientProbePass> {
        let table = self.success_table();
        self.client_probes
            .get_or_init(|| {
                self.campaign
                    .as_ref()
                    .map(|c| build_client_probe_pass(c, &self.config, table))
            })
            .as_ref()
    }

    /// The run-wide frame-success tabulation — the process-wide shared
    /// table (see [`mesh11_phy::shared_success_table`]), built once on
    /// first use and reused by every context and every seed.
    pub fn success_table(&self) -> &SuccessTable {
        shared_success_table(PerModel::default())
    }

    /// The dataset index — built once on first use and shared by every
    /// analysis below (and by figures reading the columnar views directly).
    /// Panics for chunked contexts: there is no monolithic probe table to
    /// index (each streamed part is indexed on its own).
    pub fn index(&self) -> &DatasetIndex {
        self.index
            .get_or_init(|| DatasetIndex::build(self.dataset()))
    }

    /// An indexed view of the dataset, pairing [`ReproContext::dataset`]
    /// with [`ReproContext::index`]. Panics for chunked contexts. Each
    /// shared analysis below is one `run_fold` of its [`fused`] kernel
    /// over this view, computed on first touch.
    pub fn view(&self) -> DatasetView<'_> {
        DatasetView::new(self.dataset(), self.index())
    }

    /// The §5 per-(network, rate) routing analyses over b/g networks with
    /// ≥5 APs — computed once, shared by Figs 5.1 and 5.3–5.5.
    pub fn routing_bg(&self) -> &[OpportunisticAnalysis] {
        self.routing_bg
            .get_or_init(|| run_fold(self.view(), &fused::routing()))
    }

    /// The §4 SNR→rate look-up tables for one (scope, phy) — built once
    /// and shared by Figs 4.1–4.4 (and anything else keying off them).
    pub fn lookup_tables(&self, scope: Scope, phy: Phy) -> &LookupTableSet {
        self.lookup_tables[lookup_slot(scope, phy)]
            .get_or_init(|| run_fold(self.view(), &fused::table(scope, phy)))
    }

    /// The §4.5 online-strategy evaluations over b/g — shared by Fig 4.6
    /// and Table 4.1.
    pub fn strategy_evals_bg(&self) -> &[StrategyEval] {
        self.strategy_evals_bg
            .get_or_init(|| run_fold(self.view(), &fused::strategy()))
    }

    /// The §6 hidden-triple analysis over b/g at the paper's 10%
    /// threshold — shared by Fig 6.1 and §6.3.
    pub fn triples_bg(&self) -> &TripleAnalysis {
        self.triples_bg
            .get_or_init(|| run_fold(self.view(), &fused::triples()))
    }

    /// The §6 per-(network, rate) interference ranges over b/g — shared by
    /// Fig 6.2 and §6.3.
    pub fn ranges_bg(&self) -> &BTreeMap<(NetworkId, BitRate), usize> {
        self.ranges_bg
            .get_or_init(|| run_fold(self.view(), &fused::ranges()))
    }

    /// The Fig 3.1 sigma populations (within-set, per-link, recent-k,
    /// per-network).
    pub fn snr_sigmas(&self) -> &SnrSigmas {
        self.snr_sigmas.get_or_init(|| {
            let [sets, links, recent, nets] = fused::sigmas().map(|k| run_fold(self.view(), &k));
            SnrSigmas {
                sets,
                links,
                recent,
                nets,
            }
        })
    }

    /// The Fig 4.5 SNR↔throughput curves for one PHY.
    pub fn snr_curves(&self, phy: Phy) -> &SnrThroughputCurves {
        let slot = match phy {
            Phy::Bg => 0,
            Phy::Ht => 1,
        };
        self.curves[slot].get_or_init(|| run_fold(self.view(), &fused::curves(phy)))
    }

    /// The Fig 4.4 penalty of one (scope, phy) table against the dataset.
    pub fn penalty(&self, scope: Scope, phy: Phy) -> &ThroughputPenalty {
        self.penalties[lookup_slot(scope, phy)].get_or_init(|| {
            ThroughputPenalty::evaluate(self.view(), self.lookup_tables(scope, phy))
        })
    }

    /// The Fig 5.2 asymmetry pools per rate (b/g).
    pub fn asymmetry_bg(&self) -> &BTreeMap<BitRate, Vec<f64>> {
        self.asymmetry_bg
            .get_or_init(|| run_fold(self.view(), &fused::asymmetry()))
    }

    /// The `ext-adapt` replay outcomes.
    pub fn adapters_ext(&self) -> &[AdaptationOutcome] {
        self.adapters_ext
            .get_or_init(|| run_fold(self.view(), &fused::adapters()))
    }

    /// The `ext-sweep` threshold-sweep rows.
    pub fn sweep_ext(&self) -> &[(f64, Option<f64>)] {
        self.sweep_ext
            .get_or_init(|| run_fold(self.view(), &fused::sweep()))
    }

    /// The `ext-stability` churn/drift report (b/g).
    pub fn stability_bg(&self) -> &LinkStability {
        self.stability_bg
            .get_or_init(|| run_fold(self.view(), &fused::stability()))
    }

    /// The `ext-diversity` rows.
    pub fn diversity_ext(&self) -> &[(usize, f64, f64, usize)] {
        self.diversity_ext
            .get_or_init(|| run_fold(self.view(), &fused::diversity()))
    }

    /// The `ext-ett` analyses (b/g, ≥5 APs).
    pub fn ett_bg(&self) -> &[EttAnalysis] {
        self.ett_bg
            .get_or_init(|| run_fold(self.view(), &fused::ett()))
    }

    /// The `ext-cap` delivery matrix: the largest ≥5-AP b/g network at
    /// 1 Mbit/s. `None` when no network qualifies.
    pub fn cap_ext(&self) -> Option<&CapMatrix> {
        self.cap_ext
            .get_or_init(|| run_fold(self.view(), &fused::cap()))
            .as_ref()
    }

    /// The §7 client mobility report — shared by Figs 7.1–7.5. Client
    /// traces are always resident, so this works in either mode.
    pub fn mobility(&self) -> &MobilityReport {
        self.mobility
            .get_or_init(|| MobilityReport::build(self.meta_dataset()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("standard"), Some(Scale::Standard));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("full"), Some(Scale::Paper));
        assert_eq!(
            Scale::parse("metro"),
            Some(Scale::Metro {
                factor: DEFAULT_METRO_FACTOR
            })
        );
        assert_eq!(Scale::parse("bogus"), None);
    }

    #[test]
    fn metro_defaults_to_chunked_quick_horizons() {
        let m = Scale::Metro { factor: 2 };
        assert_eq!(m.config(), SimConfig::quick());
        assert!(matches!(m.data_mode(), DataMode::Chunked(_)));
        assert_eq!(m.campaign_spec(1).len(), 220);
        assert_eq!(Scale::Quick.data_mode(), DataMode::InMemory);
    }

    #[test]
    fn chunked_context_matches_in_memory_counts() {
        let (mem, _) = ReproContext::build_timed(Scale::Quick, 11);
        let (chk, timings) = ReproContext::build_timed_with_mode(
            Scale::Quick,
            11,
            mesh11_sim::FaultPlan::none(),
            DataMode::Chunked(ChunkConfig::tiny()),
        );
        assert!(timings.pairs_simulated > 0);
        assert_eq!(chk.n_probes(), mem.n_probes());
        assert_eq!(chk.networks(), mem.networks());
        assert_eq!(chk.clients(), mem.clients());
        assert_eq!(chk.total_aps(), mem.total_aps());
        let c = chk.chunked().expect("chunked store");
        assert!(c.spilled_bytes() > 0, "tiny budget must force spilling");
        assert!(mem.chunked().is_none());
        // The chunked kernels agree with the resident ones.
        assert_eq!(chk.routing_bg().len(), mem.routing_bg().len());
        assert_eq!(
            chk.triples_bg().per_network.len(),
            mem.triples_bg().per_network.len()
        );
    }

    #[test]
    fn stream_analyze_s_is_reported_for_chunked_builds_only() {
        let (_, mem) = ReproContext::build_timed(Scale::Quick, 5);
        assert_eq!(mem.stream_analyze_s, None);
        let (_, chk) = ReproContext::build_timed_with_mode(
            Scale::Quick,
            5,
            mesh11_sim::FaultPlan::none(),
            DataMode::Chunked(ChunkConfig::tiny()),
        );
        assert!(chk.stream_analyze_s.is_some_and(|s| s > 0.0));
    }

    #[test]
    fn caches_are_shared_under_concurrency() {
        use rayon::prelude::*;
        let ctx = ReproContext::build(Scale::Quick, 3);
        // Hammer every cached accessor from parallel workers; each must
        // resolve to one shared instance (computed exactly once).
        let addrs: Vec<[usize; 4]> = (0..16u32)
            .collect::<Vec<_>>()
            .par_iter()
            .map(|_| {
                [
                    ctx.lookup_tables(Scope::Global, Phy::Bg) as *const _ as usize,
                    ctx.triples_bg() as *const _ as usize,
                    ctx.ranges_bg() as *const _ as usize,
                    ctx.mobility() as *const _ as usize,
                ]
            })
            .collect();
        for pair in addrs.windows(2) {
            assert_eq!(pair[0], pair[1], "every caller must see the same cache");
        }
        assert_eq!(
            ctx.strategy_evals_bg().as_ptr(),
            ctx.strategy_evals_bg().as_ptr()
        );
    }

    #[test]
    fn multi_seed_build_matches_single_builds() {
        let (ctxs, t) =
            ReproContext::build_many_timed(Scale::Quick, 42, 2, mesh11_sim::FaultPlan::none());
        assert_eq!(ctxs.len(), 2);
        assert_eq!(t.per_seed_pairs.len(), 2);
        assert_eq!(t.pairs_simulated, t.per_seed_pairs.iter().sum::<usize>());
        for (k, ctx) in ctxs.iter().enumerate() {
            let seed = 42 + k as u64;
            let (solo, st) = ReproContext::build_timed(Scale::Quick, seed);
            assert_eq!(ctx.seed, seed);
            assert_eq!(ctx.dataset(), solo.dataset(), "seed {seed}");
            assert_eq!(t.per_seed_pairs[k], st.pairs_simulated);
            assert_eq!(ctx.client_probes(), solo.client_probes(), "seed {seed}");
        }
    }

    #[test]
    fn quick_context_builds() {
        let ctx = ReproContext::build(Scale::Quick, 1);
        assert_eq!(ctx.networks().len(), 12);
        assert!(ctx.n_probes() > 0);
        assert!(!ctx.clients().is_empty());
        // Routing bundle is lazy and cached.
        let a = ctx.routing_bg().len();
        let b = ctx.routing_bg().len();
        assert_eq!(a, b);
        assert!(a > 0, "quick campaign has ≥5-AP b/g networks");
    }
}
