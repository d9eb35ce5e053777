//! Reproduction-run setup: campaign, simulation, shared heavy analyses.

use std::borrow::Borrow;
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
use mesh11_trace::codec::Part;
use mesh11_trace::snrstats::SigmaKind;
use mesh11_trace::{
    ChunkConfig, ChunkStoreStats, ChunkedDatasetBuilder, ClientSample, Dataset, DatasetIndex,
    DatasetView, LoadError, NetworkId, NetworkMeta, ProbeSource,
};

use crate::fused::{CapMatrix, FusedOutputs, FusedRunner, Kernel};

/// The §6 hearing threshold (10%) used by every cached triple analysis.
pub const TRIPLE_THRESHOLD: f64 = 0.10;

/// How many b/g networks the downlink client-probe pass covers.
pub const CLIENT_PROBE_NETWORKS: usize = 6;
/// Minimum AP count for a network to enter the client-probe pass.
pub const CLIENT_PROBE_MIN_APS: usize = 5;
/// Cap on the client-probe horizon (seconds), so paper-scale runs stay
/// bounded.
pub const CLIENT_PROBE_MAX_HORIZON_S: f64 = 14_400.0;

/// Wall-clock seconds of a context build: generation, simulation and the
/// fused analysis pass; see [`ReproContext::build_timed_with_kernels`].
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
    /// Seconds the build spent filling its analyses. An in-memory build
    /// folds after simulating: the index build, the fused fold and pass
    /// B. A chunked build folds in its streaming consumer: the index
    /// build and fold of every sealed part, plus the pass-B finish; chunk
    /// encode and spill are store work and stay out.
    pub analyze_s: f64,
    /// Seconds the chunked build's simulator spent blocked handing parts
    /// to the fold: waiting for it to catch up to the allowed lead, or,
    /// when the two must share cores, for each part's fold. `None` for
    /// in-memory builds.
    pub stream_send_wait_s: Option<f64>,
    /// Seconds the chunked build's fold consumer spent blocked in `recv`,
    /// idle until the simulator sealed its next part. `None` for
    /// in-memory builds.
    pub stream_recv_wait_s: Option<f64>,
}

/// What a chunked build's streaming pipeline measured: its analysis
/// seconds and how long each side of the channel waited on the other.
struct StreamTimings {
    analyze_s: f64,
    send_wait_s: f64,
    recv_wait_s: f64,
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
    /// Seconds each seed's context spent filling its analyses, in seed
    /// order.
    pub per_seed_analyze_s: Vec<f64>,
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

/// Parts the simulator of a chunked build may run ahead of the fold when
/// each side has cores of its own: sixteen batches. Network sizes are
/// skewed (at metro-2 the largest network has ~118k probe sets, ~60× the
/// mean), and while the fold works through one large network the
/// simulator seals a dozen batches of small ones. Two batches blocked it
/// there for 1.2–1.4 s of a 4.3 s simulate wall; sixteen leave it 0.00 s.
/// At ~1.8k probe sets per mean part this is a few tens of MB.
const STREAM_AHEAD_PARTS: usize = 16 * METRO_BATCH_NETWORKS;

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
    /// Streamed from parts that were folded and dropped (a chunked build,
    /// or a file read in parts): only the shell (networks, horizons,
    /// clients) and the probe count stay, plus the chunk store's summary
    /// when there was one.
    Streamed {
        /// The probe-free shell.
        shell: Dataset,
        /// Probe sets across the parts.
        n_probes: usize,
        /// What a chunked build kept of its store.
        chunks: Option<StoreSummary>,
    },
}

/// What a chunked build keeps of its chunk store once pass B has read it.
/// The store itself, and its spill file, are dropped before any figure is
/// built.
#[derive(Debug, Clone, Copy)]
pub struct StoreSummary {
    /// The store's final counters.
    pub stats: ChunkStoreStats,
    /// Bytes written to the spill file.
    pub spilled_bytes: u64,
    /// The analysis windows the store was cut into.
    pub n_windows: usize,
}

/// A materialized reproduction run: the dataset plus the heavy analyses
/// shared across figures, filled by one [`FusedRunner`] pass over the
/// kernels the build was asked for. An accessor returns its kernel's
/// value and panics when the build did not request that kernel.
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
    mobility: OnceLock<MobilityReport>,
    /// The requested kernels' outputs.
    analyses: FusedOutputs,
}

impl ReproContext {
    /// Generates and simulates a campaign in the scale's default data
    /// mode, and folds every kernel.
    pub fn build(scale: Scale, seed: u64) -> Self {
        let faults = mesh11_sim::FaultPlan::none();
        Self::build_timed_with_mode(scale, seed, faults, scale.data_mode()).0
    }

    /// As [`ReproContext::build_timed_with_kernels`], folding every
    /// kernel; also reports how long each phase took (wall-clock seconds).
    pub fn build_timed_with_mode(
        scale: Scale,
        seed: u64,
        faults: mesh11_sim::FaultPlan,
        mode: DataMode,
    ) -> (Self, BuildTimings) {
        Self::build_timed_with_kernels(scale, seed, faults, mode, &Kernel::all())
    }

    /// The fully-general build: scale, faults, an explicit data mode, and
    /// the kernels to fold (`figures::kernels` of the figures to come).
    /// `DataMode::Chunked` streams the simulation into the chunk store and
    /// folds the kernels over each sealed part on the way, so at no point
    /// is the whole probe table resident and the figures never walk the
    /// store again. `DataMode::InMemory` folds them over the whole view
    /// once the simulation is done.
    pub fn build_timed_with_kernels(
        scale: Scale,
        seed: u64,
        faults: mesh11_sim::FaultPlan,
        mode: DataMode,
        kernels: &[Kernel],
    ) -> (Self, BuildTimings) {
        let spec = scale.campaign_spec(seed);
        let mut config = scale.config();
        config.faults = faults;
        let t0 = std::time::Instant::now();
        let campaign = spec.generate();
        let generate_s = t0.elapsed().as_secs_f64();
        let (mut this, simulate_s, pairs_simulated, stream) = match mode {
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
            DataMode::Chunked(cfg) => Self::build_chunked(config, seed, campaign, cfg, kernels),
        };
        // Run the client-probe pass eagerly so its cost lands in the
        // simulate phase (it is simulation), not in whichever figure
        // happens to touch the cache first.
        let t2 = std::time::Instant::now();
        let clients_simulated = this.client_probes().map_or(0, |p| p.clients_simulated);
        let client_probe_s = t2.elapsed().as_secs_f64();
        let analyze_s = match &stream {
            Some(t) => t.analyze_s,
            None => this.analyze(kernels),
        };
        (
            this,
            BuildTimings {
                generate_s,
                simulate_s,
                pairs_simulated,
                client_probe_s,
                clients_simulated,
                analyze_s,
                stream_send_wait_s: stream.as_ref().map(|t| t.send_wait_s),
                stream_recv_wait_s: stream.as_ref().map(|t| t.recv_wait_s),
            },
        )
    }

    /// The chunked build: the simulator streams sealed parts through a
    /// channel into a consumer thread that folds the requested pass-A
    /// kernels over each part, then adds the part to the chunk store.
    /// After the channel drains, the consumer runs pass B, replaying the
    /// store one network at a time against the finished tables, and then
    /// drops the store: the context keeps the shell, the probe count and
    /// a [`StoreSummary`].
    ///
    /// Pass B runs in the consumer, inside its pool, because that holds
    /// the peak down: on metro-2 at one thread, peak RSS was 164 MB this
    /// way against 173 MB with pass B on the calling thread (medians of
    /// 6 runs on a 2-core VM).
    ///
    /// When the simulator's and the fold's pools fit the machine's cores
    /// side by side, the simulator runs up to [`STREAM_AHEAD_PARTS`] parts
    /// ahead, so the fold works *while later networks are still
    /// simulating*. When they do not, overlap would only make each side
    /// slow the other, and the fold would lose its parallel speed-up; the
    /// simulator then waits for each part to be folded, and the two sides
    /// alternate, each with every core.
    ///
    /// Parts arrive as consecutive network runs in id order — the
    /// network-aligned partition the fold contract requires — so the
    /// figures are byte-identical to the in-memory context's. Returns the
    /// context, the simulate wall, the pairs simulated and the pipeline's
    /// timings: analysis seconds in the consumer (pass A and pass B), and
    /// the seconds each side spent waiting for the other.
    fn build_chunked(
        config: SimConfig,
        seed: u64,
        campaign: Campaign,
        cfg: ChunkConfig,
        kernels: &[Kernel],
    ) -> (Self, f64, usize, Option<StreamTimings>) {
        // The consumer runs on a plain thread: it must make progress while
        // the producer occupies this one (a shared work-stealing scope
        // would deadlock at --threads 1). Thread-count overrides are
        // thread-local, so re-install the producer's budget explicitly.
        let threads = rayon::current_num_threads();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let ahead = if 2 * threads <= cores {
            STREAM_AHEAD_PARTS
        } else {
            0
        };
        let t1 = std::time::Instant::now();
        let table = shared_success_table(PerModel::default());
        // Parts go one way; one acknowledgement per folded part comes back,
        // and the simulator blocks while more than `ahead` are unfolded.
        let (tx, rx) = std::sync::mpsc::channel::<Dataset>();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let ((store, analyses, fold_s, recv_wait_s), stats, simulate_s, send_wait_s) =
            std::thread::scope(|s| {
                // Owned by this closure, so a panicking simulator drops it
                // while unwinding and the consumer's `recv` ends; otherwise
                // the scope would wait on the consumer forever.
                let tx = tx;
                let consumer = s.spawn(move || {
                    let pool = rayon::ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .build()
                        .expect("build analysis pool");
                    pool.install(move || {
                        let mut builder = ChunkedDatasetBuilder::new(cfg);
                        let mut runner = FusedRunner::for_kernels(kernels);
                        let mut fold_s = 0.0f64;
                        let mut recv_wait_s = 0.0f64;
                        let mut io_err: Option<std::io::Error> = None;
                        loop {
                            let tw = std::time::Instant::now();
                            let next = rx.recv();
                            recv_wait_s += tw.elapsed().as_secs_f64();
                            let Ok(part) = next else { break };
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
                            // Fails only once the producer is gone, and
                            // then nobody is waiting for the acknowledgement.
                            let _ = done_tx.send(());
                        }
                        if let Some(e) = io_err {
                            panic!("chunk store add failed during simulation: {e}");
                        }
                        let chunked = builder
                            .finish()
                            .unwrap_or_else(|e| panic!("chunk store finish failed: {e}"));
                        let tb = std::time::Instant::now();
                        let analyses = runner.finish(&ProbeSource::Chunked(&chunked));
                        fold_s += tb.elapsed().as_secs_f64();
                        let store = DataStore::Streamed {
                            n_probes: chunked.n_probes() as usize,
                            chunks: Some(StoreSummary {
                                stats: chunked.stats(),
                                spilled_bytes: chunked.spilled_bytes(),
                                n_windows: chunked.n_windows(),
                            }),
                            shell: chunked.into_shell(),
                        };
                        (store, analyses, fold_s, recv_wait_s)
                    })
                });
                let mut send_wait_s = 0.0f64;
                let mut unfolded = 0usize;
                let stats = config.stream_campaign_with_table(
                    &campaign,
                    table,
                    METRO_BATCH_NETWORKS,
                    |part| {
                        tx.send(part).expect("analysis consumer hung up");
                        unfolded += 1;
                        let tw = std::time::Instant::now();
                        while unfolded > ahead {
                            done_rx.recv().expect("analysis consumer hung up");
                            unfolded -= 1;
                        }
                        send_wait_s += tw.elapsed().as_secs_f64();
                    },
                );
                let simulate_s = t1.elapsed().as_secs_f64();
                drop(tx);
                (
                    consumer.join().expect("analysis consumer panicked"),
                    stats,
                    simulate_s,
                    send_wait_s,
                )
            });
        let mut this = Self::assemble(store, config, seed, Some(campaign));
        this.analyses = analyses;
        let timings = StreamTimings {
            analyze_s: fold_s,
            send_wait_s,
            recv_wait_s,
        };
        (this, simulate_s, stats.pairs_simulated, Some(timings))
    }

    /// Builds one context per seed `base_seed .. base_seed + n_seeds` by
    /// running all the campaigns as **one** flat batched work list through
    /// [`mesh11_sim::SimConfig::run_campaigns_counted_with_table`], so the
    /// pair scheduler's tail and all per-run setup amortize across the
    /// ensemble. Each returned context is byte-identical to
    /// [`ReproContext::build_timed_with_mode`] at its seed (the runner's
    /// batching tests pin this), and each folds `kernels` over its own
    /// view. In-memory only: multi-seed campaigns are run at
    /// quick/standard scales where the ensemble fits residently.
    pub fn build_many_timed(
        scale: Scale,
        base_seed: u64,
        n_seeds: usize,
        faults: mesh11_sim::FaultPlan,
        kernels: &[Kernel],
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
        // (each pass's per-client scheduler is already parallel inside),
        // then each seed's fused pass.
        let mut contexts = Vec::with_capacity(n_seeds);
        let mut clients_simulated = 0;
        let mut client_probe_s = 0.0;
        let mut per_seed_analyze_s = Vec::with_capacity(n_seeds);
        for (k, ((dataset, _), campaign)) in results.into_iter().zip(campaigns).enumerate() {
            let mut ctx = Self::assemble(
                DataStore::InMemory(dataset),
                config.clone(),
                base_seed + k as u64,
                Some(campaign),
            );
            let t2 = std::time::Instant::now();
            clients_simulated += ctx.client_probes().map_or(0, |p| p.clients_simulated);
            client_probe_s += t2.elapsed().as_secs_f64();
            per_seed_analyze_s.push(ctx.analyze(kernels));
            contexts.push(ctx);
        }
        let timings = MultiBuildTimings {
            generate_s,
            simulate_s,
            client_probe_s,
            pairs_simulated: per_seed_pairs.iter().sum(),
            clients_simulated,
            per_seed_pairs,
            per_seed_analyze_s,
        };
        (contexts, timings)
    }

    /// Wraps an existing dataset (e.g. loaded from disk) and folds every
    /// kernel over it.
    pub fn from_dataset(dataset: Dataset, config: SimConfig, seed: u64) -> Self {
        Self::from_dataset_with(dataset, config, seed, &Kernel::all())
    }

    /// Wraps an existing dataset and folds `kernels` over it.
    pub fn from_dataset_with(
        dataset: Dataset,
        config: SimConfig,
        seed: u64,
        kernels: &[Kernel],
    ) -> Self {
        let mut this = Self::assemble(DataStore::InMemory(dataset), config, seed, None);
        this.analyze(kernels);
        this
    }

    /// Folds `kernels` over a dataset delivered as parts, each dropped
    /// once folded, so the context never holds the whole probe table; it
    /// keeps only `shell`, as a chunked context does. `parts` yields the
    /// parts in network order, each of whole consecutive networks (as a
    /// [`PartReader`] does), and is walked again for pass B when a penalty
    /// is requested. The shell and every part are checked with
    /// [`Dataset::check_part`] before anything is folded, so an invalid
    /// dataset is refused with its first violations, probe sets named by
    /// their position in the whole. The figures are byte-identical to
    /// [`ReproContext::from_dataset_with`] over the concatenated parts.
    ///
    /// [`PartReader`]: mesh11_trace::codec::PartReader
    pub fn from_parts<I, P>(
        shell: Dataset,
        config: SimConfig,
        seed: u64,
        kernels: &[Kernel],
        parts: impl Fn() -> I,
    ) -> Result<Self, LoadError>
    where
        I: Iterator<Item = std::io::Result<P>>,
        P: Borrow<Part>,
    {
        shell.check()?;
        let fold = !kernels.is_empty();
        let mut runner = FusedRunner::for_kernels(kernels);
        let mut n_probes = 0;
        for part in parts() {
            let part = part?;
            let Part {
                dataset,
                first_probe,
            } = part.borrow();
            // The index build is one sequential pass, so the check runs
            // beside it; nothing is folded before both are done.
            let ix = std::thread::scope(|s| {
                let check = s.spawn(|| dataset.check_part(*first_probe));
                let ix = fold.then(|| DatasetIndex::build(dataset));
                check.join().expect("dataset check panicked").map(|()| ix)
            })?;
            n_probes += dataset.probes.len();
            if let Some(ix) = ix {
                runner.fold_view(DatasetView::new(dataset, &ix));
            }
        }
        let mut pass_b = runner.finish_pass_a();
        if pass_b.needs_parts() {
            for part in parts() {
                let part = part?;
                let ds = &part.borrow().dataset;
                let ix = DatasetIndex::build(ds);
                pass_b.fold_view(DatasetView::new(ds, &ix));
            }
        }
        let store = DataStore::Streamed {
            shell,
            n_probes,
            chunks: None,
        };
        let mut this = Self::assemble(store, config, seed, None);
        this.analyses = pass_b.finish();
        Ok(this)
    }

    /// Fills a resident context's analyses: one fused pass over its whole
    /// view, which is one part. No kernel, no index. Returns the seconds
    /// taken.
    fn analyze(&mut self, kernels: &[Kernel]) -> f64 {
        let t = std::time::Instant::now();
        if !kernels.is_empty() {
            let view = self.view();
            let mut runner = FusedRunner::for_kernels(kernels);
            runner.fold_view(view);
            self.analyses = runner.finish(&ProbeSource::Whole(view));
        }
        t.elapsed().as_secs_f64()
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
            mobility: OnceLock::new(),
            analyses: FusedOutputs::default(),
        }
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
            DataStore::Streamed { .. } => {
                panic!("streamed context has no resident dataset; use meta_dataset()")
            }
        }
    }

    /// The dataset carrying network metadata, client traces, and horizons —
    /// the full dataset in memory mode, the probe-free shell in chunked
    /// and streamed modes.
    pub fn meta_dataset(&self) -> &Dataset {
        match &self.store {
            DataStore::InMemory(ds) | DataStore::Streamed { shell: ds, .. } => ds,
        }
    }

    /// What the chunked build kept of its store, when this context is
    /// chunked.
    pub fn store_summary(&self) -> Option<&StoreSummary> {
        match &self.store {
            DataStore::Streamed { chunks, .. } => chunks.as_ref(),
            DataStore::InMemory(_) => None,
        }
    }

    /// The chunk store's final observability counters (decode, hit,
    /// eviction, pinned high-water mark, window builds). All zeros for
    /// contexts that had no store.
    pub fn chunk_stats(&self) -> ChunkStoreStats {
        self.store_summary().map(|c| c.stats).unwrap_or_default()
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
            DataStore::Streamed { n_probes, .. } => *n_probes,
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
    /// [`ReproContext::build_timed_with_kernels`], so simulation cost is
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

    /// The dataset index — built once on first use, by the fused pass of a
    /// build that folds any kernel, and shared by anything reading the
    /// columnar views directly. Panics for chunked and streamed contexts:
    /// there is no monolithic probe table to index (each part is indexed
    /// on its own).
    pub fn index(&self) -> &DatasetIndex {
        self.index
            .get_or_init(|| DatasetIndex::build(self.dataset()))
    }

    /// An indexed view of the dataset, pairing [`ReproContext::dataset`]
    /// with [`ReproContext::index`]. Panics for chunked and streamed
    /// contexts.
    pub fn view(&self) -> DatasetView<'_> {
        DatasetView::new(self.dataset(), self.index())
    }

    /// The §5 per-(network, rate) routing analyses over b/g networks with
    /// ≥5 APs — shared by Figs 5.1 and 5.3–5.5.
    pub fn routing_bg(&self) -> &[OpportunisticAnalysis] {
        self.analyses
            .get::<Vec<OpportunisticAnalysis>>(Kernel::Routing)
    }

    /// The §4 SNR→rate look-up tables for one (scope, phy) — shared by
    /// Figs 4.1–4.3 and scored by the Fig 4.4 penalties.
    pub fn lookup_tables(&self, scope: Scope, phy: Phy) -> &LookupTableSet {
        self.analyses.get(Kernel::Table(scope, phy))
    }

    /// The §4.5 online-strategy evaluations over b/g — shared by Fig 4.6
    /// and Table 4.1.
    pub fn strategy_evals_bg(&self) -> &[StrategyEval] {
        self.analyses.get::<Vec<StrategyEval>>(Kernel::Strategy)
    }

    /// The §6 hidden-triple analysis over b/g at the paper's 10%
    /// threshold — shared by Fig 6.1 and §6.3.
    pub fn triples_bg(&self) -> &TripleAnalysis {
        self.analyses.get(Kernel::Triples)
    }

    /// The §6 per-(network, rate) interference ranges over b/g — shared by
    /// Fig 6.2 and §6.3.
    pub fn ranges_bg(&self) -> &BTreeMap<(NetworkId, BitRate), usize> {
        self.analyses.get(Kernel::Ranges)
    }

    /// One Fig 3.1 sigma population (within-set, per-link, recent-3,
    /// per-network).
    pub fn snr_sigmas(&self, kind: SigmaKind) -> &[f64] {
        self.analyses.get::<Vec<f64>>(Kernel::Sigma(kind))
    }

    /// The Fig 4.5 SNR↔throughput curves for one PHY.
    pub fn snr_curves(&self, phy: Phy) -> &SnrThroughputCurves {
        self.analyses.get(Kernel::Curves(phy))
    }

    /// The Fig 4.4 penalty of one (scope, phy) table against the dataset.
    pub fn penalty(&self, scope: Scope, phy: Phy) -> &ThroughputPenalty {
        self.analyses.get(Kernel::Penalty(scope, phy))
    }

    /// The Fig 5.2 asymmetry pools per rate (b/g).
    pub fn asymmetry_bg(&self) -> &BTreeMap<BitRate, Vec<f64>> {
        self.analyses.get(Kernel::Asymmetry)
    }

    /// The `ext-adapt` replay outcomes.
    pub fn adapters_ext(&self) -> &[AdaptationOutcome] {
        self.analyses
            .get::<Vec<AdaptationOutcome>>(Kernel::Adapters)
    }

    /// The `ext-sweep` threshold-sweep rows.
    pub fn sweep_ext(&self) -> &[(f64, Option<f64>)] {
        self.analyses.get::<Vec<(f64, Option<f64>)>>(Kernel::Sweep)
    }

    /// The `ext-stability` churn/drift report (b/g).
    pub fn stability_bg(&self) -> &LinkStability {
        self.analyses.get(Kernel::Stability)
    }

    /// The `ext-diversity` rows.
    pub fn diversity_ext(&self) -> &[(usize, f64, f64, usize)] {
        self.analyses
            .get::<Vec<(usize, f64, f64, usize)>>(Kernel::Diversity)
    }

    /// The `ext-ett` analyses (b/g, ≥5 APs).
    pub fn ett_bg(&self) -> &[EttAnalysis] {
        self.analyses.get::<Vec<EttAnalysis>>(Kernel::Ett)
    }

    /// The `ext-cap` delivery matrix: the largest ≥5-AP b/g network at
    /// 1 Mbit/s. `None` when no network qualifies.
    pub fn cap_ext(&self) -> Option<&CapMatrix> {
        self.analyses.get::<Option<CapMatrix>>(Kernel::Cap).as_ref()
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
        let mem = ReproContext::build(Scale::Quick, 11);
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
        let c = chk.store_summary().expect("chunked store");
        assert!(c.spilled_bytes > 0, "tiny budget must force spilling");
        assert!(mem.store_summary().is_none());
        // The chunked kernels agree with the resident ones.
        assert_eq!(chk.routing_bg().len(), mem.routing_bg().len());
        assert_eq!(
            chk.triples_bg().per_network.len(),
            mem.triples_bg().per_network.len()
        );
    }

    /// Every build reports the seconds it spent filling its analyses: an
    /// in-memory build folds after simulating, a chunked one while it
    /// simulates, and only the latter reports its stream's waits. A build
    /// asked for no kernel folds nothing and builds no index.
    #[test]
    fn build_timings_carry_the_fold() {
        let build = |kernels: &[Kernel], mode| {
            ReproContext::build_timed_with_kernels(
                Scale::Quick,
                5,
                mesh11_sim::FaultPlan::none(),
                mode,
                kernels,
            )
        };
        let (mem, mem_t) = build(&Kernel::all(), DataMode::InMemory);
        let (bare, bare_t) = build(&[], DataMode::InMemory);
        assert_eq!(mem_t.stream_send_wait_s, None);
        assert_eq!(mem_t.stream_recv_wait_s, None);
        assert!(mem.index.get().is_some() && bare.index.get().is_none());
        assert!(
            bare_t.analyze_s < mem_t.analyze_s,
            "no fold {} s vs every kernel {} s",
            bare_t.analyze_s,
            mem_t.analyze_s
        );

        let (_, chk) = build(&Kernel::all(), DataMode::Chunked(ChunkConfig::tiny()));
        assert!(chk.analyze_s > 0.0);
        // Either side's wait happens inside the simulate wall.
        for wait in [chk.stream_send_wait_s, chk.stream_recv_wait_s] {
            assert!(
                wait.is_some_and(|w| (0.0..=chk.simulate_s).contains(&w)),
                "wait {wait:?} outside 0..={}",
                chk.simulate_s
            );
        }
    }

    #[test]
    #[should_panic(expected = "not requested")]
    fn an_unrequested_kernel_has_no_value() {
        ReproContext::from_dataset_with(Dataset::default(), SimConfig::quick(), 0, &[])
            .routing_bg();
    }

    #[test]
    fn multi_seed_build_matches_single_builds() {
        let (ctxs, t) = ReproContext::build_many_timed(
            Scale::Quick,
            42,
            2,
            mesh11_sim::FaultPlan::none(),
            &[Kernel::Routing],
        );
        assert_eq!(ctxs.len(), 2);
        assert_eq!(t.per_seed_pairs.len(), 2);
        assert_eq!(t.per_seed_analyze_s.len(), 2);
        assert_eq!(t.pairs_simulated, t.per_seed_pairs.iter().sum::<usize>());
        for (k, ctx) in ctxs.iter().enumerate() {
            let seed = 42 + k as u64;
            let none = mesh11_sim::FaultPlan::none();
            let (solo, st) =
                ReproContext::build_timed_with_mode(Scale::Quick, seed, none, DataMode::InMemory);
            assert_eq!(ctx.seed, seed);
            assert_eq!(ctx.dataset(), solo.dataset(), "seed {seed}");
            assert_eq!(t.per_seed_pairs[k], st.pairs_simulated);
            assert_eq!(ctx.client_probes(), solo.client_probes(), "seed {seed}");
            assert_eq!(
                format!("{:?}", ctx.routing_bg()),
                format!("{:?}", solo.routing_bg()),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn quick_context_builds() {
        let ctx = ReproContext::build(Scale::Quick, 1);
        assert_eq!(ctx.networks().len(), 12);
        assert!(ctx.n_probes() > 0);
        assert!(!ctx.clients().is_empty());
        assert!(
            !ctx.routing_bg().is_empty(),
            "quick campaign has ≥5-AP b/g networks"
        );
    }
}
