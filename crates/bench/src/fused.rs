//! The shared heavy analyses behind the figures: a registry that declares
//! each kernel once, and the fused pass that folds any set of them.
//!
//! [`Kernel`] names every shared analysis, and the registry fixes each
//! one's parameters, name and the PHYs it reads. Every context fills its
//! analyses one way: a [`FusedRunner`] folds the kernels its figures read
//! (`figures::kernels`) over the parts, and the context keeps the
//! [`FusedOutputs`]. A resident dataset is one part, its whole indexed
//! view; a chunked build folds every sealed part of the streaming
//! simulation as it arrives, so the figures never walk the chunk store.
//!
//! **Pass A** folds the table-independent kernels and the eight
//! lookup-table builds. **Pass B** then scores the finished tables:
//! penalties need completed tables, so they cannot ride in pass A, and
//! requesting one requests its table. Pass B replays the probes pass A
//! folded through one scorer, [`PassB::fold_view`], whatever the source:
//! a resident view is one part, a file its parts, and the chunk store is
//! replayed one network at a time. Either pass folds a part in one call
//! to [`fold_all`]: every requested kernel's units in one network-major
//! work list, the only parallel level.
//!
//! Byte identity follows from the fold contract
//! (`crates/trace/src/fold.rs`): parts arrive in network order and each
//! kernel's single partial is threaded through them, and through each
//! part's units, in order, which is exactly the accumulation sequence of
//! its solo `run_fold` walk over the whole view. Kernels own their
//! partials, so which others are requested alongside one changes none of
//! its bytes.

use std::any::Any;
use std::fmt::Debug;

use mesh11_core::bitrate::adaptation::AdaptationKernel;
use mesh11_core::bitrate::correlation::CurvesKernel;
use mesh11_core::bitrate::lookup::TableBuildKernel;
use mesh11_core::bitrate::penalty::PenaltyKernel;
use mesh11_core::bitrate::stability::StabilityKernel;
use mesh11_core::bitrate::strategy::StrategyKernel;
use mesh11_core::bitrate::{AdapterKind, Scope, StrategyKind};
use mesh11_core::routing::asymmetry::AsymmetryKernel;
use mesh11_core::routing::diversity::DiversityKernel;
use mesh11_core::routing::ett::EttKernel;
use mesh11_core::routing::improvement::RoutingKernel;
use mesh11_core::routing::EtxVariant;
use mesh11_core::triples::hidden::TripleKernel;
use mesh11_core::triples::range::RangeKernel;
use mesh11_core::triples::sweep::SweepKernel;
use mesh11_core::triples::HearRule;
use mesh11_phy::{BitRate, Phy};
use mesh11_trace::fold::{unit, Unit};
use mesh11_trace::snrstats::{SigmaKernel, SigmaKind};
use mesh11_trace::{
    fold_all, plan, DatasetIndex, DatasetView, DeliveryMatrix, FoldKernel, NetworkId, NetworkMeta,
    ProbeSource, Running, WindowFold,
};

use crate::setup::TRIPLE_THRESHOLD;

/// Minimum APs for a network to join the §5 routing population.
const ROUTING_MIN_APS: usize = 5;

/// The 1 Mbit/s b/g rate shared by the §5/§6 extension figures.
fn one_mbps() -> BitRate {
    BitRate::bg_mbps(1.0).expect("1 Mbit/s exists")
}

/// The `ext-cap` input: the delivery matrix of the largest ≥5-AP b/g
/// network at 1 Mbit/s, tagged with the network it came from.
#[derive(Debug, Clone)]
pub struct CapMatrix {
    /// The chosen network.
    pub network: NetworkId,
    /// Its AP count.
    pub n_aps: usize,
    /// Its delivery matrix at 1 Mbit/s.
    pub matrix: DeliveryMatrix,
}

/// Tracks the largest qualifying b/g network across the folded views and
/// keeps its delivery matrix. Replacing on `n_aps >= best` replicates
/// `Iterator::max_by_key`'s last-max-wins over the id-ordered metas, and
/// the matrix comes from the view holding that network.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CapKernel;

impl FoldKernel for CapKernel {
    type Partial = Option<CapMatrix>;
    type Piece = CapMatrix;
    type Output = Option<CapMatrix>;

    fn init(&self) -> Self::Partial {
        None
    }

    /// The view's winner, its last network with the maximal qualifying AP
    /// count: only that one needs a delivery matrix (the matrix depends
    /// only on the winner's own probes, so skipping the losers changes no
    /// bytes).
    fn units<'a>(&'a self, view: DatasetView<'a>) -> Vec<Unit<'a, CapMatrix>> {
        let keep = |m: &&NetworkMeta| m.n_aps >= ROUTING_MIN_APS && m.radios.contains(&Phy::Bg);
        let winner = view.networks().iter().filter(keep).max_by_key(|m| m.n_aps);
        let cap = move |m: &NetworkMeta| CapMatrix {
            network: m.id,
            n_aps: m.n_aps,
            matrix: view.delivery_matrix(Phy::Bg, m.id, one_mbps(), m.n_aps),
        };
        winner
            .map(|m| unit(m.id, move || cap(m)))
            .into_iter()
            .collect()
    }

    fn merge(&self, partial: &mut Self::Partial, cap: CapMatrix) {
        if partial.as_ref().is_none_or(|best| cap.n_aps >= best.n_aps) {
            *partial = Some(cap);
        }
    }

    fn finish(&self, partial: Self::Partial) -> Self::Output {
        partial
    }
}

/// One shared analysis behind the figures: a pass-A fold kernel, or a
/// pass-B penalty. The registry ([`Kernel::all`]) declares each one once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// A Fig 3.1 sigma population.
    Sigma(SigmaKind),
    /// The Fig 4.5 SNR↔throughput curves of one PHY.
    Curves(Phy),
    /// The Fig 4.6 / Table 4.1 online-strategy replay.
    Strategy,
    /// The §5 routing analyses.
    Routing,
    /// The Fig 5.2 asymmetry pools.
    Asymmetry,
    /// The §6 hidden-triple analysis.
    Triples,
    /// The §6 per-(network, rate) interference ranges.
    Ranges,
    /// The `ext-adapt` replay.
    Adapters,
    /// The `ext-sweep` threshold sweep.
    Sweep,
    /// The `ext-stability` churn/drift report.
    Stability,
    /// The `ext-diversity` rows.
    Diversity,
    /// The `ext-ett` analyses.
    Ett,
    /// The `ext-cap` delivery matrix.
    Cap,
    /// The §4 look-up table build of one (scope, phy).
    Table(Scope, Phy),
    /// The Fig 4.4 penalty of one (scope, phy) table: pass B, so it
    /// implies [`Kernel::Table`] of the same (scope, phy).
    Penalty(Scope, Phy),
}

/// A registry row: a kernel, its name in traces and benchmarks
/// (`core.fold.<name>`), and the PHYs whose probe sections it reads. Its
/// fold, with its parameters, is [`Kernel::start`].
struct Entry(Kernel, &'static str, &'static [Phy]);

/// The registry. The 25 pass-A folds come first, in the order
/// [`FusedRunner::kernels`] yields them; the eight pass-B penalties
/// follow, in the tables' (scope, phy) order.
const REGISTRY: [Entry; 33] = {
    use Kernel::*;
    use Phy::{Bg, Ht};
    use Scope::{Ap, Global, Link, Network};
    const BG: &[Phy] = &[Bg];
    const HT: &[Phy] = &[Ht];
    const BOTH: &[Phy] = &[Bg, Ht];
    [
        Entry(Sigma(SigmaKind::ProbeSet), "sigmas.sets", BOTH),
        Entry(Sigma(SigmaKind::Link), "sigmas.links", BOTH),
        // The run length of the paper's robustness note.
        Entry(Sigma(SigmaKind::RecentK(3)), "sigmas.recent", BOTH),
        Entry(Sigma(SigmaKind::Network), "sigmas.nets", BOTH),
        Entry(Curves(Bg), "curves.bg", BG),
        Entry(Curves(Ht), "curves.ht", HT),
        Entry(Strategy, "strategy_bg", BG),
        Entry(Routing, "routing_bg", BG),
        Entry(Asymmetry, "asymmetry_bg", BG),
        Entry(Triples, "triples_bg", BG),
        Entry(Ranges, "ranges_bg", BG),
        Entry(Adapters, "adapters_ext", BG),
        Entry(Sweep, "sweep_ext", BG),
        Entry(Stability, "stability_bg", BG),
        Entry(Diversity, "diversity_ext", BG),
        Entry(Ett, "ett_bg", BG),
        Entry(Cap, "cap_ext", BG),
        Entry(Table(Global, Bg), "tables.global.bg", BG),
        Entry(Table(Global, Ht), "tables.global.ht", HT),
        Entry(Table(Network, Bg), "tables.network.bg", BG),
        Entry(Table(Network, Ht), "tables.network.ht", HT),
        Entry(Table(Ap, Bg), "tables.ap.bg", BG),
        Entry(Table(Ap, Ht), "tables.ap.ht", HT),
        Entry(Table(Link, Bg), "tables.link.bg", BG),
        Entry(Table(Link, Ht), "tables.link.ht", HT),
        Entry(Penalty(Global, Bg), "penalties.global.bg", BG),
        Entry(Penalty(Global, Ht), "penalties.global.ht", HT),
        Entry(Penalty(Network, Bg), "penalties.network.bg", BG),
        Entry(Penalty(Network, Ht), "penalties.network.ht", HT),
        Entry(Penalty(Ap, Bg), "penalties.ap.bg", BG),
        Entry(Penalty(Ap, Ht), "penalties.ap.ht", HT),
        Entry(Penalty(Link, Bg), "penalties.link.bg", BG),
        Entry(Penalty(Link, Ht), "penalties.link.ht", HT),
    ]
};

impl Kernel {
    /// Every kernel, in registry order.
    pub fn all() -> Vec<Kernel> {
        REGISTRY.iter().map(|e| e.0).collect()
    }

    fn entry(self) -> &'static Entry {
        REGISTRY
            .iter()
            .find(|e| e.0 == self)
            .expect("every kernel is registered")
    }

    /// The kernel's name in traces and benchmarks (`sigmas.sets`, …,
    /// `tables.link.ht`, `penalties.link.ht`).
    pub fn name(self) -> &'static str {
        self.entry().1
    }

    /// The PHYs whose probe sections the kernel reads.
    pub fn phys(self) -> &'static [Phy] {
        self.entry().2
    }

    /// A pass-A kernel, with its parameters, and a fresh partial; its
    /// output fills the kernel's cell of [`FusedOutputs`]. `None` for a
    /// penalty, which pass B scores against its finished table.
    fn start(self) -> Option<Box<dyn ErasedFold>> {
        let (phy, rule, one_mbps) = (Phy::Bg, HearRule::Mean, one_mbps());
        Some(match self {
            Kernel::Sigma(kind) => erase(SigmaKernel(kind)),
            Kernel::Curves(phy) => erase(CurvesKernel { phy }),
            Kernel::Strategy => erase(StrategyKernel {
                phy,
                kinds: StrategyKind::ALL.to_vec(),
            }),
            Kernel::Routing => erase(RoutingKernel {
                phy,
                min_aps: ROUTING_MIN_APS,
            }),
            Kernel::Asymmetry => erase(AsymmetryKernel { phy }),
            Kernel::Triples => erase(TripleKernel {
                phy,
                threshold: TRIPLE_THRESHOLD,
                rule,
            }),
            Kernel::Ranges => erase(RangeKernel {
                phy,
                threshold: TRIPLE_THRESHOLD,
                rule,
            }),
            Kernel::Adapters => erase(AdaptationKernel {
                phy,
                kinds: vec![
                    AdapterKind::Oracle,
                    AdapterKind::SnrTable { top_k: 1 },
                    AdapterKind::SnrTable { top_k: 2 },
                    AdapterKind::EwmaProbing { alpha: 0.3 },
                    AdapterKind::Fixed(BitRate::bg_mbps(11.0).expect("11 Mbit/s exists")),
                ],
                overhead: 0.10,
            }),
            Kernel::Sweep => erase(SweepKernel {
                phy,
                rate: one_mbps,
                thresholds: vec![0.05, 0.10, 0.20, 0.30, 0.50],
                rule,
            }),
            Kernel::Stability => erase(StabilityKernel { phy }),
            Kernel::Diversity => erase(DiversityKernel {
                phy,
                rate: one_mbps,
                min_aps: ROUTING_MIN_APS,
                variant: EtxVariant::Etx1,
            }),
            Kernel::Ett => erase(EttKernel {
                phy,
                min_aps: ROUTING_MIN_APS,
            }),
            Kernel::Cap => erase(CapKernel),
            Kernel::Table(scope, phy) => erase(TableBuildKernel { scope, phy }),
            Kernel::Penalty(..) => return None,
        })
    }
}

/// A finished kernel output, type-erased so one list holds every kind.
type Cell = Box<dyn Output>;

/// What every kernel output is.
trait Output: Any + Debug + Send + Sync {}

impl<T: Any + Debug + Send + Sync> Output for T {}

/// A running kernel whose output is type-erased, so one runner drives
/// kernels of every output type.
trait ErasedFold: WindowFold {
    fn finish_erased(self: Box<Self>) -> Cell;
}

impl<K> ErasedFold for Running<K>
where
    K: FoldKernel + Send + 'static,
    K::Output: Output,
{
    fn finish_erased(self: Box<Self>) -> Cell {
        Box::new(self.finish())
    }
}

fn erase<K>(kernel: K) -> Box<dyn ErasedFold>
where
    K: FoldKernel + Send + 'static,
    K::Output: Output,
{
    Box::new(Running::new(kernel))
}

/// The finished outputs of one fused pass, one cell per folded kernel.
#[derive(Default)]
pub struct FusedOutputs {
    cells: Vec<(Kernel, Cell)>,
}

impl FusedOutputs {
    /// The output of `kernel`. Panics when the pass did not fold it, or
    /// when `T` is not its output type: both are bugs in the caller.
    pub fn get<T: Any>(&self, kernel: Kernel) -> &T {
        (self.cell(kernel) as &dyn Any)
            .downcast_ref()
            .unwrap_or_else(|| panic!("kernel {} has another output type", kernel.name()))
    }

    fn cell(&self, kernel: Kernel) -> &dyn Output {
        let (_, cell) = self
            .cells
            .iter()
            .find(|(k, _)| *k == kernel)
            .unwrap_or_else(|| {
                panic!(
                    "kernel {} not requested: `figures::kernels` declares it",
                    kernel.name()
                )
            });
        &**cell
    }
}

/// The in-flight state of a fused pass: each requested pass-A kernel
/// paired with its partial, ready to fold network-aligned views as they
/// arrive, plus the penalties pass B will score.
pub struct FusedRunner {
    running: Vec<(Kernel, Box<dyn ErasedFold>)>,
    penalties: Vec<(Scope, Phy)>,
}

impl Default for FusedRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl FusedRunner {
    /// Starts every kernel with a fresh partial.
    pub fn new() -> Self {
        Self::for_kernels(&Kernel::all())
    }

    /// Starts the requested kernels, in registry order whatever the
    /// request's order; a penalty starts its table too.
    pub fn for_kernels(requested: &[Kernel]) -> Self {
        let wanted = |k: &Kernel| {
            requested.contains(k)
                || matches!(*k, Kernel::Table(s, p) if requested.contains(&Kernel::Penalty(s, p)))
        };
        let mut runner = Self {
            running: Vec::new(),
            penalties: Vec::new(),
        };
        for k in Kernel::all().into_iter().filter(wanted) {
            if let Some(fold) = k.start() {
                runner.running.push((k, fold));
            } else if let Kernel::Penalty(s, p) = k {
                runner.penalties.push((s, p));
            }
        }
        runner
    }

    /// Every requested pass-A kernel as an object-safe running fold, in
    /// registry order.
    pub fn kernels(&mut self) -> Vec<&mut dyn WindowFold> {
        self.running
            .iter_mut()
            .map(|(_, r)| &mut **r as &mut dyn WindowFold)
            .collect()
    }

    /// Folds one network-aligned view into every requested kernel, as one
    /// schedule of all their units. Views must arrive in network-id order —
    /// that is the byte-identity contract.
    pub fn fold_view(&mut self, view: DatasetView<'_>) {
        fold_all(
            self.running
                .iter_mut()
                .flat_map(|(_, r)| r.plan(view))
                .collect(),
        );
    }

    /// Finishes pass A and runs pass B (penalties) against `src`, which
    /// must cover exactly the probes this runner folded. A resident view
    /// is replayed as one part; a chunk store one network at a time, each
    /// network materialized and indexed on its own, so at most one
    /// network's probe table is held at once.
    pub fn finish(self, src: &ProbeSource<'_>) -> FusedOutputs {
        let mut pass_b = self.finish_pass_a();
        if pass_b.needs_parts() {
            match src {
                ProbeSource::Whole(view) => pass_b.fold_view(*view),
                ProbeSource::Chunked(c) => {
                    for net in 0..c.networks().len() {
                        let ds = c.window_dataset(net..net + 1);
                        let ix = DatasetIndex::build(&ds);
                        pass_b.fold_view(DatasetView::new(&ds, &ix));
                    }
                }
            }
        }
        pass_b.finish()
    }

    /// Finishes pass A: every requested fold is done, and the penalties
    /// wait in the returned [`PassB`] for the parts to be replayed.
    pub fn finish_pass_a(self) -> PassB {
        let out = FusedOutputs {
            cells: self
                .running
                .into_iter()
                .map(|(k, r)| (k, r.finish_erased()))
                .collect(),
        };
        let penalties = self
            .penalties
            .into_iter()
            .map(|key| (key, PenaltyPartial::default()))
            .collect();
        PassB { out, penalties }
    }
}

/// Pass B in progress: pass A's finished outputs, and one
/// [`PenaltyKernel`] partial per requested (scope, phy), scored against
/// its finished table. The parts are replayed in network order, as pass A
/// folded them, and each network's diffs are counted in that order, so
/// any partition of the probes into network-aligned parts gives the bytes
/// of one walk over the whole view.
pub struct PassB {
    out: FusedOutputs,
    penalties: Vec<((Scope, Phy), PenaltyPartial)>,
}

/// A penalty's partial: its counted diffs so far and the sets it could not
/// score.
type PenaltyPartial = <PenaltyKernel<'static> as FoldKernel>::Partial;

impl PassB {
    /// Whether any penalty was requested, so the parts need a replay.
    pub fn needs_parts(&self) -> bool {
        !self.penalties.is_empty()
    }

    /// Scores one replayed network-aligned view against every requested
    /// table, as one schedule of every penalty's units, as
    /// [`FusedRunner::fold_view`] schedules the pass-A kernels'.
    pub fn fold_view(&mut self, view: DatasetView<'_>) {
        let out = &self.out;
        let kernels: Vec<PenaltyKernel<'_>> = (self.penalties.iter())
            .map(|&((s, p), _)| PenaltyKernel {
                table: out.get(Kernel::Table(s, p)),
            })
            .collect();
        let partials = self.penalties.iter_mut().map(|(_, partial)| partial);
        let jobs = kernels
            .iter()
            .zip(partials)
            .flat_map(|(k, p)| plan(k, p, view));
        fold_all(jobs.collect());
    }

    /// The outputs of both passes.
    pub fn finish(self) -> FusedOutputs {
        let mut out = self.out;
        for ((scope, phy), partial) in self.penalties {
            let table = out.get(Kernel::Table(scope, phy));
            let penalty = PenaltyKernel { table }.finish(partial);
            out.cells
                .push((Kernel::Penalty(scope, phy), Box::new(penalty)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::Scale;
    use mesh11_core::bitrate::{LookupTableSet, ThroughputPenalty};
    use std::collections::BTreeMap;

    /// A penalty's counted fields: each distinct diff's count (by bits),
    /// the bits of the in-order sum, and the unscored sets.
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

    /// The oracle of the fused pass: a runner folded over a quick
    /// dataset's whole view yields, kernel for kernel, what that kernel
    /// alone yields over the view (`init`, one `fold`, `finish`: its solo
    /// `run_fold`), and each penalty counts what the per-set loop over the
    /// solo table yields. Lookup tables hold hash maps, so they are
    /// compared through their ordered accessors.
    #[test]
    fn fused_outputs_match_solo_folds() {
        let scale = Scale::Quick;
        let ds = scale
            .config()
            .run_campaign(&scale.campaign_spec(7).generate());
        let ix = DatasetIndex::build(&ds);
        let view = DatasetView::new(&ds, &ix);
        let mut runner = FusedRunner::new();
        assert_eq!(runner.kernels().len(), 25);
        runner.fold_view(view);
        let fused = runner.finish(&ProbeSource::Whole(view));
        let solo = |k: Kernel| {
            let mut fold = k.start().expect("a pass-A kernel");
            fold.fold_window(view);
            FusedOutputs {
                cells: vec![(k, fold.finish_erased())],
            }
        };
        let ordered = |t: &LookupTableSet| {
            let rates = t.optimal_rates_per_snr();
            format!("{} {rates:?} {}", t.n_keys(), t.exact_accuracy(view))
        };
        for k in Kernel::all() {
            let (got, want) = match k {
                Kernel::Table(..) => (
                    ordered(fused.get(k)),
                    ordered(solo(k).get::<LookupTableSet>(k)),
                ),
                Kernel::Penalty(scope, phy) => {
                    let table = Kernel::Table(scope, phy);
                    (
                        format!("{:?}", counted(fused.get(k))),
                        format!("{:?}", penalty_oracle(view, solo(table).get(table))),
                    )
                }
                _ => (
                    format!("{:?}", fused.cell(k)),
                    format!("{:?}", solo(k).cell(k)),
                ),
            };
            assert_eq!(got, want, "{}", k.name());
        }
        let cap: &Option<CapMatrix> = fused.get(Kernel::Cap);
        assert!(cap.is_some(), "quick campaign has a ≥5-AP b/g network");
    }
}
