//! The shared heavy analyses, declared once, and the fused pass of a
//! chunked build.
//!
//! Each analysis the figures share has one constructor here (`routing()`,
//! `table(scope, phy)`, …) that fixes its parameters. An in-memory `ReproContext`
//! runs it lazily as one `run_fold` over the whole view; a chunked build
//! folds the same kernel, inside [`FusedRunner`], over every streamed part.
//!
//! A chunked context never walks its store per analysis. **Pass A** folds
//! every table-independent kernel — and the eight lookup-table builds —
//! over each sealed part of the streaming simulation as it arrives, so
//! every probe set is folded while it is still resident. **Pass B** then
//! scores the finished tables: penalties need completed tables, so they
//! cannot ride in pass A; on a chunked store all eight share one raw-chunk
//! walk ([`ThroughputPenalty::evaluate_batch_chunked`]) that never builds
//! a window and derives each probe set's SNR key and optimum once for the
//! four tables of its PHY.
//!
//! Byte identity with the in-memory context follows from the fold contract
//! (`crates/trace/src/fold.rs`): parts arrive in network order and each
//! kernel's single partial is threaded through them sequentially, which is
//! exactly the accumulation sequence of its solo `run_fold` walk over the
//! whole view.

use std::collections::BTreeMap;

use mesh11_core::bitrate::adaptation::AdaptationKernel;
use mesh11_core::bitrate::correlation::CurvesKernel;
use mesh11_core::bitrate::lookup::TableBuildKernel;
use mesh11_core::bitrate::stability::StabilityKernel;
use mesh11_core::bitrate::strategy::StrategyKernel;
use mesh11_core::bitrate::{
    AdaptationOutcome, AdapterKind, LinkStability, LookupTableSet, Scope, SnrThroughputCurves,
    StrategyEval, StrategyKind, ThroughputPenalty,
};
use mesh11_core::routing::asymmetry::AsymmetryKernel;
use mesh11_core::routing::diversity::DiversityKernel;
use mesh11_core::routing::ett::{EttAnalysis, EttKernel};
use mesh11_core::routing::improvement::{OpportunisticAnalysis, RoutingKernel};
use mesh11_core::routing::EtxVariant;
use mesh11_core::triples::hidden::TripleKernel;
use mesh11_core::triples::range::RangeKernel;
use mesh11_core::triples::sweep::SweepKernel;
use mesh11_core::triples::{HearRule, TripleAnalysis};
use mesh11_phy::{BitRate, Phy};
use mesh11_trace::snrstats::{SigmaKernel, SigmaKind};
use mesh11_trace::{
    DatasetView, DeliveryMatrix, FoldKernel, NetworkId, ProbeSource, Running, WindowFold,
};

use crate::setup::{lookup_slot, TRIPLE_THRESHOLD};

/// Minimum APs for a network to join the §5 routing population.
const ROUTING_MIN_APS: usize = 5;

/// The 1 Mbit/s b/g rate shared by the §5/§6 extension figures.
fn one_mbps() -> BitRate {
    BitRate::bg_mbps(1.0).expect("1 Mbit/s exists")
}

/// The Fig 3.1 sigma kernels, in [`SnrSigmas`] field order: within-set,
/// per-link, recent-3 (the robustness note's run length), per-network.
pub(crate) fn sigmas() -> [SigmaKernel; 4] {
    [
        SigmaKernel(SigmaKind::ProbeSet),
        SigmaKernel(SigmaKind::Link),
        SigmaKernel(SigmaKind::RecentK(3)),
        SigmaKernel(SigmaKind::Network),
    ]
}

/// The §4 look-up table build of one (scope, phy).
pub(crate) fn table(scope: Scope, phy: Phy) -> TableBuildKernel {
    TableBuildKernel { scope, phy }
}

/// The Fig 4.5 SNR↔throughput curves of one PHY.
pub(crate) fn curves(phy: Phy) -> CurvesKernel {
    CurvesKernel { phy }
}

/// The Fig 4.6 / Table 4.1 online-strategy replay (b/g, every strategy).
pub(crate) fn strategy() -> StrategyKernel {
    StrategyKernel {
        phy: Phy::Bg,
        kinds: StrategyKind::ALL.to_vec(),
    }
}

/// The §5 routing analyses (b/g, ≥5 APs).
pub(crate) fn routing() -> RoutingKernel {
    RoutingKernel {
        phy: Phy::Bg,
        min_aps: ROUTING_MIN_APS,
    }
}

/// The Fig 5.2 asymmetry pools (b/g).
pub(crate) fn asymmetry() -> AsymmetryKernel {
    AsymmetryKernel { phy: Phy::Bg }
}

/// The §6 hidden-triple analysis (b/g, 10% threshold, mean rule).
pub(crate) fn triples() -> TripleKernel {
    TripleKernel {
        phy: Phy::Bg,
        threshold: TRIPLE_THRESHOLD,
        rule: HearRule::Mean,
    }
}

/// The §6 per-(network, rate) interference ranges (b/g, 10% threshold).
pub(crate) fn ranges() -> RangeKernel {
    RangeKernel {
        phy: Phy::Bg,
        threshold: TRIPLE_THRESHOLD,
        rule: HearRule::Mean,
    }
}

/// The `ext-adapt` replay: five adapters, in output order, charged a 10%
/// probing-airtime overhead.
pub(crate) fn adapters() -> AdaptationKernel {
    AdaptationKernel {
        phy: Phy::Bg,
        kinds: vec![
            AdapterKind::Oracle,
            AdapterKind::SnrTable { top_k: 1 },
            AdapterKind::SnrTable { top_k: 2 },
            AdapterKind::EwmaProbing { alpha: 0.3 },
            AdapterKind::Fixed(BitRate::bg_mbps(11.0).expect("11 Mbit/s exists")),
        ],
        overhead: 0.10,
    }
}

/// The `ext-sweep` hearing-threshold sweep at 1 Mbit/s.
pub(crate) fn sweep() -> SweepKernel {
    SweepKernel {
        phy: Phy::Bg,
        rate: one_mbps(),
        thresholds: vec![0.05, 0.10, 0.20, 0.30, 0.50],
        rule: HearRule::Mean,
    }
}

/// The `ext-stability` churn/drift report (b/g).
pub(crate) fn stability() -> StabilityKernel {
    StabilityKernel { phy: Phy::Bg }
}

/// The `ext-diversity` rows (b/g, 1 Mbit/s, ≥5 APs, ETX1).
pub(crate) fn diversity() -> DiversityKernel {
    DiversityKernel {
        phy: Phy::Bg,
        rate: one_mbps(),
        min_aps: ROUTING_MIN_APS,
        variant: EtxVariant::Etx1,
    }
}

/// The `ext-ett` analyses (b/g, ≥5 APs).
pub(crate) fn ett() -> EttKernel {
    EttKernel {
        phy: Phy::Bg,
        min_aps: ROUTING_MIN_APS,
    }
}

/// The `ext-cap` input: the largest ≥5-AP b/g network's 1 Mbit/s matrix.
pub(crate) fn cap() -> CapKernel {
    CapKernel
}

/// The Fig 3.1 sigma populations, bundled so one accessor serves all four.
#[derive(Debug, Clone, Default)]
pub struct SnrSigmas {
    /// σ within each probe set.
    pub sets: Vec<f64>,
    /// σ of each link's probe-set SNRs over time.
    pub links: Vec<f64>,
    /// σ of each length-3 run of a link's recent SNRs.
    pub recent: Vec<f64>,
    /// σ over every probe-set SNR of a network.
    pub nets: Vec<f64>,
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
    type Output = Option<CapMatrix>;

    fn init(&self) -> Self::Partial {
        None
    }

    fn fold(&self, view: DatasetView<'_>, partial: &mut Self::Partial) {
        // `max_by_key` keeps the *last* maximum, so the view's winner is
        // its last network with the maximal qualifying AP count; only that
        // one needs a delivery matrix (the matrix depends only on the
        // winner's own probes, so skipping the losers changes no bytes).
        let mut winner: Option<&mesh11_trace::NetworkMeta> = None;
        for m in &view.dataset().networks {
            if m.n_aps < ROUTING_MIN_APS || !m.radios.contains(&Phy::Bg) {
                continue;
            }
            if partial.as_ref().is_some_and(|best| m.n_aps < best.n_aps)
                || winner.is_some_and(|w| m.n_aps < w.n_aps)
            {
                continue;
            }
            winner = Some(m);
        }
        if let Some(m) = winner {
            *partial = Some(CapMatrix {
                network: m.id,
                n_aps: m.n_aps,
                matrix: view.delivery_matrix(Phy::Bg, m.id, one_mbps(), m.n_aps),
            });
        }
    }

    fn finish(&self, partial: Self::Partial) -> Self::Output {
        partial
    }
}

/// Every shared heavy analysis, produced by one fused pass.
pub struct FusedOutputs {
    /// Fig 3.1 sigma populations.
    pub sigmas: SnrSigmas,
    /// §4 lookup tables, indexed by `lookup_slot(scope, phy)`.
    pub tables: [LookupTableSet; 8],
    /// Fig 4.4 penalties, indexed by `lookup_slot(scope, phy)`.
    pub penalties: [ThroughputPenalty; 8],
    /// Fig 4.5 SNR↔throughput curves, `[Bg, Ht]`.
    pub curves: [SnrThroughputCurves; 2],
    /// Fig 4.6 / Table 4.1 online-strategy evaluations (b/g).
    pub strategy_bg: Vec<StrategyEval>,
    /// §5 routing analyses (b/g, ≥5 APs).
    pub routing_bg: Vec<OpportunisticAnalysis>,
    /// Fig 5.2 asymmetry pools per rate (b/g).
    pub asymmetry_bg: BTreeMap<BitRate, Vec<f64>>,
    /// §6 hidden-triple analysis (b/g, 10% threshold).
    pub triples_bg: TripleAnalysis,
    /// §6 per-(network, rate) ranges (b/g).
    pub ranges_bg: BTreeMap<(NetworkId, BitRate), usize>,
    /// `ext-adapt` outcomes.
    pub adapters_ext: Vec<AdaptationOutcome>,
    /// `ext-sweep` rows.
    pub sweep_ext: Vec<(f64, Option<f64>)>,
    /// `ext-stability` churn/drift report (b/g).
    pub stability_bg: LinkStability,
    /// `ext-diversity` rows.
    pub diversity_ext: Vec<(usize, f64, f64, usize)>,
    /// `ext-ett` analyses (b/g, ≥5 APs).
    pub ett_bg: Vec<EttAnalysis>,
    /// `ext-cap` delivery matrix, when a qualifying network exists.
    pub cap_ext: Option<CapMatrix>,
}

/// The in-flight state of the fused pass: every pass-A kernel paired with
/// its partial, ready to fold network-aligned views as they arrive.
pub struct FusedRunner {
    sig_sets: Running<SigmaKernel>,
    sig_links: Running<SigmaKernel>,
    sig_recent: Running<SigmaKernel>,
    sig_nets: Running<SigmaKernel>,
    tables: Vec<Running<TableBuildKernel>>,
    curves_bg: Running<CurvesKernel>,
    curves_ht: Running<CurvesKernel>,
    strategy_bg: Running<StrategyKernel>,
    routing_bg: Running<RoutingKernel>,
    asymmetry_bg: Running<AsymmetryKernel>,
    triples_bg: Running<TripleKernel>,
    ranges_bg: Running<RangeKernel>,
    adapters: Running<AdaptationKernel>,
    sweep: Running<SweepKernel>,
    stability_bg: Running<StabilityKernel>,
    diversity: Running<DiversityKernel>,
    ett_bg: Running<EttKernel>,
    cap: Running<CapKernel>,
}

impl Default for FusedRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl FusedRunner {
    /// Starts every pass-A kernel with a fresh partial.
    pub fn new() -> Self {
        // Table slots in lookup_slot order: (Global..Link) × (Bg, Ht).
        let mut tables = Vec::with_capacity(8);
        for scope in Scope::ALL {
            for phy in [Phy::Bg, Phy::Ht] {
                debug_assert_eq!(tables.len(), lookup_slot(scope, phy));
                tables.push(Running::new(table(scope, phy)));
            }
        }
        let [sig_sets, sig_links, sig_recent, sig_nets] = sigmas().map(Running::new);
        Self {
            sig_sets,
            sig_links,
            sig_recent,
            sig_nets,
            tables,
            curves_bg: Running::new(curves(Phy::Bg)),
            curves_ht: Running::new(curves(Phy::Ht)),
            strategy_bg: Running::new(strategy()),
            routing_bg: Running::new(routing()),
            asymmetry_bg: Running::new(asymmetry()),
            triples_bg: Running::new(triples()),
            ranges_bg: Running::new(ranges()),
            adapters: Running::new(adapters()),
            sweep: Running::new(sweep()),
            stability_bg: Running::new(stability()),
            diversity: Running::new(diversity()),
            ett_bg: Running::new(ett()),
            cap: Running::new(cap()),
        }
    }

    /// Every kernel as an object-safe running fold, in a fixed order that
    /// callers may name by position; the eight table builds come last, in
    /// `lookup_slot` order.
    pub fn kernels(&mut self) -> Vec<&mut dyn WindowFold> {
        let mut ks: Vec<&mut dyn WindowFold> = vec![
            &mut self.sig_sets,
            &mut self.sig_links,
            &mut self.sig_recent,
            &mut self.sig_nets,
            &mut self.curves_bg,
            &mut self.curves_ht,
            &mut self.strategy_bg,
            &mut self.routing_bg,
            &mut self.asymmetry_bg,
            &mut self.triples_bg,
            &mut self.ranges_bg,
            &mut self.adapters,
            &mut self.sweep,
            &mut self.stability_bg,
            &mut self.diversity,
            &mut self.ett_bg,
            &mut self.cap,
        ];
        ks.extend(self.tables.iter_mut().map(|t| t as &mut dyn WindowFold));
        ks
    }

    /// Folds one network-aligned view (one sealed streaming part) into
    /// every kernel, fanning out across kernels. Views must arrive in
    /// network-id order — that is the byte-identity contract.
    pub fn fold_view(&mut self, view: DatasetView<'_>) {
        use rayon::prelude::*;
        // Several kernels read the per-probe columns: build them at full
        // width here, not inside whichever kernel's worker gets there
        // first.
        view.columns();
        let mut kernels = self.kernels();
        kernels.par_iter_mut().for_each(|k| k.fold_window(view));
    }

    /// Finishes pass A and runs pass B (penalties) against `src`, which
    /// must cover exactly the probes this runner folded.
    pub fn finish(self, src: &ProbeSource<'_>) -> FusedOutputs {
        let sigmas = SnrSigmas {
            sets: self.sig_sets.finish(),
            links: self.sig_links.finish(),
            recent: self.sig_recent.finish(),
            nets: self.sig_nets.finish(),
        };
        let tables: [LookupTableSet; 8] = self
            .tables
            .into_iter()
            .map(Running::finish)
            .collect::<Vec<_>>()
            .try_into()
            .unwrap_or_else(|_| unreachable!("eight table slots"));
        let penalties = evaluate_penalties(src, &tables);
        FusedOutputs {
            sigmas,
            tables,
            penalties,
            curves: [self.curves_bg.finish(), self.curves_ht.finish()],
            strategy_bg: self.strategy_bg.finish(),
            routing_bg: self.routing_bg.finish(),
            asymmetry_bg: self.asymmetry_bg.finish(),
            triples_bg: self.triples_bg.finish(),
            ranges_bg: self.ranges_bg.finish(),
            adapters_ext: self.adapters.finish(),
            sweep_ext: self.sweep.finish(),
            stability_bg: self.stability_bg.finish(),
            diversity_ext: self.diversity.finish(),
            ett_bg: self.ett_bg.finish(),
            cap_ext: self.cap.finish(),
        }
    }
}

/// Pass B: one penalty per table, in `lookup_slot` order. On a chunked
/// store all eight share a single raw-chunk walk (zero window builds) that
/// derives each probe set's SNR key and optimum once; on a resident view
/// each table scores the whole view directly, reading both from the
/// index's columns.
fn evaluate_penalties(
    src: &ProbeSource<'_>,
    tables: &[LookupTableSet; 8],
) -> [ThroughputPenalty; 8] {
    let out: Vec<ThroughputPenalty> = match src {
        ProbeSource::Chunked(c) => {
            let refs: Vec<&LookupTableSet> = tables.iter().collect();
            ThroughputPenalty::evaluate_batch_chunked(c, &refs)
        }
        ProbeSource::Whole(view) => tables
            .iter()
            .map(|t| ThroughputPenalty::evaluate(*view, t))
            .collect(),
    };
    out.try_into()
        .unwrap_or_else(|_| unreachable!("eight penalty slots"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{ReproContext, Scale};

    fn dbg(x: &dyn std::fmt::Debug) -> String {
        format!("{x:?}")
    }

    /// The resident arm of `finish`: a runner folded over a quick
    /// dataset's whole view yields, field for field, what the in-memory
    /// context's lazy cells compute. Lookup tables hold hash maps, so they
    /// are compared through their ordered accessors and their penalties.
    #[test]
    fn resident_finish_matches_lazy_cells() {
        let ctx = ReproContext::build(Scale::Quick, 7);
        let view = ctx.view();
        let mut runner = FusedRunner::new();
        assert_eq!(runner.kernels().len(), 25);
        runner.fold_view(view);
        let out = runner.finish(&ProbeSource::Whole(view));

        assert_eq!(dbg(&out.sigmas), dbg(ctx.snr_sigmas()));
        for scope in Scope::ALL {
            for phy in [Phy::Bg, Phy::Ht] {
                let slot = lookup_slot(scope, phy);
                let (got, want) = (&out.tables[slot], ctx.lookup_tables(scope, phy));
                assert_eq!(got.n_keys(), want.n_keys(), "{scope:?} {phy:?}");
                assert_eq!(got.optimal_rates_per_snr(), want.optimal_rates_per_snr());
                assert_eq!(got.exact_accuracy(view), want.exact_accuracy(view));
                assert_eq!(dbg(&out.penalties[slot]), dbg(ctx.penalty(scope, phy)));
            }
        }
        assert_eq!(dbg(&out.curves[0]), dbg(ctx.snr_curves(Phy::Bg)));
        assert_eq!(dbg(&out.curves[1]), dbg(ctx.snr_curves(Phy::Ht)));
        assert_eq!(dbg(&out.strategy_bg), dbg(&ctx.strategy_evals_bg()));
        assert_eq!(dbg(&out.routing_bg), dbg(&ctx.routing_bg()));
        assert_eq!(dbg(&out.asymmetry_bg), dbg(ctx.asymmetry_bg()));
        assert_eq!(dbg(&out.triples_bg), dbg(ctx.triples_bg()));
        assert_eq!(dbg(&out.ranges_bg), dbg(ctx.ranges_bg()));
        assert_eq!(dbg(&out.adapters_ext), dbg(&ctx.adapters_ext()));
        assert_eq!(dbg(&out.sweep_ext), dbg(&ctx.sweep_ext()));
        assert_eq!(dbg(&out.stability_bg), dbg(ctx.stability_bg()));
        assert_eq!(dbg(&out.diversity_ext), dbg(&ctx.diversity_ext()));
        assert_eq!(dbg(&out.ett_bg), dbg(&ctx.ett_bg()));
        assert!(
            out.cap_ext.is_some(),
            "quick campaign has a ≥5-AP b/g network"
        );
        assert_eq!(dbg(&out.cap_ext.as_ref()), dbg(&ctx.cap_ext()));
    }
}
