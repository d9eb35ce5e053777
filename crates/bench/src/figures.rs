//! One builder per paper table/figure.
//!
//! Each builder returns the figure's series with the paper's expected
//! values recorded as notes, so a run can be compared shape-by-shape
//! against the original. Absolute values are not expected to match (our
//! substrate is a calibrated simulator, not the Meraki testbed); the
//! *orderings, medians, and crossovers* are.

use mesh11_core::bitrate::Scope;
use mesh11_core::report::{FigureData, Series};
use mesh11_core::routing::improvement::{improvement_by_network_size, improvement_by_path_length};
use mesh11_core::routing::EtxVariant;
use mesh11_core::triples::{range::normalized_range_by_env, range_change_by_rate};
use mesh11_phy::{BitRate, Phy};
use mesh11_stats::Cdf;
use mesh11_trace::codec::Sections;
use mesh11_trace::snrstats::SigmaKind;
use mesh11_trace::{EnvLabel, NetworkId};

use crate::fused::Kernel;
use crate::setup::ReproContext;

/// Every experiment id, in paper order, followed by the extension
/// experiments (DESIGN.md §8).
pub const ALL_IDS: &[&str] = &[
    "fig1-1",
    "fig3-1",
    "fig4-1",
    "fig4-2",
    "fig4-3",
    "fig4-4",
    "fig4-5",
    "fig4-6",
    "tab4-1",
    "fig5-1",
    "fig5-2",
    "fig5-3",
    "fig5-4",
    "fig5-5",
    "fig6-1",
    "fig6-2",
    "sec6-3",
    "fig7-1",
    "fig7-2",
    "fig7-3",
    "fig7-4",
    "fig7-5",
    "ext-adapt",
    "ext-cap",
    "ext-sweep",
    "ext-stability",
    "ext-diversity",
    "ext-ett",
    "ext-client",
];

/// An experiment's figure builder, and the shared analyses it reads.
type Experiment = (fn(&ReproContext) -> Vec<FigureData>, Vec<Kernel>);

fn experiment(id: &str) -> Option<Experiment> {
    use Kernel::*;
    let registered = |keep: fn(&Kernel) -> bool| Kernel::all().into_iter().filter(keep).collect();
    let tables = |phy| Scope::ALL.map(|scope| Table(scope, phy)).to_vec();
    let experiment: Experiment = match id {
        "fig1-1" => (|c| vec![fig1_1(c)], vec![]),
        "fig3-1" => (|c| vec![fig3_1(c)], registered(|k| matches!(k, Sigma(_)))),
        "fig4-1" => (
            fig4_1,
            vec![Table(Scope::Global, Phy::Bg), Table(Scope::Global, Phy::Ht)],
        ),
        "fig4-2" => (|c| fig4_2_or_3(c, Phy::Bg), tables(Phy::Bg)),
        "fig4-3" => (|c| fig4_2_or_3(c, Phy::Ht), tables(Phy::Ht)),
        "fig4-4" => (fig4_4, registered(|k| matches!(k, Penalty(..)))),
        "fig4-5" => (fig4_5, vec![Curves(Phy::Bg), Curves(Phy::Ht)]),
        "fig4-6" => (|c| vec![fig4_6(c)], vec![Strategy]),
        "tab4-1" => (|c| vec![tab4_1(c)], vec![Strategy]),
        "fig5-1" => (fig5_1, vec![Routing]),
        "fig5-2" => (|c| vec![fig5_2(c)], vec![Asymmetry]),
        "fig5-3" => (|c| vec![fig5_3(c)], vec![Routing]),
        "fig5-4" => (|c| vec![fig5_4(c)], vec![Routing]),
        "fig5-5" => (|c| vec![fig5_5(c)], vec![Routing]),
        "fig6-1" => (|c| vec![fig6_1(c)], vec![Triples]),
        "fig6-2" => (|c| vec![fig6_2(c)], vec![Ranges]),
        "sec6-3" => (|c| vec![sec6_3(c)], vec![Triples, Ranges]),
        "fig7-1" => (|c| vec![fig7_1(c)], vec![]),
        "fig7-2" => (|c| vec![fig7_2(c)], vec![]),
        "fig7-3" => (|c| vec![fig7_3(c)], vec![]),
        "fig7-4" => (|c| vec![fig7_4(c)], vec![]),
        "fig7-5" => (|c| vec![fig7_5(c)], vec![]),
        "ext-adapt" => (|c| vec![ext_adapt(c)], vec![Adapters]),
        "ext-cap" => (|c| vec![ext_cap(c)], vec![Cap]),
        "ext-sweep" => (|c| vec![ext_sweep(c)], vec![Sweep]),
        "ext-stability" => (|c| vec![ext_stability(c)], vec![Stability]),
        "ext-diversity" => (|c| vec![ext_diversity(c)], vec![Diversity]),
        "ext-ett" => (|c| vec![ext_ett(c)], vec![Ett]),
        "ext-client" => (|c| vec![ext_client(c)], vec![]),
        _ => return None,
    };
    Some(experiment)
}

/// Builds one experiment's figure(s); `None` for an unknown id. The
/// context must have folded the experiment's [`kernels`].
pub fn build(ctx: &ReproContext, id: &str) -> Option<Vec<FigureData>> {
    experiment(id).map(|(build, _)| build(ctx))
}

/// The shared analyses one experiment reads; `None` for an unknown id. A
/// context that folds only these builds the experiment's figures
/// byte-identical to one that folds every kernel.
pub fn kernels(id: &str) -> Option<Vec<Kernel>> {
    experiment(id).map(|(_, kernels)| kernels)
}

/// The dataset-file sections one experiment reads beside the meta section:
/// its kernels' PHYs, and the clients for §7; `None` for an unknown id.
/// `mesh11 figures` loads the union over its ids, and a figure built from
/// that load is byte-identical to one built from the whole file.
pub fn sections(id: &str) -> Option<Sections> {
    let kernels = kernels(id)?;
    Some(Sections {
        clients: id.starts_with("fig7-"),
        phys: [Phy::Bg, Phy::Ht]
            .into_iter()
            .filter(|phy| kernels.iter().any(|k| k.phys().contains(phy)))
            .collect(),
    })
}

const CDF_POINTS: usize = 41;

fn cdf_series(label: &str, values: &[f64]) -> Option<Series> {
    Cdf::from_samples(values.iter().copied()).map(|c| Series::from_cdf(label, &c, CDF_POINTS))
}

/// Fig 3.1 — CDFs of SNR standard deviation within probe sets, per link,
/// and per network.
pub fn fig3_1(ctx: &ReproContext) -> FigureData {
    // Each population is sorted once; the notes and the curves read the
    // same sorted sample.
    let cdf = |kind| Cdf::from_samples(ctx.snr_sigmas(kind).iter().copied());
    let (sets, links, nets) = (
        cdf(SigmaKind::ProbeSet),
        cdf(SigmaKind::Link),
        cdf(SigmaKind::Network),
    );
    let under5 = sets.as_ref().map_or(0.0, |c| c.frac_below(5.0));
    let mut fig = FigureData::new(
        "fig3-1",
        "Standard deviation of SNR values",
        "stddev (dB)",
        "CDF",
    )
    .with_note("paper: probe-set sigma < 5 dB ~97.5% of the time; network sigma much larger")
    .with_note(format!(
        "measured: probe-set sigma < 5 dB {:.1}% of the time",
        100.0 * under5
    ));
    // The paper's unpictured robustness note: σ of the k most recent SNRs
    // on a link is comparable to the within-set σ for small k.
    if let (Some(sets), Some(recent3)) = (&sets, cdf(SigmaKind::RecentK(3))) {
        let (set_med, recent_med) = (sets.median(), recent3.median());
        fig.notes.push(format!(
            "measured: median sigma of 3 most recent link SNRs {recent_med:.2} dB vs within-set {set_med:.2} dB (paper: comparable)"
        ));
    }
    for (label, c) in [("Probe Sets", sets), ("Links", links), ("Networks", nets)] {
        if let Some(c) = c {
            fig = fig.with_series(Series::from_cdf(label, &c, CDF_POINTS));
        }
    }
    fig
}

/// Fig 4.1 — every rate that was ever optimal at each SNR. Panel (a) is the
/// paper's b/g scatter; panel (b) is the 802.11n result the paper describes
/// but does not show ("a similar result holds for 802.11n").
pub fn fig4_1(ctx: &ReproContext) -> Vec<FigureData> {
    [(Phy::Bg, "a", "802.11b/g"), (Phy::Ht, "b", "802.11n")]
        .into_iter()
        .map(|(phy, suffix, name)| {
            let table = ctx.lookup_tables(Scope::Global, phy);
            let per_snr = table.optimal_rates_per_snr();
            let points: Vec<(f64, f64)> = per_snr
                .iter()
                .flat_map(|(&snr, rates)| rates.iter().map(move |r| (snr as f64, r.mbps())))
                .collect();
            let multi = per_snr.values().filter(|r| r.len() >= 2).count();
            FigureData::new(
                format!("fig4-1{suffix}"),
                format!("Optimal bit rates for different SNRs ({name})"),
                "SNR (dB)",
                "bit rate (Mbit/s)",
            )
            .with_note(
                "paper: most SNRs see >=2 different optimal rates; top rate pins at high SNR",
            )
            .with_note(format!(
                "measured: {multi}/{} SNR values saw >=2 distinct optimal rates",
                per_snr.len()
            ))
            .with_series(Series::new("ever-optimal", points))
        })
        .collect()
}

/// Figs 4.2/4.3 — number of unique rates needed per accuracy percentile,
/// one panel per scope.
pub fn fig4_2_or_3(ctx: &ReproContext, phy: Phy) -> Vec<FigureData> {
    let (figid, name) = match phy {
        Phy::Bg => ("fig4-2", "802.11b/g"),
        Phy::Ht => ("fig4-3", "802.11n"),
    };
    Scope::ALL
        .iter()
        .map(|&scope| {
            let table = ctx.lookup_tables(scope, phy);
            let mut fig = FigureData::new(
                format!("{figid}{}", panel_suffix(scope)),
                format!(
                    "Rates needed per percentile, {name}, {} scope",
                    scope.name()
                ),
                "SNR (dB)",
                "unique bit rates needed (mean over tables)",
            )
            .with_note("paper: needed rates shrink as scope specializes; n needs more than b/g");
            let pcts = [0.5, 0.8, 0.95];
            for (pct, curve) in pcts.into_iter().zip(table.rates_needed_means(&pcts)) {
                let pts = curve.into_iter().map(|(snr, mean)| (snr as f64, mean));
                fig = fig.with_series(Series::new(format!("{:.0}%", pct * 100.0), pts));
            }
            fig
        })
        .collect()
}

fn panel_suffix(scope: Scope) -> &'static str {
    match scope {
        Scope::Global => "a",
        Scope::Network => "b",
        Scope::Ap => "c",
        Scope::Link => "d",
    }
}

/// Fig 4.4 — CDF of throughput lost to table-driven selection, per scope,
/// both PHYs.
pub fn fig4_4(ctx: &ReproContext) -> Vec<FigureData> {
    [(Phy::Bg, "a", "802.11b/g"), (Phy::Ht, "b", "802.11n")]
        .into_iter()
        .map(|(phy, suffix, name)| {
            let mut fig = FigureData::new(
                format!("fig4-4{suffix}"),
                format!("Throughput loss of SNR look-up selection, {name}"),
                "throughput difference (Mbit/s)",
                "CDF",
            )
            .with_note("paper: Link ~ AP >> Network ~ Global (b/g); exact-pick ~90% b/g, ~75% n");
            for scope in Scope::ALL {
                let p = ctx.penalty(scope, phy);
                fig.notes.push(format!(
                    "measured {}: exact pick {:.1}%, mean loss {:.2} Mbit/s",
                    scope.name(),
                    100.0 * p.frac_exact(),
                    p.mean_loss_mbps()
                ));
                if !p.diffs_mbps.is_empty() {
                    let points = p.diffs_mbps.points(CDF_POINTS);
                    fig = fig.with_series(Series::new(scope.name(), points));
                }
            }
            fig
        })
        .collect()
}

/// Fig 4.5 — median throughput vs SNR per rate. Panel (a) is the paper's
/// b/g figure; panel (b) is the 802.11n result the paper describes but does
/// not plot ("levels off around 15 dB instead of 30 dB").
pub fn fig4_5(ctx: &ReproContext) -> Vec<FigureData> {
    [
        (Phy::Bg, "a", "802.11b/g", "levels off near 30 dB"),
        (
            Phy::Ht,
            "b",
            "802.11n",
            "levels off around 15 dB, higher peak",
        ),
    ]
    .into_iter()
    .map(|(phy, suffix, name, expect)| {
        let curves = ctx.snr_curves(phy);
        let mut fig = FigureData::new(
            format!("fig4-5{suffix}"),
            format!("Correlation between SNR and throughput ({name} medians)"),
            "SNR (dB)",
            "median throughput (Mbit/s)",
        )
        .with_note(format!(
            "paper: envelope rises then {expect}; spread largest on the slopes"
        ));
        if let Some(sat) = curves.saturation_snr_db(0.95) {
            fig.notes.push(format!(
                "measured: envelope reaches 95% of peak at {sat} dB"
            ));
        }
        if let (Some(p), Some(s)) = (curves.pearson(), curves.spearman()) {
            fig.notes
                .push(format!("measured: pearson {p:.3}, spearman {s:.3}"));
        }
        // 802.11n has 32 configurations; plot the single-stream long-GI
        // ladder plus the top rate to keep the panel legible (JSON export
        // still carries only the plotted series — the full grid is
        // reconstructible from the dataset).
        for (rate, medians) in &curves.per_rate {
            let keep = match phy {
                Phy::Bg => true,
                Phy::Ht => {
                    (!rate.short_gi() && rate.mcs().is_some_and(|m| m < 8))
                        || rate.kbps() == 144_400
                }
            };
            if !keep {
                continue;
            }
            let pts: Vec<(f64, f64)> = medians
                .iter()
                .map(|&(snr, median)| (snr as f64, median))
                .collect();
            fig = fig.with_series(Series::new(rate.to_string(), pts));
        }
        fig
    })
    .collect()
}

/// Fig 4.6 — accuracy of online table strategies vs probe sets seen (b/g).
pub fn fig4_6(ctx: &ReproContext) -> FigureData {
    let evals = ctx.strategy_evals_bg();
    let mut fig = FigureData::new(
        "fig4-6",
        "Accuracy of look-up table strategies (802.11b/g)",
        "probe sets seen",
        "accuracy (%)",
    )
    .with_note("paper: all strategies comparable, 80-90% accuracy");
    for e in evals {
        fig.notes.push(format!(
            "measured {}: overall {:.1}% over {} predictions",
            e.kind.name(),
            100.0 * e.overall_accuracy(),
            e.predictions
        ));
        let pts: Vec<(f64, f64)> = e
            .accuracy_curve()
            .into_iter()
            .filter(|(x, _)| *x <= 40)
            .map(|(x, accuracy)| (x as f64, accuracy))
            .collect();
        fig = fig.with_series(Series::new(e.kind.name(), pts));
    }
    fig
}

/// Table 4.1 — measured update counts and memory per strategy.
pub fn tab4_1(ctx: &ReproContext) -> FigureData {
    let evals = ctx.strategy_evals_bg();
    let mut fig = FigureData::new(
        "tab4-1",
        "Costs of look-up table strategies (measured)",
        "strategy index",
        "count",
    )
    .with_note("paper (qualitative): First low/small, MostRecent high/small, Subsampled moderate/moderate, All high/large");
    let mut updates = Vec::new();
    let mut stored = Vec::new();
    for (i, e) in evals.iter().enumerate() {
        fig.notes.push(format!(
            "[{i}] {}: {} updates, {} stored points",
            e.kind.name(),
            e.updates,
            e.stored_points
        ));
        updates.push((i as f64, e.updates as f64));
        stored.push((i as f64, e.stored_points as f64));
    }
    fig.with_series(Series::new("updates", updates))
        .with_series(Series::new("stored points", stored))
}

/// Fig 5.1 — CDFs of opportunistic improvement over ETX1 and ETX2, per
/// rate.
pub fn fig5_1(ctx: &ReproContext) -> Vec<FigureData> {
    let analyses = ctx.routing_bg();
    [(EtxVariant::Etx1, "a"), (EtxVariant::Etx2, "b")]
        .into_iter()
        .map(|(variant, suffix)| {
            let mut fig = FigureData::new(
                format!("fig5-1{suffix}"),
                format!("Opportunistic improvement over {}", variant.name()),
                "fraction improvement",
                "CDF",
            )
            .with_note(match variant {
                EtxVariant::Etx1 => "paper: mean .09-.11, median .05-.08, 13-20% of pairs see none",
                EtxVariant::Etx2 => "paper: much larger (mean .39-9.25, median .30-.86)",
            });
            for &rate in Phy::Bg.probed_rates() {
                let vals: Vec<f64> = analyses
                    .iter()
                    .filter(|a| a.rate == rate)
                    .flat_map(|a| a.improvements(variant))
                    .collect();
                if vals.is_empty() {
                    continue;
                }
                let none = vals.iter().filter(|&&v| v < 1e-9).count() as f64 / vals.len() as f64;
                fig.notes.push(format!(
                    "measured {rate}: mean {:.3}, median {:.3}, none {:.1}%",
                    mesh11_stats::mean(&vals).unwrap_or(0.0),
                    mesh11_stats::median(&vals).unwrap_or(0.0),
                    100.0 * none
                ));
                if let Some(s) = cdf_series(&rate.to_string(), &vals) {
                    fig = fig.with_series(s);
                }
            }
            fig
        })
        .collect()
}

/// Fig 5.2 — CDF of link asymmetry ratios per rate (b/g).
pub fn fig5_2(ctx: &ReproContext) -> FigureData {
    let by_rate = ctx.asymmetry_bg();
    let mut fig = FigureData::new(
        "fig5-2",
        "Link asymmetry (forward/reverse delivery ratio)",
        "asymmetry ratio",
        "CDF",
    )
    .with_note("paper: real but modest spread, stable across rates");
    for (rate, vals) in by_rate {
        if let Some(s) = cdf_series(&rate.to_string(), vals) {
            fig = fig.with_series(s);
        }
    }
    fig
}

/// Fig 5.3 — CDF of ETX1 path lengths per rate.
pub fn fig5_3(ctx: &ReproContext) -> FigureData {
    let analyses = ctx.routing_bg();
    let mut fig = FigureData::new(
        "fig5-3",
        "Path lengths (ETX1 shortest paths)",
        "path length (hops)",
        "CDF",
    )
    .with_note("paper: 30-40% one hop at low rates, >=80% under three; high rates stretch");
    for &rate in Phy::Bg.probed_rates() {
        let hops: Vec<f64> = analyses
            .iter()
            .filter(|a| a.rate == rate)
            .flat_map(|a| a.path_lengths())
            .map(f64::from)
            .collect();
        if let Some(s) = cdf_series(&rate.to_string(), &hops) {
            fig = fig.with_series(s);
        }
    }
    fig
}

/// Fig 5.4 — median and max improvement vs path length (pooled rates).
pub fn fig5_4(ctx: &ReproContext) -> FigureData {
    let rows = improvement_by_path_length(ctx.routing_bg(), EtxVariant::Etx1);
    FigureData::new(
        "fig5-4",
        "Effect of path length on opportunistic routing (ETX1)",
        "path length (hops)",
        "fraction improvement",
    )
    .with_note("paper: median improvement rises with hops; maximum falls")
    .with_series(Series::new(
        "median",
        rows.iter().map(|&(h, med, _)| (f64::from(h), med)),
    ))
    .with_series(Series::new(
        "maximum",
        rows.iter().map(|&(h, _, max)| (f64::from(h), max)),
    ))
}

/// Fig 5.5 — mean improvement vs network size at 1 Mbit/s.
pub fn fig5_5(ctx: &ReproContext) -> FigureData {
    let one = BitRate::bg_mbps(1.0).expect("1 Mbit/s exists");
    let rows = improvement_by_network_size(ctx.routing_bg(), one, EtxVariant::Etx1);
    FigureData::new(
        "fig5-5",
        "Effect of network size on opportunistic routing (1 Mbit/s, ETX1)",
        "network size (APs)",
        "mean fraction improvement",
    )
    .with_note("paper: mean and spread stay flat as size grows")
    .with_series(Series::new(
        "mean",
        rows.iter().map(|&(n, mean, _)| (n as f64, mean)),
    ))
    .with_series(Series::new(
        "stddev",
        rows.iter().map(|&(n, _, sd)| (n as f64, sd)),
    ))
}

/// The §6 hearing threshold (10%).
pub use crate::setup::TRIPLE_THRESHOLD;

/// Fig 6.1 — CDF over networks of the hidden/relevant triple fraction, per
/// rate, at the 10% threshold.
pub fn fig6_1(ctx: &ReproContext) -> FigureData {
    let analysis = ctx.triples_bg();
    let mut fig = FigureData::new(
        "fig6-1",
        "Frequency of hidden triples (threshold 10%)",
        "fraction of hidden triples",
        "CDF over networks",
    )
    .with_note("paper: median ~15% at 1 Mbit/s, rising with rate; 11 Mbit/s below 6 Mbit/s");
    for &rate in Phy::Bg.probed_rates() {
        let vals = analysis.fractions(rate, None);
        if let Some(med) = mesh11_stats::median(&vals) {
            fig.notes.push(format!(
                "measured {rate}: median {:.1}% over {} networks",
                100.0 * med,
                vals.len()
            ));
        }
        if let Some(s) = cdf_series(&rate.to_string(), &vals) {
            fig = fig.with_series(s);
        }
    }
    fig
}

/// Fig 6.2 — mean ± σ of range(rate)/range(1 Mbit/s).
pub fn fig6_2(ctx: &ReproContext) -> FigureData {
    let change = range_change_by_rate(ctx.ranges_bg(), Phy::Bg);
    let mut mean_pts = Vec::new();
    let mut sd_pts = Vec::new();
    for (rate, vals) in &change {
        if let Some(m) = mesh11_stats::mean(vals) {
            mean_pts.push((rate.mbps(), m));
            sd_pts.push((rate.mbps(), mesh11_stats::stddev(vals).unwrap_or(0.0)));
        }
    }
    FigureData::new(
        "fig6-2",
        "Change in range vs bit rate (relative to 1 Mbit/s)",
        "bit rate (Mbit/s)",
        "range ratio",
    )
    .with_note("paper: mean falls steadily with rate, with strikingly large variance")
    .with_series(Series::new("mean", mean_pts))
    .with_series(Series::new("stddev", sd_pts))
}

/// §6.3 — environment effects: hidden-triple medians and normalized range,
/// indoor vs outdoor.
pub fn sec6_3(ctx: &ReproContext) -> FigureData {
    let analysis = ctx.triples_bg();
    let one = BitRate::bg_mbps(1.0).expect("1 Mbit/s exists");
    let norm = normalized_range_by_env(ctx.meta_dataset(), ctx.ranges_bg(), one);

    let mut fig = FigureData::new(
        "sec6-3",
        "Impact of environment on hidden triples and range (1 Mbit/s)",
        "env (0=indoor, 1=outdoor)",
        "value",
    )
    .with_note(
        "paper: indoor median ~15% hidden triples, outdoor ~5%; outdoor larger range/size^2",
    );
    let mut med_pts = Vec::new();
    let mut range_pts = Vec::new();
    for (i, env) in [EnvLabel::Indoor, EnvLabel::Outdoor]
        .into_iter()
        .enumerate()
    {
        if let Some(med) = analysis.median_fraction(one, Some(env)) {
            fig.notes.push(format!(
                "measured {}: median hidden fraction {:.1}%",
                env.name(),
                100.0 * med
            ));
            med_pts.push((i as f64, med));
        }
        if let Some(vals) = norm.get(&env) {
            if let Some(m) = mesh11_stats::mean(vals) {
                fig.notes.push(format!(
                    "measured {}: mean range/size^2 = {:.3}",
                    env.name(),
                    m
                ));
                range_pts.push((i as f64, m));
            }
        }
    }
    fig.with_series(Series::new("median hidden fraction", med_pts))
        .with_series(Series::new("mean range/size^2", range_pts))
}

/// Fig 7.1 — histogram of APs visited per client.
pub fn fig7_1(ctx: &ReproContext) -> FigureData {
    let report = ctx.mobility();
    let mut hist = mesh11_stats::histogram::IntHistogram::new(21);
    for &n in &report.aps_visited {
        hist.push(n);
    }
    let pts: Vec<(f64, f64)> = hist
        .counts()
        .iter()
        .enumerate()
        .skip(1)
        .map(|(i, &c)| (i as f64, c as f64))
        .collect();
    FigureData::new(
        "fig7-1",
        "Number of APs visited by clients",
        "APs visited",
        "number of clients",
    )
    .with_note("paper: mode at 1 AP, tail past 50 APs for a few clients")
    .with_note(format!(
        "measured: {:.1}% single-AP; tail bucket (>20 APs): {} clients, max {}",
        100.0 * report.frac_single_ap(),
        hist.tail(),
        hist.tail_max()
    ))
    .with_series(Series::new("clients", pts))
}

/// Fig 7.2 — CDF of client connection lengths.
pub fn fig7_2(ctx: &ReproContext) -> FigureData {
    let report = ctx.mobility();
    let full = report.frac_full_duration(ctx.client_horizon_s());
    let mut fig = FigureData::new(
        "fig7-2",
        "Length of client connections",
        "connection length (hours)",
        "CDF",
    )
    .with_note("paper: ~23% under two hours; ~60% connected the full 11 h")
    .with_note(format!(
        "measured: {:.1}% of sessions span the full horizon",
        100.0 * full
    ));
    if let Some(s) = cdf_series("all clients", &report.connection_hours) {
        fig = fig.with_series(s);
    }
    fig
}

/// Fig 7.3 — CDF of prevalence, indoor vs outdoor.
pub fn fig7_3(ctx: &ReproContext) -> FigureData {
    let report = ctx.mobility();
    let mut fig = FigureData::new("fig7-3", "Prevalence", "prevalence", "CDF")
        .with_note("paper: indoor mean/median .07/.02; outdoor .15/.08");
    for env in [EnvLabel::Indoor, EnvLabel::Outdoor] {
        if let Some((mean, med)) = report.prevalence_stats(env) {
            fig.notes.push(format!(
                "measured {}: mean {mean:.3}, median {med:.3}",
                env.name()
            ));
        }
        if let Some(vals) = report.prevalence.get(&env) {
            if let Some(s) = cdf_series(env.name(), vals) {
                fig = fig.with_series(s);
            }
        }
    }
    fig
}

/// Fig 7.4 — CDF of persistence, indoor vs outdoor.
pub fn fig7_4(ctx: &ReproContext) -> FigureData {
    let report = ctx.mobility();
    let mut fig = FigureData::new("fig7-4", "Persistence", "persistence (minutes)", "CDF")
        .with_note(
            "paper: indoor mean/median 19.44/6.25; outdoor 38.6/25.0 (indoor switches faster)",
        );
    for env in [EnvLabel::Indoor, EnvLabel::Outdoor] {
        if let Some((mean, med)) = report.persistence_stats(env) {
            fig.notes.push(format!(
                "measured {}: mean {mean:.1} min, median {med:.1} min",
                env.name()
            ));
        }
        if let Some(vals) = report.persistence_min.get(&env) {
            if let Some(s) = cdf_series(env.name(), vals) {
                fig = fig.with_series(s);
            }
        }
    }
    fig
}

/// Fig 7.5 — median persistence vs max prevalence scatter.
pub fn fig7_5(ctx: &ReproContext) -> FigureData {
    let report = ctx.mobility();
    FigureData::new(
        "fig7-5",
        "Prevalence versus persistence",
        "median persistence (min)",
        "max prevalence",
    )
    .with_note("paper: mass in the low/low and high/high quadrants; off-diagonal quadrants empty")
    .with_series(Series::new(
        "clients",
        report.prevalence_vs_persistence.clone(),
    ))
}

/// Fig 1.1 — network locations (flavor; no analysis depends on it).
pub fn fig1_1(ctx: &ReproContext) -> FigureData {
    let mut per_loc: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for m in ctx.networks() {
        *per_loc.entry(m.location.as_str()).or_default() += 1;
    }
    let mut fig = FigureData::new("fig1-1", "Network locations", "location index", "networks")
        .with_note("paper: networks on every inhabited continent, some co-located");
    let pts: Vec<(f64, f64)> = per_loc
        .values()
        .enumerate()
        .map(|(i, &n)| (i as f64, n as f64))
        .collect();
    for (i, (loc, n)) in per_loc.iter().enumerate() {
        if i < 8 || *n > 1 {
            fig.notes.push(format!("[{i}] {loc}: {n}"));
        }
    }
    fig.with_series(Series::new("networks per location", pts))
}

/// ext-adapt — rate-adaptation replay (DESIGN.md §8): achieved throughput
/// per adapter with a 10% full-probing airtime charge.
pub fn ext_adapt(ctx: &ReproContext) -> FigureData {
    let out = ctx.adapters_ext();
    let mut fig = FigureData::new(
        "ext-adapt",
        "Rate-adaptation replay (b/g, 10% probing overhead)",
        "adapter index",
        "net throughput (Mbit/s)",
    )
    .with_note("extension: §4.5's table-guided probing vs a SampleRate-style prober");
    let mut raw = Vec::new();
    let mut net = Vec::new();
    for (i, o) in out.iter().enumerate() {
        fig.notes.push(format!(
            "[{i}] {}: raw {:.2}, net {:.2} Mbit/s ({:.1}% of oracle)",
            o.kind.name(),
            o.mean_throughput_mbps,
            o.net_throughput_mbps,
            100.0 * o.fraction_of_oracle
        ));
        raw.push((i as f64, o.mean_throughput_mbps));
        net.push((i as f64, o.net_throughput_mbps));
    }
    fig.with_series(Series::new("raw", raw))
        .with_series(Series::new("net of overhead", net))
}

/// ext-cap — opportunistic gain vs ExOR candidate cap on the largest b/g
/// network.
pub fn ext_cap(ctx: &ReproContext) -> FigureData {
    use mesh11_core::routing::ablation::improvement_vs_cap;
    let cap = ctx
        .cap_ext()
        .expect("campaigns include a ≥5-AP b/g network");
    let rows = improvement_vs_cap(&cap.matrix, &[1, 2, 3, 4, 8, usize::MAX]);
    let pts: Vec<(f64, f64)> = rows
        .iter()
        .map(|&(cap, v)| ((cap.min(16)) as f64, v))
        .collect();
    FigureData::new(
        "ext-cap",
        format!(
            "Opportunistic gain vs forwarder cap ({} APs, 1 Mbit/s)",
            cap.n_aps
        ),
        "candidate cap (∞ plotted at 16)",
        "mean improvement over ETX1",
    )
    .with_note("extension: the gain saturates within a handful of forwarders")
    .with_series(Series::new("mean improvement", pts))
}

/// ext-sweep — hidden-triple threshold sweep at 1 Mbit/s.
pub fn ext_sweep(ctx: &ReproContext) -> FigureData {
    let rows = ctx.sweep_ext();
    let pts: Vec<(f64, f64)> = rows
        .iter()
        .filter_map(|&(t, med)| med.map(|m| (t, m)))
        .collect();
    FigureData::new(
        "ext-sweep",
        "Hidden-triple fraction vs hearing threshold (1 Mbit/s)",
        "threshold",
        "median hidden fraction",
    )
    .with_note("extension: substantiates the paper's threshold-insensitivity claim")
    .with_series(Series::new("median", pts))
}

/// ext-stability — per-link optimal-rate churn and SNR drift (§4.6
/// diagnostics).
pub fn ext_stability(ctx: &ReproContext) -> FigureData {
    let s = ctx.stability_bg();
    let mut fig = FigureData::new(
        "ext-stability",
        "Temporal stability of the per-link optimum (802.11b/g)",
        "per-link churn (fraction of consecutive flips)",
        "CDF over links",
    )
    .with_note("extension: same-SNR churn is the error floor of ANY SNR-keyed table")
    .with_note(format!(
        "measured: {} links; median churn {:.3}; median SNR drift {:.2} dB",
        s.links,
        s.median_churn().unwrap_or(0.0),
        s.median_drift_db().unwrap_or(0.0)
    ))
    .with_note(format!(
        "measured: churn at same SNR key {:.1}% (over {} pairs), at different key {:.1}% ({} pairs)",
        100.0 * s.churn_same_snr,
        s.pairs.0,
        100.0 * s.churn_diff_snr,
        s.pairs.1
    ));
    if let Some(series) = cdf_series("churn", &s.churn_per_link) {
        fig = fig.with_series(series);
    }
    if let Some(series) = cdf_series("SNR drift (dB)", &s.snr_drift_per_link) {
        fig = fig.with_series(series);
    }
    fig
}

/// ext-diversity — §5.2.2's unpictured result: improvement vs the source's
/// forwarding-candidate count.
pub fn ext_diversity(ctx: &ReproContext) -> FigureData {
    let rows = ctx.diversity_ext();
    FigureData::new(
        "ext-diversity",
        "Improvement vs path diversity (1 Mbit/s, ETX1)",
        "forwarding candidates at the source",
        "fraction improvement",
    )
    .with_note("paper §5.2.2 (not pictured): median rises with diversity, maximum falls")
    .with_series(Series::new(
        "median",
        rows.iter().map(|&(d, med, _, _)| (d as f64, med)),
    ))
    .with_series(Series::new(
        "maximum",
        rows.iter().map(|&(d, _, max, _)| (d as f64, max)),
    ))
}

/// ext-ett — multi-rate ETT vs best single-rate ETX1 path speedups.
pub fn ext_ett(ctx: &ReproContext) -> FigureData {
    let analyses = ctx.ett_bg();
    let speedups: Vec<f64> = analyses.iter().flat_map(|a| a.speedups()).collect();
    let mut fig = FigureData::new(
        "ext-ett",
        "Multi-rate ETT vs best single-rate path (time speedup)",
        "speedup (×)",
        "CDF over pairs",
    )
    .with_note("extension: the ETT metric the paper's question 2 names but never evaluates");
    if let Some(med) = mesh11_stats::median(&speedups) {
        fig.notes.push(format!(
            "measured: median speedup {med:.2}x over {} pairs; {:.0}% gain >10%",
            speedups.len(),
            100.0 * speedups.iter().filter(|&&s| s > 1.1).count() as f64 / speedups.len() as f64
        ));
    }
    if let Some(series) = cdf_series("speedup", &speedups) {
        fig = fig.with_series(series);
    }
    fig
}

/// ext-client — §4.6's caveat, tested: does per-link SNR training survive
/// on client links? Static clients should look like AP links; mobile
/// clients should break the table.
pub fn ext_client(ctx: &ReproContext) -> FigureData {
    // Downlink probes over a few representative b/g networks, pulled from
    // the context's cached client-probe pass (run once, in the simulate
    // phase). The campaign itself is not re-simulated — client probing is
    // an extra measurement pass the real networks never ran.
    let pass = match ctx.client_probes() {
        Some(p) => p,
        None => return FigureData::new("ext-client", "unavailable", "", ""),
    };
    let mut probes: Vec<mesh11_trace::Probe<'_>> = Vec::new();
    let mut static_rx = std::collections::BTreeSet::new();
    let mut fast_rx = std::collections::BTreeSet::new();
    for (net, trace) in &pass.traces {
        for &rx in &trace.static_receivers {
            static_rx.insert((net.0, rx));
        }
        for &rx in &trace.fast_receivers {
            fast_rx.insert((net.0, rx));
        }
        probes.extend(trace.probes.iter());
    }
    // Online (predict-before-train) evaluation per link, as a real adapter
    // would run — in-sample scoring would let a mobile link "memorize" its
    // one-visit SNR cells and look spuriously accurate.
    let mut per_link: std::collections::BTreeMap<(u32, u32, u32), Vec<mesh11_trace::Probe<'_>>> =
        Default::default();
    for p in probes {
        per_link
            .entry((p.network.0, p.sender.0, p.receiver.0))
            .or_default()
            .push(p);
    }
    let mut stat = (0u64, 0u64); // (hits, total)
    let mut walk = (0u64, 0u64);
    let mut fast = (0u64, 0u64);
    for ((net, _, rx), sets) in per_link.iter_mut() {
        sets.sort_by(|a, b| a.time_s.partial_cmp(&b.time_s).expect("finite times"));
        let bucket = if static_rx.contains(&(*net, *rx)) {
            &mut stat
        } else if fast_rx.contains(&(*net, *rx)) {
            &mut fast
        } else {
            &mut walk
        };
        let mut table: std::collections::HashMap<i64, std::collections::BTreeMap<_, u32>> =
            Default::default();
        for p in sets.iter() {
            let snr = p.snr_key();
            let opt = p.optimal().rate;
            if let Some(counts) = table.get(&snr) {
                let pick = counts.iter().max_by(|a, b| a.1.cmp(b.1)).map(|(&r, _)| r);
                bucket.1 += 1;
                bucket.0 += u64::from(pick == Some(opt));
            }
            *table.entry(snr).or_default().entry(opt).or_insert(0) += 1;
        }
    }
    let acc = |b: (u64, u64)| {
        if b.1 > 0 {
            b.0 as f64 / b.1 as f64
        } else {
            0.0
        }
    };
    let (s_acc, w_acc, f_acc) = (acc(stat), acc(walk), acc(fast));
    FigureData::new(
        "ext-client",
        "Per-link SNR-table accuracy on client links (802.11b/g downlink)",
        "class (0 = static, 1 = pedestrian, 2 = fast mover)",
        "online exact-pick accuracy",
    )
    .with_note("paper §4.6 (untestable with its data) feared mobile degradation; we find none ON THE SETS MOBILE LINKS PRODUCE — lossy transition windows mostly never become probe sets (survivorship)")
    .with_note(format!(
        "measured: static {:.1}% ({} sets); pedestrian {:.1}% ({}); fast {:.1}% ({})",
        100.0 * s_acc, stat.1, 100.0 * w_acc, walk.1, 100.0 * f_acc, fast.1
    ))
    .with_series(Series::new(
        "accuracy",
        [(0.0, s_acc), (1.0, w_acc), (2.0, f_acc)],
    ))
}

/// Convenience for tests: the number of b/g networks with ≥5 APs in a
/// context (the §5 population).
pub fn routing_population(ctx: &ReproContext) -> usize {
    ctx.routing_bg()
        .iter()
        .map(|a| a.network)
        .collect::<std::collections::BTreeSet<NetworkId>>()
        .len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::Scale;
    use std::sync::OnceLock;

    fn ctx() -> &'static ReproContext {
        static CTX: OnceLock<ReproContext> = OnceLock::new();
        CTX.get_or_init(|| ReproContext::build(Scale::Quick, 7))
    }

    #[test]
    fn every_id_builds() {
        for id in ALL_IDS {
            let figs = build(ctx(), id).unwrap_or_else(|| panic!("unknown id {id}"));
            assert!(!figs.is_empty(), "{id} produced nothing");
            for f in &figs {
                assert!(!f.series.is_empty(), "{id}/{} has no series", f.id);
                let rendered = f.render_table(12);
                assert!(rendered.contains(&f.id));
            }
        }
        assert!(build(ctx(), "fig9-9").is_none());
    }

    #[test]
    fn routing_population_nonzero() {
        assert!(routing_population(ctx()) > 0);
    }

    #[test]
    fn fig3_1_reports_probe_set_tail() {
        let fig = fig3_1(ctx());
        assert_eq!(fig.series.len(), 3, "probe-set / link / network curves");
        // The probe-set series must be the leftmost (tightest) curve: its
        // 90th-percentile x is below the network curve's.
        let x90 = |s: &mesh11_core::report::Series| {
            s.points
                .iter()
                .find(|p| p.1 >= 0.9)
                .map(|p| p.0)
                .expect("CDF reaches 0.9")
        };
        assert!(x90(&fig.series[0]) < x90(&fig.series[2]));
    }

    #[test]
    fn fig6_2_mean_declines_overall() {
        let fig = fig6_2(ctx());
        let mean = &fig.series[0].points;
        let first = mean.first().unwrap().1;
        let last = mean.last().unwrap().1;
        assert!((first - 1.0).abs() < 1e-9, "base rate normalizes to 1");
        assert!(last < first, "range must shrink by 48 Mbit/s: {mean:?}");
    }

    #[test]
    fn fig5_4_median_and_max_cross() {
        let fig = fig5_4(ctx());
        let median = &fig.series[0].points;
        let maximum = &fig.series[1].points;
        assert!(!median.is_empty());
        // Median at depth >=3 hops is at least the 1-hop median.
        let med_at =
            |pts: &[(f64, f64)], h: f64| pts.iter().find(|p| p.0 >= h).map(|p| p.1).unwrap_or(0.0);
        assert!(med_at(median, 3.0) >= med_at(median, 1.0));
        // Maximum at the deepest observed hop is below its peak.
        let peak = maximum.iter().map(|p| p.1).fold(0.0, f64::max);
        assert!(maximum.last().unwrap().1 <= peak);
    }

    #[test]
    fn tab4_1_orderings() {
        let fig = tab4_1(ctx());
        // Series: updates then stored points, indexed First, MostRecent,
        // Subsampled, All.
        let updates: Vec<f64> = fig.series[0].points.iter().map(|p| p.1).collect();
        let stored: Vec<f64> = fig.series[1].points.iter().map(|p| p.1).collect();
        assert!(updates[0] < updates[3], "First updates < All updates");
        assert!(stored[0] <= stored[2], "First memory <= Subsampled");
        assert!(stored[2] < stored[3], "Subsampled memory < All");
    }

    #[test]
    fn ext_client_reports_three_classes() {
        let fig = ext_client(ctx());
        assert_eq!(fig.series[0].points.len(), 3);
        for (_, acc) in &fig.series[0].points {
            assert!((0.0..=1.0).contains(acc));
        }
    }
}
