//! End-to-end integration: campaign → simulator → dataset → every analysis,
//! asserting the paper's qualitative findings on a seeded quick-scale run.

use mesh11::core::routing::improvement::analyze_dataset;
use mesh11::prelude::*;
use mesh11::trace::snrstats::{self, SigmaKind};
use mesh11::trace::EnvLabel;
use std::sync::OnceLock;

fn dataset() -> &'static Dataset {
    static DS: OnceLock<Dataset> = OnceLock::new();
    DS.get_or_init(|| {
        let campaign = CampaignSpec::small(42).generate();
        SimConfig::quick().run_campaign(&campaign)
    })
}

fn view() -> DatasetView<'static> {
    static IX: OnceLock<DatasetIndex> = OnceLock::new();
    DatasetView::new(dataset(), IX.get_or_init(|| DatasetIndex::build(dataset())))
}

#[test]
fn dataset_has_both_record_streams() {
    let ds = dataset();
    assert_eq!(ds.networks.len(), 12);
    assert!(ds.probes.len() > 1_000, "got {}", ds.probes.len());
    assert!(ds.clients.len() > 100, "got {}", ds.clients.len());
    // Every probe set is well formed.
    for p in &ds.probes {
        assert!(!p.obs.is_empty());
        assert!(p.time_s > 0.0 && p.time_s <= ds.probe_horizon_s);
        for o in p.obs {
            assert!((0.0..=1.0).contains(&o.loss), "loss {}", o.loss);
            assert!(o.snr_db.is_finite());
            assert_eq!(o.rate.phy(), p.phy);
        }
    }
}

#[test]
fn fig3_1_shape_probe_set_sigma_small() {
    let sigmas = snrstats::sigmas(view(), SigmaKind::ProbeSet);
    let under5 = sigmas.iter().filter(|&&s| s < 5.0).count() as f64 / sigmas.len() as f64;
    assert!(
        under5 > 0.9,
        "probe-set SNR σ should be < 5 dB the vast majority of the time: {under5}"
    );
    // And the network-level spread must dominate the probe-set spread.
    let net = snrstats::sigmas(view(), SigmaKind::Network);
    let med_set = mesh11::stats::median(&sigmas).unwrap();
    let med_net = mesh11::stats::median(&net).unwrap();
    assert!(
        med_net > 2.0 * med_set,
        "network σ {med_net} vs set σ {med_set}"
    );
}

#[test]
fn sec4_scope_ordering_and_link_accuracy() {
    let v = view();
    let acc: Vec<f64> = [Scope::Global, Scope::Network, Scope::Ap, Scope::Link]
        .iter()
        .map(|&s| LookupTableSet::build(v, s, Phy::Bg).exact_accuracy(v))
        .collect();
    // Monotone in specificity (small slack for sampling noise).
    for w in acc.windows(2) {
        assert!(w[1] >= w[0] - 0.02, "scope ordering violated: {acc:?}");
    }
    assert!(
        acc[3] > 0.85,
        "per-link accuracy should be high: {}",
        acc[3]
    );
    assert!(
        acc[3] - acc[0] > 0.08,
        "per-link must clearly beat global: {acc:?}"
    );
}

#[test]
fn sec4_penalty_cdf_scope_ordering() {
    let v = view();
    let global = ThroughputPenalty::for_scope(v, Scope::Global, Phy::Bg);
    let link = ThroughputPenalty::for_scope(v, Scope::Link, Phy::Bg);
    assert!(link.mean_loss_mbps() < global.mean_loss_mbps());
    assert!(link.frac_exact() > global.frac_exact());
}

#[test]
fn sec4_ht_needs_more_rates_than_bg() {
    let v = view();
    let bg = LookupTableSet::build(v, Scope::Link, Phy::Bg);
    let ht = LookupTableSet::build(v, Scope::Link, Phy::Ht);
    // Mean number of rates to hit 95%, pooled over cells.
    let mean_needed = |t: &LookupTableSet| {
        let curve = t.rates_needed_curve(0.95);
        let rows = curve.rows();
        let total: f64 = rows.iter().map(|(_, s)| s.mean * s.count as f64).sum();
        let n: usize = rows.iter().map(|(_, s)| s.count).sum();
        total / n as f64
    };
    assert!(
        mean_needed(&ht) > mean_needed(&bg),
        "802.11n's bigger rate set must need more rates per cell"
    );
}

#[test]
fn sec5_exor_never_beats_etx1_backwards() {
    // ExOR cost ≤ ETX1 cost on every simulated pair (the §5 invariant on
    // real topologies, not just random proptest graphs).
    let analyses = analyze_dataset(view(), Phy::Bg, 5);
    assert!(!analyses.is_empty());
    for a in &analyses {
        for p in &a.pairs {
            assert!(
                p.exor <= p.etx1 + 1e-9,
                "{}@{}: exor {} > etx1 {}",
                a.network,
                a.rate,
                p.exor,
                p.etx1
            );
            assert!(p.etx1 >= 1.0 - 1e-9, "path cost below one transmission");
        }
    }
}

#[test]
fn sec5_etx2_improvement_dominates_etx1() {
    let analyses = analyze_dataset(view(), Phy::Bg, 5);
    let mean1: f64 = {
        let v: Vec<f64> = analyses
            .iter()
            .flat_map(|a| a.improvements(EtxVariant::Etx1))
            .collect();
        mesh11::stats::mean(&v).unwrap()
    };
    let mean2: f64 = {
        let v: Vec<f64> = analyses
            .iter()
            .flat_map(|a| a.improvements(EtxVariant::Etx2))
            .collect();
        mesh11::stats::mean(&v).unwrap()
    };
    assert!(
        mean2 > mean1,
        "ETX2 improvement {mean2} must exceed ETX1 {mean1}"
    );
    // And some pairs see exactly zero improvement (diversity-free paths).
    let none: f64 = {
        let v: Vec<f64> = analyses
            .iter()
            .flat_map(|a| a.improvements(EtxVariant::Etx1))
            .collect();
        v.iter().filter(|&&x| x < 1e-9).count() as f64 / v.len() as f64
    };
    assert!(none > 0.05, "some pairs must see no improvement: {none}");
}

#[test]
fn sec6_hidden_triples_exist_and_grow_with_rate() {
    let t = TripleAnalysis::run(view(), Phy::Bg, 0.10, HearRule::Mean);
    let one = BitRate::bg_mbps(1.0).unwrap();
    let high = BitRate::bg_mbps(36.0).unwrap();
    let med_low = t.median_fraction(one, None).expect("1 Mbit/s data");
    let med_high = t.median_fraction(high, None).expect("36 Mbit/s data");
    assert!(
        med_low > 0.02,
        "hidden triples must exist at 1 Mbit/s: {med_low}"
    );
    assert!(
        med_high > med_low,
        "hidden triples must grow with rate: {med_low} → {med_high}"
    );
}

#[test]
fn sec6_range_shrinks_with_rate() {
    let ranges = mesh11::core::triples::range_by_rate(view(), Phy::Bg, 0.10, HearRule::Mean);
    let change = mesh11::core::triples::range_change_by_rate(&ranges, Phy::Bg);
    let mean_at = |mbps: f64| {
        let r = BitRate::bg_mbps(mbps).unwrap();
        mesh11::stats::mean(&change[&r]).unwrap()
    };
    assert!((mean_at(1.0) - 1.0).abs() < 1e-9, "base normalizes to 1");
    assert!(mean_at(12.0) < 1.0);
    assert!(mean_at(48.0) < mean_at(12.0));
}

#[test]
fn sec7_mobility_shapes() {
    let ds = dataset();
    let report = MobilityReport::build(ds);
    assert!(report.frac_single_ap() > 0.4, "mode must be one AP");
    assert!(
        report.frac_full_duration(ds.client_horizon_s) > 0.3,
        "a large share of clients stays the whole trace"
    );
    // Prevalence values are probabilities; persistence positive.
    for vals in report.prevalence.values() {
        assert!(vals.iter().all(|v| (0.0..=1.0 + 1e-9).contains(v)));
    }
    for vals in report.persistence_min.values() {
        assert!(vals.iter().all(|&v| v > 0.0));
    }
    // Indoor env data must exist (majority environment).
    assert!(report.prevalence.contains_key(&EnvLabel::Indoor));
}
