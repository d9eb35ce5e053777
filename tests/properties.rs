//! Cross-crate property tests on *simulated* data: invariants that must
//! hold on any dataset the pipeline can produce, checked over many seeds.

use mesh11::core::routing::{EtxVariant, ExorTable, PathTable};
use mesh11::core::triples::hidden::count_triples;
use mesh11::core::triples::{HearRule, HearingGraph};
use mesh11::prelude::*;
use proptest::prelude::*;

/// A tiny but real simulated dataset per seed (kept small: proptest runs
/// many cases).
fn simulate(seed: u64) -> Dataset {
    let campaign = CampaignSpec::scaled(seed, 2).generate();
    let mut cfg = SimConfig::quick();
    cfg.probe_horizon_s = 900.0;
    cfg.client_horizon_s = 900.0;
    cfg.run_campaign(&campaign)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn probe_sets_are_well_formed(seed in 0u64..500) {
        let ds = simulate(seed);
        for p in &ds.probes {
            prop_assert!(!p.obs.is_empty());
            prop_assert!(p.snr_db().is_finite());
            prop_assert!(p.snr_stddev() >= 0.0);
            let best = p.optimal();
            for o in p.obs {
                prop_assert!((0.0..=1.0).contains(&o.loss));
                prop_assert!(o.throughput_mbps() <= best.throughput_mbps() + 1e-9);
            }
        }
    }

    #[test]
    fn delivery_matrices_are_probabilities(seed in 0u64..500) {
        let ds = simulate(seed);
        for meta in &ds.networks {
            for &rate in Phy::Bg.probed_rates() {
                let m = DeliveryMatrix::from_probes(
                    meta.id, rate, meta.n_aps, ds.probes.iter());
                for (_, _, p) in m.directed_pairs() {
                    prop_assert!((0.0..=1.0).contains(&p));
                }
            }
        }
    }

    #[test]
    fn routing_invariants_on_simulated_matrices(seed in 0u64..500) {
        let ds = simulate(seed);
        let rate = BitRate::bg_mbps(11.0).unwrap();
        for meta in ds.networks_with_at_least(3) {
            if !meta.radios.contains(&Phy::Bg) { continue; }
            let m = DeliveryMatrix::from_probes(meta.id, rate, meta.n_aps, ds.probes.iter());
            let etx1 = PathTable::compute(&m, EtxVariant::Etx1);
            let etx2 = PathTable::compute(&m, EtxVariant::Etx2);
            let exor = ExorTable::compute(&m, &etx1, EtxVariant::Etx1);
            for (s, d) in etx1.reachable_pairs() {
                let e1 = etx1.cost(s, d);
                prop_assert!(e1 >= 1.0 - 1e-9);
                prop_assert!(exor.cost(s, d) <= e1 + 1e-9, "opportunism never hurts");
                // ETX2 path (if it exists) costs at least the ETX1 path.
                let e2 = etx2.cost(s, d);
                if e2.is_finite() {
                    prop_assert!(e2 >= e1 - 1e-9);
                }
            }
        }
    }

    #[test]
    fn hearing_graphs_are_symmetric_and_monotone_in_threshold(seed in 0u64..500) {
        let ds = simulate(seed);
        let rate = BitRate::bg_mbps(1.0).unwrap();
        for meta in &ds.networks {
            if !meta.radios.contains(&Phy::Bg) || meta.n_aps < 3 { continue; }
            let m = DeliveryMatrix::from_probes(meta.id, rate, meta.n_aps, ds.probes.iter());
            let loose = HearingGraph::build(&m, 0.10, HearRule::Mean);
            let tight = HearingGraph::build(&m, 0.50, HearRule::Mean);
            prop_assert!(tight.edge_count() <= loose.edge_count());
            for a in 0..meta.n_aps {
                for b in 0..meta.n_aps {
                    prop_assert_eq!(loose.hears(a, b), loose.hears(b, a));
                    // Tight edges are a subset of loose edges.
                    if tight.hears(a, b) {
                        prop_assert!(loose.hears(a, b));
                    }
                }
            }
            let c = count_triples(&loose);
            prop_assert!(c.hidden <= c.relevant);
        }
    }

    #[test]
    fn session_reconstruction_conserves_time(seed in 0u64..500) {
        let ds = simulate(seed);
        let sessions = ClientSessions::build(&ds);
        for s in &sessions.sessions {
            // Bins strictly increasing and consecutive.
            for w in s.bins.windows(2) {
                prop_assert_eq!(w[1].0, w[0].0 + 1);
            }
            // Prevalence sums to 1; persistence runs cover every bin.
            let prev_total: f64 = s.prevalence().iter().map(|p| p.1).sum();
            prop_assert!((prev_total - 1.0).abs() < 1e-9);
            let run_total: usize = s.persistence_runs().iter().map(|r| r.1).sum();
            prop_assert_eq!(run_total, s.bins.len());
        }
    }

    #[test]
    fn simulated_datasets_validate_cleanly(seed in 0u64..500) {
        let ds = simulate(seed);
        let violations = ds.validate(20);
        prop_assert!(violations.is_empty(), "violations: {violations:?}");
    }

    #[test]
    fn codec_round_trips_any_simulated_dataset(seed in 0u64..500) {
        let ds = simulate(seed);
        let back = mesh11::trace::codec::decode(mesh11::trace::codec::encode(&ds)).unwrap();
        prop_assert_eq!(ds, back);
    }
}

/// A small encoded dataset for the decoder fuzz: the first probe sets and
/// client samples of a simulated one, so a random byte hits a header or a
/// count as often as a payload float.
fn fuzz_sample() -> &'static [u8] {
    static SAMPLE: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    SAMPLE.get_or_init(|| {
        let ds = simulate(3);
        let small = Dataset {
            probes: ds.probes.iter().take(24).collect(),
            clients: ds.clients.iter().take(6).copied().collect(),
            ..ds
        };
        mesh11::trace::codec::encode(&small).to_vec()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whatever a file's bytes, the M11T decoder returns: truncations and
    /// byte flips anywhere (biased toward the header and counts at the
    /// front) decode or fail with an error, and never panic or abort on
    /// an allocation sized from a corrupt count.
    #[test]
    fn codec_decode_never_panics_on_damaged_input(
        cut in 0usize..1 << 16,
        flips in proptest::collection::vec((proptest::bool::ANY, 0usize..1 << 16, 1u8..=255), 0..6),
    ) {
        let full = fuzz_sample();
        let mut bytes = full[..cut % (full.len() + 1)].to_vec();
        for (front, at, x) in flips {
            if bytes.is_empty() {
                break;
            }
            let span = if front { bytes.len().min(64) } else { bytes.len() };
            bytes[at % span] ^= x;
        }
        let decoded = mesh11::trace::codec::decode(bytes.into());
        if let Ok(ds) = decoded {
            // Anything that decodes is analyzable: every set passed the
            // record check.
            for p in &ds.probes {
                prop_assert!(!p.obs.is_empty());
                prop_assert!(p.snr_db().is_finite());
            }
        }
    }
}
