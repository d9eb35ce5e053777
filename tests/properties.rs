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

/// A small encoded dataset for the decoder fuzz: the first probe sets of
/// each (network, PHY) run and the first client samples of a simulated
/// one, so the file has several probe sections and a random byte hits the
/// header, an entry or a count as often as a payload float.
fn fuzz_sample() -> &'static [u8] {
    static SAMPLE: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    SAMPLE.get_or_init(|| {
        let ds = simulate(3);
        let mut run = (None, 0);
        let probes = ds
            .probes
            .iter()
            .filter(|p| {
                let key = Some((p.network, p.phy));
                run = if run.0 == key {
                    (key, run.1 + 1)
                } else {
                    (key, 0)
                };
                run.1 < 4
            })
            .collect();
        let small = Dataset {
            probes,
            clients: ds.clients.iter().take(6).copied().collect(),
            ..ds
        };
        mesh11::trace::codec::encode(&small).to_vec()
    })
}

/// How the M11T decoder names where byte `at` of `file` lies.
fn place_of(file: &[u8], at: usize) -> String {
    if at < 6 {
        return "header: ".into();
    }
    mesh11::trace::codec::toc(file)
        .expect("the sample decodes")
        .iter()
        .enumerate()
        .find(|(_, e)| (e.offset..e.offset + e.len).contains(&(at as u64)))
        .map_or("table of contents: ".into(), |(i, e)| {
            format!("section {i} ({}): ", e.label())
        })
}

#[test]
fn codec_fuzz_sample_has_several_probe_sections() {
    let toc = mesh11::trace::codec::toc(fuzz_sample()).unwrap();
    let probes = toc
        .iter()
        .filter(|e| e.kind == mesh11::trace::codec::SectionKind::Probes)
        .count();
    assert!(probes >= 2, "{probes} probe sections");
}

#[test]
fn codec_rejects_a_version_1_file() {
    // A v1 file: header, then count-prefixed networks, horizons, probes and
    // clients, with no table of contents.
    let mut v1 = 0x4D31_3154u32.to_le_bytes().to_vec();
    v1.extend_from_slice(&1u16.to_le_bytes());
    v1.extend_from_slice(&0u32.to_le_bytes());
    v1.extend_from_slice(&[0; 32]);
    let err = mesh11::trace::codec::decode(v1.into()).expect_err("v1 file");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let msg = err.to_string();
    assert!(msg.starts_with("header: M11T version 1"), "{msg}");
    assert!(msg.contains("re-run `mesh11 simulate`"), "{msg}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whatever a file's bytes, the M11T decoder returns, and every
    /// damaged file is an error naming where the damage is: a flipped byte
    /// names its section (or the header, or the table of contents), and a
    /// truncated file names the table of contents it lost. Half the cases
    /// keep the whole file, so flips meet every section, not only a
    /// truncated file's lost table. Flips are biased toward the front
    /// (header, meta section) and the back (table of contents), where one
    /// byte steers the most.
    #[test]
    fn codec_decode_never_panics_on_damaged_input(
        truncate in proptest::bool::ANY,
        cut in 0usize..1 << 16,
        flips in proptest::collection::vec((0u8..3, 0usize..1 << 16, 1u8..=255), 0..6),
    ) {
        let full = fuzz_sample();
        let len = if truncate { cut % full.len() } else { full.len() };
        let mut bytes = full[..len].to_vec();
        for (region, at, x) in flips {
            if bytes.is_empty() {
                break;
            }
            let n = bytes.len();
            let i = match region {
                0 => at % n.min(64),
                1 => n - 1 - at % n.min(128),
                _ => at % n,
            };
            bytes[i] ^= x;
        }
        let mut places: Vec<String> = (0..len)
            .filter(|&i| bytes[i] != full[i])
            .map(|i| place_of(full, i))
            .collect();
        if len < full.len() {
            places.push(if len < 6 { "header: " } else { "table of contents: " }.into());
        }
        match mesh11::trace::codec::decode(bytes.into()) {
            Ok(ds) => {
                prop_assert!(places.is_empty(), "damage at {:?} decoded", places);
                let want = mesh11::trace::codec::decode(full.to_vec().into()).unwrap();
                prop_assert_eq!(ds, want);
            }
            Err(e) => {
                prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
                let msg = e.to_string();
                prop_assert!(
                    places.iter().any(|p| msg.starts_with(p.as_str())),
                    "{} names none of {:?}", msg, places
                );
            }
        }
    }
}
