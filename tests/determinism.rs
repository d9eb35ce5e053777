//! Reproducibility guarantees: the dataset is a pure function of the seed,
//! and both serialization paths round-trip a real simulated dataset.

use mesh11::prelude::*;

fn small_dataset(seed: u64) -> Dataset {
    let campaign = CampaignSpec::scaled(seed, 4).generate();
    let mut cfg = SimConfig::quick();
    cfg.probe_horizon_s = 1_200.0;
    cfg.client_horizon_s = 1_200.0;
    cfg.run_campaign(&campaign)
}

#[test]
fn same_seed_same_dataset() {
    assert_eq!(small_dataset(99), small_dataset(99));
}

#[test]
fn different_seed_different_dataset() {
    assert_ne!(small_dataset(99), small_dataset(100));
}

#[test]
fn binary_codec_round_trips_simulated_data() {
    let ds = small_dataset(5);
    let bytes = mesh11::trace::codec::encode(&ds);
    let back = mesh11::trace::codec::decode(bytes).expect("decode");
    assert_eq!(ds, back);
}

#[test]
fn json_round_trips_simulated_data() {
    let ds = small_dataset(6);
    let dir = std::env::temp_dir().join("mesh11-integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roundtrip.json");
    ds.save_json(&path).unwrap();
    let back = Dataset::load_json(&path).unwrap();
    assert_eq!(ds, back);
    std::fs::remove_file(&path).ok();
}

/// A quick-scale dataset (what `mesh11 simulate --scale quick` writes)
/// survives a JSON round trip. Parsing is linear in the document, so the
/// full campaign takes well under a second.
#[test]
fn json_round_trips_a_quick_scale_dataset() {
    let scale = mesh11_bench::Scale::Quick;
    let ds = scale
        .config()
        .run_campaign(&scale.campaign_spec(42).generate());
    let dir = std::env::temp_dir().join("mesh11-integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("quick.json");
    ds.save_json(&path).unwrap();
    let t = std::time::Instant::now();
    let back = Dataset::load_json(&path).unwrap();
    let load_s = t.elapsed().as_secs_f64();
    std::fs::remove_file(&path).ok();
    assert_eq!(ds, back);
    assert!(load_s < 30.0, "loading quick JSON took {load_s:.1} s");
}

#[test]
fn binary_is_compact() {
    let ds = small_dataset(7);
    let bin = mesh11::trace::codec::encode(&ds).len();
    let json = serde_json::to_vec(&ds).unwrap().len();
    assert!(
        bin * 4 < json,
        "binary ({bin} B) should be ≪ JSON ({json} B) on real data"
    );
}

/// The simulator's parallelism must be invisible: a campaign simulated on
/// one thread and on many is the same dataset, element for element.
#[test]
fn campaign_identical_across_thread_counts() {
    let run = |threads: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("build pool")
            .install(|| small_dataset(99))
    };
    assert_eq!(run(1), run(8), "dataset must not depend on thread count");
}

/// Stronger: the figure JSON a reproduction run writes is byte-identical
/// under serial and parallel figure building (shared analysis caches and
/// all).
#[test]
fn figure_json_identical_across_thread_counts() {
    use mesh11_bench::figures::{build, ALL_IDS};
    use mesh11_bench::{ReproContext, Scale};

    let render = |threads: usize| -> Vec<(String, String)> {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("build pool")
            .install(|| {
                let ctx = ReproContext::build(Scale::Quick, 11);
                ALL_IDS
                    .iter()
                    .flat_map(|id| build(&ctx, id).expect("known id"))
                    .map(|f| (f.id.clone(), f.to_json()))
                    .collect()
            })
    };
    let serial = render(1);
    let parallel = render(8);
    assert_eq!(serial.len(), parallel.len());
    for ((id_s, json_s), (id_p, json_p)) in serial.iter().zip(&parallel) {
        assert_eq!(id_s, id_p);
        assert_eq!(json_s, json_p, "figure {id_s} JSON must be byte-identical");
    }
}

/// The analyst path: a dataset that went through the M11T codec and into
/// `ReproContext::from_dataset` (what `mesh11 figures FILE` does) builds
/// Fig 4.5 byte-identical to the streamed context that simulated it. The
/// figure notes print the correlation coefficients to 3 decimals only, so
/// the full-precision check of the coefficients lives next to the kernel.
#[test]
fn file_context_builds_fig4_5_byte_identical() {
    use mesh11_bench::figures::build;
    use mesh11_bench::{ReproContext, Scale};

    let ctx = ReproContext::build(Scale::Quick, 42);
    let ds = Scale::Quick
        .config()
        .run_campaign(&Scale::Quick.campaign_spec(42).generate());
    let back = mesh11::trace::codec::decode(mesh11::trace::codec::encode(&ds)).expect("decode");
    let cfg = SimConfig {
        probe_horizon_s: back.probe_horizon_s,
        client_horizon_s: back.client_horizon_s,
        ..SimConfig::quick()
    };
    let file_ctx = ReproContext::from_dataset(back, cfg, 0);
    let json = |c: &ReproContext| -> Vec<(String, String)> {
        build(c, "fig4-5")
            .expect("known id")
            .iter()
            .map(|f| (f.id.clone(), f.to_json()))
            .collect()
    };
    let (mem, file) = (json(&ctx), json(&file_ctx));
    let ids: Vec<&str> = file.iter().map(|(id, _)| id.as_str()).collect();
    assert_eq!(ids, ["fig4-5a", "fig4-5b"]);
    assert_eq!(
        mem, file,
        "fig4-5 JSON must not depend on the dataset's path"
    );
}

/// `mesh11 figures FILE <id>` reads only the file sections
/// `figures::sections(id)` declares and folds only the kernels
/// `figures::kernels(id)` declares. Every figure built that way, from the
/// file or from the resident dataset, is byte-identical, as JSON and as
/// the printed table, to the figure built from the whole file with every
/// kernel: the kernel registry is complete. So is every figure streamed
/// from the file's parts, which are decoded once (fig4-4's penalties
/// included), both at the production part budget and at a 1-byte budget,
/// which makes each network a part of its own. The sections derived from the kernels' PHYs
/// are the ones each id read before they were derived; and a b/g-only
/// load is the full dataset without its HT rows.
#[test]
fn declared_sections_build_what_a_full_load_builds() {
    use mesh11::trace::codec::{self, PartReader, Sections, PART_BUDGET};
    use mesh11_bench::figures::{build, kernels, sections, ALL_IDS};
    use mesh11_bench::{Kernel, ReproContext, Scale};

    let read = |clients, phys: &[Phy]| Sections {
        clients,
        phys: phys.to_vec(),
    };
    for &id in ALL_IDS {
        let want = match id {
            "fig1-1" | "ext-client" => read(false, &[]),
            "fig3-1" | "fig4-1" | "fig4-4" | "fig4-5" => read(false, &[Phy::Bg, Phy::Ht]),
            "fig4-3" => read(false, &[Phy::Ht]),
            "fig7-1" | "fig7-2" | "fig7-3" | "fig7-4" | "fig7-5" => read(true, &[]),
            _ => read(false, &[Phy::Bg]),
        };
        assert_eq!(sections(id), Some(want), "{id}");
    }
    assert_eq!(sections("fig9-9"), None);

    let context = |ds: Dataset, kernels: &[Kernel]| {
        let cfg = SimConfig {
            probe_horizon_s: ds.probe_horizon_s,
            client_horizon_s: ds.client_horizon_s,
            ..SimConfig::quick()
        };
        ReproContext::from_dataset_with(ds, cfg, 0, kernels)
    };
    let render = |ctx: &ReproContext, id: &str| -> Vec<(String, String)> {
        build(ctx, id)
            .expect("known id")
            .iter()
            .map(|f| (f.to_json(), f.render_table(16)))
            .collect()
    };
    let dir = std::env::temp_dir().join("mesh11-integration");
    std::fs::create_dir_all(&dir).unwrap();
    for seed in [42, 7] {
        let scale = Scale::Quick;
        let ds = scale
            .config()
            .run_campaign(&scale.campaign_spec(seed).generate());
        let path = dir.join(format!("sections-{seed}-{}.m11t", std::process::id()));
        codec::save(&ds, &path).unwrap();
        let full = context(codec::load(&path).unwrap(), &Kernel::all());
        let streamed = |sel: &Sections, ks: &[Kernel], budget| {
            let (shell, reader) = PartReader::open(&path, sel, budget).unwrap();
            let cfg = SimConfig {
                probe_horizon_s: shell.probe_horizon_s,
                client_horizon_s: shell.client_horizon_s,
                ..SimConfig::quick()
            };
            let walks = std::cell::Cell::new(0);
            let parts = || {
                walks.set(walks.get() + 1);
                reader.parts()
            };
            let ctx = ReproContext::from_parts(shell, cfg, 0, ks, parts).unwrap();
            assert_eq!(walks.get(), 1, "the file's parts were walked twice");
            (ctx, reader.len())
        };
        for &id in ALL_IDS {
            let (sel, ks) = (sections(id).unwrap(), kernels(id).unwrap());
            let loaded = context(codec::load_sections(&path, sel.clone()).unwrap(), &ks);
            assert!(
                render(&loaded, id) == render(&full, id),
                "seed {seed}: {id} built from {sel:?} differs from a full load"
            );
            // At a 1-byte budget every network with selected rows starts a
            // part of its own.
            let with_rows: std::collections::BTreeSet<_> = ds
                .probes
                .iter()
                .filter(|p| sel.phys.contains(&p.phy))
                .map(|p| p.network)
                .collect();
            for budget in [PART_BUDGET, 1] {
                let (ctx, parts) = streamed(&sel, &ks, budget);
                if budget == 1 {
                    assert!(
                        parts >= with_rows.len(),
                        "seed {seed}: {id} in {parts} parts"
                    );
                }
                assert!(
                    render(&ctx, id) == render(&full, id),
                    "seed {seed}: {id} streamed in {parts} parts differs from a full load"
                );
            }
            let resident = context(ds.clone(), &ks);
            assert!(
                render(&resident, id) == render(&full, id),
                "seed {seed}: {id} built from its kernels differs from every kernel"
            );
        }
        let bg = codec::load_sections(
            &path,
            Sections {
                clients: true,
                phys: vec![Phy::Bg],
            },
        )
        .unwrap();
        std::fs::remove_file(&path).ok();
        let want = Dataset {
            probes: ds.probes_for_phy(Phy::Bg).collect(),
            ..ds.clone()
        };
        assert!(bg == want, "seed {seed}: b/g-only load");
    }
}

/// FNV-1a 64-bit, inlined so the golden hashes below need no dependency.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Golden output: the figure JSON of a quick-scale seed-42 run, pinned as
/// FNV-1a hashes captured from the *pre-index* (linear-scan) pipeline.
/// The indexed pipeline must keep reproducing them byte for byte; a
/// mismatch means an analysis changed what it computes, not just how fast.
/// To re-pin after an intentional output change, hash the `<id>.json`
/// files of a fresh `repro --scale quick --seed 42 --all` run.
#[test]
fn figure_json_matches_pre_index_golden_hashes() {
    use mesh11_bench::figures::{build, ALL_IDS};
    use mesh11_bench::{ReproContext, Scale};

    const GOLDEN: &[(&str, u64)] = &[
        ("ext-adapt", 0x1c1dc6274ac81b43),
        ("ext-cap", 0xb46bf76878f62290),
        // Re-pinned when the client-probe engine moved to per-client
        // derived RNG streams (previously 0xab4df52cc01b4539, the shared
        // single-stream engine); `ext_client_accuracy_survived_the_golden_
        // swap` below bounds how far the physics was allowed to move.
        ("ext-client", 0x23ef15598d9b3076),
        ("ext-diversity", 0x42145a30a40add26),
        ("ext-ett", 0x5e293e3f7c73c0a7),
        ("ext-stability", 0xf082a11e81a03e7e),
        ("ext-sweep", 0xc5983472494b7918),
        ("fig1-1", 0xfdcd0bd529b07b34),
        ("fig3-1", 0x47245e82a32be7ea),
        ("fig4-1a", 0x98ca945013ec4a4c),
        ("fig4-1b", 0x2c05291d6d0166bf),
        ("fig4-2a", 0x00e9dc3f8b83afc3),
        ("fig4-2b", 0x176133fd20b0849b),
        ("fig4-2c", 0x459a307509d6d25c),
        ("fig4-2d", 0x23665f45f8700d48),
        ("fig4-3a", 0x1c356400812f5bca),
        ("fig4-3b", 0x51634d50f050a3ce),
        ("fig4-3c", 0x6c29a73c401cdb66),
        ("fig4-3d", 0x8bfa5f53d2c57a51),
        ("fig4-4a", 0x91f3fc8a0f7fa590),
        ("fig4-4b", 0x25bb70467bdb2e9b),
        ("fig4-5a", 0x8df3cea0b357fadc),
        ("fig4-5b", 0xe2d85230b1f5440d),
        ("fig4-6", 0x6fa0165019e7ef32),
        ("fig5-1a", 0xf95b3599b2527124),
        ("fig5-1b", 0xf4322d955b25ac8b),
        ("fig5-2", 0x22549b120f65ef84),
        ("fig5-3", 0x64250f52ceb2eab0),
        ("fig5-4", 0xa833b0b23f60dabf),
        ("fig5-5", 0x0585041875346cd7),
        ("fig6-1", 0x9c27722715278370),
        ("fig6-2", 0x25564f1eb894ee7c),
        ("fig7-1", 0x6834f07a6e31d6dc),
        ("fig7-2", 0x2953ecabfe6b36e6),
        ("fig7-3", 0x1504c4a5f9d5b587),
        ("fig7-4", 0x3455ab101d755936),
        ("fig7-5", 0xf07dcacff6e81879),
        ("sec6-3", 0xee10a8e6f048e3cc),
        ("tab4-1", 0xfd138f01427a215d),
    ];

    // One worker, three and eight: the flat (kernel, network) schedule
    // must reproduce the historical bytes — not merely agree with itself —
    // at any pool width, including one whose merge window (4 × threads)
    // is not a multiple of any kernel's unit count.
    for threads in [1usize, 3, 8] {
        let mut got: Vec<(String, u64)> = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("build pool")
            .install(|| {
                let ctx = ReproContext::build(Scale::Quick, 42);
                ALL_IDS
                    .iter()
                    .flat_map(|id| build(&ctx, id).expect("known id"))
                    .map(|f| (f.id.clone(), fnv1a64(f.to_json().as_bytes())))
                    .collect()
            });
        got.sort_by(|a, b| a.0.cmp(&b.0));

        assert_eq!(
            got.len(),
            GOLDEN.len(),
            "figure count changed: {:?}",
            got.iter().map(|(id, _)| id.as_str()).collect::<Vec<_>>()
        );
        for ((id, hash), (gold_id, gold_hash)) in got.iter().zip(GOLDEN) {
            assert_eq!(id, gold_id, "figure id set changed");
            assert_eq!(
                hash, gold_hash,
                "figure {id} JSON diverged from the pre-index golden output \
                 at {threads} threads"
            );
        }
    }
}

/// The sharded client-probe pass is thread-count invariant on its own:
/// per-client derived RNG streams plus the stable k-way merge must yield
/// identical traces however rayon schedules the clients.
#[test]
fn client_probes_identical_across_thread_counts() {
    use mesh11::sim::simulate_client_probes;

    let net = CampaignSpec::small(42)
        .generate()
        .networks
        .into_iter()
        .find(|n| n.has_bg() && n.size() >= 5)
        .expect("small campaign has a b/g network");
    let cfg = SimConfig::quick();
    let run = |threads: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("build pool")
            .install(|| simulate_client_probes(&net, &cfg))
    };
    assert_eq!(run(1), run(8), "client traces must not depend on threads");
}

/// Same guarantee one layer up: the client-probe pass cached on the
/// reproduction context (computed in the simulate phase, consumed by the
/// ext-client figure) is identical at any thread count.
#[test]
fn cached_client_pass_identical_across_thread_counts() {
    use mesh11_bench::setup::ClientProbePass;
    use mesh11_bench::{ReproContext, Scale};

    let run = |threads: usize| -> ClientProbePass {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("build pool")
            .install(|| {
                ReproContext::build(Scale::Quick, 11)
                    .client_probes()
                    .expect("quick scale has a campaign")
                    .clone()
            })
    };
    let serial = run(1);
    let parallel = run(8);
    assert_eq!(serial.clients_simulated, parallel.clients_simulated);
    assert_eq!(serial.traces, parallel.traces);
}

/// The golden-swap acceptance check: re-keying the client-probe RNG per
/// client changed ext-client's bytes, but the three per-class accuracies
/// must stay within 2 percentage points of the pre-shard engine wherever
/// the class is statistically resolvable. The pedestrian and fast classes
/// produce only a handful of probe sets at quick scale, so the tolerance
/// widens to three binomial standard errors of the *difference* when that
/// exceeds 2 pp — with ~9 fast sets, a 2 pp band would be noise-tight.
#[test]
fn ext_client_accuracy_survived_the_golden_swap() {
    use mesh11_bench::figures::build;
    use mesh11_bench::{ReproContext, Scale};

    // Accuracy and set count per class from the pre-shard engine's
    // quick/42 run (the run that produced golden 0xab4df52cc01b4539).
    const OLD: [(f64, f64); 3] = [
        (0.9012345679012346, 6966.0), // static
        (0.9185185185185185, 270.0),  // pedestrian
        (0.7777777777777778, 9.0),    // fast
    ];

    let ctx = ReproContext::build(Scale::Quick, 42);
    let fig = build(&ctx, "ext-client")
        .expect("known id")
        .pop()
        .expect("one figure");
    let points = &fig.series[0].points;
    assert_eq!(points.len(), 3, "one accuracy per mobility class");

    // Set counts live in the "measured:" note as "(N sets); ... (N); (N)".
    let note = fig
        .notes
        .iter()
        .find(|n| n.starts_with("measured:"))
        .expect("measured note");
    let counts: Vec<f64> = note
        .split('(')
        .skip(1)
        .map(|seg| {
            let digits: String = seg.chars().take_while(char::is_ascii_digit).collect();
            digits.parse().expect("count in note")
        })
        .collect();
    assert_eq!(counts.len(), 3, "one set count per class: {note}");

    for (k, name) in ["static", "pedestrian", "fast"].iter().enumerate() {
        let (old_acc, old_n) = OLD[k];
        let (new_acc, new_n) = (points[k].1, counts[k]);
        let se_diff =
            (old_acc * (1.0 - old_acc) / old_n + new_acc * (1.0 - new_acc) / new_n).sqrt();
        let tol = (3.0 * se_diff).max(0.02);
        assert!(
            (new_acc - old_acc).abs() <= tol,
            "{name}: accuracy {new_acc:.4} (n={new_n}) vs pre-shard {old_acc:.4} \
             (n={old_n}) exceeds tolerance {tol:.4}"
        );
    }
}

#[test]
fn analyses_are_deterministic_over_identical_data() {
    let a = small_dataset(8);
    let b = small_dataset(8);
    let ixa = DatasetIndex::build(&a);
    let ixb = DatasetIndex::build(&b);
    let ta = LookupTableSet::build(DatasetView::new(&a, &ixa), Scope::Link, Phy::Bg)
        .exact_accuracy(DatasetView::new(&a, &ixa));
    let tb = LookupTableSet::build(DatasetView::new(&b, &ixb), Scope::Link, Phy::Bg)
        .exact_accuracy(DatasetView::new(&b, &ixb));
    assert_eq!(ta, tb);
}
