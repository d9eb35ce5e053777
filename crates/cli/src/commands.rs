//! The `simulate` / `inspect` / `analyze` subcommands.

use std::collections::BTreeMap;
use std::path::Path;

use mesh11_core::bitrate::{Scope, StrategyKind, ThroughputPenalty};
use mesh11_core::mobility::MobilityReport;
use mesh11_core::routing::improvement::analyze_dataset;
use mesh11_core::routing::EtxVariant;
use mesh11_core::triples::{HearRule, TripleAnalysis};
use mesh11_phy::Phy;
use mesh11_sim::SimConfig;
use mesh11_topo::CampaignSpec;
use mesh11_trace::codec::{self, Sections};
use mesh11_trace::{Dataset, DatasetIndex, DatasetView, EnvLabel};

use crate::{is_json, load_dataset, SimulateArgs};

/// `mesh11 simulate …`
pub fn simulate(args: &[String]) -> Result<(), String> {
    let args = SimulateArgs::parse(args)?;
    let spec = if let Some(path) = &args.spec {
        let raw =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        serde_json::from_str::<CampaignSpec>(&raw)
            .map_err(|e| format!("parse {}: {e}", path.display()))?
    } else {
        match (args.scale.as_str(), args.networks) {
            (_, Some(n)) => CampaignSpec::scaled(args.seed, n),
            ("quick", None) => CampaignSpec::small(args.seed),
            ("standard" | "paper" | "full", None) => CampaignSpec::paper(args.seed),
            (other, None) => return Err(format!("unknown scale '{other}'")),
        }
    };
    let cfg = match args.scale.as_str() {
        "quick" => SimConfig::quick(),
        "standard" => SimConfig::standard(),
        "paper" | "full" => SimConfig::paper(),
        _ => SimConfig::quick(),
    };
    let dataset = if args.seeds > 1 {
        eprintln!(
            "simulating {} networks × {} seeds at scale '{}' (seeds {}..{}) …",
            spec.len(),
            args.seeds,
            args.scale,
            spec.seed,
            spec.seed + args.seeds as u64 - 1
        );
        simulate_ensemble(&spec, &cfg, args.seeds)
    } else {
        eprintln!(
            "simulating {} networks at scale '{}' (seed {}) …",
            spec.len(),
            args.scale,
            args.seed
        );
        let campaign = spec.generate();
        cfg.run_campaign(&campaign)
    };
    if args.json {
        dataset
            .save_json(&args.out)
            .map_err(|e| format!("write {}: {e}", args.out.display()))?;
    } else {
        mesh11_trace::codec::save(&dataset, &args.out)
            .map_err(|e| format!("write {}: {e}", args.out.display()))?;
    }
    eprintln!(
        "wrote {} ({} probe sets, {} client samples)",
        args.out.display(),
        dataset.probes.len(),
        dataset.clients.len()
    );
    Ok(())
}

/// Runs `n_seeds` consecutive-seed replicas of `base` as one fused batched
/// campaign and merges them into a single dataset: seed `base.seed + k`
/// occupies network ids `k·n .. (k+1)·n`. Each replica's rows are
/// byte-identical to a standalone `simulate --seed base.seed+k` run (only
/// the ids shift), so downstream analyses see the ensemble as one larger
/// campaign.
fn simulate_ensemble(base: &CampaignSpec, cfg: &SimConfig, n_seeds: usize) -> Dataset {
    let campaigns: Vec<_> = (0..n_seeds as u64)
        .map(|k| {
            let mut spec = base.clone();
            spec.seed = base.seed + k;
            spec.generate()
        })
        .collect();
    let refs: Vec<&mesh11_topo::Campaign> = campaigns.iter().collect();
    let table = mesh11_phy::shared_success_table(mesh11_phy::PerModel::default());
    let n_networks = base.len() as u32;
    let mut merged = Dataset::default();
    for (k, (mut dataset, _)) in cfg
        .run_campaigns_counted_with_table(&refs, table)
        .into_iter()
        .enumerate()
    {
        dataset.offset_network_ids(k as u32 * n_networks);
        merged.merge(dataset);
    }
    merged.probe_horizon_s = cfg.probe_horizon_s;
    merged.client_horizon_s = cfg.client_horizon_s;
    merged
}

/// `mesh11 inspect FILE`
pub fn inspect(path: &Path) -> Result<(), String> {
    // A full load reads every section and checks every checksum.
    let ds = load_dataset(path, Sections::all())?;
    println!("dataset: {}", path.display());
    if !is_json(path) {
        let toc = codec::load_toc(path).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("  sections: {} (every checksum verified)", toc.len());
        println!(
            "    {:>4}  {:8} {:9} {:>9} {:>10} {:>10} {:>8}",
            "#", "kind", "phy", "networks", "offset", "bytes", "records"
        );
        for (i, e) in toc.iter().enumerate() {
            let phy = e.phy.map_or("-".to_owned(), |p| p.to_string());
            let (lo, hi) = (e.networks.0 .0, e.networks.1 .0);
            let nets = match (e.records, lo == hi) {
                (0, _) => "-".to_owned(),
                (_, true) => lo.to_string(),
                (_, false) => format!("{lo}-{hi}"),
            };
            println!(
                "    {i:>4}  {:8} {phy:9} {nets:>9} {:>10} {:>10} {:>8}",
                e.kind.name(),
                e.offset,
                e.len,
                e.records
            );
        }
    }
    println!(
        "  horizons: probes {:.1} h, clients {:.1} h",
        ds.probe_horizon_s / 3600.0,
        ds.client_horizon_s / 3600.0
    );
    println!(
        "  networks: {} ({} APs total)",
        ds.networks.len(),
        ds.total_aps()
    );
    let mut by_env: BTreeMap<EnvLabel, usize> = BTreeMap::new();
    let mut by_phy: BTreeMap<String, usize> = BTreeMap::new();
    for m in &ds.networks {
        *by_env.entry(m.env).or_default() += 1;
        let key = m
            .radios
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join("+");
        *by_phy.entry(key).or_default() += 1;
    }
    for (env, n) in by_env {
        println!("    {:8} {n}", env.name());
    }
    for (phy, n) in by_phy {
        println!("    {phy:16} {n}");
    }
    println!("  probe sets: {}", ds.probes.len());
    println!(
        "  directed links with reports: {}",
        ds.link_report_counts().len()
    );
    println!("  client samples: {}", ds.clients.len());
    let clients: std::collections::BTreeSet<_> =
        ds.clients.iter().map(|c| (c.network, c.client)).collect();
    println!("  distinct clients: {}", clients.len());
    let violations = ds.validate(10);
    if violations.is_empty() {
        println!("  integrity: ok");
    } else {
        println!("  integrity: {} problem(s), e.g.:", violations.len());
        for v in &violations {
            println!("    - {v}");
        }
    }
    Ok(())
}

/// `mesh11 analyze FILE [section]`
pub fn analyze(path: &Path, what: &str) -> Result<(), String> {
    let ds = load_dataset(path, Sections::all())?;
    let ix = DatasetIndex::build(&ds);
    let view = DatasetView::new(&ds, &ix);
    let all = what == "all";
    let mut ran = false;
    if all || what == "bitrate" {
        bitrate(view);
        ran = true;
    }
    if all || what == "routing" {
        routing(view);
        ran = true;
    }
    if all || what == "triples" {
        triples(view);
        ran = true;
    }
    if all || what == "mobility" {
        mobility(&ds);
        ran = true;
    }
    if !ran {
        return Err(format!(
            "unknown analysis '{what}' (want bitrate|routing|triples|mobility|all)"
        ));
    }
    Ok(())
}

/// `mesh11 figures FILE <id>...` — runs the repro figure builders against a
/// dataset file, reading only the sections the ids declare and folding
/// only the kernels they read. Figures needing topology ground truth
/// (`ext-client`) report themselves unavailable; everything else works on
/// any dataset.
pub fn figures(path: &Path, ids: &[String]) -> Result<(), String> {
    let ids: Vec<String> = if ids.iter().any(|a| a == "--all") {
        mesh11_bench::figures::ALL_IDS
            .iter()
            .map(|s| s.to_string())
            .collect()
    } else if ids.is_empty() {
        return Err("figures needs experiment ids or --all".into());
    } else {
        ids.to_vec()
    };
    let mut kernels = Vec::new();
    let mut sections = Sections::default();
    for id in &ids {
        let Some(k) = mesh11_bench::figures::kernels(id) else {
            return Err(format!("unknown experiment id '{id}'"));
        };
        kernels.extend(k);
        sections = sections.union(
            &mesh11_bench::figures::sections(id).expect("an id with kernels declares its sections"),
        );
    }
    let ds = load_dataset(path, sections)?;
    let cfg = SimConfig {
        probe_horizon_s: ds.probe_horizon_s,
        client_horizon_s: ds.client_horizon_s,
        ..SimConfig::quick()
    };
    let ctx = mesh11_bench::ReproContext::from_dataset_with(ds, cfg, 0, &kernels);
    for id in &ids {
        let figs = mesh11_bench::figures::build(&ctx, id).expect("an id with kernels builds");
        for fig in figs {
            println!("{}", fig.render_table(16));
        }
    }
    Ok(())
}

fn bitrate(view: DatasetView<'_>) {
    println!("== §4 bit rate analysis ==");
    for phy in [Phy::Bg, Phy::Ht] {
        if view.probes_for_phy(phy).next().is_none() {
            continue;
        }
        println!("  {phy}:");
        for scope in Scope::ALL {
            let p = ThroughputPenalty::for_scope(view, scope, phy);
            println!(
                "    {:8} exact {:5.1}%  mean loss {:.2} Mbit/s",
                scope.name(),
                100.0 * p.frac_exact(),
                p.mean_loss_mbps()
            );
        }
    }
    let evals =
        mesh11_core::bitrate::strategy::evaluate_strategies(view, Phy::Bg, &StrategyKind::ALL);
    for e in evals {
        println!(
            "  strategy {:12} accuracy {:5.1}% ({} updates, {} stored)",
            e.kind.name(),
            100.0 * e.overall_accuracy(),
            e.updates,
            e.stored_points
        );
    }
}

fn routing(view: DatasetView<'_>) {
    println!("== §5 opportunistic routing ==");
    let analyses = analyze_dataset(view, Phy::Bg, 5);
    for variant in EtxVariant::ALL {
        let imps: Vec<f64> = analyses
            .iter()
            .flat_map(|a| a.improvements(variant))
            .collect();
        if imps.is_empty() {
            continue;
        }
        let none = imps.iter().filter(|&&x| x < 1e-9).count() as f64 / imps.len() as f64;
        println!(
            "  vs {}: mean {:.3}, median {:.3}, no improvement {:.1}% ({} pairs)",
            variant.name(),
            mesh11_stats::mean(&imps).unwrap_or(0.0),
            mesh11_stats::median(&imps).unwrap_or(0.0),
            100.0 * none,
            imps.len()
        );
    }
    let ett = mesh11_core::routing::ett::analyze_ett(view, Phy::Bg, 5);
    let speedups: Vec<f64> = ett.iter().flat_map(|a| a.speedups()).collect();
    if !speedups.is_empty() {
        println!(
            "  ETT multi-rate vs best single-rate: median speedup {:.2}x over {} pairs",
            mesh11_stats::median(&speedups).unwrap_or(1.0),
            speedups.len()
        );
    }
}

fn triples(view: DatasetView<'_>) {
    println!("== §6 hidden triples ==");
    let t = TripleAnalysis::run(view, Phy::Bg, 0.10, HearRule::Mean);
    for &rate in Phy::Bg.probed_rates() {
        if let Some(med) = t.median_fraction(rate, None) {
            println!("  {:>12}: median {:5.1}%", rate.to_string(), 100.0 * med);
        }
    }
}

fn mobility(ds: &Dataset) {
    println!("== §7 client mobility ==");
    let r = MobilityReport::build(ds);
    println!(
        "  sessions {}, single-AP {:.0}%, full-duration {:.0}%",
        r.aps_visited.len(),
        100.0 * r.frac_single_ap(),
        100.0 * r.frac_full_duration(ds.client_horizon_s)
    );
    for env in [EnvLabel::Indoor, EnvLabel::Outdoor] {
        if let (Some((pm, pd)), Some((sm, sd))) =
            (r.prevalence_stats(env), r.persistence_stats(env))
        {
            println!(
                "  {:8} prevalence {pm:.3}/{pd:.3}  persistence {sm:.1}/{sd:.1} min (mean/median)",
                env.name()
            );
        }
    }
}
