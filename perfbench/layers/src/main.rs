//! `perfbench-layers` — the compiled half of the mesh11 benchmark
//! (`perfbench/run.py` drives it).
//!
//! ```text
//! perfbench-layers pool   --workload W --count N
//! perfbench-layers census --workload W --from A --count N
//! perfbench-layers setup  --workload W --campaign-seed C [--file F]
//! perfbench-layers trace  --workload W --campaign-seed C --dir D [--file F]
//! ```
//!
//! * `pool` lists the campaign seeds whose size [`Signature`] sits within a
//!   narrow band of the workload's target; `perfbench/seeds.json` records
//!   them, with the cost-vetted subset `run.py` maps benchmark seeds to.
//!   Topologies differ from seed to seed; the amount of work does not, so
//!   the spread across seeds measures the program, not the draw.
//! * `census` prints the signatures of a range of campaign seeds; the
//!   targets in [`Workload::signature_target`] are its medians.
//! * `setup` times the cold set-up in a fresh process and prints seconds.
//! * `trace` replays the program's pipeline through the public API of each
//!   layer with a span around every call, then writes the spans and the
//!   store counters to `D/spans.json`.

mod spans;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use mesh11_bench::figures::{build, ALL_IDS};
use mesh11_bench::setup::{
    CLIENT_PROBE_MAX_HORIZON_S, CLIENT_PROBE_MIN_APS, CLIENT_PROBE_NETWORKS,
};
use mesh11_bench::{DataMode, FusedRunner, ReproContext, Scale};
use mesh11_channel::{LinkModel, RadioHardware};
use mesh11_core::mobility::MobilityReport;
use mesh11_core::report::FigureData;
use mesh11_phy::{shared_success_table, PerModel, Phy, SuccessTable};
use mesh11_sim::{FaultPlan, SimConfig};
use mesh11_stats::dist::derive_seed_str;
use mesh11_topo::{Campaign, NetworkSpec};
use mesh11_trace::{
    codec, ChunkConfig, ChunkedDatasetBuilder, DatasetIndex, DatasetView, ProbeSource,
};
use rayon::prelude::*;
use spans::Tracer;

/// The `FusedOutputs` field each of `FusedRunner::kernels()` feeds, in
/// that order.
const KERNELS: [&str; 25] = [
    "sigmas.sets",
    "sigmas.links",
    "sigmas.recent",
    "sigmas.nets",
    "curves.bg",
    "curves.ht",
    "strategy_bg",
    "routing_bg",
    "asymmetry_bg",
    "triples_bg",
    "ranges_bg",
    "adapters_ext",
    "sweep_ext",
    "stability_bg",
    "diversity_ext",
    "ett_bg",
    "cap_ext",
    "tables.global.bg",
    "tables.global.ht",
    "tables.network.bg",
    "tables.network.ht",
    "tables.ap.bg",
    "tables.ap.ht",
    "tables.link.bg",
    "tables.link.ht",
];

/// The single-figure requests of `file-figures`, one per analysis family.
const FILE_FIGURE_IDS: [&str; 8] = [
    "fig1-1",
    "fig3-1",
    "fig4-1",
    "fig4-5",
    "fig5-1",
    "fig6-1",
    "fig7-1",
    "ext-adapt",
];

/// Networks per simulate batch of a chunked `repro` build.
const STREAM_BATCH_NETWORKS: usize = 8;
/// `repro --chunk-budget` of `metro-spill`.
const METRO_CHUNK_BUDGET: usize = 4;
/// Relative band around the signature target that `pool` accepts.
const SIGNATURE_TOLERANCE: f64 = 0.05;
/// Mean SNR above which a pair counts as strong in the signature.
const STRONG_SNR_DB: f64 = 10.0;

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    StandardMem,
    MetroSpill,
    FileFigures,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "standard-mem" => Some(Self::StandardMem),
            "metro-spill" => Some(Self::MetroSpill),
            "file-figures" => Some(Self::FileFigures),
            _ => None,
        }
    }

    fn scale(self) -> Scale {
        match self {
            Self::StandardMem | Self::FileFigures => Scale::Standard,
            Self::MetroSpill => Scale::Metro { factor: 2 },
        }
    }

    fn threads(self) -> usize {
        match self {
            Self::MetroSpill => 1,
            Self::StandardMem | Self::FileFigures => 2,
        }
    }

    /// The [`Signature`] `pool` aims for: the medians of a `census` over
    /// campaign seeds 0..1000 (standard) and 0..400 (metro).
    fn signature_target(self) -> Signature {
        match self {
            Self::StandardMem | Self::FileFigures => [7_720, 2_775, 953],
            Self::MetroSpill => [16_100, 6_022, 2_036],
        }
    }
}

/// `--key value` flags.
struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(k) = it.next() {
            let key = k
                .strip_prefix("--")
                .ok_or(format!("unexpected argument '{k}'"))?;
            let v = it.next().ok_or(format!("{k} needs a value"))?;
            map.insert(key.to_string(), v.clone());
        }
        Ok(Self(map))
    }

    fn get(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or(format!("missing --{key}"))
    }

    fn num(&self, key: &str) -> Result<u64, String> {
        self.get(key)?
            .parse()
            .map_err(|e| format!("bad --{key}: {e}"))
    }

    fn workload(&self) -> Result<Workload, String> {
        let w = self.get("workload")?;
        Workload::parse(w).ok_or(format!("unknown workload '{w}'"))
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some(cmd) => Flags::parse(&args[1..]).and_then(|f| run(cmd, &f)),
        None => Err("usage: perfbench-layers pool|census|setup|trace --workload W ...".into()),
    };
    if let Err(e) = result {
        eprintln!("perfbench-layers: {e}");
        std::process::exit(2);
    }
}

fn run(cmd: &str, f: &Flags) -> Result<(), String> {
    let w = f.workload()?;
    match cmd {
        "pool" => {
            for (seed, [bg, ht, strong]) in pool(w, f.num("count")? as usize) {
                println!("{seed} {bg} {ht} {strong}");
            }
        }
        "census" => {
            let from = f.num("from")?;
            for seed in from..from + f.num("count")? {
                let campaign = w.scale().campaign_spec(seed).generate();
                let [bg, ht, strong] = signature(&campaign, &w.scale().config());
                println!("{seed} {bg} {ht} {strong}");
            }
        }
        "setup" => println!("{:.9}", setup(w, f)?),
        "trace" => {
            let dir = PathBuf::from(f.get("dir")?);
            let seed = f.num("campaign-seed")?;
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(w.threads())
                .build()
                .map_err(|e| format!("thread pool: {e}"))?;
            let mut tr = Tracer::new();
            pool.install(|| match w {
                Workload::FileFigures => trace_file(&mut tr, Path::new(f.get("file")?), &dir),
                _ => trace_repro(&mut tr, w, seed, &dir),
            })?;
            let meta = [
                ("workload", f.get("workload")?.to_string()),
                ("campaign_seed", seed.to_string()),
                ("threads", w.threads().to_string()),
            ];
            tr.write_json(&dir.join("spans.json"), &meta)
                .map_err(|e| format!("write spans: {e}"))?;
        }
        other => return Err(format!("unknown command '{other}'")),
    }
    Ok(())
}

/// The first `count` campaign seeds (scanning up from 0) whose signature
/// falls within [`SIGNATURE_TOLERANCE`] of the workload's target on every
/// component: the `banded` pool of `perfbench/seeds.json`.
fn pool(w: Workload, count: usize) -> Vec<(u64, Signature)> {
    let target = w.signature_target();
    let in_band =
        |n: usize, t: usize| (n as f64 - t as f64).abs() <= SIGNATURE_TOLERANCE * t as f64;
    (0u64..)
        .map(|seed| {
            let campaign = w.scale().campaign_spec(seed).generate();
            (seed, signature(&campaign, &w.scale().config()))
        })
        .filter(|(_, sig)| (0..3).all(|i| in_band(sig[i], target[i])))
        .take(count)
        .collect()
}

/// A campaign's size signature: b/g candidate pairs, HT candidate pairs,
/// and HT pairs with a strong (>= [`STRONG_SNR_DB`]) mean SNR. Candidate
/// pairs are those the simulator's pair discovery keeps (best-direction
/// mean SNR above the floor), recomputed here through the channel crate's
/// public link model; strong HT pairs deliver a probe set nearly every
/// interval and carry the most rate observations, so they set the
/// dataset's memory.
type Signature = [usize; 3];

fn signature(campaign: &Campaign, config: &SimConfig) -> Signature {
    let per_net: Vec<Signature> = campaign
        .networks
        .par_iter()
        .map(|spec: &NetworkSpec| {
            let n = spec.size();
            let hw: Vec<RadioHardware> = (0..n)
                .map(|i| RadioHardware::draw(&spec.params, spec.seed, i as u64))
                .collect();
            let mut sig = [0; 3];
            for &phy in &spec.radios {
                let label = match phy {
                    Phy::Bg => "chan-bg",
                    Phy::Ht => "chan-ht",
                };
                let chan = derive_seed_str(spec.seed, label);
                for a in 0..n {
                    for b in a + 1..n {
                        let snr = LinkModel::new(
                            spec.params,
                            chan,
                            a as u64,
                            b as u64,
                            spec.positions[a],
                            spec.positions[b],
                            hw[a],
                            hw[b],
                        )
                        .best_mean_snr_db();
                        if snr < config.min_mean_snr_db {
                            continue;
                        }
                        match phy {
                            Phy::Bg => sig[0] += 1,
                            Phy::Ht => {
                                sig[1] += 1;
                                sig[2] += usize::from(snr >= STRONG_SNR_DB);
                            }
                        }
                    }
                }
            }
            sig
        })
        .collect();
    per_net.iter().fold([0; 3], |acc, s| {
        [acc[0] + s[0], acc[1] + s[1], acc[2] + s[2]]
    })
}

/// Cold set-up before the first simulated or analyzed unit: campaign
/// generation plus the shared success table for the `repro` workloads,
/// the dataset decode for `file-figures`.
fn setup(w: Workload, f: &Flags) -> Result<f64, String> {
    let t = Instant::now();
    if w == Workload::FileFigures {
        let ds = codec::load(Path::new(f.get("file")?)).map_err(|e| format!("load: {e}"))?;
        let secs = t.elapsed().as_secs_f64();
        drop(ds);
        return Ok(secs);
    }
    let campaign = w.scale().campaign_spec(f.num("campaign-seed")?).generate();
    let table = shared_success_table(PerModel::default());
    let secs = t.elapsed().as_secs_f64();
    std::hint::black_box((&campaign, table));
    Ok(secs)
}

/// The downlink client-probe pass `repro` runs eagerly after simulation.
fn client_probes(tr: &mut Tracer, campaign: &Campaign, config: &SimConfig, table: &SuccessTable) {
    let mut cfg = config.clone();
    cfg.client_horizon_s = cfg.client_horizon_s.min(CLIENT_PROBE_MAX_HORIZON_S);
    let specs: Vec<&NetworkSpec> = campaign
        .networks
        .iter()
        .filter(|n| n.has_bg() && n.size() >= CLIENT_PROBE_MIN_APS)
        .take(CLIENT_PROBE_NETWORKS)
        .collect();
    let traces = tr.span("sim.client_probes", |_| {
        mesh11_sim::simulate_client_probes_batch(&specs, &cfg, table)
    });
    let clients: usize = traces.iter().map(|t| t.clients).sum();
    tr.count("sim.clients", clients as f64);
}

/// Folds one view into every kernel, one kernel at a time.
fn fold_kernels(
    tr: &mut Tracer,
    runner: &mut FusedRunner,
    view: DatasetView<'_>,
) -> Result<(), String> {
    let mut kernels = runner.kernels();
    if kernels.len() != KERNELS.len() {
        return Err(format!(
            "FusedRunner has {} kernels, the traced run names {}",
            kernels.len(),
            KERNELS.len()
        ));
    }
    for (k, name) in kernels.iter_mut().zip(KERNELS) {
        tr.span(format!("core.fold.{name}"), |_| k.fold_window(view));
    }
    Ok(())
}

fn repro_chunk_config(dir: &Path) -> ChunkConfig {
    ChunkConfig {
        resident_chunks: METRO_CHUNK_BUDGET,
        spill_dir: Some(dir.join("spill")),
        ..ChunkConfig::default()
    }
}

/// The `repro` pipeline: generate, simulate (into the chunk store for
/// `metro-spill`), the client-probe pass, the fused analysis kernels and
/// pass B, the mobility report; then every figure builder, timed after the
/// shared analyses are warm, and the emit step.
fn trace_repro(tr: &mut Tracer, w: Workload, seed: u64, dir: &Path) -> Result<(), String> {
    let scale = w.scale();
    let config = scale.config();
    std::fs::create_dir_all(dir.join("spill")).map_err(|e| format!("spill dir: {e}"))?;
    tr.span("pipeline", |tr| -> Result<(), String> {
        let campaign = tr.span("topo.generate", |_| scale.campaign_spec(seed).generate());
        let table = tr.span("phy.success_table", |_| {
            shared_success_table(PerModel::default())
        });
        let mut runner = FusedRunner::new();
        if w == Workload::MetroSpill {
            let mut builder = ChunkedDatasetBuilder::new(repro_chunk_config(dir));
            let mut io_err = None;
            let stats = tr.span("sim.campaign", |tr| {
                config.stream_campaign_with_table(&campaign, table, STREAM_BATCH_NETWORKS, |part| {
                    tr.span("trace.sim_handoff", |tr| {
                        tr.span("trace.store.add", |_| {
                            if let Err(e) = builder.add(part) {
                                io_err.get_or_insert(e);
                            }
                        })
                    })
                })
            });
            if let Some(e) = io_err {
                return Err(format!("store add: {e}"));
            }
            tr.count("sim.pairs", stats.pairs_simulated as f64);
            let chunked = tr
                .span("trace.store.finish", |_| builder.finish())
                .map_err(|e| format!("store finish: {e}"))?;
            tr.count("sim.probe_sets", chunked.n_probes() as f64);
            client_probes(tr, &campaign, &config, table);
            for win in 0..chunked.n_windows() {
                let data = tr.span("trace.window", |_| chunked.window(win));
                fold_kernels(tr, &mut runner, data.view())?;
            }
            let src = ProbeSource::Chunked(&chunked);
            tr.span("core.pass_b", |_| std::hint::black_box(runner.finish(&src)));
            tr.span("core.mobility", |_| {
                std::hint::black_box(MobilityReport::build(chunked.shell()))
            });
            let s = chunked.stats();
            for (name, v) in [
                ("trace.chunk_hits", s.chunk_hits),
                ("trace.chunk_decodes", s.chunk_decodes),
                ("trace.decode_ns", s.decode_ns),
                ("trace.prefetch_hits", s.prefetch_hits),
                ("trace.prefetch_wasted", s.prefetch_wasted),
                ("trace.peak_pinned_bytes", s.peak_pinned_bytes),
                ("trace.over_budget_events", s.over_budget_events),
                ("trace.spill_raw_bytes", s.spill_raw_bytes),
                ("trace.spill_encoded_bytes", s.spill_encoded_bytes),
                ("trace.window_builds", s.window_builds),
                ("trace.window_hits", s.window_hits),
            ] {
                tr.count(name, v as f64);
            }
        } else {
            let (ds, stats) = tr.span("sim.campaign", |_| {
                config.run_campaign_counted_with_table(&campaign, table)
            });
            tr.count("sim.pairs", stats.pairs_simulated as f64);
            tr.count("sim.probe_sets", ds.probes.len() as f64);
            client_probes(tr, &campaign, &config, table);
            let ix = tr.span("trace.index.build", |_| DatasetIndex::build(&ds));
            tr.count("trace.index.probe_sets", ds.probes.len() as f64);
            let view = DatasetView::new(&ds, &ix);
            fold_kernels(tr, &mut runner, view)?;
            let src = ProbeSource::Whole(view);
            tr.span("core.pass_b", |_| std::hint::black_box(runner.finish(&src)));
            tr.span("core.mobility", |_| {
                std::hint::black_box(MobilityReport::build(&ds))
            });
        }
        Ok(())
    })?;

    // The figure builders read a context the program itself builds; build
    // one (untraced) and warm every shared analysis before timing them.
    let ctx = tr.span("fixture", |_| {
        let mode = match w {
            Workload::MetroSpill => DataMode::Chunked(repro_chunk_config(dir)),
            _ => DataMode::InMemory,
        };
        let (ctx, _) = ReproContext::build_timed_with_mode(scale, seed, FaultPlan::none(), mode);
        for id in ALL_IDS {
            std::hint::black_box(build(&ctx, id));
        }
        ctx
    });
    let out = dir.join("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("out dir: {e}"))?;
    tr.span("pipeline", |tr| {
        let mut figs = Vec::new();
        for id in ALL_IDS {
            let built = tr.span(format!("figures.{id}"), |_| build(&ctx, id));
            figs.extend(built.ok_or(format!("unknown figure id '{id}'"))?);
        }
        tr.span("figures.emit", |_| emit(&figs, &out))
    })
}

/// Renders every figure as its text table and writes its JSON, as `repro`
/// does after building.
fn emit(figs: &[FigureData], out: &Path) -> Result<(), String> {
    let mut tables = String::new();
    for fig in figs {
        tables.push_str(&fig.render_table(16));
        std::fs::write(out.join(format!("{}.json", fig.id)), fig.to_json())
            .map_err(|e| format!("write figure: {e}"))?;
    }
    std::fs::write(out.join("tables.txt"), tables).map_err(|e| format!("write tables: {e}"))
}

/// The `file-figures` requests: each one loads the dataset, builds the
/// index, builds one figure cold and renders it to what a fresh
/// `mesh11 figures FILE <id>` process prints. The warm re-build after each
/// request gives the builder's own time.
fn trace_file(tr: &mut Tracer, file: &Path, dir: &Path) -> Result<(), String> {
    let bytes = std::fs::metadata(file)
        .map_err(|e| format!("stat: {e}"))?
        .len();
    let out = dir.join("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("out dir: {e}"))?;
    for id in FILE_FIGURE_IDS {
        let ctx = tr.span("pipeline", |tr| -> Result<ReproContext, String> {
            tr.span(format!("request.{id}"), |tr| {
                let ds = tr
                    .span("trace.codec.load", |_| codec::load(file))
                    .map_err(|e| format!("load: {e}"))?;
                tr.count("trace.codec.bytes", bytes as f64);
                tr.count("trace.index.probe_sets", ds.probes.len() as f64);
                let cfg = SimConfig {
                    probe_horizon_s: ds.probe_horizon_s,
                    client_horizon_s: ds.client_horizon_s,
                    ..SimConfig::quick()
                };
                let ctx = ReproContext::from_dataset(ds, cfg, 0);
                tr.span("trace.index.build", |_| {
                    ctx.index();
                });
                let figs = tr
                    .span(format!("figures.{id}.cold"), |_| build(&ctx, id))
                    .ok_or(format!("unknown figure id '{id}'"))?;
                tr.span("figures.emit", |_| {
                    let stdout: String = figs.iter().map(|f| f.render_table(16) + "\n").collect();
                    std::fs::write(out.join(format!("{id}.txt")), stdout)
                })
                .map_err(|e| format!("write figure: {e}"))?;
                Ok(ctx)
            })
        })?;
        tr.span("fixture", |tr| {
            tr.span(format!("figures.{id}"), |_| {
                std::hint::black_box(build(&ctx, id))
            })
        });
    }
    Ok(())
}
