//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [--scale quick|standard|paper|metro] [--seed N] [--seeds N] [--threads N]
//!       [--faults] [--metro-factor N] [--chunk-budget N] [--spill-dir DIR]
//!       [--out DIR] [--bench-json FILE] [--rows N] [--plot] <id>... | --all
//! ```
//!
//! `--seeds N` runs seeds `--seed .. --seed+N` as **one** fused batched
//! campaign (the pair scheduler sees every seed's work list at once), writes
//! each seed's figures under `out/seed-<s>/`, and aggregates every curve
//! point across seeds into mean ± 95% t-interval figures under
//! `out/figures_ci/`. Per-seed and amortized timings land in the timing
//! JSONs. In-memory scales only.
//!
//! Every single-seed run streams: the simulator seals dataset parts of
//! whole networks into a bounded channel whose consumer indexes each part,
//! folds every requested analysis over it (the Fig 4.4 penalties are
//! scored on the way) and drops it, while later networks still simulate,
//! so the whole probe table is never resident. `--scale metro` also writes
//! every part to the spill-able chunk store; `--metro-factor`,
//! `--chunk-budget` and `--spill-dir` tune a metro run and are errors at
//! any other scale. Only the analyses the requested figures read are
//! folded, and figures are byte-identical to a fold over the whole
//! dataset.
//!
//! Prints each figure as an aligned text table (with the paper-expected
//! values as `#` notes; add `--plot` for ASCII curve renderings) and writes
//! the full series as JSON under `--out` (default `out/`), plus a
//! `bench_timings.json` with the per-phase wall-clock breakdown. The same
//! breakdown also lands at `--bench-json` (default `BENCH_repro.json` in
//! the working directory) so CI can track the perf trajectory. Experiment
//! ids: fig1-1, fig3-1, fig4-1 … fig7-5, tab4-1, sec6-3, and the ext-*
//! extension studies; see `DESIGN.md` §3 for the index.
//!
//! Output is bit-for-bit identical at any `--threads` value (including 1):
//! parallelism only reorders who computes what, never what is computed.

use mesh11_bench::figures::{build, kernels, ALL_IDS};
use mesh11_bench::{
    aggregate_ci, group_by_figure, max_relative_halfwidth, peak_rss_mb, DataMode, Kernel,
    PhaseTimings, ReproContext, Scale,
};
use mesh11_core::report::FigureData;
use mesh11_trace::ChunkConfig;
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

struct Args {
    scale: Scale,
    seed: u64,
    seeds: usize,
    threads: Option<usize>,
    faults: bool,
    chunk_budget: Option<usize>,
    spill_dir: Option<PathBuf>,
    out: PathBuf,
    bench_json: PathBuf,
    rows: usize,
    plot: bool,
    ids: Vec<String>,
}

impl Args {
    /// The data mode this invocation runs under: the scale's default, with
    /// the chunk-store knobs applied when that default is chunked (only
    /// metro is; `parse_args` rejects the knobs anywhere else).
    fn data_mode(&self) -> DataMode {
        let mut mode = self.scale.data_mode();
        if let DataMode::Chunked(cfg) = &mut mode {
            if let Some(budget) = self.chunk_budget {
                cfg.resident_chunks = budget;
            }
            cfg.spill_dir.clone_from(&self.spill_dir);
        }
        mode
    }

    /// The kernels the requested figures read. Unknown ids read none; the
    /// figure pass reports them.
    fn kernels(&self) -> Vec<Kernel> {
        let per_id = self.ids.iter().filter_map(|id| kernels(id));
        per_id.flatten().collect()
    }
}

/// Parses `repro`'s arguments (without the program name).
fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        scale: Scale::Standard,
        seed: 42,
        seeds: 1,
        threads: None,
        faults: false,
        chunk_budget: None,
        spill_dir: None,
        out: PathBuf::from("out"),
        bench_json: PathBuf::from("BENCH_repro.json"),
        rows: 16,
        plot: false,
        ids: Vec::new(),
    };
    let mut metro_factor: Option<usize> = None;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                let v = it.next().ok_or("--scale needs a value")?;
                args.scale = Scale::parse(&v).ok_or(format!("unknown scale '{v}'"))?;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                args.seed = v.parse().map_err(|e| format!("bad seed: {e}"))?;
            }
            "--seeds" => {
                let v = it.next().ok_or("--seeds needs a value")?;
                let n: usize = v.parse().map_err(|e| format!("bad seed count: {e}"))?;
                if n == 0 {
                    return Err("--seeds must be >= 1".into());
                }
                args.seeds = n;
            }
            "--metro-factor" => {
                let v = it.next().ok_or("--metro-factor needs a value")?;
                let n: usize = v.parse().map_err(|e| format!("bad metro factor: {e}"))?;
                if n == 0 {
                    return Err("--metro-factor must be >= 1".into());
                }
                metro_factor = Some(n);
            }
            "--chunk-budget" => {
                let v = it.next().ok_or("--chunk-budget needs a value")?;
                let n: usize = v.parse().map_err(|e| format!("bad chunk budget: {e}"))?;
                // One chunk being filled plus one being read.
                if n < 2 {
                    return Err("--chunk-budget must be >= 2".into());
                }
                args.chunk_budget = Some(n);
            }
            "--spill-dir" => {
                args.spill_dir = Some(PathBuf::from(it.next().ok_or("--spill-dir needs a value")?));
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                let n: usize = v.parse().map_err(|e| format!("bad thread count: {e}"))?;
                if n == 0 {
                    return Err("--threads must be >= 1".into());
                }
                args.threads = Some(n);
            }
            "--out" => {
                args.out = PathBuf::from(it.next().ok_or("--out needs a value")?);
            }
            "--bench-json" => {
                args.bench_json = PathBuf::from(it.next().ok_or("--bench-json needs a value")?);
            }
            "--rows" => {
                let v = it.next().ok_or("--rows needs a value")?;
                args.rows = v.parse().map_err(|e| format!("bad rows: {e}"))?;
            }
            "--faults" => args.faults = true,
            "--plot" => args.plot = true,
            "--all" => args.ids = ALL_IDS.iter().map(|s| s.to_string()).collect(),
            "--help" | "-h" => {
                println!(
                    "usage: repro [--scale quick|standard|paper|metro] [--seed N] [--seeds N] [--threads N] [--faults]\n\
                     \x20            [--metro-factor N] [--chunk-budget N] [--spill-dir DIR]\n\
                     \x20            [--out DIR] [--bench-json FILE] [--rows N] [--plot] <id>... | --all\n\
                     --threads N  cap the worker pool (default: all cores); results are\n\
                     identical at any value, only wall-clock changes\n\
                     --seeds N    run N consecutive seeds as one fused batched campaign:\n\
                     per-seed figures under out/seed-<s>/, cross-seed mean ± 95% CI\n\
                     figures under out/figures_ci/ (in-memory scales only)\n\
                     --faults     simulate under the built-in demo fault plan (overlapping\n\
                     AP outages + stacked interference bursts), still thread-invariant\n\
                     --scale metro also writes the streamed probe sets to the spill-able chunk\n\
                     store. Metro only:\n\
                     --metro-factor N  ensemble multiplier (default {})\n\
                     --chunk-budget N  resident chunks before spilling, at least 2 (default {})\n\
                     --spill-dir DIR   where cold chunks spill (default: system temp dir)\n\
                     --bench-json FILE  where to write the per-phase timing JSON\n\
                     (default: BENCH_repro.json in the working directory)\nids: {}",
                    mesh11_bench::DEFAULT_METRO_FACTOR,
                    ChunkConfig::default().resident_chunks,
                    ALL_IDS.join(" ")
                );
                std::process::exit(0);
            }
            id if !id.starts_with('-') => args.ids.push(id.to_string()),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    match &mut args.scale {
        Scale::Metro { factor } => *factor = metro_factor.unwrap_or(*factor),
        _ => {
            for (flag, given) in [
                ("--metro-factor", metro_factor.is_some()),
                ("--chunk-budget", args.chunk_budget.is_some()),
                ("--spill-dir", args.spill_dir.is_some()),
            ] {
                if given {
                    return Err(format!("{flag} requires --scale metro"));
                }
            }
        }
    }
    if args.ids.is_empty() {
        return Err("no experiment ids given (try --all or --help)".into());
    }
    if args.seeds > 1 && matches!(args.scale, Scale::Metro { .. }) {
        return Err(
            "--seeds runs the ensemble in memory; it does not combine with --scale metro".into(),
        );
    }
    // Last, so an invocation refused for anything else creates nothing.
    if let Some(dir) = &args.spill_dir {
        check_spill_dir(dir)?;
    }
    Ok(args)
}

/// Creates the spill directory and writes a probe file into it, so a path
/// the store could not spill into fails the parse instead of the run: the
/// store opens its spill file only once it first spills.
fn check_spill_dir(dir: &Path) -> Result<(), String> {
    let probe = dir.join(format!(".mesh11-probe-{}", std::process::id()));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&probe, b""))
        .and_then(|()| std::fs::remove_file(&probe))
        .map_err(|e| format!("--spill-dir {}: {e}", dir.display()))
}

/// One seed's figure pass: builds every requested figure in parallel,
/// renders (when `print_tables`) and writes them under `out_dir`.
struct SeedAnalysis {
    /// Per-experiment analyze seconds, keyed by experiment id.
    fig_times: BTreeMap<String, f64>,
    /// Every figure built, in request order (feeds the CI aggregation).
    figs: Vec<FigureData>,
    /// Unknown-id failures.
    failures: i32,
    /// Wall-clock of the parallel figure pass.
    analyze_s: f64,
}

/// One experiment's build outcome: the figures plus the build seconds,
/// `None` for an unknown id.
type BuildOutcome = Option<(Vec<FigureData>, f64)>;

fn analyze_and_emit(
    ctx: &ReproContext,
    args: &Args,
    out_dir: &Path,
    print_tables: bool,
) -> SeedAnalysis {
    // Build every requested figure in parallel. The shared heavy analyses
    // (lookup tables, triple analysis, …) were folded by the build; the
    // builders only read them.
    let t_analyze = Instant::now();
    let built: Vec<(&String, BuildOutcome)> = args
        .ids
        .par_iter()
        .map(|id| {
            let t = Instant::now();
            let figs = build(ctx, id);
            (id, figs.map(|f| (f, t.elapsed().as_secs_f64())))
        })
        .collect();
    let analyze_s = t_analyze.elapsed().as_secs_f64();

    // Render and write strictly in request order, on one thread.
    std::fs::create_dir_all(out_dir).expect("create output dir");
    let mut failures = 0;
    let mut fig_times = BTreeMap::new();
    let mut all_figs = Vec::new();
    for (id, outcome) in built {
        let Some((figs, secs)) = outcome else {
            eprintln!("repro: unknown experiment id '{id}'");
            failures += 1;
            continue;
        };
        fig_times.insert(id.clone(), secs);
        for fig in figs {
            if print_tables {
                if args.plot {
                    println!("{}", fig.render_plot(72, 18));
                }
                println!("{}", fig.render_table(args.rows));
            }
            let path = out_dir.join(format!("{}.json", fig.id));
            std::fs::write(&path, fig.to_json()).expect("write figure json");
            eprintln!("# wrote {}", path.display());
            all_figs.push(fig);
        }
    }
    SeedAnalysis {
        fig_times,
        figs: all_figs,
        failures,
        analyze_s,
    }
}

/// The `# chunked store:` stderr line: the chunk size and the resident
/// budget the store runs with.
fn chunked_store_line(cfg: &ChunkConfig) -> String {
    format!(
        "# chunked store: {} probe sets/chunk, {} resident chunks",
        cfg.chunk_capacity, cfg.resident_chunks
    )
}

fn run(args: &Args) -> i32 {
    eprintln!(
        "# building {:?}-scale campaign (seed {}, {} threads) …",
        args.scale,
        args.seed,
        rayon::current_num_threads()
    );
    let t_total = Instant::now();
    let faults = if args.faults {
        eprintln!("# fault injection: demo plan (overlapping outages + stacked bursts)");
        mesh11_sim::FaultPlan::demo(args.scale.config().probe_horizon_s)
    } else {
        mesh11_sim::FaultPlan::none()
    };
    if args.seeds > 1 {
        return run_multi(args, faults, t_total);
    }
    let mode = args.data_mode();
    if let DataMode::Chunked(cfg) = &mode {
        eprintln!("{}", chunked_store_line(cfg));
    }
    let kernels = args.kernels();
    let (ctx, build_t) =
        ReproContext::build_timed_with_kernels(args.scale, args.seed, faults, mode, &kernels);
    eprintln!(
        "# simulated {} networks / {} APs ({} pairs): {} probe sets, {} client samples in {:.1}s",
        ctx.networks().len(),
        ctx.total_aps(),
        build_t.pairs_simulated,
        ctx.n_probes(),
        ctx.clients().len(),
        build_t.generate_s + build_t.simulate_s
    );

    let analysis = analyze_and_emit(&ctx, args, &args.out, true);
    let SeedAnalysis {
        fig_times,
        failures,
        analyze_s: figure_s,
        ..
    } = analysis;
    // The figure pass is only the tail of analysis: the build folded the
    // shared analyses (inside the simulate wall, for chunked runs).
    let analyze_s = figure_s + build_t.analyze_s;

    let n_probes = ctx.n_probes();
    // The store's final counters; in-memory runs had no chunk store, so
    // their counters are null, not 0.
    let store = ctx.store_summary();
    let chunk = store.map(|c| c.stats);
    let timings = PhaseTimings {
        scale: args.scale.label(),
        seed: args.seed,
        seeds: 1,
        threads: args.threads.unwrap_or(0),
        effective_threads: rayon::current_num_threads(),
        generate_s: build_t.generate_s,
        simulate_s: build_t.simulate_s,
        pairs_simulated: build_t.pairs_simulated,
        simulate_s_per_seed: build_t.simulate_s,
        per_seed_pairs: vec![build_t.pairs_simulated],
        per_seed_analyze_s: vec![analyze_s],
        analyze_s_per_seed: analyze_s,
        analyze_s_per_seed_ci95: None,
        n_probes,
        reports_per_sec: if build_t.simulate_s > 0.0 {
            n_probes as f64 / build_t.simulate_s
        } else {
            0.0
        },
        peak_rss_mb: peak_rss_mb(),
        data_mode: match store {
            Some(_) => "chunked".to_string(),
            None => "in-memory".to_string(),
        },
        spilled_bytes: store.map_or(0, |c| c.spilled_bytes),
        client_probe_s: build_t.client_probe_s,
        clients_simulated: build_t.clients_simulated,
        analyze_s,
        analyze_probes_per_sec: if analyze_s > 0.0 {
            n_probes as f64 / analyze_s
        } else {
            0.0
        },
        stream_analyze_s: Some(build_t.analyze_s),
        stream_send_wait_s: Some(build_t.stream_send_wait_s),
        stream_recv_wait_s: Some(build_t.stream_recv_wait_s),
        chunk_hits: chunk.as_ref().map(|c| c.chunk_hits),
        chunk_decodes: chunk.as_ref().map(|c| c.chunk_decodes),
        chunk_evictions: chunk.as_ref().map(|c| c.chunk_evictions),
        peak_pinned_bytes: chunk.as_ref().map(|c| c.peak_pinned_bytes),
        window_builds: chunk.as_ref().map(|c| c.window_builds),
        n_windows: store.map(|c| c.n_windows as u64),
        over_budget_events: chunk.as_ref().map(|c| c.over_budget_events),
        decode_s: chunk.as_ref().map(|c| c.decode_ns as f64 / 1e9),
        spill_raw_bytes: chunk.as_ref().map(|c| c.spill_raw_bytes),
        spill_encoded_bytes: chunk.as_ref().map(|c| c.spill_encoded_bytes),
        total_s: t_total.elapsed().as_secs_f64(),
        figures: fig_times,
    };
    let path = args.out.join("bench_timings.json");
    std::fs::write(&path, timings.to_json()).expect("write bench_timings.json");
    eprintln!("{}", timings.render());
    eprintln!("# wrote {}", path.display());
    // Also drop the breakdown at a stable top-level path so successive PRs
    // can track the perf trajectory without digging through --out dirs.
    std::fs::write(&args.bench_json, timings.to_json()).expect("write bench json");
    eprintln!("# wrote {}", args.bench_json.display());

    failures
}

/// The multi-seed campaign path (`--seeds N`, in-memory only): one fused
/// batched simulate pass over every seed's pair work list, a per-seed
/// figure pass into `out/seed-<s>/`, and a cross-seed mean ± 95% CI
/// aggregation into `out/figures_ci/`.
fn run_multi(args: &Args, faults: mesh11_sim::FaultPlan, t_total: Instant) -> i32 {
    let (ctxs, build_t) =
        ReproContext::build_many_timed(args.scale, args.seed, args.seeds, faults, &args.kernels());
    let n_probes: usize = ctxs.iter().map(|c| c.n_probes()).sum();
    eprintln!(
        "# simulated {} seeds × {} networks ({} pairs fused): {} probe sets in {:.1}s ({:.2}s/seed amortized)",
        args.seeds,
        ctxs[0].networks().len(),
        build_t.pairs_simulated,
        n_probes,
        build_t.generate_s + build_t.simulate_s,
        build_t.simulate_s / args.seeds as f64
    );

    // Per-seed figure passes: tables print once (base seed), JSONs land in
    // per-seed directories.
    let mut per_seed_figs = Vec::with_capacity(args.seeds);
    let mut per_seed_analyze_s = Vec::with_capacity(args.seeds);
    let mut base_fig_times = BTreeMap::new();
    let mut failures = 0;
    for (k, ctx) in ctxs.iter().enumerate() {
        let seed = args.seed + k as u64;
        let dir = args.out.join(format!("seed-{seed}"));
        let a = analyze_and_emit(ctx, args, &dir, k == 0);
        if k == 0 {
            base_fig_times = a.fig_times;
        }
        failures += a.failures;
        per_seed_analyze_s.push(build_t.per_seed_analyze_s[k] + a.analyze_s);
        per_seed_figs.push(a.figs);
    }
    let analyze_s: f64 = per_seed_analyze_s.iter().sum();

    // Cross-seed aggregation: every figure id present in ≥ 2 seeds gets a
    // mean ± 95% t-interval replica under figures_ci/.
    let ci_dir = args.out.join("figures_ci");
    std::fs::create_dir_all(&ci_dir).expect("create figures_ci dir");
    let mut ci_widths: Vec<(String, f64)> = Vec::new();
    for (id, replicas) in group_by_figure(&per_seed_figs) {
        let Some(agg) = aggregate_ci(&replicas) else {
            continue;
        };
        let path = ci_dir.join(format!("{id}.json"));
        std::fs::write(&path, agg.to_json()).expect("write CI figure json");
        eprintln!("# wrote {}", path.display());
        if let Some(rel) = max_relative_halfwidth(&agg) {
            ci_widths.push((id.to_string(), rel));
        }
    }
    ci_widths.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite widths"));
    for (id, rel) in ci_widths.iter().take(8) {
        eprintln!("#   widest CI: {id} ±{:.1}% of mean", 100.0 * rel);
    }

    // Per-seed analyze spread, mirroring `simulate_s_per_seed`: a mean plus
    // a 95% Student-t half-width once ≥ 2 seeds ran (the n=1 half-width is
    // infinite, which JSON cannot carry — map it to `None`).
    let (analyze_s_per_seed, analyze_s_per_seed_ci95) =
        match mesh11_stats::mean_ci95(&per_seed_analyze_s) {
            Some((mean, half)) => (mean, half.is_finite().then_some(half)),
            None => (0.0, None),
        };
    let timings = PhaseTimings {
        scale: args.scale.label(),
        seed: args.seed,
        seeds: args.seeds,
        threads: args.threads.unwrap_or(0),
        effective_threads: rayon::current_num_threads(),
        generate_s: build_t.generate_s,
        simulate_s: build_t.simulate_s,
        pairs_simulated: build_t.pairs_simulated,
        simulate_s_per_seed: build_t.simulate_s / args.seeds as f64,
        per_seed_pairs: build_t.per_seed_pairs.clone(),
        per_seed_analyze_s,
        analyze_s_per_seed,
        analyze_s_per_seed_ci95,
        n_probes,
        reports_per_sec: if build_t.simulate_s > 0.0 {
            n_probes as f64 / build_t.simulate_s
        } else {
            0.0
        },
        peak_rss_mb: peak_rss_mb(),
        data_mode: "in-memory".to_string(),
        spilled_bytes: 0,
        client_probe_s: build_t.client_probe_s,
        clients_simulated: build_t.clients_simulated,
        analyze_s,
        analyze_probes_per_sec: if analyze_s > 0.0 {
            n_probes as f64 / analyze_s
        } else {
            0.0
        },
        stream_analyze_s: None,
        stream_send_wait_s: None,
        stream_recv_wait_s: None,
        chunk_hits: None,
        chunk_decodes: None,
        chunk_evictions: None,
        peak_pinned_bytes: None,
        window_builds: None,
        n_windows: None,
        over_budget_events: None,
        decode_s: None,
        spill_raw_bytes: None,
        spill_encoded_bytes: None,
        total_s: t_total.elapsed().as_secs_f64(),
        figures: base_fig_times,
    };
    let path = args.out.join("bench_timings.json");
    std::fs::write(&path, timings.to_json()).expect("write bench_timings.json");
    eprintln!("{}", timings.render());
    eprintln!("# wrote {}", path.display());
    std::fs::write(&args.bench_json, timings.to_json()).expect("write bench json");
    eprintln!("# wrote {}", args.bench_json.display());
    failures
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("repro: {e}");
            std::process::exit(2);
        }
    };

    // A scoped pool (not a global override) so the cap applies to the whole
    // run — simulation and figure analysis alike — and nothing else.
    let failures = match args.threads {
        Some(n) => rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .expect("build thread pool")
            .install(|| run(&args)),
        None => run(&args),
    };
    if failures > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &str) -> Result<Args, String> {
        parse_args(argv.split_whitespace().map(String::from))
    }

    #[test]
    fn chunk_budget_below_two_is_rejected() {
        for n in [0, 1] {
            let err = parse(&format!("--scale metro --chunk-budget {n} --all"))
                .err()
                .expect("budget below 2 accepted");
            assert_eq!(err, "--chunk-budget must be >= 2");
        }
        let args = parse("--scale metro --chunk-budget 2 --all").expect("budget 2");
        assert_eq!(args.chunk_budget, Some(2));
        assert!(parse("--scale metro --chunk-budget x --all").is_err());
        assert!(parse("--scale quick --chunk-budget 4 --all").is_err());
    }

    #[test]
    fn unusable_spill_dir_is_rejected_while_parsing() {
        let file = std::env::temp_dir().join(format!("repro-spill-file-{}", std::process::id()));
        std::fs::write(&file, b"").expect("write a regular file");
        for dir in [file.clone(), file.join("spill")] {
            let err = parse(&format!(
                "--scale metro --spill-dir {} --all",
                dir.display()
            ))
            .err()
            .expect("a spill dir under a regular file accepted");
            assert!(
                err.starts_with(&format!("--spill-dir {}: ", dir.display())),
                "{err}"
            );
        }
        std::fs::remove_file(&file).expect("remove the file");
        let dir = std::env::temp_dir().join(format!("repro-spill-dir-{}", std::process::id()));
        let args = parse(&format!(
            "--scale metro --spill-dir {} --all",
            dir.display()
        ))
        .expect("a creatable spill dir");
        assert_eq!(args.spill_dir.as_deref(), Some(dir.as_path()));
        assert_eq!(std::fs::read_dir(&dir).expect("created").count(), 0);
        std::fs::remove_dir(&dir).expect("remove the dir");
        for refused in [
            format!("--scale metro --spill-dir {}", dir.display()),
            format!(
                "--scale metro --seeds 2 --spill-dir {} --all",
                dir.display()
            ),
        ] {
            assert!(parse(&refused).is_err(), "{refused}");
            assert!(
                !dir.exists(),
                "a refused invocation created {}",
                dir.display()
            );
        }
    }

    #[test]
    fn chunked_store_line_reports_the_budget_at_any_thread_count() {
        let args = parse("--scale metro --chunk-budget 4 --all").expect("parses");
        let DataMode::Chunked(cfg) = args.data_mode() else {
            panic!("metro is chunked");
        };
        for threads in [2, 8] {
            let line = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool")
                .install(|| chunked_store_line(&cfg));
            assert_eq!(
                line,
                "# chunked store: 65536 probe sets/chunk, 4 resident chunks"
            );
        }
    }
}
