//! `mesh11` — the toolkit's command-line face.
//!
//! ```text
//! mesh11 simulate --seed 42 --scale standard --out dataset.m11t [--seeds N] [--json] [--spec campaign.json]
//! mesh11 inspect  dataset.m11t
//! mesh11 analyze  dataset.m11t [bitrate|routing|triples|mobility|all]
//! mesh11 figures  dataset.m11t <experiment-id>... | --all
//! ```
//!
//! `simulate` writes a dataset (compact binary by default, `--json` for the
//! interchange format); `inspect` prints its structural summary; `analyze`
//! runs the paper's analyses against it. Because the analyses consume only
//! the dataset, `analyze` works identically on any file with the right
//! shape — including one converted from a real deployment's logs.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mesh11_trace::codec::Sections;
use mesh11_trace::{Dataset, LoadError};

mod commands;

fn usage() -> ! {
    eprintln!(
        "usage:\n  mesh11 simulate [--seed N] [--seeds N] [--scale quick|standard|paper] [--networks N] [--spec FILE] [--json] --out FILE\n  mesh11 inspect FILE\n  mesh11 analyze FILE [bitrate|routing|triples|mobility|all]\n  mesh11 figures FILE <experiment-id>... | --all"
    );
    std::process::exit(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let result = match cmd.as_str() {
        "simulate" => commands::simulate(&args[1..]),
        "inspect" => match args.get(1) {
            Some(path) => commands::inspect(Path::new(path)),
            None => usage(),
        },
        "analyze" => match args.get(1) {
            Some(path) => {
                let what = args.get(2).map(String::as_str).unwrap_or("all");
                commands::analyze(Path::new(path), what)
            }
            None => usage(),
        },
        "figures" => match args.get(1) {
            Some(path) => commands::figures(Path::new(path), &args[2..]),
            None => usage(),
        },
        "--help" | "-h" | "help" => usage(),
        other => {
            eprintln!("mesh11: unknown command '{other}'");
            usage()
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mesh11: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Whether `path` names a JSON dataset; anything else is M11T.
pub fn is_json(path: &Path) -> bool {
    path.extension().is_some_and(|e| e == "json")
}

/// Reads a dataset by extension: `.json` via serde (always whole),
/// anything else via the binary codec, reading only `sections`. Nothing
/// beyond the decoder's own checks: `inspect` reports what is wrong.
pub fn read_dataset(path: &Path, sections: Sections) -> Result<Dataset, LoadError> {
    let ds = if is_json(path) {
        Dataset::load_json(path)?
    } else {
        mesh11_trace::codec::load_sections(path, sections)?
    };
    Ok(ds)
}

/// [`read_dataset`], refusing a dataset that fails
/// [`Dataset::validate`] with its first violations.
pub fn load_dataset(path: &Path, sections: Sections) -> Result<Dataset, LoadError> {
    let ds = read_dataset(path, sections)?;
    ds.check()?;
    Ok(ds)
}

/// A load error as the CLI prints it: prefixed with the file.
pub fn at_path(path: &Path) -> impl Fn(LoadError) -> String + '_ {
    move |e| format!("{}: {e}", path.display())
}

/// Parsed `simulate` flags.
pub struct SimulateArgs {
    pub seed: u64,
    /// Seeds to run (consecutive from `seed`) as one fused batched
    /// campaign; each seed's replica networks land in a disjoint id range
    /// of the merged dataset.
    pub seeds: usize,
    pub scale: String,
    pub networks: Option<usize>,
    pub json: bool,
    pub out: PathBuf,
    /// Custom campaign specification (JSON-serialized `CampaignSpec`);
    /// overrides `--scale`/`--networks` sizing when given.
    pub spec: Option<PathBuf>,
}

impl SimulateArgs {
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut out = None;
        let mut parsed = SimulateArgs {
            seed: 42,
            seeds: 1,
            scale: "quick".into(),
            networks: None,
            json: false,
            out: PathBuf::new(),
            spec: None,
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--seed" => {
                    parsed.seed = it
                        .next()
                        .ok_or("--seed needs a value")?
                        .parse()
                        .map_err(|e| format!("bad seed: {e}"))?;
                }
                "--seeds" => {
                    parsed.seeds = it
                        .next()
                        .ok_or("--seeds needs a value")?
                        .parse()
                        .map_err(|e| format!("bad seed count: {e}"))?;
                    if parsed.seeds == 0 {
                        return Err("--seeds must be >= 1".into());
                    }
                }
                "--scale" => {
                    parsed.scale = it.next().ok_or("--scale needs a value")?.clone();
                }
                "--networks" => {
                    parsed.networks = Some(
                        it.next()
                            .ok_or("--networks needs a value")?
                            .parse()
                            .map_err(|e| format!("bad network count: {e}"))?,
                    );
                }
                "--json" => parsed.json = true,
                "--spec" => {
                    parsed.spec = Some(PathBuf::from(it.next().ok_or("--spec needs a value")?));
                }
                "--out" => out = Some(PathBuf::from(it.next().ok_or("--out needs a value")?)),
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        parsed.out = out.ok_or("simulate requires --out FILE")?;
        Ok(parsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_minimal() {
        let a = SimulateArgs::parse(&args(&["--out", "x.m11t"])).unwrap();
        assert_eq!(a.seed, 42);
        assert_eq!(a.scale, "quick");
        assert_eq!(a.networks, None);
        assert!(!a.json);
        assert_eq!(a.out, PathBuf::from("x.m11t"));
    }

    #[test]
    fn parse_full() {
        let a = SimulateArgs::parse(&args(&[
            "--seed",
            "7",
            "--seeds",
            "3",
            "--scale",
            "standard",
            "--networks",
            "5",
            "--json",
            "--out",
            "d.json",
        ]))
        .unwrap();
        assert_eq!(a.seed, 7);
        assert_eq!(a.seeds, 3);
        assert_eq!(a.scale, "standard");
        assert_eq!(a.networks, Some(5));
        assert!(a.json);
    }

    #[test]
    fn parse_errors() {
        assert!(SimulateArgs::parse(&args(&[])).is_err(), "missing --out");
        assert!(SimulateArgs::parse(&args(&["--seed"])).is_err());
        assert!(SimulateArgs::parse(&args(&["--seed", "x", "--out", "f"])).is_err());
        assert!(SimulateArgs::parse(&args(&["--seeds", "0", "--out", "f"])).is_err());
        assert!(SimulateArgs::parse(&args(&["--bogus", "--out", "f"])).is_err());
    }

    #[test]
    fn load_dataset_dispatches_on_extension() {
        let dir = std::env::temp_dir().join("mesh11-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let ds = Dataset::default();

        let json_path = dir.join("ds.json");
        ds.save_json(&json_path).unwrap();
        assert_eq!(load_dataset(&json_path, Sections::all()).unwrap(), ds);

        let bin_path = dir.join("ds.m11t");
        mesh11_trace::codec::save(&ds, &bin_path).unwrap();
        assert_eq!(load_dataset(&bin_path, Sections::all()).unwrap(), ds);

        assert!(load_dataset(Path::new("/nonexistent.m11t"), Sections::all()).is_err());
        std::fs::remove_file(&json_path).ok();
        std::fs::remove_file(&bin_path).ok();
    }

    #[test]
    fn spec_file_round_trip() {
        let dir = std::env::temp_dir().join("mesh11-cli-spec");
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("campaign.json");
        let spec = mesh11_topo::CampaignSpec::scaled(5, 4);
        std::fs::write(&spec_path, serde_json::to_string(&spec).unwrap()).unwrap();
        let out = dir.join("spec.m11t");
        crate::commands::simulate(&args(&[
            "--spec",
            spec_path.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let ds = load_dataset(&out, Sections::all()).unwrap();
        assert_eq!(ds.networks.len(), 4);
        std::fs::remove_file(&out).ok();
        std::fs::remove_file(&spec_path).ok();
    }

    /// `--seeds N` must be exactly the concatenation of N standalone
    /// single-seed runs with ids shifted into disjoint ranges — the fused
    /// scheduler is an execution detail, not a semantic one.
    #[test]
    fn multi_seed_simulate_matches_offset_single_runs() {
        let dir = std::env::temp_dir().join("mesh11-cli-seeds");
        std::fs::create_dir_all(&dir).unwrap();
        let ens_path = dir.join("ens.m11t");
        crate::commands::simulate(&args(&[
            "--seed",
            "5",
            "--seeds",
            "2",
            "--networks",
            "3",
            "--out",
            ens_path.to_str().unwrap(),
        ]))
        .unwrap();
        let merged = load_dataset(&ens_path, Sections::all()).unwrap();
        assert_eq!(merged.networks.len(), 6);

        let mut expect = mesh11_trace::Dataset::default();
        for k in 0u32..2 {
            let single_path = dir.join(format!("s{k}.m11t"));
            crate::commands::simulate(&args(&[
                "--seed",
                &(5 + k).to_string(),
                "--networks",
                "3",
                "--out",
                single_path.to_str().unwrap(),
            ]))
            .unwrap();
            let mut single = load_dataset(&single_path, Sections::all()).unwrap();
            expect.probe_horizon_s = single.probe_horizon_s;
            expect.client_horizon_s = single.client_horizon_s;
            single.offset_network_ids(k * 3);
            expect.merge(single);
            std::fs::remove_file(&single_path).ok();
        }
        assert_eq!(merged, expect);
        std::fs::remove_file(&ens_path).ok();
    }

    #[test]
    fn figures_refuse_a_non_finite_report_time() {
        // A NaN report time must stop the load, not reach the per-link
        // time orders and panic there.
        let dir = std::env::temp_dir().join("mesh11-cli-nan-time");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join(format!("tiny-{}.m11t", std::process::id()));
        let path = out.to_str().unwrap();
        crate::commands::simulate(&args(&["--seed", "3", "--networks", "2", "--out", path]))
            .unwrap();
        let mut ds = load_dataset(&out, Sections::all()).unwrap();
        let mut probes = mesh11_trace::ProbeTable::new();
        for (k, p) in ds.probes.iter().enumerate() {
            let time_s = if k == 1 { f64::NAN } else { p.time_s };
            probes.push(mesh11_trace::Probe { time_s, ..p });
        }
        ds.probes = probes;
        mesh11_trace::codec::save(&ds, &out).unwrap();
        let err = crate::commands::figures(&out, &args(&["fig3-1", "ext-adapt"])).unwrap_err();
        assert!(err.contains("non-finite report time"), "{err}");
        std::fs::remove_file(&out).ok();
    }

    /// A checksum-valid file whose probe set names an AP past its
    /// network's `n_aps` decodes, and `inspect` reports it; `analyze` and
    /// `figures` refuse it, naming the set by its position in the file,
    /// however the stream cuts it into parts.
    #[test]
    fn an_invalid_dataset_is_refused() {
        let dir = std::env::temp_dir().join("mesh11-cli-invalid");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join(format!("tiny-{}.m11t", std::process::id()));
        let path = out.to_str().unwrap();
        crate::commands::simulate(&args(&["--seed", "3", "--networks", "3", "--out", path]))
            .unwrap();
        let mut ds = load_dataset(&out, Sections::all()).unwrap();
        // The first b/g set of the last network with b/g sets: past the
        // first part.
        let bg = |p: &mesh11_trace::Probe<'_>| p.phy == mesh11_phy::Phy::Bg;
        let net = ds
            .probes
            .iter()
            .filter(bg)
            .map(|p| p.network)
            .max()
            .unwrap();
        let last = ds.meta(net).unwrap().clone();
        let k = ds
            .probes
            .iter()
            .position(|p| p.network == net && bg(&p))
            .unwrap();
        assert!(k > 0);
        let mut probes = mesh11_trace::ProbeTable::new();
        for (i, p) in ds.probes.iter().enumerate() {
            let sender = if i == k {
                mesh11_trace::ApId(last.n_aps as u32)
            } else {
                p.sender
            };
            probes.push(mesh11_trace::Probe { sender, ..p });
        }
        ds.probes = probes;
        mesh11_trace::codec::save(&ds, &out).unwrap();
        let want = format!("probe[{k}]: AP ids");

        assert!(read_dataset(&out, Sections::all()).is_ok());
        crate::commands::inspect(&out).unwrap();
        let err = crate::commands::analyze(&out, "all").unwrap_err();
        assert!(
            err.contains("invalid dataset") && err.contains(&want),
            "{err}"
        );
        let err = crate::commands::figures(&out, &args(&["fig5-1"])).unwrap_err();
        assert!(
            err.contains("invalid dataset") && err.contains(&want),
            "{err}"
        );

        let sel = mesh11_bench::figures::sections("fig5-1").unwrap();
        let (shell, reader) = mesh11_trace::codec::PartReader::open(&out, &sel, 1).unwrap();
        assert!(reader.len() > 1);
        let kernels = mesh11_bench::figures::kernels("fig5-1").unwrap();
        let cfg = mesh11_sim::SimConfig::quick();
        let err =
            mesh11_bench::ReproContext::from_parts(shell, cfg, 0, &kernels, || reader.parts())
                .err()
                .expect("refused");
        assert!(matches!(err, LoadError::Invalid(_)), "{err}");
        assert!(err.to_string().contains(&want), "{err}");
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn simulate_analyze_round_trip() {
        let dir = std::env::temp_dir().join("mesh11-cli-e2e");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("tiny.m11t");
        crate::commands::simulate(&args(&[
            "--seed",
            "3",
            "--networks",
            "3",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        crate::commands::inspect(&out).unwrap();
        crate::commands::analyze(&out, "all").unwrap();
        assert!(crate::commands::analyze(&out, "nonsense").is_err());
        std::fs::remove_file(&out).ok();
    }
}
