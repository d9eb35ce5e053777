//! Where a full M11T load spends its time: allocating the probe table,
//! checksumming the sections, and the rest of decoding.
//!
//! ```text
//! RAYON_NUM_THREADS=2 cargo run --release -p mesh11-trace --example load_split -- FILE [REPEATS]
//! ```
//!
//! Each repetition (default 5) runs in a fresh child process, so its
//! allocations fault in fresh pages as a `mesh11 figures` request's do;
//! each figure is the median over the repetitions:
//!
//! * `load`: `codec::load`, the whole file.
//! * `alloc`: allocating and first touching as many bytes as the loaded
//!   table's header rows and observation arena take, the two on two
//!   threads when the pool has two, as the decoder does.
//! * `checksum`: `checksum64` over every section already in memory, on
//!   one thread. A load spreads this work over its decoding threads, so
//!   its share of the load's wall time is this over the thread count.
//! * `decode`: what is left of `load` (positional reads, parsing, record
//!   checks, client samples).

use std::path::Path;
use std::process::Command;
use std::time::Instant;

use mesh11_trace::codec;
use mesh11_trace::{ProbeSet, RateObs};

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// One repetition: prints `load alloc checksum sets observations`.
fn measure(path: &Path) -> std::io::Result<()> {
    let (ds, load) = timed(|| codec::load(path));
    let shape = {
        let ds = ds?;
        (ds.probes.len(), ds.probes.observations().len())
    };
    let (_, alloc) = timed(|| {
        // A non-zero fill touches every page, as the decoder's
        // placeholders do.
        let rows = || vec![1u8; shape.0 * std::mem::size_of::<ProbeSet>()];
        let obs = || vec![1u8; shape.1 * std::mem::size_of::<RateObs>()];
        if rayon::current_num_threads() > 1 {
            std::thread::scope(|s| {
                let rows = s.spawn(rows);
                std::hint::black_box((obs(), rows.join().expect("allocation")))
            });
        } else {
            std::hint::black_box((rows(), obs()));
        }
    });
    let bytes = std::fs::read(path)?;
    let toc = codec::load_toc(path)?;
    let (ok, sum) = timed(|| {
        toc.iter().all(|e| {
            let at = e.offset as usize..(e.offset + e.len) as usize;
            codec::checksum64(&bytes[at]) == e.checksum
        })
    });
    assert!(ok, "a section failed its checksum");
    println!("{load} {alloc} {sum} {} {}", shape.0, shape.1);
    Ok(())
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() -> std::io::Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, file] = &args[..] {
        if flag == "--one" {
            return measure(Path::new(file));
        }
    }
    let Some(file) = args.first() else {
        eprintln!("usage: load_split FILE [REPEATS]");
        std::process::exit(2);
    };
    let repeats: usize = args.get(1).and_then(|r| r.parse().ok()).unwrap_or(5);
    let mut runs: Vec<Vec<f64>> = Vec::new();
    for _ in 0..repeats {
        let out = Command::new(std::env::current_exe()?)
            .args(["--one", file])
            .output()?;
        if !out.status.success() {
            eprintln!("{}", String::from_utf8_lossy(&out.stderr));
            std::process::exit(1);
        }
        let line = String::from_utf8_lossy(&out.stdout).into_owned();
        runs.push(
            line.split_whitespace()
                .map(|x| x.parse().expect("a number"))
                .collect(),
        );
    }
    let col = |k: usize| median(runs.iter().map(|r| r[k]).collect());
    let (load, alloc, sum) = (col(0), col(1), col(2));
    let threads = rayon::current_num_threads() as f64;
    println!(
        "{file}: {} probe sets, {} observations, {threads} threads, {repeats} runs",
        col(3),
        col(4)
    );
    println!("load      {load:.4} s");
    println!("  alloc     {alloc:.4} s");
    println!(
        "  checksum  {:.4} s ({sum:.4} s on one thread)",
        sum / threads
    );
    println!(
        "  decode    {:.4} s (the rest)",
        load - alloc - sum / threads
    );
    Ok(())
}
