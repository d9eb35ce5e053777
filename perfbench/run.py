#!/usr/bin/env python3
"""The mesh11 benchmark: end-to-end runs of `repro` and `mesh11` as black
boxes, and a separate traced run that times each layer from outside.

    python3 perfbench/run.py --workload standard-mem --seed 42 --seconds 30 --trace 0

Run it from the root of a source checkout. It builds the programs (release,
into $CARGO_TARGET_DIR, default `.bench_build`), maps the seed to an input,
runs the workload closed-loop (one child process at a time) for about
`--seconds` seconds, checks every output, prints a report and, as the last
line, one JSON object with the metrics. `--trace 1` prints the per-layer
metrics of the traced run instead. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import bench_stats as bs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_tmp"

DEFAULT_SEED = 42
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 150.0
FILE_THREADS = "2"

# Every figure id `repro --all` builds, in `figures::ALL_IDS` order.
FIGURE_IDS = [
    "fig1-1", "fig3-1", "fig4-1", "fig4-2", "fig4-3", "fig4-4", "fig4-5", "fig4-6", "tab4-1",
    "fig5-1", "fig5-2", "fig5-3", "fig5-4", "fig5-5", "fig6-1", "fig6-2", "sec6-3", "fig7-1",
    "fig7-2", "fig7-3", "fig7-4", "fig7-5", "ext-adapt", "ext-sweep", "ext-stability",
    "ext-diversity", "ext-ett", "ext-cap", "ext-client",
]
# The single-figure requests of file-figures: one per analysis family.
FILE_FIGURE_IDS = ["fig1-1", "fig3-1", "fig4-1", "fig4-5", "fig5-1", "fig6-1", "fig7-1", "ext-adapt"]
# The `FusedOutputs` field each `FusedRunner` kernel feeds.
KERNELS = [
    "sigmas.sets", "sigmas.links", "sigmas.recent", "sigmas.nets", "curves.bg", "curves.ht",
    "strategy_bg", "routing_bg", "asymmetry_bg", "triples_bg", "ranges_bg", "adapters_ext",
    "sweep_ext", "stability_bg", "diversity_ext", "ett_bg", "cap_ext",
    "tables.global.bg", "tables.global.ht", "tables.network.bg", "tables.network.ht",
    "tables.ap.bg", "tables.ap.ht", "tables.link.bg", "tables.link.ht",
]

WORKLOADS = {
    "standard-mem": {
        "pool": "standard",
        "repro": ["--scale", "standard", "--threads", "2"],
        "threads": 2,
    },
    "metro-spill": {
        "pool": "metro",
        "repro": ["--scale", "metro", "--metro-factor", "2", "--threads", "1", "--chunk-budget", "4"],
        "threads": 1,
        "spill": True,
    },
    "file-figures": {"pool": "standard", "threads": 2},
}

END_TO_END_UNITS = {
    "total_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cpu_s": "s",
    "probe_sets_per_s": "1/s",
    "request_p50_s": "s",
}


def log(msg):
    print(f"# {msg}", file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# ---------------------------------------------------------------- processes

def run_child(argv, cwd, stdout_path, env=None):
    """Runs one child to completion; returns (exit code, wall s, cpu s,
    peak RSS MB) from the kernel's accounting of that child alone. A child
    still running after CHILD_TIMEOUT_S is killed."""
    with open(stdout_path, "wb") as out, open(Path(stdout_path).with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err, env=env)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    # Reaped by wait4 (for its rusage); tell Popen so it does not wait again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def child_env(tmp):
    env = dict(os.environ)
    env["TMPDIR"] = str(tmp)
    return env


def target_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    """Builds `repro`, `mesh11` and the benchmark helper (release)."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "bench").is_dir():
        raise BenchError(f"no mesh11 source tree at {ROOT}")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "mesh11-bench", "-p", "mesh11-cli", "--bins"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(HERE / "layers" / "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    bins = target_dir() / "release"
    return {name: str(bins / name) for name in ("repro", "mesh11", "perfbench-layers")}


def worktree_snapshot():
    """(path, size, mtime) of every file in the checkout outside the build
    and scratch directories."""
    skip = {ROOT / ".git", SCRATCH, target_dir(), ROOT / "target"}
    snap = set()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        d = Path(dirpath)
        dirnames[:] = [n for n in dirnames if d / n not in skip]
        for n in filenames:
            st = (d / n).lstat()
            snap.add((str((d / n).relative_to(ROOT)), st.st_size, st.st_mtime_ns))
    return snap


# ------------------------------------------------------------------ inputs

def campaign_seed(workload, seed):
    """The campaign seed benchmark seed `seed` runs: an entry of the
    workload's input pool, chosen by a hash of the seed."""
    pool = json.loads((HERE / "seeds.json").read_text())[WORKLOADS[workload]["pool"]]["seeds"]
    h = int.from_bytes(hashlib.sha256(f"{workload}:{seed}".encode()).digest()[:8], "big")
    return pool[h % len(pool)]


def stored_digests(workload, seed):
    entry = json.loads((HERE / "digests.json").read_text()).get(workload)
    if entry and entry["seed"] == seed:
        return entry["figures"]
    return None


# -------------------------------------------------------------- workloads

class Unit:
    """One closed-loop unit of work: a whole `repro` run, or one pass of
    the file-figures requests."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        self.rss = 0.0
        self.latencies = []
        self.digests = {}
        self.failed = 0
        self.probe_sets = None


def repro_unit(bins, workload, cseed, tmp, idx):
    spec = WORKLOADS[workload]
    d = tmp / f"unit{idx}"
    out, spill = d / "out", d / "spill"
    spill.mkdir(parents=True)
    argv = [bins["repro"], *spec["repro"], "--seed", str(cseed), "--all",
            "--out", str(out), "--bench-json", str(d / "bench.json")]
    if spec.get("spill"):
        argv += ["--spill-dir", str(spill)]
    u = Unit()
    code, u.wall, u.cpu, u.rss = run_child(argv, d, d / "stdout", child_env(tmp))
    u.latencies = [u.wall]
    if code != 0:
        log(f"repro exited {code}: {(d / 'stdout.err').read_text()[-2000:]}")
        u.failed += 1
    for f in sorted(out.glob("*.json")) if out.is_dir() else []:
        if f.name != "bench_timings.json":
            u.digests[f.name] = bs.fnv1a64(f.read_bytes())
    leftovers = list(spill.iterdir())
    if leftovers:
        log(f"{len(leftovers)} spill files left after repro exited")
        u.failed += len(leftovers)
    try:
        u.probe_sets = json.loads((d / "bench.json").read_text())["n_probes"]
    except (OSError, ValueError, KeyError):
        u.failed += 1
    shutil.rmtree(d)
    return u


def file_unit(bins, data, tmp, idx, probe_sets):
    d = tmp / f"unit{idx}"
    d.mkdir()
    env = child_env(tmp)
    env["RAYON_NUM_THREADS"] = FILE_THREADS
    u = Unit()
    u.probe_sets = probe_sets
    for fid in FILE_FIGURE_IDS:
        stdout = d / f"{fid}.out"
        code, wall, cpu, rss = run_child([bins["mesh11"], "figures", str(data), fid], d, stdout, env)
        u.wall += wall
        u.cpu += cpu
        u.rss = max(u.rss, rss)
        u.latencies.append(wall)
        if code != 0:
            log(f"mesh11 figures {fid} exited {code}")
            u.failed += 1
        u.digests[fid] = bs.fnv1a64(stdout.read_bytes())
    shutil.rmtree(d)
    return u


def check_digests(units, reference):
    """Counts mismatched or missing outputs per unit against `reference`
    (stored digests) or, without one, against the first unit."""
    reference = reference or units[0].digests
    attempted = failed = 0
    for u in units:
        attempted += len(reference)
        bad = sum(1 for k, v in reference.items() if u.digests.get(k) != v)
        failed += max(bad, u.failed)
    return attempted, failed


def setup_seconds(bins, workload, cseed, data, tmp):
    """Median of SETUP_REPEATS cold set-ups, each in a fresh process."""
    argv = [bins["perfbench-layers"], "setup", "--workload", workload, "--campaign-seed", str(cseed)]
    if data:
        argv += ["--file", str(data)]
    times = []
    for _ in range(SETUP_REPEATS):
        r = subprocess.run(argv, cwd=tmp, env=child_env(tmp), capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT_S)
        if r.returncode != 0:
            raise BenchError(f"setup failed: {r.stderr.strip()}")
        times.append(float(r.stdout.strip()))
    return bs.median(times)


def make_dataset(bins, cseed, tmp):
    """Untimed: the dataset file file-figures analyses."""
    data = tmp / "dataset.m11t"
    code, *_ = run_child([bins["mesh11"], "simulate", "--scale", "standard", "--seed", str(cseed),
                          "--out", str(data)], tmp, tmp / "simulate.out", child_env(tmp))
    if code != 0:
        raise BenchError("mesh11 simulate failed")
    err = (tmp / "simulate.err").read_text()
    probe_sets = int(err.split("(")[-1].split()[0])
    return data, probe_sets


def run_units(bins, workload, cseed, tmp, data, probe_sets, seconds, min_units=2):
    """Closed loop, one client: units back to back until the next one would
    end past `seconds`, and at least `min_units`."""
    units = []
    t0 = time.perf_counter()
    while True:
        if workload == "file-figures":
            units.append(file_unit(bins, data, tmp, len(units), probe_sets))
        else:
            units.append(repro_unit(bins, workload, cseed, tmp, len(units)))
        elapsed = time.perf_counter() - t0
        per_unit = elapsed / len(units)
        if len(units) >= min_units and elapsed + per_unit > seconds:
            return units


def end_to_end(units, setup_s, requests_per_unit):
    return {
        "total_s": bs.median([u.wall for u in units]),
        "setup_s": setup_s,
        "peak_rss_mb": bs.median([u.rss for u in units]),
        "cpu_s": bs.median([u.cpu for u in units]),
        "probe_sets_per_s": bs.median(
            [bs.ratio(bs.scaled(u.probe_sets, requests_per_unit), u.wall) for u in units]),
        "request_p50_s": bs.median([t for u in units for t in u.latencies]),
    }


# ------------------------------------------------------------ traced run

def per_layer(spans, counters, untraced_total_s):
    st = bs.span_table(spans)

    def own(name):
        return st[name]["self"] if name in st else None

    def incl(name):
        return st[name]["incl"] if name in st else None

    c = counters.get
    hits, wasted = c("trace.prefetch_hits"), c("trace.prefetch_wasted")
    m = {
        "topo.generate_s": own("topo.generate"),
        "phy.success_table_s": own("phy.success_table"),
        "sim.campaign_s": own("sim.campaign"),
        "sim.pairs": c("sim.pairs"),
        "sim.probe_sets": c("sim.probe_sets"),
        "sim.probe_sets_per_s": bs.ratio(c("sim.probe_sets"), own("sim.campaign")),
        "sim.client_probes_s": own("sim.client_probes"),
        "sim.clients": c("sim.clients"),
        "trace.store.add_s": own("trace.store.add"),
        "trace.store.finish_s": own("trace.store.finish"),
        "trace.sim_handoff_s": incl("trace.sim_handoff"),
        "trace.spill_raw_bytes": c("trace.spill_raw_bytes"),
        "trace.spill_encoded_bytes": c("trace.spill_encoded_bytes"),
        "trace.spill_ratio": bs.ratio(c("trace.spill_encoded_bytes"), c("trace.spill_raw_bytes")),
        "trace.chunk_hits": c("trace.chunk_hits"),
        "trace.chunk_decodes": c("trace.chunk_decodes"),
        "trace.decode_s": bs.scaled(c("trace.decode_ns"), 1e-9),
        "trace.prefetch_hits": hits,
        "trace.prefetch_wasted": wasted,
        "trace.prefetch_useful_ratio": bs.ratio(hits, None if hits is None else hits + wasted),
        "trace.peak_pinned_mb": bs.scaled(c("trace.peak_pinned_bytes"), 1 / 2**20),
        "trace.over_budget_events": c("trace.over_budget_events"),
        "trace.window_s": own("trace.window"),
        "trace.window_builds": c("trace.window_builds"),
        "trace.window_hits": c("trace.window_hits"),
        "trace.index.build_s": own("trace.index.build"),
        "trace.index.probe_sets_per_s": bs.ratio(c("trace.index.probe_sets"), own("trace.index.build")),
        "trace.codec.load_s": own("trace.codec.load"),
        "trace.codec.load_mb_per_s": bs.ratio(bs.scaled(c("trace.codec.bytes"), 1e-6),
                                              own("trace.codec.load")),
    }
    for k in KERNELS:
        m[f"core.fold.{k}_s"] = own(f"core.fold.{k}")
    m["core.pass_b_s"] = own("core.pass_b")
    m["core.mobility_s"] = own("core.mobility")
    for fid in FIGURE_IDS:
        m[f"figures.{fid}_s"] = own(f"figures.{fid}")
    for fid in FILE_FIGURE_IDS:
        m[f"figures.{fid}.cold_s"] = own(f"figures.{fid}.cold")
    m["figures.emit_s"] = own("figures.emit")

    # The program's own work sits under the "pipeline" roots; "fixture"
    # roots hold scaffolding (building a warm context) and are left out.
    roots = [sp for sp in spans if sp["parent"] is None and sp["name"] == "pipeline"]
    wall = sum(sp["end"] - sp["start"] for sp in roots)
    structural = sum(row["self"] for name, row in st.items()
                     if name == "pipeline" or name.startswith("request."))
    m["tracing.wall_s"] = wall
    m["tracing.overhead_s"] = None if untraced_total_s is None else wall - untraced_total_s
    m["tracing.coverage"] = bs.ratio(wall - structural, wall)
    m["tracing.unattributed_s"] = structural
    return m


def traced_run(bins, workload, cseed, tmp, data):
    d = tmp / "trace"
    d.mkdir()
    argv = [bins["perfbench-layers"], "trace", "--workload", workload,
            "--campaign-seed", str(cseed), "--dir", str(d)]
    if data:
        argv += ["--file", str(data)]
    code, *_ = run_child(argv, d, tmp / "trace.out", child_env(tmp))
    if code != 0:
        raise BenchError(f"traced run failed: {(tmp / 'trace.err').read_text().strip()}")
    doc = json.loads((d / "spans.json").read_text())
    out = d / "out"
    digests = {}
    if workload == "file-figures":
        for fid in FILE_FIGURE_IDS:
            digests[fid] = bs.fnv1a64((out / f"{fid}.txt").read_bytes())
    else:
        for f in sorted(out.glob("*.json")):
            digests[f.name] = bs.fnv1a64(f.read_bytes())
    leftovers = list((d / "spill").iterdir()) if (d / "spill").is_dir() else []
    shutil.rmtree(d)
    return doc, digests, len(leftovers)


# ---------------------------------------------------------------- report

def provenance(workload, seed, cseed, trace):
    commit = None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = r.stdout.strip() or None if r.returncode == 0 else None
    except OSError:
        pass
    src = hashlib.sha256()
    for base in ("Cargo.toml", "Cargo.lock", "crates", "vendor", "src"):
        p = ROOT / base
        for f in sorted([p] if p.is_file() else p.rglob("*") if p.is_dir() else []):
            if f.is_file():
                src.update(str(f.relative_to(ROOT)).encode())
                src.update(f.read_bytes())
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        cpu = platform.processor() or cpu
    return {
        "commit": commit,
        "source_sha256": src.hexdigest()[:16],
        "workload": workload,
        "seed": seed,
        "campaign_seed": cseed,
        "threads": WORKLOADS[workload]["threads"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "tracing": bool(trace),
    }


def fmt(v):
    return "null" if v is None else f"{v:.6g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bins = build()
    cseed = campaign_seed(args.workload, args.seed)
    tmp = SCRATCH / f"{args.workload}-{os.getpid()}"
    before = worktree_snapshot()
    tmp.mkdir(parents=True)
    try:
        data, probe_sets = make_dataset(bins, cseed, tmp) if args.workload == "file-figures" else (None, None)
        reference = stored_digests(args.workload, args.seed)
        if args.trace:
            # One untraced unit gives the baseline the tracing overhead is
            # measured against, and the outputs the replica must match.
            units = run_units(bins, args.workload, cseed, tmp, data, probe_sets, 0, min_units=1)
            doc, trace_digests, leftovers = traced_run(bins, args.workload, cseed, tmp, data)
            attempted, failed = check_digests(units, reference)
            ref = reference or units[0].digests
            bad = sum(1 for k, v in ref.items() if trace_digests.get(k) != v)
            attempted += len(ref)
            failed += bad + leftovers
            metrics = per_layer(doc["spans"], doc["counters"], units[0].wall)
            units_desc = "traced"
        else:
            setup_s = setup_seconds(bins, args.workload, cseed, data, tmp)
            units = run_units(bins, args.workload, cseed, tmp, data, probe_sets, args.seconds)
            attempted, failed = check_digests(units, reference)
            requests = len(FILE_FIGURE_IDS) if args.workload == "file-figures" else 1
            metrics = end_to_end(units, setup_s, requests)
            units_desc = f"{len(units)} units"
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
    changed = before ^ worktree_snapshot()
    if changed:
        log(f"the run changed the worktree: {sorted(changed)[:5]}")
        failed += 1

    info = provenance(args.workload, args.seed, cseed, args.trace)
    info["units"] = units_desc
    info["digests"] = "stored" if reference else "agreement across units"
    print("# provenance " + json.dumps(info))
    if args.trace:
        print("# per-layer (null: the layer is idle on this workload)")
        for k, v in metrics.items():
            print(f"#   {k:36s} {fmt(v)}")
        metrics_out = {k: {"value": bs.contract_value(v), "unit": layer_unit(k)}
                       for k, v in metrics.items()}
    else:
        lat = [t for u in units for t in u.latencies]
        tail = bs.tail_percentile(lat)
        print(f"# end-to-end ({len(units)} units; {len(lat)} requests)")
        for k, v in metrics.items():
            print(f"#   {k:18s} {fmt(v):>12s} {END_TO_END_UNITS[k]}")
        print(f"#   {'failed_frac':18s} {fmt(bs.ratio(failed, attempted)):>12s} 1")
        print("#   tail latency: " + (f"p{tail[0]:g} {tail[1]:.6g} s" if tail else
                                       f"none (no percentile has 10 of {len(lat)} samples beyond it)"))
        # The stored reference in digests.json is this line at DEFAULT_SEED.
        print("# digests " + json.dumps(units[0].digests, sort_keys=True))
        metrics_out = {k: {"value": bs.contract_value(v), "unit": END_TO_END_UNITS[k]}
                       for k, v in metrics.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics_out}
    print(json.dumps(result))


def layer_unit(name):
    for suffix, unit in (("_mb_per_s", "MB/s"), ("_per_s", "1/s"), ("_s", "s"), ("_mb", "MB"),
                         ("_bytes", "bytes"), ("_ratio", "ratio"), ("coverage", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    # A terminated run still kills its child and removes its scratch.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        main()
    except BenchError as e:
        log(f"error: {e}")
        sys.exit(1)
