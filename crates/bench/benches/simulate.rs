//! Probe-engine hot-path benchmarks: the flat-state pieces against their
//! general-purpose counterparts, and the end-to-end simulate phase.
//!
//! * `simulate/window-*` — the bit-packed tick-indexed rings of one pair
//!   ([`PairWindows`]) vs per-rate `VecDeque` sliding windows
//!   ([`LossWindow`]), driven with the engine's access pattern on the
//!   paper's fixed 40 s cadence (advance per tick, record per rate, loss
//!   reads at 300 s report cuts).
//! * `simulate/faults-*` — compiled interval timelines with monotone
//!   cursors vs naive per-query linear scans over a sizeable fault plan.
//! * `simulate/probes-*` — one network radio end to end through
//!   `simulate_probes`: b/g clean and under the demo fault plan, and an HT
//!   radio clean (32 MCS lanes per direction, most of them past the
//!   delivery cliff, so it times the lanes that bounds on the fade
//!   uniforms settle without a Box–Muller transform).
//!
//! Run with `cargo bench -p mesh11-bench simulate` (add `-- --quick` in
//! CI smoke).

use criterion::{criterion_group, criterion_main, Criterion};
use mesh11_phy::Phy;
use mesh11_sim::probe_engine::simulate_probes;
use mesh11_sim::{
    probe_slots, ApOutage, FaultPlan, InterferenceBurst, LossWindow, PairWindows, SimConfig,
};
use mesh11_topo::{EnvClass, NetworkSpec};
use mesh11_trace::{ApId, NetworkId};
use std::hint::black_box;

const TICKS: u64 = 4_000;
const DT: f64 = 40.0;
const WINDOW_S: f64 = 800.0;
/// Rates per direction, matching the b/g probed set.
const RATES: usize = 7;
/// Report cadence in ticks (300 s / 40 s, rounded up like the engine's cut).
const REPORT_TICKS: u64 = 8;

/// The engine's window access pattern on the ring state: advance both
/// directions once per tick, record every rate, read loss at report cuts.
fn window_ring(c: &mut Criterion) {
    c.bench_function("simulate/window-ring", |b| {
        b.iter(|| {
            let mut w = PairWindows::new(RATES, probe_slots(WINDOW_S, DT));
            let mut acc = 0.0f64;
            for tick in 1..=TICKS {
                w.advance(0, tick);
                w.advance(1, tick);
                for ri in 0..RATES {
                    w.record(0, ri, tick % 3 != 0, 25.0);
                    w.record(1, ri, tick % 5 != 0, 25.0);
                }
                if tick % REPORT_TICKS == 0 {
                    for dir in 0..2 {
                        for ri in 0..RATES {
                            acc += w.loss(dir, ri).unwrap_or(0.0);
                        }
                    }
                }
            }
            black_box(acc)
        })
    });
}

/// The same schedule through the general `VecDeque` windows the engine
/// used to keep per (direction, rate).
fn window_vecdeque(c: &mut Criterion) {
    c.bench_function("simulate/window-vecdeque", |b| {
        b.iter(|| {
            let mut ws: Vec<LossWindow> =
                (0..2 * RATES).map(|_| LossWindow::new(WINDOW_S)).collect();
            let mut acc = 0.0f64;
            for tick in 1..=TICKS {
                let t = tick as f64 * DT;
                for ri in 0..RATES {
                    ws[ri].record(t, tick % 3 != 0);
                    ws[RATES + ri].record(t, tick % 5 != 0);
                }
                if tick % REPORT_TICKS == 0 {
                    for w in &ws {
                        acc += w.loss().unwrap_or(0.0);
                    }
                }
            }
            black_box(acc)
        })
    });
}

/// A fault plan big enough that the naive linear scans have something to
/// chew on: 40 outages across 8 APs and 24 bursts, many overlapping.
fn sizeable_plan() -> FaultPlan {
    let mut plan = FaultPlan::none();
    for k in 0..40u32 {
        let start = 100.0 * f64::from(k);
        plan.outages.push(ApOutage {
            network: NetworkId(0),
            ap: ApId(k % 8),
            start_s: start,
            end_s: start + 350.0,
        });
    }
    for k in 0..24u32 {
        let start = 180.0 * f64::from(k);
        plan.bursts.push(InterferenceBurst {
            network: NetworkId(0),
            start_s: start,
            end_s: start + 400.0,
            penalty_db: 3.0 + f64::from(k % 5),
        });
    }
    plan
}

fn faults_compiled(c: &mut Criterion) {
    let plan = sizeable_plan();
    c.bench_function("simulate/faults-compiled", |b| {
        b.iter(|| {
            let compiled = plan.compile(NetworkId(0));
            let mut bursts = compiled.burst_cursor();
            let mut a = compiled.outage_cursor(ApId(0));
            let mut b_cur = compiled.outage_cursor(ApId(1));
            let mut acc = 0.0;
            let mut up = 0usize;
            for tick in 1..=TICKS {
                let t = tick as f64 * DT;
                acc += bursts.penalty_at(t);
                up += usize::from(a.up_at(t)) + usize::from(b_cur.up_at(t));
            }
            black_box((acc, up))
        })
    });
}

fn faults_naive(c: &mut Criterion) {
    let plan = sizeable_plan();
    c.bench_function("simulate/faults-naive", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            let mut up = 0usize;
            for tick in 1..=TICKS {
                let t = tick as f64 * DT;
                acc += plan.burst_penalty_db(NetworkId(0), t);
                up += usize::from(plan.ap_up(NetworkId(0), ApId(0), t))
                    + usize::from(plan.ap_up(NetworkId(0), ApId(1), t));
            }
            black_box((acc, up))
        })
    });
}

/// A 9-AP indoor grid: 36 candidate pairs, all in range.
fn bench_spec() -> NetworkSpec {
    let positions = (0..9)
        .map(|i| (f64::from(i % 3) * 16.0, f64::from(i / 3) * 16.0))
        .collect();
    NetworkSpec {
        id: NetworkId(0),
        env: EnvClass::Indoor,
        radios: vec![Phy::Bg],
        seed: 42,
        positions,
        params: mesh11_channel::ChannelParams::indoor(),
        geo: mesh11_topo::geo::GeoTag::for_network(0),
    }
}

fn probes_clean(c: &mut Criterion) {
    let spec = bench_spec();
    let cfg = SimConfig::quick();
    c.bench_function("simulate/probes-clean", |b| {
        b.iter(|| black_box(simulate_probes(&spec, Phy::Bg, &cfg)))
    });
}

fn probes_faulted(c: &mut Criterion) {
    let spec = bench_spec();
    let mut cfg = SimConfig::quick();
    cfg.faults = FaultPlan::demo(cfg.probe_horizon_s);
    c.bench_function("simulate/probes-faulted", |b| {
        b.iter(|| black_box(simulate_probes(&spec, Phy::Bg, &cfg)))
    });
}

fn probes_ht(c: &mut Criterion) {
    let mut spec = bench_spec();
    spec.radios = vec![Phy::Ht];
    let cfg = SimConfig::quick();
    c.bench_function("simulate/probes-ht", |b| {
        b.iter(|| black_box(simulate_probes(&spec, Phy::Ht, &cfg)))
    });
}

criterion_group!(
    benches,
    window_ring,
    window_vecdeque,
    faults_compiled,
    faults_naive,
    probes_clean,
    probes_faulted,
    probes_ht
);
criterion_main!(benches);
