//! Client-path hot-path benchmarks: the flat-state pieces of the downlink
//! client-probe engine against their general-purpose counterparts, and the
//! end-to-end per-network passes.
//!
//! * `clients/window-*` — one client's loss state under the client access
//!   pattern: a lane per AP ([`PairWindows::with_lanes`]), only the lanes
//!   above the SNR gate advancing each tick, vs the per-(AP, rate)
//!   `VecDeque` windows ([`LossWindow`]) the engine used to allocate.
//! * `clients/probes-network` — one network's downlink probe pass end to
//!   end (`simulate_client_probes_with_table`, the table hoisted like the
//!   campaign runner does); `-cold` includes the per-call success-table
//!   build the old engine paid.
//! * `clients/sessions-network` — the association/session tracker
//!   (`simulate_clients`), the other per-client simulate-phase pass;
//!   `-dense` runs it on a 6×6 indoor grid, where each step ranks 36 APs
//!   and most of them are ruled out by bounds before their SNR is drawn.
//!
//! Run with `cargo bench -p mesh11-bench clients` (add `-- --quick` in
//! CI smoke).

use criterion::{criterion_group, criterion_main, Criterion};
use mesh11_phy::{CalibratedPhy, Phy, SuccessTable};
use mesh11_sim::client_engine::simulate_clients;
use mesh11_sim::{
    probe_slots, simulate_client_probes, simulate_client_probes_with_table, LossWindow,
    PairWindows, SimConfig,
};
use mesh11_topo::{EnvClass, NetworkSpec};
use mesh11_trace::NetworkId;
use std::hint::black_box;

const TICKS: u64 = 4_000;
const DT: f64 = 40.0;
const WINDOW_S: f64 = 800.0;
/// Rates per AP lane, matching the b/g probed set.
const RATES: usize = 7;
/// APs heard by the client; a lane each.
const APS: usize = 9;
/// Report cadence in ticks (300 s / 40 s, rounded up like the engine's cut).
const REPORT_TICKS: u64 = 8;

/// Whether AP lane `ap` passes the client's SNR gate at `tick` — a fixed
/// schedule where roughly a third of the lanes are audible at a time, so
/// lanes advance independently like a walker drifting between APs.
fn gated(ap: usize, tick: u64) -> bool {
    !(tick / 64 + ap as u64).is_multiple_of(3)
}

/// The client engine's window access pattern on the ring block: advance
/// only the gated lanes, record every rate on them, read loss per lane at
/// report cuts.
fn window_ring_lanes(c: &mut Criterion) {
    c.bench_function("clients/window-ring-lanes", |b| {
        b.iter(|| {
            let mut w = PairWindows::with_lanes(APS, RATES, probe_slots(WINDOW_S, DT));
            let mut acc = 0.0f64;
            for tick in 1..=TICKS {
                for ap in 0..APS {
                    if !gated(ap, tick) {
                        continue;
                    }
                    w.advance(ap, tick);
                    for ri in 0..RATES {
                        w.record(ap, ri, tick % 3 != 0, 25.0);
                    }
                }
                if tick.is_multiple_of(REPORT_TICKS) {
                    for ap in 0..APS {
                        for ri in 0..RATES {
                            acc += w.loss(ap, ri).unwrap_or(0.0);
                        }
                    }
                }
            }
            black_box(acc)
        })
    });
}

/// The same schedule through the per-(AP, rate) `VecDeque` windows the
/// engine used to keep (the inner two levels of its old
/// `Vec<Vec<Vec<LossWindow>>>` state).
fn window_vecdeque_lanes(c: &mut Criterion) {
    c.bench_function("clients/window-vecdeque-lanes", |b| {
        b.iter(|| {
            let mut ws: Vec<LossWindow> = (0..APS * RATES)
                .map(|_| LossWindow::new(WINDOW_S))
                .collect();
            let mut acc = 0.0f64;
            for tick in 1..=TICKS {
                let t = tick as f64 * DT;
                for ap in 0..APS {
                    if !gated(ap, tick) {
                        continue;
                    }
                    for ri in 0..RATES {
                        ws[ap * RATES + ri].record(t, tick % 3 != 0);
                    }
                }
                if tick.is_multiple_of(REPORT_TICKS) {
                    for w in &ws {
                        acc += w.loss().unwrap_or(0.0);
                    }
                }
            }
            black_box(acc)
        })
    });
}

/// A 9-AP indoor grid, the same deployment the probe-engine benches use.
fn bench_spec() -> NetworkSpec {
    grid_spec(3)
}

/// A `side`×`side` indoor grid at 16 m spacing.
fn grid_spec(side: u32) -> NetworkSpec {
    let positions = (0..side * side)
        .map(|i| (f64::from(i % side) * 16.0, f64::from(i / side) * 16.0))
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

/// One network's downlink probe pass with the success table hoisted — the
/// per-client kernel plus prep and merge, as the batch scheduler runs it.
fn probes_network(c: &mut Criterion) {
    let spec = bench_spec();
    let cfg = SimConfig::quick();
    let table = SuccessTable::new(&CalibratedPhy::new());
    c.bench_function("clients/probes-network", |b| {
        b.iter(|| black_box(simulate_client_probes_with_table(&spec, &cfg, &table)))
    });
}

/// The same pass paying a fresh success-table build per call, as the
/// pre-shard engine did on every ext-client evaluation.
fn probes_network_cold(c: &mut Criterion) {
    let spec = bench_spec();
    let cfg = SimConfig::quick();
    c.bench_function("clients/probes-network-cold", |b| {
        b.iter(|| black_box(simulate_client_probes(&spec, &cfg)))
    });
}

/// The association/session tracker over the same population — the other
/// per-client pass of the simulate phase.
fn sessions_network(c: &mut Criterion) {
    let spec = bench_spec();
    let cfg = SimConfig::quick();
    c.bench_function("clients/sessions-network", |b| {
        b.iter(|| black_box(simulate_clients(&spec, &cfg)))
    });
}

/// The tracker on a dense 36-AP indoor grid: the per-step AP ranking
/// dominates.
fn sessions_dense(c: &mut Criterion) {
    let spec = grid_spec(6);
    let cfg = SimConfig::quick();
    c.bench_function("clients/sessions-dense", |b| {
        b.iter(|| black_box(simulate_clients(&spec, &cfg)))
    });
}

criterion_group!(
    benches,
    window_ring_lanes,
    window_vecdeque_lanes,
    probes_network,
    probes_network_cold,
    sessions_network,
    sessions_dense
);
criterion_main!(benches);
