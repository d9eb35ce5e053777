//! PHY kernel benchmarks at lane widths 8 / 64 / 512: the SNR→success
//! waterfall lookup on the full-grid [`RateRow`] against the cache-compact
//! [`CompactRow`] the client-probe kernel uses, and the Marsaglia-polar
//! fade generator draw by draw against its batch `fill`.
//!
//! The SNR lanes mix the head clamp, the transition band and the tail
//! clamp, so the lookups' branches are as unpredictable as they are for
//! real probe lanes.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mesh11_channel::PolarNormal;
use mesh11_phy::{BitRate, CalibratedPhy, SuccessTable};
use mesh11_stats::dist::derive_seed;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;

const WIDTHS: [usize; 3] = [8, 64, 512];

/// Mixed SNR input spanning the whole waterfall — head clamp, transition
/// band, and tail clamp interleaved so the scalar path's branches are
/// unpredictable, as they are for real probe lanes.
fn snr_lanes(n: usize) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(derive_seed(4242, n as u64));
    (0..n)
        .map(|_| -35.0 + 100.0 * rng.random::<f64>())
        .collect()
}

fn bench_success(c: &mut Criterion) {
    let phy = CalibratedPhy::new();
    let table = SuccessTable::new(&phy);
    let r24 = BitRate::bg_mbps(24.0).unwrap();
    let row = table.rate_row(r24);
    let compact = row.compact();

    let mut g = c.benchmark_group("phy-batch/success");
    for n in WIDTHS {
        let snrs = snr_lanes(n);
        let mut out = vec![0.0f64; n];
        g.throughput(Throughput::Elements(n as u64));
        g.bench_function(&format!("scalar/{n}"), |b| {
            b.iter(|| {
                for (o, &s) in out.iter_mut().zip(black_box(&snrs)) {
                    *o = row.success(s);
                }
                black_box(&mut out);
            })
        });
        g.bench_function(&format!("compact-scalar/{n}"), |b| {
            b.iter(|| {
                for (o, &s) in out.iter_mut().zip(black_box(&snrs)) {
                    *o = compact.success(s);
                }
                black_box(&mut out);
            })
        });
    }
    g.finish();
}

fn bench_fade(c: &mut Criterion) {
    let mut g = c.benchmark_group("phy-batch/fade");
    for n in WIDTHS {
        let mut out = vec![0.0f64; n];
        let mut rng = SmallRng::seed_from_u64(7);
        let mut gen = PolarNormal::default();
        g.throughput(Throughput::Elements(n as u64));
        g.bench_function(&format!("scalar/{n}"), |b| {
            b.iter(|| {
                for o in out.iter_mut() {
                    *o = gen.next(&mut rng);
                }
                black_box(&mut out);
            })
        });
        g.bench_function(&format!("fill/{n}"), |b| {
            b.iter(|| {
                gen.fill(&mut rng, &mut out);
                black_box(&mut out);
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_success, bench_fade);
criterion_main!(benches);
