//! Spill codec: v2 frame encode and decode throughput on real simulated
//! probe chunks, against the chunk's raw column bytes. Run with
//! `cargo bench -p mesh11-bench spill`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mesh11_bench::Scale;
use mesh11_trace::ProbeChunk;
use std::hint::black_box;

const SEED: u64 = 42;

/// One chunk holding every probe of the quick-scale dataset — the
/// realistic column shapes (monotone times, quantized losses, Gaussian
/// SNRs) the codec was designed against.
fn quick_chunk() -> ProbeChunk {
    let scale = Scale::Quick;
    let ds = scale
        .config()
        .run_campaign(&scale.campaign_spec(SEED).generate());
    let mut chunk = ProbeChunk::with_capacity(ds.probes.len());
    for p in &ds.probes {
        chunk.push(p);
    }
    chunk
}

fn codec_throughput(c: &mut Criterion) {
    let chunk = quick_chunk();
    let raw_bytes = chunk.raw_len();
    let mut g = c.benchmark_group("spill/codec");
    g.throughput(Throughput::Bytes(raw_bytes));
    g.bench_function("encode-v2", |b| {
        let mut buf = Vec::new();
        b.iter(|| {
            buf.clear();
            chunk.encode(&mut buf);
            black_box(buf.len())
        })
    });
    let mut frame = Vec::new();
    chunk.encode(&mut frame);
    eprintln!(
        "# spill/codec v2: {} raw -> {} bytes ({:.3}x)",
        raw_bytes,
        frame.len(),
        frame.len() as f64 / raw_bytes as f64
    );
    g.bench_function("decode-v2", |b| {
        b.iter(|| black_box(ProbeChunk::decode(&frame).expect("frame decodes")))
    });
    g.finish();
}

criterion_group!(benches, codec_throughput);
criterion_main!(benches);
