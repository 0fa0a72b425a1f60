//! Regenerate and benchmark the §3 low-precision experiments.
//!
//! Writes `BENCH_numerics.json` at the repo root in the shared
//! `{"bench", "metrics"}` schema, one key per kernel in nanoseconds per
//! unit of work: an element through the E4M3 and BF16 codecs, a 32-product
//! tensor-core group, and a multiply-accumulate of the fine-grained FP8
//! GEMM at 8×2048×8.

use criterion::{criterion_group, criterion_main, Criterion};
use dsv3_core::experiments::{fp8_gemm, fp8_training, logfmt};
use dsv3_core::numerics::gemm::{gemm_fp8, Fp8GemmConfig, MainAccumulator};
use dsv3_core::numerics::logfmt::logfmt_quantize;
use dsv3_core::numerics::minifloat::Format;
use dsv3_core::numerics::tensorcore::{align_truncate_sum, MMA_K};
use dsv3_core::numerics::Matrix;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Best-of-`samples` per-iteration nanoseconds for `f`. Each sample runs
/// for about 10 ms, so one slow scheduling slice does not set the number.
fn time_ns<O>(samples: u32, iters: u32, mut f: impl FnMut() -> O) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let ns = start.elapsed().as_nanos() as f64 / f64::from(iters);
        if ns < best {
            best = ns;
        }
    }
    best
}

fn bench_numerics(c: &mut Criterion) {
    println!("{}", fp8_gemm::render());
    println!("{}", logfmt::render());
    println!("{}", fp8_training::render());

    let mut g = c.benchmark_group("numerics");
    g.sample_size(10);
    let a = Matrix::random(8, 2048, 1.0, 1);
    let b = Matrix::random(2048, 8, 1.0, 2);
    for (name, acc) in [
        ("gemm_fp8_fp22", MainAccumulator::Fp22),
        ("gemm_fp8_split_fp32", MainAccumulator::Fp32),
        ("gemm_fp8_exact", MainAccumulator::Exact),
    ] {
        g.bench_function(name, |bench| {
            bench.iter(|| {
                black_box(gemm_fp8(
                    &a,
                    &b,
                    Fp8GemmConfig { main_acc: acc, ..Fp8GemmConfig::default() },
                ))
            })
        });
    }
    let acts = logfmt::activations(8192, 3);
    g.bench_function("logfmt8_roundtrip", |b| b.iter(|| black_box(logfmt_quantize(&acts, 8))));
    g.bench_function("e4m3_quantize_8k", |b| {
        b.iter(|| {
            let mut acc = 0f64;
            for v in &acts {
                acc += Format::E4M3.quantize(f64::from(*v));
            }
            black_box(acc)
        })
    });
    g.finish();

    let xs: Vec<f64> = acts.iter().map(|v| f64::from(*v)).collect();
    let quantize_ns = |format: Format| {
        let total =
            time_ns(10, 200, || black_box(&xs).iter().map(|x| format.quantize(*x)).sum::<f64>());
        total / xs.len() as f64
    };
    let e4m3_ns = quantize_ns(Format::E4M3);
    let bf16_ns = quantize_ns(Format::BF16);
    // Exact products of E4M3-quantized operands with mixed signs, as the
    // tensor core sees them.
    let products: Vec<f64> = xs
        .iter()
        .zip(xs.iter().rev())
        .map(|(x, y)| Format::E4M3.quantize(x * 64.0) * Format::E4M3.quantize(y * 64.0))
        .collect();
    let groups = products.len().div_ceil(MMA_K);
    let group_ns = time_ns(10, 400, || {
        black_box(&products).chunks(MMA_K).map(align_truncate_sum).sum::<f64>()
    }) / groups as f64;
    let macs = (a.rows * a.cols * b.cols) as f64;
    let mac_ns = time_ns(10, 10, || gemm_fp8(&a, &b, Fp8GemmConfig::default())) / macs;

    let mut json = String::from("{\n  \"bench\": \"numerics\",\n  \"metrics\": {\n");
    let _ = writeln!(json, "    \"e4m3_quantize_ns_per_elem\": {e4m3_ns:.2},");
    let _ = writeln!(json, "    \"bf16_quantize_ns_per_elem\": {bf16_ns:.2},");
    let _ = writeln!(json, "    \"align_truncate_sum_ns_per_group\": {group_ns:.1},");
    let _ = writeln!(json, "    \"gemm_fp8_ns_per_mac\": {mac_ns:.2}");
    json.push_str("  }\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_numerics.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => println!("could not write {path}: {e}"),
    }
}

criterion_group!(benches, bench_numerics);
criterion_main!(benches);
