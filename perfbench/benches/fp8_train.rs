//! `fp8-train`: the §2.4 trainer on all four precision backends, the
//! gradient probe, the §3.1 K-sweep, and per-element codec probes.
//!
//! `numerics` does almost all the work and `netsim` none. The `F32`
//! backend touches no FP8 code: it is the in-workload control that a
//! faster FP8 kernel should leave unchanged.

use std::collections::BTreeMap;

use dsv3_model::train::{Precision, TrainConfig, TrainReport};
use dsv3_numerics::gemm::MainAccumulator;
use dsv3_numerics::minifloat::Format;
use dsv3_numerics::Matrix;

use crate::check::{all_finite, Digest};
use crate::layers::{model, numerics};
use crate::trace::Tracer;
use crate::{Outcome, Workload};

/// Inner dimensions of the §3.1 accumulation sweep.
const KS: [usize; 4] = [512, 2048, 8192, 32_768];

/// The trainer's five GEMM shapes per step at the default `TrainConfig`
/// (batch 16, 256 → 32 → 4): forward x·W₁ and h·W₂, backward hᵀ·dy,
/// dy·W₂ᵀ and xᵀ·dh, as (M, K, N).
const TRAIN_SHAPES: [(usize, usize, usize); 5] =
    [(16, 256, 32), (16, 32, 4), (32, 16, 4), (16, 4, 32), (256, 16, 32)];

/// Largest |relative final-loss gap| of FP8-fine vs BF16. The unit tests'
/// 0.15 holds at their fixed seed; across 60 seeds of this 300-step,
/// batch-16 run the gap spans -0.20 .. +0.13 (standard deviation about
/// 0.07), so a bound that holds for every seed needs 0.25. A broken FP8
/// path diverges far beyond it.
const MAX_FP8_GAP: f64 = 0.25;

/// Seeded batches the gradient probe is averaged over. The 2x
/// per-tensor-vs-fine bound of the unit tests holds for one batch at their
/// fixed seeds, but single batches miss it for about 1 seed in 20 (ratios
/// down to 1.06); over 254 seeds the mean of 16 batches stayed above 2.4.
const PROBE_BATCHES: u64 = 16;

/// Passes over [`TRAIN_SHAPES`] per backend when timing ns per MAC.
const GEMM_REPS: usize = 20;

/// Elements in the codec probe tensor (a 256 × 256 activation).
const CODEC_ELEMS: usize = 256 * 256;

/// Backends in training order; BF16 runs before FP8-fine, whose loss gap
/// is judged against it.
const BACKENDS: [(Precision, &str); 4] = [
    (Precision::F32, "model.train.f32"),
    (Precision::Bf16, "model.train.bf16"),
    (Precision::Fp8Fine, "model.train.fp8_fine"),
    (Precision::Fp8Coarse, "model.train.fp8_coarse"),
];

pub struct Fp8Train;

pub struct Inputs {
    cfg: TrainConfig,
    /// (K, A: 4×K, B: K×4), positive-mean so accumulators grow with K.
    k_sweep: Vec<(usize, Matrix, Matrix)>,
    train_shapes: Vec<(Matrix, Matrix)>,
    activations: Vec<f64>,
    /// Exact products of E4M3-quantized operand pairs.
    products: Vec<f64>,
}

fn macs_per_shape_pass() -> f64 {
    TRAIN_SHAPES.iter().map(|(m, k, n)| (m * k * n) as f64).sum()
}

impl Workload for Fp8Train {
    type Inputs = Inputs;
    const NAME: &'static str = "fp8-train";

    fn setup(seed: u64, t: &mut Tracer) -> Inputs {
        let cfg = TrainConfig { seed, ..TrainConfig::default() };
        let k_sweep = KS
            .iter()
            .map(|&k| {
                let mut a = Matrix::random(4, k, 1.0, seed ^ (0x100 + k as u64));
                let mut b = Matrix::random(k, 4, 1.0, seed ^ (0x200 + k as u64));
                for v in a.data.iter_mut().chain(b.data.iter_mut()) {
                    *v = v.abs() + 0.05;
                }
                (k, a, b)
            })
            .collect();
        let train_shapes: Vec<(Matrix, Matrix)> = TRAIN_SHAPES
            .iter()
            .enumerate()
            .map(|(i, &(m, k, n))| {
                let s = seed ^ (0x300 + 2 * i as u64);
                (Matrix::random(m, k, 1.0, s), Matrix::random(k, n, 0.1, s + 1))
            })
            .collect();
        // Channel magnitudes spread over 2^-8 .. 2^7, the outlier structure
        // that motivates fine-grained scales.
        let act = Matrix::random(256, 256, 1.0, seed ^ 0x400);
        let activations: Vec<f64> = act
            .data
            .iter()
            .enumerate()
            .map(|(i, v)| f64::from(*v) * f64::powi(2.0, (i % 16) as i32 - 8))
            .collect();
        let other = Matrix::random(256, 256, 1.0, seed ^ 0x500);
        let qa = numerics::quantize(t, "numerics.e4m3_quantize", Format::E4M3, &activations);
        let qb: Vec<f64> = other.data.iter().map(|v| f64::from(*v)).collect();
        let qb = numerics::quantize(t, "numerics.e4m3_quantize", Format::E4M3, &qb);
        let products = qa.iter().zip(&qb).map(|(a, b)| a * b).collect();
        // Warm-up: one trainer GEMM per backend.
        let (a, b) = &train_shapes[0];
        for (p, _) in BACKENDS {
            let _ = model::gemm(t, "model.gemm.warmup", a, b, p);
        }
        Inputs { cfg, k_sweep, train_shapes, activations, products }
    }

    fn input_digest(i: &Inputs) -> Digest {
        let mut d = Digest::default();
        d.u64(i.cfg.seed);
        for (k, a, b) in &i.k_sweep {
            d.u64(*k as u64);
            d.f32s(&a.data);
            d.f32s(&b.data);
        }
        for (a, b) in &i.train_shapes {
            d.f32s(&a.data);
            d.f32s(&b.data);
        }
        d.f64s(&i.activations);
        d.f64s(&i.products);
        d
    }

    fn pass(i: &Inputs, t: &mut Tracer, out: &mut Outcome) {
        // §2.4 training on every backend.
        let mut reports: Vec<TrainReport> = Vec::new();
        for (p, name) in BACKENDS {
            let r = model::train(t, name, p, i.cfg);
            out.digest.f64s(&r.losses);
            let finite = all_finite(r.losses.iter().copied().chain([r.final_loss]));
            let gap_ok = match (p, reports.iter().find(|r| r.precision == Precision::Bf16)) {
                (Precision::Fp8Fine, Some(bf16)) => {
                    ((r.final_loss - bf16.final_loss) / bf16.final_loss).abs() < MAX_FP8_GAP
                }
                (Precision::Fp8Fine, None) => false,
                _ => true,
            };
            out.checks.op(
                name,
                &[(finite, "losses are finite"), (gap_ok, "|fp8-fine gap vs bf16| < 0.25")],
            );
            reports.push(r);
        }

        // Gradient fidelity under 1e5 activation outliers, averaged over
        // PROBE_BATCHES seeded batches.
        let (mut fine, mut coarse) = (0.0, 0.0);
        for b in 0..PROBE_BATCHES {
            let seed = i.cfg.seed.wrapping_mul(PROBE_BATCHES).wrapping_add(b);
            let f = model::gradient_probe(t, Precision::Fp8Fine, 1e5, seed);
            let c = model::gradient_probe(t, Precision::Fp8Coarse, 1e5, seed);
            out.digest.f64s(&[f, c]);
            out.checks.op(
                "model.gradient_probe",
                &[(f.is_finite() && c.is_finite(), "errors are finite")],
            );
            fine += f;
            coarse += c;
        }
        out.checks.op(
            &format!("model.gradient_probe mean: fine {fine:.3}, per-tensor {coarse:.3} (sums)"),
            &[(coarse > 2.0 * fine, "mean per-tensor gradient error > 2x fine-grained")],
        );

        // §3.1 K-sweep: three main accumulators plus per-tensor scaling.
        let mut gemm_calls = 0u64;
        for (k, a, b) in &i.k_sweep {
            for acc in [MainAccumulator::Fp22, MainAccumulator::Fp32, MainAccumulator::Exact] {
                let c = numerics::gemm(t, a, b, acc);
                check_gemm(out, &format!("numerics.gemm_fp8 {acc:?} K={k}"), &c);
            }
            let c = numerics::gemm_per_tensor(t, a, b);
            check_gemm(out, &format!("numerics.gemm_fp8_per_tensor K={k}"), &c);
            gemm_calls += 4;
        }

        // ns per MAC on the trainer's own shapes, fine-grained and per-tensor.
        for (p, name) in [
            (Precision::Fp8Fine, "model.gemm.fp8_fine"),
            (Precision::Fp8Coarse, "model.gemm.fp8_coarse"),
        ] {
            for rep in 0..GEMM_REPS {
                for (a, b) in &i.train_shapes {
                    let c = model::gemm(t, name, a, b, p);
                    if rep == 0 {
                        check_gemm(out, name, &c);
                    }
                    gemm_calls += 1;
                }
            }
        }

        // Per-element codec and tensor-core probes.
        let codes = numerics::e4m3_encode(t, &i.activations);
        let decoded = numerics::e4m3_decode(t, &codes);
        let bf16 = numerics::quantize(t, "numerics.bf16_quantize", Format::BF16, &i.activations);
        let sums = numerics::align_truncate_sums(t, &i.products);
        let max = Format::E4M3.max_finite();
        out.checks
            .op("numerics.e4m3_encode", &[(codes.iter().all(|c| *c < 256), "codes fit in 8 bits")]);
        out.checks.op(
            "numerics.e4m3_decode",
            &[(decoded.iter().all(|v| v.is_finite() && v.abs() <= max), "decodes within ±max")],
        );
        out.checks.op("numerics.bf16_quantize", &[(all_finite(bf16.iter().copied()), "finite")]);
        out.checks
            .op("numerics.align_truncate_sum", &[(all_finite(sums.iter().copied()), "finite")]);
        out.digest.u64(codes.iter().fold(0u64, |h, c| h.rotate_left(5) ^ u64::from(*c)));
        out.digest.f64s(&decoded);
        out.digest.f64s(&bf16);
        out.digest.f64s(&sums);

        out.counts.insert("numerics.gemm_calls", gemm_calls as f64);
        out.counts.insert("numerics.elems_encoded", (codes.len() + bf16.len()) as f64);
    }

    fn layer_metrics(_setup: &Tracer, t: &Tracer, out: &Outcome) -> BTreeMap<&'static str, f64> {
        let mac_ns =
            |name: &str| t.total_s(name) * 1e9 / (GEMM_REPS as f64 * macs_per_shape_pass());
        let elem_ns = |name: &str| t.total_s(name) * 1e9 / CODEC_ELEMS as f64;
        let mut m = BTreeMap::from([
            ("model.train_s.f32", t.total_s("model.train.f32")),
            ("model.train_s.bf16", t.total_s("model.train.bf16")),
            ("model.train_s.fp8_fine", t.total_s("model.train.fp8_fine")),
            ("model.train_s.fp8_coarse", t.total_s("model.train.fp8_coarse")),
            ("model.gradient_probe_s", t.total_s("model.gradient_probe")),
            ("numerics.gemm_fp8_ns_per_mac", mac_ns("model.gemm.fp8_fine")),
            ("numerics.gemm_per_tensor_ns_per_mac", mac_ns("model.gemm.fp8_coarse")),
            ("numerics.k_sweep_s", t.total_s("numerics.k_sweep")),
            ("numerics.e4m3_encode_ns", elem_ns("numerics.e4m3_encode")),
            ("numerics.e4m3_decode_ns", elem_ns("numerics.e4m3_decode")),
            ("numerics.bf16_quantize_ns", elem_ns("numerics.bf16_quantize")),
            ("numerics.align_truncate_sum_ns", elem_ns("numerics.align_truncate_sum")),
        ]);
        m.extend(out.counts.iter().map(|(k, v)| (*k, *v)));
        m
    }
}

fn check_gemm(out: &mut Outcome, what: &str, c: &Matrix) {
    out.digest.f32s(&c.data);
    out.checks.op(what, &[(c.data.iter().all(|v| v.is_finite()), "output is finite")]);
}
