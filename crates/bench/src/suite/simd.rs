//! Per-kernel SIMD dispatch benches: each kernel that keeps an AVX2 tier
//! in `gsfl_tensor::simd` is timed with the ISA pinned explicitly —
//! scalar tier as the baseline, AVX2 tier as the fast side — so
//! `perf_compare` tracks the vectorization win per kernel independently
//! of the end-to-end numbers. Rows are sized to what the program runs:
//! DeepThin's conv weight-gradient shapes and the client model
//! `orchestrated_sfl` sparsifies. The fused softmax cross-entropy rides
//! along with the historical unfused kernel as its baseline, and the
//! reference GEMM as a plain timing.
//!
//! On hosts without AVX2/FMA/F16C the fast side falls back to the scalar
//! lanes (the dispatch wrappers re-check the CPU), so the speedups
//! degenerate to ≈1.0× instead of lying.

use super::Suite;
use gsfl_nn::codec::TopK;
use gsfl_nn::loss::SoftmaxCrossEntropy;
use gsfl_tensor::matmul::{gemm_a_bt_with_isa, gemm_with_isa};
use gsfl_tensor::simd::Isa;
use gsfl_tensor::wire::{encode_f16_with_isa, encode_intq_with_isa, encode_topk_with_isa, WireBuf};
use gsfl_tensor::{reference, Tensor, Workspace};
use std::hint::black_box;

/// Codec-bench payload size (matches the codec group: 64k scalars).
const N: usize = 64 * 1024;

/// Fixed stochastic-rounding stream; both ISA tiers must draw the same
/// sequence for the byte-identity contract to hold.
const STREAM: u64 = 42;

/// DeepThin's two conv weight-gradient shapes `(m, k, n)` at the
/// paper_gsfl configuration (16×16 images, batch 16): conv1 has 8
/// filters over 3×3×3 patches at 16×16 outputs, conv2 has 16 filters
/// over 8×3×3 patches at 8×8 outputs.
const DW_SHAPES: [(usize, usize, usize); 2] = [(8, 4096, 27), (16, 1024, 72)];

/// Parameters of the client model `orchestrated_sfl` sends through its
/// TopK arm at cuts 1 and 2: the 192→32 dense layer of its MLP.
const CLIENT_MODEL: usize = 192 * 32 + 32;

fn payload(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| ((i * 31 % 4093) as f32 - 2046.0) * 0.01)
        .collect()
}

/// Registers the SIMD microkernel benches on `suite`.
pub fn register(suite: &mut Suite) {
    // --- GEMM microkernel: 256×256×256, serial (one thread on both
    // sides, so the ratio is pure lane width + instruction selection).
    let dim = 256;
    let a: Vec<f32> = (0..dim * dim)
        .map(|i| ((i * 37 % 1009) as f32 - 504.0) * 0.01)
        .collect();
    let b: Vec<f32> = (0..dim * dim)
        .map(|i| ((i * 53 % 997) as f32 - 498.0) * 0.01)
        .collect();
    let mut out_base = vec![0.0f32; dim * dim];
    let mut out_fast = vec![0.0f32; dim * dim];
    suite.compare(
        "simd_gemm_mk_256",
        40,
        || {
            gemm_with_isa(
                Isa::Scalar,
                dim,
                dim,
                dim,
                black_box(&a),
                black_box(&b),
                &mut out_base,
            );
            black_box(out_base[0]);
        },
        || {
            gemm_with_isa(
                Isa::Avx2,
                dim,
                dim,
                dim,
                black_box(&a),
                black_box(&b),
                &mut out_fast,
            );
            black_box(out_fast[0]);
        },
    );
    // Reference tier on the same shape (the pre-optimization triple
    // loop), as a plain timing for the three-tier table.
    let at = Tensor::from_vec(a.clone(), &[dim, dim]).expect("shape");
    let bt = Tensor::from_vec(b.clone(), &[dim, dim]).expect("shape");
    suite.run("simd_gemm_mk_256/reference", 10, || {
        black_box(reference::matmul(black_box(&at), black_box(&bt)).expect("matmul"));
    });

    // --- Conv weight gradient dW = dY · colsᵀ at DeepThin's shapes: a
    // long reduction axis and a small output tile — the FMA lane-dot's
    // home turf.
    for (m, k, n) in DW_SHAPES {
        let dy: Vec<f32> = (0..m * k)
            .map(|i| ((i * 13 % 2003) as f32 - 1001.0) * 0.004)
            .collect();
        let cols: Vec<f32> = (0..n * k)
            .map(|i| ((i * 29 % 1999) as f32 - 999.0) * 0.003)
            .collect();
        let mut dw_base = vec![0.0f32; m * n];
        let mut dw_fast = vec![0.0f32; m * n];
        suite.compare(
            format!("simd_dw_lanedot_{m}x{k}x{n}"),
            400,
            || {
                gemm_a_bt_with_isa(
                    Isa::Scalar,
                    m,
                    k,
                    n,
                    black_box(&dy),
                    black_box(&cols),
                    &mut dw_base,
                );
                black_box(dw_base[0]);
            },
            || {
                gemm_a_bt_with_isa(
                    Isa::Avx2,
                    m,
                    k,
                    n,
                    black_box(&dy),
                    black_box(&cols),
                    &mut dw_fast,
                );
                black_box(dw_fast[0]);
            },
        );
    }

    // --- Fused softmax + cross-entropy forward/backward, 512×32.
    let rows = 512;
    let classes = 32;
    let logits = Tensor::from_fn(&[rows, classes], |i| {
        ((i * 17 % 4001) as f32 - 2000.0) * 0.002
    });
    let labels: Vec<usize> = (0..rows).map(|r| (r * 7) % classes).collect();
    let loss_fn = SoftmaxCrossEntropy::new();
    suite.compare(
        "softmax_xent_fused",
        200,
        || {
            black_box(
                loss_fn
                    .compute_unfused(black_box(&logits), &labels)
                    .expect("loss"),
            );
        },
        || {
            black_box(
                loss_fn
                    .compute_fused(black_box(&logits), &labels)
                    .expect("loss"),
            );
        },
    );

    // --- F16 wire encode over the 64k codec payload: hardware
    // conversion into the packed binary16 section.
    let src = payload(N);
    let mut wire_base = WireBuf::new();
    let mut wire_fast = WireBuf::new();
    suite.compare(
        "simd_encode_f16_64k",
        200,
        || {
            encode_f16_with_isa(Isa::Scalar, black_box(&src), &mut wire_base);
            black_box(wire_base.len());
        },
        || {
            encode_f16_with_isa(Isa::Avx2, black_box(&src), &mut wire_fast);
            black_box(wire_fast.len());
        },
    );

    // --- IntQ 4-bit wire encode: stochastic rounding, clamp, and
    // bit-pack (the uplink artifact hot path).
    suite.compare(
        "simd_encode_intq4_64k",
        60,
        || {
            encode_intq_with_isa(Isa::Scalar, black_box(&src), 4, STREAM, &mut wire_base);
            black_box(wire_base.len());
        },
        || {
            encode_intq_with_isa(Isa::Avx2, black_box(&src), 4, STREAM, &mut wire_fast);
            black_box(wire_fast.len());
        },
    );

    // --- TopK wire encode of a client-model delta: magnitude scan,
    // threshold count, pack, at the 5% arm of the planner's codec menu.
    let delta = payload(CLIENT_MODEL);
    let k = TopK { frac: 0.05 }.kept(CLIENT_MODEL);
    let mut ws_base = Workspace::new();
    let mut ws_fast = Workspace::new();
    suite.compare(
        format!("simd_encode_topk_{CLIENT_MODEL}"),
        2000,
        || {
            encode_topk_with_isa(
                Isa::Scalar,
                black_box(&delta),
                k,
                &mut ws_base,
                &mut wire_base,
            );
            black_box(wire_base.len());
        },
        || {
            encode_topk_with_isa(
                Isa::Avx2,
                black_box(&delta),
                k,
                &mut ws_fast,
                &mut wire_fast,
            );
            black_box(wire_fast.len());
        },
    );
}
