//! SIMD-vs-scalar equivalence proptests for every kernel ported onto
//! the runtime-dispatched lanes in `gsfl_tensor::simd`.
//!
//! Two contracts are pinned, per the dispatch layer's documentation:
//!
//! * **Bit-identical** — GEMM, F16 encode/decode bytes (including NaN,
//!   denormal, and ±inf inputs), IntQ encode/decode bytes, and TopK
//!   selection (including all-equal-magnitude ties) must produce the
//!   same bits/bytes on the AVX2 tier as on the scalar tier.
//! * **Epsilon-contracted** — the conv-dW long-dot GEMM regroups its
//!   reduction (FMA accumulators), so it is pinned within relative
//!   epsilon of the scalar lane kernel.
//!
//! On hosts without AVX2/FMA/F16C every pair degenerates to
//! scalar-vs-scalar and the suite passes trivially — the CI
//! `GSFL_SIMD=scalar` matrix leg covers that path explicitly.

use gsfl_tensor::matmul::{gemm_a_bt_with_isa, gemm_with_isa};
use gsfl_tensor::quant::{topk_indices_with_isa, topk_mask};
use gsfl_tensor::simd::Isa;
use gsfl_tensor::wire::{
    decode_f16_with_isa, decode_intq_with_isa, encode_f16_with_isa, encode_intq_with_isa,
    encode_topk_with_isa, WireBuf,
};
use gsfl_tensor::Workspace;
use proptest::prelude::*;

/// Interesting f32 bit patterns for the fp16 edge sweep: signed zeros,
/// ±inf, quiet/signaling NaNs with payloads, f32 and f16 subnormal
/// territory, halfway-rounding cases, and overflow-to-inf magnitudes.
const EDGE_BITS: [u32; 14] = [
    0x0000_0000, // +0
    0x8000_0000, // −0
    0x7F80_0000, // +inf
    0xFF80_0000, // −inf
    0x7FC0_0000, // canonical qNaN
    0x7FC1_2345, // qNaN with payload
    0xFFA0_0001, // sNaN pattern with payload
    0x0000_0001, // smallest f32 subnormal
    0x0040_0000, // mid f32 subnormal
    0x3380_0000, // 2^-24 (smallest f16 subnormal)
    0x3300_0000, // 2^-25 (underflow tie)
    0x477F_E000, // 65504 (f16 max)
    0x477F_F000, // just over f16 max (rounds to inf)
    0x4780_0000, // 65536 (overflow)
];

/// Builds an edge-heavy f32 vector: selector `< EDGE_BITS.len()` picks
/// that edge pattern, anything else takes the paired arbitrary bits.
fn edge_values(sel: &[usize], raw: &[u32]) -> Vec<f32> {
    sel.iter()
        .zip(raw)
        .map(|(&s, &r)| f32::from_bits(if s < EDGE_BITS.len() { EDGE_BITS[s] } else { r }))
        .collect()
}

fn f32_vec(len: impl Strategy<Value = usize>) -> impl Strategy<Value = Vec<f32>> {
    len.prop_flat_map(|n| prop::collection::vec(-100.0f32..100.0, n..=n))
}

fn bits_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

proptest! {
    // ---------------------------------------------------------------
    // GEMM: bit-identical (lanes across columns, ascending-k order)
    // ---------------------------------------------------------------

    #[test]
    fn gemm_avx2_is_bit_identical_to_scalar(
        m in 1usize..12,
        k in 1usize..24,
        n in 1usize..40,
        seed in 0u64..1_000,
    ) {
        let a: Vec<f32> = (0..m * k)
            .map(|i| (((i as u64).wrapping_mul(seed + 37) % 1000) as f32 - 500.0) * 0.013)
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|i| (((i as u64).wrapping_mul(seed + 53) % 1000) as f32 - 500.0) * 0.007)
            .collect();
        let mut fast = vec![0.0f32; m * n];
        gemm_with_isa(Isa::Avx2, m, k, n, &a, &b, &mut fast);
        let mut slow = vec![0.0f32; m * n];
        gemm_with_isa(Isa::Scalar, m, k, n, &a, &b, &mut slow);
        prop_assert!(bits_eq(&fast, &slow), "GEMM must be bit-identical across ISAs");
    }

    // ---------------------------------------------------------------
    // Conv dW long-dot: epsilon-contracted (FMA regroups the sum)
    // ---------------------------------------------------------------

    #[test]
    fn dw_long_dot_is_epsilon_close_across_isas(
        m in 1usize..4,
        k in 1usize..300,
        n in 1usize..8,
        seed in 0u64..1_000,
    ) {
        let a: Vec<f32> = (0..m * k)
            .map(|i| (((i as u64).wrapping_mul(seed + 11) % 997) as f32 - 498.0) * 0.004)
            .collect();
        let b: Vec<f32> = (0..n * k)
            .map(|i| (((i as u64).wrapping_mul(seed + 29) % 991) as f32 - 495.0) * 0.003)
            .collect();
        let mut fast = vec![0.0f32; m * n];
        gemm_a_bt_with_isa(Isa::Avx2, m, k, n, &a, &b, &mut fast);
        let mut slow = vec![0.0f32; m * n];
        gemm_a_bt_with_isa(Isa::Scalar, m, k, n, &a, &b, &mut slow);
        for (x, y) in fast.iter().zip(&slow) {
            let scale = x.abs().max(y.abs()).max(1.0);
            prop_assert!(
                (x - y).abs() <= 1e-4 * scale,
                "dW dot drifted past the epsilon contract: {} vs {}", x, y
            );
        }
    }

    // ---------------------------------------------------------------
    // F16: bit-identical including NaN payloads, denormals, ±inf
    // ---------------------------------------------------------------

    #[test]
    fn f16_wire_container_is_byte_identical_on_edge_inputs(
        sel in prop::collection::vec(0usize..2 * EDGE_BITS.len(), 1..64),
        raw in prop::collection::vec(0u32..=u32::MAX, 64..=64),
    ) {
        let src = edge_values(&sel, &raw);
        let mut fast = WireBuf::new();
        encode_f16_with_isa(Isa::Avx2, &src, &mut fast);
        let mut slow = WireBuf::new();
        encode_f16_with_isa(Isa::Scalar, &src, &mut slow);
        prop_assert_eq!(fast.as_bytes(), slow.as_bytes(), "encode bytes must match");
        let mut out_fast = vec![0.0f32; src.len()];
        decode_f16_with_isa(Isa::Avx2, &fast, &mut out_fast).unwrap();
        let mut out_slow = vec![0.0f32; src.len()];
        decode_f16_with_isa(Isa::Scalar, &slow, &mut out_slow).unwrap();
        for (x, y) in out_fast.iter().zip(&out_slow) {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "decode must preserve payload bits");
        }
    }

    // ---------------------------------------------------------------
    // IntQ: wire bytes exactly equal; decoded tensors bit-equal
    // ---------------------------------------------------------------

    #[test]
    fn intq_wire_container_is_byte_identical(
        values in f32_vec(1usize..600),
        bits in 2u32..=16,
        stream in 0u64..1_000,
    ) {
        let mut fast = WireBuf::new();
        encode_intq_with_isa(Isa::Avx2, &values, bits, stream, &mut fast);
        let mut slow = WireBuf::new();
        encode_intq_with_isa(Isa::Scalar, &values, bits, stream, &mut slow);
        prop_assert_eq!(fast.as_bytes(), slow.as_bytes(), "encode bytes must match");
        let mut out_fast = vec![0.0f32; values.len()];
        decode_intq_with_isa(Isa::Avx2, &fast, &mut out_fast).unwrap();
        let mut out_slow = vec![0.0f32; values.len()];
        decode_intq_with_isa(Isa::Scalar, &slow, &mut out_slow).unwrap();
        prop_assert!(bits_eq(&out_fast, &out_slow), "decoded tensors must match");
    }

    // ---------------------------------------------------------------
    // TopK: identical survivor sets, including all-equal-magnitude ties
    // ---------------------------------------------------------------

    #[test]
    fn topk_all_equal_magnitude_ties_resolve_identically(
        n in 1usize..300,
        k in 1usize..300,
        mag in 0.25f32..8.0,
        signs in prop::collection::vec(0u32..2, 300..=300),
    ) {
        // Every element has the same magnitude: the entire slice is one
        // big threshold tie, the adversarial case for the vectorized
        // above-threshold count.
        let values: Vec<f32> = signs[..n]
            .iter()
            .map(|&s| if s == 1 { mag } else { -mag })
            .collect();
        let mut ws = Workspace::new();
        let mut idx_fast = Vec::new();
        topk_indices_with_isa(Isa::Avx2, &values, k, &mut ws, &mut idx_fast);
        let mut idx_slow = Vec::new();
        topk_indices_with_isa(Isa::Scalar, &values, k, &mut ws, &mut idx_slow);
        prop_assert_eq!(&idx_fast, &idx_slow, "tie resolution must match");
        // The kept set is the first min(k, n) indices (ascending tie
        // resolution), the same set the scalar reference mask keeps.
        let kept: Vec<u32> = (0..k.min(n) as u32).collect();
        prop_assert_eq!(&idx_fast, &kept);
        let mut masked = values.clone();
        topk_mask(&mut masked, k, &mut ws);
        for (i, v) in masked.iter().enumerate() {
            prop_assert_eq!(*v != 0.0, i < k, "index {} kept-state wrong", i);
        }
    }

    #[test]
    fn topk_wire_container_is_byte_identical(
        values in f32_vec(2usize..400),
        kf in 0.0f64..1.0,
    ) {
        let k = (((values.len() as f64) * kf) as usize).max(1);
        let mut ws = Workspace::new();
        let mut fast = WireBuf::new();
        encode_topk_with_isa(Isa::Avx2, &values, k, &mut ws, &mut fast);
        let mut slow = WireBuf::new();
        encode_topk_with_isa(Isa::Scalar, &values, k, &mut ws, &mut slow);
        prop_assert_eq!(fast.as_bytes(), slow.as_bytes());
    }
}
