//! Runtime-dispatched SIMD lanes for the kernels where a vector tier
//! pays: GEMM, the conv weight gradient's long dot, the F16 and IntQ
//! wire codecs and the TopK wire scan.
//!
//! Every kernel in this crate used to lean on LLVM auto-vectorization.
//! This module makes the vector shapes explicit: a portable f32 lane
//! abstraction ([`SimdF32`]) for the GEMM tile, an AVX2/FMA/F16C backend
//! selected **once** at startup behind `is_x86_feature_detected!`, and a
//! scalar fallback that is byte-for-byte the historical fast path. The
//! selected ISA is queryable via [`active_isa`] and overridable with the
//! `GSFL_SIMD` environment variable (`auto` | `avx2` | `scalar`),
//! mirroring `GSFL_THREADS`. A kernel keeps an AVX2 tier only where it
//! beats the scalar one on the shapes the program runs.
//!
//! # Equivalence contract
//!
//! Kernels dispatched through this module fall into two classes:
//!
//! * **Bit-identical** — the vector form preserves each output
//!   element's reduction order (GEMM lanes run *across* output columns;
//!   fp16 uses hardware conversion with scalar NaN canonicalization;
//!   IntQ/TopK vector math is exact element-wise IEEE arithmetic), so
//!   any ISA produces the same bytes as the scalar tier. MLP records,
//!   the golden fixtures among them, are the same under every
//!   `GSFL_SIMD` setting.
//! * **Epsilon-contracted** — the FMA long dot behind the conv weight
//!   gradient regroups its partial sums for speed. It is deterministic
//!   for a fixed ISA at any thread count, and property tests pin it
//!   within relative epsilon of the scalar tier; CNN records therefore
//!   differ between tiers and are pinned per tier.
//!
//! The module is the only place in the crate allowed to use `unsafe`
//! (intrinsics and `#[target_feature]` entries); everything it exports
//! is a safe function that re-checks CPU support before taking the
//! vector path.
#![allow(unsafe_code)]

use std::sync::OnceLock;

// ---------------------------------------------------------------------------
// ISA selection
// ---------------------------------------------------------------------------

/// An instruction-set tier the kernels can dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// Portable scalar lanes — the historical fast path, bit-identical
    /// to what every prior release computed.
    Scalar,
    /// 8-wide AVX2 lanes with FMA and F16C (all three must be present).
    Avx2,
}

impl Isa {
    /// Short stable name, as accepted by `GSFL_SIMD` and recorded in
    /// `BENCH_results.json`.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
        }
    }

    /// Whether the running CPU can execute this tier. [`Isa::Scalar`]
    /// is always available; [`Isa::Avx2`] requires runtime-detected
    /// `avx2`, `fma` *and* `f16c`.
    pub fn is_available(self) -> bool {
        match self {
            Isa::Scalar => true,
            Isa::Avx2 => avx2_available(),
        }
    }

    /// Lane width of the f32 vector type on this tier.
    pub fn lanes(self) -> usize {
        match self {
            Isa::Scalar => 1,
            Isa::Avx2 => 8,
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn avx2_available() -> bool {
    // Each detection macro caches in an atomic, so this is a handful of
    // relaxed loads — cheap enough for per-call safety re-checks.
    is_x86_feature_detected!("avx2")
        && is_x86_feature_detected!("fma")
        && is_x86_feature_detected!("f16c")
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn avx2_available() -> bool {
    false
}

/// What `GSFL_SIMD` asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Requested {
    Auto,
    Scalar,
    Avx2,
}

fn parse_request(raw: &str) -> Option<Requested> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "" | "auto" => Some(Requested::Auto),
        "scalar" => Some(Requested::Scalar),
        "avx2" => Some(Requested::Avx2),
        _ => None,
    }
}

/// Resolves a request against the host, returning the ISA plus an
/// optional warning describing a forced fallback. Split from the env
/// read so it is unit-testable.
fn resolve(req: Requested) -> (Isa, Option<&'static str>) {
    match req {
        Requested::Scalar => (Isa::Scalar, None),
        Requested::Avx2 => {
            if Isa::Avx2.is_available() {
                (Isa::Avx2, None)
            } else {
                (
                    Isa::Scalar,
                    Some("GSFL_SIMD=avx2 requested but the host lacks avx2+fma+f16c; using scalar lanes"),
                )
            }
        }
        Requested::Auto => {
            if Isa::Avx2.is_available() {
                (Isa::Avx2, None)
            } else {
                (Isa::Scalar, None)
            }
        }
    }
}

/// The process-wide kernel ISA: `GSFL_SIMD` if set (`auto` | `avx2` |
/// `scalar`), otherwise the best runtime-detected tier. Selected once,
/// cached, and logged once to stderr; every public op entry resolves
/// its dispatch from this.
pub fn active_isa() -> Isa {
    static CACHED: OnceLock<Isa> = OnceLock::new();
    *CACHED.get_or_init(|| {
        let raw = std::env::var("GSFL_SIMD").ok();
        let req = match raw.as_deref() {
            None => Requested::Auto,
            Some(s) => match parse_request(s) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "gsfl_tensor: unknown GSFL_SIMD value {s:?} (expected auto|avx2|scalar); using auto detection"
                    );
                    Requested::Auto
                }
            },
        };
        let (isa, warning) = resolve(req);
        if let Some(w) = warning {
            eprintln!("gsfl_tensor: {w}");
        }
        eprintln!(
            "gsfl_tensor: simd dispatch: {} lanes ({})",
            isa.name(),
            match isa {
                Isa::Avx2 => "runtime-detected avx2+fma+f16c",
                Isa::Scalar => "portable fallback",
            }
        );
        isa
    })
}

// ---------------------------------------------------------------------------
// Portable lane abstraction
// ---------------------------------------------------------------------------

/// A pack of f32 lanes with the element-wise ops the GEMM tile needs:
/// splat, load, store, add and multiply. The tile multiplies, then adds
/// (never fused), so every output element keeps its ascending-`k`
/// two-rounding reduction on every tier.
///
/// Implemented by `f32` itself (one lane — the portable fallback) and,
/// on x86-64, by the AVX2 8-lane vector. Generic kernels written
/// against this trait monomorphize to straight-line vector code under
/// a `#[target_feature]` entry and to plain scalar code otherwise.
pub trait SimdF32: Copy {
    /// Lanes in the pack.
    const LANES: usize;
    /// All lanes set to `x`.
    fn splat(x: f32) -> Self;
    /// Loads the first `LANES` elements of `xs` (which must hold at
    /// least that many).
    fn load(xs: &[f32]) -> Self;
    /// Stores the pack into the first `LANES` elements of `out`.
    fn store(self, out: &mut [f32]);
    /// Lane-wise `self + rhs`.
    fn add(self, rhs: Self) -> Self;
    /// Lane-wise `self * rhs`.
    fn mul(self, rhs: Self) -> Self;
}

impl SimdF32 for f32 {
    const LANES: usize = 1;

    #[inline(always)]
    fn splat(x: f32) -> Self {
        x
    }

    #[inline(always)]
    fn load(xs: &[f32]) -> Self {
        xs[0]
    }

    #[inline(always)]
    fn store(self, out: &mut [f32]) {
        out[0] = self;
    }

    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        self + rhs
    }

    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        self * rhs
    }
}

// ---------------------------------------------------------------------------
// Generic kernels (monomorphized per lane type)
// ---------------------------------------------------------------------------

/// Register-tile GEMM microkernel over `MR_` rows × `CV` vector columns.
/// Lanes run **across output columns**, so every output element still
/// accumulates its `a·b` products in ascending-`k` order with separate
/// multiply and add — bit-identical to the scalar microkernel for all
/// finite inputs.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gemm_tile_v<V: SimdF32, const MR_: usize, const CV: usize>(
    i0: usize,
    j0: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    let w = V::LANES;
    let mut acc = [[V::splat(0.0); CV]; MR_];
    for kk in 0..k {
        let base = kk * n + j0;
        let mut bv = [V::splat(0.0); CV];
        for (c, bvc) in bv.iter_mut().enumerate() {
            *bvc = V::load(&b[base + c * w..]);
        }
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let av = V::splat(a[(i0 + r) * k + kk]);
            for (accv, &bvc) in acc_row.iter_mut().zip(bv.iter()) {
                *accv = accv.add(av.mul(bvc));
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        let row = (i0 + r) * n + j0;
        for (c, accv) in acc_row.iter().enumerate() {
            accv.store(&mut out[row + c * w..]);
        }
    }
}

/// Runs every full vector-width column panel of the GEMM and returns
/// the first unprocessed column (a multiple of `V::LANES`); the caller
/// finishes the `n % LANES` edge with its scalar panels.
#[inline(always)]
fn gemm_main_v<V: SimdF32>(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) -> usize {
    let w = V::LANES;
    let mut j0 = 0;
    while j0 + 2 * w <= n {
        let mut i0 = 0;
        while i0 + 4 <= m {
            gemm_tile_v::<V, 4, 2>(i0, j0, k, n, a, b, out);
            i0 += 4;
        }
        while i0 < m {
            gemm_tile_v::<V, 1, 2>(i0, j0, k, n, a, b, out);
            i0 += 1;
        }
        j0 += 2 * w;
    }
    while j0 + w <= n {
        let mut i0 = 0;
        while i0 + 4 <= m {
            gemm_tile_v::<V, 4, 1>(i0, j0, k, n, a, b, out);
            i0 += 4;
        }
        while i0 < m {
            gemm_tile_v::<V, 1, 1>(i0, j0, k, n, a, b, out);
            i0 += 1;
        }
        j0 += w;
    }
    j0
}

// ---------------------------------------------------------------------------
// Safe dispatched entry points
// ---------------------------------------------------------------------------

/// GEMM vector main: processes all full 8-wide column panels when `isa`
/// is AVX2 (and the CPU agrees), returning the first unprocessed
/// column. Returns 0 on the scalar tier — the caller's historical
/// scalar panels then cover the whole width, keeping that path
/// literally unchanged.
pub(crate) fn gemm_main(
    isa: Isa,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) -> usize {
    #[cfg(target_arch = "x86_64")]
    if isa == Isa::Avx2 && avx2_available() {
        // SAFETY: avx2+fma+f16c presence was just re-checked.
        return unsafe { x86::gemm_main_avx2(m, k, n, a, b, out) };
    }
    let _ = (isa, m, k, n, a, b, out);
    0
}

/// Long dot product for the conv weight gradient: four interleaved
/// 8-lane FMA accumulators on AVX2 (folded in fixed order, sequential
/// remainder) — deterministic for a fixed ISA, epsilon-contracted
/// against the scalar tier's 8-lane unfused reduction
/// ([`crate::matmul::dot_lanes`], which also serves a CPU without AVX2).
pub(crate) fn dot_long(a: &[f32], b: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: feature presence re-checked above.
        return unsafe { x86::dot_fma_avx2(a, b) };
    }
    crate::matmul::dot_lanes(a, b)
}

/// Appends `2 · values.len()` bytes of little-endian binary16 to `out`
/// (the F16 wire payload). Byte-identical to the scalar encoder.
pub(crate) fn encode_f16_payload(values: &[f32], out: &mut Vec<u8>) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: feature presence re-checked above.
        unsafe { x86::encode_f16_payload_avx2(values, out) };
        return;
    }
    fallback::encode_f16_payload(values, out);
}

/// Decodes a little-endian binary16 payload (`2 · out.len()` bytes)
/// into `out`. Bit-identical to the scalar decoder, including exact
/// NaN-payload preservation (NaN blocks take the software path).
pub(crate) fn decode_f16_payload(payload: &[u8], out: &mut [f32]) {
    debug_assert_eq!(payload.len(), out.len() * 2);
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: feature presence re-checked above.
        unsafe { x86::decode_f16_payload_avx2(payload, out) };
        return;
    }
    fallback::decode_f16_payload(payload, out);
}

/// Max-abs reduction (the IntQ scale fold). NaN elements are ignored
/// exactly as in the scalar `fold(0.0, |m, v| m.max(v.abs()))` — the
/// vector accumulate is `maxps(|x|, acc)`, whose NaN-in-first-operand
/// semantics select the accumulator.
pub(crate) fn max_abs(values: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: feature presence re-checked above.
        return unsafe { x86::max_abs_avx2(values) };
    }
    fallback::max_abs(values)
}

/// Quantizes `values[i] * inv` to stochastic-rounded codes
/// `clamp(q, -levels, levels) + levels` using the pre-drawn uniforms in
/// `draws` (one per element, in element order). Every arithmetic step
/// is exact or order-preserved, so the codes are byte-identical to the
/// scalar quantizer — including NaN inputs, which encode as code
/// `levels` (the scalar `NaN as i64 == 0` path).
pub(crate) fn intq_quantize_codes(
    values: &[f32],
    inv: f32,
    levels: u32,
    draws: &[f32],
    codes: &mut [u16],
) {
    debug_assert_eq!(values.len(), draws.len());
    debug_assert_eq!(values.len(), codes.len());
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: feature presence re-checked above.
        unsafe { x86::intq_quantize_codes_avx2(values, inv, levels, draws, codes) };
        return;
    }
    fallback::intq_quantize_codes(values, inv, levels, draws, codes);
}

/// Dequantizes IntQ codes: `(code - levels) * scale / levels`, exact
/// integer conversion plus exact IEEE multiply/divide — bit-identical
/// to the scalar decoder.
pub(crate) fn intq_dequant_codes(codes: &[u16], levels: u32, scale: f32, out: &mut [f32]) {
    debug_assert_eq!(codes.len(), out.len());
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: feature presence re-checked above.
        unsafe { x86::intq_dequant_codes_avx2(codes, levels, scale, out) };
        return;
    }
    fallback::intq_dequant_codes(codes, levels, scale, out);
}

/// `dst[i] = |src[i]|`, with non-finite elements ranked as +∞ (the
/// TopK index-selection magnitude pass).
pub(crate) fn abs_or_inf_into(src: &[f32], dst: &mut [f32]) {
    debug_assert_eq!(src.len(), dst.len());
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: feature presence re-checked above.
        unsafe { x86::abs_or_inf_into_avx2(src, dst) };
        return;
    }
    fallback::abs_or_inf_into(src, dst);
}

/// Counts elements strictly greater than `t` (ordered compare: NaN on
/// either side counts as not-greater, matching the scalar `>`).
pub(crate) fn count_gt(values: &[f32], t: f32) -> usize {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: feature presence re-checked above.
        return unsafe { x86::count_gt_avx2(values, t) };
    }
    fallback::count_gt(values, t)
}

// ---------------------------------------------------------------------------
// Scalar fallbacks (always compiled; also serve non-x86 targets)
// ---------------------------------------------------------------------------

mod fallback {
    use crate::quant::{f16_bits_to_f32, f32_to_f16_bits};

    pub(super) fn encode_f16_payload(values: &[f32], out: &mut Vec<u8>) {
        out.reserve(values.len() * 2);
        for v in values {
            out.extend_from_slice(&f32_to_f16_bits(*v).to_le_bytes());
        }
    }

    pub(super) fn decode_f16_payload(payload: &[u8], out: &mut [f32]) {
        for (v, c) in out.iter_mut().zip(payload.chunks_exact(2)) {
            *v = f16_bits_to_f32(u16::from_le_bytes([c[0], c[1]]));
        }
    }

    pub(super) fn max_abs(values: &[f32]) -> f32 {
        values.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    pub(super) fn intq_quantize_codes(
        values: &[f32],
        inv: f32,
        levels: u32,
        draws: &[f32],
        codes: &mut [u16],
    ) {
        let lv = levels as f32;
        for ((v, &d), c) in values.iter().zip(draws).zip(codes.iter_mut()) {
            let x = *v * inv;
            let lo = x.floor();
            let frac = x - lo;
            let q = if d < frac { lo + 1.0 } else { lo };
            *c = (q.clamp(-lv, lv) as i64 + i64::from(levels)) as u16;
        }
    }

    pub(super) fn intq_dequant_codes(codes: &[u16], levels: u32, scale: f32, out: &mut [f32]) {
        for (c, v) in codes.iter().zip(out.iter_mut()) {
            let q = i64::from(*c) - i64::from(levels);
            *v = q as f32 * scale / levels as f32;
        }
    }

    pub(super) fn abs_or_inf_into(src: &[f32], dst: &mut [f32]) {
        for (d, s) in dst.iter_mut().zip(src) {
            *d = if s.is_finite() {
                s.abs()
            } else {
                f32::INFINITY
            };
        }
    }

    pub(super) fn count_gt(values: &[f32], t: f32) -> usize {
        values.iter().filter(|&&m| m > t).count()
    }
}

// ---------------------------------------------------------------------------
// AVX2 / FMA / F16C backend
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{fallback, gemm_main_v, SimdF32};
    use crate::quant::f32_to_f16_bits;
    use std::arch::x86_64::*;

    /// 8 f32 lanes in a `__m256`.
    #[derive(Clone, Copy)]
    pub(super) struct F32x8(__m256);

    impl SimdF32 for F32x8 {
        const LANES: usize = 8;

        #[inline(always)]
        fn splat(x: f32) -> Self {
            // SAFETY: callers only reach F32x8 code under an AVX2
            // `#[target_feature]` entry gated by runtime detection.
            F32x8(unsafe { _mm256_set1_ps(x) })
        }

        #[inline(always)]
        fn load(xs: &[f32]) -> Self {
            assert!(xs.len() >= 8);
            // SAFETY: length checked; unaligned load. Feature presence
            // guaranteed by the gated caller.
            F32x8(unsafe { _mm256_loadu_ps(xs.as_ptr()) })
        }

        #[inline(always)]
        fn store(self, out: &mut [f32]) {
            assert!(out.len() >= 8);
            // SAFETY: length checked; unaligned store. Feature presence
            // guaranteed by the gated caller.
            unsafe { _mm256_storeu_ps(out.as_mut_ptr(), self.0) }
        }

        #[inline(always)]
        fn add(self, rhs: Self) -> Self {
            // SAFETY: see `splat`.
            F32x8(unsafe { _mm256_add_ps(self.0, rhs.0) })
        }

        #[inline(always)]
        fn mul(self, rhs: Self) -> Self {
            // SAFETY: see `splat`.
            F32x8(unsafe { _mm256_mul_ps(self.0, rhs.0) })
        }
    }

    impl F32x8 {
        #[inline(always)]
        fn to_array(self) -> [f32; 8] {
            let mut out = [0.0f32; 8];
            // SAFETY: out holds exactly 8 f32; see `SimdF32::splat`.
            unsafe { _mm256_storeu_ps(out.as_mut_ptr(), self.0) };
            out
        }
    }

    /// # Safety
    /// Requires avx2+fma+f16c.
    #[target_feature(enable = "avx2,fma,f16c")]
    pub(super) unsafe fn gemm_main_avx2(
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
    ) -> usize {
        gemm_main_v::<F32x8>(m, k, n, a, b, out)
    }

    /// # Safety
    /// Requires avx2+fma+f16c.
    #[target_feature(enable = "avx2,fma,f16c")]
    pub(super) unsafe fn dot_fma_avx2(a: &[f32], b: &[f32]) -> f32 {
        let len = a.len().min(b.len());
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut s0 = _mm256_setzero_ps();
        let mut s1 = _mm256_setzero_ps();
        let mut s2 = _mm256_setzero_ps();
        let mut s3 = _mm256_setzero_ps();
        let mut i = 0;
        while i + 32 <= len {
            s0 = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)), s0);
            s1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(ap.add(i + 8)),
                _mm256_loadu_ps(bp.add(i + 8)),
                s1,
            );
            s2 = _mm256_fmadd_ps(
                _mm256_loadu_ps(ap.add(i + 16)),
                _mm256_loadu_ps(bp.add(i + 16)),
                s2,
            );
            s3 = _mm256_fmadd_ps(
                _mm256_loadu_ps(ap.add(i + 24)),
                _mm256_loadu_ps(bp.add(i + 24)),
                s3,
            );
            i += 32;
        }
        while i + 8 <= len {
            s0 = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)), s0);
            i += 8;
        }
        // Fixed-order fold: (s0+s1) + (s2+s3), then lanes 0..7, then the
        // sequential remainder — deterministic at any call site.
        let v = _mm256_add_ps(_mm256_add_ps(s0, s1), _mm256_add_ps(s2, s3));
        let lanes = F32x8(v).to_array();
        let mut acc = 0.0f32;
        for &lane in &lanes {
            acc += lane;
        }
        for j in i..len {
            acc += a[j] * b[j];
        }
        acc
    }

    /// # Safety
    /// Requires avx2+fma+f16c.
    #[target_feature(enable = "avx2,fma,f16c")]
    pub(super) unsafe fn encode_f16_payload_avx2(values: &[f32], out: &mut Vec<u8>) {
        let n = values.len();
        let start = out.len();
        out.resize(start + 2 * n, 0);
        let dst = &mut out[start..];
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_loadu_ps(values.as_ptr().add(i));
            if _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_UNORD_Q>(v, v)) != 0 {
                for l in 0..8 {
                    let h = f32_to_f16_bits(values[i + l]).to_le_bytes();
                    dst[2 * (i + l)] = h[0];
                    dst[2 * (i + l) + 1] = h[1];
                }
            } else {
                let h = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(v);
                _mm_storeu_si128(dst.as_mut_ptr().add(2 * i).cast::<__m128i>(), h);
            }
            i += 8;
        }
        for (l, v) in values[i..].iter().enumerate() {
            let h = f32_to_f16_bits(*v).to_le_bytes();
            dst[2 * (i + l)] = h[0];
            dst[2 * (i + l) + 1] = h[1];
        }
    }

    /// # Safety
    /// Requires avx2+fma+f16c.
    #[target_feature(enable = "avx2,fma,f16c")]
    pub(super) unsafe fn decode_f16_payload_avx2(payload: &[u8], out: &mut [f32]) {
        let n = out.len();
        let mut i = 0;
        while i + 8 <= n {
            let h = _mm_loadu_si128(payload.as_ptr().add(2 * i).cast::<__m128i>());
            // f16 NaN (exp all ones, frac != 0): (h & 0x7FFF) > 0x7C00.
            // The software decoder preserves (and does not quiet) the
            // payload, so those lanes take the scalar path.
            let masked = _mm_and_si128(h, _mm_set1_epi16(0x7FFF));
            let nan = _mm_cmpgt_epi16(masked, _mm_set1_epi16(0x7C00));
            if _mm_movemask_epi8(nan) != 0 {
                fallback::decode_f16_payload(&payload[2 * i..2 * i + 16], &mut out[i..i + 8]);
            } else {
                _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_cvtph_ps(h));
            }
            i += 8;
        }
        fallback::decode_f16_payload(&payload[2 * i..], &mut out[i..]);
    }

    /// # Safety
    /// Requires avx2+fma+f16c.
    #[target_feature(enable = "avx2,fma,f16c")]
    pub(super) unsafe fn max_abs_avx2(values: &[f32]) -> f32 {
        let n = values.len();
        let sign = _mm256_set1_ps(-0.0);
        let mut acc = _mm256_setzero_ps();
        let mut i = 0;
        while i + 8 <= n {
            let a = _mm256_andnot_ps(sign, _mm256_loadu_ps(values.as_ptr().add(i)));
            // maxps(|x|, acc): a NaN first operand selects acc, matching
            // the scalar fold's f32::max NaN-ignoring semantics.
            acc = _mm256_max_ps(a, acc);
            i += 8;
        }
        let lanes = F32x8(acc).to_array();
        let mut m = 0.0f32;
        for &lane in &lanes {
            m = m.max(lane);
        }
        for v in &values[i..] {
            m = m.max(v.abs());
        }
        m
    }

    /// # Safety
    /// Requires avx2+fma+f16c.
    #[target_feature(enable = "avx2,fma,f16c")]
    pub(super) unsafe fn intq_quantize_codes_avx2(
        values: &[f32],
        inv: f32,
        levels: u32,
        draws: &[f32],
        codes: &mut [u16],
    ) {
        let n = values.len();
        let inv_v = _mm256_set1_ps(inv);
        let lv = levels as f32;
        let lv_v = _mm256_set1_ps(lv);
        let nlv_v = _mm256_set1_ps(-lv);
        let one = _mm256_set1_ps(1.0);
        let lev_i = _mm256_set1_epi32(levels as i32);
        let mut tmp = [0i32; 8];
        let mut i = 0;
        while i + 8 <= n {
            let x = _mm256_mul_ps(_mm256_loadu_ps(values.as_ptr().add(i)), inv_v);
            let lo = _mm256_floor_ps(x);
            let frac = _mm256_sub_ps(x, lo);
            let up = _mm256_cmp_ps::<_CMP_LT_OQ>(_mm256_loadu_ps(draws.as_ptr().add(i)), frac);
            let q = _mm256_blendv_ps(lo, _mm256_add_ps(lo, one), up);
            let clamped = _mm256_max_ps(_mm256_min_ps(q, lv_v), nlv_v);
            let mut code = _mm256_add_epi32(_mm256_cvttps_epi32(clamped), lev_i);
            // NaN lanes: min/max destroyed the NaN, but the scalar path
            // yields `NaN as i64 == 0` → code `levels`. Patch to match.
            let nan = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_UNORD_Q>(x, x));
            code = _mm256_blendv_epi8(code, lev_i, nan);
            _mm256_storeu_si256(tmp.as_mut_ptr().cast::<__m256i>(), code);
            for (l, &t) in tmp.iter().enumerate() {
                codes[i + l] = t as u16;
            }
            i += 8;
        }
        fallback::intq_quantize_codes(&values[i..], inv, levels, &draws[i..], &mut codes[i..]);
    }

    /// # Safety
    /// Requires avx2+fma+f16c.
    #[target_feature(enable = "avx2,fma,f16c")]
    pub(super) unsafe fn intq_dequant_codes_avx2(
        codes: &[u16],
        levels: u32,
        scale: f32,
        out: &mut [f32],
    ) {
        let n = out.len();
        let lev_i = _mm256_set1_epi32(levels as i32);
        let scale_v = _mm256_set1_ps(scale);
        let lv_v = _mm256_set1_ps(levels as f32);
        let mut i = 0;
        while i + 8 <= n {
            let c16 = _mm_loadu_si128(codes.as_ptr().add(i).cast::<__m128i>());
            let q = _mm256_cvtepi32_ps(_mm256_sub_epi32(_mm256_cvtepu16_epi32(c16), lev_i));
            let v = _mm256_div_ps(_mm256_mul_ps(q, scale_v), lv_v);
            _mm256_storeu_ps(out.as_mut_ptr().add(i), v);
            i += 8;
        }
        fallback::intq_dequant_codes(&codes[i..], levels, scale, &mut out[i..]);
    }

    /// # Safety
    /// Requires avx2+fma+f16c.
    #[target_feature(enable = "avx2,fma,f16c")]
    pub(super) unsafe fn abs_or_inf_into_avx2(src: &[f32], dst: &mut [f32]) {
        let n = src.len();
        let sign = _mm256_set1_ps(-0.0);
        let expmask = _mm256_set1_epi32(0x7F80_0000);
        let inf = _mm256_set1_ps(f32::INFINITY);
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_loadu_ps(src.as_ptr().add(i));
            let a = _mm256_andnot_ps(sign, v);
            let e = _mm256_and_si256(_mm256_castps_si256(v), expmask);
            let nonfin = _mm256_castsi256_ps(_mm256_cmpeq_epi32(e, expmask));
            _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_blendv_ps(a, inf, nonfin));
            i += 8;
        }
        fallback::abs_or_inf_into(&src[i..], &mut dst[i..]);
    }

    /// # Safety
    /// Requires avx2+fma+f16c.
    #[target_feature(enable = "avx2,fma,f16c")]
    pub(super) unsafe fn count_gt_avx2(values: &[f32], t: f32) -> usize {
        let n = values.len();
        let t_v = _mm256_set1_ps(t);
        let mut count = 0usize;
        let mut i = 0;
        while i + 8 <= n {
            let m = _mm256_cmp_ps::<_CMP_GT_OQ>(_mm256_loadu_ps(values.as_ptr().add(i)), t_v);
            count += _mm256_movemask_ps(m).count_ones() as usize;
            i += 8;
        }
        count + fallback::count_gt(&values[i..], t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_values_parse() {
        assert_eq!(parse_request("auto"), Some(Requested::Auto));
        assert_eq!(parse_request("AVX2"), Some(Requested::Avx2));
        assert_eq!(parse_request(" scalar "), Some(Requested::Scalar));
        assert_eq!(parse_request(""), Some(Requested::Auto));
        assert_eq!(parse_request("neon"), None);
    }

    #[test]
    fn forced_avx2_degrades_to_scalar_when_unsupported() {
        let (isa, warn) = resolve(Requested::Avx2);
        if Isa::Avx2.is_available() {
            assert_eq!(isa, Isa::Avx2);
            assert!(warn.is_none());
        } else {
            assert_eq!(isa, Isa::Scalar);
            assert!(warn.is_some());
        }
        assert_eq!(resolve(Requested::Scalar).0, Isa::Scalar);
    }

    #[test]
    fn active_isa_is_stable_and_available() {
        let isa = active_isa();
        assert_eq!(active_isa(), isa, "cached selection never changes");
        assert!(isa.is_available());
        assert!(isa.lanes() >= 1);
    }

    #[test]
    fn generic_gemm_single_lane_matches_naive() {
        let (m, k, n) = (5usize, 7usize, 9usize);
        let a: Vec<f32> = (0..m * k).map(|i| (i as f32) * 0.31 - 2.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i as f32) * 0.17 - 1.5).collect();
        let mut out = vec![0.0f32; m * n];
        let consumed = gemm_main_v::<f32>(m, k, n, &a, &b, &mut out);
        assert_eq!(consumed, n, "single-lane main covers every column");
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a[i * k + kk] * b[kk * n + j];
                }
                assert_eq!(out[i * n + j], acc, "({i},{j})");
            }
        }
    }

    #[test]
    fn avx2_gemm_main_is_bit_identical_to_scalar_panels() {
        if !Isa::Avx2.is_available() {
            return;
        }
        for &(m, k, n) in &[
            (1usize, 3usize, 8usize),
            (4, 16, 16),
            (5, 7, 24),
            (9, 11, 40),
        ] {
            let a: Vec<f32> = (0..m * k)
                .map(|i| ((i * 37 % 23) as f32 - 11.0) * 0.13)
                .collect();
            let b: Vec<f32> = (0..k * n)
                .map(|i| ((i * 53 % 19) as f32 - 9.0) * 0.07)
                .collect();
            let mut fast = vec![0.0f32; m * n];
            let consumed = gemm_main(Isa::Avx2, m, k, n, &a, &b, &mut fast);
            assert_eq!(consumed, n - n % 8);
            let mut slow = vec![0.0f32; m * n];
            gemm_main_v::<f32>(m, k, n, &a, &b, &mut slow);
            for j in 0..consumed {
                for i in 0..m {
                    assert_eq!(
                        fast[i * n + j],
                        slow[i * n + j],
                        "m={m} k={k} n={n} ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn max_abs_matches_scalar_fold_with_nan_and_inf() {
        let xs = [1.0f32, -7.5, f32::NAN, 3.0, -2.0, 6.25, 0.5, -0.25, 4.0];
        assert_eq!(max_abs(&xs), 7.5, "NaN ignored like the scalar fold");
        let ys = [1.0f32, f32::NEG_INFINITY, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        assert_eq!(max_abs(&ys), f32::INFINITY);
    }

    #[test]
    fn count_and_abs_helpers_match_scalar() {
        let xs: Vec<f32> = (0..37)
            .map(|i| ((i * 13 % 11) as f32 - 5.0) * 0.7)
            .collect();
        let mut a = vec![0.0f32; 37];
        abs_or_inf_into(&xs, &mut a);
        for (av, xv) in a.iter().zip(&xs) {
            assert_eq!(*av, xv.abs());
        }
        assert_eq!(count_gt(&a, 1.4), a.iter().filter(|&&m| m > 1.4).count());
        let mut ys = xs.clone();
        ys[20] = f32::NAN;
        let mut b = vec![0.0f32; 37];
        abs_or_inf_into(&ys, &mut b);
        assert_eq!(b[20], f32::INFINITY);
        assert_eq!(b[3], ys[3].abs());
    }

    #[test]
    fn intq_code_helpers_round_trip() {
        let levels = 127u32;
        let values: Vec<f32> = (0..29).map(|i| ((i * 7 % 13) as f32 - 6.0) * 0.4).collect();
        let scale = max_abs(&values);
        let inv = levels as f32 / scale;
        let draws = vec![0.5f32; 29];
        let mut codes = vec![0u16; 29];
        intq_quantize_codes(&values, inv, levels, &draws, &mut codes);
        let mut fast = vec![0.0f32; 29];
        intq_dequant_codes(&codes, levels, scale, &mut fast);
        let lv = levels as f32;
        for ((got, &v), &d) in fast.iter().zip(&values).zip(&draws) {
            // The in-place round trip's expression (`quant::intq_roundtrip`).
            let x = v * inv;
            let lo = x.floor();
            let q = if d < x - lo { lo + 1.0 } else { lo };
            let want = q.clamp(-lv, lv) * scale / lv;
            assert_eq!(got.to_bits(), want.to_bits(), "codes path ≡ in-place path");
        }
    }
}
