//! Blocked, register-tiled, optionally multithreaded GEMM kernels.
//!
//! All kernels operate on 2-D [`Tensor`]s. The main entry point is
//! [`matmul`]; the transposed variants avoid the dot-product-style access
//! patterns of backward passes by materializing the transposed operand in
//! scratch space and reusing the one fast kernel:
//!
//! * [`matmul`]        — `C = A · B`
//! * [`matmul_at_b`]   — `C = Aᵀ · B` (weight gradients)
//! * [`matmul_a_bt`]   — `C = A · Bᵀ` (input gradients)
//!
//! Each has a `_ws` twin that draws its output (and the transpose
//! scratch) from a caller [`Workspace`] instead of allocating.
//!
//! # Kernel design
//!
//! The serial kernel processes `MR×NR` output tiles: the tile lives in
//! registers while the full `k` extent streams through it, broadcasting
//! `A` elements against unit-stride `B` row segments. Crucially, every
//! output element still accumulates its products in ascending-`k` order,
//! so results are **bit-identical** to the historical naive `i-k-j` loop
//! ([`crate::reference::matmul`]) for all finite inputs — the golden
//! fixtures and determinism suites keep passing while the kernel runs
//! several times faster (C is written once instead of `k` times, and the
//! dense-data-hostile `a == 0.0` branch is gone).
//!
//! Shapes with enough work additionally split by *rows* across host
//! threads from the shared [`crate::threading`] budget. Row partitioning
//! never changes what is computed for any element, so the threaded path
//! is bit-identical to the serial one regardless of thread count.

use crate::kernel::{dispatch, Dispatch};
use crate::simd::{self, Isa};
use crate::threading::request_threads;
use crate::workspace::Workspace;
use crate::{Result, Tensor, TensorError};

/// Rows per register tile.
const MR: usize = 4;
/// Columns per register tile.
const NR: usize = 16;
/// Minimum `m·k·n` before the row-threaded path is considered.
const PAR_WORK_THRESHOLD: usize = 1 << 18;
/// Maximum fan-out the GEMM will request from the thread budget.
const PAR_MAX_THREADS: usize = 8;

/// `MR_ × NR_` register-tile microkernel: every output element of the
/// tile accumulates `a[i][kk] · b[kk][j]` for `kk` ascending, then is
/// stored exactly once.
#[inline(always)]
fn microkernel<const MR_: usize, const NR_: usize>(
    i0: usize,
    j0: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    let mut acc = [[0.0f32; NR_]; MR_];
    for kk in 0..k {
        let b_seg = &b[kk * n + j0..kk * n + j0 + NR_];
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let aik = a[(i0 + r) * k + kk];
            for (av, &bv) in acc_row.iter_mut().zip(b_seg) {
                *av += aik * bv;
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        out[(i0 + r) * n + j0..(i0 + r) * n + j0 + NR_].copy_from_slice(acc_row);
    }
}

/// Runs one `NR_`-wide column panel down every row band. The panel of
/// `B` (`k × NR_`) stays cache-hot while each band of `A` streams
/// through it.
#[inline(always)]
fn col_panel<const NR_: usize>(
    j0: usize,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    let mut i0 = 0;
    while i0 + MR <= m {
        microkernel::<MR, NR_>(i0, j0, k, n, a, b, out);
        i0 += MR;
    }
    while i0 < m {
        microkernel::<1, NR_>(i0, j0, k, n, a, b, out);
        i0 += 1;
    }
}

/// Serial blocked GEMM: `out[m×n] = a[m×k] · b[k×n]`, overwriting `out`.
///
/// On a vector ISA, [`simd::gemm_main`] first covers every full
/// vector-width column panel (lanes across columns — the per-element
/// ascending-`k` reduction order is preserved, so the result stays
/// bit-identical), and the historical scalar panels finish the
/// sub-vector edge. On the scalar tier `gemm_main` consumes nothing and
/// the panels below are the entire (unchanged) kernel.
fn gemm_serial(isa: Isa, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    let mut j0 = simd::gemm_main(isa, m, k, n, a, b, out);
    while j0 + NR <= n {
        col_panel::<NR>(j0, m, k, n, a, b, out);
        j0 += NR;
    }
    while j0 + 8 <= n {
        col_panel::<8>(j0, m, k, n, a, b, out);
        j0 += 8;
    }
    while j0 + 4 <= n {
        col_panel::<4>(j0, m, k, n, a, b, out);
        j0 += 4;
    }
    while j0 < n {
        col_panel::<1>(j0, m, k, n, a, b, out);
        j0 += 1;
    }
}

/// Blocked GEMM with a row-partitioned multithreaded path for large
/// shapes. Bit-identical to [`gemm_serial`] for any thread count.
fn gemm(isa: Isa, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    if m * k * n >= PAR_WORK_THRESHOLD && m >= 2 {
        let grant = request_threads(PAR_MAX_THREADS.min(m));
        let threads = grant.threads().min(m);
        if threads > 1 {
            std::thread::scope(|scope| {
                let mut rest = out;
                let mut row = 0;
                for t in 0..threads {
                    let rows = (m - row).div_ceil(threads - t);
                    let (chunk, tail) = rest.split_at_mut(rows * n);
                    rest = tail;
                    let a_band = &a[row * k..(row + rows) * k];
                    if t + 1 == threads {
                        // The caller's own thread takes the last band.
                        gemm_serial(isa, rows, k, n, a_band, b, chunk);
                    } else {
                        scope.spawn(move || gemm_serial(isa, rows, k, n, a_band, b, chunk));
                    }
                    row += rows;
                }
            });
            return;
        }
    }
    gemm_serial(isa, m, k, n, a, b, out);
}

/// Serial raw-slice GEMM pinned to an explicit ISA tier. Benchmark
/// hook — the library's own entries resolve their tier via
/// [`dispatch`](crate::kernel::dispatch) instead.
#[doc(hidden)]
pub fn gemm_with_isa(
    isa: Isa,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    gemm_serial(isa, m, k, n, a, b, out);
}

/// Writes the transpose of the row-major `rows × cols` matrix `src` into
/// `dst` (which becomes `cols × rows`), in cache-blocked tiles. Shared
/// with the convolution lowering.
pub(crate) fn transpose_into(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    debug_assert_eq!(src.len(), rows * cols);
    debug_assert_eq!(dst.len(), rows * cols);
    const TILE: usize = 32;
    let mut r0 = 0;
    while r0 < rows {
        let r1 = (r0 + TILE).min(rows);
        let mut c0 = 0;
        while c0 < cols {
            let c1 = (c0 + TILE).min(cols);
            for r in r0..r1 {
                for c in c0..c1 {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
            c0 = c1;
        }
        r0 = r1;
    }
}

fn check_inner(k: usize, k2: usize) -> Result<()> {
    if k != k2 {
        return Err(TensorError::MatmulDimMismatch {
            left_cols: k,
            right_rows: k2,
        });
    }
    Ok(())
}

/// `C = A · B` for 2-D tensors `A: [m×k]`, `B: [k×n]`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-2-D inputs and
/// [`TensorError::MatmulDimMismatch`] when inner dimensions disagree.
///
/// # Example
///
/// ```
/// use gsfl_tensor::{Tensor, matmul::matmul};
///
/// # fn main() -> Result<(), gsfl_tensor::TensorError> {
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2])?;
/// let c = matmul(&a, &b)?;
/// assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
/// # Ok(())
/// # }
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let mut ws = Workspace::new();
    matmul_ws(a, b, &mut ws)
}

/// [`matmul`] drawing its output buffer from `ws`.
///
/// # Errors
///
/// Same conditions as [`matmul`].
pub fn matmul_ws(a: &Tensor, b: &Tensor, ws: &mut Workspace) -> Result<Tensor> {
    let d = dispatch();
    if d == Dispatch::Reference {
        return crate::reference::matmul(a, b);
    }
    let (m, k) = a.shape().as_matrix()?;
    let (k2, n) = b.shape().as_matrix()?;
    check_inner(k, k2)?;
    let mut out = ws.take(m * n);
    gemm(d.isa(), m, k, n, a.data(), b.data(), &mut out);
    Tensor::from_vec(out, &[m, n])
}

/// `C = Aᵀ · B` for `A: [k×m]`, `B: [k×n]`.
///
/// This is the shape of the weight-gradient computation
/// `dW = Xᵀ · dY` in a dense layer. `Aᵀ` is materialized in scratch space
/// so the multiply itself runs on the fast kernel.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-2-D inputs and
/// [`TensorError::MatmulDimMismatch`] when the leading dimensions disagree.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let mut ws = Workspace::new();
    matmul_at_b_ws(a, b, &mut ws)
}

/// [`matmul_at_b`] drawing scratch and output from `ws`.
///
/// # Errors
///
/// Same conditions as [`matmul_at_b`].
pub fn matmul_at_b_ws(a: &Tensor, b: &Tensor, ws: &mut Workspace) -> Result<Tensor> {
    let d = dispatch();
    if d == Dispatch::Reference {
        return crate::reference::matmul_at_b(a, b);
    }
    let (k, m) = a.shape().as_matrix()?;
    let (k2, n) = b.shape().as_matrix()?;
    check_inner(k, k2)?;
    let mut at = ws.take(m * k);
    transpose_into(a.data(), k, m, &mut at);
    let mut out = ws.take(m * n);
    gemm(d.isa(), m, k, n, &at, b.data(), &mut out);
    ws.give(at);
    Tensor::from_vec(out, &[m, n])
}

/// `C = A · Bᵀ` for `A: [m×k]`, `B: [n×k]`.
///
/// This is the shape of the dense forward (`Y = X · Wᵀ`) and
/// input-gradient computations. `Bᵀ` is materialized in scratch space so
/// the multiply itself runs on the fast kernel instead of the scalar
/// dot-product loop the naive variant needs.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-2-D inputs and
/// [`TensorError::MatmulDimMismatch`] when the trailing dimensions disagree.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let mut ws = Workspace::new();
    matmul_a_bt_ws(a, b, &mut ws)
}

/// [`matmul_a_bt`] drawing scratch and output from `ws`.
///
/// # Errors
///
/// Same conditions as [`matmul_a_bt`].
pub fn matmul_a_bt_ws(a: &Tensor, b: &Tensor, ws: &mut Workspace) -> Result<Tensor> {
    let d = dispatch();
    if d == Dispatch::Reference {
        return crate::reference::matmul_a_bt(a, b);
    }
    let (m, k) = a.shape().as_matrix()?;
    let (n, k2) = b.shape().as_matrix()?;
    check_inner(k, k2)?;
    let mut bt = ws.take(n * k);
    transpose_into(b.data(), n, k, &mut bt);
    let mut out = ws.take(m * n);
    gemm(d.isa(), m, k, n, a.data(), &bt, &mut out);
    ws.give(bt);
    Tensor::from_vec(out, &[m, n])
}

/// Raw-slice GEMM for callers that manage their own layouts (the batched
/// convolution lowering). `out` is fully overwritten. Same kernel — and
/// therefore the same per-element reduction order — as [`matmul`]. The
/// caller resolves the dispatch tier once at its own entry and passes
/// the ISA down.
pub(crate) fn gemm_into(
    isa: Isa,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    gemm(isa, m, k, n, a, b, out);
}

/// Lanes of the chunked dot-product reduction in [`gemm_a_bt_into`].
const DOT_LANES: usize = 8;

/// Deterministic lane-chunked dot product: 8 interleaved partial sums
/// over the bulk, folded in fixed lane order, remainder appended
/// sequentially. Vectorizes where a sequential reduction cannot.
#[inline]
pub(crate) fn dot_lanes(a: &[f32], b: &[f32]) -> f32 {
    let mut lanes = [0.0f32; DOT_LANES];
    let mut ca = a.chunks_exact(DOT_LANES);
    let mut cb = b.chunks_exact(DOT_LANES);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for (l, lane) in lanes.iter_mut().enumerate() {
            *lane += xa[l] * xb[l];
        }
    }
    let mut acc = 0.0f32;
    for &lane in &lanes {
        acc += lane;
    }
    for (&xa, &xb) in ca.remainder().iter().zip(cb.remainder()) {
        acc += xa * xb;
    }
    acc
}

/// Raw-slice `out[m×n] = a[m×k] · b[n×k]ᵀ` via a long-dot kernel — the
/// right shape for long-`k`, small-`m×n` reductions (the batched conv
/// weight gradient), where it beats transpose-then-GEMM. Deterministic
/// for a fixed ISA, but the reduction order is lane-interleaved (scalar
/// tier: [`dot_lanes`]) or FMA-regrouped (AVX2:
/// [`simd::dot_long`]) rather than ascending-`k` — the
/// epsilon-contracted class.
pub(crate) fn gemm_a_bt_into(
    isa: Isa,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    let dot: fn(&[f32], &[f32]) -> f32 = match isa {
        Isa::Avx2 => simd::dot_long,
        Isa::Scalar => dot_lanes,
    };
    for (a_row, out_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        for (b_row, o) in b.chunks_exact(k).zip(out_row.iter_mut()) {
            *o = dot(a_row, b_row);
        }
    }
}

/// Raw-slice `A · Bᵀ` long-dot GEMM pinned to an explicit ISA tier.
/// Benchmark hook for the conv weight-gradient comparison.
#[doc(hidden)]
pub fn gemm_a_bt_with_isa(
    isa: Isa,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    gemm_a_bt_into(isa, m, k, n, a, b, out);
}

/// Matrix–vector product `y = A · x` for `A: [m×k]`, `x: [k]`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] / [`TensorError::MatmulDimMismatch`]
/// on malformed inputs.
pub fn matvec(a: &Tensor, x: &Tensor) -> Result<Tensor> {
    let (m, k) = a.shape().as_matrix()?;
    if x.shape().rank() != 1 {
        return Err(TensorError::RankMismatch {
            expected: 1,
            actual: x.shape().rank(),
            op: "matvec",
        });
    }
    if x.numel() != k {
        return Err(TensorError::MatmulDimMismatch {
            left_cols: k,
            right_rows: x.numel(),
        });
    }
    let ad = a.data();
    let xd = x.data();
    let mut out = vec![0.0f32; m];
    for (o, row) in out.iter_mut().zip(ad.chunks_exact(k)) {
        let mut acc = 0.0f32;
        for (&av, &xv) in row.iter().zip(xd) {
            acc += av * xv;
        }
        *o = acc;
    }
    Tensor::from_vec(out, &[m])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = a.shape().as_matrix().unwrap();
        let (_, n) = b.shape().as_matrix().unwrap();
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += a.get(&[i, kk]).unwrap() * b.get(&[kk, j]).unwrap();
                }
                out.set(&[i, j], acc).unwrap();
            }
        }
        out
    }

    #[test]
    fn matches_naive_small() {
        let a = Tensor::from_fn(&[3, 4], |i| (i as f32) * 0.3 - 1.0);
        let b = Tensor::from_fn(&[4, 5], |i| (i as f32) * 0.1 + 0.5);
        let got = matmul(&a, &b).unwrap();
        assert!(got.approx_eq(&naive(&a, &b), 1e-5));
    }

    #[test]
    fn bit_identical_to_reference_kernel_across_edge_shapes() {
        // Shapes straddling every tile-width boundary, including the
        // scalar edge columns and sub-MR row remainders.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (2, 3, 5),
            (4, 16, 16),
            (5, 7, 17),
            (7, 11, 43),
            (16, 27, 256),
            (33, 64, 19),
        ] {
            let a = Tensor::from_fn(&[m, k], |i| ((i * 37 % 23) as f32 - 11.0) * 0.13);
            let b = Tensor::from_fn(&[k, n], |i| ((i * 53 % 19) as f32 - 9.0) * 0.07);
            let fast = matmul(&a, &b).unwrap();
            let slow = reference::matmul(&a, &b).unwrap();
            assert_eq!(fast.data(), slow.data(), "m={m} k={k} n={n}");
        }
    }

    #[test]
    fn threaded_path_matches_serial_bitwise() {
        // Big enough to clear PAR_WORK_THRESHOLD; the row split must not
        // change a single bit.
        let m = 96;
        let k = 64;
        let n = 80;
        let a = Tensor::from_fn(&[m, k], |i| ((i % 101) as f32 - 50.0) * 0.021);
        let b = Tensor::from_fn(&[k, n], |i| ((i % 97) as f32 - 48.0) * 0.017);
        let mut serial = vec![0.0f32; m * n];
        gemm_serial(simd::active_isa(), m, k, n, a.data(), b.data(), &mut serial);
        let via_public = matmul(&a, &b).unwrap();
        assert_eq!(via_public.data(), &serial[..]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = Tensor::from_fn(&[4, 4], |i| i as f32);
        assert!(matmul(&a, &Tensor::eye(4)).unwrap().approx_eq(&a, 0.0));
        assert!(matmul(&Tensor::eye(4), &a).unwrap().approx_eq(&a, 0.0));
    }

    #[test]
    fn rejects_dim_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(matches!(
            matmul(&a, &b),
            Err(TensorError::MatmulDimMismatch { .. })
        ));
        assert!(matches!(
            matmul_at_b(&a, &Tensor::zeros(&[4, 2])),
            Err(TensorError::MatmulDimMismatch { .. })
        ));
        assert!(matches!(
            matmul_a_bt(&a, &Tensor::zeros(&[4, 2])),
            Err(TensorError::MatmulDimMismatch { .. })
        ));
    }

    #[test]
    fn at_b_equals_explicit_transpose() {
        let a = Tensor::from_fn(&[5, 3], |i| (i as f32).sin());
        let b = Tensor::from_fn(&[5, 4], |i| (i as f32).cos());
        let expect = matmul(&a.transpose2d().unwrap(), &b).unwrap();
        let got = matmul_at_b(&a, &b).unwrap();
        assert_eq!(got.data(), expect.data(), "same kernel, same bits");
    }

    #[test]
    fn a_bt_equals_explicit_transpose() {
        let a = Tensor::from_fn(&[5, 3], |i| (i as f32).sin());
        let b = Tensor::from_fn(&[4, 3], |i| (i as f32).cos());
        let expect = matmul(&a, &b.transpose2d().unwrap()).unwrap();
        let got = matmul_a_bt(&a, &b).unwrap();
        assert_eq!(got.data(), expect.data(), "same kernel, same bits");
    }

    #[test]
    fn ws_variants_reuse_buffers() {
        let a = Tensor::from_fn(&[8, 8], |i| i as f32 * 0.1);
        let b = Tensor::from_fn(&[8, 8], |i| i as f32 * 0.2);
        let mut ws = Workspace::new();
        let y1 = matmul_ws(&a, &b, &mut ws).unwrap();
        let first = ws.fresh_allocs();
        ws.recycle(y1);
        let y2 = matmul_ws(&a, &b, &mut ws).unwrap();
        assert_eq!(ws.fresh_allocs(), first, "steady state must not allocate");
        ws.recycle(y2);
    }

    #[test]
    fn transpose_into_round_trips() {
        let src: Vec<f32> = (0..6).map(|i| i as f32).collect();
        let mut dst = vec![0.0f32; 6];
        transpose_into(&src, 2, 3, &mut dst);
        assert_eq!(dst, vec![0.0, 3.0, 1.0, 4.0, 2.0, 5.0]);
        let mut back = vec![0.0f32; 6];
        transpose_into(&dst, 3, 2, &mut back);
        assert_eq!(back, src);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Tensor::from_fn(&[3, 4], |i| i as f32);
        let x = Tensor::from_fn(&[4], |i| (i as f32) - 1.5);
        let xm = x.reshape(&[4, 1]).unwrap();
        let expect = matmul(&a, &xm).unwrap();
        let got = matvec(&a, &x).unwrap();
        assert_eq!(got.data(), expect.data());
    }

    #[test]
    fn matvec_validates() {
        let a = Tensor::zeros(&[3, 4]);
        assert!(matvec(&a, &Tensor::zeros(&[5])).is_err());
        assert!(matvec(&a, &Tensor::zeros(&[4, 1])).is_err());
    }
}
