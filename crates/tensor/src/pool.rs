//! Max pooling, the one pooling the models use.
//!
//! Each op has a plain entry point that allocates its result and a `_ws`
//! twin that draws output buffers from a caller [`Workspace`] (and
//! refills a caller-owned argmax buffer) so the training hot path stays
//! allocation-free after warm-up.

use crate::conv::ConvGeom;
use crate::workspace::Workspace;
use crate::{Result, Tensor, TensorError};

/// Result of a max-pool forward pass: the pooled tensor plus the flat input
/// offsets of each winning element, needed for the backward scatter.
#[derive(Debug, Clone)]
pub struct MaxPoolOutput {
    /// Pooled tensor `[n, c, out_h, out_w]`.
    pub output: Tensor,
    /// For each output element, the flat offset into the input buffer of the
    /// maximal element in its window.
    pub argmax: Vec<usize>,
}

/// Shared max-pool kernel writing into caller buffers.
#[allow(clippy::too_many_arguments)]
fn maxpool_core(
    data: &[f32],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    g: &ConvGeom,
    window: usize,
    stride: usize,
    out: &mut [f32],
    argmax: &mut [usize],
) {
    let out_plane = g.out_h * g.out_w;
    for s in 0..n {
        for ch in 0..c {
            let base = (s * c + ch) * h * w;
            let obase = (s * c + ch) * out_plane;
            for oy in 0..g.out_h {
                for ox in 0..g.out_w {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_off = base;
                    for ky in 0..window {
                        for kx in 0..window {
                            let iy = oy * stride + ky;
                            let ix = ox * stride + kx;
                            if iy >= h || ix >= w {
                                continue;
                            }
                            let off = base + iy * w + ix;
                            if data[off] > best {
                                best = data[off];
                                best_off = off;
                            }
                        }
                    }
                    out[obase + oy * g.out_w + ox] = best;
                    argmax[obase + oy * g.out_w + ox] = best_off;
                }
            }
        }
    }
}

/// Max-pool forward over non-overlapping or strided windows.
///
/// # Errors
///
/// Returns a geometry error when the window does not fit the input.
///
/// # Example
///
/// ```
/// use gsfl_tensor::{Tensor, pool::maxpool2d_forward};
///
/// # fn main() -> Result<(), gsfl_tensor::TensorError> {
/// let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2])?;
/// let p = maxpool2d_forward(&x, 2, 2)?;
/// assert_eq!(p.output.data(), &[4.0]);
/// # Ok(())
/// # }
/// ```
pub fn maxpool2d_forward(input: &Tensor, window: usize, stride: usize) -> Result<MaxPoolOutput> {
    let (n, c, h, w) = input.shape().as_nchw()?;
    let g = ConvGeom::new(h, w, window, window, stride, 0)?;
    let len = n * c * g.out_h * g.out_w;
    let mut out = vec![0.0f32; len];
    let mut argmax = vec![0usize; len];
    maxpool_core(
        input.data(),
        n,
        c,
        h,
        w,
        &g,
        window,
        stride,
        &mut out,
        &mut argmax,
    );
    Ok(MaxPoolOutput {
        output: Tensor::from_vec(out, &[n, c, g.out_h, g.out_w])?,
        argmax,
    })
}

/// [`maxpool2d_forward`] writing the pooled tensor into a workspace
/// buffer and refilling the caller-owned `argmax` buffer in place.
///
/// # Errors
///
/// Returns a geometry error when the window does not fit the input.
pub fn maxpool2d_forward_ws(
    input: &Tensor,
    window: usize,
    stride: usize,
    ws: &mut Workspace,
    argmax: &mut Vec<usize>,
) -> Result<Tensor> {
    let (n, c, h, w) = input.shape().as_nchw()?;
    let g = ConvGeom::new(h, w, window, window, stride, 0)?;
    let len = n * c * g.out_h * g.out_w;
    let mut out = ws.take(len);
    argmax.clear();
    argmax.resize(len, 0);
    maxpool_core(
        input.data(),
        n,
        c,
        h,
        w,
        &g,
        window,
        stride,
        &mut out,
        argmax,
    );
    Tensor::from_vec(out, &[n, c, g.out_h, g.out_w])
}

/// Max-pool backward: routes each output gradient to the argmax position.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `grad_out` does not match the
/// recorded argmax table.
pub fn maxpool2d_backward(
    grad_out: &Tensor,
    argmax: &[usize],
    input_dims: &[usize],
) -> Result<Tensor> {
    let mut ws = Workspace::new();
    maxpool2d_backward_ws(grad_out, argmax, input_dims, &mut ws)
}

/// [`maxpool2d_backward`] drawing the gradient buffer from `ws`.
///
/// # Errors
///
/// Same conditions as [`maxpool2d_backward`].
pub fn maxpool2d_backward_ws(
    grad_out: &Tensor,
    argmax: &[usize],
    input_dims: &[usize],
    ws: &mut Workspace,
) -> Result<Tensor> {
    if grad_out.numel() != argmax.len() {
        return Err(TensorError::ShapeMismatch {
            left: vec![grad_out.numel()],
            right: vec![argmax.len()],
            op: "maxpool2d_backward",
        });
    }
    let numel: usize = input_dims.iter().product();
    let mut gi = ws.take_zeroed(numel);
    for (&g, &off) in grad_out.data().iter().zip(argmax) {
        gi[off] += g;
    }
    Tensor::from_vec(gi, input_dims)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_picks_window_max() {
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                -1.0, -2.0, 0.0, 0.5, //
                -3.0, -4.0, 0.25, 0.75,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let p = maxpool2d_forward(&x, 2, 2).unwrap();
        assert_eq!(p.output.dims(), &[1, 1, 2, 2]);
        assert_eq!(p.output.data(), &[4.0, 8.0, -1.0, 0.75]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let x = Tensor::from_vec(vec![1.0, 9.0, 2.0, 3.0], &[1, 1, 2, 2]).unwrap();
        let p = maxpool2d_forward(&x, 2, 2).unwrap();
        let g = Tensor::from_vec(vec![5.0], &[1, 1, 1, 1]).unwrap();
        let gx = maxpool2d_backward(&g, &p.argmax, x.dims()).unwrap();
        assert_eq!(gx.data(), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn maxpool_backward_validates_len() {
        let g = Tensor::zeros(&[1, 1, 1, 2]);
        assert!(maxpool2d_backward(&g, &[0], &[1, 1, 2, 2]).is_err());
    }

    #[test]
    fn ws_variant_matches_plain_and_reuses_buffers() {
        let x = Tensor::from_fn(&[2, 3, 6, 6], |i| ((i * 31 % 23) as f32 - 11.0) * 0.3);
        let plain = maxpool2d_forward(&x, 2, 2).unwrap();
        let mut ws = Workspace::new();
        let mut argmax = Vec::new();
        let y1 = maxpool2d_forward_ws(&x, 2, 2, &mut ws, &mut argmax).unwrap();
        assert_eq!(y1.data(), plain.output.data());
        assert_eq!(argmax, plain.argmax);
        let g1 = maxpool2d_backward_ws(&y1, &argmax, x.dims(), &mut ws).unwrap();
        ws.recycle(y1);
        ws.recycle(g1);
        let allocs = ws.fresh_allocs();
        let y2 = maxpool2d_forward_ws(&x, 2, 2, &mut ws, &mut argmax).unwrap();
        let g2 = maxpool2d_backward_ws(&y2, &argmax, x.dims(), &mut ws).unwrap();
        ws.recycle(y2);
        ws.recycle(g2);
        assert_eq!(ws.fresh_allocs(), allocs, "steady state must not allocate");
    }

    #[test]
    fn pool_handles_multichannel_batches() {
        let x = Tensor::from_fn(&[2, 3, 4, 4], |i| i as f32);
        let p = maxpool2d_forward(&x, 2, 2).unwrap();
        assert_eq!(p.output.dims(), &[2, 3, 2, 2]);
        // Each window max is its bottom-right corner for an increasing ramp.
        assert_eq!(p.output.get(&[0, 0, 0, 0]).unwrap(), 5.0);
        assert_eq!(p.output.get(&[1, 2, 1, 1]).unwrap(), 95.0);
    }

    #[test]
    fn maxpool_grad_accumulates_on_shared_argmax() {
        // Overlapping windows (stride 1) that share one maximum must
        // accumulate gradient there.
        let x = Tensor::from_vec(
            vec![0.0, 0.0, 0.0, 9.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            &[1, 1, 3, 3],
        )
        .unwrap();
        let p = maxpool2d_forward(&x, 2, 1).unwrap();
        let g = Tensor::ones(p.output.dims());
        let gx = maxpool2d_backward(&g, &p.argmax, x.dims()).unwrap();
        // The 9.0 at offset 3 wins windows (0,0), (1,0) and (1,1)… count them.
        let wins = p.argmax.iter().filter(|&&o| o == 3).count();
        assert_eq!(gx.data()[3], wins as f32);
        assert!(wins >= 2);
    }
}
