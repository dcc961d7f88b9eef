use crate::flops::LayerFlops;
use crate::layer::{Layer, Mode};
use crate::{NnError, Parameter, Result};
use gsfl_tensor::pool::{maxpool2d_backward_ws, maxpool2d_forward_ws};
use gsfl_tensor::workspace::Workspace;
use gsfl_tensor::Tensor;

/// Max-pooling layer over square windows.
///
/// # Example
///
/// ```
/// use gsfl_nn::layers::MaxPool2d;
/// use gsfl_nn::layer::{Layer, Mode};
/// use gsfl_tensor::Tensor;
///
/// # fn main() -> Result<(), gsfl_nn::NnError> {
/// let mut pool = MaxPool2d::new(2, 2);
/// let y = pool.forward(&Tensor::zeros(&[1, 4, 8, 8]), Mode::Eval)?;
/// assert_eq!(y.dims(), &[1, 4, 4, 4]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    window: usize,
    stride: usize,
    /// Argmax table of the last forward; reused across steps so the
    /// steady-state training loop performs no allocation here.
    argmax: Vec<usize>,
    /// Input dims of the last [`Mode::Train`] forward (`None` until then).
    cached_dims: Option<Vec<usize>>,
}

impl MaxPool2d {
    /// Creates a max-pool with the given window and stride.
    pub fn new(window: usize, stride: usize) -> Self {
        MaxPool2d {
            window,
            stride,
            argmax: Vec::new(),
            cached_dims: None,
        }
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> String {
        format!("maxpool2d({}×{0},s{})", self.window, self.stride)
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let mut ws = Workspace::new();
        self.forward_ws(input, mode, &mut ws)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let mut ws = Workspace::new();
        self.backward_ws(grad_out, &mut ws)
    }

    fn forward_ws(&mut self, input: &Tensor, mode: Mode, ws: &mut Workspace) -> Result<Tensor> {
        let out = maxpool2d_forward_ws(input, self.window, self.stride, ws, &mut self.argmax)?;
        self.cached_dims = if mode == Mode::Train {
            match self.cached_dims.take() {
                Some(mut dims) => {
                    dims.clear();
                    dims.extend_from_slice(input.dims());
                    Some(dims)
                }
                None => Some(input.dims().to_vec()),
            }
        } else {
            None
        };
        Ok(out)
    }

    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Result<Tensor> {
        let in_dims = self
            .cached_dims
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward { layer: self.name() })?;
        Ok(maxpool2d_backward_ws(grad_out, &self.argmax, in_dims, ws)?)
    }

    fn params(&self) -> Vec<&Parameter> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        Vec::new()
    }

    fn output_shape(&self, input_dims: &[usize]) -> Result<Vec<usize>> {
        if input_dims.len() != 4 {
            return Err(NnError::Config(format!(
                "maxpool2d expects NCHW, got {input_dims:?}"
            )));
        }
        let g = gsfl_tensor::conv::ConvGeom::new(
            input_dims[2],
            input_dims[3],
            self.window,
            self.window,
            self.stride,
            0,
        )?;
        Ok(vec![input_dims[0], input_dims[1], g.out_h, g.out_w])
    }

    fn flops(&self, input_dims: &[usize]) -> Result<LayerFlops> {
        let out = self.output_shape(input_dims)?;
        let comparisons = (out[1] * out[2] * out[3]) as u64 * (self.window * self.window) as u64;
        Ok(LayerFlops::elementwise(comparisons))
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(MaxPool2d {
            argmax: Vec::new(),
            cached_dims: None,
            ..self.clone()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_halves_spatial_dims() {
        let mut p = MaxPool2d::new(2, 2);
        let x = Tensor::from_fn(&[1, 2, 4, 4], |i| i as f32);
        let y = p.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[1, 2, 2, 2]);
        let gx = p.backward(&Tensor::ones(y.dims())).unwrap();
        assert_eq!(gx.dims(), x.dims());
        assert_eq!(gx.sum(), 8.0); // one unit per output element
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut p = MaxPool2d::new(2, 2);
        assert!(p.backward(&Tensor::zeros(&[1, 1, 2, 2])).is_err());
    }

    #[test]
    fn output_shape_rejects_non_nchw() {
        assert!(MaxPool2d::new(2, 2).output_shape(&[4, 4]).is_err());
    }
}
