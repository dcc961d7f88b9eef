use crate::flops::LayerFlops;
use crate::layer::{cache_tensor, Layer, Mode};
use crate::{NnError, Parameter, Result};
use gsfl_tensor::workspace::Workspace;
use gsfl_tensor::Tensor;

/// Rectified linear unit: `max(0, x)`.
///
/// # Example
///
/// ```
/// use gsfl_nn::layers::Relu;
/// use gsfl_nn::layer::{Layer, Mode};
/// use gsfl_tensor::Tensor;
///
/// # fn main() -> Result<(), gsfl_nn::NnError> {
/// let mut relu = Relu::new();
/// let y = relu.forward(&Tensor::from_vec(vec![-1.0, 2.0], &[1, 2])?, Mode::Eval)?;
/// assert_eq!(y.data(), &[0.0, 2.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Relu {
    /// The input of the last [`Mode::Train`] forward.
    cached: Option<Tensor>,
}

impl Relu {
    /// Creates the activation layer.
    pub fn new() -> Self {
        Relu { cached: None }
    }
}

impl Layer for Relu {
    fn name(&self) -> String {
        "relu".to_string()
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
        let mut out = ws.take(input.numel());
        for (o, &x) in out.iter_mut().zip(input.data()) {
            *o = x.max(0.0);
        }
        if mode == Mode::Train {
            cache_tensor(&mut self.cached, input);
        }
        Ok(Tensor::from_vec(out, input.dims())?)
    }

    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Result<Tensor> {
        let cached = self
            .cached
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward { layer: self.name() })?;
        if !cached.shape().same_dims(grad_out.shape()) {
            return Err(NnError::Config(format!(
                "relu: grad shape {:?} does not match cached {:?}",
                grad_out.dims(),
                cached.dims()
            )));
        }
        let mut out = ws.take(grad_out.numel());
        for ((o, &g), &x) in out.iter_mut().zip(grad_out.data()).zip(cached.data()) {
            *o = g * if x > 0.0 { 1.0 } else { 0.0 };
        }
        Ok(Tensor::from_vec(out, grad_out.dims())?)
    }

    fn params(&self) -> Vec<&Parameter> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        Vec::new()
    }

    fn output_shape(&self, input_dims: &[usize]) -> Result<Vec<usize>> {
        Ok(input_dims.to_vec())
    }

    fn flops(&self, input_dims: &[usize]) -> Result<LayerFlops> {
        let numel: usize = input_dims.iter().skip(1).product();
        Ok(LayerFlops::elementwise(numel as u64))
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(Relu::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_and_backward() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-2.0, -0.5, 0.0, 1.5], &[1, 4]).unwrap();
        let y = relu.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.data(), &[0.0, 0.0, 0.0, 1.5]);
        let g = relu.backward(&Tensor::ones(&[1, 4])).unwrap();
        assert_eq!(g.data(), &[0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn activations_have_no_params() {
        assert_eq!(Relu::new().param_count(), 0);
    }

    #[test]
    fn backward_shape_mismatch_rejected() {
        let mut relu = Relu::new();
        relu.forward(&Tensor::zeros(&[1, 4]), Mode::Train).unwrap();
        assert!(relu.backward(&Tensor::zeros(&[1, 5])).is_err());
    }
}
