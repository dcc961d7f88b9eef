//! The layer contract.

use crate::flops::LayerFlops;
use crate::{Parameter, Result};
use gsfl_tensor::workspace::Workspace;
use gsfl_tensor::Tensor;

/// Refreshes an activation cache slot from `src`, reusing the existing
/// tensor's backing buffer when the slot is already populated.
pub(crate) fn cache_tensor(slot: &mut Option<Tensor>, src: &Tensor) {
    match slot {
        Some(t) => t.assign(src),
        None => *slot = Some(src.clone()),
    }
}

/// Whether a forward pass is for training (caches what the backward pass
/// needs) or evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Training: cache activations for backward.
    #[default]
    Train,
    /// Inference: no caching requirements.
    Eval,
}

/// A differentiable network layer.
///
/// Layers own their parameters and the activation caches needed for the
/// backward pass; [`Layer::backward`] must be preceded by a
/// [`Layer::forward`] in [`Mode::Train`].
///
/// The trait is object-safe: networks are `Vec<Box<dyn Layer>>`, and
/// [`Layer::clone_box`] supports duplicating whole networks when a scheme
/// distributes models to clients or replicates server-side models per group.
/// Layers are plain owned data (`Send + Sync`), so shared network
/// templates can be cloned from any worker thread.
pub trait Layer: Send + Sync {
    /// Human-readable layer name (e.g. `"conv2d(3→16,3×3)"`).
    fn name(&self) -> String;

    /// Computes the layer output, caching whatever `backward` will need
    /// when `mode` is [`Mode::Train`].
    ///
    /// # Errors
    ///
    /// Returns an error when the input shape is incompatible.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor>;

    /// Propagates `grad_out` through the layer, accumulating parameter
    /// gradients and returning the gradient with respect to the input.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::BackwardBeforeForward`] when no cached
    /// forward activation exists, or a shape error when `grad_out` does not
    /// match the cached output shape.
    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor>;

    /// [`Layer::forward`] drawing scratch (and, where possible, the
    /// output buffer) from a caller [`Workspace`]. Layers on the training
    /// hot path override this; the default simply ignores the workspace.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Layer::forward`].
    fn forward_ws(&mut self, input: &Tensor, mode: Mode, ws: &mut Workspace) -> Result<Tensor> {
        let _ = ws;
        self.forward(input, mode)
    }

    /// [`Layer::backward`] drawing scratch from a caller [`Workspace`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Layer::backward`].
    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Result<Tensor> {
        let _ = ws;
        self.backward(grad_out)
    }

    /// [`Layer::backward_ws`] for a network's **first** layer, whose
    /// input gradient nothing consumes: accumulates parameter gradients
    /// but may skip computing the input gradient entirely. The default
    /// just discards it; layers whose input gradient is expensive
    /// (dense, conv) override this with a real skip.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Layer::backward`].
    fn backward_ws_last(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Result<()> {
        let g = self.backward_ws(grad_out, ws)?;
        ws.recycle(g);
        Ok(())
    }

    /// Immutable views of the layer's parameters (possibly empty).
    fn params(&self) -> Vec<&Parameter>;

    /// Mutable views of the layer's parameters, in the same order as
    /// [`Layer::params`].
    fn params_mut(&mut self) -> Vec<&mut Parameter>;

    /// Output dims for a given input dims, without running the layer.
    ///
    /// # Errors
    ///
    /// Returns an error when the input shape is incompatible.
    fn output_shape(&self, input_dims: &[usize]) -> Result<Vec<usize>>;

    /// Estimated floating-point operations per *sample* for the given input
    /// dims (used by the wireless latency model).
    ///
    /// # Errors
    ///
    /// Returns an error when the input shape is incompatible.
    fn flops(&self, input_dims: &[usize]) -> Result<LayerFlops>;

    /// Clones the layer into a fresh box (parameters copied, caches
    /// dropped).
    fn clone_box(&self) -> Box<dyn Layer>;

    /// Total scalar parameter count.
    fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.numel()).sum()
    }

    /// Resets all parameter gradients to zero.
    fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_default_is_train() {
        assert_eq!(Mode::default(), Mode::Train);
    }
}
