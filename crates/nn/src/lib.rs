//! Neural-network stack with cut-layer model splitting.
//!
//! `gsfl-nn` implements everything the GSFL training schemes need from a
//! deep-learning framework, from scratch on top of
//! [`gsfl-tensor`](gsfl_tensor):
//!
//! * [`layer::Layer`] — the forward/backward layer contract with parameter,
//!   shape and FLOPs accounting,
//! * [`layers`] — the five layer types the models are built from: dense,
//!   conv2d, ReLU, max-pooling and flatten,
//! * [`Sequential`] — a layer pipeline that can be **split at any cut
//!   layer** into a client-side and a server-side network
//!   ([`split::SplitNetwork`]), the core mechanic of split learning,
//! * [`loss`] — softmax cross-entropy with its analytic gradient,
//! * [`optim`] — SGD with momentum,
//! * [`params::ParamVec`] — flattened parameter vectors for FedAvg
//!   aggregation and wire-size accounting,
//! * [`codec`] — payload codecs (fp16, stochastic int quantization,
//!   top-k sparsification) applied to everything that crosses the
//!   simulated wireless link,
//! * [`flops`] — per-layer forward/backward FLOPs estimates that drive the
//!   wireless latency model,
//! * [`model`] — the lightweight traffic-sign CNN (DeepThin-style) and an
//!   MLP for fast tests.
//!
//! # Example: train one step, split, and hand smashed data across
//!
//! ```
//! use gsfl_nn::{model::Mlp, split::SplitNetwork, loss::SoftmaxCrossEntropy};
//! use gsfl_tensor::Tensor;
//!
//! # fn main() -> Result<(), gsfl_nn::NnError> {
//! let net = Mlp::new(4, &[8], 3, 42).into_sequential();
//! let mut split = SplitNetwork::split(net, 2)?; // client keeps dense+relu
//! let x = Tensor::zeros(&[2, 4]);
//! let smashed = split.client.forward(&x)?;           // client-side forward
//! let logits = split.server.forward(&smashed)?;      // server-side forward
//! let loss = SoftmaxCrossEntropy::new().compute(&logits, &[0, 1])?;
//! let grad_smashed = split.server.backward(&loss.grad_logits)?; // server backward
//! let _ = split.client.backward(&grad_smashed)?;     // client backward
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod error;
mod param;
mod sequential;

pub mod codec;
pub mod flops;
pub mod layer;
pub mod layers;
pub mod loss;
pub mod metrics;
pub mod model;
pub mod optim;
pub mod params;
pub mod split;

pub use error::NnError;
pub use param::Parameter;
pub use sequential::Sequential;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NnError>;
