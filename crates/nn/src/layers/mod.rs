//! Concrete layer implementations: the five layer types the DeepThin CNN
//! and the MLP are built from.

mod activation;
mod conv2d;
mod dense;
mod flatten;
mod pool;

pub use activation::Relu;
pub use conv2d::Conv2d;
pub use dense::Dense;
pub use flatten::Flatten;
pub use pool::MaxPool2d;
