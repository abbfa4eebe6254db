//! Minimal dense neural-network substrate for the GNN.
//!
//! The paper's GNN stack (Tensorflow + GraphSAINT) is replaced by this
//! from-scratch implementation: row-major `f32` [`Matrix`] with threaded
//! products, He/Xavier init, [`Linear`] layers with exact backward passes,
//! ReLU/dropout, the Adam optimizer ([`AdamState`]) (paper Table II: Adam, lr 0.01,
//! dropout 0.1) and softmax cross-entropy with class and row weighting
//! ([`softmax_cross_entropy`]). [`Metrics`] produces the non-averaged
//! per-class precision/recall/F1 the paper's tables report.
//!
//! # Examples
//!
//! ```
//! use gnnunlock_neural::{Linear, Matrix, relu};
//! let layer = Linear::new(4, 2, 42);
//! let x = Matrix::zeros(3, 4);
//! let y = relu(&layer.forward(&x));
//! assert_eq!((y.rows(), y.cols()), (3, 2));
//! ```

#![warn(missing_docs)]

mod adam;
mod layers;
mod loss;
mod matrix;
mod metrics;
mod workspace;

pub use adam::{AdamConfig, AdamState};
pub use layers::{
    relu, relu_backward, relu_backward_inplace, relu_inplace, DropoutMask, Linear, LinearGrads,
};
pub use loss::{
    inverse_frequency_weights, softmax_cross_entropy, softmax_cross_entropy_ws, LossOutput,
};
pub use matrix::{for_row_blocks, reference, Matrix};
pub use metrics::Metrics;
pub use workspace::Workspace;
