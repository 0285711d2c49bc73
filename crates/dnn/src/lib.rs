//! A layer-graph deep-neural-network inference engine with exact
//! per-layer cost accounting.
//!
//! The paper identifies the DNN portions of object detection (YOLO) and
//! object tracking (GOTURN) as two of the three computational
//! bottlenecks of an autonomous driving system, consuming 99.4 % and
//! 99.0 % of those engines' cycles respectively (Fig. 7). This crate
//! provides:
//!
//! * [`Layer`] / [`Network`]: a sequential layer graph with a forward
//!   pass built on [`adsim_tensor`]'s kernels,
//! * [`cost`]: exact FLOP / parameter / byte accounting per layer,
//!   which drives the accelerator latency models in `adsim-platform`,
//! * [`models`]: YOLO-like detection and GOTURN-like tracking network
//!   definitions at full paper scale (for cost analysis) and reduced
//!   scale (for functional execution in tests and examples),
//! * [`detection`]: bounding boxes, grid decoding, IoU and
//!   non-maximum suppression.
//!
//! # Examples
//!
//! ```
//! use adsim_dnn::models;
//! use adsim_tensor::Tensor;
//!
//! let net = models::yolo_tiny(8);
//! let input = Tensor::zeros(net.input_shape().clone());
//! let out = net.forward(&input).unwrap();
//! assert_eq!(out.shape(), &net.output_shape().unwrap());
//! assert!(net.cost().unwrap().total.flops > 0);
//! ```

pub mod cost;
pub mod detection;
mod init;
mod layer;
pub mod models;
mod network;
pub mod quant;

pub use cost::{LayerCost, NetworkCost};
pub use init::WeightInit;
pub use layer::{Activation, Layer};
pub use network::{Network, NetworkBuilder};

/// Result alias re-using the tensor error type, since every failure a
/// network can hit is ultimately a tensor shape/parameter failure.
pub type Result<T> = adsim_tensor::Result<T>;
