//! Network definitions for the paper's two DNN bottlenecks.
//!
//! Each model exists in two forms:
//!
//! * a *full-scale* [`ArchSpec`] matching the published architecture's
//!   layer structure, used for exact cost analysis (FLOPs/bytes) that
//!   drives the accelerator latency models — analyzable at any input
//!   resolution without allocating weights;
//! * a *reduced-scale* [`Network`](crate::Network) that is small enough
//!   to actually execute in tests, examples and the native pipeline,
//!   while exercising the identical layer kinds and decode paths.

mod error;
mod goturn;
mod shared;
mod spec;
mod yolo;

pub use goturn::{goturn_spec, goturn_tiny};
pub use shared::{goturn_tiny_shared, yolo_tiny_shared, yolo_v2_tiny_shared};
pub use spec::{ArchSpec, LayerSpec};
pub use yolo::{vgg16_spec, yolo_tiny, yolo_v2_spec, yolo_v2_tiny};
