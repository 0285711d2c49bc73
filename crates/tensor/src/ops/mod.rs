//! Neural-network primitive kernels over [`Tensor`](crate::Tensor).
//!
//! These are the building blocks of the YOLO-like detection network and
//! GOTURN-like tracking network (paper §3.1.1–3.1.2, §4.2.2): 2-D
//! convolution, max-pooling, activations, fully-connected layers,
//! softmax and inference-time batch normalization.

mod activation;
mod conv;
mod linear;
mod norm;
mod pool;

pub use activation::{
    leaky_relu, leaky_relu_inplace_with, leaky_relu_isa, leaky_relu_with, relu, relu_inplace_with,
    relu_isa, relu_with, sigmoid, sigmoid_with, softmax, softmax_with, tanh_with,
};
pub use conv::{conv2d, conv2d_direct, conv2d_isa, conv2d_with, im2col, im2col_batched};
pub use linear::{
    linear, linear_isa, linear_with, matmul, matmul_i8_into, matmul_isa, matmul_with,
};
pub use norm::{batch_norm, batch_norm_isa, batch_norm_with};
pub use pool::{
    avg_pool2d, avg_pool2d_isa, avg_pool2d_with, max_pool2d, max_pool2d_isa, max_pool2d_with,
};

/// Output spatial size of a convolution/pooling window sweep.
///
/// `size` is the input extent, `k` the kernel extent, `stride` the step
/// and `pad` the symmetric zero padding. Returns `None` when the window
/// does not fit even once.
pub fn out_extent(size: usize, k: usize, stride: usize, pad: usize) -> Option<usize> {
    let padded = size + 2 * pad;
    if k == 0 || stride == 0 || padded < k {
        return None;
    }
    Some((padded - k) / stride + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_extent_matches_formula() {
        assert_eq!(out_extent(4, 3, 1, 1), Some(4));
        assert_eq!(out_extent(8, 2, 2, 0), Some(4));
        assert_eq!(out_extent(5, 3, 2, 0), Some(2));
    }

    #[test]
    fn out_extent_rejects_impossible_windows() {
        assert_eq!(out_extent(2, 3, 1, 0), None);
        assert_eq!(out_extent(4, 0, 1, 0), None);
        assert_eq!(out_extent(4, 2, 0, 0), None);
    }
}
