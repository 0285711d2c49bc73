//! Process-wide shared instances of the reduced-scale models.
//!
//! Every [`yolo_tiny`](super::yolo_tiny) / [`goturn_tiny`](super::goturn_tiny)
//! call allocates a fresh copy of the weights. That is correct but
//! wasteful at fleet scale: a campaign running hundreds of vehicle
//! cells would hold hundreds of identical weight copies — the largest
//! allocation in the pipeline, duplicated per vehicle. The paper's
//! fleet framing ("heavy traffic from millions of users") makes model
//! weights the canonical read-only shared asset.
//!
//! The constructors here build each model **once** per process and
//! hand out clones. Because tensor storage is `Arc`-backed
//! copy-on-write, a [`Network`] clone is a few pointer bumps and the
//! clones share every parameter buffer — observable through
//! [`Network::shares_weights`]. Inference never writes to weights, so
//! the copy-on-write detach never triggers.
//!
//! # Examples
//!
//! ```
//! use adsim_dnn::models::{goturn_tiny_shared, yolo_tiny_shared};
//!
//! let a = yolo_tiny_shared(4);
//! let b = yolo_tiny_shared(4);
//! assert!(a.shares_weights(&b));
//! assert!(goturn_tiny_shared().shares_weights(&goturn_tiny_shared()));
//! ```

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use super::error::ModelError;
use super::goturn::try_goturn_tiny;
use super::yolo::{try_yolo_tiny, try_yolo_v2_tiny};
use crate::network::Network;

/// One cached network per YOLO grid size (the native pipeline uses a
/// single size, but tests exercise several).
static YOLO_CACHE: OnceLock<Mutex<HashMap<usize, Network>>> = OnceLock::new();

/// One cached `yolo-v2-tiny` per grid size, separate from the tiny
/// cache. The anytime governor's model-variant knob flips a detector
/// between the two caches, so a switch is a pointer-bump clone of an
/// already-built network — never a weight copy.
static YOLO_V2_CACHE: OnceLock<Mutex<HashMap<usize, Network>>> = OnceLock::new();

/// The GOTURN input shape is fixed, so a single slot suffices.
static GOTURN_CACHE: OnceLock<Network> = OnceLock::new();

/// A clone of the process-wide `yolo-tiny` instance for `grid`,
/// sharing all weight storage with every other clone for the same
/// grid. Identical weights to [`super::yolo_tiny`] (same seed).
///
/// # Panics
///
/// Panics if `grid == 0`.
pub fn yolo_tiny_shared(grid: usize) -> Network {
    try_yolo_tiny_shared(grid).unwrap_or_else(|e| panic!("grid must be positive: {e}"))
}

/// Fallible form of [`yolo_tiny_shared`].
///
/// # Errors
///
/// Returns [`ModelError::ZeroSize`] when `grid == 0`.
pub(crate) fn try_yolo_tiny_shared(grid: usize) -> Result<Network, ModelError> {
    let cache = YOLO_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().expect("yolo cache poisoned");
    if let Some(net) = map.get(&grid) {
        return Ok(net.clone());
    }
    let net = try_yolo_tiny(grid)?;
    map.insert(grid, net.clone());
    Ok(net)
}

/// A clone of the process-wide `yolo-v2-tiny` instance for `grid`,
/// sharing all weight storage with every other clone for the same
/// grid. Identical weights to [`super::yolo_v2_tiny`] (same seed).
///
/// # Panics
///
/// Panics if `grid == 0`.
pub fn yolo_v2_tiny_shared(grid: usize) -> Network {
    try_yolo_v2_tiny_shared(grid).unwrap_or_else(|e| panic!("grid must be positive: {e}"))
}

/// Fallible form of [`yolo_v2_tiny_shared`].
///
/// # Errors
///
/// Returns [`ModelError::ZeroSize`] when `grid == 0`.
pub(crate) fn try_yolo_v2_tiny_shared(grid: usize) -> Result<Network, ModelError> {
    let cache = YOLO_V2_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().expect("yolo-v2 cache poisoned");
    if let Some(net) = map.get(&grid) {
        return Ok(net.clone());
    }
    let net = try_yolo_v2_tiny(grid)?;
    map.insert(grid, net.clone());
    Ok(net)
}

/// A clone of the process-wide `goturn-tiny` instance, sharing all
/// weight storage with every other clone. Identical weights to
/// [`super::goturn_tiny`] (same seed).
pub fn goturn_tiny_shared() -> Network {
    GOTURN_CACHE
        .get_or_init(|| try_goturn_tiny().expect("goturn_tiny layer stack is shape-consistent"))
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsim_tensor::Tensor;

    #[test]
    fn two_networks_from_same_spec_share_storage() {
        let a = yolo_tiny_shared(4);
        let b = yolo_tiny_shared(4);
        assert!(a.shares_weights(&b), "same-grid clones share every parameter buffer");
        // Pointer equality, not just value equality.
        for (x, y) in a.params().iter().zip(b.params()) {
            assert_eq!(x.storage_ptr(), y.storage_ptr());
        }
        let g1 = goturn_tiny_shared();
        let g2 = goturn_tiny_shared();
        assert!(g1.shares_weights(&g2));
    }

    #[test]
    fn different_grids_do_not_share() {
        let a = yolo_tiny_shared(2);
        let b = yolo_tiny_shared(4);
        assert!(!a.shares_weights(&b));
    }

    #[test]
    fn v2_cache_is_shared_and_disjoint_from_tiny() {
        let a = yolo_v2_tiny_shared(4);
        let b = yolo_v2_tiny_shared(4);
        assert!(a.shares_weights(&b), "same-grid v2 clones share storage");
        let t = yolo_tiny_shared(4);
        assert!(!a.shares_weights(&t), "variant caches must not alias");
    }

    #[test]
    fn shared_weights_match_fresh_construction() {
        let shared = yolo_tiny_shared(4);
        let fresh = super::super::yolo_tiny(4);
        assert!(!shared.shares_weights(&fresh), "fresh build allocates its own copy");
        for (s, f) in shared.params().iter().zip(fresh.params()) {
            assert_eq!(s.as_slice(), f.as_slice(), "same seed, same values");
        }
        let input = Tensor::from_fn([1, 1, 32, 32], |i| ((i[2] ^ i[3]) & 1) as f32);
        assert_eq!(
            shared.forward(&input).unwrap(),
            fresh.forward(&input).unwrap(),
            "inference is bit-identical through shared weights"
        );
    }

    #[test]
    fn inference_does_not_detach_shared_storage() {
        let net = goturn_tiny_shared();
        let before: Vec<_> = net.params().iter().map(|t| t.storage_ptr()).collect();
        net.forward(&Tensor::zeros([1, 2, 32, 32])).unwrap();
        let after: Vec<_> = net.params().iter().map(|t| t.storage_ptr()).collect();
        assert_eq!(before, after, "forward never writes weights, so CoW never fires");
    }
}
