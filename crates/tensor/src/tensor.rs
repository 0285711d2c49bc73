use crate::{Result, Shape, TensorError};
use std::sync::Arc;

/// A dense, row-major `f32` tensor with copy-on-write shared storage.
///
/// The element buffer lives behind an [`Arc`], so `clone()` is O(1) and
/// the clone *shares* storage with the original — the mechanism that
/// lets a fleet of vehicle pipelines hold one copy of each DNN weight
/// bank (the workspace's largest allocations) instead of one per
/// vehicle. Mutation goes through [`Tensor::as_mut_slice`] /
/// [`Tensor::at_mut`], which copy-on-write:
/// a uniquely-owned buffer is mutated in place (the common case for
/// freshly computed kernel outputs), a shared one is detached first,
/// so sharing is never observable through the API.
///
/// # Examples
///
/// ```
/// use adsim_tensor::Tensor;
///
/// let t = Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
/// assert_eq!(t.at(&[1, 0]), 3.0);
/// assert_eq!(t.iter().sum::<f32>(), 10.0);
///
/// let shared = t.clone();
/// assert!(shared.ptr_eq(&t), "clones share storage");
/// let mut detached = t.clone();
/// detached.as_mut_slice()[0] = 9.0;
/// assert!(!detached.ptr_eq(&t), "mutation detaches");
/// assert_eq!(t.at(&[0, 0]), 1.0, "original unchanged");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Arc<Vec<f32>>,
}

impl Tensor {
    /// Creates a tensor of zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let data = Arc::new(vec![0.0; shape.len()]);
        Self { shape, data }
    }

    /// Creates a tensor where every element is `value`.
    pub fn filled(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let data = Arc::new(vec![value; shape.len()]);
        Self { shape, data }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` differs
    /// from the element count of `shape`.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Result<Self> {
        let shape = shape.into();
        if data.len() != shape.len() {
            return Err(TensorError::LengthMismatch { shape, len: data.len() });
        }
        Ok(Self { shape, data: Arc::new(data) })
    }

    /// Creates a tensor by evaluating `f` at every index.
    pub fn from_fn(shape: impl Into<Shape>, mut f: impl FnMut(&[usize]) -> f32) -> Self {
        let shape = shape.into();
        let mut data = Vec::with_capacity(shape.len());
        let mut index = vec![0usize; shape.rank()];
        loop {
            data.push(f(&index));
            // Odometer-style increment over the index space.
            let mut axis = shape.rank();
            loop {
                if axis == 0 {
                    return Self { shape, data: Arc::new(data) };
                }
                axis -= 1;
                index[axis] += 1;
                if index[axis] < shape.dim(axis) {
                    break;
                }
                index[axis] = 0;
            }
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds zero elements (never true by
    /// construction; shapes have positive dimensions).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics on rank mismatch or out-of-bounds coordinates.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Mutable element at a multi-dimensional index. Detaches shared
    /// storage first (copy-on-write).
    ///
    /// # Panics
    ///
    /// Panics on rank mismatch or out-of-bounds coordinates.
    pub fn at_mut(&mut self, index: &[usize]) -> &mut f32 {
        let off = self.shape.offset(index);
        &mut Arc::make_mut(&mut self.data)[off]
    }

    /// The underlying data in row-major order.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data in row-major order.
    /// Detaches shared storage first (copy-on-write).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Whether `self` and `other` share the same underlying storage —
    /// the observable form of the fleet's weight-sharing guarantee.
    pub fn ptr_eq(&self, other: &Tensor) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// Address of the shared storage, for counting distinct weight
    /// allocations across a fleet of pipelines.
    pub fn storage_ptr(&self) -> *const f32 {
        self.data.as_ptr()
    }

    /// Iterator over elements in row-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, f32> {
        self.data.iter()
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the element counts
    /// differ.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Result<Tensor> {
        let shape = shape.into();
        if shape.len() != self.data.len() {
            return Err(TensorError::LengthMismatch { shape, len: self.data.len() });
        }
        // Reshape shares storage: same data, new shape.
        Ok(Tensor { shape, data: Arc::clone(&self.data) })
    }

    /// Applies `f` to every element, returning a new tensor.
    pub(crate) fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: Arc::new(self.data.iter().map(|&x| f(x)).collect()),
        }
    }

    /// [`Tensor::map`] on a worker pool: contiguous spans of elements
    /// go to separate workers. `f` must be pure — spans run in
    /// unspecified order.
    pub(crate) fn map_with(
        &self,
        rt: &adsim_runtime::Runtime,
        f: impl Fn(f32) -> f32 + Sync,
    ) -> Tensor {
        let mut out = self.clone();
        let rt = rt.for_work(out.len());
        let span = out.len().div_ceil(4 * rt.threads()).max(1);
        rt.par_chunks_mut(out.as_mut_slice(), span, |_, chunk| {
            for x in chunk {
                *x = f(*x);
            }
        });
        out
    }

    /// Element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, rhs: &Tensor) -> Result<Tensor> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Largest element (−∞ only if the tensor were empty, which cannot
    /// happen by construction).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    fn zip_with(
        &self,
        rhs: &Tensor,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor> {
        if self.shape != rhs.shape {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.shape.clone(),
                rhs: rhs.shape.clone(),
            });
        }
        Ok(Tensor {
            shape: self.shape.clone(),
            data: Arc::new(
                self.data
                    .iter()
                    .zip(rhs.data.iter())
                    .map(|(&a, &b)| f(a, b))
                    .collect(),
            ),
        })
    }
}

impl<'a> IntoIterator for &'a Tensor {
    type Item = &'a f32;
    type IntoIter = std::slice::Iter<'a, f32>;

    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_filled() {
        let z = Tensor::zeros([2, 3]);
        assert_eq!(z.len(), 6);
        assert!(z.iter().all(|&x| x == 0.0));
        let f = Tensor::filled([2, 3], 7.0);
        assert_eq!(f.sum(), 42.0);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec([2, 2], vec![1.0; 4]).is_ok());
        let err = Tensor::from_vec([2, 2], vec![1.0; 5]).unwrap_err();
        assert!(matches!(err, TensorError::LengthMismatch { len: 5, .. }));
    }

    #[test]
    fn from_fn_visits_indices_in_row_major_order() {
        let t = Tensor::from_fn([2, 3], |idx| (idx[0] * 3 + idx[1]) as f32);
        assert_eq!(t.as_slice(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn indexing_round_trip() {
        let mut t = Tensor::zeros([2, 2, 2]);
        *t.at_mut(&[1, 0, 1]) = 9.0;
        assert_eq!(t.at(&[1, 0, 1]), 9.0);
        assert_eq!(t.at(&[0, 0, 0]), 0.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec([2, 3], (0..6).map(|i| i as f32).collect()).unwrap();
        let r = t.reshape([3, 2]).unwrap();
        assert_eq!(r.as_slice(), t.as_slice());
        assert!(t.reshape([4, 2]).is_err());
    }

    #[test]
    fn elementwise_arithmetic() {
        let a = Tensor::from_vec([3], vec![1.0, 2.0, 3.0]).unwrap();
        let b = Tensor::from_vec([3], vec![4.0, 5.0, 6.0]).unwrap();
        assert_eq!(a.add(&b).unwrap().as_slice(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    fn mismatched_shapes_error() {
        let a = Tensor::zeros([2]);
        let b = Tensor::zeros([3]);
        assert!(matches!(
            a.add(&b).unwrap_err(),
            TensorError::ShapeMismatch { op: "add", .. }
        ));
    }

    #[test]
    fn max_returns_the_largest_element() {
        let t = Tensor::from_vec([4], vec![1.0, 9.0, 3.0, 9.0]).unwrap();
        assert_eq!(t.max(), 9.0);
    }

    #[test]
    fn clones_share_storage_until_mutated() {
        let a = Tensor::from_vec([4], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = a.clone();
        assert!(a.ptr_eq(&b));
        assert_eq!(a.storage_ptr(), b.storage_ptr());
        // Reshape also shares.
        let r = a.reshape([2, 2]).unwrap();
        assert!(r.ptr_eq(&a));
        // Any mutation path detaches without touching the original.
        let mut c = a.clone();
        *c.at_mut(&[2]) = 9.0;
        assert!(!c.ptr_eq(&a));
        assert_eq!(a.at(&[2]), 3.0);
        let mut d = a.clone();
        d.as_mut_slice()[0] += 1.0;
        assert!(!d.ptr_eq(&a));
        assert_eq!(a.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

}
