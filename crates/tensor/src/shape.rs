/// The dimensions of a [`Tensor`](crate::Tensor), stored outermost-first.
///
/// Convolutional tensors in this workspace use the NCHW convention:
/// `[batch, channels, height, width]`.
///
/// # Examples
///
/// ```
/// use adsim_tensor::Shape;
///
/// let s = Shape::new(vec![1, 3, 8, 8]);
/// assert_eq!(s.len(), 192);
/// assert_eq!(s.rank(), 4);
/// assert_eq!(s.dim(1), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from its dimensions.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero; zero-sized tensors are never
    /// meaningful in this workspace and always indicate a bug.
    pub fn new(dims: Vec<usize>) -> Self {
        assert!(
            dims.iter().all(|&d| d > 0),
            "all dimensions must be positive, got {dims:?}"
        );
        Self { dims }
    }

    /// The dimensions, outermost first.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Size of dimension `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= rank()`.
    pub fn dim(&self, axis: usize) -> usize {
        self.dims[axis]
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// Whether the shape holds zero elements (never true; see [`Shape::new`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row-major strides: the element distance between successive
    /// indices along each axis.
    pub(crate) fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index to a flat offset.
    ///
    /// # Panics
    ///
    /// Panics if the index rank differs from the shape rank or any
    /// coordinate is out of bounds.
    pub(crate) fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(
            index.len(),
            self.dims.len(),
            "index rank {} does not match shape rank {}",
            index.len(),
            self.dims.len()
        );
        let mut off = 0;
        let strides = self.strides();
        for (axis, (&i, &d)) in index.iter().zip(&self.dims).enumerate() {
            assert!(i < d, "index {i} out of bounds for axis {axis} with size {d}");
            off += i * strides[axis];
        }
        off
    }

    /// Interprets this shape as NCHW, returning `(n, c, h, w)`.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError::RankMismatch`](crate::TensorError) if the
    /// rank is not 4.
    pub fn as_nchw(&self) -> crate::Result<(usize, usize, usize, usize)> {
        if self.rank() != 4 {
            return Err(crate::TensorError::RankMismatch {
                op: "as_nchw",
                expected: 4,
                actual: self.rank(),
            });
        }
        Ok((self.dims[0], self.dims[1], self.dims[2], self.dims[3]))
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(dims)
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::new(dims.to_vec())
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_are_row_major() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
    }

    #[test]
    fn offset_round_trip() {
        let s = Shape::new(vec![2, 3, 4]);
        let mut seen = std::collections::HashSet::new();
        for i in 0..2 {
            for j in 0..3 {
                for k in 0..4 {
                    assert!(seen.insert(s.offset(&[i, j, k])));
                }
            }
        }
        assert_eq!(seen.len(), s.len());
        assert_eq!(*seen.iter().max().unwrap(), s.len() - 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn offset_checks_bounds() {
        Shape::new(vec![2, 2]).offset(&[0, 2]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_rejected() {
        Shape::new(vec![1, 0]);
    }

    #[test]
    fn nchw_accessor() {
        let s = Shape::new(vec![1, 3, 10, 20]);
        assert_eq!(s.as_nchw().unwrap(), (1, 3, 10, 20));
        assert!(Shape::new(vec![3]).as_nchw().is_err());
    }

    #[test]
    fn display_formats_dims() {
        assert_eq!(Shape::new(vec![1, 2, 3]).to_string(), "[1x2x3]");
    }

    #[test]
    fn from_array_and_vec() {
        assert_eq!(Shape::from([2, 2]), Shape::from(vec![2, 2]));
    }
}
