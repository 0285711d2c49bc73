use adsim_tensor::TensorError;

/// Errors constructing a model from caller-supplied parameters.
///
/// The `try_*` constructors return these instead of panicking, so a
/// configuration loaded from a file or CLI flag can be validated
/// without a process abort.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ModelError {
    /// The input resolution is incompatible with the network's total
    /// downsampling factor.
    UnalignedResolution {
        /// Model name.
        model: &'static str,
        /// Requested input height.
        height: usize,
        /// Requested input width.
        width: usize,
        /// Each spatial extent must be a positive multiple of this.
        multiple: usize,
    },
    /// A size parameter that must be positive was zero.
    ZeroSize {
        /// Model name.
        model: &'static str,
        /// The offending parameter.
        parameter: &'static str,
    },
    /// The layer stack failed shape propagation while materializing.
    Build(TensorError),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::UnalignedResolution { model, height, width, multiple } => write!(
                f,
                "{model}: input must be a positive multiple of {multiple}, got {height}x{width}"
            ),
            ModelError::ZeroSize { model, parameter } => {
                write!(f, "{model}: {parameter} must be positive")
            }
            ModelError::Build(e) => write!(f, "model failed to build: {e}"),
        }
    }
}

impl std::error::Error for ModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelError::Build(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for ModelError {
    fn from(e: TensorError) -> Self {
        ModelError::Build(e)
    }
}
