//! The workspace-wide error type.

use std::fmt;

/// Convenience alias for results carrying a [`PimError`].
pub type Result<T> = std::result::Result<T, PimError>;

/// Errors produced anywhere in the hetero-pim stack.
///
/// # Examples
///
/// ```
/// use pim_common::PimError;
///
/// let err = PimError::ShapeMismatch {
///     context: "matmul",
///     expected: vec![2, 3],
///     actual: vec![3, 2],
/// };
/// assert!(err.to_string().contains("matmul"));
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PimError {
    /// A tensor shape did not match what an operation required.
    ShapeMismatch {
        /// Operation or call site that detected the mismatch.
        context: &'static str,
        /// The shape the operation required.
        expected: Vec<usize>,
        /// The shape it was given.
        actual: Vec<usize>,
    },
    /// An argument was outside its valid domain.
    InvalidArgument {
        /// Call site that rejected the argument.
        context: &'static str,
        /// Human-readable description of the violation.
        message: String,
    },
    /// A graph node referenced a tensor or node that does not exist.
    UnknownId {
        /// The kind of identifier ("tensor", "op", "device", ...).
        kind: &'static str,
        /// The raw index that failed to resolve.
        index: usize,
    },
    /// The dataflow graph contains a dependency cycle.
    GraphCycle {
        /// Indices of nodes known to participate in the cycle.
        members: Vec<usize>,
    },
    /// A kernel was submitted to a device that cannot execute it.
    UnsupportedKernel {
        /// Device that rejected the kernel.
        device: String,
        /// Why the kernel cannot run there.
        reason: String,
    },
    /// A hardware resource request exceeded the available budget.
    ResourceExhausted {
        /// The resource ("logic-die area", "fixed-function units", ...).
        resource: &'static str,
        /// Amount requested.
        requested: f64,
        /// Amount available.
        available: f64,
    },
    /// A generated binary referenced a fixed-function kernel index that
    /// does not exist in its companion kernel list — caught at
    /// binary-generation time instead of faulting at execution.
    KernelIndexOutOfBounds {
        /// The kernel whose body holds the bad call site.
        kernel: String,
        /// The out-of-bounds index.
        index: usize,
        /// Number of extracted fixed-function kernels actually available.
        available: usize,
    },
    /// Execution exceeded a deterministic resource budget — an
    /// event-count fuel limit — and stopped at the next check site.
    /// Budgets are pure functions of the run request, so this outcome
    /// byte-replays across processes and thread counts.
    BudgetExhausted {
        /// Which budget tripped: `"events"` (fuel in retired events).
        budget: &'static str,
        /// The configured limit, in the budget's unit.
        limit: u64,
    },
    /// The simulator reached an inconsistent state (a bug, not user error).
    Internal {
        /// Description of the invariant that failed.
        message: String,
    },
}

impl fmt::Display for PimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PimError::ShapeMismatch {
                context,
                expected,
                actual,
            } => write!(
                f,
                "shape mismatch in {context}: expected {expected:?}, got {actual:?}"
            ),
            PimError::InvalidArgument { context, message } => {
                write!(f, "invalid argument in {context}: {message}")
            }
            PimError::UnknownId { kind, index } => {
                write!(f, "unknown {kind} id {index}")
            }
            PimError::GraphCycle { members } => {
                write!(f, "dependency cycle involving nodes {members:?}")
            }
            PimError::UnsupportedKernel { device, reason } => {
                write!(f, "device {device} cannot execute kernel: {reason}")
            }
            PimError::ResourceExhausted {
                resource,
                requested,
                available,
            } => write!(
                f,
                "resource {resource} exhausted: requested {requested}, available {available}"
            ),
            PimError::KernelIndexOutOfBounds {
                kernel,
                index,
                available,
            } => write!(
                f,
                "kernel {kernel} calls fixed-function kernel {index}, \
                 but only {available} were extracted"
            ),
            PimError::BudgetExhausted { budget, limit } => {
                write!(f, "run exceeded its {budget} budget of {limit}")
            }
            PimError::Internal { message } => write!(f, "internal error: {message}"),
        }
    }
}

impl std::error::Error for PimError {}

impl PimError {
    /// Builds an [`PimError::InvalidArgument`] from any displayable message.
    pub fn invalid(context: &'static str, message: impl fmt::Display) -> Self {
        PimError::InvalidArgument {
            context,
            message: message.to_string(),
        }
    }

    /// Builds an [`PimError::Internal`] from any displayable message.
    pub fn internal(message: impl fmt::Display) -> Self {
        PimError::Internal {
            message: message.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_context() {
        let err = PimError::invalid("conv2d", "stride must be nonzero");
        assert_eq!(
            err.to_string(),
            "invalid argument in conv2d: stride must be nonzero"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PimError>();
    }

    #[test]
    fn debug_is_nonempty() {
        let err = PimError::internal("boom");
        assert!(!format!("{err:?}").is_empty());
    }

    #[test]
    fn kernel_index_display_names_kernel_and_bounds() {
        let err = PimError::KernelIndexOutOfBounds {
            kernel: "Conv2D_progr".to_string(),
            index: 3,
            available: 1,
        };
        let text = err.to_string();
        assert!(text.contains("Conv2D_progr"));
        assert!(text.contains('3'));
        assert!(text.contains("only 1"));
    }

    #[test]
    fn budget_display_carries_the_numbers() {
        let b = PimError::BudgetExhausted {
            budget: "events",
            limit: 1000,
        };
        assert_eq!(b.to_string(), "run exceeded its events budget of 1000");
    }

    #[test]
    fn source_chain_terminates() {
        use std::error::Error;
        let err = PimError::internal("boom");
        assert!(err.source().is_none());
    }
}
