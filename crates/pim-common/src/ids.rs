//! Strongly typed identifiers.
//!
//! Each identifier is a newtype over `usize` so the compiler statically
//! distinguishes, e.g., a bank index from an op index (C-NEWTYPE).

use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! define_id {
    ($(#[$meta:meta])* $name:ident, $prefix:literal) => {
        $(#[$meta])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        pub struct $name(usize);

        impl $name {
            /// Wraps a raw index.
            pub const fn new(index: usize) -> Self {
                Self(index)
            }

            /// Returns the raw index.
            pub const fn index(self) -> usize {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<usize> for $name {
            fn from(index: usize) -> Self {
                Self(index)
            }
        }

        impl From<$name> for usize {
            fn from(id: $name) -> usize {
                id.0
            }
        }
    };
}

define_id!(
    /// Identifies an operation node in a dataflow graph.
    ///
    /// # Examples
    ///
    /// ```
    /// use pim_common::ids::OpId;
    /// let id = OpId::new(3);
    /// assert_eq!(id.to_string(), "op3");
    /// ```
    OpId,
    "op"
);

define_id!(
    /// Identifies a tensor value flowing between graph nodes.
    TensorId,
    "t"
);

define_id!(
    /// Identifies a DRAM bank (a vertical slice of the 3D memory stack).
    BankId,
    "bank"
);

define_id!(
    /// Identifies a compiled kernel binary.
    KernelId,
    "kern"
);

define_id!(
    /// Identifies a training step (one minibatch iteration).
    StepId,
    "step"
);

define_id!(
    /// Identifies one co-running workload in a mixed-workload simulation.
    WorkloadId,
    "wl"
);

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn roundtrip_through_usize() {
        let id = BankId::new(17);
        assert_eq!(usize::from(id), 17);
        assert_eq!(BankId::from(17usize), id);
    }

    #[test]
    fn ids_are_hashable_and_ordered() {
        let mut set = HashSet::new();
        set.insert(OpId::new(1));
        set.insert(OpId::new(1));
        set.insert(OpId::new(2));
        assert_eq!(set.len(), 2);
        assert!(OpId::new(1) < OpId::new(2));
    }

    #[test]
    fn display_uses_prefix() {
        assert_eq!(TensorId::new(0).to_string(), "t0");
        assert_eq!(StepId::new(9).to_string(), "step9");
        assert_eq!(WorkloadId::new(2).to_string(), "wl2");
        assert_eq!(KernelId::new(2).to_string(), "kern2");
    }
}
