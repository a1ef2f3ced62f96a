//! Activation functions and their gradients.
//!
//! `Relu` is the paper's example of "an activation function that
//! incorporates conditional statement" — a [`OffloadClass::NonMulAdd`]
//! operation despite being arithmetically trivial. Sigmoid/tanh (LSTM,
//! DCGAN) add transcendentals on top.

use crate::cost::{CostProfile, OffloadClass};
use crate::shape::Shape;
use crate::tensor::Tensor;
use pim_common::units::Bytes;
use pim_common::{PimError, Result};
use serde::{Deserialize, Serialize};

/// The supported activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Activation {
    /// `max(0, x)`.
    Relu,
    /// `max(alpha*x, x)` with `alpha = 0.2` (DCGAN discriminator).
    LeakyRelu,
    /// `1 / (1 + e^-x)` (LSTM gates).
    Sigmoid,
    /// Hyperbolic tangent (LSTM cell, DCGAN generator output).
    Tanh,
}

impl Activation {
    fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::LeakyRelu => {
                if x > 0.0 {
                    x
                } else {
                    0.2 * x
                }
            }
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Tanh => x.tanh(),
        }
    }

    /// Derivative expressed in terms of the *output* value `y = f(x)` for
    /// sigmoid/tanh, and of the input sign for the relu family.
    fn derivative(self, x: f32, y: f32) -> f32 {
        match self {
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::LeakyRelu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.2
                }
            }
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Tanh => 1.0 - y * y,
        }
    }

    /// Non-multiply/add operations per element (compares for the relu
    /// family; exp/div for the transcendental pair).
    fn other_flops_per_elem(self) -> f64 {
        match self {
            Activation::Relu | Activation::LeakyRelu => 1.0,
            Activation::Sigmoid => 4.0,
            Activation::Tanh => 6.0,
        }
    }
}

/// Applies the activation elementwise.
///
/// # Examples
///
/// ```
/// use pim_tensor::ops::activation::{activate, Activation};
/// use pim_tensor::{Shape, Tensor};
///
/// # fn main() -> pim_common::Result<()> {
/// let x = Tensor::from_vec(Shape::new(vec![3]), vec![-1.0, 0.0, 2.0])?;
/// let y = activate(&x, Activation::Relu)?;
/// assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Currently infallible for finite inputs; returns `Err` only to keep the
/// signature uniform with the other ops.
pub fn activate(input: &Tensor, kind: Activation) -> Result<Tensor> {
    Ok(Tensor::from_fn(input.shape().clone(), |i| {
        kind.apply(input.data()[i])
    }))
}

/// Gradient of an activation given the upstream gradient, the original
/// input, and the forward output.
///
/// # Errors
///
/// Returns [`PimError::ShapeMismatch`] when the three tensors disagree in
/// shape.
pub fn activate_grad(
    grad_output: &Tensor,
    input: &Tensor,
    output: &Tensor,
    kind: Activation,
) -> Result<Tensor> {
    if grad_output.shape() != input.shape() || input.shape() != output.shape() {
        return Err(PimError::ShapeMismatch {
            context: "activate_grad",
            expected: input.shape().dims().to_vec(),
            actual: grad_output.shape().dims().to_vec(),
        });
    }
    Ok(Tensor::from_fn(input.shape().clone(), |i| {
        grad_output.data()[i] * kind.derivative(input.data()[i], output.data()[i])
    }))
}

/// Analytic cost of the forward activation.
pub fn activation_cost(input: &Shape, kind: Activation) -> CostProfile {
    let n = input.numel() as f64;
    CostProfile::compute(
        0.0,
        0.0,
        n * kind.other_flops_per_elem(),
        Bytes::new(n * 4.0),
        Bytes::new(n * 4.0),
        OffloadClass::NonMulAdd,
        0,
    )
}

/// Analytic cost of the activation gradient (one extra multiply per element
/// for the chain rule, still dominated by the conditional/transcendental).
pub fn activation_grad_cost(input: &Shape, kind: Activation) -> CostProfile {
    let n = input.numel() as f64;
    let muls = n;
    let other = n * kind.other_flops_per_elem();
    CostProfile::compute(
        muls,
        0.0,
        other,
        Bytes::new(n * 4.0 * 3.0),
        Bytes::new(n * 4.0),
        OffloadClass::PartiallyMulAdd {
            ma_fraction: muls / (muls + other),
        },
        1,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_common::rng::check;

    #[test]
    fn relu_clamps_negatives() {
        let x = Tensor::from_vec(Shape::new(vec![4]), vec![-2.0, -0.5, 0.5, 2.0]).unwrap();
        let y = activate(&x, Activation::Relu).unwrap();
        assert_eq!(y.data(), &[0.0, 0.0, 0.5, 2.0]);
    }

    #[test]
    fn leaky_relu_leaks() {
        let x = Tensor::from_vec(Shape::new(vec![2]), vec![-1.0, 1.0]).unwrap();
        let y = activate(&x, Activation::LeakyRelu).unwrap();
        assert_eq!(y.data(), &[-0.2, 1.0]);
    }

    #[test]
    fn sigmoid_is_bounded_and_centered() {
        let x = Tensor::from_vec(Shape::new(vec![3]), vec![-10.0, 0.0, 10.0]).unwrap();
        let y = activate(&x, Activation::Sigmoid).unwrap();
        assert!(y.data()[0] < 0.001);
        assert!((y.data()[1] - 0.5).abs() < 1e-6);
        assert!(y.data()[2] > 0.999);
    }

    #[test]
    fn grad_checks_shapes() {
        let a = Tensor::zeros(Shape::new(vec![2]));
        let b = Tensor::zeros(Shape::new(vec![3]));
        assert!(activate_grad(&a, &b, &b, Activation::Relu).is_err());
    }

    #[test]
    fn relu_is_non_mul_add_class() {
        let cost = activation_cost(&Shape::new(vec![1024]), Activation::Relu);
        assert_eq!(cost.class, OffloadClass::NonMulAdd);
    }

    #[test]
    fn gradients_match_finite_differences() {
        check(64, "gradients_match_finite_differences", |g| {
            let x = g.draw(-3.0f32..3.0);
            let kind_idx = g.draw(0usize..4);
            let kind = [
                Activation::Relu,
                Activation::LeakyRelu,
                Activation::Sigmoid,
                Activation::Tanh,
            ][kind_idx];
            // Avoid the relu kink where the derivative is discontinuous.
            if x.abs() <= 1e-2 {
                return;
            }
            let eps = 1e-3f32;
            let numeric = (kind.apply(x + eps) - kind.apply(x - eps)) / (2.0 * eps);
            let analytic = kind.derivative(x, kind.apply(x));
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "{kind:?} at {x}: numeric {numeric} analytic {analytic}"
            );
        });
    }

    #[test]
    fn costs_scale_with_elements() {
        check(64, "costs_scale_with_elements", |g| {
            let n = g.draw(1usize..10_000);
            let cost = activation_cost(&Shape::new(vec![n]), Activation::Tanh);
            assert_eq!(cost.other_flops, n as f64 * 6.0);
            assert!(cost.is_well_formed());
        });
    }
}
