//! Parameter-update operations: `ApplyAdam` and `ApplyGradientDescent`.
//!
//! `ApplyAdam` is the paper's example of "a first-order gradient-based
//! optimization of stochastic objective functions" — a multiply/add core
//! (moment updates) wrapped in square roots and divisions, making it
//! [`OffloadClass::PartiallyMulAdd`] and a recursive-kernel client.

use crate::cost::{CostProfile, OffloadClass};
use crate::shape::Shape;
use crate::tensor::Tensor;
use pim_common::units::Bytes;
use pim_common::{PimError, Result};
use serde::{Deserialize, Serialize};

/// Adam hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdamParams {
    /// Step size.
    pub learning_rate: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator fuzz.
    pub epsilon: f32,
}

impl Default for AdamParams {
    fn default() -> Self {
        AdamParams {
            learning_rate: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
        }
    }
}

/// Mutable optimizer state for one parameter tensor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdamState {
    /// First-moment estimate.
    pub m: Tensor,
    /// Second-moment estimate.
    pub v: Tensor,
    /// Number of updates applied so far.
    pub t: u32,
}

impl AdamState {
    /// Fresh (zeroed) state for a parameter of the given shape.
    pub fn new(shape: Shape) -> Self {
        AdamState {
            m: Tensor::zeros(shape.clone()),
            v: Tensor::zeros(shape),
            t: 0,
        }
    }
}

/// Applies one Adam step in place (`ApplyAdam`).
///
/// # Examples
///
/// ```
/// use pim_tensor::ops::optimizer::{apply_adam, AdamParams, AdamState};
/// use pim_tensor::{Shape, Tensor};
///
/// # fn main() -> pim_common::Result<()> {
/// let mut w = Tensor::full(Shape::new(vec![2]), 1.0);
/// let mut state = AdamState::new(w.shape().clone());
/// let grad = Tensor::full(Shape::new(vec![2]), 1.0);
/// apply_adam(&mut w, &grad, &mut state, AdamParams::default())?;
/// assert!(w.data()[0] < 1.0); // moved against the gradient
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`PimError::ShapeMismatch`] when the gradient or state shape
/// disagrees with the parameter.
pub fn apply_adam(
    param: &mut Tensor,
    grad: &Tensor,
    state: &mut AdamState,
    hp: AdamParams,
) -> Result<()> {
    if grad.shape() != param.shape() || state.m.shape() != param.shape() {
        return Err(PimError::ShapeMismatch {
            context: "apply_adam",
            expected: param.shape().dims().to_vec(),
            actual: grad.shape().dims().to_vec(),
        });
    }
    state.t += 1;
    let t = state.t as f32;
    let bias1 = 1.0 - hp.beta1.powf(t);
    let bias2 = 1.0 - hp.beta2.powf(t);
    for i in 0..param.numel() {
        let g = grad.data()[i];
        let m = hp.beta1 * state.m.data()[i] + (1.0 - hp.beta1) * g;
        let v = hp.beta2 * state.v.data()[i] + (1.0 - hp.beta2) * g * g;
        state.m.data_mut()[i] = m;
        state.v.data_mut()[i] = v;
        let m_hat = m / bias1;
        let v_hat = v / bias2;
        param.data_mut()[i] -= hp.learning_rate * m_hat / (v_hat.sqrt() + hp.epsilon);
    }
    Ok(())
}

/// Applies one plain SGD step in place (`ApplyGradientDescent`).
///
/// # Errors
///
/// Returns [`PimError::ShapeMismatch`] when shapes disagree.
pub fn apply_sgd(param: &mut Tensor, grad: &Tensor, learning_rate: f32) -> Result<()> {
    if grad.shape() != param.shape() {
        return Err(PimError::ShapeMismatch {
            context: "apply_sgd",
            expected: param.shape().dims().to_vec(),
            actual: grad.shape().dims().to_vec(),
        });
    }
    for i in 0..param.numel() {
        param.data_mut()[i] -= learning_rate * grad.data()[i];
    }
    Ok(())
}

/// Analytic cost of `ApplyAdam`: per element, 7 multiplies + 4 adds of
/// multiply/add work and 3 other ops (sqrt + 2 divides). Reads parameter,
/// gradient, and both moments; writes parameter and both moments.
pub fn apply_adam_cost(param: &Shape) -> CostProfile {
    let n = param.numel() as f64;
    let muls = n * 7.0;
    let adds = n * 4.0;
    let other = n * 3.0;
    CostProfile::compute(
        muls,
        adds,
        other,
        Bytes::new(n * 4.0 * 4.0),
        Bytes::new(n * 4.0 * 3.0),
        OffloadClass::PartiallyMulAdd {
            ma_fraction: (muls + adds) / (muls + adds + other),
        },
        512,
    )
}

/// Analytic cost of `ApplyGradientDescent`: one multiply + one add per
/// element; fully multiply/add.
pub fn apply_sgd_cost(param: &Shape) -> CostProfile {
    let n = param.numel() as f64;
    CostProfile::compute(
        n,
        n,
        0.0,
        Bytes::new(n * 4.0 * 2.0),
        Bytes::new(n * 4.0),
        OffloadClass::FullyMulAdd,
        512,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_common::rng::check;

    #[test]
    fn sgd_moves_against_gradient() {
        let mut w = Tensor::from_vec(Shape::new(vec![2]), vec![1.0, -1.0]).unwrap();
        let g = Tensor::from_vec(Shape::new(vec![2]), vec![0.5, -0.5]).unwrap();
        apply_sgd(&mut w, &g, 0.1).unwrap();
        assert!((w.data()[0] - 0.95).abs() < 1e-6);
        assert!((w.data()[1] + 0.95).abs() < 1e-6);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // Minimize f(w) = w^2 starting from w = 5.
        let mut w = Tensor::full(Shape::new(vec![1]), 5.0);
        let mut state = AdamState::new(w.shape().clone());
        let hp = AdamParams {
            learning_rate: 0.1,
            ..AdamParams::default()
        };
        for _ in 0..500 {
            let grad = Tensor::from_vec(w.shape().clone(), vec![2.0 * w.data()[0]]).unwrap();
            apply_adam(&mut w, &grad, &mut state, hp).unwrap();
        }
        assert!(w.data()[0].abs() < 0.05, "w = {}", w.data()[0]);
    }

    #[test]
    fn adam_first_step_has_unit_scale() {
        // Bias correction makes the very first step ~learning_rate.
        let mut w = Tensor::full(Shape::new(vec![1]), 0.0);
        let mut state = AdamState::new(w.shape().clone());
        let grad = Tensor::full(w.shape().clone(), 3.0);
        apply_adam(&mut w, &grad, &mut state, AdamParams::default()).unwrap();
        assert!((w.data()[0] + 1e-3).abs() < 1e-4);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let mut w = Tensor::zeros(Shape::new(vec![2]));
        let g = Tensor::zeros(Shape::new(vec![3]));
        assert!(apply_sgd(&mut w, &g, 0.1).is_err());
        let mut state = AdamState::new(Shape::new(vec![2]));
        assert!(apply_adam(&mut w, &g, &mut state, AdamParams::default()).is_err());
    }

    #[test]
    fn adam_is_partially_mul_add() {
        let cost = apply_adam_cost(&Shape::new(vec![1000]));
        match cost.class {
            OffloadClass::PartiallyMulAdd { ma_fraction } => {
                assert!((0.5..1.0).contains(&ma_fraction));
            }
            other => panic!("expected PartiallyMulAdd, got {other:?}"),
        }
    }

    #[test]
    fn sgd_is_fully_mul_add() {
        let cost = apply_sgd_cost(&Shape::new(vec![1000]));
        assert_eq!(cost.class, OffloadClass::FullyMulAdd);
    }

    #[test]
    fn sgd_is_exact_axpy() {
        check(64, "sgd_is_exact_axpy", |g| {
            let w0 = g.draw(-10.0f32..10.0);
            let g0 = g.draw(-10.0f32..10.0);
            let lr = g.draw(0.0f32..1.0);
            let mut w = Tensor::full(Shape::new(vec![1]), w0);
            let grad = Tensor::full(Shape::new(vec![1]), g0);
            apply_sgd(&mut w, &grad, lr).unwrap();
            assert!((w.data()[0] - (w0 - lr * g0)).abs() < 1e-5);
        });
    }

    #[test]
    fn adam_state_counter_increments() {
        check(64, "adam_state_counter_increments", |g| {
            let steps = g.draw(1u32..20);
            let mut w = Tensor::zeros(Shape::new(vec![4]));
            let mut state = AdamState::new(w.shape().clone());
            let grad = Tensor::full(w.shape().clone(), 0.1);
            for _ in 0..steps {
                apply_adam(&mut w, &grad, &mut state, AdamParams::default()).unwrap();
            }
            assert_eq!(state.t, steps);
        });
    }
}
