//! Eager executor: runs a training-step graph with real numeric kernels.
//!
//! The simulator never needs numeric values — only shapes — but a credible
//! TensorFlow substitute must actually train. The executor interprets the
//! graph in topological order, holds parameters (and Adam moments) across
//! steps, and is exercised by the functional-training examples and tests.

use crate::graph::Graph;
use crate::node::{OpKind, OpNode, TensorRole};
use pim_common::ids::TensorId;
use pim_common::{PimError, Result};
use pim_tensor::init::{glorot_uniform, seeded_rng};
use pim_tensor::ops::optimizer::{apply_adam, apply_sgd, AdamParams, AdamState};
use pim_tensor::ops::{
    activation, bias, conv, elementwise, embedding, matmul, norm, pool, softmax,
};
use pim_tensor::{Shape, Tensor};
use std::collections::HashMap;

/// A runtime value flowing through the executor.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A dense tensor.
    Tensor(Tensor),
    /// Integer indices (labels, pooling argmax, embedding ids).
    Indices(Vec<usize>),
    /// A scalar (loss, update-done tokens).
    Scalar(f32),
}

impl Value {
    /// Unwraps a tensor value.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::InvalidArgument`] for non-tensor values.
    pub fn as_tensor(&self) -> Result<&Tensor> {
        match self {
            Value::Tensor(t) => Ok(t),
            other => Err(PimError::invalid(
                "Value::as_tensor",
                format!("expected tensor, got {other:?}"),
            )),
        }
    }

    /// Unwraps an index list.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::InvalidArgument`] for non-index values.
    pub fn as_indices(&self) -> Result<&[usize]> {
        match self {
            Value::Indices(v) => Ok(v),
            other => Err(PimError::invalid(
                "Value::as_indices",
                format!("expected indices, got {other:?}"),
            )),
        }
    }

    /// Unwraps a scalar.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::InvalidArgument`] for non-scalar values.
    pub fn as_scalar(&self) -> Result<f32> {
        match self {
            Value::Scalar(s) => Ok(*s),
            other => Err(PimError::invalid(
                "Value::as_scalar",
                format!("expected scalar, got {other:?}"),
            )),
        }
    }
}

/// Outputs of one executed step.
#[derive(Debug)]
pub struct StepResult {
    env: HashMap<TensorId, Value>,
}

impl StepResult {
    /// The value a tensor took during the step.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::UnknownId`] when the tensor was never produced.
    pub fn value(&self, id: TensorId) -> Result<&Value> {
        self.env.get(&id).ok_or(PimError::UnknownId {
            kind: "tensor",
            index: id.index(),
        })
    }

    /// The first scalar-role tensor named `*loss*`, if any — convenience for
    /// training loops.
    pub fn loss(&self, graph: &Graph) -> Option<f32> {
        graph
            .tensors()
            .iter()
            .find(|t| t.role == TensorRole::Scalar && t.name.contains("loss"))
            .and_then(|t| self.env.get(&t.id))
            .and_then(|v| v.as_scalar().ok())
    }
}

/// The learning rate of every `ApplySgd` op.
const SGD_LEARNING_RATE: f32 = 0.05;

/// The eager executor holding persistent training state.
///
/// # Examples
///
/// See `examples/train_mnist_cnn.rs` for an end-to-end training loop.
#[derive(Debug)]
pub struct Executor {
    params: HashMap<TensorId, Tensor>,
    adam: HashMap<TensorId, AdamState>,
    hyper: AdamParams,
}

impl Executor {
    /// Creates an executor for `graph`, initializing every parameter tensor
    /// with Glorot-uniform values from a deterministic seed.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if the graph fails [`Graph::validate`]: an
    /// ill-formed graph would otherwise only surface as a confusing
    /// mid-step execution error.
    pub fn new(graph: &Graph, seed: u64) -> Self {
        #[cfg(debug_assertions)]
        if let Err(err) = graph.validate() {
            panic!("executor given an ill-formed graph: {err}");
        }
        let mut rng = seeded_rng(seed);
        let mut params = HashMap::new();
        for info in graph.tensors() {
            if info.role == TensorRole::Parameter {
                let dims = info.shape.dims();
                let (fan_in, fan_out) = match dims {
                    [f, c, kh, kw] => (c * kh * kw, f * kh * kw),
                    [i, o] => (*i, *o),
                    _ => (info.shape.numel(), info.shape.numel()),
                };
                params.insert(
                    info.id,
                    glorot_uniform(info.shape.clone(), fan_in.max(1), fan_out.max(1), &mut rng),
                );
            }
        }
        Executor {
            params,
            adam: HashMap::new(),
            hyper: AdamParams::default(),
        }
    }

    /// Overrides the Adam hyperparameters.
    pub fn set_adam(&mut self, hyper: AdamParams) {
        self.hyper = hyper;
    }

    /// Reads a parameter's current value.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::UnknownId`] for tensors that are not parameters.
    pub fn parameter(&self, id: TensorId) -> Result<&Tensor> {
        self.params.get(&id).ok_or(PimError::UnknownId {
            kind: "parameter",
            index: id.index(),
        })
    }

    /// Runs one training step: executes every op in topological order with
    /// the given feeds (inputs, labels, dropout masks).
    ///
    /// # Errors
    ///
    /// Returns the first kernel failure, or a missing-feed error.
    pub fn run_step(
        &mut self,
        graph: &Graph,
        feeds: HashMap<TensorId, Value>,
    ) -> Result<StepResult> {
        let mut env = feeds;
        for (&id, tensor) in &self.params {
            env.insert(id, Value::Tensor(tensor.clone()));
        }
        for op_id in graph.topo_order()? {
            let op = graph.op(op_id)?;
            self.execute_op(graph, op, &mut env)?;
        }
        Ok(StepResult { env })
    }

    fn fetch<'e>(env: &'e HashMap<TensorId, Value>, op: &OpNode, idx: usize) -> Result<&'e Value> {
        let tid = *op.inputs.get(idx).ok_or_else(|| {
            PimError::invalid(
                "Executor",
                format!("{} missing input {idx}", op.kind.tf_name()),
            )
        })?;
        env.get(&tid).ok_or_else(|| {
            PimError::invalid(
                "Executor",
                format!("{} input {tid} not yet produced", op.kind.tf_name()),
            )
        })
    }

    fn store(
        env: &mut HashMap<TensorId, Value>,
        op: &OpNode,
        idx: usize,
        value: Value,
    ) -> Result<()> {
        let tid = *op.outputs.get(idx).ok_or_else(|| {
            PimError::invalid(
                "Executor",
                format!("{} missing output {idx}", op.kind.tf_name()),
            )
        })?;
        env.insert(tid, value);
        Ok(())
    }

    fn output_shape(graph: &Graph, op: &OpNode, idx: usize) -> Result<Shape> {
        Ok(graph.tensor(op.outputs[idx])?.shape.clone())
    }

    #[allow(clippy::too_many_lines)]
    fn execute_op(
        &mut self,
        graph: &Graph,
        op: &OpNode,
        env: &mut HashMap<TensorId, Value>,
    ) -> Result<()> {
        match op.kind {
            OpKind::Conv2D(geom) => {
                let out = conv::conv2d(
                    Self::fetch(env, op, 0)?.as_tensor()?,
                    Self::fetch(env, op, 1)?.as_tensor()?,
                    geom,
                )?;
                Self::store(env, op, 0, Value::Tensor(out))
            }
            OpKind::Conv2DBackpropFilter(geom) => {
                let filter_shape = Self::output_shape(graph, op, 0)?;
                let out = conv::conv2d_backprop_filter(
                    Self::fetch(env, op, 0)?.as_tensor()?,
                    Self::fetch(env, op, 1)?.as_tensor()?,
                    &filter_shape,
                    geom,
                )?;
                Self::store(env, op, 0, Value::Tensor(out))
            }
            OpKind::Conv2DBackpropInput(geom) => {
                let input_shape = Self::output_shape(graph, op, 0)?;
                let out = conv::conv2d_backprop_input(
                    &input_shape,
                    Self::fetch(env, op, 0)?.as_tensor()?,
                    Self::fetch(env, op, 1)?.as_tensor()?,
                    geom,
                )?;
                Self::store(env, op, 0, Value::Tensor(out))
            }
            OpKind::Conv2DTranspose(geom) => {
                let out = conv::conv2d_transpose(
                    Self::fetch(env, op, 0)?.as_tensor()?,
                    Self::fetch(env, op, 1)?.as_tensor()?,
                    geom,
                )?;
                Self::store(env, op, 0, Value::Tensor(out))
            }
            OpKind::MatMul(t) => {
                let out = matmul::matmul(
                    Self::fetch(env, op, 0)?.as_tensor()?,
                    Self::fetch(env, op, 1)?.as_tensor()?,
                    t,
                )?;
                Self::store(env, op, 0, Value::Tensor(out))
            }
            OpKind::BiasAdd => {
                let out = bias::bias_add(
                    Self::fetch(env, op, 0)?.as_tensor()?,
                    Self::fetch(env, op, 1)?.as_tensor()?,
                )?;
                Self::store(env, op, 0, Value::Tensor(out))
            }
            OpKind::BiasAddGrad => {
                let out = bias::bias_add_grad(Self::fetch(env, op, 0)?.as_tensor()?)?;
                Self::store(env, op, 0, Value::Tensor(out))
            }
            OpKind::Activation(a) => {
                let out = activation::activate(Self::fetch(env, op, 0)?.as_tensor()?, a)?;
                Self::store(env, op, 0, Value::Tensor(out))
            }
            OpKind::ActivationGrad(a) => {
                let out = activation::activate_grad(
                    Self::fetch(env, op, 0)?.as_tensor()?,
                    Self::fetch(env, op, 1)?.as_tensor()?,
                    Self::fetch(env, op, 2)?.as_tensor()?,
                    a,
                )?;
                Self::store(env, op, 0, Value::Tensor(out))
            }
            OpKind::MaxPool(geom) => {
                let (out, argmax) = pool::max_pool(Self::fetch(env, op, 0)?.as_tensor()?, geom)?;
                Self::store(env, op, 0, Value::Tensor(out))?;
                Self::store(env, op, 1, Value::Indices(argmax))
            }
            OpKind::MaxPoolGrad(_) => {
                let input_shape = Self::output_shape(graph, op, 0)?;
                let grad = Self::fetch(env, op, 0)?.as_tensor()?.clone();
                let argmax = Self::fetch(env, op, 1)?.as_indices()?.to_vec();
                let out = pool::max_pool_grad(&input_shape, &grad, &argmax)?;
                Self::store(env, op, 0, Value::Tensor(out))
            }
            OpKind::AvgPool(geom) => {
                let out = pool::avg_pool(Self::fetch(env, op, 0)?.as_tensor()?, geom)?;
                Self::store(env, op, 0, Value::Tensor(out))
            }
            OpKind::AvgPoolGrad(geom) => {
                let input_shape = Self::output_shape(graph, op, 0)?;
                let grad = Self::fetch(env, op, 0)?.as_tensor()?;
                let out = avg_pool_grad(&input_shape, grad, geom)?;
                Self::store(env, op, 0, Value::Tensor(out))
            }
            OpKind::SoftmaxXent => {
                let logits = Self::fetch(env, op, 0)?.as_tensor()?;
                let labels = Self::fetch(env, op, 1)?.as_indices()?;
                let (loss, grad) = softmax::softmax_cross_entropy(logits, labels)?;
                Self::store(env, op, 0, Value::Scalar(loss))?;
                Self::store(env, op, 1, Value::Tensor(grad))
            }
            OpKind::ApplyAdam => {
                let param_id = op.inputs[0];
                let grad = Self::fetch(env, op, 1)?.as_tensor()?.clone();
                let param = self.params.get_mut(&param_id).ok_or(PimError::UnknownId {
                    kind: "parameter",
                    index: param_id.index(),
                })?;
                let state = self
                    .adam
                    .entry(param_id)
                    .or_insert_with(|| AdamState::new(param.shape().clone()));
                apply_adam(param, &grad, state, self.hyper)?;
                Self::store(env, op, 0, Value::Scalar(0.0))
            }
            OpKind::ApplySgd => {
                let param_id = op.inputs[0];
                let grad = Self::fetch(env, op, 1)?.as_tensor()?.clone();
                let param = self.params.get_mut(&param_id).ok_or(PimError::UnknownId {
                    kind: "parameter",
                    index: param_id.index(),
                })?;
                apply_sgd(param, &grad, SGD_LEARNING_RATE)?;
                Self::store(env, op, 0, Value::Scalar(0.0))
            }
            OpKind::Binary(b) => {
                let out = elementwise::binary(
                    Self::fetch(env, op, 0)?.as_tensor()?,
                    Self::fetch(env, op, 1)?.as_tensor()?,
                    b,
                )?;
                Self::store(env, op, 0, Value::Tensor(out))
            }
            OpKind::Slice { start, len } => {
                let out = elementwise::slice(Self::fetch(env, op, 0)?.as_tensor()?, start, len)?;
                Self::store(env, op, 0, Value::Tensor(out))
            }
            OpKind::Concat => {
                let mut parts = Vec::with_capacity(op.inputs.len());
                for i in 0..op.inputs.len() {
                    parts.push(Self::fetch(env, op, i)?.as_tensor()?.clone());
                }
                let refs: Vec<&Tensor> = parts.iter().collect();
                Self::store(env, op, 0, Value::Tensor(elementwise::concat(&refs)))
            }
            OpKind::Dropout => {
                let out = elementwise::dropout_apply(
                    Self::fetch(env, op, 0)?.as_tensor()?,
                    Self::fetch(env, op, 1)?.as_tensor()?,
                )?;
                Self::store(env, op, 0, Value::Tensor(out))
            }
            OpKind::BatchNorm => {
                let (out, mean, var) =
                    norm::batch_norm(Self::fetch(env, op, 0)?.as_tensor()?, 1e-5)?;
                Self::store(env, op, 0, Value::Tensor(out))?;
                let c = mean.len();
                Self::store(
                    env,
                    op,
                    1,
                    Value::Tensor(Tensor::from_vec(Shape::new(vec![c]), mean)?),
                )?;
                Self::store(
                    env,
                    op,
                    2,
                    Value::Tensor(Tensor::from_vec(Shape::new(vec![c]), var)?),
                )
            }
            OpKind::BatchNormGrad => {
                let grad = Self::fetch(env, op, 0)?.as_tensor()?;
                let input = Self::fetch(env, op, 1)?.as_tensor()?;
                let out = batch_norm_grad(grad, input, 1e-5)?;
                Self::store(env, op, 0, Value::Tensor(out))
            }
            OpKind::Lrn => {
                let out = norm::lrn(Self::fetch(env, op, 0)?.as_tensor()?)?;
                Self::store(env, op, 0, Value::Tensor(out))
            }
            OpKind::LrnGrad => {
                // Approximation: the dominant diagonal term of the LRN
                // Jacobian (grad scaled by the same denominator as the
                // forward pass); the cross-channel terms are dropped.
                let grad = Self::fetch(env, op, 0)?.as_tensor()?;
                let input = Self::fetch(env, op, 1)?.as_tensor()?;
                let fwd = norm::lrn(input)?;
                let out = Tensor::from_fn(grad.shape().clone(), |i| {
                    let x = input.data()[i];
                    if x.abs() < 1e-12 {
                        grad.data()[i]
                    } else {
                        grad.data()[i] * (fwd.data()[i] / x)
                    }
                });
                Self::store(env, op, 0, Value::Tensor(out))
            }
            OpKind::EmbeddingLookup => {
                let table = Self::fetch(env, op, 0)?.as_tensor()?;
                let indices = Self::fetch(env, op, 1)?.as_indices()?;
                let out = embedding::embedding_lookup(table, indices)?;
                Self::store(env, op, 0, Value::Tensor(out))
            }
            OpKind::EmbeddingGrad => {
                let table_shape = Self::output_shape(graph, op, 0)?;
                let grad = Self::fetch(env, op, 0)?.as_tensor()?.clone();
                let indices = Self::fetch(env, op, 1)?.as_indices()?.to_vec();
                let out = embedding::embedding_grad(&table_shape, &grad, &indices)?;
                Self::store(env, op, 0, Value::Tensor(out))
            }
            OpKind::Reshape => {
                let shape = Self::output_shape(graph, op, 0)?;
                let out = Self::fetch(env, op, 0)?
                    .as_tensor()?
                    .clone()
                    .reshaped(shape)?;
                Self::store(env, op, 0, Value::Tensor(out))
            }
        }
    }
}

/// Distributes each output gradient uniformly over its pooling window.
fn avg_pool_grad(
    input_shape: &Shape,
    grad_output: &Tensor,
    geom: pim_tensor::ConvGeometry,
) -> Result<Tensor> {
    let (n, c, h, w) = input_shape.as_nchw()?;
    let (gn, gc, oh, ow) = grad_output.shape().as_nchw()?;
    if gn != n || gc != c {
        return Err(PimError::ShapeMismatch {
            context: "avg_pool_grad",
            expected: vec![n, c],
            actual: vec![gn, gc],
        });
    }
    let window = geom.window_len() as f32;
    let mut grad_input = Tensor::zeros(input_shape.clone());
    for ni in 0..n {
        for ci in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let share = grad_output.at4(ni, ci, oy, ox) / window;
                    for ky in 0..geom.kernel_h {
                        for kx in 0..geom.kernel_w {
                            let iy = (oy * geom.stride_h + ky) as isize - geom.pad_h as isize;
                            let ix = (ox * geom.stride_w + kx) as isize - geom.pad_w as isize;
                            if iy >= 0 && ix >= 0 && (iy as usize) < h && (ix as usize) < w {
                                grad_input.add4(ni, ci, iy as usize, ix as usize, share);
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(grad_input)
}

/// Batch-normalization input gradient (no scale/shift parameters):
/// `dx = inv_std/N * (N*dy - sum(dy) - x_hat * sum(dy * x_hat))` per channel.
fn batch_norm_grad(grad_output: &Tensor, input: &Tensor, epsilon: f32) -> Result<Tensor> {
    let (n, c, h, w) = input.shape().as_nchw()?;
    let count = (n * h * w) as f32;
    let (_, mean, var) = norm::batch_norm(input, epsilon)?;
    let mut out = Tensor::zeros(input.shape().clone());
    for ci in 0..c {
        let inv_std = 1.0 / (var[ci] + epsilon).sqrt();
        let mut sum_dy = 0.0f32;
        let mut sum_dy_xhat = 0.0f32;
        for ni in 0..n {
            for hi in 0..h {
                for wi in 0..w {
                    let dy = grad_output.at4(ni, ci, hi, wi);
                    let xhat = (input.at4(ni, ci, hi, wi) - mean[ci]) * inv_std;
                    sum_dy += dy;
                    sum_dy_xhat += dy * xhat;
                }
            }
        }
        for ni in 0..n {
            for hi in 0..h {
                for wi in 0..w {
                    let dy = grad_output.at4(ni, ci, hi, wi);
                    let xhat = (input.at4(ni, ci, hi, wi) - mean[ci]) * inv_std;
                    let dx = inv_std / count * (count * dy - sum_dy - xhat * sum_dy_xhat);
                    out.set4(ni, ci, hi, wi, dx);
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{NetBuilder, OptimizerKind};
    use pim_tensor::init::seeded_rng;
    use rand::RngExt;

    /// Builds a tiny CNN classifier and runs real training steps on a
    /// synthetic separable problem; the loss must drop.
    #[test]
    fn tiny_cnn_training_reduces_loss() {
        let mut net = NetBuilder::new("cnn");
        let input_id = net.input(8, 1, 6, 6);
        let x = net.conv2d(input_id, 4, 3, 1, 1).unwrap();
        let x = net.bias(x).unwrap();
        let x = net.relu(x).unwrap();
        let x = net.max_pool(x, 2, 2, 0).unwrap();
        let x = net.flatten(x).unwrap();
        let logits = net.dense(x, 2).unwrap();
        let graph = net.finish_classifier(logits, OptimizerKind::Adam).unwrap();

        let labels_id = graph
            .tensors()
            .iter()
            .find(|t| t.role == TensorRole::Labels)
            .unwrap()
            .id;
        let input_info = graph.tensor(input_id).unwrap().clone();

        let mut exec = Executor::new(&graph, 42);
        exec.set_adam(pim_tensor::ops::optimizer::AdamParams {
            learning_rate: 0.02,
            ..Default::default()
        });
        let mut rng = seeded_rng(7);
        let mut first_loss = None;
        let mut last_loss = 0.0f32;
        for _ in 0..40 {
            // Class 0: bright top half; class 1: bright bottom half.
            let labels: Vec<usize> = (0..8).map(|_| rng.random_range(0..2usize)).collect();
            let mut images = Tensor::zeros(input_info.shape.clone());
            for (i, &lab) in labels.iter().enumerate() {
                for hh in 0..6 {
                    for ww in 0..6 {
                        let bright = if lab == 0 { hh < 3 } else { hh >= 3 };
                        images.set4(i, 0, hh, ww, if bright { 1.0 } else { 0.0 });
                    }
                }
            }
            let mut feeds = HashMap::new();
            feeds.insert(input_id, Value::Tensor(images));
            feeds.insert(labels_id, Value::Indices(labels));
            let result = exec.run_step(&graph, feeds).unwrap();
            let loss = result.loss(&graph).unwrap();
            if first_loss.is_none() {
                first_loss = Some(loss);
            }
            last_loss = loss;
        }
        let first = first_loss.unwrap();
        assert!(
            last_loss < first * 0.6,
            "loss did not drop: {first} -> {last_loss}"
        );
    }

    #[test]
    fn missing_feed_is_reported() {
        let mut net = NetBuilder::new("m");
        let x = net.input_matrix(2, 4);
        let logits = net.dense(x, 2).unwrap();
        let graph = net.finish_classifier(logits, OptimizerKind::Sgd).unwrap();
        let mut exec = Executor::new(&graph, 0);
        let err = exec.run_step(&graph, HashMap::new());
        assert!(err.is_err());
    }

    #[test]
    fn value_accessors_enforce_kinds() {
        let v = Value::Scalar(1.0);
        assert!(v.as_tensor().is_err());
        assert!(v.as_indices().is_err());
        assert_eq!(v.as_scalar().unwrap(), 1.0);
    }

    #[test]
    fn batch_norm_grad_matches_finite_differences() {
        let input = Tensor::from_fn(Shape::new(vec![2, 1, 2, 2]), |i| ((i * 3) % 7) as f32 * 0.4);
        // Loss = sum(bn(x) * w) with w varying, so grad_out = w.
        let weights = Tensor::from_fn(input.shape().clone(), |i| ((i % 3) as f32) - 1.0);
        let analytic = batch_norm_grad(&weights, &input, 1e-5).unwrap();
        let eps = 1e-2f32;
        let loss = |x: &Tensor| -> f64 {
            let (y, _, _) = norm::batch_norm(x, 1e-5).unwrap();
            y.data()
                .iter()
                .zip(weights.data())
                .map(|(&a, &b)| f64::from(a * b))
                .sum()
        };
        for idx in 0..input.numel() {
            let mut plus = input.clone();
            plus.data_mut()[idx] += eps;
            let mut minus = input.clone();
            minus.data_mut()[idx] -= eps;
            let numeric = (loss(&plus) - loss(&minus)) / (2.0 * f64::from(eps));
            let got = f64::from(analytic.data()[idx]);
            assert!(
                (numeric - got).abs() < 0.05,
                "bn grad[{idx}]: numeric {numeric} analytic {got}"
            );
        }
    }

    #[test]
    fn avg_pool_grad_spreads_uniformly() {
        let geom = pim_tensor::ConvGeometry::square(2, 2, 0);
        let grad_out = Tensor::full(Shape::new(vec![1, 1, 1, 1]), 4.0);
        let g = avg_pool_grad(&Shape::new(vec![1, 1, 2, 2]), &grad_out, geom).unwrap();
        assert_eq!(g.data(), &[1.0, 1.0, 1.0, 1.0]);
    }
}
