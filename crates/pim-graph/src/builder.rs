//! Layer-level network builder with automatic backward-pass generation.
//!
//! [`NetBuilder`] records a tape of layers as the forward pass is described,
//! then [`NetBuilder::finish_classifier`] replays the tape in reverse —
//! accumulating gradients across branches (residual adds, inception towers)
//! — to emit gradient and optimizer operations, producing the complete
//! training-step graph that TensorFlow would hand the paper's runtime.

use crate::graph::Graph;
use crate::node::{OpKind, TensorRole};
use pim_common::ids::TensorId;
use pim_common::{PimError, Result};
use pim_tensor::ops::activation::Activation;
use pim_tensor::ops::elementwise::BinaryOp;
use pim_tensor::ops::matmul::Transpose;
use pim_tensor::{ConvGeometry, Shape};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Which parameter-update operation the training step uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OptimizerKind {
    /// `ApplyAdam` (the paper's running example).
    Adam,
    /// `ApplyGradientDescent`.
    Sgd,
}

impl OptimizerKind {
    fn op_kind(self) -> OpKind {
        match self {
            OptimizerKind::Adam => OpKind::ApplyAdam,
            OptimizerKind::Sgd => OpKind::ApplySgd,
        }
    }
}

#[derive(Debug, Clone)]
enum Layer {
    Conv {
        geom: ConvGeometry,
        input: TensorId,
        filter: TensorId,
        output: TensorId,
    },
    ConvTranspose {
        geom: ConvGeometry,
        input: TensorId,
        filter: TensorId,
        output: TensorId,
    },
    Dense {
        input: TensorId,
        weight: TensorId,
        output: TensorId,
    },
    Bias {
        input: TensorId,
        bias: TensorId,
        output: TensorId,
    },
    Activation {
        kind: Activation,
        input: TensorId,
        output: TensorId,
    },
    MaxPool {
        geom: ConvGeometry,
        input: TensorId,
        argmax: TensorId,
        output: TensorId,
    },
    AvgPool {
        geom: ConvGeometry,
        input: TensorId,
        output: TensorId,
    },
    BatchNorm {
        input: TensorId,
        output: TensorId,
    },
    Lrn {
        input: TensorId,
        output: TensorId,
    },
    Dropout {
        input: TensorId,
        mask: TensorId,
        output: TensorId,
    },
    Flatten {
        input: TensorId,
        output: TensorId,
    },
    Add {
        a: TensorId,
        b: TensorId,
        output: TensorId,
    },
    ConcatChannels {
        parts: Vec<TensorId>,
        output: TensorId,
    },
}

impl Layer {
    fn output(&self) -> TensorId {
        match *self {
            Layer::Conv { output, .. }
            | Layer::ConvTranspose { output, .. }
            | Layer::Dense { output, .. }
            | Layer::Bias { output, .. }
            | Layer::Activation { output, .. }
            | Layer::MaxPool { output, .. }
            | Layer::AvgPool { output, .. }
            | Layer::BatchNorm { output, .. }
            | Layer::Lrn { output, .. }
            | Layer::Dropout { output, .. }
            | Layer::Flatten { output, .. }
            | Layer::Add { output, .. }
            | Layer::ConcatChannels { output, .. } => output,
        }
    }
}

/// Builder of a complete training-step graph from a layer description.
///
/// # Examples
///
/// ```
/// use pim_graph::builder::{NetBuilder, OptimizerKind};
///
/// # fn main() -> pim_common::Result<()> {
/// let mut net = NetBuilder::new("tiny");
/// let x = net.input(1, 1, 8, 8);
/// let x = net.conv2d(x, 4, 3, 1, 1)?;
/// let x = net.relu(x)?;
/// let x = net.flatten(x)?;
/// let x = net.dense(x, 10)?;
/// let graph = net.finish_classifier(x, OptimizerKind::Adam)?;
/// assert!(graph.op_count() > 5);
/// graph.validate()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct NetBuilder {
    graph: Graph,
    layers: Vec<Layer>,
    prefix: String,
    batch: usize,
}

impl NetBuilder {
    /// Starts a new network named `prefix`.
    pub fn new(prefix: impl Into<String>) -> Self {
        NetBuilder {
            graph: Graph::new(),
            layers: Vec::new(),
            prefix: prefix.into(),
            batch: 0,
        }
    }

    fn name(&self, layer: &str, suffix: &str) -> String {
        format!("{}/{}{}/{}", self.prefix, layer, self.layers.len(), suffix)
    }

    fn shape_of(&self, id: TensorId) -> Result<Shape> {
        Ok(self.graph.tensor(id)?.shape.clone())
    }

    /// The minibatch size declared by the first input.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Declares the minibatch image input `[n, c, h, w]`.
    pub fn input(&mut self, n: usize, c: usize, h: usize, w: usize) -> TensorId {
        self.batch = n;
        self.graph.add_tensor(
            Shape::new(vec![n, c, h, w]),
            TensorRole::Input,
            format!("{}/input", self.prefix),
        )
    }

    /// Declares a flat `[n, features]` input (MLPs, LSTM slices).
    pub fn input_matrix(&mut self, n: usize, features: usize) -> TensorId {
        self.batch = n;
        self.graph.add_tensor(
            Shape::new(vec![n, features]),
            TensorRole::Input,
            format!("{}/input", self.prefix),
        )
    }

    /// Appends `Conv2D` with a fresh filter parameter; returns the output.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the input tensor.
    pub fn conv2d(
        &mut self,
        x: TensorId,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> Result<TensorId> {
        let geom = ConvGeometry::square(kernel, stride, pad);
        let (n, c, h, w) = self.shape_of(x)?.as_nchw()?;
        let (oh, ow) = geom.output_hw(h, w);
        let filter = self.graph.add_tensor(
            Shape::new(vec![out_channels, c, kernel, kernel]),
            TensorRole::Parameter,
            self.name("conv", "filter"),
        );
        let output = self.graph.add_tensor(
            Shape::new(vec![n, out_channels, oh, ow]),
            TensorRole::Activation,
            self.name("conv", "out"),
        );
        self.graph
            .add_op(OpKind::Conv2D(geom), vec![x, filter], vec![output])?;
        self.layers.push(Layer::Conv {
            geom,
            input: x,
            filter,
            output,
        });
        Ok(output)
    }

    /// Appends `Conv2DTranspose` (DCGAN generator upsampling).
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the input tensor.
    pub fn conv2d_transpose(
        &mut self,
        x: TensorId,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> Result<TensorId> {
        let geom = ConvGeometry::square(kernel, stride, pad);
        let (n, c, h, w) = self.shape_of(x)?.as_nchw()?;
        let (oh, ow) = geom.transpose_output_hw(h, w);
        let filter = self.graph.add_tensor(
            Shape::new(vec![c, out_channels, kernel, kernel]),
            TensorRole::Parameter,
            self.name("deconv", "filter"),
        );
        let output = self.graph.add_tensor(
            Shape::new(vec![n, out_channels, oh, ow]),
            TensorRole::Activation,
            self.name("deconv", "out"),
        );
        self.graph
            .add_op(OpKind::Conv2DTranspose(geom), vec![x, filter], vec![output])?;
        self.layers.push(Layer::ConvTranspose {
            geom,
            input: x,
            filter,
            output,
        });
        Ok(output)
    }

    /// Appends a fully connected `MatMul` with a fresh weight parameter.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the input tensor.
    pub fn dense(&mut self, x: TensorId, units: usize) -> Result<TensorId> {
        let (n, features) = self.shape_of(x)?.as_matrix()?;
        let weight = self.graph.add_tensor(
            Shape::new(vec![features, units]),
            TensorRole::Parameter,
            self.name("fc", "weight"),
        );
        let output = self.graph.add_tensor(
            Shape::new(vec![n, units]),
            TensorRole::Activation,
            self.name("fc", "out"),
        );
        self.graph.add_op(
            OpKind::MatMul(Transpose::NONE),
            vec![x, weight],
            vec![output],
        )?;
        self.layers.push(Layer::Dense {
            input: x,
            weight,
            output,
        });
        Ok(output)
    }

    /// Appends `BiasAdd` with a fresh bias parameter.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the input tensor.
    pub fn bias(&mut self, x: TensorId) -> Result<TensorId> {
        let shape = self.shape_of(x)?;
        let channels = match *shape.dims() {
            [_, c, _, _] => c,
            [_, c] => c,
            _ => {
                return Err(PimError::ShapeMismatch {
                    context: "NetBuilder::bias",
                    expected: vec![2, 4],
                    actual: vec![shape.rank()],
                })
            }
        };
        let bias = self.graph.add_tensor(
            Shape::new(vec![channels]),
            TensorRole::Parameter,
            self.name("bias", "b"),
        );
        let output = self
            .graph
            .add_tensor(shape, TensorRole::Activation, self.name("bias", "out"));
        self.graph
            .add_op(OpKind::BiasAdd, vec![x, bias], vec![output])?;
        self.layers.push(Layer::Bias {
            input: x,
            bias,
            output,
        });
        Ok(output)
    }

    fn activation(&mut self, x: TensorId, kind: Activation) -> Result<TensorId> {
        let shape = self.shape_of(x)?;
        let output = self
            .graph
            .add_tensor(shape, TensorRole::Activation, self.name("act", "out"));
        self.graph
            .add_op(OpKind::Activation(kind), vec![x], vec![output])?;
        self.layers.push(Layer::Activation {
            kind,
            input: x,
            output,
        });
        Ok(output)
    }

    /// Appends `Relu`.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the input tensor.
    pub fn relu(&mut self, x: TensorId) -> Result<TensorId> {
        self.activation(x, Activation::Relu)
    }

    /// Appends `LeakyRelu` (DCGAN discriminator).
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the input tensor.
    pub fn leaky_relu(&mut self, x: TensorId) -> Result<TensorId> {
        self.activation(x, Activation::LeakyRelu)
    }

    /// Appends `Tanh` (DCGAN generator output).
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the input tensor.
    pub fn tanh(&mut self, x: TensorId) -> Result<TensorId> {
        self.activation(x, Activation::Tanh)
    }

    /// Appends `Sigmoid`.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the input tensor.
    pub fn sigmoid(&mut self, x: TensorId) -> Result<TensorId> {
        self.activation(x, Activation::Sigmoid)
    }

    /// Appends a rectangular `Conv2D` (Inception's 1x7/7x1 factorization).
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the input tensor.
    #[allow(clippy::too_many_arguments)]
    pub fn conv2d_rect(
        &mut self,
        x: TensorId,
        out_channels: usize,
        kernel_h: usize,
        kernel_w: usize,
        stride: usize,
        pad_h: usize,
        pad_w: usize,
    ) -> Result<TensorId> {
        let geom = ConvGeometry {
            kernel_h,
            kernel_w,
            stride_h: stride,
            stride_w: stride,
            pad_h,
            pad_w,
        };
        let (n, c, h, w) = self.shape_of(x)?.as_nchw()?;
        let (oh, ow) = geom.output_hw(h, w);
        let filter = self.graph.add_tensor(
            Shape::new(vec![out_channels, c, kernel_h, kernel_w]),
            TensorRole::Parameter,
            self.name("conv", "filter"),
        );
        let output = self.graph.add_tensor(
            Shape::new(vec![n, out_channels, oh, ow]),
            TensorRole::Activation,
            self.name("conv", "out"),
        );
        self.graph
            .add_op(OpKind::Conv2D(geom), vec![x, filter], vec![output])?;
        self.layers.push(Layer::Conv {
            geom,
            input: x,
            filter,
            output,
        });
        Ok(output)
    }

    /// Reinterprets an activation under a new shape with equal element
    /// count (e.g. `[n, c*h*w]` to `[n, c, h, w]` in DCGAN's generator).
    ///
    /// # Errors
    ///
    /// Returns [`PimError::ShapeMismatch`] when element counts differ.
    pub fn reshape(&mut self, x: TensorId, dims: Vec<usize>) -> Result<TensorId> {
        let input_shape = self.shape_of(x)?;
        let shape = Shape::new(dims);
        if shape.numel() != input_shape.numel() {
            return Err(PimError::ShapeMismatch {
                context: "NetBuilder::reshape",
                expected: vec![input_shape.numel()],
                actual: vec![shape.numel()],
            });
        }
        let output =
            self.graph
                .add_tensor(shape, TensorRole::Activation, self.name("reshape", "out"));
        self.graph.add_op(OpKind::Reshape, vec![x], vec![output])?;
        self.layers.push(Layer::Flatten { input: x, output });
        Ok(output)
    }

    /// Appends `MaxPool`.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the input tensor.
    pub fn max_pool(
        &mut self,
        x: TensorId,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> Result<TensorId> {
        let geom = ConvGeometry::square(kernel, stride, pad);
        let (n, c, h, w) = self.shape_of(x)?.as_nchw()?;
        let (oh, ow) = geom.output_hw(h, w);
        let output = self.graph.add_tensor(
            Shape::new(vec![n, c, oh, ow]),
            TensorRole::Activation,
            self.name("pool", "out"),
        );
        let argmax = self.graph.add_tensor(
            Shape::new(vec![n * c * oh * ow]),
            TensorRole::Indices,
            self.name("pool", "argmax"),
        );
        self.graph
            .add_op(OpKind::MaxPool(geom), vec![x], vec![output, argmax])?;
        self.layers.push(Layer::MaxPool {
            geom,
            input: x,
            argmax,
            output,
        });
        Ok(output)
    }

    /// Appends `AvgPool`.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the input tensor.
    pub fn avg_pool(
        &mut self,
        x: TensorId,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> Result<TensorId> {
        let geom = ConvGeometry::square(kernel, stride, pad);
        let (n, c, h, w) = self.shape_of(x)?.as_nchw()?;
        let (oh, ow) = geom.output_hw(h, w);
        let output = self.graph.add_tensor(
            Shape::new(vec![n, c, oh, ow]),
            TensorRole::Activation,
            self.name("avgpool", "out"),
        );
        self.graph
            .add_op(OpKind::AvgPool(geom), vec![x], vec![output])?;
        self.layers.push(Layer::AvgPool {
            geom,
            input: x,
            output,
        });
        Ok(output)
    }

    /// Appends `FusedBatchNorm` (ResNet/Inception/DCGAN).
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the input tensor.
    pub fn batch_norm(&mut self, x: TensorId) -> Result<TensorId> {
        let shape = self.shape_of(x)?;
        let (_, c, _, _) = shape.as_nchw()?;
        let output = self
            .graph
            .add_tensor(shape, TensorRole::Activation, self.name("bn", "out"));
        let mean = self.graph.add_tensor(
            Shape::new(vec![c]),
            TensorRole::Activation,
            self.name("bn", "mean"),
        );
        let var = self.graph.add_tensor(
            Shape::new(vec![c]),
            TensorRole::Activation,
            self.name("bn", "var"),
        );
        self.graph
            .add_op(OpKind::BatchNorm, vec![x], vec![output, mean, var])?;
        self.layers.push(Layer::BatchNorm { input: x, output });
        Ok(output)
    }

    /// Appends `LRN` (AlexNet).
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the input tensor.
    pub fn lrn(&mut self, x: TensorId) -> Result<TensorId> {
        let shape = self.shape_of(x)?;
        let output = self
            .graph
            .add_tensor(shape, TensorRole::Activation, self.name("lrn", "out"));
        self.graph.add_op(OpKind::Lrn, vec![x], vec![output])?;
        self.layers.push(Layer::Lrn { input: x, output });
        Ok(output)
    }

    /// Appends `Dropout`; the keep mask is an input tensor refreshed per
    /// step.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the input tensor.
    pub fn dropout(&mut self, x: TensorId) -> Result<TensorId> {
        let shape = self.shape_of(x)?;
        let mask = self.graph.add_tensor(
            shape.clone(),
            TensorRole::Input,
            self.name("dropout", "mask"),
        );
        let output =
            self.graph
                .add_tensor(shape, TensorRole::Activation, self.name("dropout", "out"));
        self.graph
            .add_op(OpKind::Dropout, vec![x, mask], vec![output])?;
        self.layers.push(Layer::Dropout {
            input: x,
            mask,
            output,
        });
        Ok(output)
    }

    /// Flattens an NCHW activation into `[n, c*h*w]`.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the input tensor.
    pub fn flatten(&mut self, x: TensorId) -> Result<TensorId> {
        let (n, c, h, w) = self.shape_of(x)?.as_nchw()?;
        let output = self.graph.add_tensor(
            Shape::new(vec![n, c * h * w]),
            TensorRole::Activation,
            self.name("flatten", "out"),
        );
        self.graph.add_op(OpKind::Reshape, vec![x], vec![output])?;
        self.layers.push(Layer::Flatten { input: x, output });
        Ok(output)
    }

    /// Appends an elementwise residual `Add` of two same-shaped activations
    /// (ResNet shortcut).
    ///
    /// # Errors
    ///
    /// Returns [`PimError::ShapeMismatch`] when the operands differ in shape.
    pub fn add(&mut self, a: TensorId, b: TensorId) -> Result<TensorId> {
        let sa = self.shape_of(a)?;
        let sb = self.shape_of(b)?;
        if sa != sb {
            return Err(PimError::ShapeMismatch {
                context: "NetBuilder::add",
                expected: sa.dims().to_vec(),
                actual: sb.dims().to_vec(),
            });
        }
        let output =
            self.graph
                .add_tensor(sa, TensorRole::Activation, self.name("residual", "out"));
        self.graph
            .add_op(OpKind::Binary(BinaryOp::Add), vec![a, b], vec![output])?;
        self.layers.push(Layer::Add { a, b, output });
        Ok(output)
    }

    /// Appends a channel-axis `Concat` of NCHW activations with identical
    /// batch and spatial extents (Inception tower merge).
    ///
    /// # Errors
    ///
    /// Returns [`PimError::ShapeMismatch`] when parts disagree on batch or
    /// spatial dimensions.
    pub fn concat_channels(&mut self, parts: &[TensorId]) -> Result<TensorId> {
        if parts.is_empty() {
            return Err(PimError::invalid(
                "NetBuilder::concat_channels",
                "at least one part required",
            ));
        }
        let (n, mut c_total, h, w) = self.shape_of(parts[0])?.as_nchw()?;
        for &p in &parts[1..] {
            let (pn, pc, ph, pw) = self.shape_of(p)?.as_nchw()?;
            if (pn, ph, pw) != (n, h, w) {
                return Err(PimError::ShapeMismatch {
                    context: "NetBuilder::concat_channels",
                    expected: vec![n, h, w],
                    actual: vec![pn, ph, pw],
                });
            }
            c_total += pc;
        }
        let output = self.graph.add_tensor(
            Shape::new(vec![n, c_total, h, w]),
            TensorRole::Activation,
            self.name("concat", "out"),
        );
        self.graph
            .add_op(OpKind::Concat, parts.to_vec(), vec![output])?;
        self.layers.push(Layer::ConcatChannels {
            parts: parts.to_vec(),
            output,
        });
        Ok(output)
    }

    /// Access to the graph under construction (for model builders that need
    /// raw ops).
    pub fn graph_mut(&mut self) -> &mut Graph {
        &mut self.graph
    }

    /// Seals the network as a classifier: appends the fused
    /// softmax-cross-entropy loss on `logits`, then emits the full backward
    /// pass and one optimizer update per parameter.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the recorded layers.
    pub fn finish_classifier(mut self, logits: TensorId, opt: OptimizerKind) -> Result<Graph> {
        let (n, _) = self.shape_of(logits)?.as_matrix()?;
        let labels = self.graph.add_tensor(
            Shape::new(vec![n]),
            TensorRole::Labels,
            format!("{}/labels", self.prefix),
        );
        let loss = self.graph.add_tensor(
            Shape::scalar(),
            TensorRole::Scalar,
            format!("{}/loss", self.prefix),
        );
        let grad_logits = self.graph.add_tensor(
            self.shape_of(logits)?,
            TensorRole::Activation,
            format!("{}/grad_logits", self.prefix),
        );
        self.graph.add_op(
            OpKind::SoftmaxXent,
            vec![logits, labels],
            vec![loss, grad_logits],
        )?;
        self.emit_backward(logits, grad_logits, opt)?;
        self.graph.validate()?;
        Ok(self.graph)
    }

    /// True when a tensor should receive a gradient (activations only;
    /// inputs, labels, masks and parameters are handled elsewhere).
    fn wants_grad(&self, id: TensorId) -> Result<bool> {
        Ok(self.graph.tensor(id)?.role == TensorRole::Activation)
    }

    /// Sums a list of gradient contributions, emitting `Add` ops as needed.
    fn sum_grads(&mut self, like: TensorId, contributions: Vec<TensorId>) -> Result<TensorId> {
        let mut iter = contributions.into_iter();
        let mut acc = iter
            .next()
            .ok_or_else(|| PimError::internal("sum_grads called with no contributions"))?;
        for next in iter {
            let out = self.grad_tensor(like, "accum")?;
            self.graph
                .add_op(OpKind::Binary(BinaryOp::Add), vec![acc, next], vec![out])?;
            acc = out;
        }
        Ok(acc)
    }

    /// Emits backward + optimizer ops for the recorded tape, starting from
    /// `grad` as the gradient of `output`.
    fn emit_backward(
        &mut self,
        output: TensorId,
        grad: TensorId,
        opt: OptimizerKind,
    ) -> Result<()> {
        let mut grads: HashMap<TensorId, Vec<TensorId>> = HashMap::new();
        grads.insert(output, vec![grad]);
        let layers = std::mem::take(&mut self.layers);
        for layer in layers.iter().rev() {
            let Some(contributions) = grads.remove(&layer.output()) else {
                continue; // dead branch: nothing downstream used this output
            };
            let g = self.sum_grads(layer.output(), contributions)?;
            self.emit_layer_backward(layer, g, &mut grads, opt)?;
        }
        Ok(())
    }

    fn grad_tensor(&mut self, like: TensorId, label: &str) -> Result<TensorId> {
        let shape = self.shape_of(like)?;
        let name = format!("grad/{}/{}", label, self.graph.tensor(like)?.name);
        Ok(self.graph.add_tensor(shape, TensorRole::Activation, name))
    }

    fn emit_update(&mut self, param: TensorId, grad: TensorId, opt: OptimizerKind) -> Result<()> {
        let done = self.graph.add_tensor(
            Shape::scalar(),
            TensorRole::Scalar,
            format!("update/{}", self.graph.tensor(param)?.name),
        );
        self.graph
            .add_op(opt.op_kind(), vec![param, grad], vec![done])?;
        Ok(())
    }

    /// Records `g` as a gradient contribution for forward tensor `input`,
    /// if that tensor wants one.
    fn contribute(
        &self,
        grads: &mut HashMap<TensorId, Vec<TensorId>>,
        input: TensorId,
        g: TensorId,
    ) -> Result<()> {
        if self.wants_grad(input)? {
            grads.entry(input).or_default().push(g);
        }
        Ok(())
    }

    fn emit_layer_backward(
        &mut self,
        layer: &Layer,
        grad_out: TensorId,
        grads: &mut HashMap<TensorId, Vec<TensorId>>,
        opt: OptimizerKind,
    ) -> Result<()> {
        match *layer {
            Layer::Conv {
                geom,
                input,
                filter,
                ..
            }
            | Layer::ConvTranspose {
                geom,
                input,
                filter,
                ..
            } => {
                // For the transposed convolution the gradient w.r.t. the
                // filter has the same conv-like cost, and the gradient
                // w.r.t. the input is a forward-convolution shape; both are
                // modeled by the standard backprop kinds.
                let grad_filter = self.grad_tensor(filter, "filter")?;
                self.graph.add_op(
                    OpKind::Conv2DBackpropFilter(geom),
                    vec![input, grad_out],
                    vec![grad_filter],
                )?;
                self.emit_update(filter, grad_filter, opt)?;
                if self.wants_grad(input)? {
                    let grad_input = self.grad_tensor(input, "input")?;
                    self.graph.add_op(
                        OpKind::Conv2DBackpropInput(geom),
                        vec![filter, grad_out],
                        vec![grad_input],
                    )?;
                    self.contribute(grads, input, grad_input)?;
                }
            }
            Layer::Dense { input, weight, .. } => {
                let grad_weight = self.grad_tensor(weight, "weight")?;
                self.graph.add_op(
                    OpKind::MatMul(Transpose { a: true, b: false }),
                    vec![input, grad_out],
                    vec![grad_weight],
                )?;
                self.emit_update(weight, grad_weight, opt)?;
                if self.wants_grad(input)? {
                    let grad_input = self.grad_tensor(input, "input")?;
                    self.graph.add_op(
                        OpKind::MatMul(Transpose { a: false, b: true }),
                        vec![grad_out, weight],
                        vec![grad_input],
                    )?;
                    self.contribute(grads, input, grad_input)?;
                }
            }
            Layer::Bias { input, bias, .. } => {
                let grad_bias = self.grad_tensor(bias, "bias")?;
                self.graph
                    .add_op(OpKind::BiasAddGrad, vec![grad_out], vec![grad_bias])?;
                self.emit_update(bias, grad_bias, opt)?;
                // The input gradient of BiasAdd is the output gradient
                // unchanged — no op is emitted (TensorFlow does the same).
                self.contribute(grads, input, grad_out)?;
            }
            Layer::Activation {
                kind,
                input,
                output,
            } => {
                if self.wants_grad(input)? {
                    let grad_input = self.grad_tensor(input, "act")?;
                    self.graph.add_op(
                        OpKind::ActivationGrad(kind),
                        vec![grad_out, input, output],
                        vec![grad_input],
                    )?;
                    self.contribute(grads, input, grad_input)?;
                }
            }
            Layer::MaxPool {
                geom,
                input,
                argmax,
                ..
            } => {
                if self.wants_grad(input)? {
                    let grad_input = self.grad_tensor(input, "pool")?;
                    self.graph.add_op(
                        OpKind::MaxPoolGrad(geom),
                        vec![grad_out, argmax],
                        vec![grad_input],
                    )?;
                    self.contribute(grads, input, grad_input)?;
                }
            }
            Layer::AvgPool { geom, input, .. } => {
                if self.wants_grad(input)? {
                    let grad_input = self.grad_tensor(input, "avgpool")?;
                    self.graph.add_op(
                        OpKind::AvgPoolGrad(geom),
                        vec![grad_out],
                        vec![grad_input],
                    )?;
                    self.contribute(grads, input, grad_input)?;
                }
            }
            Layer::BatchNorm { input, .. } => {
                if self.wants_grad(input)? {
                    let grad_input = self.grad_tensor(input, "bn")?;
                    self.graph.add_op(
                        OpKind::BatchNormGrad,
                        vec![grad_out, input],
                        vec![grad_input],
                    )?;
                    self.contribute(grads, input, grad_input)?;
                }
            }
            Layer::Lrn { input, .. } => {
                if self.wants_grad(input)? {
                    let grad_input = self.grad_tensor(input, "lrn")?;
                    self.graph
                        .add_op(OpKind::LrnGrad, vec![grad_out, input], vec![grad_input])?;
                    self.contribute(grads, input, grad_input)?;
                }
            }
            Layer::Dropout { input, mask, .. } => {
                if self.wants_grad(input)? {
                    let grad_input = self.grad_tensor(input, "dropout")?;
                    self.graph.add_op(
                        OpKind::Binary(BinaryOp::Mul),
                        vec![grad_out, mask],
                        vec![grad_input],
                    )?;
                    self.contribute(grads, input, grad_input)?;
                }
            }
            Layer::Flatten { input, .. } => {
                if self.wants_grad(input)? {
                    let grad_input = self.grad_tensor(input, "flatten")?;
                    self.graph
                        .add_op(OpKind::Reshape, vec![grad_out], vec![grad_input])?;
                    self.contribute(grads, input, grad_input)?;
                }
            }
            Layer::Add { a, b, .. } => {
                // The gradient of an add flows unchanged into both branches.
                self.contribute(grads, a, grad_out)?;
                self.contribute(grads, b, grad_out)?;
            }
            Layer::ConcatChannels { ref parts, .. } => {
                let mut offset = 0usize;
                for &part in parts {
                    let len = self.shape_of(part)?.numel();
                    if self.wants_grad(part)? {
                        let grad_part = self.grad_tensor(part, "concat")?;
                        self.graph.add_op(
                            OpKind::Slice { start: offset, len },
                            vec![grad_out],
                            vec![grad_part],
                        )?;
                        self.contribute(grads, part, grad_part)?;
                    }
                    offset += len;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cnn() -> Graph {
        let mut net = NetBuilder::new("t");
        let x = net.input(2, 1, 8, 8);
        let x = net.conv2d(x, 4, 3, 1, 1).unwrap();
        let x = net.bias(x).unwrap();
        let x = net.relu(x).unwrap();
        let x = net.max_pool(x, 2, 2, 0).unwrap();
        let x = net.flatten(x).unwrap();
        let x = net.dense(x, 10).unwrap();
        net.finish_classifier(x, OptimizerKind::Adam).unwrap()
    }

    #[test]
    fn classifier_graph_validates() {
        let g = tiny_cnn();
        g.validate().unwrap();
    }

    #[test]
    fn backward_ops_are_present() {
        let g = tiny_cnn();
        let counts = g.invocation_counts();
        assert_eq!(counts["Conv2D"], 1);
        assert_eq!(counts["Conv2DBackpropFilter"], 1);
        // conv is the first layer: no input gradient (the paper's VGG shows
        // 16 convs but only 15 backprop-input ops).
        assert!(!counts.contains_key("Conv2DBackpropInput"));
        assert_eq!(counts["BiasAddGrad"], 1);
        assert_eq!(counts["ReluGrad"], 1);
        assert_eq!(counts["MaxPoolGrad"], 1);
        // fc weight + conv filter + bias = 3 Adam updates.
        assert_eq!(counts["ApplyAdam"], 3);
        // forward fc + grad-weight + grad-input MatMuls.
        assert_eq!(counts["MatMul"], 3);
    }

    #[test]
    fn two_conv_layers_produce_one_backprop_input() {
        let mut net = NetBuilder::new("t2");
        let x = net.input(1, 1, 8, 8);
        let x = net.conv2d(x, 2, 3, 1, 1).unwrap();
        let x = net.conv2d(x, 2, 3, 1, 1).unwrap();
        let x = net.flatten(x).unwrap();
        let x = net.dense(x, 4).unwrap();
        let g = net.finish_classifier(x, OptimizerKind::Sgd).unwrap();
        let counts = g.invocation_counts();
        assert_eq!(counts["Conv2D"], 2);
        assert_eq!(counts["Conv2DBackpropFilter"], 2);
        assert_eq!(counts["Conv2DBackpropInput"], 1);
        assert_eq!(counts["ApplyGradientDescent"], 3);
    }

    #[test]
    fn residual_branch_accumulates_gradients() {
        let mut net = NetBuilder::new("res");
        let x = net.input(1, 4, 8, 8);
        let trunk = net.conv2d(x, 4, 3, 1, 1).unwrap();
        let branch = net.conv2d(trunk, 4, 3, 1, 1).unwrap();
        let merged = net.add(trunk, branch).unwrap();
        let flat = net.flatten(merged).unwrap();
        let logits = net.dense(flat, 2).unwrap();
        let g = net.finish_classifier(logits, OptimizerKind::Sgd).unwrap();
        g.validate().unwrap();
        let counts = g.invocation_counts();
        // trunk receives gradients from both the shortcut and the branch:
        // one extra Add to accumulate them (plus the forward residual Add).
        assert_eq!(counts["Add"], 2);
        assert_eq!(counts["Conv2DBackpropFilter"], 2);
        // Only the second conv produces an input gradient (the first conv's
        // input is the minibatch).
        assert_eq!(counts["Conv2DBackpropInput"], 1);
    }

    #[test]
    fn concat_backward_emits_slices() {
        let mut net = NetBuilder::new("inc");
        let x = net.input(1, 4, 8, 8);
        let a = net.conv2d(x, 2, 1, 1, 0).unwrap();
        let b = net.conv2d(x, 3, 3, 1, 1).unwrap();
        let merged = net.concat_channels(&[a, b]).unwrap();
        let flat = net.flatten(merged).unwrap();
        let logits = net.dense(flat, 2).unwrap();
        let g = net.finish_classifier(logits, OptimizerKind::Adam).unwrap();
        g.validate().unwrap();
        let counts = g.invocation_counts();
        assert_eq!(counts["ConcatV2"], 1);
        assert_eq!(counts["Slice"], 2);
    }

    #[test]
    fn parameter_bytes_counts_only_parameters() {
        let g = tiny_cnn();
        // conv filter 4*1*3*3 + bias 4 + fc 64*10 = 36 + 4 + 640 floats.
        assert_eq!(g.parameter_bytes(), (36 + 4 + 640) * 4);
    }

    #[test]
    fn every_op_has_a_cost() {
        let g = tiny_cnn();
        let costs = crate::cost::graph_costs(&g).unwrap();
        assert_eq!(costs.len(), g.op_count());
        assert!(costs.iter().all(pim_tensor::CostProfile::is_well_formed));
    }

    #[test]
    fn concat_rejects_spatial_mismatch() {
        let mut net = NetBuilder::new("bad");
        let x = net.input(1, 2, 8, 8);
        let a = net.conv2d(x, 2, 3, 1, 1).unwrap(); // 8x8
        let b = net.max_pool(a, 2, 2, 0).unwrap(); // 4x4
        assert!(net.concat_channels(&[a, b]).is_err());
    }
}
