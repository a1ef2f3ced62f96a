//! Cost dispatch: from a graph node to its analytic [`CostProfile`].

use crate::graph::Graph;
use crate::node::{OpKind, OpNode};
use pim_common::{PimError, Result};
use pim_tensor::cost::CostProfile;
use pim_tensor::ops::{
    activation, bias, conv, elementwise, embedding, matmul, norm, optimizer, pool, softmax,
};
use pim_tensor::{ConvGeometry, Shape};

fn input_shape<'g>(graph: &'g Graph, op: &OpNode, idx: usize) -> Result<&'g Shape> {
    let tid = *op.inputs.get(idx).ok_or_else(|| {
        PimError::invalid(
            "op_cost",
            format!("{} is missing input {idx}", op.kind.tf_name()),
        )
    })?;
    Ok(&graph.tensor(tid)?.shape)
}

fn output_shape<'g>(graph: &'g Graph, op: &OpNode, idx: usize) -> Result<&'g Shape> {
    let tid = *op.outputs.get(idx).ok_or_else(|| {
        PimError::invalid(
            "op_cost",
            format!("{} is missing output {idx}", op.kind.tf_name()),
        )
    })?;
    Ok(&graph.tensor(tid)?.shape)
}

/// Filter shape implied by a backprop-filter node: output channels from the
/// gradient, input channels from the input, spatial extent from the geometry.
fn implied_filter_shape(input: &Shape, grad_output: &Shape, geom: ConvGeometry) -> Result<Shape> {
    let (_, c, _, _) = input.as_nchw()?;
    let (_, f, _, _) = grad_output.as_nchw()?;
    Ok(Shape::new(vec![f, c, geom.kernel_h, geom.kernel_w]))
}

/// Input shape implied by a backprop-input node.
fn implied_input_shape(filter: &Shape, grad_output: &Shape, geom: ConvGeometry) -> Result<Shape> {
    let (_, c, _, _) = filter.as_nchw()?;
    let (n, _, oh, ow) = grad_output.as_nchw()?;
    let h = (oh - 1) * geom.stride_h + geom.kernel_h - 2 * geom.pad_h;
    let w = (ow - 1) * geom.stride_w + geom.kernel_w - 2 * geom.pad_w;
    Ok(Shape::new(vec![n, c, h, w]))
}

/// Computes the analytic cost profile of one graph node.
///
/// # Examples
///
/// ```
/// use pim_graph::cost::op_cost;
/// use pim_graph::graph::Graph;
/// use pim_graph::node::{OpKind, TensorRole};
/// use pim_tensor::ops::matmul::Transpose;
/// use pim_tensor::Shape;
///
/// # fn main() -> pim_common::Result<()> {
/// let mut g = Graph::new();
/// let a = g.add_tensor(Shape::new(vec![4, 8]), TensorRole::Input, "a");
/// let b = g.add_tensor(Shape::new(vec![8, 2]), TensorRole::Parameter, "b");
/// let c = g.add_tensor(Shape::new(vec![4, 2]), TensorRole::Activation, "c");
/// let id = g.add_op(OpKind::MatMul(Transpose::NONE), vec![a, b], vec![c])?;
/// let cost = op_cost(&g, g.op(id)?)?;
/// assert_eq!(cost.muls, (4 * 8 * 2) as f64);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns a shape or argument error when the node is malformed.
pub fn op_cost(graph: &Graph, op: &OpNode) -> Result<CostProfile> {
    match op.kind {
        OpKind::Conv2D(geom) => {
            conv::conv2d_cost(input_shape(graph, op, 0)?, input_shape(graph, op, 1)?, geom)
        }
        OpKind::Conv2DBackpropFilter(geom) => {
            let input = input_shape(graph, op, 0)?;
            let grad_out = input_shape(graph, op, 1)?;
            let filter = implied_filter_shape(input, grad_out, geom)?;
            conv::conv2d_backprop_filter_cost(input, &filter, geom)
        }
        OpKind::Conv2DBackpropInput(geom) => {
            let filter = input_shape(graph, op, 0)?;
            let grad_out = input_shape(graph, op, 1)?;
            let input = implied_input_shape(filter, grad_out, geom)?;
            conv::conv2d_backprop_input_cost(&input, filter, geom)
        }
        OpKind::Conv2DTranspose(geom) => conv::conv2d_transpose_cost(
            input_shape(graph, op, 0)?,
            input_shape(graph, op, 1)?,
            geom,
        ),
        OpKind::MatMul(t) => {
            matmul::matmul_cost(input_shape(graph, op, 0)?, input_shape(graph, op, 1)?, t)
        }
        OpKind::BiasAdd => bias::bias_add_cost(input_shape(graph, op, 0)?),
        OpKind::BiasAddGrad => bias::bias_add_grad_cost(input_shape(graph, op, 0)?),
        OpKind::Activation(a) => Ok(activation::activation_cost(input_shape(graph, op, 0)?, a)),
        OpKind::ActivationGrad(a) => Ok(activation::activation_grad_cost(
            input_shape(graph, op, 0)?,
            a,
        )),
        OpKind::MaxPool(geom) => pool::max_pool_cost(input_shape(graph, op, 0)?, geom),
        OpKind::MaxPoolGrad(geom) => pool::max_pool_grad_cost(output_shape(graph, op, 0)?, geom),
        OpKind::AvgPool(geom) => pool::avg_pool_cost(input_shape(graph, op, 0)?, geom),
        OpKind::AvgPoolGrad(geom) => {
            // Same scatter shape as the max-pool gradient, but the divide by
            // the window size keeps a multiply/add core.
            let mut c = pool::max_pool_grad_cost(output_shape(graph, op, 0)?, geom)?;
            c.muls += c.adds;
            Ok(c)
        }
        OpKind::SoftmaxXent => softmax::softmax_xent_cost(input_shape(graph, op, 0)?),
        OpKind::ApplyAdam => Ok(optimizer::apply_adam_cost(input_shape(graph, op, 0)?)),
        OpKind::ApplySgd => Ok(optimizer::apply_sgd_cost(input_shape(graph, op, 0)?)),
        OpKind::Binary(b) => Ok(elementwise::binary_cost(input_shape(graph, op, 0)?, b)),
        OpKind::Slice { len, .. } => Ok(elementwise::slice_cost(len)),
        OpKind::Concat => {
            let mut lens = Vec::with_capacity(op.inputs.len());
            for i in 0..op.inputs.len() {
                lens.push(input_shape(graph, op, i)?.numel());
            }
            Ok(elementwise::concat_cost(&lens))
        }
        OpKind::Dropout => Ok(elementwise::dropout_cost(input_shape(graph, op, 0)?)),
        OpKind::BatchNorm => norm::batch_norm_cost(input_shape(graph, op, 0)?),
        OpKind::BatchNormGrad => norm::batch_norm_grad_cost(input_shape(graph, op, 0)?),
        OpKind::Lrn => norm::lrn_cost(input_shape(graph, op, 0)?),
        OpKind::LrnGrad => {
            // The LRN gradient re-traverses the squared window with extra
            // chain-rule multiplies: model as 1.5x the forward cost.
            let mut c = norm::lrn_cost(input_shape(graph, op, 0)?)?;
            c.muls *= 1.5;
            c.adds *= 1.5;
            c.other_flops *= 1.5;
            Ok(c)
        }
        OpKind::EmbeddingLookup => {
            let table = input_shape(graph, op, 0)?;
            let indices = input_shape(graph, op, 1)?;
            let (_, dim) = table.as_matrix()?;
            Ok(embedding::embedding_lookup_cost(dim, indices.numel()))
        }
        OpKind::EmbeddingGrad => {
            let grad = input_shape(graph, op, 0)?;
            let (batch, dim) = grad.as_matrix()?;
            Ok(embedding::embedding_grad_cost(dim, batch))
        }
        OpKind::Reshape => Ok(CostProfile::empty()),
    }
}

/// Computes the cost of every op in the graph, in op-id order.
///
/// # Errors
///
/// Returns the first per-op failure.
pub fn graph_costs(graph: &Graph) -> Result<Vec<CostProfile>> {
    // Sized up front: collecting through `Result` cannot see the length,
    // so it would grow the vector by doubling.
    let mut costs = Vec::with_capacity(graph.op_count());
    for op in graph.ops() {
        costs.push(op_cost(graph, op)?);
    }
    Ok(costs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::TensorRole;
    use pim_tensor::cost::OffloadClass;
    use pim_tensor::ops::matmul::Transpose;

    #[test]
    fn backprop_filter_cost_from_implied_shapes() {
        let geom = ConvGeometry::square(3, 1, 1);
        let mut g = Graph::new();
        let input = g.add_tensor(Shape::new(vec![8, 16, 28, 28]), TensorRole::Activation, "x");
        let grad_out = g.add_tensor(
            Shape::new(vec![8, 32, 28, 28]),
            TensorRole::Activation,
            "dy",
        );
        let grad_filter =
            g.add_tensor(Shape::new(vec![32, 16, 3, 3]), TensorRole::Activation, "dw");
        let id = g
            .add_op(
                OpKind::Conv2DBackpropFilter(geom),
                vec![input, grad_out],
                vec![grad_filter],
            )
            .unwrap();
        let cost = op_cost(&g, g.op(id).unwrap()).unwrap();
        assert!(matches!(cost.class, OffloadClass::PartiallyMulAdd { .. }));
        // Same MAC volume as the equivalent forward conv.
        let fwd = conv::conv2d_cost(
            &Shape::new(vec![8, 16, 28, 28]),
            &Shape::new(vec![32, 16, 3, 3]),
            geom,
        )
        .unwrap();
        assert_eq!(cost.muls, fwd.muls);
    }

    #[test]
    fn backprop_input_reconstructs_shape() {
        let geom = ConvGeometry::square(2, 2, 0);
        // input 8x8 stride 2 kernel 2 -> output 4x4; reconstruct 8x8.
        let filter = Shape::new(vec![4, 3, 2, 2]);
        let grad = Shape::new(vec![1, 4, 4, 4]);
        let implied = implied_input_shape(&filter, &grad, geom).unwrap();
        assert_eq!(implied.dims(), &[1, 3, 8, 8]);
    }

    #[test]
    fn reshape_is_free() {
        let mut g = Graph::new();
        let a = g.add_tensor(Shape::new(vec![2, 8]), TensorRole::Activation, "a");
        let b = g.add_tensor(Shape::new(vec![16]), TensorRole::Activation, "b");
        let id = g.add_op(OpKind::Reshape, vec![a], vec![b]).unwrap();
        let cost = op_cost(&g, g.op(id).unwrap()).unwrap();
        assert_eq!(cost.total_flops(), 0.0);
        assert_eq!(cost.memory_accesses(), 0);
    }

    #[test]
    fn missing_input_is_reported() {
        let mut g = Graph::new();
        let a = g.add_tensor(Shape::new(vec![2, 2]), TensorRole::Activation, "a");
        let id = g
            .add_op(OpKind::MatMul(Transpose::default()), vec![a], vec![])
            .unwrap();
        assert!(op_cost(&g, g.op(id).unwrap()).is_err());
    }

    #[test]
    fn graph_costs_covers_every_op() {
        let mut g = Graph::new();
        let a = g.add_tensor(Shape::new(vec![4, 4]), TensorRole::Input, "a");
        let b = g.add_tensor(Shape::new(vec![4, 4]), TensorRole::Activation, "b");
        let c = g.add_tensor(Shape::new(vec![4, 4]), TensorRole::Activation, "c");
        g.add_op(
            OpKind::Activation(pim_tensor::ops::activation::Activation::Relu),
            vec![a],
            vec![b],
        )
        .unwrap();
        g.add_op(OpKind::MatMul(Transpose::default()), vec![b, b], vec![c])
            .unwrap();
        let costs = graph_costs(&g).unwrap();
        assert_eq!(costs.len(), 2);
        assert!(costs.iter().all(pim_tensor::CostProfile::is_well_formed));
    }
}
