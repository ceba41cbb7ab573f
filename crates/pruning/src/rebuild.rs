//! Sub-model extraction and R2SP recovery.

use crate::plan::{LayerPlan, PrunePlan};
use fedmp_nn::{BatchNorm2d, Conv2d, LayerNode, Linear, ResidualBlock, Sequential, StateEntry};
use fedmp_tensor::Tensor;

// ---------------------------------------------------------------------
// Extraction: global model + plan → physically smaller sub-model
// ---------------------------------------------------------------------

/// Materialises the sub-model `x̂ₙ` described by `plan`: every kept
/// filter/neuron's weights are copied from the global model into a
/// smaller architecture (paper §III-B).
pub fn extract_sequential(model: &Sequential, plan: &PrunePlan) -> Sequential {
    assert_eq!(model.layers.len(), plan.layers.len(), "extract: plan/model layer count mismatch");
    let layers = model
        .layers
        .iter()
        .zip(plan.layers.iter())
        .map(|(node, lp)| extract_node(node, lp))
        .collect();
    Sequential::new(layers)
}

/// Extracts one node; recurses into residual blocks.
fn extract_node(node: &LayerNode, plan: &LayerPlan) -> LayerNode {
    match (node, plan) {
        (LayerNode::Conv2d(conv), LayerPlan::Conv { kept_out, kept_in }) => {
            let weight = gather_conv_weight(&conv.weight.value, kept_out, kept_in);
            let bias = gather_1d(&conv.bias.value, kept_out);
            LayerNode::Conv2d(Conv2d::from_parts(weight, bias, conv.spec))
        }
        (LayerNode::Linear(lin), LayerPlan::Linear { kept_out, kept_in }) => {
            let weight = gather_2d(&lin.weight.value, kept_out, kept_in);
            let bias = gather_1d(&lin.bias.value, kept_out);
            LayerNode::Linear(Linear::from_parts(weight, bias))
        }
        (LayerNode::BatchNorm2d(bn), LayerPlan::BatchNorm { kept }) => {
            let mut sub = BatchNorm2d::from_parts(
                gather_1d(&bn.gamma.value, kept),
                gather_1d(&bn.beta.value, kept),
                gather_1d(&bn.running_mean, kept),
                gather_1d(&bn.running_var, kept),
            );
            sub.momentum = bn.momentum;
            sub.eps = bn.eps;
            LayerNode::BatchNorm2d(sub)
        }
        (LayerNode::Residual(block), LayerPlan::Residual { body, shortcut }) => {
            assert_eq!(block.body.len(), body.len(), "extract: residual body plan mismatch");
            assert_eq!(
                block.shortcut.len(),
                shortcut.len(),
                "extract: residual shortcut plan mismatch"
            );
            let new_body =
                block.body.iter().zip(body.iter()).map(|(n, p)| extract_node(n, p)).collect();
            let new_short = block
                .shortcut
                .iter()
                .zip(shortcut.iter())
                .map(|(n, p)| extract_node(n, p))
                .collect();
            LayerNode::Residual(ResidualBlock::new(new_body, new_short))
        }
        (
            n @ (LayerNode::ReLU(_)
            | LayerNode::Dropout(_)
            | LayerNode::MaxPool2d(_)
            | LayerNode::AvgPool2d(_)
            | LayerNode::Flatten(_)),
            LayerPlan::Passthrough,
        ) => n.clone(),
        (n, p) => panic!("extract: plan kind mismatch at layer {n:?} vs {p:?}"),
    }
}

// ---------------------------------------------------------------------
// Recovery: trained sub-model → full-model coordinates (R2SP §III-C)
// ---------------------------------------------------------------------

/// Scatters a trained sub-model back into full-model shape: kept
/// positions carry the sub-model's values, pruned positions are zero.
/// The result is "the recovered model" of R2SP; adding the residual
/// model (`global − sparse`) restores the pruned parameters.
pub fn recover_state(sub: &Sequential, plan: &PrunePlan, global: &Sequential) -> Vec<StateEntry> {
    assert_eq!(global.layers.len(), plan.layers.len(), "recover: plan/global layer count mismatch");
    assert_eq!(sub.layers.len(), plan.layers.len(), "recover: plan/sub layer count mismatch");
    let mut out = Vec::new();
    for (i, ((g, s), lp)) in
        global.layers.iter().zip(sub.layers.iter()).zip(plan.layers.iter()).enumerate()
    {
        scatter_node(g, s, lp, &i.to_string(), &mut out);
    }
    out
}

/// The sparse model `xₙ` of R2SP: the full-shape model with every pruned
/// position set to zero. Computed as `recover(extract(global))`, which
/// makes the R2SP identity hold by construction.
pub fn sparse_state(global: &Sequential, plan: &PrunePlan) -> Vec<StateEntry> {
    let sub = extract_sequential(global, plan);
    recover_state(&sub, plan, global)
}

fn scatter_node(
    g: &LayerNode,
    s: &LayerNode,
    plan: &LayerPlan,
    prefix: &str,
    out: &mut Vec<StateEntry>,
) {
    match (g, s, plan) {
        (LayerNode::Conv2d(gc), LayerNode::Conv2d(sc), LayerPlan::Conv { kept_out, kept_in }) => {
            out.push(StateEntry::trainable(
                format!("{prefix}.weight"),
                scatter_conv_weight(&sc.weight.value, gc.weight.value.dims(), kept_out, kept_in),
            ));
            out.push(StateEntry::trainable(
                format!("{prefix}.bias"),
                scatter_1d(&sc.bias.value, gc.bias.value.numel(), kept_out),
            ));
        }
        (LayerNode::Linear(gl), LayerNode::Linear(sl), LayerPlan::Linear { kept_out, kept_in }) => {
            out.push(StateEntry::trainable(
                format!("{prefix}.weight"),
                scatter_2d(&sl.weight.value, gl.weight.value.dims(), kept_out, kept_in),
            ));
            out.push(StateEntry::trainable(
                format!("{prefix}.bias"),
                scatter_1d(&sl.bias.value, gl.bias.value.numel(), kept_out),
            ));
        }
        (LayerNode::BatchNorm2d(gb), LayerNode::BatchNorm2d(sb), LayerPlan::BatchNorm { kept }) => {
            let c = gb.channels();
            out.push(StateEntry::trainable(
                format!("{prefix}.gamma"),
                scatter_1d(&sb.gamma.value, c, kept),
            ));
            out.push(StateEntry::trainable(
                format!("{prefix}.beta"),
                scatter_1d(&sb.beta.value, c, kept),
            ));
            out.push(StateEntry::tracked(
                format!("{prefix}.running_mean"),
                scatter_1d(&sb.running_mean, c, kept),
            ));
            out.push(StateEntry::tracked(
                format!("{prefix}.running_var"),
                scatter_1d(&sb.running_var, c, kept),
            ));
        }
        (
            LayerNode::Residual(gr),
            LayerNode::Residual(sr),
            LayerPlan::Residual { body, shortcut },
        ) => {
            for (i, ((gn, sn), p)) in
                gr.body.iter().zip(sr.body.iter()).zip(body.iter()).enumerate()
            {
                scatter_node(gn, sn, p, &format!("{prefix}.body.{i}"), out);
            }
            for (i, ((gn, sn), p)) in
                gr.shortcut.iter().zip(sr.shortcut.iter()).zip(shortcut.iter()).enumerate()
            {
                scatter_node(gn, sn, p, &format!("{prefix}.shortcut.{i}"), out);
            }
        }
        (
            LayerNode::ReLU(_)
            | LayerNode::Dropout(_)
            | LayerNode::MaxPool2d(_)
            | LayerNode::AvgPool2d(_)
            | LayerNode::Flatten(_),
            _,
            LayerPlan::Passthrough,
        ) => {}
        (g, _, p) => panic!("recover: plan kind mismatch at layer {g:?} vs {p:?}"),
    }
}

// ---------------------------------------------------------------------
// Gather / scatter kernels
// ---------------------------------------------------------------------

/// Selects rows and columns of a `[rows, cols]` tensor.
pub(crate) fn gather_2d(t: &Tensor, rows: &[usize], cols: &[usize]) -> Tensor {
    let mut out = Tensor::zeros(&[rows.len(), cols.len()]);
    for (i, &r) in rows.iter().enumerate() {
        let src = t.row(r);
        let dst = out.row_mut(i);
        for (j, &c) in cols.iter().enumerate() {
            dst[j] = src[c];
        }
    }
    out
}

/// Selects entries of a rank-1 tensor.
pub(crate) fn gather_1d(t: &Tensor, idx: &[usize]) -> Tensor {
    let mut out = Tensor::zeros(&[idx.len()]);
    for (i, &k) in idx.iter().enumerate() {
        out.data_mut()[i] = t.data()[k];
    }
    out
}

/// Selects output filters and input channels of a `[oc, ic, kh, kw]`
/// conv weight.
fn gather_conv_weight(t: &Tensor, kept_out: &[usize], kept_in: &[usize]) -> Tensor {
    let d = t.dims();
    let (ic, kh, kw) = (d[1], d[2], d[3]);
    let k2 = kh * kw;
    let mut out = Tensor::zeros(&[kept_out.len(), kept_in.len(), kh, kw]);
    for (i, &f) in kept_out.iter().enumerate() {
        for (j, &c) in kept_in.iter().enumerate() {
            let src = &t.data()[(f * ic + c) * k2..(f * ic + c + 1) * k2];
            let base = (i * kept_in.len() + j) * k2;
            out.data_mut()[base..base + k2].copy_from_slice(src);
        }
    }
    out
}

/// Adjoint of [`gather_2d`]: places a small matrix into a zeroed
/// full-size matrix at the kept rows/columns.
fn scatter_2d(small: &Tensor, full_dims: &[usize], rows: &[usize], cols: &[usize]) -> Tensor {
    assert_eq!(small.dims(), &[rows.len(), cols.len()], "scatter_2d: sub shape mismatch");
    let mut out = Tensor::zeros(full_dims);
    let full_cols = full_dims[1];
    for (i, &r) in rows.iter().enumerate() {
        let src = small.row(i);
        for (j, &c) in cols.iter().enumerate() {
            out.data_mut()[r * full_cols + c] = src[j];
        }
    }
    out
}

/// Adjoint of [`gather_1d`].
fn scatter_1d(small: &Tensor, full_len: usize, idx: &[usize]) -> Tensor {
    assert_eq!(small.numel(), idx.len(), "scatter_1d: sub length mismatch");
    let mut out = Tensor::zeros(&[full_len]);
    for (i, &k) in idx.iter().enumerate() {
        out.data_mut()[k] = small.data()[i];
    }
    out
}

/// Adjoint of [`gather_conv_weight`].
fn scatter_conv_weight(
    small: &Tensor,
    full_dims: &[usize],
    kept_out: &[usize],
    kept_in: &[usize],
) -> Tensor {
    let (ic, kh, kw) = (full_dims[1], full_dims[2], full_dims[3]);
    let k2 = kh * kw;
    assert_eq!(
        small.dims(),
        &[kept_out.len(), kept_in.len(), kh, kw],
        "scatter_conv: sub shape mismatch"
    );
    let mut out = Tensor::zeros(full_dims);
    for (i, &f) in kept_out.iter().enumerate() {
        for (j, &c) in kept_in.iter().enumerate() {
            let src = &small.data()[(i * kept_in.len() + j) * k2..(i * kept_in.len() + j + 1) * k2];
            let base = (f * ic + c) * k2;
            out.data_mut()[base..base + k2].copy_from_slice(src);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::plan_sequential;
    use fedmp_nn::{state_add, state_sub, zoo};
    use fedmp_tensor::{cross_entropy_loss, seeded_rng};

    #[test]
    fn extract_shrinks_parameter_count() {
        let mut rng = seeded_rng(210);
        let mut m = zoo::cnn_mnist(0.5, &mut rng);
        let plan = plan_sequential(&m, (1, 28, 28), 0.5);
        let mut sub = extract_sequential(&m, &plan);
        let full = m.num_params();
        let small = sub.num_params();
        assert!(small < full / 2, "sub {small} vs full {full}");
    }

    #[test]
    fn extracted_submodel_runs_forward_and_backward() {
        let mut rng = seeded_rng(211);
        for (model, chw, input) in [
            (zoo::cnn_mnist(0.25, &mut rng), (1usize, 28usize, 28usize), [1usize, 1, 28, 28]),
            (zoo::alexnet_cifar(0.1, &mut rng), (3, 32, 32), [1, 3, 32, 32]),
            (zoo::vgg_emnist(0.1, &mut rng), (1, 28, 28), [1, 1, 28, 28]),
            (zoo::resnet_tiny(0.1, &mut rng), (3, 64, 64), [1, 3, 64, 64]),
        ] {
            for ratio in [0.0, 0.3, 0.7] {
                let plan = plan_sequential(&model, chw, ratio);
                let mut sub = extract_sequential(&model, &plan);
                let x = fedmp_tensor::Tensor::randn(&input, &mut rng);
                let y = sub.forward(&x, true);
                assert!(y.all_finite(), "ratio {ratio}");
                let out = cross_entropy_loss(&y, &[0]);
                sub.backward(&out.grad_logits);
            }
        }
    }

    #[test]
    fn r2sp_identity_holds_exactly() {
        // recover(extract(g)) + (g − sparse(g)) == g, elementwise.
        let mut rng = seeded_rng(212);
        for ratio in [0.0, 0.25, 0.5, 0.8] {
            let m = zoo::cnn_mnist(0.25, &mut rng);
            let plan = plan_sequential(&m, (1, 28, 28), ratio);
            let global_state = m.state();
            let sub = extract_sequential(&m, &plan);
            let recovered = recover_state(&sub, &plan, &m);
            let sparse = sparse_state(&m, &plan);
            let residual = state_sub(&global_state, &sparse);
            let rebuilt = state_add(&recovered, &residual);
            for (a, b) in rebuilt.iter().zip(global_state.iter()) {
                assert_eq!(a.name, b.name);
                assert_eq!(a.tensor, b.tensor, "mismatch in {} at ratio {ratio}", a.name);
            }
        }
    }

    #[test]
    fn r2sp_identity_holds_for_resnet() {
        let mut rng = seeded_rng(213);
        let m = zoo::resnet_tiny(0.2, &mut rng);
        let plan = plan_sequential(&m, (3, 64, 64), 0.6);
        let global_state = m.state();
        let sub = extract_sequential(&m, &plan);
        let recovered = recover_state(&sub, &plan, &m);
        let sparse = sparse_state(&m, &plan);
        let rebuilt = state_add(&recovered, &state_sub(&global_state, &sparse));
        for (a, b) in rebuilt.iter().zip(global_state.iter()) {
            assert_eq!(a.tensor, b.tensor, "mismatch in {}", a.name);
        }
    }

    #[test]
    fn recovered_state_is_zero_outside_kept_positions() {
        let mut rng = seeded_rng(214);
        let m = zoo::cnn_mnist(0.25, &mut rng);
        let plan = plan_sequential(&m, (1, 28, 28), 0.5);
        let sub = extract_sequential(&m, &plan);
        let recovered = recover_state(&sub, &plan, &m);
        let sparse = sparse_state(&m, &plan);
        // Since sub was extracted (not trained), recovered == sparse.
        for (a, b) in recovered.iter().zip(sparse.iter()) {
            assert_eq!(a.tensor, b.tensor);
        }
        // And the sparse conv1 weight has zero rows for pruned filters.
        let conv1 = &sparse[0].tensor;
        let per_filter = conv1.numel() / conv1.dims()[0];
        let kept = match &plan.layers[0] {
            crate::plan::LayerPlan::Conv { kept_out, .. } => kept_out.clone(),
            other => panic!("unexpected plan kind {other:?}"),
        };
        for f in 0..conv1.dims()[0] {
            let norm: f32 =
                conv1.data()[f * per_filter..(f + 1) * per_filter].iter().map(|v| v.abs()).sum();
            if kept.contains(&f) {
                assert!(norm > 0.0, "kept filter {f} zeroed");
            } else {
                assert_eq!(norm, 0.0, "pruned filter {f} non-zero");
            }
        }
    }

    #[test]
    fn sub_and_sparse_agree_in_forward_at_inference() {
        // A sparse model (zeros in pruned positions) and the physically
        // extracted sub-model compute the same logits, bit for bit: a
        // pruned term adds an exact zero. `tests/sparse_oracle.rs` holds
        // the zoo × ratio × thread × SIMD-path grid of this property.
        let mut rng = seeded_rng(215);
        let m = zoo::cnn_mnist(0.25, &mut rng);
        let plan = plan_sequential(&m, (1, 28, 28), 0.5);
        let mut sub = extract_sequential(&m, &plan);
        let mut sparse_model = m.clone();
        sparse_model.load_state(&sparse_state(&m, &plan));
        let x = fedmp_tensor::Tensor::randn(&[2, 1, 28, 28], &mut rng);
        let y_sub = sub.forward(&x, false);
        let y_sparse = sparse_model.forward(&x, false);
        for (a, b) in y_sub.data().iter().zip(y_sparse.data().iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }

    #[test]
    fn gather_scatter_roundtrip_2d() {
        let mut rng = seeded_rng(216);
        let t = Tensor::randn(&[5, 6], &mut rng);
        let rows = vec![0, 2, 4];
        let cols = vec![1, 5];
        let small = gather_2d(&t, &rows, &cols);
        assert_eq!(small.at(&[1, 1]), t.at(&[2, 5]));
        let back = scatter_2d(&small, &[5, 6], &rows, &cols);
        assert_eq!(back.at(&[2, 5]), t.at(&[2, 5]));
        assert_eq!(back.at(&[1, 1]), 0.0);
    }
}
