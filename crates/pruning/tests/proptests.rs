//! Property tests of the pruning crate over random models and ratios.

use fedmp_nn::{zoo, LayerNode};
use fedmp_pruning::{
    dequantize_state, extract_sequential, plan_sequential, quant_error_bound, quantize_state,
    LayerPlan,
};
use fedmp_tensor::seeded_rng;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// L1 ranking: every kept filter scores at least as high as every
    /// pruned filter of the same layer.
    #[test]
    fn kept_filters_dominate_pruned_ones(seed in 0u64..1000, ratio in 0.1f32..0.85) {
        let mut rng = seeded_rng(seed);
        let model = zoo::cnn_mnist(0.25, &mut rng);
        let plan = plan_sequential(&model, (1, 28, 28), ratio);
        for (node, lp) in model.layers.iter().zip(plan.layers.iter()) {
            if let (LayerNode::Conv2d(conv), LayerPlan::Conv { kept_out, .. }) = (node, lp) {
                let oc = conv.out_channels();
                let per = conv.weight.value.numel() / oc;
                let score = |f: usize| -> f32 {
                    conv.weight.value.data()[f * per..(f + 1) * per].iter().map(|v| v.abs()).sum()
                };
                let min_kept = kept_out.iter().map(|&f| score(f)).fold(f32::INFINITY, f32::min);
                for f in 0..oc {
                    if !kept_out.contains(&f) {
                        prop_assert!(score(f) <= min_kept + 1e-5,
                            "pruned filter {} outranks a kept one", f);
                    }
                }
            }
        }
    }

    /// The sub-model's parameter count matches what the plan promises.
    #[test]
    fn extraction_matches_plan_arithmetic(seed in 0u64..1000, ratio in 0.0f32..0.85) {
        let mut rng = seeded_rng(seed);
        let model = zoo::cnn_mnist(0.25, &mut rng);
        let plan = plan_sequential(&model, (1, 28, 28), ratio);
        let sub = extract_sequential(&model, &plan);
        for (node, lp) in sub.layers.iter().zip(plan.layers.iter()) {
            match (node, lp) {
                (LayerNode::Conv2d(c), LayerPlan::Conv { kept_out, kept_in }) => {
                    prop_assert_eq!(c.out_channels(), kept_out.len());
                    prop_assert_eq!(c.in_channels(), kept_in.len());
                }
                (LayerNode::Linear(l), LayerPlan::Linear { kept_out, kept_in }) => {
                    prop_assert_eq!(l.out_features(), kept_out.len());
                    prop_assert_eq!(l.in_features(), kept_in.len());
                }
                _ => {}
            }
        }
    }

    /// Quantization round-trip error never exceeds its own bound.
    #[test]
    fn quantization_error_is_bounded(seed in 0u64..1000, scale in 0.01f32..10.0) {
        let mut rng = seeded_rng(seed);
        let model = zoo::cnn_mnist(0.1, &mut rng);
        let state: Vec<_> = model
            .state()
            .into_iter()
            .map(|mut e| {
                e.tensor.scale_in_place(scale);
                e
            })
            .collect();
        let q = quantize_state(&state);
        let back = dequantize_state(&q);
        let bound = quant_error_bound(&q);
        for (a, b) in state.iter().zip(back.iter()) {
            for (x, y) in a.tensor.data().iter().zip(b.tensor.data().iter()) {
                prop_assert!((x - y).abs() <= bound + 1e-6);
            }
        }
    }
}
