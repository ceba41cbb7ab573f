//! Property-based tests of the repository's core invariants, run across
//! random architectures, ratios and seeds.

use fedmp::bandit::{Bandit, EUcbAgent, EUcbConfig};
use fedmp::nn::{state_add, state_sub, zoo, Sequential};
use fedmp::pruning::{
    extract_sequential, plan_sequential, ratio_keep_count, recover_state, sparse_state,
};
use fedmp::tensor::{seeded_rng, Tensor};
use proptest::prelude::*;

fn arbitrary_model(arch: u8, width: f32, seed: u64) -> (Sequential, (usize, usize, usize)) {
    let mut rng = seeded_rng(seed);
    match arch % 3 {
        0 => (zoo::cnn_mnist(width, &mut rng), (1, 28, 28)),
        1 => (zoo::vgg_emnist(width.max(0.06), &mut rng), (1, 28, 28)),
        _ => (zoo::resnet_tiny(width.max(0.06), &mut rng), (3, 64, 64)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The defining R2SP identity holds for any architecture, width,
    /// ratio and seed: recover(extract(g)) + (g − sparse(g)) == g.
    #[test]
    fn r2sp_identity(arch in 0u8..3, ratio in 0.0f32..0.89, seed in 0u64..1000, width in 0.08f32..0.3) {
        let (model, chw) = arbitrary_model(arch, width, seed);
        let plan = plan_sequential(&model, chw, ratio);
        let sub = extract_sequential(&model, &plan);
        let recovered = recover_state(&sub, &plan, &model);
        let sparse = sparse_state(&model, &plan);
        let rebuilt = state_add(&recovered, &state_sub(&model.state(), &sparse));
        for (a, b) in rebuilt.iter().zip(model.state().iter()) {
            prop_assert_eq!(&a.tensor, &b.tensor, "mismatch in {}", a.name);
        }
    }

    /// Extraction is monotone in the ratio: more pruning, fewer params.
    #[test]
    fn pruning_monotone(arch in 0u8..3, seed in 0u64..500) {
        let (model, chw) = arbitrary_model(arch, 0.15, seed);
        let mut prev = usize::MAX;
        for ratio in [0.0f32, 0.3, 0.6, 0.85] {
            let plan = plan_sequential(&model, chw, ratio);
            let mut sub = extract_sequential(&model, &plan);
            let n = sub.num_params();
            prop_assert!(n <= prev, "ratio {} grew params {} -> {}", ratio, prev, n);
            prev = n;
        }
    }

    /// Any extracted sub-model forward-evaluates to finite logits.
    #[test]
    fn submodels_are_runnable(arch in 0u8..3, ratio in 0.0f32..0.89, seed in 0u64..500) {
        let (model, chw) = arbitrary_model(arch, 0.12, seed);
        let plan = plan_sequential(&model, chw, ratio);
        let mut sub = extract_sequential(&model, &plan);
        let mut rng = seeded_rng(seed ^ 99);
        let x = Tensor::randn(&[1, chw.0, chw.1, chw.2], &mut rng);
        let y = sub.forward(&x, false);
        prop_assert!(y.all_finite());
    }

    /// keep-count formula: bounded, monotone, exact at the endpoints.
    #[test]
    fn keep_count_properties(total in 1usize..2000, ratio in 0.0f32..0.99) {
        let k = ratio_keep_count(total, ratio);
        prop_assert!(k >= 1 && k <= total);
        if ratio == 0.0 {
            prop_assert_eq!(k, total);
        }
        // Monotone in ratio.
        let k2 = ratio_keep_count(total, (ratio + 0.005).min(0.9899));
        prop_assert!(k2 <= k);
    }

    /// E-UCB's partition always covers [0, alpha_max) disjointly, arms
    /// stay in range, and the tree respects theta.
    #[test]
    fn eucb_partition_invariants(seed in 0u64..200, theta in 0.02f32..0.3, rounds in 1usize..120) {
        let cfg = EUcbConfig { theta, seed, ..Default::default() };
        let mut agent = EUcbAgent::new(cfg);
        for k in 0..rounds {
            let a = agent.select();
            prop_assert!((0.0..cfg.alpha_max).contains(&a), "arm {} out of range", a);
            agent.observe(((k % 5) as f32) * 0.1);
        }
        let regions = agent.regions();
        prop_assert!((regions[0].0).abs() < 1e-6);
        prop_assert!((regions.last().unwrap().1 - cfg.alpha_max).abs() < 1e-5);
        for w in regions.windows(2) {
            prop_assert!((w[0].1 - w[1].0).abs() < 1e-5, "gap between regions");
        }
    }

    /// Aggregation is permutation-invariant: worker order cannot change
    /// the global model.
    #[test]
    fn aggregation_permutation_invariant(seed in 0u64..500, n in 2usize..6) {
        use fedmp::fl::average_states;
        use fedmp::nn::StateEntry;
        let mut rng = seeded_rng(seed);
        let states: Vec<Vec<StateEntry>> = (0..n)
            .map(|_| vec![StateEntry::trainable("w", Tensor::randn(&[13], &mut rng))])
            .collect();
        let fwd = average_states(&states);
        let mut rev = states.clone();
        rev.reverse();
        let bwd = average_states(&rev);
        for (a, b) in fwd[0].tensor.data().iter().zip(bwd[0].tensor.data().iter()) {
            prop_assert!((a - b).abs() < 1e-5);
        }
    }

    /// `average_states` and `ExactState` sum through `ExactVec`, a
    /// 16-byte window per slot plus a sparse spill; the wide per-slot
    /// `ExactSum` it replaced is the oracle. Rows are arbitrary bit
    /// patterns — NaN, ±∞, subnormals, magnitudes off both ends of the
    /// window — and the mean must come out bit-equal flat and through a
    /// two-shard tree.
    #[test]
    fn exact_mean_matches_the_wide_register_oracle(
        width in 1usize..5,
        cells in proptest::collection::vec(0u32..u32::MAX, 5..80),
    ) {
        use fedmp::fl::{average_states, ExactState};
        use fedmp::nn::StateEntry;
        use fedmp::tensor::ExactSum;
        let states: Vec<Vec<StateEntry>> = cells
            .chunks_exact(width)
            .map(|c| {
                let row = c.iter().map(|&b| f32::from_bits(b)).collect();
                vec![StateEntry::trainable("w", Tensor::from_vec(row, &[width]).unwrap())]
            })
            .collect();
        let inv = 1.0 / states.len() as f32;
        let want: Vec<u32> = (0..width)
            .map(|i| {
                let mut sum = ExactSum::new();
                states.iter().for_each(|s| sum.add(s[0].tensor.data()[i]));
                (sum.value() * inv).to_bits()
            })
            .collect();
        let bits = |mean: &[StateEntry]| -> Vec<u32> {
            mean[0].tensor.data().iter().map(|v| v.to_bits()).collect()
        };
        prop_assert_eq!(bits(&average_states(&states)), want.clone());

        let (left, right) = states.split_at(states.len() / 2);
        let mut tree = ExactState::like(&states[0]);
        let mut other = ExactState::like(&states[0]);
        left.iter().for_each(|s| tree.fold(s));
        right.iter().for_each(|s| other.fold(s));
        tree.merge(&other);
        prop_assert_eq!(bits(&tree.finalize(states.len())), want);
    }
}

/// `local_train` runs the parameter-only backward; the full
/// `Sequential::backward`, which also forms the gradient of the model
/// input, stays alive here as its reference. τ steps of each — FedProx
/// term and clipping on, AlexNet so the dropout masks are in play — must
/// leave the same bits in every weight.
#[test]
fn local_train_matches_a_full_backward_loop() {
    use fedmp::data::{cifar_like, iid_partition, BatchIter};
    use fedmp::fl::{local_train, LocalTrainConfig};
    use fedmp::nn::{add_proximal_grad, clip_grad_norm, snapshot_params, Sgd};
    use fedmp::tensor::cross_entropy_loss;

    let (train, _) = cifar_like(0.05, 60).generate();
    let shard = iid_partition(&train, 2, &mut seeded_rng(61)).swap_remove(0);
    let cfg = LocalTrainConfig { tau: 4, batch: 8, prox_mu: 0.1, ..Default::default() };
    let batches = || BatchIter::new(&train, shard.clone(), cfg.batch, seeded_rng(62));
    let mut fast = zoo::alexnet_cifar(0.08, &mut seeded_rng(63));
    let mut full = fast.clone();

    local_train(&mut fast, &mut batches(), &cfg);

    let mut it = batches();
    let anchor = snapshot_params(&mut full);
    let mut opt = Sgd::with_momentum(cfg.lr, cfg.momentum, 0.0);
    for _ in 0..cfg.tau {
        let (x, labels) = it.next_batch();
        full.zero_grad();
        let out = cross_entropy_loss(&full.forward(&x, true), &labels);
        let grad_x = full.backward(&out.grad_logits);
        assert_eq!(grad_x.dims(), x.dims());
        add_proximal_grad(&mut full, &anchor, cfg.prox_mu);
        clip_grad_norm(&mut full, cfg.clip);
        opt.step(&mut full);
    }

    for (a, b) in fast.state().iter().zip(full.state().iter()) {
        let same =
            a.tensor.data().iter().zip(b.tensor.data()).all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same && a.tensor.dims() == b.tensor.dims(), "{} differs", a.name);
    }
}
