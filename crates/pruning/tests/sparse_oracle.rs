//! The extracted sub-model computes the pruned network, bit for bit.
//!
//! The oracle is the paper's own definition of that network: the
//! full-width model with zeros in every pruned position
//! (`load_state(sparse_state(m, plan))`), run through the same kernels
//! at the full shapes. A pruned term is `fma(0, x, acc) = acc` (or
//! `acc + 0·x = acc`; `acc` starts at `+0.0` and can never become
//! `-0.0`), and the `k`-tile re-entry is an exact store/load, so not
//! even a sign of zero may differ —
//!
//! * across the zoo, batch norm with trained running statistics and
//!   residual blocks included,
//! * across pruning ratios (0 = dense as a degenerate case),
//! * at 1 and 4 kernel threads (the band decomposition is shape-only),
//! * on both SIMD dispatch paths (equality is *within* a path).
//!
//! `sparse_state` is itself `recover(extract(..))`, so the test first
//! pins it as an elementwise *mask* of the global state (each value the
//! global's own bits or `+0.0`): a gather that picked the wrong weights
//! cannot hide behind a scatter that put them back.
//!
//! One test function, in its own binary: it flips the process-global
//! SIMD-path and thread-count overrides.

use fedmp_nn::zoo;
use fedmp_pruning::{extract_sequential, plan_sequential, sparse_state};
use fedmp_tensor::simd::{self, SimdPath};
use fedmp_tensor::{parallel, seeded_rng, Tensor};

#[test]
fn extracted_sub_model_is_bitwise_the_sparse_full_width_model() {
    let mut paths = vec![SimdPath::Scalar];
    if simd::avx2_supported() {
        paths.push(SimdPath::Avx2);
    }
    let mut rng = seeded_rng(1201);
    for (label, mut m, chw, batch) in [
        ("cnn_mnist", zoo::cnn_mnist(0.25, &mut rng), (1usize, 28usize, 28usize), 2usize),
        ("alexnet_cifar", zoo::alexnet_cifar(0.125, &mut rng), (3, 32, 32), 1),
        ("vgg_emnist", zoo::vgg_emnist(0.1, &mut rng), (1, 28, 28), 1),
        ("resnet_tiny", zoo::resnet_tiny(0.125, &mut rng), (3, 64, 64), 1),
    ] {
        let x = Tensor::randn(&[batch, chw.0, chw.1, chw.2], &mut rng);
        // One training-mode pass moves every BN layer's running
        // statistics off their initial (0, 1).
        m.forward(&Tensor::randn(&[4, chw.0, chw.1, chw.2], &mut rng), true);
        for ratio in [0.0, 0.3, 0.5, 0.7] {
            let plan = plan_sequential(&m, chw, ratio);
            let mut sub = extract_sequential(&m, &plan);
            let sparse = sparse_state(&m, &plan);
            for (g, s) in m.state().iter().zip(&sparse) {
                for (gv, sv) in g.tensor.data().iter().zip(s.tensor.data()) {
                    assert!(
                        sv.to_bits() == gv.to_bits() || sv.to_bits() == 0,
                        "{label} ratio {ratio}: sparse {} holds {sv}, global {gv}",
                        s.name
                    );
                }
            }
            let mut sparse_model = m.clone();
            sparse_model.load_state(&sparse);
            for &path in &paths {
                for threads in [1, 4] {
                    simd::override_path(Some(path));
                    parallel::override_threads(Some(threads));
                    let y_sub = sub.forward(&x, false);
                    let y_sparse = sparse_model.forward(&x, false);
                    simd::override_path(None);
                    parallel::override_threads(None);
                    assert_eq!(y_sub.dims(), y_sparse.dims());
                    for (i, (a, b)) in y_sub.data().iter().zip(y_sparse.data()).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "{label} ratio {ratio} path {} threads {threads}: logit {i}: {a} vs {b}",
                            path.name()
                        );
                    }
                }
            }
        }
    }
}
