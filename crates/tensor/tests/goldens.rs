//! Cross-commit kernel goldens.
//!
//! Every other bit-identity test in this crate compares a kernel with
//! *another formulation at the same commit*. This one compares the
//! kernels with **their own past**: one FNV-1a hash per [`SimdPath`]
//! over the `to_bits` of every output of the conv and max-pool kernels,
//! recorded at the commit before PR 18 (`ca960bf`) and required to come
//! out unchanged — at 1 and 4 kernel threads — by every change to the
//! kernels since. A PR that claims "every bit unchanged" leaves the two
//! constants alone; a PR that means to move a bit has to edit them and
//! say why.
//!
//! Inputs are integer-derived (a multiplicative hash reduced mod 2001,
//! scaled by an exact power of two, shifted) — no `randn`, no libm — so
//! the operands are the same floats on any host and toolchain.
//!
//! Cases: the seven conv geometries of the two benchmark sub-models
//! (cnn_mnist width 0.25 and alexnet_cifar width 0.08, pruned at ratio
//! 0.4), their seven dense parents, one stride-2 and one padding-0
//! conv; max-pool over the zoo's 2×2/stride-2 window on post-ReLU data
//! (so windows tie on `0.0`), an overlapping non-square window, a
//! stride-1 window, and one input large enough to cross the band
//! scheduler's parallel threshold.

use fedmp_tensor::simd::{self, SimdPath};
use fedmp_tensor::{
    conv2d_backward_input, conv2d_backward_weight, conv2d_forward, max_pool2d_forward, parallel,
    Conv2dSpec, Pool2dSpec, Tensor,
};

/// Recorded at `ca960bf` (the parent of PR 18), `FEDMP_SIMD` unset and
/// `=scalar` alike (the test forces each path itself).
const GOLDEN_AVX2: u64 = 0x96ad_4d2d_516c_ae5b;
/// As [`GOLDEN_AVX2`], for the blocked scalar kernel.
const GOLDEN_SCALAR: u64 = 0x8ad1_e047_51ba_87b7;

/// `(out channels, in channels, h, w, kernel, stride, padding)`.
const CONV_CASES: &[(usize, usize, usize, usize, usize, usize, usize)] = &[
    // cnn_mnist 0.25 @ ratio 0.4, then alexnet_cifar 0.08 @ ratio 0.4
    (5, 1, 28, 28, 5, 1, 2),
    (10, 5, 14, 14, 5, 1, 2),
    (3, 3, 32, 32, 3, 1, 1),
    (9, 3, 16, 16, 3, 1, 1),
    (19, 9, 8, 8, 3, 1, 1),
    (12, 19, 8, 8, 3, 1, 1),
    (12, 12, 8, 8, 3, 1, 1),
    // their dense parents
    (8, 1, 28, 28, 5, 1, 2),
    (16, 8, 14, 14, 5, 1, 2),
    (5, 3, 32, 32, 3, 1, 1),
    (15, 5, 16, 16, 3, 1, 1),
    (31, 15, 8, 8, 3, 1, 1),
    (20, 31, 8, 8, 3, 1, 1),
    (20, 20, 8, 8, 3, 1, 1),
    // stride 2 (non-square, so h and w cannot be swapped unnoticed)
    (6, 4, 9, 12, 3, 2, 1),
    // no padding
    (4, 3, 12, 12, 5, 1, 0),
];

/// `(batch, channels, h, w, kh, kw, stride)`.
const POOL_CASES: &[(usize, usize, usize, usize, usize, usize, usize)] = &[
    (4, 5, 28, 28, 2, 2, 2),
    (4, 10, 14, 14, 2, 2, 2),
    (4, 3, 32, 32, 2, 2, 2),
    (2, 3, 9, 11, 3, 2, 2),
    (2, 2, 7, 7, 2, 2, 1),
    // n·c·oh·ow·kh·kw = 2^19: the batch loop runs on the band workers.
    (32, 16, 32, 32, 2, 2, 2),
];

/// Images per conv case: enough bands for 4 threads to share, and
/// enough work (`2·n·oc·oh·ow·ck`) for the larger cases to cross the
/// scheduler's parallel threshold.
const BATCH: usize = 4;

/// `len` floats in `[-15.6, 15.65]` from integer arithmetic alone.
fn fill(len: usize, salt: u64) -> Vec<f32> {
    (0..len as u64)
        .map(|i| ((i + salt).wrapping_mul(2_654_435_761) % 2001) as f32 / 64.0 - 15.6)
        .collect()
}

fn tensor(dims: &[usize], salt: u64) -> Tensor {
    Tensor::from_vec(fill(dims.iter().product(), salt), dims).expect("dims match the fill length")
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn floats(&mut self, t: &Tensor) {
        for &d in t.dims() {
            self.bytes(&(d as u64).to_le_bytes());
        }
        for v in t.data() {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }
}

/// Hash of every kernel output over every case, under whatever path and
/// thread count the caller has forced.
fn hash_all_kernels() -> u64 {
    let mut h = Fnv::new();
    for (case, &(oc, c, ih, iw, k, stride, padding)) in CONV_CASES.iter().enumerate() {
        let salt = 1000 * case as u64;
        let spec = Conv2dSpec { kh: k, kw: k, stride, padding };
        let input = tensor(&[BATCH, c, ih, iw], salt + 1);
        // Weights and gradients scaled down (exactly) so sums stay far
        // from overflow at any depth.
        let weight = tensor(&[oc, c, k, k], salt + 2).scale(1.0 / 16.0);
        let bias = tensor(&[oc], salt + 3);
        let out = conv2d_forward(&input, &weight, &bias, &spec);
        let grad_out = tensor(out.dims(), salt + 4).scale(1.0 / 32.0);
        let (gw, gb) = conv2d_backward_weight(&grad_out, &input, weight.dims(), &spec);
        let gi = conv2d_backward_input(&grad_out, &weight, input.dims(), &spec);
        for t in [&out, &gw, &gb, &gi] {
            h.floats(t);
        }
    }
    for (case, &(n, c, ih, iw, kh, kw, stride)) in POOL_CASES.iter().enumerate() {
        // Post-ReLU data: about half the elements are exactly 0.0, so
        // many windows tie and the first-maximum rule decides.
        let input = tensor(&[n, c, ih, iw], 77 + case as u64).map(|v| v.max(0.0));
        let (out, argmax) = max_pool2d_forward(&input, &Pool2dSpec { kh, kw, stride });
        h.floats(&out);
        for &i in &argmax {
            h.bytes(&(i as u64).to_le_bytes());
        }
    }
    h.0
}

/// One test, because both overrides are process-global.
#[test]
fn kernel_bits_match_the_commit_before_pr18() {
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            simd::override_path(None);
            parallel::override_threads(None);
        }
    }
    let _reset = Reset;
    let mut paths = vec![(SimdPath::Scalar, GOLDEN_SCALAR)];
    if simd::avx2_supported() {
        paths.push((SimdPath::Avx2, GOLDEN_AVX2));
    } else {
        eprintln!("skipping the avx2 golden: AVX2+FMA not available on this host");
    }
    for (path, golden) in paths {
        simd::override_path(Some(path));
        for threads in [1usize, 4] {
            parallel::override_threads(Some(threads));
            let got = hash_all_kernels();
            assert_eq!(
                got,
                golden,
                "{} path, {threads} kernel thread(s): kernels hash to {got:#018x}, the golden \
                 recorded before PR 18 is {golden:#018x} — some conv or max-pool output bit moved",
                path.name(),
            );
        }
    }
}
