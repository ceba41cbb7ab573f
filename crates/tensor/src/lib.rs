//! # fedmp-tensor
//!
//! A small, dependency-light dense tensor library in pure Rust. It is the
//! training substrate for the FedMP reproduction: every layer in
//! `fedmp-nn` is built from the operations here, and the structured-pruning
//! machinery in `fedmp-pruning` manipulates these tensors directly.
//!
//! Design notes:
//!
//! * Tensors are **row-major, contiguous `f32`** buffers. FL training for
//!   the paper's workloads never needs strided views, so contiguity keeps
//!   every hot loop a straight slice walk.
//! * Shape mismatches are **programming errors** and panic with a
//!   descriptive message; fallible construction from external data returns
//!   [`TensorError`].
//! * All randomness is funnelled through seeded [`rand::rngs::StdRng`]
//!   instances so every experiment in the repository is reproducible.
//!
//! ```
//! use fedmp_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.data(), a.data());
//! ```

mod codes;
mod conv;
mod crc;
mod error;
pub mod exact;
mod matmul;
mod ops;
pub mod parallel;
mod pool;
mod rng;
mod shape;
#[expect(
    unsafe_code,
    reason = "the crate's only `unsafe`: the AVX2 and F16C kernels and the SSE4.2 CRC loop"
)]
pub mod simd;
mod tensor;
pub mod workspace;

pub use codes::{
    f16_bits_to_f32, f16_le_to_f32s, f32_to_f16_bits, f32s_to_f16_le, int8_code, int8_codes,
};
pub use conv::{
    col2im, col2im_into, conv2d_backward_input, conv2d_backward_weight, conv2d_forward, im2col,
    im2col_into, Conv2dSpec,
};
pub use crc::crc32c;
pub use error::TensorError;
pub use exact::{exact_sum_f32, ExactSum, ExactVec};
pub use matmul::{matmul_nt_reference, matmul_reference, matmul_tn_reference};
pub use ops::{cross_entropy_loss, log_softmax_rows, softmax_rows, CrossEntropyOutput};
pub use pool::{
    avg_pool2d_backward, avg_pool2d_forward, max_pool2d_backward, max_pool2d_forward, Pool2dSpec,
};
pub use rng::{normal, seeded_rng, shuffled_indices, standard_normal_vec, uniform_vec};
pub use shape::Shape;
pub use tensor::Tensor;
pub use workspace::{with_thread_workspace, Workspace};
