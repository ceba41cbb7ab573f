//! # fedmp-pruning
//!
//! Structured model pruning and the R2SP synchronisation primitives of
//! the FedMP paper (§III-B, §III-C):
//!
//! * **Planning** ([`plan_sequential`]): every layer uses the same
//!   pruning ratio; filters/neurons are ranked by L1 importance and the
//!   lowest-scoring fraction is removed. Channel removal propagates to
//!   the next layer's input channels and to the following batch-norm, and
//!   residual blocks only prune their internal convolutions (the block
//!   output width is pinned by the skip connection).
//! * **Extraction** ([`extract_sequential`]): materialises the physically
//!   smaller sub-model `x̂ₙ` that is sent to a worker.
//! * **Recovery** ([`recover_state`]): scatters a trained sub-model back
//!   into full-model coordinates (zeros elsewhere) — the recovered model
//!   of R2SP.
//! * **Sparse model** ([`sparse_state`]): the full-shape model with
//!   pruned positions zeroed; the **residual model** is
//!   `global − sparse` (computed with [`fedmp_nn::state_sub`]).
//!
//! The defining R2SP identity, tested as a property over random models,
//! ratios and architectures:
//!
//! ```text
//! recover(extract(global, plan)) + (global − sparse(global, plan)) == global
//! ```
//!
//! The crate also implements **ISS pruning** for the §VI LSTM extension
//! ([`plan_lstm`], [`extract_lstm`], [`recover_lstm_state`]).
//!
//! A pruned model runs exactly one way: as the extracted, physically
//! smaller **dense** network through the ordinary `fedmp-tensor`
//! kernels. The sparse full-width model is the paper's definition of
//! the same network and the oracle `rebuild`'s tests hold extraction to,
//! bit for bit.

mod iss;
mod plan;
mod rebuild;

pub use iss::{extract_lstm, plan_lstm, recover_lstm_state, sparse_lstm_state, LstmPlan};
pub use plan::{
    plan_sequential, plan_sequential_with, ratio_keep_count, Importance, LayerPlan, PrunePlan,
};
pub use rebuild::{extract_sequential, recover_state, sparse_state};
