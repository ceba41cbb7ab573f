//! ISS (Intrinsic Sparse Structure) pruning for stacked LSTMs —
//! the paper's §VI extension to recurrent networks.
//!
//! Removing hidden unit `k` of an LSTM layer removes, *simultaneously*:
//! the four gate rows `g·h + k` of `w_x` and `w_h`, the recurrent column
//! `k` of `w_h`, the four bias entries, and the input column `k` of
//! every downstream consumer (the next LSTM layer's `w_x`, or the
//! decoder). The result is a dense, smaller LSTM — no sparse kernels
//! needed, mirroring [Wen et al., 2017].

use crate::plan::{ratio_keep_count, top_indices};
use crate::rebuild::{gather_1d, gather_2d};
use fedmp_nn::{Embedding, Linear, Lstm, LstmLm, StateEntry};
use fedmp_tensor::parallel::sum_f32;
use fedmp_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// ISS pruning plan: the kept hidden-unit indices of each LSTM layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LstmPlan {
    /// Kept hidden units per LSTM layer, sorted ascending.
    pub kept: Vec<Vec<usize>>,
    /// The ratio the plan was built for.
    pub ratio: f32,
}

/// Builds an ISS plan: each layer keeps the `⌈(1−α)·h⌉` hidden units
/// with the largest aggregate L1 importance (gate rows + recurrent
/// column).
pub fn plan_lstm(lm: &LstmLm, ratio: f32) -> LstmPlan {
    let kept = lm
        .lstms
        .iter()
        .map(|l| {
            let h = l.hidden();
            let scores: Vec<f32> = (0..h).map(|k| unit_importance(l, k)).collect();
            top_indices(&scores, ratio_keep_count(h, ratio))
        })
        .collect();
    LstmPlan { kept, ratio }
}

/// Aggregate L1 importance of hidden unit `k`: all four gate rows of
/// `w_x` and `w_h` plus the recurrent column `k`.
fn unit_importance(l: &Lstm, k: usize) -> f32 {
    let h = l.hidden();
    let mut score = 0.0f32;
    for g in 0..4 {
        score += sum_f32(l.w_x.value.row(g * h + k).iter().map(|v| v.abs()));
        score += sum_f32(l.w_h.value.row(g * h + k).iter().map(|v| v.abs()));
    }
    for r in 0..4 * h {
        score += l.w_h.value.at(&[r, k]).abs();
    }
    score
}

/// Expands kept hidden units into the `4h`-row gate index space.
fn gate_rows(kept: &[usize], h: usize) -> Vec<usize> {
    let mut rows = Vec::with_capacity(4 * kept.len());
    for g in 0..4 {
        for &k in kept {
            rows.push(g * h + k);
        }
    }
    rows
}

fn scatter_2d_into(small: &Tensor, rows: &[usize], cols: &[usize], full: &mut Tensor) {
    let full_cols = full.dims()[1];
    for (i, &r) in rows.iter().enumerate() {
        let src = small.row(i);
        for (j, &c) in cols.iter().enumerate() {
            full.data_mut()[r * full_cols + c] = src[j];
        }
    }
}

/// Materialises the ISS-pruned sub-model: dense LSTM layers with fewer
/// hidden units; embedding and decoder output untouched.
pub fn extract_lstm(lm: &LstmLm, plan: &LstmPlan) -> LstmLm {
    assert_eq!(plan.kept.len(), lm.lstms.len(), "lstm plan layer count mismatch");
    let mut prev_cols: Vec<usize> = (0..lm.embedding.dim()).collect();
    let mut lstms = Vec::with_capacity(lm.lstms.len());
    for (l, kept) in lm.lstms.iter().zip(plan.kept.iter()) {
        let h = l.hidden();
        let rows = gate_rows(kept, h);
        let w_x = gather_2d(&l.w_x.value, &rows, &prev_cols);
        let w_h = gather_2d(&l.w_h.value, &rows, kept);
        let bias = gather_1d(&l.bias.value, &rows);
        lstms.push(Lstm::from_parts(w_x, w_h, bias));
        prev_cols = kept.clone();
    }
    let dec_rows: Vec<usize> = (0..lm.decoder.out_features()).collect();
    let decoder = Linear::from_parts(
        gather_2d(&lm.decoder.weight.value, &dec_rows, &prev_cols),
        lm.decoder.bias.value.clone(),
    );
    LstmLm { embedding: Embedding::from_parts(lm.embedding.weight.value.clone()), lstms, decoder }
}

/// Scatters a trained ISS sub-model back into full-model coordinates
/// (the LSTM analogue of [`crate::recover_state`]). Embedding and
/// decoder bias are carried over in full; pruned positions are zero.
pub fn recover_lstm_state(sub: &LstmLm, plan: &LstmPlan, global: &LstmLm) -> Vec<StateEntry> {
    let mut out =
        vec![StateEntry::trainable("embedding.weight", sub.embedding.weight.value.clone())];
    let mut prev_cols: Vec<usize> = (0..global.embedding.dim()).collect();
    for (i, ((gl, sl), kept)) in
        global.lstms.iter().zip(sub.lstms.iter()).zip(plan.kept.iter()).enumerate()
    {
        let h = gl.hidden();
        let rows = gate_rows(kept, h);
        let mut w_x = Tensor::zeros(gl.w_x.value.dims());
        scatter_2d_into(&sl.w_x.value, &rows, &prev_cols, &mut w_x);
        let mut w_h = Tensor::zeros(gl.w_h.value.dims());
        scatter_2d_into(&sl.w_h.value, &rows, kept, &mut w_h);
        let mut bias = Tensor::zeros(gl.bias.value.dims());
        for (j, &r) in rows.iter().enumerate() {
            bias.data_mut()[r] = sl.bias.value.data()[j];
        }
        out.push(StateEntry::trainable(format!("lstm.{i}.w_x"), w_x));
        out.push(StateEntry::trainable(format!("lstm.{i}.w_h"), w_h));
        out.push(StateEntry::trainable(format!("lstm.{i}.bias"), bias));
        prev_cols = kept.clone();
    }
    let dec_rows: Vec<usize> = (0..global.decoder.out_features()).collect();
    let mut dec_w = Tensor::zeros(global.decoder.weight.value.dims());
    scatter_2d_into(&sub.decoder.weight.value, &dec_rows, &prev_cols, &mut dec_w);
    out.push(StateEntry::trainable("decoder.weight", dec_w));
    out.push(StateEntry::trainable("decoder.bias", sub.decoder.bias.value.clone()));
    out
}

/// The sparse LSTM model: full shape, pruned positions zeroed.
pub fn sparse_lstm_state(global: &LstmLm, plan: &LstmPlan) -> Vec<StateEntry> {
    let sub = extract_lstm(global, plan);
    recover_lstm_state(&sub, plan, global)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedmp_nn::{state_add, state_sub, zoo};
    use fedmp_tensor::{cross_entropy_loss, seeded_rng};

    #[test]
    fn plan_keeps_requested_fraction() {
        let mut rng = seeded_rng(220);
        let lm = zoo::lstm_ptb(40, 0.25, &mut rng);
        let plan = plan_lstm(&lm, 0.5);
        for (kept, l) in plan.kept.iter().zip(lm.lstms.iter()) {
            assert_eq!(kept.len(), l.hidden().div_ceil(2));
            assert!(kept.windows(2).all(|w| w[0] < w[1]), "kept indices not sorted");
        }
    }

    #[test]
    fn extracted_lstm_runs_and_shrinks() {
        let mut rng = seeded_rng(221);
        let mut lm = zoo::lstm_ptb(30, 0.25, &mut rng);
        let plan = plan_lstm(&lm, 0.6);
        let mut sub = extract_lstm(&lm, &plan);
        assert!(sub.num_params() < lm.num_params());
        let logits = sub.forward(&[vec![0, 1, 2, 3], vec![4, 5, 6, 7]]);
        assert!(logits.all_finite());
        let targets = vec![1usize; 8];
        let out = cross_entropy_loss(&logits, &targets);
        sub.backward(&out.grad_logits);
    }

    #[test]
    fn lstm_r2sp_identity_holds() {
        let mut rng = seeded_rng(222);
        for ratio in [0.0, 0.3, 0.7] {
            let lm = zoo::lstm_ptb(25, 0.25, &mut rng);
            let plan = plan_lstm(&lm, ratio);
            let global_state = lm.state();
            let sub = extract_lstm(&lm, &plan);
            let recovered = recover_lstm_state(&sub, &plan, &lm);
            let sparse = sparse_lstm_state(&lm, &plan);
            let rebuilt = state_add(&recovered, &state_sub(&global_state, &sparse));
            for (a, b) in rebuilt.iter().zip(global_state.iter()) {
                assert_eq!(a.tensor, b.tensor, "mismatch in {} at ratio {ratio}", a.name);
            }
        }
    }

    #[test]
    fn pruned_unit_rows_are_zero_in_sparse_state() {
        let mut rng = seeded_rng(223);
        let lm = zoo::lstm_ptb(20, 0.25, &mut rng);
        let plan = plan_lstm(&lm, 0.5);
        let sparse = sparse_lstm_state(&lm, &plan);
        let h = lm.lstms[0].hidden();
        let w_x = &sparse[1].tensor; // lstm.0.w_x
        for k in 0..h {
            let pruned = !plan.kept[0].contains(&k);
            for g in 0..4 {
                let norm: f32 = w_x.row(g * h + k).iter().map(|v| v.abs()).sum();
                if pruned {
                    assert_eq!(norm, 0.0, "gate {g} unit {k} not zeroed");
                } else {
                    assert!(norm > 0.0);
                }
            }
        }
    }

    #[test]
    fn stacked_layer_input_follows_previous_kept() {
        let mut rng = seeded_rng(224);
        let lm = zoo::lstm_ptb(20, 0.25, &mut rng);
        let plan = plan_lstm(&lm, 0.5);
        let sub = extract_lstm(&lm, &plan);
        assert_eq!(sub.lstms[1].input_size(), plan.kept[0].len());
        assert_eq!(sub.decoder.in_features(), plan.kept[1].len());
        // Spot-check one value: sub lstm1 w_x[0][0] comes from the first
        // kept gate-row and the first kept unit of layer 0.
        let r = plan.kept[1][0]; // gate 0 row of first kept unit
        let c = plan.kept[0][0];
        assert_eq!(sub.lstms[1].w_x.value.at(&[0, 0]), lm.lstms[1].w_x.value.at(&[r, c]));
    }
}
