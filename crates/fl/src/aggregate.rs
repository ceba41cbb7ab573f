//! Global aggregation (`③` of Fig. 1): R2SP, BSP, and plain FedAvg.

use fedmp_nn::{state_add, state_scale, StateEntry};
use fedmp_tensor::{ExactVec, Tensor};

/// Plain FedAvg over full-model snapshots: the elementwise mean.
///
/// Each scalar position is summed through an [`ExactVec`] fixed-point
/// superaccumulator, so the sum is *exact* (one rounding at the end,
/// then one multiply by `1/n`). This makes the mean permutation- and
/// grouping-invariant: partitioning the same snapshots into shards and
/// merging partial accumulators — as the hierarchical aggregation layer
/// in `fl::hierarchy` does — produces bit-identical results to this
/// flat call, for every partition.
pub fn average_states(states: &[Vec<StateEntry>]) -> Vec<StateEntry> {
    assert!(!states.is_empty(), "average of zero states");
    let inv = 1.0 / states.len() as f32;
    let template = &states[0];
    for s in states {
        assert_eq!(s.len(), template.len(), "average_states: entry count mismatch");
    }
    template
        .iter()
        .enumerate()
        .map(|(j, e)| {
            let n = e.tensor.numel();
            let mut accs = ExactVec::new(n);
            for s in states {
                let entry = &s[j];
                assert_eq!(entry.name, e.name, "average_states: entry name mismatch");
                let data = entry.tensor.data();
                assert_eq!(data.len(), n, "average_states: entry shape mismatch");
                accs.add(data);
            }
            let mut tensor = Tensor::zeros(e.tensor.dims());
            for (out, a) in tensor.data_mut().iter_mut().zip(accs.sums()) {
                *out = a.value() * inv;
            }
            StateEntry { name: e.name.clone(), tensor, trainable: e.trainable }
        })
        .collect()
}

/// R2SP (paper §III-C, Eq. 2): each worker's recovered sub-model is
/// completed with its residual model before averaging, so every pruned
/// parameter re-enters the global model with its pre-round value.
///
/// `recovered[n]` must be the full-shape recovery of worker n's trained
/// sub-model and `residuals[n] = global − sparseₙ` from the same round.
pub fn r2sp_aggregate(
    recovered: &[Vec<StateEntry>],
    residuals: &[Vec<StateEntry>],
) -> Vec<StateEntry> {
    assert_eq!(recovered.len(), residuals.len(), "r2sp: worker count mismatch");
    assert!(!recovered.is_empty(), "r2sp: no workers");
    let completed: Vec<Vec<StateEntry>> =
        recovered.iter().zip(residuals.iter()).map(|(r, q)| state_add(r, q)).collect();
    average_states(&completed)
}

/// Traditional BSP over heterogeneous sub-models: the recovered models
/// are averaged **without** residual completion, so positions a worker
/// pruned contribute zeros — exactly the degradation Fig. 7 shows.
pub(crate) fn bsp_aggregate(recovered: &[Vec<StateEntry>]) -> Vec<StateEntry> {
    average_states(recovered)
}

/// R2SP under a quorum: aggregates the delivered recoveries iff at
/// least `quorum` of them arrived, and is then **bit-identical** to
/// [`r2sp_aggregate`] over the same participant set (same inputs, same
/// accumulation order). Below quorum — or with no participants at all —
/// returns `None`, and the caller keeps the previous global model.
pub fn quorum_aggregate(
    recovered: &[Vec<StateEntry>],
    residuals: &[Vec<StateEntry>],
    quorum: usize,
) -> Option<Vec<StateEntry>> {
    if recovered.is_empty() || recovered.len() < quorum {
        return None;
    }
    Some(r2sp_aggregate(recovered, residuals))
}

/// Staleness-tempered mixing for the asynchronous engines:
/// `(1 − β)·global + β·update`.
pub(crate) fn mix_states(
    global: &[StateEntry],
    update: &[StateEntry],
    beta: f32,
) -> Vec<StateEntry> {
    assert!((0.0..=1.0).contains(&beta), "mixing coefficient must be in [0, 1]");
    state_add(&state_scale(global, 1.0 - beta), &state_scale(update, beta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedmp_tensor::Tensor;

    fn snap(vals: &[f32]) -> Vec<StateEntry> {
        vec![StateEntry::trainable("w", Tensor::from_vec(vals.to_vec(), &[vals.len()]).unwrap())]
    }

    #[test]
    fn average_is_elementwise_mean() {
        let avg = average_states(&[snap(&[1.0, 2.0]), snap(&[3.0, 6.0])]);
        assert_eq!(avg[0].tensor.data(), &[2.0, 4.0]);
    }

    #[test]
    fn average_is_permutation_invariant() {
        let a = snap(&[1.0, 5.0]);
        let b = snap(&[2.0, 7.0]);
        let c = snap(&[3.0, 0.0]);
        let x = average_states(&[a.clone(), b.clone(), c.clone()]);
        let y = average_states(&[c, a, b]);
        assert_eq!(x[0].tensor, y[0].tensor);
    }

    #[test]
    fn r2sp_restores_pruned_positions() {
        // Global [4, 8]; worker pruned index 1 (sparse [4, 0], residual
        // [0, 8]) and trained index 0 to 5.
        let recovered = snap(&[5.0, 0.0]);
        let residual = snap(&[0.0, 8.0]);
        let agg = r2sp_aggregate(std::slice::from_ref(&recovered), &[residual]);
        assert_eq!(agg[0].tensor.data(), &[5.0, 8.0]);
        // BSP leaves the pruned position at zero.
        let bsp = bsp_aggregate(&[recovered]);
        assert_eq!(bsp[0].tensor.data(), &[5.0, 0.0]);
    }

    #[test]
    fn mixing_interpolates() {
        let g = snap(&[10.0]);
        let u = snap(&[20.0]);
        assert_eq!(mix_states(&g, &u, 0.25)[0].tensor.data(), &[12.5]);
        assert_eq!(mix_states(&g, &u, 0.0)[0].tensor.data(), &[10.0]);
        assert_eq!(mix_states(&g, &u, 1.0)[0].tensor.data(), &[20.0]);
    }
}
