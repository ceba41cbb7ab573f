//! Global aggregation (`③` of Fig. 1): R2SP's residual, completion and
//! quorum rule (§III-C), and the one exact mean every round — flat,
//! asynchronous or hierarchical — folds its completions into: an
//! [`ExactState`], whose sums are exact integers, so its mean is the
//! same bits in any fold order and under any shard → edge → cloud tree.

use crate::checksum::crc32c;
use crate::engine::FlModel;
use bytes::Bytes;
use fedmp_nn::{state_add, state_scale, state_sub, StateEntry};
use fedmp_tensor::{ExactSum, ExactVec, Tensor};

/// A full-model snapshot accumulated exactly: one [`ExactVec`] slot per
/// scalar, templated from a concrete state's names/shapes. Folding is
/// streaming (fold, then drop the source) and merging two accumulators
/// is integer addition, so any fan-in tree over the same fold multiset
/// finalises to identical bits. Two states are equal iff they hold the
/// same sums.
#[derive(Clone, Debug, PartialEq)]
pub struct ExactState {
    entries: Vec<ExactEntry>,
}

#[derive(Clone, Debug, PartialEq)]
struct ExactEntry {
    name: String,
    dims: Vec<usize>,
    trainable: bool,
    accs: ExactVec,
}

impl ExactState {
    /// A zero accumulator shaped like `template`.
    pub fn like(template: &[StateEntry]) -> Self {
        ExactState {
            entries: template
                .iter()
                .map(|e| ExactEntry {
                    name: e.name.clone(),
                    dims: e.tensor.dims().to_vec(),
                    trainable: e.trainable,
                    accs: ExactVec::new(e.tensor.numel()),
                })
                .collect(),
        }
    }

    /// Folds one full-shape snapshot into the accumulator. The caller
    /// drops `state` right after — that is the streaming contract.
    pub fn fold(&mut self, state: &[StateEntry]) {
        assert_eq!(state.len(), self.entries.len(), "ExactState::fold: entry count mismatch");
        for (entry, s) in self.entries.iter_mut().zip(state.iter()) {
            assert_eq!(entry.name, s.name, "ExactState::fold: entry name mismatch");
            entry.accs.add(s.tensor.data());
        }
    }

    /// Merges another accumulator in (shard → edge, edge → cloud).
    pub fn merge(&mut self, other: &ExactState) {
        assert_eq!(other.entries.len(), self.entries.len(), "ExactState::merge: entry mismatch");
        for (a, b) in self.entries.iter_mut().zip(other.entries.iter()) {
            a.accs.merge(&b.accs);
        }
    }

    /// The mean over `n` folded snapshots, rounded once per scalar then
    /// scaled by `1/n`: the one place any round computes its mean.
    pub fn finalize(&self, n: usize) -> Vec<StateEntry> {
        assert!(n > 0, "ExactState::finalize over zero participants");
        let inv = 1.0 / n as f32;
        self.entries
            .iter()
            .map(|e| {
                let mut t = Tensor::zeros(&e.dims);
                for (out, sum) in t.data_mut().iter_mut().zip(e.accs.sums()) {
                    *out = sum.value() * inv;
                }
                StateEntry { name: e.name.clone(), tensor: t, trainable: e.trainable }
            })
            .collect()
    }

    /// Scalars tracked by the accumulator.
    pub fn numel(&self) -> usize {
        self.entries.iter().map(|e| e.accs.len()).sum()
    }

    /// Resident bytes of the accumulator itself — constant no matter
    /// how many snapshots have been folded in, while their values stay
    /// inside the [`ExactVec`] window.
    pub fn tracked_bytes(&self) -> usize {
        self.entries.iter().map(|e| e.accs.state_bytes()).sum()
    }

    /// Serialises the accumulator into a checksummed `HPar` wire frame:
    /// the edge → cloud partial-sum upload whose fate
    /// [`run_fedmp_hier`][crate::run_fedmp_hier] settles on the barrier
    /// without moving it (a test in `hierarchy` moves real frames
    /// through the barrier). Layout:
    /// `magic u32 | count u32 | count × (6 limbs LE + poison byte) |
    /// CRC-32C u32 of everything before`.
    pub fn encode(&self) -> Bytes {
        let count = self.numel() as u32;
        let mut buf = Vec::with_capacity(8 + count as usize * PARTIAL_SUM_BYTES + 4);
        buf.extend_from_slice(&PARTIAL_MAGIC.to_le_bytes());
        buf.extend_from_slice(&count.to_le_bytes());
        for e in &self.entries {
            for sum in e.accs.sums() {
                let (limbs, poison) = sum.to_raw();
                for limb in limbs {
                    buf.extend_from_slice(&limb.to_le_bytes());
                }
                buf.push(u8::from(poison));
            }
        }
        let sum = crc32c(&buf);
        buf.extend_from_slice(&sum.to_le_bytes());
        Bytes::from(buf)
    }

    /// Verifies a frame's magic and checksum and decodes it into an
    /// accumulator shaped like `template`. `Ok(None)` means the
    /// checksum failed (transit corruption — ask for a retransmit);
    /// `Err(())` means a foreign magic, or a verified frame with the
    /// wrong structure (protocol violation). The magic is checked
    /// first, so a frame in a retired layout is a violation, not a
    /// retransmit.
    #[expect(
        clippy::result_unit_err,
        reason = "the barrier maps every structural fault to one `Malformed` event"
    )]
    pub fn decode(frame: &[u8], template: &ExactState) -> Result<Option<ExactState>, ()> {
        if frame.len() < 12 {
            return Err(());
        }
        let mut magic = [0u8; 4];
        magic.copy_from_slice(&frame[0..4]);
        if u32::from_le_bytes(magic) != PARTIAL_MAGIC {
            return Err(());
        }
        let (body, tail) = frame.split_at(frame.len() - 4);
        let mut sum = [0u8; 4];
        sum.copy_from_slice(tail);
        if crc32c(body) != u32::from_le_bytes(sum) {
            return Ok(None);
        }
        let mut count = [0u8; 4];
        count.copy_from_slice(&body[4..8]);
        let count = u32::from_le_bytes(count) as usize;
        if count != template.numel() || body.len() != 8 + count * PARTIAL_SUM_BYTES {
            return Err(());
        }
        let mut sums = body[8..].chunks_exact(PARTIAL_SUM_BYTES).map(|raw| {
            let mut limbs = [0u64; 6];
            for (limb, bytes) in limbs.iter_mut().zip(raw.chunks_exact(8)) {
                let mut b = [0u8; 8];
                b.copy_from_slice(bytes);
                *limb = u64::from_le_bytes(b);
            }
            ExactSum::from_raw(limbs, raw[PARTIAL_SUM_BYTES - 1] != 0)
        });
        let entries = template
            .entries
            .iter()
            .map(|e| ExactEntry {
                name: e.name.clone(),
                dims: e.dims.clone(),
                trainable: e.trainable,
                accs: sums.by_ref().take(e.accs.len()).collect(),
            })
            .collect();
        Ok(Some(ExactState { entries }))
    }
}

/// Magic tag of an edge partial-sum frame (`"HPcr"`). `0x4850_6172`
/// (`"HPar"`) tagged the retired layout with an FNV-1a-64 trailer.
const PARTIAL_MAGIC: u32 = 0x4850_6372;

/// Bytes of one sum in an `HPar` frame: six limbs and the poison byte.
const PARTIAL_SUM_BYTES: usize = 49;

/// The residual the PS keeps for a fresh sub-model `sub` of `global`
/// (§III-C): `global − sparse`, with `global_state = global.state()`.
pub(crate) fn residual<M: FlModel>(
    global_state: &[StateEntry],
    sub: &M,
    plan: &M::Plan,
    global: &M,
) -> Vec<StateEntry> {
    state_sub(global_state, &sub.recover(plan, global))
}

/// One kept worker's term of the mean, from its trained sub-model
/// `recovered` into full shape. R2SP (Eq. 2) adds its residual, so each
/// pruned parameter re-enters with its pre-round value; BSP keeps no
/// residual (`None`), so pruned positions contribute zeros — the
/// degradation of Fig. 7.
pub(crate) fn completion(
    recovered: &[StateEntry],
    residual: Option<&[StateEntry]>,
) -> Vec<StateEntry> {
    match residual {
        Some(residual) => state_add(recovered, residual),
        None => recovered.to_vec(),
    }
}

/// The quorum rule of every synchronous round: `n` participants merge
/// iff there is at least one and at least `quorum`.
pub(crate) fn meets_quorum(n: usize, quorum: usize) -> bool {
    n > 0 && n >= quorum
}

/// Plain FedAvg over full-model snapshots: the elementwise exact mean.
pub fn average_states(states: &[Vec<StateEntry>]) -> Vec<StateEntry> {
    assert!(!states.is_empty(), "average of zero states");
    let mut sum = ExactState::like(&states[0]);
    for s in states {
        sum.fold(s);
    }
    sum.finalize(states.len())
}

/// R2SP (paper §III-C, Eq. 2): the exact mean of the completions of
/// `recovered[n]`, worker n's trained sub-model in full shape, by
/// `residuals[n] = global − sparseₙ` from the same round.
pub fn r2sp_aggregate(
    recovered: &[Vec<StateEntry>],
    residuals: &[Vec<StateEntry>],
) -> Vec<StateEntry> {
    assert_eq!(recovered.len(), residuals.len(), "r2sp: worker count mismatch");
    assert!(!recovered.is_empty(), "r2sp: no workers");
    let mut sum = ExactState::like(&recovered[0]);
    for (r, q) in recovered.iter().zip(residuals) {
        sum.fold(&completion(r, Some(q)));
    }
    sum.finalize(recovered.len())
}

/// R2SP under a quorum: [`r2sp_aggregate`] when at least one and at
/// least `quorum` recoveries arrived, else `None` (the caller keeps the
/// previous global model).
pub fn quorum_aggregate(
    recovered: &[Vec<StateEntry>],
    residuals: &[Vec<StateEntry>],
    quorum: usize,
) -> Option<Vec<StateEntry>> {
    meets_quorum(recovered.len(), quorum).then(|| r2sp_aggregate(recovered, residuals))
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
        let bsp = average_states(&[completion(&recovered, None)]);
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
