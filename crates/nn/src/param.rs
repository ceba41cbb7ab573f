//! Trainable parameters and model state snapshots.

use fedmp_tensor::Tensor;
use serde::{DeError, Deserialize, Serialize, Value};

/// A trainable parameter: a value tensor plus its gradient accumulator.
///
/// It serialises as its dims and deserialises as zeros of those dims: a
/// serialised model is an architecture, whose weights travel separately
/// as a [`StateEntry`] snapshot.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current value.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor,
}

impl Param {
    /// Wraps a value tensor with a zeroed gradient buffer.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.dims());
        Param { value, grad }
    }

    /// Resets the gradient to zero without reallocating.
    pub fn zero_grad(&mut self) {
        self.grad.fill_zero();
    }

    /// Number of scalar weights.
    pub fn numel(&self) -> usize {
        self.value.numel()
    }
}

impl Serialize for Param {
    fn to_value(&self) -> Value {
        self.value.dims().to_value()
    }
}

impl Deserialize for Param {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Param::new(Tensor::zeros(&Vec::<usize>::from_value(v)?)))
    }
}

/// One entry of a model state snapshot: a named tensor plus whether it is
/// trained by SGD (weights/biases) or merely tracked (BN running stats).
///
/// Snapshots are the interchange format of the FL layer: sub-model
/// recovery, residual computation and aggregation all operate on
/// `Vec<StateEntry>` in the deterministic order the model emits them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StateEntry {
    /// Stable, path-like name (e.g. `"seq.3.conv.weight"`).
    pub name: String,
    /// The tensor value.
    pub tensor: Tensor,
    /// Whether SGD updates this entry.
    pub trainable: bool,
}

impl StateEntry {
    /// Convenience constructor for a trainable entry.
    pub fn trainable(name: impl Into<String>, tensor: Tensor) -> Self {
        StateEntry { name: name.into(), tensor, trainable: true }
    }

    /// Convenience constructor for a tracked (non-trainable) entry.
    pub fn tracked(name: impl Into<String>, tensor: Tensor) -> Self {
        StateEntry { name: name.into(), tensor, trainable: false }
    }
}

/// Total scalar count across a snapshot.
pub fn state_numel(state: &[StateEntry]) -> usize {
    state.iter().map(|e| e.tensor.numel()).sum()
}

/// Elementwise `a - b` over two equally-shaped snapshots, preserving names.
///
/// # Panics
/// Panics if the snapshots disagree in length, names or shapes.
pub fn state_sub(a: &[StateEntry], b: &[StateEntry]) -> Vec<StateEntry> {
    assert_eq!(a.len(), b.len(), "state_sub: entry count mismatch");
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| {
            assert_eq!(x.name, y.name, "state_sub: entry name mismatch");
            StateEntry {
                name: x.name.clone(),
                tensor: x.tensor.sub(&y.tensor),
                trainable: x.trainable,
            }
        })
        .collect()
}

/// Elementwise `a + b` over two equally-shaped snapshots.
pub fn state_add(a: &[StateEntry], b: &[StateEntry]) -> Vec<StateEntry> {
    assert_eq!(a.len(), b.len(), "state_add: entry count mismatch");
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| {
            assert_eq!(x.name, y.name, "state_add: entry name mismatch");
            StateEntry {
                name: x.name.clone(),
                tensor: x.tensor.add(&y.tensor),
                trainable: x.trainable,
            }
        })
        .collect()
}

/// Scales every tensor in the snapshot by `s`.
pub fn state_scale(state: &[StateEntry], s: f32) -> Vec<StateEntry> {
    state
        .iter()
        .map(|e| StateEntry {
            name: e.name.clone(),
            tensor: e.tensor.scale(s),
            trainable: e.trainable,
        })
        .collect()
}

/// Squared L2 distance between two snapshots — the paper's pruning error
/// `Q = E‖x − x_n‖²` evaluated on concrete states.
pub fn state_sq_distance(a: &[StateEntry], b: &[StateEntry]) -> f32 {
    assert_eq!(a.len(), b.len(), "state_sq_distance: entry count mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x.tensor.sq_distance(&y.tensor)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(vals: &[f32]) -> Vec<StateEntry> {
        vec![StateEntry::trainable("w", Tensor::from_vec(vals.to_vec(), &[vals.len()]).unwrap())]
    }

    #[test]
    fn param_zero_grad() {
        let mut p = Param::new(Tensor::ones(&[3]));
        p.grad.fill(2.0);
        p.zero_grad();
        assert_eq!(p.grad.data(), &[0.0, 0.0, 0.0]);
        assert_eq!(p.numel(), 3);
    }

    #[test]
    fn state_arithmetic() {
        let a = snap(&[3.0, 4.0]);
        let b = snap(&[1.0, 1.0]);
        assert_eq!(state_sub(&a, &b)[0].tensor.data(), &[2.0, 3.0]);
        assert_eq!(state_add(&a, &b)[0].tensor.data(), &[4.0, 5.0]);
        assert_eq!(state_scale(&a, 0.5)[0].tensor.data(), &[1.5, 2.0]);
        assert_eq!(state_sq_distance(&a, &b), 4.0 + 9.0);
        assert_eq!(state_numel(&a), 2);
    }

    #[test]
    #[should_panic(expected = "entry count mismatch")]
    fn mismatched_snapshots_panic() {
        let a = snap(&[1.0]);
        let _ = state_sub(&a, &[]);
    }
}
