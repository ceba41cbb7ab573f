//! Stacked-LSTM language model for the paper's RNN extension (§VI,
//! Table IV): embedding → 2 × LSTM → linear decoder, trained with full
//! back-propagation through time.
//!
//! The LSTM's weights are laid out so that **Intrinsic Sparse Structure
//! (ISS) pruning** — removing hidden unit `k` simultaneously from all four
//! gates, the recurrent connections and the downstream consumers — is a
//! pure row/column selection implemented in `fedmp-pruning`.

use crate::init::Init;
use crate::param::{Param, StateEntry};
use fedmp_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Token-embedding table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Embedding {
    /// Table, `[vocab, dim]`.
    pub weight: Param,
    #[serde(skip)]
    cached_tokens: Vec<usize>,
}

impl Embedding {
    /// A new table whose entries `init` draws (`N(0, 0.1)`).
    pub fn new(vocab: usize, dim: usize, init: &mut impl Init) -> Self {
        Embedding { weight: Param::new(init.embedding(&[vocab, dim])), cached_tokens: Vec::new() }
    }

    /// Builds from a saved table.
    pub fn from_parts(weight: Tensor) -> Self {
        assert_eq!(weight.shape().rank(), 2, "embedding weight must be rank-2");
        Embedding { weight: Param::new(weight), cached_tokens: Vec::new() }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.weight.value.dims()[0]
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.weight.value.dims()[1]
    }

    /// Looks up a batch of tokens: returns `[batch, dim]`.
    pub fn forward(&mut self, tokens: &[usize]) -> Tensor {
        let dim = self.dim();
        let mut out = Tensor::zeros(&[tokens.len(), dim]);
        for (r, &tok) in tokens.iter().enumerate() {
            assert!(tok < self.vocab(), "token {tok} out of vocab {}", self.vocab());
            out.row_mut(r).copy_from_slice(self.weight.value.row(tok));
        }
        self.cached_tokens.extend_from_slice(tokens);
        out
    }

    /// Scatters gradients back into the table rows. Must be called once
    /// per `forward`, in reverse order.
    pub fn backward(&mut self, grad_out: &Tensor) {
        let batch = grad_out.dims()[0];
        assert!(self.cached_tokens.len() >= batch, "embedding backward without forward");
        let start = self.cached_tokens.len() - batch;
        for (r, &tok) in self.cached_tokens[start..].iter().enumerate() {
            let dst_base = tok * self.dim();
            let grad = self.weight.grad.data_mut();
            for (k, &g) in grad_out.row(r).iter().enumerate() {
                grad[dst_base + k] += g;
            }
        }
        self.cached_tokens.truncate(start);
    }

    /// Clears cached lookups (call between sequences).
    pub fn reset(&mut self) {
        self.cached_tokens.clear();
    }
}

#[derive(Debug, Clone)]
struct LstmStepCache {
    x: Tensor,
    h_prev: Tensor,
    c_prev: Tensor,
    i: Tensor,
    f: Tensor,
    g: Tensor,
    o: Tensor,
    tanh_c: Tensor,
}

/// One LSTM layer (gate order `i, f, g, o` along the 4h axis).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Lstm {
    /// Input weights, `[4h, in]`.
    pub w_x: Param,
    /// Recurrent weights, `[4h, h]`.
    pub w_h: Param,
    /// Gate biases, `[4h]` (forget-gate slice initialised to 1).
    pub bias: Param,
    #[serde(skip)]
    steps: Vec<LstmStepCache>,
}

impl Lstm {
    /// A new layer with `hidden` units over `input` features.
    pub fn new(input: usize, hidden: usize, init: &mut impl Init) -> Self {
        let mut bias = Tensor::zeros(&[4 * hidden]);
        // Forget-gate bias = 1: standard trick to avoid early vanishing.
        for v in &mut bias.data_mut()[hidden..2 * hidden] {
            *v = 1.0;
        }
        Lstm {
            w_x: Param::new(init.kaiming(&[4 * hidden, input], input)),
            w_h: Param::new(init.kaiming(&[4 * hidden, hidden], hidden)),
            bias: Param::new(bias),
            steps: Vec::new(),
        }
    }

    /// Builds from saved tensors (ISS-pruning reconstruction).
    pub fn from_parts(w_x: Tensor, w_h: Tensor, bias: Tensor) -> Self {
        let h4 = w_x.dims()[0];
        assert_eq!(h4 % 4, 0, "lstm: first dim must be 4*hidden");
        assert_eq!(w_h.dims(), &[h4, h4 / 4], "lstm: w_h shape");
        assert_eq!(bias.numel(), h4, "lstm: bias length");
        Lstm {
            w_x: Param::new(w_x),
            w_h: Param::new(w_h),
            bias: Param::new(bias),
            steps: Vec::new(),
        }
    }

    /// Hidden-unit count.
    pub fn hidden(&self) -> usize {
        self.w_x.value.dims()[0] / 4
    }

    /// Input feature count.
    pub fn input_size(&self) -> usize {
        self.w_x.value.dims()[1]
    }

    /// Clears the BPTT cache (call before each sequence).
    pub fn reset(&mut self) {
        self.steps.clear();
    }

    /// One time step. `x` is `[batch, in]`; `h_prev`/`c_prev` are
    /// `[batch, h]`. Returns `(h, c)`.
    pub fn step(&mut self, x: &Tensor, h_prev: &Tensor, c_prev: &Tensor) -> (Tensor, Tensor) {
        let h = self.hidden();
        let batch = x.dims()[0];
        // z = x Wxᵀ + h_prev Whᵀ + b : [batch, 4h]
        let mut z = x.matmul_nt(&self.w_x.value);
        z.add_assign(&h_prev.matmul_nt(&self.w_h.value));
        let bias = self.bias.value.data();
        for r in 0..batch {
            for (v, &b) in z.row_mut(r).iter_mut().zip(bias.iter()) {
                *v += b;
            }
        }

        let mut i_g = Tensor::zeros(&[batch, h]);
        let mut f_g = Tensor::zeros(&[batch, h]);
        let mut g_g = Tensor::zeros(&[batch, h]);
        let mut o_g = Tensor::zeros(&[batch, h]);
        for r in 0..batch {
            let zr = z.row(r);
            for k in 0..h {
                i_g.row_mut(r)[k] = sigmoid(zr[k]);
                f_g.row_mut(r)[k] = sigmoid(zr[h + k]);
                g_g.row_mut(r)[k] = zr[2 * h + k].tanh();
                o_g.row_mut(r)[k] = sigmoid(zr[3 * h + k]);
            }
        }

        let c = f_g.mul(c_prev).add(&i_g.mul(&g_g));
        let tanh_c = c.map(f32::tanh);
        let h_out = o_g.mul(&tanh_c);

        self.steps.push(LstmStepCache {
            x: x.clone(),
            h_prev: h_prev.clone(),
            c_prev: c_prev.clone(),
            i: i_g,
            f: f_g,
            g: g_g,
            o: o_g,
            tanh_c,
        });
        (h_out, c)
    }

    /// Full-sequence BPTT. `grad_hs[t]` is the gradient flowing into the
    /// hidden output of step `t`. Returns the per-step input gradients.
    /// Consumes (clears) the step cache.
    pub fn backward_seq(&mut self, grad_hs: &[Tensor]) -> Vec<Tensor> {
        assert_eq!(grad_hs.len(), self.steps.len(), "lstm backward: step count mismatch");
        let h = self.hidden();
        let steps = std::mem::take(&mut self.steps);
        let batch = steps[0].x.dims()[0];
        let in_dim = self.input_size();

        let mut grad_xs = vec![Tensor::zeros(&[batch, in_dim]); steps.len()];
        let mut dh_next = Tensor::zeros(&[batch, h]);
        let mut dc_next = Tensor::zeros(&[batch, h]);

        for (t, cache) in steps.iter().enumerate().rev() {
            let dh = grad_hs[t].add(&dh_next);
            // dc = dh ⊙ o ⊙ (1 − tanh²c) + dc_next
            let one_minus_t2 = cache.tanh_c.map(|v| 1.0 - v * v);
            let dc = dh.mul(&cache.o).mul(&one_minus_t2).add(&dc_next);

            let d_o = dh.mul(&cache.tanh_c);
            let d_i = dc.mul(&cache.g);
            let d_f = dc.mul(&cache.c_prev);
            let d_g = dc.mul(&cache.i);

            // Pre-activation gradients.
            let d_i_pre = d_i.mul(&cache.i.map(|v| v * (1.0 - v)));
            let d_f_pre = d_f.mul(&cache.f.map(|v| v * (1.0 - v)));
            let d_g_pre = d_g.mul(&cache.g.map(|v| 1.0 - v * v));
            let d_o_pre = d_o.mul(&cache.o.map(|v| v * (1.0 - v)));

            // Pack into dz [batch, 4h] with gate order i,f,g,o.
            let mut dz = Tensor::zeros(&[batch, 4 * h]);
            for r in 0..batch {
                let dst = dz.row_mut(r);
                dst[..h].copy_from_slice(d_i_pre.row(r));
                dst[h..2 * h].copy_from_slice(d_f_pre.row(r));
                dst[2 * h..3 * h].copy_from_slice(d_g_pre.row(r));
                dst[3 * h..].copy_from_slice(d_o_pre.row(r));
            }

            self.w_x.grad.add_assign(&dz.matmul_tn(&cache.x));
            self.w_h.grad.add_assign(&dz.matmul_tn(&cache.h_prev));
            for r in 0..batch {
                for (gb, &v) in self.bias.grad.data_mut().iter_mut().zip(dz.row(r).iter()) {
                    *gb += v;
                }
            }

            grad_xs[t] = dz.matmul(&self.w_x.value);
            dh_next = dz.matmul(&self.w_h.value);
            dc_next = dc.mul(&cache.f);
        }
        grad_xs
    }
}

#[inline]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// The paper §VI language model: embedding → stacked LSTMs → decoder.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LstmLm {
    /// Token embedding.
    pub embedding: Embedding,
    /// Stacked LSTM layers (the paper uses two).
    pub lstms: Vec<Lstm>,
    /// Decoder to vocabulary logits.
    pub decoder: crate::linear::Linear,
}

impl LstmLm {
    /// Builds `vocab → embed_dim → hidden×layers → vocab`.
    pub fn new(
        vocab: usize,
        embed_dim: usize,
        hidden: usize,
        layers: usize,
        init: &mut impl Init,
    ) -> Self {
        assert!(layers >= 1, "lstm lm needs at least one layer");
        let mut lstms = Vec::with_capacity(layers);
        lstms.push(Lstm::new(embed_dim, hidden, init));
        for _ in 1..layers {
            lstms.push(Lstm::new(hidden, hidden, init));
        }
        LstmLm {
            embedding: Embedding::new(vocab, embed_dim, init),
            lstms,
            decoder: crate::linear::Linear::new(hidden, vocab, init),
        }
    }

    /// Runs a `[batch, seq]` token grid through the model, returning the
    /// logits of every position stacked as `[batch*seq, vocab]` in
    /// time-major order (all positions of step 0 first).
    ///
    /// Caches everything needed for [`LstmLm::backward`].
    pub fn forward(&mut self, tokens: &[Vec<usize>]) -> Tensor {
        let batch = tokens.len();
        assert!(batch > 0, "empty batch");
        let seq = tokens[0].len();
        assert!(tokens.iter().all(|t| t.len() == seq), "ragged sequences");

        self.embedding.reset();
        for l in &mut self.lstms {
            l.reset();
        }

        let h = self.lstms.last().expect("non-empty lstm stack").hidden();
        let mut hs: Vec<Tensor> = Vec::with_capacity(seq);
        let mut states: Vec<(Tensor, Tensor)> = self
            .lstms
            .iter()
            .map(|l| (Tensor::zeros(&[batch, l.hidden()]), Tensor::zeros(&[batch, l.hidden()])))
            .collect();

        for t in 0..seq {
            let step_tokens: Vec<usize> = tokens.iter().map(|row| row[t]).collect();
            let mut x = self.embedding.forward(&step_tokens);
            for (li, l) in self.lstms.iter_mut().enumerate() {
                let (h_new, c_new) = l.step(&x, &states[li].0, &states[li].1);
                states[li] = (h_new.clone(), c_new);
                x = h_new;
            }
            hs.push(x);
        }

        // Decode every step.
        let mut all = Tensor::zeros(&[batch * seq, h]);
        for (t, ht) in hs.iter().enumerate() {
            for r in 0..batch {
                all.row_mut(t * batch + r).copy_from_slice(ht.row(r));
            }
        }
        self.decoder.forward(&all, true)
    }

    /// Backward from the logits gradient produced by
    /// [`fedmp_tensor::cross_entropy_loss`] on the stacked logits.
    pub fn backward(&mut self, grad_logits: &Tensor) {
        let grad_h_all = self.decoder.backward(grad_logits); // [batch*seq, h]
        let n_layers = self.lstms.len();
        let seq = self.lstms[n_layers - 1].steps.len();
        let batch = grad_h_all.dims()[0] / seq;
        let h = self.lstms[n_layers - 1].hidden();

        // Unstack into per-step gradients for the top LSTM.
        let mut grad_hs: Vec<Tensor> = Vec::with_capacity(seq);
        for t in 0..seq {
            let mut g = Tensor::zeros(&[batch, h]);
            for r in 0..batch {
                g.row_mut(r).copy_from_slice(grad_h_all.row(t * batch + r));
            }
            grad_hs.push(g);
        }

        // Backward through the stack, top layer first.
        for li in (0..n_layers).rev() {
            grad_hs = self.lstms[li].backward_seq(&grad_hs);
        }
        // grad_hs now holds embedding gradients per step; scatter them
        // (reverse order — the embedding cache is a stack).
        for g in grad_hs.iter().rev() {
            self.embedding.backward(g);
        }
    }

    /// Visits every trainable parameter.
    pub fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.embedding.weight);
        for l in &mut self.lstms {
            f(&mut l.w_x);
            f(&mut l.w_h);
            f(&mut l.bias);
        }
        f(&mut self.decoder.weight);
        f(&mut self.decoder.bias);
    }

    /// Zeroes every gradient.
    pub fn zero_grad(&mut self) {
        self.for_each_param_mut(&mut |p| p.zero_grad());
    }

    /// Ordered named snapshot (FL interchange format).
    pub fn state(&self) -> Vec<StateEntry> {
        let mut out =
            vec![StateEntry::trainable("embedding.weight", self.embedding.weight.value.clone())];
        for (i, l) in self.lstms.iter().enumerate() {
            out.push(StateEntry::trainable(format!("lstm.{i}.w_x"), l.w_x.value.clone()));
            out.push(StateEntry::trainable(format!("lstm.{i}.w_h"), l.w_h.value.clone()));
            out.push(StateEntry::trainable(format!("lstm.{i}.bias"), l.bias.value.clone()));
        }
        out.push(StateEntry::trainable("decoder.weight", self.decoder.weight.value.clone()));
        out.push(StateEntry::trainable("decoder.bias", self.decoder.bias.value.clone()));
        out
    }

    /// Loads a snapshot from [`LstmLm::state`] on an identical
    /// architecture.
    pub fn load_state(&mut self, entries: &[StateEntry]) {
        let expected = 1 + 3 * self.lstms.len() + 2;
        assert_eq!(entries.len(), expected, "lstm lm load_state: entry count");
        let mut it = entries.iter();
        let mut next = |name: &str| {
            let e = it.next().expect("exhausted entries");
            assert_eq!(e.name, name, "lstm lm load_state: expected {name}");
            e.tensor.clone()
        };
        self.embedding.weight.value = next("embedding.weight");
        for i in 0..self.lstms.len() {
            self.lstms[i].w_x.value = next(&format!("lstm.{i}.w_x"));
            self.lstms[i].w_h.value = next(&format!("lstm.{i}.w_h"));
            self.lstms[i].bias.value = next(&format!("lstm.{i}.bias"));
        }
        self.decoder.weight.value = next("decoder.weight");
        self.decoder.bias.value = next("decoder.bias");
    }

    /// Total trainable parameter count.
    pub fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.for_each_param_mut(&mut |p| n += p.numel());
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedmp_tensor::{cross_entropy_loss, seeded_rng};

    #[test]
    fn embedding_lookup_and_scatter() {
        let mut rng = seeded_rng(90);
        let mut e = Embedding::new(5, 3, &mut rng);
        let x = e.forward(&[2, 4]);
        assert_eq!(x.dims(), &[2, 3]);
        assert_eq!(x.row(0), e.weight.value.row(2));
        let g = Tensor::ones(&[2, 3]);
        e.backward(&g);
        assert_eq!(e.weight.grad.row(2), &[1.0, 1.0, 1.0]);
        assert_eq!(e.weight.grad.row(0), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn lstm_step_shapes_and_gates() {
        let mut rng = seeded_rng(91);
        let mut l = Lstm::new(6, 4, &mut rng);
        let x = Tensor::randn(&[3, 6], &mut rng);
        let h0 = Tensor::zeros(&[3, 4]);
        let c0 = Tensor::zeros(&[3, 4]);
        let (h1, c1) = l.step(&x, &h0, &c0);
        assert_eq!(h1.dims(), &[3, 4]);
        assert_eq!(c1.dims(), &[3, 4]);
        // h = o * tanh(c) bounds |h| < 1.
        assert!(h1.data().iter().all(|v| v.abs() < 1.0));
    }

    #[test]
    fn lstm_bptt_gradient_check() {
        let mut rng = seeded_rng(92);
        let mut l = Lstm::new(3, 2, &mut rng);
        let xs: Vec<Tensor> = (0..3).map(|_| Tensor::randn(&[2, 3], &mut rng)).collect();

        let run = |l: &Lstm, xs: &[Tensor]| -> f32 {
            let mut l = l.clone();
            l.reset();
            let mut h = Tensor::zeros(&[2, 2]);
            let mut c = Tensor::zeros(&[2, 2]);
            let mut total = 0.0;
            for x in xs {
                let (h2, c2) = l.step(x, &h, &c);
                total += h2.sum();
                h = h2;
                c = c2;
            }
            total
        };

        // Analytic gradients: dLoss/dh_t = 1 for every step output.
        l.reset();
        let mut h = Tensor::zeros(&[2, 2]);
        let mut c = Tensor::zeros(&[2, 2]);
        for x in &xs {
            let (h2, c2) = l.step(x, &h, &c);
            h = h2;
            c = c2;
        }
        let grad_hs = vec![Tensor::ones(&[2, 2]); 3];
        let grad_xs = l.backward_seq(&grad_hs);

        let eps = 1e-2f32;
        // Check input gradient at a few positions of step 1.
        for idx in [0usize, 3, 5] {
            let mut xp = xs.clone();
            xp[1].data_mut()[idx] += eps;
            let mut xm = xs.clone();
            xm[1].data_mut()[idx] -= eps;
            let num = (run(&l, &xp) - run(&l, &xm)) / (2.0 * eps);
            let ana = grad_xs[1].data()[idx];
            assert!((num - ana).abs() < 2e-2, "x grad {idx}: {num} vs {ana}");
        }
        // Check weight gradients at a few positions.
        for idx in [0usize, 7, 13] {
            let mut lp = l.clone();
            lp.w_x.value.data_mut()[idx] += eps;
            let mut lm = l.clone();
            lm.w_x.value.data_mut()[idx] -= eps;
            let num = (run(&lp, &xs) - run(&lm, &xs)) / (2.0 * eps);
            let ana = l.w_x.grad.data()[idx];
            assert!((num - ana).abs() < 2e-2, "w_x grad {idx}: {num} vs {ana}");
        }
    }

    #[test]
    fn lm_forward_backward_and_training_reduces_loss() {
        let mut rng = seeded_rng(93);
        let mut lm = LstmLm::new(12, 8, 10, 2, &mut rng);
        // A trivially learnable sequence: token t+1 follows token t.
        let tokens: Vec<Vec<usize>> =
            (0..4).map(|b| (0..6).map(|t| (b + t) % 12).collect()).collect();
        let targets: Vec<usize> = {
            // time-major to match forward's stacking
            let mut v = Vec::new();
            for t in 0..6 {
                for row in &tokens {
                    v.push((row[t] + 1) % 12);
                }
            }
            v
        };

        let mut first_loss = 0.0;
        let mut last_loss = 0.0;
        for step in 0..60 {
            lm.zero_grad();
            let logits = lm.forward(&tokens);
            let out = cross_entropy_loss(&logits, &targets);
            lm.backward(&out.grad_logits);
            lm.for_each_param_mut(&mut |p| {
                let g = p.grad.clone();
                p.value.axpy(-0.5, &g);
            });
            if step == 0 {
                first_loss = out.loss;
            }
            last_loss = out.loss;
        }
        assert!(last_loss < first_loss * 0.5, "loss {first_loss} -> {last_loss}");
    }

    #[test]
    fn lm_state_roundtrip() {
        let mut rng = seeded_rng(94);
        let lm = LstmLm::new(10, 4, 6, 2, &mut rng);
        let state = lm.state();
        assert_eq!(state.len(), 1 + 6 + 2);
        let mut lm2 = LstmLm::new(10, 4, 6, 2, &mut rng);
        lm2.load_state(&state);
        assert_eq!(lm2.state()[3].tensor, state[3].tensor);
    }
}
