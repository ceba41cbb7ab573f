//! An independent f64 reference for one FedMP round at ρ > 0, written
//! from DESIGN's description rather than the `pruning`/`fl` sources: the
//! plan (ℓ1 importance over a unit's incoming weights, keep ⌈(1−ρ)·n⌉ ≥ 1
//! units, the classifier head and residual-block outputs pinned), the
//! extracted sub-model, τ momentum-SGD steps under the gradient-norm
//! clip, then R2SP (Eq. 2: the mean of recovered + residual, so a pruned
//! position keeps the global's value) or BSP (the mean of the recovered
//! models, zeros where pruned). Every tensor of the aggregated global,
//! BN running statistics included, must agree with `run_fedmp`'s.
//!
//! The ratios are round 0's E-UCB pulls, read back from the run's
//! `RoundRecord`. Batches come from `BatchIter` seeded by DESIGN §12's
//! `worker_rng`. AlexNet's dropout layers restart their mask streams
//! from their fixed seeds in every extracted sub-model, and so do the
//! reference's. The aggregated global is read through a wrapper model
//! whose `evaluate`, called after the last round, snapshots it.

use fedmp::data::{cifar_like, emnist_like, iid_partition, mnist_like, tiny_imagenet_like};
use fedmp::data::{BatchIter, SynthSpec};
use fedmp::edgesim::{tx2_profile, ComputeMode::*, LinkQuality::*, RoundCost, TimeModel};
use fedmp::fl::{run_fedmp, FedMpOptions, FlConfig, FlModel, FlSetup, ImageTask, LocalOutcome};
use fedmp::fl::{LocalTrainConfig as Local, SyncScheme};
use fedmp::nn::{zoo, LayerNode, Sequential, StateEntry};
use fedmp::pruning::{Importance, PrunePlan};
use fedmp::tensor::seeded_rng;
use rand::{rngs::StdRng, Rng};
use std::cell::RefCell;

const SEED: u64 = 3;
const LOCAL: Local = Local { tau: 2, batch: 4, lr: 0.05, momentum: 0.9, prox_mu: 0.0, clip: 1.0 };
/// `alexnet_cifar`'s dropout layers' seeds, in layer order.
const DROPOUT_SEEDS: [u64; 2] = [17, 18];

thread_local!(static AGGREGATED: RefCell<Vec<StateEntry>> = const { RefCell::new(Vec::new()) });

/// `Sequential` under the round body, snapshotting what it evaluates.
struct Spy(Sequential);

impl FlModel for Spy {
    type Task = ImageTask;
    type Plan = PrunePlan;
    const TIME_SALT: u64 = Sequential::TIME_SALT;
    fn plan(&self, task: &ImageTask, ratio: f32, importance: Importance) -> PrunePlan {
        self.0.plan(task, ratio, importance)
    }
    fn extract(&self, plan: &PrunePlan) -> Self {
        Spy(FlModel::extract(&self.0, plan))
    }
    fn recover(&self, plan: &PrunePlan, global: &Self) -> Vec<StateEntry> {
        self.0.recover(plan, &global.0)
    }
    fn round_cost(&self, task: &ImageTask, local: &Local) -> RoundCost {
        self.0.round_cost(task, local)
    }
    fn train(&mut self, t: &ImageTask, w: usize, s: u64, r: usize, l: &Local) -> LocalOutcome {
        self.0.train(t, w, s, r, l)
    }
    fn evaluate(&mut self, task: &ImageTask, cfg: &FlConfig) -> (f32, f32) {
        AGGREGATED.with(|a| *a.borrow_mut() = FlModel::state(&self.0));
        self.0.evaluate(task, cfg)
    }
    fn state(&self) -> Vec<StateEntry> {
        FlModel::state(&self.0)
    }
    fn load_state(&mut self, state: &[StateEntry]) {
        FlModel::load_state(&mut self.0, state);
    }
}

/// DESIGN §12's `worker_rng`.
fn worker_rng(seed: u64, round: u64, worker: u64) -> StdRng {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(round + 1))
        .wrapping_add(0xBF58_476D_1CE4_E5B9u64.wrapping_mul(worker + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    seeded_rng(z ^ (z >> 31))
}

/// A sub-model layer; `at` is the index of its first state entry. A
/// linear layer is a 1×1 convolution of a 1×1 input.
enum Node {
    Conv { at: usize, oc: usize, k: usize, s: usize, p: usize },
    Bn { at: usize, m: f64, eps: f64 },
    Relu,
    Pool { k: usize, max: bool },
    Flat,
    Drop(f32, StdRng),
    Res(Vec<Node>, Vec<Node>),
}

type State = Vec<Vec<f64>>;
/// What flows out of a layer while planning: its kept channels, and its
/// spatial side.
type Flow = (Vec<usize>, usize);

/// One sub-model's plan: per state entry, the flat full-model indices it
/// keeps, in sub-model order.
struct Planner<'a> {
    global: &'a State,
    ratio: f32,
    at: usize,
    keep: Vec<Vec<usize>>,
}

impl Planner<'_> {
    /// Plans `layers`; the classifier head keeps every output, and `pin`
    /// fixes the last conv's (a residual body's).
    fn plan(&mut self, layers: &[LayerNode], f: Flow, pin: Option<&[usize]>) -> (Vec<Node>, Flow) {
        let ((mut kept, mut hw), mut sub) = (f, Vec::new());
        let head = layers.iter().rposition(|l| matches!(l, LayerNode::Linear(_)));
        let last_conv = layers.iter().rposition(|l| matches!(l, LayerNode::Conv2d(_)));
        for (i, layer) in layers.iter().enumerate() {
            let at = self.at;
            sub.push(match layer {
                LayerNode::Conv2d(_) | LayerNode::Linear(_) => {
                    let (k, s, p) = match layer {
                        LayerNode::Conv2d(c) => (c.spec.kh, c.spec.stride, c.spec.padding),
                        _ => (1, 1, 0),
                    };
                    // The ⌈(1−ρ)·oc⌉ ≥ 1 units largest by ℓ1, ties to the
                    // lower index.
                    let (w, oc) = (&self.global[at], self.global[at + 1].len());
                    let unit = w.len() / oc;
                    let l1 = |u: usize| w[u * unit..][..unit].iter().map(|v| v.abs()).sum::<f64>();
                    let mut out: Vec<usize> = (0..oc).collect();
                    if Some(i) != head {
                        out.sort_by(|&a, &b| l1(b).total_cmp(&l1(a)).then(a.cmp(&b)));
                        out.truncate((((1.0 - self.ratio) * oc as f32).ceil() as usize).max(1));
                        out.sort_unstable();
                    }
                    if let Some(pinned) = pin.filter(|_| Some(i) == last_conv) {
                        out = pinned.to_vec();
                    }
                    let cell =
                        |o: usize, c: usize| o * unit + c * k * k..o * unit + (c + 1) * k * k;
                    let cells = |&o: &usize| kept.iter().flat_map(move |&c| cell(o, c));
                    self.keep[at] = out.iter().flat_map(cells).collect();
                    self.keep[at + 1] = out.clone();
                    (kept, hw, self.at) = (out, (hw + 2 * p - k) / s + 1, at + 2);
                    Node::Conv { at, oc: kept.len(), k, s, p }
                }
                LayerNode::BatchNorm2d(b) => {
                    (0..4).for_each(|e| self.keep[at + e] = kept.clone());
                    self.at += 4;
                    Node::Bn { at, m: f64::from(b.momentum), eps: f64::from(b.eps) }
                }
                LayerNode::MaxPool2d(q) => {
                    hw /= q.spec.kh;
                    Node::Pool { k: q.spec.kh, max: true }
                }
                LayerNode::AvgPool2d(q) => {
                    hw /= q.spec.kh;
                    Node::Pool { k: q.spec.kh, max: false }
                }
                LayerNode::Flatten(_) => {
                    kept = kept.iter().flat_map(|&c| c * hw * hw..(c + 1) * hw * hw).collect();
                    hw = 1;
                    Node::Flat
                }
                LayerNode::ReLU(_) => Node::Relu,
                LayerNode::Dropout(d) => {
                    let nth = sub.iter().filter(|n| matches!(n, Node::Drop(..))).count();
                    Node::Drop(d.p, seeded_rng(DROPOUT_SEEDS[nth]))
                }
                LayerNode::Residual(b) => {
                    // Both paths end on the incoming channels (identity
                    // shortcut) or on the projection's full width, which
                    // the shortcut keeps at ρ = 0.
                    let out: Vec<usize> = match b.shortcut.first() {
                        Some(LayerNode::Conv2d(c)) => (0..c.weight.value.dims()[0]).collect(),
                        _ => kept.clone(),
                    };
                    let (body, flow) = self.plan(&b.body, (kept.clone(), hw), Some(&out));
                    let ratio = std::mem::replace(&mut self.ratio, 0.0);
                    let (short, _) = self.plan(&b.shortcut, (kept, hw), None);
                    ((kept, hw), self.ratio) = (flow, ratio);
                    Node::Res(body, short)
                }
            });
        }
        (sub, (kept, hw))
    }
}

/// A batch of `n` activations of `c` channels of `hw × hw`.
#[derive(Clone)]
struct Act {
    v: Vec<f64>,
    n: usize,
    c: usize,
    hw: usize,
}

impl Act {
    /// Flat indices of channel `ch` in every sample.
    fn plane(&self, ch: usize) -> impl Iterator<Item = usize> + '_ {
        let sq = self.hw * self.hw;
        (0..self.n).flat_map(move |i| (i * self.c + ch) * sq..(i * self.c + ch + 1) * sq)
    }

    fn zeros(&self) -> Act {
        Act { v: vec![0.0; self.v.len()], ..*self }
    }
}

/// A layer's backward pass: the output's gradient in, the input's out;
/// parameter gradients accumulate into the `State`.
type Back = Box<dyn FnOnce(&mut State, Act) -> Act>;

/// Calls `f(input, weight, output)` (flat indices) for every term of a
/// convolution of `x` into `oc` channels of side `o`.
fn conv_terms(x: &Act, [oc, k, s, p, o]: [usize; 5], mut f: impl FnMut(usize, usize, usize)) {
    let (ic, hw) = (x.c, x.hw);
    for (j, e) in (0..x.n * oc * o * o).flat_map(|j| (0..ic * k * k).map(move |e| (j, e))) {
        let (i, co, yx, ci) = (j / (oc * o * o), j / (o * o) % oc, j % (o * o), e / (k * k));
        let iy = (yx / o * s + e / k % k).wrapping_sub(p);
        let ix = (yx % o * s + e % k).wrapping_sub(p);
        if iy < hw && ix < hw {
            f(((i * ic + ci) * hw + iy) * hw + ix, co * ic * k * k + e, j);
        }
    }
}

/// A layer that is a fixed linear map of its input (a ReLU or dropout
/// mask, pooling, flattening): output `j` is Σ w·x[i] over its routes.
fn routed(x: &Act, routes: Vec<Vec<(usize, f64)>>, c: usize, hw: usize) -> (Act, Back) {
    let v = routes.iter().map(|r| r.iter().map(|&(i, w)| w * x.v[i]).sum()).collect();
    let mut gx = x.zeros();
    let back = move |_: &mut State, g: Act| {
        routes.iter().zip(&g.v).for_each(|(r, gj)| r.iter().for_each(|&(i, w)| gx.v[i] += w * gj));
        gx
    };
    (Act { v, c, hw, ..*x }, Box::new(back))
}

/// A ReLU or dropout: output `j` is input `j` times `mask[j]`.
fn gate(x: &Act, mask: impl Iterator<Item = f64>) -> (Act, Back) {
    routed(x, mask.enumerate().map(|(j, m)| vec![(j, m)]).collect(), x.c, x.hw)
}

fn relu(x: &Act) -> (Act, Back) {
    gate(x, x.v.iter().map(|&v| f64::from(u8::from(v > 0.0))))
}

fn sum(a: &Act, b: &Act) -> Act {
    Act { v: a.v.iter().zip(&b.v).map(|(x, y)| x + y).collect(), ..*a }
}

/// Runs `layers` in training mode, pushing each one's backward pass.
fn forward(layers: &mut [Node], st: &mut State, mut x: Act, backs: &mut Vec<Back>) -> Act {
    for node in layers {
        let sq = x.hw * x.hw;
        let (y, back): (Act, Back) = match node {
            &mut Node::Conv { at, oc, k, s, p } => {
                let o = (x.hw + 2 * p - k) / s + 1;
                let mut y = Act { v: vec![0.0; x.n * oc * o * o], c: oc, hw: o, ..x };
                y.v.iter_mut().enumerate().for_each(|(j, v)| *v = st[at + 1][j / (o * o) % oc]);
                conv_terms(&x, [oc, k, s, p, o], |xi, wi, yi| y.v[yi] += x.v[xi] * st[at][wi]);
                let w = st[at].clone();
                let back = move |gr: &mut State, g: Act| {
                    let mut gx = x.zeros();
                    conv_terms(&x, [oc, k, s, p, o], |xi, wi, yi| {
                        gr[at][wi] += g.v[yi] * x.v[xi];
                        gx.v[xi] += w[wi] * g.v[yi];
                    });
                    (0..oc).for_each(|c| gr[at + 1][c] += g.plane(c).map(|j| g.v[j]).sum::<f64>());
                    gx
                };
                (y, Box::new(back))
            }
            &mut Node::Bn { at, m, eps } => {
                let (mut y, mut xhat, mut inv) = (x.clone(), x.zeros(), vec![0.0; x.c]);
                let cnt = (x.n * sq) as f64;
                for ch in 0..x.c {
                    let mean = x.plane(ch).map(|j| x.v[j]).sum::<f64>() / cnt;
                    let var = x.plane(ch).map(|j| (x.v[j] - mean).powi(2)).sum::<f64>() / cnt;
                    inv[ch] = 1.0 / (var + eps).sqrt();
                    for j in x.plane(ch) {
                        xhat.v[j] = (x.v[j] - mean) * inv[ch];
                        y.v[j] = st[at][ch] * xhat.v[j] + st[at + 1][ch];
                    }
                    st[at + 2][ch] = (1.0 - m) * st[at + 2][ch] + m * mean;
                    st[at + 3][ch] = (1.0 - m) * st[at + 3][ch] + m * var;
                }
                let gamma = st[at].clone();
                let back = move |gr: &mut State, g: Act| {
                    let mut gx = g.clone();
                    for ch in 0..g.c {
                        let dg = g.plane(ch).map(|j| g.v[j] * xhat.v[j]).sum::<f64>();
                        let db = g.plane(ch).map(|j| g.v[j]).sum::<f64>();
                        (gr[at][ch], gr[at + 1][ch]) = (gr[at][ch] + dg, gr[at + 1][ch] + db);
                        let d =
                            |j: usize| gamma[ch] * inv[ch] * (g.v[j] - (db + xhat.v[j] * dg) / cnt);
                        g.plane(ch).for_each(|j| gx.v[j] = d(j));
                    }
                    gx
                };
                (y, Box::new(back))
            }
            Node::Relu => relu(&x),
            Node::Drop(p, rng) => {
                let (keep, scale) = (1.0 - *p, f64::from(1.0 / (1.0 - *p)));
                gate(&x, x.v.iter().map(|_| f64::from(u8::from(rng.gen::<f32>() < keep)) * scale))
            }
            &mut Node::Pool { k, max } => {
                // Max pooling routes each window to its first maximum.
                let o = (x.hw - k) / k + 1;
                let at = |j: usize, e: usize| (j / o * k + e / k) * x.hw + j % o * k + e % k;
                let win = |j: usize| (0..k * k).map(move |e| j / (o * o) * sq + at(j % (o * o), e));
                let route = |j: usize| match max {
                    true => vec![(
                        win(j).reduce(|a, b| if x.v[b] > x.v[a] { b } else { a }).unwrap(),
                        1.0,
                    )],
                    false => win(j).map(|i| (i, 1.0 / (k * k) as f64)).collect(),
                };
                routed(&x, (0..x.n * x.c * o * o).map(route).collect(), x.c, o)
            }
            Node::Flat => routed(&x, (0..x.v.len()).map(|j| vec![(j, 1.0)]).collect(), x.c * sq, 1),
            Node::Res(body, short) => {
                let (mut main, mut side) = (Vec::new(), Vec::new());
                let y = forward(body, st, x.clone(), &mut main);
                let (y, out) = relu(&sum(&y, &forward(short, st, x, &mut side)));
                let back = move |gr: &mut State, g: Act| {
                    let g = out(gr, g);
                    let gs = side.into_iter().rev().fold(g.clone(), |g, b| b(gr, g));
                    sum(&main.into_iter().rev().fold(g, |g, b| b(gr, g)), &gs)
                };
                (y, Box::new(back))
            }
        };
        backs.push(back);
        x = y;
    }
    x
}

/// Worker `w`'s local step at `ratio`: per state entry and full-model
/// position, the trained value, or `None` where its plan pruned.
fn train(
    global: &Sequential,
    g: &State,
    task: &ImageTask,
    w: usize,
    ratio: f32,
) -> Vec<Vec<Option<f64>>> {
    let mut planner = Planner { global: g, ratio, at: 0, keep: vec![Vec::new(); g.len()] };
    let (c, h, _) = task.input_chw;
    let (mut arch, _) = planner.plan(&global.layers, ((0..c).collect(), h), None);
    let keep = planner.keep;
    let mut sub: State =
        keep.iter().zip(g).map(|(k, g)| k.iter().map(|&j| g[j]).collect()).collect();
    let zeros = |s: &State| -> State { s.iter().map(|e| vec![0.0; e.len()]).collect() };
    let (mut velocity, entries) = (zeros(&sub), FlModel::state(global));
    let rng = worker_rng(SEED, 0, w as u64);
    let mut batches = BatchIter::new(&task.train, task.partition[w].clone(), LOCAL.batch, rng);
    for _ in 0..LOCAL.tau {
        let (x, labels) = batches.next_batch();
        let x =
            Act { v: x.data().iter().map(|&v| f64::from(v)).collect(), n: labels.len(), c, hw: h };
        let mut backs = Vec::new();
        let mut g = forward(&mut arch, &mut sub, x, &mut backs);
        // Cross-entropy's gradient, mean over the batch.
        for (row, &label) in g.v.chunks_mut(g.c).zip(&labels) {
            let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let z: f64 = row.iter().map(|v| (v - max).exp()).sum();
            for (o, v) in row.iter_mut().enumerate() {
                *v = ((*v - max).exp() / z - f64::from(u8::from(o == label))) / labels.len() as f64;
            }
        }
        let mut grads = zeros(&sub);
        backs.into_iter().rev().fold(g, |g, back| back(&mut grads, g));
        let params: Vec<usize> = (0..sub.len()).filter(|&e| entries[e].trainable).collect();
        let norm = params.iter().flat_map(|&e| &grads[e]).map(|g| g * g).sum::<f64>().sqrt();
        let scale = f64::from(LOCAL.clip) / norm.max(f64::from(LOCAL.clip));
        for e in params {
            for ((p, v), g) in sub[e].iter_mut().zip(&mut velocity[e]).zip(&grads[e]) {
                *v = f64::from(LOCAL.momentum) * *v + g * scale;
                *p -= f64::from(LOCAL.lr) * *v;
            }
        }
    }
    let mut trained: Vec<Vec<Option<f64>>> = g.iter().map(|e| vec![None; e.len()]).collect();
    for (e, keep) in keep.iter().enumerate() {
        keep.iter().zip(&sub[e]).for_each(|(&j, &v)| trained[e][j] = Some(v));
    }
    trained
}

fn check(spec: SynthSpec, build: fn(f32, &mut StdRng) -> Sequential, width: f32) {
    let (train_set, test) = spec.generate();
    let mut rng = seeded_rng(SEED);
    let partition = iid_partition(&train_set, 3, &mut rng);
    let task = ImageTask::new(train_set, test, partition);
    let global = build(width, &mut rng);
    let devices = vec![tx2_profile(Mode0, Near), tx2_profile(Mode1, Mid), tx2_profile(Mode3, Far)];
    let setup = FlSetup::new(&task, devices, TimeModel::deterministic());
    let cfg =
        FlConfig { rounds: 1, local: LOCAL, eval_max_samples: 8, seed: SEED, ..Default::default() };
    let entries = FlModel::state(&global);
    let g: State =
        entries.iter().map(|e| e.tensor.data().iter().map(|&v| f64::from(v)).collect()).collect();

    // Tolerance: γₙ = n·u/(1 − n·u) bounds an f32 reduction of n terms
    // relatively (u = 2⁻²⁴); n is the longest, a fan-in or batch × plane
    // (a channel's statistics or weight gradient). Compounded over the D
    // reducing layers, it bounds each tensor's pre-round value plus its τ
    // momentum steps, lr·clip·τ(τ+1)/2 at most.
    let fan_in = entries.iter().map(|e| e.tensor.numel() / e.tensor.dims()[0]).max().unwrap();
    let n = fan_in.max(LOCAL.batch * task.input_chw.1.pow(2)) as f64;
    let u = f64::from(f32::EPSILON) / 2.0;
    let depth = entries.iter().filter(|e| e.name.ends_with("bias") || e.name.ends_with("beta"));
    let drift = depth.count() as f64 * n * u / (1.0 - n * u);
    let steps = f64::from(LOCAL.lr * LOCAL.clip) * (LOCAL.tau * (LOCAL.tau + 1) / 2) as f64;

    for sync in [SyncScheme::R2SP, SyncScheme::BSP] {
        let opts = FedMpOptions { sync, ..Default::default() };
        let ratios = run_fedmp(&cfg, &setup, Spy(global.clone()), &opts).rounds[0].ratios.clone();
        let got = AGGREGATED.with(|a| a.take());
        assert!(ratios[0] != ratios[1] && ratios[1] != ratios[2] && ratios[0] != ratios[2]);
        let trained = |(w, &r): (usize, &f32)| train(&global, &g, &task, w, r);
        let workers: Vec<_> = ratios.iter().enumerate().map(trained).collect();
        for (e, entry) in entries.iter().enumerate() {
            for (j, &x) in got[e].tensor.data().iter().enumerate() {
                // Recovered + residual is the trained value where kept and
                // the global's where pruned; recovered alone has a zero.
                let pruned = if sync == SyncScheme::R2SP { g[e][j] } else { 0.0 };
                let want = workers.iter().map(|t| t[e][j].unwrap_or(pruned)).sum::<f64>() / 3.0;
                let tol = drift * (want.abs() + steps) + u * want.abs();
                let at = format!("{sync:?} {}[{j}]", entry.name);
                assert!((f64::from(x) - want).abs() <= tol, "{at}: {x} vs {want} ± {tol:.1e}");
            }
        }
    }
}

macro_rules! rounds {
    ($($test:ident: $spec:expr, $model:path, $width:expr;)*) => {
        $(#[test] fn $test() { check($spec, $model, $width) })*
    };
}

rounds! {
    cnn_round_matches_the_reference: mnist_like(0.05, SEED), zoo::cnn_mnist, 0.1;
    alexnet_round_matches_the_reference: cifar_like(0.05, SEED), zoo::alexnet_cifar, 0.03;
    vgg_round_matches_the_reference: emnist_like(0.1, SEED), zoo::vgg_emnist, 0.03;
    resnet_round_matches_the_reference: tiny_imagenet_like(0.05, SEED), zoo::resnet_tiny, 0.05;
}
