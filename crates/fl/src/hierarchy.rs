//! Population-scale rounds: cohort sampling, streaming shard reducers
//! and two-tier (edge → cloud) hierarchical aggregation.
//!
//! The flat engines materialise every worker's full model per round —
//! O(clients × params) memory — which caps cohorts far below realistic
//! population sizes. This module replaces that with a fan-in tree:
//!
//! ```text
//!   sampled clients ──► shard reducers ──► edge aggregators ──► cloud PS
//!     (cohort, lazy)      (streaming,        (merge shard         (merge edge
//!                          O(params) each)    partials)            partials)
//! ```
//!
//! - **Population** — devices come from a seeded lazy
//!   [`fedmp_edgesim::Population`]; a 10⁵-device fleet is a few bytes,
//!   and each round samples a cohort without replacement.
//! - **Streaming shard reduction** — a client's completed update
//!   (recovered sub-model + residual, §III-C) is folded into its
//!   shard's [`ExactState`] accumulator immediately after its local
//!   step and then dropped, so peak memory is O(shards × params)
//!   regardless of cohort size.
//! - **Exact aggregation algebra** — shard accumulators hold
//!   [`ExactVec`] fixed-point registers, so merging shard → edge →
//!   cloud is integer addition: *any* (shards, edges) partition is
//!   bit-identical to the flat [`r2sp_aggregate`][crate::r2sp_aggregate]
//!   over the same delivered cohort. See `docs/SCALE.md` for the full
//!   argument.
//! - **Per-class adaptivity** — at population scale a sampled client
//!   may never return, so E-UCB pruning state lives per *device class*
//!   (4 compute modes × 3 link tiers): one `select()` per class per
//!   round, rewarded with the class's mean Eq. 8 outcome.
//! - **Chaos at both tiers** — a client-tier [`ChaosPlan`] can crash a
//!   device, lose either link direction or corrupt its upload
//!   (bounded retransmits with exponential backoff), and an
//!   independent edge-tier plan applies the same fault surface to each
//!   edge aggregator's cloud upload. Compression policies apply
//!   per-link exactly as in the flat engines (feedback-free: per-client
//!   error-feedback state would be O(population × params)).
//!
//! Two entry points share one round implementation and one compute
//! path (shards fanned out by [`crate::exec::ordered_map`]); they
//! differ only in how an edge's partial reaches the cloud:
//! [`run_fedmp_hier`] decides it by the closed form
//! (`ClientFate::from_draw`) and moves no frame,
//! [`run_fedmp_hier_threaded`] sends real checksummed `HPar` frames
//! through the collection barrier (`crate::barrier`), driven in place —
//! no thread, no channel. The two are bit-identical, including under
//! chaos, because every fault is a pure function of the seed and every
//! reduction is exact; `tests/hierarchy.rs` holds them together.

use crate::barrier::{Action, Barrier, Event};
use crate::chaos::{corrupted_copy, ChaosDraw, ChaosOptions, ChaosPlan};
use crate::checksum::fnv1a64;
use crate::engine::{
    emit_aggregate, emit_codec_selected, emit_cohort_sampled, emit_compression_applied,
    emit_edge_aggregate, emit_frame_retransmit, emit_kernel_dispatch, emit_local_train,
    emit_quorum_aggregate, emit_round_end, emit_round_start, emit_shard_reduced,
    emit_worker_excluded, evaluate_if_due, kernel_baseline, model_round_cost, worker_batches,
    worker_rng, CostScale, FlConfig,
};
use crate::exec;
use crate::history::{RoundRecord, RunHistory};
use crate::local::local_train;
use crate::runtime::{seeded_agents, RuntimeError};
use crate::task::ImageTask;
use crate::wire::{link_delivered, Codec, CompressionPolicy, LinkCodecs};
use bytes::Bytes;
use fedmp_bandit::{eucb_reward, Bandit, EUcbAgent, EUcbConfig, RewardConfig};
use fedmp_edgesim::{
    class_of, DeviceProfile, Population, RoundCost, RoundTime, TimeModel, CLASS_COUNT,
};
use fedmp_nn::{state_add, state_numel, state_sub, Sequential, StateEntry};
use fedmp_pruning::{
    extract_sequential, plan_sequential_with, recover_state, sparse_state, Importance, PrunePlan,
};
use fedmp_tensor::parallel::{sum_f32, sum_f64};
use fedmp_tensor::{ExactSum, ExactVec, Tensor};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::Range;

// ---- exact streaming state ----------------------------------------------

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
    /// scaled by `1/n` — the exact computation
    /// [`average_states`][crate::average_states] performs, which is why
    /// a hierarchy finalising here is bit-identical to the flat call.
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

    /// Serialises the accumulator into a checksummed wire frame (the
    /// edge → cloud partial-sum upload of [`run_fedmp_hier_threaded`]).
    /// Layout: `magic u32 | count u32 | count × (6 limbs LE + poison
    /// byte) | FNV-1a-64 of everything before`.
    pub fn encode(&self) -> Bytes {
        let count = self.numel() as u32;
        let mut buf = Vec::with_capacity(8 + count as usize * PARTIAL_SUM_BYTES + 8);
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
        let sum = fnv1a64(&[&buf]);
        buf.extend_from_slice(&sum.to_le_bytes());
        Bytes::from(buf)
    }

    /// Verifies a frame's checksum and decodes it into an accumulator
    /// shaped like `template`. `Ok(None)` means the checksum failed
    /// (transit corruption — ask for a retransmit); `Err(())` means a
    /// verified frame had the wrong structure (protocol violation).
    #[allow(clippy::result_unit_err)]
    pub fn decode(frame: &[u8], template: &ExactState) -> Result<Option<ExactState>, ()> {
        if frame.len() < 16 {
            return Err(());
        }
        let (body, tail) = frame.split_at(frame.len() - 8);
        let mut sum = [0u8; 8];
        sum.copy_from_slice(tail);
        if fnv1a64(&[body]) != u64::from_le_bytes(sum) {
            return Ok(None);
        }
        let mut magic = [0u8; 4];
        magic.copy_from_slice(&body[0..4]);
        let mut count = [0u8; 4];
        count.copy_from_slice(&body[4..8]);
        let count = u32::from_le_bytes(count) as usize;
        if u32::from_le_bytes(magic) != PARTIAL_MAGIC
            || count != template.numel()
            || body.len() != 8 + count * PARTIAL_SUM_BYTES
        {
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

/// Magic tag of an edge partial-sum frame (`"HPar"`).
const PARTIAL_MAGIC: u32 = 0x4850_6172;

/// Bytes of one sum in an `HPar` frame: six limbs and the poison byte.
const PARTIAL_SUM_BYTES: usize = 49;

// ---- configuration -------------------------------------------------------

/// The simulated deployment of a population-scale run. Unlike
/// [`crate::FlSetup`], devices come from a lazy [`Population`] rather
/// than a per-worker list; a sampled client with id `i` trains on data
/// shard `i mod task.workers()`.
#[derive(Debug, Clone)]
pub struct HierSetup<'a> {
    /// The federated task (data + partition; partitions are reused
    /// modulo the partition count across the population).
    pub task: &'a ImageTask,
    /// The lazy device population cohorts are sampled from.
    pub population: Population,
    /// The virtual-clock time model.
    pub time: TimeModel,
    /// Width-compensation factors applied to every simulated cost.
    pub cost_scale: CostScale,
}

impl<'a> HierSetup<'a> {
    /// Builds a setup over a task and population.
    pub fn new(task: &'a ImageTask, population: Population, time: TimeModel) -> Self {
        HierSetup { task, population, time, cost_scale: CostScale::default() }
    }

    /// The data shard client `id` trains on.
    pub fn data_shard(&self, id: u64) -> usize {
        (id % self.task.workers() as u64) as usize
    }

    /// Cost-scale-compensated round cost (same convention as
    /// [`crate::FlSetup::scaled_cost`]).
    pub fn scaled_cost(&self, cost: &RoundCost) -> RoundCost {
        self.cost_scale.apply(cost)
    }
}

/// Options of the hierarchical engines.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct HierarchyOptions {
    /// Clients sampled per round (without replacement).
    pub cohort: usize,
    /// Streaming shard reducers the cohort is partitioned over
    /// (contiguously, in cohort order).
    pub shards: usize,
    /// Edge aggregators the shards fan in to (contiguously, in shard
    /// order).
    pub edges: usize,
    /// E-UCB configuration for the per-class agents.
    pub eucb: EUcbConfig,
    /// Reward shaping (Eq. 8 guards).
    pub reward: RewardConfig,
    /// When set, every class uses this fixed pruning ratio (no bandit).
    pub fixed_ratio: Option<f32>,
    /// Filter/neuron importance metric for structured pruning.
    pub importance: Importance,
    /// Wire-v2 codec selection per client link. Applied feedback-free:
    /// per-client error-feedback accumulators would be
    /// O(population × params), against the whole point of this mode.
    pub compression: CompressionPolicy,
    /// Client-tier transport chaos (crash / drop / corrupt / delay per
    /// sampled client). Its `quorum_frac` also sets the cloud's
    /// aggregation quorum over the cohort.
    pub chaos_client: ChaosOptions,
    /// Edge-tier transport chaos applied to each edge aggregator's
    /// cloud upload.
    pub chaos_edge: ChaosOptions,
}

impl Default for HierarchyOptions {
    fn default() -> Self {
        HierarchyOptions {
            cohort: 16,
            shards: 4,
            edges: 2,
            eucb: EUcbConfig::default(),
            reward: RewardConfig::default(),
            fixed_ratio: None,
            importance: Importance::L1,
            compression: CompressionPolicy::dense(),
            chaos_client: ChaosOptions::none(),
            chaos_edge: ChaosOptions::none(),
        }
    }
}

impl HierarchyOptions {
    fn validate(&self, population: &Population) {
        assert!(self.cohort >= 1, "hierarchy: cohort must be at least 1");
        assert!(self.shards >= 1, "hierarchy: need at least one shard");
        assert!(self.edges >= 1, "hierarchy: need at least one edge");
        assert!(self.edges <= self.shards, "hierarchy: more edges than shards");
        assert!(self.cohort as u64 <= population.size, "hierarchy: cohort exceeds population size");
    }
}

/// Contiguous slice of `n` items owned by unit `k` of `parts`.
fn partition_range(n: usize, parts: usize, k: usize) -> Range<usize> {
    k * n / parts..(k + 1) * n / parts
}

// ---- per-round plumbing --------------------------------------------------

/// Everything one device class shares this round: the bandit's ratio,
/// the pruning plan/sub-model extracted from the global model, the
/// PS-side residual, and the resolved codec pair. Clients of a class
/// have identical `DeviceProfile`s, so all of this is class-wide.
struct ClassPlan {
    ratio: f32,
    plan: PrunePlan,
    /// Sub-model as the clients receive it (post downlink codec).
    sub: Sequential,
    /// The received snapshot — the uplink delta base for top-k codecs.
    received: Option<Vec<StateEntry>>,
    residual: Vec<StateEntry>,
    pair: LinkCodecs,
    device: DeviceProfile,
    sub_params: usize,
    down_wire: u64,
    down_dense: u64,
}

/// How a client's round — or an edge aggregator's cloud upload — ended.
/// [`ClientFate::from_draw`] decides it purely from the chaos draw: the
/// closed form of what [`crate::barrier::Barrier`] concludes from the
/// transcript that draw produces (a test in `barrier.rs` holds the two
/// together, and one below does so over real `HPar` bytes), for the
/// tiers that simulate their uploads instead of moving them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ClientFate {
    /// Upload reached its shard reducer after `retries` retransmits.
    Delivered {
        /// Checksum-failure retransmits charged to the arrival time.
        retries: u32,
    },
    /// Contribution lost; `trained` distinguishes crash/downlink loss
    /// (no local step at all) from uplink-side losses.
    Lost {
        /// `"crashed"`, `"dropped"`, `"corrupt"` (or, observed from a
        /// real peer only, `"protocol"`).
        reason: &'static str,
        /// Retransmits spent before giving up.
        retries: u32,
        /// Whether the client completed its local step first.
        trained: bool,
    },
}

impl ClientFate {
    pub(crate) fn from_draw(draw: &ChaosDraw, opts: &ChaosOptions) -> Self {
        if draw.crash {
            ClientFate::Lost { reason: "crashed", retries: 0, trained: false }
        } else if draw.drop_down {
            ClientFate::Lost { reason: "dropped", retries: 0, trained: false }
        } else if draw.drop_up {
            ClientFate::Lost { reason: "dropped", retries: 0, trained: true }
        } else if draw.corrupt_sends > opts.max_retransmits {
            ClientFate::Lost { reason: "corrupt", retries: opts.max_retransmits, trained: true }
        } else {
            ClientFate::Delivered { retries: draw.corrupt_sends }
        }
    }

    fn trained(&self) -> bool {
        match *self {
            ClientFate::Delivered { .. } => true,
            ClientFate::Lost { trained, .. } => trained,
        }
    }

    pub(crate) fn delivered(&self) -> bool {
        matches!(self, ClientFate::Delivered { .. })
    }

    pub(crate) fn retries(&self) -> u32 {
        match *self {
            ClientFate::Delivered { retries } | ClientFate::Lost { retries, .. } => retries,
        }
    }
}

/// One client's round bookkeeping (metrics plane — never part of the
/// aggregated model payload).
struct ClientMetric {
    id: u64,
    class: usize,
    ratio: f32,
    fate: ClientFate,
    mean_loss: f32,
    delta_loss: f32,
    samples: usize,
    time: RoundTime,
    /// Arrival on the virtual clock: `time.total()` plus chaos delay
    /// and retransmit backoff.
    arrival: f64,
    scaled: RoundCost,
    up_codec: Codec,
    up_wire: u64,
    up_dense: u64,
}

/// What one shard reducer hands upward: its exact partial sum plus
/// per-client metrics and the memory-accounting meta.
struct ShardOutput {
    acc: ExactState,
    metrics: Vec<ClientMetric>,
    folded: usize,
    peak_bytes: u64,
}

/// Streams one shard's slice of the cohort: per client — chaos fate,
/// local step on a class sub-model clone, uplink codec, R2SP completion
/// — folding each delivered update into the shard accumulator and
/// dropping it before the next client. Pure in its inputs, so it
/// computes identical bits wherever the round executor runs it.
#[allow(clippy::too_many_arguments)]
fn reduce_shard(
    cfg: &FlConfig,
    setup: &HierSetup<'_>,
    global: &Sequential,
    template: &[StateEntry],
    cohort: &[u64],
    range: Range<usize>,
    classes: &BTreeMap<usize, ClassPlan>,
    client_plan: &ChaosPlan,
    round: usize,
    compressed: bool,
) -> ShardOutput {
    let mut acc = ExactState::like(template);
    let acc_bytes = acc.tracked_bytes() as u64;
    let mut metrics = Vec::with_capacity(range.len());
    let mut folded = 0usize;
    let mut peak_bytes = acc_bytes;
    let full_params = state_numel(template);
    for idx in range {
        let id = cohort[idx];
        let class = class_of(&setup.population.device(id));
        let cr = &classes[&class];
        let draw = client_plan.draw(round, id as usize);
        let fate = ClientFate::from_draw(&draw, client_plan.options());
        if !fate.trained() {
            metrics.push(ClientMetric {
                id,
                class,
                ratio: cr.ratio,
                fate,
                mean_loss: 0.0,
                delta_loss: 0.0,
                samples: 0,
                time: RoundTime { comp: 0.0, comm: 0.0 },
                arrival: 0.0,
                scaled: RoundCost { train_flops: 0.0, download_bytes: 0.0, upload_bytes: 0.0 },
                up_codec: cr.pair.uplink,
                up_wire: 0,
                up_dense: 0,
            });
            continue;
        }
        // Local step on a clone of the class sub-model; the clone is
        // the only per-client model state and dies at the end of this
        // iteration.
        let mut sub = cr.sub.clone();
        let mut batches = worker_batches(
            setup.task,
            setup.data_shard(id),
            cfg.local.batch,
            client_stream_seed(cfg.seed, id),
            round,
        );
        let outcome = local_train(&mut sub, &mut batches, &cfg.local);
        let (up_wire, up_dense) = if compressed {
            let (delivered, wire, dense) =
                link_delivered(&sub.state(), cr.pair.uplink, cr.received.as_deref(), None);
            sub.load_state(&delivered);
            (wire, dense)
        } else {
            (0, 0)
        };
        let mut cost = model_round_cost(&sub, setup.task.input_chw, &cfg.local);
        if compressed {
            cost.download_bytes = cr.down_wire as f64;
            cost.upload_bytes = up_wire as f64;
        }
        let mut rng = worker_rng(cfg.seed ^ 0xA5A5, round, id as usize);
        let t = setup.time.round_time(&cr.device, &setup.scaled_cost(&cost), &mut rng);
        let arrival =
            t.total() + draw.delay_secs + client_plan.options().backoff_total(fate.retries());
        if fate.delivered() {
            // R2SP completion, folded immediately, then dropped: the
            // streaming step that keeps shard memory flat in cohort
            // size.
            let completed = state_add(&recover_state(&sub, &cr.plan, global), &cr.residual);
            acc.fold(&completed);
            folded += 1;
        }
        // Tracked transient: the completed + recovered full-shape
        // snapshots and the client's sub-model clone (residual and
        // received are class-shared, not per-client).
        let transient = (4 * (2 * full_params + cr.sub_params)) as u64;
        peak_bytes = peak_bytes.max(acc_bytes + transient);
        metrics.push(ClientMetric {
            id,
            class,
            ratio: cr.ratio,
            fate,
            mean_loss: outcome.mean_loss,
            delta_loss: outcome.delta_loss(),
            samples: outcome.samples,
            time: t,
            arrival,
            scaled: setup.scaled_cost(&cost),
            up_codec: cr.pair.uplink,
            up_wire,
            up_dense,
        });
    }
    ShardOutput { acc, metrics, folded, peak_bytes }
}

/// Per-client batch-stream seed: clients sharing a data shard must not
/// share mini-batch order, so the master seed is mixed with the device
/// id before keying the per-round stream.
fn client_stream_seed(seed: u64, id: u64) -> u64 {
    let mut z = seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

/// One edge's cloud upload as [`finish_round`] sees it.
struct EdgeUpload {
    /// Retransmits the upload spent.
    retries: u32,
    /// The partial the cloud holds: `Some` iff delivered.
    partial: Option<ExactState>,
    shards: usize,
    clients: usize,
}

/// What a round's gather hands to [`finish_round`]: per-shard meta,
/// cohort-ordered client metrics and per-edge uploads.
struct RoundGather {
    shard_meta: Vec<(usize, u64)>,
    metrics: Vec<ClientMetric>,
    edges: Vec<EdgeUpload>,
}

/// Everything after the fan-in: trace emission in canonical order,
/// exact cloud merge, quorum + aggregation, per-class bandit feedback,
/// evaluation and the history record. Shared verbatim by both entry
/// points — their bit-identity is this function applied to identical
/// gathers.
#[allow(clippy::too_many_arguments)]
fn finish_round(
    cfg: &FlConfig,
    setup: &HierSetup<'_>,
    opts: &HierarchyOptions,
    round: usize,
    cohort: &[u64],
    gather: RoundGather,
    agents: &mut [EUcbAgent],
    selected: &[usize],
    global: &mut Sequential,
    sim_time: &mut f64,
    kstats: &mut fedmp_tensor::parallel::KernelStats,
    history: &mut RunHistory,
) {
    let RoundGather { shard_meta, metrics, edges } = gather;
    let chaos_client = &opts.chaos_client;
    let chaos_edge = &opts.chaos_edge;

    // Per-client events, cohort order.
    for m in &metrics {
        if !m.fate.trained() {
            continue;
        }
        emit_local_train(
            round,
            m.id as usize,
            m.ratio,
            m.mean_loss,
            m.delta_loss,
            cfg.local.tau,
            m.samples,
            &m.time,
            &m.scaled,
        );
    }
    for m in &metrics {
        for attempt in 1..=m.fate.retries() {
            emit_frame_retransmit(round, m.id as usize, attempt, chaos_client.backoff_for(attempt));
        }
    }
    for m in &metrics {
        if let ClientFate::Lost { reason, .. } = m.fate {
            emit_worker_excluded(round, m.id as usize, reason);
        }
    }

    // Shard tier.
    for (s, &(clients, peak)) in shard_meta.iter().enumerate() {
        emit_shard_reduced(round, s, clients, peak);
    }

    // Edge tier, edge order: retransmits and the aggregate outcome,
    // then for a delivered partial the exact cloud merge (any order
    // gives the same bits) and the arrival bookkeeping — the cloud's
    // round ends when the last delivered partial lands (its slowest
    // delivered client + edge backoff).
    let n_edges = edges.len();
    let mut edge_retries_total = 0u32;
    let mut cloud: Option<ExactState> = None;
    let mut participants = 0usize;
    let mut round_time = 0.0f64;
    for (e, edge) in edges.into_iter().enumerate() {
        let retries = edge.retries;
        for attempt in 1..=retries {
            emit_frame_retransmit(round, e, attempt, chaos_edge.backoff_for(attempt));
        }
        edge_retries_total += retries;
        emit_edge_aggregate(round, e, edge.shards, edge.clients, edge.partial.is_some(), retries);
        let Some(partial) = edge.partial else { continue };
        participants += edge.clients;
        match cloud.as_mut() {
            Some(c) => c.merge(&partial),
            None => cloud = Some(partial),
        }
        let mut edge_arrival = 0.0f64;
        for s in partition_range(shard_meta.len(), n_edges, e) {
            for idx in partition_range(cohort.len(), shard_meta.len(), s) {
                if metrics[idx].fate.delivered() {
                    edge_arrival = edge_arrival.max(metrics[idx].arrival);
                }
            }
        }
        round_time = round_time.max(edge_arrival + chaos_edge.backoff_total(retries));
    }
    // Nothing delivered: the PS waited out the slowest trained client.
    if cloud.is_none() {
        for m in &metrics {
            if m.fate.trained() {
                round_time = round_time.max(m.arrival);
            }
        }
    }
    *sim_time += round_time;

    let trained: Vec<&ClientMetric> = metrics.iter().filter(|m| m.fate.trained()).collect();
    let mean_comp = if trained.is_empty() {
        0.0
    } else {
        sum_f64(trained.iter().map(|m| m.time.comp)) / trained.len() as f64
    };
    let mean_comm = if trained.is_empty() {
        0.0
    } else {
        sum_f64(trained.iter().map(|m| m.time.comm)) / trained.len() as f64
    };

    // Per-class bandit feedback: one Eq. 8 reward per class, from the
    // class's mean loss delta and mean arrival; classes whose clients
    // all failed before training abandon their pending pull.
    if opts.fixed_ratio.is_none() {
        let t_avg = if trained.is_empty() {
            0.0
        } else {
            sum_f64(trained.iter().map(|m| m.arrival)) / trained.len() as f64
        };
        for &class in selected {
            let members: Vec<&&ClientMetric> =
                trained.iter().filter(|m| m.class == class).collect();
            if members.is_empty() {
                agents[class].abandon();
                continue;
            }
            let k = members.len() as f32;
            let delta = sum_f32(members.iter().map(|m| m.delta_loss)) / k;
            let arrival = sum_f64(members.iter().map(|m| m.arrival)) / f64::from(k);
            agents[class].observe(eucb_reward(delta, arrival, t_avg, &opts.reward));
        }
    }

    // ③ Aggregation under the cohort quorum.
    let quorum = chaos_client.quorum(cohort.len());
    let aggregated = participants >= quorum && cloud.is_some();
    if aggregated {
        if let Some(c) = &cloud {
            global.load_state(&c.finalize(participants));
        }
        if participants < cohort.len() {
            emit_quorum_aggregate(round, quorum, participants, cohort.len() - participants);
        }
        emit_aggregate(round, "R2SP-Hier", participants);
    }

    let train_loss = if trained.is_empty() {
        f32::NAN
    } else {
        sum_f32(trained.iter().map(|m| m.mean_loss)) / trained.len() as f32
    };
    let eval = if aggregated { evaluate_if_due(cfg, round, global, setup.task) } else { None };
    emit_kernel_dispatch(round, kstats);
    let client_retries: u32 = metrics.iter().map(|m| m.fate.retries()).sum();
    let rec = RoundRecord {
        round,
        sim_time: *sim_time,
        round_time,
        mean_comp,
        mean_comm,
        train_loss,
        eval,
        ratios: metrics.iter().map(|m| m.ratio).collect(),
        participants,
        retries: (client_retries + edge_retries_total) as usize,
        exclusions: cohort.len() - participants,
    };
    emit_round_end(&rec);
    history.rounds.push(rec);
}

/// Builds the round's per-class plans (bandit selects, pruning,
/// residuals, codecs) in ascending class order — the order-sensitive
/// prologue both engines run caller-side.
fn class_plans(
    setup: &HierSetup<'_>,
    opts: &HierarchyOptions,
    global: &Sequential,
    cohort: &[u64],
    agents: &mut [EUcbAgent],
) -> (BTreeMap<usize, ClassPlan>, Vec<usize>) {
    let compressed = !opts.compression.is_dense();
    // Any member's profile is the class profile (class_of is a
    // bijection onto the mode × link grid), so the first sighting wins.
    let mut reps: BTreeMap<usize, DeviceProfile> = BTreeMap::new();
    for &id in cohort {
        let device = setup.population.device(id);
        reps.entry(class_of(&device)).or_insert(device);
    }
    let present: Vec<usize> = reps.keys().copied().collect();
    let mut plans = BTreeMap::new();
    for (&class, device) in &reps {
        let device = *device;
        let ratio = match opts.fixed_ratio {
            Some(r) => r,
            None => agents[class].select(),
        };
        let plan = plan_sequential_with(global, setup.task.input_chw, ratio, opts.importance);
        let mut sub = extract_sequential(global, &plan);
        let residual = state_sub(&global.state(), &sparse_state(global, &plan));
        let pair = opts.compression.select(&device);
        let (received, down_wire, down_dense) = if compressed {
            let (delivered, wire, dense) = link_delivered(&sub.state(), pair.downlink, None, None);
            sub.load_state(&delivered);
            (Some(delivered), wire, dense)
        } else {
            (None, 0, 0)
        };
        let sub_params = state_numel(&sub.state());
        plans.insert(
            class,
            ClassPlan {
                ratio,
                plan,
                sub,
                received,
                residual,
                pair,
                device,
                sub_params,
                down_wire,
                down_dense,
            },
        );
    }
    (plans, present)
}

// ---- the round loop ------------------------------------------------------

/// How an edge's merged partial reaches the cloud under its chaos draw:
/// the retransmits spent and the partial the cloud holds afterwards
/// (`None`: the edge is excluded) — the one step the two entry points
/// differ in.
type EdgeUplink = fn(ExactState, &ChaosDraw, &ChaosOptions) -> (u32, Option<ExactState>);

/// The round both entry points run: cohort sampling, per-class plans,
/// codec events, the gather — shards fanned out on the round executor,
/// each edge's exact merge sent up through `uplink` — compression
/// events and the [`finish_round`] epilogue.
fn run_hier_rounds(
    cfg: &FlConfig,
    setup: &HierSetup<'_>,
    mut global: Sequential,
    opts: &HierarchyOptions,
    uplink: EdgeUplink,
) -> RunHistory {
    opts.validate(&setup.population);
    let mut history = RunHistory::new("FedMP-Hier");
    let mut sim_time = 0.0f64;
    let mut agents = seeded_agents(opts.eucb, CLASS_COUNT, cfg.seed);
    let mut kstats = kernel_baseline();
    let client_plan = ChaosPlan::new(cfg.seed, &opts.chaos_client);
    let edge_plan = ChaosPlan::new(cfg.seed ^ 0xED6E_0000, &opts.chaos_edge);
    let compressed = !opts.compression.is_dense();

    for round in 0..cfg.rounds {
        let cohort = setup.population.sample_cohort(round, opts.cohort);
        emit_cohort_sampled(round, setup.population.size, cohort.len(), opts.shards, opts.edges);
        let online: Vec<usize> = cohort.iter().map(|&id| id as usize).collect();
        emit_round_start(round, sim_time, &online);

        let (classes, selected) = class_plans(setup, opts, &global, &cohort, &mut agents);
        if compressed {
            for &id in &cohort {
                let device = setup.population.device(id);
                let cr = &classes[&class_of(&device)];
                let slow = device.is_slow_link(opts.compression.slow_link_bps);
                emit_codec_selected(round, id as usize, &cr.pair, slow);
            }
        }

        // Gather: each slot streams its contiguous cohort slice into
        // one exact accumulator.
        let template = global.state();
        let outputs = exec::ordered_map((0..opts.shards).collect(), |_, s| {
            reduce_shard(
                cfg,
                setup,
                &global,
                &template,
                &cohort,
                partition_range(cohort.len(), opts.shards, s),
                &classes,
                &client_plan,
                round,
                compressed,
            )
        });
        // Edge tier: merge each edge's shard accumulators (exact —
        // `validate` gives every edge at least one shard), then send
        // the partial up under the edge's chaos draw.
        let edges = (0..opts.edges)
            .map(|e| {
                let range = partition_range(opts.shards, opts.edges, e);
                let mut merged = outputs[range.start].acc.clone();
                for out in &outputs[range.start + 1..range.end] {
                    merged.merge(&out.acc);
                }
                let (retries, partial) =
                    uplink(merged, &edge_plan.draw(round, e), &opts.chaos_edge);
                let clients = outputs[range.clone()].iter().map(|o| o.folded).sum();
                EdgeUpload { retries, partial, shards: range.len(), clients }
            })
            .collect();
        let gathered = RoundGather {
            shard_meta: outputs.iter().map(|o| (o.folded, o.peak_bytes)).collect(),
            metrics: outputs.into_iter().flat_map(|o| o.metrics).collect(),
            edges,
        };

        // Per-delivered-client compression events need the class-side
        // downlink sizes; emit them here in cohort order before the
        // epilogue (which emits LocalTrain etc.).
        if compressed {
            for m in &gathered.metrics {
                if !m.fate.trained() {
                    continue;
                }
                let cr = &classes[&m.class];
                emit_compression_applied(
                    round,
                    m.id as usize,
                    "down",
                    cr.pair.downlink,
                    cr.down_dense,
                    cr.down_wire,
                );
                emit_compression_applied(
                    round,
                    m.id as usize,
                    "up",
                    m.up_codec,
                    m.up_dense,
                    m.up_wire,
                );
            }
        }

        finish_round(
            cfg,
            setup,
            opts,
            round,
            &cohort,
            gathered,
            &mut agents,
            &selected,
            &mut global,
            &mut sim_time,
            &mut kstats,
            &mut history,
        );
    }
    history
}

// ---- the loop engine -----------------------------------------------------

/// Runs population-scale FedMP for `cfg.rounds` rounds: per round a
/// sampled cohort streams through shard reducers fanned out on the
/// deterministic round executor, shard partials merge at the edges and
/// the cloud finalises the exact R2SP mean.
pub fn run_fedmp_hier(
    cfg: &FlConfig,
    setup: &HierSetup<'_>,
    global: Sequential,
    opts: &HierarchyOptions,
) -> RunHistory {
    run_hier_rounds(cfg, setup, global, opts, |merged, draw, chaos| {
        let fate = ClientFate::from_draw(draw, chaos);
        (fate.retries(), fate.delivered().then_some(merged))
    })
}

// ---- the framed edge uplink ----------------------------------------------

/// [`run_fedmp_hier`] with every edge partial reaching the cloud as
/// real checksummed `HPar` frames judged by the collection barrier
/// (`crate::barrier`) instead of by the closed form. Bit-identical to
/// [`run_fedmp_hier`] with the same options at any thread count, chaos
/// included: every fault is a pure function of the seed.
///
/// # Errors
/// None today: every edge fault is an exclusion the barrier settles.
pub fn run_fedmp_hier_threaded(
    cfg: &FlConfig,
    setup: &HierSetup<'_>,
    global: Sequential,
    opts: &HierarchyOptions,
) -> Result<RunHistory, RuntimeError> {
    Ok(run_hier_rounds(cfg, setup, global, opts, edge_uplink))
}

/// One edge's cloud upload, driven through a one-slot [`Barrier`] in
/// place: a crash or drop draw is `Lost`; otherwise the merged partial
/// is encoded, send `k` is transit-corrupted while `k < corrupt_sends`,
/// and what the cloud decodes of each send goes to the barrier until it
/// stops asking for another. Returns the retransmits the barrier
/// granted and, unless it excluded the edge, the *decoded* partial.
fn edge_uplink(
    merged: ExactState,
    draw: &ChaosDraw,
    chaos: &ChaosOptions,
) -> (u32, Option<ExactState>) {
    let mut barrier = Barrier::new(1, chaos.max_retransmits);
    if draw.crash || draw.drop_down || draw.drop_up {
        barrier.on(0, Event::Lost);
    } else {
        let frame = merged.encode();
        for send_idx in 0u32.. {
            let wire =
                if send_idx < draw.corrupt_sends { corrupted_copy(&frame) } else { frame.clone() };
            let event = match ExactState::decode(&wire, &merged) {
                Ok(partial) => Event::Upload { intact: partial.is_some(), payload: partial },
                Err(()) => Event::Malformed,
            };
            if barrier.on(0, event) != Action::Retransmit {
                break;
            }
        }
    }
    let (retries, outcome) = barrier.finish().remove(0);
    (retries, outcome.ok().flatten())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn state(v: &[f32]) -> Vec<StateEntry> {
        let entry = |name: &str, data: &[f32], dims: &[usize], trainable| StateEntry {
            name: name.into(),
            tensor: Tensor::from_vec(data.to_vec(), dims).expect("test shape"),
            trainable,
        };
        vec![entry("w", &v[..4], &[2, 2], true), entry("b", &v[4..], &[1], false)]
    }

    proptest! {
        /// The `barrier.rs` tie test extended to real `HPar` bytes: for
        /// every draw shape the in-place uplink ends where
        /// `ClientFate::from_draw` says it does, and what it delivers
        /// decodes to exactly the partial that was merged.
        #[test]
        fn edge_uplink_is_the_closed_form_over_real_frames(
            folds in proptest::collection::vec(
                proptest::collection::vec(-1.0e6f32..1.0e6, 5..6),
                0..4,
            ),
        ) {
            let mut merged = ExactState::like(&state(&[0.0; 5]));
            for v in &folds {
                merged.fold(&state(v));
            }
            for max in 0..=3u32 {
                let opts = ChaosOptions { max_retransmits: max, ..ChaosOptions::none() };
                for shape in 0..8u32 {
                    for corrupt_sends in 0..=max + 2 {
                        let draw = ChaosDraw {
                            crash: shape & 1 != 0,
                            drop_down: shape & 2 != 0,
                            drop_up: shape & 4 != 0,
                            corrupt_sends,
                            delay_secs: 0.0,
                        };
                        let (retries, partial) = edge_uplink(merged.clone(), &draw, &opts);
                        let closed = ClientFate::from_draw(&draw, &opts);
                        prop_assert_eq!(retries, closed.retries(), "{:?}", draw);
                        prop_assert_eq!(
                            partial.as_ref(),
                            closed.delivered().then_some(&merged),
                            "{:?}", draw
                        );
                    }
                }
            }
        }
    }
}
