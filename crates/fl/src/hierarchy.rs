//! The population round: cohort sampling, streaming shard reducers and
//! two-tier (edge → cloud) hierarchical aggregation. The mean itself is
//! not computed here: shards, edges and cloud fold, merge and finalise
//! the [`ExactState`] accumulator of `fl::aggregate`, the one every
//! round uses.
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
//! - **Streaming shard reduction** — a client's R2SP completion
//!   (recovered sub-model + residual, §III-C) is folded into its
//!   shard's accumulator immediately after its local step and then
//!   dropped, so peak memory is O(shards × params) regardless of
//!   cohort size.
//! - **Exact aggregation algebra** — merging shard → edge → cloud is
//!   integer addition, so *any* (shards, edges) partition is
//!   bit-identical to the flat [`r2sp_aggregate`][crate::r2sp_aggregate]
//!   over the same delivered cohort, and the cloud aggregates under the
//!   same quorum rule as a flat round. See `docs/SCALE.md` for the full
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
//! Shards fan out on [`crate::exec::ordered_map`]. Both tiers settle an
//! upload on the collection barrier (`crate::barrier`), fed the
//! transcript its chaos draw produces
//! ([`crate::chaos::ChaosDraw::settle`]), and move no frame; the in-file
//! proptest drives real checksummed `HPar` frames through the same
//! barrier and lands where `settle` does. The root `tests/goldens.rs`
//! pins the engine's history and trace bits across commits and
//! (shards, edges) partitions.

use crate::aggregate::{completion, meets_quorum, residual, ExactState};
use crate::barrier::Outcome;
use crate::chaos::{ChaosOptions, ChaosPlan};
use crate::engine::{evaluate_if_due, worker_rng, CostScale, FlConfig, FlModel};
use crate::exec;
use crate::history::{RoundLog, RoundRecord, RunHistory};
use crate::runtime::seeded_agents;
use crate::task::ImageTask;
use crate::wire::{link_delivered, Codec, CompressionPolicy, LinkCodecs};
use fedmp_bandit::{eucb_reward, Bandit, EUcbAgent, EUcbConfig, RewardConfig};
use fedmp_edgesim::{
    class_of, DeviceProfile, Population, RoundCost, RoundTime, TimeModel, CLASS_COUNT,
};
use fedmp_nn::{state_numel, Sequential, StateEntry};
use fedmp_obs::TraceEvent;
use fedmp_pruning::{extract_sequential, plan_sequential_with, Importance, PrunePlan};
use fedmp_tensor::parallel::{sum_f32, sum_f64};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::Range;

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

/// Options of the hierarchical engine.
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

/// How a client's round ended, as the collection barrier settled its
/// upload ([`crate::chaos::ChaosDraw::settle`]).
#[derive(Debug, Clone, Copy, PartialEq)]
struct ClientFate {
    /// Checksum-failure retransmits charged to the arrival time.
    retries: u32,
    /// Delivered, or the exclusion reason: `"crashed"`, `"dropped"` or
    /// `"corrupt"`.
    outcome: Outcome<()>,
    /// Whether the client completed its local step (a crash or a lost
    /// downlink means no local step at all).
    trained: bool,
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
#[expect(clippy::too_many_arguments, reason = "one shard's whole round input, passed by parts")]
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
        let (retries, outcome) = draw.settle(client_plan.options().max_retransmits);
        let fate = ClientFate { retries, outcome, trained: draw.trains() };
        if !fate.trained {
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
        let seed = client_stream_seed(cfg.seed, id);
        let outcome = sub.train(setup.task, setup.data_shard(id), seed, round, &cfg.local);
        let (up_wire, up_dense) = if compressed {
            let (frame, delivered, dense) =
                link_delivered(&sub.state(), cr.pair.uplink, cr.received.as_deref(), None);
            sub.load_state(&delivered);
            (frame.len() as u64, dense)
        } else {
            (0, 0)
        };
        let mut cost = sub.round_cost(setup.task, &cfg.local);
        if compressed {
            cost.download_bytes = cr.down_wire as f64;
            cost.upload_bytes = up_wire as f64;
        }
        let mut rng = worker_rng(cfg.seed ^ Sequential::TIME_SALT, round, id as usize);
        let t = setup.time.round_time(&cr.device, &setup.scaled_cost(&cost), &mut rng);
        let arrival =
            t.total() + draw.delay_secs + client_plan.options().backoff_total(fate.retries);
        if fate.outcome.is_ok() {
            // R2SP completion, folded immediately, then dropped: the
            // streaming step that keeps shard memory flat in cohort
            // size.
            acc.fold(&completion(&sub.recover(&cr.plan, global), Some(&cr.residual)));
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
/// evaluation and the history record.
#[expect(clippy::too_many_arguments, reason = "the round state the fan-in hands back, by parts")]
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
    log: &mut RoundLog,
) {
    let RoundGather { shard_meta, metrics, edges } = gather;
    let chaos_client = &opts.chaos_client;
    let chaos_edge = &opts.chaos_edge;

    // Per-client events, cohort order.
    for m in &metrics {
        if !m.fate.trained {
            continue;
        }
        fedmp_obs::emit(|| TraceEvent::LocalTrain {
            round,
            worker: m.id as usize,
            ratio: m.ratio,
            loss: m.mean_loss,
            delta_loss: m.delta_loss,
            tau: cfg.local.tau,
            samples: m.samples,
            comp_secs: m.time.comp,
            comm_secs: m.time.comm,
            bytes_down: m.scaled.download_bytes,
            bytes_up: m.scaled.upload_bytes,
        });
    }
    for m in &metrics {
        for attempt in 1..=m.fate.retries {
            fedmp_obs::emit(|| TraceEvent::FrameRetransmit {
                round,
                worker: m.id as usize,
                attempt,
                backoff_secs: chaos_client.backoff_for(attempt),
            });
        }
    }
    for m in &metrics {
        if let Err(reason) = m.fate.outcome {
            fedmp_obs::emit(|| TraceEvent::WorkerExcluded {
                round,
                worker: m.id as usize,
                reason: reason.to_string(),
            });
        }
    }

    // Shard tier.
    for (s, &(clients, peak)) in shard_meta.iter().enumerate() {
        fedmp_obs::emit(|| TraceEvent::ShardReduced { round, shard: s, clients, peak_bytes: peak });
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
            fedmp_obs::emit(|| TraceEvent::FrameRetransmit {
                round,
                worker: e,
                attempt,
                backoff_secs: chaos_edge.backoff_for(attempt),
            });
        }
        edge_retries_total += retries;
        fedmp_obs::emit(|| TraceEvent::EdgeAggregate {
            round,
            edge: e,
            shards: edge.shards,
            clients: edge.clients,
            delivered: edge.partial.is_some(),
            retries,
        });
        let Some(partial) = edge.partial else { continue };
        participants += edge.clients;
        match cloud.as_mut() {
            Some(c) => c.merge(&partial),
            None => cloud = Some(partial),
        }
        let mut edge_arrival = 0.0f64;
        for s in partition_range(shard_meta.len(), n_edges, e) {
            for idx in partition_range(cohort.len(), shard_meta.len(), s) {
                if metrics[idx].fate.outcome.is_ok() {
                    edge_arrival = edge_arrival.max(metrics[idx].arrival);
                }
            }
        }
        round_time = round_time.max(edge_arrival + chaos_edge.backoff_total(retries));
    }
    // Nothing delivered: the PS waited out the slowest trained client.
    if cloud.is_none() {
        for m in &metrics {
            if m.fate.trained {
                round_time = round_time.max(m.arrival);
            }
        }
    }
    *sim_time += round_time;

    let trained: Vec<&ClientMetric> = metrics.iter().filter(|m| m.fate.trained).collect();
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
    let aggregated = meets_quorum(participants, quorum);
    if let Some(c) = cloud.filter(|_| aggregated) {
        global.load_state(&c.finalize(participants));
        if participants < cohort.len() {
            fedmp_obs::emit(|| TraceEvent::QuorumAggregate {
                round,
                quorum,
                participants,
                excluded: cohort.len() - participants,
            });
        }
        fedmp_obs::emit(|| TraceEvent::Aggregate {
            round,
            scheme: "R2SP-Hier".to_string(),
            participants,
        });
    }

    let train_loss = if trained.is_empty() {
        f32::NAN
    } else {
        sum_f32(trained.iter().map(|m| m.mean_loss)) / trained.len() as f32
    };
    let eval = if aggregated { evaluate_if_due(cfg, round, global, setup.task) } else { None };
    let client_retries: u32 = metrics.iter().map(|m| m.fate.retries).sum();
    log.close(RoundRecord {
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
    });
}

/// Builds the round's per-class plans (bandit selects, pruning,
/// residuals, codecs) in ascending class order — the order-sensitive
/// prologue the round runs caller-side.
fn class_plans(
    setup: &HierSetup<'_>,
    opts: &HierarchyOptions,
    global: &Sequential,
    global_state: &[StateEntry],
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
        let residual = residual(global_state, &sub, &plan, global);
        let pair = opts.compression.select(&device);
        let (received, down_wire, down_dense) = if compressed {
            let (frame, delivered, dense) = link_delivered(&sub.state(), pair.downlink, None, None);
            sub.load_state(&delivered);
            (Some(delivered), frame.len() as u64, dense)
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

/// Runs population-scale FedMP for `cfg.rounds` rounds: per round a
/// sampled cohort streams through shard reducers fanned out on the
/// deterministic round executor, shard partials merge at the edges, each
/// edge's upload meets its chaos draw, and the cloud finalises the exact
/// R2SP mean of what arrived.
pub fn run_fedmp_hier(
    cfg: &FlConfig,
    setup: &HierSetup<'_>,
    mut global: Sequential,
    opts: &HierarchyOptions,
) -> RunHistory {
    opts.validate(&setup.population);
    let mut sim_time = 0.0f64;
    let mut agents = seeded_agents(opts.eucb, CLASS_COUNT, cfg.seed);
    let mut log = RoundLog::new("FedMP-Hier");
    let client_plan = ChaosPlan::new(cfg.seed, &opts.chaos_client);
    let edge_plan = ChaosPlan::new(cfg.seed ^ 0xED6E_0000, &opts.chaos_edge);
    let compressed = !opts.compression.is_dense();

    for round in 0..cfg.rounds {
        let cohort = setup.population.sample_cohort(round, opts.cohort);
        fedmp_obs::emit(|| TraceEvent::CohortSampled {
            round,
            population: setup.population.size,
            cohort: cohort.len(),
            shards: opts.shards,
            edges: opts.edges,
        });
        fedmp_obs::emit(|| TraceEvent::RoundStart {
            round,
            sim_time,
            online: cohort.iter().map(|&id| id as usize).collect(),
        });

        let template = global.state();
        let (classes, selected) =
            class_plans(setup, opts, &global, &template, &cohort, &mut agents);
        if compressed {
            for &id in &cohort {
                let device = setup.population.device(id);
                let cr = &classes[&class_of(&device)];
                fedmp_obs::emit(|| TraceEvent::CodecSelected {
                    round,
                    worker: id as usize,
                    downlink: cr.pair.downlink.label(),
                    uplink: cr.pair.uplink.label(),
                    slow_link: device.is_slow_link(opts.compression.slow_link_bps),
                });
            }
        }

        // Gather: each slot streams its contiguous cohort slice into
        // one exact accumulator.
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
                let (retries, outcome) =
                    edge_plan.draw(round, e).settle(opts.chaos_edge.max_retransmits);
                let clients = outputs[range.clone()].iter().map(|o| o.folded).sum();
                EdgeUpload {
                    retries,
                    partial: outcome.is_ok().then_some(merged),
                    shards: range.len(),
                    clients,
                }
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
                if !m.fate.trained {
                    continue;
                }
                let cr = &classes[&m.class];
                for (direction, codec, dense_bytes, wire_bytes) in [
                    ("down", cr.pair.downlink, cr.down_dense, cr.down_wire),
                    ("up", m.up_codec, m.up_dense, m.up_wire),
                ] {
                    fedmp_obs::emit(|| TraceEvent::CompressionApplied {
                        round,
                        worker: m.id as usize,
                        direction: direction.to_string(),
                        codec: codec.label(),
                        dense_bytes,
                        wire_bytes,
                    });
                }
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
            &mut log,
        );
    }
    log.into_history()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barrier::{Action, Barrier, Event};
    use crate::chaos::{corrupted_copy, ChaosDraw};
    use fedmp_tensor::Tensor;
    use proptest::prelude::*;

    /// One edge's cloud upload moved for real: a one-slot [`Barrier`]
    /// over `HPar` bytes. A crash is `Gone` and a drop `Lost`; otherwise
    /// the merged partial is encoded, send `k` is transit-corrupted
    /// while `k < corrupt_sends`, and what the cloud decodes of each
    /// send goes to the barrier until it stops asking for another.
    /// Returns the retransmits the barrier granted and its outcome,
    /// whose payload is the *decoded* partial.
    fn edge_uplink(
        merged: &ExactState,
        draw: &ChaosDraw,
        max_retransmits: u32,
    ) -> (u32, Outcome<Option<ExactState>>) {
        let mut barrier = Barrier::new(1, max_retransmits);
        if draw.crash {
            barrier.on(0, Event::Gone);
        } else if draw.drop_down || draw.drop_up {
            barrier.on(0, Event::Lost);
        } else {
            let frame = merged.encode();
            for send_idx in 0u32.. {
                let wire = if send_idx < draw.corrupt_sends {
                    corrupted_copy(&frame)
                } else {
                    frame.clone()
                };
                let event = match ExactState::decode(&wire, merged) {
                    Ok(partial) => Event::Upload { intact: partial.is_some(), payload: partial },
                    Err(()) => Event::Malformed,
                };
                if barrier.on(0, event) != Action::Retransmit {
                    break;
                }
            }
        }
        barrier.finish().remove(0)
    }

    fn state(v: &[f32]) -> Vec<StateEntry> {
        let entry = |name: &str, data: &[f32], dims: &[usize], trainable| StateEntry {
            name: name.into(),
            tensor: Tensor::from_vec(data.to_vec(), dims).expect("test shape"),
            trainable,
        };
        vec![entry("w", &v[..4], &[2, 2], true), entry("b", &v[4..], &[1], false)]
    }

    proptest! {
        /// For every draw shape, real `HPar` frames through the barrier
        /// end where [`crate::chaos::ChaosDraw::settle`] — what the engine runs —
        /// does, and what they deliver decodes to exactly the partial
        /// that was merged.
        #[test]
        fn edge_uplink_over_real_frames_is_settle(
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
                for shape in 0..8u32 {
                    for corrupt_sends in 0..=max + 2 {
                        let draw = ChaosDraw {
                            crash: shape & 1 != 0,
                            drop_down: shape & 2 != 0,
                            drop_up: shape & 4 != 0,
                            corrupt_sends,
                            delay_secs: 0.0,
                        };
                        let (retries, outcome) = edge_uplink(&merged, &draw, max);
                        prop_assert_eq!(
                            (retries, outcome.as_ref().map(|_| ()).map_err(|&reason| reason)),
                            draw.settle(max),
                            "{:?}", draw
                        );
                        if let Ok(partial) = outcome {
                            prop_assert_eq!(partial.as_ref(), Some(&merged), "{:?}", draw);
                        }
                    }
                }
            }
        }
    }
}
