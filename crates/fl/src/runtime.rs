//! The FedMP parameter server: the one round body every FedMP driver
//! and every synchronous baseline runs, and the threaded PS/worker
//! runtime — the closest in-process analogue of the paper's physical
//! prototype (one PS process + 30 Jetson workers).
//!
//! [`run_rounds`] is Algorithm 1 with the §V-A deadline: pick ratios →
//! prune → exchange → Eq. 5 timing → `factor · d` deadline → Eq. 8
//! reward → quorum R2SP/BSP → evaluate. A [`SyncMethod`] — FedMP, or a
//! baseline that is one of its corners (`engines::baselines`) — becomes
//! a [`RoundMethod`], which says how ρ is picked and rewarded and what
//! each worker's local step and codec pair are; an [`FlModel`] says what
//! the model family does (the image CNNs or the §VI LSTM). It asks its
//! driver for one thing through [`Exchange`]: *move this round's
//! sub-models to their workers and bring back what each one trained*.
//! Either exchange runs any [`SyncMethod`] on any [`FlModel`]. The
//! **inline** exchange of the loop engines ([`crate::run_fedmp`] and the
//! baselines) trains in-process on the codec oracle — no frames, cannot
//! fail. The **framed** exchange defined here drives `fl::transport`'s
//! socket fleet: one node per worker — an in-process thread
//! ([`run_threaded`]) or an OS process ([`crate::run_sockets`]) — behind
//! a Unix-domain socket, with models moved as real [`crate::wire`]
//! frames: every sub-model download and trained-model upload is one
//! serialised, checksummed frame, exactly as a networked deployment
//! would move it. A worker is handed the global *architecture* of the
//! model family, its own local step and its codec pair once, when it
//! connects; per round it receives only the frame and the family's
//! pruning plan, rebuilds its sub-model with [`FlModel::extract`] and
//! decodes the frame against that sub-model's shapes. Neither this
//! module nor `fl::transport` knows which family it moves: the
//! architecture and plan cross the socket through their serde impls.
//! Simulated time still comes from `fedmp-edgesim` (nodes run as fast as
//! the host allows; the virtual clock stays authoritative for
//! completion-time results).
//!
//! # Fault tolerance
//!
//! The round degrades gracefully instead of failing terminally. Two
//! independent fault sources compose:
//!
//! - **Worker churn** (`opts.faults`, §V-A): a `FaultInjector` takes
//!   workers offline for whole rounds, and [`deadline_for`] sets the
//!   per-round arrival deadline after which stragglers are excluded
//!   from aggregation.
//! - **Transport chaos** ([`ChaosOptions`], framed exchange only): a
//!   seeded [`ChaosPlan`] corrupts upload frames (detected by the wire
//!   checksum; the PS requests bounded retransmits with exponential
//!   virtual-clock backoff), drops downlinks/uplinks, delays arrivals
//!   past the deadline, and crashes worker nodes mid-round (the node
//!   closes its connection without a word). A crashed worker is
//!   respawned and reconnected at the start of the next round and
//!   re-enters the fleet (`WorkerRejoined`).
//!
//! What the PS does about any of it — retransmit, exclude, mark for
//! restart — is decided in one place, the pure state machine of
//! [`crate::barrier`]; the framed exchange here only translates what
//! the fleet delivers into that machine's events and carries out its
//! actions. The same holds for a peer that is not this crate's
//! [`WorkerProtocol`] at all: a connection that closes unannounced or a
//! message the protocol has no place for costs that worker one
//! exclusion (`"crashed"` / `"protocol"`) and a restart, not the run.
//!
//! A round aggregates when at least `ChaosOptions::quorum(online)`
//! models survive exclusion — R2SP-style partial aggregation under the
//! one quorum rule of `fl::aggregate`; below quorum the global model
//! carries over unchanged. Recovery outcomes are recorded per round in
//! [`RoundRecord`] (`participants`, `retries`, `exclusions`) and in the
//! trace stream (`FrameRetransmit`, `WorkerExcluded`, `WorkerRejoined`,
//! `QuorumAggregate`).
//!
//! # Determinism
//!
//! Chaos draws are a pure function of `(seed, round, worker)`, all
//! order-sensitive state (bandit, injector, trace emission,
//! aggregation) lives in the round body in worker order, and the framed
//! exchange's collection loop is a barrier that does no order-sensitive
//! processing — so the same seed yields bit-identical histories and
//! trace streams at any executor thread count, faults or not. Chaos-off,
//! every driver produces the same bits: the bookkeeping agrees by
//! construction (it is one function), and what the identity tests below
//! still compare independently is the exchange — oracle vs real frames.
//!
//! # Join guarantee
//!
//! Every node and reader thread is joined on *every* exit path, clean
//! or error: `SocketFleet::teardown` (in `fl::transport`) runs after the
//! round body whatever it returned, shuts every connection down, reaps
//! every node and joins every reader. [`live_worker_threads`] counts
//! live runtime threads for the leak regression tests.

use crate::aggregate::{completion, meets_quorum, residual, ExactState};
use crate::barrier::{Action, Barrier, Event};
use crate::chaos::{corrupted_copy, ChaosOptions, ChaosPlan};
use crate::engine::{evaluate_if_due, worker_rng, FlConfig, FlModel, FlSetup, SyncScheme, Workers};
use crate::engines::baselines::{FedProxOptions, FlexComOptions, UpFlOptions};
use crate::engines::fedmp::FedMpOptions;
use crate::exec;
use crate::history::{RoundLog, RoundRecord, RunHistory};
use crate::local::{LocalOutcome, LocalTrainConfig};
use crate::transport::{
    run_sockets, unique_socket_path, NodeSpawner, SocketFleet, SocketRunOptions, ThreadNodes,
};
use crate::wire::{
    codec_delivered, decode_state_v2, decode_verified, encode_state_v2, link_delivered,
    verify_frame, Codec, ErrorFeedback, LinkCodecs, VerifiedFrame,
};
use bytes::Bytes;
use core::time::Duration;
use fedmp_bandit::{eucb_reward, Bandit, EUcbAgent, EUcbConfig, RewardConfig};
use fedmp_edgesim::{deadline_for, DeviceProfile};
use fedmp_nn::StateEntry;
use fedmp_obs::TraceEvent;
use fedmp_tensor::parallel::{sum_f32, sum_f64};
use fedmp_tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Encoded frame sizes of one exchange, for the Eq. 5 communication
/// terms and the `CompressionApplied` events of a compressed run.
pub(crate) struct WireBytes {
    /// The dispatched sub-model frame.
    pub(crate) down: u64,
    /// The trained-model upload frame.
    pub(crate) up: u64,
    /// Either frame under `Codec::DenseF32` (the trained model has the
    /// sub-model's shapes, so both directions share it).
    pub(crate) dense: u64,
}

/// What came back from one worker.
pub(crate) struct Arrival<U> {
    /// The upload as it arrived; [`Exchange::reconstruct`] turns it
    /// into the trained sub-model once it survives the deadline.
    pub(crate) upload: U,
    /// The worker's training outcome.
    pub(crate) outcome: LocalOutcome,
    /// `None` when the exchange moved no frames and had no reason to
    /// size them (the inline exchange under the dense policy, which
    /// Eq. 5 prices analytically).
    pub(crate) wire: Option<WireBytes>,
}

/// One online worker's exchange, driven to a terminal outcome.
pub(crate) struct Exchanged<U> {
    /// Retransmit requests the exchange cost, delivered or not.
    pub(crate) retransmits: u32,
    /// The arrival, or why the worker is excluded from the round
    /// (`"dropped"`, `"corrupt"`, `"crashed"`, `"protocol"`).
    pub(crate) result: Result<Arrival<U>, &'static str>,
}

/// How a round's sub-models of `M` reach their workers and come back —
/// the one thing a FedMP driver supplies to [`run_rounds`].
pub(crate) trait Exchange<M: FlModel> {
    /// A delivered upload before the PS reconstructs it.
    type Upload: Send;
    /// Terminal (unrecoverable) exchange failures; uninhabited for the
    /// inline exchange.
    type Error: Send;

    /// Restarts the workers that crashed (or broke the protocol) last
    /// round, before this round begins; they are dispatched this
    /// round's model like everyone else. Default: nothing can crash.
    fn rejoin(&mut self, round: usize) -> Result<(), Self::Error> {
        let _ = round;
        Ok(())
    }

    /// Delivers `subs[i]` (extracted under `plans[i]`) to worker
    /// `online[i]` over its `links[online[i]]` codec pair, has it
    /// trained, and returns every worker's outcome in the same order.
    fn exchange(
        &mut self,
        round: usize,
        online: &[usize],
        links: &[LinkCodecs],
        plans: &[M::Plan],
        subs: Vec<M>,
    ) -> Result<Vec<Exchanged<Self::Upload>>, Self::Error>;

    /// The trained sub-model exactly as the PS reconstructs it from
    /// `upload`. Called (fanned out) only for uploads that survive the
    /// deadline.
    fn reconstruct(upload: Self::Upload) -> Result<M, Self::Error>;

    /// Notification that `worker`'s contribution is excluded for
    /// `reason`, immediately before the body's `WorkerExcluded` event.
    /// Default: nothing.
    fn note_excluded(&mut self, round: usize, worker: usize, reason: &str) {
        let _ = (round, worker, reason);
    }
}

/// How a round's pruning ratios are picked and how the picker learns
/// from what came back — the one answer that separates FedMP from the
/// synchronous baselines.
pub(crate) enum RatioPolicy {
    /// FedMP (§IV-C): an E-UCB agent per worker, rewarded by Eq. 8.
    PerWorker { agents: Vec<EUcbAgent>, reward: RewardConfig },
    /// UP-FL: one agent, one pull per round, rewarded by the mean
    /// ΔLoss per unit of round time — Eq. 8's uniform-ratio analogue
    /// (no per-worker time gap exists when everyone trains one model).
    Shared(EUcbAgent),
    /// One ρ for everyone, always (Fig. 2 / Fig. 5 sweeps).
    Fixed(f32),
    /// ρ ≡ 0 for a method that does not prune: the round records no
    /// ratios at all (Syn-FL, FedProx, FlexCom).
    Dense,
}

/// An agent seeded `eucb.seed + offset` — with [`seeded_agents`], the
/// one place a run's seed reaches a bandit.
pub(crate) fn seeded_agent(mut eucb: EUcbConfig, offset: u64) -> EUcbAgent {
    eucb.seed = eucb.seed.wrapping_add(offset);
    EUcbAgent::new(eucb)
}

/// `n` agents, the `i`-th seeded `eucb.seed + i + seed`.
pub(crate) fn seeded_agents(eucb: EUcbConfig, n: usize, seed: u64) -> Vec<EUcbAgent> {
    (0..n as u64).map(|i| seeded_agent(eucb, i.wrapping_add(seed))).collect()
}

impl RatioPolicy {
    /// FedMP's policy over `n` workers.
    pub(crate) fn per_worker(eucb: EUcbConfig, reward: RewardConfig, n: usize, seed: u64) -> Self {
        Self::PerWorker { agents: seeded_agents(eucb, n, seed), reward }
    }

    /// This round's ratio for each of the (non-empty) `online` workers.
    pub(crate) fn select(&mut self, online: &[usize]) -> Vec<f32> {
        match self {
            Self::PerWorker { agents, .. } => online.iter().map(|&w| agents[w].select()).collect(),
            Self::Shared(agent) => vec![agent.select(); online.len()],
            Self::Fixed(ratio) => vec![*ratio; online.len()],
            Self::Dense => vec![0.0; online.len()],
        }
    }

    /// `worker`'s outcome never arrived: its own pull, if it has one,
    /// is discarded — no reward can honestly be assigned to it.
    pub(crate) fn abandon(&mut self, worker: usize) {
        if let Self::PerWorker { agents, .. } = self {
            agents[worker].abandon();
        }
    }

    /// Feedback from the round's delivered `(worker, ΔLoss, completion
    /// time)` triples, in worker order.
    pub(crate) fn observe(&mut self, delivered: &[(usize, f32, f64)], round_time: f64) {
        let n = delivered.len();
        match self {
            Self::PerWorker { agents, reward } => {
                let t_avg = sum_f64(delivered.iter().map(|d| d.2)) / n as f64;
                for &(w, delta, t) in delivered {
                    agents[w].observe(eucb_reward(delta, t, t_avg, reward));
                }
            }
            // Nobody delivered: the shared pull taught nothing.
            Self::Shared(agent) if n == 0 => agent.abandon(),
            Self::Shared(agent) => {
                let mean_delta = sum_f32(delivered.iter().map(|d| d.1)) / n as f32;
                agent.observe(mean_delta / round_time.max(1e-6) as f32);
            }
            Self::Fixed(_) | Self::Dense => {}
        }
    }
}

/// What distinguishes one synchronous method from another inside
/// [`run_rounds`]; everything else about the round is shared.
pub(crate) struct RoundMethod {
    /// The history's method name.
    pub(crate) name: &'static str,
    /// The `Aggregate` event's scheme label.
    pub(crate) scheme: &'static str,
    pub(crate) policy: RatioPolicy,
    /// Each worker's local step; the framed exchange ships worker `w`
    /// its `locals[w]` in the Setup.
    pub(crate) locals: Vec<LocalTrainConfig>,
    /// Each worker's codec pair, fixed for the run. `Some`: Eq. 5 pays
    /// the encoded frame sizes and the trace records the codecs. `None`:
    /// dense `f32` both ways, priced at the analytic 4 bytes per
    /// parameter.
    pub(crate) links: Option<Vec<LinkCodecs>>,
    /// The rest of the round (sync, residuals, faults, importance, and
    /// the slow-link threshold `CodecSelected` reports); a baseline runs
    /// the defaults.
    pub(crate) opts: FedMpOptions,
}

impl RoundMethod {
    /// Each worker's codec pair, dense where the method compresses
    /// nothing.
    pub(crate) fn link_pairs(&self) -> Vec<LinkCodecs> {
        self.links.clone().unwrap_or_else(|| vec![LinkCodecs::dense(); self.locals.len()])
    }
}

/// One of the paper's five synchronous methods (Table III, Figs. 6 and
/// 8–10) as a value either exchange runs: the inline exchange of the
/// loop engines ([`crate::run_fedmp`], [`crate::run_synfl`], …) and the
/// framed exchange of [`run_threaded`] and [`crate::run_sockets`]. Each
/// variant wraps the method's own options; a baseline runs every other
/// [`FedMpOptions`] field at its default.
#[derive(Debug, Clone, Copy)]
pub enum SyncMethod {
    /// FedMP as its options configure it.
    FedMp(FedMpOptions),
    /// Syn-FL: full-model FedAvg, ρ ≡ 0.
    SynFl,
    /// UP-FL: one shared agent picks the round's ratio, rewarded by the
    /// mean local loss improvement per unit of round time.
    UpFl(UpFlOptions),
    /// FedProx: ρ ≡ 0, and worker n performs `τₙ = max(min_tau, τ ·
    /// φₙ/φ_max)` proximal local iterations, where φₙ is its device
    /// throughput.
    FedProx(FedProxOptions),
    /// FlexCom: ρ ≡ 0, and worker n downloads the dense model and
    /// uploads a top-k delta keeping `clamp(max_keep · bwₙ/bw_max,
    /// min_keep, 1)` of each tensor, where bwₙ is its link bandwidth.
    FlexCom(FlexComOptions),
}

impl SyncMethod {
    /// The round body's description of this method on `setup`'s fleet.
    pub(crate) fn round<T>(&self, cfg: &FlConfig, setup: &FlSetup<'_, T>) -> RoundMethod {
        let workers = setup.workers();
        let uniform = vec![cfg.local; workers];
        let (name, scheme, policy, locals, links, opts) = match *self {
            Self::FedMp(opts) => {
                let (name, scheme) = match opts.sync {
                    SyncScheme::R2SP => ("FedMP", "R2SP"),
                    SyncScheme::BSP => ("FedMP-BSP", "BSP"),
                };
                let policy = match opts.fixed_ratio {
                    Some(ratio) => RatioPolicy::Fixed(ratio),
                    None => RatioPolicy::per_worker(opts.eucb, opts.reward, workers, cfg.seed),
                };
                let links = (!opts.compression.is_dense())
                    .then(|| setup.devices.iter().map(|d| opts.compression.select(d)).collect());
                (name, scheme, policy, uniform, links, opts)
            }
            Self::SynFl => {
                ("Syn-FL", "FedAvg", RatioPolicy::Dense, uniform, None, Default::default())
            }
            Self::UpFl(o) => {
                let policy = RatioPolicy::Shared(seeded_agent(o.eucb, cfg.seed));
                ("UP-FL", "R2SP", policy, uniform, None, Default::default())
            }
            Self::FedProx(o) => {
                let max_flops = setup.devices.iter().map(|d| d.flops()).fold(0.0, f64::max);
                let local = |d: &DeviceProfile| {
                    let scaled = (cfg.local.tau as f64 * d.flops() / max_flops).round() as usize;
                    LocalTrainConfig { tau: scaled.max(o.min_tau), prox_mu: o.mu, ..cfg.local }
                };
                let locals = setup.devices.iter().map(local).collect();
                ("FedProx", "FedAvg", RatioPolicy::Dense, locals, None, Default::default())
            }
            Self::FlexCom(o) => {
                let max_bw = setup.devices.iter().map(|d| d.bandwidth()).fold(0.0, f64::max);
                let link = |d: &DeviceProfile| {
                    let keep =
                        (o.max_keep * (d.bandwidth() / max_bw) as f32).clamp(o.min_keep, 1.0);
                    LinkCodecs { downlink: Codec::DenseF32, uplink: Codec::TopK { keep } }
                };
                let links = Some(setup.devices.iter().map(link).collect());
                ("FlexCom", "FedAvg+topk", RatioPolicy::Dense, uniform, links, Default::default())
            }
        };
        RoundMethod { name, scheme, policy, locals, links, opts }
    }
}

/// The residual R2SP keeps until aggregation (§III-C): as computed, or,
/// with `quantize`, rounded to 8-bit precision through the wire's `Int8`
/// codec — each value the nearest code of its tensor's scale. The
/// rounded residual stays `f32`: it models an 8-bit store's precision,
/// not its memory.
fn stored_residual(residual: Vec<StateEntry>, quantize: bool) -> Vec<StateEntry> {
    if quantize {
        codec_delivered(&residual, Codec::Int8, None, None)
    } else {
        residual
    }
}

/// Runs `method` for `cfg.rounds` rounds starting from `global`, moving
/// models through `exchange`. `chaos` supplies the virtual-clock
/// penalties (injected delay, retransmit backoff) and the aggregation
/// quorum; [`ChaosOptions::none`] makes all three vanish.
pub(crate) fn run_rounds<M: FlModel, X: Exchange<M>>(
    cfg: &FlConfig,
    setup: &FlSetup<'_, M::Task>,
    mut global: M,
    method: RoundMethod,
    chaos: &ChaosOptions,
    exchange: &mut X,
) -> Result<RunHistory, X::Error> {
    let workers = setup.workers();
    // Every link moves the same models either way; `compressed` only
    // decides whether Eq. 5 pays encoded frame sizes (and says so in
    // the trace) or the analytic 4 bytes per parameter.
    let compressed = method.links.is_some();
    let links = method.link_pairs();
    let RoundMethod { name, scheme, mut policy, locals, opts, .. } = method;
    let mut sim_time = 0.0f64;

    let mut injector = opts.faults.map(|f| f.injector(workers));
    let mut fault_rng = fedmp_tensor::seeded_rng(cfg.seed ^ 0xFA17);
    let plan = ChaosPlan::new(cfg.seed, chaos);
    // Trace events are emitted here only, after the exchange returns,
    // so event order is deterministic and the per-round kernel deltas
    // are exact (all worker kernels for the round have run by then).
    let mut log = RoundLog::new(name);

    for round in 0..cfg.rounds {
        exchange.rejoin(round)?;

        // §V-A churn: failed workers sit the round out. (`step` emits
        // the FaultInjected/FaultRecovered trace events, so they
        // precede this round's RoundStart.)
        let online: Vec<usize> = match injector.as_mut() {
            Some(inj) => inj.step(&mut fault_rng),
            None => (0..workers).collect(),
        };
        fedmp_obs::emit(|| TraceEvent::RoundStart { round, sim_time, online: online.clone() });
        if online.is_empty() {
            log.close(RoundRecord { round, sim_time, ..Default::default() });
            continue;
        }
        if compressed {
            for &w in &online {
                fedmp_obs::emit(|| TraceEvent::CodecSelected {
                    round,
                    worker: w,
                    downlink: links[w].downlink.label(),
                    uplink: links[w].uplink.label(),
                    slow_link: setup.devices[w].is_slow_link(opts.compression.slow_link_bps),
                });
            }
        }

        // ① Adaptive model pruning: choose ratios (serially — the
        // bandit is order-sensitive), then fan the per-worker PS work
        // across the round executor: plan and extract the sub-model,
        // form the residual R2SP keeps until aggregation (§III-C,
        // optionally rounded to 8-bit precision; BSP keeps none) and
        // price the sub-model (Eq. 5). Every input is read-only, so
        // each slot is a pure function of its ratio.
        let ratios = policy.select(&online);
        let global_state = global.state();
        let prepared = exec::ordered_map(ratios.clone(), |i, ratio| {
            let plan = global.plan(setup.task, ratio, opts.importance);
            let sub = global.extract(&plan);
            // `sub` is fresh, so its recovery is the sparse model `xₙ`.
            let residual = (opts.sync == SyncScheme::R2SP).then(|| {
                stored_residual(
                    residual(&global_state, &sub, &plan, &global),
                    opts.quantize_residuals,
                )
            });
            let cost = sub.round_cost(setup.task, &locals[online[i]]);
            ((plan, sub), (residual, cost))
        });
        let ((plans, subs), (mut residuals, costs)): ((Vec<_>, Vec<_>), (Vec<_>, Vec<_>)) =
            prepared.into_iter().unzip();

        // ② The exchange; its outcomes fold in worker order. A worker
        // whose outcome never arrived (lost, corrupt beyond the budget,
        // crashed) abandons its bandit pull — no reward can honestly
        // be assigned to it.
        let exchanged = exchange.exchange(round, &online, &links, &plans, subs)?;
        let mut retries = Vec::with_capacity(online.len());
        let mut excluded = vec![None::<&'static str>; online.len()];
        let mut deliveries: Vec<(usize, Arrival<X::Upload>)> = Vec::with_capacity(online.len());
        for (i, e) in exchanged.into_iter().enumerate() {
            retries.push(e.retransmits);
            match e.result {
                Ok(arrival) => deliveries.push((i, arrival)),
                Err(reason) => {
                    excluded[i] = Some(reason);
                    policy.abandon(online[i]);
                }
            }
        }

        // Virtual-clock accounting for delivered uploads from each
        // sub-model's actual cost (Eq. 5), plus the chaos penalties:
        // retransmit backoff and injected delay.
        let mut times = Vec::with_capacity(deliveries.len());
        let mut delivered = Vec::with_capacity(deliveries.len());
        let mut mean_comp = 0.0;
        let mut mean_comm = 0.0;
        for (i, a) in &deliveries {
            let w = online[*i];
            let mut cost = costs[*i];
            if let (true, Some(wire)) = (compressed, &a.wire) {
                cost.download_bytes = wire.down as f64;
                cost.upload_bytes = wire.up as f64;
                for (direction, codec, wire_bytes) in
                    [("down", links[w].downlink, wire.down), ("up", links[w].uplink, wire.up)]
                {
                    fedmp_obs::emit(|| TraceEvent::CompressionApplied {
                        round,
                        worker: w,
                        direction: direction.to_string(),
                        codec: codec.label(),
                        dense_bytes: wire.dense,
                        wire_bytes,
                    });
                }
            }
            let mut rng = worker_rng(cfg.seed ^ M::TIME_SALT, round, w);
            let t = setup.simulate_round(w, &cost, &mut rng);
            mean_comp += t.comp;
            mean_comm += t.comm;
            fedmp_obs::emit(|| {
                let scaled = setup.scaled_cost(&cost);
                TraceEvent::LocalTrain {
                    round,
                    worker: w,
                    ratio: ratios[*i],
                    loss: a.outcome.mean_loss,
                    delta_loss: a.outcome.delta_loss(),
                    tau: locals[w].tau,
                    samples: a.outcome.samples,
                    comp_secs: t.comp,
                    comm_secs: t.comm,
                    bytes_down: scaled.download_bytes,
                    bytes_up: scaled.upload_bytes,
                }
            });
            let t_n = t.total() + plan.draw(round, w).delay_secs + chaos.backoff_total(retries[*i]);
            times.push(t_n);
            delivered.push((w, a.outcome.delta_loss(), t_n));
        }
        let dn = deliveries.len().max(1) as f64;
        mean_comp /= dn;
        mean_comm /= dn;
        for (i, &r) in retries.iter().enumerate() {
            for attempt in 1..=r {
                fedmp_obs::emit(|| TraceEvent::FrameRetransmit {
                    round,
                    worker: online[i],
                    attempt,
                    backoff_secs: chaos.backoff_for(attempt),
                });
            }
        }

        // §V-A deadline over the delivered arrivals: stragglers past
        // `factor · d` are excluded from aggregation, but they trained
        // and still teach the bandit below.
        let deadline =
            opts.faults.and_then(|f| deadline_for(&times, f.deadline_frac, f.deadline_factor));
        let max_t = times.iter().copied().fold(0.0, f64::max);
        let round_time = match deadline {
            // With lost exchanges the PS waits the whole deadline
            // window for arrivals that never come.
            Some(d) if deliveries.len() < online.len() => d,
            Some(d) => max_t.min(d),
            None => max_t,
        };
        sim_time += round_time;

        // Exclusion events, worker order: exchange exclusions and
        // deadline stragglers merged by online position. What is left
        // unmarked is kept for aggregation.
        for ((i, _), &t) in deliveries.iter().zip(&times) {
            if deadline.is_some_and(|d| t > d) {
                excluded[*i] = Some("deadline");
            }
        }
        for (i, reason) in excluded.iter().enumerate() {
            if let Some(reason) = reason {
                exchange.note_excluded(round, online[i], reason);
                fedmp_obs::emit(|| TraceEvent::WorkerExcluded {
                    round,
                    worker: online[i],
                    reason: reason.to_string(),
                });
            }
        }
        let kept = excluded.iter().filter(|e| e.is_none()).count();

        // Policy feedback (Eq. 8 for FedMP) from every delivered worker.
        policy.observe(&delivered, round_time);

        // ③ Reconstruct the kept uploads and aggregate under the
        // quorum. Reconstruction, recovery and completion fan out, each
        // kept worker's residual moved into its slot; the fallible
        // completions come back and fold in worker order.
        let (kept_uploads, kept_losses): (Vec<_>, Vec<f32>) = deliveries
            .into_iter()
            .filter(|(i, _)| excluded[*i].is_none())
            .map(|(i, a)| ((i, a.upload, std::mem::take(&mut residuals[i])), a.outcome.mean_loss))
            .unzip();
        let train_loss = sum_f32(kept_losses) / kept as f32;
        let mut sum = ExactState::like(&global_state);
        for c in exec::ordered_map(kept_uploads, |_, (i, upload, residual)| {
            X::reconstruct(upload)
                .map(|model| completion(&model.recover(&plans[i], &global), residual.as_deref()))
        }) {
            sum.fold(&c?);
        }
        let quorum = chaos.quorum(online.len());
        // Below quorum the round's uploads are discarded and the global
        // model carries over unchanged.
        let participants = if meets_quorum(kept, quorum) { kept } else { 0 };
        if participants > 0 {
            global.load_state(&sum.finalize(kept));
            if kept < online.len() {
                fedmp_obs::emit(|| TraceEvent::QuorumAggregate {
                    round,
                    quorum,
                    participants: kept,
                    excluded: online.len() - kept,
                });
            }
            fedmp_obs::emit(|| TraceEvent::Aggregate {
                round,
                scheme: scheme.to_string(),
                participants: kept,
            });
        }

        let eval = evaluate_if_due(cfg, round, &mut global, setup.task);
        log.close(RoundRecord {
            round,
            sim_time,
            round_time,
            mean_comp,
            mean_comm,
            train_loss,
            eval,
            ratios: if matches!(policy, RatioPolicy::Dense) { vec![] } else { ratios },
            participants,
            retries: retries.iter().map(|&r| r as usize).sum(),
            exclusions: online.len() - kept,
        });
    }
    Ok(log.into_history())
}

/// A worker → PS message.
pub(crate) struct UplinkMsg {
    pub(crate) worker: usize,
    pub(crate) round: usize,
    pub(crate) body: UplinkBody,
}

/// The payload of an [`UplinkMsg`].
pub(crate) enum UplinkBody {
    /// The trained upload: wire frame (possibly corrupted in transit)
    /// and training outcome.
    Model { frame: Bytes, outcome: LocalOutcome },
    /// A retransmission: the model frame only (the PS cached the
    /// outcome from the first arrival).
    Frame { frame: Bytes },
    /// The upload was lost in transit — the in-process stand-in for
    /// the PS timing the worker out.
    Lost,
    /// The worker's link is gone — the fleet's report of a connection
    /// that closed (how a planned crash manifests) or could not be
    /// read; nothing more arrives from it until the PS restarts it next
    /// round.
    Crashed,
    /// The exchange broke the protocol: the dispatched frame failed to
    /// decode worker-side, or a fleet received something it could not
    /// read as any of the above.
    Malformed,
}

/// Errors returned by the threaded and socket runtimes. Whatever one
/// worker does during a round — corrupt frames, losses, stragglers,
/// crashes, unannounced disconnects, messages outside the protocol — is
/// *recoverable* and handled in-run (retransmit, exclusion, rejoin —
/// `fl::barrier`); these variants are what remains terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeError {
    /// A delivered upload failed structural decoding even though its
    /// checksum verified — an encoder-side violation found only at
    /// reconstruction, after the barrier.
    CorruptFrame {
        /// Worker whose frame failed to decode.
        worker: usize,
        /// Round the frame belonged to.
        round: usize,
    },
    /// A socket-fleet operation failed terminally — bind, accept, node
    /// spawn, handshake, reader join or node reap during bring-up,
    /// respawn or teardown — whether the nodes are threads
    /// ([`run_threaded`]) or processes.
    Transport {
        /// The worker the operation concerned (0 for fleet-wide
        /// failures such as binding the listener).
        worker: usize,
        /// Which transport operation failed.
        fault: crate::transport::TransportFault,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::CorruptFrame { worker, round } => {
                write!(f, "wire frame for worker {worker} failed to decode in round {round}")
            }
            RuntimeError::Transport { worker, fault } => {
                write!(f, "socket transport failed for worker {worker}: {fault}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Live runtime threads — in-process worker nodes and the socket
/// fleet's reader threads — process-wide. Because every run joins them
/// before returning (see the module docs), this is 0 whenever no run is
/// in flight — the invariant the thread-leak regression tests check.
pub fn live_worker_threads() -> usize {
    LIVE_WORKERS.load(Ordering::SeqCst)
}

static LIVE_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// RAII registration in the live-thread gauge, held by every node
/// thread ([`ThreadNodes`]) and every reader thread of the socket fleet
/// so `live_worker_threads()` covers every runtime-managed thread in the
/// crate.
pub(crate) struct LiveThreadGuard;

impl LiveThreadGuard {
    /// Registers the calling thread until the guard drops.
    pub(crate) fn register() -> Self {
        LIVE_WORKERS.fetch_add(1, Ordering::SeqCst);
        LiveThreadGuard
    }
}

impl Drop for LiveThreadGuard {
    fn drop(&mut self) {
        LIVE_WORKERS.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The worker half of the recoverable protocol, run by every socket
/// node — thread or process — in `fl::transport::serve_worker`:
/// per-dispatch chaos draws, local training, lossy encode, and the
/// retransmission cache. Its decode and encode are the ones the loop
/// engine's `codec_delivered` oracle predicts, which is what makes every
/// driver bit-identical under the same seed.
pub(crate) struct WorkerProtocol<'a, M: FlModel> {
    w: usize,
    task: &'a M::Task,
    /// The global architecture from the Setup: shapes and zero weights,
    /// which each dispatched frame overwrites in the extracted sub-model.
    arch: &'a M,
    local: LocalTrainConfig,
    seed: u64,
    plan: ChaosPlan,
    link: LinkCodecs,
    /// The clean upload frame of the current round plus how many times
    /// it has been sent — the retransmission source.
    cached: Option<(Bytes, u32)>,
    /// Uplink error feedback lives worker-side, exactly where the lossy
    /// encode happens. A respawned (crashed) worker starts from a zero
    /// accumulator — deterministic, since the crash schedule is a pure
    /// function of the chaos plan.
    feedback: ErrorFeedback,
}

/// What the transport must do with one protocol reply.
pub(crate) enum WorkerStep {
    /// Send the reply and keep serving.
    Reply(UplinkMsg),
    /// The chaos plan crashed the worker: stop serving and close the
    /// connection without a word, which the PS reads as the worker's
    /// [`UplinkBody::Crashed`].
    Crash,
}

impl<'a, M: FlModel> WorkerProtocol<'a, M> {
    pub(crate) fn new(
        w: usize,
        task: &'a M::Task,
        arch: &'a M,
        local: LocalTrainConfig,
        seed: u64,
        plan: ChaosPlan,
        link: LinkCodecs,
    ) -> Self {
        WorkerProtocol {
            w,
            task,
            arch,
            local,
            seed,
            plan,
            link,
            cached: None,
            feedback: ErrorFeedback::new(),
        }
    }

    /// Handles one dispatch. (A downlink the chaos plan drops never
    /// gets here: the PS decides that loss itself and sends nothing.)
    pub(crate) fn on_dispatch(&mut self, round: usize, frame: Bytes, plan: &M::Plan) -> WorkerStep {
        let w = self.w;
        let draw = self.plan.draw(round, w);
        if draw.crash {
            return WorkerStep::Crash;
        }
        // One OS thread (or process) per worker is already the
        // parallelism level here; run the kernels beneath sequentially
        // so the band scheduler does not oversubscribe the host
        // (results are identical — kernels are thread-count invariant).
        let trained = fedmp_tensor::parallel::with_nested_sequential(|| {
            // The frame must fill the sub-model the plan cuts, entry for
            // entry, so it decodes against that sub-model's shapes. The
            // reference is all zeros, the base the PS's `link_delivered`
            // oracle gives a sparse downlink, so the decode reconstructs
            // exactly the snapshot it predicts, whatever the codec.
            let mut model = self.arch.extract(plan);
            let zeros: Vec<StateEntry> = model
                .state()
                .into_iter()
                .map(|e| StateEntry { tensor: Tensor::zeros(e.tensor.dims()), ..e })
                .collect();
            decode_state_v2(&frame, Some(&zeros)).ok().map(|state| {
                model.load_state(&state);
                let outcome = model.train(self.task, w, self.seed, round, &self.local);
                // Encode (and fold the residual into the error
                // feedback) even when chaos later drops the upload —
                // the loss is in transit, after the encoder ran.
                let up = encode_state_v2(
                    &model.state(),
                    self.link.uplink,
                    Some(&state),
                    Some(&mut self.feedback),
                );
                (up, outcome)
            })
        });
        let reply = match trained {
            None => {
                self.cached = None;
                UplinkMsg { worker: w, round, body: UplinkBody::Malformed }
            }
            Some(_) if draw.drop_up => {
                // Trained, but the upload vanishes in transit.
                self.cached = None;
                UplinkMsg { worker: w, round, body: UplinkBody::Lost }
            }
            Some((clean, outcome)) => {
                let frame =
                    if draw.corrupt_sends > 0 { corrupted_copy(&clean) } else { clean.clone() };
                self.cached = Some((clean, 1));
                UplinkMsg { worker: w, round, body: UplinkBody::Model { frame, outcome } }
            }
        };
        WorkerStep::Reply(reply)
    }

    /// Handles one retransmit request against the cached clean frame.
    pub(crate) fn on_retransmit(&mut self, round: usize) -> WorkerStep {
        let w = self.w;
        let reply = match self.cached.as_mut() {
            Some((clean, sends)) => {
                let draw = self.plan.draw(round, w);
                let corrupt = *sends < draw.corrupt_sends;
                *sends += 1;
                let frame = if corrupt { corrupted_copy(clean) } else { clean.clone() };
                UplinkMsg { worker: w, round, body: UplinkBody::Frame { frame } }
            }
            // Nothing cached to resend — report the exchange lost.
            None => UplinkMsg { worker: w, round, body: UplinkBody::Lost },
        };
        WorkerStep::Reply(reply)
    }
}

/// A delivered (checksum-verified) upload together with the PS-side
/// record of its dispatch — everything [`Exchange::reconstruct`] needs.
pub(crate) struct FramedUpload<M> {
    worker: usize,
    round: usize,
    frame: VerifiedFrame,
    /// The sub-model that was extracted and dispatched; its
    /// architecture receives the decoded upload.
    sub: M,
    /// The snapshot the worker reconstructed from the dispatched frame
    /// (the PS's own decode of that frame) — the uplink delta
    /// reference.
    received: Vec<StateEntry>,
}

/// The framed [`Exchange`]: every sub-model crosses the socket fleet as
/// one wire frame and every trained model comes back as one. In
/// between it pumps a [`Barrier`], which holds the recovery policy —
/// bounded retransmits of checksum-failed uploads, exclusion of lost,
/// vanished and protocol-breaking exchanges — and restarts the workers
/// whose link is gone or no longer trusted at the next round.
pub(crate) struct FramedExchange<'f, 'a, S: NodeSpawner> {
    fleet: &'f mut SocketFleet<'a, S>,
    plan: ChaosPlan,
    /// Workers awaiting a restart in [`Exchange::rejoin`].
    crashed: Vec<bool>,
}

impl<'f, 'a, S: NodeSpawner> FramedExchange<'f, 'a, S> {
    /// The exchange over `fleet`'s `workers` links under `plan`.
    pub(crate) fn new(fleet: &'f mut SocketFleet<'a, S>, plan: ChaosPlan, workers: usize) -> Self {
        FramedExchange { fleet, plan, crashed: vec![false; workers] }
    }
}

impl<M, S> Exchange<M> for FramedExchange<'_, '_, S>
where
    M: FlModel,
    M::Plan: Serialize,
    S: NodeSpawner,
{
    type Upload = FramedUpload<M>;
    type Error = RuntimeError;

    fn rejoin(&mut self, round: usize) -> Result<(), RuntimeError> {
        for (w, down) in self.crashed.iter_mut().enumerate() {
            if !*down {
                continue;
            }
            self.fleet.respawn(round, w)?;
            *down = false;
            fedmp_obs::emit(|| TraceEvent::WorkerRejoined { round, worker: w });
        }
        Ok(())
    }

    fn exchange(
        &mut self,
        round: usize,
        online: &[usize],
        links: &[LinkCodecs],
        plans: &[M::Plan],
        subs: Vec<M>,
    ) -> Result<Vec<Exchanged<FramedUpload<M>>>, RuntimeError> {
        let workers = links.len();
        // Dispatch frames: encoding, and decoding each frame into what
        // its worker will receive, fans out across the round executor;
        // then the sends happen serially in worker order.
        let work: Vec<(usize, M)> = online.iter().copied().zip(subs).collect();
        let prepared = exec::ordered_map(work, |_, (w, sub)| {
            let (frame, received, dense) =
                link_delivered(&sub.state(), links[w].downlink, None, None);
            (frame, sub, received, dense)
        });
        // The chaos plane rewrites events where it needs no peer: a
        // downlink it drops is decided here and nothing is sent. (A
        // crash draw is dispatched — the worker must hear of the round
        // to die in it.) A link that will not take its dispatch is gone.
        let mut barrier = Barrier::new(online.len(), self.plan.options().max_retransmits);
        let mut dispatched = Vec::with_capacity(online.len());
        for (i, (frame, sub, received, dense)) in prepared.into_iter().enumerate() {
            let w = online[i];
            dispatched.push((sub, received, frame.len() as u64, dense));
            let draw = self.plan.draw(round, w);
            if draw.drop_down && !draw.crash {
                barrier.on(i, Event::Lost);
            } else if !self.fleet.dispatch(round, w, frame, &plans[i]) {
                barrier.on(i, Event::Gone);
            }
        }

        // Collection barrier: translate what the fleet delivers into
        // barrier events and carry out its actions until every slot is
        // terminal. This loop does **no** order-sensitive processing —
        // arrival order varies run to run; everything deterministic
        // happens after the barrier, in worker order.
        let mut pos = vec![None; workers];
        for (i, &w) in online.iter().enumerate() {
            pos[w] = Some(i);
        }
        // The first upload's outcome; a retransmission is a frame only.
        // An upload is hashed once, here: the barrier carries the
        // verified frame on to `reconstruct`.
        let mut outcomes: Vec<Option<LocalOutcome>> = vec![None; online.len()];
        let upload = |frame: Bytes, outcome: LocalOutcome| {
            let verified = verify_frame(frame).ok();
            Event::Upload { intact: verified.is_some(), payload: verified.map(|f| (f, outcome)) }
        };
        while !barrier.done() {
            let UplinkMsg { worker: w, round: msg_round, body } = self.fleet.recv(round)?;
            // A link that is gone needs a restart whenever that is
            // learnt, its slot long settled (or absent) or not.
            if let (UplinkBody::Crashed, Some(down)) = (&body, self.crashed.get_mut(w)) {
                *down = true;
            }
            let Some(i) = pos.get(w).copied().flatten() else { continue };
            let event = match body {
                UplinkBody::Crashed => Event::Gone,
                _ if msg_round != round => Event::Malformed,
                UplinkBody::Model { frame, outcome } => {
                    upload(frame, *outcomes[i].get_or_insert(outcome))
                }
                UplinkBody::Frame { frame } => match outcomes[i] {
                    Some(outcome) => upload(frame, outcome),
                    None => Event::Malformed,
                },
                UplinkBody::Lost => Event::Lost,
                UplinkBody::Malformed => Event::Malformed,
            };
            if barrier.on(i, event) == Action::Retransmit && !self.fleet.retransmit(round, w) {
                barrier.on(i, Event::Gone);
            }
        }

        // Post-barrier: report the outcomes in worker order.
        let mut exchanged = Vec::with_capacity(online.len());
        for (i, ((retransmits, outcome), (sub, received, down, dense))) in
            barrier.finish().into_iter().zip(dispatched).enumerate()
        {
            let worker = online[i];
            if matches!(outcome, Err("crashed" | "protocol")) {
                self.crashed[worker] = true;
            }
            // An intact upload always carries its frame.
            let result = outcome.and_then(|p| p.ok_or("corrupt")).map(|(frame, outcome)| Arrival {
                wire: Some(WireBytes { down, up: frame.len() as u64, dense }),
                upload: FramedUpload { worker, round, frame, sub, received },
                outcome,
            });
            exchanged.push(Exchanged { retransmits, result });
        }
        Ok(exchanged)
    }

    fn reconstruct(upload: FramedUpload<M>) -> Result<M, RuntimeError> {
        let FramedUpload { worker, round, frame, sub: mut model, received } = upload;
        // Uplinks decode against the snapshot the worker trained from
        // (its decoded downlink, which the PS decoded too). It also
        // binds the upload's shape: one unlike the sub-model is a
        // corrupt frame here, not a `load_state` panic.
        let state = decode_verified(&frame, Some(&received))
            .map_err(|_| RuntimeError::CorruptFrame { worker, round })?;
        model.load_state(&state);
        Ok(model)
    }

    fn note_excluded(&mut self, round: usize, worker: usize, reason: &str) {
        self.fleet.note_excluded(round, worker, reason);
    }
}

/// Runs `method` on the threaded runtime under a seeded transport fault
/// plane — see the module docs for the recovery policy. This is
/// [`crate::run_sockets`] with one in-process [`ThreadNodes`] thread per
/// worker on a fresh [`unique_socket_path`]: the same frames, the same
/// recovery and the same socket-level trace events as a fleet of
/// `fedmp-node` processes. `global` is any [`FlModel`] whose task names
/// it as its [`Workers::Model`]: the CNNs on an image task, the LSTM on
/// an [`crate::LmTask`]. Chaos off, the history is bit-identical to the
/// loop engine's under the same method, fault injection included.
///
/// # Errors
/// Every injected fault is recovered in-run.
/// [`RuntimeError::Transport`] reports a socket-fleet operation that
/// failed terminally (bind, accept, handshake, node spawn, reader join
/// or reap); [`RuntimeError::CorruptFrame`] an undecodable
/// checksum-verified frame. Both are surfaced as typed errors rather
/// than panics: the crate denies every panic path (`lib.rs`).
pub fn run_threaded<M>(
    cfg: &FlConfig,
    setup: &FlSetup<'_, M::Task>,
    global: M,
    method: &SyncMethod,
    chaos: &ChaosOptions,
) -> Result<RunHistory, RuntimeError>
where
    M: FlModel + Serialize + Deserialize,
    M::Task: Workers<Model = M> + Clone + Send + 'static,
    M::Plan: Serialize + Deserialize,
{
    let sock = SocketRunOptions::new(unique_socket_path("threads"), Vec::new());
    let mut nodes = ThreadNodes {
        task: Arc::new(setup.task.clone()),
        socket: sock.socket.clone(),
        connect_attempts: 12,
        connect_backoff: Duration::from_millis(2),
    };
    run_sockets(cfg, setup, global, method, chaos, &sock, &mut nodes)
}

/// [`run_threaded`] for FedMP with no transport chaos. Kept only because
/// the benchmark harness calls it by name; ROADMAP item 5's
/// `[benchmark]` change deletes it.
///
/// # Errors
/// See [`run_threaded`].
pub fn run_fedmp_threaded(
    cfg: &FlConfig,
    setup: &FlSetup<'_>,
    global: fedmp_nn::Sequential,
    opts: &FedMpOptions,
) -> Result<RunHistory, RuntimeError> {
    run_threaded(cfg, setup, global, &SyncMethod::FedMp(*opts), &ChaosOptions::none())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::ImageTask;
    use crate::wire::frame_checksum_ok;
    use fedmp_data::{iid_partition, mnist_like};
    use fedmp_edgesim::{tx2_profile, ComputeMode, LinkQuality, TimeModel};
    use fedmp_nn::zoo;
    use fedmp_pruning::{plan_lstm, plan_sequential};
    use fedmp_tensor::seeded_rng;

    #[test]
    fn the_quantized_residual_store_keeps_int8_precision() {
        // §III-C's 8-bit store: each value of a kept residual tensor is
        // k · scale for an integer |k| ≤ 127 at its tensor's int8 scale
        // (max|r| / 127), within scale / 2 of the exact residual.
        let global = zoo::cnn_mnist(0.25, &mut seeded_rng(264));
        let plan = plan_sequential(&global, (1, 28, 28), 0.4);
        let sub = FlModel::extract(&global, &plan);
        let exact = residual(&global.state(), &sub, &plan, &global);
        let stored = stored_residual(exact.clone(), true);
        assert_eq!(stored.len(), exact.len());
        for (e, q) in exact.iter().zip(&stored) {
            let max = e.tensor.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
            let scale = if max > 0.0 { max / 127.0 } else { 1.0 };
            for (x, y) in e.tensor.data().iter().zip(q.tensor.data()) {
                let k = y / scale;
                assert!((k - k.round()).abs() < 1e-4 && k.abs() < 127.5, "{}: {y}", e.name);
                assert!((x - y).abs() <= scale / 2.0 * (1.0 + 1e-4), "{}: {x} → {y}", e.name);
            }
        }
    }

    #[test]
    fn threaded_runtime_bsp_and_fixed_ratio_work() {
        let (train, test) = mnist_like(0.1, 262).generate();
        let part = iid_partition(&train, 3, &mut seeded_rng(262));
        let task = ImageTask::new(train, test, part);
        let devices = vec![
            tx2_profile(ComputeMode::Mode0, LinkQuality::Near),
            tx2_profile(ComputeMode::Mode1, LinkQuality::Mid),
            tx2_profile(ComputeMode::Mode3, LinkQuality::Far),
        ];
        let setup = FlSetup::new(&task, devices, TimeModel::deterministic());
        let mut rng = seeded_rng(263);
        let global = zoo::cnn_mnist(0.1, &mut rng);
        let cfg = FlConfig { rounds: 2, ..Default::default() };
        let opts =
            FedMpOptions { sync: SyncScheme::BSP, fixed_ratio: Some(0.4), ..Default::default() };
        let h = run_threaded(&cfg, &setup, global, &SyncMethod::FedMp(opts), &ChaosOptions::none())
            .expect("threaded run");
        assert_eq!(h.rounds.len(), 2);
        assert!(h.rounds.iter().all(|r| r.ratios.iter().all(|&x| x == 0.4)));
        assert!(h.rounds.iter().all(|r| r.participants == 3 && r.exclusions == 0));
    }

    /// A dense upload shaped unlike the sub-model it answers, with a
    /// valid checksum: the PS reports the typed corrupt frame, for either
    /// model family, instead of loading it.
    #[test]
    fn a_forged_upload_is_a_corrupt_frame() {
        fn forged<M>(sub: M, forge: impl FnOnce(&mut [StateEntry])) -> Option<RuntimeError>
        where
            M: FlModel,
            M::Plan: Serialize,
        {
            let received = sub.state();
            let mut state = received.clone();
            forge(&mut state);
            let frame = encode_state_v2(&state, Codec::DenseF32, None, None);
            let frame = verify_frame(frame).expect("sealed by its encoder");
            let upload = FramedUpload { worker: 1, round: 3, frame, sub, received };
            <FramedExchange<'_, '_, ThreadNodes> as Exchange<M>>::reconstruct(upload).err()
        }
        let corrupt = Some(RuntimeError::CorruptFrame { worker: 1, round: 3 });
        let cnn = zoo::cnn_mnist(0.1, &mut seeded_rng(264));
        let sub = cnn.extract(&plan_sequential(&cnn, (1, 28, 28), 0.4));
        assert_eq!(forged(sub, |s| s[0].name.push_str(".forged")), corrupt);
        // `LstmLm::load_state` checks names only: a resized entry would load.
        let lm = zoo::lstm_ptb(30, 0.15, &mut seeded_rng(265));
        let sub = lm.extract(&plan_lstm(&lm, 0.5));
        let resize = |s: &mut [StateEntry]| {
            let dims = s[1].tensor.dims();
            s[1].tensor = Tensor::zeros(&[dims[0], dims[1] + 1]);
        };
        assert_eq!(forged(sub, resize), corrupt);
    }

    /// A dispatch whose first entry claims a 64 MiB tensor the plan never
    /// cut, re-sealed: the worker answers `Malformed` without allocating
    /// it, and the genuine frame still trains.
    #[test]
    fn a_dispatch_unlike_the_planned_sub_model_is_malformed() {
        let (train, test) = mnist_like(0.05, 266).generate();
        let part = iid_partition(&train, 2, &mut seeded_rng(266));
        let task = ImageTask::new(train, test, part);
        let global = zoo::cnn_mnist(0.1, &mut seeded_rng(267));
        let plan = plan_sequential(&global, task.input_chw, 0.4);
        let codec = Codec::TopK { keep: 0.5 };
        let genuine = encode_state_v2(&global.extract(&plan).state(), codec, None, None);
        // Entry 0's dims follow the magic, codec tag, keep, entry count,
        // name length, name, trainable flag and rank.
        let name_len = usize::from(u16::from_le_bytes([genuine[13], genuine[14]]));
        let dims = 15 + name_len + 2;
        assert_eq!(genuine[dims - 1], 4, "entry 0 is a conv kernel");
        let mut forged = genuine.to_vec();
        for (i, d) in [4096u32, 4096, 1, 1].into_iter().enumerate() {
            forged[dims + 4 * i..dims + 4 * i + 4].copy_from_slice(&d.to_le_bytes());
        }
        let body = forged.len() - 4;
        let sum = fedmp_tensor::crc32c(&forged[4..body]);
        forged[body..].copy_from_slice(&sum.to_le_bytes());
        assert!(frame_checksum_ok(&forged), "re-sealed");

        let chaos = ChaosPlan::new(7, &ChaosOptions::none());
        let local = LocalTrainConfig::default();
        let mut proto =
            WorkerProtocol::new(0, &task, &global, local, 7, chaos, LinkCodecs::dense());
        let body = |step| match step {
            WorkerStep::Reply(msg) => msg.body,
            WorkerStep::Crash => panic!("no crash is planned"),
        };
        let reply = body(proto.on_dispatch(0, Bytes::from(forged), &plan));
        assert!(matches!(reply, UplinkBody::Malformed), "the forged dispatch was taken");
        let reply = body(proto.on_dispatch(1, genuine, &plan));
        assert!(matches!(reply, UplinkBody::Model { .. }), "the genuine dispatch was refused");
    }
}
