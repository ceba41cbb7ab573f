//! The FedMP parameter server: the one round body every FedMP driver
//! and every synchronous baseline runs, and the threaded PS/worker
//! runtime — the closest in-process analogue of the paper's physical
//! prototype (one PS process + 30 Jetson workers).
//!
//! [`run_rounds`] is Algorithm 1 with the §V-A deadline: pick ratios →
//! prune → exchange → Eq. 5 timing → `factor · d` deadline → Eq. 8
//! reward → quorum R2SP/BSP → evaluate. A [`RoundMethod`] says how ρ
//! is picked and rewarded and what each worker's local step is: FedMP,
//! or a baseline that is one of its corners (`engines::baselines`). It
//! asks its driver for one thing through [`Exchange`]: *move this
//! round's sub-models to their workers and bring back what each one
//! trained*. The **inline**
//! exchange of [`crate::run_fedmp`] trains in-process on the codec
//! oracle — no frames, cannot fail. The **framed** exchange defined
//! here drives `fl::transport`'s socket fleet: one node per worker — an
//! in-process thread ([`run_fedmp_threaded`]) or an OS process — behind
//! a Unix-domain socket, with models moved as real [`crate::wire`]
//! frames: every sub-model download and trained-model upload is one
//! serialised, checksummed frame, exactly as a networked deployment
//! would move it. A worker is handed the global *architecture* once,
//! when it connects; per round it receives only the frame and the
//! pruning plan, and rebuilds its sub-model from those. Simulated time
//! still comes from `fedmp-edgesim` (nodes run as fast as the host
//! allows; the virtual clock stays authoritative for completion-time
//! results).
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
//! models survive exclusion — R2SP-style partial aggregation via
//! [`quorum_aggregate`]; below quorum the global model carries over
//! unchanged. Recovery outcomes are recorded per round in
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

use crate::aggregate::{bsp_aggregate, quorum_aggregate};
use crate::barrier::{Action, Barrier, Event};
use crate::chaos::{corrupted_copy, ChaosOptions, ChaosPlan};
use crate::engine::{
    emit_aggregate, emit_codec_selected, emit_compression_applied, emit_frame_retransmit,
    emit_kernel_dispatch, emit_local_train, emit_quorum_aggregate, emit_round_end,
    emit_round_start, emit_worker_excluded, emit_worker_rejoined, evaluate_if_due, kernel_baseline,
    model_round_cost, worker_batches, worker_rng, FlConfig, FlSetup, SyncScheme,
};
use crate::engines::fedmp::FedMpOptions;
use crate::exec;
use crate::history::{RoundRecord, RunHistory};
use crate::local::{local_train, LocalOutcome, LocalTrainConfig};
use crate::task::ImageTask;
use crate::transport::{
    run_fedmp_sockets, unique_socket_path, NodeSpawner, SocketFleet, SocketRunOptions, ThreadNodes,
};
use crate::wire::{
    decode_state_v2, encode_state_v2, frame_checksum_ok, link_delivered, ErrorFeedback, LinkCodecs,
};
use bytes::Bytes;
use core::time::Duration;
use fedmp_bandit::{eucb_reward, Bandit, EUcbAgent, EUcbConfig, RewardConfig};
use fedmp_edgesim::deadline_for;
use fedmp_nn::{state_sub, Sequential, StateEntry};
use fedmp_pruning::{
    dequantize_state, extract_sequential, plan_sequential_with, quantize_state, recover_state,
    sparse_state, PrunePlan,
};
use fedmp_tensor::parallel::{sum_f32, sum_f64};
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

/// How a round's sub-models reach their workers and come back — the
/// one thing a FedMP driver supplies to [`run_rounds`].
pub(crate) trait Exchange {
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
        plans: &[PrunePlan],
        subs: Vec<Sequential>,
    ) -> Result<Vec<Exchanged<Self::Upload>>, Self::Error>;

    /// The trained sub-model exactly as the PS reconstructs it from
    /// `upload`. Called (fanned out) only for uploads that survive the
    /// deadline.
    fn reconstruct(upload: Self::Upload) -> Result<Sequential, Self::Error>;

    /// Notification that `worker`'s contribution is excluded for
    /// `reason`, immediately before the body's `WorkerExcluded` event.
    /// Default: nothing.
    fn note_excluded(&mut self, round: usize, worker: usize, reason: &str) {
        let _ = (round, worker, reason);
    }
}

/// How a round's pruning ratios are picked and how the picker learns
/// from what came back — the one answer that separates FedMP from the
/// synchronous baselines. [`crate::run_lm`] shares it (not the body).
pub(crate) enum RatioPolicy {
    /// FedMP (§IV-C): an E-UCB agent per worker, rewarded by Eq. 8.
    PerWorker { agents: Vec<EUcbAgent>, reward: RewardConfig },
    /// UP-FL: one agent, one pull per round, rewarded by the mean
    /// ΔLoss per unit of round time — Eq. 8's uniform-ratio analogue
    /// (no per-worker time gap exists when everyone trains one model).
    Shared(EUcbAgent),
    /// One ρ for everyone, always (Fig. 2 / Fig. 5 sweeps, LM Syn-FL).
    Fixed(f32),
    /// ρ ≡ 0 for a method that does not prune: the round records no
    /// ratios at all (Syn-FL, FedProx).
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
    /// Each worker's local step. Framed workers are handed `cfg.local`
    /// at start-up, so only the inline exchange may meet anything else.
    pub(crate) locals: Vec<LocalTrainConfig>,
}

impl RoundMethod {
    /// FedMP as `opts` configures it — all the framed exchange runs.
    pub(crate) fn fedmp(cfg: &FlConfig, workers: usize, opts: &FedMpOptions) -> Self {
        let (name, scheme) = match opts.sync {
            SyncScheme::R2SP => ("FedMP", "R2SP"),
            SyncScheme::BSP => ("FedMP-BSP", "BSP"),
        };
        let policy = match opts.fixed_ratio {
            Some(ratio) => RatioPolicy::Fixed(ratio),
            None => RatioPolicy::per_worker(opts.eucb, opts.reward, workers, cfg.seed),
        };
        RoundMethod { name, scheme, policy, locals: vec![cfg.local; workers] }
    }
}

/// Per-worker codec pairs: a pure function of the device profiles, so
/// fixed for the whole run.
pub(crate) fn link_codecs(setup: &FlSetup<'_>, opts: &FedMpOptions) -> Vec<LinkCodecs> {
    setup.devices.iter().map(|d| opts.compression.select(d)).collect()
}

/// Runs `method` for `cfg.rounds` rounds starting from `global`, moving
/// models through `exchange`. `opts` supplies the rest of the round
/// (sync, residuals, faults, importance, compression); `chaos` the
/// virtual-clock penalties (injected delay, retransmit backoff) and the
/// aggregation quorum; [`ChaosOptions::none`] makes all three vanish.
pub(crate) fn run_rounds<X: Exchange>(
    cfg: &FlConfig,
    setup: &FlSetup<'_>,
    mut global: Sequential,
    opts: &FedMpOptions,
    method: RoundMethod,
    chaos: &ChaosOptions,
    exchange: &mut X,
) -> Result<RunHistory, X::Error> {
    let workers = setup.workers();
    let RoundMethod { name, scheme, mut policy, locals } = method;
    let mut history = RunHistory::new(name);
    let mut sim_time = 0.0f64;

    let mut injector = opts.faults.map(|f| f.injector(workers));
    let mut fault_rng = fedmp_tensor::seeded_rng(cfg.seed ^ 0xFA17);
    let plan = ChaosPlan::new(cfg.seed, chaos);
    // Every link moves the same models either way; `compressed` only
    // decides whether Eq. 5 pays encoded frame sizes (and says so in
    // the trace) or the analytic 4 bytes per parameter.
    let compressed = !opts.compression.is_dense();
    let links = link_codecs(setup, opts);
    // Trace events are emitted here only, after the exchange returns,
    // so event order is deterministic and the per-round kernel deltas
    // are exact (all worker kernels for the round have run by then).
    let mut kstats = kernel_baseline();

    for round in 0..cfg.rounds {
        exchange.rejoin(round)?;

        // §V-A churn: failed workers sit the round out. (`step` emits
        // the FaultInjected/FaultRecovered trace events, so they
        // precede this round's RoundStart.)
        let online: Vec<usize> = match injector.as_mut() {
            Some(inj) => inj.step(&mut fault_rng),
            None => (0..workers).collect(),
        };
        emit_round_start(round, sim_time, &online);
        if online.is_empty() {
            let rec = RoundRecord { round, sim_time, ..Default::default() };
            emit_kernel_dispatch(round, &mut kstats);
            emit_round_end(&rec);
            history.rounds.push(rec);
            continue;
        }
        if compressed {
            for &w in &online {
                let slow = setup.devices[w].is_slow_link(opts.compression.slow_link_bps);
                emit_codec_selected(round, w, &links[w], slow);
            }
        }

        // ① Adaptive model pruning: choose ratios (serially — the
        // bandit is order-sensitive), then fan the per-worker PS work
        // across the round executor: plan and extract the sub-model,
        // form the residual kept until aggregation (§III-C, optionally
        // 8-bit quantized to cut PS memory 4×) and price the sub-model
        // (Eq. 5). Every input is read-only, so each slot is a pure
        // function of its ratio.
        let ratios = policy.select(&online);
        let prepared = exec::ordered_map(ratios.clone(), |i, ratio| {
            let plan = plan_sequential_with(&global, setup.task.input_chw, ratio, opts.importance);
            let sub = extract_sequential(&global, &plan);
            let residual = state_sub(&global.state(), &sparse_state(&global, &plan));
            let residual = if opts.quantize_residuals {
                dequantize_state(&quantize_state(&residual))
            } else {
                residual
            };
            let cost = model_round_cost(&sub, setup.task.input_chw, &locals[online[i]]);
            ((plan, sub), (residual, cost))
        });
        let ((plans, subs), (residuals, costs)): ((Vec<_>, Vec<_>), (Vec<_>, Vec<_>)) =
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
                let pair = links[w];
                emit_compression_applied(round, w, "down", pair.downlink, wire.dense, wire.down);
                emit_compression_applied(round, w, "up", pair.uplink, wire.dense, wire.up);
            }
            let mut rng = worker_rng(cfg.seed ^ 0xA5A5, round, w);
            let t = setup.simulate_round(w, &cost, &mut rng);
            mean_comp += t.comp;
            mean_comm += t.comm;
            emit_local_train(
                round,
                w,
                ratios[*i],
                a.outcome.mean_loss,
                a.outcome.delta_loss(),
                locals[w].tau,
                a.outcome.samples,
                &t,
                &setup.scaled_cost(&cost),
            );
            let t_n = t.total() + plan.draw(round, w).delay_secs + chaos.backoff_total(retries[*i]);
            times.push(t_n);
            delivered.push((w, a.outcome.delta_loss(), t_n));
        }
        let dn = deliveries.len().max(1) as f64;
        mean_comp /= dn;
        mean_comm /= dn;
        for (i, &r) in retries.iter().enumerate() {
            for attempt in 1..=r {
                emit_frame_retransmit(round, online[i], attempt, chaos.backoff_for(attempt));
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
                emit_worker_excluded(round, online[i], reason);
            }
        }
        let kept = excluded.iter().filter(|e| e.is_none()).count();

        // Policy feedback (Eq. 8 for FedMP) from every delivered worker.
        policy.observe(&delivered, round_time);

        // ③ Reconstruct the kept uploads and aggregate under the
        // quorum. Reconstruction and state recovery fan out; the
        // fallible results come back in worker order.
        let (kept_uploads, kept_losses): (Vec<(usize, X::Upload)>, Vec<f32>) = deliveries
            .into_iter()
            .filter(|(i, _)| excluded[*i].is_none())
            .map(|(i, a)| ((i, a.upload), a.outcome.mean_loss))
            .unzip();
        let train_loss = sum_f32(kept_losses) / kept as f32;
        let kept_residuals: Vec<_> =
            kept_uploads.iter().map(|(i, _)| residuals[*i].clone()).collect();
        let mut recovered = Vec::with_capacity(kept);
        for r in exec::ordered_map(kept_uploads, |_, (i, upload)| {
            X::reconstruct(upload).map(|model| recover_state(&model, &plans[i], &global))
        }) {
            recovered.push(r?);
        }
        let quorum = chaos.quorum(online.len());
        let new_state = match opts.sync {
            SyncScheme::R2SP => quorum_aggregate(&recovered, &kept_residuals, quorum),
            SyncScheme::BSP => (!recovered.is_empty() && recovered.len() >= quorum)
                .then(|| bsp_aggregate(&recovered)),
        };
        let participants = match new_state {
            Some(s) => {
                global.load_state(&s);
                if kept < online.len() {
                    emit_quorum_aggregate(round, quorum, kept, online.len() - kept);
                }
                emit_aggregate(round, scheme, kept);
                kept
            }
            // Below quorum: the round's uploads are discarded and the
            // global model carries over unchanged.
            None => 0,
        };

        let eval = evaluate_if_due(cfg, round, &mut global, setup.task);
        emit_kernel_dispatch(round, &mut kstats);
        let rec = RoundRecord {
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
        };
        emit_round_end(&rec);
        history.rounds.push(rec);
    }
    Ok(history)
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
    /// ([`run_fedmp_threaded`]) or processes.
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
pub(crate) struct WorkerProtocol<'a> {
    w: usize,
    task: &'a ImageTask,
    /// The global architecture, received once at start-up. Only its
    /// shape is used: every weight of the sub-model extracted from it
    /// is overwritten by the dispatched frame.
    arch: &'a Sequential,
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

impl<'a> WorkerProtocol<'a> {
    pub(crate) fn new(
        w: usize,
        task: &'a ImageTask,
        arch: &'a Sequential,
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
    pub(crate) fn on_dispatch(
        &mut self,
        round: usize,
        frame: Bytes,
        plan: &PrunePlan,
    ) -> WorkerStep {
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
            // The decode reconstructs exactly the snapshot the PS's
            // `codec_delivered` oracle predicts, whatever the codec.
            decode_state_v2(&frame, None).ok().map(|state| {
                let mut model = extract_sequential(self.arch, plan);
                model.load_state(&state);
                let mut batches = worker_batches(self.task, w, self.local.batch, self.seed, round);
                let outcome = local_train(&mut model, &mut batches, &self.local);
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
pub(crate) struct FramedUpload {
    worker: usize,
    round: usize,
    frame: Bytes,
    /// The sub-model that was extracted and dispatched; its
    /// architecture receives the decoded upload.
    sub: Sequential,
    /// The snapshot the worker reconstructed from the dispatched frame
    /// (via the [`crate::codec_delivered`] oracle) — the uplink delta
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

impl<S: NodeSpawner> Exchange for FramedExchange<'_, '_, S> {
    type Upload = FramedUpload;
    type Error = RuntimeError;

    fn rejoin(&mut self, round: usize) -> Result<(), RuntimeError> {
        for (w, down) in self.crashed.iter_mut().enumerate() {
            if !*down {
                continue;
            }
            self.fleet.respawn(round, w)?;
            *down = false;
            emit_worker_rejoined(round, w);
        }
        Ok(())
    }

    fn exchange(
        &mut self,
        round: usize,
        online: &[usize],
        links: &[LinkCodecs],
        plans: &[PrunePlan],
        subs: Vec<Sequential>,
    ) -> Result<Vec<Exchanged<FramedUpload>>, RuntimeError> {
        let workers = links.len();
        // Dispatch frames: wire encoding fans out across the round
        // executor, then the sends happen serially in worker order.
        let work: Vec<(usize, Sequential)> = online.iter().copied().zip(subs).collect();
        let prepared = exec::ordered_map(work, |_, (w, sub)| {
            let sub_state = sub.state();
            let downlink = links[w].downlink;
            let frame = encode_state_v2(&sub_state, downlink, None, None);
            let (received, _, dense) = link_delivered(&sub_state, downlink, None, None);
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
        let mut outcomes: Vec<Option<LocalOutcome>> = vec![None; online.len()];
        let upload = |frame: Bytes, outcome: LocalOutcome| Event::Upload {
            intact: frame_checksum_ok(&frame),
            payload: (frame, outcome),
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
            let result = outcome.map(|(frame, outcome)| Arrival {
                wire: Some(WireBytes { down, up: frame.len() as u64, dense }),
                upload: FramedUpload { worker, round, frame, sub, received },
                outcome,
            });
            exchanged.push(Exchanged { retransmits, result });
        }
        Ok(exchanged)
    }

    fn reconstruct(upload: FramedUpload) -> Result<Sequential, RuntimeError> {
        let FramedUpload { worker, round, frame, sub: mut model, received } = upload;
        // Uplinks decode against the snapshot the worker trained from
        // (its decoded downlink, which `codec_delivered` predicted
        // exactly).
        let state = decode_state_v2(&frame, Some(&received))
            .map_err(|_| RuntimeError::CorruptFrame { worker, round })?;
        model.load_state(&state);
        Ok(model)
    }

    fn note_excluded(&mut self, round: usize, worker: usize, reason: &str) {
        self.fleet.note_excluded(round, worker, reason);
    }
}

/// Runs FedMP on the threaded runtime with no transport chaos.
/// Produces a history bit-identical to [`crate::run_fedmp`] under the
/// same options, including fault injection (`opts.faults`).
///
/// # Errors
/// See [`run_fedmp_threaded_chaos`].
pub fn run_fedmp_threaded(
    cfg: &FlConfig,
    setup: &FlSetup<'_>,
    global: Sequential,
    opts: &FedMpOptions,
) -> Result<RunHistory, RuntimeError> {
    run_fedmp_threaded_chaos(cfg, setup, global, opts, &ChaosOptions::none())
}

/// Runs FedMP on the threaded runtime under a seeded transport fault
/// plane — see the module docs for the recovery policy. This is
/// [`run_fedmp_sockets`] with one in-process [`ThreadNodes`] thread per
/// worker on a fresh [`unique_socket_path`]: the same frames, the same
/// recovery and the same socket-level trace events as a fleet of
/// `fedmp-node` processes.
///
/// # Errors
/// Every injected fault is recovered in-run.
/// [`RuntimeError::Transport`] reports a socket-fleet operation that
/// failed terminally (bind, accept, handshake, node spawn, reader join
/// or reap); [`RuntimeError::CorruptFrame`] an undecodable
/// checksum-verified frame. Both are surfaced as typed errors rather
/// than panics so the library has no panic paths (see
/// `docs/ANALYSIS.md`, `no-panic`).
pub fn run_fedmp_threaded_chaos(
    cfg: &FlConfig,
    setup: &FlSetup<'_>,
    global: Sequential,
    opts: &FedMpOptions,
    chaos: &ChaosOptions,
) -> Result<RunHistory, RuntimeError> {
    let sock = SocketRunOptions::new(unique_socket_path("threads"), Vec::new());
    let mut nodes = ThreadNodes {
        task: Arc::new(setup.task.clone()),
        socket: sock.socket.clone(),
        connect_attempts: 12,
        connect_backoff: Duration::from_millis(2),
    };
    run_fedmp_sockets(cfg, setup, global, opts, chaos, &sock, &mut nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::fedmp::{run_fedmp, FaultOptions};
    use fedmp_data::{iid_partition, mnist_like};
    use fedmp_edgesim::{tx2_profile, ComputeMode, LinkQuality, TimeModel};
    use fedmp_nn::zoo;
    use fedmp_tensor::seeded_rng;

    fn setup_task(seed: u64) -> (ImageTask, Vec<fedmp_edgesim::DeviceProfile>) {
        let (train, test) = mnist_like(0.1, seed).generate();
        let mut rng = seeded_rng(seed);
        let part = iid_partition(&train, 3, &mut rng);
        let task = ImageTask::new(train, test, part);
        let devices = vec![
            tx2_profile(ComputeMode::Mode0, LinkQuality::Near),
            tx2_profile(ComputeMode::Mode1, LinkQuality::Mid),
            tx2_profile(ComputeMode::Mode3, LinkQuality::Far),
        ];
        (task, devices)
    }

    fn canonical(h: &RunHistory) -> String {
        serde_json::to_string(h).expect("serialise history")
    }

    #[test]
    fn threaded_runtime_matches_loop_engine_exactly() {
        let (task, devices) = setup_task(260);
        let setup = FlSetup::new(&task, devices, TimeModel::default());
        let mut rng = seeded_rng(261);
        let global = zoo::cnn_mnist(0.12, &mut rng);
        let cfg = FlConfig { rounds: 4, eval_every: 2, ..Default::default() };
        let opts = FedMpOptions::default();

        let sequential = run_fedmp(&cfg, &setup, global.clone(), &opts);
        let threaded = run_fedmp_threaded(&cfg, &setup, global, &opts).expect("threaded run");

        assert_eq!(canonical(&sequential), canonical(&threaded));
    }

    #[test]
    fn threaded_runtime_matches_loop_engine_with_faults() {
        // The §V-A path — injector churn, deadlines, partial
        // aggregation — must line up bit-for-bit with the loop engine
        // when transport chaos is off.
        let (task, devices) = setup_task(270);
        let setup = FlSetup::new(&task, devices, TimeModel::default());
        let mut rng = seeded_rng(271);
        let global = zoo::cnn_mnist(0.12, &mut rng);
        let cfg = FlConfig { rounds: 6, eval_every: 3, ..Default::default() };
        let opts = FedMpOptions {
            faults: Some(FaultOptions {
                fail_prob: 0.35,
                recover_rounds: 1,
                deadline_frac: 0.75,
                deadline_factor: 1.2,
            }),
            ..Default::default()
        };

        let sequential = run_fedmp(&cfg, &setup, global.clone(), &opts);
        let threaded = run_fedmp_threaded(&cfg, &setup, global, &opts).expect("threaded run");
        assert_eq!(canonical(&sequential), canonical(&threaded));
        // The schedule actually exercised churn.
        assert!(
            sequential.rounds.iter().any(|r| r.ratios.len() < 3),
            "no worker ever went offline at fail_prob = 0.35"
        );
    }

    #[test]
    fn threaded_runtime_matches_loop_engine_with_compression() {
        // Worker-side decode/encode (real frames, worker-resident error
        // feedback) must reproduce the loop engine's `codec_delivered`
        // oracle bit-for-bit. The Near/Mid/Far fleet exercises both the
        // fast (dense) and slow (f16 down, top-k int8 up) pairs.
        let (task, devices) = setup_task(272);
        let setup = FlSetup::new(&task, devices, TimeModel::default());
        let mut rng = seeded_rng(273);
        let global = zoo::cnn_mnist(0.12, &mut rng);
        let cfg = FlConfig { rounds: 4, eval_every: 2, ..Default::default() };
        let opts = FedMpOptions {
            compression: crate::wire::CompressionPolicy::adaptive(),
            ..Default::default()
        };

        let sequential = run_fedmp(&cfg, &setup, global.clone(), &opts);
        let threaded = run_fedmp_threaded(&cfg, &setup, global, &opts).expect("threaded run");
        assert_eq!(canonical(&sequential), canonical(&threaded));
    }

    #[test]
    fn threaded_runtime_bsp_and_fixed_ratio_work() {
        let (task, devices) = setup_task(262);
        let setup = FlSetup::new(&task, devices, TimeModel::deterministic());
        let mut rng = seeded_rng(263);
        let global = zoo::cnn_mnist(0.1, &mut rng);
        let cfg = FlConfig { rounds: 2, ..Default::default() };
        let opts =
            FedMpOptions { sync: SyncScheme::BSP, fixed_ratio: Some(0.4), ..Default::default() };
        let h = run_fedmp_threaded(&cfg, &setup, global, &opts).expect("threaded run");
        assert_eq!(h.rounds.len(), 2);
        assert!(h.rounds.iter().all(|r| r.ratios.iter().all(|&x| x == 0.4)));
        assert!(h.rounds.iter().all(|r| r.participants == 3 && r.exclusions == 0));
    }

    #[test]
    fn chaos_run_completes_every_round_and_recovers() {
        let (task, devices) = setup_task(264);
        let setup = FlSetup::new(&task, devices, TimeModel::default());
        let mut rng = seeded_rng(265);
        let global = zoo::cnn_mnist(0.1, &mut rng);
        let cfg = FlConfig { rounds: 8, eval_every: 4, ..Default::default() };
        let opts = FedMpOptions {
            faults: Some(FaultOptions { fail_prob: 0.15, recover_rounds: 1, ..Default::default() }),
            ..Default::default()
        };
        let chaos = ChaosOptions::demo(1);
        let h = run_fedmp_threaded_chaos(&cfg, &setup, global, &opts, &chaos).expect("chaos run");
        assert_eq!(h.rounds.len(), 8, "chaos must not shorten the run");
        // The demo plan is violent enough that *something* happened.
        let retries: usize = h.rounds.iter().map(|r| r.retries).sum();
        let exclusions: usize = h.rounds.iter().map(|r| r.exclusions).sum();
        assert!(retries + exclusions > 0, "demo chaos produced no recoveries");
        // And rounds that aggregated did so with a sensible quorum.
        assert!(h.rounds.iter().all(|r| r.participants <= 3));
        assert!(h.final_accuracy().is_some());
    }

    #[test]
    fn chaos_runs_are_seed_reproducible() {
        let (task, devices) = setup_task(266);
        let setup = FlSetup::new(&task, devices, TimeModel::default());
        let mut rng = seeded_rng(267);
        let global = zoo::cnn_mnist(0.1, &mut rng);
        let cfg = FlConfig { rounds: 5, ..Default::default() };
        let opts = FedMpOptions { faults: Some(FaultOptions::default()), ..Default::default() };
        let chaos = ChaosOptions::demo(2);
        let a = run_fedmp_threaded_chaos(&cfg, &setup, global.clone(), &opts, &chaos)
            .expect("chaos run a");
        let b = run_fedmp_threaded_chaos(&cfg, &setup, global, &opts, &chaos).expect("chaos run b");
        assert_eq!(canonical(&a), canonical(&b));
    }
}
