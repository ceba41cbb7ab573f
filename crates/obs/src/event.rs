//! The typed trace events every instrumented subsystem emits.

use serde::{Deserialize, Serialize};

/// One structured trace event, serialised as a single JSONL line with
/// the variant name as the outer key (serde's externally-tagged form),
/// e.g. `{"RoundStart":{"round":0,"sim_time":0.0,"online":[0,1]}}`.
///
/// Field units follow the virtual clock throughout: `*_secs` are
/// **simulated** seconds (Eq. 5 of the paper), never host wall time, and
/// `bytes_*` are **on-wire** bytes after the width-compensation cost
/// scale — the same quantities the completion-time results are computed
/// from. See `docs/TRACE_SCHEMA.md` for the full field reference.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A synchronisation round is starting on the parameter server.
    RoundStart {
        /// Round index `k` (0-based; for the async engines this is the
        /// aggregation-event index).
        round: usize,
        /// Cumulative virtual time (s) when the round starts.
        sim_time: f64,
        /// Workers participating this round, in index order. Empty when
        /// fault injection took the whole fleet offline.
        online: Vec<usize>,
    },
    /// One worker finished its local training for the round.
    LocalTrain {
        /// Round index.
        round: usize,
        /// Worker index.
        worker: usize,
        /// Pruning ratio this worker trained at (0 = full model).
        ratio: f32,
        /// Mean local training loss over the round's τ iterations.
        loss: f32,
        /// Loss improvement `first − last` across the round (the bandit
        /// reward numerator).
        delta_loss: f32,
        /// Local iterations performed.
        tau: usize,
        /// Training samples processed.
        samples: usize,
        /// Virtual computation seconds (Eq. 5 compute term).
        comp_secs: f64,
        /// Virtual communication seconds (download + upload).
        comm_secs: f64,
        /// Bytes downloaded from the PS (sub-model), after cost scaling.
        bytes_down: f64,
        /// Bytes uploaded to the PS (trained model), after cost scaling.
        bytes_up: f64,
    },
    /// An E-UCB agent received the reward for its pending arm. Events
    /// appear in worker-index order within a round; attribution to a
    /// worker is positional (the agent does not know its owner).
    BanditDecision {
        /// The arm (pruning ratio) the reward is for.
        arm: f32,
        /// Observed Eq. 8 reward.
        reward: f32,
        /// Partition-tree leaf count after this observation — the
        /// posterior granularity of the agent.
        regions: usize,
    },
    /// The PS merged the round's arrivals into a new global model.
    Aggregate {
        /// Round index.
        round: usize,
        /// Aggregation scheme (`"R2SP"`, `"BSP"`, `"FedAvg"`,
        /// `"FedAvg+topk"`, `"AsynFedAvg"`, `"AsynR2SP"`).
        scheme: String,
        /// Models merged (arrivals that met the deadline).
        participants: usize,
    },
    /// Fault injection took a worker offline.
    FaultInjected {
        /// Worker index.
        worker: usize,
        /// Further full rounds the worker stays offline after the
        /// current one.
        down_rounds: u32,
    },
    /// A previously failed worker rejoined the fleet.
    FaultRecovered {
        /// Worker index.
        worker: usize,
    },
    /// The PS received a corrupt upload frame and asked the worker to
    /// resend it (threaded runtime only). One event per retransmit
    /// request, in worker-index order within the round.
    FrameRetransmit {
        /// Round index.
        round: usize,
        /// Worker whose frame was corrupt.
        worker: usize,
        /// Retransmit attempt number (1-based).
        attempt: u32,
        /// Exponential-backoff delay charged to the worker's virtual
        /// arrival time for this attempt (`base · 2^(attempt−1)`).
        backoff_secs: f64,
    },
    /// A worker's round contribution was discarded: its upload missed
    /// the §V-A deadline, exhausted the retransmit budget, was lost in
    /// transit, or the worker crashed mid-round.
    WorkerExcluded {
        /// Round index.
        round: usize,
        /// Worker index.
        worker: usize,
        /// Why the contribution was discarded: `"deadline"`,
        /// `"corrupt"`, `"dropped"`, `"crashed"` or `"protocol"`.
        reason: String,
    },
    /// A crashed worker was respawned and reconnected and re-enters the
    /// fleet this round (threaded and socket runtimes only).
    WorkerRejoined {
        /// Round index.
        round: usize,
        /// Worker index.
        worker: usize,
    },
    /// The socket fleet (threaded and socket runtimes) re-established a
    /// transport connection to a worker node after a fault (initial,
    /// fault-free connections are silent so chaos-off traces stay
    /// identical to the loop engine's).
    ConnEstablished {
        /// Round index the connection was established for.
        round: usize,
        /// Worker index.
        worker: usize,
        /// Accept/connect attempts spent before the connection stood
        /// (1 = first try).
        attempts: u32,
    },
    /// A frame of a worker's model exchange never arrived: the chaos
    /// plan dropped it at the packet level and the PS's delivery
    /// deadline lapsed (threaded and socket runtimes only; emitted
    /// post-barrier in worker order, immediately before the worker's
    /// `WorkerExcluded`).
    FrameTimeout {
        /// Round index.
        round: usize,
        /// Worker index.
        worker: usize,
        /// Which leg was lost: `"down"` (PS → worker dispatch) or
        /// `"up"` (worker → PS upload).
        direction: String,
    },
    /// A worker node's connection reset mid-round — the socket fleet's
    /// observation of a crashed worker node (EOF / reset on the
    /// uplink). Emitted post-barrier in worker order, immediately before
    /// the worker's `WorkerExcluded` with reason `"crashed"`.
    ConnReset {
        /// Round index.
        round: usize,
        /// Worker index.
        worker: usize,
    },
    /// A crashed worker node — thread or process — was relaunched by
    /// the PS. Emitted at the start of the round, immediately before the
    /// worker's `ConnEstablished` and `WorkerRejoined`.
    NodeRespawned {
        /// Round index the node rejoins in.
        round: usize,
        /// Worker index.
        worker: usize,
        /// How many times this worker's node has been respawned so far
        /// in the run (1-based).
        generation: u32,
    },
    /// The PS aggregated a *partial* round: a quorum of uploads arrived
    /// but at least one online worker's contribution was excluded.
    QuorumAggregate {
        /// Round index.
        round: usize,
        /// Minimum uploads required to aggregate.
        quorum: usize,
        /// Uploads actually merged.
        participants: usize,
        /// Online workers whose contributions were excluded.
        excluded: usize,
    },
    /// The compression policy resolved a worker's codec pair for a
    /// round (emitted only by compression-enabled engines, after
    /// `RoundStart`, one per online worker in index order).
    CodecSelected {
        /// Round index.
        round: usize,
        /// Worker index.
        worker: usize,
        /// Downlink codec label (e.g. `"dense-f32"`, `"dense-f16"`).
        downlink: String,
        /// Uplink codec label (e.g. `"topk-int8(0.1)"`).
        uplink: String,
        /// Whether the policy classified the device's link as slow
        /// (bandwidth at or below the policy threshold).
        slow_link: bool,
    },
    /// One direction of a worker's model exchange was encoded with a
    /// wire-v2 codec. Two events per delivered worker (down, then up),
    /// immediately before its `LocalTrain`.
    CompressionApplied {
        /// Round index.
        round: usize,
        /// Worker index.
        worker: usize,
        /// `"down"` (PS → worker) or `"up"` (worker → PS).
        direction: String,
        /// Codec label the payload was encoded with.
        codec: String,
        /// What the same snapshot would cost dense (`f32`), bytes.
        dense_bytes: u64,
        /// Actual encoded frame size, bytes.
        wire_bytes: u64,
    },
    /// A population-scale round sampled its client cohort (emitted by
    /// the hierarchical engines immediately before `RoundStart`).
    CohortSampled {
        /// Round index.
        round: usize,
        /// Total population size the cohort was drawn from.
        population: u64,
        /// Clients sampled this round (without replacement).
        cohort: usize,
        /// Shard reducers the cohort streams into.
        shards: usize,
        /// Edge aggregators the shards fan in to.
        edges: usize,
    },
    /// A streaming shard reducer finished folding its slice of the
    /// cohort into its exact partial sum (one event per shard, in shard
    /// order, after the round's per-client events).
    ShardReduced {
        /// Round index.
        round: usize,
        /// Shard index (0-based, cohort-contiguous).
        shard: usize,
        /// Clients folded into this shard (delivered ones only).
        clients: usize,
        /// Peak tracked allocation of the reducer in bytes: the exact
        /// accumulator state plus the largest single in-flight client
        /// update — a function of model shape, **not** of cohort size.
        peak_bytes: u64,
    },
    /// An edge aggregator merged its shards' partial sums and uploaded
    /// the result to the cloud PS (one event per edge, in edge order,
    /// after the round's `ShardReduced` events).
    EdgeAggregate {
        /// Round index.
        round: usize,
        /// Edge aggregator index (0-based).
        edge: usize,
        /// Shard reducers merged at this edge.
        shards: usize,
        /// Clients covered by those shards (delivered ones only).
        clients: usize,
        /// Whether the edge's partial reached the cloud PS (false when
        /// edge-tier chaos crashed or dropped the upload).
        delivered: bool,
        /// Checksum-failure retransmits of the edge→cloud frame.
        retries: u32,
    },
    /// Kernel-scheduler activity since the previous `KernelDispatch`
    /// event (one is emitted per round). Counters come from
    /// `tensor::parallel` and are **thread-count-invariant**: they count
    /// `for_each_band` invocations and the bands each decomposed into,
    /// both functions of problem shape only — so same-seed runs at
    /// different `FEDMP_THREADS` produce identical events.
    /// The two `gemm_*` path counters record which kernel the GEMM
    /// dispatch selected (`simd` or `scalar`); they are
    /// thread-count-invariant for a fixed `FEDMP_SIMD` setting but —
    /// like the thread count itself — differ across settings, so trace
    /// diffs must compare runs with the same `FEDMP_SIMD`. Traces
    /// recorded before the gather-at-the-kernel path was deleted carry
    /// two more keys, `gemm_simd_pruned` / `gemm_scalar_pruned` (always
    /// 0); they are ignored on load.
    KernelDispatch {
        /// Round index.
        round: usize,
        /// `for_each_band` invocations this round.
        dispatches: u64,
        /// Output bands those invocations decomposed into.
        bands: u64,
        /// GEMMs that ran the SIMD kernel.
        #[serde(default)]
        gemm_simd_dense: u64,
        /// GEMMs that ran the scalar kernel.
        #[serde(default)]
        gemm_scalar_dense: u64,
    },
    /// A round completed; mirrors the engine's `RoundRecord`.
    RoundEnd {
        /// Round index.
        round: usize,
        /// Cumulative virtual time (s) at the end of the round.
        sim_time: f64,
        /// The round's duration `T^k = maxₙ Tₙ` (virtual seconds),
        /// after any deadline cut.
        round_time: f64,
        /// Mean computation seconds across participating workers.
        mean_comp: f64,
        /// Mean communication seconds across participating workers.
        mean_comm: f64,
        /// Mean local training loss (`None` when no worker trained,
        /// i.e. an all-offline fault round).
        train_loss: Option<f32>,
        /// Test loss, when this round was evaluated.
        eval_loss: Option<f32>,
        /// Test metric, when evaluated: accuracy for classifiers,
        /// perplexity for language models.
        eval_metric: Option<f32>,
    },
}

impl TraceEvent {
    /// Every event kind this enum can emit, in definition order.
    pub const KINDS: [&'static str; 21] = [
        "RoundStart",
        "LocalTrain",
        "BanditDecision",
        "Aggregate",
        "FaultInjected",
        "FaultRecovered",
        "FrameRetransmit",
        "WorkerExcluded",
        "WorkerRejoined",
        "ConnEstablished",
        "FrameTimeout",
        "ConnReset",
        "NodeRespawned",
        "QuorumAggregate",
        "CodecSelected",
        "CompressionApplied",
        "CohortSampled",
        "ShardReduced",
        "EdgeAggregate",
        "KernelDispatch",
        "RoundEnd",
    ];

    /// The variant name — identical to the outer JSON key of the
    /// serialised form.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::RoundStart { .. } => "RoundStart",
            TraceEvent::LocalTrain { .. } => "LocalTrain",
            TraceEvent::BanditDecision { .. } => "BanditDecision",
            TraceEvent::Aggregate { .. } => "Aggregate",
            TraceEvent::FaultInjected { .. } => "FaultInjected",
            TraceEvent::FaultRecovered { .. } => "FaultRecovered",
            TraceEvent::FrameRetransmit { .. } => "FrameRetransmit",
            TraceEvent::WorkerExcluded { .. } => "WorkerExcluded",
            TraceEvent::WorkerRejoined { .. } => "WorkerRejoined",
            TraceEvent::ConnEstablished { .. } => "ConnEstablished",
            TraceEvent::FrameTimeout { .. } => "FrameTimeout",
            TraceEvent::ConnReset { .. } => "ConnReset",
            TraceEvent::NodeRespawned { .. } => "NodeRespawned",
            TraceEvent::QuorumAggregate { .. } => "QuorumAggregate",
            TraceEvent::CodecSelected { .. } => "CodecSelected",
            TraceEvent::CompressionApplied { .. } => "CompressionApplied",
            TraceEvent::CohortSampled { .. } => "CohortSampled",
            TraceEvent::ShardReduced { .. } => "ShardReduced",
            TraceEvent::EdgeAggregate { .. } => "EdgeAggregate",
            TraceEvent::KernelDispatch { .. } => "KernelDispatch",
            TraceEvent::RoundEnd { .. } => "RoundEnd",
        }
    }

    /// One representative instance of every variant, in [`Self::KINDS`]
    /// order — used by the schema-coverage test and doc examples.
    pub fn samples() -> Vec<TraceEvent> {
        vec![
            TraceEvent::RoundStart { round: 0, sim_time: 0.0, online: vec![0, 1] },
            TraceEvent::LocalTrain {
                round: 0,
                worker: 0,
                ratio: 0.4,
                loss: 2.1,
                delta_loss: 0.2,
                tau: 10,
                samples: 320,
                comp_secs: 3.5,
                comm_secs: 1.2,
                bytes_down: 1.0e6,
                bytes_up: 1.0e6,
            },
            TraceEvent::BanditDecision { arm: 0.4, reward: 0.05, regions: 3 },
            TraceEvent::Aggregate { round: 0, scheme: "R2SP".into(), participants: 2 },
            TraceEvent::FaultInjected { worker: 1, down_rounds: 2 },
            TraceEvent::FaultRecovered { worker: 1 },
            TraceEvent::FrameRetransmit { round: 0, worker: 2, attempt: 1, backoff_secs: 0.5 },
            TraceEvent::WorkerExcluded { round: 0, worker: 2, reason: "corrupt".into() },
            TraceEvent::WorkerRejoined { round: 1, worker: 2 },
            TraceEvent::ConnEstablished { round: 1, worker: 2, attempts: 1 },
            TraceEvent::FrameTimeout { round: 0, worker: 2, direction: "up".into() },
            TraceEvent::ConnReset { round: 0, worker: 2 },
            TraceEvent::NodeRespawned { round: 1, worker: 2, generation: 1 },
            TraceEvent::QuorumAggregate { round: 0, quorum: 2, participants: 2, excluded: 1 },
            TraceEvent::CodecSelected {
                round: 0,
                worker: 2,
                downlink: "dense-f16".into(),
                uplink: "topk-int8(0.1)".into(),
                slow_link: true,
            },
            TraceEvent::CompressionApplied {
                round: 0,
                worker: 2,
                direction: "up".into(),
                codec: "topk-int8(0.1)".into(),
                dense_bytes: 1_000_000,
                wire_bytes: 125_000,
            },
            TraceEvent::CohortSampled {
                round: 0,
                population: 100_000,
                cohort: 256,
                shards: 8,
                edges: 2,
            },
            TraceEvent::ShardReduced { round: 0, shard: 3, clients: 32, peak_bytes: 5_100_000 },
            TraceEvent::EdgeAggregate {
                round: 0,
                edge: 1,
                shards: 4,
                clients: 128,
                delivered: true,
                retries: 0,
            },
            TraceEvent::KernelDispatch {
                round: 0,
                dispatches: 96,
                bands: 384,
                gemm_simd_dense: 60,
                gemm_scalar_dense: 0,
            },
            TraceEvent::RoundEnd {
                round: 0,
                sim_time: 4.8,
                round_time: 4.8,
                mean_comp: 3.5,
                mean_comm: 1.2,
                train_loss: Some(2.1),
                eval_loss: Some(2.0),
                eval_metric: Some(0.31),
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_cover_every_kind_in_order() {
        let kinds: Vec<&str> = TraceEvent::samples().iter().map(|e| e.kind()).collect();
        assert_eq!(kinds, TraceEvent::KINDS);
    }

    #[test]
    fn serialised_form_is_tagged_with_kind() {
        for ev in TraceEvent::samples() {
            let json = serde_json::to_string(&ev).unwrap();
            assert!(
                json.starts_with(&format!("{{\"{}\":", ev.kind())),
                "{json} not tagged {}",
                ev.kind()
            );
            let back: TraceEvent = serde_json::from_str(&json).unwrap();
            assert_eq!(back, ev);
        }
    }
}
