//! FedMP (the paper's system): adaptive per-worker pruning ratios via
//! E-UCB, distributed structured pruning, and R2SP aggregation.
//!
//! The round itself — Algorithm 1 with the §V-A deadline — lives in
//! [`crate::runtime`]. This module holds the method's options and the
//! loop engine [`run_fedmp`], which drives that round body through the
//! *inline* exchange: every worker trains in-process on exactly what
//! it would decode — the [`crate::codec_delivered`] oracle decodes each
//! frame it encodes in memory. Nothing shipped, no threads of its own,
//! no way to fail; `engines::baselines` and the LSTM's runs go over it
//! too ([`run_inline`]).

use crate::chaos::ChaosOptions;
use crate::engine::{FlConfig, FlModel, FlSetup, SyncScheme};
use crate::exec;
use crate::history::RunHistory;
use crate::local::LocalTrainConfig;
use crate::runtime::{run_rounds, Arrival, Exchange, Exchanged, SyncMethod, WireBytes};
use crate::wire::{link_delivered, CompressionPolicy, ErrorFeedback, LinkCodecs};
use core::convert::Infallible;
use fedmp_bandit::{EUcbConfig, RewardConfig};
use fedmp_edgesim::FaultInjector;
use fedmp_pruning::Importance;
use serde::{Deserialize, Serialize};

/// Fault-tolerance options implementing the paper's §V-A mechanism:
/// workers fail and recover, and the PS sets a per-round deadline of
/// `deadline_factor · d`, where `d` is the time at which
/// `deadline_frac` of the online workers' models have arrived. Arrivals
/// after the deadline are discarded for the round.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FaultOptions {
    /// Per-round worker failure probability.
    pub fail_prob: f64,
    /// Rounds a failed worker stays offline after its failure round.
    pub recover_rounds: u32,
    /// Fraction of arrivals defining `d` (the paper uses 0.85).
    pub deadline_frac: f64,
    /// Deadline multiplier (the paper uses 1.5).
    pub deadline_factor: f64,
}

impl Default for FaultOptions {
    fn default() -> Self {
        FaultOptions {
            fail_prob: 0.05,
            recover_rounds: 2,
            deadline_frac: 0.85,
            deadline_factor: 1.5,
        }
    }
}

impl FaultOptions {
    /// Builds the matching injector.
    pub(crate) fn injector(&self, workers: usize) -> FaultInjector {
        FaultInjector::new(workers, self.fail_prob, self.recover_rounds)
    }
}

/// FedMP-specific options.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FedMpOptions {
    /// E-UCB configuration (one agent per worker; seeds are offset by
    /// the worker index).
    pub eucb: EUcbConfig,
    /// Reward shaping (Eq. 8 guards).
    pub reward: RewardConfig,
    /// Synchronisation scheme (R2SP, or BSP for the Fig. 7 ablation).
    pub sync: SyncScheme,
    /// When set, every worker uses this fixed ratio every round instead
    /// of the bandit — the mode behind the Fig. 2 / Fig. 5 ratio sweeps.
    pub fixed_ratio: Option<f32>,
    /// Round PS-side residual models to 8-bit precision (§III-C's
    /// quantised residual store) through the wire's `Int8` codec. Adds
    /// ≤ scale/2 per-weight error; the rounded residual stays `f32`.
    pub quantize_residuals: bool,
    /// Fault injection + deadline handling (§V-A); `None` disables.
    pub faults: Option<FaultOptions>,
    /// Filter/neuron importance metric (§VI: the pruning strategy is
    /// pluggable; the paper's default is L1).
    pub importance: Importance,
    /// Wire-format-v2 codec selection per device link. The default
    /// ([`CompressionPolicy::dense`]) keeps the exact legacy dense-f32
    /// exchange, byte-for-byte; any other policy routes model exchange
    /// through the v2 codecs with per-worker error feedback.
    #[serde(default)]
    pub compression: CompressionPolicy,
}

impl Default for FedMpOptions {
    fn default() -> Self {
        FedMpOptions {
            eucb: EUcbConfig::default(),
            reward: RewardConfig::default(),
            sync: SyncScheme::R2SP,
            fixed_ratio: None,
            quantize_residuals: false,
            faults: None,
            importance: Importance::L1,
            compression: CompressionPolicy::dense(),
        }
    }
}

/// The inline [`Exchange`]: "delivery" is the codec oracle applied in
/// place, and the fleet is a fan-out over the round executor.
struct InlineExchange<'a, M: FlModel> {
    cfg: &'a FlConfig,
    setup: &'a FlSetup<'a, M::Task>,
    compressed: bool,
    /// The method's local step per worker.
    locals: Vec<LocalTrainConfig>,
    /// Per-worker uplink error feedback, persistent across rounds.
    feedbacks: Vec<ErrorFeedback>,
}

impl<M: FlModel> Exchange<M> for InlineExchange<'_, M> {
    type Upload = M;
    type Error = Infallible;

    fn exchange(
        &mut self,
        round: usize,
        online: &[usize],
        links: &[LinkCodecs],
        _plans: &[M::Plan],
        subs: Vec<M>,
    ) -> Result<Vec<Exchanged<M>>, Infallible> {
        let (cfg, task, compressed, locals) =
            (self.cfg, self.setup.task, self.compressed, &self.locals);
        let work: Vec<(usize, M, ErrorFeedback)> = online
            .iter()
            .zip(subs)
            .map(|(&w, sub)| (w, sub, std::mem::take(&mut self.feedbacks[w])))
            .collect();
        // Each slot reads only the task and config plus its own worker's
        // sub-model and feedback state, so it is a pure function of its
        // inputs wherever the executor runs it.
        let results = exec::ordered_map(work, |_, (w, mut sub, mut feedback)| {
            let pair = links[w];
            // Downlink: the worker trains on what it *decodes*, which
            // the PS predicts exactly via the codec oracle. No error
            // feedback on the downlink — the PS state is authoritative
            // and a fresh sub-model is extracted every round.
            let down = compressed.then(|| {
                let (frame, received, dense) =
                    link_delivered(&sub.state(), pair.downlink, None, None);
                sub.load_state(&received);
                (received, frame.len() as u64, dense)
            });
            let outcome = sub.train(task, w, cfg.seed, round, &locals[w]);
            // Uplink: a delta against the model the worker received,
            // folded through its persistent error-feedback state. The
            // upload is the *delivered* reconstruction — exactly what
            // the PS would decode off the wire.
            let wire = down.map(|(received, down, dense)| {
                let (frame, delivered, _) =
                    link_delivered(&sub.state(), pair.uplink, Some(&received), Some(&mut feedback));
                sub.load_state(&delivered);
                WireBytes { down, up: frame.len() as u64, dense }
            });
            (Arrival { upload: sub, outcome, wire }, feedback)
        });
        // Error-feedback state flows back to its worker slot (worker
        // order — pure data movement, no float arithmetic).
        let mut exchanged = Vec::with_capacity(online.len());
        for (&w, (arrival, feedback)) in online.iter().zip(results) {
            self.feedbacks[w] = feedback;
            exchanged.push(Exchanged { retransmits: 0, result: Ok(arrival) });
        }
        Ok(exchanged)
    }

    fn reconstruct(upload: M) -> Result<M, Infallible> {
        Ok(upload)
    }
}

/// Runs `method` over the inline exchange: the loop engine of FedMP and
/// of every baseline that is Algorithm 1 with a different ρ-picker.
pub(crate) fn run_inline<M: FlModel>(
    cfg: &FlConfig,
    setup: &FlSetup<'_, M::Task>,
    global: M,
    method: &SyncMethod,
) -> RunHistory {
    let method = method.round(cfg, setup);
    let mut inline = InlineExchange {
        cfg,
        setup,
        compressed: method.links.is_some(),
        locals: method.locals.clone(),
        feedbacks: vec![ErrorFeedback::new(); setup.workers()],
    };
    match run_rounds(cfg, setup, global, method, &ChaosOptions::none(), &mut inline) {
        Ok(history) => history,
        Err(never) => match never {},
    }
}

/// Runs FedMP for `cfg.rounds` rounds starting from `global`.
pub fn run_fedmp<M: FlModel>(
    cfg: &FlConfig,
    setup: &FlSetup<'_, M::Task>,
    global: M,
    opts: &FedMpOptions,
) -> RunHistory {
    run_inline(cfg, setup, global, &SyncMethod::FedMp(*opts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::ImageTask;
    use fedmp_data::{iid_partition, mnist_like};
    use fedmp_edgesim::{tx2_profile, ComputeMode, LinkQuality, TimeModel};
    use fedmp_nn::zoo;
    use fedmp_tensor::seeded_rng;

    fn small_setup(seed: u64) -> (ImageTask, Vec<fedmp_edgesim::DeviceProfile>) {
        let (train, test) = mnist_like(0.1, seed).generate();
        let mut rng = seeded_rng(seed);
        let part = iid_partition(&train, 4, &mut rng);
        let task = ImageTask::new(train, test, part);
        let devices = vec![
            tx2_profile(ComputeMode::Mode0, LinkQuality::Near),
            tx2_profile(ComputeMode::Mode1, LinkQuality::Mid),
            tx2_profile(ComputeMode::Mode2, LinkQuality::Mid),
            tx2_profile(ComputeMode::Mode3, LinkQuality::Far),
        ];
        (task, devices)
    }

    #[test]
    fn fixed_ratio_mode_prunes_uniformly() {
        let (task, devices) = small_setup(82);
        let setup = FlSetup::new(&task, devices, TimeModel::deterministic());
        let mut rng = seeded_rng(83);
        let global = zoo::cnn_mnist(0.15, &mut rng);
        let cfg = FlConfig { rounds: 3, ..Default::default() };
        let opts = FedMpOptions { fixed_ratio: Some(0.5), ..Default::default() };
        let h = run_fedmp(&cfg, &setup, global, &opts);
        assert!(h.rounds.iter().all(|r| r.ratios.iter().all(|&x| x == 0.5)));
    }

    #[test]
    fn compressed_links_still_learn() {
        // Adaptive wire-v2 compression (f16 downlink + int8 top-k
        // uplink with error feedback on the slow link) must stay within
        // tolerance of the dense baseline at matched rounds.
        let (task, devices) = small_setup(96);
        let setup = FlSetup::new(&task, devices, TimeModel::deterministic());
        let mut rng = seeded_rng(97);
        let global = zoo::cnn_mnist(0.15, &mut rng);
        let cfg = FlConfig { rounds: 10, eval_every: 5, ..Default::default() };
        let dense = run_fedmp(&cfg, &setup, global.clone(), &FedMpOptions::default());
        let opts = FedMpOptions {
            compression: crate::wire::CompressionPolicy::adaptive(),
            ..Default::default()
        };
        let compressed = run_fedmp(&cfg, &setup, global, &opts);
        let a = dense.final_accuracy().unwrap();
        let b = compressed.final_accuracy().unwrap();
        assert!(b > a - 0.15, "compressed links degraded accuracy: {a} vs {b}");
        // The slow (Far) link's communication got cheaper, so the
        // Eq. 5 completion times shift downward on the whole.
        let dense_comm: f64 = dense.rounds.iter().map(|r| r.mean_comm).sum();
        let comp_comm: f64 = compressed.rounds.iter().map(|r| r.mean_comm).sum();
        assert!(
            comp_comm < dense_comm,
            "compression did not shift Eq. 5 comm time: {dense_comm} vs {comp_comm}"
        );
    }

    #[test]
    fn deadline_caps_round_time() {
        let (task, _) = small_setup(94);
        // One pathological straggler.
        let devices = vec![
            tx2_profile(ComputeMode::Mode0, LinkQuality::Near),
            tx2_profile(ComputeMode::Mode0, LinkQuality::Near),
            tx2_profile(ComputeMode::Mode0, LinkQuality::Near),
            tx2_profile(ComputeMode::Mode3, LinkQuality::Far),
        ];
        let setup = FlSetup::new(&task, devices, TimeModel::deterministic());
        let mut rng = seeded_rng(95);
        let global = zoo::cnn_mnist(0.1, &mut rng);
        let cfg = FlConfig { rounds: 2, ..Default::default() };
        let no_deadline = run_fedmp(
            &cfg,
            &setup,
            global.clone(),
            &FedMpOptions { fixed_ratio: Some(0.0), ..Default::default() },
        );
        let deadline = |frac: f64, factor: f64| {
            let faults = FaultOptions {
                fail_prob: 0.0,
                deadline_frac: frac,
                deadline_factor: factor,
                ..Default::default()
            };
            let opts =
                FedMpOptions { fixed_ratio: Some(0.0), faults: Some(faults), ..Default::default() };
            run_fedmp(&cfg, &setup, global.clone(), &opts)
        };
        let with_deadline = deadline(0.75, 1.1);
        assert!(
            with_deadline.rounds[0].round_time < no_deadline.rounds[0].round_time,
            "deadline should cut the straggler's tail: {} vs {}",
            with_deadline.rounds[0].round_time,
            no_deadline.rounds[0].round_time
        );
        // An arrival exactly at the deadline is on time: at factor 1
        // over every arrival the deadline is the straggler's own time.
        assert!(deadline(1.0, 1.0).rounds.iter().all(|r| r.exclusions == 0));
    }
}
