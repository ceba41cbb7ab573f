//! FedMP (the paper's system): adaptive per-worker pruning ratios via
//! E-UCB, distributed structured pruning, and R2SP aggregation.
//!
//! The round itself — Algorithm 1 with the §V-A deadline — lives in
//! [`crate::runtime`]. This module holds the method's options and the
//! loop engine [`run_fedmp`], which drives that round body through the
//! *inline* exchange: every worker trains in-process on exactly what
//! the [`crate::codec_delivered`] oracle says it would decode. No frames, no
//! threads of its own, no way to fail; `engines::baselines` runs over
//! it too ([`run_inline`]).

use crate::chaos::ChaosOptions;
use crate::engine::{worker_batches, FlConfig, FlSetup, SyncScheme};
use crate::exec;
use crate::history::RunHistory;
use crate::local::{local_train, LocalTrainConfig};
use crate::runtime::{run_rounds, Arrival, Exchange, Exchanged, RoundMethod, WireBytes};
use crate::wire::{link_delivered, CompressionPolicy, ErrorFeedback, LinkCodecs};
use core::convert::Infallible;
use fedmp_bandit::{EUcbConfig, RewardConfig};
use fedmp_edgesim::FaultInjector;
use fedmp_nn::Sequential;
use fedmp_pruning::{Importance, PrunePlan};
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
    /// Store PS-side residual models 8-bit quantized (§III-C memory
    /// optimisation). Adds ≤ scale/2 per-weight reconstruction error.
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
struct InlineExchange<'a> {
    cfg: &'a FlConfig,
    setup: &'a FlSetup<'a>,
    compressed: bool,
    /// The method's local step per worker.
    locals: Vec<LocalTrainConfig>,
    /// Per-worker uplink error feedback, persistent across rounds.
    feedbacks: Vec<ErrorFeedback>,
}

impl Exchange for InlineExchange<'_> {
    type Upload = Sequential;
    type Error = Infallible;

    fn exchange(
        &mut self,
        round: usize,
        online: &[usize],
        links: &[LinkCodecs],
        _plans: &[PrunePlan],
        subs: Vec<Sequential>,
    ) -> Result<Vec<Exchanged<Sequential>>, Infallible> {
        let (cfg, task, compressed, locals) =
            (self.cfg, self.setup.task, self.compressed, &self.locals);
        let work: Vec<(usize, Sequential, ErrorFeedback)> = online
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
                let link = link_delivered(&sub.state(), pair.downlink, None, None);
                sub.load_state(&link.0);
                link
            });
            let mut batches = worker_batches(task, w, locals[w].batch, cfg.seed, round);
            let outcome = local_train(&mut sub, &mut batches, &locals[w]);
            // Uplink: a delta against the model the worker received,
            // folded through its persistent error-feedback state. The
            // upload is the *delivered* reconstruction — exactly what
            // the PS would decode off the wire.
            let wire = down.map(|(received, down, dense)| {
                let (delivered, up, _) =
                    link_delivered(&sub.state(), pair.uplink, Some(&received), Some(&mut feedback));
                sub.load_state(&delivered);
                WireBytes { down, up, dense }
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

    fn reconstruct(upload: Sequential) -> Result<Sequential, Infallible> {
        Ok(upload)
    }
}

/// Runs `method` over the inline exchange: the loop engine of FedMP and
/// of every baseline that is Algorithm 1 with a different ρ-picker.
pub(crate) fn run_inline(
    cfg: &FlConfig,
    setup: &FlSetup<'_>,
    global: Sequential,
    opts: &FedMpOptions,
    method: RoundMethod,
) -> RunHistory {
    let mut inline = InlineExchange {
        cfg,
        setup,
        compressed: !opts.compression.is_dense(),
        locals: method.locals.clone(),
        feedbacks: vec![ErrorFeedback::new(); setup.workers()],
    };
    match run_rounds(cfg, setup, global, opts, method, &ChaosOptions::none(), &mut inline) {
        Ok(history) => history,
        Err(never) => match never {},
    }
}

/// Runs FedMP for `cfg.rounds` rounds starting from `global`.
pub fn run_fedmp(
    cfg: &FlConfig,
    setup: &FlSetup<'_>,
    global: Sequential,
    opts: &FedMpOptions,
) -> RunHistory {
    run_inline(cfg, setup, global, opts, RoundMethod::fedmp(cfg, setup.workers(), opts))
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
    fn fedmp_learns_and_records_ratios() {
        let (task, devices) = small_setup(80);
        let setup = FlSetup::new(&task, devices, TimeModel::deterministic());
        let mut rng = seeded_rng(81);
        let global = zoo::cnn_mnist(0.15, &mut rng);
        let cfg = FlConfig { rounds: 16, eval_every: 4, ..Default::default() };
        let h = run_fedmp(&cfg, &setup, global, &FedMpOptions::default());

        // Chance is 10%; the calibrated (harder) synthetic task converges
        // slower, so require clearly-above-chance learning.
        let acc = h.final_accuracy().expect("evaluated");
        assert!(acc > 0.25, "FedMP accuracy only {acc}");
        assert!(h.rounds.iter().all(|r| r.ratios.len() == 4));
        assert!(h.rounds.iter().flat_map(|r| r.ratios.iter()).all(|&a| (0.0..0.9).contains(&a)));
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
    fn pruning_makes_rounds_faster_than_synfl() {
        let (task, devices) = small_setup(84);
        let setup = FlSetup::new(&task, devices, TimeModel::deterministic());
        let mut rng = seeded_rng(85);
        let global = zoo::cnn_mnist(0.15, &mut rng);
        let cfg = FlConfig { rounds: 4, ..Default::default() };
        let opts = FedMpOptions { fixed_ratio: Some(0.6), ..Default::default() };
        let pruned = run_fedmp(&cfg, &setup, global.clone(), &opts);
        let full = crate::engines::baselines::run_synfl(&cfg, &setup, global);
        assert!(
            pruned.total_time() < 0.8 * full.total_time(),
            "pruning saved too little: {} vs {}",
            pruned.total_time(),
            full.total_time()
        );
    }

    #[test]
    fn r2sp_and_bsp_runs_both_complete() {
        let (task, devices) = small_setup(86);
        let setup = FlSetup::new(&task, devices, TimeModel::deterministic());
        let mut rng = seeded_rng(87);
        let global = zoo::cnn_mnist(0.1, &mut rng);
        let cfg = FlConfig { rounds: 4, ..Default::default() };
        for sync in [SyncScheme::R2SP, SyncScheme::BSP] {
            let opts = FedMpOptions { sync, ..Default::default() };
            let h = run_fedmp(&cfg, &setup, global.clone(), &opts);
            assert_eq!(h.rounds.len(), 4);
        }
    }

    #[test]
    fn quantized_residuals_still_learn() {
        let (task, devices) = small_setup(90);
        let setup = FlSetup::new(&task, devices, TimeModel::deterministic());
        let mut rng = seeded_rng(91);
        let global = zoo::cnn_mnist(0.15, &mut rng);
        let cfg = FlConfig { rounds: 10, eval_every: 5, ..Default::default() };
        let exact = run_fedmp(&cfg, &setup, global.clone(), &FedMpOptions::default());
        let quant = run_fedmp(
            &cfg,
            &setup,
            global,
            &FedMpOptions { quantize_residuals: true, ..Default::default() },
        );
        let a = exact.final_accuracy().unwrap();
        let b = quant.final_accuracy().unwrap();
        // 8-bit residual storage must not meaningfully hurt training.
        assert!(b > a - 0.15, "quantized residuals degraded accuracy: {a} vs {b}");
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
    fn compressed_runs_are_seed_reproducible() {
        let (task, devices) = small_setup(98);
        let setup = FlSetup::new(&task, devices, TimeModel::deterministic());
        let mut rng = seeded_rng(99);
        let global = zoo::cnn_mnist(0.15, &mut rng);
        let cfg = FlConfig { rounds: 4, eval_every: 2, ..Default::default() };
        let opts = FedMpOptions {
            compression: crate::wire::CompressionPolicy::adaptive(),
            ..Default::default()
        };
        let a = run_fedmp(&cfg, &setup, global.clone(), &opts);
        let b = run_fedmp(&cfg, &setup, global, &opts);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "compressed runs must be bit-identical under the same seed"
        );
    }

    #[test]
    fn fault_injection_drops_and_recovers_workers() {
        let (task, devices) = small_setup(92);
        let setup = FlSetup::new(&task, devices, TimeModel::deterministic());
        let mut rng = seeded_rng(93);
        let global = zoo::cnn_mnist(0.1, &mut rng);
        let cfg = FlConfig { rounds: 20, eval_every: 10, ..Default::default() };
        let opts = FedMpOptions {
            faults: Some(FaultOptions { fail_prob: 0.3, recover_rounds: 1, ..Default::default() }),
            ..Default::default()
        };
        let h = run_fedmp(&cfg, &setup, global, &opts);
        assert_eq!(h.rounds.len(), 20);
        // With 30% failure probability some rounds must run short-handed.
        let short_rounds = h.rounds.iter().filter(|r| r.ratios.len() < 4).count();
        assert!(short_rounds > 0, "no failures materialised");
        // And training still progresses (model evaluated at the end).
        assert!(h.final_accuracy().is_some());
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
        let with_deadline = run_fedmp(
            &cfg,
            &setup,
            global,
            &FedMpOptions {
                fixed_ratio: Some(0.0),
                faults: Some(FaultOptions {
                    fail_prob: 0.0,
                    deadline_frac: 0.75,
                    deadline_factor: 1.1,
                    ..Default::default()
                }),
                ..Default::default()
            },
        );
        assert!(
            with_deadline.rounds[0].round_time < no_deadline.rounds[0].round_time,
            "deadline should cut the straggler's tail: {} vs {}",
            with_deadline.rounds[0].round_time,
            no_deadline.rounds[0].round_time
        );
    }

    #[test]
    fn runs_are_seed_reproducible() {
        let (task, devices) = small_setup(88);
        let setup = FlSetup::new(&task, devices.clone(), TimeModel::default());
        let mut rng = seeded_rng(89);
        let global = zoo::cnn_mnist(0.1, &mut rng);
        let cfg = FlConfig { rounds: 3, ..Default::default() };
        let a = run_fedmp(&cfg, &setup, global.clone(), &FedMpOptions::default());
        let b = run_fedmp(&cfg, &setup, global, &FedMpOptions::default());
        for (x, y) in a.rounds.iter().zip(b.rounds.iter()) {
            assert_eq!(x.ratios, y.ratios);
            assert_eq!(x.train_loss, y.train_loss);
            assert_eq!(x.sim_time, y.sim_time);
        }
    }
}
