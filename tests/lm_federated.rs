//! Integration tests of the §VI RNN extension: federated LSTM training
//! with ISS pruning across heterogeneous workers.

use fedmp::data::{ptb_like, TextBatch, TextDataset};
use fedmp::edgesim::{tx2_profile, ComputeMode, LinkQuality, TimeModel};
use fedmp::fl::{
    run_fedmp, run_synfl, run_upfl, FedMpOptions, FlConfig, FlSetup, LmTask, LocalTrainConfig,
    UpFlOptions,
};
use fedmp::nn::zoo;
use fedmp::tensor::seeded_rng;

fn task(workers: usize, tokens: usize) -> LmTask {
    let vocab = 30usize;
    let corpus = ptb_like(vocab, tokens, 17);
    let (train, eval) = corpus.split(0.9);
    let lane = train.len() / workers;
    let worker_batches: Vec<Vec<TextBatch>> = (0..workers)
        .map(|w| {
            TextDataset { tokens: train.tokens[w * lane..(w + 1) * lane].to_vec(), vocab }
                .batches(4, 8)
        })
        .collect();
    LmTask::new(worker_batches, eval.batches(4, 8))
}

/// `task`'s fleet: Near and Far links, alternating.
fn setup(task: &LmTask) -> FlSetup<'_, LmTask> {
    let devices = (0..task.worker_batches.len())
        .map(|i| {
            if i % 2 == 0 {
                tx2_profile(ComputeMode::Mode0, LinkQuality::Near)
            } else {
                tx2_profile(ComputeMode::Mode3, LinkQuality::Far)
            }
        })
        .collect();
    FlSetup::new(task, devices, TimeModel::deterministic())
}

/// `rounds` rounds of the LM's configuration: τ = 4 at lr 0.4, at most
/// 8 evaluation batches.
fn config(rounds: usize, eval_every: usize) -> FlConfig {
    let local = LocalTrainConfig { tau: 4, lr: 0.4, ..Default::default() };
    FlConfig { rounds, local, eval_every, eval_max_samples: 8, ..Default::default() }
}

#[test]
fn federated_lstm_perplexity_drops_below_unigram() {
    let task = task(2, 24_000);
    let mut rng = seeded_rng(18);
    let global = zoo::lstm_ptb(30, 0.2, &mut rng);
    let h = run_fedmp(&config(14, 13), &setup(&task), global, &FedMpOptions::default());
    let ppl = h.final_accuracy().expect("evaluated");
    // A Zipf(1.0) unigram model over 30 types has perplexity ≈ 18; the
    // Markov structure lets an LSTM go well below that, and even a
    // partially trained one must clearly beat uniform (30).
    assert!(ppl < 20.0, "perplexity {ppl} did not beat the unigram baseline");
}

#[test]
fn fedmp_lstm_round_is_faster_than_synfl() {
    let task = task(2, 12_000);
    let (setup, cfg) = (setup(&task), config(6, 6));
    let mut rng = seeded_rng(19);
    let global = zoo::lstm_ptb(30, 0.2, &mut rng);
    let syn = run_synfl(&cfg, &setup, global.clone());
    let fed = run_fedmp(&cfg, &setup, global, &FedMpOptions::default());
    // After the first exploratory round, pruned sub-models make FedMP's
    // mean round time lower.
    let mean = |h: &fedmp::fl::RunHistory| {
        h.rounds.iter().skip(1).map(|r| r.round_time).sum::<f64>() / (h.rounds.len() - 1) as f64
    };
    assert!(mean(&fed) < mean(&syn), "FedMP rounds not cheaper: {} vs {}", mean(&fed), mean(&syn));
}

#[test]
fn lm_local_step_clips_its_gradient() {
    // A clip that binds (0.1) must move a Syn-FL round off the run with
    // clipping disabled (0.0).
    let task = task(2, 3_000);
    let round = |clip| {
        let mut cfg = config(1, 1);
        cfg.local.clip = clip;
        let global = zoo::lstm_ptb(30, 0.2, &mut seeded_rng(22));
        serde_json::to_string(&run_synfl(&cfg, &setup(&task), global)).expect("history json")
    };
    assert_ne!(round(0.1), round(0.0), "clip 0.1 did not change the round");
}

#[test]
fn eval_every_zero_means_first_and_last_round_in_every_engine() {
    // One rule (`engine::evaluate_if_due`) for the LM and the image
    // models: 0 is a multiple of 0 and nothing else is — no `round % 0`.
    let evaluated = |h: &fedmp::fl::RunHistory| -> Vec<usize> {
        h.rounds.iter().filter(|r| r.eval.is_some()).map(|r| r.round).collect()
    };
    let task = task(2, 6_000);
    let global = zoo::lstm_ptb(30, 0.15, &mut seeded_rng(21));
    let h = run_upfl(&config(4, 0), &setup(&task), global, &UpFlOptions::default());
    assert_eq!(evaluated(&h), [0, 3]);

    use fedmp::core::{run_method, ExperimentSpec, Method, TaskKind};
    let mut spec = ExperimentSpec::small(TaskKind::CnnMnist);
    spec.fl.rounds = 4;
    spec.fl.eval_every = 0;
    assert_eq!(evaluated(&run_method(&spec, Method::FedMp)), [0, 3]);
}

#[test]
fn iss_pruning_preserves_model_shape_claims() {
    // The extracted sub-model must remain a valid 2-layer LSTM whose
    // stacked dimensions agree, at any ratio.
    let mut rng = seeded_rng(20);
    let lm = zoo::lstm_ptb(30, 0.25, &mut rng);
    for ratio in [0.2f32, 0.5, 0.8] {
        let plan = fedmp::pruning::plan_lstm(&lm, ratio);
        let sub = fedmp::pruning::extract_lstm(&lm, &plan);
        assert_eq!(sub.lstms.len(), 2);
        assert_eq!(sub.lstms[0].hidden(), plan.kept[0].len());
        assert_eq!(sub.lstms[1].input_size(), plan.kept[0].len());
        assert_eq!(sub.decoder.in_features(), plan.kept[1].len());
        assert_eq!(sub.decoder.out_features(), 30);
    }
}
