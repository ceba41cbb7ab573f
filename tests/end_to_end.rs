//! Cross-crate integration tests: full FedMP training loops exercising
//! every subsystem together (data → models → pruning → bandit → edgesim
//! → FL engine → metrics).

use fedmp::prelude::*;
use fedmp_core::run_fedmp_custom;
use fedmp_data::{iid_partition, mnist_like};
use fedmp_edgesim::{tx2_profile, ComputeMode, LinkQuality};
use fedmp_fl::{
    run_fedmp, run_fedprox, run_synfl, run_threaded, ChaosOptions, CompressionPolicy, FaultOptions,
    FedMpOptions, FedProxOptions, FlModel, ImageTask, SyncMethod, SyncScheme,
};
use fedmp_tensor::parallel::override_threads;

fn quick_spec(task: TaskKind, rounds: usize) -> ExperimentSpec {
    let mut spec = ExperimentSpec::small(task);
    spec.fl.rounds = rounds;
    spec.fl.eval_every = rounds.div_ceil(4).max(1);
    spec
}

#[test]
fn fedmp_learns_the_cnn_task() {
    // The other three image models train in `tests/reference_round.rs`
    // (one ρ > 0 round each, against an f64 longhand); a short run of
    // them here could only assert that accuracy did not fall.
    let spec = quick_spec(TaskKind::CnnMnist, 16);
    let h = run_method(&spec, Method::FedMp);
    let first = h.rounds.iter().find_map(|r| r.eval).expect("evaluated").1;
    let best = h.rounds.iter().filter_map(|r| r.eval.map(|(_, a)| a)).fold(0.0f32, f32::max);
    assert!(best >= first - 0.02, "accuracy regressed {first} -> best {best}");
    assert!(best > 0.3, "best accuracy only {best}");
}

#[test]
fn fedmp_beats_synfl_in_time_to_target_on_heterogeneous_fleet() {
    let mut spec = quick_spec(TaskKind::CnnMnist, 14);
    spec.level = HeterogeneityLevel::High;
    spec.fl.eval_every = 1;
    let syn = run_method(&spec, Method::SynFl);
    let fed = run_method(&spec, Method::FedMp);
    let target = syn.final_accuracy().unwrap().min(fed.final_accuracy().unwrap()) * 0.9;
    let t_syn = syn.time_to_accuracy(target).expect("Syn-FL reaches target");
    let t_fed = fed.time_to_accuracy(target).expect("FedMP reaches target");
    assert!(
        t_fed < t_syn,
        "FedMP ({t_fed:.0}s) should beat Syn-FL ({t_syn:.0}s) to {target:.2} accuracy"
    );
}

#[test]
fn r2sp_matches_or_beats_bsp_final_accuracy() {
    // R2SP's edge over BSP comes from *heterogeneous* pruned sets: when
    // the bandit assigns each worker its own ratio, BSP's average zeroes
    // and dilutes every position some worker pruned, while R2SP's
    // residuals recover them (paper §IV-D). With one shared fixed ratio
    // all workers prune identically and the schemes are equivalent, so
    // the comparison must run with adaptive ratios on a mixed fleet.
    let mut spec = quick_spec(TaskKind::CnnMnist, 16);
    spec.level = HeterogeneityLevel::High;
    spec.fl.eval_every = 2;
    let r2sp = run_fedmp_custom(&spec, &FedMpOptions::default());
    let bsp =
        run_fedmp_custom(&spec, &FedMpOptions { sync: SyncScheme::BSP, ..Default::default() });
    let a = r2sp.final_accuracy().unwrap();
    let b = bsp.final_accuracy().unwrap();
    assert!(a >= b - 0.02, "R2SP {a} should not lose to BSP {b}");
}

#[test]
fn pruned_methods_have_cheaper_rounds_than_synfl() {
    let spec = quick_spec(TaskKind::CnnMnist, 4);
    let syn = run_method(&spec, Method::SynFl);
    let fixed = run_method(&spec, Method::FedMpFixed(0.7));
    let syn_mean: f64 =
        syn.rounds.iter().map(|r| r.round_time).sum::<f64>() / syn.rounds.len() as f64;
    let fixed_mean: f64 =
        fixed.rounds.iter().map(|r| r.round_time).sum::<f64>() / fixed.rounds.len() as f64;
    assert!(
        fixed_mean < syn_mean * 0.7,
        "alpha=0.7 rounds should be well under Syn-FL's: {fixed_mean:.1} vs {syn_mean:.1}"
    );
}

#[test]
fn async_engine_uses_m_arrivals_and_advances_clock() {
    let mut spec = quick_spec(TaskKind::CnnMnist, 6);
    spec.workers = 4;
    let h = run_method(&spec, Method::AsynFedMp { m: 2 });
    assert_eq!(h.rounds.len(), 6);
    for r in &h.rounds {
        assert_eq!(r.ratios.len(), 2, "must aggregate exactly m=2 arrivals");
    }
    assert!(h.rounds.windows(2).all(|w| w[1].sim_time >= w[0].sim_time));
}

/// Every numeric field of every round, as bits (`eval` packed into one
/// word, all-ones when the round was not evaluated).
fn numeric_bits(h: &RunHistory) -> Vec<[u64; 6]> {
    let f = |x: f32| u64::from(x.to_bits());
    h.rounds
        .iter()
        .map(|r| {
            [
                r.sim_time.to_bits(),
                r.round_time.to_bits(),
                r.mean_comp.to_bits(),
                r.mean_comm.to_bits(),
                f(r.train_loss),
                r.eval.map_or(u64::MAX, |(loss, acc)| f(loss) << 32 | f(acc)),
            ]
        })
        .collect()
}

#[test]
fn synfl_is_fedmp_at_ratio_zero_and_fedprox_at_mu_zero() {
    // The synchronous baselines are corners of Algorithm 1. Syn-FL is
    // ρ ≡ 0: R2SP with an all-zero residual is FedAvg, bit for bit
    // (`ExactSum` ignores ±0). What may differ is the history's name
    // and the recorded ratios — `[]` for a method that does not prune.
    let spec = quick_spec(TaskKind::CnnMnist, 4);
    let syn = run_method(&spec, Method::SynFl);
    let fixed = run_method(&spec, Method::FedMpFixed(0.0));
    assert_eq!(numeric_bits(&syn), numeric_bits(&fixed));
    assert_eq!((syn.method.as_str(), fixed.method.as_str()), ("Syn-FL", "FedMP"));
    for (s, f) in syn.rounds.iter().zip(&fixed.rounds) {
        assert!(s.ratios.is_empty());
        assert_eq!(f.ratios, vec![0.0; spec.workers]);
        assert_eq!(
            (s.participants, s.retries, s.exclusions),
            (f.participants, f.retries, f.exclusions)
        );
    }

    // FedProx is Syn-FL with τₙ = τ·φₙ/φ_max and a proximal term: on a
    // homogeneous fleet with μ = 0 both vanish.
    let built = spec.build();
    let fleet = vec![built.devices[0]; spec.workers];
    let setup = FlSetup::with_cost_scale(&built.task, fleet, built.time, built.cost_scale);
    let syn = run_synfl(&spec.fl, &setup, built.model.clone());
    let prox = run_fedprox(&spec.fl, &setup, built.model, &FedProxOptions { mu: 0.0, min_tau: 1 });
    assert_eq!(numeric_bits(&syn), numeric_bits(&prox));
    assert!(prox.rounds.iter().all(|r| r.ratios.is_empty()));
}

#[test]
fn quantized_residual_store_changes_the_run_but_not_its_determinism() {
    // §III-C's 8-bit residual store (`FedMpOptions::quantize_residuals`,
    // DESIGN §3 item 5) is off in every experiment and workload, so
    // this is tier-1's one run through it (the wire's `Int8` codec,
    // applied to each residual): the switch must
    // change the arithmetic, move final accuracy by at most 0.1 (0.945
    // exact vs 0.98 quantised at 16 rounds), and leave the run a
    // pure function of the seed — same bits at 1 and 4 executor
    // threads and over the threaded runtime.
    let spec = quick_spec(TaskKind::CnnMnist, 16);
    let built = spec.build();
    let setup = built.setup();
    let quant = FedMpOptions { quantize_residuals: true, ..Default::default() };
    let at = |threads: usize, opts: &FedMpOptions| {
        // Process-global, and harmless to the tests running beside this
        // one: every result is thread-count-invariant.
        override_threads(Some(threads));
        let h = run_fedmp(&spec.fl, &setup, built.model.clone(), opts);
        override_threads(None);
        h
    };
    let one = at(1, &quant);
    assert_eq!(numeric_bits(&one), numeric_bits(&at(4, &quant)), "1 vs 4 executor threads");
    let none = ChaosOptions::none();
    let threaded =
        run_threaded(&spec.fl, &setup, built.model.clone(), &SyncMethod::FedMp(quant), &none)
            .expect("socket fleet over thread nodes");
    assert_eq!(
        serde_json::to_string(&threaded).unwrap(),
        serde_json::to_string(&one).unwrap(),
        "loop vs threads"
    );

    let exact = at(1, &FedMpOptions::default());
    assert_ne!(numeric_bits(&exact), numeric_bits(&one), "the switch was ignored");
    let (a, b) = (exact.final_accuracy().unwrap(), one.final_accuracy().unwrap());
    assert!((a - b).abs() <= 0.1, "final accuracy moved: {a} exact vs {b} with 8-bit residuals");
}

#[test]
fn threaded_recovery_transcript_is_pinned() {
    // What the PS's recovery did each round — `(participants, retries,
    // exclusions)` — under the seeded chaos plan, recorded at 42e51c4
    // when the threaded runtime still ran over crossbeam channels. At a
    // fixed ratio every input to it is shape- or seed-derived (chaos
    // draws, churn, Eq. 5 costs), so it holds under either SIMD path,
    // where the history bits do not.
    let (train, test) = mnist_like(0.1, 300).generate();
    let part = iid_partition(&train, 3, &mut seeded_rng(300));
    let task = ImageTask::new(train, test, part);
    let devices = vec![
        tx2_profile(ComputeMode::Mode0, LinkQuality::Near),
        tx2_profile(ComputeMode::Mode1, LinkQuality::Mid),
        tx2_profile(ComputeMode::Mode3, LinkQuality::Far),
    ];
    let setup = FlSetup::new(&task, devices, TimeModel::default());
    let global = zoo::cnn_mnist(0.1, &mut seeded_rng(301));
    let cfg = FlConfig { rounds: 8, eval_every: 4, ..Default::default() };
    let faults = FaultOptions { fail_prob: 0.15, recover_rounds: 1, ..Default::default() };
    let faulty_transcript =
        [(0, 2, 3), (2, 4, 1), (2, 0, 1), (0, 2, 3), (2, 0, 1), (2, 2, 1), (1, 2, 1), (1, 2, 1)];
    let compressed_transcript =
        [(0, 3, 2), (2, 4, 1), (3, 2, 0), (2, 4, 1), (0, 1, 2), (0, 0, 2), (0, 3, 2), (0, 2, 2)];
    let cases = [
        (
            "demo(1) + faults",
            FedMpOptions { fixed_ratio: Some(0.4), faults: Some(faults), ..Default::default() },
            ChaosOptions::demo(1),
            faulty_transcript,
        ),
        (
            "demo(2) + adaptive compression",
            FedMpOptions {
                fixed_ratio: Some(0.4),
                compression: CompressionPolicy::adaptive(),
                ..Default::default()
            },
            ChaosOptions::demo(2),
            compressed_transcript,
        ),
    ];
    for (name, opts, chaos, expected) in cases {
        let h = run_threaded(&cfg, &setup, global.clone(), &SyncMethod::FedMp(opts), &chaos)
            .expect("injected faults are recoverable");
        let transcript: Vec<_> =
            h.rounds.iter().map(|r| (r.participants, r.retries, r.exclusions)).collect();
        assert_eq!(transcript, expected, "{name}: recovery transcript moved");
    }
}

#[test]
fn a_socket_node_rebuilds_the_ps_task_from_its_setup_blob() {
    // A process node trains on the task it rebuilds from the Setup
    // blob; it must be the PS's own, bit for bit (as `Debug` text), or
    // the socket runs leave the loop engine's history.
    let spec = quick_spec(TaskKind::CnnMnist, 1);
    let blob = fedmp::core::spec_blob(&spec);
    let rebuilt = fedmp::core::task_from_blob(&blob).expect("blob round trip");
    assert_eq!(format!("{rebuilt:?}"), format!("{:?}", spec.build_task()));
}

#[test]
fn histories_serialise_to_json() {
    let spec = quick_spec(TaskKind::CnnMnist, 3);
    let h = run_method(&spec, Method::FedMp);
    let json = serde_json::to_string(&h).expect("serialise history");
    let back: RunHistory = serde_json::from_str(&json).expect("deserialise history");
    assert_eq!(back.rounds.len(), h.rounds.len());
    assert_eq!(back.method, "FedMP");

    // A round with nobody online records a NaN training loss, which
    // JSON can only carry as `null`; the history must read it back.
    let faults = FaultOptions { fail_prob: 0.8, recover_rounds: 2, ..Default::default() };
    let spec = quick_spec(TaskKind::CnnMnist, 8);
    let h = run_fedmp_custom(&spec, &FedMpOptions { faults: Some(faults), ..Default::default() });
    assert!(h.rounds.iter().any(|r| r.train_loss.is_nan()), "no all-offline round");
    let json = serde_json::to_string(&h).expect("serialise faulted history");
    let back: RunHistory = serde_json::from_str(&json).expect("deserialise faulted history");
    assert_eq!(serde_json::to_string(&back).expect("re-serialise"), json);
}

#[test]
fn non_iid_slows_convergence() {
    let mut iid = quick_spec(TaskKind::CnnMnist, 12);
    iid.fl.eval_every = 1;
    let mut skew = iid.clone();
    skew.non_iid = 80;
    skew.workers = iid.workers; // same fleet
    let h_iid = run_method(&iid, Method::SynFl);
    let h_skew = run_method(&skew, Method::SynFl);
    // Compare accuracy at the same mid-training round.
    let mid = 6;
    let a_iid = h_iid.rounds[mid].eval.unwrap().1;
    let a_skew = h_skew.rounds[mid].eval.unwrap().1;
    assert!(
        a_skew <= a_iid + 0.05,
        "label skew should not converge faster: IID {a_iid} vs skew {a_skew}"
    );
}

#[test]
fn the_deadline_factor_keeps_a_straggler_inside_it() {
    // §V-A: the PS waits `factor · d`, where `d` is the arrival by which
    // `deadline_frac` of the models are in. Three equal devices and a
    // slower fourth whose arrival falls strictly between `d` and
    // `1.5 · d`: the paper's factor 1.5 keeps it, factor 1.0 drops it.
    let (train, test) = mnist_like(0.05, 310).generate();
    let part = iid_partition(&train, 4, &mut seeded_rng(310));
    let task = ImageTask::new(train, test, part);
    let fast = tx2_profile(ComputeMode::Mode0, LinkQuality::Near);
    let slow = tx2_profile(ComputeMode::Mode1, LinkQuality::Near);
    let setup = FlSetup::new(&task, vec![fast, fast, fast, slow], TimeModel::deterministic());
    let global = zoo::cnn_mnist(0.1, &mut seeded_rng(311));
    let cfg = FlConfig { rounds: 1, ..Default::default() };
    // At ρ = 0 every worker trains the whole model, so each arrival is
    // its device's Eq. 5 time for one cost.
    let cost = global.round_cost(&task, &cfg.local);
    let t: Vec<f64> =
        (0..4).map(|w| setup.simulate_round(w, &cost, &mut seeded_rng(0)).total()).collect();
    let d = t[2];
    assert!(t[..3].iter().all(|&x| x == d) && d < t[3] && t[3] < 1.5 * d, "arrivals {t:?}");
    let kept = |deadline_factor| {
        let faults = FaultOptions {
            fail_prob: 0.0,
            deadline_frac: 0.75,
            deadline_factor,
            ..Default::default()
        };
        let opts =
            FedMpOptions { fixed_ratio: Some(0.0), faults: Some(faults), ..Default::default() };
        let round = &run_fedmp(&cfg, &setup, global.clone(), &opts).rounds[0];
        (round.participants, round.exclusions)
    };
    assert_eq!(kept(1.5), (4, 0), "factor 1.5 excluded the straggler");
    assert_eq!(kept(1.0), (3, 1), "factor 1.0 kept the straggler");
}
