//! Trace acceptance tests: `RunHistory::from_trace` rebuilds every
//! field `RoundEnd` mirrors bit for bit from the event stream alone (so
//! `resource_totals` of it is the live run's), and the event stream is
//! invariant to the kernel thread count.
//!
//! Everything lives in ONE test function: trace sessions are process-
//! exclusive and the kernel-dispatch counters are process-global, so
//! concurrent tests in this binary would pollute the per-round deltas.

use fedmp_data::{iid_partition, mnist_like};
use fedmp_edgesim::{tx2_profile, ComputeMode, LinkQuality, TimeModel};
use fedmp_fl::{
    resource_totals, run_fedmp, run_fedprox, run_synfl, FaultOptions, FedMpOptions, FedProxOptions,
    FlConfig, FlSetup, ImageTask, RoundRecord, RunHistory,
};
use fedmp_nn::{zoo, Sequential};
use fedmp_obs::{diff, RunManifest, Trace, TraceEvent, TraceSession};
use fedmp_tensor::seeded_rng;

const WORKERS: usize = 4;
const ROUNDS: usize = 5;

/// The replay contract: the history rebuilt from the trace carries
/// every field `RoundEnd` mirrors bit for bit, so its resource totals
/// are the live run's. A float's `{:?}` is its shortest round-trip
/// form, so equal strings are equal bits (and every NaN, which the
/// trace writes as `null`, prints `NaN`).
fn assert_replays(live: &RunHistory, trace: &Trace) {
    let mirrored = |h: &RunHistory| -> Vec<String> {
        let fields = |r: &RoundRecord| {
            (r.round, r.sim_time, r.round_time, r.mean_comp, r.mean_comm, r.train_loss, r.eval)
        };
        h.rounds.iter().map(|r| format!("{:?}", fields(r))).collect()
    };
    let replayed = RunHistory::from_trace(trace);
    assert_eq!(mirrored(&replayed), mirrored(live));
    let totals = |h: &RunHistory| format!("{:?}", resource_totals(h, WORKERS));
    assert_eq!(totals(&replayed), totals(live));
}

fn run_traced(threads: usize, seed: u64, opts: &FedMpOptions) -> (RunHistory, Trace) {
    run_traced_with(threads, seed, |cfg, setup, global| run_fedmp(cfg, setup, global, opts))
}

/// Records `engine` on the shared 4-device fleet (Mode0 … Mode3).
fn run_traced_with(
    threads: usize,
    seed: u64,
    engine: impl FnOnce(&FlConfig, &FlSetup<'_>, Sequential) -> RunHistory,
) -> (RunHistory, Trace) {
    fedmp_tensor::parallel::override_threads(Some(threads));
    let (train, test) = mnist_like(0.1, seed).generate();
    let mut rng = seeded_rng(seed);
    let part = iid_partition(&train, WORKERS, &mut rng);
    let task = ImageTask::new(train, test, part);
    let devices = vec![
        tx2_profile(ComputeMode::Mode0, LinkQuality::Near),
        tx2_profile(ComputeMode::Mode1, LinkQuality::Mid),
        tx2_profile(ComputeMode::Mode2, LinkQuality::Mid),
        tx2_profile(ComputeMode::Mode3, LinkQuality::Far),
    ];
    let setup = FlSetup::new(&task, devices, TimeModel::default());
    let global = zoo::cnn_mnist(0.1, &mut rng);
    let cfg = FlConfig { rounds: ROUNDS, eval_every: 2, seed, ..Default::default() };

    let manifest = RunManifest::new("FedMP", seed, WORKERS, ROUNDS, threads);
    let session = TraceSession::capture(&manifest);
    let history = engine(&cfg, &setup, global);
    let trace = session.finish();
    fedmp_tensor::parallel::override_threads(None);
    (history, trace)
}

#[test]
fn trace_replays_the_history_and_stream_is_thread_invariant() {
    // ── the trace replays the history, bit-exact ────────────────────
    let (history, trace) = run_traced(1, 42, &FedMpOptions::default());
    assert_replays(&history, &trace);
    assert!(history.rounds.iter().any(|r| r.eval.is_some()), "no evaluated round replayed");

    // Every round contributes the full event complement, in order.
    let kinds: Vec<&str> = trace.events.iter().map(|e| e.kind()).collect();
    assert_eq!(kinds.iter().filter(|k| **k == "RoundStart").count(), ROUNDS);
    assert_eq!(kinds.iter().filter(|k| **k == "RoundEnd").count(), ROUNDS);
    assert_eq!(kinds.iter().filter(|k| **k == "LocalTrain").count(), ROUNDS * WORKERS);
    assert_eq!(kinds.iter().filter(|k| **k == "BanditDecision").count(), ROUNDS * WORKERS);
    assert_eq!(kinds.iter().filter(|k| **k == "Aggregate").count(), ROUNDS);
    assert_eq!(kinds.iter().filter(|k| **k == "KernelDispatch").count(), ROUNDS);
    assert!(trace.events.iter().any(|e| matches!(
        e,
        TraceEvent::KernelDispatch { dispatches, .. } if *dispatches > 0
    )));

    // ── same seed, 1 vs 4 kernel threads: zero divergence ───────────
    let (_h4, trace4) = run_traced(4, 42, &FedMpOptions::default());
    let d = diff(&trace, &trace4);
    assert!(!d.is_divergent(), "thread count changed the event stream: {:?}", d.divergence);
    assert_eq!(d.len_a, d.len_b);
    // The only manifest difference is the thread count, reported as a
    // note rather than a divergence.
    assert_eq!(d.manifest_notes.len(), 1, "{:?}", d.manifest_notes);
    assert!(d.manifest_notes[0].contains("threads"), "{:?}", d.manifest_notes);

    // ── a trace recorded before the `*_pruned` path counters were
    //    retired (two always-zero keys closing every `KernelDispatch`
    //    line) loads, and diffs clean against today's run ────────────
    let legacy: Vec<String> = trace
        .event_lines
        .iter()
        .map(|line| {
            if line.starts_with("{\"KernelDispatch\"") {
                line.replace("}}", ",\"gemm_simd_pruned\":0,\"gemm_scalar_pruned\":0}}")
            } else {
                line.clone()
            }
        })
        .collect();
    let legacy: Trace = legacy.join("\n").parse().expect("pre-retirement trace still loads");
    assert_eq!(
        legacy.event_lines.iter().filter(|l| l.contains("gemm_simd_pruned")).count(),
        ROUNDS
    );
    let d = diff(&legacy, &trace);
    assert!(!d.is_divergent(), "retired keys read as divergence: {:?}", d.divergence);

    // ── a different seed must diverge ───────────────────────────────
    let (_h, other) = run_traced(1, 43, &FedMpOptions::default());
    assert!(diff(&trace, &other).is_divergent());

    // ── faults: events appear and the trace still replays ───────────
    let opts = FedMpOptions {
        faults: Some(FaultOptions { fail_prob: 0.3, recover_rounds: 1, ..Default::default() }),
        ..Default::default()
    };
    let (fh, ft) = run_traced(1, 44, &opts);
    assert_replays(&fh, &ft);
    let injected = ft.events.iter().filter(|e| e.kind() == "FaultInjected").count();
    let recovered = ft.events.iter().filter(|e| e.kind() == "FaultRecovered").count();
    assert!(injected > 0, "no faults materialised at fail_prob=0.3 over {ROUNDS} rounds");
    assert!(recovered <= injected);

    // ── FedProx: `LocalTrain.tau` is the worker's own τₙ, not τ ─────
    let (_h, prox) = run_traced_with(1, 45, |cfg, setup, global| {
        run_fedprox(cfg, setup, global, &FedProxOptions::default())
    });
    let flops = [ComputeMode::Mode0, ComputeMode::Mode1, ComputeMode::Mode2, ComputeMode::Mode3]
        .map(|m| tx2_profile(m, LinkQuality::Near).flops());
    let tau = FlConfig::default().local.tau;
    let taus = flops.map(|f| ((tau as f64 * f / flops[0]).round() as usize).max(1));
    assert!(taus[3] < taus[0] && taus[0] == tau, "fleet does not spread τₙ: {taus:?}");
    let seen: Vec<(usize, usize)> = prox
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::LocalTrain { worker, tau, .. } => Some((*worker, *tau)),
            _ => None,
        })
        .collect();
    assert_eq!(seen.len(), ROUNDS * WORKERS);
    assert!(seen.iter().all(|&(w, t)| t == taus[w]), "LocalTrain carries τ, not τₙ: {seen:?}");

    // ── Syn-FL is FedMP at ρ ≡ 0: the two event streams differ in the
    //    `Aggregate` scheme label and nowhere else ────────────────────
    let (_h, syn) = run_traced_with(1, 46, run_synfl);
    let fixed0 = FedMpOptions { fixed_ratio: Some(0.0), ..Default::default() };
    let (_h, fixed) = run_traced(1, 46, &fixed0);
    assert_eq!(syn.event_lines.len(), fixed.event_lines.len());
    for (s, f) in syn.event_lines.iter().zip(&fixed.event_lines) {
        if s.starts_with("{\"Aggregate\"") {
            assert!(s.contains("\"FedAvg\"") && f.contains("\"R2SP\""), "{s} / {f}");
            assert_eq!(&s.replace("\"FedAvg\"", "\"R2SP\""), f);
        } else {
            assert_eq!(s, f);
        }
    }
}
