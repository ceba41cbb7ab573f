//! Chaos × compression interaction regression: a seeded `ChaosPlan`
//! corrupting and dropping **wire-v2 compressed** frames must still
//! drive every exchange to a terminal outcome — retransmit, exclusion,
//! crash/rejoin — complete every round, stay seed-reproducible, and
//! leave zero live worker threads behind.
//!
//! The recovery path is codec-agnostic by construction (retransmits
//! resend the *cached* encoded frame, so error feedback is never
//! double-counted and a retransmitted frame decodes identically to the
//! first transmission — see the frame-level test below), but this
//! binary proves it end-to-end.
//!
//! The two *threaded* tests in this binary hold [`THREADED`] while they
//! run: [`fedmp_fl::live_worker_threads`] is a process-global counter,
//! so a concurrently running threaded test in the same process would
//! make the post-run zero assertion racy. The frame-level test spawns
//! no runtime threads.

use fedmp_data::{iid_partition, mnist_like};
use fedmp_edgesim::{
    heterogeneity_scenario, tx2_profile, ComputeMode, HeterogeneityLevel, LinkQuality, TimeModel,
};
use fedmp_fl::{
    decode_state_v2, encode_state_v2, frame_checksum_ok, live_worker_threads, run_fedmp,
    run_threaded, ChaosOptions, Codec, CompressionPolicy, ErrorFeedback, FaultOptions,
    FedMpOptions, FlConfig, FlSetup, ImageTask, LinkCodecs, RunHistory, SyncMethod,
};
use fedmp_nn::zoo;
use fedmp_tensor::seeded_rng;
use std::sync::Mutex;

/// Held by each test that starts a threaded run (see the module docs).
static THREADED: Mutex<()> = Mutex::new(());

fn canonical(h: &RunHistory) -> String {
    serde_json::to_string(h).expect("serialise history")
}

#[test]
fn chaos_over_compressed_frames_recovers_and_joins() {
    let _threaded = THREADED.lock().unwrap_or_else(|e| e.into_inner());
    let (train, test) = mnist_like(0.1, 300).generate();
    let mut rng = seeded_rng(300);
    let part = iid_partition(&train, 3, &mut rng);
    let task = ImageTask::new(train, test, part);
    // Near/Mid/Far: the Far worker sits below the adaptive policy's
    // bandwidth threshold, so chaos hits dense *and* compressed frames.
    let devices = vec![
        tx2_profile(ComputeMode::Mode0, LinkQuality::Near),
        tx2_profile(ComputeMode::Mode1, LinkQuality::Mid),
        tx2_profile(ComputeMode::Mode3, LinkQuality::Far),
    ];
    let setup = FlSetup::new(&task, devices, TimeModel::default());
    let mut grng = seeded_rng(301);
    let global = zoo::cnn_mnist(0.1, &mut grng);
    let cfg = FlConfig { rounds: 5, eval_every: 2, ..Default::default() };
    let opts = FedMpOptions {
        compression: CompressionPolicy::adaptive(),
        faults: Some(FaultOptions { fail_prob: 0.1, recover_rounds: 1, ..Default::default() }),
        ..Default::default()
    };
    // Every upload corrupted, with streaks long enough to exhaust the
    // 2-resend budget regularly; crashes cover respawned workers (whose
    // fresh error-feedback accumulators must also be deterministic).
    let chaos = ChaosOptions {
        corrupt_prob: 1.0,
        max_corrupt_sends: 8,
        max_retransmits: 2,
        crash_prob: 0.25,
        ..ChaosOptions::none()
    };

    let fedmp = SyncMethod::FedMp(opts);
    let a = run_threaded(&cfg, &setup, global.clone(), &fedmp, &chaos)
        .expect("corrupted compressed frames must be recoverable, not an error");
    assert_eq!(a.rounds.len(), 5, "chaos must not shorten the run");
    let exclusions: usize = a.rounds.iter().map(|r| r.exclusions).sum();
    let retries: usize = a.rounds.iter().map(|r| r.retries).sum();
    assert!(exclusions > 0, "retry exhaustion never excluded a worker");
    assert!(retries > 0, "corruption never triggered a retransmit");

    // Seed-reproducibility: worker-side lossy encodes and respawn-reset
    // feedback accumulators are all deterministic, so a rerun is
    // bit-identical.
    let b = run_threaded(&cfg, &setup, global, &fedmp, &chaos).expect("second chaos run");
    assert_eq!(canonical(&a), canonical(&b), "compressed chaos run is not seed-reproducible");

    // The join guarantee: every worker thread — initial and respawned —
    // is joined before the runtime returns.
    assert_eq!(live_worker_threads(), 0, "worker threads leaked past the run");
}

#[test]
fn sparse_downlinks_deliver_the_same_run_over_loop_and_threads() {
    // A sparse downlink is decoded twice over: the loop engine's PS
    // decodes its own frame with no reference (a zero base), a worker
    // node decodes the frame it receives against explicit zeros. Both
    // must deliver the same sub-model, so the runs are one history.
    // The setup is `fedmp_core::ExperimentSpec::small(CnnMnist)`'s,
    // rebuilt here: 4 workers at Medium heterogeneity, seed 42, and
    // every link on the same sparse pair.
    let _threaded = THREADED.lock().unwrap_or_else(|e| e.into_inner());
    let seed = 42;
    let (train, test) = mnist_like(0.1, seed).generate();
    let part = iid_partition(&train, 4, &mut seeded_rng(seed ^ 0xDA7A));
    let task = ImageTask::new(train, test, part);
    let devices =
        heterogeneity_scenario(HeterogeneityLevel::Medium, 4, &mut seeded_rng(seed ^ 0xDE71CE));
    let setup = FlSetup::new(&task, devices, TimeModel::default());
    let global = zoo::cnn_mnist(0.25, &mut seeded_rng(seed ^ 0x0DE1));
    let cfg = FlConfig { rounds: 3, eval_every: 2, ..Default::default() };
    for downlink in [Codec::TopK { keep: 0.5 }, Codec::TopKInt8 { keep: 0.3 }] {
        let pair = LinkCodecs { downlink, uplink: Codec::TopKInt8 { keep: 0.2 } };
        let compression = CompressionPolicy { slow_link_bps: 0.0, fast: pair, slow: pair };
        let opts = FedMpOptions { compression, ..Default::default() };
        let looped = run_fedmp(&cfg, &setup, global.clone(), &opts);
        let threaded = run_threaded(
            &cfg,
            &setup,
            global.clone(),
            &SyncMethod::FedMp(opts),
            &ChaosOptions::none(),
        )
        .expect("threaded run");
        assert_eq!(canonical(&threaded), canonical(&looped), "{}", downlink.label());
    }
    assert_eq!(live_worker_threads(), 0, "worker threads leaked past the run");
}

#[test]
fn retransmitted_compressed_frames_decode_identically() {
    // The runtime's retransmit path resends the *cached* clean frame —
    // it never re-encodes, so error feedback is untouched and every
    // decode of that frame yields the same state. Model the transport
    // here: encode once (EF updates once), corrupt a copy in transit,
    // detect, "resend" the clean frame, decode twice.
    let mut rng = seeded_rng(303);
    let m = zoo::cnn_mnist(0.1, &mut rng);
    let state = m.state();
    let mut feedback = ErrorFeedback::new();
    let frame = encode_state_v2(&state, Codec::TopKInt8 { keep: 0.1 }, None, Some(&mut feedback));
    let feedback_after_encode = feedback.clone();

    // In transit: the middle byte flips (what the chaos plan does).
    let mut corrupt = frame.to_vec();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0xFF;
    assert!(!frame_checksum_ok(&corrupt), "corruption went undetected");
    assert!(decode_state_v2(&corrupt, None).is_err(), "corrupt frame decoded");

    // Retransmission: same frame, no re-encode — feedback unchanged,
    // and both decodes are bit-identical.
    assert!(frame_checksum_ok(&frame));
    // A sparse frame decodes against the zero base its `None` encode
    // implied, as a worker decodes its downlink.
    let zeros: Vec<_> = state
        .iter()
        .map(|e| fedmp_nn::StateEntry {
            tensor: fedmp_tensor::Tensor::zeros(e.tensor.dims()),
            ..e.clone()
        })
        .collect();
    let first = decode_state_v2(&frame, Some(&zeros)).expect("first transmission");
    let second = decode_state_v2(&frame, Some(&zeros)).expect("retransmission");
    assert_eq!(feedback, feedback_after_encode, "retransmit touched error feedback");
    assert_eq!(first.len(), second.len());
    for (x, y) in first.iter().zip(second.iter()) {
        assert_eq!(x.name, y.name);
        assert_eq!(x.tensor.dims(), y.tensor.dims());
        let xb: Vec<u32> = x.tensor.data().iter().map(|v| v.to_bits()).collect();
        let yb: Vec<u32> = y.tensor.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(xb, yb, "retransmitted decode differs for {}", x.name);
    }
}
