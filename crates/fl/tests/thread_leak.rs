//! Regression test for the threaded runtime's join guarantee: a run
//! whose chaos plan exhausts retransmit budgets (and crashes workers)
//! must still return normally — recoverable outcomes, not errors — and
//! leave **zero** live worker threads behind.
//!
//! This is deliberately the only test in this binary:
//! [`fedmp_fl::live_worker_threads`] is a process-global counter, so a
//! concurrently running threaded test elsewhere in the same process
//! would make the post-run zero assertion racy.

use fedmp_data::{iid_partition, mnist_like};
use fedmp_edgesim::{tx2_profile, ComputeMode, LinkQuality, TimeModel};
use fedmp_fl::{
    live_worker_threads, run_fedmp_threaded_chaos, ChaosOptions, FaultOptions, FedMpOptions,
    FlConfig, FlSetup, ImageTask,
};
use fedmp_nn::zoo;
use fedmp_tensor::seeded_rng;

#[test]
fn corrupt_frames_exhaust_retries_without_leaking_threads() {
    let (train, test) = mnist_like(0.1, 280).generate();
    let mut rng = seeded_rng(280);
    let part = iid_partition(&train, 3, &mut rng);
    let task = ImageTask::new(train, test, part);
    let devices = vec![
        tx2_profile(ComputeMode::Mode0, LinkQuality::Near),
        tx2_profile(ComputeMode::Mode1, LinkQuality::Mid),
        tx2_profile(ComputeMode::Mode3, LinkQuality::Far),
    ];
    let setup = FlSetup::new(&task, devices, TimeModel::default());
    let mut grng = seeded_rng(281);
    let global = zoo::cnn_mnist(0.1, &mut grng);
    let cfg = FlConfig { rounds: 4, eval_every: 2, ..Default::default() };
    let opts = FedMpOptions {
        faults: Some(FaultOptions { fail_prob: 0.1, recover_rounds: 1, ..Default::default() }),
        ..Default::default()
    };
    // Every upload corrupted, with streaks long enough that a 2-resend
    // budget is regularly exhausted — the worst case for the old
    // runtime, which turned the first corrupt frame into a terminal
    // error and could leave workers blocked mid-send. Crashes included
    // so respawned threads are covered by the join guarantee too.
    let chaos = ChaosOptions {
        corrupt_prob: 1.0,
        max_corrupt_sends: 8,
        max_retransmits: 2,
        crash_prob: 0.25,
        ..ChaosOptions::none()
    };

    let h = run_fedmp_threaded_chaos(&cfg, &setup, global, &opts, &chaos)
        .expect("transport corruption must be recoverable, not an error");
    assert_eq!(h.rounds.len(), 4, "chaos must not shorten the run");
    let exclusions: usize = h.rounds.iter().map(|r| r.exclusions).sum();
    let retries: usize = h.rounds.iter().map(|r| r.retries).sum();
    assert!(exclusions > 0, "retry exhaustion never excluded a worker");
    assert!(retries > 0, "corruption never triggered a retransmit");

    // The join guarantee: the fleet's teardown has run, so every node
    // and reader thread — initial and respawned — is joined.
    assert_eq!(live_worker_threads(), 0, "worker threads leaked past the run");
}
