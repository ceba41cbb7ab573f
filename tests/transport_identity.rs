//! The transport contract, where tier-1 can see it: however a FedMP
//! round is carried — the in-process loop or Unix-socket nodes the
//! caller spawns (the threaded runtime is that socket fleet over
//! in-process `ThreadNodes`) — the history is the same bits, with
//! lossless and with lossy links, and nothing outlives the run.
//!
//! The workspace crates prove this at length (`crates/fl/tests`); this
//! is the cheapest row of that proof, promoted into the root package
//! because tier-1 runs nothing else. One test function on purpose:
//! `live_worker_threads()` is a process-wide gauge, and concurrent runs
//! in this binary would pollute it.

use core::time::Duration;
use fedmp::data::{iid_partition, mnist_like};
use fedmp::edgesim::{tx2_profile, ComputeMode, DeviceProfile, LinkQuality, TimeModel};
use fedmp::fl::{
    live_worker_threads, run_fedmp, run_sockets, unique_socket_path, ChaosOptions,
    CompressionPolicy, FaultOptions, FedMpOptions, FlConfig, FlSetup, ImageTask, RunHistory,
    SocketRunOptions, SyncMethod, ThreadNodes,
};
use fedmp::nn::{zoo, Conv2d, Dropout, Flatten, LayerNode, Linear, MaxPool2d, ReLU, Sequential};
use fedmp::tensor::seeded_rng;
use std::sync::Arc;

fn canonical(h: &RunHistory) -> String {
    serde_json::to_string(h).expect("serialise history")
}

/// Runs one spec through the loop engine and the socket runtime over
/// thread nodes, asserts the two histories are the same bits and that
/// nothing outlived the runs, and returns the loop engine's history.
fn agreed_history(
    task: &Arc<ImageTask>,
    devices: Vec<DeviceProfile>,
    global: &Sequential,
    cfg: &FlConfig,
    opts: &FedMpOptions,
) -> RunHistory {
    let setup = FlSetup::new(task.as_ref(), devices, TimeModel::default());
    let reference = run_fedmp(cfg, &setup, global.clone(), opts);

    let sock = SocketRunOptions::new(unique_socket_path("tier1"), Vec::new());
    let mut nodes = ThreadNodes {
        task: Arc::clone(task),
        socket: sock.socket.clone(),
        connect_attempts: 12,
        connect_backoff: Duration::from_millis(2),
    };
    let chaos = ChaosOptions::none();
    let fedmp = SyncMethod::FedMp(*opts);
    let sockets = run_sockets(cfg, &setup, global.clone(), &fedmp, &chaos, &sock, &mut nodes)
        .expect("sockets");
    assert_eq!(canonical(&sockets), canonical(&reference), "socket history diverged");

    assert_eq!(live_worker_threads(), 0, "a run leaked runtime threads");
    assert!(!sock.socket.exists(), "the socket file outlived its run");
    reference
}

#[test]
fn loop_threads_and_sockets_agree_bit_for_bit() {
    let (train, test) = mnist_like(0.1, 290).generate();
    let mut rng = seeded_rng(290);
    let part = iid_partition(&train, 3, &mut rng);
    let part4 = iid_partition(&train, 4, &mut rng);
    let task = Arc::new(ImageTask::new(train.clone(), test.clone(), part));
    // Near/Mid/Far: the adaptive policy puts the Far worker on the lossy
    // pair (f16 down, top-k int8 up) and leaves the others dense.
    let devices = vec![
        tx2_profile(ComputeMode::Mode0, LinkQuality::Near),
        tx2_profile(ComputeMode::Mode1, LinkQuality::Mid),
        tx2_profile(ComputeMode::Mode3, LinkQuality::Far),
    ];
    let global = zoo::cnn_mnist(0.1, &mut seeded_rng(291));
    let cfg = FlConfig { rounds: 3, eval_every: 2, ..Default::default() };

    let dense = agreed_history(&task, devices.clone(), &global, &cfg, &FedMpOptions::default());
    let lossy = FedMpOptions { compression: CompressionPolicy::adaptive(), ..Default::default() };
    let lossy = agreed_history(&task, devices.clone(), &global, &cfg, &lossy);
    assert_ne!(canonical(&dense), canonical(&lossy), "the lossy policy changed nothing");

    // A dropout layer draws the same masks wherever the sub-model
    // trains — the socket workers rebuild it from the architecture's
    // JSON, the loop engine clones it.
    let mut rng = seeded_rng(292);
    let dropout_net = Sequential::new(vec![
        LayerNode::Conv2d(Conv2d::new(1, 4, 5, 1, 2, &mut rng)),
        LayerNode::ReLU(ReLU::new()),
        LayerNode::MaxPool2d(MaxPool2d::new(4)),
        LayerNode::Flatten(Flatten::new()),
        LayerNode::Dropout(Dropout::new(0.3, 17)),
        LayerNode::Linear(Linear::new(4 * 7 * 7, 10, &mut rng)),
    ]);
    let cfg2 = FlConfig { rounds: 2, ..cfg };
    agreed_history(&task, devices, &dropout_net, &cfg2, &FedMpOptions::default());

    // §V-A: churn takes workers offline and the deadline discards the
    // Mode3/Far straggler. `deadline_frac` needs four arrivals before
    // `d` can fall short of the slowest one; under seed 7 the rounds
    // see 0, 0, 4 (one past the deadline) and 2 workers online.
    let task4 = Arc::new(ImageTask::new(train, test, part4));
    let mut fleet = vec![tx2_profile(ComputeMode::Mode0, LinkQuality::Near); 3];
    fleet.push(tx2_profile(ComputeMode::Mode3, LinkQuality::Far));
    let faulty = FedMpOptions {
        faults: Some(FaultOptions {
            fail_prob: 0.35,
            recover_rounds: 1,
            deadline_frac: 0.75,
            deadline_factor: 1.2,
        }),
        ..Default::default()
    };
    let cfg4 = FlConfig { rounds: 4, seed: 7, ..cfg };
    let h = agreed_history(&task4, fleet, &global, &cfg4, &faulty);
    assert!(h.rounds.iter().any(|r| r.ratios.len() < 4), "no worker ever went offline");
    assert!(h.rounds.iter().any(|r| r.exclusions > 0), "the deadline never excluded anyone");
}
