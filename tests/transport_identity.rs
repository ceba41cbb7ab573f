//! The transport contract, where tier-1 can see it: however a FedMP
//! round is carried — the in-process loop, channel-connected worker
//! threads, or Unix-socket nodes — the history is the same bits, with
//! lossless and with lossy links, and nothing outlives the run.
//!
//! The workspace crates prove this at length (`crates/fl/tests`); this
//! is the cheapest row of that proof, promoted into the root package
//! because tier-1 runs nothing else. One test function on purpose:
//! `live_worker_threads()` is a process-wide gauge, and concurrent runs
//! in this binary would pollute it.

use core::time::Duration;
use fedmp::data::{iid_partition, mnist_like};
use fedmp::edgesim::{tx2_profile, ComputeMode, LinkQuality, TimeModel};
use fedmp::fl::{
    live_worker_threads, run_fedmp, run_fedmp_sockets, run_fedmp_threaded, unique_socket_path,
    ChaosOptions, CompressionPolicy, FedMpOptions, FlConfig, FlSetup, ImageTask, RunHistory,
    SocketRunOptions, ThreadNodes,
};
use fedmp::nn::zoo;
use fedmp::tensor::seeded_rng;
use std::sync::Arc;

fn canonical(h: &RunHistory) -> String {
    serde_json::to_string(h).expect("serialise history")
}

#[test]
fn loop_threads_and_sockets_agree_bit_for_bit() {
    let (train, test) = mnist_like(0.1, 290).generate();
    let mut rng = seeded_rng(290);
    let part = iid_partition(&train, 3, &mut rng);
    let task = Arc::new(ImageTask::new(train, test, part));
    // Near/Mid/Far: the adaptive policy puts the Far worker on the lossy
    // pair (f16 down, top-k int8 up) and leaves the others dense.
    let devices = vec![
        tx2_profile(ComputeMode::Mode0, LinkQuality::Near),
        tx2_profile(ComputeMode::Mode1, LinkQuality::Mid),
        tx2_profile(ComputeMode::Mode3, LinkQuality::Far),
    ];
    let setup = FlSetup::new(task.as_ref(), devices, TimeModel::default());
    let global = zoo::cnn_mnist(0.1, &mut seeded_rng(291));
    let cfg = FlConfig { rounds: 3, eval_every: 2, ..Default::default() };

    let mut dense_and_lossy = Vec::new();
    for compression in [CompressionPolicy::dense(), CompressionPolicy::adaptive()] {
        let opts = FedMpOptions { compression, ..Default::default() };
        let reference = canonical(&run_fedmp(&cfg, &setup, global.clone(), &opts));

        let threaded = run_fedmp_threaded(&cfg, &setup, global.clone(), &opts).expect("threads");
        assert_eq!(canonical(&threaded), reference, "threaded history diverged");

        let sock = SocketRunOptions::new(unique_socket_path("tier1"), Vec::new());
        let mut nodes = ThreadNodes {
            task: Arc::clone(&task),
            socket: sock.socket.clone(),
            connect_attempts: 12,
            connect_backoff: Duration::from_millis(2),
        };
        let chaos = ChaosOptions::none();
        let sockets =
            run_fedmp_sockets(&cfg, &setup, global.clone(), &opts, &chaos, &sock, &mut nodes)
                .expect("sockets");
        assert_eq!(canonical(&sockets), reference, "socket history diverged");

        assert_eq!(live_worker_threads(), 0, "a run leaked runtime threads");
        assert!(!sock.socket.exists(), "the socket file outlived its run");
        dense_and_lossy.push(reference);
    }
    assert_ne!(dense_and_lossy[0], dense_and_lossy[1], "the lossy policy changed nothing");
}
