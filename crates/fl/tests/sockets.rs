//! Socket-runtime acceptance: the determinism contract of
//! `run_sockets` and its structural teardown guarantees.
//!
//! Every socket run lives in ONE test function, deliberately: trace
//! sessions are process-exclusive, the kernel-dispatch counters are
//! process-global, and the `live_worker_threads()` leak gauge counts
//! every runtime-managed thread in the process — concurrent socket
//! runs in this binary would pollute all three. The one other test
//! panics before its run starts a node, a thread or a trace event.

use core::time::Duration;
use fedmp_data::{iid_partition, mnist_like, ptb_like, TextDataset};
use fedmp_edgesim::{tx2_profile, ComputeMode, DeviceProfile, LinkQuality, TimeModel};
use fedmp_fl::{
    live_worker_threads, run_fedmp, run_sockets, unique_socket_path, ChaosOptions, FaultOptions,
    FedMpOptions, FlConfig, FlSetup, ImageTask, LmTask, LocalTrainConfig, NodeHandle, NodeSpawner,
    RunHistory, SocketRunOptions, SyncMethod, ThreadNodes, TransportError,
};
use fedmp_nn::zoo;
use fedmp_obs::{diff, RunManifest, Trace, TraceSession};
use fedmp_tensor::seeded_rng;
use std::sync::Arc;

const WORKERS: usize = 3;

fn setup_task(seed: u64) -> (Arc<ImageTask>, Vec<DeviceProfile>) {
    let (train, test) = mnist_like(0.1, seed).generate();
    let mut rng = seeded_rng(seed);
    let part = iid_partition(&train, WORKERS, &mut rng);
    let devices = vec![
        tx2_profile(ComputeMode::Mode0, LinkQuality::Near),
        tx2_profile(ComputeMode::Mode1, LinkQuality::Mid),
        tx2_profile(ComputeMode::Mode3, LinkQuality::Far),
    ];
    (Arc::new(ImageTask::new(train, test, part)), devices)
}

fn canonical(h: &RunHistory) -> String {
    serde_json::to_string(h).expect("serialise history")
}

/// One traced socket run over in-process thread nodes on a fresh
/// socket path. Asserts the structural teardown guarantees before
/// returning: no live runtime threads, no socket file left behind.
fn run_sockets_traced(
    tag: &str,
    task: &Arc<ImageTask>,
    setup: &FlSetup<'_>,
    cfg: &FlConfig,
    opts: &FedMpOptions,
    chaos: &ChaosOptions,
    global: fedmp_nn::Sequential,
) -> (RunHistory, Trace) {
    let sock = SocketRunOptions::new(unique_socket_path(tag), Vec::new());
    let mut spawner = ThreadNodes {
        task: Arc::clone(task),
        socket: sock.socket.clone(),
        connect_attempts: 12,
        connect_backoff: Duration::from_millis(2),
    };
    let manifest = RunManifest::new("FedMP-sockets", cfg.seed, WORKERS, cfg.rounds, 1);
    let session = TraceSession::capture(&manifest);
    let fedmp = SyncMethod::FedMp(*opts);
    let history =
        run_sockets(cfg, setup, global, &fedmp, chaos, &sock, &mut spawner).expect("socket run");
    let trace = session.finish();
    assert_eq!(live_worker_threads(), 0, "run `{tag}` leaked runtime threads");
    assert!(!sock.socket.exists(), "run `{tag}` left its socket file behind");
    (history, trace)
}

#[test]
fn socket_runtime_matches_loop_engine_and_chaos_is_deterministic() {
    let (task, devices) = setup_task(280);
    let setup = FlSetup::new(task.as_ref(), devices, TimeModel::default());
    let mut rng = seeded_rng(281);
    let global = zoo::cnn_mnist(0.12, &mut rng);
    let cfg = FlConfig { rounds: 4, eval_every: 2, ..Default::default() };
    // §V-A churn on, so worker exclusion and partial aggregation are
    // exercised on the identity path too.
    let opts = FedMpOptions {
        faults: Some(FaultOptions {
            fail_prob: 0.3,
            recover_rounds: 1,
            deadline_frac: 0.75,
            deadline_factor: 1.2,
        }),
        ..Default::default()
    };

    // ── chaos off: history AND trace bit-identical to the loop engine
    let manifest = RunManifest::new("FedMP", cfg.seed, WORKERS, cfg.rounds, 1);
    let session = TraceSession::capture(&manifest);
    let h_loop = run_fedmp(&cfg, &setup, global.clone(), &opts);
    let t_loop = session.finish();

    let (h_sock, t_sock) = run_sockets_traced(
        "identity",
        &task,
        &setup,
        &cfg,
        &opts,
        &ChaosOptions::none(),
        global.clone(),
    );
    assert_eq!(canonical(&h_loop), canonical(&h_sock), "socket history diverged");
    let d = diff(&t_loop, &t_sock);
    assert!(!d.is_divergent(), "socket trace diverged from the loop engine: {:?}", d.divergence);
    assert_eq!(d.len_a, d.len_b);
    // A chaos-off socket trace contains no transport-only events.
    assert!(
        !t_sock.events.iter().any(|e| matches!(
            e.kind(),
            "ConnEstablished" | "FrameTimeout" | "ConnReset" | "NodeRespawned"
        )),
        "transport events leaked into a chaos-off trace"
    );

    // ── seeded packet chaos: bit-identical run to run, recovery fires
    let chaos = ChaosOptions::demo(1);
    let cfg8 = FlConfig { rounds: 8, eval_every: 4, ..cfg };
    let (h_a, t_a) =
        run_sockets_traced("chaos-a", &task, &setup, &cfg8, &opts, &chaos, global.clone());
    let (h_b, t_b) = run_sockets_traced("chaos-b", &task, &setup, &cfg8, &opts, &chaos, global);
    assert_eq!(canonical(&h_a), canonical(&h_b), "chaos history not reproducible");
    let d = diff(&t_a, &t_b);
    assert!(!d.is_divergent(), "chaos trace not reproducible: {:?}", d.divergence);
    assert_eq!(d.len_a, d.len_b);

    // The recovery machinery demonstrably fired, packet-level events
    // included: respawn + reconnect for crashes, timeouts for drops.
    let kinds: Vec<&str> = t_a.events.iter().map(|e| e.kind()).collect();
    for needed in ["NodeRespawned", "ConnEstablished", "WorkerRejoined", "FrameTimeout"] {
        assert!(kinds.contains(&needed), "no {needed} event under demo chaos");
    }
    assert!(
        kinds.contains(&"ConnReset"),
        "no ConnReset: crash draws never excluded a worker mid-round"
    );
    assert!(
        h_a.rounds.iter().map(|r| r.retries + r.exclusions).sum::<usize>() > 0,
        "demo chaos produced no recoveries"
    );
    assert_eq!(h_a.rounds.len(), 8, "chaos must not shorten the run");
    // Rounds that aggregated did so within the fleet, and the run
    // still evaluated.
    assert!(h_a.rounds.iter().all(|r| r.participants <= WORKERS));
    assert!(h_a.final_accuracy().is_some(), "the chaotic run never evaluated");

    // ── the LSTM under the same chaos: one socket runtime for every
    // model family, and a respawned LSTM node rebuilds its model from
    // the architecture a fresh Setup carries
    let (lm_train, lm_eval) = ptb_like(30, 6_000, 7).split(0.9);
    let lane = lm_train.len() / WORKERS;
    let lanes = lm_train.tokens.chunks(lane).take(WORKERS);
    let lanes = lanes.map(|t| TextDataset { tokens: t.to_vec(), vocab: 30 }.batches(4, 8));
    let lm_task = Arc::new(LmTask::new(lanes.collect(), lm_eval.batches(4, 8)));
    let lm_setup = FlSetup::new(lm_task.as_ref(), setup.devices.clone(), TimeModel::default());
    let lm_global = zoo::lstm_ptb(30, 0.15, &mut seeded_rng(282));
    let local = LocalTrainConfig { tau: 4, lr: 0.4, ..Default::default() };
    let lm_cfg = FlConfig { local, eval_max_samples: 8, ..cfg8 };
    let lm_run = |tag: &str| {
        let sock = SocketRunOptions::new(unique_socket_path(tag), Vec::new());
        let mut spawner = ThreadNodes {
            task: Arc::clone(&lm_task),
            socket: sock.socket.clone(),
            connect_attempts: 12,
            connect_backoff: Duration::from_millis(2),
        };
        let manifest = RunManifest::new("FedMP-lm-sockets", lm_cfg.seed, WORKERS, lm_cfg.rounds, 1);
        let session = TraceSession::capture(&manifest);
        let fedmp = SyncMethod::FedMp(FedMpOptions::default());
        let history =
            run_sockets(&lm_cfg, &lm_setup, lm_global.clone(), &fedmp, &chaos, &sock, &mut spawner)
                .expect("lm socket run");
        let trace = session.finish();
        assert_eq!(live_worker_threads(), 0, "run `{tag}` leaked runtime threads");
        assert!(!sock.socket.exists(), "run `{tag}` left its socket file behind");
        (history, trace)
    };
    let (h_a, t_a) = lm_run("lm-chaos-a");
    let (h_b, t_b) = lm_run("lm-chaos-b");
    assert_eq!(canonical(&h_a), canonical(&h_b), "lm chaos history not reproducible");
    assert_eq!(t_a.event_lines, t_b.event_lines, "lm chaos trace not reproducible");
    assert!(
        t_a.events.iter().any(|e| e.kind() == "NodeRespawned"),
        "no LSTM node was respawned under demo chaos"
    );
    assert_eq!(h_a.rounds.len(), 8, "chaos must not shorten the lm run");
    assert!(h_a.final_accuracy().is_some(), "the chaotic lm run never evaluated");
}

/// A spawner that panics — any panic on the PS thread unwinds the same
/// way — must not leave the socket file behind.
#[test]
fn a_panicking_ps_removes_its_socket_file() {
    struct NoNode;
    impl NodeHandle for NoNode {
        fn reap(&mut self, _: u32, _: Duration) -> Result<(), TransportError> {
            Ok(())
        }
    }
    struct PanickingSpawner;
    impl NodeSpawner for PanickingSpawner {
        type Handle = NoNode;
        fn spawn(&mut self, _: usize, _: u32) -> Result<NoNode, TransportError> {
            panic!("the spawner fails");
        }
    }
    let (task, devices) = setup_task(282);
    let setup = FlSetup::new(task.as_ref(), devices, TimeModel::default());
    let global = zoo::cnn_mnist(0.12, &mut seeded_rng(283));
    let cfg = FlConfig { rounds: 1, ..Default::default() };
    let sock = SocketRunOptions::new(unique_socket_path("panic"), Vec::new());
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let chaos = ChaosOptions::none();
        run_sockets(&cfg, &setup, global, &SyncMethod::SynFl, &chaos, &sock, &mut PanickingSpawner)
    }));
    assert!(run.is_err(), "the spawner's panic reaches the caller");
    assert!(!sock.socket.exists(), "the panic left {} behind", sock.socket.display());
}
