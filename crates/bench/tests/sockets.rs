//! Multi-process socket acceptance: the protocol over real OS
//! processes, driven through the `fedmp-node` binary.
//!
//! The in-process half of the determinism contract (trace identity
//! with the loop engine, thread-leak gauges) lives in
//! `crates/fl/tests/sockets.rs` over `ThreadNodes`; kernel-dispatch
//! trace counters are process-global, so a `ProcessNodes` run cannot
//! be trace-identical to the loop engine — its workers dispatch their
//! kernels in other processes. What real processes CAN promise, and
//! what this suite pins:
//!
//! - chaos-off history bit-identical to the loop engine (the model
//!   math crosses the socket losslessly), for FedMP and for a baseline
//!   whose workers each run their own local step (FedProx);
//! - seeded packet-chaos runs bit-identical run-to-run, PS trace
//!   stream included;
//! - every child process reaped on the way out.

use fedmp_core::{run_method, run_sockets, spec_blob, ExperimentSpec, Method, TaskKind};
use fedmp_fl::{
    unique_socket_path, ChaosOptions, FaultOptions, FedMpOptions, FedProxOptions, ProcessNodes,
    SocketRunOptions, SyncMethod,
};
use fedmp_obs::{diff, Trace};
use std::path::PathBuf;
use std::process::Command;

const NODE: &str = env!("CARGO_BIN_EXE_fedmp-node");

/// One `fedmp-node --role worker` process per worker, connecting to
/// `sock`.
fn node_spawner(sock: &SocketRunOptions) -> ProcessNodes {
    ProcessNodes {
        program: PathBuf::from(NODE),
        args: vec![
            "--role".to_string(),
            "worker".to_string(),
            "--socket".to_string(),
            sock.socket.display().to_string(),
        ],
    }
}

fn small_spec() -> ExperimentSpec {
    let mut spec = ExperimentSpec::small(TaskKind::CnnMnist);
    spec.workers = 2;
    spec.fl.rounds = 2;
    spec.fl.eval_every = 2;
    spec
}

/// One test function on purpose: the trace session is
/// process-exclusive and captures every in-process event, so the
/// chaos-off identity half and the traced chaos half must not run on
/// concurrent test threads.
///
/// Chaos-off: worker processes spawned from the node binary produce
/// the loop engine's history bit-for-bit — weights travel as exact f32
/// frames and outcomes as round-tripping JSON — for FedMP and for
/// FedProx, whose Setup hands each worker its own τ and μ. Then chaos
/// on, with crash draws forcing real process respawns: two runs of the
/// same seed produce identical histories and identical PS trace
/// streams, and the respawn machinery demonstrably fired.
#[test]
fn process_workers_match_the_loop_engine_and_respawns_are_reproducible() {
    let spec = small_spec();
    let h_loop = run_method(&spec, Method::FedMp);

    let sock = SocketRunOptions::new(unique_socket_path("bench-proc"), spec_blob(&spec));
    let mut spawner = node_spawner(&sock);
    let fedmp = SyncMethod::FedMp(FedMpOptions::default());
    let h_sock = run_sockets(&spec, &fedmp, &ChaosOptions::none(), &sock, &mut spawner)
        .expect("process-node run");
    assert_eq!(
        serde_json::to_string(&h_loop).expect("serialise"),
        serde_json::to_string(&h_sock).expect("serialise"),
        "multi-process history diverged from the loop engine"
    );
    assert!(!sock.socket.exists(), "socket file left behind");

    // ── a baseline over real processes: per-worker local steps
    let sock = SocketRunOptions::new(unique_socket_path("bench-fedprox"), spec_blob(&spec));
    let fedprox = SyncMethod::FedProx(FedProxOptions::default());
    let h_prox =
        run_sockets(&spec, &fedprox, &ChaosOptions::none(), &sock, &mut node_spawner(&sock))
            .expect("FedProx process-node run");
    assert_eq!(
        serde_json::to_string(&run_method(&spec, Method::FedProx)).expect("serialise"),
        serde_json::to_string(&h_prox).expect("serialise"),
        "multi-process FedProx history diverged from the loop engine"
    );
    assert!(!sock.socket.exists(), "socket file left behind");

    // ── chaos on: run-to-run reproducibility over real processes
    let opts = FedMpOptions {
        faults: Some(FaultOptions { fail_prob: 0.2, recover_rounds: 1, ..Default::default() }),
        ..Default::default()
    };
    // demo() crash_prob at the spec seed: crashes are certain enough
    // across 2 workers x 2 rounds to exercise respawn, verified below.
    let chaos = ChaosOptions::demo(spec.seed);

    let run = |tag: &str| {
        let sock = SocketRunOptions::new(unique_socket_path(tag), spec_blob(&spec));
        let mut spawner = node_spawner(&sock);
        let manifest = fedmp_obs::RunManifest::new(
            "FedMP-sockets",
            spec.fl.seed,
            spec.workers,
            spec.fl.rounds,
            1,
        );
        let session = fedmp_obs::TraceSession::capture(&manifest);
        let h = run_sockets(&spec, &SyncMethod::FedMp(opts), &chaos, &sock, &mut spawner)
            .expect("chaos run");
        (h, session.finish())
    };
    let (h_a, t_a) = run("bench-chaos-a");
    let (h_b, t_b) = run("bench-chaos-b");

    assert_eq!(
        serde_json::to_string(&h_a).expect("serialise"),
        serde_json::to_string(&h_b).expect("serialise"),
        "chaos history not reproducible over real processes"
    );
    let d = diff(&t_a, &t_b);
    assert!(!d.is_divergent(), "chaos trace not reproducible: {:?}", d.divergence);
    let kinds: Vec<&str> = t_a.events.iter().map(|e| e.kind()).collect();
    assert!(
        kinds.contains(&"NodeRespawned"),
        "no NodeRespawned: chaos never restarted a worker process"
    );
    assert!(kinds.contains(&"ConnEstablished"), "respawn never re-handshook");
}

/// The CLI surface CI drives: `--role ps` twice on one seed with
/// `--trace`, artifacts identical, exit codes clean.
#[test]
fn node_binary_traced_runs_are_identical() {
    let dir = std::env::temp_dir();
    let a = dir.join(format!("fedmp-node-test-{}-a.jsonl", std::process::id()));
    let b = dir.join(format!("fedmp-node-test-{}-b.jsonl", std::process::id()));
    for out in [&a, &b] {
        let status = Command::new(NODE)
            .args(["--role", "ps", "--workers", "2", "--rounds", "2", "--seed", "7", "--chaos"])
            .arg("--trace")
            .arg(out)
            .status()
            .expect("launch fedmp-node ps");
        assert!(status.success(), "fedmp-node ps exited nonzero");
    }
    let t_a = Trace::load(&a).expect("read trace a");
    let t_b = Trace::load(&b).expect("read trace b");
    let d = diff(&t_a, &t_b);
    assert!(!d.is_divergent(), "node binary traces diverged: {:?}", d.divergence);
    assert!(!t_a.events.is_empty());
    let _ = std::fs::remove_file(&a);
    let _ = std::fs::remove_file(&b);
}
