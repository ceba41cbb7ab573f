//! A peer that breaks the protocol costs its own worker one exclusion
//! and a respawn — never the run, never another worker's round.
//!
//! Worker 1's first node is not the repo's worker at all: it is a raw
//! `UnixStream` peer that speaks frames it encodes itself from
//! `docs/TRANSPORT.md` (nothing of `fl::transport`'s framing is used
//! here) and then misbehaves in one scripted way. The other two workers
//! are ordinary `ThreadNodes`, as is worker 1 once the PS respawns it.
//! No `ChaosPlan` entry predicts any of it: the chaos plane is off.
//!
//! One test function, in its own test binary: `live_worker_threads()`
//! is a process-wide gauge.

use core::time::Duration;
use fedmp::data::{iid_partition, mnist_like};
use fedmp::edgesim::{tx2_profile, ComputeMode, LinkQuality, TimeModel};
use fedmp::fl::{
    live_worker_threads, run_fedmp_sockets, unique_socket_path, ChaosOptions, FedMpOptions,
    FlConfig, FlSetup, ImageTask, NodeHandle, NodeSpawner, SocketRunOptions, ThreadNodes,
    TransportError,
};
use fedmp::nn::zoo;
use fedmp::obs::{RunManifest, TraceEvent, TraceSession};
use fedmp::tensor::seeded_rng;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

// ── the wire format, from docs/TRANSPORT.md ──

const HELLO: u32 = 1;
const SETUP: u32 = 2;
const DISPATCH: u32 = 3;
const UP_MODEL: u32 = 6;
const UP_LOST: u32 = 8;

/// `[magic "FMPT"][kind][json_len][bin_len][FNV-1a-64 of header + json][json][bin]`,
/// integers little-endian.
fn frame(kind: u32, json: &[u8], bin: &[u8]) -> Vec<u8> {
    let mut out = b"FMPT".to_vec();
    for word in [kind, json.len() as u32, bin.len() as u32] {
        out.extend_from_slice(&word.to_le_bytes());
    }
    let mut sum = 0xCBF2_9CE4_8422_2325u64;
    for &b in out.iter().chain(json) {
        sum = (sum ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    out.extend_from_slice(&sum.to_le_bytes());
    out.extend_from_slice(json);
    out.extend_from_slice(bin);
    out
}

/// Reads one frame and returns its kind (`None`: the stream ended).
fn read_kind(stream: &mut UnixStream) -> Option<u32> {
    let mut head = [0u8; 24];
    stream.read_exact(&mut head).ok()?;
    let word = |i: usize| u32::from_le_bytes(head[i..i + 4].try_into().expect("4 bytes"));
    assert_eq!(&head[..4], b"FMPT", "the PS sent a frame without the magic");
    let mut body = vec![0u8; word(8) as usize + word(12) as usize];
    stream.read_exact(&mut body).ok()?;
    Some(word(4))
}

// ── the scripts ──

#[derive(Debug, Clone, Copy, PartialEq)]
enum Script {
    /// Closes right after `Setup`, before any dispatch reaches it.
    CloseAfterSetup,
    /// Closes after its first `Dispatch`, without a word.
    Vanish,
    /// Answers its first `Dispatch` with 64 bytes of `0xAB`.
    Garbage,
    /// Uploads a model whose control JSON claims to be worker 0.
    Impersonate,
    /// Reports its first exchange lost twice, then closes.
    DuplicateLost,
}

impl Script {
    const ALL: [Script; 5] = [
        Script::CloseAfterSetup,
        Script::Vanish,
        Script::Garbage,
        Script::Impersonate,
        Script::DuplicateLost,
    ];

    /// The reason worker 1's round-0 exclusion must carry.
    fn reason(self) -> &'static str {
        match self {
            Script::CloseAfterSetup | Script::Vanish | Script::Garbage => "crashed",
            Script::Impersonate => "protocol",
            Script::DuplicateLost => "dropped",
        }
    }
}

/// Worker 1, generation 0.
fn hostile_peer(socket: &Path, script: Script) {
    let mut stream = UnixStream::connect(socket).expect("the PS is listening before it spawns");
    stream.write_all(&frame(HELLO, br#"{"worker":1}"#, &[])).expect("hello");
    assert_eq!(read_kind(&mut stream), Some(SETUP));
    if script == Script::CloseAfterSetup {
        return;
    }
    assert_eq!(read_kind(&mut stream), Some(DISPATCH));
    let lost = frame(UP_LOST, br#"{"worker":1,"round":0,"outcome":null}"#, &[]);
    let reply = match script {
        Script::CloseAfterSetup | Script::Vanish => return,
        Script::Garbage => vec![0xAB; 64],
        Script::Impersonate => frame(
            UP_MODEL,
            br#"{"worker":0,"round":0,"outcome":{"first_loss":2.0,"last_loss":1.0,"mean_loss":1.5,"samples":16}}"#,
            b"not a model",
        ),
        Script::DuplicateLost => [lost.clone(), lost].concat(),
    };
    stream.write_all(&reply).expect("the PS is still reading");
    if script != Script::DuplicateLost {
        // Stay connected until the PS ends the connection itself. (Not
        // after a mere `UpLost`: a peer that is in protocol and then
        // silent still blocks the PS — ROADMAP 2's watchdog.)
        while matches!(stream.read(&mut [0u8; 4096]), Ok(n) if n > 0) {}
    }
}

// ── a spawner that hands worker 1 to the hostile peer once ──

static LIVE_HOSTILE: AtomicUsize = AtomicUsize::new(0);

struct HostileNodes {
    honest: ThreadNodes,
    socket: PathBuf,
    script: Script,
}

enum Handle {
    Honest(<ThreadNodes as NodeSpawner>::Handle),
    Hostile(Option<JoinHandle<()>>),
}

impl NodeHandle for Handle {
    fn reap(&mut self, attempts: u32, base: Duration) -> Result<(), TransportError> {
        match self {
            Handle::Honest(h) => h.reap(attempts, base),
            Handle::Hostile(join) => {
                if let Some(join) = join.take() {
                    join.join().expect("the hostile peer's own asserts hold");
                }
                Ok(())
            }
        }
    }
}

impl NodeSpawner for HostileNodes {
    type Handle = Handle;

    fn spawn(&mut self, worker: usize, generation: u32) -> Result<Handle, TransportError> {
        if (worker, generation) != (1, 0) {
            return self.honest.spawn(worker, generation).map(Handle::Honest);
        }
        let (socket, script) = (self.socket.clone(), self.script);
        LIVE_HOSTILE.fetch_add(1, Ordering::SeqCst);
        Ok(Handle::Hostile(Some(std::thread::spawn(move || {
            hostile_peer(&socket, script);
            LIVE_HOSTILE.fetch_sub(1, Ordering::SeqCst);
        }))))
    }
}

#[test]
fn a_misbehaving_peer_costs_an_exclusion_not_the_run() {
    let (train, test) = mnist_like(0.1, 300).generate();
    let part = iid_partition(&train, 3, &mut seeded_rng(300));
    let task = Arc::new(ImageTask::new(train, test, part));
    let devices = vec![
        tx2_profile(ComputeMode::Mode0, LinkQuality::Near),
        tx2_profile(ComputeMode::Mode1, LinkQuality::Mid),
        tx2_profile(ComputeMode::Mode3, LinkQuality::Far),
    ];
    let setup = FlSetup::new(task.as_ref(), devices, TimeModel::default());
    let global = zoo::cnn_mnist(0.1, &mut seeded_rng(301));

    for script in Script::ALL {
        // One round: the run ends — and tears down — with the peer's
        // misbehaviour the last thing that happened.
        for rounds in [3, 1] {
            let cfg = FlConfig { rounds, ..Default::default() };
            let sock = SocketRunOptions::new(unique_socket_path("hostile"), Vec::new());
            let mut nodes = HostileNodes {
                honest: ThreadNodes {
                    task: Arc::clone(&task),
                    socket: sock.socket.clone(),
                    connect_attempts: 12,
                    connect_backoff: Duration::from_millis(2),
                },
                socket: sock.socket.clone(),
                script,
            };
            let session =
                TraceSession::capture(&RunManifest::new("hostile", cfg.seed, 3, rounds, 1));
            let run = run_fedmp_sockets(
                &cfg,
                &setup,
                global.clone(),
                &FedMpOptions::default(),
                &ChaosOptions::none(),
                &sock,
                &mut nodes,
            );
            let trace = session.finish();
            let tag = format!("{script:?} over {rounds} round(s)");
            let history = run.unwrap_or_else(|e| panic!("{tag}: the run died with {e}"));

            assert_eq!(history.rounds.len(), rounds, "{tag}");
            let first = &history.rounds[0];
            assert_eq!((first.participants, first.exclusions), (2, 1), "{tag}: round 0");
            // The exclusion is worker 1's, for the reason its script earns.
            let excluded: Vec<(usize, usize, &str)> = trace
                .events
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::WorkerExcluded { round, worker, reason } => {
                        Some((*round, *worker, reason.as_str()))
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(excluded[0], (0, 1, script.reason()), "{tag}");
            assert!(excluded.iter().all(|&(_, worker, _)| worker == 1), "{tag}: {excluded:?}");
            if let Some(last) = history.rounds.get(2) {
                assert_eq!((last.participants, last.exclusions), (3, 0), "{tag}: round 2");
            }

            assert_eq!(live_worker_threads(), 0, "{tag}: leaked runtime threads");
            assert_eq!(LIVE_HOSTILE.load(Ordering::SeqCst), 0, "{tag}: the peer was never reaped");
            assert!(!sock.socket.exists(), "{tag}: the socket file outlived its run");
        }
    }
}
