//! Real socket transport for the PS/worker protocol: the recoverable
//! framed exchange of [`crate::runtime`], carried over Unix-domain
//! sockets between actual OS processes (or in-process threads, for the
//! threaded runtime and tests), with the chaos plane realised as
//! packet-level faults in the framing layer.
//!
//! # Framing
//!
//! Every message is one length-prefixed binary frame:
//!
//! ```text
//! [u32 magic][u32 kind][u32 json_len][u32 bin_len][u64 checksum][json][bin]
//! ```
//!
//! All integers little-endian. The checksum is FNV-1a 64 over the
//! header words and the JSON section **only** — deliberately excluding
//! the binary section, which carries [`crate::wire`] model frames with
//! their own end-to-end checksum. A chaos-corrupted model frame
//! therefore passes framing intact and is detected by the *application*
//! checksum at the PS, driving the retransmit path exactly as the
//! loop engine's codec oracle predicts. Section lengths are capped
//! ([`MAX_SECTION`]), so a length-lying prefix can never trigger an
//! unbounded read or allocation: the decoder reads at most the
//! declared (capped) bytes and returns a typed [`TransportError`].
//!
//! # Fault mapping
//!
//! The seeded [`ChaosPlan`](crate::chaos::ChaosPlan) draws are mapped
//! onto packet-level effects (see `docs/TRANSPORT.md` for the full
//! table): corruption flips a byte of the uplink model payload (the
//! framing checksum excludes it; the wire checksum catches it), a
//! dropped uplink becomes a payload-free marker frame so the lock-step
//! protocol never needs a wall-clock timeout (a dropped downlink is
//! decided PS-side and sends nothing), delays are a virtual-clock
//! penalty applied PS-side (no worker ever sleeps), and
//! crashes become the worker closing its connection without a word —
//! which the PS reads as a connection reset and recovers from by
//! respawning the node next round. It reads *any* closed or unreadable
//! connection that way, planned or not: the peer is identified by the
//! connection a message arrived on, and whatever it does costs its own
//! worker one exclusion and a respawn (`docs/TRANSPORT.md`, "A peer
//! that breaks the protocol").
//!
//! # Determinism
//!
//! The PS is the one round body every FedMP driver runs
//! ([`crate::runtime`]), with the framed exchange over a [`SocketFleet`]
//! whose only nondeterminism (uplink arrival order, connection
//! acceptance order) is confined to the collection barrier, which does
//! no order-sensitive processing. Chaos-off socket runs are therefore
//! bit-identical (history and trace alike) to the loop engine; seeded
//! chaos runs are bit-identical run to run.

use crate::chaos::{backoff, ChaosOptions, ChaosPlan};
use crate::checksum::fnv1a64;
use crate::engine::{
    emit_conn_established, emit_conn_reset, emit_frame_timeout, emit_node_respawned, FlConfig,
    FlSetup,
};
use crate::engines::fedmp::FedMpOptions;
use crate::history::RunHistory;
use crate::local::{LocalOutcome, LocalTrainConfig};
use crate::runtime::{
    link_codecs, run_rounds, FramedExchange, LiveThreadGuard, RoundMethod, RuntimeError,
    UplinkBody, UplinkMsg, WorkerProtocol, WorkerStep,
};
use crate::task::ImageTask;
use crate::wire::LinkCodecs;
use bytes::Bytes;
use core::time::Duration;
use crossbeam::channel::{bounded, Receiver, Sender};
use fedmp_nn::Sequential;
use fedmp_pruning::PrunePlan;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

// ───────────────────────── framing ─────────────────────────

/// Frame magic: `FMPT` little-endian.
pub(crate) const MAGIC: u32 = 0x5450_4D46;

/// Hard cap on either section of a frame (64 MiB). A frame whose
/// length prefix claims more is rejected as [`TransportError::Oversize`]
/// before any allocation — the defence against length-lying prefixes.
pub(crate) const MAX_SECTION: u32 = 1 << 26;

/// Header size in bytes: magic, kind, two section lengths, checksum.
pub(crate) const HEADER_LEN: usize = 4 + 4 + 4 + 4 + 8;

/// Frame kinds, PS → worker then worker → PS.
pub(crate) mod kind {
    /// Worker → PS: first frame on a fresh connection, identifying the
    /// worker index.
    pub const HELLO: u32 = 1;
    /// PS → worker: run configuration and the global architecture,
    /// plus the opaque task blob.
    pub const SETUP: u32 = 2;
    /// PS → worker: one round's pruning plan and sub-model frame.
    pub const DISPATCH: u32 = 3;
    /// PS → worker: resend the cached clean upload.
    pub const RETRANSMIT: u32 = 4;
    /// PS → worker: the run is over; exit cleanly.
    pub const SHUTDOWN: u32 = 5;
    /// Worker → PS: trained model upload (control JSON + wire frame).
    pub const UP_MODEL: u32 = 6;
    /// Worker → PS: retransmitted wire frame only.
    pub const UP_FRAME: u32 = 7;
    /// Worker → PS: the exchange was lost in transit (marker frame).
    pub const UP_LOST: u32 = 8;
    /// Worker → PS: the exchange broke the protocol worker-side (the
    /// dispatch failed structural decoding).
    pub const UP_MALFORMED: u32 = 9;
}

/// Typed framing-layer failures. Never panics, never over-reads: every
/// malformed, truncated or length-lying byte stream maps onto one of
/// these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportError {
    /// The stream ended mid-frame.
    Truncated,
    /// The frame did not start with the `MAGIC` marker.
    BadMagic,
    /// A section length prefix exceeded `MAX_SECTION` (64 MiB).
    Oversize,
    /// The header/JSON checksum did not verify.
    Checksum,
    /// The JSON control section failed to parse, or the kind was
    /// unknown in this direction.
    Malformed,
    /// An underlying socket operation failed.
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Truncated => write!(f, "stream ended mid-frame"),
            TransportError::BadMagic => write!(f, "frame does not start with the FMPT magic"),
            TransportError::Oversize => write!(f, "section length exceeds the 64 MiB cap"),
            TransportError::Checksum => write!(f, "frame header/control checksum mismatch"),
            TransportError::Malformed => write!(f, "frame control section failed to parse"),
            TransportError::Io(kind) => write!(f, "socket I/O failed: {kind:?}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// Which transport operation failed terminally — the payload of
/// [`RuntimeError::Transport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportFault {
    /// Binding the PS listener socket.
    Bind,
    /// Accepting a worker connection (after retry exhaustion).
    Accept,
    /// Connecting to the PS (after retry exhaustion).
    Connect,
    /// Spawning a worker node (process or thread).
    Spawn,
    /// The Hello/Setup handshake.
    Handshake,
    /// The reader side of the fleet failed: the PS's own uplink queue
    /// closed, or a reader thread could not be joined.
    Recv,
    /// Reaping a worker node on teardown or respawn.
    Reap,
}

impl std::fmt::Display for TransportFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            TransportFault::Bind => "bind",
            TransportFault::Accept => "accept",
            TransportFault::Connect => "connect",
            TransportFault::Spawn => "spawn",
            TransportFault::Handshake => "handshake",
            TransportFault::Recv => "recv",
            TransportFault::Reap => "reap",
        };
        write!(f, "{name}")
    }
}

/// Encodes one frame into a fresh buffer.
pub(crate) fn encode_frame(kind: u32, json: &[u8], bin: &[u8]) -> Vec<u8> {
    let mut head = [0u8; HEADER_LEN - 8];
    head[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    head[4..8].copy_from_slice(&kind.to_le_bytes());
    head[8..12].copy_from_slice(&(json.len() as u32).to_le_bytes());
    head[12..16].copy_from_slice(&(bin.len() as u32).to_le_bytes());
    let sum = fnv1a64(&[&head, json]);
    let mut out = Vec::with_capacity(HEADER_LEN + json.len() + bin.len());
    out.extend_from_slice(&head);
    out.extend_from_slice(&sum.to_le_bytes());
    out.extend_from_slice(json);
    out.extend_from_slice(bin);
    out
}

/// Reads exactly one section of `len` bytes, growing the buffer only
/// as bytes actually arrive (a lying length prefix on a truncated
/// stream allocates no more than the stream delivers).
fn read_section<R: Read>(r: &mut R, len: u32) -> Result<Vec<u8>, TransportError> {
    if len > MAX_SECTION {
        return Err(TransportError::Oversize);
    }
    let mut buf = Vec::new();
    let got = r.take(len as u64).read_to_end(&mut buf).map_err(|e| TransportError::Io(e.kind()))?;
    if got < len as usize {
        return Err(TransportError::Truncated);
    }
    Ok(buf)
}

/// One decoded frame: `(kind, json section, bin section)`.
pub(crate) type RawFrame = (u32, Vec<u8>, Vec<u8>);

/// Reads one frame from the stream. `Ok(None)` is a clean end of
/// stream at a frame boundary (the peer closed); any mid-frame end is
/// [`TransportError::Truncated`]. Never reads past the declared
/// (capped) section lengths.
pub(crate) fn read_frame<R: Read>(r: &mut R) -> Result<Option<RawFrame>, TransportError> {
    let mut head = [0u8; HEADER_LEN];
    let mut filled = 0usize;
    while filled < HEADER_LEN {
        let n = match r.read(&mut head[filled..]) {
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(TransportError::Io(e.kind())),
        };
        if n == 0 {
            return if filled == 0 { Ok(None) } else { Err(TransportError::Truncated) };
        }
        filled += n;
    }
    let word = |i: usize| u32::from_le_bytes([head[i], head[i + 1], head[i + 2], head[i + 3]]);
    if word(0) != MAGIC {
        return Err(TransportError::BadMagic);
    }
    let kind = word(4);
    let json_len = word(8);
    let bin_len = word(12);
    let sum = u64::from_le_bytes([
        head[16], head[17], head[18], head[19], head[20], head[21], head[22], head[23],
    ]);
    let json = read_section(r, json_len)?;
    if fnv1a64(&[&head[..16], &json]) != sum {
        return Err(TransportError::Checksum);
    }
    let bin = read_section(r, bin_len)?;
    Ok(Some((kind, json, bin)))
}

/// Writes one frame and flushes.
fn write_frame<W: Write>(
    w: &mut W,
    kind: u32,
    json: &[u8],
    bin: &[u8],
) -> Result<(), TransportError> {
    let buf = encode_frame(kind, json, bin);
    w.write_all(&buf).map_err(|e| TransportError::Io(e.kind()))?;
    w.flush().map_err(|e| TransportError::Io(e.kind()))
}

// ───────────────────────── control messages ─────────────────────────

#[derive(Serialize, Deserialize)]
struct HelloCtl {
    worker: usize,
}

/// Run configuration shipped to a freshly connected worker. The Setup
/// control section is the JSON pair `[SetupCtl, Sequential]`: this
/// configuration, then the global architecture — the one time a
/// model's structure crosses the socket. The task itself travels as
/// the frame's opaque binary blob; the worker's spawner decides how to
/// turn it back into an [`ImageTask`].
#[derive(Serialize, Deserialize)]
struct SetupCtl {
    seed: u64,
    local: LocalTrainConfig,
    chaos: ChaosOptions,
    link: LinkCodecs,
}

/// Control section of a Dispatch: which slice of the architecture the
/// binary section's wire frame fills. No tensor data.
#[derive(Serialize, Deserialize)]
struct DispatchCtl {
    round: usize,
    plan: PrunePlan,
}

#[derive(Serialize, Deserialize)]
struct RoundCtl {
    round: usize,
}

#[derive(Serialize, Deserialize)]
struct UplinkCtl {
    worker: usize,
    round: usize,
    /// Present on first uploads (`UP_MODEL`); retransmits and markers
    /// carry none.
    outcome: Option<LocalOutcome>,
}

fn to_json<T: Serialize>(v: &T) -> Result<Vec<u8>, TransportError> {
    serde_json::to_vec(v).map_err(|_| TransportError::Malformed)
}

/// The Setup control section: the JSON pair `[SetupCtl, Sequential]`,
/// with the architecture's already-encoded JSON spliced in after `ctl`
/// — the same bytes as encoding the pair, without re-encoding the
/// architecture for every node.
fn setup_json(ctl: &SetupCtl, arch_json: &[u8]) -> Result<Vec<u8>, TransportError> {
    let ctl = to_json(ctl)?;
    let mut json = Vec::with_capacity(ctl.len() + arch_json.len() + 3);
    json.push(b'[');
    json.extend_from_slice(&ctl);
    json.push(b',');
    json.extend_from_slice(arch_json);
    json.push(b']');
    Ok(json)
}

fn from_json<T: Deserialize>(bytes: &[u8]) -> Result<T, TransportError> {
    serde_json::from_slice(bytes).map_err(|_| TransportError::Malformed)
}

// ───────────────────────── connection helpers ─────────────────────────

/// Connects to the PS socket with bounded retries on the shared
/// exponential [`backoff`] schedule (the PS may not have bound yet
/// when a freshly spawned node starts).
pub fn connect_with_retry(
    path: &Path,
    attempts: u32,
    base: Duration,
) -> Result<UnixStream, TransportError> {
    let attempts = attempts.max(1);
    let mut last = std::io::ErrorKind::NotFound;
    for attempt in 1..=attempts {
        match UnixStream::connect(path) {
            Ok(s) => return Ok(s),
            Err(e) => last = e.kind(),
        }
        if attempt < attempts {
            std::thread::sleep(backoff(base, attempt));
        }
    }
    Err(TransportError::Io(last))
}

/// Accepts one connection from a non-blocking listener with bounded
/// retries on the shared [`backoff`] schedule.
fn accept_with_retry(
    listener: &UnixListener,
    attempts: u32,
    base: Duration,
) -> Result<UnixStream, TransportError> {
    let attempts = attempts.max(1);
    let mut last = std::io::ErrorKind::WouldBlock;
    for attempt in 1..=attempts {
        match listener.accept() {
            Ok((stream, _)) => {
                // The accepted stream may inherit the listener's
                // non-blocking mode; frame I/O wants blocking.
                stream.set_nonblocking(false).map_err(|e| TransportError::Io(e.kind()))?;
                return Ok(stream);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(e) => last = e.kind(),
        }
        if attempt < attempts {
            std::thread::sleep(backoff(base, attempt));
        }
    }
    Err(TransportError::Io(last))
}

static SOCKET_COUNTER: AtomicUsize = AtomicUsize::new(0);

/// A socket path unique to this process and call site, under the
/// system temporary directory — collision-free across concurrent test
/// processes and repeated runs in one process.
pub fn unique_socket_path(tag: &str) -> PathBuf {
    let n = SOCKET_COUNTER.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!("fedmp-{tag}-{}-{n}.sock", std::process::id()))
}

// ───────────────────────── worker side ─────────────────────────

/// How a worker node's serving loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// The PS sent `Shutdown`: the run completed.
    Shutdown,
    /// The chaos plan crashed this worker: the connection was closed
    /// without a word (the PS reads a reset and respawns the node).
    Crashed,
    /// The PS end went away without a `Shutdown` — teardown race or PS
    /// failure; the worker exits quietly either way.
    HungUp,
}

/// Runs one worker node: connect, handshake, then serve the
/// worker protocol over the socket until shutdown, crash or
/// hang-up. `build_task` turns the Setup frame's opaque blob back into
/// the training task — the node binary parses an `ExperimentSpec`,
/// in-process test nodes just clone a shared task and ignore the blob.
pub fn serve_worker<F>(
    socket: &Path,
    worker: usize,
    connect_attempts: u32,
    connect_backoff: Duration,
    build_task: F,
) -> Result<Served, TransportError>
where
    F: FnOnce(&[u8]) -> Option<ImageTask>,
{
    let mut stream = connect_with_retry(socket, connect_attempts, connect_backoff)?;
    write_frame(&mut stream, kind::HELLO, &to_json(&HelloCtl { worker })?, &[])?;
    let (k, json, blob) = match read_frame(&mut stream)? {
        Some(f) => f,
        None => return Ok(Served::HungUp),
    };
    if k != kind::SETUP {
        return Err(TransportError::Malformed);
    }
    let (setup, arch): (SetupCtl, Sequential) = from_json(&json)?;
    let task = match build_task(&blob) {
        Some(t) => t,
        None => return Err(TransportError::Malformed),
    };
    let plan = crate::chaos::ChaosPlan::new(setup.seed, &setup.chaos);
    let mut proto =
        WorkerProtocol::new(worker, &task, &arch, setup.local, setup.seed, plan, setup.link);
    loop {
        let (k, json, bin) = match read_frame(&mut stream)? {
            Some(f) => f,
            None => return Ok(Served::HungUp),
        };
        let step = match k {
            kind::DISPATCH => {
                let ctl: DispatchCtl = from_json(&json)?;
                proto.on_dispatch(ctl.round, Bytes::from(bin), &ctl.plan)
            }
            kind::RETRANSMIT => {
                let ctl: RoundCtl = from_json(&json)?;
                proto.on_retransmit(ctl.round)
            }
            kind::SHUTDOWN => return Ok(Served::Shutdown),
            _ => return Err(TransportError::Malformed),
        };
        match step {
            WorkerStep::Crash => {
                // A socket crash is a close without a word: drop the
                // stream so the PS reader sees a reset.
                return Ok(Served::Crashed);
            }
            WorkerStep::Reply(msg) => {
                if write_uplink(&mut stream, &msg).is_err() {
                    // The PS already tore the run down — an expected
                    // teardown race, not an error: exit quietly.
                    return Ok(Served::HungUp);
                }
            }
        }
    }
}

/// Serialises one [`UplinkMsg`] as a frame.
fn write_uplink<W: Write>(w: &mut W, msg: &UplinkMsg) -> Result<(), TransportError> {
    let ctl =
        |outcome: Option<LocalOutcome>| UplinkCtl { worker: msg.worker, round: msg.round, outcome };
    match &msg.body {
        UplinkBody::Model { frame, outcome } => {
            write_frame(w, kind::UP_MODEL, &to_json(&ctl(Some(*outcome)))?, frame)
        }
        UplinkBody::Frame { frame } => write_frame(w, kind::UP_FRAME, &to_json(&ctl(None))?, frame),
        UplinkBody::Lost => write_frame(w, kind::UP_LOST, &to_json(&ctl(None))?, &[]),
        UplinkBody::Malformed => write_frame(w, kind::UP_MALFORMED, &to_json(&ctl(None))?, &[]),
        // A crash is realised as a close, never a frame.
        UplinkBody::Crashed => Ok(()),
    }
}

/// Reads the frame that arrived on `worker`'s connection during `round`
/// as an uplink; `None` when it is not one the protocol allows there —
/// unparseable control JSON, an unknown kind, an `UpModel` without its
/// outcome, or a control section naming another worker or round.
fn read_uplink(
    worker: usize,
    round: usize,
    kind: u32,
    json: &[u8],
    bin: Vec<u8>,
) -> Option<UplinkBody> {
    let ctl: UplinkCtl = from_json(json).ok()?;
    if (ctl.worker, ctl.round) != (worker, round) {
        return None;
    }
    match kind {
        kind::UP_MODEL => {
            Some(UplinkBody::Model { frame: Bytes::from(bin), outcome: ctl.outcome? })
        }
        kind::UP_FRAME => Some(UplinkBody::Frame { frame: Bytes::from(bin) }),
        kind::UP_LOST => Some(UplinkBody::Lost),
        kind::UP_MALFORMED => Some(UplinkBody::Malformed),
        _ => None,
    }
}

/// Serialises one dispatch as a frame.
fn write_dispatch<W: Write>(
    w: &mut W,
    round: usize,
    frame: &[u8],
    plan: &PrunePlan,
) -> Result<(), TransportError> {
    let json = to_json(&DispatchCtl { round, plan: plan.clone() })?;
    write_frame(w, kind::DISPATCH, &json, frame)
}

// ───────────────────────── node spawners ─────────────────────────

/// A handle on one live worker node the spawner produced.
pub trait NodeHandle {
    /// Waits for the node to exit, polling on the shared [`backoff`]
    /// schedule; a process node still alive after the attempt budget
    /// is killed outright. Called on respawn and on teardown — every
    /// node is reaped on every exit path.
    fn reap(&mut self, attempts: u32, base: Duration) -> Result<(), TransportError>;
}

/// Launches worker nodes for the socket runtime: real OS processes
/// ([`ProcessNodes`]) or in-process threads ([`ThreadNodes`]).
pub trait NodeSpawner {
    /// The handle type for reaping.
    type Handle: NodeHandle;
    /// Starts the node for `worker`; `generation` counts respawns
    /// (0 for the initial bring-up).
    fn spawn(&mut self, worker: usize, generation: u32) -> Result<Self::Handle, TransportError>;
}

/// Spawns each worker as a real child process: `program` is invoked
/// with `args` plus `--worker <index>`. The `fedmp-node` binary is the
/// intended program; anything speaking the protocol works.
pub struct ProcessNodes {
    /// Executable to launch.
    pub program: PathBuf,
    /// Base arguments (role, socket path, experiment spec, …); the
    /// worker index is appended per spawn.
    pub args: Vec<String>,
}

/// A reapable child process.
pub struct ProcessHandle {
    child: std::process::Child,
}

impl NodeHandle for ProcessHandle {
    fn reap(&mut self, attempts: u32, base: Duration) -> Result<(), TransportError> {
        for attempt in 1..=attempts.max(1) {
            match self.child.try_wait() {
                Ok(Some(_)) => return Ok(()),
                Ok(None) => std::thread::sleep(backoff(base, attempt)),
                Err(e) => return Err(TransportError::Io(e.kind())),
            }
        }
        // Still alive after the budget: kill and reap unconditionally
        // so no child outlives the run.
        let _ = self.child.kill();
        match self.child.wait() {
            Ok(_) => Ok(()),
            Err(e) => Err(TransportError::Io(e.kind())),
        }
    }
}

impl NodeSpawner for ProcessNodes {
    type Handle = ProcessHandle;

    fn spawn(&mut self, worker: usize, _generation: u32) -> Result<Self::Handle, TransportError> {
        std::process::Command::new(&self.program)
            .args(&self.args)
            .arg("--worker")
            .arg(worker.to_string())
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::null())
            .spawn()
            .map(|child| ProcessHandle { child })
            .map_err(|e| TransportError::Io(e.kind()))
    }
}

/// Spawns each worker as an in-process thread running [`serve_worker`]
/// against a shared task — the fast path for tests, exercising the
/// full socket protocol without process startup cost. Threads register
/// in the [`crate::live_worker_threads`] gauge so the leak test covers
/// them.
pub struct ThreadNodes {
    /// The task every node trains on (the Setup blob is ignored).
    pub task: std::sync::Arc<ImageTask>,
    /// PS socket path to connect to.
    pub socket: PathBuf,
    /// Connect retry budget.
    pub connect_attempts: u32,
    /// Base connect retry backoff.
    pub connect_backoff: Duration,
}

/// A reapable node thread.
pub struct ThreadHandle {
    join: Option<std::thread::JoinHandle<()>>,
}

impl NodeHandle for ThreadHandle {
    /// A blocking join — there is no thread kill, and the protocol
    /// guarantees exit (Shutdown, crash, or EOF once the PS shuts its
    /// stream down).
    fn reap(&mut self, _attempts: u32, _base: Duration) -> Result<(), TransportError> {
        match self.join.take().map(std::thread::JoinHandle::join) {
            Some(Err(_)) => Err(TransportError::Io(std::io::ErrorKind::Other)),
            _ => Ok(()),
        }
    }
}

impl NodeSpawner for ThreadNodes {
    type Handle = ThreadHandle;

    fn spawn(&mut self, worker: usize, _generation: u32) -> Result<Self::Handle, TransportError> {
        let task = std::sync::Arc::clone(&self.task);
        let socket = self.socket.clone();
        let attempts = self.connect_attempts;
        let base = self.connect_backoff;
        let join = std::thread::spawn(move || {
            let _guard = LiveThreadGuard::register();
            let _ = serve_worker(&socket, worker, attempts, base, move |_| Some((*task).clone()));
        });
        Ok(ThreadHandle { join: Some(join) })
    }
}

// ───────────────────────── PS side ─────────────────────────

/// Accept retry budget per expected connection, and its base backoff.
const ACCEPT_ATTEMPTS: u32 = 14;
const ACCEPT_BACKOFF: Duration = Duration::from_millis(2);
/// Reap poll budget per node, and its base backoff.
const REAP_ATTEMPTS: u32 = 12;
const REAP_BACKOFF: Duration = Duration::from_millis(2);

/// What a socket run needs beyond the flat engine's arguments: where to
/// listen and what task blob to ship.
#[derive(Debug, Clone)]
pub struct SocketRunOptions {
    /// Unix socket path the PS binds (removed on teardown).
    pub socket: PathBuf,
    /// Opaque task payload shipped in the Setup frame; the node's
    /// builder turns it back into a task ([`ThreadNodes`] ignores it).
    pub task_blob: Vec<u8>,
}

impl SocketRunOptions {
    /// Options for a PS listening on `socket`.
    pub fn new(socket: PathBuf, task_blob: Vec<u8>) -> Self {
        SocketRunOptions { socket, task_blob }
    }
}

/// What one reader thread forwards to the PS: who it reads for — the
/// identity of everything it forwards, whatever a frame claims — and a
/// generation tag, so messages from a connection that was already
/// replaced are ignored.
struct ReaderMsg {
    worker: usize,
    generation: u32,
    /// `None` is the reader's last word: the connection ended (closed
    /// by the worker — crash or exit — or no longer framed).
    frame: Option<RawFrame>,
}

/// The socket fleet the framed exchange drives: per-worker write
/// streams plus one dumb reader thread per connection that forwards raw
/// frames over a channel. Everything order-sensitive — chaos draws,
/// bandit updates, trace emission, aggregation — stays PS-side; the
/// fleet only moves frames and restarts dead workers, and all parsing
/// happens on the PS thread.
pub(crate) struct SocketFleet<'a, S: NodeSpawner> {
    listener: &'a UnixListener,
    opts: &'a SocketRunOptions,
    spawner: &'a mut S,
    seed: u64,
    local: LocalTrainConfig,
    plan: ChaosPlan,
    links: &'a [LinkCodecs],
    /// The global architecture every Setup carries, JSON-encoded once
    /// per fleet (it is the bulk of a Setup frame).
    arch_json: Vec<u8>,
    streams: Vec<Option<UnixStream>>,
    readers: Vec<Option<std::thread::JoinHandle<()>>>,
    nodes: Vec<Option<S::Handle>>,
    /// Connection generation per worker; bumped on every respawn so
    /// stale reader messages are recognisable.
    gens: Vec<u32>,
    tx: Sender<ReaderMsg>,
    rx: Receiver<ReaderMsg>,
}

impl<'a, S: NodeSpawner> SocketFleet<'a, S> {
    fn new(
        listener: &'a UnixListener,
        opts: &'a SocketRunOptions,
        spawner: &'a mut S,
        cfg: &FlConfig,
        plan: ChaosPlan,
        links: &'a [LinkCodecs],
        arch: &Sequential,
    ) -> Result<Self, RuntimeError> {
        let arch_json = to_json(arch)
            .map_err(|_| RuntimeError::Transport { worker: 0, fault: TransportFault::Handshake })?;
        let workers = links.len();
        // Readers block on a full channel until the PS drains it in the
        // collection barrier; the capacity only bounds buffering.
        let (tx, rx) = bounded(workers.max(1) * 4);
        Ok(SocketFleet {
            listener,
            opts,
            spawner,
            seed: cfg.seed,
            local: cfg.local,
            plan,
            links,
            arch_json,
            streams: (0..workers).map(|_| None).collect(),
            readers: (0..workers).map(|_| None).collect(),
            nodes: (0..workers).map(|_| None).collect(),
            gens: vec![0; workers],
            tx,
            rx,
        })
    }

    fn fault(&self, worker: usize, fault: TransportFault) -> RuntimeError {
        RuntimeError::Transport { worker, fault }
    }

    /// Sends the Setup frame for `worker` over its stream.
    fn send_setup(&mut self, worker: usize) -> Result<(), TransportError> {
        let ctl = SetupCtl {
            seed: self.seed,
            local: self.local,
            chaos: *self.plan.options(),
            link: self.links[worker],
        };
        let json = setup_json(&ctl, &self.arch_json)?;
        match self.streams[worker].as_mut() {
            Some(s) => write_frame(s, kind::SETUP, &json, &self.opts.task_blob),
            None => Err(TransportError::Io(std::io::ErrorKind::NotConnected)),
        }
    }

    /// Spawns the reader thread for `worker`'s current connection.
    fn spawn_reader(&mut self, worker: usize) -> Result<(), TransportError> {
        let stream = match self.streams[worker].as_ref() {
            Some(s) => s.try_clone().map_err(|e| TransportError::Io(e.kind()))?,
            None => return Err(TransportError::Io(std::io::ErrorKind::NotConnected)),
        };
        let tx = self.tx.clone();
        let generation = self.gens[worker];
        let join = std::thread::spawn(move || {
            let _guard = LiveThreadGuard::register();
            let mut stream = stream;
            loop {
                let frame = read_frame(&mut stream).ok().flatten();
                let last = frame.is_none();
                if tx.send(ReaderMsg { worker, generation, frame }).is_err() || last {
                    break;
                }
            }
        });
        self.readers[worker] = Some(join);
        Ok(())
    }

    /// Accepts one pending connection and returns the Hello it opens
    /// with.
    fn accept_hello(&mut self) -> Result<(UnixStream, usize), TransportError> {
        let mut stream = accept_with_retry(self.listener, ACCEPT_ATTEMPTS, ACCEPT_BACKOFF)?;
        match read_frame(&mut stream)? {
            Some((k, json, _)) if k == kind::HELLO => {
                let hello: HelloCtl = from_json(&json)?;
                Ok((stream, hello.worker))
            }
            _ => Err(TransportError::Malformed),
        }
    }

    /// Initial bring-up: spawn all nodes, accept all connections
    /// (order is arbitrary; Hellos identify workers), ship Setups and
    /// start readers. Emits no trace events — a chaos-off socket trace
    /// must be byte-identical to the loop engine's.
    fn bring_up(&mut self) -> Result<(), RuntimeError> {
        let workers = self.links.len();
        for w in 0..workers {
            let node =
                self.spawner.spawn(w, 0).map_err(|_| self.fault(w, TransportFault::Spawn))?;
            self.nodes[w] = Some(node);
        }
        for _ in 0..workers {
            let (stream, w) =
                self.accept_hello().map_err(|_| self.fault(0, TransportFault::Accept))?;
            if w >= workers || self.streams[w].is_some() {
                return Err(self.fault(w.min(workers.saturating_sub(1)), TransportFault::Handshake));
            }
            self.streams[w] = Some(stream);
        }
        for w in 0..workers {
            self.send_setup(w).map_err(|_| self.fault(w, TransportFault::Handshake))?;
            self.spawn_reader(w).map_err(|_| self.fault(w, TransportFault::Handshake))?;
        }
        Ok(())
    }

    /// Closes `worker`'s connection for both ends: a shutdown, not just
    /// a dropped handle, so the reader's clone reads end-of-stream (and
    /// its thread can be joined) even while the peer holds its end open.
    fn close(&mut self, worker: usize) {
        if let Some(s) = self.streams[worker].take() {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Tears the whole fleet down: best-effort Shutdown to every live
    /// worker, close every stream, reap every node, join every reader.
    /// Runs on every exit path; returns the first failure but never
    /// stops early — every socket is closed and every child reaped
    /// regardless.
    fn teardown(&mut self) -> Result<(), RuntimeError> {
        let mut first: Option<RuntimeError> = None;
        for w in 0..self.streams.len() {
            if let Some(s) = self.streams[w].as_mut() {
                // The worker exits on Shutdown (or on the end of stream
                // that follows it).
                let _ = write_frame(s, kind::SHUTDOWN, b"{}", &[]);
            }
            self.close(w);
        }
        for w in 0..self.nodes.len() {
            if let Some(mut node) = self.nodes[w].take() {
                if node.reap(REAP_ATTEMPTS, REAP_BACKOFF).is_err() {
                    first.get_or_insert(self.fault(w, TransportFault::Reap));
                }
            }
        }
        for w in 0..self.readers.len() {
            if let Some(join) = self.readers[w].take() {
                if join.join().is_err() {
                    first.get_or_insert(self.fault(w, TransportFault::Recv));
                }
            }
        }
        match first {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Restarts a crashed worker before the round begins: respawns its
    /// node, accepts the reconnect and sends a fresh Setup.
    /// Transport-level trace events (`NodeRespawned`,
    /// `ConnEstablished`) are emitted here; the exchange emits the
    /// `WorkerRejoined` that follows.
    pub(crate) fn respawn(&mut self, round: usize, worker: usize) -> Result<(), RuntimeError> {
        self.gens[worker] += 1;
        let generation = self.gens[worker];
        emit_node_respawned(round, worker, generation);
        // Old connection first: close it, reap the dead node, join its
        // reader.
        self.close(worker);
        if let Some(mut node) = self.nodes[worker].take() {
            node.reap(REAP_ATTEMPTS, REAP_BACKOFF)
                .map_err(|_| self.fault(worker, TransportFault::Reap))?;
        }
        if let Some(join) = self.readers[worker].take() {
            join.join().map_err(|_| self.fault(worker, TransportFault::Recv))?;
        }
        let node = self
            .spawner
            .spawn(worker, generation)
            .map_err(|_| self.fault(worker, TransportFault::Spawn))?;
        self.nodes[worker] = Some(node);
        // Only the respawned node is connecting, so the next Hello is
        // its — `attempts` below counts accepted connections consumed
        // until the matching Hello (deterministically 1), not poll
        // iterations, which vary with host timing.
        let (stream, w) =
            self.accept_hello().map_err(|_| self.fault(worker, TransportFault::Accept))?;
        if w != worker {
            return Err(self.fault(worker, TransportFault::Handshake));
        }
        self.streams[worker] = Some(stream);
        self.send_setup(worker).map_err(|_| self.fault(worker, TransportFault::Handshake))?;
        self.spawn_reader(worker).map_err(|_| self.fault(worker, TransportFault::Handshake))?;
        emit_conn_established(round, worker, 1);
        Ok(())
    }

    /// Sends this round's dispatch. `false`: the worker's link would
    /// not take it — the exchange treats that as the link being gone.
    #[must_use]
    pub(crate) fn dispatch(
        &mut self,
        round: usize,
        worker: usize,
        frame: Bytes,
        plan: &PrunePlan,
    ) -> bool {
        self.streams[worker]
            .as_mut()
            .is_some_and(|s| write_dispatch(s, round, &frame, plan).is_ok())
    }

    /// Requests a retransmission of the worker's cached clean upload;
    /// `false` as for [`SocketFleet::dispatch`].
    #[must_use]
    pub(crate) fn retransmit(&mut self, round: usize, worker: usize) -> bool {
        let sent = |s| write_frame(s, kind::RETRANSMIT, &to_json(&RoundCtl { round })?, &[]);
        self.streams[worker].as_mut().is_some_and(|s| sent(s).is_ok())
    }

    /// Blocks for the next uplink message of `round`'s collection
    /// barrier. `worker` names the connection it arrived on, never what
    /// the message claims; a connection that closed or could not be
    /// read is reported as that worker's [`UplinkBody::Crashed`] /
    /// [`UplinkBody::Malformed`], not as an error.
    pub(crate) fn recv(&mut self, round: usize) -> Result<UplinkMsg, RuntimeError> {
        loop {
            let ReaderMsg { worker, generation, frame } =
                self.rx.recv().map_err(|_| self.fault(0, TransportFault::Recv))?;
            if generation != self.gens[worker] {
                continue; // stale connection
            }
            let body = match frame {
                Some((k, json, bin)) => {
                    read_uplink(worker, round, k, &json, bin).unwrap_or(UplinkBody::Malformed)
                }
                // Closed without a word — how a planned crash manifests,
                // and handled no differently when nothing planned it.
                None => {
                    self.close(worker);
                    UplinkBody::Crashed
                }
            };
            return Ok(UplinkMsg { worker, round, body });
        }
    }

    /// Post-barrier notification that `worker`'s contribution was
    /// excluded for `reason`: emits `FrameTimeout`/`ConnReset`
    /// immediately before the round body's `WorkerExcluded`.
    pub(crate) fn note_excluded(&mut self, round: usize, worker: usize, reason: &str) {
        match reason {
            // A dropped exchange surfaced as a frame that never
            // arrived; direction from the same draw both ends used.
            "dropped" => {
                let d = self.plan.draw(round, worker);
                emit_frame_timeout(round, worker, if d.drop_down { "down" } else { "up" });
            }
            // A crashed worker surfaced as a connection reset.
            "crashed" => emit_conn_reset(round, worker),
            // Corruption, protocol and deadline exclusions are
            // application-level outcomes with their own events; nothing
            // transport-level to add.
            _ => {}
        }
    }
}

/// Runs FedMP over real Unix-domain sockets: the PS in this process,
/// one node per worker from `spawner` (threads or real child
/// processes), the recovery policy of `fl::barrier`, and the chaos plan
/// realised as packet-level faults. [`crate::run_fedmp_threaded_chaos`]
/// is this over [`ThreadNodes`].
///
/// With `chaos` off the history **and trace stream** are bit-identical
/// to [`crate::run_fedmp`] under the same options; under seeded chaos,
/// runs are bit-identical to each other. On every exit path — success
/// or typed error — every socket is closed, every node reaped and
/// every reader joined, and the socket file is removed.
///
/// # Errors
/// [`RuntimeError::Transport`] when the fleet cannot be brought up,
/// respawned or torn down; [`RuntimeError::CorruptFrame`] when a
/// checksum-verified upload fails to decode. Nothing one connected peer
/// sends, and no way it disconnects, is an error: it costs that worker
/// the round.
pub fn run_fedmp_sockets<S: NodeSpawner>(
    cfg: &FlConfig,
    setup: &FlSetup<'_>,
    global: Sequential,
    opts: &FedMpOptions,
    chaos: &ChaosOptions,
    sock: &SocketRunOptions,
    spawner: &mut S,
) -> Result<RunHistory, RuntimeError> {
    // A stale socket file from a crashed previous run would make bind
    // fail; removing a path nothing listens on is safe.
    let _ = std::fs::remove_file(&sock.socket);
    let listener = match UnixListener::bind(&sock.socket) {
        Ok(l) => l,
        Err(_) => return Err(RuntimeError::Transport { worker: 0, fault: TransportFault::Bind }),
    };
    let result = (|| -> Result<RunHistory, RuntimeError> {
        listener
            .set_nonblocking(true)
            .map_err(|_| RuntimeError::Transport { worker: 0, fault: TransportFault::Bind })?;
        let plan = ChaosPlan::new(cfg.seed, chaos);
        let links = link_codecs(setup, opts);
        let mut fleet = SocketFleet::new(&listener, sock, spawner, cfg, plan, &links, &global)?;
        let run = fleet.bring_up().and_then(|_| {
            let mut framed = FramedExchange::new(&mut fleet, plan, setup.workers());
            let method = RoundMethod::fedmp(cfg, setup.workers(), opts);
            run_rounds(cfg, setup, global, opts, method, chaos, &mut framed)
        });
        // Teardown runs on BOTH exit paths; a run error outranks a
        // teardown error.
        let td = fleet.teardown();
        match run {
            Ok(history) => td.map(|_| history),
            Err(e) => Err(e),
        }
    })();
    let _ = std::fs::remove_file(&sock.socket);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::Cursor;

    fn roundtrip(kind_: u32, json: &[u8], bin: &[u8]) -> (u32, Vec<u8>, Vec<u8>) {
        let buf = encode_frame(kind_, json, bin);
        let mut cur = Cursor::new(buf);
        read_frame(&mut cur).expect("frame decodes").expect("frame present")
    }

    #[test]
    fn frames_round_trip_every_kind() {
        for k in [
            kind::HELLO,
            kind::SETUP,
            kind::DISPATCH,
            kind::RETRANSMIT,
            kind::SHUTDOWN,
            kind::UP_MODEL,
            kind::UP_FRAME,
            kind::UP_LOST,
            kind::UP_MALFORMED,
        ] {
            let json = format!("{{\"kind\":{k}}}").into_bytes();
            let bin = vec![k as u8; (k as usize) * 7];
            let (gk, gj, gb) = roundtrip(k, &json, &bin);
            assert_eq!(gk, k);
            assert_eq!(gj, json);
            assert_eq!(gb, bin);
        }
    }

    #[test]
    fn empty_stream_is_a_clean_end() {
        let mut cur = Cursor::new(Vec::<u8>::new());
        assert_eq!(read_frame(&mut cur).expect("clean end"), None);
    }

    #[test]
    fn two_frames_back_to_back_both_decode() {
        let mut buf = encode_frame(kind::HELLO, b"{\"worker\":3}", &[]);
        buf.extend_from_slice(&encode_frame(kind::UP_LOST, b"{}", b"tail"));
        let mut cur = Cursor::new(buf);
        let (k1, _, _) = read_frame(&mut cur).expect("ok").expect("first");
        let (k2, _, b2) = read_frame(&mut cur).expect("ok").expect("second");
        assert_eq!((k1, k2), (kind::HELLO, kind::UP_LOST));
        assert_eq!(b2, b"tail");
        assert_eq!(read_frame(&mut cur).expect("clean end"), None);
    }

    #[test]
    fn oversize_length_prefix_is_rejected_before_reading() {
        let mut buf = encode_frame(kind::HELLO, b"{}", &[]);
        // Lie: json_len far beyond the cap.
        buf[8..12].copy_from_slice(&(MAX_SECTION + 1).to_le_bytes());
        let mut cur = Cursor::new(buf);
        assert_eq!(read_frame(&mut cur), Err(TransportError::Oversize));
    }

    #[test]
    fn lying_length_prefix_on_a_short_stream_truncates_not_hangs() {
        let mut buf = encode_frame(kind::HELLO, b"{\"worker\":0}", b"abc");
        // Claim more binary bytes than the stream carries.
        buf[12..16].copy_from_slice(&1000u32.to_le_bytes());
        // bin_len is in the summed header, so fix the checksum to
        // isolate the truncation path.
        let sum = fnv1a64(&[&buf[..16], b"{\"worker\":0}"]);
        buf[16..24].copy_from_slice(&sum.to_le_bytes());
        let mut cur = Cursor::new(buf);
        assert_eq!(read_frame(&mut cur), Err(TransportError::Truncated));
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut buf = encode_frame(kind::HELLO, b"{}", &[]);
        buf[0] ^= 0xFF;
        let mut cur = Cursor::new(buf);
        assert_eq!(read_frame(&mut cur), Err(TransportError::BadMagic));
    }

    #[test]
    fn corrupting_the_binary_section_passes_framing() {
        // The framing checksum deliberately excludes the binary
        // payload: that is the application wire frame, whose own
        // checksum drives the retransmit path.
        let mut buf = encode_frame(kind::UP_MODEL, b"{\"worker\":1}", b"model-bytes");
        let last = buf.len() - 1;
        buf[last] ^= 0xFF;
        let mut cur = Cursor::new(buf);
        let (_, _, bin) = read_frame(&mut cur).expect("ok").expect("frame");
        assert_ne!(bin, b"model-bytes");
    }

    #[test]
    fn dispatch_control_section_carries_no_tensor_data() {
        use fedmp_nn::zoo;
        use fedmp_pruning::{extract_sequential, plan_sequential};
        use fedmp_tensor::seeded_rng;
        // One plan cut from two differently initialised globals: the
        // sub-models differ only in weight values.
        let mut rng = seeded_rng(280);
        let a = zoo::cnn_mnist(0.25, &mut rng);
        let b = zoo::cnn_mnist(0.25, &mut rng);
        let plan = plan_sequential(&a, (1, 28, 28), 0.4);
        let sections = [&a, &b].map(|m| {
            let frame = crate::wire::encode_state(&extract_sequential(m, &plan).state());
            let mut buf = Vec::new();
            write_dispatch(&mut buf, 3, &frame, &plan).expect("dispatch encodes");
            let (k, json, bin) = read_frame(&mut Cursor::new(buf)).expect("ok").expect("frame");
            assert_eq!(k, kind::DISPATCH);
            assert_eq!(bin, frame.to_vec(), "the binary section is exactly the wire frame");
            (json, bin)
        });
        assert_ne!(sections[0].1, sections[1].1, "the two sub-models must differ");
        assert_eq!(sections[0].0, sections[1].0, "control section depends on weight values");
        assert!(
            sections[0].0.len() * 4 < sections[0].1.len(),
            "control section {} B vs model frame {} B",
            sections[0].0.len(),
            sections[0].1.len()
        );
    }

    #[test]
    fn spliced_setup_section_is_the_encoded_pair() {
        use fedmp_nn::zoo;
        use fedmp_tensor::seeded_rng;
        let arch = zoo::cnn_mnist(0.25, &mut seeded_rng(282));
        let ctl = SetupCtl {
            seed: 7,
            local: LocalTrainConfig::default(),
            chaos: ChaosOptions::demo(3),
            link: crate::wire::CompressionPolicy::adaptive().select(&fedmp_edgesim::tx2_profile(
                fedmp_edgesim::ComputeMode::Mode3,
                fedmp_edgesim::LinkQuality::Far,
            )),
        };
        let spliced = setup_json(&ctl, &to_json(&arch).expect("arch encodes")).expect("splice");
        assert_eq!(spliced, to_json(&(&ctl, &arch)).expect("pair encodes"));
        // What `serve_worker` parses it back into.
        let (back, model): (SetupCtl, Sequential) = from_json(&spliced).expect("pair decodes");
        assert_eq!((back.seed, back.chaos, back.link), (ctl.seed, ctl.chaos, ctl.link));
        assert_eq!(to_json(&model).expect("re-encodes"), to_json(&arch).expect("arch encodes"));
    }

    #[test]
    fn connect_with_retry_fails_typed_on_a_dead_path() {
        let path = unique_socket_path("noone");
        let err = connect_with_retry(&path, 2, Duration::from_millis(1));
        assert!(matches!(err, Err(TransportError::Io(_))));
    }

    #[test]
    fn unique_socket_paths_are_unique() {
        assert_ne!(unique_socket_path("a"), unique_socket_path("a"));
    }

    /// `0usize..256` cast down, so every byte value (255 included) is
    /// reachable with the stand-in's range strategies.
    fn to_bytes(raw: &[usize]) -> Vec<u8> {
        raw.iter().map(|&b| b as u8).collect()
    }

    proptest! {
        /// Arbitrary byte soup never panics the decoder and never
        /// yields anything but a typed result.
        #[test]
        fn arbitrary_bytes_decode_to_typed_results(
            raw in proptest::collection::vec(0usize..256, 0..2048),
        ) {
            let mut cur = Cursor::new(to_bytes(&raw));
            let _ = read_frame(&mut cur);
        }

        /// Truncating a valid frame anywhere strictly inside it yields
        /// `Truncated` (or a checksum error if the cut changed a
        /// length's meaning) — never a success, never a panic.
        #[test]
        fn truncation_never_decodes(
            json in proptest::collection::vec(0usize..256, 0..128),
            bin in proptest::collection::vec(0usize..256, 0..128),
            frac in 0.0f64..1.0,
        ) {
            let buf = encode_frame(kind::DISPATCH, &to_bytes(&json), &to_bytes(&bin));
            let cut = (((buf.len() as f64) * frac) as usize).min(buf.len() - 1);
            let mut cur = Cursor::new(buf[..cut].to_vec());
            match read_frame(&mut cur) {
                Ok(None) => prop_assert_eq!(cut, 0),
                Ok(Some(_)) => prop_assert!(false, "truncated frame decoded"),
                Err(_) => {}
            }
        }

        /// Flipping any single bit of the header or JSON section is
        /// always detected (magic, caps or checksum); the frame never
        /// decodes to different content silently.
        #[test]
        fn header_and_json_bitflips_are_detected(
            json in proptest::collection::vec(0usize..256, 1..96),
            bin in proptest::collection::vec(0usize..256, 0..32),
            byte_idx in 0usize..1024,
            bit in 0u8..8,
        ) {
            let buf = encode_frame(kind::UP_MODEL, &to_bytes(&json), &to_bytes(&bin));
            let guarded = HEADER_LEN + json.len();
            let idx = byte_idx % guarded;
            let mut bad = buf.clone();
            bad[idx] ^= 1 << bit;
            let mut cur = Cursor::new(bad);
            match read_frame(&mut cur) {
                // A flip in a length field can only shrink/grow reads,
                // which the checksum (or caps/EOF) catches.
                Ok(Some(_)) => prop_assert!(false, "bit-flipped frame decoded"),
                Ok(None) => prop_assert!(false, "bit-flipped frame read as clean end"),
                Err(_) => {}
            }
        }

        /// The decoder never over-reads: after a successful decode the
        /// cursor sits exactly at the end of the frame.
        #[test]
        fn decoder_consumes_exactly_one_frame(
            json in proptest::collection::vec(0usize..256, 0..96),
            bin in proptest::collection::vec(0usize..256, 0..96),
            tail in proptest::collection::vec(0usize..256, 0..64),
        ) {
            let json = to_bytes(&json);
            let bin = to_bytes(&bin);
            let frame = encode_frame(kind::SETUP, &json, &bin);
            let frame_len = frame.len() as u64;
            let mut buf = frame;
            buf.extend_from_slice(&to_bytes(&tail));
            let mut cur = Cursor::new(buf);
            let (_, gj, gb) = read_frame(&mut cur).expect("ok").expect("frame");
            prop_assert_eq!(gj, json);
            prop_assert_eq!(gb, bin);
            prop_assert_eq!(cur.position(), frame_len);
        }
    }
}
