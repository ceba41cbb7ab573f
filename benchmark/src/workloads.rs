//! The four workloads: how each builds its inputs from the seed, what
//! one timed repeat does, and what it leaves behind to be checked.
//!
//! Every workload is a closed loop driven from the one harness thread:
//! each engine call returns before the next starts. A repeat is the
//! same fixed work every time, so its history hash must never change
//! within a process.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fedmp_core::{BuiltExperiment, ExperimentSpec, TaskKind};
use fedmp_edgesim::Population;
use fedmp_fl::{
    average_states, decode_state_v2, encode_state_v2, frame_checksum_ok, live_worker_threads,
    run_fedmp, run_fedmp_hier, run_fedmp_sockets, run_fedmp_threaded, ChaosOptions, Codec,
    CompressionPolicy, ErrorFeedback, ExactState, FedMpOptions, FlConfig, FlSetup, HierSetup,
    HierarchyOptions, ImageTask, LinkCodecs, RunHistory, SocketRunOptions, ThreadNodes,
};
use fedmp_nn::{Sequential, StateEntry};
use fedmp_tensor::{seeded_rng, standard_normal_vec};

use crate::metrics::CODECS;

/// Eval accuracy the `*_to_target` metrics wait for (the paper's own
/// headline is time to a target accuracy).
pub const TARGET_ACCURACY: f32 = 0.90;
pub const POPULATION: u64 = 100_000;
pub const COHORT: usize = 32;
pub const SHARDS: usize = 4;
pub const EDGES: usize = 2;
/// Every training workload prunes at this one ratio (the middle of
/// E-UCB's arm space [0, 0.8)) instead of letting the bandit pick.
/// Adaptive ratios make a run's work a random variable of the seed — cost
/// goes roughly as (1-ratio)^2 — and the seed-to-seed spread that gave
/// (`cpu_s_per_round` 5-12 % on `flat_loop`, 12-31 % on `flat_sockets`,
/// `round_wall_s` 34 % on `hier_compressed`) is more than a regression
/// bound of at most 25 % can sit clear of. The bandit itself costs
/// microseconds per round (`bandit.select_observe_us`).
pub const PRUNE_RATIO: f32 = 0.4;
/// Shard reducers and edges of the `ps_ingest` fan-in tree.
pub const INGEST_SHARDS: usize = 8;
pub const INGEST_EDGES: usize = 2;
/// Distinct perturbed client states `ps_ingest` cycles through.
pub const INGEST_POOL: usize = 64;
/// Clients per codec whose exact mean is checked against
/// `average_states`.
pub const INGEST_CHECK_PREFIX: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FlatLoop,
    FlatSockets,
    HierCompressed,
    PsIngest,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::FlatLoop, Workload::FlatSockets, Workload::HierCompressed, Workload::PsIngest];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FlatLoop => "flat_loop",
            Workload::FlatSockets => "flat_sockets",
            Workload::HierCompressed => "hier_compressed",
            Workload::PsIngest => "ps_ingest",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The fixed size of one repeat. `full` is what every recorded number
/// uses; `smoke` exercises the same code in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Rounds per engine run (`flat_*`).
    pub flat_rounds: usize,
    /// Rounds per engine run (`hier_compressed`).
    pub hier_rounds: usize,
    /// Phase A of `ps_ingest`: encodes per codec.
    pub encode_clients: usize,
    /// Phase B of `ps_ingest`: frames ingested per codec.
    pub ingest_clients: usize,
    /// Timed repeats never go below this, whatever `--seconds` says.
    pub min_repeats: usize,
    /// How often set-up is rebuilt and timed at the least (`setup_s` is
    /// the median) ...
    pub setup_repeats: usize,
    /// ... and for how many wall seconds a cheap set-up goes on being
    /// rebuilt beyond that, up to three times as often.
    pub setup_budget_s: f64,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        flat_rounds: 16,
        hier_rounds: 8,
        encode_clients: 80,
        ingest_clients: 240,
        min_repeats: 3,
        setup_repeats: 5,
        setup_budget_s: 2.0,
    };
    pub const SMOKE: Sizes = Sizes {
        flat_rounds: 2,
        hier_rounds: 2,
        encode_clients: 10,
        ingest_clients: 40,
        min_repeats: 1,
        setup_repeats: 1,
        setup_budget_s: 0.0,
    };
}

/// What one repeat did, in the units the end-to-end metrics divide by.
#[derive(Default)]
pub struct Outcome {
    /// FNV-1a-64 of the serialised history (finalised means for
    /// `ps_ingest`): equal across repeats or the run is wrong.
    pub hash: u64,
    /// Rounds (`ps_ingest`: codec passes) the repeat's wall is split over.
    pub rounds: usize,
    /// Client models folded into the global model.
    pub client_updates: usize,
    /// Training samples processed (0 on `ps_ingest`).
    pub train_samples: usize,
    /// Operations attempted / failed (rounds, frames).
    pub attempted: usize,
    pub failed: usize,
    pub history: Option<RunHistory>,
    pub ingest: Option<IngestPhases>,
}

/// Phase timings of one `ps_ingest` repeat. Encode and ingest are timed
/// apart so a decode win that taxes encode shows.
#[derive(Debug, Clone, Copy)]
pub struct IngestPhases {
    pub encode_s: f64,
    /// Dense-f32 bytes fed to the encoders.
    pub encode_bytes: usize,
    pub ingest_s: f64,
    /// Frame bytes phase B consumed.
    pub ingest_bytes: usize,
}

pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xCBF2_9CE4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3))
}

pub fn history_hash(h: &RunHistory) -> u64 {
    fnv1a64(serde_json::to_string(h).expect("history serialises").as_bytes())
}

fn state_hash(state: &[StateEntry], seed: u64) -> u64 {
    state
        .iter()
        .flat_map(|e| e.tensor.data())
        .fold(seed, |h, v| (h ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01B3))
}

/// The benchmark's own directory, relative to the working directory
/// when it lies beneath it (Unix socket paths are capped near 100
/// bytes, and the driver's checkout path may be long).
pub fn bench_dir() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    match std::env::current_dir() {
        Ok(cwd) => {
            manifest.strip_prefix(&cwd).map_or_else(|_| manifest.to_path_buf(), PathBuf::from)
        }
        Err(_) => manifest.to_path_buf(),
    }
}

/// Where sockets, spans and result files go (git-ignored).
pub fn out_dir() -> PathBuf {
    let dir = bench_dir().join("out");
    std::fs::create_dir_all(&dir).expect("benchmark/out is creatable");
    dir
}

fn experiment(task: TaskKind, seed: u64, rounds: usize, eval_every: usize) -> ExperimentSpec {
    let mut spec = ExperimentSpec::bench(task);
    spec.seed = seed;
    spec.fl.seed = seed;
    spec.fl.rounds = rounds;
    spec.fl.eval_every = eval_every;
    spec
}

/// Summarises an engine run. A round fails when it folded fewer clients
/// than were asked for.
fn history_outcome(h: RunHistory, cohort: usize, batch_samples: usize) -> Outcome {
    let client_updates: usize = h.rounds.iter().map(|r| r.participants).sum();
    Outcome {
        hash: history_hash(&h),
        rounds: h.rounds.len(),
        client_updates,
        train_samples: client_updates * batch_samples,
        attempted: h.rounds.len(),
        failed: h.rounds.iter().filter(|r| r.participants < cohort).count(),
        history: Some(h),
        ..Default::default()
    }
}

fn engine_failed(rounds: usize, what: &str) -> Outcome {
    eprintln!("FAIL: engine returned an error: {what}");
    Outcome { rounds, attempted: rounds, failed: rounds, ..Default::default() }
}

// ---- flat_loop / flat_sockets ----------------------------------------------

/// `ExperimentSpec::bench(CnnMnist)`: 10 workers, Medium heterogeneity,
/// width 0.25, evaluated every round, every worker pruned at
/// [`PRUNE_RATIO`], dense wire.
pub struct FlatInputs {
    pub spec: ExperimentSpec,
    pub built: BuiltExperiment,
    /// The task as the socket nodes share it.
    pub task: Arc<ImageTask>,
}

static SOCKET_SEQ: AtomicUsize = AtomicUsize::new(0);

impl FlatInputs {
    pub fn build(seed: u64, sizes: &Sizes) -> Self {
        let spec = experiment(TaskKind::CnnMnist, seed, sizes.flat_rounds, 1);
        let built = spec.build();
        let task = Arc::new(built.task.clone());
        FlatInputs { spec, built, task }
    }

    pub fn setup(&self) -> FlSetup<'_> {
        FlSetup::with_cost_scale(
            &self.built.task,
            self.built.devices.clone(),
            self.built.time,
            self.built.cost_scale,
        )
    }

    fn options() -> FedMpOptions {
        FedMpOptions { fixed_ratio: Some(PRUNE_RATIO), ..Default::default() }
    }

    fn batch_samples(&self) -> usize {
        self.spec.fl.local.tau * self.spec.fl.local.batch
    }

    fn outcome(&self, h: RunHistory) -> Outcome {
        history_outcome(h, self.spec.workers, self.batch_samples())
    }

    pub fn run_loop(&self) -> Outcome {
        let h = run_fedmp(&self.spec.fl, &self.setup(), self.built.model.clone(), &Self::options());
        self.outcome(h)
    }

    pub fn run_threaded(&self) -> Outcome {
        match run_fedmp_threaded(
            &self.spec.fl,
            &self.setup(),
            self.built.model.clone(),
            &Self::options(),
        ) {
            Ok(h) => self.outcome(h),
            Err(e) => engine_failed(self.spec.fl.rounds, &e.to_string()),
        }
    }

    /// One socket-engine run: fresh socket and node fleet (in-process
    /// `serve_worker` threads — the system under test, not the load
    /// generator, which is this one PS caller). Afterwards no node
    /// thread may be alive and the socket file must be gone.
    pub fn run_sockets(&self) -> Outcome {
        let n = SOCKET_SEQ.fetch_add(1, Ordering::Relaxed);
        let socket = out_dir().join(format!("ps-{}-{n}.sock", std::process::id()));
        let sock = SocketRunOptions::new(socket.clone(), Vec::new());
        let mut spawner = ThreadNodes {
            task: Arc::clone(&self.task),
            socket: socket.clone(),
            connect_attempts: 12,
            connect_backoff: Duration::from_millis(2),
        };
        let result = run_fedmp_sockets(
            &self.spec.fl,
            &self.setup(),
            self.built.model.clone(),
            &Self::options(),
            &ChaosOptions::none(),
            &sock,
            &mut spawner,
        );
        let mut out = match result {
            Ok(h) => self.outcome(h),
            Err(e) => engine_failed(self.spec.fl.rounds, &e.to_string()),
        };
        out.attempted += 2;
        if live_worker_threads() != 0 {
            eprintln!(
                "FAIL: {} node threads still alive after the socket run",
                live_worker_threads()
            );
            out.failed += 1;
        }
        if socket.exists() {
            eprintln!("FAIL: socket file {} left behind", socket.display());
            out.failed += 1;
        }
        out
    }
}

// ---- hier_compressed -------------------------------------------------------

/// `ExperimentSpec::bench(AlexnetCifar)` over a lazy 1e5-device
/// population; every link downloads f16 and uploads top-k int8 deltas;
/// every class prunes at [`PRUNE_RATIO`].
pub struct HierInputs {
    pub spec: ExperimentSpec,
    pub built: BuiltExperiment,
    pub population: Population,
    pub opts: HierarchyOptions,
}

impl HierInputs {
    pub fn build(seed: u64, sizes: &Sizes) -> Self {
        // `eval_every = rounds` still evaluates round 0 (0 % n == 0) as
        // well as the last round: the engine offers nothing sparser.
        let spec = experiment(TaskKind::AlexnetCifar, seed, sizes.hier_rounds, sizes.hier_rounds);
        let built = spec.build();
        let population = Population::new(POPULATION, seed, spec.level);
        let pair = LinkCodecs { downlink: Codec::DenseF16, uplink: Codec::TopKInt8 { keep: 0.1 } };
        let opts = HierarchyOptions {
            cohort: COHORT,
            shards: SHARDS,
            edges: EDGES,
            compression: CompressionPolicy { slow_link_bps: 0.0, fast: pair, slow: pair },
            fixed_ratio: Some(PRUNE_RATIO),
            ..Default::default()
        };
        HierInputs { spec, built, population, opts }
    }

    pub fn setup(&self) -> HierSetup<'_> {
        let mut setup = HierSetup::new(&self.built.task, self.population, self.built.time);
        setup.cost_scale = self.built.cost_scale;
        setup
    }

    pub fn run(&self) -> Outcome {
        let h = run_fedmp_hier(&self.spec.fl, &self.setup(), self.built.model.clone(), &self.opts);
        history_outcome(h, COHORT, self.spec.fl.local.tau * self.spec.fl.local.batch)
    }
}

// ---- ps_ingest -------------------------------------------------------------

/// `reference` plus small seeded Gaussian noise: a client's trained
/// state, far enough from the reference for delta codecs to carry one.
pub fn perturbed(reference: &[StateEntry], seed: u64) -> Vec<StateEntry> {
    let mut rng = seeded_rng(seed);
    reference
        .iter()
        .map(|e| {
            let mut entry = e.clone();
            let noise = standard_normal_vec(entry.tensor.numel(), &mut rng);
            entry.tensor.data_mut().iter_mut().zip(noise).for_each(|(x, z)| *x += 0.01 * z);
            entry
        })
        .collect()
}

/// The parameter server's receive path with no training in the way: a
/// pool of perturbed CNN/MNIST client states, pre-encoded with each of
/// the five codecs against the shared reference (the global state).
pub struct IngestInputs {
    pub reference: Vec<StateEntry>,
    pub pool: Vec<Vec<StateEntry>>,
    /// `frames[codec][client]`, in [`CODECS`] order.
    pub frames: Vec<Vec<Vec<u8>>>,
    pub sizes: Sizes,
}

impl IngestInputs {
    pub fn build(seed: u64, sizes: &Sizes) -> Self {
        let spec = experiment(TaskKind::CnnMnist, seed, 1, 1);
        let reference = spec.task.build_model(spec.width, seed ^ 0x0DE1).state();
        let pool: Vec<Vec<StateEntry>> = (0..INGEST_POOL as u64)
            .map(|client| perturbed(&reference, seed ^ client.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect();
        let frames = CODECS
            .iter()
            .map(|&(_, codec)| {
                pool.iter()
                    .map(|state| encode_state_v2(state, codec, Some(&reference), None).to_vec())
                    .collect()
            })
            .collect();
        IngestInputs { reference, pool, frames, sizes: *sizes }
    }

    pub fn dense_bytes(&self) -> usize {
        4 * self.reference.iter().map(|e| e.tensor.numel()).sum::<usize>()
    }

    /// Phase A for one codec: a worker's uplink encoder with its
    /// persistent error-feedback state.
    pub fn encode_pass(&self, codec: Codec) {
        let mut feedback = ErrorFeedback::new();
        for i in 0..self.sizes.encode_clients {
            let state = &self.pool[i % INGEST_POOL];
            black_box(encode_state_v2(state, codec, Some(&self.reference), Some(&mut feedback)));
        }
    }

    /// Phase B for one codec: checksum → decode → fold into the
    /// client's shard reducer; shards merge into edges, each edge
    /// partial crosses as an HPar frame, the cloud merges and
    /// finalises. Returns the finalised mean, the frames that failed
    /// checksum/decode, and the bytes consumed.
    pub fn ingest_pass(
        &self,
        codec_index: usize,
        clients: usize,
    ) -> (Vec<StateEntry>, usize, usize) {
        let frames = &self.frames[codec_index];
        let template = ExactState::like(&self.reference);
        let mut shards = vec![template.clone(); INGEST_SHARDS];
        let (mut folded, mut failed, mut bytes) = (0, 0, 0);
        for i in 0..clients {
            let frame = &frames[i % INGEST_POOL];
            bytes += frame.len();
            let decoded = if frame_checksum_ok(frame) {
                decode_state_v2(frame, Some(&self.reference)).ok()
            } else {
                None
            };
            match decoded {
                Some(state) => {
                    shards[i * INGEST_SHARDS / clients].fold(&state);
                    folded += 1;
                }
                None => failed += 1,
            }
        }
        let mut cloud = template.clone();
        for e in 0..INGEST_EDGES {
            let mut edge = template.clone();
            for shard in
                &shards[e * INGEST_SHARDS / INGEST_EDGES..(e + 1) * INGEST_SHARDS / INGEST_EDGES]
            {
                edge.merge(shard);
            }
            match ExactState::decode(&edge.encode(), &template) {
                Ok(Some(partial)) => cloud.merge(&partial),
                _ => failed += 1,
            }
        }
        (cloud.finalize(folded.max(1)), failed, bytes)
    }

    pub fn run(&self) -> Outcome {
        let t = Instant::now();
        for &(_, codec) in &CODECS {
            self.encode_pass(codec);
        }
        let encode_s = t.elapsed().as_secs_f64();

        let clients = self.sizes.ingest_clients;
        let t = Instant::now();
        let (mut hash, mut failed, mut ingest_bytes) = (0xCBF2_9CE4_8422_2325, 0, 0);
        for c in 0..CODECS.len() {
            let (mean, bad, bytes) = self.ingest_pass(c, clients);
            hash = state_hash(&mean, hash);
            failed += bad;
            ingest_bytes += bytes;
        }
        let ingest_s = t.elapsed().as_secs_f64();

        Outcome {
            hash,
            rounds: CODECS.len(),
            client_updates: clients * CODECS.len() - failed,
            attempted: clients * CODECS.len(),
            failed,
            ingest: Some(IngestPhases {
                encode_s,
                encode_bytes: self.dense_bytes() * self.sizes.encode_clients * CODECS.len(),
                ingest_s,
                ingest_bytes,
            }),
            ..Default::default()
        }
    }

    /// The exactness gate: over a prefix of clients per codec, the
    /// shard/edge/cloud tree must finalise to the very bits
    /// `average_states` gives for the same decoded multiset. Returns
    /// (checks made, checks failed).
    pub fn check_against_flat_average(&self) -> (usize, usize) {
        let clients = INGEST_CHECK_PREFIX.min(self.sizes.ingest_clients);
        let mut failed = 0;
        for (c, (slug, _)) in CODECS.iter().enumerate() {
            let decoded: Vec<Vec<StateEntry>> = (0..clients)
                .map(|i| {
                    decode_state_v2(&self.frames[c][i % INGEST_POOL], Some(&self.reference))
                        .expect("frames this process encoded decode")
                })
                .collect();
            let flat = average_states(&decoded);
            let (tree, bad, _) = self.ingest_pass(c, clients);
            if bad != 0 || state_hash(&flat, 0) != state_hash(&tree, 0) || !bits_equal(&flat, &tree)
            {
                eprintln!("FAIL: {slug}: fan-in tree mean differs from average_states over {clients} clients");
                failed += 1;
            }
        }
        (CODECS.len(), failed)
    }
}

fn bits_equal(a: &[StateEntry], b: &[StateEntry]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.name == y.name
                && x.tensor.data().len() == y.tensor.data().len()
                && x.tensor
                    .data()
                    .iter()
                    .zip(y.tensor.data())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

// ---- one interface over the three input kinds ------------------------------

// One value per process: boxing the large variants would buy nothing.
#[allow(clippy::large_enum_variant)]
pub enum Inputs {
    Flat(FlatInputs),
    Hier(HierInputs),
    Ingest(IngestInputs),
}

impl Inputs {
    pub fn build(w: Workload, seed: u64, sizes: &Sizes) -> Inputs {
        match w {
            Workload::FlatLoop | Workload::FlatSockets => {
                Inputs::Flat(FlatInputs::build(seed, sizes))
            }
            Workload::HierCompressed => Inputs::Hier(HierInputs::build(seed, sizes)),
            Workload::PsIngest => Inputs::Ingest(IngestInputs::build(seed, sizes)),
        }
    }

    /// The global model, task and engine config of a training workload
    /// (`None` on `ps_ingest`).
    pub fn training(&self) -> Option<(&Sequential, &ImageTask, &FlConfig)> {
        match self {
            Inputs::Flat(f) => Some((&f.built.model, &f.built.task, &f.spec.fl)),
            Inputs::Hier(h) => Some((&h.built.model, &h.built.task, &h.spec.fl)),
            Inputs::Ingest(_) => None,
        }
    }

    /// One repeat of the workload's fixed work.
    pub fn run(&self, w: Workload) -> Outcome {
        match (self, w) {
            (Inputs::Flat(f), Workload::FlatSockets) => f.run_sockets(),
            (Inputs::Flat(f), _) => f.run_loop(),
            (Inputs::Hier(h), _) => h.run(),
            (Inputs::Ingest(i), _) => i.run(),
        }
    }

    /// The untimed run before the repeats: fills caches and workspace
    /// pools, and yields the hash every repeat must reproduce. For
    /// `flat_sockets` that is the *loop* engine's history — the two
    /// engines must agree bit for bit on the same spec and seed.
    pub fn warm_up(&self, w: Workload) -> Outcome {
        match self {
            Inputs::Flat(f) => f.run_loop(),
            _ => self.run(w),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_and_only_the_seed_changes_the_history() {
        let run = |seed| FlatInputs::build(seed, &Sizes::SMOKE).run_loop();
        let (a, again, b) = (run(1), run(1), run(2));
        assert_eq!(a.hash, again.hash, "same seed, same inputs, same history");
        assert_ne!(a.hash, b.hash, "another seed must give other inputs");
        assert_eq!((a.rounds, a.failed), (Sizes::SMOKE.flat_rounds, 0));
        assert_eq!(a.client_updates, 10 * Sizes::SMOKE.flat_rounds);
    }

    #[test]
    fn socket_engine_reproduces_the_loop_engine_and_cleans_up() {
        let flat = FlatInputs::build(7, &Sizes::SMOKE);
        let (looped, sockets) = (flat.run_loop(), flat.run_sockets());
        assert_eq!(looped.hash, sockets.hash);
        assert_eq!(sockets.failed, 0, "leaked node threads or a socket file left behind");
    }

    #[test]
    fn ingest_tree_equals_flat_average_and_counts_bad_frames() {
        let mut ingest = IngestInputs::build(3, &Sizes::SMOKE);
        assert_eq!(ingest.check_against_flat_average(), (CODECS.len(), 0));
        let clean = ingest.run();
        assert_eq!((clean.failed, clean.rounds), (0, CODECS.len()));
        assert_eq!(clean.hash, ingest.run().hash);
        // One flipped payload byte in one pooled frame: every client that
        // cycles onto it fails its checksum and is counted, not folded.
        let frame = &mut ingest.frames[0][0];
        let mid = frame.len() / 2;
        frame[mid] ^= 0x40;
        let clients = Sizes::SMOKE.ingest_clients;
        let (_, failed, _) = ingest.ingest_pass(0, clients);
        assert_eq!(failed, clients.div_ceil(INGEST_POOL));
    }
}
