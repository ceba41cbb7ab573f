//! Cross-commit engine goldens: every engine's history and trace bits,
//! pinned once.
//!
//! Each row of [`GOLDENS`] is one engine configuration on one small
//! fixture (3 workers on `mnist_like(0.1)`, `cnn_mnist(0.1)`, a
//! Near/Mid/Far fleet, 2 rounds; the hierarchy on a 50-device
//! High-heterogeneity population, cohort 8). Per [`SimdPath`] it holds
//! FNV-1a-64 of the `RunHistory` as `serde_json` and of the trace's
//! event lines (the manifest, which names the thread count, excluded).
//! Every row must hash to its constants at 1 **and** 4 executor
//! threads. The scalar path always runs; the AVX2 columns only where
//! the host has AVX2+FMA.
//!
//! The equalities *between* rows are asserted on their own — each
//! threaded row's history equals its loop twin's, the four hierarchy
//! partitions share one history — and sanity checks keep the fault,
//! chaos, codec and FlexCom rows from passing vacuously.
//!
//! A change that means to move bits pastes the table this test prints
//! on a mismatch and lists the moved rows in CHANGES.md; there is no
//! regeneration switch. One test function, because trace sessions,
//! kernel counters and both overrides are process-global.

use fedmp_data::{iid_partition, mnist_like, ptb_like, TextDataset};
use fedmp_edgesim::{
    class_of, tx2_profile, ComputeMode, DeviceProfile, HeterogeneityLevel, LinkQuality, Population,
    TimeModel,
};
use fedmp_fl::{
    run_async, run_fedmp, run_fedmp_hier, run_fedprox, run_flexcom, run_synfl, run_threaded,
    run_upfl, AsyncMode, AsyncOptions, ChaosOptions, CompressionPolicy, FaultOptions, FedMpOptions,
    FedProxOptions, FlConfig, FlSetup, FlexComOptions, HierSetup, HierarchyOptions, ImageTask,
    LmTask, LocalTrainConfig, RunHistory, SyncMethod, SyncScheme, UpFlOptions,
};
use fedmp_nn::{zoo, LstmLm, Sequential};
use fedmp_obs::{RunManifest, Trace, TraceEvent, TraceSession};
use fedmp_tensor::simd::{self, SimdPath};
use fedmp_tensor::{parallel, seeded_rng};
use std::collections::BTreeSet;

/// A row's bits under one kernel path: `(history, trace)`.
type Bits = (u64, u64);

/// `(row, scalar bits, avx2 bits)`, in run order.
#[rustfmt::skip]
const GOLDENS: &[(&str, Bits, Bits)] = &[
    ("fedmp",                     (0x7a87b45bbca53c93, 0x531223a1a280f677), (0x04464bd68126f66a, 0xd0566d2e89e2f8eb)),
    ("fedmp-faults",              (0x52f187d3a9facecd, 0xec17b2084895d31a), (0x52f187d3a9facecd, 0x6ab540ab04879b7b)),
    ("fedmp-bsp",                 (0x6d8053872bdcd5ea, 0x317d9411e0b44df7), (0x395fdeb647b0992e, 0x84a9b204aad12bbf)),
    ("fedmp-compressed",          (0x40c52a1eb59d3568, 0xb261c8e8d0254082), (0xe3443df4c90fd5bf, 0x5993ea8919f00b2a)),
    ("synfl",                     (0x7d334ba7c62a97e1, 0xd1e1889110eb8d60), (0x7d334ba7c62a97e1, 0x8347ddd68f07cea0)),
    ("upfl",                      (0x7868f7a35ee416b1, 0x1072afcaf2521a8e), (0xcc104a286504833d, 0x8f09a2b0a25c3e56)),
    ("fedprox",                   (0x4f0aa97e71e47b90, 0x64ca9246f849c66f), (0x4f0aa97e71e47b90, 0xa3ef8d7814a51d2a)),
    ("flexcom",                   (0x82136b5dd433ef79, 0xf859bcb425ca6e8d), (0x82136b5dd433ef79, 0x9947eb622d9b6588)),
    ("asynfl",                    (0xc708a19abc23f001, 0x23b1620c2ec3dd19), (0x9d60b565724084f0, 0x906614459193ebb5)),
    ("asynfedmp",                 (0x4b1c3de7ac61b9ae, 0x2257836bfe5a8044), (0x1b29b03d354892dc, 0x108263fef4395813)),
    ("lm-synfl",                  (0x42ed6e3150dfd6b9, 0x24fdeda1b2759ff7), (0x2752b51e8db4c72d, 0xbb37c0869afd823f)),
    ("lm-upfl",                   (0xdfcc2813e0a93a59, 0xec383116845a3aa7), (0xdfcc2813e0a93a59, 0x56d1ec237f7ef5cf)),
    ("lm-fedmp",                  (0xf80b5906301e87e1, 0xabde1e39897460ef), (0xf80b5906301e87e1, 0xddd7daa712615eb7)),
    ("threaded",                  (0x7a87b45bbca53c93, 0x531223a1a280f677), (0x04464bd68126f66a, 0xd0566d2e89e2f8eb)),
    ("threaded-faults",           (0x52f187d3a9facecd, 0xec17b2084895d31a), (0x52f187d3a9facecd, 0x6ab540ab04879b7b)),
    ("threaded-compressed",       (0x40c52a1eb59d3568, 0xb261c8e8d0254082), (0xe3443df4c90fd5bf, 0x5993ea8919f00b2a)),
    ("threaded-synfl",            (0x7d334ba7c62a97e1, 0xd1e1889110eb8d60), (0x7d334ba7c62a97e1, 0x8347ddd68f07cea0)),
    ("threaded-upfl",             (0x7868f7a35ee416b1, 0x1072afcaf2521a8e), (0xcc104a286504833d, 0x8f09a2b0a25c3e56)),
    ("threaded-fedprox",          (0x4f0aa97e71e47b90, 0x64ca9246f849c66f), (0x4f0aa97e71e47b90, 0xa3ef8d7814a51d2a)),
    ("threaded-flexcom",          (0x82136b5dd433ef79, 0xf859bcb425ca6e8d), (0x82136b5dd433ef79, 0x9947eb622d9b6588)),
    ("threaded-chaos",            (0xcdf07688329448e8, 0x39ab8a4108441559), (0xcdf07688329448e8, 0xd96268acf9c0d8ed)),
    ("threaded-chaos-compressed", (0xd3b0082adb04d342, 0x806565f58b2a7650), (0x4462e50c61c587a5, 0x7b942140d27f9ad8)),
    ("threaded-lm-synfl",         (0x42ed6e3150dfd6b9, 0x24fdeda1b2759ff7), (0x2752b51e8db4c72d, 0xbb37c0869afd823f)),
    ("threaded-lm-upfl",          (0xdfcc2813e0a93a59, 0xec383116845a3aa7), (0xdfcc2813e0a93a59, 0x56d1ec237f7ef5cf)),
    ("threaded-lm-fedmp",         (0xf80b5906301e87e1, 0xabde1e39897460ef), (0xf80b5906301e87e1, 0xddd7daa712615eb7)),
    ("hier",                      (0xbc650d3d616ede8e, 0x0f9f200c63d3ca29), (0x7d8feb92e8f38c0c, 0xd6afa48ed54e3b72)),
    ("hier-1x1",                  (0xbc650d3d616ede8e, 0x2adb56e903b6259d), (0x7d8feb92e8f38c0c, 0x37b1d48bdf3986b0)),
    ("hier-2x2",                  (0xbc650d3d616ede8e, 0x880502c469707585), (0x7d8feb92e8f38c0c, 0x37690a197f10f476)),
    ("hier-8x4",                  (0xbc650d3d616ede8e, 0x05bf8be65776529d), (0x7d8feb92e8f38c0c, 0x538429980f2c830a)),
    ("hier-compressed",           (0xb394eb61c2a3ff7b, 0x5f1f61dfd325def3), (0x6720b9c2de826b9d, 0xdb6828a85b90b317)),
    ("hier-chaos",                (0xe2c06d4c3736d43c, 0xfaca4005268d4d35), (0xe2c06d4c3736d43c, 0xd237090c0940f087)),
];

const SEED: u64 = 2;
const WORKERS: usize = 3;
const ROUNDS: usize = 2;
const COHORT: usize = 8;

/// The hierarchy rows that differ only in `(shards, edges)`.
const PARTITIONS: [(&str, usize, usize); 4] =
    [("hier", 4, 2), ("hier-1x1", 1, 1), ("hier-2x2", 2, 2), ("hier-8x4", 8, 4)];

/// `(threaded row, loop row)` pairs that must share a history.
const TWINS: [(&str, &str); 10] = [
    ("threaded", "fedmp"),
    ("threaded-faults", "fedmp-faults"),
    ("threaded-compressed", "fedmp-compressed"),
    ("threaded-synfl", "synfl"),
    ("threaded-upfl", "upfl"),
    ("threaded-fedprox", "fedprox"),
    ("threaded-flexcom", "flexcom"),
    ("threaded-lm-synfl", "lm-synfl"),
    ("threaded-lm-upfl", "lm-upfl"),
    ("threaded-lm-fedmp", "lm-fedmp"),
];

fn fnv1a64<'a>(chunks: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in chunks.into_iter().flatten() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Everything the rows share, built once.
struct Fixture {
    task: ImageTask,
    devices: Vec<DeviceProfile>,
    global: Sequential,
    lm: LmTask,
    lm_global: LstmLm,
}

impl Fixture {
    fn new() -> Self {
        let (train, test) = mnist_like(0.1, SEED).generate();
        let part = iid_partition(&train, WORKERS, &mut seeded_rng(SEED));
        let (lm_train, lm_eval) = ptb_like(30, 6_000, 7).split(0.9);
        let lane = lm_train.len() / WORKERS;
        let lane = |w: usize| lm_train.tokens[w * lane..(w + 1) * lane].to_vec();
        let vocab = lm_train.vocab;
        Fixture {
            task: ImageTask::new(train, test, part),
            devices: vec![
                tx2_profile(ComputeMode::Mode0, LinkQuality::Near),
                tx2_profile(ComputeMode::Mode1, LinkQuality::Mid),
                tx2_profile(ComputeMode::Mode3, LinkQuality::Far),
            ],
            global: zoo::cnn_mnist(0.1, &mut seeded_rng(SEED ^ 0xBEEF)),
            lm: LmTask::new(
                (0..WORKERS)
                    .map(|w| TextDataset { tokens: lane(w), vocab }.batches(4, 8))
                    .collect(),
                lm_eval.batches(4, 8),
            ),
            lm_global: zoo::lstm_ptb(30, 0.15, &mut seeded_rng(SEED ^ 0xF00D)),
        }
    }

    fn hier(&self) -> HierSetup<'_> {
        let population = Population::new(50, SEED, HeterogeneityLevel::High);
        HierSetup::new(&self.task, population, TimeModel::default())
    }

    /// Runs one row.
    fn run(&self, row: &str) -> RunHistory {
        let setup = &FlSetup::new(&self.task, self.devices.clone(), TimeModel::default());
        let hier = &self.hier();
        let cfg = &FlConfig { rounds: ROUNDS, eval_every: 2, seed: SEED, ..Default::default() };
        let g = || self.global.clone();
        let faults = FaultOptions { fail_prob: 0.6, recover_rounds: 1, ..Default::default() };
        let faulty = FedMpOptions { faults: Some(faults), ..Default::default() };
        // Worker 2's Far link sits below the adaptive policy's bandwidth
        // threshold, so dense and compressed codec pairs share one run.
        let adaptive = CompressionPolicy::adaptive();
        let compressed = FedMpOptions { compression: adaptive, ..Default::default() };
        let bsp = FedMpOptions { sync: SyncScheme::BSP, ..Default::default() };
        let asyn = |mode| AsyncOptions { mode, m: 2, ..Default::default() };
        let threaded = |m, c| run_threaded(cfg, setup, g(), &m, &c).expect("recoverable");
        let (fedmp, none) = (SyncMethod::FedMp, ChaosOptions::none());
        let at = |shards, edges| HierarchyOptions {
            cohort: COHORT,
            shards,
            edges,
            ..Default::default()
        };
        let lm_devices = vec![tx2_profile(ComputeMode::Mode1, LinkQuality::Mid); WORKERS];
        let lm_setup = &FlSetup::new(&self.lm, lm_devices, TimeModel::deterministic());
        let lm_cfg = &FlConfig {
            local: LocalTrainConfig { tau: 4, lr: 0.4, ..Default::default() },
            eval_max_samples: 8,
            ..*cfg
        };
        let lm = || self.lm_global.clone();
        let lm_threaded = |m| run_threaded(lm_cfg, lm_setup, lm(), &m, &none).expect("recoverable");
        // Edge-tier chaos aggressive enough for drops, corruption
        // retransmits and retry exhaustion within two rounds.
        let edge_chaos = ChaosOptions {
            corrupt_prob: 0.6,
            max_corrupt_sends: 3,
            drop_prob: 0.25,
            crash_prob: 0.2,
            max_retransmits: 2,
            ..ChaosOptions::none()
        };
        match row {
            "fedmp" => run_fedmp(cfg, setup, g(), &FedMpOptions::default()),
            "fedmp-faults" => run_fedmp(cfg, setup, g(), &faulty),
            "fedmp-bsp" => run_fedmp(cfg, setup, g(), &bsp),
            "fedmp-compressed" => run_fedmp(cfg, setup, g(), &compressed),
            "synfl" => run_synfl(cfg, setup, g()),
            "upfl" => run_upfl(cfg, setup, g(), &UpFlOptions::default()),
            "fedprox" => run_fedprox(cfg, setup, g(), &FedProxOptions::default()),
            "flexcom" => run_flexcom(cfg, setup, g(), &FlexComOptions::default()),
            "asynfl" => run_async(cfg, setup, g(), &asyn(AsyncMode::AsynFl)),
            "asynfedmp" => run_async(cfg, setup, g(), &asyn(AsyncMode::AsynFedMp)),
            "lm-synfl" => run_synfl(lm_cfg, lm_setup, lm()),
            "lm-upfl" => run_upfl(lm_cfg, lm_setup, lm(), &UpFlOptions::default()),
            "lm-fedmp" => run_fedmp(lm_cfg, lm_setup, lm(), &FedMpOptions::default()),
            "threaded" => threaded(fedmp(FedMpOptions::default()), none),
            "threaded-faults" => threaded(fedmp(faulty), none),
            "threaded-compressed" => threaded(fedmp(compressed), none),
            "threaded-synfl" => threaded(SyncMethod::SynFl, none),
            "threaded-upfl" => threaded(SyncMethod::UpFl(UpFlOptions::default()), none),
            "threaded-fedprox" => threaded(SyncMethod::FedProx(FedProxOptions::default()), none),
            "threaded-flexcom" => threaded(SyncMethod::FlexCom(FlexComOptions::default()), none),
            "threaded-chaos" => threaded(fedmp(faulty), ChaosOptions::demo(1)),
            "threaded-chaos-compressed" => threaded(fedmp(compressed), ChaosOptions::demo(2)),
            "threaded-lm-synfl" => lm_threaded(SyncMethod::SynFl),
            "threaded-lm-upfl" => lm_threaded(SyncMethod::UpFl(UpFlOptions::default())),
            "threaded-lm-fedmp" => lm_threaded(fedmp(FedMpOptions::default())),
            "hier-compressed" => {
                let opts = HierarchyOptions { compression: adaptive, ..at(4, 2) };
                run_fedmp_hier(cfg, hier, g(), &opts)
            }
            "hier-chaos" => {
                let opts = HierarchyOptions {
                    chaos_client: ChaosOptions::demo(1),
                    chaos_edge: edge_chaos,
                    ..at(4, 2)
                };
                run_fedmp_hier(cfg, hier, g(), &opts)
            }
            _ => {
                let &(_, shards, edges) =
                    PARTITIONS.iter().find(|p| p.0 == row).unwrap_or_else(|| panic!("{row}?"));
                run_fedmp_hier(cfg, hier, g(), &at(shards, edges))
            }
        }
    }
}

struct Run {
    name: &'static str,
    history: RunHistory,
    trace: Trace,
}

impl Run {
    fn history_json(&self) -> String {
        serde_json::to_string(&self.history).expect("serialise history")
    }

    fn bits(&self) -> Bits {
        let lines = self.trace.event_lines.iter().flat_map(|l| [l.as_bytes(), b"\n"]);
        (fnv1a64([self.history_json().as_bytes()]), fnv1a64(lines))
    }

    fn count(&self, kinds: &[&str]) -> usize {
        self.trace.events.iter().filter(|e| kinds.contains(&e.kind())).count()
    }
}

fn find<'r>(runs: &'r [Run], name: &str) -> &'r Run {
    runs.iter().find(|r| r.name == name).expect("row present")
}

#[test]
fn every_engine_matches_its_recorded_bits() {
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            simd::override_path(None);
            parallel::override_threads(None);
        }
    }
    let _reset = Reset;
    let fx = Fixture::new();
    let mut paths = vec![SimdPath::Scalar];
    if simd::avx2_supported() {
        paths.push(SimdPath::Avx2);
    } else {
        eprintln!("skipping the avx2 columns: AVX2+FMA not available on this host");
    }

    // Every row, every path, 1 and 4 threads — before asserting anything.
    let runs: Vec<(SimdPath, [Vec<Run>; 2])> = paths
        .into_iter()
        .map(|path| {
            simd::override_path(Some(path));
            let run_all = |threads: usize| -> Vec<Run> {
                parallel::override_threads(Some(threads));
                let run = |&(name, ..): &(&'static str, Bits, Bits)| {
                    let manifest = RunManifest::new(name, SEED, WORKERS, ROUNDS, threads);
                    let session = TraceSession::capture(&manifest);
                    let history = fx.run(name);
                    Run { name, history, trace: session.finish() }
                };
                GOLDENS.iter().map(run).collect()
            };
            (path, [run_all(1), run_all(4)])
        })
        .collect();

    for (path, [one, four]) in &runs {
        let path = path.name();
        for (a, b) in one.iter().zip(four) {
            let ((h1, t1), (h4, t4)) = (a.bits(), b.bits());
            assert!(h1 == h4, "{} ({path}): history differs at 1 and 4 threads", a.name);
            assert!(t1 == t4, "{} ({path}): trace differs at 1 and 4 threads", a.name);
        }
        for (threaded, twin) in TWINS {
            let (a, b) = (find(one, threaded).history_json(), find(one, twin).history_json());
            assert!(a == b, "{threaded} ({path}): history differs from its loop twin {twin}");
        }
        let hier = find(one, PARTITIONS[0].0).history_json();
        for (name, shards, edges) in PARTITIONS {
            let run = find(one, name);
            assert!(
                run.history_json() == hier,
                "{name} ({path}): history moved at {shards}x{edges}"
            );
            let last = run.history.rounds.last().expect("rounds recorded");
            assert_eq!(last.participants, COHORT, "{name}: the cohort was not delivered whole");
            assert!(last.eval.is_some(), "{name}: the final round did not evaluate");
            assert_eq!(run.count(&["CohortSampled"]), ROUNDS, "{name}");
            assert_eq!(run.count(&["ShardReduced"]), ROUNDS * shards, "{name}");
            assert_eq!(run.count(&["EdgeAggregate"]), ROUNDS * edges, "{name}");
        }
        assert!(find(one, "fedmp-faults").count(&["FaultInjected"]) > 0, "no fault fired");
        for run in one {
            let recoveries = run.count(&["FrameRetransmit", "WorkerExcluded", "WorkerRejoined"]);
            let codecs = run.count(&["CodecSelected", "CompressionApplied"]);
            assert!(!run.name.contains("chaos") || recoveries > 0, "{}: no recovery", run.name);
            assert!(!run.name.contains("compressed") || codecs > 0, "{}: no codec", run.name);
        }
        // FlexCom: each worker's top-k uplink keeps in proportion to its
        // bandwidth (Near, Mid, Far), every round. At 8 B per kept
        // coordinate an upload undercuts the dense frame only below
        // keep 0.5: Mid's and Far's do, Near's does not.
        let mut uplinks = vec![Vec::new(); WORKERS];
        let mut uploads = 0;
        for event in &find(one, "flexcom").trace.events {
            match event {
                TraceEvent::CodecSelected { worker, uplink, .. } => uplinks[*worker].push(uplink),
                TraceEvent::CompressionApplied {
                    worker,
                    direction,
                    dense_bytes,
                    wire_bytes,
                    ..
                } if direction == "up" => {
                    let smaller = wire_bytes < dense_bytes;
                    assert_eq!(smaller, *worker != 0, "flexcom: worker {worker}'s upload size");
                    uploads += 1;
                }
                _ => {}
            }
        }
        assert_eq!(uploads, WORKERS * ROUNDS, "flexcom: uploads");
        for (got, keep) in uplinks.iter().zip(["0.5", "0.25", "0.075"]) {
            assert_eq!(got, &vec![&format!("topk({keep})"); ROUNDS], "flexcom: uplink codecs");
        }
    }
    let hier = fx.hier();
    let cohort = hier.population.sample_cohort(0, COHORT);
    let classes: BTreeSet<usize> =
        cohort.iter().map(|&id| class_of(&hier.population.device(id))).collect();
    assert!(classes.len() >= 2, "the hierarchy's cohort collapsed to one device class");

    // The table: a path the host did not run keeps its recorded column.
    let mut table = String::from("#[rustfmt::skip]\nconst GOLDENS: &[(&str, Bits, Bits)] = &[\n");
    let mut moved = Vec::new();
    for (i, &(name, scalar, avx2)) in GOLDENS.iter().enumerate() {
        let mut got = [scalar, avx2];
        for (path, [one, _]) in &runs {
            got[usize::from(*path == SimdPath::Avx2)] = one[i].bits();
        }
        let columns = ["scalar history", "scalar trace", "avx2 history", "avx2 trace"];
        let [(a, b), (c, d)] = got;
        let want = [scalar.0, scalar.1, avx2.0, avx2.1];
        let diff: Vec<_> =
            (0..4).filter(|&k| [a, b, c, d][k] != want[k]).map(|k| columns[k]).collect();
        if !diff.is_empty() {
            moved.push(format!("{name}: {}", diff.join(", ")));
        }
        let quoted = format!("\"{name}\",");
        table += &format!("    ({quoted:<28} ({a:#018x}, {b:#018x}), ({c:#018x}, {d:#018x})),\n");
    }
    assert!(
        moved.is_empty(),
        "engine bits moved in {} row(s):\n  {}\n\nIf that is intended, replace GOLDENS in \
         tests/goldens.rs with the table below and list the moved rows in CHANGES.md:\n\n{table}];",
        moved.len(),
        moved.join("\n  "),
    );
}
