//! The traced run: per-layer numbers for one workload.
//!
//! Three sources, all outside the product code:
//! 1. the engine once untraced and once under `TraceSession::capture`
//!    — exact counts (kernel dispatches, wire bytes, retransmits) and
//!    the tracing overhead;
//! 2. micro-probes: a layer's public function called in a loop on
//!    inputs built from the workload's spec;
//! 3. shadow rounds: the sequence of public calls one engine round
//!    makes, replayed from this thread at the pruning ratios the engine
//!    itself recorded, with a span around every call.
//!
//! Spans nest `round > worker > <layer call>`. Calls the engine fans
//! out across its round executor sit under `worker` spans and run
//! inside `with_nested_sequential`, as they do on an executor thread.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use fedmp_bandit::{eucb_reward, Bandit, EUcbAgent, EUcbConfig, RewardConfig};
use fedmp_data::BatchIter;
use fedmp_edgesim::{class_of, DeviceProfile, RoundCost};
use fedmp_fl::{
    codec_delivered, decode_state_v2, encode_state, encode_state_v2, evaluate_image,
    frame_checksum_ok, local_train, r2sp_aggregate, ErrorFeedback, ExactState, FlConfig, ImageTask,
    RoundRecord, RunHistory,
};
use fedmp_nn::{model_cost, state_add, state_sub, Sequential, Sgd, StateEntry};
use fedmp_obs::{RunManifest, TraceEvent, TraceSession};
use fedmp_pruning::{
    extract_sequential, plan_sequential_with, recover_state, sparse_state, Importance, PrunePlan,
};
use fedmp_tensor::parallel::{kernel_stats, with_nested_sequential};
use fedmp_tensor::{cross_entropy_loss, seeded_rng, ExactSum};
use serde_json::{json, Value};

use crate::host::{host_block, PINNED_THREADS};
use crate::metrics::{per_layer, CODECS, RATIO_BUCKETS};
use crate::runner::{timed, RunArgs, SCHEMA};
use crate::spans::Recorder;
use crate::stats::median;
use crate::workloads::{
    out_dir, perturbed, FlatInputs, HierInputs, IngestInputs, Inputs, Workload, COHORT, EDGES,
    INGEST_EDGES, INGEST_POOL, INGEST_SHARDS, SHARDS,
};

/// Iterations of every micro-probe (its metric is their median).
const MICRO_ITERS: usize = 7;
/// Alternating untraced/traced engine runs behind
/// `obs.trace_overhead_share`.
const TRACE_PAIRS: usize = 2;

pub struct TraceReport {
    pub args: RunArgs,
    /// Every per-layer metric by name; 0 for a layer the workload never
    /// enters.
    pub per_layer: BTreeMap<String, f64>,
    pub shadow_rounds: usize,
    pub span_count: usize,
    pub attempted: usize,
    pub failed: usize,
}

pub fn run_traced(args: RunArgs) -> TraceReport {
    fedmp_tensor::parallel::override_threads(Some(PINNED_THREADS));
    let sizes = args.sizes();
    let w = args.workload;
    let inputs = Inputs::build(w, args.seed, &sizes);
    let reference = inputs.warm_up(w);
    let mut layer: BTreeMap<String, f64> =
        per_layer().into_iter().map(|(n, _, _)| (n, 0.0)).collect();
    let mut set = |name: &str, value: f64| {
        *layer.get_mut(name).unwrap_or_else(|| panic!("{name} is not a listed per-layer metric")) =
            value;
    };

    // 1. The engine, untraced then traced, in alternating pairs (so
    // drift on a shared host hits both sides alike). The first pair
    // also yields the history, the kernel counts and the trace.
    let manifest =
        RunManifest::new("benchmark", args.seed, COHORT, reference.rounds, PINNED_THREADS);
    let (mut attempted, mut failed) = (0, 0);
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut first = None;
    for _ in 0..if args.smoke { 1 } else { TRACE_PAIRS } {
        let before = kernel_stats();
        let (plain, wall, plain_cpu) = timed(|| inputs.run(w));
        let after = kernel_stats();
        plain_walls.push(wall);
        let session = TraceSession::capture(&manifest);
        let (traced, wall, _) = timed(|| inputs.run(w));
        let trace = session.finish();
        traced_walls.push(wall);
        attempted += plain.attempted + traced.attempted + 2;
        failed += plain.failed + traced.failed;
        for (what, hash) in [("untraced", plain.hash), ("traced", traced.hash)] {
            if hash != reference.hash {
                eprintln!(
                    "FAIL: {what} engine run hash {hash:#018x} differs from the reference {:#018x}",
                    reference.hash
                );
                failed += 1;
            }
        }
        first.get_or_insert((plain, plain_cpu, before, after, trace));
    }
    let (plain, plain_cpu, before, after, trace) = first.expect("at least one pair");
    let rounds = plain.rounds as f64;
    let plain_wall = median(&plain_walls);
    for (path, count) in [
        ("simd_dense", after.gemm_simd_dense - before.gemm_simd_dense),
        ("simd_pruned", after.gemm_simd_pruned - before.gemm_simd_pruned),
        ("scalar_dense", after.gemm_scalar_dense - before.gemm_scalar_dense),
        ("scalar_pruned", after.gemm_scalar_pruned - before.gemm_scalar_pruned),
    ] {
        set(&format!("tensor.gemm_calls_{path}"), count as f64 / rounds);
    }
    set("tensor.band_dispatches", (after.dispatches - before.dispatches) as f64 / rounds);
    set("obs.trace_overhead_share", (median(&traced_walls) - plain_wall) / plain_wall);
    let (mut up, mut down, mut retransmits, mut exclusions, mut shard_peak) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for event in &trace.events {
        match event {
            TraceEvent::CompressionApplied { direction, wire_bytes, .. } if direction == "up" => {
                up += wire_bytes
            }
            TraceEvent::CompressionApplied { wire_bytes, .. } => down += wire_bytes,
            TraceEvent::FrameRetransmit { .. } => retransmits += 1,
            TraceEvent::WorkerExcluded { .. } => exclusions += 1,
            TraceEvent::ShardReduced { peak_bytes, .. } => shard_peak = shard_peak.max(*peak_bytes),
            _ => {}
        }
    }
    set("fl.wire.uplink_bytes_per_round", up as f64 / rounds);
    set("fl.wire.downlink_bytes_per_round", down as f64 / rounds);
    set("fl.runtime.retransmits", retransmits as f64);
    set("fl.runtime.exclusions", exclusions as f64);

    // The engine taxes: the same spec through the loop, threaded and
    // socket engines, back to back in this process.
    if let (Workload::FlatSockets, Inputs::Flat(flat)) = (w, &inputs) {
        let (looped, loop_wall, loop_cpu) = timed(|| flat.run_loop());
        let (threaded, threaded_wall, _) = timed(|| flat.run_threaded());
        attempted += 2;
        failed += [looped.hash, threaded.hash].iter().filter(|&&h| h != reference.hash).count();
        set("fl.runtime.tax_s_per_round", (threaded_wall - loop_wall) / rounds);
        set("fl.transport.tax_s_per_round", (plain_wall - threaded_wall) / rounds);
        set("fl.transport.cpu_ratio", plain_cpu / loop_cpu);
    }

    // 2 + 3. Probes and shadow rounds, under the span recorder.
    let mut rec = Recorder::new();
    let global_state = match &inputs {
        Inputs::Ingest(i) => i.reference.clone(),
        _ => inputs.training().expect("training workload").0.state(),
    };
    probe_sim(&mut rec, args.seed);
    probe_wire(&mut rec, &global_state, args.seed);
    probe_exact_algebra(&mut rec, &global_state);
    let buckets = Buckets::of(plain.history.as_ref());
    if let Some((model, task, cfg)) = inputs.training() {
        probe_nn(&mut rec, model, task, cfg, buckets.median);
    }
    // The engine runs above take most of a traced run's time; the shadow
    // rounds get a third of `--seconds` on top, and never fewer than the
    // end-to-end run's minimum repeat count.
    let deadline = Instant::now() + Duration::from_secs_f64(args.measure_seconds() / 3.0);
    let mut shadow_rounds = 0;
    while shadow_rounds < sizes.min_repeats || Instant::now() < deadline {
        rec.repeat = shadow_rounds + 1;
        // Replay recorded rounds from the middle of the run on, striding
        // so that early (exploring) and late rounds both get their turn.
        let record = plain.history.as_ref().map(|h| {
            let n = h.rounds.len();
            &h.rounds[(shadow_rounds * 7 + n / 2) % n]
        });
        match (&inputs, record) {
            (Inputs::Flat(f), Some(record)) => {
                shadow_flat_round(&mut rec, f, record, &buckets, w == Workload::FlatSockets)
            }
            (Inputs::Hier(h), Some(record)) => shadow_hier_round(&mut rec, h, record, &buckets),
            (Inputs::Ingest(i), _) => {
                (0..CODECS.len()).for_each(|c| shadow_ingest_pass(&mut rec, i, c))
            }
            _ => unreachable!("a training workload always has a history"),
        }
        shadow_rounds += 1;
    }

    // Reduce spans to the per-layer metrics.
    let ms = |name: &str| median(&rec.durations_ms(name));
    for op in ["forward", "backward", "sgd_step"] {
        for model in ["dense", "pruned"] {
            set(&format!("nn.{op}_ms.{model}"), ms(&format!("nn.{op}.{model}")));
        }
    }
    for bucket in RATIO_BUCKETS {
        set(&format!("fl.local.train_ms.{bucket}"), ms(&format!("fl.local.train.{bucket}")));
    }
    for op in ["plan", "extract", "residual", "recover"] {
        set(&format!("pruning.{op}_ms"), ms(&format!("pruning.{op}")));
    }
    set("bandit.select_observe_us", ms("bandit.select_observe") * 1e3);
    set("edgesim.simulate_round_us", ms("edgesim.simulate_round") * 1e3);
    set("edgesim.population_sample_ms", ms("edgesim.population_sample"));
    set("fl.aggregate.r2sp_ms", ms("fl.aggregate.r2sp"));
    set("fl.eval.image_ms", ms("fl.eval.image"));
    set("fl.wire.delivered_ms", ms("fl.wire.delivered"));
    set("fl.transport.template_json_ms", ms("fl.transport.template_json"));
    let dense_bytes = 4.0 * global_state.iter().map(|e| e.tensor.numel()).sum::<usize>() as f64;
    for (slug, codec) in CODECS {
        let frame_bytes = fedmp_fl::wire_size_v2(&global_state, codec) as f64;
        let mb_s = |bytes: f64, ms: f64| if ms > 0.0 { bytes / 1e6 / (ms / 1e3) } else { 0.0 };
        set(
            &format!("fl.wire.encode_mb_s.{slug}"),
            mb_s(dense_bytes, ms(&format!("fl.wire.encode.{slug}"))),
        );
        set(
            &format!("fl.wire.decode_mb_s.{slug}"),
            mb_s(frame_bytes, ms(&format!("fl.wire.decode.{slug}"))),
        );
        set(&format!("fl.wire.frame_bytes.{slug}"), frame_bytes);
    }
    let numel = dense_bytes / 4.0;
    let fold_ms = ms("fl.hierarchy.fold");
    set("fl.hierarchy.fold_ns_per_param", fold_ms * 1e6 / numel);
    set("fl.hierarchy.merge_ms", ms("fl.hierarchy.merge"));
    set("fl.hierarchy.finalize_ms", ms("fl.hierarchy.finalize"));
    set("fl.hierarchy.hpar_encode_ms", ms("fl.hierarchy.hpar_encode"));
    set("fl.hierarchy.hpar_decode_ms", ms("fl.hierarchy.hpar_decode"));
    // The engine's own ShardReduced accounting where it emits one;
    // otherwise the accumulator plus one decoded f32 snapshot in flight.
    let acc_bytes = (numel as usize * ExactSum::state_bytes()) as f64;
    set(
        "fl.hierarchy.shard_peak_bytes",
        if shard_peak > 0 { shard_peak as f64 } else { acc_bytes + dense_bytes },
    );
    // Bytes a fold must touch (the f32 snapshot plus the accumulator)
    // per second, against a plain copy of an accumulator-sized buffer.
    let memcpy_bytes_s = acc_bytes / (ms("probe.memcpy") / 1e3);
    set(
        "fl.hierarchy.bandwidth_roofline_ratio",
        (dense_bytes + acc_bytes) / (fold_ms / 1e3) / memcpy_bytes_s,
    );

    // What a round costs according to the probed layers alone: calls the
    // engine fans out are split over the pinned threads, the rest run on
    // the caller. The share of the untraced round no layer explains is
    // the driver's own.
    let round_wall = plain_wall / rounds;
    let mut modelled = Vec::new();
    let mut fold_shares = Vec::new();
    for repeat in 1..=shadow_rounds {
        let (mut fanned, mut serial, mut round_spans) = (0.0, 0.0, 0);
        for s in rec.spans().iter().filter(|s| s.repeat == repeat) {
            let parent = s.parent.map(|p| rec.spans()[p].name.as_str());
            match parent {
                Some("worker") => fanned += s.duration_ns() as f64 / 1e9,
                Some("round") if s.name != "worker" => serial += s.duration_ns() as f64 / 1e9,
                None if s.name == "round" => round_spans += 1,
                _ => {}
            }
        }
        // A ps_ingest shadow repeat holds one `round` span per codec pass.
        modelled.push((fanned / PINNED_THREADS as f64 + serial) / round_spans as f64);
        fold_shares
            .push(rec.total_s_in(repeat, "fl.hierarchy.fold") / rec.total_s_in(repeat, "round"));
    }
    set("driver.unattributed_share", 1.0 - median(&modelled) / round_wall);
    set("fl.hierarchy.fold_share", median(&fold_shares));

    let spans_path = out_dir().join(format!("{}.spans.jsonl", w.name()));
    rec.write_jsonl(&spans_path, w.name()).expect("span file is writable");
    TraceReport {
        args,
        per_layer: layer,
        shadow_rounds,
        span_count: rec.spans().len(),
        attempted,
        failed,
    }
}

impl TraceReport {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn print_table(&self) {
        println!(
            "workload {}  seed {}  traced: {} shadow rounds, {} spans{}",
            self.args.workload.name(),
            self.args.seed,
            self.shadow_rounds,
            self.span_count,
            if self.args.smoke { "  (smoke)" } else { "" }
        );
        for (name, unit, _) in per_layer() {
            println!("  {:<42} {:>16.6} {}", name, self.per_layer[&name], unit);
        }
        println!("  attempted {}  failed {}", self.attempted, self.failed);
    }

    fn metric_rows(&self) -> Vec<(String, Value)> {
        per_layer()
            .into_iter()
            .map(|(name, unit, _)| {
                let row = json!({"value": self.per_layer[&name], "unit": unit});
                (name, row)
            })
            .collect()
    }

    /// This workload's per-layer block of the result file.
    pub fn to_json(&self) -> Value {
        json!({
            "schema": SCHEMA,
            "kind": "per_layer",
            "workload": self.args.workload.name(),
            "smoke": self.args.smoke,
            "host": host_block(self.args.seed),
            "traced": {
                "shadow_rounds": self.shadow_rounds, "spans": self.span_count,
                "attempted": self.attempted, "failed": self.failed,
            },
            "per_layer": Value::Object(self.metric_rows()),
        })
    }

    /// The driver's last line: every per-layer metric.
    pub fn driver_line(&self) -> Value {
        json!({
            "correct": self.correct(), "attempted": self.attempted, "failed": self.failed,
            "metrics": Value::Object(self.metric_rows()),
        })
    }
}

// ---- ratio buckets ---------------------------------------------------------

/// Terciles of the pruning ratios the engine recorded, so
/// `fl.local.train_ms` can be read per low / middle / high ratio.
struct Buckets {
    cuts: [f32; 2],
    median: f32,
}

impl Buckets {
    fn of(history: Option<&RunHistory>) -> Buckets {
        let mut ratios: Vec<f32> =
            history.iter().flat_map(|h| &h.rounds).flat_map(|r| r.ratios.iter().copied()).collect();
        if ratios.is_empty() {
            return Buckets { cuts: [0.0, 0.0], median: 0.0 };
        }
        ratios.sort_by(f32::total_cmp);
        let at = |q: usize| ratios[(ratios.len() * q / 3).min(ratios.len() - 1)];
        Buckets { cuts: [at(1), at(2)], median: ratios[ratios.len() / 2] }
    }

    fn name(&self, ratio: f32) -> &'static str {
        match ratio {
            r if r <= self.cuts[0] => RATIO_BUCKETS[0],
            r if r <= self.cuts[1] => RATIO_BUCKETS[1],
            _ => RATIO_BUCKETS[2],
        }
    }
}

// ---- micro-probes ----------------------------------------------------------

/// Bandit, Eq. 5 clock and cohort sampling: expected negligible, listed
/// so that "negligible" is a number.
fn probe_sim(rec: &mut Recorder, seed: u64) {
    rec.span("probe.sim", |rec| {
        let mut agent = EUcbAgent::new(EUcbConfig { seed, ..Default::default() });
        let reward = RewardConfig::default();
        let population = fedmp_edgesim::Population::new(
            crate::workloads::POPULATION,
            seed,
            fedmp_edgesim::HeterogeneityLevel::Medium,
        );
        let device = population.device(0);
        let time = fedmp_edgesim::TimeModel::default();
        let cost = RoundCost { train_flops: 1e9, download_bytes: 1e6, upload_bytes: 1e6 };
        let mut rng = seeded_rng(seed);
        for i in 0..MICRO_ITERS * 8 {
            rec.span("bandit.select_observe", |_| {
                let arm = agent.select();
                agent.observe(eucb_reward(0.1 * arm, 1.0 + arm as f64, 1.2, &reward));
            });
            rec.span("edgesim.simulate_round", |_| {
                black_box(time.round_time(&device, &cost, &mut rng))
            });
            if i % 8 == 0 {
                rec.span("edgesim.population_sample", |_| {
                    black_box(population.sample_cohort(i, COHORT))
                });
            }
        }
    });
}

/// Every codec's encode and decode on the workload's global state
/// (perturbed, so delta codecs have a delta to carry).
fn probe_wire(rec: &mut Recorder, reference: &[StateEntry], seed: u64) {
    rec.span("probe.wire", |rec| {
        let state = perturbed(reference, seed ^ 0x00C0_DEC5);
        for (slug, codec) in CODECS {
            let mut feedback = ErrorFeedback::new();
            for _ in 0..MICRO_ITERS {
                let frame = rec.span(&format!("fl.wire.encode.{slug}"), |_| {
                    encode_state_v2(&state, codec, Some(reference), Some(&mut feedback))
                });
                rec.span(&format!("fl.wire.decode.{slug}"), |_| {
                    black_box(decode_state_v2(&frame, Some(reference)).expect("own frame decodes"))
                });
            }
        }
        for _ in 0..MICRO_ITERS {
            rec.span("fl.wire.delivered", |_| {
                black_box(codec_delivered(&state, CODECS[4].1, Some(reference), None))
            });
        }
    });
}

/// The exact-accumulation algebra on one full-model snapshot, and the
/// plain-copy bandwidth it is judged against.
fn probe_exact_algebra(rec: &mut Recorder, state: &[StateEntry]) {
    rec.span("probe.exact", |rec| {
        let mut acc = ExactState::like(state);
        let mut other = ExactState::like(state);
        other.fold(state);
        for _ in 0..MICRO_ITERS {
            rec.span("fl.hierarchy.fold", |_| acc.fold(state));
            rec.span("fl.hierarchy.merge", |_| acc.merge(&other));
            rec.span("fl.hierarchy.finalize", |_| black_box(acc.finalize(MICRO_ITERS)));
            let frame = rec.span("fl.hierarchy.hpar_encode", |_| acc.encode());
            rec.span("fl.hierarchy.hpar_decode", |_| {
                black_box(
                    ExactState::decode(&frame, &other).expect("own HPar frame is well-formed"),
                )
            });
        }
        let src = vec![1u8; acc.tracked_bytes()];
        let mut dst = vec![0u8; src.len()];
        for _ in 0..MICRO_ITERS {
            rec.span("probe.memcpy", |_| dst.copy_from_slice(black_box(&src)));
            black_box(&mut dst);
        }
    });
}

/// One batch through the dense model and the median-ratio sub-model.
fn probe_nn(rec: &mut Recorder, global: &Sequential, task: &ImageTask, cfg: &FlConfig, ratio: f32) {
    rec.span("probe.nn", |rec| {
        with_nested_sequential(|| {
            let plan = plan_sequential_with(global, task.input_chw, ratio, Importance::L1);
            let (x, labels) = task.train.gather(&task.partition[0][..cfg.local.batch]);
            for (label, mut model) in
                [("dense", global.clone()), ("pruned", extract_sequential(global, &plan))]
            {
                let mut opt = Sgd::with_momentum(cfg.local.lr, cfg.local.momentum, 0.0);
                for _ in 0..MICRO_ITERS {
                    model.zero_grad();
                    let logits =
                        rec.span(&format!("nn.forward.{label}"), |_| model.forward(&x, true));
                    let out = cross_entropy_loss(&logits, &labels);
                    rec.span(&format!("nn.backward.{label}"), |_| {
                        black_box(model.backward(&out.grad_logits))
                    });
                    rec.span(&format!("nn.sgd_step.{label}"), |_| opt.step(&mut model));
                }
            }
        })
    });
}

// ---- shadow rounds ---------------------------------------------------------

fn batches<'a>(task: &'a ImageTask, shard: usize, cfg: &FlConfig, stream: u64) -> BatchIter<'a> {
    BatchIter::new(
        &task.train,
        task.partition[shard].clone(),
        cfg.local.batch,
        seeded_rng(cfg.seed ^ stream),
    )
}

struct Pruned {
    plan: PrunePlan,
    residual: Vec<StateEntry>,
}

fn plan_and_residual(
    rec: &mut Recorder,
    global: &Sequential,
    task: &ImageTask,
    ratio: f32,
) -> Pruned {
    let plan = rec.span("pruning.plan", |_| {
        plan_sequential_with(global, task.input_chw, ratio, Importance::L1)
    });
    let residual =
        rec.span("pruning.residual", |_| state_sub(&global.state(), &sparse_state(global, &plan)));
    Pruned { plan, residual }
}

/// One `run_fedmp` round from outside. With `sockets`, the round the
/// socket runtime makes instead: the PS plans and forms residuals
/// serially, and every model crosses as a v1 frame plus the sub-model
/// template as JSON in the dispatch control section.
fn shadow_flat_round(
    rec: &mut Recorder,
    f: &FlatInputs,
    record: &RoundRecord,
    buckets: &Buckets,
    sockets: bool,
) {
    let (global, task, cfg) = (&f.built.model, &f.built.task, &f.spec.fl);
    rec.span("round", |rec| {
        let mut pruned: Vec<Option<Pruned>> = record
            .ratios
            .iter()
            .map(|&ratio| sockets.then(|| plan_and_residual(rec, global, task, ratio)))
            .collect();
        let mut trained = Vec::new();
        for (w, &ratio) in record.ratios.iter().enumerate() {
            let ps_side = pruned[w].take();
            trained.push(rec.span("worker", |rec| {
                with_nested_sequential(|| {
                    let p = ps_side.unwrap_or_else(|| plan_and_residual(rec, global, task, ratio));
                    let mut sub =
                        rec.span("pruning.extract", |_| extract_sequential(global, &p.plan));
                    if sockets {
                        let frame = rec.span("fl.wire.encode.v1", |_| encode_state(&sub.state()));
                        sub = rec.span("fl.transport.template_json", |_| {
                            let json = serde_json::to_vec(&sub).expect("template serialises");
                            serde_json::from_slice(&json).expect("template parses")
                        });
                        let state = rec.span("fl.wire.decode.v1", |_| {
                            decode_state_v2(&frame, None).expect("own frame")
                        });
                        sub.load_state(&state);
                    }
                    let mut it = batches(task, w, cfg, (record.round * 1000 + w) as u64);
                    let bucket = buckets.name(ratio);
                    rec.span(&format!("fl.local.train.{bucket}"), |_| {
                        local_train(&mut sub, &mut it, &cfg.local)
                    });
                    if sockets {
                        let frame = rec.span("fl.wire.encode.v1", |_| encode_state(&sub.state()));
                        rec.span("fl.wire.checksum", |_| assert!(frame_checksum_ok(&frame)));
                        let state = rec.span("fl.wire.decode.v1", |_| {
                            decode_state_v2(&frame, None).expect("own frame")
                        });
                        sub.load_state(&state);
                    }
                    (sub, p)
                })
            }));
        }
        let recovered: Vec<Vec<StateEntry>> = trained
            .iter()
            .map(|(sub, p)| rec.span("pruning.recover", |_| recover_state(sub, &p.plan, global)))
            .collect();
        let residuals: Vec<Vec<StateEntry>> =
            trained.into_iter().map(|(_, p)| p.residual).collect();
        let new_state = rec.span("fl.aggregate.r2sp", |_| r2sp_aggregate(&recovered, &residuals));
        let mut next = global.clone();
        next.load_state(&new_state);
        rec.span("fl.eval.image", |_| {
            black_box(evaluate_image(&mut next, &task.test, cfg.eval_batch, cfg.eval_max_samples))
        });
    });
}

/// One `run_fedmp_hier` round from outside: per-class plans on the
/// caller, the cohort streamed through shard reducers (the fan-out),
/// shard → edge → cloud merges, one finalize.
fn shadow_hier_round(rec: &mut Recorder, h: &HierInputs, record: &RoundRecord, buckets: &Buckets) {
    let (global, task, cfg) = (&h.built.model, &h.built.task, &h.spec.fl);
    let pair = h.opts.compression.fast;
    rec.span("round", |rec| {
        let cohort = rec.span("edgesim.population_sample", |_| {
            h.population.sample_cohort(record.round, COHORT)
        });
        struct Class {
            ratio: f32,
            device: DeviceProfile,
            pruned: Pruned,
            sub: Sequential,
            received: Vec<StateEntry>,
        }
        let mut classes: BTreeMap<usize, Class> = BTreeMap::new();
        for (&id, &ratio) in cohort.iter().zip(&record.ratios) {
            let device = h.population.device(id);
            classes.entry(class_of(&device)).or_insert_with(|| {
                let pruned = plan_and_residual(rec, global, task, ratio);
                let mut sub =
                    rec.span("pruning.extract", |_| extract_sequential(global, &pruned.plan));
                let received = rec.span("fl.wire.delivered", |_| {
                    codec_delivered(&sub.state(), pair.downlink, None, None)
                });
                sub.load_state(&received);
                Class { ratio, device, pruned, sub, received }
            });
        }
        let template = global.state();
        let mut shards = Vec::new();
        for s in 0..SHARDS {
            shards.push(rec.span("worker", |rec| {
                with_nested_sequential(|| {
                    let mut acc = ExactState::like(&template);
                    for &id in &cohort[s * COHORT / SHARDS..(s + 1) * COHORT / SHARDS] {
                        let class = &classes[&class_of(&h.population.device(id))];
                        let mut sub = class.sub.clone();
                        let mut it = batches(task, (id % task.workers() as u64) as usize, cfg, id);
                        let bucket = buckets.name(class.ratio);
                        rec.span(&format!("fl.local.train.{bucket}"), |_| {
                            local_train(&mut sub, &mut it, &cfg.local)
                        });
                        let delivered = rec.span("fl.wire.delivered", |_| {
                            codec_delivered(&sub.state(), pair.uplink, Some(&class.received), None)
                        });
                        sub.load_state(&delivered);
                        let cost = rec.span("nn.model_cost", |_| {
                            let report = model_cost(&sub, task.input_chw);
                            RoundCost {
                                train_flops: report.train_flops_per_sample() as f64,
                                download_bytes: report.param_bytes() as f64,
                                upload_bytes: report.param_bytes() as f64,
                            }
                        });
                        rec.span("edgesim.simulate_round", |_| {
                            black_box(h.built.time.round_time(
                                &class.device,
                                &cost,
                                &mut seeded_rng(id),
                            ))
                        });
                        let recovered = rec.span("pruning.recover", |_| {
                            recover_state(&sub, &class.pruned.plan, global)
                        });
                        let completed = rec.span("nn.state_add", |_| {
                            state_add(&recovered, &class.pruned.residual)
                        });
                        rec.span("fl.hierarchy.fold", |_| acc.fold(&completed));
                    }
                    acc
                })
            }));
        }
        let mut cloud = ExactState::like(&template);
        for e in 0..EDGES {
            let mut edge = ExactState::like(&template);
            for shard in &shards[e * SHARDS / EDGES..(e + 1) * SHARDS / EDGES] {
                rec.span("fl.hierarchy.merge", |_| edge.merge(shard));
            }
            rec.span("fl.hierarchy.merge", |_| cloud.merge(&edge));
        }
        let mean = rec.span("fl.hierarchy.finalize", |_| cloud.finalize(COHORT));
        if record.eval.is_some() {
            let mut next = global.clone();
            next.load_state(&mean);
            rec.span("fl.eval.image", |_| {
                black_box(evaluate_image(
                    &mut next,
                    &task.test,
                    cfg.eval_batch,
                    cfg.eval_max_samples,
                ))
            });
        }
    });
}

/// One codec pass of `ps_ingest` with a span around every public call.
/// Nothing here fans out: the one PS thread does it all.
fn shadow_ingest_pass(rec: &mut Recorder, i: &IngestInputs, codec_index: usize) {
    let (slug, codec) = CODECS[codec_index];
    rec.span("round", |rec| {
        let mut feedback = ErrorFeedback::new();
        for c in 0..i.sizes.encode_clients {
            rec.span(&format!("fl.wire.encode.{slug}"), |_| {
                black_box(encode_state_v2(
                    &i.pool[c % INGEST_POOL],
                    codec,
                    Some(&i.reference),
                    Some(&mut feedback),
                ))
            });
        }
        let clients = i.sizes.ingest_clients;
        let template = ExactState::like(&i.reference);
        let mut shards = vec![template.clone(); INGEST_SHARDS];
        for c in 0..clients {
            let frame = &i.frames[codec_index][c % INGEST_POOL];
            rec.span("fl.wire.checksum", |_| assert!(frame_checksum_ok(frame)));
            let state = rec.span(&format!("fl.wire.decode.{slug}"), |_| {
                decode_state_v2(frame, Some(&i.reference)).expect("own frame decodes")
            });
            rec.span("fl.hierarchy.fold", |_| shards[c * INGEST_SHARDS / clients].fold(&state));
        }
        let mut cloud = template.clone();
        for e in 0..INGEST_EDGES {
            let mut edge = template.clone();
            for shard in
                &shards[e * INGEST_SHARDS / INGEST_EDGES..(e + 1) * INGEST_SHARDS / INGEST_EDGES]
            {
                rec.span("fl.hierarchy.merge", |_| edge.merge(shard));
            }
            let frame = rec.span("fl.hierarchy.hpar_encode", |_| edge.encode());
            let partial =
                rec.span("fl.hierarchy.hpar_decode", |_| ExactState::decode(&frame, &template));
            let partial =
                partial.expect("own HPar frame is well-formed").expect("own HPar frame verifies");
            rec.span("fl.hierarchy.merge", |_| cloud.merge(&partial));
        }
        rec.span("fl.hierarchy.finalize", |_| black_box(cloud.finalize(clients)));
    });
}
