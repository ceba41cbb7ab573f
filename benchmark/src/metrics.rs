//! The fixed metric and workload tables: every name, unit, direction and
//! regression bound the benchmark reports. `../BENCHMARK.json` restates
//! the subset the PR driver gates on; a test keeps the two in step.

use fedmp_fl::Codec;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How far a metric's median may worsen before `compare` calls it a
/// regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the parent's median.
    Share(f64),
    /// Deterministic per seed: any difference is a behaviour change.
    Exact,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
    /// One of the metrics `BENCHMARK.json` hands the PR driver, which
    /// wants each defined and non-zero on all four workloads and its
    /// inter-quartile spread over ten seeds inside the bound. The others
    /// are `null` on some workload, exactly 0, a per-seed constant, or —
    /// every wall-clock metric on this shared host, where bursts of
    /// steal stretch wall by 30-50 % for minutes while CPU time moves
    /// ~15 % — too unsteady; they live in the result files only.
    pub gated: bool,
}

const fn share(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    gated: bool,
) -> MetricDef {
    MetricDef { name, unit, better, bound: Bound::Share(bound), gated }
}

const fn exact(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower, bound: Bound::Exact, gated: false }
}

/// Every end-to-end metric, in report order.
pub const END_TO_END: [MetricDef; 12] = [
    share("setup_s", "s", Better::Lower, 0.25, true),
    share("round_wall_s", "s", Better::Lower, 0.25, false),
    share("cpu_s_per_round", "s", Better::Lower, 0.25, true),
    share("client_updates_per_s", "1/s", Better::Higher, 0.25, false),
    share("peak_rss_mb", "MB", Better::Lower, 0.25, false),
    share("train_samples_per_s", "1/s", Better::Higher, 0.25, false),
    share("ingest_mb_per_s", "MB/s", Better::Higher, 0.25, false),
    share("encode_mb_per_s", "MB/s", Better::Higher, 0.25, false),
    share("wall_to_target_s", "s", Better::Lower, 0.25, false),
    exact("rounds_to_target", "count"),
    exact("sim_to_target_s", "s"),
    exact("failed_share", "ratio"),
];

/// The four workloads and why each exists (one line, ≤ 200 chars — the
/// long form is in README.md).
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "flat_loop",
        "paper default: 10 workers, ratio 0.4, loop engine; tensor/nn kernels on the full model and its shape-shrunk sub-model, pruning and R2SP do the work, wire/transport/hierarchy none",
    ),
    (
        "flat_sockets",
        "same spec, seed and arithmetic over real Unix sockets: any gap to flat_loop is fl.runtime + fl.transport + framing; history must hash-equal flat_loop's",
    ),
    (
        "hier_compressed",
        "AlexNet, cohort 32 of 1e5 devices, ratio 0.4, f16 down / top-k int8 up: per-class plans, streaming ExactState fold, codecs on every client, FC-heavy shapes",
    ),
    (
        "ps_ingest",
        "no training: encode, then checksum+decode+ExactState fold/merge/finalize over all five codecs; fl.wire and fl.hierarchy do the work, kernels none",
    ),
];

/// The five wire codecs under their metric-name slugs.
pub const CODECS: [(&str, Codec); 5] = [
    ("dense-f32", Codec::DenseF32),
    ("dense-f16", Codec::DenseF16),
    ("int8", Codec::Int8),
    ("topk", Codec::TopK { keep: 0.1 }),
    ("topk-int8", Codec::TopKInt8 { keep: 0.1 }),
];

/// Per-layer metrics that are exact counts (compared with `==`).
pub const EXACT_LAYER_PREFIXES: [&str; 6] = [
    "tensor.gemm_calls_",
    "tensor.band_dispatches",
    "fl.wire.frame_bytes.",
    "fl.wire.uplink_bytes_per_round",
    "fl.wire.downlink_bytes_per_round",
    "fl.hierarchy.shard_peak_bytes",
];

/// `(name, unit, better)` of every per-layer metric, in report order.
/// Every traced run reports all of them; a layer a workload never
/// enters reads 0.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    use Better::{Higher, Lower};
    let mut out: Vec<(String, &'static str, Better)> = Vec::new();
    let mut add =
        |name: &str, unit: &'static str, better| out.push((name.to_string(), unit, better));
    for path in ["simd_dense", "simd_pruned", "scalar_dense", "scalar_pruned"] {
        add(&format!("tensor.gemm_calls_{path}"), "count", Lower);
    }
    add("tensor.band_dispatches", "count", Lower);
    for op in ["forward", "backward", "sgd_step"] {
        for model in ["dense", "pruned"] {
            add(&format!("nn.{op}_ms.{model}"), "ms", Lower);
        }
    }
    for bucket in RATIO_BUCKETS {
        add(&format!("fl.local.train_ms.{bucket}"), "ms", Lower);
    }
    for op in ["plan", "extract", "residual", "recover"] {
        add(&format!("pruning.{op}_ms"), "ms", Lower);
    }
    add("bandit.select_observe_us", "us", Lower);
    add("edgesim.simulate_round_us", "us", Lower);
    add("edgesim.population_sample_ms", "ms", Lower);
    add("fl.aggregate.r2sp_ms", "ms", Lower);
    add("fl.eval.image_ms", "ms", Lower);
    for (slug, _) in CODECS {
        add(&format!("fl.wire.encode_mb_s.{slug}"), "MB/s", Higher);
        add(&format!("fl.wire.decode_mb_s.{slug}"), "MB/s", Higher);
        add(&format!("fl.wire.frame_bytes.{slug}"), "bytes", Lower);
    }
    add("fl.wire.delivered_ms", "ms", Lower);
    add("fl.hierarchy.fold_ns_per_param", "ns", Lower);
    add("fl.hierarchy.merge_ms", "ms", Lower);
    add("fl.hierarchy.finalize_ms", "ms", Lower);
    add("fl.hierarchy.hpar_encode_ms", "ms", Lower);
    add("fl.hierarchy.hpar_decode_ms", "ms", Lower);
    add("fl.hierarchy.shard_peak_bytes", "bytes", Lower);
    add("fl.hierarchy.fold_share", "ratio", Lower);
    add("fl.hierarchy.bandwidth_roofline_ratio", "ratio", Higher);
    add("fl.runtime.tax_s_per_round", "s", Lower);
    add("fl.transport.tax_s_per_round", "s", Lower);
    add("fl.transport.cpu_ratio", "ratio", Lower);
    add("fl.transport.template_json_ms", "ms", Lower);
    add("fl.wire.uplink_bytes_per_round", "bytes", Lower);
    add("fl.wire.downlink_bytes_per_round", "bytes", Lower);
    add("fl.runtime.retransmits", "count", Lower);
    add("fl.runtime.exclusions", "count", Lower);
    add("obs.trace_overhead_share", "ratio", Lower);
    add("driver.unattributed_share", "ratio", Lower);
    out
}

/// `fl.local.train_ms` is reported per tercile of the pruning ratios
/// the engine recorded: low, middle and high ratio.
pub const RATIO_BUCKETS: [&str; 3] = ["lo", "mid", "hi"];

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_valid_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _, _)| n));
        names.extend(WORKLOADS.iter().map(|(n, _)| n.to_string()));
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a metric or workload name is used twice");
        assert!(per_layer().len() <= 128);
        assert!(WORKLOADS.iter().all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
    }

    /// `BENCHMARK.json` is what the PR driver reads; this table is what
    /// the harness reports and `compare` judges by. They must agree.
    #[test]
    fn benchmark_json_restates_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");

        let listed: Vec<(String, String)> = doc["workloads"]
            .as_array()
            .expect("workloads")
            .iter()
            .map(|w| {
                (w["name"].as_str().unwrap().to_string(), w["why"].as_str().unwrap().to_string())
            })
            .collect();
        let ours: Vec<(String, String)> =
            WORKLOADS.iter().map(|(n, w)| (n.to_string(), w.to_string())).collect();
        assert_eq!(listed, ours);

        let gated: Vec<&MetricDef> = END_TO_END.iter().filter(|m| m.gated).collect();
        let e2e = doc["end_to_end"].as_array().expect("end_to_end");
        assert_eq!(e2e.len(), gated.len());
        for (row, def) in e2e.iter().zip(gated) {
            assert_eq!(row["name"], def.name);
            assert_eq!(row["unit"], def.unit);
            assert_eq!(row["better"], def.better.as_str());
            assert_eq!(Bound::Share(row["bound"].as_f64().unwrap()), def.bound, "{}", def.name);
        }

        let layers = doc["per_layer"].as_array().expect("per_layer");
        let ours = per_layer();
        assert_eq!(layers.len(), ours.len());
        for (row, (name, unit, better)) in layers.iter().zip(ours) {
            assert_eq!(row["name"], name.as_str());
            assert_eq!(row["unit"], unit);
            assert_eq!(row["better"], better.as_str());
        }
        assert_eq!(doc["paths"].as_array().unwrap().len(), 1);
        assert_eq!(doc["paths"][0], "benchmark");
    }
}
