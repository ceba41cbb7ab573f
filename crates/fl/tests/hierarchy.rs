//! Population-scale hierarchy: the aggregation algebra the engine
//! relies on. The engine's own bits — every (shards, edges) partition,
//! compression and chaos at both tiers — are pinned by the root
//! `tests/goldens.rs`.

use fedmp_fl::{average_states, ExactState};
use fedmp_nn::StateEntry;
use fedmp_tensor::Tensor;
use proptest::prelude::*;

/// Builds state snapshots from raw 10-value rows, two entries with odd
/// shapes each. Deterministic extremes are spliced in so every run
/// covers magnitude spread, exact-cancellation bait, subnormals and
/// zeros regardless of what the generator drew.
fn mk_states(raw: &[Vec<f32>]) -> Vec<Vec<StateEntry>> {
    raw.iter()
        .enumerate()
        .map(|(k, row)| {
            let mut v = row.clone();
            v.resize(10, 0.0);
            v[0] = if k % 2 == 0 { 1e8 } else { -1e8 };
            if k % 3 == 0 {
                v[1] = 1e-40;
            }
            if k % 4 == 0 {
                v[2] = 0.0;
            }
            vec![
                StateEntry::trainable("w", Tensor::from_vec(v[..6].to_vec(), &[2, 3]).expect("w")),
                StateEntry::trainable("b", Tensor::from_vec(v[6..].to_vec(), &[4]).expect("b")),
            ]
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Streaming the same client states through ANY (shards, edges)
    /// fan-in tree finalises bit-identically to the flat
    /// [`average_states`] call — the algebra `docs/SCALE.md` argues and
    /// the engines rely on.
    #[test]
    fn hierarchical_reduction_equals_flat_average(
        raw in prop::collection::vec(prop::collection::vec(-1e8f32..1e8, 10..11), 1..12),
        shards in 1usize..9,
        edges in 1usize..5,
    ) {
        let states = mk_states(&raw);
        let shards = shards.min(states.len());
        let edges = edges.min(shards);
        let flat = average_states(&states);

        // Shard tier: contiguous slices, streamed one state at a time.
        let mut shard_accs: Vec<ExactState> = Vec::new();
        for s in 0..shards {
            let lo = s * states.len() / shards;
            let hi = (s + 1) * states.len() / shards;
            let mut acc = ExactState::like(&states[0]);
            for st in &states[lo..hi] {
                acc.fold(st);
            }
            shard_accs.push(acc);
        }
        // Edge tier: merge contiguous shard ranges, then round-trip
        // each partial through its checksummed `HPar` wire frame.
        let template = ExactState::like(&states[0]);
        let mut cloud: Option<ExactState> = None;
        for e in 0..edges {
            let lo = e * shards / edges;
            let hi = (e + 1) * shards / edges;
            let mut merged = ExactState::like(&states[0]);
            for acc in &shard_accs[lo..hi] {
                merged.merge(acc);
            }
            let decoded = ExactState::decode(&merged.encode(), &template)
                .expect("well-formed frame")
                .expect("checksum must verify");
            prop_assert_eq!(&decoded, &merged, "wire round-trip changed the partial");
            match cloud.as_mut() {
                Some(c) => c.merge(&decoded),
                None => cloud = Some(decoded),
            }
        }
        let hier = cloud.expect("at least one edge").finalize(states.len());

        prop_assert_eq!(flat.len(), hier.len());
        for (f, h) in flat.iter().zip(hier.iter()) {
            prop_assert_eq!(&f.name, &h.name);
            for (a, b) in f.tensor.data().iter().zip(h.tensor.data()) {
                prop_assert_eq!(a.to_bits(), b.to_bits(),
                    "hier != flat: {} vs {}", a, b);
            }
        }
    }

    /// A corrupted frame never decodes: the checksum catches any
    /// single-byte flip (the transit-corruption model), so the PS
    /// always detects and re-requests rather than folding garbage.
    #[test]
    fn corrupted_frames_fail_the_checksum(
        raw in prop::collection::vec(prop::collection::vec(-1e8f32..1e8, 10..11), 1..2),
        flip in 0usize..1000,
        xor in 1u32..256,
    ) {
        let xor = xor as u8;
        let state = mk_states(&raw).pop().expect("one state");
        let mut acc = ExactState::like(&state);
        acc.fold(&state);
        let frame = acc.encode();
        let mut bytes = frame.to_vec();
        let at = flip % bytes.len();
        bytes[at] ^= xor;
        let template = ExactState::like(&state);
        let decoded = ExactState::decode(&bytes, &template);
        prop_assert!(
            !matches!(decoded, Ok(Some(_))),
            "a flipped byte at {} survived the checksum", at
        );
    }
}
