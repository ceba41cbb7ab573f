//! Wire frames are the same bytes on both kernel paths: every codec's
//! frame encoded under `SimdPath::Scalar` equals the one encoded under
//! `SimdPath::Avx2`.
//!
//! These tests flip the process-global `simd::override_path`, so they
//! live in their own binary: in the `fedmp-fl` lib test binary they ran
//! beside unit tests that train models and compare bits. The
//! `#[ignore]`d proof runs only under `--ignored`, never beside the
//! sampled test:
//!
//! ```text
//! cargo test --release -p fedmp-fl --test kernel_paths -- --ignored
//! ```

use fedmp_fl::{decode_state_v2, encode_state, encode_state_v2, Codec, ErrorFeedback};
use fedmp_nn::{zoo, StateEntry};
use fedmp_tensor::simd::{override_path, SimdPath};
use fedmp_tensor::{seeded_rng, Tensor};

const ALL_CODECS: [Codec; 5] = [
    Codec::DenseF32,
    Codec::DenseF16,
    Codec::Int8,
    Codec::TopK { keep: 0.25 },
    Codec::TopKInt8 { keep: 0.25 },
];

#[test]
fn frames_are_the_same_bytes_on_every_kernel_path() {
    // A model state plus one entry of the values a kernel can get
    // wrong — NaNs with payloads, ±∞, ±0, subnormals, f16 and int8
    // rounding ties — 21 long, so the eight-value steps leave a tail.
    let mut rng = seeded_rng(262);
    let mut state = zoo::cnn_mnist(0.1, &mut rng).state();
    let mut reference = zoo::cnn_mnist(0.1, &mut rng).state();
    let odd = [
        f32::from_bits(0x7F80_0001),
        f32::from_bits(0xFFC1_2345),
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        f32::from_bits(1),
        -f32::MIN_POSITIVE,
        1.0 + f32::EPSILON * 4096.0,
        65_520.0,
        -2.5,
        0.5,
        1.5,
        -3.0e-8,
        6.1e-5,
        7.0,
        -127.5,
        126.5,
        1.0e-3,
        -0.75,
        3.0,
    ];
    let entry = |v: Vec<f32>| StateEntry::trainable("odd", Tensor::from_vec(v, &[21]).expect("21"));
    state.push(entry(odd.to_vec()));
    reference.push(entry(odd.iter().map(|v| v * 0.5).collect()));
    let frames = |path| {
        override_path(Some(path));
        let mut out = Vec::new();
        for codec in ALL_CODECS {
            out.push(encode_state_v2(&state, codec, Some(&reference), None));
            let mut ef = ErrorFeedback::new();
            for _ in 0..2 {
                out.push(encode_state_v2(&state, codec, Some(&reference), Some(&mut ef)));
            }
            let decoded = decode_state_v2(out.last().expect("a frame"), Some(&reference));
            out.push(encode_state(&decoded.expect("own frame decodes")));
        }
        override_path(None);
        out
    };
    let scalar = frames(SimdPath::Scalar);
    let fast = frames(SimdPath::Avx2);
    for (i, (a, b)) in scalar.iter().zip(&fast).enumerate() {
        assert!(a == b, "frame {i} ({}) differs", ALL_CODECS[i / 4].label());
    }
}

#[test]
#[ignore = "exhaustive over 2^32 inputs; run in release"]
fn int8_frames_are_the_same_bytes_on_every_kernel_path_for_every_f32() {
    // Every f32 bit pattern, 2^16 consecutive ones to an entry, so the
    // int8 scale (the entry's max |v| / 127) takes 2^16 values where
    // `fedmp-tensor`'s exhaustive proof holds it at 1.
    let frame = |path, state: &[StateEntry]| {
        override_path(Some(path));
        encode_state_v2(state, Codec::Int8, None, None)
    };
    for hi in 0..=u32::from(u16::MAX) {
        let values = (0..=u32::from(u16::MAX)).map(|lo| f32::from_bits(hi << 16 | lo)).collect();
        let state =
            [StateEntry::trainable("w", Tensor::from_vec(values, &[1 << 16]).expect("2^16"))];
        assert!(
            frame(SimdPath::Scalar, &state) == frame(SimdPath::Avx2, &state),
            "entry {hi:#06x}"
        );
    }
    override_path(None);
}
