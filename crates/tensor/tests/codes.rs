//! The slice conversions of `fedmp_tensor::codes` on the fast path
//! (F16C for f16, AVX2 for int8) against the per-value functions they
//! replace, which stay the portable path and the oracle.
//!
//! The `#[ignore]`d proofs walk every input — all 2³² `f32` bit
//! patterns for f16 encode and for int8 at scale 1, all 2¹⁶ halves for
//! f16 decode — and take seconds in release:
//!
//! ```text
//! cargo test --release -p fedmp-tensor --test codes -- --ignored
//! ```
//!
//! The default suite runs sampled twins of each: every exponent, sign
//! and top mantissa bits, the rounding ties, NaNs with payloads,
//! infinities and zeros, and, for int8, a spread of scales.
//!
//! Every test here selects [`SimdPath::Avx2`] and none selects anything
//! else, so tests running side by side never flip each other's path. On
//! a host without the instructions the dispatch stays on the portable
//! path, and the tests compare it with itself.

use fedmp_tensor::simd::{override_path, SimdPath};
use fedmp_tensor::{
    f16_bits_to_f32, f16_le_to_f32s, f32_to_f16_bits, f32s_to_f16_le, int8_code, int8_codes,
};

/// Halves as the wire carries them: two little-endian bytes each.
fn le_bytes(halves: &[u16]) -> Vec<u8> {
    halves.iter().flat_map(|h| h.to_le_bytes()).collect()
}

/// Values per slice call: a multiple of 8 plus a tail, so both the
/// kernel and the scalar tail see inputs.
const CHUNK: usize = (1 << 16) + 5;

/// Checks the slice conversion of `bits` (as `f32`s) against the
/// per-value oracles: f16 encode, and int8 at each of `scales`.
fn check_f32_inputs(bits: &[u32], scales: &[f32]) {
    override_path(Some(SimdPath::Avx2));
    let src: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
    let mut half = vec![0u8; 2 * src.len()];
    f32s_to_f16_le(&src, &mut half);
    for (&v, h) in src.iter().zip(half.chunks_exact(2)) {
        let (h, want) = (u16::from_le_bytes([h[0], h[1]]), f32_to_f16_bits(v));
        assert_eq!(h, want, "f16 encode of {:#010x}: {h:#06x}, oracle {want:#06x}", v.to_bits());
    }
    let mut codes = vec![0i8; src.len()];
    for &scale in scales {
        int8_codes(&src, scale, &mut codes);
        for (&v, &c) in src.iter().zip(&codes) {
            let want = int8_code(v, scale);
            assert_eq!(
                c,
                want,
                "int8 of {:#010x} at scale {scale:e}: {c}, oracle {want}",
                v.to_bits()
            );
        }
    }
}

/// Checks the slice f16 decode of `halves` against the per-value
/// oracle, bit for bit.
fn check_f16_inputs(halves: &[u16]) {
    override_path(Some(SimdPath::Avx2));
    let mut out = vec![0f32; halves.len()];
    f16_le_to_f32s(&le_bytes(halves), &mut out);
    for (&h, &v) in halves.iter().zip(&out) {
        let want = f16_bits_to_f32(h).to_bits();
        assert_eq!(
            v.to_bits(),
            want,
            "f16 decode of {h:#06x}: {:#010x}, oracle {want:#010x}",
            v.to_bits()
        );
    }
}

#[test]
#[ignore = "exhaustive over 2^32 inputs; run in release"]
fn f16_encode_and_int8_equal_their_oracles_on_every_f32() {
    let mut bits: Vec<u32> = Vec::with_capacity(CHUNK);
    let mut next = 0u64;
    while next <= u64::from(u32::MAX) {
        let end = (next + CHUNK as u64).min(1 << 32);
        bits.clear();
        bits.extend((next..end).map(|b| b as u32));
        check_f32_inputs(&bits, &[1.0]);
        next = end;
    }
}

#[test]
#[ignore = "exhaustive over 2^16 inputs; run with the other proofs"]
fn f16_decode_equals_its_oracle_on_every_half() {
    let halves: Vec<u16> = (0..=u16::MAX).collect();
    check_f16_inputs(&halves);
}

/// Every sign, exponent and top 16 bits of mantissa, each with low
/// halves at and around the f16 rounding ties and a few others: the
/// cases where a rounding rule or a class test can go wrong.
fn sampled_f32_bits() -> Vec<u32> {
    const LOW: [u32; 9] = [0, 1, 0x0FFF, 0x1000, 0x1001, 0x2000, 0x7FFF, 0x8000, 0xFFFF];
    let mut bits = Vec::with_capacity((1 << 16) * LOW.len() + 4096);
    for hi in 0..=u32::from(u16::MAX) {
        bits.extend(LOW.iter().map(|&lo| hi << 16 | lo));
    }
    // NaNs with payloads in every bit, either sign, signalling or quiet.
    for bit in 0..23 {
        for sign in [0, 0x8000_0000] {
            bits.push(sign | 0x7F80_0000 | 1 << bit);
            bits.push(sign | 0x7FC0_0000 | 1 << bit);
        }
    }
    bits
}

/// Values at and beside every half-integer quotient up to ±130 (the
/// int8 rounding and clamp boundaries), at scale 1.
fn half_integer_neighbours() -> Vec<u32> {
    let mut bits = Vec::new();
    for k in -260i32..=260 {
        let v = k as f32 * 0.5;
        for b in [v.to_bits().wrapping_sub(1), v.to_bits(), v.to_bits().wrapping_add(1)] {
            bits.push(b);
        }
    }
    bits
}

#[test]
fn f16_encode_and_int8_equal_their_oracles_on_sampled_f32s() {
    let scales = [
        1.0,
        0.5,
        1.0 / 127.0,
        3.7e-3,
        1.0e30 / 127.0,
        f32::MIN_POSITIVE,
        f32::from_bits(1),
        0.0,
        f32::INFINITY,
    ];
    let mut bits = sampled_f32_bits();
    bits.extend(half_integer_neighbours());
    for chunk in bits.chunks(CHUNK) {
        check_f32_inputs(chunk, &scales);
    }
}

#[test]
fn f16_decode_equals_its_oracle_on_sampled_halves() {
    // Every NaN and infinity, every subnormal, and a stride through the
    // normals.
    let halves: Vec<u16> = (0..=u16::MAX)
        .filter(|h| {
            let exp = (h >> 10) & 0x1F;
            exp == 0 || exp == 31 || h % 7 == 0
        })
        .collect();
    check_f16_inputs(&halves);
}

#[test]
fn every_tail_length_takes_the_oracle_too() {
    // Lengths 0..=19 at offsets 0..8: whole steps, a tail, or only a
    // tail, each starting off an 8-value boundary.
    let src: Vec<f32> = (0..27).map(|i| (i as f32 - 13.3) * 1.7).collect();
    let halves: Vec<u16> = src.iter().map(|&v| f32_to_f16_bits(v)).collect();
    override_path(Some(SimdPath::Avx2));
    for off in 0..8 {
        for len in 0..20 {
            let s = &src[off..off + len];
            let mut h = vec![0u8; 2 * len];
            f32s_to_f16_le(s, &mut h);
            assert_eq!(h, le_bytes(&halves[off..off + len]), "encode, offset {off} length {len}");
            let mut back = vec![0f32; len];
            f16_le_to_f32s(&h, &mut back);
            let want: Vec<f32> =
                halves[off..off + len].iter().map(|&x| f16_bits_to_f32(x)).collect();
            assert_eq!(back, want, "decode, offset {off} length {len}");
            let mut codes = vec![0i8; len];
            int8_codes(s, 0.25, &mut codes);
            let want: Vec<i8> = s.iter().map(|&v| int8_code(v, 0.25)).collect();
            assert_eq!(codes, want, "int8, offset {off} length {len}");
        }
    }
}
