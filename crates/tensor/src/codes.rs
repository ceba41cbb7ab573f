//! The element codes of `fedmp-fl`'s lossy wire codecs: IEEE 754
//! binary16 bits and symmetric int8. Kept here, like [`crate::crc32c`],
//! because the fast paths need `unsafe` and this is the one crate
//! allowed it.
//!
//! Each slice function has two paths that return the same bits for
//! every input:
//!
//! * the x86 kernels in [`crate::simd`], eight values a step — F16C
//!   `vcvtps2ph` / `vcvtph2ps` for f16, an AVX2 divide-truncate-step
//!   quantiser for int8 — taken when the host has them and the
//!   `FEDMP_SIMD` selection is not `scalar`;
//! * the per-value functions here ([`f32_to_f16_bits`],
//!   [`f16_bits_to_f32`], [`int8_code`]) everywhere else and for the
//!   tail of a slice. They are the definition and the oracle: the
//!   `#[ignore]`d proofs in `tests/codes.rs` check the kernels against
//!   them over every input.

use crate::simd;

/// Converts an `f32` to IEEE 754 binary16 bits, rounding to nearest
/// with ties to even. Overflow saturates to ±Inf, underflow flushes to
/// signed zero through the subnormal range, and every NaN becomes the
/// quiet NaN `sign | 0x7E00`.
pub fn f32_to_f16_bits(v: f32) -> u16 {
    let bits = v.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let mant = bits & 0x007F_FFFF;
    if exp == 0xFF {
        // Inf / NaN: keep the class, quiet any NaN payload.
        return sign | 0x7C00 | if mant != 0 { 0x0200 } else { 0 };
    }
    let e = exp - 127;
    if e >= 16 {
        return sign | 0x7C00; // overflow → ±Inf
    }
    if e >= -14 {
        // Normal f16: round the 23-bit mantissa to 10 bits.
        let mut m = mant >> 13;
        let rem = mant & 0x1FFF;
        if rem > 0x1000 || (rem == 0x1000 && (m & 1) == 1) {
            m += 1;
        }
        let mut he = (e + 15) as u32;
        if m == 0x400 {
            // Rounded past 10 bits: carry into the exponent.
            m = 0;
            he += 1;
            if he >= 31 {
                return sign | 0x7C00;
            }
        }
        return sign | ((he as u16) << 10) | (m as u16);
    }
    if e >= -25 {
        // Subnormal f16: shift the implicit leading 1 into the mantissa.
        let full = mant | 0x0080_0000;
        let shift = (13 - 14 - e) as u32;
        let mut m = full >> shift;
        let half = 1u32 << (shift - 1);
        let rem = full & ((1u32 << shift) - 1);
        if rem > half || (rem == half && (m & 1) == 1) {
            m += 1;
        }
        // A carry out of the subnormal range lands exactly on the
        // smallest normal encoding (0x0400), which is correct as-is.
        return sign | m as u16;
    }
    sign // underflow → signed zero
}

/// Converts IEEE 754 binary16 bits to the exactly-representable `f32`;
/// every NaN becomes the quiet NaN `sign | 0x7FC0_0000`.
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1F) as u32;
    let mant = (h & 0x03FF) as u32;
    let bits = match (exp, mant) {
        (0, 0) => sign,
        (0, m) => {
            // Subnormal: value = m · 2⁻²⁴, renormalised for f32.
            let p = 31 - m.leading_zeros(); // top set bit, 0..=9
            let e = p + 103; // (p − 24) + 127
            let frac = (m << (23 - p)) & 0x007F_FFFF;
            sign | (e << 23) | frac
        }
        (31, 0) => sign | 0x7F80_0000,
        (31, _) => sign | 0x7FC0_0000, // quiet NaN
        (e, m) => sign | ((e + 112) << 23) | (m << 13),
    };
    f32::from_bits(bits)
}

/// The symmetric int8 code of `v` at `scale`: `v / scale` rounded half
/// away from zero, clamped to ±127; NaN codes as 0.
pub fn int8_code(v: f32, scale: f32) -> i8 {
    (v / scale).round().clamp(-127.0, 127.0) as i8
}

/// [`f32_to_f16_bits`] over a slice, as the wire carries the codes:
/// `dst[2i..2i + 2]` is `f32_to_f16_bits(src[i])` in little-endian
/// order.
///
/// # Panics
/// Panics if `dst` is not two bytes per value.
pub fn f32s_to_f16_le(src: &[f32], dst: &mut [u8]) {
    assert_eq!(2 * src.len(), dst.len(), "f32s_to_f16_le: length mismatch");
    let done = if simd::f16c_active() { simd::f32_to_f16_f16c(src, dst) } else { 0 };
    for (d, &s) in dst[2 * done..].chunks_exact_mut(2).zip(&src[done..]) {
        d.copy_from_slice(&f32_to_f16_bits(s).to_le_bytes());
    }
}

/// [`f16_bits_to_f32`] over little-endian halves, as the wire carries
/// them: `dst[i] = f16_bits_to_f32(half at src[2i..2i + 2])`.
///
/// # Panics
/// Panics if `src` is not two bytes per value.
pub fn f16_le_to_f32s(src: &[u8], dst: &mut [f32]) {
    assert_eq!(src.len(), 2 * dst.len(), "f16_le_to_f32s: length mismatch");
    let done = if simd::f16c_active() { simd::f16_to_f32_f16c(src, dst) } else { 0 };
    for (d, h) in dst[done..].iter_mut().zip(src[2 * done..].chunks_exact(2)) {
        *d = f16_bits_to_f32(u16::from_le_bytes([h[0], h[1]]));
    }
}

/// [`int8_code`] over a slice: `dst[i] = int8_code(src[i], scale)`.
///
/// # Panics
/// Panics if the lengths differ.
pub fn int8_codes(src: &[f32], scale: f32, dst: &mut [i8]) {
    assert_eq!(src.len(), dst.len(), "int8_codes: length mismatch");
    let done = if simd::active_path() == simd::SimdPath::Avx2 {
        simd::int8_codes_avx2(src, scale, dst)
    } else {
        0
    };
    for (d, &s) in dst[done..].iter_mut().zip(&src[done..]) {
        *d = int8_code(s, scale);
    }
}
