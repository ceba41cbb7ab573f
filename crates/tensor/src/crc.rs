//! CRC-32C (Castagnoli, RFC 3720 §B.4): the integrity checksum of the
//! bulk wire frames in `fedmp-fl`, kept here because the hardware path
//! needs `unsafe` and this is the one crate allowed it.
//!
//! Two paths return the same value for every input:
//!
//! * the SSE4.2 `crc32` loop in [`crate::simd`], 8 bytes per
//!   instruction, taken when the host has it and the `FEDMP_SIMD`
//!   selection is not `scalar`. It runs three independent streams over
//!   consecutive [`STREAM_BLOCK`]-byte blocks, so three instructions
//!   are in flight instead of one latency-bound chain, and joins them
//!   through [`advance_block`]; the bytes past the last whole
//!   three-block step run as one stream;
//! * slicing-by-8 over `const`-built tables, in safe Rust, everywhere
//!   else: eight table lookups fold a whole 8-byte word, so the
//!   serial dependency is one XOR chain per word rather than per byte.

use crate::simd;

/// The Castagnoli polynomial `0x1EDC_6F41`, bit-reflected.
const POLY: u32 = 0x82F6_3B78;

/// `TABLES[0][b]` is the reflected CRC of byte `b`; `TABLES[s][b]` is
/// that CRC advanced over `s` further zero bytes, so one lookup per
/// byte of an 8-byte word lands each byte's contribution where the
/// word's end leaves it.
static TABLES: [[u32; 256]; 8] = tables();

const fn tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { (c >> 1) ^ POLY } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut s = 1;
    while s < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[s - 1][i];
            t[s][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        s += 1;
    }
    t
}

/// Bytes each stream of the three-stream SSE4.2 loop hashes per step:
/// whole 8-byte words, the instruction's widest step.
pub(crate) const STREAM_BLOCK: usize = 512;
const _: () = assert!(STREAM_BLOCK.is_multiple_of(8));

/// `ADVANCE[s][b]` is the register `b << 8s` advanced over
/// [`STREAM_BLOCK`] zero bytes. Advancing a register over zeros is
/// linear over GF(2), so four lookups advance any register.
static ADVANCE: [[u32; 256]; 4] = advance_tables();

const fn advance_tables() -> [[u32; 256]; 4] {
    let mut t = [[0u32; 256]; 4];
    let mut s = 0;
    while s < 4 {
        let mut b = 0;
        while b < 256 {
            let mut c = (b as u32) << (8 * s);
            let mut n = 0;
            while n < STREAM_BLOCK {
                c = (c >> 8) ^ TABLES[0][(c & 0xFF) as usize];
                n += 1;
            }
            t[s][b] = c;
            b += 1;
        }
        s += 1;
    }
    t
}

/// The raw CRC-32C register `crc` advanced over [`STREAM_BLOCK`] zero
/// bytes. Since the register update is linear in register and data,
/// hashing `a ‖ b` with `|b| = STREAM_BLOCK` from register `r` gives
/// `advance_block(h(r, a)) ^ h(0, b)`: this joins the streams.
pub(crate) fn advance_block(crc: u32) -> u32 {
    let byte = |shift: u32| ((crc >> shift) & 0xFF) as usize;
    ADVANCE[0][byte(0)] ^ ADVANCE[1][byte(8)] ^ ADVANCE[2][byte(16)] ^ ADVANCE[3][byte(24)]
}

/// CRC-32C of `bytes`: reflected polynomial `0x82F6_3B78`, initial
/// value and final XOR `0xFFFF_FFFF` (so `crc32c(b"123456789")` is
/// `0xE306_9283`).
pub fn crc32c(bytes: &[u8]) -> u32 {
    if simd::crc32c_hardware() {
        simd::crc32c_sse42(bytes)
    } else {
        crc32c_table(bytes)
    }
}

/// The portable path: slicing-by-8, then a byte-at-a-time tail.
fn crc32c_table(bytes: &[u8]) -> u32 {
    !update_table(u32::MAX, bytes)
}

/// The raw register `crc` updated over `bytes` (no initial or final
/// XOR), by the tables.
fn update_table(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let byte = |v: u32, shift: u32| ((v >> shift) & 0xFF) as usize;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][byte(lo, 0)]
            ^ t[6][byte(lo, 8)]
            ^ t[5][byte(lo, 16)]
            ^ t[4][byte(lo, 24)]
            ^ t[3][byte(hi, 0)]
            ^ t[2][byte(hi, 8)]
            ^ t[1][byte(hi, 16)]
            ^ t[0][byte(hi, 24)];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][byte(crc ^ u32::from(b), 0)];
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    type Path = (&'static str, fn(&[u8]) -> u32);

    /// Every path this host can run, named for failure messages.
    fn paths() -> Vec<Path> {
        let mut p: Vec<Path> = vec![("table", crc32c_table), ("dispatch", crc32c)];
        if simd::sse42_supported() {
            p.push(("sse4.2", simd::crc32c_sse42));
        }
        p
    }

    #[test]
    fn matches_the_rfc_3720_vectors() {
        let ascending: Vec<u8> = (0..32).collect();
        let vectors: [(&[u8], u32); 4] = [
            (b"123456789", 0xE306_9283),
            (&[0x00; 32], 0x8A91_36AA),
            (&[0xFF; 32], 0x62A8_AB43),
            (&ascending, 0x46DD_794E),
        ];
        for (name, f) in paths() {
            for (input, want) in vectors {
                assert_eq!(f(input), want, "{name} path over {} bytes", input.len());
            }
        }
    }

    #[test]
    fn hardware_and_table_paths_agree() {
        if !simd::sse42_supported() {
            return;
        }
        // Every length 0..=3·block+64 at every start offset 0..8, so each
        // word alignment and tail length meets each path, with and
        // without a whole three-stream step before it.
        let max = 3 * STREAM_BLOCK + 64;
        let buf: Vec<u8> =
            (0..max as u32 + 8).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        for off in 0..8 {
            for len in 0..=max {
                let s = &buf[off..off + len];
                assert_eq!(simd::crc32c_sse42(s), crc32c_table(s), "offset {off} length {len}");
            }
        }
        // One buffer the size of the benchmark's dense CNN/MNIST frame.
        let big: Vec<u8> =
            (0..217_421u32).map(|i| (i.wrapping_mul(2_246_822_519) >> 11) as u8).collect();
        assert_eq!(simd::crc32c_sse42(&big), crc32c_table(&big));
    }

    #[test]
    fn advancing_over_a_block_is_hashing_a_block_of_zeros() {
        let zeros = [0u8; STREAM_BLOCK];
        for bit in 0..32 {
            for r in [1u32 << bit, (1u32 << bit) ^ 0xDEAD_BEEF] {
                assert_eq!(advance_block(r), update_table(r, &zeros), "register {r:#010x}");
            }
        }
    }
}
