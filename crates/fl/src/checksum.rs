//! The two checksum families behind this crate's framings, each where
//! its cost and its guarantee fit:
//!
//! - **CRC-32C** ([`crc32c`], from `fedmp-tensor`, which owns the
//!   SSE4.2 path) for the bulk frames: [`crate::wire`] model frames and
//!   `ExactState`'s `HPar` partial-sum frames. These are whole models
//!   hashed on every encode and every receive, so speed matters, and a
//!   CRC detects every burst of up to 32 corrupted bits outright.
//! - **FNV-1a 64** ([`fnv1a64`]) for the socket transport's header and
//!   JSON control sections: tens of bytes per message, where the hash
//!   costs nothing, and a layout hostile-peer tests build by hand.
//!
//! Each framing keeps its own layout and checksum width; only the
//! hashes live here.

pub(crate) use fedmp_tensor::crc32c;

/// FNV-1a 64 over the concatenation of `chunks` (so a header and a
/// section can be summed without being copied together first).
pub(crate) fn fnv1a64(chunks: &[&[u8]]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for chunk in chunks {
        for &b in *chunk {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        assert_eq!(fnv1a64(&[b"a"]), 0xAF63_DC4C_8601_EC8C);
        // Chunking is invisible: only the concatenation matters.
        assert_eq!(fnv1a64(&[b"foo", b"", b"bar"]), 0x8594_4171_F739_67E8);
        assert_eq!(fnv1a64(&[b"foobar"]), 0x8594_4171_F739_67E8);
    }
}
