//! FNV-1a, the one checksum family behind every framing in this crate:
//! 32-bit for [`crate::wire`] model frames, 64-bit for the hierarchy's
//! `HPar` partial-sum frames and the socket transport's header/control
//! sections. Each framing keeps its own layout and checksum width; only
//! the hash lives here.

/// FNV-1a 32 over `bytes`.
pub(crate) fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut h = 0x811C_9DC5u32;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

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
        assert_eq!(fnv1a32(b"a"), 0xE40C_292C);
        assert_eq!(fnv1a32(b"foobar"), 0xBF9C_F968);
        assert_eq!(fnv1a64(&[b"a"]), 0xAF63_DC4C_8601_EC8C);
        // Chunking is invisible: only the concatenation matters.
        assert_eq!(fnv1a64(&[b"foo", b"", b"bar"]), 0x8594_4171_F739_67E8);
        assert_eq!(fnv1a64(&[b"foobar"]), 0x8594_4171_F739_67E8);
    }
}
