//! Allowlisted SIMD-microkernel-style module: `#[target_feature]` fns
//! are safe, but intrinsic pointer loads stay `unsafe` and must carry a
//! `// SAFETY:` note just like the scheduler's blocks.

#[target_feature(enable = "avx2")]
pub fn documented_load(s: &[f32]) -> f32 {
    let chunk = &s[..8];
    // SAFETY: `chunk` is a checked 8-element subslice (fixture).
    unsafe { core::ptr::read_unaligned(chunk.as_ptr()) }
}

#[target_feature(enable = "avx2")]
pub fn undocumented_load(s: &[f32]) -> f32 {
    let chunk = &s[..8];
    unsafe { core::ptr::read_unaligned(chunk.as_ptr()) } // line 15: allowlisted, but no SAFETY comment
}

#[target_feature(enable = "avx2")]
pub fn undocumented_masked_load(s: &[f32], live: usize, mask: core::arch::x86_64::__m256i) {
    let lanes = &s[..live];
    let _ = unsafe { core::arch::x86_64::_mm256_maskload_ps(lanes.as_ptr(), mask) }; // line 21: a masked load is still a pointer load
}
