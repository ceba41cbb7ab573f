//! Exact `f32` accumulation: a Kulisch-style fixed-point superaccumulator.
//!
//! Float addition is not associative, so any tree-shaped reduction — a
//! shard-then-edge-then-cloud hierarchy in particular — produces bits
//! that depend on the grouping. [`ExactSum`] removes the problem at the
//! root: every finite `f32` is an integer multiple of 2⁻¹⁴⁹, so a wide
//! enough two's-complement fixed-point register can hold *any* sum of
//! `f32` values without rounding. Accumulation is then plain integer
//! addition — associative and commutative — and a single correctly
//! rounded conversion back to `f32` happens at the very end. Two
//! consequences the rest of the workspace builds on:
//!
//! 1. **Grouping invariance.** Splitting a cohort into any number of
//!    shards, merging shard accumulators into edge accumulators, and
//!    edge accumulators into one cloud accumulator yields bit-identical
//!    results to a single flat accumulation — for *every* partition.
//! 2. **Permutation invariance.** The order clients fold in does not
//!    matter, so a streaming reducer can consume updates as they become
//!    available without losing determinism.
//!
//! # Register layout
//!
//! The accumulator scales everything by 2¹⁴⁹ and stores the running sum
//! as a 384-bit two's-complement integer in six little-endian `u64`
//! limbs. A finite `f32` contributes a 24-bit integer mantissa shifted
//! left by `max(e, 1) − 1 ∈ [0, 253]` bits, so a single addend occupies
//! at most bit 277; 384 bits leave headroom for well over 2⁶⁴ addends of
//! the largest magnitude before the sign bit could be disturbed —
//! unreachable in practice. Non-finite inputs (±∞, NaN) poison the
//! accumulator: [`ExactSum::value`] then returns NaN, mirroring what a
//! float sum would produce.
//!
//! # Vectors of sums: window + spill
//!
//! A model-sized vector of sums does not need 384 bits per slot: the
//! addends of one parameter sit within a few binades of each other. An
//! [`ExactVec`] keeps, per slot, one `i128` — the *window*, bits
//! 64‥191 of the wide register — and folds into it every addend with
//! |x| ∈ [2⁻⁶², 2²¹) by the same shifted-mantissa integer addition, at
//! 16 B/slot instead of 56. Whatever the window cannot hold — smaller
//! and larger magnitudes, subnormals, non-finite values — goes to a
//! sparse *spill* of ordinary [`ExactSum`]s keyed by slot. A slot's sum
//! is `window << 64` plus its spill register, so it is still one exact
//! integer: how the addends were split between the two is invisible in
//! [`ExactVec::sums`], and with it in every value and every frame.
//!
//! Headroom: an in-window addend is a 24-bit mantissa shifted left by
//! at most 82, so below 2¹⁰⁶; the vector counts addends per slot and
//! moves the window into the spill (a *flush*) before the count would
//! pass 2²⁰, so a slot stays below 2¹²⁶ — inside an `i128`.

use std::collections::BTreeMap;

/// Number of 64-bit limbs in the fixed-point register (384 bits).
const LIMBS: usize = 6;

/// Scale exponent: stored integer = sum × 2¹⁴⁹.
const SCALE: i32 = 149;

/// An exact, order- and grouping-invariant accumulator for `f32` sums.
///
/// ```
/// use fedmp_tensor::ExactSum;
///
/// let mut flat = ExactSum::new();
/// for x in [0.1f32, 0.2, -0.3, 1e-8] {
///     flat.add(x);
/// }
/// // Any partition of the same addends merges to the same bits.
/// let mut left = ExactSum::new();
/// left.add(0.1);
/// let mut right = ExactSum::new();
/// right.add(0.2);
/// right.add(-0.3);
/// right.add(1e-8);
/// left.merge(&right);
/// assert_eq!(flat.value().to_bits(), left.value().to_bits());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExactSum {
    /// Little-endian two's-complement limbs of sum × 2¹⁴⁹.
    limbs: [u64; LIMBS],
    /// Set once any non-finite addend is seen; poisons `value()` to NaN.
    nonfinite: bool,
}

impl Default for ExactSum {
    fn default() -> Self {
        Self::new()
    }
}

impl ExactSum {
    /// The additive identity (sum of zero addends).
    pub fn new() -> Self {
        ExactSum { limbs: [0; LIMBS], nonfinite: false }
    }

    /// Bytes of state held by one accumulator (for memory accounting in
    /// the scale benchmarks; constant regardless of how many addends
    /// have been folded in).
    pub const fn state_bytes() -> usize {
        std::mem::size_of::<ExactSum>()
    }

    /// Folds one `f32` into the accumulator. Exact for every finite
    /// input (including subnormals and signed zeros); non-finite inputs
    /// poison the accumulator so [`value`](Self::value) returns NaN.
    pub fn add(&mut self, x: f32) {
        if !x.is_finite() {
            self.nonfinite = true;
            return;
        }
        let bits = x.to_bits();
        let exp = ((bits >> 23) & 0xFF) as i32;
        let frac = bits & 0x7F_FFFF;
        // value = ±mant × 2^(shift − SCALE) with mant < 2²⁴, shift ∈ [0, 253].
        let mant = if exp == 0 { u64::from(frac) } else { u64::from(frac | 0x80_0000) };
        if mant == 0 {
            return; // ±0.0 contributes nothing.
        }
        let shift = (exp.max(1) - 1) as u32;
        let limb = (shift / 64) as usize;
        let off = shift % 64;
        let wide = u128::from(mant) << off; // ≤ 24 + 63 = 87 bits
        let lo = wide as u64;
        let hi = (wide >> 64) as u64;
        if bits >> 31 == 0 {
            self.add_at(limb, lo, hi);
        } else {
            self.sub_at(limb, lo, hi);
        }
    }

    /// Adds another accumulator into this one. Integer addition of the
    /// registers, so `a.merge(&b)` holds exactly the sum of both addend
    /// multisets — the operation the aggregation hierarchy is built on.
    pub fn merge(&mut self, other: &ExactSum) {
        self.nonfinite |= other.nonfinite;
        let mut carry = 0u64;
        for i in 0..LIMBS {
            let (s1, c1) = self.limbs[i].overflowing_add(other.limbs[i]);
            let (s2, c2) = s1.overflowing_add(carry);
            self.limbs[i] = s2;
            carry = u64::from(c1) + u64::from(c2);
        }
        // Two's-complement wraparound at 384 bits is the correct modular
        // behaviour; with ≤ 2⁶⁴ addends the register cannot overflow.
    }

    /// The correctly rounded (round-to-nearest, ties-to-even) `f32`
    /// value of the exact sum. Returns NaN iff a non-finite value was
    /// ever added, and ±∞ on (practically unreachable) overflow of the
    /// `f32` range.
    pub fn value(&self) -> f32 {
        if self.nonfinite {
            return f32::NAN;
        }
        let negative = self.limbs[LIMBS - 1] >> 63 == 1;
        let mag = if negative { negate(&self.limbs) } else { self.limbs };
        let sign = u32::from(negative) << 31;
        // Highest set bit of the magnitude, or zero sum.
        let mut h: i32 = -1;
        for i in (0..LIMBS).rev() {
            if mag[i] != 0 {
                h = i as i32 * 64 + 63 - mag[i].leading_zeros() as i32;
                break;
            }
        }
        if h < 0 {
            return 0.0;
        }
        if h <= 22 {
            // Magnitude < 2²³ ⇒ an exact subnormal (value = mag × 2⁻¹⁴⁹).
            return f32::from_bits(sign | mag[0] as u32);
        }
        // Round the top 24 bits with guard + sticky (ties to even).
        let mut mant = extract_bits(&mag, h - 23) & 0xFF_FFFF;
        let round = h >= 24 && bit(&mag, h - 24);
        let sticky = h >= 25 && any_below(&mag, h - 24);
        if round && (sticky || mant & 1 == 1) {
            mant += 1;
        }
        if mant == 0x100_0000 {
            mant = 0x80_0000;
            h += 1;
        }
        // value = 1.f × 2^(h − SCALE); biased exponent = h − SCALE + 127.
        let e = h - SCALE + 127;
        if e >= 255 {
            return f32::from_bits(sign | 0x7F80_0000); // ±∞
        }
        f32::from_bits(sign | (e as u32) << 23 | (mant as u32 & 0x7F_FFFF))
    }

    /// True iff no finite mass has been accumulated and no poison seen.
    pub fn is_zero(&self) -> bool {
        !self.nonfinite && self.limbs == [0; LIMBS]
    }

    /// The raw little-endian limbs (two's complement, ×2¹⁴⁹). Stable
    /// encoding for wire transport of partial sums between aggregation
    /// tiers; feed back through [`from_raw`](Self::from_raw).
    pub fn to_raw(&self) -> ([u64; LIMBS], bool) {
        (self.limbs, self.nonfinite)
    }

    /// Rebuilds an accumulator from [`to_raw`](Self::to_raw) output.
    pub fn from_raw(limbs: [u64; LIMBS], nonfinite: bool) -> Self {
        ExactSum { limbs, nonfinite }
    }

    /// The wide register holding `w × 2^WINDOW_BASE`: the window in
    /// limbs 1–2, sign-extended above.
    fn from_window(w: i128) -> Self {
        let ext = (w >> 127) as u64;
        ExactSum { limbs: [0, w as u64, (w >> 64) as u64, ext, ext, ext], nonfinite: false }
    }

    /// Inverse of [`from_window`](Self::from_window), for a register
    /// that is one: no poison, nothing below the window, a plain sign
    /// extension above it, and a magnitude the addend count can stand
    /// for (below `WINDOW_ADDENDS` maximal addends).
    fn window(&self) -> Option<i128> {
        let w = i128::from(self.limbs[2] as i64) << 64 | i128::from(self.limbs[1]);
        let fits = w.unsigned_abs() >> ADDEND_BITS < u128::from(WINDOW_ADDENDS);
        (fits && *self == Self::from_window(w)).then_some(w)
    }

    fn add_at(&mut self, limb: usize, lo: u64, hi: u64) {
        let (s, c) = self.limbs[limb].overflowing_add(lo);
        self.limbs[limb] = s;
        let mut carry = u64::from(c);
        let mut i = limb + 1;
        if i < LIMBS {
            let (s1, c1) = self.limbs[i].overflowing_add(hi);
            let (s2, c2) = s1.overflowing_add(carry);
            self.limbs[i] = s2;
            carry = u64::from(c1) + u64::from(c2);
            i += 1;
        }
        while carry != 0 && i < LIMBS {
            let (s, c) = self.limbs[i].overflowing_add(carry);
            self.limbs[i] = s;
            carry = u64::from(c);
            i += 1;
        }
    }

    fn sub_at(&mut self, limb: usize, lo: u64, hi: u64) {
        let (d, b) = self.limbs[limb].overflowing_sub(lo);
        self.limbs[limb] = d;
        let mut borrow = u64::from(b);
        let mut i = limb + 1;
        if i < LIMBS {
            let (d1, b1) = self.limbs[i].overflowing_sub(hi);
            let (d2, b2) = d1.overflowing_sub(borrow);
            self.limbs[i] = d2;
            borrow = u64::from(b1) + u64::from(b2);
            i += 1;
        }
        while borrow != 0 && i < LIMBS {
            let (d, b) = self.limbs[i].overflowing_sub(borrow);
            self.limbs[i] = d;
            borrow = u64::from(b);
            i += 1;
        }
    }
}

/// Two's-complement negation of a 384-bit register.
fn negate(limbs: &[u64; LIMBS]) -> [u64; LIMBS] {
    let mut out = [0u64; LIMBS];
    let mut carry = 1u64;
    for i in 0..LIMBS {
        let (s, c) = (!limbs[i]).overflowing_add(carry);
        out[i] = s;
        carry = u64::from(c);
    }
    out
}

/// True iff bit `pos` (0-indexed from the LSB) is set.
fn bit(limbs: &[u64; LIMBS], pos: i32) -> bool {
    let pos = pos as usize;
    limbs[pos / 64] >> (pos % 64) & 1 == 1
}

/// True iff any bit strictly below `pos` is set.
fn any_below(limbs: &[u64; LIMBS], pos: i32) -> bool {
    let pos = pos as usize;
    let (limb, off) = (pos / 64, pos % 64);
    for l in limbs.iter().take(limb) {
        if *l != 0 {
            return true;
        }
    }
    off > 0 && limbs[limb] & ((1u64 << off) - 1) != 0
}

/// The 64-bit window of the register starting at bit `pos ≥ 0`.
fn extract_bits(limbs: &[u64; LIMBS], pos: i32) -> u64 {
    let pos = pos as usize;
    let (limb, off) = (pos / 64, pos % 64);
    let lo = limbs[limb] >> off;
    if off == 0 || limb + 1 >= LIMBS {
        lo
    } else {
        lo | limbs[limb + 1] << (64 - off)
    }
}

/// Exact sum of a slice: convenience over [`ExactSum`].
pub fn exact_sum_f32(xs: &[f32]) -> f32 {
    let mut acc = ExactSum::new();
    for &x in xs {
        acc.add(x);
    }
    acc.value()
}

/// Register bit a window's bit 0 stands for: one whole limb up, so a
/// window is limbs 1–2 of the wide register.
const WINDOW_BASE: u32 = 64;

/// Biased `f32` exponent of the smallest in-window binade, 2⁻⁶² (its
/// mantissa shift, `exp − 1`, is [`WINDOW_BASE`]).
const WINDOW_EXP_MIN: u32 = WINDOW_BASE + 1;

/// Binades above the smallest the window takes: up to, excluding, 2²¹.
const WINDOW_SPAN: u32 = 82;

/// Bits of the largest in-window addend: a 24-bit mantissa shifted left
/// by at most [`WINDOW_SPAN`].
const ADDEND_BITS: u32 = 24 + WINDOW_SPAN;

/// Addends a window slot may hold: 2²⁰ × 2¹⁰⁶ = 2¹²⁶ fits an `i128`.
const WINDOW_ADDENDS: u32 = 1 << 20;

/// A vector of exact sums, one per slot, at 16 bytes a slot: the
/// element-wise [`ExactSum`] of equal-length `f32` slices. See the
/// [module docs](self) for the window + spill layout and why it holds
/// the same integers a `Vec<ExactSum>` would.
///
/// ```
/// use fedmp_tensor::{ExactSum, ExactVec};
///
/// let mut acc = ExactVec::new(2);
/// acc.add(&[1e8, f32::MIN_POSITIVE]);
/// acc.add(&[1.0, 0.5]);
/// acc.add(&[-1e8, 0.25]);
/// let values: Vec<f32> = acc.sums().map(|s| s.value()).collect();
/// assert_eq!(values, [1.0, 0.75]);
/// ```
#[derive(Clone, Debug)]
pub struct ExactVec {
    /// Per slot, Σ ±mant << (shift − [`WINDOW_BASE`]) over its
    /// in-window addends.
    window: Vec<i128>,
    /// Upper bound on the in-window addends behind any one slot:
    /// `|window[i]| < addends << ADDEND_BITS`.
    addends: u32,
    /// Slot → everything the window could not take.
    spill: BTreeMap<usize, ExactSum>,
}

impl ExactVec {
    /// `len` empty sums.
    pub fn new(len: usize) -> Self {
        ExactVec { window: vec![0; len], addends: 0, spill: BTreeMap::new() }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// True iff the vector has no slots.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Resident bytes of the accumulator: the window plus whatever has
    /// spilled. Constant in the number of addends while they stay
    /// in-window.
    pub fn state_bytes(&self) -> usize {
        self.window.len() * std::mem::size_of::<i128>()
            + self.spill.len() * (std::mem::size_of::<usize>() + ExactSum::state_bytes())
    }

    /// Folds `xs[i]` into slot `i`, exactly as [`ExactSum::add`] would.
    ///
    /// # Panics
    /// If `xs.len() != self.len()`.
    pub fn add(&mut self, xs: &[f32]) {
        assert_eq!(xs.len(), self.window.len(), "ExactVec::add: length mismatch");
        if self.addends == WINDOW_ADDENDS {
            self.flush();
        }
        self.addends += 1;
        for (i, (w, &x)) in self.window.iter_mut().zip(xs).enumerate() {
            let bits = x.to_bits();
            let exp = (bits >> 23) & 0xFF;
            if exp.wrapping_sub(WINDOW_EXP_MIN) <= WINDOW_SPAN {
                let v = i128::from(bits & 0x7F_FFFF | 0x80_0000) << (exp - WINDOW_EXP_MIN);
                *w += if bits >> 31 == 0 { v } else { -v };
            } else if bits << 1 != 0 {
                self.spill.entry(i).or_default().add(x);
            }
        }
    }

    /// Adds another vector's sums into this one, slot by slot (integer
    /// addition, as [`ExactSum::merge`]).
    ///
    /// # Panics
    /// If the lengths differ.
    pub fn merge(&mut self, other: &ExactVec) {
        assert_eq!(other.window.len(), self.window.len(), "ExactVec::merge: length mismatch");
        if self.addends + other.addends > WINDOW_ADDENDS {
            self.flush();
        }
        self.addends += other.addends;
        for (a, b) in self.window.iter_mut().zip(&other.window) {
            *a += *b;
        }
        for (&i, s) in &other.spill {
            self.spill.entry(i).or_default().merge(s);
        }
    }

    /// Each slot's sum as one wide register, in slot order: the
    /// interchange form (`to_raw` for a frame, `value` for the rounded
    /// result), independent of how the sum is held.
    pub fn sums(&self) -> impl Iterator<Item = ExactSum> + '_ {
        let mut spill = self.spill.iter().peekable();
        self.window.iter().enumerate().map(move |(i, &w)| {
            let mut sum = ExactSum::from_window(w);
            if let Some((_, s)) = spill.next_if(|&(&j, _)| j == i) {
                sum.merge(s);
            }
            sum
        })
    }

    /// Empties every window slot into the spill, so the addend count
    /// can restart from zero.
    fn flush(&mut self) {
        for (i, w) in self.window.iter_mut().enumerate() {
            if *w != 0 {
                self.spill.entry(i).or_default().merge(&ExactSum::from_window(*w));
                *w = 0;
            }
        }
        self.addends = 0;
    }
}

/// The inverse of [`ExactVec::sums`]: registers that are a window go to
/// the window, the rest to the spill.
impl FromIterator<ExactSum> for ExactVec {
    fn from_iter<I: IntoIterator<Item = ExactSum>>(sums: I) -> Self {
        let mut spill = BTreeMap::new();
        let mut largest = 0u128;
        let window = sums
            .into_iter()
            .enumerate()
            .map(|(i, sum)| match sum.window() {
                Some(w) => {
                    largest = largest.max(w.unsigned_abs());
                    w
                }
                None => {
                    spill.insert(i, sum);
                    0
                }
            })
            .collect();
        // The fewest maximal addends that could have built the largest slot.
        let addends = (largest >> ADDEND_BITS) as u32 + 1;
        ExactVec { window, addends, spill }
    }
}

/// Two vectors are equal iff they hold the same sums — not iff they
/// split them the same way between window and spill.
impl PartialEq for ExactVec {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.sums().eq(other.sums())
    }
}

impl Eq for ExactVec {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;
    use rand::Rng;

    fn sum_bits(xs: &[f32]) -> u32 {
        exact_sum_f32(xs).to_bits()
    }

    #[test]
    fn empty_and_zero_sums() {
        assert_eq!(ExactSum::new().value().to_bits(), 0.0f32.to_bits());
        assert_eq!(sum_bits(&[0.0, -0.0]), 0.0f32.to_bits());
        assert_eq!(sum_bits(&[1.0, -1.0]), 0.0f32.to_bits());
    }

    #[test]
    fn single_values_round_trip_exactly() {
        for &x in &[
            1.0f32,
            -1.0,
            0.1,
            -3.25e-12,
            f32::MIN_POSITIVE,
            f32::MAX,
            -f32::MAX,
            1.4e-45,  // smallest subnormal
            -8.3e-40, // subnormal
            2.0f32.powi(-149),
            1.999_999_9,
        ] {
            assert_eq!(sum_bits(&[x]), x.to_bits(), "round trip of {x:e}");
        }
    }

    #[test]
    fn exact_cancellation() {
        // 1e8 + 1 − 1e8 = 1 exactly, though f32 left-fold loses the 1.
        assert_eq!(exact_sum_f32(&[1e8, 1.0, -1e8]), 1.0);
        let naive = (1e8f32 + 1.0) - 1e8;
        assert_eq!(naive, 0.0, "sanity: naive f32 fold drops the small addend");
    }

    #[test]
    fn correct_rounding_ties_to_even() {
        // 1 + 2⁻²⁴ is the exact midpoint between 1.0 and nextafter(1.0):
        // ties-to-even rounds down to 1.0.
        assert_eq!(exact_sum_f32(&[1.0, 2.0f32.powi(-24)]), 1.0);
        // 1 + 2⁻²³ is exactly representable.
        assert_eq!(exact_sum_f32(&[1.0, 2.0f32.powi(-23)]), 1.0 + 2.0f32.powi(-23));
        // (1 + 2⁻²³) + 2⁻²⁴ is a midpoint whose lower neighbour is odd:
        // rounds up to 1 + 2⁻²².
        assert_eq!(
            exact_sum_f32(&[1.0 + 2.0f32.powi(-23), 2.0f32.powi(-24)]),
            1.0 + 2.0f32.powi(-22)
        );
        // A sticky bit below the midpoint forces rounding up.
        assert_eq!(
            exact_sum_f32(&[1.0, 2.0f32.powi(-24), 2.0f32.powi(-60)]),
            1.0 + 2.0f32.powi(-23)
        );
    }

    #[test]
    fn subnormal_results_are_exact() {
        let tiny = f32::from_bits(3); // 3 × 2⁻¹⁴⁹
        assert_eq!(sum_bits(&[tiny, tiny]), f32::from_bits(6).to_bits());
        assert_eq!(sum_bits(&[tiny, -f32::from_bits(1)]), f32::from_bits(2).to_bits());
        // Crossing the subnormal/normal boundary.
        let half_min = f32::from_bits(0x40_0000); // 2⁻¹²⁷
        assert_eq!(sum_bits(&[half_min, half_min]), f32::MIN_POSITIVE.to_bits());
    }

    #[test]
    fn nonfinite_poisons_to_nan() {
        assert!(exact_sum_f32(&[1.0, f32::INFINITY]).is_nan());
        assert!(exact_sum_f32(&[f32::NAN]).is_nan());
        let mut a = ExactSum::new();
        a.add(2.0);
        let mut b = ExactSum::new();
        b.add(f32::NEG_INFINITY);
        a.merge(&b);
        assert!(a.value().is_nan());
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        let xs = vec![f32::MAX; 3];
        assert_eq!(exact_sum_f32(&xs), f32::INFINITY);
        let xs = vec![-f32::MAX; 3];
        assert_eq!(exact_sum_f32(&xs), f32::NEG_INFINITY);
    }

    #[test]
    fn raw_round_trip() {
        let mut a = ExactSum::new();
        a.add(0.3);
        a.add(-7.5e-20);
        let (limbs, poison) = a.to_raw();
        assert_eq!(ExactSum::from_raw(limbs, poison), a);
    }

    #[test]
    fn grouping_and_permutation_invariance_randomised() {
        let mut rng = seeded_rng(0xE5AC7);
        for trial in 0..200 {
            let n = rng.gen_range(1..60);
            let xs: Vec<f32> = (0..n)
                .map(|_| {
                    let mag = 10.0f32.powf(rng.gen_range(-42.0..38.0));
                    let v = rng.gen_range(-1.0f32..1.0) * mag;
                    if rng.gen_range(0..20) == 0 {
                        0.0
                    } else {
                        v
                    }
                })
                .collect();
            let flat = sum_bits(&xs);

            // Random partition into contiguous shards, shards into edges.
            let shards = rng.gen_range(1..=n.min(8));
            let edges = rng.gen_range(1..=shards);
            let mut shard_accs: Vec<ExactSum> = vec![ExactSum::new(); shards];
            for (i, &x) in xs.iter().enumerate() {
                shard_accs[i * shards / n].add(x);
            }
            let mut edge_accs: Vec<ExactSum> = vec![ExactSum::new(); edges];
            for (s, acc) in shard_accs.iter().enumerate() {
                edge_accs[s * edges / shards].merge(acc);
            }
            let mut cloud = ExactSum::new();
            for e in &edge_accs {
                cloud.merge(e);
            }
            assert_eq!(cloud.value().to_bits(), flat, "trial {trial}: grouping changed bits");

            // Reversed order.
            let rev: Vec<f32> = xs.iter().rev().copied().collect();
            assert_eq!(sum_bits(&rev), flat, "trial {trial}: permutation changed bits");
        }
    }

    #[test]
    fn window_constants_leave_the_headroom_they_claim() {
        // The window's binades are the ones the docs name.
        assert_eq!(f32::from_bits(WINDOW_EXP_MIN << 23), 2.0f32.powi(-62));
        assert_eq!(f32::from_bits((WINDOW_EXP_MIN + WINDOW_SPAN + 1) << 23), 2.0f32.powi(21));
        // The largest in-window addend is below 2^ADDEND_BITS …
        let largest = f32::from_bits((WINDOW_EXP_MIN + WINDOW_SPAN + 1) << 23).next_down();
        let mut v = ExactVec::new(1);
        v.add(&[largest]);
        assert!(v.spill.is_empty());
        assert_eq!(v.window[0], i128::from(0xFF_FFFFu32) << WINDOW_SPAN);
        assert!(v.window[0] < 1 << ADDEND_BITS);
        // … and WINDOW_ADDENDS times that bound is still an i128.
        assert!((1i128 << ADDEND_BITS).checked_mul(i128::from(WINDOW_ADDENDS)).is_some());
        // One binade either side of the window spills.
        v.add(&[2.0f32.powi(21)]);
        v.add(&[2.0f32.powi(-62).next_down()]);
        assert_eq!(v.spill.len(), 1);
        assert_eq!(v.window[0], i128::from(0xFF_FFFFu32) << WINDOW_SPAN);
    }

    #[test]
    fn a_fold_at_the_cap_flushes_first_and_loses_nothing() {
        let xs = [1.5f32, -0.0, -3.0e-5];
        let mut v = ExactVec::new(3);
        v.add(&xs);
        v.addends = WINDOW_ADDENDS;
        v.add(&xs);
        assert_eq!(v.addends, 1);
        assert_eq!(v.spill.len(), 2, "the two non-zero slots flushed");
        let values: Vec<u32> = v.sums().map(|s| s.value().to_bits()).collect();
        assert_eq!(values, [3.0f32.to_bits(), 0, (-6.0e-5f32).to_bits()]);
        // Same sums, held differently: still equal.
        let mut w = ExactVec::new(3);
        w.add(&xs);
        w.add(&xs);
        assert!(w.spill.is_empty());
        assert_eq!(v, w);
        assert_eq!(v.sums().collect::<ExactVec>(), w);
    }

    #[test]
    fn matches_f64_reference_on_moderate_ranges() {
        // For magnitudes well inside f64's 53-bit window, an f64 sum is
        // itself exact, so rounding it to f32 is the correctly rounded
        // answer — cross-check ExactSum against it.
        let mut rng = seeded_rng(0x5EED5);
        for _ in 0..500 {
            let n = rng.gen_range(1..40);
            let xs: Vec<f32> =
                (0..n).map(|_| (rng.gen_range(-1_000_000i64..1_000_000) as f32) / 1024.0).collect();
            let exact: f64 = xs.iter().map(|&x| f64::from(x)).sum();
            assert_eq!(exact_sum_f32(&xs).to_bits(), (exact as f32).to_bits());
        }
    }
}
