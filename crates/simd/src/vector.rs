//! The [`Vector`] trait — the generic SIMD operation set every lookup kernel
//! is written against.
//!
//! The paper (§IV-C) defines generic vector-operation templates
//! `vec_<operation>_{x,W}()` where `W` is the vector width in bits and `x`
//! the lane width; this trait is the Rust embodiment of those templates. Each
//! backend ([`crate::emu`] portable, [`crate::x86`] intrinsic) provides the
//! concrete `vec_*` implementations, and the kernels in `simdht-core` are
//! monomorphized once per backend.
//!
//! Match masks are uniformly represented as a `u64` bitmask with bit *i* set
//! when lane *i* matched (what `movemask` produces on SSE/AVX2 and what the
//! `__mmask` registers are on AVX-512).

use crate::lane::Lane;

/// Maximum number of lanes any supported vector can have (AVX-512 over
/// 16-bit lanes: 512 / 16 = 32).
pub const MAX_LANES: usize = 32;

/// A fixed-width SIMD vector over [`Lane`] elements.
///
/// # Examples
///
/// ```
/// use simdht_simd::{Vector, emu::Emu};
///
/// type V = Emu<u32, 8>; // portable stand-in for a 256-bit vector of u32
/// let haystack = V::from_slice(&[7, 1, 7, 3, 9, 7, 2, 8]);
/// let needle = V::splat(7);
/// let mask = haystack.cmpeq_bits(needle);
/// assert_eq!(mask, 0b0010_0101);
/// ```
pub trait Vector: Copy + Send + Sync + 'static {
    /// The scalar element type.
    type Lane: Lane;

    /// Number of lanes in the vector.
    const LANES: usize;

    /// Total vector width in bits (`LANES * Lane::BITS`).
    const WIDTH_BITS: usize;

    /// Broadcast a scalar to every lane (the paper's `vec_set_lanes`).
    fn splat(x: Self::Lane) -> Self;

    /// Load `LANES` consecutive elements from `xs` (the paper's
    /// `vec_load_lanes` / `vec_load_buckets` for a single bucket).
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() < Self::LANES`.
    fn from_slice(xs: &[Self::Lane]) -> Self;

    /// Load the low `LANES / 2` lanes from `lo` and the high `LANES / 2`
    /// lanes from `hi`.
    ///
    /// This is how the horizontal kernel loads *two* hash buckets (which live
    /// at unrelated addresses) into a single vector — the
    /// "buckets-per-vector = 2" configuration of Algorithm 1.
    ///
    /// # Panics
    ///
    /// Panics if either slice is shorter than `Self::LANES / 2`.
    fn from_two_slices(lo: &[Self::Lane], hi: &[Self::Lane]) -> Self;

    /// Load `2 * LANES` consecutive elements and de-interleave them into
    /// `(evens, odds)`.
    ///
    /// This implements the paper's `vec_shuffle_and_blend` (Algorithm 1,
    /// line 18): an *interleaved* bucket `[k0 v0 k1 v1 …]` is split into a
    /// key vector and a value vector.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() < 2 * Self::LANES`.
    fn load_deinterleave_2(xs: &[Self::Lane]) -> (Self, Self);

    /// Store all lanes to `out[..LANES]`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() < Self::LANES`.
    fn write_to_slice(self, out: &mut [Self::Lane]);

    /// Extract a single lane.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `lane >= Self::LANES`.
    #[inline]
    fn extract(self, lane: usize) -> Self::Lane {
        debug_assert!(lane < Self::LANES);
        let mut buf = [Self::Lane::EMPTY; MAX_LANES];
        self.write_to_slice(&mut buf[..Self::LANES]);
        buf[lane]
    }

    /// Return all lanes as an array-backed buffer (first `LANES` entries are
    /// meaningful).
    #[inline]
    fn to_lanes(self) -> [Self::Lane; MAX_LANES] {
        let mut buf = [Self::Lane::EMPTY; MAX_LANES];
        self.write_to_slice(&mut buf[..Self::LANES]);
        buf
    }

    /// Lane-wise wrapping addition.
    fn add(self, other: Self) -> Self;

    /// Lane-wise bitwise AND.
    fn and(self, other: Self) -> Self;

    /// Lane-wise bitwise OR.
    fn or(self, other: Self) -> Self;

    /// Lane-wise bitwise XOR.
    fn xor(self, other: Self) -> Self;

    /// Lane-wise wrapping multiply keeping the low `Lane::BITS` bits
    /// (`mullo`) — the workhorse of the in-vector multiply-shift hash
    /// (`vec_calc_hash`, Algorithm 2 line 16).
    fn mullo(self, other: Self) -> Self;

    /// Lane-wise logical right shift by a uniform amount.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `n >= Lane::BITS`.
    fn shr(self, n: u32) -> Self;

    /// Lane-wise logical left shift by a uniform amount.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `n >= Lane::BITS`.
    fn shl(self, n: u32) -> Self;

    /// Lane-wise equality compare, returned as a bitmask with bit *i* set
    /// when `self[i] == other[i]` (the paper's `vec_cmpeq` followed by a
    /// movemask).
    fn cmpeq_bits(self, other: Self) -> u64;

    /// Per-lane select: lane *i* of the result is `if_set[i]` when bit *i*
    /// of `bits` is set, else `if_clear[i]`.
    fn blend_bits(bits: u64, if_set: Self, if_clear: Self) -> Self;

    /// Gather `LANES` elements: lane *i* of the result is
    /// `base[idx[i] as usize]` (the paper's `vec_gather_key` /
    /// `vec_gather_val`).
    ///
    /// # Safety
    ///
    /// Every lane of `idx`, interpreted as `u64`, must be `< base.len()`.
    /// Debug builds assert this.
    unsafe fn gather_idx(base: &[Self::Lane], idx: Self) -> Self;

    /// Masked gather: lane *i* is `base[idx[i]]` when bit *i* of `bits` is
    /// set, else `fallback[i]`. Lanes whose bit is clear must **not** be
    /// dereferenced (this is the "selective gather" of Case Study ⑤).
    ///
    /// # Safety
    ///
    /// For every lane *i* with bit *i* of `bits` set, `idx[i] < base.len()`.
    /// Debug builds assert this.
    unsafe fn gather_idx_masked(base: &[Self::Lane], idx: Self, bits: u64, fallback: Self) -> Self;

    /// Gather `LANES` *(key, value)* pairs stored adjacently and return
    /// `(keys, values)`.
    ///
    /// Pair *p* occupies `base[2p]` (key) and `base[2p + 1]` (value); lane
    /// *i* of the result uses pair `idx[i]`. This is the paper's
    /// "fewer, wider gathers" optimization (§IV-C): for 32-bit keys and
    /// values a single 64-bit-lane gather fetches both, halving the number of
    /// cache-line accesses. For 64-bit lanes no 128-bit gather exists on any
    /// x86 CPU, so implementations fall back to two gathers — which is
    /// exactly the effect Observation ② describes.
    ///
    /// # Safety
    ///
    /// Every lane of `idx` must satisfy `2 * idx[i] + 1 < base.len()`.
    /// Debug builds assert this.
    unsafe fn gather_pairs(base: &[Self::Lane], idx: Self) -> (Self, Self);

    /// Bitmask covering all lanes of this vector (`LANES` low bits set).
    #[inline]
    fn lane_mask() -> u64 {
        if Self::LANES >= 64 {
            u64::MAX
        } else {
            (1u64 << Self::LANES) - 1
        }
    }
}

/// Issue a read prefetch (to all cache levels) for the line containing `p`.
///
/// A no-op on non-x86 targets. This is the software stand-in for the
/// "hardware-optimized 'gather' intrinsics that take some prefetching
/// hints" the paper's Observation ② asks for.
///
/// Call sites form the KVS Multi-Get prefetch pipeline (simdht-kvs
/// DESIGN.md §9): the tagged index probes issue it for candidate bucket
/// rows G keys ahead (`HashIndex::lookup_batch_prefetched` via
/// `prefetch_hash`), the SIMD tables sweep it over a batch's
/// candidate buckets (`CuckooTable::prefetch_candidates`), and the verify
/// phase stages it through `ItemTable::prefetch` (object-pointer rows) and
/// `SlabAllocator::prefetch` (item chunk headers). It is always a hint:
/// callers re-resolve through bounds-checked reads, so dropping every
/// prefetch changes performance, never results.
#[inline(always)]
pub fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a hint; it never faults, even on invalid
    // addresses.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p.cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = p;
    }
}

/// Iterate over the set bit positions of a match mask, lowest first.
///
/// # Examples
///
/// ```
/// use simdht_simd::set_lanes;
///
/// let lanes: Vec<usize> = set_lanes(0b1010_0001).collect();
/// assert_eq!(lanes, [0, 5, 7]);
/// ```
#[inline]
pub fn set_lanes(mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if bits == 0 {
            None
        } else {
            let lane = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some(lane)
        }
    })
}

/// The first set lane of a match mask, if any.
///
/// # Examples
///
/// ```
/// assert_eq!(simdht_simd::first_lane(0b100), Some(2));
/// assert_eq!(simdht_simd::first_lane(0), None);
/// ```
#[inline]
pub fn first_lane(bits: u64) -> Option<usize> {
    if bits == 0 {
        None
    } else {
        Some(bits.trailing_zeros() as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_lanes_iterates_in_order() {
        let v: Vec<usize> = set_lanes(0b1000_0000_0000_0101).collect();
        assert_eq!(v, [0, 2, 15]);
    }

    #[test]
    fn set_lanes_empty() {
        assert_eq!(set_lanes(0).count(), 0);
    }

    #[test]
    fn prefetch_read_is_harmless() {
        let data = [1u32, 2, 3, 4];
        prefetch_read(&data[0]);
        prefetch_read(&data[3]);
        // Prefetch is a hint: even a dangling-but-aligned address must not
        // fault (the ISA guarantees this; the call compiles to PREFETCHT0).
        prefetch_read(0x1000 as *const u32);
    }

    #[test]
    fn first_lane_picks_lowest() {
        assert_eq!(first_lane(0b110), Some(1));
        assert_eq!(first_lane(u64::MAX), Some(0));
    }
}
