//! **CRC-32** (IEEE 802.3, bit-reflected): the integrity trailer every
//! key-value protocol message carries.
//!
//! Two paths compute the same bits:
//!
//! * **Folding** (x86-64 with `pclmulqdq` + `sse4.1`, detected at run
//!   time): carry-less-multiply folding after Gopal et al., *Fast CRC
//!   Computation for Generic Polynomials Using PCLMULQDQ Instruction*
//!   (Intel, 2009). Four 128-bit accumulators fold 64-byte blocks, one
//!   accumulator folds the remaining 16-byte blocks, and a Barrett
//!   reduction takes the 128-bit remainder to 32 bits. The sub-16-byte
//!   tail goes through the table.
//! * **Bytewise**: one 256-entry table lookup per byte. It runs wherever
//!   folding cannot, and it is the oracle the tests hold folding to.
//!
//! The path is picked per call from the running CPU, not from the build's
//! target features, so a binary built without `-C target-cpu=native` still
//! folds on a capable host.
//!
//! ```
//! use simdht_simd::crc::{crc32, Crc32};
//!
//! assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
//! let mut h = Crc32::new();
//! h.update(b"1234");
//! h.update(b"56789");
//! assert_eq!(h.finalize(), 0xCBF4_3926);
//! ```

/// The IEEE 802.3 generator polynomial, bit-reflected, without its `x^32`
/// term.
const POLY: u32 = 0xEDB8_8320;

/// Bytewise lookup table, built at compile time.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes` — the per-message integrity trailer. Detects
/// every single-byte corruption and every burst shorter than 32 bits.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    update(0, bytes)
}

/// Streaming CRC-32 (IEEE) hasher: feed message bytes in pieces and
/// [`Crc32::finalize`] when done. `crc32(b)` equals
/// `Crc32::new().update(b).finalize()` for any split of `b` — the reactor
/// reply path uses this to seal a per-request sub-frame (header bytes
/// plus a record slice of the shared batch buffer) without first
/// concatenating the two spans.
#[derive(Copy, Clone, Debug, Default)]
pub struct Crc32(u32);

impl Crc32 {
    /// Start a fresh checksum.
    pub fn new() -> Self {
        Crc32(0)
    }

    /// Absorb `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        self.0 = update(self.0, bytes);
    }

    /// The CRC-32 of everything absorbed so far.
    #[must_use]
    pub fn finalize(self) -> u32 {
        self.0
    }
}

/// Extend `crc`, the CRC-32 of some prefix, by `bytes`: folding where the
/// CPU has it, bytewise otherwise.
fn update(crc: u32, bytes: &[u8]) -> u32 {
    update_folding(crc, bytes).unwrap_or_else(|| update_bytewise(crc, bytes))
}

/// The bytewise path: one table lookup per byte.
fn update_bytewise(crc: u32, bytes: &[u8]) -> u32 {
    let mut reg = !crc;
    for &b in bytes {
        reg = (reg >> 8) ^ TABLE[((reg ^ u32::from(b)) & 0xFF) as usize];
    }
    !reg
}

/// The folding path, or `None` when the running CPU lacks it.
fn update_folding(crc: u32, bytes: &[u8]) -> Option<u32> {
    #[cfg(target_arch = "x86_64")]
    if fold::available() {
        // SAFETY: `available` has just confirmed that the running CPU
        // executes every feature `fold::update` is compiled for.
        return Some(unsafe { fold::update(crc, bytes) });
    }
    let _ = (crc, bytes);
    None
}

#[cfg(target_arch = "x86_64")]
mod fold {
    use super::{update_bytewise, POLY};
    use core::arch::x86_64::*;

    /// `x^n mod P(x)`, bit-reflected and shifted left one bit: the 33-bit
    /// form a reflected 64×64 carry-less product needs, since that product
    /// lands one bit below where the unreflected one would.
    const fn x_pow_mod(n: u32) -> i64 {
        let mut reg: u32 = 1 << 31; // x^0, reflected
        let mut i = 0;
        while i < n {
            reg = if reg & 1 != 0 {
                (reg >> 1) ^ POLY
            } else {
                reg >> 1
            };
            i += 1;
        }
        (reg as i64) << 1
    }

    /// Barrett constant `μ = ⌊x^64 / P(x)⌋` (33 bits), bit-reflected.
    const fn barrett_mu() -> i64 {
        let p: u128 = 0x1_04C1_1DB7; // P(x) with its x^32 term, unreflected
        let mut rem: u128 = 1 << 64;
        let mut quot: u64 = 0;
        let mut bit = 64;
        while bit >= 32 {
            if (rem >> bit) & 1 != 0 {
                quot |= 1 << (bit - 32);
                rem ^= p << (bit - 32);
            }
            bit -= 1;
        }
        (quot.reverse_bits() >> 31) as i64
    }

    /// Fold distances: a 128-bit lane moves forward 512 bits in the
    /// four-lane loop and 128 bits in the one-lane loop; the final two
    /// steps reduce 128 → 96 → 64 bits.
    const K1: i64 = x_pow_mod(4 * 128 + 32);
    const K2: i64 = x_pow_mod(4 * 128 - 32);
    const K3: i64 = x_pow_mod(128 + 32);
    const K4: i64 = x_pow_mod(128 - 32);
    const K5: i64 = x_pow_mod(64);
    /// `P(x)` in the same reflected 33-bit form.
    const P_X: i64 = ((POLY as i64) << 1) | 1;
    const MU: i64 = barrett_mu();

    pub(super) fn available() -> bool {
        std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes and `loadu` has no alignment
        // requirement.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// Multiply `acc`'s halves by the two fold constants in `k` and add
    /// the block `next` the product lands on.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse2")]
    fn fold(acc: __m128i, next: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, k, 0x00);
        let hi = _mm_clmulepi64_si128(acc, k, 0x11);
        _mm_xor_si128(next, _mm_xor_si128(lo, hi))
    }

    /// Extend `crc` by `bytes` with carry-less-multiply folding.
    ///
    /// # Safety
    ///
    /// The running CPU must support `pclmulqdq` and `sse4.1`
    /// ([`available`]).
    #[target_feature(enable = "pclmulqdq,sse2,sse4.1")]
    pub(super) unsafe fn update(crc: u32, bytes: &[u8]) -> u32 {
        let (blocks, tail) = bytes.as_chunks::<16>();
        let Some((first, rest)) = blocks.split_first() else {
            return update_bytewise(crc, bytes);
        };
        // The running register enters as an XOR over the first 4 bytes.
        let seed = _mm_cvtsi32_si128(!crc as i32);
        let k3k4 = _mm_set_epi64x(K4, K3);
        let (mut acc, ones) = if rest.len() >= 3 {
            let mut lanes = [
                _mm_xor_si128(load(first), seed),
                load(&rest[0]),
                load(&rest[1]),
                load(&rest[2]),
            ];
            let (quads, ones) = rest[3..].as_chunks::<4>();
            let k1k2 = _mm_set_epi64x(K2, K1);
            for quad in quads {
                for (lane, block) in lanes.iter_mut().zip(quad) {
                    *lane = fold(*lane, load(block), k1k2);
                }
            }
            let acc = fold(lanes[0], lanes[1], k3k4);
            let acc = fold(acc, lanes[2], k3k4);
            (fold(acc, lanes[3], k3k4), ones)
        } else {
            (_mm_xor_si128(load(first), seed), rest)
        };
        for block in ones {
            acc = fold(acc, load(block), k3k4);
        }

        // 128 → 96 bits: the low 64 bits times x^96, onto the high 64.
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128(acc, k3k4, 0x10),
            _mm_srli_si128(acc, 8),
        );
        // 96 → 64 bits: the low 32 bits times x^64, onto the rest.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(acc, 4),
        );
        // Barrett, reflected: T1 = (R mod x^32)·μ, T2 = (T1 mod x^32)·P,
        // and the remainder is the upper half of R + T2.
        let mu_p = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), mu_p, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), mu_p, 0x00);
        let reg = _mm_extract_epi32(_mm_xor_si128(acc, t2), 1) as u32;
        update_bytewise(!reg, tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Deterministic pseudo-random bytes.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect()
    }

    /// Both paths, called explicitly, so the bytewise one runs even where
    /// the dispatcher would fold; plus the dispatcher itself.
    fn all_paths(crc: u32, bytes: &[u8]) -> Vec<u32> {
        let mut out = vec![update_bytewise(crc, bytes), update(crc, bytes)];
        out.extend(update_folding(crc, bytes));
        out
    }

    #[test]
    fn reference_vectors() {
        for path in all_paths(0, b"123456789") {
            assert_eq!(path, 0xCBF4_3926);
        }
        for path in all_paths(0, b"") {
            assert_eq!(path, 0);
        }
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(Crc32::new().finalize(), 0);
    }

    #[test]
    fn folding_runs_where_the_cpu_has_it() {
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            update_folding(0, b"").is_some(),
            std::arch::is_x86_feature_detected!("pclmulqdq")
                && std::arch::is_x86_feature_detected!("sse4.1")
        );
    }

    #[test]
    fn every_length_at_every_offset_matches_bytewise() {
        let buf = noise(4096 + 16, 0xC0FFEE);
        for offset in 0..16 {
            let data = &buf[offset..offset + 4096];
            // The oracle for every prefix length, in one bytewise pass.
            let mut expect = 0;
            for len in 0..=data.len() {
                if len > 0 {
                    expect = update_bytewise(expect, &data[len - 1..len]);
                }
                for got in all_paths(0, &data[..len]) {
                    assert_eq!(got, expect, "len {len}, offset {offset}");
                }
            }
        }
    }

    #[test]
    fn every_streaming_split_matches_one_shot() {
        let data = noise(4096, 0x5EED);
        let whole = update_bytewise(0, &data);
        for cut in 0..=data.len() {
            let (head, tail) = data.split_at(cut);
            let mut h = Crc32::new();
            h.update(head);
            h.update(tail);
            assert_eq!(h.finalize(), whole, "split at {cut}");
            if let Some(head_crc) = update_folding(0, head) {
                assert_eq!(
                    update_folding(head_crc, tail),
                    Some(whole),
                    "split at {cut}"
                );
            }
            assert_eq!(update_bytewise(update_bytewise(0, head), tail), whole);
        }
    }

    proptest! {
        #[test]
        fn random_buffers_and_splits_match_bytewise(
            data in proptest::collection::vec(any::<u8>(), 0..3000),
            cuts in proptest::collection::vec(any::<usize>(), 0..4),
        ) {
            let whole = update_bytewise(0, &data);
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (data.len() + 1)).collect();
            cuts.sort_unstable();
            let mut h = Crc32::new();
            let mut folded = Some(0);
            let mut from = 0;
            for cut in cuts.into_iter().chain([data.len()]) {
                h.update(&data[from..cut]);
                folded = folded.and_then(|crc| update_folding(crc, &data[from..cut]));
                from = cut;
            }
            prop_assert_eq!(h.finalize(), whole);
            if let Some(folded) = folded {
                prop_assert_eq!(folded, whole);
            }
            prop_assert_eq!(crc32(&data), whole);
        }
    }
}
