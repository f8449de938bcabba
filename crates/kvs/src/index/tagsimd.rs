//! A DPDK/Cuckoo++-style **SIMD tag index**: the remaining SIMD-aware rows
//! of the paper's Table I made executable.
//!
//! DPDK's `rte_hash` and Cuckoo++ both use (2,8) bucketized cuckoo tables
//! whose eight per-slot *signatures* are stored contiguously so one SSE
//! byte-compare probes the whole bucket (Table I: "Yes (SSE)"). This index
//! reproduces that design over the store's 32-bit key hashes:
//!
//! * layout: (2,8) BCHT, partial-key cuckoo relocation (alternate bucket
//!   derived from the signature, as in MemC3/DPDK) — the shared
//!   [`TagCuckoo`] core;
//! * storage: split arrays — one packed `AtomicU64` signature word per
//!   bucket (slot `s` at bits `8·s`, i.e. little-endian byte `s`) and
//!   `AtomicU32` item ids — so the signature block is exactly one 64-bit
//!   SSE lane *and* every word the store's racy optimistic probes touch is
//!   atomic;
//! * probe: splat the signature, one `pcmpeqb` + movemask over the bucket,
//!   verify candidates through the store's full-key check (signatures are
//!   8-bit, so false positives are expected and harmless).
//!
//! Contrast with [`super::Memc3Index`] (same tag width, scalar probe, 4-way
//! buckets) and [`super::SimdIndex`] (full 32-bit keys in the table): this
//! is the middle point — SIMD acceleration *without* widening the stored
//! key.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use simdht_simd::scan;

use super::tagcuckoo::{with_byte, BucketLayout, TagCuckoo};
use crate::item::NO_ITEM;

const SLOTS: usize = 8;

/// The (2,8) signature-SIMD cuckoo index (DPDK `rte_hash` / Cuckoo++ style).
pub type TagSimdIndex = TagCuckoo<TagSimdLayout>;

/// DPDK buckets: a signature word per bucket and the item ids on a side
/// array.
///
/// Probes touch only the split `sigs`/`items` arrays — fixed-capacity
/// since construction and made of atomic words — so racy seqlock probes
/// dereference nothing non-atomic and nothing a writer could free.
pub struct TagSimdLayout {
    sigs: Vec<AtomicU64>,
    items: Vec<AtomicU32>,
}

impl TagSimdLayout {
    /// Store one slot: its signature byte (a writer-side read-modify-write
    /// of the shared word, which racy readers see change atomically) and
    /// its item id.
    fn set(&self, bucket: usize, s: usize, sig: u8, item: u32) {
        let word = self.sigs[bucket].load(Ordering::Relaxed);
        self.sigs[bucket].store(with_byte(word, s, sig), Ordering::Relaxed);
        self.items[bucket * SLOTS + s].store(item, Ordering::Relaxed);
    }
}

impl BucketLayout for TagSimdLayout {
    const SLOTS: usize = SLOTS;
    /// A (2,8) BCHT sustains ≈ 0.98 (paper Fig. 2).
    const LOAD_FACTOR: f64 = 0.95;
    const NAME: &'static str = "TagSimd (2,8) sig-BCHT [SSE, DPDK-style]";

    /// The bucket's packed signature word.
    type Row = u64;

    fn with_buckets(buckets: usize) -> Self {
        TagSimdLayout {
            sigs: (0..buckets).map(|_| AtomicU64::new(0)).collect(),
            items: (0..buckets * SLOTS)
                .map(|_| AtomicU32::new(NO_ITEM))
                .collect(),
        }
    }

    fn pack(_hash: u32, _tag: u8, item: u32) -> u64 {
        u64::from(item)
    }

    fn load_row(&self, bucket: usize) -> u64 {
        self.sigs[bucket].load(Ordering::Relaxed)
    }

    /// One `pcmpeqb` + movemask. Empty slots hold signature 0 (`clear`
    /// zeroes the byte, so `sig == 0 ⟺ empty`) while live signatures are
    /// `>= 1`, so the match mask needs no separate occupancy pass.
    fn matches(row: &u64, tag: u8) -> u32 {
        scan::eq_mask8(*row, tag)
    }

    /// The SIMD occupancy scan: one zero-byte movemask over the signature
    /// word.
    fn empties(row: &u64) -> u32 {
        scan::zero_mask8(*row)
    }

    fn tag_in(row: &u64, s: usize) -> u8 {
        (row >> (8 * s)) as u8
    }

    fn entry(&self, bucket: usize, _row: &u64, s: usize) -> u64 {
        u64::from(self.items[bucket * SLOTS + s].load(Ordering::Relaxed))
    }

    fn write(&mut self, bucket: usize, s: usize, tag: u8, entry: u64) {
        self.set(bucket, s, tag, entry as u32);
    }

    fn clear(&mut self, bucket: usize, s: usize) {
        self.set(bucket, s, 0, NO_ITEM);
    }

    /// Split storage: two distinct lines per bucket.
    fn prefetch(&self, bucket: usize) {
        simdht_simd::prefetch_read(&self.sigs[bucket]);
        simdht_simd::prefetch_read(&self.items[bucket * SLOTS]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{hash_key, HashIndex};

    #[test]
    fn sig_matcher_semantics() {
        // Slot s is little-endian byte s of the packed word.
        let word = u64::from_le_bytes([9u8, 3, 9, 0, 9, 9, 1, 2]);
        assert_eq!(TagSimdLayout::matches(&word, 9), 0b0011_0101);
        assert_eq!(TagSimdLayout::matches(&word, 7), 0);
        assert_eq!(TagSimdLayout::matches(&word, 2), 0b1000_0000);
    }

    /// The SIMD occupancy scan over the signature word picks exactly the
    /// slot the old scalar walk over the item array picked, across an
    /// arbitrary insert/remove history (`sig == 0 ⟺ item == NO_ITEM`).
    #[test]
    fn simd_empty_scan_matches_scalar_walk() {
        let scalar_walk = |idx: &TagSimdIndex, bucket: usize| -> Option<usize> {
            (0..SLOTS)
                .map(|s| bucket * SLOTS + s)
                .find(|&i| idx.slot(i).1 as u32 == NO_ITEM)
        };
        let mut idx = TagSimdIndex::with_capacity(2000);
        let mut state = 0xD9D7_0001u64;
        let mut live: Vec<(u32, u32)> = Vec::new();
        for step in 0..4000u32 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if !state.is_multiple_of(3) || live.is_empty() {
                let h = hash_key(&step.to_le_bytes());
                idx.insert(h, step).unwrap();
                live.push((h, step));
            } else {
                let victim = live.swap_remove((state >> 32) as usize % live.len());
                idx.remove(victim.0, victim.1);
            }
            for probe in 0..4usize {
                let b = ((state >> (8 * probe)) as usize + step as usize) & idx.mask;
                assert_eq!(idx.empty_in(b), scalar_walk(&idx, b), "bucket {b}");
            }
        }
    }
}
