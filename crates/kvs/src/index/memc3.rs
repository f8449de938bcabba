//! The MemC3 hash index (Fan, Andersen, Kaminsky — NSDI'13): the paper's
//! non-SIMD CPU-optimized baseline (§VI-B).
//!
//! Layout per the paper's Table I: a (2,4) bucketized cuckoo table whose
//! slots hold a 1-byte *tag* (the top 8 bits of the key hash) and an object
//! pointer (here a 32-bit item id into the shared pointer array). Three
//! MemC3 signatures are reproduced faithfully:
//!
//! * **Tag-based probing** — lookups compare tags, not full hashes, so
//!   false positives are possible and the store must verify the full key.
//! * **Partial-key cuckoo hashing** — an entry's alternate bucket is
//!   derived from its *tag* alone (`b₂ = b₁ ⊕ h(tag)`), which is what lets
//!   relocation work without storing full keys.
//! * **Optimistic versioned buckets** — each bucket carries a version
//!   counter bumped around writes; readers retry on a torn read, so the
//!   read path pays two version loads per bucket exactly as MemC3 does.
//!
//! The cuckoo table itself is the shared [`TagCuckoo`] core; this file is
//! the bucket layout.

use std::sync::atomic::{AtomicU64, Ordering};

use super::tagcuckoo::{BucketLayout, TagCuckoo};
use crate::item::NO_ITEM;
use crate::seqlock::SeqCount;

const SLOTS: usize = 4;

/// An empty slot word: tag 0, no item.
const EMPTY_SLOT: u64 = NO_ITEM as u64;

/// The MemC3 (2,4) tag-based cuckoo index.
pub type Memc3Index = TagCuckoo<Memc3Layout>;

/// MemC3 buckets: four packed slot words per bucket plus a per-bucket
/// version counter on a side array.
///
/// Probes touch only `slots`/`versions`, both fixed-capacity arrays of
/// atomic words sized at construction (cuckoo relocations move entries
/// between slots, never the arrays) — racy seqlock probes dereference
/// nothing non-atomic and nothing a writer could free.
pub struct Memc3Layout {
    slots: Vec<AtomicU64>,
    versions: Vec<SeqCount>,
}

impl Memc3Layout {
    /// Store one slot word inside the bucket's version bump (the
    /// [`SeqCount`] write discipline: odd bump, release fence, store, even
    /// bump with release).
    fn set_slot(&mut self, bucket: usize, s: usize, word: u64) {
        let _write = self.versions[bucket].begin_write();
        self.slots[bucket * SLOTS + s].store(word, Ordering::Relaxed);
    }
}

impl BucketLayout for Memc3Layout {
    const SLOTS: usize = SLOTS;
    const LOAD_FACTOR: f64 = 0.90;
    const NAME: &'static str = "MemC3 (2,4) tag-BCHT [scalar]";

    /// The bucket's four slot words.
    type Row = [u64; SLOTS];

    fn with_buckets(buckets: usize) -> Self {
        Memc3Layout {
            slots: (0..buckets * SLOTS)
                .map(|_| AtomicU64::new(EMPTY_SLOT))
                .collect(),
            versions: (0..buckets).map(|_| SeqCount::new()).collect(),
        }
    }

    /// A slot is the single `AtomicU64` word `[tag:8][item:32]`. One-word
    /// slots mean a racing reader can never see a tag paired with another
    /// entry's item id, and — because the store's optimistic path probes
    /// this index while a writer mutates it — they are what keeps those
    /// racy probes free of data races on non-atomic memory.
    fn pack(_hash: u32, tag: u8, item: u32) -> u64 {
        (u64::from(tag) << 32) | u64::from(item)
    }

    /// Optimistic read of one bucket's slots. Slot words are atomic, so
    /// each load is individually untorn; the version check additionally
    /// yields a consistent snapshot of the whole bucket.
    #[inline(always)]
    fn load_row(&self, bucket: usize) -> Self::Row {
        loop {
            if let Some(v) = self.versions[bucket].read_begin() {
                let row = self.own_row(bucket);
                if self.versions[bucket].validate(v) {
                    return row;
                }
            }
        }
    }

    /// Writer-side snapshot: the caller is the only writer, so relaxed
    /// loads race nothing and need no version check.
    fn own_row(&self, bucket: usize) -> Self::Row {
        std::array::from_fn(|s| self.slots[bucket * SLOTS + s].load(Ordering::Relaxed))
    }

    /// The scalar tag compare, one slot at a time.
    fn matches(row: &Self::Row, tag: u8) -> u32 {
        (0..SLOTS)
            .filter(|&s| (row[s] >> 32) as u8 == tag && row[s] as u32 != NO_ITEM)
            .fold(0, |m, s| m | 1 << s)
    }

    /// The SIMD occupancy scan: the item id is the low half of each packed
    /// slot word, so one low-32 movemask against [`NO_ITEM`] finds the
    /// empties.
    fn empties(row: &Self::Row) -> u32 {
        simdht_simd::scan::eq_low32_mask(row, NO_ITEM)
    }

    fn tag_in(row: &Self::Row, s: usize) -> u8 {
        (row[s] >> 32) as u8
    }

    fn entry(&self, _bucket: usize, row: &Self::Row, s: usize) -> u64 {
        row[s]
    }

    fn write(&mut self, bucket: usize, s: usize, tag: u8, entry: u64) {
        debug_assert_eq!((entry >> 32) as u8, tag, "the slot word carries its tag");
        self.set_slot(bucket, s, entry);
    }

    fn clear(&mut self, bucket: usize, s: usize) {
        self.set_slot(bucket, s, EMPTY_SLOT);
    }

    /// Both the slot array and the version counter: the optimistic read
    /// loads the version first.
    fn prefetch(&self, bucket: usize) {
        simdht_simd::prefetch_read(&self.slots[bucket * SLOTS]);
        simdht_simd::prefetch_read(&self.versions[bucket]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{hash_key, HashIndex};

    /// The SIMD low-32 occupancy scan picks exactly the slot the scalar
    /// walk over unpacked items picked, across an insert/remove history.
    #[test]
    fn simd_empty_scan_matches_scalar_walk() {
        let scalar_walk = |idx: &Memc3Index, bucket: usize| -> Option<usize> {
            (0..SLOTS)
                .map(|s| bucket * SLOTS + s)
                .find(|&i| idx.slot(i).1 as u32 == NO_ITEM)
        };
        let mut idx = Memc3Index::with_capacity(2000);
        let mut state = 0x3EC3_0001u64;
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
