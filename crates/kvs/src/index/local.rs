//! A Folly-F14-style **localized-SIMD** index: tags co-resident with the
//! entries they guard on one 64-byte cache line.
//!
//! The four Table-I indexes split into *indirect SIMD* (tags packed in a
//! separate array — [`super::Memc3Index`], [`super::TagSimdIndex`] — an
//! extra cache line between tag hit and entry read) and *direct SIMD*
//! (full keys probed in-register — [`super::SimdIndex`] — only 4 entries
//! per line). The reinerp cuckoo-hashing-benchmark findings place a third
//! point on that curve, *localized SIMD*, which this index reproduces:
//!
//! * layout: (2,7) bucketized cuckoo table. Each bucket is **exactly one
//!   64-byte line**: a packed tag word (7 tag bytes + 1 control byte)
//!   followed by seven `[hash:32 | item:32]` entry words;
//! * probe: one SSE byte-compare over the tag word, then candidate entries
//!   verified against the *full* 32-bit hash — all on the line the tag
//!   match already pulled in. A find_hit touches one line (beats the
//!   indirect designs' two); a find_miss rejects 7 candidates per line
//!   (beats the direct designs' 4);
//! * relocation: partial-key cuckoo — the alternate bucket is derived from
//!   the tag by an XOR involution, so BFS relocation never re-reads keys
//!   (the shared [`TagCuckoo`] core);
//! * concurrency: the tag word and every entry word are `AtomicU64`, sized
//!   at construction, so the store's racy seqlock read path (DESIGN.md
//!   §11) may probe while a writer relocates. Writers publish the entry
//!   word *before* the tag byte that makes it visible (entry `Relaxed`,
//!   tag word `Release`; readers load the tag word `Acquire`).
//!
//! Tags are `0x80 | (hash >> 25)`, always `0x80..=0xFF`, so the empty-slot
//! sentinel (`0`) and the control byte (an occupancy count `<= 7`) can
//! never produce a false tag match. See DESIGN.md §16 for the layout
//! diagram and fence discipline.

use std::sync::atomic::{AtomicU64, Ordering};

use simdht_simd::scan;

use super::tagcuckoo::{with_byte, BucketLayout, TagCuckoo};
use crate::item::NO_ITEM;

const SLOTS: usize = 7;
/// Match-mask bits covering the 7 tag bytes (excludes the control byte).
const TAG_MASK: u32 = 0x7F;
/// The control byte is little-endian byte 7 of the tag word.
const CONTROL_SHIFT: u32 = 56;

/// The F14-style (2,7) localized-SIMD cuckoo index (`"local"`).
pub type F14LocalIndex = TagCuckoo<F14LocalLayout>;

/// One (2,7) bucket — exactly one cache line.
///
/// ```text
/// byte:    0    1    2    3    4    5    6    7     8..15  ...  56..63
///        tag0 tag1 tag2 tag3 tag4 tag5 tag6 count  entry0  ...  entry6
/// ```
#[repr(C, align(64))]
struct Bucket {
    /// Packed tag row: little-endian byte `s` is slot `s`'s tag (`0` =
    /// empty, else `0x80 | (hash >> 25)`); byte 7 is the control byte,
    /// the bucket's occupancy count.
    tags: AtomicU64,
    /// `[hash:32 | item:32]` per slot; contents are dont-care (stale)
    /// while the slot's tag byte is 0.
    entries: [AtomicU64; SLOTS],
}

// The one-line claim is structural, not aspirational.
const _: () = assert!(std::mem::size_of::<Bucket>() == 64);
const _: () = assert!(std::mem::align_of::<Bucket>() == 64);

/// F14 buckets: tag row and entries on one line.
///
/// Probes touch only the bucket array — fixed-capacity since
/// construction, every word (tag row and entries) an `AtomicU64` loaded
/// individually — so racy seqlock probes dereference nothing non-atomic
/// and nothing a writer could free. The entry-before-tag publication
/// order (see `write`) means a matching tag never exposes an unwritten
/// entry; stale values are caught by the full-hash check or the store's
/// seqlock validation.
pub struct F14LocalLayout {
    buckets: Vec<Bucket>,
}

impl BucketLayout for F14LocalLayout {
    const SLOTS: usize = SLOTS;
    /// A (2,7) BCHT with BFS relocation sustains well above this.
    const LOAD_FACTOR: f64 = 0.92;
    const NAME: &'static str = "F14Local (2,7) line-BCHT [SSE, F14-style]";

    /// The bucket's packed tag word.
    type Row = u64;

    fn with_buckets(buckets: usize) -> Self {
        F14LocalLayout {
            buckets: (0..buckets)
                .map(|_| Bucket {
                    tags: AtomicU64::new(0),
                    entries: std::array::from_fn(|_| AtomicU64::new(u64::from(NO_ITEM))),
                })
                .collect(),
        }
    }

    /// The 7-bit tag with the occupied marker: always in `0x80..=0xFF`, so
    /// it never collides with the empty sentinel (0) or the control byte
    /// (`<= 7`).
    fn tag(hash: u32) -> u8 {
        0x80 | (hash >> 25) as u8
    }

    /// Full key hash in the high half, item id in the low half. A racy
    /// reader can never pair one slot's hash with another's item — the
    /// pair changes atomically.
    fn pack(hash: u32, _tag: u8, item: u32) -> u64 {
        (u64::from(hash) << 32) | u64::from(item)
    }

    /// The full-hash check that rejects tag twins — on the line the tag
    /// load already pulled in.
    fn hit(entry: u64, hash: u32) -> bool {
        (entry >> 32) as u32 == hash
    }

    fn load_row(&self, bucket: usize) -> u64 {
        self.buckets[bucket].tags.load(Ordering::Acquire)
    }

    fn matches(row: &u64, tag: u8) -> u32 {
        scan::eq_mask8(*row, tag) & TAG_MASK
    }

    /// The SIMD occupancy scan: one zero-byte movemask over the tag row.
    fn empties(row: &u64) -> u32 {
        let m = scan::zero_mask8(*row) & TAG_MASK;
        debug_assert!(
            m == 0 || (row >> CONTROL_SHIFT) as usize != SLOTS,
            "count says full"
        );
        m
    }

    fn tag_in(row: &u64, s: usize) -> u8 {
        (row >> (8 * s)) as u8
    }

    fn entry(&self, bucket: usize, _row: &u64, s: usize) -> u64 {
        self.buckets[bucket].entries[s].load(Ordering::Relaxed)
    }

    /// The entry word is stored first (`Relaxed`), then the tag word that
    /// makes it visible (`Release`), so a reader whose `Acquire` tag load
    /// observes the new tag also observes the new entry. The control byte
    /// counts up when the slot was empty.
    fn write(&mut self, bucket: usize, s: usize, tag: u8, entry: u64) {
        debug_assert!(tag >= 0x80, "occupied tags carry the marker bit");
        let bucket = &self.buckets[bucket];
        bucket.entries[s].store(entry, Ordering::Relaxed);
        let word = bucket.tags.load(Ordering::Relaxed);
        let count_up = u64::from(Self::tag_in(&word, s) == 0) << CONTROL_SHIFT;
        bucket
            .tags
            .store(with_byte(word, s, tag) + count_up, Ordering::Release);
    }

    /// Zero the tag byte and count the control byte down. The entry word
    /// is left stale — `tag == 0` means its contents are dont-care, and
    /// racy readers that saw the old tag word re-verify the full hash (and
    /// the store re-validates the shard seqlock).
    fn clear(&mut self, bucket: usize, s: usize) {
        let tags = &self.buckets[bucket].tags;
        let word = tags.load(Ordering::Relaxed);
        debug_assert_ne!(Self::tag_in(&word, s), 0, "clearing an empty slot");
        tags.store(
            with_byte(word, s, 0) - (1 << CONTROL_SHIFT),
            Ordering::Release,
        );
    }

    /// The single cache line the bucket occupies.
    fn prefetch(&self, bucket: usize) {
        simdht_simd::prefetch_read(&self.buckets[bucket]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{hash_key, HashIndex};

    #[test]
    fn bucket_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<Bucket>(), 64);
        assert_eq!(std::mem::align_of::<Bucket>(), 64);
        // The bucket vector keeps every bucket line-aligned.
        let idx = F14LocalIndex::with_capacity(1000);
        for b in &idx.layout.buckets {
            assert_eq!(std::ptr::from_ref(b) as usize % 64, 0);
        }
    }

    #[test]
    fn tag_never_matches_sentinel_or_control() {
        for hash in [0u32, 1, 0x0100_0000, 0x7FFF_FFFF, u32::MAX] {
            let t = F14LocalLayout::tag(hash);
            assert!(t >= 0x80, "tag {t:#x} lost the marker bit");
        }
        // The alternate-bucket map is an involution for every tag.
        let idx = F14LocalIndex::with_capacity(10_000);
        for t in 0x80..=0xFFu8 {
            for b in [0usize, 1, idx.mask / 2, idx.mask] {
                assert_eq!(idx.alt_bucket(idx.alt_bucket(b, t), t), b);
            }
        }
    }

    #[test]
    fn control_byte_tracks_occupancy() {
        let mut idx = F14LocalIndex::with_capacity(1000);
        for i in 0..700u32 {
            idx.insert(hash_key(&i.to_le_bytes()), i).unwrap();
        }
        let mut total = 0usize;
        for b in &idx.layout.buckets {
            let word = b.tags.load(Ordering::Relaxed);
            let count = (word >> CONTROL_SHIFT) as usize;
            let occupied = SLOTS - (scan::zero_mask8(word) & TAG_MASK).count_ones() as usize;
            assert_eq!(count, occupied, "control byte out of sync");
            total += count;
        }
        assert_eq!(total, idx.len());
    }

    /// The SIMD occupancy scan places inserts in exactly the slot the
    /// scalar left-to-right walk would pick.
    #[test]
    fn simd_empty_scan_matches_scalar_walk() {
        let scalar_walk = |idx: &F14LocalIndex, bucket: usize| -> Option<usize> {
            (0..SLOTS)
                .map(|s| bucket * SLOTS + s)
                .find(|&i| idx.slot(i).0 == 0)
        };
        let mut idx = F14LocalIndex::with_capacity(2000);
        let mut state = 0xF14u64;
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
            // Every mutation leaves the SIMD scan agreeing with the walk
            // on a sample of buckets (including the one just touched).
            for probe in 0..4usize {
                let b = ((state >> (8 * probe)) as usize + step as usize) & idx.mask;
                assert_eq!(idx.empty_in(b), scalar_walk(&idx, b));
            }
        }
    }

    #[test]
    fn full_hash_check_rejects_tag_collisions() {
        let mut idx = F14LocalIndex::with_capacity(100);
        // Two hashes sharing bucket1 and tag but differing in full value.
        let h1 = 0x8000_0001u32;
        let h2 = 0x8001_0001u32;
        assert_eq!(F14LocalLayout::tag(h1), F14LocalLayout::tag(h2));
        assert_eq!(h1 as usize & idx.mask, h2 as usize & idx.mask);
        idx.insert(h1, 11).unwrap();
        assert_eq!(idx.probe_first(h2), NO_ITEM, "tag twin leaked through");
        idx.insert(h2, 22).unwrap();
        assert_eq!(idx.probe_first(h1), 11);
        assert_eq!(idx.probe_first(h2), 22);
        let mut all = vec![];
        idx.lookup_all(h1, &mut all);
        assert_eq!(all, [11], "lookup_all must filter on the full hash");
    }
}
