//! The tagged-bucket cuckoo core shared by the `memc3`, `dpdk` and `local`
//! indexes: the paper's Table I tagged designs are one partial-key (2,m)
//! bucketized cuckoo table that differ only in where a bucket keeps its
//! tags and entries. [`TagCuckoo`] is that table; a [`BucketLayout`] is the
//! bucket, a static type parameter, so each backend compiles to its own
//! monomorphised probe.

use std::collections::HashSet;

use super::{HashIndex, IndexError};
use crate::item::NO_ITEM;

/// Bound on BFS nodes during relocation (as in `simdht-table`).
const MAX_BFS_NODES: usize = 2048;

/// How one bucket stores its tags and entries. Slot `s` holds a one-byte
/// tag (`0` = empty) and a 64-bit entry word whose low 32 bits are the item
/// id.
///
/// Every word a probe touches must live in storage sized by
/// [`BucketLayout::with_buckets`] that never moves or frees, and be read
/// with atomic loads: that is why [`TagCuckoo`] may answer `true` to
/// [`HashIndex::optimistic_probe_safe`]. Writer methods take `&mut self`,
/// so their read-modify-writes never race another writer.
pub trait BucketLayout: Send + Sync + Sized {
    /// Slots per bucket (at most 32).
    const SLOTS: usize;
    /// Load factor [`TagCuckoo::with_capacity`] sizes for.
    const LOAD_FACTOR: f64;
    /// Report name ([`HashIndex::name`]).
    const NAME: &'static str;
    /// One bucket's tag row as a probe loads it.
    type Row: Copy;

    /// Storage for `buckets` empty buckets.
    fn with_buckets(buckets: usize) -> Self;
    /// The tag of `hash`: its top byte, folded off the empty marker `0`.
    fn tag(hash: u32) -> u8 {
        ((hash >> 24) as u8).max(1)
    }
    /// The entry word stored for `hash → item`.
    fn pack(hash: u32, tag: u8, item: u32) -> u64;
    /// Whether a tag-matched entry really belongs to `hash`.
    fn hit(_entry: u64, _hash: u32) -> bool {
        true
    }
    /// Load a bucket's row on the read path, racing writers.
    fn load_row(&self, bucket: usize) -> Self::Row;
    /// Load a bucket's row on the write path.
    fn own_row(&self, bucket: usize) -> Self::Row {
        self.load_row(bucket)
    }
    /// Bit `s` set when slot `s` is occupied with `tag`.
    fn matches(row: &Self::Row, tag: u8) -> u32;
    /// Bit `s` set when slot `s` is empty.
    fn empties(row: &Self::Row) -> u32;
    /// Tag of slot `s`.
    fn tag_in(row: &Self::Row, s: usize) -> u8;
    /// Entry word of slot `s` of `bucket`, whose row is `row`.
    fn entry(&self, bucket: usize, row: &Self::Row, s: usize) -> u64;
    /// Store and publish `(tag, entry)` in slot `s` of `bucket`.
    fn write(&mut self, bucket: usize, s: usize, tag: u8, entry: u64);
    /// Empty slot `s` of `bucket`.
    fn clear(&mut self, bucket: usize, s: usize);
    /// Request the cache lines a probe of `bucket` touches.
    fn prefetch(&self, bucket: usize);
}

/// `word` with little-endian byte `s` replaced by `byte`.
pub(super) fn with_byte(word: u64, s: usize, byte: u8) -> u64 {
    (word & !(0xFF << (8 * s))) | (u64::from(byte) << (8 * s))
}

/// A partial-key (2,m) cuckoo hash index over bucket layout `L`. Slots are
/// numbered globally, `bucket * L::SLOTS + s`.
pub struct TagCuckoo<L> {
    pub(super) layout: L,
    pub(super) mask: usize,
    len: usize,
}

impl<L: BucketLayout> std::fmt::Debug for TagCuckoo<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {{ buckets: {}, len: {} }}",
            L::NAME,
            self.mask + 1,
            self.len
        )
    }
}

impl<L: BucketLayout> TagCuckoo<L> {
    /// Create an index able to hold at least `capacity_items` entries at
    /// the layout's target load factor.
    pub fn with_capacity(capacity_items: usize) -> Self {
        let needed_slots = ((capacity_items as f64 / L::LOAD_FACTOR).ceil() as usize).max(L::SLOTS);
        let buckets = (needed_slots / L::SLOTS + 1).next_power_of_two();
        let (layout, mask) = (L::with_buckets(buckets), buckets - 1);
        TagCuckoo {
            layout,
            mask,
            len: 0,
        }
    }

    /// Partial-key alternate bucket `b ⊕ h(tag)`: an involution of the tag
    /// alone, so relocation never re-reads keys. The multiplier is the
    /// de-facto MemC3/libcuckoo tag scatter constant.
    pub(super) fn alt_bucket(&self, bucket: usize, tag: u8) -> usize {
        (bucket ^ ((tag as usize).wrapping_mul(0x5bd1_e995))) & self.mask
    }

    /// `(tag, b₁, b₂)` for `hash`.
    #[inline(always)]
    fn home(&self, hash: u32) -> (u8, usize, usize) {
        let (tag, b1) = (L::tag(hash), hash as usize & self.mask);
        (tag, b1, self.alt_bucket(b1, tag))
    }

    /// Walk `hash`'s candidates — tag matches that pass [`BucketLayout::hit`]
    /// — in `b₁` then `b₂`, lowest slot first, loading rows with `row`.
    /// Returns the first `Some` that `visit(global slot, entry)` gives.
    #[inline(always)]
    fn candidates<R>(
        &self,
        hash: u32,
        row: impl Fn(&L, usize) -> L::Row,
        mut visit: impl FnMut(usize, u64) -> Option<R>,
    ) -> Option<R> {
        let (tag, b1, b2) = self.home(hash);
        for b in [b1, b2] {
            let r = row(&self.layout, b);
            let mut m = L::matches(&r, tag);
            while m != 0 {
                let s = m.trailing_zeros() as usize;
                let e = self.layout.entry(b, &r, s);
                if L::hit(e, hash) {
                    if let Some(out) = visit(b * L::SLOTS + s, e) {
                        return Some(out);
                    }
                }
                m &= m - 1;
            }
            if b1 == b2 {
                break;
            }
        }
        None
    }

    /// Slot holding exactly `entry` for `hash`.
    fn find_slot(&self, hash: u32, entry: u64) -> Option<usize> {
        self.candidates(hash, L::own_row, |idx, e| (e == entry).then_some(idx))
    }

    /// First empty slot of `bucket`: the lowest bit of the layout's
    /// occupancy scan, the slot a left-to-right walk would pick.
    pub(super) fn empty_in(&self, bucket: usize) -> Option<usize> {
        let m = L::empties(&self.layout.own_row(bucket));
        (m != 0).then(|| bucket * L::SLOTS + m.trailing_zeros() as usize)
    }

    /// `(tag, entry word)` of global slot `idx`.
    pub(super) fn slot(&self, idx: usize) -> (u8, u64) {
        let (b, s) = (idx / L::SLOTS, idx % L::SLOTS);
        let row = self.layout.own_row(b);
        (L::tag_in(&row, s), self.layout.entry(b, &row, s))
    }

    fn write(&mut self, idx: usize, (tag, entry): (u8, u64)) {
        self.layout
            .write(idx / L::SLOTS, idx % L::SLOTS, tag, entry);
    }

    /// BFS from the home buckets to the nearest free slot. Returns the slot
    /// chain `[home slot, …, free slot]`.
    fn find_path(&self, b1: usize, b2: usize) -> Option<Vec<usize>> {
        // (global slot, parent node); the home buckets' slots are roots.
        let mut nodes: Vec<(usize, usize)> = Vec::with_capacity(128);
        let mut seen = HashSet::new();
        for b in [b1, b2] {
            if seen.insert(b) {
                nodes.extend((0..L::SLOTS).map(|s| (b * L::SLOTS + s, usize::MAX)));
            }
        }
        let mut head = 0;
        while head < nodes.len() && nodes.len() < MAX_BFS_NODES {
            let (b, s) = (nodes[head].0 / L::SLOTS, nodes[head].0 % L::SLOTS);
            let alt = self.alt_bucket(b, L::tag_in(&self.layout.own_row(b), s));
            if seen.insert(alt) {
                if let Some(free) = self.empty_in(alt) {
                    let mut path = vec![free];
                    let mut at = head;
                    while at != usize::MAX {
                        path.push(nodes[at].0);
                        at = nodes[at].1;
                    }
                    path.reverse();
                    return Some(path);
                }
                nodes.extend((0..L::SLOTS).map(|s| (alt * L::SLOTS + s, head)));
            }
            head += 1;
        }
        None
    }

    /// `(tag, entry word)` of every slot, for the placement fingerprints.
    #[cfg(test)]
    pub(super) fn slot_dump(&self) -> Vec<(u8, u64)> {
        (0..(self.mask + 1) * L::SLOTS)
            .map(|i| self.slot(i))
            .collect()
    }
}

impl<L: BucketLayout> HashIndex for TagCuckoo<L> {
    fn name(&self) -> &'static str {
        L::NAME
    }

    fn insert(&mut self, hash: u32, item: u32) -> Result<(), IndexError> {
        let (tag, b1, b2) = self.home(hash);
        let entry = L::pack(hash, tag, item);
        // Update in place if this exact mapping exists.
        if let Some(idx) = self.find_slot(hash, entry) {
            self.write(idx, (tag, entry));
            return Ok(());
        }
        let slot = match self.empty_in(b1).or_else(|| self.empty_in(b2)) {
            Some(free) => free,
            None => {
                // Shift from the free end, so every moved entry stays
                // findable in one of its buckets throughout.
                let path = self.find_path(b1, b2).ok_or(IndexError::Full)?;
                for w in (1..path.len()).rev() {
                    self.write(path[w], self.slot(path[w - 1]));
                }
                path[0]
            }
        };
        self.write(slot, (tag, entry));
        self.len += 1;
        Ok(())
    }

    fn remove(&mut self, hash: u32, item: u32) {
        if let Some(idx) = self.find_slot(hash, L::pack(hash, L::tag(hash), item)) {
            self.layout.clear(idx / L::SLOTS, idx % L::SLOTS);
            self.len -= 1;
        }
    }

    fn lookup_batch(&self, hashes: &[u32], out: &mut [u32]) {
        assert_eq!(hashes.len(), out.len(), "output slice length mismatch");
        for (h, o) in hashes.iter().zip(out.iter_mut()) {
            *o = self.probe_first(*h);
        }
    }

    #[inline(always)]
    fn probe_first(&self, hash: u32) -> u32 {
        self.candidates(hash, L::load_row, |_, e| Some(e as u32))
            .unwrap_or(NO_ITEM)
    }

    fn prefetch_hash(&self, hash: u32) {
        let (_, b1, b2) = self.home(hash);
        self.layout.prefetch(b1);
        self.layout.prefetch(b2);
    }

    fn lookup_all(&self, hash: u32, out: &mut Vec<u32>) {
        self.candidates(hash, L::load_row, |_, e| {
            out.push(e as u32);
            None::<()>
        });
    }

    // Probes touch only the layout's fixed-capacity atomic storage (the
    // `BucketLayout` contract; each layout says why it holds).
    fn optimistic_probe_safe(&self) -> bool {
        true
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// The behaviour every layout shares, run over all three; layout-specific
/// checks live beside their layouts.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::hash_key;
    use crate::index::local::F14LocalLayout;
    use crate::index::memc3::Memc3Layout;
    use crate::index::tagsimd::TagSimdLayout;

    fn key(i: u32) -> u32 {
        hash_key(&i.to_le_bytes())
    }

    fn insert_lookup_roundtrip<L: BucketLayout>() {
        let mut idx = TagCuckoo::<L>::with_capacity(2000);
        for i in 0..1500u32 {
            idx.insert(key(i), i).unwrap();
        }
        assert_eq!(idx.len(), 1500, "{}", L::NAME);
        let hashes: Vec<u32> = (0..1500u32).map(key).collect();
        let mut first = vec![0u32; hashes.len()];
        idx.lookup_batch(&hashes, &mut first);
        for (i, &h) in (0u32..).zip(&hashes) {
            // Tags are only 7–8 bits: the first candidate may be a tag
            // collision, but the true item must be among all candidates,
            // and the first candidate leads that list.
            let mut all = vec![];
            idx.lookup_all(h, &mut all);
            assert!(all.contains(&i), "{}: item {i} unreachable", L::NAME);
            assert_eq!(first[i as usize], all[0], "{}: item {i}", L::NAME);
        }
    }

    #[test]
    fn insert_lookup_roundtrip_all_layouts() {
        insert_lookup_roundtrip::<Memc3Layout>();
        insert_lookup_roundtrip::<TagSimdLayout>();
        insert_lookup_roundtrip::<F14LocalLayout>();
    }

    /// More than `floor` of 200 unknown hashes miss.
    fn misses_mostly_miss<L: BucketLayout>(floor: usize) {
        let mut idx = TagCuckoo::<L>::with_capacity(200);
        for i in 0..100u32 {
            idx.insert(key(i), i).unwrap();
        }
        let hashes: Vec<u32> = (50_000..50_200u32).map(key).collect();
        let mut out = vec![0u32; hashes.len()];
        idx.lookup_batch(&hashes, &mut out);
        let misses = out.iter().filter(|&&x| x == NO_ITEM).count();
        assert!(misses > floor, "{}: only {misses} misses", L::NAME);
    }

    #[test]
    fn misses_mostly_miss_all_layouts() {
        misses_mostly_miss::<Memc3Layout>(180);
        misses_mostly_miss::<TagSimdLayout>(180);
        // Full-hash verification on the probe path: absent hashes can only
        // hit via a genuine 32-bit collision, which this range avoids.
        misses_mostly_miss::<F14LocalLayout>(199);
    }

    fn remove_and_reuse<L: BucketLayout>() {
        let mut idx = TagCuckoo::<L>::with_capacity(100);
        let h = hash_key(b"k");
        idx.insert(h, 5).unwrap();
        idx.remove(h, 6); // wrong item: no-op
        assert_eq!(idx.len(), 1, "{}", L::NAME);
        idx.remove(h, 5);
        assert_eq!(idx.len(), 0, "{}", L::NAME);
        assert_eq!(idx.probe_first(h), NO_ITEM, "{}", L::NAME);
        idx.insert(h, 7).unwrap();
        let mut all = vec![];
        idx.lookup_all(h, &mut all);
        assert_eq!(all, [7], "{}", L::NAME);
    }

    #[test]
    fn remove_and_reuse_all_layouts() {
        remove_and_reuse::<Memc3Layout>();
        remove_and_reuse::<TagSimdLayout>();
        remove_and_reuse::<F14LocalLayout>();
    }

    fn reaches_high_load_factor<L: BucketLayout>(min_lf: f64) {
        let mut idx = TagCuckoo::<L>::with_capacity(4000);
        let capacity = (idx.mask + 1) * L::SLOTS;
        let mut n = 0u32;
        while (n as usize) < capacity && idx.insert(key(n), n).is_ok() {
            n += 1;
        }
        let lf = n as f64 / capacity as f64;
        assert!(lf > min_lf, "{}: load factor only {lf:.3}", L::NAME);
    }

    #[test]
    fn reaches_high_load_factor_all_layouts() {
        reaches_high_load_factor::<Memc3Layout>(0.90);
        reaches_high_load_factor::<TagSimdLayout>(0.95);
        reaches_high_load_factor::<F14LocalLayout>(0.94);
    }

    fn update_same_mapping_does_not_grow<L: BucketLayout>() {
        let mut idx = TagCuckoo::<L>::with_capacity(10);
        let h = hash_key(b"x");
        idx.insert(h, 3).unwrap();
        idx.insert(h, 3).unwrap();
        assert_eq!(idx.len(), 1, "{}", L::NAME);
    }

    #[test]
    fn update_same_mapping_does_not_grow_all_layouts() {
        update_same_mapping_does_not_grow::<Memc3Layout>();
        update_same_mapping_does_not_grow::<TagSimdLayout>();
        update_same_mapping_does_not_grow::<F14LocalLayout>();
    }

    fn works_as_store_backend<L: BucketLayout + 'static>() {
        use crate::store::{KvStore, StoreConfig};
        let store = KvStore::new(
            Box::new(TagCuckoo::<L>::with_capacity(5000)),
            StoreConfig {
                memory_budget: 8 << 20,
                capacity_items: 5000,
                shards: 1,
                prefetch_depth: None,
                ..StoreConfig::default()
            },
        );
        for i in 0..3000u32 {
            store
                .set(format!("tag-{i}").as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        for i in (0..3000u32).step_by(11) {
            assert_eq!(
                store.get(format!("tag-{i}").as_bytes()).as_deref(),
                Some(&i.to_le_bytes()[..]),
                "{}",
                L::NAME
            );
        }
        assert!(store.delete(b"tag-100"), "{}", L::NAME);
        assert_eq!(store.get(b"tag-100"), None, "{}", L::NAME);
    }

    #[test]
    fn works_as_store_backend_all_layouts() {
        works_as_store_backend::<Memc3Layout>();
        works_as_store_backend::<TagSimdLayout>();
        works_as_store_backend::<F14LocalLayout>();
    }
}
