//! The in-memory key-value store: slab-backed items, a pluggable hash
//! index, CLOCK freshness, and the three-phase Multi-Get pipeline the
//! paper instruments (§VI-A, Fig. 10/11b):
//!
//! 1. **Pre-processing** — parse the batch, compute a 32-bit hash per
//!    key, and partition the batch by shard.
//! 2. **Hash-table lookup** — the batched index probe (the phase SIMD
//!    accelerates), run per shard under that shard's shared lock.
//! 3. **Post-processing** — resolve object pointers, verify the full key
//!    against the slab, copy values into the response, and update CLOCK
//!    freshness metadata.
//!
//! # Sharding
//!
//! The store is split into `S` power-of-two **shards** (the paper's first
//! named piece of future work is concurrent mixed read/write workloads;
//! sharding is the standard memcached scaling recipe). Each shard owns its
//! own slab arena, item table, hash index, CLOCK ring, and statistics, all
//! behind one `RwLock`. Keys route to shards by an independent
//! multiply-shift hash over the 32-bit key hash — the same scheme as
//! [`simdht_table::sharded::ShardedTable`] — so a hot index bucket and a
//! hot shard are uncorrelated.
//!
//! Writes (`set`/`delete`) lock only their key's shard. A Multi-Get is
//! partitioned by shard and runs one batched SIMD lookup per non-empty
//! shard; it holds **at most one shard lock at a time** (see DESIGN.md,
//! "Shard routing and lock hierarchy"), so lookups scale with shard count
//! and can never deadlock against multi-key writers.
//!
//! `KvStore` spawns no background threads: dropping it (after the last
//! `Arc` clone goes away) only frees memory and cannot race an in-flight
//! request, because any in-flight request holds a shard guard borrowed
//! from the store itself.

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::time::Instant;

use parking_lot::RwLock;

use crate::clock::Clock;
use crate::index::{hash_key, hash_keys_into, HashIndex, IndexError};
use crate::item::{
    decode_row, item_decode_checked, item_key, item_value, read_item_racy, write_item, ItemTable,
    NO_ITEM,
};
use crate::seqlock::{SeqCount, SeqWriteGuard};
use crate::slab::{SlabAllocator, SlabError, SlabRef};

/// Default Multi-Get prefetch look-ahead (`G`) used when
/// [`StoreConfig::prefetch_depth`] is `None`. Eight keeps ~8 independent
/// cache-line requests in flight per stage — within every recent x86 core's
/// ~10–16 outstanding L1 misses (its miss-status registers) without
/// crowding out the demand loads.
pub const DEFAULT_PREFETCH_DEPTH: usize = 8;

/// How `get`/`mget` readers synchronize with writers (DESIGN.md §11).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum ReadMode {
    /// Readers take the shard's shared `RwLock` (the classic path; always
    /// available, byte-identical results to `Optimistic`).
    #[default]
    Locked,
    /// Seqlock optimistic reads: readers never take the shard lock and
    /// never write shared state — they snapshot the shard's version
    /// counter, probe/copy racily, and re-validate (per-row words for
    /// hits, the shard counter for misses), retrying once and then
    /// falling back to the locked path. Requires every shard index to
    /// report [`HashIndex::optimistic_probe_safe`]; otherwise the store
    /// silently stays on the locked path.
    Optimistic,
}

impl ReadMode {
    /// Parse a `--read-mode` flag value.
    pub fn parse(s: &str) -> Option<ReadMode> {
        match s {
            "locked" => Some(ReadMode::Locked),
            "optimistic" => Some(ReadMode::Optimistic),
            _ => None,
        }
    }

    /// The flag spelling of this mode.
    pub fn name(self) -> &'static str {
        match self {
            ReadMode::Locked => "locked",
            ReadMode::Optimistic => "optimistic",
        }
    }
}

/// Store construction parameters.
#[derive(Copy, Clone, Debug)]
pub struct StoreConfig {
    /// Slab memory budget in bytes (split evenly across shards).
    pub memory_budget: usize,
    /// Expected maximum live items (sizes the hash index; split across
    /// shards).
    pub capacity_items: usize,
    /// Number of shards (rounded up to a power of two; `1` = the classic
    /// single-lock store).
    pub shards: usize,
    /// Multi-Get software-prefetch look-ahead `G` (DESIGN.md §9):
    /// `None` = auto ([`DEFAULT_PREFETCH_DEPTH`]), `Some(0)` = disabled,
    /// `Some(g)` = prefetch index buckets / item rows / slab chunks `g`
    /// keys ahead of the probe or verification that will touch them.
    /// Tunable at runtime via [`KvStore::set_prefetch_depth`].
    pub prefetch_depth: Option<usize>,
    /// Reader synchronization mode (DESIGN.md §11). Tunable at runtime
    /// via [`KvStore::set_read_mode`].
    pub read_mode: ReadMode,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            memory_budget: 64 << 20,
            capacity_items: 100_000,
            shards: 1,
            prefetch_depth: None,
            read_mode: ReadMode::Locked,
        }
    }
}

/// Error from [`KvStore::set`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The object cannot fit in any slab class.
    ObjectTooLarge,
    /// Could not make room even after evicting everything.
    OutOfMemory,
    /// The hash index refused the entry even after eviction attempts.
    IndexFull,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::ObjectTooLarge => write!(f, "object exceeds largest slab class"),
            StoreError::OutOfMemory => write!(f, "out of memory after eviction"),
            StoreError::IndexFull => write!(f, "hash index full after eviction"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Outcome of a [`KvStore::cas`] compare-and-swap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CasOutcome {
    /// The expected version matched; the value was replaced and the key's
    /// version advanced to the carried value.
    Stored(u64),
    /// The key exists but its current version (carried) differs from the
    /// expected one; nothing was written.
    Conflict(u64),
    /// The key does not exist (or had expired); nothing was written.
    NotFound,
}

/// Process-coarse monotonic seconds — the store's TTL clock (DESIGN.md
/// §13). Second granularity keeps the expiry metadata word cheap to
/// compare on the read path; the epoch is process start, so absolute
/// `expires_at` values are only meaningful within one process.
fn coarse_now() -> u64 {
    use std::sync::OnceLock;
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_secs()
}

/// `true` when expiry metadata word `at` marks an item dead at `now`
/// (0 = never expires).
#[inline(always)]
fn is_expired(at: u64, now: u64) -> bool {
    at != 0 && at <= now
}

/// Per-phase elapsed nanoseconds of one Multi-Get (Fig. 11b breakdown).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseNanos {
    /// Pre-processing: parse + hash + shard partition.
    pub pre: u64,
    /// Hash-table lookup (batched, summed over probed shards).
    pub lookup: u64,
    /// Post-processing: verify + copy + CLOCK updates.
    pub post: u64,
}

impl PhaseNanos {
    /// Total server data-access time.
    pub fn total(&self) -> u64 {
        self.pre + self.lookup + self.post
    }

    /// Accumulate another breakdown.
    pub fn add(&mut self, other: PhaseNanos) {
        self.pre += other.pre;
        self.lookup += other.lookup;
        self.post += other.post;
    }
}

/// Result of one Multi-Get.
#[derive(Copy, Clone, Debug, Default)]
pub struct MGetOutcome {
    /// Keys found.
    pub found: usize,
    /// Phase timing.
    pub phases: PhaseNanos,
}

/// Result of one batched Multi-Set ([`KvStore::set_multi`]).
#[derive(Copy, Clone, Debug, Default)]
pub struct SetMultiOutcome {
    /// Keys stored successfully.
    pub stored: usize,
    /// Phase timing (pre = hash + partition, lookup = the candidate
    /// prefetch probe, post = the inserts themselves).
    pub phases: PhaseNanos,
}

/// Reusable scratch + per-key results for [`KvStore::set_multi`] — the
/// write path's counterpart to [`MGetResponse`]. Reusing one batch across
/// calls avoids per-request allocation, as a real server does.
#[derive(Debug, Default)]
pub struct SetMultiBatch {
    results: Vec<Result<(), StoreError>>,
    hashes: Vec<u32>,
    per_shard: Vec<Vec<u32>>,
    sub_hashes: Vec<u32>,
    candidates: Vec<u32>,
}

impl SetMultiBatch {
    /// An empty batch buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Per-key outcomes of the last [`KvStore::set_multi`], in request
    /// order (duplicate keys each get the outcome of their own insert).
    pub fn results(&self) -> &[Result<(), StoreError>] {
        &self.results
    }
}

/// Bytes before the first per-key record of a Multi-Get response frame:
/// `[opcode: u8] [request id: u64 LE] [key count: u16 LE]`.
const RESP_HEADER_BYTES: usize = 11;

/// A reusable Multi-Get response buffer that **is** the wire frame: `mget`
/// Phase 3 writes each value directly after its `[found: u8][len: u32 LE]`
/// record in one contiguous buffer laid out exactly as
/// `crate::protocol::Response::MGet` encodes, behind an 11-byte header
/// placeholder. [`MGetResponse::seal_frame`] then patches in the request id
/// and key count and appends the CRC-32 trailer — so the daemon's reply
/// path sends the buffer as-is, with no per-value copy (DESIGN.md §9).
#[derive(Debug, Default, Clone)]
pub struct MGetResponse {
    /// The in-progress wire body (header placeholder + per-key records in
    /// request order; CRC appended by `seal_frame`).
    buf: Vec<u8>,
    /// Per request slot: `(offset, len)` of the value bytes inside `buf`.
    entries: Vec<Option<(u32, u32)>>,
    /// Total value bytes (response-size accounting, excludes framing).
    value_bytes: usize,
    sealed: bool,
    // Reusable scratch for the lookup pipeline (no per-request allocation).
    hashes: Vec<u32>,
    candidates: Vec<u32>,
    per_shard: Vec<Vec<u32>>,
    sub_hashes: Vec<u32>,
    refs: Vec<Option<SlabRef>>,
    words: Vec<u64>,
    chunk_buf: Vec<u8>,
    reorder: Vec<u8>,
}

impl MGetResponse {
    /// Create an empty response buffer.
    pub fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self, n: usize) {
        self.buf.clear();
        self.buf.resize(RESP_HEADER_BYTES, 0);
        self.buf[0] = crate::protocol::OP_MGET_RESP;
        self.entries.clear();
        self.entries.resize(n, None);
        self.value_bytes = 0;
        self.sealed = false;
    }

    /// Number of slots (keys in the request).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the response holds no slots.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The value returned for request slot `i`, if found.
    pub fn value(&self, i: usize) -> Option<&[u8]> {
        self.entries[i].map(|(off, len)| &self.buf[off as usize..(off + len) as usize])
    }

    /// Append a hit record `[1][len][value]` for slot `i`.
    fn push_hit(&mut self, i: usize, value: &[u8]) {
        self.buf.push(1);
        self.buf
            .extend_from_slice(&(value.len() as u32).to_le_bytes());
        let off = self.buf.len() as u32;
        self.buf.extend_from_slice(value);
        self.entries[i] = Some((off, value.len() as u32));
        self.value_bytes += value.len();
    }

    /// Append a miss record `[0]`.
    fn push_miss(&mut self) {
        self.buf.push(0);
    }

    /// Undo the records appended by a failed optimistic shard pass. A
    /// shard's records are always the contiguous tail of `buf` (each shard
    /// appends in one run), so truncating to the pre-pass marks and
    /// clearing the slots the pass filled restores the response exactly.
    fn rollback(&mut self, buf_len: usize, value_bytes: usize, slots: impl Iterator<Item = usize>) {
        self.buf.truncate(buf_len);
        self.value_bytes = value_bytes;
        for i in slots {
            self.entries[i] = None;
        }
    }

    /// Rewrite `buf`'s records into request order. A single-shard `mget`
    /// emits records in request order already; the multi-shard path emits
    /// them grouped by shard, so one compaction pass (the same one copy per
    /// value the old dedicated encoder paid) restores wire order here.
    fn finalize_request_order(&mut self) {
        let mut wire = std::mem::take(&mut self.reorder);
        wire.clear();
        wire.extend_from_slice(&self.buf[..RESP_HEADER_BYTES]);
        for e in self.entries.iter_mut() {
            match e {
                Some((off, len)) => {
                    wire.push(1);
                    wire.extend_from_slice(&len.to_le_bytes());
                    let new_off = wire.len() as u32;
                    wire.extend_from_slice(&self.buf[*off as usize..(*off + *len) as usize]);
                    *off = new_off;
                }
                None => wire.push(0),
            }
        }
        std::mem::swap(&mut self.buf, &mut wire);
        self.reorder = wire;
    }

    /// Turn the response into a complete, CRC-sealed wire frame for request
    /// `id` and return it, ready for `write_frame`. Call once per `mget`
    /// (the next `mget` resets the buffer); [`MGetResponse::value`] remains
    /// usable after sealing.
    ///
    /// # Panics
    ///
    /// Panics if called twice without an intervening `mget`, before any
    /// `mget`, or with more than `u16::MAX` slots (the protocol's key-count
    /// field width; requests are decoded with the same bound).
    pub fn seal_frame(&mut self, id: u64) -> &[u8] {
        assert!(!self.sealed, "seal_frame called twice on one response");
        assert!(
            self.buf.len() >= RESP_HEADER_BYTES,
            "seal_frame requires a completed mget"
        );
        assert!(
            self.entries.len() <= usize::from(u16::MAX),
            "too many keys for one frame"
        );
        self.buf[1..9].copy_from_slice(&id.to_le_bytes());
        self.buf[9..11].copy_from_slice(&(self.entries.len() as u16).to_le_bytes());
        let crc = crate::protocol::crc32(&self.buf);
        self.buf.extend_from_slice(&crc.to_le_bytes());
        self.sealed = true;
        &self.buf
    }

    /// Total value bytes returned (for response-size accounting).
    pub fn payload_bytes(&self) -> usize {
        self.value_bytes
    }

    /// Append one request's slice of a coalesced batch as a complete,
    /// length-prefixed, CRC-sealed MGet response frame for request `id`.
    ///
    /// The reactor server concatenates the keys of many pipelined
    /// requests into one wide `mget` so the lookup pipeline runs at full
    /// batch width, then scatters the shared response buffer back out
    /// per request. Slot range `slots` must be the contiguous run of
    /// batch slots belonging to one request; the bytes appended to `out`
    /// are identical to what the thread-per-connection path produces for
    /// that request alone (`write_frame` of [`MGetResponse::seal_frame`]),
    /// so the two server modes are byte-compatible on the wire.
    ///
    /// Returns the number of bytes appended (frame prefix included).
    ///
    /// # Panics
    ///
    /// Panics if called after [`MGetResponse::seal_frame`] (the batch
    /// buffer must stay unsealed — a coalesced batch is never shipped as
    /// one frame), if `slots` is out of bounds or not ascending, or if
    /// the range holds more than `u16::MAX` slots (the per-request
    /// key-count bound the protocol enforces on decode).
    pub fn append_subframe(
        &self,
        slots: std::ops::Range<usize>,
        id: u64,
        out: &mut Vec<u8>,
    ) -> usize {
        assert!(!self.sealed, "append_subframe requires an unsealed batch");
        assert!(
            slots.start <= slots.end && slots.end <= self.entries.len(),
            "slot range {slots:?} out of bounds for {} slots",
            self.entries.len()
        );
        assert!(
            slots.len() <= usize::from(u16::MAX),
            "too many keys for one frame"
        );
        // Walk the records preceding the range to find its byte span: a
        // hit occupies `[1][len u32][value]` (5 + len bytes), a miss one
        // `[0]` byte.
        let mut cursor = RESP_HEADER_BYTES;
        let mut start = None;
        for (i, e) in self.entries.iter().enumerate().take(slots.end) {
            if i == slots.start {
                start = Some(cursor);
            }
            cursor += match e {
                Some((_, len)) => 5 + *len as usize,
                None => 1,
            };
        }
        let (start, end) = (start.unwrap_or(cursor), cursor);

        let mut header = [0u8; RESP_HEADER_BYTES];
        header[0] = crate::protocol::OP_MGET_RESP;
        header[1..9].copy_from_slice(&id.to_le_bytes());
        header[9..11].copy_from_slice(&(slots.len() as u16).to_le_bytes());
        let records = &self.buf[start..end];
        let frame_len = RESP_HEADER_BYTES + records.len() + 4;
        let before = out.len();
        out.reserve(4 + frame_len);
        out.extend_from_slice(&(frame_len as u32).to_le_bytes());
        out.extend_from_slice(&header);
        out.extend_from_slice(records);
        let mut crc = crate::protocol::Crc32::new();
        crc.update(&header);
        crc.update(records);
        out.extend_from_slice(&crc.finalize().to_le_bytes());
        out.len() - before
    }
}

/// Multiply-shift shard routing over a 32-bit key hash — the same scheme
/// `simdht_table::sharded::ShardedTable` uses for its table keys, exposed
/// so property tests can prove the two layers agree on placement for the
/// same `(mul, shift, mask)` parameters.
#[inline(always)]
pub fn shard_route(hash: u32, mul: u32, shift: u32, mask: usize) -> usize {
    (hash.wrapping_mul(mul) >> shift) as usize & mask
}

/// The fixed routing multiplier (odd, independent of the FNV key hash and
/// of every index's bucket function).
pub const SHARD_MUL: u32 = 0x9E37_79B9;

/// Snapshot of one shard's counters (or their sum, via
/// [`KvStore::totals`]). Conservation invariant: summing any field across
/// [`KvStore::shard_stats`] equals the same field of [`KvStore::totals`],
/// and `items` sums to [`KvStore::len`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Live items.
    pub items: usize,
    /// Successful `set` calls routed here.
    pub sets: u64,
    /// Successful `delete` calls routed here.
    pub deletes: u64,
    /// CLOCK evictions performed here.
    pub evictions: u64,
    /// Multi-Get keys probed here.
    pub mget_keys: u64,
    /// Multi-Get keys found here.
    pub mget_hits: u64,
    /// Successful `cas` stores routed here.
    pub cas_ok: u64,
    /// `cas` version conflicts routed here.
    pub cas_conflicts: u64,
    /// Successful `touch`/`set_ttl` calls routed here.
    pub touches: u64,
    /// Expired items observed (lazy-expiry misses) or reclaimed here.
    pub expired: u64,
}

impl ShardStats {
    /// Accumulate another shard's counters.
    pub fn add(&mut self, other: &ShardStats) {
        self.items += other.items;
        self.sets += other.sets;
        self.deletes += other.deletes;
        self.evictions += other.evictions;
        self.mget_keys += other.mget_keys;
        self.mget_hits += other.mget_hits;
        self.cas_ok += other.cas_ok;
        self.cas_conflicts += other.cas_conflicts;
        self.touches += other.touches;
        self.expired += other.expired;
    }
}

#[derive(Default)]
struct ShardCounters {
    sets: AtomicU64,
    deletes: AtomicU64,
    evictions: AtomicU64,
    mget_keys: AtomicU64,
    mget_hits: AtomicU64,
    cas_ok: AtomicU64,
    cas_conflicts: AtomicU64,
    touches: AtomicU64,
    expired: AtomicU64,
}

struct Shard {
    slab: SlabAllocator,
    items: ItemTable,
    index: Box<dyn HashIndex>,
    clock: Clock,
}

// Compile-time proof that Shard is Send + Sync — the precondition for the
// manual ShardSlot impls below (which only *reorganize* what RwLock<Shard>
// provided before, they don't weaken it).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Shard>();
};

/// One shard: its state, lock, seqlock version counter, and counters.
///
/// The shard state sits in an `UnsafeCell` beside a `RwLock<()>` rather
/// than inside a `RwLock<Shard>` so the optimistic read path can reach it
/// *without* touching the lock word (the whole point of DESIGN.md §11 —
/// no shared-state writes on reads). The lock still carries exactly the
/// old access discipline via [`ShardSlot::read`]/[`ShardSlot::write`];
/// [`ShardSlot::racy`] is the one doorway around it, handing out a
/// [`RacyShard`] whose accessors are only trustworthy under the seqlock
/// validation protocol.
struct ShardSlot {
    /// Even/odd shard version: odd while a writer holds the write lock.
    seq: SeqCount,
    lock: RwLock<()>,
    shard: UnsafeCell<Shard>,
    counters: ShardCounters,
}

// SAFETY: `ShardSlot` recreates what `RwLock<Shard>` was (Shard is
// Send + Sync, proven above): all `&mut Shard` access goes through the
// write lock, all `&Shard` access through the read lock — except
// `racy()`, whose `RacyShard` reads racing memory only through atomic
// or volatile loads and whose callers follow the seqlock validation
// protocol before trusting any of it.
unsafe impl Send for ShardSlot {}
unsafe impl Sync for ShardSlot {}

struct ShardReadGuard<'a> {
    _g: parking_lot::RwLockReadGuard<'a, ()>,
    shard: &'a Shard,
}

impl Deref for ShardReadGuard<'_> {
    type Target = Shard;
    fn deref(&self) -> &Shard {
        self.shard
    }
}

struct ShardWriteGuard<'a> {
    // Declared first: drops first, so the version returns to even while
    // the write lock is still held (readers never see even + mid-mutation).
    _seq: SeqWriteGuard<'a>,
    _g: parking_lot::RwLockWriteGuard<'a, ()>,
    // A raw pointer, not `&'a mut Shard`: optimistic readers racily load
    // atomic/volatile words from the same shard while this guard is live,
    // and a live `&mut` would assert exclusivity over the whole `Shard`
    // for the guard's entire lifetime. Each deref materializes a
    // reference only for that call, mirroring [`RacyShard`] on the
    // reader side (crossbeam-seqlock discipline).
    shard: *mut Shard,
    _marker: PhantomData<&'a mut Shard>,
}

impl Deref for ShardWriteGuard<'_> {
    type Target = Shard;
    fn deref(&self) -> &Shard {
        // SAFETY: the exclusive lock (held for `'a`) keeps every other
        // lock holder out, so no `&mut` aliases this reference.
        unsafe { &*self.shard }
    }
}

impl DerefMut for ShardWriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut Shard {
        // SAFETY: as above; `&mut self` keeps this guard from handing out
        // an overlapping `&Shard` of its own.
        unsafe { &mut *self.shard }
    }
}

impl ShardSlot {
    fn read(&self) -> ShardReadGuard<'_> {
        let g = self.lock.read();
        // SAFETY: the shared lock excludes writers (every `&mut` access
        // goes through `write`), so a shared borrow is sound.
        ShardReadGuard {
            _g: g,
            shard: unsafe { &*self.shard.get() },
        }
    }

    /// Exclusive access; marks the shard version odd for the duration so
    /// optimistic readers spin or fall back instead of reading
    /// mid-mutation state.
    fn write(&self) -> ShardWriteGuard<'_> {
        let g = self.lock.write();
        let seq = self.seq.begin_write();
        ShardWriteGuard {
            _seq: seq,
            _g: g,
            shard: self.shard.get(),
            _marker: PhantomData,
        }
    }

    /// Lock-free view for the optimistic read protocol. Safe to obtain —
    /// all the unsafety lives inside [`RacyShard`]'s narrow accessors,
    /// each of which reads racing memory only through atomic or volatile
    /// loads. Callers must still validate every conclusion against `seq`
    /// or a row word before acting on it (the seqlock protocol).
    fn racy(&self) -> RacyShard<'_> {
        RacyShard {
            shard: self.shard.get(),
            _slot: PhantomData,
        }
    }
}

/// A lock-free, by-value handle to a shard for optimistic readers.
///
/// Deliberately *not* `&Shard`: a shared reference would claim the whole
/// shard immutable while a writer holding [`ShardSlot::write`] mutates it
/// — a data race and `&`/`&mut` aliasing violation even if the read
/// results are later discarded. Instead this wraps the raw pointer and
/// exposes only the handful of operations the optimistic protocol needs;
/// each materializes the narrowest reference for the duration of one call,
/// and every byte those calls read from memory a writer may be rewriting
/// travels through an atomic load ([`HashIndex::lookup_batch_optimistic`]
/// on an [`HashIndex::optimistic_probe_safe`] index, [`ItemTable`] row
/// words, CLOCK bits) or a volatile copy (slab chunk bytes via
/// [`read_item_racy`]) — the same de-facto-tolerated discipline as
/// crossbeam's seqlock. None of these reads are torn-proof; the caller's
/// seq/row-word validation is what turns them into trustworthy results.
#[derive(Copy, Clone)]
struct RacyShard<'a> {
    shard: *const Shard,
    _slot: PhantomData<&'a ShardSlot>,
}

impl RacyShard<'_> {
    /// Racy batched index probe (atomic loads only; see
    /// [`HashIndex::lookup_batch_optimistic`]).
    #[inline(always)]
    fn lookup(&self, hashes: &[u32], out: &mut [u32], depth: usize) {
        // SAFETY: the reference lives for this call only; the probe reads
        // index storage exclusively through atomic loads per the
        // `optimistic_probe_safe` contract.
        let index = unsafe { &*(*self.shard).index };
        index.lookup_batch_optimistic(hashes, out, depth);
    }

    /// Atomic item-row word load ([`ItemTable::load_row`]).
    #[inline(always)]
    fn load_row(&self, item: u32) -> u64 {
        // SAFETY: call-scoped reference; row words live in a stable
        // `AtomicSegArray` and are only read atomically.
        unsafe { (*self.shard).items.load_row(item) }
    }

    /// Row-word revalidation ([`ItemTable::revalidate`]).
    #[inline(always)]
    fn revalidate(&self, item: u32, word: u64) -> bool {
        // SAFETY: as `load_row`.
        unsafe { (*self.shard).items.revalidate(item, word) }
    }

    /// Racy expiry-metadata load ([`ItemTable::expires_at`]). Only
    /// trustworthy when the row word loaded *before* this call still
    /// revalidates afterwards — the register order (metadata before the
    /// row publish) plus the generation bump make an unchanged word prove
    /// the metadata belongs to that exact registration.
    #[inline(always)]
    fn expires_at(&self, item: u32) -> u64 {
        // SAFETY: as `load_row`; expiry words live in a stable
        // `AtomicSegArray` and are only read atomically.
        unsafe { (*self.shard).items.expires_at(item) }
    }

    /// Prefetch an item row's cache line ([`ItemTable::prefetch`]).
    #[inline(always)]
    fn prefetch_row(&self, item: u32) {
        // SAFETY: as `load_row`; a prefetch hint reads nothing.
        unsafe { (*self.shard).items.prefetch(item) }
    }

    /// Volatile copy-out of an item's leading bytes
    /// ([`read_item_racy`]); `false` if `r` is bogus (torn row read).
    #[inline(always)]
    fn read_item(&self, r: SlabRef, buf: &mut Vec<u8>) -> bool {
        // SAFETY: call-scoped reference; chunk bytes are copied with
        // volatile loads from pages that are never freed or moved.
        unsafe { read_item_racy(&(*self.shard).slab, r, buf) }
    }

    /// Atomic CLOCK touch ([`Clock::touch`]) — the one shared-state write
    /// the optimistic path performs.
    #[inline(always)]
    fn touch(&self, item: u32) {
        // SAFETY: call-scoped reference; the bitmap is atomic and stable.
        unsafe { (*self.shard).clock.touch(item) }
    }

    /// Optimistic AMAC stage 2: load candidate `cand`'s row word (its
    /// line made warm by an earlier [`RacyShard::prefetch_row`]) and
    /// request the chunk's leading cache line, so the full-key compare
    /// `G` iterations later reads a warm line. The racy counterpart of
    /// [`Shard::resolve_and_prefetch`].
    #[inline(always)]
    fn stage_word(&self, cand: u32) -> u64 {
        if cand == NO_ITEM {
            return 0;
        }
        let word = self.load_row(cand);
        if let Some(r) = decode_row(word) {
            // SAFETY: call-scoped reference; a prefetch hint reads
            // nothing, and chunk addresses come from stable metadata.
            unsafe { (*self.shard).slab.prefetch(r) };
        }
        word
    }
}

/// Counters for the optimistic read path (all modes; zero under
/// [`ReadMode::Locked`]). Snapshot via [`KvStore::optimistic_stats`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct OptimisticStats {
    /// Optimistic passes started (a retry starts a new pass).
    pub attempts: u64,
    /// Passes that validated and committed their results.
    pub commits: u64,
    /// Passes rolled back for a retry after failed validation.
    pub retries: u64,
    /// Per-key locked collision assists taken inside optimistic passes.
    pub assists: u64,
    /// Reads that gave up on the optimistic path (writer active or both
    /// attempts invalidated) and ran the locked path instead.
    pub fallbacks: u64,
}

/// Internal counters: the hot commit path pays exactly one RMW
/// (`commits`); everything else is bumped only on the cold
/// retry/abort/assist edges, and `attempts` is *derived* in the snapshot
/// (`commits + retries + aborts` — every started pass ends in exactly one
/// of those three).
#[derive(Default)]
struct OptimisticCounters {
    commits: AtomicU64,
    retries: AtomicU64,
    /// Started passes abandoned without a retry (e.g. a full-key
    /// mismatch that `get` hands to the locked collision slow path).
    aborts: AtomicU64,
    assists: AtomicU64,
    fallbacks: AtomicU64,
}

/// The sharded key-value store. Reads (`get`/`mget`) take a shared lock on
/// each shard they probe (one at a time) — or, under
/// [`ReadMode::Optimistic`], no lock at all (seqlock validation, DESIGN.md
/// §11) — and run concurrently across server workers; writes
/// (`set`/`delete`) serialize only within their key's shard.
pub struct KvStore {
    shards: Vec<ShardSlot>,
    shard_mul: u32,
    shard_shift: u32,
    shard_mask: usize,
    /// Multi-Get prefetch look-ahead `G` (0 = disabled). Atomic so bench
    /// sweeps can vary it on a live, populated store.
    prefetch_depth: AtomicUsize,
    /// Current [`ReadMode`] as a `u8` (0 = locked, 1 = optimistic); atomic
    /// so sweeps can flip it on a live store.
    read_mode: AtomicU8,
    /// Test/bench offset added to the coarse TTL clock (seconds); lets
    /// deterministic suites expire items without sleeping.
    time_offset: AtomicU64,
    /// Whether every shard's index supports racy probes; if not, the
    /// optimistic mode silently degrades to locked.
    optimistic_safe: bool,
    optimistic: OptimisticCounters,
    name: &'static str,
    /// Test-only writer pause point: called by `set` after the
    /// replace-delete, while the write lock is held and the shard version
    /// is odd. Lets the torn-read oracle hold a writer mid-mutation.
    #[cfg(any(test, feature = "torture"))]
    torture_set_pause: parking_lot::Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
}

impl std::fmt::Debug for KvStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvStore")
            .field("index", &self.name)
            .field("shards", &self.shards.len())
            .field("items", &self.len())
            .finish()
    }
}

impl KvStore {
    /// Create a classic single-shard store over the given hash index.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards > 1` — a multi-shard store needs one index
    /// per shard; use [`KvStore::with_shards`].
    pub fn new(index: Box<dyn HashIndex>, config: StoreConfig) -> Self {
        assert!(
            config.shards <= 1,
            "KvStore::new builds a single shard; use KvStore::with_shards for {} shards",
            config.shards
        );
        let mut index = Some(index);
        Self::with_shards(
            StoreConfig {
                shards: 1,
                ..config
            },
            move |_| index.take().expect("single shard"),
        )
    }

    /// Create a store with `config.shards` shards (rounded up to a power
    /// of two), calling `make_index` once per shard with the per-shard
    /// item capacity.
    pub fn with_shards(
        config: StoreConfig,
        mut make_index: impl FnMut(usize) -> Box<dyn HashIndex>,
    ) -> Self {
        let n = config.shards.max(1).next_power_of_two();
        let per_capacity = config.capacity_items.div_ceil(n);
        let per_budget = (config.memory_budget / n).max(1 << 20);
        let shards: Vec<ShardSlot> = (0..n)
            .map(|_| ShardSlot {
                seq: SeqCount::new(),
                lock: RwLock::new(()),
                shard: UnsafeCell::new(Shard {
                    slab: SlabAllocator::new(per_budget),
                    items: ItemTable::new(),
                    index: make_index(per_capacity),
                    clock: Clock::new(),
                }),
                counters: ShardCounters::default(),
            })
            .collect();
        let (name, optimistic_safe) = {
            let g = shards[0].read();
            (g.index.name(), g.index.optimistic_probe_safe())
        };
        let log2 = n.trailing_zeros();
        KvStore {
            shards,
            shard_mul: SHARD_MUL,
            shard_shift: (32 - log2).clamp(1, 31),
            shard_mask: n - 1,
            prefetch_depth: AtomicUsize::new(
                config.prefetch_depth.unwrap_or(DEFAULT_PREFETCH_DEPTH),
            ),
            read_mode: AtomicU8::new(config.read_mode as u8),
            time_offset: AtomicU64::new(0),
            optimistic_safe,
            optimistic: OptimisticCounters::default(),
            name,
            #[cfg(any(test, feature = "torture"))]
            torture_set_pause: parking_lot::Mutex::new(None),
        }
    }

    /// The current reader synchronization mode.
    pub fn read_mode(&self) -> ReadMode {
        match self.read_mode.load(Ordering::Relaxed) {
            0 => ReadMode::Locked,
            _ => ReadMode::Optimistic,
        }
    }

    /// Change the reader synchronization mode at runtime; the
    /// `kvs-readscale-sweep` experiment uses this to compare the two
    /// paths on one populated store.
    ///
    /// On a quiescent store the two modes return byte-identical results
    /// (proved by `tests/read_mode_differential.rs`). Under concurrent
    /// writers they differ in one visible way: each key a batched `mget`
    /// returns is still individually linearizable, but an optimistic
    /// batch is **not** a shard-atomic snapshot — a writer may commit
    /// between two hits of one batch, whereas the locked pass holds the
    /// shard lock across its whole slice (see DESIGN.md §11).
    pub fn set_read_mode(&self, mode: ReadMode) {
        self.read_mode.store(mode as u8, Ordering::Relaxed);
    }

    /// Snapshot of the optimistic read path counters.
    pub fn optimistic_stats(&self) -> OptimisticStats {
        let commits = self.optimistic.commits.load(Ordering::Relaxed);
        let retries = self.optimistic.retries.load(Ordering::Relaxed);
        let aborts = self.optimistic.aborts.load(Ordering::Relaxed);
        OptimisticStats {
            attempts: commits + retries + aborts,
            commits,
            retries,
            assists: self.optimistic.assists.load(Ordering::Relaxed),
            fallbacks: self.optimistic.fallbacks.load(Ordering::Relaxed),
        }
    }

    #[inline(always)]
    fn use_optimistic(&self) -> bool {
        self.optimistic_safe && self.read_mode() == ReadMode::Optimistic
    }

    /// Whether this store's index backend declares its probes safe for
    /// lock-free optimistic reads ([`HashIndex::optimistic_probe_safe`]).
    /// When false, `ReadMode::Optimistic` silently behaves like `Locked`.
    pub fn optimistic_capable(&self) -> bool {
        self.optimistic_safe
    }

    /// Install (or clear) the torn-read torture hook: `set` calls it after
    /// deleting a replaced key's old item, with the write lock held and
    /// the shard version odd. A hook that blocks holds the writer
    /// mid-mutation — the adversarial window the seqlock protocol must
    /// make invisible to readers. Test/`torture`-feature builds only.
    ///
    /// Note: the hook runs under an internal mutex, so don't call
    /// `set_torture_set_pause` again while a hooked `set` is paused.
    #[cfg(any(test, feature = "torture"))]
    #[doc(hidden)]
    pub fn set_torture_set_pause(&self, hook: Option<Box<dyn Fn() + Send + Sync>>) {
        *self.torture_set_pause.lock() = hook;
    }

    /// The current Multi-Get prefetch look-ahead `G` (0 = disabled).
    pub fn prefetch_depth(&self) -> usize {
        self.prefetch_depth.load(Ordering::Relaxed)
    }

    /// Change the Multi-Get prefetch look-ahead at runtime. Purely a
    /// performance knob — results are bit-identical for every `depth`
    /// (proved by `tests/mget_differential.rs`); the `kvs-prefetch-sweep`
    /// experiment uses this to sweep `G` over one populated store.
    pub fn set_prefetch_depth(&self, depth: usize) {
        self.prefetch_depth.store(depth, Ordering::Relaxed);
    }

    /// The backing index's name (for reports).
    pub fn index_name(&self) -> &'static str {
        self.name
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The `(mul, shift, mask)` routing parameters (for placement tests).
    pub fn shard_params(&self) -> (u32, u32, usize) {
        (self.shard_mul, self.shard_shift, self.shard_mask)
    }

    /// The shard index `key` routes to.
    #[inline(always)]
    pub fn shard_of(&self, key: &[u8]) -> usize {
        self.shard_for_hash(hash_key(key))
    }

    #[inline(always)]
    fn shard_for_hash(&self, hash: u32) -> usize {
        shard_route(hash, self.shard_mul, self.shard_shift, self.shard_mask)
    }

    /// Number of live items across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().items.len()).sum()
    }

    /// Live item count per shard (balance reporting).
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.read().items.len()).collect()
    }

    /// Per-shard counter snapshots.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| ShardStats {
                items: s.read().items.len(),
                sets: s.counters.sets.load(Ordering::Relaxed),
                deletes: s.counters.deletes.load(Ordering::Relaxed),
                evictions: s.counters.evictions.load(Ordering::Relaxed),
                mget_keys: s.counters.mget_keys.load(Ordering::Relaxed),
                mget_hits: s.counters.mget_hits.load(Ordering::Relaxed),
                cas_ok: s.counters.cas_ok.load(Ordering::Relaxed),
                cas_conflicts: s.counters.cas_conflicts.load(Ordering::Relaxed),
                touches: s.counters.touches.load(Ordering::Relaxed),
                expired: s.counters.expired.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Counters summed over all shards.
    pub fn totals(&self) -> ShardStats {
        let mut t = ShardStats::default();
        for s in self.shard_stats() {
            t.add(&s);
        }
        t
    }

    /// `true` when the store holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The store's current TTL-clock second (coarse monotonic seconds
    /// since process start, plus any [`KvStore::advance_time`] offset).
    #[inline]
    pub fn now_secs(&self) -> u64 {
        coarse_now() + self.time_offset.load(Ordering::Relaxed)
    }

    /// Advance the store's TTL clock by `secs` — a test/bench hook so
    /// deterministic suites can expire items without wall-clock sleeps.
    /// Monotonic only (the clock never rewinds).
    pub fn advance_time(&self, secs: u64) {
        self.time_offset.fetch_add(secs, Ordering::Relaxed);
    }

    /// Insert or replace `key → value`, locking only the key's shard.
    ///
    /// # Errors
    ///
    /// [`StoreError::ObjectTooLarge`] for oversized objects;
    /// [`StoreError::OutOfMemory`] / [`StoreError::IndexFull`] when
    /// eviction (within this shard) cannot make room.
    pub fn set(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.set_v(key, value, 0).map(|_| ())
    }

    /// [`KvStore::set`] with a TTL, returning the key's new version.
    ///
    /// `ttl_secs == 0` means the item never expires; otherwise it expires
    /// `ttl_secs` store-clock seconds from now and is lazily treated as
    /// absent by every read path afterwards (DESIGN.md §13). The returned
    /// version is 1 for a fresh (or expired-and-replaced) key and
    /// `previous + 1` when a live item was replaced.
    ///
    /// # Errors
    ///
    /// As [`KvStore::set`].
    pub fn set_v(&self, key: &[u8], value: &[u8], ttl_secs: u32) -> Result<u64, StoreError> {
        let hash = hash_key(key);
        let slot = &self.shards[self.shard_for_hash(hash)];
        let mut g = slot.write();
        self.set_in_guard(slot, &mut g, hash, key, value, ttl_secs)
    }

    /// The per-key insert body shared by [`KvStore::set`] and
    /// [`KvStore::set_multi`]: replace, allocate (evicting on pressure),
    /// register, index (evicting on pressure), admit. The caller holds the
    /// shard's write guard, so a multi-key batch amortizes one lock
    /// acquisition and one seqlock write session over the whole group.
    #[allow(clippy::too_many_arguments)]
    fn set_in_guard(
        &self,
        slot: &ShardSlot,
        g: &mut ShardWriteGuard<'_>,
        hash: u32,
        key: &[u8],
        value: &[u8],
        ttl_secs: u32,
    ) -> Result<u64, StoreError> {
        let now = self.now_secs();
        // Replace semantics: drop any existing item with this exact key.
        // The version chain continues across a live replace; an expired
        // item is indistinguishable from an absent one, so its chain
        // restarts at 1 (exactly what a reader that already saw the miss
        // would expect).
        let mut version = 1u64;
        if let Some((existing, _)) = g.find_verified(hash, key, &mut Vec::new()) {
            if !is_expired(g.items.expires_at(existing), now) {
                version = g.items.version(existing).wrapping_add(1);
            }
            g.delete_item(hash, existing);
        }
        // Torn-read oracle pause point: old item gone, new one not yet
        // written — a reader that saw this intermediate state would miss
        // the key entirely.
        #[cfg(any(test, feature = "torture"))]
        if let Some(hook) = self.torture_set_pause.lock().as_ref() {
            hook();
        }
        // Allocate, evicting on pressure.
        let slab_ref = loop {
            match write_item(&mut g.slab, key, value) {
                Ok(r) => break r,
                Err(SlabError::ObjectTooLarge { .. }) => return Err(StoreError::ObjectTooLarge),
                Err(SlabError::OutOfMemory) => match g.evict_one(now) {
                    Some(expired) => Self::count_evict(slot, expired),
                    None => return Err(StoreError::OutOfMemory),
                },
            }
        };
        let expires_at = if ttl_secs == 0 {
            0
        } else {
            now + u64::from(ttl_secs)
        };
        let item = g.items.register_versioned(slab_ref, version, expires_at);
        // Index insertion, evicting on pressure.
        loop {
            match g.index.insert(hash, item) {
                Ok(()) => break,
                Err(IndexError::Full) => match g.evict_one(now) {
                    Some(expired) => Self::count_evict(slot, expired),
                    None => {
                        // Roll back the slab registration.
                        let r = g.items.unregister(item).expect("just registered");
                        g.slab.free(r);
                        return Err(StoreError::IndexFull);
                    }
                },
            }
        }
        g.clock.admit(item);
        slot.counters.sets.fetch_add(1, Ordering::Relaxed);
        Ok(version)
    }

    /// Attribute one [`Shard::evict_one`] removal to the right counter:
    /// reclaiming an expired item is not a capacity eviction.
    #[inline]
    fn count_evict(slot: &ShardSlot, expired: bool) {
        if expired {
            slot.counters.expired.fetch_add(1, Ordering::Relaxed);
        } else {
            slot.counters.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The batched Multi-Set pipeline (DESIGN.md §12) — the write-path
    /// counterpart to [`KvStore::mget`]:
    ///
    /// 1. **Pre-processing** — hash every key with the interleaved FNV
    ///    kernel and partition the batch by shard.
    /// 2. **Candidate probe** — per shard, under **one** write lock and
    ///    seqlock write session for the whole group, a batched
    ///    group-prefetched lookup warms the index buckets and stages the
    ///    replacement candidates' item rows.
    /// 3. **Insert** — each key runs the same replace/allocate/index body
    ///    as [`KvStore::set`], with key `j + G`'s buckets and candidate
    ///    rows prefetched while key `j` inserts.
    ///
    /// Keys in one batch apply in request order, so duplicate keys resolve
    /// later-wins exactly as the equivalent sequence of `set` calls would,
    /// and eviction decisions (CLOCK victims) match the sequential path.
    /// Per-key outcomes land in `batch.results()`; a failed key does not
    /// stop the rest of the batch.
    ///
    /// Holds at most one shard lock at a time, in shard order — same lock
    /// hierarchy as `mget`, so it cannot deadlock against readers or other
    /// batch writers.
    pub fn set_multi(
        &self,
        pairs: &[(&[u8], &[u8])],
        batch: &mut SetMultiBatch,
    ) -> SetMultiOutcome {
        self.set_multi_ttl(pairs, 0, batch)
    }

    /// [`KvStore::set_multi`] with one TTL applied to every pair in the
    /// batch (`0` = never expires) — the store half of the `SetMultiEx`
    /// wire verb.
    pub fn set_multi_ttl(
        &self,
        pairs: &[(&[u8], &[u8])],
        ttl_secs: u32,
        batch: &mut SetMultiBatch,
    ) -> SetMultiOutcome {
        // Phase 1: pre-processing — hash (eight interleaved FNV chains per
        // group) and shard partition.
        let t0 = Instant::now();
        batch.results.clear();
        batch.results.resize(pairs.len(), Ok(()));
        let keys: Vec<&[u8]> = pairs.iter().map(|&(k, _)| k).collect();
        let mut hashes = std::mem::take(&mut batch.hashes);
        hashes.clear();
        hash_keys_into(&keys, &mut hashes);
        let single = self.shards.len() == 1;
        let mut per_shard = std::mem::take(&mut batch.per_shard);
        if !single {
            per_shard.resize_with(self.shards.len(), Vec::new);
            for bucket in per_shard.iter_mut() {
                bucket.clear();
            }
            for (i, &h) in hashes.iter().enumerate() {
                per_shard[self.shard_for_hash(h)].push(i as u32);
            }
        }
        let t1 = Instant::now();

        let depth = self.prefetch_depth.load(Ordering::Relaxed);
        let mut sub_hashes = std::mem::take(&mut batch.sub_hashes);
        let mut candidates = std::mem::take(&mut batch.candidates);
        let mut results = std::mem::take(&mut batch.results);
        let mut stored = 0usize;
        let mut lookup_ns = 0u64;
        let mut post_ns = 0u64;
        for (s, slot) in self.shards.iter().enumerate() {
            let n_sub = if single {
                pairs.len()
            } else {
                per_shard[s].len()
            };
            if n_sub == 0 {
                continue;
            }
            let smap = if single {
                SlotMap::Identity
            } else {
                SlotMap::Map(&per_shard[s])
            };
            let shard_hashes: &[u32] = if single {
                &hashes
            } else {
                sub_hashes.clear();
                sub_hashes.extend(per_shard[s].iter().map(|&i| hashes[i as usize]));
                &sub_hashes
            };
            // Phase 2: one exclusive lock + seqlock write session for the
            // whole group; the batched probe warms this shard's buckets
            // and stages replacement candidates. The candidates are
            // *hints only* — an earlier insert in this batch can change
            // the truth (duplicate keys) — so Phase 3 re-verifies each key
            // under the same guard.
            let tl0 = Instant::now();
            let mut g = slot.write();
            candidates.clear();
            candidates.resize(n_sub, NO_ITEM);
            g.index
                .lookup_batch_prefetched(shard_hashes, &mut candidates, depth);
            if depth > 0 {
                for &cand in candidates.iter().take(2 * depth) {
                    g.items.prefetch(cand);
                }
            }
            let tl1 = Instant::now();
            // Phase 3: inserts, with key j+G's index buckets and candidate
            // item rows requested while key j runs.
            for j in 0..n_sub {
                if depth > 0 {
                    if let Some(&ahead) = candidates.get(j + 2 * depth) {
                        g.items.prefetch(ahead);
                    }
                    if let Some(&h_ahead) = shard_hashes.get(j + depth) {
                        g.index.prefetch_hash(h_ahead);
                    }
                }
                let i = smap.get(j);
                let (key, value) = pairs[i];
                let r = self
                    .set_in_guard(slot, &mut g, shard_hashes[j], key, value, ttl_secs)
                    .map(|_| ());
                if r.is_ok() {
                    stored += 1;
                }
                results[i] = r;
            }
            let tl2 = Instant::now();
            drop(g);
            lookup_ns += (tl1 - tl0).as_nanos() as u64;
            post_ns += (tl2 - tl1).as_nanos() as u64;
        }
        batch.hashes = hashes;
        batch.per_shard = per_shard;
        batch.sub_hashes = sub_hashes;
        batch.candidates = candidates;
        batch.results = results;

        SetMultiOutcome {
            stored,
            phases: PhaseNanos {
                pre: (t1 - t0).as_nanos() as u64,
                lookup: lookup_ns,
                post: post_ns,
            },
        }
    }

    /// Look up a single key.
    ///
    /// A direct path over the key's shard — same probe, verification,
    /// fallback, CLOCK, and counter semantics as a one-key [`KvStore::mget`]
    /// but without the response-buffer machinery (an `MGetResponse` carries
    /// hash/partition/candidate scratch vectors that a single-key call
    /// would allocate and throw away).
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let hash = hash_key(key);
        let slot = &self.shards[self.shard_for_hash(hash)];
        if self.use_optimistic() {
            if let Some(decided) = self.get_optimistic(slot, hash, key) {
                return decided;
            }
        }
        self.get_locked(slot, hash, key).map(|(value, _)| value)
    }

    /// Lock-free single-key lookup under the seqlock protocol (DESIGN.md
    /// §11). Returns `Some(result)` when the read validated, `None` when
    /// the caller must fall back to [`KvStore::get_locked`]: a writer was
    /// active, both attempts were invalidated, or the probe found a
    /// full-key mismatch (possible tag collision — `lookup_all` is not
    /// racy-safe on every backend, so collisions resolve under the lock).
    fn get_optimistic(&self, slot: &ShardSlot, hash: u32, key: &[u8]) -> Option<Option<Vec<u8>>> {
        // Every racing byte below travels through RacyShard's atomic or
        // volatile accessors, and every outcome is validated before being
        // returned (seq for misses, the row word for hits).
        let racy = slot.racy();
        let mut buf = Vec::new();
        for _ in 0..2 {
            let Some(seq) = slot.seq.read_begin() else {
                break; // writer active: the lock queue is the fast path now
            };
            let mut cand = [NO_ITEM];
            racy.lookup(std::slice::from_ref(&hash), &mut cand, 0);
            let cand = cand[0];
            let word = if cand == NO_ITEM {
                0
            } else {
                racy.load_row(cand)
            };
            match decode_row(word) {
                None => {
                    // Miss (no candidate, or a dying row): only believable
                    // if no writer ran while we probed.
                    if slot.seq.validate(seq) {
                        self.optimistic.commits.fetch_add(1, Ordering::Relaxed);
                        slot.counters.mget_keys.fetch_add(1, Ordering::Relaxed);
                        return Some(None);
                    }
                }
                Some(r) => {
                    let verified = racy.read_item(r, &mut buf)
                        && item_decode_checked(&buf).is_some_and(|(k, _)| k == key);
                    if verified {
                        // Racy metadata load *before* the row recheck: an
                        // unchanged word then proves the expiry belonged
                        // to exactly this registration (DESIGN.md §13).
                        let expires_at = racy.expires_at(cand);
                        // A verified hit stands on its row word alone: the
                        // word unchanged across the copy means the item
                        // stayed live in this exact chunk, and live chunk
                        // bytes are immutable (replace = delete + insert).
                        if racy.revalidate(cand, word) {
                            if is_expired(expires_at, self.now_secs()) {
                                // Lazy expiry: a validated-but-expired hit
                                // is a definitive miss — no seq needed.
                                self.optimistic.commits.fetch_add(1, Ordering::Relaxed);
                                slot.counters.mget_keys.fetch_add(1, Ordering::Relaxed);
                                slot.counters.expired.fetch_add(1, Ordering::Relaxed);
                                return Some(None);
                            }
                            let (_, v) = item_decode_checked(&buf).expect("just decoded");
                            let value = v.to_vec();
                            racy.touch(cand);
                            self.optimistic.commits.fetch_add(1, Ordering::Relaxed);
                            slot.counters.mget_keys.fetch_add(1, Ordering::Relaxed);
                            slot.counters.mget_hits.fetch_add(1, Ordering::Relaxed);
                            return Some(Some(value));
                        }
                    } else if slot.seq.validate(seq) {
                        // Genuine full-key mismatch (tag collision)
                        // or torn-looking bytes under a stable seq:
                        // resolve under the lock.
                        self.optimistic.aborts.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                }
            }
            self.optimistic.retries.fetch_add(1, Ordering::Relaxed);
        }
        self.optimistic.fallbacks.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Single-key read under the shard's shared lock, returning the value
    /// and its version: the first candidate verified against the slab,
    /// then the collision slow path ([`Shard::find_verified`]).
    fn get_locked(&self, slot: &ShardSlot, hash: u32, key: &[u8]) -> Option<(Vec<u8>, u64)> {
        let g = slot.read();
        let cand = g.index.probe_first(hash);
        let resolved = if cand == NO_ITEM {
            None
        } else {
            g.verify(cand, g.items.get(cand), key)
                .or_else(|| g.find_verified(hash, key, &mut Vec::new()))
        };
        slot.counters.mget_keys.fetch_add(1, Ordering::Relaxed);
        let (item, r) = resolved?;
        // Lazy expiry: a resolved but expired item reads as a miss. The
        // shared lock cannot reclaim it; writers and the eviction path do.
        if is_expired(g.items.expires_at(item), self.now_secs()) {
            slot.counters.expired.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        g.clock.touch(item);
        slot.counters.mget_hits.fetch_add(1, Ordering::Relaxed);
        Some((item_value(g.slab.chunk(r)).to_vec(), g.items.version(item)))
    }

    /// Delete a key; returns `true` if it existed (and had not expired).
    ///
    /// Deleting a lazily-expired item reclaims its storage but reports
    /// `false` — on the command surface an expired item *is* absent.
    pub fn delete(&self, key: &[u8]) -> bool {
        let hash = hash_key(key);
        let slot = &self.shards[self.shard_for_hash(hash)];
        let mut g = slot.write();
        match g.find_verified(hash, key, &mut Vec::new()) {
            Some((item, _)) => {
                let expired = is_expired(g.items.expires_at(item), self.now_secs());
                g.delete_item(hash, item);
                if expired {
                    slot.counters.expired.fetch_add(1, Ordering::Relaxed);
                } else {
                    slot.counters.deletes.fetch_add(1, Ordering::Relaxed);
                }
                !expired
            }
            None => false,
        }
    }

    /// Compare-and-swap: replace `key`'s value (with `ttl_secs`, 0 = no
    /// expiry) only if its current version equals `expected_version`.
    ///
    /// Linearizes at the shard write lock: the version read, compare, and
    /// replace happen in one critical section, so for every key version
    /// exactly one racing `cas` can observe it and win (DESIGN.md §13).
    /// Expired items count as absent (their storage is reclaimed en
    /// passant).
    ///
    /// # Errors
    ///
    /// As [`KvStore::set`] — allocation/index failures abort the swap
    /// without consuming the version.
    pub fn cas(
        &self,
        key: &[u8],
        expected_version: u64,
        value: &[u8],
        ttl_secs: u32,
    ) -> Result<CasOutcome, StoreError> {
        let hash = hash_key(key);
        let slot = &self.shards[self.shard_for_hash(hash)];
        let mut g = slot.write();
        let now = self.now_secs();
        match g.find_verified(hash, key, &mut Vec::new()) {
            Some((item, _)) => {
                if is_expired(g.items.expires_at(item), now) {
                    // Reclaim and report absent, like `delete`.
                    g.delete_item(hash, item);
                    slot.counters.expired.fetch_add(1, Ordering::Relaxed);
                    return Ok(CasOutcome::NotFound);
                }
                let current = g.items.version(item);
                if current != expected_version {
                    slot.counters.cas_conflicts.fetch_add(1, Ordering::Relaxed);
                    return Ok(CasOutcome::Conflict(current));
                }
                let new = self.set_in_guard(slot, &mut g, hash, key, value, ttl_secs)?;
                slot.counters.cas_ok.fetch_add(1, Ordering::Relaxed);
                Ok(CasOutcome::Stored(new))
            }
            None => Ok(CasOutcome::NotFound),
        }
    }

    /// Reset `key`'s TTL (`0` = never expires) without touching its value
    /// or version — the `touch` verb. Returns `true` if the key existed
    /// (and had not already expired).
    pub fn set_ttl(&self, key: &[u8], ttl_secs: u32) -> bool {
        let hash = hash_key(key);
        let slot = &self.shards[self.shard_for_hash(hash)];
        let g = slot.write();
        let now = self.now_secs();
        match g.find_verified(hash, key, &mut Vec::new()) {
            Some((item, _)) => {
                if is_expired(g.items.expires_at(item), now) {
                    return false;
                }
                let expires_at = if ttl_secs == 0 {
                    0
                } else {
                    now + u64::from(ttl_secs)
                };
                g.items.set_expires_at(item, expires_at);
                slot.counters.touches.fetch_add(1, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    /// Alias for [`KvStore::set_ttl`] under its memcached verb name.
    pub fn touch(&self, key: &[u8], ttl_secs: u32) -> bool {
        self.set_ttl(key, ttl_secs)
    }

    /// Look up a single key together with its current version (for a
    /// subsequent [`KvStore::cas`]). Runs under the shard's shared lock
    /// in every read mode — the version must be read in the same critical
    /// section that resolved the item.
    pub fn get_v(&self, key: &[u8]) -> Option<(Vec<u8>, u64)> {
        let hash = hash_key(key);
        self.get_locked(&self.shards[self.shard_for_hash(hash)], hash, key)
    }

    /// The batched Multi-Get pipeline with per-phase timing.
    ///
    /// The batch is partitioned by shard during pre-processing; each
    /// non-empty shard then runs one batched lookup + post-processing pass
    /// under its shared lock. At most one shard lock is held at a time.
    ///
    /// `resp` is reset and refilled; reusing one buffer across calls avoids
    /// per-request allocation, as a real server does.
    pub fn mget(&self, keys: &[&[u8]], resp: &mut MGetResponse) -> MGetOutcome {
        // Phase 1: pre-processing — parse batch, hash every key (eight
        // interleaved FNV chains per group, SIMD for fixed-width groups),
        // partition the batch by shard.
        let t0 = Instant::now();
        resp.reset(keys.len());
        let mut hashes = std::mem::take(&mut resp.hashes);
        hashes.clear();
        hash_keys_into(keys, &mut hashes);
        let single = self.shards.len() == 1;
        let mut per_shard = std::mem::take(&mut resp.per_shard);
        if !single {
            per_shard.resize_with(self.shards.len(), Vec::new);
            for bucket in per_shard.iter_mut() {
                bucket.clear();
            }
            for (i, &h) in hashes.iter().enumerate() {
                per_shard[self.shard_for_hash(h)].push(i as u32);
            }
        }
        let t1 = Instant::now();

        // Phases 2+3 per shard — under that shard's shared lock, or with
        // no lock at all when the optimistic read mode is on (each shard
        // pass still falls back to the locked helper if it can't
        // validate).
        let depth = self.prefetch_depth.load(Ordering::Relaxed);
        let use_opt = self.use_optimistic();
        let mut candidates = std::mem::take(&mut resp.candidates);
        let mut sub_hashes = std::mem::take(&mut resp.sub_hashes);
        let mut refs = std::mem::take(&mut resp.refs);
        let mut words = std::mem::take(&mut resp.words);
        let mut chunk_buf = std::mem::take(&mut resp.chunk_buf);
        let mut fallback: Vec<u32> = Vec::new();
        let mut found = 0usize;
        let mut lookup_ns = 0u64;
        let mut post_ns = 0u64;
        for (s, slot) in self.shards.iter().enumerate() {
            let n_sub = if single {
                keys.len()
            } else {
                per_shard[s].len()
            };
            if n_sub == 0 {
                continue;
            }
            let smap = if single {
                SlotMap::Identity
            } else {
                SlotMap::Map(&per_shard[s])
            };
            let shard_hashes: &[u32] = if single {
                &hashes
            } else {
                sub_hashes.clear();
                sub_hashes.extend(per_shard[s].iter().map(|&i| hashes[i as usize]));
                &sub_hashes
            };
            let committed = if use_opt {
                self.mget_shard_optimistic(
                    slot,
                    keys,
                    shard_hashes,
                    smap,
                    depth,
                    resp,
                    &mut candidates,
                    &mut words,
                    &mut chunk_buf,
                    &mut fallback,
                )
            } else {
                None
            };
            let (shard_found, l_ns, p_ns) = match committed {
                Some(t) => t,
                None => self.mget_shard_locked(
                    slot,
                    keys,
                    shard_hashes,
                    smap,
                    depth,
                    resp,
                    &mut candidates,
                    &mut refs,
                    &mut fallback,
                ),
            };
            found += shard_found as usize;
            lookup_ns += l_ns;
            post_ns += p_ns;
        }
        if !single {
            // Shard-grouped records -> request order (still Phase 3 work).
            let tf = Instant::now();
            resp.finalize_request_order();
            post_ns += tf.elapsed().as_nanos() as u64;
        }
        resp.hashes = hashes;
        resp.candidates = candidates;
        resp.per_shard = per_shard;
        resp.sub_hashes = sub_hashes;
        resp.refs = refs;
        resp.words = words;
        resp.chunk_buf = chunk_buf;

        MGetOutcome {
            found,
            phases: PhaseNanos {
                pre: (t1 - t0).as_nanos() as u64,
                lookup: lookup_ns,
                post: post_ns,
            },
        }
    }

    /// One shard's Phase 2+3 under its shared lock (the classic path).
    /// Returns `(keys found, lookup ns, post ns)`.
    ///
    /// Phase 2 is the hash-table lookup (the batched, SIMD-accelerable
    /// phase) over this shard's slice of the request, with bucket lines
    /// prefetched `depth` hashes ahead of each probe. Phase 3 verifies
    /// full keys, writes values into the wire buffer, and updates CLOCK;
    /// with a prefetch depth G it runs AMAC-style stages over the
    /// candidate list — candidate j's item-table row is requested 2G keys
    /// before its turn, its slab chunk G keys before (resolving the row
    /// the prefetch made warm), so both dependent misses overlap the
    /// verification of earlier keys. The shard lock is held throughout,
    /// so staged reads cannot go stale.
    #[allow(clippy::too_many_arguments)]
    fn mget_shard_locked(
        &self,
        slot: &ShardSlot,
        keys: &[&[u8]],
        shard_hashes: &[u32],
        smap: SlotMap<'_>,
        depth: usize,
        resp: &mut MGetResponse,
        candidates: &mut Vec<u32>,
        refs: &mut Vec<Option<SlabRef>>,
        fallback: &mut Vec<u32>,
    ) -> (u64, u64, u64) {
        let n_sub = shard_hashes.len();
        let now = self.now_secs();
        let g = slot.read();

        let tl0 = Instant::now();
        candidates.clear();
        candidates.resize(n_sub, NO_ITEM);
        g.index
            .lookup_batch_prefetched(shard_hashes, candidates, depth);
        let tl1 = Instant::now();

        let mut shard_found = 0u64;
        let mut shard_expired = 0u64;
        if depth > 0 {
            refs.clear();
            refs.resize(n_sub, None);
            for &cand in candidates.iter().take(2 * depth) {
                g.items.prefetch(cand);
            }
            for j in 0..n_sub.min(depth) {
                refs[j] = g.resolve_and_prefetch(candidates[j]);
            }
        }
        for j in 0..n_sub {
            if depth > 0 {
                if let Some(&ahead) = candidates.get(j + 2 * depth) {
                    g.items.prefetch(ahead);
                }
                if j + depth < n_sub {
                    refs[j + depth] = g.resolve_and_prefetch(candidates[j + depth]);
                }
            }
            let cand = candidates[j];
            let i = smap.get(j);
            let key = keys[i];
            let slab_ref = if depth > 0 {
                refs[j]
            } else if cand != NO_ITEM {
                g.items.get(cand)
            } else {
                None
            };
            let mut resolved = g.verify(cand, slab_ref, key);
            if resolved.is_none() && cand != NO_ITEM {
                // Tag/hash collision: scan all candidates (MemC3 slow
                // path).
                resolved = g.find_verified(shard_hashes[j], key, fallback);
            }
            // Lazy expiry: resolved-but-expired reads as a miss.
            if let Some((item, _)) = resolved {
                if is_expired(g.items.expires_at(item), now) {
                    shard_expired += 1;
                    resolved = None;
                }
            }
            if let Some((item, r)) = resolved {
                resp.push_hit(i, item_value(g.slab.chunk(r)));
                g.clock.touch(item);
                shard_found += 1;
            } else {
                resp.push_miss();
            }
        }
        let tl2 = Instant::now();
        drop(g);
        slot.counters
            .mget_keys
            .fetch_add(n_sub as u64, Ordering::Relaxed);
        slot.counters
            .mget_hits
            .fetch_add(shard_found, Ordering::Relaxed);
        slot.counters
            .expired
            .fetch_add(shard_expired, Ordering::Relaxed);
        (
            shard_found,
            (tl1 - tl0).as_nanos() as u64,
            (tl2 - tl1).as_nanos() as u64,
        )
    }

    /// One shard's Phase 2+3 under the seqlock protocol (DESIGN.md §11):
    /// no lock, no shared-state writes except atomic CLOCK bits. Returns
    /// `Some((found, lookup ns, post ns))` when a pass validated and
    /// committed, `None` when the caller must rerun the shard through
    /// [`KvStore::mget_shard_locked`].
    ///
    /// Validation is two-tier: each *hit* is verified by re-checking its
    /// item row word after the value bytes are copied (unchanged word ⟹
    /// the item stayed live in that exact chunk ⟹ the copy is one
    /// consistent value); *misses* and locked collision assists
    /// additionally require the shard version to be unchanged across the
    /// whole pass (`need_seq`), since "not found" can only be trusted if
    /// no writer raced the probe. A failed validation rolls the response
    /// back to its pre-pass marks and retries once.
    ///
    /// Keys resolve per-key linearizably, but a multi-key batch is not a
    /// shard-atomic snapshot the way the locked pass is — a writer may
    /// commit between two hits of one batch (each hit is still a value
    /// that was current when its row was read; see DESIGN.md §11).
    #[allow(clippy::too_many_arguments)]
    fn mget_shard_optimistic(
        &self,
        slot: &ShardSlot,
        keys: &[&[u8]],
        shard_hashes: &[u32],
        smap: SlotMap<'_>,
        depth: usize,
        resp: &mut MGetResponse,
        candidates: &mut Vec<u32>,
        words: &mut Vec<u64>,
        chunk_buf: &mut Vec<u8>,
        fallback: &mut Vec<u32>,
    ) -> Option<(u64, u64, u64)> {
        let n_sub = shard_hashes.len();
        let now = self.now_secs();
        // Same torn-tolerant access discipline as `get_optimistic`: every
        // racing byte goes through RacyShard's atomic/volatile accessors.
        let racy = slot.racy();
        for _attempt in 0..2 {
            let Some(seq) = slot.seq.read_begin() else {
                break; // writer active: run the shard locked
            };
            let mark_buf = resp.buf.len();
            let mark_bytes = resp.value_bytes;

            let tl0 = Instant::now();
            candidates.clear();
            candidates.resize(n_sub, NO_ITEM);
            racy.lookup(shard_hashes, candidates, depth);
            let tl1 = Instant::now();

            // The AMAC staging of the locked pass, restated over row
            // *words*: candidate j's row line is prefetched 2G keys ahead,
            // its word loaded (and chunk line prefetched) G keys ahead.
            // Loading the word early only *widens* the window the final
            // re-validation must cover — still correct, same stages warm.
            words.clear();
            words.resize(n_sub, 0);
            let mut need_seq = false;
            let mut torn = false;
            let mut shard_found = 0u64;
            let mut shard_expired = 0u64;
            let mut processed = 0usize;
            if depth > 0 {
                for &cand in candidates.iter().take(2 * depth) {
                    racy.prefetch_row(cand);
                }
                for j in 0..n_sub.min(depth) {
                    words[j] = racy.stage_word(candidates[j]);
                }
            }
            for j in 0..n_sub {
                if depth > 0 {
                    if let Some(&ahead) = candidates.get(j + 2 * depth) {
                        racy.prefetch_row(ahead);
                    }
                    if j + depth < n_sub {
                        words[j + depth] = racy.stage_word(candidates[j + depth]);
                    }
                }
                let cand = candidates[j];
                let i = smap.get(j);
                let key = keys[i];
                processed = j + 1;
                if cand == NO_ITEM {
                    resp.push_miss();
                    need_seq = true;
                    continue;
                }
                let word = if depth > 0 {
                    words[j]
                } else {
                    racy.load_row(cand)
                };
                let row = decode_row(word);
                let copied = row.is_some_and(|r| racy.read_item(r, chunk_buf));
                let value = if copied {
                    item_decode_checked(chunk_buf)
                        .filter(|(k, _)| *k == key)
                        .map(|(_, v)| v)
                } else {
                    None
                };
                match value {
                    Some(v) => {
                        // Racy expiry load before the row recheck, so an
                        // unchanged word vouches for it (DESIGN.md §13).
                        let expires_at = racy.expires_at(cand);
                        if !racy.revalidate(cand, word) {
                            torn = true;
                            break;
                        }
                        if is_expired(expires_at, now) {
                            // Validated-but-expired: a definitive lazy-
                            // expiry miss — positive evidence, no seq
                            // stability required.
                            resp.push_miss();
                            shard_expired += 1;
                        } else {
                            resp.push_hit(i, v);
                            racy.touch(cand);
                            shard_found += 1;
                        }
                    }
                    None if row.is_none() => {
                        // Dying/dead row behind a live-looking candidate:
                        // a miss, believable only under a stable seq.
                        resp.push_miss();
                        need_seq = true;
                    }
                    None => {
                        // Full-key mismatch or torn-looking bytes: the
                        // collision slow path needs `lookup_all`, which
                        // is not racy-safe — take the shard lock for this
                        // one key (the rest of the pass stays lock-free).
                        self.optimistic.assists.fetch_add(1, Ordering::Relaxed);
                        let g = slot.read();
                        let mut resolved = g.find_verified(shard_hashes[j], key, fallback);
                        // The assist holds the shared lock, so the same
                        // lazy-expiry rule as the locked path applies.
                        if let Some((item, _)) = resolved {
                            if is_expired(g.items.expires_at(item), now) {
                                shard_expired += 1;
                                resolved = None;
                            }
                        }
                        match resolved {
                            Some((item, r)) => {
                                resp.push_hit(i, item_value(g.slab.chunk(r)));
                                g.clock.touch(item);
                                shard_found += 1;
                            }
                            None => resp.push_miss(),
                        }
                        need_seq = true;
                    }
                }
            }
            let tl2 = Instant::now();

            if !torn && (!need_seq || slot.seq.validate(seq)) {
                self.optimistic.commits.fetch_add(1, Ordering::Relaxed);
                slot.counters
                    .mget_keys
                    .fetch_add(n_sub as u64, Ordering::Relaxed);
                slot.counters
                    .mget_hits
                    .fetch_add(shard_found, Ordering::Relaxed);
                slot.counters
                    .expired
                    .fetch_add(shard_expired, Ordering::Relaxed);
                return Some((
                    shard_found,
                    (tl1 - tl0).as_nanos() as u64,
                    (tl2 - tl1).as_nanos() as u64,
                ));
            }
            self.optimistic.retries.fetch_add(1, Ordering::Relaxed);
            resp.rollback(mark_buf, mark_bytes, (0..processed).map(|j| smap.get(j)));
        }
        self.optimistic.fallbacks.fetch_add(1, Ordering::Relaxed);
        None
    }
}

/// Maps a shard-local batch position `j` back to its request slot: the
/// identity for a single-shard store, or the shard's partition list.
#[derive(Copy, Clone)]
enum SlotMap<'a> {
    Identity,
    Map(&'a [u32]),
}

impl SlotMap<'_> {
    #[inline(always)]
    fn get(&self, j: usize) -> usize {
        match self {
            SlotMap::Identity => j,
            SlotMap::Map(m) => m[j] as usize,
        }
    }
}

impl Shard {
    /// AMAC stage 2 of the Multi-Get verify loop: resolve a candidate's
    /// item-table row (made warm by an earlier [`ItemTable::prefetch`]) to
    /// its slab reference and request the chunk's leading cache line, so
    /// the full-key compare `G` iterations later reads a warm line.
    #[inline(always)]
    fn resolve_and_prefetch(&self, cand: u32) -> Option<SlabRef> {
        if cand == NO_ITEM {
            return None;
        }
        let r = self.items.get(cand)?;
        self.slab.prefetch(r);
        Some(r)
    }

    /// `(cand, chunk)` when `cand`'s slab chunk (`chunk`, already resolved
    /// by the caller) stores exactly `key`.
    #[inline(always)]
    fn verify(&self, cand: u32, chunk: Option<SlabRef>, key: &[u8]) -> Option<(u32, SlabRef)> {
        chunk
            .filter(|&r| item_key(self.slab.chunk(r)) == key)
            .map(|r| (cand, r))
    }

    /// The collision slow path: the item (and its chunk) among all of
    /// `hash`'s index candidates whose stored key equals `key` — verified
    /// against the slab, never trusting the index alone. `scratch` holds
    /// the candidates, so a caller in a loop allocates nothing.
    fn find_verified(
        &self,
        hash: u32,
        key: &[u8],
        scratch: &mut Vec<u32>,
    ) -> Option<(u32, SlabRef)> {
        scratch.clear();
        self.index.lookup_all(hash, scratch);
        scratch
            .iter()
            .find_map(|&c| self.verify(c, self.items.get(c), key))
    }

    fn delete_item(&mut self, hash: u32, item: u32) {
        self.index.remove(hash, item);
        self.clock.remove(item);
        if let Some(r) = self.items.unregister(item) {
            self.slab.free(r);
        }
    }

    /// Evict one item under pressure via the TTL-integrated CLOCK sweep:
    /// at each hand position an expired item is reclaimed (dead by TTL,
    /// no information lost) before the reference bit can hand back a
    /// live victim. Returns `Some(true)` when an expired item was
    /// reclaimed, `Some(false)` for a live eviction, `None` when the
    /// shard holds nothing evictable. With no TTLs in play the predicate
    /// is constant-false and the sweep is bit-identical to classic CLOCK.
    fn evict_one(&mut self, now: u64) -> Option<bool> {
        let items = &self.items;
        let (item, was_expired) = self
            .clock
            .evict_with(|id| is_expired(items.expires_at(id), now))?;
        if let Some(r) = self.items.unregister(item) {
            let hash = hash_key(item_key(self.slab.chunk(r)));
            self.index.remove(hash, item);
            self.slab.free(r);
        }
        Some(was_expired)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{by_short_name, Memc3Index, SimdIndex, SimdIndexKind};

    fn stores(capacity: usize) -> Vec<KvStore> {
        let cfg = StoreConfig {
            memory_budget: 8 << 20,
            capacity_items: capacity,
            shards: 1,
            prefetch_depth: None,
            ..StoreConfig::default()
        };
        vec![
            KvStore::new(Box::new(Memc3Index::with_capacity(capacity)), cfg),
            KvStore::new(
                Box::new(SimdIndex::with_capacity(
                    SimdIndexKind::HorizontalBcht,
                    capacity,
                )),
                cfg,
            ),
            KvStore::new(
                Box::new(SimdIndex::with_capacity(
                    SimdIndexKind::VerticalNway,
                    capacity,
                )),
                cfg,
            ),
        ]
    }

    fn sharded_stores(capacity: usize, shards: usize) -> Vec<KvStore> {
        ["memc3", "hor", "ver"]
            .iter()
            .map(|which| {
                KvStore::with_shards(
                    StoreConfig {
                        memory_budget: 32 << 20,
                        capacity_items: capacity,
                        shards,
                        prefetch_depth: None,
                        ..StoreConfig::default()
                    },
                    |cap| by_short_name(which, cap).unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn set_get_roundtrip_all_indexes() {
        for store in stores(2000) {
            for i in 0..1000u32 {
                store
                    .set(
                        format!("key-{i}").as_bytes(),
                        format!("value-{i}").as_bytes(),
                    )
                    .unwrap();
            }
            for i in (0..1000u32).step_by(7) {
                let v = store.get(format!("key-{i}").as_bytes());
                assert_eq!(
                    v.as_deref(),
                    Some(format!("value-{i}").as_bytes()),
                    "{} key {i}",
                    store.index_name()
                );
            }
            assert_eq!(store.get(b"missing"), None);
        }
    }

    #[test]
    fn sharded_set_get_roundtrip_all_indexes() {
        for store in sharded_stores(4000, 4) {
            assert_eq!(store.n_shards(), 4);
            for i in 0..2000u32 {
                store
                    .set(
                        format!("key-{i}").as_bytes(),
                        format!("value-{i}").as_bytes(),
                    )
                    .unwrap();
            }
            assert_eq!(store.len(), 2000, "{}", store.index_name());
            for i in (0..2000u32).step_by(7) {
                let v = store.get(format!("key-{i}").as_bytes());
                assert_eq!(
                    v.as_deref(),
                    Some(format!("value-{i}").as_bytes()),
                    "{} key {i}",
                    store.index_name()
                );
            }
            assert_eq!(store.get(b"missing"), None);
            // Every shard received a plausible share of 2000 uniform keys.
            let lens = store.shard_lens();
            assert_eq!(lens.iter().sum::<usize>(), 2000);
            for (s, &l) in lens.iter().enumerate() {
                assert!(l > 2000 / 4 / 4, "shard {s} starved: {lens:?}");
            }
        }
    }

    #[test]
    fn set_multi_roundtrip_all_indexes() {
        for store in sharded_stores(4000, 4) {
            let pairs_owned: Vec<(Vec<u8>, Vec<u8>)> = (0..200u32)
                .map(|i| {
                    (
                        format!("mk-{i}").into_bytes(),
                        format!("mv-{i}").into_bytes(),
                    )
                })
                .collect();
            let mut batch = SetMultiBatch::new();
            for chunk in pairs_owned.chunks(48) {
                let pairs: Vec<(&[u8], &[u8])> = chunk
                    .iter()
                    .map(|(k, v)| (k.as_slice(), v.as_slice()))
                    .collect();
                let outcome = store.set_multi(&pairs, &mut batch);
                assert_eq!(outcome.stored, chunk.len(), "{}", store.index_name());
                assert!(batch.results().iter().all(|r| r.is_ok()));
            }
            assert_eq!(store.len(), 200, "{}", store.index_name());
            for (k, v) in &pairs_owned {
                assert_eq!(
                    store.get(k).as_deref(),
                    Some(v.as_slice()),
                    "{}",
                    store.index_name()
                );
            }
            assert_eq!(store.totals().sets, 200, "{}", store.index_name());
        }
    }

    #[test]
    fn set_multi_duplicates_resolve_later_wins() {
        for store in stores(2000) {
            let pairs: Vec<(&[u8], &[u8])> = vec![
                (b"dup", b"first"),
                (b"solo", b"only"),
                (b"dup", b"second"),
                (b"dup", b"third"),
            ];
            let mut batch = SetMultiBatch::new();
            let outcome = store.set_multi(&pairs, &mut batch);
            // Every pair applies (each duplicate replaces its
            // predecessor), but only two keys survive.
            assert_eq!(outcome.stored, 4, "{}", store.index_name());
            assert_eq!(store.len(), 2, "{}", store.index_name());
            assert_eq!(
                store.get(b"dup").as_deref(),
                Some(&b"third"[..]),
                "{}: last pair in the batch must win",
                store.index_name()
            );
            assert_eq!(store.get(b"solo").as_deref(), Some(&b"only"[..]));
        }
    }

    #[test]
    fn set_multi_oversized_pair_fails_alone() {
        for store in stores(2000) {
            let huge = vec![0u8; 8 << 20]; // exceeds every slab class
            let pairs: Vec<(&[u8], &[u8])> = vec![
                (b"ok-1", b"v1"),
                (b"too-big", huge.as_slice()),
                (b"ok-2", b"v2"),
            ];
            let mut batch = SetMultiBatch::new();
            let outcome = store.set_multi(&pairs, &mut batch);
            assert_eq!(outcome.stored, 2, "{}", store.index_name());
            assert_eq!(
                batch.results(),
                &[Ok(()), Err(StoreError::ObjectTooLarge), Ok(())],
                "{}: a failed pair must not stop the rest of the batch",
                store.index_name()
            );
            assert_eq!(store.get(b"ok-1").as_deref(), Some(&b"v1"[..]));
            assert_eq!(store.get(b"too-big"), None);
            assert_eq!(store.get(b"ok-2").as_deref(), Some(&b"v2"[..]));
        }
    }

    #[test]
    fn subframe_scatter_matches_per_request_seal_byte_for_byte() {
        // A coalesced batch scattered via append_subframe must put the
        // same bytes on the wire as serving each request alone through
        // seal_frame + write_frame (both sharded and unsharded stores,
        // hit/miss/empty-value mixes, including an empty request).
        for store in sharded_stores(1000, 4).into_iter().chain(stores(1000)) {
            store.set(b"a", b"alpha").unwrap();
            store.set(b"b", b"").unwrap();
            store.set(b"c", b"gamma-gamma").unwrap();
            // Three requests: [a, miss], [], [b, c, miss].
            let reqs: [(u64, &[&[u8]]); 3] = [
                (10, &[b"a", b"nope"]),
                (11, &[]),
                (12, &[b"b", b"c", b"zilch"]),
            ];
            let combined: Vec<&[u8]> = reqs.iter().flat_map(|(_, ks)| ks.iter().copied()).collect();
            let mut batch = MGetResponse::new();
            store.mget(&combined, &mut batch);

            let mut scattered = Vec::new();
            let mut lo = 0;
            for (id, ks) in &reqs {
                let n = batch.append_subframe(lo..lo + ks.len(), *id, &mut scattered);
                assert!(n >= 4 + RESP_HEADER_BYTES + 4);
                lo += ks.len();
            }

            let mut expect = Vec::new();
            for (id, ks) in &reqs {
                let mut solo = MGetResponse::new();
                store.mget(ks, &mut solo);
                crate::net::write_frame(&mut expect, solo.seal_frame(*id)).unwrap();
            }
            assert_eq!(scattered, expect, "{}", store.index_name());
        }
    }

    #[test]
    fn sharded_mget_spans_shards() {
        for store in sharded_stores(1000, 8) {
            for i in 0..500u32 {
                store
                    .set(format!("k{i}").as_bytes(), &i.to_le_bytes())
                    .unwrap();
            }
            let keys: Vec<String> = (0..500u32).map(|i| format!("k{i}")).collect();
            let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_bytes()).collect();
            let mut resp = MGetResponse::new();
            let out = store.mget(&refs, &mut resp);
            assert_eq!(out.found, 500, "{}", store.index_name());
            for (i, _) in keys.iter().enumerate() {
                assert_eq!(resp.value(i), Some(&(i as u32).to_le_bytes()[..]));
            }
        }
    }

    #[test]
    fn shard_counter_conservation() {
        let store = KvStore::with_shards(
            StoreConfig {
                memory_budget: 16 << 20,
                capacity_items: 4000,
                shards: 8,
                prefetch_depth: None,
                ..StoreConfig::default()
            },
            |cap| by_short_name("hor", cap).unwrap(),
        );
        for i in 0..1000u32 {
            store.set(format!("c{i}").as_bytes(), b"v").unwrap();
        }
        for i in (0..1000u32).step_by(3) {
            assert!(store.delete(format!("c{i}").as_bytes()));
        }
        let keys: Vec<String> = (0..1000u32).map(|i| format!("c{i}")).collect();
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_bytes()).collect();
        let mut resp = MGetResponse::new();
        let out = store.mget(&refs, &mut resp);

        let totals = store.totals();
        let per_shard = store.shard_stats();
        let mut summed = ShardStats::default();
        for s in &per_shard {
            summed.add(s);
        }
        assert_eq!(summed, totals, "per-shard sums must equal totals");
        assert_eq!(totals.sets, 1000);
        assert_eq!(totals.deletes, 334);
        assert_eq!(totals.mget_keys, 1000);
        assert_eq!(totals.mget_hits as usize, out.found);
        assert_eq!(totals.items, store.len());
        assert_eq!(store.len(), 1000 - 334);
    }

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        let store = KvStore::with_shards(
            StoreConfig {
                shards: 16,
                ..StoreConfig::default()
            },
            |cap| by_short_name("memc3", cap).unwrap(),
        );
        let (mul, shift, mask) = store.shard_params();
        for i in 0..10_000u32 {
            let key = format!("route-{i}");
            let s = store.shard_of(key.as_bytes());
            assert!(s < 16);
            assert_eq!(s, store.shard_of(key.as_bytes()), "routing must be stable");
            assert_eq!(s, shard_route(hash_key(key.as_bytes()), mul, shift, mask));
        }
    }

    #[test]
    fn replace_updates_value() {
        for store in stores(100) {
            store.set(b"k", b"old").unwrap();
            store.set(b"k", b"new-and-longer-value").unwrap();
            assert_eq!(
                store.get(b"k").as_deref(),
                Some(&b"new-and-longer-value"[..])
            );
            assert_eq!(store.len(), 1, "{}", store.index_name());
        }
    }

    #[test]
    fn delete_removes() {
        for store in stores(100) {
            store.set(b"a", b"1").unwrap();
            assert!(store.delete(b"a"));
            assert!(!store.delete(b"a"));
            assert_eq!(store.get(b"a"), None);
            assert!(store.is_empty());
        }
    }

    #[test]
    fn versions_advance_per_key_and_restart_after_delete() {
        for store in stores(100) {
            assert_eq!(store.set_v(b"k", b"v1", 0).unwrap(), 1);
            assert_eq!(store.set_v(b"k", b"v2", 0).unwrap(), 2);
            assert_eq!(store.set_v(b"k", b"wider-value-than-v2", 0).unwrap(), 3);
            assert_eq!(
                store.get_v(b"k"),
                Some((b"wider-value-than-v2".to_vec(), 3)),
                "{}",
                store.index_name()
            );
            assert_eq!(store.get_v(b"absent"), None);
            // Delete ends the chain; a re-set starts a new one at 1.
            assert!(store.delete(b"k"));
            assert_eq!(store.set_v(b"k", b"fresh", 0).unwrap(), 1);
            // Other keys have independent chains.
            assert_eq!(store.set_v(b"other", b"x", 0).unwrap(), 1);
        }
    }

    #[test]
    fn cas_requires_matching_version() {
        for store in stores(100) {
            let name = store.index_name();
            assert_eq!(
                store.cas(b"k", 1, b"v", 0).unwrap(),
                CasOutcome::NotFound,
                "{name}"
            );
            let v = store.set_v(b"k", b"v1", 0).unwrap();
            assert_eq!(
                store.cas(b"k", v + 1, b"nope", 0).unwrap(),
                CasOutcome::Conflict(v),
                "{name}"
            );
            assert_eq!(store.get(b"k").as_deref(), Some(&b"v1"[..]), "{name}");
            assert_eq!(
                store.cas(b"k", v, b"v2", 0).unwrap(),
                CasOutcome::Stored(v + 1),
                "{name}"
            );
            assert_eq!(store.get_v(b"k"), Some((b"v2".to_vec(), v + 1)), "{name}");
            // The consumed version can never win again.
            assert_eq!(
                store.cas(b"k", v, b"stale", 0).unwrap(),
                CasOutcome::Conflict(v + 1),
                "{name}"
            );
            let t = store.totals();
            assert_eq!((t.cas_ok, t.cas_conflicts), (1, 2), "{name}");
        }
    }

    #[test]
    fn ttl_expiry_is_lazy_and_mode_agnostic() {
        for store in stores(2000).iter().chain(sharded_stores(2000, 4).iter()) {
            let name = store.index_name();
            store.set_v(b"mortal", b"doomed", 5).unwrap();
            store.set_v(b"immortal", b"stays", 0).unwrap();
            for mode in [ReadMode::Locked, ReadMode::Optimistic] {
                store.set_read_mode(mode);
                assert_eq!(store.get(b"mortal").as_deref(), Some(&b"doomed"[..]));
            }
            store.advance_time(5);
            let mut resp = MGetResponse::new();
            for mode in [ReadMode::Locked, ReadMode::Optimistic] {
                store.set_read_mode(mode);
                assert_eq!(store.get(b"mortal"), None, "{name}/{:?}", mode);
                assert_eq!(store.get_v(b"mortal"), None, "{name}/{:?}", mode);
                assert_eq!(store.get(b"immortal").as_deref(), Some(&b"stays"[..]));
                let out = store.mget(&[b"mortal".as_ref(), b"immortal".as_ref()], &mut resp);
                assert_eq!(out.found, 1, "{name}/{:?}", mode);
                assert_eq!(resp.value(0), None, "{name}/{:?}", mode);
                assert_eq!(resp.value(1), Some(&b"stays"[..]), "{name}/{:?}", mode);
            }
            store.set_read_mode(ReadMode::Locked);
            assert!(store.totals().expired > 0, "{name}");
            // Expired keys are absent to every verb.
            assert!(!store.delete(b"mortal"), "{name}");
            assert!(!store.touch(b"mortal", 10), "{name}");
            assert_eq!(
                store.cas(b"mortal", 1, b"x", 0).unwrap(),
                CasOutcome::NotFound
            );
            // A re-set starts a fresh chain at version 1.
            assert_eq!(store.set_v(b"mortal", b"reborn", 0).unwrap(), 1, "{name}");
            assert_eq!(store.get(b"mortal").as_deref(), Some(&b"reborn"[..]));
        }
    }

    #[test]
    fn touch_extends_and_shortens_ttl() {
        let store = &stores(100)[0];
        store.set_v(b"k", b"v", 4).unwrap();
        assert!(store.set_ttl(b"k", 100));
        store.advance_time(50);
        assert_eq!(store.get(b"k").as_deref(), Some(&b"v"[..]), "extended");
        // Shorten back; also cover the clear-to-immortal path.
        assert!(store.touch(b"k", 1));
        store.advance_time(1);
        assert_eq!(store.get(b"k"), None, "shortened ttl must expire");
        store.set_v(b"k2", b"v", 3).unwrap();
        assert!(store.set_ttl(b"k2", 0));
        store.advance_time(1000);
        assert_eq!(store.get(b"k2").as_deref(), Some(&b"v"[..]), "ttl cleared");
        assert!(!store.set_ttl(b"missing", 5));
        assert_eq!(store.totals().touches, 3);
    }

    #[test]
    fn eviction_reclaims_expired_before_live_victims() {
        let store = KvStore::new(
            Box::new(Memc3Index::with_capacity(100_000)),
            StoreConfig {
                memory_budget: 2 << 20, // forces pressure
                capacity_items: 100_000,
                shards: 1,
                prefetch_depth: None,
                ..StoreConfig::default()
            },
        );
        let value = vec![0xCDu8; 1024];
        // Fill the arena with soon-to-expire items, let them die, then
        // keep writing immortal items: the write pressure must be
        // satisfied by reclaiming the corpses, not by evicting live keys.
        for i in 0..1500u32 {
            store
                .set_v(format!("dead-{i:06}").as_bytes(), &value, 2)
                .unwrap();
        }
        store.advance_time(2);
        for i in 0..1000u32 {
            store
                .set_v(format!("live-{i:06}").as_bytes(), &value, 0)
                .unwrap();
        }
        let t = store.totals();
        assert!(
            t.expired > 0,
            "pressure never reclaimed an expired item (expired={})",
            t.expired
        );
        // Every live key must have survived: the corpses were enough.
        for i in 0..1000u32 {
            assert!(
                store.get(format!("live-{i:06}").as_bytes()).is_some(),
                "live-{i:06} was evicted while expired items remained"
            );
        }
    }

    #[test]
    fn mget_mixed_hits_and_misses() {
        for store in stores(100) {
            store.set(b"x", b"xval").unwrap();
            store.set(b"y", b"yval").unwrap();
            let mut resp = MGetResponse::new();
            let outcome = store.mget(&[b"x".as_ref(), b"nope".as_ref(), b"y".as_ref()], &mut resp);
            assert_eq!(outcome.found, 2, "{}", store.index_name());
            assert_eq!(resp.value(0), Some(&b"xval"[..]));
            assert_eq!(resp.value(1), None);
            assert_eq!(resp.value(2), Some(&b"yval"[..]));
            assert!(outcome.phases.total() > 0);
        }
    }

    #[test]
    fn eviction_under_memory_pressure() {
        let store = KvStore::new(
            Box::new(Memc3Index::with_capacity(100_000)),
            StoreConfig {
                memory_budget: 2 << 20, // 2 MiB: forces eviction
                capacity_items: 100_000,
                shards: 1,
                prefetch_depth: None,
                ..StoreConfig::default()
            },
        );
        let value = vec![0xABu8; 1024];
        for i in 0..10_000u32 {
            store.set(format!("key-{i:06}").as_bytes(), &value).unwrap();
        }
        // The store survived and recent keys are readable.
        assert!(store.len() < 10_000, "eviction never triggered");
        assert_eq!(store.get(b"key-009999").as_deref(), Some(&value[..]));
        assert!(store.totals().evictions > 0, "evictions must be counted");
    }

    #[test]
    fn index_full_triggers_eviction_not_failure() {
        // A deliberately undersized index forces the IndexFull -> evict ->
        // retry path in set(); the store must keep absorbing writes.
        let store = KvStore::new(
            Box::new(Memc3Index::with_capacity(64)),
            StoreConfig {
                memory_budget: 8 << 20,
                capacity_items: 64,
                shards: 1,
                prefetch_depth: None,
                ..StoreConfig::default()
            },
        );
        for i in 0..2000u32 {
            store
                .set(format!("spill-{i}").as_bytes(), b"v")
                .unwrap_or_else(|e| panic!("set {i}: {e}"));
        }
        // The cache retains roughly the index capacity and stays readable.
        assert!(store.len() <= 128, "len {}", store.len());
        assert_eq!(store.get(b"spill-1999").as_deref(), Some(&b"v"[..]));
    }

    #[test]
    fn response_buffer_reuse() {
        let store = &stores(100)[0];
        store.set(b"a", b"aaaa").unwrap();
        let mut resp = MGetResponse::new();
        store.mget(&[b"a".as_ref()], &mut resp);
        assert_eq!(resp.payload_bytes(), 4);
        store.mget(&[b"missing".as_ref()], &mut resp);
        assert_eq!(resp.payload_bytes(), 0);
        assert_eq!(resp.len(), 1);
        assert_eq!(resp.value(0), None);
    }

    #[test]
    fn response_buffer_reusable_across_shard_counts() {
        // One MGetResponse driven against stores of different shard counts
        // must not carry stale partition scratch between them.
        let s1 = &sharded_stores(500, 1)[0];
        let s8 = &sharded_stores(500, 8)[0];
        s1.set(b"k", b"one").unwrap();
        s8.set(b"k", b"eight").unwrap();
        let mut resp = MGetResponse::new();
        s8.mget(&[b"k".as_ref()], &mut resp);
        assert_eq!(resp.value(0), Some(&b"eight"[..]));
        s1.mget(&[b"k".as_ref()], &mut resp);
        assert_eq!(resp.value(0), Some(&b"one"[..]));
        s8.mget(&[b"k".as_ref(), b"absent".as_ref()], &mut resp);
        assert_eq!(resp.value(0), Some(&b"eight"[..]));
        assert_eq!(resp.value(1), None);
    }

    #[test]
    fn read_mode_parse_and_default() {
        assert_eq!(ReadMode::parse("locked"), Some(ReadMode::Locked));
        assert_eq!(ReadMode::parse("optimistic"), Some(ReadMode::Optimistic));
        assert_eq!(ReadMode::parse("bogus"), None);
        assert_eq!(StoreConfig::default().read_mode, ReadMode::Locked);
        let store = &stores(10)[0];
        assert_eq!(store.read_mode(), ReadMode::Locked);
        store.set_read_mode(ReadMode::Optimistic);
        assert_eq!(store.read_mode(), ReadMode::Optimistic);
        assert_eq!(ReadMode::Optimistic.name(), "optimistic");
    }

    #[test]
    fn optimistic_reads_match_locked_and_commit() {
        // Quiescent store: every optimistic read must commit (no writers
        // to race) and return exactly what the locked path returns.
        for store in stores(2000).iter().chain(sharded_stores(2000, 4).iter()) {
            for i in 0..800u32 {
                store
                    .set(format!("k{i}").as_bytes(), format!("val-{i}").as_bytes())
                    .unwrap();
            }
            let keys: Vec<String> = (0..900u32).map(|i| format!("k{i}")).collect();
            let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_bytes()).collect();
            let mut locked = MGetResponse::new();
            let out_locked = store.mget(&refs, &mut locked);
            let locked_frame = locked.seal_frame(7).to_vec();
            let locked_gets: Vec<Option<Vec<u8>>> = refs.iter().map(|k| store.get(k)).collect();

            store.set_read_mode(ReadMode::Optimistic);
            let before = store.optimistic_stats();
            let mut opt = MGetResponse::new();
            let out_opt = store.mget(&refs, &mut opt);
            assert_eq!(out_opt.found, out_locked.found, "{}", store.index_name());
            assert_eq!(
                opt.seal_frame(7),
                &locked_frame[..],
                "{}",
                store.index_name()
            );
            let opt_gets: Vec<Option<Vec<u8>>> = refs.iter().map(|k| store.get(k)).collect();
            assert_eq!(opt_gets, locked_gets, "{}", store.index_name());
            let after = store.optimistic_stats();
            assert!(after.commits > before.commits, "{}", store.index_name());
            // No concurrent writers, so no read should ever need a retry.
            // (Fallbacks CAN still happen on a quiescent store: a tag
            // collision yields a full-key mismatch that `get` resolves on
            // the locked path rather than guessing.)
            assert_eq!(after.retries, before.retries, "{}", store.index_name());
            store.set_read_mode(ReadMode::Locked);
        }
    }

    /// Hold a writer mid-`set` (old item deleted, new not yet written,
    /// shard version odd) via the torture hook; returns the paused store
    /// plus the barriers and writer handle.
    fn paused_writer_store() -> (
        std::sync::Arc<KvStore>,
        std::sync::Arc<std::sync::Barrier>,
        std::thread::JoinHandle<()>,
    ) {
        use std::sync::{Arc, Barrier};
        let store = Arc::new(KvStore::new(
            Box::new(Memc3Index::with_capacity(100)),
            StoreConfig {
                read_mode: ReadMode::Optimistic,
                ..StoreConfig::default()
            },
        ));
        store.set(b"hot", b"v1").unwrap();
        let entered = Arc::new(Barrier::new(2));
        let release = Arc::new(Barrier::new(2));
        {
            let entered = Arc::clone(&entered);
            let release = Arc::clone(&release);
            store.set_torture_set_pause(Some(Box::new(move || {
                entered.wait();
                release.wait();
            })));
        }
        let writer = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || store.set(b"hot", b"v2").unwrap())
        };
        entered.wait(); // writer is now paused mid-mutation
        (store, release, writer)
    }

    fn wait_for_fallback(store: &KvStore, before: u64) {
        let deadline = Instant::now() + std::time::Duration::from_secs(30);
        while store.optimistic_stats().fallbacks == before {
            assert!(
                Instant::now() < deadline,
                "reader never fell back off the optimistic path"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn torn_read_get_spins_and_falls_back() {
        // The adversarial torn-read oracle: while the writer is held
        // mid-mutation the key's old item is GONE from index and table —
        // a reader trusting the racy probe would answer `None` (a torn
        // read: the key never stopped existing). The seqlock discipline
        // (odd version → spin → locked fallback) must make the reader
        // block and return the *new* value instead. Deleting the version
        // re-check deliberately makes this test fail.
        let (store, release, writer) = paused_writer_store();
        let before = store.optimistic_stats().fallbacks;
        let reader = {
            let store = std::sync::Arc::clone(&store);
            std::thread::spawn(move || store.get(b"hot"))
        };
        // The reader provably gave up optimistically while the writer was
        // still paused — not after it finished.
        wait_for_fallback(&store, before);
        release.wait();
        writer.join().unwrap();
        assert_eq!(reader.join().unwrap().as_deref(), Some(&b"v2"[..]));
        // With the writer gone, optimistic reads commit again.
        let commits = store.optimistic_stats().commits;
        assert_eq!(store.get(b"hot").as_deref(), Some(&b"v2"[..]));
        assert!(store.optimistic_stats().commits > commits);
    }

    #[test]
    fn torn_read_prefetched_mget_spins_and_falls_back() {
        // Same oracle through the G-ahead prefetched Multi-Get pipeline.
        let (store, release, writer) = paused_writer_store();
        store.set_prefetch_depth(8);
        let before = store.optimistic_stats().fallbacks;
        let reader = {
            let store = std::sync::Arc::clone(&store);
            std::thread::spawn(move || {
                let mut resp = MGetResponse::new();
                let keys: [&[u8]; 3] = [b"hot", b"missing-a", b"missing-b"];
                let out = store.mget(&keys, &mut resp);
                (out.found, resp.value(0).map(<[u8]>::to_vec))
            })
        };
        wait_for_fallback(&store, before);
        release.wait();
        writer.join().unwrap();
        let (found, hot) = reader.join().unwrap();
        assert_eq!(found, 1);
        assert_eq!(hot.as_deref(), Some(&b"v2"[..]));
    }

    #[test]
    fn concurrent_reads_while_writing() {
        use std::sync::Arc;
        let store = Arc::new(KvStore::new(
            Box::new(SimdIndex::with_capacity(
                SimdIndexKind::VerticalNway,
                10_000,
            )),
            StoreConfig::default(),
        ));
        for i in 0..2000u32 {
            store.set(format!("k{i}").as_bytes(), b"v").unwrap();
        }
        // Reader and writer threads are all joined below; KvStore itself
        // never spawns threads (see the module docs), so the store drops
        // only after every thread's Arc clone is gone.
        let readers: Vec<_> = (0..4)
            .map(|t| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    let mut resp = MGetResponse::new();
                    let mut found = 0;
                    for i in 0..500u32 {
                        let key = format!("k{}", (i * 7 + t) % 2000);
                        found += store.mget(&[key.as_bytes()], &mut resp).found;
                    }
                    found
                })
            })
            .collect();
        let writer = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                for i in 2000..2500u32 {
                    store.set(format!("k{i}").as_bytes(), b"w").unwrap();
                }
            })
        };
        for r in readers {
            assert_eq!(r.join().unwrap(), 500);
        }
        writer.join().unwrap();
    }

    #[test]
    fn drop_does_not_race_concurrent_use() {
        // Regression for the drop/shutdown contract: the main handle is
        // dropped while worker threads still hold Arc clones; the last
        // worker to finish performs the real drop. Must not deadlock,
        // panic, or leak a poisoned lock.
        use std::sync::Arc;
        for _ in 0..8 {
            let store = Arc::new(KvStore::with_shards(
                StoreConfig {
                    memory_budget: 8 << 20,
                    capacity_items: 2000,
                    shards: 4,
                    prefetch_depth: None,
                    ..StoreConfig::default()
                },
                |cap| by_short_name("ver", cap).unwrap(),
            ));
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let store = Arc::clone(&store);
                    std::thread::spawn(move || {
                        let mut resp = MGetResponse::new();
                        for i in 0..200u32 {
                            let key = format!("d{}-{}", t, i);
                            store.set(key.as_bytes(), b"v").unwrap();
                            store.mget(&[key.as_bytes()], &mut resp);
                        }
                    })
                })
                .collect();
            drop(store); // main handle gone while threads are mid-flight
            for h in handles {
                h.join().unwrap();
            }
        }
    }
}
