//! Workload definitions, the seeded request generator and the
//! self-checking key/value codec.
//!
//! Every input is a pure function of the workload and the `--seed`:
//! key bytes, value bytes and the request ring. Nothing here is timed.

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simdht_workload::{AccessPattern, RankSampler};

/// Key length in bytes (the paper's memslap key size).
pub const KEY_LEN: usize = 20;
/// Value length in bytes (the paper's memslap value size).
pub const VALUE_LEN: usize = 32;
/// Id bit marking a key from the never-written space.
pub const NEVER: u32 = 1 << 31;
/// Id bit marking a key from the probe space (written and deleted only
/// by the traced store-layer write probe, never requested).
pub const PROBE: u32 = 1 << 30;
const ID_MASK: u32 = PROBE - 1;

/// Resident bytes one stored item costs (index + item row + slab chunk +
/// allocator slack), used only to size the out-of-LLC store.
pub const EST_BYTES_PER_ITEM: usize = 135;

/// How many items a workload stores.
#[derive(Copy, Clone, Debug)]
pub enum Items {
    /// A fixed count.
    Fixed(usize),
    /// Enough items that the store is this many times the last-level cache.
    LlcTimes(usize),
}

/// What the request ring is made of.
#[derive(Copy, Clone, Debug)]
pub enum Mix {
    /// Read-only Multi-Gets of `width` keys; `never_one_in` keys in that
    /// many (0 = none) come from the never-written space and must miss.
    Read { width: usize, never_one_in: usize },
    /// 70 % MGet-16, 20 % SetMulti-16, 5 % Set, 5 % Delete.
    ReadWrite,
}

/// One benchmark workload. The open-loop rate is frozen here: about a
/// quarter of the closed-loop `ops_per_s` measured at seed 1 on the
/// reference host (2 cores, 300 MiB LLC, AVX-512BW). At half, the
/// in-process generator and the daemon's handler threads saturate the
/// two cores and the generator falls milliseconds behind its schedule.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Workload name as passed to `--workload`.
    pub name: &'static str,
    /// Traffic class: workloads with the same traffic and seed send
    /// byte-identical requests.
    pub traffic: &'static str,
    /// Index short name (`simdht_kvs::index::by_short_name`).
    pub index: &'static str,
    /// Stored item count.
    pub items: Items,
    /// Key popularity.
    pub pattern: AccessPattern,
    /// Request mix.
    pub mix: Mix,
    /// Slab memory budget as a fraction of the keys it would take to hold
    /// every key (`None` = room for all of them).
    pub holds_fraction: Option<f64>,
    /// Closed-loop requests in flight per connection.
    pub window: usize,
    /// Frozen open-loop offered rate, requests per second.
    pub open_rate: f64,
    /// Requests in the generated ring (cycled by the load generator).
    pub ring: usize,
    /// Requests replayed through every layer by the traced run.
    pub replay: usize,
}

/// The four workloads.
pub fn specs() -> Vec<Spec> {
    let zipf = AccessPattern::Zipfian { theta: 0.99 };
    let cold = |name, index| Spec {
        name,
        traffic: "cold",
        index,
        items: Items::LlcTimes(2),
        pattern: AccessPattern::Uniform,
        mix: Mix::Read {
            width: 96,
            never_one_in: 4,
        },
        holds_fraction: None,
        window: 4,
        open_rate: 5_000.0,
        ring: 1 << 16,
        replay: 4_000,
    };
    vec![
        Spec {
            name: "get-hot",
            traffic: "hot",
            index: "memc3",
            items: Items::Fixed(100_000),
            pattern: zipf,
            mix: Mix::Read {
                width: 1,
                never_one_in: 0,
            },
            holds_fraction: None,
            window: 32,
            open_rate: 40_000.0,
            ring: 1 << 20,
            replay: 20_000,
        },
        cold("mget-cold", "memc3"),
        cold("mget-cold-hor", "hor"),
        Spec {
            name: "mixed-rw",
            traffic: "mixed",
            index: "memc3",
            items: Items::Fixed(150_000),
            pattern: zipf,
            mix: Mix::ReadWrite,
            holds_fraction: Some(1.0 / 1.5),
            window: 4,
            open_rate: 20_000.0,
            ring: 1 << 17,
            replay: 8_000,
        },
    ]
}

/// Shrink a spec for `--quick`: small stores, short rings.
pub fn quick(mut spec: Spec) -> Spec {
    spec.items = Items::Fixed(match spec.items {
        Items::Fixed(n) => (n / 20).max(2_000),
        Items::LlcTimes(_) => 40_000,
    });
    spec.ring = spec.ring.min(1 << 12);
    spec.replay = spec.replay.min(500);
    spec.open_rate = spec.open_rate.min(5_000.0);
    spec
}

impl Spec {
    /// Stored item count on this host.
    pub fn item_count(&self, llc_bytes: usize) -> usize {
        match self.items {
            Items::Fixed(n) => n,
            Items::LlcTimes(k) => (k * llc_bytes)
                .div_ceil(EST_BYTES_PER_ITEM)
                .next_multiple_of(1000)
                .clamp(1_000_000, 16_000_000),
        }
    }

    /// Keys of the never-written space the ring draws from.
    pub fn never_count(&self, items: usize) -> usize {
        match self.mix {
            Mix::Read {
                never_one_in: 0, ..
            }
            | Mix::ReadWrite => 0,
            Mix::Read { .. } => items / 3,
        }
    }

    /// `true` when the workload never writes after preload.
    pub fn read_only(&self) -> bool {
        matches!(self.mix, Mix::Read { .. })
    }
}

/// splitmix64's finalizer: a bijection on `u64`.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The key bytes for `id`: a 4-byte space prefix and 16 hex digits of a
/// seeded bijection of the id, so every seed places keys differently.
fn write_key(out: &mut Vec<u8>, id: u32, seed: u64) {
    let prefix: &[u8; 4] = match id & !ID_MASK {
        0 => b"kvw:",
        NEVER => b"kvn:",
        _ => b"kvp:",
    };
    out.extend_from_slice(prefix);
    let h = mix64(u64::from(id) ^ seed.rotate_left(17));
    const HEX: &[u8; 16] = b"0123456789abcdef";
    for i in (0..16).rev() {
        out.push(HEX[((h >> (i * 4)) & 0xF) as usize]);
    }
}

/// Every key a run can send, one contiguous buffer per key space.
#[derive(Clone)]
pub struct KeyBook {
    written: Bytes,
    never: Bytes,
    probe: Bytes,
}

/// Probe keys written and deleted by the store-layer write probe.
pub const PROBE_KEYS: usize = 4096;

impl KeyBook {
    /// Build the key bytes for `written` + `never` + [`PROBE_KEYS`] ids.
    pub fn new(written: usize, never: usize, seed: u64) -> Self {
        let space = |n: usize, tag: u32| {
            let mut buf = Vec::with_capacity(n * KEY_LEN);
            for i in 0..n as u32 {
                write_key(&mut buf, i | tag, seed);
            }
            Bytes::from(buf)
        };
        KeyBook {
            written: space(written, 0),
            never: space(never, NEVER),
            probe: space(PROBE_KEYS, PROBE),
        }
    }

    fn range(&self, id: u32) -> (&Bytes, std::ops::Range<usize>) {
        let buf = match id & !ID_MASK {
            0 => &self.written,
            NEVER => &self.never,
            _ => &self.probe,
        };
        let i = (id & ID_MASK) as usize * KEY_LEN;
        (buf, i..i + KEY_LEN)
    }

    /// The key for `id` as a shared slice (no copy).
    pub fn key(&self, id: u32) -> Bytes {
        let (buf, r) = self.range(id);
        buf.slice(r)
    }

    /// The key bytes for `id`.
    pub fn bytes(&self, id: u32) -> &[u8] {
        let (buf, r) = self.range(id);
        &buf[r]
    }

    /// Number of never-written keys.
    pub fn never(&self) -> usize {
        self.never.len() / KEY_LEN
    }

    /// Bytes held by all key spaces.
    pub fn heap_bytes(&self) -> usize {
        self.written.len() + self.never.len() + self.probe.len()
    }
}

/// FNV-1a over `bytes`, the value seal.
fn fnv1a32(bytes: &[u8]) -> u32 {
    bytes.iter().fold(0x811C_9DC5u32, |h, &b| {
        (h ^ u32::from(b)).wrapping_mul(0x0100_0193)
    })
}

/// A value that must not be accepted.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ValueFault {
    /// Wrong length.
    Length(usize),
    /// Checksum does not match: torn or corrupted.
    Seal,
    /// A well-sealed value that belongs to another key.
    WrongKey(u64),
}

/// The value stored under `id` at `version`: `[id u64][version u64]
/// [12 filler bytes][FNV-1a seal of the first 28 bytes]`, all little-endian.
pub fn encode_value(id: u32, version: u64) -> [u8; VALUE_LEN] {
    let mut v = [0u8; VALUE_LEN];
    v[0..8].copy_from_slice(&u64::from(id).to_le_bytes());
    v[8..16].copy_from_slice(&version.to_le_bytes());
    let fill = mix64(u64::from(id) << 32 ^ version);
    v[16..24].copy_from_slice(&fill.to_le_bytes());
    v[24..28].copy_from_slice(&(fill as u32 ^ 0xA5A5_5A5A).to_le_bytes());
    let seal = fnv1a32(&v[..28]);
    v[28..32].copy_from_slice(&seal.to_le_bytes());
    v
}

/// Check a returned value against the key id it was requested under and
/// return the version it carries.
pub fn check_value(v: &[u8], id: u32) -> Result<u64, ValueFault> {
    if v.len() != VALUE_LEN {
        return Err(ValueFault::Length(v.len()));
    }
    let seal = u32::from_le_bytes(v[28..32].try_into().expect("4 bytes"));
    if seal != fnv1a32(&v[..28]) {
        return Err(ValueFault::Seal);
    }
    let owner = u64::from_le_bytes(v[0..8].try_into().expect("8 bytes"));
    if owner != u64::from(id) {
        return Err(ValueFault::WrongKey(owner));
    }
    Ok(u64::from_le_bytes(v[8..16].try_into().expect("8 bytes")))
}

/// A request verb of the ring.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Multi-Get.
    MGet,
    /// Batched set.
    SetMulti,
    /// Single set.
    Set,
    /// Single delete.
    Delete,
}

/// The generated request ring: `ops[i]` over key ids
/// `ids[starts[i]..starts[i + 1]]`.
pub struct Ring {
    ops: Vec<Op>,
    starts: Vec<u32>,
    ids: Vec<u32>,
}

impl Ring {
    /// Generate `spec.ring` requests over `items` written keys and
    /// `never` never-written keys from `seed`.
    pub fn generate(spec: &Spec, items: usize, never: usize, seed: u64) -> Ring {
        let tag = spec
            .traffic
            .bytes()
            .fold(0u64, |h, b| mix64(h ^ u64::from(b)));
        let mut rng = StdRng::seed_from_u64(mix64(seed ^ tag));
        let sampler = RankSampler::new(spec.pattern, items);
        // Popularity rank → key id through a seeded bijection, so hot keys
        // are scattered over the key space rather than its first ids.
        let perm = Permutation::new(items, &mut rng);
        let mut ring = Ring {
            ops: Vec::with_capacity(spec.ring),
            starts: Vec::with_capacity(spec.ring + 1),
            ids: Vec::new(),
        };
        ring.starts.push(0);
        for _ in 0..spec.ring {
            let (op, width) = match spec.mix {
                Mix::Read { width, .. } => (Op::MGet, width),
                Mix::ReadWrite => match rng.gen_range(0..100u32) {
                    0..=69 => (Op::MGet, 16),
                    70..=89 => (Op::SetMulti, 16),
                    90..=94 => (Op::Set, 1),
                    _ => (Op::Delete, 1),
                },
            };
            for _ in 0..width {
                let id = match spec.mix {
                    Mix::Read { never_one_in, .. }
                        if never_one_in > 0 && rng.gen_range(0..never_one_in) == 0 =>
                    {
                        rng.gen_range(0..never as u32) | NEVER
                    }
                    _ => perm.apply(sampler.sample(&mut rng)),
                };
                ring.ids.push(id);
            }
            ring.ops.push(op);
            ring.starts.push(ring.ids.len() as u32);
        }
        ring
    }

    /// Requests in the ring.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Verb and key ids of request `seq` (the ring is cycled).
    pub fn get(&self, seq: u64) -> (Op, &[u32]) {
        let i = (seq % self.ops.len() as u64) as usize;
        let r = self.starts[i] as usize..self.starts[i + 1] as usize;
        (self.ops[i], &self.ids[r])
    }

    /// Bytes held by the ring.
    pub fn heap_bytes(&self) -> usize {
        self.ops.len() + 4 * (self.starts.len() + self.ids.len())
    }
}

/// A seeded bijection on `0..n` (cycle-walking over an xorshift-multiply
/// permutation of the next power of two).
struct Permutation {
    n: u32,
    mask: u32,
    mul: u32,
    xor: u32,
}

impl Permutation {
    fn new(n: usize, rng: &mut StdRng) -> Self {
        let bits = usize::BITS - (n.max(2) - 1).leading_zeros();
        Permutation {
            n: n as u32,
            mask: ((1u64 << bits) - 1) as u32,
            mul: rng.gen::<u32>() | 1,
            xor: rng.gen::<u32>(),
        }
    }

    fn step(&self, x: u32) -> u32 {
        let x = (x ^ self.xor) & self.mask;
        let x = x.wrapping_mul(self.mul) & self.mask;
        x ^ (x >> (self.mask.count_ones() / 2 + 1))
    }

    fn apply(&self, rank: usize) -> u32 {
        let mut x = self.step(rank as u32);
        while x >= self.n {
            x = self.step(x);
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_roundtrip_and_faults() {
        let v = encode_value(7, 42);
        assert_eq!(check_value(&v, 7), Ok(42));
        let mut torn = v;
        torn[12] ^= 0x10;
        assert_eq!(check_value(&torn, 7), Err(ValueFault::Seal));
        assert_eq!(check_value(&v, 8), Err(ValueFault::WrongKey(7)));
        assert_eq!(check_value(&v[..31], 7), Err(ValueFault::Length(31)));
    }

    #[test]
    fn keys_are_distinct_fixed_width_and_seeded() {
        let a = KeyBook::new(1000, 10, 1);
        let b = KeyBook::new(1000, 10, 2);
        let mut seen = std::collections::HashSet::new();
        for id in (0..1000).chain((0..10).map(|i| i | NEVER)) {
            assert_eq!(a.bytes(id).len(), KEY_LEN);
            assert!(seen.insert(a.bytes(id).to_vec()));
        }
        assert_ne!(a.bytes(5), b.bytes(5));
    }

    #[test]
    fn permutation_is_a_bijection() {
        let mut rng = StdRng::seed_from_u64(3);
        for n in [1usize, 2, 3, 1000, 4097] {
            let p = Permutation::new(n, &mut rng);
            let mut hit = vec![false; n];
            for r in 0..n {
                let x = p.apply(r) as usize;
                assert!(!hit[x]);
                hit[x] = true;
            }
        }
    }

    #[test]
    fn ring_is_seeded_and_shared_by_traffic() {
        let s = specs();
        let (cold, hor) = (quick(s[1].clone()), quick(s[2].clone()));
        let a = Ring::generate(&cold, 40_000, 13_000, 9);
        let b = Ring::generate(&hor, 40_000, 13_000, 9);
        let c = Ring::generate(&cold, 40_000, 13_000, 10);
        assert_eq!(a.get(5).1, b.get(5).1);
        assert_ne!(a.get(5).1, c.get(5).1);
        let never = a.ids.iter().filter(|&&i| i & NEVER != 0).count();
        let share = never as f64 / a.ids.len() as f64;
        assert!((0.2..0.3).contains(&share), "never-written share {share}");
    }
}
