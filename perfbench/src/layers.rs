//! The traced run's layer replay: requests from the workload's generated
//! ring pushed through each layer's public entry point in turn —
//! `index::HashIndex` on pre-hashed keys, `store::KvStore`, `protocol`
//! encode/decode, and the full TCP path one request at a time — so every
//! layer is joined on one workload and a layer's self time is its mean
//! span per request minus the next-lower layer's.
//!
//! Each pass runs on its own block of fresh requests from the same ring,
//! so no pass finds the index buckets, slab chunks or key bytes that an
//! earlier pass just pulled into the cache: every layer is measured from
//! the same cache state as the workload leaves it.

use std::io;
use std::sync::atomic::Ordering;
use std::time::Instant;

use bytes::Bytes;
use simdht_kvs::index::{by_short_name, hash_keys_into, HashIndex, MISS};
use simdht_kvs::protocol::{OpStatus, Request, Response};
use simdht_kvs::store::{MGetResponse, SetMultiBatch, DEFAULT_PREFETCH_DEPTH};

use crate::tcp::{Server, Tally, Traffic};
use crate::trace::SpanLog;
use crate::workload::{encode_value, Op, Spec, KEY_LEN, NEVER, PROBE, PROBE_KEYS};

/// Per-layer results of one replay (times in ns).
#[derive(Debug, Default)]
pub struct Replay {
    /// Key hashing, per key.
    pub hash_ns: f64,
    /// Index probe of keys that are present, per key.
    pub hit_ns: f64,
    /// Index probe of keys that are absent, per key.
    pub miss_ns: f64,
    /// Index insert, per key.
    pub insert_ns: f64,
    /// Store Multi-Get, per key.
    pub mget_ns: f64,
    /// Store Multi-Get minus index time, per key.
    pub store_self_ns: f64,
    /// Store phase split per key (from the returned `PhaseNanos`).
    pub pre_ns: f64,
    /// Store lookup phase per key.
    pub lookup_ns: f64,
    /// Store post-processing phase per key.
    pub post_ns: f64,
    /// Store write verbs, per request.
    pub set_multi_ns: f64,
    /// Store `set`, per request.
    pub set_ns: f64,
    /// Store `delete`, per request.
    pub delete_ns: f64,
    /// Found / asked over the store-layer Multi-Gets.
    pub hit_ratio: f64,
    /// Client request encode + server response encode, per request.
    pub encode_ns: f64,
    /// Server request decode + client response decode, per request.
    pub decode_ns: f64,
    /// Frame bytes both ways per key moved.
    pub wire_bytes_per_key: f64,
    /// Serial TCP request, client-observed, per request.
    pub tcp_ns: f64,
    /// Server busy time per request on the serial TCP path.
    pub busy_ns: f64,
    /// Client time blocked on the reply per request.
    pub recv_wait_ns: f64,
    /// Per-request self times in the order they nest, for the report.
    pub table: Vec<(&'static str, f64)>,
    /// Index span (hash + probe) per Multi-Get request.
    pub mget_index_ns: f64,
    /// Store span per Multi-Get request.
    pub mget_store_ns: f64,
    /// Serial TCP span per Multi-Get request.
    pub mget_tcp_ns: f64,
}

fn per(total: u128, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total as f64 / n as f64
    }
}

/// Total duration of the spans called `name`, by request.
fn span_ns(log: &SpanLog, name: &str) -> std::collections::HashMap<u64, u64> {
    let mut m = std::collections::HashMap::new();
    for s in log.spans().iter().filter(|s| s.name == name) {
        *m.entry(s.req).or_insert(0) += s.ns();
    }
    m
}

/// The key bytes of request `seq`, copied out of the key book just before
/// a layer is timed on them, as the daemon holds them in a request frame
/// it has just read.
fn request_keys(traffic: &Traffic, seq: u64) -> Vec<u8> {
    let ids = traffic.ring.get(seq).1;
    let mut buf = Vec::with_capacity(ids.len() * KEY_LEN);
    for &i in ids {
        buf.extend_from_slice(traffic.book.bytes(i));
    }
    buf
}

/// Layer passes, each on its own block of fresh requests: index spans,
/// index per-key loops, store (and protocol), serial TCP.
const PASSES: u64 = 4;

/// Replay `n` fresh requests through every layer, `n` per pass. Spans go
/// to `log`; wrong outputs to `tally`.
pub fn replay(
    spec: &Spec,
    server: &mut Server,
    traffic: &Traffic,
    items: usize,
    n: usize,
    log: &mut SpanLog,
    tally: &mut Tally,
) -> io::Result<Replay> {
    assert!(
        PASSES as usize * n <= traffic.ring.len(),
        "layer passes must not repeat ring entries"
    );
    let mut r = Replay::default();
    let base = traffic.claim(PASSES * n as u64);
    let block = |pass: u64| base + pass * n as u64..base + (pass + 1) * n as u64;
    let mgets_of = |pass: u64| -> Vec<u64> {
        block(pass)
            .filter(|&s| traffic.ring.get(s).0 == Op::MGet)
            .collect()
    };
    let (index_mgets, loop_mgets) = (mgets_of(0), mgets_of(1));
    let (store_seqs, tcp_seqs) = (block(2), block(3));
    let (store_mgets, tcp_mgets) = (mgets_of(2), mgets_of(3));

    // --- index: a standalone index of the same kind and size ------------
    let mut index = by_short_name(spec.index, items + PROBE_KEYS).expect("known index");
    let mut hashes = Vec::with_capacity(items);
    for start in (0..items as u32).step_by(1024) {
        let end = (start + 1024).min(items as u32);
        let keys: Vec<&[u8]> = (start..end).map(|i| traffic.book.bytes(i)).collect();
        hash_keys_into(&keys, &mut hashes);
    }
    let t = Instant::now();
    for (id, &h) in hashes.iter().enumerate() {
        if index.insert(h, id as u32).is_err() {
            tally.failed += 1;
        }
    }
    r.insert_ns = per(t.elapsed().as_nanos(), items as u64);
    index_layer(
        &*index,
        traffic,
        (&index_mgets, &loop_mgets),
        &hashes,
        &mut r,
        log,
        tally,
    );
    drop(index);

    // --- store (and the protocol on the same requests) ------------------
    let store = &server.store;
    let mut resp = MGetResponse::new();
    let mut batch = SetMultiBatch::new();
    let (mut mget_total, mut keys, mut found) = (0u128, 0u64, 0u64);
    let (mut pre, mut lookup, mut post) = (0u64, 0u64, 0u64);
    let mut writes = [(0u128, 0u64); 3];
    let (mut enc, mut dec, mut wire, mut wire_keys) = (0u128, 0u128, 0u64, 0u64);
    for seq in store_seqs.clone() {
        let (op, ids) = traffic.ring.get(seq);
        let request = traffic.request(seq);
        let key_buf = request_keys(traffic, seq);
        let key_slices: Vec<&[u8]> = key_buf.chunks(KEY_LEN).collect();
        let t0 = Instant::now();
        let reply = match op {
            Op::MGet => {
                let outcome = store.mget(&key_slices, &mut resp);
                let t1 = Instant::now();
                log.record(seq, "store.mget", "", t0, t1);
                mget_total += (t1 - t0).as_nanos();
                keys += ids.len() as u64;
                found += outcome.found as u64;
                pre += outcome.phases.pre;
                lookup += outcome.phases.lookup;
                post += outcome.phases.post;
                None
            }
            Op::SetMulti => {
                let values: Vec<[u8; 32]> = ids.iter().map(|&i| encode_value(i, seq + 1)).collect();
                let pairs: Vec<(&[u8], &[u8])> = key_slices
                    .iter()
                    .zip(&values)
                    .map(|(k, v)| (*k, &v[..]))
                    .collect();
                let t0 = Instant::now();
                store.set_multi(&pairs, &mut batch);
                let t1 = Instant::now();
                writes[0].0 += (t1 - t0).as_nanos();
                writes[0].1 += 1;
                log.record(seq, "store.set_multi", "", t0, t1);
                let ok: Vec<bool> = batch.results().iter().map(|r| r.is_ok()).collect();
                Some(Response::SetMulti { id: seq, ok })
            }
            Op::Set => {
                let v = encode_value(ids[0], seq + 1);
                let t0 = Instant::now();
                let ok = store.set(key_slices[0], &v).is_ok();
                let t1 = Instant::now();
                writes[1].0 += (t1 - t0).as_nanos();
                writes[1].1 += 1;
                log.record(seq, "store.set", "", t0, t1);
                Some(Response::Set { id: seq, ok })
            }
            Op::Delete => {
                let t0 = Instant::now();
                let gone = store.delete(key_slices[0]);
                let t1 = Instant::now();
                writes[2].0 += (t1 - t0).as_nanos();
                writes[2].1 += 1;
                log.record(seq, "store.delete", "", t0, t1);
                let status = if gone {
                    OpStatus::Deleted
                } else {
                    OpStatus::NotFound
                };
                Some(Response::Delete { id: seq, status })
            }
        };
        // protocol: client encode → server decode → server encode → client
        // decode, on this request and the store's actual reply.
        let t0 = Instant::now();
        let frame = request.encode();
        let t1 = Instant::now();
        let decoded = Request::decode(frame.clone());
        let t2 = Instant::now();
        let reply_frame = match &reply {
            None => Bytes::copy_from_slice(resp.seal_frame(seq)),
            Some(reply) => reply.encode(),
        };
        let t3 = Instant::now();
        let decoded_reply = Response::decode(reply_frame.clone());
        let t4 = Instant::now();
        log.record(seq, "protocol.encode", "", t0, t1);
        log.record(seq, "protocol.decode", "", t3, t4);
        enc += (t1 - t0).as_nanos() + (t3 - t2).as_nanos();
        dec += (t2 - t1).as_nanos() + (t4 - t3).as_nanos();
        wire += (frame.len() + reply_frame.len() + 8) as u64;
        wire_keys += ids.len() as u64;
        if decoded.as_ref() != Ok(&request) {
            tally.fault(seq, ids[0], "request does not survive encode/decode");
        }
        match decoded_reply {
            Ok(reply) => {
                traffic.check(seq, &reply, tally);
            }
            Err(_) => tally.fault(seq, ids[0], "store reply frame does not decode"),
        }
    }
    if traffic.read_only {
        writes = write_probe(traffic, server, log);
    }
    r.mget_ns = per(mget_total, keys);
    r.pre_ns = per(u128::from(pre), keys);
    r.lookup_ns = per(u128::from(lookup), keys);
    r.post_ns = per(u128::from(post), keys);
    r.hit_ratio = if keys == 0 {
        0.0
    } else {
        found as f64 / keys as f64
    };
    [r.set_multi_ns, r.set_ns, r.delete_ns] = writes.map(|(ns, k)| per(ns, k));
    r.encode_ns = per(enc, n as u64);
    r.decode_ns = per(dec, n as u64);
    r.wire_bytes_per_key = per(u128::from(wire), wire_keys);

    // --- the full TCP path, one request at a time on one connection -----
    let stats = server.kvsd.stats();
    let conn = &mut server.conns[0];
    for seq in tcp_seqs.clone() {
        let before = stats.busy_ns.load(Ordering::Relaxed);
        let t0 = Instant::now();
        let frame = traffic.encode(seq);
        let t1 = Instant::now();
        conn.send(&frame)?;
        conn.flush()?;
        let t2 = Instant::now();
        let reply = conn.recv()?;
        let t3 = Instant::now();
        let decoded = Response::decode(reply);
        let t4 = Instant::now();
        let busy = stats.busy_ns.load(Ordering::Relaxed) - before;
        match decoded {
            Ok(resp) => {
                traffic.check(seq, &resp, tally);
            }
            Err(_) => tally.fault(seq, 0, "response frame does not decode"),
        }
        log.record(seq, "tcp.request", "", t0, t4);
        log.record(seq, "protocol.encode", "tcp.request", t0, t1);
        log.record(seq, "protocol.decode", "tcp.request", t3, t4);
        log.record(seq, "net.send", "tcp.request", t1, t2);
        log.record(seq, "net.recv_wait", "tcp.request", t2, t3);
        log.record_ns(seq, "kvsd.busy", "net.recv_wait", t2, busy);
    }

    // --- join the layers per request ------------------------------------
    let tcp = span_ns(log, "tcp.request");
    let busy = span_ns(log, "kvsd.busy");
    let wait = span_ns(log, "net.recv_wait");
    let send = span_ns(log, "net.send");
    let codec = {
        let mut m = span_ns(log, "protocol.encode");
        for (k, v) in span_ns(log, "protocol.decode") {
            *m.entry(k).or_insert(0) += v;
        }
        m
    };
    let mut store_span = span_ns(log, "store.mget");
    for name in ["store.set_multi", "store.set", "store.delete"] {
        for (k, v) in span_ns(log, name) {
            if store_seqs.contains(&k) {
                *store_span.entry(k).or_insert(0) += v;
            }
        }
    }
    let mut index_span = span_ns(log, "index.hash");
    for (k, v) in span_ns(log, "index.lookup") {
        *index_span.entry(k).or_insert(0) += v;
    }
    let mean = |m: &std::collections::HashMap<u64, u64>, over: &mut dyn Iterator<Item = u64>| {
        let (n, sum) = over.fold((0u64, 0u64), |(n, s), q| {
            (n + 1, s + m.get(&q).copied().unwrap_or(0))
        });
        per(u128::from(sum), n)
    };
    // Per-request means, each over its own pass's block.
    let tcp_all = || tcp_seqs.clone();
    r.tcp_ns = mean(&tcp, &mut tcp_all());
    r.busy_ns = mean(&busy, &mut tcp_all());
    r.recv_wait_ns = mean(&wait, &mut tcp_all());
    let send_req = mean(&send, &mut tcp_all());
    let codec_req = mean(&codec, &mut tcp_all());
    let index_req = mean(&index_span, &mut block(0));
    let store_req = mean(&store_span, &mut store_seqs.clone());
    r.table = vec![
        ("index (hash + probe)", index_req),
        ("store self (store - index)", store_req - index_req),
        ("kvsd self (busy - store)", r.busy_ns - store_req),
        ("net (recv wait - busy)", r.recv_wait_ns - r.busy_ns),
        ("net.send", send_req),
        ("client protocol (encode + decode)", codec_req),
    ];
    r.mget_index_ns = mean(&index_span, &mut index_mgets.iter().copied());
    r.mget_store_ns = mean(&store_span, &mut store_mgets.iter().copied());
    r.mget_tcp_ns = mean(&tcp, &mut tcp_mgets.iter().copied());
    r.store_self_ns = if keys == 0 {
        0.0
    } else {
        (r.mget_store_ns - r.mget_index_ns) * store_mgets.len() as f64 / keys as f64
    };
    Ok(r)
}

/// Index layer: per Multi-Get of the span block, hash the keys and probe
/// them as one prefetched batch (spans `index.hash`, `index.lookup`).
/// Then, on the Multi-Gets of the loop block, in tight untraced loops:
/// hash the keys (copied out of the key book first, as they sit in a
/// request buffer), probe the present keys, and probe the absent ones —
/// the block's own never-written keys where the workload has them,
/// otherwise as many probe keys (never in the standalone index).
fn index_layer(
    index: &dyn HashIndex,
    traffic: &Traffic,
    (span_mgets, loop_mgets): (&[u64], &[u64]),
    written_hashes: &[u32],
    r: &mut Replay,
    log: &mut SpanLog,
    tally: &mut Tally,
) {
    let depth = DEFAULT_PREFETCH_DEPTH;
    let mut h = Vec::new();
    let mut out = Vec::new();
    for &seq in span_mgets {
        let key_buf = request_keys(traffic, seq);
        let keys: Vec<&[u8]> = key_buf.chunks(KEY_LEN).collect();
        h.clear();
        let t0 = Instant::now();
        hash_keys_into(&keys, &mut h);
        let t1 = Instant::now();
        out.resize(h.len(), MISS);
        index.lookup_batch_prefetched(&h, &mut out, depth);
        let t2 = Instant::now();
        log.record(seq, "index.hash", "", t0, t1);
        log.record(seq, "index.lookup", "", t1, t2);
    }

    let probe_keys: Vec<&[u8]> = (0..PROBE_KEYS as u32)
        .map(|i| traffic.book.bytes(i | PROBE))
        .collect();
    let key_bufs: Vec<Vec<u8>> = loop_mgets
        .iter()
        .map(|&seq| request_keys(traffic, seq))
        .collect();
    let key_batches: Vec<Vec<&[u8]>> = key_bufs
        .iter()
        .map(|b| b.chunks(KEY_LEN).collect())
        .collect();
    let mut hit_batches: Vec<Vec<u32>> = Vec::with_capacity(loop_mgets.len());
    let mut miss_batches: Vec<Vec<u32>> = Vec::with_capacity(loop_mgets.len());
    let mut cursor = 0usize;
    for (&seq, keys) in loop_mgets.iter().zip(&key_batches) {
        let ids = traffic.ring.get(seq).1;
        hit_batches.push(
            ids.iter()
                .filter(|&&i| i & NEVER == 0)
                .map(|&i| written_hashes[i as usize])
                .collect(),
        );
        let mut absent: Vec<&[u8]> = ids
            .iter()
            .zip(keys)
            .filter(|(&i, _)| i & NEVER != 0)
            .map(|(_, &k)| k)
            .collect();
        if traffic.book.never() == 0 {
            for _ in 0..ids.len() {
                absent.push(probe_keys[cursor % probe_keys.len()]);
                cursor += 1;
            }
        }
        let mut mh = Vec::new();
        hash_keys_into(&absent, &mut mh);
        miss_batches.push(mh);
    }
    let t = Instant::now();
    let mut hashed = 0u64;
    for keys in &key_batches {
        h.clear();
        hash_keys_into(keys, &mut h);
        hashed += std::hint::black_box(&h).len() as u64;
    }
    r.hash_ns = per(t.elapsed().as_nanos(), hashed);
    let probe = |batches: &[Vec<u32>], out: &mut Vec<u32>| -> (f64, Vec<u32>) {
        let mut firsts = Vec::new();
        let mut n = 0u64;
        let t = Instant::now();
        for b in batches {
            out.clear();
            out.resize(b.len(), MISS);
            index.lookup_batch_prefetched(b, out, depth);
            firsts.extend_from_slice(std::hint::black_box(out));
            n += b.len() as u64;
        }
        (per(t.elapsed().as_nanos(), n), firsts)
    };
    let (hit_ns, hit_out) = probe(&hit_batches, &mut out);
    let (miss_ns, _) = probe(&miss_batches, &mut out);
    r.hit_ns = hit_ns;
    r.miss_ns = miss_ns;
    if let Some(pos) = hit_out.iter().position(|&c| c == MISS) {
        tally.fault(loop_mgets[0], pos as u32, "index lost a present key");
    }
}

/// Request ids of write-probe calls (not generated requests).
const PROBE_REQ: u64 = 1 << 63;

/// Read-only workloads exercise the store's write verbs on probe keys
/// that no request reads: SetMulti-16 batches, then single sets, then
/// deletes. Returns `(total ns, calls)` per verb.
fn write_probe(traffic: &Traffic, server: &Server, log: &mut SpanLog) -> [(u128, u64); 3] {
    let store = &server.store;
    let ids: Vec<u32> = (0..PROBE_KEYS as u32).map(|i| i | PROBE).collect();
    let values: Vec<[u8; 32]> = ids.iter().map(|&i| encode_value(i, 1)).collect();
    let mut batch = SetMultiBatch::new();
    let mut out = [(0u128, 0u64); 3];
    let mut time = |slot: usize, name: &'static str, f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        f();
        let t1 = Instant::now();
        out[slot].0 += (t1 - t0).as_nanos();
        out[slot].1 += 1;
        log.record(
            PROBE_REQ | (slot as u64) << 32 | out[slot].1,
            name,
            "",
            t0,
            t1,
        );
    };
    for (ids, vals) in ids.chunks(16).zip(values.chunks(16)) {
        let pairs: Vec<(&[u8], &[u8])> = ids
            .iter()
            .zip(vals)
            .map(|(&i, v)| (traffic.book.bytes(i), &v[..]))
            .collect();
        time(0, "probe.set_multi", &mut || {
            store.set_multi(&pairs, &mut batch);
        });
    }
    for (&i, v) in ids.iter().zip(&values) {
        time(1, "probe.set", &mut || {
            let _ = store.set(traffic.book.bytes(i), v);
        });
    }
    for &i in &ids {
        time(2, "probe.delete", &mut || {
            store.delete(traffic.book.bytes(i));
        });
    }
    out
}
