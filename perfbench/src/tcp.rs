//! The end-to-end path: an in-process `Kvsd` on 127.0.0.1 driven over two
//! real TCP connections — wire preload, closed-loop throughput and
//! open-loop latency — with every response checked.

use std::collections::VecDeque;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use simdht_kvs::kvsd::Kvsd;
use simdht_kvs::net::{read_frame, write_frame};
use simdht_kvs::protocol::{OpStatus, Request, Response};
use simdht_kvs::reactor::poller::{Interest, Poller};
use simdht_kvs::store::{KvStore, ReadMode, StoreConfig};

use crate::trace::SpanLog;
use crate::workload::{
    check_value, encode_value, KeyBook, Op, Ring, Spec, ValueFault, NEVER, PROBE_KEYS,
};

/// Slab chunk one 20 B key + 32 B value item occupies.
const CHUNK_BYTES: usize = 64;
const SLAB_PAGE: usize = 1 << 20;
/// Pairs per preload `SetMulti` request.
const PRELOAD_BATCH: usize = 256;
/// Preload requests in flight per connection.
const PRELOAD_WINDOW: usize = 8;
/// How long a client waits for any one response before failing the run.
const RECV_TIMEOUT: Duration = Duration::from_secs(10);

/// Build the workload's empty store: one shard, locked reads, auto
/// prefetch depth.
pub fn new_store(spec: &Spec, items: usize) -> Arc<KvStore> {
    let capacity = items + PROBE_KEYS;
    let budget = match spec.holds_fraction {
        Some(f) => ((items as f64 * f) as usize * CHUNK_BYTES / SLAB_PAGE).max(1) * SLAB_PAGE,
        None => capacity * CHUNK_BYTES * 5 / 4 + 8 * SLAB_PAGE,
    };
    let index = simdht_kvs::index::by_short_name(spec.index, capacity)
        .expect("workload names a known index");
    let config = StoreConfig {
        memory_budget: budget,
        capacity_items: capacity,
        shards: 1,
        prefetch_depth: None,
        read_mode: ReadMode::Locked,
    };
    Arc::new(KvStore::new(index, config))
}

/// One client connection, split into its read and write halves.
pub struct Conn {
    r: BufReader<TcpStream>,
    w: BufWriter<TcpStream>,
}

impl Conn {
    /// Connect with Nagle off and a bounded receive wait.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(RECV_TIMEOUT))?;
        Ok(Conn {
            r: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            w: BufWriter::with_capacity(1 << 16, stream),
        })
    }

    /// Send one frame (buffered until [`Conn::recv`] or a flush).
    pub fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        write_frame(&mut self.w, frame)
    }

    /// Push buffered frames to the socket.
    pub fn flush(&mut self) -> io::Result<()> {
        self.w.flush()
    }

    /// Flush, then block for the next response frame.
    pub fn recv(&mut self) -> io::Result<Bytes> {
        self.w.flush()?;
        read_frame(&mut self.r)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))
    }
}

/// A running daemon and the benchmark's two connections to it.
pub struct Server {
    /// The store the daemon serves (shared, so layers can call it directly).
    pub store: Arc<KvStore>,
    /// The daemon.
    pub kvsd: Kvsd,
    /// The two client connections.
    pub conns: [Conn; 2],
}

impl Server {
    /// Start a daemon over `store` on an ephemeral loopback port.
    pub fn start(store: Arc<KvStore>) -> io::Result<Server> {
        let kvsd = Kvsd::bind(Arc::clone(&store), "127.0.0.1:0")?;
        let addr = kvsd.local_addr();
        Ok(Server {
            store,
            kvsd,
            conns: [Conn::connect(addr)?, Conn::connect(addr)?],
        })
    }

    /// Replace both connections with fresh ones (the daemon's handler
    /// threads for the old ones see EOF and exit).
    pub fn reconnect(&mut self) -> io::Result<()> {
        let addr = self.kvsd.local_addr();
        self.conns = [Conn::connect(addr)?, Conn::connect(addr)?];
        Ok(())
    }

    /// A measured closed-loop phase: [`SUBPHASES`] closed loops of
    /// `dur / SUBPHASES`, each on fresh connections, merged. Each new pair
    /// of handler threads lands in a new CPU placement, so one run's
    /// median samples several placements instead of being stuck in one.
    pub fn closed_phase(
        &mut self,
        traffic: &Traffic,
        dur: Duration,
        window: usize,
        trace: Option<(Instant, usize)>,
    ) -> io::Result<Closed> {
        let mut all: Option<Closed> = None;
        for _ in 0..SUBPHASES {
            self.reconnect()?;
            let part = closed_loop(
                &mut self.conns,
                traffic,
                dur / SUBPHASES as u32,
                window,
                trace,
            )?;
            match &mut all {
                None => all = Some(part),
                Some(c) => {
                    c.tally.add(&part.tally);
                    c.wall += part.wall;
                    c.windows.extend(part.windows);
                    c.spans.extend(part.spans);
                }
            }
        }
        Ok(all.expect("at least one sub-phase"))
    }

    /// Close the connections, drain and join the daemon.
    pub fn stop(self) {
        drop(self.conns);
        self.kvsd.shutdown();
    }
}

/// Store written ids `0..items` at version 0 over the wire as pipelined
/// `SetMulti` batches on both connections. Returns the pairs refused.
pub fn preload(conns: &mut [Conn; 2], book: &KeyBook, items: usize) -> io::Result<u64> {
    let batches = items.div_ceil(PRELOAD_BATCH);
    let [a, b] = conns;
    std::thread::scope(|s| {
        let jobs = [(a, 0usize), (b, 1usize)].map(|(conn, lane)| {
            s.spawn(move || -> io::Result<u64> {
                let mut refused = 0u64;
                let mut inflight = 0usize;
                let mut values = Vec::with_capacity(PRELOAD_BATCH * crate::workload::VALUE_LEN);
                for batch in (lane..batches).step_by(2) {
                    let ids = batch * PRELOAD_BATCH..((batch + 1) * PRELOAD_BATCH).min(items);
                    values.clear();
                    for id in ids.clone() {
                        values.extend_from_slice(&encode_value(id as u32, 0));
                    }
                    let values = Bytes::copy_from_slice(&values);
                    let pairs = ids
                        .enumerate()
                        .map(|(j, id)| {
                            let v = j * crate::workload::VALUE_LEN;
                            (
                                book.key(id as u32),
                                values.slice(v..v + crate::workload::VALUE_LEN),
                            )
                        })
                        .collect();
                    let req = Request::SetMulti {
                        id: batch as u64,
                        pairs,
                    };
                    conn.send(&req.encode())?;
                    inflight += 1;
                    if inflight == PRELOAD_WINDOW {
                        refused += preload_ack(conn)?;
                        inflight -= 1;
                    }
                }
                for _ in 0..inflight {
                    refused += preload_ack(conn)?;
                }
                Ok(refused)
            })
        });
        let mut refused = 0;
        for job in jobs {
            refused += job.join().expect("preload thread panicked")?;
        }
        Ok(refused)
    })
}

fn preload_ack(conn: &mut Conn) -> io::Result<u64> {
    match Response::decode(conn.recv()?) {
        Ok(Response::SetMulti { ok, .. }) => Ok(ok.iter().filter(|&&k| !k).count() as u64),
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "preload got a non-SetMulti response",
        )),
    }
}

/// The generated traffic of one run: keys, the request ring and the
/// global request sequence (request `seq` is ring entry `seq % len`, and
/// its writes carry version `seq + 1`).
pub struct Traffic {
    /// Key bytes.
    pub book: KeyBook,
    /// Request ring.
    pub ring: Ring,
    /// `true` when no request writes.
    pub read_only: bool,
    next_seq: AtomicU64,
}

impl Traffic {
    /// Wrap generated inputs.
    pub fn new(book: KeyBook, ring: Ring, read_only: bool) -> Self {
        Traffic {
            book,
            ring,
            read_only,
            next_seq: AtomicU64::new(0),
        }
    }

    /// Claim `n` consecutive sequence numbers.
    pub fn claim(&self, n: u64) -> u64 {
        self.next_seq.fetch_add(n, Ordering::Relaxed)
    }

    /// Encode request `seq` with the protocol's client-side encoder.
    pub fn encode(&self, seq: u64) -> Bytes {
        self.request(seq).encode()
    }

    /// Request `seq` as a protocol message.
    pub fn request(&self, seq: u64) -> Request {
        let (op, ids) = self.ring.get(seq);
        let value = |id: u32| Bytes::copy_from_slice(&encode_value(id, seq + 1));
        match op {
            Op::MGet => Request::MGet {
                id: seq,
                keys: ids.iter().map(|&i| self.book.key(i)).collect(),
            },
            Op::SetMulti => Request::SetMulti {
                id: seq,
                pairs: ids.iter().map(|&i| (self.book.key(i), value(i))).collect(),
            },
            Op::Set => Request::Set {
                id: seq,
                key: self.book.key(ids[0]),
                value: value(ids[0]),
            },
            Op::Delete => Request::Delete {
                id: seq,
                key: self.book.key(ids[0]),
            },
        }
    }

    /// Check the response to request `seq` and add it to `t`. Returns
    /// `true` when the request succeeded: an error reply, a refused write
    /// or a wrong output is not a completed request.
    pub fn check(&self, seq: u64, resp: &Response, t: &mut Tally) -> bool {
        let (op, ids) = self.ring.get(seq);
        t.requests += 1;
        let (failed, wrong) = (t.failed, t.wrong);
        let max_version = self.next_seq.load(Ordering::Relaxed);
        match (op, resp) {
            (_, Response::Error { .. }) => t.failed += 1,
            (Op::MGet, Response::MGet { id, entries })
                if *id == seq && entries.len() == ids.len() =>
            {
                t.mget_keys += ids.len() as u64;
                for (&key, entry) in ids.iter().zip(entries) {
                    let Some(v) = entry else {
                        if self.read_only && key & NEVER == 0 {
                            t.fault(seq, key, "written key missed");
                        }
                        continue;
                    };
                    t.found += 1;
                    match check_value(v, key) {
                        _ if key & NEVER != 0 => t.fault(seq, key, "never-written key hit"),
                        Ok(0) => {}
                        Ok(ver) if !self.read_only && ver <= max_version => {}
                        Ok(_) => t.fault(seq, key, "value carries an unwritten version"),
                        Err(ValueFault::Seal) => t.fault(seq, key, "value fails its seal"),
                        Err(ValueFault::Length(_)) => {
                            t.fault(seq, key, "value has the wrong length")
                        }
                        Err(ValueFault::WrongKey(_)) => {
                            t.fault(seq, key, "value belongs to another key")
                        }
                    }
                }
            }
            (Op::SetMulti, Response::SetMulti { id, ok })
                if *id == seq && ok.len() == ids.len() =>
            {
                t.failed += u64::from(ok.iter().any(|&k| !k));
            }
            (Op::Set, Response::Set { id, ok }) if *id == seq => t.failed += u64::from(!ok),
            (Op::Delete, Response::Delete { id, status }) if *id == seq => {
                t.failed += u64::from(!matches!(status, OpStatus::Deleted | OpStatus::NotFound));
            }
            _ => t.fault(seq, ids[0], "response does not match its request"),
        }
        (t.failed, t.wrong) == (failed, wrong)
    }
}

/// Counts from checked responses.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Responses checked.
    pub requests: u64,
    /// Keys asked for by Multi-Gets.
    pub mget_keys: u64,
    /// Keys found.
    pub found: u64,
    /// Requests refused, shed or failed by the server (or never answered);
    /// any fails the run.
    pub failed: u64,
    /// Wrong outputs: torn or foreign values, hit-count mismatches.
    pub wrong: u64,
    /// The first wrong output, for the report.
    pub first_wrong: Option<String>,
}

impl Tally {
    /// Record a wrong output.
    pub fn fault(&mut self, seq: u64, key: u32, what: &str) {
        self.wrong += 1;
        if self.first_wrong.is_none() {
            self.first_wrong = Some(format!("request {seq}, key id {key:#x}: {what}"));
        }
    }

    /// Fold another tally in.
    pub fn add(&mut self, o: &Tally) {
        self.requests += o.requests;
        self.mget_keys += o.mget_keys;
        self.found += o.found;
        self.failed += o.failed;
        self.wrong += o.wrong;
        if self.first_wrong.is_none() {
            self.first_wrong.clone_from(&o.first_wrong);
        }
    }
}

/// Result of a closed-loop phase.
pub struct Closed {
    /// Checked responses.
    pub tally: Tally,
    /// Time from the first send to the last response.
    pub wall: Duration,
    /// Responses and Multi-Get keys completed in each of the
    /// [`WINDOWS`] equal slices of the phase (the drain is not counted).
    pub windows: Slices,
    /// Length of one window.
    pub win: Duration,
    /// Client-side spans (empty unless traced).
    pub spans: SpanLog,
}

/// Closed-loop sub-phases per measured phase, each on fresh connections.
pub const SUBPHASES: usize = 4;

/// (responses, Multi-Get keys) completed per slice of a phase.
pub type Slices = Vec<(u64, u64)>;

/// Slices a measured phase is cut into; rates and percentiles are
/// reported as the median over slices, so one stall moves one slice.
pub const WINDOWS: usize = 20;

impl Closed {
    /// Median over windows of requests per second and keys per second.
    pub fn rates(&self) -> (f64, f64) {
        let secs = self.win.as_secs_f64();
        let ops = self.windows.iter().map(|w| w.0 as f64 / secs).collect();
        let keys = self.windows.iter().map(|w| w.1 as f64 / secs).collect();
        (median(ops), median(keys))
    }
}

/// Median of `v` (0 when empty).
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Closed loop: each connection keeps `window` requests in flight for
/// `dur`, then drains. With `trace`, each request records client-side
/// spans (`tcp.request` ⊃ `protocol.encode`, `net.send`,
/// `net.recv_wait`, `protocol.decode`).
pub fn closed_loop(
    conns: &mut [Conn; 2],
    traffic: &Traffic,
    dur: Duration,
    window: usize,
    trace: Option<(Instant, usize)>,
) -> io::Result<Closed> {
    let start = Instant::now();
    let win = dur / WINDOWS as u32;
    let [a, b] = conns;
    let results = std::thread::scope(|s| {
        let jobs = [(a, 0), (b, 1)].map(|(conn, i)| {
            s.spawn(move || {
                pin_to_nth_cpu(i);
                closed_conn(conn, traffic, (start, win), window, trace)
            })
        });
        jobs.map(|j| j.join().expect("client thread panicked"))
    });
    let wall = start.elapsed();
    let mut tally = Tally::default();
    let mut spans = SpanLog::new(start, trace.map_or(0, |(_, cap)| cap));
    let mut windows = vec![(0, 0); WINDOWS];
    for r in results {
        let (t, counts, log) = r?;
        tally.add(&t);
        for (w, c) in windows.iter_mut().zip(counts) {
            *w = (w.0 + c.0, w.1 + c.1);
        }
        spans.extend(log);
    }
    Ok(Closed {
        tally,
        wall,
        windows,
        win,
        spans,
    })
}

fn closed_conn(
    conn: &mut Conn,
    traffic: &Traffic,
    (start, win): (Instant, Duration),
    window: usize,
    trace: Option<(Instant, usize)>,
) -> io::Result<(Tally, Slices, SpanLog)> {
    let deadline = start + win * WINDOWS as u32;
    let mut tally = Tally::default();
    // One extra slot collects the drain after the deadline.
    let mut counts = vec![(0u64, 0u64); WINDOWS + 1];
    let (epoch, cap) = trace.unwrap_or((deadline, 0));
    let mut log = SpanLog::new(epoch, cap / 2);
    let traced = trace.is_some();
    // (seq, request start) of requests in flight, in send order.
    let mut inflight: VecDeque<(u64, Instant)> = VecDeque::with_capacity(window);
    let mut now = Instant::now();
    loop {
        while inflight.len() < window && now < deadline {
            let seq = traffic.claim(1);
            let t0 = now;
            let frame = traffic.encode(seq);
            if traced {
                let t1 = Instant::now();
                conn.send(&frame)?;
                let t2 = Instant::now();
                log.record(seq, "protocol.encode", "tcp.request", t0, t1);
                log.record(seq, "net.send", "tcp.request", t1, t2);
            } else {
                conn.send(&frame)?;
            }
            inflight.push_back((seq, t0));
            now = Instant::now();
        }
        let Some((seq, t0)) = inflight.pop_front() else {
            break;
        };
        let t1 = if traced { Instant::now() } else { now };
        let frame = conn.recv()?;
        let t2 = if traced { Instant::now() } else { now };
        let resp = Response::decode(frame);
        let t3 = if traced { Instant::now() } else { now };
        let keys_before = tally.mget_keys;
        let ok = match resp {
            Ok(resp) => traffic.check(seq, &resp, &mut tally),
            Err(_) => {
                tally.fault(seq, 0, "response frame does not decode");
                false
            }
        };
        now = Instant::now();
        // Only successful replies count as completed work.
        if ok {
            let w = ((now - start).as_nanos() / win.as_nanos().max(1)) as usize;
            let slot = &mut counts[w.min(WINDOWS)];
            *slot = (slot.0 + 1, slot.1 + tally.mget_keys - keys_before);
        }
        if traced {
            log.record(seq, "net.recv_wait", "tcp.request", t1, t2);
            log.record(seq, "protocol.decode", "tcp.request", t2, t3);
            log.record(seq, "tcp.request", "", t0, now);
        }
    }
    counts.truncate(WINDOWS);
    Ok((tally, counts, log))
}

/// The open-loop phase's requests, encoded before set-up (so neither
/// their pages nor their encoding are counted), and its result buffers.
pub struct OpenBufs {
    base: u64,
    frames: Vec<Bytes>,
    replies: Vec<Option<Bytes>>,
    lat_ns: Vec<u64>,
    late_ns: Vec<u64>,
}

impl OpenBufs {
    /// Claim and encode the next `n` requests of `traffic`.
    pub fn new(traffic: &Traffic, n: usize) -> Self {
        let base = traffic.claim(n as u64);
        OpenBufs {
            base,
            frames: (0..n as u64).map(|k| traffic.encode(base + k)).collect(),
            replies: vec![None; n],
            lat_ns: vec![u64::MAX; n],
            late_ns: vec![0; n],
        }
    }
}

/// Result of an open-loop phase.
pub struct Open {
    /// Checked responses.
    pub tally: Tally,
    /// Per scheduled request: latency from its due time, `u64::MAX` when
    /// it failed or never came back.
    pub lat_ns: Vec<u64>,
    /// Per scheduled request: how late the generator sent it.
    pub late_ns: Vec<u64>,
}

/// Open loop: one sender thread sends request `k` at `start + k / rate`,
/// on connection `k % 2`, whatever the replies are doing; one receiver
/// thread reads both connections and keeps each reply with its arrival
/// time. Latency is timed from each request's due time, so a stall counts
/// against every request it delays. The client does no encoding or
/// checking while the phase runs; replies are checked afterwards.
pub fn open_loop(
    conns: &mut [Conn; 2],
    traffic: &Traffic,
    rate: f64,
    bufs: &mut OpenBufs,
) -> io::Result<Open> {
    let n = bufs.frames.len();
    bufs.replies.fill(None);
    bufs.lat_ns.fill(u64::MAX);
    bufs.late_ns.fill(0);
    let start = Instant::now() + Duration::from_millis(1);
    let due = move |k: usize| start + Duration::from_nanos((k as f64 * 1e9 / rate) as u64);
    let sent = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let [a, b] = conns;
    let (mut writers, mut readers) = ([&mut a.w, &mut b.w], [&mut a.r, &mut b.r]);
    let (frames, late_ns) = (&bufs.frames, &mut bufs.late_ns);
    let (replies, lat_ns) = (&mut bufs.replies, &mut bufs.lat_ns);
    std::thread::scope(|s| -> io::Result<()> {
        let (sent, done) = (&sent, &done);
        let receiver = s.spawn(move || -> io::Result<()> {
            let mut poller = Poller::new()?;
            for (token, r) in readers.iter().enumerate() {
                poller.register(r.get_ref().as_raw_fd(), token, Interest::READ)?;
            }
            let mut events = Vec::new();
            // Each connection answers in order: the next reply on
            // connection `c` is for request `next[c]`.
            let mut next = [0usize, 1];
            let mut received = 0u64;
            let mut gave_up_at: Option<Instant> = None;
            loop {
                if done.load(Ordering::Acquire) {
                    if received == sent.load(Ordering::Acquire) {
                        return Ok(());
                    }
                    if gave_up_at.get_or_insert_with(Instant::now).elapsed() > RECV_TIMEOUT {
                        return Ok(());
                    }
                }
                poller.wait(&mut events, Some(Duration::from_millis(10)))?;
                for ev in &events {
                    let r = &mut readers[ev.token];
                    loop {
                        let frame = read_frame(&mut **r)?.ok_or_else(|| {
                            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed")
                        })?;
                        let at = Instant::now();
                        let k = next[ev.token];
                        if k >= n {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                "reply to a request never sent",
                            ));
                        }
                        next[ev.token] += 2;
                        lat_ns[k] = at.saturating_duration_since(due(k)).as_nanos() as u64;
                        replies[k] = Some(frame);
                        received += 1;
                        if r.buffer().is_empty() {
                            break;
                        }
                    }
                }
            }
        });
        let send_result = (|| -> io::Result<()> {
            let mut k = 0usize;
            while k < n {
                let now = Instant::now();
                let next = due(k);
                if next > now {
                    // Sleep, never spin: a spinning generator would take a
                    // core from the two-core server it measures. Requests
                    // that fall due during an oversleep go out together.
                    std::thread::sleep(next - now);
                    continue;
                }
                let mut touched = [false; 2];
                while k < n && due(k) <= now {
                    let c = k % 2;
                    late_ns[k] = Instant::now().saturating_duration_since(due(k)).as_nanos() as u64;
                    write_frame(&mut *writers[c], &frames[k])?;
                    touched[c] = true;
                    k += 1;
                }
                for (c, w) in writers.iter_mut().enumerate() {
                    if touched[c] {
                        w.flush()?;
                    }
                }
                sent.store(k as u64, Ordering::Release);
            }
            Ok(())
        })();
        done.store(true, Ordering::Release);
        let received = receiver.join().expect("receiver thread panicked");
        send_result.and(received)
    })?;
    let mut tally = Tally::default();
    for (k, reply) in bufs.replies.iter_mut().map(Option::take).enumerate() {
        let seq = bufs.base + k as u64;
        match reply.map(Response::decode) {
            Some(Ok(resp)) => {
                if matches!(resp, Response::Error { .. }) {
                    bufs.lat_ns[k] = u64::MAX;
                }
                traffic.check(seq, &resp, &mut tally);
            }
            Some(Err(_)) => tally.fault(seq, 0, "response frame does not decode"),
            None => tally.failed += 1,
        }
    }
    Ok(Open {
        tally,
        lat_ns: bufs.lat_ns.clone(),
        late_ns: bufs.late_ns.clone(),
    })
}

/// Pin the calling thread to the `i`-th CPU it may run on (wrapping), so
/// the two closed-loop clients sit on different cores in every run;
/// left unpinned, the scheduler settles them (and the handler threads
/// they wake) into one of several placements whose throughput differs by
/// up to a third from run to run. Best effort: failures leave the thread
/// unpinned.
#[cfg(target_os = "linux")]
fn pin_to_nth_cpu(i: usize) {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return;
    }
    let cpus: Vec<usize> = (0..mask.len() * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    let Some(&cpu) = cpus.get(i % cpus.len().max(1)) else {
        return;
    };
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
}

#[cfg(not(target_os = "linux"))]
fn pin_to_nth_cpu(_: usize) {}
