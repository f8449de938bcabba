//! End-to-end KVS benchmark with a layered trace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <get-hot|mget-cold|mget-cold-hor|mixed-rw|all> \
//!     --seed <n> --seconds <s> --trace <0|1> [--quick]
//! ```
//!
//! One process starts `simdht_kvs::kvsd::Kvsd` on 127.0.0.1 and drives it
//! over two TCP connections. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` replays the workload's requests through every layer and prints
//! the per-layer metrics. The last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the exit code is 0
//! only when every output was right and the open-loop run was valid.
//! See `perfbench/README.md`.

mod layers;
mod tcp;
mod trace;
mod workload;

use std::io::Write;
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use simdht_bench::machine;
use simdht_simd::CpuFeatures;

use crate::tcp::{
    closed_loop, median, new_store, open_loop, preload, OpenBufs, Server, Tally, Traffic,
};
use crate::trace::SpanLog;
use crate::workload::{KeyBook, Ring, Spec, KEY_LEN, VALUE_LEN};

/// An open-loop run whose generator sent more than 1 % of its requests
/// later than this behind schedule measured the generator, not the
/// server: invalid.
const LATE_LIMIT_US: f64 = 1000.0;
/// Open-loop samples per latency window: p99 of a window has ten beyond it.
const MIN_OPEN_SAMPLES: usize = 1000;
/// An invalid open-loop attempt is run again, but no attempt starts later
/// than this many seconds into the workload's run, so a run still ends
/// well within three minutes. The host's noisy spells last from seconds
/// to minutes, so retrying until then finds the calm gaps in most of them.
const OPEN_RETRY_UNTIL_S: f64 = 100.0;
/// Set-ups per run: at least `MIN_SETUPS`, then more while they have
/// taken under `SETUP_BUDGET_S` in all, up to `MAX_SETUPS`; `setup_s` is
/// their median. The host's speed shifts for a second or so at a time, so
/// the small stores' set-ups are spread over several seconds.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 60;
const SETUP_BUDGET_S: f64 = 4.0;
/// Spans kept per traced closed-loop phase.
const SPAN_CAP: usize = 1 << 16;
/// Where run records and span files are written, relative to the working
/// directory.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

const USAGE: &str = "usage: perfbench --workload <get-hot|mget-cold|mget-cold-hor|mixed-rw|all> \
                     --seed <n> --seconds <s> --trace <0|1> [--quick]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        quick: false,
    };
    let (mut have_seed, mut have_secs) = (false, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            args.quick = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => (args.seed, have_seed) = (value.parse().map_err(|_| bad())?, true),
            "--seconds" => (args.seconds, have_secs) = (value.parse().map_err(|_| bad())?, true),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() || !have_seed || !have_secs {
        return Err("--workload, --seed and --seconds are required".into());
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!(
            "--seconds must be in (0, 600], got {}",
            args.seconds
        ));
    }
    Ok(args)
}

/// One named metric with its unit.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// What one workload run produced.
struct Outcome {
    correct: bool,
    /// Wrong outputs seen (any makes `correct` false).
    wrong: u64,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn result_json(o: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics_json(&o.metrics)
    )
}

/// Resident set size of this process in bytes.
fn rss_bytes() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<usize>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// The checkout's git revision, read from `.git` when there is one.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let rev = match head.trim().strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head,
    };
    match rev.trim() {
        "" => "unknown".into(),
        rev => rev.into(),
    }
}

/// Nearest-rank percentile of `sorted` (ascending).
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return u64::MAX;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Open-loop latency, per window of MIN_OPEN_SAMPLES consecutive
/// scheduled requests and then the median over windows: the host steals
/// its vCPUs for milliseconds about 1 % of the time, so a p99 pooled over
/// the whole phase measures how many steals it happened to catch. The
/// generator's lateness is pooled: the attempt is valid only when 99 % of
/// all its sends left within LATE_LIMIT_US of their due time.
#[derive(Default)]
struct OpenStats {
    windows: usize,
    p50: f64,
    p99: f64,
    p99_min: f64,
    p99_max: f64,
    late_p99: f64,
    late_windows: usize,
    valid: bool,
}

impl OpenStats {
    fn of(lat_ns: &[u64], late_ns: &[u64]) -> Self {
        let us = |ns: u64| {
            if ns == u64::MAX {
                f64::INFINITY
            } else {
                ns as f64 / 1e3
            }
        };
        let n = lat_ns.len();
        let windows = (n / MIN_OPEN_SAMPLES).max(1);
        let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
        let mut late_windows = 0;
        for w in 0..windows {
            let range = w * n / windows..(w + 1) * n / windows;
            let mut lat = lat_ns[range.clone()].to_vec();
            let mut late = late_ns[range].to_vec();
            lat.sort_unstable();
            late.sort_unstable();
            p50s.push(us(percentile(&lat, 0.50)));
            p99s.push(us(percentile(&lat, 0.99)));
            late_windows += usize::from(us(percentile(&late, 0.99)) > LATE_LIMIT_US);
        }
        let mut late = late_ns.to_vec();
        late.sort_unstable();
        let late_p99 = us(percentile(&late, 0.99));
        let p99 = median(p99s.clone());
        OpenStats {
            windows,
            p50: median(p50s),
            p99,
            p99_min: p99s.iter().copied().fold(f64::INFINITY, f64::min),
            p99_max: p99s.iter().copied().fold(0.0, f64::max),
            late_p99,
            late_windows,
            valid: n >= MIN_OPEN_SAMPLES && late_p99 <= LATE_LIMIT_US && p99.is_finite(),
        }
    }
}

fn run(spec: &Spec, args: &Args) -> Result<Outcome, String> {
    let began = Instant::now();
    let io = |what: &'static str| move |e: std::io::Error| format!("{what}: {e}");
    let llc = machine::llc_bytes();
    let items = spec.item_count(llc);
    let never = spec.never_count(items);
    let secs = args.seconds;
    // Measured phases: closed loop for half the run, then open loop for
    // the other half; when traced, the untraced and traced closed loops
    // share the first half.
    let open_phase = Duration::from_secs_f64(secs / 2.0);
    let phase = if args.trace {
        open_phase / 2
    } else {
        open_phase
    };
    let warm = Duration::from_secs_f64((secs / 10.0).clamp(0.2, 2.0));
    let n_open = (spec.open_rate * open_phase.as_secs_f64()) as usize;

    // Inputs: generated here, never timed.
    let book = KeyBook::new(items, never, args.seed);
    let ring = Ring::generate(spec, items, never, args.seed);
    let widths: Vec<String> = CpuFeatures::detect()
        .native_widths()
        .iter()
        .map(|w| w.bits().to_string())
        .collect();
    let stamp = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"quick\": {}, \
         \"nproc\": {}, \"llc_bytes\": {}, \"coherency_line_size\": {}, \"simd_widths\": [{}], \
         \"git_rev\": \"{}\", \"index\": \"{}\", \"items\": {}, \"never_written_keys\": {}, \
         \"key_bytes\": {}, \"value_bytes\": {}, \"ring_requests\": {}, \"ring_bytes\": {}, \
         \"key_book_bytes\": {}, \"window\": {}, \"connections\": 2, \"open_rate\": {}, \
         \"open_requests\": {}}}",
        spec.name,
        args.seed,
        secs,
        args.trace,
        args.quick,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        llc,
        machine::coherency_line_size(),
        widths.join(", "),
        git_rev(),
        spec.index,
        items,
        never,
        KEY_LEN,
        VALUE_LEN,
        ring.len(),
        ring.heap_bytes(),
        book.heap_bytes(),
        spec.window,
        spec.open_rate,
        n_open,
    );
    println!("stamp {stamp}");
    let traffic = Traffic::new(book, ring, spec.read_only());
    let mut bufs = OpenBufs::new(&traffic, n_open);

    // Set-up: empty store → daemon → wire preload, repeated; the last
    // server stays up for the measurement.
    let mut setup_s: Vec<f64> = Vec::new();
    let mut mem_per_item = 0.0;
    let mut refused = 0;
    let mut server = loop {
        let rss0 = rss_bytes();
        let t0 = Instant::now();
        let store = new_store(spec, items);
        let mut srv = Server::start(store).map_err(io("start kvsd"))?;
        refused += preload(&mut srv.conns, &traffic.book, items).map_err(io("preload"))?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if setup_s.len() == 1 {
            mem_per_item = rss_bytes().saturating_sub(rss0) as f64 / srv.store.len().max(1) as f64;
        }
        let n = setup_s.len();
        let spent: f64 = setup_s.iter().sum();
        if args.quick
            || args.trace
            || n >= MAX_SETUPS
            || (n >= MIN_SETUPS && spent >= SETUP_BUDGET_S)
        {
            break srv;
        }
        srv.stop();
    };
    let live = server.store.len();
    println!(
        "setup: {} runs, median {:.3} s (min {:.3}, max {:.3}), {} live items, \
         {:.1} B/item RSS growth, {} refused",
        setup_s.len(),
        median(setup_s.clone()),
        setup_s.iter().copied().fold(f64::INFINITY, f64::min),
        setup_s.iter().copied().fold(0.0, f64::max),
        live,
        mem_per_item,
        refused
    );

    let mut all = Tally::default();
    let window = spec.window;
    let warmup =
        closed_loop(&mut server.conns, &traffic, warm, window, None).map_err(io("warm-up"))?;
    all.add(&warmup.tally);

    let stats = server.kvsd.stats();
    let busy0 = stats.busy_ns.load(Ordering::Relaxed);
    let closed = server
        .closed_phase(&traffic, phase, window, None)
        .map_err(io("closed loop"))?;
    let busy_ns = stats.busy_ns.load(Ordering::Relaxed) - busy0;
    all.add(&closed.tally);
    let wall = closed.wall.as_secs_f64();
    let (ops_per_s, keys_per_s) = closed.rates();
    println!(
        "closed loop: {} requests, {} keys in {:.3} s; per-window median {:.0} req/s, {:.0} keys/s",
        closed.tally.requests, closed.tally.mget_keys, wall, ops_per_s, keys_per_s
    );

    let mut traced = None;
    let epoch = Instant::now();
    if args.trace {
        let t = server
            .closed_phase(&traffic, phase, window, Some((epoch, SPAN_CAP)))
            .map_err(io("traced closed loop"))?;
        all.add(&t.tally);
        traced = Some(t);
    }

    // An attempt whose generator fell behind measured the generator: it
    // is reported as invalid and the phase is run again until
    // OPEN_RETRY_UNTIL_S; the run is invalid if no attempt was valid.
    let mut open_missing = 0;
    let mut lat = OpenStats::default();
    for attempt in 1.. {
        let open = open_loop(&mut server.conns, &traffic, spec.open_rate, &mut bufs)
            .map_err(io("open loop"))?;
        all.add(&open.tally);
        open_missing += open.lat_ns.len() as u64 - open.tally.requests;
        lat = OpenStats::of(&open.lat_ns, &open.late_ns);
        println!(
            "open loop attempt {attempt}: {} req/s offered, {} samples in {} windows, \
             median p50 {:.1} us, median p99 {:.1} us (window p99 {:.0}..{:.0} us), \
             generator late p99 {:.1} us (limit {} us), {} of the windows late ({})",
            spec.open_rate,
            open.lat_ns.len(),
            lat.windows,
            lat.p50,
            lat.p99,
            lat.p99_min,
            lat.p99_max,
            lat.late_p99,
            LATE_LIMIT_US,
            lat.late_windows,
            if lat.valid { "valid" } else { "INVALID" }
        );
        if lat.valid || began.elapsed().as_secs_f64() >= OPEN_RETRY_UNTIL_S {
            break;
        }
    }
    let (p50, p99, late_p99, open_valid) = (lat.p50, lat.p99, lat.late_p99, lat.valid);

    let mut metrics = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        })
    };
    let mut spans = SpanLog::new(Instant::now(), 0);
    if let Some(t) = traced {
        let traced_ops = t.rates().0;
        let mut log = SpanLog::new(epoch, usize::MAX);
        let r = layers::replay(
            spec,
            &mut server,
            &traffic,
            items,
            spec.replay,
            &mut log,
            &mut all,
        )
        .map_err(io("layer replay"))?;
        let totals = server.store.totals();
        put("index.hash_ns", r.hash_ns, "ns/key");
        put("index.hit_ns", r.hit_ns, "ns/key");
        put("index.miss_ns", r.miss_ns, "ns/key");
        put("index.insert_ns", r.insert_ns, "ns/key");
        put("store.mget_ns", r.mget_ns, "ns/key");
        put("store.self_ns", r.store_self_ns, "ns/key");
        put("store.pre_ns", r.pre_ns, "ns/key");
        put("store.lookup_ns", r.lookup_ns, "ns/key");
        put("store.post_ns", r.post_ns, "ns/key");
        put("store.set_multi_ns", r.set_multi_ns, "ns/req");
        put("store.set_ns", r.set_ns, "ns/req");
        put("store.delete_ns", r.delete_ns, "ns/req");
        put("store.hit_ratio", r.hit_ratio, "ratio");
        put(
            "store.evictions_per_set",
            totals.evictions as f64 / totals.sets.max(1) as f64,
            "ratio",
        );
        put("protocol.encode_ns", r.encode_ns, "ns/req");
        put("protocol.decode_ns", r.decode_ns, "ns/req");
        put("protocol.wire_bytes_per_key", r.wire_bytes_per_key, "B/key");
        let per_req = busy_ns as f64 / closed.tally.requests.max(1) as f64;
        put("kvsd.busy_ns", per_req, "ns/req");
        // Busy time over the wall time of the two handler threads.
        put(
            "kvsd.busy_frac",
            busy_ns as f64 / (wall * 1e9 * 2.0),
            "ratio",
        );
        put(
            "kvsd.shed",
            stats.shed.load(Ordering::Relaxed) as f64,
            "count",
        );
        put("net.rtt_ns", r.tcp_ns - r.busy_ns, "ns/req");
        put("net.recv_wait_ns", r.recv_wait_ns, "ns/req");
        put("tcp.request_ns", r.tcp_ns, "ns/req");
        let share = |x: f64| {
            if r.mget_tcp_ns > 0.0 {
                x / r.mget_tcp_ns
            } else {
                0.0
            }
        };
        put("tcp.index_share", share(r.mget_index_ns), "ratio");
        put(
            "tcp.store_self_share",
            share(r.mget_store_ns - r.mget_index_ns),
            "ratio",
        );
        put(
            "tcp.above_store_share",
            share(r.mget_tcp_ns - r.mget_store_ns),
            "ratio",
        );
        put("loadgen.late_p99_us", late_p99, "us");
        put("trace.overhead_frac", 1.0 - traced_ops / ops_per_s, "ratio");
        println!(
            "traced closed loop: {:.0} req/s vs {:.0} untraced",
            traced_ops, ops_per_s
        );
        println!(
            "per-request self time on the serial TCP path ({} requests):",
            spec.replay
        );
        let mut sum = 0.0;
        for (layer, ns) in &r.table {
            println!("  {layer:<36} {ns:>12.0} ns");
            sum += ns;
        }
        println!("  {:<36} {:>12.0} ns", "sum of layer self times", sum);
        println!("  {:<36} {:>12.0} ns", "traced tcp.request total", r.tcp_ns);
        println!(
            "Multi-Get share of a TCP request: index {:.1} %, store self {:.1} %, above the store {:.1} %",
            100.0 * share(r.mget_index_ns),
            100.0 * share(r.mget_store_ns - r.mget_index_ns),
            100.0 * share(r.mget_tcp_ns - r.mget_store_ns)
        );
        spans = SpanLog::new(epoch, usize::MAX);
        spans.extend(t.spans);
        spans.extend(log);
    } else {
        put("keys_per_s", keys_per_s, "keys/s");
        put("ops_per_s", ops_per_s, "req/s");
        put("p50_us", p50, "us");
        put("setup_s", median(setup_s), "s");
        put("mem_bytes_per_item", mem_per_item, "B");
    }
    server.stop();

    let attempted = all.requests + open_missing;
    let failed = all.failed + refused;
    if let Some(w) = &all.first_wrong {
        println!("WRONG OUTPUT: {} wrong, first: {w}", all.wrong);
    }
    if failed > 0 {
        println!("FAILED REQUESTS: {failed} of {attempted} refused, failed or unanswered");
    }
    if !open_valid {
        println!("INVALID: no open-loop attempt kept to its schedule");
    }
    for m in &metrics {
        println!("metric {:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
    if !args.trace {
        // Printed with the gated metrics but kept out of the result: p99 on
        // this class of host follows the hypervisor's vCPU steals (see
        // README). fail_frac is gated by the exit code instead: any failed
        // request fails the run.
        println!("metric {:<28} {:>16.4} us (not gated)", "p99_us", p99);
        println!(
            "metric {:<28} {:>16.6} ratio ({failed} failed of {attempted} attempted; must be 0)",
            "fail_frac",
            failed as f64 / attempted.max(1) as f64
        );
    }
    let outcome = Outcome {
        correct: all.wrong == 0 && failed == 0 && open_valid,
        wrong: all.wrong,
        attempted: attempted.max(1),
        failed,
        metrics,
    };
    write_record(spec, args, &stamp, &outcome, &spans);
    Ok(outcome)
}

/// Write the run record (stamp + result) and, when traced, the spans.
fn write_record(spec: &Spec, args: &Args, stamp: &str, o: &Outcome, spans: &SpanLog) {
    let stem = format!(
        "{OUT_DIR}/{}-seed{}-trace{}",
        spec.name,
        args.seed,
        u8::from(args.trace)
    );
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(OUT_DIR)?;
        let mut f = std::io::BufWriter::new(std::fs::File::create(format!("{stem}.json"))?);
        writeln!(f, "{{\"stamp\": {stamp}, \"result\": {}}}", result_json(o))?;
        f.flush()?;
        if args.trace {
            let mut f =
                std::io::BufWriter::new(std::fs::File::create(format!("{stem}.spans.jsonl"))?);
            spans.write_jsonl(&mut f)?;
            f.flush()?;
        }
        Ok(())
    };
    if let Err(e) = write() {
        eprintln!("warning: could not write {stem}: {e}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let specs: Vec<Spec> = workload::specs()
        .into_iter()
        .filter(|s| args.workload == "all" || s.name == args.workload)
        .map(|s| if args.quick { workload::quick(s) } else { s })
        .collect();
    if specs.is_empty() {
        eprintln!("error: unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    }
    let mut outcomes = Vec::new();
    for spec in &specs {
        println!("# workload {}", spec.name);
        match run(spec, &args) {
            Ok(o) => outcomes.push((spec.name, o)),
            Err(e) => {
                eprintln!("error: {}: {e}", spec.name);
                return ExitCode::FAILURE;
            }
        }
    }
    let result = if let [(_, o)] = &outcomes[..] {
        result_json(o)
    } else {
        for (name, o) in &outcomes {
            println!("{name} {}", result_json(o));
        }
        let metrics = outcomes
            .iter()
            .flat_map(|(name, o)| {
                o.metrics.iter().map(move |m| Metric {
                    name: format!("{name}.{}", m.name),
                    value: m.value,
                    unit: m.unit,
                })
            })
            .collect();
        result_json(&Outcome {
            correct: outcomes.iter().all(|(_, o)| o.correct),
            wrong: outcomes.iter().map(|(_, o)| o.wrong).sum(),
            attempted: outcomes.iter().map(|(_, o)| o.attempted).sum(),
            failed: outcomes.iter().map(|(_, o)| o.failed).sum(),
            metrics,
        })
    };
    println!("{result}");
    let ok = outcomes.iter().all(|(_, o)| o.correct);
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{encode_value, NEVER};

    /// The tests below each run a daemon and load it; one at a time.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn quick_spec(name: &str) -> Spec {
        workload::specs()
            .into_iter()
            .find(|s| s.name == name)
            .map(workload::quick)
            .expect("known workload")
    }

    /// A preloaded quick-size server for `name` and its traffic.
    fn serve(name: &str, seed: u64) -> (Spec, Traffic, Server, usize) {
        let spec = quick_spec(name);
        let items = spec.item_count(machine::llc_bytes());
        let never = spec.never_count(items);
        let traffic = Traffic::new(
            KeyBook::new(items, never, seed),
            Ring::generate(&spec, items, never, seed),
            spec.read_only(),
        );
        let mut server = Server::start(new_store(&spec, items)).expect("start kvsd");
        let refused = preload(&mut server.conns, &traffic.book, items).expect("preload");
        assert_eq!(refused, 0);
        (spec, traffic, server, items)
    }

    fn drive(traffic: &Traffic, server: &mut Server) -> Tally {
        closed_loop(
            &mut server.conns,
            traffic,
            Duration::from_millis(300),
            4,
            None,
        )
        .expect("closed loop")
        .tally
    }

    #[test]
    fn clean_store_passes_every_check() {
        let _serial = serial();
        let (_, traffic, mut server, _) = serve("mget-cold", 1);
        let t = drive(&traffic, &mut server);
        assert_eq!((t.wrong, t.failed), (0, 0), "{:?}", t.first_wrong);
        assert!(
            t.found > 0 && t.found < t.mget_keys,
            "hits and misses both expected"
        );
        server.stop();
    }

    #[test]
    fn corrupted_value_is_caught() {
        let _serial = serial();
        let (_, traffic, mut server, items) = serve("mget-cold", 2);
        for id in 0..items as u32 {
            let mut v = encode_value(id, 0);
            v[9] ^= 0x40;
            server.store.set(traffic.book.bytes(id), &v).expect("set");
        }
        let t = drive(&traffic, &mut server);
        assert!(t.wrong > 0);
        assert!(
            t.first_wrong.as_deref().unwrap_or("").contains("seal"),
            "{:?}",
            t.first_wrong
        );
        server.stop();
    }

    #[test]
    fn wrong_key_value_is_caught() {
        let _serial = serial();
        let (_, traffic, mut server, items) = serve("mget-cold", 3);
        for id in 0..items as u32 {
            let v = encode_value(id ^ 1, 0);
            server.store.set(traffic.book.bytes(id), &v).expect("set");
        }
        let t = drive(&traffic, &mut server);
        assert!(t.wrong > 0);
        let first = t.first_wrong.unwrap_or_default();
        assert!(first.contains("another key"), "{first}");
        server.stop();
    }

    #[test]
    fn never_written_hit_and_written_miss_are_caught() {
        let _serial = serial();
        let (_, traffic, mut server, items) = serve("mget-cold", 4);
        let never = traffic.book.never() as u32;
        for id in 0..never {
            let v = encode_value(id | NEVER, 0);
            server
                .store
                .set(traffic.book.bytes(id | NEVER), &v)
                .expect("set");
        }
        let t = drive(&traffic, &mut server);
        assert!(t
            .first_wrong
            .unwrap_or_default()
            .contains("never-written key hit"));
        for id in (0..items as u32).chain((0..never).map(|i| i | NEVER)) {
            server.store.delete(traffic.book.bytes(id));
        }
        let t = drive(&traffic, &mut server);
        assert!(t
            .first_wrong
            .unwrap_or_default()
            .contains("written key missed"));
        server.stop();
    }

    #[test]
    fn error_reply_is_a_failed_request_not_completed_work() {
        let spec = quick_spec("mget-cold");
        let items = spec.item_count(machine::llc_bytes());
        let never = spec.never_count(items);
        let traffic = Traffic::new(
            KeyBook::new(items, never, 8),
            Ring::generate(&spec, items, never, 8),
            spec.read_only(),
        );
        let mut t = Tally::default();
        let reply = simdht_kvs::protocol::Response::Error {
            id: 0,
            code: simdht_kvs::protocol::ErrorCode::ServerBusy,
        };
        assert!(!traffic.check(0, &reply, &mut t));
        assert_eq!((t.requests, t.failed, t.mget_keys), (1, 1, 0));
    }

    #[test]
    fn open_loop_run_with_a_late_generator_is_invalid() {
        let n = 10 * MIN_OPEN_SAMPLES;
        let lat = vec![50_000u64; n];
        let mut late = vec![20_000u64; n];
        assert!(OpenStats::of(&lat, &late).valid);
        // 2 % of sends over 1 ms late, all in one window: the per-window
        // median would hide it, the pooled p99 does not.
        for l in &mut late[..n / 50] {
            *l = 5_000_000;
        }
        let s = OpenStats::of(&lat, &late);
        assert!(!s.valid);
        assert_eq!(s.late_windows, 1);
    }

    #[test]
    fn mixed_writes_keep_values_sealed() {
        let _serial = serial();
        let (_, traffic, mut server, _) = serve("mixed-rw", 5);
        let t = drive(&traffic, &mut server);
        assert_eq!((t.wrong, t.failed), (0, 0), "{:?}", t.first_wrong);
        server.stop();
    }

    #[test]
    fn layer_self_times_account_for_the_tcp_total() {
        let _serial = serial();
        let (spec, traffic, mut server, items) = serve("mget-cold", 6);
        let mut log = SpanLog::new(Instant::now(), usize::MAX);
        let mut tally = Tally::default();
        let r = layers::replay(
            &spec,
            &mut server,
            &traffic,
            items,
            300,
            &mut log,
            &mut tally,
        )
        .expect("replay");
        assert_eq!(tally.wrong, 0, "{:?}", tally.first_wrong);
        let sum: f64 = r.table.iter().map(|(_, ns)| ns).sum();
        assert!(r.tcp_ns > 0.0);
        assert!(
            (sum - r.tcp_ns).abs() <= 0.3 * r.tcp_ns,
            "layer self times {sum} ns vs traced total {} ns",
            r.tcp_ns
        );
        assert!(r.mget_index_ns > 0.0 && r.mget_store_ns > r.mget_index_ns);
        server.stop();
    }

    #[test]
    fn quick_mode_runs_every_workload_end_to_end() {
        let _serial = serial();
        for trace in [false, true] {
            for spec in workload::specs().into_iter().map(workload::quick) {
                let args = Args {
                    workload: spec.name.into(),
                    seed: 7,
                    seconds: 1.0,
                    trace,
                    quick: true,
                };
                let o = run(&spec, &args).expect("run");
                // Open-loop validity depends on what else the host runs;
                // the outputs must be right regardless.
                assert_eq!((o.wrong, o.failed), (0, 0), "{} trace={trace}", spec.name);
                assert!(o.metrics.iter().all(|m| m.value.is_finite()));
            }
        }
    }
}
