//! `qn-perfbench`: the repository's benchmark. One process runs one
//! workload for a fixed time, checks every output against the offline
//! codec, and prints every metric by name, unit and sample count; the
//! last stdout line is the JSON result record.
//!
//! ```text
//! qn-perfbench --workload <spectral-small|zoo-mixed|offline-large>
//!              --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the same
//! workload with benchmark-side spans plus a one-at-a-time layer walk and
//! reports the per-layer metrics. See `METRICS.md`.

mod host;
mod layers;
mod loadgen;
mod spans;
mod stats;
mod workloads;

use host::{cpu_model, nproc, peak_rss_mb};
use layers::LayerWalk;
use loadgen::{Outcome, RungRun};
use spans::SpanLog;
use stats::{cleanest_half, median, percentile, slo_rung, sub_seed, Rng, RungVerdict};
use std::fmt::Write as _;
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{tiles_of, Pool, Workload};

/// Set-ups timed before the measurement starts, and again at the start
/// of every round; `setup_s` is the median of them all. A set-up takes a
/// few ms, and the host's speed drifts over seconds, so set-ups spread
/// over the whole run give a median that one slow spell cannot move.
const SETUP_REPS: usize = 7;
/// Rounds a run's measurement is split into. Each round visits every
/// rung (or phase) once; figures come from the half of the rounds the
/// hypervisor stole least CPU time from (see `stats::cleanest_half`).
const ROUNDS: usize = 5;
/// Rounds of the offline workload: its phases are short, and its
/// round-to-round rates vary most, so it takes more, shorter rounds.
const OFFLINE_ROUNDS: usize = 10;
/// How long a rung waits for replies after its last arrival.
const DRAIN_CAP: Duration = Duration::from_secs(3);
/// A percentile that falls on a failed or shed request has no latency;
/// it is printed as this many ms (far beyond every limit).
const MISS_MS: f64 = 1e6;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let workload = value("--workload").ok_or("--workload is required")?;
    let workload = Workload::parse(workload).ok_or_else(|| {
        format!("unknown workload {workload:?} (spectral-small, zoo-mixed, offline-large)")
    })?;
    let seed = value("--seed")
        .unwrap_or("1")
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")
        .unwrap_or("10")
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// Everything a run reports.
#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    wrong: u64,
    notes: Vec<String>,
}

fn finite_ms(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        MISS_MS
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", "..")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The run-metadata record: host, revision, toolchain, seed, ladder,
/// limits and the full server configuration.
fn metadata(args: &Args) -> String {
    let config = format!("{:?}", workloads::server_config());
    format!(
        "{{\"meta\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"cpu_model\":{},\"git_rev\":{},\"rustc\":{},\"rates_rps\":{:?},\"p99_limit_ms\":{},\"generator\":{{\"threads\":2,\"connections\":{}}},\"server_config\":{}}}}}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        json_str(&cpu_model()),
        json_str(&command_line("git", &["rev-parse", "HEAD"])),
        json_str(&command_line("rustc", &["-V"])),
        args.workload.rates(),
        args.workload.limit_ms(),
        connections(),
        json_str(&config),
    )
}

/// Connections the generator opens: at most `nproc`, and two are
/// enough to pipeline any rate the ladder offers.
fn connections() -> usize {
    nproc().clamp(1, 2)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qn-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload {
        Workload::OfflineLarge => run_offline(&args),
        _ => run_serving(&args, args.workload.rates()),
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("qn-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for note in &report.notes {
        println!("# {note}");
    }
    for m in &report.metrics {
        println!(
            "metric {:<32} {:>16.6} {:<8} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!("{}", metadata(&args));
    let correct = report.wrong == 0;
    let mut line = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        report.attempted.max(1),
        report.failed
    );
    for (i, m) in report.metrics.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        let _ = write!(
            line,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name,
            if m.value.is_finite() { m.value } else { 0.0 },
            m.unit
        );
    }
    line.push_str("}}");
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "qn-perfbench: {} outputs differ from the offline reference",
            report.wrong
        );
        ExitCode::from(1)
    }
}

/// Write the span log beside the run, under `.bench_out/`.
fn write_spans(args: &Args, log: &SpanLog, report: &mut Report) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, log.to_jsonl())) {
        Ok(()) => report.notes.push(format!(
            "{} spans written to {}",
            log.spans.len(),
            path.display()
        )),
        Err(e) => report.notes.push(format!("spans not written: {e}")),
    }
}

// ---------------------------------------------------------------------
// Closed-loop codec calls (offline workload, and the codec-only slice of
// the serving workloads).

/// Tally of closed-loop encode + decode round trips.
#[derive(Debug, Default)]
struct CodecTally {
    latencies_ms: Vec<f64>,
    /// Tiles per second of each encode and each decode call.
    encode_rates: Vec<f64>,
    decode_rates: Vec<f64>,
    ops: u64,
    mismatches: u64,
}

impl CodecTally {
    fn merge(&mut self, other: &CodecTally) {
        self.latencies_ms.extend_from_slice(&other.latencies_ms);
        self.encode_rates.extend_from_slice(&other.encode_rates);
        self.decode_rates.extend_from_slice(&other.decode_rates);
        self.ops += other.ops;
        self.mismatches += other.mismatches;
    }
}

/// Encode then decode pool images, one after another, until `until`
/// and at least `min_ops` times, starting at image `first`; every output
/// is checked against the reference. Spectral images fit their own
/// model, as the server does.
fn codec_loop(
    pool: &Pool,
    first: usize,
    until: Instant,
    min_ops: u64,
    mut log: Option<&mut SpanLog>,
) -> CodecTally {
    let mut tally = CodecTally::default();
    let mut k = first;
    while tally.ops < min_ops || Instant::now() < until {
        let i = k % pool.images.len();
        k += 1;
        let img = &pool.images[i];
        let t0 = Instant::now();
        let bytes = match &pool.codec {
            Some(c) => c.encode_image(img, &pool.opts),
            None => qn_codec::Codec::spectral_for_image(img, workloads::TILE, workloads::LATENT)
                .and_then(|c| c.encode_image(img, &pool.opts)),
        };
        let t1 = Instant::now();
        // Spans are recorded inside the timed window, so a traced loop
        // pays for its tracing.
        if let Some(log) = log.as_deref_mut() {
            log.record("codec.encode_image", tally.ops, None, t0, t1);
        }
        let out = bytes.as_ref().ok().map(|b| match &pool.codec {
            Some(c) => c.decode_bytes(b),
            None => qn_codec::decode_standalone(b),
        });
        if let Some(log) = log.as_deref_mut() {
            log.record("codec.decode_bytes", tally.ops, None, t1, Instant::now());
        }
        let t2 = Instant::now();
        let ok = matches!(&bytes, Ok(b) if *b == pool.containers[i])
            && matches!(&out, Some(Ok(img)) if img.pixels() == pool.decoded[i].pixels());
        let tiles = tiles_of(img) as f64;
        tally.mismatches += u64::from(!ok);
        tally.encode_rates.push(tiles / (t1 - t0).as_secs_f64());
        tally.decode_rates.push(tiles / (t2 - t1).as_secs_f64());
        tally.ops += 1;
        tally.latencies_ms.push((t2 - t0).as_secs_f64() * 1e3);
    }
    tally
}

/// The codec rate of a run: the upper quartile of its per-call rates
/// (the lower quartile of call times). Calls interrupted by the host
/// land in the slow tail and do not move it.
fn typical_rate(rates: &[f64]) -> f64 {
    stats::quantile(rates, 0.75)
}

/// `callers` threads running [`codec_loop`] at once, each inside
/// `threads` (the shared `nproc`-thread pool).
fn concurrent_codec_loop(
    pool: &Pool,
    threads: &rayon::ThreadPool,
    callers: usize,
    until: Instant,
) -> CodecTally {
    let mut tally = CodecTally::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..callers)
            .map(|c| s.spawn(move || threads.install(|| codec_loop(pool, c, until, 0, None))))
            .collect();
        for h in handles {
            tally.merge(&h.join().expect("codec caller panicked"));
        }
    });
    tally
}

fn build_pool(args: &Args) -> Pool {
    let single = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("1-thread pool");
    Pool::build(args.workload, args.seed, &single)
}

// ---------------------------------------------------------------------
// Offline workload.

fn run_offline(args: &Args) -> Result<Report, String> {
    let pool = build_pool(args);
    let n = nproc();
    let mut report = Report::default();
    let mut setups = Vec::with_capacity(SETUP_REPS * (OFFLINE_ROUNDS + 1));
    // One timed set-up: the model fit and the `nproc`-thread pool.
    let setup = |setups: &mut Vec<f64>| -> Result<rayon::ThreadPool, String> {
        let t = Instant::now();
        let codec = workloads::fit_shared(&pool.train);
        let built = rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .map_err(|e| format!("thread pool: {e}"))?;
        setups.push(t.elapsed().as_secs_f64());
        if Some(codec.model_id()) != pool.codec.as_ref().map(|c| c.model_id()) {
            return Err("model fit is not deterministic".into());
        }
        Ok(built)
    };
    let mut threads = setup(&mut setups)?;
    for _ in 1..SETUP_REPS {
        threads = setup(&mut setups)?;
    }
    let s = args.seconds;
    // Warm caches and lazy state: every image once, then a short spell
    // of the nominal loop.
    let until = Instant::now() + Duration::from_secs_f64(0.05 * s);
    let warm = threads.install(|| codec_loop(&pool, 0, until, pool.images.len() as u64, None));
    report.wrong += warm.mismatches;
    if args.trace {
        let ticks0 = host::cpu_ticks();
        let cache0 = qn_backend::table_cache_stats();
        let until = Instant::now() + Duration::from_secs_f64(0.3 * s);
        let plain = threads.install(|| codec_loop(&pool, 0, until, 0, None));
        let mut log = SpanLog::new();
        let until = Instant::now() + Duration::from_secs_f64(0.3 * s);
        let traced = threads.install(|| codec_loop(&pool, 0, until, 0, Some(&mut log)));
        let cache1 = qn_backend::table_cache_stats();
        let walk = layers::replay_offline(&pool, &threads, 2 * pool.images.len(), &mut log)?;
        let scaling = layers::rayon_scaling(&pool, n, Duration::from_secs_f64(0.2 * s));
        write_spans(args, &log, &mut report);
        report.attempted = plain.ops + traced.ops + walk.replayed as u64;
        report.wrong += plain.mismatches + traced.mismatches + walk.mismatches as u64;
        report.failed = report.wrong;
        let overhead = trace_overhead_pct(&plain.latencies_ms, &traced.latencies_ms);
        let hits = (cache1.hits - cache0.hits) as f64;
        let figures = RunFigures {
            nominal_p99: percentile(&plain.latencies_ms, 0, 0.99),
            table_lookups: hits + (cache1.misses - cache0.misses) as f64,
            table_hits: hits,
            scaling,
            overhead_pct: overhead,
            steal_share: host::cpu_ticks().steal_share_since(ticks0),
        };
        report.metrics = layer_metrics(&walk, &figures, &plain, None);
        return Ok(report);
    }
    // Nominal (one caller) and overload (`nproc` callers) phases
    // alternate over the rounds, so drift in the host hits both alike.
    // (tally, round trips per second, steal share) per round and phase.
    let mut nominal_rounds: Vec<(CodecTally, f64, f64)> = Vec::new();
    let mut overload_rounds: Vec<(CodecTally, f64, f64)> = Vec::new();
    for round in 0..OFFLINE_ROUNDS {
        for _ in 0..SETUP_REPS {
            setup(&mut setups)?;
        }
        let (t, ticks) = (Instant::now(), host::cpu_ticks());
        let until = t + Duration::from_secs_f64(0.6 * s / OFFLINE_ROUNDS as f64);
        let part = threads.install(|| codec_loop(&pool, round, until, 1, None));
        let rate = part.ops as f64 / t.elapsed().as_secs_f64();
        nominal_rounds.push((part, rate, host::cpu_ticks().steal_share_since(ticks)));
        let (t, ticks) = (Instant::now(), host::cpu_ticks());
        let until = t + Duration::from_secs_f64(0.4 * s / OFFLINE_ROUNDS as f64);
        let part = concurrent_codec_loop(&pool, &threads, n, until);
        let rate = (part.ops - part.mismatches) as f64 / t.elapsed().as_secs_f64();
        overload_rounds.push((part, rate, host::cpu_ticks().steal_share_since(ticks)));
    }
    report.notes.push(setup_note(&setups));
    for (part, _, _) in nominal_rounds.iter().chain(&overload_rounds) {
        report.attempted += part.ops;
        report.wrong += part.mismatches;
    }
    report.failed = report.wrong;
    let merge = |rounds: &[&(CodecTally, f64, f64)]| {
        let mut tally = CodecTally::default();
        for (part, _, _) in rounds {
            tally.merge(part);
        }
        let rates: Vec<f64> = rounds.iter().map(|r| r.1).collect();
        (tally, median(&rates))
    };
    let (nominal, nominal_rate) = merge(&clean(&nominal_rounds, |r| r.2));
    let (overload, overload_rate) = merge(&clean(&overload_rounds, |r| r.2));
    for (phase, rounds) in [("nominal", &nominal_rounds), ("overload", &overload_rounds)] {
        let each: Vec<String> = rounds
            .iter()
            .map(|(_, rate, steal)| format!("{rate:.2}/s @ {:.1}%", steal * 100.0))
            .collect();
        report.notes.push(format!(
            "{phase} rounds (rate @ steal): {}",
            each.join(", ")
        ));
    }
    let limit = args.workload.limit_ms();
    let p50 = percentile(&nominal.latencies_ms, 0, 0.5);
    let p99 = percentile(&nominal.latencies_ms, 0, 0.99);
    let slo_rate = if p99.value <= limit {
        nominal_rate
    } else {
        0.0
    };
    let op99 = percentile(&overload.latencies_ms, 0, 0.99);
    report.notes.push(format!(
        "nominal: 1 caller, {} round trips, p{} = {:.3} ms; overload: {n} callers, {} round trips",
        nominal.ops,
        p99.q * 100.0,
        p99.value,
        overload.ops
    ));
    let ok_ratio = 1.0 - report.failed as f64 / report.attempted.max(1) as f64;
    report.metrics = vec![
        metric("setup_s", median(&setups), "s", setups.len()),
        metric("nominal_p50_ms", p50.value, "ms", p50.samples),
        metric("slo_rate_rps", slo_rate, "1/s", p99.samples),
        metric(
            "overload_goodput_rps",
            overload_rate,
            "1/s",
            overload.ops as usize,
        ),
        metric("overload_p99_ms", op99.value, "ms", op99.samples),
        metric("ok_ratio", ok_ratio, "ratio", report.attempted as usize),
        metric("psnr_db", pool.psnr_db, "dB", pool.images.len()),
        metric("bpp", pool.bpp, "bit/px", pool.images.len()),
        metric("peak_rss_mb", peak_rss_mb(), "MiB", 1),
    ];
    Ok(report)
}

/// Every timed set-up of a run, in ms, in the order they ran.
fn setup_note(setups: &[f64]) -> String {
    let each: Vec<String> = setups.iter().map(|t| format!("{:.3}", t * 1e3)).collect();
    format!("set-ups (ms): {}", each.join(" "))
}

/// Relative change of the median latency with tracing on.
fn trace_overhead_pct(plain_ms: &[f64], traced_ms: &[f64]) -> f64 {
    let base = median(plain_ms);
    if base > 0.0 {
        (median(traced_ms) / base - 1.0) * 100.0
    } else {
        0.0
    }
}

// ---------------------------------------------------------------------
// Serving workloads.

/// Server-side counters read from the `STATS` RPC.
#[derive(Debug, Default, Clone, Copy)]
struct ServerCounts {
    flush_tiles_sum: u64,
    flushes: u64,
    deadline_flushes: u64,
}

/// The integer after `"key":` (or after `"key":{"count":` for a
/// histogram's count, `"sum":` following it for its sum).
fn stats_number(json: &str, key: &str, field: Option<&str>) -> u64 {
    let Some(at) = json.find(&format!("\"{key}\":")) else {
        return 0;
    };
    let mut rest = &json[at + key.len() + 3..];
    if let Some(field) = field {
        match rest.find(&format!("\"{field}\":")) {
            Some(f) => rest = &rest[f + field.len() + 3..],
            None => return 0,
        }
    }
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().unwrap_or(0)
}

fn server_counts(addr: std::net::SocketAddr) -> Result<ServerCounts, String> {
    let json = qn_serve::Client::connect(addr)
        .map_err(|e| format!("connect: {e}"))?
        .stats()
        .map_err(|e| format!("STATS: {e}"))?;
    let flushes = ["full", "deadline", "eager", "drain"]
        .iter()
        .map(|c| stats_number(&json, &format!("batch_flushes_total{{cause={c}}}"), None))
        .sum();
    Ok(ServerCounts {
        flush_tiles_sum: stats_number(&json, "batch_flush_tiles", Some("sum")),
        flushes,
        deadline_flushes: stats_number(&json, "batch_flushes_total{cause=deadline}", None),
    })
}

/// The generator's connections to the server under test.
struct Conns {
    addr: std::net::SocketAddr,
    streams: Vec<TcpStream>,
    /// Times a rung left replies owed and the connections were replaced.
    reconnects: usize,
}

impl Conns {
    fn open(addr: std::net::SocketAddr) -> Result<Conns, String> {
        Ok(Conns {
            addr,
            streams: connect_all(addr)?,
            reconnects: 0,
        })
    }
}

/// One rung: a seeded Poisson schedule at `rate` for `secs`, items from
/// `pick`, fired over `conns`. A rung that ends with replies still owed
/// (or a connection out of step) leaves its connections to the old
/// replies: the next rung starts on fresh ones.
fn rung(
    pool: &Pool,
    conns: &mut Conns,
    pick: &mut impl FnMut() -> usize,
    seed: u64,
    rate: f64,
    secs: f64,
    trace: bool,
) -> Result<RungRun, String> {
    let horizon_ns = (secs * 1e9) as u64;
    let arrivals: Vec<(u64, usize)> =
        stats::poisson_schedule(&mut Rng::new(seed), rate, horizon_ns)
            .into_iter()
            .map(|t| (t, pick()))
            .collect();
    let run = loadgen::run_rung(
        &conns.streams,
        &pool.target,
        &arrivals,
        horizon_ns,
        DRAIN_CAP,
        trace,
    );
    if !run.settled {
        conns.streams = connect_all(conns.addr)?;
        conns.reconnects += 1;
    }
    Ok(run)
}

/// The SLO view of a rung.
fn verdict(run: &RungRun, offered: f64) -> RungVerdict {
    let ok: Vec<f64> = ok_latencies(run);
    let misses = run.records.len() - ok.len();
    let late: Vec<f64> = run.records.iter().map(loadgen::Record::late_ms).collect();
    RungVerdict {
        offered_rps: offered,
        goodput_rps: ok.len() as f64 / run.elapsed_s(),
        p99_all_ms: percentile(&ok, misses, 0.99).value,
        drain_ms: run.drain_ms(),
        late_p99_ms: percentile(&late, 0, 0.99).value,
    }
}

fn ok_latencies(run: &RungRun) -> Vec<f64> {
    run.records
        .iter()
        .filter(|r| r.outcome == Outcome::Ok)
        .map(loadgen::Record::latency_ms)
        .collect()
}

fn connect_all(addr: std::net::SocketAddr) -> Result<Vec<TcpStream>, String> {
    (0..connections())
        .map(|_| {
            let s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
            s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
            Ok(s)
        })
        .collect()
}

/// Start a server `reps` times, each set-up timed into `setups` and
/// warmed with a different pool item, then shut down.
fn timed_setups(pool: &Pool, reps: usize, setups: &mut Vec<f64>) -> Result<(), String> {
    for _ in 0..reps {
        let (handle, took) = pool.setup_server(setups.len() % pool.ops.len())?;
        setups.push(took.as_secs_f64());
        handle.shutdown();
    }
    Ok(())
}

fn tally_rungs<'a>(runs: impl IntoIterator<Item = &'a RungRun>, report: &mut Report) -> (u64, u64) {
    let (mut sent, mut ok) = (0u64, 0u64);
    for run in runs {
        sent += run.records.len() as u64;
        ok += run.count(Outcome::Ok) as u64;
        report.wrong += run.count(Outcome::Wrong) as u64;
        report.failed += (run.count(Outcome::Wrong)
            + run.count(Outcome::Error)
            + run.count(Outcome::Missing)) as u64;
    }
    report.attempted += sent;
    (sent, ok)
}

/// Rung verdict over several rounds: the median of each figure.
fn combined_verdict(runs: &[&RungRun], offered: f64) -> RungVerdict {
    let each: Vec<RungVerdict> = runs.iter().map(|r| verdict(r, offered)).collect();
    let med = |f: fn(&RungVerdict) -> f64| median(&each.iter().map(f).collect::<Vec<_>>());
    RungVerdict {
        offered_rps: offered,
        goodput_rps: med(|v| v.goodput_rps),
        p99_all_ms: med(|v| v.p99_all_ms),
        drain_ms: med(|v| v.drain_ms),
        late_p99_ms: med(|v| v.late_p99_ms),
    }
}

/// One percentile over the requests of several rounds of a rung, pooled.
/// `latency` maps an `ok` request to its latency; with `all_sent` every
/// other request counts as a miss, otherwise only `ok` requests are
/// ranked.
fn round_percentile(
    runs: &[&RungRun],
    q: f64,
    all_sent: bool,
    latency: fn(&loadgen::Record) -> f64,
) -> stats::Pct {
    let (mut ok, mut misses) = (Vec::new(), 0);
    for r in runs.iter().flat_map(|run| &run.records) {
        if r.outcome == Outcome::Ok {
            ok.push(latency(r));
        } else if all_sent {
            misses += 1;
        }
    }
    percentile(&ok, misses, q)
}

/// The rounds of one rung (or phase) the hypervisor stole least from.
fn clean<T>(rounds: &[T], steal: impl Fn(&T) -> f64) -> Vec<&T> {
    let shares: Vec<f64> = rounds.iter().map(steal).collect();
    cleanest_half(&shares)
        .into_iter()
        .map(|i| &rounds[i])
        .collect()
}

fn run_serving(args: &Args, rates: &[f64]) -> Result<Report, String> {
    let pool = build_pool(args);
    let mut report = Report::default();
    // The server under test is the first set-up; more are timed (and
    // shut down again) before the measurement and between its rounds.
    let mut setups = Vec::new();
    let (server, took) = pool.setup_server(0)?;
    setups.push(took.as_secs_f64());
    if !args.trace {
        timed_setups(&pool, SETUP_REPS - 1, &mut setups)?;
    }
    let addr = server.addr();
    let mut conns = Conns::open(addr)?;
    let mut pick = pool.picker(args.seed);
    let s = args.seconds;
    let limit = args.workload.limit_ms();
    let warm = rung(
        &pool,
        &mut conns,
        &mut pick,
        sub_seed(args.seed, 99),
        rates[0],
        0.05 * s,
        false,
    )?;
    tally_rungs([&warm], &mut report);

    let rounds = if args.trace { 1 } else { ROUNDS };
    let share = if args.trace { 0.55 } else { 0.9 };
    // The nominal rung gets four time units per round, every other rung
    // one: its p99 needs the samples most.
    let unit = share * s / (rounds * (rates.len() + 3)) as f64;
    let slice = |r: usize| if r == 0 { 4.0 * unit } else { unit };
    let untraced = if args.trace {
        Some(rung(
            &pool,
            &mut conns,
            &mut pick,
            sub_seed(args.seed, 98),
            rates[0],
            slice(0),
            false,
        )?)
    } else {
        None
    };
    if let Some(run) = &untraced {
        tally_rungs([run], &mut report);
    }
    let counts0 = if args.trace {
        server_counts(addr)?
    } else {
        ServerCounts::default()
    };
    let cache0 = qn_backend::table_cache_stats();
    // ladder[rung][round]; each round walks the ladder upward.
    let mut ladder: Vec<Vec<RungRun>> = rates.iter().map(|_| Vec::new()).collect();
    for round in 0..rounds {
        if !args.trace {
            timed_setups(&pool, SETUP_REPS, &mut setups)?;
        }
        for (r, &rate) in rates.iter().enumerate() {
            let stream = 100 + (round * rates.len() + r) as u64;
            ladder[r].push(rung(
                &pool,
                &mut conns,
                &mut pick,
                sub_seed(args.seed, stream),
                rate,
                slice(r),
                args.trace,
            )?);
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    let cache1 = qn_backend::table_cache_stats();
    let (sent, ok) = tally_rungs(ladder.iter().flatten(), &mut report);
    let clean_ladder: Vec<Vec<&RungRun>> = ladder
        .iter()
        .map(|runs| clean(runs, |r| r.steal_share))
        .collect();
    let verdicts: Vec<RungVerdict> = clean_ladder
        .iter()
        .zip(rates)
        .map(|(runs, &o)| combined_verdict(runs, o))
        .collect();
    for ((v, runs), all) in verdicts.iter().zip(&clean_ladder).zip(&ladder) {
        let count = |o: Outcome| runs.iter().map(|r| r.count(o)).sum::<usize>();
        let steal: Vec<String> = all
            .iter()
            .map(|r| format!("{:.1}", r.steal_share * 100.0))
            .collect();
        report.notes.push(format!(
            "rung {:>7.1} rps, {} of {} rounds (steal % {}): sent {:>6} ok {:>6} busy {:>5} err {} | goodput {:>8.1} rps, p99(all) {:>9.3} ms, drain {:>8.3} ms, late p99 {:.3} ms{}{}",
            v.offered_rps,
            runs.len(),
            all.len(),
            steal.join("/"),
            runs.iter().map(|r| r.records.len()).sum::<usize>(),
            count(Outcome::Ok),
            count(Outcome::Busy),
            count(Outcome::Error) + count(Outcome::Missing) + count(Outcome::Wrong),
            v.goodput_rps,
            finite_ms(v.p99_all_ms),
            v.drain_ms,
            v.late_p99_ms,
            if stats::backlog_grew(v, limit) { " [backlog]" } else { "" },
            if stats::generator_behind(v, limit) { " [generator behind]" } else { "" },
        ));
    }

    report.notes.push(setup_note(&setups));
    report.notes.push(format!(
        "generator: {} connections, replaced {} times after a rung left replies owed",
        conns.streams.len(),
        conns.reconnects
    ));

    if args.trace {
        let runs: Vec<&RungRun> = ladder.iter().flatten().collect();
        let counts1 = server_counts(addr)?;
        let mut log = SpanLog::new();
        // The receiver recorded these while the rungs ran; here they
        // only move onto one time line, rung after rung.
        let mut base = 0u64;
        for run in &runs {
            let first = log.spans.len() as u64;
            log.spans.extend(run.spans.iter().map(|sp| spans::Span {
                request: first + sp.request,
                start_ns: base + sp.start_ns,
                end_ns: base + sp.end_ns,
                ..sp.clone()
            }));
            base += run.horizon_ns + DRAIN_CAP.as_nanos() as u64;
        }
        let samples = match args.workload {
            Workload::SpectralSmall => 200,
            _ => 100,
        };
        let walk = layers::replay_serving(&pool, addr, samples, args.seed, &mut log)?;
        report.notes.push(format!(
            "layer walk: {} of {} gate-table lookups hit",
            walk.table_hits, walk.table_lookups
        ));
        let scaling = layers::rayon_scaling(&pool, nproc(), Duration::from_secs_f64(0.1 * s));
        // The codec alone on this workload's images, on one core: the
        // default pool spawns threads per call, and on an otherwise idle
        // VM that cost is waking the second vCPU.
        let single = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .map_err(|e| format!("thread pool: {e}"))?;
        let until = Instant::now() + Duration::from_secs_f64(0.1 * s);
        let codec = single.install(|| codec_loop(&pool, 0, until, 1, None));
        report.attempted += codec.ops;
        report.wrong += codec.mismatches;
        report.failed += codec.mismatches;
        write_spans(args, &log, &mut report);
        report.attempted += walk.replayed as u64;
        report.wrong += walk.mismatches as u64;
        report.failed += walk.mismatches as u64;
        let plain = untraced.as_ref().map(ok_latencies).unwrap_or_default();
        let overhead = trace_overhead_pct(&plain, &ok_latencies(runs[0]));
        let hits = (cache1.hits - cache0.hits) as f64;
        let last = runs.last().expect("two or more rungs");
        let busy_ms: Vec<f64> = runs
            .iter()
            .flat_map(|r| &r.records)
            .filter(|r| r.outcome == Outcome::Busy)
            .map(|r| r.done_ns.saturating_sub(r.sent_ns) as f64 / 1e6)
            .collect();
        let late: Vec<f64> = runs
            .iter()
            .flat_map(|r| &r.records)
            .map(loadgen::Record::late_ms)
            .collect();
        let gen_cpu: u64 = runs.iter().map(|r| r.generator_cpu_ns).sum();
        let proc_cpu: u64 = runs.iter().map(|r| r.process_cpu_ns).sum();
        let flushes = counts1.flushes - counts0.flushes;
        let serve = ServeLayer {
            sent: sent as usize,
            admitted_ratio: last.count(Outcome::Ok) as f64 / last.records.len().max(1) as f64,
            busy_p50_ms: median(&busy_ms),
            failed_ratio: (sent - ok) as f64 / sent.max(1) as f64,
            batch_tiles_mean: (counts1.flush_tiles_sum - counts0.flush_tiles_sum) as f64
                / flushes.max(1) as f64,
            flush_deadline_ratio: (counts1.deadline_flushes - counts0.deadline_flushes) as f64
                / flushes.max(1) as f64,
            late_p99_ms: percentile(&late, 0, 0.99).value,
            cpu_share: gen_cpu as f64 / proc_cpu.max(1) as f64,
        };
        let steal: Vec<f64> = runs.iter().map(|r| r.steal_share).collect();
        let untraced: Vec<&RungRun> = untraced.iter().collect();
        let figures = RunFigures {
            nominal_p99: round_percentile(&untraced, 0.99, true, loadgen::Record::latency_ms),
            table_lookups: hits + (cache1.misses - cache0.misses) as f64,
            table_hits: hits,
            scaling,
            overhead_pct: overhead,
            steal_share: steal.iter().sum::<f64>() / steal.len() as f64,
        };
        report.metrics = layer_metrics(&walk, &figures, &codec, Some(&serve));
        server.shutdown();
        return Ok(report);
    }

    server.shutdown();

    // p50 over the nominal requests of every round that were scheduled
    // in the least-stolen half of the rung's steal windows: at a quarter
    // of saturation a request takes about a ms, and a vCPU the
    // hypervisor takes away for a few ms doubles it, so rounds are too
    // coarse a filter when bursts of steal fall into every round.
    let nominal_runs = &ladder[0];
    let keep = stats::in_clean_windows(
        &nominal_runs
            .iter()
            .map(|r| r.steal_windows.clone())
            .collect::<Vec<_>>(),
        &nominal_runs
            .iter()
            .map(|r| r.records.iter().map(|rec| rec.sched_ns).collect())
            .collect::<Vec<_>>(),
    );
    let (mut kept_ok, mut kept_misses) = (Vec::new(), 0);
    for (run, keep) in nominal_runs.iter().zip(&keep) {
        for (rec, _) in run.records.iter().zip(keep).filter(|(_, &k)| k) {
            if rec.outcome == Outcome::Ok {
                kept_ok.push(rec.latency_ms());
            } else {
                kept_misses += 1;
            }
        }
    }
    let p50 = percentile(&kept_ok, kept_misses, 0.5);
    report.notes.push(format!(
        "nominal p50 = {:.3} ms over {} requests in the least-stolen half of {} steal windows",
        finite_ms(p50.value),
        p50.samples,
        nominal_runs
            .iter()
            .map(|r| r.steal_windows.len())
            .sum::<usize>()
    ));
    let p99 = round_percentile(&clean_ladder[0], 0.99, true, loadgen::Record::latency_ms);
    let op99 = round_percentile(
        clean_ladder.last().expect("rungs"),
        0.99,
        false,
        loadgen::Record::admitted_ms,
    );
    let op99_sched = round_percentile(
        clean_ladder.last().expect("rungs"),
        0.99,
        false,
        loadgen::Record::latency_ms,
    );
    // `overload_p99_ms` is timed from each request's last byte reaching
    // the socket: at overload the server stops reading, the one sender
    // thread blocks on that connection's flow control and every later
    // arrival, on any connection, waits behind it, which measures the
    // generator rather than the server. The schedule-based figure, that
    // wait included, is printed beside it.
    report.notes.push(format!(
        "overload p99 of admitted requests: {:.3} ms from the last byte written, {:.3} ms from the schedule",
        finite_ms(op99.value),
        finite_ms(op99_sched.value)
    ));
    let clean_sent: usize = clean_ladder.iter().flatten().map(|r| r.records.len()).sum();
    let clean_ok: usize = clean_ladder
        .iter()
        .flatten()
        .map(|r| r.count(Outcome::Ok))
        .sum();
    let slo = slo_rung(&verdicts, limit);
    report.notes.push(format!(
        "slo rung: {} (p99 limit {limit} ms); nominal p{} = {:.3} ms over {} requests",
        slo.map_or("none".to_string(), |i| format!("{} rps", rates[i])),
        p99.q * 100.0,
        finite_ms(p99.value),
        p99.samples
    ));
    let sent_at = |i: usize| {
        clean_ladder[i]
            .iter()
            .map(|r| r.records.len())
            .sum::<usize>()
    };
    report.metrics = vec![
        metric("setup_s", median(&setups), "s", setups.len()),
        metric("nominal_p50_ms", finite_ms(p50.value), "ms", p50.samples),
        metric(
            "slo_rate_rps",
            slo.map_or(0.0, |i| verdicts[i].goodput_rps),
            "1/s",
            slo.map_or(0, sent_at),
        ),
        metric(
            "overload_goodput_rps",
            verdicts.last().expect("rungs").goodput_rps,
            "1/s",
            sent_at(rates.len() - 1),
        ),
        metric("overload_p99_ms", finite_ms(op99.value), "ms", op99.samples),
        metric(
            "ok_ratio",
            clean_ok as f64 / clean_sent.max(1) as f64,
            "ratio",
            clean_sent,
        ),
        metric("psnr_db", pool.psnr_db, "dB", pool.images.len()),
        metric("bpp", pool.bpp, "bit/px", pool.images.len()),
        metric("peak_rss_mb", peak_rss_mb(), "MiB", 1),
    ];
    Ok(report)
}

/// Serving-side per-layer figures of a traced run.
struct ServeLayer {
    /// Requests the traced ladder sent.
    sent: usize,
    admitted_ratio: f64,
    busy_p50_ms: f64,
    failed_ratio: f64,
    batch_tiles_mean: f64,
    flush_deadline_ratio: f64,
    late_p99_ms: f64,
    cpu_share: f64,
}

/// Whole-run figures of a traced run.
struct RunFigures {
    /// p99 of the untraced nominal rung (offline: of the untraced loop).
    nominal_p99: stats::Pct,
    table_lookups: f64,
    table_hits: f64,
    scaling: f64,
    overhead_pct: f64,
    steal_share: f64,
}

/// Every per-layer metric, in `BENCHMARK.json` order. Layers a workload
/// does not run report 0.
fn layer_metrics(
    walk: &LayerWalk,
    run: &RunFigures,
    codec: &CodecTally,
    serve: Option<&ServeLayer>,
) -> Vec<Metric> {
    let n = walk.replayed;
    let us = |name: &'static str, layer: &str| metric(name, walk.self_us(layer), "us", n);
    let s = |f: fn(&ServeLayer) -> f64| serve.map_or(0.0, f);
    let sent = serve.map_or(0, |v| v.sent);
    let lookups = run.table_lookups as usize;
    vec![
        metric(
            "e2e.nominal_p99_ms",
            finite_ms(run.nominal_p99.value),
            "ms",
            run.nominal_p99.samples,
        ),
        metric(
            "codec.encode_tiles_per_s",
            typical_rate(&codec.encode_rates),
            "1/s",
            codec.ops as usize,
        ),
        metric(
            "codec.decode_tiles_per_s",
            typical_rate(&codec.decode_rates),
            "1/s",
            codec.ops as usize,
        ),
        us("core.spectral_fit_us", "core.spectral_fit"),
        us("linalg.pca_us", "linalg.pca"),
        us("photonic.clements_us", "photonic.clements"),
        us("codec.prepare_us", "codec.prepare"),
        us("codec.complete_us", "codec.complete"),
        us("codec.parse_us", "codec.parse"),
        us("codec.stitch_us", "codec.stitch"),
        us("backend.mesh_us", "backend.mesh"),
        metric(
            "backend.mesh_tiles_per_s",
            walk.mesh_tiles as f64 * 1e9 / walk.mesh_ns.max(1) as f64,
            "1/s",
            walk.mesh_tiles as usize,
        ),
        metric(
            "backend.table_cache_hit_ratio",
            run.table_hits / run.table_lookups.max(1.0),
            "ratio",
            lookups,
        ),
        metric("rayon.scaling", run.scaling, "ratio", 3),
        us("serve.protocol_us", "serve.protocol"),
        us("serve.batcher_us", "serve.batcher"),
        metric(
            "serve.roundtrip_us",
            walk.total_us("serve.roundtrip"),
            "us",
            n,
        ),
        us("serve.unattributed_us", "serve.roundtrip"),
        metric(
            "serve.admitted_ratio",
            s(|v| v.admitted_ratio),
            "ratio",
            sent,
        ),
        metric("serve.busy_p50_ms", s(|v| v.busy_p50_ms), "ms", sent),
        metric("serve.failed_ratio", s(|v| v.failed_ratio), "ratio", sent),
        metric(
            "serve.batch_tiles_mean",
            s(|v| v.batch_tiles_mean),
            "count",
            sent,
        ),
        metric(
            "serve.flush_deadline_ratio",
            s(|v| v.flush_deadline_ratio),
            "ratio",
            sent,
        ),
        metric("loadgen.late_p99_ms", s(|v| v.late_p99_ms), "ms", sent),
        metric("loadgen.cpu_share", s(|v| v.cpu_share), "ratio", sent),
        metric("trace.overhead_pct", run.overhead_pct, "%", n),
        metric("host.steal_pct", run.steal_share * 100.0, "%", n),
    ]
}
