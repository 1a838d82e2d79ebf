//! The `ldcd` side: an in-process `ldc_daemon::serve`, the open-loop
//! load generator with exact percentiles, the closed-loop capacity loop, and
//! the service probe every traced run makes.
//!
//! The open loop is written on `Client::split` rather than reusing
//! `ldc_daemon::loadgen::run_ramp`: that ramp records latency in a log₂
//! histogram (too coarse for a 10% bound) and clocks each request from
//! its actual send, which hides the wait a generator stall imposes on
//! later requests. Here every request is timed from its *due* time, and
//! the generator's own lateness is reported next to the latencies.

use crate::layers::Layers;
use crate::report::{Metric, Outcome};
use crate::spans::Recorder;
use crate::stats::{fnv1a, fold_digests, load_metrics, peak_rss_mb, Samples};
use ldc_batch::jsonin::Value;
use ldc_batch::{Fleet, GraphCache, JobSpec};
use ldc_daemon::{serve, Client, Request, Response, ServerConfig, ServerHandle};
use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

/// Lateness beyond which the generator, not the daemon, limits a step.
const GENERATOR_LIMIT_MS: f64 = 1.0;

pub struct Daemon {
    handle: ServerHandle,
    pub socket: PathBuf,
}

impl Daemon {
    /// `ldcd` with its default configuration (one solve worker; see
    /// README.md, "Design choices").
    pub fn start(out_dir: &Path) -> Result<Daemon, String> {
        let socket = out_dir.join(format!("ldcd-{}.sock", std::process::id()));
        let handle = serve(ServerConfig::new(&socket))
            .map_err(|e| format!("serve {}: {e}", socket.display()))?;
        Ok(Daemon { handle, socket })
    }

    /// Drain and wait until every thread of the daemon has exited.
    pub fn stop(self) -> Result<(), String> {
        self.handle.drain();
        self.handle.join().map_err(|e| format!("daemon join: {e}"))
    }
}

fn connect(socket: &Path) -> Result<Client, String> {
    Client::connect(socket).map_err(|e| format!("connect {}: {e}", socket.display()))
}

fn solve_request(id: u64, job: &JobSpec) -> Request {
    Request::Solve {
        id,
        job: Box::new(job.clone()),
    }
}

/// Whether response `id` is in the seeded byte-equality sample (1 in 16).
fn sampled(seed: u64, id: u64) -> bool {
    fnv1a(&[seed.to_le_bytes(), id.to_le_bytes()].concat()) % 16 == 0
}

/// Digest of served rows in request-id order.
fn rows_digest(rows: &[(u64, String)]) -> u64 {
    let mut rows: Vec<&(u64, String)> = rows.iter().collect();
    rows.sort_by_key(|(id, _)| *id);
    fold_digests(
        rows.iter()
            .map(|(id, row)| fnv1a(format!("{id} {row}").as_bytes())),
    )
}

/// Answers that were not results: busy, typed errors, and no answer.
#[derive(Debug, Default, Clone, Copy)]
pub struct Failures {
    pub busy: u64,
    pub errors: u64,
    pub missing: u64,
}

impl Failures {
    pub fn total(&self) -> u64 {
        self.busy + self.errors + self.missing
    }
}

enum Answer {
    Ok(u64, Instant, Option<String>),
    Busy,
    Error,
}

fn classify(resp: Response, keep: &(dyn Fn(u64) -> bool + Sync)) -> Answer {
    match resp {
        Response::Result { id, row } => Answer::Ok(id, Instant::now(), keep(id).then_some(row)),
        Response::Busy { .. } => Answer::Busy,
        _ => Answer::Error,
    }
}

pub struct OpenLoop {
    /// Due time to answer, for result answers: (id, ms).
    pub latency_ms: Vec<(u64, f64)>,
    /// Send start minus due time (ms).
    pub late_ms: Samples,
    /// `Sender::send` wall (µs).
    pub send_us: Samples,
    pub failures: Failures,
    /// Sampled result rows, by request id.
    pub rows: Vec<(u64, String)>,
}

/// Offer `jobs` (ids `first_id..`) at a fixed `rate` on one pipelined
/// connection: this thread sends on schedule, a second one reads answers.
/// With a recorder, each request becomes a `daemon.request` span (due →
/// answer) with a `loadgen.send` child.
pub fn open_loop(
    socket: &Path,
    jobs: &[JobSpec],
    first_id: u64,
    rate: f64,
    keep: &(dyn Fn(u64) -> bool + Sync),
    rec: Option<&Recorder>,
) -> Result<OpenLoop, String> {
    let requests: Vec<Request> = jobs
        .iter()
        .enumerate()
        .map(|(k, j)| solve_request(first_id + k as u64, j))
        .collect();
    let (mut sender, mut receiver) = connect(socket)?
        .split()
        .map_err(|e| format!("split: {e}"))?;
    let interval = Duration::from_secs_f64(1.0 / rate);
    let mut sends: Vec<(Instant, Instant, Instant)> = Vec::with_capacity(requests.len());
    let mut send_errors = 0u64;
    let answers: Vec<Answer> = thread::scope(|scope| {
        // Reads until the daemon closes the connection.
        let reader = scope.spawn(move || {
            let mut got = Vec::new();
            while let Ok(Some(resp)) = receiver.recv() {
                got.push(classify(resp, keep));
            }
            got
        });
        let start = Instant::now() + Duration::from_millis(1);
        for (k, req) in requests.iter().enumerate() {
            let due = start + interval * k as u32;
            let now = Instant::now();
            if due > now {
                thread::sleep(due - now);
            }
            let t0 = Instant::now();
            if sender.send(req).is_err() {
                send_errors += 1;
            }
            sends.push((due, t0, Instant::now()));
        }
        sender.finish();
        reader.join().expect("answer reader panicked")
    });

    let mut out = OpenLoop {
        latency_ms: Vec::new(),
        late_ms: Samples::new(),
        send_us: Samples::new(),
        failures: Failures {
            errors: send_errors,
            ..Failures::default()
        },
        rows: Vec::new(),
    };
    for (due, t0, t1) in &sends {
        out.late_ms
            .push(t0.saturating_duration_since(*due).as_secs_f64() * 1e3);
        out.send_us.push((*t1 - *t0).as_secs_f64() * 1e6);
    }
    for a in answers {
        match a {
            Answer::Ok(id, at, row) => {
                let (due, t0, t1) = sends[(id - first_id) as usize];
                let ms = at.saturating_duration_since(due).as_secs_f64() * 1e3;
                out.latency_ms.push((id, ms));
                if let Some(rec) = rec {
                    let req = rec.record("daemon.request", None, id, rec.at(due), rec.at(at));
                    rec.record("loadgen.send", Some(req), id, rec.at(t0), rec.at(t1));
                }
                if let Some(row) = row {
                    out.rows.push((id, row));
                }
            }
            Answer::Busy => out.failures.busy += 1,
            Answer::Error => out.failures.errors += 1,
        }
    }
    let answered = out.latency_ms.len() as u64 + out.failures.busy + out.failures.errors;
    out.failures.missing = (requests.len() as u64).saturating_sub(answered);
    Ok(out)
}

pub struct ClosedLoop {
    pub failures: Failures,
    /// When each result answer arrived, in order.
    pub answered_at: Vec<Instant>,
    pub rows: Vec<(u64, String)>,
}

/// Keep `window` solves in flight on one connection for `seconds`,
/// cycling through `jobs`. `window` stays below the daemon's admission
/// window, so a healthy daemon never answers busy.
pub fn closed_loop(
    socket: &Path,
    jobs: &[JobSpec],
    first_id: u64,
    window: usize,
    seconds: f64,
    keep: &(dyn Fn(u64) -> bool + Sync),
) -> Result<ClosedLoop, String> {
    let mut client = connect(socket)?;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut sent = 0usize;
    let mut send_next = |client: &mut Client| {
        let req = solve_request(first_id + sent as u64, &jobs[sent % jobs.len()]);
        sent += 1;
        client.send(&req).map_err(|e| format!("closed loop: {e}"))
    };
    for _ in 0..window {
        send_next(&mut client)?;
    }
    let mut out = ClosedLoop {
        failures: Failures::default(),
        answered_at: Vec::new(),
        rows: Vec::new(),
    };
    let mut outstanding = window;
    while outstanding > 0 {
        let resp = client
            .recv()
            .map_err(|e| format!("closed loop: {e}"))?
            .ok_or("closed loop: the daemon hung up")?;
        match classify(resp, keep) {
            Answer::Ok(id, at, row) => {
                out.answered_at.push(at);
                if let Some(row) = row {
                    out.rows.push((id, row));
                }
            }
            Answer::Busy => out.failures.busy += 1,
            Answer::Error => out.failures.errors += 1,
        }
        if Instant::now() < deadline {
            send_next(&mut client)?;
        } else {
            outstanding -= 1;
        }
    }
    Ok(out)
}

/// Check sampled served rows byte for byte against `Fleet::run_one` for
/// the same (id, spec); returns the in-process `run_one` times (ms).
pub fn check_rows(
    rows: &[(u64, String)],
    job_of: impl Fn(u64) -> JobSpec,
    problems: &mut Vec<String>,
) -> Samples {
    let fleet = Fleet::new(1);
    let mut cache = GraphCache::new();
    let mut times = Samples::new();
    for (id, served) in rows {
        let job = job_of(*id);
        let graph = cache.resolve(&job.graph);
        let t = Instant::now();
        let local = fleet.run_one(*id as usize, &job, &graph, None);
        times.push(t.elapsed().as_secs_f64() * 1e3);
        if &local.row != served {
            problems.push(format!(
                "request {id}: served row differs from Fleet::run_one:\n  served {served}\n  local  {}",
                local.row
            ));
        }
    }
    times
}

/// `Client::ping` round trips on one connection, in µs, each a
/// `daemon.ping` span.
pub fn ping_rtt(socket: &Path, count: usize, rec: &Recorder) -> Result<Samples, String> {
    let mut client = connect(socket)?;
    let mut rtt = Samples::new();
    for i in 0..count {
        let open = rec.open();
        match client.ping() {
            Ok(Response::Pong) => {}
            other => return Err(format!("ping: unexpected answer {other:?}")),
        }
        rtt.push(rec.close(open, "daemon.ping", None, i as u64) as f64 / 1e3);
    }
    Ok(rtt)
}

/// The daemon's deterministic stats snapshot (`counters`, `gauges`, …).
pub fn stats(socket: &Path) -> Result<Value, String> {
    match connect(socket)?.stats() {
        Ok(Response::Stats { det }) => Value::parse(&det),
        other => Err(format!("stats: unexpected answer {other:?}")),
    }
}

/// The daemon and load-generator layer metrics: `jobs` served through a
/// fresh, warmed daemon at `rate` (open loop; the `keep` sample of rows
/// compared with `Fleet::run_one`), after a 500-ping closed loop. The
/// service overhead is the served p50 minus the in-process `run_one` p50
/// on the compared jobs. Also returns the digest of the kept rows.
pub fn service_probe(
    out_dir: &Path,
    jobs: &[JobSpec],
    rate: f64,
    keep: &(dyn Fn(u64) -> bool + Sync),
    rec: &Recorder,
    problems: &mut Vec<String>,
) -> Result<(Vec<Metric>, u64), String> {
    let daemon = start_warm(out_dir, jobs, 1)?;
    let result = (|| {
        let mut rtt = ping_rtt(&daemon.socket, 500, rec)?;
        let mut run = open_loop(&daemon.socket, jobs, 0, rate, keep, Some(rec))?;
        let mut served = Samples::new();
        for (_, ms) in &run.latency_ms {
            served.push(*ms);
        }
        if run.failures.total() > 0 {
            problems.push(format!("service probe: {:?}", run.failures));
        }
        let mut local = check_rows(&run.rows, |id| jobs[id as usize].clone(), problems);
        let det = stats(&daemon.socket)?;
        let stat = |section: &str, name: &str| {
            det.get(section)
                .and_then(|s| s.get(name))
                .and_then(Value::as_u64)
                .unwrap_or(0) as f64
        };
        let metrics = vec![
            Metric::new("daemon.ping_rtt_us", "us", rtt.median()),
            Metric::new(
                "daemon.service_overhead_ms",
                "ms",
                served.median() - local.median(),
            ),
            Metric::new(
                "daemon.admitted",
                "count",
                stat("counters", "daemon.admitted"),
            ),
            Metric::new("daemon.busy", "count", stat("counters", "daemon.busy")),
            Metric::new(
                "daemon.proto_errors",
                "count",
                stat("counters", "daemon.proto_errors"),
            ),
            Metric::new(
                "daemon.graph_cache_misses",
                "count",
                stat("gauges", "daemon.graph_cache_misses"),
            ),
            Metric::new("loadgen.late_ms_p99", "ms", run.late_ms.pct(99.0)),
            Metric::new(
                "loadgen.late_frac",
                "ratio",
                run.late_ms.frac_above(GENERATOR_LIMIT_MS),
            ),
            Metric::new("loadgen.send_us_p99", "us", run.send_us.pct(99.0)),
        ];
        Ok((metrics, rows_digest(&run.rows)))
    })();
    daemon.stop()?;
    result
}

/// Offered rate of the `daemon_mixed` open loop, requests/second.
pub const RATE: f64 = 200.0;
/// Solves in flight in the capacity loop.
const WINDOW: usize = 8;
/// Share of the run spent in the open loop; the rest measures capacity.
const OPEN_SHARE: f64 = 0.6;
/// Answers per capacity window.
const CAPACITY_WINDOW: usize = 256;
/// Warm-up solves per mix entry in `daemon_mixed`'s set-up: enough that
/// thread start-up jitter is not most of `setup_s`.
const WARM_ROUNDS: usize = 8;

/// Daemon start plus a warm-up pass: `rounds` solves of one job per
/// distinct graph, so every graph is built and cached before timing.
fn start_warm(out_dir: &Path, jobs: &[JobSpec], rounds: usize) -> Result<Daemon, String> {
    let daemon = Daemon::start(out_dir)?;
    let mut client = connect(&daemon.socket)?;
    let mut seen = std::collections::BTreeSet::new();
    let distinct: Vec<&JobSpec> = jobs
        .iter()
        .filter(|j| seen.insert(j.graph.cache_key()))
        .collect();
    for k in 0..rounds * distinct.len() {
        match client.solve(k as u64, distinct[k % distinct.len()]) {
            Ok(Response::Result { .. }) => {}
            other => return Err(format!("warm-up solve {k}: {other:?}")),
        }
    }
    Ok(daemon)
}

/// `daemon_mixed`: an open loop at a fixed rate (latency from each
/// request's due time), then a closed loop at a fixed number in flight
/// (capacity), against one in-process daemon.
pub fn daemon_mixed(
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
    spans: &Path,
) -> Result<Outcome, String> {
    let mix = crate::inputs::daemon_mix(seed);
    let mut setup = Samples::new();
    let mut daemon = None;
    for _ in 0..crate::SETUP_REPS {
        if let Some(d) = daemon.take() {
            Daemon::stop(d)?;
        }
        let t = Instant::now();
        daemon = Some(start_warm(out_dir, &mix, WARM_ROUNDS)?);
        setup.push(t.elapsed().as_secs_f64());
    }
    let daemon = daemon.expect("at least one set-up");
    if trace {
        daemon.stop()?;
        return traced_daemon(seed, seconds, &mix, out_dir, spans);
    }
    let result = timed_daemon(seed, seconds, &mix, &daemon.socket, &|id| sampled(seed, id));
    daemon.stop()?;
    let mut out = result?;
    out.metrics.insert(
        0,
        Metric::new("setup_s", "s", setup.median()).with(setup.spread()),
    );
    out.metrics
        .insert(1, Metric::new("peak_rss_mb", "MB", peak_rss_mb()?));
    Ok(out)
}

fn timed_daemon(
    seed: u64,
    seconds: f64,
    mix: &[JobSpec],
    socket: &Path,
    keep: &(dyn Fn(u64) -> bool + Sync),
) -> Result<Outcome, String> {
    let open_n = (RATE * seconds * OPEN_SHARE) as usize;
    let requests = crate::inputs::daemon_requests(seed, mix, open_n);
    let mut open = open_loop(socket, &requests, 0, RATE, keep, None)?;
    let closed = closed_loop(
        socket,
        &requests,
        open_n as u64,
        WINDOW,
        seconds * (1.0 - OPEN_SHARE),
        keep,
    )?;
    let mut out = Outcome {
        attempted: open_n as u64 + closed.answered_at.len() as u64 + closed.failures.total(),
        failed: open.failures.total() + closed.failures.total(),
        ..Outcome::default()
    };
    let job_of = |id: u64| requests[(id as usize) % requests.len()].clone();
    check_rows(&open.rows, job_of, &mut out.problems);
    out.digest = rows_digest(&open.rows);
    check_rows(
        &closed.rows,
        |id| job_of(id - open_n as u64),
        &mut out.problems,
    );
    if open.failures.total() + closed.failures.total() > 0 {
        out.problems.push(format!(
            "failed requests: open loop {:?}, closed loop {:?}",
            open.failures, closed.failures
        ));
    }
    // Capacity: the closed loop's best rate over consecutive answers.
    let windows = closed.answered_at.chunks_exact(CAPACITY_WINDOW);
    let count = windows.len();
    let capacity = windows
        .map(|w| (CAPACITY_WINDOW - 1) as f64 / (w[CAPACITY_WINDOW - 1] - w[0]).as_secs_f64())
        .fold(0.0, f64::max);
    // Latency: p50 over every request; p95 per second of due times, then
    // the lower quartile of those (see README.md, "Fastest of
    // repetitions").
    let mut latency = Samples::new();
    let mut seconds_p95 = Samples::new();
    let per_second = RATE as usize;
    open.latency_ms.sort_by_key(|(id, _)| *id);
    for second in open.latency_ms.chunks_exact(per_second) {
        let mut s = Samples::new();
        for (_, ms) in second {
            s.push(*ms);
            latency.push(*ms);
        }
        seconds_p95.push(s.pct(95.0));
    }
    let late = open.late_ms.pct(99.0);
    let generator = if late > GENERATOR_LIMIT_MS {
        format!("generator-limited: late p99 {late:.3} ms")
    } else {
        format!("late p99 {late:.3} ms")
    };
    let open_loop = format!("open loop at {RATE} rps, from each request's due time; {generator}");
    out.metrics = load_metrics(
        (
            capacity,
            format!("closed loop, {WINDOW} in flight: best of {count} windows of {CAPACITY_WINDOW} answers"),
        ),
        (
            latency.median(),
            format!("{open_loop}; {} requests, {}", latency.len(), latency.spread()),
        ),
        (
            seconds_p95.pct(25.0),
            format!(
                "{open_loop}; lower quartile of {} one-second p95s, {}",
                seconds_p95.len(),
                seconds_p95.spread()
            ),
        ),
    );
    Ok(out)
}

/// The traced `daemon_mixed` run: the open loop through the service
/// probe (spans per request), plus a per-layer decomposition of the
/// first hundred requests.
fn traced_daemon(
    seed: u64,
    seconds: f64,
    mix: &[JobSpec],
    out_dir: &Path,
    spans: &Path,
) -> Result<Outcome, String> {
    let open_n = (RATE * seconds * OPEN_SHARE) as usize;
    let requests = crate::inputs::daemon_requests(seed, mix, open_n);
    let mut layers = Layers::new();
    let mut out = Outcome::default();
    let probed = requests.len().min(100);
    let text = crate::inputs::spec_text(&requests[..probed]);
    layers.trace_unit(0, &text, &mut out.problems)?;
    let (service, digest) = service_probe(
        out_dir,
        &requests,
        RATE,
        &|id| sampled(seed, id),
        &layers.rec,
        &mut out.problems,
    )?;
    out.digest = digest;
    out.attempted = (probed + requests.len()) as u64;
    out.metrics = layers.metrics(service);
    layers.rec.write_jsonl(spans)?;
    Ok(out)
}
