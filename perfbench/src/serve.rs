//! The `serve_mix` workload: `dpml serve --workers 2` as its own process,
//! driven over the wire protocol by this process on two connections and
//! two threads.
//!
//! Phases: daemon start-ups (set-up time), warm-up of the hot digests,
//! then a closed loop of two connections with [`WINDOW`] requests in
//! flight each (the end-to-end metrics), then drain and a journal audit.
//! A traced run spends half its time first in an open loop with Poisson
//! arrivals at a fixed offered rate (per-layer latencies, timed from when
//! each request was due). Every request is built from its wire JSON;
//! every result is checked, hot ones and a sample of the rest against a
//! fresh in-process run of the same spec.

use crate::engine::{self, Run, Scenario};
use crate::trace::{self, Recorder, Span};
use crate::util::{median, peak_rss_mb, quantile, Metrics, Rng};
use dpml_fabric::Preset;
use dpml_serve::job::{execute, JobCtx, JobSpec};
use dpml_serve::journal::{replay_file, Journal, Record};
use serde_json::Value;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub struct Settings {
    /// The `dpml` CLI binary.
    pub dpml_bin: PathBuf,
    /// Directory for the daemon's journal and checkpoints.
    pub scratch: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    /// Offered rate of the open loop, requests per second.
    pub rate: f64,
    pub traced: bool,
    pub spans_out: Option<PathBuf>,
}

const DAEMON_WORKERS: usize = 2;
const CONNECTIONS: usize = 2;
/// Queue bound and per-connection in-flight cap of the daemon (defaults
/// 64 and 16). The open loop's one connection stands for many independent
/// users, and at 2,000 req/s a host stall of 30 ms filled the default
/// bounds and shed requests; these bounds queue stalls of ~250 ms instead.
const ADMISSION_BOUND: usize = 512;
const HOT_DIGESTS: usize = 8;
/// Daemon start-ups timed for `setup_s`, besides the one that serves.
/// The daemon's accept loop polls every 10 ms, so a start-up answers its
/// first `Ping` after either ~2 ms or ~12 ms; `setup_s` is the mean of
/// many, which is steady where a median of few would flip between modes.
const SETUP_STARTS: usize = 30;
/// How long a request may stay unanswered before it counts as lost.
const GRACE: Duration = Duration::from_secs(2);
/// The latency limit on p99; a failed request counts as exceeding it.
const LATENCY_LIMIT_MS: f64 = 5.0;
/// Requests each closed-loop connection keeps in flight: enough that the
/// daemon's workers never wait for the generator, so the closed loop
/// measures capacity rather than thread wake-up latency.
const WINDOW: usize = 8;
/// Requests per job re-run in-process for the fresh-run check (every
/// job is still checked for `Done` with no failed cells).
const FRESH_EVERY: usize = 16;
const ALGORITHMS: [&str; 6] = ["rd", "rab", "ring", "binomial", "single-leader", "dpml:2"];
const PRESETS: [&str; 4] = ["a", "b", "c", "d"];

// ---------------------------------------------------------------- wire

/// One client connection: length-prefixed JSON frames (u32 LE length).
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).ok();
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    fn send(&mut self, json: &str) -> Result<(), String> {
        let mut frame = Vec::with_capacity(4 + json.len());
        frame.extend_from_slice(&(json.len() as u32).to_le_bytes());
        frame.extend_from_slice(json.as_bytes());
        self.stream
            .write_all(&frame)
            .map_err(|e| format!("send: {e}"))
    }

    /// Wait up to `timeout` for bytes; return every complete frame.
    fn poll(&mut self, timeout: Duration) -> Result<Vec<Value>, String> {
        let timeout = timeout.max(Duration::from_micros(20));
        self.stream
            .set_read_timeout(Some(timeout))
            .map_err(|e| e.to_string())?;
        let mut chunk = [0u8; 64 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => return Err("daemon closed the connection".into()),
            Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) => return Err(format!("recv: {e}")),
        }
        let mut frames = Vec::new();
        let mut at = 0;
        while self.buf.len() >= at + 4 {
            let len =
                u32::from_le_bytes(self.buf[at..at + 4].try_into().expect("4 bytes")) as usize;
            if self.buf.len() < at + 4 + len {
                break;
            }
            let text =
                std::str::from_utf8(&self.buf[at + 4..at + 4 + len]).map_err(|e| e.to_string())?;
            frames.push(serde_json::from_str(text).map_err(|e| format!("bad frame: {e}"))?);
            at += 4 + len;
        }
        self.buf.drain(..at);
        Ok(frames)
    }

    /// The only reply to a request, waiting at most until `deadline`.
    fn recv_one(&mut self, deadline: Instant) -> Result<Value, String> {
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Err("timed out waiting for the daemon".into());
            }
            let mut frames = self.poll(deadline - now)?;
            match frames.len() {
                0 => continue,
                1 => return Ok(frames.remove(0)),
                n => return Err(format!("{n} replies to one request")),
            }
        }
    }
}

/// `{"Variant": {...}}` → ("Variant", body); `"Variant"` → ("Variant", null).
fn variant(v: &Value) -> (&str, &Value) {
    match v {
        Value::String(s) => (s.as_str(), &Value::Null),
        Value::Object(m) => m.first().unwrap_or(("", &Value::Null)),
        _ => ("", &Value::Null),
    }
}

// -------------------------------------------------------------- daemon

struct Daemon {
    child: Child,
    /// Held open so the daemon's later prints never hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
    /// Process start until the first `Pong`.
    start_s: f64,
}

fn start_daemon(bin: &Path, dir: &Path, name: &str) -> Result<Daemon, String> {
    let t0 = Instant::now();
    let mut child = Command::new(bin)
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            &DAEMON_WORKERS.to_string(),
        ])
        .args(["--queue", &ADMISSION_BOUND.to_string()])
        .args(["--client-cap", &ADMISSION_BOUND.to_string()])
        .arg("--journal")
        .arg(dir.join(format!("{name}.journal")))
        .arg("--checkpoint-dir")
        .arg(dir.join(format!("{name}.ckpt")))
        .current_dir(dir)
        .stdout(Stdio::piped())
        .stdin(Stdio::null())
        .spawn()
        .map_err(|e| format!("starting {}: {e}", bin.display()))?;
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    let addr = match stdout.read_line(&mut line) {
        Ok(n) if n > 0 => line
            .split_whitespace()
            .find_map(|w| w.parse::<SocketAddr>().ok())
            .ok_or(format!("no address in daemon banner `{}`", line.trim())),
        _ => Err("daemon exited before listening".to_string()),
    };
    let addr = match addr {
        Ok(a) => a,
        Err(e) => {
            child.kill().ok();
            child.wait().ok();
            return Err(e);
        }
    };
    let mut daemon = Daemon {
        child,
        _stdout: stdout,
        addr,
        start_s: 0.0,
    };
    let pong = Conn::connect(addr).and_then(|mut c| {
        c.send("\"Ping\"")?;
        c.recv_one(Instant::now() + GRACE)
    });
    match pong {
        Ok(v) if variant(&v).0 == "Pong" => {
            daemon.start_s = t0.elapsed().as_secs_f64();
            Ok(daemon)
        }
        other => Err(format!("daemon did not answer Ping: {other:?}")),
    }
}

impl Drop for Daemon {
    /// A daemon not stopped by [`stop_daemon`] (an error or panic on the
    /// way) is killed, so no run leaves one behind.
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            kill(&mut self.child);
        }
    }
}

fn kill(child: &mut Child) {
    child.kill().ok();
    child.wait().ok();
}

/// `Shutdown`, then wait for the drained daemon to exit 0.
fn stop_daemon(mut d: Daemon) -> Result<(), String> {
    let ack = Conn::connect(d.addr).and_then(|mut c| {
        c.send("\"Shutdown\"")?;
        c.recv_one(Instant::now() + GRACE)
    });
    if !matches!(&ack, Ok(v) if variant(v).0 == "ShutdownAck") {
        return Err(format!("daemon did not acknowledge Shutdown: {ack:?}"));
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match d.child.try_wait() {
            Ok(Some(status)) if status.success() => return Ok(()),
            Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            _ => return Err("daemon did not exit after drain".into()),
        }
    }
}

// ------------------------------------------------------------ requests

/// A request to submit: the spec's wire JSON, and which hot digest it
/// repeats, if any.
type Request = (Option<usize>, String);

fn simulate_spec(rng: &mut Rng, bytes: u64) -> String {
    let preset = PRESETS[rng.below(4) as usize];
    let nodes = 2 + rng.below(3);
    let ppn = 2 + rng.below(3);
    let alg = ALGORITHMS[rng.below(ALGORITHMS.len() as u64) as usize];
    format!(
        r#"{{"kind":"Simulate","preset":"{preset}","nodes":{nodes},"ppn":{ppn},"algorithms":["{alg}"],"sizes":[{bytes}]}}"#
    )
}

fn sweep_spec(rng: &mut Rng, bytes: u64) -> String {
    let preset = PRESETS[rng.below(4) as usize];
    let sizes: Vec<String> = (0..4).map(|i| (bytes + (i << 12)).to_string()).collect();
    format!(
        r#"{{"kind":"Sweep","preset":"{preset}","nodes":4,"ppn":4,"algorithms":["rd","ring","dpml:4"],"sizes":[{}]}}"#,
        sizes.join(",")
    )
}

/// Request streams: open loop 0, closed loop 2–3, traced closed loop 4–5.
/// Span trace ids are `(stream + 1) << 40 | request`; the engine layer
/// breakdown uses ids below `1 << 40`.
const STREAMS: u64 = 6;

/// The seeded request stream of one connection in one phase. Streams
/// draw disjoint sizes, so every cold spec is a new digest; hot sizes are
/// ≡ 4 (mod 8) and cold ones ≡ 0, so the two never meet.
struct Mix {
    stream: u64,
    rng: Rng,
    hot: Vec<String>,
    next: u64,
    base: u64,
}

impl Mix {
    fn new(seed: u64, stream: u64, hot: &[String]) -> Self {
        Mix {
            stream,
            rng: Rng::new(seed ^ (stream + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            hot: hot.to_vec(),
            next: stream,
            base: 64 + 8 * Rng::new(seed).below(512),
        }
    }

    /// ~50% hot repeats, ~49% cold `Simulate`, ~1% `Sweep`.
    fn draw(&mut self) -> Request {
        let roll = self.rng.below(100);
        if roll < 50 {
            let slot = self.rng.below(self.hot.len() as u64) as usize;
            return (Some(slot), self.hot[slot].clone());
        }
        let bytes = self.base + 8 * self.next;
        self.next += STREAMS;
        if roll < 99 {
            (None, simulate_spec(&mut self.rng, bytes))
        } else {
            (None, sweep_spec(&mut self.rng, bytes))
        }
    }

    /// Span trace ids of this stream's requests start here.
    fn trace_base(&self) -> u64 {
        (self.stream + 1) << 40
    }

    /// Exponential inter-arrival gap at `rate` per second.
    fn gap(&mut self, rate: f64) -> Duration {
        Duration::from_secs_f64(-self.rng.unit().ln() / rate)
    }
}

fn hot_specs(seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed ^ 0x4807);
    (0..HOT_DIGESTS as u64)
        .map(|i| simulate_spec(&mut rng, 4 + (i << 12)))
        .collect()
}

/// One request's life as the generator saw it.
struct Sample {
    /// The warmed digest this request repeats; `None` for a distinct job.
    hot_slot: Option<usize>,
    spec: String,
    due: Instant,
    sent: Instant,
    accepted: Option<Instant>,
    finished: Option<Instant>,
    cached: bool,
    /// The `Finished` outcome, serialized.
    outcome: Option<String>,
    /// Engine scenarios and events of a job that ran (not a cache hit).
    scenarios: u64,
    events: u64,
    error: Option<String>,
}

impl Sample {
    fn latency_ms(&self) -> f64 {
        match (self.error.is_none(), self.finished) {
            (true, Some(f)) => (f - self.due).as_secs_f64() * 1e3,
            // Refused, failed or lost: over the latency limit.
            _ => GRACE.as_secs_f64() * 1e3,
        }
    }
}

/// One connection's requests in flight and done. The replies are read
/// through a second handle on the same socket (see [`Session::new`]), so
/// a reader can block without holding the session.
struct Session {
    writer: Conn,
    samples: Vec<Sample>,
    awaiting_accept: VecDeque<usize>,
    by_id: HashMap<u64, usize>,
    outstanding: usize,
    epoch: Instant,
    traced: bool,
    /// Span trace ids of this session's requests start here.
    trace_base: u64,
    spans: Vec<Span>,
}

impl Session {
    /// A new connection whose requests take span trace ids from
    /// `trace_base` up: the session that writes, and the reader.
    fn new(
        addr: SocketAddr,
        epoch: Instant,
        traced: bool,
        trace_base: u64,
    ) -> Result<(Self, Conn), String> {
        let writer = Conn::connect(addr)?;
        let reader = Conn {
            stream: writer.stream.try_clone().map_err(|e| e.to_string())?,
            buf: Vec::new(),
        };
        let session = Session {
            writer,
            samples: Vec::new(),
            awaiting_accept: VecDeque::new(),
            by_id: HashMap::new(),
            outstanding: 0,
            epoch,
            traced,
            trace_base,
            spans: Vec::new(),
        };
        Ok((session, reader))
    }

    fn submit(&mut self, (hot_slot, spec): Request, due: Instant) -> Result<(), String> {
        self.writer
            .send(&format!(r#"{{"Submit":{{"spec":{spec}}}}}"#))?;
        self.samples.push(Sample {
            hot_slot,
            spec,
            due,
            sent: Instant::now(),
            accepted: None,
            finished: None,
            cached: false,
            outcome: None,
            scenarios: 0,
            events: 0,
            error: None,
        });
        self.awaiting_accept.push_back(self.samples.len() - 1);
        self.outstanding += 1;
        Ok(())
    }

    /// Account for replies read at `now`.
    fn handle(&mut self, frames: Vec<Value>, now: Instant) -> Result<(), String> {
        for frame in frames {
            let (name, body) = variant(&frame);
            match name {
                "Accepted" => {
                    let i = self
                        .awaiting_accept
                        .pop_front()
                        .ok_or("Accepted with nothing submitted")?;
                    let s = &mut self.samples[i];
                    s.accepted = Some(now);
                    s.cached = body.get("cached").and_then(Value::as_bool).unwrap_or(false);
                    let id = body
                        .get("id")
                        .and_then(Value::as_u64)
                        .ok_or("Accepted without id")?;
                    self.by_id.insert(id, i);
                }
                "Rejected" => {
                    let i = self
                        .awaiting_accept
                        .pop_front()
                        .ok_or("Rejected with nothing submitted")?;
                    self.finish(
                        i,
                        now,
                        Err(format!(
                            "rejected: {}",
                            serde_json::to_string(body).unwrap_or_default()
                        )),
                    );
                }
                "Finished" => {
                    let id = body
                        .get("id")
                        .and_then(Value::as_u64)
                        .ok_or("Finished without id")?;
                    let i = self
                        .by_id
                        .remove(&id)
                        .ok_or(format!("Finished for unknown id {id}"))?;
                    let outcome = body.get("outcome").cloned().unwrap_or(Value::Null);
                    self.finish(i, now, Ok(outcome));
                }
                other => return Err(format!("unexpected reply `{other}`")),
            }
        }
        Ok(())
    }

    fn finish(&mut self, i: usize, now: Instant, outcome: Result<Value, String>) {
        self.outstanding -= 1;
        let s = &mut self.samples[i];
        s.finished = Some(now);
        match outcome {
            Err(e) => s.error = Some(e),
            Ok(outcome) => {
                match variant(&outcome) {
                    ("Done", result) => {
                        let cells = result
                            .get("scenarios")
                            .and_then(Value::as_array)
                            .map_or(0, Vec::len);
                        let failed = result.get("failed").and_then(Value::as_u64).unwrap_or(1);
                        if failed != 0 || cells == 0 {
                            s.error = Some(format!("job finished with {failed} failed cells"));
                        } else if !s.cached {
                            s.scenarios = cells as u64;
                            s.events = result
                                .get("sim_events")
                                .and_then(Value::as_u64)
                                .unwrap_or(0);
                        }
                    }
                    _ => {
                        s.error = Some(format!(
                            "job failed: {}",
                            serde_json::to_string(&outcome).unwrap_or_default()
                        ))
                    }
                }
                s.outcome = Some(serde_json::to_string(&outcome).unwrap_or_default());
            }
        }
        if self.traced {
            self.record_spans(i);
        }
    }

    /// `loadgen.request` from due to finish, with `serve.admit` and
    /// `serve.complete` (a job that ran) or `serve.hit` (a cache hit)
    /// beneath it.
    fn record_spans(&mut self, i: usize) {
        let s = &self.samples[i];
        let finished = s.finished.expect("finished sample");
        let mut rec = Recorder::new(self.epoch, self.trace_base + i as u64, true);
        let root = rec.add("loadgen.request", None, s.due, finished);
        match (s.cached, s.accepted) {
            (true, _) => {
                rec.add("serve.hit", root, s.sent, finished);
            }
            (false, Some(acc)) => {
                rec.add("serve.admit", root, s.sent, acc);
                rec.add("serve.complete", root, acc, finished);
            }
            (false, None) => {}
        }
        self.spans.extend(rec.into_spans());
    }
}

/// Open loop on one connection: this thread submits on a Poisson
/// schedule at `rate` for `seconds`, a second thread reads the replies
/// until every request is answered or the grace period ends.
fn open_loop(
    addr: SocketAddr,
    epoch: Instant,
    traced: bool,
    mix: &mut Mix,
    rate: f64,
    seconds: f64,
) -> Result<Session, String> {
    let (session, mut reader) = Session::new(addr, epoch, traced, mix.trace_base())?;
    let session = Mutex::new(session);
    let sending = AtomicBool::new(true);
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        let read = scope.spawn(|| -> Result<(), String> {
            loop {
                let frames = reader.poll(Duration::from_millis(20))?;
                let now = Instant::now();
                let mut s = session.lock().expect("session lock");
                s.handle(frames, now)?;
                if !sending.load(Ordering::SeqCst) && s.outstanding == 0 || now >= end + GRACE {
                    return Ok(());
                }
            }
        });
        let mut due = start + mix.gap(rate);
        let mut sent = Ok(());
        while due < end && sent.is_ok() {
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            sent = session
                .lock()
                .expect("session lock")
                .submit(mix.draw(), due);
            due += mix.gap(rate);
        }
        sending.store(false, Ordering::SeqCst);
        let read = read
            .join()
            .map_err(|_| "reply reader panicked".to_string())?;
        sent.and(read)
    })?;
    let mut session = session.into_inner().expect("session lock");
    lose_outstanding(&mut session);
    Ok(session)
}

/// Closed loop: keep [`WINDOW`] requests in flight, submitting the next
/// as each one finishes, until `end`; then wait out the replies.
fn closed_loop(
    (mut session, mut reader): (Session, Conn),
    mix: &mut Mix,
    end: Instant,
) -> Result<Session, String> {
    let mut last_reply = Instant::now();
    loop {
        let now = Instant::now();
        if now < end && session.outstanding < WINDOW {
            session.submit(mix.draw(), now)?;
            continue;
        }
        if now >= end && session.outstanding == 0 || now >= last_reply + GRACE {
            break;
        }
        let frames = reader.poll(GRACE)?;
        if !frames.is_empty() {
            last_reply = Instant::now();
        }
        session.handle(frames, last_reply)?;
    }
    lose_outstanding(&mut session);
    Ok(session)
}

fn lose_outstanding(session: &mut Session) {
    for s in &mut session.samples {
        if s.finished.is_none() {
            s.error = Some("no reply within the grace period".into());
        }
    }
}

/// Closed loops on two connections: one on a second thread, one here.
fn closed_loops(
    addr: SocketAddr,
    epoch: Instant,
    traced: bool,
    [here, there]: &mut [Mix; 2],
    seconds: f64,
) -> Result<Phase, String> {
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let run = |mix: &mut Mix| {
        let session = Session::new(addr, epoch, traced, mix.trace_base())?;
        closed_loop(session, mix, end)
    };
    let (a, b) = std::thread::scope(|scope| {
        let other = scope.spawn(|| run(there));
        let mine = run(here);
        let other = other
            .join()
            .map_err(|_| "generator thread panicked".to_string())?;
        Ok::<_, String>((mine?, other?))
    })?;
    let mut phase = Phase::from(a);
    phase.extend(Phase::from(b));
    Ok(phase)
}

/// The requests of one phase, and their spans.
#[derive(Default)]
struct Phase {
    samples: Vec<Sample>,
    spans: Vec<Span>,
}

impl Phase {
    fn extend(&mut self, other: Phase) {
        self.samples.extend(other.samples);
        self.spans.extend(other.spans);
    }
}

impl From<Session> for Phase {
    fn from(s: Session) -> Self {
        Phase {
            samples: s.samples,
            spans: s.spans,
        }
    }
}

// ----------------------------------------------------------------- run

pub fn run(s: &Settings) -> Result<Run, String> {
    let dir = s.scratch.join(format!("serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let result = run_in(s, &dir);
    std::fs::remove_dir_all(&dir).ok();
    result
}

fn run_in(s: &Settings, dir: &Path) -> Result<Run, String> {
    let dir = dir.canonicalize().map_err(|e| e.to_string())?;
    let bin = s
        .dpml_bin
        .canonicalize()
        .map_err(|e| format!("{}: {e}", s.dpml_bin.display()))?;
    let mut starts: Vec<f64> = Vec::new();
    for i in 0..SETUP_STARTS {
        let d = start_daemon(&bin, &dir, &format!("setup{i}"))?;
        starts.push(d.start_s);
        stop_daemon(d)?;
    }
    let daemon = start_daemon(&bin, &dir, "serve")?;
    starts.push(daemon.start_s);
    let pid = daemon.child.id().to_string();
    let outcome = drive(s, daemon.addr);
    let rss = peak_rss_mb(&pid);
    let stopped = stop_daemon(daemon);
    let mut drive = outcome?;
    stopped?;
    println!(
        "daemon: {DAEMON_WORKERS} workers; generator: 2 threads on at most {CONNECTIONS} connections"
    );
    let audit = audit(&dir.join("serve.journal"))?;
    println!(
        "journal audit: {} jobs admitted, {} lost, {} duplicated",
        audit.admitted, audit.lost, audit.duplicated
    );
    drive.failed += audit.lost + audit.duplicated;

    let mut fresh = check_against_fresh_runs(&drive, s.traced);
    let mut m = Metrics::default();
    if s.traced {
        let (spans, engine_failed) = traced_metrics(&mut m, &drive, &fresh, &audit, &dir)?;
        fresh.failed += engine_failed;
        if let Some(path) = &s.spans_out {
            engine::write_spans(path, &spans);
        }
    } else {
        let (p50, p99) = windowed_latency(&drive.closed);
        let (req_per_s, scenarios_per_s, events_per_s) = windowed_rates(&drive.closed);
        println!(
            "closed loop: {} requests on {CONNECTIONS} connections x {WINDOW} in flight",
            drive.closed.samples.len()
        );
        m.put("scenarios_per_s", scenarios_per_s, "1/s");
        m.put("events_per_s", events_per_s, "1/s");
        m.put(
            "setup_s",
            starts.iter().sum::<f64>() / starts.len() as f64,
            "s",
        );
        m.put("peak_rss_mb", rss.unwrap_or(0.0), "MB");
        m.put("p50_ms", p50, "ms");
        m.put("p99_ms", p99, "ms");
        m.put("req_per_s", req_per_s, "1/s");
    }
    Ok(Run {
        attempted: drive.attempted,
        failed: drive.failed + fresh.failed,
        metrics: m,
    })
}

/// A phase's samples grouped into whole windows of `width` seconds by
/// `at`, dropping the last, partial window (all in one window if none is
/// whole).
fn windows(phase: &Phase, width: f64, at: fn(&Sample) -> Option<Instant>) -> Vec<Vec<&Sample>> {
    let times: Vec<(Instant, &Sample)> = phase
        .samples
        .iter()
        .filter_map(|x| Some((at(x)?, x)))
        .collect();
    let Some(t0) = times.iter().map(|(t, _)| *t).min() else {
        return Vec::new();
    };
    let index = |t: Instant| ((t - t0).as_secs_f64() / width) as usize;
    let whole = times
        .iter()
        .map(|(t, _)| index(*t))
        .max()
        .unwrap_or(0)
        .max(1);
    let mut out = vec![Vec::new(); whole];
    for (t, x) in times {
        match out.get_mut(index(t)) {
            Some(w) => w.push(x),
            None if whole == 1 => out[0].push(x),
            None => {}
        }
    }
    out
}

/// Request latency p50 and p99, each the median over the whole one-second
/// windows (by due time) of that window's quantile, so one burst of host
/// contention moves one window rather than the result.
fn windowed_latency(phase: &Phase) -> (f64, f64) {
    let (mut p50, mut p99): (Vec<f64>, Vec<f64>) = windows(phase, 1.0, |x| Some(x.due))
        .into_iter()
        .map(|w| {
            let mut lat: Vec<f64> = w.iter().map(|x| x.latency_ms()).collect();
            (quantile(&mut lat, 0.5), quantile(&mut lat, 0.99))
        })
        .unzip();
    (median(&mut p50), median(&mut p99))
}

/// Completed requests, engine scenarios and simulated events per second,
/// each the median over the whole half-second windows (by finish time).
fn windowed_rates(phase: &Phase) -> (f64, f64, f64) {
    const WIDTH: f64 = 0.5;
    let ok = |x: &Sample| if x.error.is_none() { x.finished } else { None };
    let (mut req, mut scen, mut ev) = (Vec::new(), Vec::new(), Vec::new());
    for w in windows(phase, WIDTH, ok) {
        req.push(w.len() as f64 / WIDTH);
        scen.push(w.iter().map(|x| x.scenarios).sum::<u64>() as f64 / WIDTH);
        ev.push(w.iter().map(|x| x.events).sum::<u64>() as f64 / WIDTH);
    }
    (median(&mut req), median(&mut scen), median(&mut ev))
}

/// Everything the generator saw.
struct Drive {
    hot_specs: Vec<String>,
    /// What the warm-up returned for each hot spec.
    hot_results: Vec<String>,
    /// The open loop at the fixed offered rate (traced runs only).
    open: Phase,
    closed: Phase,
    /// Closed-loop request rates without and with spans (traced runs only).
    closed_rates: Option<(f64, f64)>,
    stats: Value,
    attempted: u64,
    failed: u64,
}

impl Drive {
    fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.open.samples.iter().chain(&self.closed.samples)
    }
}

fn drive(s: &Settings, addr: SocketAddr) -> Result<Drive, String> {
    let epoch = Instant::now();
    let hot = hot_specs(s.seed);
    // Warm the hot digests, one at a time.
    let warm_mix = hot
        .iter()
        .enumerate()
        .map(|(slot, spec)| (Some(slot), spec.clone()));
    let (mut warm, mut reader) = Session::new(addr, epoch, false, 0)?;
    for request in warm_mix {
        warm.submit(request, Instant::now())?;
        let give_up = Instant::now() + GRACE;
        while warm.outstanding > 0 && Instant::now() < give_up {
            let frames = reader.poll(give_up - Instant::now())?;
            warm.handle(frames, Instant::now())?;
        }
    }
    let mut hot_results = Vec::new();
    for w in &warm.samples {
        match (&w.error, &w.outcome) {
            (None, Some(outcome)) => hot_results.push(outcome.clone()),
            _ => return Err(format!("warm-up failed: {:?}", w.error)),
        }
    }

    let mix = |stream| Mix::new(s.seed, stream, &hot);
    let (open, closed, closed_rates) = if s.traced {
        // The open loop at R for half the run, then the closed loop
        // untraced and traced for a quarter each.
        let open = open_loop(addr, epoch, true, &mut mix(0), s.rate, 0.5 * s.seconds)?;
        let mut closed = closed_loops(addr, epoch, false, &mut [mix(2), mix(3)], 0.25 * s.seconds)?;
        let traced = closed_loops(addr, epoch, true, &mut [mix(4), mix(5)], 0.25 * s.seconds)?;
        let rates = (windowed_rates(&closed).0, windowed_rates(&traced).0);
        closed.extend(traced);
        (open.into(), closed, Some(rates))
    } else {
        let closed = closed_loops(addr, epoch, false, &mut [mix(2), mix(3)], s.seconds)?;
        (Phase::default(), closed, None)
    };

    let mut stats_conn = Conn::connect(addr)?;
    stats_conn.send("\"Stats\"")?;
    let stats = stats_conn.recv_one(Instant::now() + GRACE)?;

    // Every cache hit must return what the warm-up computed.
    let mut attempted = warm.samples.len() as u64;
    let mut failed = 0;
    for x in open.samples.iter().chain(&closed.samples) {
        attempted += 1;
        if let Some(e) = &x.error {
            failed += 1;
            eprintln!("FAILED request: {e}");
        } else if let Some(slot) = x.hot_slot {
            if x.outcome.as_deref() != Some(hot_results[slot].as_str()) {
                failed += 1;
                eprintln!("FAILED hot digest {slot}: cache returned a different result");
            }
        }
    }
    Ok(Drive {
        hot_specs: hot,
        hot_results,
        open,
        closed,
        closed_rates,
        stats,
        attempted,
        failed,
    })
}

struct Audit {
    admitted: u64,
    lost: u64,
    duplicated: u64,
    records: Vec<Record>,
    bytes: u64,
}

/// Count finishes per admitted job: none = lost, more than one =
/// duplicated.
fn audit(journal: &Path) -> Result<Audit, String> {
    let replay = replay_file(journal).map_err(|e| format!("reading the journal: {e}"))?;
    let mut finishes: HashMap<u64, u64> = HashMap::new();
    let mut admits = Vec::new();
    for r in &replay.records {
        match r {
            Record::Admit { id, .. } => admits.push(*id),
            Record::Finish { id, .. } => *finishes.entry(*id).or_default() += 1,
            _ => {}
        }
    }
    let count = |pred: fn(u64) -> bool| {
        admits
            .iter()
            .filter(|id| pred(finishes.get(id).copied().unwrap_or(0)))
            .count() as u64
    };
    Ok(Audit {
        admitted: admits.len() as u64,
        lost: count(|n| n == 0),
        duplicated: count(|n| n > 1),
        records: replay.records,
        bytes: std::fs::metadata(journal).map_or(0, |m| m.len()),
    })
}

/// In-process fresh runs of the specs the daemon served.
struct Fresh {
    failed: u64,
    execute_us: Vec<f64>,
    spans: Vec<Span>,
}

/// `job::execute` on every hot spec and on the jobs among every
/// [`FRESH_EVERY`]th open-loop request, compared with what the daemon
/// returned. Timed per call; traced
/// runs also record a span per call.
fn check_against_fresh_runs(drive: &Drive, traced: bool) -> Fresh {
    let mut fresh = Fresh {
        failed: 0,
        execute_us: Vec::new(),
        spans: Vec::new(),
    };
    let epoch = Instant::now();
    let mut jobs: Vec<(&String, &String)> =
        drive.hot_specs.iter().zip(&drive.hot_results).collect();
    let hot_jobs = jobs.len();
    for x in drive.samples().step_by(FRESH_EVERY) {
        if let (None, None, Some(outcome)) = (x.hot_slot, &x.error, &x.outcome) {
            jobs.push((&x.spec, outcome));
        }
    }
    for (i, (spec_json, want)) in jobs.iter().enumerate() {
        let spec: JobSpec = match serde_json::from_str(spec_json) {
            Ok(spec) => spec,
            Err(e) => {
                fresh.failed += 1;
                eprintln!("FAILED spec does not parse: {e}: {spec_json}");
                continue;
            }
        };
        let t = Instant::now();
        let outcome = execute(&spec, &JobCtx::new(), 0);
        let end = Instant::now();
        if i >= hot_jobs {
            fresh.execute_us.push((end - t).as_secs_f64() * 1e6);
            let mut rec = Recorder::new(epoch, (STREAMS + 1) << 40 | i as u64, traced);
            rec.add("serve.execute", None, t, end);
            fresh.spans.extend(rec.into_spans());
        }
        let got = serde_json::to_value(&outcome)
            .and_then(|v| serde_json::to_string(&v))
            .unwrap_or_default();
        if got != **want {
            fresh.failed += 1;
            eprintln!("FAILED {spec_json}: the daemon's result differs from a fresh run");
        }
    }
    fresh
}

/// The engine layers under the serve jobs: every scenario of the jobs
/// the fresh-run check re-runs, through the engine primitives.
fn job_scenarios(drive: &Drive) -> Vec<Scenario> {
    let mut out = Vec::new();
    let open = drive.samples().step_by(FRESH_EVERY);
    for x in open.filter(|x| x.hot_slot.is_none() && x.error.is_none()) {
        let Ok(spec) = serde_json::from_str::<JobSpec>(&x.spec) else {
            continue;
        };
        let (Some(preset), Ok(grid)) = (Preset::by_id(&spec.preset), spec.scenarios()) else {
            continue;
        };
        for (alg, bytes) in grid {
            out.push(Scenario::of_job(&preset, spec.nodes, spec.ppn, alg, bytes));
        }
    }
    out
}

/// Σ of the daemon's `Stats` counters whose name starts with `prefix`.
fn counters(stats: &Value, prefix: &str) -> f64 {
    let all = variant(stats)
        .1
        .get("stats")
        .and_then(|s| s.get("counters"))
        .and_then(Value::as_array);
    all.into_iter()
        .flatten()
        .filter(|c| {
            c.get("name")
                .and_then(Value::as_str)
                .is_some_and(|n| n.starts_with(prefix))
        })
        .filter_map(|c| c.get("value").and_then(Value::as_f64))
        .fold(0.0, |a, b| a + b)
}

/// The per-layer metrics of a traced run. Returns every span recorded
/// and the number of job scenarios that failed in the engine breakdown.
fn traced_metrics(
    m: &mut Metrics,
    drive: &Drive,
    fresh: &Fresh,
    audit: &Audit,
    dir: &Path,
) -> Result<(Vec<Span>, u64), String> {
    let us = |a: Instant, b: Option<Instant>| b.map(|b| (b - a).as_secs_f64() * 1e6);
    let ok = || drive.open.samples.iter().filter(|x| x.error.is_none());
    let mut admit: Vec<f64> = ok()
        .filter(|x| !x.cached)
        .filter_map(|x| us(x.sent, x.accepted))
        .collect();
    let mut hit: Vec<f64> = ok()
        .filter(|x| x.cached)
        .filter_map(|x| us(x.sent, x.finished))
        .collect();
    let mut complete: Vec<f64> = ok()
        .filter(|x| !x.cached)
        .filter_map(|x| x.accepted.and_then(|a| us(a, x.finished)))
        .collect();
    let mut execute_us = fresh.execute_us.clone();
    let mut append_us = journal_appends(&audit.records, &dir.join("append.journal"))?;

    // Engine layers of the same jobs, run serially through the primitives.
    let (engine_spans, engine_failed) = engine::layer_breakdown(m, &job_scenarios(drive));
    m.put_quantiles("serve.admit_us", &mut admit, "us");
    m.put_quantiles("serve.journal_append_us", &mut append_us, "us");
    m.put(
        "serve.journal_bytes_per_job",
        audit.bytes as f64 / audit.admitted.max(1) as f64,
        "bytes",
    );
    m.put_quantiles("serve.hit_us", &mut hit, "us");
    let (hits, misses) = (
        counters(&drive.stats, "serve.cache_hit"),
        counters(&drive.stats, "serve.cache_miss"),
    );
    m.put(
        "serve.cache_hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
    m.put_quantiles("serve.complete_us", &mut complete, "us");
    m.put_quantiles("serve.execute_us", &mut execute_us, "us");
    m.put(
        "serve.wait_us",
        median(&mut complete) - median(&mut execute_us),
        "us",
    );
    let rejected = counters(&drive.stats, "serve.rejected_");
    m.put(
        "serve.shed_ratio",
        rejected / counters(&drive.stats, "serve.submitted").max(1.0),
        "ratio",
    );
    let mut late: Vec<f64> = drive
        .open
        .samples
        .iter()
        .map(|x| (x.sent - x.due).as_secs_f64() * 1e3)
        .collect();
    m.put("loadgen.late_ms_p99", quantile(&mut late, 0.99), "ms");
    let (open_p50, open_p99) = windowed_latency(&drive.open);
    m.put("serve.open_p50_ms", open_p50, "ms");
    m.put("serve.open_p99_ms", open_p99, "ms");
    println!(
        "open loop: {} requests, p99 {open_p99:.3} ms against a {LATENCY_LIMIT_MS} ms limit ({})",
        drive.open.samples.len(),
        if open_p99 <= LATENCY_LIMIT_MS {
            "met"
        } else {
            "missed"
        }
    );
    let spans: Vec<Span> = drive
        .open
        .spans
        .iter()
        .chain(&drive.closed.spans)
        .chain(&fresh.spans)
        .chain(&engine_spans)
        .cloned()
        .collect();
    let layers = trace::self_times(&spans);
    m.put(
        "loadgen.self_s",
        layers.get("loadgen.request").copied().unwrap_or(0.0),
        "s",
    );
    m.put("trace.spans", spans.len() as f64, "count");
    if let Some((plain, traced)) = drive.closed_rates {
        m.put("trace.overhead", plain / traced - 1.0, "ratio");
    }
    Ok((spans, engine_failed))
}

/// `Journal::append` of this run's own Admit/Finish records into a
/// fresh journal, timed per call.
fn journal_appends(records: &[Record], path: &Path) -> Result<Vec<f64>, String> {
    let (journal, _) =
        Journal::open(path).map_err(|e| format!("opening {}: {e}", path.display()))?;
    let mut out = Vec::new();
    for r in records
        .iter()
        .filter(|r| matches!(r, Record::Admit { .. } | Record::Finish { .. }))
    {
        let t = Instant::now();
        journal.append(r).map_err(|e| format!("append: {e}"))?;
        out.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(out)
}
