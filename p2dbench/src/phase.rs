//! One run of the chain under paced, open-loop load: pole side →
//! reactor → `ShardedFusion` → `SnapshotCell` → `serve::HttpServer` →
//! HTTP readers.
//!
//! The benchmark adds no tracing inside the program. It stamps only
//! its own calls into public functions (`PoleAgent::step`,
//! `Aggregator::snapshot`) and the `Transport`s it hands the program:
//! the pole side's `send` and the reactor's `recv` of each in-process
//! link. A `PublishHook` records which report each pole had fused at
//! every publish, so a `/delta` reader's receipt of an epoch can be
//! traced back to the frames it carries.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::{Duration, Instant};

use counting::{
    CounterConfig, CrowdCounter, EpsRung, PrecisionRung, SupervisedCounter, SupervisorConfig,
};
use dataset::{ClassLabel, CloudClassifier};
use fleet::transport::{LoopbackClient, LoopbackServer};
use fleet::{
    encode, loopback_pair, AgentConfig, Aggregator, AggregatorConfig, CampusSnapshot, Connector,
    FusionStats, LoopbackConfig, Message, PoleAgent, PublishHook, ReactorHandle, ReadySignal,
    SnapshotCell, Transport, TransportError,
};
use geom::Point3;
use hawc::QuantizedHawc;
use serve::{HttpServer, ServeConfig};
use world::WalkwayConfig;

use crate::cpus::Side;
use crate::http::{parse_delta, parse_head};
use crate::workload::{
    Inputs, PoleInputs, Read, Spec, DRAIN, FRAME_PERIOD, PUBLISH_PERIOD, WARMUP,
};

/// Lock that survives a panicked holder: every record here is a plain
/// append, valid at every step.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn sleep_until(at: Instant) {
    loop {
        let now = Instant::now();
        if now >= at {
            return;
        }
        std::thread::sleep(at - now);
    }
}

// ---------------------------------------------------------------------------
// The in-process uplink, wrapped on both ends.

/// What one pole's link recorded.
#[derive(Debug, Default)]
pub struct LinkRec {
    traced: bool,
    /// The last frame the pole sent: its last report (the fusion
    /// oracle's input).
    pub last: Mutex<Vec<u8>>,
    /// Traced: every frame sent, stamped just before the pole's `send`.
    pub sends: Mutex<Vec<(Instant, Vec<u8>)>>,
    /// Traced: the reactor's `recv` of each frame, in link order. The
    /// loopback is reliable and frame-oriented, so the `i`th receive is
    /// the `i`th send.
    pub recvs: Mutex<Vec<Instant>>,
}

struct PoleEnd {
    inner: LoopbackClient,
    rec: Arc<LinkRec>,
}

impl Transport for PoleEnd {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        if self.rec.traced {
            lock(&self.rec.sends).push((Instant::now(), frame.to_vec()));
        }
        self.inner.send(frame)?;
        let mut last = lock(&self.rec.last);
        last.clear();
        last.extend_from_slice(frame);
        Ok(())
    }

    fn recv(&mut self, timeout: Duration) -> Result<Vec<u8>, TransportError> {
        self.inner.recv(timeout)
    }

    fn close(&mut self) {
        self.inner.close();
    }
}

struct CampusEnd {
    inner: LoopbackServer,
    rec: Arc<LinkRec>,
}

impl Transport for CampusEnd {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        self.inner.send(frame)
    }

    fn recv(&mut self, timeout: Duration) -> Result<Vec<u8>, TransportError> {
        let got = self.inner.recv(timeout);
        if self.rec.traced && got.is_ok() {
            lock(&self.rec.recvs).push(Instant::now());
        }
        got
    }

    fn close(&mut self) {
        self.inner.close();
    }

    fn register_ready(&mut self, signal: &Arc<ReadySignal>, token: u64) -> bool {
        self.inner.register_ready(signal, token)
    }
}

/// Opens one in-process link and hands its campus end straight to the
/// reactor (what `LoopbackHub` plus an accept loop would do).
fn open_link(agg: &Aggregator, rec: &Arc<LinkRec>) -> PoleEnd {
    let (client, server) = loopback_pair(LoopbackConfig::reliable());
    agg.add_connection(Box::new(CampusEnd {
        inner: server,
        rec: Arc::clone(rec),
    }));
    PoleEnd {
        inner: client,
        rec: Arc::clone(rec),
    }
}

struct LinkConnector {
    agg: Arc<Aggregator>,
    rec: Arc<LinkRec>,
}

impl Connector for LinkConnector {
    fn connect(&mut self) -> Result<Box<dyn Transport>, TransportError> {
        Ok(Box::new(open_link(&self.agg, &self.rec)))
    }
}

// ---------------------------------------------------------------------------
// Publish log.

/// One publish as the benchmark's hook saw it.
#[derive(Debug)]
pub struct PubEntry {
    pub epoch: u64,
    pub at: Instant,
    /// `seqs[pole]`: the last report seq fused for each pole.
    pub seqs: Vec<u64>,
}

#[derive(Debug, Default)]
pub struct PubLog {
    pub entries: Vec<PubEntry>,
    /// Traced: consecutive snapshots from the measured window, the
    /// serve replay's input.
    pub kept: Vec<(u64, Arc<CampusSnapshot>)>,
}

/// Snapshots kept for the serve replay.
const KEEP_SNAPSHOTS: usize = 64;

struct PublishRecorder {
    cell: Weak<SnapshotCell>,
    poles: usize,
    traced: bool,
    keep_after: OnceLock<Instant>,
    log: Mutex<PubLog>,
}

impl PublishHook for PublishRecorder {
    fn on_publish(&self, _epoch: u64) {
        let at = Instant::now();
        let Some(cell) = self.cell.upgrade() else {
            return;
        };
        // The hook's epoch may already be superseded; record the pair
        // the cell holds now, which is always consistent. A skipped
        // epoch just has no entry.
        let (epoch, snap) = cell.read_versioned();
        let mut log = lock(&self.log);
        if log.entries.last().is_some_and(|e| e.epoch >= epoch) {
            return;
        }
        let mut seqs = vec![0u64; self.poles];
        for p in &snap.poles {
            if let Some(s) = seqs.get_mut(p.pole_id as usize) {
                *s = p.seq;
            }
        }
        log.entries.push(PubEntry { epoch, at, seqs });
        if self.traced
            && log.kept.len() < KEEP_SNAPSHOTS
            && self.keep_after.get().is_some_and(|t| at >= *t)
        {
            log.kept.push((epoch, snap));
        }
    }
}

// ---------------------------------------------------------------------------
// The pole side.

/// Fills the supervisor's fp32 slot. Under the default `Int8Fast`
/// policy with an int8 counter attached, the supervisor runs only the
/// int8 counter (the fp32 one serves `reference_count`, which the
/// benchmark never calls), so one trained network quantised per pole is
/// all the pole side needs. Every frame's precision is checked.
struct NoFp32;

impl CloudClassifier for NoFp32 {
    fn classify(&mut self, _clouds: &[Vec<Point3>]) -> Vec<ClassLabel> {
        panic!("the fp32 rung ran, but the int8 rung is the configured fast path")
    }

    fn model_name(&self) -> &str {
        "unused-fp32"
    }
}

type Agent = PoleAgent<NoFp32, QuantizedHawc>;

/// The counting pipeline's deployed configuration, single-threaded per
/// pole: each generator thread stands in for the pole CPUs it hosts.
pub fn counter_config() -> CounterConfig {
    CounterConfig {
        classify_threads: 1,
        ..CounterConfig::default()
    }
}

enum PoleRuntime {
    Agents(Vec<Agent>),
    Synthetic(Vec<PoleEnd>),
}

/// What one agent step produced.
#[derive(Debug, Clone, Copy)]
pub struct AgentOut {
    pub count: usize,
    pub held: bool,
    /// The frame ran the adaptive-ε rung (the supervisor reports the
    /// rung for the *next* frame, so this is the previous frame's).
    pub adaptive: bool,
    pub int8: bool,
    pub clusters: usize,
    pub queue_len: usize,
}

/// One due frame.
#[derive(Debug, Clone, Copy)]
pub struct FrameEvent {
    pub pole: u32,
    pub k: u32,
    pub due: Instant,
    pub start: Instant,
    pub end: Instant,
    /// Start minus the later of due time and the thread becoming free:
    /// how late the generator itself ran.
    pub late_ms: f64,
    pub out: Option<AgentOut>,
}

impl FrameEvent {
    pub fn seq(&self) -> u64 {
        u64::from(self.k) + 1
    }
}

/// Runs one generator thread's poles: every frame at its due time, in
/// due order, recording when `step` started and ended it.
fn pace<T>(
    group: &mut [(usize, T)],
    frames: usize,
    due: impl Fn(usize, usize) -> Instant,
    t0: Instant,
    mut step: impl FnMut(usize, &mut T, usize, usize) -> Option<AgentOut>,
) -> Vec<FrameEvent> {
    let mut sched: Vec<(Instant, usize, usize)> = Vec::new();
    for (slot, (p, _)) in group.iter().enumerate() {
        sched.extend((0..frames).map(|k| (due(*p, k), slot, k)));
    }
    sched.sort_by_key(|e| e.0);
    let mut events = Vec::with_capacity(sched.len());
    let mut free_at = t0;
    for (at, slot, k) in sched {
        sleep_until(at);
        let (p, item) = &mut group[slot];
        let start = Instant::now();
        let out = step(slot, item, *p, k);
        let end = Instant::now();
        events.push(FrameEvent {
            pole: *p as u32,
            k: k as u32,
            due: at,
            start,
            end,
            late_ms: crate::stats::ms(at.max(free_at), start),
            out,
        });
        free_at = end;
    }
    events
}

// ---------------------------------------------------------------------------
// Readers.

#[derive(Debug, Default)]
pub struct DeltaLog {
    /// `(receipt, epoch)` per answered long-poll, in order.
    pub rx: Vec<(Instant, u64)>,
    /// The people set the deltas compose to (rendered person → count).
    pub people: BTreeMap<String, i64>,
    pub errors: Vec<String>,
}

#[derive(Debug, Clone, Copy)]
pub struct ReadRec {
    pub kind: Read,
    pub due: Instant,
    pub sent: Option<Instant>,
    pub done: Option<Instant>,
    pub status: u16,
    pub bytes: usize,
    pub late_ms: f64,
}

#[derive(Debug, Default)]
pub struct ReadLog {
    pub recs: Vec<ReadRec>,
    pub errors: Vec<String>,
}

/// The `/delta?since=N` long-poll reader: closed loop, one connection.
fn delta_reader(addr: std::net::SocketAddr, stop: &AtomicBool, seen: &AtomicU64) -> DeltaLog {
    let mut log = DeltaLog::default();
    let mut stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            log.errors.push(format!("delta connect: {e}"));
            return log;
        }
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut since = 0u64;
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 20);
    let mut chunk = vec![0u8; 1 << 16];
    while !stop.load(Ordering::Acquire) {
        let req = format!("GET /delta?since={since}&wait_ms=100 HTTP/1.1\r\nHost: campus\r\n\r\n");
        if let Err(e) = stream.write_all(req.as_bytes()) {
            log.errors.push(format!("delta write: {e}"));
            return log;
        }
        let head = loop {
            match parse_head(&buf) {
                Ok(Some(h)) => break h,
                Ok(None) => {}
                Err(e) => {
                    log.errors.push(format!("delta response: {e}"));
                    return log;
                }
            }
            match stream.read(&mut chunk) {
                Ok(0) => {
                    log.errors.push("delta connection closed".into());
                    return log;
                }
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e) => {
                    log.errors.push(format!("delta read: {e}"));
                    return log;
                }
            }
        };
        let at = Instant::now();
        let body = String::from_utf8_lossy(&buf[head.head_len..head.total()]).into_owned();
        buf.drain(..head.total());
        if head.status != 200 {
            log.errors.push(format!("/delta answered {}", head.status));
            return log;
        }
        let delta = match parse_delta(&body) {
            Ok(d) => d,
            Err(e) => {
                log.errors.push(format!("delta body: {e}"));
                return log;
            }
        };
        if delta.reset {
            log.people.clear();
        }
        for p in &delta.removed {
            let n = log.people.entry((*p).to_string()).or_insert(0);
            *n -= 1;
            if *n == 0 {
                log.people.remove(*p);
            }
        }
        for p in &delta.added {
            *log.people.entry((*p).to_string()).or_insert(0) += 1;
        }
        if delta.seq != since {
            log.rx.push((at, delta.seq));
            seen.store(delta.seq, Ordering::Release);
        }
        since = delta.seq;
    }
    log
}

/// A backlog this deep means the offered read load is past what the
/// server sustains; the run stops offering it rather than queue without
/// bound (the server buffers every pipelined answer).
const MAX_PENDING_READS: usize = 100_000;

/// The paced dashboard reader: open loop, one pipelined connection.
/// Requests go out at their due times whatever the server is doing;
/// each is timed from its due time to its response's last byte.
fn paced_reader(
    addr: std::net::SocketAddr,
    reads: &[Read],
    t0: Instant,
    hz: f64,
    give_up: Instant,
) -> ReadLog {
    let due = |i: usize| t0 + Duration::from_secs_f64((i as f64 + 0.5) / hz);
    let mut log = ReadLog {
        recs: reads
            .iter()
            .enumerate()
            .map(|(i, &kind)| ReadRec {
                kind,
                due: due(i),
                sent: None,
                done: None,
                status: 0,
                bytes: 0,
                late_ms: 0.0,
            })
            .collect(),
        errors: Vec::new(),
    };
    let mut stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            log.errors.push(format!("read connect: {e}"));
            return log;
        }
    };
    let _ = stream.set_nodelay(true);
    if let Err(e) = stream.set_nonblocking(true) {
        log.errors.push(format!("read nonblocking: {e}"));
        return log;
    }
    let fd = {
        use std::os::unix::io::AsRawFd;
        stream.as_raw_fd()
    };
    let mut out: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut out_pos = 0usize;
    let mut inbuf: Vec<u8> = Vec::with_capacity(1 << 20);
    let mut chunk = vec![0u8; 1 << 16];
    let mut pending: VecDeque<usize> = VecDeque::new();
    let mut next = 0usize;
    let mut etag = 0u64;
    let mut free_at = t0;
    while next < reads.len() || !pending.is_empty() {
        let now = Instant::now();
        if now >= give_up {
            log.errors.push(format!(
                "{} reads unanswered at the deadline",
                pending.len() + reads.len() - next
            ));
            break;
        }
        if pending.len() > MAX_PENDING_READS {
            log.errors.push(format!(
                "over {MAX_PENDING_READS} reads outstanding: the server fell behind the offered load"
            ));
            break;
        }
        while next < reads.len() && log.recs[next].due <= now {
            let rec = &mut log.recs[next];
            rec.sent = Some(now);
            rec.late_ms = crate::stats::ms(rec.due.max(free_at), now);
            rec.kind.write(etag, &mut out);
            pending.push_back(next);
            next += 1;
        }
        while out_pos < out.len() {
            match stream.write(&out[out_pos..]) {
                Ok(n) => out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    log.errors.push(format!("read write: {e}"));
                    return log;
                }
            }
        }
        if out_pos == out.len() {
            out.clear();
            out_pos = 0;
        }
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => {
                    log.errors.push("read connection closed by server".into());
                    return log;
                }
                Ok(n) => inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    log.errors.push(format!("read read: {e}"));
                    return log;
                }
            }
        }
        let got = Instant::now();
        let mut pos = 0usize;
        loop {
            match parse_head(&inbuf[pos..]) {
                Ok(Some(h)) => {
                    let Some(i) = pending.pop_front() else {
                        log.errors.push("response without a request".into());
                        return log;
                    };
                    let rec = &mut log.recs[i];
                    rec.done = Some(got);
                    rec.status = h.status;
                    rec.bytes = h.total();
                    if let Some(e) = h.etag {
                        etag = etag.max(e);
                    }
                    pos += h.total();
                }
                Ok(None) => break,
                Err(e) => {
                    log.errors.push(format!("read response: {e}"));
                    return log;
                }
            }
        }
        inbuf.drain(..pos);
        free_at = Instant::now();
        let wait = log.recs.get(next).map_or(Duration::from_millis(50), |r| {
            r.due.saturating_duration_since(free_at)
        });
        if wait.is_zero() {
            continue;
        }
        if pending.is_empty() && out.is_empty() {
            // Nothing in flight: sleep precisely to the next due time.
            std::thread::sleep(wait);
        } else {
            // poll(2) takes whole milliseconds; a response wakes it early.
            let mut fds = [fleet::sys::PollFd {
                fd,
                events: fleet::sys::POLLIN
                    | if out.is_empty() {
                        0
                    } else {
                        fleet::sys::POLLOUT
                    },
                revents: 0,
            }];
            let ms = wait.as_micros().div_ceil(1000).max(1) as u64;
            fleet::sys::poll_fds(&mut fds, Duration::from_millis(ms));
        }
    }
    log
}

// ---------------------------------------------------------------------------
// The run.

/// Everything a run recorded.
pub struct PhaseOut {
    pub traced: bool,
    pub measure: (Instant, Instant),
    pub events: Vec<FrameEvent>,
    pub links: Vec<Arc<LinkRec>>,
    pub pubs: PubLog,
    pub pub_spans: Vec<(Instant, Instant)>,
    pub delta: DeltaLog,
    pub reads: ReadLog,
    pub final_snap: CampusSnapshot,
    pub stats: FusionStats,
    /// Reports the agents' drop-oldest queues discarded.
    pub dropped_oldest: u64,
    pub cpu_util: f64,
    /// The host's steal share over the measured window.
    pub steal_frac: f64,
    pub peak_rss_mb: f64,
    pub hit_ratio: f64,
    pub errors: Vec<String>,
}

/// The system under test, built and ready for its first due frame.
pub struct System {
    agg: Arc<Aggregator>,
    reactor: Option<ReactorHandle>,
    server: HttpServer,
    recorder: Arc<PublishRecorder>,
    links: Vec<Arc<LinkRec>>,
    poles: PoleRuntime,
    traced: bool,
}

impl System {
    pub fn traced(&self) -> bool {
        self.traced
    }

    pub fn start(spec: &Spec, inputs: &Inputs, traced: bool) -> Result<System, String> {
        // Threads the library starts inherit the campus side's CPUs.
        crate::cpus::place(Side::Campus);
        let system = System::build(spec, inputs, traced);
        crate::cpus::unplace();
        system
    }

    fn build(spec: &Spec, inputs: &Inputs, traced: bool) -> Result<System, String> {
        let agg = Arc::new(Aggregator::new(
            inputs.registry.clone(),
            WalkwayConfig::default(),
            AggregatorConfig::default(),
        ));
        let cell = agg.snapshot_cell();
        let recorder = Arc::new(PublishRecorder {
            cell: Arc::downgrade(&cell),
            poles: spec.poles,
            traced,
            keep_after: OnceLock::new(),
            log: Mutex::new(PubLog::default()),
        });
        cell.add_hook(Arc::clone(&recorder) as Arc<dyn PublishHook>);
        let reactor = Some(agg.spawn_reactor());
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind the serve port: {e}"))?;
        let server = HttpServer::spawn(listener, cell, ServeConfig::default())
            .map_err(|e| format!("start the serve tier: {e}"))?;
        let links: Vec<Arc<LinkRec>> = (0..spec.poles)
            .map(|_| {
                Arc::new(LinkRec {
                    traced,
                    ..LinkRec::default()
                })
            })
            .collect();
        let poles = match &inputs.poles {
            PoleInputs::Agents(c) => {
                let mut agents = Vec::with_capacity(spec.poles);
                for (p, rec) in links.iter().enumerate() {
                    let int8 = c
                        .model
                        .quantize(&c.calibration, 100)
                        .map_err(|e| format!("quantise HAWC: {e}"))?;
                    let counter = SupervisedCounter::new(
                        CrowdCounter::new(NoFp32, counter_config()),
                        SupervisorConfig::default(),
                    )
                    .with_int8(CrowdCounter::new(int8, counter_config()));
                    let connector = LinkConnector {
                        agg: Arc::clone(&agg),
                        rec: Arc::clone(rec),
                    };
                    agents.push(PoleAgent::new(
                        counter,
                        Box::new(connector),
                        AgentConfig::for_pole(p as u32),
                    ));
                }
                PoleRuntime::Agents(agents)
            }
            PoleInputs::Synthetic(_) => {
                let mut ends = Vec::with_capacity(spec.poles);
                for (p, rec) in links.iter().enumerate() {
                    let mut end = open_link(&agg, rec);
                    end.send(&encode(&Message::Hello { pole_id: p as u32 }))
                        .map_err(|e| format!("hello on pole {p}: {e}"))?;
                    ends.push(end);
                }
                PoleRuntime::Synthetic(ends)
            }
        };
        Ok(System {
            agg,
            reactor,
            server,
            recorder,
            links,
            poles,
            traced,
        })
    }

    /// Stops and joins every thread the system started.
    pub fn stop(mut self) {
        self.agg.stop();
        if let Some(r) = self.reactor.take() {
            r.join();
        }
        self.server.stop();
    }

    /// Runs the paced load with the first frame due at `t0`.
    pub fn run(mut self, spec: &Spec, inputs: &Inputs, seconds: u64, t0: Instant) -> PhaseOut {
        let measure = (t0 + WARMUP, t0 + WARMUP + Duration::from_secs(seconds));
        let _ = self.recorder.keep_after.set(measure.0);
        let addr = self.server.local_addr();
        // At most nproc generator threads: one per pole-side CPU, up to 2.
        let gens = crate::cpus::pole_count().clamp(1, 2);
        let poles = spec.poles;
        let frames = inputs.frames_per_pole;
        let due = move |p: usize, k: usize| {
            t0 + FRAME_PERIOD * k as u32 + FRAME_PERIOD.mul_f64(p as f64 / poles as f64)
        };
        let stop_delta = AtomicBool::new(false);
        let seen = AtomicU64::new(0);
        let mut errors = Vec::new();
        let read_end = measure.1 + DRAIN + Duration::from_secs(5);

        let mut runtime = std::mem::replace(&mut self.poles, PoleRuntime::Synthetic(Vec::new()));
        let agg = Arc::clone(&self.agg);

        let spinners = crate::cpus::Spinners::start();
        let (events, pub_spans, delta, reads, (cpu_util, steal_frac), final_snap, final_epoch) =
            std::thread::scope(|s| {
                // Pole side: at most `gens` generator threads, pole p on
                // thread p % gens, frames phase-staggered across poles.
                let mut gen_handles = Vec::new();
                match &mut runtime {
                    PoleRuntime::Agents(agents) => {
                        let PoleInputs::Agents(c) = &inputs.poles else {
                            unreachable!("agent runtime is built from agent inputs")
                        };
                        let mut groups: Vec<Vec<(usize, &mut Agent)>> =
                            (0..gens).map(|_| Vec::new()).collect();
                        for (p, a) in agents.iter_mut().enumerate() {
                            groups[p % gens].push((p, a));
                        }
                        for mut group in groups {
                            let captures = &c.captures;
                            gen_handles.push(s.spawn(move || {
                                crate::cpus::place(Side::Poles);
                                let mut prev_adaptive = vec![true; group.len()];
                                pace(&mut group, frames, due, t0, |slot, agent, p, k| {
                                    let r = agent.step(&captures[p][k % captures[p].len()].cloud);
                                    let adaptive = std::mem::replace(
                                        &mut prev_adaptive[slot],
                                        r.eps_rung == EpsRung::Adaptive,
                                    );
                                    Some(AgentOut {
                                        count: r.count,
                                        held: r.held,
                                        adaptive,
                                        int8: r.precision == PrecisionRung::Int8,
                                        clusters: r.clusters.len(),
                                        queue_len: agent.queue_len(),
                                    })
                                })
                            }));
                        }
                    }
                    PoleRuntime::Synthetic(ends) => {
                        let PoleInputs::Synthetic(encoded) = &inputs.poles else {
                            unreachable!("synthetic runtime is built from synthetic inputs")
                        };
                        let mut groups: Vec<Vec<(usize, &mut PoleEnd)>> =
                            (0..gens).map(|_| Vec::new()).collect();
                        for (p, e) in ends.iter_mut().enumerate() {
                            groups[p % gens].push((p, e));
                        }
                        for mut group in groups {
                            gen_handles.push(s.spawn(move || {
                                crate::cpus::place(Side::Poles);
                                pace(&mut group, frames, due, t0, |_, end, p, k| {
                                    // A reliable loopback send cannot fail
                                    // while the reactor holds the link.
                                    let _ = end.send(&encoded[p][k]);
                                    None
                                })
                            }));
                        }
                    }
                }

                // The publisher: `Aggregator::snapshot()` every period.
                let run_end = t0 + FRAME_PERIOD * frames as u32;
                let publisher = {
                    let agg = &agg;
                    let traced = self.traced;
                    s.spawn(move || {
                        crate::cpus::place(Side::Campus);
                        let mut spans = Vec::new();
                        let mut j = 0u32;
                        loop {
                            let at = t0 + PUBLISH_PERIOD * j;
                            if at > run_end {
                                return spans;
                            }
                            sleep_until(at);
                            let a = Instant::now();
                            let _ = agg.snapshot();
                            if traced {
                                spans.push((a, Instant::now()));
                            }
                            j += 1;
                        }
                    })
                };

                let delta = {
                    let (stop, seen) = (&stop_delta, &seen);
                    s.spawn(move || {
                        crate::cpus::place(Side::Campus);
                        delta_reader(addr, stop, seen)
                    })
                };
                let reads = s.spawn(move || {
                    crate::cpus::place(Side::Campus);
                    paced_reader(addr, &inputs.reads, t0, spec.read_hz, read_end)
                });

                // CPU the system and the load used, without the spinners.
                let used = || crate::stats::cpu_seconds() - spinners.cpu_seconds();
                sleep_until(measure.0);
                let cpu0 = used();
                let host0 = crate::stats::host_ticks();
                sleep_until(measure.1);
                let cpu_util = (used() - cpu0) / (measure.1 - measure.0).as_secs_f64();
                let steal_frac = crate::stats::steal_frac(host0, crate::stats::host_ticks());

                let mut events = Vec::new();
                for h in gen_handles {
                    events.extend(h.join().expect("pole generator thread panicked"));
                }
                let pub_spans = publisher.join().expect("publisher thread panicked");
                drop(spinners);

                // Quiesce: every report handed to a link is fused (or shed,
                // which the accounting charges as lost).
                let sent = events.len() as u64;
                let deadline = Instant::now() + Duration::from_secs(3);
                while agg.stats().reports < sent && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(5));
                }
                let final_snap = agg.snapshot();
                let final_epoch = agg.snapshot_cell().epoch();
                let deadline = Instant::now() + Duration::from_secs(3);
                while seen.load(Ordering::Acquire) < final_epoch && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(5));
                }
                stop_delta.store(true, Ordering::Release);
                let delta = delta.join().expect("delta reader thread panicked");
                let reads = reads.join().expect("paced reader thread panicked");
                (
                    events,
                    pub_spans,
                    delta,
                    reads,
                    (cpu_util, steal_frac),
                    final_snap,
                    final_epoch,
                )
            });

        if delta.rx.last().map_or(0, |r| r.1) < final_epoch {
            errors.push("the /delta reader never caught up with the final publish".into());
        }
        let dropped_oldest = match &runtime {
            PoleRuntime::Agents(a) => a.iter().map(|a| a.stats().dropped_oldest).sum(),
            PoleRuntime::Synthetic(_) => 0,
        };
        let stats = self.agg.stats();
        let hit_ratio = self.server.metrics().cache_hit_ratio();
        let pubs = std::mem::take(&mut *lock(&self.recorder.log));
        let links = self.links.clone();
        let traced = self.traced;
        drop(runtime);
        self.stop();
        let mut events = events;
        events.sort_by_key(|e| (e.pole, e.k));
        PhaseOut {
            traced,
            measure,
            events,
            links,
            pubs,
            pub_spans,
            delta,
            reads,
            final_snap,
            stats,
            dropped_oldest,
            cpu_util,
            steal_frac,
            peak_rss_mb: crate::stats::peak_rss_mb(),
            hit_ratio,
            errors,
        }
    }
}

/// Index of each published epoch in the log.
pub fn epoch_index(pubs: &PubLog) -> HashMap<u64, usize> {
    pubs.entries
        .iter()
        .enumerate()
        .map(|(i, e)| (e.epoch, i))
        .collect()
}
