//! The socket pump: one thread, `poll(2)`, every connection
//! non-blocking.
//!
//! The pump owns a [`ServeCore`] and multiplexes the listener, a
//! publish waker, and every accepted connection through
//! [`fleet::sys::poll_fds`] — the same readiness primitive the ingest
//! reactor parks on, so a dashboard swarm costs one thread however
//! many sockets it opens. Publish wakeups ride a self-connected TCP
//! pair: the [`fleet::PublishHook`] fired by the aggregator's
//! [`SnapshotCell`] arms an atomic and writes one byte, which makes
//! `poll` return immediately and lets parked `/delta` long-polls
//! answer within a tick of the epoch turning over.
//!
//! Slow and hostile clients are bounded on every axis: request heads
//! are size-capped (`431`), a dribbled head hits the read deadline
//! (`408`), idle keep-alives are reaped, partially flushed responses
//! wait on `POLLOUT` without blocking anyone else, a connection whose
//! unflushed answers pass [`OUT_HIGH_WATER`](crate::OUT_HIGH_WATER) is not read (nor its
//! pipelined requests answered) until it drains, a closing
//! connection whose peer stops reading hits a write deadline instead
//! of holding its fd forever, and the accept loop stops at
//! `max_conns`.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fleet::{PublishHook, SnapshotCell};
use obs::{Registry, TelemetrySnapshot};
use parking_lot::Mutex;

use crate::core::{ConnStatus, Connection, ServeConfig, ServeCore, ServeMetrics};
use crate::http::write_error;

/// Wakes the pump out of `poll` when an epoch publishes. The armed
/// flag keeps the pipe to at most one in-flight byte however many
/// publishes race a slow tick.
struct Waker {
    tx: Mutex<TcpStream>,
    rx: TcpStream,
    armed: AtomicBool,
}

impl Waker {
    fn new() -> io::Result<Waker> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let tx = TcpStream::connect(listener.local_addr()?)?;
        let (rx, _) = listener.accept()?;
        rx.set_nonblocking(true)?;
        Ok(Waker {
            tx: Mutex::new(tx),
            rx,
            armed: AtomicBool::new(false),
        })
    }

    fn wake(&self) {
        if !self.armed.swap(true, Ordering::AcqRel) {
            let _ = self.tx.lock().write(&[1]);
        }
    }

    /// Swallows the pipe byte(s), then clears the armed flag. Takes
    /// `&self`: `Read` is implemented for `&TcpStream`, and the pump
    /// is the only reader.
    ///
    /// Order matters: pipe first, flag second. A `wake()` racing
    /// between the two sees `armed` still true and skips its write —
    /// safe, because its publish happened before the `store(false)`
    /// and the `adopt_epoch` that follows this drain observes it. The
    /// reverse order could consume a byte belonging to a wake that
    /// already saw `armed == false`, leaving the flag stuck true and
    /// every future wake silent.
    fn drain(&self) {
        let mut sink = [0u8; 16];
        let mut rx = &self.rx;
        while matches!(rx.read(&mut sink), Ok(n) if n > 0) {}
        self.armed.store(false, Ordering::Release);
    }
}

/// [`PublishHook`] bridging the aggregator's publish path to the
/// pump's waker. Fired outside the writer lock, so a wake costs the
/// fusion thread one atomic swap and (rarely) a loopback byte.
struct PublishWaker(Arc<Waker>);

impl PublishHook for PublishWaker {
    fn on_publish(&self, _epoch: u64) {
        self.0.wake();
    }
}

struct ConnState {
    stream: TcpStream,
    conn: Connection,
    status: ConnStatus,
    last_activity: Instant,
    /// Set while a request head is partially received; drives the
    /// slowloris read deadline.
    read_started: Option<Instant>,
    park_deadline: Option<Instant>,
}

/// A running snapshot server. Dropping it (or calling
/// [`HttpServer::stop`]) shuts the pump down.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    waker: Arc<Waker>,
    metrics: ServeMetrics,
    handle: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Spawns the pump thread over an already-bound listener, serving
    /// epochs published into `cell`.
    pub fn spawn(
        listener: TcpListener,
        cell: Arc<SnapshotCell>,
        cfg: ServeConfig,
    ) -> io::Result<HttpServer> {
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let waker = Arc::new(Waker::new()?);
        cell.add_hook(Arc::new(PublishWaker(Arc::clone(&waker))));
        let metrics = ServeMetrics::new(Arc::new(Registry::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let pump = Pump {
            listener,
            cell,
            cfg,
            core: ServeCore::new(cfg, metrics.clone()),
            waker: Arc::clone(&waker),
            stop: Arc::clone(&stop),
            conns: Vec::new(),
        };
        let handle = std::thread::Builder::new()
            .name("serve-pump".into())
            .spawn(move || pump.run())?;
        Ok(HttpServer {
            addr,
            stop,
            waker,
            metrics,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The serve-tier metric handles.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// The registry holding every `serve.*` instrument.
    pub fn registry(&self) -> Arc<Registry> {
        self.metrics.registry()
    }

    /// Portable dump of the serve-tier instruments — staple this onto
    /// a [`fleet::FleetHealth`] with `with_serve`.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.metrics.telemetry()
    }

    /// Stops the pump and joins it. Idempotent.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        self.waker.wake();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop();
    }
}

impl ConnState {
    /// Writes pending output until the socket would block.
    fn flush(&mut self, now: Instant) {
        while !self.conn.out.is_empty() {
            match self.stream.write(&self.conn.out) {
                Ok(0) => {
                    self.status = ConnStatus::Close;
                    self.conn.out.clear();
                    break;
                }
                Ok(n) => {
                    self.conn.out.drain(..n);
                    self.last_activity = now;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.status = ConnStatus::Close;
                    self.conn.out.clear();
                    break;
                }
            }
        }
    }

    /// Deadline bookkeeping after the core answered buffered input:
    /// a parked poll gets its wait deadline, a partial head starts
    /// the read deadline. Requests held back by backpressure are not
    /// a slow client, so they start no read deadline.
    fn note_answered(&mut self, now: Instant) {
        match self.status {
            ConnStatus::Parked => {
                let wait = self.conn.parked().map_or(0, |p| p.wait_ms);
                self.park_deadline = Some(now + Duration::from_millis(wait));
                self.read_started = None;
            }
            _ => {
                self.read_started = if self.conn.mid_request() && !self.conn.backpressured() {
                    Some(self.read_started.unwrap_or(now))
                } else {
                    None
                };
            }
        }
    }
}

struct Pump {
    listener: TcpListener,
    cell: Arc<SnapshotCell>,
    cfg: ServeConfig,
    core: ServeCore,
    waker: Arc<Waker>,
    stop: Arc<AtomicBool>,
    conns: Vec<ConnState>,
}

impl Pump {
    fn run(mut self) {
        let conns_gauge = self.core.metrics().registry().gauge("serve.conns");
        let tick = Duration::from_millis(self.cfg.tick_ms.max(1));
        let mut read_buf = [0u8; 16 * 1024];
        while !self.stop.load(Ordering::Acquire) {
            self.adopt_epoch();
            let (waker_ready, listener_ready, ready) = self.wait_ready(tick);
            if waker_ready {
                self.waker.drain();
            }
            if listener_ready {
                self.accept_ready();
            }
            let now = Instant::now();
            for idx in ready {
                self.read_conn(idx, now, &mut read_buf);
            }
            self.adopt_epoch();
            self.enforce_deadlines(now);
            self.flush_all(now);
            self.reap();
            conns_gauge.set(self.conns.len() as f64);
        }
    }

    /// Publishes any new epoch into the core and answers parked
    /// long-polls it unblocks.
    fn adopt_epoch(&mut self) {
        let (epoch, snap) = self.cell.read_versioned();
        if epoch <= self.core.seq() {
            return;
        }
        self.core.on_publish(epoch, snap);
        for c in &mut self.conns {
            if c.status == ConnStatus::Parked {
                c.status = self.core.unpark(&mut c.conn, false);
                if c.status != ConnStatus::Parked {
                    c.park_deadline = None;
                    c.last_activity = Instant::now();
                }
            }
        }
    }

    /// Polls the waker, listener, and every connection; returns
    /// (waker ready, listener ready, indices of ready connections).
    #[cfg(unix)]
    fn wait_ready(&mut self, tick: Duration) -> (bool, bool, Vec<usize>) {
        use std::os::unix::io::AsRawFd;
        let accepting = self.conns.len() < self.cfg.max_conns;
        let mut pfds = Vec::with_capacity(self.conns.len() + 2);
        pfds.push(fleet::sys::PollFd {
            fd: self.waker.rx.as_raw_fd(),
            events: fleet::sys::POLLIN,
            revents: 0,
        });
        pfds.push(fleet::sys::PollFd {
            fd: self.listener.as_raw_fd(),
            events: if accepting { fleet::sys::POLLIN } else { 0 },
            revents: 0,
        });
        for c in &self.conns {
            let mut events = if c.conn.backpressured() {
                0
            } else {
                fleet::sys::POLLIN
            };
            if !c.conn.out.is_empty() {
                events |= fleet::sys::POLLOUT;
            }
            pfds.push(fleet::sys::PollFd {
                fd: c.stream.as_raw_fd(),
                events,
                revents: 0,
            });
        }
        fleet::sys::poll_fds(&mut pfds, tick);
        let ready = pfds[2..]
            .iter()
            .enumerate()
            .filter(|(_, p)| p.revents != 0)
            .map(|(i, _)| i)
            .collect();
        (
            pfds[0].revents != 0,
            accepting && pfds[1].revents != 0,
            ready,
        )
    }

    /// Portable fallback: tick-paced sweep claiming everything ready;
    /// nonblocking reads resolve the spurious readiness.
    #[cfg(not(unix))]
    fn wait_ready(&mut self, tick: Duration) -> (bool, bool, Vec<usize>) {
        std::thread::sleep(tick);
        let accepting = self.conns.len() < self.cfg.max_conns;
        (true, accepting, (0..self.conns.len()).collect())
    }

    fn accept_ready(&mut self) {
        while self.conns.len() < self.cfg.max_conns {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.conns.push(ConnState {
                        stream,
                        conn: Connection::new(),
                        status: ConnStatus::Open,
                        last_activity: Instant::now(),
                        read_started: None,
                        park_deadline: None,
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }

    fn read_conn(&mut self, idx: usize, now: Instant, buf: &mut [u8]) {
        let c = &mut self.conns[idx];
        loop {
            if c.status == ConnStatus::Open && c.conn.backpressured() {
                // Leave the rest in the socket until a flush drains
                // the answers already owed.
                return;
            }
            match c.stream.read(buf) {
                Ok(0) => {
                    // Peer closed. A parked long-poll just goes away;
                    // anything else is a done connection.
                    c.status = ConnStatus::Close;
                    c.conn.out.clear();
                    return;
                }
                Ok(n) => {
                    if c.status == ConnStatus::Close {
                        // Draining a poisoned connection. Deliberately
                        // not activity: only flush progress defers the
                        // write deadline, so a peer cannot keep a
                        // wedged connection alive by dribbling bytes
                        // it never reads answers to.
                        continue;
                    }
                    c.last_activity = now;
                    if c.status == ConnStatus::Parked {
                        // Pipelined bytes behind a parked poll just
                        // buffer; they answer at unpark.
                        c.conn
                            .buffer_while_parked(&buf[..n], self.cfg.limits.max_head_bytes);
                        continue;
                    }
                    c.status = self.core.on_bytes(&mut c.conn, &buf[..n]);
                    c.note_answered(now);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    c.status = ConnStatus::Close;
                    c.conn.out.clear();
                    return;
                }
            }
        }
    }

    fn enforce_deadlines(&mut self, now: Instant) {
        let read_deadline = Duration::from_millis(self.cfg.read_deadline_ms);
        let idle_timeout = Duration::from_millis(self.cfg.idle_timeout_ms);
        for c in &mut self.conns {
            match c.status {
                ConnStatus::Parked => {
                    if c.park_deadline.is_some_and(|d| now >= d) {
                        c.status = self.core.unpark(&mut c.conn, true);
                        c.park_deadline = None;
                        c.last_activity = now;
                    }
                }
                ConnStatus::Open => {
                    if c.read_started.is_some_and(|t| now - t >= read_deadline) {
                        // Slowloris: a head dribbled past the deadline.
                        write_error(&mut c.conn.out, 408);
                        c.status = ConnStatus::Close;
                    } else if now - c.last_activity >= idle_timeout {
                        c.status = ConnStatus::Close;
                    }
                }
                ConnStatus::Close => {
                    // Write deadline: a closing connection still owes
                    // the peer bytes, but a peer that stops reading
                    // (slow-read, or silently gone) must not hold the
                    // fd and buffers forever. Flush progress refreshes
                    // `last_activity`; once it stalls past the idle
                    // timeout, drop the output so reap() collects the
                    // connection.
                    if !c.conn.out.is_empty() && now - c.last_activity >= idle_timeout {
                        c.conn.out.clear();
                    }
                }
            }
        }
    }

    /// Writes every connection's pending output, and answers the
    /// pipelined requests a backpressured connection left buffered
    /// once its output is back under [`OUT_HIGH_WATER`](crate::OUT_HIGH_WATER).
    fn flush_all(&mut self, now: Instant) {
        for c in &mut self.conns {
            loop {
                c.flush(now);
                if c.status != ConnStatus::Open || c.conn.backpressured() || c.conn.buffered() == 0
                {
                    break;
                }
                let before = c.conn.out.len();
                c.status = self.core.drain(&mut c.conn);
                c.note_answered(now);
                if c.conn.out.len() == before {
                    break; // only a partial head is buffered
                }
            }
        }
    }

    fn reap(&mut self) {
        self.conns.retain(|c| {
            let done = c.status == ConnStatus::Close && c.conn.out.is_empty();
            if done {
                let _ = c.stream.shutdown(Shutdown::Both);
            }
            !done
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pump holding one accepted connection in the given state; the
    /// returned client stream keeps the peer side alive.
    fn pump_with_conn(status: ConnStatus, last_activity: Instant, out: &[u8]) -> (Pump, TcpStream) {
        let cfg = ServeConfig::default();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        stream.set_nonblocking(true).expect("nonblocking");
        let mut conn = Connection::new();
        conn.out.extend_from_slice(out);
        let pump = Pump {
            listener,
            cell: Arc::new(SnapshotCell::new()),
            cfg,
            core: ServeCore::new(cfg, ServeMetrics::default()),
            waker: Arc::new(Waker::new().expect("waker")),
            stop: Arc::new(AtomicBool::new(false)),
            conns: vec![ConnState {
                stream,
                conn,
                status,
                last_activity,
                read_started: None,
                park_deadline: None,
            }],
        };
        (pump, client)
    }

    /// Regression: a Close-status connection whose peer never drains
    /// the response used to hold its fd and buffers forever (no reap,
    /// no deadline), so `max_conns` slow-read clients could wedge the
    /// accept loop. The write deadline must clear the stalled output
    /// and let reap() collect the connection.
    #[test]
    fn stalled_close_connection_hits_the_write_deadline() {
        let stale = match Instant::now().checked_sub(Duration::from_secs(60)) {
            Some(t) => t,
            None => return, // monotonic clock too young to fake staleness
        };
        let (mut pump, _client) =
            pump_with_conn(ConnStatus::Close, stale, b"bytes the peer never reads");
        pump.enforce_deadlines(Instant::now());
        assert!(
            pump.conns[0].conn.out.is_empty(),
            "write deadline must drop the stalled output"
        );
        pump.reap();
        assert!(
            pump.conns.is_empty(),
            "reap must collect the wedged connection"
        );
    }

    /// The inverse: a Close connection whose flush is making progress
    /// (fresh `last_activity`) keeps its pending output and stays.
    #[test]
    fn progressing_close_connection_keeps_its_output() {
        let (mut pump, _client) =
            pump_with_conn(ConnStatus::Close, Instant::now(), b"still flushing");
        pump.enforce_deadlines(Instant::now());
        assert!(!pump.conns[0].conn.out.is_empty());
        pump.reap();
        assert_eq!(pump.conns.len(), 1, "a progressing flush is not reaped");
    }
}
