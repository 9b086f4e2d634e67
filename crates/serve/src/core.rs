//! The serving gateway: pure request handling over published campus
//! state, independent of any socket.
//!
//! [`ServeCore`] owns everything a request needs — the current
//! snapshot and its cached JSON body, a short deque of retained
//! epochs for `/delta` diffs, the [`HistoryRing`] — and writes
//! responses straight into a [`Connection`]'s reusable output buffer.
//! A publish only installs the snapshot; the full `/snapshot` body is
//! rendered by the first full read of the epoch, so parked `/delta`
//! polls never wait behind it and an unread epoch costs no render.
//! The server pump (`server.rs`) feeds it socket bytes; tests and the
//! allocation pin drive it directly, which is what keeps the hot path
//! auditable: one call, no threads, no I/O.
//!
//! ETag discipline: the ETag of every stateful endpoint is the fusion
//! publish seq (the [`fleet::SnapshotCell`] epoch). A publish bumps
//! it by exactly one, so `If-None-Match: "<seq>"` turns an unchanged
//! poll into a ~100-byte 304 that touches no snapshot data at all.

use std::cmp::Ordering;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use fleet::json::{push_f64, push_i64, push_person, push_str, push_u64};
use fleet::{CampusSnapshot, FusedPerson};
use obs::{Counter, Histogram, Registry, TelemetrySnapshot};

use crate::http::{
    parse_request, query_param, write_error, write_response, HttpLimits, ParseStep, Request,
};
use crate::ring::{tier_index, HistoryRing, TIER_LABELS};

/// Serving-tier configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Request parsing bounds.
    pub limits: HttpLimits,
    /// Zone grid pitch for `/zone/{x},{y}` slices; must match the
    /// fusion config of the aggregator being served.
    pub zone_size_m: f64,
    /// Closed history buckets retained per tier.
    pub history_cap: usize,
    /// Published epochs retained for `/delta` diffs; an older `since`
    /// gets a `reset` response with the full people list.
    pub retain_epochs: usize,
    /// Ceiling on `/delta` long-poll parking; a parked poll answers
    /// with an empty delta at the deadline.
    pub longpoll_max_ms: u64,
    /// A connection that dribbles an incomplete request head longer
    /// than this is answered 408 and closed (slowloris cutoff).
    pub read_deadline_ms: u64,
    /// Idle keep-alive connections older than this are closed.
    pub idle_timeout_ms: u64,
    /// Reactor poll tick (also bounds deadline detection latency).
    pub tick_ms: u64,
    /// Accepted-connection ceiling; beyond it new sockets are dropped.
    pub max_conns: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            limits: HttpLimits::default(),
            zone_size_m: 20.0,
            history_cap: 720,
            retain_epochs: 128,
            longpoll_max_ms: 10_000,
            read_deadline_ms: 5_000,
            idle_timeout_ms: 30_000,
            tick_ms: 25,
            max_conns: 1024,
        }
    }
}

/// Cached instrument handles over a shared registry, so the hot path
/// never takes the registry's name-lookup lock.
#[derive(Debug, Clone)]
pub struct ServeMetrics {
    registry: Arc<Registry>,
    requests: Arc<Counter>,
    r200: Arc<Counter>,
    r304: Arc<Counter>,
    r4xx: Arc<Counter>,
    parked: Arc<Counter>,
    publishes: Arc<Counter>,
    bytes_out: Arc<Counter>,
    handle_ms: Arc<Histogram>,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        ServeMetrics::new(Arc::new(Registry::new()))
    }
}

impl ServeMetrics {
    /// Instruments bound into `registry` under `serve.*` names.
    pub fn new(registry: Arc<Registry>) -> ServeMetrics {
        ServeMetrics {
            requests: registry.counter("serve.requests"),
            r200: registry.counter("serve.200"),
            r304: registry.counter("serve.304"),
            r4xx: registry.counter("serve.4xx"),
            parked: registry.counter("serve.parked"),
            publishes: registry.counter("serve.publishes"),
            bytes_out: registry.counter("serve.bytes_out"),
            handle_ms: registry.histogram("serve.handle_ms"),
            registry,
        }
    }

    /// The backing registry (for [`Registry::telemetry`] dumps).
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// Portable dump of every `serve.*` instrument.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.registry.telemetry()
    }

    /// `304 / (200 + 304)` — how many stateful reads the ETag
    /// discipline answered without touching snapshot data.
    pub fn cache_hit_ratio(&self) -> f64 {
        let hits = self.r304.get();
        let answered = self.r200.get() + hits;
        if answered == 0 {
            0.0
        } else {
            hits as f64 / answered as f64
        }
    }
}

/// Unflushed output past which a connection stops being read and its
/// buffered pipelined requests stop being answered, until a flush
/// brings it back under. Bounds a connection's output buffer at this
/// plus one response, however many requests a client pipelines
/// without reading the answers.
pub const OUT_HIGH_WATER: usize = 256 * 1024;

/// A parked `/delta` long-poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parked {
    /// The seq the client has already seen.
    pub since: u64,
    /// Client-requested wait, already clamped to
    /// [`ServeConfig::longpoll_max_ms`].
    pub wait_ms: u64,
}

/// Per-connection state: reusable input/output buffers and parking.
/// Both buffers grow to their working size during warmup and are then
/// reused forever — the warmed request path performs zero transient
/// allocations (pinned by `tests/serve_allocs.rs`).
#[derive(Debug, Default)]
pub struct Connection {
    inbuf: Vec<u8>,
    /// Rendered-but-unflushed response bytes; the owner drains this
    /// to the socket.
    pub out: Vec<u8>,
    parked: Option<Parked>,
    close_after: bool,
}

/// What the connection should do after a core call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnStatus {
    /// Keep the connection open and keep reading.
    Open,
    /// A long-poll is parked; flush `out`, stop parsing until
    /// [`ServeCore::unpark`] clears it.
    Parked,
    /// Flush `out`, then close the connection.
    Close,
}

impl Connection {
    /// A fresh connection with empty buffers.
    pub fn new() -> Connection {
        Connection::default()
    }

    /// The parked long-poll, if any.
    pub fn parked(&self) -> Option<Parked> {
        self.parked
    }

    /// Whether a partially received request head is pending (drives
    /// the read deadline).
    pub fn mid_request(&self) -> bool {
        !self.inbuf.is_empty() && self.parked.is_none()
    }

    /// Whether unflushed output is at [`OUT_HIGH_WATER`]: the owner
    /// should stop reading until a flush drains it, then call
    /// [`ServeCore::drain`] to answer what is still buffered.
    pub fn backpressured(&self) -> bool {
        self.out.len() >= OUT_HIGH_WATER
    }

    /// Buffered input bytes (bounded-memory assertions in tests).
    pub fn buffered(&self) -> usize {
        self.inbuf.len()
    }

    /// Buffers pipelined bytes arriving behind a parked long-poll,
    /// capped at `cap` so a client cannot grow the buffer while its
    /// poll is parked; overflow is dropped (the connection will fail
    /// to parse and close at unpark).
    pub fn buffer_while_parked(&mut self, bytes: &[u8], cap: usize) {
        let room = cap.saturating_sub(self.inbuf.len());
        let take = bytes.len().min(room);
        self.inbuf.extend_from_slice(&bytes[..take]);
    }
}

/// The serving gateway. See the module docs.
pub struct ServeCore {
    cfg: ServeConfig,
    metrics: ServeMetrics,
    seq: u64,
    snap: Arc<CampusSnapshot>,
    /// `{"seq":N,"campus":{…}}`, rendered by the first full read of
    /// an epoch into this persistent buffer.
    snapshot_body: Vec<u8>,
    /// The seq `snapshot_body` currently holds, if any.
    body_seq: Option<u64>,
    retained: VecDeque<(u64, Arc<CampusSnapshot>)>,
    ring: HistoryRing,
    /// Reusable body scratch for endpoints rendered per request.
    scratch: Vec<u8>,
    /// `/delta` diff scratch: person indices of the base and current
    /// snapshots, and which of them the answer lists.
    delta_base: Vec<usize>,
    delta_cur: Vec<usize>,
    removed: Vec<bool>,
    added: Vec<bool>,
}

impl ServeCore {
    /// A core with no epoch published yet (seq 0, empty campus).
    pub fn new(cfg: ServeConfig, metrics: ServeMetrics) -> ServeCore {
        ServeCore {
            cfg,
            metrics,
            seq: 0,
            snap: Arc::new(CampusSnapshot::default()),
            snapshot_body: Vec::new(),
            body_seq: None,
            retained: VecDeque::new(),
            ring: HistoryRing::new(cfg.history_cap),
            scratch: Vec::new(),
            delta_base: Vec::new(),
            delta_cur: Vec::new(),
            removed: Vec::new(),
            added: Vec::new(),
        }
    }

    /// The seq of the snapshot currently being served.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The metrics handles (shared with the owning server).
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// Installs a newly published snapshot: retains the epoch for
    /// `/delta` and feeds the history ring. Renders nothing — the
    /// `/snapshot` body waits for its first reader. Parked long-polls
    /// should be [`ServeCore::unpark`]ed after this.
    pub fn on_publish(&mut self, seq: u64, snap: Arc<CampusSnapshot>) {
        if seq <= self.seq {
            return; // stale or duplicate publish notification
        }
        self.seq = seq;
        self.ring
            .push(snap.at_ms, snap.occupancy, snap.people.len() as u32, seq);
        while self.retained.len() >= self.cfg.retain_epochs.max(1) {
            self.retained.pop_front();
        }
        self.retained.push_back((seq, Arc::clone(&snap)));
        self.snap = snap;
        self.metrics.publishes.add(1);
    }

    /// Feeds received bytes into `conn`, answering every complete
    /// pipelined request in order. Bounded: buffered input never
    /// exceeds `max_head_bytes` plus one read's worth of bytes.
    pub fn on_bytes(&mut self, conn: &mut Connection, bytes: &[u8]) -> ConnStatus {
        conn.inbuf.extend_from_slice(bytes);
        self.drain(conn)
    }

    /// Parses and answers as many buffered requests as possible.
    pub fn drain(&mut self, conn: &mut Connection) -> ConnStatus {
        if conn.parked.is_some() {
            return ConnStatus::Parked;
        }
        if conn.close_after {
            return ConnStatus::Close;
        }
        let mut pos = 0usize;
        let status = loop {
            if conn.backpressured() {
                // The rest stays buffered until the owner flushes.
                break ConnStatus::Open;
            }
            let started = Instant::now();
            match parse_request(&conn.inbuf[pos..], &self.cfg.limits) {
                ParseStep::Incomplete => break ConnStatus::Open,
                ParseStep::Reject { status, .. } => {
                    self.metrics.requests.add(1);
                    self.metrics.r4xx.add(1);
                    let before = conn.out.len();
                    write_error(&mut conn.out, status);
                    self.metrics.bytes_out.add((conn.out.len() - before) as u64);
                    conn.close_after = true;
                    // Poisoned framing: drop whatever trailed it.
                    pos = conn.inbuf.len();
                    break ConnStatus::Close;
                }
                ParseStep::Parsed { req, consumed } => {
                    pos += consumed;
                    // `req` borrows `conn.inbuf`; the answer writes
                    // only into the disjoint `conn.out`.
                    let (parked, close) = self.answer(&req, &mut conn.out);
                    self.metrics
                        .handle_ms
                        .observe(started.elapsed().as_secs_f64() * 1e3);
                    if close {
                        conn.close_after = true;
                    }
                    if let Some(p) = parked {
                        conn.parked = Some(p);
                        break ConnStatus::Parked;
                    }
                    if conn.close_after {
                        // Honor Connection: close mid-pipeline.
                        pos = conn.inbuf.len();
                        break ConnStatus::Close;
                    }
                }
            }
        };
        if pos > 0 {
            conn.inbuf.drain(..pos);
        }
        status
    }

    /// Re-examines a parked long-poll: answers it if the epoch moved
    /// past `since`, or — when `timed_out` — with an empty delta.
    /// Resumes any pipelined requests buffered behind it.
    pub fn unpark(&mut self, conn: &mut Connection, timed_out: bool) -> ConnStatus {
        let parked = match conn.parked {
            Some(p) => p,
            None => return self.drain(conn),
        };
        if self.seq <= parked.since && !timed_out {
            return ConnStatus::Parked;
        }
        conn.parked = None;
        let before = conn.out.len();
        self.render_delta(parked.since);
        let body = std::mem::take(&mut self.scratch);
        // `close_after` was recorded when the poll parked, so the
        // Connection header matches what the owner actually does.
        write_response(
            &mut conn.out,
            200,
            Some(self.seq),
            "application/json",
            &body,
            conn.close_after,
        );
        self.scratch = body;
        self.metrics.r200.add(1);
        self.metrics.bytes_out.add((conn.out.len() - before) as u64);
        self.drain(conn)
    }

    /// Answers one request into `out`; returns the parked long-poll
    /// (if the request parked instead of answering) and whether the
    /// connection must close afterwards.
    fn answer(&mut self, req: &Request<'_>, out: &mut Vec<u8>) -> (Option<Parked>, bool) {
        self.metrics.requests.add(1);
        let mut close = req.close;
        let before = out.len();
        let mut parked = None;

        match req.path {
            "/snapshot" => {
                if req.if_none_match == Some(self.seq) {
                    write_response(out, 304, Some(self.seq), "", b"", req.close);
                    self.metrics.r304.add(1);
                } else {
                    // The first full read of an epoch renders the
                    // body; every later one is a header write plus
                    // one memcpy.
                    if self.body_seq != Some(self.seq) {
                        self.snapshot_body.clear();
                        push_str(&mut self.snapshot_body, "{\"seq\":");
                        push_u64(&mut self.snapshot_body, self.seq);
                        push_str(&mut self.snapshot_body, ",\"campus\":");
                        self.snap.write_json(&mut self.snapshot_body);
                        self.snapshot_body.push(b'}');
                        self.body_seq = Some(self.seq);
                    }
                    let body = std::mem::take(&mut self.snapshot_body);
                    write_response(
                        out,
                        200,
                        Some(self.seq),
                        "application/json",
                        &body,
                        req.close,
                    );
                    self.snapshot_body = body;
                    self.metrics.r200.add(1);
                }
            }
            "/history" => {
                let res = query_param(req.query, "res").unwrap_or("1s");
                match tier_index(res) {
                    None => {
                        write_error(out, 400);
                        self.metrics.r4xx.add(1);
                        close = true;
                    }
                    Some(tier) => {
                        if req.if_none_match == Some(self.seq) {
                            write_response(out, 304, Some(self.seq), "", b"", req.close);
                            self.metrics.r304.add(1);
                        } else {
                            self.render_history(tier);
                            self.respond_scratch(out, req.close);
                        }
                    }
                }
            }
            "/delta" => match query_param(req.query, "since").and_then(|s| s.parse::<u64>().ok()) {
                None => {
                    write_error(out, 400);
                    self.metrics.r4xx.add(1);
                    close = true;
                }
                Some(since) if since >= self.seq => {
                    let wait_ms = query_param(req.query, "wait_ms")
                        .and_then(|s| s.parse::<u64>().ok())
                        .unwrap_or(self.cfg.longpoll_max_ms)
                        .min(self.cfg.longpoll_max_ms);
                    parked = Some(Parked { since, wait_ms });
                    self.metrics.parked.add(1);
                }
                Some(since) => {
                    self.render_delta(since);
                    self.respond_scratch(out, req.close);
                }
            },
            "/" => {
                write_response(out, 200, None, "text/plain", INDEX_BODY, req.close);
                self.metrics.r200.add(1);
            }
            path => {
                if let Some(rest) = path.strip_prefix("/zone/") {
                    match parse_zone_id(rest) {
                        Some((zx, zy)) => {
                            if req.if_none_match == Some(self.seq) {
                                write_response(out, 304, Some(self.seq), "", b"", req.close);
                                self.metrics.r304.add(1);
                            } else {
                                self.render_zone(zx, zy);
                                self.respond_scratch(out, req.close);
                            }
                        }
                        None => {
                            write_error(out, 400);
                            self.metrics.r4xx.add(1);
                            close = true;
                        }
                    }
                } else if let Some(rest) = path.strip_prefix("/pole/") {
                    match rest.parse::<u32>() {
                        Ok(pole_id) => {
                            if !self.snap.poles.iter().any(|p| p.pole_id == pole_id) {
                                // Routing 404: the request is well
                                // formed, the resource just isn't
                                // there — keep the connection. A
                                // dashboard polling a decommissioned
                                // pole shouldn't pay a reconnect per
                                // poll; only parse-level rejects
                                // poison the connection.
                                self.not_found(out, req.close);
                            } else if req.if_none_match == Some(self.seq) {
                                write_response(out, 304, Some(self.seq), "", b"", req.close);
                                self.metrics.r304.add(1);
                            } else {
                                self.render_pole(pole_id);
                                self.respond_scratch(out, req.close);
                            }
                        }
                        Err(_) => {
                            write_error(out, 400);
                            self.metrics.r4xx.add(1);
                            close = true;
                        }
                    }
                } else {
                    // Unknown path: same routing-404 semantics.
                    self.not_found(out, req.close);
                }
            }
        }
        self.metrics.bytes_out.add((out.len() - before) as u64);
        (parked, close)
    }

    /// Writes a routing 404 (well-formed request, unknown resource)
    /// that honors the request's own keep-alive choice — unlike
    /// [`write_error`], which always closes.
    fn not_found(&mut self, out: &mut Vec<u8>, close: bool) {
        write_response(out, 404, None, "text/plain", b"Not Found", close);
        self.metrics.r4xx.add(1);
    }

    /// Writes the scratch body as a 200 with the current seq ETag.
    fn respond_scratch(&mut self, out: &mut Vec<u8>, close: bool) {
        let body = std::mem::take(&mut self.scratch);
        write_response(out, 200, Some(self.seq), "application/json", &body, close);
        self.scratch = body;
        self.metrics.r200.add(1);
    }

    /// Renders `/zone/{zx},{zy}` into scratch: the grid cell's count
    /// and the fused people inside it.
    fn render_zone(&mut self, zx: i32, zy: i32) {
        self.scratch.clear();
        let count = self
            .snap
            .zones
            .iter()
            .find(|z| z.zone_x == zx && z.zone_y == zy)
            .map_or(0, |z| z.count);
        push_str(&mut self.scratch, "{\"seq\":");
        push_u64(&mut self.scratch, self.seq);
        push_str(&mut self.scratch, ",\"zone_x\":");
        push_i64(&mut self.scratch, i64::from(zx));
        push_str(&mut self.scratch, ",\"zone_y\":");
        push_i64(&mut self.scratch, i64::from(zy));
        push_str(&mut self.scratch, ",\"count\":");
        push_u64(&mut self.scratch, u64::from(count));
        push_str(&mut self.scratch, ",\"people\":[");
        let zone = self.cfg.zone_size_m.max(1e-9);
        let mut first = true;
        for p in &self.snap.people {
            let px = (p.x / zone).floor() as i64;
            let py = (p.y / zone).floor() as i64;
            if px == i64::from(zx) && py == i64::from(zy) {
                if !first {
                    self.scratch.push(b',');
                }
                first = false;
                push_person(&mut self.scratch, p, ",");
            }
        }
        push_str(&mut self.scratch, "]}");
    }

    /// Renders `/pole/{id}` into scratch: the pole's status row plus
    /// every fused person it observes.
    fn render_pole(&mut self, pole_id: u32) {
        self.scratch.clear();
        push_str(&mut self.scratch, "{\"seq\":");
        push_u64(&mut self.scratch, self.seq);
        push_str(&mut self.scratch, ",\"pole\":");
        match self.snap.poles.iter().find(|p| p.pole_id == pole_id) {
            Some(p) => {
                push_str(&mut self.scratch, "{\"pole_id\":");
                push_u64(&mut self.scratch, u64::from(p.pole_id));
                push_str(&mut self.scratch, ",\"liveness\":\"");
                push_str(&mut self.scratch, p.liveness.as_str());
                push_str(&mut self.scratch, "\",\"trust\":\"");
                push_str(&mut self.scratch, p.trust.as_str());
                push_str(&mut self.scratch, "\",\"count\":");
                push_u64(&mut self.scratch, u64::from(p.count));
                push_str(&mut self.scratch, ",\"seq\":");
                push_u64(&mut self.scratch, p.seq);
                push_str(&mut self.scratch, ",\"silence_ms\":");
                push_f64(&mut self.scratch, p.silence_ms);
                push_str(&mut self.scratch, ",\"held\":");
                push_str(&mut self.scratch, if p.held { "true" } else { "false" });
                self.scratch.push(b'}');
            }
            None => push_str(&mut self.scratch, "null"),
        }
        push_str(&mut self.scratch, ",\"people\":[");
        let mut first = true;
        for p in &self.snap.people {
            if p.observers.contains(&pole_id) {
                if !first {
                    self.scratch.push(b',');
                }
                first = false;
                push_person(&mut self.scratch, p, ",");
            }
        }
        push_str(&mut self.scratch, "]}");
    }

    /// Renders `/history?res=…` into scratch.
    fn render_history(&mut self, tier: usize) {
        self.scratch.clear();
        push_str(&mut self.scratch, "{\"seq\":");
        push_u64(&mut self.scratch, self.seq);
        push_str(&mut self.scratch, ",\"res\":\"");
        push_str(
            &mut self.scratch,
            TIER_LABELS[tier.min(TIER_LABELS.len() - 1)],
        );
        push_str(&mut self.scratch, "\",\"buckets\":[");
        let mut first = true;
        // Buckets render via an index-free iterator; scratch is the
        // only buffer touched.
        let mut body = std::mem::take(&mut self.scratch);
        for b in self.ring.buckets(tier) {
            if !first {
                body.push(b',');
            }
            first = false;
            push_str(&mut body, "{\"t\":");
            push_u64(&mut body, b.start_ms);
            push_str(&mut body, ",\"n\":");
            push_u64(&mut body, u64::from(b.samples));
            push_str(&mut body, ",\"min\":");
            push_u64(&mut body, u64::from(b.occ_min));
            push_str(&mut body, ",\"max\":");
            push_u64(&mut body, u64::from(b.occ_max));
            push_str(&mut body, ",\"mean\":");
            push_f64(&mut body, b.occ_mean());
            push_str(&mut body, ",\"last\":");
            push_u64(&mut body, u64::from(b.occ_last));
            push_str(&mut body, ",\"people\":");
            push_u64(&mut body, u64::from(b.people_last));
            body.push(b'}');
        }
        self.scratch = body;
        push_str(&mut self.scratch, "]}");
    }

    /// Renders a `/delta?since=N` body into scratch: people added and
    /// removed between retained seq `N` and the current snapshot, or
    /// a `reset` with the full list when `N` is outside the retained
    /// window.
    fn render_delta(&mut self, since: u64) {
        self.scratch.clear();
        push_str(&mut self.scratch, "{\"since\":");
        push_u64(&mut self.scratch, since);
        push_str(&mut self.scratch, ",\"seq\":");
        push_u64(&mut self.scratch, self.seq);
        if since == self.seq {
            // Long-poll deadline with no publish: empty delta.
            push_str(
                &mut self.scratch,
                ",\"reset\":false,\"added\":[],\"removed\":[]}",
            );
            return;
        }
        let base = self
            .retained
            .iter()
            .find(|(seq, _)| *seq == since)
            .map(|(_, snap)| Arc::clone(snap));
        let base = match base {
            Some(base) => base,
            None => {
                // `since` fell out of the retained window (or never
                // existed): the only sound answer is a full resync.
                push_str(&mut self.scratch, ",\"reset\":true,\"people\":[");
                let snap = Arc::clone(&self.snap);
                let mut first = true;
                for p in &snap.people {
                    if !first {
                        self.scratch.push(b',');
                    }
                    first = false;
                    push_person(&mut self.scratch, p, ",");
                }
                push_str(&mut self.scratch, "]}");
                return;
            }
        };
        let cur = Arc::clone(&self.snap);
        self.mark_changes(&base.people, &cur.people);
        push_str(&mut self.scratch, ",\"reset\":false,\"added\":[");
        push_marked(&mut self.scratch, &cur.people, &self.added);
        push_str(&mut self.scratch, "],\"removed\":[");
        push_marked(&mut self.scratch, &base.people, &self.removed);
        push_str(&mut self.scratch, "]}");
    }

    /// Multiset diff on exact person identity (bit-level position,
    /// confidence, observer set): a person counts as "changed"
    /// exactly once however many epochs apart the two views are.
    /// Where a person occurs `b` times in `base` and `c` times in
    /// `cur`, the first `b − min(b, c)` base occurrences are marked
    /// removed and the last `c − min(b, c)` current ones added.
    /// Both sides are index arrays sorted by identity in persistent
    /// scratch, merged run by run: nothing is cloned or allocated
    /// once the scratch has grown.
    fn mark_changes(&mut self, base: &[FusedPerson], cur: &[FusedPerson]) {
        let ServeCore {
            delta_base,
            delta_cur,
            removed,
            added,
            ..
        } = self;
        sort_by_identity(delta_base, base);
        sort_by_identity(delta_cur, cur);
        removed.clear();
        removed.resize(base.len(), false);
        added.clear();
        added.resize(cur.len(), false);
        let (mut i, mut j) = (0usize, 0usize);
        while i < delta_base.len() || j < delta_cur.len() {
            let order = match (delta_base.get(i), delta_cur.get(j)) {
                (Some(&b), Some(&c)) => identity_cmp(&base[b], &cur[c]),
                (Some(_), None) => Ordering::Less,
                _ => Ordering::Greater,
            };
            let nb = if order.is_le() {
                run_len(&delta_base[i..], base)
            } else {
                0
            };
            let nc = if order.is_ge() {
                run_len(&delta_cur[j..], cur)
            } else {
                0
            };
            let kept = nb.min(nc);
            for &b in &delta_base[i..i + nb - kept] {
                removed[b] = true;
            }
            for &c in &delta_cur[j + kept..j + nc] {
                added[c] = true;
            }
            i += nb;
            j += nc;
        }
    }
}

/// Total order on exact person identity; equal means the same bits.
fn identity_cmp(a: &FusedPerson, b: &FusedPerson) -> Ordering {
    (a.x.to_bits(), a.y.to_bits(), a.confidence.to_bits())
        .cmp(&(b.x.to_bits(), b.y.to_bits(), b.confidence.to_bits()))
        .then_with(|| a.observers.cmp(&b.observers))
}

/// Fills `idx` with `0..people.len()` sorted by identity, ties by
/// index (so equal people keep their snapshot order).
fn sort_by_identity(idx: &mut Vec<usize>, people: &[FusedPerson]) {
    idx.clear();
    idx.extend(0..people.len());
    idx.sort_unstable_by(|&a, &b| identity_cmp(&people[a], &people[b]).then(a.cmp(&b)));
}

/// How many leading entries of `idx` name people identical to the
/// first.
fn run_len(idx: &[usize], people: &[FusedPerson]) -> usize {
    let first = &people[idx[0]];
    idx.iter()
        .take_while(|&&k| identity_cmp(&people[k], first).is_eq())
        .count()
}

/// Appends the marked people as comma-separated JSON objects, in
/// snapshot order.
fn push_marked(out: &mut Vec<u8>, people: &[FusedPerson], marks: &[bool]) {
    let mut first = true;
    for (p, _) in people.iter().zip(marks).filter(|(_, &m)| m) {
        if !first {
            out.push(b',');
        }
        first = false;
        push_person(out, p, ",");
    }
}

const INDEX_BODY: &[u8] = b"HAWC-CC snapshot serving tier\n\
GET /snapshot            full fused campus snapshot (ETag = publish seq)\n\
GET /zone/{x},{y}        one occupancy-grid cell and its people\n\
GET /pole/{id}           one pole's status row and observed people\n\
GET /delta?since=N       people changes since seq N (long-polls until next publish)\n\
GET /history?res=1s|10s|1m  downsampled occupancy time series\n";

fn parse_zone_id(rest: &str) -> Option<(i32, i32)> {
    let (x, y) = rest.split_once(',')?;
    Some((x.parse().ok()?, y.parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleet::sentinel::TrustState;
    use fleet::{Liveness, PoleStatus, ZoneOccupancy};

    fn person(x: f64, y: f64, observers: &[u32]) -> FusedPerson {
        FusedPerson {
            x,
            y,
            confidence: 0.9,
            observers: observers.to_vec(),
        }
    }

    fn snap(at_ms: f64, people: Vec<FusedPerson>) -> Arc<CampusSnapshot> {
        let occupancy = people.len() as u32;
        Arc::new(CampusSnapshot {
            at_ms,
            occupancy,
            people,
            unmapped: 0,
            zones: vec![ZoneOccupancy {
                zone_x: 0,
                zone_y: 0,
                count: occupancy,
            }],
            poles: vec![PoleStatus {
                pole_id: 3,
                liveness: Liveness::Live,
                health: None,
                count: occupancy,
                seq: 1,
                silence_ms: 10.0,
                held: false,
                trust: TrustState::Trusted,
            }],
            live: 1,
            stale: 0,
            dead: 0,
            quarantined: 0,
            p95_silence_ms: 10.0,
        })
    }

    fn run(core: &mut ServeCore, conn: &mut Connection, req: &str) -> (ConnStatus, String) {
        conn.out.clear();
        let status = core.on_bytes(conn, req.as_bytes());
        (status, String::from_utf8(conn.out.clone()).unwrap())
    }

    #[test]
    fn snapshot_etag_roundtrip() {
        let mut core = ServeCore::new(ServeConfig::default(), ServeMetrics::default());
        core.on_publish(1, snap(1000.0, vec![person(1.0, 2.0, &[3])]));
        let mut conn = Connection::new();
        let (st, resp) = run(&mut core, &mut conn, "GET /snapshot HTTP/1.1\r\n\r\n");
        assert_eq!(st, ConnStatus::Open);
        assert!(resp.starts_with("HTTP/1.1 200"));
        assert!(resp.contains("ETag: \"1\""));
        assert!(resp.contains("\"seq\":1"));
        let (_, resp) = run(
            &mut core,
            &mut conn,
            "GET /snapshot HTTP/1.1\r\nIf-None-Match: \"1\"\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 304"), "{resp}");
        assert_eq!(core.metrics().r304.get(), 1);
        assert!((core.metrics().cache_hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unpublished_cell_serves_empty_campus_at_seq_zero() {
        // Satellite regression: before any epoch is published the
        // tier must serve a well-formed empty snapshot with ETag "0",
        // not hang or 500.
        let mut core = ServeCore::new(ServeConfig::default(), ServeMetrics::default());
        let mut conn = Connection::new();
        let (_, resp) = run(&mut core, &mut conn, "GET /snapshot HTTP/1.1\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 200"));
        assert!(resp.contains("ETag: \"0\""));
        assert!(resp.contains("\"occupancy\":0"));
        // And a client that already saw seq 0 gets a 304, not a loop.
        let (_, resp) = run(
            &mut core,
            &mut conn,
            "GET /snapshot HTTP/1.1\r\nIf-None-Match: \"0\"\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 304"));
    }

    #[test]
    fn zone_and_pole_slices() {
        let mut core = ServeCore::new(ServeConfig::default(), ServeMetrics::default());
        core.on_publish(
            1,
            snap(
                1000.0,
                vec![person(1.0, 2.0, &[3]), person(25.0, 2.0, &[4])],
            ),
        );
        let mut conn = Connection::new();
        let (_, resp) = run(&mut core, &mut conn, "GET /zone/0,0 HTTP/1.1\r\n\r\n");
        assert!(resp.contains("\"zone_x\":0"));
        assert!(resp.contains("\"x\":1.000"));
        assert!(!resp.contains("\"x\":25.000"), "zone filter applies");
        let (_, resp) = run(&mut core, &mut conn, "GET /pole/3 HTTP/1.1\r\n\r\n");
        assert!(resp.contains("\"pole_id\":3"));
        assert!(resp.contains("\"x\":1.000"));
        let (st, resp) = run(&mut core, &mut conn, "GET /pole/99 HTTP/1.1\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 404"));
        assert_eq!(st, ConnStatus::Open, "routing 404 keeps the connection");
        assert!(resp.contains("Connection: keep-alive"), "{resp}");
        // The connection is still serviceable afterwards.
        let (st, resp) = run(&mut core, &mut conn, "GET /pole/3 HTTP/1.1\r\n\r\n");
        assert_eq!(st, ConnStatus::Open);
        assert!(resp.starts_with("HTTP/1.1 200"));
    }

    #[test]
    fn unknown_path_404_keeps_alive_but_honors_close() {
        let mut core = ServeCore::new(ServeConfig::default(), ServeMetrics::default());
        core.on_publish(1, snap(1000.0, vec![]));
        let mut conn = Connection::new();
        let (st, resp) = run(&mut core, &mut conn, "GET /nope HTTP/1.1\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 404"));
        assert_eq!(st, ConnStatus::Open);
        assert!(resp.contains("Connection: keep-alive"), "{resp}");
        let (st, resp) = run(
            &mut core,
            &mut conn,
            "GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 404"));
        assert_eq!(st, ConnStatus::Close);
        assert!(resp.contains("Connection: close"), "{resp}");
    }

    #[test]
    fn connection_header_matches_fate_on_304_and_unpark() {
        let mut core = ServeCore::new(ServeConfig::default(), ServeMetrics::default());
        core.on_publish(1, snap(1000.0, vec![]));
        // 304 on a keep-alive request says keep-alive…
        let mut conn = Connection::new();
        let (st, resp) = run(
            &mut core,
            &mut conn,
            "GET /snapshot HTTP/1.1\r\nIf-None-Match: \"1\"\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 304"));
        assert_eq!(st, ConnStatus::Open);
        assert!(resp.contains("Connection: keep-alive"), "{resp}");
        // …and close when the request asked to close.
        let mut conn = Connection::new();
        let (st, resp) = run(
            &mut core,
            &mut conn,
            "GET /snapshot HTTP/1.1\r\nIf-None-Match: \"1\"\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 304"));
        assert_eq!(st, ConnStatus::Close);
        assert!(resp.contains("Connection: close"), "{resp}");
        // A long-poll parked on a Connection: close request answers
        // with a close header at unpark, and the connection closes.
        let mut conn = Connection::new();
        let (st, _) = run(
            &mut core,
            &mut conn,
            "GET /delta?since=1 HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert_eq!(st, ConnStatus::Parked);
        core.on_publish(2, snap(2000.0, vec![person(1.0, 2.0, &[3])]));
        let st = core.unpark(&mut conn, false);
        assert_eq!(st, ConnStatus::Close);
        let resp = String::from_utf8(conn.out.clone()).unwrap();
        assert!(resp.contains("Connection: close"), "{resp}");
        assert!(!resp.contains("keep-alive"), "{resp}");
    }

    #[test]
    fn delta_parks_then_answers_on_publish() {
        let mut core = ServeCore::new(ServeConfig::default(), ServeMetrics::default());
        core.on_publish(1, snap(1000.0, vec![person(1.0, 2.0, &[3])]));
        let mut conn = Connection::new();
        let (st, resp) = run(&mut core, &mut conn, "GET /delta?since=1 HTTP/1.1\r\n\r\n");
        assert_eq!(st, ConnStatus::Parked);
        assert!(resp.is_empty(), "no response while parked");
        core.on_publish(
            2,
            snap(2000.0, vec![person(1.0, 2.0, &[3]), person(4.0, 5.0, &[3])]),
        );
        let st = core.unpark(&mut conn, false);
        assert_eq!(st, ConnStatus::Open);
        let resp = String::from_utf8(conn.out.clone()).unwrap();
        assert!(resp.contains("\"since\":1"));
        assert!(resp.contains("\"seq\":2"));
        assert!(resp.contains("\"x\":4.000"), "only the new person rides");
        assert!(
            !resp.contains("\"x\":1.000"),
            "unchanged person is not a change"
        );
    }

    #[test]
    fn delta_timeout_answers_empty() {
        let mut core = ServeCore::new(ServeConfig::default(), ServeMetrics::default());
        core.on_publish(1, snap(1000.0, vec![]));
        let mut conn = Connection::new();
        let (st, _) = run(&mut core, &mut conn, "GET /delta?since=1 HTTP/1.1\r\n\r\n");
        assert_eq!(st, ConnStatus::Parked);
        assert_eq!(
            core.unpark(&mut conn, false),
            ConnStatus::Parked,
            "no publish yet"
        );
        assert_eq!(core.unpark(&mut conn, true), ConnStatus::Open);
        let resp = String::from_utf8(conn.out.clone()).unwrap();
        assert!(resp.contains("\"added\":[],\"removed\":[]"));
    }

    #[test]
    fn delta_outside_window_resets() {
        let cfg = ServeConfig {
            retain_epochs: 2,
            ..ServeConfig::default()
        };
        let mut core = ServeCore::new(cfg, ServeMetrics::default());
        for seq in 1..=5u64 {
            core.on_publish(seq, snap(seq as f64 * 1000.0, vec![person(1.0, 2.0, &[3])]));
        }
        let mut conn = Connection::new();
        let (_, resp) = run(&mut core, &mut conn, "GET /delta?since=1 HTTP/1.1\r\n\r\n");
        assert!(resp.contains("\"reset\":true"));
        assert!(resp.contains("\"people\":["));
    }

    #[test]
    fn history_renders_tiers_and_rejects_bad_res() {
        let mut core = ServeCore::new(ServeConfig::default(), ServeMetrics::default());
        for seq in 1..=25u64 {
            core.on_publish(seq, snap(seq as f64 * 1000.0, vec![]));
        }
        let mut conn = Connection::new();
        let (_, resp) = run(
            &mut core,
            &mut conn,
            "GET /history?res=10s HTTP/1.1\r\n\r\n",
        );
        assert!(resp.contains("\"res\":\"10s\""));
        assert!(resp.contains("\"buckets\":[{"));
        let (st, resp) = run(&mut core, &mut conn, "GET /history?res=5s HTTP/1.1\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 400"));
        assert_eq!(st, ConnStatus::Close);
    }

    #[test]
    fn pipelined_requests_answer_in_order() {
        let mut core = ServeCore::new(ServeConfig::default(), ServeMetrics::default());
        core.on_publish(1, snap(1000.0, vec![]));
        let mut conn = Connection::new();
        let two = "GET /snapshot HTTP/1.1\r\n\r\nGET / HTTP/1.1\r\n\r\n";
        let (st, resp) = run(&mut core, &mut conn, two);
        assert_eq!(st, ConnStatus::Open);
        assert_eq!(resp.matches("HTTP/1.1 200").count(), 2);
        let snap_at = resp.find("\"campus\"").unwrap();
        let index_at = resp.find("serving tier").unwrap();
        assert!(snap_at < index_at, "responses in request order");
        assert_eq!(conn.buffered(), 0);
    }

    #[test]
    fn malformed_request_is_4xx_and_close() {
        let mut core = ServeCore::new(ServeConfig::default(), ServeMetrics::default());
        let mut conn = Connection::new();
        let (st, resp) = run(&mut core, &mut conn, "BLARGH /x\r\n\r\n");
        assert_eq!(st, ConnStatus::Close);
        assert!(resp.starts_with("HTTP/1.1 4") || resp.starts_with("HTTP/1.1 5"));
        assert!(resp.contains("Connection: close"));
    }
}
