//! End-to-end serving tier: real sockets, real publishes.
//!
//! Drives [`serve::HttpServer`] over TCP loopback against a live
//! [`fleet::SnapshotCell`] and pins the externally observable
//! contract: the 200→304 ETag round-trip (the dashboard polling
//! loop), slice endpoints, `/delta` long-polls answering within a
//! tick of a publish, malformed requests closing with a `4xx`, the
//! slowloris read deadline, and — the zero-interference claim — a
//! fusion pipeline that produces bit-identical snapshots whether or
//! not a server and a client swarm are attached to its cell.

use std::io::{BufRead, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use counting::{EpsRung, HealthState, PrecisionRung};
use fleet::{
    CampusSnapshot, ClusterObservation, FusedPerson, FusionConfig, Message, PoleReport,
    ShardedFusion, SnapshotCell,
};
use geom::Point3;
use obs::ManualClock;
use serve::{HttpServer, ServeConfig};
use world::{corridor_layout, PoleRegistry, WalkwayConfig};

fn cfg() -> ServeConfig {
    ServeConfig {
        tick_ms: 2,
        ..ServeConfig::default()
    }
}

fn spawn_on(cell: Arc<SnapshotCell>, cfg: ServeConfig) -> HttpServer {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    HttpServer::spawn(listener, cell, cfg).expect("spawn server")
}

fn person(x: f64, observers: &[u32]) -> FusedPerson {
    FusedPerson {
        x,
        y: 0.0,
        confidence: 0.9,
        observers: observers.to_vec(),
    }
}

fn snap(at_ms: f64, people: Vec<FusedPerson>) -> Arc<CampusSnapshot> {
    Arc::new(CampusSnapshot {
        at_ms,
        occupancy: people.len() as u32,
        people,
        live: 1,
        ..CampusSnapshot::default()
    })
}

/// One-shot GET with `Connection: close`; returns (status, head, body).
fn get(addr: std::net::SocketAddr, path: &str, etag: Option<&str>) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let cond = etag.map_or(String::new(), |e| format!("If-None-Match: {e}\r\n"));
    let req = format!("GET {path} HTTP/1.1\r\nHost: campus\r\n{cond}Connection: close\r\n\r\n");
    stream.write_all(req.as_bytes()).expect("send request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("utf8 response");
    let head_end = text.find("\r\n\r\n").expect("complete head");
    let (head, body) = text.split_at(head_end);
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, head.to_string(), body[4..].to_string())
}

#[test]
fn snapshot_roundtrip_turns_into_304s() {
    let cell = Arc::new(SnapshotCell::new());
    cell.publish(snap(1000.0, vec![person(12.0, &[0])]));
    let server = spawn_on(Arc::clone(&cell), cfg());
    let addr = server.local_addr();

    // First read: full body, tagged with the publish seq.
    let (status, head, body) = get(addr, "/snapshot", None);
    assert_eq!(status, 200);
    assert!(head.contains("ETag: \"1\""), "{head}");
    assert!(body.contains("\"seq\":1"), "{body}");
    assert!(body.contains("\"occupancy\":1"), "{body}");

    // Second read with the validator: near-free 304, no body.
    let (status, head, body) = get(addr, "/snapshot", Some("\"1\""));
    assert_eq!(status, 304, "{head}");
    assert!(body.is_empty(), "304 carries no body: {body}");

    // A publish invalidates the tag and the body moves forward.
    cell.publish(snap(2000.0, vec![person(12.0, &[0]), person(30.0, &[1])]));
    let (status, _, body) = get(addr, "/snapshot", Some("\"1\""));
    assert_eq!(status, 200);
    assert!(body.contains("\"seq\":2"));
    assert!(body.contains("\"occupancy\":2"));

    let telemetry = server.telemetry();
    assert_eq!(telemetry.counter("serve.requests"), 3);
    assert_eq!(telemetry.counter("serve.304"), 1);
}

#[test]
fn slice_and_history_endpoints_serve_over_the_wire() {
    let cell = Arc::new(SnapshotCell::new());
    let mut s = CampusSnapshot {
        at_ms: 1000.0,
        occupancy: 2,
        people: vec![person(12.0, &[0]), person(30.0, &[1])],
        live: 2,
        ..CampusSnapshot::default()
    };
    s.zones = vec![fleet::ZoneOccupancy {
        zone_x: 0,
        zone_y: 0,
        count: 1,
    }];
    s.poles = vec![fleet::PoleStatus {
        pole_id: 1,
        liveness: fleet::Liveness::Live,
        health: None,
        count: 1,
        seq: 4,
        silence_ms: 15.0,
        held: false,
        trust: fleet::TrustState::Trusted,
    }];
    cell.publish(Arc::new(s));
    let server = spawn_on(Arc::clone(&cell), cfg());
    let addr = server.local_addr();

    let (status, _, body) = get(addr, "/zone/0,0", None);
    assert_eq!(status, 200);
    assert!(body.contains("\"count\":1"), "{body}");
    assert!(
        body.contains("\"x\":12.000"),
        "zone 0 holds the x=12 person"
    );
    assert!(!body.contains("\"x\":30.000"), "x=30 lives in another zone");

    let (status, _, body) = get(addr, "/pole/1", None);
    assert_eq!(status, 200);
    assert!(body.contains("\"pole_id\":1"), "{body}");
    assert!(
        body.contains("\"x\":30.000"),
        "pole 1 observes the x=30 person"
    );

    let (status, _, _) = get(addr, "/pole/99", None);
    assert_eq!(status, 404);

    let (status, _, body) = get(addr, "/history?res=1s", None);
    assert_eq!(status, 200);
    assert!(body.contains("\"res\":\"1s\""), "{body}");
    assert!(body.contains("\"buckets\":[{"), "{body}");

    let (status, _, _) = get(addr, "/history?res=7s", None);
    assert_eq!(status, 400);
}

#[test]
fn delta_long_poll_answers_when_the_epoch_turns() {
    let cell = Arc::new(SnapshotCell::new());
    cell.publish(snap(1000.0, vec![person(12.0, &[0])]));
    let server = spawn_on(Arc::clone(&cell), cfg());
    let addr = server.local_addr();

    let publisher = {
        let cell = Arc::clone(&cell);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(120));
            cell.publish(snap(2000.0, vec![person(12.0, &[0]), person(44.0, &[2])]));
        })
    };
    // The request parks server-side until the publish lands.
    let (status, _, body) = get(addr, "/delta?since=1", None);
    publisher.join().unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"since\":1"), "{body}");
    assert!(body.contains("\"seq\":2"), "{body}");
    assert!(
        body.contains("\"x\":44.000"),
        "the new person rides the delta"
    );
    assert!(
        !body.contains("\"x\":12.000"),
        "the unchanged person is not a change"
    );
    assert!(server.telemetry().counter("serve.parked") >= 1);
}

#[test]
fn delta_long_poll_times_out_empty() {
    let cell = Arc::new(SnapshotCell::new());
    cell.publish(snap(1000.0, vec![person(12.0, &[0])]));
    let server = spawn_on(Arc::clone(&cell), cfg());
    let (status, _, body) = get(server.local_addr(), "/delta?since=1&wait_ms=80", None);
    assert_eq!(status, 200);
    assert!(body.contains("\"added\":[],\"removed\":[]"), "{body}");
}

#[test]
fn malformed_requests_answer_4xx_and_close() {
    let cell = Arc::new(SnapshotCell::new());
    let server = spawn_on(Arc::clone(&cell), cfg());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"POST /snapshot HTTP/1.1\r\n\r\n")
        .unwrap();
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .expect("server must close after a 4xx");
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 405"), "{text}");
    assert!(text.contains("Connection: close"), "{text}");
}

#[test]
fn dribbled_heads_hit_the_read_deadline() {
    let cell = Arc::new(SnapshotCell::new());
    let server = spawn_on(
        Arc::clone(&cell),
        ServeConfig {
            tick_ms: 2,
            read_deadline_ms: 80,
            ..ServeConfig::default()
        },
    );
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Half a request head, then silence: a slowloris client.
    stream.write_all(b"GET /snapshot HT").unwrap();
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .expect("deadline must close the socket");
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 408"), "{text}");
}

fn report(pole_id: u32, seq: u64, clusters: &[(f64, f64)]) -> Message {
    Message::Report(PoleReport {
        pole_id,
        seq,
        timestamp_ms: seq * 100,
        count: u32::try_from(clusters.len()).unwrap_or(u32::MAX),
        health: HealthState::Healthy,
        eps_rung: EpsRung::Adaptive,
        precision: PrecisionRung::Fp32,
        held: false,
        stale_frames: 0,
        age_ms: 0.0,
        pole_temp_c: Some(35.0),
        capture_ms: Some(seq as f64 * 100.0),
        clusters: clusters
            .iter()
            .map(|&(x, y)| ClusterObservation {
                centroid: Point3::new(x, y, -2.0),
                points: 80,
                confidence: 0.8,
            })
            .collect(),
    })
}

/// The zero-interference claim: attaching a server plus a polling
/// client swarm to the fusion cell must not perturb the fused
/// snapshots by a single bit.
#[test]
fn serving_does_not_perturb_fusion_determinism() {
    let n = 6usize;
    let rounds = 20u64;
    let mk = |clock: &ManualClock| {
        ShardedFusion::new(
            PoleRegistry::from_poses(corridor_layout(n, 15.0)),
            WalkwayConfig::default(),
            FusionConfig::default(),
            3,
            clock.handle(),
        )
    };

    // Baseline: no server anywhere near it.
    let clock_a = ManualClock::new();
    let quiet = mk(&clock_a);
    // Instrumented: a server on the cell and a client hammering it.
    let clock_b = ManualClock::new();
    let watched = mk(&clock_b);
    let server = spawn_on(watched.cell(), cfg());
    let addr = server.local_addr();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let swarm: Vec<_> = (0..3)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                // Do-while: at least one round-trip even if the fusion
                // loop outruns thread startup and sets `stop` first.
                loop {
                    let _ = get(addr, "/snapshot", None);
                    let _ = get(addr, "/history?res=1s", None);
                    if stop.load(std::sync::atomic::Ordering::Relaxed) {
                        break;
                    }
                }
            })
        })
        .collect();

    let mut quiet_log = String::new();
    let mut watched_log = String::new();
    for round in 1..=rounds {
        for pole in 0..n as u32 {
            let msg = report(pole, round, &[(14.0, 0.0), (28.0, 0.5)]);
            quiet.ingest(msg.clone());
            watched.ingest(msg);
        }
        clock_a.advance_ms(100);
        clock_b.advance_ms(100);
        quiet_log.push_str(&quiet.snapshot().to_json());
        quiet_log.push('\n');
        watched_log.push_str(&watched.snapshot().to_json());
        watched_log.push('\n');
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for t in swarm {
        t.join().unwrap();
    }
    assert_eq!(
        quiet_log, watched_log,
        "snapshots must be bit-identical with a server and client swarm attached"
    );
    assert!(
        server.telemetry().counter("serve.requests") > 0,
        "the swarm must actually have exercised the server"
    );
}

/// The `examples/campus.rs --serve` wiring end to end: an
/// [`fleet::Aggregator`] ingesting wire reports through its reactor,
/// its snapshot cell handed to [`HttpServer::spawn`], and a dashboard
/// poller whose second read comes back as a near-free 304.
#[test]
fn example_wiring_serves_an_aggregators_campus() {
    use fleet::{Aggregator, AggregatorConfig, Connector, LoopbackConfig, LoopbackHub};

    let registry = PoleRegistry::from_poses(corridor_layout(2, 15.0));
    let aggregator = Aggregator::new(
        registry,
        WalkwayConfig::default(),
        AggregatorConfig::default(),
    );
    let reactor = aggregator.spawn_reactor();
    let server = spawn_on(aggregator.snapshot_cell(), cfg());
    let addr = server.local_addr();

    let hub = LoopbackHub::new();
    let mut client = hub
        .connector(LoopbackConfig::reliable())
        .connect()
        .expect("loopback dial");
    client
        .send(&fleet::encode(&Message::Hello { pole_id: 0 }))
        .expect("hello");
    client
        .send(&fleet::encode(&report(0, 1, &[(14.0, 0.0)])))
        .expect("report");
    let adopted = hub.accept(Duration::from_millis(500)).expect("accept");
    aggregator.add_connection(Box::new(adopted));

    // Wait for the fused publish to land in the cell.
    let cell = aggregator.snapshot_cell();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while cell.read_versioned().0 == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "aggregator never published"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // First poll: full body. Second poll with the validator: 304.
    let (status, head, body) = get(addr, "/snapshot", None);
    assert_eq!(status, 200);
    assert!(body.contains("\"occupancy\":1"), "{body}");
    let tag_at = head.find("ETag: ").expect("etag header") + "ETag: ".len();
    let tag: String = head[tag_at..].chars().take_while(|c| *c != '\r').collect();
    let (status, _, body) = get(addr, "/snapshot", Some(&tag));
    assert_eq!(status, 304);
    assert!(body.is_empty());

    client.close();
    aggregator.stop();
    reactor.join();
}

/// Resident set size of this process, bytes (Linux only).
fn rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// A client that pipelines 50k full reads without reading a single
/// answer costs the server a bounded amount of memory: once a
/// connection's unflushed output passes `serve::OUT_HIGH_WATER`, the
/// pump stops reading it and stops answering what it buffered. When
/// the client finally drains, every read is answered, in order (every
/// thousandth request is a `/zone/{k},0` marker whose answer names
/// `k`).
#[test]
fn pipelined_reads_without_reading_answers_stay_bounded() {
    const READS: usize = 50_000;
    let cell = Arc::new(SnapshotCell::new());
    let people = (0..40u32)
        .map(|i| person(f64::from(i) * 2.0, &[i, i + 1]))
        .collect();
    cell.publish(snap(1000.0, people));
    let server = spawn_on(Arc::clone(&cell), cfg());
    let mut requests = Vec::new();
    for i in 0..READS {
        if i % 1000 == 999 {
            write!(requests, "GET /zone/{},0 HTTP/1.1\r\n\r\n", i / 1000).unwrap();
        } else {
            requests.extend_from_slice(b"GET /snapshot HTTP/1.1\r\n\r\n");
        }
    }
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().expect("clone stream");
    let rss_before = rss_bytes();
    let sender = std::thread::spawn(move || writer.write_all(&requests));

    // Let the server answer everything it is willing to: wait until
    // its output counter stops moving.
    let bytes_out = || server.telemetry().counter("serve.bytes_out");
    let mut last = bytes_out();
    for _ in 0..100 {
        std::thread::sleep(Duration::from_millis(100));
        let now = bytes_out();
        if now == last && now > 0 {
            break;
        }
        last = now;
    }
    let answered = bytes_out();
    // Every answer is a few KiB, so answering all of them would be
    // ~200 MiB. What may be rendered before the pump stops reading is
    // what the kernel's socket buffers hold plus the high-water mark.
    assert!(
        answered < 32 << 20,
        "the server rendered {answered} bytes for a client that reads nothing"
    );
    if let (Some(before), Some(after)) = (rss_before, rss_bytes()) {
        assert!(
            after.saturating_sub(before) < 64 << 20,
            "resident memory grew {} bytes",
            after.saturating_sub(before)
        );
    }

    // Drain: every read answers, in request order.
    let mut reader = std::io::BufReader::new(stream);
    let mut line = String::new();
    let mut body = Vec::new();
    for i in 0..READS {
        let mut len = None;
        loop {
            line.clear();
            reader.read_line(&mut line).expect("response head");
            if line == "\r\n" {
                break;
            }
            if let Some(v) = line.strip_prefix("Content-Length: ") {
                len = v.trim().parse::<usize>().ok();
            }
        }
        body.resize(len.expect("content length"), 0);
        reader.read_exact(&mut body).expect("response body");
        if i % 1000 == 999 {
            let marker = format!("\"zone_x\":{},", i / 1000);
            assert!(
                body.windows(marker.len()).any(|w| w == marker.as_bytes()),
                "answer {i} out of order"
            );
        } else {
            assert!(body.starts_with(b"{\"seq\":1,\"campus\":"), "answer {i}");
        }
    }
    sender.join().unwrap().expect("send every request");
}
