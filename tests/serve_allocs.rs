//! Allocation accounting for the warmed serving-tier paths.
//!
//! A counting global allocator wraps the system allocator; the single
//! test below (one `#[test]` so no sibling test allocates concurrently)
//! pins the serving contract from DESIGN.md: once a connection's
//! buffers, the core's scratch, the history ring and the retained
//! window have grown to working size, each of these performs **zero**
//! heap allocations:
//!
//! - handling a `GET /snapshot` (200 and 304), a `GET /zone/..` and
//!   `GET /pole/..` slice and a `GET /history?..` read;
//! - installing a published epoch (`on_publish` renders nothing);
//! - the first full `/snapshot` read of an epoch, which renders the
//!   body into its persistent buffer;
//! - answering `GET /delta?since=N`, both immediately and when a
//!   parked long-poll is unparked by the next publish.
//!
//! This is the property that makes "millions of readers" credible: the
//! read path costs a parse, a memcpy and a few atomic bumps — nothing
//! that contends on the global heap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fleet::{CampusSnapshot, FusedPerson, PoleStatus, ZoneOccupancy};
use serve::{ConnStatus, Connection, ServeConfig, ServeCore, ServeMetrics, TIER_RES_MS};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.load(Ordering::SeqCst)
}

/// Closed buckets kept per history tier, and epochs kept for
/// `/delta`: small, so the warm-up fills both.
const HISTORY_CAP: usize = 4;
const RETAIN: usize = 8;

/// A campus busy enough that the snapshot body, zone slice, history
/// and delta rendering all do real work (not empty-list early-outs).
/// Each epoch moves a few people, so consecutive deltas are never
/// empty.
fn campus(seq: u64) -> Arc<CampusSnapshot> {
    let people: Vec<FusedPerson> = (0..48u32)
        .map(|i| {
            let moved = u64::from(i % 8) == seq % 8;
            FusedPerson {
                x: f64::from(i % 7) * 11.0 + if moved { 0.25 } else { 0.0 },
                y: f64::from(i / 7) * 9.0,
                confidence: 0.5 + f64::from(i % 5) * 0.1,
                observers: vec![i, i + 100],
            }
        })
        .collect();
    let zones = vec![ZoneOccupancy {
        zone_x: 0,
        zone_y: 0,
        count: 7,
    }];
    let poles = vec![PoleStatus {
        pole_id: 1,
        liveness: fleet::Liveness::Live,
        health: None,
        count: 7,
        seq: 9,
        silence_ms: 12.5,
        held: false,
        trust: fleet::TrustState::Trusted,
    }];
    Arc::new(CampusSnapshot {
        at_ms: seq as f64 * 1000.0,
        occupancy: people.len() as u32,
        people,
        zones,
        poles,
        live: 1,
        ..CampusSnapshot::default()
    })
}

/// Runs one request through the core and asserts the expected status
/// appears; clears `conn.out` so capacity is retained for the next.
fn roundtrip(core: &mut ServeCore, conn: &mut Connection, req: &[u8], expect: &str) {
    core.on_bytes(conn, req);
    expect_in(conn, expect);
}

fn expect_in(conn: &mut Connection, expect: &str) {
    let ok = conn
        .out
        .windows(expect.len())
        .any(|w| w == expect.as_bytes());
    assert!(
        ok,
        "expected {expect:?} in response: {}",
        String::from_utf8_lossy(&conn.out)
    );
    conn.out.clear();
}

/// Writes a request for `path?…=seq` into a reusable buffer.
fn request(buf: &mut Vec<u8>, prefix: &str, seq: u64, suffix: &str) {
    use std::io::Write;
    buf.clear();
    write!(buf, "{prefix}{seq}{suffix}").expect("Vec write");
}

/// Fewest allocations `work` made in any of four sweeps: the counter
/// is process-global and the harness's own threads can drip a stray
/// allocation into any single window, so only the cleanest sweep is
/// the real figure.
fn min_allocs(mut work: impl FnMut()) -> u64 {
    let mut least = u64::MAX;
    for _ in 0..4 {
        let before = allocations();
        work();
        least = least.min(allocations() - before);
    }
    least
}

#[test]
fn warmed_request_handling_does_not_allocate() {
    let cfg = ServeConfig {
        history_cap: HISTORY_CAP,
        retain_epochs: RETAIN,
        ..ServeConfig::default()
    };
    let mut core = ServeCore::new(cfg, ServeMetrics::default());
    // Enough one-second epochs to close more than `HISTORY_CAP`
    // buckets on the coarsest tier, plus the epochs the measured
    // sweeps below publish, all built before anything is counted.
    let coarsest_s = TIER_RES_MS[TIER_RES_MS.len() - 1] / 1000;
    let warm = coarsest_s * (HISTORY_CAP as u64 + 2);
    let snaps: Vec<Arc<CampusSnapshot>> = (0..=warm + 512).map(campus).collect();
    let mut seq = 0u64;
    let mut publish = |core: &mut ServeCore| {
        seq += 1;
        core.on_publish(seq, Arc::clone(&snaps[seq as usize]));
        seq
    };
    for _ in 0..warm {
        publish(&mut core);
    }

    let mut conn = Connection::new();
    let mut cached = Vec::new();
    let mut delta = Vec::new();
    let full: &[u8] = b"GET /snapshot HTTP/1.1\r\nHost: campus\r\n\r\n";
    let zone: &[u8] = b"GET /zone/0,0 HTTP/1.1\r\n\r\n";
    let pole: &[u8] = b"GET /pole/1 HTTP/1.1\r\n\r\n";
    let history: &[u8] = b"GET /history?res=1s HTTP/1.1\r\n\r\n";
    request(
        &mut cached,
        "GET /snapshot HTTP/1.1\r\nIf-None-Match: \"",
        warm,
        "\"\r\n\r\n",
    );

    // Warm-up: size the connection buffers, the body and the scratch.
    for since in [warm - 1, warm - 3, warm - 1] {
        roundtrip(&mut core, &mut conn, full, "HTTP/1.1 200");
        roundtrip(&mut core, &mut conn, &cached, "HTTP/1.1 304");
        roundtrip(&mut core, &mut conn, zone, "HTTP/1.1 200");
        roundtrip(&mut core, &mut conn, pole, "HTTP/1.1 200");
        roundtrip(&mut core, &mut conn, history, "HTTP/1.1 200");
        request(&mut delta, "GET /delta?since=", since, " HTTP/1.1\r\n\r\n");
        roundtrip(&mut core, &mut conn, &delta, "\"added\":[{");
    }

    let reads = min_allocs(|| {
        for _ in 0..32 {
            roundtrip(&mut core, &mut conn, full, "HTTP/1.1 200");
            roundtrip(&mut core, &mut conn, &cached, "HTTP/1.1 304");
            roundtrip(&mut core, &mut conn, zone, "HTTP/1.1 200");
            roundtrip(&mut core, &mut conn, pole, "HTTP/1.1 200");
            roundtrip(&mut core, &mut conn, history, "HTTP/1.1 200");
        }
    });
    assert_eq!(
        reads, 0,
        "warmed snapshot/zone/pole/history handling allocated {reads} times \
         across 160 requests — the read path is no longer allocation-free"
    );

    let immediate = min_allocs(|| {
        for since in [warm - 1, warm - 2, warm - 4] {
            request(&mut delta, "GET /delta?since=", since, " HTTP/1.1\r\n\r\n");
            roundtrip(&mut core, &mut conn, &delta, "\"reset\":false");
        }
    });
    assert_eq!(
        immediate, 0,
        "a warmed immediate /delta answer allocated {immediate} times"
    );

    // Publishing and the first full read of each new epoch (which
    // renders the body) stay allocation-free too.
    let published = min_allocs(|| {
        for _ in 0..8 {
            publish(&mut core);
            roundtrip(&mut core, &mut conn, full, "HTTP/1.1 200");
        }
    });
    assert_eq!(
        published, 0,
        "warmed publishes and first full reads allocated {published} times"
    );

    // A parked long-poll answered by the next publish.
    let mut current = core.seq();
    let unparked = min_allocs(|| {
        for _ in 0..8 {
            request(
                &mut delta,
                "GET /delta?since=",
                current,
                " HTTP/1.1\r\n\r\n",
            );
            assert_eq!(core.on_bytes(&mut conn, &delta), ConnStatus::Parked);
            current = publish(&mut core);
            assert_eq!(core.unpark(&mut conn, false), ConnStatus::Open);
            expect_in(&mut conn, "\"added\":[{");
        }
    });
    assert_eq!(
        unparked, 0,
        "a warmed unparked /delta answer allocated {unparked} times"
    );
}
