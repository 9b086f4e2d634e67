//! Allocation ceiling for a warmed `ShardedFusion::snapshot()`.
//!
//! A snapshot is built and published once per dashboard period, so
//! its allocations are per-publish cost. Beyond a fixed number of
//! buffers (per-shard gathers, the dedup grid, the zone keys, the
//! published copy's vectors), the only allocations left are one
//! observer list per fused person in the returned snapshot and one in
//! the published copy. The ceiling below is that: a constant plus two
//! per person, over a 64-pole, 4-shard corridor whose neighbouring
//! poles see shared people (multi-observer lists) at every seam.
//!
//! One `#[test]` only, so no sibling test allocates concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use counting::{EpsRung, HealthState, PrecisionRung};
use fleet::{ClusterObservation, FusionConfig, Message, PoleReport, ShardedFusion};
use geom::Point3;
use obs::ManualClock;
use world::{corridor_layout, PoleRegistry, WalkwayConfig};

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

const POLES: usize = 64;
const SPACING_M: f64 = 15.0;
/// Allocations a snapshot may make regardless of how many people it
/// holds.
const FIXED: u64 = 48;

/// Pole-frame sightings: the first and last sit half a spacing out,
/// where the neighbouring pole sees the same walker.
const SIGHTINGS: [(f64, f64); 5] = [
    (-7.5, 0.5),
    (-3.0, -1.0),
    (0.0, 1.2),
    (3.5, 0.0),
    (7.5, 0.5),
];

fn report(pole_id: u32) -> Message {
    Message::Report(PoleReport {
        pole_id,
        seq: 1,
        timestamp_ms: 100,
        count: SIGHTINGS.len() as u32,
        health: HealthState::Healthy,
        eps_rung: EpsRung::Adaptive,
        precision: PrecisionRung::Fp32,
        held: false,
        stale_frames: 0,
        age_ms: 0.0,
        pole_temp_c: None,
        capture_ms: None,
        clusters: SIGHTINGS
            .iter()
            .map(|&(x, y)| ClusterObservation {
                centroid: Point3::new(x, y, -2.0),
                points: 80,
                confidence: 0.8,
            })
            .collect(),
    })
}

#[test]
fn warmed_snapshot_allocates_a_constant_plus_two_per_person() {
    let clock = ManualClock::new();
    let fusion = ShardedFusion::new(
        PoleRegistry::from_poses(corridor_layout(POLES, SPACING_M)),
        WalkwayConfig::default(),
        FusionConfig::default(),
        4,
        clock.handle(),
    );
    for pole_id in 0..POLES as u32 {
        fusion.ingest(report(pole_id));
    }
    let people = fusion.snapshot().people.len() as u64;
    let merged = fusion
        .published()
        .people
        .iter()
        .filter(|p| p.observers.len() > 1)
        .count();
    assert_eq!(merged, POLES - 1, "every seam fuses one shared walker");

    // Fewest allocations over a few snapshots: the counter is
    // process-global, so a stray allocation from the harness can land
    // in any single window.
    let mut least = u64::MAX;
    for _ in 0..4 {
        let before = ALLOCS.load(Ordering::SeqCst);
        let snap = fusion.snapshot();
        least = least.min(ALLOCS.load(Ordering::SeqCst) - before);
        drop(snap);
    }
    let ceiling = FIXED + 2 * people;
    assert!(
        least <= ceiling,
        "a warmed snapshot of {people} people allocated {least} times, over {ceiling}"
    );
}
