//! Correctness oracles. Any mismatch fails the run.
//!
//! - Every pole's per-frame count equals a single-threaded
//!   `CrowdCounter::count` reference (frames that ran the adaptive-ε
//!   rung, which is every frame unless the supervisor degraded).
//! - The final published snapshot equals a fresh single-shard
//!   `FusionCore` fed each pole's last report: fusion is
//!   last-seq-wins, so this is an exact oracle for the sharded,
//!   multi-threaded path.
//! - The `/delta` responses compose to the final people set.
//! - Well-formed reads get no 4xx/5xx (checked by the caller).

use std::collections::BTreeMap;

use cluster::AdaptiveConfig;
use counting::{ClusterMethod, CounterConfig, CrowdCounter};
use fleet::{decode, CampusSnapshot, FusionConfig, FusionCore, Message};
use world::{PoleRegistry, WalkwayConfig};

use crate::http::render_person;
use crate::phase::{counter_config, PhaseOut};
use crate::workload::CountingInputs;

/// Reference counts `[pole][capture]`, computed single-threaded per
/// counter on two worker threads, outside every timed window.
pub fn reference_counts(c: &CountingInputs) -> Result<Vec<Vec<usize>>, String> {
    let cfg = CounterConfig {
        cluster_method: ClusterMethod::Adaptive(AdaptiveConfig::default()),
        ..counter_config()
    };
    let jobs: Vec<(usize, usize)> = c
        .captures
        .iter()
        .enumerate()
        .flat_map(|(p, caps)| (0..caps.len()).map(move |j| (p, j)))
        .collect();
    let workers = 2usize;
    // (pole, capture, count) per job, from each worker.
    type Counted = Result<Vec<(usize, usize, usize)>, String>;
    let results: Vec<Counted> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let jobs = &jobs;
                s.spawn(move || {
                    let int8 = c
                        .model
                        .quantize(&c.calibration, 100)
                        .map_err(|e| format!("quantise the reference: {e}"))?;
                    let mut counter = CrowdCounter::new(int8, cfg);
                    Ok(jobs
                        .iter()
                        .skip(w)
                        .step_by(workers)
                        .map(|&(p, j)| (p, j, counter.count(&c.captures[p][j].cloud).count))
                        .collect())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference worker panicked"))
            .collect()
    });
    let mut out: Vec<Vec<usize>> = c.captures.iter().map(|v| vec![0; v.len()]).collect();
    for r in results {
        for (p, j, n) in r? {
            out[p][j] = n;
        }
    }
    Ok(out)
}

/// Per-frame counts against the reference.
pub fn check_counts(phase: &PhaseOut, reference: &[Vec<usize>], out: &mut Vec<String>) {
    let mut bad = 0usize;
    for e in &phase.events {
        let Some(o) = e.out else { continue };
        if !o.int8 {
            out.push(format!(
                "pole {} frame {} ran off the int8 rung",
                e.pole, e.k
            ));
            return;
        }
        let refs = &reference[e.pole as usize];
        let want = refs[e.k as usize % refs.len()];
        if o.adaptive && !o.held && o.count != want {
            bad += 1;
            if bad <= 3 {
                out.push(format!(
                    "pole {} frame {}: counted {} but the reference counts {}",
                    e.pole, e.k, o.count, want
                ));
            }
        }
    }
    if bad > 3 {
        out.push(format!("... {bad} count mismatches in all"));
    }
}

/// The final snapshot against a fresh single-shard core fed each
/// pole's last report.
pub fn check_fusion(phase: &PhaseOut, registry: &PoleRegistry, out: &mut Vec<String>) {
    let mut core = FusionCore::new(
        registry.clone(),
        WalkwayConfig::default(),
        FusionConfig::default(),
    );
    for (p, link) in phase.links.iter().enumerate() {
        let last = link.last.lock().unwrap_or_else(|e| e.into_inner()).clone();
        match decode(&last) {
            Ok(Some((msg @ Message::Report(_), _))) => {
                core.ingest(Message::Hello { pole_id: p as u32 });
                core.ingest(msg);
            }
            other => {
                out.push(format!("pole {p}'s last frame is not a report: {other:?}"));
                return;
            }
        }
    }
    let want = core.snapshot();
    let got = &phase.final_snap;
    let scalar = |s: &CampusSnapshot| {
        (
            s.occupancy,
            s.unmapped,
            s.live,
            s.stale,
            s.dead,
            s.quarantined,
        )
    };
    if scalar(got) != scalar(&want) {
        out.push(format!(
            "final snapshot (occupancy, unmapped, live, stale, dead, quarantined) = {:?}, oracle {:?}",
            scalar(got),
            scalar(&want)
        ));
    }
    if got.people != want.people {
        out.push(format!(
            "final snapshot has {} people, the oracle {} (or they differ)",
            got.people.len(),
            want.people.len()
        ));
    }
    if got.zones != want.zones {
        out.push("final snapshot zones differ from the oracle's".into());
    }
    let row = |s: &CampusSnapshot| {
        s.poles
            .iter()
            .map(|p| {
                (
                    p.pole_id, p.liveness, p.health, p.count, p.seq, p.held, p.trust,
                )
            })
            .collect::<Vec<_>>()
    };
    if row(got) != row(&want) {
        out.push("final snapshot pole rows differ from the oracle's".into());
    }
}

/// The `/delta` stream composed against the final people set.
pub fn check_delta(phase: &PhaseOut, out: &mut Vec<String>) {
    let mut want: BTreeMap<String, i64> = BTreeMap::new();
    for p in &phase.final_snap.people {
        *want.entry(render_person(p)).or_insert(0) += 1;
    }
    if phase.delta.people != want {
        out.push(format!(
            "/delta responses compose to {} people, the final snapshot has {}",
            phase.delta.people.values().sum::<i64>(),
            phase.final_snap.people.len()
        ));
    }
    for e in &phase.delta.errors {
        out.push(format!("/delta reader: {e}"));
    }
}
