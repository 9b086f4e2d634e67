//! Turns a run's records into the end-to-end metrics and, for a traced
//! run, the per-hop numbers.

use std::collections::HashMap;
use std::time::Instant;

use fleet::{decode, Message};

use crate::phase::{epoch_index, PhaseOut};
use crate::stats::{ms, Samples, Windowed};
use crate::workload::{Inputs, PoleInputs, P2D_LIMIT_MS, READ_LIMIT_MS};

/// An event the generator started more than this late counts as late.
pub const GEN_LATE_MS: f64 = 2.0;
/// A run with more late events than this share is invalid: the load
/// generator, not the system, set its pace.
pub const GEN_LATE_MAX_FRAC: f64 = 0.10;
/// A run with more late events than this share was disturbed: the host
/// took the CPUs away for a while. Undisturbed runs measured on a
/// 2-vCPU host had 0.1–0.6% late, disturbed ones 1.1–7.5%, with read
/// and p2d tails up to tenfold.
pub const GEN_DISTURBED_FRAC: f64 = 0.01;
/// A run during which the host stole more than this share of the
/// guest's CPU time was disturbed too, whether or not the generator
/// happened to be waking when it did.
pub const STEAL_DISTURBED_FRAC: f64 = 0.01;
/// The per-hop medians must sum to the traced `p2d_p50_ms` within this
/// share of it (or 1 ms, whichever is larger); a larger gap is an
/// instrumentation bug.
pub const HOP_TOLERANCE: f64 = 0.15;

/// When each frame first became visible: the first publish whose
/// snapshot carried it, and the first `/delta` receipt of such an
/// epoch. Indexed like `PhaseOut::events`.
pub struct Coverage {
    pub published: Vec<Option<Instant>>,
    pub received: Vec<Option<Instant>>,
}

pub fn coverage(phase: &PhaseOut) -> Coverage {
    let n = phase.events.len();
    let mut published = vec![None; n];
    let mut received = vec![None; n];
    let index = epoch_index(&phase.pubs);
    // Events are sorted by (pole, k): walk each pole's run of frames.
    let mut start = 0usize;
    while start < n {
        let pole = phase.events[start].pole as usize;
        let end = start
            + phase.events[start..]
                .iter()
                .take_while(|e| e.pole as usize == pole)
                .count();
        let mut j = start;
        for entry in &phase.pubs.entries {
            let covered = entry.seqs.get(pole).copied().unwrap_or(0);
            while j < end && phase.events[j].seq() <= covered {
                published[j] = Some(entry.at);
                j += 1;
            }
        }
        let mut j = start;
        for &(at, epoch) in &phase.delta.rx {
            let Some(&i) = index.get(&epoch) else {
                continue;
            };
            let covered = phase.pubs.entries[i].seqs.get(pole).copied().unwrap_or(0);
            while j < end && phase.events[j].seq() <= covered {
                received[j] = Some(at);
                j += 1;
            }
        }
        start = end;
    }
    Coverage {
        published,
        received,
    }
}

/// The end-to-end figures of one run.
pub struct E2e {
    pub p2d: Windowed,
    pub p2d_ok_frac: f64,
    pub frames_due: usize,
    pub frames_failed: usize,
    pub read: Windowed,
    pub read_ok_frac: f64,
    pub reads_due: usize,
    pub reads_failed: usize,
    pub mae: Option<f64>,
    pub cpu_util: f64,
    pub peak_rss_mb: f64,
    pub steal_frac: f64,
    pub late: Samples,
    pub late_frac: f64,
    /// Read latency from the actual send instead of the due time: the
    /// part the generator's own lateness does not touch.
    pub read_from_send: Windowed,
}

impl E2e {
    /// `(name, value, unit)` for every end-to-end metric but `setup_s`.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("p2d_p50_ms", self.p2d.pct(50.0), "ms"),
            ("p2d_p95_ms", self.p2d.pct(Windowed::TAIL), "ms"),
            ("p2d_ok_frac", self.p2d_ok_frac, "fraction"),
            ("read_p50_ms", self.read.pct(50.0), "ms"),
            ("read_ok_frac", self.read_ok_frac, "fraction"),
            ("cpu_util", self.cpu_util, "cpu_s/s"),
            ("peak_rss_mb", self.peak_rss_mb, "MiB"),
        ]
    }
}

fn in_window(phase: &PhaseOut, t: Instant) -> bool {
    t >= phase.measure.0 && t < phase.measure.1
}

pub fn e2e(phase: &PhaseOut, inputs: &Inputs, cov: &Coverage) -> E2e {
    let mut p2d = Vec::new();
    let mut frames_due = 0usize;
    let mut within = 0usize;
    let mut never = 0usize;
    let mut late = Vec::new();
    let mut abs_err = 0usize;
    let mut counted = 0usize;
    for (i, e) in phase.events.iter().enumerate() {
        if !in_window(phase, e.due) {
            continue;
        }
        frames_due += 1;
        late.push(e.late_ms);
        match cov.received[i] {
            Some(rx) => {
                let v = ms(e.due, rx);
                p2d.push((e.due, v));
                if v <= P2D_LIMIT_MS {
                    within += 1;
                }
            }
            None => never += 1,
        }
        if let (Some(o), PoleInputs::Agents(c)) = (e.out, &inputs.poles) {
            let caps = &c.captures[e.pole as usize];
            abs_err += o
                .count
                .abs_diff(caps[e.k as usize % caps.len()].ground_truth);
            counted += 1;
        }
    }
    // A frame that never reached fusion (dropped by its agent's queue
    // or shed by the reactor) still reads as covered once a later seq
    // lands, so every such loss is charged as a miss on top.
    let lost = (phase.events.len() as u64).saturating_sub(phase.stats.reports) as usize;
    let frames_failed = never + lost.min(frames_due);
    let p2d_ok = within.saturating_sub(lost);

    let mut read = Vec::new();
    let mut from_send = Vec::new();
    let mut reads_due = 0usize;
    let mut reads_ok = 0usize;
    let mut reads_failed = 0usize;
    for r in &phase.reads.recs {
        if !in_window(phase, r.due) {
            continue;
        }
        reads_due += 1;
        if r.sent.is_some() {
            late.push(r.late_ms);
        }
        match r.done {
            Some(done) if r.status == 200 || r.status == 304 => {
                let v = ms(r.due, done);
                read.push((r.due, v));
                if let Some(sent) = r.sent {
                    from_send.push((r.due, ms(sent, done)));
                }
                if v <= READ_LIMIT_MS {
                    reads_ok += 1;
                }
            }
            _ => reads_failed += 1,
        }
    }
    let late = Samples::new(late);
    let late_frac = if late.len() == 0 {
        0.0
    } else {
        late.count_above(GEN_LATE_MS) as f64 / late.len() as f64
    };
    E2e {
        p2d: Windowed::new(p2d, phase.measure),
        p2d_ok_frac: p2d_ok as f64 / frames_due.max(1) as f64,
        frames_due,
        frames_failed,
        read: Windowed::new(read, phase.measure),
        read_ok_frac: reads_ok as f64 / reads_due.max(1) as f64,
        reads_due,
        reads_failed,
        mae: (counted > 0).then(|| abs_err as f64 / counted as f64),
        cpu_util: phase.cpu_util,
        peak_rss_mb: phase.peak_rss_mb,
        steal_frac: phase.steal_frac,
        late,
        late_frac,
        read_from_send: Windowed::new(from_send, phase.measure),
    }
}

/// Per-layer numbers measured in a traced run.
pub struct Layers {
    pub metrics: Vec<(String, f64, &'static str)>,
    /// `(sum of hop medians, traced p2d median)`.
    pub hop_sum: (f64, f64),
}

pub fn layers(phase: &PhaseOut, inputs: &Inputs, cov: &Coverage, e2e: &E2e) -> Layers {
    let mut step = Vec::new();
    let mut queue = Vec::new();
    let mut points = Vec::new();
    let mut clusters = Vec::new();
    let mut queue_max = 0usize;
    let mut degraded = 0usize;
    for e in &phase.events {
        if !in_window(phase, e.due) {
            continue;
        }
        queue.push(ms(e.due, e.start));
        if let (Some(o), PoleInputs::Agents(c)) = (e.out, &inputs.poles) {
            step.push(ms(e.start, e.end));
            let caps = &c.captures[e.pole as usize];
            points.push(caps[e.k as usize % caps.len()].cloud.len() as f64);
            clusters.push(o.clusters as f64);
            queue_max = queue_max.max(o.queue_len);
            if !o.adaptive || o.held {
                degraded += 1;
            }
        }
    }

    // Uplink: pair each link's i-th send with its i-th receive.
    let mut stamps: HashMap<(u32, u64), (Instant, Instant)> = HashMap::new();
    let mut received_reports = 0u64;
    for (p, link) in phase.links.iter().enumerate() {
        let sends = link.sends.lock().unwrap_or_else(|e| e.into_inner());
        let recvs = link.recvs.lock().unwrap_or_else(|e| e.into_inner());
        for ((sent, frame), &got) in sends.iter().zip(recvs.iter()) {
            if let Ok(Some((Message::Report(r), _))) = decode(frame) {
                received_reports += 1;
                stamps.insert((p as u32, r.seq), (*sent, got));
            }
        }
    }
    let mut uplink = Vec::new();
    let mut publish_wait = Vec::new();
    let mut notify = Vec::new();
    for (i, e) in phase.events.iter().enumerate() {
        if !in_window(phase, e.due) {
            continue;
        }
        let Some(&(sent, got)) = stamps.get(&(e.pole, e.seq())) else {
            continue;
        };
        uplink.push(ms(sent, got));
        if let Some(published) = cov.published[i] {
            publish_wait.push(ms(got, published));
            if let Some(rx) = cov.received[i] {
                notify.push(ms(published, rx));
            }
        }
    }
    let snapshot_ms: Vec<f64> = phase
        .pub_spans
        .iter()
        .filter(|(a, _)| in_window(phase, *a))
        .map(|&(a, b)| ms(a, b))
        .collect();
    let shed = received_reports.saturating_sub(phase.stats.reports + phase.stats.stale_discards);

    let (step, queue, uplink, publish_wait, notify, snapshot_ms) = (
        Samples::new(step),
        Samples::new(queue),
        Samples::new(uplink),
        Samples::new(publish_wait),
        Samples::new(notify),
        Samples::new(snapshot_ms),
    );
    let answered: Vec<f64> = phase
        .reads
        .recs
        .iter()
        .filter(|r| r.done.is_some() && in_window(phase, r.due))
        .map(|r| r.bytes as f64)
        .collect();
    let hops = queue.pct(50.0)
        + step.pct(50.0)
        + uplink.pct(50.0)
        + publish_wait.pct(50.0)
        + notify.pct(50.0);
    let p2d50 = e2e.p2d.pct(50.0);

    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put = |name: &str, v: f64, unit: &'static str| m.push((name.to_string(), v, unit));
    put("counting.step_ms.p50", step.pct(50.0), "ms");
    put("counting.step_ms.p99", step.pct(99.0), "ms");
    put(
        "counting.points_per_frame",
        Samples::new(points).mean(),
        "points",
    );
    put(
        "counting.clusters_per_frame",
        Samples::new(clusters).mean(),
        "clusters",
    );
    put("counting.degraded_frames", degraded as f64, "count");
    put("counting.count_mae", e2e.mae.unwrap_or(0.0), "people");
    put("agent.queue_len.max", queue_max as f64, "count");
    put("agent.dropped_oldest", phase.dropped_oldest as f64, "count");
    put("pole.queue_ms.p50", queue.pct(50.0), "ms");
    put("uplink.wait_ms.p50", uplink.pct(50.0), "ms");
    put("uplink.wait_ms.p99", uplink.pct(99.0), "ms");
    put(
        "reactor.shed_frac",
        shed as f64 / received_reports.max(1) as f64,
        "fraction",
    );
    put("fusion.snapshot_ms.p50", snapshot_ms.pct(50.0), "ms");
    put("fusion.snapshot_ms.p99", snapshot_ms.pct(99.0), "ms");
    put("publish.wait_ms.p50", publish_wait.pct(50.0), "ms");
    put("publish.wait_ms.p99", publish_wait.pct(99.0), "ms");
    put(
        "fusion.people",
        phase.final_snap.people.len() as f64,
        "count",
    );
    put(
        "fusion.stale_discards",
        phase.stats.stale_discards as f64,
        "count",
    );
    put("sentinel.rejected", phase.stats.rejected as f64, "count");
    put("serve.notify_ms.p50", notify.pct(50.0), "ms");
    put("serve.notify_ms.p99", notify.pct(99.0), "ms");
    put("serve.hit_ratio", phase.hit_ratio, "fraction");
    put(
        "serve.bytes_per_read",
        Samples::new(answered).mean(),
        "bytes",
    );
    put("gen.late_ms.p99", e2e.late.pct(99.0), "ms");
    put("gen.late_frac", e2e.late_frac, "fraction");
    put("hop_sum.hops_ms", hops, "ms");
    put("hop_sum.p2d_p50_ms", p2d50, "ms");
    put(
        "hop_sum.gap_frac",
        (hops - p2d50).abs() / p2d50.max(f64::MIN_POSITIVE),
        "fraction",
    );
    put(
        "hop_sum.agree",
        f64::from(u8::from(hops_agree(hops, p2d50))),
        "bool",
    );
    Layers {
        metrics: m,
        hop_sum: (hops, p2d50),
    }
}

/// Whether the hop medians sum to the end-to-end median within the
/// stated tolerance.
pub fn hops_agree(hops: f64, p2d50: f64) -> bool {
    (hops - p2d50).abs() <= (HOP_TOLERANCE * p2d50).max(1.0)
}
