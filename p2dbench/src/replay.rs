//! After a traced run: feed the run's recorded inputs to each layer's
//! public functions on one thread, and time each call.

use std::sync::Arc;
use std::time::Instant;

use cluster::{adaptive_dbscan_with_scratch, AdaptiveConfig, DbscanScratch};
use fleet::{decode, encode, FusionConfig, Message, ShardedFusion};
use geom::Point3;
use obs::SystemClock;
use projection::{project_batch, upsample_with_pool};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serve::{Connection, ServeConfig, ServeCore, ServeMetrics};
use world::WalkwayConfig;

use crate::phase::{counter_config, PhaseOut};
use crate::stats::Samples;
use crate::workload::{Inputs, PoleInputs};

/// Most frames (per layer) a replay times; enough for a steady median.
const MAX_FRAMES: usize = 20_000;
/// Captures the counting replay re-runs (each costs a full frame).
const MAX_CAPTURES: usize = 200;

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

pub fn replay(
    phase: &PhaseOut,
    inputs: &Inputs,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    let mut m: Vec<(String, f64, &'static str)> = Vec::new();

    // Every frame the poles sent, in send order across poles.
    let mut frames: Vec<(Instant, u32, &[u8])> = Vec::new();
    let sends: Vec<_> = phase
        .links
        .iter()
        .map(|l| l.sends.lock().unwrap_or_else(|e| e.into_inner()))
        .collect();
    for (p, s) in sends.iter().enumerate() {
        frames.extend(s.iter().map(|(at, f)| (*at, p as u32, f.as_slice())));
    }
    frames.sort_by_key(|f| f.0);

    // wire: decode and re-encode reports from the measured window.
    let mut dec = Vec::new();
    let mut enc = Vec::new();
    let mut bytes = Vec::new();
    for &(_, _, f) in frames
        .iter()
        .filter(|f| f.0 >= phase.measure.0 && f.0 < phase.measure.1)
        .take(MAX_FRAMES)
    {
        let t = Instant::now();
        let msg = decode(f);
        dec.push(us(t));
        if let Ok(Some((msg @ Message::Report(_), _))) = msg {
            let t = Instant::now();
            let again = encode(&msg);
            enc.push(us(t));
            if again != f {
                return Err("a decoded report re-encodes to different bytes".into());
            }
            bytes.push(f.len() as f64);
        }
    }
    m.push((
        "wire.decode_us.p50".into(),
        Samples::new(dec).pct(50.0),
        "us",
    ));
    m.push((
        "wire.encode_us.p50".into(),
        Samples::new(enc).pct(50.0),
        "us",
    ));
    m.push((
        "wire.bytes_per_report".into(),
        Samples::new(bytes).mean(),
        "bytes",
    ));

    // fusion: the whole run's traffic into a fresh sharded fusion.
    let fusion = ShardedFusion::new(
        inputs.registry.clone(),
        WalkwayConfig::default(),
        FusionConfig::default(),
        0,
        Arc::new(SystemClock),
    );
    let mut ingest = Vec::new();
    for &(at, p, f) in &frames {
        let Ok(Some((msg, _))) = decode(f) else {
            return Err(format!("pole {p} sent an undecodable frame"));
        };
        let t = Instant::now();
        let _ = fusion.ingest_from(p + 1, msg);
        let d = us(t);
        if at >= phase.measure.0 && at < phase.measure.1 && ingest.len() < MAX_FRAMES {
            ingest.push(d);
        }
    }
    let ingest = Samples::new(ingest);
    m.push(("fusion.ingest_us.p50".into(), ingest.pct(50.0), "us"));
    m.push(("fusion.ingest_us.p99".into(), ingest.pct(99.0), "us"));
    drop(sends);

    // serve: a standalone core fed the run's consecutive snapshots.
    let mut core = ServeCore::new(ServeConfig::default(), ServeMetrics::default());
    let mut conn = Connection::new();
    let (mut render, mut reval, mut full, mut slice, mut delta) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut prev: Option<u64> = None;
    for (epoch, snap) in &phase.pubs.kept {
        let t = Instant::now();
        core.on_publish(*epoch, Arc::clone(snap));
        render.push(ms(t));
        let pole = snap.poles.first().map_or(0, |p| p.pole_id);
        let zone = snap.zones.first().map_or((0, 0), |z| (z.zone_x, z.zone_y));
        let mut time = |req: String, into: &mut Vec<f64>| {
            conn.out.clear();
            let t = Instant::now();
            let _ = core.on_bytes(&mut conn, req.as_bytes());
            into.push(us(t));
        };
        time(
            format!("GET /snapshot HTTP/1.1\r\nIf-None-Match: \"{epoch}\"\r\n\r\n"),
            &mut reval,
        );
        time("GET /snapshot HTTP/1.1\r\n\r\n".into(), &mut full);
        time(format!("GET /pole/{pole} HTTP/1.1\r\n\r\n"), &mut slice);
        time(
            format!("GET /zone/{},{} HTTP/1.1\r\n\r\n", zone.0, zone.1),
            &mut slice,
        );
        if let Some(since) = prev {
            time(
                format!("GET /delta?since={since} HTTP/1.1\r\n\r\n"),
                &mut delta,
            );
        }
        prev = Some(*epoch);
    }
    m.push((
        "serve.render_ms.p50".into(),
        Samples::new(render).pct(50.0),
        "ms",
    ));
    m.push((
        "serve.revalidate_us.p50".into(),
        Samples::new(reval).pct(50.0),
        "us",
    ));
    m.push((
        "serve.full_us.p50".into(),
        Samples::new(full).pct(50.0),
        "us",
    ));
    m.push((
        "serve.slice_us.p50".into(),
        Samples::new(slice).pct(50.0),
        "us",
    ));
    m.push((
        "serve.delta_us.p50".into(),
        Samples::new(delta).pct(50.0),
        "us",
    ));

    // counting: the measured window's captures through each stage.
    let (mut dbscan, mut upsample, mut project, mut classify) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    if let PoleInputs::Agents(c) = &inputs.poles {
        let mut int8 = c
            .model
            .quantize(&c.calibration, 100)
            .map_err(|e| format!("quantise the replay model: {e}"))?;
        let hawc = *c.model.config();
        let min_points = counter_config().min_cluster_points;
        let mut scratch = DbscanScratch::new();
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for e in phase
            .events
            .iter()
            .filter(|e| e.due >= phase.measure.0 && e.due < phase.measure.1)
            .take(MAX_CAPTURES)
        {
            let caps = &c.captures[e.pole as usize];
            let points = caps[e.k as usize % caps.len()].cloud.points();
            let t = Instant::now();
            let clustering =
                adaptive_dbscan_with_scratch(points, &AdaptiveConfig::default(), &mut scratch);
            let groups = clustering.cluster_points(points);
            dbscan.push(ms(t));
            let kept: Vec<Vec<Point3>> = groups
                .into_iter()
                .filter(|g| g.len() >= min_points)
                .collect();
            if kept.is_empty() {
                continue;
            }
            // One padding draw per frame (HAWC votes over several).
            let t = Instant::now();
            let padded = kept
                .iter()
                .map(|k| upsample_with_pool(k, hawc.target_points, &c.pool, &mut rng))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("upsample: {e}"))?;
            upsample.push(ms(t));
            let t = Instant::now();
            let views = project_batch(&padded, &hawc.projection);
            project.push(ms(t));
            std::hint::black_box(views);
            let t = Instant::now();
            let labels = int8.predict_batch(&kept);
            classify.push(ms(t));
            std::hint::black_box(labels);
        }
    }
    m.push((
        "cluster.dbscan_ms.p50".into(),
        Samples::new(dbscan).pct(50.0),
        "ms",
    ));
    m.push((
        "projection.upsample_ms.p50".into(),
        Samples::new(upsample).pct(50.0),
        "ms",
    ));
    m.push((
        "projection.project_ms.p50".into(),
        Samples::new(project).pct(50.0),
        "ms",
    ));
    m.push((
        "hawc.classify_ms.p50".into(),
        Samples::new(classify).pct(50.0),
        "ms",
    ));
    Ok(m)
}
