//! Photon-to-dashboard benchmark for HAWC-CC.
//!
//! ```text
//! cargo run --offline --release --quiet --manifest-path p2dbench/Cargo.toml -- \
//!     --workload campus_paced --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One process runs the whole chain under paced, open-loop load and
//! prints the end-to-end metrics (`--trace 0`) or the per-layer ones
//! (`--trace 1`) as the last line of stdout, one JSON object. The line
//! before it is a detail record: sample counts, generator health,
//! set-up repetitions, host metadata and the correctness checks. Any
//! correctness mismatch exits 1. A run whose load generator fell behind
//! is invalid; an invalid run, or one the host disturbed, is measured
//! once more, and if no run is valid the benchmark exits 3 without a
//! result. See `README.md`.

mod check;
mod cpus;
mod http;
mod phase;
mod replay;
mod report;
mod stats;
mod workload;

use std::time::{Duration, Instant};

use phase::System;
use stats::{json_num, json_str, Samples, Windowed};
use workload::{Inputs, PoleInputs, Spec};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
    Ok(Args {
        workload: workload
            .ok_or_else(|| format!("--workload is required ({})", names.join(", ")))?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| (1..=600).contains(&s))
            .ok_or("--seconds is required, 1 to 600")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Builds inputs and a ready system repeatedly, at least three times
/// and for at least a second, reporting each repetition's wall time
/// (the first from process start, so it also carries process start-up).
/// `setup_s` is their median: one set-up of a small workload takes tens
/// of milliseconds, short enough for one host hiccup to double it. The
/// last repetition's inputs and system are the ones run.
fn set_up(
    spec: &Spec,
    args: &Args,
    started: Instant,
) -> Result<(Inputs, System, Vec<f64>), String> {
    let mut reps = Vec::new();
    let mut rep_start = started;
    loop {
        let inputs = Inputs::build(spec, args.seed, args.seconds);
        let system = System::start(spec, &inputs, false)?;
        reps.push(rep_start.elapsed().as_secs_f64());
        if reps.len() >= 3 && started.elapsed() >= Duration::from_secs(1) {
            return Ok((inputs, system, reps));
        }
        system.stop();
        rep_start = Instant::now();
    }
}

struct Outcome {
    e2e: report::E2e,
    failures: Vec<String>,
    /// Connection errors on the paced reader: its unanswered reads
    /// already count as misses.
    read_errors: Vec<String>,
    layers: Option<report::Layers>,
    /// A traced run's replay metrics.
    replayed: Vec<(String, f64, &'static str)>,
}

fn analyse(phase: &phase::PhaseOut, inputs: &Inputs, reference: Option<&[Vec<usize>]>) -> Outcome {
    let cov = report::coverage(phase);
    let e2e = report::e2e(phase, inputs, &cov);
    let mut failures = phase.errors.clone();
    if let Some(r) = reference {
        check::check_counts(phase, r, &mut failures);
    }
    check::check_fusion(phase, &inputs.registry, &mut failures);
    check::check_delta(phase, &mut failures);
    // From the measured window on, every pole has reported, so every
    // read names an existing resource. (In warm-up a pole that has not
    // reported yet is rightly a 404.)
    for r in phase.reads.recs.iter().filter(|r| r.due >= phase.measure.0) {
        if r.done.is_some() && r.status != 200 && r.status != 304 {
            failures.push(format!(
                "a well-formed {:?} read got HTTP {}",
                r.kind, r.status
            ));
            break;
        }
    }
    let layers = phase
        .traced
        .then(|| report::layers(phase, inputs, &cov, &e2e));
    Outcome {
        e2e,
        failures,
        read_errors: phase.reads.errors.clone(),
        layers,
        replayed: Vec::new(),
    }
}

/// Why a run's figures cannot be reported, if they cannot.
fn invalid(e: &report::E2e) -> Option<String> {
    if e.late_frac > report::GEN_LATE_MAX_FRAC {
        return Some(format!(
            "the load generator fell behind: {:.2}% of events started over {} ms late (p99 {:.2} ms)",
            100.0 * e.late_frac,
            report::GEN_LATE_MS,
            e.late.pct(99.0)
        ));
    }
    for (name, s) in [("p2d", &e.p2d), ("read", &e.read)] {
        if s.min_beyond(Windowed::TAIL) < 10 {
            return Some(format!(
                "{name} has {} samples in {} slices, too few for a p{} with 10 beyond it",
                s.len(),
                s.slices.len(),
                Windowed::TAIL
            ));
        }
    }
    None
}

/// A run is measured at most this many times, again only while the run
/// kept so far was disturbed or invalid; the time budget below bounds an
/// invocation's time.
const ATTEMPTS: usize = 4;
/// Another attempt starts only while the invocation, that attempt and
/// the `later` runs after it included, still ends this long after
/// process start: the estimate can be short on a slow host, and an
/// invocation must end within 180 s.
const RUN_BUDGET: Duration = Duration::from_secs(120);

/// How disturbed a run was: the larger of its late-event share and the
/// host's steal share, each as a multiple of its disturbed threshold.
fn disturbance(e: &report::E2e) -> f64 {
    // `max` reads an unknown (NaN) steal share as none.
    let steal = e.steal_frac.max(0.0);
    (e.late_frac / report::GEN_DISTURBED_FRAC).max(steal / report::STEAL_DISTURBED_FRAC)
}

/// Why a run should be measured again, if it should: it is invalid, or
/// the host disturbed it. A run with correctness findings never is.
fn rerun_reason(out: &Outcome) -> Option<String> {
    if !out.failures.is_empty() {
        return None;
    }
    invalid(&out.e2e).or_else(|| {
        (disturbance(&out.e2e) > 1.0).then(|| {
            format!(
                "disturbed: {:.2}% of events started over {} ms late, {:.2}% of the host's CPU time stolen",
                100.0 * out.e2e.late_frac,
                report::GEN_LATE_MS,
                100.0 * out.e2e.steal_frac
            )
        })
    })
}

/// Which of two runs to report: one with correctness findings, else a
/// valid one, else the less disturbed one.
fn keep_first(a: &Outcome, b: &Outcome) -> bool {
    let rank = |o: &Outcome| {
        (
            o.failures.is_empty(),
            invalid(&o.e2e).is_some(),
            disturbance(&o.e2e),
        )
    };
    rank(a) <= rank(b)
}

/// Runs the load on `system` from `t0`, then, while the run kept so far
/// is disturbed or invalid and time allows, again on a freshly started
/// system, and returns the run to report (see [`keep_first`]); each
/// other run's reason goes to `set_aside`. Each run is analysed against
/// the count `reference`, which the first run fills, and replayed if
/// traced, and its records are dropped before the next starts. The
/// reported `peak_rss_mb` is always the first run's: the process keeps
/// memory from one run of the load to the next (~18 MiB per 20 s
/// `city_ingest` run, with every thread joined), so a re-run's peak
/// would grow with the number of runs before it. A host that takes the
/// CPUs away for seconds spoils one run of the load, not the invocation.
#[allow(clippy::too_many_arguments)]
fn measure(
    system: System,
    t0: Instant,
    spec: &Spec,
    inputs: &Inputs,
    args: &Args,
    reference: &mut Option<Vec<Vec<usize>>>,
    started: Instant,
    later: u32,
    set_aside: &mut Vec<String>,
) -> Result<Outcome, String> {
    let traced = system.traced();
    let mut next = Some((system, t0));
    let mut kept: Option<Outcome> = None;
    let mut first_peak_rss_mb = None;
    for attempt in 1..=ATTEMPTS {
        let (system, t0) = match next.take() {
            Some(first) => first,
            None => (System::start(spec, inputs, traced)?, Instant::now()),
        };
        let phase = system.run(spec, inputs, args.seconds, t0);
        // Computed after the first load: its seconds of work must fall
        // neither in set-up nor between set-up and the first due frame.
        if let (None, PoleInputs::Agents(c)) = (&*reference, &inputs.poles) {
            *reference = Some(check::reference_counts(c)?);
        }
        let mut out = analyse(&phase, inputs, reference.as_deref());
        out.e2e.peak_rss_mb = *first_peak_rss_mb.get_or_insert(out.e2e.peak_rss_mb);
        if traced {
            out.replayed = replay::replay(&phase, inputs)?;
        }
        drop(phase);
        let took = t0.elapsed().mul_f64(1.25);
        let out = match kept.take() {
            None => out,
            Some(prev) => {
                let (keep, other) = if keep_first(&prev, &out) {
                    (prev, out)
                } else {
                    (out, prev)
                };
                set_aside.extend(rerun_reason(&other));
                keep
            }
        };
        let again = rerun_reason(&out);
        kept = Some(out);
        match again {
            Some(why)
                if attempt < ATTEMPTS && started.elapsed() + took * (later + 1) <= RUN_BUDGET =>
            {
                eprintln!("[p2dbench] running the load again: {why}");
            }
            _ => break,
        }
    }
    Ok(kept.expect("at least one attempt"))
}

fn metrics_json(metrics: &[(String, f64, &str)]) -> String {
    let parts: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(n),
                json_num(*v),
                json_str(u)
            )
        })
        .collect();
    format!("{{{}}}", parts.join(","))
}

/// A latency's sample count, slices, least per-slice tail support, its
/// reported (median-of-slices) p50, p95 and p99, and its whole-run p50,
/// p99 and maximum.
fn samples_json(name: &str, s: &Windowed) -> String {
    format!(
        "{}:{{\"n\":{},\"slices\":{},\"min_beyond_p95\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"run_p50\":{},\"run_p99\":{},\"run_max\":{}}}",
        json_str(name),
        s.len(),
        s.slices.len(),
        s.min_beyond(Windowed::TAIL),
        json_num(s.pct(50.0)),
        json_num(s.pct(Windowed::TAIL)),
        json_num(s.pct(99.0)),
        json_num(s.all.pct(50.0)),
        json_num(s.all.pct(99.0)),
        json_num(s.all.pct(100.0)),
    )
}

fn main() {
    let started = Instant::now();
    // Record the process's CPUs before any thread is placed.
    cpus::init();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("p2dbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(spec) = workload::spec(&args.workload) else {
        eprintln!("p2dbench: unknown workload {:?}", args.workload);
        std::process::exit(2);
    };
    match run(&spec, &args, started) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("p2dbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(spec: &Spec, args: &Args, started: Instant) -> Result<i32, String> {
    let (inputs, system, reps) = set_up(spec, args, started)?;
    let t0 = Instant::now();
    let setup_s = Samples::new(reps.clone()).pct(50.0);
    eprintln!(
        "[p2dbench] {} seed {}: set-up {:.3} s (median of {} repetitions)",
        spec.name,
        args.seed,
        setup_s,
        reps.len()
    );
    let mut reference = None;
    let mut set_aside = Vec::new();
    let plain = measure(
        system,
        t0,
        spec,
        &inputs,
        args,
        &mut reference,
        started,
        u32::from(args.trace),
        &mut set_aside,
    )?;
    let traced = if args.trace {
        let system = System::start(spec, &inputs, true)?;
        Some(measure(
            system,
            Instant::now(),
            spec,
            &inputs,
            args,
            &mut reference,
            started,
            0,
            &mut set_aside,
        )?)
    } else {
        None
    };

    let mut failures = plain.failures.clone();
    if let Some(t) = &traced {
        failures.extend(t.failures.iter().map(|f| format!("traced run: {f}")));
    }
    let shown = traced.as_ref().unwrap_or(&plain);
    let invalid = invalid(&plain.e2e).or_else(|| traced.as_ref().and_then(|t| invalid(&t.e2e)));

    let mut e2e: Vec<(String, f64, &str)> = vec![("setup_s".to_string(), setup_s, "s")];
    e2e.extend(
        plain
            .e2e
            .metrics()
            .into_iter()
            .map(|(n, v, u)| (n.to_string(), v, u)),
    );
    let metrics: Vec<(String, f64, &str)> = match &traced {
        None => e2e.clone(),
        Some(t) => {
            let layers = t.layers.as_ref().expect("a traced run yields layers");
            let (hops, p2d50) = layers.hop_sum;
            if !report::hops_agree(hops, p2d50) {
                eprintln!(
                    "[p2dbench] instrumentation bug: hop medians sum to {hops:.3} ms, \
                     traced p2d_p50_ms is {p2d50:.3} ms (tolerance {:.0}% or 1 ms)",
                    100.0 * report::HOP_TOLERANCE
                );
            }
            let mut m = layers.metrics.clone();
            m.extend(t.replayed.iter().cloned());
            // Too unsteady for an end-to-end metric (see `Windowed::TAIL`).
            m.push(("read.p99_ms".to_string(), plain.e2e.read.pct(99.0), "ms"));
            // Tracing overhead: traced minus untraced, per metric.
            for ((name, a, u), (_, b, _)) in plain.e2e.metrics().iter().zip(t.e2e.metrics()) {
                m.push((format!("overhead.{name}"), b - a, u));
            }
            m
        }
    };

    let detail = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{{\"nproc\":{},\"cpu\":{},\"commit\":{}}},\
         \"setup_reps_s\":[{}],\"samples\":{{{},{},{}}},\"gen\":{{\"late_p99_ms\":{},\"late_frac\":{}}},\"host_steal_frac\":{},\
         \"frames\":{{\"due\":{},\"failed\":{}}},\"reads\":{{\"due\":{},\"failed\":{}}},\
         \"pole_count_mae\":{},\"invalid\":{},\"set_aside\":[{}],\"failures\":[{}],\"end_to_end\":{}}}",
        json_str(spec.name),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        stats::nproc(),
        json_str(&stats::cpu_model()),
        json_str(&stats::commit()),
        reps.iter().map(|r| json_num(*r)).collect::<Vec<_>>().join(","),
        samples_json("p2d_ms", &plain.e2e.p2d),
        samples_json("read_ms", &plain.e2e.read),
        samples_json("read_from_send_ms", &plain.e2e.read_from_send),
        json_num(plain.e2e.late.pct(99.0)),
        json_num(plain.e2e.late_frac),
        json_num(plain.e2e.steal_frac),
        plain.e2e.frames_due,
        plain.e2e.frames_failed,
        plain.e2e.reads_due,
        plain.e2e.reads_failed,
        plain.e2e.mae.map_or("null".to_string(), json_num),
        invalid.as_deref().map_or("null".to_string(), json_str),
        set_aside.iter().map(|d| json_str(d)).collect::<Vec<_>>().join(","),
        failures.iter().map(|f| json_str(f)).collect::<Vec<_>>().join(","),
        metrics_json(&e2e),
    );
    println!("{detail}");
    for f in &failures {
        eprintln!("[p2dbench] MISMATCH: {f}");
    }
    for e in plain
        .read_errors
        .iter()
        .chain(traced.iter().flat_map(|t| &t.read_errors))
    {
        eprintln!("[p2dbench] read connection: {e}");
    }
    for (n, v, u) in &metrics {
        eprintln!("[p2dbench] {n:<32} {v:>14.4} {u}");
    }
    if let Some(why) = &invalid {
        if failures.is_empty() {
            eprintln!("[p2dbench] INVALID RUN: {why}");
            return Ok(3);
        }
    }
    let attempted = shown.e2e.frames_due + shown.e2e.reads_due;
    let failed = shown.e2e.frames_failed + shown.e2e.reads_failed;
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        failures.is_empty(),
        attempted.max(1),
        failed,
        metrics_json(&metrics)
    );
    Ok(if failures.is_empty() { 0 } else { 1 })
}
