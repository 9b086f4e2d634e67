//! Exact quantiles over raw samples, and the process/host readings the
//! report carries (`/proc` CPU time and peak RSS, CPU model, commit).

use std::time::Instant;

/// Milliseconds from `a` to `b` (negative when `b` is earlier).
pub fn ms(a: Instant, b: Instant) -> f64 {
    if b >= a {
        (b - a).as_secs_f64() * 1e3
    } else {
        -((a - b).as_secs_f64() * 1e3)
    }
}

/// Sorted raw samples. Every percentile is an order statistic of the
/// samples themselves (nearest rank), never a histogram bucket edge.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.retain(|v| v.is_finite());
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile `p` in `[0, 100]`; 0 with no samples.
    pub fn pct(&self, p: f64) -> f64 {
        let n = self.sorted.len();
        if n == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        self.sorted[rank.clamp(1, n) - 1]
    }

    /// Samples strictly above the `p`th percentile's rank: the support
    /// a tail percentile has. A tail is reported only with ≥ 10.
    pub fn beyond(&self, p: f64) -> usize {
        let n = self.sorted.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        n.saturating_sub(rank.clamp(1, n.max(1)))
    }

    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
        }
    }

    /// Samples greater than `x`.
    pub fn count_above(&self, x: f64) -> usize {
        self.sorted.len() - self.sorted.partition_point(|v| *v <= x)
    }
}

/// Samples taken across the measured window, summarised per equal time
/// slice. A reported percentile is the median, across slices, of each
/// slice's exact percentile. A slice lasts at least a second, so every
/// periodic event of the program (a publish every few milliseconds, the
/// reactor's republish every 250 ms) falls inside every slice and is
/// charged in each; a host stall that spoils a few seconds of a run
/// moves the result by a few ranks. A slice also holds at least
/// [`Windowed::MIN_PER_SLICE`] samples on average, half as many again
/// as [`Windowed::TAIL`] needs for ten beyond it, so a slice that got
/// fewer by chance (a lost frame, an uneven rate) still has ten; a
/// sparse series is one slice, the whole run.
#[derive(Debug, Clone, Default)]
pub struct Windowed {
    pub all: Samples,
    pub slices: Vec<Samples>,
}

impl Windowed {
    /// The tail percentile p2d reports. Not p99: a `campus_paced` run
    /// has 1600 frames, one slice for a p99, whose 16 highest frames one
    /// ~60 ms host stall sets; on a 2-vCPU host p2d p99 spread by
    /// IQR/median 1.03 over five seeds. Reads report no tail end to end:
    /// their p99 (~0.11 ms on `campus_paced`) sits on the shoulder of
    /// the main mode and moved with the host's speed (IQR/median 0.245
    /// and 0.249 in two ten-seed rounds), and their p95 on `city_ingest`
    /// sits inside the mode of ~65 KB snapshot answers (0.466).
    pub const TAIL: f64 = 95.0;
    pub const MIN_PER_SLICE: usize = 300;

    pub fn new(points: Vec<(Instant, f64)>, span: (Instant, Instant)) -> Windowed {
        let len = span.1.saturating_duration_since(span.0).as_secs_f64();
        let count = (points.len() / Self::MIN_PER_SLICE)
            .min(len as usize)
            .max(1);
        let mut slices = vec![Vec::new(); count];
        for &(t, v) in &points {
            let at = t.saturating_duration_since(span.0).as_secs_f64() / len.max(f64::MIN_POSITIVE);
            slices[((at * count as f64) as usize).min(count - 1)].push(v);
        }
        Windowed {
            all: Samples::new(points.into_iter().map(|p| p.1).collect()),
            slices: slices.into_iter().map(Samples::new).collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.all.len()
    }

    /// Median across slices of each slice's `p`th percentile.
    pub fn pct(&self, p: f64) -> f64 {
        Samples::new(self.slices.iter().map(|w| w.pct(p)).collect()).pct(50.0)
    }

    /// The least tail support any slice has at percentile `p`.
    pub fn min_beyond(&self, p: f64) -> usize {
        self.slices.iter().map(|w| w.beyond(p)).min().unwrap_or(0)
    }
}

/// User + system CPU seconds this process has used, from
/// `/proc/self/stat` (fields 14 and 15, in USER_HZ = 100 ticks/s).
pub fn cpu_seconds() -> f64 {
    cpu_seconds_of("/proc/self/stat")
}

/// [`cpu_seconds`] for any `/proc` `stat` file (a process or a thread).
pub fn cpu_seconds_of(path: &str) -> f64 {
    let Ok(stat) = std::fs::read_to_string(path) else {
        return f64::NAN;
    };
    // The command name may hold spaces and parentheses: count fields
    // from after the last ')'.
    let rest = stat.rsplit(')').next().unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => (u + s) as f64 / 100.0,
        _ => f64::NAN,
    }
}

/// Steal and total CPU ticks of the whole guest, from the `cpu` line
/// of `/proc/stat`. Steal is time the hypervisor gave this guest's
/// ready vCPUs to someone else: a host that takes the CPUs away shows
/// here whatever the benchmark's threads were doing.
pub fn host_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    // user nice system idle iowait irq softirq steal (guest time is
    // already inside user and nice).
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    (ticks.len() == 8).then(|| (ticks[7], ticks.iter().sum()))
}

/// The share of the guest's CPU time stolen between two [`host_ticks`]
/// readings; NaN when either is missing or no tick passed.
pub fn steal_frac(a: Option<(u64, u64)>, b: Option<(u64, u64)>) -> f64 {
    match (a, b) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
        }
        _ => f64::NAN,
    }
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return f64::NAN;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit being measured: `.git/HEAD` resolved when the checkout is
/// a git work tree, else "unknown".
pub fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").ok();
    let resolved = head
        .as_deref()
        .map(str::trim)
        .and_then(|h| match h.strip_prefix("ref: ") {
            None => Some(h.to_string()),
            Some(r) => std::fs::read_to_string(format!(".git/{r}"))
                .ok()
                .map(|s| s.trim().to_string())
                .or_else(|| {
                    std::fs::read_to_string(".git/packed-refs")
                        .ok()
                        .and_then(|p| {
                            p.lines()
                                .find(|l| l.ends_with(r))
                                .and_then(|l| l.split_whitespace().next())
                                .map(str::to_string)
                        })
                }),
        });
    resolved.unwrap_or_else(|| "unknown".to_string())
}

/// Renders `v` as a JSON number (non-finite as `null`), with all its
/// digits.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_order_statistics() {
        let s = Samples::new((1..=1000).map(f64::from).collect());
        assert_eq!(s.pct(50.0), 500.0);
        assert_eq!(s.pct(99.0), 990.0);
        assert_eq!(s.beyond(99.0), 10);
        assert_eq!(s.pct(100.0), 1000.0);
        assert_eq!(Samples::new(vec![]).pct(50.0), 0.0);
    }

    #[test]
    fn windowed_percentiles_are_medians_of_slices() {
        let t0 = Instant::now();
        let span = (t0, t0 + std::time::Duration::from_secs(3));
        // Three one-second slices of 400 samples; the middle one stalls.
        let points: Vec<(Instant, f64)> = (0..1200)
            .map(|i| {
                let at = t0 + std::time::Duration::from_micros(i * 3_000_000 / 1200);
                let v = if (400..800).contains(&i) {
                    100.0
                } else {
                    (i % 400) as f64 / 400.0
                };
                (at, v)
            })
            .collect();
        let w = Windowed::new(points.clone(), span);
        assert_eq!(w.slices.len(), 3);
        assert_eq!(w.len(), 1200);
        assert!(
            w.pct(Windowed::TAIL) < 1.0,
            "a stalled slice must not set the tail"
        );
        assert_eq!(w.min_beyond(Windowed::TAIL), 20);
        // Too few samples for two slices of 300: one slice.
        let sparse = Windowed::new(points.into_iter().step_by(3).collect(), span);
        assert_eq!(sparse.slices.len(), 1);
        // Never shorter than a second, however many samples.
        let half = (t0, t0 + std::time::Duration::from_millis(1500));
        let dense: Vec<(Instant, f64)> = (0..9000u64)
            .map(|i| {
                (
                    t0 + std::time::Duration::from_micros(i * 1_500_000 / 9000),
                    1.0,
                )
            })
            .collect();
        assert_eq!(Windowed::new(dense, half).slices.len(), 1);
    }
}
