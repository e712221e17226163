//! Small shared pieces: seeded randomness, order statistics, resident
//! memory, record digests, and the result line the benchmark prints.

use cbws_stats::RunRecord;
use std::fmt::Write as _;

/// SplitMix64: a tiny seeded generator, so the benchmark's inputs depend
/// on `--seed` alone and not on any library's RNG stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Linear-interpolation quantile of `values` (`0 <= q <= 1`), the same
/// definition as numpy's default. `values` need not be sorted.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        1 => v[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Samples that lie above quantile `q` of `n` samples. A percentile is
/// only reported when at least ten samples lie beyond it.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    (n as f64 * (1.0 - q) + 1e-9).floor() as usize
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals then fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable struct with the layout of the C
    // `struct rusage` on this target, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage.maxrss as f64 / 1024.0
}

/// One record per line, exactly as the sweep server streams it.
pub fn record_line(record: &RunRecord) -> String {
    serde_json::to_string(record).expect("records serialize")
}

/// FNV-1a over the serialized records: equal digests mean every
/// simulated statistic is unchanged.
pub fn digest<'a>(lines: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for line in lines {
        for b in line.bytes().chain(std::iter::once(b'\n')) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Output checks: every check is one attempted operation, every failed
/// check one failed operation.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The result object the benchmark prints as its last line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` prints the shortest representation that round-trips,
        // always with a decimal point or exponent.
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// What one measured phase did, summed over its whole rounds.
#[derive(Default)]
pub struct Phase {
    /// Host seconds inside measured rounds.
    pub wall_s: f64,
    /// Requests completed: engine jobs, or HTTP sweeps.
    pub requests: u64,
    /// Trace events simulated (result-store hits excluded).
    pub events: u64,
    /// Per-request latency samples.
    pub latencies_ms: Vec<f64>,
    /// Peak resident memory of the process running the program.
    pub peak_rss_mb: f64,
}

/// The latency percentiles reported, each needing ten samples beyond it.
pub const LATENCY_QUANTILES: [(f64, &str); 2] = [(0.5, "latency_p50_ms"), (0.9, "latency_p90_ms")];

/// Samples a phase must collect so every reported percentile has ten
/// samples beyond it.
pub const MIN_LATENCY_SAMPLES: usize = 100;

/// Longest a measured phase may run while it collects latency samples,
/// so a run on a slow host still ends well inside its time limit.
pub const PHASE_CAP_S: f64 = 120.0;

impl Phase {
    pub fn metrics(&self, checks: &mut Checks) -> Vec<Metric> {
        let n = self.latencies_ms.len();
        println!(
            "latency: {n} samples, shortest {:.3} ms",
            quantile(&self.latencies_ms, 0.0)
        );
        let mut out = vec![
            metric(
                "sim_mevents_per_s",
                self.events as f64 / self.wall_s / 1e6,
                "Mevents/s",
            ),
            metric("req_per_s", self.requests as f64 / self.wall_s, "1/s"),
        ];
        for (q, name) in LATENCY_QUANTILES {
            let beyond = samples_beyond(n, q);
            checks.check(
                beyond >= 10,
                &format!("{name}: only {beyond} samples beyond it"),
            );
            println!("{name}: {n} samples, {beyond} beyond");
            out.push(metric(name, quantile(&self.latencies_ms, q), "ms"));
        }
        out.push(metric("peak_rss_mb", self.peak_rss_mb, "MiB"));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(samples_beyond(MIN_LATENCY_SAMPLES, 0.9), 10);
    }

    #[test]
    fn rng_is_seeded() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut v: Vec<u32> = (0..10).collect();
        Rng::new(3).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn result_line_is_json() {
        let line = result_line(
            true,
            3,
            0,
            &[metric("a", 1.0, "s"), metric("b", 0.25, "ms")],
        );
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v.get("attempted").and_then(|a| a.as_u64()), Some(3));
        assert!(line.contains("\"value\": 1.0"));
    }
}
