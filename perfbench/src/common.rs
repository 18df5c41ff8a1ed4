//! Shared pieces: metric records, percentiles, the work fingerprint, and
//! the result of one workload run.

use std::collections::BTreeMap;

/// One reported number: name, value, unit, and (for percentiles and
/// per-operation means) how many samples it summarizes.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: Option<usize>,
}

/// An ordered metric list with lookup by name.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric { name: name.into(), value, unit, samples: None });
    }

    pub fn put_n(&mut self, name: impl Into<String>, value: f64, unit: &'static str, n: usize) {
        self.0.push(Metric { name: name.into(), value, unit, samples: Some(n) });
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }
}

/// Seed-determined work counts: identical across two runs with one seed,
/// whatever the machine or the speed of the code.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Fingerprint(pub BTreeMap<String, u64>);

impl Fingerprint {
    pub fn add(&mut self, key: impl Into<String>, by: u64) {
        *self.0.entry(key.into()).or_default() += by;
    }

    /// FNV-1a digest of every count, for a one-token comparison.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (key, value) in &self.0 {
            for byte in key.bytes().chain(value.to_le_bytes()) {
                h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
}

/// The outcome of one end-to-end workload run.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Failures that are documented defects of the program (they still
    /// count in `failed`).
    pub known_failures: Vec<String>,
    /// Wrong answers, unexpected errors and failed self-checks.
    pub problems: Vec<String>,
    pub metrics: Metrics,
    pub fingerprint: Fingerprint,
}

impl RunResult {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.problems.push(what);
    }
}

/// What a workload's traced profile found: the wall of one round untraced
/// and traced, the operations traced, and what went wrong.
#[derive(Debug, Default)]
pub struct Profile {
    pub untraced_s: f64,
    pub traced_s: f64,
    pub operations: u64,
    pub problems: Vec<String>,
    pub known_failures: Vec<String>,
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// order statistics; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Ratio that reads 0 instead of NaN when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of this process (VmHWM) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A SplitMix64 step: derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether to start round number `done` (0-based) of a run that has spent
/// `elapsed` of its `budget` seconds: always the first, then only while
/// another round of average length is expected to end within the budget.
/// Whole rounds keep the mix of operations the same in every run.
pub fn another_round(done: usize, elapsed: f64, budget: f64) -> bool {
    done == 0 || elapsed + elapsed / done as f64 <= budget
}

/// Times `f` `reps` times and returns the median wall time in seconds
/// together with the last result.
pub fn median_timed<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let start = std::time::Instant::now();
        let out = f();
        times.push(start.elapsed().as_secs_f64());
        last = Some(out);
    }
    (median(&times), last.expect("at least one repetition"))
}

/// Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut impl rand::Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Host speed probe: ns per step of a fixed integer-and-cache loop (median
/// of five). Printed next to the timings so a slow host shows as a slow
/// probe, not as a regression of the program.
pub fn calibration_ns() -> f64 {
    let table: Vec<u64> = (0..32_768u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
    let steps = 2_000_000u64;
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let start = std::time::Instant::now();
            let mut x = 0x2545_F491_4F6C_DD1Du64;
            for _ in 0..steps {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(table[(x >> 49) as usize]);
            }
            std::hint::black_box(x);
            start.elapsed().as_secs_f64() * 1e9 / steps as f64
        })
        .collect();
    median(&times)
}
