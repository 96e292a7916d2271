//! End-to-end and per-layer benchmark of the APXPERF-RS pipeline.
//!
//! Three workloads contrast the layers (see `perfbench/README.md`):
//!
//! * [`characterize`] — one caller characterizes a fixed config mix
//!   with the cache disabled: operator kernels and the netlist do all
//!   the work.
//! * [`repro`] — the cold paper reproduction, run as `apxperf`
//!   subcommands against a fresh cache directory: the application
//!   layer dominates.
//! * [`serve`] — warm `GET /report/<CONFIG>` traffic against an
//!   in-process `apx_serve::Server`: every request is a cache hit.
//!
//! End-to-end metrics are always taken untraced. A traced run (`--trace
//! 1`) replays the same work through [`mirror`], which times every call
//! into a layer's public functions with the [`trace`] span recorder.

pub mod characterize;
pub mod layers;
pub mod mirror;
pub mod repro;
pub mod serve;
pub mod sys;
pub mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["characterize", "repro_cold", "serve_warm"];

/// How much work one run does. `Full` is what `BENCHMARK.json` measures;
/// `Tiny` exists for the self-test and finishes in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark proper.
    Full,
    /// Small settings and few configs, for the self-test.
    Tiny,
}

/// Everything a workload needs to run once.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload seed; every input is derived from it.
    pub seed: u64,
    /// How long the measured phase runs, in seconds.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics) or the
    /// untraced one (end-to-end metrics).
    pub trace: bool,
    /// Work size.
    pub scale: Scale,
    /// Engine threads and client threads: the machine parallelism.
    pub threads: usize,
    /// Executable that runs `apxperf` subcommands when invoked as
    /// `<exe> cli <ARGS>`.
    pub exe: PathBuf,
    /// Scratch directory for caches; removed when the run ends.
    pub work_dir: PathBuf,
}

impl RunConfig {
    /// Whether the measured phase should start another unit of work.
    #[must_use]
    pub fn keep_going(&self, started: Instant, units_done: usize) -> bool {
        units_done == 0 || started.elapsed().as_secs_f64() < self.seconds
    }
}

/// Mixes a benchmark seed with a stream index (SplitMix64 finalizer), so
/// each pass, round or step gets its own reproducible sub-seed.
#[must_use]
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seed-permuted order of `n` items (Fisher–Yates on a SplitMix64
/// stream).
#[must_use]
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (sub_seed(seed, i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// FNV-1a over a byte stream: a digest that is stable across builds and
/// platforms, so two commits can compare their report bytes.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// The digest as 16 hex digits.
    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Outcome counts of a run: every request is attempted once and either
/// passes its output check or counts as failed (panic, error return,
/// bad status, refusal, timeout or wrong bytes).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that failed or returned a wrong output.
    pub failed: u64,
}

impl Tally {
    /// Records one request and whether it passed.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Share of attempted requests that passed.
    #[must_use]
    pub fn ok_ratio(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }
}

/// What one run reports: outcome counts, extra checks that are not
/// per-request (digests, warm reruns), and named metrics with units.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Per-request outcomes.
    pub tally: Tally,
    /// Whole-run checks that failed, by description. Any entry makes the
    /// run incorrect.
    pub check_failures: Vec<String>,
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, &'static str)>,
}

impl RunResult {
    /// Sets a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), (value, unit));
    }

    /// Records a failed whole-run check.
    pub fn fail_check(&mut self, what: impl Into<String>) {
        self.check_failures.push(what.into());
    }

    /// Sets every end-to-end metric of `BENCHMARK.json` and prints the
    /// run-wide figures beside them.
    pub fn end_to_end(&mut self, e2e: &EndToEnd) {
        self.metric("setup_s", e2e.setup_s, "s");
        self.metric("cpu_s", median(&e2e.unit_cpu_s), "s");
        self.metric("peak_rss_mb", e2e.peak_rss_mb, "MiB");
        self.metric("ok_ratio", self.tally.ok_ratio(), "ratio");
        let wall: f64 = e2e.unit_wall_s.iter().sum();
        let ms = |q: f64| 1e3 * quantile(&e2e.latencies, q);
        println!(
            "run-wide: {} units, median unit wall {:.4} s, least-disturbed unit wall {:.4} s, \
             median unit cpu {:.4} s, {:.2} requests/s; \
             latency ms p50 {:.3} p90 {:.3} p99 {:.3} max {:.3}; \
             hypervisor steal {:.2} of {:.2} vCPU-s",
            e2e.unit_wall_s.len(),
            median(&e2e.unit_wall_s),
            e2e.wall_s,
            median(&e2e.unit_cpu_s),
            e2e.requests as f64 / wall,
            ms(0.5),
            ms(0.9),
            ms(0.99),
            ms(1.0),
            e2e.steal_s,
            wall * e2e.vcpus as f64,
        );
    }

    /// Whether every request and every whole-run check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.check_failures.is_empty() && self.tally.attempted > 0
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`. Non-finite values are printed as 0 so the
    /// line stays valid JSON.
    #[must_use]
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

/// The measurements behind the end-to-end metrics of an untraced run.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Median CPU seconds of one set-up.
    pub setup_s: f64,
    /// Least-disturbed wall-clock of one unit of work, seconds (see
    /// [`least_disturbed`]). Printed, not gated.
    pub wall_s: f64,
    /// Wall-clock of each unit of work (a pass, a cold sequence, a
    /// round), seconds.
    pub unit_wall_s: Vec<f64>,
    /// CPU seconds (this process and its waited-for children) of each
    /// unit of work; their median is the gated `cpu_s`.
    pub unit_cpu_s: Vec<f64>,
    /// Per-request wall-clock latency over all units, seconds.
    pub latencies: Vec<f64>,
    /// Requests completed over all units.
    pub requests: usize,
    /// Peak resident memory of the process doing the work, MiB.
    pub peak_rss_mb: f64,
    /// vCPU seconds the hypervisor stole during the measured phase.
    pub steal_s: f64,
    /// vCPUs of the machine.
    pub vcpus: usize,
}

/// The least-disturbed wall-clock of a unit whose requests are timed
/// once per unit: each request's fastest time over the run's units,
/// summed. `times[u][r]` is request `r` of unit `u`.
///
/// The measurement host's hypervisor steals vCPU time in bursts of a
/// few milliseconds to seconds. A request's fastest repeat is the one no
/// burst hit, so the sum is the unit's undisturbed wall-clock. This fits
/// requests whose undisturbed time is the same on every repeat (a
/// report, an `apxperf` command); `serve_warm` keeps whole rounds,
/// because each response waits a random part of the accept loop's 2 ms
/// sleep.
#[must_use]
pub fn least_disturbed(times: &[Vec<f64>]) -> f64 {
    let requests = times.first().map_or(0, Vec::len);
    (0..requests)
        .map(|r| {
            times
                .iter()
                .map(|unit| unit[r])
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// The `q`-quantile (0..=1) of `values` by nearest rank; 0 when empty.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values`; 0 when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Runs `setup` at least `min_times` times and until `min_seconds` have
/// passed, and returns the median CPU seconds of one call (this process
/// and its waited-for children) together with the value of the last
/// call; earlier values are handed to `discard` so their resources are
/// released in order.
pub fn timed_setups<T>(
    min_times: usize,
    min_seconds: f64,
    mut setup: impl FnMut() -> T,
    mut discard: impl FnMut(T),
) -> (f64, T) {
    let started = Instant::now();
    let mut costs = Vec::new();
    let mut last = None;
    while costs.len() < min_times.max(1) || started.elapsed().as_secs_f64() < min_seconds {
        if let Some(previous) = last.take() {
            discard(previous);
        }
        let cpu = sys::cpu_seconds_total();
        last = Some(setup());
        costs.push(sys::cpu_seconds_total() - cpu);
    }
    (median(&costs), last.expect("at least one setup ran"))
}

/// Runs one workload and returns its result.
///
/// # Errors
/// An unknown workload name or a setup failure (an unwritable scratch
/// directory, an unbindable socket), as a message.
pub fn run_workload(name: &str, config: &RunConfig) -> Result<RunResult, String> {
    std::fs::create_dir_all(&config.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", config.work_dir.display()))?;
    let result = match name {
        "characterize" => Ok(characterize::run(config)),
        "repro_cold" => repro::run(config),
        "serve_warm" => serve::run(config),
        other => Err(format!(
            "unknown workload `{other}`; expected one of {}",
            WORKLOADS.join(", ")
        )),
    };
    std::fs::remove_dir_all(&config.work_dir).ok();
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&values, 0.5), 50.0);
        assert_eq!(quantile(&values, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn a_failed_request_lowers_ok_ratio_and_correctness() {
        let mut result = RunResult::default();
        result.tally.record(true);
        assert!(result.correct());
        result.tally.record(false);
        assert_eq!(result.tally.ok_ratio(), 0.5);
        assert!(!result.correct());
        assert!(result.json_line().contains("\"failed\": 1"));
    }

    #[test]
    fn permutations_cover_every_index_and_follow_the_seed() {
        let a = permutation(182, 5);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..182).collect::<Vec<_>>());
        assert_eq!(a, permutation(182, 5));
        assert_ne!(a, permutation(182, 6));
    }

    #[test]
    fn least_disturbed_sums_each_requests_fastest_repeat() {
        let times = vec![vec![1.0, 5.0, 2.0], vec![3.0, 4.0, 2.5]];
        assert_eq!(least_disturbed(&times), 1.0 + 4.0 + 2.0);
    }

    #[test]
    fn sub_seeds_differ_per_stream_and_repeat_per_seed() {
        assert_eq!(sub_seed(7, 1), sub_seed(7, 1));
        assert_ne!(sub_seed(7, 1), sub_seed(7, 2));
        assert_ne!(sub_seed(7, 1), sub_seed(8, 1));
    }
}
