//! Process resource usage: CPU time of this process and its waited-for
//! children, and the peak resident memory of the current process image.

/// `RUSAGE_SELF`: this process, every thread.
const RUSAGE_SELF: i32 = 0;
/// `RUSAGE_CHILDREN`: every child that has been waited for.
const RUSAGE_CHILDREN: i32 = -1;

/// `struct rusage` on 64-bit Linux: two `timeval`s (user, system CPU)
/// followed by fourteen `long` counters.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime_s: i64,
    utime_us: i64,
    stime_s: i64,
    stime_us: i64,
    counters: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// CPU seconds (user + system) of one `who`, or 0 if the call fails.
fn cpu_seconds(who: i32) -> f64 {
    let mut u = RUsage::default();
    // SAFETY: `u` is a live, writable `struct rusage` with the 64-bit
    // Linux layout (2 × timeval + 14 × long = 144 bytes), and
    // `getrusage` writes only within it.
    if unsafe { getrusage(who, &mut u) } != 0 {
        return 0.0;
    }
    (u.utime_s + u.stime_s) as f64 + (u.utime_us + u.stime_us) as f64 * 1e-6
}

/// CPU seconds (user + system) spent so far by this process and by the
/// children it has waited for.
#[must_use]
pub fn cpu_seconds_total() -> f64 {
    cpu_seconds(RUSAGE_SELF) + cpu_seconds(RUSAGE_CHILDREN)
}

/// Peak resident set size of the current process image (`VmHWM`), KiB.
/// Unlike `getrusage`'s `ru_maxrss`, it starts afresh at `exec`, so it
/// does not inherit the memory of the process that launched this one
/// (`cargo run`, or the benchmark for its `apxperf` subprocesses).
#[must_use]
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// vCPU time the hypervisor gave to others since boot, summed over
/// every vCPU (`steal` in `/proc/stat`), seconds; 0 when unavailable.
#[must_use]
pub fn steal_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|ticks| ticks.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// [`peak_rss_kib`] in MiB, 0 when unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    peak_rss_kib().unwrap_or(0) as f64 / 1024.0
}

/// Prefix of the stderr line on which `<benchmark> cli …` reports the
/// peak memory of the `apxperf` run it just made.
pub const PEAK_RSS_LINE: &str = "perfbench: peak_rss_kib ";

/// The peak memory a `<benchmark> cli …` run reported on `stderr`, KiB.
#[must_use]
pub fn reported_peak_rss_kib(stderr: &str) -> Option<u64> {
    stderr
        .lines()
        .find_map(|l| l.strip_prefix(PEAK_RSS_LINE))
        .and_then(|n| n.trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_is_plausible() {
        let spin: u64 = (0..2_000_000u64).map(std::hint::black_box).sum();
        assert!(spin > 0);
        assert!(peak_rss_kib().is_some_and(|kib| kib > 100));
        assert!(cpu_seconds_total() > 0.0);
    }
}
