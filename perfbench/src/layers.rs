//! Per-layer metrics of a traced run, computed from its spans and from
//! the counters the layers expose (cache statistics, `GET /stats`).

use crate::trace::{self, NameTotals, Span};
use crate::RunResult;
use std::collections::BTreeMap;

/// The application workloads the paper reproduction runs. (`fir` and
/// `sobel` are registered too, but no benchmark workload runs them.)
pub const APPS: &[&str] = &["fft", "jpeg", "hevc", "kmeans"];

/// Cache traffic over the traced phase, from `Cache::stats` deltas.
#[derive(Debug, Default, Clone, Copy)]
pub struct CacheCounts {
    /// Lookups that found a usable blob.
    pub hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Blobs written.
    pub puts: u64,
    /// Growth of the store on disk, bytes.
    pub put_bytes: u64,
}

impl CacheCounts {
    /// Counter growth from `before` to `after`.
    #[must_use]
    pub fn delta(before: apx_cache::CacheStats, after: apx_cache::CacheStats) -> Self {
        CacheCounts {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            puts: after.writes - before.writes,
            put_bytes: after.bytes.saturating_sub(before.bytes),
        }
    }
}

/// The daemon's view of the traced phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServeCounts {
    /// Report requests answered (hits + misses + coalesced).
    pub requests: u64,
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that computed.
    pub misses: u64,
    /// Requests that shared an in-flight computation.
    pub coalesced: u64,
    /// Median in-process handler time, µs.
    pub handler_p50_us: f64,
    /// Median client latency minus median handler time, µs.
    pub transport_p50_us: f64,
}

/// Everything besides the spans that the per-layer metrics need.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerInputs {
    /// Cache traffic.
    pub cache: CacheCounts,
    /// Daemon counters.
    pub serve: ServeCounts,
    /// Engine worker threads.
    pub threads: usize,
    /// Process CPU seconds ÷ (wall seconds × threads) over the untraced
    /// units of the traced run.
    pub utilization: f64,
    /// Traced wall ÷ untraced wall of the same units.
    pub overhead_ratio: f64,
}

fn rate(work: u64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        work as f64 / seconds
    } else {
        0.0
    }
}

/// Fills every per-layer metric of `BENCHMARK.json` into `result`.
pub fn record(result: &mut RunResult, spans: &[Span], inputs: &LayerInputs) {
    let totals = trace::totals(spans);
    let of = |name: &str| totals.get(name).copied().unwrap_or_default();

    let error = of("operators.error");
    result.metric("operators.error_samples", error.work as f64, "count");
    result.metric("operators.error_busy_s", error.busy_s, "s");
    result.metric(
        "operators.error_samples_per_s",
        rate(error.work, error.busy_s),
        "1/s",
    );
    result.metric("operators.build_busy_s", of("operators.build").busy_s, "s");

    let verify = of("netlist.verify");
    result.metric("netlist.verify_vectors", verify.work as f64, "count");
    result.metric("netlist.verify_busy_s", verify.busy_s, "s");
    let sta = of("netlist.sta");
    result.metric("netlist.sta_calls", sta.count as f64, "count");
    result.metric("netlist.sta_busy_s", sta.busy_s, "s");
    let power = of("netlist.power");
    result.metric("netlist.power_vectors", power.work as f64, "count");
    result.metric("netlist.power_busy_s", power.busy_s, "s");
    result.metric(
        "netlist.power_vectors_per_s",
        rate(power.work, power.busy_s),
        "1/s",
    );

    let chz = of("core.characterize");
    result.metric("core.characterize_reports", chz.work as f64, "count");
    result.metric("core.characterize_self_s", chz.self_s, "s");

    for app in APPS {
        let run = of(&format!("apps.{app}"));
        result.metric(format!("apps.{app}.runs"), run.count as f64, "count");
        result.metric(format!("apps.{app}.ops"), run.work as f64, "count");
        result.metric(format!("apps.{app}.busy_s"), run.busy_s, "s");
        result.metric(
            format!("apps.{app}.ops_per_s"),
            rate(run.work, run.busy_s),
            "1/s",
        );
    }

    let cells = of("core.appenergy");
    result.metric("core.appenergy_cells", cells.work as f64, "count");
    result.metric(
        "core.appenergy_self_s",
        cells.self_s + of("core.model_for").self_s,
        "s",
    );
    result.metric("core.pareto_busy_s", of("core.pareto").busy_s, "s");
    result.metric("core.tune_busy_s", of("core.tune").busy_s, "s");
    let query = of("core.query");
    result.metric("core.query_renders", query.count as f64, "count");
    result.metric("core.query_busy_s", query.busy_s, "s");

    let cache = inputs.cache;
    let gets = cache.hits + cache.misses;
    result.metric("cache.gets", gets as f64, "count");
    result.metric("cache.hits", cache.hits as f64, "count");
    result.metric("cache.misses", cache.misses as f64, "count");
    result.metric(
        "cache.hit_ratio",
        if gets > 0 {
            cache.hits as f64 / gets as f64
        } else {
            0.0
        },
        "ratio",
    );
    result.metric("cache.puts", cache.puts as f64, "count");
    result.metric("cache.put_bytes", cache.put_bytes as f64, "B");
    result.metric("cache.get_busy_s", of("cache.get").busy_s, "s");
    result.metric("cache.put_busy_s", of("cache.put").busy_s, "s");

    result.metric("engine.threads", inputs.threads as f64, "count");
    result.metric("engine.utilization", inputs.utilization, "ratio");

    let serve = inputs.serve;
    result.metric("serve.requests", serve.requests as f64, "count");
    result.metric("serve.hits", serve.hits as f64, "count");
    result.metric("serve.misses", serve.misses as f64, "count");
    result.metric("serve.coalesced", serve.coalesced as f64, "count");
    result.metric("serve.handler_p50_us", serve.handler_p50_us, "us");
    result.metric("serve.transport_p50_us", serve.transport_p50_us, "us");

    result.metric("trace.overhead_ratio", inputs.overhead_ratio, "ratio");
    result.metric("trace.coverage", trace::coverage(spans), "ratio");
}

/// The "where the time goes" table: self time per span name, largest
/// first, as a share of all self time (thread-seconds, so parallel
/// workers count once each).
#[must_use]
pub fn where_the_time_goes(spans: &[Span]) -> String {
    let totals: BTreeMap<String, NameTotals> = trace::totals(spans);
    let all: f64 = totals.values().map(|t| t.self_s).sum();
    let mut rows: Vec<(&String, &NameTotals)> = totals.iter().collect();
    rows.sort_by(|a, b| b.1.self_s.total_cmp(&a.1.self_s));
    let mut text = format!(
        "{:<24} {:>9} {:>10} {:>10} {:>7}\n",
        "span", "count", "busy_s", "self_s", "self_%"
    );
    for (name, t) in rows {
        text.push_str(&format!(
            "{:<24} {:>9} {:>10.4} {:>10.4} {:>6.1}%\n",
            name,
            t.count,
            t.busy_s,
            t.self_s,
            if all > 0.0 {
                100.0 * t.self_s / all
            } else {
                0.0
            }
        ));
    }
    text.push_str(&format!(
        "layer spans cover {:.1}% of the traced wall-clock\n",
        100.0 * trace::coverage(spans)
    ));
    text
}
