//! `serve_warm`: an in-process `apx_serve::Server` on `127.0.0.1:0`
//! over a cache warmed during set-up. One closed-loop client sends
//! `GET /report/<CONFIG>` over the `characterize` config mix in a
//! seed-permuted order. Every request is a cache hit,
//! so compute is zero: the time goes to the accept/HTTP path, cache
//! reads (each hit bumps the blob's mtime) and JSON rendering.
//!
//! A round serves every config once; each client takes the next config
//! of the round's order from a shared counter. The traced run adds one
//! span per HTTP round trip, then replays the handler in-process
//! (`Cache::get` + render) for the same configs.

use crate::characterize::{configs, params};
use crate::layers::{self, CacheCounts, LayerInputs, ServeCounts};
use crate::{median, mirror, permutation, quantile, sub_seed, sys, timed_setups, trace};
use crate::{EndToEnd, RunConfig, RunResult, Tally};
use apx_cache::Cache;
use apx_cells::Library;
use apx_core::cache::report_cache_key;
use apx_core::query::{self, QueryParams};
use apx_core::OperatorReport;
use apx_engine::Engine;
use apx_operators::OperatorConfig;
use apx_serve::{Server, ServerConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A request without a complete response by then counts as failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// Closed-loop client connections. With one per vCPU (two on the
/// measurement host), clients, the accept loop and the per-connection
/// handler threads outnumber the vCPUs, and the CPU seconds of a round
/// followed the host's load: over five seeds they spread 0.14 of their
/// median, against 0.04 with one client in the same hour.
const CLIENTS: usize = 1;

/// A running daemon and what the clients check its answers against.
struct Daemon {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: JoinHandle<()>,
    cache: Cache,
    dir: PathBuf,
    /// Config notation and the body `apx_core::query` renders for it.
    expected: Vec<(String, String)>,
}

impl Daemon {
    /// Requests shutdown, waits for the drain, and removes the cache.
    fn stop(self) {
        self.handle.request_shutdown();
        self.thread.join().ok();
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// Set-up: a fresh cache directory, warmed with every config through
/// `query::report_text` (whose bodies become the expected responses),
/// and a bound, serving daemon over it.
fn start(
    config: &RunConfig,
    k: usize,
    params: QueryParams,
    mix: &[OperatorConfig],
) -> Result<Daemon, String> {
    let dir = config.work_dir.join(format!("cache-{k}"));
    let cache = Cache::builder().dir(&dir).open();
    let lib = Library::fdsoi28();
    let engine = Engine::new(config.threads);
    let mut expected = Vec::with_capacity(mix.len());
    for c in mix {
        let spec = c.to_string();
        let (body, _) = query::report_text(&lib, &params, &spec, &engine, &cache)?;
        expected.push((spec, body));
    }
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        cache: cache.clone(),
        engine,
        defaults: params,
        ..ServerConfig::default()
    })?;
    let addr = server.local_addr();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    Ok(Daemon {
        addr,
        handle,
        thread,
        cache,
        dir,
        expected,
    })
}

/// Percent-encodes operator notation for a URL path.
fn encode(spec: &str) -> String {
    spec.replace('(', "%28")
        .replace(')', "%29")
        .replace(',', "%2C")
}

/// One HTTP/1.1 round trip on a fresh connection: (status, body).
fn get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, REQUEST_TIMEOUT)?;
    stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
    stream.set_write_timeout(Some(REQUEST_TIMEOUT))?;
    stream.set_nodelay(true)?;
    stream.write_all(format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::other("response without a header end"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other("response without a status"))?;
    Ok((status, body.to_owned()))
}

/// The response check: a 200 whose body is byte-identical to what
/// `apx_core::query` renders for the config.
#[must_use]
pub fn response_ok(response: &std::io::Result<(u16, String)>, expected: &str) -> bool {
    matches!(response, Ok((200, body)) if body == expected)
}

/// One round: every config once, in `order`, over `clients` closed-loop
/// connections. Returns (wall seconds, per-request latencies, tally).
fn round(daemon: &Daemon, order: &[usize], clients: usize) -> (f64, Vec<f64>, Tally) {
    let next = AtomicUsize::new(0);
    let latencies = Mutex::new(Vec::with_capacity(order.len()));
    let tally = Mutex::new(Tally::default());
    let parent = trace::current();
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                trace::within(parent, || {
                    let mut mine = Vec::new();
                    let mut my_tally = Tally::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&index) = order.get(i) else { break };
                        let (spec, body) = &daemon.expected[index];
                        let sent = Instant::now();
                        let response = {
                            let _span = trace::request_span("serve.http", i as u64 + 1);
                            get(daemon.addr, &format!("/report/{}", encode(spec)))
                        };
                        mine.push(sent.elapsed().as_secs_f64());
                        my_tally.record(response_ok(&response, body));
                    }
                    latencies
                        .lock()
                        .expect("no client panics holding it")
                        .extend(mine);
                    tally
                        .lock()
                        .expect("no client panics holding it")
                        .merge(my_tally);
                });
            });
        }
    });
    let wall = started.elapsed().as_secs_f64();
    (
        wall,
        latencies.into_inner().expect("clients joined"),
        tally.into_inner().expect("clients joined"),
    )
}

/// The handler replayed in-process for each config of `order`: the
/// cache lookup and the render `GET /report` performs on a hit. Returns
/// the per-request handler times and whether every body matched.
fn replay_handlers(daemon: &Daemon, params: QueryParams, order: &[usize]) -> (Vec<f64>, bool) {
    let lib = Library::fdsoi28();
    let settings = params.settings();
    let mut times = Vec::with_capacity(order.len());
    let mut all_match = true;
    for (i, &index) in order.iter().enumerate() {
        let (spec, expected) = &daemon.expected[index];
        let started = Instant::now();
        let body = {
            let _span = trace::request_span("core.query", i as u64 + 1);
            spec.parse::<OperatorConfig>().ok().and_then(|config| {
                let key = report_cache_key(&lib, &settings, &config);
                let report: OperatorReport = mirror::cache_get(&daemon.cache, &key)?;
                report.to_json().ok().map(|json| format!("{json}\n"))
            })
        };
        times.push(started.elapsed().as_secs_f64());
        all_match &= body.as_deref() == Some(expected.as_str());
    }
    (times, all_match)
}

/// Extracts `"name": <integer>` from the daemon's flat `/stats` JSON.
fn json_u64(body: &str, name: &str) -> u64 {
    body.split(&format!("\"{name}\":"))
        .nth(1)
        .map(|tail| {
            tail.trim_start()
                .chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
        })
        .and_then(|digits| digits.parse().ok())
        .unwrap_or(0)
}

/// Runs the workload.
///
/// # Errors
/// A failed set-up (unbindable socket, failed warm-up).
pub fn run(config: &RunConfig) -> Result<RunResult, String> {
    let params = params(config.scale);
    let mix = configs(config.scale);
    let mut setups = 0;
    let (setup_s, daemon) = timed_setups(
        3,
        0.0,
        || {
            setups += 1;
            start(config, setups, params, &mix)
        },
        |d| {
            if let Ok(d) = d {
                d.stop();
            }
        },
    );
    let daemon = daemon?;
    let mut result = RunResult::default();

    let clients = CLIENTS;
    let started = Instant::now();
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut latencies = Vec::new();
    let mut spans = Vec::new();
    let mut handler_times = Vec::new();
    let (mut untraced_wall, mut traced_wall, mut cpu) = (0.0, 0.0, 0.0);
    let stats_before = daemon.cache.stats();
    let steal = sys::steal_seconds();
    while config.keep_going(started, walls.len()) {
        let order = permutation(mix.len(), sub_seed(config.seed, walls.len() as u64));
        let cpu_before = sys::cpu_seconds_total();
        let (wall, lat, tally) = round(&daemon, &order, clients);
        let round_cpu = sys::cpu_seconds_total() - cpu_before;
        cpu += round_cpu;
        cpus.push(round_cpu);
        walls.push(wall);
        latencies.extend(lat);
        result.tally.merge(tally);
        if config.trace {
            untraced_wall += wall;
            trace::set_enabled(true);
            {
                let _root = trace::span("bench.run");
                let (wall, _, tally) = round(&daemon, &order, clients);
                traced_wall += wall;
                result.tally.merge(tally);
            }
            {
                let _root = trace::span("bench.replay");
                let (times, all_match) = replay_handlers(&daemon, params, &order);
                handler_times.extend(times);
                if !all_match {
                    result.fail_check("an in-process handler body differs from the served one");
                }
            }
            trace::set_enabled(false);
            spans.extend(trace::take());
        }
    }
    let stats = get(daemon.addr, "/stats");
    let cache_counts = CacheCounts::delta(stats_before, daemon.cache.stats());
    daemon.stop();

    if config.trace {
        print!("{}", layers::where_the_time_goes(&spans));
        let body = match &stats {
            Ok((200, body)) => body.clone(),
            _ => {
                result.fail_check("GET /stats failed");
                String::new()
            }
        };
        let (hits, misses, coalesced) = (
            json_u64(&body, "hits"),
            json_u64(&body, "misses"),
            json_u64(&body, "coalesced"),
        );
        let handler_p50_us = 1e6 * median(&handler_times);
        let inputs = LayerInputs {
            cache: cache_counts,
            serve: ServeCounts {
                requests: hits + misses + coalesced,
                hits,
                misses,
                coalesced,
                handler_p50_us,
                transport_p50_us: 1e6 * quantile(&latencies, 0.5) - handler_p50_us,
            },
            threads: config.threads,
            utilization: cpu / (untraced_wall * config.threads as f64),
            overhead_ratio: traced_wall / untraced_wall,
        };
        layers::record(&mut result, &spans, &inputs);
    }
    println!(
        "serve_warm: {} rounds of {} requests over {} connections",
        walls.len(),
        mix.len(),
        clients
    );
    if !config.trace {
        result.end_to_end(&EndToEnd {
            setup_s,
            // the fastest round: each response waits a random part of
            // the accept loop's sleep, which a per-request minimum
            // would discard
            wall_s: walls.iter().copied().fold(f64::INFINITY, f64::min),
            unit_cpu_s: cpus,
            requests: latencies.len(),
            latencies,
            peak_rss_mb: sys::peak_rss_mb(),
            steal_s: sys::steal_seconds() - steal,
            vcpus: config.threads,
            unit_wall_s: walls,
        });
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_a_200_with_the_exact_body_passes() {
        let mut tally = Tally::default();
        tally.record(response_ok(&Ok((200, "{}\n".to_owned())), "{}\n"));
        tally.record(response_ok(&Ok((200, "{ }\n".to_owned())), "{}\n"));
        tally.record(response_ok(&Ok((503, "{}\n".to_owned())), "{}\n"));
        tally.record(response_ok(
            &Err(std::io::Error::from(std::io::ErrorKind::TimedOut)),
            "{}\n",
        ));
        assert_eq!(tally.ok_ratio(), 0.25);
    }

    #[test]
    fn stats_fields_parse_from_the_flat_json() {
        let body = r#"{"hits":12,"misses":0,"coalesced":3,"cache":{"hits":99}}"#;
        assert_eq!(json_u64(body, "hits"), 12);
        assert_eq!(json_u64(body, "coalesced"), 3);
        assert_eq!(json_u64(body, "absent"), 0);
    }
}
