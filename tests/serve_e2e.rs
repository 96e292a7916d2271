//! Black-box end-to-end tests of the `apxperf serve` daemon, run
//! in-process over real TCP on an ephemeral port: a raw-socket HTTP
//! client talks to a [`apx_serve::Server`] exactly as `curl` would.
//!
//! The contracts under test are the ISSUE's acceptance criteria:
//! warm `GET /report` bodies are **byte-identical** to the CLI renderer,
//! a thundering herd of identical cold queries coalesces to exactly one
//! miss, malformed requests get structured JSON errors (never hangs),
//! the bounded job queue rejects overflow with 503, and a graceful
//! shutdown drains every accepted job before the server returns.

use apx_cache::Cache;
use apx_core::output::Format;
use apx_core::query::{self, QueryParams};
use apx_engine::Engine;
use apx_serve::{Server, ServerConfig, ServerHandle};
use apxperf::prelude::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A unique scratch directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("apxperf_serve_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("temp dir is creatable");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// An in-process daemon on an ephemeral port, drained on drop.
struct Daemon {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    fn start(config: ServerConfig) -> Daemon {
        let server = Server::bind(config).expect("ephemeral bind succeeds");
        let addr = server.local_addr();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        Daemon {
            addr,
            handle,
            thread: Some(thread),
        }
    }

    fn shutdown(mut self) {
        self.handle.request_shutdown();
        if let Some(thread) = self.thread.take() {
            thread.join().expect("server thread exits cleanly");
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.handle.request_shutdown();
        if let Some(thread) = self.thread.take() {
            thread.join().expect("server thread exits cleanly");
        }
    }
}

/// Small defaults so debug-mode characterizations stay fast.
fn small_params() -> QueryParams {
    QueryParams {
        samples: 800,
        vectors: 40,
        ..QueryParams::default()
    }
}

fn config_with(cache: Cache, defaults: QueryParams) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        cache,
        defaults,
        ..ServerConfig::default()
    }
}

// -------------------------------------------------------------------
// the raw-socket HTTP client

fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("daemon accepts connections");
    stream
        .set_read_timeout(Some(Duration::from_secs(300)))
        .unwrap();
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .expect("daemon closes the connection after responding");
    let text = String::from_utf8(raw).expect("responses are UTF-8");
    let (head, payload) = text
        .split_once("\r\n\r\n")
        .expect("response has a header/body separator");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status line has a code")
        .parse()
        .expect("status code is numeric");
    (status, payload.to_owned())
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    request(addr, "GET", path, None)
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    request(addr, "POST", path, Some(body))
}

/// Extracts `"name": <number>` from a JSON body (both stats shapes
/// rendered by the daemon are flat enough for this).
fn json_u64(body: &str, name: &str) -> u64 {
    let needle = format!("\"{name}\":");
    let tail = body
        .split(&needle)
        .nth(1)
        .unwrap_or_else(|| panic!("field {name} missing in: {body}"));
    tail.trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("field {name} is not numeric in: {body}"))
}

fn poll_job_done(addr: SocketAddr, id: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(240);
    loop {
        let (status, body) = get(addr, &format!("/job/{id}"));
        assert!(
            status == 200 || status == 202,
            "unexpected poll status {status}: {body}"
        );
        if body.contains("\"status\":\"done\"") {
            let (status, result) = get(addr, &format!("/job/{id}/result"));
            assert_eq!(status, 200, "{result}");
            return result;
        }
        assert!(
            !body.contains("\"status\":\"failed\""),
            "job {id} failed: {body}"
        );
        assert!(Instant::now() < deadline, "job {id} never finished: {body}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

// -------------------------------------------------------------------
// the tests

#[test]
fn healthz_portfile_and_structured_errors() {
    let tmp = TempDir::new("errors");
    let port_file = tmp.0.join("port");
    let mut config = config_with(Cache::default(), small_params());
    config.port_file = Some(port_file.clone());
    let daemon = Daemon::start(config);

    // the port file holds the actually bound (ephemeral) address
    let written = std::fs::read_to_string(&port_file).expect("port file written at bind");
    assert_eq!(written.trim().parse::<SocketAddr>().unwrap(), daemon.addr);

    let (status, body) = get(daemon.addr, "/healthz");
    assert_eq!((status, body.as_str()), (200, "{\"status\":\"ok\"}\n"));

    // every failure mode is a structured JSON error, not a hang
    let (status, body) = get(daemon.addr, "/frobnicate");
    assert_eq!(status, 404);
    assert!(body.contains("\"error\""), "{body}");
    let (status, body) = request(daemon.addr, "DELETE", "/healthz", None);
    assert_eq!(status, 405, "{body}");
    let (status, body) = get(daemon.addr, "/report/FROB(16)");
    assert_eq!(status, 400);
    assert!(body.contains("invalid operator"), "{body}");
    let (status, body) = get(daemon.addr, "/report/ADDt(16,12)?sample=1");
    assert_eq!(status, 400);
    assert!(body.contains("unknown query parameter"), "{body}");
    let (status, body) = post(daemon.addr, "/sweep", r#"{"family":"nope"}"#);
    assert_eq!(status, 400);
    assert!(body.contains("is not one of"), "{body}");
    let (status, body) = post(daemon.addr, "/sweep", r#"{"workload":"nope"}"#);
    assert_eq!(status, 400);
    assert!(body.contains("unknown workload"), "{body}");
    let (status, body) = post(daemon.addr, "/pareto", "{}");
    assert_eq!(status, 400);
    assert!(body.contains("workload"), "{body}");
    // a workload that rejects its size is refused at submission with the
    // message the same CLI flags get (`apxperf sweep --workload jpeg
    // --size 7`, `apxperf pareto --workload kmeans --sets 0`), not
    // accepted as a job that then fails
    let lib = Library::fdsoi28();
    let engine = Engine::new(1);
    let cli_sweep = query::sweep_text(
        &lib,
        &QueryParams {
            size: 7,
            ..small_params()
        },
        "adders",
        Some("jpeg"),
        Format::Tty,
        &engine,
        &Cache::default(),
    )
    .unwrap_err();
    let cli_pareto = query::pareto_text(
        &lib,
        &QueryParams {
            sets: 0,
            ..small_params()
        },
        "kmeans",
        None,
        false,
        Format::Tty,
        &engine,
        &Cache::default(),
    )
    .unwrap_err();
    for (path, body, cli) in [
        ("/sweep", r#"{"workload":"jpeg","size":7}"#, cli_sweep),
        ("/pareto", r#"{"workload":"kmeans","sets":0}"#, cli_pareto),
    ] {
        let (status, reply) = post(daemon.addr, path, body);
        assert_eq!(status, 400, "{path} {body}: {reply}");
        let error = serde::Value::Object(vec![("error".to_owned(), serde::Value::String(cli))]);
        assert_eq!(reply, serde_json::to_string(&error).unwrap() + "\n");
        assert!(!reply.contains("\"job\""), "{reply}");
    }
    let (status, body) = post(daemon.addr, "/sweep", "not json at all");
    assert_eq!(status, 400);
    assert!(body.contains("not JSON"), "{body}");
    let (status, body) = get(daemon.addr, "/job/99");
    assert_eq!(status, 404);
    assert!(body.contains("unknown job"), "{body}");
    let (status, body) = get(daemon.addr, "/job/banana");
    assert_eq!(status, 400, "{body}");

    // none of the errors counted as report traffic or became a job
    let (status, stats) = get(daemon.addr, "/stats");
    assert_eq!(status, 200);
    for field in [
        "hits",
        "misses",
        "coalesced",
        "rejected",
        "inflight",
        "failed",
    ] {
        assert_eq!(json_u64(&stats, field), 0, "{field} in {stats}");
    }
    daemon.shutdown();
}

#[test]
fn warm_reports_are_byte_identical_to_the_cli_renderer() {
    let tmp = TempDir::new("warm");
    let params = small_params();
    let daemon = Daemon::start(config_with(Cache::builder().dir(&tmp.0).open(), params));

    // what `apxperf report 'ADDt(16,12)' --format json` prints on stdout
    let (expected, hit) = query::report_text(
        &Library::fdsoi28(),
        &params,
        "ADDt(16,12)",
        &Engine::from_env(),
        &Cache::default(),
    )
    .expect("reference render succeeds");
    assert!(!hit);

    let (status, cold) = get(daemon.addr, "/report/ADDt(16,12)");
    assert_eq!(status, 200);
    assert_eq!(cold, expected, "cold body must equal the CLI stdout bytes");

    let (status, warm) = get(daemon.addr, "/report/ADDt(16,12)");
    assert_eq!(status, 200);
    assert_eq!(warm, expected, "warm body must equal the CLI stdout bytes");

    let (_, stats) = get(daemon.addr, "/stats");
    assert_eq!(json_u64(&stats, "misses"), 1, "{stats}");
    assert_eq!(json_u64(&stats, "hits"), 1, "{stats}");
    assert_eq!(json_u64(&stats, "coalesced"), 0, "{stats}");

    // per-request parameter overrides change the key, not the defaults
    let (status, other) = get(daemon.addr, "/report/ADDt(16,12)?samples=400");
    assert_eq!(status, 200);
    assert_ne!(other, expected, "different samples, different report");
    daemon.shutdown();
}

#[test]
fn a_thundering_herd_coalesces_to_exactly_one_miss() {
    let tmp = TempDir::new("herd");
    // a deliberately heavy single report, so the leader's computation is
    // still in flight long after all followers have joined
    let params = QueryParams {
        samples: 150_000,
        vectors: 2_000,
        ..QueryParams::default()
    };
    let daemon = Daemon::start(config_with(Cache::builder().dir(&tmp.0).open(), params));
    const HERD: usize = 6;

    let barrier = std::sync::Barrier::new(HERD);
    let bodies: Vec<(u16, String)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..HERD)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    get(daemon.addr, "/report/ACA(16,4)")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (status, body) in &bodies {
        assert_eq!(*status, 200);
        assert_eq!(
            body, &bodies[0].1,
            "all herd members must receive bit-identical bodies"
        );
    }
    let (_, stats) = get(daemon.addr, "/stats");
    assert_eq!(json_u64(&stats, "misses"), 1, "{stats}");
    assert_eq!(json_u64(&stats, "coalesced"), (HERD - 1) as u64, "{stats}");
    assert_eq!(json_u64(&stats, "hits"), 0, "{stats}");
    assert_eq!(json_u64(&stats, "inflight"), 0, "{stats}");
    daemon.shutdown();
}

#[test]
fn sweep_and_pareto_jobs_render_the_cli_stdout_bytes() {
    let tmp = TempDir::new("jobs");
    let params = QueryParams {
        samples: 400,
        vectors: 24,
        ..QueryParams::default()
    };
    let daemon = Daemon::start(config_with(Cache::builder().dir(&tmp.0).open(), params));

    let (status, accepted) = post(
        daemon.addr,
        "/sweep",
        r#"{"family":"points","workload":"fir","format":"json"}"#,
    );
    assert_eq!(status, 202, "{accepted}");
    assert!(accepted.contains("\"status\":\"queued\""), "{accepted}");
    let sweep_id = json_u64(&accepted, "job");
    let sweep_body = poll_job_done(daemon.addr, sweep_id);
    let expected = query::sweep_text(
        &Library::fdsoi28(),
        &params,
        "points",
        Some("fir"),
        Format::Json,
        &Engine::from_env(),
        &Cache::default(),
    )
    .expect("reference sweep succeeds");
    assert_eq!(
        sweep_body, expected,
        "job result must equal `apxperf sweep` stdout bytes"
    );

    let (status, accepted) = post(
        daemon.addr,
        "/pareto",
        r#"{"workload":"fir","family":"points","format":"json"}"#,
    );
    assert_eq!(status, 202, "{accepted}");
    let pareto_id = json_u64(&accepted, "job");
    let pareto_body = poll_job_done(daemon.addr, pareto_id);
    let expected = query::pareto_text(
        &Library::fdsoi28(),
        &params,
        "fir",
        Some("points"),
        false,
        Format::Json,
        &Engine::from_env(),
        &Cache::default(),
    )
    .expect("reference pareto succeeds");
    assert_eq!(
        pareto_body, expected,
        "job result must equal `apxperf pareto` stdout bytes"
    );

    let (_, stats) = get(daemon.addr, "/stats");
    assert_eq!(json_u64(&stats, "done"), 2, "{stats}");
    assert_eq!(json_u64(&stats, "failed"), 0, "{stats}");
    daemon.shutdown();
}

#[test]
fn the_job_queue_is_bounded_and_overflow_is_a_structured_503() {
    let tmp = TempDir::new("overflow");
    let params = QueryParams {
        samples: 5_000,
        vectors: 100,
        ..QueryParams::default()
    };
    let mut config = config_with(Cache::builder().dir(&tmp.0).open(), params);
    config.queue_capacity = 1;
    let daemon = Daemon::start(config);

    let body = r#"{"family":"points","workload":"fir","format":"json"}"#;
    let mut accepted = Vec::new();
    let mut rejected = 0_u64;
    for _ in 0..4 {
        let (status, response) = post(daemon.addr, "/sweep", body);
        match status {
            202 => accepted.push(json_u64(&response, "job")),
            503 => {
                assert!(response.contains("job queue full"), "{response}");
                rejected += 1;
            }
            other => panic!("unexpected status {other}: {response}"),
        }
    }
    assert!(!accepted.is_empty(), "some submissions must be accepted");
    assert!(rejected > 0, "capacity 1 must reject a burst of 4");

    let (_, stats) = get(daemon.addr, "/stats");
    assert_eq!(json_u64(&stats, "rejected"), rejected, "{stats}");

    // every accepted job still runs to completion
    for id in accepted {
        poll_job_done(daemon.addr, id);
    }
    daemon.shutdown();
}

#[test]
fn cache_endpoints_measure_collect_and_report_busy_as_409() {
    let tmp = TempDir::new("cache_ops");
    let daemon = Daemon::start(config_with(
        Cache::builder().dir(&tmp.0).open(),
        small_params(),
    ));

    // a fresh directory measures empty
    let (status, body) = get(daemon.addr, "/cache/stats");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"enabled\": true"), "{body}");
    assert_eq!(json_u64(&body, "blobs"), 0, "{body}");
    assert_eq!(json_u64(&body, "bytes"), 0, "{body}");

    // one characterization lands one blob; /cache/stats sees its bytes
    let (status, _) = get(daemon.addr, "/report/ADDt(16,12)");
    assert_eq!(status, 200);
    let (_, body) = get(daemon.addr, "/cache/stats");
    assert_eq!(json_u64(&body, "blobs"), 1, "{body}");
    assert!(json_u64(&body, "bytes") > 0, "{body}");

    // gc validation: non-object, unknown field, missing budget
    let (status, body) = post(daemon.addr, "/cache/gc", "[1,2]");
    assert_eq!(status, 400, "{body}");
    let (status, body) = post(daemon.addr, "/cache/gc", r#"{"maxbytes":1}"#);
    assert_eq!(status, 400);
    assert!(body.contains("unknown field"), "{body}");
    let (status, body) = post(daemon.addr, "/cache/gc", "{}");
    assert_eq!(status, 400);
    assert!(body.contains("max_bytes"), "{body}");

    // a held gc lock is a 409 Conflict with the structured Busy error
    let lock = tmp.0.join("gc.lock");
    std::fs::write(&lock, "held\n").expect("plant a fresh gc lock");
    let (status, body) = post(daemon.addr, "/cache/gc", r#"{"max_bytes":0}"#);
    assert_eq!(status, 409, "{body}");
    assert!(body.contains("Busy"), "{body}");
    std::fs::remove_file(&lock).expect("release the planted lock");

    // a zero budget collects everything; /stats reports the eviction
    let (status, body) = post(daemon.addr, "/cache/gc", r#"{"max_bytes":0}"#);
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_u64(&body, "evicted_blobs"), 1, "{body}");
    assert_eq!(json_u64(&body, "remaining_bytes"), 0, "{body}");
    let (_, stats) = get(daemon.addr, "/stats");
    assert_eq!(json_u64(&stats, "evictions"), 1, "{stats}");
    assert_eq!(json_u64(&stats, "imports"), 0, "{stats}");
    assert_eq!(json_u64(&stats, "blobs"), 0, "{stats}");

    // wrong methods on the cache endpoints are 405s, not 404s
    let (status, body) = post(daemon.addr, "/cache/stats", "");
    assert_eq!(status, 405, "{body}");
    let (status, body) = get(daemon.addr, "/cache/gc");
    assert_eq!(status, 405, "{body}");
    daemon.shutdown();
}

#[test]
fn graceful_shutdown_drains_accepted_jobs() {
    let tmp = TempDir::new("drain");
    let params = QueryParams {
        samples: 400,
        vectors: 24,
        ..QueryParams::default()
    };
    let cache = Cache::builder().dir(&tmp.0).open();
    let daemon = Daemon::start(config_with(cache.clone(), params));

    let (status, accepted) = post(
        daemon.addr,
        "/sweep",
        r#"{"family":"points","workload":"fir","format":"json"}"#,
    );
    assert_eq!(status, 202, "{accepted}");

    // shutdown immediately: the accepted job must still run to
    // completion before the server returns
    let (status, body) = post(daemon.addr, "/shutdown", "");
    assert_eq!(status, 200);
    assert!(body.contains("draining"), "{body}");
    daemon.shutdown();

    // proof of the drain: the sweep's cell blobs landed in the cache
    assert!(
        cache.len() >= 9,
        "drained sweep must have written its 9 cell blobs, found {}",
        cache.len()
    );
    // and the drain persisted the run's cache counters
    assert!(
        cache.last_run_stats().is_some(),
        "the drain persisted run stats"
    );
}
