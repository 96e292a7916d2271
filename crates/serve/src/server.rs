//! The daemon proper: bind, accept loop, request routing and the
//! endpoint handlers. One thread per connection (requests are
//! short-lived: a cache read-through, which may wait on an identical
//! in-flight read, or a job submission), the engine's fork-join maps
//! underneath each computation, and a scoped-thread barrier as the
//! graceful-shutdown drain — `run` returns only after every in-flight
//! connection and every accepted job has finished.

use crate::http::{self, Request};
use crate::jobs::{Enqueue, JobQueue, JobStatus};
use crate::signal;
use crate::stats::ServeStats;
use apx_cache::{Cache, Lookup};
use apx_cells::Library;
use apx_core::output::Format;
use apx_core::query::{self, QueryParams};
use apx_engine::Engine;
use apx_operators::OperatorConfig;
use serde::{Serialize, Value};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Soft cap on concurrently handled connections; beyond it new requests
/// get an immediate 503 instead of a thread.
const MAX_CONNECTIONS: usize = 256;

/// How the daemon is set up — the `apxperf serve` flags, as a struct.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`HOST:PORT`; port 0 binds an ephemeral port).
    pub addr: String,
    /// Bounded job-queue capacity for `POST /sweep` / `POST /pareto`.
    pub queue_capacity: usize,
    /// When set, the actual bound address is written here (atomically)
    /// once listening — how tests and scripts avoid racing on a port.
    pub port_file: Option<PathBuf>,
    /// The report cache every query goes through.
    pub cache: Cache,
    /// The execution engine every computation runs on.
    pub engine: Engine,
    /// Server-side default query parameters; requests override fields
    /// individually.
    pub defaults: QueryParams,
    /// Whether the accept loop also honours SIGINT/SIGTERM (via
    /// [`signal::install`]); embedded test servers turn this off so an
    /// unrelated signal test cannot stop them.
    pub watch_signals: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:8787".to_owned(),
            queue_capacity: 32,
            port_file: None,
            cache: Cache::default(),
            engine: Engine::from_env(),
            defaults: QueryParams::default(),
            watch_signals: false,
        }
    }
}

/// Everything the request handlers share.
#[derive(Debug)]
struct ServeState {
    lib: Library,
    engine: Engine,
    cache: Cache,
    defaults: QueryParams,
    stats: ServeStats,
    jobs: JobQueue,
    shutdown: AtomicBool,
    watch_signals: bool,
    active_connections: AtomicUsize,
}

impl ServeState {
    fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || (self.watch_signals && signal::shutdown_signalled())
    }
}

/// A handle for requesting shutdown programmatically (tests, embedders).
#[derive(Debug, Clone)]
pub struct ServerHandle {
    state: Arc<ServeState>,
}

impl ServerHandle {
    /// Asks the accept loop to stop; `run` then drains and returns.
    pub fn request_shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
    }
}

/// A bound (but not yet serving) daemon.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    state: Arc<ServeState>,
}

impl Server {
    /// Binds the listen socket, writes the port file (when configured)
    /// and prepares the shared state. Serving starts with [`Server::run`].
    ///
    /// # Errors
    /// An unbindable address or an unwritable port file, as a
    /// user-facing message.
    pub fn bind(config: ServerConfig) -> Result<Server, String> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("cannot configure listener: {e}"))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| format!("cannot read bound address: {e}"))?;
        if let Some(path) = &config.port_file {
            let tmp = path.with_extension("tmp");
            std::fs::write(&tmp, format!("{local_addr}\n"))
                .and_then(|()| std::fs::rename(&tmp, path))
                .map_err(|e| format!("cannot write port file {}: {e}", path.display()))?;
        }
        Ok(Server {
            listener,
            local_addr,
            state: Arc::new(ServeState {
                lib: Library::fdsoi28(),
                engine: config.engine,
                cache: config.cache,
                defaults: config.defaults,
                stats: ServeStats::new(),
                jobs: JobQueue::new(config.queue_capacity),
                shutdown: AtomicBool::new(false),
                watch_signals: config.watch_signals,
                active_connections: AtomicUsize::new(0),
            }),
        })
    }

    /// The actually bound address (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A clonable shutdown handle.
    #[must_use]
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Serves until shutdown is requested (signal, `POST /shutdown` or
    /// [`ServerHandle::request_shutdown`]), then drains: stops
    /// accepting, lets every in-flight connection finish, runs every
    /// already-accepted job to completion, and persists the cache
    /// counters. Returns only when the drain is complete.
    pub fn run(self) {
        let state = self.state;
        let listener = self.listener;
        std::thread::scope(|scope| {
            let worker_state = Arc::clone(&state);
            scope.spawn(move || worker_state.jobs.worker());
            loop {
                if state.shutdown_requested() {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        let conn_state = Arc::clone(&state);
                        scope.spawn(move || handle_connection(stream, &conn_state));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
            }
            // no more submissions; the worker drains what was accepted
            state.jobs.close();
            // the scope exit is the drain barrier: it joins the worker
            // and every connection handler before run() can return
        });
        state.cache.persist_stats(&state.cache.stats());
    }
}

/// RAII connection-count guard.
struct ConnectionPermit<'a> {
    state: &'a ServeState,
}

impl Drop for ConnectionPermit<'_> {
    fn drop(&mut self) {
        self.state
            .active_connections
            .fetch_sub(1, Ordering::Relaxed);
    }
}

fn handle_connection(mut stream: TcpStream, state: &Arc<ServeState>) {
    stream.set_read_timeout(Some(Duration::from_secs(10))).ok();
    stream.set_write_timeout(Some(Duration::from_secs(30))).ok();
    stream.set_nodelay(true).ok();
    let occupied = state.active_connections.fetch_add(1, Ordering::Relaxed);
    let _permit = ConnectionPermit { state };
    if occupied >= MAX_CONNECTIONS {
        let _ = http::write_response(&mut stream, 503, &error_json("too many connections"));
        return;
    }
    let request = match http::read_request(&mut stream) {
        Ok(request) => request,
        Err(message) => {
            let _ = http::write_response(&mut stream, 400, &error_json(&message));
            return;
        }
    };
    let (status, body) = route(state, &request);
    let _ = http::write_response(&mut stream, status, &body);
}

fn route(state: &Arc<ServeState>, request: &Request) -> (u16, String) {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => (200, compact(&[("status", Value::String("ok".to_owned()))])),
        ("GET", ["stats"]) => (200, stats_json(state)),
        ("GET", ["cache", "stats"]) => (200, cache_stats_json(state)),
        ("POST", ["cache", "gc"]) => cache_gc(state, &request.body),
        ("GET", ["report", spec]) => report(state, spec, &request.query),
        ("POST", ["sweep"]) => submit_sweep(state, &request.body),
        ("POST", ["pareto"]) => submit_pareto(state, &request.body),
        ("GET", ["job", id]) => job_status(state, id),
        ("GET", ["job", id, "result"]) => job_result(state, id),
        ("POST", ["shutdown"]) => {
            state.shutdown.store(true, Ordering::SeqCst);
            (
                200,
                compact(&[("status", Value::String("draining".to_owned()))]),
            )
        }
        (
            _,
            ["healthz"]
            | ["stats"]
            | ["cache", "stats" | "gc"]
            | ["report", _]
            | ["sweep"]
            | ["pareto"]
            | ["job", ..]
            | ["shutdown"],
        ) => (405, error_json("method not allowed for this endpoint")),
        _ => (
            404,
            error_json(
                "unknown endpoint — see GET /healthz, GET /stats, GET /cache/stats, \
                 POST /cache/gc, GET /report/<CONFIG>, POST /sweep, POST /pareto, \
                 GET /job/<id>, POST /shutdown",
            ),
        ),
    }
}

/// `GET /report/<CONFIG>` — one cache read-through. Every request is
/// classified by its [`Lookup`] as exactly one of hit / miss /
/// coalesced; identical cold requests (and jobs needing the same
/// report) coalesce inside the cache.
fn report(state: &Arc<ServeState>, spec: &str, query_pairs: &[(String, String)]) -> (u16, String) {
    let params = match params_from_query(state.defaults, query_pairs) {
        Ok(params) => params,
        Err(message) => return (400, error_json(&message)),
    };
    let config: OperatorConfig = match spec.parse() {
        Ok(config) => config,
        Err(e) => return (400, error_json(&format!("{e}"))),
    };
    let _inflight = state.stats.begin_inflight();
    let (report, lookup) = query::cached_report(
        &state.lib,
        params.settings(),
        &config,
        &state.engine,
        &state.cache,
    );
    match lookup {
        Lookup::Hit => state.stats.record_hit(),
        Lookup::Coalesced => state.stats.record_coalesced(),
        Lookup::Computed => state.stats.record_miss(),
    }
    match report.to_json() {
        Ok(json) => (200, format!("{json}\n")),
        Err(e) => (
            500,
            error_json(&format!("report serialization failed: {e}")),
        ),
    }
}

/// `POST /sweep` — validate, then enqueue; the body mirrors the CLI
/// flags (`family`, `workload`, `format`, `samples`, …).
fn submit_sweep(state: &Arc<ServeState>, body: &str) -> (u16, String) {
    if state.shutdown_requested() {
        return (503, error_json("shutting down"));
    }
    let fields = match parse_body(body) {
        Ok(fields) => fields,
        Err(message) => return (400, error_json(&message)),
    };
    let sweep = match sweep_request(state.defaults, &fields) {
        Ok(sweep) => sweep,
        Err(message) => return (400, error_json(&message)),
    };
    let label = match &sweep.workload {
        Some(workload) => format!("sweep --family {} --workload {workload}", sweep.family),
        None => format!("sweep --family {}", sweep.family),
    };
    let job_state = Arc::clone(state);
    enqueue(
        state,
        label,
        Box::new(move || {
            query::sweep_text(
                &job_state.lib,
                &sweep.params,
                &sweep.family,
                sweep.workload.as_deref(),
                sweep.format,
                &job_state.engine,
                &job_state.cache,
            )
        }),
    )
}

/// `POST /pareto` — validate, then enqueue; the body mirrors the CLI
/// flags (`workload` required, `family`/`all` mutually exclusive).
fn submit_pareto(state: &Arc<ServeState>, body: &str) -> (u16, String) {
    if state.shutdown_requested() {
        return (503, error_json("shutting down"));
    }
    let fields = match parse_body(body) {
        Ok(fields) => fields,
        Err(message) => return (400, error_json(&message)),
    };
    let pareto = match pareto_request(state.defaults, &fields) {
        Ok(pareto) => pareto,
        Err(message) => return (400, error_json(&message)),
    };
    let label = format!(
        "pareto --workload {}{}",
        pareto.workload,
        match (&pareto.family, pareto.all) {
            (Some(family), _) => format!(" --family {family}"),
            (None, true) => " --all".to_owned(),
            (None, false) => String::new(),
        }
    );
    let job_state = Arc::clone(state);
    enqueue(
        state,
        label,
        Box::new(move || {
            query::pareto_text(
                &job_state.lib,
                &pareto.params,
                &pareto.workload,
                pareto.family.as_deref(),
                pareto.all,
                pareto.format,
                &job_state.engine,
                &job_state.cache,
            )
        }),
    )
}

fn enqueue(state: &Arc<ServeState>, label: String, job: crate::jobs::Job) -> (u16, String) {
    match state.jobs.enqueue(label, job) {
        Enqueue::Accepted(id) => (
            202,
            compact(&[
                ("job", Value::UInt(u128::from(id))),
                ("status", Value::String("queued".to_owned())),
                ("poll", Value::String(format!("/job/{id}"))),
            ]),
        ),
        Enqueue::Rejected => {
            state.stats.record_rejected();
            (
                503,
                compact(&[
                    (
                        "error",
                        Value::String(format!(
                            "job queue full ({} jobs waiting)",
                            state.jobs.capacity()
                        )),
                    ),
                    ("capacity", Value::UInt(state.jobs.capacity() as u128)),
                ]),
            )
        }
    }
}

/// `GET /job/<id>` — 202 while pending, 200 once settled.
fn job_status(state: &Arc<ServeState>, id: &str) -> (u16, String) {
    let Ok(id) = id.parse::<u64>() else {
        return (400, error_json("job ids are integers"));
    };
    let Some(snapshot) = state.jobs.snapshot(id) else {
        return (404, error_json("unknown job id"));
    };
    let mut fields = vec![
        ("job", Value::UInt(u128::from(id))),
        ("status", Value::String(snapshot.status.as_str().to_owned())),
        ("label", Value::String(snapshot.label)),
    ];
    let status = match snapshot.status {
        JobStatus::Queued | JobStatus::Running => 202,
        JobStatus::Done => {
            fields.push(("result", Value::String(format!("/job/{id}/result"))));
            200
        }
        JobStatus::Failed => {
            fields.push(("error", Value::String(snapshot.error.unwrap_or_default())));
            200
        }
    };
    (status, compact(&fields))
}

/// `GET /job/<id>/result` — the raw rendered body once done (exactly
/// the bytes the corresponding CLI invocation prints on stdout).
fn job_result(state: &Arc<ServeState>, id: &str) -> (u16, String) {
    let Ok(id) = id.parse::<u64>() else {
        return (400, error_json("job ids are integers"));
    };
    let Some(snapshot) = state.jobs.snapshot(id) else {
        return (404, error_json("unknown job id"));
    };
    match snapshot.status {
        JobStatus::Done => (200, snapshot.result.unwrap_or_default()),
        JobStatus::Failed => (500, error_json(&snapshot.error.unwrap_or_default())),
        JobStatus::Queued | JobStatus::Running => (
            202,
            compact(&[("status", Value::String(snapshot.status.as_str().to_owned()))]),
        ),
    }
}

fn stats_json(state: &Arc<ServeState>) -> String {
    let stats = state.stats.snapshot();
    let jobs = state.jobs.counts();
    let mut cache = vec![("enabled".to_owned(), Value::Bool(state.cache.is_enabled()))];
    if let Value::Object(counters) = state.cache.stats().to_value() {
        cache.extend(counters);
    }
    let object = Value::Object(vec![
        ("hits".to_owned(), Value::UInt(u128::from(stats.hits))),
        ("misses".to_owned(), Value::UInt(u128::from(stats.misses))),
        (
            "coalesced".to_owned(),
            Value::UInt(u128::from(stats.coalesced)),
        ),
        (
            "inflight".to_owned(),
            Value::UInt(u128::from(stats.inflight) + jobs.running as u128),
        ),
        ("queue_depth".to_owned(), Value::UInt(jobs.queued as u128)),
        (
            "rejected".to_owned(),
            Value::UInt(u128::from(stats.rejected)),
        ),
        (
            "jobs".to_owned(),
            Value::Object(vec![
                ("queued".to_owned(), Value::UInt(jobs.queued as u128)),
                ("running".to_owned(), Value::UInt(jobs.running as u128)),
                ("done".to_owned(), Value::UInt(u128::from(jobs.done))),
                ("failed".to_owned(), Value::UInt(u128::from(jobs.failed))),
            ]),
        ),
        ("cache".to_owned(), Value::Object(cache)),
    ]);
    let mut text = serde_json::to_string_pretty(&object).expect("JSON rendering is infallible");
    text.push('\n');
    text
}

/// `GET /cache/stats` — the report cache alone, measured now: location,
/// on-disk blob count and byte size (the same definition `gc` budgets
/// against) plus this process's traffic counters.
fn cache_stats_json(state: &Arc<ServeState>) -> String {
    let cache = state.cache.stats();
    let dir = match state.cache.dir() {
        Some(dir) => Value::String(dir.display().to_string()),
        None => Value::Null,
    };
    let mut text = serde_json::to_string_pretty(&Value::Object(vec![
        ("enabled".to_owned(), Value::Bool(state.cache.is_enabled())),
        ("dir".to_owned(), dir),
        ("blobs".to_owned(), Value::UInt(u128::from(cache.blobs))),
        ("bytes".to_owned(), Value::UInt(u128::from(cache.bytes))),
        ("hits".to_owned(), Value::UInt(u128::from(cache.hits))),
        ("misses".to_owned(), Value::UInt(u128::from(cache.misses))),
        ("writes".to_owned(), Value::UInt(u128::from(cache.writes))),
        (
            "evictions".to_owned(),
            Value::UInt(u128::from(cache.evictions)),
        ),
        ("imports".to_owned(), Value::UInt(u128::from(cache.imports))),
    ]))
    .expect("JSON rendering is infallible");
    text.push('\n');
    text
}

/// `POST /cache/gc` — evict LRU-first down to the `max_bytes` budget
/// from the request body. A held gc lock is a 409 (another writer is
/// collecting; retry later), a disabled cache a 400; both carry the
/// structured [`apx_cache::CacheError`] JSON so clients can dispatch on
/// the variant.
fn cache_gc(state: &Arc<ServeState>, body: &str) -> (u16, String) {
    let fields = match parse_body(body) {
        Ok(fields) => fields,
        Err(message) => return (400, error_json(&message)),
    };
    if let Some((key, _)) = fields.iter().find(|(key, _)| key != "max_bytes") {
        return (
            400,
            error_json(&format!("unknown field `{key}` (allowed: max_bytes)")),
        );
    }
    let Some(text) = field(&fields, "max_bytes").and_then(value_text) else {
        return (400, error_json("gc needs a `max_bytes` field (bytes)"));
    };
    let max_bytes = match query::parse_uint("max_bytes", &text) {
        Ok(max_bytes) => max_bytes,
        Err(message) => return (400, error_json(&message)),
    };
    match state.cache.gc(max_bytes) {
        Ok(summary) => (200, json_line(&summary.to_value())),
        Err(err @ apx_cache::CacheError::Busy { .. }) => (409, err.to_json() + "\n"),
        Err(err) => (400, err.to_json() + "\n"),
    }
}

// ---------------------------------------------------------------------
// request parsing: the numeric parameters and the family, workload and
// `--family`/`--all` checks are `apx_core::query`'s, so a request is
// judged, and answered, exactly as the same CLI flags are

fn error_json(message: &str) -> String {
    compact(&[("error", Value::String(message.to_owned()))])
}

fn compact(fields: &[(&str, Value)]) -> String {
    json_line(&Value::Object(
        fields
            .iter()
            .map(|(k, v)| ((*k).to_owned(), v.clone()))
            .collect(),
    ))
}

fn json_line(value: &Value) -> String {
    let mut text = serde_json::to_string(value).expect("JSON rendering is infallible");
    text.push('\n');
    text
}

/// Applies `?samples=&vectors=&seed=` query parameters on top of the
/// server defaults; unknown keys are a 400 (typos must not silently
/// characterize something else).
fn params_from_query(
    defaults: QueryParams,
    pairs: &[(String, String)],
) -> Result<QueryParams, String> {
    let mut params = defaults;
    for (key, value) in pairs {
        if !["samples", "vectors", "seed"].contains(&key.as_str()) {
            return Err(format!(
                "unknown query parameter `{key}` (samples, vectors, seed)"
            ));
        }
        params.set(key, value)?;
    }
    Ok(params)
}

fn parse_body(body: &str) -> Result<Vec<(String, Value)>, String> {
    if body.trim().is_empty() {
        return Ok(Vec::new());
    }
    let value: Value =
        serde_json::from_str(body).map_err(|e| format!("request body is not JSON: {e}"))?;
    match value {
        Value::Object(fields) => Ok(fields),
        _ => Err("request body must be a JSON object".to_owned()),
    }
}

fn field<'a>(fields: &'a [(String, Value)], name: &str) -> Option<&'a Value> {
    fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

/// A field's value as the text the matching CLI flag would carry: a
/// string as is, any other JSON value in its compact rendering, and
/// `None` for `null` (the field keeps its default).
fn value_text(value: &Value) -> Option<String> {
    match value {
        Value::Null => None,
        Value::String(s) => Some(s.clone()),
        other => Some(serde_json::to_string(other).expect("JSON rendering is infallible")),
    }
}

fn field_string(fields: &[(String, Value)], name: &str) -> Result<Option<String>, String> {
    match field(fields, name) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::String(s)) => Ok(Some(s.clone())),
        Some(other) => Err(format!("{name}: expected a string, got {other:?}")),
    }
}

fn field_bool(fields: &[(String, Value)], name: &str) -> Result<bool, String> {
    match field(fields, name) {
        None | Some(Value::Null) => Ok(false),
        Some(Value::Bool(b)) => Ok(*b),
        Some(other) => Err(format!("{name}: expected a boolean, got {other:?}")),
    }
}

/// Shared body fields: every field must be in `allowed`, the numeric
/// ones go through [`QueryParams::set`], and `format` defaults to tty.
fn body_params(
    defaults: QueryParams,
    fields: &[(String, Value)],
    allowed: &[&str],
) -> Result<(QueryParams, Format), String> {
    let mut params = defaults;
    for (key, value) in fields {
        if !allowed.contains(&key.as_str()) {
            return Err(format!(
                "unknown field `{key}` (allowed: {})",
                allowed.join(", ")
            ));
        }
        if let Some(text) = value_text(value) {
            params.set(key, &text)?;
        }
    }
    let format = match field_string(fields, "format")? {
        Some(value) => Format::parse(&value)?,
        None => Format::Tty,
    };
    Ok((params, format))
}

#[derive(Debug)]
struct SweepRequest {
    family: String,
    workload: Option<String>,
    params: QueryParams,
    format: Format,
}

fn sweep_request(
    defaults: QueryParams,
    fields: &[(String, Value)],
) -> Result<SweepRequest, String> {
    let (params, format) = body_params(
        defaults,
        fields,
        &[
            "family", "workload", "format", "samples", "vectors", "seed", "size", "sets", "points",
        ],
    )?;
    let family = field_string(fields, "family")?.unwrap_or_else(|| "adders".to_owned());
    query::lookup_family("--family", &family)?;
    let workload = field_string(fields, "workload")?;
    if let Some(name) = &workload {
        query::resolve_workload(&params, name)?;
    }
    Ok(SweepRequest {
        family,
        workload,
        params,
        format,
    })
}

#[derive(Debug)]
struct ParetoRequest {
    workload: String,
    family: Option<String>,
    all: bool,
    params: QueryParams,
    format: Format,
}

fn pareto_request(
    defaults: QueryParams,
    fields: &[(String, Value)],
) -> Result<ParetoRequest, String> {
    let (params, format) = body_params(
        defaults,
        fields,
        &[
            "workload", "family", "all", "format", "samples", "vectors", "seed", "size", "sets",
            "points",
        ],
    )?;
    let workload = field_string(fields, "workload")?
        .ok_or_else(|| "pareto needs a `workload` field — see `apxperf list`".to_owned())?;
    let family = field_string(fields, "family")?;
    let all = field_bool(fields, "all")?;
    // the order `query::pareto_text` checks in, so the first error a
    // request meets is the one the CLI would print
    query::overlay_configs(family.as_deref(), all)?;
    query::resolve_workload(&params, &workload)?;
    Ok(ParetoRequest {
        workload,
        family,
        all,
        params,
        format,
    })
}

#[cfg(test)]
mod tests {
    //! What the request shells still decide: which keys and fields a
    //! request may carry, and the defaults. Value parsing and the name,
    //! size and `--family`/`--all` checks are `apx_core::query`'s and are
    //! tested there.
    use super::*;

    #[test]
    fn query_params_apply_on_top_of_defaults_and_reject_typos() {
        let defaults = QueryParams::default();
        let pairs = vec![
            ("samples".to_owned(), "2000".to_owned()),
            ("seed".to_owned(), "0xBEEF".to_owned()),
        ];
        let params = params_from_query(defaults, &pairs).unwrap();
        assert_eq!(params.samples, 2000);
        assert_eq!(params.seed, Some(0xBEEF));
        assert_eq!(params.vectors, defaults.vectors);
        // a report ignores the workload shape, so its keys are typos here
        for key in ["sample", "size"] {
            let err = params_from_query(defaults, &[(key.to_owned(), "1".to_owned())]).unwrap_err();
            assert!(err.contains("unknown query parameter"), "{err}");
        }
    }

    #[test]
    fn sweep_bodies_take_numbers_or_strings_and_reject_unknown_fields() {
        let defaults = QueryParams::default();
        let fields =
            parse_body(r#"{"family":"points","workload":"fir","samples":500,"seed":"0x10"}"#)
                .unwrap();
        let sweep = sweep_request(defaults, &fields).unwrap();
        assert_eq!(sweep.family, "points");
        assert_eq!(sweep.workload.as_deref(), Some("fir"));
        assert_eq!(sweep.params.samples, 500);
        assert_eq!(sweep.params.seed, Some(0x10));
        let fields = parse_body(r#"{"familly":"points"}"#).unwrap();
        let err = sweep_request(defaults, &fields).unwrap_err();
        assert!(err.contains("unknown field"), "{err}");
        for body in [
            r#"{"samples":-1}"#,
            r#"{"samples":1.5}"#,
            r#"{"samples":true}"#,
        ] {
            let err = sweep_request(defaults, &parse_body(body).unwrap()).unwrap_err();
            assert!(err.contains("is not an integer"), "{body}: {err}");
        }
    }

    #[test]
    fn pareto_bodies_need_a_workload() {
        let defaults = QueryParams::default();
        let err = pareto_request(defaults, &parse_body("{}").unwrap()).unwrap_err();
        assert!(err.contains("workload"), "{err}");
        let fields = parse_body(r#"{"workload":"fir","all":true,"format":"json"}"#).unwrap();
        let pareto = pareto_request(defaults, &fields).unwrap();
        assert!(pareto.all);
        assert_eq!(pareto.format, Format::Json);
    }

    #[test]
    fn empty_bodies_mean_all_defaults() {
        let fields = parse_body("").unwrap();
        let sweep = sweep_request(QueryParams::default(), &fields).unwrap();
        assert_eq!(sweep.family, "adders");
        assert_eq!(sweep.workload, None);
        assert_eq!(sweep.format, Format::Tty);
        assert_eq!(sweep.params, QueryParams::default());
    }
}
