//! Characterization-as-a-service: `apxperf serve` exposes the library
//! over a hand-rolled HTTP/1.1 + JSON protocol on a plain
//! [`std::net::TcpListener`] — no async runtime, no HTTP framework.
//!
//! The protocol mirrors the CLI one-to-one, and the contract is
//! **byte-identity**: a `GET /report/<CONFIG>` body is exactly the
//! stdout of `apxperf report <CONFIG> --format json`, and a finished
//! `POST /sweep` / `POST /pareto` job result is exactly the stdout of
//! the corresponding CLI invocation. Both sides render through the same
//! [`apx_core::query`] layer, so the identity holds by construction.
//! The inputs go through that layer as well: query parameters and body
//! fields are parsed by [`apx_core::query::QueryParams::set`], and a
//! `POST` body's family, workload and `family`/`all` are checked before
//! the job is queued. An invalid request is a `400` at submission with
//! the CLI's error message for the same flags, never a failed job.
//!
//! | Endpoint | Semantics |
//! |---|---|
//! | `GET /healthz` | liveness probe |
//! | `GET /stats` | service counters (hits / misses / coalesced / …) |
//! | `GET /report/<CONFIG>` | one operator report, read through the cache |
//! | `POST /sweep` | enqueue a family sweep → `202` + job id, or `400` |
//! | `POST /pareto` | enqueue a Pareto query → `202` + job id, or `400` |
//! | `GET /job/<id>` | poll a job |
//! | `GET /job/<id>/result` | fetch a finished job's body |
//! | `POST /shutdown` | request a graceful drain |
//!
//! Identical in-flight reads coalesce inside the cache
//! ([`apx_cache::Cache::read_through`]), so concurrent `/report`
//! requests and jobs on the daemon's cache handle compute each report
//! once. The rest of the concurrency machinery is one module
//! each: [`jobs`] is the bounded queue behind the `202` endpoints,
//! [`stats`] holds the lock-free counters, and [`signal`] turns
//! SIGINT/SIGTERM into a graceful drain.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod jobs;
pub mod server;
pub mod signal;
pub mod stats;

pub use server::{Server, ServerConfig, ServerHandle};
