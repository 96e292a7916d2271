//! `apxperf serve` — the characterization-as-a-service daemon. Thin
//! glue: translate the parsed CLI flags into an [`apx_serve::ServerConfig`],
//! bind, announce the actual address (stdout, flushed, so scripts piping
//! us see it immediately), install the signal handlers and serve until a
//! graceful drain completes.

use crate::args::Args;
use apx_serve::{signal, Server, ServerConfig};
use std::io::Write;

pub(crate) fn serve(args: &Args) -> Result<(), String> {
    let config = ServerConfig {
        addr: args.addr.clone(),
        queue_capacity: args.queue,
        port_file: args.port_file.clone(),
        cache: args.cache(),
        engine: args.engine(),
        defaults: args.params,
        watch_signals: true,
    };
    let server = Server::bind(config)?;
    let addr = server.local_addr();
    println!(
        "apxperf serve: listening on http://{addr}/ (queue {})",
        args.queue
    );
    // stdout is block-buffered when piped; scripts poll this line
    std::io::stdout()
        .flush()
        .map_err(|e| format!("cannot flush stdout: {e}"))?;
    signal::install();
    server.run();
    println!("apxperf serve: drained, bye");
    Ok(())
}
