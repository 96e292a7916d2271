//! The `apxperf` subcommand registry: one entry per paper figure/table
//! plus the sweep/report/cache utilities — the twelve former standalone
//! binaries as cached subcommands of a single CLI.

use crate::args::Args;
use apx_apps::Workload;
use apx_cache::Cache;
use apx_cells::Library;
use apx_core::appenergy::{self, WorkloadCell};
use apx_core::query;
use apx_operators::OperatorConfig;

mod apps;
mod baseline;
mod exhibits;
mod pareto;
mod serve;
mod tools;
mod tune;

/// One registered subcommand.
#[derive(Clone, Copy)]
pub struct Command {
    /// Subcommand name as typed on the command line.
    pub name: &'static str,
    /// One-line description (global help and the README table).
    pub summary: &'static str,
    /// Usage text of the positional arguments (empty when none), one
    /// whitespace-separated token per accepted argument.
    pub positional: &'static str,
    /// Flags this subcommand accepts (names into [`crate::args::FLAGS`]).
    pub flags: &'static [&'static str],
    /// What the subcommand runs.
    pub run: Run,
}

/// A subcommand's entry point.
#[derive(Clone, Copy)]
pub enum Run {
    /// A hand-written command.
    Fn(fn(&Args) -> Result<(), String>),
    /// One of the paper's figures or tables, printed by the one exhibit
    /// renderer.
    Exhibit(&'static exhibits::Exhibit),
}

impl Command {
    /// Runs the subcommand. `Err` carries a user-facing message.
    pub fn execute(&self, args: &Args) -> Result<(), String> {
        match self.run {
            Run::Fn(run) => run(args),
            Run::Exhibit(exhibit) => exhibits::render(exhibit, args),
        }
    }
}

/// Flags of the pure characterization sweeps (figures and operator
/// tables).
const SWEEP_FLAGS: &[&str] = &[
    "samples",
    "vectors",
    "seed",
    "threads",
    "cache-dir",
    "no-cache",
    "format",
];

/// Every `apxperf` subcommand, in help order.
pub const COMMANDS: &[Command] = &[
    exhibits::FIG3,
    exhibits::FIG4,
    exhibits::FIG5,
    exhibits::FIG6,
    exhibits::TABLE1,
    exhibits::TABLE2,
    exhibits::TABLE3,
    exhibits::TABLE4,
    exhibits::TABLE5,
    exhibits::TABLE6,
    Command {
        name: "app",
        summary: "Run any registered workload over an operator family",
        positional: "<WORKLOAD>",
        flags: &[
            "family",
            "samples",
            "vectors",
            "seed",
            "threads",
            "size",
            "sets",
            "points",
            "cache-dir",
            "no-cache",
            "format",
        ],
        run: Run::Fn(apps::app),
    },
    Command {
        name: "pareto",
        summary: "Quality-energy Pareto overlay: approximate families vs the Sized baseline",
        positional: "",
        flags: &[
            "workload",
            "family",
            "all",
            "samples",
            "vectors",
            "seed",
            "threads",
            "size",
            "sets",
            "points",
            "cache-dir",
            "no-cache",
            "format",
        ],
        run: Run::Fn(pareto::pareto),
    },
    Command {
        name: "tune",
        summary: "Quality-budget auto-tuner: cheapest per-call-site operator assignment",
        positional: "",
        flags: &[
            "workload",
            "budget",
            "families",
            "samples",
            "vectors",
            "seed",
            "threads",
            "size",
            "sets",
            "points",
            "cache-dir",
            "no-cache",
            "format",
        ],
        run: Run::Fn(tune::tune),
    },
    Command {
        name: "list",
        summary: "List registered workloads, operator families and call-sites",
        positional: "",
        flags: &["sites"],
        run: Run::Fn(apps::list),
    },
    Command {
        name: "ablations",
        summary: "Substrate ablations (compression, ABM correction, nodes)",
        positional: "",
        flags: SWEEP_FLAGS,
        run: Run::Fn(baseline::ablations),
    },
    Command {
        name: "bench-baseline",
        summary:
            "Timed sweep -> BENCH_baseline.json (defaults reduced: 20000 samples, 300 vectors)",
        positional: "",
        flags: &["samples", "vectors", "seed", "threads", "out", "format"],
        run: Run::Fn(baseline::bench_baseline),
    },
    Command {
        name: "sweep",
        summary: "Characterize a whole operator family (CSV/JSON-friendly)",
        positional: "",
        flags: &[
            "family",
            "workload",
            "samples",
            "vectors",
            "seed",
            "threads",
            "size",
            "sets",
            "points",
            "cache-dir",
            "no-cache",
            "format",
        ],
        run: Run::Fn(tools::sweep),
    },
    Command {
        name: "report",
        summary: "Characterize one operator (paper notation) -> full JSON report",
        positional: "<CONFIG>",
        flags: SWEEP_FLAGS,
        run: Run::Fn(tools::report),
    },
    Command {
        name: "cache",
        summary: "Report-cache fleet ops (stats | clear | dir | pack | fetch | merge | gc)",
        positional: "<stats|clear|dir|pack|fetch|merge|gc> [ARCHIVE]",
        flags: &[
            "cache-dir",
            "cache-capacity",
            "max-bytes",
            "format",
            "family",
            "workload",
            "samples",
            "vectors",
            "seed",
            "size",
            "sets",
            "points",
        ],
        run: Run::Fn(tools::cache),
    },
    Command {
        name: "serve",
        summary: "Characterization-as-a-service HTTP daemon (report/sweep/pareto/stats)",
        positional: "",
        flags: &[
            "addr",
            "port-file",
            "queue",
            "samples",
            "vectors",
            "seed",
            "threads",
            "cache-dir",
            "cache-capacity",
            "no-cache",
        ],
        run: Run::Fn(serve::serve),
    },
];

/// Looks a subcommand up by name.
#[must_use]
pub fn find(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|c| c.name == name)
}

/// The standard application-sweep runner behind `app`, `sweep
/// --workload` and every application exhibit: resolve the
/// named workload ([`query::resolve_workload`]) and run the engine-parallel,
/// cache-aware cell sweep of `apx_core::appenergy`.
pub(crate) fn workload_cells(
    args: &Args,
    cache: &Cache,
    name: &str,
    configs: &[OperatorConfig],
) -> Result<(Box<dyn Workload>, Vec<WorkloadCell>), String> {
    let (workload, seed) = query::resolve_workload(&args.params, name)?;
    let lib = Library::fdsoi28();
    let cells = appenergy::sweep_workload_cached(
        workload.as_ref(),
        seed,
        &lib,
        args.params.settings(),
        configs,
        &args.engine(),
        cache,
    );
    Ok((workload, cells))
}

/// Prints the end-of-run cache summary to **stderr** — stdout carries
/// only the results, so cold and warm runs remain byte-identical there
/// (CI diffs them) while the operator still sees what the cache did —
/// and persists the counters into the cache directory so a later
/// `apxperf cache stats --format json` can report the last run's
/// traffic machine-readably (the CI assertion path).
pub(crate) fn report_cache_use(cache: &Cache) {
    if !cache.is_enabled() {
        return;
    }
    let stats = cache.stats();
    if stats.hits + stats.misses + stats.writes == 0 {
        return;
    }
    cache.persist_stats(&stats);
    eprintln!(
        "cache: {} hits, {} misses, {} writes ({})",
        stats.hits,
        stats.misses,
        stats.writes,
        cache
            .dir()
            .map_or_else(|| "?".to_owned(), |d| d.display().to_string()),
    );
}
