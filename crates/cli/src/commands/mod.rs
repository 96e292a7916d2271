//! The `apxperf` subcommand registry: one entry per paper figure/table
//! plus the sweep/report/cache utilities — the twelve former standalone
//! binaries as cached subcommands of a single CLI.

use crate::args::Args;
use apx_apps::Workload;
use apx_cache::Cache;
use apx_cells::Library;
use apx_core::appenergy::{self, WorkloadCell};
use apx_core::{query, sweeps, OperatorReport};
use apx_operators::OperatorConfig;

mod apps;
mod baseline;
mod figures;
mod pareto;
mod serve;
mod tables;
mod tools;
mod tune;

/// One registered subcommand.
#[derive(Clone, Copy)]
pub struct Command {
    /// Subcommand name as typed on the command line.
    pub name: &'static str,
    /// One-line description (global help and the README table).
    pub summary: &'static str,
    /// Usage text of the positional arguments (empty when none).
    pub positional: &'static str,
    /// Maximum number of positional arguments accepted.
    pub max_positional: usize,
    /// Flags this subcommand accepts (names into [`crate::args::FLAGS`]).
    pub flags: &'static [&'static str],
    /// Entry point. `Err` carries a user-facing message.
    pub run: fn(&Args) -> Result<(), String>,
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

/// Sweep flags plus the workload-size knob (image-based applications).
const SIZED_FLAGS: &[&str] = &[
    "samples",
    "vectors",
    "seed",
    "threads",
    "size",
    "cache-dir",
    "no-cache",
    "format",
];

/// Sweep flags plus the K-means workload knobs.
const KMEANS_FLAGS: &[&str] = &[
    "samples",
    "vectors",
    "seed",
    "threads",
    "sets",
    "points",
    "cache-dir",
    "no-cache",
    "format",
];

/// Every `apxperf` subcommand, in help order.
pub const COMMANDS: &[Command] = &[
    Command {
        name: "fig3",
        summary: "Fig. 3 — 16-bit adder MSE (dB) vs. hardware cost",
        positional: "",
        max_positional: 0,
        flags: SWEEP_FLAGS,
        run: figures::fig3,
    },
    Command {
        name: "fig4",
        summary: "Fig. 4 — 16-bit adder BER vs. hardware cost",
        positional: "",
        max_positional: 0,
        flags: SWEEP_FLAGS,
        run: figures::fig4,
    },
    Command {
        name: "fig5",
        summary: "Fig. 5 — FFT-32 PSNR vs. adder energy (sized partners)",
        positional: "",
        max_positional: 0,
        flags: SWEEP_FLAGS,
        run: figures::fig5,
    },
    Command {
        name: "fig6",
        summary: "Fig. 6 — JPEG MSSIM vs. DCT energy per block",
        positional: "",
        max_positional: 0,
        flags: SIZED_FLAGS,
        run: figures::fig6,
    },
    Command {
        name: "table1",
        summary: "Table I — 16-bit fixed-width multipliers",
        positional: "",
        max_positional: 0,
        flags: SWEEP_FLAGS,
        run: tables::table1,
    },
    Command {
        name: "table2",
        summary: "Table II — FFT-32 with 16-bit multipliers",
        positional: "",
        max_positional: 0,
        flags: SWEEP_FLAGS,
        run: tables::table2,
    },
    Command {
        name: "table3",
        summary: "Table III — HEVC MC filter with 16-bit adders",
        positional: "",
        max_positional: 0,
        flags: SIZED_FLAGS,
        run: tables::table3,
    },
    Command {
        name: "table4",
        summary: "Table IV — HEVC MC filter with 16-bit multipliers",
        positional: "",
        max_positional: 0,
        flags: SIZED_FLAGS,
        run: tables::table4,
    },
    Command {
        name: "table5",
        summary: "Table V — K-means with 16-bit adders",
        positional: "",
        max_positional: 0,
        flags: KMEANS_FLAGS,
        run: tables::table5,
    },
    Command {
        name: "table6",
        summary: "Table VI — K-means with 16-bit multipliers",
        positional: "",
        max_positional: 0,
        flags: KMEANS_FLAGS,
        run: tables::table6,
    },
    Command {
        name: "app",
        summary: "Run any registered workload over an operator family",
        positional: "<WORKLOAD>",
        max_positional: 1,
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
        run: apps::app,
    },
    Command {
        name: "pareto",
        summary: "Quality-energy Pareto overlay: approximate families vs the Sized baseline",
        positional: "",
        max_positional: 0,
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
        run: pareto::pareto,
    },
    Command {
        name: "tune",
        summary: "Quality-budget auto-tuner: cheapest per-call-site operator assignment",
        positional: "",
        max_positional: 0,
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
        run: tune::tune,
    },
    Command {
        name: "list",
        summary: "List registered workloads, operator families and call-sites",
        positional: "",
        max_positional: 0,
        flags: &["sites"],
        run: apps::list,
    },
    Command {
        name: "ablations",
        summary: "Substrate ablations (compression, ABM correction, nodes)",
        positional: "",
        max_positional: 0,
        flags: SWEEP_FLAGS,
        run: baseline::ablations,
    },
    Command {
        name: "bench-baseline",
        summary:
            "Timed sweep -> BENCH_baseline.json (defaults reduced: 20000 samples, 300 vectors)",
        positional: "",
        max_positional: 0,
        flags: &["samples", "vectors", "seed", "threads", "out", "format"],
        run: baseline::bench_baseline,
    },
    Command {
        name: "sweep",
        summary: "Characterize a whole operator family (CSV/JSON-friendly)",
        positional: "",
        max_positional: 0,
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
        run: tools::sweep,
    },
    Command {
        name: "report",
        summary: "Characterize one operator (paper notation) -> full JSON report",
        positional: "<CONFIG>",
        max_positional: 1,
        flags: SWEEP_FLAGS,
        run: tools::report,
    },
    Command {
        name: "cache",
        summary: "Report-cache fleet ops (stats | clear | dir | pack | fetch | merge | gc)",
        positional: "<stats|clear|dir|pack|fetch|merge|gc> [ARCHIVE]",
        max_positional: 2,
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
        run: tools::cache,
    },
    Command {
        name: "serve",
        summary: "Characterization-as-a-service HTTP daemon (report/sweep/pareto/stats)",
        positional: "",
        max_positional: 0,
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
        run: serve::serve,
    },
];

/// Looks a subcommand up by name.
#[must_use]
pub fn find(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|c| c.name == name)
}

/// The standard sweep runner behind the figure/table subcommands:
/// characterize `configs` against the paper's library on the selected
/// engine, through the caller's cache handle (one handle per run, so the
/// end-of-run stats cover everything).
pub(crate) fn reports_for(
    args: &Args,
    cache: &Cache,
    configs: &[OperatorConfig],
) -> Vec<OperatorReport> {
    let lib = Library::fdsoi28();
    sweeps::characterize_all_cached(&lib, args.settings(), configs, &args.engine(), cache)
}

/// The standard application-sweep runner behind `app`, `sweep
/// --workload` and every figure/table case-study alias: resolve the
/// named workload ([`query::resolve_workload`]) and run the engine-parallel,
/// cache-aware cell sweep of `apx_core::appenergy`.
pub(crate) fn workload_cells(
    args: &Args,
    cache: &Cache,
    name: &str,
    configs: &[OperatorConfig],
) -> Result<(Box<dyn Workload>, Vec<WorkloadCell>), String> {
    let (workload, seed) = query::resolve_workload(&args.query_params(), name)?;
    let lib = Library::fdsoi28();
    let cells = appenergy::sweep_workload_cached(
        workload.as_ref(),
        seed,
        &lib,
        args.settings(),
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
    cache.persist_run_stats();
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
