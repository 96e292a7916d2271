//! The exploration subcommands: whole-family sweeps, single-operator
//! reports and report-cache maintenance.

use super::report_cache_use;
use crate::args::Args;
use apx_cells::Library;
use apx_core::{cache as core_cache, query};

/// `apxperf sweep` — characterizes one of the registered §IV families
/// and prints the headline CSV columns of every report; `--workload
/// <NAME>` scores the named application workload over the same
/// configurations instead. `--format csv` makes this the bulk-export
/// path (pipe it into a plotting script). The text itself comes from
/// [`query::sweep_text`] — the same function the serve daemon answers
/// `POST /sweep` with, so served bodies match this stdout byte for byte.
pub(super) fn sweep(args: &Args) -> Result<(), String> {
    let cache = args.cache();
    let text = query::sweep_text(
        &Library::fdsoi28(),
        &args.params,
        &args.family,
        args.workload.as_deref(),
        args.format,
        &args.engine(),
        &cache,
    )?;
    print!("{text}");
    report_cache_use(&cache);
    Ok(())
}

/// `apxperf report <CONFIG>` — characterizes a single operator named in
/// paper notation (e.g. `ADDt(16,10)`, `ACA(16,4)`, `RCAApx(16,6,3)`)
/// and prints the **full** fused report as pretty JSON: every error
/// metric (positional BER, acceptance probabilities), the hardware
/// record and the verification verdict. The JSON comes from
/// [`query::report_text`] — the exact bytes `GET /report/<CONFIG>`
/// serves.
pub(super) fn report(args: &Args) -> Result<(), String> {
    let spec = args
        .positional
        .first()
        .ok_or_else(|| "expected an operator, e.g. `apxperf report \"ACA(16,4)\"`".to_owned())?;
    let cache = args.cache();
    let (text, _hit) = query::report_text(
        &Library::fdsoi28(),
        &args.params,
        spec,
        &args.engine(),
        &cache,
    )?;
    print!("{text}");
    report_cache_use(&cache);
    Ok(())
}

/// `apxperf cache <verb>` — fleet operations on the report cache.
///
/// Maintenance: `stats` prints blob count, on-disk bytes, location, the
/// key schema and the counters persisted by the most recent
/// characterizing run (`--format json` emits all of it machine-readably
/// — the CI warm-run assertions `jq` this instead of grepping stderr);
/// `clear` deletes every blob (and only blobs — stats records, locks and
/// foreign files are classified out); `dir` prints just the directory
/// (for shell substitution).
///
/// Fleet: `pack <ARCHIVE>` exports blobs as one portable
/// fingerprint-stamped file — all of them, or just a sweep's closure
/// when `--family`/`--workload` select one; `fetch <ARCHIVE>` imports
/// strictly (collisions are errors), `merge <ARCHIVE>` unions (local
/// blobs win); both verify every blob checksum and reject archives from
/// a mismatched schema or library fingerprint with a structured error.
/// `gc --max-bytes N` evicts least-recently-used blobs until the
/// directory fits the budget.
pub(super) fn cache(args: &Args) -> Result<(), String> {
    let action = args.positional.first().map_or("stats", String::as_str);
    let cache = args.cache();
    match action {
        "stats" => {
            if args.format == crate::args::Format::Json {
                println!("{}", stats_json(&cache));
                return Ok(());
            }
            match cache.dir() {
                Some(dir) => {
                    let stats = cache.stats();
                    println!("dir:     {}", dir.display());
                    println!("blobs:   {}", stats.blobs);
                    println!("bytes:   {}", stats.bytes);
                    println!(
                        "schema:  apxperf-operator-report v{}",
                        core_cache::REPORT_SCHEMA_VERSION
                    );
                    println!(
                        "library: {} (fingerprint {})",
                        Library::fdsoi28().name(),
                        core_cache::library_fingerprint(&Library::fdsoi28())
                    );
                    match cache.last_run_stats() {
                        Some(run) => println!(
                            "last run: {} hits, {} misses, {} writes, {} evictions, {} imports",
                            run.hits, run.misses, run.writes, run.evictions, run.imports
                        ),
                        None => println!("last run: none recorded"),
                    }
                }
                None => println!("cache disabled (no directory could be derived)"),
            }
            Ok(())
        }
        "clear" => {
            let removed = cache.clear();
            println!("removed {removed} blobs");
            Ok(())
        }
        "dir" => {
            match cache.dir() {
                Some(dir) => println!("{}", dir.display()),
                None => println!(),
            }
            Ok(())
        }
        "pack" => pack(args, &cache),
        "fetch" => import(args, &cache, apx_cache::ImportMode::Fetch),
        "merge" => import(args, &cache, apx_cache::ImportMode::Merge),
        "gc" => gc(args, &cache),
        other => Err(format!(
            "`{other}` is not stats, clear, dir, pack, fetch, merge or gc"
        )),
    }
}

/// The `<ARCHIVE>` positional the pack/fetch/merge verbs require.
fn archive_path<'a>(args: &'a Args, verb: &str) -> Result<&'a str, String> {
    args.positional.get(1).map(String::as_str).ok_or_else(|| {
        format!("cache {verb} expects an archive path, e.g. `apxperf cache {verb} warm.apxcache`")
    })
}

/// A [`apx_cache::CacheError`] in the run's output format: the
/// externally tagged JSON object under `--format json` (scripts dispatch
/// on the variant name), the one-line prose otherwise.
fn cache_error(args: &Args, err: &apx_cache::CacheError) -> String {
    if args.format == crate::args::Format::Json {
        err.to_json()
    } else {
        err.to_string()
    }
}

/// Renders a fleet-operation summary as `--format` asks: a JSON object,
/// `metric,value` CSV, or aligned `metric: value` text lines.
fn render_summary(args: &Args, title: &str, pairs: &[(&str, u64)]) -> String {
    use serde::Value;
    match args.format {
        crate::args::Format::Json => {
            let object = Value::Object(
                pairs
                    .iter()
                    .map(|&(name, value)| (name.to_owned(), Value::UInt(u128::from(value))))
                    .collect(),
            );
            serde_json::to_string_pretty(&object).expect("JSON rendering is infallible")
        }
        crate::args::Format::Csv => {
            let mut text = "metric,value\n".to_owned();
            for (name, value) in pairs {
                text.push_str(&format!("{name},{value}\n"));
            }
            text.trim_end().to_owned()
        }
        crate::args::Format::Tty => {
            let width = pairs.iter().map(|(name, _)| name.len()).max().unwrap_or(0);
            let mut text = format!("{title}\n");
            for (name, value) in pairs {
                text.push_str(&format!("  {name:<width$}  {value}\n"));
            }
            text.trim_end().to_owned()
        }
    }
}

/// The blob selection of `cache pack`: the whole directory by default,
/// or — when `--family` (and optionally `--workload`) select a sweep —
/// exactly that sweep's key closure (each config's report, its sized
/// partner's report, and the workload cells).
fn pack_selection(args: &Args) -> Result<Option<Vec<apx_cache::CacheKey>>, String> {
    if !args.was_set("family") && args.workload.is_none() {
        return Ok(None);
    }
    let configs = (query::lookup_family("--family", args.family_or("points"))?.configs)();
    let lib = Library::fdsoi28();
    let settings = args.params.settings();
    let keys = match &args.workload {
        Some(name) => {
            let (workload, seed) = query::resolve_workload(&args.params, name)?;
            core_cache::sweep_key_closure(
                &lib,
                &settings,
                &configs,
                Some((workload.as_ref(), seed)),
            )
        }
        None => core_cache::sweep_key_closure(&lib, &settings, &configs, None),
    };
    Ok(Some(keys))
}

/// `apxperf cache pack <ARCHIVE>` — export blobs into one portable,
/// fingerprint-stamped archive file.
fn pack(args: &Args, cache: &apx_cache::Cache) -> Result<(), String> {
    let path = archive_path(args, "pack")?;
    let keys = pack_selection(args)?;
    let stamp = core_cache::archive_stamp(&Library::fdsoi28());
    let summary = cache
        .pack(std::path::Path::new(path), &stamp, keys.as_deref())
        .map_err(|e| cache_error(args, &e))?;
    println!(
        "{}",
        render_summary(
            args,
            &format!("packed -> {path}"),
            &[
                ("packed", summary.packed),
                ("bytes", summary.bytes),
                ("missing", summary.missing),
            ],
        )
    );
    Ok(())
}

/// `apxperf cache fetch|merge <ARCHIVE>` — import an archive, strictly
/// (`fetch`: collisions abort) or as a union (`merge`: local wins).
fn import(
    args: &Args,
    cache: &apx_cache::Cache,
    mode: apx_cache::ImportMode,
) -> Result<(), String> {
    let verb = match mode {
        apx_cache::ImportMode::Fetch => "fetch",
        apx_cache::ImportMode::Merge => "merge",
    };
    let path = archive_path(args, verb)?;
    let stamp = core_cache::archive_stamp(&Library::fdsoi28());
    let summary = cache
        .import(std::path::Path::new(path), &stamp, mode)
        .map_err(|e| cache_error(args, &e))?;
    println!(
        "{}",
        render_summary(
            args,
            &format!("{verb} <- {path}"),
            &[
                ("imported", summary.imported),
                ("already_present", summary.already_present),
                ("conflicts", summary.conflicts),
                ("total", summary.total),
            ],
        )
    );
    Ok(())
}

/// `apxperf cache gc --max-bytes N` — evict LRU-first down to the byte
/// budget.
fn gc(args: &Args, cache: &apx_cache::Cache) -> Result<(), String> {
    let budget = args
        .max_bytes
        .ok_or("cache gc expects a budget: `apxperf cache gc --max-bytes 256M`")?;
    let summary = cache.gc(budget).map_err(|e| cache_error(args, &e))?;
    println!(
        "{}",
        render_summary(
            args,
            &format!("gc to <= {budget} bytes"),
            &[
                ("examined_blobs", summary.examined_blobs),
                ("examined_bytes", summary.examined_bytes),
                ("evicted_blobs", summary.evicted_blobs),
                ("evicted_bytes", summary.evicted_bytes),
                ("remaining_blobs", summary.remaining_blobs),
                ("remaining_bytes", summary.remaining_bytes),
            ],
        )
    );
    Ok(())
}

/// The machine-readable form of `cache stats`: directory, blob count,
/// schema/library fingerprints and the persisted last-run counters
/// (`null` when no characterizing run has recorded any) as one JSON
/// object.
fn stats_json(cache: &apx_cache::Cache) -> String {
    use serde::{Serialize, Value};
    let lib = Library::fdsoi28();
    let dir = match cache.dir() {
        Some(dir) => Value::String(dir.display().to_string()),
        None => Value::Null,
    };
    let stats = cache.stats();
    let object = Value::Object(vec![
        ("dir".to_owned(), dir),
        ("blobs".to_owned(), Value::UInt(u128::from(stats.blobs))),
        ("bytes".to_owned(), Value::UInt(u128::from(stats.bytes))),
        (
            "report_schema_version".to_owned(),
            Value::UInt(u128::from(core_cache::REPORT_SCHEMA_VERSION)),
        ),
        (
            "app_sweep_schema_version".to_owned(),
            Value::UInt(u128::from(core_cache::APP_SWEEP_SCHEMA_VERSION)),
        ),
        (
            "library".to_owned(),
            Value::Object(vec![
                ("name".to_owned(), Value::String(lib.name().to_owned())),
                (
                    "fingerprint".to_owned(),
                    Value::String(core_cache::library_fingerprint(&lib).hex()),
                ),
            ]),
        ),
        ("last_run".to_owned(), cache.last_run_stats().to_value()),
    ]);
    serde_json::to_string_pretty(&object).expect("JSON rendering is infallible")
}
