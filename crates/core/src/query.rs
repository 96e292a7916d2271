//! Serving-grade query entry points — the report / family-sweep /
//! Pareto-overlay queries as pure `inputs -> rendered text` functions.
//!
//! The `apxperf` CLI and the `apx_serve` daemon are both thin clients of
//! this module: a subcommand prints the returned string to stdout, the
//! server sends the same string as an HTTP response body. Because both
//! go through the very same functions, a served response is
//! **byte-identical** to the corresponding CLI stdout by construction —
//! the property the serve e2e suite pins.
//!
//! The inputs are decided here too, once for both front ends:
//! [`QueryParams`] mirrors the shared CLI flags (`--samples`,
//! `--vectors`, `--seed`, `--size`, `--sets`, `--points`) with the same
//! defaults, and [`QueryParams::set`] is the one parsing rule for them —
//! a CLI flag, a `GET /report` query parameter and a `POST` body field
//! all go through it. [`lookup_family`], [`resolve_workload`] and
//! [`overlay_configs`] are the one family, workload and `--family`/`--all`
//! check. The daemon runs them before it enqueues a job, so an invalid
//! request is a `400` at submission carrying the CLI's message, never a
//! failed job. [`QueryParams::settings`] applies the repro preset
//! (2 000 verification vectors, exhaustive up to 16 operand bits) that
//! every CLI run uses.

use crate::appenergy::{self, WorkloadCell};
use crate::output::{family, fmt, render, Format};
use crate::pareto::{workload_pareto, ParetoEntry};
use crate::sweeps::{self, SweepFamily};
use crate::{cache as core_cache, Characterizer, CharacterizerSettings, OperatorReport};
use apx_apps::{Workload, WorkloadParams};
use apx_cache::{Cache, Lookup};
use apx_cells::Library;
use apx_engine::Engine;
use apx_operators::OperatorConfig;

/// The master seed every run defaults to (the CLI's `--seed` default).
pub const DEFAULT_SEED: u64 = 0xDA7E_2017;

/// Verification vectors used by all CLI/server runs (the repro preset).
pub const VERIFY_SAMPLES: usize = 2_000;

/// Exhaustive-verification bound used by all CLI/server runs.
pub const EXHAUSTIVE_UP_TO_BITS: u32 = 16;

/// The shared query parameters: one struct mirroring the CLI flag
/// defaults, so the CLI and the server resolve identical inputs to
/// identical [`CharacterizerSettings`] (and therefore identical cache
/// keys and identical bytes out).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryParams {
    /// Error-characterization samples per operator (`--samples`).
    pub samples: usize,
    /// Gate-level power-estimation vectors per operator (`--vectors`).
    pub vectors: usize,
    /// Master seed; `None` means "not explicitly set" — settings fall
    /// back to [`DEFAULT_SEED`] and workload runs fall back to the
    /// workload's own fixture seed, exactly like the CLI's `--seed`.
    pub seed: Option<u64>,
    /// Workload size where applicable (`--size`).
    pub size: usize,
    /// K-means data sets (`--sets`).
    pub sets: usize,
    /// K-means points per set (`--points`).
    pub points: usize,
}

impl Default for QueryParams {
    fn default() -> Self {
        QueryParams {
            samples: 100_000,
            vectors: 1_500,
            seed: None,
            size: 128,
            sets: 5,
            points: 500,
        }
    }
}

impl QueryParams {
    /// Sets the parameter `key` (the CLI flag name without `--`, which is
    /// also the serve query and body key) from its text: an unsigned
    /// integer, decimal or 0x-hex, and at least 1 for `samples` and
    /// `vectors`. A set `seed` counts as explicit.
    ///
    /// Returns `Ok(false)` when `key` is not one of the six parameters,
    /// for the caller to report in its own terms.
    ///
    /// # Errors
    /// A malformed or zero value, as a user-facing message naming the
    /// flag.
    pub fn set(&mut self, key: &str, text: &str) -> Result<bool, String> {
        let label = format!("--{key}");
        match key {
            "samples" => self.samples = parse_positive(&label, text)? as usize,
            "vectors" => self.vectors = parse_positive(&label, text)? as usize,
            "seed" => self.seed = Some(parse_uint(&label, text)?),
            "size" => self.size = parse_uint(&label, text)? as usize,
            "sets" => self.sets = parse_uint(&label, text)? as usize,
            "points" => self.points = parse_uint(&label, text)? as usize,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The characterizer settings these parameters select (the repro
    /// preset the CLI has always used).
    #[must_use]
    pub fn settings(&self) -> CharacterizerSettings {
        CharacterizerSettings {
            error_samples: self.samples,
            verify_samples: VERIFY_SAMPLES,
            exhaustive_up_to_bits: EXHAUSTIVE_UP_TO_BITS,
            power_vectors: self.vectors,
            seed: self.seed.unwrap_or(DEFAULT_SEED),
        }
    }

    /// The workload-shaping parameters (`--size`/`--sets`/`--points`).
    #[must_use]
    pub fn workload_params(&self) -> WorkloadParams {
        WorkloadParams {
            size: self.size,
            sets: self.sets,
            points: self.points,
        }
    }
}

/// Parses an unsigned integer, decimal or `0x`-hex — the number syntax
/// of every CLI flag and request parameter. `label` names the input in
/// the error (`--samples`, `max_bytes`).
///
/// # Errors
/// Anything else, as a user-facing message.
pub fn parse_uint(label: &str, text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse::<u64>(),
    };
    parsed.map_err(|_| format!("{label}: `{text}` is not an integer"))
}

/// [`parse_uint`] for knobs that cannot meaningfully be zero: zero
/// samples, vectors or threads would panic or produce NaN metrics deep
/// in the pipeline, so they are rejected at the door instead.
///
/// # Errors
/// A malformed or zero value, as a user-facing message.
pub fn parse_positive(label: &str, text: &str) -> Result<u64, String> {
    match parse_uint(label, text)? {
        0 => Err(format!(
            "{label}: must be at least 1 (omit the flag for the default)"
        )),
        n => Ok(n),
    }
}

/// Looks a registered §IV family up by name — the one family lookup
/// behind `sweep`, `pareto`, `app`, `cache pack` and `tune --families`,
/// on the CLI and in the daemon alike. `flag` names the input in the
/// error.
///
/// # Errors
/// An unknown name, listing the registered ones.
pub fn lookup_family(flag: &str, name: &str) -> Result<&'static SweepFamily, String> {
    sweeps::find_family(name).ok_or_else(|| {
        let names: Vec<&str> = sweeps::FAMILIES.iter().map(|f| f.name).collect();
        format!(
            "{flag}: `{name}` is not one of {} — see `apxperf list`",
            names.join(", ")
        )
    })
}

/// Resolves a workload name against the registry, builds the instance
/// from the shared parameters, and picks its legacy fixture seed unless
/// a seed was given explicitly — the common front half of every
/// workload-scoring query.
///
/// # Errors
/// An unknown name, or a constructor rejection (e.g. a size constraint),
/// as a user-facing message.
pub fn resolve_workload(
    params: &QueryParams,
    name: &str,
) -> Result<(Box<dyn Workload>, u64), String> {
    let entry = apx_apps::workload::find(name)
        .ok_or_else(|| format!("unknown workload `{name}` — see `apxperf list`"))?;
    let workload = (entry.build)(&params.workload_params())?;
    let seed = params.seed.unwrap_or_else(|| workload.default_seed());
    Ok((workload, seed))
}

/// One cached single-operator characterization: content-addressed lookup
/// ([`core_cache::report_cache_key`]) with the collision guard, falling
/// back to a full characterization plus write-back on a miss. Returns
/// the report and how [`Cache::read_through`] obtained it — the signal
/// the server's `/stats` hit/miss/coalesced counters are built on.
/// Counter traffic on the `cache` handle is identical to the
/// `Characterizer::with_cache` path.
#[must_use]
pub fn cached_report(
    lib: &Library,
    settings: CharacterizerSettings,
    config: &OperatorConfig,
    engine: &Engine,
    cache: &Cache,
) -> (OperatorReport, Lookup) {
    cache.read_through(
        || core_cache::report_cache_key(lib, &settings, config),
        |report: &OperatorReport| report.config == *config,
        || {
            Characterizer::new(lib)
                .with_settings(settings)
                .with_engine(engine.clone())
                .characterize(config)
        },
    )
}

/// The `report <CONFIG>` query: parse the paper notation, characterize
/// (through the cache), and render the full fused report as pretty JSON
/// plus a trailing newline — exactly the bytes `apxperf report` prints.
/// The boolean is `true` when this call did not compute the report.
///
/// # Errors
/// Invalid operator notation, or (never in practice) a serialization
/// failure.
pub fn report_text(
    lib: &Library,
    params: &QueryParams,
    spec: &str,
    engine: &Engine,
    cache: &Cache,
) -> Result<(String, bool), String> {
    let config: OperatorConfig = spec.parse().map_err(|e| format!("{e}"))?;
    let (report, lookup) = cached_report(lib, params.settings(), &config, engine, cache);
    let json = report
        .to_json()
        .map_err(|e| format!("report serialization failed: {e}"))?;
    Ok((format!("{json}\n"), lookup != Lookup::Computed))
}

/// The uniform workload result table shared by `app`, `sweep --workload`
/// and the server's sweep jobs: the unified score with its metric kind,
/// the kind-free exact-relative degradation, and the eq. (1) energy
/// split.
#[must_use]
pub fn workload_table(format: Format, cells: &[WorkloadCell]) -> String {
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|cell| {
            vec![
                cell.config.to_string(),
                family(&cell.config).to_owned(),
                cell.run.score.metric().to_owned(),
                fmt(cell.run.score.value(), 4),
                fmt(cell.run.score.degradation(), 6),
                fmt(cell.model.adder_pdp_pj * 1e3, 3),
                fmt(cell.model.mult_pdp_pj * 1e3, 3),
                fmt(cell.model.energy_pj(cell.run.counts), 3),
            ]
        })
        .collect();
    render(
        format,
        &[
            "operator",
            "family",
            "metric",
            "score",
            "degradation",
            "E_add_fJ",
            "E_mul_fJ",
            "E_app_pJ",
        ],
        &rows,
    )
}

/// The `sweep` query: characterize one registered §IV family and render
/// the headline columns of every report; with `workload`, score the
/// named application workload over the same configurations instead
/// (including the `SWEEP …` header line). The returned string is exactly
/// the stdout of the corresponding `apxperf sweep` invocation.
///
/// # Errors
/// An unknown family or workload name, as a user-facing message.
#[allow(clippy::too_many_arguments)]
pub fn sweep_text(
    lib: &Library,
    params: &QueryParams,
    family_name: &str,
    workload_name: Option<&str>,
    format: Format,
    engine: &Engine,
    cache: &Cache,
) -> Result<String, String> {
    let sweep_family = lookup_family("--family", family_name)?;
    let configs: Vec<OperatorConfig> = (sweep_family.configs)();
    if let Some(name) = workload_name {
        let (workload, seed) = resolve_workload(params, name)?;
        let cells = appenergy::sweep_workload_cached(
            workload.as_ref(),
            seed,
            lib,
            params.settings(),
            &configs,
            engine,
            cache,
        );
        let mut text = format!(
            "SWEEP {} over family `{}` ({} configs)\n",
            workload.fingerprint(),
            sweep_family.name,
            configs.len()
        );
        text.push_str(&workload_table(format, &cells));
        return Ok(text);
    }
    let reports = sweeps::characterize_all_cached(lib, params.settings(), &configs, engine, cache);
    // the headline columns of OperatorReport::to_csv_row, cell by cell
    // (not split from the CSV string — the operator name contains commas)
    let rows: Vec<Vec<String>> = configs
        .iter()
        .zip(&reports)
        .map(|(config, r)| {
            vec![
                family(config).to_owned(),
                r.name.clone(),
                r.verified.to_string(),
                fmt(r.error.mse_db, 3),
                fmt(r.error.ber, 6),
                fmt(r.error.mae, 4),
                fmt(r.error.mean_error, 4),
                fmt(r.error.error_rate, 6),
                fmt(r.hw.area_um2, 2),
                fmt(r.hw.delay_ns, 4),
                fmt(r.hw.power_mw, 5),
                fmt(r.hw.pdp_pj, 6),
            ]
        })
        .collect();
    let mut headers = vec!["family"];
    let header_row = OperatorReport::csv_header();
    headers.extend(header_row.split(','));
    Ok(render(format, &headers, &rows))
}

/// Assembles the Pareto-overlay configuration list: the selected
/// approximate family (or everything under `all`) plus the full Sized
/// baseline, first occurrence winning on duplicates (the exact operators
/// belong to both sides).
///
/// # Errors
/// `family_name` combined with `all`, or an unknown family.
pub fn overlay_configs(
    family_name: Option<&str>,
    all: bool,
) -> Result<Vec<OperatorConfig>, String> {
    if all && family_name.is_some() {
        return Err("--family and --all are mutually exclusive".to_owned());
    }
    let selected = if all {
        "all"
    } else {
        family_name.unwrap_or("points")
    };
    let mut configs = (lookup_family("--family", selected)?.configs)();
    configs.extend(sweeps::sized_baseline_16bit());
    let mut seen = Vec::with_capacity(configs.len());
    configs.retain(|config| {
        let fresh = !seen.contains(config);
        if fresh {
            seen.push(*config);
        }
        fresh
    });
    Ok(configs)
}

/// Renders the overlay table: one row per configuration with its role
/// (sized baseline vs approximation), quality/energy coordinates, front
/// membership and — for dominated rows — the dominating config's name.
fn render_overlay(format: Format, entries: &[ParetoEntry]) -> String {
    let rows: Vec<Vec<String>> = entries
        .iter()
        .map(|entry| {
            let dominated_by = entry
                .verdict
                .dominated_by
                .map_or_else(|| "-".to_owned(), |i| entries[i].cell.config.to_string());
            vec![
                entry.cell.config.to_string(),
                family(&entry.cell.config).to_owned(),
                if entry.sized { "sized" } else { "approx" }.to_owned(),
                entry.cell.run.score.metric().to_owned(),
                fmt(entry.sample.quality, 4),
                fmt(entry.sample.energy, 3),
                if entry.verdict.on_front { "yes" } else { "no" }.to_owned(),
                dominated_by,
            ]
        })
        .collect();
    render(
        format,
        &[
            "operator",
            "family",
            "role",
            "metric",
            "score",
            "E_app_pJ",
            "front",
            "dominated_by",
        ],
        &rows,
    )
}

/// The `pareto` query: overlay the approximate families against the
/// sized-exact baseline on one quality–energy plot and report the
/// strict-dominance front, exactly as `apxperf pareto` prints it —
/// header line, overlay table, and the `front: …` summary counting the
/// paper's "hidden cost". `family_name` is the explicitly selected
/// family (`None` defaults to `points`), mutually exclusive with `all`.
///
/// # Errors
/// An unknown family or workload name, or `family` combined with `all`.
#[allow(clippy::too_many_arguments)]
pub fn pareto_text(
    lib: &Library,
    params: &QueryParams,
    workload_name: &str,
    family_name: Option<&str>,
    all: bool,
    format: Format,
    engine: &Engine,
    cache: &Cache,
) -> Result<String, String> {
    let configs = overlay_configs(family_name, all)?;
    let (workload, seed) = resolve_workload(params, workload_name)?;
    let entries = workload_pareto(
        workload.as_ref(),
        seed,
        lib,
        params.settings(),
        &configs,
        engine,
        cache,
    );
    let mut text = format!(
        "PARETO {} over {} + sized baseline ({} configs)\n",
        workload.fingerprint(),
        if all {
            "`all` families".to_owned()
        } else {
            format!("family `{}`", family_name.unwrap_or("points"))
        },
        entries.len()
    );
    text.push_str(&render_overlay(format, &entries));
    let front = entries.iter().filter(|e| e.verdict.on_front).count();
    let sized_dominated = entries
        .iter()
        .filter(|e| !e.sized && e.verdict.dominated_by.is_some_and(|i| entries[i].sized))
        .count();
    text.push_str(&format!(
        "front: {front} of {} configs; {sized_dominated} approximate configs dominated by the \
         sized baseline\n",
        entries.len()
    ));
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> QueryParams {
        QueryParams {
            samples: 400,
            vectors: 20,
            ..QueryParams::default()
        }
    }

    #[test]
    fn default_params_mirror_the_cli_defaults() {
        let params = QueryParams::default();
        assert_eq!(params.samples, 100_000);
        assert_eq!(params.vectors, 1_500);
        assert_eq!(params.seed, None);
        let settings = params.settings();
        assert_eq!(settings.seed, DEFAULT_SEED);
        assert_eq!(settings.verify_samples, VERIFY_SAMPLES);
        assert_eq!(settings.exhaustive_up_to_bits, EXHAUSTIVE_UP_TO_BITS);
    }

    #[test]
    fn parse_uint_takes_decimal_and_hex_only() {
        assert_eq!(parse_uint("--seed", "42"), Ok(42));
        assert_eq!(parse_uint("--seed", "0xBEEF"), Ok(0xBEEF));
        assert_eq!(parse_uint("--seed", "0XbeEF"), Ok(0xBEEF));
        for bad in ["", "-1", "+", "many", "0x", "1.5", "18446744073709551616"] {
            assert_eq!(
                parse_uint("--seed", bad),
                Err(format!("--seed: `{bad}` is not an integer"))
            );
        }
        assert!(parse_positive("--threads", "0")
            .unwrap_err()
            .contains("at least 1"));
        assert_eq!(parse_positive("--threads", "0x2"), Ok(2));
    }

    #[test]
    fn set_applies_on_top_of_defaults_and_rejects_zero_knobs() {
        let defaults = QueryParams::default();
        let mut params = defaults;
        assert_eq!(params.set("samples", "2000"), Ok(true));
        assert_eq!(params.set("seed", "0xBEEF"), Ok(true));
        assert_eq!(params.samples, 2000);
        assert_eq!(params.seed, Some(0xBEEF));
        assert_eq!(params.vectors, defaults.vectors);
        for (key, value) in [("vectors", 40), ("size", 64), ("sets", 2), ("points", 9)] {
            assert_eq!(params.set(key, &value.to_string()), Ok(true), "{key}");
        }
        let expected = QueryParams {
            samples: 2000,
            vectors: 40,
            seed: Some(0xBEEF),
            size: 64,
            sets: 2,
            points: 9,
        };
        assert_eq!(params, expected);
        // a typo is not a parameter: the caller reports it in its terms
        assert_eq!(params.set("sample", "1"), Ok(false));
        for key in ["samples", "vectors"] {
            let err = params.set(key, "0").unwrap_err();
            assert!(err.contains("at least 1"), "{key}: {err}");
        }
        let err = params.set("size", "seven").unwrap_err();
        assert_eq!(err, "--size: `seven` is not an integer");
        assert_eq!(params, expected, "a rejected value changes nothing");
        // zero sizes are the workload constructors' to judge
        assert_eq!(params.set("sets", "0"), Ok(true));
    }

    #[test]
    fn name_and_size_checks_fail_before_any_computation() {
        let err = lookup_family("--family", "nope").map(|_| ()).unwrap_err();
        assert!(err.contains("is not one of"), "{err}");
        assert!(err.contains("see `apxperf list`"), "{err}");
        assert_eq!(lookup_family("--family", "points").unwrap().name, "points");
        let err = overlay_configs(Some("points"), true).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        let err = overlay_configs(Some("nope"), false).unwrap_err();
        assert!(err.starts_with("--family: `nope` is not one of"), "{err}");
        assert!(!overlay_configs(None, true).unwrap().is_empty());
        let err = resolve_workload(&small(), "nope").map(|_| ()).unwrap_err();
        assert!(err.contains("unknown workload"), "{err}");
        for (name, key, value) in [("jpeg", "size", "7"), ("kmeans", "sets", "0")] {
            let mut params = small();
            params.set(key, value).unwrap();
            let err = resolve_workload(&params, name).map(|_| ()).unwrap_err();
            assert!(err.starts_with(name), "{err}");
        }
    }

    #[test]
    fn report_text_is_deterministic_and_cache_transparent() {
        let lib = Library::fdsoi28();
        let engine = Engine::new(2);
        let params = small();
        let (cold, hit_cold) =
            report_text(&lib, &params, "ACA(8,2)", &engine, &Cache::default()).unwrap();
        assert!(!hit_cold);
        assert!(cold.ends_with('\n'));
        let (again, _) =
            report_text(&lib, &params, "ACA(8,2)", &engine, &Cache::default()).unwrap();
        assert_eq!(cold, again, "pure function of its inputs");
        let err = report_text(&lib, &params, "FROB(16)", &engine, &Cache::default()).unwrap_err();
        assert!(!err.is_empty());
    }

    #[test]
    fn cached_report_hits_on_the_second_lookup() {
        let dir = std::env::temp_dir().join(format!("apx_query_test_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cache = Cache::builder().dir(&dir).open();
        let lib = Library::fdsoi28();
        let engine = Engine::new(2);
        let config: OperatorConfig = "ACA(8,2)".parse().unwrap();
        let (first, lookup1) = cached_report(&lib, small().settings(), &config, &engine, &cache);
        let (second, lookup2) = cached_report(&lib, small().settings(), &config, &engine, &cache);
        assert_eq!(lookup1, Lookup::Computed);
        assert_eq!(lookup2, Lookup::Hit);
        assert_eq!(first.to_json().unwrap(), second.to_json().unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_names_are_user_facing_errors() {
        let lib = Library::fdsoi28();
        let engine = Engine::new(1);
        let params = small();
        let cache = Cache::default();
        let err =
            sweep_text(&lib, &params, "nope", None, Format::Tty, &engine, &cache).unwrap_err();
        assert!(err.contains("is not one of"), "{err}");
        let err = sweep_text(
            &lib,
            &params,
            "points",
            Some("nope"),
            Format::Tty,
            &engine,
            &cache,
        )
        .unwrap_err();
        assert!(err.contains("unknown workload"), "{err}");
        let err = pareto_text(
            &lib,
            &params,
            "fir",
            Some("points"),
            true,
            Format::Tty,
            &engine,
            &cache,
        )
        .unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        let err = resolve_workload(&params, "nope").unwrap_err();
        assert!(err.contains("see `apxperf list`"), "{err}");
    }
}
