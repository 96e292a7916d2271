//! The one shared argument parser behind every `apxperf` subcommand.
//!
//! Before the unified CLI, each of the twelve repro binaries hand-rolled
//! its own `--key value` loop with slightly different flag sets and help
//! text. This module replaces all of them: flags are declared once in
//! [`FLAGS`] with their defaults and help strings, every subcommand names
//! the subset it accepts, and both parsing and `--help` rendering are
//! derived from the same table — so usage output is consistent by
//! construction.

use apx_cache::Cache;
use apx_core::query::{parse_positive, parse_uint, QueryParams};
use apx_core::Engine;
use apx_engine::MAX_THREADS;
use std::path::PathBuf;

pub use apx_core::output::Format;

/// One declared flag: spelling, value placeholder (empty for boolean
/// switches), default shown in help, and help text.
#[derive(Debug, Clone, Copy)]
pub struct FlagSpec {
    /// Flag name without the leading `--`.
    pub name: &'static str,
    /// Placeholder for the value in usage text; `""` marks a boolean
    /// switch that takes no value.
    pub value: &'static str,
    /// Default rendered in help text.
    pub default: &'static str,
    /// One-line description.
    pub help: &'static str,
}

/// Every flag any subcommand accepts — the single source of truth for
/// parsing and help rendering.
pub const FLAGS: &[FlagSpec] = &[
    FlagSpec {
        name: "samples",
        value: "N",
        default: "100000",
        help: "error-characterization samples per operator",
    },
    FlagSpec {
        name: "vectors",
        value: "N",
        default: "1500",
        help: "gate-level power-estimation vectors per operator",
    },
    FlagSpec {
        name: "seed",
        value: "N",
        default: "0xDA7E2017",
        help: "master seed (decimal or 0x-hex); every number derives from it",
    },
    FlagSpec {
        name: "threads",
        value: "N",
        default: "auto",
        help: "engine workers; never changes any reported number, only the wall-clock",
    },
    FlagSpec {
        name: "size",
        value: "N",
        default: "128",
        help: "workload size where applicable (image edge length)",
    },
    FlagSpec {
        name: "sets",
        value: "N",
        default: "5",
        help: "K-means data sets",
    },
    FlagSpec {
        name: "points",
        value: "N",
        default: "500",
        help: "K-means points per set",
    },
    FlagSpec {
        name: "cache-dir",
        value: "PATH",
        default: "~/.cache/apxperf",
        help: "report-cache directory (also via APXPERF_CACHE_DIR)",
    },
    FlagSpec {
        name: "no-cache",
        value: "",
        default: "",
        help: "disable the report cache for this run",
    },
    FlagSpec {
        name: "cache-capacity",
        value: "BYTES",
        default: "off",
        help: "cap the cache dir: every write evicts LRU blobs down to this budget (K/M/G suffixes; also via APXPERF_CACHE_CAPACITY)",
    },
    FlagSpec {
        name: "max-bytes",
        value: "BYTES",
        default: "none",
        help: "cache gc: evict least-recently-used blobs until the dir is at most this size (K/M/G suffixes)",
    },
    FlagSpec {
        name: "format",
        value: "json|csv|tty",
        default: "tty",
        help: "output format for tables",
    },
    FlagSpec {
        name: "out",
        value: "PATH",
        default: "BENCH_baseline.json",
        help: "output file of the bench-baseline record",
    },
    FlagSpec {
        name: "family",
        value: "NAME",
        default: "adders",
        help: "operator family to sweep (see `apxperf list`)",
    },
    FlagSpec {
        name: "workload",
        value: "NAME",
        default: "off",
        help: "also score the named application workload over the swept configs",
    },
    FlagSpec {
        name: "all",
        value: "",
        default: "",
        help: "overlay every approximate family (adders + multipliers) at once",
    },
    FlagSpec {
        name: "budget",
        value: "EXPR",
        default: "none",
        help: "quality budget for tune: `>=30dB`, `<=1dB`, `>=95%` or `<=2%`",
    },
    FlagSpec {
        name: "families",
        value: "LIST",
        default: "points,sized",
        help: "comma-separated candidate families for tune (see `apxperf list`)",
    },
    FlagSpec {
        name: "sites",
        value: "",
        default: "",
        help: "list each workload's declared call-sites and op classes instead",
    },
    FlagSpec {
        name: "addr",
        value: "HOST:PORT",
        default: "127.0.0.1:8787",
        help: "serve: listen address (port 0 binds an ephemeral port)",
    },
    FlagSpec {
        name: "port-file",
        value: "PATH",
        default: "off",
        help: "serve: write the actual bound address to PATH once listening",
    },
    FlagSpec {
        name: "queue",
        value: "N",
        default: "32",
        help: "serve: bounded job-queue capacity for POST /sweep and /pareto",
    },
];

fn spec(name: &str) -> Option<&'static FlagSpec> {
    FLAGS.iter().find(|f| f.name == name)
}

/// Fully parsed arguments of one subcommand invocation.
#[derive(Debug, Clone)]
pub struct Args {
    /// `--samples`, `--vectors`, `--seed`, `--size`, `--sets` and
    /// `--points`: the same [`QueryParams`] the serve daemon resolves
    /// requests into, so CLI and server derive identical settings (and
    /// cache keys) from identical inputs.
    pub params: QueryParams,
    /// `--threads` (0 = auto: `APXPERF_THREADS` / machine parallelism).
    pub threads: usize,
    /// `--cache-dir`.
    pub cache_dir: Option<PathBuf>,
    /// `--no-cache`.
    pub no_cache: bool,
    /// `--cache-capacity` (`None` when uncapped).
    pub cache_capacity: Option<u64>,
    /// `--max-bytes` (`None` when not requested; `cache gc` requires it).
    pub max_bytes: Option<u64>,
    /// `--format`.
    pub format: Format,
    /// `--out`.
    pub out: String,
    /// `--family`.
    pub family: String,
    /// `--workload` (`None` when not requested).
    pub workload: Option<String>,
    /// `--all`.
    pub all: bool,
    /// `--budget` (`None` when not requested).
    pub budget: Option<String>,
    /// `--families` (`None` when not requested).
    pub families: Option<String>,
    /// `--sites`.
    pub sites: bool,
    /// `--addr` (the serve listen address).
    pub addr: String,
    /// `--port-file` (`None` when not requested).
    pub port_file: Option<PathBuf>,
    /// `--queue` (serve job-queue capacity).
    pub queue: usize,
    /// Positional (non-flag) arguments, in order.
    pub positional: Vec<String>,
    /// Names of the flags the user explicitly passed (lets commands
    /// distinguish "defaulted" from "deliberately set to the default").
    explicit: Vec<&'static str>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            params: QueryParams::default(),
            threads: 0,
            cache_dir: None,
            no_cache: false,
            cache_capacity: None,
            max_bytes: None,
            format: Format::Tty,
            out: "BENCH_baseline.json".to_owned(),
            family: "adders".to_owned(),
            workload: None,
            all: false,
            budget: None,
            families: None,
            sites: false,
            addr: "127.0.0.1:8787".to_owned(),
            port_file: None,
            queue: 32,
            positional: Vec::new(),
            explicit: Vec::new(),
        }
    }
}

/// A byte size: a plain integer (decimal or 0x-hex) with an optional
/// `K`/`M`/`G`/`T` suffix (powers of 1024, case-insensitive) — so cache
/// budgets read naturally: `--max-bytes 64M`.
fn parse_bytes(flag: &str, value: &str) -> Result<u64, String> {
    let (number, shift) = match value.chars().last().map(|c| c.to_ascii_uppercase()) {
        Some('K') => (&value[..value.len() - 1], 10),
        Some('M') => (&value[..value.len() - 1], 20),
        Some('G') => (&value[..value.len() - 1], 30),
        Some('T') => (&value[..value.len() - 1], 40),
        _ => (value, 0),
    };
    let base = parse_uint(flag, number)
        .map_err(|_| format!("{flag}: `{value}` is not a byte size (e.g. 1048576 or 64M)"))?;
    base.checked_shl(shift)
        .filter(|scaled| scaled >> shift == base)
        .ok_or_else(|| format!("{flag}: `{value}` overflows"))
}

/// `--threads`: at least 1 and at most [`MAX_THREADS`], beyond which
/// workers fail to spawn instead of running anything faster.
fn parse_threads(value: &str) -> Result<usize, String> {
    match parse_positive("--threads", value)? {
        n if n > MAX_THREADS as u64 => {
            Err(format!("--threads: must be at most {MAX_THREADS}, got {n}"))
        }
        n => Ok(n as usize),
    }
}

impl Args {
    /// Parses `argv` (everything after the subcommand name), accepting
    /// only the flags named in `accepted` plus up to `max_positional`
    /// positional arguments. Errors carry a user-facing message; callers
    /// append the subcommand usage.
    pub fn parse(
        argv: &[String],
        accepted: &[&str],
        max_positional: usize,
    ) -> Result<Args, String> {
        let mut args = Args::default();
        let mut iter = argv.iter();
        while let Some(token) = iter.next() {
            let Some(name) = token.strip_prefix("--") else {
                if args.positional.len() >= max_positional {
                    return Err(format!("unexpected argument `{token}`"));
                }
                args.positional.push(token.clone());
                continue;
            };
            let Some(known) = spec(name) else {
                return Err(format!("unknown flag --{name}"));
            };
            if !accepted.contains(&name) {
                return Err(format!("--{name} is not accepted by this subcommand"));
            }
            args.explicit.push(known.name);
            if name == "no-cache" {
                args.no_cache = true;
                continue;
            }
            if name == "all" {
                args.all = true;
                continue;
            }
            if name == "sites" {
                args.sites = true;
                continue;
            }
            let value = iter
                .next()
                .ok_or_else(|| format!("--{name} expects a value"))?;
            if args.params.set(name, value)? {
                continue;
            }
            let flag = format!("--{name}");
            match name {
                "threads" => args.threads = parse_threads(value)?,
                "cache-dir" => args.cache_dir = Some(PathBuf::from(value)),
                "cache-capacity" => args.cache_capacity = Some(parse_bytes(&flag, value)?),
                "max-bytes" => args.max_bytes = Some(parse_bytes(&flag, value)?),
                "format" => args.format = Format::parse(value)?,
                "out" => args.out = value.clone(),
                "family" => args.family = value.clone(),
                "workload" => args.workload = Some(value.clone()),
                "budget" => args.budget = Some(value.clone()),
                "families" => args.families = Some(value.clone()),
                "addr" => args.addr = value.clone(),
                "port-file" => args.port_file = Some(PathBuf::from(value)),
                "queue" => args.queue = parse_positive(&flag, value)? as usize,
                other => return Err(format!("unknown flag --{other}")),
            }
        }
        Ok(args)
    }

    /// Whether the user explicitly passed `--<name>` (as opposed to the
    /// value being the built-in default).
    #[must_use]
    pub fn was_set(&self, name: &str) -> bool {
        self.explicit.contains(&name)
    }

    /// `--family` when explicitly given, otherwise `default` — lets the
    /// `app` subcommand default to the small named-operating-points
    /// family while `sweep` keeps its historical `adders` default.
    #[must_use]
    pub fn family_or<'a>(&'a self, default: &'a str) -> &'a str {
        if self.was_set("family") {
            &self.family
        } else {
            default
        }
    }

    /// The execution engine: `--threads N` wins, otherwise
    /// `APXPERF_THREADS` / machine parallelism.
    #[must_use]
    pub fn engine(&self) -> Engine {
        match self.threads {
            0 => Engine::from_env(),
            n => Engine::new(n),
        }
    }

    /// The report cache: `--no-cache` disables it, `--cache-dir` pins the
    /// directory (otherwise `APXPERF_CACHE_DIR` / `~/.cache/apxperf`;
    /// disabled when no location can be derived), and `--cache-capacity`
    /// caps it at write time (otherwise `APXPERF_CACHE_CAPACITY`).
    #[must_use]
    pub fn cache(&self) -> Cache {
        if self.no_cache {
            return Cache::default();
        }
        let mut config = Cache::builder().from_env();
        if let Some(dir) = &self.cache_dir {
            config = config.dir(dir);
        }
        if let Some(capacity) = self.cache_capacity {
            config = config.capacity_bytes(capacity);
        }
        config.open()
    }
}

/// Renders the uniform usage text of one subcommand: name, summary,
/// positional arguments, and the accepted flags with their defaults —
/// always in [`FLAGS`] order, so every subcommand's help reads the same.
#[must_use]
pub fn usage(name: &str, summary: &str, positional: &str, accepted: &[&str]) -> String {
    let mut text = String::new();
    text.push_str(&format!("{summary}\n\nUsage: apxperf {name}"));
    if !positional.is_empty() {
        text.push_str(&format!(" {positional}"));
    }
    text.push_str(" [OPTIONS]\n\nOptions:\n");
    for flag in FLAGS.iter().filter(|f| accepted.contains(&f.name)) {
        let head = if flag.value.is_empty() {
            format!("  --{}", flag.name)
        } else {
            format!("  --{} <{}>", flag.name, flag.value)
        };
        let default = if flag.default.is_empty() {
            String::new()
        } else {
            format!(" [default: {}]", flag.default)
        };
        text.push_str(&format!("{head:<26}{}{default}\n", flag.help));
    }
    text.push_str("  --help                  print this help\n");
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: &[&str] = &[
        "samples",
        "vectors",
        "seed",
        "threads",
        "cache-dir",
        "no-cache",
        "format",
    ];

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn defaults_match_the_documented_values() {
        let args = Args::parse(&[], ALL, 0).unwrap();
        assert_eq!(args.params.samples, 100_000);
        assert_eq!(args.params.vectors, 1_500);
        assert_eq!(args.params.seed, None);
        assert_eq!(args.threads, 0);
        assert_eq!(args.format, Format::Tty);
        assert!(!args.no_cache);
        let settings = args.params.settings();
        assert_eq!(settings.error_samples, 100_000);
        assert_eq!(settings.seed, 0xDA7E_2017);
    }

    #[test]
    fn flags_parse_including_hex_seeds_and_switches() {
        let args = Args::parse(
            &argv(&[
                "--samples",
                "2000",
                "--seed",
                "0xBEEF",
                "--no-cache",
                "--format",
                "csv",
                "--threads",
                "4",
            ]),
            ALL,
            0,
        )
        .unwrap();
        assert_eq!(args.params.samples, 2000);
        assert_eq!(args.params.seed, Some(0xBEEF));
        assert!(args.no_cache);
        assert_eq!(args.format, Format::Csv);
        assert_eq!(args.engine().threads(), 4);
        assert!(!args.cache().is_enabled());
    }

    #[test]
    fn rejects_unknown_and_unaccepted_flags() {
        let err = Args::parse(&argv(&["--bogus", "1"]), ALL, 0).unwrap_err();
        assert!(err.contains("unknown flag"), "{err}");
        let err = Args::parse(&argv(&["--size", "64"]), ALL, 0).unwrap_err();
        assert!(err.contains("not accepted"), "{err}");
        let err = Args::parse(&argv(&["--samples"]), ALL, 0).unwrap_err();
        assert!(err.contains("expects a value"), "{err}");
        let err = Args::parse(&argv(&["--samples", "many"]), ALL, 0).unwrap_err();
        assert!(err.contains("not an integer"), "{err}");
        let err = Args::parse(&argv(&["--format", "xml"]), ALL, 0).unwrap_err();
        assert!(err.contains("json, csv or tty"), "{err}");
    }

    #[test]
    fn zero_engine_knobs_are_clean_errors_not_panics_or_fallthroughs() {
        // --threads 0 used to silently fall through to "auto"; now every
        // zero engine knob is rejected at parse time with a message
        for flag in ["threads", "samples", "vectors"] {
            let err = Args::parse(&argv(&[&format!("--{flag}"), "0"]), ALL, 0).unwrap_err();
            assert!(err.contains("at least 1"), "--{flag} 0: {err}");
        }
        // 1 stays valid, and the default threads=0 still means "auto"
        let args = Args::parse(&argv(&["--threads", "1"]), ALL, 0).unwrap();
        assert_eq!(args.engine().threads(), 1);
        assert_eq!(Args::parse(&[], ALL, 0).unwrap().threads, 0);
    }

    #[test]
    fn thread_counts_above_the_ceiling_are_errors() {
        let err = Args::parse(&argv(&["--threads", "100000"]), ALL, 0).unwrap_err();
        assert!(err.contains("at most"), "{err}");
        let args = Args::parse(&argv(&["--threads", &MAX_THREADS.to_string()]), ALL, 0).unwrap();
        assert_eq!(args.engine().threads(), MAX_THREADS);
    }

    #[test]
    fn all_switch_parses() {
        let args = Args::parse(&argv(&["--all"]), &["all"], 0).unwrap();
        assert!(args.all);
        assert!(args.was_set("all"));
        assert!(!Args::parse(&[], &["all"], 0).unwrap().all);
    }

    #[test]
    fn tune_flags_and_sites_switch_parse() {
        let args = Args::parse(
            &argv(&["--budget", ">=30dB", "--families", "points,sized"]),
            &["budget", "families"],
            0,
        )
        .unwrap();
        assert_eq!(args.budget.as_deref(), Some(">=30dB"));
        assert_eq!(args.families.as_deref(), Some("points,sized"));
        let defaulted = Args::parse(&[], &["budget", "families"], 0).unwrap();
        assert_eq!(defaulted.budget, None);
        assert_eq!(defaulted.families, None);
        let args = Args::parse(&argv(&["--sites"]), &["sites"], 0).unwrap();
        assert!(args.sites);
        assert!(!Args::parse(&[], &["sites"], 0).unwrap().sites);
    }

    #[test]
    fn positional_arguments_are_bounded() {
        let args = Args::parse(&argv(&["ACA(16,4)"]), ALL, 1).unwrap();
        assert_eq!(args.positional, vec!["ACA(16,4)".to_owned()]);
        let err = Args::parse(&argv(&["a", "b"]), ALL, 1).unwrap_err();
        assert!(err.contains("unexpected argument"), "{err}");
    }

    #[test]
    fn workload_flag_and_param_helpers() {
        let args = Args::parse(
            &argv(&["--workload", "fir", "--size", "64", "--family", "all"]),
            &["workload", "size", "family"],
            0,
        )
        .unwrap();
        assert_eq!(args.workload.as_deref(), Some("fir"));
        assert_eq!(args.family_or("points"), "all", "explicit --family wins");
        let params = args.params.workload_params();
        assert_eq!(params.size, 64);
        assert_eq!(params.sets, 5);
        let defaulted = Args::parse(&[], &["family"], 0).unwrap();
        assert_eq!(defaulted.workload, None);
        assert_eq!(defaulted.family_or("points"), "points");
    }

    #[test]
    fn cache_dir_flag_pins_the_directory() {
        let args = Args::parse(&argv(&["--cache-dir", "/tmp/apx"]), ALL, 0).unwrap();
        let cache = args.cache();
        assert!(cache.is_enabled());
        assert_eq!(cache.dir(), Some(std::path::Path::new("/tmp/apx")));
    }

    #[test]
    fn byte_size_flags_parse_with_suffixes() {
        let accepted = &["cache-capacity", "max-bytes"][..];
        let args = Args::parse(
            &argv(&["--cache-capacity", "64M", "--max-bytes", "1048576"]),
            accepted,
            0,
        )
        .unwrap();
        assert_eq!(args.cache_capacity, Some(64 << 20));
        assert_eq!(args.max_bytes, Some(1 << 20));
        let args = Args::parse(&argv(&["--max-bytes", "2g"]), accepted, 0).unwrap();
        assert_eq!(args.max_bytes, Some(2 << 30));
        let args = Args::parse(&argv(&["--max-bytes", "0x10K"]), accepted, 0).unwrap();
        assert_eq!(args.max_bytes, Some(16 << 10));
        let err = Args::parse(&argv(&["--max-bytes", "lots"]), accepted, 0).unwrap_err();
        assert!(err.contains("byte size"), "{err}");
        let err = Args::parse(&argv(&["--max-bytes", "99999999T"]), accepted, 0).unwrap_err();
        assert!(err.contains("overflows"), "{err}");
        // defaults: uncapped, no gc budget
        let defaulted = Args::parse(&[], accepted, 0).unwrap();
        assert_eq!(defaulted.cache_capacity, None);
        assert_eq!(defaulted.max_bytes, None);
    }

    #[test]
    fn usage_lists_exactly_the_accepted_flags() {
        let text = usage("demo", "Demo command.", "", &["samples", "no-cache"]);
        assert!(text.contains("--samples <N>"));
        assert!(text.contains("--no-cache"));
        assert!(text.contains("--help"));
        assert!(!text.contains("--vectors"));
        assert!(text.contains("Usage: apxperf demo [OPTIONS]"));
    }

    #[test]
    fn every_flag_spec_is_well_formed() {
        for flag in FLAGS {
            assert!(!flag.name.is_empty());
            assert!(!flag.help.is_empty());
            // switches have no default; valued flags document theirs
            assert_eq!(
                flag.value.is_empty(),
                flag.default.is_empty(),
                "{}",
                flag.name
            );
        }
    }
}
