//! End-to-end tests of the `apxperf` binary: the cache acceptance
//! contract (a warm `fig3` run prints identical numbers in a fraction of
//! the cold wall-clock), `--no-cache`, the `report`/`cache` utilities
//! and help-output consistency.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::time::{Duration, Instant};

/// The compiled `apxperf` binary under test.
fn apxperf() -> Command {
    Command::new(env!("CARGO_BIN_EXE_apxperf"))
}

fn run(args: &[&str]) -> Output {
    apxperf()
        .args(args)
        .output()
        .expect("apxperf binary must spawn")
}

fn stdout(output: &Output) -> String {
    String::from_utf8(output.stdout.clone()).expect("stdout is UTF-8")
}

/// A unique scratch directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("apxperf_cli_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        TempDir(dir)
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("temp path is UTF-8")
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

#[test]
fn fig3_second_run_hits_the_cache_and_is_identical_and_fast() {
    let dir = TempDir::new("fig3");
    let args = [
        "fig3",
        "--samples",
        "2000",
        "--vectors",
        "100",
        "--threads",
        "2",
        "--cache-dir",
        dir.path(),
    ];

    let cold_start = Instant::now();
    let cold = run(&args);
    let cold_time = cold_start.elapsed();
    assert!(cold.status.success(), "cold run failed: {cold:?}");

    // the cold run stored one blob per adder configuration, all in one
    // segment beside the run's stats record
    let blobs = apx_cache::Cache::builder().dir(&dir.0).open().stats().blobs;
    assert!(blobs > 90, "expected ~97 blobs, found {blobs}");
    let files = std::fs::read_dir(&dir.0)
        .expect("cache dir exists after the cold run")
        .count();
    assert_eq!(files, 2, "one segment and one stats record");

    let warm_start = Instant::now();
    let warm = run(&args);
    let warm_time = warm_start.elapsed();
    assert!(warm.status.success(), "warm run failed: {warm:?}");

    // identical numbers: stdout must match byte for byte
    assert_eq!(stdout(&cold), stdout(&warm));

    // and the warm run reports pure hits on stderr
    let warm_err = String::from_utf8(warm.stderr.clone()).unwrap();
    assert!(
        warm_err.contains("97 hits, 0 misses, 0 writes"),
        "unexpected warm stderr: {warm_err}"
    );

    // "a fraction of the cold wall-clock": generous 2x bound so slow or
    // noisy CI machines cannot flake — observed locally: >20x
    assert!(
        warm_time * 2 < cold_time,
        "warm run ({warm_time:?}) is not a fraction of the cold run ({cold_time:?})"
    );
    // sanity on the measurement itself: the cold run does real work
    assert!(
        cold_time > Duration::from_millis(10),
        "cold run suspiciously fast"
    );
}

#[test]
fn no_cache_runs_leave_no_blobs_and_print_the_same_numbers() {
    let dir = TempDir::new("nocache");
    let cached = run(&[
        "table1",
        "--samples",
        "1000",
        "--vectors",
        "50",
        "--cache-dir",
        dir.path(),
    ]);
    assert!(cached.status.success());
    let uncached = run(&[
        "table1",
        "--samples",
        "1000",
        "--vectors",
        "50",
        "--no-cache",
    ]);
    assert!(uncached.status.success());
    // the cache is transparent: identical stdout with and without it
    assert_eq!(stdout(&cached), stdout(&uncached));
    let no_cache_err = String::from_utf8(uncached.stderr.clone()).unwrap();
    assert!(
        !no_cache_err.contains("cache:"),
        "--no-cache must not report cache traffic: {no_cache_err}"
    );
}

#[test]
fn report_parses_paper_notation_and_emits_full_json() {
    let dir = TempDir::new("report");
    let output = run(&[
        "report",
        "ADDt(16,12)",
        "--samples",
        "1000",
        "--vectors",
        "50",
        "--cache-dir",
        dir.path(),
    ]);
    assert!(output.status.success(), "{output:?}");
    let text = stdout(&output);
    assert!(text.contains("\"name\": \"ADDt(16,12)\""), "{text}");
    assert!(text.contains("\"positional_ber\""), "{text}");
    assert!(text.contains("\"verified\": true"), "{text}");

    let bad = run(&["report", "FROB(16)"]);
    assert!(!bad.status.success());
    let err = String::from_utf8(bad.stderr.clone()).unwrap();
    assert!(err.contains("invalid operator"), "{err}");
}

#[test]
fn cache_subcommand_reports_and_clears() {
    let dir = TempDir::new("maint");
    let seeded = run(&[
        "report",
        "ACA(8,2)",
        "--samples",
        "500",
        "--vectors",
        "30",
        "--cache-dir",
        dir.path(),
    ]);
    assert!(seeded.status.success());
    let stats = run(&["cache", "stats", "--cache-dir", dir.path()]);
    assert!(stats.status.success());
    let text = stdout(&stats);
    assert!(text.contains("blobs:   1"), "{text}");
    assert!(text.contains(dir.path()), "{text}");
    let cleared = run(&["cache", "clear", "--cache-dir", dir.path()]);
    assert!(stdout(&cleared).contains("removed 1 blobs"));
    let restat = run(&["cache", "stats", "--cache-dir", dir.path()]);
    assert!(stdout(&restat).contains("blobs:   0"));
}

#[test]
fn every_subcommand_has_uniform_help() {
    let global = run(&["--help"]);
    assert!(global.status.success());
    let global_text = stdout(&global);
    for name in [
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "table1",
        "table2",
        "table3",
        "table4",
        "table5",
        "table6",
        "app",
        "pareto",
        "tune",
        "list",
        "ablations",
        "bench-baseline",
        "sweep",
        "report",
        "cache",
        "serve",
    ] {
        assert!(global_text.contains(name), "global help misses {name}");
        let help = run(&[name, "--help"]);
        assert!(help.status.success(), "{name} --help failed");
        let text = stdout(&help);
        assert!(
            text.contains(&format!("Usage: apxperf {name}")),
            "{name}: inconsistent usage line:\n{text}"
        );
        assert!(text.contains("--help"), "{name}: missing --help entry");
        // every characterizing command documents the same core knobs
        if !["cache", "list"].contains(&name) {
            assert!(
                text.contains("--samples <N>"),
                "{name}: missing --samples:\n{text}"
            );
            assert!(text.contains("--seed <N>"), "{name}: missing --seed");
        }
    }
    // unknown flags are rejected with the usage text, not silently eaten
    let bad = run(&["fig3", "--vektors", "5"]);
    assert_eq!(bad.status.code(), Some(2));
    let err = String::from_utf8(bad.stderr).unwrap();
    assert!(err.contains("unknown flag --vektors"), "{err}");
    assert!(err.contains("Usage: apxperf fig3"), "{err}");
}

#[test]
fn new_workloads_run_end_to_end_and_warm_app_sweeps_are_pure_hits() {
    // the acceptance contract of the workload registry: `apxperf app
    // {fir,sobel}` runs end-to-end, and a cached rerun is served
    // entirely from the app-sweep cells — byte-identical stdout, 0
    // misses — exactly like characterization sweeps.
    for (workload, extra) in [("fir", None), ("sobel", Some(["--size", "32"]))] {
        let dir = TempDir::new(&format!("app_{workload}"));
        let mut args = vec![
            "app",
            workload,
            "--samples",
            "1000",
            "--vectors",
            "50",
            "--cache-dir",
            dir.path(),
        ];
        if let Some(extra) = extra {
            args.extend(extra);
        }
        let cold = run(&args);
        assert!(
            cold.status.success(),
            "{workload} cold run failed: {cold:?}"
        );
        let warm = run(&args);
        assert!(
            warm.status.success(),
            "{workload} warm run failed: {warm:?}"
        );
        assert_eq!(
            stdout(&cold),
            stdout(&warm),
            "{workload}: cache not transparent"
        );
        let text = stdout(&warm);
        // the default family is the 9 named operating points of Tables III/V
        assert!(
            text.contains("over family `points` (9 configs)"),
            "{workload}: header:
{text}"
        );
        let warm_err = String::from_utf8(warm.stderr.clone()).unwrap();
        assert!(
            warm_err.contains("9 hits, 0 misses, 0 writes"),
            "{workload}: warm run must be pure cell hits: {warm_err}"
        );
    }
}

#[test]
fn pareto_overlay_flags_dominated_approx_configs_and_warms_to_pure_hits() {
    // the acceptance contract of the Pareto explorer: the overlay runs
    // end-to-end, at least one sized-exact config dominates an
    // approximate one, a warm rerun is served entirely from the cache
    // with byte-identical stdout, and `cache stats --format json`
    // exposes the warm run's counters machine-readably.
    let dir = TempDir::new("pareto");
    let args = [
        "pareto",
        "--workload",
        "fir",
        "--family",
        "points",
        "--samples",
        "1000",
        "--vectors",
        "50",
        "--cache-dir",
        dir.path(),
    ];
    let cold = run(&args);
    assert!(cold.status.success(), "cold pareto failed: {cold:?}");
    let text = stdout(&cold);
    assert!(
        text.contains("+ sized baseline"),
        "overlay header missing:\n{text}"
    );
    // an approximate row flagged as dominated by a sized-exact config:
    // role `approx`, dominated_by a Sized-family name
    let dominated_approx = text.lines().any(|line| {
        let dominated_by = line.split_whitespace().last().unwrap_or("-");
        line.contains(" approx ")
            && ["ADDst(", "ADDsr(", "MULst(", "MULsr(", "ADD(", "MUL("]
                .iter()
                .any(|sized| dominated_by.starts_with(sized))
    });
    assert!(
        dominated_approx,
        "no approximate config dominated by a sized-exact one:\n{text}"
    );
    assert!(
        text.contains("approximate configs dominated by the sized baseline"),
        "summary line missing:\n{text}"
    );

    let warm = run(&args);
    assert!(warm.status.success(), "warm pareto failed: {warm:?}");
    assert_eq!(
        stdout(&cold),
        stdout(&warm),
        "warm stdout must be byte-identical"
    );
    // pure-hit contract without pinning the overlay's config count (the
    // exact brittleness the CI jq assertions also avoid): no misses, no
    // writes, some hits
    let warm_err = String::from_utf8(warm.stderr.clone()).unwrap();
    assert!(
        warm_err.contains(" hits, 0 misses, 0 writes"),
        "warm pareto must be pure cell hits: {warm_err}"
    );
    assert!(
        !warm_err.contains("cache: 0 hits"),
        "warm pareto must actually hit: {warm_err}"
    );

    // the machine-readable stats the CI assertions jq: last_run reflects
    // the warm run's pure hits
    let stats = run(&[
        "cache",
        "stats",
        "--cache-dir",
        dir.path(),
        "--format",
        "json",
    ]);
    assert!(stats.status.success());
    let json = stdout(&stats);
    assert!(json.contains("\"last_run\""), "{json}");
    assert!(!json.contains("\"hits\": 0"), "{json}");
    assert!(json.contains("\"misses\": 0"), "{json}");
    assert!(json.contains("\"writes\": 0"), "{json}");
}

#[test]
fn pre_schema_bump_cache_dir_recomputes_and_last_run_records_the_miss() {
    // A cache dir populated before a REPORT_SCHEMA_VERSION bump must act
    // cold: the stale blob is a clean miss (different content address —
    // never a hit, never a collision), the run recomputes identical
    // bytes, and `cache stats --format json` `last_run` records the
    // recompute.
    use apx_core::cache::{library_fingerprint, report_cache_key, REPORT_SCHEMA_VERSION};
    use apx_core::query::QueryParams;

    let dir = TempDir::new("schema_bump");
    let args = [
        "report",
        "ACA(16,6)",
        "--samples",
        "2000",
        "--vectors",
        "100",
        "--cache-dir",
        dir.path(),
    ];
    let cold = run(&args);
    assert!(cold.status.success(), "cold report failed: {cold:?}");

    // Re-derive the blob's address exactly as the run did, then re-file
    // the blob under the address the *previous* schema version would
    // have used — a faithful stand-in for a warm pre-bump cache dir.
    let lib = apx_cells::Library::fdsoi28();
    let settings = QueryParams {
        samples: 2_000,
        vectors: 100,
        ..QueryParams::default()
    }
    .settings();
    let config = apx_operators::OperatorConfig::Aca { n: 16, p: 6 };
    let new_key = report_cache_key(&lib, &settings, &config);
    let old_key = apx_cache::KeyBuilder::new("apxperf-operator-report")
        .push_u64("report_schema", u64::from(REPORT_SCHEMA_VERSION - 1))
        .push_str("library", &library_fingerprint(&lib).hex())
        .push_u64("sharding", apx_engine::sharding_fingerprint())
        .push_json("settings", &settings)
        .push_json("config", &config)
        .finish();
    assert_ne!(old_key, new_key);
    let report: serde::Value = apx_cache::Cache::builder()
        .dir(&dir.0)
        .open()
        .get(&new_key)
        .expect("cold run must have written the blob under the new key");
    let dir = TempDir::new("schema_bump_stale");
    apx_cache::Cache::builder()
        .dir(&dir.0)
        .open()
        .put(&old_key, &report);
    let args = [&args[..args.len() - 1], &[dir.path()]].concat();

    let warm = run(&args);
    assert!(warm.status.success(), "post-bump report failed: {warm:?}");
    assert_eq!(stdout(&cold), stdout(&warm), "recompute must be identical");

    let stats = run(&[
        "cache",
        "stats",
        "--cache-dir",
        dir.path(),
        "--format",
        "json",
    ]);
    assert!(stats.status.success());
    let json = stdout(&stats);
    assert!(json.contains("\"last_run\""), "{json}");
    assert!(
        json.contains("\"hits\": 0"),
        "stale blob must not hit: {json}"
    );
    assert!(json.contains("\"misses\": 1"), "{json}");
    assert!(json.contains("\"writes\": 1"), "{json}");
}

/// `cache stats --format json` `last_run.{hits,misses,writes}` for `dir`.
fn last_run_counters(dir: &TempDir) -> (u64, u64, u64) {
    let stats = run(&[
        "cache",
        "stats",
        "--cache-dir",
        dir.path(),
        "--format",
        "json",
    ]);
    assert!(stats.status.success());
    let json: serde::Value = serde_json::from_str(&stdout(&stats)).expect("stats are JSON");
    let field = |object: &serde::Value, name: &str| -> serde::Value {
        object
            .as_object()
            .and_then(|fields| fields.iter().find(|(key, _)| key == name))
            .map(|(_, value)| value.clone())
            .unwrap_or_else(|| panic!("no `{name}` in {json:?}"))
    };
    let last_run = field(&json, "last_run");
    let count = |name: &str| match field(&last_run, name) {
        serde::Value::UInt(n) => n as u64,
        other => panic!("`last_run.{name}` is not a count: {other:?}"),
    };
    (count("hits"), count("misses"), count("writes"))
}

#[test]
fn cold_cache_traffic_and_stdout_are_independent_of_the_thread_count() {
    // parallel cells share sized-partner reports; identical reads
    // coalesce in the cache, so a cold run computes each report once and
    // its counters are a function of the command alone
    let commands: [&[&str]; 2] = [
        &[
            "pareto",
            "--workload",
            "kmeans",
            "--all",
            "--sets",
            "1",
            "--points",
            "100",
        ],
        &["tune", "--workload", "fft", "--budget", "<=1dB"],
    ];
    for command in commands {
        let runs: Vec<(String, (u64, u64, u64))> = ["1", "2", "8"]
            .iter()
            .map(|threads| {
                let dir = TempDir::new(&format!("threads_{}_{threads}", command[0]));
                let mut args = command.to_vec();
                args.extend([
                    "--samples",
                    "2000",
                    "--vectors",
                    "50",
                    "--threads",
                    threads,
                    "--cache-dir",
                    dir.path(),
                ]);
                let cold = run(&args);
                assert!(cold.status.success(), "{args:?} failed: {cold:?}");
                (stdout(&cold), last_run_counters(&dir))
            })
            .collect();
        for (threads, (text, counters)) in ["2", "8"].iter().zip(&runs[1..]) {
            assert_eq!(
                text, &runs[0].0,
                "{} stdout differs at --threads {threads}",
                command[0]
            );
            assert_eq!(
                counters, &runs[0].1,
                "{} cold (hits, misses, writes) differ at --threads {threads}",
                command[0]
            );
        }
    }
}

#[test]
fn invalid_engine_knobs_are_usage_errors() {
    // --threads 0 used to fall through silently to "auto"; all zero
    // engine knobs are now rejected at the door, like the invalid
    // --size/--sets workload parameters below
    for flag in ["--threads", "--samples", "--vectors"] {
        let bad = run(&["fig3", flag, "0"]);
        assert_eq!(bad.status.code(), Some(2), "{flag} 0 must be a usage error");
        let err = String::from_utf8(bad.stderr).unwrap();
        assert!(err.contains("at least 1"), "{flag}: {err}");
        assert!(err.contains("Usage: apxperf fig3"), "{flag}: {err}");
    }
    // the existing workload-parameter rejections stay runtime errors
    // with user-facing messages (constructor constraints, exit code 1)
    let bad_size = run(&[
        "app",
        "jpeg",
        "--size",
        "30",
        "--samples",
        "500",
        "--no-cache",
    ]);
    assert!(!bad_size.status.success());
    let err = String::from_utf8(bad_size.stderr).unwrap();
    assert!(err.contains("multiple of 8"), "{err}");
}

#[test]
fn list_names_every_registered_workload_and_family() {
    let output = run(&["list"]);
    assert!(output.status.success());
    let text = stdout(&output);
    for name in ["fft", "jpeg", "hevc", "kmeans", "fir", "sobel"] {
        assert!(
            text.contains(name),
            "workload {name} missing:
{text}"
        );
    }
    for name in ["adders", "multipliers", "widths", "points", "all"] {
        assert!(
            text.contains(name),
            "family {name} missing:
{text}"
        );
    }
}

#[test]
fn list_sites_prints_every_workloads_call_sites() {
    let output = run(&["list", "--sites"]);
    assert!(output.status.success());
    let text = stdout(&output);
    for site in [
        "fft.twiddle",
        "fft.butterfly",
        "fir.mac",
        "sobel.grad",
        "sobel.mag",
        "kmeans.dist_diff",
        "kmeans.dist_acc",
        "hevc.mc_h",
        "hevc.mc_v",
        "jpeg.dct_row",
        "jpeg.dct_col",
    ] {
        assert!(text.contains(site), "site {site} missing:\n{text}");
    }
    assert!(text.contains("add+mul"), "op-class labels missing:\n{text}");
}

#[test]
fn tune_finds_a_budget_meeting_assignment_and_warms_to_pure_hits() {
    // the acceptance contract of the tuner: `apxperf tune` returns a
    // per-site assignment whose energy is <= the best uniform config
    // meeting the same budget, deterministically across thread counts,
    // and a warm rerun is served entirely from the hetero-cell cache.
    let dir = TempDir::new("tune");
    let base = [
        "tune",
        "--workload",
        "fir",
        "--budget",
        ">=30dB",
        "--samples",
        "1000",
        "--vectors",
        "50",
        "--cache-dir",
        dir.path(),
    ];
    let mut serial = base.to_vec();
    serial.extend(["--threads", "1"]);
    let mut threaded = base.to_vec();
    threaded.extend(["--threads", "4"]);

    let cold = run(&serial);
    assert!(cold.status.success(), "cold tune failed: {cold:?}");
    let text = stdout(&cold);
    assert!(
        text.contains("fir.mac"),
        "assignment table missing:\n{text}"
    );
    assert!(text.contains("best_uniform"), "summary missing:\n{text}");

    // the winning energy never exceeds the best uniform baseline
    let field = |name: &str| -> f64 {
        text.lines()
            .find(|l| l.contains(name))
            .unwrap_or_else(|| panic!("{name} missing:\n{text}"))
            .split_whitespace()
            .last()
            .unwrap()
            .parse()
            .unwrap_or_else(|_| panic!("{name} is not a number:\n{text}"))
    };
    assert!(
        field("energy_pj") <= field("best_uniform_energy_pj"),
        "tuned assignment must not cost more than the best uniform:\n{text}"
    );

    // deterministic across thread counts: byte-identical stdout
    let other = run(&threaded);
    assert!(other.status.success(), "threaded tune failed: {other:?}");
    assert_eq!(
        stdout(&cold),
        stdout(&other),
        "tune must be bit-identical for any thread count"
    );

    // the threaded rerun was warm: pure hits, no misses, no writes
    let warm_err = String::from_utf8(other.stderr.clone()).unwrap();
    assert!(
        warm_err.contains(" hits, 0 misses, 0 writes"),
        "warm tune must be pure cell hits: {warm_err}"
    );
    assert!(
        !warm_err.contains("cache: 0 hits"),
        "warm tune must actually hit: {warm_err}"
    );

    // a mismatched budget unit is a user-facing error
    let bad = run(&[
        "tune",
        "--workload",
        "kmeans",
        "--budget",
        ">=30dB",
        "--samples",
        "500",
        "--sets",
        "1",
        "--points",
        "20",
        "--no-cache",
    ]);
    assert!(!bad.status.success());
    let err = String::from_utf8(bad.stderr).unwrap();
    assert!(err.contains("dB"), "{err}");
}

#[test]
fn sweep_workload_scores_a_family_with_the_unified_columns() {
    let output = run(&[
        "sweep",
        "--family",
        "multipliers",
        "--workload",
        "fft",
        "--samples",
        "1000",
        "--vectors",
        "50",
        "--no-cache",
        "--format",
        "csv",
    ]);
    assert!(output.status.success(), "{output:?}");
    let text = stdout(&output);
    let header = text
        .lines()
        .find(|l| l.starts_with("operator,"))
        .expect("csv header");
    assert_eq!(
        header,
        "operator,family,metric,score,degradation,E_add_fJ,E_mul_fJ,E_app_pJ"
    );
    assert!(text.contains("PSNR_dB"), "{text}");
    assert!(text.contains("\"MULt(16,16)\""), "{text}");
}

#[test]
fn format_switch_produces_csv_and_json() {
    let csv = run(&[
        "sweep",
        "--family",
        "multipliers",
        "--samples",
        "500",
        "--vectors",
        "30",
        "--no-cache",
        "--format",
        "csv",
    ]);
    assert!(csv.status.success());
    let text = stdout(&csv);
    let first = text.lines().next().unwrap();
    assert!(first.starts_with("family,name,verified"), "{first}");
    assert!(
        text.contains("\"MULt(16,16)\""),
        "quoted comma cell: {text}"
    );

    let json = run(&[
        "sweep",
        "--family",
        "multipliers",
        "--samples",
        "500",
        "--vectors",
        "30",
        "--no-cache",
        "--format",
        "json",
    ]);
    assert!(json.status.success());
    let text = stdout(&json);
    assert!(text.trim_start().starts_with('['), "{text}");
    assert!(text.contains("\"name\": \"MULt(16,16)\""), "{text}");
}
