//! `repro_cold`: the cold paper reproduction, run through the `apxperf`
//! subcommands a user runs against a fresh cache directory — `fig3` to
//! `fig6`, `table1` to `table6`, `tune --workload fft --budget <=1dB`,
//! and `pareto --all` for jpeg, hevc and kmeans. The application layer
//! holds most of the time; characterization is a small share.
//!
//! The K-means steps run at `--sets 1 --points 200` and the image steps
//! at `--size 64`: at the CLI defaults one sequence takes about 47 s on
//! a 2-vCPU host (26 s of it in `pareto --workload kmeans`), too long to
//! repeat within one run. Every step is still the user's command.
//!
//! The sequence is the paper reproduction at fixed inputs: the CLI's
//! default seed and the order above, whatever the benchmark seed. With
//! `--seed` set from the benchmark seed, K-means data and the `tune`
//! search path changed, and with them the amount of work (CPU seconds
//! per sequence spread 32 % over ten seeds); a seed-permuted step order
//! still spread 19 %.
//!
//! A run repeats the whole cold sequence, each time in a fresh cache
//! directory, and reports the median CPU seconds of a sequence, its
//! `apxperf` children included. After the last sequence an untimed warm
//! rerun must print byte-identical stdout with no cache misses. The
//! traced run replays the same steps in-process through
//! [`crate::mirror`]; a warm CLI rerun over the replay's cache must then
//! print the cold run's exact bytes.

use crate::characterize::params;
use crate::layers::{self, CacheCounts, LayerInputs};
use crate::{least_disturbed, mirror, sys, timed_setups, trace};
use crate::{EndToEnd, RunConfig, RunResult, Scale};
use apx_cache::{Cache, RecordKind};
use apx_cells::Library;
use apx_core::output::Format;
use apx_core::query::{self, QueryParams};
use apx_core::sweeps;
use apx_engine::Engine;
use apx_metrics::QualityBudget;
use apx_operators::{FaType, OperatorConfig};
use std::collections::BTreeMap;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// A step that takes longer than this is killed and counts as failed.
const STEP_TIMEOUT: Duration = Duration::from_secs(60);

/// What the traced replay computes for a step.
#[derive(Debug, Clone, Copy)]
enum Replay {
    /// Operator reports of a config list (`fig3`, `fig4`, `table1`).
    Reports(fn() -> Vec<OperatorConfig>),
    /// Workload cells of a config list (`fig5`, `fig6`, `table2`–`table6`).
    Cells(&'static str, fn() -> Vec<OperatorConfig>),
    /// `tune --workload fft --budget <=1dB` over `points,sized`.
    Tune,
    /// `pareto --workload <W> --all`.
    Pareto(&'static str),
}

/// One `apxperf` invocation of the sequence.
#[derive(Debug, Clone)]
pub struct Step {
    /// Subcommand and its own flags.
    pub args: Vec<String>,
    /// The query parameters those flags select.
    params: QueryParams,
    replay: Replay,
}

fn table3_configs() -> Vec<OperatorConfig> {
    vec![
        OperatorConfig::AddTrunc { n: 16, q: 10 },
        OperatorConfig::Aca { n: 16, p: 12 },
        OperatorConfig::EtaIv { n: 16, x: 4 },
        OperatorConfig::RcaApx {
            n: 16,
            m: 6,
            fa_type: FaType::Three,
        },
    ]
}

fn table5_configs() -> Vec<OperatorConfig> {
    let mut configs = table3_configs();
    configs[0] = OperatorConfig::AddTrunc { n: 16, q: 11 };
    configs.extend([
        OperatorConfig::AddTrunc { n: 16, q: 8 },
        OperatorConfig::Aca { n: 16, p: 8 },
        OperatorConfig::EtaIv { n: 16, x: 2 },
        OperatorConfig::RcaApx {
            n: 16,
            m: 10,
            fa_type: FaType::One,
        },
    ]);
    configs
}

fn table6_configs() -> Vec<OperatorConfig> {
    let mut configs = sweeps::multipliers_16bit();
    configs.push(OperatorConfig::MulTrunc { n: 16, q: 4 });
    configs
}

/// The `pareto --all` overlay: every `all` config plus the sized
/// baseline, first occurrence kept.
fn overlay_configs() -> Vec<OperatorConfig> {
    let mut configs = (sweeps::find_family("all").expect("registered").configs)();
    configs.extend(sweeps::sized_baseline_16bit());
    let mut seen = Vec::new();
    configs.retain(|c| {
        let fresh = !seen.contains(c);
        if fresh {
            seen.push(*c);
        }
        fresh
    });
    configs
}

fn tune_candidates() -> Vec<OperatorConfig> {
    ["points", "sized"]
        .iter()
        .flat_map(|name| (sweeps::find_family(name).expect("registered").configs)())
        .collect()
}

/// The command sequence at `scale`.
#[must_use]
pub fn steps(scale: Scale) -> Vec<Step> {
    let base = params(scale);
    let (size, sets, points) = match scale {
        Scale::Full => (64, 1, 200),
        Scale::Tiny => (32, 1, 20),
    };
    let mut common: Vec<String> = Vec::new();
    if scale == Scale::Tiny {
        common.extend(["--samples", "500", "--vectors", "20"].map(String::from));
    }
    let image = QueryParams { size, ..base };
    let kmeans = QueryParams {
        sets,
        points,
        ..base
    };
    let image_flags = vec!["--size".to_owned(), size.to_string()];
    let kmeans_flags = vec![
        "--sets".to_owned(),
        sets.to_string(),
        "--points".to_owned(),
        points.to_string(),
    ];
    let step = |words: &[&str], flags: &[String], params: QueryParams, replay: Replay| {
        let mut args: Vec<String> = words.iter().map(|w| (*w).to_owned()).collect();
        args.extend(flags.iter().cloned());
        args.extend(common.iter().cloned());
        Step {
            args,
            params,
            replay,
        }
    };
    let adders = sweeps::all_adders_16bit as fn() -> Vec<OperatorConfig>;
    let mults = sweeps::multipliers_16bit as fn() -> Vec<OperatorConfig>;
    vec![
        step(&["fig3"], &[], base, Replay::Reports(adders)),
        step(&["fig4"], &[], base, Replay::Reports(adders)),
        step(&["fig5"], &[], base, Replay::Cells("fft", adders)),
        step(
            &["fig6"],
            &image_flags,
            image,
            Replay::Cells("jpeg", adders),
        ),
        step(&["table1"], &[], base, Replay::Reports(mults)),
        step(&["table2"], &[], base, Replay::Cells("fft", mults)),
        step(
            &["table3"],
            &image_flags,
            image,
            Replay::Cells("hevc", table3_configs),
        ),
        step(
            &["table4"],
            &image_flags,
            image,
            Replay::Cells("hevc", mults),
        ),
        step(
            &["table5"],
            &kmeans_flags,
            kmeans,
            Replay::Cells("kmeans", table5_configs),
        ),
        step(
            &["table6"],
            &kmeans_flags,
            kmeans,
            Replay::Cells("kmeans", table6_configs),
        ),
        step(
            &["tune", "--workload", "fft", "--budget", "<=1dB"],
            &[],
            base,
            Replay::Tune,
        ),
        step(
            &["pareto", "--workload", "jpeg", "--all"],
            &image_flags,
            image,
            Replay::Pareto("jpeg"),
        ),
        step(
            &["pareto", "--workload", "hevc", "--all"],
            &image_flags,
            image,
            Replay::Pareto("hevc"),
        ),
        step(
            &["pareto", "--workload", "kmeans", "--all"],
            &kmeans_flags,
            kmeans,
            Replay::Pareto("kmeans"),
        ),
    ]
}

/// One finished `apxperf` invocation.
#[derive(Debug, Clone)]
pub struct StepRun {
    /// Wall-clock, seconds.
    pub wall_s: f64,
    /// Whether it exited 0 within the timeout.
    pub exited_ok: bool,
    /// Its stdout.
    pub stdout: Vec<u8>,
    /// Its stderr.
    pub stderr: String,
}

/// Runs `<exe> cli <args> --cache-dir <dir> --threads <n>`, capturing
/// output through files so a full pipe never stalls it.
fn run_step(config: &RunConfig, step: &Step, dir: &Path, tag: &str) -> StepRun {
    let out_path = config.work_dir.join(format!("{tag}.stdout"));
    let err_path = config.work_dir.join(format!("{tag}.stderr"));
    let started = Instant::now();
    let spawned = File::create(&out_path)
        .and_then(|out| Ok((out, File::create(&err_path)?)))
        .and_then(|(out, err)| {
            Command::new(&config.exe)
                .arg("cli")
                .args(&step.args)
                .arg("--cache-dir")
                .arg(dir)
                .args(["--threads", &config.threads.to_string()])
                .stdin(Stdio::null())
                .stdout(out)
                .stderr(err)
                .spawn()
        });
    let mut exited_ok = false;
    if let Ok(mut child) = spawned {
        loop {
            match child.try_wait() {
                Ok(Some(status)) => {
                    exited_ok = status.success();
                    break;
                }
                Ok(None) if started.elapsed() < STEP_TIMEOUT => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                _ => {
                    child.kill().ok();
                    child.wait().ok();
                    break;
                }
            }
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    StepRun {
        wall_s,
        exited_ok,
        stdout: std::fs::read(&out_path).unwrap_or_default(),
        stderr: std::fs::read_to_string(&err_path).unwrap_or_default(),
    }
}

/// The misses a CLI run reported on stderr (`cache: N hits, M misses,
/// W writes`), or `None` when it printed no cache line.
#[must_use]
pub fn reported_misses(stderr: &str) -> Option<u64> {
    let line = stderr.lines().find(|l| l.starts_with("cache: "))?;
    let misses = line.split(", ").nth(1)?.strip_suffix(" misses")?;
    misses.parse().ok()
}

/// The warm-rerun check of one step: byte-identical stdout and a pure
/// cache hit.
#[must_use]
pub fn warm_matches(cold: &StepRun, warm: &StepRun) -> bool {
    warm.exited_ok && warm.stdout == cold.stdout && reported_misses(&warm.stderr) == Some(0)
}

/// Every blob of a cache directory: file name → bytes.
fn blobs(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if apx_cache::classify(&path) == RecordKind::Blob {
            if let Ok(bytes) = std::fs::read(&path) {
                out.insert(entry.file_name().to_string_lossy().into_owned(), bytes);
            }
        }
    }
    out
}

/// Runs the whole sequence cold in `dir`.
fn cold_sequence(config: &RunConfig, steps: &[Step], dir: &Path, k: usize) -> Vec<StepRun> {
    steps
        .iter()
        .enumerate()
        .map(|(i, step)| run_step(config, step, dir, &format!("cold-{k}-{i}")))
        .collect()
}

/// Replays one step in-process with spans around every layer call.
fn replay_step(step: &Step, lib: &Library, engine: &Engine, cache: &Cache) -> Result<(), String> {
    let params = step.params;
    let settings = params.settings();
    match step.replay {
        Replay::Reports(configs) => {
            let _ = mirror::characterize_all(lib, settings, &configs(), engine, cache);
        }
        Replay::Cells(name, configs) => {
            let (workload, wseed) = query::resolve_workload(&params, name)?;
            let _ = mirror::sweep_workload(
                workload.as_ref(),
                wseed,
                lib,
                settings,
                &configs(),
                engine,
                cache,
            );
        }
        Replay::Tune => {
            let (workload, wseed) = query::resolve_workload(&params, "fft")?;
            let budget: QualityBudget = "<=1dB".parse()?;
            let _span = trace::span("core.tune");
            apx_core::tune::tune(
                workload.as_ref(),
                wseed,
                lib,
                settings,
                budget,
                &tune_candidates(),
                engine,
                cache,
            )?;
        }
        Replay::Pareto(name) => {
            let (workload, wseed) = query::resolve_workload(&params, name)?;
            let _ = mirror::sweep_workload(
                workload.as_ref(),
                wseed,
                lib,
                settings,
                &overlay_configs(),
                engine,
                cache,
            );
            let _span = trace::span("core.pareto");
            query::pareto_text(lib, &params, name, None, true, Format::Tty, engine, cache)?;
        }
    }
    Ok(())
}

/// Opens the cache of `dir` the way the CLI does for `--cache-dir`.
fn open_cache(dir: &Path) -> Cache {
    Cache::builder().dir(dir).open()
}

/// Runs the workload.
///
/// # Errors
/// An unusable scratch directory.
pub fn run(config: &RunConfig) -> Result<RunResult, String> {
    let steps = steps(config.scale);
    let fresh_dir = |tag: String| -> Result<PathBuf, String> {
        let dir = config.work_dir.join(tag);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(dir)
    };
    // set-up: a fresh cache directory, inspected by the CLI — the first
    // touch of the binary and of the store
    let mut k = 0;
    let (setup_s, ok) = timed_setups(
        5,
        1.5,
        || {
            k += 1;
            let dir = fresh_dir(format!("setup-{k}"))?;
            let ok = Command::new(&config.exe)
                .args(["cli", "cache", "stats", "--cache-dir"])
                .arg(&dir)
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .status()
                .is_ok_and(|s| s.success());
            std::fs::remove_dir_all(&dir).ok();
            Ok::<bool, String>(ok)
        },
        drop,
    );
    if !ok? {
        return Err(format!("`{} cli cache stats` failed", config.exe.display()));
    }
    let mut result = RunResult::default();

    let started = Instant::now();
    let mut sequences: Vec<Vec<StepRun>> = Vec::new();
    let mut last_dir = PathBuf::new();
    let lib = Library::fdsoi28();
    let engine = Engine::new(config.threads);
    let mut spans = Vec::new();
    let (mut untraced_wall, mut traced_wall, mut cpu) = (0.0, 0.0, 0.0);
    let mut cache_counts = CacheCounts::default();
    let mut sequence_cpu = Vec::new();
    let steal = sys::steal_seconds();
    while config.keep_going(started, sequences.len()) {
        let k = sequences.len();
        if k > 0 {
            std::fs::remove_dir_all(&last_dir).ok();
        }
        last_dir = fresh_dir(format!("cold-{k}"))?;
        let cpu_before = sys::cpu_seconds_total();
        let runs = cold_sequence(config, &steps, &last_dir, k);
        sequence_cpu.push(sys::cpu_seconds_total() - cpu_before);
        cpu += sequence_cpu[k];
        untraced_wall += runs.iter().map(|r| r.wall_s).sum::<f64>();
        if config.trace {
            let replay_dir = fresh_dir(format!("replay-{k}"))?;
            let cache = open_cache(&replay_dir);
            let before = cache.stats();
            trace::set_enabled(true);
            let replay_started = Instant::now();
            {
                let _root = trace::span("bench.run");
                for (i, step) in steps.iter().enumerate() {
                    let _step = trace::request_span("bench.step", i as u64 + 1);
                    if let Err(e) = replay_step(step, &lib, &engine, &cache) {
                        result.fail_check(format!("replay of `{}`: {e}", step.args.join(" ")));
                    }
                }
            }
            traced_wall += replay_started.elapsed().as_secs_f64();
            trace::set_enabled(false);
            spans.extend(trace::take());
            let counts = CacheCounts::delta(before, cache.stats());
            cache_counts.hits += counts.hits;
            cache_counts.misses += counts.misses;
            cache_counts.puts += counts.puts;
            cache_counts.put_bytes += counts.put_bytes;
            if blobs(&replay_dir) != blobs(&last_dir) {
                result.fail_check(format!(
                    "sequence {k}: replay cache blobs differ from the CLI's"
                ));
            }
            for (i, (step, cold)) in steps.iter().zip(&runs).enumerate() {
                let warm = run_step(config, step, &replay_dir, &format!("replay-{k}-{i}"));
                if !warm_matches(cold, &warm) {
                    result.fail_check(format!(
                        "sequence {k}: `{}` over the replay's cache differs from the cold run",
                        step.args.join(" ")
                    ));
                }
            }
            std::fs::remove_dir_all(&replay_dir).ok();
        }
        sequences.push(runs);
    }

    // outcomes: every step exits 0 and prints what the first sequence
    // printed; the last sequence's steps must also rerun warm to the
    // same bytes with no misses
    let last = sequences.len() - 1;
    for (k, runs) in sequences.iter().enumerate() {
        for (i, run) in runs.iter().enumerate() {
            let mut ok = run.exited_ok && run.stdout == sequences[0][i].stdout;
            if k == last {
                let warm = run_step(config, &steps[i], &last_dir, &format!("warm-{i}"));
                ok &= warm_matches(run, &warm);
            }
            result.tally.record(ok);
        }
    }
    let store_bytes = open_cache(&last_dir).stats().bytes;

    if config.trace {
        print!("{}", layers::where_the_time_goes(&spans));
        let inputs = LayerInputs {
            cache: cache_counts,
            threads: engine.threads(),
            utilization: cpu / (untraced_wall * engine.threads() as f64),
            overhead_ratio: traced_wall / untraced_wall,
            ..LayerInputs::default()
        };
        layers::record(&mut result, &spans, &inputs);
    }
    println!(
        "repro_cold: {} sequences of {} steps, store of the last {store_bytes} bytes",
        sequences.len(),
        steps.len(),
    );
    if !config.trace {
        // a request is one command and a unit one cold sequence
        result.end_to_end(&EndToEnd {
            setup_s,
            wall_s: least_disturbed(
                &sequences
                    .iter()
                    .map(|s| s.iter().map(|r| r.wall_s).collect())
                    .collect::<Vec<_>>(),
            ),
            unit_cpu_s: sequence_cpu,
            unit_wall_s: sequences
                .iter()
                .map(|s| s.iter().map(|r| r.wall_s).sum())
                .collect(),
            requests: sequences.len() * steps.len(),
            latencies: sequences.iter().flatten().map(|r| r.wall_s).collect(),
            peak_rss_mb: sequences
                .iter()
                .flatten()
                .filter_map(|r| sys::reported_peak_rss_kib(&r.stderr))
                .max()
                .unwrap_or(0) as f64
                / 1024.0,
            steal_s: sys::steal_seconds() - steal,
            vcpus: config.threads,
        });
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_with(stdout: &str, stderr: &str) -> StepRun {
        StepRun {
            wall_s: 0.1,
            exited_ok: true,
            stdout: stdout.as_bytes().to_vec(),
            stderr: stderr.to_owned(),
        }
    }

    #[test]
    fn warm_rerun_must_repeat_the_bytes_and_miss_nothing() {
        let cold = run_with("TABLE\n", "cache: 0 hits, 9 misses, 9 writes (d)\n");
        let warm = run_with("TABLE\n", "cache: 9 hits, 0 misses, 0 writes (d)\n");
        assert!(warm_matches(&cold, &warm));
        assert!(!warm_matches(&cold, &run_with("TABLE!\n", &warm.stderr)));
        assert!(!warm_matches(
            &cold,
            &run_with("TABLE\n", "cache: 8 hits, 1 misses, 1 writes (d)\n")
        ));
        assert!(!warm_matches(&cold, &run_with("TABLE\n", "")));
    }

    #[test]
    fn the_sequence_has_the_fourteen_steps() {
        let steps = steps(Scale::Full);
        assert_eq!(steps.len(), 14);
        assert_eq!(overlay_configs().len(), 101 + 50 - 1);
    }
}
