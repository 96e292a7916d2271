//! The benchmark command:
//!
//! ```text
//! apx_perfbench --workload <characterize|repro_cold|serve_warm> --seed <N>
//!               --seconds <S> --trace <0|1> [--scale tiny]
//! ```
//!
//! prints its findings and, as the last stdout line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Invoked as
//! `apx_perfbench cli <ARGS>` it is the `apxperf` CLI itself
//! (`apx_cli::run`), which the `repro_cold` workload drives as a
//! subprocess; it then reports its peak memory on stderr.

use apx_perfbench::{run_workload, sys, RunConfig, Scale};
use std::path::PathBuf;

const USAGE: &str = "usage: apx_perfbench --workload <characterize|repro_cold|serve_warm> \
                     --seed <N> --seconds <S> --trace <0|1> [--scale full|tiny]";

fn parse(argv: &[String]) -> Result<(String, RunConfig), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Full;
    let mut rest = argv.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                });
            }
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err("--scale takes full or tiny".to_owned()),
                };
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let exe =
        std::env::current_exe().map_err(|e| format!("cannot locate the benchmark binary: {e}"))?;
    let work_dir = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
    Ok((
        workload,
        RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            scale,
            threads,
            exe,
            work_dir,
        },
    ))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("cli") {
        let code = apx_cli::run(&argv[1..]);
        if let Some(kib) = sys::peak_rss_kib() {
            eprintln!("{}{kib}", sys::PEAK_RSS_LINE);
        }
        std::process::exit(code);
    }
    let (workload, config) = match parse(&argv) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "workload {workload}, seed {}, {} s, trace {}, {} engine threads",
        config.seed,
        config.seconds,
        u8::from(config.trace),
        config.threads
    );
    match run_workload(&workload, &config) {
        Ok(result) => {
            for failure in &result.check_failures {
                eprintln!("check failed: {failure}");
            }
            println!("{}", result.json_line());
        }
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(1);
        }
    }
}
