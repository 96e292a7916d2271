//! The unified `apxperf` command-line interface.
//!
//! One binary subsumes the twelve former per-figure/per-table repro
//! binaries as subcommands — `apxperf fig3`, `apxperf table1 --samples
//! 20000`, `apxperf sweep --family adders`, `apxperf report
//! "ACA(16,4)"` — on top of two shared facilities:
//!
//! * **one argument parser** ([`args`]): every flag is declared once
//!   with its default and help text, each subcommand names the subset it
//!   accepts, and `--help` output is rendered from the same table, so
//!   usage is consistent across all entry points by construction;
//! * **the content-addressed report cache** (`apx_cache`, wired through
//!   `apx_core`): an already-characterized operator configuration costs
//!   a blob lookup instead of a 100k-sample sweep. `--cache-dir PATH`
//!   pins the store, `--no-cache` disables it, and stale results
//!   invalidate automatically because every key hashes the operator
//!   config, the characterizer settings, the cell-library fingerprint
//!   and the report schema version.
//!
//! The crate is a thin shell: all numerical work lives in `apx_core` and
//! below; [`commands`] only select configurations, format tables
//! ([`apx_core::output`]) and decide where results go. The paper's ten
//! figures and tables are data, not code: each is a registered command
//! whose exhibit names its configs, row source, columns and paper line,
//! printed by one renderer. Cache statistics print to stderr so stdout
//! stays byte-identical between cold and warm runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;

/// Renders the global help: every subcommand with its summary, plus the
/// shared-flag conventions.
#[must_use]
pub fn global_help() -> String {
    let mut text = String::from(
        "apxperf — APXPERF-RS: approximate vs fixed-point operator characterization\n\
         (Barrois, Sentieys, Ménard — DATE 2017)\n\n\
         Usage: apxperf <COMMAND> [OPTIONS]\n\n\
         Commands:\n",
    );
    for command in commands::COMMANDS {
        text.push_str(&format!("  {:<16}{}\n", command.name, command.summary));
    }
    text.push_str(
        "\nRun `apxperf <COMMAND> --help` for the flags a command accepts.\n\
         All characterizations go through the content-addressed report cache\n\
         (~/.cache/apxperf, override with --cache-dir or APXPERF_CACHE_DIR;\n\
         disable with --no-cache): a repeated run with the same inputs is a\n\
         lookup, not a recompute, and prints identical numbers.\n",
    );
    text
}

/// The number of positional arguments `command` accepts: one per token
/// of its usage text.
fn max_positional(command: &commands::Command) -> usize {
    command.positional.split_whitespace().count()
}

/// Parses and runs one CLI invocation. `argv` is everything after the
/// program name. Returns the process exit code: 0 on success, 2 on a
/// usage error, 1 on a runtime failure.
pub fn run(argv: &[String]) -> i32 {
    let Some(name) = argv.first() else {
        print!("{}", global_help());
        return 0;
    };
    if name == "--help" || name == "-h" || name == "help" {
        print!("{}", global_help());
        return 0;
    }
    let Some(command) = commands::find(name) else {
        eprintln!("unknown command `{name}`\n");
        eprint!("{}", global_help());
        return 2;
    };
    let rest = &argv[1..];
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        print!(
            "{}",
            args::usage(
                command.name,
                command.summary,
                command.positional,
                command.flags
            )
        );
        return 0;
    }
    let parsed = match args::Args::parse(rest, command.flags, max_positional(command)) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("error: {message}\n");
            eprint!(
                "{}",
                args::usage(
                    command.name,
                    command.summary,
                    command.positional,
                    command.flags
                )
            );
            return 2;
        }
    };
    match command.execute(&parsed) {
        Ok(()) => 0,
        Err(message) => {
            eprintln!("error: {message}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_command_is_findable_and_documented() {
        for command in commands::COMMANDS {
            assert!(commands::find(command.name).is_some());
            assert!(!command.summary.is_empty());
            // every accepted flag must exist in the shared table
            for flag in command.flags {
                assert!(
                    args::FLAGS.iter().any(|f| &f.name == flag),
                    "{}: unknown flag {flag}",
                    command.name
                );
            }
        }
    }

    #[test]
    fn global_help_lists_every_command() {
        let help = global_help();
        for command in commands::COMMANDS {
            assert!(help.contains(command.name), "{} missing", command.name);
        }
    }

    #[test]
    fn unknown_command_is_a_usage_error() {
        assert_eq!(run(&["frobnicate".to_owned()]), 2);
    }

    #[test]
    fn positional_limits_follow_the_usage_text() {
        let limit = |name| max_positional(commands::find(name).unwrap());
        assert_eq!(limit("fig3"), 0);
        assert_eq!(limit("app"), 1);
        assert_eq!(limit("report"), 1);
        assert_eq!(limit("cache"), 2);
        assert_eq!(run(&["fig3".to_owned(), "extra".to_owned()]), 2);
    }

    #[test]
    fn cache_flag_consistency_every_sweep_command_supports_the_cache() {
        // the tentpole contract: every characterizing subcommand accepts
        // --cache-dir/--no-cache; the two non-characterizing ones
        // (bench-baseline measures compute; cache manages the store) are
        // the deliberate exceptions
        for command in commands::COMMANDS {
            if ["bench-baseline", "cache", "list"].contains(&command.name) {
                continue;
            }
            assert!(
                command.flags.contains(&"cache-dir"),
                "{} lacks --cache-dir",
                command.name
            );
            assert!(
                command.flags.contains(&"no-cache"),
                "{} lacks --no-cache",
                command.name
            );
        }
    }
}
