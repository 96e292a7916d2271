//! The workload subcommands: `apxperf app <NAME>` runs any registered
//! application workload over an operator family, and `apxperf list`
//! prints both registries — the discoverability entry point.

use super::{report_cache_use, workload_cells};
use crate::args::Args;
use apx_core::{query, sweeps};

/// `apxperf app <WORKLOAD>` — runs one registered workload over an
/// operator family (default: the named operating points of Tables
/// III/V, the small representative set) and prints the scored sweep.
/// Everything a figure/table alias does, for any workload in the
/// registry — new case studies get this command for free.
pub(super) fn app(args: &Args) -> Result<(), String> {
    let name = args.positional.first().ok_or_else(|| {
        "expected a workload name, e.g. `apxperf app fir` (see `apxperf list`)".to_owned()
    })?;
    let sweep_family = query::lookup_family("--family", args.family_or("points"))?;
    let configs = (sweep_family.configs)();
    let cache = args.cache();
    let (workload, cells) = workload_cells(args, &cache, name, &configs)?;
    println!(
        "APP {} over family `{}` ({} configs)",
        workload.fingerprint(),
        sweep_family.name,
        configs.len()
    );
    // the serve daemon renders through the same function, so served
    // sweeps match this stdout byte for byte
    print!("{}", query::workload_table(args.format, &cells));
    report_cache_use(&cache);
    Ok(())
}

/// `apxperf list` — the registered workloads and operator families with
/// their one-line descriptions, driven by the same registries the
/// subcommands resolve against (so the listing cannot drift from what
/// actually runs). With `--sites`, prints each workload's declared
/// call-sites and op classes instead — the assignment targets of
/// `apxperf tune`.
pub(super) fn list(args: &Args) -> Result<(), String> {
    if args.sites {
        return list_sites();
    }
    println!("Workloads (apxperf app <NAME>, or sweep --workload <NAME>):");
    for entry in apx_apps::WORKLOADS {
        println!("  {:<12}{}", entry.name, entry.summary);
    }
    println!();
    println!("Operator families (--family <NAME>):");
    for sweep_family in sweeps::FAMILIES {
        println!("  {:<12}{}", sweep_family.name, sweep_family.summary);
    }
    Ok(())
}

/// `apxperf list --sites` — every workload's declared call-sites, with
/// the op classes that may fire there. Driven by [`Workload::sites`],
/// the same declaration `tune` assigns over, so the listing cannot
/// drift from what the search actually tunes.
///
/// [`Workload::sites`]: apx_apps::Workload::sites
fn list_sites() -> Result<(), String> {
    println!("Workload call-sites (the assignment targets of `apxperf tune`):");
    for entry in apx_apps::WORKLOADS {
        let workload = (entry.build)(&apx_apps::WorkloadParams::default())?;
        println!("  {}", entry.name);
        for spec in workload.sites() {
            println!(
                "    {:<18}{:<9}{}",
                spec.tag,
                spec.ops.label(),
                spec.summary
            );
        }
    }
    Ok(())
}
