//! `apxperf pareto` — the paper's headline comparison as one command:
//! sweep a workload over approximate families **and** the `Sized`
//! data-sizing baseline, compute the strict-dominance quality–energy
//! front, and flag every approximate configuration that a sized-exact
//! operator dominates.

use super::report_cache_use;
use crate::args::Args;
use apx_cells::Library;
use apx_core::query;

/// `apxperf pareto --workload NAME [--family F|--all]` — overlays the
/// approximate families against the sized-exact baseline on one
/// quality–energy plot and reports the strict-dominance front. The
/// summary counts how many approximate configurations a sized-exact
/// operator dominates: the paper's "hidden cost", as a number. The whole
/// output comes from [`query::pareto_text`] — the same function the
/// serve daemon answers `POST /pareto` with, so served bodies match this
/// stdout byte for byte.
pub(super) fn pareto(args: &Args) -> Result<(), String> {
    let name = args.workload.as_deref().ok_or_else(|| {
        "pareto needs --workload <NAME>, e.g. `apxperf pareto --workload fir --all` \
         (see `apxperf list`)"
            .to_owned()
    })?;
    let cache = args.cache();
    let text = query::pareto_text(
        &Library::fdsoi28(),
        &args.params,
        name,
        args.was_set("family").then_some(args.family.as_str()),
        args.all,
        args.format,
        &args.engine(),
        &cache,
    )?;
    print!("{text}");
    report_cache_use(&cache);
    Ok(())
}
