//! `apxperf tune` — the quality-budget auto-tuner over heterogeneous
//! per-call-site operator assignment (`apx_core::tune`): find the
//! minimum-energy [`SiteMap`](apx_operators::SiteMap) whose application
//! quality still meets a parsed budget, and report it against the best
//! uniform configuration.

use super::report_cache_use;
use crate::args::Args;
use apx_cells::Library;
use apx_core::output::{family, fmt, render};
use apx_core::query;
use apx_metrics::QualityBudget;
use apx_operators::OperatorConfig;

/// Resolves `--families` (comma-separated, default `points,sized` — the
/// named operating points plus the data-sizing baseline, so the search
/// always has feasible low-energy candidates) into the concatenated
/// candidate list, in family order.
fn candidate_configs(args: &Args) -> Result<Vec<OperatorConfig>, String> {
    let list = args.families.as_deref().unwrap_or("points,sized");
    let mut configs = Vec::new();
    for name in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        configs.extend((query::lookup_family("--families", name)?.configs)());
    }
    if configs.is_empty() {
        return Err("--families: expected at least one family name".to_owned());
    }
    Ok(configs)
}

/// `apxperf tune --workload <NAME> --budget <EXPR>` — greedy search for
/// the cheapest per-site assignment meeting the budget. Prints the
/// winning assignment (one row per declared call-site) and a summary
/// table (quality, energy vs. the best uniform candidate, search
/// statistics) in the selected format. Stdout is deterministic; the
/// cache note goes to stderr.
pub(super) fn tune(args: &Args) -> Result<(), String> {
    let name = args.workload.as_deref().ok_or_else(|| {
        "expected --workload <NAME>, e.g. `apxperf tune --workload fir --budget '>=30dB'`"
            .to_owned()
    })?;
    let budget_text = args.budget.as_deref().ok_or_else(|| {
        "expected --budget <EXPR>, e.g. `--budget '>=30dB'` (dB workloads) or \
         `--budget '>=95%'` (ratio workloads)"
            .to_owned()
    })?;
    let budget: QualityBudget = budget_text.parse()?;
    let configs = candidate_configs(args)?;
    let (workload, seed) = query::resolve_workload(&args.params, name)?;
    let cache = args.cache();
    let lib = Library::fdsoi28();
    let outcome = apx_core::tune::tune(
        workload.as_ref(),
        seed,
        &lib,
        args.params.settings(),
        budget,
        &configs,
        &args.engine(),
        &cache,
    )?;

    println!(
        "TUNE {} budget {} ({} candidates over {} sites)",
        workload.fingerprint(),
        outcome.budget,
        outcome.stats.candidates,
        outcome.stats.sites,
    );

    // one row per declared call-site, in declaration order
    let rows: Vec<Vec<String>> = workload
        .sites()
        .iter()
        .map(|spec| {
            let assigned = outcome.assignment.get(spec.tag);
            let counts = outcome.site_counts.get(spec.tag);
            vec![
                spec.tag.to_owned(),
                spec.ops.label().to_owned(),
                assigned.map_or_else(|| "exact".to_owned(), ToString::to_string),
                assigned.map_or("FxP-exact", family).to_owned(),
                counts.adds.to_string(),
                counts.muls.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        render(
            args.format,
            &["site", "ops", "operator", "family", "adds", "muls"],
            &rows,
        )
    );

    let mut summary: Vec<Vec<String>> = vec![
        vec!["metric".to_owned(), outcome.score.metric().to_owned()],
        vec!["score".to_owned(), fmt(outcome.score.value(), 4)],
        vec!["energy_pj".to_owned(), fmt(outcome.energy_pj, 3)],
    ];
    match &outcome.best_uniform {
        Some(uniform) => {
            summary.push(vec!["best_uniform".to_owned(), uniform.config.to_string()]);
            summary.push(vec![
                "best_uniform_energy_pj".to_owned(),
                fmt(uniform.energy_pj, 3),
            ]);
            let saving = if uniform.energy_pj > 0.0 {
                (1.0 - outcome.energy_pj / uniform.energy_pj) * 100.0
            } else {
                0.0
            };
            summary.push(vec!["energy_saving_pct".to_owned(), fmt(saving, 2)]);
        }
        None => summary.push(vec![
            "best_uniform".to_owned(),
            "none (no uniform candidate meets the budget)".to_owned(),
        ]),
    }
    summary.push(vec![
        "feasible_uniform".to_owned(),
        outcome.stats.feasible_uniform.to_string(),
    ]);
    summary.push(vec![
        "cells_evaluated".to_owned(),
        outcome.stats.cells_evaluated.to_string(),
    ]);
    summary.push(vec!["rounds".to_owned(), outcome.stats.rounds.to_string()]);
    summary.push(vec![
        "moves_accepted".to_owned(),
        outcome.stats.moves_accepted.to_string(),
    ]);
    print!("{}", render(args.format, &["field", "value"], &summary));
    report_cache_use(&cache);
    Ok(())
}
