//! Budget-constrained heterogeneous operator assignment — the `apxperf
//! tune` search.
//!
//! The uniform application sweeps ([`crate::appenergy`]) substitute one
//! operator configuration into *every* arithmetic site of a workload.
//! This module relaxes that: each declared call-site
//! ([`Workload::sites`]) gets its own configuration, routed through an
//! [`OperatorCtx`] built from a [`SiteMap`], and a greedy per-site descent searches for the
//! minimum-energy assignment that still meets a parsed
//! [`QualityBudget`] (`>=30dB`, `<=1dB`, `>=95%`).
//!
//! The search is seeded at the best *uniform* candidate meeting the
//! budget and only ever accepts strictly-lower-energy feasible moves, so
//! the returned assignment's modeled energy is ≤ the best uniform
//! configuration by construction. Every candidate cell is a pure
//! function of `(workload fingerprint, seed, library, settings,
//! assignment)` — evaluated engine-parallel, bit-identical for any
//! thread count, and content-addressed under
//! [`crate::cache::hetero_cell_key`] so a warm rerun of the same search
//! is pure cache hits.

use crate::appenergy::{model_for, shared_fixture, AppEnergyModel};
use crate::characterizer::{Characterizer, CharacterizerSettings};
use apx_apps::{Prepared, Workload, WorkloadRun};
use apx_cache::Cache;
use apx_cells::Library;
use apx_engine::Engine;
use apx_metrics::{QualityBudget, QualityScore};
use apx_operators::{OperatorConfig, OperatorCtx, SiteCounts, SiteMap};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// The configuration an unassigned site is priced at: sites the
/// assignment leaves exact still burn exact-adder energy, they are not
/// free.
const EXACT_FALLBACK: OperatorConfig = OperatorConfig::AddExact { n: 16 };

/// One evaluated heterogeneous cell: a per-site assignment, the scored
/// workload run under it, the per-site operation ledger, and the
/// per-site-priced energy. Serializable so whole cells are
/// content-addressable — see [`crate::cache::hetero_cell_key`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeteroCell {
    /// The per-site assignment under test.
    pub assignment: SiteMap,
    /// The scored workload run with the assignment substituted in.
    pub run: WorkloadRun,
    /// Operations executed at each site over the run.
    pub site_counts: SiteCounts,
    /// Modeled energy in pJ: each site's traffic priced by its own
    /// configuration's partner-sized model (eq. (1), per site).
    pub energy_pj: f64,
}

/// The best uniform candidate meeting the budget — the baseline the
/// heterogeneous assignment is compared against.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UniformBaseline {
    /// The uniform configuration.
    pub config: OperatorConfig,
    /// Its application quality score.
    pub score: QualityScore,
    /// Its per-site-priced energy in pJ (same pricing rule as the
    /// heterogeneous cells, so the comparison is apples-to-apples).
    pub energy_pj: f64,
}

/// Search statistics of one `tune` run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TuneStats {
    /// Declared call-sites of the workload.
    pub sites: usize,
    /// Candidate configurations after dedup.
    pub candidates: usize,
    /// Uniform candidates meeting the budget.
    pub feasible_uniform: usize,
    /// Heterogeneous cells evaluated (uniform seeds + every probed move).
    pub cells_evaluated: usize,
    /// Greedy descent rounds, including the final no-improvement round.
    pub rounds: usize,
    /// Single-site moves accepted.
    pub moves_accepted: usize,
}

/// The result of a `tune` search: the winning per-site assignment, its
/// quality and energy, the best uniform baseline, and search statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuneOutcome {
    /// Workload name (registry key).
    pub workload: String,
    /// The budget, in its display form (`>=30dB`).
    pub budget: String,
    /// The winning per-site assignment, in site-declaration order.
    pub assignment: SiteMap,
    /// Application quality under the winning assignment.
    pub score: QualityScore,
    /// Modeled energy of the winning assignment in pJ.
    pub energy_pj: f64,
    /// Per-site operation counts of the winning run.
    pub site_counts: SiteCounts,
    /// The best uniform candidate meeting the budget, if any exists.
    pub best_uniform: Option<UniformBaseline>,
    /// Search statistics.
    pub stats: TuneStats,
}

/// Prices a per-site ledger: each site's adds and muls cost its own
/// configuration's partner-sized PDPs. Sites outside the assignment are
/// exact and priced at the exact 16-bit adder's model. Summation runs in
/// ledger order, so the total is bit-identical for any thread count.
fn price_sites(
    site_counts: &SiteCounts,
    assignment: &SiteMap,
    model_of: &mut impl FnMut(&OperatorConfig) -> AppEnergyModel,
) -> f64 {
    let mut total = 0.0;
    for (site, counts) in site_counts.iter() {
        let config = assignment.get(site).copied().unwrap_or(EXACT_FALLBACK);
        total += model_of(&config).energy_pj(counts);
    }
    total
}

/// The inputs every cell of one search shares, with the workload's
/// fixture built once for the whole search.
struct Search<'a> {
    workload: &'a dyn Workload,
    seed: u64,
    lib: &'a Library,
    settings: CharacterizerSettings,
    engine: &'a Engine,
    cache: &'a Cache,
    fixture: OnceLock<Prepared<'a>>,
}

impl Search<'_> {
    /// Evaluates one heterogeneous cell, through the cache when warm: run
    /// the workload under an [`OperatorCtx`] built from `assignment`, then
    /// price each site's traffic by its own configuration's model. Inner
    /// characterizations go through the report cache, so distinct
    /// assignments sharing configurations share the operator models.
    fn evaluate_cell(&self, assignment: &SiteMap, inner: &Engine) -> HeteroCell {
        let Search {
            workload,
            seed,
            lib,
            settings,
            cache,
            ..
        } = *self;
        cache
            .read_through(
                || crate::cache::hetero_cell_key(lib, &settings, workload, seed, assignment),
                |cell: &HeteroCell| cell.assignment == *assignment,
                || {
                    let mut ctx = OperatorCtx::new(assignment);
                    let run = shared_fixture(&self.fixture, workload, seed)(&mut ctx);
                    let site_counts = ctx.site_counts();
                    let mut chz = Characterizer::new(lib)
                        .with_settings(settings)
                        .with_engine(inner.clone())
                        .with_cache(cache.clone());
                    let energy_pj = price_sites(&site_counts, assignment, &mut |config| {
                        model_for(&mut chz, config)
                    });
                    HeteroCell {
                        assignment: assignment.clone(),
                        run,
                        site_counts,
                        energy_pj,
                    }
                },
            )
            .0
    }

    /// Evaluates a batch of assignments engine-parallel, in input order.
    fn evaluate_all(&self, assignments: &[SiteMap]) -> Vec<HeteroCell> {
        let inner = crate::sweeps::inner_engine(self.engine, assignments.len());
        self.engine.map_indexed(assignments.len(), |i| {
            self.evaluate_cell(&assignments[i], &inner)
        })
    }
}

/// Greedy budget-constrained search for the minimum-energy per-site
/// assignment.
///
/// 1. Every candidate configuration is evaluated as a *uniform*
///    assignment (all sites get it), engine-parallel. The cheapest
///    feasible uniform seeds the descent — so the result can never cost
///    more than the best uniform configuration meeting the budget.
/// 2. If no candidate is feasible, the descent starts from the
///    all-exact assignment (which has zero loss and meets every budget
///    by construction).
/// 3. Each round probes every single-site move `(site, config)` off the
///    current assignment, engine-parallel, and accepts the feasible
///    move with the strictly lowest energy; ties break on probe order
///    (site-declaration order, then candidate order). The search stops
///    at the first round with no improving feasible move.
///
/// Deterministic for any thread count: cells are bit-identical under
/// the engine contract and the accept rule is a fixed-order scan.
///
/// # Errors
/// Returns a user-facing message when `candidates` is empty, when the
/// workload declares no sites, or when the budget's unit does not match
/// the workload's quality metric (e.g. a dB bound on a success-rate
/// workload).
#[allow(clippy::too_many_arguments)]
pub fn tune(
    workload: &dyn Workload,
    seed: u64,
    lib: &Library,
    settings: CharacterizerSettings,
    budget: QualityBudget,
    candidates: &[OperatorConfig],
    engine: &Engine,
    cache: &Cache,
) -> Result<TuneOutcome, String> {
    let sites = workload.sites();
    if sites.is_empty() {
        return Err(format!(
            "workload `{}` declares no call-sites to tune",
            workload.name()
        ));
    }
    let mut configs: Vec<OperatorConfig> = Vec::new();
    for config in candidates {
        if !configs.contains(config) {
            configs.push(*config);
        }
    }
    if configs.is_empty() {
        return Err("no candidate configurations to assign".to_owned());
    }

    let search = Search {
        workload,
        seed,
        lib,
        settings,
        engine,
        cache,
        fixture: OnceLock::new(),
    };
    let mut stats = TuneStats {
        sites: sites.len(),
        candidates: configs.len(),
        feasible_uniform: 0,
        cells_evaluated: 0,
        rounds: 0,
        moves_accepted: 0,
    };

    // 1. uniform seeds
    let uniform_maps: Vec<SiteMap> = configs
        .iter()
        .map(|config| SiteMap::uniform(sites, *config))
        .collect();
    let uniform_cells = search.evaluate_all(&uniform_maps);
    stats.cells_evaluated += uniform_cells.len();

    let mut best_uniform: Option<(usize, HeteroCell)> = None;
    for (i, cell) in uniform_cells.iter().enumerate() {
        if !budget.admits(&cell.run.score)? {
            continue;
        }
        stats.feasible_uniform += 1;
        let better = match &best_uniform {
            None => true,
            Some((_, best)) => cell.energy_pj < best.energy_pj,
        };
        if better {
            best_uniform = Some((i, cell.clone()));
        }
    }

    let baseline = best_uniform.as_ref().map(|(i, cell)| UniformBaseline {
        config: configs[*i],
        score: cell.run.score,
        energy_pj: cell.energy_pj,
    });

    // 2. descent start
    let mut current = match best_uniform {
        Some((_, cell)) => cell,
        None => {
            let exact = SiteMap::uniform(sites, EXACT_FALLBACK);
            let cell = search
                .evaluate_all(std::slice::from_ref(&exact))
                .pop()
                .expect("one assignment in, one cell out");
            stats.cells_evaluated += 1;
            if !budget.admits(&cell.run.score)? {
                return Err(format!(
                    "budget `{budget}` is infeasible for workload `{}`: even exact \
                     arithmetic (score {}) does not meet it",
                    workload.name(),
                    cell.run.score.value(),
                ));
            }
            cell
        }
    };

    // 3. greedy single-site descent
    loop {
        stats.rounds += 1;
        let mut probes: Vec<SiteMap> = Vec::new();
        for spec in sites {
            for config in &configs {
                if current.assignment.get(spec.tag) == Some(config) {
                    continue;
                }
                let mut probe = current.assignment.clone();
                probe.set(spec.tag, *config);
                probes.push(probe);
            }
        }
        let cells = search.evaluate_all(&probes);
        stats.cells_evaluated += cells.len();
        let mut best_move: Option<HeteroCell> = None;
        for cell in cells {
            if !budget.admits(&cell.run.score)? {
                continue;
            }
            let bar = best_move
                .as_ref()
                .map_or(current.energy_pj, |b| b.energy_pj);
            if cell.energy_pj < bar {
                best_move = Some(cell);
            }
        }
        match best_move {
            Some(cell) => {
                stats.moves_accepted += 1;
                current = cell;
            }
            None => break,
        }
    }

    Ok(TuneOutcome {
        workload: workload.name().to_owned(),
        budget: budget.to_string(),
        assignment: current.assignment,
        score: current.run.score,
        energy_pj: current.energy_pj,
        site_counts: current.site_counts,
        best_uniform: baseline,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use apx_apps::workload::{find, WorkloadParams};

    fn build(name: &str) -> Box<dyn Workload> {
        let params = WorkloadParams {
            size: 16,
            sets: 1,
            points: 20,
        };
        (find(name).expect("registered").build)(&params).expect("valid params")
    }

    fn quick_settings() -> CharacterizerSettings {
        CharacterizerSettings {
            error_samples: 1_000,
            verify_samples: 100,
            exhaustive_up_to_bits: 8,
            power_vectors: 50,
            seed: 11,
        }
    }

    fn small_candidates() -> Vec<OperatorConfig> {
        vec![
            OperatorConfig::AddExact { n: 16 },
            OperatorConfig::AddTrunc { n: 16, q: 12 },
            OperatorConfig::AddTrunc { n: 16, q: 10 },
        ]
    }

    #[test]
    fn uniform_hetero_cell_matches_the_uniform_context() {
        // a uniform SiteMap routes every site to one config, so it must run
        // exactly like `for_config` of that config: same run, same ledger
        // in the same first-recorded order, for every registered workload
        let lib = Library::fdsoi28();
        let settings = quick_settings();
        let configs = [
            OperatorConfig::AddTrunc { n: 16, q: 12 },
            OperatorConfig::MulTrunc { n: 16, q: 16 },
        ];
        for config in configs {
            for entry in apx_apps::WORKLOADS {
                let workload = build(entry.name);
                let sites = workload.sites();
                let uniform = SiteMap::uniform(sites, config);
                let mut mapped = OperatorCtx::new(&uniform);
                let mut classic = OperatorCtx::for_config(&config);
                let run = workload.run(7, &mut mapped);
                let ledger = mapped.site_counts();
                let what = format!("{} under {config}", entry.name);
                assert_eq!(run, workload.run(7, &mut classic), "{what}: runs");
                assert_eq!(ledger, classic.site_counts(), "{what}: ledgers");
                // the ledger covers every counted op, at declared sites only
                assert_eq!(ledger.total(), run.counts, "{what}");
                for (site, _) in ledger.iter() {
                    assert!(
                        sites.iter().any(|spec| spec.tag == site),
                        "{what}: undeclared site `{site}`"
                    );
                }
                // and the cell the search evaluates carries the same run
                let search = Search {
                    workload: workload.as_ref(),
                    seed: 7,
                    lib: &lib,
                    settings,
                    engine: &Engine::single_threaded(),
                    cache: &Cache::default(),
                    fixture: OnceLock::new(),
                };
                let cell = search.evaluate_cell(&uniform, &Engine::single_threaded());
                assert_eq!(cell.run, run, "{what}: cell run");
                assert_eq!(cell.site_counts, ledger, "{what}: cell ledger");
            }
        }
    }

    #[test]
    fn tune_result_never_costs_more_than_the_best_uniform() {
        let lib = Library::fdsoi28();
        let settings = quick_settings();
        let workload = build("fft");
        let outcome = tune(
            workload.as_ref(),
            7,
            &lib,
            settings,
            "<=1dB".parse().unwrap(),
            &small_candidates(),
            &Engine::new(2),
            &Cache::default(),
        )
        .expect("tune succeeds");
        let baseline = outcome.best_uniform.as_ref().expect("exact is feasible");
        assert!(
            outcome.energy_pj <= baseline.energy_pj,
            "hetero {} pJ must not exceed uniform {} pJ",
            outcome.energy_pj,
            baseline.energy_pj
        );
        assert_eq!(outcome.assignment.len(), workload.sites().len());
        assert!(
            outcome.stats.feasible_uniform >= 1,
            "exact meets any loss budget"
        );
    }

    #[test]
    fn tune_is_deterministic_across_thread_counts() {
        let lib = Library::fdsoi28();
        let settings = quick_settings();
        let workload = build("fir");
        let budget: QualityBudget = ">=30dB".parse().unwrap();
        let run = |threads: usize| {
            tune(
                workload.as_ref(),
                7,
                &lib,
                settings,
                budget,
                &small_candidates(),
                &Engine::new(threads),
                &Cache::default(),
            )
            .expect("tune succeeds")
        };
        let serial = run(1);
        let threaded = run(4);
        assert_eq!(
            serial, threaded,
            "bit-identical outcome for any thread count"
        );
    }

    #[test]
    fn mismatched_budget_unit_is_a_user_facing_error() {
        let lib = Library::fdsoi28();
        let workload = build("kmeans");
        let err = tune(
            workload.as_ref(),
            7,
            &lib,
            quick_settings(),
            ">=30dB".parse().unwrap(),
            &small_candidates(),
            &Engine::single_threaded(),
            &Cache::default(),
        )
        .unwrap_err();
        assert!(err.contains("dB"), "{err}");
        assert!(err.contains("success"), "{err}");
    }

    #[test]
    fn warm_rerun_is_pure_cache_hits_and_bit_identical() {
        let dir = std::env::temp_dir().join(format!("apx_tune_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cache = Cache::builder().dir(&dir).open();
        let lib = Library::fdsoi28();
        let settings = quick_settings();
        let workload = build("fir");
        let budget: QualityBudget = ">=30dB".parse().unwrap();
        let run = |cache: &Cache| {
            tune(
                workload.as_ref(),
                7,
                &lib,
                settings,
                budget,
                &small_candidates(),
                &Engine::new(2),
                cache,
            )
            .expect("tune succeeds")
        };
        let cold = run(&cache);
        let writes_after_cold = cache.stats().writes;
        let hits_before = cache.stats().hits;
        let warm = run(&cache);
        assert_eq!(cold, warm, "cache must be transparent");
        assert_eq!(
            cache.stats().writes,
            writes_after_cold,
            "warm rerun writes nothing"
        );
        assert_eq!(
            cache.stats().hits - hits_before,
            cold.stats.cells_evaluated as u64,
            "every cell of the warm search is a hetero-cell hit"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
