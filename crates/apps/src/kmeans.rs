//! K-means clustering with approximate distance computation (§V-D,
//! Tables V/VI).
//!
//! Lloyd's algorithm over 2-D 16-bit fixed-point points. Only the
//! distance computation runs through the [`OperatorCtx`] — two
//! subtractions, two squarings (fixed-width: the upper 16 product bits)
//! and one addition per point/centroid pair, exactly the data-path the
//! paper characterizes, each sliced over all points of one centroid.
//! Centroid updates and comparisons are exact.
//!
//! An iteration is a pure function of the centroids it starts from, so
//! once an update leaves them unchanged every later iteration would
//! repeat it exactly. The run stops there and charges the context the
//! distance operations of the iterations it skipped.

use crate::workload::{Prepared, Workload, WorkloadRun};
use crate::{OpCounts, OperatorCtx};
use apx_fixture::clusters::PointCloud;
use apx_metrics::QualityScore;
use apx_operators::{SiteOps, SiteSpec};

/// Scale shift applied after squaring: the fixed-width multiplier keeps
/// the upper 16 of 32 product bits, so both branches of the comparison
/// live at the same Q-format.
const SQUARE_SHIFT: u32 = 16;

/// Call-site tag of the coordinate differences.
pub const SITE_DIST_DIFF: &str = "kmeans.dist_diff";

/// Call-site tag of the squared-distance accumulation.
pub const SITE_DIST_ACC: &str = "kmeans.dist_acc";

/// Declared call-sites of the K-means workload.
pub const SITES: &[SiteSpec] = &[
    SiteSpec {
        tag: SITE_DIST_DIFF,
        ops: SiteOps::Add,
        summary: "coordinate differences dx/dy per point-centroid pair",
    },
    SiteSpec {
        tag: SITE_DIST_ACC,
        ops: SiteOps::AddMul,
        summary: "fixed-width squarings and the dx2+dy2 accumulate",
    },
];

/// Squared distances of every point to one centroid, through the
/// context at the fixed-width product scale: the 2 subtractions, 2
/// squarings and 1 addition per pair, each op a slice over all points.
struct Distances {
    xs: Vec<i64>,
    ys: Vec<i64>,
    cx: Vec<i64>,
    cy: Vec<i64>,
    dx: Vec<i64>,
    dy: Vec<i64>,
    /// Squared distances of the last [`Distances::to`] call.
    d2: Vec<i64>,
}

impl Distances {
    fn new(points: &[[i64; 2]]) -> Self {
        let n = points.len();
        Distances {
            xs: points.iter().map(|p| p[0]).collect(),
            ys: points.iter().map(|p| p[1]).collect(),
            cx: vec![0; n],
            cy: vec![0; n],
            dx: vec![0; n],
            dy: vec![0; n],
            d2: vec![0; n],
        }
    }

    fn to(&mut self, centroid: [i64; 2], ctx: &mut OperatorCtx) -> &[i64] {
        self.cx.fill(centroid[0]);
        self.cy.fill(centroid[1]);
        ctx.sub_n_at(SITE_DIST_DIFF, &self.xs, &self.cx, &mut self.dx);
        ctx.sub_n_at(SITE_DIST_DIFF, &self.ys, &self.cy, &mut self.dy);
        // the squares reuse the centroid broadcasts as outputs
        ctx.mul_n_at(SITE_DIST_ACC, &self.dx, &self.dx, &mut self.cx);
        ctx.mul_n_at(SITE_DIST_ACC, &self.dy, &self.dy, &mut self.cy);
        for v in self.cx.iter_mut().chain(self.cy.iter_mut()) {
            *v >>= SQUARE_SHIFT;
        }
        ctx.add_n_at(SITE_DIST_ACC, &self.cx, &self.cy, &mut self.d2);
        &self.d2
    }

    /// Charges `ctx` the operations of `iterations` assignment steps
    /// against `k` centroids without running them: per point/centroid
    /// pair, 2 subtractions at the difference site, and 2 squarings and 1
    /// addition at the accumulate site.
    fn charge(&self, iterations: usize, k: usize, ctx: &mut OperatorCtx) {
        let pairs = (iterations * k * self.xs.len()) as u64;
        let diff = OpCounts {
            adds: 2 * pairs,
            muls: 0,
        };
        let acc = OpCounts {
            adds: pairs,
            muls: 2 * pairs,
        };
        ctx.charge(SITE_DIST_DIFF, diff);
        ctx.charge(SITE_DIST_ACC, acc);
    }
}

/// Result of one clustering run.
#[derive(Debug, Clone)]
pub struct KmeansResult {
    /// Final assignment per point.
    pub labels: Vec<usize>,
    /// Final centroid positions.
    pub centroids: Vec<[i64; 2]>,
    /// Classification success against the ground-truth labels.
    pub score: QualityScore,
    /// Operations executed through the context (distance computation
    /// only).
    pub counts: OpCounts,
}

/// The paper's K-means workload: Gaussian blobs in 16-bit coordinates
/// with known ground truth.
#[derive(Debug, Clone)]
pub struct KmeansFixture {
    cloud: PointCloud,
    iterations: usize,
}

impl KmeansFixture {
    /// One paper-style data set: `clusters` Gaussian blobs of
    /// `points_per_cluster` points (the paper uses 10 blobs, 5·10³ points
    /// per set, 5 sets — see `apx-core::sweeps` for the 5-set driver).
    ///
    /// Coordinates are kept within ±16 000 so that differences fit the
    /// 16-bit data-path (the "careful data sizing" prerequisite).
    #[must_use]
    pub fn synthetic(clusters: usize, points_per_cluster: usize, seed: u64) -> Self {
        // centers within ±12 000 and spread 1 200 keep every point inside
        // ±16 000, so all subtractions fit the 16-bit data-path
        let cloud = apx_fixture::clusters::gaussian_clusters_with_range(
            clusters,
            points_per_cluster,
            900.0,
            12_000.0,
            seed,
        );
        KmeansFixture {
            cloud,
            iterations: 10,
        }
    }

    /// The underlying point cloud.
    #[must_use]
    pub fn cloud(&self) -> &PointCloud {
        &self.cloud
    }

    /// Overrides the Lloyd iteration count (default 10).
    #[must_use]
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Runs Lloyd's algorithm through `ctx`.
    ///
    /// Centroids are seeded from the ground-truth centers perturbed by a
    /// fixed offset, so the label indices of exact and approximate runs
    /// are directly comparable (no permutation matching needed) — the
    /// paper's success rate is the fraction of points landing in their
    /// true cluster.
    ///
    /// Once an update leaves the centroids where they were, the run stops
    /// and charges both distance sites the remaining iterations' counts
    /// (3 additions and 2 multiplications per point/centroid pair, data
    /// independent). Labels, centroids, score and the site ledger are
    /// those of running every iteration.
    pub fn run(&self, ctx: &mut OperatorCtx) -> KmeansResult {
        // count by delta rather than resetting, so a multi-set driver
        // (KmeansWorkload) keeps its cumulative per-site ledger intact
        let start = ctx.counts();
        let k = self.cloud.centers.len();
        let mut centroids: Vec<[i64; 2]> = self
            .cloud
            .centers
            .iter()
            .map(|c| [c[0] + 900, c[1] - 900])
            .collect();
        let mut labels = vec![0usize; self.cloud.points.len()];
        let mut best_d = vec![i64::MAX; labels.len()];
        let mut distances = Distances::new(&self.cloud.points);
        for done in 1..=self.iterations {
            // assignment step (through ctx): every point against one
            // centroid at a time, then a strict-`<` argmin in centroid
            // order, so ties keep the lowest centroid index
            labels.fill(0);
            best_d.fill(i64::MAX);
            for (ci, &centroid) in centroids.iter().enumerate() {
                let d = distances.to(centroid, ctx);
                for ((label, best), &d) in labels.iter_mut().zip(&mut best_d).zip(d) {
                    if d < *best {
                        *best = d;
                        *label = ci;
                    }
                }
            }
            // update step (exact)
            let mut sums = vec![[0i64; 2]; k];
            let mut counts = vec![0i64; k];
            for (point, &label) in self.cloud.points.iter().zip(&labels) {
                sums[label][0] += point[0];
                sums[label][1] += point[1];
                counts[label] += 1;
            }
            let mut moved = false;
            for ((centroid, sum), &count) in centroids.iter_mut().zip(&sums).zip(&counts) {
                if count > 0 {
                    let updated = [sum[0] / count, sum[1] / count];
                    moved |= updated != *centroid;
                    *centroid = updated;
                }
            }
            if !moved {
                // a fixed point: every later iteration would repeat this one
                distances.charge(self.iterations - done, k, ctx);
                break;
            }
        }
        let end = ctx.counts();
        KmeansResult {
            score: QualityScore::success(&self.cloud.labels, &labels),
            labels,
            centroids,
            counts: OpCounts {
                adds: end.adds - start.adds,
                muls: end.muls - start.muls,
            },
        }
    }

    /// Convenience: the exact-arithmetic baseline run.
    #[must_use]
    pub fn run_exact(&self) -> KmeansResult {
        let mut ctx = OperatorCtx::exact();
        self.run(&mut ctx)
    }
}

/// The registered K-means workload: `sets` seeded Gaussian data sets of
/// 10 clusters clustered through the context, scored by the **average**
/// classification success against the ground truth (the Tables V/VI
/// protocol).
#[derive(Debug, Clone, Copy)]
pub struct KmeansWorkload {
    sets: usize,
    points: usize,
}

impl KmeansWorkload {
    /// Workload over `sets` data sets of `points` points per cluster.
    #[must_use]
    pub fn new(sets: usize, points: usize) -> Self {
        assert!(sets > 0, "at least one data set");
        assert!(points > 0, "at least one point per cluster");
        KmeansWorkload { sets, points }
    }
}

impl Workload for KmeansWorkload {
    fn name(&self) -> &'static str {
        "kmeans"
    }

    /// Base fixture seed of the `table5`/`table6` binaries (set `s` uses
    /// `seed + s`).
    fn default_seed(&self) -> u64 {
        100
    }

    fn fingerprint(&self) -> String {
        format!("kmeans/v1:sets={},points={}", self.sets, self.points)
    }

    fn sites(&self) -> &'static [SiteSpec] {
        SITES
    }

    fn prepare(&self, seed: u64) -> Prepared<'_> {
        let fixtures: Vec<KmeansFixture> = (0..self.sets)
            .map(|s| KmeansFixture::synthetic(10, self.points, seed.wrapping_add(s as u64)))
            .collect();
        Box::new(move |ctx| {
            ctx.reset_counts();
            let mut success = 0.0;
            let mut counts = OpCounts::default();
            for fixture in &fixtures {
                let result = fixture.run(ctx);
                success += result.score.value();
                counts.adds += result.counts.adds;
                counts.muls += result.counts.muls;
            }
            WorkloadRun {
                score: QualityScore::SuccessRate(success / fixtures.len() as f64),
                counts,
                aux: Vec::new(),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apx_operators::{OperatorConfig, OperatorCtx, SiteCounts};

    #[test]
    fn exact_clustering_recovers_the_ground_truth() {
        let fixture = KmeansFixture::synthetic(10, 200, 21);
        let result = fixture.run_exact();
        assert!(
            result.score.value() > 0.97,
            "well-separated blobs: {}",
            result.score
        );
    }

    #[test]
    fn distance_ops_are_counted_per_pair() {
        let fixture = KmeansFixture::synthetic(4, 50, 3).with_iterations(2);
        let result = fixture.run_exact();
        // per pair: 3 adds (2 subs + 1 add) and 2 muls
        let pairs = (4 * 50 * 4 * 2) as u64;
        assert_eq!(result.counts.muls, 2 * pairs);
        assert_eq!(result.counts.adds, 3 * pairs);
    }

    /// Per-iteration distance counts of `fixture`: 3 additions and 2
    /// multiplications per point/centroid pair.
    fn per_iteration(fixture: &KmeansFixture) -> OpCounts {
        let pairs = (fixture.cloud().points.len() * fixture.cloud().centers.len()) as u64;
        OpCounts {
            adds: 3 * pairs,
            muls: 2 * pairs,
        }
    }

    /// Runs `fixture` for 1..=10 iterations under `config`, returning each
    /// result with its per-site ledger.
    fn runs_by_iterations(
        fixture: &KmeansFixture,
        config: OperatorConfig,
    ) -> Vec<(KmeansResult, SiteCounts)> {
        (1..=10)
            .map(|m| {
                let mut ctx = OperatorCtx::for_config(&config);
                let result = fixture.clone().with_iterations(m).run(&mut ctx);
                (result, ctx.site_counts())
            })
            .collect()
    }

    #[test]
    fn a_fixed_point_stops_the_run_and_charges_the_rest() {
        let fixture = KmeansFixture::synthetic(10, 200, 100);
        let per = per_iteration(&fixture);
        let runs = runs_by_iterations(&fixture, OperatorConfig::AddTrunc { n: 16, q: 11 });
        // the first iteration whose update leaves the centroids in place
        let settled = (2..=10)
            .find(|&m| runs[m - 1].0.centroids == runs[m - 2].0.centroids)
            .expect("ADDt(16,11) settles within 10 iterations");
        assert!(settled < 10, "the stop skips at least one iteration");
        let (last, _) = &runs[9];
        for (m, (result, sites)) in (1..=10u64).zip(&runs) {
            let counts = OpCounts {
                adds: m * per.adds,
                muls: m * per.muls,
            };
            assert_eq!(result.counts, counts, "{m} iterations");
            assert_eq!(sites.get(SITE_DIST_DIFF).adds, 2 * m * per.adds / 3);
            assert_eq!(sites.get(SITE_DIST_ACC).muls, m * per.muls);
            if m as usize >= settled {
                assert_eq!(result.labels, last.labels, "{m} iterations");
                assert_eq!(result.centroids, last.centroids, "{m} iterations");
                assert_eq!(result.score, last.score, "{m} iterations");
            }
        }
    }

    #[test]
    fn a_run_that_never_settles_records_the_same_counts() {
        let fixture = KmeansFixture::synthetic(10, 200, 100);
        let per = per_iteration(&fixture);
        let runs = runs_by_iterations(&fixture, OperatorConfig::AbmUncorrected { n: 16 });
        for (m, (result, sites)) in (1..=10u64).zip(&runs) {
            assert_eq!(result.counts.adds, m * per.adds, "{m} iterations");
            assert_eq!(result.counts.muls, m * per.muls, "{m} iterations");
            assert_eq!(sites.get(SITE_DIST_ACC).muls, m * per.muls);
        }
        assert!(
            runs.windows(2)
                .all(|w| w[0].0.centroids != w[1].0.centroids),
            "ABMu(16) moves its centroids every iteration"
        );
    }

    #[test]
    fn moderately_sized_adders_keep_high_success() {
        // Table V: ADDt(16,11) ≈ 99 %.
        let fixture = KmeansFixture::synthetic(10, 200, 21);
        let mut ctx = OperatorCtx::for_config(&OperatorConfig::AddTrunc { n: 16, q: 11 });
        let result = fixture.run(&mut ctx);
        assert!(result.score.value() > 0.9, "got {}", result.score);
    }

    #[test]
    fn aggressive_truncation_degrades_success() {
        let fixture = KmeansFixture::synthetic(10, 200, 21);
        let run_q = |q: u32| {
            let mut ctx = OperatorCtx::for_config(&OperatorConfig::AddTrunc { n: 16, q });
            fixture.run(&mut ctx).score.value()
        };
        let (hi, lo) = (run_q(11), run_q(4));
        assert!(hi > lo, "q=11 ({hi}) must beat q=4 ({lo})");
    }

    #[test]
    fn uncorrected_abm_collapses_clustering() {
        // Table VI: ABM success ≈ 10 % (vs ≈ 99 % for MULt/AAM).
        let fixture = KmeansFixture::synthetic(10, 100, 21);
        let mut good = OperatorCtx::for_config(&OperatorConfig::MulTrunc { n: 16, q: 16 });
        let mut bad = OperatorCtx::for_config(&OperatorConfig::AbmUncorrected { n: 16 });
        let good_rate = fixture.run(&mut good).score.value();
        let bad_rate = fixture.run(&mut bad).score.value();
        assert!(good_rate > 0.95, "MULt: {good_rate}");
        assert!(bad_rate < 0.6, "ABMu should collapse: {bad_rate}");
    }
}
