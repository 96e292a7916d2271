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

/// One paper-style data set: `clusters` Gaussian blobs of
/// `points_per_cluster` points with known ground truth. Centers within
/// ±12 000 and spread 900 keep every point inside ±16 000, so all
/// subtractions fit the 16-bit data-path (the "careful data sizing"
/// prerequisite).
fn cloud(clusters: usize, points_per_cluster: usize, seed: u64) -> PointCloud {
    apx_fixture::clusters::gaussian_clusters_with_range(
        clusters,
        points_per_cluster,
        900.0,
        12_000.0,
        seed,
    )
}

/// Runs `iterations` steps of Lloyd's algorithm on `cloud` through
/// `ctx`, returning the final label per point and the final centroids.
///
/// Centroids are seeded from the ground-truth centers perturbed by a
/// fixed offset, so the label indices of exact and approximate runs are
/// directly comparable (no permutation matching needed) — the paper's
/// success rate is the fraction of points landing in their true cluster.
///
/// Once an update leaves the centroids where they were, the run stops
/// and charges both distance sites the remaining iterations' counts (3
/// additions and 2 multiplications per point/centroid pair, data
/// independent). Labels, centroids and the site ledger are those of
/// running every iteration.
fn lloyd(
    cloud: &PointCloud,
    iterations: usize,
    ctx: &mut OperatorCtx,
) -> (Vec<usize>, Vec<[i64; 2]>) {
    let k = cloud.centers.len();
    let mut centroids: Vec<[i64; 2]> = cloud
        .centers
        .iter()
        .map(|c| [c[0] + 900, c[1] - 900])
        .collect();
    let mut labels = vec![0usize; cloud.points.len()];
    let mut best_d = vec![i64::MAX; labels.len()];
    let mut distances = Distances::new(&cloud.points);
    for done in 1..=iterations {
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
        for (point, &label) in cloud.points.iter().zip(&labels) {
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
            distances.charge(iterations - done, k, ctx);
            break;
        }
    }
    (labels, centroids)
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
        let clouds: Vec<PointCloud> = (0..self.sets)
            .map(|s| cloud(10, self.points, seed.wrapping_add(s as u64)))
            .collect();
        Box::new(move |ctx| {
            ctx.reset_counts();
            let mut success = 0.0;
            for cloud in &clouds {
                let (labels, _) = lloyd(cloud, 10, ctx);
                success += QualityScore::success(&cloud.labels, &labels).value();
            }
            WorkloadRun {
                score: QualityScore::SuccessRate(success / clouds.len() as f64),
                counts: ctx.counts(),
                aux: Vec::new(),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apx_operators::{OperatorConfig, OperatorCtx, SiteCounts};

    /// Success rate of the one-set workload of `points` points per
    /// cluster at `seed`, under `config`.
    fn success(points: usize, seed: u64, config: OperatorConfig) -> f64 {
        let mut ctx = OperatorCtx::for_config(&config);
        let run = KmeansWorkload::new(1, points).run(seed, &mut ctx);
        run.score.value()
    }

    #[test]
    fn exact_clustering_recovers_the_ground_truth() {
        let run = KmeansWorkload::new(1, 200).run(21, &mut OperatorCtx::exact());
        assert!(
            run.score.value() > 0.97,
            "well-separated blobs: {}",
            run.score
        );
    }

    #[test]
    fn distance_ops_are_counted_per_pair() {
        let mut ctx = OperatorCtx::exact();
        lloyd(&cloud(4, 50, 3), 2, &mut ctx);
        // per pair: 3 adds (2 subs + 1 add) and 2 muls
        let pairs = (4 * 50 * 4 * 2) as u64;
        assert_eq!(ctx.counts().muls, 2 * pairs);
        assert_eq!(ctx.counts().adds, 3 * pairs);
    }

    /// Per-iteration distance counts on `cloud`: 3 additions and 2
    /// multiplications per point/centroid pair.
    fn per_iteration(cloud: &PointCloud) -> OpCounts {
        let pairs = (cloud.points.len() * cloud.centers.len()) as u64;
        OpCounts {
            adds: 3 * pairs,
            muls: 2 * pairs,
        }
    }

    /// One run of Lloyd's algorithm: final labels and centroids, the
    /// success rate against the ground truth, the operations counted and
    /// the site ledger.
    struct Run {
        labels: Vec<usize>,
        centroids: Vec<[i64; 2]>,
        score: QualityScore,
        counts: OpCounts,
        sites: SiteCounts,
    }

    /// Runs `cloud` for 1..=10 iterations under `config`.
    fn runs_by_iterations(cloud: &PointCloud, config: OperatorConfig) -> Vec<Run> {
        (1..=10)
            .map(|m| {
                let mut ctx = OperatorCtx::for_config(&config);
                let (labels, centroids) = lloyd(cloud, m, &mut ctx);
                Run {
                    score: QualityScore::success(&cloud.labels, &labels),
                    labels,
                    centroids,
                    counts: ctx.counts(),
                    sites: ctx.site_counts(),
                }
            })
            .collect()
    }

    #[test]
    fn a_fixed_point_stops_the_run_and_charges_the_rest() {
        let cloud = cloud(10, 200, 100);
        let per = per_iteration(&cloud);
        let runs = runs_by_iterations(&cloud, OperatorConfig::AddTrunc { n: 16, q: 11 });
        // the first iteration whose update leaves the centroids in place
        let settled = (2..=10)
            .find(|&m| runs[m - 1].centroids == runs[m - 2].centroids)
            .expect("ADDt(16,11) settles within 10 iterations");
        assert!(settled < 10, "the stop skips at least one iteration");
        let last = &runs[9];
        for (m, run) in (1..=10u64).zip(&runs) {
            let counts = OpCounts {
                adds: m * per.adds,
                muls: m * per.muls,
            };
            assert_eq!(run.counts, counts, "{m} iterations");
            assert_eq!(run.sites.get(SITE_DIST_DIFF).adds, 2 * m * per.adds / 3);
            assert_eq!(run.sites.get(SITE_DIST_ACC).muls, m * per.muls);
            if m as usize >= settled {
                assert_eq!(run.labels, last.labels, "{m} iterations");
                assert_eq!(run.centroids, last.centroids, "{m} iterations");
                assert_eq!(run.score, last.score, "{m} iterations");
            }
        }
    }

    #[test]
    fn a_run_that_never_settles_records_the_same_counts() {
        let cloud = cloud(10, 200, 100);
        let per = per_iteration(&cloud);
        let runs = runs_by_iterations(&cloud, OperatorConfig::AbmUncorrected { n: 16 });
        for (m, run) in (1..=10u64).zip(&runs) {
            assert_eq!(run.counts.adds, m * per.adds, "{m} iterations");
            assert_eq!(run.counts.muls, m * per.muls, "{m} iterations");
            assert_eq!(run.sites.get(SITE_DIST_ACC).muls, m * per.muls);
        }
        assert!(
            runs.windows(2).all(|w| w[0].centroids != w[1].centroids),
            "ABMu(16) moves its centroids every iteration"
        );
    }

    #[test]
    fn moderately_sized_adders_keep_high_success() {
        // Table V: ADDt(16,11) ≈ 99 %.
        let rate = success(200, 21, OperatorConfig::AddTrunc { n: 16, q: 11 });
        assert!(rate > 0.9, "got {rate}");
    }

    #[test]
    fn aggressive_truncation_degrades_success() {
        let run_q = |q: u32| success(200, 21, OperatorConfig::AddTrunc { n: 16, q });
        let (hi, lo) = (run_q(11), run_q(4));
        assert!(hi > lo, "q=11 ({hi}) must beat q=4 ({lo})");
    }

    #[test]
    fn uncorrected_abm_collapses_clustering() {
        // Table VI: ABM success ≈ 10 % (vs ≈ 99 % for MULt/AAM).
        let good_rate = success(100, 21, OperatorConfig::MulTrunc { n: 16, q: 16 });
        let bad_rate = success(100, 21, OperatorConfig::AbmUncorrected { n: 16 });
        assert!(good_rate > 0.95, "MULt: {good_rate}");
        assert!(bad_rate < 0.6, "ABMu should collapse: {bad_rate}");
    }
}
