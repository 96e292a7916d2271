//! The arithmetic context: pluggable add/mul with per-site operation
//! counting.
//!
//! Applications (FFT, DCT, HEVC MC, K-means) are written once against
//! [`OperatorCtx`]. Built exact, around one sized fixed-point or
//! approximate configuration, or from a per-site [`SiteMap`], it degrades
//! the arithmetic exactly as the hardware would, while its operation
//! counters feed the application-level energy model (eq. (1) of the
//! paper).
//!
//! # Call-sites
//!
//! Every arithmetic call in a workload carries a stable *site tag*
//! (`"fft.butterfly"`, `"jpeg.dct_row"`, …). A site runs on the
//! configuration its [`SiteMap`] assigns, otherwise on the context's
//! fallback, and a configuration degrades only its own operation class.
//! The per-site ledger ([`OperatorCtx::site_counts`]) lets each site's
//! traffic be priced independently.
//!
//! # Scalar calls and slice forms
//!
//! Each operation comes in two forms with identical results and ledger
//! effects: the scalar `add_at`/`sub_at`/`mul_at`, and the slice forms
//! `add_n_at`/`sub_n_at`/`mul_n_at`, which run a whole slice of
//! independent operations through the serving operator's
//! [`ApxOperator::aligned_batch`] loop, with one site lookup and one
//! virtual call per slice instead of per operation. Use the slice forms
//! for data-parallel loops: a K-means distance over every point, a DCT
//! tap step over a block, an interpolation tap over every pixel of a
//! motion block. Keep the scalar calls where each operation depends on
//! the previous one (a feedback recurrence, an argmin that must decide
//! before the next operation runs), since such a loop has no slice to
//! hand over, or where only a handful of operations are in flight and
//! staging them in a slice saves nothing.
//!
//! Workload results must not depend on the form: slice a loop only along
//! boundaries that keep each site's first use, and hence the ledger's
//! first-recorded order, where the scalar loop puts it.
//!
//! # Charging without evaluating
//!
//! Every operator model is a pure function of its operands, so a workload
//! may compute a repeated result once and reuse it: the HEVC filter
//! shares each source row's horizontal pass between the pixels that read
//! it, and K-means stops at a fixed point. The ledger
//! still prices what the hardware runs, so such a workload adds the
//! operations it skipped with [`OperatorCtx::charge`], which records the
//! site on first use like any other call and evaluates nothing.

use crate::traits::{ApxOperator, OpClass};
use crate::util::{sext, to_u};
use crate::OperatorConfig;
use serde::{Deserialize, Serialize};

/// Counters of arithmetic operations executed through a context.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpCounts {
    /// Number of additions/subtractions.
    pub adds: u64,
    /// Number of multiplications.
    pub muls: u64,
}

impl OpCounts {
    /// Sum of both counters.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.adds + self.muls
    }
}

/// Per-call-site operation counters, in first-recorded order.
///
/// Workload runs are single-threaded within a sweep cell, so the insertion
/// order — and therefore the serialized form — is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SiteCounts {
    entries: Vec<(String, OpCounts)>,
}

impl SiteCounts {
    /// Counters recorded at `site` (zero if the site never fired).
    #[must_use]
    pub fn get(&self, site: &str) -> OpCounts {
        self.entries
            .iter()
            .find(|(tag, _)| tag == site)
            .map(|(_, counts)| *counts)
            .unwrap_or_default()
    }

    /// Sum over every site — equals the context's [`OperatorCtx::counts`].
    #[must_use]
    pub fn total(&self) -> OpCounts {
        sum(self.entries.iter().map(|(_, counts)| counts))
    }

    /// Iterates `(site, counts)` in first-recorded order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, OpCounts)> {
        self.entries
            .iter()
            .map(|(tag, counts)| (tag.as_str(), *counts))
    }

    /// Number of distinct sites recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no site has recorded any operation.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

fn sum<'a>(counts: impl Iterator<Item = &'a OpCounts>) -> OpCounts {
    counts.fold(OpCounts::default(), |total, c| OpCounts {
        adds: total.adds + c.adds,
        muls: total.muls + c.muls,
    })
}

/// Operation classes routed through a declared call-site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteOps {
    /// Only additions/subtractions execute at the site.
    Add,
    /// Only multiplications execute at the site.
    Mul,
    /// Both classes execute at the site.
    AddMul,
}

impl SiteOps {
    /// Human-readable class label (`add`, `mul`, `add+mul`).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            SiteOps::Add => "add",
            SiteOps::Mul => "mul",
            SiteOps::AddMul => "add+mul",
        }
    }

    /// Whether additions/subtractions may fire at the site.
    #[must_use]
    pub fn uses_add(&self) -> bool {
        matches!(self, SiteOps::Add | SiteOps::AddMul)
    }

    /// Whether multiplications may fire at the site.
    #[must_use]
    pub fn uses_mul(&self) -> bool {
        matches!(self, SiteOps::Mul | SiteOps::AddMul)
    }
}

/// A call-site a workload declares in its registry entry: the stable tag
/// its arithmetic is recorded under, the op classes that fire there, and
/// a one-line description for `apxperf list --sites`.
#[derive(Debug, Clone, Copy)]
pub struct SiteSpec {
    /// Stable tag, conventionally `<workload>.<kernel>` (e.g. `fir.mac`).
    pub tag: &'static str,
    /// Operation classes executed at the site.
    pub ops: SiteOps,
    /// One-line description of the kernel the site covers.
    pub summary: &'static str,
}

/// An ordered map from call-site tag to the [`OperatorConfig`] assigned
/// there — the heterogeneous-assignment half of the `tune` search space.
///
/// Entry order is preserved (and is the serialized order), so building a
/// map in a fixed site order yields a deterministic cache key.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SiteMap {
    entries: Vec<(String, OperatorConfig)>,
}

impl SiteMap {
    /// An empty map: every site stays exact.
    #[must_use]
    pub fn new() -> Self {
        SiteMap::default()
    }

    /// A map assigning `config` to every one of `sites`.
    #[must_use]
    pub fn uniform(sites: &[SiteSpec], config: OperatorConfig) -> Self {
        let mut map = SiteMap::new();
        for spec in sites {
            map.set(spec.tag, config);
        }
        map
    }

    /// Assigns `config` to `site`, replacing any previous assignment.
    pub fn set(&mut self, site: &str, config: OperatorConfig) {
        if let Some(idx) = self.entries.iter().position(|(tag, _)| tag == site) {
            self.entries[idx].1 = config;
        } else {
            self.entries.push((site.to_owned(), config));
        }
    }

    /// The configuration assigned to `site`, if any.
    #[must_use]
    pub fn get(&self, site: &str) -> Option<&OperatorConfig> {
        self.entries
            .iter()
            .find(|(tag, _)| tag == site)
            .map(|(_, config)| config)
    }

    /// Iterates `(site, config)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &OperatorConfig)> {
        self.entries
            .iter()
            .map(|(tag, config)| (tag.as_str(), config))
    }

    /// Number of assigned sites.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no site is assigned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// One ledger entry: a recorded site, the operators serving its
/// additions and multiplications (indices into `OperatorCtx::ops`, `None`
/// for exact), and its counters.
struct Site {
    tag: &'static str,
    adder: Option<usize>,
    multiplier: Option<usize>,
    counts: OpCounts,
}

/// The arithmetic context: integer add/mul through [`ApxOperator`]
/// models, routed per call-site, with a per-site operation ledger.
///
/// A site runs on the configuration mapped to it, otherwise on the
/// context's fallback ([`OperatorCtx::for_config`]'s configuration, or
/// exact). A configuration degrades only its own operation class: an
/// adder config leaves the site's multiplications exact, and vice versa.
/// An adder is applied at its operand width (`n` bits, wrapping) and its
/// aligned output is sign-extended back; a multiplier likewise at
/// `n×n → 2n`. Exact operations wrap in `i64`.
///
/// A map assigning one configuration to every declared site is
/// bit-for-bit equivalent to [`OperatorCtx::for_config`] of it.
///
/// # Example
/// ```
/// use apx_operators::{OperatorConfig, OperatorCtx, SiteMap};
/// let mut map = SiteMap::new();
/// map.set("fir.mac", OperatorConfig::AddTrunc { n: 16, q: 8 });
/// let mut ctx = OperatorCtx::new(&map);
/// // low bits quantized away by the 8-bit adder
/// assert_eq!(ctx.add_at("fir.mac", 0x0101, 0x0101), 0x0200);
/// assert_eq!(ctx.add_at("fir.tap", 1, 2), 3); // unmapped sites stay exact
/// assert_eq!(ctx.site_counts().get("fir.mac").adds, 1);
/// ```
pub struct OperatorCtx {
    /// One model per mapped site, in map order, then the fallback's
    /// unless the fallback is exact.
    ops: Vec<Box<dyn ApxOperator>>,
    /// Mapped site tags: `ops[i]` serves `mapped[i]`.
    mapped: Vec<String>,
    /// Every site recorded since the last reset, in first-recorded order.
    ledger: Vec<Site>,
    /// Operand and result patterns of the slice forms, reused across
    /// calls so a slice allocates only when it outgrows every earlier one.
    scratch: [Vec<u64>; 3],
}

impl OperatorCtx {
    /// A fully exact context that still counts — the golden reference for
    /// application quality metrics.
    #[must_use]
    pub fn exact() -> Self {
        OperatorCtx::new(&SiteMap::new())
    }

    /// Builds the context that puts `config` **under test** at every
    /// site: an adder configuration degrades the additions
    /// (multiplications stay exact), a multiplier configuration the
    /// multiplications — the substitution rule of every application
    /// experiment in the paper.
    ///
    /// # Example
    /// ```
    /// use apx_operators::{OperatorConfig, OperatorCtx};
    /// let mut ctx = OperatorCtx::for_config(&OperatorConfig::MulTrunc { n: 16, q: 16 });
    /// assert_eq!(ctx.add_at("w.sum", 3, 4), 7); // additions stay exact
    /// assert_eq!(ctx.counts().adds, 1);
    /// ```
    #[must_use]
    pub fn for_config(config: &OperatorConfig) -> Self {
        let mut ctx = OperatorCtx::exact();
        ctx.ops.push(config.build());
        ctx
    }

    /// Builds a context routing each site of `map` to its configuration;
    /// unmapped sites stay exact.
    #[must_use]
    pub fn new(map: &SiteMap) -> Self {
        let (mapped, ops) = map
            .iter()
            .map(|(site, config)| (site.to_owned(), config.build()))
            .unzip();
        OperatorCtx {
            ops,
            mapped,
            ledger: Vec::new(),
            scratch: Default::default(),
        }
    }

    /// `a + b` at the call-site `site`.
    #[inline]
    pub fn add_at(&mut self, site: &'static str, a: i64, b: i64) -> i64 {
        let site = self.site(site);
        site.counts.adds += 1;
        match site.adder {
            Some(op) => self.ops[op].eval_signed(a, b),
            None => a.wrapping_add(b),
        }
    }

    /// `a - b` at the call-site `site`, counted as one addition there.
    #[inline]
    pub fn sub_at(&mut self, site: &'static str, a: i64, b: i64) -> i64 {
        self.add_at(site, a, b.wrapping_neg())
    }

    /// `a * b` at the call-site `site`.
    #[inline]
    pub fn mul_at(&mut self, site: &'static str, a: i64, b: i64) -> i64 {
        let site = self.site(site);
        site.counts.muls += 1;
        match site.multiplier {
            Some(op) => self.ops[op].eval_signed(a, b),
            None => a.wrapping_mul(b),
        }
    }

    /// Slice form of [`OperatorCtx::add_at`]: `out[i] = a[i] + b[i]` at
    /// `site`, lane for lane what `add_at` returns, with the site looked
    /// up once and its ledger advanced by `a.len()` additions. An empty
    /// slice records nothing, exactly like a loop of zero `add_at` calls.
    ///
    /// # Example
    /// ```
    /// use apx_operators::{OperatorConfig, OperatorCtx};
    /// let mut ctx = OperatorCtx::for_config(&OperatorConfig::AddTrunc { n: 16, q: 8 });
    /// let mut out = [0; 2];
    /// ctx.add_n_at("w.sum", &[0x0101, 7], &[0x0101, -7], &mut out);
    /// assert_eq!(out, [ctx.add_at("w.sum", 0x0101, 0x0101), ctx.add_at("w.sum", 7, -7)]);
    /// assert_eq!(ctx.site_counts().get("w.sum").adds, 4);
    /// ```
    ///
    /// # Panics
    /// Panics unless `a`, `b` and `out` have equal lengths.
    pub fn add_n_at(&mut self, site: &'static str, a: &[i64], b: &[i64], out: &mut [i64]) {
        self.apply_n(site, OpClass::Adder, a, b, false, out);
    }

    /// Slice form of [`OperatorCtx::sub_at`]: `out[i] = a[i] - b[i]` at
    /// `site`, counted as `a.len()` additions there (see
    /// [`OperatorCtx::add_n_at`]).
    ///
    /// # Panics
    /// Panics unless `a`, `b` and `out` have equal lengths.
    pub fn sub_n_at(&mut self, site: &'static str, a: &[i64], b: &[i64], out: &mut [i64]) {
        self.apply_n(site, OpClass::Adder, a, b, true, out);
    }

    /// Slice form of [`OperatorCtx::mul_at`]: `out[i] = a[i] * b[i]` at
    /// `site`, counted as `a.len()` multiplications there (see
    /// [`OperatorCtx::add_n_at`]).
    ///
    /// # Panics
    /// Panics unless `a`, `b` and `out` have equal lengths.
    pub fn mul_n_at(&mut self, site: &'static str, a: &[i64], b: &[i64], out: &mut [i64]) {
        self.apply_n(site, OpClass::Multiplier, a, b, false, out);
    }

    /// The slice forms' one path: records `a.len()` operations of `class`
    /// at `tag`, then runs the serving operator over the whole slice
    /// (`to_u` → [`ApxOperator::aligned_batch`] → `sext`, the batched
    /// twin of [`ApxOperator::eval_signed`]) or wraps in `i64` when the
    /// class stays exact there. `negate_b` turns the addition into
    /// `a - b`.
    fn apply_n(
        &mut self,
        tag: &'static str,
        class: OpClass,
        a: &[i64],
        b: &[i64],
        negate_b: bool,
        out: &mut [i64],
    ) {
        assert!(
            a.len() == b.len() && a.len() == out.len(),
            "slice length mismatch"
        );
        if a.is_empty() {
            return;
        }
        let site = self.site(tag);
        let serving = match class {
            OpClass::Adder => {
                site.counts.adds += a.len() as u64;
                site.adder
            }
            OpClass::Multiplier => {
                site.counts.muls += a.len() as u64;
                site.multiplier
            }
        };
        let b_lane = |y: i64| if negate_b { y.wrapping_neg() } else { y };
        let Some(op) = serving else {
            let exact = |x: i64, y: i64| match class {
                OpClass::Adder => x.wrapping_add(b_lane(y)),
                OpClass::Multiplier => x.wrapping_mul(y),
            };
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *o = exact(x, y);
            }
            return;
        };
        let op = &*self.ops[op];
        let (n, bits) = (op.input_bits(), op.ref_bits());
        let [ua, ub, uo] = &mut self.scratch;
        ua.clear();
        ua.extend(a.iter().map(|&x| to_u(x, n)));
        ub.clear();
        ub.extend(b.iter().map(|&y| to_u(b_lane(y), n)));
        uo.resize(a.len(), 0);
        op.aligned_batch(ua, ub, uo);
        for (o, &u) in out.iter_mut().zip(uo.iter()) {
            *o = sext(u, bits);
        }
    }

    /// Adds `counts` to the ledger of `site` without evaluating anything:
    /// the ledger effect of running that many operations there. A zero
    /// count records nothing, exactly like an empty slice; otherwise a new
    /// site is recorded after those already in the ledger.
    ///
    /// # Example
    /// ```
    /// use apx_operators::{OpCounts, OperatorCtx};
    /// let mut ctx = OperatorCtx::exact();
    /// ctx.charge("w.skipped", OpCounts::default());
    /// assert!(ctx.site_counts().is_empty());
    /// ctx.charge("w.skipped", OpCounts { adds: 6, muls: 7 });
    /// assert_eq!(ctx.site_counts().get("w.skipped"), OpCounts { adds: 6, muls: 7 });
    /// ```
    pub fn charge(&mut self, site: &'static str, counts: OpCounts) {
        if counts.total() == 0 {
            return;
        }
        let site = self.site(site);
        site.counts.adds += counts.adds;
        site.counts.muls += counts.muls;
    }

    /// Operations executed since the last reset.
    #[must_use]
    pub fn counts(&self) -> OpCounts {
        sum(self.ledger.iter().map(|site| &site.counts))
    }

    /// Per-site breakdown of [`OperatorCtx::counts`], in first-recorded
    /// order.
    #[must_use]
    pub fn site_counts(&self) -> SiteCounts {
        SiteCounts {
            entries: self
                .ledger
                .iter()
                .map(|site| (site.tag.to_owned(), site.counts))
                .collect(),
        }
    }

    /// Resets the operation counters, per-site ledger included.
    pub fn reset_counts(&mut self) {
        self.ledger.clear();
    }

    /// The ledger entry of `tag`, recording the site on first use. Tags
    /// are `&'static str` constants, so comparing addresses finds the
    /// entry without a string compare; string equality is the fallback
    /// for a tag whose constant was instantiated at another address.
    #[inline]
    fn site(&mut self, tag: &'static str) -> &mut Site {
        let idx = match self.ledger.iter().position(|s| std::ptr::eq(s.tag, tag)) {
            Some(idx) => idx,
            None => self.find_or_record(tag),
        };
        &mut self.ledger[idx]
    }

    /// The ledger index of `tag` by string equality, appending the site
    /// with the operators that serve it when it is new.
    #[cold]
    fn find_or_record(&mut self, tag: &'static str) -> usize {
        if let Some(idx) = self.ledger.iter().position(|s| s.tag == tag) {
            return idx;
        }
        let fallback = (self.ops.len() > self.mapped.len()).then_some(self.mapped.len());
        let op = self.mapped.iter().position(|site| site == tag).or(fallback);
        let serving = |class| op.filter(|&i| self.ops[i].op_class() == class);
        let site = Site {
            tag,
            adder: serving(OpClass::Adder),
            multiplier: serving(OpClass::Multiplier),
            counts: OpCounts::default(),
        };
        self.ledger.push(site);
        self.ledger.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_ctx_counts_and_computes() {
        let mut ctx = OperatorCtx::exact();
        assert_eq!(ctx.add_at("w.a", 2, 3), 5);
        assert_eq!(ctx.mul_at("w.a", 4, -5), -20);
        assert_eq!(ctx.sub_at("w.b", 10, 3), 7);
        assert_eq!(ctx.counts(), OpCounts { adds: 2, muls: 1 });
        ctx.reset_counts();
        assert_eq!(ctx.counts().total(), 0);
    }

    #[test]
    fn operator_ctx_with_exact_models_matches_exact_ctx() {
        let mut ctx = OperatorCtx::for_config(&OperatorConfig::AddExact { n: 16 });
        // stay within 16-bit operand range
        assert_eq!(ctx.add_at("w.a", 1000, -250), 750);
        assert_eq!(ctx.mul_at("w.a", -123, 45), -123 * 45);
    }

    #[test]
    fn truncated_multiplier_quantizes_products() {
        let mut ctx = OperatorCtx::for_config(&OperatorConfig::MulTrunc { n: 16, q: 16 });
        let p = ctx.mul_at("w.a", 0x1234, 0x0321);
        let exact = 0x1234i64 * 0x0321;
        assert_eq!(p, exact & !0xFFFF, "low 16 product bits truncated");
    }

    #[test]
    fn operator_ctx_records_per_site_traffic_in_first_recorded_order() {
        let mut ctx = OperatorCtx::for_config(&OperatorConfig::AddTrunc { n: 16, q: 8 });
        ctx.add_at("w.alpha", 1, 2);
        ctx.add_at("w.alpha", 3, 4);
        ctx.sub_at("w.beta", 9, 4);
        ctx.mul_at("w.beta", 2, 3);
        // the same tag at another address lands in the same entry
        ctx.mul_at(String::from("w.alpha").leak(), 5, 6);
        let sites = ctx.site_counts();
        assert_eq!(sites.get("w.alpha"), OpCounts { adds: 2, muls: 1 });
        assert_eq!(sites.get("w.beta"), OpCounts { adds: 1, muls: 1 });
        let order: Vec<&str> = sites.iter().map(|(site, _)| site).collect();
        assert_eq!(order, ["w.alpha", "w.beta"]);
        assert_eq!(sites.total(), ctx.counts());
        ctx.reset_counts();
        assert!(ctx.site_counts().is_empty());
    }

    #[test]
    fn a_zero_charge_records_no_site() {
        let mut ctx = OperatorCtx::exact();
        ctx.charge("w.a", OpCounts::default());
        assert!(ctx.site_counts().is_empty());
        assert_eq!(ctx.counts(), OpCounts::default());
    }

    #[test]
    fn charging_a_new_site_appends_it_after_the_recorded_ones() {
        let mut ctx = OperatorCtx::exact();
        ctx.add_at("w.a", 1, 2);
        ctx.mul_at("w.b", 3, 4);
        ctx.charge("w.c", OpCounts { adds: 0, muls: 5 });
        ctx.charge("w.a", OpCounts { adds: 2, muls: 0 });
        let sites = ctx.site_counts();
        let order: Vec<&str> = sites.iter().map(|(site, _)| site).collect();
        assert_eq!(order, ["w.a", "w.b", "w.c"]);
        assert_eq!(sites.get("w.a"), OpCounts { adds: 3, muls: 0 });
        assert_eq!(sites.get("w.c"), OpCounts { adds: 0, muls: 5 });
    }

    #[test]
    fn charging_matches_running_the_ops() {
        let config = OperatorConfig::Aca { n: 16, p: 6 };
        let (mut run, mut charged) = (
            OperatorCtx::for_config(&config),
            OperatorCtx::for_config(&config),
        );
        for n in [0, 1, 5, 64, 65] {
            let (a, b) = (vec![3i64; n], vec![-7i64; n]);
            let mut out = vec![0i64; n];
            run.add_n_at("w.sum", &a, &b, &mut out);
            run.mul_n_at("w.prod", &a, &b, &mut out);
            run.mul_n_at("w.sum", &a, &b, &mut out);
            let n = n as u64;
            charged.charge("w.sum", OpCounts { adds: n, muls: 0 });
            charged.charge("w.prod", OpCounts { adds: 0, muls: n });
            charged.charge("w.sum", OpCounts { adds: 0, muls: n });
            assert_eq!(run.site_counts(), charged.site_counts(), "n = {n}");
        }
    }

    #[test]
    fn site_map_replaces_and_preserves_order() {
        let mut map = SiteMap::new();
        map.set("a", OperatorConfig::AddTrunc { n: 16, q: 8 });
        map.set("b", OperatorConfig::Aca { n: 16, p: 8 });
        map.set("a", OperatorConfig::AddTrunc { n: 16, q: 12 });
        assert_eq!(map.len(), 2);
        assert_eq!(
            map.get("a"),
            Some(&OperatorConfig::AddTrunc { n: 16, q: 12 })
        );
        let order: Vec<&str> = map.iter().map(|(site, _)| site).collect();
        assert_eq!(order, ["a", "b"]);
    }

    #[test]
    fn site_map_routes_per_site_and_leaves_unmapped_sites_exact() {
        let mut map = SiteMap::new();
        map.set("w.coarse", OperatorConfig::AddTrunc { n: 16, q: 8 });
        map.set("w.prod", OperatorConfig::MulTrunc { n: 16, q: 16 });
        let mut ctx = OperatorCtx::new(&map);
        // mapped adder site quantizes
        assert_eq!(ctx.add_at("w.coarse", 0x0101, 0x0101), 0x0200);
        // an adder-config site leaves its multiplications exact
        assert_eq!(ctx.mul_at("w.coarse", 7, 6), 42);
        // mapped multiplier site truncates the product
        let exact = 0x1234i64 * 0x0321;
        assert_eq!(ctx.mul_at("w.prod", 0x1234, 0x0321), exact & !0xFFFF);
        // unmapped sites stay exact
        assert_eq!(ctx.add_at("w.other", 0x0101, 0x0101), 0x0202);
        assert_eq!(ctx.counts(), OpCounts { adds: 2, muls: 2 });
        assert_eq!(ctx.site_counts().total(), ctx.counts());
    }

    #[test]
    fn uniform_site_map_matches_for_config() {
        const SITES: &[SiteSpec] = &[
            SiteSpec {
                tag: "w.a",
                ops: SiteOps::AddMul,
                summary: "test site",
            },
            SiteSpec {
                tag: "w.b",
                ops: SiteOps::Add,
                summary: "test site",
            },
        ];
        let config = OperatorConfig::AddTrunc { n: 16, q: 9 };
        let mut mapped = OperatorCtx::new(&SiteMap::uniform(SITES, config));
        let mut uniform = OperatorCtx::for_config(&config);
        for (a, b) in [(0x0101, 0x0303), (-77, 1234), (0x7FFF, 1)] {
            assert_eq!(
                mapped.add_at("w.a", a, b),
                uniform.add_at("w.a", a, b),
                "adds must agree at ({a},{b})"
            );
            assert_eq!(mapped.mul_at("w.a", a, b), uniform.mul_at("w.a", a, b));
            assert_eq!(mapped.sub_at("w.b", a, b), uniform.sub_at("w.b", a, b));
        }
        assert_eq!(mapped.counts(), uniform.counts());
        assert_eq!(mapped.site_counts(), uniform.site_counts());
    }
}
