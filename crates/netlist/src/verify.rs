//! Functional equivalence checking between a netlist and a reference
//! closure — the "Verification" step of the APXPERF flow, which
//! cross-checks the hardware (VHDL, here: gate-level) and software (C,
//! here: Rust functional) models of every operator before fusing their
//! results.
//!
//! Both the exhaustive and the random checks are **sharded**: the vector
//! space (or sample count) is split into fixed-size chunks via
//! [`apx_engine::plan_shards_sized`], each with its own RNG stream, and
//! the chunks run on an [`Engine`]. The shard plan and streams never
//! depend on the thread count, and a mismatch is always reported from the
//! lowest-indexed failing shard — so the verdict (and the reported
//! counterexample) is identical for any worker count.

use crate::ir::{NetId, Netlist};
use crate::sim::Sim64;
use apx_engine::{plan_shards_sized, shard_seed, Engine, Shard};
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Vectors per verification shard: large enough to amortize a task spawn
/// over thousands of 64-lane sweeps, small enough to parallelize the
/// default sample counts.
const VERIFY_SHARD: usize = 16_384;

/// Stream id mixed into [`shard_seed`] for random verification draws.
const STREAM_VERIFY: u64 = 0x5EC0_17F1;

/// A mismatch between the netlist and the reference model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyMismatchError {
    /// Input bus values at the failing vector, in bus declaration order.
    pub inputs: Vec<(String, u64)>,
    /// Expected concatenated output value.
    pub expected: u64,
    /// Value produced by the netlist.
    pub got: u64,
}

impl fmt::Display for VerifyMismatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "netlist mismatch: inputs {:?} expected {:#x}, got {:#x}",
            self.inputs, self.expected, self.got
        )
    }
}

impl Error for VerifyMismatchError {}

/// A reusable batch checker: one simulator plus every per-batch buffer,
/// allocated once per shard so the 64-lane loop itself never touches the
/// heap.
struct BatchChecker<'n> {
    nl: &'n Netlist,
    sim: Sim64<'n>,
    /// Pre-resolved net slices of the `a` and `b` input buses — resolved
    /// once here so the per-window loop never repeats the by-name bus
    /// lookups.
    input_nets: [&'n [NetId]; 2],
    /// Pre-resolved (net slice, concat shift) per output bus.
    output_nets: Vec<(&'n [NetId], usize)>,
    /// Per-lane concatenated netlist outputs of the current batch.
    got: Vec<u64>,
    /// Scratch for one output bus worth of lane values.
    vals: Vec<u64>,
    /// The `a` and `b` lane values of the current batch.
    operands: [Vec<u64>; 2],
    /// Per-lane expected outputs of the current batch.
    expected: Vec<u64>,
}

impl<'n> BatchChecker<'n> {
    fn new(nl: &'n Netlist) -> Self {
        let mut shift = 0;
        let output_nets = nl
            .outputs()
            .iter()
            .map(|(_, bus)| {
                let entry = (bus.as_slice(), shift);
                shift += bus.len();
                entry
            })
            .collect();
        let inputs = nl.inputs();
        BatchChecker {
            nl,
            sim: Sim64::new(nl),
            input_nets: [inputs[0].1.as_slice(), inputs[1].1.as_slice()],
            output_nets,
            got: Vec::new(),
            vals: Vec::new(),
            operands: [Vec::new(), Vec::new()],
            expected: Vec::new(),
        }
    }

    /// Checks `len` vectors in 64-lane batches: `source(lanes, a, b)`
    /// appends each batch's operands to the cleared `a` and `b` buffers,
    /// and `f` fills the expected outputs from them.
    fn sweep(
        &mut self,
        len: usize,
        mut source: impl FnMut(usize, &mut Vec<u64>, &mut Vec<u64>),
        f: impl Fn(&[u64], &[u64], &mut [u64]),
    ) -> Result<(), VerifyMismatchError> {
        let mut done = 0;
        while done < len {
            let lanes = (len - done).min(64);
            let [a, b] = &mut self.operands;
            a.clear();
            b.clear();
            source(lanes, a, b);
            self.expected.clear();
            self.expected.resize(lanes, 0);
            f(a, b, &mut self.expected);
            self.check()?;
            done += lanes;
        }
        Ok(())
    }

    /// Simulates the loaded `operands` batch and compares the
    /// concatenated outputs against the loaded `expected` values.
    fn check(&mut self) -> Result<(), VerifyMismatchError> {
        let lanes = self.expected.len();
        for (nets, vals) in self.input_nets.iter().zip(&self.operands) {
            self.sim.set_bus_lanes_at(nets, vals);
        }
        self.sim.run();
        self.got.clear();
        self.got.resize(lanes, 0);
        for &(nets, shift) in &self.output_nets {
            self.sim.read_bus_lanes_at_into(nets, lanes, &mut self.vals);
            for (a, v) in self.got.iter_mut().zip(&self.vals) {
                *a |= v << shift;
            }
        }
        for (lane, (&g, &e)) in self.got.iter().zip(&self.expected).enumerate() {
            if g != e {
                return Err(VerifyMismatchError {
                    inputs: self
                        .nl
                        .inputs()
                        .iter()
                        .zip(&self.operands)
                        .map(|((n, _), vals)| (n.clone(), vals[lane]))
                        .collect(),
                    expected: e,
                    got: g,
                });
            }
        }
        Ok(())
    }
}

/// Widths of the `a` and `b` input buses.
///
/// # Panics
/// Panics if the netlist does not have exactly two input buses or its
/// concatenated outputs exceed 64 bits.
fn operand_widths(nl: &Netlist) -> (usize, usize) {
    let inputs = nl.inputs();
    assert_eq!(inputs.len(), 2, "expected exactly two input buses");
    let total: usize = nl.outputs().iter().map(|(_, b)| b.len()).sum();
    assert!(total <= 64, "concatenated outputs exceed 64 bits");
    (inputs[0].1.len(), inputs[1].1.len())
}

/// All-ones mask of the low `width` bits.
fn mask(width: usize) -> u64 {
    if width >= 64 {
        !0
    } else {
        (1u64 << width) - 1
    }
}

/// Checks `count` vectors against `f` in [`VERIFY_SHARD`]-sized shards
/// on `engine`; `source(shard)` yields the shard's operand source (see
/// [`BatchChecker::sweep`]). Shards above the lowest failing one are
/// skipped, and the lowest failing shard's mismatch is returned, so the
/// verdict is independent of the worker count.
fn verify_sharded<S>(
    nl: &Netlist,
    engine: &Engine,
    count: usize,
    source: impl Fn(Shard) -> S + Sync,
    f: impl Fn(&[u64], &[u64], &mut [u64]) + Sync,
) -> Result<(), VerifyMismatchError>
where
    S: FnMut(usize, &mut Vec<u64>, &mut Vec<u64>),
{
    let shards = plan_shards_sized(count, VERIFY_SHARD);
    let min_failed = AtomicUsize::new(usize::MAX);
    let results = engine.map_indexed(shards.len(), |i| {
        if i > min_failed.load(Ordering::Relaxed) {
            // A lower shard already failed; this shard's verdict cannot
            // win, so skip the simulation (deterministic: shards at or
            // below the lowest failing index always run in full).
            return Ok(());
        }
        let shard = shards[i];
        let result = BatchChecker::new(nl).sweep(shard.len, source(shard), &f);
        if result.is_err() {
            min_failed.fetch_min(i, Ordering::Relaxed);
        }
        result
    });
    results.into_iter().find(Result::is_err).unwrap_or(Ok(()))
}

/// Exhaustively verifies a two-operand netlist (buses in declaration
/// order are `a`, then `b`) against a batched reference: `f` fills a
/// whole batch of expected outputs (`out[i] = expected(a[i], b[i])`)
/// per 64-lane simulation window, so the model runs one monomorphized
/// loop per window rather than one call per vector.
///
/// Vectors are swept in concatenated-word order (`a` in the low bits),
/// split into fixed chunks verified on `engine`.
///
/// # Errors
/// Returns the mismatch of the lowest failing range.
///
/// # Panics
/// Panics if the netlist does not have exactly two input buses, the
/// total input width exceeds 24 bits, or the concatenated outputs exceed
/// 64 bits.
pub fn verify_exhaustive2_batch_with(
    nl: &Netlist,
    engine: &Engine,
    f: impl Fn(&[u64], &[u64], &mut [u64]) + Sync,
) -> Result<(), VerifyMismatchError> {
    let (wa, wb) = operand_widths(nl);
    let total = wa + wb;
    assert!(total <= 24, "exhaustive verification over {total} bits");
    let mask_a = mask(wa);
    let source = |shard: Shard| {
        let mut v = shard.start as u64;
        move |lanes: usize, a: &mut Vec<u64>, b: &mut Vec<u64>| {
            let words = v..v + lanes as u64;
            a.extend(words.clone().map(|x| x & mask_a));
            b.extend(words.map(|x| x >> wa));
            v += lanes as u64;
        }
    };
    verify_sharded(nl, engine, 1 << total, source, f)
}

/// Verifies a two-operand netlist on `samples` uniform random vectors
/// against a batched reference (see [`verify_exhaustive2_batch_with`]).
///
/// The samples are split into fixed chunks, each drawn from its own
/// stream derived from `seed` (per 64-lane batch: every `a` lane, then
/// every `b` lane) and run on `engine`.
///
/// # Errors
/// Returns the mismatch of the lowest failing shard.
///
/// # Panics
/// Panics if the netlist does not have exactly two input buses or the
/// concatenated outputs exceed 64 bits.
pub fn verify_random2_batch_with(
    nl: &Netlist,
    samples: usize,
    seed: u64,
    engine: &Engine,
    f: impl Fn(&[u64], &[u64], &mut [u64]) + Sync,
) -> Result<(), VerifyMismatchError> {
    use rand::{RngExt, SeedableRng};
    let (wa, wb) = operand_widths(nl);
    let (mask_a, mask_b) = (mask(wa), mask(wb));
    let source = |shard: Shard| {
        let shard_seed = shard_seed(seed, STREAM_VERIFY, shard.index as u64);
        let mut rng = rand::rngs::StdRng::seed_from_u64(shard_seed);
        move |lanes: usize, a: &mut Vec<u64>, b: &mut Vec<u64>| {
            a.extend((0..lanes).map(|_| rng.random::<u64>() & mask_a));
            b.extend((0..lanes).map(|_| rng.random::<u64>() & mask_b));
        }
    };
    verify_sharded(nl, engine, samples, source, f)
}

/// Test adapter lifting a per-lane reference `f(a, b)` into the batched
/// form the entry points take.
#[cfg(test)]
pub(crate) fn batched(
    f: impl Fn(u64, u64) -> u64 + Sync,
) -> impl Fn(&[u64], &[u64], &mut [u64]) + Sync {
    move |av, bv, out| {
        for ((&a, &b), o) in av.iter().zip(bv).zip(out.iter_mut()) {
            *o = f(a, b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;

    fn adder(width: usize) -> Netlist {
        let mut b = NetlistBuilder::new("rca");
        let a = b.input_bus("a", width);
        let y = b.input_bus("b", width);
        let zero = b.tie0();
        let (sum, cout) = b.ripple_adder(&a, &y, zero);
        b.output_bus("sum", &sum);
        b.output_bus("cout", &[cout]);
        b.finish()
    }

    #[test]
    fn exhaustive_accepts_correct_reference() {
        let nl = adder(5);
        let engine = Engine::single_threaded();
        verify_exhaustive2_batch_with(&nl, &engine, batched(|a, b| (a + b) & 0x3F)).unwrap();
    }

    #[test]
    fn exhaustive_rejects_wrong_reference() {
        let nl = adder(3);
        let engine = Engine::single_threaded();
        let err = verify_exhaustive2_batch_with(&nl, &engine, batched(|a, b| (a + b + 1) & 0xF))
            .unwrap_err();
        assert_eq!(err.inputs.len(), 2);
        // the very first vector (0,0) already mismatches: expected 1, got 0
        assert_eq!(err.expected, 1);
        assert_eq!(err.got, 0);
    }

    #[test]
    fn random_verification_matches_exhaustive_result() {
        let nl = adder(16);
        let engine = Engine::single_threaded();
        verify_random2_batch_with(&nl, 5_000, 7, &engine, batched(|a, b| (a + b) & 0x1_FFFF))
            .unwrap();
        // no samples: nothing to check, and the reference is never called
        verify_random2_batch_with(&nl, 0, 7, &engine, |_, _, _| panic!("reference called"))
            .unwrap();
    }

    #[test]
    #[should_panic(expected = "exhaustive verification over 25 bits")]
    fn exhaustive_rejects_more_than_24_input_bits() {
        let mut b = NetlistBuilder::new("wide");
        let a = b.input_bus("a", 13);
        let _ = b.input_bus("b", 12);
        b.output_bus("y", &a);
        let nl = b.finish();
        let _ = verify_exhaustive2_batch_with(&nl, &Engine::single_threaded(), |_, _, _| {});
    }

    #[test]
    #[should_panic(expected = "expected exactly two input buses")]
    fn three_input_buses_are_rejected() {
        let mut b = NetlistBuilder::new("fa");
        let a = b.input_bus("a", 1);
        let c = b.input_bus("b", 1);
        let d = b.input_bus("cin", 1);
        let (s, co) = b.full_adder(a[0], c[0], d[0]);
        b.output_bus("y", &[s, co]);
        let nl = b.finish();
        let _ = verify_random2_batch_with(&nl, 64, 1, &Engine::single_threaded(), |_, _, _| {});
    }

    #[test]
    fn parallel_verdicts_match_serial_for_any_thread_count() {
        let nl = adder(8);
        let good = |a: u64, b: u64| (a + b) & 0x1FF;
        let bad = |a: u64, b: u64| (a + b + u64::from(a == 3 && b == 5)) & 0x1FF;
        // a 1-in-256 fault so the random check hits it with certainty
        let bad_often = |a: u64, b: u64| (a + b + u64::from(a == 3)) & 0x1FF;
        // 40_000 and 50_000 span several shards that all fail under
        // `bad_often`; VERIFY_SHARD + 65 is one full shard, then a partial
        // shard ending in a partial batch. Shard 0 is the same stream for
        // every size, so verifying it alone yields the counterexample the
        // lowest failing shard must report.
        let sizes = [40_000, 50_000, VERIFY_SHARD + 65];
        let serial = Engine::single_threaded();
        let shard0 = verify_random2_batch_with(&nl, VERIFY_SHARD, 9, &serial, batched(bad_often))
            .unwrap_err();
        for threads in [1, 2, 8] {
            let engine = Engine::new(threads);
            verify_exhaustive2_batch_with(&nl, &engine, batched(good)).unwrap();
            // the unique failing vector is the reported counterexample
            assert_eq!(
                verify_exhaustive2_batch_with(&nl, &engine, batched(bad)).unwrap_err(),
                VerifyMismatchError {
                    inputs: vec![("a".to_owned(), 3), ("b".to_owned(), 5)],
                    expected: 9,
                    got: 8,
                },
                "threads={threads}"
            );
            for samples in sizes {
                verify_random2_batch_with(&nl, samples, 9, &engine, batched(good)).unwrap();
                assert_eq!(
                    verify_random2_batch_with(&nl, samples, 9, &engine, batched(bad_often))
                        .unwrap_err(),
                    shard0,
                    "threads={threads} samples={samples}"
                );
            }
        }
    }
}
