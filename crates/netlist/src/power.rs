//! Gate-level power estimation by transport-delay simulation, 64 lanes
//! at a time.
//!
//! The simulation applies a stream of random input vectors to the
//! netlist and counts **every** output transition — glitches included,
//! which zero-delay simulation would miss and which dominate the
//! activity of deep structures like array multipliers. Transition counts
//! are weighted by each cell's switching energy and converted to power at
//! the library's operating point, mirroring the Modelsim-activity →
//! PrimeTime step of the original APXPERF flow.
//!
//! # The 64-lane levelized kernel
//!
//! Net values are one `u64` word per net — bit `l` belongs to lane `l` —
//! and every gate evaluation goes through [`apx_cells::CellKind::eval64`],
//! so one evaluation services up to 64 independent vector streams at
//! once. Glitch semantics are untouched: transport delays are a property
//! of the gate (see [`crate::sta::quantize_delays`]), not of the lane, so
//! all lanes share one delay model and their evaluations can be merged.
//!
//! Each applied step (one new word per primary input) is one pass over
//! the gates in index order, which is topological order. Every net keeps
//! a log of the step's changes: `(time, diff)` entries in ascending time,
//! `diff` holding the lanes that flip, so a net's value at any instant is
//! its step-start word XOR the diffs logged up to then. When the pass
//! reaches a gate, its drivers have lower indices and have logged
//! everything it will read, so the gate's evaluation instants are known:
//! each change time of each input, plus the delay ticks of each valid
//! output pin, with the changed lanes OR-merged per instant. At each
//! instant, in ascending order, the gate evaluates on its inputs as of
//! that instant (inclusive), both outputs take the new value in the
//! merged lanes only, and the lanes that flip are counted with
//! `popcount` and logged. Every delay is at least one tick, so no gate
//! reacts at the instant its input changes — which is what lets one
//! pass settle the whole step.
//!
//! # Lane sub-stream semantics
//!
//! The canonical vector-stream decomposition (schema-relevant — see
//! below):
//!
//! 1. the `vectors` stream splits into fixed shards of
//!    [`POWER_SHARD_VECTORS`] ([`apx_engine::plan_shards_sized`]), each
//!    with its own RNG stream derived from the master seed;
//! 2. each shard's vectors split across [`apx_engine::SIM_LANES`] (64)
//!    lane sub-streams ([`apx_engine::plan_lanes`]: lane `l` carries
//!    `len/64` vectors plus one of the first `len % 64` remainders);
//! 3. every non-empty lane starts from the quiescent all-zeros-input
//!    state, draws one **uncounted warm-up vector** from its own RNG
//!    stream (`shard_seed(shard_stream, STREAM_POWER_LANE, lane)`), then
//!    its counted vectors, one draw of every primary-input bit per
//!    vector.
//!
//! The decomposition is a pure function of the vector count — thread
//! count and batch width never enter — so reports stay bit-identical
//! for any worker count.
//!
//! # The scalar reference
//!
//! [`transition_counts_reference`] simulates the *same* semantics one
//! lane at a time with the plain 1-bit [`apx_cells::CellKind::eval`] and
//! a conventional event queue: a **timing wheel** keyed on the delay
//! ticks (`max_ticks + 1` circular slots plus a heap of the distinct
//! non-empty timestamps), scheduling deduplicated per `(t, gate)`, and
//! each timestamp drained in ascending gate index. Sharing no code with
//! the levelized kernel beyond the cell functions, it pins that kernel
//! bit-exactly (per-gate transition counts).
//!
//! Relative to the pre-bitslice estimator (one serial vector chain per
//! shard), absolute transition totals legitimately change: the stream
//! decomposition and warm-up structure are different, though the
//! per-vector statistics agree to within sampling noise (a regression
//! test pins the old estimator's `transitions_per_op` on RCA and
//! array-multiplier fixtures to a few percent). That is why
//! `REPORT_SCHEMA_VERSION` / `APP_SWEEP_SCHEMA_VERSION` were bumped:
//! every pre-bitslice cache blob misses cleanly instead of resurfacing
//! numbers from the old stream definition.

use crate::ir::{NetId, Netlist};
use crate::sta::{quantize_delays, DelayTicks};
use apx_cells::Library;
use apx_engine::{plan_lanes, plan_shards_sized, shard_seed, Engine, SIM_LANES};
use rand::{rngs::StdRng, RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Vectors per power shard: gate-level vectors are orders of magnitude
/// more expensive than error samples, so shards are much smaller than the
/// generic [`apx_engine::SHARD_SAMPLES`] to expose parallelism at the
/// default vector counts.
pub const POWER_SHARD_VECTORS: usize = 256;

/// Stream id mixed into [`shard_seed`] for power-vector draws.
const STREAM_POWER: u64 = 0xA0_3E57;

/// Stream id mixed into [`shard_seed`] (keyed by the shard's own stream
/// seed) for the per-lane RNG sub-streams.
const STREAM_POWER_LANE: u64 = 0x1A_4E5;

/// Configuration for power estimation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PowerSettings {
    /// Number of random vectors applied (after per-lane warm-up; see the
    /// [module docs](self) for the lane sub-stream semantics).
    pub vectors: usize,
    /// RNG seed for vector generation.
    pub seed: u64,
}

impl Default for PowerSettings {
    fn default() -> Self {
        PowerSettings {
            vectors: 2_000,
            seed: 0xA9CE55,
        }
    }
}

/// Result of the activity-based power estimation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerReport {
    /// Dynamic power in mW at the library's operating frequency.
    pub dynamic_power_mw: f64,
    /// Static leakage in µW.
    pub leakage_uw: f64,
    /// Mean switching energy per applied vector (per operation), in pJ.
    pub energy_per_op_pj: f64,
    /// Mean number of gate-output transitions per vector (glitches
    /// included) — a useful activity diagnostic.
    pub transitions_per_op: f64,
}

impl PowerReport {
    /// Total power (dynamic + leakage) in mW.
    #[must_use]
    pub fn total_power_mw(&self) -> f64 {
        self.dynamic_power_mw + self.leakage_uw / 1000.0
    }
}

/// Compressed-sparse-row fanout map of the scalar reference: gate
/// indices driven by each net.
struct Fanout {
    offsets: Vec<u32>,
    gates: Vec<u32>,
}

impl Fanout {
    fn new(nl: &Netlist) -> Self {
        let mut counts = vec![0u32; nl.num_nets() + 1];
        for gate in nl.gates() {
            for input in gate.inputs() {
                counts[input.index() + 1] += 1;
            }
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let offsets = counts.clone();
        let mut fill = counts;
        let mut gates = vec![0u32; *offsets.last().unwrap() as usize];
        for (gi, gate) in nl.gates().iter().enumerate() {
            for input in gate.inputs() {
                let slot = &mut fill[input.index()];
                gates[*slot as usize] = gi as u32;
                *slot += 1;
            }
        }
        Fanout { offsets, gates }
    }

    #[inline]
    fn of(&self, net: usize) -> &[u32] {
        &self.gates[self.offsets[net] as usize..self.offsets[net + 1] as usize]
    }
}

/// Timing wheel: the event queue of the scalar reference simulation.
///
/// Every pending event lies within `horizon` (the largest per-pin gate
/// delay in ticks) of the current time, so `horizon + 1` circular slots
/// indexed by `t % len` hold the events of each distinct timestamp
/// without collision. A small heap of the distinct non-empty timestamps
/// replaces per-event heap traffic; a per-gate stamp dedups scheduling
/// per `(t, gate)` so one evaluation services every input change
/// arriving at that instant.
struct Wheel {
    /// `slots[t % len]` holds the gate indices queued for time `t`.
    slots: Vec<Vec<u32>>,
    /// Distinct non-empty timestamps (min-heap).
    times: BinaryHeap<Reverse<u64>>,
    /// Per gate: the timestamp it was last queued for.
    sched_t: Vec<u64>,
    /// Whether `(t, gate)` scheduling is deduplicated (the reference's
    /// normal mode; the off switch exists to prove dedup never changes
    /// counts).
    dedup: bool,
}

impl Wheel {
    fn new(num_gates: usize, horizon: u64, dedup: bool) -> Self {
        let len = usize::try_from(horizon).expect("delay horizon fits usize") + 1;
        Wheel {
            slots: vec![Vec::new(); len],
            times: BinaryHeap::new(),
            sched_t: vec![u64::MAX; num_gates],
            dedup,
        }
    }

    /// Queues gate `gi` for evaluation at time `t`, unless it is already
    /// queued there.
    #[inline]
    fn schedule(&mut self, gi: u32, t: u64) {
        if self.dedup && self.sched_t[gi as usize] == t {
            // The stamped entry is still pending: timestamps are drained
            // in increasing order and never revisited.
            return;
        }
        let slot = (t % self.slots.len() as u64) as usize;
        if self.slots[slot].is_empty() {
            self.times.push(Reverse(t));
        }
        self.sched_t[gi as usize] = t;
        self.slots[slot].push(gi);
    }

    /// Drains the earliest non-empty timestamp into `batch`, sorted by
    /// ascending gate index (topological order) with same-gate entries
    /// merged, and returns the timestamp. `None` when quiescent.
    fn pop_into(&mut self, batch: &mut Vec<u32>) -> Option<u64> {
        let Reverse(t) = self.times.pop()?;
        let slot = (t % self.slots.len() as u64) as usize;
        batch.clear();
        batch.append(&mut self.slots[slot]);
        batch.sort_unstable();
        if self.dedup {
            // Merge the rare same-gate duplicates the stamp cannot catch
            // (a gate whose stamp moved to a later timestamp and was
            // then re-scheduled at this one).
            batch.dedup();
        }
        Some(t)
    }
}

/// One change of a net within a step: at `time` the lanes set in `diff`
/// flip.
#[derive(Debug, Clone, Copy)]
struct Change {
    time: u64,
    diff: u64,
}

/// One instant at which some input of a gate changes: the lanes that
/// change on any pin, and the gate's input words from then on.
#[derive(Debug, Clone, Copy)]
struct InputChange {
    time: u64,
    lanes: u64,
    words: [u64; 3],
}

/// 64-lane levelized transition counter — the production kernel behind
/// [`estimate`] (see the [module docs](self)).
struct LevelSim<'a> {
    nl: &'a Netlist,
    /// Propagation delay per gate output pin, in ticks.
    ticks: &'a [[u64; 2]],
    /// Value word per net at the start of the current step (bit `l` =
    /// lane `l`).
    values: Vec<u64>,
    /// The current step's changes, each net's in one ascending-time run.
    log: Vec<Change>,
    /// Per net: its run in `log`, as `start..end`.
    runs: Vec<(usize, usize)>,
    /// Scratch: the merged input changes of the gate being simulated.
    inputs: Vec<InputChange>,
    /// Scratch: the changes of a gate's second output pin, appended to
    /// `log` after the first pin's run.
    second: Vec<Change>,
    /// Transition counter per gate (both outputs, all lanes combined).
    transitions: Vec<u64>,
}

impl<'a> LevelSim<'a> {
    fn new(nl: &'a Netlist, delays: &'a DelayTicks) -> Self {
        let mut sim = LevelSim {
            nl,
            ticks: &delays.ticks,
            values: vec![0; nl.num_nets()],
            log: Vec::new(),
            runs: vec![(0, 0); nl.num_nets()],
            inputs: Vec::new(),
            second: Vec::new(),
            transitions: vec![0; nl.gates().len()],
        };
        sim.settle_all_zeros();
        sim
    }

    /// Establishes the quiescent all-zeros-input state: one zero-delay
    /// topological sweep, uncounted. Without it, constant-driven logic
    /// (tie cells have no inputs, so nothing ever re-evaluates them)
    /// would sit at an inconsistent power-up state forever.
    fn settle_all_zeros(&mut self) {
        for gate in self.nl.gates() {
            let (o0, o1) = gate
                .kind
                .eval64(gate.ins.map(|net| word(&self.values, net)));
            for (out, word) in gate.outs.iter().zip([o0, o1]) {
                if out.is_valid() {
                    self.values[out.index()] = word;
                }
            }
        }
    }

    /// Applies new primary-input words and simulates the step to
    /// quiescence in one pass over the gates. `pi_nets` and `pi_words`
    /// are the primary-input net indices and their new 64-lane values.
    fn apply_step(&mut self, pi_nets: &[usize], pi_words: &[u64]) {
        self.log.clear();
        self.runs.fill((0, 0));
        for (&net, &word) in pi_nets.iter().zip(pi_words) {
            let diff = self.values[net] ^ word;
            if diff != 0 {
                self.runs[net] = (self.log.len(), self.log.len() + 1);
                self.log.push(Change { time: 0, diff });
            }
        }
        for gi in 0..self.nl.gates().len() {
            self.simulate_gate(gi);
        }
        for (value, &(start, end)) in self.values.iter_mut().zip(&self.runs) {
            for change in &self.log[start..end] {
                *value ^= change.diff;
            }
        }
    }

    /// Simulates gate `gi` over the whole step, logging its output
    /// changes. Its inputs' logs are complete: every driver has a lower
    /// index.
    fn simulate_gate(&mut self, gi: usize) {
        let gate = self.nl.gates()[gi];
        let mut pin_delays = gate
            .outs
            .iter()
            .zip(self.ticks[gi])
            .filter(|(out, _)| out.is_valid())
            .map(|(_, delay)| delay);
        let Some(first_delay) = pin_delays.next() else {
            return; // drives nothing
        };
        let second_delay = pin_delays.next().filter(|&d| d != first_delay);
        let LevelSim {
            values,
            log,
            runs,
            inputs,
            second,
            transitions,
            ..
        } = self;

        // Merge the input pins' runs into one ascending list of input
        // changes, each with the input words it leaves behind.
        let mut words = gate.ins.map(|net| word(values, net));
        let mut reads = gate.ins.map(|net| {
            if net.is_valid() {
                runs[net.index()]
            } else {
                (0, 0)
            }
        });
        inputs.clear();
        loop {
            let next = reads
                .iter()
                .filter(|&&(pos, end)| pos < end)
                .map(|&(pos, _)| log[pos].time)
                .min();
            let Some(time) = next else { break };
            let mut lanes = 0;
            for (word, (pos, end)) in words.iter_mut().zip(&mut reads) {
                if *pos < *end && log[*pos].time == time {
                    *word ^= log[*pos].diff;
                    lanes |= log[*pos].diff;
                    *pos += 1;
                }
            }
            inputs.push(InputChange { time, lanes, words });
        }

        // The gate evaluates at every input change time plus each
        // distinct output pin delay: one cursor into `inputs` per delay,
        // merged, with the lanes of coinciding instants OR-merged.
        let n = inputs.len();
        let mut due = [
            (0, first_delay),
            second_delay.map_or((n, 0), |delay| (0, delay)),
        ];
        let mut outs = gate.outs.map(|net| word(values, net));
        let first = log.len();
        second.clear();
        let mut seen = 0;
        loop {
            let next = due
                .iter()
                .filter(|&&(k, _)| k < n)
                .map(|&(k, delay)| inputs[k].time + delay)
                .min();
            let Some(time) = next else { break };
            let mut mask = 0;
            for (k, delay) in &mut due {
                if *k < n && inputs[*k].time + *delay == time {
                    mask |= inputs[*k].lanes;
                    *k += 1;
                }
            }
            // Inputs as of `time`, inclusive. Delays are ≥ 1 tick, so
            // the change that scheduled this instant is already applied.
            while seen < n && inputs[seen].time <= time {
                seen += 1;
            }
            let (o0, o1) = gate.kind.eval64(inputs[seen - 1].words);
            for (o, word) in [o0, o1].into_iter().enumerate() {
                let diff = (outs[o] ^ word) & mask;
                if !gate.outs[o].is_valid() || diff == 0 {
                    continue;
                }
                outs[o] ^= diff;
                transitions[gi] += u64::from(diff.count_ones());
                let change = Change { time, diff };
                if o == 0 {
                    log.push(change);
                } else {
                    second.push(change);
                }
            }
        }
        if gate.outs[0].is_valid() {
            runs[gate.outs[0].index()] = (first, log.len());
        }
        if gate.outs[1].is_valid() {
            let start = log.len();
            log.extend_from_slice(second);
            runs[gate.outs[1].index()] = (start, log.len());
        }
    }
}

/// The value word of `net`, or 0 for an unused pin.
fn word(values: &[u64], net: NetId) -> u64 {
    if net.is_valid() {
        values[net.index()]
    } else {
        0
    }
}

/// Scalar reference implementation of the lane sub-stream semantics:
/// one lane at a time, `bool` net values, the plain 1-bit
/// [`apx_cells::CellKind::eval`], events on a [`Wheel`] drained in
/// ascending gate index within a timestamp. The levelized kernel must
/// match it per-gate bit-exactly.
struct ScalarEventSim<'a> {
    nl: &'a Netlist,
    values: Vec<bool>,
    fanout: Fanout,
    ticks: &'a [[u64; 2]],
    transitions: Vec<u64>,
    wheel: Wheel,
    batch: Vec<u32>,
    clock: u64,
}

impl<'a> ScalarEventSim<'a> {
    fn new(nl: &'a Netlist, delays: &'a DelayTicks, dedup: bool) -> Self {
        let mut sim = ScalarEventSim {
            nl,
            values: vec![false; nl.num_nets()],
            fanout: Fanout::new(nl),
            ticks: &delays.ticks,
            transitions: vec![0; nl.gates().len()],
            wheel: Wheel::new(nl.gates().len(), delays.max_ticks, dedup),
            batch: Vec::new(),
            clock: 0,
        };
        sim.reset_to_all_zeros();
        sim
    }

    /// Re-establishes the quiescent all-zeros-input state for the next
    /// lane. The clock keeps running monotonically so wheel stamps from
    /// the previous lane can never alias a fresh `(t, gate)` pair.
    fn reset_to_all_zeros(&mut self) {
        self.values.fill(false);
        for gate in self.nl.gates() {
            let (o0, o1) = gate.kind.eval(self.read_ins(gate));
            for (out, val) in gate.outs.iter().zip([o0, o1]) {
                if out.is_valid() {
                    self.values[out.index()] = val;
                }
            }
        }
    }

    #[inline]
    fn read_ins(&self, gate: &crate::Gate) -> [bool; 3] {
        let read = |slot: crate::NetId| slot.is_valid() && self.values[slot.index()];
        [read(gate.ins[0]), read(gate.ins[1]), read(gate.ins[2])]
    }

    fn schedule_fanout(&mut self, net: usize, now: u64) {
        for k in 0..self.fanout.of(net).len() {
            let gi = self.fanout.of(net)[k];
            let ticks = self.ticks[gi as usize];
            let outs = self.nl.gates()[gi as usize].outs;
            for (o, out) in outs.iter().enumerate() {
                if out.is_valid() {
                    self.wheel.schedule(gi, now + ticks[o]);
                }
            }
        }
    }

    fn apply_vector(&mut self, pi_nets: &[usize], pi_values: &[bool]) {
        let now = self.clock;
        for (&net, &val) in pi_nets.iter().zip(pi_values) {
            if self.values[net] != val {
                self.values[net] = val;
                self.schedule_fanout(net, now);
            }
        }
        let mut batch = std::mem::take(&mut self.batch);
        let mut last = now;
        while let Some(t) = self.wheel.pop_into(&mut batch) {
            last = t;
            for &gi in &batch {
                let gate = self.nl.gates()[gi as usize];
                let (o0, o1) = gate.kind.eval(self.read_ins(&gate));
                for (out, val) in gate.outs.iter().zip([o0, o1]) {
                    if !out.is_valid() {
                        continue;
                    }
                    if self.values[out.index()] != val {
                        self.values[out.index()] = val;
                        self.transitions[gi as usize] += 1;
                        self.schedule_fanout(out.index(), t);
                    }
                }
            }
        }
        self.batch = batch;
        self.clock = last + 1;
    }
}

/// Primary-input net indices, LSB-first across buses — the draw order of
/// every vector.
fn pi_nets(nl: &Netlist) -> Vec<usize> {
    nl.inputs()
        .iter()
        .flat_map(|(_, bus)| bus.iter().map(|n| n.index()))
        .collect()
}

/// Simulates one shard of the vector stream through the levelized
/// kernel: 64 lane sub-streams, each with its own warm-up and RNG
/// stream (see the [module docs](self)). Returns per-gate transition
/// counts summed over all lanes.
fn transitions_for_shard(
    nl: &Netlist,
    delays: &DelayTicks,
    pi: &[usize],
    vectors: usize,
    stream: u64,
) -> Vec<u64> {
    let lane_lens = plan_lanes(vectors, SIM_LANES);
    let mut rngs: Vec<StdRng> = (0..SIM_LANES)
        .map(|l| StdRng::seed_from_u64(shard_seed(stream, STREAM_POWER_LANE, l as u64)))
        .collect();
    let mut sim = LevelSim::new(nl, delays);
    let mut words = vec![0u64; pi.len()];

    // Step 0 is every non-empty lane's uncounted warm-up vector; step s
    // (1-based) is lane l's s-th counted vector while `s <= lane_lens[l]`.
    // Lane lengths are non-increasing, so lane 0 runs longest. Exhausted
    // lanes keep their final values: their bits never change again, so
    // they contribute no further transitions.
    let max_len = lane_lens[0];
    for step in 0..=max_len {
        for (l, rng) in rngs.iter_mut().enumerate() {
            let active = if step == 0 {
                lane_lens[l] > 0
            } else {
                lane_lens[l] >= step
            };
            if !active {
                break; // non-increasing lane lengths: the rest are done
            }
            for word in words.iter_mut() {
                let bit = u64::from(rng.random::<bool>());
                *word = (*word & !(1 << l)) | (bit << l);
            }
        }
        sim.apply_step(pi, &words);
        if step == 0 {
            sim.transitions.fill(0);
        }
    }
    sim.transitions
}

/// The scalar-reference counterpart of [`transitions_for_shard`]: the
/// same lane decomposition and RNG streams, simulated one lane at a
/// time.
fn transitions_for_shard_reference(
    nl: &Netlist,
    delays: &DelayTicks,
    pi: &[usize],
    vectors: usize,
    stream: u64,
    dedup: bool,
) -> Vec<u64> {
    let lane_lens = plan_lanes(vectors, SIM_LANES);
    let mut totals = vec![0u64; nl.gates().len()];
    let mut sim = ScalarEventSim::new(nl, delays, dedup);
    let mut vals = vec![false; pi.len()];
    for (l, &len) in lane_lens.iter().enumerate() {
        if len == 0 {
            break;
        }
        let mut rng = StdRng::seed_from_u64(shard_seed(stream, STREAM_POWER_LANE, l as u64));
        let draw = |vals: &mut Vec<bool>, rng: &mut StdRng| {
            for v in vals.iter_mut() {
                *v = rng.random::<bool>();
            }
        };
        sim.reset_to_all_zeros();
        draw(&mut vals, &mut rng); // warm-up, uncounted
        sim.apply_vector(pi, &vals);
        sim.transitions.fill(0);
        for _ in 0..len {
            draw(&mut vals, &mut rng);
            sim.apply_vector(pi, &vals);
        }
        for (t, p) in totals.iter_mut().zip(&sim.transitions) {
            *t += p;
        }
    }
    totals
}

/// Per-gate transition counts of the full vector stream, produced by the
/// 64-lane levelized kernel with shards simulated on `engine` and merged
/// in shard order — bit-identical for any thread count, and bit-identical
/// to [`transition_counts_reference`].
#[must_use]
pub fn transition_counts_with(
    nl: &Netlist,
    lib: &Library,
    settings: PowerSettings,
    engine: &Engine,
) -> Vec<u64> {
    let delays = quantize_delays(nl, lib);
    let pi = pi_nets(nl);
    let shards = plan_shards_sized(settings.vectors, POWER_SHARD_VECTORS);
    let partials = engine.map_indexed(shards.len(), |i| {
        let shard = shards[i];
        let stream = shard_seed(settings.seed, STREAM_POWER, shard.index as u64);
        transitions_for_shard(nl, &delays, &pi, shard.len, stream)
    });
    let mut transitions = vec![0u64; nl.gates().len()];
    for partial in partials {
        for (t, p) in transitions.iter_mut().zip(partial) {
            *t += p;
        }
    }
    transitions
}

/// Per-gate transition counts computed by the scalar lane-semantics
/// reference: the same shard plan, lane decomposition and RNG streams as
/// [`transition_counts_with`], simulated one lane at a time with 1-bit
/// values. Exists to pin the levelized kernel bit-exactly; orders of
/// magnitude slower, never used on the production path.
#[must_use]
pub fn transition_counts_reference(
    nl: &Netlist,
    lib: &Library,
    settings: PowerSettings,
) -> Vec<u64> {
    let delays = quantize_delays(nl, lib);
    let pi = pi_nets(nl);
    let shards = plan_shards_sized(settings.vectors, POWER_SHARD_VECTORS);
    let mut transitions = vec![0u64; nl.gates().len()];
    for shard in shards {
        let stream = shard_seed(settings.seed, STREAM_POWER, shard.index as u64);
        let partial = transitions_for_shard_reference(nl, &delays, &pi, shard.len, stream, true);
        for (t, p) in transitions.iter_mut().zip(partial) {
            *t += p;
        }
    }
    transitions
}

/// Folds per-gate transition counts into the [`PowerReport`].
fn report_from_transitions(
    nl: &Netlist,
    lib: &Library,
    transitions: &[u64],
    vectors: usize,
) -> PowerReport {
    let mut total_energy_fj = 0.0f64;
    let mut total_transitions = 0u64;
    for (gi, gate) in nl.gates().iter().enumerate() {
        let e = lib.spec(gate.kind).energy_fj;
        total_energy_fj += transitions[gi] as f64 * e;
        total_transitions += transitions[gi];
    }
    let leakage_uw: f64 = nl
        .gates()
        .iter()
        .map(|g| lib.spec(g.kind).leakage_nw)
        .sum::<f64>()
        / 1000.0;

    let vectors = vectors.max(1) as f64;
    let energy_per_op_pj = total_energy_fj / 1000.0 / vectors;
    let freq_mhz = lib.operating_point().freq_mhz;
    // pJ/op × 10⁻¹² J × MHz × 10⁶ /s = e·f × 10⁻⁶ W = e·f × 10⁻³ mW
    let dynamic_power_mw = energy_per_op_pj * freq_mhz * 1e-3;

    PowerReport {
        dynamic_power_mw,
        leakage_uw,
        energy_per_op_pj,
        transitions_per_op: total_transitions as f64 / vectors,
    }
}

/// Estimates power by applying `settings.vectors` random input vectors
/// through the 64-lane levelized kernel.
///
/// The vector stream decomposes into shards and lane sub-streams as
/// described in the [module docs](self); per-gate transition counts are
/// summed over lanes and shards. [`estimate_with`] runs the exact same
/// shards on a thread pool, so both forms produce bit-identical reports.
/// Leakage is the sum of per-cell leakage regardless of activity.
///
/// # Example
/// ```
/// use apx_netlist::{power, NetlistBuilder};
/// use apx_cells::Library;
/// let mut b = NetlistBuilder::new("x");
/// let a = b.input_bus("a", 8);
/// let c = b.input_bus("b", 8);
/// let zero = b.tie0();
/// let (s, _) = b.ripple_adder(&a, &c, zero);
/// b.output_bus("y", &s);
/// let nl = b.finish();
/// let report = power::estimate(&nl, &Library::fdsoi28(), power::PowerSettings {
///     vectors: 200,
///     seed: 1,
/// });
/// assert!(report.dynamic_power_mw > 0.0);
/// ```
#[must_use]
pub fn estimate(nl: &Netlist, lib: &Library, settings: PowerSettings) -> PowerReport {
    estimate_with(nl, lib, settings, &Engine::single_threaded())
}

/// Sharded-parallel form of [`estimate`]: the same shards, each with the
/// same seed stream and lane decomposition, simulated on `engine` and
/// merged in shard order. Per-gate transition counts are integers, so
/// the merged report is bit-identical to [`estimate`] for any thread
/// count.
#[must_use]
pub fn estimate_with(
    nl: &Netlist,
    lib: &Library,
    settings: PowerSettings,
    engine: &Engine,
) -> PowerReport {
    let transitions = transition_counts_with(nl, lib, settings, engine);
    report_from_transitions(nl, lib, &transitions, settings.vectors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;

    fn rca(width: usize) -> Netlist {
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
    fn power_scales_with_width() {
        let lib = Library::fdsoi28();
        let settings = PowerSettings {
            vectors: 300,
            seed: 42,
        };
        let p8 = estimate(&rca(8), &lib, settings).dynamic_power_mw;
        let p16 = estimate(&rca(16), &lib, settings).dynamic_power_mw;
        assert!(p16 > 1.5 * p8, "16-bit {p16} should be ~2x 8-bit {p8}");
    }

    #[test]
    fn deterministic_given_seed() {
        let lib = Library::fdsoi28();
        let settings = PowerSettings {
            vectors: 100,
            seed: 9,
        };
        let a = estimate(&rca(8), &lib, settings);
        let b = estimate(&rca(8), &lib, settings);
        assert_eq!(a, b);
    }

    #[test]
    fn transitions_include_ripple_glitches() {
        // With random vectors, a ripple adder's carry chain glitches;
        // the average transitions per op must exceed the zero-delay lower
        // bound of ~0.5 per output bit.
        let lib = Library::fdsoi28();
        let report = estimate(
            &rca(16),
            &lib,
            PowerSettings {
                vectors: 500,
                seed: 3,
            },
        );
        assert!(
            report.transitions_per_op > 16.0 * 0.5,
            "got {}",
            report.transitions_per_op
        );
    }

    #[test]
    fn parallel_estimate_is_bit_identical_for_any_thread_count() {
        let lib = Library::fdsoi28();
        let nl = rca(12);
        let settings = PowerSettings {
            vectors: 1_100, // > 4 shards, with a ragged tail
            seed: 77,
        };
        let serial = estimate(&nl, &lib, settings);
        for threads in [1, 2, 8] {
            let par = estimate_with(&nl, &lib, settings, &Engine::new(threads));
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn bitsliced_kernel_matches_scalar_reference_per_gate() {
        // The tentpole contract: per-gate transition counts from the
        // 64-lane bitsliced kernel are bit-identical to the scalar
        // lane-semantics reference, across lane raggedness (vectors not
        // a multiple of 64) and shard boundaries (> 256 vectors).
        let lib = Library::fdsoi28();
        for (nl, vectors) in [
            (rca(8), 10usize), // single partial lane set
            (rca(8), 64),      // exactly one vector per lane
            (rca(12), 100),    // ragged lanes
            (rca(12), 300),    // shard boundary + ragged tail shard
        ] {
            let settings = PowerSettings {
                vectors,
                seed: 0xBEEF,
            };
            let reference = transition_counts_reference(&nl, &lib, settings);
            for threads in [1, 2, 8] {
                let bitsliced = transition_counts_with(&nl, &lib, settings, &Engine::new(threads));
                assert_eq!(
                    bitsliced, reference,
                    "{} vectors, {threads} threads",
                    vectors
                );
            }
        }
    }

    #[test]
    fn scheduling_dedup_does_not_change_reference_counts() {
        // (t, gate) dedup — both the schedule-time stamp and the
        // drain-time merge — is a pure de-churn optimization: with both
        // disabled, duplicate evaluations see unchanged inputs, produce
        // unchanged outputs, and count nothing.
        let lib = Library::fdsoi28();
        let nl = rca(10);
        let delays = quantize_delays(&nl, &lib);
        let pi = pi_nets(&nl);
        for vectors in [17usize, 130] {
            let stream = shard_seed(0xD0_0D, STREAM_POWER, 0);
            let with_dedup =
                transitions_for_shard_reference(&nl, &delays, &pi, vectors, stream, true);
            let without =
                transitions_for_shard_reference(&nl, &delays, &pi, vectors, stream, false);
            assert_eq!(with_dedup, without, "{vectors} vectors");
        }
    }

    #[test]
    fn transitions_per_op_statistically_matches_the_pre_bitslice_estimator() {
        // Statistical-equivalence guard for the schema bump: the lane
        // sub-stream semantics legitimately change absolute totals, but
        // per-vector transition statistics must stay within a few
        // percent of the retired serial-chain estimator. The pinned
        // numbers were captured from the pre-bitslice implementation at
        // exactly these settings.
        let lib = Library::fdsoi28();
        let settings = PowerSettings {
            vectors: 4_000,
            seed: 0xA9CE55,
        };
        let rca16 = estimate(&rca(16), &lib, settings).transitions_per_op;
        assert!(
            (rca16 - 18.0025).abs() / 18.0025 < 0.05,
            "rca16 transitions_per_op {rca16} vs pre-bitslice 18.0025"
        );
    }

    #[test]
    fn leakage_counts_every_cell() {
        let lib = Library::fdsoi28();
        let nl = rca(4);
        let report = estimate(
            &nl,
            &lib,
            PowerSettings {
                vectors: 10,
                seed: 0,
            },
        );
        let expected: f64 = nl
            .gates()
            .iter()
            .map(|g| lib.spec(g.kind).leakage_nw)
            .sum::<f64>()
            / 1000.0;
        assert!((report.leakage_uw - expected).abs() < 1e-12);
    }
}
