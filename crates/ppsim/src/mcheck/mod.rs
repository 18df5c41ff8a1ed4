//! Exact configuration-space model checking: *prove* (not sample) the
//! paper's self-stabilization claims at small `n`, and solve for **exact**
//! expected silence times.
//!
//! The simulation engines establish the repo's claims statistically; this
//! module establishes them **exhaustively**. For an [`EnumerableProtocol`]
//! with `|S|` states and population size `n`, the configuration space is the
//! finite multiset lattice of count vectors summing to `n` — exactly
//! `C(n + |S| − 1, |S| − 1)` configurations — and the uniformly random
//! scheduler induces a Markov chain on it whose transition probabilities are
//! small rationals: the ordered state pair `(i, j)` fires with probability
//! `c_i · (c_j − [i = j]) / (n(n−1))`. On this chain the paper's universally
//! quantified theorems are *decidable*:
//!
//! * **Self-stabilization** ([`check_self_stabilization`]): enumerate the
//!   full lattice, classify every configuration as silent (no non-null
//!   ordered pair) and/or correct (per-protocol [`CorrectnessOracle`]), and
//!   run a backward reachability pass from the correct silent configurations
//!   over the exact predecessor relation. Silent configurations are absorbing
//!   by construction, so if **every** configuration can reach a correct
//!   silent one and **silent ⟺ correct**, the chain is absorbed into a
//!   correct configuration with probability 1 from every initial
//!   configuration — which is precisely the self-stabilization property,
//!   machine-checked over *all* `C(n + |S| − 1, |S| − 1)` configurations
//!   instead of a few hundred sampled trajectories.
//! * **Exact expected silence times** ([`expected_silence_time_exact`]):
//!   explore the reachable closure of an initial configuration (a sparse,
//!   hash-indexed subset of the lattice — usually far smaller) and solve the
//!   absorbing-chain linear system `E[c] = n(n−1)/A(c) + Σ_m (w_m/A(c))·
//!   E[succ_m(c)]` by BiCGSTAB preconditioned with a Gauss–Seidel sweep in
//!   silence-distance order (see `solve.rs`). The `n(n−1)/A(c)` term
//!   marginalizes the geometrically distributed null runs exactly, the same
//!   identity the batched engine samples from. The result
//!   cross-validates both the simulators and the closed forms of
//!   `analysis::theory` — e.g. the `(n−1)·C(n,2)` worst-case bound of
//!   Theorem 2.4 is reproduced to machine precision.
//! * **Fault closure** ([`check_fault_plan_closure`]): the exhaustive
//!   version of the fault-injection recovery claim — after an arbitrary
//!   `k`-agent corruption of **any** reachable configuration, the perturbed
//!   configuration still lies in the verified-convergent set.
//!
//! Construction also cross-checks the protocol's own contracts, which makes
//! the checker the first component able to *falsify* a protocol or engine
//! bug deterministically: an unsound [`Protocol::is_null`] claim is checked
//! **exhaustively** over all `|S|²` ordered pairs and rejected
//! ([`MCheckError::UnsoundNull`]), a transition observed to consult its RNG
//! is rejected ([`MCheckError::RandomizedTransition`] — a finite probe over
//! four RNG streams, so a sufficiently contrived randomized transition
//! could evade it; the synthetic-coin construction of Section 6 is the
//! principled derandomization for protocols that genuinely need
//! randomness), and failed verifications come with counterexample
//! configurations and [`Trace`]s
//! ([`StabilizationReport::counterexample_trace`]).
//!
//! Dense vs sparse indexing: full-space verification uses **dense canonical
//! indexing** (the combinatorial number system over the multiset lattice)
//! guarded by [`MCheckOptions::max_configurations`]; reachable-set workloads
//! (expected times, seeded convergence checks for state spaces whose full
//! lattice exceeds the guard) use the **sparse hash-indexed** exploration of
//! [`explore_reachable`]. `ARCHITECTURE.md` draws the decision tree between
//! exhaustive verification and the simulation engines.
//!
//! # Example
//!
//! ```
//! use ppsim::mcheck::{check_self_stabilization, expected_silence_time_exact, MCheckOptions};
//! use ppsim::prelude::*;
//! use rand::RngCore;
//!
//! /// (L, L) -> (L, F): converges to at most one leader from anywhere.
//! #[derive(Clone, Copy)]
//! struct Frat {
//!     n: usize,
//! }
//! impl Protocol for Frat {
//!     type State = u8;
//!     fn population_size(&self) -> usize {
//!         self.n
//!     }
//!     fn transition(&self, a: &u8, b: &u8, _rng: &mut dyn RngCore) -> (u8, u8) {
//!         if *a == 0 && *b == 0 {
//!             (0, 1)
//!         } else {
//!             (*a, *b)
//!         }
//!     }
//!     fn is_null(&self, a: &u8, b: &u8) -> bool {
//!         !(*a == 0 && *b == 0)
//!     }
//! }
//! impl EnumerableProtocol for Frat {
//!     fn num_states(&self) -> usize {
//!         2
//!     }
//!     fn state_index(&self, s: &u8) -> usize {
//!         *s as usize
//!     }
//!     fn state_from_index(&self, i: usize) -> u8 {
//!         i as u8
//!     }
//! }
//! impl CorrectnessOracle for Frat {
//!     fn is_correct(&self, config: &Configuration<u8>) -> bool {
//!         config.iter().filter(|&&s| s == 0).count() <= 1
//!     }
//! }
//!
//! // Prove convergence over all C(5 + 1, 1) = 6 configurations…
//! let report = check_self_stabilization(Frat { n: 5 }, &MCheckOptions::default()).unwrap();
//! assert!(report.verified());
//! // …and solve the absorbing chain exactly: E = (n − 1)² interactions from
//! // all leaders (the closed form of Lemma 4.2's proof).
//! let all_leaders = Configuration::uniform(0u8, 5);
//! let exact =
//!     expected_silence_time_exact(Frat { n: 5 }, &all_leaders, &MCheckOptions::default()).unwrap();
//! assert!((exact.expected_interactions - 16.0).abs() < 1e-9);
//! ```

mod solve;
mod store;

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::path::PathBuf;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::batched::EnumerableProtocol;
use crate::config::Configuration;
use crate::faults::{CorruptionTarget, FaultPlan};
use crate::protocol::Protocol;
use crate::scheduler::{IndexRates, InteractionScheduler};
use crate::symmetry::StateSymmetry;
use crate::telemetry::{Counter, CounterBlock, TelemetrySink};
use crate::time::Interactions;
use crate::trace::Trace;

use store::{ConfigStore, EdgeStore, HashIndex};

/// The per-protocol definition of a **correct** configuration — the target
/// predicate the exhaustive verification proves every configuration reaches.
///
/// For the paper's ranking protocols this is "every rank held exactly once";
/// for the foundational processes it is the process's own completion
/// predicate (consensus for the epidemic, full participation for the coupon
/// collector, at most one leader for fratricide — the latter deliberately
/// *not* "exactly one": fratricide cannot create leaders, which is the
/// non-self-stabilization observation the checker demonstrates when handed a
/// stricter oracle; see Observation 2.6 and this module's tests).
pub trait CorrectnessOracle: Protocol {
    /// Whether the configuration is correct for this protocol's problem.
    fn is_correct(&self, config: &Configuration<Self::State>) -> bool;
}

/// Tuning knobs and capacity guards for the model checker.
#[derive(Clone, PartialEq, Debug)]
pub struct MCheckOptions {
    /// Dense-lattice capacity guard: [`check_self_stabilization`] refuses
    /// state spaces whose full lattice exceeds this many configurations
    /// (use [`check_self_stabilization_quotient`] or the sparse
    /// [`check_convergence_from`] for those).
    pub max_configurations: u64,
    /// Sparse-exploration capacity guard: reachable-closure workloads refuse
    /// to grow beyond this many configurations (orbit representatives when
    /// the symmetry quotient is active).
    pub max_reachable: usize,
    /// Convergence tolerance of the expected-silence-time solve: a bound on
    /// the true relative residual `‖τ − (I − P)·x‖₂ / ‖τ‖₂` of the returned
    /// expectations, recomputed from them before the solve returns.
    pub tolerance: f64,
    /// Budget of the expected-silence-time solve, in passes over the
    /// successor edges: every preconditioner sweep, matrix-vector product
    /// and residual check is one pass.
    pub max_sweeps: usize,
    /// Whether to quotient the configuration space by the protocol's
    /// declared [`StateSymmetry`] (validated, never trusted). Only the
    /// uniform scheduler is quotiented — pair rates can break a state
    /// symmetry, so weighted explorations always run unquotiented.
    pub use_symmetry: bool,
    /// Resident-set bound (in bytes) for the successor-edge store of
    /// reachable-closure workloads; past it, edges spill to a self-deleting
    /// temp file and the distance/solve passes stream from disk.
    pub max_resident_bytes: usize,
    /// Directory for spill files; `None` uses [`std::env::temp_dir`].
    pub spill_dir: Option<PathBuf>,
}

impl Default for MCheckOptions {
    fn default() -> Self {
        MCheckOptions {
            max_configurations: 32_000_000,
            max_reachable: 4_000_000,
            tolerance: 1e-12,
            max_sweeps: 20_000,
            use_symmetry: true,
            max_resident_bytes: 2 << 30,
            spill_dir: None,
        }
    }
}

/// Why the model checker could not produce a verdict.
#[derive(Clone, PartialEq, Debug)]
pub enum MCheckError {
    /// The full lattice exceeds [`MCheckOptions::max_configurations`].
    SpaceTooLarge {
        /// Exact lattice size `C(n + |S| − 1, |S| − 1)`.
        configurations: u128,
        /// The configured guard.
        limit: u64,
    },
    /// The reachable closure exceeds [`MCheckOptions::max_reachable`].
    ReachableTooLarge {
        /// The configured guard.
        limit: usize,
    },
    /// The transition on a state pair was observed to depend on its RNG
    /// (differently seeded probe evaluations disagreed); the checker
    /// requires a deterministic transition relation. The probe is finite —
    /// four RNG streams per pair — so it catches any ordinary use of the
    /// generator but is not a proof of determinism; the paper's Section 6
    /// synthetic-coin construction is the standard derandomization.
    RandomizedTransition {
        /// Initiator state index.
        i: usize,
        /// Responder state index.
        j: usize,
    },
    /// [`Protocol::is_null`] claims a pair is null but the transition
    /// changes it — an unsoundness that would also corrupt every engine's
    /// silence detection. This is the checker catching a protocol bug.
    UnsoundNull {
        /// Initiator state index.
        i: usize,
        /// Responder state index.
        j: usize,
    },
    /// A rate-weighted pair measure of some reachable configuration (a
    /// pair term `rate · c_i · c_j`, a successor's accumulated weight, the
    /// active measure `A(c)` or the total measure `W(c)`) overflows `u64`.
    /// Rates are relative, so scaling them down leaves the chain unchanged.
    WeightOverflow,
    /// A state reachable from the requested initial configuration cannot
    /// reach silence, so the expected silence time is infinite.
    NonConvergent,
    /// The expected-silence-time solve spent its pass budget
    /// ([`MCheckOptions::max_sweeps`]) without meeting the tolerance.
    NotConverged {
        /// The latest relative residual `‖τ − (I − P)·x‖₂ / ‖τ‖₂` (the
        /// solver's running estimate; infinite if no pass ran).
        residual: f64,
    },
    /// The requested scheduler distinguishes individual agents (e.g. a
    /// graph-restricted topology), but the model checker works on count
    /// vectors, which erase agent identities. Use the exact per-agent
    /// engine for such schedulers.
    SchedulerNeedsIdentities {
        /// The scheduler's display label.
        scheduler: String,
    },
    /// Every pair rate of the weighted scheduler is zero: the interaction
    /// measure is empty and no pair can ever be scheduled.
    ZeroRateScheduler,
    /// The protocol's declared [`StateSymmetry`] is not an automorphism
    /// group of its transition structure (or its correctness oracle): some
    /// generator fails to commute with the transition function, the null
    /// predicate, or the oracle, or the declaration itself is malformed.
    /// Quotienting under such a group would prove statements about the wrong
    /// chain, so the checker refuses.
    UnsoundSymmetry {
        /// What failed, with the offending generator and state pair.
        detail: String,
    },
    /// An I/O error in the spill store backing an over-budget
    /// reachable-closure workload (temp-file creation, write, or read).
    SpillIo {
        /// The underlying I/O error.
        detail: String,
    },
}

impl MCheckError {
    fn from_spill(e: std::io::Error) -> Self {
        MCheckError::SpillIo { detail: e.to_string() }
    }
}

impl fmt::Display for MCheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MCheckError::SpaceTooLarge { configurations, limit } => write!(
                f,
                "configuration lattice holds {configurations} configurations, over the guard of \
                 {limit}; use the sparse reachable-set entry points"
            ),
            MCheckError::ReachableTooLarge { limit } => {
                write!(f, "reachable closure exceeds the guard of {limit} configurations")
            }
            MCheckError::RandomizedTransition { i, j } => write!(
                f,
                "transition on state pair ({i}, {j}) is randomized; the model checker needs a \
                 deterministic transition relation (cf. the synthetic-coin construction)"
            ),
            MCheckError::UnsoundNull { i, j } => write!(
                f,
                "is_null claims state pair ({i}, {j}) is null but the transition changes it; \
                 silence detection is unsound for this protocol"
            ),
            MCheckError::NonConvergent => {
                write!(
                    f,
                    "a reachable configuration cannot reach silence; expected time is infinite"
                )
            }
            MCheckError::NotConverged { residual } => {
                write!(f, "linear solve spent its pass budget at residual {residual:e}")
            }
            MCheckError::WeightOverflow => {
                write!(f, "a weighted pair measure overflows u64; scale the rates down")
            }
            MCheckError::SchedulerNeedsIdentities { scheduler } => write!(
                f,
                "the {scheduler} scheduler distinguishes individual agents, but the model checker \
                 works on count vectors; use the exact per-agent engine"
            ),
            MCheckError::ZeroRateScheduler => {
                write!(f, "every pair rate is zero; the scheduler can never select a pair")
            }
            MCheckError::UnsoundSymmetry { detail } => {
                write!(f, "declared state symmetry is not an automorphism group: {detail}")
            }
            MCheckError::SpillIo { detail } => {
                write!(f, "spill store I/O failed: {detail}")
            }
        }
    }
}

impl std::error::Error for MCheckError {}

/// The exact lattice size `C(n + k − 1, k − 1)` of multisets of size `n`
/// over `k` states, or `None` on overflow of `u128`.
pub fn lattice_size(n: usize, num_states: usize) -> Option<u128> {
    binomial_u128(n as u128 + num_states as u128 - 1, num_states as u128 - 1)
}

fn binomial_u128(n: u128, k: u128) -> Option<u128> {
    if k > n {
        return Some(0);
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc.checked_mul(n - i)?;
        acc /= i + 1;
    }
    Some(acc)
}

/// Dense canonical indexing of the multiset lattice: count vectors of length
/// `k` summing to `n`, ranked lexicographically (ascending in `c_0`, then
/// `c_1`, …) via the combinatorial number system. Encode and decode are
/// `O(n + k)`.
#[derive(Clone, Debug)]
struct Lattice {
    n: usize,
    k: usize,
    /// `combos[s][m]` = number of count vectors of length `m` summing to `s`
    /// = `C(s + m − 1, m − 1)`, for `s ≤ n`, `m ≤ k`.
    combos: Vec<Vec<u64>>,
    size: u64,
}

impl Lattice {
    fn new(n: usize, k: usize, limit: u64) -> Result<Self, MCheckError> {
        let size = lattice_size(n, k).unwrap_or(u128::MAX);
        if size > limit as u128 {
            return Err(MCheckError::SpaceTooLarge { configurations: size, limit });
        }
        let mut combos = vec![vec![0u64; k + 1]; n + 1];
        combos[0].fill(1); // the empty sum

        for s in 1..=n {
            combos[s][0] = 0;
            for m in 1..=k {
                // C(s + m − 1, m − 1) = C(s − 1 + m − 1, m − 1) + C(s + m − 2, m − 2):
                // either the last coordinate is ≥ 1 or the first is fixed… the
                // standard stars-and-bars recurrence over (s, m).
                combos[s][m] = combos[s - 1][m].saturating_add(combos[s][m - 1]);
            }
        }
        Ok(Lattice { n, k, combos, size: size as u64 })
    }

    fn size(&self) -> u64 {
        self.size
    }

    /// Number of count vectors of length `m` summing to `s`.
    fn block(&self, s: usize, m: usize) -> u64 {
        self.combos[s][m]
    }

    /// Rank of a count vector in the lexicographic enumeration.
    fn index_of(&self, counts: &[u32]) -> u64 {
        debug_assert_eq!(counts.len(), self.k);
        let mut idx = 0u64;
        let mut rem = self.n;
        for (i, &c) in counts.iter().enumerate().take(self.k - 1) {
            for v in 0..c as usize {
                idx += self.block(rem - v, self.k - 1 - i);
            }
            rem -= c as usize;
        }
        idx
    }

    /// Inverse of [`Lattice::index_of`], writing into `out`.
    fn counts_of(&self, mut idx: u64, out: &mut [u32]) {
        debug_assert_eq!(out.len(), self.k);
        let mut rem = self.n;
        let k = self.k;
        for (i, slot) in out.iter_mut().enumerate().take(k - 1) {
            let mut v = 0usize;
            loop {
                let block = self.block(rem - v, k - 1 - i);
                if idx < block {
                    break;
                }
                idx -= block;
                v += 1;
            }
            *slot = v as u32;
            rem -= v;
        }
        out[k - 1] = rem as u32;
    }

    /// First count vector in rank order: `(0, …, 0, n)`.
    fn first(&self, out: &mut [u32]) {
        out.fill(0);
        out[self.k - 1] = self.n as u32;
    }

    /// Advances `counts` to its rank-order successor; returns `false` past
    /// the last vector `(n, 0, …, 0)`. Amortized O(1) over a full sweep, so
    /// enumerating the lattice costs no per-configuration decode.
    fn advance(&self, counts: &mut [u32]) -> bool {
        // Find the largest p ≤ k − 2 with a positive suffix sum after it,
        // increment c_p and push the rest of that suffix to the tail.
        let mut suffix = counts[self.k - 1];
        for p in (0..self.k - 1).rev() {
            if suffix > 0 {
                counts[p] += 1;
                for c in counts[p + 1..].iter_mut() {
                    *c = 0;
                }
                counts[self.k - 1] = suffix - 1;
                return true;
            }
            suffix += counts[p];
        }
        false
    }
}

/// A growable bitset over dense configuration indices.
#[derive(Clone, Debug)]
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    fn new(len: u64) -> Self {
        BitSet { words: vec![0u64; (len as usize).div_ceil(64)] }
    }

    fn set(&mut self, i: u64) {
        self.words[(i / 64) as usize] |= 1 << (i % 64);
    }

    fn get(&self, i: u64) -> bool {
        self.words[(i / 64) as usize] >> (i % 64) & 1 == 1
    }

    fn count(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }
}

/// The exact transition structure of an [`EnumerableProtocol`] over its
/// enumerated state space: the null matrix, the deterministic move of every
/// non-null ordered state pair, and the reverse move index used by the
/// backward reachability pass. Shared by every entry point of this module.
pub struct ModelChecker<P: EnumerableProtocol> {
    protocol: P,
    n: usize,
    k: usize,
    decoded: Vec<P::State>,
    null: Vec<bool>,
    /// `moves[i * k + j]` for non-null `(i, j)`.
    moves: Vec<Option<(u32, u32)>>,
    /// Source pairs grouped by their target pair, for predecessor walks.
    moves_by_target: HashMap<(u32, u32), Vec<(u32, u32)>>,
    /// The protocol's declared state symmetry, validated against the
    /// transition structure in [`ModelChecker::new`].
    symmetry: StateSymmetry,
}

impl<P: EnumerableProtocol> ModelChecker<P> {
    /// Builds the transition structure, validating [`Protocol::is_null`]
    /// soundness exhaustively (every ordered pair) and probing every pair's
    /// transition for RNG dependence.
    ///
    /// # Errors
    ///
    /// [`MCheckError::RandomizedTransition`] if differently seeded probe
    /// evaluations of a pair transition disagree (see the variant docs for
    /// the probe's limits); [`MCheckError::UnsoundNull`] if a pair claimed
    /// null is changed by its transition;
    /// [`MCheckError::UnsoundSymmetry`] if the protocol's declared
    /// [`StateSymmetry`] is malformed or some generator fails to commute
    /// with the transition function or the null predicate over any state
    /// pair (checked exhaustively — `k²` pairs per generator).
    pub fn new(protocol: P) -> Result<Self, MCheckError> {
        let n = protocol.population_size();
        let k = protocol.num_states();
        let decoded: Vec<P::State> = (0..k).map(|i| protocol.state_from_index(i)).collect();
        let mut null = vec![false; k * k];
        let mut moves = vec![None; k * k];
        let mut moves_by_target: HashMap<(u32, u32), Vec<(u32, u32)>> = HashMap::new();
        for i in 0..k {
            for j in 0..k {
                let (a, b) = (&decoded[i], &decoded[j]);
                // Determinism probe: a deterministic transition ignores the
                // RNG, so its output is identical under any stream; probing
                // with all-zero and all-one bit streams plus two ChaCha
                // streams catches any dependence on the usual draw shapes
                // (bits, bounded ints, floats).
                let out1 = {
                    let mut rng = rand::rngs::mock::StepRng::new(0, 0);
                    protocol.transition(a, b, &mut rng)
                };
                let mut disagrees = {
                    let mut rng = rand::rngs::mock::StepRng::new(u64::MAX, 0);
                    protocol.transition(a, b, &mut rng) != out1
                };
                for seed in [7u64, 99] {
                    let mut rng = ChaCha8Rng::seed_from_u64(seed);
                    disagrees |= protocol.transition(a, b, &mut rng) != out1;
                }
                if disagrees {
                    return Err(MCheckError::RandomizedTransition { i, j });
                }
                if protocol.is_null(a, b) {
                    if out1 != (a.clone(), b.clone()) {
                        return Err(MCheckError::UnsoundNull { i, j });
                    }
                    null[i * k + j] = true;
                } else {
                    let i2 = protocol.state_index(&out1.0) as u32;
                    let j2 = protocol.state_index(&out1.1) as u32;
                    moves[i * k + j] = Some((i2, j2));
                    moves_by_target.entry((i2, j2)).or_default().push((i as u32, j as u32));
                }
            }
        }
        let symmetry = protocol.state_symmetry();
        if let Err(detail) = symmetry.validate_shape(k) {
            return Err(MCheckError::UnsoundSymmetry { detail });
        }
        for (g, perm) in symmetry.generators(k).iter().enumerate() {
            let mut seen = vec![false; k];
            for &image in perm {
                if image >= k || std::mem::replace(&mut seen[image], true) {
                    return Err(MCheckError::UnsoundSymmetry {
                        detail: format!("generator {g} is not a permutation of 0..{k}"),
                    });
                }
            }
            for i in 0..k {
                for j in 0..k {
                    let (pi, pj) = (perm[i], perm[j]);
                    if null[i * k + j] != null[pi * k + pj] {
                        return Err(MCheckError::UnsoundSymmetry {
                            detail: format!(
                                "generator {g} breaks null-equivariance on state pair \
                                 ({i}, {j}) ↦ ({pi}, {pj})"
                            ),
                        });
                    }
                    if let Some((i2, j2)) = moves[i * k + j] {
                        let image = Some((perm[i2 as usize] as u32, perm[j2 as usize] as u32));
                        if moves[pi * k + pj] != image {
                            return Err(MCheckError::UnsoundSymmetry {
                                detail: format!(
                                    "generator {g} breaks transition-equivariance on state \
                                     pair ({i}, {j}): σ·δ(i, j) ≠ δ(σ·i, σ·j)"
                                ),
                            });
                        }
                    }
                }
            }
        }
        Ok(ModelChecker { protocol, n, k, decoded, null, moves, moves_by_target, symmetry })
    }

    /// The protocol's validated state symmetry.
    pub fn symmetry(&self) -> &StateSymmetry {
        &self.symmetry
    }

    /// The protocol under verification.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// The population size `n`.
    pub fn population_size(&self) -> usize {
        self.n
    }

    /// The enumerated state-space size `|S|`.
    pub fn num_states(&self) -> usize {
        self.k
    }

    /// The count vector of a per-agent configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration size differs from the population size.
    pub fn counts_of_configuration(&self, config: &Configuration<P::State>) -> Vec<u32> {
        assert_eq!(config.len(), self.n, "configuration size must match the population");
        let mut counts = vec![0u32; self.k];
        for s in config.iter() {
            counts[self.protocol.state_index(s)] += 1;
        }
        counts
    }

    /// Materializes the canonical per-agent configuration of a count vector.
    pub fn configuration_of_counts(&self, counts: &[u32]) -> Configuration<P::State> {
        let mut states = Vec::with_capacity(self.n);
        for (i, &c) in counts.iter().enumerate() {
            for _ in 0..c {
                states.push(self.decoded[i].clone());
            }
        }
        Configuration::from_states(states)
    }

    /// The number of non-null ordered agent pairs of a count vector (the
    /// quantity `A` of the batched engine's cost model).
    pub fn active_pairs(&self, counts: &[u32], present: &[u32]) -> u64 {
        let mut active = 0u64;
        for &i in present {
            let ci = counts[i as usize] as u64;
            for &j in present {
                if !self.null[i as usize * self.k + j as usize] {
                    active += ci * (counts[j as usize] as u64 - u64::from(i == j));
                }
            }
        }
        active
    }

    /// Whether a count vector is silent (no non-null ordered pair).
    pub fn is_silent(&self, counts: &[u32]) -> bool {
        let present = present_states(counts);
        self.active_pairs(counts, &present) == 0
    }

    /// Checks that the correctness oracle gives the same verdict on `counts`
    /// and on its image under every generator in `gens` — the orbit-
    /// invariance a sound quotient proof needs (transition equivariance is
    /// already validated in [`ModelChecker::new`]; the oracle can only be
    /// probed on the configurations the caller actually classifies).
    /// `image` is `k`-length scratch.
    fn oracle_invariant_under(
        &self,
        counts: &[u32],
        gens: &[Vec<usize>],
        image: &mut [u32],
    ) -> Result<(), MCheckError>
    where
        P: CorrectnessOracle,
    {
        let verdict = self.protocol.is_correct(&self.configuration_of_counts(counts));
        for (g, perm) in gens.iter().enumerate() {
            for (i, &c) in counts.iter().enumerate() {
                image[perm[i]] = c;
            }
            if self.protocol.is_correct(&self.configuration_of_counts(image)) != verdict {
                return Err(MCheckError::UnsoundSymmetry {
                    detail: format!(
                        "correctness oracle is not orbit-invariant under generator {g}"
                    ),
                });
            }
        }
        Ok(())
    }

    /// Calls `f(i, j, weight, successor_counts)` for every distinct successor
    /// of `counts` under one non-null interaction of the ordered state pair
    /// `(i, j)`, with `weight` the number of ordered agent pairs mapping to
    /// it (weights sum to the active-pair count). `scratch` must have length
    /// `k`.
    fn for_each_successor(
        &self,
        counts: &[u32],
        present: &[u32],
        scratch: &mut [u32],
        mut f: impl FnMut(u32, u32, u64, &[u32]),
    ) {
        for &i in present {
            let ci = counts[i as usize] as u64;
            for &j in present {
                let w = ci * (counts[j as usize] as u64 - u64::from(i == j));
                if w == 0 {
                    continue;
                }
                if let Some((i2, j2)) = self.moves[i as usize * self.k + j as usize] {
                    scratch.copy_from_slice(counts);
                    scratch[i as usize] -= 1;
                    scratch[j as usize] -= 1;
                    scratch[i2 as usize] += 1;
                    scratch[j2 as usize] += 1;
                    f(i, j, w, scratch);
                }
            }
        }
    }
}

fn present_states(counts: &[u32]) -> Vec<u32> {
    counts.iter().enumerate().filter(|(_, &c)| c > 0).map(|(i, _)| i as u32).collect()
}

/// The verdict of an exhaustive self-stabilization check over the **full**
/// configuration lattice, with enough structure retained to answer
/// membership queries ([`StabilizationReport::is_convergent`]) and to build
/// counterexample traces.
pub struct StabilizationReport<P: EnumerableProtocol> {
    checker: ModelChecker<P>,
    lattice: Lattice,
    /// Configurations that can reach a correct silent configuration.
    convergent: BitSet,
    /// Total configurations in the lattice.
    pub configurations: u64,
    /// Silent configurations.
    pub silent: u64,
    /// Correct configurations (per the protocol's [`CorrectnessOracle`]).
    pub correct: u64,
    /// Silent configurations that are **not** correct (0 when verified).
    pub silent_incorrect: u64,
    /// Correct configurations that are **not** silent (0 when verified).
    pub correct_nonsilent: u64,
    /// Configurations that cannot reach a correct silent configuration
    /// (0 when verified).
    pub non_convergent: u64,
    /// A silent-but-incorrect witness, if any.
    pub silent_incorrect_witness: Option<Configuration<P::State>>,
    /// A correct-but-non-silent witness, if any.
    pub correct_nonsilent_witness: Option<Configuration<P::State>>,
    /// A non-convergent witness, if any.
    pub non_convergent_witness: Option<Configuration<P::State>>,
}

impl<P: EnumerableProtocol> StabilizationReport<P> {
    /// Whether self-stabilization is proved: silent ⟺ correct, and every
    /// configuration reaches a correct silent configuration (hence, silent
    /// configurations being absorbing, is absorbed into one with
    /// probability 1).
    pub fn verified(&self) -> bool {
        self.silent_incorrect == 0 && self.correct_nonsilent == 0 && self.non_convergent == 0
    }

    /// Whether a configuration can reach a correct silent configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration size differs from the population size.
    pub fn is_convergent(&self, config: &Configuration<P::State>) -> bool {
        let counts = self.checker.counts_of_configuration(config);
        self.convergent.get(self.lattice.index_of(&counts))
    }

    /// A counterexample [`Trace`] for a failed verification: a shortest
    /// forward path (one snapshot per configuration, step-indexed) from some
    /// live configuration into the witness, demonstrating how the chain
    /// reaches it. For an isolated witness the trace is the single snapshot.
    /// `None` when the verification succeeded.
    pub fn counterexample_trace(&self) -> Option<Trace<P::State>> {
        let witness = self
            .non_convergent_witness
            .as_ref()
            .or(self.silent_incorrect_witness.as_ref())
            .or(self.correct_nonsilent_witness.as_ref())?;
        let target = self.checker.counts_of_configuration(witness);
        let target_idx = self.lattice.index_of(&target);
        // Backward BFS from the witness over predecessors, then unwind the
        // parent chain into a forward path ending at the witness.
        let mut parent: HashMap<u64, u64> = HashMap::new();
        let mut queue = VecDeque::new();
        queue.push_back(target_idx);
        parent.insert(target_idx, target_idx);
        let mut farthest = target_idx;
        let mut counts = vec![0u32; self.checker.k];
        let mut scratch = vec![0u32; self.checker.k];
        while let Some(idx) = queue.pop_front() {
            self.lattice.counts_of(idx, &mut counts);
            farthest = idx;
            for_each_predecessor(&self.checker, &self.lattice, &counts, &mut scratch, |pidx| {
                if let Entry::Vacant(e) = parent.entry(pidx) {
                    e.insert(idx);
                    queue.push_back(pidx);
                }
            });
        }
        let mut trace = Trace::new();
        let mut at = farthest;
        let mut step = 0u64;
        loop {
            self.lattice.counts_of(at, &mut counts);
            trace.snapshot(Interactions::new(step), self.checker.configuration_of_counts(&counts));
            if at == target_idx {
                break;
            }
            at = parent[&at];
            step += 1;
        }
        trace.record(
            Interactions::new(step),
            "counterexample",
            format!("path of {step} non-null transitions into the witness configuration"),
        );
        Some(trace)
    }
}

/// Enumerates the predecessors of `counts` under one non-null interaction,
/// calling `f` with each predecessor's dense index (possibly repeatedly).
fn for_each_predecessor<P: EnumerableProtocol>(
    checker: &ModelChecker<P>,
    lattice: &Lattice,
    counts: &[u32],
    scratch: &mut [u32],
    mut f: impl FnMut(u64),
) {
    // A predecessor fires some move (i, j) → (i2, j2) with both targets
    // present here, so only present target pairs need their source lists
    // scanned: pred = counts + e_i + e_j − e_{i2} − e_{j2}.
    let present = present_states(counts);
    for &a in &present {
        for &b in &present {
            if a == b && counts[a as usize] < 2 {
                continue;
            }
            let Some(sources) = checker.moves_by_target.get(&(a, b)) else { continue };
            for &(i, j) in sources {
                scratch.copy_from_slice(counts);
                scratch[a as usize] -= 1;
                scratch[b as usize] -= 1;
                scratch[i as usize] += 1;
                scratch[j as usize] += 1;
                f(lattice.index_of(scratch));
            }
        }
    }
}

/// Exhaustively verifies self-stabilization over the **entire**
/// configuration lattice of the protocol: classifies every configuration as
/// silent/correct, checks silent ⟺ correct, and proves by backward
/// reachability that every configuration can reach a correct silent
/// configuration (equivalently, is absorbed into one with probability 1).
///
/// # Errors
///
/// [`MCheckError::SpaceTooLarge`] when the lattice exceeds
/// [`MCheckOptions::max_configurations`] (fall back to the seeded
/// [`check_convergence_from`]), plus the construction errors of
/// [`ModelChecker::new`].
pub fn check_self_stabilization<P: EnumerableProtocol + CorrectnessOracle>(
    protocol: P,
    options: &MCheckOptions,
) -> Result<StabilizationReport<P>, MCheckError> {
    let checker = ModelChecker::new(protocol)?;
    let lattice = Lattice::new(checker.n, checker.k, options.max_configurations)?;
    let total = lattice.size();

    // Pass 1: classify every configuration by an odometer sweep in rank
    // order (no per-configuration decode).
    let mut silent_set = BitSet::new(total);
    let mut targets = BitSet::new(total);
    let mut silent = 0u64;
    let mut correct = 0u64;
    let mut silent_incorrect = 0u64;
    let mut correct_nonsilent = 0u64;
    let mut silent_incorrect_witness = None;
    let mut correct_nonsilent_witness = None;
    let mut counts = vec![0u32; checker.k];
    lattice.first(&mut counts);
    let mut idx = 0u64;
    loop {
        let present = present_states(&counts);
        let is_silent = checker.active_pairs(&counts, &present) == 0;
        let is_correct = checker.protocol.is_correct(&checker.configuration_of_counts(&counts));
        if is_silent {
            silent += 1;
            silent_set.set(idx);
        }
        if is_correct {
            correct += 1;
        }
        if is_silent && is_correct {
            targets.set(idx);
        }
        if is_silent && !is_correct {
            silent_incorrect += 1;
            if silent_incorrect_witness.is_none() {
                silent_incorrect_witness = Some(checker.configuration_of_counts(&counts));
            }
        }
        if is_correct && !is_silent {
            correct_nonsilent += 1;
            if correct_nonsilent_witness.is_none() {
                correct_nonsilent_witness = Some(checker.configuration_of_counts(&counts));
            }
        }
        idx += 1;
        if !lattice.advance(&mut counts) {
            break;
        }
    }
    debug_assert_eq!(idx, total);

    // Pass 2: backward reachability from the correct silent configurations.
    let mut convergent = BitSet::new(total);
    let mut queue: VecDeque<u64> = VecDeque::new();
    for word in 0..targets.words.len() {
        let mut bits = targets.words[word];
        while bits != 0 {
            let bit = bits.trailing_zeros() as u64;
            let t = word as u64 * 64 + bit;
            convergent.set(t);
            queue.push_back(t);
            bits &= bits - 1;
        }
    }
    let mut scratch = vec![0u32; checker.k];
    while let Some(c) = queue.pop_front() {
        lattice.counts_of(c, &mut counts);
        for_each_predecessor(&checker, &lattice, &counts, &mut scratch, |pidx| {
            if !convergent.get(pidx) {
                convergent.set(pidx);
                queue.push_back(pidx);
            }
        });
    }
    let reached = convergent.count();
    let non_convergent = total - reached;
    let mut non_convergent_witness = None;
    if non_convergent > 0 {
        for i in 0..total {
            if !convergent.get(i) {
                lattice.counts_of(i, &mut counts);
                non_convergent_witness = Some(checker.configuration_of_counts(&counts));
                break;
            }
        }
    }

    Ok(StabilizationReport {
        checker,
        lattice,
        convergent,
        configurations: total,
        silent,
        correct,
        silent_incorrect,
        correct_nonsilent,
        non_convergent,
        silent_incorrect_witness,
        correct_nonsilent_witness,
        non_convergent_witness,
    })
}

/// The verdict of an exhaustive self-stabilization proof over the **full**
/// configuration lattice, computed on the quotient by the protocol's
/// validated [`StateSymmetry`]; see [`check_self_stabilization_quotient`].
///
/// Because the quotient chain is an exact lumping of the full chain (the
/// group is validated to commute with the transition structure, and the
/// oracle is probed for orbit-invariance on every classified orbit), the
/// verdict is a statement about **every** configuration, exactly as with
/// [`check_self_stabilization`] — only the working set shrinks, from
/// `C(n + k − 1, k − 1)` configurations to the orbit count.
#[derive(Clone, PartialEq, Debug)]
pub struct QuotientStabilizationReport<S> {
    /// Full-lattice size `C(n + k − 1, k − 1)` the verdict covers.
    pub configurations: u128,
    /// Orbit representatives actually enumerated and classified.
    pub orbits: u64,
    /// Order of the validated symmetry group.
    pub group_order: u128,
    /// Silent orbits (silence is orbit-invariant by null-equivariance).
    pub silent: u64,
    /// Correct orbits (the oracle is probed for orbit-invariance).
    pub correct: u64,
    /// Orbits that are silent but not correct.
    pub silent_incorrect: u64,
    /// Orbits that are correct but not silent.
    pub correct_nonsilent: u64,
    /// Orbits that cannot reach a correct silent orbit.
    pub non_convergent: u64,
    /// A silent-but-incorrect representative, if any.
    pub silent_incorrect_witness: Option<Configuration<S>>,
    /// A correct-but-nonsilent representative, if any.
    pub correct_nonsilent_witness: Option<Configuration<S>>,
    /// A representative that cannot converge, if any.
    pub non_convergent_witness: Option<Configuration<S>>,
    /// The checker's slice of the unified counter registry: orbit
    /// expansions (as frontier pops) and successor-store spill bytes.
    pub counters: CounterBlock,
}

impl<S> QuotientStabilizationReport<S> {
    /// Whether the protocol is verified: over the full lattice, silent ⟺
    /// correct and every configuration converges.
    pub fn verified(&self) -> bool {
        self.silent_incorrect == 0 && self.correct_nonsilent == 0 && self.non_convergent == 0
    }
}

/// Proves self-stabilization over the **full** configuration lattice on the
/// symmetry quotient: enumerates only canonical orbit representatives
/// (odometer sweep, skipping non-canonical vectors in place), classifies
/// each orbit, builds the quotient successor relation, and runs the
/// backward-reachability pass from the correct silent orbits. With the
/// identity symmetry this degenerates to a (compressed) dense check.
///
/// Capacity guards: the enumeration still *walks* the full lattice once, so
/// its size is guarded by `max_configurations × |G|` (time); the orbit
/// count — the actual working set — is guarded by `max_reachable` (memory),
/// and the quotient successor store spills past `max_resident_bytes`.
///
/// # Errors
///
/// [`MCheckError::SpaceTooLarge`] / [`MCheckError::ReachableTooLarge`] past
/// the guards, [`MCheckError::UnsoundSymmetry`] if the oracle is not
/// orbit-invariant (transition equivariance is validated by
/// [`ModelChecker::new`]), plus the construction errors of
/// [`ModelChecker::new`].
pub fn check_self_stabilization_quotient<P: EnumerableProtocol + CorrectnessOracle>(
    protocol: P,
    options: &MCheckOptions,
) -> Result<QuotientStabilizationReport<P::State>, MCheckError> {
    let checker = ModelChecker::new(protocol)?;
    let k = checker.k;
    let n = checker.n;
    let group_order = checker.symmetry.order(k);
    // Time guard: the odometer touches every lattice point once (amortized
    // O(1) plus an is-canonical test), so allow the full size to exceed
    // the dense guard by up to the group order — the quotient's win is that
    // only canonical representatives are stored and classified.
    let budget = (options.max_configurations as u128)
        .saturating_mul(group_order)
        .min(u64::MAX as u128) as u64;
    let lattice = Lattice::new(n, k, budget)?;
    let symmetry = checker.symmetry.clone();
    let gens = symmetry.generators(k);

    // Pass 1: enumerate canonical representatives into the compressed store.
    let mut store = ConfigStore::new(k);
    let mut index = HashIndex::new();
    let mut counts = vec![0u32; k];
    lattice.first(&mut counts);
    loop {
        if symmetry.is_canonical(&counts) {
            if store.len() >= options.max_reachable {
                return Err(MCheckError::ReachableTooLarge { limit: options.max_reachable });
            }
            let hash = store.probe(&counts);
            index.insert(hash, store.push_probe());
        }
        if !lattice.advance(&mut counts) {
            break;
        }
    }
    let orbits = store.len() as u64;

    // Pass 2: classify every orbit and build the quotient successor lists.
    let mut succ = EdgeStore::new(options.max_resident_bytes, options.spill_dir.clone());
    let mut active: Vec<u64> = Vec::with_capacity(store.len());
    let mut targets = vec![false; store.len()];
    let mut silent = 0u64;
    let mut correct = 0u64;
    let mut silent_incorrect = 0u64;
    let mut correct_nonsilent = 0u64;
    let mut silent_incorrect_witness = None;
    let mut correct_nonsilent_witness = None;
    let mut scratch = vec![0u32; k];
    let mut canon = vec![0u32; k];
    let mut image = vec![0u32; k];
    let mut local: Vec<(u32, u64)> = Vec::new();
    for id in 0..store.len() as u32 {
        store.get(id, &mut counts);
        checker.oracle_invariant_under(&counts, &gens, &mut image)?;
        let present = present_states(&counts);
        local.clear();
        checker.for_each_successor(&counts, &present, &mut scratch, |_, _, w, succ_counts| {
            canon.copy_from_slice(succ_counts);
            symmetry.canonicalize(&mut canon);
            let hash = store.probe(&canon);
            let t = store
                .find_probe(&index, hash)
                .expect("every canonical successor was enumerated in pass 1");
            match local.iter_mut().find(|(s, _)| *s == t) {
                Some((_, acc)) => *acc += w,
                None => local.push((t, w)),
            }
        });
        let a: u64 = local.iter().map(|&(_, w)| w).sum();
        debug_assert_eq!(a, checker.active_pairs(&counts, &present));
        let is_silent = a == 0;
        let is_correct = checker.protocol.is_correct(&checker.configuration_of_counts(&counts));
        if is_silent {
            silent += 1;
        }
        if is_correct {
            correct += 1;
        }
        match (is_silent, is_correct) {
            (true, true) => targets[id as usize] = true,
            (true, false) => {
                silent_incorrect += 1;
                if silent_incorrect_witness.is_none() {
                    silent_incorrect_witness = Some(checker.configuration_of_counts(&counts));
                }
            }
            (false, true) => {
                correct_nonsilent += 1;
                if correct_nonsilent_witness.is_none() {
                    correct_nonsilent_witness = Some(checker.configuration_of_counts(&counts));
                }
            }
            (false, false) => {}
        }
        active.push(a);
        succ.push_state(&local).map_err(MCheckError::from_spill)?;
    }
    succ.seal().map_err(MCheckError::from_spill)?;

    // Pass 3: backward reachability from the correct silent orbits, reusing
    // the reachable-space machinery (resident reverse BFS or spilled
    // fixpoint scans).
    let quotient = !symmetry.is_identity();
    // The quotient sweep expands each orbit exactly once in pass 2 — the
    // same unit of work a BFS frontier pop represents.
    let space = ReachableSpace {
        checker,
        store,
        succ,
        active,
        totals: None,
        quotient,
        frontier_pops: orbits,
    };
    let mut reached = targets;
    space.extend_reverse_reachable(&mut reached)?;
    let non_convergent = reached.iter().filter(|&&r| !r).count() as u64;
    let non_convergent_witness = reached.iter().position(|&r| !r).map(|s| {
        space.counts_into(s as u32, &mut counts);
        space.checker.configuration_of_counts(&counts)
    });

    Ok(QuotientStabilizationReport {
        counters: space.counters(),
        configurations: lattice_size(n, k).unwrap_or(u128::MAX),
        orbits,
        group_order,
        silent,
        correct,
        silent_incorrect,
        correct_nonsilent,
        non_convergent,
        silent_incorrect_witness,
        correct_nonsilent_witness,
        non_convergent_witness,
    })
}

/// The compressed reachable closure of a seed set — the checker's default
/// substrate. Count vectors live in a `ConfigStore` of sparse keys (each
/// vector's present states as `(gap, count)` varint pairs), successor
/// lists in a spillable `EdgeStore`, and when the protocol declares a
/// nontrivial (validated) [`StateSymmetry`] and the scheduler is uniform,
/// the states are canonical orbit representatives of the symmetry quotient,
/// so the working set is proportional to reachable *orbits*.
pub struct ReachableSpace<P: EnumerableProtocol> {
    checker: ModelChecker<P>,
    /// Count vectors in discovery (BFS) order, one sparse varint key each.
    store: ConfigStore,
    /// CSR successor lists: per state, `(target, weight)` with weights
    /// summing to the state's active pair weight (rate-weighted under a
    /// weighted scheduler); spills to disk past the resident budget.
    succ: EdgeStore,
    /// Active pair weight per state (0 ⟺ silent under the scheduler).
    active: Vec<u64>,
    /// Total pair weight `W(c)` per state under a weighted scheduler;
    /// `None` under the uniform scheduler, where it is the constant
    /// `n(n−1)`.
    totals: Option<Vec<u64>>,
    /// Whether states are canonical orbit representatives of the declared
    /// symmetry's quotient (uniform scheduler + nontrivial validated group).
    quotient: bool,
    /// States expanded during construction (frontier pops in the BFS
    /// closure; one expansion per orbit in the quotient sweep).
    frontier_pops: u64,
}

impl<P: EnumerableProtocol> ReachableSpace<P> {
    /// Number of reachable configurations (orbit representatives when
    /// [`ReachableSpace::quotient`] is true).
    pub fn len(&self) -> usize {
        self.active.len()
    }

    /// Whether the closure is empty (it never is — seeds are included).
    pub fn is_empty(&self) -> bool {
        self.active.is_empty()
    }

    /// Number of silent reachable configurations.
    pub fn silent_count(&self) -> usize {
        self.active.iter().filter(|&&a| a == 0).count()
    }

    /// The checker this closure was built with.
    pub fn checker(&self) -> &ModelChecker<P> {
        &self.checker
    }

    /// Whether the closure was built on the symmetry quotient (states are
    /// orbit representatives rather than raw configurations).
    pub fn quotient(&self) -> bool {
        self.quotient
    }

    /// Whether the successor store spilled to disk.
    pub fn spilled(&self) -> bool {
        self.succ.is_spilled()
    }

    /// The closure's slice of the unified counter registry:
    /// [`Counter::McheckFrontierPops`] (states expanded during construction)
    /// and [`Counter::McheckSpillBytes`] (spill-file bytes, zero while
    /// resident).
    pub fn counters(&self) -> CounterBlock {
        let mut block = CounterBlock::default();
        block.set(Counter::McheckFrontierPops, self.frontier_pops);
        block.set(Counter::McheckSpillBytes, self.succ.spilled_bytes());
        block
    }

    fn counts_into(&self, state: u32, out: &mut [u32]) {
        self.store.get(state, out);
    }

    /// Total pair weight of a state: the numerator of the expected null-run
    /// marginalization — `n(n−1)` under the uniform scheduler, `W(c)` under
    /// a weighted one.
    fn total_weight_of(&self, state: usize) -> f64 {
        match &self.totals {
            Some(totals) => totals[state] as f64,
            None => {
                let n = self.checker.n as f64;
                n * (n - 1.0)
            }
        }
    }

    /// BFS distances to the nearest silent state over the *forward* relation
    /// (i.e. along the arrow of time), `u32::MAX` for states that cannot
    /// reach silence.
    ///
    /// Resident stores build the reverse adjacency by counting sort and run
    /// one multi-source BFS; spilled stores cannot afford the reverse edge
    /// array, so they run sequential relaxation scans to a fixpoint (at most
    /// `max-distance + 1` passes over the edge file).
    fn distance_to_silence(&self) -> Result<Vec<u32>, MCheckError> {
        let states = self.len();
        let mut dist = vec![u32::MAX; states];
        for (s, &a) in self.active.iter().enumerate() {
            if a == 0 {
                dist[s] = 0;
            }
        }
        if self.succ.is_spilled() {
            loop {
                let mut changed = false;
                self.succ
                    .for_each_state(|s, edges| {
                        if self.active[s as usize] == 0 {
                            return;
                        }
                        let mut best = u32::MAX;
                        for &(t, _) in edges {
                            best = best.min(dist[t as usize]);
                        }
                        if best != u32::MAX && best.saturating_add(1) < dist[s as usize] {
                            dist[s as usize] = best + 1;
                            changed = true;
                        }
                    })
                    .map_err(MCheckError::from_spill)?;
                if !changed {
                    break;
                }
            }
            return Ok(dist);
        }
        // Reverse adjacency by counting sort over the forward edges.
        let edge_count = self.succ.edge_count() as usize;
        let mut indegree = vec![0u32; states + 1];
        self.succ
            .for_each_state(|_, edges| {
                for &(t, _) in edges {
                    indegree[t as usize + 1] += 1;
                }
            })
            .map_err(MCheckError::from_spill)?;
        for i in 0..states {
            indegree[i + 1] += indegree[i];
        }
        let mut rev = vec![0u32; edge_count];
        let mut cursor = indegree.clone();
        self.succ
            .for_each_state(|s, edges| {
                for &(t, _) in edges {
                    rev[cursor[t as usize] as usize] = s;
                    cursor[t as usize] += 1;
                }
            })
            .map_err(MCheckError::from_spill)?;
        let mut queue = VecDeque::new();
        for (s, &d) in dist.iter().enumerate() {
            if d == 0 {
                queue.push_back(s as u32);
            }
        }
        while let Some(t) = queue.pop_front() {
            let d = dist[t as usize] + 1;
            for &s in &rev[indegree[t as usize] as usize..indegree[t as usize + 1] as usize] {
                if dist[s as usize] == u32::MAX {
                    dist[s as usize] = d;
                    queue.push_back(s);
                }
            }
        }
        Ok(dist)
    }

    /// Marks every state that can reach a state marked in `reached` (which
    /// is extended in place): resident stores run a reverse BFS over a
    /// counting-sorted reverse adjacency; spilled stores run sequential
    /// fixpoint scans.
    fn extend_reverse_reachable(&self, reached: &mut [bool]) -> Result<(), MCheckError> {
        let states = self.len();
        if self.succ.is_spilled() {
            loop {
                let mut changed = false;
                self.succ
                    .for_each_state(|s, edges| {
                        if reached[s as usize] {
                            return;
                        }
                        if edges.iter().any(|&(t, _)| reached[t as usize]) {
                            reached[s as usize] = true;
                            changed = true;
                        }
                    })
                    .map_err(MCheckError::from_spill)?;
                if !changed {
                    return Ok(());
                }
            }
        }
        let edge_count = self.succ.edge_count() as usize;
        let mut indegree = vec![0u32; states + 1];
        self.succ
            .for_each_state(|_, edges| {
                for &(t, _) in edges {
                    indegree[t as usize + 1] += 1;
                }
            })
            .map_err(MCheckError::from_spill)?;
        for i in 0..states {
            indegree[i + 1] += indegree[i];
        }
        let mut rev = vec![0u32; edge_count];
        let mut cursor = indegree.clone();
        self.succ
            .for_each_state(|s, edges| {
                for &(t, _) in edges {
                    rev[cursor[t as usize] as usize] = s;
                    cursor[t as usize] += 1;
                }
            })
            .map_err(MCheckError::from_spill)?;
        let mut queue: VecDeque<u32> =
            reached.iter().enumerate().filter(|(_, &r)| r).map(|(s, _)| s as u32).collect();
        while let Some(t) = queue.pop_front() {
            for &s in &rev[indegree[t as usize] as usize..indegree[t as usize + 1] as usize] {
                if !reached[s as usize] {
                    reached[s as usize] = true;
                    queue.push_back(s);
                }
            }
        }
        Ok(())
    }
}

/// Explores the reachable closure of `seeds` breadth-first, recording the
/// exact successor structure (distinct successors with their ordered-pair
/// weights) of every reachable configuration.
///
/// # Errors
///
/// [`MCheckError::ReachableTooLarge`] past [`MCheckOptions::max_reachable`],
/// plus the construction errors of [`ModelChecker::new`].
pub fn explore_reachable<P: EnumerableProtocol>(
    protocol: P,
    seeds: &[Configuration<P::State>],
    options: &MCheckOptions,
) -> Result<ReachableSpace<P>, MCheckError> {
    explore_reachable_with_rates(protocol, seeds, None, options)
}

/// The rate-aware body of [`explore_reachable`]: with `rates` the ordered
/// state pair `(i, j)` carries weight `rate(i, j) · c_i · (c_j − [i = j])`
/// instead of the uniform agent-pair count, rate-0 pairs drop out of the
/// active measure (and the reachable relation — they fire with probability
/// 0), and the per-state total weight `W(c)` is recorded for the solve.
fn explore_reachable_with_rates<P: EnumerableProtocol>(
    protocol: P,
    seeds: &[Configuration<P::State>],
    rates: Option<IndexRates>,
    options: &MCheckOptions,
) -> Result<ReachableSpace<P>, MCheckError> {
    let checker = ModelChecker::new(protocol)?;
    let k = checker.k;
    let total_pairs = checker.n as u64 * (checker.n as u64 - 1);
    // Quotient only the uniform chain: pair rates are indexed by raw state,
    // so a weighted measure need not be orbit-invariant even when the
    // transition structure is.
    let quotient = options.use_symmetry && rates.is_none() && !checker.symmetry.is_identity();
    let mut store = ConfigStore::new(k);
    let mut index = HashIndex::new();
    let mut succ = EdgeStore::new(options.max_resident_bytes, options.spill_dir.clone());
    let mut active: Vec<u64> = Vec::new();
    let mut totals: Option<Vec<u64>> = rates.as_ref().map(|_| Vec::new());
    let mut frontier: VecDeque<u32> = VecDeque::new();

    let intern = |counts: &[u32],
                  store: &mut ConfigStore,
                  index: &mut HashIndex,
                  frontier: &mut VecDeque<u32>|
     -> Result<u32, MCheckError> {
        let hash = store.probe(counts);
        if let Some(id) = store.find_probe(index, hash) {
            return Ok(id);
        }
        if store.len() >= options.max_reachable {
            return Err(MCheckError::ReachableTooLarge { limit: options.max_reachable });
        }
        let id = store.push_probe();
        index.insert(hash, id);
        frontier.push_back(id);
        Ok(id)
    };

    for seed in seeds {
        let mut counts = checker.counts_of_configuration(seed);
        if quotient {
            checker.symmetry.canonicalize(&mut counts);
        }
        intern(&counts, &mut store, &mut index, &mut frontier)?;
    }
    let mut scratch = vec![0u32; k];
    let mut canon = vec![0u32; k];
    let mut counts = vec![0u32; k];
    let mut counts64 = vec![0u64; k];
    let mut local: Vec<(u32, u64)> = Vec::new();
    let mut frontier_pops = 0u64;
    while let Some(id) = frontier.pop_front() {
        frontier_pops += 1;
        store.get(id, &mut counts);
        let present = present_states(&counts);
        local.clear();
        let mut error = None;
        checker.for_each_successor(&counts, &present, &mut scratch, |i, j, w, succ_counts| {
            if error.is_some() {
                return;
            }
            let w = match &rates {
                None => w,
                Some(r) => match r.rate(i as usize, j as usize).checked_mul(w) {
                    Some(0) => return, // rate-0 pair: never scheduled
                    Some(w) => w,
                    None => {
                        error = Some(MCheckError::WeightOverflow);
                        return;
                    }
                },
            };
            // Lump the successor onto its orbit representative: weights of
            // orbit-equivalent successors accumulate on one target, which is
            // exactly the lumped (quotient) chain's transition weight.
            let target: &[u32] = if quotient {
                canon.copy_from_slice(succ_counts);
                checker.symmetry.canonicalize(&mut canon);
                &canon
            } else {
                succ_counts
            };
            match intern(target, &mut store, &mut index, &mut frontier) {
                Ok(t) => match local.iter_mut().find(|(s, _)| *s == t) {
                    Some((_, acc)) => match acc.checked_add(w) {
                        Some(sum) => *acc = sum,
                        None => error = Some(MCheckError::WeightOverflow),
                    },
                    None => local.push((t, w)),
                },
                Err(e) => error = Some(e),
            }
        });
        if let Some(e) = error {
            return Err(e);
        }
        let a = local
            .iter()
            .try_fold(0u64, |a, &(_, w)| a.checked_add(w))
            .ok_or(MCheckError::WeightOverflow)?;
        debug_assert!(
            rates.is_some() || a == checker.active_pairs(&counts, &present),
            "uniform edge weights sum to the active-pair count"
        );
        debug_assert_eq!(id as usize, active.len(), "BFS order matches state ids");
        active.push(a);
        if let (Some(totals), Some(r)) = (totals.as_mut(), rates.as_ref()) {
            for (dst, &c) in counts64.iter_mut().zip(counts.iter()) {
                *dst = c as u64;
            }
            let w = r
                .checked_total_weight(&counts64, total_pairs)
                .ok_or(MCheckError::WeightOverflow)?;
            debug_assert!(a <= w, "active pair weight is bounded by the total measure");
            totals.push(w);
        }
        succ.push_state(&local).map_err(MCheckError::from_spill)?;
    }
    succ.seal().map_err(MCheckError::from_spill)?;
    Ok(ReachableSpace { checker, store, succ, active, totals, quotient, frontier_pops })
}

/// The exact expected silence time of an initial configuration, solved from
/// the absorbing-chain linear system on its reachable closure.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ExactSilenceTime {
    /// Expected number of interactions until silence.
    pub expected_interactions: f64,
    /// Expected parallel time until silence (`interactions / n`).
    pub expected_parallel: f64,
    /// Size of the reachable closure the system was solved on (orbit
    /// representatives when the symmetry quotient was active).
    pub states: usize,
    /// Passes over the successor edges the solve used (preconditioner
    /// sweeps, matrix-vector products and residual checks).
    pub sweeps: usize,
    /// True relative residual `‖τ − (I − P)·x‖₂ / ‖τ‖₂` of the returned
    /// expectations, at most [`MCheckOptions::tolerance`].
    pub residual: f64,
    /// Whether the closure was built on the symmetry quotient.
    pub quotient: bool,
    /// Whether the successor store spilled to disk and the solve streamed
    /// its sweeps from the distance-ordered edge file.
    pub spilled: bool,
    /// The checker's slice of the unified counter registry:
    /// frontier pops, spill bytes, and the solve's edge passes.
    pub counters: CounterBlock,
}

/// Solves for the **exact** expected number of interactions until silence
/// from `init`: explores the reachable closure, verifies every reachable
/// configuration can reach silence (else the expectation is infinite), and
/// solves `E[c] = n(n−1)/A(c) + Σ_m (w_m/A(c))·E[succ_m(c)]`.
///
/// Moves that leave the count vector unchanged are folded out, so the solve
/// runs on `(I − P)·x = τ` with `P` the state-changing successor
/// probabilities and `τ(c) = n(n−1) / (A(c) − self(c))`. The solver is
/// BiCGSTAB, right-preconditioned by one Gauss–Seidel sweep in increasing
/// distance to silence: four passes over the edges per iteration. A
/// cycle-free chain such as Theorem 2.4's worst-case path is solved by the
/// first preconditioner sweep (four passes in all, with the residual
/// checks); a chain with a large strongly connected component, such as
/// Optimal-Silent-SSR's, takes a few dozen iterations where plain
/// Gauss–Seidel would take thousands of sweeps. The result's residual is the
/// true relative residual, at most [`MCheckOptions::tolerance`].
///
/// # Errors
///
/// [`MCheckError::NonConvergent`] when some reachable configuration cannot
/// reach silence, [`MCheckError::NotConverged`] when the pass budget
/// [`MCheckOptions::max_sweeps`] runs out first, plus the errors of
/// [`explore_reachable`].
pub fn expected_silence_time_exact<P: EnumerableProtocol>(
    protocol: P,
    init: &Configuration<P::State>,
    options: &MCheckOptions,
) -> Result<ExactSilenceTime, MCheckError> {
    let mut sink = TelemetrySink::default();
    expected_silence_time_probed(protocol, init, options, &mut sink)
}

/// [`expected_silence_time_exact`] with an attached [`TelemetrySink`]:
/// records spans around the closure exploration (`closure.explore`), the
/// distance-ordered spill copy (`spill.order`), and each pass of the solve
/// over the edges (`solver.sweep`). With a [`TelemetrySink::Noop`] sink it
/// is exactly [`expected_silence_time_exact`].
pub fn expected_silence_time_probed<P: EnumerableProtocol>(
    protocol: P,
    init: &Configuration<P::State>,
    options: &MCheckOptions,
    sink: &mut TelemetrySink,
) -> Result<ExactSilenceTime, MCheckError> {
    sink.span_begin("closure.explore");
    let space = explore_reachable(protocol, std::slice::from_ref(init), options);
    sink.span_end("closure.explore");
    solve_silence_time(&space?, options, sink)
}

/// Solves for the **exact** expected number of scheduler draws until
/// silence from `init` under an explicit [`InteractionScheduler`]. The
/// uniform scheduler reduces to [`expected_silence_time_exact`]; a weighted
/// scheduler generalizes the linear system to
/// `E[c] = W(c)/A(c) + Σ_m (w_m·rate_m/A(c))·E[succ_m(c)]` with `W(c)` the
/// total pair measure and `A(c)` the rate-weighted active measure —
/// silence (and hence the expectation) is **scheduler-relative**: rate-0
/// pairs neither delay silence nor contribute transitions.
///
/// # Errors
///
/// [`MCheckError::SchedulerNeedsIdentities`] for graph-restricted
/// schedulers (the count-vector chain erases agent identities),
/// [`MCheckError::ZeroRateScheduler`] when every pair rate is zero,
/// [`MCheckError::RandomizedTransition`] for randomized transitions (as
/// for every checker entry point), plus the errors of
/// [`expected_silence_time_exact`].
pub fn expected_silence_time_scheduled<P: EnumerableProtocol>(
    protocol: P,
    init: &Configuration<P::State>,
    scheduler: &InteractionScheduler<P::State>,
    options: &MCheckOptions,
) -> Result<ExactSilenceTime, MCheckError> {
    let rates = match scheduler {
        InteractionScheduler::Uniform => None,
        InteractionScheduler::WeightedPairs(rates) => {
            if rates.max_rate() == 0 {
                return Err(MCheckError::ZeroRateScheduler);
            }
            Some(IndexRates::resolve(rates, |s| protocol.state_index(s)))
        }
        InteractionScheduler::GraphRestricted(_) => {
            return Err(MCheckError::SchedulerNeedsIdentities { scheduler: scheduler.label() });
        }
    };
    let space = explore_reachable_with_rates(protocol, std::slice::from_ref(init), rates, options)?;
    solve_silence_time(&space, options, &mut TelemetrySink::default())
}

/// The shared solve over an explored closure: orders the states by distance
/// to silence and runs the preconditioned BiCGSTAB of `solve.rs`; see
/// [`expected_silence_time_exact`] for the system.
fn solve_silence_time<P: EnumerableProtocol>(
    space: &ReachableSpace<P>,
    options: &MCheckOptions,
    sink: &mut TelemetrySink,
) -> Result<ExactSilenceTime, MCheckError> {
    let n = space.checker.n as f64;
    let dist = space.distance_to_silence()?;
    if dist.contains(&u32::MAX) {
        return Err(MCheckError::NonConvergent);
    }
    // Sweep in increasing distance-to-silence order, so the preconditioner's
    // forward substitution carries value information backward from the
    // absorbing states. A spilled store materializes one distance-ordered
    // copy of the edge file so every pass is a single sequential scan.
    let mut order: Vec<u32> = (0..space.len() as u32).collect();
    order.sort_by_key(|&s| dist[s as usize]);
    sink.span_begin("spill.order");
    let sweeper = space.succ.ordered(&order).map_err(MCheckError::from_spill);
    sink.span_end("spill.order");
    let (e, sweeps, residual) =
        solve::bicgstab(space, sweeper?, options.tolerance, options.max_sweeps, sink)?;
    let mut counters = space.counters();
    counters.set(Counter::McheckGsSweeps, sweeps as u64);
    let start = e[0]; // seeds are interned first; a single seed is state 0.
    Ok(ExactSilenceTime {
        expected_interactions: start,
        expected_parallel: start / n,
        states: space.len(),
        sweeps,
        residual,
        quotient: space.quotient,
        spilled: space.spilled(),
        counters,
    })
}

/// The verdict of a seeded convergence check on a sparse reachable closure —
/// the fallback when the full lattice exceeds the dense capacity guard. It
/// proves a weaker statement than [`check_self_stabilization`]: every
/// configuration **reachable from the seeds** converges (and reachable
/// silence ⟺ correctness), rather than every configuration outright.
#[derive(Clone, PartialEq, Debug)]
pub struct ReachabilityReport<S> {
    /// Configurations in the reachable closure.
    pub states: usize,
    /// Silent configurations in the closure.
    pub silent: usize,
    /// Silent-but-incorrect configurations in the closure.
    pub silent_incorrect: usize,
    /// Configurations in the closure that cannot reach a correct silent one.
    pub non_convergent: usize,
    /// A witness for either failure mode, if any.
    pub witness: Option<Configuration<S>>,
}

impl<S> ReachabilityReport<S> {
    /// Whether every reachable configuration converges to a correct silent
    /// configuration and every reachable silent configuration is correct.
    pub fn verified(&self) -> bool {
        self.silent_incorrect == 0 && self.non_convergent == 0
    }
}

/// Verifies convergence on the reachable closure of `seeds`: every
/// reachable configuration can reach a **correct** silent configuration,
/// and every reachable silent configuration is correct.
///
/// # Errors
///
/// The errors of [`explore_reachable`].
pub fn check_convergence_from<P: EnumerableProtocol + CorrectnessOracle>(
    protocol: P,
    seeds: &[Configuration<P::State>],
    options: &MCheckOptions,
) -> Result<ReachabilityReport<P::State>, MCheckError> {
    let space = explore_reachable(protocol, seeds, options)?;
    let states = space.len();
    let k = space.checker.k;
    // A quotient proof additionally needs the oracle to be orbit-invariant;
    // transition equivariance was validated when the checker was built, so
    // the oracle is probed here on every classified (silent) representative.
    let gens = if space.quotient { space.checker.symmetry.generators(k) } else { Vec::new() };
    let mut image = vec![0u32; k];
    let mut counts = vec![0u32; k];
    // Reverse reachability from the *correct* silent states over the
    // forward relation.
    let mut silent = 0usize;
    let mut silent_incorrect = 0usize;
    let mut witness = None;
    let mut reached = vec![false; states];
    for (s, slot) in reached.iter_mut().enumerate() {
        if space.active[s] == 0 {
            silent += 1;
            space.counts_into(s as u32, &mut counts);
            space.checker.oracle_invariant_under(&counts, &gens, &mut image)?;
            let config = space.checker.configuration_of_counts(&counts);
            if space.checker.protocol.is_correct(&config) {
                *slot = true;
            } else {
                silent_incorrect += 1;
                if witness.is_none() {
                    witness = Some(config);
                }
            }
        }
    }
    space.extend_reverse_reachable(&mut reached)?;
    let non_convergent = reached.iter().filter(|&&r| !r).count();
    if witness.is_none() {
        if let Some(s) = reached.iter().position(|&r| !r) {
            space.counts_into(s as u32, &mut counts);
            witness = Some(space.checker.configuration_of_counts(&counts));
        }
    }
    Ok(ReachabilityReport { states, silent, silent_incorrect, non_convergent, witness })
}

/// The verdict of an exhaustive fault-closure check: see
/// [`check_fault_plan_closure`].
#[derive(Clone, PartialEq, Debug)]
pub struct FaultClosureReport<S> {
    /// Whether the underlying full-space verification succeeded (the
    /// convergent set is only meaningful when it did).
    pub base_verified: bool,
    /// Configurations reachable from the seeds whose corruptions were
    /// enumerated.
    pub reachable: usize,
    /// Perturbed configurations checked (victim multiset × target multiset
    /// per reachable configuration).
    pub perturbations: u64,
    /// Perturbed configurations **outside** the verified-convergent set.
    ///
    /// When the base verification proved the *whole* lattice convergent
    /// this is 0 by implication — the burst enumeration then serves as a
    /// consistency check on the corruption model (every enumerated burst
    /// outcome is a well-formed lattice configuration) rather than new
    /// information. The count is load-bearing exactly when the convergent
    /// set is a strict subset: then it answers whether corruption can push
    /// a convergent configuration out of it (see the strict-oracle test,
    /// where a two-agent burst escapes into the leaderless trap).
    pub violations: u64,
    /// A perturbed non-convergent witness, if any.
    pub witness: Option<Configuration<S>>,
}

impl<S> FaultClosureReport<S> {
    /// Whether the closure holds: the base verification succeeded and no
    /// corruption leads outside the convergent set.
    pub fn verified(&self) -> bool {
        self.base_verified && self.violations == 0
    }
}

/// Exhaustive version of the fault-recovery claim (`ppsim::faults`): for
/// **every** configuration reachable from `seeds` and **every** possible
/// burst of the plan — every multiset of `k = burst_size` victims drawn
/// from the configuration, forced into every combination of target states
/// the plan's [`CorruptionTarget`] can produce (`Fixed` targets exactly;
/// `Random` targets over-approximated by the whole state space, which only
/// strengthens the check) — the perturbed configuration still lies in the
/// full-space verified-convergent set.
///
/// For a protocol whose full lattice verifies, closure is implied (every
/// configuration is convergent) and the enumeration acts as a consistency
/// check; for a protocol with a *strict* convergent subset the violation
/// count is genuine information — bursts can escape the set, and the
/// report names the first escaping configuration.
///
/// # Errors
///
/// The errors of [`check_self_stabilization`] (this check needs the dense
/// full-space verdict for membership queries).
pub fn check_fault_plan_closure<P: EnumerableProtocol + CorrectnessOracle>(
    protocol: P,
    plan: &FaultPlan<P::State>,
    seeds: &[Configuration<P::State>],
    options: &MCheckOptions,
) -> Result<FaultClosureReport<P::State>, MCheckError> {
    let report = check_self_stabilization(protocol, options)?;
    let checker = &report.checker;
    let lattice = &report.lattice;
    let k_states = checker.k;
    let burst = plan.burst_size().min(checker.n);
    // Target state indices a burst can force victims into.
    let target_states: Vec<u32> = match plan.target() {
        CorruptionTarget::Fixed(s) => vec![checker.protocol.state_index(s) as u32],
        CorruptionTarget::Random(_) => (0..k_states as u32).collect(),
    };

    // Forward BFS over dense indices from the seeds.
    let mut visited = BitSet::new(lattice.size());
    let mut queue = VecDeque::new();
    for seed in seeds {
        let counts = checker.counts_of_configuration(seed);
        let idx = lattice.index_of(&counts);
        if !visited.get(idx) {
            visited.set(idx);
            queue.push_back(idx);
        }
    }
    let mut counts = vec![0u32; k_states];
    let mut scratch = vec![0u32; k_states];
    let mut reachable: Vec<u64> = Vec::new();
    while let Some(idx) = queue.pop_front() {
        reachable.push(idx);
        lattice.counts_of(idx, &mut counts);
        let present = present_states(&counts);
        checker.for_each_successor(&counts, &present, &mut scratch, |_, _, _, succ| {
            let sidx = lattice.index_of(succ);
            if !visited.get(sidx) {
                visited.set(sidx);
                queue.push_back(sidx);
            }
        });
    }

    // Enumerate every burst outcome of every reachable configuration.
    let mut perturbations = 0u64;
    let mut violations = 0u64;
    let mut witness = None;
    let mut victims = Vec::with_capacity(burst);
    let mut targets_buf = Vec::with_capacity(burst);
    for &idx in &reachable {
        lattice.counts_of(idx, &mut counts);
        let mut corrupted = counts.clone();
        enumerate_victim_multisets(&counts, burst, 0, &mut victims, &mut |victims, counts| {
            let mut apply_targets = |targets: &[u32], corrupted: &mut [u32]| {
                corrupted.copy_from_slice(counts);
                for &v in victims.iter() {
                    corrupted[v as usize] -= 1;
                }
                for &t in targets {
                    corrupted[t as usize] += 1;
                }
                perturbations += 1;
                let cidx = lattice.index_of(corrupted);
                if !report.convergent.get(cidx) {
                    violations += 1;
                    if witness.is_none() {
                        witness = Some(checker.configuration_of_counts(corrupted));
                    }
                }
            };
            enumerate_target_multisets(
                &target_states,
                burst,
                0,
                &mut targets_buf,
                &mut |targets| {
                    apply_targets(targets, &mut corrupted);
                },
            );
        });
    }
    Ok(FaultClosureReport {
        base_verified: report.verified(),
        reachable: reachable.len(),
        perturbations,
        violations,
        witness,
    })
}

/// Enumerates the multisets of `remaining` victims drawable from `counts`
/// (never more victims from a state than agents in it), in nondecreasing
/// state order. `victims` carries the partial choice.
fn enumerate_victim_multisets(
    counts: &[u32],
    remaining: usize,
    from: usize,
    victims: &mut Vec<u32>,
    f: &mut impl FnMut(&[u32], &[u32]),
) {
    if remaining == 0 {
        f(victims, counts);
        return;
    }
    for s in from..counts.len() {
        let already = victims.iter().filter(|&&v| v as usize == s).count() as u32;
        if counts[s] > already {
            victims.push(s as u32);
            enumerate_victim_multisets(counts, remaining - 1, s, victims, f);
            victims.pop();
        }
    }
}

/// Enumerates the multisets of `remaining` target states from `targets`, in
/// nondecreasing order.
fn enumerate_target_multisets(
    targets: &[u32],
    remaining: usize,
    from: usize,
    buf: &mut Vec<u32>,
    f: &mut impl FnMut(&[u32]),
) {
    if remaining == 0 {
        f(buf);
        return;
    }
    for (pos, &t) in targets.iter().enumerate().skip(from) {
        buf.push(t);
        enumerate_target_multisets(targets, remaining - 1, pos, buf, f);
        buf.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::PairRates;
    use rand::RngCore;

    /// (L, L) → (L, F) with L = 0, F = 1.
    #[derive(Clone, Copy, Debug)]
    struct Frat {
        n: usize,
    }

    impl Protocol for Frat {
        type State = u8;
        fn population_size(&self) -> usize {
            self.n
        }
        fn transition(&self, a: &u8, b: &u8, _rng: &mut dyn RngCore) -> (u8, u8) {
            if *a == 0 && *b == 0 {
                (0, 1)
            } else {
                (*a, *b)
            }
        }
        fn is_null(&self, a: &u8, b: &u8) -> bool {
            !(*a == 0 && *b == 0)
        }
    }

    impl EnumerableProtocol for Frat {
        fn num_states(&self) -> usize {
            2
        }
        fn state_index(&self, s: &u8) -> usize {
            *s as usize
        }
        fn state_from_index(&self, i: usize) -> u8 {
            i as u8
        }
    }

    impl CorrectnessOracle for Frat {
        fn is_correct(&self, config: &Configuration<u8>) -> bool {
            config.iter().filter(|&&s| s == 0).count() <= 1
        }
    }

    /// Fratricide judged by the *strict* unique-leader oracle — provably not
    /// self-stabilizing (it cannot create leaders, Observation 2.6); used to
    /// demonstrate falsification.
    #[derive(Clone, Copy, Debug)]
    struct FratStrict {
        n: usize,
    }

    impl Protocol for FratStrict {
        type State = u8;
        fn population_size(&self) -> usize {
            self.n
        }
        fn transition(&self, a: &u8, b: &u8, rng: &mut dyn RngCore) -> (u8, u8) {
            Frat { n: self.n }.transition(a, b, rng)
        }
        fn is_null(&self, a: &u8, b: &u8) -> bool {
            Frat { n: self.n }.is_null(a, b)
        }
    }

    impl EnumerableProtocol for FratStrict {
        fn num_states(&self) -> usize {
            2
        }
        fn state_index(&self, s: &u8) -> usize {
            *s as usize
        }
        fn state_from_index(&self, i: usize) -> u8 {
            i as u8
        }
    }

    impl CorrectnessOracle for FratStrict {
        fn is_correct(&self, config: &Configuration<u8>) -> bool {
            config.iter().filter(|&&s| s == 0).count() == 1
        }
    }

    #[test]
    fn lattice_roundtrip_and_enumeration_order_agree() {
        for (n, k) in [(1usize, 1usize), (4, 3), (6, 4), (3, 7)] {
            let lattice = Lattice::new(n, k, u64::MAX >> 1).unwrap();
            let mut counts = vec![0u32; k];
            lattice.first(&mut counts);
            let mut idx = 0u64;
            let mut decoded = vec![0u32; k];
            loop {
                assert_eq!(lattice.index_of(&counts), idx, "rank of {counts:?}");
                lattice.counts_of(idx, &mut decoded);
                assert_eq!(decoded, counts, "unrank of {idx}");
                assert_eq!(counts.iter().sum::<u32>() as usize, n);
                idx += 1;
                if !lattice.advance(&mut counts) {
                    break;
                }
            }
            assert_eq!(idx, lattice.size(), "enumeration covers the lattice exactly once");
            assert_eq!(idx as u128, lattice_size(n, k).unwrap());
        }
    }

    #[test]
    fn lattice_capacity_guard_fires() {
        match Lattice::new(100, 50, 1000) {
            Err(MCheckError::SpaceTooLarge { configurations, limit: 1000 }) => {
                assert!(configurations > 1000);
            }
            other => panic!("expected SpaceTooLarge, got {:?}", other.map(|l| l.size())),
        }
    }

    #[test]
    fn fratricide_self_stabilizes_to_at_most_one_leader() {
        let report = check_self_stabilization(Frat { n: 6 }, &MCheckOptions::default()).unwrap();
        assert!(report.verified());
        assert_eq!(report.configurations, 7);
        // Silent ⟺ at most one leader: 2 of the 7 configurations.
        assert_eq!(report.silent, 2);
        assert_eq!(report.correct, 2);
        assert!(report.counterexample_trace().is_none());
    }

    #[test]
    fn strict_leader_oracle_is_falsified_with_a_witness() {
        let report =
            check_self_stabilization(FratStrict { n: 5 }, &MCheckOptions::default()).unwrap();
        assert!(!report.verified());
        // The all-followers configuration is silent but leaderless, and
        // nothing can reach a leader from it.
        assert_eq!(report.silent_incorrect, 1);
        assert_eq!(report.non_convergent, 1);
        let witness = report.non_convergent_witness.as_ref().unwrap();
        assert!(witness.iter().all(|&s| s == 1));
        let trace = report.counterexample_trace().unwrap();
        assert!(!trace.is_empty());
        let (_, last) = trace.last_snapshot().unwrap();
        assert!(last.iter().all(|&s| s == 1), "the trace ends at the witness");
    }

    #[test]
    fn expected_time_matches_the_fratricide_closed_form() {
        // E[interactions] from all leaders = (n − 1)² (proof of Lemma 4.2).
        for n in [2usize, 3, 5, 8, 13] {
            let init = Configuration::uniform(0u8, n);
            let exact =
                expected_silence_time_exact(Frat { n }, &init, &MCheckOptions::default()).unwrap();
            let expected = ((n - 1) * (n - 1)) as f64;
            assert!(
                (exact.expected_interactions - expected).abs() < 1e-9 * expected.max(1.0),
                "n = {n}: {} vs {expected}",
                exact.expected_interactions
            );
            assert_eq!(exact.states, n); // leader counts n, n−1, …, 1
        }
    }

    #[test]
    fn expected_time_from_a_silent_configuration_is_zero() {
        let init = Configuration::uniform(1u8, 6);
        let exact =
            expected_silence_time_exact(Frat { n: 6 }, &init, &MCheckOptions::default()).unwrap();
        assert_eq!(exact.expected_interactions, 0.0);
        assert_eq!(exact.states, 1);
    }

    #[test]
    fn seeded_convergence_check_agrees_with_the_full_space() {
        let seeds = [Configuration::uniform(0u8, 6), Configuration::uniform(1u8, 6)];
        let report =
            check_convergence_from(Frat { n: 6 }, &seeds, &MCheckOptions::default()).unwrap();
        assert!(report.verified());
        assert!(report.states >= 2);
        let strict =
            check_convergence_from(FratStrict { n: 6 }, &seeds[1..], &MCheckOptions::default())
                .unwrap();
        assert!(!strict.verified());
        assert_eq!(strict.silent_incorrect, 1);
    }

    #[test]
    fn fault_closure_holds_for_a_verified_protocol() {
        let plan = FaultPlan::one_shot(100, 2, CorruptionTarget::Fixed(0u8));
        let seeds = [Configuration::uniform(1u8, 5)];
        let report =
            check_fault_plan_closure(Frat { n: 5 }, &plan, &seeds, &MCheckOptions::default())
                .unwrap();
        assert!(report.verified());
        assert!(report.perturbations > 0);
        assert_eq!(report.violations, 0);
    }

    #[test]
    fn fault_closure_detects_escapes_from_a_strict_convergent_set() {
        // Under the strict unique-leader oracle the convergent set is the
        // configurations with ≥ 1 leader; every configuration reachable
        // from all-leaders is in it, but a burst following every leader of
        // the two-leader configuration escapes into the leaderless trap —
        // the violation count is real information here, not an implication
        // of the base verdict.
        let plan = FaultPlan::one_shot(100, 2, CorruptionTarget::Fixed(1u8));
        let seeds = [Configuration::uniform(0u8, 5)];
        let report =
            check_fault_plan_closure(FratStrict { n: 5 }, &plan, &seeds, &MCheckOptions::default())
                .unwrap();
        assert!(!report.base_verified, "the strict oracle refutes the full lattice");
        assert!(report.violations > 0, "corrupting both remaining leaders escapes the set");
        let witness = report.witness.as_ref().unwrap();
        assert!(witness.iter().all(|&s| s == 1), "the escape lands in all-followers");
    }

    #[test]
    fn randomized_transitions_are_rejected() {
        #[derive(Clone, Copy)]
        struct Coin;
        impl Protocol for Coin {
            type State = u8;
            fn population_size(&self) -> usize {
                3
            }
            fn transition(&self, _a: &u8, _b: &u8, rng: &mut dyn RngCore) -> (u8, u8) {
                ((rng.next_u32() & 1) as u8, 0)
            }
        }
        impl EnumerableProtocol for Coin {
            fn num_states(&self) -> usize {
                2
            }
            fn state_index(&self, s: &u8) -> usize {
                *s as usize
            }
            fn state_from_index(&self, i: usize) -> u8 {
                i as u8
            }
        }
        assert!(matches!(
            ModelChecker::new(Coin).err(),
            Some(MCheckError::RandomizedTransition { .. })
        ));
    }

    #[test]
    fn unsound_null_claims_are_rejected() {
        #[derive(Clone, Copy)]
        struct Liar;
        impl Protocol for Liar {
            type State = u8;
            fn population_size(&self) -> usize {
                3
            }
            fn transition(&self, _a: &u8, _b: &u8, _rng: &mut dyn RngCore) -> (u8, u8) {
                (1, 1)
            }
            fn is_null(&self, _a: &u8, _b: &u8) -> bool {
                true // claims null while the transition rewrites states
            }
        }
        impl EnumerableProtocol for Liar {
            fn num_states(&self) -> usize {
                2
            }
            fn state_index(&self, s: &u8) -> usize {
                *s as usize
            }
            fn state_from_index(&self, i: usize) -> u8 {
                i as u8
            }
        }
        assert!(matches!(ModelChecker::new(Liar).err(), Some(MCheckError::UnsoundNull { .. })));
    }

    #[test]
    fn reachable_guard_fires() {
        let tight = MCheckOptions { max_reachable: 2, ..MCheckOptions::default() };
        let init = Configuration::uniform(0u8, 10);
        assert!(matches!(
            expected_silence_time_exact(Frat { n: 10 }, &init, &tight),
            Err(MCheckError::ReachableTooLarge { limit: 2 })
        ));
    }

    #[test]
    fn errors_display_meaningfully() {
        let messages = [
            MCheckError::SpaceTooLarge { configurations: 10, limit: 5 }.to_string(),
            MCheckError::ReachableTooLarge { limit: 5 }.to_string(),
            MCheckError::RandomizedTransition { i: 1, j: 2 }.to_string(),
            MCheckError::UnsoundNull { i: 1, j: 2 }.to_string(),
            MCheckError::NonConvergent.to_string(),
            MCheckError::NotConverged { residual: 0.5 }.to_string(),
            MCheckError::SchedulerNeedsIdentities { scheduler: "ring graph".to_owned() }
                .to_string(),
            MCheckError::ZeroRateScheduler.to_string(),
            MCheckError::WeightOverflow.to_string(),
            MCheckError::UnsoundSymmetry { detail: "generator 0 on pair (1, 2)".to_owned() }
                .to_string(),
            MCheckError::SpillIo { detail: "disk full".to_owned() }.to_string(),
        ];
        for m in messages {
            assert!(!m.is_empty());
        }
    }

    #[test]
    fn scheduled_uniform_matches_the_exact_solver() {
        for n in [2usize, 4, 7] {
            let init = Configuration::uniform(0u8, n);
            let options = MCheckOptions::default();
            let exact = expected_silence_time_exact(Frat { n }, &init, &options).unwrap();
            let scheduled = expected_silence_time_scheduled(
                Frat { n },
                &init,
                &InteractionScheduler::Uniform,
                &options,
            )
            .unwrap();
            assert_eq!(exact, scheduled);
        }
    }

    #[test]
    fn uniformly_scaled_rates_leave_the_expected_time_unchanged() {
        // A constant rate r rescales both the total measure W and the active
        // measure A by r, so every E[c] is invariant.
        let init = Configuration::uniform(0u8, 6);
        let options = MCheckOptions::default();
        let uniform = expected_silence_time_exact(Frat { n: 6 }, &init, &options).unwrap();
        let scaled = expected_silence_time_scheduled(
            Frat { n: 6 },
            &init,
            &InteractionScheduler::WeightedPairs(PairRates::new(7)),
            &options,
        )
        .unwrap();
        assert!((scaled.expected_interactions - uniform.expected_interactions).abs() < 1e-9);
        assert_eq!(scaled.states, uniform.states);
    }

    #[test]
    fn weighted_rates_reshape_the_expected_time() {
        // Fratricide at n = 3 with (L, L) at rate 2 over default 1. From
        // two leaders: W = 6 + (2−1)·2·1 = 8, A = 2·2·1 = 4, E = 2. From
        // three leaders: W = 6 + 1·3·2 = 12 = A, so E = 1 + 2 = 3 — versus
        // (n−1)² = 4 under the uniform scheduler.
        let init = Configuration::uniform(0u8, 3);
        let rates = PairRates::new(1).with_rate(0u8, 0u8, 2);
        let weighted = expected_silence_time_scheduled(
            Frat { n: 3 },
            &init,
            &InteractionScheduler::WeightedPairs(rates),
            &MCheckOptions::default(),
        )
        .unwrap();
        assert!(
            (weighted.expected_interactions - 3.0).abs() < 1e-9,
            "got {}",
            weighted.expected_interactions
        );
    }

    #[test]
    fn overflowing_weighted_measures_are_a_typed_error() {
        // Every pair term of the all-leader start overflows u64.
        let huge = PairRates::new(u64::MAX / 2);
        // Every pair term fits, but the null pairs of the silent successor
        // (one leader, one follower) overflow its total measure W(c).
        let null_heavy = PairRates::new(u64::MAX / 2 + 1).with_rate(0u8, 0u8, 1);
        for (n, rates) in [(4, huge), (2, null_heavy)] {
            let err = expected_silence_time_scheduled(
                Frat { n },
                &Configuration::uniform(0u8, n),
                &InteractionScheduler::WeightedPairs(rates),
                &MCheckOptions::default(),
            )
            .unwrap_err();
            assert_eq!(err, MCheckError::WeightOverflow, "n = {n}");
        }
    }

    #[test]
    fn rate_zero_pairs_make_silence_scheduler_relative() {
        // With the one non-null pair (L, L) at rate 0, no transition can
        // ever fire: every configuration is silent under the scheduler and
        // the rate-0 edge is not even explored.
        let init = Configuration::uniform(0u8, 5);
        let rates = PairRates::new(1).with_rate(0u8, 0u8, 0);
        let weighted = expected_silence_time_scheduled(
            Frat { n: 5 },
            &init,
            &InteractionScheduler::WeightedPairs(rates),
            &MCheckOptions::default(),
        )
        .unwrap();
        assert_eq!(weighted.expected_interactions, 0.0);
        assert_eq!(weighted.states, 1);
    }

    #[test]
    fn graph_schedulers_are_rejected_by_the_model_checker() {
        let init = Configuration::uniform(0u8, 4);
        let err = expected_silence_time_scheduled(
            Frat { n: 4 },
            &init,
            &InteractionScheduler::GraphRestricted(crate::scheduler::Topology::Ring),
            &MCheckOptions::default(),
        )
        .unwrap_err();
        match err {
            MCheckError::SchedulerNeedsIdentities { scheduler } => {
                assert!(scheduler.contains("ring"), "label names the topology: {scheduler}");
            }
            other => panic!("expected SchedulerNeedsIdentities, got {other:?}"),
        }
    }

    #[test]
    fn zero_rate_schedulers_are_rejected_by_the_model_checker() {
        let init = Configuration::uniform(0u8, 4);
        let err = expected_silence_time_scheduled(
            Frat { n: 4 },
            &init,
            &InteractionScheduler::WeightedPairs(PairRates::new(0)),
            &MCheckOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err, MCheckError::ZeroRateScheduler);
    }

    #[test]
    fn randomized_transitions_are_rejected_for_scheduled_solves() {
        #[derive(Clone, Copy)]
        struct Coin;
        impl Protocol for Coin {
            type State = u8;
            fn population_size(&self) -> usize {
                3
            }
            fn transition(&self, _a: &u8, _b: &u8, rng: &mut dyn RngCore) -> (u8, u8) {
                ((rng.next_u32() & 1) as u8, 0)
            }
        }
        impl EnumerableProtocol for Coin {
            fn num_states(&self) -> usize {
                2
            }
            fn state_index(&self, s: &u8) -> usize {
                *s as usize
            }
            fn state_from_index(&self, i: usize) -> u8 {
                i as u8
            }
        }
        let init = Configuration::uniform(0u8, 3);
        let err = expected_silence_time_scheduled(
            Coin,
            &init,
            &InteractionScheduler::WeightedPairs(PairRates::new(2)),
            &MCheckOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, MCheckError::RandomizedTransition { .. }));
    }
}
