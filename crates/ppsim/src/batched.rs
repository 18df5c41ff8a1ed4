//! Count-based **batched** simulation engine.
//!
//! The exact engine ([`crate::Simulation`]) pays O(1) work per *interaction*,
//! which is hopeless for protocols whose stabilization takes `Θ(n²)` parallel
//! time (`Θ(n³)` interactions): at `n = 10⁵` the baseline
//! `Silent-n-state-SSR` would need ~10¹⁵ scheduler draws. Almost all of those
//! interactions are **null** — the scheduled pair's transition leaves both
//! states unchanged — so this module simulates the *same* Markov chain while
//! paying only for the non-null interactions:
//!
//! 1. the configuration is a **multiset of state counts** (`Vec<u64>` over an
//!    enumerated state space) instead of a per-agent array;
//! 2. the number of consecutive null interactions between two non-null ones
//!    is drawn in one shot from its geometric law (a run of failures with
//!    success probability `p = A / (n(n−1))`, where `A` counts the non-null
//!    ordered *agent* pairs of the current configuration);
//! 3. one real transition is then applied by sampling an ordered *state* pair
//!    `(i, j)` with probability proportional to `c_i · (c_j − [i = j])` among
//!    the non-null pairs.
//!
//! Between two non-null interactions the configuration — hence `A` — cannot
//! change, so the skipped nulls are exactly marginalized out: every quantity
//! measured in interactions (silence time, convergence time, final
//! configuration multiset) has **the same distribution** as under the exact
//! engine. The per-seed trajectories differ (the two engines consume
//! randomness differently), which is why the cross-engine tests compare
//! verdicts and distributions rather than bit-identical traces.
//!
//! Protocols opt in by implementing [`EnumerableProtocol`] (a bijection
//! between their state type and `0..num_states`) and run on
//! [`BatchedSimulation`]: the one count engine ([`crate::count`]) keyed by
//! that static enumeration. Protocols with sparse non-null structure
//! (`Silent-n-state-SSR`, epidemic, fratricide, coupon) also provide
//! [`EnumerableProtocol::interaction_partners`], which selects partner rows
//! with O(deg · log |states|) work per non-null interaction; dense protocols
//! (`Optimal-Silent-SSR`, whose unsettled/resetting states interact with
//! everything) get present-set rows, repaired incrementally in O(P) nullness
//! queries per non-null interaction with `P ≤ n` distinct present states.
//!
//! Protocols whose state space cannot be enumerated up front — the name ×
//! roster × history-tree states of `Sublinear-Time-SSR`, the roster states
//! of the roll-call process — run on the same engine under the growable key
//! policy of [`crate::interned`], which assigns dense indices to states as
//! they are first observed ([`crate::InternableProtocol`] /
//! [`crate::InternedSimulation`]). Each protocol names its policy once, as
//! [`CountProtocol::Keys`]. [`Engine`] is the routing layer for all of
//! them, and `ARCHITECTURE.md` at the repository root draws the decision
//! tree.
//!
//! # Example
//!
//! ```
//! use ppsim::prelude::*;
//! use rand::RngCore;
//!
//! /// (L, L) -> (L, F) with L = 0, F = 1.
//! struct Fratricide {
//!     n: usize,
//! }
//!
//! impl Protocol for Fratricide {
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
//!
//! impl EnumerableProtocol for Fratricide {
//!     fn num_states(&self) -> usize {
//!         2
//!     }
//!     fn state_index(&self, s: &u8) -> usize {
//!         *s as usize
//!     }
//!     fn state_from_index(&self, i: usize) -> u8 {
//!         i as u8
//!     }
//!     fn interaction_partners(&self, i: usize) -> Option<Vec<usize>> {
//!         Some(if i == 0 { vec![0] } else { vec![] })
//!     }
//! }
//!
//! let mut sim = BatchedSimulation::new(
//!     Fratricide { n: 1000 },
//!     &Configuration::uniform(0u8, 1000),
//!     42,
//! );
//! let outcome = sim.run_until_silent(u64::MAX >> 8);
//! assert!(outcome.is_silent());
//! assert_eq!(sim.count_of(&0u8), 1); // a single leader survives
//! ```

use rand::RngCore;

use crate::config::Configuration;
use crate::count::{CountProtocol, CountSimulation, PartnerLists, StateKeys};
use crate::error::SimError;
use crate::execution::{RunOutcome, Simulation};
use crate::protocol::Protocol;
use crate::symmetry::StateSymmetry;
use crate::time::ParallelTime;

/// A [`Protocol`] with a finite, enumerable state space: a bijection between
/// the state type and `0..num_states`.
///
/// This is the opt-in surface for the batched engine. Implementations must
/// guarantee:
///
/// * `state_index` / `state_from_index` are inverse bijections on
///   `0..num_states` for every state the protocol can reach **or be
///   initialized with** (including adversarial configurations);
/// * [`Protocol::is_null`] is exact enough that `is_null(a, b)` implies the
///   transition leaves `(a, b)` unchanged (the same soundness contract the
///   exact engine's silence detection relies on).
pub trait EnumerableProtocol: Protocol {
    /// The size of the enumerated state space.
    fn num_states(&self) -> usize;

    /// The dense index of a state, in `0..num_states`.
    fn state_index(&self, state: &Self::State) -> usize;

    /// The state with the given dense index.
    fn state_from_index(&self, index: usize) -> Self::State;

    /// Sparse interaction structure, if the protocol has one: for state `i`,
    /// every state `j` such that the ordered pair `(i, j)` **or** `(j, i)`
    /// can be non-null (for *some* counts — the answer must not depend on the
    /// current configuration). Include `i` itself when `(i, i)` is non-null.
    ///
    /// Returning `Some` for one index means `Some` for all indices (the
    /// constructors reject a partial declaration with
    /// [`SimError::PartialInteractionPartners`]); the engine then uses
    /// partner rows, with per-transition cost proportional to the
    /// partner-list degree. The default `None` selects present-set rows,
    /// which are always correct and pay O(P) nullness queries per non-null
    /// interaction in the number of distinct present states.
    fn interaction_partners(&self, _index: usize) -> Option<Vec<usize>> {
        None
    }

    /// The protocol's state-relabeling symmetry group, used by the model
    /// checker in [`crate::mcheck`] to quotient the configuration space.
    ///
    /// The declared group must commute with [`Protocol::transition`],
    /// [`Protocol::is_null`], and (for verification entry points) the
    /// correctness oracle. Declarations are validated, not trusted: the
    /// checker tests every generator against the transition table and rejects
    /// unsound groups with [`crate::MCheckError::UnsoundSymmetry`]. The
    /// default is [`StateSymmetry::Identity`], which is always sound.
    fn state_symmetry(&self) -> StateSymmetry {
        StateSymmetry::Identity
    }
}

/// Samples the length of a run of null interactions: the number of failures
/// before the first success in i.i.d. trials with success probability
/// `active_pairs / total_pairs`, drawn by inversion in O(1).
///
/// Edge cases:
///
/// * `active_pairs == total_pairs` (every pair is non-null) always returns 0;
/// * a single non-null ordered pair among `n(n−1)` gives the full geometric
///   with `p = 1 / (n(n−1))`, whose mean `≈ n²` is exactly the cost the
///   batched engine avoids paying per-interaction;
/// * `active_pairs == 0` (a silent configuration) has no next non-null
///   interaction; callers must detect silence first. The function panics in
///   that case rather than looping forever.
///
/// # Panics
///
/// Panics if `active_pairs == 0` or `active_pairs > total_pairs`.
pub fn sample_null_run(active_pairs: u64, total_pairs: u64, rng: &mut impl RngCore) -> u64 {
    assert!(active_pairs > 0, "a silent configuration has no next non-null interaction");
    assert!(active_pairs <= total_pairs, "more active pairs than ordered pairs");
    if active_pairs == total_pairs {
        return 0;
    }
    let p = active_pairs as f64 / total_pairs as f64;
    // u ∈ (0, 1]: ln is finite, and u = 1 maps to a skip of 0.
    let u = ((rng.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64);
    // ln(1 − p) via ln_1p for precision when p ~ 1/n² is tiny.
    let skip = (u.ln() / (-p).ln_1p()).floor();
    if skip.is_finite() && skip >= 0.0 && skip < u64::MAX as f64 {
        skip as u64
    } else {
        u64::MAX
    }
}

/// How the count engine ([`BatchedSimulation`] and
/// [`crate::InternedSimulation`]) draws the non-null interaction schedule.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum SamplingMode {
    /// One geometric null-run skip plus one weighted pair draw per applied
    /// transition: exact per-interaction sampling of the scheduler's chain.
    #[default]
    PerTransition,
    /// Per **collision-free epoch**, draw the interaction-count table for all
    /// active ordered state pairs in one multivariate-hypergeometric pass
    /// over the frozen pair weights, clamp it so each agent participates in
    /// at most one interaction per epoch, and apply the whole table through
    /// one bulk count-delta pass — no per-interaction loop.
    ///
    /// Every primitive draw is exact (see [`crate::sampling`]); the
    /// approximation is purely *in schedule*: pair weights are frozen for
    /// the `B ≤ min(n/16, A/8)` transitions of an epoch, and interaction
    /// tables exceeding an agent's availability are truncated
    /// ([`CountSimulation::batch_truncations`] counts how often). Epochs
    /// shrink automatically near silence, small populations, and budget or
    /// measurement-tick boundaries, where the engine degenerates to the
    /// per-transition path and is exact again.
    BatchCount,
}

/// The static key policy of [`BatchedSimulation`]: an
/// [`EnumerableProtocol`]'s own enumeration, with every state decoded once
/// when the table is built.
#[derive(Clone, Debug)]
pub struct EnumeratedKeys<P: EnumerableProtocol> {
    decoded: Vec<P::State>,
}

impl<P: EnumerableProtocol> StateKeys<P> for EnumeratedKeys<P> {
    const ENGINE: &'static str = "batched";
    const GROWS: bool = false;

    /// Decodes the whole enumeration and collects the partner lists: all of
    /// them (partner rows) or none (present-set rows).
    fn build(protocol: &P) -> Result<(Self, Option<PartnerLists>), SimError> {
        let num_states = protocol.num_states();
        let decoded = (0..num_states).map(|i| protocol.state_from_index(i)).collect();
        let declared = num_states > 0 && protocol.interaction_partners(0).is_some();
        let mut lists = Vec::with_capacity(if declared { num_states } else { 0 });
        for index in 0..num_states {
            match protocol.interaction_partners(index) {
                Some(list) if declared => lists.push(list),
                None if !declared => {}
                _ => return Err(SimError::PartialInteractionPartners { index }),
            }
        }
        Ok((EnumeratedKeys { decoded }, declared.then_some(lists)))
    }

    fn capacity(&self) -> usize {
        self.decoded.len()
    }

    fn assigned(&self) -> usize {
        self.decoded.len()
    }

    fn key(&mut self, protocol: &P, state: &P::State) -> Result<usize, SimError> {
        let index = protocol.state_index(state);
        let num_states = self.decoded.len();
        if index < num_states {
            Ok(index)
        } else {
            Err(SimError::StateIndexOutOfRange { index, num_states })
        }
    }

    fn lookup(&self, protocol: &P, state: &P::State) -> Option<usize> {
        let index = protocol.state_index(state);
        (index < self.decoded.len()).then_some(index)
    }

    fn state(&self, key: usize) -> &P::State {
        &self.decoded[key]
    }
}

/// The count engine on an enumerable protocol: a [`CountSimulation`] keyed
/// by the protocol's static enumeration. Construct with
/// [`CountSimulation::new`] and read results with
/// [`CountSimulation::state_counts`] / [`CountSimulation::to_configuration`].
pub type BatchedSimulation<P> = CountSimulation<P, EnumeratedKeys<P>>;

/// Which simulation engine to run a workload on.
///
/// The engines simulate the same Markov chain; they differ only in cost
/// model. [`Engine::Exact`] pays O(1) per interaction and works for every
/// [`Protocol`]. [`Engine::Batched`] pays only per *non-null* interaction on
/// the count engine, under the key policy the protocol names as
/// [`CountProtocol::Keys`]: the static enumeration for every
/// [`EnumerableProtocol`], the growable interner for an open-state-space
/// protocol. [`crate::RunSpec::run`] drives both, and [`Engine::run_until`]
/// does for custom predicates.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Engine {
    /// The per-agent engine: [`Simulation`].
    Exact,
    /// The count-based engine: [`BatchedSimulation`], sampling each non-null
    /// transition individually.
    Batched,
    /// The count-based engine in [`SamplingMode::BatchCount`]: whole
    /// interaction-count tables per collision-free epoch.
    BatchedCounts,
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Engine::Exact => write!(f, "exact"),
            Engine::Batched => write!(f, "batched"),
            Engine::BatchedCounts => write!(f, "batchcount"),
        }
    }
}

/// The result of running a workload through an [`Engine`].
#[derive(Clone, PartialEq, Debug)]
pub struct EngineReport<S> {
    /// Why and when the run stopped.
    pub outcome: RunOutcome,
    /// The final configuration. For the batched engine this is the canonical
    /// materialization (agents sorted by state index); agent identities are
    /// meaningless under both engines.
    pub final_config: Configuration<S>,
}

impl<S> EngineReport<S> {
    /// Parallel time at which the run stopped.
    pub fn parallel_time(&self) -> ParallelTime {
        self.outcome.interactions.to_parallel_time(self.final_config.len())
    }
}

impl Engine {
    /// The [`SamplingMode`] this engine variant selects on the count-based
    /// simulations ([`Engine::Exact`] has no count simulation; its mode is
    /// vacuous and maps to the default).
    pub fn sampling_mode(self) -> SamplingMode {
        match self {
            Engine::Exact | Engine::Batched => SamplingMode::PerTransition,
            Engine::BatchedCounts => SamplingMode::BatchCount,
        }
    }

    /// Runs the protocol from `init` until the (permutation-invariant)
    /// predicate holds or `budget` interactions elapse; the count engines
    /// key their tables with the protocol's [`CountProtocol::Keys`].
    pub fn run_until<P: CountProtocol>(
        self,
        protocol: P,
        init: &Configuration<P::State>,
        seed: u64,
        budget: u64,
        condition: impl FnMut(&Configuration<P::State>) -> bool,
    ) -> EngineReport<P::State> {
        match self {
            Engine::Exact => {
                let mut sim = Simulation::new(protocol, init.clone(), seed);
                let outcome = sim.run_until(condition, budget);
                EngineReport { outcome, final_config: sim.configuration().clone() }
            }
            Engine::Batched | Engine::BatchedCounts => {
                let mut sim = CountSimulation::<P, P::Keys>::new(protocol, init, seed)
                    .with_sampling_mode(self.sampling_mode());
                let outcome = sim.run_until(condition, budget);
                EngineReport { outcome, final_config: sim.to_configuration() }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::count::Fenwick;
    use crate::protocol::Protocol;
    use crate::time::Interactions;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Hides an enumerable protocol's partner lists, so the count engine
    /// runs it on present-set rows: the dense enumerable path.
    #[derive(Clone, Copy, Debug)]
    pub(crate) struct Dense<P>(pub P);

    impl<P: Protocol> Protocol for Dense<P> {
        type State = P::State;
        fn population_size(&self) -> usize {
            self.0.population_size()
        }
        fn transition(
            &self,
            a: &P::State,
            b: &P::State,
            rng: &mut dyn RngCore,
        ) -> (P::State, P::State) {
            self.0.transition(a, b, rng)
        }
        fn is_null(&self, a: &P::State, b: &P::State) -> bool {
            self.0.is_null(a, b)
        }
        fn deterministic_transitions(&self) -> bool {
            self.0.deterministic_transitions()
        }
    }

    impl<P: EnumerableProtocol> EnumerableProtocol for Dense<P> {
        fn num_states(&self) -> usize {
            self.0.num_states()
        }
        fn state_index(&self, s: &P::State) -> usize {
            self.0.state_index(s)
        }
        fn state_from_index(&self, i: usize) -> P::State {
            self.0.state_from_index(i)
        }
    }

    /// Declares partner lists for state 0 only: a malformed enumeration
    /// the count engine must reject with a typed error.
    #[derive(Clone, Copy, Debug)]
    pub(crate) struct Partial<P>(pub P);

    impl<P: Protocol> Protocol for Partial<P> {
        type State = P::State;
        fn population_size(&self) -> usize {
            self.0.population_size()
        }
        fn transition(
            &self,
            a: &P::State,
            b: &P::State,
            rng: &mut dyn RngCore,
        ) -> (P::State, P::State) {
            self.0.transition(a, b, rng)
        }
        fn is_null(&self, a: &P::State, b: &P::State) -> bool {
            self.0.is_null(a, b)
        }
    }

    impl<P: EnumerableProtocol> EnumerableProtocol for Partial<P> {
        fn num_states(&self) -> usize {
            self.0.num_states()
        }
        fn state_index(&self, s: &P::State) -> usize {
            self.0.state_index(s)
        }
        fn state_from_index(&self, i: usize) -> P::State {
            self.0.state_from_index(i)
        }
        fn interaction_partners(&self, i: usize) -> Option<Vec<usize>> {
            (i == 0).then(|| vec![0])
        }
    }

    /// (L, L) -> (L, F) with dense indices {L: 0, F: 1}.
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
        fn interaction_partners(&self, i: usize) -> Option<Vec<usize>> {
            Some(if i == 0 { vec![0] } else { vec![] })
        }
    }

    #[test]
    fn all_null_configuration_is_immediately_silent() {
        // All followers: A = 0, so the run is silent with zero interactions.
        let mut sim = BatchedSimulation::new(Frat { n: 10 }, &Configuration::uniform(1u8, 10), 1);
        assert!(sim.is_silent());
        let outcome = sim.run_until_silent(1_000);
        assert!(outcome.is_silent());
        assert_eq!(sim.interactions(), Interactions::ZERO);
    }

    #[test]
    fn single_non_null_pair_resolves_in_one_transition() {
        // Exactly two leaders: A = 2 ordered pairs; one real transition ends it.
        let config = Configuration::from_fn(30, |i| u8::from(i >= 2));
        let mut sim = BatchedSimulation::new(Frat { n: 30 }, &config, 5);
        assert_eq!(sim.active_pairs(), 2);
        let outcome = sim.run_until_silent(u64::MAX >> 8);
        assert!(outcome.is_silent());
        assert_eq!(sim.count_of(&0), 1);
        // The skipped null run is usually long: with p = 2/(30·29) the mean
        // wait is 435 interactions, yet only one transition was applied.
        assert!(sim.interactions().count() >= 1);
    }

    #[test]
    fn batched_elects_exactly_one_leader_on_both_backends() {
        for seed in 0..5 {
            let mut sim =
                BatchedSimulation::new(Frat { n: 200 }, &Configuration::uniform(0u8, 200), seed);
            assert!(sim.run_until_silent(u64::MAX >> 8).is_silent());
            assert_eq!(sim.count_of(&0), 1);
            assert_eq!(sim.count_of(&1), 199);

            let mut dense = BatchedSimulation::new(
                Dense(Frat { n: 200 }),
                &Configuration::uniform(0u8, 200),
                seed,
            );
            assert!(dense.run_until_silent(u64::MAX >> 8).is_silent());
            assert_eq!(dense.count_of(&0), 1);
        }
    }

    #[test]
    fn budget_exhaustion_reports_partial_progress() {
        let mut sim = BatchedSimulation::new(Frat { n: 100 }, &Configuration::uniform(0u8, 100), 3);
        let outcome = sim.run_until_silent(50);
        // 50 interactions cannot silence 100 leaders (needs 99 transitions).
        assert!(outcome.budget_exhausted());
        assert_eq!(sim.interactions().count(), 50);
    }

    #[test]
    fn run_for_advances_exactly_the_requested_interactions() {
        let mut sim = BatchedSimulation::new(Frat { n: 50 }, &Configuration::uniform(0u8, 50), 7);
        sim.run_for(1234);
        assert_eq!(sim.interactions().count(), 1234);
        // Once silent, further interactions are all null but still counted.
        let mut done = BatchedSimulation::new(Frat { n: 50 }, &Configuration::uniform(1u8, 50), 7);
        done.run_for(777);
        assert_eq!(done.interactions().count(), 777);
        assert!(done.is_silent());
    }

    #[test]
    fn run_until_stops_at_the_predicate() {
        let mut sim = BatchedSimulation::new(Frat { n: 60 }, &Configuration::uniform(0u8, 60), 11);
        let outcome = sim.run_until(|c| c.iter().filter(|&&s| s == 0).count() <= 30, u64::MAX >> 8);
        assert!(outcome.condition_met());
        assert!(sim.count_of(&0) <= 30);
    }

    #[test]
    fn null_run_sampler_handles_edge_probabilities() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        // Certain success: every pair is non-null.
        for _ in 0..100 {
            assert_eq!(sample_null_run(90, 90, &mut rng), 0);
        }
        // Tiny success probability: the mean of the geometric should be near
        // 1/p (here 10_000), sanity-checked loosely.
        let p_inv = 10_000u64;
        let samples = 4_000;
        let total: u128 = (0..samples).map(|_| sample_null_run(1, p_inv, &mut rng) as u128).sum();
        let mean = total as f64 / samples as f64;
        assert!(
            (mean - p_inv as f64).abs() / (p_inv as f64) < 0.1,
            "geometric mean {mean} should be near {p_inv}"
        );
    }

    #[test]
    #[should_panic(expected = "silent configuration")]
    fn null_run_sampler_rejects_silent_configurations() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let _ = sample_null_run(0, 90, &mut rng);
    }

    #[test]
    fn fenwick_prefix_search_matches_linear_scan() {
        let weights = [5u64, 0, 3, 7, 0, 1, 4];
        let mut fw = Fenwick::with_capacity(weights.len());
        fw.grow_to(weights.len());
        for (i, &w) in weights.iter().enumerate() {
            fw.set(i, w);
        }
        assert_eq!(fw.total(), 20);
        for target in 0..20u64 {
            let mut t = target;
            let mut expected = 0;
            for (i, &w) in weights.iter().enumerate() {
                if t < w {
                    expected = i;
                    break;
                }
                t -= w;
            }
            assert_eq!(fw.find(target).0, expected, "target {target}");
        }
        // Updates, including to zero.
        fw.set(3, 0);
        fw.set(1, 2);
        assert_eq!(fw.total(), 15);
        assert_eq!(fw.find(5).0, 1);
        assert_eq!(fw.find(6).0, 1);
        assert_eq!(fw.find(7).0, 2);
    }

    #[test]
    fn out_of_range_state_indices_are_a_typed_error() {
        // Frat enumerates {0, 1}; state 7 indexes past the end.
        let err = BatchedSimulation::try_new(Frat { n: 4 }, &Configuration::uniform(7u8, 4), 1)
            .unwrap_err();
        assert_eq!(err, SimError::StateIndexOutOfRange { index: 7, num_states: 2 });
    }

    #[test]
    fn partial_partner_lists_are_a_typed_error() {
        let init = Configuration::uniform(0u8, 4);
        let err = BatchedSimulation::try_new(Partial(Frat { n: 4 }), &init, 1).unwrap_err();
        assert_eq!(err, SimError::PartialInteractionPartners { index: 1 });
    }

    #[test]
    fn engine_reports_agree_on_verdict() {
        use crate::runspec::RunSpec;
        let config = Configuration::uniform(0u8, 40);
        let exact = RunSpec::new(Frat { n: 40 }).init(config.clone()).seed(9).run_one().unwrap();
        let batched = RunSpec::new(Frat { n: 40 })
            .engine(Engine::Batched)
            .init(config.clone())
            .seed(9)
            .run_one()
            .unwrap();
        assert!(exact.outcome.is_silent());
        assert!(batched.outcome.is_silent());
        let leaders = |c: &Configuration<u8>| c.iter().filter(|&&s| s == 0).count();
        assert_eq!(leaders(&exact.final_config), 1);
        assert_eq!(leaders(&batched.final_config), 1);
        assert!(batched.parallel_time().value() > 0.0);
    }

    // ------------------------------------------------------------------
    // Batch-count edge cases: the regimes where the epoch machinery must
    // hand over to (or exactly agree with) the per-transition path.
    // ------------------------------------------------------------------

    fn batchcount(
        protocol: Frat,
        config: &Configuration<u8>,
        seed: u64,
    ) -> BatchedSimulation<Frat> {
        BatchedSimulation::new(protocol, config, seed).with_sampling_mode(SamplingMode::BatchCount)
    }

    #[test]
    fn batchcount_clamps_the_batch_to_one_near_silence() {
        // Two leaders in 30 agents: a single non-null cell of multiplicity
        // one. The collision-free bound clamps every epoch to B ≤ 1, so the
        // run must degrade to per-transition sampling and still end silent
        // after exactly one applied transition.
        let config = Configuration::from_fn(30, |i| u8::from(i >= 2));
        let mut sim = batchcount(Frat { n: 30 }, &config, 5);
        assert_eq!(sim.active_pairs(), 2);
        let outcome = sim.run_until_silent(u64::MAX >> 8);
        assert!(outcome.is_silent());
        assert_eq!(sim.count_of(&0), 1);
        assert_eq!(sim.transitions(), 1);
    }

    #[test]
    fn batchcount_handles_n_equals_2() {
        // n = 2 forces b_target = 0 (n/16 = 0): pure fallback territory.
        let mut sim = batchcount(Frat { n: 2 }, &Configuration::uniform(0u8, 2), 3);
        let outcome = sim.run_until_silent(1_000);
        assert!(outcome.is_silent());
        assert_eq!(sim.count_of(&0), 1);
        assert_eq!(sim.transitions(), 1);
        assert_eq!(sim.batch_epochs(), 0, "no epoch can open at n = 2");
    }

    #[test]
    fn batchcount_single_state_populations() {
        // All-null single state: instantly silent, zero interactions.
        let mut done = batchcount(Frat { n: 40 }, &Configuration::uniform(1u8, 40), 1);
        assert!(done.run_until_silent(1_000).is_silent());
        assert_eq!(done.interactions(), Interactions::ZERO);

        // All-active single state: the entire weight sits on the (L, L)
        // diagonal, so epochs exercise the 2m-per-pair availability rule.
        // The run still elects exactly one leader on both row structures.
        let mut sim = batchcount(Frat { n: 400 }, &Configuration::uniform(0u8, 400), 7);
        assert!(sim.run_until_silent(u64::MAX >> 8).is_silent());
        assert_eq!(sim.count_of(&0), 1);
        assert_eq!(sim.transitions(), 399);
        assert!(sim.batch_epochs() > 0, "n = 400 from all-leaders must open epochs");
        let mut dense =
            BatchedSimulation::new(Dense(Frat { n: 400 }), &Configuration::uniform(0u8, 400), 7)
                .with_sampling_mode(SamplingMode::BatchCount);
        assert!(dense.run_until_silent(u64::MAX >> 8).is_silent());
        assert_eq!(dense.count_of(&0), 1);
    }

    #[test]
    fn batchcount_run_for_hits_the_budget_exactly() {
        // Epochs whose negative-binomial clock would overshoot the remaining
        // budget are abandoned for single steps, so run_for still lands
        // exactly on the requested interaction count — even when the run
        // silences mid-way and the tail is all nulls.
        let mut sim = batchcount(Frat { n: 50 }, &Configuration::uniform(0u8, 50), 7);
        sim.run_for(1234);
        assert_eq!(sim.interactions().count(), 1234);
        let mut done = batchcount(Frat { n: 50 }, &Configuration::uniform(1u8, 50), 7);
        done.run_for(777);
        assert_eq!(done.interactions().count(), 777);
        assert!(done.is_silent());
    }

    #[test]
    fn batchcount_budget_landing_on_the_silence_tick_still_reports_silent() {
        // No late-silence bias at epoch boundaries: the interaction clock
        // ends ON the last applied transition, so replaying the same seed
        // with the budget set to the observed silence time must still report
        // silence, not exhaustion (PR 2 fixed this for the per-transition
        // path; the epoch clock must preserve it).
        for seed in 0..10u64 {
            let config = Configuration::uniform(0u8, 120);
            let mut probe = batchcount(Frat { n: 120 }, &config, seed);
            let outcome = probe.run_until_silent(u64::MAX >> 8);
            assert!(outcome.is_silent());
            let t = outcome.interactions.count();
            let mut replay = batchcount(Frat { n: 120 }, &config, seed);
            let replayed = replay.run_until_silent(t);
            assert!(replayed.is_silent(), "seed {seed}: budget = {t} must still silence");
            assert_eq!(replayed.interactions.count(), t);
        }
    }

    #[test]
    fn split_batch_realizes_the_multivariate_hypergeometric_joint() {
        // The Fenwick batch splitter must produce leaf shares that are
        // jointly multivariate hypergeometric — the joint law (every outcome
        // vector its own chi-square category), not just the marginals.
        // Seeded; the 0.999 threshold gives a ~10⁻³ false-failure rate on a
        // reseed (see tests/sampling_stats.rs for the suite-wide budget).
        let weights = [3u64, 0, 2, 5];
        let mut fw = Fenwick::with_capacity(weights.len());
        fw.grow_to(weights.len());
        for (i, &w) in weights.iter().enumerate() {
            fw.set(i, w);
        }
        let draws = 4u64;
        let choose = |n: u64, k: u64| -> f64 {
            if k > n {
                return 0.0;
            }
            (0..k).map(|i| (n - i) as f64 / (i + 1) as f64).product()
        };
        let mut support = Vec::new();
        for n0 in 0..=weights[0].min(draws) {
            for n2 in 0..=weights[2].min(draws - n0) {
                let n3 = draws - n0 - n2;
                if n3 <= weights[3] {
                    support.push([n0, 0, n2, n3]);
                }
            }
        }
        let samples = 30_000usize;
        let denominator = choose(10, draws);
        let expected: Vec<f64> = support
            .iter()
            .map(|v| {
                let ways: f64 = v.iter().zip(&weights).map(|(&k, &w)| choose(w, k)).product();
                samples as f64 * ways / denominator
            })
            .collect();
        let mut observed = vec![0u64; support.len()];
        let mut rng = ChaCha8Rng::seed_from_u64(0x5B1D);
        for _ in 0..samples {
            let mut drawn = [0u64; 4];
            fw.split_batch(draws, &mut rng, &mut |leaf, share| drawn[leaf] += share);
            assert_eq!(drawn[1], 0, "zero-weight leaves must receive nothing");
            assert_eq!(drawn.iter().sum::<u64>(), draws);
            let index = support.iter().position(|v| *v == drawn).expect("in support");
            observed[index] += 1;
        }
        let statistic: f64 = observed
            .iter()
            .zip(&expected)
            .map(|(&o, &e)| (o as f64 - e) * (o as f64 - e) / e)
            .sum();
        let critical = analysis::chi_square_critical_999(support.len() - 1);
        assert!(
            statistic <= critical,
            "split_batch joint chi-square {statistic:.2} exceeds {critical:.2}"
        );
    }

    mod scheduled {
        use super::*;
        use crate::scheduler::{InteractionScheduler, PairRates, Topology};

        const BUDGET: u64 = u64::MAX >> 8;

        fn leaders(c: &Configuration<u8>) -> usize {
            c.iter().filter(|&&s| s == 0).count()
        }

        #[test]
        fn graph_schedulers_are_rejected_with_a_typed_error() {
            let ring = InteractionScheduler::GraphRestricted(Topology::Ring);
            let err = BatchedSimulation::try_new_scheduled(
                Frat { n: 8 },
                &Configuration::uniform(0u8, 8),
                1,
                &ring,
            )
            .unwrap_err();
            assert_eq!(
                err,
                SimError::SchedulerNeedsIdentities {
                    scheduler: "ring".to_owned(),
                    engine: "batched"
                }
            );
            let err = crate::runspec::RunSpec::new(Frat { n: 8 })
                .engine(Engine::Batched)
                .init(Configuration::uniform(0u8, 8))
                .scheduler(ring)
                .run_one()
                .unwrap_err();
            assert!(matches!(err, SimError::SchedulerNeedsIdentities { .. }));
        }

        #[test]
        fn zero_rate_schedulers_are_rejected() {
            let dead = InteractionScheduler::WeightedPairs(PairRates::new(0));
            let err = BatchedSimulation::try_new_scheduled(
                Frat { n: 8 },
                &Configuration::uniform(0u8, 8),
                1,
                &dead,
            )
            .unwrap_err();
            assert_eq!(err, SimError::ZeroRateScheduler);
        }

        #[test]
        fn scheduled_uniform_is_trajectory_identical_to_plain() {
            // The spec runner always goes through the scheduled constructor;
            // pin that under the uniform scheduler it reproduces the plain
            // constructor's trajectory bit for bit.
            for seed in [1u64, 9, 23] {
                let init = Configuration::uniform(0u8, 30);
                let mut plain = BatchedSimulation::new(Frat { n: 30 }, &init, seed);
                let outcome = plain.run_until_silent(BUDGET);
                let spec = crate::runspec::RunSpec::new(Frat { n: 30 })
                    .engine(Engine::Batched)
                    .init(init)
                    .seed(seed)
                    .budget(BUDGET)
                    .run_one()
                    .unwrap();
                assert_eq!(spec.outcome, outcome);
                assert_eq!(spec.final_config, plain.to_configuration());
            }
        }

        #[test]
        fn weighted_runs_silence_on_both_backends() {
            let rates = PairRates::new(1).with_rate(0u8, 0u8, 7);
            let scheduler = InteractionScheduler::WeightedPairs(rates);
            let init = Configuration::uniform(0u8, 40);
            let mut indexed =
                BatchedSimulation::try_new_scheduled(Frat { n: 40 }, &init, 3, &scheduler).unwrap();
            assert!(indexed.run_until_silent(BUDGET).is_silent());
            assert_eq!(leaders(&indexed.to_configuration()), 1);
            let mut dense =
                BatchedSimulation::try_new_scheduled(Dense(Frat { n: 40 }), &init, 3, &scheduler)
                    .unwrap();
            assert!(dense.run_until_silent(BUDGET).is_silent());
            assert_eq!(leaders(&dense.to_configuration()), 1);
        }

        #[test]
        fn rate_zero_pairs_make_silence_scheduler_relative() {
            // Fratricide's only non-null pair at rate 0: every configuration
            // is silent for the weighted scheduler, active for the uniform.
            let rates = PairRates::new(1).with_rate(0u8, 0u8, 0);
            let scheduler = InteractionScheduler::WeightedPairs(rates);
            let init = Configuration::uniform(0u8, 10);
            let sim =
                BatchedSimulation::try_new_scheduled(Frat { n: 10 }, &init, 1, &scheduler).unwrap();
            assert!(sim.is_silent());
            assert!(!BatchedSimulation::new(Frat { n: 10 }, &init, 1).is_silent());
        }

        // Satellite pin: under a non-uniform scheduler, `Engine::BatchedCounts`
        // must not sample the (uniform-law) batch-count epochs — it falls back
        // to per-transition sampling, counted, and the trajectory is exactly
        // the per-transition engine's.
        #[test]
        fn batchcount_weighted_fallback_is_trajectory_equal_to_batched() {
            let rates = PairRates::new(1).with_rate(0u8, 0u8, 4);
            let scheduler = InteractionScheduler::WeightedPairs(rates);
            let init = Configuration::uniform(0u8, 50);
            for seed in [2u64, 5, 31] {
                let mut per_transition =
                    BatchedSimulation::try_new_scheduled(Frat { n: 50 }, &init, seed, &scheduler)
                        .unwrap()
                        .with_sampling_mode(SamplingMode::PerTransition);
                let mut batchcount =
                    BatchedSimulation::try_new_scheduled(Frat { n: 50 }, &init, seed, &scheduler)
                        .unwrap()
                        .with_sampling_mode(SamplingMode::BatchCount);
                let a = per_transition.run_until_silent(BUDGET);
                let b = batchcount.run_until_silent(BUDGET);
                assert_eq!(a, b, "seed {seed}");
                assert_eq!(
                    per_transition.to_configuration(),
                    batchcount.to_configuration(),
                    "seed {seed}"
                );
                assert!(
                    batchcount.scheduler_fallbacks() > 0,
                    "fallback diagnostic must count the diverted batches"
                );
                assert_eq!(per_transition.scheduler_fallbacks(), 0);
            }
        }

        #[test]
        fn churn_keeps_weighted_row_weights_consistent() {
            use rand::SeedableRng;
            let rates = PairRates::new(2).with_rate(0u8, 0u8, 5);
            let scheduler = InteractionScheduler::WeightedPairs(rates);
            let init = Configuration::uniform(0u8, 20);
            let mut rng = ChaCha8Rng::seed_from_u64(8);
            let mut sim =
                BatchedSimulation::try_new_scheduled(Frat { n: 20 }, &init, 8, &scheduler).unwrap();
            sim.run_until_silent(BUDGET);
            sim.join(&[0u8, 0, 0, 0]);
            assert_eq!(sim.population_size(), 24);
            assert_eq!(sim.active_pairs(), sim.recount_active_pairs());
            sim.leave(10, &mut rng);
            assert_eq!(sim.population_size(), 14);
            assert_eq!(sim.active_pairs(), sim.recount_active_pairs());
            assert!(sim.run_until_silent(BUDGET).is_silent());
            assert_eq!(leaders(&sim.to_configuration()), 1);
        }
    }
}
