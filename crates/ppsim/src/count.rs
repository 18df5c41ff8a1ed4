//! The **count engine**: one multiset simulator behind both count-based
//! engine names, [`crate::BatchedSimulation`] and
//! [`crate::InternedSimulation`].
//!
//! [`CountSimulation`] stores the configuration as state counts, skips each
//! run of null interactions in O(1) by sampling its geometric length
//! ([`crate::sample_null_run`]), and pays only per non-null interaction (see
//! the [`crate::batched`] module docs for the algorithm and why it simulates
//! the exact engine's Markov chain). An instance is one **key policy** ×
//! one **row structure**:
//!
//! * The key policy `K` ([`StateKeys`]) maps states to dense table indices,
//!   and is the only thing that differs between state spaces:
//!   - [`crate::EnumeratedKeys`], a static enumeration backed by
//!     [`crate::EnumerableProtocol`] and a decode table built up front
//!     (`BatchedSimulation<P>`);
//!   - [`crate::InternedKeys`], a growable [`crate::StateInterner`] backed
//!     by [`crate::InternableProtocol`] and its null classes
//!     (`InternedSimulation<P>`).
//! * The row structure keeps the row weights
//!   `r_i = c_i · Σ_j term(i, j)` (`Σ r_i` is the non-null ordered agent
//!   pair count) behind one growable Fenwick tree. It is chosen once, in the
//!   constructor, by whether the protocol declares sparse partner lists
//!   ([`crate::EnumerableProtocol::interaction_partners`]):
//!   - **partner rows**: the responders of state `i` are its declared
//!     partners, so a count change rebuilds only the rows of the changed
//!     states and their partners (O(deg · log |states|) per transition), and
//!     batch-count epochs split the batch down the tree in
//!     O(k · log |states|) for the `k` rows that receive a share;
//!   - **present-set rows**: the responders are the states present, and a
//!     count change shifts every other present row incrementally (O(present)
//!     nullness queries per transition, not O(present²)). Dense enumerable
//!     protocols and every interned protocol use these.
//!
//! The run loops, the epoch sampler, the count-delta repair, the fault and
//! churn hooks, the counters and the telemetry exist once, here.
//!
//! A protocol names its key policy once, as [`CountProtocol::Keys`]: every
//! [`crate::EnumerableProtocol`] gets [`crate::EnumeratedKeys`] from a
//! blanket impl, and an open-state-space protocol declares
//! `type Keys = InternedKeys<Self>`. [`crate::RunSpec`] and
//! [`crate::Engine::run_until`] read the policy from there, so every count
//! protocol runs through the same `run` / `run_one` / `run_until`.
//!
//! Where the engine meets per-agent [`Configuration`]s it works in bulk, not
//! per agent: construction keys each run of equal adjacent states once,
//! [`CountSimulation::to_configuration`] fills each state's whole count at
//! once, and [`CountSimulation::run_until`] materializes its predicate's
//! view once and then patches only the agents the net count changes name.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::batched::{sample_null_run, EnumerableProtocol, EnumeratedKeys, SamplingMode};
use crate::config::Configuration;
use crate::error::SimError;
use crate::execution::{RunOutcome, StopReason};
use crate::protocol::Protocol;
use crate::sampling::{sample_hypergeometric, sample_interleaved_nulls, sample_victims_by_counts};
use crate::scheduler::{IndexRates, InteractionScheduler};
use crate::telemetry::{Counter, CounterBlock, Probe, Recorder, TelemetrySink};
use crate::time::{Interactions, ParallelTime};

/// Per-state sparse partner lists (see
/// [`crate::EnumerableProtocol::interaction_partners`]).
pub type PartnerLists = Vec<Vec<usize>>;

/// How a [`CountSimulation`] keys its tables: a map from states to dense
/// indices `0..assigned()`, statically dispatched (no `dyn` on the
/// per-transition path).
pub trait StateKeys<P: Protocol>: Sized {
    /// The engine name reported in [`SimError::SchedulerNeedsIdentities`].
    const ENGINE: &'static str;

    /// Whether keys are assigned on first observation, so the tables grow
    /// during a run, rather than fixed when the table is built.
    const GROWS: bool;

    /// The key table for `protocol`, plus its sparse partner lists if it
    /// declares them (which selects partner rows over present-set rows).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::PartialInteractionPartners`] if partner lists
    /// are declared for some indices but not for all.
    fn build(protocol: &P) -> Result<(Self, Option<PartnerLists>), SimError>;

    /// The number of keys to pre-size the engine's tables for.
    fn capacity(&self) -> usize;

    /// The number of keys assigned so far (the whole enumeration for a
    /// static table).
    fn assigned(&self) -> usize;

    /// The key of `state`, assigning the next free key on first
    /// observation when the policy grows.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::StateIndexOutOfRange`] if a static enumeration
    /// maps the state outside its range.
    fn key(&mut self, protocol: &P, state: &P::State) -> Result<usize, SimError>;

    /// The key of `state` if it has one, without assigning.
    fn lookup(&self, protocol: &P, state: &P::State) -> Option<usize>;

    /// The state with key `key`.
    fn state(&self, key: usize) -> &P::State;

    /// Whether the distinct keys `i` and `j` share a declared null class,
    /// which makes them null in both orders without consulting
    /// [`Protocol::is_null`].
    fn same_null_class(&self, _i: usize, _j: usize) -> bool {
        false
    }
}

/// A protocol the count engine can run, with the key policy it runs under.
///
/// This is the one place a protocol names its key policy: the blanket impl
/// below gives every [`crate::EnumerableProtocol`] its static enumeration,
/// and a protocol over an open state space implements the trait itself with
/// `type Keys = InternedKeys<Self>` ([`crate::InternedKeys`]). To run an
/// enumerable protocol on interned keys instead, wrap it in
/// [`crate::AsInterned`].
pub trait CountProtocol: Protocol + Sized {
    /// The key policy of this protocol's [`CountSimulation`].
    type Keys: StateKeys<Self>;
}

impl<P: EnumerableProtocol> CountProtocol for P {
    type Keys = EnumeratedKeys<P>;
}

/// A growable Fenwick (binary indexed) tree over explicit point weights:
/// point reads are O(1) from the backing vector, point writes and prefix
/// searches are O(log len), and appending past the allocated capacity
/// rebuilds in O(len) (amortized O(1) per append by capacity doubling).
#[derive(Clone, Debug)]
pub(crate) struct Fenwick {
    values: Vec<u64>,
    tree: Vec<u64>,
    mask: usize,
    total: u64,
    /// Full-tree builds, the initial one included: the
    /// [`Counter::FenwickRebuilds`] telemetry counter.
    rebuilds: u64,
}

impl Fenwick {
    /// An empty tree with room for `capacity` slots before it rebuilds.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        let mut w =
            Fenwick { values: Vec::new(), tree: Vec::new(), mask: 0, total: 0, rebuilds: 0 };
        w.rebuild(capacity.max(1));
        w
    }

    fn capacity(&self) -> usize {
        self.tree.len() - 1
    }

    pub(crate) fn total(&self) -> u64 {
        self.total
    }

    pub(crate) fn get(&self, index: usize) -> u64 {
        self.values[index]
    }

    /// Appends zero-weight slots up to `len`, doubling the capacity (one
    /// rebuild) when the tree runs out of room.
    pub(crate) fn grow_to(&mut self, len: usize) {
        if len <= self.values.len() {
            return;
        }
        self.values.resize(len, 0);
        if len > self.capacity() {
            self.rebuild((self.capacity() * 2).max(len));
        }
    }

    /// Overwrites the weight of an existing slot.
    pub(crate) fn set(&mut self, index: usize, value: u64) {
        let old = self.values[index];
        if old == value {
            return;
        }
        self.values[index] = value;
        let delta = value as i128 - old as i128;
        self.total = (self.total as i128 + delta) as u64;
        let mut i = index + 1;
        while i < self.tree.len() {
            self.tree[i] = (self.tree[i] as i128 + delta) as u64;
            i += i & i.wrapping_neg();
        }
    }

    /// The slot holding offset `target` of the weight mass, and the remainder
    /// within that slot (requires `target < total`).
    pub(crate) fn find(&self, mut target: u64) -> (usize, u64) {
        debug_assert!(target < self.total);
        let mut pos = 0usize;
        let mut step = self.mask;
        while step > 0 {
            let next = pos + step;
            if next < self.tree.len() && self.tree[next] <= target {
                target -= self.tree[next];
                pos = next;
            }
            step /= 2;
        }
        (pos, target) // pos is the 0-based slot; target is the offset within
    }

    /// Splits a without-replacement batch of `draws` interaction slots across
    /// the tree's slots: jointly, the shares follow the multivariate
    /// hypergeometric law over the current weights. Implemented by recursive
    /// conditional [`sample_hypergeometric`] splits down the implicit binary
    /// structure, so the cost is O(k · log len) for the `k` slots that
    /// receive a nonzero share — independent of how many slots exist, which
    /// is what keeps epoch draws affordable when the state space is as large
    /// as the population (`Silent-n-state-SSR`).
    ///
    /// Calls `sink(slot, share)` once per slot with a nonzero share, in
    /// ascending slot order. Requires `draws <= total()`.
    pub(crate) fn split_batch(
        &self,
        draws: u64,
        rng: &mut impl Rng,
        sink: &mut impl FnMut(usize, u64),
    ) {
        debug_assert!(draws <= self.total);
        self.split_range(0, 2 * self.mask, self.total, draws, rng, sink);
    }

    /// Recursive step of [`Fenwick::split_batch`] on the aligned range
    /// `(pos, pos + step]` holding `weight` total and `draws` slots to place.
    fn split_range(
        &self,
        pos: usize,
        step: usize,
        weight: u64,
        draws: u64,
        rng: &mut impl Rng,
        sink: &mut impl FnMut(usize, u64),
    ) {
        if draws == 0 {
            return;
        }
        if step == 1 {
            sink(pos, draws);
            return;
        }
        let half = step / 2;
        // `pos` is a multiple of `step`, so `pos + half` has lowest set bit
        // exactly `half` and its tree entry stores the left child's range sum
        // whenever it is in bounds; an out-of-bounds right child is entirely
        // past the last slot and holds no weight.
        let left_w = if pos + half <= self.capacity() { self.tree[pos + half] } else { weight };
        let left_d = sample_hypergeometric(weight, left_w, draws, rng);
        self.split_range(pos, half, left_w, left_d, rng, sink);
        self.split_range(pos + half, half, weight - left_w, draws - left_d, rng, sink);
    }

    /// Rebuilds the tree from `values` with room for `capacity` slots.
    fn rebuild(&mut self, capacity: usize) {
        self.rebuilds += 1;
        self.tree = vec![0; capacity + 1];
        self.mask = 1;
        while self.mask * 2 <= capacity {
            self.mask *= 2;
        }
        self.total = 0;
        for (i, &v) in self.values.iter().enumerate() {
            self.total += v;
            if v > 0 {
                let mut j = i + 1;
                while j < self.tree.len() {
                    self.tree[j] += v;
                    j += j & j.wrapping_neg();
                }
            }
        }
    }
}

const NOT_PRESENT: usize = usize::MAX;

/// A single execution of a population protocol under the uniformly random
/// (or a weighted exchangeable) scheduler, simulated on state counts.
///
/// Mirrors [`crate::Simulation`]'s stop conditions (`run_until_silent`,
/// `run_for`, predicate runs) but stores only state counts; agent identities
/// do not exist here, which is faithful to the model (protocols cannot
/// observe them). Use it through its two names: [`crate::BatchedSimulation`]
/// for enumerable protocols and [`crate::InternedSimulation`] for open state
/// spaces (see the [module docs](self)).
#[derive(Clone, Debug)]
pub struct CountSimulation<P, K> {
    protocol: P,
    keys: K,
    counts: Vec<u64>,
    /// Row weights `r_i = c_i · Σ_{j responder of i} term(i, j)`, with
    /// `term(i, j) = (c_j − [i = j])` (times the scheduler rate) if `(i, j)`
    /// is non-null, else 0.
    rows: Fenwick,
    /// Per-state partner lists (partner rows), or `None` for present-set
    /// rows; fixed at construction.
    partners: Option<PartnerLists>,
    /// Present-set rows only: the states with a nonzero count, and each
    /// state's slot in that list.
    present: Vec<usize>,
    position: Vec<usize>,
    rng: ChaCha8Rng,
    interactions: Interactions,
    transitions: u64,
    n: usize,
    mode: SamplingMode,
    /// Resolved weighted-scheduler rates (`None` = the uniform scheduler,
    /// whose path is byte-for-byte the pre-scheduler arithmetic, which keeps
    /// uniform trajectories seed-stable). States keyed later fall under the
    /// default rate.
    rates: Option<IndexRates>,
    /// The unified telemetry registry (see [`crate::telemetry`]). Counters
    /// never touch the RNG, so the registry cannot perturb a trajectory.
    counters: CounterBlock,
    /// Probe/span sink; [`TelemetrySink::Noop`] (free) unless a recorder is
    /// attached.
    telemetry: TelemetrySink,
    /// Per-epoch agent availability, stamped with the epoch number so
    /// clearing between epochs is free (lazily sized on first epoch).
    scratch_avail: Vec<u64>,
    scratch_stamp: Vec<u64>,
    /// While [`CountSimulation::run_until`] runs: the net count deltas
    /// applied since its view was last patched.
    delta_log: Option<Vec<(usize, i64)>>,
}

impl<P: Protocol, K: StateKeys<P>> CountSimulation<P, K> {
    /// Creates a count simulation from a protocol, an initial configuration
    /// and an RNG seed.
    ///
    /// # Panics
    ///
    /// Panics on the setup errors [`CountSimulation::try_new`] reports.
    pub fn new(protocol: P, config: &Configuration<P::State>, seed: u64) -> Self {
        Self::try_new(protocol, config, seed).expect("invalid simulation setup")
    }

    /// Creates a count simulation, validating the setup.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ConfigurationSizeMismatch`] if the configuration
    /// length differs from the protocol's population size,
    /// [`SimError::PopulationTooSmall`] if the population has fewer than two
    /// agents, [`SimError::StateIndexOutOfRange`] if a static enumeration
    /// maps an initial state outside its range, and
    /// [`SimError::PartialInteractionPartners`] if partner lists are
    /// declared for some states but not all.
    pub fn try_new(
        protocol: P,
        config: &Configuration<P::State>,
        seed: u64,
    ) -> Result<Self, SimError> {
        let n = protocol.population_size();
        if config.len() != n {
            return Err(SimError::ConfigurationSizeMismatch { expected: n, actual: config.len() });
        }
        if n < 2 {
            return Err(SimError::PopulationTooSmall { n });
        }
        let (keys, partners) = K::build(&protocol)?;
        let capacity = keys.capacity();
        let mut sim = CountSimulation {
            protocol,
            keys,
            counts: Vec::with_capacity(capacity),
            rows: Fenwick::with_capacity(capacity),
            partners,
            present: Vec::new(),
            position: Vec::new(),
            rng: ChaCha8Rng::seed_from_u64(seed),
            interactions: Interactions::ZERO,
            transitions: 0,
            n,
            mode: SamplingMode::default(),
            rates: None,
            counters: CounterBlock::default(),
            telemetry: TelemetrySink::Noop,
            scratch_avail: Vec::new(),
            scratch_stamp: Vec::new(),
            delta_log: None,
        };
        sim.grow_tables();
        // One key lookup per run of equal adjacent states: a run's first
        // agent is where the per-agent scan would first see its state, so key
        // assignment order and the present list are the same either way.
        for run in config.as_slice().chunk_by(|a, b| a == b) {
            let i = sim.key(&run[0])?;
            if sim.counts[i] == 0 && sim.partners.is_none() {
                sim.position[i] = sim.present.len();
                sim.present.push(i);
            }
            sim.counts[i] += run.len() as u64;
        }
        sim.refresh_rows();
        Ok(sim)
    }

    /// Creates a count simulation under an explicit scheduling strategy.
    ///
    /// # Panics
    ///
    /// Panics on the setup errors [`CountSimulation::try_new_scheduled`]
    /// reports.
    pub fn new_scheduled(
        protocol: P,
        config: &Configuration<P::State>,
        seed: u64,
        scheduler: &InteractionScheduler<P::State>,
    ) -> Self {
        Self::try_new_scheduled(protocol, config, seed, scheduler)
            .expect("invalid simulation setup")
    }

    /// Creates a count simulation under an explicit scheduling strategy,
    /// validating both the setup and the scheduler/engine compatibility.
    ///
    /// [`InteractionScheduler::Uniform`] is trajectory-preserving: it runs
    /// the exact same code path (and RNG draws) as
    /// [`CountSimulation::try_new`]. [`InteractionScheduler::WeightedPairs`]
    /// reweighs the count-level pair measure by the resolved rates; override
    /// states are keyed eagerly so their rates apply from the first
    /// observation, and states keyed later fall under the default rate.
    ///
    /// # Errors
    ///
    /// In addition to [`CountSimulation::try_new`]'s errors, returns
    /// [`SimError::SchedulerNeedsIdentities`] for
    /// [`InteractionScheduler::GraphRestricted`] (a graph measure depends on
    /// which agent holds which state, and this engine erases identities) and
    /// [`SimError::ZeroRateScheduler`] if every weighted rate is zero.
    pub fn try_new_scheduled(
        protocol: P,
        config: &Configuration<P::State>,
        seed: u64,
        scheduler: &InteractionScheduler<P::State>,
    ) -> Result<Self, SimError> {
        if !scheduler.is_exchangeable() {
            return Err(SimError::SchedulerNeedsIdentities {
                scheduler: scheduler.label(),
                engine: K::ENGINE,
            });
        }
        let mut sim = Self::try_new(protocol, config, seed)?;
        if let InteractionScheduler::WeightedPairs(rates) = scheduler {
            if rates.max_rate() == 0 {
                return Err(SimError::ZeroRateScheduler);
            }
            // A state outside a static enumeration never holds agents, so
            // its overrides can never match a present pair.
            let resolved = IndexRates::resolve(rates, |s| sim.key(s).unwrap_or(usize::MAX));
            sim.rates = Some(resolved);
            sim.refresh_rows();
        }
        Ok(sim)
    }

    /// Selects the sampling mode (builder style); the default is
    /// [`SamplingMode::PerTransition`].
    pub fn with_sampling_mode(mut self, mode: SamplingMode) -> Self {
        self.mode = mode;
        self
    }

    /// The active sampling mode.
    pub fn sampling_mode(&self) -> SamplingMode {
        self.mode
    }

    /// The number of batch-count epochs drawn so far (always 0 in
    /// per-transition mode) — the `engine.epochs_opened` telemetry counter.
    pub fn batch_epochs(&self) -> u64 {
        self.counters.get(Counter::EpochsOpened)
    }

    /// The number of drawn table interactions clamped away by the
    /// collision-free availability cap, summed over all **committed** epochs
    /// (a budget-overshooting epoch rolls its truncations back with its
    /// transitions) — the `engine.batch_truncations` telemetry counter. The
    /// ratio `batch_truncations / transitions` is the schedule-approximation
    /// diagnostic the statistical suites pin down.
    pub fn batch_truncations(&self) -> u64 {
        self.counters.get(Counter::BatchTruncations)
    }

    /// How often a [`SamplingMode::BatchCount`] run fell back to
    /// per-transition sampling because the scheduler is not uniform (the
    /// epoch tables freeze an exchangeable pair measure, which a weighted
    /// scheduler reshapes mid-epoch). Always 0 under the uniform scheduler.
    /// The `engine.scheduler_fallbacks` telemetry counter.
    pub fn scheduler_fallbacks(&self) -> u64 {
        self.counters.get(Counter::SchedulerFallbacks)
    }

    /// A snapshot of the unified telemetry counter registry for this run
    /// (see [`crate::telemetry`]): the batch counters live in the block, and
    /// the snapshot mirrors in the applied-transition count, the Fenwick
    /// tree's full builds ([`Counter::FenwickRebuilds`]) and, for a growing
    /// key policy, the number of states keyed ([`Counter::InternerGrowths`]).
    pub fn counters(&self) -> CounterBlock {
        let mut block = self.counters;
        block.set(Counter::Transitions, self.transitions);
        block.set(Counter::FenwickRebuilds, self.rows.rebuilds);
        if K::GROWS {
            block.set(Counter::InternerGrowths, self.keys.assigned() as u64);
        }
        block
    }

    /// Adds `by` events to the registry (the drivers' accounting hook).
    pub(crate) fn add_counter(&mut self, counter: Counter, by: u64) {
        self.counters.add(counter, by);
    }

    /// Attaches a probe/span [`Recorder`]; until detached, the run loops
    /// record log-spaced convergence checkpoints and epoch draw/apply spans.
    pub fn attach_telemetry(&mut self, recorder: Recorder) {
        self.telemetry.attach(recorder);
    }

    /// Detaches the recorder (if one is attached), restoring the zero-cost
    /// no-op sink.
    pub fn take_telemetry(&mut self) -> Option<Recorder> {
        self.telemetry.take()
    }

    fn record_probe_now(&mut self) {
        let probe = Probe {
            interactions: self.interactions.count(),
            active_pairs: self.active_pairs(),
            distinct_states: self.distinct_states() as u64,
            transitions: self.transitions,
            population: self.n as u64,
        };
        self.telemetry.record_probe(probe);
    }

    /// The protocol being simulated.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// The population size.
    pub fn population_size(&self) -> usize {
        self.n
    }

    /// Total interactions executed so far (including skipped null runs).
    pub fn interactions(&self) -> Interactions {
        self.interactions
    }

    /// Total parallel time elapsed so far.
    pub fn parallel_time(&self) -> ParallelTime {
        self.interactions.to_parallel_time(self.n)
    }

    /// The number of non-null transitions actually applied — the work the
    /// engine pays for, as opposed to the interactions it skips. The ratio
    /// `interactions / transitions` is the engine's effective batching
    /// factor.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// The number of states the key table holds: for a growing key policy,
    /// every distinct state observed over the whole run (present or not) —
    /// the size a static enumeration would have needed, had one existed.
    pub fn interned_states(&self) -> usize {
        self.keys.assigned()
    }

    /// The multiset view: every present state with its count, in key order
    /// (state-index order for a static enumeration, interning order for a
    /// growing one).
    pub fn state_counts(&self) -> impl Iterator<Item = (&P::State, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (self.keys.state(i), c))
    }

    /// The number of agents currently holding `state`.
    pub fn count_of(&self, state: &P::State) -> u64 {
        self.keys.lookup(&self.protocol, state).map_or(0, |i| self.counts[i])
    }

    /// The number of distinct states present.
    pub fn distinct_states(&self) -> usize {
        match self.partners {
            Some(_) => self.counts.iter().filter(|&&c| c > 0).count(),
            None => self.present.len(),
        }
    }

    /// Materializes a canonical per-agent configuration (states in key
    /// order). Agent identities are arbitrary — the model's agents are
    /// anonymous — so this is suitable for any permutation-invariant
    /// predicate, which every protocol-level predicate is.
    pub fn to_configuration(&self) -> Configuration<P::State> {
        let mut states = Vec::with_capacity(self.n);
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                states.resize(states.len() + c as usize, self.keys.state(i).clone());
            }
        }
        Configuration::from_states(states)
    }

    /// The active pair weight of the current configuration: under the
    /// uniform scheduler, the number of non-null ordered **agent** pairs;
    /// under a weighted scheduler, the rate-weighted sum over those pairs,
    /// so rate-0 pairs contribute nothing (scheduler-relative silence).
    /// O(1): the rows are maintained incrementally.
    pub fn active_pairs(&self) -> u64 {
        self.rows.total()
    }

    /// Whether the configuration is silent (no non-null ordered pair
    /// exists); matches [`crate::Simulation::is_silent`] exactly, in O(1).
    pub fn is_silent(&self) -> bool {
        self.active_pairs() == 0
    }

    /// Recomputes the non-null pair weight from the raw counts, bypassing
    /// the incrementally maintained rows. Agreement with
    /// [`CountSimulation::active_pairs`] is the row-maintenance audit the
    /// property suites check after transitions, epochs, bursts and churn.
    pub fn recount_active_pairs(&self) -> u64 {
        (0..self.counts.len()).map(|i| self.row_weight(i)).sum()
    }

    /// Runs until the configuration is silent or `budget` additional
    /// interactions (counting skipped nulls) have elapsed.
    pub fn run_until_silent(&mut self, budget: u64) -> RunOutcome {
        let mut remaining = budget;
        loop {
            let active = self.active_pairs();
            if active == 0 {
                if self.telemetry.is_recording() {
                    self.record_probe_now();
                }
                return RunOutcome { reason: StopReason::Silent, interactions: self.interactions };
            }
            if self.telemetry.probe_due(self.interactions.count()) {
                self.record_probe_now();
            }
            if !self.advance(active, &mut remaining, None) {
                return RunOutcome {
                    reason: StopReason::BudgetExhausted,
                    interactions: self.interactions,
                };
            }
        }
    }

    /// Runs until `condition` holds, checking after every applied (non-null)
    /// transition — a *finer* granularity than the exact engine's periodic
    /// checks — or until the configuration is silent or the budget runs out.
    /// Under [`SamplingMode::BatchCount`] the check instead lands after every
    /// epoch, with epochs capped to `n/8` expected interactions so conditions
    /// are examined about as often as the exact engine examines them.
    ///
    /// The predicate receives the canonical configuration, exactly what
    /// [`CountSimulation::to_configuration`] would return at that point, so
    /// any permutation-invariant predicate written for the exact engine
    /// works unchanged. The run materializes it once and then patches it
    /// from the net count changes: a check clones one state per agent whose
    /// state changed and swaps one agent per run of equal states it shifts,
    /// and falls back to a full rebuild whenever that would cost more, so no
    /// check costs more than a fresh materialization. A count-based
    /// predicate via [`CountSimulation::run_until_counts`] avoids the
    /// per-agent view altogether.
    pub fn run_until(
        &mut self,
        mut condition: impl FnMut(&Configuration<P::State>) -> bool,
        budget: u64,
    ) -> RunOutcome {
        let mut view = CanonicalView::new(self);
        self.delta_log = Some(Vec::new());
        let outcome = self.run_until_checked(
            |sim| {
                view.patch(sim);
                if let Some(log) = &mut sim.delta_log {
                    log.clear();
                }
                condition(&view.config)
            },
            budget,
        );
        self.delta_log = None;
        outcome
    }

    /// Runs until `condition` holds for the simulation's multiset state,
    /// checking after every applied transition, or until the configuration is
    /// silent or the budget runs out.
    pub fn run_until_counts(
        &mut self,
        mut condition: impl FnMut(&Self) -> bool,
        budget: u64,
    ) -> RunOutcome {
        self.run_until_checked(|sim| condition(sim), budget)
    }

    /// The loop behind [`Self::run_until`] and [`Self::run_until_counts`]:
    /// `check` runs before the first step and after every advance.
    fn run_until_checked(
        &mut self,
        mut check: impl FnMut(&mut Self) -> bool,
        budget: u64,
    ) -> RunOutcome {
        if check(self) {
            return RunOutcome {
                reason: StopReason::ConditionMet,
                interactions: self.interactions,
            };
        }
        let mut remaining = budget;
        let check_cap = ((self.n as u64) / 8).max(1);
        loop {
            let active = self.active_pairs();
            if active == 0 {
                return RunOutcome { reason: StopReason::Silent, interactions: self.interactions };
            }
            if !self.advance(active, &mut remaining, Some(check_cap)) {
                return RunOutcome {
                    reason: StopReason::BudgetExhausted,
                    interactions: self.interactions,
                };
            }
            if check(self) {
                return RunOutcome {
                    reason: StopReason::ConditionMet,
                    interactions: self.interactions,
                };
            }
        }
    }

    /// Executes exactly `budget` interactions (in batches).
    pub fn run_for(&mut self, budget: u64) {
        let mut remaining = budget;
        while remaining > 0 {
            let active = self.active_pairs();
            if active == 0 {
                // Silent: the remaining interactions are all null.
                self.interactions += Interactions::new(remaining);
                return;
            }
            if !self.advance(active, &mut remaining, None) {
                return;
            }
        }
    }

    /// Dispatches one advance step according to the sampling mode.
    /// `elapsed_cap` soft-caps an epoch's expected elapsed interactions;
    /// predicate runs pass their check granularity through it.
    fn advance(&mut self, active: u64, remaining: &mut u64, elapsed_cap: Option<u64>) -> bool {
        match self.mode {
            SamplingMode::PerTransition => self.advance_one_transition(active, remaining),
            // Epoch tables freeze an exchangeable pair measure; a weighted
            // scheduler reshapes the measure with every count change, so
            // batch-count runs degrade to exact per-transition sampling and
            // record that they did.
            SamplingMode::BatchCount if self.rates.is_some() => {
                self.counters.incr(Counter::SchedulerFallbacks);
                self.advance_one_transition(active, remaining)
            }
            SamplingMode::BatchCount => self.advance_epoch(active, remaining, elapsed_cap),
        }
    }

    /// Skips the null run preceding the next non-null interaction and applies
    /// that interaction, staying within `remaining` interactions. Returns
    /// `false` (with `remaining` driven to 0 and the interaction counter
    /// advanced) if the budget ran out before the non-null interaction.
    fn advance_one_transition(&mut self, active: u64, remaining: &mut u64) -> bool {
        let skip = sample_null_run(active, self.total_weight(), &mut self.rng);
        if skip >= *remaining {
            self.counters.add(Counter::NullsSkipped, *remaining);
            self.interactions += Interactions::new(*remaining);
            *remaining = 0;
            return false;
        }
        self.counters.add(Counter::NullsSkipped, skip);
        self.interactions += Interactions::new(skip + 1);
        *remaining -= skip + 1;
        self.transitions += 1;
        self.apply_sampled_transition(active);
        true
    }

    /// Advances one **batch-count epoch**: draws how many times each active
    /// ordered state pair interacts over the next `B` non-null interactions
    /// (jointly multivariate-hypergeometric over the frozen pair weights),
    /// clamps the table so each agent participates at most once per epoch
    /// (the collision-free guarantee — it also means the table has a valid
    /// sequential realization, so silence cannot strike mid-epoch), applies
    /// every cell through one bulk [`Self::apply_count_deltas`], and accounts
    /// the interleaved null interactions with a segmented negative-binomial
    /// clock that tracks the evolving active-pair mass
    /// ([`sample_interleaved_nulls`]) and ends **on** the last applied
    /// transition — no trailing nulls, hence no late-silence bias.
    ///
    /// Falls back to [`Self::advance_one_transition`] whenever the
    /// collision-free batch length clamps to one: small populations, few
    /// active pairs (near silence), or a nearly exhausted budget. Budget and
    /// measurement-tick boundaries therefore land exactly as in the
    /// per-transition mode.
    fn advance_epoch(
        &mut self,
        active: u64,
        remaining: &mut u64,
        elapsed_cap: Option<u64>,
    ) -> bool {
        let total_pairs = (self.n as u64) * (self.n as u64 - 1);
        let p = active as f64 / total_pairs as f64;
        // Collision-free batch length: small enough that (a) at most n/8
        // agents are consumed per epoch, (b) the frozen weights stay close to
        // the evolving truth (B ≤ A/8, which also bounds the availability
        // truncation rate), (c) the epoch's expected elapsed time stays
        // within half the remaining budget and the caller's granularity cap.
        let mut b_target = ((self.n as u64) / 16).min(active / 8);
        b_target = b_target.min((*remaining as f64 * p * 0.5) as u64);
        if let Some(cap) = elapsed_cap {
            b_target = b_target.min((cap as f64 * p) as u64);
        }
        if b_target <= 1 {
            return self.advance_one_transition(active, remaining);
        }
        self.counters.add(Counter::BatchDraws, b_target);

        // Phase 1: draw the interaction-count table over the frozen weights.
        // Rows first (initiator states), then each row's share across its
        // responder cells, all by exact conditional hypergeometric splits.
        self.telemetry.span_begin("epoch.draw");
        let mut cells: Vec<(usize, usize, u64)> = Vec::new();
        {
            let Self { protocol, keys, counts, rows, partners, present, rng, rates, .. } = self;
            let rates = rates.as_ref();
            let mut split_row = |u: usize, n_u: u64, responders: &[usize], rng: &mut ChaCha8Rng| {
                let cu = counts[u];
                let mut row_rem = rows.get(u);
                let mut n_rem = n_u;
                for &v in responders {
                    if n_rem == 0 {
                        break;
                    }
                    let w = cu * Self::pair_term(protocol, keys, counts, rates, u, v);
                    let m = sample_hypergeometric(row_rem, w, n_rem, rng);
                    row_rem -= w;
                    n_rem -= m;
                    if m > 0 {
                        cells.push((u, v, m));
                    }
                }
                debug_assert_eq!(n_rem, 0, "row share exceeds row weight");
            };
            match partners {
                Some(partners) => {
                    let mut row_shares: Vec<(usize, u64)> = Vec::new();
                    rows.split_batch(b_target, rng, &mut |leaf, share| {
                        row_shares.push((leaf, share));
                    });
                    for (i, n_i) in row_shares {
                        split_row(i, n_i, &partners[i], rng);
                    }
                }
                None => {
                    let mut a_rem = active;
                    let mut b_rem = b_target;
                    for &u in present.iter() {
                        if b_rem == 0 {
                            break;
                        }
                        let r = rows.get(u);
                        let n_u = sample_hypergeometric(a_rem, r, b_rem, rng);
                        a_rem -= r;
                        b_rem -= n_u;
                        if n_u > 0 {
                            split_row(u, n_u, present, rng);
                        }
                    }
                    debug_assert_eq!(b_rem, 0, "batch exceeds the active pair weight");
                }
            }
        }
        self.telemetry.span_end("epoch.draw");

        // Phase 2: clamp to per-agent availability. A diagonal cell (i, i)
        // consumes two agents of state i per interaction; off-diagonal cells
        // one of each. The first nonzero cell always fits (its states have
        // full availability and a positive pair weight), so b_applied >= 1.
        self.telemetry.span_begin("epoch.apply");
        if self.scratch_avail.len() < self.counts.len() {
            self.scratch_avail.resize(self.counts.len(), 0);
            self.scratch_stamp.resize(self.counts.len(), 0);
        }
        self.counters.incr(Counter::EpochsOpened);
        let stamp = self.counters.get(Counter::EpochsOpened);
        let mut b_applied = 0u64;
        // Truncations accumulate locally and only commit with the epoch: a
        // budget-overshooting epoch undoes its transitions, so leaving its
        // truncations counted would skew the truncations/transitions
        // diagnostic.
        let mut epoch_truncations = 0u64;
        for cell in &mut cells {
            let (i, j, drawn) = *cell;
            for s in [i, j] {
                if self.scratch_stamp[s] != stamp {
                    self.scratch_stamp[s] = stamp;
                    self.scratch_avail[s] = self.counts[s];
                }
            }
            let cap = if i == j {
                self.scratch_avail[i] / 2
            } else {
                self.scratch_avail[i].min(self.scratch_avail[j])
            };
            let m = drawn.min(cap);
            epoch_truncations += drawn - m;
            if i == j {
                self.scratch_avail[i] -= 2 * m;
            } else {
                self.scratch_avail[i] -= m;
                self.scratch_avail[j] -= m;
            }
            cell.2 = m;
            b_applied += m;
        }
        debug_assert!(b_applied >= 1, "the first drawn cell always fits");

        // Phases 3 and 4, optimistically ordered: apply the table, audit the
        // epoch-end active mass, then draw the null clock segmented over the
        // evolving mass ([`sample_interleaved_nulls`]) — a clock frozen at
        // the epoch-start probability under-counts nulls whenever the mass
        // shrinks several-fold within an epoch, which epidemic tails do
        // under the n/16 batch clamp. The epoch still ends **on** its last
        // applied transition. If the clock overshoots the remaining budget,
        // the apply is undone exactly (count deltas are invertible, and
        // every derived structure is recomputed from counts) and the run
        // advances per-transition instead, which lands the budget exactly;
        // the discarded draws leave the law of the continuation unchanged.
        // One path for every budget also keeps epoch boundaries
        // seed-reproducible: replaying with the budget set to an observed
        // silence time makes the same draws in the same order.
        let mut deltas = self.apply_epoch_cells(&cells, stamp);
        let a_end = self.active_pairs();
        let nulls = sample_interleaved_nulls(b_applied, active, a_end, total_pairs, &mut self.rng);
        self.telemetry.span_end("epoch.apply");
        match b_applied.checked_add(nulls) {
            Some(elapsed) if elapsed <= *remaining => {
                self.counters.add(Counter::BatchTruncations, epoch_truncations);
                self.counters.add(Counter::NullsSkipped, nulls);
                self.interactions += Interactions::new(elapsed);
                *remaining -= elapsed;
                self.transitions += b_applied;
                true
            }
            _ => {
                self.counters.incr(Counter::EpochsDiscarded);
                for d in &mut deltas {
                    d.1 = -d.1;
                }
                self.apply_count_deltas(&deltas);
                self.advance_one_transition(active, remaining)
            }
        }
    }

    /// Phase 4 of [`Self::advance_epoch`]: applies a clamped interaction-count
    /// table through one bulk [`Self::apply_count_deltas`]. Deterministic
    /// protocols evaluate each cell's transition once and apply the outcome
    /// m-fold; randomized protocols evaluate per counted interaction
    /// (correct, just without the per-cell collapse). Returns the applied
    /// deltas so an epoch that overshoots the budget can be undone exactly.
    fn apply_epoch_cells(
        &mut self,
        cells: &[(usize, usize, u64)],
        stamp: u64,
    ) -> Vec<(usize, i64)> {
        // The probe streams below exist only under debug_assertions.
        let _ = stamp;
        let deterministic = self.protocol.deterministic_transitions();
        let mut deltas: Vec<(usize, i64)> = Vec::with_capacity(4 * cells.len());
        for &(i, j, m) in cells {
            if m == 0 {
                continue;
            }
            #[cfg(debug_assertions)]
            if deterministic && m > 1 {
                // Two independent probe streams must agree if the protocol's
                // determinism declaration is truthful.
                let mut probe_a = ChaCha8Rng::seed_from_u64(stamp ^ 0xD371);
                let mut probe_b = ChaCha8Rng::seed_from_u64(stamp ^ 0x9E37);
                let (a, b) = (self.keys.state(i), self.keys.state(j));
                let (xa, ya) = self.protocol.transition(a, b, &mut probe_a);
                let (xb, yb) = self.protocol.transition(a, b, &mut probe_b);
                debug_assert!(
                    xa == xb && ya == yb,
                    "protocol declares deterministic_transitions but outcomes differ"
                );
            }
            let reps = if deterministic { 1 } else { m };
            let per = (m / reps) as i64;
            for _ in 0..reps {
                let (a2, b2) =
                    self.protocol.transition(self.keys.state(i), self.keys.state(j), &mut self.rng);
                let i2 = self.intern(&a2);
                let j2 = self.intern(&b2);
                if i == j {
                    deltas.push((i, -2 * per));
                } else {
                    deltas.push((i, -per));
                    deltas.push((j, -per));
                }
                deltas.push((i2, per));
                deltas.push((j2, per));
            }
        }
        self.apply_count_deltas(&deltas);
        deltas
    }

    /// Samples the non-null ordered state pair, applies one transition, and
    /// repairs the count and row tables.
    fn apply_sampled_transition(&mut self, active: u64) {
        let target = self.rng.gen_range(0..active);
        let (i, within_row) = self.rows.find(target);
        let j = match &self.partners {
            Some(partners) => {
                // The row stores c_i · s_i; re-draw the responder from s_i.
                let s: u64 = partners[i].iter().map(|&j| self.term(i, j)).sum();
                let t = self.rng.gen_range(0..s);
                self.pick_responder(i, &partners[i], t)
            }
            None => {
                // Row i is c_i consecutive copies of the responder weights;
                // reduce modulo the per-copy sum to select the responder.
                let per_copy = self.rows.get(i) / self.counts[i];
                self.pick_responder(i, &self.present, within_row % per_copy)
            }
        };
        debug_assert!(!self.protocol.is_null(self.keys.state(i), self.keys.state(j)));
        // Field-disjoint borrows: the key table lends the states while the
        // transition draws from the rng — no clones on the hot path.
        let (a2, b2) =
            self.protocol.transition(self.keys.state(i), self.keys.state(j), &mut self.rng);
        let i2 = self.intern(&a2);
        let j2 = self.intern(&b2);
        self.apply_count_deltas(&[(i, -1), (j, -1), (i2, 1), (j2, 1)]);
    }

    /// The responder at offset `t` of initiator `i`'s per-copy weights over
    /// `responders`.
    fn pick_responder(&self, i: usize, responders: &[usize], mut t: u64) -> usize {
        for &j in responders {
            let w = self.term(i, j);
            if t < w {
                return j;
            }
            t -= w;
        }
        panic!("responder weights sum to the drawn total");
    }

    /// Applies one fault burst in count space: keys the target states, draws
    /// `states.len()` victim agents **proportionally to the current counts
    /// without replacement** (the count-space image of choosing distinct
    /// agents uniformly — agents are anonymous, so the multiset distribution
    /// is identical to the exact engine's
    /// [`crate::Simulation::inject_states`]) and moves the `i`-th victim into
    /// `states[i]`, repairing the row weights through the same path as an
    /// applied transition — never a full recount (see [`crate::faults`]).
    ///
    /// # Panics
    ///
    /// Panics if `states.len()` exceeds the population size, or if a static
    /// enumeration maps a target state outside its range.
    pub fn inject_states(&mut self, states: &[P::State], rng: &mut impl Rng) {
        let k = states.len();
        assert!(k <= self.n, "cannot corrupt more agents than the population holds");
        // Key targets first: a growing table may extend, and the draw below
        // reads counts (new states enter with count 0, weightless).
        let dsts: Vec<usize> = states.iter().map(|s| self.intern(s)).collect();
        let victims = sample_victims_by_counts(&self.counts, self.victim_order(), k, rng);
        let mut deltas: Vec<(usize, i64)> = Vec::with_capacity(2 * k);
        for (src, dst) in victims.into_iter().zip(dsts) {
            deltas.push((src, -1));
            deltas.push((dst, 1));
        }
        self.apply_count_deltas(&deltas);
    }

    /// Population churn: `states.len()` fresh agents join in the given
    /// states (keying any state not yet observed). A no-op for an empty
    /// slice.
    ///
    /// # Panics
    ///
    /// Panics if a static enumeration maps a joining state outside its
    /// range.
    pub fn join(&mut self, states: &[P::State]) {
        if states.is_empty() {
            return;
        }
        let deltas: Vec<(usize, i64)> = states
            .iter()
            .map(|s| (self.key(s).expect("joining state outside the enumerated space"), 1))
            .collect();
        self.n += states.len();
        self.apply_count_deltas(&deltas);
    }

    /// Population churn: `k` agents, drawn proportionally to the current
    /// counts without replacement (the count-space image of uniform distinct
    /// departures), leave the population. A no-op for `k == 0`.
    ///
    /// # Panics
    ///
    /// Panics unless at least two agents remain after the departures.
    pub fn leave(&mut self, k: usize, rng: &mut impl Rng) {
        if k == 0 {
            return;
        }
        assert!(self.n >= k + 2, "churn departures must leave at least two agents");
        let victims = sample_victims_by_counts(&self.counts, self.victim_order(), k, rng);
        let deltas: Vec<(usize, i64)> = victims.into_iter().map(|i| (i, -1)).collect();
        self.n -= k;
        self.apply_count_deltas(&deltas);
    }

    /// The state order victim draws scan: key order on partner rows, the
    /// present list on present-set rows.
    fn victim_order(&self) -> Option<&[usize]> {
        self.partners.is_none().then_some(self.present.as_slice())
    }

    /// Applies signed count changes and repairs the present set and the row
    /// weights. Partner rows rebuild every row that depends on a changed
    /// count (the changed states and their partners). Present-set rows
    /// shift each unchanged present row by `c_u · Σ_k rate(u, k) · Δc_k`
    /// over its non-null `(u, k)` (nullness against the changed states is
    /// count-independent) and rebuild only the changed states' own rows.
    fn apply_count_deltas(&mut self, deltas: &[(usize, i64)]) {
        // Net the deltas per state first (i may equal j, or a state may both
        // lose and gain an agent in the same transition).
        let net = net_deltas(deltas);
        if let Some(log) = &mut self.delta_log {
            log.extend_from_slice(&net);
        }
        for &(k, d) in &net {
            let c = self.counts[k] as i64 + d;
            debug_assert!(c >= 0, "state count went negative");
            self.counts[k] = c as u64;
        }
        if let Some(partners) = &self.partners {
            let mut affected: Vec<usize> = Vec::new();
            for &(k, _) in &net {
                affected.push(k);
                affected.extend_from_slice(&partners[k]);
            }
            affected.sort_unstable();
            affected.dedup();
            for i in affected {
                let row = self.row_weight(i);
                self.rows.set(i, row);
            }
            return;
        }
        // Present-set maintenance (swap-remove keeps positions dense).
        for &(k, _) in &net {
            let now_present = self.counts[k] > 0;
            let was_present = self.position[k] != NOT_PRESENT;
            if now_present && !was_present {
                self.position[k] = self.present.len();
                self.present.push(k);
            } else if !now_present && was_present {
                let pos = self.position[k];
                let last = *self.present.last().expect("present is nonempty");
                self.present.swap_remove(pos);
                self.position[k] = NOT_PRESENT;
                if last != k {
                    self.position[last] = pos;
                }
            }
        }
        for slot in 0..self.present.len() {
            let u = self.present[slot];
            if net.iter().any(|&(k, _)| k == u) {
                continue;
            }
            let mut shift = 0i128;
            for &(k, d) in &net {
                if Self::nonnull(&self.protocol, &self.keys, u, k) {
                    let r = self.rates.as_ref().map_or(1, |rt| rt.rate(u, k));
                    shift += r as i128 * d as i128;
                }
            }
            if shift != 0 {
                let old = self.rows.get(u) as i128;
                let new = old + self.counts[u] as i128 * shift;
                debug_assert!(new >= 0, "row weight went negative");
                self.rows.set(u, new as u64);
            }
        }
        // Changed states: rebuild their rows from scratch (covers presence
        // changes, the c_k factor, and terms against other changed states).
        for &(k, _) in &net {
            let row = self.row_weight(k);
            self.rows.set(k, row);
        }
    }

    /// Recomputes every row: at construction, and when a weighted scheduler
    /// reweighs the measure.
    fn refresh_rows(&mut self) {
        for i in 0..self.counts.len() {
            let row = self.row_weight(i);
            self.rows.set(i, row);
        }
    }

    /// The key of `state`, growing the side tables when the key policy
    /// assigns a fresh one.
    fn key(&mut self, state: &P::State) -> Result<usize, SimError> {
        let i = self.keys.key(&self.protocol, state)?;
        self.grow_tables();
        Ok(i)
    }

    /// [`Self::key`] on the paths where a state outside a static
    /// enumeration is a protocol bug.
    fn intern(&mut self, state: &P::State) -> usize {
        self.key(state).expect("state outside the enumerated space")
    }

    /// Extends the count, row and position tables to every assigned key.
    fn grow_tables(&mut self) {
        let len = self.keys.assigned();
        if self.counts.len() < len {
            self.counts.resize(len, 0);
            self.rows.grow_to(len);
            if self.partners.is_none() {
                self.position.resize(len, NOT_PRESENT);
            }
        }
    }

    /// `(c_j − [i = j])` if the ordered pair `(i, j)` is non-null, else 0 —
    /// scaled by the scheduler rate of `(i, j)` when a weighted scheduler is
    /// installed.
    ///
    /// Associated function over the individual fields (rather than `&self`)
    /// so the epoch draw can evaluate weights while the RNG is mutably
    /// borrowed.
    fn pair_term(
        protocol: &P,
        keys: &K,
        counts: &[u64],
        rates: Option<&IndexRates>,
        i: usize,
        j: usize,
    ) -> u64 {
        let w = counts[j].saturating_sub((i == j) as u64);
        if w == 0 || !Self::nonnull(protocol, keys, i, j) {
            return 0;
        }
        match rates {
            None => w,
            Some(r) => r
                .rate(i, j)
                .checked_mul(w)
                .expect("weighted pair term overflows u64; scale the rates down"),
        }
    }

    /// Whether the ordered pair `(i, j)` is non-null; count-independent.
    /// Distinct states of one null class are null by the class contract, so
    /// the class comparison short-circuits `is_null`; same-state pairs always
    /// consult `is_null`.
    fn nonnull(protocol: &P, keys: &K, i: usize, j: usize) -> bool {
        if i != j && keys.same_null_class(i, j) {
            return false;
        }
        !protocol.is_null(keys.state(i), keys.state(j))
    }

    /// Method form of [`Self::pair_term`].
    fn term(&self, i: usize, j: usize) -> u64 {
        Self::pair_term(&self.protocol, &self.keys, &self.counts, self.rates.as_ref(), i, j)
    }

    /// Full row weight of state `i` against its responders (its partner
    /// list, or the present set).
    fn row_weight(&self, i: usize) -> u64 {
        let ci = self.counts[i];
        if ci == 0 {
            return 0;
        }
        let responders = match &self.partners {
            Some(partners) => &partners[i],
            None => &self.present,
        };
        let mut s = 0u64;
        for &j in responders {
            s += self.term(i, j);
        }
        ci.checked_mul(s).expect("weighted row weight overflows u64; scale the rates down")
    }

    /// The total pair measure the scheduler draws each interaction from:
    /// `n(n−1)` under the uniform scheduler, the rate-weighted `W(c)` under
    /// a weighted one. The null-run success probability is
    /// `active_pairs() / total_weight()` either way.
    fn total_weight(&self) -> u64 {
        let n = self.n as u64;
        let total_pairs = n * (n - 1);
        match &self.rates {
            None => total_pairs,
            Some(r) => r.total_weight(&self.counts, total_pairs),
        }
    }
}

/// Nets signed count changes per state and drops the states whose changes
/// cancel. Small lists — the per-transition path — net by linear scan in
/// first-seen order; epoch-sized lists sort, which keeps the netting
/// O(k log k) instead of O(k²).
fn net_deltas(deltas: &[(usize, i64)]) -> Vec<(usize, i64)> {
    let mut net: Vec<(usize, i64)> = Vec::with_capacity(deltas.len());
    if deltas.len() <= 16 {
        for &(k, d) in deltas {
            match net.iter_mut().find(|(s, _)| *s == k) {
                Some((_, acc)) => *acc += d,
                None => net.push((k, d)),
            }
        }
    } else {
        let mut sorted = deltas.to_vec();
        sorted.sort_unstable_by_key(|&(s, _)| s);
        for (s, d) in sorted {
            match net.last_mut() {
                Some((ls, acc)) if *ls == s => *acc += d,
                _ => net.push((s, d)),
            }
        }
    }
    net.retain(|&(_, d)| d != 0);
    net
}

/// One run of equal states in a [`CanonicalView`]: the agents at
/// `start..start + count` all hold the state with key `key`.
#[derive(Clone, Copy, Debug)]
struct ViewRun {
    key: usize,
    start: usize,
    count: usize,
}

/// The per-agent configuration [`CountSimulation::run_until`] hands its
/// predicate, kept equal to [`CountSimulation::to_configuration`] by
/// patching rather than rebuilding.
///
/// In the canonical order each present state occupies one run, and the runs
/// follow key order. Moving one agent from state `s` to state `t` opens a
/// hole at the edge of `s`'s run that faces `t`, passes it across every run
/// in between by one swap each (a run of equal states only needs its two
/// ends exchanged to shift by one), and fills it with one clone of `t`.
struct CanonicalView<S> {
    config: Configuration<S>,
    /// The runs in key order; every count is nonzero.
    runs: Vec<ViewRun>,
}

impl<S: Clone> CanonicalView<S> {
    fn new<P: Protocol<State = S>, K: StateKeys<P>>(sim: &CountSimulation<P, K>) -> Self {
        let mut runs = Vec::new();
        let mut start = 0;
        for (key, &c) in sim.counts.iter().enumerate() {
            if c > 0 {
                runs.push(ViewRun { key, start, count: c as usize });
                start += c as usize;
            }
        }
        CanonicalView { config: sim.to_configuration(), runs }
    }

    /// Brings the view up to date with `sim` from the count deltas it logged
    /// since the last patch (which leave the population size unchanged: the
    /// view lives for one run, and neither churn nor faults act inside one).
    /// Rebuilds instead when patching would touch more values than a
    /// rebuild.
    fn patch<P: Protocol<State = S>, K: StateKeys<P>>(&mut self, sim: &CountSimulation<P, K>) {
        let net = net_deltas(sim.delta_log.as_deref().unwrap_or_default());
        if net.is_empty() {
            return;
        }
        // Pair the agents that left a state with the states they entered.
        let mut sources = net.iter().filter(|&&(_, d)| d < 0).map(|&(k, d)| (k, d.unsigned_abs()));
        let mut sinks = net.iter().filter(|&&(_, d)| d > 0).map(|&(k, d)| (k, d as u64));
        let mut moves: Vec<(usize, usize, u64)> = Vec::new();
        let (mut src, mut dst) = (sources.next(), sinks.next());
        while let (Some((s, ds)), Some((t, dt))) = (src, dst) {
            let k = ds.min(dt);
            moves.push((s, t, k));
            src = if ds > k { Some((s, ds - k)) } else { sources.next() };
            dst = if dt > k { Some((t, dt - k)) } else { sinks.next() };
        }
        debug_assert!(src.is_none() && dst.is_none(), "nothing resizes the population mid-run");
        // A rebuild clones n states and drops the n it replaces; the patch
        // clones and drops one state per moved agent and makes one swap per
        // run it crosses. Take whichever touches fewer values.
        let rank = |key: usize| self.runs.partition_point(|r| r.key < key);
        let patch_cost: u64 =
            moves.iter().map(|&(s, t, k)| k * (rank(s).abs_diff(rank(t)) as u64 + 2)).sum();
        if patch_cost > 2 * sim.n as u64 {
            *self = Self::new(sim);
            return;
        }
        for (s, t, k) in moves {
            for _ in 0..k {
                self.move_one(s, t, sim.keys.state(t));
            }
        }
    }

    /// Moves one agent from the run of key `s` to the run of key `t`.
    fn move_one(&mut self, s: usize, t: usize, t_state: &S) {
        let runs = &mut self.runs;
        let states = self.config.as_mut_slice();
        let mut i = runs.partition_point(|r| r.key < s);
        debug_assert!(runs[i].key == s && runs[i].count > 0, "source run missing");
        runs[i].count -= 1;
        if s < t {
            // The hole is the last slot of `s`; every run between shifts left.
            let mut hole = runs[i].start + runs[i].count;
            let mut j = i + 1;
            while j < runs.len() && runs[j].key < t {
                let last = runs[j].start + runs[j].count - 1;
                states.swap(hole, last);
                runs[j].start -= 1;
                hole = last;
                j += 1;
            }
            states[hole].clone_from(t_state);
            if j < runs.len() && runs[j].key == t {
                runs[j].start -= 1;
                runs[j].count += 1;
            } else {
                runs.insert(j, ViewRun { key: t, start: hole, count: 1 });
            }
        } else {
            // The hole is the first slot of `s`; every run between shifts
            // right.
            let mut hole = runs[i].start;
            runs[i].start += 1;
            let mut j = i;
            while j > 0 && runs[j - 1].key > t {
                j -= 1;
                let first = runs[j].start;
                states.swap(hole, first);
                runs[j].start += 1;
                hole = first;
            }
            states[hole].clone_from(t_state);
            if j > 0 && runs[j - 1].key == t {
                runs[j - 1].count += 1;
            } else {
                runs.insert(j, ViewRun { key: t, start: hole, count: 1 });
                i += 1;
            }
        }
        if runs[i].count == 0 {
            runs.remove(i);
        }
    }
}
