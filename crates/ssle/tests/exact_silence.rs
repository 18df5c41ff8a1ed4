//! Seed pins for the exact engine's silence detection.
//!
//! `Simulation::run_until_silent` checks for silence only after chunks in
//! which the configuration did not change (and always at the budget edge).
//! Which chunks it checks must never show in its answer: the stop reason,
//! the reported silence point and the applied transitions are pinned here
//! for fixed seeds, and a budget that ends anywhere from the silence point
//! to a few check intervals past it must still report silence at that
//! point.

use ppsim::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use ssle::{
    OptimalSilentParams, OptimalSilentSsr, OptimalSilentState, SilentNStateSsr, SilentRank,
};

/// One run to silence: the stop reason, the reported interaction count and
/// the number of interactions that changed the configuration.
fn run<P: Protocol>(
    protocol: P,
    config: &Configuration<P::State>,
    seed: u64,
    budget: u64,
) -> (StopReason, u64, u64) {
    let mut sim = Simulation::new(protocol, config.clone(), seed);
    let outcome = sim.run_until_silent(budget);
    (outcome.reason, outcome.interactions.count(), sim.counters().get(Counter::Transitions))
}

fn silent_n_state(n: usize, seed: u64) -> (SilentNStateSsr, Configuration<SilentRank>) {
    let protocol = SilentNStateSsr::new(n);
    let config = protocol.random_configuration(&mut ChaCha8Rng::seed_from_u64(seed));
    (protocol, config)
}

fn optimal_silent(n: usize, seed: u64) -> (OptimalSilentSsr, Configuration<OptimalSilentState>) {
    let protocol = OptimalSilentSsr::new(OptimalSilentParams::recommended(n));
    let config = protocol.random_configuration(&mut ChaCha8Rng::seed_from_u64(seed));
    (protocol, config)
}

const BUDGET: u64 = u64::MAX >> 8;

#[test]
fn silent_n_state_silence_points_are_pinned() {
    // (seed, silence point, transitions), measured with a check after every
    // chunk.
    let pins: [(u64, u64, u64); 3] = [(1, 34_017, 172), (2, 23_943, 82), (3, 28_197, 102)];
    for (seed, at, transitions) in pins {
        let (protocol, config) = silent_n_state(40, seed);
        assert_eq!(
            run(protocol, &config, seed, BUDGET),
            (StopReason::Silent, at, transitions),
            "seed {seed}"
        );
    }
}

#[test]
fn optimal_silent_silence_points_are_pinned() {
    // (seed, silence point, transitions), measured with a check after every
    // chunk.
    let pins: [(u64, u64, u64); 3] =
        [(1, 37_974, 32_369), (2, 43_454, 33_156), (3, 39_902, 32_702)];
    for (seed, at, transitions) in pins {
        let (protocol, config) = optimal_silent(120, seed);
        assert_eq!(
            run(protocol, &config, seed, BUDGET),
            (StopReason::Silent, at, transitions),
            "seed {seed}"
        );
    }
}

#[test]
fn budget_exhaustion_before_silence_is_pinned() {
    let (protocol, config) = silent_n_state(40, 1);
    assert_eq!(run(protocol, &config, 1, 5_000), (StopReason::BudgetExhausted, 5_000, 56));
    let (protocol, config) = optimal_silent(120, 1);
    assert_eq!(run(protocol, &config, 1, 5_000), (StopReason::BudgetExhausted, 5_000, 4_991));
}

/// A run whose budget ends at, or a few check intervals past, the silence
/// point reports silence at that point; one interaction less leaves the last
/// change unmade and the budget exhausted.
fn check_budget_edges<P: Protocol + Clone>(protocol: P, config: &Configuration<P::State>) {
    let seed = 7;
    let (reason, at, transitions) = run(protocol.clone(), config, seed, BUDGET);
    assert_eq!(reason, StopReason::Silent);
    let interval = (config.len() as u64 / 8).max(1);
    let mut budgets: Vec<u64> = (0..=4).map(|k| at + k * interval).collect();
    budgets.extend([at + 1, at + interval - 1, at + interval + 1, at + 2 * interval + 1]);
    for budget in budgets {
        assert_eq!(
            run(protocol.clone(), config, seed, budget),
            (StopReason::Silent, at, transitions),
            "budget {budget} (silent at {at})"
        );
    }
    let (reason, stopped, _) = run(protocol, config, seed, at - 1);
    assert_eq!((reason, stopped), (StopReason::BudgetExhausted, at - 1));
}

#[test]
fn a_budget_ending_after_silence_still_reports_silence() {
    let (protocol, config) = silent_n_state(24, 5);
    check_budget_edges(protocol, &config);
    let (protocol, config) = optimal_silent(40, 5);
    check_budget_edges(protocol, &config);
}
