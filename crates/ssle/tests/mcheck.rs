//! Exhaustive model-checking suites for the paper's ranking protocols: the
//! statements the simulators sample are *proved* here at small `n`, and the
//! exact absorbing-chain expectations are cross-validated against both the
//! closed forms of `analysis::theory` and the exact engine's sample means.

use analysis::{t_quantile_975, Summary};
use ppsim::mcheck::{
    check_convergence_from, check_fault_plan_closure, check_self_stabilization,
    check_self_stabilization_quotient, expected_silence_time_exact, MCheckError, MCheckOptions,
};
use ppsim::{run_trials, Configuration, Engine, RunSpec, Simulation, TrialPlan};
use proptest::prelude::*;
use ssle::{OptimalSilentParams, OptimalSilentSsr, SilentNStateSsr};

/// Mean-vs-exact agreement with the repo's standard 1.5·t·SE allowance
/// (designed false-failure ≈ 0.2% per cell; see `engine_equivalence.rs`).
fn assert_mean_matches_exact(samples: &[f64], exact: f64, context: &str) {
    let summary = Summary::from_samples(samples);
    let allowance = 1.5 * t_quantile_975(summary.count - 1) * summary.standard_error();
    assert!(
        (summary.mean - exact).abs() <= allowance.max(1e-9),
        "{context}: simulated mean {} vs exact {exact} (allowance {allowance})",
        summary.mean
    );
}

/// 200 exact-engine silence times (in interactions) from one configuration.
fn exact_engine_silence_times<P>(protocol: P, config: &Configuration<P::State>) -> Vec<f64>
where
    P: ppsim::Protocol + Clone + Send + Sync,
    P::State: Clone,
{
    let plan = TrialPlan::new(200, 0xE5EED);
    run_trials(&plan, |_, seed| {
        let mut sim = Simulation::new(protocol.clone(), config.clone(), seed);
        let outcome = sim.run_until_silent(u64::MAX >> 8);
        assert!(outcome.is_silent());
        outcome.interactions.count() as f64
    })
}

#[test]
fn silent_n_state_self_stabilization_is_proved_exhaustively() {
    for n in 2..=5usize {
        let report =
            check_self_stabilization(SilentNStateSsr::new(n), &MCheckOptions::default()).unwrap();
        assert!(report.verified(), "n = {n} must verify");
        assert_eq!(
            report.configurations as u128,
            ppsim::mcheck::lattice_size(n, n).unwrap(),
            "full lattice enumerated"
        );
        // Exactly one silent multiset: every rank present once (the valid
        // rankings all share it — agents are anonymous).
        assert_eq!(report.silent, 1, "one silent multiset at n = {n}");
        assert_eq!(report.correct, 1);
    }
}

#[test]
fn silent_n_state_worst_case_time_is_exactly_the_theorem_2_4_closed_form() {
    for n in 2..=6usize {
        let protocol = SilentNStateSsr::new(n);
        let exact = expected_silence_time_exact(
            protocol,
            &protocol.worst_case_configuration(),
            &MCheckOptions::default(),
        )
        .unwrap();
        let closed_form = analysis::theory::silent_n_state_worst_case_interactions(n);
        assert!(
            (exact.expected_interactions - closed_form).abs() <= 1e-9 * closed_form,
            "n = {n}: {} vs (n−1)·C(n,2) = {closed_form}",
            exact.expected_interactions
        );
        // The worst-case chain is the bottleneck path: n − 1 duplicate
        // positions plus the silent configuration.
        assert_eq!(exact.states, n);
    }
}

#[test]
fn silent_n_state_n2_closed_forms_pin_the_solver() {
    // n = 2: every non-silent configuration is one bump away from the
    // ranking and every ordered pair is active, so E = 1 interaction from
    // both (2, 0) and (0, 2); the worst case (n−1)²/2 parallel = 1/2.
    let protocol = SilentNStateSsr::new(2);
    for config in [protocol.all_same_rank_configuration(), protocol.worst_case_configuration()] {
        let exact =
            expected_silence_time_exact(protocol, &config, &MCheckOptions::default()).unwrap();
        assert!((exact.expected_interactions - 1.0).abs() < 1e-12);
        assert!((exact.expected_parallel - 0.5).abs() < 1e-12);
    }
}

#[test]
fn optimal_silent_self_stabilization_is_proved_exhaustively_at_n3() {
    let protocol = OptimalSilentSsr::new(OptimalSilentParams::mcheck(3));
    let report = check_self_stabilization(protocol, &MCheckOptions::default()).unwrap();
    assert!(
        report.verified(),
        "n = 3: silent∧¬correct {}, correct∧¬silent {}, non-convergent {} of {} (witness {:?})",
        report.silent_incorrect,
        report.correct_nonsilent,
        report.non_convergent,
        report.configurations,
        report.non_convergent_witness,
    );
    // Silent ⟺ correct was checked; silent multisets are the complete
    // rankings (one per combination of child counts consistent with every
    // rank present once — ranks alone decide nullness).
    assert!(report.silent >= 1);
    assert_eq!(report.silent, report.correct);
}

#[test]
fn optimal_silent_exact_time_matches_the_exact_engine() {
    let protocol = OptimalSilentSsr::new(OptimalSilentParams::mcheck(3));
    let config = protocol.adversarial_all_same_rank(2);
    let exact = expected_silence_time_exact(protocol, &config, &MCheckOptions::default()).unwrap();
    let samples = exact_engine_silence_times(protocol, &config);
    assert_mean_matches_exact(&samples, exact.expected_interactions, "optimal-silent all-rank-2");
    // The count engine runs this dense protocol on present-set rows.
    let samples = count_engine_silence_times(protocol, &config, Engine::Batched);
    assert_mean_matches_exact(
        &samples,
        exact.expected_interactions,
        "optimal-silent all-rank-2 on the batched engine",
    );
}

/// The seeded Optimal-Silent closure (the repo benchmark's closure check,
/// there at n = 6: 117,570 states, 17 silent) is pinned state for state:
/// interning must neither merge distinct orbits nor split one.
#[test]
fn optimal_silent_seeded_closure_is_pinned_at_n5() {
    let protocol = OptimalSilentSsr::new(OptimalSilentParams::mcheck(5));
    let seeds = [
        protocol.adversarial_all_same_rank(2),
        protocol.all_unsettled_configuration(),
        protocol.ranked_configuration(),
    ];
    let report = check_convergence_from(protocol, &seeds, &MCheckOptions::default()).unwrap();
    assert_eq!(report.states, 14_551);
    assert_eq!(report.silent, 8);
    assert!(report.verified(), "witness {:?}", report.witness);
}

/// Expected parallel silence times of Optimal-Silent-SSR under the mcheck
/// timers, from subtraction-free (GTH) state elimination of the closure:
/// `(n, scenario, E[T])`.
const OPTIMAL_SILENT_PINS: [(usize, &str, f64); 5] = [
    (5, "all-unsettled", 694.801034909644),
    (4, "all-leader", 79.795859860384),
    (4, "zero-leader", 79.905926359503),
    (4, "all-unsettled", 78.709395533109),
    (4, "near-silent-wrong", 80.680151861078),
];

/// Optimal-Silent's closures hold giant strongly connected components, the
/// solve's hard case: the default options must reach the eliminated values
/// to 1e-9 relative.
#[test]
fn optimal_silent_n4_and_n5_exact_times_are_pinned() {
    for (n, name, pinned) in OPTIMAL_SILENT_PINS {
        let protocol = OptimalSilentSsr::new(OptimalSilentParams::mcheck(n));
        let scenario = OptimalSilentSsr::adversarial_scenarios()
            .into_iter()
            .find(|s| s.name() == name)
            .expect("known scenario");
        let config = scenario.configuration(&protocol, 0);
        let exact = expected_silence_time_exact(protocol, &config, &MCheckOptions::default())
            .unwrap_or_else(|e| panic!("n = {n} {name}: {e}"));
        assert!(
            (exact.expected_parallel - pinned).abs() <= 1e-9 * pinned,
            "n = {n} {name}: {} vs pinned {pinned}",
            exact.expected_parallel
        );
        assert!(exact.residual <= MCheckOptions::default().tolerance);
    }
}

#[test]
fn a_one_pass_budget_is_not_enough_at_n4() {
    let protocol = OptimalSilentSsr::new(OptimalSilentParams::mcheck(4));
    let options = MCheckOptions { max_sweeps: 1, ..MCheckOptions::default() };
    let err =
        expected_silence_time_exact(protocol, &protocol.all_unsettled_configuration(), &options)
            .unwrap_err();
    assert!(matches!(err, MCheckError::NotConverged { .. }), "got {err:?}");
}

/// 200 count-engine silence times (in interactions) from one configuration.
/// Under [`Engine::BatchedCounts`] the epoch clock (negative-binomial elapsed
/// draws) must reproduce the absorbing chain's expected interaction counts,
/// not just the per-transition engines' — this is the distribution-level
/// acceptance test for the `BatchCount` clock.
fn count_engine_silence_times<P>(
    protocol: P,
    config: &Configuration<P::State>,
    engine: Engine,
) -> Vec<f64>
where
    P: ppsim::EnumerableProtocol + Clone + Send + Sync,
    P::State: Clone + Send + Sync,
{
    let plan = TrialPlan::new(200, 0xBC5EED);
    run_trials(&plan, |_, seed| {
        let report = RunSpec::new(protocol.clone())
            .engine(engine)
            .budget(u64::MAX >> 8)
            .init(config.clone())
            .seed(seed)
            .run_one()
            .unwrap();
        assert!(report.outcome.is_silent());
        report.outcome.interactions.count() as f64
    })
}

/// The exact expected silence time lies inside the widened CI of 200
/// batch-count trials, for every enumerable scenario family of
/// `Silent-n-state-SSR` at n ∈ {2, 3, 4}. At these sizes the collision-free
/// batch bound clamps `B` to 1 almost everywhere, so this primarily pins
/// the epoch clock's fallback agreement; the large-`B` regime is covered by
/// the engine-vs-engine suites at n ≥ 32 and the bench equivalence run.
#[test]
fn silent_n_state_batchcount_times_match_the_exact_expectation() {
    for n in 2usize..=4 {
        for scenario in SilentNStateSsr::adversarial_scenarios() {
            if n < 3 && scenario.name() == "near-silent-wrong" {
                continue; // family needs n ≥ 3
            }
            let protocol = SilentNStateSsr::new(n);
            let config = scenario.configuration(&protocol, 0x2217);
            let exact =
                expected_silence_time_exact(protocol, &config, &MCheckOptions::default()).unwrap();
            let samples = count_engine_silence_times(protocol, &config, Engine::BatchedCounts);
            assert_mean_matches_exact(
                &samples,
                exact.expected_interactions,
                &format!("batchcount silent-n-state {} n={n}", scenario.name()),
            );
        }
    }
}

#[test]
fn silent_n_state_fault_closure_holds_exhaustively() {
    // Exhaustive version of the fault-recovery claim: every burst the plan
    // can fire, on every configuration reachable from the ranked start,
    // lands inside the verified-convergent set (= the whole lattice).
    let n = 5;
    let protocol = SilentNStateSsr::new(n);
    for plan in protocol.adversarial_fault_plans() {
        let report = check_fault_plan_closure(
            protocol,
            &plan,
            &[protocol.ranked_configuration(), protocol.worst_case_configuration()],
            &MCheckOptions::default(),
        )
        .unwrap();
        assert!(report.verified(), "{}: {} violations", plan.name(), report.violations);
        assert!(report.perturbations > 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The exact expected silence time lies inside the (1.5×-widened) 95%
    /// CI of 200 exact-engine trials, for every enumerable scenario family
    /// of `Silent-n-state-SSR` at n ∈ {2, 3, 4}.
    #[test]
    fn silent_n_state_scenario_times_match_the_exact_engine(seed in 0u64..1_000, n in 2usize..=4) {
        for scenario in SilentNStateSsr::adversarial_scenarios() {
            if n < 3 && scenario.name() == "near-silent-wrong" {
                continue; // family needs n ≥ 3
            }
            let protocol = SilentNStateSsr::new(n);
            let config = scenario.configuration(&protocol, seed);
            let exact =
                expected_silence_time_exact(protocol, &config, &MCheckOptions::default()).unwrap();
            let samples = exact_engine_silence_times(protocol, &config);
            assert_mean_matches_exact(
                &samples,
                exact.expected_interactions,
                &format!("silent-n-state {} n={n} seed={seed}", scenario.name()),
            );
        }
    }

    /// Same agreement for every scenario family of `Optimal-Silent-SSR`
    /// under the mcheck timers at n ∈ {2, 3}.
    #[test]
    fn optimal_silent_scenario_times_match_the_exact_engine(seed in 0u64..1_000, n in 2usize..=3) {
        for scenario in OptimalSilentSsr::adversarial_scenarios() {
            if n < 3 && scenario.name() == "near-silent-wrong" {
                continue; // family needs n ≥ 3
            }
            let protocol = OptimalSilentSsr::new(OptimalSilentParams::mcheck(n));
            let config = scenario.configuration(&protocol, seed);
            let exact =
                expected_silence_time_exact(protocol, &config, &MCheckOptions::default()).unwrap();
            let samples = exact_engine_silence_times(protocol, &config);
            assert_mean_matches_exact(
                &samples,
                exact.expected_interactions,
                &format!("optimal-silent {} n={n} seed={seed}", scenario.name()),
            );
        }
    }
}

/// The symmetry quotient is an exact lumping: the quotient proof must reach
/// the same verdict as the dense proof while covering the same full lattice
/// with strictly fewer working states (orbit representatives).
#[test]
fn quotient_proof_agrees_with_the_dense_proof() {
    for n in 2..=4usize {
        let dense =
            check_self_stabilization(SilentNStateSsr::new(n), &MCheckOptions::default()).unwrap();
        let quot =
            check_self_stabilization_quotient(SilentNStateSsr::new(n), &MCheckOptions::default())
                .unwrap();
        assert!(dense.verified() && quot.verified(), "n = {n}");
        assert_eq!(quot.configurations, ppsim::mcheck::lattice_size(n, n).unwrap());
        assert_eq!(quot.configurations, dense.configurations as u128);
        assert_eq!(quot.group_order, n as u128, "CyclicRotation on n ranks");
        assert!(quot.orbits <= dense.configurations, "the quotient never grows the space");
        // Orbits have size at most |G|, so they cannot undercount either.
        assert!(quot.orbits as u128 * quot.group_order >= quot.configurations);
        // The unique silent multiset (every rank once) is rotation-fixed:
        // one silent orbit, and it is the one correct orbit.
        assert_eq!(quot.silent, 1);
        assert_eq!(quot.correct, 1);
    }

    // Optimal-Silent-SSR declares a product-of-swaps group (SymmetricBlocks)
    // rather than a rotation; the agreement must hold there too.
    let dense = check_self_stabilization(
        OptimalSilentSsr::new(OptimalSilentParams::mcheck(3)),
        &MCheckOptions::default(),
    )
    .unwrap();
    let quot = check_self_stabilization_quotient(
        OptimalSilentSsr::new(OptimalSilentParams::mcheck(3)),
        &MCheckOptions::default(),
    )
    .unwrap();
    assert!(dense.verified() && quot.verified());
    assert_eq!(quot.configurations, dense.configurations as u128);
    assert!(quot.orbits < dense.configurations, "a nontrivial group must shrink the space");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Quotient-vs-dense equivalence of the absorbing-chain solve: from any
    /// adversarially seeded configuration at n ∈ {2, 3, 4}, the expected
    /// silence time computed on the symmetry quotient matches the dense
    /// (unquotiented) solve to solver precision, the quotient flag is
    /// reported truthfully on both sides, and the quotient never enlarges
    /// the working set.
    #[test]
    fn quotient_expected_times_match_the_dense_solve(
        n in 2usize..=4,
        seed in any::<u64>(),
    ) {
        let dense_options = MCheckOptions { use_symmetry: false, ..MCheckOptions::default() };
        for scenario in SilentNStateSsr::adversarial_scenarios() {
            if n < 3 && scenario.name() == "near-silent-wrong" {
                continue; // family needs n ≥ 3
            }
            let protocol = SilentNStateSsr::new(n);
            let config = scenario.configuration(&protocol, seed);
            let dense = expected_silence_time_exact(protocol, &config, &dense_options).unwrap();
            let quot =
                expected_silence_time_exact(protocol, &config, &MCheckOptions::default()).unwrap();
            prop_assert!(!dense.quotient);
            prop_assert!(quot.quotient, "CyclicRotation must engage the quotient");
            prop_assert!(quot.states <= dense.states);
            let rel = (dense.expected_interactions - quot.expected_interactions).abs()
                / dense.expected_interactions.max(1.0);
            prop_assert!(
                rel <= 1e-9,
                "{} n={n}: dense {} vs quotient {}",
                scenario.name(),
                dense.expected_interactions,
                quot.expected_interactions
            );
        }
    }

    /// The same dense-vs-quotient agreement under the SymmetricBlocks group
    /// of Optimal-Silent-SSR with the tiny mcheck timers.
    #[test]
    fn optimal_silent_quotient_times_match_the_dense_solve(
        n in 2usize..=3,
        seed in any::<u64>(),
    ) {
        let dense_options = MCheckOptions { use_symmetry: false, ..MCheckOptions::default() };
        let protocol = OptimalSilentSsr::new(OptimalSilentParams::mcheck(n));
        let config = protocol.adversarial_all_same_rank(1 + (seed % n as u64) as u32);
        let dense = expected_silence_time_exact(protocol, &config, &dense_options).unwrap();
        let quot =
            expected_silence_time_exact(protocol, &config, &MCheckOptions::default()).unwrap();
        prop_assert!(!dense.quotient);
        prop_assert!(quot.quotient);
        prop_assert!(quot.states <= dense.states);
        let rel = (dense.expected_interactions - quot.expected_interactions).abs()
            / dense.expected_interactions.max(1.0);
        prop_assert!(
            rel <= 1e-9,
            "n={n}: dense {} vs quotient {}",
            dense.expected_interactions,
            quot.expected_interactions
        );
    }
}
