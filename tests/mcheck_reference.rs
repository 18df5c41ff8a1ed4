//! An independent oracle for the model checker's expected-silence-time
//! solve: subtraction-free state elimination (Grassmann, Taksar & Heyman,
//! Oper. Res. 33, 1985) on the raw count-vector chain, built here from the
//! public protocol API alone — no symmetry quotient, no `is_null`, no
//! checker internals — and compared with `expected_silence_time_exact` on
//! every closure small enough to eliminate densely.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use ppsim::mcheck::{expected_silence_time_exact, MCheckOptions};
use ppsim::{Configuration, EnumerableProtocol, Protocol};
use processes::{Epidemic, Fratricide};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use ssle::{OptimalSilentParams, OptimalSilentSsr, SilentNStateSsr};

/// Expected interactions until no interaction can change the count vector,
/// from `init`, by GTH elimination. Every state but the start is eliminated;
/// a self-loop created by an elimination is removed by dividing by the
/// remaining out-mass, summed rather than computed as `1 − p(i, i)`.
fn reference_expected_interactions<P: EnumerableProtocol>(
    protocol: &P,
    init: &Configuration<P::State>,
) -> f64 {
    let k = protocol.num_states();
    let n = init.len() as f64;
    let mut start = vec![0u32; k];
    for s in init.iter() {
        start[protocol.state_index(s)] += 1;
    }
    // Breadth-first closure: per state, the one-interaction probability of
    // moving to each other count vector.
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let mut ids: HashMap<Vec<u32>, usize> = HashMap::from([(start.clone(), 0)]);
    let mut states = vec![start];
    let mut moves: Vec<BTreeMap<usize, f64>> = Vec::new();
    let mut queue = VecDeque::from([0usize]);
    while let Some(id) = queue.pop_front() {
        let c = states[id].clone();
        let mut row = BTreeMap::new();
        for i in 0..k {
            for j in 0..k {
                let w = c[i] as f64 * (c[j] as f64 - f64::from(i == j));
                if w <= 0.0 {
                    continue;
                }
                let a = protocol.state_from_index(i);
                let b = protocol.state_from_index(j);
                let (a2, b2) = protocol.transition(&a, &b, &mut rng);
                let mut next = c.clone();
                next[i] -= 1;
                next[j] -= 1;
                next[protocol.state_index(&a2)] += 1;
                next[protocol.state_index(&b2)] += 1;
                if next == c {
                    continue;
                }
                let fresh = states.len();
                let t = *ids.entry(next.clone()).or_insert(fresh);
                if t == fresh {
                    states.push(next);
                    queue.push_back(t);
                }
                *row.entry(t).or_insert(0.0) += w / (n * (n - 1.0));
            }
        }
        debug_assert_eq!(id, moves.len(), "ids are handed out in BFS order");
        moves.push(row);
    }
    let absorbing: Vec<bool> = moves.iter().map(BTreeMap::is_empty).collect();
    if absorbing[0] {
        return 0.0;
    }
    // Normalize away the stay-put mass: tau is the expected interactions per
    // move, exit the probability of moving into an absorbing state.
    let len = states.len();
    let mut tau = vec![0.0f64; len];
    let mut exit = vec![0.0f64; len];
    let mut rows: Vec<BTreeMap<usize, f64>> = vec![BTreeMap::new(); len];
    let mut preds: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); len];
    for s in (0..len).filter(|&s| !absorbing[s]) {
        let out: f64 = moves[s].values().sum();
        tau[s] = 1.0 / out;
        for (&t, &p) in &moves[s] {
            if absorbing[t] {
                exit[s] += p / out;
            } else {
                rows[s].insert(t, p / out);
                preds[t].insert(s);
            }
        }
    }
    for k in (1..len).rev().filter(|&k| !absorbing[k]) {
        let row_k = std::mem::take(&mut rows[k]);
        for &i in &std::mem::take(&mut preds[k]) {
            let p_ik = rows[i].remove(&k).expect("predecessor edge");
            tau[i] += p_ik * tau[k];
            exit[i] += p_ik * exit[k];
            let mut stay = 0.0;
            for (&j, &p_kj) in &row_k {
                if j == i {
                    stay += p_ik * p_kj;
                } else {
                    *rows[i].entry(j).or_insert(0.0) += p_ik * p_kj;
                    preds[j].insert(i);
                }
            }
            if stay > 0.0 {
                let out = rows[i].values().sum::<f64>() + exit[i];
                rows[i].values_mut().for_each(|p| *p /= out);
                exit[i] /= out;
                tau[i] /= out;
            }
        }
        for &j in row_k.keys() {
            preds[j].remove(&k);
        }
    }
    debug_assert!(rows[0].is_empty(), "only the start is left");
    tau[0] / exit[0]
}

/// `expected_silence_time_exact` agrees with the eliminated value to 1e-10
/// relative; returns the solve's edge passes.
fn assert_matches_reference<P: EnumerableProtocol + Clone>(
    protocol: P,
    init: &Configuration<P::State>,
    context: &str,
) -> usize {
    let exact = expected_silence_time_exact(protocol.clone(), init, &MCheckOptions::default())
        .unwrap_or_else(|e| panic!("{context}: {e}"));
    let reference = reference_expected_interactions(&protocol, init);
    assert!(
        (exact.expected_interactions - reference).abs() <= 1e-10 * reference.max(1.0),
        "{context}: solve {} vs elimination {reference}",
        exact.expected_interactions
    );
    exact.sweeps
}

#[test]
fn the_solve_matches_elimination_on_every_scenario_closure() {
    for seed in 0..4u64 {
        for n in 2usize..=4 {
            for scenario in SilentNStateSsr::adversarial_scenarios() {
                if n < 3 && scenario.name() == "near-silent-wrong" {
                    continue; // family needs n ≥ 3
                }
                let protocol = SilentNStateSsr::new(n);
                let config = scenario.configuration(&protocol, seed);
                let context = format!("silent-n-state {} n={n} seed={seed}", scenario.name());
                assert_matches_reference(protocol, &config, &context);
            }
        }
        for n in 2usize..=3 {
            for scenario in OptimalSilentSsr::adversarial_scenarios() {
                if n < 3 && scenario.name() == "near-silent-wrong" {
                    continue; // family needs n ≥ 3
                }
                let protocol = OptimalSilentSsr::new(OptimalSilentParams::mcheck(n));
                let config = scenario.configuration(&protocol, seed);
                let context = format!("optimal-silent {} n={n} seed={seed}", scenario.name());
                assert_matches_reference(protocol, &config, &context);
            }
        }
    }
}

/// On a cycle-free chain the Gauss–Seidel preconditioner is the exact
/// inverse, so the solve ends after one half-step: a residual pass, one
/// preconditioner pass, one product and the closing residual.
#[test]
fn cycle_free_chains_match_elimination_within_eight_passes() {
    for n in [2usize, 3, 5, 8, 12] {
        let protocol = SilentNStateSsr::new(n);
        let config = protocol.worst_case_configuration();
        let sweeps = assert_matches_reference(protocol, &config, &format!("theorem 2.4 n={n}"));
        assert!(sweeps <= 8, "theorem 2.4 n={n}: {sweeps} passes");
    }
    for n in [2usize, 3, 5, 16, 64] {
        let protocol = Fratricide::new(n);
        let config = protocol.all_leaders_configuration();
        let sweeps = assert_matches_reference(protocol, &config, &format!("fratricide n={n}"));
        assert!(sweeps <= 8, "fratricide n={n}: {sweeps} passes");

        let protocol = Epidemic::new(n);
        let config = protocol.single_source_configuration();
        let sweeps = assert_matches_reference(protocol, &config, &format!("epidemic n={n}"));
        assert!(sweeps <= 8, "epidemic n={n}: {sweeps} passes");
    }
}

/// Fratricide (state 0 is a leader) whose followers come in two kinds that
/// swap on one ordering, `(1, 2) → (2, 1)`: a non-null interaction that
/// leaves the count vector unchanged, so the closure carries self-loops. The
/// other ordering, `(2, 1) → (1, 1)`, merges the kinds; silence is at most
/// one leader and one kind of follower.
#[derive(Clone, Copy)]
struct SwappingFratricide {
    n: usize,
}

impl Protocol for SwappingFratricide {
    type State = u8;
    fn population_size(&self) -> usize {
        self.n
    }
    fn transition(&self, a: &u8, b: &u8, _rng: &mut dyn RngCore) -> (u8, u8) {
        match (*a, *b) {
            (0, 0) => (0, 1),
            (1, 2) => (2, 1),
            (2, 1) => (1, 1),
            pair => pair,
        }
    }
    fn is_null(&self, a: &u8, b: &u8) -> bool {
        !matches!((*a, *b), (0, 0) | (1, 2) | (2, 1))
    }
}

impl EnumerableProtocol for SwappingFratricide {
    fn num_states(&self) -> usize {
        3
    }
    fn state_index(&self, s: &u8) -> usize {
        *s as usize
    }
    fn state_from_index(&self, i: usize) -> u8 {
        i as u8
    }
}

#[test]
fn self_loops_are_folded_out_exactly() {
    for n in 2usize..=6 {
        let protocol = SwappingFratricide { n };
        for start in [[0u8, 2, 1], [2, 2, 1], [0, 0, 2]] {
            let config = Configuration::from_fn(n, |i| start[i % 3]);
            let context = format!("swapping fratricide n={n} from {start:?}");
            assert_matches_reference(protocol, &config, &context);
        }
    }
}
