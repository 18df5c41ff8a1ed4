//! `simulate`: closed batches of seeded to-silence trials on six engine
//! routes, each batch run through `RunSpec` with the trial pool on two
//! threads.
//!
//! A round runs every route once; a run repeats whole rounds while another
//! round is expected to end within the measuring time, so every run sees the
//! same mix of routes.

use std::sync::Arc;
use std::time::Instant;

use ppsim::runspec::DEFAULT_BUDGET;
use ppsim::sampling::{sample_binomial, sample_hypergeometric, sample_negative_binomial};
use ppsim::telemetry::{Counter, CounterBlock};
use ppsim::{
    run_trials, BatchedSimulation, Configuration, Engine, EnumerableProtocol, InternableProtocol,
    InternedSimulation, Protocol, RunOutcome, RunSpec, Scenario, ScenarioRng, Simulation,
    TrialPlan,
};
use processes::Epidemic;
use rand::{RngCore, SeedableRng};
use ssle::{
    OptimalSilentParams, OptimalSilentSsr, SilentNStateSsr, SublinearParams, SublinearTimeSsr,
};

use crate::common::{
    another_round, median_timed, mix, ratio, Fingerprint, Metrics, Profile, RunResult,
};
use crate::trace::{self, SpanId, Tracer};

/// Trial-pool threads (the machine's core count).
pub const THREADS: usize = 2;

/// Interaction budget of a Sublinear-Time-SSR trial (a trial that does not
/// reach a correct ranking within it fails).
const INTERNED_BUDGET: u64 = 1 << 40;

/// Population of the PresentScan route.
const OPT_BATCHED_N: usize = 200;

/// Population of the batch-count epidemic route.
const EPIDEMIC_N: usize = 100_000_000;

/// What one trial left behind.
#[derive(Clone, Debug)]
pub struct Trial {
    pub interactions: u64,
    pub counters: CounterBlock,
    pub ok: bool,
}

/// A start-configuration generator: `(protocol, slot, seed)`, where `slot`
/// numbers the route's trials across rounds.
type Init<P> = Arc<dyn Fn(&P, usize, u64) -> Configuration<<P as Protocol>::State> + Send + Sync>;
type Check<P> = fn(&P, &Configuration<<P as Protocol>::State>) -> bool;

/// One engine route: a protocol at a fixed size on one engine.
pub trait Route: Sync {
    fn name(&self) -> &'static str;
    /// Trials per round (one closed batch).
    fn trials(&self) -> usize;
    /// One closed batch through `RunSpec` and its trial pool.
    fn batch(&self, round: usize, base_seed: u64) -> Vec<Trial>;
    /// One trial driven directly through the layers, with spans; the final
    /// check is returned for the caller to run outside the pool.
    fn direct(
        &self,
        round: usize,
        trial: usize,
        seed: u64,
        tr: &Tracer,
        op: u64,
        parent: Option<SpanId>,
    ) -> Box<dyn FnOnce() -> Trial + Send>;
    /// `RunSpec::run_one` on one trial's seed, untraced (`None` for a
    /// route that does not run through `RunSpec`).
    fn runspec_one(&self, round: usize, trial: usize, seed: u64) -> Option<Trial>;
    /// The same trial driven directly, untraced.
    fn direct_one(&self, round: usize, trial: usize, seed: u64) -> Trial {
        (self.direct(round, trial, seed, &Tracer::new(false), 0, None))()
    }
}

struct EnumRoute<P: EnumerableProtocol> {
    name: &'static str,
    protocol: P,
    engine: Engine,
    trials: usize,
    run_layer: &'static str,
    init: Init<P>,
    check: Check<P>,
}

struct InternRoute<P: InternableProtocol> {
    name: &'static str,
    protocol: P,
    trials: usize,
    init: Init<P>,
    /// The final check, also the run's goal (the protocol is not silent).
    check: Check<P>,
}

fn trial_of(
    interactions: u64,
    silent: bool,
    counters: CounterBlock,
    ok: impl FnOnce() -> bool,
) -> Trial {
    Trial { interactions, counters, ok: silent && ok() }
}

/// The body shared by both route kinds: generate the start, build the
/// engine, run it to its goal, materialize the final configuration. The
/// final check is returned as a closure for the caller to run.
macro_rules! drive_direct {
    ($self:ident, $round:ident, $trial:ident, $seed:ident, $tr:ident, $op:ident, $parent:ident, $new:expr, $run:expr, $layer:expr, $materialize:expr) => {{
        let slot = $round * $self.trials + $trial;
        let protocol = $self.protocol.clone();
        let (out, counters, fin) = $tr.span("simulate.trial", $op, $parent, || {
            let config =
                $tr.span("config.build", $op, None, || ($self.init)(&protocol, slot, $seed));
            let mut sim =
                $tr.span("engine.new", $op, None, || ($new)(protocol.clone(), config, $seed));
            let out: RunOutcome = $tr.span($layer, $op, None, || ($run)(&mut sim, &protocol));
            let fin = $tr.span("engine.materialize", $op, None, || ($materialize)(&sim));
            (out, sim.counters(), fin)
        });
        let check = $self.check;
        Box::new(move || {
            let reached = out.is_silent() || out.condition_met();
            trial_of(out.interactions.count(), reached, counters, || check(&protocol, &fin))
        })
    }};
}

impl<P> Route for EnumRoute<P>
where
    P: EnumerableProtocol + Clone + Send + Sync + 'static,
    P::State: Send + Sync,
{
    fn name(&self) -> &'static str {
        self.name
    }

    fn trials(&self) -> usize {
        self.trials
    }

    fn batch(&self, round: usize, base_seed: u64) -> Vec<Trial> {
        let (init, protocol, slot0) =
            (Arc::clone(&self.init), self.protocol.clone(), round * self.trials);
        let reports = RunSpec::new(self.protocol.clone())
            .engine(self.engine)
            .init_with(move |trial, seed| init(&protocol, slot0 + trial, seed))
            .trials(self.trials)
            .seed(base_seed)
            .threads(THREADS)
            .run()
            .expect("route spec is valid");
        reports
            .iter()
            .map(|r| {
                let ok = || (self.check)(&self.protocol, &r.final_config);
                trial_of(r.outcome.interactions.count(), r.outcome.is_silent(), r.counters, ok)
            })
            .collect()
    }

    fn direct(
        &self,
        round: usize,
        trial: usize,
        seed: u64,
        tr: &Tracer,
        op: u64,
        parent: Option<SpanId>,
    ) -> Box<dyn FnOnce() -> Trial + Send> {
        match self.engine {
            Engine::Exact => drive_direct!(
                self,
                round,
                trial,
                seed,
                tr,
                op,
                parent,
                |p, c, s| Simulation::new(p, c, s),
                |sim: &mut Simulation<P>, _: &P| sim.run_until_silent(DEFAULT_BUDGET),
                self.run_layer,
                |sim: &Simulation<P>| sim.configuration().clone()
            ),
            engine => drive_direct!(
                self,
                round,
                trial,
                seed,
                tr,
                op,
                parent,
                |p, c: Configuration<P::State>, s| BatchedSimulation::new(p, &c, s)
                    .with_sampling_mode(engine.sampling_mode()),
                |sim: &mut BatchedSimulation<P>, _: &P| sim.run_until_silent(DEFAULT_BUDGET),
                self.run_layer,
                |sim: &BatchedSimulation<P>| sim.to_configuration()
            ),
        }
    }

    fn runspec_one(&self, round: usize, trial: usize, seed: u64) -> Option<Trial> {
        let (init, protocol, slot) =
            (Arc::clone(&self.init), self.protocol.clone(), round * self.trials + trial);
        let r = RunSpec::new(self.protocol.clone())
            .engine(self.engine)
            .init_with(move |_, seed| init(&protocol, slot, seed))
            .seed(seed)
            .run_one()
            .expect("route spec is valid");
        let ok = || (self.check)(&self.protocol, &r.final_config);
        Some(trial_of(r.outcome.interactions.count(), r.outcome.is_silent(), r.counters, ok))
    }
}

impl<P> Route for InternRoute<P>
where
    P: InternableProtocol + Clone + Send + Sync + 'static,
    P::State: Send + Sync,
{
    fn name(&self) -> &'static str {
        self.name
    }

    fn trials(&self) -> usize {
        self.trials
    }

    /// A closed batch on the same trial pool. `RunSpec` runs to silence,
    /// which this non-silent protocol never reaches, so trials run until
    /// the configuration is correctly ranked (as `Engine::run_until_interned`
    /// does), driven here directly so the counters are kept.
    fn batch(&self, round: usize, base_seed: u64) -> Vec<Trial> {
        let plan = TrialPlan::new(self.trials, base_seed).with_threads(THREADS);
        let off = Tracer::new(false);
        let checks =
            run_trials(&plan, |trial, seed| self.direct(round, trial, seed, &off, 0, None));
        checks.into_iter().map(|check| check()).collect()
    }

    fn direct(
        &self,
        round: usize,
        trial: usize,
        seed: u64,
        tr: &Tracer,
        op: u64,
        parent: Option<SpanId>,
    ) -> Box<dyn FnOnce() -> Trial + Send> {
        drive_direct!(
            self,
            round,
            trial,
            seed,
            tr,
            op,
            parent,
            |p, c: Configuration<P::State>, s| InternedSimulation::new(p, &c, s),
            |sim: &mut InternedSimulation<P>, p: &P| {
                let goal = self.check;
                sim.run_until(|c| goal(p, c), INTERNED_BUDGET)
            },
            "interned.run",
            |sim: &InternedSimulation<P>| sim.to_configuration()
        )
    }

    fn runspec_one(&self, _: usize, _: usize, _: u64) -> Option<Trial> {
        None
    }
}

/// An RNG stream for a trial's random start, independent of the engine's.
fn start_rng(seed: u64) -> ScenarioRng {
    ScenarioRng::seed_from_u64(mix(seed, 0x0053_5441_5254))
}

/// The six routes with their per-round trial counts. Building them is the
/// workload's set-up: protocol parameters, scenario lists, generators.
pub fn routes() -> Vec<Box<dyn Route>> {
    let sublinear_scenarios: Arc<Vec<Scenario<SublinearTimeSsr>>> =
        Arc::new(SublinearTimeSsr::adversarial_scenarios());
    vec![
        Box::new(EnumRoute {
            name: "ssr-batched",
            protocol: SilentNStateSsr::new(30_000),
            engine: Engine::Batched,
            trials: 2,
            run_layer: "batched.indexed.run",
            init: Arc::new(|p: &SilentNStateSsr, _, seed| {
                p.random_configuration(&mut start_rng(seed))
            }),
            check: |p, c| ppsim::CorrectnessOracle::is_correct(p, c),
        }),
        Box::new(EnumRoute {
            name: "ssr-exact",
            protocol: SilentNStateSsr::new(300),
            engine: Engine::Exact,
            trials: 4,
            run_layer: "execution.run",
            init: Arc::new(|p: &SilentNStateSsr, _, seed| {
                p.random_configuration(&mut start_rng(seed))
            }),
            check: |p, c| ppsim::CorrectnessOracle::is_correct(p, c),
        }),
        Box::new(EnumRoute {
            name: "opt-batched",
            protocol: OptimalSilentSsr::new(OptimalSilentParams::recommended(OPT_BATCHED_N)),
            engine: Engine::Batched,
            trials: 2,
            run_layer: "batched.present_scan.run",
            init: Arc::new(|p: &OptimalSilentSsr, _, seed| {
                p.random_configuration(&mut start_rng(seed))
            }),
            check: |p, c| p.is_correct(c),
        }),
        Box::new(EnumRoute {
            name: "opt-exact",
            protocol: OptimalSilentSsr::new(OptimalSilentParams::recommended(1000)),
            engine: Engine::Exact,
            trials: 6,
            run_layer: "execution.run",
            init: Arc::new(|p: &OptimalSilentSsr, _, seed| {
                p.random_configuration(&mut start_rng(seed))
            }),
            check: |p, c| p.is_correct(c),
        }),
        Box::new(EnumRoute {
            name: "epidemic-batchcount",
            protocol: Epidemic::new(EPIDEMIC_N),
            engine: Engine::BatchedCounts,
            trials: 2,
            run_layer: "batched.batchcount.run",
            init: Arc::new(|p: &Epidemic, _, _| p.single_source_configuration()),
            check: |_, c| Epidemic::is_complete(c),
        }),
        Box::new(InternRoute {
            name: "sublinear-interned",
            protocol: SublinearTimeSsr::new(SublinearParams::recommended(128, 1)),
            trials: 2,
            init: Arc::new(move |p: &SublinearTimeSsr, slot, seed| {
                sublinear_scenarios[slot % sublinear_scenarios.len()].configuration(p, seed)
            }),
            check: |p, c| p.is_correct(c),
        }),
    ]
}

/// Base seed of one route's batch in one round.
fn batch_seed(seed: u64, round: usize, route: usize) -> u64 {
    mix(seed, (round as u64) << 8 | route as u64)
}

fn fingerprint_trials(fp: &mut Fingerprint, route: &str, trials: &[Trial]) {
    for t in trials {
        fp.add(format!("{route}.interactions"), t.interactions);
        fp.add(format!("{route}.transitions"), t.counters.get(Counter::Transitions));
        fp.add(format!("{route}.epochs"), t.counters.get(Counter::EpochsOpened));
    }
}

/// One end-to-end run: the set-up, then whole rounds of route batches;
/// the metrics come from the batches' wall time.
pub fn run(seed: u64, seconds: f64, setup_reps: usize) -> RunResult {
    let (setup_s, routes) = median_timed(setup_reps, routes);
    let mut res = RunResult::default();
    let mut route_s = vec![0.0f64; routes.len()];
    let mut route_trials = vec![0usize; routes.len()];
    let started = Instant::now();
    let mut round = 0;
    while another_round(round, started.elapsed().as_secs_f64(), seconds) {
        for (i, route) in routes.iter().enumerate() {
            let t0 = Instant::now();
            let trials = route.batch(round, batch_seed(seed, round, i));
            let dt = t0.elapsed().as_secs_f64();
            route_s[i] += dt;
            route_trials[i] += trials.len();
            for (k, t) in trials.iter().enumerate() {
                res.attempted += 1;
                if !t.ok {
                    res.fail(format!(
                        "{} round {round} trial {k}: not silent and correct",
                        route.name()
                    ));
                }
            }
            if round == 0 {
                fingerprint_trials(&mut res.fingerprint, route.name(), &trials);
            }
        }
        round += 1;
    }
    let wall: f64 = route_s.iter().sum();
    let m = &mut res.metrics;
    m.put("setup_s", setup_s, "s");
    m.put_n("ops_per_s", res.attempted as f64 / wall, "1/s", res.attempted as usize);
    for (i, route) in routes.iter().enumerate() {
        m.put_n(
            format!("{}.s_per_trial", route.name()),
            route_s[i] / route_trials[i] as f64,
            "s",
            route_trials[i],
        );
    }
    res
}

/// The traced profile of one round: the round untraced through `RunSpec`,
/// the same trials driven directly through each layer with spans, then the
/// isolated layer probes (RunSpec overhead, samplers).
pub fn profile(seed: u64, tr: &Tracer, layers: &mut Metrics) -> Profile {
    let routes = routes();
    let mut problems = Vec::new();
    let mut untraced = Fingerprint::default();
    let t0 = Instant::now();
    for (i, route) in routes.iter().enumerate() {
        let trials = route.batch(0, batch_seed(seed, 0, i));
        fingerprint_trials(&mut untraced, route.name(), &trials);
    }
    let untraced_s = t0.elapsed().as_secs_f64();

    let mut traced = Fingerprint::default();
    let mut per_route: Vec<Vec<Trial>> = Vec::new();
    let mut batch_wall = 0.0;
    let t0 = Instant::now();
    tr.span("simulate.round", 0, None, || {
        for (i, route) in routes.iter().enumerate() {
            let plan = TrialPlan::new(route.trials(), batch_seed(seed, 0, i)).with_threads(THREADS);
            let b0 = Instant::now();
            let checks =
                tr.span(&format!("simulate.batch.{}", route.name()), i as u64, None, || {
                    let parent = tr.current();
                    run_trials(&plan, |trial, s| {
                        route.direct(0, trial, s, tr, ((i as u64) << 32) | trial as u64, parent)
                    })
                });
            batch_wall += b0.elapsed().as_secs_f64();
            let trials: Vec<Trial> = tr
                .span("trial.check", i as u64, None, || checks.into_iter().map(|c| c()).collect());
            fingerprint_trials(&mut traced, route.name(), &trials);
            if trials.iter().any(|t| !t.ok) {
                problems.push(format!("{}: traced trial not silent and correct", route.name()));
            }
            per_route.push(trials);
        }
    });
    let traced_s = t0.elapsed().as_secs_f64();
    if untraced != traced {
        problems.push(format!(
            "simulate fingerprint differs between RunSpec and direct drive: {:?} vs {:?}",
            untraced.0, traced.0
        ));
    }

    let spans = tr.spans();
    let route_time = |route: usize, name: &str| -> (f64, usize) {
        let matching: Vec<_> = spans
            .iter()
            .filter(|s| s.name == name && s.op >> 32 == route as u64 && s.end_ns.is_some())
            .collect();
        (matching.iter().map(|s| s.dur_ns() as f64 * 1e-9).sum(), matching.len())
    };
    let sum_counter = |route: usize, c: Counter| -> u64 {
        per_route[route].iter().map(|t| t.counters.get(c)).sum()
    };
    let idx = |name: &str| routes.iter().position(|r| r.name() == name).expect("known route");

    let (mut exact_s, mut exact_int) = (0.0, 0u64);
    for name in ["ssr-exact", "opt-exact"] {
        let r = idx(name);
        exact_s += route_time(r, "execution.run").0;
        exact_int += per_route[r].iter().map(|t| t.interactions).sum::<u64>();
    }
    layers.put("execution.ns_per_interaction", ratio(exact_s * 1e9, exact_int as f64), "ns");
    layers.put("execution.interactions", exact_int as f64, "count");

    let r = idx("ssr-batched");
    let tr_r = sum_counter(r, Counter::Transitions);
    layers.put(
        "batched.indexed.ns_per_transition",
        ratio(route_time(r, "batched.indexed.run").0 * 1e9, tr_r as f64),
        "ns",
    );
    layers.put("batched.indexed.transitions", tr_r as f64, "count");
    layers.put("batched.nulls_skipped", sum_counter(r, Counter::NullsSkipped) as f64, "count");
    layers.put(
        "batched.fenwick_rebuilds",
        sum_counter(r, Counter::FenwickRebuilds) as f64,
        "count",
    );

    let r = idx("opt-batched");
    let tr_r = sum_counter(r, Counter::Transitions);
    layers.put(
        "batched.present_scan.ns_per_transition",
        ratio(route_time(r, "batched.present_scan.run").0 * 1e9, tr_r as f64),
        "ns",
    );
    layers.put("batched.present_scan.transitions", tr_r as f64, "count");

    let r = idx("epidemic-batchcount");
    let tr_r = sum_counter(r, Counter::Transitions);
    let trunc = sum_counter(r, Counter::BatchTruncations);
    layers.put(
        "batched.batchcount.ns_per_transition",
        ratio(route_time(r, "batched.batchcount.run").0 * 1e9, tr_r as f64),
        "ns",
    );
    layers.put("batched.epochs_opened", sum_counter(r, Counter::EpochsOpened) as f64, "count");
    layers.put("batched.batch_draws", sum_counter(r, Counter::BatchDraws) as f64, "count");
    layers.put("batched.batch_truncations", trunc as f64, "count");
    layers.put(
        "batched.scheduler_fallbacks",
        sum_counter(r, Counter::SchedulerFallbacks) as f64,
        "count",
    );
    layers.put(
        "batched.batchcount.applied_ratio",
        ratio(tr_r as f64, (tr_r + trunc) as f64),
        "ratio",
    );
    let (new_s, new_n) = route_time(r, "engine.new");
    layers.put("batched.construct_s", ratio(new_s, new_n as f64), "s");

    let r = idx("sublinear-interned");
    let tr_r = sum_counter(r, Counter::Transitions);
    layers.put(
        "interned.ns_per_transition",
        ratio(route_time(r, "interned.run").0 * 1e9, tr_r as f64),
        "ns",
    );
    layers.put("interned.transitions", tr_r as f64, "count");
    layers.put(
        "interned.interner_growths",
        sum_counter(r, Counter::InternerGrowths) as f64,
        "count",
    );

    for (i, route) in routes.iter().enumerate() {
        let (s, n) = route_time(i, "config.build");
        layers.put(format!("config.build_s.{}", route.name()), ratio(s, n as f64), "s");
    }

    let busy: f64 =
        spans.iter().filter(|s| s.name == "simulate.trial").map(|s| s.dur_ns() as f64 * 1e-9).sum();
    let idle = (THREADS as f64 * batch_wall - busy).max(0.0);
    layers.put("runner.busy_s", busy, "s");
    layers.put("runner.idle_s", idle, "s");
    layers.put("runner.efficiency", ratio(busy, THREADS as f64 * batch_wall), "ratio");

    // Unattributed: pool lane-time not covered by a layer span or by pool idling.
    let selfs = trace::self_times(&spans);
    let gaps: f64 = ["simulate.trial"].iter().filter_map(|n| selfs.get(*n)).sum();
    layers.put(
        "trace.unattributed_frac.simulate",
        ratio(gaps, THREADS as f64 * batch_wall),
        "ratio",
    );

    // Layer probes outside the traced round.
    let mut overhead = Vec::new();
    for (i, route) in routes.iter().enumerate() {
        let s = TrialPlan::new(route.trials(), batch_seed(seed, 0, i)).seed_for(0);
        let (t_spec, a) = median_timed(1, || route.runspec_one(0, 0, s));
        let Some(a) = a else { continue };
        let (t_direct, b) = median_timed(1, || route.direct_one(0, 0, s));
        if a.interactions != b.interactions || a.counters != b.counters {
            problems.push(format!(
                "{}: RunSpec::run_one differs from the directly driven engine",
                route.name()
            ));
        }
        overhead.push(t_spec - t_direct);
    }
    layers.put("runspec.overhead_s", overhead.iter().sum::<f64>() / overhead.len() as f64, "s");
    sampling_probes(seed, layers);
    let operations = per_route.iter().map(Vec::len).sum::<usize>() as u64;
    Profile { untraced_s, traced_s, operations, problems, known_failures: Vec::new() }
}

/// Times `f` in a loop for at least `min_s` seconds; ns per call.
fn ns_per_call(min_s: f64, mut f: impl FnMut() -> u64) -> f64 {
    let mut sink = 0u64;
    let mut calls = 0u64;
    let start = Instant::now();
    loop {
        for _ in 0..256 {
            sink = sink.wrapping_add(f());
        }
        calls += 256;
        if start.elapsed().as_secs_f64() >= min_s {
            break;
        }
    }
    std::hint::black_box(sink);
    start.elapsed().as_secs_f64() * 1e9 / calls as f64
}

/// The samplers at the batch-count epidemic's mid-run parameters: active
/// pair weight `A ≈ n²/2`, half of it in one row, epochs of `n/16`
/// transitions at active probability 1/2.
fn sampling_probes(seed: u64, layers: &mut Metrics) {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(mix(seed, 0x5341_4d50));
    let n = EPIDEMIC_N as u64;
    let (total, draws) = (n * n / 2, n / 16);
    layers.put("sampling.rng.ns_per_word", ns_per_call(0.05, || rng.next_u64()), "ns");
    layers.put(
        "sampling.hypergeometric.ns_per_draw",
        ns_per_call(0.05, || sample_hypergeometric(total, total / 2, draws, &mut rng)),
        "ns",
    );
    layers.put(
        "sampling.binomial.ns_per_draw",
        ns_per_call(0.05, || sample_binomial(draws, 0.5, &mut rng)),
        "ns",
    );
    layers.put(
        "sampling.negative_binomial.ns_per_draw",
        ns_per_call(0.05, || sample_negative_binomial(draws, 0.5, &mut rng)),
        "ns",
    );
}
