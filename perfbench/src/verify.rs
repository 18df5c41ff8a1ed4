//! `verify`: model-checker operations run one after another on one thread —
//! full-lattice proofs (dense and symmetry-quotient), a compressed-closure
//! convergence proof, and exact expected-silence-time solves, each checked
//! against a closed form or a recorded value.
//!
//! A round runs every operation once, in a fixed order; the seed draws the
//! random Optimal-Silent starts. A run repeats whole rounds while another
//! round is expected to end within the measuring time.

use std::path::Path;
use std::time::Instant;

use ppsim::mcheck::{
    check_convergence_from, check_self_stabilization, check_self_stabilization_quotient,
    expected_silence_time_exact, expected_silence_time_probed, explore_reachable, lattice_size,
    MCheckError, MCheckOptions,
};
use ppsim::telemetry::{Counter, CounterBlock, Recorder, TelemetrySink};
use ppsim::{Configuration, EnumerableProtocol, ExactSilenceTime, Protocol};
use processes::Fratricide;
use ssle::{OptimalSilentParams, OptimalSilentSsr, SilentNStateSsr};

use crate::common::{
    another_round, median_timed, mix, ratio, Fingerprint, Metrics, Profile, RunResult,
};
use crate::trace::{self, Tracer};

/// Expected parallel silence times of Optimal-Silent-SSR (mcheck timers,
/// n = 4) from its four deterministic adversarial starts, as solved by the
/// model checker (relative agreement 1e-9 required).
const OPT4_RECORDED: [(&str, f64); 4] = [
    ("all-leader", 79.7958598504822),
    ("zero-leader", 79.90592634982791),
    ("all-unsettled", 78.70939552331173),
    ("near-silent-wrong", 80.68015185131839),
];

/// The Optimal-Silent n = 5 solve: a known defect. Every n = 5 start stalls
/// in the Gauss–Seidel solve and returns `NotConverged`; it stays in the
/// workload and counts as a failed operation.
const OPT5_SCENARIO: &str = "all-unsettled";

/// Which end-to-end figure an operation feeds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Proof,
    Closure,
    Expect,
}

/// Layer quantities an operation reports (zero where not applicable).
#[derive(Clone, Copy, Debug, Default)]
pub struct Work {
    pub configs: u64,
    pub orbits: u64,
    pub states: u64,
    pub sweeps: u64,
    pub frontier_pops: u64,
    pub spill_bytes: u64,
    pub solves: u64,
    pub converged: u64,
}

/// What one operation returned, judged.
pub struct Verdict {
    pub ok: bool,
    pub known_failure: bool,
    pub note: String,
    pub work: Work,
}

impl Verdict {
    fn judged(ok: bool, note: String, work: Work) -> Self {
        Verdict { ok, known_failure: false, note, work }
    }
}

type OpFn = Box<dyn Fn(&Tracer, u64) -> Verdict>;

/// One model-checker operation.
pub struct Op {
    pub label: String,
    pub kind: Kind,
    run: OpFn,
}

fn options(spill_dir: &Path) -> MCheckOptions {
    MCheckOptions { spill_dir: Some(spill_dir.to_path_buf()), ..MCheckOptions::default() }
}

fn from_counters(c: &CounterBlock) -> Work {
    Work {
        frontier_pops: c.get(Counter::McheckFrontierPops),
        spill_bytes: c.get(Counter::McheckSpillBytes),
        sweeps: c.get(Counter::McheckGsSweeps),
        ..Work::default()
    }
}

/// An exact-time solve. Traced, the library's own phase spans are read back
/// and recorded as the `mcheck.explore` / `mcheck.spill` / `mcheck.solve`
/// children of the operation (sweeps merged into one solve span).
fn solve<P: EnumerableProtocol>(
    protocol: P,
    init: &Configuration<P::State>,
    opts: &MCheckOptions,
    tr: &Tracer,
    op: u64,
) -> Result<ExactSilenceTime, MCheckError> {
    if !tr.enabled() {
        return expected_silence_time_exact(protocol, init, opts);
    }
    let mut sink = TelemetrySink::Recorder(Box::new(Recorder::new()));
    let origin = Instant::now();
    let out = expected_silence_time_probed(protocol, init, opts, &mut sink);
    let spans = sink.take().map(|r| r.spans).unwrap_or_default();
    let at = |us: u64| origin + std::time::Duration::from_micros(us);
    let parent = tr.current();
    for (lib, ours) in [("closure.explore", "mcheck.explore"), ("spill.order", "mcheck.spill")] {
        for s in spans.iter().filter(|s| s.name == lib) {
            tr.record(ours, op, None, parent, at(s.start_us), at(s.end_us));
        }
    }
    let sweeps: Vec<_> = spans.iter().filter(|s| s.name == "solver.sweep").collect();
    if let (Some(first), Some(last)) = (sweeps.first(), sweeps.last()) {
        tr.record("mcheck.solve", op, None, parent, at(first.start_us), at(last.end_us));
    }
    out
}

fn expect_op<P: EnumerableProtocol + Clone + 'static>(
    label: String,
    protocol: P,
    init: Configuration<P::State>,
    opts: MCheckOptions,
    judge: impl Fn(&ExactSilenceTime) -> Result<(), String> + 'static,
    known_stall: bool,
) -> Op
where
    P::State: 'static,
{
    let run = move |tr: &Tracer, op: u64| {
        let res =
            tr.span("mcheck.expect", op, None, || solve(protocol.clone(), &init, &opts, tr, op));
        match res {
            Ok(t) => {
                let mut work = from_counters(&t.counters);
                work.states = t.states as u64;
                work.solves = 1;
                work.converged = 1;
                match judge(&t) {
                    Ok(()) => {
                        Verdict::judged(true, format!("E[T] = {:.9}", t.expected_parallel), work)
                    }
                    Err(e) => Verdict::judged(false, e, work),
                }
            }
            Err(MCheckError::NotConverged { residual }) if known_stall => Verdict {
                ok: false,
                known_failure: true,
                note: format!("NotConverged (linear solve stalled at residual {residual:e})"),
                work: Work { solves: 1, ..Work::default() },
            },
            Err(e) => {
                Verdict::judged(false, format!("error: {e}"), Work { solves: 1, ..Work::default() })
            }
        }
    };
    Op { label, kind: Kind::Expect, run: Box::new(run) }
}

fn close_to(expected: f64) -> impl Fn(&ExactSilenceTime) -> Result<(), String> {
    move |t| {
        if (t.expected_parallel - expected).abs() <= 1e-9 * expected.abs().max(1.0) {
            Ok(())
        } else {
            Err(format!("E[T] = {} but expected {expected}", t.expected_parallel))
        }
    }
}

/// The round's operations. Building them is the workload's
/// set-up: protocols, start configurations, options, the spill directory.
pub fn ops(seed: u64, spill_dir: &Path) -> Vec<Op> {
    let opts = options(spill_dir);
    let mut ops = Vec::new();

    let o = opts.clone();
    ops.push(Op {
        label: "proof dense optimal-silent n=4".into(),
        kind: Kind::Proof,
        run: Box::new(move |tr, op| {
            let p = OptimalSilentSsr::new(OptimalSilentParams::mcheck(4));
            let lattice = lattice_size(4, p.num_states()).unwrap_or(0) as u64;
            match tr.span("mcheck.lattice", op, None, || check_self_stabilization(p, &o)) {
                Ok(r) => Verdict::judged(
                    r.verified() && r.configurations == lattice,
                    format!("{} configurations", r.configurations),
                    Work { configs: r.configurations, ..Work::default() },
                ),
                Err(e) => Verdict::judged(false, format!("error: {e}"), Work::default()),
            }
        }),
    });

    let o = opts.clone();
    ops.push(Op {
        label: "proof quotient silent-n-state n=12".into(),
        kind: Kind::Proof,
        run: Box::new(move |tr, op| {
            let p = SilentNStateSsr::new(12);
            match tr.span("mcheck.quotient", op, None, || check_self_stabilization_quotient(p, &o))
            {
                Ok(r) => Verdict::judged(
                    r.verified() && r.configurations == 1_352_078 && r.orbits == 112_720,
                    format!("{} configurations from {} orbits", r.configurations, r.orbits),
                    Work {
                        configs: r.configurations as u64,
                        orbits: r.orbits,
                        ..from_counters(&r.counters)
                    },
                ),
                Err(e) => Verdict::judged(false, format!("error: {e}"), Work::default()),
            }
        }),
    });

    let o = opts.clone();
    ops.push(Op {
        label: "closure optimal-silent n=6".into(),
        kind: Kind::Closure,
        run: Box::new(move |tr, op| {
            let p = OptimalSilentSsr::new(OptimalSilentParams::mcheck(6));
            let seeds = closure_seeds(&p);
            match tr.span("mcheck.closure", op, None, || check_convergence_from(p, &seeds, &o)) {
                Ok(r) => Verdict::judged(
                    r.verified() && r.states == 117_570,
                    format!("{} closure states", r.states),
                    Work { states: r.states as u64, ..Work::default() },
                ),
                Err(e) => Verdict::judged(false, format!("error: {e}"), Work::default()),
            }
        }),
    });

    let p = SilentNStateSsr::new(12);
    ops.push(expect_op(
        "expect silent-n-state n=12 worst-case".into(),
        p,
        p.worst_case_configuration(),
        opts.clone(),
        close_to(11.0 * 66.0 / 12.0),
        false,
    ));

    let p = Fratricide::new(64);
    let spill = MCheckOptions { max_resident_bytes: 0, ..opts.clone() };
    ops.push(expect_op(
        "expect fratricide n=64 spilled".into(),
        p,
        p.all_leaders_configuration(),
        spill,
        |t| {
            close_to(63.0 * 63.0 / 64.0)(t)?;
            if t.spilled {
                Ok(())
            } else {
                Err("a zero resident budget must spill".into())
            }
        },
        false,
    ));

    let p = OptimalSilentSsr::new(OptimalSilentParams::mcheck(4));
    for scenario in OptimalSilentSsr::adversarial_scenarios() {
        let name = scenario.name().to_owned();
        let init = scenario.configuration(&p, mix(seed, 0x4f50_5434));
        let recorded = OPT4_RECORDED.iter().find(|(s, _)| *s == name).map(|&(_, v)| v);
        let judge = move |t: &ExactSilenceTime| match recorded {
            Some(v) => close_to(v)(t),
            None if t.expected_parallel.is_finite()
                && t.expected_parallel >= 0.0
                && t.residual <= 1e-12 =>
            {
                Ok(())
            }
            None => Err(format!("E[T] = {} with residual {}", t.expected_parallel, t.residual)),
        };
        ops.push(expect_op(
            format!("expect optimal-silent n=4 {name}"),
            p,
            init,
            opts.clone(),
            judge,
            false,
        ));
    }

    let p = OptimalSilentSsr::new(OptimalSilentParams::mcheck(5));
    let scenario = OptimalSilentSsr::adversarial_scenarios()
        .into_iter()
        .find(|s| s.name() == OPT5_SCENARIO)
        .expect("known scenario");
    let init = scenario.configuration(&p, mix(seed, 0x4f50_5435));
    ops.push(expect_op(
        format!("expect optimal-silent n=5 {OPT5_SCENARIO}"),
        p,
        init,
        opts,
        |_| Ok(()),
        true,
    ));

    ops
}

fn closure_seeds(
    p: &OptimalSilentSsr,
) -> [Configuration<<OptimalSilentSsr as Protocol>::State>; 3] {
    [p.adversarial_all_same_rank(2), p.all_unsettled_configuration(), p.ranked_configuration()]
}

fn fingerprint_op(fp: &mut Fingerprint, op: &Op, w: &Work) {
    for (key, v) in [
        ("configs", w.configs),
        ("orbits", w.orbits),
        ("states", w.states),
        ("sweeps", w.sweeps),
        ("frontier_pops", w.frontier_pops),
        ("spill_bytes", w.spill_bytes),
    ] {
        if v > 0 {
            fp.add(format!("{}.{key}", op.label), v);
        }
    }
}

/// Judges one operation into the run result.
fn account(res: &mut RunResult, op: &Op, v: &Verdict) {
    res.attempted += 1;
    if v.known_failure {
        res.failed += 1;
        res.known_failures.push(format!("{}: {}", op.label, v.note));
    } else if !v.ok {
        res.fail(format!("{}: {}", op.label, v.note));
    }
}

pub fn run(seed: u64, seconds: f64, setup_reps: usize, spill_dir: &Path) -> RunResult {
    let (setup_s, ops) = median_timed(setup_reps, || {
        std::fs::create_dir_all(spill_dir).expect("spill directory is creatable");
        ops(seed, spill_dir)
    });
    let tr = Tracer::new(false);
    let mut res = RunResult::default();
    let mut by_kind: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let started = Instant::now();
    let mut round = 0;
    while another_round(round, started.elapsed().as_secs_f64(), seconds) {
        for (i, op) in ops.iter().enumerate() {
            let t0 = Instant::now();
            let v = (op.run)(&tr, i as u64);
            let dt = t0.elapsed().as_secs_f64();
            println!("  round {round} {:<44} {dt:>10.4} s  {}", op.label, v.note);
            by_kind[op.kind as usize].push(dt);
            account(&mut res, op, &v);
            if round == 0 {
                fingerprint_op(&mut res.fingerprint, op, &v.work);
            }
        }
        round += 1;
    }
    let wall: f64 = by_kind.iter().flatten().sum();
    let m = &mut res.metrics;
    m.put("setup_s", setup_s, "s");
    m.put_n("ops_per_s", res.attempted as f64 / wall, "1/s", res.attempted as usize);
    for (kind, name) in [
        (Kind::Proof, "proof.s_per_check"),
        (Kind::Closure, "closure.s_per_check"),
        (Kind::Expect, "expect.s_per_solve"),
    ] {
        let xs = &by_kind[kind as usize];
        m.put_n(name, xs.iter().sum::<f64>() / xs.len() as f64, "s", xs.len());
    }
    res
}

/// The traced profile: one round untraced, the same round traced, then the
/// closure exploration timed alone.
pub fn profile(seed: u64, spill_dir: &Path, tr: &Tracer, layers: &mut Metrics) -> Profile {
    std::fs::create_dir_all(spill_dir).expect("spill directory is creatable");
    let ops = ops(seed, spill_dir);
    let mut problems = Vec::new();
    let off = Tracer::new(false);
    let mut untraced = Fingerprint::default();
    let t0 = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let v = (op.run)(&off, i as u64);
        fingerprint_op(&mut untraced, op, &v.work);
    }
    let untraced_s = t0.elapsed().as_secs_f64();

    let mut traced = Fingerprint::default();
    let mut total = Work::default();
    let mut converged_ops = Vec::new();
    let mut known_failures = Vec::new();
    let t0 = Instant::now();
    tr.span("verify.round", 0, None, || {
        for (i, op) in ops.iter().enumerate() {
            let v = tr.span("verify.op", i as u64, None, || (op.run)(tr, i as u64));
            if v.known_failure {
                known_failures.push(format!("{}: {}", op.label, v.note));
            } else if !v.ok {
                problems.push(format!("{}: {}", op.label, v.note));
            }
            fingerprint_op(&mut traced, op, &v.work);
            let w = v.work;
            total.sweeps += w.sweeps;
            total.spill_bytes += w.spill_bytes;
            total.solves += w.solves;
            total.converged += w.converged;
            if op.kind == Kind::Expect && w.converged > 0 {
                total.states += w.states * w.sweeps;
                converged_ops.push(i as u64);
            }
            if op.kind == Kind::Proof {
                total.configs += if w.orbits == 0 { w.configs } else { 0 };
                total.orbits += w.orbits;
            }
        }
    });
    let traced_s = t0.elapsed().as_secs_f64();
    if untraced != traced {
        problems.push(format!(
            "verify fingerprint differs between untraced and traced rounds: {:?} vs {:?}",
            untraced.0, traced.0
        ));
    }

    let spans = tr.spans();
    let totals = trace::totals(&spans);
    let secs = |name: &str| totals.get(name).copied().unwrap_or(0.0);
    layers.put(
        "mcheck.lattice.configs_per_s",
        ratio(total.configs as f64, secs("mcheck.lattice")),
        "1/s",
    );
    layers.put(
        "mcheck.quotient.orbits_per_s",
        ratio(total.orbits as f64, secs("mcheck.quotient")),
        "1/s",
    );
    let converged_solve_s: f64 = spans
        .iter()
        .filter(|s| s.name == "mcheck.solve" && converged_ops.contains(&s.op))
        .map(|s| s.dur_ns() as f64 * 1e-9)
        .sum();
    layers.put(
        "mcheck.solve.ns_per_relaxation",
        ratio(converged_solve_s * 1e9, total.states as f64),
        "ns",
    );
    layers.put("mcheck.gs_sweeps", total.sweeps as f64, "count");
    layers.put(
        "mcheck.solve.converged_frac",
        ratio(total.converged as f64, total.solves as f64),
        "ratio",
    );
    layers.put("mcheck.spill_bytes", total.spill_bytes as f64, "B");
    layers.put("mcheck.spill.s", secs("mcheck.spill"), "s");
    let selfs = trace::self_times(&spans);
    let gaps = selfs.get("verify.round").copied().unwrap_or(0.0)
        + selfs.get("verify.op").copied().unwrap_or(0.0)
        + selfs.get("mcheck.expect").copied().unwrap_or(0.0);
    layers.put("trace.unattributed_frac.verify", ratio(gaps, secs("verify.round")), "ratio");

    // The closure's exploration alone, outside the traced round.
    let p = OptimalSilentSsr::new(OptimalSilentParams::mcheck(6));
    let seeds = closure_seeds(&p);
    let (explore_s, space) = median_timed(1, || explore_reachable(p, &seeds, &options(spill_dir)));
    match space {
        Ok(space) => {
            layers.put("mcheck.closure.states_per_s", ratio(space.len() as f64, explore_s), "1/s");
            layers.put("mcheck.closure.states", space.len() as f64, "count");
            layers.put(
                "mcheck.frontier_pops",
                space.counters().get(Counter::McheckFrontierPops) as f64,
                "count",
            );
        }
        Err(e) => problems.push(format!("explore_reachable: {e}")),
    }
    Profile { untraced_s, traced_s, operations: ops.len() as u64, problems, known_failures }
}
