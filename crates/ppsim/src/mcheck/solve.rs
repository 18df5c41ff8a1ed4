//! The expected-silence-time solve: right-preconditioned BiCGSTAB on the
//! absorbing chain's linear system, streamed over the successor store.
//!
//! Over the non-silent states of a closure the expectations satisfy
//! `(I − P)·x = τ`, where `P(c, c')` is the probability that the next
//! *state-changing* interaction moves `c` to `c' ≠ c` and
//! `τ(c) = W(c) / (A(c) − self(c))` the expected number of scheduler draws
//! until it does (`W` the total pair measure, `A` the active measure, `self`
//! the weight of non-null pairs that leave the count vector unchanged).
//! Silent states are absorbing with `x = 0` and drop out.
//!
//! Plain Gauss–Seidel on this system converges at the rate of its slowest
//! mode, and on Optimal-Silent-SSR that mode is a giant strongly connected
//! component the chain wanders for thousands of sweeps. BiCGSTAB (van der
//! Vorst 1992) removes an isolated slow mode in a few iterations in fixed
//! memory. Its preconditioner is one distance-ordered Gauss–Seidel sweep,
//! `M = I − L` with `L` the part of `P` that points at states earlier in the
//! sweep order, applied by forward substitution; on a cycle-free chain that
//! sweep is already the exact inverse and the solve ends after its first
//! half-step.
//!
//! Every preconditioner application, matrix-vector product and residual is
//! one sequential pass over the distance-ordered edge store, so resident and
//! spilled stores run the same code and a spilled solve streams from disk.

use super::store::OrderedSweep;
use super::{EnumerableProtocol, MCheckError, ReachableSpace};
use crate::telemetry::TelemetrySink;

/// One row of `(I − P)·x = τ` as a pass hands it out.
struct Row<'a> {
    state: u32,
    edges: &'a [(u32, u64)],
    /// `A(c) − self(c)`: the weight of pairs that change the state.
    moving: f64,
    /// `τ(c)`.
    tau: f64,
}

impl Row<'_> {
    /// `(P·z)(c) = Σ_{c' ≠ c} w(c, c')·z(c') / (A(c) − self(c))`.
    fn p_dot(&self, z: &[f64]) -> f64 {
        let mut acc = 0.0;
        for &(t, w) in self.edges {
            if t != self.state {
                acc += w as f64 * z[t as usize];
            }
        }
        acc / self.moving
    }
}

/// The edge passes of one solve, under the pass budget.
struct Passes<'a, P: EnumerableProtocol> {
    space: &'a ReachableSpace<P>,
    sweeper: OrderedSweep<'a>,
    budget: usize,
    used: usize,
    /// The latest relative residual, reported if the budget runs out.
    residual: f64,
}

impl<P: EnumerableProtocol> Passes<'_, P> {
    /// One pass over the edges in sweep order, calling `f` on the row of
    /// every non-silent state, inside one `solver.sweep` span.
    fn pass(
        &mut self,
        sink: &mut TelemetrySink,
        mut f: impl FnMut(usize, &Row),
    ) -> Result<(), MCheckError> {
        if self.used >= self.budget {
            return Err(MCheckError::NotConverged { residual: self.residual });
        }
        self.used += 1;
        let space = self.space;
        sink.span_begin("solver.sweep");
        let swept = self.sweeper.sweep(|state, edges| {
            let a = space.active[state as usize];
            if a == 0 {
                return;
            }
            let self_weight: u64 =
                edges.iter().filter(|&&(t, _)| t == state).map(|&(_, w)| w).sum();
            let moving = (a - self_weight) as f64;
            let tau = space.total_weight_of(state as usize) / moving;
            f(state as usize, &Row { state, edges, moving, tau });
        });
        sink.span_end("solver.sweep");
        swept.map_err(MCheckError::from_spill)
    }

    /// `r = τ − (I − P)·x`; returns `‖τ‖₂`.
    fn residual(
        &mut self,
        x: &[f64],
        r: &mut [f64],
        sink: &mut TelemetrySink,
    ) -> Result<f64, MCheckError> {
        let mut tau_sq = 0.0;
        self.pass(sink, |s, row| {
            r[s] = row.tau - x[s] + row.p_dot(x);
            tau_sq += row.tau * row.tau;
        })?;
        Ok(tau_sq.sqrt())
    }

    /// `z = M⁻¹·rhs` by one forward Gauss–Seidel sweep from zero: states not
    /// yet visited still hold 0, so the sweep reads exactly `L·z`.
    fn precondition(
        &mut self,
        rhs: &[f64],
        z: &mut [f64],
        sink: &mut TelemetrySink,
    ) -> Result<(), MCheckError> {
        z.fill(0.0);
        self.pass(sink, |s, row| {
            let value = rhs[s] + row.p_dot(z);
            z[s] = value;
        })
    }

    /// `out = (I − P)·z`.
    fn apply(
        &mut self,
        z: &[f64],
        out: &mut [f64],
        sink: &mut TelemetrySink,
    ) -> Result<(), MCheckError> {
        self.pass(sink, |s, row| out[s] = z[s] - row.p_dot(z))
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `y += alpha · x`.
fn axpy(y: &mut [f64], alpha: f64, x: &[f64]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// A usable BiCGSTAB scalar: a zero or non-finite one is a breakdown.
fn usable(v: f64) -> bool {
    v != 0.0 && v.is_finite()
}

/// Solves `(I − P)·x = τ` over the closure, passing over the edges in
/// `sweeper`'s order at most `budget` times. Returns the expectations (zero
/// on silent states), the passes used and the true relative residual
/// `‖τ − (I − P)·x‖₂ / ‖τ‖₂ ≤ tolerance`, recomputed from `x`.
///
/// A breakdown (`ρ`, `⟨r̂₀, v⟩` or `ω` zero or non-finite) restarts from
/// the current iterate, as does a recursive residual that met the tolerance
/// while the true one did not.
pub(super) fn bicgstab<'a, P: EnumerableProtocol>(
    space: &'a ReachableSpace<P>,
    sweeper: OrderedSweep<'a>,
    tolerance: f64,
    budget: usize,
    sink: &mut TelemetrySink,
) -> Result<(Vec<f64>, usize, f64), MCheckError> {
    let len = space.len();
    let mut passes = Passes { space, sweeper, budget, used: 0, residual: f64::INFINITY };
    let mut x = vec![0.0f64; len];
    let mut r = vec![0.0f64; len];
    let mut r_hat = vec![0.0f64; len];
    let mut p = vec![0.0f64; len];
    let mut v = vec![0.0f64; len];
    let mut z = vec![0.0f64; len];
    let mut t = vec![0.0f64; len];
    loop {
        // (Re)start from the current iterate with its true residual.
        let tau_norm = passes.residual(&x, &mut r, sink)?;
        if tau_norm == 0.0 {
            return Ok((x, passes.used, 0.0));
        }
        let rel = |r: &[f64]| dot(r, r).sqrt() / tau_norm;
        passes.residual = rel(&r);
        if passes.residual <= tolerance {
            return Ok((x, passes.used, passes.residual));
        }
        r_hat.copy_from_slice(&r);
        p.fill(0.0);
        v.fill(0.0);
        let (mut rho, mut alpha, mut omega) = (1.0f64, 1.0f64, 1.0f64);
        loop {
            let rho_next = dot(&r_hat, &r);
            if !usable(rho_next) {
                break;
            }
            let beta = (rho_next / rho) * (alpha / omega);
            rho = rho_next;
            for ((pi, &ri), &vi) in p.iter_mut().zip(&r).zip(&v) {
                *pi = ri + beta * (*pi - omega * vi);
            }
            passes.precondition(&p, &mut z, sink)?;
            passes.apply(&z, &mut v, sink)?;
            let r_hat_v = dot(&r_hat, &v);
            alpha = rho / r_hat_v;
            if !usable(r_hat_v) || !alpha.is_finite() {
                break;
            }
            axpy(&mut x, alpha, &z);
            axpy(&mut r, -alpha, &v);
            passes.residual = rel(&r);
            if passes.residual <= tolerance {
                break;
            }
            passes.precondition(&r, &mut z, sink)?;
            passes.apply(&z, &mut t, sink)?;
            omega = dot(&t, &r) / dot(&t, &t);
            if !usable(omega) {
                break;
            }
            axpy(&mut x, omega, &z);
            axpy(&mut r, -omega, &t);
            passes.residual = rel(&r);
            if passes.residual <= tolerance {
                break;
            }
        }
    }
}
