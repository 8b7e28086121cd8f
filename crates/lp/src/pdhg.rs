//! First-order LP solver: primal–dual hybrid gradient (PDHG) in the style of
//! PDLP, with Ruiz equilibration, iterate averaging, adaptive restarts, and
//! primal-weight balancing.
//!
//! The simplex backend ([`crate::simplex`]) keeps an explicit `m × m` basis
//! inverse, which stops scaling around a few thousand rows. ARROW's Phase-I
//! formulation multiplies scenarios × LotteryTickets × links, easily reaching
//! tens of thousands of rows, so large instances are solved here: every
//! iteration is two sparse matrix–vector products, nothing else.
//!
//! Implemented: optimality within a relative KKT tolerance, dual values.
//! Deliberately omitted: infeasibility/unboundedness *certificates* — the
//! iteration simply fails to converge on such inputs and reports
//! [`Status::IterationLimit`]. ARROW's formulations are feasible and bounded
//! by construction (slack variables / finite demands); use the simplex
//! backend when certified infeasibility detection matters.

use crate::model::{Sense, StandardLp};
use crate::solution::{Solution, SolveStats, Status};
use crate::sparse::{CsrMatrix, SlicedRows};
use crate::warm::{BackendKind, PrimalDual, WarmEvent};

/// Hard iteration limit.
const MAX_ITERS: usize = 400_000;
/// Convergence and restarts are checked every this many iterations.
const CHECK_EVERY: usize = 64;
/// Ruiz equilibration sweeps applied before solving.
const RUIZ_ITERS: usize = 12;

/// Tunable knobs for the PDHG solver.
#[derive(Debug, Clone)]
pub struct PdhgConfig {
    /// Relative KKT tolerance (primal residual, dual residual, gap). NaN is
    /// refused with [`Status::NumericalTrouble`].
    pub tol: f64,
}

impl Default for PdhgConfig {
    fn default() -> Self {
        PdhgConfig { tol: 1e-6 }
    }
}

/// The scaled problem `min c'x  s.t.  K x (>=|=) q,  l <= x <= u` plus the
/// diagonal scalings needed to map a solution back to user space.
struct Scaled {
    /// `K` by rows, for the `Kᵀy` scatter.
    k: CsrMatrix,
    /// `K` again, laid out for `K·x`.
    k_sliced: SlicedRows,
    q: Vec<f64>,
    is_eq: Vec<bool>,
    c: Vec<f64>,
    lb: Vec<f64>,
    ub: Vec<f64>,
    /// x_user = col_scale ⊙ x_scaled
    col_scale: Vec<f64>,
    /// y_user = row_scale ⊙ y_scaled
    row_scale: Vec<f64>,
    /// Sign applied per row to turn `<=` into `>=` (for mapping duals back).
    row_sign: Vec<f64>,
}

// Out of line: inlined into `solve_warm`, this set-up code costs the
// iteration loop there registers (its bounds spill to the stack) and about a
// tenth of the PDHG workloads' throughput.
#[inline(never)]
fn build_scaled(lp: &StandardLp) -> Scaled {
    let m = lp.num_cons();
    let n = lp.num_vars();
    // Orient all inequality rows as `>=`.
    let row_sign: Vec<f64> =
        lp.senses.iter().map(|&s| if s == Sense::Le { -1.0 } else { 1.0 }).collect();
    let is_eq: Vec<bool> = lp.senses.iter().map(|&s| s == Sense::Eq).collect();
    let mut q: Vec<f64> = row_sign.iter().zip(&lp.rhs).map(|(sign, rhs)| sign * rhs).collect();
    let mut k = lp.a.clone();
    k.scale(&row_sign, &vec![1.0; n]);
    // Ruiz equilibration: repeatedly divide rows/cols by the square root of
    // their infinity norm until the matrix is roughly balanced.
    let mut row_scale = vec![1.0; m];
    let mut col_scale = vec![1.0; n];
    for _ in 0..RUIZ_ITERS {
        let rn = k.row_inf_norms();
        let cn = k.col_inf_norms();
        let rs: Vec<f64> = rn.iter().map(|&v| if v > 0.0 { 1.0 / v.sqrt() } else { 1.0 }).collect();
        let cs: Vec<f64> = cn.iter().map(|&v| if v > 0.0 { 1.0 / v.sqrt() } else { 1.0 }).collect();
        k.scale(&rs, &cs);
        for i in 0..m {
            row_scale[i] *= rs[i];
        }
        for j in 0..n {
            col_scale[j] *= cs[j];
        }
    }
    // Substitute x_user = D_c x, premultiply rows by D_r:
    //   objective  (D_c c)' x
    //   rhs        D_r q
    //   bounds     l / d_c <= x <= u / d_c
    let c: Vec<f64> = (0..n).map(|j| lp.obj[j] * col_scale[j]).collect();
    let lb: Vec<f64> = (0..n).map(|j| lp.lb[j] / col_scale[j]).collect();
    let ub: Vec<f64> = (0..n).map(|j| lp.ub[j] / col_scale[j]).collect();
    for i in 0..m {
        q[i] *= row_scale[i];
    }
    let k_sliced = k.to_sliced();
    Scaled { k, k_sliced, q, is_eq, c, lb, ub, col_scale, row_scale, row_sign }
}

/// KKT residuals of a candidate `(x, y)` pair on the scaled problem.
struct Residuals {
    rel_primal: f64,
    rel_dual: f64,
    rel_gap: f64,
}

impl Residuals {
    fn worst(&self) -> f64 {
        self.rel_primal.max(self.rel_dual).max(self.rel_gap)
    }
}

fn kkt_residuals(s: &Scaled, x: &[f64], y: &[f64], kx: &mut [f64], kty: &mut [f64]) -> Residuals {
    let m = s.q.len();
    s.k_sliced.mul_vec(x, kx);
    s.k.mul_transpose_vec(y, kty);
    let qn = s.q.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
    let cn = s.c.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
    // Primal residual: violations of Kx >= q (eq rows: |Kx - q|).
    let mut pr = 0.0f64;
    for (i, &kxi) in kx.iter().enumerate().take(m) {
        let r = s.q[i] - kxi;
        let v = if s.is_eq[i] { r.abs() } else { r.max(0.0) };
        pr = pr.max(v);
    }
    // Dual residual on reduced costs r = c - K'y given box constraints.
    let mut dr = 0.0f64;
    let mut dual_obj: f64 = s.q.iter().zip(y.iter()).map(|(a, b)| a * b).sum();
    for (j, &ktyj) in kty.iter().enumerate().take(s.c.len()) {
        let r = s.c[j] - ktyj;
        if r > 0.0 {
            if s.lb[j].is_finite() {
                dual_obj += s.lb[j] * r;
            } else {
                dr = dr.max(r);
            }
        } else if r < 0.0 {
            if s.ub[j].is_finite() {
                dual_obj += s.ub[j] * r;
            } else {
                dr = dr.max(-r);
            }
        }
    }
    let primal_obj: f64 = s.c.iter().zip(x.iter()).map(|(a, b)| a * b).sum();
    let gap = (primal_obj - dual_obj).abs() / (1.0 + primal_obj.abs() + dual_obj.abs());
    Residuals { rel_primal: pr / (1.0 + qn), rel_dual: dr / (1.0 + cn), rel_gap: gap }
}

/// The primal half of an iteration in one pass over `kty`: the projected
/// gradient step into `x_new`, the extrapolated point `2·x_new − x`, and the
/// running average moved a `w`-th of the way to `x_new`. Out of line, on
/// plain slices: inlined behind `solve_warm`'s `mem::swap(&mut x, &mut
/// x_new)` the buffers' provenance merges, `noalias` is lost and the loop is
/// not vectorized.
#[inline(never)]
#[expect(
    clippy::too_many_arguments,
    reason = "each operand is its own slice parameter, so every buffer gets `noalias`"
)]
fn x_step(
    x: &[f64],
    kty: &[f64],
    c: &[f64],
    lb: &[f64],
    ub: &[f64],
    tau: f64,
    w: f64,
    x_new: &mut [f64],
    extrap: &mut [f64],
    x_avg: &mut [f64],
) {
    let n = x.len();
    let (kty, c, lb, ub) = (&kty[..n], &c[..n], &lb[..n], &ub[..n]);
    let (x_new, extrap, x_avg) = (&mut x_new[..n], &mut extrap[..n], &mut x_avg[..n]);
    for j in 0..n {
        // `f64::clamp` without its `lb <= ub` assertion, which would keep
        // the loop scalar; crossed bounds never reach a backend.
        let mut v = x[j] - tau * (c[j] - kty[j]);
        v = if v < lb[j] { lb[j] } else { v };
        v = if v > ub[j] { ub[j] } else { v };
        x_new[j] = v;
        extrap[j] = 2.0 * v - x[j];
        x_avg[j] += (v - x_avg[j]) * w;
    }
}

/// The dual half in one pass over `kx`: the projected step on `y` in place
/// and its running average. Out of line for [`x_step`]'s reason.
#[inline(never)]
fn y_step(
    kx: &[f64],
    q: &[f64],
    is_eq: &[bool],
    sigma: f64,
    w: f64,
    y: &mut [f64],
    y_avg: &mut [f64],
) {
    let m = y.len();
    let (kx, q, is_eq, y_avg) = (&kx[..m], &q[..m], &is_eq[..m], &mut y_avg[..m]);
    for i in 0..m {
        let v = y[i] + sigma * (q[i] - kx[i]);
        y[i] = if is_eq[i] { v } else { v.max(0.0) };
        y_avg[i] += (y[i] - y_avg[i]) * w;
    }
}

/// Solves a standard-form LP with restarted, averaged PDHG.
pub fn solve(lp: &StandardLp, cfg: &PdhgConfig) -> Solution {
    solve_warm(lp, cfg, None)
}

/// [`solve`] with an optional starting primal–dual point in user space
/// (as returned in [`Solution::x`]/[`Solution::duals`] by any backend).
///
/// The point is mapped through this solve's equilibration, clamped to the
/// scaled bounds (primal) and sign constraints (dual), and iteration
/// resumes from it; near-optimal starts converge in a fraction of the cold
/// iteration count. A point of the wrong dimension is recorded as a
/// [`WarmEvent::Miss`] and the solve starts cold.
///
/// [`SolveStats::solve_seconds`] is left 0: the [`crate::solver`] entry
/// points time every solve by its `lp.solve` span.
pub(crate) fn solve_warm(
    lp: &StandardLp,
    cfg: &PdhgConfig,
    start_point: Option<&PrimalDual>,
) -> Solution {
    let n = lp.num_vars();
    let m = lp.num_cons();
    if m == 0 {
        // Delegate the constraint-free case to simplex's closed form.
        return crate::simplex::solve(lp, &crate::simplex::SimplexConfig::default());
    }
    if cfg.tol.is_nan() {
        // No residual compares below NaN: a data defect, like the ones
        // `solver::solve` rejects before it picks a backend.
        return Solution::failed(Status::NumericalTrouble, n);
    }
    let s = build_scaled(lp);
    let knorm = s.k.spectral_norm_estimate(60).max(1e-12);

    // Iterates and running averages (restart-to-average scheme).
    let mut x: Vec<f64> = (0..n).map(|j| s.lb[j].max(0.0).min(s.ub[j])).collect();
    for xj in x.iter_mut() {
        if !xj.is_finite() {
            *xj = 0.0;
        }
    }
    let mut y = vec![0.0; m];
    let mut warm = WarmEvent::Cold;
    if let Some(p) = start_point {
        if p.x.len() == n && (p.y.is_empty() || p.y.len() == m) {
            warm = WarmEvent::Hit;
            // User space -> scaled space: x = x_user / D_c, clamped to the
            // scaled box (data may have changed since the point was taken).
            for (j, xj) in x.iter_mut().enumerate() {
                let v = p.x[j] / s.col_scale[j];
                if v.is_finite() {
                    *xj = v.clamp(s.lb[j], s.ub[j]);
                }
            }
            // Invert the dual mapping used on the way out
            // (`duals = obj_sign * row_sign * y * row_scale`); inequality
            // rows keep their `y >= 0` sign constraint.
            for i in 0..p.y.len() {
                let v = lp.obj_sign * s.row_sign[i] * p.y[i] / s.row_scale[i];
                if v.is_finite() {
                    y[i] = if s.is_eq[i] { v } else { v.max(0.0) };
                }
            }
        } else {
            warm = WarmEvent::Miss;
        }
    }
    let mut x_avg = x.clone();
    let mut y_avg = y.clone();
    let mut avg_count = 0usize;
    let mut x_at_restart = x.clone();
    let mut y_at_restart = y.clone();

    let mut omega: f64 = {
        // Initial primal weight balances objective and rhs magnitudes.
        let cn = s.c.iter().map(|v| v * v).sum::<f64>().sqrt();
        let qn = s.q.iter().map(|v| v * v).sum::<f64>().sqrt();
        if cn > 1e-12 && qn > 1e-12 {
            (cn / qn).clamp(1e-4, 1e4)
        } else {
            1.0
        }
    };
    let step = 0.9 / knorm;

    let mut kx = vec![0.0; m];
    let mut kty = vec![0.0; n];
    let mut x_new = vec![0.0; n];
    let mut extrap = vec![0.0; n];
    let mut best_res_at_restart = f64::INFINITY;
    let mut iterations = 0usize;
    let mut restarts = 0usize;
    let mut status = Status::IterationLimit;

    while iterations < MAX_ITERS {
        // One PDHG step, running averages included.
        iterations += 1;
        avg_count += 1;
        let w = 1.0 / avg_count as f64;
        s.k.mul_transpose_vec(&y, &mut kty);
        x_step(&x, &kty, &s.c, &s.lb, &s.ub, step / omega, w, &mut x_new, &mut extrap, &mut x_avg);
        s.k_sliced.mul_vec(&extrap, &mut kx);
        y_step(&kx, &s.q, &s.is_eq, step * omega, w, &mut y, &mut y_avg);
        std::mem::swap(&mut x, &mut x_new);

        if !iterations.is_multiple_of(CHECK_EVERY) {
            continue;
        }
        // Convergence and restart logic: evaluate both candidates.
        let res_cur = kkt_residuals(&s, &x, &y, &mut kx, &mut kty);
        let res_avg = kkt_residuals(&s, &x_avg, &y_avg, &mut kx, &mut kty);
        let (use_avg, res) =
            if res_avg.worst() < res_cur.worst() { (true, res_avg) } else { (false, res_cur) };
        if res.worst() < cfg.tol {
            if use_avg {
                x.copy_from_slice(&x_avg);
                y.copy_from_slice(&y_avg);
            }
            status = Status::Optimal;
            break;
        }
        // Restart when the best candidate has substantially improved on the
        // residual recorded at the previous restart, or unconditionally
        // after a long stretch (PDLP's "artificial restart" — plain PDHG
        // stalls without it on degenerate LPs).
        let long_stretch = avg_count >= 6000;
        if res.worst() < 0.2 * best_res_at_restart || long_stretch {
            restarts += 1;
            if use_avg {
                x.copy_from_slice(&x_avg);
                y.copy_from_slice(&y_avg);
            }
            // Primal-weight update from movement since last restart.
            let dx: f64 = x
                .iter()
                .zip(x_at_restart.iter())
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            let dy: f64 = y
                .iter()
                .zip(y_at_restart.iter())
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            if dx > 1e-10 && dy > 1e-10 {
                // Geometric mean of the old weight and the observed
                // dual/primal movement ratio (PDLP's smoothed update).
                omega = ((dy / dx) * omega).sqrt().clamp(1e-4, 1e4);
            }
            x_at_restart.copy_from_slice(&x);
            y_at_restart.copy_from_slice(&y);
            x_avg.copy_from_slice(&x);
            y_avg.copy_from_slice(&y);
            avg_count = 0;
            best_res_at_restart = best_res_at_restart.min(res.worst());
        }
    }

    // Map back to user space.
    let x_user: Vec<f64> = (0..n).map(|j| x[j] * s.col_scale[j]).collect();
    let min_obj: f64 = x_user.iter().zip(&lp.obj).map(|(a, b)| a * b).sum::<f64>();
    let duals: Vec<f64> =
        (0..m).map(|i| lp.obj_sign * s.row_sign[i] * y[i] * s.row_scale[i]).collect();
    Solution {
        status,
        objective: lp.user_objective(min_obj),
        x: x_user,
        duals,
        basis: None,
        stats: SolveStats {
            iterations,
            rows: m,
            cols: n,
            nnz: lp.a.nnz(),
            backend: BackendKind::Pdhg,
            warm,
            restarts,
            ..SolveStats::default()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinExpr, Model, Objective, Sense};

    fn solve_model(m: &Model) -> Solution {
        solve(&m.to_standard(), &PdhgConfig::default())
    }

    fn textbook_lp() -> StandardLp {
        let mut m = Model::new();
        let x = m.add_nonneg();
        let y = m.add_nonneg();
        m.add_con(LinExpr::term(x, 1.0), Sense::Le, 4.0);
        m.add_con(LinExpr::term(y, 2.0), Sense::Le, 12.0);
        m.add_con(LinExpr::new().add(x, 3.0).add(y, 2.0), Sense::Le, 18.0);
        m.set_objective(LinExpr::new().add(x, 3.0).add(y, 5.0), Objective::Maximize);
        m.to_standard()
    }

    #[test]
    fn textbook_max_lp() {
        let s = solve(&textbook_lp(), &PdhgConfig::default());
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 36.0).abs() < 1e-3, "obj {}", s.objective);
    }

    #[test]
    fn warm_point_restart_matches_cold_objective() {
        let lp = textbook_lp();
        let cold = solve(&lp, &PdhgConfig::default());
        assert_eq!(cold.status, Status::Optimal);
        let point = crate::warm::PrimalDual { x: cold.x.clone(), y: cold.duals.clone() };
        let warm = solve_warm(&lp, &PdhgConfig::default(), Some(&point));
        assert_eq!(warm.status, Status::Optimal);
        assert_eq!(warm.stats.warm, crate::warm::WarmEvent::Hit);
        assert_eq!(warm.stats.backend, crate::warm::BackendKind::Pdhg);
        assert!((warm.objective - cold.objective).abs() < 1e-3);
        // Starting at the converged point, the residual check should pass
        // far sooner than from the origin.
        assert!(warm.stats.iterations <= cold.stats.iterations);
    }

    #[test]
    fn dimension_mismatched_warm_point_is_a_miss() {
        let mut m = Model::new();
        let x = m.add_nonneg();
        m.add_con(LinExpr::term(x, 1.0), Sense::Le, 3.0);
        m.set_objective(LinExpr::term(x, 1.0), Objective::Maximize);
        let bogus = crate::warm::PrimalDual { x: vec![1.0; 9], y: vec![] };
        let s = solve_warm(&m.to_standard(), &PdhgConfig::default(), Some(&bogus));
        assert_eq!(s.status, Status::Optimal);
        assert_eq!(s.stats.warm, crate::warm::WarmEvent::Miss);
        assert!((s.objective - 3.0).abs() < 1e-3);
    }

    #[test]
    fn nan_tolerance_is_refused() {
        let s = solve(&textbook_lp(), &PdhgConfig { tol: f64::NAN });
        assert_eq!(s.status, Status::NumericalTrouble);
        assert_eq!(s.stats.iterations, 0);
        assert!(s.warm_start().is_none(), "a refused solve must not hand on a point");
    }

    #[test]
    fn fused_steps_match_the_five_loops() {
        // The loops `x_step` and `y_step` replaced, written out: primal step,
        // extrapolation, dual step, then the two running averages. The
        // vectors reach both clamps, an infinite bound, `-0.0`, an equality
        // row going negative and an inequality row clipped at zero.
        let (tau, sigma, w) = (0.3f64, 0.7f64, 0.25f64);
        let x = [1.0f64, -0.0, 5.0, 2.5, 0.0];
        let kty = [0.5, 0.0, -4.0, 100.0, 0.0];
        let c = [2.0, 0.0, 1.0, -1.0, 0.0];
        let lb = [0.0, 0.0, 0.0, f64::NEG_INFINITY, 0.0];
        let ub = [10.0, 1.0, 3.0, f64::INFINITY, 0.0];
        let x_avg = [0.5, 0.0, 4.0, -1.0, 0.0];
        let y = [0.0f64, 2.0, -1.5, 0.25];
        let q = [1.0, -3.0, 0.5, 0.0];
        let is_eq = [false, false, true, true];
        let y_avg = [0.0, 1.0, -2.0, 0.5];

        let (mut x_new, mut extrap) = ([0.0; 5], [0.0; 5]);
        for j in 0..5 {
            let v = x[j] - tau * (c[j] - kty[j]);
            x_new[j] = v.clamp(lb[j], ub[j]);
        }
        for j in 0..5 {
            extrap[j] = 2.0 * x_new[j] - x[j];
        }
        let kx = [extrap[0] + extrap[2], -extrap[1], 3.0 * extrap[3], extrap[4] - 1.0];
        let mut y_want = y;
        for i in 0..4 {
            let v = y_want[i] + sigma * (q[i] - kx[i]);
            y_want[i] = if is_eq[i] { v } else { v.max(0.0) };
        }
        let (mut x_avg_want, mut y_avg_want) = (x_avg, y_avg);
        for j in 0..5 {
            x_avg_want[j] += (x_new[j] - x_avg_want[j]) * w;
        }
        for i in 0..4 {
            y_avg_want[i] += (y_want[i] - y_avg_want[i]) * w;
        }

        let (mut x_got, mut extrap_got, mut x_avg_got) = ([0.0; 5], [0.0; 5], x_avg);
        x_step(&x, &kty, &c, &lb, &ub, tau, w, &mut x_got, &mut extrap_got, &mut x_avg_got);
        let (mut y_got, mut y_avg_got) = (y, y_avg);
        y_step(&kx, &q, &is_eq, sigma, w, &mut y_got, &mut y_avg_got);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&x_got), bits(&x_new));
        assert_eq!(bits(&extrap_got), bits(&extrap));
        assert_eq!(bits(&x_avg_got), bits(&x_avg_want));
        assert_eq!(bits(&y_got), bits(&y_want));
        assert_eq!(bits(&y_avg_got), bits(&y_avg_want));
        assert!(x_new[1].is_sign_negative() && x_new[2] == 3.0 && x_new[3] > 30.0);
        assert!(y_want[1] == 0.0 && y_want[2] < 0.0);
    }

    #[test]
    fn equality_and_ge_rows() {
        let mut m = Model::new();
        let x = m.add_nonneg();
        let y = m.add_nonneg();
        m.add_con(LinExpr::new().add(x, 1.0).add(y, 1.0), Sense::Eq, 10.0);
        m.add_con(LinExpr::term(x, 1.0), Sense::Ge, 2.0);
        m.set_objective(LinExpr::new().add(x, 3.0).add(y, 1.0), Objective::Minimize);
        let s = solve_model(&m);
        assert_eq!(s.status, Status::Optimal);
        // Optimum at x=2, y=8, obj 14.
        assert!((s.objective - 14.0).abs() < 1e-2, "obj {}", s.objective);
    }

    #[test]
    fn badly_scaled_problem_is_equilibrated() {
        // Coefficients spanning six orders of magnitude.
        let mut m = Model::new();
        let x = m.add_var(0.0, 1e6);
        let y = m.add_var(0.0, 10.0);
        m.add_con(LinExpr::new().add(x, 1e-3).add(y, 1e3), Sense::Le, 2e3);
        m.set_objective(LinExpr::new().add(x, 1e-3).add(y, 1.0), Objective::Maximize);
        let s = solve_model(&m);
        assert_eq!(s.status, Status::Optimal);
        // Best: x = 1e6 uses 1e3 of the budget, leaving y = 1 => obj 1001.
        assert!((s.objective - 1001.0).abs() / 1001.0 < 1e-3, "obj {}", s.objective);
    }

    #[test]
    fn matches_simplex_on_flow_like_lp() {
        // A small multi-commodity-flow-shaped LP.
        let mut m = Model::new();
        let vars: Vec<_> = (0..6).map(|_| m.add_var(0.0, 10.0)).collect();
        // Two shared capacity rows.
        m.add_con(LinExpr::sum_vars(vars[0..3].iter().copied()), Sense::Le, 12.0);
        m.add_con(LinExpr::sum_vars(vars[3..6].iter().copied()), Sense::Le, 7.0);
        m.add_con(LinExpr::new().add(vars[0], 1.0).add(vars[3], 1.0), Sense::Le, 8.0);
        m.set_objective(LinExpr::sum_vars(vars.iter().copied()), Objective::Maximize);
        let simplex = crate::simplex::solve(&m.to_standard(), &Default::default());
        let pdhg = solve_model(&m);
        assert_eq!(pdhg.status, Status::Optimal);
        assert!(
            (pdhg.objective - simplex.objective).abs() < 1e-3,
            "pdhg {} vs simplex {}",
            pdhg.objective,
            simplex.objective
        );
    }

    #[test]
    fn solution_is_feasible_within_tolerance() {
        let mut m = Model::new();
        let x = m.add_nonneg();
        let y = m.add_nonneg();
        m.add_con(LinExpr::new().add(x, 2.0).add(y, 1.0), Sense::Le, 10.0);
        m.add_con(LinExpr::new().add(x, 1.0).add(y, 3.0), Sense::Le, 15.0);
        m.set_objective(LinExpr::new().add(x, 1.0).add(y, 1.0), Objective::Maximize);
        let s = solve_model(&m);
        assert!(s.violation(&m) < 1e-3, "violation {}", s.violation(&m));
    }
}
