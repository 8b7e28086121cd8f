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

use crate::batch::BatchedModel;
use crate::model::{Sense, StandardLp};
use crate::solution::{Solution, SolveStats, Status};
use crate::sparse::{CscMatrix, CsrMatrix};
use crate::warm::{BackendKind, PrimalDual, WarmEvent};

/// Tunable knobs for the PDHG solver.
#[derive(Debug, Clone)]
pub struct PdhgConfig {
    /// Relative KKT tolerance (primal residual, dual residual, gap).
    pub tol: f64,
    /// Hard iteration limit.
    pub max_iters: usize,
    /// Check convergence/restarts every this many iterations.
    pub check_every: usize,
    /// Ruiz equilibration sweeps applied before solving.
    pub ruiz_iters: usize,
    /// Wall-clock limit in seconds (`f64::INFINITY` to disable).
    pub time_limit: f64,
}

impl Default for PdhgConfig {
    fn default() -> Self {
        PdhgConfig {
            tol: 1e-6,
            max_iters: 400_000,
            check_every: 64,
            ruiz_iters: 12,
            time_limit: f64::INFINITY,
        }
    }
}

/// The scaled problem `min c'x  s.t.  K x (>=|=) q,  l <= x <= u` plus the
/// diagonal scalings needed to map a solution back to user space.
struct Scaled {
    k: CsrMatrix,
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

/// The lane-independent part of the scaling: the `>=`-oriented,
/// Ruiz-equilibrated matrix plus the diagonal scalings. Computed once per
/// batch and shared across every lane ([`solve_batch`]); the sequential
/// path builds one and applies it to its single lane.
struct SharedScaling {
    k: CsrMatrix,
    is_eq: Vec<bool>,
    col_scale: Vec<f64>,
    row_scale: Vec<f64>,
    row_sign: Vec<f64>,
}

fn scale_shared(a: &CsrMatrix, senses: &[Sense], ruiz_iters: usize) -> SharedScaling {
    let m = a.rows();
    let n = a.cols();
    // Orient all inequality rows as `>=`.
    let mut triplets = Vec::with_capacity(a.nnz());
    let mut row_sign = vec![1.0; m];
    let mut is_eq = vec![false; m];
    for i in 0..m {
        let sign = match senses[i] {
            Sense::Le => -1.0,
            Sense::Ge | Sense::Eq => 1.0,
        };
        row_sign[i] = sign;
        is_eq[i] = senses[i] == Sense::Eq;
        for (j, v) in a.row(i) {
            triplets.push((i, j, sign * v));
        }
    }
    let mut k = CsrMatrix::from_triplets(m, n, &triplets);
    // Ruiz equilibration: repeatedly divide rows/cols by the square root of
    // their infinity norm until the matrix is roughly balanced.
    let mut row_scale = vec![1.0; m];
    let mut col_scale = vec![1.0; n];
    for _ in 0..ruiz_iters {
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
    SharedScaling { k, is_eq, col_scale, row_scale, row_sign }
}

/// Applies a [`SharedScaling`] to one lane's data, returning scaled
/// `(q, c, lb, ub)`.
///
/// The arithmetic — `(sign · rhs) · row_scale` as two separate products,
/// `obj · col_scale`, bounds divided by `col_scale` — reproduces the
/// historical single-LP path operation for operation, which is what makes
/// batched lanes bitwise equal to sequential solves.
fn scale_lane(
    sh: &SharedScaling,
    rhs: &[f64],
    obj: &[f64],
    lb: &[f64],
    ub: &[f64],
) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
    let m = rhs.len();
    let n = obj.len();
    // Substitute x_user = D_c x, premultiply rows by D_r:
    //   objective  (D_c c)' x
    //   rhs        D_r q
    //   bounds     l / d_c <= x <= u / d_c
    let mut q: Vec<f64> = (0..m).map(|i| sh.row_sign[i] * rhs[i]).collect();
    let c: Vec<f64> = (0..n).map(|j| obj[j] * sh.col_scale[j]).collect();
    let lb: Vec<f64> = (0..n).map(|j| lb[j] / sh.col_scale[j]).collect();
    let ub: Vec<f64> = (0..n).map(|j| ub[j] / sh.col_scale[j]).collect();
    for (qi, scale) in q.iter_mut().zip(&sh.row_scale) {
        *qi *= scale;
    }
    (q, c, lb, ub)
}

fn build_scaled(lp: &StandardLp, ruiz_iters: usize) -> Scaled {
    let sh = scale_shared(&lp.a, &lp.senses, ruiz_iters);
    let (q, c, lb, ub) = scale_lane(&sh, &lp.rhs, &lp.obj, &lp.lb, &lp.ub);
    Scaled {
        k: sh.k,
        q,
        is_eq: sh.is_eq,
        c,
        lb,
        ub,
        col_scale: sh.col_scale,
        row_scale: sh.row_scale,
        row_sign: sh.row_sign,
    }
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
    s.k.mul_vec(x, kx);
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
pub fn solve_warm(lp: &StandardLp, cfg: &PdhgConfig, start_point: Option<&PrimalDual>) -> Solution {
    // arrow-lint: allow(wall-clock-in-core) — solve wall time reported in SolveStats; iteration counts, not time, bound the solve
    let start = std::time::Instant::now();
    let n = lp.num_vars();
    let m = lp.num_cons();
    if m == 0 {
        // Delegate the constraint-free case to simplex's closed form.
        return crate::simplex::solve(lp, &crate::simplex::SimplexConfig::default());
    }
    let s = build_scaled(lp, cfg.ruiz_iters);
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

    while iterations < cfg.max_iters {
        // One PDHG step.
        let tau = step / omega;
        let sigma = step * omega;
        s.k.mul_transpose_vec(&y, &mut kty);
        for j in 0..n {
            let v = x[j] - tau * (s.c[j] - kty[j]);
            x_new[j] = v.clamp(s.lb[j], s.ub[j]);
        }
        for j in 0..n {
            extrap[j] = 2.0 * x_new[j] - x[j];
        }
        s.k.mul_vec(&extrap, &mut kx);
        for i in 0..m {
            let v = y[i] + sigma * (s.q[i] - kx[i]);
            y[i] = if s.is_eq[i] { v } else { v.max(0.0) };
        }
        std::mem::swap(&mut x, &mut x_new);
        iterations += 1;

        // Accumulate running averages.
        avg_count += 1;
        let w = 1.0 / avg_count as f64;
        for j in 0..n {
            x_avg[j] += (x[j] - x_avg[j]) * w;
        }
        for i in 0..m {
            y_avg[i] += (y[i] - y_avg[i]) * w;
        }

        if !iterations.is_multiple_of(cfg.check_every) {
            continue;
        }
        if start.elapsed().as_secs_f64() > cfg.time_limit {
            status = Status::TimeLimit;
            break;
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
    let min_obj: f64 = lp.obj_offset + x_user.iter().zip(&lp.obj).map(|(a, b)| a * b).sum::<f64>();
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
            solve_seconds: start.elapsed().as_secs_f64(),
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

// ---------------------------------------------------------------------------
// Batched multi-RHS kernel
// ---------------------------------------------------------------------------

/// Lane-block width for the register-blocked matvec kernels: one block is
/// two AVX2 vectors of accumulators, small enough that LLVM keeps the
/// whole block in registers across a row's nonzeros.
const LANE_CHUNK: usize = 8;

/// Computes `out[i·L+l] = Σ_j K[i,j] · x[j·L+l]` for every active lane.
/// Per lane, contributions accumulate in the same `(row, nonzero)` order
/// as [`CsrMatrix::mul_vec`], so the sums are bitwise identical.
///
/// The full-width path is register-blocked: [`LANE_CHUNK`] accumulators
/// live in registers across all of a row's nonzeros, so each nonzero costs
/// one panel load and a mul-add — no read-modify-write of `out` per
/// nonzero. The output is stored once per `(row, block)`.
///
/// `#[inline(never)]` on this and the other panel kernels is load-bearing:
/// the caller's iterate buffers are pointer-swapped every iteration, which
/// merges their provenance and makes LLVM give up on vectorizing inlined
/// copies. A function boundary restores the slices' noalias guarantees.
#[inline(never)]
fn batch_mul(k: &CsrMatrix, x: &[f64], out: &mut [f64], nl: usize, active: &[usize]) {
    let full = active.len() == nl;
    for i in 0..k.rows() {
        let base = i * nl;
        if full {
            let mut c0 = 0;
            while c0 + LANE_CHUNK <= nl {
                let mut acc = [0.0f64; LANE_CHUNK];
                for (j, v) in k.row(i) {
                    let xb = j * nl + c0;
                    for (a, xv) in acc.iter_mut().zip(&x[xb..xb + LANE_CHUNK]) {
                        *a += v * *xv;
                    }
                }
                out[base + c0..base + c0 + LANE_CHUNK].copy_from_slice(&acc);
                c0 += LANE_CHUNK;
            }
            if c0 < nl {
                out[base + c0..base + nl].fill(0.0);
                for (j, v) in k.row(i) {
                    let xb = j * nl;
                    for l in c0..nl {
                        out[base + l] += v * x[xb + l];
                    }
                }
            }
        } else {
            for &l in active {
                out[base + l] = 0.0;
            }
            for (j, v) in k.row(i) {
                let xb = j * nl;
                for &l in active {
                    out[base + l] += v * x[xb + l];
                }
            }
        }
    }
}

/// Computes `out[j·L+l] = Σ_i K[i,j] · y[i·L+l]` for every active lane,
/// from the *column-major* copy of `K` so the transpose product becomes a
/// register-blocked row sweep like [`batch_mul`].
///
/// Bitwise contract, in two steps. First, [`CscMatrix`] stores each
/// column's entries in ascending row order ([`CsrMatrix::to_csc`] is a
/// stable counting sort), which is exactly the order
/// [`CsrMatrix::mul_transpose_vec`] visits them — so per `(j, lane)` the
/// accumulation order matches the sequential kernel. Second, the
/// sequential kernel skips zero `y` entries while this one adds them
/// unconditionally, which is bitwise identical: the accumulator starts at
/// `+0.0` and can never become `-0.0` (opposite-signed zeros and exact
/// cancellations both sum to `+0.0` under round-to-nearest), so adding a
/// `v · (±0.0)` contribution never changes its bits.
#[inline(never)]
fn batch_mul_transpose(kc: &CscMatrix, y: &[f64], out: &mut [f64], nl: usize, active: &[usize]) {
    let full = active.len() == nl;
    for j in 0..kc.cols() {
        let base = j * nl;
        if full {
            let mut c0 = 0;
            while c0 + LANE_CHUNK <= nl {
                let mut acc = [0.0f64; LANE_CHUNK];
                for (i, v) in kc.col(j) {
                    let yb = i * nl + c0;
                    for (a, yv) in acc.iter_mut().zip(&y[yb..yb + LANE_CHUNK]) {
                        *a += v * *yv;
                    }
                }
                out[base + c0..base + c0 + LANE_CHUNK].copy_from_slice(&acc);
                c0 += LANE_CHUNK;
            }
            if c0 < nl {
                out[base + c0..base + nl].fill(0.0);
                for (i, v) in kc.col(j) {
                    let yb = i * nl;
                    for l in c0..nl {
                        out[base + l] += v * y[yb + l];
                    }
                }
            }
        } else {
            for &l in active {
                out[base + l] = 0.0;
            }
            for (i, v) in kc.col(j) {
                let yb = i * nl;
                for &l in active {
                    out[base + l] += v * y[yb + l];
                }
            }
        }
    }
}

/// `f64::clamp` minus its `min <= max` panic check (the scaled bounds
/// always satisfy it); the potential panic blocks vectorization. For
/// `lb <= ub` it returns identical bits, NaN propagation included.
#[inline(always)]
fn clamp2(v: f64, lb: f64, ub: f64) -> f64 {
    let w = if v < lb { lb } else { v };
    if w > ub {
        ub
    } else {
        w
    }
}

/// One fixed-width lane block of [`fused_kty_x_step`]: accumulates
/// `(Kᵀy)ⱼ` for `N` consecutive lanes in registers (the width must be a
/// compile-time constant or the accumulators spill to the stack), then
/// applies the primal update to those lanes.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn kty_x_block<const N: usize>(
    kc: &CscMatrix,
    y: &[f64],
    x: &[f64],
    c: &[f64],
    lb: &[f64],
    ub: &[f64],
    x_new: &mut [f64],
    extrap: &mut [f64],
    x_avg: &mut [f64],
    tau: &[f64],
    w_avg: &[f64],
    nl: usize,
    j: usize,
    c0: usize,
) {
    let mut acc = [0.0f64; N];
    for (i, v) in kc.col(j) {
        let yb = i * nl + c0;
        for (a, yv) in acc.iter_mut().zip(&y[yb..yb + N]) {
            *a += v * *yv;
        }
    }
    let b0 = j * nl + c0;
    let xs = &x[b0..b0 + N];
    let cs = &c[b0..b0 + N];
    let lbs = &lb[b0..b0 + N];
    let ubs = &ub[b0..b0 + N];
    let xns = &mut x_new[b0..b0 + N];
    let exs = &mut extrap[b0..b0 + N];
    let xas = &mut x_avg[b0..b0 + N];
    let taus = &tau[c0..c0 + N];
    let ws = &w_avg[c0..c0 + N];
    for t in 0..N {
        let v = xs[t] - taus[t] * (cs[t] - acc[t]);
        let xn = clamp2(v, lbs[t], ubs[t]);
        xns[t] = xn;
        exs[t] = 2.0 * xn - xs[t];
        xas[t] += (xn - xas[t]) * ws[t];
    }
}

/// The primal half-step fused with the `Kᵀy` product: for each column `j`,
/// `(Kᵀy)ⱼ` is accumulated in registers (ascending row order — see
/// [`batch_mul_transpose`] for why that matches the sequential kernel bit
/// for bit) and consumed immediately by the gradient step, box clamp,
/// extrapolation, and running-average update for that column. Fusing skips
/// a full write+read of the `Kᵀy` panel per iteration; the arithmetic and
/// its order per lane are unchanged. Kept out of line for the same noalias
/// reason as [`batch_mul`].
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn fused_kty_x_step(
    kc: &CscMatrix,
    y: &[f64],
    x: &[f64],
    c: &[f64],
    lb: &[f64],
    ub: &[f64],
    x_new: &mut [f64],
    extrap: &mut [f64],
    x_avg: &mut [f64],
    tau: &[f64],
    w_avg: &[f64],
    nl: usize,
    active: &[usize],
) {
    let full = active.len() == nl;
    for j in 0..kc.cols() {
        let base = j * nl;
        if full {
            let mut c0 = 0;
            while c0 + LANE_CHUNK <= nl {
                #[rustfmt::skip]
                kty_x_block::<LANE_CHUNK>(
                    kc, y, x, c, lb, ub, x_new, extrap, x_avg, tau, w_avg, nl, j, c0,
                );
                c0 += LANE_CHUNK;
            }
            if c0 + 4 <= nl {
                kty_x_block::<4>(kc, y, x, c, lb, ub, x_new, extrap, x_avg, tau, w_avg, nl, j, c0);
                c0 += 4;
            }
            for l in c0..nl {
                let mut a = 0.0f64;
                for (i, v) in kc.col(j) {
                    a += v * y[i * nl + l];
                }
                let v = x[base + l] - tau[l] * (c[base + l] - a);
                let xn = clamp2(v, lb[base + l], ub[base + l]);
                x_new[base + l] = xn;
                extrap[base + l] = 2.0 * xn - x[base + l];
                x_avg[base + l] += (xn - x_avg[base + l]) * w_avg[l];
            }
        } else {
            for &l in active {
                let mut a = 0.0f64;
                for (i, v) in kc.col(j) {
                    a += v * y[i * nl + l];
                }
                let v = x[base + l] - tau[l] * (c[base + l] - a);
                let xn = clamp2(v, lb[base + l], ub[base + l]);
                x_new[base + l] = xn;
                extrap[base + l] = 2.0 * xn - x[base + l];
                x_avg[base + l] += (xn - x_avg[base + l]) * w_avg[l];
            }
        }
    }
}

/// One fixed-width lane block of [`fused_kx_y_step`]: accumulates `(Kx̄)ᵢ`
/// for `N` consecutive lanes in registers, then applies the dual update to
/// those lanes.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn kx_y_block<const N: usize>(
    k: &CsrMatrix,
    extrap: &[f64],
    y: &mut [f64],
    q: &[f64],
    y_avg: &mut [f64],
    sigma: &[f64],
    w_avg: &[f64],
    eq: bool,
    nl: usize,
    i: usize,
    c0: usize,
) {
    let mut acc = [0.0f64; N];
    for (j, v) in k.row(i) {
        let xb = j * nl + c0;
        for (a, xv) in acc.iter_mut().zip(&extrap[xb..xb + N]) {
            *a += v * *xv;
        }
    }
    let b0 = i * nl + c0;
    let ys = &mut y[b0..b0 + N];
    let qs = &q[b0..b0 + N];
    let yas = &mut y_avg[b0..b0 + N];
    let sigmas = &sigma[c0..c0 + N];
    let ws = &w_avg[c0..c0 + N];
    for t in 0..N {
        let v = ys[t] + sigmas[t] * (qs[t] - acc[t]);
        let yn = if eq { v } else { v.max(0.0) };
        ys[t] = yn;
        yas[t] += (yn - yas[t]) * ws[t];
    }
}

/// The dual half-step fused with the `K·x̄` product: for each row `i`,
/// `(K·x̄)ᵢ` is accumulated in registers in the row's nonzero order (the
/// same order as [`CsrMatrix::mul_vec`]) and consumed immediately by the
/// gradient step, the nonnegativity projection for inequality rows, and
/// the running-average update. Skips a full write+read of the `Kx` panel
/// per iteration; arithmetic and per-lane order are unchanged. Out of line
/// for the same noalias reason as [`batch_mul`].
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn fused_kx_y_step(
    k: &CsrMatrix,
    extrap: &[f64],
    y: &mut [f64],
    q: &[f64],
    y_avg: &mut [f64],
    sigma: &[f64],
    w_avg: &[f64],
    is_eq: &[bool],
    nl: usize,
    active: &[usize],
) {
    let full = active.len() == nl;
    for (i, &eq) in is_eq.iter().enumerate() {
        let base = i * nl;
        if full {
            let mut c0 = 0;
            while c0 + LANE_CHUNK <= nl {
                kx_y_block::<LANE_CHUNK>(k, extrap, y, q, y_avg, sigma, w_avg, eq, nl, i, c0);
                c0 += LANE_CHUNK;
            }
            if c0 + 4 <= nl {
                kx_y_block::<4>(k, extrap, y, q, y_avg, sigma, w_avg, eq, nl, i, c0);
                c0 += 4;
            }
            for l in c0..nl {
                let mut a = 0.0f64;
                for (j, v) in k.row(i) {
                    a += v * extrap[j * nl + l];
                }
                let v = y[base + l] + sigma[l] * (q[base + l] - a);
                let yn = if eq { v } else { v.max(0.0) };
                y[base + l] = yn;
                y_avg[base + l] += (yn - y_avg[base + l]) * w_avg[l];
            }
        } else {
            for &l in active {
                let mut a = 0.0f64;
                for (j, v) in k.row(i) {
                    a += v * extrap[j * nl + l];
                }
                let v = y[base + l] + sigma[l] * (q[base + l] - a);
                let yn = if eq { v } else { v.max(0.0) };
                y[base + l] = yn;
                y_avg[base + l] += (yn - y_avg[base + l]) * w_avg[l];
            }
        }
    }
}

/// Scaled per-lane data panels (lane-innermost, stride = lane count) plus
/// the shared scaling, for the batched kernel.
struct Panel<'a> {
    sh: &'a SharedScaling,
    nl: usize,
    q: Vec<f64>,
    c: Vec<f64>,
    lb: Vec<f64>,
    ub: Vec<f64>,
    /// Per-lane ‖q‖∞ / ‖c‖∞ (constant across checks; cached).
    qn: Vec<f64>,
    cn: Vec<f64>,
}

/// Terminal per-lane counters handed to [`Panel::finalize`].
struct LaneOutcome {
    status: Status,
    iterations: usize,
    restarts: usize,
}

impl Panel<'_> {
    /// KKT residuals of lane `l`'s candidate `(x, y)`; float-op order
    /// matches [`kkt_residuals`] exactly (given precomputed `Kx`, `Kᵀy`).
    fn residuals(&self, l: usize, x: &[f64], y: &[f64], kx: &[f64], kty: &[f64]) -> Residuals {
        let nl = self.nl;
        let m = self.sh.k.rows();
        let n = self.sh.k.cols();
        let mut pr = 0.0f64;
        for i in 0..m {
            let r = self.q[i * nl + l] - kx[i * nl + l];
            let v = if self.sh.is_eq[i] { r.abs() } else { r.max(0.0) };
            pr = pr.max(v);
        }
        let mut dr = 0.0f64;
        let mut dual_obj = 0.0f64;
        for i in 0..m {
            dual_obj += self.q[i * nl + l] * y[i * nl + l];
        }
        for j in 0..n {
            let r = self.c[j * nl + l] - kty[j * nl + l];
            if r > 0.0 {
                if self.lb[j * nl + l].is_finite() {
                    dual_obj += self.lb[j * nl + l] * r;
                } else {
                    dr = dr.max(r);
                }
            } else if r < 0.0 {
                if self.ub[j * nl + l].is_finite() {
                    dual_obj += self.ub[j * nl + l] * r;
                } else {
                    dr = dr.max(-r);
                }
            }
        }
        let mut primal_obj = 0.0f64;
        for j in 0..n {
            primal_obj += self.c[j * nl + l] * x[j * nl + l];
        }
        let gap = (primal_obj - dual_obj).abs() / (1.0 + primal_obj.abs() + dual_obj.abs());
        Residuals {
            rel_primal: pr / (1.0 + self.qn[l]),
            rel_dual: dr / (1.0 + self.cn[l]),
            rel_gap: gap,
        }
    }

    /// Maps lane `l`'s scaled iterate back to user space, mirroring the tail
    /// of [`solve_warm`] operation for operation.
    fn finalize(
        &self,
        batch: &BatchedModel,
        x: &[f64],
        y: &[f64],
        l: usize,
        outcome: LaneOutcome,
    ) -> Solution {
        let nl = self.nl;
        let m = self.sh.k.rows();
        let n = self.sh.k.cols();
        let lane = batch.lane(l);
        let x_user: Vec<f64> = (0..n).map(|j| x[j * nl + l] * self.sh.col_scale[j]).collect();
        let min_obj: f64 =
            lane.obj_offset + x_user.iter().zip(lane.obj).map(|(a, b)| a * b).sum::<f64>();
        let duals: Vec<f64> = (0..m)
            .map(|i| lane.obj_sign * self.sh.row_sign[i] * y[i * nl + l] * self.sh.row_scale[i])
            .collect();
        Solution {
            status: outcome.status,
            objective: lane.obj_sign * min_obj,
            x: x_user,
            duals,
            basis: None,
            stats: SolveStats {
                iterations: outcome.iterations,
                rows: m,
                cols: n,
                nnz: batch.nnz(),
                backend: BackendKind::Pdhg,
                warm: WarmEvent::Cold,
                restarts: outcome.restarts,
                lanes: nl,
                ..SolveStats::default()
            },
        }
    }
}

/// Copies lane `l` of the `src` panel into `dst` (stride `nl`).
fn copy_lane(dst: &mut [f64], src: &[f64], nl: usize, l: usize) {
    let mut idx = l;
    while idx < dst.len() {
        dst[idx] = src[idx];
        idx += nl;
    }
}

/// Solves every lane of a [`BatchedModel`] with restarted, averaged PDHG.
///
/// One sweep of the shared matrix per iteration updates every live lane
/// (struct-of-arrays panels, lane-innermost); per-lane convergence masks
/// freeze lanes the moment they converge, so finished scenarios stop
/// costing work. Each lane's floating-point operation sequence is identical
/// to [`solve`] on that lane alone, so per-lane results are **bitwise
/// equal** to the sequential path (pinned by tests here and in
/// `arrow-core`). Warm starts are not supported — batch callers route warm
/// solves through the sequential path.
///
/// Deliberate accounting deviations from per-lane sequential semantics:
/// `cfg.time_limit` is enforced against the *batch* clock (identical
/// behaviour at the default infinite limit), each lane's
/// [`SolveStats::solve_seconds`] is its amortized share of the batch wall
/// time, and [`SolveStats::lanes`] records the panel width.
///
/// A constraint-free batch delegates each lane to the simplex closed form
/// exactly like the sequential path — this covers scenarios with zero cut
/// links, whose RWA LPs have no variables or rows at all.
pub fn solve_batch(batch: &BatchedModel, cfg: &PdhgConfig) -> Vec<Solution> {
    // arrow-lint: allow(wall-clock-in-core) — batch wall time feeds SolveStats; iteration counts, not time, bound the solve
    let start = std::time::Instant::now();
    let nl = batch.num_lanes();
    if nl == 0 {
        return Vec::new();
    }
    let m = batch.num_cons();
    let n = batch.num_vars();
    if m == 0 {
        // Delegate the constraint-free case to simplex's closed form, lane
        // by lane (mirrors `solve_warm`).
        let mut sols: Vec<Solution> = (0..nl)
            .map(|l| {
                crate::simplex::solve(
                    &batch.lane_standard(l),
                    &crate::simplex::SimplexConfig::default(),
                )
            })
            .collect();
        let share = start.elapsed().as_secs_f64() / nl as f64;
        for s in &mut sols {
            s.stats.solve_seconds = share;
            s.stats.lanes = nl;
        }
        return sols;
    }

    let sh = scale_shared(batch.matrix(), batch.senses(), cfg.ruiz_iters);
    // Column-major copy of the scaled matrix: the transpose products sweep
    // it row-wise (see `batch_mul_transpose`). One O(nnz) build, amortized
    // over every iteration of every lane.
    let kc = sh.k.to_csc();
    let knorm = sh.k.spectral_norm_estimate(60).max(1e-12);
    let step = 0.9 / knorm;

    let mut panel = Panel {
        sh: &sh,
        nl,
        q: vec![0.0; m * nl],
        c: vec![0.0; n * nl],
        lb: vec![0.0; n * nl],
        ub: vec![0.0; n * nl],
        qn: vec![0.0; nl],
        cn: vec![0.0; nl],
    };
    let mut omega = vec![1.0f64; nl];
    for (l, om) in omega.iter_mut().enumerate() {
        let lane = batch.lane(l);
        let (ql, cl, lbl, ubl) = scale_lane(&sh, lane.rhs, lane.obj, lane.lb, lane.ub);
        for (i, &qv) in ql.iter().enumerate() {
            panel.q[i * nl + l] = qv;
        }
        for j in 0..n {
            panel.c[j * nl + l] = cl[j];
            panel.lb[j * nl + l] = lbl[j];
            panel.ub[j * nl + l] = ubl[j];
        }
        panel.qn[l] = ql.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        panel.cn[l] = cl.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        *om = {
            // Initial primal weight balances objective and rhs magnitudes.
            let cn2 = cl.iter().map(|v| v * v).sum::<f64>().sqrt();
            let qn2 = ql.iter().map(|v| v * v).sum::<f64>().sqrt();
            if cn2 > 1e-12 && qn2 > 1e-12 {
                (cn2 / qn2).clamp(1e-4, 1e4)
            } else {
                1.0
            }
        };
    }

    // Iterate panels and per-lane control state.
    let mut x = vec![0.0f64; n * nl];
    for l in 0..nl {
        for j in 0..n {
            let mut v = panel.lb[j * nl + l].max(0.0).min(panel.ub[j * nl + l]);
            if !v.is_finite() {
                v = 0.0;
            }
            x[j * nl + l] = v;
        }
    }
    let mut y = vec![0.0f64; m * nl];
    let mut x_avg = x.clone();
    let mut y_avg = y.clone();
    let mut x_at_restart = x.clone();
    let mut y_at_restart = y.clone();
    let mut x_new = vec![0.0f64; n * nl];
    let mut extrap = vec![0.0f64; n * nl];
    let mut kx = vec![0.0f64; m * nl];
    let mut kty = vec![0.0f64; n * nl];

    let mut avg_count = vec![0usize; nl];
    let mut best_res_at_restart = vec![f64::INFINITY; nl];
    let mut restarts = vec![0usize; nl];
    let mut tau = vec![0.0f64; nl];
    let mut sigma = vec![0.0f64; nl];
    let mut w_avg = vec![0.0f64; nl];
    let mut out: Vec<Option<Solution>> = (0..nl).map(|_| None).collect();
    let mut active: Vec<usize> = (0..nl).collect();
    let mut iterations = 0usize;
    let mut timed_out = false;

    while !active.is_empty() && iterations < cfg.max_iters {
        // One PDHG step across all live lanes: the K'y product fused with
        // the primal update, then K·extrap fused with the dual update —
        // see `fused_kty_x_step` / `fused_kx_y_step` for the layout and
        // the bitwise argument.
        for &l in &active {
            tau[l] = step / omega[l];
            sigma[l] = step * omega[l];
            avg_count[l] += 1;
            w_avg[l] = 1.0 / avg_count[l] as f64;
        }
        fused_kty_x_step(
            &kc,
            &y,
            &x,
            &panel.c,
            &panel.lb,
            &panel.ub,
            &mut x_new,
            &mut extrap,
            &mut x_avg,
            &tau,
            &w_avg,
            nl,
            &active,
        );
        fused_kx_y_step(
            &sh.k, &extrap, &mut y, &panel.q, &mut y_avg, &sigma, &w_avg, &sh.is_eq, nl, &active,
        );
        std::mem::swap(&mut x, &mut x_new);
        iterations += 1;

        if !iterations.is_multiple_of(cfg.check_every) {
            continue;
        }
        if start.elapsed().as_secs_f64() > cfg.time_limit {
            timed_out = true;
            break;
        }
        // Convergence and restart logic: evaluate both candidates per lane.
        batch_mul(&sh.k, &x, &mut kx, nl, &active);
        batch_mul_transpose(&kc, &y, &mut kty, nl, &active);
        let worst_cur: Vec<f64> =
            active.iter().map(|&l| panel.residuals(l, &x, &y, &kx, &kty).worst()).collect();
        batch_mul(&sh.k, &x_avg, &mut kx, nl, &active);
        batch_mul_transpose(&kc, &y_avg, &mut kty, nl, &active);
        let mut frozen: Vec<usize> = Vec::new();
        for (pos, &l) in active.iter().enumerate() {
            let worst_avg = panel.residuals(l, &x_avg, &y_avg, &kx, &kty).worst();
            let (use_avg, worst) = if worst_avg < worst_cur[pos] {
                (true, worst_avg)
            } else {
                (false, worst_cur[pos])
            };
            if worst < cfg.tol {
                if use_avg {
                    copy_lane(&mut x, &x_avg, nl, l);
                    copy_lane(&mut y, &y_avg, nl, l);
                }
                let outcome =
                    LaneOutcome { status: Status::Optimal, iterations, restarts: restarts[l] };
                out[l] = Some(panel.finalize(batch, &x, &y, l, outcome));
                frozen.push(l);
                continue;
            }
            // Restart when the best candidate has substantially improved on
            // the residual recorded at the previous restart, or after a
            // long stretch (PDLP's "artificial restart").
            let long_stretch = avg_count[l] >= 6000;
            if worst < 0.2 * best_res_at_restart[l] || long_stretch {
                restarts[l] += 1;
                if use_avg {
                    copy_lane(&mut x, &x_avg, nl, l);
                    copy_lane(&mut y, &y_avg, nl, l);
                }
                // Primal-weight update from movement since last restart.
                let mut dx2 = 0.0f64;
                for j in 0..n {
                    let d = x[j * nl + l] - x_at_restart[j * nl + l];
                    dx2 += d * d;
                }
                let dx = dx2.sqrt();
                let mut dy2 = 0.0f64;
                for i in 0..m {
                    let d = y[i * nl + l] - y_at_restart[i * nl + l];
                    dy2 += d * d;
                }
                let dy = dy2.sqrt();
                if dx > 1e-10 && dy > 1e-10 {
                    omega[l] = ((dy / dx) * omega[l]).sqrt().clamp(1e-4, 1e4);
                }
                copy_lane(&mut x_at_restart, &x, nl, l);
                copy_lane(&mut y_at_restart, &y, nl, l);
                copy_lane(&mut x_avg, &x, nl, l);
                copy_lane(&mut y_avg, &y, nl, l);
                avg_count[l] = 0;
                best_res_at_restart[l] = best_res_at_restart[l].min(worst);
            }
        }
        if !frozen.is_empty() {
            active.retain(|l| !frozen.contains(l));
        }
    }

    // Lanes still live at the limit keep their best iterate.
    let tail = if timed_out { Status::TimeLimit } else { Status::IterationLimit };
    for &l in &active {
        let outcome = LaneOutcome { status: tail, iterations, restarts: restarts[l] };
        out[l] = Some(panel.finalize(batch, &x, &y, l, outcome));
    }
    let share = start.elapsed().as_secs_f64() / nl as f64;
    out.into_iter()
        .map(|sol| {
            let mut s = sol.unwrap_or_else(|| Solution::failed(Status::NumericalTrouble, n, m));
            s.stats.solve_seconds = share;
            s
        })
        .collect()
}

#[cfg(test)]
mod batch_tests {
    use super::*;
    use crate::model::{LinExpr, Model, Objective, Sense};

    fn lane_model(cap1: f64, cap2: f64) -> Model {
        let mut m = Model::new();
        let x = m.add_nonneg("x");
        let y = m.add_nonneg("y");
        let z = m.add_var(0.0, 5.0, "z");
        m.add_con(LinExpr::new().add(x, 1.0).add(y, 2.0), Sense::Le, cap1, "c1");
        m.add_con(LinExpr::new().add(x, 3.0).add(y, 2.0).add(z, 1.0), Sense::Le, cap2, "c2");
        m.add_con(LinExpr::new().add(y, 1.0).add(z, 1.0), Sense::Ge, 1.0, "floor");
        m.set_objective(LinExpr::new().add(x, 3.0).add(y, 5.0).add(z, 1.0), Objective::Maximize);
        m
    }

    fn assert_bitwise(a: &Solution, b: &Solution) {
        assert_eq!(a.status, b.status);
        assert_eq!(a.stats.iterations, b.stats.iterations);
        assert_eq!(a.stats.restarts, b.stats.restarts);
        assert_eq!(a.objective.to_bits(), b.objective.to_bits(), "objective bits differ");
        assert_eq!(a.x.len(), b.x.len());
        for (i, (xa, xb)) in a.x.iter().zip(&b.x).enumerate() {
            assert_eq!(xa.to_bits(), xb.to_bits(), "x[{i}] differs: {xa} vs {xb}");
        }
        assert_eq!(a.duals.len(), b.duals.len());
        for (i, (da, db)) in a.duals.iter().zip(&b.duals).enumerate() {
            assert_eq!(da.to_bits(), db.to_bits(), "dual[{i}] differs: {da} vs {db}");
        }
    }

    #[test]
    fn batched_lanes_match_sequential_bitwise() {
        for lanes in [1usize, 2, 7] {
            let models: Vec<Model> =
                (0..lanes).map(|l| lane_model(12.0 - l as f64, 18.0 + 0.5 * l as f64)).collect();
            let batch = crate::batch::BatchedModel::from_models(&models).expect("same structure");
            let cfg = PdhgConfig::default();
            let batched = solve_batch(&batch, &cfg);
            assert_eq!(batched.len(), lanes);
            for (l, model) in models.iter().enumerate() {
                let seq = solve(&model.to_standard(), &cfg);
                assert_eq!(seq.status, Status::Optimal);
                assert_bitwise(&batched[l], &seq);
                assert_eq!(batched[l].stats.lanes, lanes);
            }
        }
    }

    #[test]
    fn constraint_free_batch_uses_closed_form() {
        let models: Vec<Model> = (0..3)
            .map(|l| {
                let mut m = Model::new();
                let x = m.add_var(0.0, 5.0 + l as f64, "x");
                m.set_objective(LinExpr::term(x, 1.0), Objective::Maximize);
                m
            })
            .collect();
        let batch = crate::batch::BatchedModel::from_models(&models).expect("same structure");
        let sols = solve_batch(&batch, &PdhgConfig::default());
        for (l, s) in sols.iter().enumerate() {
            assert_eq!(s.status, Status::Optimal);
            assert!((s.objective - (5.0 + l as f64)).abs() < 1e-9);
            assert_eq!(s.stats.lanes, 3);
        }
    }

    #[test]
    fn degenerate_empty_model_lane_solves_cleanly() {
        // A scenario with zero cut links lowers to a 0-var/0-con LP.
        let batch = crate::batch::BatchedModel::from_models(&[Model::new()]).expect("one lane");
        let sols = solve_batch(&batch, &PdhgConfig::default());
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].status, Status::Optimal);
        assert_eq!(sols[0].x.len(), 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinExpr, Model, Objective, Sense};

    fn solve_model(m: &Model) -> Solution {
        solve(&m.to_standard(), &PdhgConfig::default())
    }

    #[test]
    fn textbook_max_lp() {
        let mut m = Model::new();
        let x = m.add_nonneg("x");
        let y = m.add_nonneg("y");
        m.add_con(LinExpr::term(x, 1.0), Sense::Le, 4.0, "c1");
        m.add_con(LinExpr::term(y, 2.0), Sense::Le, 12.0, "c2");
        m.add_con(LinExpr::new().add(x, 3.0).add(y, 2.0), Sense::Le, 18.0, "c3");
        m.set_objective(LinExpr::new().add(x, 3.0).add(y, 5.0), Objective::Maximize);
        let s = solve_model(&m);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 36.0).abs() < 1e-3, "obj {}", s.objective);
    }

    #[test]
    fn warm_point_restart_matches_cold_objective() {
        let mut m = Model::new();
        let x = m.add_nonneg("x");
        let y = m.add_nonneg("y");
        m.add_con(LinExpr::term(x, 1.0), Sense::Le, 4.0, "c1");
        m.add_con(LinExpr::term(y, 2.0), Sense::Le, 12.0, "c2");
        m.add_con(LinExpr::new().add(x, 3.0).add(y, 2.0), Sense::Le, 18.0, "c3");
        m.set_objective(LinExpr::new().add(x, 3.0).add(y, 5.0), Objective::Maximize);
        let lp = m.to_standard();
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
        let x = m.add_nonneg("x");
        m.add_con(LinExpr::term(x, 1.0), Sense::Le, 3.0, "c");
        m.set_objective(LinExpr::term(x, 1.0), Objective::Maximize);
        let bogus = crate::warm::PrimalDual { x: vec![1.0; 9], y: vec![] };
        let s = solve_warm(&m.to_standard(), &PdhgConfig::default(), Some(&bogus));
        assert_eq!(s.status, Status::Optimal);
        assert_eq!(s.stats.warm, crate::warm::WarmEvent::Miss);
        assert!((s.objective - 3.0).abs() < 1e-3);
    }

    #[test]
    fn equality_and_ge_rows() {
        let mut m = Model::new();
        let x = m.add_nonneg("x");
        let y = m.add_nonneg("y");
        m.add_con(LinExpr::new().add(x, 1.0).add(y, 1.0), Sense::Eq, 10.0, "sum");
        m.add_con(LinExpr::term(x, 1.0), Sense::Ge, 2.0, "floor");
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
        let x = m.add_var(0.0, 1e6, "x");
        let y = m.add_var(0.0, 10.0, "y");
        m.add_con(LinExpr::new().add(x, 1e-3).add(y, 1e3), Sense::Le, 2e3, "mix");
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
        let mut vars = Vec::new();
        for i in 0..6 {
            vars.push(m.add_var(0.0, 10.0, format!("f{i}")));
        }
        // Two shared capacity rows.
        m.add_con(LinExpr::sum_vars(vars[0..3].iter().copied()), Sense::Le, 12.0, "cap1");
        m.add_con(LinExpr::sum_vars(vars[3..6].iter().copied()), Sense::Le, 7.0, "cap2");
        m.add_con(LinExpr::new().add(vars[0], 1.0).add(vars[3], 1.0), Sense::Le, 8.0, "cap3");
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
        let x = m.add_nonneg("x");
        let y = m.add_nonneg("y");
        m.add_con(LinExpr::new().add(x, 2.0).add(y, 1.0), Sense::Le, 10.0, "c1");
        m.add_con(LinExpr::new().add(x, 1.0).add(y, 3.0), Sense::Le, 15.0, "c2");
        m.set_objective(LinExpr::new().add(x, 1.0).add(y, 1.0), Objective::Maximize);
        let s = solve_model(&m);
        assert!(s.violation(&m) < 1e-3, "violation {}", s.violation(&m));
    }
}
