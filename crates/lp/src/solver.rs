//! Backend selection: one entry point for every LP in the workspace.
//!
//! Formulation code builds a [`Model`] and calls
//! [`solve`]; the backend is chosen by problem size unless pinned. The
//! crossover threshold favours the exact simplex for anything it can finish
//! quickly and the first-order PDHG solver beyond that.

use crate::model::{Model, StandardLp};
use crate::pdhg::{self, PdhgConfig};
use crate::simplex::{self, SimplexConfig, Workspace};
use crate::solution::{Solution, SolveStats, Status};
use crate::warm::{BackendKind, WarmEvent, WarmStart};
use arrow_obs::{Counter, Histogram};
use std::borrow::Borrow;

/// Which algorithm executes the solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Pick by size: simplex below [`SolverConfig::auto_threshold`] rows,
    /// PDHG above.
    #[default]
    Auto,
    /// Two-phase revised simplex (exact; small/medium problems).
    Simplex,
    /// Restarted averaged PDHG (approximate to tolerance; large problems).
    Pdhg,
}

/// Combined solver configuration.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Backend choice.
    pub backend: Backend,
    /// Row-count threshold for [`Backend::Auto`].
    pub auto_threshold: usize,
    /// Simplex knobs.
    pub simplex: SimplexConfig,
    /// PDHG knobs.
    pub pdhg: PdhgConfig,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            backend: Backend::Auto,
            auto_threshold: 1200,
            simplex: SimplexConfig::default(),
            pdhg: PdhgConfig::default(),
        }
    }
}

impl SolverConfig {
    /// A configuration pinned to the exact simplex backend.
    pub fn exact() -> Self {
        SolverConfig { backend: Backend::Simplex, ..Default::default() }
    }

    /// A configuration pinned to the PDHG backend with the given tolerance.
    pub fn first_order(tol: f64) -> Self {
        let mut cfg = SolverConfig { backend: Backend::Pdhg, ..Default::default() };
        cfg.pdhg.tol = tol;
        cfg
    }
}

/// Solves `model` with the configured backend, timed by its `lp.solve` span.
pub fn solve(model: &Model, cfg: &SolverConfig) -> Solution {
    solve_with(model, cfg, None)
}

/// [`solve`] with an optional [`WarmStart`] from a previous solve of a
/// structurally identical model.
///
/// Each backend consumes the component it understands — simplex the basis,
/// PDHG the primal–dual point — and records a hit/miss in
/// [`SolveStats`].
pub fn solve_with(model: &Model, cfg: &SolverConfig, warm: Option<&WarmStart>) -> Solution {
    solve_timed(model, cfg, warm, &mut Workspace::default())
}

/// Every solve's one body: runs the backend in an `lp.solve` span, reads
/// `solve_seconds` off it and flushes the metrics. [`solve_batch`] calls
/// this per lane, handing one simplex [`Workspace`] from lane to lane.
fn solve_timed(
    model: &Model,
    cfg: &SolverConfig,
    warm: Option<&WarmStart>,
    ws: &mut Workspace,
) -> Solution {
    let span = arrow_obs::span!(
        "lp.solve",
        "rows" => model.num_cons(),
        "cols" => model.num_vars(),
        "warm" => warm.is_some(),
        "backend" => backend_label(cfg, model.num_cons()),
    );
    let mut sol = solve_inner(model, cfg, warm, ws);
    sol.stats.solve_seconds = span.elapsed_seconds();
    record(&sol.stats);
    sol
}

// Process-global work counters, flushed once per solve (never per pivot —
// the hot loops accumulate locally in [`SolveStats`]).
static SOLVES: Counter = Counter::new("lp.solves", "LP solves completed, any backend");
static SOLVE_SECONDS: Histogram = Histogram::new(
    "lp.solve.seconds",
    "wall-clock seconds per LP solve",
    &[1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0],
);
static SIMPLEX_ITERATIONS: Counter =
    Counter::new("lp.simplex.iterations", "simplex pivots, summed over solves");
static SIMPLEX_REFACTORS: Counter =
    Counter::new("lp.simplex.refactors", "simplex basis refactorizations");
static PDHG_ITERATIONS: Counter =
    Counter::new("lp.pdhg.iterations", "PDHG iterations, summed over solves");
static PDHG_RESTARTS: Counter = Counter::new("lp.pdhg.restarts", "PDHG adaptive restarts");
static WARM_HIT: Counter = Counter::new("lp.warm.hit", "solves that resumed from their warm start");
static WARM_MISS: Counter = Counter::new("lp.warm.miss", "solves that rejected their warm start");
static WARM_COLD: Counter = Counter::new("lp.warm.cold", "solves that had no usable warm start");

/// One solve's flush: count, latency sample, backend work, warm event.
fn record(stats: &SolveStats) {
    SOLVES.inc();
    SOLVE_SECONDS.observe(stats.solve_seconds);
    match stats.backend {
        BackendKind::Simplex => {
            SIMPLEX_ITERATIONS.add(stats.iterations as u64);
            SIMPLEX_REFACTORS.add(stats.refactors as u64);
        }
        BackendKind::Pdhg => {
            PDHG_ITERATIONS.add(stats.iterations as u64);
            PDHG_RESTARTS.add(stats.restarts as u64);
        }
        BackendKind::None => {}
    }
    match stats.warm {
        WarmEvent::Hit => WARM_HIT.inc(),
        WarmEvent::Miss => WARM_MISS.inc(),
        WarmEvent::Cold => WARM_COLD.inc(),
    }
}

/// The backend label a solve of `rows` rows under `cfg` will use, for span
/// attribution (`lp.solve{backend=...}`).
fn backend_label(cfg: &SolverConfig, rows: usize) -> &'static str {
    match concrete_backend(cfg, rows) {
        Backend::Simplex => "simplex",
        Backend::Pdhg => "pdhg",
        Backend::Auto => "auto",
    }
}

/// Resolves [`Backend::Auto`] by row count; pinned backends pass through.
fn concrete_backend(cfg: &SolverConfig, rows: usize) -> Backend {
    match cfg.backend {
        Backend::Auto => {
            if rows <= cfg.auto_threshold {
                Backend::Simplex
            } else {
                Backend::Pdhg
            }
        }
        b => b,
    }
}

fn solve_inner(
    model: &Model,
    cfg: &SolverConfig,
    warm: Option<&WarmStart>,
    ws: &mut Workspace,
) -> Solution {
    let lp = model.to_standard();
    if let Some(status) = data_defect(&lp) {
        return Solution::failed(status, lp.num_vars());
    }
    let backend = concrete_backend(cfg, lp.num_cons());
    let sol = if backend == Backend::Pdhg {
        pdhg::solve_warm(&lp, &cfg.pdhg, warm.and_then(|w| w.point.as_ref()))
    } else {
        simplex::solve_warm_in(&lp, &cfg.simplex, warm.and_then(|w| w.basis.as_ref()), ws)
    };
    // Auto mode falls back to the first-order method when the simplex
    // loses numerical accuracy (rare, but recoverable).
    if cfg.backend == Backend::Auto
        && backend == Backend::Simplex
        && sol.status == Status::NumericalTrouble
    {
        pdhg::solve_warm(&lp, &cfg.pdhg, warm.and_then(|w| w.point.as_ref()))
    } else {
        sol
    }
}

/// Why no backend can be trusted with `lp`'s numbers, if anything: a
/// non-finite coefficient, right-hand side or objective entry, or a bound
/// that is NaN or pins its variable at an infinity, is
/// [`Status::NumericalTrouble`]; crossed bounds are [`Status::Infeasible`].
/// (Left alone, the simplex calls such a model optimal with NaN in `x`.)
fn data_defect(lp: &StandardLp) -> Option<Status> {
    let finite = |v: &[f64]| v.iter().all(|x| x.is_finite());
    let coefficients = (0..lp.num_cons()).all(|i| lp.a.row(i).all(|(_, v)| v.is_finite()));
    if !(coefficients && finite(&lp.rhs) && finite(&lp.obj)) {
        return Some(Status::NumericalTrouble);
    }
    for (&l, &u) in lp.lb.iter().zip(&lp.ub) {
        if l.is_nan() || u.is_nan() || l == f64::INFINITY || u == f64::NEG_INFINITY {
            return Some(Status::NumericalTrouble);
        }
        if l > u {
            return Some(Status::Infeasible);
        }
    }
    None
}

/// Solves a family of models in order, one [`Solution`] per model.
///
/// Each lane runs exactly the code path [`solve`] runs, its own `lp.solve`
/// span included, so its result is **bitwise identical** to a standalone
/// solve; what the batch adds is one `lp.solve_batch` span around the
/// lanes, [`SolveStats::lanes`] = 1 on every result, and one set of
/// simplex buffers handed from lane to lane, so a family of same-sized LPs
/// allocates its basis inverse once.
///
/// No product code calls it: the offline stage solves one scenario's LP
/// per unit of work with [`solve`]. The benchmark's batch probe does.
///
/// An empty slice returns an empty vec.
pub fn solve_batch<M: Borrow<Model>>(models: &[M], cfg: &SolverConfig) -> Vec<Solution> {
    let Some(first) = models.first() else { return Vec::new() };
    let _span = arrow_obs::span!(
        "lp.solve_batch",
        "lanes" => models.len(),
        "backend" => backend_label(cfg, first.borrow().num_cons()),
    );
    let mut ws = Workspace::default();
    models
        .iter()
        .map(|m| {
            let mut s = solve_timed(m.borrow(), cfg, None, &mut ws);
            s.stats.lanes = 1;
            s
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinExpr, Objective, Sense};
    use crate::solution::Status;

    fn tiny_model() -> Model {
        let mut m = Model::new();
        let x = m.add_var(0.0, 4.0);
        let y = m.add_nonneg();
        m.add_con(LinExpr::new().add(x, 1.0).add(y, 1.0), Sense::Le, 6.0);
        m.set_objective(LinExpr::new().add(x, 2.0).add(y, 1.0), Objective::Maximize);
        m
    }

    #[test]
    fn auto_picks_simplex_for_tiny_model() {
        let s = solve(&tiny_model(), &SolverConfig::default());
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 10.0).abs() < 1e-6);
    }

    #[test]
    fn pinned_backends_agree() {
        let m = tiny_model();
        let a = solve(&m, &SolverConfig::exact());
        let b = solve(&m, &SolverConfig::first_order(1e-8));
        assert_eq!(a.status, Status::Optimal);
        assert_eq!(b.status, Status::Optimal);
        assert!((a.objective - b.objective).abs() < 1e-4);
    }

    /// `solve_seconds` is read off each solve's own `lp.solve` span, single
    /// or batched. Other tests solve concurrently: a parent span picks ours.
    #[test]
    fn solve_records_wall_time() {
        use arrow_obs::{trace, Record, RingSubscriber};
        let ring = std::sync::Arc::new(RingSubscriber::new(1 << 14));
        trace::install(ring.clone());
        let single = (arrow_obs::span!("test.single"), solve(&tiny_model(), &Default::default())).1;
        let models = [tiny_model(), tiny_model(), tiny_model()];
        let lanes = (arrow_obs::span!("test.batch"), solve_batch(&models, &Default::default())).1;
        trace::uninstall();
        let children = |parent: u64, name: &str| -> Vec<Record> {
            let spans = ring.finished_spans(name).into_iter();
            spans.filter(|r| r.parent_id == Some(parent)).collect()
        };
        let agree = |sols: &[Solution], parent: &Record| {
            let spans = children(parent.span_id, "lp.solve");
            assert_eq!(spans.len(), sols.len(), "one lp.solve span per solve");
            for (sol, span) in sols.iter().zip(&spans) {
                let span_seconds = span.duration_nanos.unwrap_or(0) as f64 / 1e9;
                let seconds = sol.stats.solve_seconds;
                assert!(seconds <= span_seconds && span_seconds - seconds < 1e-3, "{span:?}");
            }
        };
        agree(&[single], &ring.finished_spans("test.single")[0]);
        let batch = children(ring.finished_spans("test.batch")[0].span_id, "lp.solve_batch");
        assert_eq!(batch.len(), 1, "one lp.solve_batch span around the lanes");
        agree(&lanes, &batch[0]);
    }

    #[test]
    fn solve_flushes_obs_counters() {
        let before = arrow_obs::metrics::snapshot();
        let s = solve(&tiny_model(), &SolverConfig::exact());
        let after = arrow_obs::metrics::snapshot();
        // An optimal simplex solve refactorizes at least once (the final
        // cleanup that refreshes the basic values).
        assert!(s.stats.refactors >= 1);
        assert!(after.counter("lp.solves") > before.counter("lp.solves"));
        assert!(after.counter("lp.warm.cold") > before.counter("lp.warm.cold"));
        assert!(
            after.counter("lp.simplex.refactors")
                >= before.counter("lp.simplex.refactors") + s.stats.refactors as u64
        );
        let hist = after.histogram("lp.solve.seconds").expect("registered");
        assert!(hist.count > before.histogram("lp.solve.seconds").map_or(0, |h| h.count));
    }
}
#[cfg(test)]
mod batch_tests {
    use super::*;
    use crate::model::{LinExpr, Objective, Sense};
    use crate::solution::Status;
    use crate::warm::{Basis, ColStatus};

    fn tiny_with_rhs(r: f64) -> Model {
        let mut m = Model::new();
        let x = m.add_var(0.0, 4.0);
        let y = m.add_nonneg();
        m.add_con(LinExpr::new().add(x, 1.0).add(y, 1.0), Sense::Le, r);
        m.set_objective(LinExpr::new().add(x, 2.0).add(y, 1.0), Objective::Maximize);
        m
    }

    fn two_con_model(cap: f64) -> Model {
        let mut m = Model::new();
        let x = m.add_nonneg();
        let y = m.add_nonneg();
        m.add_con(LinExpr::new().add(x, 1.0).add(y, 2.0), Sense::Le, cap);
        m.add_con(LinExpr::new().add(x, 3.0).add(y, 1.0), Sense::Le, cap + 2.0);
        m.set_objective(LinExpr::new().add(x, 1.0).add(y, 1.0), Objective::Maximize);
        m
    }

    fn assert_bitwise(a: &Solution, b: &Solution) {
        assert_eq!(a.status, b.status);
        assert_eq!(a.stats.iterations, b.stats.iterations);
        assert_eq!(a.basis, b.basis);
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
    fn empty_batch_returns_empty() {
        assert!(solve_batch::<Model>(&[], &SolverConfig::default()).is_empty());
    }

    /// min x + 2y  s.t.  x + y = `total`,  x <= 3: an equality row, and a
    /// bound that binds once `total` exceeds 3.
    fn eq_row_model(total: f64) -> Model {
        let mut m = Model::new();
        let x = m.add_var(0.0, 3.0);
        let y = m.add_nonneg();
        m.add_con(LinExpr::new().add(x, 1.0).add(y, 1.0), Sense::Eq, total);
        m.set_objective(LinExpr::new().add(x, 1.0).add(y, 2.0), Objective::Minimize);
        m
    }

    #[test]
    fn mixed_batch_is_bitwise_identical_to_sequential() {
        // Three structural families interleaved, under Auto (everything
        // this small routes to the simplex) and pinned PDHG. Results must
        // be bitwise sequential either way.
        let models = vec![
            tiny_with_rhs(6.0),
            two_con_model(8.0),
            tiny_with_rhs(9.0),
            eq_row_model(5.0),
            two_con_model(5.0),
        ];
        for cfg in [SolverConfig::default(), SolverConfig::first_order(1e-7)] {
            let batched = solve_batch(&models, &cfg);
            assert_eq!(batched.len(), models.len());
            for (model, b) in models.iter().zip(&batched) {
                let seq = solve(model, &cfg);
                assert_bitwise(&seq, b);
            }
        }
    }

    /// `rows` rows over `rows + 2` boxed variables with coefficients from a
    /// small LCG; every third row is a `>=` row, so phase 1 needs
    /// artificial columns whenever there are three rows or more.
    fn ragged_model(rows: usize, seed: u64) -> Model {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut draw = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let mut m = Model::new();
        let vars: Vec<_> = (0..rows + 2).map(|_| m.add_var(0.0, 4.0)).collect();
        for i in 0..rows {
            let e = LinExpr::sum(vars.iter().map(|&v| (v, (4.0 * draw()).floor() - 1.0)));
            if i % 3 == 2 {
                m.add_con(e, Sense::Ge, -1.0 - draw());
            } else {
                m.add_con(e, Sense::Le, 3.0 + 5.0 * draw());
            }
        }
        m.set_objective(LinExpr::sum(vars.iter().map(|&v| (v, draw()))), Objective::Maximize);
        m
    }

    #[test]
    fn simplex_lanes_sharing_a_workspace_match_standalone_solves_bitwise() {
        // Lane sizes go up and down, so every buffer the lanes hand on is
        // at some point larger than, smaller than, and the size of what the
        // next lane needs; anything read before it is written shows here.
        let rows = [7, 2, 12, 1, 9, 3, 15, 0, 15, 4, 11, 11, 6, 14, 5, 8];
        let models: Vec<Model> =
            rows.iter().enumerate().map(|(i, &r)| ragged_model(r, i as u64)).collect();
        let cfg = SolverConfig::exact();
        let batched = solve_batch(&models, &cfg);
        assert_eq!(batched.len(), 16);
        let mut optimal = 0;
        for (model, b) in models.iter().zip(&batched) {
            assert_eq!(b.stats.backend, BackendKind::Simplex);
            assert_bitwise(&solve(model, &cfg), b);
            optimal += usize::from(b.status == Status::Optimal);
        }
        assert!(optimal >= 12, "only {optimal} of 16 lanes are optimal: the family is too hard");

        // Lanes that stop early hand on buffers no finished lane leaves: a
        // solve cut short by the iteration limit, and a warm basis whose
        // refactorization fails partway (its third basic column is empty)
        // before the lane falls back to a cold solve. Lanes of smaller and
        // larger `m` follow each.
        let mut short = SolverConfig::exact();
        short.simplex.max_iters = 3;
        let mut with_empty_column = ragged_model(12, 99);
        let z = with_empty_column.add_var(0.0, 4.0);
        let mut objective = with_empty_column.objective().clone();
        objective.add_term(z, 1.0);
        with_empty_column.set_objective(objective, Objective::Maximize);
        let n = with_empty_column.num_vars();
        let mut cols = vec![ColStatus::AtLower; n + 12];
        for j in [0, 1, n - 1].into_iter().chain(n + 3..n + 12) {
            cols[j] = ColStatus::Basic;
        }
        let singular = WarmStart::from_basis(Basis { cols });
        let lanes = [
            (&models[6], &short, None),
            (&models[9], &cfg, None),
            (&models[13], &cfg, None),
            (&with_empty_column, &cfg, Some(&singular)),
            (&models[5], &cfg, None),
            (&models[8], &cfg, None),
            (&models[2], &short, None),
            (&with_empty_column, &cfg, Some(&singular)),
            (&models[15], &cfg, None),
        ];
        let mut ws = Workspace::default();
        let mut unfinished = [0, 0];
        for (model, cfg, warm) in lanes {
            let shared = solve_timed(model, cfg, warm, &mut ws);
            assert_bitwise(&solve_with(model, cfg, warm), &shared);
            unfinished[0] += usize::from(shared.status == Status::IterationLimit);
            unfinished[1] += usize::from(shared.stats.warm == WarmEvent::Miss);
        }
        assert_eq!(unfinished, [2, 2], "a lane meant to stop early did not");
    }

    #[test]
    fn batch_with_empty_model_lane_solves_cleanly() {
        let models = vec![Model::new(), tiny_with_rhs(6.0)];
        let sols = solve_batch(&models, &SolverConfig::default());
        assert_eq!(sols.len(), 2);
        assert_eq!(sols[0].status, Status::Optimal);
        assert!(sols[0].x.is_empty());
        assert_eq!(sols[1].status, Status::Optimal);
    }
}

#[cfg(test)]
mod validation_tests {
    use super::*;
    use crate::model::{LinExpr, Objective, Sense, INF};
    use crate::sparse::CsrMatrix;

    /// max x + `cost`·y  s.t.  x <= 4,  x + `coeff`·y <= `rhs`,  y <= 9.
    fn two_var(rhs: f64, coeff: f64, cost: f64) -> Model {
        let mut m = Model::new();
        let x = m.add_nonneg();
        let y = m.add_var(0.0, 9.0);
        m.add_con(LinExpr::term(x, 1.0), Sense::Le, 4.0);
        m.add_con(LinExpr::new().add(x, 1.0).add(y, coeff), Sense::Le, rhs);
        m.set_objective(LinExpr::new().add(x, 1.0).add(y, cost), Objective::Maximize);
        m
    }

    fn assert_rejected(sol: &Solution, what: &str) {
        assert_eq!(sol.status, Status::NumericalTrouble, "{what}");
        assert!(sol.objective.is_nan(), "{what}: objective {}", sol.objective);
        assert!(sol.warm_start().is_none(), "{what}: a rejected model yields no point");
    }

    #[test]
    fn non_finite_data_is_rejected_by_every_entry_point_on_both_backends() {
        let good = two_var(6.0, 1.0, 1.0);
        let bad = [
            ("NaN rhs", two_var(f64::NAN, 1.0, 1.0)),
            ("+inf rhs", two_var(INF, 1.0, 1.0)),
            ("NaN coefficient", two_var(6.0, f64::NAN, 1.0)),
            ("-inf coefficient", two_var(6.0, -INF, 1.0)),
            ("NaN objective", two_var(6.0, 1.0, f64::NAN)),
            ("+inf objective", two_var(6.0, 1.0, INF)),
        ];
        for cfg in [SolverConfig::exact(), SolverConfig::first_order(1e-7)] {
            let reference = solve(&good, &cfg);
            assert_eq!(reference.status, Status::Optimal);
            let warm = reference.warm_start();
            for (what, model) in &bad {
                assert_rejected(&solve(model, &cfg), what);
                assert_rejected(&solve_with(model, &cfg, warm.as_ref()), what);
            }
            // In a batch the bad lanes are turned away one by one; the good
            // lanes around them solve exactly as they do alone.
            let lanes: Vec<&Model> =
                [&good, &bad[0].1, &good, &bad[2].1, &bad[4].1, &good].into_iter().collect();
            let sols = solve_batch(&lanes, &cfg);
            for (i, sol) in sols.iter().enumerate() {
                if std::ptr::eq(lanes[i], &good) {
                    assert_eq!(sol.status, Status::Optimal);
                    assert_eq!(sol.objective.to_bits(), reference.objective.to_bits());
                } else {
                    assert_rejected(sol, &format!("batch lane {i}"));
                }
            }
        }
    }

    #[test]
    fn bad_bounds_are_a_defect_of_the_standard_form() {
        // `Model::add_var` refuses these outright, so they can only arrive
        // in a hand-built standard form.
        let with_bounds = |lb: f64, ub: f64| StandardLp {
            a: CsrMatrix::from_triplets(1, 1, &[(0, 0, 1.0)]),
            senses: vec![Sense::Le],
            rhs: vec![1.0],
            lb: vec![lb],
            ub: vec![ub],
            obj: vec![1.0],
            obj_sign: 1.0,
        };
        assert_eq!(data_defect(&with_bounds(0.0, 1.0)), None);
        assert_eq!(data_defect(&with_bounds(-INF, INF)), None);
        assert_eq!(data_defect(&with_bounds(f64::NAN, 1.0)), Some(Status::NumericalTrouble));
        assert_eq!(data_defect(&with_bounds(0.0, f64::NAN)), Some(Status::NumericalTrouble));
        assert_eq!(data_defect(&with_bounds(INF, INF)), Some(Status::NumericalTrouble));
        assert_eq!(data_defect(&with_bounds(-INF, -INF)), Some(Status::NumericalTrouble));
        assert_eq!(data_defect(&with_bounds(2.0, 1.0)), Some(Status::Infeasible));
    }
}
