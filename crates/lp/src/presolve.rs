//! LP presolve: cheap reductions applied before a solver backend runs.
//!
//! ARROW's Phase-I LP contains many rows that a solver need never see:
//! empty rows (constraints whose every variable was fixed), singleton rows
//! (a single variable — really a bound), and fixed variables (`l = u`).
//! Removing them shrinks the simplex's basis and the PDHG matrix.
//!
//! Implemented reductions, applied to fixpoint:
//! 1. **Fixed-variable substitution** — variables with `l = u` move into
//!    the right-hand sides and the objective offset.
//! 2. **Singleton rows** — a row `a·x ≤/≥/= b` with one variable tightens
//!    that variable's bounds and disappears.
//! 3. **Empty rows** — dropped (after checking `0 ≤/≥/= b` feasibility).
//! 4. **Empty columns** — variables in no row move to their best bound.
//!
//! The output is a [`Reduced`] problem plus the mapping needed to
//! reconstruct a full solution. Infeasibility discovered during presolve
//! is reported without invoking a solver at all.
//!
//! Deliberately omitted (classic but heavier): forcing/dominated rows,
//! doubleton substitution, and dual reductions.

use crate::model::{Sense, StandardLp};
use crate::solution::{Solution, Status};
use crate::sparse::CsrMatrix;

/// The presolved problem plus reconstruction data.
#[derive(Debug, Clone)]
pub struct Reduced {
    /// The smaller LP (empty if everything was eliminated).
    pub lp: StandardLp,
    /// For each original variable: `Some(value)` if eliminated, else its
    /// column index in the reduced LP.
    assignment: Vec<VarFate>,
    /// Original row index per kept row.
    kept_rows: Vec<usize>,
    /// Number of original variables.
    orig_vars: usize,
    /// Number of original rows.
    orig_rows: usize,
}

#[derive(Debug, Clone, Copy)]
enum VarFate {
    Kept(usize),
    Fixed(f64),
}

/// Outcome of presolving.
#[derive(Debug, Clone)]
pub enum PresolveResult {
    /// A reduced problem remains to be solved.
    Reduced(Reduced),
    /// Presolve proved infeasibility.
    Infeasible,
    /// Presolve solved the problem outright (all variables eliminated).
    Solved(Solution),
}

/// Runs presolve on a standard-form LP.
pub fn presolve(lp: &StandardLp) -> PresolveResult {
    let n = lp.num_vars();
    let m = lp.num_cons();
    let mut lb = lp.lb.clone();
    let mut ub = lp.ub.clone();
    let mut fixed: Vec<Option<f64>> = vec![None; n];
    let mut row_dropped = vec![false; m];
    // Row data as editable triplets.
    let mut rows: Vec<Vec<(usize, f64)>> = (0..m).map(|i| lp.a.row(i).collect()).collect();
    let mut rhs = lp.rhs.clone();
    let feas_tol = 1e-9;

    // Iterate reductions to fixpoint (bounded rounds for safety).
    for _round in 0..16 {
        let mut changed = false;
        // (1) fix variables with l == u.
        for j in 0..n {
            if fixed[j].is_none() && (ub[j] - lb[j]).abs() <= feas_tol && lb[j].is_finite() {
                fixed[j] = Some(lb[j]);
                changed = true;
            }
        }
        // Substitute fixed variables into rows.
        for i in 0..m {
            if row_dropped[i] {
                continue;
            }
            let before = rows[i].len();
            rows[i].retain(|&(j, c)| {
                if let Some(v) = fixed[j] {
                    rhs[i] -= c * v;
                    false
                } else {
                    true
                }
            });
            if rows[i].len() != before {
                changed = true;
            }
        }
        // (2)+(3) singleton and empty rows.
        for i in 0..m {
            if row_dropped[i] {
                continue;
            }
            match rows[i].len() {
                0 => {
                    let ok = match lp.senses[i] {
                        Sense::Le => rhs[i] >= -feas_tol,
                        Sense::Ge => rhs[i] <= feas_tol,
                        Sense::Eq => rhs[i].abs() <= feas_tol,
                    };
                    if !ok {
                        return PresolveResult::Infeasible;
                    }
                    row_dropped[i] = true;
                    changed = true;
                }
                1 => {
                    let (j, c) = rows[i][0];
                    if c.abs() <= feas_tol {
                        continue;
                    }
                    let v = rhs[i] / c;
                    match (lp.senses[i], c > 0.0) {
                        (Sense::Eq, _) => {
                            lb[j] = lb[j].max(v);
                            ub[j] = ub[j].min(v);
                        }
                        (Sense::Le, true) | (Sense::Ge, false) => ub[j] = ub[j].min(v),
                        (Sense::Le, false) | (Sense::Ge, true) => lb[j] = lb[j].max(v),
                    }
                    if lb[j] > ub[j] + feas_tol {
                        return PresolveResult::Infeasible;
                    }
                    row_dropped[i] = true;
                    changed = true;
                }
                _ => {}
            }
        }
        if !changed {
            break;
        }
    }
    // (4) empty columns: move to the cost-best bound.
    let mut col_used = vec![false; n];
    for i in 0..m {
        if !row_dropped[i] {
            for &(j, _) in &rows[i] {
                col_used[j] = true;
            }
        }
    }
    for j in 0..n {
        if fixed[j].is_none() && !col_used[j] {
            let c = lp.obj[j];
            let v = if c > 0.0 {
                lb[j]
            } else if c < 0.0 {
                ub[j]
            } else if lb[j].is_finite() {
                lb[j]
            } else {
                ub[j].min(0.0).max(lb[j])
            };
            if !v.is_finite() {
                // Unbounded free column: let the backend report it rather
                // than complicating presolve.
                continue;
            }
            fixed[j] = Some(v);
        }
    }

    // Assemble the reduced problem.
    let mut assignment = Vec::with_capacity(n);
    let mut new_index = 0usize;
    for fate in fixed.iter().take(n) {
        match *fate {
            Some(v) => assignment.push(VarFate::Fixed(v)),
            None => {
                assignment.push(VarFate::Kept(new_index));
                new_index += 1;
            }
        }
    }
    let kept_rows: Vec<usize> = (0..m).filter(|&i| !row_dropped[i]).collect();
    let mut triplets = Vec::new();
    for (new_i, &i) in kept_rows.iter().enumerate() {
        for &(j, c) in &rows[i] {
            if let VarFate::Kept(nj) = assignment[j] {
                triplets.push((new_i, nj, c));
            }
        }
    }
    let mut obj = Vec::with_capacity(new_index);
    let mut obj_offset = lp.obj_offset;
    let mut rlb = Vec::with_capacity(new_index);
    let mut rub = Vec::with_capacity(new_index);
    for j in 0..n {
        match assignment[j] {
            VarFate::Fixed(v) => obj_offset += lp.obj[j] * v,
            VarFate::Kept(_) => {
                obj.push(lp.obj[j]);
                rlb.push(lb[j]);
                rub.push(ub[j]);
            }
        }
    }
    let reduced_lp = StandardLp {
        a: CsrMatrix::from_triplets(kept_rows.len(), new_index, &triplets),
        senses: kept_rows.iter().map(|&i| lp.senses[i]).collect(),
        rhs: kept_rows.iter().map(|&i| rhs[i]).collect(),
        lb: rlb,
        ub: rub,
        obj,
        obj_offset,
        obj_sign: lp.obj_sign,
    };
    let reduced = Reduced { lp: reduced_lp, assignment, kept_rows, orig_vars: n, orig_rows: m };
    if reduced.lp.num_vars() == 0 {
        // Fully solved by presolve.
        let sol = reduced.expand(&Solution {
            status: Status::Optimal,
            x: vec![],
            objective: reduced.lp.user_objective(reduced.lp.obj_offset),
            duals: vec![],
            basis: None,
            stats: Default::default(),
        });
        return PresolveResult::Solved(sol);
    }
    PresolveResult::Reduced(reduced)
}

impl Reduced {
    /// Expands a reduced-space solution back to original variables/rows.
    pub fn expand(&self, sol: &Solution) -> Solution {
        let mut x = vec![0.0; self.orig_vars];
        for (j, fate) in self.assignment.iter().enumerate() {
            x[j] = match *fate {
                VarFate::Fixed(v) => v,
                VarFate::Kept(nj) => sol.x.get(nj).copied().unwrap_or(0.0),
            };
        }
        let mut duals = vec![0.0; self.orig_rows];
        for (new_i, &i) in self.kept_rows.iter().enumerate() {
            duals[i] = sol.duals.get(new_i).copied().unwrap_or(0.0);
        }
        Solution {
            status: sol.status,
            objective: sol.objective,
            x,
            duals,
            // A reduced-space basis is meaningless in original numbering.
            basis: None,
            stats: sol.stats,
        }
    }

    /// Rows removed by presolve.
    pub fn rows_removed(&self) -> usize {
        self.orig_rows - self.lp.num_cons()
    }

    /// Variables removed by presolve.
    pub fn vars_removed(&self) -> usize {
        self.orig_vars - self.lp.num_vars()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinExpr, Model, Objective};
    use crate::simplex::{self, SimplexConfig};

    fn solve_with_presolve(m: &Model) -> Solution {
        let lp = m.to_standard();
        match presolve(&lp) {
            PresolveResult::Infeasible => {
                Solution::failed(Status::Infeasible, lp.num_vars(), lp.num_cons())
            }
            PresolveResult::Solved(s) => s,
            PresolveResult::Reduced(r) => {
                let inner = simplex::solve(&r.lp, &SimplexConfig::default());
                r.expand(&inner)
            }
        }
    }

    #[test]
    fn fixed_variables_are_substituted() {
        // x is fixed at 3, which turns the row into a singleton on y,
        // which becomes a bound, which empties y's column — the cascade
        // solves the whole LP inside presolve.
        let mut m = Model::new();
        let x = m.add_var(3.0, 3.0, "x"); // fixed
        let y = m.add_var(0.0, 10.0, "y");
        m.add_con(LinExpr::new().add(x, 1.0).add(y, 1.0), Sense::Le, 8.0, "c");
        m.set_objective(LinExpr::new().add(x, 1.0).add(y, 1.0), Objective::Maximize);
        match presolve(&m.to_standard()) {
            PresolveResult::Solved(sol) => {
                assert!((sol.objective - 8.0).abs() < 1e-6);
                assert_eq!(sol.x[0], 3.0);
                assert!((sol.x[1] - 5.0).abs() < 1e-6);
            }
            other => panic!("expected fully solved, got {other:?}"),
        }
        let sol = solve_with_presolve(&m);
        assert!((sol.objective - 8.0).abs() < 1e-6);
    }

    #[test]
    fn singleton_rows_become_bounds() {
        let mut m = Model::new();
        let x = m.add_nonneg("x");
        m.add_con(LinExpr::term(x, 2.0), Sense::Le, 10.0, "single"); // x <= 5
        m.set_objective(LinExpr::term(x, 1.0), Objective::Maximize);
        let lp = m.to_standard();
        match presolve(&lp) {
            PresolveResult::Solved(sol) => {
                assert!((sol.x[0] - 5.0).abs() < 1e-9);
                assert!((sol.objective - 5.0).abs() < 1e-9);
            }
            other => panic!("expected fully solved, got {other:?}"),
        }
    }

    #[test]
    fn empty_row_infeasibility_detected() {
        let mut m = Model::new();
        let x = m.add_var(1.0, 1.0, "x");
        m.add_con(LinExpr::term(x, 1.0), Sense::Ge, 5.0, "impossible");
        m.set_objective(LinExpr::term(x, 1.0), Objective::Minimize);
        match presolve(&m.to_standard()) {
            PresolveResult::Infeasible => {}
            other => panic!("expected infeasible, got {other:?}"),
        }
    }

    #[test]
    fn crossed_singleton_bounds_infeasible() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 10.0, "x");
        m.add_con(LinExpr::term(x, 1.0), Sense::Ge, 7.0, "lo");
        m.add_con(LinExpr::term(x, 1.0), Sense::Le, 3.0, "hi");
        m.set_objective(LinExpr::term(x, 1.0), Objective::Minimize);
        match presolve(&m.to_standard()) {
            PresolveResult::Infeasible => {}
            other => panic!("expected infeasible, got {other:?}"),
        }
    }

    #[test]
    fn presolved_solution_matches_direct_solve() {
        // A mixed model exercising all reductions at once.
        let mut m = Model::new();
        let fixed = m.add_var(2.0, 2.0, "fixed");
        let x = m.add_nonneg("x");
        let y = m.add_nonneg("y");
        let unused = m.add_var(0.0, 4.0, "unused");
        m.add_con(LinExpr::term(x, 1.0), Sense::Le, 6.0, "single");
        m.add_con(LinExpr::new().add(fixed, 1.0).add(x, 1.0).add(y, 2.0), Sense::Le, 12.0, "mix");
        m.set_objective(
            LinExpr::new().add(x, 3.0).add(y, 2.0).add(unused, 1.0).add(fixed, 1.0),
            Objective::Maximize,
        );
        let direct = simplex::solve(&m.to_standard(), &SimplexConfig::default());
        let pre = solve_with_presolve(&m);
        assert_eq!(pre.status, Status::Optimal);
        assert!(
            (direct.objective - pre.objective).abs() < 1e-6,
            "direct {} vs presolved {}",
            direct.objective,
            pre.objective
        );
        // The unused variable must sit at its best bound (cost 1 > 0, max).
        assert!((pre.x[3] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn duals_are_restored_to_original_rows() {
        // Rows eliminated by presolve come back with a zero dual (full
        // dual postsolve is out of scope); *kept* rows keep their duals.
        let mut m = Model::new();
        let fixed = m.add_var(1.0, 1.0, "fixed");
        let x = m.add_nonneg("x");
        let y = m.add_nonneg("y");
        m.add_con(LinExpr::term(fixed, 1.0), Sense::Le, 2.0, "drops"); // empty after subst
                                                                       // Two-variable row survives presolve.
        m.add_con(LinExpr::new().add(x, 1.0).add(y, 1.0), Sense::Le, 5.0, "binding");
        m.set_objective(LinExpr::new().add(x, 1.0).add(y, 1.0), Objective::Maximize);
        let sol = solve_with_presolve(&m);
        assert_eq!(sol.duals.len(), 2);
        assert!(sol.duals[0].abs() < 1e-9, "dropped row has zero dual");
        assert!((sol.duals[1] - 1.0).abs() < 1e-6, "binding row dual {:?}", sol.duals);
    }
}
