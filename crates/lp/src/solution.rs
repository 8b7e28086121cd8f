//! Solver-independent solution and status types.

use crate::model::{Model, VarId};
use crate::warm::{BackendKind, Basis, PrimalDual, WarmEvent, WarmStart};
use arrow_obs::hash::{word_fold, FNV1A_OFFSET};

/// Termination status of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// An optimal (within tolerance) solution was found.
    Optimal,
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
    /// The iteration limit was reached before convergence.
    IterationLimit,
    /// The solver lost numerical accuracy and could not recover.
    NumericalTrouble,
}

impl Status {
    /// `true` for [`Status::Optimal`].
    pub fn is_optimal(self) -> bool {
        matches!(self, Status::Optimal)
    }

    /// `true` when the returned point is meaningful: either optimal or the
    /// best iterate at the iteration limit (approximately optimal for
    /// the first-order backend). Infeasible/unbounded/numerical failures
    /// return no usable point.
    pub fn is_usable(self) -> bool {
        matches!(self, Status::Optimal | Status::IterationLimit)
    }
}

/// Counters describing how hard the solver worked and what it worked on.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveStats {
    /// Simplex pivots or PDHG iterations performed.
    pub iterations: usize,
    /// Wall-clock seconds of the solve, read off its `lp.solve` span by the
    /// [`crate::solver`] entry points; a backend called directly leaves it 0.
    pub solve_seconds: f64,
    /// Constraint rows of the solved standard form.
    pub rows: usize,
    /// Structural variables of the solved standard form.
    pub cols: usize,
    /// Nonzero constraint coefficients of the solved standard form.
    pub nnz: usize,
    /// Which backend actually executed the solve.
    pub backend: BackendKind,
    /// What happened to the warm start, if one was supplied.
    pub warm: WarmEvent,
    /// Adaptive restarts performed (PDHG only).
    pub restarts: usize,
    /// Basis refactorizations performed (simplex only).
    pub refactors: usize,
    /// `0` for a standalone [`crate::solver::solve_with`] call, `1` for a
    /// lane of a [`crate::solver::solve_batch`] call (lanes solve one at a
    /// time; the field never exceeds 1).
    pub lanes: usize,
}

/// The result of solving a model.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Why the solver stopped.
    pub status: Status,
    /// Primal values, indexed by variable. Empty on failure.
    pub x: Vec<f64>,
    /// Objective value in the *user's* optimization direction.
    pub objective: f64,
    /// Dual values per constraint row, in the user's direction (a positive
    /// dual on a `<=` row of a maximization means the row is binding and
    /// relaxing it by one unit gains that much objective). Empty on failure
    /// or for backends that do not produce duals.
    pub duals: Vec<f64>,
    /// Final simplex basis (optimal simplex solves only); feed it back via
    /// [`Solution::warm_start`] to accelerate the next related solve.
    pub basis: Option<Basis>,
    /// Work counters.
    pub stats: SolveStats,
}

impl Solution {
    /// A failure placeholder carrying only the status.
    pub(crate) fn failed(status: Status, num_vars: usize) -> Self {
        Solution {
            status,
            x: vec![0.0; num_vars],
            objective: f64::NAN,
            duals: Vec::new(),
            basis: None,
            stats: SolveStats::default(),
        }
    }

    /// Packages this solution as a [`WarmStart`] for a follow-up solve of a
    /// structurally identical model (same rows/columns/coefficients; bounds
    /// and right-hand sides may differ). Returns `None` when the solve left
    /// no usable point.
    pub fn warm_start(&self) -> Option<WarmStart> {
        if !self.status.is_usable() || self.x.is_empty() {
            return None;
        }
        Some(WarmStart {
            basis: self.basis.clone(),
            point: Some(PrimalDual { x: self.x.clone(), y: self.duals.clone() }),
        })
    }

    /// Value of a variable in this solution.
    pub fn value(&self, v: VarId) -> f64 {
        self.x[v.index()]
    }

    /// Worst constraint/bound violation of this solution against `model`.
    pub fn violation(&self, model: &Model) -> f64 {
        model.max_violation(&self.x)
    }

    /// The digest every solver pin holds (`tests/pins.txt`): a [`word_fold`]
    /// of what a consumer can read from the solve. Status, iterations, then
    /// the backend's own work counter — PDHG restarts, or simplex
    /// refactorizations — then `x` and the duals with `-0.0` folded as
    /// `+0.0`, and after a simplex solve the basis columns.
    pub fn digest(&self) -> u64 {
        let pdhg = self.stats.backend == BackendKind::Pdhg;
        let work = if pdhg { self.stats.restarts } else { self.stats.refactors };
        let counts = [self.status as u64, self.stats.iterations as u64, work as u64];
        let mut h = counts.into_iter().fold(FNV1A_OFFSET, word_fold);
        for values in [&self.x, &self.duals] {
            let bits = values.iter().map(|v| (v + 0.0).to_bits());
            h = bits.fold(word_fold(h, values.len() as u64), word_fold);
        }
        if pdhg {
            return h;
        }
        let cols = self.basis.as_ref().map_or(&[][..], |b| &b.cols);
        cols.iter().fold(word_fold(h, cols.len() as u64), |h, &c| word_fold(h, c as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_solution_has_nan_objective() {
        let s = Solution::failed(Status::Infeasible, 3);
        assert_eq!(s.status, Status::Infeasible);
        assert!(s.objective.is_nan());
        assert_eq!(s.x.len(), 3);
        assert!(!s.status.is_optimal());
        assert!(Status::Optimal.is_optimal());
    }

    #[test]
    fn failed_solution_yields_no_warm_start() {
        assert!(Solution::failed(Status::Infeasible, 3).warm_start().is_none());
    }
}
