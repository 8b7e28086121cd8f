//! Linear-program model builder.
//!
//! A [`Model`] is assembled incrementally: create variables with
//! [`Model::add_var`] (or the convenience constructors), build [`LinExpr`]
//! linear expressions over them, post constraints, and set an objective.
//! [`Model::to_standard`] lowers the model to the computational form shared
//! by every solver backend.
//!
//! A model is only its numbers: bounds, rows, senses, right-hand sides and
//! the objective. Rows and columns carry no names, and once the rows are
//! posted the only part a caller may change is a variable's bounds
//! ([`Model::set_bounds`]).
//!
//! The builder is deliberately plain — no operator-overloading DSL tricks —
//! so that formulations transcribed from the paper read like the paper.

use crate::sparse::CsrMatrix;
use arrow_obs::hash::{word_fold, FNV1A_OFFSET};

/// Positive infinity used for "no upper bound".
pub const INF: f64 = f64::INFINITY;

/// Identifier of a model variable. Indexes are dense and allocation-ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// The dense index of this variable within its model.
    pub(crate) fn index(self) -> usize {
        self.0
    }
}

/// Direction of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// `expr <= rhs`
    Le,
    /// `expr >= rhs`
    Ge,
    /// `expr == rhs`
    Eq,
}

/// A linear expression: a sum of `coefficient * variable` terms.
///
/// Duplicate variables are allowed while building; they are merged when the
/// model is lowered to standard form.
#[derive(Debug, Clone, Default)]
pub struct LinExpr {
    /// `(variable, coefficient)` terms, in insertion order.
    pub terms: Vec<(VarId, f64)>,
}

impl LinExpr {
    /// The empty expression (zero).
    pub fn new() -> Self {
        Self::default()
    }

    /// An expression consisting of a single `coeff * var` term.
    pub fn term(var: VarId, coeff: f64) -> Self {
        LinExpr { terms: vec![(var, coeff)] }
    }

    /// Adds `coeff * var` to the expression; returns `self` for chaining.
    pub fn add(mut self, var: VarId, coeff: f64) -> Self {
        self.terms.push((var, coeff));
        self
    }

    /// Adds `coeff * var` in place.
    pub fn add_term(&mut self, var: VarId, coeff: f64) {
        self.terms.push((var, coeff));
    }

    /// Sums `coeff * var` over an iterator of terms.
    pub fn sum(terms: impl IntoIterator<Item = (VarId, f64)>) -> Self {
        LinExpr { terms: terms.into_iter().collect() }
    }

    /// Sums a set of variables with unit coefficients.
    pub fn sum_vars(vars: impl IntoIterator<Item = VarId>) -> Self {
        LinExpr { terms: vars.into_iter().map(|v| (v, 1.0)).collect() }
    }
}

#[derive(Debug, Clone)]
struct VarDef {
    lb: f64,
    ub: f64,
}

#[derive(Debug, Clone)]
struct ConDef {
    terms: Vec<(VarId, f64)>,
    sense: Sense,
    rhs: f64,
}

/// Objective direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Minimize the objective expression.
    Minimize,
    /// Maximize the objective expression.
    Maximize,
}

/// An LP model under construction.
#[derive(Debug, Clone)]
pub struct Model {
    vars: Vec<VarDef>,
    cons: Vec<ConDef>,
    objective: LinExpr,
    direction: Objective,
}

impl Default for Model {
    fn default() -> Self {
        Self::new()
    }
}

impl Model {
    /// Creates an empty model (minimization by default).
    pub fn new() -> Self {
        Model {
            vars: Vec::new(),
            cons: Vec::new(),
            objective: LinExpr::new(),
            direction: Objective::Minimize,
        }
    }

    /// Adds a continuous variable with bounds `[lb, ub]`.
    ///
    /// Use [`INF`] / `-INF` for unbounded sides.
    pub fn add_var(&mut self, lb: f64, ub: f64) -> VarId {
        assert!(lb <= ub, "variable bounds crossed: [{lb}, {ub}]");
        let id = VarId(self.vars.len());
        self.vars.push(VarDef { lb, ub });
        id
    }

    /// Adds a continuous variable with bounds `[0, +inf)`.
    pub fn add_nonneg(&mut self) -> VarId {
        self.add_var(0.0, INF)
    }

    /// Posts the constraint `expr (sense) rhs`.
    pub fn add_con(&mut self, expr: LinExpr, sense: Sense, rhs: f64) {
        self.cons.push(ConDef { rhs, terms: expr.terms, sense });
    }

    /// Sets the objective expression and direction.
    pub fn set_objective(&mut self, expr: LinExpr, direction: Objective) {
        self.objective = expr;
        self.direction = direction;
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_cons(&self) -> usize {
        self.cons.len()
    }

    /// Replaces the bounds of an existing variable: the online stage moves a
    /// flow's demand bound between epochs.
    pub fn set_bounds(&mut self, v: VarId, lb: f64, ub: f64) {
        assert!(lb <= ub, "variable bounds crossed: [{lb}, {ub}]");
        self.vars[v.0].lb = lb;
        self.vars[v.0].ub = ub;
    }

    /// Objective direction.
    pub(crate) fn direction(&self) -> Objective {
        self.direction
    }

    /// The objective expression.
    #[cfg(test)]
    pub(crate) fn objective(&self) -> &LinExpr {
        &self.objective
    }

    /// Checks a candidate point against every constraint and bound.
    ///
    /// Returns the worst absolute violation found; `0.0` means feasible.
    pub(crate) fn max_violation(&self, x: &[f64]) -> f64 {
        let mut worst: f64 = 0.0;
        for (i, v) in self.vars.iter().enumerate() {
            worst = worst.max(v.lb - x[i]).max(x[i] - v.ub);
        }
        for c in &self.cons {
            let lhs: f64 = c.terms.iter().map(|&(v, co)| co * x[v.0]).sum();
            let viol = match c.sense {
                Sense::Le => lhs - c.rhs,
                Sense::Ge => c.rhs - lhs,
                Sense::Eq => (lhs - c.rhs).abs(),
            };
            worst = worst.max(viol);
        }
        worst.max(0.0)
    }

    /// Lowers the model to the standard computational form used by solvers:
    /// minimize `c'x + offset` subject to sparse rows with senses and
    /// variable bounds. Maximization is handled by negating the objective.
    pub fn to_standard(&self) -> StandardLp {
        let n = self.vars.len();
        let m = self.cons.len();
        let sign = match self.direction {
            Objective::Minimize => 1.0,
            Objective::Maximize => -1.0,
        };
        let mut obj = vec![0.0; n];
        for &(v, c) in &self.objective.terms {
            obj[v.0] += sign * c;
        }
        let mut triplets = Vec::with_capacity(self.cons.iter().map(|c| c.terms.len()).sum());
        for (i, con) in self.cons.iter().enumerate() {
            for &(v, c) in &con.terms {
                triplets.push((i, v.0, c));
            }
        }
        StandardLp {
            a: CsrMatrix::from_triplets(m, n, &triplets),
            senses: self.cons.iter().map(|c| c.sense).collect(),
            rhs: self.cons.iter().map(|c| c.rhs).collect(),
            lb: self.vars.iter().map(|v| v.lb).collect(),
            ub: self.vars.iter().map(|v| v.ub).collect(),
            obj,
            obj_sign: sign,
        }
    }
}

/// Standard computational form: minimize `obj . x` subject to
/// `A x (senses) rhs` and `lb <= x <= ub`.
///
/// `obj_sign` records whether the original model maximized (`-1.0`) so that
/// solution objectives can be reported in the user's direction.
#[derive(Debug, Clone)]
pub struct StandardLp {
    /// Constraint matrix, one row per constraint.
    pub a: CsrMatrix,
    /// Row senses.
    pub senses: Vec<Sense>,
    /// Row right-hand sides.
    pub rhs: Vec<f64>,
    /// Variable lower bounds.
    pub lb: Vec<f64>,
    /// Variable upper bounds.
    pub ub: Vec<f64>,
    /// Minimization objective coefficients.
    pub obj: Vec<f64>,
    /// `1.0` if the original model minimized, `-1.0` if it maximized.
    pub(crate) obj_sign: f64,
}

impl StandardLp {
    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.lb.len()
    }

    /// Number of constraints.
    pub fn num_cons(&self) -> usize {
        self.rhs.len()
    }

    /// Converts an internal minimization objective value back to the user's
    /// original direction.
    pub(crate) fn user_objective(&self, min_obj: f64) -> f64 {
        self.obj_sign * min_obj
    }

    /// [`word_fold`] digest of the constraint structure (dimensions,
    /// sparsity, coefficient bit patterns, senses); right-hand sides,
    /// bounds and objectives do not enter. Tests pin model builders with it:
    /// anything order-sensitive that reaches the rows shows up here.
    pub fn structure_digest(&self) -> u64 {
        let h = word_fold(word_fold(FNV1A_OFFSET, self.num_cons() as u64), self.num_vars() as u64);
        self.senses.iter().enumerate().fold(h, |h, (i, &sense)| {
            self.a.row(i).fold(word_fold(h, sense as u64), |h, (j, v)| {
                word_fold(word_fold(h, j as u64), v.to_bits())
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_small_model() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 10.0);
        let y = m.add_nonneg();
        m.add_con(LinExpr::new().add(x, 1.0).add(y, 2.0), Sense::Le, 14.0);
        m.set_objective(LinExpr::new().add(x, 3.0).add(y, 1.0), Objective::Maximize);
        assert_eq!(m.num_vars(), 2);
        assert_eq!(m.num_cons(), 1);
        let s = m.to_standard();
        assert_eq!(s.obj, vec![-3.0, -1.0]); // negated for maximization
        assert_eq!(s.rhs, vec![14.0]);
        assert_eq!(s.user_objective(-7.0), 7.0);
    }

    #[test]
    fn duplicate_terms_merge_in_matrix() {
        let mut m = Model::new();
        let x = m.add_nonneg();
        m.add_con(LinExpr::new().add(x, 1.0).add(x, 2.0), Sense::Eq, 9.0);
        let s = m.to_standard();
        let row: Vec<_> = s.a.row(0).collect();
        assert_eq!(row, vec![(0, 3.0)]);
    }

    #[test]
    fn max_violation_detects_all_kinds() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        m.add_con(LinExpr::term(x, 1.0), Sense::Ge, 2.0);
        assert!((m.max_violation(&[0.5]) - 1.5).abs() < 1e-12);
        assert!((m.max_violation(&[3.0]) - 2.0).abs() < 1e-12); // ub violated worse
        let mut m2 = Model::new();
        let y = m2.add_var(0.0, 5.0);
        m2.add_con(LinExpr::term(y, 1.0), Sense::Le, 4.0);
        assert_eq!(m2.max_violation(&[2.0]), 0.0);
    }
}
