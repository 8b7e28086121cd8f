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

impl IntoIterator for LinExpr {
    type Item = (VarId, f64);
    type IntoIter = std::vec::IntoIter<(VarId, f64)>;

    fn into_iter(self) -> Self::IntoIter {
        self.terms.into_iter()
    }
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
///
/// Rows are kept flat: row `i`'s `(column, coefficient)` terms are
/// `terms[row_ptr[i]..row_ptr[i + 1]]`, in the order they were posted.
#[derive(Debug, Clone)]
pub struct Model {
    lb: Vec<f64>,
    ub: Vec<f64>,
    row_ptr: Vec<usize>,
    terms: Vec<(usize, f64)>,
    senses: Vec<Sense>,
    rhs: Vec<f64>,
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
            lb: Vec::new(),
            ub: Vec::new(),
            row_ptr: vec![0],
            terms: Vec::new(),
            senses: Vec::new(),
            rhs: Vec::new(),
            objective: LinExpr::new(),
            direction: Objective::Minimize,
        }
    }

    /// Adds a continuous variable with bounds `[lb, ub]`.
    ///
    /// Use [`INF`] / `-INF` for unbounded sides.
    pub fn add_var(&mut self, lb: f64, ub: f64) -> VarId {
        assert!(lb <= ub, "variable bounds crossed: [{lb}, {ub}]");
        self.lb.push(lb);
        self.ub.push(ub);
        VarId(self.lb.len() - 1)
    }

    /// Adds a continuous variable with bounds `[0, +inf)`.
    pub fn add_nonneg(&mut self) -> VarId {
        self.add_var(0.0, INF)
    }

    /// Posts the constraint `Σ coefficient · variable (sense) rhs` over
    /// `terms` (a [`LinExpr`], or any sequence of terms, so a builder need
    /// not collect a row first).
    pub fn add_con(
        &mut self,
        terms: impl IntoIterator<Item = (VarId, f64)>,
        sense: Sense,
        rhs: f64,
    ) {
        self.terms.extend(terms.into_iter().map(|(v, c)| (v.0, c)));
        self.row_ptr.push(self.terms.len());
        self.senses.push(sense);
        self.rhs.push(rhs);
    }

    /// Sets the objective expression and direction.
    pub fn set_objective(&mut self, expr: LinExpr, direction: Objective) {
        self.objective = expr;
        self.direction = direction;
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.lb.len()
    }

    /// Number of constraints.
    pub fn num_cons(&self) -> usize {
        self.senses.len()
    }

    /// Replaces the bounds of an existing variable: the online stage moves a
    /// flow's demand bound between epochs.
    pub fn set_bounds(&mut self, v: VarId, lb: f64, ub: f64) {
        assert!(lb <= ub, "variable bounds crossed: [{lb}, {ub}]");
        self.lb[v.0] = lb;
        self.ub[v.0] = ub;
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
        for ((&lb, &ub), &xi) in self.lb.iter().zip(&self.ub).zip(x) {
            worst = worst.max(lb - xi).max(xi - ub);
        }
        for (i, (&sense, &rhs)) in self.senses.iter().zip(&self.rhs).enumerate() {
            let row = &self.terms[self.row_ptr[i]..self.row_ptr[i + 1]];
            let lhs: f64 = row.iter().map(|&(v, co)| co * x[v]).sum();
            let viol = match sense {
                Sense::Le => lhs - rhs,
                Sense::Ge => rhs - lhs,
                Sense::Eq => (lhs - rhs).abs(),
            };
            worst = worst.max(viol);
        }
        worst.max(0.0)
    }

    /// Lowers the model to the standard computational form used by solvers:
    /// minimize `c'x + offset` subject to sparse rows with senses and
    /// variable bounds. Maximization is handled by negating the objective.
    ///
    /// Each row is sorted by column (unless already strictly ascending)
    /// and its repeated columns summed in the order the sort leaves them.
    pub fn to_standard(&self) -> StandardLp {
        let sign = match self.direction {
            Objective::Minimize => 1.0,
            Objective::Maximize => -1.0,
        };
        let mut obj = vec![0.0; self.num_vars()];
        for &(v, c) in &self.objective.terms {
            obj[v.0] += sign * c;
        }
        StandardLp {
            a: CsrMatrix::from_rows(self.num_vars(), &self.row_ptr, &self.terms),
            senses: self.senses.clone(),
            rhs: self.rhs.clone(),
            lb: self.lb.clone(),
            ub: self.ub.clone(),
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

    /// Today's lowering before flat rows, kept as the parity reference:
    /// every term a `(row, column, value)` triplet in posting order, and
    /// the matrix built by the triplet bucket pass.
    fn triplet_lowering(m: &Model) -> StandardLp {
        let sign = match m.direction {
            Objective::Minimize => 1.0,
            Objective::Maximize => -1.0,
        };
        let mut obj = vec![0.0; m.num_vars()];
        for &(v, c) in &m.objective.terms {
            obj[v.0] += sign * c;
        }
        let mut triplets = Vec::new();
        for (i, ends) in m.row_ptr.windows(2).enumerate() {
            triplets.extend(m.terms[ends[0]..ends[1]].iter().map(|&(v, c)| (i, v, c)));
        }
        StandardLp {
            a: CsrMatrix::from_triplets(m.num_cons(), m.num_vars(), &triplets),
            senses: m.senses.clone(),
            rhs: m.rhs.clone(),
            lb: m.lb.clone(),
            ub: m.ub.clone(),
            obj,
            obj_sign: sign,
        }
    }

    /// A seeded model whose rows are empty, strictly ascending, or
    /// scattered with repeated columns; repeats either cancel to zero or
    /// add values whose sum depends on the order they are added in
    /// (`0.1 + 0.2 + 0.3` is not `0.3 + 0.2 + 0.1`). The objective repeats
    /// variables too. Returns the model and how many rows were empty,
    /// ascending and repeating.
    fn seeded_model(seed: u64) -> (Model, [usize; 3]) {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut draw = move |below: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize % below
        };
        const VALUES: [f64; 8] = [0.1, 0.2, 0.3, -0.7, 1e16, 1.0, -0.0, 2.5];
        let mut m = Model::new();
        let n = 1 + draw(12);
        let vars: Vec<_> = (0..n)
            .map(|_| m.add_var([0.0, -1.5, -INF][draw(3)], [1.0, 10.0, INF][draw(3)]))
            .collect();
        let mut kinds = [0; 3];
        for _ in 0..draw(14) {
            let mut row = LinExpr::new();
            match draw(4) {
                0 => kinds[0] += 1,
                1 => {
                    kinds[1] += 1;
                    for &v in &vars {
                        if draw(2) == 0 {
                            row.add_term(v, VALUES[draw(8)]);
                        }
                    }
                }
                _ => {
                    kinds[2] += 1;
                    for _ in 0..2 + draw(9) {
                        let (v, c) = (vars[draw(n.min(4))], VALUES[draw(8)]);
                        row.add_term(v, c);
                        if draw(3) == 0 {
                            row.add_term(v, -c);
                        }
                    }
                }
            }
            m.add_con(row, [Sense::Le, Sense::Ge, Sense::Eq][draw(3)], VALUES[draw(8)]);
        }
        let mut obj = LinExpr::new();
        for _ in 0..draw(2 * n + 1) {
            obj.add_term(vars[draw(n)], VALUES[draw(8)]);
        }
        m.set_objective(obj, [Objective::Minimize, Objective::Maximize][draw(2)]);
        (m, kinds)
    }

    /// The flat rows lower to the triplet lowering's standard form bit for
    /// bit: the same rows, entries and value bits, senses, right-hand
    /// sides, bounds and objective.
    #[test]
    fn flat_rows_lower_as_the_triplets_did_bit_for_bit() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut kinds = [0; 3];
        for seed in 0..400 {
            let (m, k) = seeded_model(seed);
            (0..3).for_each(|i| kinds[i] += k[i]);
            let (got, want) = (m.to_standard(), triplet_lowering(&m));
            assert_eq!(got.structure_digest(), want.structure_digest(), "seed {seed}");
            for i in 0..want.num_cons() {
                let row = |lp: &StandardLp| -> Vec<_> {
                    lp.a.row(i).map(|(c, v)| (c, v.to_bits())).collect()
                };
                assert_eq!(row(&got), row(&want), "seed {seed} row {i}");
            }
            assert_eq!(got.senses, want.senses, "seed {seed}");
            for (g, w) in [(&got.rhs, &want.rhs), (&got.lb, &want.lb), (&got.ub, &want.ub)] {
                assert_eq!(bits(g), bits(w), "seed {seed}");
            }
            assert_eq!(bits(&got.obj), bits(&want.obj), "seed {seed}");
            assert_eq!(got.obj_sign.to_bits(), want.obj_sign.to_bits(), "seed {seed}");
        }
        assert!(kinds.iter().all(|&k| k >= 200), "empty, ascending, repeating rows: {kinds:?}");
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
