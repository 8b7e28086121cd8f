//! Warm-start types shared by the solver backends.
//!
//! ARROW's online stage re-solves structurally identical LPs every TE epoch
//! (consecutive traffic matrices in a diurnal sweep, Phase I → Phase II).
//! A [`WarmStart`] carries whatever the last solve learned: a simplex
//! [`Basis`] and/or a primal–dual [`PrimalDual`] point for PDHG. Each
//! backend consumes the part it understands and ignores the rest; an
//! incompatible warm start (wrong dimensions, singular basis, infeasible
//! under the new data) is recorded as a [`WarmEvent::Miss`] and the solve
//! falls back to the cold path, so warm starting never changes *whether* a
//! problem is solved — only how fast.

/// Status of one column (structural variable or row slack) in a simplex
/// basis snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColStatus {
    /// The column is in the basis.
    Basic,
    /// Nonbasic at its lower bound.
    AtLower,
    /// Nonbasic at its upper bound.
    AtUpper,
    /// Free column parked at zero.
    Free,
}

/// A simplex basis snapshot: one [`ColStatus`] per column, the `n`
/// structural variables first, then the `m` row slacks.
///
/// The snapshot is data-independent: it records only *which* columns are
/// basic, so it stays meaningful when bounds (demands) or right-hand sides
/// (restored capacities) change between solves — exactly the mutations the
/// online stage performs. It is invalidated by any change to the constraint
/// *pattern* (row/column counts or coefficients).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Basis {
    /// Per-column status, length `n + m`.
    pub cols: Vec<ColStatus>,
}

impl Basis {
    /// Number of basic columns recorded.
    pub fn num_basic(&self) -> usize {
        self.cols.iter().filter(|c| matches!(c, ColStatus::Basic)).count()
    }
}

/// A primal–dual point in user space (unscaled model variables / rows), as
/// found in [`Solution::x`](crate::solution::Solution) and
/// [`Solution::duals`](crate::solution::Solution). PDHG maps it through its
/// own equilibration and resumes iterating from there.
#[derive(Debug, Clone, PartialEq)]
pub struct PrimalDual {
    /// Primal values per variable.
    pub x: Vec<f64>,
    /// Dual values per constraint row (may be empty: primal-only start).
    pub y: Vec<f64>,
}

/// Everything a previous solve can hand to the next one.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WarmStart {
    /// Simplex basis snapshot (used by the simplex backend).
    pub basis: Option<Basis>,
    /// Primal–dual point (used by the PDHG backend).
    pub point: Option<PrimalDual>,
}

impl WarmStart {
    /// A warm start carrying only a basis.
    pub fn from_basis(basis: Basis) -> Self {
        WarmStart { basis: Some(basis), point: None }
    }

    /// A warm start carrying only a primal–dual point.
    pub fn from_point(point: PrimalDual) -> Self {
        WarmStart { basis: None, point: Some(point) }
    }
}

/// What happened to the warm start this solve was given.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WarmEvent {
    /// No warm start was supplied (or the backend cannot use one).
    #[default]
    Cold,
    /// The warm start was accepted and the solve resumed from it.
    Hit,
    /// A warm start was supplied but rejected (dimension mismatch, singular
    /// or infeasible basis); the solve ran cold.
    Miss,
}

/// Which algorithm actually executed a solve (recorded in
/// [`SolveStats`](crate::solution::SolveStats); unlike
/// [`Backend`](crate::solver::Backend) this is never `Auto`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// No backend ran (failure placeholder or closed-form answer).
    #[default]
    None,
    /// Bounded-variable two-phase revised simplex.
    Simplex,
    /// Restarted averaged primal–dual hybrid gradient.
    Pdhg,
}

impl BackendKind {
    /// Short lowercase label for logs and JSON benches.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::None => "none",
            BackendKind::Simplex => "simplex",
            BackendKind::Pdhg => "pdhg",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basis_counts_basic_columns() {
        let b = Basis {
            cols: vec![ColStatus::Basic, ColStatus::AtLower, ColStatus::Basic, ColStatus::Free],
        };
        assert_eq!(b.num_basic(), 2);
    }

    #[test]
    fn warm_start_constructors() {
        let ws = WarmStart::from_point(PrimalDual { x: vec![1.0], y: vec![] });
        assert!(ws.point.is_some());
        assert!(ws.basis.is_none());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(BackendKind::Simplex.label(), "simplex");
    }
}
