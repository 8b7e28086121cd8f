//! # arrow-lp — linear programming toolkit
//!
//! The ARROW paper solves its traffic-engineering formulations with Gurobi.
//! Every formulation the reproduction solves is an LP, so this crate is the
//! from-scratch substitute for Gurobi's LP side: a model builder plus two
//! solver backends, all in safe Rust with zero dependencies.
//!
//! * [`simplex`] — bounded-variable two-phase revised simplex. Exact; the
//!   workhorse for problems up to a few thousand rows.
//! * [`pdhg`] — PDLP-style restarted primal–dual hybrid gradient. Scales to
//!   very large LPs (ARROW Phase I with many LotteryTickets × scenarios);
//!   converges to a relative KKT tolerance.
//!
//! The usual entry point is [`solver::solve`], which auto-selects a backend:
//!
//! ```
//! use arrow_lp::model::{LinExpr, Model, Objective, Sense};
//!
//! let mut m = Model::new();
//! let x = m.add_var(0.0, 4.0);
//! let y = m.add_nonneg();
//! m.add_con(LinExpr::new().add(x, 3.0).add(y, 2.0), Sense::Le, 18.0);
//! m.set_objective(LinExpr::new().add(x, 3.0).add(y, 5.0), Objective::Maximize);
//! let sol = arrow_lp::solve(&m, &arrow_lp::SolverConfig::default());
//! assert!(sol.status.is_optimal());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Product policy (DESIGN.md § Static analysis): library code neither
// panics nor touches hash-ordered or wall-clock types; tests may.
#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_types,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::allow_attributes_without_reason
    )
)]

pub mod model;
pub mod mps;
pub mod pdhg;
pub mod simplex;
pub mod solution;
pub mod solver;
pub mod sparse;
pub mod warm;

pub use model::{LinExpr, Model, Objective, Sense, VarId, INF};
pub use solution::{Solution, SolveStats, Status};
pub use solver::{solve, solve_batch, solve_with, Backend, SolverConfig};
pub use warm::{BackendKind, Basis, ColStatus, PrimalDual, WarmEvent, WarmStart};
