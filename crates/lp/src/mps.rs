//! MPS export: write a [`Model`] in the classic MPS interchange format.
//!
//! The fixed-column MPS format is the lingua franca of LP solvers; dumping
//! a formulation lets a user cross-check this crate's solvers against
//! Gurobi/CPLEX/HiGHS (exactly what a reproduction of a Gurobi-based paper
//! wants to offer). The writer emits free-format MPS (whitespace-
//! separated), which every modern solver reads.
//!
//! Only export is implemented — this crate never needs to *parse* MPS.

use crate::model::{Model, Objective, Sense};
use std::fmt::Write as _;

/// Renders `model` as an MPS document.
///
/// A model carries no names, so column `j` is written `x{j}` and row `i`
/// `c{i}`. Maximization is encoded by negating the objective row and
/// noting it in a comment (classic MPS has no OBJSENSE; the `OBJSENSE`
/// extension is emitted too for solvers that support it).
pub fn to_mps(model: &Model, name: &str) -> String {
    let std_form = model.to_standard();
    let maximize = model.direction() == Objective::Maximize;
    let mut out = String::new();
    let _ = writeln!(out, "* Generated by arrow-lp");
    if maximize {
        let _ = writeln!(out, "* Original direction: MAXIMIZE");
    }
    let _ = writeln!(out, "NAME {name}");
    let _ = writeln!(out, "OBJSENSE");
    let _ = writeln!(out, "    {}", if maximize { "MAX" } else { "MIN" });
    // ROWS
    let _ = writeln!(out, "ROWS");
    let _ = writeln!(out, " N  OBJ");
    for i in 0..std_form.num_cons() {
        let tag = match std_form.senses[i] {
            Sense::Le => 'L',
            Sense::Ge => 'G',
            Sense::Eq => 'E',
        };
        let _ = writeln!(out, " {tag}  c{i}");
    }
    // COLUMNS (column-major, so transpose the row-major matrix).
    let _ = writeln!(out, "COLUMNS");
    let csc = std_form.a.to_csc();
    let sign = if maximize { -1.0 } else { 1.0 };
    for j in 0..std_form.num_vars() {
        // Objective entry first (in the user's direction).
        let c = sign * std_form.obj[j];
        if c != 0.0 {
            let _ = writeln!(out, "    x{j}  OBJ  {c}");
        }
        if model.is_integer(crate::model::VarId(j)) {
            let _ = writeln!(out, "    MARKER  'MARKER'  'INTORG'");
        }
        for (i, v) in csc.col(j) {
            let _ = writeln!(out, "    x{j}  c{i}  {v}");
        }
        if model.is_integer(crate::model::VarId(j)) {
            let _ = writeln!(out, "    MARKER  'MARKER'  'INTEND'");
        }
    }
    // RHS
    let _ = writeln!(out, "RHS");
    for (i, r) in std_form.rhs.iter().enumerate() {
        if *r != 0.0 {
            let _ = writeln!(out, "    RHS  c{i}  {r}");
        }
    }
    // BOUNDS (MPS default is [0, +inf); emit only deviations).
    let _ = writeln!(out, "BOUNDS");
    for j in 0..std_form.num_vars() {
        let (lb, ub) = (std_form.lb[j], std_form.ub[j]);
        match (lb, ub) {
            (l, u) if l == u => {
                let _ = writeln!(out, " FX BND  x{j}  {l}");
            }
            (l, u) if l == f64::NEG_INFINITY && u == f64::INFINITY => {
                let _ = writeln!(out, " FR BND  x{j}");
            }
            (l, u) => {
                if l != 0.0 {
                    if l == f64::NEG_INFINITY {
                        let _ = writeln!(out, " MI BND  x{j}");
                    } else {
                        let _ = writeln!(out, " LO BND  x{j}  {l}");
                    }
                }
                if u != f64::INFINITY {
                    let _ = writeln!(out, " UP BND  x{j}  {u}");
                }
            }
        }
    }
    let _ = writeln!(out, "ENDATA");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinExpr, Model, Objective, Sense, INF};

    fn sample_model() -> Model {
        let mut m = Model::new();
        let x = m.add_var(0.0, 4.0);
        let y = m.add_var(-INF, INF);
        let b = m.add_binary();
        m.add_con(LinExpr::new().add(x, 3.0).add(y, 2.0), Sense::Le, 18.0);
        m.add_con(LinExpr::new().add(y, 1.0).add(b, 5.0), Sense::Ge, 1.0);
        m.add_con(LinExpr::new().add(x, 1.0).add(b, -1.0), Sense::Eq, 0.5);
        m.set_objective(LinExpr::new().add(x, 3.0).add(y, 5.0), Objective::Maximize);
        m
    }

    #[test]
    fn sections_present_in_order() {
        let mps = to_mps(&sample_model(), "sample");
        let sections = ["NAME sample", "OBJSENSE", "ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"];
        let mut pos = 0;
        for s in sections {
            let found = mps[pos..].find(s).unwrap_or_else(|| panic!("missing section {s}"));
            pos += found;
        }
    }

    #[test]
    fn row_senses_encoded() {
        let mps = to_mps(&sample_model(), "s");
        assert!(mps.contains(" L  c0"));
        assert!(mps.contains(" G  c1"));
        assert!(mps.contains(" E  c2"));
        assert!(mps.contains(" N  OBJ"));
    }

    #[test]
    fn objective_kept_in_user_direction() {
        // Internally the standard form negates for maximization; the MPS
        // output must show the user's coefficients with OBJSENSE MAX.
        let mps = to_mps(&sample_model(), "s");
        assert!(mps.contains("MAX"));
        assert!(mps.contains("x0  OBJ  3"));
        assert!(mps.contains("x1  OBJ  5"));
    }

    #[test]
    fn bounds_cover_all_kinds() {
        let mps = to_mps(&sample_model(), "s");
        assert!(mps.contains(" UP BND  x0  4"), "upper bound");
        assert!(mps.contains(" FR BND  x1"), "free variable");
        assert!(mps.contains(" UP BND  x2  1"), "binary upper bound");
    }

    #[test]
    fn integer_markers_wrap_binary_columns() {
        let mps = to_mps(&sample_model(), "s");
        let intorg = mps.find("'INTORG'").expect("INTORG");
        let intend = mps.find("'INTEND'").expect("INTEND");
        assert!(intorg < intend);
        let x2 = mps.find("x2  c1").expect("binary column entry");
        assert!(intorg < x2 && x2 < intend, "binary column inside markers");
    }

    #[test]
    fn rhs_written_for_nonzero_rows() {
        let mps = to_mps(&sample_model(), "s");
        assert!(mps.contains("RHS  c0  18"));
        assert!(mps.contains("RHS  c2  0.5"));
    }
}
