//! Small-scale mixed-integer solver: LP-based branch & bound.
//!
//! ARROW needs integer solutions in two places, both small: the binary
//! LotteryTicket-selection formulation of Appendix A.5 (one binary per
//! ticket per scenario, used only to validate the LP two-phase design) and
//! exact RWA instances on toy topologies. This module is therefore a plain
//! best-first branch & bound over the [`crate::simplex`] relaxation — no
//! cuts, no presolve, no heuristics. Hard instances belong to a real MILP
//! solver and are out of scope (the paper itself shows the joint ILP is
//! intractable; see Table 8).

use crate::model::Model;
use crate::simplex::{self, SimplexConfig};
use crate::solution::{Solution, SolveStats, Status};

/// Tunable knobs for branch & bound.
#[derive(Debug, Clone)]
pub struct MilpConfig {
    /// Integrality tolerance: `x` counts as integral within this distance.
    pub int_tol: f64,
    /// Relative optimality gap at which the search stops.
    pub gap_tol: f64,
    /// Maximum branch-and-bound nodes explored.
    pub max_nodes: usize,
    /// Configuration for the LP relaxations.
    pub lp: SimplexConfig,
}

impl Default for MilpConfig {
    fn default() -> Self {
        MilpConfig {
            int_tol: 1e-6,
            gap_tol: 1e-9,
            max_nodes: 100_000,
            lp: SimplexConfig::default(),
        }
    }
}

#[derive(Debug)]
struct Node {
    /// `(var index, lb, ub)` bound overrides along this branch.
    bounds: Vec<(usize, f64, f64)>,
    /// LP bound of the parent (minimization sense), for best-first order.
    bound: f64,
}

/// Solves a model containing integer variables by branch & bound.
///
/// Continuous models are passed straight to the simplex backend.
pub fn solve(model: &Model, cfg: &MilpConfig) -> Solution {
    if model.num_int_vars() == 0 {
        return simplex::solve(&model.to_standard(), &cfg.lp);
    }
    let int_vars: Vec<usize> =
        (0..model.num_vars()).filter(|&j| model.is_integer(crate::model::VarId(j))).collect();

    // Best-first queue ordered by relaxation bound (minimization).
    let mut queue: Vec<Node> = vec![Node { bounds: Vec::new(), bound: f64::NEG_INFINITY }];
    let mut incumbent: Option<Solution> = None;
    let mut incumbent_min_obj = f64::INFINITY;
    let mut nodes = 0usize;
    let mut iterations = 0usize;
    let obj_sign = model.to_standard().obj_sign;

    while let Some(pos) = queue
        .iter()
        .enumerate()
        // total_cmp: a NaN node bound (pathological user objective) must
        // not panic the search; NaN orders after every real bound.
        .min_by(|a, b| a.1.bound.total_cmp(&b.1.bound))
        .map(|(i, _)| i)
    {
        let node = queue.swap_remove(pos);
        if nodes >= cfg.max_nodes {
            break;
        }
        nodes += 1;
        // Prune by bound.
        if node.bound >= incumbent_min_obj - cfg.gap_tol * (1.0 + incumbent_min_obj.abs()) {
            continue;
        }
        // Solve the relaxation with this node's bound overrides.
        let mut relaxed = model.clone();
        let mut inconsistent = false;
        for &(j, lb, ub) in &node.bounds {
            if lb > ub {
                inconsistent = true;
                break;
            }
            relaxed.set_bounds(crate::model::VarId(j), lb, ub);
        }
        if inconsistent {
            continue;
        }
        let sol = simplex::solve(&relaxed.to_standard(), &cfg.lp);
        iterations += sol.stats.iterations;
        match sol.status {
            Status::Optimal => {}
            Status::Infeasible => continue,
            Status::Unbounded => {
                // An unbounded relaxation at the root means the MILP itself
                // is unbounded (or ill-posed); deeper nodes only restrict.
                let mut out =
                    Solution::failed(Status::Unbounded, model.num_vars(), model.num_cons());
                out.stats.nodes = nodes;
                return out;
            }
            other => {
                let mut out = Solution::failed(other, model.num_vars(), model.num_cons());
                out.stats.nodes = nodes;
                return out;
            }
        }
        let min_obj = obj_sign * sol.objective;
        if min_obj >= incumbent_min_obj - cfg.gap_tol * (1.0 + incumbent_min_obj.abs()) {
            continue;
        }
        // Find the most fractional integer variable.
        let mut branch: Option<(usize, f64)> = None;
        let mut best_frac = cfg.int_tol;
        for &j in &int_vars {
            let v = sol.x[j];
            let frac = (v - v.round()).abs();
            if frac > best_frac {
                best_frac = frac;
                branch = Some((j, v));
            }
        }
        match branch {
            None => {
                // Integral: new incumbent (snap values exactly).
                let mut snapped = sol.clone();
                for &j in &int_vars {
                    snapped.x[j] = snapped.x[j].round();
                }
                incumbent_min_obj = min_obj;
                incumbent = Some(snapped);
            }
            Some((j, v)) => {
                let (cur_lb, cur_ub) = {
                    // Respect overrides already on this node.
                    let mut lb = model.bounds(crate::model::VarId(j)).0;
                    let mut ub = model.bounds(crate::model::VarId(j)).1;
                    for &(jj, l, u) in &node.bounds {
                        if jj == j {
                            lb = l;
                            ub = u;
                        }
                    }
                    (lb, ub)
                };
                let mut down = node.bounds.clone();
                down.push((j, cur_lb, v.floor()));
                let mut up = node.bounds.clone();
                up.push((j, v.ceil(), cur_ub));
                queue.push(Node { bounds: down, bound: min_obj });
                queue.push(Node { bounds: up, bound: min_obj });
            }
        }
    }

    match incumbent {
        Some(mut sol) => {
            sol.stats = SolveStats { iterations, nodes, ..sol.stats };
            sol
        }
        None => {
            let status =
                if nodes >= cfg.max_nodes { Status::IterationLimit } else { Status::Infeasible };
            let mut out = Solution::failed(status, model.num_vars(), model.num_cons());
            out.stats.nodes = nodes;
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinExpr, Model, Objective, Sense};

    #[test]
    fn knapsack_binary() {
        // max 10a + 6b + 4c s.t. a + b + c <= 2 (binaries) => 16
        let mut m = Model::new();
        let a = m.add_binary();
        let b = m.add_binary();
        let c = m.add_binary();
        m.add_con(LinExpr::sum_vars([a, b, c]), Sense::Le, 2.0);
        m.set_objective(LinExpr::new().add(a, 10.0).add(b, 6.0).add(c, 4.0), Objective::Maximize);
        let s = solve(&m, &MilpConfig::default());
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 16.0).abs() < 1e-6);
        assert_eq!(s.x[0].round() as i32, 1);
        assert_eq!(s.x[1].round() as i32, 1);
        assert_eq!(s.x[2].round() as i32, 0);
    }

    #[test]
    fn integer_rounding_matters() {
        // max x + y s.t. 2x + 2y <= 5, integers => 2 (not 2.5)
        let mut m = Model::new();
        let x = m.add_int_var(0.0, 10.0);
        let y = m.add_int_var(0.0, 10.0);
        m.add_con(LinExpr::new().add(x, 2.0).add(y, 2.0), Sense::Le, 5.0);
        m.set_objective(LinExpr::new().add(x, 1.0).add(y, 1.0), Objective::Maximize);
        let s = solve(&m, &MilpConfig::default());
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 2.0).abs() < 1e-6, "obj {}", s.objective);
    }

    #[test]
    fn mixed_integer_continuous() {
        // max 5b + x s.t. x <= 3.7, x - 10b <= 0 (x usable only if b=1)
        let mut m = Model::new();
        let b = m.add_binary();
        let x = m.add_nonneg();
        m.add_con(LinExpr::term(x, 1.0), Sense::Le, 3.7);
        m.add_con(LinExpr::new().add(x, 1.0).add(b, -10.0), Sense::Le, 0.0);
        m.set_objective(LinExpr::new().add(b, 5.0).add(x, 1.0), Objective::Maximize);
        let s = solve(&m, &MilpConfig::default());
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 8.7).abs() < 1e-6);
    }

    #[test]
    fn infeasible_integer_model() {
        // 2x = 3 with x integer is infeasible.
        let mut m = Model::new();
        let x = m.add_int_var(0.0, 10.0);
        m.add_con(LinExpr::term(x, 2.0), Sense::Eq, 3.0);
        m.set_objective(LinExpr::term(x, 1.0), Objective::Minimize);
        let s = solve(&m, &MilpConfig::default());
        assert_eq!(s.status, Status::Infeasible);
    }

    #[test]
    fn continuous_model_delegates_to_simplex() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 2.5);
        m.set_objective(LinExpr::term(x, 1.0), Objective::Maximize);
        m.add_con(LinExpr::term(x, 1.0), Sense::Le, 100.0);
        let s = solve(&m, &MilpConfig::default());
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 2.5).abs() < 1e-9);
        assert_eq!(s.stats.nodes, 0);
    }

    #[test]
    fn exactly_one_selection() {
        // The Appendix A.5 pattern: pick exactly one ticket, maximize value.
        let mut m = Model::new();
        let t: Vec<_> = (0..5).map(|_| m.add_binary()).collect();
        m.add_con(LinExpr::sum_vars(t.iter().copied()), Sense::Eq, 1.0);
        let values = [3.0, 7.0, 2.0, 7.0, 1.0];
        m.set_objective(
            LinExpr::sum(t.iter().copied().zip(values.iter().copied())),
            Objective::Maximize,
        );
        let s = solve(&m, &MilpConfig::default());
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 7.0).abs() < 1e-6);
        let chosen: f64 = s.x.iter().sum();
        assert!((chosen - 1.0).abs() < 1e-6);
    }
}
