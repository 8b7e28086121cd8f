//! TeaVaR \[17\]: risk-aware TE via Conditional Value-at-Risk.
//!
//! Instead of FFC's absolute guarantees, TeaVaR hedges against
//! *probabilistic* failure scenarios: it minimizes the CVaR at availability
//! target β of the per-scenario demand-loss fraction, subject to the
//! standard capacity constraints. The classic Rockafellar–Uryasev
//! linearization is used:
//!
//! ```text
//! minimize   α + 1/(1-β) Σ_q p_q s_q      (CVaR_β of loss)
//! s.t.       s_q ≥ loss_q − α,  s_q ≥ 0
//!            loss_q = 1 − Σ_f delivered_{f,q} / Σ_f d_f
//!            delivered_{f,q} ≤ Σ_{t ∈ T_f^q} a_{f,t}   (surviving tunnels)
//!            delivered_{f,q} ≤ d_f
//!            link capacities (healthy)                  (loads never grow)
//! ```
//!
//! A small throughput bonus breaks ties among CVaR-optimal allocations so
//! capacity is not left idle. Scenario probabilities are normalized over
//! the enumerated set (healthy + failures above the cutoff), mirroring the
//! paper's "only consider highly-probable scenarios".

use super::{SchemeOutput, TeScheme};
use crate::alloc::TeAllocation;
use crate::index::ScenarioOverlay;
use crate::tunnels::{DirLink, TeInstance};
use arrow_lp::{LinExpr, Model, Objective, Sense, SolverConfig, VarId};

/// The TeaVaR scheme.
#[derive(Debug, Clone)]
pub struct TeaVar {
    /// Availability target β (paper simulations use 0.999).
    pub beta: f64,
    /// LP solver settings.
    pub solver: SolverConfig,
}

impl Default for TeaVar {
    fn default() -> Self {
        TeaVar { beta: 0.999, solver: SolverConfig::default() }
    }
}

impl TeScheme for TeaVar {
    fn name(&self) -> String {
        "TeaVaR".into()
    }

    fn solve(&self, inst: &TeInstance) -> SchemeOutput {
        let total_demand = inst.total_demand().max(1e-9);
        let mut model = Model::new();
        let a: Vec<VarId> = inst.tunnels.iter().map(|_| model.add_nonneg()).collect();
        // Healthy capacity constraints.
        for key in inst.used_dir_links() {
            let DirLink(link, fwd) = key;
            model.add_con(
                LinExpr::sum_vars(inst.tunnels_on(link, fwd).map(|t| a[t.0])),
                Sense::Le,
                inst.wan.link(link).capacity_gbps,
            );
        }
        // Scenario list: healthy + failure scenarios, probabilities
        // normalized over the enumerated mass. The healthy scenario gets
        // the complement of the failure scenarios' mass.
        let failure_mass: f64 = inst.scenarios.iter().map(|s| s.probability).sum();
        let healthy_p = (1.0 - failure_mass).max(0.0);
        let mass = (healthy_p + failure_mass).max(1e-12);
        let alpha = model.add_var(-1.0, 1.0);
        let mut cvar_expr = LinExpr::term(alpha, 1.0);
        let mut bonus = LinExpr::new();
        // Healthy delivered vars (reused by every scenario for flows the
        // scenario does not touch — their surviving-tunnel bound is
        // identical, which keeps the LP small).
        let mut healthy_delivered: Vec<VarId> = Vec::new();
        for flow in &inst.flows {
            let d = model.add_var(0.0, flow.demand_gbps);
            let mut cover = LinExpr::term(d, -1.0);
            for &t in &flow.tunnels {
                cover.add_term(a[t.0], 1.0);
            }
            model.add_con(cover, Sense::Ge, 0.0);
            healthy_delivered.push(d);
        }
        for scen in std::iter::once(None).chain(inst.scenarios.iter().map(Some)) {
            let p = match scen {
                None => healthy_p / mass,
                Some(s) => s.probability / mass,
            };
            let s_q = model.add_nonneg();
            cvar_expr.add_term(s_q, p / (1.0 - self.beta));
            // loss_q = 1 - Σ delivered / D  =>  s_q ≥ loss_q - α becomes
            // s_q + Σ delivered / D + α ≥ 1.
            let mut loss_con = LinExpr::term(s_q, 1.0).add(alpha, 1.0);
            let overlay = ScenarioOverlay::new(inst, scen, None);
            for (fi, flow) in inst.flows.iter().enumerate() {
                let d = if !flow.tunnels.iter().all(|&t| overlay.survives(t)) {
                    let d = model.add_var(0.0, flow.demand_gbps);
                    // delivered ≤ surviving tunnel allocations.
                    let mut cover = LinExpr::term(d, -1.0);
                    for t in flow.tunnels.iter().filter(|&&t| overlay.survives(t)) {
                        cover.add_term(a[t.0], 1.0);
                    }
                    model.add_con(cover, Sense::Ge, 0.0);
                    d
                } else {
                    healthy_delivered[fi]
                };
                loss_con.add_term(d, 1.0 / total_demand);
                bonus.add_term(d, p * 1e-4 / total_demand);
            }
            model.add_con(loss_con, Sense::Ge, 1.0);
        }
        // minimize CVaR − tiny·throughput  ==  maximize −CVaR + bonus
        let mut obj = bonus;
        for (v, c) in cvar_expr.terms {
            obj.add_term(v, -c);
        }
        model.set_objective(obj, Objective::Maximize);
        let sol = arrow_lp::solve(&model, &self.solver);
        assert!(sol.status.is_usable(), "TeaVaR LP failed: {:?}", sol.status);
        let alloc = TeAllocation {
            b: healthy_delivered.iter().map(|&v| sol.value(v).max(0.0)).collect(),
            a: a.iter().map(|&v| sol.value(v).max(0.0)).collect(),
            scheme: self.name(),
        }
        .repaired(inst)
        .clamped(inst);
        SchemeOutput { alloc, restoration: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::maxflow::MaxFlow;
    use crate::tunnels::{build_instance, TunnelConfig};
    use arrow_topology::{b4, generate_failures, gravity_matrices, FailureConfig, TrafficConfig};

    fn instance(scale: f64) -> TeInstance {
        let wan = b4(17);
        let tms = gravity_matrices(&wan, &TrafficConfig { num_matrices: 1, ..Default::default() });
        let failures =
            generate_failures(&wan, &FailureConfig { max_scenarios: 12, ..Default::default() });
        build_instance(
            &wan,
            &tms[0].scaled(scale),
            &failures.failure_scenarios(),
            &TunnelConfig { tunnels_per_flow: 4, prefer_fiber_disjoint: true },
        )
    }

    #[test]
    fn respects_capacity_and_demand() {
        let inst = instance(2.0);
        let out = TeaVar::default().solve(&inst);
        for (i, f) in inst.flows.iter().enumerate() {
            assert!(out.alloc.b[i] <= f.demand_gbps + 1e-6);
        }
        crate::schemes::maxflow::tests::assert_capacity_feasible(&inst, &out.alloc);
    }

    #[test]
    fn hedges_compared_to_maxflow() {
        // Under load, TeaVaR sacrifices some admitted bandwidth for
        // failure-scenario coverage; it can never beat MaxFlow's healthy
        // throughput.
        let inst = instance(4.0);
        let tv = TeaVar::default().solve(&inst);
        let mf = MaxFlow::default().solve(&inst);
        assert!(
            tv.alloc.throughput(&inst) <= mf.alloc.throughput(&inst) + 1e-4,
            "TeaVaR {} vs MaxFlow {}",
            tv.alloc.throughput(&inst),
            mf.alloc.throughput(&inst)
        );
        assert!(tv.alloc.throughput(&inst) > 0.05);
    }

    #[test]
    fn light_load_fully_admitted() {
        let inst = instance(0.5);
        let out = TeaVar::default().solve(&inst);
        let thr = out.alloc.throughput(&inst);
        assert!(thr > 0.95, "under light load TeaVaR should admit ~all demand, got {thr}");
    }
}
