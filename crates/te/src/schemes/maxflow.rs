//! Failure-oblivious throughput-maximal TE.
//!
//! Solves the standard constraints (1)–(3) with `max Σ b_f` and nothing
//! else. This is the LP used to *normalize* demand scales (§6 starts from a
//! state where 100% of demand is satisfiable) and doubles as the paper's
//! class of "failure-oblivious TE algorithms that assign traffic
//! respecting link capacity" \[42\].

use super::{base_model, extract_alloc, SchemeOutput, TeScheme};
use crate::tunnels::TeInstance;
use arrow_lp::SolverConfig;

/// The throughput-maximal failure-oblivious scheme.
#[derive(Debug, Clone, Default)]
pub struct MaxFlow {
    /// LP solver settings.
    pub solver: SolverConfig,
}

impl MaxFlow {
    /// The LP this scheme solves, for export (`arrow mps`).
    pub fn model(inst: &TeInstance) -> arrow_lp::Model {
        base_model(inst).model
    }
}

impl TeScheme for MaxFlow {
    fn name(&self) -> String {
        "MaxFlow".into()
    }

    fn solve(&self, inst: &TeInstance) -> SchemeOutput {
        let base = base_model(inst);
        let sol = arrow_lp::solve(&base.model, &self.solver);
        assert!(
            sol.status.is_usable(),
            "MaxFlow LP must be solvable (feasible at zero): {:?}",
            sol.status
        );
        SchemeOutput { alloc: extract_alloc(inst, &base, &sol, "MaxFlow"), restoration: None }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::alloc::TeAllocation;
    use crate::tunnels::{build_instance, TunnelConfig};
    use arrow_topology::{b4, generate_failures, gravity_matrices, FailureConfig, TrafficConfig};

    /// Builds a test instance at `scale` times the §6-normalized base load
    /// (the largest uniform demand scale MaxFlow fully satisfies). Anchoring
    /// on the normalized point keeps these tests meaningful for any RNG
    /// stream behind the gravity matrices; the raw draw is not guaranteed to
    /// fit the network at scale 1.0.
    fn instance(scale: f64) -> TeInstance {
        let wan = b4(17);
        let tms = gravity_matrices(&wan, &TrafficConfig { num_matrices: 1, ..Default::default() });
        let failures = generate_failures(&wan, &FailureConfig::default());
        let raw = build_instance(
            &wan,
            &tms[0],
            &failures.failure_scenarios(),
            &TunnelConfig { tunnels_per_flow: 4, prefer_fiber_disjoint: false },
        );
        raw.scaled(scale * crate::eval::normalize_demand_scale(&raw))
    }

    #[test]
    fn satisfies_all_demand_at_moderate_load() {
        let inst = instance(1.0);
        let out = MaxFlow::default().solve(&inst);
        let thr = out.alloc.throughput(&inst);
        assert!(thr > 0.99, "throughput {thr} at base load");
    }

    #[test]
    fn admits_less_when_overloaded() {
        let inst = instance(20.0);
        let out = MaxFlow::default().solve(&inst);
        let thr = out.alloc.throughput(&inst);
        assert!(thr < 1.0, "throughput {thr} should drop at 20x load");
        assert!(thr > 0.0);
    }

    #[test]
    fn respects_capacities() {
        let inst = instance(20.0);
        let out = MaxFlow::default().solve(&inst);
        assert_capacity_feasible(&inst, &out.alloc);
    }

    /// Shared helper: verifies directed link loads stay within capacity.
    pub(crate) fn assert_capacity_feasible(inst: &TeInstance, alloc: &TeAllocation) {
        for key in inst.used_dir_links() {
            let load: f64 = inst
                .tunnels
                .iter()
                .enumerate()
                .filter(|(_, t)| t.hops.iter().any(|h| h.link == key.0 && h.forward == key.1))
                .map(|(i, _)| alloc.a[i])
                .sum();
            let cap = inst.wan.link(key.0).capacity_gbps;
            assert!(load <= cap * (1.0 + 1e-5) + 1e-6, "link {:?} load {load} > cap {cap}", key);
        }
    }
}
