//! Forward Fault Correction (FFC) \[63\], extended to fiber cuts.
//!
//! FFC guarantees zero loss under any `k` simultaneous failures by
//! reserving enough headroom: for every failure combination, the surviving
//! tunnels of each flow must still cover its admitted bandwidth `b_f`.
//! Following §6, the failure units here are *fibers* (all IP links on a cut
//! fiber fail together), and `k = 1` / `k = 2` give FFC-1 / FFC-2.
//!
//! Constraint sets are deduplicated per flow by the set of tunnels each
//! combination kills: two combinations killing the same tunnels of a flow
//! impose the same inequality. Because allocations are fixed (no
//! re-routing), post-failure link loads never exceed healthy loads, so the
//! base capacity constraints suffice.

use super::{base_model, extract_alloc, SchemeOutput, TeScheme};
use crate::tunnels::TeInstance;
use arrow_lp::{LinExpr, Sense, SolverConfig};
use arrow_optical::FiberId;

/// The FFC-k scheme.
#[derive(Debug, Clone)]
pub struct Ffc {
    /// Protection level: guaranteed loss-free for up to `k` fiber cuts.
    pub k: usize,
    /// LP solver settings.
    pub solver: SolverConfig,
}

impl Ffc {
    /// FFC protecting against any single fiber cut.
    pub fn k1() -> Self {
        Ffc { k: 1, solver: SolverConfig::default() }
    }

    /// FFC protecting against any double fiber cut.
    pub fn k2() -> Self {
        Ffc { k: 2, solver: SolverConfig::default() }
    }

    /// Enumerates all fiber-cut combinations of size 1..=k.
    fn combinations(&self, num_fibers: usize) -> Vec<Vec<FiberId>> {
        let mut combos: Vec<Vec<FiberId>> = (0..num_fibers).map(|f| vec![FiberId(f)]).collect();
        if self.k >= 2 {
            for f in 0..num_fibers {
                for g in f + 1..num_fibers {
                    combos.push(vec![FiberId(f), FiberId(g)]);
                }
            }
        }
        assert!(self.k <= 2, "FFC-k implemented for k ∈ {{1, 2}} (as evaluated in the paper)");
        combos
    }
}

impl TeScheme for Ffc {
    fn name(&self) -> String {
        format!("FFC-{}", self.k)
    }

    fn solve(&self, inst: &TeInstance) -> SchemeOutput {
        let mut base = base_model(inst);
        let combos = self.combinations(inst.wan.optical.num_fibers());
        // Per flow, the distinct "dead tunnel sets" across all combinations.
        for (fi, flow) in inst.flows.iter().enumerate() {
            let mut seen: std::collections::BTreeSet<u64> = Default::default();
            for combo in &combos {
                let failed = inst.wan.links_failed_by(combo);
                if failed.is_empty() {
                    continue;
                }
                let mut mask: u64 = 0;
                for (slot, &t) in flow.tunnels.iter().enumerate() {
                    if inst.tunnels[t.0].hops.iter().any(|h| failed.contains(&h.link)) {
                        mask |= 1 << slot;
                    }
                }
                if mask == 0 || !seen.insert(mask) {
                    continue; // no tunnel dies, or an identical set was added
                }
                if mask.count_ones() as usize == flow.tunnels.len() {
                    // No tunnel can survive this combination: the flow is
                    // best-effort here (forcing b_f = 0 would zero the flow
                    // for all time; the loss shows up during playback).
                    continue;
                }
                // Σ_{surviving t} a_{f,t} ≥ b_f
                let mut e = LinExpr::new();
                for (slot, &t) in flow.tunnels.iter().enumerate() {
                    if mask & (1 << slot) == 0 {
                        e.add_term(base.a[t.0], 1.0);
                    }
                }
                e.add_term(base.b[fi], -1.0);
                base.model.add_con(e, Sense::Ge, 0.0);
            }
        }
        let sol = arrow_lp::solve(&base.model, &self.solver);
        assert!(sol.status.is_usable(), "FFC LP infeasible?! status {:?}", sol.status);
        SchemeOutput { alloc: extract_alloc(inst, &base, &sol, &self.name()), restoration: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tunnels::{build_instance, TunnelConfig};
    use arrow_topology::{b4, generate_failures, gravity_matrices, FailureConfig, TrafficConfig};

    fn instance(scale: f64) -> TeInstance {
        let wan = b4(17);
        let tms = gravity_matrices(&wan, &TrafficConfig { num_matrices: 1, ..Default::default() });
        let failures = generate_failures(&wan, &FailureConfig::default());
        build_instance(
            &wan,
            &tms[0].scaled(scale),
            &failures.failure_scenarios(),
            &TunnelConfig {
                tunnels_per_flow: 4,
                prefer_fiber_disjoint: true,
                ..Default::default()
            },
        )
    }

    /// FFC's core promise: after any single fiber cut, surviving tunnel
    /// allocations still cover b_f.
    #[test]
    fn ffc1_guarantee_holds_for_every_single_cut() {
        let inst = instance(3.0);
        let out = Ffc::k1().solve(&inst);
        for f in 0..inst.wan.optical.num_fibers() {
            let failed = inst.wan.links_failed_by(&[FiberId(f)]);
            for (fi, flow) in inst.flows.iter().enumerate() {
                let surviving: f64 = flow
                    .tunnels
                    .iter()
                    .filter(|&&t| !inst.tunnels[t.0].hops.iter().any(|h| failed.contains(&h.link)))
                    .map(|&t| out.alloc.a[t.0])
                    .sum();
                assert!(
                    surviving >= out.alloc.b[fi] - 1e-4,
                    "flow {fi}: surviving {surviving} < b {}",
                    out.alloc.b[fi]
                );
            }
        }
    }

    #[test]
    fn ffc2_admits_no_more_than_ffc1() {
        let inst = instance(3.0);
        let t1 = Ffc::k1().solve(&inst).alloc.throughput(&inst);
        let t2 = Ffc::k2().solve(&inst).alloc.throughput(&inst);
        assert!(t2 <= t1 + 1e-6, "FFC-2 ({t2}) cannot beat FFC-1 ({t1})");
        assert!(t2 > 0.0);
    }

    #[test]
    fn ffc_is_no_better_than_maxflow() {
        let inst = instance(3.0);
        let mf = super::super::maxflow::MaxFlow::default().solve(&inst);
        let f1 = Ffc::k1().solve(&inst);
        assert!(
            f1.alloc.throughput(&inst) <= mf.alloc.throughput(&inst) + 1e-6,
            "protection cannot increase throughput"
        );
    }

    #[test]
    fn names() {
        assert_eq!(Ffc::k1().name(), "FFC-1");
        assert_eq!(Ffc::k2().name(), "FFC-2");
    }
}
