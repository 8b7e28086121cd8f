//! TE allocations: the common output of every scheme.

use crate::tunnels::{FlowId, TeInstance, TunnelId};

/// Bandwidth allocation produced by a TE scheme.
///
/// `b_f` is the admitted bandwidth per flow; `a_{f,t}` the per-tunnel
/// allocation. Splitting ratios `ω_{f,t} = a_{f,t} / Σ_t a_{f,t}` are what
/// gets installed on routers (§3.3 "Phase II output").
#[derive(Debug, Clone)]
pub struct TeAllocation {
    /// Admitted bandwidth per flow (Gbps), indexed by [`FlowId`].
    pub b: Vec<f64>,
    /// Per-tunnel allocation (Gbps), indexed by [`TunnelId`].
    pub a: Vec<f64>,
    /// Name of the scheme that produced this (for reports).
    pub scheme: String,
}

impl TeAllocation {
    /// Splitting ratios for flow `f` over its tunnels, summing to 1.
    ///
    /// Zero-allocation tunnels get weight `ε = 1e-4` before normalization
    /// (the paper's footnote 6: avoids division by zero and keeps a live
    /// path through every tunnel).
    pub fn splitting_ratios(&self, inst: &TeInstance, f: FlowId) -> Vec<(TunnelId, f64)> {
        let eps = 1e-4;
        let tunnels = inst.flow_tunnels(f);
        let weights: Vec<f64> = tunnels.iter().map(|&t| self.a[t.0].max(eps)).collect();
        let total: f64 = weights.iter().sum();
        tunnels.iter().zip(weights).map(|(&t, w)| (t, w / total)).collect()
    }

    /// Total admitted bandwidth `Σ_f b_f`.
    pub fn total_admitted(&self) -> f64 {
        self.b.iter().sum()
    }

    /// The throughput metric of §6.2: `Σ_f b_f / Σ_f d_f`.
    pub fn throughput(&self, inst: &TeInstance) -> f64 {
        let d = inst.total_demand();
        if d <= 0.0 {
            1.0
        } else {
            self.total_admitted() / d
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tunnels::{build_instance, TunnelConfig};
    use arrow_topology::{b4, generate_failures, gravity_matrices, FailureConfig, TrafficConfig};

    #[test]
    fn splitting_ratios_sum_to_one() {
        let wan = b4(17);
        let tms = gravity_matrices(&wan, &TrafficConfig { num_matrices: 1, ..Default::default() });
        let failures = generate_failures(&wan, &FailureConfig::default());
        let inst = build_instance(
            &wan,
            &tms[0],
            &failures.failure_scenarios(),
            &TunnelConfig { tunnels_per_flow: 4, prefer_fiber_disjoint: false },
        );
        let alloc = TeAllocation {
            b: vec![1.0; inst.flows.len()],
            a: vec![0.0; inst.tunnels.len()],
            scheme: "test".into(),
        };
        let ratios = alloc.splitting_ratios(&inst, FlowId(0));
        let sum: f64 = ratios.iter().map(|(_, w)| w).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        // All-zero allocations give equal ratios.
        let first = ratios[0].1;
        assert!(ratios.iter().all(|&(_, w)| (w - first).abs() < 1e-12));
    }

    #[test]
    fn throughput_ratio() {
        let wan = b4(17);
        let tms = gravity_matrices(&wan, &TrafficConfig { num_matrices: 1, ..Default::default() });
        let failures = generate_failures(&wan, &FailureConfig::default());
        let inst =
            build_instance(&wan, &tms[0], &failures.failure_scenarios(), &Default::default());
        let half: Vec<f64> = inst.flows.iter().map(|f| f.demand_gbps / 2.0).collect();
        let alloc =
            TeAllocation { b: half, a: vec![0.0; inst.tunnels.len()], scheme: "test".into() };
        assert!((alloc.throughput(&inst) - 0.5).abs() < 1e-9);
    }
}
