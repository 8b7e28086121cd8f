//! ECMP baseline \[21\]: equal traffic on every tunnel, no optimization.
//!
//! ECMP is failure-oblivious and capacity-oblivious: it admits the full
//! demand and splits it evenly across the flow's tunnels. Congestion and
//! failures surface as loss during playback (`crate::eval`), exactly as in
//! the paper where ECMP "does not provide any guarantees with respect to
//! failures".

use super::{SchemeOutput, TeScheme};
use crate::alloc::TeAllocation;
use crate::tunnels::TeInstance;

/// The ECMP scheme.
#[derive(Debug, Clone, Default)]
pub struct Ecmp;

impl TeScheme for Ecmp {
    fn name(&self) -> String {
        "ECMP".into()
    }

    fn solve(&self, inst: &TeInstance) -> SchemeOutput {
        let mut a = vec![0.0; inst.tunnels.len()];
        let mut b = vec![0.0; inst.flows.len()];
        for (i, f) in inst.flows.iter().enumerate() {
            b[i] = f.demand_gbps;
            let share = f.demand_gbps / f.tunnels.len().max(1) as f64;
            for &t in &f.tunnels {
                a[t.0] = share;
            }
        }
        SchemeOutput {
            alloc: TeAllocation { b, a, scheme: self.name(), solve_seconds: 0.0 },
            restoration: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tunnels::{build_instance, TunnelConfig};
    use arrow_topology::{b4, generate_failures, gravity_matrices, FailureConfig, TrafficConfig};

    #[test]
    fn equal_split_adds_up() {
        let wan = b4(17);
        let tms = gravity_matrices(&wan, &TrafficConfig { num_matrices: 1, ..Default::default() });
        let failures = generate_failures(&wan, &FailureConfig::default());
        let inst = build_instance(
            &wan,
            &tms[0],
            &failures.failure_scenarios(),
            &TunnelConfig {
                tunnels_per_flow: 4,
                prefer_fiber_disjoint: false,
                ..Default::default()
            },
        );
        let out = Ecmp.solve(&inst);
        for (i, f) in inst.flows.iter().enumerate() {
            assert_eq!(out.alloc.b[i], f.demand_gbps);
            let total: f64 = f.tunnels.iter().map(|&t| out.alloc.a[t.0]).sum();
            assert!((total - f.demand_gbps).abs() < 1e-9);
            let first = out.alloc.a[f.tunnels[0].0];
            for &t in &f.tunnels {
                assert!((out.alloc.a[t.0] - first).abs() < 1e-12, "unequal split");
            }
        }
        assert!(out.restoration.is_none());
    }
}
