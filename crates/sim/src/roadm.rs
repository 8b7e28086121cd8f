//! ROADM reconfiguration model (Appendix A.6).
//!
//! Restoring wavelengths onto a surrogate path requires reconfiguring the
//! wavelength-selective switches of every ROADM on that path (plus their
//! ASE noise sources, when noise loading is in use). ARROW reconfigures
//! ROADMs in two parallel groups: all **add/drop** ROADMs (the failed
//! lightpaths' endpoints) first, then all **intermediate** pass-through
//! ROADMs — so the ROADM stage costs two group-latencies regardless of how
//! many devices are touched.

use arrow_optical::{FiberPath, OpticalNetwork, RoadmId};
use std::collections::BTreeSet;

/// ROADM-stage timing parameters.
#[derive(Debug, Clone, Copy)]
pub struct RoadmParams {
    /// Seconds to reconfigure one ROADM's WSS (and its noise source).
    pub(crate) config_seconds: f64,
    /// Control-plane overhead to detect the cut and fetch the
    /// pre-computed restoration plan (ARROW installs plans proactively).
    pub(crate) detection_seconds: f64,
    /// Controller dispatch overhead.
    pub(crate) dispatch_seconds: f64,
}

impl Default for RoadmParams {
    fn default() -> Self {
        RoadmParams { config_seconds: 4.0, detection_seconds: 2.0, dispatch_seconds: 1.0 }
    }
}

/// The ROADMs a restoration touches, split into the two parallel groups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RoadmGroups {
    /// Source/destination sites of the restored lightpaths.
    pub add_drop: Vec<RoadmId>,
    /// Pass-through sites on the surrogate paths (excluding add/drop).
    pub intermediate: Vec<RoadmId>,
}

/// Collects the ROADM groups for a set of restored routes
/// `(src, dst, surrogate path)`.
pub(crate) fn roadm_groups(
    net: &OpticalNetwork,
    routes: &[(RoadmId, RoadmId, FiberPath)],
) -> RoadmGroups {
    let mut add_drop: BTreeSet<RoadmId> = BTreeSet::new();
    let mut intermediate: BTreeSet<RoadmId> = BTreeSet::new();
    for (src, dst, path) in routes {
        add_drop.insert(*src);
        add_drop.insert(*dst);
        let mut at = *src;
        for (i, &f) in path.fibers.iter().enumerate() {
            at = net.fiber(f).other_end(at);
            if i + 1 < path.fibers.len() {
                intermediate.insert(at);
            }
        }
    }
    // BTreeSet iterates in sorted order, so both groups come out sorted.
    let inter: Vec<RoadmId> = intermediate.difference(&add_drop).copied().collect();
    let ad: Vec<RoadmId> = add_drop.into_iter().collect();
    RoadmGroups { add_drop: ad, intermediate: inter }
}

impl RoadmGroups {
    /// Seconds until all ROADMs are reconfigured: the two groups run
    /// sequentially, each group's members in parallel (Appendix A.6).
    pub(crate) fn reconfig_seconds(&self, p: &RoadmParams) -> f64 {
        let g1 = if self.add_drop.is_empty() { 0.0 } else { p.config_seconds };
        let g2 = if self.intermediate.is_empty() { 0.0 } else { p.config_seconds };
        g1 + g2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_net() -> (OpticalNetwork, Vec<RoadmId>, Vec<arrow_optical::FiberId>) {
        let mut net = OpticalNetwork::new(8);
        let r = net.add_roadms(4);
        let f = vec![
            net.add_fiber(r[0], r[1], 100.0).unwrap(),
            net.add_fiber(r[1], r[2], 100.0).unwrap(),
            net.add_fiber(r[2], r[3], 100.0).unwrap(),
        ];
        (net, r, f)
    }

    #[test]
    fn groups_split_correctly() {
        let (net, r, f) = line_net();
        let path = FiberPath { fibers: vec![f[0], f[1], f[2]], length_km: 300.0 };
        let g = roadm_groups(&net, &[(r[0], r[3], path)]);
        assert_eq!(g.add_drop, vec![r[0], r[3]]);
        assert_eq!(g.intermediate, vec![r[1], r[2]]);
    }

    #[test]
    fn add_drop_dominates_intermediate_role() {
        let (net, r, f) = line_net();
        // Two routes: r0->r3 via all, and r1->r2 direct; r1/r2 become
        // add/drop and must not double-count as intermediate.
        let p1 = FiberPath { fibers: vec![f[0], f[1], f[2]], length_km: 300.0 };
        let p2 = FiberPath { fibers: vec![f[1]], length_km: 100.0 };
        let g = roadm_groups(&net, &[(r[0], r[3], p1), (r[1], r[2], p2)]);
        assert_eq!(g.add_drop.len(), 4);
        assert!(g.intermediate.is_empty());
    }

    #[test]
    fn two_group_latency_is_constant_in_device_count() {
        let (net, r, f) = line_net();
        let p = RoadmParams::default();
        let one =
            roadm_groups(&net, &[(r[0], r[1], FiberPath { fibers: vec![f[0]], length_km: 100.0 })]);
        let many = roadm_groups(
            &net,
            &[(r[0], r[3], FiberPath { fibers: vec![f[0], f[1], f[2]], length_km: 300.0 })],
        );
        // No intermediates in `one` => a single group latency.
        assert_eq!(one.reconfig_seconds(&p), p.config_seconds);
        assert_eq!(many.reconfig_seconds(&p), 2.0 * p.config_seconds);
    }
}
