//! Restoration analyses over a provisioned optical network.
//!
//! Reproduces the measurement methodology of §2.3 and Appendices A.1/A.6:
//! the per-fiber *restoration ratio* `U_φ = W'_φ / W_φ` (Fig. 6), the
//! restoration-path length inflation relative to primary paths (Fig. 17),
//! and the count of ROADMs that must be reconfigured per cut (Fig. 19).

use crate::graph::{FiberId, OpticalNetwork, RoadmId};
use crate::rwa::{solve_relaxed, RwaConfig};

/// The restoration ratio of one fiber after a hypothetical cut.
#[derive(Debug, Clone)]
pub struct RestorationRatio {
    /// The cut fiber.
    pub fiber: FiberId,
    /// Provisioned capacity riding the fiber before the cut (Gbps), `W_φ`.
    pub provisioned_gbps: f64,
    /// Restorable capacity after the cut (Gbps), `W'_φ`.
    pub(crate) restorable_gbps: f64,
}

impl RestorationRatio {
    /// `U_φ = W'_φ / W_φ` (1.0 when the fiber carried nothing).
    pub fn ratio(&self) -> f64 {
        if self.provisioned_gbps <= 0.0 {
            1.0
        } else {
            (self.restorable_gbps / self.provisioned_gbps).min(1.0)
        }
    }

    /// Fully restorable? (Within first-order solver tolerance: the RWA
    /// relaxation on large grids is solved to a relative KKT tolerance, so
    /// "full" means ≥ 99.9% of the lost capacity.)
    pub fn is_full(&self) -> bool {
        self.ratio() >= 0.999
    }

    /// Not restorable at all (and capacity was actually lost)?
    pub fn is_none(&self) -> bool {
        self.provisioned_gbps > 0.0 && self.restorable_gbps <= 1e-6
    }
}

/// Simulates every single-fiber-cut scenario and computes each fiber's
/// restoration ratio (the Fig. 6 methodology). Fibers carrying no
/// lightpaths are skipped.
pub fn all_single_cut_ratios(net: &OpticalNetwork, cfg: &RwaConfig) -> Vec<RestorationRatio> {
    let provisioned = net.provisioned_gbps_per_fiber();
    (0..net.num_fibers())
        .filter(|&f| provisioned[f] > 0.0)
        .map(|f| {
            let cut = [FiberId(f)];
            let sol = solve_relaxed(net, &cut, cfg);
            // W'_φ counts only capacity of lightpaths that rode this fiber.
            let restorable: f64 = sol.links.iter().map(|l| l.restored_gbps()).sum();
            RestorationRatio {
                fiber: FiberId(f),
                provisioned_gbps: provisioned[f],
                restorable_gbps: restorable.min(provisioned[f]),
            }
        })
        .collect()
}

/// Path-inflation record for one restored IP link (Appendix A.1).
#[derive(Debug, Clone)]
pub struct PathInflation {
    /// Primary (pre-cut) fiber path length in km.
    pub(crate) primary_km: f64,
    /// Shortest restoration path length in km.
    pub restoration_km: f64,
}

impl PathInflation {
    /// `restoration length / primary length` — Fig. 17's inflation ratio.
    pub fn ratio(&self) -> f64 {
        if self.primary_km <= 0.0 {
            1.0
        } else {
            self.restoration_km / self.primary_km
        }
    }
}

/// Computes the restoration-path inflation for every IP link affected by
/// every single fiber cut. Links that cannot be restored are skipped (they
/// have no restoration path to measure).
pub fn path_inflation_analysis(net: &OpticalNetwork, cfg: &RwaConfig) -> Vec<PathInflation> {
    let mut out = Vec::new();
    for f in 0..net.num_fibers() {
        let cut = [FiberId(f)];
        let affected = net.affected_lightpaths(&cut);
        if affected.is_empty() {
            continue;
        }
        let sol = solve_relaxed(net, &cut, cfg);
        for link in &sol.links {
            if link.paths.is_empty() || link.wavelengths <= 1e-9 {
                continue;
            }
            let primary_km = net.path_length_km(&net.lightpath(link.lightpath).path);
            // Weight by restored wavelengths: report the dominant path.
            // total_cmp: the relaxation can in principle emit NaN weights
            // on degenerate inputs, and partial_cmp().unwrap() would
            // panic the whole analysis instead of skipping the path.
            let best = link
                .per_path_wavelengths
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap_or(0);
            out.push(PathInflation { primary_km, restoration_km: link.paths[best].length_km });
        }
    }
    out
}

/// ROADM reconfiguration workload for one fiber cut (Appendix A.6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoadmReconfigCount {
    /// Add/drop ROADMs: the source/destination sites of failed lightpaths.
    pub add_drop: usize,
    /// Intermediate ROADMs: pass-through sites on the surrogate paths.
    pub intermediate: usize,
}

/// Counts the distinct ROADMs that must be reconfigured to restore the
/// lightpaths affected by cutting `fiber` (Fig. 19's methodology).
pub fn roadm_reconfig_count(
    net: &OpticalNetwork,
    fiber: FiberId,
    cfg: &RwaConfig,
) -> RoadmReconfigCount {
    use std::collections::BTreeSet;
    let cut = [fiber];
    let sol = solve_relaxed(net, &cut, cfg);
    let mut add_drop: BTreeSet<RoadmId> = BTreeSet::new();
    let mut intermediate: BTreeSet<RoadmId> = BTreeSet::new();
    for link in &sol.links {
        if link.wavelengths <= 1e-9 {
            continue;
        }
        let lp = net.lightpath(link.lightpath);
        add_drop.insert(lp.src);
        add_drop.insert(lp.dst);
        for (k, path) in link.paths.iter().enumerate() {
            if link.per_path_wavelengths[k] <= 1e-9 {
                continue;
            }
            // Walk the path collecting interior nodes.
            let mut at = lp.src;
            for (i, &f) in path.fibers.iter().enumerate() {
                at = net.fiber(f).other_end(at);
                if i + 1 < path.fibers.len() {
                    intermediate.insert(at);
                }
            }
        }
    }
    // A site acting as add/drop dominates its intermediate role.
    let inter = intermediate.difference(&add_drop).count();
    RoadmReconfigCount { add_drop: add_drop.len(), intermediate: inter }
}

/// Convenience: empirical CDF helper used by the figure benches.
///
/// Returns `(value, fraction ≤ value)` pairs over the sorted inputs.
pub fn empirical_cdf(mut values: Vec<f64>) -> Vec<(f64, f64)> {
    debug_assert!(values.iter().all(|v| v.is_finite()), "empirical_cdf expects finite samples");
    values.sort_by(f64::total_cmp);
    let n = values.len().max(1) as f64;
    values.into_iter().enumerate().map(|(i, v)| (v, (i + 1) as f64 / n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Lightpath;

    /// Square network: direct fiber A-B carrying 4 λ; detour A-C-B with
    /// room for only 2 λ end-to-end.
    fn partial_net() -> (OpticalNetwork, FiberId) {
        let mut net = OpticalNetwork::new(4);
        let a = net.add_roadm();
        let b = net.add_roadm();
        let c = net.add_roadm();
        let f_ab = net.add_fiber(a, b, 100.0).unwrap();
        let f_ac = net.add_fiber(a, c, 100.0).unwrap();
        let f_cb = net.add_fiber(c, b, 100.0).unwrap();
        net.provision(Lightpath {
            src: a,
            dst: b,
            path: vec![f_ab],
            slots: vec![0, 1, 2, 3],
            gbps_per_wavelength: 100.0,
        })
        .unwrap();
        // Occupy slots 0,1 on the detour, leaving 2 free slots.
        net.provision(Lightpath {
            src: a,
            dst: c,
            path: vec![f_ac],
            slots: vec![0, 1],
            gbps_per_wavelength: 100.0,
        })
        .unwrap();
        net.provision(Lightpath {
            src: c,
            dst: b,
            path: vec![f_cb],
            slots: vec![0, 1],
            gbps_per_wavelength: 100.0,
        })
        .unwrap();
        (net, f_ab)
    }

    #[test]
    fn partial_restoration_ratio() {
        let (net, f_ab) = partial_net();
        let ratios = all_single_cut_ratios(&net, &RwaConfig::default());
        let r = ratios.iter().find(|r| r.fiber == f_ab).unwrap();
        assert_eq!(r.provisioned_gbps, 400.0);
        assert!((r.restorable_gbps - 200.0).abs() < 1e-4, "got {}", r.restorable_gbps);
        assert!((r.ratio() - 0.5).abs() < 1e-6);
        assert!(!r.is_full() && !r.is_none());
    }

    #[test]
    fn path_inflation_measures_detour() {
        let (net, _) = partial_net();
        let infl = path_inflation_analysis(&net, &RwaConfig::default());
        // The A-B link's restoration path is 200 km vs 100 km primary.
        let main = infl.iter().find(|p| p.primary_km == 100.0 && p.restoration_km == 200.0);
        assert!(main.is_some(), "inflations: {infl:?}");
        assert!((main.unwrap().ratio() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn roadm_counts_fig19() {
        let (net, f_ab) = partial_net();
        let c = roadm_reconfig_count(&net, f_ab, &RwaConfig::default());
        // Add/drop at A and B; C is the single intermediate hop.
        assert_eq!(c, RoadmReconfigCount { add_drop: 2, intermediate: 1 });
    }

    #[test]
    fn cdf_helper_is_monotone() {
        let cdf = empirical_cdf(vec![3.0, 1.0, 2.0]);
        assert_eq!(cdf[0], (1.0, 1.0 / 3.0));
        assert_eq!(cdf[2], (3.0, 1.0));
    }

    #[test]
    fn unrestorable_fiber_counts_as_zero_ratio() {
        let mut net = OpticalNetwork::new(4);
        let a = net.add_roadm();
        let b = net.add_roadm();
        let f = net.add_fiber(a, b, 100.0).unwrap();
        net.provision(Lightpath {
            src: a,
            dst: b,
            path: vec![f],
            slots: vec![0],
            gbps_per_wavelength: 100.0,
        })
        .unwrap();
        let ratios = all_single_cut_ratios(&net, &RwaConfig::default());
        assert_eq!(ratios.len(), 1);
        assert!(ratios[0].is_none());
        assert_eq!(ratios[0].ratio(), 0.0);
    }
}
