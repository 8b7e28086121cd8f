//! Traffic matrices.
//!
//! The paper uses 30 SMORE-derived matrices for B4/IBM ("generated by
//! fitting the real-world traffic considering time variations and
//! diurnal/weekly patterns") and 12 production matrices for Facebook. The
//! substitute here is a gravity model — per-site weights drawn log-normally
//! (traffic skew across sites) — modulated per site-pair by a diurnal
//! sinusoid with a random phase, sampled at evenly spaced epochs.
//!
//! Demands are generated in Gbps but carry no absolute meaning until
//! normalized: §6 starts from a state where 100% of demand is satisfied and
//! then scales uniformly. Normalization lives in `arrow-te::eval` (it needs
//! a TE solve); [`TrafficMatrix::scaled`] applies the uniform scaling.

use crate::distributions::log_normal;
use crate::wan::{SiteId, Wan};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One traffic matrix: demand in Gbps for each ordered site pair.
#[derive(Debug, Clone)]
pub struct TrafficMatrix {
    n: usize,
    /// Row-major `n × n` demands; the diagonal is zero.
    demand: Vec<f64>,
}

impl TrafficMatrix {
    /// A zero matrix over `n` sites.
    pub fn zeros(n: usize) -> Self {
        TrafficMatrix { n, demand: vec![0.0; n * n] }
    }

    /// A matrix over `n` sites from its row-major demands, for input from
    /// outside the program: `demand` must hold `n × n` finite non-negative
    /// entries with a zero diagonal. Returns a description of the first
    /// entry that does not.
    pub(crate) fn from_row_major(n: usize, demand: Vec<f64>) -> Result<Self, String> {
        if n.checked_mul(n) != Some(demand.len()) {
            return Err(format!("{} demands do not fill a {n} x {n} matrix", demand.len()));
        }
        for (i, &gbps) in demand.iter().enumerate() {
            let (src, dst) = (i / n, i % n);
            if !(gbps.is_finite() && gbps >= 0.0) {
                return Err(format!(
                    "demand {src} -> {dst} is {gbps}, must be finite and non-negative"
                ));
            }
            if src == dst && gbps != 0.0 {
                return Err(format!("self-demand at site {src} is {gbps}, must be zero"));
            }
        }
        Ok(TrafficMatrix { n, demand })
    }

    /// Number of sites.
    pub fn num_sites(&self) -> usize {
        self.n
    }

    /// Demand from `src` to `dst` in Gbps.
    pub fn demand(&self, src: SiteId, dst: SiteId) -> f64 {
        self.demand[src.0 * self.n + dst.0]
    }

    /// Sets a demand entry.
    pub fn set_demand(&mut self, src: SiteId, dst: SiteId, gbps: f64) {
        assert!(src != dst || gbps == 0.0, "self-demand must be zero");
        assert!(gbps >= 0.0, "demand cannot be negative");
        self.demand[src.0 * self.n + dst.0] = gbps;
    }

    /// Sum of all demands in Gbps.
    #[cfg(test)]
    pub(crate) fn total(&self) -> f64 {
        self.demand.iter().sum()
    }

    /// All ordered pairs with nonzero demand.
    pub fn flows(&self) -> Vec<(SiteId, SiteId, f64)> {
        let mut out = Vec::new();
        for s in 0..self.n {
            for d in 0..self.n {
                let v = self.demand[s * self.n + d];
                if v > 0.0 {
                    out.push((SiteId(s), SiteId(d), v));
                }
            }
        }
        out
    }

    /// A copy with every demand multiplied by `factor` (§6 demand scaling).
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor >= 0.0);
        TrafficMatrix { n: self.n, demand: self.demand.iter().map(|d| d * factor).collect() }
    }
}

/// Log-normal σ of per-site weights (traffic skew; 0 would be uniform).
const SITE_SIGMA: f64 = 0.8;
/// Diurnal modulation depth — each pair's demand swings ±this fraction
/// around its base over a simulated day.
const DIURNAL_DEPTH: f64 = 0.3;

/// Knobs for the gravity-model generator.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Number of matrices (time epochs) to generate.
    pub num_matrices: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig { num_matrices: 30, seed: 23 }
    }
}

/// Generates gravity-model traffic matrices for a WAN.
///
/// The base matrix is `w_i * w_j` (normalized so the total is comparable to
/// the network capacity); matrix `t` samples each pair at epoch `t` of a
/// simulated day with a per-pair random phase.
pub fn gravity_matrices(wan: &Wan, cfg: &TrafficConfig) -> Vec<TrafficMatrix> {
    let n = wan.num_sites();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let weights: Vec<f64> = (0..n).map(|_| log_normal(&mut rng, 0.0, SITE_SIGMA)).collect();
    let wsum: f64 = weights.iter().sum();
    // Scale the base so total demand is ~35% of total IP capacity — the
    // over-provisioned starting point the paper assumes; the exact level is
    // later normalized away by `arrow-te::eval::normalize_demand_scale`.
    let base_total = 0.35 * wan.total_capacity_gbps();
    let mut phases = vec![0.0; n * n];
    for p in phases.iter_mut() {
        *p = rng.gen_range(0.0..std::f64::consts::TAU);
    }
    (0..cfg.num_matrices)
        .map(|t| {
            let mut tm = TrafficMatrix::zeros(n);
            let clock = t as f64 / cfg.num_matrices.max(1) as f64 * std::f64::consts::TAU;
            for s in 0..n {
                for d in 0..n {
                    if s == d {
                        continue;
                    }
                    let gravity = weights[s] * weights[d] / (wsum * wsum);
                    let diurnal = 1.0 + DIURNAL_DEPTH * (clock + phases[s * n + d]).sin();
                    tm.set_demand(SiteId(s), SiteId(d), base_total * gravity * diurnal);
                }
            }
            tm
        })
        .collect()
}

use rand::Rng;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::b4;

    #[test]
    fn matrix_accessors() {
        let mut tm = TrafficMatrix::zeros(3);
        tm.set_demand(SiteId(0), SiteId(2), 5.0);
        assert_eq!(tm.demand(SiteId(0), SiteId(2)), 5.0);
        assert_eq!(tm.demand(SiteId(2), SiteId(0)), 0.0);
        assert_eq!(tm.total(), 5.0);
        assert_eq!(tm.flows(), vec![(SiteId(0), SiteId(2), 5.0)]);
    }

    #[test]
    fn scaling_is_uniform() {
        let mut tm = TrafficMatrix::zeros(2);
        tm.set_demand(SiteId(0), SiteId(1), 4.0);
        let s = tm.scaled(2.5);
        assert_eq!(s.demand(SiteId(0), SiteId(1)), 10.0);
        assert_eq!(s.total(), 10.0);
    }

    #[test]
    #[should_panic(expected = "self-demand")]
    fn self_demand_rejected() {
        let mut tm = TrafficMatrix::zeros(2);
        tm.set_demand(SiteId(1), SiteId(1), 1.0);
    }

    #[test]
    fn from_row_major_checks_what_set_demand_asserts() {
        let tm = TrafficMatrix::from_row_major(2, vec![0.0, 3.0, 4.0, 0.0]).unwrap();
        assert_eq!(tm.demand(SiteId(1), SiteId(0)), 4.0);
        assert_eq!(TrafficMatrix::from_row_major(0, Vec::new()).unwrap().num_sites(), 0);
        for (n, demand, why) in [
            (2, vec![0.0, 1.0, 1.0], "do not fill"),
            (usize::MAX, vec![0.0], "do not fill"),
            (2, vec![1.0, 0.0, 0.0, 0.0], "self-demand at site 0"),
            (2, vec![0.0, -1.0, 0.0, 0.0], "demand 0 -> 1 is -1"),
            (2, vec![0.0, 0.0, f64::NAN, 0.0], "demand 1 -> 0 is NaN"),
            (2, vec![0.0, f64::INFINITY, 0.0, 0.0], "demand 0 -> 1 is inf"),
        ] {
            let err = TrafficMatrix::from_row_major(n, demand).unwrap_err();
            assert!(err.contains(why), "{err}");
        }
    }

    #[test]
    fn gravity_matrices_have_full_mesh_demand() {
        let wan = b4(17);
        let tms = gravity_matrices(&wan, &TrafficConfig { num_matrices: 3, ..Default::default() });
        assert_eq!(tms.len(), 3);
        for tm in &tms {
            assert_eq!(tm.flows().len(), 12 * 11);
            assert!(tm.total() > 0.0);
        }
    }

    #[test]
    fn diurnal_variation_changes_matrices() {
        let wan = b4(17);
        let tms = gravity_matrices(&wan, &TrafficConfig { num_matrices: 4, ..Default::default() });
        let d0 = tms[0].demand(SiteId(0), SiteId(1));
        let d2 = tms[2].demand(SiteId(0), SiteId(1));
        assert!((d0 - d2).abs() > 1e-9, "diurnal swing missing");
    }

    #[test]
    fn generator_is_deterministic() {
        let wan = b4(17);
        let cfg = TrafficConfig::default();
        let a = gravity_matrices(&wan, &cfg);
        let b = gravity_matrices(&wan, &cfg);
        assert_eq!(a[0].total(), b[0].total());
    }

    #[test]
    fn total_demand_is_moderate_fraction_of_capacity() {
        let wan = b4(17);
        let tms = gravity_matrices(&wan, &TrafficConfig::default());
        for tm in &tms {
            let frac = tm.total() / wan.total_capacity_gbps();
            assert!(frac > 0.1 && frac < 0.8, "demand fraction {frac}");
        }
    }
}
