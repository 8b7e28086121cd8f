//! Transponder modulation: datarate vs. optical reach.
//!
//! Reproduces Table 6 of the paper — the terrestrial long-haul transponder
//! specification used to plan Facebook's optical layer. For the same
//! wavelength slot, a more aggressive modulation carries more Gbps but
//! tolerates a shorter transmission distance.
//!
//! The ladder is one constant, [`LADDER`]: the IP-layer builders provision
//! against it and the restoration RWA restores with it, so the two can
//! never disagree.

/// One row of the transponder spec sheet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModulationRow {
    /// Per-wavelength datarate in Gbps.
    pub gbps: f64,
    /// Maximum transmission reach in km.
    pub reach_km: f64,
}

/// The datarate-vs-reach ladder (the paper's Table 6 exactly), highest
/// datarate first; reach grows as datarate falls.
pub const LADDER: [ModulationRow; 4] = [
    ModulationRow { gbps: 400.0, reach_km: 1000.0 },
    ModulationRow { gbps: 300.0, reach_km: 1500.0 },
    ModulationRow { gbps: 200.0, reach_km: 3000.0 },
    ModulationRow { gbps: 100.0, reach_km: 5000.0 },
];

/// Highest datarate whose reach covers a path of `length_km`, or `None`
/// if the path exceeds every row's reach (no modulation works).
pub fn max_gbps_for_length(length_km: f64) -> Option<f64> {
    LADDER.iter().find(|r| r.reach_km >= length_km).map(|r| r.gbps)
}

/// Reach of the given datarate, or `None` if the ladder has no such row.
pub(crate) fn reach_for_gbps(gbps: f64) -> Option<f64> {
    LADDER.iter().find(|r| (r.gbps - gbps).abs() < 1e-9).map(|r| r.reach_km)
}

/// The maximum reach of any modulation (the 100 Gbps row).
pub const MAX_REACH_KM: f64 = LADDER[LADDER.len() - 1].reach_km;

/// Whether a wavelength modulated at `gbps` can move to a path of
/// `new_length_km` without a modulation change (Appendix A.1).
pub(crate) fn supports_without_change(gbps: f64, new_length_km: f64) -> bool {
    reach_for_gbps(gbps).is_some_and(|reach| new_length_km <= reach)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table6_values() {
        assert_eq!(max_gbps_for_length(900.0), Some(400.0));
        assert_eq!(max_gbps_for_length(1000.0), Some(400.0));
        assert_eq!(max_gbps_for_length(1200.0), Some(300.0));
        assert_eq!(max_gbps_for_length(2500.0), Some(200.0));
        assert_eq!(max_gbps_for_length(4800.0), Some(100.0));
        assert_eq!(max_gbps_for_length(5001.0), None);
    }

    #[test]
    fn reach_lookup() {
        assert_eq!(reach_for_gbps(200.0), Some(3000.0));
        assert_eq!(reach_for_gbps(150.0), None);
        assert_eq!(MAX_REACH_KM, 5000.0);
    }

    #[test]
    fn modulation_change_predicate() {
        // A 200G wave moving to a 2,900 km path keeps its modulation…
        assert!(supports_without_change(200.0, 2900.0));
        // …but must step down on a 3,100 km path.
        assert!(!supports_without_change(200.0, 3100.0));
    }
}
