//! Synthetic operational telemetry.
//!
//! The paper's §2 motivation analyses three years of Facebook production
//! data: 600 WAN failure tickets (Fig. 3), the IP capacity lost to fiber
//! cuts (Fig. 4), and monthly wavelength deployments (Fig. 21). That data
//! is proprietary; this module generates seeded synthetic datasets whose
//! *published aggregates* match the paper: fiber cuts are ~50% of tickets
//! and 67% of downtime, half of fiber cuts exceed nine hours, 10% exceed a
//! day, and cut events cost up to ~8 Tbps of IP capacity.

use crate::distributions::{log_normal, weibull};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Root cause of a failure ticket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RootCause {
    /// Fiber cut (construction, weather, animals, …).
    FiberCut,
    /// Optical hardware (amplifier, transponder, ROADM).
    OpticalHardware,
    /// Router/switch hardware or software.
    Router,
    /// Maintenance and configuration errors.
    Maintenance,
}

impl RootCause {
    /// All causes, for iteration.
    pub const ALL: [RootCause; 4] = [
        RootCause::FiberCut,
        RootCause::OpticalHardware,
        RootCause::Router,
        RootCause::Maintenance,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            RootCause::FiberCut => "fiber cut",
            RootCause::OpticalHardware => "optical hw",
            RootCause::Router => "router",
            RootCause::Maintenance => "maintenance",
        }
    }
}

/// One synthetic failure ticket.
#[derive(Debug, Clone)]
pub struct FailureTicket {
    /// Root cause category.
    pub cause: RootCause,
    /// Time to repair in hours.
    pub repair_hours: f64,
    /// IP capacity lost while the failure was active, in Gbps (0 for
    /// failures that did not take links down).
    pub lost_capacity_gbps: f64,
}

/// Generates `n` tickets (paper: 600 over three years).
///
/// Mixture calibrated to Fig. 3: ~48% fiber cuts with a log-normal repair
/// time whose median is ~9 h (so "50% of fiber cuts last longer than nine
/// hours") and a tail past 24 h for the top ~10%; other causes repair
/// faster, which makes fiber cuts dominate total downtime (~67%, Fig. 3b).
pub fn generate_tickets(n: usize, seed: u64) -> Vec<FailureTicket> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let roll: f64 = rng.gen_range(0.0..1.0);
            let (cause, repair_hours) = if roll < 0.48 {
                // Median 9h => mu = ln 9; sigma tuned so P(>24h) ≈ 0.1.
                // ln(24/9) = 0.98; z_{0.9} = 1.2816 => sigma ≈ 0.766.
                (RootCause::FiberCut, log_normal(&mut rng, 9.0f64.ln(), 0.766))
            } else if roll < 0.68 {
                (RootCause::OpticalHardware, log_normal(&mut rng, 4.0f64.ln(), 0.9))
            } else if roll < 0.88 {
                (RootCause::Router, log_normal(&mut rng, 2.0f64.ln(), 0.8))
            } else {
                (RootCause::Maintenance, log_normal(&mut rng, 6.0f64.ln(), 0.7))
            };
            let lost_capacity_gbps = match cause {
                RootCause::FiberCut => {
                    // Up to ~8 Tbps per event (Fig. 4b), most far smaller.
                    (weibull(&mut rng, 1.1, 1400.0)).min(8000.0)
                }
                RootCause::OpticalHardware => weibull(&mut rng, 1.0, 300.0).min(2000.0),
                _ => 0.0,
            };
            FailureTicket { cause, repair_hours, lost_capacity_gbps }
        })
        .collect()
}

/// Share of total downtime (ticket-hours) attributed to each cause —
/// Fig. 3b.
pub fn downtime_share(tickets: &[FailureTicket]) -> Vec<(RootCause, f64)> {
    let total: f64 = tickets.iter().map(|t| t.repair_hours).sum();
    RootCause::ALL
        .iter()
        .map(|&c| {
            let hours: f64 = tickets.iter().filter(|t| t.cause == c).map(|t| t.repair_hours).sum();
            (c, if total > 0.0 { hours / total } else { 0.0 })
        })
        .collect()
}

/// One month of wavelength-deployment counts (Fig. 21): a baseline rate
/// with a visible surge starting at `surge_month` (COVID-19 in the paper).
pub fn monthly_wavelength_deployments(months: usize, surge_month: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..months)
        .map(|m| {
            let base = 120.0;
            let surge = if m >= surge_month { 1.8 } else { 1.0 };
            let noise: f64 = rng.gen_range(0.75..1.25);
            (base * surge * noise) as usize
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fiber_cut_aggregates_match_paper() {
        let tickets = generate_tickets(600, 7);
        let cuts: Vec<&FailureTicket> =
            tickets.iter().filter(|t| t.cause == RootCause::FiberCut).collect();
        // ~48% of tickets.
        let share = cuts.len() as f64 / tickets.len() as f64;
        assert!((share - 0.48).abs() < 0.08, "fiber-cut share {share}");
        // Median repair near 9 h.
        let mut hours: Vec<f64> = cuts.iter().map(|t| t.repair_hours).collect();
        hours.sort_by(|a, b| a.total_cmp(b));
        let median = hours[hours.len() / 2];
        assert!((median - 9.0).abs() < 2.5, "median {median}");
        // ~10% exceed a day.
        let over_day = hours.iter().filter(|&&h| h > 24.0).count() as f64 / hours.len() as f64;
        assert!((over_day - 0.10).abs() < 0.06, "over-a-day share {over_day}");
    }

    #[test]
    fn fiber_cuts_dominate_downtime() {
        let tickets = generate_tickets(600, 7);
        let shares = downtime_share(&tickets);
        let cut_share =
            shares.iter().find(|(c, _)| *c == RootCause::FiberCut).map(|&(_, s)| s).unwrap();
        assert!((cut_share - 0.67).abs() < 0.12, "downtime share {cut_share}");
    }

    #[test]
    fn lost_capacity_caps_at_8tbps() {
        let tickets = generate_tickets(2000, 9);
        assert!(tickets.iter().all(|t| t.lost_capacity_gbps <= 8000.0));
        let max = tickets.iter().map(|t| t.lost_capacity_gbps).fold(0.0f64, f64::max);
        assert!(max > 3000.0, "tail too light: max {max}");
    }

    #[test]
    fn deployment_series_shows_surge() {
        let series = monthly_wavelength_deployments(18, 5, 3);
        let before: f64 = series[..5].iter().sum::<usize>() as f64 / 5.0;
        let after: f64 = series[5..].iter().sum::<usize>() as f64 / 13.0;
        assert!(after > before * 1.3, "no visible surge: {before} -> {after}");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_tickets(50, 42);
        let b = generate_tickets(50, 42);
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x.repair_hours == y.repair_hours));
    }
}
