//! # arrow-bench — per-table/per-figure regeneration harness
//!
//! Every table and figure of the paper's measurement and evaluation
//! sections has a `harness = false` bench target in `benches/` that
//! regenerates its rows/series and prints a `paper vs measured` summary;
//! `cargo bench --workspace` therefore reproduces the whole evaluation.
//! Solver micro-numbers (`lp.simplex.*`, `lp.pdhg.*`) come from the `perf/`
//! benchmark's per-layer ledger, not from here.
//!
//! This library holds the shared experiment plumbing: standard topology /
//! scenario / traffic setups sized to finish on a laptop, a parallel sweep
//! helper, and uniform report formatting.

use arrow_core::{generate_tickets, naive_ticket, LotteryConfig};
use arrow_te::eval::{availability, normalize_demand_scale, PlaybackConfig};
use arrow_te::{
    build_instance, Arrow, ArrowNaive, Ecmp, Ffc, RestorationTicket, SchemeOutput, TeInstance,
    TeScheme, TeaVar, TicketSet, TunnelConfig,
};
use arrow_topology::{
    b4, facebook_like, generate_failures, gravity_matrices, ibm, FailureConfig, TrafficConfig, Wan,
};

/// A topology-specific experiment setup sized for bench runtime.
pub struct Setup {
    /// The WAN.
    pub wan: Wan,
    /// TE instances, one per traffic matrix, demands normalized so scale
    /// 1.0 saturates the failure-oblivious LP.
    pub instances: Vec<TeInstance>,
    /// LotteryTickets per scenario.
    pub tickets: TicketSet,
    /// ARROW-Naive's single candidates.
    pub naive: Vec<RestorationTicket>,
}

/// Experiment sizing knobs.
#[derive(Debug, Clone)]
pub struct SetupConfig {
    /// Traffic matrices to evaluate.
    pub num_matrices: usize,
    /// Most-probable failure scenarios kept.
    pub max_scenarios: usize,
    /// Tunnels per flow.
    pub tunnels_per_flow: usize,
    /// LotteryTickets per scenario.
    pub num_tickets: usize,
    /// Scenario probability cutoff.
    pub cutoff: f64,
    /// Keep only the K largest demands per traffic matrix (0 = all).
    /// Gravity-model traffic is heavily skewed, so a few hundred flows
    /// carry most bytes; trimming the tail keeps the Facebook-scale LPs
    /// laptop-sized. Each bench prints the value it used.
    pub top_flows: usize,
    /// Anchor the demand scale where FFC-1 fully admits (B4/IBM). The
    /// Facebook-scale FFC-1 anchor solve is too slow for a bench, so it
    /// falls back to half the MaxFlow saturation point.
    pub anchor_with_ffc: bool,
}

impl SetupConfig {
    /// Bench sizing for B4 (paper: 30 TMs, 8 tunnels, 80 tickets,
    /// cutoff 1e-3 — scaled down to keep the full suite in minutes).
    pub fn b4() -> Self {
        SetupConfig {
            num_matrices: 3,
            max_scenarios: 12,
            tunnels_per_flow: 4,
            num_tickets: 12,
            cutoff: 1e-3,
            top_flows: 0,
            anchor_with_ffc: true,
        }
    }

    /// Bench sizing for IBM (paper: 30 TMs, 12 tunnels, 90 tickets).
    pub fn ibm() -> Self {
        SetupConfig {
            num_matrices: 2,
            max_scenarios: 10,
            tunnels_per_flow: 4,
            num_tickets: 10,
            cutoff: 1e-3,
            top_flows: 0,
            anchor_with_ffc: true,
        }
    }

    /// Bench sizing for the Facebook-like WAN (paper: 12 TMs, 16 tunnels,
    /// 120 tickets, cutoff 2e-4).
    pub fn facebook() -> Self {
        SetupConfig {
            num_matrices: 1,
            max_scenarios: 5,
            tunnels_per_flow: 4,
            num_tickets: 5,
            cutoff: 2e-4,
            top_flows: 200,
            anchor_with_ffc: false,
        }
    }
}

/// Builds the standard experiment setup for a WAN.
pub fn setup(wan: Wan, cfg: &SetupConfig) -> Setup {
    let failures = generate_failures(
        &wan,
        &FailureConfig {
            cutoff: cfg.cutoff,
            max_scenarios: cfg.max_scenarios,
            ..Default::default()
        },
    );
    let scenarios = failures.failure_scenarios().to_vec();
    let mut tms = gravity_matrices(
        &wan,
        &TrafficConfig { num_matrices: cfg.num_matrices, ..Default::default() },
    );
    if cfg.top_flows > 0 {
        for tm in tms.iter_mut() {
            let mut flows = tm.flows();
            flows.sort_by(|a, b| b.2.total_cmp(&a.2));
            let mut trimmed = arrow_topology::TrafficMatrix::zeros(tm.num_sites());
            for &(s, d, g) in flows.iter().take(cfg.top_flows) {
                trimmed.set_demand(s, d, g);
            }
            *tm = trimmed;
        }
    }
    let tcfg = TunnelConfig { tunnels_per_flow: cfg.tunnels_per_flow, ..Default::default() };
    let base = build_instance(&wan, &tms[0], &scenarios, &tcfg);
    // Anchor "scale 1.0" at the paper's over-provisioned starting point:
    // the largest uniform scale at which the *strictest* failure-aware
    // baseline (FFC-1) still admits ~100% of demand. Every scheme then
    // starts Fig. 13 at the availability ceiling, as in the paper.
    let norm = if cfg.anchor_with_ffc {
        let upper = normalize_demand_scale(&base);
        let fits = |scale: f64| -> bool {
            let scaled = base.scaled(scale);
            Ffc::k1().solve(&scaled).alloc.throughput(&scaled) >= 0.995
        };
        let (mut lo, mut hi) = (upper * 1e-3, upper);
        for _ in 0..12 {
            let mid = 0.5 * (lo + hi);
            if fits(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    } else {
        0.5 * normalize_demand_scale(&base)
    };
    let instances: Vec<TeInstance> =
        tms.iter().map(|tm| base.with_demands(tm).scaled(norm)).collect();
    let lottery = LotteryConfig { num_tickets: cfg.num_tickets, ..Default::default() };
    let (tickets, _) = generate_tickets(&wan, &scenarios, &lottery);
    let naive: Vec<RestorationTicket> =
        scenarios.iter().map(|s| naive_ticket(&wan, s, &lottery.rwa)).collect();
    Setup { wan, instances, tickets, naive }
}

/// The three standard setups, by topology name.
pub fn setup_by_name(name: &str) -> Setup {
    match name {
        "B4" => setup(b4(17), &SetupConfig::b4()),
        "IBM" => setup(ibm(17), &SetupConfig::ibm()),
        "Facebook" => setup(facebook_like(17), &SetupConfig::facebook()),
        other => panic!("unknown topology {other}"),
    }
}

/// The comparison schemes of §6 for a given setup.
pub fn schemes(s: &Setup) -> Vec<Box<dyn TeScheme + Send + Sync>> {
    vec![
        Box::new(Arrow::new(s.tickets.clone())),
        Box::new(ArrowNaive { tickets: s.naive.clone(), solver: Default::default() }),
        Box::new(Ffc::k1()),
        Box::new(Ffc::k2()),
        Box::new(TeaVar::default()),
        Box::new(Ecmp),
    ]
}

/// Mean availability of a scheme across a setup's traffic matrices at a
/// demand scale (the Fig. 13 measurement).
pub fn mean_availability(s: &Setup, scheme: &(dyn TeScheme + Send + Sync), scale: f64) -> f64 {
    let cfg = PlaybackConfig::default();
    let mut acc = 0.0;
    for inst in &s.instances {
        let scaled = inst.scaled(scale);
        let out: SchemeOutput = scheme.solve(&scaled);
        acc += availability(&scaled, &out, &cfg);
    }
    acc / s.instances.len() as f64
}

// The thread-scoped parallel map graduated from this harness into the
// library proper; benches keep importing it from here.
pub use arrow_core::par::{parallel_map, parallel_map_with};

/// Largest demand scale (within the probed grid) at which `scheme` keeps
/// availability at or above `target` — the Fig. 13/Table 5 readout.
pub fn max_scale_at_availability(
    s: &Setup,
    scheme: &(dyn TeScheme + Send + Sync),
    target: f64,
    scales: &[f64],
) -> f64 {
    let mut best = 0.0f64;
    for &scale in scales {
        if mean_availability(s, scheme, scale) >= target {
            best = best.max(scale);
        }
    }
    best
}

/// Uniform report banner for a bench target.
pub fn banner(id: &str, what: &str, paper: &str) {
    println!("{}", "=".repeat(74));
    println!("{id}: {what}");
    println!("paper reference: {paper}");
    println!("{}", "-".repeat(74));
}

/// Uniform paper-vs-measured summary line (collected into EXPERIMENTS.md).
pub fn summary(id: &str, paper: &str, measured: &str) {
    println!("{}", "-".repeat(74));
    println!("SUMMARY {id} | paper: {paper} | measured: {measured}");
}

/// Formats an empirical CDF as evenly-spaced percentile rows.
pub fn print_cdf(label: &str, values: &[f64], points: usize) {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    if sorted.is_empty() {
        println!("{label}: (no data)");
        return;
    }
    println!("{label} CDF ({} samples):", sorted.len());
    for i in 0..=points {
        let pct = i as f64 / points as f64;
        let idx = ((sorted.len() - 1) as f64 * pct).round() as usize;
        println!("  p{:<3.0} {:>12.3}", pct * 100.0, sorted[idx]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..50).collect(), |&x| x * 2);
        assert_eq!(out, (0..50).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn b4_setup_is_normalized() {
        let s = setup_by_name("B4");
        assert_eq!(s.instances.len(), 3);
        assert_eq!(s.tickets.per_scenario.len(), s.instances[0].scenarios.len());
        // Scale 1.0 must be (near) fully satisfiable by MaxFlow.
        let mf = arrow_te::MaxFlow::default().solve(&s.instances[0]);
        assert!(mf.alloc.throughput(&s.instances[0]) > 0.99);
    }

    #[test]
    fn availability_declines_with_scale() {
        let s = setup_by_name("B4");
        let arrow = Arrow::new(s.tickets.clone());
        let lo = mean_availability(&s, &arrow, 0.4);
        let hi = mean_availability(&s, &arrow, 3.0);
        assert!(lo >= hi - 1e-9, "availability must not improve with load: {lo} -> {hi}");
    }
}
