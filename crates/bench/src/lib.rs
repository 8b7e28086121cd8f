//! # arrow-bench — the paper's tables and figures as one registry
//!
//! Every table and figure of the paper's measurement, testbed and
//! evaluation sections is one function in [`EXPERIMENTS`]; the
//! `arrow-repro` binary runs them by id
//! (`cargo run --release -p arrow-bench -- <id>… | all [--out <dir>]`).
//! Each report is deterministic — same text on any thread count — and is
//! checked in under `golden/<id>.txt`, where `tests/golden.rs` compares
//! it byte for byte. Wall clocks are the `perf/` benchmark's job, not
//! this crate's.
//!
//! This file holds what the experiments share: the standard topology /
//! scenario / traffic setups sized to finish on a laptop, memoized in a
//! [`Ctx`]; the sweeps several figures run; the registry. The
//! `arrow-repro` binary (`src/main.rs`) parses its command line.

#![deny(unreachable_pub)]

mod ablation;
mod evaluation;
mod measurement;
mod report;
mod restoration;
mod testbed;

use std::sync::OnceLock;

pub use report::compare;
use report::Report;

use arrow_core::par::parallel_map;
use arrow_core::{generate_tickets, naive_ticket, LotteryConfig};
use arrow_optical::{all_single_cut_ratios, RestorationRatio, RwaConfig};
use arrow_te::eval::{availability, normalize_demand_scale, PlaybackConfig};
use arrow_te::{
    build_instance, Arrow, ArrowNaive, Ecmp, Ffc, RestorationTicket, SchemeOutput, TeInstance,
    TeScheme, TeaVar, TicketSet, TunnelConfig,
};
use arrow_topology::{
    b4, facebook_like, generate_failures, gravity_matrices, ibm, FailureConfig, TrafficConfig, Wan,
};

/// A topology-specific experiment setup sized for bench runtime.
pub(crate) struct Setup {
    /// The WAN.
    pub(crate) wan: Wan,
    /// TE instances, one per traffic matrix, demands normalized so scale
    /// 1.0 saturates the failure-oblivious LP.
    pub(crate) instances: Vec<TeInstance>,
    /// LotteryTickets per scenario.
    pub(crate) tickets: TicketSet,
    /// ARROW-Naive's single candidates.
    pub(crate) naive: Vec<RestorationTicket>,
}

/// Experiment sizing knobs.
#[derive(Debug, Clone)]
pub(crate) struct SetupConfig {
    /// Traffic matrices to evaluate.
    pub(crate) num_matrices: usize,
    /// Most-probable failure scenarios kept.
    pub(crate) max_scenarios: usize,
    /// Tunnels per flow.
    pub(crate) tunnels_per_flow: usize,
    /// LotteryTickets per scenario.
    pub(crate) num_tickets: usize,
    /// Scenario probability cutoff.
    pub(crate) cutoff: f64,
    /// Keep only the K largest demands per traffic matrix (0 = all).
    /// Gravity-model traffic is heavily skewed, so a few hundred flows
    /// carry most bytes; trimming the tail keeps the Facebook-scale LPs
    /// laptop-sized. Each bench prints the value it used.
    pub(crate) top_flows: usize,
    /// Anchor the demand scale where FFC-1 fully admits (B4/IBM). The
    /// Facebook-scale FFC-1 anchor solve is too slow for a bench, so it
    /// falls back to half the MaxFlow saturation point.
    pub(crate) anchor_with_ffc: bool,
}

impl SetupConfig {
    /// Bench sizing for B4 (paper: 30 TMs, 8 tunnels, 80 tickets,
    /// cutoff 1e-3 — scaled down to keep the full suite in minutes).
    pub(crate) fn b4() -> Self {
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
    pub(crate) fn ibm() -> Self {
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
    pub(crate) fn facebook() -> Self {
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
pub(crate) fn setup(wan: Wan, cfg: &SetupConfig) -> Setup {
    let failures = generate_failures(
        &wan,
        &FailureConfig { cutoff: cfg.cutoff, max_scenarios: cfg.max_scenarios },
    );
    let scenarios = failures.failure_scenarios();
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

/// The three simulation topologies of Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Topology {
    /// Google's B4.
    B4,
    /// The IBM backbone.
    Ibm,
    /// The generated Facebook-like WAN.
    Facebook,
}

impl Topology {
    /// All three, in the order the figures print them.
    pub(crate) const ALL: [Topology; 3] = [Topology::B4, Topology::Ibm, Topology::Facebook];

    /// The label the reports print.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Topology::B4 => "B4",
            Topology::Ibm => "IBM",
            Topology::Facebook => "Facebook",
        }
    }

    /// The WAN itself (every experiment generates with seed 17).
    pub(crate) fn wan(self) -> Wan {
        match self {
            Topology::B4 => b4(17),
            Topology::Ibm => ibm(17),
            Topology::Facebook => facebook_like(17),
        }
    }

    fn config(self) -> SetupConfig {
        match self {
            Topology::B4 => SetupConfig::b4(),
            Topology::Ibm => SetupConfig::ibm(),
            Topology::Facebook => SetupConfig::facebook(),
        }
    }
}

/// What a run of several experiments shares: the standard `Setup` of
/// each topology (FFC-1 anchor bisection + ticket generation), built on
/// first use and at most once.
#[derive(Default)]
pub struct Ctx {
    setups: [OnceLock<Setup>; 3],
}

impl Ctx {
    /// The standard setup of `topo`.
    pub(crate) fn setup(&self, topo: Topology) -> &Setup {
        self.setups[topo as usize].get_or_init(|| setup(topo.wan(), &topo.config()))
    }
}

/// The comparison schemes of §6 for a given setup.
pub(crate) fn schemes(s: &Setup) -> Vec<Box<dyn TeScheme + Send + Sync>> {
    vec![
        Box::new(Arrow::new(s.tickets.clone())),
        Box::new(ArrowNaive { tickets: s.naive.clone(), solver: Default::default() }),
        Box::new(Ffc::k1()),
        Box::new(Ffc::k2()),
        Box::new(TeaVar::default()),
        Box::new(Ecmp),
    ]
}

/// Every §6 scheme solved on one instance, in [`schemes`] order.
pub(crate) fn solve_all(s: &Setup, inst: &TeInstance) -> Vec<(String, SchemeOutput)> {
    parallel_map(schemes(s), |scheme| (scheme.name(), scheme.solve(inst)))
}

/// Splits a per-scheme column into ARROW's entry and its rivals': every
/// other scheme not named in `set_aside`.
pub(crate) fn arrow_and_rivals<'a, T>(
    column: &'a [(String, T)],
    set_aside: &[&str],
) -> (&'a T, Vec<&'a (String, T)>) {
    let arrow = &column.iter().find(|(name, _)| name == "ARROW").expect("ARROW is a scheme").1;
    let rivals = column
        .iter()
        .filter(|(name, _)| name != "ARROW" && !set_aside.contains(&name.as_str()))
        .collect();
    (arrow, rivals)
}

/// Mean availability of a scheme across a setup's traffic matrices at a
/// demand scale (the Fig. 13 measurement).
pub(crate) fn mean_availability(
    s: &Setup,
    scheme: &(dyn TeScheme + Send + Sync),
    scale: f64,
) -> f64 {
    let cfg = PlaybackConfig::default();
    let mut acc = 0.0;
    for inst in &s.instances {
        let scaled = inst.scaled(scale);
        let out: SchemeOutput = scheme.solve(&scaled);
        acc += availability(&scaled, &out, &cfg);
    }
    acc / s.instances.len() as f64
}

/// [`mean_availability`] of every scheme at every demand scale, one
/// parallel job per cell: `grid[scheme][scale]` (the Fig. 13 / Table 5
/// sweep).
pub(crate) fn availability_grid(
    s: &Setup,
    schemes: &[Box<dyn TeScheme + Send + Sync>],
    scales: &[f64],
) -> Vec<Vec<f64>> {
    let jobs: Vec<(usize, f64)> =
        (0..schemes.len()).flat_map(|i| scales.iter().map(move |&sc| (i, sc))).collect();
    let cells = parallel_map(jobs, |&(i, sc)| mean_availability(s, schemes[i].as_ref(), sc));
    cells.chunks(scales.len()).map(<[f64]>::to_vec).collect()
}

/// Largest probed scale at which one grid row keeps availability at or
/// above `target` (0 when none does) — the Fig. 13 / Table 5 readout.
pub(crate) fn max_scale_at(row: &[f64], scales: &[f64], target: f64) -> f64 {
    scales.iter().zip(row).filter(|&(_, &a)| a >= target).map(|(&sc, _)| sc).fold(0.0, f64::max)
}

/// LotteryTickets for an instance's scenarios at a given |Z| and rounding
/// seed (the Fig. 14 / Fig. 15 sweeps).
pub(crate) fn tickets_for(
    s: &Setup,
    inst: &TeInstance,
    num_tickets: usize,
    seed: u64,
) -> TicketSet {
    let cfg = LotteryConfig { num_tickets, seed, ..Default::default() };
    generate_tickets(&s.wan, &inst.scenarios, &cfg).0
}

/// Restorability of a fiber plant under every single cut (Fig. 6's pass;
/// the C+L extension runs it twice).
pub(crate) struct CutStats {
    /// One record per loaded fiber.
    pub(crate) ratios: Vec<RestorationRatio>,
    /// Share of fibers fully restorable.
    pub(crate) full: f64,
    /// Share of fibers not restorable at all.
    pub(crate) none: f64,
    /// Mean restoration ratio.
    pub(crate) mean: f64,
}

/// Runs the single-cut pass over `wan`'s optical layer.
pub(crate) fn single_cut_stats(wan: &Wan, cfg: &RwaConfig) -> CutStats {
    let ratios = all_single_cut_ratios(&wan.optical, cfg);
    let full = share(&ratios, |r| r.is_full());
    let none = share(&ratios, |r| r.is_none());
    let mean = ratios.iter().map(|r| r.ratio()).sum::<f64>() / ratios.len() as f64;
    CutStats { ratios, full, none, mean }
}

/// Fraction of `items` satisfying `pred`.
pub(crate) fn share<T>(items: &[T], pred: impl Fn(&T) -> bool) -> f64 {
    items.iter().filter(|x| pred(x)).count() as f64 / items.len() as f64
}

/// One table or figure of the paper.
pub struct Experiment {
    /// What the command line and the golden file are named after.
    pub id: &'static str,
    /// What is regenerated.
    pub(crate) title: &'static str,
    /// Where the paper shows it, and its headline.
    pub(crate) paper: &'static str,
    /// Writes the rows/series and one `SUMMARY` line.
    pub(crate) run: fn(&Ctx, &mut Report),
}

const fn exp(
    id: &'static str,
    title: &'static str,
    paper: &'static str,
    run: fn(&Ctx, &mut Report),
) -> Experiment {
    Experiment { id, title, paper, run }
}

/// Every experiment, in the order `all` runs them: measurement (§2),
/// restoration analyses (§2.3, App. A.1/A.6/A.10), testbed (§5),
/// evaluation (§6), ablations.
pub const EXPERIMENTS: &[Experiment] = &[
    exp(
        "fig03",
        "failure-ticket analysis (600 tickets, 3 years)",
        "Fig. 3: fiber cuts 67% of downtime; 50% of cuts > 9 h; 10% > 24 h",
        measurement::fig03,
    ),
    exp(
        "fig04",
        "IP capacity lost to fiber cuts",
        "Fig. 4: per-event loss up to 8 Tbps; ~16 cuts per month",
        measurement::fig04,
    ),
    exp(
        "fig05",
        "fiber spectrum utilization",
        "Fig. 5a: 95% of fibers < 60% utilization",
        measurement::fig05,
    ),
    exp(
        "fig21",
        "monthly wavelength deployments",
        "Fig. 21: visible surge starting March 2020 (month 5 of the window)",
        measurement::fig21,
    ),
    exp(
        "fig22",
        "IP links per fiber and wavelengths per IP link (Facebook-like)",
        "Fig. 22: dense IP layer over sparse optical layer",
        measurement::fig22,
    ),
    exp(
        "fig06",
        "restoration ratio across all single fiber cuts (Facebook-like)",
        "Fig. 6: 34% full / 62% partial / 4% none; high-capacity fibers partial",
        restoration::fig06,
    ),
    exp(
        "fig07",
        "restoration candidates on the two-IP-link toy network",
        "Fig. 7: candidates tie at 500 Gbps restored; demand picks the winner",
        restoration::fig07,
    ),
    exp(
        "fig17",
        "restoration-path inflation across all single cuts (Facebook-like)",
        "Fig. 17: ~50% of R-paths shorter than P-paths; all < 5,000 km",
        restoration::fig17,
    ),
    exp(
        "fig19",
        "ROADM reconfiguration counts per fiber cut (Facebook-like)",
        "Fig. 19: p80 add/drop ≤ 10, p80 intermediate ≤ 6",
        restoration::fig19,
    ),
    exp(
        "ext_cl",
        "C+L band upgrade: restorability before and after",
        "Appendix A.10: ARROW is orthogonal to the band plan",
        restoration::ext_cl,
    ),
    exp(
        "fig11",
        "testbed restoration trial (4 ROADMs, 34 amps, 2,160 km)",
        "Fig. 11: cut of fiber CD fails A↔C, B↔D, C↔D (2.8 Tbps, 14 λ)",
        testbed::fig11,
    ),
    exp(
        "fig12",
        "restoration latency with vs without noise loading",
        "Fig. 12: 1,021 s legacy vs 8 s ARROW (127x)",
        testbed::fig12,
    ),
    exp(
        "fig20",
        "amplifier power-adjustment staircase during reconfiguration",
        "Fig. 20: 24 cascaded amplifier sites over 2,000 km take ~14 min",
        testbed::fig20,
    ),
    exp("table04", "network topologies used in the simulations", "Table 4", evaluation::table04),
    exp(
        "fig13",
        "availability vs demand scale, all schemes, all topologies",
        "Fig. 13: ARROW's curve dominates; gains of 2.0x-2.4x at 99.99%",
        evaluation::fig13,
    ),
    exp(
        "table05",
        "ARROW's demand gain at availability levels (B4)",
        "Table 5: gains between 1.5x and 2.4x",
        evaluation::table05,
    ),
    exp(
        "fig14",
        "ARROW throughput vs number of LotteryTickets (B4)",
        "Fig. 14: fluctuation at small |Z|, then a plateau",
        evaluation::fig14,
    ),
    exp(
        "fig15",
        "ARROW TE solve work vs number of LotteryTickets",
        "Fig. 15: runtime grows with |Z|; 104 s @ Facebook/120 on Gurobi",
        evaluation::fig15,
    ),
    exp(
        "fig16",
        "router ports needed at equal availability-guaranteed throughput",
        "Fig. 16: ARROW 1.5x of fully-restorable; TeaVaR 4.1x; FFC-1 5.2x",
        evaluation::fig16,
    ),
    exp("table06", "transponder datarate vs reach ladder", "Table 6", evaluation::table06),
    exp(
        "table08",
        "size of the joint IP/optical formulation",
        "Table 8: joint ILP is computationally intractable at WAN scale",
        evaluation::table08,
    ),
    exp(
        "thm31",
        "probabilistic optimality: analytic rho vs Monte-Carlo",
        "Theorem 3.1 / Appendix A.3",
        evaluation::thm31,
    ),
    exp(
        "ablation_alpha",
        "Phase-I slack budget α sweep (B4, demand 8x)",
        "footnote 4: α ∈ {0.2, 0.1, 0.05}",
        ablation::alpha,
    ),
    exp(
        "ablation_rounding",
        "rounding stride δ and the feasibility filter (B4, demand 8x)",
        "Algorithm 1 / §3.2 / Theorem 3.1",
        ablation::rounding,
    ),
    exp(
        "ablation_playback",
        "frozen vs re-spread playback (B4, demand 2x)",
        "evaluation-methodology ablation (DESIGN.md)",
        ablation::playback,
    ),
];

/// Runs one experiment to its finished text.
pub fn run(e: &Experiment, ctx: &Ctx) -> String {
    let mut r = Report::new(e);
    (e.run)(ctx, &mut r);
    r.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::LazyLock;

    static CTX: LazyLock<Ctx> = LazyLock::new(Ctx::default);

    #[test]
    fn b4_setup_is_normalized() {
        let s = CTX.setup(Topology::B4);
        assert_eq!(s.instances.len(), 3);
        assert_eq!(s.tickets.per_scenario.len(), s.instances[0].scenarios.len());
        // Scale 1.0 must be (near) fully satisfiable by MaxFlow.
        let mf = arrow_te::MaxFlow::default().solve(&s.instances[0]);
        assert!(mf.alloc.throughput(&s.instances[0]) > 0.99);
    }

    #[test]
    fn availability_declines_with_scale() {
        let s = CTX.setup(Topology::B4);
        let arrow = Arrow::new(s.tickets.clone());
        let lo = mean_availability(s, &arrow, 0.4);
        let hi = mean_availability(s, &arrow, 3.0);
        assert!(lo >= hi - 1e-9, "availability must not improve with load: {lo} -> {hi}");
    }
}
