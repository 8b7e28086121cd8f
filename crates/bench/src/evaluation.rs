//! Evaluation (§6, Appendix A.1/A.3/A.5): the simulation tables and
//! figures over B4, IBM and the Facebook-like WAN.
//!
//! Scale note: scenario, traffic-matrix and ticket counts are reduced from
//! the paper's settings (see `SetupConfig`) so the whole registry finishes
//! in minutes on a laptop; each report prints the parameters it used.

use arrow_core::par::parallel_map;
use arrow_core::{
    kappa, optimality_probability, tickets_for_target, LinkRounding, LotteryConfig, RoundDirection,
};
use arrow_lp::SolveStats;
use arrow_optical::modulation::{max_gbps_for_length, LADDER};
use arrow_te::eval::{required_router_ports, PlaybackConfig};
use arrow_te::{
    joint_formulation_size, Arrow, ArrowOnline, MaxFlow, RestorationTicket, SchemeOutput, TeScheme,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{
    arrow_and_rivals, availability_grid, max_scale_at, schemes, solve_all, tickets_for, Ctx,
    Report, Topology,
};

/// Table 4 — the simulation topologies.
///
/// Paper: Facebook 34/84 routers/ROADMs, 156 fibers, 262 IP links, 12 TMs;
/// IBM 17/17, 23, 85, 30; B4 12/12, 19, 52, 30.
pub(crate) fn table04(_: &Ctx, r: &mut Report) {
    writeln!(
        r,
        "{:<10} {:>16} {:>8} {:>9} {:>10}",
        "topology", "routers/ROADMs", "fibers", "IP links", "paper TMs"
    );
    let mut measured = Vec::new();
    for (topo, tms) in [(Topology::Facebook, 12), (Topology::Ibm, 30), (Topology::B4, 30)] {
        let wan = topo.wan();
        let (name, sites, roadms) = (&wan.name, wan.num_sites(), wan.optical.num_roadms());
        let (fibers, links) = (wan.optical.num_fibers(), wan.num_links());
        writeln!(r, "{name:<10} {sites:>8}/{roadms:<7} {fibers:>8} {links:>9} {tms:>10}");
        measured.push(format!("{name} {sites}/{roadms}/{fibers}/{links}"));
        wan.validate().expect("cross-layer mapping must be consistent");
    }
    r.summary("FB 34/84/156/262; IBM 17/17/23/85; B4 12/12/19/52", &measured.join("; "));
}

/// Fig. 13 — availability vs demand scale for ARROW, ARROW-Naive, FFC-1,
/// FFC-2, TeaVaR, and ECMP on B4, IBM, and the Facebook-like WAN.
///
/// Paper: ARROW holds high availability at demand scales 2.0×–2.4× beyond
/// the best failure-aware TE; on B4 it sustains 3.61× demand at 99.99%
/// availability vs FFC-1's 1.63×.
pub(crate) fn fig13(ctx: &Ctx, r: &mut Report) {
    let mut headline = Vec::new();
    for topo in Topology::ALL {
        let (s, name) = (ctx.setup(topo), topo.name());
        let scales: Vec<f64> = if topo == Topology::Facebook {
            vec![0.5, 1.0, 2.0, 3.0]
        } else {
            vec![0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0]
        };
        writeln!(
            r,
            "\n[{name}] {} | {} TMs, {} scenarios, {} tickets",
            s.wan.summary(),
            s.instances.len(),
            s.instances[0].scenarios.len(),
            s.tickets.max_tickets()
        );
        let mut schemes = schemes(s);
        if topo == Topology::Facebook {
            // FFC-2 enumerates all C(156,2) fiber pairs — hours at this
            // scale; the paper itself shows FFC-2 tracking ECMP. See the
            // B4/IBM rows for its behaviour.
            schemes.retain(|sch| sch.name() != "FFC-2");
            writeln!(r, "(FFC-2 omitted on Facebook-like for bench runtime)");
        }
        let grid = availability_grid(s, &schemes, &scales);
        let header: String = scales.iter().map(|sc| format!(" {sc:>9.2}")).collect();
        writeln!(r, "{:<14}{header}", "scheme\\scale");
        let mut at_999 = Vec::new();
        for (scheme, row) in schemes.iter().zip(&grid) {
            let cells: String = row.iter().map(|&a| format!(" {:>9.5}", r.n(a))).collect();
            let max_ok = max_scale_at(row, &scales, 0.999);
            writeln!(r, "{:<14}{cells}  | max scale @99.9%: {max_ok:.2}", scheme.name());
            at_999.push((scheme.name(), max_ok));
        }
        // The gain headline compares against the non-restoration
        // baselines, as in the abstract; ARROW-Naive appears in Table 5
        // separately.
        let (&arrow, rivals) = arrow_and_rivals(&at_999, &["ARROW-Naive"]);
        let best_other = rivals.iter().map(|&&(_, v)| v).fold(0.0, f64::max);
        let gain = if best_other > 0.0 { arrow / best_other } else { f64::NAN };
        writeln!(r, "[{name}] ARROW gain over best baseline @99.9%: {:.2}x", r.n(gain));
        headline.push(format!("{name} {gain:.2}x"));
    }
    r.summary(
        "ARROW supports 2.0x-2.4x more demand at high availability",
        &format!("ARROW demand-scale gain @99.9%: {}", headline.join(", ")),
    );
}

/// Table 5 — ARROW's satisfied-demand gain at different availability
/// levels on B4.
///
/// Paper (B4): vs ARROW-Naive 1.6–2.0×, vs FFC-1 1.5–2.2×, vs FFC-2
/// 2.0–2.4×, vs TeaVaR 1.9–2.4×, vs ECMP 2.0–2.4× across availability
/// targets 99%–99.999%.
pub(crate) fn table05(ctx: &Ctx, r: &mut Report) {
    let s = ctx.setup(Topology::B4);
    let scales: Vec<f64> = (1..=14).map(|i| 0.25 * i as f64).collect();
    let all = schemes(s);
    // Max sustainable scale per scheme per availability target; the
    // availability grid is computed once per (scheme, scale) and reused
    // across targets.
    let targets = [0.99999, 0.9999, 0.999, 0.99];
    let grid = availability_grid(s, &all, &scales);
    let header = "   99.999%     99.99%      99.9%        99%";
    writeln!(r, "{:<14} {header}", "scheme");
    let mut per_scheme = Vec::new();
    for (scheme, avail) in all.iter().zip(&grid) {
        let row: Vec<f64> = targets.iter().map(|&t| max_scale_at(avail, &scales, t)).collect();
        let cells: String = row.iter().map(|sc| format!(" {sc:>10.2}")).collect();
        writeln!(r, "{:<14}{cells}", scheme.name());
        per_scheme.push((scheme.name(), row));
    }
    // Gains relative to ARROW.
    let (arrow_row, others) = arrow_and_rivals(&per_scheme, &[]);
    writeln!(r, "\nARROW gain over each scheme:");
    writeln!(r, "{:<14} {header}", "vs scheme");
    let mut at9999 = Vec::new();
    for (name, row) in others {
        let gain = |(a, b): (&f64, &f64)| {
            if *b > 0.0 {
                format!("{:.2}x", r.n(a / b))
            } else {
                "inf".into()
            }
        };
        let cells: String =
            arrow_row.iter().zip(row).map(|ab| format!(" {:>10}", gain(ab))).collect();
        writeln!(r, "{name:<14}{cells}");
        if row[1] > 0.0 {
            at9999.push(format!("{name} {:.1}x", r.n(arrow_row[1] / row[1])));
        }
    }
    r.summary(
        "gains 1.5x-2.4x across availability targets (B4)",
        &format!("gain @99.99%: {}", at9999.join(", ")),
    );
}

/// Fig. 14 — impact of the number of LotteryTickets on ARROW's throughput
/// (B4, heavily scaled demand).
///
/// Paper: throughput fluctuates at small |Z| (randomized rounding may miss
/// good candidates), rises with |Z|, then plateaus once the tickets cover
/// a good set of restoration candidates; |Z| = 1 equals ARROW-Naive.
pub(crate) fn fig14(ctx: &Ctx, r: &mut Report) {
    let s = ctx.setup(Topology::B4);
    let inst = s.instances[0].scaled(8.0);
    let counts = [1usize, 2, 4, 6, 8, 12, 16, 24, 32];
    // Two rounding seeds illustrate the fluctuation at small |Z|.
    let jobs: Vec<(usize, u64)> = counts.iter().flat_map(|&z| [(z, 41u64), (z, 43u64)]).collect();
    let results = parallel_map(jobs, |&(z, seed)| {
        let out = Arrow::new(tickets_for(s, &inst, z, seed)).solve(&inst);
        out.alloc.throughput(&inst)
    });
    writeln!(r, "{:>6} {:>14} {:>14} {:>12}", "|Z|", "thr (seed A)", "thr (seed B)", "spread");
    let mut first = 0.0;
    let mut last = 0.0;
    for (i, &z) in counts.iter().enumerate() {
        let a = results[2 * i];
        let b = results[2 * i + 1];
        writeln!(r, "{:>6} {:>14.4} {:>14.4} {:>12.4}", z, r.n(a), r.n(b), r.n((a - b).abs()));
        if i == 0 {
            first = 0.5 * (a + b);
        }
        last = 0.5 * (a + b);
    }
    r.summary(
        "throughput rises with |Z| and plateaus; |Z|=1 is ARROW-Naive",
        &format!(
            "throughput {:.4} at |Z|=1 -> {:.4} at |Z|={}",
            r.n(first),
            r.n(last),
            counts.last().unwrap()
        ),
    );
}

/// Fig. 15 — ARROW's TE optimization work (Phase I + Phase II LP) as the
/// number of LotteryTickets grows.
///
/// Paper: runtime grows with |Z|; the Facebook topology with 120 tickets
/// solves in 104 s on a 32-core EPYC with Gurobi — inside the 5-minute TE
/// deadline. Seconds are not reproducible text, so this prints what the
/// seconds are made of — LP size, backend and iterations per phase — and
/// leaves wall time to `perf/` (`te.arrow.phase{1,2}_solve_s`). The
/// reproduction target is the *shape*: Phase I grows with |Z|, Phase II
/// does not.
pub(crate) fn fig15(ctx: &Ctx, r: &mut Report) {
    let mut growth = Vec::new();
    for (topo, counts) in [
        (Topology::B4, vec![1usize, 4, 8, 16, 32]),
        (Topology::Ibm, vec![1, 4, 8, 16]),
        (Topology::Facebook, vec![1, 3, 5]),
    ] {
        let s = ctx.setup(topo);
        let inst = s.instances[0].scaled(1.5);
        writeln!(r, "\n[{}] {} scenarios", topo.name(), inst.scenarios.len());
        let head =
            "   |Z|   I rows     cols  backend     iters    II rows     cols  backend     iters";
        writeln!(r, "{head}");
        let phase = |p: SolveStats| {
            format!("{:>8} {:>8} {:>8} {:>9}", p.rows, p.cols, p.backend.label(), p.iterations)
        };
        let mut rows = Vec::new();
        for &z in &counts {
            let tickets = tickets_for(s, &inst, z, LotteryConfig::default().seed);
            let outcome = ArrowOnline::new(Arrow::new(tickets), &inst).solve(&inst);
            let (p1, p2) = (outcome.phase1_stats, outcome.phase2_stats);
            writeln!(r, "{z:>6} {}   {}", phase(p1), phase(p2));
            rows.push(p1.rows);
        }
        growth.push(format!(
            "{} {} -> {} rows over |Z| 1 -> {}",
            topo.name(),
            rows[0],
            rows[rows.len() - 1],
            counts[counts.len() - 1]
        ));
    }
    r.summary(
        "runtime grows with tickets, stays inside the 5-minute deadline",
        &format!("Phase I LP grows with tickets: {}", growth.join("; ")),
    );
}

/// Fig. 16 — router ports required to sustain the same availability-
/// guaranteed throughput (β = 99.9%), normalized to a hypothetical *Fully
/// Restorable TE* that restores every failure completely.
///
/// Paper (Facebook): ARROW needs only 1.5× the fully-restorable baseline,
/// vs TeaVaR 4.1×, FFC-1 5.2×, FFC-2 311×; i.e. ARROW needs ~2.8× fewer
/// ports than the best failure-aware TE.
pub(crate) fn fig16(ctx: &Ctx, r: &mut Report) {
    let beta = 0.999;
    let cfg = PlaybackConfig::default();
    for topo in [Topology::B4, Topology::Ibm] {
        let (s, name) = (ctx.setup(topo), topo.name());
        let inst = s.instances[0].scaled(1.0);
        // Fully Restorable TE: failure-oblivious allocation + complete
        // restoration of every failed link in every scenario.
        let full_plan: Vec<RestorationTicket> =
            inst.scenarios.iter().map(|q| RestorationTicket::uniform(&inst.wan, q, 1.0)).collect();
        let mf = MaxFlow::default().solve(&inst);
        let fully_restorable = SchemeOutput { alloc: mf.alloc, restoration: Some(full_plan) };
        let baseline = required_router_ports(&inst, &fully_restorable, beta, &cfg);
        writeln!(r, "\n[{name}] fully-restorable baseline CAP/AGT: {:.0}", r.n(baseline));
        writeln!(r, "{:<14} {:>14} {:>20}", "scheme", "ports (CAP/AGT)", "vs fully restorable");
        // ARROW uses its winning tickets; baselines restore nothing.
        let mut ratios = Vec::new();
        for (scheme, out) in solve_all(s, &inst) {
            let ports = required_router_ports(&inst, &out, beta, &cfg);
            let ratio = ports / baseline;
            writeln!(r, "{:<14} {:>14.0} {:>19.2}x", scheme, r.n(ports), r.n(ratio));
            ratios.push((scheme, ratio));
        }
        // "Failure-aware TE" = the non-restoration baselines (TeaVaR,
        // FFC); ARROW-Naive is a restoration scheme.
        let (&arrow_ratio, rivals) = arrow_and_rivals(&ratios, &["ECMP", "ARROW-Naive"]);
        let best_other = rivals.iter().map(|&&(_, v)| v).fold(f64::INFINITY, f64::min);
        let fewer = best_other / arrow_ratio.max(1e-9);
        writeln!(r, "[{name}] ARROW vs best failure-aware TE: {:.2}x fewer ports", r.n(fewer));
        if topo == Topology::B4 {
            r.summary(
                "ARROW 1.5x of fully-restorable; needs ~2.8x fewer ports than best TE",
                &format!(
                    "ARROW {:.2}x of fully-restorable; {:.2}x fewer ports than best failure-aware TE",
                    r.n(arrow_ratio),
                    r.n(fewer)
                ),
            );
        }
    }
}

/// Table 6 — terrestrial long-haul transponder spec sheet: datarate vs
/// reach, and the modulation decisions it drives (Appendix A.1).
pub(crate) fn table06(_: &Ctx, r: &mut Report) {
    writeln!(r, "{:>16} {:>12}", "datarate (Gbps)", "reach (km)");
    for row in LADDER {
        writeln!(r, "{:>16.0} {:>12.0}", r.n(row.gbps), r.n(row.reach_km));
    }
    writeln!(r, "\nderived modulation decisions:");
    for km in [800.0, 1200.0, 2000.0, 4000.0, 5500.0] {
        writeln!(r, "  {:>6.0} km path -> max datarate {:?} Gbps", km, max_gbps_for_length(km));
    }
    let ok = LADDER.len() == 4
        && max_gbps_for_length(1000.0) == Some(400.0)
        && max_gbps_for_length(5000.0) == Some(100.0)
        && max_gbps_for_length(5001.0).is_none();
    r.summary(
        "400G/1000km 300G/1500km 200G/3000km 100G/5000km",
        if ok { "ladder matches exactly" } else { "MISMATCH" },
    );
    assert!(ok);
}

/// Tables 7/8 — size of the optimal joint IP/optical formulation.
///
/// Paper (Table 8): Facebook 12,280 *million* binaries (constraint count
/// overflows memory); IBM 81M binaries / 192M constraints; B4 52M / 119M.
/// Our scenario sets are smaller, so absolute counts are smaller — the
/// reproduction target is the *blow-up* relative to ARROW's two-phase LP.
pub(crate) fn table08(ctx: &Ctx, r: &mut Report) {
    writeln!(
        r,
        "{:<10} {:>10} {:>16} {:>16} {:>16}",
        "topology", "scenarios", "binary vars", "continuous vars", "constraints"
    );
    let mut fb_binaries = 0u128;
    for topo in Topology::ALL {
        let inst = &ctx.setup(topo).instances[0];
        let size = joint_formulation_size(inst, 4);
        writeln!(
            r,
            "{:<10} {:>10} {:>16} {:>16} {:>16}",
            topo.name(),
            inst.scenarios.len(),
            size.binary_vars,
            size.continuous_vars,
            size.constraints
        );
        if topo == Topology::Facebook {
            fb_binaries = size.binary_vars;
        }
        let per_scenario = size.binary_vars / inst.scenarios.len().max(1) as u128;
        writeln!(
            r,
            "           (≈{per_scenario} binaries per scenario; grows multiplicatively \
             with |Q| × paths × slots)"
        );
    }
    r.summary(
        "joint ILP needs millions-to-billions of binaries (intractable)",
        &format!(
            "Facebook-like needs {fb_binaries} binaries at only 5 scenarios — the \
             LotteryTicket abstraction replaces all of them with an LP"
        ),
    );
}

/// Theorem 3.1 — ARROW's probabilistic optimality guarantee
/// `ρ^q = 1 − (1 − κ)^{|Z^q|}`, validated against a Monte-Carlo simulation
/// of Algorithm 1's randomized rounding.
pub(crate) fn thm31(_: &Ctx, r: &mut Report) {
    let delta = LotteryConfig::default().delta;
    let links = [
        LinkRounding { lambda: 2.3, direction: RoundDirection::Up },
        LinkRounding { lambda: 1.7, direction: RoundDirection::Down },
    ];
    let k = kappa(delta, &links);
    writeln!(r, "two failed links, δ = {delta}: κ = {:.4}\n", r.n(k));
    writeln!(r, "{:>6} {:>14} {:>14}", "|Z|", "analytic rho", "monte-carlo");
    let mut rng = StdRng::seed_from_u64(2024);
    let trials = 40_000;
    let mut worst_gap = 0.0f64;
    for z in [1usize, 2, 5, 10, 20, 50] {
        let analytic = optimality_probability(k, z);
        // Empirical: draw z tickets; success if any reproduces the optimal
        // (direction, stride=1) event on both links. `all` and `any` stop
        // drawing at the first miss / first hit, as Algorithm 1 would.
        let mut optimal_ticket = || {
            links.iter().all(|l| {
                let x1 = rng.gen_range(1..=delta);
                let x2: f64 = rng.gen_range(0.0..1.0);
                let up = x2 < l.lambda - l.lambda.floor();
                up == matches!(l.direction, RoundDirection::Up) && x1 == 1
            })
        };
        let hits = (0..trials).filter(|_| (0..z).any(|_| optimal_ticket())).count();
        let empirical = hits as f64 / trials as f64;
        worst_gap = worst_gap.max((analytic - empirical).abs());
        writeln!(r, "{:>6} {:>14.4} {:>14.4}", z, r.n(analytic), r.n(empirical));
    }
    writeln!(
        r,
        "\ntickets needed for rho >= 0.95: {:?}; for rho >= 0.99: {:?}",
        tickets_for_target(k, 0.95),
        tickets_for_target(k, 0.99)
    );
    r.summary(
        "rho = 1-(1-kappa)^|Z| matches the rounding process",
        &format!("max |analytic - empirical| = {:.4} over 40k trials", r.n(worst_gap)),
    );
    assert!(worst_gap < 0.02);
}
