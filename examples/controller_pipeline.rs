//! The full ARROW controller pipeline (Fig. 8), end to end.
//!
//! Offline stage: enumerate probabilistic fiber-cut scenarios, solve the
//! RWA relaxation per scenario, and roll LotteryTickets (Algorithm 1).
//! Online stage: for the current traffic matrix, Phase I picks the winning
//! ticket per scenario, Phase II allocates tunnels, and the plan compiles
//! into router splitting ratios plus ROADM wavelength-reconfiguration
//! rules installed ahead of any actual cut.
//!
//! Run: `cargo run --release --example controller_pipeline`

use arrow_wan::prelude::*;

fn main() {
    let wan = ibm(17);
    println!("== {} ==\n", wan.summary());
    let failures =
        generate_failures(&wan, &FailureConfig { max_scenarios: 8, ..Default::default() });
    let tms = gravity_matrices(&wan, &TrafficConfig { num_matrices: 2, ..Default::default() });

    // ---- Offline stage ---------------------------------------------------
    let config = ControllerConfig {
        lottery: LotteryConfig { num_tickets: 8, delta: 2, ..Default::default() },
        tunnels: TunnelConfig { tunnels_per_flow: 4, ..Default::default() },
        ..Default::default()
    };
    let delta = config.lottery.delta;
    let mut controller = ArrowController::new(wan, failures.failure_scenarios().to_vec(), config);
    println!("offline: {} failure scenarios considered", controller.offline().scenarios.len());
    println!("offline: {}", controller.offline().stats.summary());
    for (qi, (scen, tickets)) in controller
        .offline()
        .scenarios
        .iter()
        .zip(&controller.offline().tickets.per_scenario)
        .enumerate()
    {
        println!(
            "  scenario {qi}: cut {:?} (p={:.4}) -> {} failed IP links, {} LotteryTickets",
            scen.cut_fibers.iter().map(|f| f.0).collect::<Vec<_>>(),
            scen.probability,
            scen.failed_links.len(),
            tickets.len()
        );
    }

    // Theorem 3.1: how many tickets buy 95% optimality for a 2-link cut
    // with fractional seeds 2.4 and 5.7?
    let k = kappa(
        delta,
        &[
            LinkRounding { lambda: 2.4, direction: RoundDirection::Up },
            LinkRounding { lambda: 5.7, direction: RoundDirection::Down },
        ],
    );
    println!(
        "\nTheorem 3.1: κ = {:.4}; ρ with 8 tickets = {:.3}; tickets for ρ ≥ 0.95: {:?}",
        k,
        optimality_probability(k, 8),
        tickets_for_target(k, 0.95)
    );

    // ---- Online stage (one epoch per traffic matrix) ----------------------
    for (epoch, tm) in tms.iter().enumerate() {
        let (plan, _) =
            controller.plan_epoch(&tm.scaled(2.0), None).expect("offline state is complete");
        let alloc = &plan.outcome.output.alloc;
        println!(
            "\nepoch {epoch}: admitted {:.0} Gbps ({:.1}% of demand), \
             Phase I {:.2}s + Phase II {:.2}s",
            alloc.total_admitted(),
            100.0 * alloc.throughput(&plan.instance),
            plan.outcome.phase1_seconds,
            plan.outcome.phase2_seconds,
        );
        println!("  winning tickets: {:?}", plan.outcome.winning);
        println!("  ROADM reconfiguration rules installed: {}", plan.reconfig_rules.len());
        for rule in plan.reconfig_rules.iter().take(3) {
            let waves: usize = rule.routes.iter().map(|(_, s)| s.len()).sum();
            println!(
                "    scenario {}: lightpath {} -> {} wavelength(s) over {} surrogate route(s)",
                rule.scenario,
                rule.lightpath.0,
                waves,
                rule.routes.len()
            );
        }
        // Show one flow's splitting ratios.
        let f0 = &plan.splitting_ratios[0];
        let ratios: Vec<String> = f0.iter().map(|(t, w)| format!("t{}:{:.2}", t.0, w)).collect();
        println!("  flow 0 splitting ratios: {}", ratios.join(" "));
    }
}
