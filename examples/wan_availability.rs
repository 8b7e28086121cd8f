//! WAN availability under demand scaling: ARROW vs the baselines.
//!
//! A laptop-sized cut of the paper's headline experiment (Fig. 13): on the
//! B4 topology, scale demand up and watch how availability degrades for
//! ECMP, FFC-1, TeaVaR, ARROW-Naive, and ARROW. Restoration awareness lets
//! ARROW hold its availability while admitting substantially more demand.
//!
//! Run: `cargo run --release --example wan_availability`

use arrow_wan::prelude::*;

fn main() {
    let wan = b4(17);
    println!("== {} ==", wan.summary());
    let tms = gravity_matrices(&wan, &TrafficConfig { num_matrices: 1, ..Default::default() });
    let failures =
        generate_failures(&wan, &FailureConfig { max_scenarios: 12, ..Default::default() });
    let scenarios = failures.failure_scenarios().to_vec();
    let base = build_instance(
        &wan,
        &tms[0],
        &scenarios,
        &TunnelConfig { tunnels_per_flow: 4, ..Default::default() },
    );
    // Normalize so scale 1.0 = "all demand fits" (§6 demand scaling).
    let norm = normalize_demand_scale(&base);
    println!("normalized demand scale: x{norm:.2} saturates the failure-oblivious LP\n");

    // Offline: LotteryTickets for ARROW; naive single candidates.
    let lottery = LotteryConfig { num_tickets: 10, ..Default::default() };
    let (tickets, _) = generate_tickets(&wan, &scenarios, &lottery);
    let naive: Vec<RestorationTicket> =
        scenarios.iter().map(|s| naive_ticket(&wan, s, &lottery.rwa)).collect();

    println!("{:<14} {:>8} {:>12} {:>12}", "scheme", "scale", "throughput", "availability");
    let playback = PlaybackConfig::default();
    for scale in [1.0, 1.5, 2.0, 3.0] {
        let inst = base.scaled(norm * scale);
        let schemes: Vec<Box<dyn TeScheme>> = vec![
            Box::new(Ecmp),
            Box::new(Ffc::k1()),
            Box::new(TeaVar::default()),
            Box::new(ArrowNaive { tickets: naive.clone(), solver: Default::default() }),
            Box::new(Arrow::new(tickets.clone())),
        ];
        for s in schemes {
            let out = s.solve(&inst);
            let avail = availability(&inst, &out, &playback);
            let thr = play_scenario(&inst, &out.alloc, None, None, &playback).satisfaction;
            println!("{:<14} {:>8.2} {:>12.3} {:>12.6}", s.name(), scale, thr, avail);
        }
        println!();
    }
    println!(
        "Reading: at equal availability targets ARROW sustains a larger demand\n\
         scale than failure-aware TE that treats fiber cuts as fatal."
    );
}
