//! Fig. 15 — ARROW's TE optimization runtime (Phase I + Phase II LP solve
//! time) as the number of LotteryTickets grows.
//!
//! Paper: runtime grows with |Z|; the Facebook topology with 120 tickets
//! solves in 104 s on a 32-core EPYC with Gurobi — inside the 5-minute TE
//! deadline. Our solver stack and instance sizes differ, so the *shape*
//! (monotone growth, deadline comfortably met at bench sizes) is the
//! reproduction target.

use arrow_bench::{banner, setup_by_name, summary};
use arrow_core::{generate_tickets, LotteryConfig};
use arrow_te::{Arrow, ArrowOnline};

fn main() {
    banner(
        "fig15",
        "ARROW TE solve time vs number of LotteryTickets",
        "Fig. 15: runtime grows with |Z|; 104 s @ Facebook/120 on Gurobi",
    );
    let mut worst: f64 = 0.0;
    for (topo, counts) in [
        ("B4", vec![1usize, 4, 8, 16, 32]),
        ("IBM", vec![1, 4, 8, 16]),
        ("Facebook", vec![1, 3, 5]),
    ] {
        let s = setup_by_name(topo);
        let inst = s.instances[0].scaled(1.5);
        println!("\n[{topo}] {} scenarios", inst.scenarios.len());
        println!("{:>6} {:>12} {:>12} {:>12}", "|Z|", "phase I (s)", "phase II (s)", "total (s)");
        for &z in &counts {
            let (tickets, _) = generate_tickets(
                &s.wan,
                &inst.scenarios,
                &LotteryConfig { num_tickets: z, ..Default::default() },
            );
            let outcome = ArrowOnline::new(Arrow::new(tickets), &inst).solve(&inst);
            let total = outcome.phase1_seconds + outcome.phase2_seconds;
            println!(
                "{:>6} {:>12.3} {:>12.3} {:>12.3}",
                z, outcome.phase1_seconds, outcome.phase2_seconds, total
            );
            worst = worst.max(total);
        }
    }
    summary(
        "fig15",
        "runtime grows with tickets, stays inside the 5-minute deadline",
        &format!("worst total solve {worst:.2} s (deadline 300 s)"),
    );
    assert!(worst < 300.0, "TE deadline exceeded");
}
