//! Ablation: Algorithm 1's randomized-rounding knobs.
//!
//! * **Stride δ** — how far rounding explores beyond the RWA optimum
//!   (paper's `randInt(1, δ)`; Theorem 3.1's κ has a `1/δ` factor per
//!   link, so large δ needs more tickets).
//! * **Feasibility filter** — §3.2 drops tickets the optical layer cannot
//!   realize; disabling it feeds the TE restoration promises that playback
//!   cannot honor.

use arrow_bench::{banner, setup_by_name, summary};
use arrow_core::{generate_tickets, realize_ticket, LotteryConfig};
use arrow_te::eval::{availability, PlaybackConfig};
use arrow_te::{Arrow, TeScheme};

fn main() {
    banner(
        "ablation_rounding",
        "rounding stride δ and the feasibility filter (B4, demand 8x)",
        "Algorithm 1 / §3.2 / Theorem 3.1",
    );
    let s = setup_by_name("B4");
    let inst = s.instances[0].scaled(8.0);
    let cfg = PlaybackConfig::default();
    println!(
        "{:>6} {:>8} {:>10} {:>12} {:>14}",
        "delta", "filter", "tickets", "throughput", "availability"
    );
    let mut kept: Vec<(usize, bool, f64)> = Vec::new();
    for delta in [1usize, 2, 4] {
        for filter in [true, false] {
            let (tickets, _) = generate_tickets(
                &s.wan,
                &inst.scenarios,
                &LotteryConfig {
                    num_tickets: 12,
                    delta,
                    feasibility_filter: filter,
                    ..Default::default()
                },
            );
            let total: usize = tickets.per_scenario.iter().map(|t| t.len()).sum();
            let mut out = Arrow::new(tickets).solve(&inst);
            let thr = out.alloc.throughput(&inst);
            // Ground the plan in optical reality before playback: an
            // unfiltered winning ticket may promise capacity the ROADMs
            // cannot actually switch.
            if let Some(plan) = out.restoration.take() {
                let lottery = LotteryConfig::default();
                out.restoration = Some(
                    inst.scenarios
                        .iter()
                        .zip(&plan)
                        .map(|(scen, t)| realize_ticket(&s.wan, scen, t, &lottery.rwa))
                        .collect(),
                );
            }
            let avail = availability(&inst, &out, &cfg);
            println!("{:>6} {:>8} {:>10} {:>12.4} {:>14.4}", delta, filter, total, thr, avail);
            kept.push((delta, filter, avail));
        }
    }
    // The filter's value: unfiltered tickets may promise unrealizable
    // capacity, which playback punishes.
    let with = kept.iter().filter(|&&(_, f, _)| f).map(|&(_, _, a)| a).fold(0.0, f64::max);
    let without = kept.iter().filter(|&&(_, f, _)| !f).map(|&(_, _, a)| a).fold(0.0, f64::max);
    summary(
        "ablation_rounding",
        "filter keeps tickets honest; δ trades exploration vs κ",
        &format!("best availability with filter {with:.4} vs without {without:.4}"),
    );
}
