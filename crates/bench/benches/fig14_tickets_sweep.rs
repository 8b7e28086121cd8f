//! Fig. 14 — impact of the number of LotteryTickets on ARROW's throughput
//! (B4, heavily scaled demand).
//!
//! Paper: throughput fluctuates at small |Z| (randomized rounding may miss
//! good candidates), rises with |Z|, then plateaus once the tickets cover
//! a good set of restoration candidates; |Z| = 1 equals ARROW-Naive.

use arrow_bench::{banner, parallel_map, setup_by_name, summary};
use arrow_core::{generate_tickets, LotteryConfig};
use arrow_te::{Arrow, TeScheme};

fn main() {
    banner(
        "fig14",
        "ARROW throughput vs number of LotteryTickets (B4)",
        "Fig. 14: fluctuation at small |Z|, then a plateau",
    );
    let s = setup_by_name("B4");
    let inst = s.instances[0].scaled(8.0);
    let counts = [1usize, 2, 4, 6, 8, 12, 16, 24, 32];
    // Two rounding seeds illustrate the fluctuation at small |Z|.
    let jobs: Vec<(usize, u64)> = counts.iter().flat_map(|&z| [(z, 41u64), (z, 43u64)]).collect();
    let results = parallel_map(jobs.clone(), |&(z, seed)| {
        let (tickets, _) = generate_tickets(
            &s.wan,
            &inst.scenarios,
            &LotteryConfig { num_tickets: z, seed, ..Default::default() },
        );
        let out = Arrow::new(tickets).solve(&inst);
        out.alloc.throughput(&inst)
    });
    println!("{:>6} {:>14} {:>14} {:>12}", "|Z|", "thr (seed A)", "thr (seed B)", "spread");
    let mut first = 0.0;
    let mut last = 0.0;
    for (i, &z) in counts.iter().enumerate() {
        let a = results[2 * i];
        let b = results[2 * i + 1];
        println!("{:>6} {:>14.4} {:>14.4} {:>12.4}", z, a, b, (a - b).abs());
        if i == 0 {
            first = 0.5 * (a + b);
        }
        last = 0.5 * (a + b);
    }
    summary(
        "fig14",
        "throughput rises with |Z| and plateaus; |Z|=1 is ARROW-Naive",
        &format!(
            "throughput {:.4} at |Z|=1 -> {:.4} at |Z|={}",
            first,
            last,
            counts.last().unwrap()
        ),
    );
}
