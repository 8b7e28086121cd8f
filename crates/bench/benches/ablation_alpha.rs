//! Ablation: the Phase-I slack budget α (paper footnote 4 evaluates
//! α ∈ {0.2, 0.1, 0.05}).
//!
//! `M^{z,q} = α · Σ_e r_e^{z,q}` bounds how far Phase I may pretend a
//! ticket's restored capacity stretches. Larger α lets Phase I see further
//! past each ticket (more informative slack signal, looser allocation);
//! smaller α pins Phase I to the candidates. The end-to-end effect on
//! throughput should be modest — the paper treats α as a tuning knob.

use arrow_bench::{banner, setup_by_name, summary};
use arrow_te::{Arrow, ArrowOnline};

fn main() {
    banner(
        "ablation_alpha",
        "Phase-I slack budget α sweep (B4, demand 8x)",
        "footnote 4: α ∈ {0.2, 0.1, 0.05}",
    );
    let s = setup_by_name("B4");
    let inst = s.instances[0].scaled(8.0);
    println!("{:>8} {:>12} {:>16}", "alpha", "throughput", "winning != naive");
    let mut values = Vec::new();
    for alpha in [0.2, 0.1, 0.05] {
        let arrow = Arrow { tickets: s.tickets.clone(), alpha, solver: Default::default() };
        let outcome = ArrowOnline::new(arrow, &inst).solve(&inst);
        let thr = outcome.output.alloc.throughput(&inst);
        let nonnaive = outcome.winning.iter().filter(|&&w| w != 0).count();
        println!("{:>8.2} {:>12.4} {:>16}", alpha, thr, nonnaive);
        values.push(thr);
    }
    let spread =
        values.iter().fold(0.0f64, |a, &b| a.max(b)) - values.iter().fold(1.0f64, |a, &b| a.min(b));
    summary(
        "ablation_alpha",
        "α is a mild tuning knob (paper tries 0.2/0.1/0.05)",
        &format!("throughput spread across α values: {spread:.4}"),
    );
}
