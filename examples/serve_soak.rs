//! Soak test for the `arrow serve` daemon: hundreds of epochs under
//! chaos load, with the acceptance gates asserted inline. (Its speed is
//! judged by the `perf/` benchmark's `serve_b4_warm` workload.)
//!
//! Two modes:
//!
//! * `cargo run --release --example serve_soak` — the full soak:
//!   200 epoch ticks, random fiber cut/repair re-plans, 3 chaos bursts.
//! * `cargo run --release --example serve_soak -- --smoke` — the CI
//!   shape: 30 ticks, 1 burst (~30 s wall).
//!
//! What must hold, deterministically under the fixed seed:
//!
//! * warm-hit ratio ≥ 0.925 across the soak (only the cold-start epoch and
//!   plan-structure changes may miss);
//! * every chaos burst blows the 2 s SLO budget (its stall is 3 s), so
//!   bursts == fallbacks == incident dumps, and every dump's critical
//!   path reaches `lp.solve`;
//! * `/metrics` and `/readyz` answer over a real socket throughout;
//!   `/readyz` is 503 before the first plan and 200 after.

use arrow_wan::prelude::*;
use std::path::PathBuf;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (mode, epochs, bursts) = if smoke { ("smoke", 30, 1) } else { ("full", 200, 3) };

    let budget_seconds = 2.0;
    let stall_seconds = 3.0;
    let incident_dir = PathBuf::from(format!("incidents-soak-{mode}"));
    if incident_dir.exists() {
        std::fs::remove_dir_all(&incident_dir).expect("clear previous incident dir");
    }

    let config = ServeConfig {
        seed: 42,
        epochs,
        budget_seconds,
        scenarios: 4,
        tickets: 8,
        demand_scale: 2.0,
        scrape_every: 5,
        incident_dir: incident_dir.clone(),
        chaos: Some(ChaosConfig { bursts, stall_seconds, ..Default::default() }),
        ..Default::default()
    };
    println!(
        "serve soak ({mode}): {epochs} epochs, {bursts} chaos bursts, \
         {budget_seconds:.1}s budget, {stall_seconds:.1}s stall"
    );

    let report = serve(b4(17), &config).expect("daemon run");

    println!(
        "planned {} epochs ({} ticks, {} cut/repair, {} bursts) in {:.1}s ({:.1} epochs/s)",
        report.epochs_planned,
        report.ticks,
        report.cut_replans,
        report.chaos_bursts,
        report.wall_seconds,
        report.epochs_per_sec()
    );
    println!(
        "warm-hit ratio {:.4} | p99 epoch {:.3}s | {} fallbacks | {} incidents | {} scrapes ok",
        report.warm_hit_ratio,
        report.p99_epoch_seconds(),
        report.fallbacks,
        report.incidents.len(),
        report.scrapes_ok
    );
    for inc in &report.incidents {
        println!("  incident: {}", inc.dir.display());
    }

    // The acceptance gates. All deterministic under the fixed seed: the
    // stall is 1.5x the budget (every burst must miss) while a healthy
    // warm epoch runs ~10x under it (nothing else may miss).
    assert!(
        report.warm_hit_ratio >= 0.925,
        "warm-hit ratio {:.4} below the 0.925 floor",
        report.warm_hit_ratio
    );
    assert_eq!(report.chaos_bursts, bursts, "feed dropped a scheduled chaos burst");
    assert_eq!(
        report.fallbacks, report.chaos_bursts,
        "every chaos burst must miss the deadline and fall back to the previous plan"
    );
    assert_eq!(
        report.incidents.len() as u64,
        report.chaos_bursts + report.plan_errors,
        "every deadline miss must produce an incident dump"
    );
    assert!(
        report.incidents_reach_lp_solve,
        "an incident dump's critical path failed to reach lp.solve"
    );
    assert_eq!(report.plan_errors, 0, "soak must plan every epoch");
    assert_eq!(report.readyz_before, 503, "/readyz must be 503 before the first plan");
    assert_eq!(report.readyz_after, 200, "/readyz must be 200 once a plan is installed");
    assert!(
        report.scrapes_ok >= report.epochs_planned / 5 / 2,
        "live /metrics scrapes failed mid-soak ({} ok)",
        report.scrapes_ok
    );
    for inc in &report.incidents {
        assert!(
            inc.dir.join("trace.jsonl").exists()
                && inc.dir.join("critical_path.txt").exists()
                && inc.dir.join("metrics.json").exists()
                && inc.dir.join("incident.json").exists(),
            "incident dump {} is missing artifacts",
            inc.dir.display()
        );
    }
    println!("OK: soak held every gate ({mode} mode)");
}
