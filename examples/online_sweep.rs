//! Warm-vs-cold online-stage sweep over a diurnal traffic cycle (§5).
//!
//! The online stage must finish inside a five-minute TE epoch. This sweep
//! replays a day of B4 traffic (scaled gravity matrices tracing a diurnal
//! curve) twice through the same controller:
//!
//! * **cold** — `reset_online_cache()` before every `plan_epoch`, so each
//!   interval rebuilds tunnels and both LP models from scratch, and
//! * **warm** — `plan_epoch` on the kept cache: after the first interval
//!   it re-uses the Phase I skeleton, patches demand bounds in place, and
//!   warm-starts each LP from the previous interval's optimum.
//!
//! Both paths must agree exactly — identical winning tickets, Phase II
//! objectives within 1e-6 relative — while the warm path runs faster.
//! The run prints a per-interval table; the final asserts make CI fail on
//! any divergence. (The wall-clock judge of this path is the `perf/`
//! benchmark's `serve_b4_warm` and `epoch_b4_cold` workloads.)
//!
//! Run: `cargo run --release --example online_sweep`

use arrow_wan::obs::{FieldValue, RingSubscriber};
use arrow_wan::prelude::*;
use std::sync::Arc;

/// Diurnal scale factors: a day sampled every ~2.7 hours, tracing the
/// familiar trough–peak–trough curve around the base gravity matrix.
const DIURNAL: [f64; 9] = [0.60, 0.75, 0.95, 1.10, 1.15, 1.05, 0.90, 0.72, 0.62];

struct Interval {
    scale: f64,
    seconds: f64,
    objective: f64,
    winning: Vec<usize>,
    phase1: SolveStats,
    phase2: SolveStats,
}

fn run_sweep(
    ctl: &mut ArrowController,
    tm: &TrafficMatrix,
    warm: bool,
    ring: &RingSubscriber,
) -> (Vec<Interval>, f64) {
    ring.clear();
    let mut out = Vec::new();
    for (i, &scale) in DIURNAL.iter().enumerate() {
        let shifted = tm.scaled(scale);
        // The cold sweep empties the cache before every interval, the warm
        // one only before its first.
        if !warm || i == 0 {
            ctl.reset_online_cache();
        }
        let (plan, _) = ctl.plan_epoch(&shifted, None).expect("valid offline state plans cleanly");
        out.push(Interval {
            scale,
            seconds: 0.0,
            objective: plan.outcome.output.alloc.total_admitted(),
            winning: plan.outcome.winning.clone(),
            phase1: plan.outcome.phase1_stats,
            phase2: plan.outcome.phase2_stats,
        });
    }
    // Per-interval wall clock comes from the controller's own "epoch"
    // trace spans rather than bespoke Instant bookkeeping around the call.
    let epochs = ring.finished_spans("epoch");
    assert_eq!(epochs.len(), out.len(), "one epoch span per diurnal interval");
    for (i, (iv, span)) in out.iter_mut().zip(&epochs).enumerate() {
        assert_eq!(
            span.field("mode").and_then(FieldValue::as_str),
            Some(if warm && i > 0 { "warm" } else { "cold" }),
            "epoch span mode matches the sweep variant"
        );
        iv.seconds = span.duration_seconds().expect("span end carries a duration");
    }
    let wall = out.iter().map(|iv| iv.seconds).sum();
    (out, wall)
}

fn main() {
    let wan = b4(17);
    let failures =
        generate_failures(&wan, &FailureConfig { max_scenarios: 4, ..Default::default() });
    let scens = failures.failure_scenarios().to_vec();
    let cfg = ControllerConfig {
        lottery: LotteryConfig { num_tickets: 40, ..Default::default() },
        tunnels: TunnelConfig { tunnels_per_flow: 4, ..Default::default() },
        ..Default::default()
    };
    let tm = gravity_matrices(&wan, &TrafficConfig { num_matrices: 1, ..Default::default() })[0]
        .scaled(3.0);

    println!("== online-stage warm-vs-cold sweep: {} ==", wan.summary());
    let mut ctl = ArrowController::new(wan, scens, cfg);
    // Subscribe after the offline stage so the ring holds only the online
    // epoch spans each sweep produces.
    let ring = Arc::new(RingSubscriber::new(4096));
    arrow_wan::obs::trace::install(ring.clone());
    let z: usize = ctl.offline().tickets.per_scenario.iter().map(|t| t.len()).max().unwrap_or(0);
    println!(
        "{} scenarios, |Z| up to {} tickets, {} diurnal intervals\n",
        ctl.offline().scenarios.len(),
        z,
        DIURNAL.len()
    );

    let (cold, cold_wall) = run_sweep(&mut ctl, &tm, false, &ring);
    let (warm, warm_wall) = run_sweep(&mut ctl, &tm, true, &ring);
    arrow_wan::obs::trace::uninstall();

    println!("interval | scale | cold s | warm s | warm p1/p2 | objective match");
    let mut objectives_match = true;
    let mut winning_identical = true;
    for (i, (c, w)) in cold.iter().zip(&warm).enumerate() {
        let rel = (c.objective - w.objective).abs() / (1.0 + c.objective.abs());
        objectives_match &= rel <= 1e-6;
        winning_identical &= c.winning == w.winning;
        println!(
            "  {:>6} | {:>5.2} | {:>6.3} | {:>6.3} | {:>4}/{:<4} | rel {:.2e}{}",
            i,
            c.scale,
            c.seconds,
            w.seconds,
            w.phase1.warm.label(),
            w.phase2.warm.label(),
            rel,
            if c.winning == w.winning { "" } else { "  WINNERS DIVERGED" }
        );
    }
    let speedup = cold_wall / warm_wall.max(1e-12);
    println!("\ncold wall {cold_wall:.3}s, warm wall {warm_wall:.3}s -> {speedup:.2}x end-to-end");

    assert!(objectives_match, "warm Phase II objectives diverged from cold (> 1e-6 relative)");
    assert!(winning_identical, "warm winning-ticket choices diverged from cold");
    assert!(speedup >= 1.5, "warm path speedup {speedup:.2}x below the 1.5x budget");
    println!("OK: identical plans, {speedup:.2}x faster warm");
}
