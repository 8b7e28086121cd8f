//! The small-input fan-out rule of the offline stage.
//!
//! The trace subscriber is process-global, so this file holds exactly one
//! test: every `lp.solve_batch` span the ring sees is this test's own.

use std::sync::Arc;

use arrow_core::lottery::{generate_tickets_with_threads, LotteryConfig};
use arrow_obs::RingSubscriber;
use arrow_topology::{b4, generate_failures, FailureConfig};

/// A controller's handful of scenarios must not collapse into one chunk on
/// one thread: 4 scenarios on 2 workers are cut into two 2-lane chunks,
/// each its own batched RWA solve.
#[test]
fn four_scenarios_on_two_workers_solve_in_two_batches() {
    let wan = b4(17);
    let failures =
        generate_failures(&wan, &FailureConfig { max_scenarios: 4, ..Default::default() });
    let scens = failures.failure_scenarios();
    assert_eq!(scens.len(), 4);

    let ring = Arc::new(RingSubscriber::new(4096));
    arrow_obs::trace::install(ring.clone());
    let cfg = LotteryConfig { num_tickets: 4, ..Default::default() };
    let (set, stats) = generate_tickets_with_threads(&wan, scens, &cfg, 2);
    arrow_obs::trace::uninstall();

    assert_eq!(set.per_scenario.len(), 4);
    assert_eq!(stats.threads, 2);
    let batches = ring.finished_spans("lp.solve_batch");
    assert!(batches.len() >= 2, "expected >= 2 batched solves, saw {}", batches.len());
    let lanes: u64 = batches.iter().filter_map(|b| b.field("lanes").and_then(|v| v.as_u64())).sum();
    assert_eq!(lanes, 4, "every scenario's LP rides exactly one batch");
}
