//! What the offline stage's trace must show: the small-input fan-out rule
//! and one `offline.scenario` span per scenario on every generation path.
//!
//! The trace subscriber is process-global, so these tests live in their own
//! binary and take turns under [`traced`]: every span a ring sees belongs
//! to the test that installed it.

use std::sync::{Arc, Mutex};

use arrow_core::lottery::{
    generate_tickets_serial, generate_tickets_shard, generate_tickets_with_threads, LotteryConfig,
    ShardSpec,
};
use arrow_obs::RingSubscriber;
use arrow_topology::{b4, compile_universe, generate_failures, FailureConfig, UniverseConfig};

/// Runs `body` with a fresh ring installed as the only subscriber.
fn traced<R>(body: impl FnOnce() -> R) -> (R, Arc<RingSubscriber>) {
    static TURN: Mutex<()> = Mutex::new(());
    let _turn = TURN.lock().expect("an earlier test panicked inside traced()");
    let ring = Arc::new(RingSubscriber::new(1 << 16));
    arrow_obs::trace::install(ring.clone());
    let out = body();
    arrow_obs::trace::uninstall();
    (out, ring)
}

/// A controller's handful of scenarios must not collapse into one chunk on
/// one thread: 4 scenarios on 2 workers are cut into two 2-lane chunks,
/// each its own batched RWA solve.
#[test]
fn four_scenarios_on_two_workers_solve_in_two_batches() {
    let wan = b4(17);
    let cfg = LotteryConfig { num_tickets: 4, ..Default::default() };
    // Generating the scenarios compiles a universe, which emits spans too,
    // so it takes its turn under the tracer as well.
    let ((set, stats), ring) = traced(|| {
        let failures =
            generate_failures(&wan, &FailureConfig { max_scenarios: 4, ..Default::default() });
        generate_tickets_with_threads(&wan, &failures.failure_scenarios(), &cfg, 2)
    });

    assert_eq!(set.per_scenario.len(), 4);
    assert_eq!(stats.threads, 2);
    let batches = ring.finished_spans("lp.solve_batch");
    assert!(batches.len() >= 2, "expected >= 2 batched solves, saw {}", batches.len());
    let lanes: u64 = batches.iter().filter_map(|b| b.field("lanes").and_then(|v| v.as_u64())).sum();
    assert_eq!(lanes, 4, "every scenario's LP rides exactly one batch");
}

/// Compiling a universe is one `scenario.compile` span; unsharded, 2-way
/// sharded and through the serial oracle, generation emits exactly one
/// `offline.scenario` span per universe scenario.
#[test]
fn every_scenario_gets_one_span_sharded_or_serial() {
    let wan = b4(17);
    let ucfg = UniverseConfig {
        max_k: 3,
        cutoff: 1e-5,
        auto_srlg_size: 3,
        auto_srlg_probability: 1e-3,
        maintenance_window: 2,
        maintenance_probability: 5e-4,
        max_scenarios: 64,
        ..Default::default()
    };
    let (uni, ring) = traced(|| compile_universe(&wan, &ucfg));
    assert_eq!(ring.finished_spans("scenario.compile").len(), 1, "one compile span per universe");

    let cfg = LotteryConfig { num_tickets: 6, ..Default::default() };
    let spans = |ring: &RingSubscriber| ring.finished_spans("offline.scenario").len();

    let (_, ring) = traced(|| generate_tickets_shard(&wan, &uni, &cfg, ShardSpec::whole()));
    assert_eq!(spans(&ring), uni.len(), "unsharded run");

    let (_, ring) = traced(|| {
        for index in 0..2 {
            generate_tickets_shard(&wan, &uni, &cfg, ShardSpec { index, of: 2 });
        }
    });
    assert_eq!(spans(&ring), uni.len(), "2 shards must cover the universe once");

    let (_, ring) = traced(|| generate_tickets_serial(&wan, &uni.failure_scenarios(), &cfg));
    assert_eq!(spans(&ring), uni.len(), "serial oracle");
}
