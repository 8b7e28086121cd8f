//! What the offline stage's trace must show: one `offline.rwa` span per
//! scenario, timed inside the scenario's seconds, and one
//! `offline.scenario` span per scenario on every generation path.
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

/// 4 scenarios on 2 workers are 4 units of work: 4 `offline.rwa` spans,
/// one per scenario index, each no longer than its scenario's reported
/// seconds (which read the `offline.scenario` span around it).
#[test]
fn four_scenarios_on_two_workers_time_one_rwa_span_each() {
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
    let mut rwa: Vec<(u64, f64)> = ring
        .finished_spans("offline.rwa")
        .iter()
        .map(|r| {
            let index = r.field("scenario").and_then(|v| v.as_u64()).expect("scenario index");
            (index, r.duration_nanos.expect("span end") as f64 / 1e9)
        })
        .collect();
    rwa.sort_by_key(|&(index, _)| index);
    assert_eq!(rwa.iter().map(|&(i, _)| i).collect::<Vec<_>>(), [0, 1, 2, 3]);
    for (s, &(index, span)) in stats.per_scenario.iter().zip(&rwa) {
        assert_eq!(s.scenario as u64, index);
        assert!(s.seconds >= span, "scenario {index}: {} s < its offline.rwa {span} s", s.seconds);
    }
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
