//! The offline stage's bitwise contract, end to end.
//!
//! Invariants pinned here:
//!
//! * The RWA LP of the first sixteen `facebook_like` scenarios that `Auto`
//!   routes to PDHG is pinned bit for bit.
//! * Offline ticket generation — one scenario per unit of work, on any
//!   worker count and under sharding, with the default or a PDHG-pinned
//!   solver — produces tickets byte-identical to the serial oracle
//!   `generate_tickets_serial`.
//! * A zero-cut scenario (an empty LP) solves cleanly and rounds like any
//!   other.

use arrow_core::lottery::{
    generate_tickets_serial, generate_tickets_shard, generate_tickets_with_threads, LotteryConfig,
    ShardSpec,
};
use arrow_lp::{Backend, SolverConfig};
use arrow_obs::hash::check_pins;
use arrow_optical::rwa::{build_relaxed, solve_relaxed, RwaConfig};
use arrow_topology::{
    b4, compile_universe, facebook_like, generate_failures, ibm, FailureConfig, FailureScenario,
    UniverseConfig, Wan,
};

/// Among the first 16 `facebook_like` scenarios one RWA LP crosses
/// `auto_threshold` and goes to PDHG (B4's and IBM's never do). Its solve,
/// pinned: an RWA-shaped matrix (the online pins in `determinism.rs` and
/// arrow-te are TE-shaped).
/// `Solution::digest`: status, iteration and restart counts, `x` and dual
/// bits. Recorded before the PDHG iteration kernel changed; a change that
/// claims to keep PDHG's bits must leave the pin alone.
#[test]
fn facebook_pdhg_lane_is_pinned_bit_for_bit() {
    let wan = facebook_like(17);
    let failures = generate_failures(&wan, &FailureConfig { cutoff: 1e-5, max_scenarios: 16 });
    let rwa = RwaConfig::default();
    let model = failures
        .failure_scenarios()
        .iter()
        .map(|s| build_relaxed(&wan.optical, &s.cut_fibers, &rwa).model)
        .find(|model| model.num_cons() > rwa.solver.auto_threshold)
        .expect("one of the sixteen LPs crosses auto_threshold");
    let sol = arrow_lp::solve(&model, &rwa.solver);
    assert_eq!(sol.stats.backend, arrow_lp::BackendKind::Pdhg);
    check_pins(&[("rwa_pdhg.facebook_like_lane", sol.digest())]).unwrap();
}

fn small_universe() -> (Wan, arrow_topology::ScenarioUniverse) {
    let wan = ibm(17);
    let uni = compile_universe(
        &wan,
        &UniverseConfig {
            max_k: 2,
            cutoff: 1e-4,
            auto_srlg_size: 3,
            auto_srlg_probability: 1e-3,
            max_scenarios: 10,
            ..Default::default()
        },
    );
    assert!(uni.len() >= 6, "universe too small: {}", uni.len());
    (wan, uni)
}

/// Ticket digests are unchanged by the worker count: 10 scenarios on 1, 2,
/// 3, 4, 8 and 32 workers each reproduce the serial oracle.
#[test]
fn ticket_digests_unchanged_by_worker_count() {
    let (wan, uni) = small_universe();
    let cfg = LotteryConfig { num_tickets: 6, ..Default::default() };
    let scens = uni.failure_scenarios();
    let reference = generate_tickets_serial(&wan, &scens, &cfg);
    for threads in [1usize, 2, 3, 4, 8, 32] {
        let (set, _) = generate_tickets_with_threads(&wan, &scens, &cfg, threads);
        assert_eq!(set, reference, "TicketSet diverged on {threads} workers");
        assert_eq!(set.digest(), reference.digest(), "digest diverged on {threads} workers");
    }
}

/// Each shard of sharded generation equals the serial oracle at its global
/// indices, byte for byte.
#[test]
fn shards_match_sequential_reference() {
    let (wan, uni) = small_universe();
    let cfg = LotteryConfig { num_tickets: 5, ..Default::default() };
    let reference = generate_tickets_serial(&wan, &uni.failure_scenarios(), &cfg);
    for of in [1usize, 2, 3] {
        for index in 0..of {
            let spec = ShardSpec { index, of };
            let (shard, _) = generate_tickets_shard(&wan, &uni, &cfg, spec);
            assert_eq!(shard.scenario_indices, spec.indices(uni.len()));
            for (&g, tickets) in shard.scenario_indices.iter().zip(&shard.per_scenario) {
                assert_eq!(
                    tickets, &reference.per_scenario[g],
                    "{of}-way shard {index}, scenario {g}"
                );
            }
        }
    }
}

/// A zero-cut scenario (an empty LP) solves cleanly and, generated beside
/// a real cut on two workers, matches the serial oracle.
#[test]
fn zero_cut_scenario_is_clean() {
    let wan = b4(17);
    let failures =
        generate_failures(&wan, &FailureConfig { max_scenarios: 1, ..Default::default() });
    let empty =
        FailureScenario { cut_fibers: Vec::new(), probability: 0.0, failed_links: Vec::new() };
    let scens = vec![empty, failures.failure_scenarios()[0].clone()];
    let sol = solve_relaxed(&wan.optical, &[], &RwaConfig::default());
    assert!(sol.links.is_empty());
    assert_eq!(sol.total_wavelengths, 0.0);
    let cfg = LotteryConfig { num_tickets: 4, ..Default::default() };
    let reference = generate_tickets_serial(&wan, &scens, &cfg);
    let (set, _) = generate_tickets_with_threads(&wan, &scens, &cfg, 2);
    assert_eq!(set, reference);
    let zero_cut = &set.per_scenario[0];
    assert!(zero_cut.len() == 1 && zero_cut[0].restored.is_empty(), "{zero_cut:?}");
}

/// Pinning the PDHG backend end-to-end through ticket generation still
/// yields digests identical to the serial oracle.
#[test]
fn pdhg_pinned_pipeline_digests_match() {
    let (wan, uni) = small_universe();
    let cfg = LotteryConfig {
        num_tickets: 4,
        rwa: RwaConfig {
            solver: SolverConfig { backend: Backend::Pdhg, ..SolverConfig::default() },
            allow_modulation_change: true,
            ..RwaConfig::default()
        },
        ..Default::default()
    };
    let a = generate_tickets_serial(&wan, &uni.failure_scenarios(), &cfg);
    let (b, _) = generate_tickets_shard(&wan, &uni, &cfg, ShardSpec::whole());
    assert_eq!(a, b, "PDHG-pinned pipeline diverged from the serial oracle");
    assert_eq!(a.digest(), b.digest());
}
