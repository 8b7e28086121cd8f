//! The batched-LP bitwise contract, end to end.
//!
//! PR-level invariants pinned here:
//!
//! * `solve_relaxed_batch` is bitwise identical to per-scenario
//!   `solve_relaxed` for arbitrary scenario slices and lane counts, on both
//!   B4 and IBM, under the default (Auto) and PDHG-pinned solver configs,
//!   and on the `facebook_like` chunk whose lanes mix both backends.
//! * Offline ticket generation — chunked, batched, on any worker count and
//!   under sharding — produces tickets byte-identical to the serial
//!   oracle `generate_tickets_serial` (one unbatched LP per scenario).
//! * A handful of scenarios still fans out: the chunk width shrinks until
//!   every worker has a chunk.

use std::sync::OnceLock;

use arrow_core::lottery::{
    generate_tickets_serial, generate_tickets_shard, generate_tickets_with_threads, LotteryConfig,
    ShardSpec,
};
use arrow_lp::{Backend, SolverConfig};
use arrow_optical::rwa::{build_relaxed, solve_relaxed, solve_relaxed_batch, RwaConfig};
use arrow_topology::{
    b4, compile_universe, facebook_like, generate_failures, ibm, FailureConfig, FailureScenario,
    UniverseConfig, Wan,
};
use proptest::prelude::*;

fn fixture(use_ibm: bool) -> &'static (Wan, Vec<FailureScenario>) {
    static B4: OnceLock<(Wan, Vec<FailureScenario>)> = OnceLock::new();
    static IBM: OnceLock<(Wan, Vec<FailureScenario>)> = OnceLock::new();
    let build = move || {
        let wan = if use_ibm { ibm(17) } else { b4(17) };
        let failures =
            generate_failures(&wan, &FailureConfig { max_scenarios: 8, ..Default::default() });
        let scens = failures.failure_scenarios();
        (wan, scens)
    };
    if use_ibm {
        IBM.get_or_init(build)
    } else {
        B4.get_or_init(build)
    }
}

fn pdhg_rwa() -> RwaConfig {
    RwaConfig { solver: SolverConfig::first_order(1e-7), ..RwaConfig::default() }
}

/// `solve_relaxed_batch` over `cuts` equals per-cut `solve_relaxed`.
/// `Debug` for `f64` round-trips, so equal renderings mean bitwise-equal
/// solutions.
fn batch_matches_sequential(
    wan: &Wan,
    cuts: &[&[arrow_optical::FiberId]],
    rwa: &RwaConfig,
) -> Result<(), String> {
    let batched = solve_relaxed_batch(&wan.optical, cuts, rwa);
    if batched.len() != cuts.len() {
        return Err(format!("{} solutions for {} cuts", batched.len(), cuts.len()));
    }
    for (i, (cut, b)) in cuts.iter().zip(&batched).enumerate() {
        let seq = solve_relaxed(&wan.optical, cut, rwa);
        if format!("{seq:?}") != format!("{b:?}") {
            return Err(format!("lane {i} differs:\n{seq:?}\nvs\n{b:?}"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Batched relaxed RWA is bitwise identical to sequential solves for
    /// random scenario slices and 1/2/7-lane batches.
    #[test]
    fn batched_rwa_bitwise_matches_sequential(
        use_ibm in any::<bool>(),
        start in 0usize..8,
        lane_pick in 0usize..3,
        pin_pdhg in any::<bool>(),
    ) {
        let lanes = [1usize, 2, 7][lane_pick];
        let (wan, scens) = fixture(use_ibm);
        let rwa = if pin_pdhg { pdhg_rwa() } else { RwaConfig::default() };
        let cuts: Vec<_> =
            (0..lanes).map(|i| scens[(start + i) % scens.len()].cut_fibers.as_slice()).collect();
        let outcome = batch_matches_sequential(wan, &cuts, &rwa);
        prop_assert!(outcome.is_ok(), "{:?}", outcome);
    }
}

/// The one real chunk that mixes backends: among the first 16
/// `facebook_like` scenarios one RWA LP crosses `auto_threshold` and goes
/// to PDHG beside fifteen simplex lanes (B4 and IBM never cross it).
#[test]
fn facebook_chunk_mixing_backends_matches_sequential() {
    let wan = facebook_like(17);
    let failures = generate_failures(&wan, &FailureConfig { cutoff: 1e-5, max_scenarios: 16 });
    let scens = failures.failure_scenarios();
    let cuts: Vec<_> = scens.iter().map(|s| s.cut_fibers.as_slice()).collect();
    assert_eq!(cuts.len(), 16);
    let rwa = RwaConfig::default();
    let threshold = rwa.solver.auto_threshold;
    let over = cuts
        .iter()
        .filter(|cut| build_relaxed(&wan.optical, cut, &rwa).model.num_cons() > threshold)
        .count();
    assert!(0 < over && over < cuts.len(), "{over} of 16 LPs route to PDHG: not a mixed chunk");
    batch_matches_sequential(&wan, &cuts, &rwa).expect("mixed-backend chunk");
}

/// The lane of that chunk `Auto` routes to PDHG, pinned: an RWA-shaped
/// matrix (the online pins in `determinism.rs` and arrow-te are TE-shaped).
/// Status, iteration and restart counts, `x` and dual bits. Recorded before
/// the PDHG iteration kernel changed; a change that claims to keep PDHG's
/// bits must leave the constant alone.
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
    let fold = |h: u64, v: u64| (h ^ v).wrapping_mul(0x100_0000_01b3);
    let mut h = fold(0xcbf2_9ce4_8422_2325, sol.status as u64);
    h = fold(fold(h, sol.stats.iterations as u64), sol.stats.restarts as u64);
    for values in [&sol.x, &sol.duals] {
        h = values.iter().fold(fold(h, values.len() as u64), |h, v| fold(h, v.to_bits()));
    }
    assert_eq!(
        h,
        0xd158_9372_e47a_7f15,
        "facebook_like PDHG lane moved: {h:#018x} ({} rows, {:?}, {} iterations, {} restarts)",
        model.num_cons(),
        sol.status,
        sol.stats.iterations,
        sol.stats.restarts
    );
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

/// Ticket digests are unchanged by batching: every worker count cuts the
/// universe into chunks of a different width (10 scenarios: 10, 5, 4, 3, 2,
/// 1 lanes), and each must reproduce the unbatched serial oracle.
#[test]
fn ticket_digests_unchanged_by_batching() {
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

/// Each shard of sharded, batched generation equals the serial oracle at
/// its global indices, byte for byte.
#[test]
fn batched_shards_match_sequential_reference() {
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

/// A batch whose lanes include a zero-cut scenario (empty LP) solves
/// cleanly and matches the sequential result.
#[test]
fn zero_cut_lane_in_batch_is_clean() {
    let (wan, scens) = fixture(false);
    let rwa = RwaConfig::default();
    let cuts: Vec<&[_]> = vec![&[], scens[0].cut_fibers.as_slice()];
    let sols = solve_relaxed_batch(&wan.optical, &cuts, &rwa);
    assert_eq!(sols.len(), 2);
    assert!(sols[0].links.is_empty());
    assert_eq!(sols[0].total_wavelengths, 0.0);
    let seq = solve_relaxed(&wan.optical, &scens[0].cut_fibers, &rwa);
    assert_eq!(format!("{seq:?}"), format!("{:?}", sols[1]));
}

/// Pinning the PDHG backend end-to-end through ticket generation still
/// yields identical digests batched vs the serial oracle.
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
    assert_eq!(a, b, "PDHG-pinned pipeline diverged under batching");
    assert_eq!(a.digest(), b.digest());
}
