//! Determinism regression tests for the parallel offline stage.
//!
//! The contract (see `LotteryConfig::seed` and `par`): ticket generation
//! depends only on `(seed, scenario, scenario_index, config)` — never on
//! the worker-thread count or scheduling. These tests pin
//! `generate_tickets` at 1, 2, and N threads against the documented serial
//! reference `generate_tickets_serial`.

use arrow_core::lottery::{
    derive_seed, generate_tickets, generate_tickets_serial, generate_tickets_shard,
    generate_tickets_with_threads, LotteryConfig, ShardSpec,
};
use arrow_core::{ArrowController, ControllerConfig};
use arrow_lp::{Backend, SolverConfig};
use arrow_obs::hash::{check_pins, word_fold, FNV1A_OFFSET};
use arrow_te::{TicketSet, TunnelConfig};
use arrow_topology::{
    b4, compile_universe, generate_failures, gravity_matrices, ibm, FailureConfig, FailureScenario,
    ScenarioUniverse, Snapshot, TrafficConfig, UniverseConfig, Wan,
};

fn setup(max_scenarios: usize) -> (Wan, Vec<FailureScenario>) {
    let wan = b4(17);
    let failures = generate_failures(&wan, &FailureConfig { max_scenarios, ..Default::default() });
    (wan, failures.failure_scenarios())
}

#[test]
fn ticket_sets_identical_across_thread_counts() {
    let (wan, scens) = setup(8);
    let cfg = LotteryConfig { num_tickets: 10, ..Default::default() };
    let reference = generate_tickets_serial(&wan, &scens, &cfg);

    // The reference itself must be non-trivial or the test proves nothing.
    assert_eq!(reference.per_scenario.len(), scens.len());
    assert!(reference.total_tickets() > scens.len(), "want multiple tickets somewhere");

    for threads in [1, 2, 3, 4, 8, 32] {
        let (set, stats) = generate_tickets_with_threads(&wan, &scens, &cfg, threads);
        assert_eq!(set, reference, "TicketSet diverged at {threads} threads");
        assert_eq!(set.digest(), reference.digest(), "digest diverged at {threads} threads");
        assert_eq!(stats.per_scenario.len(), scens.len());
        assert_eq!(stats.total_kept(), set.total_tickets());
    }

    // The default entry point (pool sized by the environment) agrees too.
    assert_eq!(generate_tickets(&wan, &scens, &cfg).0, reference);
}

#[test]
fn ticket_sets_identical_across_thread_counts_on_ibm() {
    // IBM's denser surrogate-path structure once exposed a hash-order
    // dependence in the relaxed RWA (constraint rows emitted in HashMap
    // order, now a BTreeMap) that B4 never tripped — keep both topologies
    // in the regression.
    let wan = ibm(17);
    let failures =
        generate_failures(&wan, &FailureConfig { max_scenarios: 8, ..Default::default() });
    let scens = failures.failure_scenarios();
    let cfg = LotteryConfig { num_tickets: 12, ..Default::default() };
    let reference = generate_tickets_serial(&wan, &scens, &cfg);
    for threads in [2, 4, 8] {
        let (set, _) = generate_tickets_with_threads(&wan, &scens, &cfg, threads);
        assert_eq!(set, reference, "TicketSet diverged at {threads} threads");
    }
}

#[test]
fn repeated_runs_are_bitwise_stable() {
    let (wan, scens) = setup(5);
    let cfg = LotteryConfig { num_tickets: 6, ..Default::default() };
    let (a, _) = generate_tickets(&wan, &scens, &cfg);
    let (b, _) = generate_tickets(&wan, &scens, &cfg);
    assert_eq!(a, b);
    assert_eq!(a.digest(), b.digest());
}

#[test]
fn seed_changes_the_tickets() {
    let (wan, scens) = setup(5);
    let base = LotteryConfig { num_tickets: 10, feasibility_filter: false, ..Default::default() };
    let other = LotteryConfig { seed: base.seed + 1, ..base.clone() };
    let (a, _) = generate_tickets(&wan, &scens, &base);
    let (b, _) = generate_tickets(&wan, &scens, &other);
    assert_ne!(a.digest(), b.digest(), "different master seeds should explore differently");
}

#[test]
fn derived_seeds_are_distinct_per_scenario() {
    // Not a statistical test — just that the per-scenario streams cannot
    // collide for any realistic scenario count.
    let mut seen = std::collections::HashSet::new();
    for idx in 0..10_000u64 {
        assert!(seen.insert(derive_seed(41, idx)), "seed collision at scenario {idx}");
    }
    assert_ne!(derive_seed(41, 0), derive_seed(42, 0));
}

#[test]
fn relaxed_rwa_is_stable_across_runs_and_threads() {
    // The relaxed RWA feeds ticket generation; its LP rows must be emitted
    // in a fixed order (BTreeMap, not HashMap) or solutions drift between
    // processes. `Debug` for f64 round-trips, so equal renderings mean
    // bitwise-equal solutions.
    use arrow_optical::rwa::{solve_relaxed, RwaConfig};
    use arrow_optical::FiberId;
    let wan = ibm(17);
    let cfg = RwaConfig::default();
    let cuts: Vec<FiberId> = (0..wan.optical.num_fibers().min(6)).map(FiberId).collect();
    let reference: Vec<String> =
        cuts.iter().map(|&f| format!("{:?}", solve_relaxed(&wan.optical, &[f], &cfg))).collect();
    // Repeated in-process runs.
    for (i, &f) in cuts.iter().enumerate() {
        assert_eq!(
            format!("{:?}", solve_relaxed(&wan.optical, &[f], &cfg)),
            reference[i],
            "RWA solution drifted on repeat for fiber {f:?}"
        );
    }
    // Concurrent runs on fresh threads (a thread-seeded hash order would
    // diverge here even when repeats in one thread agree).
    let handles: Vec<_> = cuts
        .iter()
        .map(|&f| {
            let net = wan.optical.clone();
            let cfg = cfg.clone();
            std::thread::spawn(move || format!("{:?}", solve_relaxed(&net, &[f], &cfg)))
        })
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        assert_eq!(h.join().unwrap(), reference[i], "RWA solution diverged across threads");
    }
}

/// A small correlated universe on IBM for the shard contract test.
fn ibm_universe() -> (Wan, ScenarioUniverse) {
    let wan = ibm(17);
    let uni = compile_universe(
        &wan,
        &UniverseConfig {
            max_k: 2,
            cutoff: 1e-4,
            auto_srlg_size: 3,
            auto_srlg_probability: 1e-3,
            maintenance_window: 2,
            maintenance_probability: 5e-4,
            max_scenarios: 10,
            ..Default::default()
        },
    );
    assert!(uni.len() >= 6, "universe too small to exercise sharding: {}", uni.len());
    (wan, uni)
}

/// Shard `index` of every `of`-way split owns exactly
/// `ShardSpec::indices(n)`, and its entry for global scenario `g` equals
/// `whole`'s entry `g`, byte for byte.
fn assert_shards_match(
    wan: &Wan,
    uni: &ScenarioUniverse,
    cfg: &LotteryConfig,
    of: usize,
    whole: &TicketSet,
) {
    for index in 0..of {
        let spec = ShardSpec { index, of };
        let (shard, _) = generate_tickets_shard(wan, uni, cfg, spec);
        assert_eq!(shard.scenario_indices, spec.indices(uni.len()), "{of}-way shard {index}");
        for (&g, tickets) in shard.scenario_indices.iter().zip(&shard.per_scenario) {
            assert_eq!(tickets, &whole.per_scenario[g], "{of}-way shard {index}, scenario {g}");
        }
    }
}

#[test]
fn sharded_generation_matches_unsharded_bitwise_on_ibm() {
    // The shard contract: for any shard count, each independently
    // generated shard reproduces the serial reference's entries byte for
    // byte — scenario RNG streams key off *global* universe indices, so
    // the shard layout is invisible in the output.
    let (wan, uni) = ibm_universe();
    let cfg = LotteryConfig { num_tickets: 6, ..Default::default() };
    let full = generate_tickets_serial(&wan, &uni.failure_scenarios(), &cfg);
    let (whole, _) = generate_tickets_shard(&wan, &uni, &cfg, ShardSpec::whole());
    assert!(whole.is_full(), "single-shard run must cover 0..n in order");
    assert_eq!(whole, full, "single-shard run diverged from the serial reference");
    assert_eq!(full.per_scenario.len(), uni.len());
    for of in [2usize, 3, 7] {
        assert_shards_match(&wan, &uni, &cfg, of, &full);
    }
}

/// The B4 offline stage, pinned: universe digest, ticket-set digest and
/// kept-ticket count on a 64-scenario correlated universe, and the same
/// set from the unsharded run, both halves of a 2-way split and the serial
/// oracle. A changed digest means every downstream figure was produced
/// from different tickets — re-pin only with a reason. A WAN reloaded from its
/// snapshot (spectrum and adjacency rebuilt by the decoder, not read) must
/// hold the same pins.
#[test]
fn b4_universe_and_ticket_digests_are_pinned_bit_for_bit() {
    let built = b4(17);
    let failures = generate_failures(&built, &FailureConfig::default());
    let snapshot = Snapshot { wan: built.clone(), traffic: Vec::new(), failures };
    let reloaded = Snapshot::from_json(&snapshot.to_json()).expect("own snapshot reloads").wan;
    for wan in [built, reloaded] {
        assert_b4_pins(&wan);
    }
}

fn assert_b4_pins(wan: &Wan) {
    let uni = compile_universe(
        wan,
        &UniverseConfig {
            max_k: 3,
            cutoff: 1e-5,
            auto_srlg_size: 3,
            auto_srlg_probability: 1e-3,
            maintenance_window: 2,
            maintenance_probability: 5e-4,
            max_scenarios: 64,
            ..Default::default()
        },
    );
    assert_eq!(uni.len(), 64);

    let cfg = LotteryConfig { num_tickets: 6, ..Default::default() };
    let (whole, stats) = generate_tickets_shard(wan, &uni, &cfg, ShardSpec::whole());
    assert!(whole.is_full());
    check_pins(&[("universe.b4_64", uni.digest()), ("tickets.b4_64", whole.digest())]).unwrap();
    assert_eq!(stats.total_kept(), 354);

    assert_shards_match(wan, &uni, &cfg, 2, &whole);
    let serial = generate_tickets_serial(wan, &uni.failure_scenarios(), &cfg);
    assert_eq!(serial, whole, "parallel run diverged from the serial oracle");
}

/// The benchmark's own online model (`perf/benches/online.rs::controller`:
/// B4, 4 scenarios × 40 tickets, 4 tunnels per flow, demand ×3, PDHG),
/// pinned: one cold `plan_epoch` and the warm epoch after it at ×0.97, each
/// folding the winners, the allocation bits and both phases' iteration and
/// restart counts. Recorded before the PDHG iteration kernel changed; a
/// change that claims to keep PDHG's bits must leave the constants alone.
#[test]
fn b4_online_epochs_are_pinned_bit_for_bit_under_pdhg() {
    let wan = b4(17);
    let failures =
        generate_failures(&wan, &FailureConfig { max_scenarios: 4, ..Default::default() });
    let base_tm = gravity_matrices(&wan, &TrafficConfig { num_matrices: 1, ..Default::default() })
        [0]
    .scaled(3.0);
    let mut ctl = ArrowController::new(
        wan,
        failures.failure_scenarios(),
        ControllerConfig {
            lottery: LotteryConfig { num_tickets: 40, ..Default::default() },
            tunnels: TunnelConfig { tunnels_per_flow: 4, ..Default::default() },
            solver: SolverConfig { backend: Backend::Pdhg, ..Default::default() },
            ..Default::default()
        },
    );
    let digests = [1.0, 0.97].map(|scale| {
        let (plan, report) = ctl.plan_epoch(&base_tm.scaled(scale), None).expect("B4 plans");
        assert_eq!(report.warm, scale != 1.0);
        let out = &plan.outcome;
        let mut h = out.winning.iter().fold(FNV1A_OFFSET, |h, &w| word_fold(h, w as u64));
        for values in [&out.output.alloc.b, &out.output.alloc.a] {
            let bits = values.iter().map(|v| v.to_bits());
            h = bits.fold(word_fold(h, values.len() as u64), word_fold);
        }
        for stats in [out.phase1_stats, out.phase2_stats] {
            h = word_fold(word_fold(h, stats.iterations as u64), stats.restarts as u64);
        }
        h
    });
    check_pins(&[
        ("online_epoch.b4_pdhg.cold", digests[0]),
        ("online_epoch.b4_pdhg.warm", digests[1]),
    ])
    .unwrap();
}

/// The failure scenarios `generate_failures` hands every golden, the daemon
/// and the CLI, pinned: each row folds the cut sets in order and, for a
/// capped list, every probability's bits. Uncapped lists fold cut sets and
/// order only, since their double cuts may move in the last bit when the
/// enumeration changes. A moved row means every figure built on it saw
/// different scenarios.
#[test]
fn generated_scenarios_are_pinned_bit_for_bit() {
    let pin = |topology: &str, wan: &Wan, cutoff: f64, max_scenarios: usize| {
        let failures = generate_failures(wan, &FailureConfig { cutoff, max_scenarios });
        let scens = failures.failure_scenarios();
        let mut h = word_fold(FNV1A_OFFSET, scens.len() as u64);
        for s in scens.iter() {
            let cuts = s.cut_fibers.iter().map(|f| f.0 as u64);
            h = cuts.fold(word_fold(h, s.cut_fibers.len() as u64), word_fold);
            if max_scenarios > 0 {
                h = word_fold(h, s.probability.to_bits());
            }
        }
        let cap = if max_scenarios == 0 { "all".into() } else { format!("cap{max_scenarios:02}") };
        (format!("scenarios.{topology}.{cap}"), h)
    };
    let (b4, ibm, fb) = (b4(17), ibm(17), arrow_topology::facebook_like(17));
    let mut got = Vec::new();
    for (topology, wan) in [("b4", &b4), ("ibm", &ibm)] {
        got.extend([4, 5, 6, 8, 10, 12, 0].map(|cap| pin(topology, wan, 1e-3, cap)));
    }
    got.extend([5, 0].map(|cap| pin("facebook_like", &fb, 2e-4, cap)));
    check_pins(&got).unwrap();
}

#[test]
fn scenario_tickets_do_not_depend_on_neighbours() {
    // Dropping a scenario from the slice must not change the tickets of
    // the scenarios that keep their indices (prefix stability) — this is
    // what makes parallel scheduling irrelevant.
    let (wan, scens) = setup(6);
    let cfg = LotteryConfig { num_tickets: 8, ..Default::default() };
    let full = generate_tickets_serial(&wan, &scens, &cfg);
    let prefix = generate_tickets_serial(&wan, &scens[..4], &cfg);
    assert_eq!(&full.per_scenario[..4], &prefix.per_scenario[..]);
}
