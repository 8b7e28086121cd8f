//! Golden bit-pins of the exact simplex on real relaxed-RWA LPs.
//!
//! `lottery::round_once` rounds a fractional λ up or down on a one-sided
//! `frac > 1e-9` test, so an LP answer that moves by one ulp can send a
//! ticket down the other branch. These pins hold the simplex to its exact
//! pivot path and output bits on relaxed RWA LPs of the B4 and IBM
//! correlated universes, in two configurations:
//!
//! - `RwaConfig::default()` (no modulation change): the first scenarios of
//!   both universes and a stride through the rest of B4's, cold and
//!   warm-started from the returned basis (the `from_basis` path), and the
//!   `#[ignore]`d whole-universe fold of every one of those LPs, cold, into
//!   one digest per topology. These average ≈ 70 (B4) and ≈ 104 (IBM)
//!   pivots.
//! - `LotteryConfig::default().rwa` (modulation change allowed): the LPs
//!   the offline stage really solves, and the benchmark's `offline_b4` /
//!   `offline_ibm` time, at ≈ 145 and ≈ 372 pivots. `rwa_offline.*` holds
//!   B4 `s000`–`s003` and IBM `s000` cold and warm, and the `#[ignore]`d
//!   fold of all 484 B4 and 32 IBM of them.
//!
//! `rwa_models_are_pinned_bit_for_bit` holds the default-configuration LPs
//! themselves: the lowered standard form `build_relaxed` hands to the
//! solver, and `rwa_variant_models_are_pinned_bit_for_bit` the same form
//! under the offline stage's settings and Fig. 17's `allow_retuning:
//! false`, recorded before flat model rows and the counting-sort RWA build
//! landed. `bland_and_refactor_paths_are_pinned_bit_for_bit` holds the two
//! paths the default settings never reach on them: Bland's rule and a
//! refactorization mid-solve.
//!
//! The digests live in `tests/pins.txt` (groups `rwa_simplex`,
//! `rwa_simplex_bland`, `rwa_simplex_refactor1`, `rwa_universe`,
//! `rwa_offline`, `rwa_model`, `rwa_pdhg`). The first sixteen B4 and four
//! IBM LP pins were recorded before the slack-aware basis kernel landed,
//! the others before row-wise pricing and the packed inverse did, the
//! Bland and refactor pins before the branch-free pricing kernel did, and
//! the `rwa_offline` pins before the sparse pivot passes did; none may be
//! re-recorded by a change that claims to keep the bits.
//!
//! The PDHG pin does the same for the first-order backend on the largest of
//! those B4 LPs, cold and warm-started from the returned point; it was
//! recorded while the multi-RHS panel still shared the scaling code with
//! the one-LP path.

use arrow_wan::lp::model::StandardLp;
use arrow_wan::lp::simplex::SimplexConfig;
use arrow_wan::lp::{solve, solve_batch, solve_with, Solution, SolverConfig, Status};
use arrow_wan::obs::hash::{check_pins, word_fold, FNV1A_OFFSET};
use arrow_wan::optical::rwa::build_relaxed;
use arrow_wan::prelude::*;

/// The correlated universe the benchmark's offline workloads compile.
fn universe(wan: &Wan, max_scenarios: usize) -> ScenarioUniverse {
    compile_universe(
        wan,
        &UniverseConfig {
            max_k: 3,
            cutoff: 1e-5,
            auto_srlg_size: 3,
            auto_srlg_probability: 1e-3,
            maintenance_window: 2,
            maintenance_probability: 5e-4,
            flapping_count: 2,
            flapping_boost: 4.0,
            max_scenarios,
            ..Default::default()
        },
    )
}

/// The relaxed RWA model of scenario `i` under `RwaConfig::default()`.
fn rwa_model(wan: &Wan, universe: &ScenarioUniverse, i: usize) -> Model {
    rwa_model_with(wan, universe, i, &RwaConfig::default())
}

/// The relaxed RWA model of scenario `i` under `rwa`.
fn rwa_model_with(wan: &Wan, universe: &ScenarioUniverse, i: usize, rwa: &RwaConfig) -> Model {
    build_relaxed(&wan.optical, &universe.scenario(i).cut_fibers, rwa).model
}

/// The RWA settings the offline stage solves its scenario LPs with.
fn offline_rwa() -> RwaConfig {
    LotteryConfig::default().rwa
}

/// `rwa_simplex.<topology>.s<i>.{cold,warm}` of each of `scenarios` under
/// the exact simplex; the warm solve restarts from the cold solve's basis.
fn rwa_pins(
    topology: &str,
    wan: &Wan,
    universe: &ScenarioUniverse,
    scenarios: impl Iterator<Item = usize>,
) -> Vec<(String, u64)> {
    solve_pins("rwa_simplex", &RwaConfig::default(), topology, wan, universe, scenarios)
}

/// `<group>.<topology>.s<i>.{cold,warm}` of each of `scenarios`' LP built
/// under `rwa`, as [`rwa_pins`] solves them.
fn solve_pins(
    group: &str,
    rwa: &RwaConfig,
    topology: &str,
    wan: &Wan,
    universe: &ScenarioUniverse,
    scenarios: impl Iterator<Item = usize>,
) -> Vec<(String, u64)> {
    let cfg = SolverConfig::exact();
    let mut pins = Vec::new();
    for i in scenarios {
        let model = rwa_model_with(wan, universe, i, rwa);
        let cold = solve(&model, &cfg);
        let warm = solve_with(&model, &cfg, cold.warm_start().as_ref());
        let name = |run| format!("{group}.{topology}.s{i:03}.{run}");
        pins.extend([(name("cold"), cold.digest()), (name("warm"), warm.digest())]);
    }
    pins
}

/// [`word_fold`] of a lowered model: its shape, each row's length and
/// `(column, value bits)` entries, the senses, and the `rhs` / `lb` / `ub`
/// / `obj` bits.
fn standard_digest(lp: &StandardLp) -> u64 {
    let mut h = word_fold(word_fold(FNV1A_OFFSET, lp.a.rows() as u64), lp.a.cols() as u64);
    for i in 0..lp.a.rows() {
        h = word_fold(h, lp.a.row(i).count() as u64);
        h = lp.a.row(i).fold(h, |h, (c, v)| word_fold(word_fold(h, c as u64), v.to_bits()));
    }
    h = lp.senses.iter().fold(h, |h, &s| word_fold(h, s as u64));
    for values in [&lp.rhs, &lp.lb, &lp.ub, &lp.obj] {
        h = values.iter().fold(word_fold(h, values.len() as u64), |h, v| word_fold(h, v.to_bits()));
    }
    h
}

#[test]
fn b4_universe_rwa_lps_are_pinned_bit_for_bit() {
    let wan = b4(17);
    let universe = universe(&wan, 0);
    assert_eq!(universe.len(), 484);
    // Scenarios 0..16, then 16, 32, .., 480.
    let scenarios = (0..16).chain((16..universe.len()).step_by(16));
    check_pins(&rwa_pins("b4", &wan, &universe, scenarios)).unwrap();
}

#[test]
fn rwa_models_are_pinned_bit_for_bit() {
    let models = |topology: &str, wan: &Wan, universe: &ScenarioUniverse, count: usize| {
        (0..count)
            .map(|i| {
                let digest = standard_digest(&rwa_model(wan, universe, i).to_standard());
                (format!("rwa_model.{topology}.s{i:03}"), digest)
            })
            .collect::<Vec<_>>()
    };
    let (b4, ibm) = (b4(17), ibm(17));
    let got =
        [models("b4", &b4, &universe(&b4, 0), 16), models("ibm", &ibm, &universe(&ibm, 32), 4)];
    check_pins(&got.concat()).unwrap();
}

/// The lowered form under the two other configurations `build_relaxed`
/// serves: the offline stage's own (`rwa_model.offline.*`, modulation
/// change allowed) and Fig. 17's fixed-slot variant
/// (`rwa_model.no_retuning.*`, `allow_retuning: false`), each on B4
/// `s000`–`s003` and IBM `s000`, and folded over every scenario of both
/// universes (`*.universe.*`): without retuning the first scenarios'
/// LPs have at most three rows.
#[test]
fn rwa_variant_models_are_pinned_bit_for_bit() {
    let no_retuning = RwaConfig { allow_retuning: false, ..Default::default() };
    let variants = [("offline", offline_rwa()), ("no_retuning", no_retuning)];
    let (b4, ibm) = (b4(17), ibm(17));
    let lps = [("b4", &b4, universe(&b4, 0), 4), ("ibm", &ibm, universe(&ibm, 32), 1)];
    let mut pins = Vec::new();
    for (variant, rwa) in &variants {
        for (topology, wan, universe, first) in &lps {
            let digest = |i| standard_digest(&rwa_model_with(wan, universe, i, rwa).to_standard());
            let all = (0..universe.len()).map(digest);
            let fold = all.fold(word_fold(FNV1A_OFFSET, universe.len() as u64), word_fold);
            pins.push((format!("rwa_model.{variant}.universe.{topology}"), fold));
            for i in 0..*first {
                pins.push((format!("rwa_model.{variant}.{topology}.s{i:03}"), digest(i)));
            }
        }
    }
    check_pins(&pins).unwrap();
}

/// Every scenario LP of the B4 (484) and IBM (32) universes the
/// benchmark's offline workloads compile, cold, folded into one digest per
/// topology and configuration: `rwa_universe.*` under `RwaConfig::default()`
/// and `rwa_offline.universe.*` under the offline stage's own settings,
/// the LPs `offline_b4` / `offline_ibm` time. Too slow for the debug
/// `cargo test`; CI runs it `--release -- --ignored`.
#[test]
#[ignore = "whole universe: run with --release -- --ignored"]
fn whole_universe_rwa_lps_are_pinned_bit_for_bit() {
    let cfg = SolverConfig::exact();
    let fold_all = |wan: &Wan, universe: &ScenarioUniverse, rwa: &RwaConfig| {
        (0..universe.len()).fold(word_fold(FNV1A_OFFSET, universe.len() as u64), |h, i| {
            word_fold(h, solve(&rwa_model_with(wan, universe, i, rwa), &cfg).digest())
        })
    };
    let (b4, ibm) = (b4(17), ibm(17));
    let (b4_universe, ibm_universe) = (universe(&b4, 0), universe(&ibm, 32));
    let (default, offline) = (RwaConfig::default(), offline_rwa());
    check_pins(&[
        ("rwa_universe.b4", fold_all(&b4, &b4_universe, &default)),
        ("rwa_universe.ibm", fold_all(&ibm, &ibm_universe, &default)),
        ("rwa_offline.universe.b4", fold_all(&b4, &b4_universe, &offline)),
        ("rwa_offline.universe.ibm", fold_all(&ibm, &ibm_universe, &offline)),
    ])
    .unwrap();
}

/// The LPs the offline stage solves (`LotteryConfig::default().rwa`): B4
/// `s000`–`s003` and IBM `s000`, cold and warm from the cold basis.
#[test]
fn offline_rwa_lps_are_pinned_bit_for_bit() {
    let (b4, ibm) = (b4(17), ibm(17));
    let rwa = offline_rwa();
    let pins = [
        solve_pins("rwa_offline", &rwa, "b4", &b4, &universe(&b4, 0), 0..4),
        solve_pins("rwa_offline", &rwa, "ibm", &ibm, &universe(&ibm, 32), 0..1),
    ];
    check_pins(&pins.concat()).unwrap();
}

#[test]
fn largest_b4_rwa_lp_is_pinned_bit_for_bit_under_pdhg() {
    let wan = b4(17);
    let universe = universe(&wan, 0);
    let model = (0..16)
        .map(|i| rwa_model(&wan, &universe, i))
        .max_by_key(Model::num_cons)
        .expect("sixteen scenarios");
    let cfg = SolverConfig::first_order(1e-7);
    let cold = solve(&model, &cfg);
    let warm = solve_with(&model, &cfg, cold.warm_start().as_ref());
    check_pins(&[
        ("rwa_pdhg.b4_largest.cold", cold.digest()),
        ("rwa_pdhg.b4_largest.warm", warm.digest()),
    ])
    .unwrap();
}

/// The two paths the default configuration never takes on these LPs:
/// Bland's rule from the first pivot (`rwa_simplex_bland`) and a
/// refactorization after every pivot (`rwa_simplex_refactor1`), each on
/// B4 `s000`–`s003` and IBM `s000`, cold.
#[test]
fn bland_and_refactor_paths_are_pinned_bit_for_bit() {
    let (mut bland, mut refactor1) = (SimplexConfig::default(), SimplexConfig::default());
    bland.degenerate_before_bland = 0;
    refactor1.refactor_every = 1;
    let variants = [("bland", bland), ("refactor1", refactor1)];
    let (b4, ibm) = (b4(17), ibm(17));
    let lps = [("b4", &b4, universe(&b4, 0), 0..4), ("ibm", &ibm, universe(&ibm, 32), 0..1)];
    let mut pins = Vec::new();
    for (variant, simplex) in variants {
        let cfg = SolverConfig { simplex, ..SolverConfig::exact() };
        for (topology, wan, universe, scenarios) in &lps {
            for i in scenarios.clone() {
                let sol = solve(&rwa_model(wan, universe, i), &cfg);
                assert_eq!(sol.status, Status::Optimal, "{variant} {topology} s{i:03}");
                pins.push((format!("rwa_simplex_{variant}.{topology}.s{i:03}"), sol.digest()));
            }
        }
    }
    check_pins(&pins).unwrap();
}

/// `solve_batch` hands one simplex workspace from lane to lane. A solve
/// must not depend on what the one before it left there: every fourth B4
/// LP the offline stage solves, batched forward, then in reverse order with
/// IBM's first (larger) LP before each, give the digests of solving each
/// alone.
#[test]
fn reused_workspace_leaves_offline_lps_unchanged() {
    let (b4, ibm) = (b4(17), ibm(17));
    let (b4_universe, rwa, cfg) = (universe(&b4, 0), offline_rwa(), SolverConfig::exact());
    let models: Vec<Model> = (0..b4_universe.len())
        .step_by(4)
        .map(|i| rwa_model_with(&b4, &b4_universe, i, &rwa))
        .collect();
    let ibm_model = rwa_model_with(&ibm, &universe(&ibm, 32), 0, &rwa);
    let alone: Vec<u64> = models.iter().map(|m| solve(m, &cfg).digest()).collect();
    let forward: Vec<u64> = solve_batch(&models, &cfg).iter().map(Solution::digest).collect();
    let backward: Vec<&Model> = models.iter().rev().flat_map(|m| [&ibm_model, m]).collect();
    let mut backward: Vec<u64> =
        solve_batch(&backward, &cfg).iter().skip(1).step_by(2).map(Solution::digest).collect();
    backward.reverse();
    assert_eq!(forward, alone);
    assert_eq!(backward, alone);
}

#[test]
fn ibm_universe_rwa_lps_are_pinned_bit_for_bit() {
    let wan = ibm(17);
    check_pins(&rwa_pins("ibm", &wan, &universe(&wan, 32), 0..4)).unwrap();
}
