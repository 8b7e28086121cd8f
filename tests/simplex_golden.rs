//! Golden bit-pins of the exact simplex on real relaxed-RWA LPs.
//!
//! `lottery::round_once` rounds a fractional λ up or down on a one-sided
//! `frac > 1e-9` test, so an LP answer that moves by one ulp can send a
//! ticket down the other branch. These pins hold the simplex to its exact
//! pivot path and output bits on the LPs the offline stage really solves:
//! the first scenarios of the B4 and IBM correlated universes and a stride
//! through the rest of B4's, cold and warm-started from the returned basis
//! (the `from_basis` path). The `#[ignore]`d whole-universe pin folds every
//! one of those LPs, cold, into one digest per topology (≈ 2.5 s release).
//! `rwa_models_are_pinned_bit_for_bit` holds the LPs themselves: the
//! lowered standard form `build_relaxed` hands to the solver.
//! `bland_and_refactor_paths_are_pinned_bit_for_bit` holds the two paths
//! the default settings never reach on these LPs: Bland's rule and a
//! refactorization mid-solve.
//!
//! The digests live in `tests/pins.txt` (groups `rwa_simplex`,
//! `rwa_simplex_bland`, `rwa_simplex_refactor1`, `rwa_universe`,
//! `rwa_model`, `rwa_pdhg`). The first sixteen B4 and four IBM LP pins were
//! recorded before the slack-aware basis kernel landed, the others before
//! row-wise pricing and the packed inverse did, and the Bland and refactor
//! pins before the branch-free pricing kernel did; none may be re-recorded
//! by a change that claims to keep the bits.
//!
//! The PDHG pin does the same for the first-order backend on the largest of
//! those B4 LPs, cold and warm-started from the returned point; it was
//! recorded while the multi-RHS panel still shared the scaling code with
//! the one-LP path.

use arrow_wan::lp::model::StandardLp;
use arrow_wan::lp::simplex::SimplexConfig;
use arrow_wan::lp::{solve, solve_with, SolverConfig, Status};
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

/// The relaxed RWA model of scenario `i`, as the offline stage builds it.
fn rwa_model(wan: &Wan, universe: &ScenarioUniverse, i: usize) -> Model {
    build_relaxed(&wan.optical, &universe.scenario(i).cut_fibers, &RwaConfig::default()).model
}

/// `rwa_simplex.<topology>.s<i>.{cold,warm}` of each of `scenarios` under
/// the exact simplex; the warm solve restarts from the cold solve's basis.
fn rwa_pins(
    topology: &str,
    wan: &Wan,
    universe: &ScenarioUniverse,
    scenarios: impl Iterator<Item = usize>,
) -> Vec<(String, u64)> {
    let cfg = SolverConfig::exact();
    let mut pins = Vec::new();
    for i in scenarios {
        let model = rwa_model(wan, universe, i);
        let cold = solve(&model, &cfg);
        let warm = solve_with(&model, &cfg, cold.warm_start().as_ref());
        let name = |run| format!("rwa_simplex.{topology}.s{i:03}.{run}");
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

/// Every B4 (484) and IBM (32) scenario LP the benchmark's offline
/// workloads solve, cold, folded into one digest per topology. Too slow for
/// the debug `cargo test`; CI runs it `--release -- --ignored`.
#[test]
#[ignore = "whole universe: run with --release -- --ignored"]
fn whole_universe_rwa_lps_are_pinned_bit_for_bit() {
    let cfg = SolverConfig::exact();
    let fold_all = |wan: &Wan, universe: &ScenarioUniverse| {
        (0..universe.len()).fold(word_fold(FNV1A_OFFSET, universe.len() as u64), |h, i| {
            word_fold(h, solve(&rwa_model(wan, universe, i), &cfg).digest())
        })
    };
    let (b4, ibm) = (b4(17), ibm(17));
    check_pins(&[
        ("rwa_universe.b4", fold_all(&b4, &universe(&b4, 0))),
        ("rwa_universe.ibm", fold_all(&ibm, &universe(&ibm, 32))),
    ])
    .unwrap();
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

#[test]
fn ibm_universe_rwa_lps_are_pinned_bit_for_bit() {
    let wan = ibm(17);
    check_pins(&rwa_pins("ibm", &wan, &universe(&wan, 32), 0..4)).unwrap();
}
