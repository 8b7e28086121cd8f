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
//!
//! The first sixteen B4 and four IBM constants were recorded before the
//! slack-aware basis kernel landed, the others before row-wise pricing and
//! the packed inverse did; none may be re-recorded by a change that claims
//! to keep the bits.
//!
//! The PDHG pin at the bottom does the same for the first-order backend on
//! the largest of those B4 LPs, cold and warm-started from the returned
//! point; it was recorded while the multi-RHS panel still shared the
//! scaling code with the one-LP path.

use arrow_wan::lp::model::StandardLp;
use arrow_wan::lp::{solve, solve_with, Solution, SolverConfig, WarmStart};
use arrow_wan::optical::rwa::build_relaxed;
use arrow_wan::prelude::*;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

fn fold(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(FNV_PRIME)
}

/// FNV-1a fold of everything a consumer can read from a simplex solve:
/// status, pivot and refactorization counts, `x` and dual bit patterns
/// (`-0.0` folded as `+0.0`) and the basis snapshot.
fn solution_digest(sol: &Solution) -> u64 {
    let mut h = fold(FNV_OFFSET, sol.status as u64);
    h = fold(h, sol.stats.iterations as u64);
    h = fold(h, sol.stats.refactors as u64);
    for values in [&sol.x, &sol.duals] {
        h = values.iter().fold(fold(h, values.len() as u64), |h, v| fold(h, (v + 0.0).to_bits()));
    }
    let cols = sol.basis.as_ref().map_or(&[][..], |b| &b.cols);
    cols.iter().fold(fold(h, cols.len() as u64), |h, &c| fold(h, c as u64))
}

/// `(cold, warm)` digests of `model` under the exact simplex; the warm
/// solve restarts from the cold solve's own basis.
fn cold_and_warm(model: &Model) -> (u64, u64) {
    let cfg = SolverConfig::exact();
    let cold = solve(model, &cfg);
    let warm = match cold.basis.clone() {
        Some(basis) => solve_with(model, &cfg, Some(&WarmStart::from_basis(basis))),
        None => solve(model, &cfg),
    };
    (solution_digest(&cold), solution_digest(&warm))
}

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

fn rwa_digests(
    wan: &Wan,
    universe: &ScenarioUniverse,
    scenarios: impl Iterator<Item = usize>,
) -> Vec<(u64, u64)> {
    scenarios.map(|i| cold_and_warm(&rwa_model(wan, universe, i))).collect()
}

/// FNV-1a fold of a lowered model: its shape, each row's length and
/// `(column, value bits)` entries, the senses, and the `rhs` / `lb` / `ub`
/// / `obj` bits.
fn standard_digest(lp: &StandardLp) -> u64 {
    let mut h = fold(fold(FNV_OFFSET, lp.a.rows() as u64), lp.a.cols() as u64);
    for i in 0..lp.a.rows() {
        h = fold(h, lp.a.row(i).count() as u64);
        h = lp.a.row(i).fold(h, |h, (c, v)| fold(fold(h, c as u64), v.to_bits()));
    }
    h = lp.senses.iter().fold(h, |h, &s| fold(h, s as u64));
    for values in [&lp.rhs, &lp.lb, &lp.ub, &lp.obj] {
        h = values.iter().fold(fold(h, values.len() as u64), |h, v| fold(h, v.to_bits()));
    }
    h
}

fn assert_pinned<T: PartialEq + std::fmt::Debug>(what: &str, got: &[T], want: &[T]) {
    assert!(got == want, "{what}: bits moved; got\n{got:#018x?}\nwant\n{want:#018x?}");
}

#[test]
fn b4_universe_rwa_lps_are_pinned_bit_for_bit() {
    let wan = b4(17);
    let universe = universe(&wan, 0);
    assert_eq!(universe.len(), 484);
    assert_pinned("B4 scenarios 0..16", &rwa_digests(&wan, &universe, 0..16), B4_PINS);
    let strided = rwa_digests(&wan, &universe, (16..universe.len()).step_by(16));
    assert_pinned("B4 scenarios 16, 32, .., 480", &strided, B4_STRIDED_PINS);
}

#[test]
fn rwa_models_are_pinned_bit_for_bit() {
    let models = |wan: &Wan, universe: &ScenarioUniverse, count: usize| -> Vec<u64> {
        (0..count).map(|i| standard_digest(&rwa_model(wan, universe, i).to_standard())).collect()
    };
    let (b4, ibm) = (b4(17), ibm(17));
    assert_pinned("B4 models 0..16", &models(&b4, &universe(&b4, 0), 16), B4_MODEL_PINS);
    assert_pinned("IBM models 0..4", &models(&ibm, &universe(&ibm, 32), 4), IBM_MODEL_PINS);
}

/// Every B4 (484) and IBM (32) scenario LP the benchmark's offline
/// workloads solve, cold, folded into one digest per topology. Too slow for
/// the debug `cargo test`; CI runs it `--release -- --ignored`.
#[test]
#[ignore = "whole universe: run with --release -- --ignored"]
fn whole_universe_rwa_lps_are_pinned_bit_for_bit() {
    let cfg = SolverConfig::exact();
    let fold_all = |wan: &Wan, universe: &ScenarioUniverse| {
        (0..universe.len()).fold(fold(FNV_OFFSET, universe.len() as u64), |h, i| {
            fold(h, solution_digest(&solve(&rwa_model(wan, universe, i), &cfg)))
        })
    };
    let (b4, ibm) = (b4(17), ibm(17));
    let got = [fold_all(&b4, &universe(&b4, 0)), fold_all(&ibm, &universe(&ibm, 32))];
    assert_pinned("whole B4 and IBM universes", &got, &WHOLE_UNIVERSE_PINS);
}

/// FNV-1a fold of what a consumer reads from a PDHG solve: status,
/// iteration and restart counts, `x` and dual bit patterns (`-0.0` folded
/// as `+0.0`).
fn pdhg_digest(sol: &Solution) -> u64 {
    let mut h = fold(FNV_OFFSET, sol.status as u64);
    h = fold(h, sol.stats.iterations as u64);
    h = fold(h, sol.stats.restarts as u64);
    for values in [&sol.x, &sol.duals] {
        h = values.iter().fold(fold(h, values.len() as u64), |h, v| fold(h, (v + 0.0).to_bits()));
    }
    h
}

#[test]
fn largest_b4_rwa_lp_is_pinned_bit_for_bit_under_pdhg() {
    let wan = b4(17);
    let universe = universe(&wan, 0);
    let model = (0..16)
        .map(|i| {
            build_relaxed(&wan.optical, &universe.scenario(i).cut_fibers, &RwaConfig::default())
                .model
        })
        .max_by_key(Model::num_cons)
        .expect("sixteen scenarios");
    let cfg = SolverConfig::first_order(1e-7);
    let cold = solve(&model, &cfg);
    let point = cold.warm_start().expect("a converged PDHG solve returns its point");
    let warm = solve_with(&model, &cfg, Some(&point));
    assert_eq!(
        (pdhg_digest(&cold), pdhg_digest(&warm)),
        B4_PDHG_PIN,
        "PDHG bits moved ({} rows, {} + {} iterations)",
        model.num_cons(),
        cold.stats.iterations,
        warm.stats.iterations
    );
}

#[test]
fn ibm_universe_rwa_lps_are_pinned_bit_for_bit() {
    let wan = ibm(17);
    let got = rwa_digests(&wan, &universe(&wan, 32), 0..4);
    assert_pinned("IBM scenarios 0..4", &got, IBM_PINS);
}

const B4_PINS: &[(u64, u64)] = &[
    (0x25b6414b0c8d1b82, 0x69a90e830986e59b),
    (0x29a79cadea5af371, 0x5dae13460ebfbaef),
    (0x77a4305c73e8f0ce, 0x05c065504aab263a),
    (0x5c9062ae4e020d95, 0xd9b0a3af8a7ff33f),
    (0x69dff72c6bc3132e, 0x1bcd7599a797b17a),
    (0x06448c9c7ee428dc, 0x715f33e4d8c827c8),
    (0xe6ee0c6dc142696f, 0xc9405e72736fcdcb),
    (0x775c11be80423db5, 0x85e4d632382ee60b),
    (0xde87340867697adc, 0xabe5bb681690871b),
    (0x98628f3d2e7c8cf3, 0x4cca0d2ac1a4e12b),
    (0xb04b8aea26a11903, 0xdb0b12570cf06d55),
    (0x3dcb8d69da8bbff6, 0xd8163ec2d99a383d),
    (0x12489bff0bc08a5e, 0xc97b620a4d1b173a),
    (0xa29c57084e39837c, 0xb4ca4920b04988c8),
    (0xd1d3270bae91d9cd, 0x7da928ff505a4db5),
    (0x856bb68875327da0, 0x3e8eab007b76b4ad),
];

const IBM_PINS: &[(u64, u64)] = &[
    (0x62729bd943f5e27d, 0x3f30745ac292281f),
    (0x90463fed2c08eb59, 0x4dc0204e2375ad3a),
    (0x7fca80ea0102a21f, 0xfd264ec596ec54fe),
    (0x25f5e3d6403958b1, 0xcaa3c6987b648ad5),
];

const B4_STRIDED_PINS: &[(u64, u64)] = &[
    (0x8339ea619c0353be, 0x1823b1b389913a82),
    (0x8b5302abafa3e1e1, 0x7d172987a32cdf6e),
    (0x9464ab473406744f, 0x2fc7bbc05da7d149),
    (0xbe54e528cfcd59bb, 0x3a5a2065faa34e61),
    (0x6e790a1c8f3131d7, 0x2feadb2ab8584f22),
    (0x96dbaf2dca5d8f3f, 0x7704af4c03078b95),
    (0x5a380b88fc954ab1, 0x056800d5102666b8),
    (0x54795062a9c77732, 0xadee8f25a7eeb09e),
    (0xffd0850fcb7c3662, 0xf5b52ff21e63b254),
    (0x649b16e2bdbde3ab, 0x4dba49b45efedd4d),
    (0x37cf1aa836808ae0, 0x20a909d6ec0f1640),
    (0x8a4c08d502331608, 0x533a3141dffc9140),
    (0xe5941d85a1a7127f, 0x747957d30d84ac32),
    (0xf475d9cb24c54fbd, 0xee94b142d51e15ca),
    (0x6f28119f772b1720, 0x40e4327764eebe4b),
    (0x76abb3571273ce22, 0x41961862bab0eb7d),
    (0x52083c467a2f2485, 0xf67343397244fb9d),
    (0xccab1b2a8d19b4ec, 0xb2b30a9568bdd247),
    (0x06448c9c7ee428dc, 0x715f33e4d8c827c8),
    (0xd7e4fcfa299d713d, 0xd7e4fcfa299d713d),
    (0xdd3747e51d705c26, 0xba565569b483e04f),
    (0xbe54e528cfcd59bb, 0x3a5a2065faa34e61),
    (0xc6f3c8e67159a931, 0x6b0974837d2fe12c),
    (0x739b673ff730ca27, 0x8d34f9785e507921),
    (0x2dbb00f6694944c1, 0xba47d6876aa67e0f),
    (0x7e4047196d8c5ce2, 0x582902336b9cfb0b),
    (0x69dff72c6bc3132e, 0x1bcd7599a797b17a),
    (0xfb3dd3324035d5a2, 0xee795eb8e15b61cc),
    (0x2dd9a0a0e537e75a, 0x2ad0394564c8ae2e),
    (0x666eb9bc7363b429, 0x334499b7093948b8),
];

const B4_MODEL_PINS: &[u64] = &[
    0xacbd592f0d913382,
    0x0e9d44f4c4df3dc6,
    0xc76ae5f3457f2dfd,
    0x8b8a10da43906c6f,
    0xf6c92bc22d8f173f,
    0x11c0989e527782c8,
    0x39016e5f93e53f15,
    0xe13ba808e8c20d79,
    0x063185584b4fadb8,
    0xf8d1f346f41912e6,
    0xc61d63610c1f6d51,
    0x9944efc84e3bf9bd,
    0x242e7594f5484901,
    0x20c3f7f979b08b4b,
    0x81dba808e8c20d79,
    0x642860466ec5892d,
];

const IBM_MODEL_PINS: &[u64] =
    &[0xce180fd61cd27cc3, 0x307e213dd76103a6, 0xc4bfd2f85de72e09, 0x7680bad7cc4d7913];

const WHOLE_UNIVERSE_PINS: [u64; 2] = [0xfc16bd586dd36765, 0xdcaf4df5e0947fbf];

const B4_PDHG_PIN: (u64, u64) = (0xb234d2b82744f022, 0xda47848d16b64877);
