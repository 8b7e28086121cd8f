//! Golden bit-pins of the exact simplex on real relaxed-RWA LPs.
//!
//! `lottery::round_once` rounds a fractional λ up or down on a one-sided
//! `frac > 1e-9` test, so an LP answer that moves by one ulp can send a
//! ticket down the other branch. These pins hold the simplex to its exact
//! pivot path and output bits on the LPs the offline stage really solves:
//! the first scenarios of the B4 and IBM correlated universes, cold and
//! warm-started from the returned basis (the `from_basis` path).
//!
//! The constants were recorded before the slack-aware basis kernel landed
//! and must never be re-recorded by a change that claims to keep the bits.
//!
//! The PDHG pin at the bottom does the same for the first-order backend on
//! the largest of those B4 LPs, cold and warm-started from the returned
//! point; it was recorded while the multi-RHS panel still shared the
//! scaling code with the one-LP path.

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

fn rwa_digests(wan: &Wan, universe: &ScenarioUniverse, count: usize) -> Vec<(u64, u64)> {
    (0..count)
        .map(|i| {
            let cut = &universe.scenario(i).cut_fibers;
            cold_and_warm(&build_relaxed(&wan.optical, cut, &RwaConfig::default()).model)
        })
        .collect()
}

fn assert_pinned(what: &str, got: &[(u64, u64)], want: &[(u64, u64)]) {
    let render = |d: &[(u64, u64)]| {
        d.iter().map(|(c, w)| format!("    ({c:#018x}, {w:#018x}),\n")).collect::<String>()
    };
    assert!(got == want, "{what}: simplex bits moved; got\n{}want\n{}", render(got), render(want));
}

#[test]
fn b4_universe_rwa_lps_are_pinned_bit_for_bit() {
    let wan = b4(17);
    let got = rwa_digests(&wan, &universe(&wan, 0), 16);
    assert_pinned("B4 scenarios 0..16", &got, B4_PINS);
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
    let got = rwa_digests(&wan, &universe(&wan, 32), 4);
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

const B4_PDHG_PIN: (u64, u64) = (0xb234d2b82744f022, 0xda47848d16b64877);
