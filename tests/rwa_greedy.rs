//! The one greedy pass behind `RwaCut::greedy_assign` and
//! `RwaCut::is_feasible`, held to the route-building greedy it replaced.
//!
//! The reference below is that greedy as it stood, with its own copy of the
//! view's candidate paths, slot orders and restoration spectrum built from
//! public pieces. On every scenario of the B4 correlated universe the
//! offline workloads compile, under the offline stage's RWA settings and
//! under the defaults, twelve seeded target vectors (over-asks, partial
//! vectors, shuffled order, a target for a lightpath the cut spares) must
//! give the same routes, slots and Gbps, and the same feasibility answers.

use arrow_wan::optical::modulation::{max_gbps_for_length, LADDER, MAX_REACH_KM};
use arrow_wan::optical::rwa::{ExactAssignment, RwaCut};
use arrow_wan::optical::FiberPath;
use arrow_wan::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The correlated universe the benchmark's offline workloads compile.
fn universe(wan: &Wan) -> ScenarioUniverse {
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
            ..Default::default()
        },
    )
}

/// One affected lightpath's candidates: its paths, the Gbps each carries
/// a wavelength at, and its first-fit slot order.
type Candidate = (LightpathId, Vec<FiberPath>, Vec<f64>, Vec<usize>);

/// Reach of a datarate on the modulation ladder.
fn reach(gbps: f64) -> Option<f64> {
    LADDER.iter().find(|r| (r.gbps - gbps).abs() < 1e-9).map(|r| r.reach_km)
}

/// The view's candidates, recomputed: three shortest surrogate paths
/// within reach, kept where some modulation carries them.
fn candidates(net: &OpticalNetwork, cut: &[FiberId], cfg: &RwaConfig) -> Vec<Candidate> {
    let candidate = |id: LightpathId| {
        let lp = net.lightpath(id);
        let current = lp.gbps_per_wavelength;
        let cap = if cfg.allow_modulation_change {
            MAX_REACH_KM
        } else {
            reach(current).unwrap_or(MAX_REACH_KM)
        };
        let (mut paths, mut gbps) = (Vec::new(), Vec::new());
        for p in k_shortest_paths(net, lp.src, lp.dst, 3, cut, cap) {
            let usable = if reach(current).is_some_and(|r| p.length_km <= r) {
                Some(current)
            } else if cfg.allow_modulation_change {
                max_gbps_for_length(p.length_km).map(|g| g.min(current))
            } else {
                None
            };
            if let Some(g) = usable {
                paths.push(p);
                gbps.push(g);
            }
        }
        let rest = (0..net.num_slots()).filter(|w| cfg.allow_retuning && !lp.slots.contains(w));
        (id, paths, gbps, lp.slots.iter().copied().chain(rest).collect())
    };
    net.affected_lightpaths(cut).into_iter().map(candidate).collect()
}

/// The route-building greedy first-fit assignment as it stood.
fn reference_greedy(
    net: &OpticalNetwork,
    cut: &[FiberId],
    cfg: &RwaConfig,
    targets: Option<&[(LightpathId, usize)]>,
) -> Vec<ExactAssignment> {
    let mut masks = net.restoration_spectrum(cut, &net.affected_lightpaths(cut));
    let mut out = Vec::new();
    for (id, paths, gbps, order) in candidates(net, cut, cfg) {
        let lost = net.lightpath(id).wavelength_count();
        let want = targets
            .and_then(|t| t.iter().find(|(tid, _)| *tid == id).map(|&(_, n)| n))
            .unwrap_or(lost)
            .min(lost);
        let mut assigned = 0usize;
        let mut routes: Vec<(FiberPath, Vec<usize>)> = Vec::new();
        let mut route_gbps = Vec::new();
        for (path, &g) in paths.iter().zip(&gbps) {
            if assigned >= want {
                break;
            }
            let mut slots = Vec::new();
            for &w in &order {
                if assigned >= want {
                    break;
                }
                if path.fibers.iter().all(|&f| masks[f.0].is_free(w)) {
                    for &f in &path.fibers {
                        masks[f.0].occupy(w);
                    }
                    slots.push(w);
                    assigned += 1;
                }
            }
            if !slots.is_empty() {
                routes.push((path.clone(), slots));
                route_gbps.push(g);
            }
        }
        out.push(ExactAssignment { lightpath: id, routes, route_gbps });
    }
    out
}

/// The feasibility filter as it stood: every target met by the greedy.
fn reference_is_feasible(
    net: &OpticalNetwork,
    cut: &[FiberId],
    cfg: &RwaConfig,
    targets: &[(LightpathId, usize)],
) -> bool {
    let assignments = reference_greedy(net, cut, cfg, Some(targets));
    targets.iter().all(|&(id, want)| {
        assignments.iter().find(|a| a.lightpath == id).is_some_and(|a| a.wavelengths() >= want)
    })
}

/// A route's fibers, length bits and slots.
type RouteFields = (Vec<FiberId>, u64, Vec<usize>);

/// Every field of an assignment list, floats as bits.
fn fields(assignments: &[ExactAssignment]) -> Vec<(usize, Vec<RouteFields>, Vec<u64>)> {
    let route =
        |(p, s): &(FiberPath, Vec<usize>)| (p.fibers.clone(), p.length_km.to_bits(), s.clone());
    let assignment = |a: &ExactAssignment| {
        let gbps = a.route_gbps.iter().map(|g| g.to_bits()).collect();
        (a.lightpath.0, a.routes.iter().map(route).collect(), gbps)
    };
    assignments.iter().map(assignment).collect()
}

/// Twelve target vectors for the affected lightpaths of one scenario:
/// counts up to one over what a link lost, down to at most one; about one
/// link in eight left out; the order shuffled; and every sixth vector also
/// names a lightpath the cut spares.
fn target_vectors(
    net: &OpticalNetwork,
    cut: &[FiberId],
    seed: u64,
) -> Vec<Vec<(LightpathId, usize)>> {
    let affected = net.affected_lightpaths(cut);
    let spared = (0..net.lightpaths().len()).map(LightpathId).find(|id| !affected.contains(id));
    let mut rng = StdRng::seed_from_u64(seed);
    (0..12)
        .map(|v| {
            let mut targets = Vec::new();
            for &id in &affected {
                let lost = net.lightpath(id).wavelength_count();
                let top = [lost + 1, lost, lost / 2, 1][v % 4];
                if rng.gen_range(0..8) != 0 {
                    targets.push((id, rng.gen_range(0..=top)));
                }
            }
            if v % 6 == 5 {
                targets.extend(spared.map(|id| (id, 0)));
            }
            for i in (1..targets.len()).rev() {
                targets.swap(i, rng.gen_range(0..=i));
            }
            targets
        })
        .collect()
}

#[test]
fn shared_greedy_pass_matches_the_route_building_greedy_on_b4() {
    let wan = b4(17);
    let universe = universe(&wan);
    assert_eq!(universe.len(), 484);
    let net = &wan.optical;
    let (mut feasible, mut infeasible) = (0, 0);
    for rwa in [LotteryConfig::default().rwa, RwaConfig::default()] {
        for i in 0..universe.len() {
            let cut = &universe.scenario(i).cut_fibers;
            let view = RwaCut::new(net, cut, &rwa);
            let all = reference_greedy(net, cut, &rwa, None);
            assert_eq!(fields(&view.greedy_assign(None)), fields(&all), "s{i:03} uncapped");
            for (v, targets) in target_vectors(net, cut, i as u64).iter().enumerate() {
                let want = reference_greedy(net, cut, &rwa, Some(targets));
                let got = view.greedy_assign(Some(targets));
                assert_eq!(fields(&got), fields(&want), "s{i:03} vector {v}");
                let fits = reference_is_feasible(net, cut, &rwa, targets);
                assert_eq!(view.is_feasible(targets), fits, "s{i:03} vector {v}: {targets:?}");
                if fits {
                    feasible += 1;
                } else {
                    infeasible += 1;
                }
            }
        }
    }
    assert!(feasible >= 2000 && infeasible >= 2000, "{feasible} feasible, {infeasible} not");
}
