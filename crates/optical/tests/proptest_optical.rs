//! Property-based tests of the optical substrate on random networks.

use arrow_optical::{
    greedy_assign, k_shortest_paths, solve_relaxed, FiberId, Lightpath, OpticalNetwork, RoadmId,
    RwaConfig, SpectrumMask,
};
use proptest::prelude::*;

/// A random connected network: a ring of `n` ROADMs plus `extra` chords,
/// with `lps` random single-slot lightpaths provisioned first-fit.
fn random_net(n: usize, extra: &[(usize, usize)], lps: &[(usize, usize)]) -> OpticalNetwork {
    let mut net = OpticalNetwork::new(16);
    let r = net.add_roadms(n);
    for i in 0..n {
        net.add_fiber(r[i], r[(i + 1) % n], 200.0 + 50.0 * (i as f64 % 3.0)).unwrap();
    }
    for &(a, b) in extra {
        let (a, b) = (a % n, b % n);
        if a != b {
            net.add_fiber(r[a], r[b], 400.0).unwrap();
        }
    }
    for &(a, b) in lps {
        let (a, b) = (a % n, b % n);
        if a == b {
            continue;
        }
        if let Some(p) = arrow_optical::shortest_path(&net, r[a], r[b], &[], &[]) {
            // First free slot end-to-end.
            if let Some(w) =
                (0..16).find(|&w| p.fibers.iter().all(|&f| net.fiber(f).spectrum.is_free(w)))
            {
                net.provision(Lightpath {
                    src: r[a],
                    dst: r[b],
                    path: p.fibers,
                    slots: vec![w],
                    gbps_per_wavelength: 100.0,
                })
                .unwrap();
            }
        }
    }
    net
}

/// The brute-force oracle: pushes the length of every simple path from
/// the last ROADM of `walk` to `dst` over unbanned fibers, by depth-first
/// search.
fn simple_path_lengths(
    net: &OpticalNetwork,
    dst: RoadmId,
    banned: &[FiberId],
    walk: &mut Vec<RoadmId>,
    length: f64,
    out: &mut Vec<f64>,
) {
    let at = walk[walk.len() - 1];
    if at == dst {
        out.push(length);
        return;
    }
    for (id, fiber) in net.fibers().iter().enumerate() {
        if banned.contains(&FiberId(id)) || !fiber.touches(at) {
            continue;
        }
        let next = fiber.other_end(at);
        if !walk.contains(&next) {
            walk.push(next);
            simple_path_lengths(net, dst, banned, walk, length + fiber.length_km, out);
            walk.pop();
        }
    }
}

proptest! {
    // Graphs of at most 7 ROADMs: cheap enough to enumerate every path.
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// Yen's paths are the k shortest simple paths: on small random graphs
    /// with parallel fibers, integer lengths (so ties are common), banned
    /// fibers and a length cap, `k_shortest_paths` returns
    /// min(k, paths within the cap) distinct loop-free paths in ascending
    /// order whose lengths are the k smallest of a brute-force enumeration.
    /// (`cap` 0 stands for no cap.)
    #[test]
    fn ksp_invariants(
        n in 1usize..8,
        fibers in proptest::collection::vec((0usize..7, 0usize..7, 1u8..5, any::<bool>()), 0..14),
        src in 0usize..7,
        dst in 0usize..7,
        k in 0usize..8,
        cap in 0u8..16,
    ) {
        let mut net = OpticalNetwork::new(1);
        let r = net.add_roadms(n);
        let mut banned = Vec::new();
        for &(a, b, len, ban) in &fibers {
            let f = net.add_fiber(r[a % n], r[b % n], f64::from(len)).unwrap();
            if ban {
                banned.push(f);
            }
        }
        let (src, dst) = (r[src % n], r[dst % n]);
        let cap = if cap == 0 { f64::INFINITY } else { f64::from(cap) };
        let mut lengths = Vec::new();
        simple_path_lengths(&net, dst, &banned, &mut vec![src], 0.0, &mut lengths);
        lengths.retain(|&l| l <= cap);
        lengths.sort_by(f64::total_cmp);
        lengths.truncate(k);
        let paths = k_shortest_paths(&net, src, dst, k, &banned, cap);
        let got: Vec<f64> = paths.iter().map(|p| p.length_km).collect();
        prop_assert_eq!(got, lengths);
        for (i, p) in paths.iter().enumerate() {
            prop_assert!(paths[..i].iter().all(|q| q.fibers != p.fibers), "duplicate path");
            // Walk: no banned fiber, no repeated ROADM, ends at `dst`.
            let mut at = src;
            let mut seen = vec![at];
            for &f in &p.fibers {
                prop_assert!(!banned.contains(&f), "banned fiber used");
                at = net.fiber(f).other_end(at);
                prop_assert!(!seen.contains(&at), "loop in path");
                seen.push(at);
            }
            prop_assert_eq!(at, dst);
            prop_assert_eq!(net.path_length_km(&p.fibers), p.length_km);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The relaxed RWA never restores more wavelengths than were lost, and
    /// the greedy exact assignment never exceeds the LP relaxation's
    /// optimum (integral ≤ fractional) on a per-scenario total basis.
    #[test]
    fn rwa_relaxation_dominates_greedy(
        n in 4usize..8,
        extra in proptest::collection::vec((0usize..8, 0usize..8), 0..3),
        lps in proptest::collection::vec((0usize..8, 0usize..8), 1..10),
        cut in 0usize..8,
    ) {
        let net = random_net(n, &extra, &lps);
        let cut = arrow_optical::FiberId(cut % net.num_fibers());
        if net.affected_lightpaths(&[cut]).is_empty() {
            return Ok(());
        }
        let cfg = RwaConfig { allow_modulation_change: true, ..Default::default() };
        let relaxed = solve_relaxed(&net, &[cut], &cfg);
        let exact = greedy_assign(&net, &[cut], &cfg, None);
        let lost: usize = relaxed.links.iter().map(|l| l.lost_wavelengths).sum();
        let frac: f64 = relaxed.total_wavelengths;
        let integral: usize = exact.iter().map(|a| a.wavelengths()).sum();
        prop_assert!(frac <= lost as f64 + 1e-6, "restored more than lost");
        prop_assert!(integral as f64 <= frac + 1e-4,
            "greedy {integral} beat the LP bound {frac}");
    }

    /// Spectrum masks: occupy/release round-trip and counting laws hold for
    /// arbitrary operation sequences.
    #[test]
    fn spectrum_counting_laws(ops in proptest::collection::vec((0usize..64, any::<bool>()), 0..80)) {
        let mut mask = SpectrumMask::new(64);
        let mut model = std::collections::HashSet::new();
        for (w, occupy) in ops {
            if occupy {
                let changed = mask.occupy(w);
                prop_assert_eq!(changed, model.insert(w));
            } else {
                let changed = mask.release(w);
                prop_assert_eq!(changed, model.remove(&w));
            }
        }
        prop_assert_eq!(mask.occupied_count(), model.len());
        prop_assert_eq!(mask.free_count(), 64 - model.len());
        prop_assert_eq!(mask.occupied_slots().count(), model.len());
    }

    /// Provisioning is transactional: a slot collision leaves no partial
    /// occupancy behind.
    #[test]
    fn provision_is_transactional(
        n in 4usize..8,
        lps in proptest::collection::vec((0usize..8, 0usize..8), 1..8),
    ) {
        let mut net = random_net(n, &[], &lps);
        let before: Vec<usize> =
            net.fibers().iter().map(|f| f.spectrum.occupied_count()).collect();
        // Try to provision over an occupied slot (slot of first lightpath).
        if let Some(lp0) = net.lightpaths().first().cloned() {
            let clash = Lightpath {
                src: lp0.src,
                dst: lp0.dst,
                path: lp0.path.clone(),
                slots: lp0.slots.clone(),
                gbps_per_wavelength: 100.0,
            };
            prop_assert!(net.provision(clash).is_err());
            let after: Vec<usize> =
                net.fibers().iter().map(|f| f.spectrum.occupied_count()).collect();
            prop_assert_eq!(before, after, "failed provision mutated spectrum");
        }
    }
}
