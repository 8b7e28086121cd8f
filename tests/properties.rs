//! Cross-crate property-based tests (proptest) on the system's invariants.

use arrow_wan::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Simplex and PDHG agree on random feasible transportation-style LPs,
    /// and both return feasible points.
    #[test]
    fn lp_backends_agree(
        caps in proptest::collection::vec(1.0f64..50.0, 3..6),
        demands in proptest::collection::vec(0.5f64..30.0, 2..5),
    ) {
        use arrow_wan::lp::{model::{LinExpr, Model, Objective, Sense}, SolverConfig};
        let mut m = Model::new();
        // Flow variables: one per (demand, capacity) pair.
        let mut vars = vec![];
        for (i, _) in demands.iter().enumerate() {
            for (j, _) in caps.iter().enumerate() {
                vars.push((i, j, m.add_nonneg(format!("x{i}_{j}"))));
            }
        }
        for (j, &c) in caps.iter().enumerate() {
            let users: Vec<_> = vars.iter().filter(|&&(_, jj, _)| jj == j).map(|&(_, _, v)| v).collect();
            m.add_con(LinExpr::sum_vars(users), Sense::Le, c, format!("cap{j}"));
        }
        let mut obj = LinExpr::new();
        for (i, &d) in demands.iter().enumerate() {
            let users: Vec<_> = vars.iter().filter(|&&(ii, _, _)| ii == i).map(|&(_, _, v)| v).collect();
            m.add_con(LinExpr::sum_vars(users.clone()), Sense::Le, d, format!("dem{i}"));
            for v in users {
                obj.add_term(v, 1.0);
            }
        }
        m.set_objective(obj, Objective::Maximize);
        let exact = arrow_wan::lp::solve(&m, &SolverConfig::exact());
        let fo = arrow_wan::lp::solve(&m, &SolverConfig::first_order(1e-7));
        prop_assert!(exact.status.is_optimal());
        prop_assert!(fo.status.is_optimal());
        let scale = 1.0 + exact.objective.abs();
        prop_assert!((exact.objective - fo.objective).abs() / scale < 1e-3,
            "simplex {} vs pdhg {}", exact.objective, fo.objective);
        prop_assert!(exact.violation(&m) < 1e-6);
        prop_assert!(fo.violation(&m) < 1e-3);
    }

    /// LotteryTickets never restore more than was lost, regardless of
    /// stride, ticket count, or seed.
    #[test]
    fn tickets_bounded_by_lost_capacity(
        seed in 0u64..50,
        delta in 1usize..5,
        n_tickets in 1usize..12,
    ) {
        let wan = b4(17);
        let failures = generate_failures(&wan, &FailureConfig { max_scenarios: 3, ..Default::default() });
        let scens = failures.failure_scenarios();
        let (set, _) = generate_tickets(&wan, &scens, &LotteryConfig {
            num_tickets: n_tickets,
            delta,
            seed,
            ..Default::default()
        });
        for (scen, tickets) in scens.iter().zip(&set.per_scenario) {
            prop_assert!(!tickets.is_empty());
            for t in tickets {
                for &(link, gbps) in &t.restored {
                    prop_assert!(scen.failed_links.contains(&link));
                    prop_assert!(gbps >= 0.0);
                    prop_assert!(gbps <= wan.link(link).capacity_gbps + 1e-6);
                }
            }
        }
    }

    /// Theorem 3.1's ρ is a probability, monotone in |Z|, and consistent
    /// with κ at |Z| = 1.
    #[test]
    fn theorem31_probability_laws(kappa_val in 0.0f64..1.0, z in 1usize..200) {
        let rho = optimality_probability(kappa_val, z);
        prop_assert!((0.0..=1.0).contains(&rho));
        prop_assert!(rho + 1e-12 >= optimality_probability(kappa_val, z.saturating_sub(1).max(1)) - 1e-12);
        prop_assert!((optimality_probability(kappa_val, 1) - kappa_val).abs() < 1e-12);
    }

    /// Playback satisfaction is within [0, 1] and restoration essentially
    /// only helps. "Essentially": with *frozen* splitting ratios, a
    /// near-zero restoration can hurt marginally — reviving a tunnel whose
    /// restored link has almost no capacity makes the flow offer traffic
    /// there (at its installed ratio) that then drowns at the bottleneck.
    /// ARROW avoids this in practice because Phase II caps restorable-
    /// tunnel allocations at the winning ticket's capacities; for an
    /// arbitrary (allocation, ticket) pairing we only assert the regression
    /// stays within the traffic share such a mismatched tunnel can carry.
    #[test]
    fn playback_monotone_in_restoration(frac in 0.0f64..1.0, scale in 0.5f64..4.0) {
        let wan = b4(17);
        let tms = gravity_matrices(&wan, &TrafficConfig { num_matrices: 1, ..Default::default() });
        let failures = generate_failures(&wan, &FailureConfig { max_scenarios: 4, ..Default::default() });
        let inst = build_instance(
            &wan,
            &tms[0].scaled(scale),
            &failures.failure_scenarios(),
            &TunnelConfig { tunnels_per_flow: 3, ..Default::default() },
        );
        let out = MaxFlow::default().solve(&inst);
        let cfg = PlaybackConfig::default();
        for q in &inst.scenarios {
            let ticket = RestorationTicket {
                restored: q
                    .failed_links
                    .iter()
                    .map(|&l| (l, frac * inst.wan.link(l).capacity_gbps))
                    .collect(),
            };
            let with = play_scenario(&inst, &out.alloc, Some(q), Some(&ticket), &cfg);
            let without = play_scenario(&inst, &out.alloc, Some(q), None, &cfg);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&with.satisfaction));
            prop_assert!(with.satisfaction >= without.satisfaction - 0.02,
                "restoration hurt beyond the frozen-ratio mismatch bound: {} -> {}",
                without.satisfaction, with.satisfaction);
        }
    }

    /// Spectrum first-fit (greedy RWA) never double-books a slot, for any
    /// single cut on any seed's B4 variant.
    #[test]
    fn greedy_rwa_never_double_books(seed in 0u64..30, fiber in 0usize..19) {
        let wan = b4(seed);
        let cut = [FiberId(fiber)];
        if wan.optical.affected_lightpaths(&cut).is_empty() {
            return Ok(());
        }
        let masks = wan.optical.restoration_spectrum(&cut);
        let assigns = greedy_assign(&wan.optical, &cut, &RwaConfig::default(), None);
        let mut used: std::collections::HashSet<(usize, usize)> = Default::default();
        for a in &assigns {
            for (path, slots) in &a.routes {
                for f in &path.fibers {
                    for &w in slots {
                        prop_assert!(masks[f.0].is_free(w), "assigned an occupied slot");
                        prop_assert!(used.insert((f.0, w)), "double-booked slot");
                    }
                }
            }
        }
    }

    /// Amplifier cascade latency scales linearly with chain length, and
    /// noise loading is invariant to it.
    #[test]
    fn latency_scales_with_amplifiers(mult in 1usize..5) {
        let mut tb = build_testbed().expect("Fig. 10 testbed is self-consistent");
        for chain in tb.amps.iter_mut() {
            chain.sites *= mult;
        }
        let arrow = restoration_trial(&tb, tb.fibers[3], true, &RoadmParams::default());
        let legacy = restoration_trial(&tb, tb.fibers[3], false, &RoadmParams::default());
        prop_assert!(arrow.total_latency_s < 15.0, "noise loading must be amp-count invariant");
        prop_assert!(legacy.total_latency_s > 300.0 * mult as f64);
    }
}
