//! End-to-end integration tests spanning all crates: topology → tickets →
//! two-phase TE → playback, on each of the paper's topologies.

use arrow_wan::prelude::*;

/// Builds a TE instance for a WAN with a bounded scenario set.
fn make_instance(wan: &Wan, max_scenarios: usize, tunnels: usize) -> TeInstance {
    let tms = gravity_matrices(wan, &TrafficConfig { num_matrices: 1, ..Default::default() });
    let failures = generate_failures(wan, &FailureConfig { max_scenarios, ..Default::default() });
    build_instance(
        wan,
        &tms[0],
        &failures.failure_scenarios(),
        &TunnelConfig { tunnels_per_flow: tunnels, ..Default::default() },
    )
}

#[test]
fn full_pipeline_on_b4() {
    let wan = b4(17);
    let raw = make_instance(&wan, 8, 4);
    // §6 demand scaling: start from a state where 100% of demand fits.
    // Operate well below the saturation scale: the over-provisioned regime the
    // paper's scale-1.0 baseline represents.
    let inst = raw.scaled(0.1 * normalize_demand_scale(&raw));
    let (tickets, _) = generate_tickets(
        &wan,
        &inst.scenarios,
        &LotteryConfig { num_tickets: 8, ..Default::default() },
    );
    let out = Arrow::new(tickets).solve(&inst);
    assert!(out.alloc.total_admitted() > 0.0);
    let avail = availability(&inst, &out, &PlaybackConfig::default());
    assert!(avail > 0.95, "ARROW availability {avail} on B4 at the normalized scale");
    // The restoration plan's capacities must be realizable per ticket
    // feasibility (generation filters them).
    let plan = out.restoration.unwrap();
    assert_eq!(plan.len(), inst.scenarios.len());
}

#[test]
fn full_pipeline_on_ibm() {
    let wan = ibm(17);
    let raw = make_instance(&wan, 6, 4);
    let inst = raw.scaled(0.1 * normalize_demand_scale(&raw));
    let (tickets, _) = generate_tickets(
        &wan,
        &inst.scenarios,
        &LotteryConfig { num_tickets: 6, ..Default::default() },
    );
    let arrow = Arrow::new(tickets).solve(&inst);
    let ffc = Ffc::k1().solve(&inst);
    let cfg = PlaybackConfig::default();
    let a_arrow = availability(&inst, &arrow, &cfg);
    let a_ffc = availability(&inst, &ffc, &cfg);
    // ARROW admits at least as much as FFC and availability stays high at
    // the normalized scale for both.
    assert!(arrow.alloc.total_admitted() >= ffc.alloc.total_admitted() * 0.99);
    assert!(a_arrow > 0.9 && a_ffc > 0.9, "arrow {a_arrow}, ffc {a_ffc}");
}

#[test]
fn scheme_dominance_ordering_under_load() {
    // At a demand scale beyond saturation, the throughput ordering must be
    // MaxFlow ≥ ARROW(full tickets) ≥ ARROW(no tickets) and
    // FFC-1 ≥ FFC-2 (protection levels only remove capacity).
    let wan = b4(17);
    let inst = make_instance(&wan, 6, 4).scaled(5.0);
    let mf = MaxFlow::default().solve(&inst).alloc.throughput(&inst);
    let full = TicketSet::full(
        inst.scenarios
            .iter()
            .map(|s| {
                vec![RestorationTicket {
                    restored: s
                        .failed_links
                        .iter()
                        .map(|&l| (l, inst.wan.link(l).capacity_gbps))
                        .collect(),
                }]
            })
            .collect(),
    );
    let t_full = Arrow::new(full).solve(&inst).alloc.throughput(&inst);
    let t_none =
        Arrow::new(TicketSet::none(inst.scenarios.len())).solve(&inst).alloc.throughput(&inst);
    let t_ffc1 = Ffc::k1().solve(&inst).alloc.throughput(&inst);
    let t_ffc2 = Ffc::k2().solve(&inst).alloc.throughput(&inst);
    assert!(mf + 1e-4 >= t_full, "MaxFlow {mf} vs full-restoration ARROW {t_full}");
    assert!(t_full + 1e-4 >= t_none, "ARROW full {t_full} vs none {t_none}");
    assert!(t_ffc1 + 1e-4 >= t_ffc2, "FFC-1 {t_ffc1} vs FFC-2 {t_ffc2}");
}

#[test]
fn controller_pipeline_on_ibm() {
    let wan = ibm(17);
    let failures =
        generate_failures(&wan, &FailureConfig { max_scenarios: 4, ..Default::default() });
    let tms = gravity_matrices(&wan, &TrafficConfig { num_matrices: 1, ..Default::default() });
    let mut controller = ArrowController::new(
        wan,
        failures.failure_scenarios(),
        ControllerConfig {
            lottery: LotteryConfig { num_tickets: 5, ..Default::default() },
            tunnels: TunnelConfig { tunnels_per_flow: 3, ..Default::default() },
            ..Default::default()
        },
    );
    let (plan, _) = controller.plan_epoch(&tms[0], None).expect("complete offline state");
    assert_eq!(plan.outcome.winning.len(), 4);
    // Reconfig rules must not oversubscribe spectrum: every (fiber, slot)
    // appears at most once per scenario.
    for qi in 0..controller.offline().scenarios.len() {
        let mut used = std::collections::HashSet::new();
        for rule in plan.reconfig_rules.iter().filter(|r| r.scenario == qi) {
            for (path, slots) in &rule.routes {
                for f in &path.fibers {
                    for &w in slots {
                        assert!(used.insert((f.0, w)), "slot reuse in scenario {qi}");
                    }
                }
            }
        }
    }
}

#[test]
fn restoration_latency_and_te_compose() {
    // The latency simulator and the TE pipeline describe the same event:
    // ARROW's plan is installed proactively, then a cut triggers the
    // 8-second optical failover while routers keep their splitting ratios.
    let tb = build_testbed().expect("Fig. 10 testbed is self-consistent");
    let arrow_trial = restoration_trial(&tb, tb.fibers[3], true, &RoadmParams::default());
    let legacy_trial = restoration_trial(&tb, tb.fibers[3], false, &RoadmParams::default());
    assert!(arrow_trial.total_latency_s < 15.0);
    assert!(legacy_trial.total_latency_s / arrow_trial.total_latency_s > 30.0);
}

#[test]
fn facebook_like_pipeline_smoke() {
    // The big topology is exercised end-to-end at reduced scenario count.
    let wan = facebook_like(17);
    let tms = gravity_matrices(&wan, &TrafficConfig { num_matrices: 1, ..Default::default() });
    let failures = generate_failures(&wan, &FailureConfig { cutoff: 2e-4, max_scenarios: 3 });
    let inst = build_instance(
        &wan,
        &tms[0],
        &failures.failure_scenarios(),
        &TunnelConfig { tunnels_per_flow: 3, ..Default::default() },
    );
    let (tickets, _) = generate_tickets(
        &wan,
        &inst.scenarios,
        &LotteryConfig { num_tickets: 4, ..Default::default() },
    );
    let out = Arrow::new(tickets).solve(&inst);
    assert!(out.alloc.total_admitted() > 0.0);
    let avail = availability(&inst, &out, &PlaybackConfig::default());
    assert!(avail > 0.5, "availability {avail}");
}
