//! `eval::play_scenario` pinned bit for bit.
//!
//! The constants were recorded on the map-keyed playback (three ordered
//! maps from `DirLink` to load per play) and must survive any rewrite of
//! it: every floating-point addition has to keep its order. The digest reads
//! loads through [`ScenarioDelivery::load_on`] in `(link, forward)` order
//! and skips zeros, so it does not depend on how the loads are stored.

use arrow_te::eval::{play_scenario, PlaybackConfig, ScenarioDelivery};
use arrow_te::{
    build_instance, Arrow, MaxFlow, RestorationTicket, TeAllocation, TeInstance, TeScheme,
    TicketSet, TunnelConfig,
};
use arrow_topology::{
    b4, compile_universe, generate_failures, gravity_matrices, FailureConfig, FailureScenario,
    IpLinkId, TrafficConfig, UniverseConfig,
};

/// The instance of `eval.rs`'s unit tests: B4, 4 tunnels per flow, 10
/// scenarios.
fn instance(scale: f64) -> TeInstance {
    let wan = b4(17);
    let tms = gravity_matrices(&wan, &TrafficConfig { num_matrices: 1, ..Default::default() });
    let failures =
        generate_failures(&wan, &FailureConfig { max_scenarios: 10, ..Default::default() });
    build_instance(
        &wan,
        &tms[0].scaled(scale),
        &failures.failure_scenarios(),
        &TunnelConfig { tunnels_per_flow: 4, prefer_fiber_disjoint: true },
    )
}

/// A ticket restoring `fraction` of every failed link's capacity.
fn ticket(inst: &TeInstance, q: &FailureScenario, fraction: f64) -> RestorationTicket {
    RestorationTicket {
        restored: q
            .failed_links
            .iter()
            .map(|&l| (l, fraction * inst.wan.link(l).capacity_gbps))
            .collect(),
    }
}

fn fold(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x100_0000_01b3)
}

/// Folds one play: `satisfaction` bits, every `delivered` bit pattern, and
/// the non-zero link loads as `(link, forward, bits)` in key order.
fn fold_play(mut h: u64, inst: &TeInstance, d: &ScenarioDelivery) -> u64 {
    h = fold(h, d.satisfaction.to_bits());
    h = d.delivered.iter().fold(fold(h, d.delivered.len() as u64), |h, v| fold(h, v.to_bits()));
    for link in 0..inst.wan.links.len() {
        for forward in [false, true] {
            let load = d.load_on(IpLinkId(link), forward);
            if load != 0.0 {
                h = fold(fold(fold(h, link as u64), forward as u64), load.to_bits());
            }
        }
    }
    h
}

/// Healthy plus every scenario, crossed with {no ticket, half-capacity
/// ticket, full ticket} and `respread` {false, true}.
fn playback_digest(inst: &TeInstance, alloc: &TeAllocation) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for respread in [false, true] {
        let cfg = PlaybackConfig { respread };
        h = fold_play(h, inst, &play_scenario(inst, alloc, None, None, &cfg));
        for q in &inst.scenarios {
            let tickets = [None, Some(ticket(inst, q, 0.5)), Some(ticket(inst, q, 1.0))];
            for t in &tickets {
                h = fold_play(h, inst, &play_scenario(inst, alloc, Some(q), t.as_ref(), &cfg));
            }
        }
    }
    h
}

#[test]
fn play_scenario_is_pinned_bit_for_bit() {
    let mut digests = Vec::new();
    for scale in [2.0, 3.0] {
        let inst = instance(scale);
        assert_eq!(inst.scenarios.len(), 10);
        // Half-capacity tickets: with full ones ARROW's allocation is
        // MaxFlow's, bit for bit.
        let half =
            TicketSet::full(inst.scenarios.iter().map(|q| vec![ticket(&inst, q, 0.5)]).collect());
        let maxflow = MaxFlow::default().solve(&inst).alloc;
        let arrow = Arrow::new(half).solve(&inst).alloc;
        digests.push(playback_digest(&inst, &maxflow));
        digests.push(playback_digest(&inst, &arrow));
    }
    assert_eq!(
        digests,
        [
            0x78ae_f227_2f59_8206,
            0x5d00_9f59_89c3_2f37,
            0xd56c_9a45_371d_6ab1,
            0xa38f_680e_1099_8b1a
        ],
        "playback bits moved (MaxFlow@2, ARROW@2, MaxFlow@3, ARROW@3): {digests:#018x?}"
    );
}

/// The ticket shapes [`universe_playback_is_pinned_bit_for_bit`] plays
/// each scenario under: none; every other failed link at half capacity
/// (the rest left dark); every failed link whole but one listed at 0 Gbps;
/// every failed link whole, the first listed again at 0 Gbps after it,
/// and a link the WAN does not have.
fn ticket_shapes(inst: &TeInstance, q: &FailureScenario) -> [Option<RestorationTicket>; 4] {
    let cap = |l: IpLinkId| inst.wan.link(l).capacity_gbps;
    let links = &q.failed_links;
    let half = links.iter().step_by(2).map(|&l| (l, 0.5 * cap(l))).collect();
    let mut one_dark: Vec<_> = links.iter().map(|&l| (l, cap(l))).collect();
    if let Some(last) = one_dark.last_mut() {
        last.1 = 0.0;
    }
    let mut odd = ticket(inst, q, 1.0);
    if let Some(&(first, _)) = odd.restored.first() {
        odd.restored.push((first, 0.0));
    }
    odd.restored.push((IpLinkId(inst.wan.links.len() + 1), 50.0));
    [
        None,
        Some(RestorationTicket { restored: half }),
        Some(RestorationTicket { restored: one_dark }),
        Some(odd),
    ]
}

#[test]
fn universe_playback_is_pinned_bit_for_bit() {
    // `playback_b4`'s universe (perf's `universe_config(0)`) played against
    // a MaxFlow allocation on the 4-scenario B4 instance at demand ×3.
    let wan = b4(17);
    let universe = compile_universe(
        &wan,
        &UniverseConfig {
            max_k: 3,
            cutoff: 1e-5,
            auto_srlg_size: 3,
            auto_srlg_probability: 1e-3,
            maintenance_window: 2,
            maintenance_probability: 5e-4,
            flapping_count: 2,
            flapping_boost: 4.0,
            max_scenarios: 0,
            ..Default::default()
        },
    );
    assert_eq!(universe.len(), 484);
    let tm = gravity_matrices(&wan, &TrafficConfig { num_matrices: 1, ..Default::default() })[0]
        .scaled(3.0);
    let failures =
        generate_failures(&wan, &FailureConfig { max_scenarios: 4, ..Default::default() });
    let inst = build_instance(
        &wan,
        &tm,
        &failures.failure_scenarios(),
        &TunnelConfig { tunnels_per_flow: 4, prefer_fiber_disjoint: true },
    );
    let alloc = MaxFlow::default().solve(&inst).alloc;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for respread in [false, true] {
        let cfg = PlaybackConfig { respread };
        for q in universe.scenarios.iter().map(|c| &c.scenario) {
            for t in &ticket_shapes(&inst, q) {
                h = fold_play(h, &inst, &play_scenario(&inst, &alloc, Some(q), t.as_ref(), &cfg));
            }
        }
    }
    assert_eq!(h, 0xace5_baed_646b_4104, "universe playback bits moved: {h:#018x}");
}
