//! `eval::play_scenario` pinned bit for bit.
//!
//! The digests (groups `playback` and `universe_playback` of
//! `tests/pins.txt`) were recorded on the map-keyed playback (three ordered
//! maps from `DirLink` to load per play) and must survive any rewrite of
//! it: every floating-point addition has to keep its order. The digest reads
//! loads through [`ScenarioDelivery::load_on`] in `(link, forward)` order
//! and skips zeros, so it does not depend on how the loads are stored.

use arrow_obs::hash::{check_pins, word_fold, FNV1A_OFFSET};
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

/// Folds one play: `satisfaction` bits, every `delivered` bit pattern, and
/// the non-zero link loads as `(link, forward, bits)` in key order.
fn fold_play(mut h: u64, inst: &TeInstance, d: &ScenarioDelivery) -> u64 {
    h = word_fold(h, d.satisfaction.to_bits());
    let delivered = d.delivered.iter().map(|v| v.to_bits());
    h = delivered.fold(word_fold(h, d.delivered.len() as u64), word_fold);
    for link in 0..inst.wan.links.len() {
        for forward in [false, true] {
            let load = d.load_on(IpLinkId(link), forward);
            if load != 0.0 {
                h = word_fold(word_fold(word_fold(h, link as u64), forward as u64), load.to_bits());
            }
        }
    }
    h
}

/// Healthy plus every scenario, crossed with {no ticket, half-capacity
/// ticket, full ticket} and `respread` {false, true}.
fn playback_digest(inst: &TeInstance, alloc: &TeAllocation) -> u64 {
    let mut h = FNV1A_OFFSET;
    for respread in [false, true] {
        let cfg = PlaybackConfig { respread };
        h = fold_play(h, inst, &play_scenario(inst, alloc, None, None, &cfg));
        for q in &inst.scenarios {
            let uniform = |fraction| Some(RestorationTicket::uniform(&inst.wan, q, fraction));
            let tickets = [None, uniform(0.5), uniform(1.0)];
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
    for scale in [2, 3] {
        let inst = instance(f64::from(scale));
        assert_eq!(inst.scenarios.len(), 10);
        // Half-capacity tickets: with full ones ARROW's allocation is
        // MaxFlow's, bit for bit.
        let half = TicketSet::full(
            inst.scenarios
                .iter()
                .map(|q| vec![RestorationTicket::uniform(&inst.wan, q, 0.5)])
                .collect(),
        );
        let maxflow = MaxFlow::default().solve(&inst).alloc;
        let arrow = Arrow::new(half).solve(&inst).alloc;
        digests.push((format!("playback.b4_x{scale}.maxflow"), playback_digest(&inst, &maxflow)));
        digests.push((format!("playback.b4_x{scale}.arrow"), playback_digest(&inst, &arrow)));
    }
    check_pins(&digests).unwrap();
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
    let mut odd = RestorationTicket::uniform(&inst.wan, q, 1.0);
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
    let mut h = FNV1A_OFFSET;
    for respread in [false, true] {
        let cfg = PlaybackConfig { respread };
        for q in universe.scenarios.iter().map(|c| &c.scenario) {
            for t in &ticket_shapes(&inst, q) {
                h = fold_play(h, &inst, &play_scenario(&inst, &alloc, Some(q), t.as_ref(), &cfg));
            }
        }
    }
    check_pins(&[("universe_playback.b4", h)]).unwrap();
}
