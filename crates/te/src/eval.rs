//! Scenario playback and the paper's evaluation metrics (§6.1–§6.3).
//!
//! Given a TE allocation (and, for restoration-aware schemes, a restoration
//! plan), the playback engine simulates each failure scenario:
//!
//! 1. A tunnel is *alive* if it survives the scenario outright or is
//!    restored by the scenario's ticket (every failed link it crosses has
//!    positive restored capacity).
//! 2. Each flow offers traffic over its alive tunnels — by default frozen
//!    at the installed allocations (FFC semantics: routers keep splitting
//!    ratios, traffic on dead tunnels is lost), optionally re-spread
//!    proportionally over survivors.
//! 3. Failed links carry their *restored* capacity; every link load above
//!    capacity is scaled down proportionally (the congestion response).
//!
//! A play is one scenario overlay — built from the tunnels on the
//! scenario's failed links alone, so it costs what the scenario cuts — plus
//! four dense vectors (offered load, congestion factor, delivered traffic,
//! link loads).
//!
//! From playback come the paper's metrics: **availability** (§6.1,
//! probability-weighted demand satisfaction), **throughput** (§6.2,
//! `Σ b_f / Σ d_f`), **availability-guaranteed throughput** and the
//! **router-port cost model** (§6.3).

use crate::alloc::TeAllocation;
use crate::index::ScenarioOverlay;
use crate::restoration::RestorationTicket;
use crate::schemes::{SchemeOutput, TeScheme};
use crate::tunnels::TeInstance;
use arrow_topology::{FailureScenario, IpLinkId};

/// Playback options.
#[derive(Debug, Clone, Default)]
pub struct PlaybackConfig {
    /// Re-spread each flow's admitted bandwidth over surviving tunnels
    /// (instead of freezing installed allocations).
    pub respread: bool,
}

/// Delivery outcome for one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioDelivery {
    /// Delivered Gbps per flow.
    pub delivered: Vec<f64>,
    /// Directed link loads after congestion scaling, indexed by
    /// [`DirLink::index`](crate::tunnels::DirLink::index) (`2·link + forward`) over every link of the WAN.
    pub(crate) link_loads: Vec<f64>,
    /// `Σ delivered / Σ demand` — the scenario's demand satisfaction.
    pub satisfaction: f64,
}

impl ScenarioDelivery {
    /// Load on `link` in direction `forward` (0 when nothing crosses it,
    /// or when the instance has no such link).
    pub fn load_on(&self, link: IpLinkId, forward: bool) -> f64 {
        let key = link.0.checked_mul(2).map(|k| k + forward as usize);
        key.and_then(|k| self.link_loads.get(k)).copied().unwrap_or(0.0)
    }
}

/// Plays one scenario (or the healthy state when `scenario` is `None`).
///
/// Every sum below adds in ascending tunnel order, then hop order — the
/// order `playback_pin.rs` pins bit for bit.
pub fn play_scenario(
    inst: &TeInstance,
    alloc: &TeAllocation,
    scenario: Option<&FailureScenario>,
    restoration: Option<&RestorationTicket>,
    cfg: &PlaybackConfig,
) -> ScenarioDelivery {
    let overlay = ScenarioOverlay::new(inst, scenario, restoration);
    let index = inst.index();
    // Offered load per tunnel.
    let mut offered = vec![0.0; inst.tunnels.len()];
    for (fi, flow) in inst.flows.iter().enumerate() {
        let alive_total: f64 =
            flow.tunnels.iter().filter(|&&t| overlay.alive(t)).map(|&t| alloc.a[t.0]).sum();
        if alive_total <= 0.0 {
            continue;
        }
        let send = if cfg.respread { alloc.b[fi] } else { alloc.b[fi].min(alive_total) };
        for t in flow.tunnels.iter().filter(|&&t| overlay.alive(t)) {
            offered[t.0] = send * alloc.a[t.0] / alive_total;
        }
    }
    // Offered load per directed link, then in place its congestion factor.
    let mut factor = vec![0.0; index.num_keys()];
    for (ti, &load) in offered.iter().enumerate() {
        if load > 0.0 {
            for &k in index.hops_of(ti) {
                factor[k] += load;
            }
        }
    }
    for (k, f) in factor.iter_mut().enumerate() {
        let (load, cap) = (*f, overlay.capacity_gbps(k / 2));
        *f = if load > cap { (cap / load).max(0.0) } else { 1.0 };
    }
    // Delivered traffic: each tunnel is throttled by its worst link.
    let mut delivered = vec![0.0; inst.flows.len()];
    let mut link_loads = vec![0.0; index.num_keys()];
    for (ti, t) in inst.tunnels.iter().enumerate() {
        if offered[ti] <= 0.0 {
            continue;
        }
        let hops = index.hops_of(ti);
        let worst = hops.iter().map(|&k| factor[k]).fold(1.0, f64::min);
        let got = offered[ti] * worst;
        delivered[t.flow.0] += got;
        for &k in hops {
            link_loads[k] += got;
        }
    }
    // Delivered cannot exceed demand.
    for (fi, flow) in inst.flows.iter().enumerate() {
        delivered[fi] = delivered[fi].min(flow.demand_gbps);
    }
    // An empty traffic matrix is trivially satisfied; dividing by the old
    // 1e-9 floor instead turned "no demand" into satisfaction ≈ 0 (or a
    // huge ratio when rounding left delivered slightly positive).
    let total_demand = inst.total_demand();
    let satisfaction =
        if total_demand <= 0.0 { 1.0 } else { delivered.iter().sum::<f64>() / total_demand };
    ScenarioDelivery { delivered, link_loads, satisfaction }
}

/// Probability mass of the enumerated failure scenarios.
fn failure_mass(inst: &TeInstance) -> f64 {
    inst.scenarios.iter().map(|s| s.probability).sum()
}

/// Probability of the healthy network: the mass no scenario covers.
fn healthy_probability(inst: &TeInstance) -> f64 {
    (1.0 - failure_mass(inst)).max(0.0)
}

/// The one walk every §6 metric makes: the healthy network first (when
/// `with_healthy`), then each failure scenario under its ticket from
/// `out`. `visit` gets each state's probability and its playback.
fn play_all(
    inst: &TeInstance,
    out: &SchemeOutput,
    cfg: &PlaybackConfig,
    with_healthy: bool,
    mut visit: impl FnMut(f64, ScenarioDelivery),
) {
    if with_healthy {
        visit(healthy_probability(inst), play_scenario(inst, &out.alloc, None, None, cfg));
    }
    for (qi, q) in inst.scenarios.iter().enumerate() {
        let ticket = out.restoration.as_ref().map(|r| &r[qi]);
        visit(q.probability, play_scenario(inst, &out.alloc, Some(q), ticket, cfg));
    }
}

/// Availability of one `(allocation, restoration plan)` on an instance
/// (§6.1): "the sum of the availabilities of all *failure scenarios*
/// weighted by each scenario's probability" — demand satisfaction during
/// failures, probability-normalized over the enumerated scenario set. The
/// healthy state is not a failure scenario and does not enter the average.
pub fn availability(inst: &TeInstance, out: &SchemeOutput, cfg: &PlaybackConfig) -> f64 {
    let failure_mass = failure_mass(inst);
    if failure_mass <= 0.0 {
        // Nothing can fail, so nothing is ever lost — like the empty
        // traffic matrix in `play_scenario`, trivially 1 rather than 0/ε.
        return 1.0;
    }
    let mut acc = 0.0;
    play_all(inst, out, cfg, false, |p, d| acc += p * d.satisfaction);
    acc / failure_mass.max(1e-12)
}

/// Satisfaction at the β-percentile of `(satisfaction, probability)`
/// points: sorted by loss ascending, walked until the cumulative
/// probability reaches β.
fn satisfaction_at(mut points: Vec<(f64, f64)>, beta: f64) -> f64 {
    let mass: f64 = points.iter().map(|&(_, p)| p).sum();
    points.sort_by(|a, b| b.0.total_cmp(&a.0));
    let mut cum = 0.0;
    for &(sat, p) in &points {
        cum += p / mass;
        if cum >= beta {
            return sat;
        }
    }
    points.last().map(|&(s, _)| s).unwrap_or(0.0)
}

/// Availability-guaranteed throughput at target β (§6.3): the demand
/// satisfaction at the β-percentile of the scenario loss distribution
/// (scenarios sorted by loss, weighted by probability).
pub fn availability_guaranteed_throughput(
    inst: &TeInstance,
    out: &SchemeOutput,
    beta: f64,
    cfg: &PlaybackConfig,
) -> f64 {
    let mut points = Vec::new();
    play_all(inst, out, cfg, true, |p, d| points.push((d.satisfaction, p)));
    satisfaction_at(points, beta)
}

/// Router-port cost proxy (§6.3): worst-case directed link load across all
/// scenarios, summed over links, normalized by the availability-guaranteed
/// throughput.
pub fn required_router_ports(
    inst: &TeInstance,
    out: &SchemeOutput,
    beta: f64,
    cfg: &PlaybackConfig,
) -> f64 {
    let mut worst = vec![0.0f64; inst.index().num_keys()];
    let mut points = Vec::new();
    play_all(inst, out, cfg, true, |p, d| {
        for (w, &load) in worst.iter_mut().zip(&d.link_loads) {
            *w = w.max(load);
        }
        points.push((d.satisfaction, p));
    });
    let total: f64 = worst.iter().sum();
    total / satisfaction_at(points, beta).max(1e-9)
}

/// Finds the demand scale at which the failure-oblivious MaxFlow LP just
/// satisfies 100% of demand (§6 "Demand scaling": evaluations start from a
/// state where all demand fits). Returns the multiplicative factor to apply
/// to the instance's demands.
pub fn normalize_demand_scale(inst: &TeInstance) -> f64 {
    use crate::schemes::maxflow::MaxFlow;
    let solver = MaxFlow::default();
    let sat = |scale: f64| -> bool {
        let scaled = inst.scaled(scale);
        solver.solve(&scaled).alloc.throughput(&scaled) >= 0.999
    };
    let (mut lo, mut hi);
    if sat(1.0) {
        lo = 1.0;
        hi = 2.0;
        while sat(hi) && hi < 1e6 {
            lo = hi;
            hi *= 2.0;
        }
    } else {
        hi = 1.0;
        lo = 0.5;
        while !sat(lo) && lo > 1e-6 {
            hi = lo;
            lo /= 2.0;
        }
    }
    for _ in 0..25 {
        let mid = 0.5 * (lo + hi);
        if sat(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::restoration::{RestorationTicket, TicketSet};
    use crate::schemes::arrow::Arrow;
    use crate::schemes::ecmp::Ecmp;
    use crate::schemes::ffc::Ffc;
    use crate::schemes::maxflow::MaxFlow;
    use crate::tunnels::{build_instance, DirLink, TunnelConfig};
    use arrow_topology::{b4, generate_failures, gravity_matrices, FailureConfig, TrafficConfig};

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

    fn full_tickets(inst: &TeInstance) -> TicketSet {
        let uniform = |s| vec![RestorationTicket::uniform(&inst.wan, s, 1.0)];
        TicketSet::full(inst.scenarios.iter().map(uniform).collect())
    }

    #[test]
    fn zero_demand_is_fully_satisfied() {
        // Regression: the old 1e-9 demand floor reported satisfaction ≈ 0
        // for an empty traffic matrix, dragging availability metrics to
        // zero on idle networks instead of the trivially correct 1.0.
        let inst = instance(0.0);
        assert_eq!(inst.total_demand(), 0.0);
        let out = MaxFlow::default().solve(&inst);
        let cfg = PlaybackConfig::default();
        let healthy = play_scenario(&inst, &out.alloc, None, None, &cfg);
        assert_eq!(healthy.satisfaction, 1.0);
        for q in &inst.scenarios {
            let d = play_scenario(&inst, &out.alloc, Some(q), None, &cfg);
            assert_eq!(d.satisfaction, 1.0, "zero demand must be satisfied under failures too");
        }
        assert!((availability(&inst, &out, &cfg) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn no_failure_scenarios_is_fully_available() {
        let mut inst = instance(2.0);
        inst.scenarios.clear();
        let out = MaxFlow::default().solve(&inst);
        assert_eq!(availability(&inst, &out, &PlaybackConfig::default()), 1.0);
    }

    #[test]
    fn healthy_playback_matches_lp_for_feasible_schemes() {
        let inst = instance(1.0);
        let out = MaxFlow::default().solve(&inst);
        let d = play_scenario(&inst, &out.alloc, None, None, &Default::default());
        assert!(
            (d.satisfaction - out.alloc.throughput(&inst)).abs() < 1e-3,
            "playback {} vs LP {}",
            d.satisfaction,
            out.alloc.throughput(&inst)
        );
    }

    #[test]
    fn ffc1_has_no_loss_under_single_cuts() {
        let inst = instance(2.0);
        let out = Ffc::k1().solve(&inst);
        let healthy = play_scenario(&inst, &out.alloc, None, None, &Default::default());
        for q in inst.scenarios.iter().filter(|q| q.cut_fibers.len() == 1) {
            let d = play_scenario(&inst, &out.alloc, Some(q), None, &Default::default());
            assert!(
                d.satisfaction >= healthy.satisfaction - 1e-3,
                "FFC-1 lost traffic under a single cut: {} -> {}",
                healthy.satisfaction,
                d.satisfaction
            );
        }
    }

    #[test]
    fn ecmp_loses_more_than_ffc_under_failures() {
        let inst = instance(3.0);
        let ecmp = Ecmp.solve(&inst);
        let ffc = Ffc::k1().solve(&inst);
        let cfg = PlaybackConfig::default();
        // Compare worst-case single-cut satisfaction.
        let worst = |out: &SchemeOutput| -> f64 {
            inst.scenarios
                .iter()
                .map(|q| play_scenario(&inst, &out.alloc, Some(q), None, &cfg).satisfaction)
                .fold(1.0, f64::min)
        };
        // ECMP admits everything, so its healthy satisfaction may be higher,
        // but its worst-case drop (relative to healthy) must be larger.
        let drop_e =
            play_scenario(&inst, &ecmp.alloc, None, None, &cfg).satisfaction - worst(&ecmp);
        let drop_f = play_scenario(&inst, &ffc.alloc, None, None, &cfg).satisfaction - worst(&ffc);
        assert!(drop_e > drop_f - 1e-6, "ECMP drop {drop_e} should exceed FFC drop {drop_f}");
    }

    #[test]
    fn restoration_improves_availability() {
        let inst = instance(3.0);
        let cfg = PlaybackConfig::default();
        let no_rest = Arrow::new(TicketSet::none(inst.scenarios.len())).solve(&inst);
        let full = Arrow::new(full_tickets(&inst)).solve(&inst);
        let a_no = availability(&inst, &no_rest, &cfg);
        let a_full = availability(&inst, &full, &cfg);
        assert!(
            a_full >= a_no - 1e-6,
            "restoration must not hurt availability: {a_full} vs {a_no}"
        );
    }

    #[test]
    fn availability_guaranteed_throughput_is_monotone_in_beta() {
        let inst = instance(3.0);
        let out = Ffc::k1().solve(&inst);
        let cfg = PlaybackConfig::default();
        let t90 = availability_guaranteed_throughput(&inst, &out, 0.90, &cfg);
        let t999 = availability_guaranteed_throughput(&inst, &out, 0.999, &cfg);
        assert!(t999 <= t90 + 1e-9, "stricter target cannot allow more: {t999} vs {t90}");
    }

    #[test]
    fn router_ports_favor_restoration() {
        let inst = instance(2.0);
        let cfg = PlaybackConfig::default();
        let full = Arrow::new(full_tickets(&inst)).solve(&inst);
        let ffc = Ffc::k1().solve(&inst);
        let ports_arrow = required_router_ports(&inst, &full, 0.999, &cfg);
        let ports_ffc = required_router_ports(&inst, &ffc, 0.999, &cfg);
        assert!(
            ports_arrow <= ports_ffc * 1.5,
            "ARROW ports {ports_arrow} should not exceed FFC {ports_ffc} by much"
        );
    }

    #[test]
    fn normalization_lands_at_full_satisfaction() {
        let inst = instance(1.0);
        let s = normalize_demand_scale(&inst);
        assert!(s > 0.0);
        let scaled = inst.scaled(s);
        let out = MaxFlow::default().solve(&scaled);
        let thr = out.alloc.throughput(&scaled);
        assert!(thr >= 0.998, "normalized throughput {thr}");
        // And 10% more demand must not fit fully.
        let over = inst.scaled(s * 1.1);
        let out2 = MaxFlow::default().solve(&over);
        assert!(out2.alloc.throughput(&over) < 0.9999);
    }

    #[test]
    fn playback_respects_restored_capacity_limits() {
        let inst = instance(2.0);
        let out = MaxFlow::default().solve(&inst);
        let q = &inst.scenarios[0];
        let half_ticket = RestorationTicket::uniform(&inst.wan, q, 0.5);
        let d = play_scenario(&inst, &out.alloc, Some(q), Some(&half_ticket), &Default::default());
        for (k, &load) in d.link_loads.iter().enumerate() {
            let DirLink(link, forward) = DirLink::from_index(k);
            let cap = if q.failed_links.contains(&link) {
                half_ticket.restored_gbps(link)
            } else {
                inst.wan.link(link).capacity_gbps
            };
            assert!(load <= cap * (1.0 + 1e-6) + 1e-6, "link {k} load {load} > cap {cap}");
            assert_eq!(d.load_on(link, forward), load);
        }
        // Partial restoration beats no restoration.
        let none = play_scenario(&inst, &out.alloc, Some(q), None, &Default::default());
        assert!(d.satisfaction >= none.satisfaction - 1e-9);
    }

    /// Every bit a play returns.
    fn bits(d: &ScenarioDelivery) -> Vec<u64> {
        let values = d.delivered.iter().chain(&d.link_loads).chain([&d.satisfaction]);
        values.map(|v| v.to_bits()).collect()
    }

    /// `inst`, a MaxFlow allocation, scenario 0, and a ticket restoring
    /// half of every link it fails.
    fn half_restored() -> (TeInstance, TeAllocation, FailureScenario, RestorationTicket) {
        let inst = instance(3.0);
        let alloc = MaxFlow::default().solve(&inst).alloc;
        let q = inst.scenarios[0].clone();
        let ticket = RestorationTicket::uniform(&inst.wan, &q, 0.5);
        (inst, alloc, q, ticket)
    }

    #[test]
    fn ticket_naming_an_unknown_link_plays_like_the_ticket_without_it() {
        let (inst, alloc, q, ticket) = half_restored();
        let cfg = PlaybackConfig::default();
        let mut padded = ticket.clone();
        padded.restored.insert(0, (IpLinkId(inst.wan.links.len()), 75.0));
        padded.restored.push((IpLinkId(usize::MAX), 75.0));
        assert_eq!(
            bits(&play_scenario(&inst, &alloc, Some(&q), Some(&padded), &cfg)),
            bits(&play_scenario(&inst, &alloc, Some(&q), Some(&ticket), &cfg)),
        );
    }

    #[test]
    fn scenario_failing_an_unknown_link_plays_like_the_scenario_without_it() {
        let (inst, alloc, q, ticket) = half_restored();
        let cfg = PlaybackConfig::default();
        let mut padded = q.clone();
        padded.failed_links.insert(0, IpLinkId(inst.wan.links.len() + 3));
        padded.failed_links.push(IpLinkId(usize::MAX));
        for t in [None, Some(&ticket)] {
            assert_eq!(
                bits(&play_scenario(&inst, &alloc, Some(&padded), t, &cfg)),
                bits(&play_scenario(&inst, &alloc, Some(&q), t, &cfg)),
            );
        }
    }

    #[test]
    fn ticket_listing_a_link_twice_keeps_the_first_entry() {
        let (inst, alloc, q, ticket) = half_restored();
        let cfg = PlaybackConfig::default();
        let (link, gbps) = ticket.restored[0];
        let mut twice = ticket.clone();
        twice.restored.push((link, 0.0));
        assert_eq!(twice.restored_gbps(link), gbps);
        assert_eq!(
            bits(&play_scenario(&inst, &alloc, Some(&q), Some(&twice), &cfg)),
            bits(&play_scenario(&inst, &alloc, Some(&q), Some(&ticket), &cfg)),
        );
        // The other order restores nothing on `link`, and that shows.
        twice.restored.rotate_right(1);
        assert_eq!(twice.restored_gbps(link), 0.0);
        assert_ne!(
            bits(&play_scenario(&inst, &alloc, Some(&q), Some(&twice), &cfg)),
            bits(&play_scenario(&inst, &alloc, Some(&q), Some(&ticket), &cfg)),
        );
    }

    #[test]
    fn respread_mode_never_delivers_less() {
        let inst = instance(2.0);
        let out = Ecmp.solve(&inst);
        for q in &inst.scenarios {
            let frozen = play_scenario(&inst, &out.alloc, Some(q), None, &Default::default());
            let spread =
                play_scenario(&inst, &out.alloc, Some(q), None, &PlaybackConfig { respread: true });
            // Respread pushes the full b_f onto survivors; with capacity
            // scaling it can congest, but in the typical case it delivers
            // at least as much offered traffic.
            assert!(spread.satisfaction >= frozen.satisfaction - 0.05);
        }
    }
}
