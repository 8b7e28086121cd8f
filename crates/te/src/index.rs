//! The dense link/tunnel index of a [`TeInstance`] and the per-scenario
//! overlay read through it.
//!
//! **Base.** Directed links are numbered `2·link + forward`
//! ([`DirLink::index`]) — the order `DirLink`'s `Ord` already gives, so a
//! walk over keys visits capacity rows in the order the LP builders always
//! emitted them. [`LinkIndex`] holds two CSR adjacencies over that
//! numbering, built once by `build_instance`: directed link → tunnels
//! (ascending [`TunnelId`]) and tunnel → directed-link keys (hop order).
//!
//! **Overlay.** A failure scenario and its restoration ticket are a small
//! per-link delta over that base: which links are down, and how much
//! capacity each got back. [`ScenarioOverlay`] starts from the base —
//! every link at its installed capacity, every tunnel surviving — and
//! visits only the base's rows of the failed links, so its cost is the
//! tunnels the scenario cuts, not every hop of every tunnel. Playback and
//! the LP builders read link capacity and tunnel state from it instead of
//! searching the lists per hop.

use crate::restoration::RestorationTicket;
use crate::tunnels::{DirLink, TeInstance, Tunnel, TunnelId};
use arrow_topology::{FailureScenario, IpLinkId};

/// CSR adjacency between directed links and tunnels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LinkIndex {
    /// The tunnels crossing directed link `k`, ascending, are
    /// `on[on_start[k]..on_start[k + 1]]`.
    on_start: Vec<usize>,
    on: Vec<TunnelId>,
    /// The directed-link keys of tunnel `t`'s hops, in hop order, are
    /// `hops[hop_start[t]..hop_start[t + 1]]`.
    hop_start: Vec<usize>,
    hops: Vec<usize>,
}

impl LinkIndex {
    /// Indexes `tunnels` over a WAN of `num_links` IP links.
    pub(crate) fn build(num_links: usize, tunnels: &[Tunnel]) -> Self {
        let mut rows: Vec<Vec<TunnelId>> = vec![Vec::new(); 2 * num_links];
        let mut hop_start = vec![0];
        let mut hops = Vec::new();
        for (ti, t) in tunnels.iter().enumerate() {
            for h in &t.hops {
                let k = DirLink(h.link, h.forward).index();
                hops.push(k);
                // Listed once even if a tunnel crossed a link twice.
                if rows[k].last() != Some(&TunnelId(ti)) {
                    rows[k].push(TunnelId(ti));
                }
            }
            hop_start.push(hops.len());
        }
        let mut on_start = vec![0];
        let mut on = Vec::with_capacity(hops.len());
        for row in rows {
            on.extend(row);
            on_start.push(on.len());
        }
        LinkIndex { on_start, on, hop_start, hops }
    }

    /// Number of directed-link keys (`2 ·` links).
    pub(crate) fn num_keys(&self) -> usize {
        self.on_start.len() - 1
    }

    /// Number of tunnels indexed.
    pub(crate) fn num_tunnels(&self) -> usize {
        self.hop_start.len() - 1
    }

    /// Tunnels crossing `link` in direction `forward`, ascending. Empty
    /// for a link the WAN does not have (a ticket may name one).
    pub(crate) fn tunnels_on(&self, link: IpLinkId, forward: bool) -> &[TunnelId] {
        if link.0 >= self.num_keys() / 2 {
            return &[];
        }
        self.row(DirLink(link, forward).index())
    }

    /// Tunnels crossing directed link `k < num_keys()`, ascending.
    pub(crate) fn row(&self, k: usize) -> &[TunnelId] {
        &self.on[self.on_start[k]..self.on_start[k + 1]]
    }

    /// Directed-link keys of tunnel `t`'s hops, in hop order.
    pub(crate) fn hops_of(&self, t: usize) -> &[usize] {
        &self.hops[self.hop_start[t]..self.hop_start[t + 1]]
    }
}

/// How one tunnel fares under a scenario and its ticket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TunnelState {
    /// Crosses no failed link.
    Survives,
    /// Crosses at least one failed link, and every failed link it crosses
    /// has positive restored capacity.
    Restorable,
    /// Crosses a failed link the ticket leaves dark.
    Dead,
}

/// One scenario and one ticket, expanded over an instance's links and
/// tunnels. `None` for the scenario is the healthy network; `None` for
/// the ticket restores nothing.
#[derive(Debug, Clone)]
pub(crate) struct ScenarioOverlay {
    /// Per IP link (per direction): what the ticket restores where the
    /// scenario failed the link, its installed capacity elsewhere.
    capacity: Vec<f64>,
    /// Per tunnel.
    states: Vec<TunnelState>,
}

impl ScenarioOverlay {
    /// Expands `scenario` and `ticket` over `inst`: only the tunnels on
    /// the failed links are visited. A failed link the ticket leaves dark
    /// (`<= 0` Gbps, or not listed) kills every tunnel on it; any other
    /// failed link makes the tunnels on it restorable unless a dark one
    /// already killed them. Link ids the WAN does not have are ignored,
    /// and a link a ticket lists twice keeps its first entry, as
    /// [`RestorationTicket::restored_gbps`] does.
    pub(crate) fn new(
        inst: &TeInstance,
        scenario: Option<&FailureScenario>,
        ticket: Option<&RestorationTicket>,
    ) -> Self {
        let index = inst.index();
        let mut capacity: Vec<f64> = inst.wan.links.iter().map(|l| l.capacity_gbps).collect();
        let mut states = vec![TunnelState::Survives; index.num_tunnels()];
        for &l in scenario.iter().flat_map(|q| &q.failed_links) {
            let Some(cap) = capacity.get_mut(l.0) else { continue };
            *cap = ticket.map_or(0.0, |t| t.restored_gbps(l));
            let dark = *cap <= 0.0;
            for &t in index.row(2 * l.0).iter().chain(index.row(2 * l.0 + 1)) {
                let state = &mut states[t.0];
                if dark {
                    *state = TunnelState::Dead;
                } else if *state == TunnelState::Survives {
                    *state = TunnelState::Restorable;
                }
            }
        }
        ScenarioOverlay { capacity, states }
    }

    /// Whether `t` crosses no failed link — membership in `T_f^q`.
    pub(crate) fn survives(&self, t: TunnelId) -> bool {
        self.states[t.0] == TunnelState::Survives
    }

    /// Whether `t` crosses a failed link and the ticket restores every
    /// failed link it crosses (§3.3: `t ∈ Y_f^{z,q}`).
    pub(crate) fn restorable(&self, t: TunnelId) -> bool {
        self.states[t.0] == TunnelState::Restorable
    }

    /// Whether `t` carries traffic: it survives or is restorable.
    pub(crate) fn alive(&self, t: TunnelId) -> bool {
        self.states[t.0] != TunnelState::Dead
    }

    /// Capacity of IP link `link` (per direction): what the ticket
    /// restored if the scenario failed it, its installed capacity if not.
    pub(crate) fn capacity_gbps(&self, link: usize) -> f64 {
        self.capacity[link]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tunnels::{build_instance, TunnelConfig};
    use arrow_topology::{
        b4, compile_universe, generate_failures, gravity_matrices, ibm, FailureConfig,
        TrafficConfig, UniverseConfig, Wan,
    };

    /// The classification the overlay made before it read the failed
    /// links' rows: dense `failed` / `restored` lanes, then every hop of
    /// every tunnel. Returns the tunnel states and the per-link capacity.
    fn per_hop(
        inst: &TeInstance,
        scenario: Option<&FailureScenario>,
        ticket: Option<&RestorationTicket>,
    ) -> (Vec<TunnelState>, Vec<f64>) {
        let num_links = inst.wan.links.len();
        let mut failed = vec![false; num_links];
        for l in scenario.iter().flat_map(|q| &q.failed_links) {
            if let Some(f) = failed.get_mut(l.0) {
                *f = true;
            }
        }
        let mut restored = vec![0.0; num_links];
        // Back to front, so the first entry for a link is the one left.
        for &(l, gbps) in ticket.iter().flat_map(|t| t.restored.iter().rev()) {
            if let Some(r) = restored.get_mut(l.0) {
                *r = gbps;
            }
        }
        let index = inst.index();
        let states = (0..index.num_tunnels())
            .map(|t| {
                let mut state = TunnelState::Survives;
                for &k in index.hops_of(t) {
                    if failed[k / 2] {
                        if restored[k / 2] <= 0.0 {
                            return TunnelState::Dead;
                        }
                        state = TunnelState::Restorable;
                    }
                }
                state
            })
            .collect();
        let capacity = (0..num_links)
            .map(|l| if failed[l] { restored[l] } else { inst.wan.links[l].capacity_gbps })
            .collect();
        (states, capacity)
    }

    /// `playback_pin.rs`'s ticket shapes — none; every other failed link
    /// at half capacity; one failed link listed at 0 Gbps; a duplicate
    /// entry plus an unknown id — and two more: one naming a link the
    /// scenario did not fail, and one restoring NaN Gbps.
    fn ticket_shapes(inst: &TeInstance, q: &FailureScenario) -> Vec<Option<RestorationTicket>> {
        let cap = |l: IpLinkId| inst.wan.link(l).capacity_gbps;
        let links = &q.failed_links;
        let whole: Vec<_> = links.iter().map(|&l| (l, cap(l))).collect();
        let half = links.iter().step_by(2).map(|&l| (l, 0.5 * cap(l))).collect();
        let mut one_dark = whole.clone();
        if let Some(last) = one_dark.last_mut() {
            last.1 = 0.0;
        }
        let mut odd = whole.clone();
        if let Some(&(first, _)) = whole.first() {
            odd.push((first, 0.0));
        }
        odd.push((IpLinkId(inst.wan.links.len() + 1), 50.0));
        let mut stray = whole.clone();
        let healthy = (0..inst.wan.links.len()).map(IpLinkId).find(|l| !links.contains(l));
        stray.extend(healthy.map(|l| (l, cap(l))));
        let nan = links.iter().map(|&l| (l, f64::NAN)).collect();
        [half, one_dark, odd, stray, nan]
            .into_iter()
            .map(|restored| Some(RestorationTicket { restored }))
            .chain([None])
            .collect()
    }

    fn assert_matches_per_hop(
        inst: &TeInstance,
        scenario: Option<&FailureScenario>,
        ticket: Option<&RestorationTicket>,
    ) {
        let overlay = ScenarioOverlay::new(inst, scenario, ticket);
        let (states, capacity) = per_hop(inst, scenario, ticket);
        assert_eq!(overlay.states, states, "{scenario:?} under {ticket:?}");
        let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        let lane: Vec<f64> = (0..capacity.len()).map(|l| overlay.capacity_gbps(l)).collect();
        assert_eq!(bits(&lane), bits(&capacity), "{scenario:?} under {ticket:?}");
    }

    /// `wan` with its four most probable cuts, demand ×3, 4 tunnels a flow.
    fn four_scenario_instance(wan: &Wan) -> TeInstance {
        let tms = gravity_matrices(wan, &TrafficConfig { num_matrices: 1, ..Default::default() });
        let failures =
            generate_failures(wan, &FailureConfig { max_scenarios: 4, ..Default::default() });
        let cfg = TunnelConfig { tunnels_per_flow: 4, prefer_fiber_disjoint: true };
        build_instance(wan, &tms[0].scaled(3.0), &failures.failure_scenarios(), &cfg)
    }

    #[test]
    fn overlay_from_failed_link_rows_matches_per_hop_classification() {
        // `playback_b4`'s universe settings; IBM capped as `offline_ibm` is.
        for (wan, max_scenarios) in [(b4(17), 0), (ibm(17), 32)] {
            let cfg = UniverseConfig {
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
            };
            let universe = compile_universe(&wan, &cfg);
            let inst = four_scenario_instance(&wan);
            assert_matches_per_hop(&inst, None, None);
            let mut dead = 0;
            for q in universe.scenarios.iter().map(|c| &c.scenario) {
                for ticket in ticket_shapes(&inst, q) {
                    assert_matches_per_hop(&inst, Some(q), ticket.as_ref());
                }
                let overlay = ScenarioOverlay::new(&inst, Some(q), None);
                dead += overlay.states.iter().filter(|&&s| s == TunnelState::Dead).count();
            }
            assert!(dead > 0, "some scenario must cut a tunnel");
        }
    }
}
