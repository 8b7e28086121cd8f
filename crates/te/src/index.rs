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
//! capacity each got back. [`ScenarioOverlay`] expands the two id lists
//! into dense per-link lanes once, then classifies every tunnel in one
//! pass over the flat hop keys. Playback and the LP builders read link
//! state and tunnel state from it instead of searching the lists per hop.

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
    /// Per IP link: failed under the scenario.
    failed: Vec<bool>,
    /// Per IP link: Gbps the ticket restores (0 where it names nothing).
    restored: Vec<f64>,
    /// Per tunnel.
    states: Vec<TunnelState>,
}

impl ScenarioOverlay {
    /// Expands `scenario` and `ticket` over `inst`. Link ids the WAN does
    /// not have are ignored, as the list searches this replaces never
    /// matched them; a link a ticket lists twice keeps its first entry,
    /// as [`RestorationTicket::restored_gbps`] does.
    pub(crate) fn new(
        inst: &TeInstance,
        scenario: Option<&FailureScenario>,
        ticket: Option<&RestorationTicket>,
    ) -> Self {
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
        ScenarioOverlay { failed, restored, states }
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
    pub(crate) fn capacity_gbps(&self, inst: &TeInstance, link: usize) -> f64 {
        if self.failed[link] {
            self.restored[link]
        } else {
            inst.wan.links[link].capacity_gbps
        }
    }
}
