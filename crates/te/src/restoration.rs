//! Restoration candidates (LotteryTickets) as TE input.
//!
//! These are plain data types: a [`RestorationTicket`] records, for one
//! failure scenario, how much capacity each failed IP link would get back
//! (`r_e^{z,q}` in Table 2). Ticket *generation* (the RWA seed + randomized
//! rounding of Algorithm 1) lives in `arrow-core`; keeping the data types
//! here lets the TE formulations consume tickets without a dependency
//! cycle.

use arrow_topology::hash::{fnv1a_word, FNV1A_OFFSET};
use arrow_topology::IpLinkId;

/// One restoration candidate for one failure scenario: restorable Gbps per
/// failed IP link (links absent from the map restore nothing).
#[derive(Debug, Clone, PartialEq)]
pub struct RestorationTicket {
    /// `(failed link, restorable capacity in Gbps)` pairs.
    pub restored: Vec<(IpLinkId, f64)>,
}

impl RestorationTicket {
    /// A ticket restoring nothing (the degenerate candidate).
    pub fn empty() -> Self {
        RestorationTicket { restored: Vec::new() }
    }

    /// Restorable capacity of `link` under this ticket (0 if absent).
    pub fn restored_gbps(&self, link: IpLinkId) -> f64 {
        self.restored.iter().find(|(l, _)| *l == link).map(|&(_, g)| g).unwrap_or(0.0)
    }

    /// Total restored capacity across links.
    pub fn total_gbps(&self) -> f64 {
        self.restored.iter().map(|&(_, g)| g).sum()
    }

    /// The set of links with positive restoration — the ticket's *support*.
    /// Tickets with equal support yield the same restorable-tunnel sets
    /// `Y_f^{z,q}`, which the Phase-I builder exploits to deduplicate
    /// constraints.
    pub fn support(&self) -> Vec<IpLinkId> {
        let mut s: Vec<IpLinkId> =
            self.restored.iter().filter(|&&(_, g)| g > 0.0).map(|&(l, _)| l).collect();
        s.sort();
        s
    }
}

/// All restoration candidates for every failure scenario, parallel to the
/// instance's scenario list: `tickets[q]` holds `Z^q`.
///
/// `PartialEq` is structural and exact (bitwise on the Gbps values) — the
/// offline stage's determinism tests rely on it to assert byte-identical
/// generation across thread counts.
///
/// A set is either *full* (entry `q` describes global scenario `q`; built
/// with [`TicketSet::full`]) or a *shard* of a larger universe (entries
/// cover a subset of global scenario indices; built with
/// [`TicketSet::sharded`]). [`TicketSet::scenario_indices`] records the
/// mapping either way; a shard's entry for global scenario `q` equals the
/// full set's entry `q`, byte for byte.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TicketSet {
    /// Per-scenario ticket lists.
    pub per_scenario: Vec<Vec<RestorationTicket>>,
    /// Global scenario index described by each `per_scenario` entry,
    /// ascending. A full set carries exactly `0..per_scenario.len()`; a
    /// shard carries the (strided) subset its `ShardSpec` selected.
    pub scenario_indices: Vec<usize>,
}

impl TicketSet {
    /// A *full* set: entry `q` holds the candidates for global scenario
    /// `q`. This is what the TE formulations consume.
    pub fn full(per_scenario: Vec<Vec<RestorationTicket>>) -> Self {
        let scenario_indices = (0..per_scenario.len()).collect();
        TicketSet { per_scenario, scenario_indices }
    }

    /// A *shard*: explicit `(global scenario index, tickets)` entries.
    /// Entries are sorted by index so equal coverage means equal bytes no
    /// matter what order the shard produced them in.
    pub fn sharded(mut entries: Vec<(usize, Vec<RestorationTicket>)>) -> Self {
        entries.sort_by_key(|&(q, _)| q);
        let scenario_indices = entries.iter().map(|&(q, _)| q).collect();
        let per_scenario = entries.into_iter().map(|(_, t)| t).collect();
        TicketSet { per_scenario, scenario_indices }
    }

    /// A set with no restoration at all (every scheme degenerates to
    /// failure-aware TE without restoration).
    pub fn none(num_scenarios: usize) -> Self {
        TicketSet::full(vec![vec![RestorationTicket::empty()]; num_scenarios])
    }

    /// Whether this set is full (covers exactly `0..n` in order) rather
    /// than a shard of a larger universe.
    pub fn is_full(&self) -> bool {
        self.scenario_indices.len() == self.per_scenario.len()
            && self.scenario_indices.iter().copied().eq(0..self.per_scenario.len())
    }

    /// Tickets for scenario index `q`.
    ///
    /// Positional: on a full set `q` is the global scenario index; on a
    /// shard it is the position within the shard (`scenario_indices[q]`
    /// gives the global index).
    pub fn for_scenario(&self, q: usize) -> &[RestorationTicket] {
        &self.per_scenario[q]
    }

    /// Largest per-scenario ticket count.
    pub fn max_tickets(&self) -> usize {
        self.per_scenario.iter().map(|t| t.len()).max().unwrap_or(0)
    }

    /// Total tickets across all scenarios.
    pub fn total_tickets(&self) -> usize {
        self.per_scenario.iter().map(|t| t.len()).sum()
    }

    /// An order-sensitive 64-bit digest of the full set (FNV-1a over the
    /// structure, the scenario indices, and the exact bit patterns of
    /// every Gbps value).
    ///
    /// Two sets digest equal iff they are `==`; the determinism tests use
    /// it for a compact cross-thread-count and cross-shard fingerprint,
    /// and it is cheap enough to log per offline run.
    pub fn digest(&self) -> u64 {
        let mut h = FNV1A_OFFSET;
        let mut mix = |word: u64| h = fnv1a_word(h, word);
        mix(self.per_scenario.len() as u64);
        for (&q, tickets) in self.scenario_indices.iter().zip(&self.per_scenario) {
            mix(q as u64);
            mix(tickets.len() as u64);
            for t in tickets {
                mix(t.restored.len() as u64);
                for &(link, gbps) in &t.restored {
                    mix(link.0 as u64);
                    mix(gbps.to_bits());
                }
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticket_lookup_and_total() {
        let t = RestorationTicket {
            restored: vec![(IpLinkId(3), 200.0), (IpLinkId(7), 0.0), (IpLinkId(1), 300.0)],
        };
        assert_eq!(t.restored_gbps(IpLinkId(3)), 200.0);
        assert_eq!(t.restored_gbps(IpLinkId(9)), 0.0);
        assert_eq!(t.total_gbps(), 500.0);
        assert_eq!(t.support(), vec![IpLinkId(1), IpLinkId(3)]);
    }

    #[test]
    fn none_set_shape() {
        let s = TicketSet::none(4);
        assert_eq!(s.per_scenario.len(), 4);
        assert_eq!(s.max_tickets(), 1);
        assert_eq!(s.for_scenario(2)[0], RestorationTicket::empty());
        assert_eq!(RestorationTicket::empty().total_gbps(), 0.0);
    }
}
