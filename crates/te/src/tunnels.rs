//! IP-layer tunnels and the TE problem instance.
//!
//! Standard TE input (Table 1): flows are site pairs with demands; each
//! flow routes over a fixed set of tunnels (IP-layer paths). Tunnels are
//! selected with k-shortest paths plus a fiber-disjointness preference
//! (§6 "Tunnel selection"), and the selection guarantees at least one
//! residual tunnel per flow under every configured failure scenario by
//! adding scenario-avoiding tunnels where needed.
//!
//! IP links are full-duplex: a tunnel occupies capacity on each link in a
//! specific direction, and capacity constraints are per `(link, direction)`.

use crate::index::LinkIndex;
use arrow_optical::ksp::{dijkstra, yen, Route, Step};
use arrow_optical::FiberId;
use arrow_topology::{FailureScenario, IpLinkId, SiteId, TrafficMatrix, Wan};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Index of a flow within a [`TeInstance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub usize);

/// Index of a tunnel within a [`TeInstance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TunnelId(pub usize);

/// One directed traversal of an IP link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DirectedHop {
    /// The IP link.
    pub link: IpLinkId,
    /// `true` when traversed from `link.a` to `link.b`.
    pub forward: bool,
}

/// A directed capacity key: `(link, direction)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DirLink(pub IpLinkId, pub bool);

impl DirLink {
    /// The key's dense number, `2·link + forward` — ascending in the same
    /// order as `Ord`. Per-directed-link vectors are indexed by it.
    pub fn index(self) -> usize {
        2 * self.0 .0 + self.1 as usize
    }

    /// The key numbered `index`.
    pub fn from_index(index: usize) -> Self {
        DirLink(IpLinkId(index / 2), index % 2 == 1)
    }
}

/// One tunnel: a loop-free IP path serving one flow.
#[derive(Debug, Clone)]
pub struct Tunnel {
    /// The flow this tunnel serves.
    pub flow: FlowId,
    /// Directed hops from the flow's source to its destination.
    pub hops: Vec<DirectedHop>,
    /// Total underlying fiber length (km) — the latency proxy used to rank.
    pub length_km: f64,
}

/// One flow: an ordered site pair with a demand and its tunnel set.
#[derive(Debug, Clone)]
pub struct Flow {
    /// Source site.
    pub src: SiteId,
    /// Destination site.
    pub dst: SiteId,
    /// Demand in Gbps (`d_f`).
    pub demand_gbps: f64,
    /// Tunnels serving this flow (`T_f`).
    pub tunnels: Vec<TunnelId>,
}

/// Tunnel-selection knobs.
#[derive(Debug, Clone)]
pub struct TunnelConfig {
    /// Tunnels per flow (§6: 8 for B4, 12 for IBM, 16 for Facebook).
    pub tunnels_per_flow: usize,
    /// Prefer fiber-disjoint tunnels when ranking candidates.
    pub prefer_fiber_disjoint: bool,
}

impl Default for TunnelConfig {
    fn default() -> Self {
        TunnelConfig { tunnels_per_flow: 8, prefer_fiber_disjoint: true }
    }
}

/// The full TE problem instance: topology + flows + tunnels + scenarios.
///
/// [`build_instance`] is the only constructor. `wan.links`, `tunnels` and
/// every tunnel's `hops` are immutable from then on: the instance carries
/// a dense index over them (`index.rs`) that is built once and
/// shared by [`TeInstance::with_demands`] / [`TeInstance::scaled`], never
/// refreshed. Demands and `scenarios` may change freely.
#[derive(Debug, Clone)]
pub struct TeInstance {
    /// The WAN (IP + optical layers).
    pub wan: Wan,
    /// Flows (`F`), one per ordered site pair with positive demand.
    pub flows: Vec<Flow>,
    /// All tunnels (`T`), flow-owned.
    pub tunnels: Vec<Tunnel>,
    /// Failure scenarios considered (`Q`), failure entries only.
    pub scenarios: Vec<FailureScenario>,
    /// Directed link ↔ tunnel adjacency over `wan.links` and `tunnels`,
    /// shared by every demand variant of the instance.
    index: Arc<LinkIndex>,
}

/// Builds a TE instance from a WAN, a traffic matrix, scenarios, and
/// tunnel-selection settings.
///
/// Tunnel selection: take `3k` Yen candidates, then greedily pick `k`
/// maximizing fiber diversity (if configured), then patch: for every
/// scenario that would kill all of a flow's tunnels, add one tunnel routed
/// around that scenario's failed links (when the IP layer permits).
pub fn build_instance(
    wan: &Wan,
    tm: &TrafficMatrix,
    scenarios: &[FailureScenario],
    cfg: &TunnelConfig,
) -> TeInstance {
    // The IP graph for the path search, built once: per site, its links in
    // id order (the order `Wan::incident_links` yields) with the far end
    // and the link's weight, underlying fiber km + 1 (the +1 breaks ties
    // toward fewer hops).
    let n = wan.num_sites();
    let mut adjacency: Vec<Vec<Step<IpLinkId>>> = vec![Vec::new(); n];
    for (i, l) in wan.links.iter().enumerate() {
        let weight = wan.optical.path_length_km(&wan.optical.lightpath(l.lightpath).path) + 1.0;
        adjacency[l.a.0].push((IpLinkId(i), l.b.0, weight));
        adjacency[l.b.0].push((IpLinkId(i), l.a.0, weight));
    }
    let steps = |v: usize| adjacency[v].iter().copied();
    // Every single-fiber cut that fails a link. FFC-k enumerates *all*
    // k-fiber combinations, so FFC-1 needs every single cut covered, not
    // just the probabilistic subset.
    let single_cuts: Vec<Vec<IpLinkId>> = (0..wan.optical.num_fibers())
        .map(|f| wan.links_failed_by(&[FiberId(f)]))
        .filter(|failed| !failed.is_empty())
        .collect();
    let fibers = |route: &Route<IpLinkId>| -> BTreeSet<FiberId> {
        route
            .steps
            .iter()
            .flat_map(|s| wan.optical.lightpath(wan.link(s.0).lightpath).path.iter().copied())
            .collect()
    };
    let mut flows = Vec::new();
    let mut tunnels: Vec<Tunnel> = Vec::new();
    for (src, dst, demand) in tm.flows() {
        let fid = FlowId(flows.len());
        let k = cfg.tunnels_per_flow;
        let mut cands = yen(n, steps, src.0, dst.0, k * 3, &[], f64::INFINITY);
        // Greedy diversity selection.
        let mut chosen: Vec<Route<IpLinkId>> = Vec::new();
        if cfg.prefer_fiber_disjoint {
            // Fiber sets, built once per candidate and moved with it.
            let mut cand_fibers: Vec<BTreeSet<FiberId>> = cands.iter().map(fibers).collect();
            let mut chosen_fibers: Vec<BTreeSet<FiberId>> = Vec::new();
            while chosen.len() < k && !cands.is_empty() {
                // Score: number of already-chosen tunnels we are fiber-
                // disjoint from (higher better), then shorter length.
                let scores: Vec<f64> = cands
                    .iter()
                    .zip(&cand_fibers)
                    .map(|(route, set)| {
                        let disjoint =
                            chosen_fibers.iter().filter(|cf| cf.is_disjoint(set)).count() as f64;
                        disjoint - route.length / 1e6
                    })
                    .collect();
                let Some(best) =
                    scores.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i)
                else {
                    break;
                };
                chosen.push(cands.swap_remove(best));
                chosen_fibers.push(cand_fibers.swap_remove(best));
            }
        } else {
            cands.truncate(k);
            chosen = cands;
        }
        // Patch: guarantee (where the IP layer permits) a residual tunnel
        // for every instance scenario and for every single-fiber cut (§6
        // "ensuring that there is at least one residual tunnel for every
        // flow under each failure scenario").
        for failed in scenarios.iter().map(|s| &s.failed_links).chain(&single_cuts) {
            let survives = chosen.iter().any(|r| r.steps.iter().all(|s| !failed.contains(&s.0)));
            if !survives {
                if let Some(extra) = dijkstra(n, steps, src.0, dst.0, failed, &[]) {
                    if !chosen.iter().any(|r| r.steps == extra.steps) {
                        chosen.push(extra);
                    }
                }
            }
        }
        let tunnel_ids: Vec<TunnelId> = chosen
            .into_iter()
            .map(|route| {
                // Each hop's direction comes from the site walk out of `src`.
                let from = std::iter::once(src.0).chain(route.steps.iter().map(|s| s.1));
                let hops = route
                    .steps
                    .iter()
                    .zip(from)
                    .map(|(&(link, ..), at)| DirectedHop {
                        link,
                        forward: wan.link(link).a.0 == at,
                    })
                    .collect();
                let tid = TunnelId(tunnels.len());
                tunnels.push(Tunnel { flow: fid, hops, length_km: route.length });
                tid
            })
            .collect();
        flows.push(Flow { src, dst, demand_gbps: demand, tunnels: tunnel_ids });
    }
    let index = Arc::new(LinkIndex::build(wan.links.len(), &tunnels));
    TeInstance { wan: wan.clone(), flows, tunnels, scenarios: scenarios.to_vec(), index }
}

impl TeInstance {
    /// Tunnels of flow `f`.
    pub fn flow_tunnels(&self, f: FlowId) -> &[TunnelId] {
        &self.flows[f.0].tunnels
    }

    /// Total demand in Gbps.
    pub fn total_demand(&self) -> f64 {
        self.flows.iter().map(|f| f.demand_gbps).sum()
    }

    /// The dense link/tunnel index.
    pub(crate) fn index(&self) -> &LinkIndex {
        debug_assert_eq!(
            self.index.num_tunnels(),
            self.tunnels.len(),
            "tunnels changed after build_instance; the index is stale"
        );
        &self.index
    }

    /// All directed capacity keys that appear in some tunnel, ascending.
    pub fn used_dir_links(&self) -> Vec<DirLink> {
        let index = self.index();
        (0..index.num_keys())
            .filter(|&k| !index.row(k).is_empty())
            .map(DirLink::from_index)
            .collect()
    }

    /// Tunnels traversing `link` in direction `forward`, in ascending
    /// [`TunnelId`] order — the column order of every per-direction
    /// capacity row, so LP builders that share it emit identical rows.
    /// Empty for a link the WAN does not have.
    pub fn tunnels_on(&self, link: IpLinkId, forward: bool) -> impl Iterator<Item = TunnelId> + '_ {
        self.index().tunnels_on(link, forward).iter().copied()
    }

    /// Returns a clone with demands replaced from another traffic matrix
    /// (tunnels are demand-independent, so they are reused).
    pub fn with_demands(&self, tm: &TrafficMatrix) -> TeInstance {
        let mut inst = self.clone();
        for f in inst.flows.iter_mut() {
            f.demand_gbps = tm.demand(f.src, f.dst);
        }
        inst
    }

    /// Returns a clone with all demands scaled by `factor`.
    pub fn scaled(&self, factor: f64) -> TeInstance {
        let mut inst = self.clone();
        for f in inst.flows.iter_mut() {
            f.demand_gbps *= factor;
        }
        inst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::ScenarioOverlay;
    use crate::restoration::RestorationTicket;
    use arrow_topology::{b4, generate_failures, gravity_matrices, FailureConfig, TrafficConfig};

    fn small_instance() -> TeInstance {
        let wan = b4(17);
        let tms = gravity_matrices(&wan, &TrafficConfig { num_matrices: 1, ..Default::default() });
        let failures = generate_failures(&wan, &FailureConfig::default());
        build_instance(
            &wan,
            &tms[0],
            &failures.failure_scenarios(),
            &TunnelConfig { tunnels_per_flow: 4, prefer_fiber_disjoint: true },
        )
    }

    #[test]
    fn every_flow_gets_tunnels() {
        let inst = small_instance();
        assert_eq!(inst.flows.len(), 12 * 11);
        for f in &inst.flows {
            assert!(!f.tunnels.is_empty(), "flow {:?}->{:?} has no tunnels", f.src, f.dst);
            assert!(f.tunnels.len() >= 2, "need path diversity");
        }
    }

    #[test]
    fn tunnels_connect_endpoints_loop_free() {
        let inst = small_instance();
        for f in &inst.flows {
            for &tid in &f.tunnels {
                let t = &inst.tunnels[tid.0];
                let walk = t.hops.iter().scan(f.src, |at, h| {
                    *at = inst.wan.link(h.link).other_end(*at);
                    Some(*at)
                });
                let sites: Vec<SiteId> = std::iter::once(f.src).chain(walk).collect();
                assert_eq!(*sites.last().unwrap(), f.dst);
                let mut uniq = sites.clone();
                uniq.sort();
                uniq.dedup();
                assert_eq!(uniq.len(), sites.len(), "tunnel has a loop");
            }
        }
    }

    #[test]
    fn residual_tunnel_exists_for_every_scenario() {
        let inst = small_instance();
        for q in &inst.scenarios {
            let overlay = ScenarioOverlay::new(&inst, Some(q), None);
            for f in &inst.flows {
                let survives = f.tunnels.iter().any(|&t| overlay.survives(t));
                assert!(
                    survives,
                    "flow {:?}->{:?} loses all tunnels under {:?}",
                    f.src, f.dst, q.cut_fibers
                );
            }
        }
    }

    #[test]
    fn restorable_classification() {
        let inst = small_instance();
        let q = &inst.scenarios[0];
        assert!(!q.failed_links.is_empty());
        let failed = q.failed_links[0];
        let ticket = |gbps: f64| RestorationTicket {
            restored: q.failed_links.iter().map(|&l| (l, gbps)).collect(),
        };
        // With full restoration every affected tunnel is restorable...
        let all_restored = ScenarioOverlay::new(&inst, Some(q), Some(&ticket(1000.0)));
        // ...with zero restoration none is.
        let none_restored = ScenarioOverlay::new(&inst, Some(q), Some(&ticket(0.0)));
        let mut found_affected = false;
        for (i, t) in inst.tunnels.iter().enumerate() {
            let tid = TunnelId(i);
            if t.hops.iter().any(|h| h.link == failed) {
                found_affected = true;
                assert!(all_restored.restorable(tid) && all_restored.alive(tid));
                assert!(!none_restored.restorable(tid) && !none_restored.alive(tid));
                assert!(!all_restored.survives(tid) && !none_restored.survives(tid));
            } else if t.hops.iter().all(|h| !q.failed_links.contains(&h.link)) {
                assert!(all_restored.survives(tid) && none_restored.survives(tid));
                assert!(!all_restored.restorable(tid) && all_restored.alive(tid));
            }
        }
        assert!(found_affected, "some tunnel should cross the failed link");
    }

    /// The full scan `tunnels_on` made before the index existed.
    fn scan_tunnels_on(inst: &TeInstance, link: IpLinkId, forward: bool) -> Vec<TunnelId> {
        inst.tunnels
            .iter()
            .enumerate()
            .filter(|(_, t)| t.hops.iter().any(|h| h.link == link && h.forward == forward))
            .map(|(i, _)| TunnelId(i))
            .collect()
    }

    #[test]
    fn index_matches_the_scans_it_replaces() {
        use arrow_topology::ibm;
        for (wan, tunnels_per_flow) in [(b4(17), 4), (b4(17), 8), (ibm(17), 4), (ibm(17), 8)] {
            let tms =
                gravity_matrices(&wan, &TrafficConfig { num_matrices: 2, ..Default::default() });
            let failures = generate_failures(&wan, &FailureConfig::default());
            let cfg = TunnelConfig { tunnels_per_flow, ..Default::default() };
            let inst = build_instance(&wan, &tms[0], &failures.failure_scenarios(), &cfg);
            let mut used = Vec::new();
            for l in (0..wan.links.len()).map(IpLinkId) {
                for forward in [false, true] {
                    let scan = scan_tunnels_on(&inst, l, forward);
                    assert_eq!(inst.tunnels_on(l, forward).collect::<Vec<_>>(), scan);
                    if !scan.is_empty() {
                        used.push(DirLink(l, forward));
                    }
                }
            }
            assert_eq!(inst.used_dir_links(), used);
            // A ticket may name a link this WAN does not have.
            assert_eq!(inst.tunnels_on(IpLinkId(wan.links.len()), true).count(), 0);
            assert_eq!(inst.tunnels_on(IpLinkId(usize::MAX), false).count(), 0);
            for (i, &key) in used.iter().enumerate() {
                assert_eq!(DirLink::from_index(key.index()), key);
                assert!(i == 0 || used[i - 1].index() < key.index(), "numbering follows Ord");
            }
            // Demand swaps carry the index a fresh build would make.
            let fresh = build_instance(&wan, &tms[1], &failures.failure_scenarios(), &cfg);
            assert_eq!(inst.with_demands(&tms[1]).index, fresh.index);
            assert_eq!(inst.scaled(2.5).index, inst.index);
        }
    }

    #[test]
    fn demand_swaps_preserve_tunnels() {
        let wan = b4(17);
        let tms = gravity_matrices(&wan, &TrafficConfig { num_matrices: 2, ..Default::default() });
        let failures = generate_failures(&wan, &FailureConfig::default());
        let inst =
            build_instance(&wan, &tms[0], &failures.failure_scenarios(), &Default::default());
        let inst2 = inst.with_demands(&tms[1]);
        assert_eq!(inst.tunnels.len(), inst2.tunnels.len());
        assert_ne!(inst.total_demand(), inst2.total_demand());
        let scaled = inst.scaled(2.0);
        assert!((scaled.total_demand() - 2.0 * inst.total_demand()).abs() < 1e-6);
    }

    #[test]
    fn tunnel_sets_are_pinned_bit_for_bit() {
        // FNV-1a fold of every tunnel `build_instance` selects — flow, each
        // hop's link and direction, `length_km` bits — at 4 and 8 tunnels
        // per flow, with and without the disjointness preference, under the
        // paper-table goldens' failure set and the benchmark's; and of each
        // WAN's lightpath fiber paths, which the builders route with the
        // same search. A rewrite of the path search must leave these alone.
        use arrow_topology::{facebook_like, ibm};
        let fold = |h: u64, v: u64| (h ^ v).wrapping_mul(0x100_0000_01b3);
        let goldens = [
            (b4(17), FailureConfig { cutoff: 1e-3, max_scenarios: 12 }),
            (ibm(17), FailureConfig { cutoff: 1e-3, max_scenarios: 10 }),
            (facebook_like(17), FailureConfig { cutoff: 2e-4, max_scenarios: 5 }),
        ];
        let mut digests = Vec::new();
        for (wan, golden) in goldens {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for lp in wan.optical.lightpaths() {
                h = lp.path.iter().fold(fold(h, lp.path.len() as u64), |h, f| fold(h, f.0 as u64));
            }
            let tms =
                gravity_matrices(&wan, &TrafficConfig { num_matrices: 1, ..Default::default() });
            for failures in [golden, FailureConfig { max_scenarios: 4, ..Default::default() }] {
                let scenarios = generate_failures(&wan, &failures).failure_scenarios();
                for (tunnels_per_flow, prefer_fiber_disjoint) in
                    [(4, true), (4, false), (8, true), (8, false)]
                {
                    let cfg = TunnelConfig { tunnels_per_flow, prefer_fiber_disjoint };
                    let inst = build_instance(&wan, &tms[0], &scenarios, &cfg);
                    h = fold(h, inst.tunnels.len() as u64);
                    for t in &inst.tunnels {
                        h = fold(fold(h, t.flow.0 as u64), t.length_km.to_bits());
                        h = t.hops.iter().fold(fold(h, t.hops.len() as u64), |h, hop| {
                            fold(fold(h, hop.link.0 as u64), hop.forward as u64)
                        });
                    }
                }
            }
            digests.push(h);
        }
        assert_eq!(
            digests,
            [0x7a18_f143_e398_501f, 0x0f8b_af20_ebbf_a9b3, 0x1368_efee_cf93_addc],
            "tunnel bits moved (B4, IBM, Facebook-like): {digests:#018x?}"
        );
    }

    #[test]
    fn used_dir_links_are_deduped() {
        let inst = small_instance();
        let keys = inst.used_dir_links();
        let mut copy = keys.clone();
        copy.dedup();
        assert_eq!(copy.len(), keys.len());
        assert!(!keys.is_empty());
    }
}
