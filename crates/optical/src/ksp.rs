//! Shortest and k-shortest paths: the workspace's one path search.
//!
//! Surrogate restoration paths are computed with Yen's algorithm \[86\] over
//! the fiber graph, weighting edges by physical length (which is what
//! bounds modulation reach, Appendix A.2 "Routing the restored
//! wavelengths"). Cut fibers are excluded from the search. IP tunnels
//! (`arrow_te::build_instance`, §6 "Tunnel selection") come from the same
//! [`dijkstra`] and [`yen`] over the IP graph.
//!
//! A graph is a node count plus an adjacency closure yielding each node's
//! [`Step`]s in a fixed order. The heap pops in (distance, node index)
//! order, so exact distance ties settle the lowest node first.

use crate::graph::{FiberId, OpticalNetwork, RoadmId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One edge out of a node: the edge id, the neighbour it reaches, and its
/// weight.
pub type Step<E> = (E, usize, f64);

/// A loop-free route: its steps from the source, and their weight summed
/// in order.
#[derive(Debug, Clone, PartialEq)]
pub struct Route<E> {
    /// Steps in order from source to destination.
    pub steps: Vec<Step<E>>,
    /// Total weight.
    pub length: f64,
}

/// A loop-free fiber path with its physical length.
#[derive(Debug, Clone, PartialEq)]
pub struct FiberPath {
    /// Fibers in order from source to destination.
    pub fibers: Vec<FiberId>,
    /// Total physical length in km.
    pub length_km: f64,
}

impl From<Route<FiberId>> for FiberPath {
    fn from(route: Route<FiberId>) -> Self {
        FiberPath { fibers: route.steps.iter().map(|s| s.0).collect(), length_km: route.length }
    }
}

/// Shortest route from `src` to `dst` over the graph of `n` nodes whose
/// steps out of node `v` are `adjacency(v)`, avoiding the edges in
/// `banned` and the nodes in `banned_nodes`. Relaxation is strict, so of
/// two equally short ways into a node the first one found stands. Returns
/// `None` if disconnected.
pub fn dijkstra<E, I>(
    n: usize,
    adjacency: impl Fn(usize) -> I,
    src: usize,
    dst: usize,
    banned: &[E],
    banned_nodes: &[usize],
) -> Option<Route<E>>
where
    E: Copy + PartialEq,
    I: IntoIterator<Item = Step<E>>,
{
    if banned_nodes.contains(&src) || banned_nodes.contains(&dst) {
        return None;
    }
    let mut dist = vec![f64::INFINITY; n];
    let mut prev: Vec<Option<(usize, E, f64)>> = vec![None; n];
    let mut done = vec![false; n];
    dist[src] = 0.0;
    // A min-heap on (distance, node): distances are non-negative, and
    // non-negative f64s order as their bit patterns do.
    let mut heap = BinaryHeap::from([Reverse((0.0f64.to_bits(), src))]);
    while let Some(Reverse((_, node))) = heap.pop() {
        if done[node] {
            continue;
        }
        done[node] = true;
        if node == dst {
            break;
        }
        // A node's first pop carries its final distance; later ones are stale.
        let d = dist[node];
        for (edge, next, weight) in adjacency(node) {
            if banned.contains(&edge) || banned_nodes.contains(&next) || done[next] {
                continue;
            }
            let nd = d + weight;
            if nd < dist[next] {
                dist[next] = nd;
                prev[next] = Some((node, edge, weight));
                heap.push(Reverse((nd.to_bits(), next)));
            }
        }
    }
    if !dist[dst].is_finite() {
        return None;
    }
    let mut steps = Vec::new();
    let mut at = dst;
    while at != src {
        // Finite distance implies an unbroken predecessor chain to src.
        let (p, edge, weight) = prev[at]?;
        steps.push((edge, at, weight));
        at = p;
    }
    steps.reverse();
    Some(Route { steps, length: dist[dst] })
}

/// Yen's k-shortest loop-free routes from `src` to `dst` over the graph of
/// [`dijkstra`], avoiding `banned` edges, with a length cap (`max_length`,
/// inclusive).
///
/// Returns up to `k` routes sorted by ascending length; fewer if the graph
/// does not contain that many distinct routes within the cap.
pub fn yen<E, I>(
    n: usize,
    adjacency: impl Fn(usize) -> I,
    src: usize,
    dst: usize,
    k: usize,
    banned: &[E],
    max_length: f64,
) -> Vec<Route<E>>
where
    E: Copy + PartialEq,
    I: IntoIterator<Item = Step<E>>,
{
    let mut accepted: Vec<Route<E>> = Vec::new();
    match dijkstra(n, &adjacency, src, dst, banned, &[]) {
        Some(first) if k > 0 && first.length <= max_length => accepted.push(first),
        _ => return accepted,
    }
    let mut candidates: Vec<Route<E>> = Vec::new();
    while accepted.len() < k {
        let last = &accepted[accepted.len() - 1];
        // Root nodes are banned (loop-freedom); they grow one spur at a time.
        let mut node_ban = Vec::new();
        let mut spur_node = src;
        // Branch at every spur node of the previous route.
        for (spur_idx, &(_, reached, _)) in last.steps.iter().enumerate() {
            let root = &last.steps[..spur_idx];
            // Ban edges that would recreate an already-accepted route with
            // the same root.
            let mut edge_ban = banned.to_vec();
            for p in &accepted {
                if p.steps.len() > spur_idx && p.steps[..spur_idx] == *root {
                    edge_ban.push(p.steps[spur_idx].0);
                }
            }
            if let Some(spur) = dijkstra(n, &adjacency, spur_node, dst, &edge_ban, &node_ban) {
                let steps = [root, &spur.steps].concat();
                let length = steps.iter().map(|s| s.2).sum();
                if length <= max_length
                    && !accepted.iter().chain(&candidates).any(|p| p.steps == steps)
                {
                    candidates.push(Route { steps, length });
                }
            }
            node_ban.push(spur_node);
            spur_node = reached;
        }
        // Promote the shortest candidate.
        let shorter =
            |&a: &usize, &b: &usize| candidates[a].length.total_cmp(&candidates[b].length);
        let Some(best) = (0..candidates.len()).min_by(shorter) else { break };
        accepted.push(candidates.swap_remove(best));
    }
    accepted
}

/// The fiber graph's steps out of ROADM `v`: its incident fibers in
/// [`OpticalNetwork::incident_fibers`] order, weighted by length.
fn fiber_steps(net: &OpticalNetwork, v: usize) -> impl Iterator<Item = Step<FiberId>> + '_ {
    net.incident_fibers(RoadmId(v)).iter().map(move |&f| {
        let fiber = net.fiber(f);
        (f, fiber.other_end(RoadmId(v)).0, fiber.length_km)
    })
}

/// Shortest path from `src` to `dst` by fiber length, avoiding the fibers in
/// `banned` and the ROADMs in `banned_nodes`. Returns `None` if disconnected.
pub fn shortest_path(
    net: &OpticalNetwork,
    src: RoadmId,
    dst: RoadmId,
    banned: &[FiberId],
    banned_nodes: &[RoadmId],
) -> Option<FiberPath> {
    let banned_nodes: Vec<usize> = banned_nodes.iter().map(|r| r.0).collect();
    let adjacency = |v| fiber_steps(net, v);
    dijkstra(net.num_roadms(), adjacency, src.0, dst.0, banned, &banned_nodes).map(FiberPath::from)
}

/// Yen's k-shortest loop-free paths from `src` to `dst`, avoiding `banned`
/// fibers, with an optional length cap (`max_length_km`, inclusive).
///
/// Returns up to `k` paths sorted by ascending length; fewer if the graph
/// does not contain that many distinct paths within the cap.
pub fn k_shortest_paths(
    net: &OpticalNetwork,
    src: RoadmId,
    dst: RoadmId,
    k: usize,
    banned: &[FiberId],
    max_length_km: f64,
) -> Vec<FiberPath> {
    let adjacency = |v| fiber_steps(net, v);
    yen(net.num_roadms(), adjacency, src.0, dst.0, k, banned, max_length_km)
        .into_iter()
        .map(FiberPath::from)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Square with a diagonal: A-B (1), B-C (1), C-D (1), D-A (1), A-C (1.5).
    fn square() -> (OpticalNetwork, Vec<RoadmId>, Vec<FiberId>) {
        let mut net = OpticalNetwork::new(8);
        let r = net.add_roadms(4);
        let f = vec![
            net.add_fiber(r[0], r[1], 1.0).unwrap(),
            net.add_fiber(r[1], r[2], 1.0).unwrap(),
            net.add_fiber(r[2], r[3], 1.0).unwrap(),
            net.add_fiber(r[3], r[0], 1.0).unwrap(),
            net.add_fiber(r[0], r[2], 1.5).unwrap(),
        ];
        (net, r, f)
    }

    #[test]
    fn dijkstra_finds_shortest() {
        let (net, r, f) = square();
        let p = shortest_path(&net, r[0], r[2], &[], &[]).unwrap();
        assert_eq!(p.fibers, vec![f[4]]);
        assert_eq!(p.length_km, 1.5);
    }

    #[test]
    fn dijkstra_respects_bans() {
        let (net, r, f) = square();
        let p = shortest_path(&net, r[0], r[2], &[f[4]], &[]).unwrap();
        assert_eq!(p.length_km, 2.0);
        assert_eq!(p.fibers.len(), 2);
    }

    #[test]
    fn dijkstra_reports_disconnection() {
        let (net, r, f) = square();
        // Cut everything incident to r0.
        assert!(shortest_path(&net, r[0], r[2], &[f[0], f[3], f[4]], &[]).is_none());
    }

    #[test]
    fn yen_enumerates_three_paths_in_order() {
        let (net, r, _) = square();
        let paths = k_shortest_paths(&net, r[0], r[2], 5, &[], f64::INFINITY);
        assert_eq!(paths.len(), 3);
        assert_eq!(paths[0].length_km, 1.5); // diagonal
        assert_eq!(paths[1].length_km, 2.0); // via B or D
        assert_eq!(paths[2].length_km, 2.0); // the other one
                                             // All paths are distinct.
        assert_ne!(paths[1].fibers, paths[2].fibers);
    }

    #[test]
    fn yen_applies_length_cap() {
        let (net, r, _) = square();
        let paths = k_shortest_paths(&net, r[0], r[2], 5, &[], 1.6);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].length_km, 1.5);
    }

    #[test]
    fn yen_paths_are_simple() {
        let (net, r, _) = square();
        for p in k_shortest_paths(&net, r[0], r[2], 5, &[], f64::INFINITY) {
            // A walk over m fibers is simple iff it touches m + 1 ROADMs.
            let mut nodes: Vec<RoadmId> =
                p.fibers.iter().flat_map(|&f| [net.fiber(f).a, net.fiber(f).b]).collect();
            nodes.sort();
            nodes.dedup();
            assert_eq!(nodes.len(), p.fibers.len() + 1, "loop found in {:?}", p.fibers);
        }
    }

    #[test]
    fn yen_returns_nothing_for_k_zero() {
        let (net, r, _) = square();
        assert!(k_shortest_paths(&net, r[0], r[2], 0, &[], f64::INFINITY).is_empty());
        assert_eq!(k_shortest_paths(&net, r[0], r[2], 1, &[], f64::INFINITY).len(), 1);
    }

    #[test]
    fn yen_with_banned_fibers() {
        let (net, r, f) = square();
        let paths = k_shortest_paths(&net, r[0], r[2], 5, &[f[4]], f64::INFINITY);
        assert_eq!(paths.len(), 2);
        assert!(paths.iter().all(|p| !p.fibers.contains(&f[4])));
    }
}
