//! Shortest and k-shortest fiber paths.
//!
//! Surrogate restoration paths are computed with Yen's algorithm \[86\] over
//! the fiber graph, weighting edges by physical length (which is what
//! bounds modulation reach, Appendix A.2 "Routing the restored
//! wavelengths"). Cut fibers are excluded from the search.

use crate::graph::{FiberId, OpticalNetwork, RoadmId};
use std::collections::BinaryHeap;

/// A loop-free fiber path with its physical length.
#[derive(Debug, Clone, PartialEq)]
pub struct FiberPath {
    /// Fibers in order from source to destination.
    pub fibers: Vec<FiberId>,
    /// Total physical length in km.
    pub length_km: f64,
}

/// Max-heap entry flipped for Dijkstra's min-heap behaviour.
#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    node: usize,
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse: smallest distance pops first. total_cmp keeps the
        // comparator total even if a degenerate graph yields NaN weights.
        other.dist.total_cmp(&self.dist)
    }
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
    let n = net.num_roadms();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev: Vec<Option<(usize, FiberId)>> = vec![None; n];
    let mut done = vec![false; n];
    if banned_nodes.contains(&src) || banned_nodes.contains(&dst) {
        return None;
    }
    dist[src.0] = 0.0;
    let mut heap = BinaryHeap::new();
    heap.push(HeapEntry { dist: 0.0, node: src.0 });
    while let Some(HeapEntry { dist: d, node }) = heap.pop() {
        if done[node] {
            continue;
        }
        done[node] = true;
        if node == dst.0 {
            break;
        }
        for &fid in net.incident_fibers(RoadmId(node)) {
            if banned.contains(&fid) {
                continue;
            }
            let fiber = net.fiber(fid);
            let next = fiber.other_end(RoadmId(node)).0;
            if banned_nodes.contains(&RoadmId(next)) || done[next] {
                continue;
            }
            let nd = d + fiber.length_km;
            if nd < dist[next] {
                dist[next] = nd;
                prev[next] = Some((node, fid));
                heap.push(HeapEntry { dist: nd, node: next });
            }
        }
    }
    if !dist[dst.0].is_finite() {
        return None;
    }
    let mut fibers = Vec::new();
    let mut at = dst.0;
    while at != src.0 {
        // Finite distance implies an unbroken predecessor chain to src.
        let (p, f) = prev[at]?;
        fibers.push(f);
        at = p;
    }
    fibers.reverse();
    Some(FiberPath { fibers, length_km: dist[dst.0] })
}

/// ROADMs visited by a fiber path starting at `src`, including endpoints.
fn path_nodes(net: &OpticalNetwork, src: RoadmId, fibers: &[FiberId]) -> Vec<RoadmId> {
    let mut nodes = vec![src];
    let mut at = src;
    for &f in fibers {
        at = net.fiber(f).other_end(at);
        nodes.push(at);
    }
    nodes
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
    let mut accepted: Vec<FiberPath> = Vec::new();
    let Some(first) = shortest_path(net, src, dst, banned, &[]) else {
        return accepted;
    };
    if first.length_km <= max_length_km {
        accepted.push(first);
    } else {
        return accepted;
    }
    let mut candidates: Vec<FiberPath> = Vec::new();
    while accepted.len() < k {
        let Some(last) = accepted.last().cloned() else { break };
        let last_nodes = path_nodes(net, src, &last.fibers);
        // Branch at every spur node of the previous path.
        for spur_idx in 0..last.fibers.len() {
            let spur_node = last_nodes[spur_idx];
            let root = &last.fibers[..spur_idx];
            // Ban edges that would recreate an already-accepted path with
            // the same root.
            let mut edge_ban: Vec<FiberId> = banned.to_vec();
            for p in &accepted {
                if p.fibers.len() > spur_idx && p.fibers[..spur_idx] == *root {
                    edge_ban.push(p.fibers[spur_idx]);
                }
            }
            // Ban root nodes (loop-freedom).
            let node_ban: Vec<RoadmId> = last_nodes[..spur_idx].to_vec();
            if let Some(spur) = shortest_path(net, spur_node, dst, &edge_ban, &node_ban) {
                let mut fibers = root.to_vec();
                fibers.extend_from_slice(&spur.fibers);
                let length_km = net.path_length_km(&fibers);
                let cand = FiberPath { fibers, length_km };
                if length_km <= max_length_km
                    && !accepted.contains(&cand)
                    && !candidates.contains(&cand)
                {
                    candidates.push(cand);
                }
            }
        }
        if candidates.is_empty() {
            break;
        }
        // Promote the shortest candidate.
        let Some(best) = candidates
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.length_km.total_cmp(&b.1.length_km))
            .map(|(i, _)| i)
        else {
            break;
        };
        accepted.push(candidates.swap_remove(best));
    }
    accepted
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
            let nodes = path_nodes(&net, r[0], &p.fibers);
            let mut unique = nodes.clone();
            unique.sort();
            unique.dedup();
            assert_eq!(unique.len(), nodes.len(), "loop found in {:?}", p.fibers);
        }
    }

    #[test]
    fn yen_with_banned_fibers() {
        let (net, r, f) = square();
        let paths = k_shortest_paths(&net, r[0], r[2], 5, &[f[4]], f64::INFINITY);
        assert_eq!(paths.len(), 2);
        assert!(paths.iter().all(|p| !p.fibers.contains(&f[4])));
    }
}
