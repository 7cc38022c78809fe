//! Breadth-first search over [`WeightedGraph`]s.
//!
//! The original DBHT algorithm uses BFS to split the graph into the interior
//! and exterior of each separating triangle; our optimized direction
//! computation avoids that, but BFS is still used for reference
//! implementations in tests and for reachability in the directed bubble
//! tree.

use crate::weighted_graph::WeightedGraph;
use std::collections::VecDeque;

/// Hop distances from `source`; unreachable vertices get `usize::MAX`.
fn bfs_distances(graph: &WeightedGraph, source: usize) -> Vec<usize> {
    let n = graph.num_vertices();
    let mut dist = vec![usize::MAX; n];
    let mut queue = VecDeque::new();
    dist[source] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        for &(v, _) in graph.neighbors(u) {
            if dist[v] == usize::MAX {
                dist[v] = dist[u] + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Boolean reachability from `source`.
pub fn bfs_reachable(graph: &WeightedGraph, source: usize) -> Vec<bool> {
    bfs_distances(graph, source)
        .into_iter()
        .map(|d| d != usize::MAX)
        .collect()
}

/// BFS restricted to the subgraph induced by `allowed` vertices, starting
/// from `source` (which must be allowed). Used by the quadratic reference
/// implementation of the bubble-tree direction computation: removing a
/// separating triangle and flooding from one side yields its interior.
pub fn bfs_reachable_within(graph: &WeightedGraph, source: usize, allowed: &[bool]) -> Vec<bool> {
    let n = graph.num_vertices();
    debug_assert_eq!(allowed.len(), n);
    debug_assert!(allowed[source]);
    let mut seen = vec![false; n];
    let mut queue = VecDeque::new();
    seen[source] = true;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        for &(v, _) in graph.neighbors(u) {
            if allowed[v] && !seen[v] {
                seen[v] = true;
                queue.push_back(v);
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> WeightedGraph {
        let mut g = WeightedGraph::new(n);
        for i in 0..n - 1 {
            g.add_edge(i, i + 1, 1.0);
        }
        g
    }

    #[test]
    fn distances_on_path() {
        let g = path_graph(5);
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_distances(&g, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn unreachable_vertices_are_max() {
        let mut g = WeightedGraph::new(4);
        g.add_edge(0, 1, 1.0);
        let d = bfs_distances(&g, 0);
        assert_eq!(d[0], 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], usize::MAX);
        assert_eq!(bfs_reachable(&g, 0), vec![true, true, false, false]);
    }

    #[test]
    fn restricted_bfs_respects_allowed_set() {
        let g = path_graph(5);
        let allowed = vec![true, true, false, true, true];
        let seen = bfs_reachable_within(&g, 0, &allowed);
        assert_eq!(seen, vec![true, true, false, false, false]);
        let seen2 = bfs_reachable_within(&g, 4, &allowed);
        assert_eq!(seen2, vec![false, false, false, true, true]);
    }
}
