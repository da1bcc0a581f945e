//! The benchmark's own answers: plain array implementations of the three
//! problems, sharing no code with the system under test. Every repetition
//! is compared against them, and their run time is the yardstick for
//! `bench.oracle.overhead_x` (what the relational formulation costs over a
//! loop on arrays, as iPregel frames it).

use crate::graphs::Graph;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// PageRank as `pregelix_algorithms::PageRank` defines it: ranks start at
/// `1/n`, each of `iterations` rounds sets
/// `rank = (1 - damping)/n + damping * sum(incoming shares)`, and a dangling
/// vertex sends nothing (its rank is not redistributed).
pub fn pagerank(g: &Graph, damping: f64, iterations: u64) -> Vec<f64> {
    let n = g.vertices();
    let mut rank = vec![1.0 / n as f64; n];
    let mut incoming = vec![0.0; n];
    for _ in 0..iterations {
        incoming.fill(0.0);
        for (v, r) in rank.iter().enumerate() {
            let out = g.out_range(v);
            if out.is_empty() {
                continue;
            }
            let share = r / out.len() as f64;
            for &t in &g.targets[out] {
                incoming[t as usize] += share;
            }
        }
        for (r, sum) in rank.iter_mut().zip(&incoming) {
            *r = (1.0 - damping) / n as f64 + damping * sum;
        }
    }
    rank
}

/// Dijkstra over the integer street weights; `None` = unreachable.
pub fn shortest_paths(g: &Graph, source: usize) -> Vec<Option<u64>> {
    let weights = g.weights.as_ref().expect("SSSP needs a weighted graph");
    let mut dist: Vec<Option<u64>> = vec![None; g.vertices()];
    let mut heap = BinaryHeap::new();
    dist[source] = Some(0);
    heap.push(Reverse((0u64, source)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if dist[v] != Some(d) {
            continue; // a shorter path to v was settled first
        }
        for e in g.out_range(v) {
            let (t, nd) = (g.targets[e] as usize, d + weights[e] as u64);
            if dist[t].is_none_or(|old| nd < old) {
                dist[t] = Some(nd);
                heap.push(Reverse((nd, t)));
            }
        }
    }
    dist
}

/// Union-find; returns for every vertex the smallest id in its component,
/// which is the label min-label propagation converges to.
pub fn components(g: &Graph) -> Vec<u32> {
    fn find(parent: &mut [u32], mut v: u32) -> u32 {
        while parent[v as usize] != v {
            parent[v as usize] = parent[parent[v as usize] as usize]; // path halving
            v = parent[v as usize];
        }
        v
    }
    let n = g.vertices();
    let mut parent: Vec<u32> = (0..n as u32).collect();
    for v in 0..n {
        for &t in &g.targets[g.out_range(v)] {
            let (a, b) = (find(&mut parent, v as u32), find(&mut parent, t));
            // The smaller id becomes the root, so a root is its set's minimum.
            parent[a.max(b) as usize] = a.min(b);
        }
    }
    (0..n as u32).map(|v| find(&mut parent, v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(n: usize, edges: &[(u32, u32, u32)], weighted: bool) -> Graph {
        let mut offsets = vec![0];
        let (mut targets, mut weights) = (Vec::new(), Vec::new());
        for v in 0..n as u32 {
            for &(_, t, w) in edges.iter().filter(|e| e.0 == v) {
                targets.push(t);
                weights.push(w);
            }
            offsets.push(targets.len());
        }
        Graph {
            offsets,
            targets,
            weights: weighted.then_some(weights),
        }
    }

    fn both_ways(edges: &[(u32, u32, u32)]) -> Vec<(u32, u32, u32)> {
        edges
            .iter()
            .flat_map(|&(a, b, w)| [(a, b, w), (b, a, w)])
            .collect()
    }

    #[test]
    fn pagerank_six_vertices_one_round_by_hand() {
        // 0->1, 0->2, 1->2, 2->0, 3->2, 4 and 5 dangle (5 also has no in-links).
        let g = graph(
            6,
            &[(0, 1, 0), (0, 2, 0), (1, 2, 0), (2, 0, 0), (3, 2, 0)],
            false,
        );
        let r = pagerank(&g, 0.85, 1);
        let base = 0.15 / 6.0;
        let sixth = 1.0 / 6.0;
        let expect = [
            base + 0.85 * sixth,                         // from 2
            base + 0.85 * sixth / 2.0,                   // half of 0
            base + 0.85 * (sixth / 2.0 + sixth + sixth), // 0, 1, 3
            base,
            base,
            base,
        ];
        for (got, want) in r.iter().zip(expect) {
            assert!((got - want).abs() < 1e-15, "{got} vs {want}");
        }
        // Dangling mass leaks: the total after one round is below one.
        assert!(r.iter().sum::<f64>() < 1.0);
    }

    #[test]
    fn pagerank_cycle_is_uniform() {
        let g = graph(
            6,
            &[
                (0, 1, 0),
                (1, 2, 0),
                (2, 3, 0),
                (3, 4, 0),
                (4, 5, 0),
                (5, 0, 0),
            ],
            false,
        );
        for r in pagerank(&g, 0.85, 10) {
            assert!((r - 1.0 / 6.0).abs() < 1e-15);
        }
    }

    #[test]
    fn shortest_paths_six_vertices_by_hand() {
        // The direct street 0-2 (9) loses to 0-1-2 (2+3); 5 is cut off.
        let g = graph(
            6,
            &both_ways(&[
                (0, 1, 2),
                (1, 2, 3),
                (0, 2, 9),
                (2, 3, 1),
                (3, 4, 4),
                (1, 4, 9),
            ]),
            true,
        );
        assert_eq!(
            shortest_paths(&g, 0),
            vec![Some(0), Some(2), Some(5), Some(6), Some(10), None]
        );
    }

    #[test]
    fn components_six_vertices_by_hand() {
        // {0, 4, 5} via 5-4 and 4-0, {1, 3}, {2} alone.
        let g = graph(6, &both_ways(&[(5, 4, 0), (4, 0, 0), (3, 1, 0)]), false);
        assert_eq!(components(&g), vec![0, 1, 2, 1, 0, 0]);
    }
}
