//! Seeded input graphs, generated by the benchmark itself.
//!
//! The generators use their own splitmix64 stream and nothing from
//! `pregelix-graphgen` or `rand`, so a seed names the same graph whatever
//! happens to the repo's RNGs. Each generator fixes the vertex count, the
//! edge count and the degree sequence from the size alone; the seed only
//! decides which vertex gets which degree and where edges point. Runs with
//! different seeds therefore do the same amount of work on different graphs,
//! which is what lets the run-to-run spread stay inside the metric bounds.

use std::fmt::Write as _;

/// splitmix64 (Steele, Lea, Flood 2014): the whole RNG of the benchmark.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias at these sizes is below
    /// 2^-40 and irrelevant to a workload generator).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniformly random permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<u32> {
        let mut p: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i as u64 + 1) as usize);
        }
        p
    }
}

/// A directed graph in CSR form over vertex ids `0..n`. Undirected graphs
/// store both directions. `weights` is parallel to `targets` when present.
pub struct Graph {
    pub offsets: Vec<usize>,
    pub targets: Vec<u32>,
    pub weights: Option<Vec<u32>>,
}

impl Graph {
    pub fn vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn edges(&self) -> usize {
        self.targets.len()
    }

    pub fn out_range(&self, v: usize) -> std::ops::Range<usize> {
        self.offsets[v]..self.offsets[v + 1]
    }

    fn from_lists(lists: Vec<Vec<(u32, u32)>>, weighted: bool) -> Graph {
        let mut offsets = Vec::with_capacity(lists.len() + 1);
        let mut targets = Vec::new();
        let mut weights = Vec::new();
        offsets.push(0);
        for list in &lists {
            for &(t, w) in list {
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

    /// The adjacency text `pregelix_core::load` parses: one line per vertex,
    /// `<src> <dst>[:<weight>] ...`. Every vertex has a line, also those
    /// without out-edges, because the loader creates vertices from lines.
    pub fn adjacency_text(&self) -> String {
        let mut text = String::with_capacity(self.edges() * 8 + self.vertices() * 8);
        for v in 0..self.vertices() {
            write!(text, "{v}").expect("write to String");
            for e in self.out_range(v) {
                match &self.weights {
                    Some(w) => write!(text, " {}:{}", self.targets[e], w[e]),
                    None => write!(text, " {}", self.targets[e]),
                }
                .expect("write to String");
            }
            text.push('\n');
        }
        text
    }
}

/// Zipf-like degrees for `n` slots summing to exactly `total`: slot `k` gets
/// a share proportional to `(k+1)^-exponent`, at least one edge each, and
/// the rounding remainder goes to the largest slots.
fn zipf_degrees(n: usize, total: usize, exponent: f64) -> Vec<usize> {
    assert!(total >= n, "every slot needs at least one edge");
    let weights: Vec<f64> = (0..n).map(|k| ((k + 1) as f64).powf(-exponent)).collect();
    let scale = (total - n) as f64 / weights.iter().sum::<f64>();
    let mut degrees: Vec<usize> = weights.iter().map(|w| 1 + (w * scale) as usize).collect();
    let assigned: usize = degrees.iter().sum();
    for k in 0..total - assigned {
        degrees[k % n] += 1;
    }
    degrees
}

/// Directed power-law "web" graph: `n` vertices and exactly
/// `avg_out_degree * n` edges (about 8.5 per vertex in the workloads). One
/// vertex in ten is a dangling page; the others have Zipf out-degrees.
/// Targets follow a skewed in-degree law (popular pages attract most
/// links). Self-links and repeated links are kept: the loader, PageRank and
/// the oracle all treat the edge list literally.
pub fn web(n: usize, avg_out_degree: f64, seed: u64) -> Graph {
    let mut rng = SplitMix64::new(seed ^ 0x7765_625f_6772_6170); // "web_grap"
    let linking = n - n / 10;
    let degrees = zipf_degrees(linking, (avg_out_degree * n as f64) as usize, 0.6);
    let out_rank = rng.permutation(n); // vertex -> out-degree rank
    let in_rank = rng.permutation(n); // popularity rank -> vertex
    let lists = (0..n)
        .map(|v| {
            let rank = out_rank[v] as usize;
            let degree = if rank < linking { degrees[rank] } else { 0 };
            (0..degree)
                .map(|_| {
                    let u = rng.unit();
                    (in_rank[(u * u * n as f64) as usize], 0)
                })
                .collect()
        })
        .collect();
    Graph::from_lists(lists, false)
}

/// Road network for SSSP: a `side` x `side` grid, both directions of every
/// street, integer weights 8..=12 drawn per street. Integer weights keep all
/// path lengths exact in `f64`, so the oracle comparison is exact.
///
/// The weights are close together on purpose. From a corner, every shortest
/// route then has the fewest hops, so the job always runs `2 * side`
/// supersteps and sends between one and two messages per street. With a wide
/// range (1..=9 was tried) detours pay off, vertices are relaxed again and
/// again, and the message count moves by 15 % from seed to seed.
pub fn road_grid(side: usize, seed: u64) -> Graph {
    let mut rng = SplitMix64::new(seed ^ 0x726f_6164_5f67_7264); // "road_grd"
    let n = side * side;
    let mut lists: Vec<Vec<(u32, u32)>> = vec![Vec::with_capacity(4); n];
    let mut street = |a: usize, b: usize, lists: &mut Vec<Vec<(u32, u32)>>| {
        let w = 8 + rng.below(5) as u32;
        lists[a].push((b as u32, w));
        lists[b].push((a as u32, w));
    };
    for r in 0..side {
        for c in 0..side {
            let v = r * side + c;
            if c + 1 < side {
                street(v, v + 1, &mut lists);
            }
            if r + 1 < side {
                street(v, v + side, &mut lists);
            }
        }
    }
    Graph::from_lists(lists, true)
}

/// Undirected BTC-like graph for connected components: `n` vertices and
/// exactly `avg_degree * n / 2` undirected edges (stored in both
/// directions). One endpoint of each edge is uniform, the other follows a
/// skewed popularity law, which gives a giant component, hubs, and a tail
/// of small components and isolated vertices.
///
/// Vertex 0 is always the most popular vertex. How much work minimum-label
/// propagation does depends on where the smallest label starts: from a hub
/// it floods the giant component at once, from the fringe every vertex
/// first adopts several larger labels. Left to the seed, that moved the
/// message count by 15 %.
///
/// A pendant chain of `tail` extra vertices hangs off vertex 0. The minimum
/// label needs `tail` supersteps to walk it, which is longer than it takes
/// to flood the random part, so every seed runs the same number of
/// supersteps; without the chain that number flips between neighbouring
/// values from seed to seed and moves `run_s` by a whole scan of the graph.
pub fn btc(n: usize, avg_degree: f64, tail: usize, seed: u64) -> Graph {
    let mut rng = SplitMix64::new(seed ^ 0x6274_635f_6772_6170); // "btc_grap"
    let random_part = n - tail;
    let mut popular = rng.permutation(random_part);
    let rank_of_zero = popular
        .iter()
        .position(|&v| v == 0)
        .expect("0 is in the permutation");
    popular.swap(0, rank_of_zero);
    let mut lists: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
    let link = |a: usize, b: usize, lists: &mut Vec<Vec<(u32, u32)>>| {
        lists[a].push((b as u32, 0));
        lists[b].push((a as u32, 0));
    };
    let random_edges = (avg_degree * n as f64 / 2.0) as usize - tail;
    for _ in 0..random_edges {
        let a = rng.below(random_part as u64) as usize;
        let b = loop {
            let u = rng.unit();
            let b = popular[(u * u * random_part as f64) as usize] as usize;
            if b != a {
                break b;
            }
        };
        link(a, b, &mut lists);
    }
    let mut prev = 0;
    for v in random_part..n {
        link(prev, v, &mut lists);
        prev = v;
    }
    Graph::from_lists(lists, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_reference_stream() {
        // First outputs for seed 1234567, from the reference C code.
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
    }

    #[test]
    fn same_seed_same_graph_other_seed_other_graph() {
        for make in [
            (|s| web(2000, 8.5, s)) as fn(u64) -> Graph,
            |s| road_grid(40, s),
            |s| btc(2000, 9.0, 12, s),
        ] {
            let (a, b, c) = (make(7), make(7), make(8));
            assert_eq!(a.adjacency_text(), b.adjacency_text());
            assert_ne!(a.adjacency_text(), c.adjacency_text());
            // The seed never changes how much work the graph is.
            assert_eq!(a.vertices(), c.vertices());
            assert_eq!(a.edges(), c.edges());
        }
    }

    #[test]
    fn web_graph_shape() {
        let g = web(10_000, 8.5, 3);
        assert_eq!(g.edges(), 85_000);
        let dangling = (0..g.vertices())
            .filter(|&v| g.out_range(v).is_empty())
            .count();
        assert_eq!(dangling, 1000);
        let max_out = (0..g.vertices())
            .map(|v| g.out_range(v).len())
            .max()
            .unwrap();
        assert!(
            max_out > 100,
            "heavy tail expected, max out-degree {max_out}"
        );
    }

    #[test]
    fn road_grid_is_symmetric_and_weighted() {
        let g = road_grid(30, 5);
        assert_eq!(g.vertices(), 900);
        assert_eq!(g.edges(), 2 * (2 * 30 * 30 - 30 - 30));
        let w = g.weights.as_ref().unwrap();
        for v in 0..g.vertices() {
            for e in g.out_range(v) {
                let t = g.targets[e] as usize;
                assert!((8..=12).contains(&w[e]));
                let back = g
                    .out_range(t)
                    .find(|&b| g.targets[b] as usize == v)
                    .unwrap();
                assert_eq!(w[back], w[e]);
            }
        }
    }

    #[test]
    fn btc_graph_has_its_chain() {
        let g = btc(1000, 9.0, 12, 1);
        assert_eq!(g.edges(), 9000);
        // The last chain vertex has exactly one neighbour: its predecessor.
        let last = g.out_range(999);
        assert_eq!(last.len(), 1);
        assert_eq!(g.targets[last.start], 998);
    }

    #[test]
    fn adjacency_text_format() {
        let g = road_grid(2, 0);
        let text = g.adjacency_text();
        let first = text.lines().next().unwrap();
        let mut fields = first.split(' ');
        assert_eq!(fields.next(), Some("0"));
        for f in fields {
            let (dst, w) = f.split_once(':').unwrap();
            assert!(dst == "1" || dst == "2");
            assert!(w.parse::<u32>().is_ok());
        }
        assert_eq!(text.lines().count(), 4);
    }
}
