//! The Pregelix built-in graph algorithm library (§6).
//!
//! "The Pregelix software distribution comes with a library that includes
//! several graph algorithms such as PageRank, single source shortest
//! paths, connected components, reachability query, triangle counting,
//! maximal cliques, and random-walk-based graph sampling." This crate
//! reproduces that library, plus two case-study building blocks: the
//! BFS spanning tree and list ranking (pointer jumping) from the
//! graph-connectivity group, and a De-Bruijn-style path-merging program
//! from the genome-assembly case study (the mutation-heavy workload that
//! motivates vertex addition/removal).
//!
//! Every algorithm is an ordinary [`pregelix_core::VertexProgram`]; the
//! plan hints each one favours (Figure 9, §7.5) are documented per module.

pub mod bfs_tree;
pub mod cliques;
pub mod connected_components;
pub mod list_ranking;
pub mod pagerank;
pub mod path_merge;
pub mod reachability;
pub mod sampling;
pub mod sssp;
pub mod triangles;

pub use bfs_tree::BfsTree;
pub use cliques::MaximalCliques;
pub use connected_components::ConnectedComponents;
pub use list_ranking::ListRanking;
pub use pagerank::PageRank;
pub use path_merge::PathMerge;
pub use reachability::Reachability;
pub use sampling::RandomWalkSampler;
pub use sssp::ShortestPaths;
pub use triangles::TriangleCount;
