//! Synthetic dataset substrate reproducing the paper's inputs (§7.1).
//!
//! The paper evaluates on two real graphs we cannot redistribute:
//!
//! * the **Yahoo Webmap** (71.8 GB, 1.41 B vertices, power-law web crawl)
//!   and down-samples of it produced with a random-walk sampler built on
//!   Pregelix (Table 3), and
//! * the **BTC 2009** semantic graph (66.5 GB undirected, constant average
//!   degree ≈ 8.94) with *scale-ups* produced by deep-copying the graph
//!   and renumbering the duplicate vertices (Table 4).
//!
//! This crate substitutes generators that preserve the properties the
//! experiments depend on — degree distribution shape, connectivity, the
//! size ladder's relative proportions — at 1/10,000 of the paper's scale
//! (see DESIGN.md). The same methodology is kept: the Webmap ladder is
//! down-sampled by random walks from the largest instance; the BTC ladder
//! is scaled up from a base instance by copy-and-renumber.

pub mod btc;
pub mod road;
pub mod sample;
pub mod stats;
pub mod text;
pub mod webmap;

pub use btc::btc_ladder;
pub use sample::{random_walk_sample, scale_up};
pub use stats::DatasetStats;
pub use webmap::webmap_ladder;

use pregelix_common::Vid;

/// A generated dataset: adjacency records plus a label.
pub struct Dataset {
    /// Ladder name matching the paper's tables (Tiny, X-Small, ...).
    pub name: &'static str,
    /// `(vid, [(dest, weight)])` records, one per vertex.
    pub records: Vec<(Vid, Vec<(Vid, f64)>)>,
}

impl Dataset {
    /// Table-3/4-style statistics for this dataset.
    pub fn stats(&self) -> DatasetStats {
        DatasetStats::of(self.name, &self.records)
    }
}
