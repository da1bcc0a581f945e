//! Common substrate for the Pregelix reproduction.
//!
//! This crate holds the pieces every other crate builds on:
//!
//! * [`error`] — the unified [`error::PregelixError`] type.
//! * [`writable`] — the compact binary codec ([`writable::Writable`]) used for
//!   vertex values, edge values and messages. The name is a deliberate nod to
//!   the Hadoop `Writable` interface that the original (Java) Pregelix API
//!   exposed to users.
//! * [`bytes`] — the refcounted byte-slab ([`bytes::BytesSlab`] /
//!   [`bytes::BytesSlice`]): one pooled allocation whose sub-slices are held
//!   simultaneously by transport, the retransmit window, and the consumer —
//!   the zero-copy substrate under the frame path.
//! * [`frame`] — contiguous byte *frames* holding batches of tuples, the unit
//!   of data exchange between dataflow operators (mirrors Hyracks frames).
//!   Builders ([`frame::Frame`]) freeze into slab-backed wire-form views
//!   ([`frame::SharedFrame`]) that are encoded exactly once. The wire form
//!   `[n][ends][data]` is the one framing of tuple batches: connectors ship
//!   it, and run files, checkpoints and message logs store it.
//! * [`arena`] — pooled tuple arenas backing operator buffers (external
//!   sort, group-by): contiguous chunk storage plus compact tuple refs, so
//!   the message hot path performs no per-tuple heap allocation.
//! * [`dfs`] — a directory-backed stand-in for HDFS used for graph
//!   input/output, the global-state primary copy, and checkpoints.
//! * [`job`] — the [`job::JobId`] newtype naming a job's DFS state
//!   (checkpoints, message logs, global state) by its tag.
//! * [`memory`] — a byte-granular memory accountant used to enforce simulated
//!   per-worker RAM budgets (this is how the out-of-core experiments scale the
//!   paper's 8 GB nodes down to laptop-size).
//! * [`msglog`] — sender-side per-(superstep, partition) message/mutation
//!   logs on the DFS, one frame per destination section and a trailing CRC
//!   (the log is read back from storage), the substrate of confined
//!   recovery: on a worker death only the lost partitions replay, fed from
//!   survivors' logs.
//! * [`stats`] — cluster-wide counters mirroring the Pregelix statistics
//!   collector (CPU-ish work units, I/O, network bytes, message counts).

pub mod arena;
pub mod bytes;
pub mod dfs;
pub mod error;
pub mod fault;
pub mod frame;
pub mod job;
pub mod memory;
pub mod msglog;
pub mod stats;
pub mod writable;

pub use error::{PregelixError, Result};
pub use job::JobId;
pub use writable::Writable;

/// Vertex identifier. The paper's built-in library uses `VLongWritable`; we
/// fix vertex ids to `u64` which keeps index keys memcmp-comparable when
/// encoded big-endian (see [`frame::vid_to_key`]).
pub type Vid = u64;

/// The superstep counter type. Superstep numbering starts at 1, as in Pregel.
pub type Superstep = u64;

/// Hash-partition a vertex id onto `n` partitions.
///
/// This is the default partitioning function from §5.2 ("By default, we use
/// hash partitioning"). It must be used consistently for `Vertex`, `Msg` and
/// `Vid` so that the join in each superstep never needs a repartition
/// (the *sticky* property of §5.3.4). A Fibonacci multiplicative hash gives a
/// good spread even for the dense integer ids produced by our generators.
#[inline]
pub fn hash_partition(vid: Vid, n: usize) -> usize {
    debug_assert!(n > 0);
    (vid.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_partition_in_range() {
        for n in 1..10 {
            for vid in 0..1000u64 {
                assert!(hash_partition(vid, n) < n);
            }
        }
    }

    #[test]
    fn hash_partition_balanced_on_dense_ids() {
        let n = 8;
        let mut counts = vec![0usize; n];
        for vid in 0..80_000u64 {
            counts[hash_partition(vid, n)] += 1;
        }
        let expect = 80_000 / n;
        for c in counts {
            assert!(
                c > expect / 2 && c < expect * 2,
                "partition skewed: {c} vs expected {expect}"
            );
        }
    }
}
