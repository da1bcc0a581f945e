//! The Hyracks-style shared-nothing dataflow runtime (§4).
//!
//! Hyracks executes jobs expressed as DAGs of *operators* (which consume and
//! produce partitions of data) and *connectors* (which redistribute data
//! between operator partitions). This crate reproduces the subset Pregelix
//! leans on:
//!
//! * [`cluster`] — the simulated shared-nothing cluster: each worker
//!   "machine" has its own local disk directory, buffer cache, and failure
//!   flag; jobs are sets of per-partition tasks spawned as threads pinned to
//!   workers by location constraints.
//! * [`scheduler`] — the constraint solver that maps operator partitions to
//!   workers (absolute/sticky constraints, count constraints), used to keep
//!   `Vertex`, `Msg` and `Vid` partitions co-located across supersteps
//!   (§5.3.4).
//! * [`graph`] — the job graph and its one executor: nodes with placement
//!   constraints and task bodies, edges that name a connector, placed,
//!   wired and run on the cluster. Every phase of a Pregelix job is one.
//! * [`transport`] — the reliable stream transport every frame connector
//!   rides on: sequenced in-memory messages carrying refcounted frames on
//!   FIFO streams, a lost or torn message redelivered from the stream's
//!   control plane and a duplicate discarded by seq, so wire-level
//!   drop/duplicate/corrupt faults are absorbed in place instead of
//!   restarting the job.
//! * [`connector`] — the three data-exchange patterns: the m-to-n
//!   partitioning connector (fully pipelined, stream-based), the m-to-n
//!   partitioning **merging** connector (sender-side materializing pipelined
//!   policy: senders write sorted per-receiver runs, receivers k-way merge
//!   them), and the aggregator connector (all-to-one, a partitioning
//!   connector into one partition).
//! * [`groupby`] — the four parallel message-combination strategies of
//!   Figure 7: one sort-based local group-by, and a choice of connector.

pub mod cluster;
pub mod connector;
pub mod graph;
pub mod groupby;
pub mod scheduler;
pub mod transport;

pub use cluster::{Cluster, ClusterConfig, FailureDetector, WorkerHandle, WorkerHealth};
pub use connector::{
    MaterializedPartitioner, MergingReceiver, PartitionReceiver, PartitioningSender,
};
pub use graph::{Edge, JobGraph};
pub use groupby::GroupByStrategy;
pub use scheduler::{LocationConstraint, Schedule};
pub use transport::{ReliableReceiver, ReliableSender, StreamRx, StreamTx};
