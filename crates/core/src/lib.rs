//! Pregelix: the Pregel programming model executed as an iterative dataflow
//! of relational operators (Bu et al., VLDB 2014).
//!
//! The core idea (§3): treat the Pregel state as relations —
//!
//! ```text
//! Vertex (vid, halt, value, edges)
//! Msg    (vid, payload)
//! GS     (halt, aggregate, superstep)
//! ```
//!
//! — and message passing as a **join** between `Msg` and `Vertex`, followed
//! by a group-by that runs the user's `combine` UDF, two global
//! aggregations for the halting state and the user aggregate, and an
//! insert/delete flow for graph mutations. One superstep = one dataflow job
//! on the Hyracks-style runtime in `pregelix-dataflow`.
//!
//! Module map:
//!
//! * [`api`] — the user-facing Pregel API: [`api::VertexProgram`] with the
//!   four UDFs of Table 2 (`compute`, `combine`, `aggregate`, `resolve`)
//!   and the [`api::ComputeContext`] handed to `compute`.
//! * [`vertex`] — the `Vertex` relation's record: [`vertex::VertexData`]
//!   (halt, value, edges) and its byte codec.
//! * [`plan`] — physical plan space (§5.3): join strategy × group-by
//!   strategy, four distinct tailored executions, plus the
//!   [`plan::PregelixJob`] builder mirroring Figure 9's hints.
//! * [`store`] — the `Vertex` partition access method: a B-tree and its
//!   row cursor (§5.2), and `LoadedGraph`'s point and range reads.
//! * [`gs`] — the global-state tuple, persisted in the DFS (§5.2).
//! * [`superstep`] — the superstep as one job graph: the plan built once
//!   per job, its four nodes and five edges declared for every superstep
//!   and for confined replay (Figures 3–5, 7, 8).
//! * [`load`] — `LoadedGraph`'s load from and dump to the DFS (§5.2).
//! * [`checkpoint`] — checkpoint write, manifest walk and partition reload
//!   (§5.5).
//! * [`recovery`] — the one recovery ladder: reload the lost partitions,
//!   then replay them from sender-side message logs or rewind (§5.5).
//! * [`runtime`] — the driver: superstep loop, failure manager, job
//!   pipelining (§5.6), statistics collection. Concurrent jobs are threads
//!   calling [`run_job`] on one shared cluster, each under its own counter
//!   scope.

pub mod api;
pub mod checkpoint;
pub mod gs;
pub mod load;
pub mod plan;
pub mod recovery;
pub mod runtime;
pub mod store;
pub mod superstep;
pub mod vertex;

pub use api::{ComputeContext, MessageCombiner, Mutation, VertexProgram};
pub use gs::GlobalState;
pub use plan::{JoinStrategy, PlanConfig, PregelixJob, VertexStorageKind};
pub use runtime::{run_job, run_pipeline, JobSummary, LoadedGraph, SenderFold};
pub use vertex::{Edge, VertexData};
