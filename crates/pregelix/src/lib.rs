//! Facade crate: one `use pregelix::prelude::*` away from running Big(ger)
//! Graph Analytics.
//!
//! Re-exports the whole workspace: the Pregel API and runtime
//! ([`core`]), the built-in algorithm library ([`algorithms`]), dataset
//! generators ([`graphgen`]), the dataflow/cluster substrate
//! ([`dataflow`]), the storage library ([`storage`]), and the baseline
//! systems used by the evaluation harnesses ([`baselines`]).

pub use pregelix_algorithms as algorithms;
pub use pregelix_baselines as baselines;
pub use pregelix_common as common;
pub use pregelix_core as core;
pub use pregelix_dataflow as dataflow;
pub use pregelix_graphgen as graphgen;
pub use pregelix_storage as storage;

/// Everything a typical Pregelix application needs.
pub mod prelude {
    pub use pregelix_algorithms::*;
    pub use pregelix_common::{JobId, Superstep, Vid};
    pub use pregelix_core::api::{ComputeContext, MessageCombiner, Mutation, VertexProgram};
    pub use pregelix_core::gs::GlobalState;
    pub use pregelix_core::plan::{
        GroupByStrategy, JoinStrategy, PlanConfig, PregelixJob, VertexStorageKind,
    };
    pub use pregelix_core::runtime::{
        run_job, run_job_from_records, run_pipeline, JobSummary, LoadedGraph, SenderFold,
    };
    pub use pregelix_core::vertex::{Edge, VertexData};
    pub use pregelix_dataflow::cluster::{Cluster, ClusterConfig};
}
