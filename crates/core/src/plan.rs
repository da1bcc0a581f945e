//! The physical plan space and the job descriptor.
//!
//! From one logical plan (Figures 3–5) Pregelix derives tailored
//! executions (§5.8): two message-delivery join strategies (Figure 8) ×
//! four message-combination group-by strategies (Figure 7), eight in all,
//! over one vertex storage structure, the B-tree (§5.2; the paper's LSM
//! B-tree alternative was slower on its own path-merge workload,
//! EXPERIMENTS.md §"One vertex store").
//! [`PregelixJob`] mirrors the Java job builder
//! of Figure 9, where the `main` function sets the plan-generator *hints*
//! (`setMessageVertexJoin`, `setMessageGroupBy`,
//! `setMessageGroupByConnector`).

pub use pregelix_dataflow::groupby::GroupByStrategy;

use pregelix_common::stats::StatsSnapshot;
use pregelix_common::JobId;

/// Measured probe-path costs feeding the [`JoinStrategy::Adaptive`]
/// decision.
///
/// The original hard-coded threshold assumed every probe pays a full
/// root-to-leaf descent (≈5× the cost of one sequential scan touch →
/// probe wins under 1/5 liveness). The sorted-probe cursors keep their
/// root-to-leaf path pinned: a probe is answered from the pinned leaf or
/// descends from the lowest pinned page covering its key, so the real
/// cost per probe is `1 + pins_per_probe × PIN_COST` scan-touch units, where
/// `pins_per_probe` is measured (`probe_page_pins / probes`) on the most
/// recent probing superstep. The break-even live fraction is the inverse
/// of that cost, clamped to keep one noisy superstep from swinging the
/// plan to an extreme.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProbeCostModel {
    /// Buffer-cache page pins per probe: the pages below the lowest pinned
    /// page covering the key (about one, the leaf, on a sparse superstep),
    /// or the whole path for a descent from the root; pinned-leaf answers
    /// are free.
    pub pins_per_probe: f64,
}

impl ProbeCostModel {
    /// Threshold used when no probe measurements exist yet (the historic
    /// hard-coded value: a full descent ≈ 5 scan touches).
    pub const DEFAULT_THRESHOLD: f64 = 0.2;
    /// Cost of one buffer-cache pin in sequential-scan-touch units
    /// (latch + hash lookup + possible I/O vs. decoding the next row of an
    /// already-resident page).
    pub const PIN_COST: f64 = 4.0;
    /// Clamp bounds for the derived threshold.
    pub const MIN_THRESHOLD: f64 = 0.05;
    pub const MAX_THRESHOLD: f64 = 0.5;

    /// Derive a model from a superstep's counter delta; `None` when the
    /// superstep performed no probes (nothing to measure).
    pub fn from_counters(delta: &StatsSnapshot) -> Option<ProbeCostModel> {
        let probes = delta.probe_leaf_hits + delta.probe_redescents;
        if probes == 0 {
            return None;
        }
        Some(ProbeCostModel {
            pins_per_probe: delta.probe_page_pins as f64 / probes as f64,
        })
    }

    /// The live fraction below which probing (left-outer) beats scanning
    /// (full-outer): `1 / (1 + pins_per_probe × PIN_COST)`, clamped.
    pub fn threshold(&self) -> f64 {
        if !self.pins_per_probe.is_finite() || self.pins_per_probe < 0.0 {
            return Self::DEFAULT_THRESHOLD;
        }
        let cost_per_probe = 1.0 + self.pins_per_probe * Self::PIN_COST;
        (1.0 / cost_per_probe).clamp(Self::MIN_THRESHOLD, Self::MAX_THRESHOLD)
    }
}

/// How the `Msg ⋈ Vertex` join of Figure 8 is executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Index **full outer** join: merge the sorted `Msg` stream with a full
    /// scan of the `Vertex` index. Best when most vertices are live every
    /// superstep (PageRank). The Pregelix default.
    FullOuter,
    /// Index **left outer** join: merge `Msg` with the `Vid` live-vertex
    /// run, then *probe* the `Vertex` index per key. Skips the full scan;
    /// best when messages are sparse and few vertices are live (SSSP).
    LeftOuter,
    /// Let the runtime pick per superstep from the previous superstep's
    /// statistics (live-vertex fraction): sparse supersteps probe
    /// (left-outer), dense ones scan (full-outer). This is a first cut of
    /// the cost-based optimizer the paper names as future work (§9),
    /// driven by exactly the statistics its §7.5 experiments motivate.
    Adaptive,
}

impl JoinStrategy {
    /// Resolve the strategy for the next superstep. `live_fraction` is
    /// live vertices over total vertices at the last superstep boundary
    /// (superstep 1 is always a full scan: everything is live). Uses the
    /// historic fixed threshold; the driver passes measured costs via
    /// [`JoinStrategy::resolve_with`] once probe statistics exist.
    pub fn resolve(self, live_fraction: f64) -> JoinStrategy {
        self.resolve_with(live_fraction, None)
    }

    /// Resolve with a measured [`ProbeCostModel`] when one is available;
    /// falls back to [`ProbeCostModel::DEFAULT_THRESHOLD`] otherwise.
    pub fn resolve_with(
        self,
        live_fraction: f64,
        model: Option<ProbeCostModel>,
    ) -> JoinStrategy {
        match self {
            JoinStrategy::Adaptive => {
                let threshold = model
                    .map(|m| m.threshold())
                    .unwrap_or(ProbeCostModel::DEFAULT_THRESHOLD);
                if live_fraction < threshold {
                    JoinStrategy::LeftOuter
                } else {
                    JoinStrategy::FullOuter
                }
            }
            fixed => fixed,
        }
    }
}

/// Which index structure stores `Vertex` partitions (§5.2): the B-tree,
/// the one store.
// pinned: benchmark/src/replay.rs
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VertexStorageKind {
    /// B-tree: in-place value updates, by-key inserts and deletes.
    BTree,
}

/// One point in the 2 × 4 physical plan space (the group-by strategy picks
/// only the message connector, so two of its names repeat a plan).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanConfig {
    /// Message-delivery join strategy.
    pub join: JoinStrategy,
    /// Message-combination group-by strategy.
    pub groupby: GroupByStrategy,
}

impl Default for PlanConfig {
    /// The Pregelix default plan used throughout §7.2–§7.4: index
    /// full-outer join, sort-based group-by, m-to-n hash partitioning
    /// connector.
    fn default() -> Self {
        PlanConfig {
            join: JoinStrategy::FullOuter,
            groupby: GroupByStrategy::SortUnmerged,
        }
    }
}

impl PlanConfig {
    /// Enumerate all eight physical plans (§5.8).
    pub fn all() -> Vec<PlanConfig> {
        let mut out = Vec::with_capacity(8);
        for join in [JoinStrategy::FullOuter, JoinStrategy::LeftOuter] {
            for groupby in GroupByStrategy::all() {
                out.push(PlanConfig { join, groupby });
            }
        }
        out
    }

    /// Short label for reports, e.g. `"loj-hashsort-unmerged"`.
    pub fn label(&self) -> String {
        let join = match self.join {
            JoinStrategy::FullOuter => "foj",
            JoinStrategy::LeftOuter => "loj",
            JoinStrategy::Adaptive => "adaptive",
        };
        let gb = match self.groupby {
            GroupByStrategy::SortUnmerged => "sort-unmerged",
            GroupByStrategy::HashSortUnmerged => "hashsort-unmerged",
            GroupByStrategy::SortMerged => "sort-merged",
            GroupByStrategy::HashSortMerged => "hashsort-merged",
        };
        format!("{join}-{gb}")
    }
}

/// A Pregelix job: what to run, on what data, with which physical plan.
/// Mirrors `PregelixJob` from Figure 9.
///
/// Construction is builder-only: [`PregelixJob::new`] plus `with_*`
/// setters. The fields are private so every job the runtime sees went
/// through the builder's invariants (derived I/O paths, clamped partition
/// counts) — struct-literal construction and field poking are not part of
/// the API. Read access goes through the accessor methods.
#[derive(Clone, Debug)]
pub struct PregelixJob {
    /// Job identity (names the DFS subtree for GS, checkpoints, logs).
    pub(crate) id: JobId,
    /// DFS path of the input adjacency text (see [`crate::load`]).
    pub(crate) input_path: String,
    /// DFS directory for the output dump.
    pub(crate) output_path: String,
    /// Physical plan hints.
    pub(crate) plan: PlanConfig,
    /// Vertex partitions per worker machine (the scheduler assigns as many
    /// partitions to a machine as cores, §5.7; default 1 at our scale).
    pub(crate) partitions_per_worker: usize,
    /// Checkpoint every N supersteps (`None` = no checkpoints), §5.5.
    pub(crate) checkpoint_interval: Option<u64>,
    /// Hard stop after this many supersteps (`None` = run to fixpoint).
    /// PageRank-style algorithms typically bound iterations instead of
    /// converging exactly.
    pub(crate) max_supersteps: Option<u64>,
    /// In-place retries of recoverable checkpoint-write failures before the
    /// failure manager falls back to checkpoint recovery (§5.7). Transient
    /// I/O hiccups are absorbed here without consuming a recovery.
    pub(crate) io_retries: u32,
    /// Recoveries the failure manager attempts before giving up with a
    /// typed `RecoveriesExhausted` error naming this cap. Previously a
    /// hard-coded 32 inside the runtime.
    pub(crate) max_recoveries: u32,
    /// Buffer-cache pages the job service reserves for this job at
    /// admission (`None` = the service's default share). Ignored outside
    /// the service.
    pub(crate) page_budget: Option<u64>,
}

impl PregelixJob {
    /// A job with default plan and settings.
    pub fn new(name: impl Into<String>) -> PregelixJob {
        let name = name.into();
        PregelixJob {
            input_path: format!("input/{name}"),
            output_path: format!("output/{name}"),
            id: JobId::new(name),
            plan: PlanConfig::default(),
            partitions_per_worker: 1,
            checkpoint_interval: None,
            max_supersteps: None,
            io_retries: 2,
            max_recoveries: 32,
            page_budget: None,
        }
    }

    /// The job's identity (name + service-assigned instance).
    pub fn id(&self) -> &JobId {
        &self.id
    }

    /// The human-chosen job name.
    pub fn name(&self) -> &str {
        self.id.name()
    }

    /// DFS path of the input adjacency text.
    pub fn input_path(&self) -> &str {
        &self.input_path
    }

    /// DFS directory for the output dump.
    pub fn output_path(&self) -> &str {
        &self.output_path
    }

    /// Physical plan hints.
    pub fn plan(&self) -> PlanConfig {
        self.plan
    }

    /// Vertex partitions per worker machine.
    pub fn partitions_per_worker(&self) -> usize {
        self.partitions_per_worker
    }

    /// Checkpoint interval in supersteps (`None` = no checkpoints).
    pub fn checkpoint_interval(&self) -> Option<u64> {
        self.checkpoint_interval
    }

    /// Superstep cap (`None` = run to fixpoint).
    pub fn max_supersteps(&self) -> Option<u64> {
        self.max_supersteps
    }

    /// In-place retries of recoverable I/O failures.
    pub fn io_retries(&self) -> u32 {
        self.io_retries
    }

    /// Failure-manager recovery cap.
    pub fn max_recoveries(&self) -> u32 {
        self.max_recoveries
    }

    /// Buffer-cache pages requested from the job service at admission
    /// (`None` = the service default).
    pub fn page_budget(&self) -> Option<u64> {
        self.page_budget
    }

    /// Derive the descriptor of pipeline stage `i`: identical settings
    /// under the stage identity `<name>-stage<i>` (same service instance),
    /// so consecutive stages of one submission share I/O paths but never
    /// collide on per-job DFS state. Replaces the struct-literal clone the
    /// pipeline runner historically performed.
    pub fn derive_stage(&self, i: usize) -> PregelixJob {
        let mut stage = self.clone();
        stage.id = self.id.derive(&format!("stage{i}"));
        stage
    }

    /// Set the message–vertex join strategy (Figure 9's
    /// `setMessageVertexJoin`).
    pub fn with_join(mut self, join: JoinStrategy) -> Self {
        self.plan.join = join;
        self
    }

    /// Set the message group-by strategy and connector (Figure 9's
    /// `setMessageGroupBy` + `setMessageGroupByConnector`).
    pub fn with_groupby(mut self, groupby: GroupByStrategy) -> Self {
        self.plan.groupby = groupby;
        self
    }

    /// Set the full plan at once.
    pub fn with_plan(mut self, plan: PlanConfig) -> Self {
        self.plan = plan;
        self
    }

    /// Set input/output DFS paths.
    pub fn with_io(mut self, input: impl Into<String>, output: impl Into<String>) -> Self {
        self.input_path = input.into();
        self.output_path = output.into();
        self
    }

    /// Enable checkpointing every `n` supersteps.
    pub fn with_checkpoint_interval(mut self, n: u64) -> Self {
        self.checkpoint_interval = Some(n);
        self
    }

    /// Bound the number of supersteps.
    pub fn with_max_supersteps(mut self, n: u64) -> Self {
        self.max_supersteps = Some(n);
        self
    }

    /// Partitions per worker.
    pub fn with_partitions_per_worker(mut self, n: usize) -> Self {
        self.partitions_per_worker = n.max(1);
        self
    }

    /// In-place retries of recoverable checkpoint-write failures (0
    /// disables, forcing every such failure through checkpoint recovery).
    pub fn with_io_retries(mut self, n: u32) -> Self {
        self.io_retries = n;
        self
    }

    /// Cap on failure-manager recoveries before the job surfaces a typed
    /// `RecoveriesExhausted` error.
    pub fn with_max_recoveries(mut self, n: u32) -> Self {
        self.max_recoveries = n;
        self
    }

    /// Buffer-cache pages the job service should reserve for this job at
    /// admission (overrides the service's default per-job share).
    pub fn with_page_budget(mut self, pages: u64) -> Self {
        self.page_budget = Some(pages);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_distinct_plans() {
        let all = PlanConfig::all();
        assert_eq!(all.len(), 8);
        let labels: std::collections::HashSet<String> =
            all.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), 8, "labels must be unique");
    }

    #[test]
    fn default_plan_matches_paper() {
        let p = PlanConfig::default();
        assert_eq!(p.join, JoinStrategy::FullOuter);
        assert_eq!(p.groupby, GroupByStrategy::SortUnmerged);
        assert_eq!(p.label(), "foj-sort-unmerged");
    }

    #[test]
    fn adaptive_resolves_by_live_fraction() {
        assert_eq!(JoinStrategy::Adaptive.resolve(1.0), JoinStrategy::FullOuter);
        assert_eq!(JoinStrategy::Adaptive.resolve(0.5), JoinStrategy::FullOuter);
        assert_eq!(JoinStrategy::Adaptive.resolve(0.05), JoinStrategy::LeftOuter);
        // Fixed strategies never change.
        assert_eq!(JoinStrategy::FullOuter.resolve(0.0), JoinStrategy::FullOuter);
        assert_eq!(JoinStrategy::LeftOuter.resolve(1.0), JoinStrategy::LeftOuter);
    }

    #[test]
    fn cost_model_threshold_tracks_measured_pins() {
        // A perfect cursor (≈0 pins/probe) makes probing nearly free: the
        // threshold rises to its upper clamp.
        let fast = ProbeCostModel { pins_per_probe: 0.0 };
        assert_eq!(fast.threshold(), ProbeCostModel::MAX_THRESHOLD);
        // The pre-cursor regime (a full descent per probe, height ≈ 4)
        // lands at the lower clamp: probe only when very sparse.
        let slow = ProbeCostModel { pins_per_probe: 5.0 };
        assert_eq!(slow.threshold(), ProbeCostModel::MIN_THRESHOLD);
        // Monotone in between.
        let mid = ProbeCostModel { pins_per_probe: 0.5 };
        assert!(mid.threshold() < fast.threshold());
        assert!(mid.threshold() > slow.threshold());
        assert!((mid.threshold() - 1.0 / 3.0).abs() < 1e-9);
        // Degenerate measurements fall back to the default.
        let bad = ProbeCostModel { pins_per_probe: f64::NAN };
        assert_eq!(bad.threshold(), ProbeCostModel::DEFAULT_THRESHOLD);
    }

    #[test]
    fn cost_model_from_counters() {
        use pregelix_common::stats::StatsSnapshot;
        let mut d = StatsSnapshot::default();
        assert_eq!(ProbeCostModel::from_counters(&d), None, "no probes");
        d.probe_leaf_hits = 900;
        d.probe_redescents = 100;
        d.probe_page_pins = 500;
        let m = ProbeCostModel::from_counters(&d).unwrap();
        assert!((m.pins_per_probe - 0.5).abs() < 1e-9);
    }

    #[test]
    fn adaptive_resolution_shifts_with_measured_costs() {
        // live fraction 0.3: historic threshold (0.2) says scan...
        assert_eq!(
            JoinStrategy::Adaptive.resolve_with(0.3, None),
            JoinStrategy::FullOuter
        );
        // ...but a measured cheap probe path (threshold 1/3) says probe.
        let m = ProbeCostModel { pins_per_probe: 0.5 };
        assert_eq!(
            JoinStrategy::Adaptive.resolve_with(0.3, Some(m)),
            JoinStrategy::LeftOuter
        );
        // Fixed strategies ignore the model.
        assert_eq!(
            JoinStrategy::FullOuter.resolve_with(0.0, Some(m)),
            JoinStrategy::FullOuter
        );
    }

    #[test]
    fn job_builder_sets_hints() {
        let job = PregelixJob::new("sssp")
            .with_join(JoinStrategy::LeftOuter)
            .with_groupby(GroupByStrategy::HashSortUnmerged)
            .with_checkpoint_interval(5)
            .with_max_supersteps(30)
            .with_partitions_per_worker(2)
            .with_max_recoveries(7)
            .with_io("in/graph", "out/sssp");
        assert_eq!(job.plan().join, JoinStrategy::LeftOuter);
        assert_eq!(job.plan().groupby, GroupByStrategy::HashSortUnmerged);
        assert_eq!(job.checkpoint_interval(), Some(5));
        assert_eq!(job.max_supersteps(), Some(30));
        assert_eq!(job.partitions_per_worker(), 2);
        assert_eq!(job.max_recoveries(), 7);
        assert_eq!(job.input_path(), "in/graph");
        assert_eq!(job.name(), "sssp");
        assert_eq!(job.id(), &JobId::new("sssp"));
        // Fresh jobs carry the documented recovery defaults.
        let fresh = PregelixJob::new("defaults");
        assert_eq!(fresh.max_recoveries(), 32);
        assert_eq!(fresh.page_budget(), None);
        assert_eq!(
            fresh.with_page_budget(128).page_budget(),
            Some(128)
        );
    }

    #[test]
    fn derive_stage_renames_only_the_identity() {
        let job = PregelixJob::new("pipe")
            .with_io("in/g", "out/g")
            .with_checkpoint_interval(3);
        let stage = job.derive_stage(1);
        assert_eq!(stage.name(), "pipe-stage1");
        assert_eq!(stage.id().tag(), "pipe-stage1");
        assert_eq!(stage.input_path(), "in/g");
        assert_eq!(stage.output_path(), "out/g");
        assert_eq!(stage.checkpoint_interval(), Some(3));
        // Stages of an instanced submission inherit the instance.
        let mut instanced = job.clone();
        instanced.id = JobId::with_instance("pipe", 2);
        assert_eq!(instanced.derive_stage(0).id().tag(), "pipe-stage0.2");
    }
}
