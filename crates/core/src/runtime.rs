//! The Pregelix driver: superstep loop, failure manager, job pipelining.
//!
//! [`run_job`] is the top-level entry point mirroring `Client.run` from
//! Figure 9: load the graph, iterate supersteps until the global halt,
//! dump the result, under a counter scope of its own. Concurrent jobs are
//! threads calling [`run_job`] on one shared [`Cluster`]: each batch of
//! tasks runs under the scope of the thread that submitted it, so every
//! job's [`JobSummary::job_stats`] counts its own work (§7.4).
//! [`LoadedGraph`] keeps the partitioned `Vertex` relation resident
//! between jobs, which is what makes job pipelining (§5.6) possible:
//! compatible contiguous jobs run back-to-back "without HDFS writes/reads
//! nor index bulk-loads".
//!
//! [`RunLoop`] runs one job: `begin` is the prologue, each `step` one
//! superstep with the recovery it needs, `finish` the [`JobSummary`]. The
//! failure manager (§5.7) lives in `step`: a recoverable infrastructure
//! failure (worker powered off, I/O error) recovers from the latest
//! checkpoint onto the alive workers, an application error goes to the
//! caller. Failure detection is the heartbeat [`FailureDetector`] (§5.5),
//! observed at each superstep barrier.

use crate::api::VertexProgram;
use crate::checkpoint;
use crate::gs::GlobalState;
use crate::plan::{PregelixJob, ProbeCostModel};
use crate::recovery;
use crate::superstep::{FoldSlot, FoldTable, PartitionState, Source, SuperstepPlan};
use parking_lot::Mutex;
use pregelix_common::error::{PregelixError, Result};
use pregelix_common::fault::{self, Fault, Site};
use pregelix_common::stats::{current_job_scope, enter_job_scope, ClusterCounters, StatsSnapshot};
use pregelix_common::writable::Writable;
use pregelix_common::Vid;
use pregelix_dataflow::cluster::{Cluster, FailureDetector};
use std::sync::Arc;
use std::time::Duration;

/// Base delay of the capped exponential backoff between in-place retries
/// and between recovery attempts. Pacing only: faults fire on event counts,
/// never on time, so the pause never influences *which* failures occur.
const RETRY_BACKOFF: Duration = Duration::from_millis(1);

/// What a finished job reports (feeds the experiment harnesses).
#[derive(Clone, Debug)]
pub struct JobSummary {
    /// Display tag of the job (its [`pregelix_common::JobId`]).
    pub name: String,
    /// Supersteps actually executed.
    pub supersteps: u64,
    /// Time of each superstep's dataflow job, in execution order: one
    /// entry per superstep, plus one more for each superstep re-run after
    /// a rollback to a checkpoint.
    pub superstep_times: Vec<Duration>,
    /// Total time of the superstep loop (excludes load/dump and
    /// checkpoint writes): wall-clock in parallel mode, the simulated
    /// cluster makespan in sequential-timed mode.
    pub elapsed: Duration,
    /// Final global state.
    pub final_gs: GlobalState,
    /// Cluster counter delta over the run. With concurrent jobs on the
    /// cluster this includes work the others did meanwhile — use
    /// [`JobSummary::job_stats`] for the per-job attribution.
    pub stats: StatsSnapshot,
    /// Counter deltas per superstep (the statistics collector's
    /// per-superstep view, §5.7), same order as `superstep_times`.
    pub superstep_stats: Vec<StatsSnapshot>,
    /// Counters attributed to *this job only*: the delta of the job's
    /// counter scope (`pregelix_common::stats::enter_job_scope`) over the
    /// run when one is installed — [`run_job`] and [`run_pipeline`]
    /// install one per job — falling back to the cluster delta (==
    /// `stats`) when the job ran without a scope. This is what
    /// multi-tenant chaos digests compare.
    pub job_stats: StatsSnapshot,
    /// Number of checkpoint recoveries performed.
    pub recoveries: u32,
    /// In-place retries of recoverable failures absorbed *without* a
    /// recovery (transient I/O hiccups during checkpoint writes, §5.7).
    pub retries: u64,
    /// How `compute[p]` combined outgoing messages, and why.
    pub sender_fold: SenderFold,
}

/// How a job's `compute[p]` tasks combine outgoing messages per
/// destination. Decided once per job from the program's types, the loaded
/// graph's vid range, and the workers' group-by budget and page size —
/// nothing selects it by hand. The `Display` form is what
/// `examples/quickstart` prints.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SenderFold {
    /// Messages to vids below `hi` fold into a direct-address table slot;
    /// the rest (and only the rest) is sorted.
    Direct {
        /// One past the largest vid the loader saw.
        hi: Vid,
        /// Passes the table makes over `hi`: 1 when it fits half the
        /// budget whole. Past that, the messages for each later window wait
        /// in a spill file until the table is free for them.
        windows: u64,
        /// Slots resident at a time (`hi` when `windows == 1`).
        slots_per_window: u64,
        /// What one partition's table allocates.
        table_bytes: u64,
        /// One storage page of staged records per window past the first.
        spill_buffer_bytes: u64,
        /// The group-by budget it all comes out of: half at most for the
        /// table, a quarter at most for spill buffers, the rest for the
        /// sorter of stray destinations.
        budget_bytes: u64,
    },
    /// Every message is sorted and grouped: the program has no combiner.
    SortNoCombiner,
    /// … its message type has no `Writable::FIXED_WIDTH`.
    SortVariableWidth,
    /// … or the table takes so many windows of half the budget that their
    /// spill buffers would not fit a quarter of it.
    SortTableTooLarge {
        /// What the table would allocate whole.
        table_bytes: u64,
        windows: u64,
        spill_buffer_bytes: u64,
        budget_bytes: u64,
    },
}

impl SenderFold {
    /// A table that fits half the group-by budget is resident whole. A
    /// larger one keeps as many slots as half the budget holds and covers
    /// `hi` in windows of that many, each window past the first costing a
    /// page of spill buffer — as long as those pages fit a quarter of the
    /// budget, so that the sorter for stray destinations (and everything
    /// downstream sized from the same budget) keeps the last quarter.
    fn decide<P: VertexProgram>(
        program: &P,
        hi: Vid,
        groupby_budget: usize,
        page_size: usize,
    ) -> SenderFold {
        if program.combiner().is_none() {
            return SenderFold::SortNoCombiner;
        }
        if P::Message::FIXED_WIDTH.is_none() {
            return SenderFold::SortVariableWidth;
        }
        let budget_bytes = groupby_budget as u64;
        let whole = FoldTable::<P::Message>::bytes(hi);
        let (slots_per_window, windows) = if whole <= budget_bytes / 2 {
            (hi, 1)
        } else {
            let slots = FoldTable::<P::Message>::slots_in(budget_bytes / 2);
            // Where not even one bitmap word of slots fits: windows without
            // end.
            let windows = if slots == 0 {
                u64::MAX
            } else {
                hi.div_ceil(slots)
            };
            (slots, windows)
        };
        let spill_buffer_bytes = (windows - 1).saturating_mul(page_size as u64);
        if spill_buffer_bytes > budget_bytes / 4 {
            return SenderFold::SortTableTooLarge {
                table_bytes: whole,
                windows,
                spill_buffer_bytes,
                budget_bytes,
            };
        }
        SenderFold::Direct {
            hi,
            windows,
            slots_per_window,
            table_bytes: FoldTable::<P::Message>::bytes(slots_per_window),
            spill_buffer_bytes,
            budget_bytes,
        }
    }
}

impl std::fmt::Display for SenderFold {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kb = |bytes: u64| bytes.div_ceil(1024);
        match *self {
            SenderFold::Direct {
                hi,
                windows: 1,
                table_bytes,
                budget_bytes,
                ..
            } => write!(
                f,
                "direct (hi={hi}, {} KB of {} KB)",
                kb(table_bytes),
                kb(budget_bytes / 2)
            ),
            SenderFold::Direct {
                hi,
                windows,
                slots_per_window,
                table_bytes,
                spill_buffer_bytes,
                budget_bytes,
            } => write!(
                f,
                "direct (hi={hi}, {windows} windows of {slots_per_window}, {} KB + {} KB of {} KB)",
                kb(table_bytes),
                kb(spill_buffer_bytes),
                kb(budget_bytes)
            ),
            SenderFold::SortNoCombiner => write!(f, "sort (no combiner)"),
            SenderFold::SortVariableWidth => write!(f, "sort (variable-width message)"),
            SenderFold::SortTableTooLarge {
                table_bytes,
                windows,
                spill_buffer_bytes,
                budget_bytes,
            } => write!(
                f,
                "sort (table {} KB: {windows} windows need {} KB of buffers > {} KB)",
                kb(table_bytes),
                kb(spill_buffer_bytes),
                kb(budget_bytes / 4)
            ),
        }
    }
}

impl JobSummary {
    /// Average per-superstep time (Figure 11's metric).
    pub fn avg_superstep(&self) -> Duration {
        if self.superstep_times.is_empty() {
            Duration::ZERO
        } else {
            self.elapsed / self.superstep_times.len() as u32
        }
    }
}

/// Retry a recoverable operation in place with capped exponential backoff
/// (§5.7). Transient I/O failures — e.g. a flaky DFS write during a
/// checkpoint — are absorbed here without consuming a checkpoint recovery;
/// non-recoverable errors and exhausted retries propagate to the failure
/// manager.
fn retry_recoverable<T>(
    cluster: &Cluster,
    retries: u32,
    mut op: impl FnMut() -> Result<T>,
) -> Result<T> {
    let mut attempt = 0u32;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if e.is_recoverable() && attempt < retries => {
                attempt += 1;
                cluster.counters().add_fault_retries(1);
                std::thread::sleep(RETRY_BACKOFF * (1u32 << (attempt - 1).min(4)));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Write a checkpoint of the state feeding superstep `gs.superstep` and make
/// `gs` the job's `GS` primary copy (`jobs/<id>/gs`) with it. Nothing reads
/// the primary copy between checkpoints — tasks get their `GS` from the
/// driver, recovery from the manifest and `gs-hist/` — so it is
/// written where it is durable state (here, at job start and at job end)
/// and not by every superstep's `gs` task.
fn checkpoint_with_gs(
    cluster: &Cluster,
    job: &PregelixJob,
    graph: &LoadedGraph,
    gs: &GlobalState,
) -> Result<()> {
    retry_recoverable(cluster, job.io_retries, || {
        checkpoint::write_checkpoint(cluster, job, &graph.partitions, &graph.sticky, gs)?;
        gs.store(cluster.dfs(), &job.id)
    })
}

/// A graph loaded into the cluster: the partitioned `Vertex` relation plus
/// per-partition `Msg`/`Vid` state, resident across supersteps and across
/// pipelined jobs. Dropping it releases every partition's files. It is
/// loaded and dumped by [`crate::load`] and read back by [`crate::store`].
pub struct LoadedGraph {
    pub(crate) partitions: Vec<Arc<Mutex<PartitionState>>>,
    pub(crate) sticky: Vec<usize>,
    pub(crate) vertex_count: u64,
    /// One past the largest vid the loader saw (0 for an empty graph).
    /// Sizes the sender-side fold tables; vertices created later may lie
    /// above it, and nothing but that sizing depends on it.
    pub(crate) hi: Vid,
    /// Whether every partition on a live worker holds exactly the state
    /// that feeds the running job's next superstep — what recovery must
    /// know before it leaves survivors alone. A superstep attempt that
    /// fails after its tasks started, or a reload of every partition that
    /// fails part-way, clears it until a recovery reloads them all.
    pub(crate) intact: bool,
}

// Partition state is not meaningfully printable; `Debug` (needed by test
// code calling `unwrap_err` on job results) shows the shape only.
impl std::fmt::Debug for LoadedGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoadedGraph")
            .field("partitions", &self.partitions.len())
            .field("sticky", &self.sticky)
            .field("vertex_count", &self.vertex_count)
            .finish()
    }
}

impl LoadedGraph {
    /// Total vertices currently in the graph.
    pub fn vertex_count(&self) -> u64 {
        self.vertex_count
    }

    /// Run one Pregel job over the resident graph to completion.
    ///
    /// Every vertex starts active (Pregel job semantics), regardless of
    /// halt bits carried over from a previous pipelined job — superstep 1
    /// activates all vertices in both join plans.
    pub fn run<P: VertexProgram>(
        &mut self,
        cluster: &Cluster,
        program: &Arc<P>,
        job: &PregelixJob,
    ) -> Result<JobSummary> {
        let mut lp = RunLoop::begin(cluster, program, job, self)?;
        while !lp.step(cluster, self)? {}
        Ok(lp.finish(cluster))
    }
}

/// The superstep loop of one job, driven by [`LoadedGraph::run`]: `begin`
/// (prologue), `step` (one superstep, with its failure handling), `finish`
/// (summary).
pub(crate) struct RunLoop<P: VertexProgram> {
    /// The superstep plan, built here once for the whole job.
    plan: Arc<SuperstepPlan<P>>,
    job: PregelixJob,
    gs: GlobalState,
    stats_before: StatsSnapshot,
    /// Snapshot of the job's counter scope at `begin`, when one was
    /// installed — `finish` reports the delta so pipeline stages sharing
    /// one scope each get their own attribution.
    scope_before: Option<StatsSnapshot>,
    superstep_times: Vec<Duration>,
    superstep_stats: Vec<StatsSnapshot>,
    recoveries: u32,
    detector: FailureDetector,
    initial_ckpt_done: bool,
    cost_model: Option<ProbeCostModel>,
    sender_fold: SenderFold,
}

impl<P: VertexProgram> RunLoop<P> {
    /// Job prologue: build the superstep plan, drop what a previous job
    /// left in the resident graph, store the initial `GS`, and snapshot the
    /// counters the summary will delta against.
    pub(crate) fn begin(
        cluster: &Cluster,
        program: &Arc<P>,
        job: &PregelixJob,
        graph: &mut LoadedGraph,
    ) -> Result<RunLoop<P>> {
        // Drop a previous job's `Vid` and `Msg` runs. Superstep 1 is a
        // full-outer scan for every plan; a plan that probes writes its
        // first `Vid` run there, from the vids that stay live.
        for p in &graph.partitions {
            let mut st = p.lock();
            for run in [st.vid_index.take(), st.msg_run.take()].into_iter().flatten() {
                run.delete()?;
            }
        }
        graph.intact = true;

        let gs = GlobalState::initial(graph.vertex_count, Vec::new());
        gs.store(cluster.dfs(), &job.id)?;
        // Every worker is sized from one `ClusterConfig`, so any worker's
        // group-by budget and page size are the cluster's.
        let worker = cluster.worker(0);
        let sender_fold = SenderFold::decide(
            &**program,
            graph.hi,
            worker.groupby_budget(),
            worker.file_manager().page_size(),
        );
        // One pooled fold-table slot per partition for every program that
        // can fold by address: tables are allocated by the first task that
        // needs one and live until the job ends. Under
        // [`SenderFold::Direct`] both ends of the message edge fold into
        // it. A sender whose table does not fit sorts, but its receiver's
        // inputs arrive sorted: it folds in windows of what half the budget
        // holds, one bitmap word at least.
        let layout = match sender_fold {
            SenderFold::Direct {
                slots_per_window, ..
            } => Some((slots_per_window, true)),
            SenderFold::SortTableTooLarge { budget_bytes, .. } => {
                Some((FoldTable::<P::Message>::slots_in(budget_bytes / 2).max(64), false))
            }
            SenderFold::SortNoCombiner | SenderFold::SortVariableWidth => None,
        };
        let fold_slots = match (layout, program.combiner()) {
            (Some((window, sender)), Some(combine)) => (0..graph.partitions.len())
                .map(|_| {
                    let (hi, window) = (graph.hi as usize, window as usize);
                    FoldSlot::new(hi, window, sender, Arc::clone(&combine))
                })
                .collect(),
            _ => Vec::new(),
        };
        // §5.4: spill only when necessary. A partition's `Msg` and `Vid`
        // runs share what the group-by budget leaves after the sender's
        // fold (a sorter is budgeted all of it), split over the runs it
        // holds at once: `Msg_i` and `Msg_{i+1}`, plus `Vid_i` and
        // `Vid_{i+1}` under a plan that tracks live vids. A run always
        // holds eight frames, so a sparse superstep's runs cost no file I/O.
        let budget = worker.groupby_budget();
        let fold_bytes = match sender_fold {
            SenderFold::Direct {
                table_bytes,
                spill_buffer_bytes,
                ..
            } => (table_bytes + spill_buffer_bytes) as usize,
            _ => budget,
        };
        let runs = if job.plan.tracks_live() { 4 } else { 2 };
        let run_threshold =
            (budget.saturating_sub(fold_bytes) / runs).max(8 * worker.frame_bytes());
        Ok(RunLoop {
            plan: Arc::new(SuperstepPlan::new(program, job, fold_slots, run_threshold)),
            job: job.clone(),
            gs,
            stats_before: cluster.counters().snapshot(),
            scope_before: current_job_scope().map(|s| s.snapshot()),
            superstep_times: Vec::new(),
            superstep_stats: Vec::new(),
            recoveries: 0,
            // Heartbeat failure detector (§5.5): one observation per
            // superstep barrier, expecting a beat from every worker
            // holding partitions.
            detector: FailureDetector::new(cluster),
            // With checkpointing enabled, snapshot the *initial* state
            // too, so a failure before the first periodic checkpoint can
            // restart from superstep 1 rather than aborting the job.
            initial_ckpt_done: false,
            // Measured probe-cost model for Adaptive join resolution
            // (§7.5): re-derived from each superstep's counter delta
            // whenever that superstep actually probed, and carried
            // forward otherwise.
            cost_model: None,
            sender_fold,
        })
    }

    /// Execute one superstep (one attempt plus whatever recovery it
    /// needs). Returns `Ok(true)` when the job is finished — global halt
    /// or the superstep cap — and `Ok(false)` when another `step` is due.
    pub(crate) fn step(
        &mut self,
        cluster: &Cluster,
        graph: &mut LoadedGraph,
    ) -> Result<bool> {
        let job = &self.job;
        let plan = &self.plan;
        // Set when the attempt failed on the *pre-flight* aliveness check —
        // i.e. the death was detected at the barrier, before any task of
        // the attempt ran. Only then are the survivors guaranteed to sit
        // exactly at the current superstep with their Msg runs intact, which
        // is what lets recovery leave them alone. A death detected
        // mid-superstep loses every partition.
        let mut clean_death = false;
        let gs = &self.gs;
        let (initial_ckpt_done, cost_model) = (self.initial_ckpt_done, self.cost_model);
        let before = cluster.counters().snapshot();
        let attempt = (|| -> Result<(GlobalState, Duration)> {
            if job.checkpoint_interval.is_some() && !initial_ckpt_done {
                checkpoint_with_gs(cluster, job, graph, gs)?;
            }
            // Superstep-barrier fault site: lets tests fail a worker (or
            // inject an error) at an exact superstep boundary, after any
            // initial checkpoint but before the superstep runs. The
            // context string is the superstep number, so a rule scoped
            // to `"3"` fires exactly when superstep 3 is about to start.
            if fault::active() {
                let ctx = gs.superstep.to_string();
                if let Some(f) = fault::hit(Site::Barrier, &ctx) {
                    cluster.counters().add_faults_injected(1);
                    match f {
                        Fault::FailWorker(id) => cluster.fail_worker(id),
                        _ => return Err(fault::injected_error(Site::Barrier, &ctx)),
                    }
                }
            }
            // Pre-flight aliveness check: catch a worker death at the
            // barrier, *before* any task of this attempt runs. A death
            // caught here is "clean" — every surviving partition of an
            // intact graph is still exactly at `gs.superstep` with its Msg
            // run intact — so recovery may reload only the dead partitions.
            let alive = cluster.alive_workers();
            if let Some(&dead) = graph.sticky.iter().find(|wk| !alive.contains(wk)) {
                clean_death = true;
                return Err(PregelixError::WorkerDead { id: dead });
            }
            let live = Source::Live(cost_model);
            let (new_gs, duration) = plan.run(cluster, &graph.partitions, &graph.sticky, gs, live)?;
            let new_gs =
                new_gs.ok_or_else(|| PregelixError::internal("gs task produced no outcome"))?;
            // Pin this superstep's GS history entry whenever the job
            // checkpoints (best-effort: a missing entry makes recovery
            // reload every partition rather than corrupt anything).
            if job.checkpoint_interval.is_some() {
                let _ = new_gs.store_hist(cluster.dfs(), &job.id);
            }
            let finished_ss = new_gs.superstep - 1;
            let checkpoint_due = job
                .checkpoint_interval
                .map(|n| n > 0 && finished_ss % n == 0)
                .unwrap_or(false);
            if checkpoint_due && !new_gs.halt {
                checkpoint_with_gs(cluster, job, graph, &new_gs)?;
                // The new checkpoint makes every older checkpoint,
                // message log, and GS history entry dead weight for
                // recovery: any replay now starts at `new_gs.superstep`
                // or later. Retire them (counted in ckpt_bytes_retired).
                checkpoint::retire_old_state(
                    cluster.dfs(),
                    cluster.counters(),
                    &job.id,
                    new_gs.superstep,
                );
            }
            Ok((new_gs, duration))
        })();
        // Barrier observation: workers holding partitions were expected
        // to beat during the attempt (deduped — observe counts misses
        // per listed entry).
        let mut expected = graph.sticky.clone();
        expected.sort_unstable();
        expected.dedup();
        match attempt {
            Ok((new_gs, duration)) => {
                self.detector.observe(cluster, &expected);
                self.initial_ckpt_done = true;
                self.superstep_times.push(duration);
                let delta = cluster.counters().snapshot().delta_since(&before);
                if let Some(m) = ProbeCostModel::from_counters(&delta) {
                    self.cost_model = Some(m);
                }
                self.superstep_stats.push(delta);
                self.gs = new_gs;
                graph.vertex_count = self.gs.vertex_count;
                // gs.superstep - 1 = last finished superstep.
                let finished = self.gs.halt
                    || self
                        .job
                        .max_supersteps
                        .is_some_and(|max| self.gs.superstep > max);
                if finished {
                    // The job's final GS becomes the primary copy.
                    retry_recoverable(cluster, self.job.io_retries, || {
                        self.gs.store(cluster.dfs(), &self.job.id)
                    })?;
                }
                Ok(finished)
            }
            Err(mut e) if e.is_recoverable() => {
                if !clean_death {
                    graph.intact = false;
                }
                // Failure manager (§5.7): run a detector observation so
                // dead workers are formally declared and blacklisted,
                // then recover.
                loop {
                    self.detector.observe(cluster, &expected);
                    if self.recoveries >= self.job.max_recoveries {
                        return Err(PregelixError::RecoveriesExhausted {
                            cap: self.job.max_recoveries,
                            last_error: e.to_string(),
                        });
                    }
                    self.recoveries += 1;
                    std::thread::sleep(
                        RETRY_BACKOFF * (1u32 << (self.recoveries.saturating_sub(1)).min(4)),
                    );
                    match recovery::recover(
                        cluster,
                        &self.plan,
                        &self.job,
                        graph,
                        &mut self.gs,
                        clean_death,
                    ) {
                        Ok(true) => return Ok(false),
                        // No usable checkpoint at all: surface the failure
                        // to the caller.
                        Ok(false) => return Err(e),
                        // The recovery itself hit a recoverable fault (a
                        // flaky manifest read, another worker lost
                        // mid-reload). With the graph intact the next step
                        // re-attempts the superstep, whose pre-flight check
                        // classifies any new death; partitions left between
                        // supersteps must be recovered before anything runs
                        // on them.
                        Err(re) if re.is_recoverable() && graph.intact => return Ok(false),
                        Err(re) if re.is_recoverable() => e = re,
                        Err(re) => return Err(re),
                    }
                }
            }
            Err(e) => Err(e),
        }
    }

    /// Fold the run into a [`JobSummary`]. Call after `step` returned
    /// `Ok(true)`.
    pub(crate) fn finish(&mut self, cluster: &Cluster) -> JobSummary {
        let stats = cluster.counters().snapshot().delta_since(&self.stats_before);
        // Per-job attribution: the job scope's delta when one is
        // installed (`run_job`'s per-job tee), else the cluster delta —
        // which for a lone job is the same thing.
        let job_stats = match current_job_scope() {
            Some(scope) => {
                let snap = scope.snapshot();
                match &self.scope_before {
                    Some(b) => snap.delta_since(b),
                    None => snap,
                }
            }
            None => stats,
        };
        let retries = stats.fault_retries;
        JobSummary {
            name: self.job.id.tag().to_string(),
            supersteps: self.gs.superstep.saturating_sub(1),
            // Sum of superstep durations: equals wall time in parallel
            // mode (modulo checkpoint writes), and the simulated parallel
            // time in sequential-timed mode.
            elapsed: self.superstep_times.iter().sum(),
            superstep_times: std::mem::take(&mut self.superstep_times),
            final_gs: self.gs.clone(),
            stats,
            superstep_stats: std::mem::take(&mut self.superstep_stats),
            job_stats,
            recoveries: self.recoveries,
            retries,
            sender_fold: self.sender_fold,
        }
    }
}

/// Run a complete job: load → superstep loop → dump. The Figure 9
/// `Client.run` path. Concurrent jobs are threads calling this on one
/// shared cluster; each runs under a counter scope of its own.
pub fn run_job<P: VertexProgram>(
    cluster: &Cluster,
    program: &Arc<P>,
    job: &PregelixJob,
) -> Result<JobSummary> {
    let stages = [(Arc::clone(program), job.clone())];
    let mut summaries = run_stages(cluster, &stages, job)?;
    Ok(summaries.pop().expect("one stage, one summary"))
}

/// Job pipelining (§5.6): run a sequence of compatible jobs (same vertex
/// type bits, producer-consumer data relationship) over one resident
/// graph, loading once and dumping once. Returns one summary per stage.
///
/// "A user can choose to enable this option to get improved performance
/// with reduced fault-tolerance" — checkpoints are per-stage; a failure in
/// stage k restarts that stage's superstep loop only. Stage `i` runs under
/// [`PregelixJob::derive_stage`]`(i)`.
pub fn run_pipeline<P: VertexProgram>(
    cluster: &Cluster,
    stages: &[Arc<P>],
    job: &PregelixJob,
) -> Result<Vec<JobSummary>> {
    let stages: Vec<_> = stages
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, program)| (program, job.derive_stage(i)))
        .collect();
    run_stages(cluster, &stages, job)
}

/// Load under the first stage, run every stage over the resident graph,
/// dump under `job`, all inside a fresh counter scope. Then, whether the
/// job succeeded or failed, clear every stage's checkpoints, message logs
/// and GS history; on failure that clear is best-effort and the job's own
/// error is what returns.
fn run_stages<P: VertexProgram>(
    cluster: &Cluster,
    stages: &[(Arc<P>, PregelixJob)],
    job: &PregelixJob,
) -> Result<Vec<JobSummary>> {
    let (Some((first, first_job)), Some((last, _))) = (stages.first(), stages.last()) else {
        return Err(PregelixError::plan("empty pipeline"));
    };
    let _scope = enter_job_scope(&ClusterCounters::new());
    let outcome = (|| -> Result<Vec<JobSummary>> {
        let mut graph = LoadedGraph::load(cluster, first, first_job)?;
        let summaries = stages
            .iter()
            .map(|(program, stage)| graph.run(cluster, program, stage))
            .collect::<Result<Vec<_>>>()?;
        graph.dump(cluster, last, job)?;
        Ok(summaries)
    })();
    let cleared = stages
        .iter()
        .try_for_each(|(_, stage)| checkpoint::clear_checkpoints(cluster.dfs(), &stage.id));
    let summaries = outcome?;
    cleared?;
    Ok(summaries)
}

/// Convenience used by tests and benches: run a job over in-memory records
/// without writing input text to the DFS.
pub fn run_job_from_records<P: VertexProgram>(
    cluster: &Cluster,
    program: &Arc<P>,
    job: &PregelixJob,
    records: Vec<(Vid, Vec<(Vid, f64)>)>,
) -> Result<(JobSummary, LoadedGraph)> {
    let mut graph = LoadedGraph::load_from_records(cluster, program, job, records)?;
    let summary = graph.run(cluster, program, job)?;
    Ok((summary, graph))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{tests_support::NoopProgram, ComputeContext, MessageCombiner};
    use crate::vertex::VertexData;

    /// Min-combined messages of type `M`; every vertex stays live for
    /// `live_for` supersteps and sends nothing.
    struct MinOf<M> {
        live_for: u64,
        message: std::marker::PhantomData<M>,
    }

    fn min_of<M>(live_for: u64) -> MinOf<M> {
        MinOf {
            live_for,
            message: std::marker::PhantomData,
        }
    }

    impl<M: Writable + std::fmt::Debug + PartialOrd> VertexProgram for MinOf<M> {
        type VertexValue = u64;
        type EdgeValue = ();
        type Message = M;
        type Aggregate = ();

        fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<()> {
            if ctx.superstep() >= self.live_for {
                ctx.vote_to_halt();
            }
            Ok(())
        }

        fn init_vertex(&self, vid: Vid, _edges: Vec<(Vid, f64)>) -> VertexData<Self> {
            VertexData::new(vid, 0, Vec::new())
        }

        fn combiner(&self) -> Option<MessageCombiner<M>> {
            Some(Arc::new(
                |a: &M, b: &M| if b < a { b.clone() } else { a.clone() },
            ))
        }
    }

    /// The `GS` primary copy is written where it is durable state — job
    /// start, each checkpoint, job end — and stays put in between.
    #[test]
    fn gs_primary_copy_follows_checkpoints_and_the_final_state() {
        use pregelix_dataflow::cluster::ClusterConfig;
        let cluster = Cluster::new(ClusterConfig::new(2, 8 << 20).sequential_timed()).unwrap();
        let job = PregelixJob::new("gs-primary").with_checkpoint_interval(2);
        let program = Arc::new(min_of::<u64>(5));
        let records = (0..8).map(|v| (v, Vec::new())).collect();
        let mut graph = LoadedGraph::load_from_records(&cluster, &program, &job, records).unwrap();
        let mut lp = RunLoop::begin(&cluster, &program, &job, &mut graph).unwrap();
        let primary = || GlobalState::fetch(cluster.dfs(), &job.id).unwrap();
        assert_eq!(primary(), GlobalState::initial(8, Vec::new()));
        let mut checkpointed = Vec::new();
        while !lp.step(&cluster, &mut graph).unwrap() {
            let (at, manifest) = checkpoint::walk_valid(&cluster, &job, |ss, m| Ok((ss, m)))
                .unwrap()
                .expect("the initial checkpoint at least");
            assert_eq!(primary(), manifest.gs, "superstep {}", lp.gs.superstep);
            assert_eq!(primary() == lp.gs, at == lp.gs.superstep);
            checkpointed.push(at);
        }
        assert_eq!(checkpointed, [1, 3, 3, 5]);
        let summary = lp.finish(&cluster);
        assert_eq!(summary.supersteps, 5);
        assert!(summary.final_gs.halt);
        assert_eq!(primary(), summary.final_gs);
    }

    #[test]
    fn sender_fold_follows_from_types_vid_range_and_budget() {
        let f64s = min_of::<f64>(1);
        let decide = |hi, budget| SenderFold::decide(&f64s, hi, budget, 4096);
        // 50 000 slots of 8 bytes plus 782 bitmap words.
        let direct = decide(50_000, 2 << 20);
        assert_eq!(
            direct,
            SenderFold::Direct {
                hi: 50_000,
                windows: 1,
                slots_per_window: 50_000,
                table_bytes: 406_256,
                spill_buffer_bytes: 0,
                budget_bytes: 2 << 20
            }
        );
        assert_eq!(direct.to_string(), "direct (hi=50000, 397 KB of 1024 KB)");
        // A sixteenth of that budget: 126 bitmap words of slots fit its
        // half, seven windows of them cover the vids, and six pages of
        // spill buffer fit its quarter.
        let windowed = decide(50_000, 128 << 10);
        assert_eq!(
            windowed,
            SenderFold::Direct {
                hi: 50_000,
                windows: 7,
                slots_per_window: 8_064,
                table_bytes: 65_520,
                spill_buffer_bytes: 6 * 4096,
                budget_bytes: 128 << 10
            }
        );
        assert_eq!(
            windowed.to_string(),
            "direct (hi=50000, 7 windows of 8064, 64 KB + 24 KB of 128 KB)"
        );
        // The paper's Fig. 7 configuration misses a resident table by 4 KB.
        assert_eq!(
            decide(32_768, 512 << 10).to_string(),
            "direct (hi=32768, 2 windows of 32256, 256 KB + 4 KB of 512 KB)"
        );
        // A table exactly as large as the half-budget is resident whole; a
        // byte less and it is two windows, if there is a page to spare.
        let exact = 2 * (128 * 8 + 16);
        assert!(matches!(
            decide(128, exact),
            SenderFold::Direct { windows: 1, .. }
        ));
        assert!(matches!(
            SenderFold::decide(&f64s, 128, exact - 2, 512),
            SenderFold::Direct {
                windows: 2,
                slots_per_window: 64,
                table_bytes: 520,
                spill_buffer_bytes: 512,
                ..
            }
        ));
        assert_eq!(
            decide(128, exact - 2).to_string(),
            "sort (table 2 KB: 2 windows need 4 KB of buffers > 1 KB)"
        );
        // Spill buffers may take a quarter of the budget to the byte: 63
        // words of slots in half of 64 KB, four pages in its quarter.
        assert!(matches!(
            decide(5 * 4032, 64 << 10),
            SenderFold::Direct {
                windows: 5,
                slots_per_window: 4032,
                spill_buffer_bytes: 16_384,
                ..
            }
        ));
        assert_eq!(
            decide(5 * 4032 + 1, 64 << 10),
            SenderFold::SortTableTooLarge {
                table_bytes: 163_816,
                windows: 6,
                spill_buffer_bytes: 20_480,
                budget_bytes: 64 << 10
            }
        );
        // No vids, no table, no budget needed.
        assert!(matches!(
            decide(0, 0),
            SenderFold::Direct {
                windows: 1,
                slots_per_window: 0,
                table_bytes: 0,
                ..
            }
        ));
        // Half a budget that holds no bitmap word's worth of slots.
        assert!(matches!(
            decide(50, 200),
            SenderFold::SortTableTooLarge {
                windows: u64::MAX,
                ..
            }
        ));
        // A vid range whose table size overflows takes more windows than
        // any budget has pages for.
        assert!(matches!(
            decide(Vid::MAX, 2 << 20),
            SenderFold::SortTableTooLarge {
                table_bytes: u64::MAX,
                ..
            }
        ));
        let strings = min_of::<String>(1);
        assert_eq!(
            SenderFold::decide(&strings, 10, 1 << 20, 4096).to_string(),
            "sort (variable-width message)"
        );
        assert_eq!(
            SenderFold::decide(&NoopProgram, 10, 1 << 20, 4096).to_string(),
            "sort (no combiner)"
        );
        // A zero-width message costs the bitmap only, resident or windowed.
        let units = min_of::<()>(1);
        assert!(matches!(
            SenderFold::decide(&units, 1 << 20, 1 << 20, 4096),
            SenderFold::Direct {
                windows: 1,
                table_bytes: 131_072,
                ..
            }
        ));
        assert!(matches!(
            SenderFold::decide(&units, 1 << 20, 128 << 10, 4096),
            SenderFold::Direct {
                windows: 2,
                slots_per_window: 524_288,
                table_bytes: 65_536,
                ..
            }
        ));
    }
}
