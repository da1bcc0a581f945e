//! Multi-tenant job service: concurrent job admission over the shared
//! cluster, behind the submission API (§7.4 "Software simplicity" taken
//! seriously: one runtime, many tenants).
//!
//! A [`JobService`] owns nothing but bookkeeping — the graph partitions,
//! buffer cache, and DFS all belong to the [`Cluster`] it fronts. Each
//! [`JobService::submit`] call admits a job against a shared *page
//! budget* (a [`MemoryAccountant`] denominated in buffer-cache pages):
//! jobs whose [`crate::plan::PregelixJob::with_page_budget`] reservation
//! fits are admitted immediately, the rest queue and admit as earlier
//! tenants release their pages. A reservation larger than the whole
//! service budget is rejected at submit time — a job that could never
//! admit must not deadlock the queue.
//!
//! Scheduling is cooperative and superstep-serialized: the service owns no
//! threads. Every [`JobHandle::wait`] call pumps a round-robin sweep that
//! gives each runnable job one *quantum* — one superstep via
//! [`RunLoop::step`] (or one load / dump transition). Supersteps
//! of different jobs therefore interleave but never overlap, which keeps
//! the single-threaded frame-slab harvest invariant intact and makes
//! concurrent execution *bit-identical per job* to serial execution:
//! values, superstep counts, and final global states never depend on who
//! else was admitted. Parallelism still happens — inside each superstep,
//! across the cluster's worker pool.
//!
//! Per-job attribution: every submission gets its own counter scope (a
//! fresh [`ClusterCounters`]) installed for the length of each quantum,
//! both on the driver thread ([`enter_job_scope`]) and on the worker pool
//! threads (via [`Cluster::set_job_scope`]). [`JobSummary::job_stats`]
//! reports the scope's delta — work this job did, not work that happened
//! while this job was resident.
//!
//! Fair-share placement: the k-th submission loads its partitions with
//! sticky offset k, rotating each tenant's partition-0 hot spot onto a
//! different worker. Offsets never affect values, only load balance; offset
//! 0 (the first submission) reproduces the single-job layout exactly.
//!
//! Name reuse: submitting a second job under an already-retained name
//! gets the next free [`JobId`] instance (`"pagerank.1"`, ...), keeping
//! every tenant's DFS namespace (`jobs/<tag>/...`) and message-run files
//! disjoint. The first use of a name keeps instance 0, whose tag is the
//! bare name — single-tenant layouts are byte-identical to the old
//! direct-run paths.
//!
//! A finished job's graph stays resident until the service drops, so
//! [`JobHandle::query_vertex`] / [`JobHandle::query_range`] can serve
//! point and range reads through the partitions' row cursors — a seek, and
//! for a range a walk on from it (§5.2) — without re-loading anything.

use crate::api::VertexProgram;
use crate::checkpoint;
use crate::plan::PregelixJob;
use crate::runtime::{JobSummary, LoadedGraph, RunLoop};
use pregelix_common::error::{PregelixError, Result};
use pregelix_common::memory::MemoryAccountant;
use pregelix_common::stats::{enter_job_scope, ClusterCounters};
use pregelix_common::{JobId, Superstep, Vid};
use pregelix_dataflow::cluster::Cluster;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Admission knobs for a [`JobService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Shared page budget all admitted jobs draw from.
    pub total_pages: usize,
    /// Reservation for jobs that set no [`PregelixJob::with_page_budget`].
    pub default_job_pages: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            total_pages: 1024,
            default_job_pages: 128,
        }
    }
}

/// Where a submitted job currently is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting for page budget.
    Queued,
    /// Admitted; the graph load is the next quantum.
    Loading,
    /// Superstep loop in flight; `superstep` is the one about to run.
    Running {
        /// Superstep the next quantum executes.
        superstep: Superstep,
    },
    /// All stages halted; the output dump is the next quantum.
    Dumping,
    /// Finished; summaries available, graph resident for queries.
    Done,
    /// Failed; the error is delivered by [`JobHandle::wait`].
    Failed,
    /// Cancelled via [`JobHandle::cancel`].
    Cancelled,
}

/// One quantum's outcome (internal).
enum Quantum {
    /// More quanta needed.
    Progress,
    /// Job reached `Done`.
    Finished,
}

/// Object-safe driver for one admitted job; erases the vertex-program
/// type so the service can hold a heterogeneous tenant list.
trait JobDriver {
    /// Run one quantum: a load, one superstep of the current
    /// stage, or the dump. An `Err` tears the job down.
    fn advance(&mut self, cluster: &Cluster) -> Result<Quantum>;
    /// Driver-visible status (the service overlays Queued/Failed/
    /// Cancelled from its own bookkeeping).
    fn status(&self) -> JobStatus;
    /// Per-stage summaries; complete once `Done`.
    fn summaries(&self) -> &[JobSummary];
    /// Drop run state and (best-effort) clear the stages' checkpoint
    /// ladders, logs, and GS history. Used on cancel.
    fn teardown(&mut self, cluster: &Cluster);
    /// Point read over a finished job's resident vertex store.
    fn query_point(&self, vid: Vid) -> Result<Option<String>>;
    /// Range read (`lo..=hi`) over a finished job's resident store.
    fn query_range(&self, lo: Vid, hi: Vid) -> Result<Vec<(Vid, String)>>;
}

/// Run state of a [`TypedJob`]. Transitions use `mem::replace`, so any
/// quantum that errors leaves `Torn` behind — dropped state, never a
/// half-consistent graph.
enum DriveState<P: VertexProgram> {
    /// Admitted, not yet loaded.
    Admitted,
    /// Stage `stage_idx`'s superstep loop in flight (boxed: the loop is
    /// most of the state's size, and the other variants stay small).
    Running {
        graph: LoadedGraph,
        lp: Box<RunLoop<P>>,
    },
    /// All stages halted; dump pending.
    Dumping { graph: LoadedGraph },
    /// Finished; graph retained for queries.
    Done { graph: LoadedGraph },
    /// Failed or cancelled; nothing retained.
    Torn,
}

/// The typed half of a tenant: its programs, job config, and run state.
struct TypedJob<P: VertexProgram> {
    stages: Vec<Arc<P>>,
    base_job: PregelixJob,
    /// True for [`JobService::submit_pipeline`] submissions: stage
    /// identities are derived (`name-stage{i}`) even for one stage,
    /// mirroring the old `run_pipeline` naming. Plain submissions run
    /// under the base id unchanged.
    pipeline: bool,
    /// Sticky-assignment rotation (fair-share spread).
    offset: usize,
    stage_idx: usize,
    state: DriveState<P>,
    summaries: Vec<JobSummary>,
}

impl<P: VertexProgram> TypedJob<P> {
    /// The job identity stage `i` runs under (and whose DFS namespace its
    /// checkpoints, logs, and GS live in).
    fn stage_job(&self, i: usize) -> PregelixJob {
        if self.pipeline {
            self.base_job.derive_stage(i)
        } else {
            self.base_job.clone()
        }
    }

    fn clear_stage_state(&self, cluster: &Cluster) -> Result<()> {
        for i in 0..self.stages.len() {
            checkpoint::clear_checkpoints(cluster.dfs(), &self.stage_job(i).id)?;
        }
        Ok(())
    }
}

impl<P: VertexProgram> JobDriver for TypedJob<P> {
    fn advance(&mut self, cluster: &Cluster) -> Result<Quantum> {
        match std::mem::replace(&mut self.state, DriveState::Torn) {
            DriveState::Admitted => {
                let job0 = self.stage_job(0);
                let mut graph =
                    LoadedGraph::load_with_offset(cluster, &self.stages[0], &job0, self.offset)?;
                let lp = Box::new(RunLoop::begin(cluster, &self.stages[0], &job0, &mut graph)?);
                self.state = DriveState::Running { graph, lp };
                Ok(Quantum::Progress)
            }
            DriveState::Running { mut graph, mut lp } => {
                if !lp.step(cluster, &mut graph)? {
                    self.state = DriveState::Running { graph, lp };
                    return Ok(Quantum::Progress);
                }
                self.summaries.push(lp.finish(cluster));
                self.stage_idx += 1;
                if self.stage_idx < self.stages.len() {
                    // Next pipelined stage over the same resident graph
                    // (§5.6): no dump/reload between stages.
                    let job_i = self.stage_job(self.stage_idx);
                    *lp =
                        RunLoop::begin(cluster, &self.stages[self.stage_idx], &job_i, &mut graph)?;
                    self.state = DriveState::Running { graph, lp };
                } else {
                    self.state = DriveState::Dumping { graph };
                }
                Ok(Quantum::Progress)
            }
            DriveState::Dumping { graph } => {
                graph.dump(cluster, self.stages.last().expect("non-empty"), &self.base_job)?;
                // Success teardown, unified here for single jobs and
                // pipelines alike: a finished job leaves no checkpoint
                // ladder, message logs, or GS history behind. (The old
                // direct `run_pipeline` skipped this and leaked all
                // three per stage.)
                self.clear_stage_state(cluster)?;
                self.state = DriveState::Done { graph };
                Ok(Quantum::Finished)
            }
            DriveState::Done { graph } => {
                self.state = DriveState::Done { graph };
                Ok(Quantum::Finished)
            }
            DriveState::Torn => Err(PregelixError::internal("quantum on torn job")),
        }
    }

    fn status(&self) -> JobStatus {
        match &self.state {
            DriveState::Admitted => JobStatus::Loading,
            DriveState::Running { lp, .. } => JobStatus::Running {
                superstep: lp.superstep(),
            },
            DriveState::Dumping { .. } => JobStatus::Dumping,
            DriveState::Done { .. } => JobStatus::Done,
            DriveState::Torn => JobStatus::Failed,
        }
    }

    fn summaries(&self) -> &[JobSummary] {
        &self.summaries
    }

    fn teardown(&mut self, cluster: &Cluster) {
        self.state = DriveState::Torn;
        // Best-effort: cancellation must succeed even when the DFS is
        // mid-fault.
        let _ = self.clear_stage_state(cluster);
    }

    fn query_point(&self, vid: Vid) -> Result<Option<String>> {
        match &self.state {
            DriveState::Done { graph } => {
                let program = self.stages.last().expect("non-empty");
                Ok(graph
                    .probe_vertex::<P>(vid)?
                    .map(|v| program.format_vertex(v.vid, &v.value)))
            }
            _ => Err(PregelixError::plan("query on unfinished job")),
        }
    }

    fn query_range(&self, lo: Vid, hi: Vid) -> Result<Vec<(Vid, String)>> {
        match &self.state {
            DriveState::Done { graph } => {
                let program = self.stages.last().expect("non-empty");
                Ok(graph
                    .range_vertices::<P>(lo, hi)?
                    .into_iter()
                    .map(|v| (v.vid, program.format_vertex(v.vid, &v.value)))
                    .collect())
            }
            _ => Err(PregelixError::plan("query on unfinished job")),
        }
    }
}

/// Service-side bookkeeping for one tenant.
struct Entry {
    driver: Box<dyn JobDriver>,
    /// This job's counter scope; installed for every quantum.
    scope: ClusterCounters,
    /// Pages reserved while admitted.
    pages: usize,
    admitted: bool,
    /// Done / Failed / Cancelled: no more quanta.
    terminal: bool,
    /// Failure to deliver on `wait` (taken once).
    failed: Option<PregelixError>,
    cancelled: bool,
    /// Job identity (post instance assignment).
    id: JobId,
}

impl Entry {
    fn status(&self) -> JobStatus {
        if self.cancelled {
            JobStatus::Cancelled
        } else if self.terminal && self.failed.is_some() {
            JobStatus::Failed
        } else if !self.admitted {
            JobStatus::Queued
        } else {
            self.driver.status()
        }
    }
}

struct Inner {
    config: ServiceConfig,
    accountant: MemoryAccountant,
    entries: Vec<Entry>,
    /// Submission counter; doubles as the fair-share sticky offset.
    submissions: usize,
}

impl Inner {
    /// One round-robin sweep: try to admit every queued entry, then give
    /// every admitted non-terminal entry one quantum.
    fn pump_once(&mut self, cluster: &Cluster) -> Result<()> {
        let mut progressed = false;
        let mut open = 0usize;
        for idx in 0..self.entries.len() {
            if self.entries[idx].terminal {
                continue;
            }
            open += 1;
            if !self.entries[idx].admitted {
                let pages = self.entries[idx].pages;
                if self.accountant.try_reserve(pages).is_err() {
                    continue;
                }
                self.entries[idx].admitted = true;
            }
            // One quantum under this job's counter scope — on the driver
            // thread (thread-local guard) and on the worker pool threads
            // (cluster hook, captured per execute() batch).
            let entry = &mut self.entries[idx];
            let _guard = enter_job_scope(&entry.scope);
            cluster.set_job_scope(Some(entry.scope.clone()));
            let outcome = entry.driver.advance(cluster);
            cluster.set_job_scope(None);
            progressed = true;
            match outcome {
                Ok(Quantum::Progress) => {}
                Ok(Quantum::Finished) => {
                    entry.terminal = true;
                    self.accountant.release(entry.pages);
                }
                Err(e) => {
                    entry.terminal = true;
                    entry.failed = Some(e);
                    self.accountant.release(entry.pages);
                }
            }
        }
        if open > 0 && !progressed {
            // Unreachable by construction (submit rejects reservations
            // larger than the whole budget, and terminal entries always
            // release), but a stuck queue must fail loudly, not spin.
            return Err(PregelixError::internal(
                "job service stalled: queued jobs cannot admit and nothing is running",
            ));
        }
        Ok(())
    }
}

/// Multi-tenant job service over one [`Cluster`]. See the module docs.
pub struct JobService<'c> {
    cluster: &'c Cluster,
    inner: Rc<RefCell<Inner>>,
}

/// Handle to one submitted job. Cheap to clone; all clones refer to the
/// same tenant.
#[derive(Clone)]
pub struct JobHandle<'c> {
    cluster: &'c Cluster,
    inner: Rc<RefCell<Inner>>,
    idx: usize,
}

impl<'c> JobService<'c> {
    /// Create a service over `cluster` with the given admission config.
    pub fn new(cluster: &'c Cluster, config: ServiceConfig) -> JobService<'c> {
        let accountant = MemoryAccountant::new("job-service pages", config.total_pages);
        JobService {
            cluster,
            inner: Rc::new(RefCell::new(Inner {
                config,
                accountant,
                entries: Vec::new(),
                submissions: 0,
            })),
        }
    }

    /// Submit a single-program job. Equivalent to the classic
    /// [`crate::runtime::run_job`] load → run → dump → cleanup sequence,
    /// admitted against the shared budget.
    pub fn submit<P: VertexProgram>(
        &self,
        program: Arc<P>,
        job: PregelixJob,
    ) -> Result<JobHandle<'c>> {
        self.submit_inner(vec![program], job, false)
    }

    /// Submit a pipelined sequence of compatible stages (§5.6): one load,
    /// one dump, stage `i` running under the derived identity
    /// `{name}-stage{i}` exactly as [`crate::runtime::run_pipeline`]
    /// always named them.
    pub fn submit_pipeline<P: VertexProgram>(
        &self,
        stages: Vec<Arc<P>>,
        job: PregelixJob,
    ) -> Result<JobHandle<'c>> {
        self.submit_inner(stages, job, true)
    }

    fn submit_inner<P: VertexProgram>(
        &self,
        stages: Vec<Arc<P>>,
        mut job: PregelixJob,
        pipeline: bool,
    ) -> Result<JobHandle<'c>> {
        if stages.is_empty() {
            return Err(PregelixError::plan("empty pipeline"));
        }
        let mut inner = self.inner.borrow_mut();
        let pages = job
            .page_budget()
            .map(|p| p as usize)
            .unwrap_or(inner.config.default_job_pages);
        if pages > inner.config.total_pages {
            return Err(PregelixError::plan(format!(
                "job '{}' wants {pages} pages but the service budget is {}",
                job.id(),
                inner.config.total_pages
            )));
        }
        // Name reuse: give a colliding name the smallest unused instance,
        // keeping every retained tenant's DFS namespace disjoint. First
        // use keeps instance 0 == the bare-name layout.
        let name = job.id().name().to_string();
        let mut instance = job.id().instance();
        while inner
            .entries
            .iter()
            .any(|e| e.id.name() == name && e.id.instance() == instance)
        {
            instance += 1;
        }
        if instance != job.id().instance() {
            job.id = JobId::with_instance(&name, instance);
        }
        let id = job.id().clone();
        let offset = inner.submissions;
        inner.submissions += 1;
        let driver: Box<dyn JobDriver> = Box::new(TypedJob {
            stages,
            base_job: job,
            pipeline,
            offset,
            stage_idx: 0,
            state: DriveState::Admitted,
            summaries: Vec::new(),
        });
        // Try immediate admission so a lone submission is admitted before
        // its first wait (status reads Loading, not Queued).
        let admitted = inner.accountant.try_reserve(pages).is_ok();
        inner.entries.push(Entry {
            driver,
            scope: ClusterCounters::new(),
            pages,
            admitted,
            terminal: false,
            failed: None,
            cancelled: false,
            id,
        });
        let idx = inner.entries.len() - 1;
        drop(inner);
        Ok(JobHandle {
            cluster: self.cluster,
            inner: Rc::clone(&self.inner),
            idx,
        })
    }

    /// Pages currently reserved by admitted jobs.
    pub fn pages_used(&self) -> usize {
        self.inner.borrow().accountant.used()
    }

    /// High-water mark of reserved pages.
    pub fn pages_high_water(&self) -> usize {
        self.inner.borrow().accountant.high_water()
    }

    /// Drive every submitted job to a terminal state and collect each
    /// job's summaries, in submission order. Individual failures are
    /// reported in place; one tenant's failure does not poison the rest.
    pub fn drain(&self) -> Vec<Result<Vec<JobSummary>>> {
        let count = self.inner.borrow().entries.len();
        (0..count)
            .map(|idx| {
                JobHandle {
                    cluster: self.cluster,
                    inner: Rc::clone(&self.inner),
                    idx,
                }
                .wait_all()
            })
            .collect()
    }
}

impl<'c> JobHandle<'c> {
    /// The identity this job runs under (instance-suffixed when the name
    /// was reused).
    pub fn id(&self) -> JobId {
        self.inner.borrow().entries[self.idx].id.clone()
    }

    /// Where the job currently is.
    pub fn status(&self) -> JobStatus {
        self.inner.borrow().entries[self.idx].status()
    }

    /// Pump the service until this job is terminal; return its last
    /// stage's summary (== the job summary for single-program jobs).
    pub fn wait(&self) -> Result<JobSummary> {
        let mut summaries = self.wait_all()?;
        summaries
            .pop()
            .ok_or_else(|| PregelixError::internal("finished job with no summaries"))
    }

    /// Pump the service until this job is terminal; return all stage
    /// summaries in stage order.
    pub fn wait_all(&self) -> Result<Vec<JobSummary>> {
        loop {
            {
                let mut inner = self.inner.borrow_mut();
                let entry = &mut inner.entries[self.idx];
                if entry.cancelled {
                    return Err(PregelixError::cancelled(entry.id.tag()));
                }
                if entry.terminal {
                    return match entry.failed.take() {
                        Some(e) => Err(e),
                        None if entry.driver.status() == JobStatus::Failed => Err(
                            PregelixError::internal("job failure already reported"),
                        ),
                        None => Ok(entry.driver.summaries().to_vec()),
                    };
                }
            }
            self.inner.borrow_mut().pump_once(self.cluster)?;
        }
    }

    /// Cancel the job. Takes effect immediately — quanta are serialized,
    /// so no superstep of this job is in flight — releasing its pages and
    /// clearing its DFS state. `wait` afterwards reports
    /// [`PregelixError::Cancelled`]. Cancelling a terminal job is a
    /// no-op.
    pub fn cancel(&self) -> Result<()> {
        let mut inner = self.inner.borrow_mut();
        let entry = &mut inner.entries[self.idx];
        if entry.terminal {
            return Ok(());
        }
        entry.driver.teardown(self.cluster);
        entry.terminal = true;
        entry.cancelled = true;
        // Only admitted entries hold a page reservation.
        let release = if entry.admitted { entry.pages } else { 0 };
        entry.admitted = false;
        inner.accountant.release(release);
        Ok(())
    }

    /// Point read over the finished job's resident vertex store,
    /// formatted by the program's [`VertexProgram::format_vertex`].
    /// Errors unless the job is [`JobStatus::Done`].
    pub fn query_vertex(&self, vid: Vid) -> Result<Option<String>> {
        self.inner.borrow().entries[self.idx].driver.query_point(vid)
    }

    /// Range read (`lo..=hi`, ascending vid) over the finished job's
    /// resident vertex store. Errors unless the job is
    /// [`JobStatus::Done`].
    pub fn query_range(&self, lo: Vid, hi: Vid) -> Result<Vec<(Vid, String)>> {
        self.inner.borrow().entries[self.idx].driver.query_range(lo, hi)
    }
}
