//! Multi-tenant job service differential suite.
//!
//! The tentpole property: concurrent execution through [`JobService`] is
//! **bit-identical per job** to running each job alone. The service
//! serializes supersteps across tenants (cooperative round-robin
//! quanta), so interleaving changes *when* a job's supersteps run, never
//! *what* they compute — per-job values, superstep counts, final global
//! states, and the interleaving-invariant counters in
//! [`JobSummary::job_stats`] must all match a serial run exactly, with or
//! without injected faults, and regardless of the fair-share sticky
//! rotation each tenant gets.
//!
//! Admission is exercised both directly (queueing past the page budget,
//! exact accounting back to zero) and property-based (random budgets and
//! tenant counts never deadlock or leak pages).
//!
//! Every test holds [`fault::exclusive`] — this suite runs whole jobs, and
//! a concurrently installed fault plan from another test would otherwise
//! bleed into them. With `CHAOS_DIGEST` set, the mixed-tenant scenario
//! appends one line per job built only from per-job counters and value
//! hashes; CI runs the suite twice and diffs the digests.

use pregelix::common::error::Result;
use pregelix::common::fault::{self, Fault, FaultPlan, Site};
use pregelix::core::api::{ComputeContext, VertexProgram};
use pregelix::graphgen;
use pregelix::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Graphs and programs
// ---------------------------------------------------------------------------

/// A chain component `start — start+1 — … — start+len-1` (symmetric edges).
fn chain(start: u64, len: u64) -> Vec<(u64, Vec<(u64, f64)>)> {
    (0..len)
        .map(|i| {
            let vid = start + i;
            let mut edges = Vec::new();
            if i > 0 {
                edges.push((vid - 1, 1.0));
            }
            if i + 1 < len {
                edges.push((vid + 1, 1.0));
            }
            (vid, edges)
        })
        .collect()
}

fn two_chains() -> Vec<(u64, Vec<(u64, f64)>)> {
    let mut records = chain(0, 8);
    records.extend(chain(100, 6));
    records
}

/// Superstep 1: even vertices insert a shadow vertex (vid + 1000) and odd
/// vertices delete themselves; superstep 2: everyone halts. Exercises the
/// mutation flow (insert/delete dataflow of Figure 5) under concurrency.
struct Mutator;

impl VertexProgram for Mutator {
    type VertexValue = u64;
    type EdgeValue = ();
    type Message = u64;
    type Aggregate = ();

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<()> {
        if ctx.superstep() == 1 {
            if ctx.vid() % 2 == 0 {
                ctx.add_vertex(VertexData::new(ctx.vid() + 1000, ctx.vid(), vec![]));
            } else {
                ctx.delete_vertex(ctx.vid());
            }
        }
        ctx.vote_to_halt();
        Ok(())
    }

    fn init_vertex(&self, vid: u64, edges: Vec<(u64, f64)>) -> VertexData<Self> {
        VertexData::new(
            vid,
            vid,
            edges.into_iter().map(|(d, _)| Edge::new(d, ())).collect(),
        )
    }
}

// ---------------------------------------------------------------------------
// Differential harness
// ---------------------------------------------------------------------------

/// Everything we compare per job between serial and concurrent execution.
/// `values` are the formatted vertex lines out of the finished job's
/// resident store — formatting is deterministic, so string equality is
/// value bit-equality.
#[derive(Debug)]
struct JobOutcome {
    tag: String,
    supersteps: u64,
    recoveries: u32,
    halt: bool,
    values: Vec<(u64, String)>,
    job_compute: u64,
    job_sent: u64,
    job_combined: u64,
    job_folded: u64,
    job_stray: u64,
    /// What the digest line is drawn from.
    summary: JobSummary,
}

impl JobOutcome {
    fn of(handle: &JobHandle<'_>, summary: &JobSummary) -> JobOutcome {
        JobOutcome {
            tag: summary.name.clone(),
            supersteps: summary.supersteps,
            recoveries: summary.recoveries,
            halt: summary.final_gs.halt,
            values: handle.query_range(0, u64::MAX).unwrap(),
            job_compute: summary.job_stats.compute_calls,
            job_sent: summary.job_stats.messages_sent,
            job_combined: summary.job_stats.messages_combined,
            job_folded: summary.job_stats.msgs_folded_direct,
            job_stray: summary.job_stats.msgs_stray,
            summary: summary.clone(),
        }
    }

    fn assert_matches(&self, other: &JobOutcome) {
        assert_eq!(self.tag, other.tag);
        assert_eq!(
            self.supersteps, other.supersteps,
            "superstep count diverged for {}",
            self.tag
        );
        assert_eq!(
            self.recoveries, other.recoveries,
            "recovery count diverged for {}",
            self.tag
        );
        assert_eq!(self.halt, other.halt, "final GS halt diverged for {}", self.tag);
        assert_eq!(
            self.values, other.values,
            "vertex values diverged for {}",
            self.tag
        );
        assert_eq!(
            (
                self.job_compute,
                self.job_sent,
                self.job_combined,
                self.job_folded,
                self.job_stray,
            ),
            (
                other.job_compute,
                other.job_sent,
                other.job_combined,
                other.job_folded,
                other.job_stray,
            ),
            "per-job counters diverged for {}",
            self.tag
        );
    }
}

/// Append one line per job to `$CHAOS_DIGEST`: per-job counters and value
/// hashes only — exactly the attribution multi-tenant runs must keep
/// deterministic.
fn chaos_digest(scenario: &str, outcome: &JobOutcome) {
    integration_tests::chaos_digest(
        &format!("{scenario}:{}", outcome.tag),
        "supersteps recoveries jcmp jmsgs jcomb jfold jfspill jstray",
        &outcome.summary,
        0,
        integration_tests::fnv1a(
            outcome
                .values
                .iter()
                .flat_map(|(vid, line)| vid.to_le_bytes().into_iter().chain(line.bytes())),
        ),
    );
}

const WORKERS: usize = 3;
const RAM: usize = 8 << 20;

fn fresh_cluster() -> Cluster {
    Cluster::new(ClusterConfig::new(WORKERS, RAM)).unwrap()
}

/// The mixed tenant mix: (name, input records, job extras are applied by
/// the closure) — 8 jobs across 4 program types, including mutation.
fn mixed_inputs() -> Vec<(&'static str, Vec<(u64, Vec<(u64, f64)>)>)> {
    vec![
        ("svc-cc-a", two_chains()),
        ("svc-pr-a", graphgen::webmap::webmap(6, 4.0, 11)),
        ("svc-sssp-a", chain(0, 8)),
        ("svc-mut-a", (0..10).map(|v| (v, vec![])).collect()),
        ("svc-cc-b", chain(50, 6)),
        ("svc-pr-b", chain(0, 12)),
        ("svc-sssp-b", chain(200, 7)),
        ("svc-cc-c", chain(0, 8)),
    ]
}

fn stage_inputs(cluster: &Cluster, inputs: &[(&str, Vec<(u64, Vec<(u64, f64)>)>)]) {
    for (name, records) in inputs {
        graphgen::text::write_to_dfs(cluster.dfs(), &format!("in/{name}"), records).unwrap();
    }
}

fn mixed_job(name: &str) -> PregelixJob {
    let mut job = PregelixJob::new(name)
        .with_io(format!("in/{name}"), format!("out/{name}"))
        .with_page_budget(64);
    // One tenant exercises the checkpoint ladder under concurrency.
    if name == "svc-cc-c" {
        job = job.with_checkpoint_interval(2);
    }
    job
}

/// Submit the named job to `service` with the program matching its name
/// prefix; returns the handle.
fn submit_mixed<'c>(service: &JobService<'c>, name: &str) -> JobHandle<'c> {
    let job = mixed_job(name);
    if name.starts_with("svc-cc") {
        service.submit(Arc::new(ConnectedComponents), job).unwrap()
    } else if name.starts_with("svc-pr") {
        service.submit(Arc::new(PageRank::new(4)), job).unwrap()
    } else if name.starts_with("svc-sssp") {
        let source = if name.ends_with('b') { 200 } else { 0 };
        service
            .submit(Arc::new(ShortestPaths::new(source)), job)
            .unwrap()
    } else {
        service.submit(Arc::new(Mutator), job).unwrap()
    }
}

/// Run one mixed job alone: fresh cluster, fresh single-tenant service.
fn serial_outcome(name: &str, inputs: &[(&str, Vec<(u64, Vec<(u64, f64)>)>)]) -> JobOutcome {
    let cluster = fresh_cluster();
    stage_inputs(&cluster, inputs);
    let service = JobService::new(&cluster, ServiceConfig::default());
    let handle = submit_mixed(&service, name);
    let summary = handle.wait().unwrap();
    JobOutcome::of(&handle, &summary)
}

// ---------------------------------------------------------------------------
// The tentpole differential: 8 concurrent mixed jobs == 8 serial jobs
// ---------------------------------------------------------------------------

#[test]
fn concurrent_mixed_jobs_bit_identical_to_serial() {
    let _guard = fault::exclusive();
    let inputs = mixed_inputs();

    // Serial references: each job alone on its own cluster (sticky offset
    // 0, nothing else admitted).
    let serial: Vec<JobOutcome> = inputs
        .iter()
        .map(|(name, _)| serial_outcome(name, &inputs))
        .collect();

    // Concurrent: all 8 through one service over one shared cluster. The
    // k-th submission runs with sticky offset k (fair_spread), so
    // placement differs from serial on purpose — results must not.
    let cluster = fresh_cluster();
    stage_inputs(&cluster, &inputs);
    let service = JobService::new(&cluster, ServiceConfig::default());
    let handles: Vec<JobHandle<'_>> = inputs
        .iter()
        .map(|(name, _)| submit_mixed(&service, name))
        .collect();
    let concurrent: Vec<JobOutcome> = handles
        .iter()
        .map(|h| {
            let summary = h.wait().unwrap();
            JobOutcome::of(h, &summary)
        })
        .collect();

    for (s, c) in serial.iter().zip(&concurrent) {
        s.assert_matches(c);
        assert!(c.job_compute > 0, "{} attributed no compute work", c.tag);
        chaos_digest("svc-mixed", c);
    }
    // Admission accounting: every page reserved was released.
    assert_eq!(service.pages_used(), 0);
    assert_eq!(service.pages_high_water(), 8 * 64);
    // Per-job attribution sums to less than the shared-cluster totals
    // would suggest double counting; each tenant's scope saw only its own
    // messages.
    let total_sent: u64 = concurrent.iter().map(|c| c.job_sent).sum();
    let cluster_sent = cluster.counters().snapshot().messages_sent;
    assert_eq!(total_sent, cluster_sent);
}

// ---------------------------------------------------------------------------
// Faults stay scoped to the tenant they target
// ---------------------------------------------------------------------------

#[test]
fn faulted_tenant_recovers_without_disturbing_neighbors() {
    let guard = fault::exclusive();
    let inputs: Vec<(&str, Vec<(u64, Vec<(u64, f64)>)>)> = vec![
        ("svcf-a", chain(0, 8)),
        ("svcf-b", two_chains()),
        ("svcf-c", chain(50, 6)),
    ];
    let job_for = |name: &str| {
        let mut job = PregelixJob::new(name)
            .with_io(format!("in/{name}"), format!("out/{name}"))
            .with_page_budget(64);
        if name == "svcf-b" {
            // The faulted tenant checkpoints every superstep so the
            // injected failure recovers instead of aborting.
            job = job.with_checkpoint_interval(1);
        }
        job
    };
    // Injected I/O error in svcf-b's superstep-3 message task, partition
    // 0. The fault context carries the job tag, so only svcf-b can consume
    // it — in the serial phase and the concurrent phase alike.
    let plan = || {
        FaultPlan::new().on(Site::Stall, "svcf-b:s3:p0", 1, Fault::IoError)
    };

    // Serial: each job alone, plan armed (only svcf-b trips it).
    guard.install(plan());
    let serial: Vec<JobOutcome> = inputs
        .iter()
        .map(|(name, _)| {
            let cluster = fresh_cluster();
            stage_inputs(&cluster, &inputs);
            let service = JobService::new(&cluster, ServiceConfig::default());
            let handle = service
                .submit(Arc::new(ConnectedComponents), job_for(name))
                .unwrap();
            let summary = handle.wait().unwrap();
            JobOutcome::of(&handle, &summary)
        })
        .collect();

    // Concurrent: same three tenants, same plan re-armed.
    guard.install(plan());
    let cluster = fresh_cluster();
    stage_inputs(&cluster, &inputs);
    let service = JobService::new(&cluster, ServiceConfig::default());
    let handles: Vec<JobHandle<'_>> = inputs
        .iter()
        .map(|(name, _)| {
            service
                .submit(Arc::new(ConnectedComponents), job_for(name))
                .unwrap()
        })
        .collect();
    let concurrent: Vec<JobOutcome> = handles
        .iter()
        .map(|h| {
            let summary = h.wait().unwrap();
            JobOutcome::of(h, &summary)
        })
        .collect();

    for (s, c) in serial.iter().zip(&concurrent) {
        s.assert_matches(c);
        chaos_digest("svc-faulted", c);
    }
    // The fault hit exactly the tenant it named, in both phases.
    assert_eq!(serial[1].recoveries, 1);
    assert_eq!(concurrent[1].recoveries, 1);
    assert_eq!(concurrent[0].recoveries, 0);
    assert_eq!(concurrent[2].recoveries, 0);
}

// ---------------------------------------------------------------------------
// Admission: queueing, accounting, rejection
// ---------------------------------------------------------------------------

#[test]
fn over_budget_submissions_queue_and_complete() {
    let _guard = fault::exclusive();
    let cluster = fresh_cluster();
    let records = chain(0, 6);
    graphgen::text::write_to_dfs(cluster.dfs(), "in/q", &records).unwrap();
    // Budget fits two tenants at a time; five are submitted.
    let service = JobService::new(
        &cluster,
        ServiceConfig {
            total_pages: 256,
            default_job_pages: 128,
            fair_spread: true,
        },
    );
    let handles: Vec<JobHandle<'_>> = (0..5)
        .map(|i| {
            service
                .submit(
                    Arc::new(ConnectedComponents),
                    PregelixJob::new(format!("q{i}")).with_io("in/q", format!("out/q{i}")),
                )
                .unwrap()
        })
        .collect();
    // The first two were admitted at submit; the rest queue.
    assert_eq!(service.pages_used(), 256);
    assert_eq!(handles[4].status(), JobStatus::Queued);
    for h in &handles {
        let summary = h.wait().unwrap();
        assert_eq!(summary.supersteps, 7);
        assert!(summary.final_gs.halt);
    }
    assert_eq!(service.pages_used(), 0);
    // Never over budget, and the queue genuinely bounded concurrency.
    assert!(service.pages_high_water() <= 256);

    // A reservation larger than the whole service can never admit: reject
    // at submit instead of deadlocking the queue.
    let err = service
        .submit(
            Arc::new(ConnectedComponents),
            PregelixJob::new("too-big")
                .with_io("in/q", "out/too-big")
                .with_page_budget(257),
        )
        .map(|_| ())
        .unwrap_err();
    assert!(err.to_string().contains("257"), "unexpected error: {err}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Random tenant counts and page budgets: everything admitted
    /// completes, nothing deadlocks, and the accountant returns to zero
    /// with a high-water mark within budget.
    #[test]
    fn prop_admission_never_deadlocks_or_leaks(
        total in 64usize..512,
        budgets in proptest::collection::vec(1u64..96, 1..6),
    ) {
        let _guard = fault::exclusive();
        let cluster = Cluster::new(ClusterConfig::new(2, RAM)).unwrap();
        let records = chain(0, 4);
        graphgen::text::write_to_dfs(cluster.dfs(), "in/p", &records).unwrap();
        let service = JobService::new(
            &cluster,
            ServiceConfig { total_pages: total, default_job_pages: 16, fair_spread: true },
        );
        let mut handles = Vec::new();
        for (i, pages) in budgets.iter().enumerate() {
            let job = PregelixJob::new(format!("p{i}"))
                .with_io("in/p", format!("out/p{i}"))
                .with_page_budget(*pages);
            match service.submit(Arc::new(ConnectedComponents), job) {
                Ok(h) => handles.push(h),
                Err(e) => {
                    // Only a reservation beyond the whole budget is refused.
                    prop_assert!(*pages as usize > total, "spurious rejection: {e}");
                }
            }
        }
        for h in &handles {
            let summary = h.wait().unwrap();
            prop_assert_eq!(summary.supersteps, 5);
        }
        prop_assert_eq!(service.pages_used(), 0);
        prop_assert!(service.pages_high_water() <= total);
    }
}

// ---------------------------------------------------------------------------
// Cancel, status, queries, name collisions
// ---------------------------------------------------------------------------

#[test]
fn cancel_releases_budget_and_reports_cancelled() {
    let _guard = fault::exclusive();
    let cluster = fresh_cluster();
    let records = chain(0, 8);
    graphgen::text::write_to_dfs(cluster.dfs(), "in/c", &records).unwrap();
    let service = JobService::new(&cluster, ServiceConfig::default());
    let keep = service
        .submit(
            Arc::new(ConnectedComponents),
            PregelixJob::new("c-keep").with_io("in/c", "out/c-keep"),
        )
        .unwrap();
    let drop_it = service
        .submit(
            Arc::new(ConnectedComponents),
            PregelixJob::new("c-drop").with_io("in/c", "out/c-drop"),
        )
        .unwrap();
    let reserved = service.pages_used();
    drop_it.cancel().unwrap();
    assert_eq!(drop_it.status(), JobStatus::Cancelled);
    assert!(service.pages_used() < reserved, "cancel must release pages");
    // Cancelling again is a no-op.
    drop_it.cancel().unwrap();
    // The cancelled tenant reports Cancelled on wait; the survivor is
    // untouched.
    let err = drop_it.wait().map(|_| ()).unwrap_err();
    assert!(matches!(err, pregelix::common::error::PregelixError::Cancelled(ref j) if j == "c-drop"));
    let summary = keep.wait().unwrap();
    assert_eq!(summary.supersteps, 9);
    assert_eq!(service.pages_used(), 0);
}

#[test]
fn queries_serve_point_and_range_reads_after_done() {
    let _guard = fault::exclusive();
    let cluster = fresh_cluster();
    let records = two_chains();
    graphgen::text::write_to_dfs(cluster.dfs(), "in/query", &records).unwrap();
    let service = JobService::new(&cluster, ServiceConfig::default());
    let handle = service
        .submit(
            Arc::new(ConnectedComponents),
            PregelixJob::new("query").with_io("in/query", "out/query"),
        )
        .unwrap();
    // Not finished yet: queries refuse rather than serve stale state.
    assert!(handle.query_vertex(0).is_err());
    let summary = handle.wait().unwrap();
    assert_eq!(handle.status(), JobStatus::Done);
    assert!(summary.final_gs.halt);

    // Point probes: chain 0..8 collapses to component 0, chain 100..106 to
    // component 100; formatting comes from the program.
    let line = handle.query_vertex(5).unwrap().unwrap();
    assert_eq!(line, "5\t0");
    let line = handle.query_vertex(103).unwrap().unwrap();
    assert_eq!(line, "103\t100");
    assert_eq!(handle.query_vertex(999).unwrap(), None);

    // Range read across the partition split, ascending and exact.
    let range = handle.query_range(4, 102).unwrap();
    let vids: Vec<u64> = range.iter().map(|(v, _)| *v).collect();
    assert_eq!(vids, vec![4, 5, 6, 7, 100, 101, 102]);
    for (vid, line) in &range {
        let expected = if *vid < 100 { 0 } else { 100 };
        assert_eq!(*line, format!("{vid}\t{expected}"));
    }
}

#[test]
fn reused_names_get_disjoint_instances() {
    let _guard = fault::exclusive();
    let cluster = fresh_cluster();
    let records = chain(0, 6);
    graphgen::text::write_to_dfs(cluster.dfs(), "in/dup", &records).unwrap();
    let service = JobService::new(&cluster, ServiceConfig::default());
    let first = service
        .submit(
            Arc::new(ConnectedComponents),
            PregelixJob::new("dup").with_io("in/dup", "out/dup-0"),
        )
        .unwrap();
    let second = service
        .submit(
            Arc::new(ConnectedComponents),
            PregelixJob::new("dup").with_io("in/dup", "out/dup-1"),
        )
        .unwrap();
    // First keeps the bare-name identity (and therefore the historical
    // DFS layout); the second is disambiguated.
    assert_eq!(first.id().tag(), "dup");
    assert_eq!(second.id().tag(), "dup.1");
    let a = first.wait().unwrap();
    let b = second.wait().unwrap();
    assert_eq!(a.supersteps, b.supersteps);
    assert_eq!(
        first.query_range(0, u64::MAX).unwrap(),
        second.query_range(0, u64::MAX).unwrap()
    );
    // Summaries carry the instance-suffixed tag for attribution.
    assert_eq!(a.name, "dup");
    assert_eq!(b.name, "dup.1");
}

#[test]
fn pipeline_submission_matches_run_pipeline_and_cleans_up() {
    let _guard = fault::exclusive();
    let records = two_chains();

    // Through the service.
    let cluster = fresh_cluster();
    graphgen::text::write_to_dfs(cluster.dfs(), "in/pipe", &records).unwrap();
    let service = JobService::new(&cluster, ServiceConfig::default());
    let stages: Vec<Arc<ConnectedComponents>> =
        (0..2).map(|_| Arc::new(ConnectedComponents)).collect();
    let job = PregelixJob::new("pipe")
        .with_io("in/pipe", "out/pipe")
        .with_checkpoint_interval(2);
    let handle = service.submit_pipeline(stages.clone(), job.clone()).unwrap();
    let summaries = handle.wait_all().unwrap();
    assert_eq!(summaries.len(), 2);
    assert_eq!(summaries[0].name, "pipe-stage0");
    assert_eq!(summaries[1].name, "pipe-stage1");

    // Through the wrapper: identical per-stage results.
    let cluster2 = fresh_cluster();
    graphgen::text::write_to_dfs(cluster2.dfs(), "in/pipe", &records).unwrap();
    let wrapped = run_pipeline(&cluster2, &stages, &job).unwrap();
    for (a, b) in summaries.iter().zip(&wrapped) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.supersteps, b.supersteps);
        assert_eq!(a.final_gs, b.final_gs);
    }

    // Success teardown cleared every stage's checkpoint ladder, logs, and
    // GS history (the old direct pipeline leaked all three).
    for stage in 0..2 {
        let dir = format!("jobs/pipe-stage{stage}");
        let leftovers: Vec<String> = cluster
            .dfs()
            .list(&dir)
            .unwrap_or_default()
            .into_iter()
            .filter(|p| p.contains("ckpt") || p.contains("msglog") || p.contains("gs-hist"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "stage {stage} leaked recovery state: {leftovers:?}"
        );
    }
}
