//! Concurrent tenancy: jobs run as threads calling `run_job` on one shared
//! [`Cluster`].
//!
//! The property: every tenant's result is **bit-identical** to running it
//! alone. Its values (read back from its dumped output), superstep count,
//! recoveries, final global state, and the interleaving-invariant counters
//! in [`JobSummary::job_stats`] match a serial run exactly, with or without
//! an injected fault. Each tenant's counter scope follows its tasks onto the
//! worker threads, so the per-job message counts add up to the cluster's.
//!
//! Every test holds [`fault::exclusive`] — this suite runs whole jobs, and
//! a concurrently installed fault plan from another test would otherwise
//! bleed into them. With `CHAOS_DIGEST` set, the tenancy scenarios append
//! one line per job built only from per-job counters and value hashes; CI
//! runs the suite twice and diffs the digests.

use pregelix::common::error::Result;
use pregelix::common::fault::{self, Fault, FaultPlan, Site};
use pregelix::core::api::{ComputeContext, VertexProgram};
use pregelix::core::load::read_output;
use pregelix::graphgen;
use pregelix::prelude::*;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Graphs and programs
// ---------------------------------------------------------------------------

/// A graph as `(vid, [(neighbour, weight)])` records.
type Records = Vec<(u64, Vec<(u64, f64)>)>;

/// A chain component `start — start+1 — … — start+len-1` (symmetric edges).
fn chain(start: u64, len: u64) -> Records {
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

fn two_chains() -> Records {
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
/// `values` are the job's dumped output lines — formatting is
/// deterministic, so string equality is value bit-equality.
#[derive(Debug)]
struct JobOutcome {
    tag: String,
    supersteps: u64,
    recoveries: u32,
    final_gs: GlobalState,
    values: Vec<(u64, String)>,
    /// Per-job `jcmp jmsgs jcomb jfold jfspill jstray`.
    job_counts: [u64; 6],
    /// What the digest line is drawn from.
    summary: JobSummary,
}

impl JobOutcome {
    fn of(cluster: &Cluster, job: &PregelixJob, summary: JobSummary) -> JobOutcome {
        let j = &summary.job_stats;
        JobOutcome {
            tag: summary.name.clone(),
            supersteps: summary.supersteps,
            recoveries: summary.recoveries,
            final_gs: summary.final_gs.clone(),
            values: read_output(cluster.dfs(), job.output_path()).unwrap(),
            job_counts: [
                j.compute_calls,
                j.messages_sent,
                j.messages_combined,
                j.msgs_folded_direct,
                j.msgs_fold_spilled,
                j.msgs_stray,
            ],
            summary,
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
        assert_eq!(self.final_gs, other.final_gs, "final GS diverged for {}", self.tag);
        assert_eq!(
            self.values, other.values,
            "vertex values diverged for {}",
            self.tag
        );
        assert_eq!(
            self.job_counts, other.job_counts,
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

/// The tenant mix, as (name, input records): 8 jobs across 4 program
/// types, including mutation.
fn mixed_inputs() -> Vec<(&'static str, Records)> {
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

fn stage_inputs(cluster: &Cluster, inputs: &[(&str, Records)]) {
    for (name, records) in inputs {
        graphgen::text::write_to_dfs(cluster.dfs(), &format!("in/{name}"), records).unwrap();
    }
}

fn mixed_job(name: &str) -> PregelixJob {
    let mut job = PregelixJob::new(name).with_io(format!("in/{name}"), format!("out/{name}"));
    // One tenant exercises the checkpoint ladder under concurrency.
    if name == "svc-cc-c" {
        job = job.with_checkpoint_interval(2);
    }
    job
}

/// Run the named job on `cluster` with the program matching its name
/// prefix.
fn run_mixed(cluster: &Cluster, name: &str) -> JobOutcome {
    let job = mixed_job(name);
    let summary = if name.starts_with("svc-cc") {
        run_job(cluster, &Arc::new(ConnectedComponents), &job)
    } else if name.starts_with("svc-pr") {
        run_job(cluster, &Arc::new(PageRank::new(4)), &job)
    } else if name.starts_with("svc-sssp") {
        let source = if name.ends_with('b') { 200 } else { 0 };
        run_job(cluster, &Arc::new(ShortestPaths::new(source)), &job)
    } else {
        run_job(cluster, &Arc::new(Mutator), &job)
    };
    JobOutcome::of(cluster, &job, summary.unwrap())
}

/// Run every job of `names` at once, one thread each, on `cluster`; the
/// outcomes come back in `names` order.
fn run_as_threads<'a>(
    cluster: &Cluster,
    names: impl IntoIterator<Item = &'a str>,
    run: impl Fn(&Cluster, &str) -> JobOutcome + Sync,
) -> Vec<JobOutcome> {
    let run = &run;
    std::thread::scope(|s| {
        let tenants: Vec<_> = names
            .into_iter()
            .map(|name| s.spawn(move || run(cluster, name)))
            .collect();
        tenants.into_iter().map(|t| t.join().unwrap()).collect()
    })
}

// ---------------------------------------------------------------------------
// 8 mixed tenants as threads == 8 serial jobs
// ---------------------------------------------------------------------------

#[test]
fn concurrent_mixed_jobs_bit_identical_to_serial() {
    let _guard = fault::exclusive();
    let inputs = mixed_inputs();

    // Serial references: each job alone on its own cluster.
    let serial: Vec<JobOutcome> = inputs
        .iter()
        .map(|(name, _)| {
            let cluster = fresh_cluster();
            stage_inputs(&cluster, &inputs);
            run_mixed(&cluster, name)
        })
        .collect();

    // Concurrent: all 8 at once, one thread each, on one shared cluster.
    let cluster = fresh_cluster();
    stage_inputs(&cluster, &inputs);
    let concurrent = run_as_threads(&cluster, inputs.iter().map(|(name, _)| *name), run_mixed);

    for (s, c) in serial.iter().zip(&concurrent) {
        s.assert_matches(c);
        assert!(c.job_counts[0] > 0, "{} attributed no compute work", c.tag);
        chaos_digest("tenants-mixed", c);
    }
    // Each tenant's scope saw only its own messages: together they are
    // the cluster's.
    let total_sent: u64 = concurrent.iter().map(|c| c.job_counts[1]).sum();
    let cluster_sent = cluster.counters().snapshot().messages_sent;
    assert_eq!(total_sent, cluster_sent);
}

// ---------------------------------------------------------------------------
// Faults stay scoped to the tenant they target
// ---------------------------------------------------------------------------

#[test]
fn faulted_tenant_recovers_without_disturbing_neighbors() {
    let guard = fault::exclusive();
    let inputs: Vec<(&str, Records)> = vec![
        ("svcf-a", chain(0, 8)),
        ("svcf-b", two_chains()),
        ("svcf-c", chain(50, 6)),
    ];
    let run = |cluster: &Cluster, name: &str| {
        let mut job = PregelixJob::new(name).with_io(format!("in/{name}"), format!("out/{name}"));
        if name == "svcf-b" {
            // The faulted tenant checkpoints every superstep so the
            // injected failure recovers instead of aborting.
            job = job.with_checkpoint_interval(1);
        }
        let summary = run_job(cluster, &Arc::new(ConnectedComponents), &job).unwrap();
        JobOutcome::of(cluster, &job, summary)
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
            run(&cluster, name)
        })
        .collect();

    // Concurrent: same three tenants as threads, same plan re-armed.
    guard.install(plan());
    let cluster = fresh_cluster();
    stage_inputs(&cluster, &inputs);
    let concurrent = run_as_threads(&cluster, inputs.iter().map(|(name, _)| *name), run);

    for (s, c) in serial.iter().zip(&concurrent) {
        s.assert_matches(c);
        chaos_digest("tenants-faulted", c);
    }
    // The fault hit exactly the tenant it named, in both phases.
    assert_eq!(serial[1].recoveries, 1);
    assert_eq!(concurrent[1].recoveries, 1);
    assert_eq!(concurrent[0].recoveries, 0);
    assert_eq!(concurrent[2].recoveries, 0);
}

// ---------------------------------------------------------------------------
// Pipelines
// ---------------------------------------------------------------------------

#[test]
fn run_pipeline_matches_stages_run_by_hand_and_cleans_up() {
    let _guard = fault::exclusive();
    let records = two_chains();
    let stages: Vec<Arc<ConnectedComponents>> =
        (0..2).map(|_| Arc::new(ConnectedComponents)).collect();
    let job = PregelixJob::new("pipe")
        .with_io("in/pipe", "out/pipe")
        .with_checkpoint_interval(2);

    let cluster = fresh_cluster();
    graphgen::text::write_to_dfs(cluster.dfs(), "in/pipe", &records).unwrap();
    let summaries = run_pipeline(&cluster, &stages, &job).unwrap();
    assert_eq!(summaries.len(), 2);
    assert_eq!(summaries[0].name, "pipe-stage0");
    assert_eq!(summaries[1].name, "pipe-stage1");

    // By hand: one load, stage `i` under `derive_stage(i)`, one dump.
    let by_hand = fresh_cluster();
    graphgen::text::write_to_dfs(by_hand.dfs(), "in/pipe", &records).unwrap();
    let mut graph = LoadedGraph::load(&by_hand, &stages[0], &job.derive_stage(0)).unwrap();
    for (i, (program, summary)) in stages.iter().zip(&summaries).enumerate() {
        let alone = graph.run(&by_hand, program, &job.derive_stage(i)).unwrap();
        assert_eq!(alone.name, summary.name);
        assert_eq!(alone.supersteps, summary.supersteps);
        assert_eq!(alone.final_gs, summary.final_gs);
        assert_eq!(alone.job_stats.compute_calls, summary.job_stats.compute_calls);
    }
    graph.dump(&by_hand, &stages[1], &job).unwrap();
    assert_eq!(
        read_output(cluster.dfs(), "out/pipe").unwrap(),
        read_output(by_hand.dfs(), "out/pipe").unwrap()
    );

    // Success cleared every stage's checkpoint ladder, logs, and GS
    // history; the stages run by hand left theirs.
    for stage in 0..2 {
        let tag = format!("pipe-stage{stage}");
        let left = integration_tests::recovery_state(&cluster, &tag);
        assert!(left.is_empty(), "{tag} leaked recovery state: {left:?}");
        assert!(
            !integration_tests::recovery_state(&by_hand, &tag).is_empty(),
            "{tag} checkpointed nothing"
        );
    }
}
