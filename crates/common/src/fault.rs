//! Deterministic fault injection for checkpoint/recovery testing (§5.5, §5.7).
//!
//! The failure manager's contract — replay from the latest checkpoint on a
//! recoverable infrastructure failure, surface user errors untouched — is
//! impossible to test with wall-clock saboteurs: a sleep-based "power off"
//! lands on a different instruction every run. This module replaces timers
//! with a *seeded schedule of fault sites*: a [`FaultPlan`] is a list of
//! [`FaultRule`]s, each of which names a [`Site`] (a static injection point
//! compiled into the I/O and dataflow layers), a `scope` substring matched
//! against the event's context string (a DFS path, a run-file path, a
//! superstep number, a connector label), an `nth` event count, and the
//! [`Fault`] to inject when that count is reached.
//!
//! The determinism rule: **every fault fires at a deterministic event count,
//! never a timer**. Each rule owns its own counter, so "the 1st write of
//! `ckpt/3/vertex-p1`" or "the barrier before superstep 4" identifies the
//! same event regardless of thread interleaving — scope strings pin rules to
//! serially-executed event streams (a single file's writes, the driver's
//! barrier) even when the cluster itself runs in parallel.
//!
//! Injection points compile to a branch on a [`OnceLock`]'d plan cell guarded
//! by one relaxed atomic load ([`active`]): when no plan is installed —
//! always, in production — every site is a single predictable branch.
//!
//! Plans are installed process-wide, so tests that inject faults serialize
//! through [`exclusive`], which returns a guard holding a global lock and
//! clears the plan on drop.

use crate::error::PregelixError;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// A static injection point compiled into the system.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Site {
    /// [`SimDfs::write`](crate::dfs::SimDfs::write); ctx = DFS path.
    DfsWrite,
    /// [`SimDfs::read`](crate::dfs::SimDfs::read); ctx = DFS path.
    DfsRead,
    /// `RunWriter::write_frame`; ctx = run-file path.
    RunWrite,
    /// `RunReader::next_frame`; ctx = run-file path (or `"mem"`).
    RunRead,
    /// `FileManager::write_page`; ctx = `pf-<file-id>`.
    PageWrite,
    /// `FileManager::read_page`; ctx = `pf-<file-id>`.
    PageRead,
    /// Buffer-cache eviction under memory pressure; ctx = `""`.
    CacheEvict,
    /// B-tree structural writes; ctx = `"insert"` (the put from the root)
    /// or `"bulk_load"`.
    BtreeOp,
    /// Connector delivery of a data frame, a `Fin` or a run handle; ctx =
    /// sender label (`"msg"`, `"mut"`, `"gs"`, `"merge"`). An
    /// [`Fault::IoError`] here is a broken wire: the sender fails with a
    /// recoverable error.
    FrameSend,
    /// The driver-side superstep barrier; ctx = the superstep number about to
    /// run, formatted in decimal.
    Barrier,
    /// The start of a partition's message group-by task; ctx =
    /// `"{job}:s{superstep}:p{partition}"`. The one site whose context
    /// names the job, so a multi-tenant test can fail exactly one tenant's
    /// task in one superstep.
    Stall,
    /// The confined-recovery message log: probed by the log writer before a
    /// per-(superstep, src-partition) log file reaches the DFS, and by the
    /// log reader during replay; ctx = the log's DFS path
    /// (`jobs/<job>/msglog/<superstep>/src<p>`). An [`Fault::IoError`] here
    /// silently degrades logging (the hole surfaces later as a confined
    /// fallback); a [`Fault::TornWrite`] leaves a CRC-detectable prefix.
    MsgLog,
}

impl Site {
    /// Stable lower-case name, used in injected error messages.
    pub fn name(self) -> &'static str {
        match self {
            Site::DfsWrite => "dfs-write",
            Site::DfsRead => "dfs-read",
            Site::RunWrite => "run-write",
            Site::RunRead => "run-read",
            Site::PageWrite => "page-write",
            Site::PageRead => "page-read",
            Site::CacheEvict => "cache-evict",
            Site::BtreeOp => "btree-op",
            Site::FrameSend => "frame-send",
            Site::Barrier => "barrier",
            Site::Stall => "stall",
            Site::MsgLog => "msg-log",
        }
    }
}

/// What happens when a rule fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The operation fails with an injected I/O error (recoverable per the
    /// §5.7 split). Rules fire exactly once, so the same operation succeeds
    /// when retried or replayed — a transient infrastructure fault.
    IoError,
    /// A write persists only the first `keep` bytes at the destination
    /// (bypassing the atomic temp-file + rename) and then errors: the torn
    /// file a crash mid-write would leave behind. Only honored at
    /// [`Site::DfsWrite`]; elsewhere behaves like [`Fault::IoError`].
    TornWrite {
        /// Bytes of the payload that reach the destination file.
        keep: usize,
    },
    /// Power off the given worker. Only interpreted at [`Site::Barrier`] by
    /// the driver (which owns the cluster handle); elsewhere behaves like
    /// [`Fault::IoError`].
    FailWorker(usize),
    /// The wire loses this frame, `Fin` or run handle ([`Site::FrameSend`]):
    /// the sender counts a retransmission (`frames_retransmitted`) and sends
    /// the message once.
    DropFrame,
    /// The wire delivers this frame, `Fin` or run handle twice
    /// ([`Site::FrameSend`]): the sender counts the duplicate
    /// (`frames_deduped`) and sends the message once.
    DuplicateFrame,
    /// The wire tears this frame, `Fin` or run handle mid-flight — the send
    /// a partial network write would produce ([`Site::FrameSend`]). Counted
    /// like [`Fault::DropFrame`], and also in `frames_corrupted`.
    CorruptFrame,
}

/// One scheduled fault: fire `fault` at the `nth` event matching
/// `(site, scope)`. Each rule fires exactly once.
#[derive(Debug)]
pub struct FaultRule {
    site: Site,
    /// Substring matched against the event context; `""` matches every event
    /// at the site.
    scope: String,
    /// 1-based count of matching events at which the rule fires.
    nth: u64,
    fault: Fault,
    seen: AtomicU64,
}

impl FaultRule {
    /// Matching events observed so far (for post-run assertions).
    pub fn seen(&self) -> u64 {
        self.seen.load(Ordering::Relaxed)
    }
}

/// A seeded schedule of faults. Build with [`FaultPlan::new`] + [`FaultPlan::on`],
/// then install through [`ChaosGuard::install`].
#[derive(Debug, Default)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
    injected: AtomicU64,
}

impl FaultPlan {
    /// An empty plan (injects nothing; still claims the injection machinery).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `fault` for the `nth` event at `site` whose context contains
    /// `scope` (`""` matches all). `nth` is 1-based; 0 is treated as 1.
    pub fn on(mut self, site: Site, scope: &str, nth: u64, fault: Fault) -> Self {
        self.rules.push(FaultRule {
            site,
            scope: scope.to_string(),
            nth: nth.max(1),
            fault,
            seen: AtomicU64::new(0),
        });
        self
    }

    /// Total faults injected since installation.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// The scheduled rules (for post-run assertions on `seen` counts).
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }

    fn check(&self, site: Site, ctx: &str) -> Option<Fault> {
        let mut fired = None;
        // Bump *every* matching rule so each rule's count reflects the full
        // event stream, independent of which rule fires first.
        for rule in &self.rules {
            if rule.site != site {
                continue;
            }
            if !rule.scope.is_empty() && !ctx.contains(rule.scope.as_str()) {
                continue;
            }
            let seen = rule.seen.fetch_add(1, Ordering::Relaxed) + 1;
            if seen == rule.nth && fired.is_none() {
                fired = Some(rule.fault);
            }
        }
        if fired.is_some() {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        fired
    }
}

/// Fast-path gate: one relaxed load when no plan was ever installed.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The installed plan. `OnceLock` so production never allocates the cell;
/// the inner mutex lets tests swap plans without re-initializing it.
static ACTIVE: OnceLock<Mutex<Option<Arc<FaultPlan>>>> = OnceLock::new();

/// Serializes fault-injecting tests within a process.
static SERIAL: Mutex<()> = Mutex::new(());

fn active_cell() -> &'static Mutex<Option<Arc<FaultPlan>>> {
    ACTIVE.get_or_init(|| Mutex::new(None))
}

fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panicking fault test must not wedge every later test.
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Whether a plan is installed. Call sites that need to *format* a context
/// string gate on this so production pays no allocation.
#[inline]
pub fn active() -> bool {
    ENABLED.load(Ordering::Acquire)
}

/// Report an event at `site` with context `ctx`; returns the fault to inject,
/// if a rule fires on this exact event. The no-plan path is a single branch.
#[inline]
pub fn hit(site: Site, ctx: &str) -> Option<Fault> {
    if !active() {
        return None;
    }
    hit_slow(site, ctx)
}

#[cold]
fn hit_slow(site: Site, ctx: &str) -> Option<Fault> {
    let plan = lock_ignore_poison(active_cell()).clone()?;
    plan.check(site, ctx)
}

/// The error a firing [`Fault::IoError`]-class rule injects: an
/// [`PregelixError::Io`], which `is_recoverable()` — the §5.7 infrastructure
/// side of the split.
pub fn injected_error(site: Site, ctx: &str) -> PregelixError {
    PregelixError::Io(std::io::Error::other(format!(
        "injected {} fault (ctx {ctx:?})",
        site.name()
    )))
}

/// Holds the process-wide chaos lock; at most one holder at a time, so fault
/// tests serialize. Dropping the guard uninstalls any plan.
pub struct ChaosGuard {
    _serial: MutexGuard<'static, ()>,
}

/// Acquire the chaos lock with no plan installed yet. Reference (no-fault)
/// runs under the guard behave exactly like production.
pub fn exclusive() -> ChaosGuard {
    let serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    ChaosGuard { _serial: serial }
}

impl ChaosGuard {
    /// Install `plan` process-wide, replacing any previous plan and its
    /// counters. Returns a handle for post-run assertions.
    pub fn install(&self, plan: FaultPlan) -> Arc<FaultPlan> {
        let plan = Arc::new(plan);
        *lock_ignore_poison(active_cell()) = Some(plan.clone());
        ENABLED.store(true, Ordering::Release);
        plan
    }

    /// Uninstall the current plan; sites return to the single-branch no-op.
    pub fn clear(&self) {
        ENABLED.store(false, Ordering::Release);
        *lock_ignore_poison(active_cell()) = None;
    }
}

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        self.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_plan_is_inert() {
        let _guard = exclusive();
        assert!(!active());
        assert_eq!(hit(Site::DfsWrite, "anything"), None);
    }

    #[test]
    fn rule_fires_exactly_once_at_nth_matching_event() {
        // Uses RunWrite/RunRead: no real site for either fires inside this
        // crate's test binary, so concurrent dfs tests cannot bump the rule.
        let guard = exclusive();
        let plan = guard.install(FaultPlan::new().on(Site::RunWrite, "ckpt", 3, Fault::IoError));
        assert_eq!(hit(Site::RunWrite, "jobs/j/ckpt/1/p0"), None);
        assert_eq!(hit(Site::RunWrite, "jobs/j/other"), None); // scope mismatch
        assert_eq!(hit(Site::RunRead, "jobs/j/ckpt/1/p0"), None); // site mismatch
        assert_eq!(hit(Site::RunWrite, "jobs/j/ckpt/1/p1"), None);
        assert_eq!(
            hit(Site::RunWrite, "jobs/j/ckpt/2/p0"),
            Some(Fault::IoError)
        );
        assert_eq!(hit(Site::RunWrite, "jobs/j/ckpt/2/p1"), None); // spent
        assert_eq!(plan.injected(), 1);
        assert_eq!(plan.rules()[0].seen(), 4);
    }

    #[test]
    fn empty_scope_matches_everything_and_rules_are_independent() {
        let guard = exclusive();
        let plan = guard.install(
            FaultPlan::new()
                .on(Site::Barrier, "", 1, Fault::FailWorker(2))
                .on(Site::Barrier, "3", 1, Fault::IoError),
        );
        assert_eq!(hit(Site::Barrier, "1"), Some(Fault::FailWorker(2)));
        assert_eq!(hit(Site::Barrier, "2"), None);
        assert_eq!(hit(Site::Barrier, "3"), Some(Fault::IoError));
        assert_eq!(plan.injected(), 2);
    }

    #[test]
    fn clear_restores_the_fast_path_and_drop_clears() {
        let guard = exclusive();
        guard.install(FaultPlan::new().on(Site::RunWrite, "", 1, Fault::IoError));
        assert!(active());
        guard.clear();
        assert!(!active());
        assert_eq!(hit(Site::RunWrite, "x"), None);
        guard.install(FaultPlan::new().on(Site::RunRead, "", 1, Fault::IoError));
        drop(guard);
        assert!(!active());
    }

    #[test]
    fn stall_rules_target_one_partition_superstep() {
        let guard = exclusive();
        let plan =
            guard.install(FaultPlan::new().on(Site::Stall, "job-x:s3:p1", 1, Fault::IoError));
        assert_eq!(hit(Site::Stall, "job-x:s1:p1"), None);
        assert_eq!(hit(Site::Stall, "job-x:s3:p0"), None);
        assert_eq!(hit(Site::Stall, "job-x:s3:p1"), Some(Fault::IoError));
        assert_eq!(hit(Site::Stall, "job-x:s3:p1"), None, "fires exactly once");
        assert_eq!(plan.injected(), 1);
    }

    #[test]
    fn injected_error_is_recoverable_io() {
        let e = injected_error(Site::RunWrite, "msg-p0.run");
        assert!(e.is_recoverable());
        assert!(e.to_string().contains("injected run-write fault"));
    }
}
