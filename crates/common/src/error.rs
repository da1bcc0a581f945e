//! The unified error type used across the workspace.

use std::fmt;

/// Convenient result alias used across the workspace.
pub type Result<T, E = PregelixError> = std::result::Result<T, E>;

/// Every failure mode a Pregelix job can observe.
///
/// The variants are grouped by the layer they originate from. The failure
/// manager (§5.7) distinguishes *recoverable* infrastructure failures
/// (I/O errors, worker interruption) from application errors, which are
/// forwarded to the user; [`PregelixError::is_recoverable`] encodes exactly
/// that split.
#[derive(Debug)]
pub enum PregelixError {
    /// Underlying file-system error (local working directory or the
    /// simulated DFS).
    Io(std::io::Error),
    /// A (simulated or real) memory budget was exhausted. Process-centric
    /// baselines surface this when a partition or its messages no longer fit
    /// in worker RAM; Pregelix itself never raises it because all operators
    /// spill.
    OutOfMemory {
        /// Human-readable owner of the budget, e.g. `"worker-3 heap"`.
        budget: String,
        /// Bytes that were requested.
        requested: usize,
        /// Bytes that were still available.
        available: usize,
    },
    /// Malformed bytes encountered while decoding a tuple or page.
    Corrupt(String),
    /// A storage-layer invariant was violated (bad page id, pinned-page
    /// eviction, bulk-load ordering, ...).
    Storage(String),
    /// A dataflow job was mis-constructed (dangling connector, partition
    /// count mismatch, unsatisfiable location constraint, ...).
    Plan(String),
    /// A simulated worker machine was declared dead (powered off, or
    /// blacklisted by the failure detector after exhausting its missed-beat
    /// budget). Carries the worker id so the driver can blacklist it and
    /// re-plan its sticky partitions onto survivors before falling back to
    /// checkpoint recovery.
    WorkerDead {
        /// Id of the dead worker.
        id: usize,
    },
    /// An error raised by user code (a `compute`, `combine`, `aggregate` or
    /// `resolve` UDF). Never retried: forwarded to the end user, per §5.7.
    User(String),
    /// Checkpoint requested for recovery does not exist.
    NoCheckpoint,
    /// A confined recovery could not proceed (missing/torn message log, a
    /// garbage-collection race, stale global-state history, no reusable
    /// checkpoint). Not recoverable *by retrying*: recovery catches it
    /// internally and reloads every partition instead, so it never escapes
    /// the recovery ladder.
    ConfinedRecoveryUnavailable(String),
    /// The failure manager hit the job's recovery cap (the
    /// `PregelixJob::max_recoveries` knob) and gave up.
    /// Carries the cap and the display form of the last recoverable fault so
    /// the user sees *why* the job kept dying, not just the final symptom.
    RecoveriesExhausted {
        /// The configured `PregelixJob::max_recoveries` cap that was reached.
        cap: u32,
        /// Display form of the last recoverable error before giving up.
        last_error: String,
    },
    /// Any other invariant violation.
    Internal(String),
}

impl PregelixError {
    /// Whether the failure manager should attempt recovery (reload the most
    /// recent checkpoint onto failure-free workers) rather than surfacing the
    /// error to the user. Mirrors §5.7: "It only tries to recover from
    /// interruption errors ... and I/O related failures; it just forwards
    /// application exceptions to end users."
    pub fn is_recoverable(&self) -> bool {
        matches!(
            self,
            PregelixError::Io(_) | PregelixError::WorkerDead { .. }
        )
    }

    /// Shorthand constructor for corrupt-data errors.
    pub fn corrupt(msg: impl Into<String>) -> Self {
        PregelixError::Corrupt(msg.into())
    }

    /// Shorthand constructor for storage-invariant errors.
    pub fn storage(msg: impl Into<String>) -> Self {
        PregelixError::Storage(msg.into())
    }

    /// Shorthand constructor for plan-construction errors.
    pub fn plan(msg: impl Into<String>) -> Self {
        PregelixError::Plan(msg.into())
    }

    /// Shorthand constructor for user/UDF errors.
    pub fn user(msg: impl Into<String>) -> Self {
        PregelixError::User(msg.into())
    }

    /// Shorthand constructor for internal invariant violations.
    pub fn internal(msg: impl Into<String>) -> Self {
        PregelixError::Internal(msg.into())
    }

    /// Shorthand constructor for confined-recovery unavailability: the typed
    /// signal that makes recovery reload every partition instead.
    pub fn confined_unavailable(msg: impl Into<String>) -> Self {
        PregelixError::ConfinedRecoveryUnavailable(msg.into())
    }
}

impl fmt::Display for PregelixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PregelixError::Io(e) => write!(f, "I/O error: {e}"),
            PregelixError::OutOfMemory {
                budget,
                requested,
                available,
            } => write!(
                f,
                "out of memory in {budget}: requested {requested} bytes, {available} available"
            ),
            PregelixError::Corrupt(m) => write!(f, "corrupt data: {m}"),
            PregelixError::Storage(m) => write!(f, "storage error: {m}"),
            PregelixError::Plan(m) => write!(f, "plan error: {m}"),
            PregelixError::WorkerDead { id } => write!(f, "worker {id} declared dead"),
            PregelixError::User(m) => write!(f, "application error: {m}"),
            PregelixError::NoCheckpoint => write!(f, "no checkpoint available for recovery"),
            PregelixError::ConfinedRecoveryUnavailable(m) => {
                write!(f, "confined recovery unavailable: {m}")
            }
            PregelixError::RecoveriesExhausted { cap, last_error } => write!(
                f,
                "recovery cap exhausted: {cap} recoveries attempted (max_recoveries = {cap}); \
                 last recoverable error: {last_error}"
            ),
            PregelixError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for PregelixError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PregelixError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PregelixError {
    fn from(e: std::io::Error) -> Self {
        PregelixError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recoverability_split_matches_failure_manager_policy() {
        assert!(PregelixError::WorkerDead { id: 3 }.is_recoverable());
        assert!(PregelixError::Io(std::io::Error::other("disk")).is_recoverable());
        assert!(!PregelixError::user("bad vertex value").is_recoverable());
        assert!(!PregelixError::OutOfMemory {
            budget: "w0".into(),
            requested: 1,
            available: 0
        }
        .is_recoverable());
        assert!(!PregelixError::plan("dangling").is_recoverable());
    }

    /// Every variant is classified by the §5.7 split. The `match` below is
    /// deliberately exhaustive (no `_` arm): adding a variant without
    /// deciding its recoverability fails to compile, and the expectation is
    /// cross-checked against `is_recoverable` for one witness per variant.
    #[test]
    fn every_variant_is_classified_by_the_recoverability_split() {
        fn expected(e: &PregelixError) -> bool {
            match e {
                // Infrastructure failures: recover from the latest
                // checkpoint onto failure-free workers.
                PregelixError::Io(_) => true,
                PregelixError::WorkerDead { .. } => true,
                // Application errors: forwarded to the end user, never
                // retried.
                PregelixError::User(_) => false,
                // Deterministic system states replay would only reproduce.
                PregelixError::OutOfMemory { .. } => false,
                PregelixError::Corrupt(_) => false,
                PregelixError::Storage(_) => false,
                PregelixError::Plan(_) => false,
                PregelixError::NoCheckpoint => false,
                // Confined-recovery unavailability is an internal routing
                // signal (reload every partition instead), not a transient
                // fault to retry; recovery exhaustion is terminal by
                // definition.
                PregelixError::ConfinedRecoveryUnavailable(_) => false,
                PregelixError::RecoveriesExhausted { .. } => false,
                PregelixError::Internal(_) => false,
            }
        }
        let witnesses = vec![
            PregelixError::Io(std::io::Error::other("x")),
            PregelixError::OutOfMemory {
                budget: "w".into(),
                requested: 2,
                available: 1,
            },
            PregelixError::corrupt("c"),
            PregelixError::storage("s"),
            PregelixError::plan("p"),
            PregelixError::WorkerDead { id: 0 },
            PregelixError::user("u"),
            PregelixError::NoCheckpoint,
            PregelixError::confined_unavailable("hole in msg log"),
            PregelixError::RecoveriesExhausted {
                cap: 32,
                last_error: "worker 2 declared dead".into(),
            },
            PregelixError::internal("i"),
        ];
        for e in &witnesses {
            assert_eq!(
                e.is_recoverable(),
                expected(e),
                "recoverability mismatch for {e}"
            );
        }
    }

    #[test]
    fn display_is_informative() {
        let e = PregelixError::OutOfMemory {
            budget: "worker-1 heap".into(),
            requested: 4096,
            available: 128,
        };
        let s = e.to_string();
        assert!(s.contains("worker-1 heap"));
        assert!(s.contains("4096"));
    }

    #[test]
    fn recovery_exhaustion_names_the_cap_and_last_fault() {
        let e = PregelixError::RecoveriesExhausted {
            cap: 7,
            last_error: "worker 2 declared dead".into(),
        };
        let s = e.to_string();
        assert!(s.contains("max_recoveries = 7"), "{s}");
        assert!(s.contains("worker 2 declared dead"), "{s}");
        assert!(!e.is_recoverable());
        let c = PregelixError::confined_unavailable("torn log superstep 4");
        assert!(c.to_string().contains("torn log superstep 4"));
        assert!(!c.is_recoverable());
    }

    #[test]
    fn io_error_source_chain() {
        use std::error::Error;
        let e = PregelixError::from(std::io::Error::other("boom"));
        assert!(e.source().is_some());
    }
}
