//! Host crate for the cross-crate integration tests in `tests/tests/`:
//!
//! * `plan_equivalence` — all sixteen physical plans, every worker/partition
//!   shape, one answer.
//! * `fault_tolerance` — checkpoint/recovery under injected worker failures
//!   (§5.5).
//! * `out_of_core` — in-memory vs spilled runs are bit-identical (§5.4) and
//!   Pregelix survives the baselines' OOM points.
//! * `cross_system_agreement` — Pregelix and all five baseline engines
//!   compute identical answers.
//! * `dfs_io_and_pipelining` — text load/dump through the DFS (§5.2) and
//!   multi-stage pipelined jobs (§5.6).
//! * `mutations` — vertex addition/removal, `resolve` conflicts,
//!   message-created vertices (§2.1, Figure 5).
//! * `property_based` — proptest: random graphs × random plans vs
//!   single-machine references.
//! * `sender_fold` — the sender-side fold table against the sort path it
//!   stands in for: same answers over connectors × joins × stores × modes,
//!   and a table over budget means the sort path exactly.
//! * `row_write_back`, `row_cursor_allocs` — the fused scan/compute/update
//!   operator (§5.3.2): resized rows and rewritten edge lists fall back to
//!   whole-row writes and stay correct; a steady-state `compute` call
//!   allocates nothing (counting global allocator, a suite of its own).
