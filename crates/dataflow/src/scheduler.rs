//! The constraint-based task scheduler (§4 "User-configurable task
//! scheduling", §5.3.4).
//!
//! Hyracks lets a job attach scheduling constraints to each operator; the
//! scheduler is "a constraint solver that comes up with a schedule
//! satisfying the user-defined constraints". Pregelix uses this to pin the
//! join and group-by operators of every superstep to the workers that hold
//! the corresponding `Vertex` partitions — the *sticky* property that makes
//! `Msg` and `Vertex` permanently co-partitioned so the per-superstep join
//! needs no repartitioning.

use pregelix_common::error::{PregelixError, Result};

/// A scheduling constraint for one operator's partitions.
#[derive(Clone, Debug)]
pub enum LocationConstraint {
    /// Exactly this many partitions, placed round-robin (count constraint).
    Count(usize),
    /// Partition `i` must run on worker `absolute[i]` (absolute location
    /// constraint — the sticky placement for storage-bound operators).
    Absolute(Vec<usize>),
    /// Same placement as a previously declared operator (location *choice*
    /// constraint): partition-for-partition co-location, used to glue the
    /// group-by to the join.
    SameAs(usize),
}

/// One operator's scheduling declaration.
#[derive(Clone, Debug)]
pub struct OperatorSpec {
    /// Diagnostic name.
    pub name: String,
    /// Placement constraint; it fixes the partition count too.
    pub constraint: LocationConstraint,
}

impl OperatorSpec {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, constraint: LocationConstraint) -> OperatorSpec {
        OperatorSpec {
            name: name.into(),
            constraint,
        }
    }
}

/// The solved schedule: `assignment[op][partition] = worker`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    assignments: Vec<Vec<usize>>,
}

impl Schedule {
    /// Worker assigned to `(op, partition)`.
    pub fn worker(&self, op: usize, partition: usize) -> usize {
        self.assignments[op][partition]
    }

    /// All partments of operator `op` as a `partition -> worker` slice.
    pub fn op_assignment(&self, op: usize) -> &[usize] {
        &self.assignments[op]
    }
}

/// Solve the constraints against the set of alive workers.
///
/// Fails when an absolute constraint names a failed/unknown worker (the
/// failure manager then reschedules on fresh machines, §5.5) or when a
/// `SameAs` refers forward.
pub fn solve(ops: &[OperatorSpec], alive_workers: &[usize]) -> Result<Schedule> {
    if alive_workers.is_empty() {
        return Err(PregelixError::plan("no alive workers to schedule on"));
    }
    let mut assignments: Vec<Vec<usize>> = Vec::with_capacity(ops.len());
    let mut rr = 0usize;
    for (i, op) in ops.iter().enumerate() {
        let assignment = match &op.constraint {
            LocationConstraint::Count(n) => round_robin(*n, alive_workers, &mut rr),
            LocationConstraint::Absolute(workers) => {
                for w in workers {
                    if !alive_workers.contains(w) {
                        return Err(PregelixError::plan(format!(
                            "operator {} pinned to dead/unknown worker {w}",
                            op.name
                        )));
                    }
                }
                workers.clone()
            }
            LocationConstraint::SameAs(j) => {
                if *j >= i {
                    return Err(PregelixError::plan(format!(
                        "operator {} SameAs({j}) must refer to an earlier operator",
                        op.name
                    )));
                }
                assignments[*j].clone()
            }
        };
        assignments.push(assignment);
    }
    Ok(Schedule { assignments })
}

fn round_robin(n: usize, alive: &[usize], rr: &mut usize) -> Vec<usize> {
    (0..n)
        .map(|_| {
            let w = alive[*rr % alive.len()];
            *rr += 1;
            w
        })
        .collect()
}

/// The sticky partition→worker map Pregelix uses for storage-bound
/// operators: partition `p` of every relation lives on `alive[p % alive.len()]`
/// for the lifetime of the loaded graph.
pub fn sticky_assignment(partitions: usize, alive_workers: &[usize]) -> Vec<usize> {
    (0..partitions)
        .map(|p| alive_workers[p % alive_workers.len()])
        .collect()
}

/// Re-plan a sticky assignment after workers died (§5.5): surviving pins
/// are *kept* (their partitions' storage is already there — moving them
/// would throw away locality for no reason), and only the dead workers'
/// partitions are redistributed, each to the currently least-loaded
/// survivor (lowest worker id on ties, so the re-plan is deterministic).
///
/// Degrades gracefully: healthy placements never move, so a single death
/// perturbs exactly the partitions that must move and no others — unlike
/// [`sticky_assignment`] over the shrunken alive set, which can reshuffle
/// every partition.
pub fn replan_sticky(prev: &[usize], alive_workers: &[usize]) -> Result<Vec<usize>> {
    if alive_workers.is_empty() {
        return Err(PregelixError::plan("no surviving workers to re-plan onto"));
    }
    let mut load: Vec<(usize, usize)> = alive_workers.iter().map(|&w| (w, 0)).collect();
    for &w in prev {
        if let Some(entry) = load.iter_mut().find(|(id, _)| *id == w) {
            entry.1 += 1;
        }
    }
    let mut out = Vec::with_capacity(prev.len());
    for &w in prev {
        if alive_workers.contains(&w) {
            out.push(w);
            continue;
        }
        // Orphaned partition: give it to the least-loaded survivor.
        let (target, _) = *load
            .iter()
            .min_by_key(|&&(id, n)| (n, id))
            .expect("alive_workers nonempty");
        load.iter_mut()
            .find(|(id, _)| *id == target)
            .expect("target from load")
            .1 += 1;
        out.push(target);
    }
    Ok(out)
}

/// Partition indices whose sticky pin is *not* in `alive_workers` — the
/// partitions a worker death orphaned. Confined recovery reloads and
/// replays exactly this set (the complement stays hot on survivors);
/// an empty result means no partition state was lost.
pub fn dead_partitions(sticky: &[usize], alive_workers: &[usize]) -> Vec<usize> {
    sticky
        .iter()
        .enumerate()
        .filter(|(_, w)| !alive_workers.contains(w))
        .map(|(p, _)| p)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dead_partitions_names_exactly_the_orphans() {
        // prev = [0,1,2,0,1], worker 1 died.
        assert_eq!(dead_partitions(&[0, 1, 2, 0, 1], &[0, 2]), vec![1, 4]);
        // Nobody died: empty.
        assert_eq!(dead_partitions(&[0, 1], &[0, 1, 2]), Vec::<usize>::new());
        // Everybody died: all partitions.
        assert_eq!(dead_partitions(&[3, 3], &[]), vec![0, 1]);
        // Consistency with replan_sticky: only dead partitions move.
        let prev = [0usize, 1, 2, 0, 1];
        let alive = [0usize, 2];
        let replanned = replan_sticky(&prev, &alive).unwrap();
        for p in 0..prev.len() {
            let moved = replanned[p] != prev[p];
            let orphaned = dead_partitions(&prev, &alive).contains(&p);
            assert_eq!(moved, orphaned, "partition {p}");
        }
    }

    #[test]
    fn absolute_is_respected_and_validated() {
        let ops = vec![OperatorSpec::new("join", LocationConstraint::Absolute(vec![2, 0, 1]))];
        let s = solve(&ops, &[0, 1, 2]).unwrap();
        assert_eq!(s.op_assignment(0), &[2, 0, 1]);
        assert_eq!(s.worker(0, 0), 2);
        // Worker 2 failed: the absolute constraint is now unsatisfiable.
        assert!(solve(&ops, &[0, 1]).is_err());
    }

    #[test]
    fn same_as_coschedules() {
        let ops = vec![
            OperatorSpec::new("join", LocationConstraint::Absolute(vec![3, 2, 1, 0])),
            OperatorSpec::new("groupby", LocationConstraint::SameAs(0)),
        ];
        let s = solve(&ops, &[0, 1, 2, 3]).unwrap();
        assert_eq!(s.op_assignment(1), s.op_assignment(0));
    }

    #[test]
    fn same_as_forward_reference_rejected() {
        let ops = vec![OperatorSpec::new("g", LocationConstraint::SameAs(0))];
        assert!(solve(&ops, &[0]).is_err());
    }

    #[test]
    fn count_constraint_controls_partitions() {
        let ops = vec![OperatorSpec::new("agg", LocationConstraint::Count(1))];
        let s = solve(&ops, &[5, 7]).unwrap();
        assert_eq!(s.op_assignment(0).len(), 1);
    }

    #[test]
    fn no_workers_is_an_error() {
        assert!(solve(&[], &[]).is_err());
    }

    #[test]
    fn sticky_assignment_is_stable_mod_workers() {
        assert_eq!(sticky_assignment(5, &[0, 1, 2]), vec![0, 1, 2, 0, 1]);
        // After worker 1 fails, recovery remaps onto the survivors.
        assert_eq!(sticky_assignment(5, &[0, 2]), vec![0, 2, 0, 2, 0]);
    }

    #[test]
    fn replan_keeps_survivor_pins_and_rebalances_orphans() {
        // Partitions 0..5 on workers [0,1,2,0,1]; worker 1 dies.
        let prev = sticky_assignment(5, &[0, 1, 2]);
        let replanned = replan_sticky(&prev, &[0, 2]).unwrap();
        // Surviving pins (p0->0, p2->2, p3->0) are untouched.
        assert_eq!(replanned[0], 0);
        assert_eq!(replanned[2], 2);
        assert_eq!(replanned[3], 0);
        // Orphans p1, p4 land on survivors, balancing load: after p0/p3 on
        // worker 0 and p2 on worker 2, p1 goes to the lighter worker 2
        // (load 1 vs 2), then p4 to worker 0 and 2 tied -> lowest id 0...
        // which has load 2 vs worker 2's 2, tie broken by id.
        assert_eq!(replanned[1], 2);
        assert_eq!(replanned[4], 0);
        for &w in &replanned {
            assert!([0, 2].contains(&w));
        }
    }

    #[test]
    fn replan_without_deaths_is_identity() {
        let prev = sticky_assignment(7, &[0, 1, 2, 3]);
        assert_eq!(replan_sticky(&prev, &[0, 1, 2, 3]).unwrap(), prev);
    }

    #[test]
    fn replan_onto_empty_survivor_set_is_an_error() {
        assert!(replan_sticky(&[0, 1], &[]).is_err());
    }

    #[test]
    fn replan_single_survivor_takes_everything() {
        let prev = vec![0, 1, 2, 1, 0];
        assert_eq!(replan_sticky(&prev, &[2]).unwrap(), vec![2, 2, 2, 2, 2]);
    }
}
