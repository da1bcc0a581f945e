//! Tests of the row cursor's seek path (§5.2/§7.5): one row cursor's
//! `seek`s of a monotonically non-decreasing key sequence must be
//! indistinguishable from point lookups (a fresh cursor's seek per key) —
//! and from a `BTreeMap` reference model — across hits, misses in gaps,
//! duplicate probe keys, deleted keys, and probes past the last leaf.
//!
//! The row-cursor sweep drives a random program of moves and writes through
//! `VertexStore::cursor` against the same model: `next`
//! must yield the smallest key after the position in the store *as it is
//! now*, whatever the writes in between did to the tree.
//!
//! `LoadedGraph`'s point and range reads are the same seeks over a
//! finished job's graph.
//!
//! The case count honours `PROPTEST_CASES` so CI's storage-proptest job
//! can raise it without a code change.

use pregelix::common::stats::ClusterCounters;
use pregelix::core::store::VertexStore;
use pregelix::storage::btree::BTree;
use pregelix::storage::cache::BufferCache;
use pregelix::storage::file::{FileManager, TempDir};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn cache(label: &str) -> (BufferCache, TempDir) {
    let dir = TempDir::new(label).unwrap();
    // Small pages force multi-level trees (and multi-leaf sibling hops)
    // even at proptest-sized key counts.
    let fm = FileManager::new(dir.path(), 256, ClusterCounters::new()).unwrap();
    (BufferCache::new(fm, 128), dir)
}

fn k(v: u64) -> Vec<u8> {
    v.to_be_bytes().to_vec()
}

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24)
}

/// One mutation in the randomised workload. `Flush` writes the tree's
/// dirty pages back mid-workload.
#[derive(Debug, Clone, Copy)]
enum Op {
    Upsert(u64),
    Delete(u64),
    Flush,
}

fn ops(max_key: u64, len: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            6 => (0..max_key).prop_map(Op::Upsert),
            3 => (0..max_key).prop_map(Op::Delete),
            1 => Just(Op::Flush),
        ],
        1..len,
    )
}

/// Sorted probe sequence over a domain 1.5× wider than the data domain:
/// hits, gap misses, duplicates (from collection collisions), and probes
/// past the last leaf all arise naturally.
fn probes(max_key: u64, len: usize) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0..max_key + max_key / 2, 1..len).prop_map(|mut v| {
        v.sort_unstable();
        v
    })
}

fn value_for(key: u64, version: u64) -> Vec<u8> {
    let mut v = key.to_le_bytes().to_vec();
    v.extend_from_slice(&version.to_le_bytes());
    v
}

/// One step of a row-cursor program. Writes apply to the current row and
/// are skipped when the cursor is between rows; `delta`s are relative to
/// the position, so seeks never go backwards.
#[derive(Debug, Clone, Copy)]
enum CursorOp {
    Next,
    Seek(u64),
    /// Overwrite the first `n` bytes (clamped to the row's length).
    WriteHead(usize),
    /// Replace the value with one of the same length.
    WriteSame,
    /// Replace the value with one of `len` bytes: 0..=40 stays inline on
    /// 256-byte pages whatever it was, 60..700 spills to an overflow chain.
    Write(usize),
    /// Insert a key `delta + 1` below the position (clamped at 0).
    InsertBefore(u64),
    /// Insert a key `delta + 1` above the position.
    InsertAfter(u64),
    /// Insert (replace) at the position's own key.
    InsertHere,
    Delete,
}

fn cursor_program(len: usize) -> impl Strategy<Value = Vec<CursorOp>> {
    prop::collection::vec(
        prop_oneof![
            8 => Just(CursorOp::Next),
            4 => (0u64..12).prop_map(CursorOp::Seek),
            3 => (1usize..12).prop_map(CursorOp::WriteHead),
            3 => Just(CursorOp::WriteSame),
            3 => (0usize..=40).prop_map(CursorOp::Write),
            2 => (60usize..700).prop_map(CursorOp::Write),
            2 => (0u64..20).prop_map(CursorOp::InsertBefore),
            2 => (0u64..20).prop_map(CursorOp::InsertAfter),
            1 => Just(CursorOp::InsertHere),
            2 => Just(CursorOp::Delete),
        ],
        1..len,
    )
}

/// `len` bytes that differ from step to step.
fn filler(step: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| (step * 31 + i) as u8).collect()
}

/// Run `program` through `store`'s row cursor and through `model`, checking
/// every answer, then drain the cursor and compare a full scan.
fn check_cursor_program(
    mut store: VertexStore,
    mut model: BTreeMap<u64, Vec<u8>>,
    program: &[CursorOp],
) -> Result<(), TestCaseError> {
    // The model cursor: `pos` is the key of the position (None = before
    // every row) and `on_row` whether a row is current.
    let (mut pos, mut on_row): (Option<u64>, bool) = (None, false);
    let mut cur = store.cursor();
    for (step, op) in program.iter().enumerate() {
        match *op {
            CursorOp::Next => {
                let ahead = match pos {
                    None => model.iter().next(),
                    Some(p) => model.range(p + 1..).next(),
                };
                prop_assert_eq!(cur.next().unwrap(), ahead.is_some(), "step {}", step);
                on_row = ahead.is_some();
                if let Some((key, value)) = ahead {
                    prop_assert_eq!(cur.key().to_vec(), k(*key), "step {}", step);
                    prop_assert_eq!(cur.value(), value.as_slice(), "step {}", step);
                    pos = Some(*key);
                }
            }
            CursorOp::Seek(delta) => {
                let key = pos.unwrap_or(0) + delta;
                on_row = model.contains_key(&key);
                prop_assert_eq!(cur.seek(&k(key)).unwrap(), on_row, "step {}", step);
                prop_assert_eq!(cur.key().to_vec(), k(key));
                if on_row {
                    prop_assert_eq!(cur.value(), model[&key].as_slice(), "step {}", step);
                }
                pos = Some(key);
            }
            CursorOp::WriteHead(n) if on_row => {
                let row = model.get_mut(&pos.unwrap()).unwrap();
                let head = filler(step, n.min(row.len()));
                cur.write_head(&head).unwrap();
                row[..head.len()].copy_from_slice(&head);
                prop_assert_eq!(cur.value(), row.as_slice(), "step {}", step);
            }
            CursorOp::WriteSame | CursorOp::Write(_) if on_row => {
                let row = model.get_mut(&pos.unwrap()).unwrap();
                *row = match *op {
                    CursorOp::Write(len) => filler(step, len),
                    _ => filler(step, row.len()),
                };
                cur.write(row).unwrap();
                prop_assert_eq!(cur.value(), row.as_slice(), "step {}", step);
            }
            CursorOp::InsertBefore(_) | CursorOp::InsertAfter(_) | CursorOp::InsertHere => {
                let at = pos.unwrap_or(0);
                let key = match *op {
                    CursorOp::InsertBefore(delta) => at.saturating_sub(delta + 1),
                    CursorOp::InsertAfter(delta) => at + delta + 1,
                    _ => at,
                };
                let value = filler(step, 8 + step % 9);
                cur.insert(&k(key), &value).unwrap();
                model.insert(key, value);
                if on_row {
                    // The current row stays current (and shows the new
                    // value when it was the one replaced).
                    prop_assert_eq!(cur.value(), model[&pos.unwrap()].as_slice());
                }
            }
            CursorOp::Delete if on_row => {
                cur.delete().unwrap();
                model.remove(&pos.unwrap());
                on_row = false;
            }
            // A write with no current row is refused and changes nothing.
            CursorOp::WriteHead(_) | CursorOp::WriteSame | CursorOp::Write(_) => {
                prop_assert!(cur.write(&[0]).is_err(), "step {}", step);
            }
            CursorOp::Delete => prop_assert!(cur.delete().is_err(), "step {}", step),
        }
    }
    // Whatever is ahead of the position is exactly what the model has there.
    let ahead: Vec<u64> = match pos {
        None => model.keys().copied().collect(),
        Some(p) => model.range(p + 1..).map(|(key, _)| *key).collect(),
    };
    for key in ahead {
        prop_assert!(cur.next().unwrap());
        prop_assert_eq!(cur.key().to_vec(), k(key));
        prop_assert_eq!(cur.value(), model[&key].as_slice());
    }
    prop_assert!(!cur.next().unwrap());
    drop(cur);
    let mut cur = store.cursor();
    for (key, value) in &model {
        prop_assert!(cur.next().unwrap());
        prop_assert_eq!(
            (cur.key(), cur.value()),
            (k(*key).as_slice(), value.as_slice())
        );
    }
    prop_assert!(!cur.next().unwrap());
    Ok(())
}

/// Apply `workload` through fresh cursors (a split history) and the model:
/// an upsert is an insert on no row, the tree's put from the root; a delete
/// seeks its key and removes the row the seek finds.
fn apply(store: &mut VertexStore, model: &mut BTreeMap<u64, Vec<u8>>, workload: &[Op]) {
    for (i, op) in workload.iter().enumerate() {
        match *op {
            Op::Upsert(key) => {
                let v = value_for(key, i as u64);
                store.cursor().insert(&k(key), &v).unwrap();
                model.insert(key, v);
            }
            Op::Delete(key) => {
                let mut cur = store.cursor();
                let found = cur.seek(&k(key)).unwrap();
                assert_eq!(found, model.remove(&key).is_some(), "delete of {key}");
                if found {
                    cur.delete().unwrap();
                }
            }
            Op::Flush => store.flush().unwrap(),
        }
    }
}

/// What point lookups of `keys` return: a fresh cursor's seek each, one
/// descent from the root.
fn search_all(store: &mut VertexStore, keys: &[u64]) -> Vec<Option<Vec<u8>>> {
    keys.iter()
        .map(|&key| {
            let mut cur = store.cursor();
            cur.seek(&k(key)).unwrap().then(|| cur.value().to_vec())
        })
        .collect()
}

/// What one row cursor's sorted `seek`s of `keys` find.
fn seek_all(store: &mut VertexStore, keys: &[u64]) -> Vec<Option<Vec<u8>>> {
    let mut cur = store.cursor();
    keys.iter()
        .map(|&key| cur.seek(&k(key)).unwrap().then(|| cur.value().to_vec()))
        .collect()
}

/// The model's answers for `keys`.
fn expect_all(model: &BTreeMap<u64, Vec<u8>>, keys: &[u64]) -> Vec<Option<Vec<u8>>> {
    keys.iter().map(|key| model.get(key).cloned()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(), ..ProptestConfig::default() })]

    #[test]
    fn prop_row_cursor_program_matches_model(
        stride in 1u64..5,
        n in 0u64..120,
        churn in ops(400, 40),
        program in cursor_program(160),
    ) {
        // Rows of 8..=40 bytes (all inline) at `stride`-spaced keys, then a
        // little churn through fresh cursors.
        let rows: BTreeMap<u64, Vec<u8>> = (0..n)
            .map(|i| (i * stride, filler(i as usize, 8 + (i as usize * 7) % 33)))
            .collect();
        let (cache, _dir) = cache("cursor-btree");
        let mut store = VertexStore::B(BTree::create(cache).unwrap());
        let mut model = rows.clone();
        store.bulk_load(rows.iter().map(|(key, v)| (k(*key), v.clone()))).unwrap();
        apply(&mut store, &mut model, &churn);
        check_cursor_program(store, model, &program)?;
    }

    #[test]
    fn prop_btree_probe_cursor_matches_search_and_model(
        workload in ops(400, 120),
        probe_keys in probes(400, 150),
    ) {
        let (cache, _dir) = cache("probe-btree");
        let mut store = VertexStore::B(BTree::create(cache).unwrap());
        let mut model = BTreeMap::new();
        apply(&mut store, &mut model, &workload);
        let searched = search_all(&mut store, &probe_keys);
        let sought = seek_all(&mut store, &probe_keys);
        prop_assert_eq!(&sought, &searched);
        prop_assert_eq!(sought, expect_all(&model, &probe_keys));
    }

    #[test]
    fn prop_btree_bulk_loaded_probe_cursor_matches_model(
        stride in 1u64..7,
        n in 10u64..400,
        probe_keys in probes(2800, 150),
    ) {
        // Bulk-loaded trees have a distinct leaf layout (fill-factor slack,
        // no split history); the cursor must not care.
        let (cache, _dir) = cache("probe-bulk");
        let mut store = VertexStore::B(BTree::create(cache).unwrap());
        let model: BTreeMap<u64, Vec<u8>> =
            (0..n).map(|i| (i * stride, value_for(i * stride, 0))).collect();
        store.bulk_load(model.iter().map(|(key, v)| (k(*key), v.clone()))).unwrap();
        prop_assert_eq!(seek_all(&mut store, &probe_keys), expect_all(&model, &probe_keys),
            "stride {}", stride);
    }
}

/// Point and range reads over a finished job's resident graph: a seek of
/// the vid's partition cursor, and for a range a seek and a walk on in
/// every partition, merged by vid and formatted by the program.
#[test]
fn loaded_graph_serves_point_and_range_reads() {
    use pregelix::prelude::*;
    use std::sync::Arc;
    // Two symmetric chains, 0..8 and 100..106, on three partitions.
    let chain = |start: u64, len: u64| {
        (start..start + len).map(move |v| {
            let edges = [v.checked_sub(1).filter(|&u| u >= start), Some(v + 1)];
            let edges = edges.into_iter().flatten().filter(|&u| u < start + len);
            (v, edges.map(|u| (u, 1.0)).collect::<Vec<_>>())
        })
    };
    let records = chain(0, 8).chain(chain(100, 6)).collect();
    let cluster = Cluster::new(ClusterConfig::new(3, 8 << 20)).unwrap();
    let program = Arc::new(ConnectedComponents);
    let job = PregelixJob::new("query");
    let (summary, graph) = run_job_from_records(&cluster, &program, &job, records).unwrap();
    assert!(summary.final_gs.halt);

    let point = |vid| {
        let vertex = graph.probe_vertex::<ConnectedComponents>(vid).unwrap();
        vertex.map(|v| program.format_vertex(v.vid, &v.value))
    };
    assert_eq!(point(5).as_deref(), Some("5\t0"));
    assert_eq!(point(103).as_deref(), Some("103\t100"));
    // Absent: in the gap between the chains, and past the last vid.
    assert_eq!(point(50), None);
    assert_eq!(point(999), None);

    let range = |lo, hi| -> Vec<(u64, String)> {
        let vertices = graph.range_vertices::<ConnectedComponents>(lo, hi).unwrap();
        vertices
            .into_iter()
            .map(|v| (v.vid, program.format_vertex(v.vid, &v.value)))
            .collect()
    };
    let across = range(4, 102);
    let vids: Vec<u64> = across.iter().map(|(v, _)| *v).collect();
    assert_eq!(vids, [4, 5, 6, 7, 100, 101, 102]);
    for (vid, line) in &across {
        let component = if *vid < 100 { 0 } else { 100 };
        assert_eq!(*line, format!("{vid}\t{component}"));
    }
    let partitions: std::collections::BTreeSet<usize> = vids
        .iter()
        .map(|&v| pregelix::common::hash_partition(v, 3))
        .collect();
    assert!(partitions.len() > 1, "the range spans partitions: {partitions:?}");
    // Empty: a range between the chains, and one with `hi < lo`.
    assert!(range(8, 99).is_empty());
    assert!(range(5, 4).is_empty());
    assert_eq!(range(0, u64::MAX).len(), 14);
}
