//! Property tests for the sorted-probe access path (§5.2/§7.5): a
//! [`ProbeCursor`] answering a monotonically non-decreasing key sequence
//! must be indistinguishable from repeated point `search`es — and from a
//! `BTreeMap` reference model — across hits, misses in gaps, duplicate
//! probe keys, deleted keys, and probes past the last leaf. The LSM sweep
//! additionally forces multi-component layouts (explicit flush points in
//! the op stream) so the bloom-gated multi-component cursor is exercised
//! with tombstones shadowing older components.
//!
//! The row-cursor sweep drives a random program of moves and writes through
//! `VertexStore::cursor` on both store kinds against the same model: `next`
//! must yield the smallest key after the position in the store *as it is
//! now*, whatever the writes in between did to the tree.
//!
//! The case count honours `PROPTEST_CASES` so CI's storage-proptest job
//! can raise it without a code change.

use pregelix::common::stats::ClusterCounters;
use pregelix::core::store::VertexStore;
use pregelix::storage::btree::BTree;
use pregelix::storage::cache::BufferCache;
use pregelix::storage::file::{FileManager, TempDir};
use pregelix::storage::lsm::LsmBTree;
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

/// One mutation in the randomised workload. `Flush` is meaningful only
/// for the LSM store, where it seals the in-memory component into a new
/// bloom-guarded disk component.
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
    let mut scan = store.scan().unwrap();
    for (key, value) in &model {
        let got = scan.next_entry().unwrap();
        prop_assert_eq!(got, Some((k(*key), value.clone())));
    }
    prop_assert_eq!(scan.next_entry().unwrap(), None);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(), ..ProptestConfig::default() })]

    #[test]
    fn prop_row_cursor_program_matches_model_on_both_stores(
        stride in 1u64..5,
        n in 0u64..120,
        churn in ops(400, 40),
        program in cursor_program(160),
    ) {
        // Rows of 8..=40 bytes (all inline) at `stride`-spaced keys, then a
        // little churn through the by-key API: split history on the B-tree,
        // several components and tombstones on the LSM store.
        let rows: BTreeMap<u64, Vec<u8>> = (0..n)
            .map(|i| (i * stride, filler(i as usize, 8 + (i as usize * 7) % 33)))
            .collect();
        let (cache_b, _dir_b) = cache("cursor-btree");
        let (cache_l, _dir_l) = cache("cursor-lsm");
        let stores = [
            VertexStore::B(BTree::create(cache_b).unwrap()),
            // The smallest memtable and merge threshold the store allows, so
            // programs flush (and merge) under the cursor.
            VertexStore::L(LsmBTree::create(cache_l, 0, 2)),
        ];
        for mut store in stores {
            let mut model = rows.clone();
            store.bulk_load(rows.iter().map(|(key, v)| (k(*key), v.clone()))).unwrap();
            for (i, op) in churn.iter().enumerate() {
                match *op {
                    Op::Upsert(key) => {
                        let v = value_for(key, i as u64);
                        store.upsert(&k(key), &v).unwrap();
                        model.insert(key, v);
                    }
                    Op::Delete(key) => {
                        store.delete(&k(key)).unwrap();
                        model.remove(&key);
                    }
                    Op::Flush => store.flush().unwrap(),
                }
            }
            check_cursor_program(store, model, &program)?;
        }
    }

    #[test]
    fn prop_btree_probe_cursor_matches_search_and_model(
        workload in ops(400, 120),
        probe_keys in probes(400, 150),
    ) {
        let (cache, _dir) = cache("probe-btree");
        let mut tree = BTree::create(cache).unwrap();
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for (i, op) in workload.iter().enumerate() {
            match *op {
                Op::Upsert(key) => {
                    let v = value_for(key, i as u64);
                    tree.upsert(&k(key), &v).unwrap();
                    model.insert(key, v);
                }
                Op::Delete(key) => {
                    tree.delete(&k(key)).unwrap();
                    model.remove(&key);
                }
                Op::Flush => {} // no-op for the plain B-tree
            }
        }
        let mut cursor = tree.probe_cursor();
        for &key in &probe_keys {
            let got = cursor.probe(&k(key)).unwrap();
            prop_assert_eq!(&got, &tree.search(&k(key)).unwrap(), "key {}", key);
            prop_assert_eq!(got, model.get(&key).cloned(), "key {}", key);
        }
        // Membership path on a fresh cursor (its pinned leaf starts cold).
        let mut cursor = tree.probe_cursor();
        for &key in &probe_keys {
            prop_assert_eq!(
                cursor.probe_contains(&k(key)).unwrap(),
                model.contains_key(&key),
                "contains key {}", key
            );
        }
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
        let mut tree = BTree::create(cache).unwrap();
        let model: BTreeMap<u64, Vec<u8>> =
            (0..n).map(|i| (i * stride, value_for(i * stride, 0))).collect();
        tree.bulk_load(model.iter().map(|(key, v)| (k(*key), v.clone())), 0.9)
            .unwrap();
        let mut cursor = tree.probe_cursor();
        for &key in &probe_keys {
            prop_assert_eq!(
                cursor.probe(&k(key)).unwrap(),
                model.get(&key).cloned(),
                "stride {} key {}", stride, key
            );
        }
    }

    #[test]
    fn prop_lsm_probe_cursor_matches_search_and_model(
        workload in ops(400, 160),
        probe_keys in probes(400, 150),
    ) {
        let (cache, _dir) = cache("probe-lsm");
        // Tiny mem budget: upserts spill into disk components on their own
        // even without explicit Flush ops, so multi-component layouts (and
        // tombstones shadowing older components) are the common case.
        let mut lsm = LsmBTree::create(cache, 512, 16);
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for (i, op) in workload.iter().enumerate() {
            match *op {
                Op::Upsert(key) => {
                    let v = value_for(key, i as u64);
                    lsm.upsert(&k(key), &v).unwrap();
                    model.insert(key, v);
                }
                Op::Delete(key) => {
                    lsm.delete(&k(key)).unwrap();
                    model.remove(&key);
                }
                Op::Flush => lsm.flush_mem().unwrap(),
            }
        }
        let mut cursor = lsm.probe_cursor();
        for &key in &probe_keys {
            let got = cursor.probe(&k(key)).unwrap();
            prop_assert_eq!(&got, &lsm.search(&k(key)).unwrap(), "key {}", key);
            prop_assert_eq!(got, model.get(&key).cloned(), "key {}", key);
        }
        let mut cursor = lsm.probe_cursor();
        for &key in &probe_keys {
            prop_assert_eq!(
                cursor.probe_contains(&k(key)).unwrap(),
                model.contains_key(&key),
                "contains key {}", key
            );
        }
    }

    #[test]
    fn prop_lsm_merge_preserves_probe_answers(
        workload in ops(300, 120),
        probe_keys in probes(300, 100),
    ) {
        // merge_all rebuilds every bloom filter and collapses tombstones;
        // probe answers before and after must agree with the model.
        let (cache, _dir) = cache("probe-merge");
        let mut lsm = LsmBTree::create(cache, 512, 16);
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for (i, op) in workload.iter().enumerate() {
            match *op {
                Op::Upsert(key) => {
                    let v = value_for(key, i as u64);
                    lsm.upsert(&k(key), &v).unwrap();
                    model.insert(key, v);
                }
                Op::Delete(key) => {
                    lsm.delete(&k(key)).unwrap();
                    model.remove(&key);
                }
                Op::Flush => lsm.flush_mem().unwrap(),
            }
        }
        lsm.merge_all().unwrap();
        let mut cursor = lsm.probe_cursor();
        for &key in &probe_keys {
            prop_assert_eq!(
                cursor.probe(&k(key)).unwrap(),
                model.get(&key).cloned(),
                "key {}", key
            );
        }
    }
}
