//! The shared process-centric BSP executor behind the Giraph-like,
//! Hama-like and GraphX-like engines.
//!
//! One `WorkerState` per simulated machine holds the partition as an
//! object graph (a `HashMap` of vertex records — deliberately *not* the
//! frame/index representation Pregelix uses). Every allocation that would
//! live on a JVM worker heap is charged against the worker's
//! [`MemoryAccountant`]; exhausting it aborts the job with `OutOfMemory`,
//! which is how the baselines reproduce their Figure 10 failure points.
//!
//! **Timing model**: workers execute sequentially on the calling thread,
//! each worker's compute slice is measured without contention, and the
//! superstep is charged the *makespan* (the slowest worker) plus an
//! idealised parallel share of the delivery phase. `BaselineRun.elapsed`
//! is therefore the job's duration on truly parallel machines — directly
//! comparable to the Pregelix cluster's sequential-timed mode and immune
//! to the benchmark host's core count.

use crate::common::{heap_model, Algorithm, BaselineConfig, BaselineRun};
use pregelix_common::error::{PregelixError, Result};
use pregelix_common::memory::MemoryAccountant;
use pregelix_common::writable::Writable;
use pregelix_common::{hash_partition, Vid};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

/// One worker's outgoing messages of a superstep, one batch per
/// destination worker.
type Outbox = Vec<Vec<(Vid, f64)>>;

/// Architectural knobs distinguishing the engines.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BspProfile {
    /// Vertices live in an on-disk partition file, round-tripped every
    /// superstep (Giraph-ooc, Hama) instead of on the heap (Giraph-mem,
    /// GraphX).
    pub vertices_on_disk: bool,
    /// Apply the algorithm's combiner at the sender before "network"
    /// transfer (everything but Hama).
    pub combine_at_sender: bool,
    /// Immutable-collection churn (GraphX): every superstep materialises a
    /// fresh vertex collection and a triplet view, charged transiently on
    /// top of the base collection.
    pub immutable_churn: bool,
}

struct VertexRec {
    value: f64,
    halted: bool,
    edges: Vec<(Vid, f64)>,
}

impl VertexRec {
    fn write(&self, vid: Vid, out: &mut Vec<u8>) {
        vid.write(out);
        self.value.write(out);
        self.halted.write(out);
        (self.edges.len() as u32).write(out);
        for (d, w) in &self.edges {
            d.write(out);
            w.write(out);
        }
    }

    fn read(buf: &mut &[u8]) -> Result<(Vid, VertexRec)> {
        let vid = Vid::read(buf)?;
        let value = f64::read(buf)?;
        let halted = bool::read(buf)?;
        let n = u32::read(buf)? as usize;
        let mut edges = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            edges.push((Vid::read(buf)?, f64::read(buf)?));
        }
        Ok((
            vid,
            VertexRec {
                value,
                halted,
                edges,
            },
        ))
    }
}

struct WorkerState {
    heap: MemoryAccountant,
    /// Heap-resident partition (empty between supersteps in disk mode).
    vertices: HashMap<Vid, VertexRec>,
    /// Bytes charged for the resident partition.
    vertex_heap_bytes: usize,
    /// Partition file (disk modes).
    spill_path: Option<PathBuf>,
    /// Combined inbox for the next superstep.
    inbox: HashMap<Vid, Vec<f64>>,
    inbox_bytes: usize,
}

impl WorkerState {
    fn spill(&mut self) -> Result<()> {
        let path = self.spill_path.as_ref().expect("disk mode");
        let mut bytes = Vec::new();
        (self.vertices.len() as u64).write(&mut bytes);
        for (vid, rec) in &self.vertices {
            rec.write(*vid, &mut bytes);
        }
        std::fs::write(path, &bytes)?;
        self.vertices.clear();
        self.heap.release(self.vertex_heap_bytes);
        self.vertex_heap_bytes = 0;
        Ok(())
    }

    fn unspill(&mut self) -> Result<()> {
        let path = self.spill_path.as_ref().expect("disk mode");
        let bytes = std::fs::read(path)?;
        let mut buf = &bytes[..];
        let n = u64::read(&mut buf)?;
        let mut heap_bytes = 0usize;
        for _ in 0..n {
            let (vid, rec) = VertexRec::read(&mut buf)?;
            heap_bytes += heap_model::vertex_bytes(rec.edges.len());
            self.vertices.insert(vid, rec);
        }
        // Even the "out-of-core" engines must hold the working partition
        // on the heap while computing it — the ad-hoc design the paper
        // critiques (§2.3): it pages the *whole* partition, not pieces.
        self.heap.try_reserve(heap_bytes)?;
        self.vertex_heap_bytes = heap_bytes;
        Ok(())
    }
}

pub(crate) fn run_bsp(
    engine: &'static str,
    records: &[(Vid, Vec<(Vid, f64)>)],
    alg: Algorithm,
    config: BaselineConfig,
    profile: BspProfile,
) -> Result<BaselineRun> {
    let w = config.workers.max(1);
    let n = records.len() as u64;
    let tmp = tempdir(engine)?;
    let mut workers: Vec<WorkerState> = (0..w)
        .map(|i| WorkerState {
            heap: MemoryAccountant::new(format!("{engine} worker-{i} heap"), config.worker_ram),
            vertices: HashMap::new(),
            vertex_heap_bytes: 0,
            spill_path: profile
                .vertices_on_disk
                .then(|| tmp.join(format!("part-{i}.bin"))),
            inbox: HashMap::new(),
            inbox_bytes: 0,
        })
        .collect();

    // Load: build vertex objects on the owning worker's heap.
    for (vid, edges) in records {
        let ws = &mut workers[hash_partition(*vid, w)];
        let bytes = heap_model::vertex_bytes(edges.len());
        ws.heap.try_reserve(bytes)?;
        ws.vertex_heap_bytes += bytes;
        ws.vertices.insert(
            *vid,
            VertexRec {
                value: alg.initial_value(*vid, n),
                halted: false,
                edges: edges.clone(),
            },
        );
    }
    if profile.vertices_on_disk {
        for ws in &mut workers {
            ws.spill()?;
        }
    }

    let mut simulated = std::time::Duration::ZERO;
    let mut superstep = 1u64;
    loop {
        // GraphX-style immutable churn: a fresh vertex collection plus a
        // triplet view are materialised alongside the current one.
        let mut churn_guards = Vec::new();
        if profile.immutable_churn {
            for ws in &workers {
                let triplets: usize = ws.vertices.values().map(|v| v.edges.len() * 56).sum();
                churn_guards.push(ws.heap.reserve_guard(ws.vertex_heap_bytes + triplets)?);
            }
        }

        // Compute phase: workers sequential, individually timed. Disk-mode
        // engines pay their whole-partition unspill/spill round-trip inside
        // the timed slice — that thrash is Giraph-ooc's defining cost.
        let mut outboxes: Vec<Outbox> = Vec::with_capacity(w);
        let mut any_live = false;
        let mut errors: Vec<PregelixError> = Vec::new();
        let mut slice_max = std::time::Duration::ZERO;
        {
            let results: Vec<Result<(Outbox, bool)>> = workers
                .iter_mut()
                .map(|ws| {
                    let t0 = Instant::now();
                    let r = (|| -> Result<(Outbox, bool)> {
                            if profile.vertices_on_disk {
                                ws.unspill()?;
                            }
                            let inbox = std::mem::take(&mut ws.inbox);
                            // Combining engines (Giraph, GraphLab-ish,
                            // GraphX) fold messages into per-destination
                            // slots *as they are produced*, so the heap
                            // holds one message object per distinct
                            // destination. Hama buffers every raw message.
                            let mut out_maps: Vec<HashMap<Vid, f64>> =
                                vec![HashMap::new(); if profile.combine_at_sender { w } else { 0 }];
                            let mut out_raw: Outbox = vec![Vec::new(); w];
                            let mut live = false;
                            let empty: Vec<f64> = Vec::new();
                            let vids: Vec<Vid> = ws.vertices.keys().copied().collect();
                            for vid in vids {
                                let msgs = inbox.get(&vid).unwrap_or(&empty);
                                let rec = ws.vertices.get(&vid).expect("own vertex");
                                let active =
                                    superstep == 1 || !rec.halted || !msgs.is_empty();
                                if !active {
                                    continue;
                                }
                                let (value, sends, halt) = alg.compute(
                                    vid,
                                    rec.value,
                                    msgs,
                                    superstep,
                                    &rec.edges,
                                    n,
                                );
                                for (d, m) in sends {
                                    let part = hash_partition(d, w);
                                    if profile.combine_at_sender {
                                        match out_maps[part].entry(d) {
                                            std::collections::hash_map::Entry::Occupied(
                                                mut e,
                                            ) => {
                                                let prev = *e.get();
                                                e.insert(alg.combine(prev, m));
                                            }
                                            std::collections::hash_map::Entry::Vacant(e) => {
                                                ws.heap
                                                    .try_reserve(heap_model::MESSAGE_BYTES)?;
                                                e.insert(m);
                                            }
                                        }
                                    } else {
                                        ws.heap.try_reserve(heap_model::MESSAGE_BYTES)?;
                                        out_raw[part].push((d, m));
                                    }
                                }
                                let rec = ws.vertices.get_mut(&vid).expect("own vertex");
                                rec.value = value;
                                rec.halted = halt;
                                if !halt {
                                    live = true;
                                }
                            }
                            // Release the inbox the moment compute is done.
                            ws.heap.release(ws.inbox_bytes);
                            ws.inbox_bytes = 0;
                            let out: Outbox = if profile.combine_at_sender {
                                out_maps
                                    .into_iter()
                                    .map(|m| {
                                        let mut v: Vec<(Vid, f64)> = m.into_iter().collect();
                                        v.sort_unstable_by_key(|(d, _)| *d);
                                        v
                                    })
                                    .collect()
                            } else {
                                out_raw
                            };
                            if profile.vertices_on_disk {
                                ws.spill()?;
                            }
                            Ok((out, live))
                    })();
                    slice_max = slice_max.max(t0.elapsed());
                    r
                })
                .collect();
            for r in results {
                match r {
                    Ok((out, live)) => {
                        any_live |= live;
                        outboxes.push(out);
                    }
                    Err(e) => errors.push(e),
                }
            }
        }
        if let Some(e) = errors.into_iter().next() {
            return Err(e);
        }

        drop(churn_guards);

        // Delivery phase: move message objects to the receivers' heaps.
        let delivery_t0 = Instant::now();
        let mut any_msgs = false;
        for (sender, out) in outboxes.into_iter().enumerate() {
            for (recv, bucket) in out.into_iter().enumerate() {
                let bytes = bucket.len() * heap_model::MESSAGE_BYTES;
                workers[sender].heap.release(bytes);
                if bucket.is_empty() {
                    continue;
                }
                any_msgs = true;
                let ws = &mut workers[recv];
                ws.heap.try_reserve(bytes)?;
                ws.inbox_bytes += bytes;
                for (vid, m) in bucket {
                    let entry = ws.inbox.entry(vid).or_default();
                    if profile.combine_at_sender && !entry.is_empty() {
                        // Receiver-side combine keeps one slot per vertex.
                        let prev = entry[0];
                        entry[0] = alg.combine(prev, m);
                        ws.heap.release(heap_model::MESSAGE_BYTES);
                        ws.inbox_bytes -= heap_model::MESSAGE_BYTES;
                    } else {
                        entry.push(m);
                    }
                }
            }
        }

        // Makespan accounting: slowest worker + an idealised parallel
        // share of delivery.
        simulated += slice_max + delivery_t0.elapsed() / w as u32;
        if !any_live && !any_msgs {
            break;
        }
        superstep += 1;
        if superstep > 10_000 {
            return Err(PregelixError::internal("BSP runaway: no convergence"));
        }
    }
    let elapsed = simulated;

    // Collect results.
    if profile.vertices_on_disk {
        for ws in &mut workers {
            ws.unspill()?;
        }
    }
    let mut values: Vec<(Vid, f64)> = workers
        .iter()
        .flat_map(|ws| ws.vertices.iter().map(|(v, r)| (*v, r.value)))
        .collect();
    values.sort_unstable_by_key(|(v, _)| *v);
    let _ = std::fs::remove_dir_all(&tmp);
    Ok(BaselineRun {
        supersteps: superstep,
        elapsed,
        values,
    })
}


fn tempdir(label: &str) -> Result<PathBuf> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let p = std::env::temp_dir().join(format!(
        "pregelix-baseline-{label}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&p)?;
    Ok(p)
}
