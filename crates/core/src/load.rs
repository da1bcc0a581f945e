//! Graph load from / dump to the (simulated) distributed file system.
//!
//! §5.2: "Pregelix first loads the input graph dataset (the initial
//! `Vertex` relation) from a distributed file system into a Hyracks
//! cluster, partitioning it by vid using a user-defined partitioning
//! function across the worker machines. After the eventual completion of
//! the overall Pregel computation, the partitioned `Vertex` relation is
//! scanned and dumped back to HDFS."
//!
//! The text input format is one vertex per line:
//!
//! ```text
//! <src> <dst1>[:<weight>] <dst2>[:<weight>] ...
//! ```
//!
//! Weights default to `1.0`; `#`-prefixed lines and blank lines are
//! skipped. [`crate::api::VertexProgram::init_vertex`] maps each parsed
//! record to the program's vertex/edge value types (the
//! `VertexInputFormat` role of the Java API, Figure 9).

use crate::api::VertexProgram;
use crate::plan::PregelixJob;
use crate::store::VertexStore;
use crate::superstep::PartitionState;
use crate::vertex::VertexData;
use parking_lot::Mutex;
use pregelix_common::dfs::SimDfs;
use pregelix_common::error::{PregelixError, Result};
use pregelix_common::frame::vid_to_key;
use pregelix_common::{hash_partition, Vid};
use pregelix_dataflow::cluster::{Cluster, Task};
use std::sync::Arc;

/// One adjacency record: a vertex and its weighted out-edges.
pub type Record = (Vid, Vec<(Vid, f64)>);

/// Parse one adjacency line. Returns `None` for blank/comment lines.
pub fn parse_line(line: &str) -> Result<Option<Record>> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut fields = line.split_whitespace();
    let src: Vid = fields
        .next()
        .expect("non-empty line has a first field")
        .parse()
        .map_err(|e| PregelixError::corrupt(format!("bad vid in {line:?}: {e}")))?;
    let mut edges = Vec::new();
    for f in fields {
        let (dst, w) = match f.split_once(':') {
            Some((d, w)) => (
                d.parse::<Vid>()
                    .map_err(|e| PregelixError::corrupt(format!("bad dest {f:?}: {e}")))?,
                w.parse::<f64>()
                    .map_err(|e| PregelixError::corrupt(format!("bad weight {f:?}: {e}")))?,
            ),
            None => (
                f.parse::<Vid>()
                    .map_err(|e| PregelixError::corrupt(format!("bad dest {f:?}: {e}")))?,
                1.0,
            ),
        };
        edges.push((dst, w));
    }
    Ok(Some((src, edges)))
}

/// Read every adjacency record reachable from `path`: a single DFS file or
/// a directory of part files.
fn read_records(dfs: &SimDfs, path: &str) -> Result<Vec<Record>> {
    let files = if dfs.exists(path) {
        vec![path.to_string()]
    } else {
        let parts = dfs.list(path)?;
        if parts.is_empty() {
            return Err(PregelixError::plan(format!("no input at DFS path {path:?}")));
        }
        parts
    };
    let mut records = Vec::new();
    for f in files {
        let bytes = dfs.read(&f)?;
        let text = String::from_utf8(bytes)
            .map_err(|e| PregelixError::corrupt(format!("non-UTF8 input {f:?}: {e}")))?;
        for line in text.lines() {
            if let Some(rec) = parse_line(line)? {
                records.push(rec);
            }
        }
    }
    Ok(records)
}

/// Load a graph: parse, hash-partition by vid, sort each partition, and
/// bulk load one `Vertex` index per partition in parallel on the partition's
/// sticky worker. Returns the partition states, the vertex count and `hi`,
/// one past the largest vid in the input (0 when there is none).
#[allow(clippy::type_complexity)]
pub fn load_partitions<P: VertexProgram>(
    cluster: &Cluster,
    program: &Arc<P>,
    job: &PregelixJob,
    sticky: &[usize],
) -> Result<(Vec<Arc<Mutex<PartitionState>>>, u64, Vid)> {
    let records = read_records(cluster.dfs(), &job.input_path)?;
    load_partitions_from_records(cluster, program, job, sticky, records)
}

/// Load from pre-parsed records (the in-memory path used by tests and
/// benchmark harnesses to skip text parsing).
#[allow(clippy::type_complexity)]
pub fn load_partitions_from_records<P: VertexProgram>(
    cluster: &Cluster,
    program: &Arc<P>,
    job: &PregelixJob,
    sticky: &[usize],
    records: Vec<Record>,
) -> Result<(Vec<Arc<Mutex<PartitionState>>>, u64, Vid)> {
    let p_count = sticky.len();
    let mut buckets: Vec<Vec<VertexData<P>>> = (0..p_count).map(|_| Vec::new()).collect();
    let mut count = 0u64;
    let mut hi: Vid = 0;
    for (vid, edges) in records {
        buckets[hash_partition(vid, p_count)].push(program.init_vertex(vid, edges));
        count += 1;
        hi = hi.max(vid.saturating_add(1));
    }

    let mut slots: Vec<Arc<Mutex<Option<PartitionState>>>> =
        (0..p_count).map(|_| Arc::new(Mutex::new(None))).collect();
    let mut tasks = Vec::with_capacity(p_count);
    for (p, bucket) in buckets.into_iter().enumerate() {
        let slot = Arc::clone(&slots[p]);
        let storage = job.plan.storage;
        tasks.push(Task::new(format!("load[{p}]"), sticky[p], move |w| {
            let mut bucket = bucket;
            bucket.sort_unstable_by_key(|v| v.vid);
            for pair in bucket.windows(2) {
                if pair[0].vid == pair[1].vid {
                    return Err(PregelixError::user(format!(
                        "duplicate vertex {} in input",
                        pair[0].vid
                    )));
                }
            }
            let mut store = VertexStore::create(storage, &w)?;
            store.bulk_load(
                bucket
                    .into_iter()
                    .map(|v| (vid_to_key(v.vid).to_vec(), v.encode_value())),
            )?;
            *slot.lock() = Some(PartitionState {
                store,
                vid_index: None,
                msg_run: None,
            });
            Ok(())
        }));
    }
    cluster.execute(tasks)?;
    let partitions = slots
        .drain(..)
        .map(|s| {
            let st = s.lock().take().expect("load task filled the slot");
            Arc::new(Mutex::new(st))
        })
        .collect();
    Ok((partitions, count, hi))
}

/// Dump the partitioned `Vertex` relation back to the DFS as one part file
/// per partition, formatted by the program's `format_vertex`.
pub fn dump_partitions<P: VertexProgram>(
    cluster: &Cluster,
    program: &Arc<P>,
    job: &PregelixJob,
    partitions: &[Arc<Mutex<PartitionState>>],
    sticky: &[usize],
) -> Result<()> {
    let dfs = cluster.dfs().clone();
    dfs.delete_dir(&job.output_path)?;
    let mut tasks = Vec::with_capacity(partitions.len());
    for (p, state) in partitions.iter().enumerate() {
        let state = Arc::clone(state);
        let program = Arc::clone(program);
        let dfs = dfs.clone();
        let out = format!("{}/part-{p:05}", job.output_path);
        tasks.push(Task::new(format!("dump[{p}]"), sticky[p], move |_w| {
            let st = state.lock();
            let mut text = String::new();
            let mut scan = st.store.scan()?;
            while let Some((key, stored)) = scan.next_entry()? {
                let vid = pregelix_common::frame::tuple_vid(&key)?;
                let v = VertexData::<P>::decode(vid, &stored)?;
                text.push_str(&program.format_vertex(vid, &v.value));
                text.push('\n');
            }
            dfs.write(&out, text.as_bytes())
        }));
    }
    cluster.execute(tasks)?;
    Ok(())
}

/// Read a dumped output directory back as `(vid, line)` pairs, sorted by
/// vid (test/bench convenience).
pub fn read_output(dfs: &SimDfs, output_path: &str) -> Result<Vec<(Vid, String)>> {
    let mut out = Vec::new();
    for part in dfs.list(output_path)? {
        let text = String::from_utf8(dfs.read(&part)?)
            .map_err(|e| PregelixError::corrupt(format!("non-UTF8 output: {e}")))?;
        for line in text.lines() {
            let vid: Vid = line
                .split_whitespace()
                .next()
                .ok_or_else(|| PregelixError::corrupt("empty output line"))?
                .parse()
                .map_err(|e| PregelixError::corrupt(format!("bad output vid: {e}")))?;
            out.push((vid, line.to_string()));
        }
    }
    out.sort_by_key(|(vid, _)| *vid);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_line_variants() {
        assert_eq!(parse_line("").unwrap(), None);
        assert_eq!(parse_line("# comment").unwrap(), None);
        assert_eq!(parse_line("5").unwrap(), Some((5, vec![])));
        assert_eq!(
            parse_line("1 2 3").unwrap(),
            Some((1, vec![(2, 1.0), (3, 1.0)]))
        );
        assert_eq!(
            parse_line("7 8:0.5 9:2.5").unwrap(),
            Some((7, vec![(8, 0.5), (9, 2.5)]))
        );
        assert!(parse_line("x 1").is_err());
        assert!(parse_line("1 y").is_err());
        assert!(parse_line("1 2:z").is_err());
    }
}
