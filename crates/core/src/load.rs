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
//! Fields are separated by ASCII whitespace. Weights default to `1.0`;
//! `#`-prefixed lines and blank lines are skipped.
//! [`crate::api::VertexProgram::init_vertex`] maps each parsed record to the
//! program's vertex/edge value types (the `VertexInputFormat` role of the
//! Java API, Figure 9).
//!
//! The load is a dataflow of two nodes over one pipelined edge, labelled
//! `"load"`. **`scan[i]`** (on partition `i`'s sticky worker) parses one
//! line-aligned split of the input straight into keyed vertex tuples,
//! `vid key | halt | value | edges`, and hash-partitions them by vid.
//! **`load[p]`** drains its streams, sorts the tuples by vid where they
//! lie in the frames, and bulk-loads the partition's `Vertex` index. The
//! calling thread parses nothing; in-memory records take the same nodes.

use crate::api::VertexProgram;
use crate::plan::{PregelixJob, VertexStorageKind};
use crate::store::VertexStore;
use crate::superstep::{drain_streams, PartitionState};
use crate::vertex::{decode_into, encode_edges, encode_head};
use parking_lot::Mutex;
use pregelix_common::bytes::BytesSlab;
use pregelix_common::dfs::SimDfs;
use pregelix_common::error::{PregelixError, Result};
use pregelix_common::frame::{key_prefix, vid_to_key, SharedFrame};
use pregelix_common::Vid;
use pregelix_dataflow::cluster::{Cluster, Task, WorkerHandle};
use pregelix_dataflow::connector::{partition_channels_cap, PartitioningSender};
use std::ops::Range;
use std::sync::Arc;

/// One adjacency record: a vertex and its weighted out-edges.
pub type Record = (Vid, Vec<(Vid, f64)>);

/// A byte range of one input file.
type Piece = (String, Range<u64>);

/// What one `scan[i]` reads.
enum Split {
    /// Line-aligned byte ranges of the input text, in input order.
    Text(Vec<Piece>),
    /// In-memory records.
    Records(Vec<Record>),
}

/// Cut the input at `path` — a single DFS file or a directory of part
/// files — into `n` splits of about equal bytes, each a run of pieces in
/// input order.
fn text_splits(dfs: &SimDfs, path: &str, n: usize) -> Result<Vec<Split>> {
    let files = if dfs.exists(path) {
        vec![path.to_string()]
    } else {
        let parts = dfs.list(path)?;
        if parts.is_empty() {
            return Err(PregelixError::plan(format!("no input at DFS path {path:?}")));
        }
        parts
    };
    let mut sized = Vec::with_capacity(files.len());
    for file in files {
        sized.push((dfs.size(&file)?, file));
    }
    let total: u64 = sized.iter().map(|(len, _)| len).sum();
    let bound = |i: usize| (total as u128 * i as u128 / n as u128) as u64;
    let split = |i| {
        let (lo, hi, mut at) = (bound(i), bound(i + 1), 0);
        let mut pieces = Vec::new();
        for (len, file) in &sized {
            let range = lo.max(at) - at..hi.min(at + len).saturating_sub(at);
            if !range.is_empty() {
                pieces.push((file.clone(), range));
            }
            at += len;
        }
        Split::Text(pieces)
    };
    Ok((0..n).map(split).collect())
}

/// The lines that start in a piece's range, whole: Hadoop's
/// `TextInputFormat` rule. A split that does not start its file skips
/// through the first line end at or after the byte before its range (that
/// line belongs to the split before), and reads on past its range to
/// finish its last line, so a line straddling two splits is read once.
fn read_lines(dfs: &SimDfs, (file, range): &Piece) -> Result<Vec<u8>> {
    let Range { start, end } = *range;
    let from = start.saturating_sub(1);
    let mut buf = dfs.read_range(file, from..end)?;
    let first = if start == 0 {
        0
    } else {
        match buf.iter().position(|&b| b == b'\n') {
            Some(i) if from + (i as u64) + 1 < end => i + 1,
            // No line starts in the range.
            _ => return Ok(Vec::new()),
        }
    };
    let (mut at, mut chunk) = (end, 4096);
    while buf.last() != Some(&b'\n') {
        let more = dfs.read_range(file, at..at + chunk)?;
        if more.is_empty() {
            break; // the end of the file
        }
        let take = more.iter().position(|&b| b == b'\n').map_or(more.len(), |i| i + 1);
        buf.extend_from_slice(&more[..take]);
        at += more.len() as u64;
        chunk *= 2;
    }
    buf.drain(..first);
    Ok(buf)
}

/// The digits of `b` from `*at` on, with `*at` left past them: their value
/// when there are 1 to 15 of them — below 10^15, so exact as an `f64` too —
/// or `None`.
fn digits_at(b: &[u8], at: &mut usize) -> Option<u64> {
    let start = *at;
    let mut v = 0u64;
    while let Some(d) = b.get(*at).map(|c| c.wrapping_sub(b'0')).filter(|&d| d <= 9) {
        v = v.wrapping_mul(10).wrapping_add(u64::from(d));
        *at += 1;
    }
    (1..=15).contains(&(*at - start)).then_some(v)
}

/// The next field of `line` from `*at` on, with `*at` left past it: a vid,
/// or for an edge `dst[:weight]` (weight 1.0 without). Fields are separated
/// by ASCII whitespace. Digits take the fast path; any other field goes
/// whole through `str::parse`.
fn field(line: &str, at: &mut usize, edge: bool) -> Result<(Vid, f64)> {
    let b = line.as_bytes();
    let ends = |at: usize| b.get(at).is_none_or(u8::is_ascii_whitespace);
    while b.get(*at).is_some_and(u8::is_ascii_whitespace) {
        *at += 1;
    }
    let start = *at;
    let dst = digits_at(b, at);
    let w = match b.get(*at) {
        Some(b':') if edge => {
            *at += 1;
            digits_at(b, at).map(|w| w as f64)
        }
        _ => Some(1.0),
    };
    if let (Some(dst), Some(w), true) = (dst, w, ends(*at)) {
        return Ok((dst, w));
    }
    while !ends(*at) {
        *at += 1;
    }
    // Cut at ASCII whitespace or the line's ends: a slice of the text.
    let f = &line[start..*at];
    let bad = |what, e: &dyn std::fmt::Display| {
        PregelixError::corrupt(format!("bad {what} {f:?} in {line:?}: {e}"))
    };
    let (dst, w) = match f.split_once(':') {
        Some((dst, w)) if edge => (dst, Some(w)),
        _ => (f, None),
    };
    let dst = dst.parse().map_err(|e| bad(if edge { "dest" } else { "vid" }, &e))?;
    let w = w.map_or(Ok(1.0), str::parse).map_err(|e| bad("weight", &e))?;
    Ok((dst, w))
}

/// Parse whole adjacency lines, handing each vertex to `each` with its
/// edges in a buffer reused from line to line.
fn parse_lines(
    text: &[u8],
    edges: &mut Vec<(Vid, f64)>,
    mut each: impl FnMut(Vid, &[(Vid, f64)]) -> Result<()>,
) -> Result<()> {
    let text = std::str::from_utf8(text)
        .map_err(|e| PregelixError::corrupt(format!("non-UTF8 input: {e}")))?;
    for line in text.split('\n').map(str::trim_ascii) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut at = 0;
        let (src, _) = field(line, &mut at, false)?;
        edges.clear();
        while at < line.len() {
            edges.push(field(line, &mut at, true)?);
        }
        each(src, edges)?;
    }
    Ok(())
}

/// A loaded partition, its vertex count and one past its largest vid.
type Loaded = (PartitionState, u64, Vid);

/// Load a graph — the job's input text, or `records` when given (the
/// in-memory path tests and harnesses take to skip text) — through the
/// load plan: `scan[i]` reads split `i` and feeds every `load[p]` over one
/// pipelined edge labelled `"load"`, both nodes on the partition's sticky
/// worker. Records are cut in order into one split per partition. Returns
/// the partition states, the vertex count and `hi`, one past the largest
/// vid loaded (0 when there is none).
#[allow(clippy::type_complexity)]
pub fn load_partitions<P: VertexProgram>(
    cluster: &Cluster,
    program: &Arc<P>,
    job: &PregelixJob,
    sticky: &[usize],
    records: Option<Vec<Record>>,
) -> Result<(Vec<Arc<Mutex<PartitionState>>>, u64, Vid)> {
    let p_count = sticky.len();
    let splits = match records {
        None => text_splits(cluster.dfs(), &job.input_path, p_count)?,
        Some(records) => {
            let per = records.len().div_ceil(p_count.max(1));
            let mut records = records.into_iter();
            let mut split = || Split::Records(records.by_ref().take(per).collect());
            (0..p_count).map(|_| split()).collect()
        }
    };
    let (txs, rxs) = partition_channels_cap(p_count, p_count, cluster.channel_capacity());
    // `load[p]` holds every frame of the edge until its bulk load, so none
    // could be recycled: the frames take exact-size buffers of a slab of
    // their own, and the cluster slab's stock stays a function of the
    // supersteps alone.
    let slab = BytesSlab::with_counters(0, cluster.counters().clone());
    let slots: Vec<Arc<Mutex<Option<Loaded>>>> =
        (0..p_count).map(|_| Arc::new(Mutex::new(None))).collect();
    // Senders before receivers: sequential-timed mode runs the tasks one at
    // a time in this order, so no receiver starts on an open stream.
    let mut tasks = Vec::with_capacity(2 * p_count);
    for (i, (split, out)) in splits.into_iter().zip(txs).enumerate() {
        let (program, dfs) = (Arc::clone(program), cluster.dfs().clone());
        let (receivers, slab) = (sticky.to_vec(), slab.clone());
        tasks.push(Task::new(format!("scan[{i}]"), sticky[i], move |w| {
            let counters = w.counters().clone();
            let sender =
                PartitioningSender::new(out, w.frame_bytes(), slab, w.id(), receivers, counters);
            scan_task(&w, &*program, &dfs, split, sender.with_label("load"))
        }));
    }
    for (p, ins) in rxs.into_iter().enumerate() {
        let slot = Arc::clone(&slots[p]);
        tasks.push(Task::new(format!("load[{p}]"), sticky[p], move |w| {
            let queues = drain_streams(&w, ins)?;
            *slot.lock() = Some(load_task(&w, &queues)?);
            Ok(())
        }));
    }
    cluster.execute(tasks)?;
    let (mut count, mut hi) = (0, 0);
    let partitions = slots
        .iter()
        .map(|slot| {
            let (st, n, top) = slot.lock().take().expect("load task filled the slot");
            count += n;
            hi = hi.max(top);
            Arc::new(Mutex::new(st))
        })
        .collect();
    Ok((partitions, count, hi))
}

/// `scan[i]`: each vertex of the split goes through `init_vertex` and the
/// row codec into one reused tuple buffer, `vid key | halt | value |
/// edges`, and on to its partition.
fn scan_task<P: VertexProgram>(
    w: &WorkerHandle,
    program: &P,
    dfs: &SimDfs,
    split: Split,
    mut sender: PartitioningSender,
) -> Result<()> {
    let mut tuple = Vec::new();
    let mut send = |vid, edges| {
        let v = program.init_vertex(vid, edges);
        tuple.clear();
        tuple.extend_from_slice(&vid_to_key(v.vid));
        encode_head::<P>(v.halt, &v.value, &mut tuple);
        encode_edges(&v.edges, &mut tuple);
        sender.send(&tuple)
    };
    match split {
        Split::Text(pieces) => {
            let mut edges = Vec::new();
            for piece in &pieces {
                w.check_alive()?;
                let text = read_lines(dfs, piece)?;
                parse_lines(&text, &mut edges, |vid, edges| send(vid, edges.to_vec()))?;
            }
        }
        Split::Records(records) => {
            for (vid, edges) in records {
                send(vid, edges)?;
            }
        }
    }
    sender.finish()
}

/// `load[p]`: sort the drained tuples by vid where they lie in the frames
/// and bulk-load them. The sort is stable and each source's tuples come
/// in the order its split held them, so vid-ordered input is one ascending
/// run per source and the sort merges runs. Equal adjacent vids are a
/// duplicate vertex.
fn load_task(w: &WorkerHandle, queues: &[Vec<SharedFrame>]) -> Result<Loaded> {
    // Every tuple was keyed by its sender, so each is a vid key long at least.
    let mut rows: Vec<&[u8]> = queues.iter().flatten().flat_map(SharedFrame::iter).collect();
    rows.sort_by_key(|t| key_prefix(t));
    if let Some(pair) = rows.windows(2).find(|p| key_prefix(p[0]) == key_prefix(p[1])) {
        return Err(PregelixError::user(format!(
            "duplicate vertex {} in input",
            key_prefix(pair[0])
        )));
    }
    let mut store = VertexStore::create(VertexStorageKind::BTree, w)?;
    store.bulk_load(rows.iter().map(|t| t.split_at(8)))?;
    let hi = rows.last().map_or(0, |t| key_prefix(t).saturating_add(1));
    let st = PartitionState {
        store,
        vid_index: None,
        msg_run: None,
    };
    Ok((st, rows.len() as u64, hi))
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
            let mut st = state.lock();
            let mut text = String::new();
            let mut edges = Vec::new();
            let mut cur = st.store.cursor();
            while cur.next()? {
                let vid = pregelix_common::frame::tuple_vid(cur.key())?;
                let (_, value, _) = decode_into::<P>(cur.value(), &mut edges)?;
                text.push_str(&program.format_vertex(vid, &value));
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
    use pregelix_dataflow::cluster::ClusterConfig;

    /// Every vertex `text` parses to, or the first error.
    fn parse(text: &str) -> Result<Vec<Record>> {
        let mut out = Vec::new();
        parse_lines(text.as_bytes(), &mut Vec::new(), |vid, edges| {
            out.push((vid, edges.to_vec()));
            Ok(())
        })?;
        Ok(out)
    }

    #[test]
    fn parse_line_variants() {
        assert_eq!(parse("").unwrap(), vec![]);
        assert_eq!(parse("# comment").unwrap(), vec![]);
        assert_eq!(parse("  \t# indented comment\r").unwrap(), vec![]);
        assert_eq!(parse("5").unwrap(), vec![(5, vec![])]);
        assert_eq!(parse("1 2 3").unwrap(), vec![(1, vec![(2, 1.0), (3, 1.0)])]);
        assert_eq!(
            parse("7 8:0.5 9:2.5").unwrap(),
            vec![(7, vec![(8, 0.5), (9, 2.5)])]
        );
        assert_eq!(
            parse("+4\t+5:1e3 6:+7\r\n\n8").unwrap(),
            vec![(4, vec![(5, 1000.0), (6, 7.0)]), (8, vec![])]
        );
        let bad = ["x 1", "1 y", "1 2:z", "1 2:", "1 :2", "1 2:3:4", "1 -2", "x:1 2"];
        // Unicode spaces other than ASCII whitespace do not separate fields.
        for bad in bad.into_iter().chain(["1\u{a0}2", "1\x0b2", "1\u{3000}2"]) {
            let err = parse(bad).unwrap_err();
            assert!(matches!(err, PregelixError::Corrupt(_)), "{bad:?}: {err}");
        }
        let non_utf8 = parse_lines(b"1 \xff", &mut Vec::new(), |_, _| Ok(()));
        assert!(matches!(non_utf8, Err(PregelixError::Corrupt(_))));
    }

    #[test]
    fn the_digit_fast_path_agrees_with_str_parse() {
        for token in ["0", "7", "007", "999999999999999", "123456789012345"] {
            let mut at = 0;
            let v = digits_at(token.as_bytes(), &mut at).expect("1 to 15 digits");
            assert_eq!(at, token.len());
            assert_eq!(v, token.parse::<u64>().unwrap());
            assert_eq!((v as f64).to_bits(), token.parse::<f64>().unwrap().to_bits());
        }
        for token in ["", "+5", "-0", "1234567890123456", "99999999999999999999999"] {
            assert_eq!(digits_at(token.as_bytes(), &mut 0), None, "{token:?}");
        }
        // Off the fast path, a field goes whole through `str::parse`.
        for f in ["1234567890123456:2", "3:1234567890123456", "+3:0.5", "3:1e3", "3:+7"] {
            let (d, w) = f.split_once(':').unwrap();
            let want = (d.parse::<u64>().unwrap(), w.parse::<f64>().unwrap());
            assert_eq!(field(f, &mut 0, true).unwrap(), want, "{f:?}");
        }
    }

    #[test]
    fn every_line_is_read_by_exactly_one_split() {
        let cluster = Cluster::new(ClusterConfig::new(1, 1 << 20)).unwrap();
        let dfs = cluster.dfs();
        // Longer than the first read past a split's end.
        let long = format!("9 {}", "1 ".repeat(5000));
        let parts = ["1 2\r\n\n# c\n333 4:0.5\r\n5", "", &format!("6\n{long}\n7 8\n")];
        for (i, part) in parts.iter().enumerate() {
            dfs.write(&format!("in/part-{i}"), part.as_bytes()).unwrap();
        }
        let whole: String = parts.concat();
        // Splits of a few bytes, a split ending inside the long line, and
        // more splits than bytes.
        for n in (1..=40).chain([whole.len(), whole.len() + 3]) {
            let mut read = Vec::new();
            for split in text_splits(dfs, "in", n).unwrap() {
                let Split::Text(pieces) = split else { unreachable!() };
                for piece in &pieces {
                    read.extend(read_lines(dfs, piece).unwrap());
                }
            }
            assert_eq!(String::from_utf8(read).unwrap(), whole, "{n} splits");
        }
    }
}
