//! The text loader is a dataflow: `scan[i]` parses one line-aligned split of
//! the input into keyed vertex tuples, `load[p]` sorts and bulk-loads what
//! its partition receives. Whatever the input's order, layout or split
//! count, it loads the store the in-memory records load — row for row, bit
//! for bit — and a job over it computes the same values. Bad input fails
//! with a typed error, and bounded channels cannot deadlock the load.

use pregelix::common::dfs::SimDfs;
use pregelix::common::error::PregelixError;
use pregelix::graphgen::{btc, road, text};
use pregelix::prelude::*;
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

type Record = (Vid, Vec<(Vid, f64)>);

/// Every vertex of `g`, ascending, as its stored row.
fn rows(g: &LoadedGraph) -> Vec<(Vid, Vec<u8>)> {
    let vertices = g.collect_vertices::<ShortestPaths>().unwrap();
    vertices.iter().map(|v| (v.vid, v.encode_value())).collect()
}

/// Load the text `write` puts at the job's input path and, beside it,
/// `records` through the in-memory path; the two must hold the same rows
/// before and after SSSP from vertex 0.
fn text_loads_its_records(
    config: ClusterConfig,
    partitions_per_worker: usize,
    write: impl Fn(&SimDfs, &str),
    records: &[Record],
) {
    let cluster = Cluster::new(config).unwrap();
    write(cluster.dfs(), "input/g");
    let job = |name: &str| {
        PregelixJob::new(name)
            .with_io("input/g", format!("output/{name}"))
            .with_partitions_per_worker(partitions_per_worker)
    };
    let (text_job, records_job) = (job("lt-text"), job("lt-records"));
    let program = Arc::new(ShortestPaths::new(0));
    let mut from_text = LoadedGraph::load(&cluster, &program, &text_job).unwrap();
    let mut from_records =
        LoadedGraph::load_from_records(&cluster, &program, &records_job, records.to_vec())
            .unwrap();
    assert_eq!(from_text.vertex_count(), records.len() as u64);
    assert_eq!(from_records.vertex_count(), records.len() as u64);
    assert_eq!(rows(&from_text), rows(&from_records), "loaded rows");
    for &(vid, _) in records.iter().take(8) {
        assert!(from_text.probe_vertex::<ShortestPaths>(vid).unwrap().is_some());
    }
    from_text.run(&cluster, &program, &text_job).unwrap();
    from_records.run(&cluster, &program, &records_job).unwrap();
    assert_eq!(rows(&from_text), rows(&from_records), "values");
}

fn write_text(records: &[Record]) -> impl Fn(&SimDfs, &str) + '_ {
    move |dfs, path| text::write_to_dfs(dfs, path, records).unwrap()
}

#[test]
fn vid_ordered_text_loads_what_its_records_load() {
    let records = road::grid(24, 5);
    text_loads_its_records(ClusterConfig::new(3, 16 << 20), 2, write_text(&records), &records);
}

#[test]
fn shuffled_text_loads_what_its_records_load() {
    let mut records = btc::btc(1_500, 4.0, 31);
    records.shuffle(&mut StdRng::seed_from_u64(7));
    text_loads_its_records(ClusterConfig::new(2, 16 << 20), 2, write_text(&records), &records);
}

#[test]
fn a_directory_of_part_files_loads_as_one_input() {
    let records = road::grid(20, 9);
    let write = |dfs: &SimDfs, dir: &str| {
        for (i, part) in records.chunks(records.len() / 3 + 1).enumerate() {
            text::write_to_dfs(dfs, &format!("{dir}/part-{i:05}"), part).unwrap();
        }
        dfs.write(&format!("{dir}/part-99999"), b"").unwrap();
    };
    text_loads_its_records(ClusterConfig::new(3, 16 << 20), 1, write, &records);
}

#[test]
fn a_tiny_file_cut_into_more_splits_than_lines() {
    let records = vec![(0, vec![(1, 2.0)]), (1, vec![(0, 1.0)])];
    let config = ClusterConfig::new(4, 16 << 20);
    text_loads_its_records(config, 2, write_text(&records), &records);
}

#[test]
fn crlf_comments_blank_lines_and_plus_signs_parse_as_before() {
    let input = "# a comment\r\n\r\n+0 +1 2:0.5\r\n   \t\n  # indented comment\n1\t0:1e3\r\n2 +0:7\n";
    let records = vec![
        (0, vec![(1, 1.0), (2, 0.5)]),
        (1, vec![(0, 1000.0)]),
        (2, vec![(0, 7.0)]),
    ];
    let write = |dfs: &SimDfs, path: &str| dfs.write(path, input.as_bytes()).unwrap();
    text_loads_its_records(ClusterConfig::new(2, 16 << 20), 2, write, &records);
}

#[test]
fn weights_off_the_digit_fast_path_parse_exactly() {
    // 16 digits, `0.5`, `1e3` and a zero-padded 16-digit vid take
    // `str::parse`; the 15-digit weight takes the fast path.
    let input = "0 1:0.5 2:1e3 3:1234567890123456\n1 0000000000000002:999999999999999\n2\n3 0\n";
    let records = vec![
        (0, vec![(1, 0.5), (2, 1e3), (3, 1_234_567_890_123_456.0)]),
        (1, vec![(2, 999_999_999_999_999.0)]),
        (2, vec![]),
        (3, vec![(0, 1.0)]),
    ];
    let write = |dfs: &SimDfs, path: &str| dfs.write(path, input.as_bytes()).unwrap();
    text_loads_its_records(ClusterConfig::new(2, 16 << 20), 1, write, &records);
}

/// Load `input` as the job's text input on a threaded and on a
/// sequential-timed cluster of two workers, one partition each.
fn load_errors(input: &[u8]) -> Vec<PregelixError> {
    [false, true]
        .into_iter()
        .map(|sequential| {
            let mut config = ClusterConfig::new(2, 16 << 20);
            config.sequential_timed = sequential;
            let cluster = Cluster::new(config).unwrap();
            cluster.dfs().write("input/bad", input).unwrap();
            let job = PregelixJob::new("lt-bad").with_io("input/bad", "output/bad");
            let program = Arc::new(ConnectedComponents);
            LoadedGraph::load(&cluster, &program, &job).unwrap_err()
        })
        .collect()
}

#[test]
fn a_duplicate_vid_in_another_split_is_a_user_error() {
    // Vertex 5's two lines are 200 lines apart: the first and the last
    // split read one each.
    let mut input: String = (0..200).map(|v| format!("{v} {}\n", (v + 1) % 200)).collect();
    input.push_str("5 6\n");
    for err in load_errors(input.as_bytes()) {
        assert!(matches!(err, PregelixError::User(_)), "{err}");
        assert!(err.to_string().contains("duplicate vertex 5"), "{err}");
    }
}

#[test]
fn a_malformed_token_is_corrupt() {
    let input: String = (0..100).map(|v| format!("{v} {}\n", v + 1)).collect();
    for bad in ["7 8:x", "x 1", "7 8:1:2", "7\u{a0}8"] {
        for err in load_errors(format!("{input}{bad}\n").as_bytes()) {
            assert!(matches!(err, PregelixError::Corrupt(_)), "{bad:?}: {err}");
        }
    }
}

#[test]
fn non_utf8_input_is_corrupt() {
    for err in load_errors(b"0 1\n1 2\n2 \xff\xfe\n3 0\n") {
        assert!(matches!(err, PregelixError::Corrupt(_)), "{err}");
    }
}

#[test]
fn an_empty_input_directory_is_a_plan_error() {
    let cluster = Cluster::new(ClusterConfig::new(2, 16 << 20)).unwrap();
    cluster.dfs().write("input/empty/part-00000", b"0 1\n").unwrap();
    cluster.dfs().delete("input/empty/part-00000").unwrap();
    let program = Arc::new(ConnectedComponents);
    for path in ["input/empty", "input/missing"] {
        let job = PregelixJob::new("lt-empty").with_io(path, "output/empty");
        let err = LoadedGraph::load(&cluster, &program, &job).unwrap_err();
        assert!(matches!(err, PregelixError::Plan(_)), "{path}: {err}");
    }
}

/// The same graph loads on threads — bounded channels, frames small
/// enough that every sender fills its channels many times over — and
/// sequentially, and connected components over both agree.
#[test]
fn threaded_and_sequential_loads_agree_on_bounded_channels() {
    let records = btc::btc(20_000, 5.0, 44);
    let load_and_run = |sequential: bool| {
        let records = records.clone();
        let (done, result) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut config = ClusterConfig::new(3, 16 << 20);
            config.frame_bytes = 256;
            config.sequential_timed = sequential;
            let cluster = Cluster::new(config).unwrap();
            text::write_to_dfs(cluster.dfs(), "input/cc", &records).unwrap();
            let job = PregelixJob::new("lt-threads")
                .with_io("input/cc", "output/cc")
                .with_partitions_per_worker(2);
            let program = Arc::new(ConnectedComponents);
            let mut graph = LoadedGraph::load(&cluster, &program, &job).unwrap();
            assert_eq!(graph.vertex_count(), 20_000);
            graph.run(&cluster, &program, &job).unwrap();
            let values: Vec<(Vid, u64)> = graph
                .collect_vertices::<ConnectedComponents>()
                .unwrap()
                .iter()
                .map(|v| (v.vid, v.value))
                .collect();
            done.send(values).unwrap();
        });
        result
            .recv_timeout(Duration::from_secs(120))
            .expect("the load finished: no deadlock on bounded channels")
    };
    assert_eq!(load_and_run(false), load_and_run(true));
}
