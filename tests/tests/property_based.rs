//! Property-based end-to-end tests: random graphs, random plans — the
//! distributed answer must always match the single-machine reference.

use pregelix::graphgen::Dataset;
use pregelix::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};
use std::sync::Arc;

/// Generate a random symmetric graph from a proptest-chosen seed/shape.
fn graph(n: u64, edges: u64, seed: u64) -> Vec<(u64, Vec<(u64, f64)>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut adj: Vec<Vec<(u64, f64)>> = vec![Vec::new(); n as usize];
    for _ in 0..edges {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a == b {
            continue;
        }
        let w = rng.gen_range(1..8) as f64;
        adj[a as usize].push((b, w));
        adj[b as usize].push((a, w));
    }
    adj.into_iter()
        .enumerate()
        .map(|(v, mut e)| {
            e.sort_unstable_by_key(|(d, _)| *d);
            e.dedup_by_key(|(d, _)| *d);
            (v as u64, e)
        })
        .collect()
}

fn arbitrary_plan() -> impl Strategy<Value = PlanConfig> {
    (0..PlanConfig::all().len()).prop_map(|i| PlanConfig::all()[i])
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn prop_sssp_matches_dijkstra(
        seed in 0u64..1_000,
        n in 50u64..300,
        plan in arbitrary_plan(),
        workers in 1usize..4,
    ) {
        let records = graph(n, n * 3, seed);
        let expected = pregelix::algorithms::sssp::reference_sssp(&records, 0);
        let cluster = Cluster::new(ClusterConfig::new(workers, 8 << 20)).unwrap();
        let job = PregelixJob::new(format!("prop-sssp-{seed}")).with_plan(plan);
        let (_s, g) = run_job_from_records(
            &cluster,
            &Arc::new(ShortestPaths::new(0)),
            &job,
            records,
        ).unwrap();
        for v in g.collect_vertices::<ShortestPaths>().unwrap() {
            match expected.get(&v.vid) {
                Some(d) => prop_assert!((v.value - d).abs() < 1e-9, "vid {}", v.vid),
                None => prop_assert_eq!(v.value, pregelix::algorithms::sssp::UNREACHED),
            }
        }
    }

    #[test]
    fn prop_cc_matches_union_find(
        seed in 0u64..1_000,
        n in 50u64..300,
        plan in arbitrary_plan(),
    ) {
        let records = graph(n, n, seed); // sparse: several components
        let adjacency: Vec<(u64, Vec<u64>)> = records
            .iter()
            .map(|(v, e)| (*v, e.iter().map(|(d, _)| *d).collect()))
            .collect();
        let expected =
            pregelix::algorithms::connected_components::reference_components(&adjacency);
        let cluster = Cluster::new(ClusterConfig::new(2, 8 << 20)).unwrap();
        let job = PregelixJob::new(format!("prop-cc-{seed}")).with_plan(plan);
        let (_s, g) = run_job_from_records(
            &cluster,
            &Arc::new(ConnectedComponents),
            &job,
            records,
        ).unwrap();
        for v in g.collect_vertices::<ConnectedComponents>().unwrap() {
            prop_assert_eq!(v.value, expected[&v.vid], "vid {}", v.vid);
        }
    }

    #[test]
    fn prop_dataset_sampling_preserves_validity(
        seed in 0u64..1_000,
        target in 20usize..150,
    ) {
        // Random-walk samples are valid graphs: dense ids, in-sample edges.
        let records = graph(400, 1200, seed);
        let d = Dataset { name: "prop", records };
        let sample = pregelix::graphgen::random_walk_sample(&d.records, target, seed);
        prop_assert_eq!(sample.len(), target);
        for (i, (v, edges)) in sample.iter().enumerate() {
            prop_assert_eq!(*v, i as u64);
            for (dst, _) in edges {
                prop_assert!((*dst as usize) < target);
            }
        }
    }
}
