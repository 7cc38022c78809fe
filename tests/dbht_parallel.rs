//! Differential tests pinning the parallel DBHT back half.
//!
//! The parallel mutual-nearest-neighbor HAC must produce dendrograms that
//! are *byte-identical* to the sequential NN-chain engine — same merge
//! list, same heights, same cut clusters — on random, clustered and
//! tie-heavy inputs, at every thread-pool size. Likewise, the restricted
//! (demand-driven) APSP must agree with the dense `n²` matrix on every
//! distance the DBHT actually reads: bitwise on intra-group pairs and on
//! source–source pairs, and to floating-point noise on the one-directional
//! source rows.

use par_filtered_graph_clustering::prelude::*;
use pfg_core::dbht::{
    assignment, converging_vertices, dbht_for_tmfg, direction, dissimilarity_graph, hierarchy,
    restricted_distances,
};
use pfg_graph::shortest_paths::all_pairs_shortest_paths;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random similarity matrix with continuous off-diagonal entries.
fn random_similarity(n: usize, seed: u64) -> SymmetricMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    SymmetricMatrix::from_fn(n, |i, j| {
        if i == j {
            1.0
        } else {
            rng.gen_range(0.01..0.99)
        }
    })
}

/// Clustered similarity matrix: `k` strong blocks plus mild noise.
fn clustered_similarity(n: usize, k: usize, seed: u64) -> SymmetricMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    SymmetricMatrix::from_fn(n, |i, j| {
        if i == j {
            1.0
        } else if (i % k) == (j % k) {
            0.8 + rng.gen_range(-0.05..0.05)
        } else {
            0.1 + rng.gen_range(-0.05..0.05)
        }
    })
}

/// Tie-heavy similarity matrix: entries quantised to two values, so masses
/// of cluster pairs compare equal on the primary linkage key and the
/// engines must agree through the full tie-breaking cascade.
fn tie_heavy_similarity(n: usize, seed: u64) -> SymmetricMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    SymmetricMatrix::from_fn(n, |i, j| {
        if i == j {
            1.0
        } else if rng.gen_bool(0.5) {
            0.7
        } else {
            0.2
        }
    })
}

fn dissimilarity_of(s: &SymmetricMatrix) -> SymmetricMatrix {
    s.map(|p| (2.0 * (1.0 - p)).sqrt())
}

/// Everything the hierarchy step consumes, precomputed once per matrix.
struct Prepared {
    tmfg: Tmfg,
    bubble_graph: pfg_core::dbht::DirectedBubbleGraph,
    assignment: pfg_core::VertexAssignment,
    distances: DbhtDistances,
    dense: SymmetricMatrix,
    sources: Vec<usize>,
}

fn prepare(s: &SymmetricMatrix, prefix: usize) -> Prepared {
    let d = dissimilarity_of(s);
    let t = tmfg(s, TmfgConfig::with_prefix(prefix)).unwrap();
    let bubble_graph = direction::direct_tmfg_bubble_tree(&t.bubble_tree, &t.graph);
    let dgraph = dissimilarity_graph(&t.graph, &d);
    let sources = converging_vertices(&bubble_graph);
    let rows = SourceRows::compute(&dgraph, &sources);
    let assignment = assignment::assign_vertices(&t.graph, &bubble_graph, &rows);
    let distances = restricted_distances(&dgraph, rows, &assignment);
    let dense = all_pairs_shortest_paths(&dgraph);
    Prepared {
        tmfg: t,
        bubble_graph,
        assignment,
        distances,
        dense,
        sources,
    }
}

/// The matrices the differential suite runs over: random, clustered and
/// tie-heavy, with both sequential and batched TMFG construction.
fn suite_inputs() -> Vec<(String, SymmetricMatrix, usize)> {
    let mut inputs = Vec::new();
    for seed in [1u64, 2, 3] {
        inputs.push((format!("random-{seed}"), random_similarity(48, seed), 1));
        inputs.push((
            format!("random-batched-{seed}"),
            random_similarity(48, seed + 10),
            8,
        ));
    }
    inputs.push(("clustered".into(), clustered_similarity(60, 3, 7), 5));
    inputs.push(("tie-heavy".into(), tie_heavy_similarity(40, 11), 1));
    inputs
}

// ---------------------------------------------------------------------------
// Tentpole differential: parallel HAC == NN-chain, at every pool size.
// ---------------------------------------------------------------------------

#[test]
fn parallel_hac_dendrogram_equals_nn_chain_at_every_pool_size() {
    for (name, s, prefix) in suite_inputs() {
        let p = prepare(&s, prefix);
        let (reference, chain_stats) = hierarchy::build_hierarchy_with(
            &p.bubble_graph,
            &p.assignment,
            &p.distances,
            HacBackend::NnChain,
        );
        // The chain merges one pair at a time by construction.
        assert_eq!(chain_stats.max_round_merges, 1, "{name}");

        for threads in [1usize, 2, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let (parallel, stats) = pool.install(|| {
                hierarchy::build_hierarchy_with(
                    &p.bubble_graph,
                    &p.assignment,
                    &p.distances,
                    HacBackend::ParallelRounds,
                )
            });
            // Byte-identical dendrogram: same merge list, same heights.
            assert_eq!(parallel, reference, "{name} at {threads} threads");
            // Same amount of work, possibly fewer rounds.
            assert_eq!(stats.merges, chain_stats.merges, "{name}");
            assert!(stats.rounds <= chain_stats.rounds, "{name}");
            // Same clusters at every cut that the pipeline exposes.
            for k in [2usize, 3, 5] {
                assert_eq!(
                    parallel.cut_to_clusters(k),
                    reference.cut_to_clusters(k),
                    "{name} cut {k}"
                );
            }
        }
    }
}

#[test]
fn full_dbht_is_byte_identical_across_thread_counts() {
    let s = clustered_similarity(60, 3, 19);
    let d = dissimilarity_of(&s);
    let t = tmfg(&s, TmfgConfig::with_prefix(5)).unwrap();
    let reference = dbht_for_tmfg(&t, &d).unwrap();
    for threads in [1usize, 2, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let run = pool.install(|| dbht_for_tmfg(&t, &d).unwrap());
        assert_eq!(run.dendrogram, reference.dendrogram, "{threads} threads");
        assert_eq!(run.assignment.group, reference.assignment.group);
        assert_eq!(run.assignment.bubble, reference.assignment.bubble);
        assert_eq!(run.hac, reference.hac);
        assert_eq!(run.apsp, reference.apsp);
    }
}

// ---------------------------------------------------------------------------
// Tentpole differential: restricted APSP == full APSP on every distance
// the DBHT reads.
// ---------------------------------------------------------------------------

#[test]
fn restricted_apsp_matches_full_apsp_on_every_distance_dbht_reads() {
    for (name, s, prefix) in suite_inputs() {
        let p = prepare(&s, prefix);
        let n = s.n();

        // Intra-group pairs (hierarchy levels 1–2): bitwise equal.
        for members in p.assignment.group_members() {
            for (i, &u) in members.iter().enumerate() {
                for &v in &members[i + 1..] {
                    let restricted = p.distances.pair(u, v);
                    let full = p.dense.get(u, v);
                    assert_eq!(
                        restricted.to_bits(),
                        full.to_bits(),
                        "{name}: intra-group pair ({u}, {v})"
                    );
                }
            }
        }

        // Source–source pairs (hierarchy level 3): bitwise equal, because
        // both stores symmetrise the two directed runs the same way.
        for (i, &a) in p.sources.iter().enumerate() {
            for &b in &p.sources[i + 1..] {
                assert_eq!(
                    p.distances.rows.pair(a, b).to_bits(),
                    p.dense.get(a, b).to_bits(),
                    "{name}: source pair ({a}, {b})"
                );
            }
        }

        // Source × non-source rows (vertex assignment): one-directional in
        // the restricted store, so only equal up to symmetrisation noise.
        for &a in &p.sources {
            for v in 0..n {
                let restricted = p.distances.rows.pair(a, v);
                let full = p.dense.get(a, v);
                assert!(
                    (restricted - full).abs() <= 1e-9 * full.max(1.0),
                    "{name}: row pair ({a}, {v}): {restricted} vs {full}"
                );
            }
        }
    }
}

#[test]
fn hierarchy_from_restricted_distances_equals_hierarchy_from_full_apsp() {
    for (name, s, prefix) in suite_inputs() {
        let p = prepare(&s, prefix);
        for backend in [HacBackend::ParallelRounds, HacBackend::NnChain] {
            let (restricted, _) = hierarchy::build_hierarchy_with(
                &p.bubble_graph,
                &p.assignment,
                &p.distances,
                backend,
            );
            let (full, _) =
                hierarchy::build_hierarchy_with(&p.bubble_graph, &p.assignment, &p.dense, backend);
            assert_eq!(restricted, full, "{name} with {backend:?}");
        }
    }
}

#[test]
fn assignment_from_restricted_rows_equals_assignment_from_full_apsp() {
    for (name, s, prefix) in suite_inputs() {
        let p = prepare(&s, prefix);
        let from_full = assignment::assign_vertices(&p.tmfg.graph, &p.bubble_graph, &p.dense);
        assert_eq!(p.assignment.group, from_full.group, "{name}");
        assert_eq!(p.assignment.bubble, from_full.bubble, "{name}");
    }
}

#[test]
fn restricted_apsp_computes_fewer_than_half_the_pairs_on_clustered_input() {
    let s = clustered_similarity(120, 3, 23);
    let d = dissimilarity_of(&s);
    let t = tmfg(&s, TmfgConfig::with_prefix(5)).unwrap();
    let dbht = dbht_for_tmfg(&t, &d).unwrap();
    let fraction = dbht.apsp.restricted_fraction();
    assert!(
        fraction < 0.5,
        "restricted APSP computed {:.3} of the dense output",
        fraction
    );
    assert!(dbht.apsp.pairs_computed > 0);
    assert_eq!(dbht.apsp.pairs_full, 120 * 120);
}

// ---------------------------------------------------------------------------
// Property tests of the parallel engine.
// ---------------------------------------------------------------------------

#[test]
fn dendrogram_heights_are_monotone_non_decreasing() {
    for (name, s, prefix) in suite_inputs() {
        let p = prepare(&s, prefix);
        let (dendrogram, _) = hierarchy::build_hierarchy_with(
            &p.bubble_graph,
            &p.assignment,
            &p.distances,
            HacBackend::ParallelRounds,
        );
        assert!(dendrogram.is_monotone(), "{name}");
        assert_eq!(dendrogram.num_leaves(), s.n(), "{name}");
        assert!(dendrogram.root().is_some(), "{name}");
    }
}

#[test]
fn mutual_nn_rounds_merge_disjoint_pairs() {
    for (name, s, prefix) in suite_inputs() {
        let p = prepare(&s, prefix);
        let (_, stats) = hierarchy::build_hierarchy_with(
            &p.bubble_graph,
            &p.assignment,
            &p.distances,
            HacBackend::ParallelRounds,
        );
        // Each merge of a round consumes two distinct clusters, so if the
        // round's pairs were not disjoint this bound would be violated.
        assert!(2 * stats.max_round_merges <= s.n(), "{name}");
        assert!(stats.rounds >= 1, "{name}");
        assert!(stats.rounds <= stats.merges, "{name}");
    }
}

#[test]
fn all_equal_weights_yield_one_canonical_dendrogram() {
    // Every off-diagonal similarity identical: every linkage comparison
    // falls through the (max, mean) keys to the member-id tie-break, so
    // this is the worst case for engine divergence. All engines and all
    // pool sizes must produce the exact same canonical dendrogram.
    let s = SymmetricMatrix::from_fn(24, |i, j| if i == j { 1.0 } else { 0.5 });
    let p = prepare(&s, 1);
    let (reference, _) = hierarchy::build_hierarchy_with(
        &p.bubble_graph,
        &p.assignment,
        &p.distances,
        HacBackend::NnChain,
    );
    for threads in [1usize, 2, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let (parallel, _) = pool.install(|| {
            hierarchy::build_hierarchy_with(
                &p.bubble_graph,
                &p.assignment,
                &p.distances,
                HacBackend::ParallelRounds,
            )
        });
        assert_eq!(parallel, reference, "{threads} threads");
    }
}
