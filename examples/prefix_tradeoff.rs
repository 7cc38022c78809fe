//! The prefix-size trade-off (Figures 6 and 7, and the appendix example):
//! sweep the TMFG prefix and report construction time, edge-weight-sum
//! ratio, and clustering quality.
//!
//! Run with: `cargo run --release --example prefix_tradeoff`

use par_filtered_graph_clustering::prelude::*;
use pfg_graph::SymmetricMatrix as Matrix;

fn main() {
    // ---- Appendix example (Figures 12–13) ---------------------------------
    // The 6-point correlation matrix for which PREFIX = 3 recovers the
    // ground truth {0,1,2} / {3,4,5} but PREFIX = 1 does not.
    let rows = vec![
        1.0, 0.8, 0.4, 0.8, 0.8, 0.4, //
        0.8, 1.0, 0.41, 0.9, 0.4, 0.0, //
        0.4, 0.41, 1.0, 0.0, 0.4, 0.42, //
        0.8, 0.9, 0.0, 1.0, 0.8, 0.8, //
        0.8, 0.4, 0.4, 0.8, 1.0, 0.8, //
        0.4, 0.0, 0.42, 0.8, 0.8, 1.0,
    ];
    let s = Matrix::from_rows(6, rows).expect("symmetric matrix");
    let d = s.map(|p| (2.0 * (1.0 - p)).sqrt());
    let truth = vec![0, 0, 0, 1, 1, 1];
    println!("appendix example (ground truth {{0,1,2}} vs {{3,4,5}}):");
    for prefix in [1, 3] {
        let result = ParTdbht::with_prefix(prefix).run(&s, &d).unwrap();
        let labels = result.clusters(2);
        println!(
            "  prefix {prefix}: clusters {:?}  ARI {:+.3}",
            labels,
            adjusted_rand_index(&truth, &labels)
        );
    }

    // ---- Prefix sweep on a synthetic UCR-like data set ---------------------
    let spec = ucr_catalogue()
        .into_iter()
        .find(|s| s.name == "ECG5000")
        .expect("catalogue entry");
    let dataset = spec.generate(0.1, 11);
    let k = dataset.num_classes();
    let correlation = correlation_matrix(&dataset.series);
    let dissimilarity = dissimilarity_from_correlation(&correlation);
    let sequential = ParTdbht::with_prefix(1)
        .run(&correlation, &dissimilarity)
        .unwrap();
    let seq_weight = sequential.tmfg.edge_weight_sum();
    println!(
        "\nprefix sweep on {} (n = {}, k = {}):",
        dataset.name,
        dataset.len(),
        k
    );
    println!(
        "{:>8} {:>10} {:>12} {:>8} {:>8}",
        "prefix", "rounds", "time", "ratio", "ARI"
    );
    for prefix in [1usize, 2, 5, 10, 30, 50, 200] {
        let start = std::time::Instant::now();
        let result = ParTdbht::with_prefix(prefix)
            .run(&correlation, &dissimilarity)
            .unwrap();
        let elapsed = start.elapsed();
        let labels = result.clusters(k);
        println!(
            "{:>8} {:>10} {:>12?} {:>8.3} {:>8.3}",
            prefix,
            result.tmfg.rounds,
            elapsed,
            result.tmfg.edge_weight_sum() / seq_weight,
            adjusted_rand_index(&dataset.labels, &labels)
        );
    }
}
