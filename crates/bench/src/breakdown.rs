//! The Figure 5 runtime breakdown, timed from outside the library.
//!
//! [`timed_par_tdbht`] runs the same stages as `ParTdbht::run`, in the same
//! order, through the public layer functions, and reads the clock between
//! them. The library's pipeline never times itself; this is the one place
//! the stage split is measured.

use std::time::{Duration, Instant};

use pfg_core::dbht::{
    assignment, converging_vertices, direction, dissimilarity_graph, hierarchy,
    restricted_distances,
};
use pfg_core::{tmfg, CoreError, HacBackend, ParTdbhtResult, TmfgConfig};
use pfg_graph::{PairDistances, SimilaritySource, SourceRows};

/// Wall-clock time of each pipeline stage (the refined Figure 5
/// categories; the paper's lumped "bubble tree" is `direction +
/// assignment`).
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimes {
    /// TMFG construction (Algorithm 1 + Algorithm 2).
    pub tmfg: Duration,
    /// Demand-driven shortest paths over the dissimilarity-weighted TMFG:
    /// converging-bubble source rows plus per-group blocks, summed.
    pub apsp: Duration,
    /// Bubble-tree direction (Algorithm 3).
    pub direction: Duration,
    /// Vertex-to-bubble assignment (Algorithm 4, lines 1–23).
    pub assignment: Duration,
    /// Three-level complete-linkage hierarchy (Algorithm 4, lines 24–33).
    pub hierarchy: Duration,
}

impl StageTimes {
    /// Total time across all stages.
    pub fn total(&self) -> Duration {
        self.tmfg + self.apsp + self.direction + self.assignment + self.hierarchy
    }
}

/// PAR-TDBHT with the given prefix, each stage timed. Gives the same
/// result as `ParTdbht::with_prefix(prefix).run(similarity,
/// dissimilarity)` on valid input; the up-front validation of the
/// library driver (matrix sizes, edge lengths) is not repeated here.
///
/// # Errors
/// Propagates the TMFG's [`CoreError`] (too few vertices, invalid
/// prefix, non-finite similarity).
pub fn timed_par_tdbht<S: SimilaritySource, D: PairDistances>(
    similarity: &S,
    dissimilarity: &D,
    prefix: usize,
) -> Result<(ParTdbhtResult, StageTimes), CoreError> {
    let start = Instant::now();
    let tmfg = tmfg(similarity, TmfgConfig::with_prefix(prefix))?;
    let tmfg_time = start.elapsed();

    let start = Instant::now();
    let bubble_graph = direction::direct_tmfg_bubble_tree(&tmfg.bubble_tree, &tmfg.graph);
    let direction_time = start.elapsed();

    let start = Instant::now();
    let dgraph = dissimilarity_graph(&tmfg.graph, dissimilarity);
    let rows = SourceRows::compute(&dgraph, &converging_vertices(&bubble_graph));
    let mut apsp_time = start.elapsed();

    let start = Instant::now();
    let assignment = assignment::assign_vertices(&tmfg.graph, &bubble_graph, &rows);
    let assignment_time = start.elapsed();

    let start = Instant::now();
    let distances = restricted_distances(&dgraph, rows, &assignment);
    apsp_time += start.elapsed();

    let start = Instant::now();
    let (dendrogram, hac) = hierarchy::build_hierarchy_with(
        &bubble_graph,
        &assignment,
        &distances,
        HacBackend::ParallelRounds,
    );
    let hierarchy_time = start.elapsed();

    let result = ParTdbhtResult {
        tmfg,
        assignment,
        dendrogram,
        hac,
        apsp: distances.stats(),
    };
    let times = StageTimes {
        tmfg: tmfg_time,
        apsp: apsp_time,
        direction: direction_time,
        assignment: assignment_time,
        hierarchy: hierarchy_time,
    };
    Ok((result, times))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{BenchDataset, SuiteConfig};
    use pfg_core::{Dendrogram, ParTdbht};
    use pfg_data::ucr_catalogue;

    /// Every node's children, height bits and size.
    fn nodes(d: &Dendrogram) -> Vec<(Option<usize>, Option<usize>, u64, usize)> {
        (0..d.len())
            .map(|id| {
                let node = d.node(id);
                (node.left, node.right, node.height.to_bits(), node.size)
            })
            .collect()
    }

    #[test]
    fn timed_stages_match_the_library_driver() {
        let spec = ucr_catalogue()[14];
        let config = SuiteConfig {
            scale: 0.05,
            ..SuiteConfig::default()
        };
        let data = BenchDataset::prepare(&spec, &config);
        let k = data.num_classes;
        for prefix in [1, 10] {
            let library = ParTdbht::with_prefix(prefix)
                .run(&data.correlation, &data.dissimilarity)
                .unwrap();
            let (timed, times) =
                timed_par_tdbht(&data.correlation, &data.dissimilarity, prefix).unwrap();
            assert_eq!(
                nodes(&timed.dendrogram),
                nodes(&library.dendrogram),
                "prefix {prefix}"
            );
            assert_eq!(timed.clusters(k), library.clusters(k), "prefix {prefix}");
            assert_eq!(timed.hac, library.hac, "prefix {prefix}");
            assert_eq!(timed.apsp, library.apsp, "prefix {prefix}");
            assert!(times.total() > Duration::ZERO);
        }
    }
}
