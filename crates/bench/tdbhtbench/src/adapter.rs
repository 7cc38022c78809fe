//! The benchmark's only door into the library. Every call into a `pfg_*`
//! crate (input generators, the kernel, the pipeline, the single layers
//! and the output checks) is in this file, so a change to the library's
//! API touches the benchmark in one place.

use pfg_core::dbht::{self, assignment, direction, hierarchy, HacBackend};
use pfg_core::{Dendrogram, ParTdbht, ParTdbhtResult, Tmfg, TmfgConfig};
use pfg_data::{
    correlation_matrix_f32, StockMarket, StockMarketConfig, TileConfig, TimeSeriesConfig,
    TimeSeriesDataset, SECTORS,
};
use pfg_graph::{DissimilarityView, SourceRows};

use crate::trace::Tracer;
use crate::workloads::Source;

/// Generated series with their ground-truth labels.
#[derive(Debug, Clone)]
pub struct Input {
    pub series: Vec<Vec<f64>>,
    pub truth: Vec<usize>,
    /// Number of clusters the dendrogram is cut into (the class count).
    pub clusters: usize,
}

impl Input {
    pub fn n(&self) -> usize {
        self.series.len()
    }

    pub fn length(&self) -> usize {
        self.series.first().map_or(0, Vec::len)
    }
}

/// Makes the input of `source` from `seed`.
pub fn generate(source: Source, seed: u64) -> Input {
    match source {
        Source::TimeSeries {
            n,
            length,
            classes,
            noise,
        } => {
            let data = TimeSeriesDataset::generate(
                "bench",
                &TimeSeriesConfig {
                    num_series: n,
                    length,
                    num_classes: classes,
                    noise,
                    seed,
                },
            );
            Input {
                series: data.series,
                truth: data.labels,
                clusters: classes,
            }
        }
        Source::Stocks { n, days } => {
            let market = StockMarket::generate(&StockMarketConfig {
                num_stocks: n,
                num_days: days,
                seed,
                ..StockMarketConfig::default()
            });
            Input {
                series: market.detrended_returns(),
                truth: market.sector.clone(),
                clusters: SECTORS.len(),
            }
        }
    }
}

/// Adjusted Rand Index of `labels` against the input's ground truth.
pub fn ari(input: &Input, labels: &[usize]) -> f64 {
    pfg_metrics::adjusted_rand_index(&input.truth, labels)
}

/// The product path's output: cluster labels plus the pipeline result the
/// structural checks read.
#[derive(Debug)]
pub struct Clustering {
    pub labels: Vec<usize>,
    result: ParTdbhtResult,
}

impl Clustering {
    /// Structural checks of the TMFG and the dendrogram.
    pub fn check(&self) -> Result<(), String> {
        check_tmfg(&self.result.tmfg)?;
        check_dendrogram(&self.result.dendrogram, self.labels.len())
    }
}

/// Series → labels through the public product path: the f32 correlation
/// kernel, `ParTdbht::run_f32` (dense scans, no prescreen) and the cut.
/// Runs in whatever pool the caller installed.
pub fn end_to_end(input: &Input, prefix: usize) -> Result<Clustering, String> {
    let (similarity, _) = correlation_matrix_f32(&input.series, TileConfig::default());
    let result = ParTdbht::with_prefix(prefix)
        .run_f32(&similarity)
        .map_err(|e| format!("pipeline: {e}"))?;
    let labels = result.dendrogram.cut_to_clusters(input.clusters);
    Ok(Clustering { labels, result })
}

/// Counters the layers report about the work they did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Counters {
    /// Multiply-adds of the kernel, `n² · L` (computed, not measured).
    pub kernel_ops: f64,
    /// Bytes of correlation matrix the kernel wrote (computed).
    pub kernel_bytes_out: usize,
    pub tmfg_rounds: usize,
    pub tmfg_rescans: usize,
    pub tmfg_conflicts: usize,
    pub tmfg_fill_rate: f64,
    pub tmfg_edge_weight_sum: f64,
    pub converging_bubbles: usize,
    pub apsp_source_rows: usize,
    pub apsp_pairs_computed: usize,
    /// `apsp_pairs_computed / n²`.
    pub apsp_pairs_frac: f64,
    pub hac_rounds: usize,
    pub hac_merges: usize,
}

/// The stage-by-stage composition's output.
#[derive(Debug)]
pub struct Layered {
    pub labels: Vec<usize>,
    pub counters: Counters,
    tmfg: Tmfg,
    bubble_graph: dbht::DirectedBubbleGraph,
    dendrogram: Dendrogram,
}

impl Layered {
    /// Structural checks of the TMFG, its bubble tree, the directed
    /// bubble graph and the dendrogram.
    pub fn check(&self) -> Result<(), String> {
        check_tmfg(&self.tmfg)?;
        self.bubble_graph
            .check_invariants()
            .map_err(|e| format!("directed bubble graph: {e}"))?;
        check_dendrogram(&self.dendrogram, self.labels.len())
    }
}

/// Series → labels composed from the single layer functions in the order
/// of `pfg_core::pipeline`, each call inside a span of `tracer`. Must give
/// the same labels as [`end_to_end`].
pub fn layered(input: &Input, prefix: usize, tracer: &mut Tracer) -> Result<Layered, String> {
    let (similarity, kernel) = tracer.span("correlation", || {
        correlation_matrix_f32(&input.series, TileConfig::default())
    });
    let tmfg = tracer
        .span("tmfg", || {
            pfg_core::tmfg(&similarity, TmfgConfig::with_prefix(prefix))
        })
        .map_err(|e| format!("tmfg: {e}"))?;
    let bubble_graph = tracer.span("direction", || {
        direction::direct_tmfg_bubble_tree(&tmfg.bubble_tree, &tmfg.graph)
    });
    let (dgraph, rows) = tracer.span("apsp.rows", || {
        let dgraph = dbht::dissimilarity_graph(&tmfg.graph, &DissimilarityView::new(&similarity));
        let rows = SourceRows::compute(&dgraph, &dbht::converging_vertices(&bubble_graph));
        (dgraph, rows)
    });
    let assignment = tracer.span("assignment", || {
        assignment::assign_vertices(&tmfg.graph, &bubble_graph, &rows)
    });
    let distances = tracer.span("apsp.blocks", || {
        dbht::restricted_distances(&dgraph, rows, &assignment)
    });
    let (dendrogram, hac) = tracer.span("hac", || {
        hierarchy::build_hierarchy_with(
            &bubble_graph,
            &assignment,
            &distances,
            HacBackend::ParallelRounds,
        )
    });
    let labels = tracer.span("cut", || dendrogram.cut_to_clusters(input.clusters));

    let apsp = distances.stats();
    let counters = Counters {
        kernel_ops: (input.n() as f64).powi(2) * input.length() as f64,
        kernel_bytes_out: kernel.output_bytes,
        tmfg_rounds: tmfg.rounds,
        tmfg_rescans: tmfg.total_rescans(),
        tmfg_conflicts: tmfg.total_conflicts(),
        tmfg_fill_rate: tmfg.mean_fill_rate(),
        tmfg_edge_weight_sum: tmfg.edge_weight_sum(),
        converging_bubbles: bubble_graph.converging_bubbles().len(),
        apsp_source_rows: apsp.source_rows,
        apsp_pairs_computed: apsp.pairs_computed,
        apsp_pairs_frac: apsp.restricted_fraction(),
        hac_rounds: hac.rounds,
        hac_merges: hac.merges,
    };
    Ok(Layered {
        labels,
        counters,
        tmfg,
        bubble_graph,
        dendrogram,
    })
}

/// A TMFG on `n ≥ 4` vertices is maximal planar: `3n − 6` edges, and its
/// bubble tree passes its own invariant check.
fn check_tmfg(tmfg: &Tmfg) -> Result<(), String> {
    let n = tmfg.num_vertices();
    let edges = tmfg.graph.num_edges();
    if edges != 3 * n - 6 {
        return Err(format!(
            "tmfg has {edges} edges, expected 3n-6 = {}",
            3 * n - 6
        ));
    }
    tmfg.bubble_tree
        .check_invariants()
        .map_err(|e| format!("bubble tree: {e}"))
}

/// A complete dendrogram over `n` leaves: `n − 1` merges under one root,
/// with monotone heights.
fn check_dendrogram(dendrogram: &Dendrogram, n: usize) -> Result<(), String> {
    if dendrogram.num_leaves() != n {
        return Err(format!(
            "dendrogram has {} leaves, expected {n}",
            dendrogram.num_leaves()
        ));
    }
    let merges = dendrogram.internal_nodes().count();
    if merges + 1 != n || dendrogram.root().is_none() {
        return Err(format!(
            "dendrogram has {merges} merges, expected n-1 = {}",
            n - 1
        ));
    }
    if !dendrogram.is_monotone() {
        return Err("dendrogram heights are not monotone".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incomplete_dendrogram_fails_its_check() {
        let mut d = Dendrogram::new(4);
        d.merge(0, 1, 1.0);
        d.merge(2, 3, 1.0);
        assert!(check_dendrogram(&d, 4).is_err());
        d.merge(4, 5, 0.5);
        assert!(check_dendrogram(&d, 4).unwrap_err().contains("monotone"));
    }
}
