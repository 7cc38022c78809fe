//! The Directed Bubble Hierarchy Tree (DBHT) clustering algorithm (§V).
//!
//! Given a filtered graph (a TMFG or any maximal planar graph such as a
//! PMFG), its bubble tree, and a dissimilarity measure, the DBHT produces a
//! dendrogram in four steps:
//!
//! 1. [`direction`] — direct the bubble-tree edges by comparing, for each
//!    separating triangle, the weight of its connections to the interior
//!    and exterior (Algorithm 3; Θ(n) work for TMFG-built bubble trees,
//!    with a quadratic reference implementation for arbitrary planar
//!    graphs);
//! 2. [`assignment`] — assign every vertex to a converging bubble (its
//!    *group*) and to a bubble (Algorithm 4, lines 1–23);
//! 3. [`hierarchy`] — build the three-level complete-linkage hierarchy
//!    (intra-bubble, inter-bubble, inter-group; Algorithm 4, lines 24–33)
//!    with the parallel mutual-nearest-neighbor engine;
//! 4. height re-assignment (§V-D) so that all single-group subtrees end at
//!    the same height.
//!
//! The shortest-path input (Algorithm 4, line 7) is *not* the full `n²`
//! APSP matrix: [`distances`] assembles the demand-driven restricted store
//! — full Dijkstra rows for the converging-bubble vertices (which is all
//! the assignment phase reads) plus dense intra-group blocks (which is all
//! the hierarchy reads within groups) — cutting the distance output to
//! `O(Σ group² + |conv|·n)`. Every run reports its layers' own counters:
//! [`HacStats`] for the parallel HAC and [`DbhtDistanceStats`] for how much
//! of the dense matrix the restricted store actually computed.
//!
//! [`planar_bubbles`] implements the original (quadratic) bubble
//! decomposition of an arbitrary maximal planar graph, which is what the
//! PMFG+DBHT baseline uses and what the TMFG fast path is validated
//! against.

pub mod assignment;
pub mod bubble_graph;
pub mod direction;
pub mod distances;
pub mod hierarchy;
pub mod planar_bubbles;

use pfg_graph::{GroupBlocks, PairDistances, SourceRows, WeightedGraph};

use crate::dendrogram::Dendrogram;
use crate::error::CoreError;
use crate::tmfg::Tmfg;

pub use assignment::VertexAssignment;
pub use bubble_graph::DirectedBubbleGraph;
pub use distances::{DbhtDistanceStats, DbhtDistances};
pub use hierarchy::{build_hierarchy_with, HacBackend, HacStats};

/// The full DBHT output.
#[derive(Debug, Clone)]
pub struct Dbht {
    /// The dendrogram with DBHT height assignment.
    pub dendrogram: Dendrogram,
    /// The directed bubble graph used to produce it.
    pub bubble_graph: DirectedBubbleGraph,
    /// The per-vertex group (converging bubble) and bubble assignments.
    pub assignment: VertexAssignment,
    /// Counters of the parallel HAC across all linkage runs.
    pub hac: HacStats,
    /// How much of the dense `n²` APSP the restricted store computed.
    pub apsp: DbhtDistanceStats,
}

impl Dbht {
    /// Number of converging bubbles (= number of first-level groups).
    pub fn num_groups(&self) -> usize {
        self.bubble_graph.converging_bubbles().len()
    }
}

/// Runs the DBHT on a TMFG, using the fast Θ(n)-work direction computation
/// enabled by the bubble tree built during TMFG construction.
///
/// `dissimilarity` supplies the edge lengths for the shortest-path
/// computations (the paper uses `d = sqrt(2 (1 − ρ))` for correlations).
/// Any [`PairDistances`] works — the dense matrix, or a zero-allocation
/// view like [`pfg_graph::DissimilarityView`]: the DBHT only ever reads
/// the `3n − 6` filtered-graph edges from it.
///
/// # Errors
/// Returns [`CoreError::DimensionMismatch`] if the dissimilarity matrix
/// size differs from the graph's vertex count, and
/// [`CoreError::InvalidDissimilarity`] if an edge's dissimilarity is NaN,
/// ±Inf or negative.
pub fn dbht_for_tmfg<D: PairDistances>(tmfg: &Tmfg, dissimilarity: &D) -> Result<Dbht, CoreError> {
    if dissimilarity.num_vertices() != tmfg.graph.num_vertices() {
        return Err(CoreError::DimensionMismatch {
            similarity: tmfg.graph.num_vertices(),
            dissimilarity: dissimilarity.num_vertices(),
        });
    }
    let bubble_graph = direction::direct_tmfg_bubble_tree(&tmfg.bubble_tree, &tmfg.graph);
    run_dbht(&tmfg.graph, bubble_graph, dissimilarity)
}

/// Runs the DBHT on an arbitrary maximal planar graph (e.g. a PMFG), using
/// the original quadratic bubble decomposition and direction computation.
///
/// # Errors
/// Returns [`CoreError::DimensionMismatch`] if the dissimilarity matrix
/// size differs from the graph's vertex count,
/// [`CoreError::TooFewVertices`] if the graph has fewer than 4 vertices,
/// and [`CoreError::InvalidDissimilarity`] if an edge's dissimilarity is
/// NaN, ±Inf or negative.
pub fn dbht_for_planar_graph<D: PairDistances>(
    graph: &WeightedGraph,
    dissimilarity: &D,
) -> Result<Dbht, CoreError> {
    let n = graph.num_vertices();
    if n < 4 {
        return Err(CoreError::TooFewVertices { got: n });
    }
    if dissimilarity.num_vertices() != n {
        return Err(CoreError::DimensionMismatch {
            similarity: n,
            dissimilarity: dissimilarity.num_vertices(),
        });
    }
    let decomposition = planar_bubbles::decompose(graph);
    let bubble_graph = direction::direct_generic(&decomposition, graph);
    run_dbht(graph, bubble_graph, dissimilarity)
}

/// The dissimilarity-weighted copy of a filtered graph: the metric the
/// DBHT's shortest-path computations run on (Algorithm 4, line 7). Only
/// the graph's `3n − 6` edge distances are read from `dissimilarity`.
pub fn dissimilarity_graph<D: PairDistances>(
    graph: &WeightedGraph,
    dissimilarity: &D,
) -> WeightedGraph {
    let mut dgraph = WeightedGraph::new(graph.num_vertices());
    for (u, v, _) in graph.edges() {
        dgraph.add_edge(u, v, dissimilarity.pair(u, v));
    }
    dgraph
}

/// Checks that every edge of a dissimilarity-weighted graph (see
/// [`dissimilarity_graph`]) has a finite, non-negative length.
///
/// # Errors
/// Returns [`CoreError::InvalidDissimilarity`] naming the first offending
/// edge in [`WeightedGraph::edges`] order.
pub(crate) fn check_edge_lengths(dgraph: &WeightedGraph) -> Result<(), CoreError> {
    match dgraph
        .edges()
        .find(|&(_, _, w)| !(w.is_finite() && w >= 0.0))
    {
        Some((u, v, _)) => Err(CoreError::InvalidDissimilarity { u, v }),
        None => Ok(()),
    }
}

/// The sorted union of the converging bubbles' vertices: the source set
/// whose full shortest-path rows the DBHT needs.
pub fn converging_vertices(bubble_graph: &DirectedBubbleGraph) -> Vec<usize> {
    let mut sources: Vec<usize> = bubble_graph
        .converging_bubbles()
        .into_iter()
        .flat_map(|b| bubble_graph.bubble(b).iter().copied())
        .collect();
    sources.sort_unstable();
    sources.dedup();
    sources
}

/// Computes the demand-driven distance store for an already-assigned
/// vertex partition: `rows` must cover the converging-bubble vertices.
pub fn restricted_distances(
    dgraph: &WeightedGraph,
    rows: SourceRows,
    assignment: &VertexAssignment,
) -> DbhtDistances {
    let blocks = GroupBlocks::compute(dgraph, &assignment.group_members());
    DbhtDistances { rows, blocks }
}

/// Shared tail of the DBHT: restricted shortest paths over the
/// dissimilarity-weighted filtered graph, vertex assignment, hierarchy and
/// height re-assignment.
fn run_dbht<D: PairDistances>(
    graph: &WeightedGraph,
    bubble_graph: DirectedBubbleGraph,
    dissimilarity: &D,
) -> Result<Dbht, CoreError> {
    let dgraph = dissimilarity_graph(graph, dissimilarity);
    check_edge_lengths(&dgraph)?;

    // Full rows for the converging-bubble vertices — every distance the
    // assignment phase reads is anchored at one of them.
    let rows = SourceRows::compute(&dgraph, &converging_vertices(&bubble_graph));
    let assignment = assignment::assign_vertices(graph, &bubble_graph, &rows);

    // Dense blocks for the now-known groups — every remaining hierarchy
    // read is either intra-group or between converging-bubble vertices.
    let distances = restricted_distances(&dgraph, rows, &assignment);

    let (dendrogram, hac) = hierarchy::build_hierarchy_with(
        &bubble_graph,
        &assignment,
        &distances,
        hierarchy::HacBackend::ParallelRounds,
    );
    Ok(Dbht {
        dendrogram,
        bubble_graph,
        assignment,
        hac,
        apsp: distances.stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tmfg::{tmfg, TmfgConfig};
    use pfg_graph::SymmetricMatrix;

    /// A 24-vertex TMFG and the dissimilarity of its similarity matrix.
    fn tmfg_and_dissimilarity() -> (Tmfg, SymmetricMatrix) {
        let s = SymmetricMatrix::from_fn(24, |i, j| {
            if i == j {
                1.0
            } else {
                0.1 + 0.7 * ((i % 3 == j % 3) as u8 as f64) + 0.001 * ((i * 7 + j * 7) % 13) as f64
            }
        });
        let t = tmfg(&s, TmfgConfig::with_prefix(1)).unwrap();
        (t, s.map(|p| (2.0 * (1.0 - p)).sqrt()))
    }

    /// `d` with the entry `(u, v)` replaced by `value`.
    fn poisoned(d: &SymmetricMatrix, (u, v): (usize, usize), value: f64) -> SymmetricMatrix {
        SymmetricMatrix::from_fn(d.n(), |i, j| {
            if (i.min(j), i.max(j)) == (u, v) {
                value
            } else {
                d.get(i, j)
            }
        })
    }

    const BAD: [f64; 4] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5];

    #[test]
    fn bad_edge_lengths_are_rejected_by_both_entry_points() {
        let (t, d) = tmfg_and_dissimilarity();
        let (u, v, _) = t.graph.edges().nth(5).unwrap();
        for bad in BAD {
            let d = poisoned(&d, (u, v), bad);
            let expected = Err(CoreError::InvalidDissimilarity { u, v });
            assert_eq!(dbht_for_tmfg(&t, &d).map(|_| ()), expected, "{bad}");
            assert_eq!(
                dbht_for_planar_graph(&t.graph, &d).map(|_| ()),
                expected,
                "{bad}"
            );
        }
    }

    #[test]
    fn bad_entries_off_the_graph_are_never_read() {
        let (t, d) = tmfg_and_dissimilarity();
        let n = t.graph.num_vertices();
        let off = (0..n)
            .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
            .find(|&(u, v)| !t.graph.has_edge(u, v))
            .unwrap();
        for bad in BAD {
            let d = poisoned(&d, off, bad);
            assert!(dbht_for_tmfg(&t, &d).is_ok(), "{bad}");
        }
    }
}
