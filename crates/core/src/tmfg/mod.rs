//! Triangulated Maximally Filtered Graph construction (§IV, Algorithm 1).
//!
//! The TMFG approximates the NP-hard Weighted Maximum Planar Graph problem
//! by starting from the 4-clique of the four vertices with the largest row
//! sums and repeatedly inserting a remaining vertex into a triangular face,
//! adding the three edges to the face corners that maximise the gain.
//!
//! The parallel algorithm of the paper inserts up to `PREFIX` vertices per
//! round. Selection is conflict-aware: candidate `(face, vertex, gain)`
//! pairs are drawn in decreasing gain order and a vertex claimed by several
//! faces goes to the maximum-gain pair, while every losing face re-enters
//! the draw with its next-best remaining vertex, so conflicts shrink
//! neither the batch nor the candidate pool — each round inserts exactly
//! `min(PREFIX, |remaining|, |active faces|)` vertices. The per-face
//! candidate lists are maintained lazily (see [`GainTable`]): every round
//! computes lists for its newly created faces only. A face whose truncated
//! list ran dry waits in the persistent selection heap at the list's last
//! entry, which bounds every candidate the list did not hold, and is
//! rescanned only when that bound reaches the top of the heap — the
//! selected batches are the same as with an eager rescan of every drained
//! face. With `prefix = 1` the construction is identical to the
//! sequential TMFG of Massara et al.
//!
//! The bubble tree (Algorithm 2) is maintained during construction at no
//! extra asymptotic cost and is returned alongside the graph.

mod builder;
mod gains;

pub use builder::{tmfg, BatchFreshness, Insertion, RoundStats, Tmfg, TmfgConfig};
pub use gains::{CandidateList, GainTable, NextBest, MAX_CACHE_DEPTH, MIN_CACHE_DEPTH};
