//! Algorithm 1: parallel (prefix-batched) TMFG construction.
//!
//! Batch selection (Lines 9–10) is conflict-aware: the round keeps drawing
//! the globally next-best `(face, vertex, gain)` pair — a face whose
//! candidate loses a vertex conflict immediately re-enters with its
//! next-best vertex — until `PREFIX` distinct vertices are selected, the
//! remaining pool is empty, or every active face is used. Conflicts
//! therefore shrink neither the batch nor the candidate pool: the round
//! inserts exactly `min(prefix, |remaining|, |active faces|)` vertices,
//! matching the paper's semantics where near-sequential quality at
//! moderate prefixes depends on contested faces staying in the running
//! with fresh next-best choices rather than sitting the round out.
//!
//! Candidate maintenance (Lines 15–16) is lazy. One selection heap lives
//! across rounds and holds, for every active face, its exact head — or,
//! once the face's truncated cached list drained, the list's last entry
//! as a bound that ranks before every candidate the list did not hold
//! (see [`GainTable::bound`]). An entry is pushed whenever a face's head
//! or bound changes and checked against the face's current state when
//! popped, so superseded entries are simply dropped. A bound that reaches
//! the top outranks everything still waiting, so only then is its face
//! rescanned — together with every other bound consecutive at the top, in
//! one parallel pass — against the round's unchanged remaining set, and
//! re-enters with its exact head. Conflict refills go to a round-local
//! heap merged with the persistent one under the same order. The selected
//! batches are therefore exactly those of refreshing every drained face
//! eagerly at round end, while faces whose bound never surfaces are never
//! rescanned.

use std::collections::BinaryHeap;

use pfg_graph::{SimilaritySource, WeightedGraph};
use rayon::prelude::*;

use crate::bubble_tree::BubbleTree;
use crate::error::CoreError;
use crate::face::Triangle;
use crate::tmfg::gains::{CandidateList, GainTable, NextBest};

/// How a selected batch is placed within a round.
///
/// The quality difference between the two modes is dominated by *arrival
/// cohorts*: when a cluster of mutually-similar vertices first becomes the
/// best remaining choice, a whole batch of them is selected in one round.
/// Placed simultaneously, they scatter across the stale round-start faces
/// (none of which belong to their cluster yet) and the cluster never forms
/// a coherent region of the filtered graph; placed with intra-round
/// freshness, the first arrival nucleates and the rest of the cohort
/// attaches to the faces it creates, exactly as the sequential algorithm
/// would.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchFreshness {
    /// All selected insertions are applied against the round-start face
    /// set, as written in the paper's Algorithm 1 (and its Figure 13
    /// walkthrough): a vertex selected this round can never be placed into
    /// a face created this round.
    Simultaneous,
    /// The selected cohort is placed one vertex at a time in decreasing
    /// fresh-gain order, and the three faces created by each placement are
    /// immediately available to the rest of the cohort. Selection (which
    /// vertices enter this round) still uses round-start information only,
    /// so the round structure and parallel gain maintenance of Algorithm 1
    /// are unchanged; the O(batch²) sequential placement pass is
    /// negligible next to the parallel candidate refresh. This is the
    /// default: it removes the arrival-cohort quality cliff and tracks
    /// sequential TMFG quality closely at every prefix.
    #[default]
    IntraRound,
}

/// Configuration for [`tmfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TmfgConfig {
    /// Maximum number of vertices inserted per round (`PREFIX` in the
    /// paper). `prefix = 1` reproduces the sequential TMFG exactly.
    pub prefix: usize,
    /// Whether batch placement sees faces created earlier in the same
    /// round (see [`BatchFreshness`]).
    pub freshness: BatchFreshness,
}

impl Default for TmfgConfig {
    fn default() -> Self {
        // The paper uses prefix 10 for most experiments as a good
        // speed/quality trade-off (§VII-A).
        Self {
            prefix: 10,
            freshness: BatchFreshness::default(),
        }
    }
}

impl TmfgConfig {
    /// Configuration with the given prefix size (default freshness).
    pub fn with_prefix(prefix: usize) -> Self {
        Self {
            prefix,
            ..Self::default()
        }
    }

    /// The same configuration with the paper's literal simultaneous batch
    /// placement (Figure 13 semantics) instead of intra-round freshness.
    pub fn simultaneous(self) -> Self {
        Self {
            freshness: BatchFreshness::Simultaneous,
            ..self
        }
    }
}

/// One vertex insertion performed during TMFG construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Insertion {
    /// The inserted vertex.
    pub vertex: usize,
    /// The face it was inserted into.
    pub face: Triangle,
    /// The gain (sum of the three new edge weights).
    pub gain: f64,
    /// The round (iteration of the outer while loop) of the insertion.
    pub round: usize,
}

/// Per-round accounting of the batch selector: how full the round was and
/// how much staleness (conflicts, cache exhaustion) it had to absorb.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// Upper bound on this round's insertions:
    /// `min(prefix, |remaining|, |active faces|)` at round start.
    pub target: usize,
    /// Distinct vertices actually inserted this round. The conflict-aware
    /// selector always fills the round: `selected == target`.
    pub selected: usize,
    /// Drawn candidates discarded because their vertex was already taken
    /// by a higher-gain pair this round (each one triggers a next-best
    /// refill for the losing face).
    pub conflicts: usize,
    /// Conflict refills that outran the face's cached candidate list and
    /// fell back to a full rescan of the remaining pool. Lower than when
    /// drained faces were rescanned eagerly at round end: a drained face
    /// is now rescanned only when its bound reaches the top of the
    /// selection heap, so its list is usually fresher when a conflict
    /// walks it. (Not strictly lower on every input: an eager rescan is
    /// occasionally the fresher one. The lazy rescans themselves are not
    /// refills and are not counted here.)
    pub rescans: usize,
    /// Cohort vertices placed into a face created earlier in the same
    /// round instead of their round-start face (always 0 under
    /// [`BatchFreshness::Simultaneous`]). A high count means the
    /// round-start information was stale and intra-round freshness
    /// recovered quality the simultaneous placement would have lost.
    pub reassigned: usize,
}

impl RoundStats {
    /// Fraction of the round's target that was actually inserted (1.0 for
    /// the conflict-aware selector; historical selectors under-filled).
    pub fn fill_rate(&self) -> f64 {
        if self.target == 0 {
            1.0
        } else {
            self.selected as f64 / self.target as f64
        }
    }
}

/// The result of TMFG construction: the filtered graph, the bubble tree
/// built alongside it (Algorithm 2), and the insertion trace.
#[derive(Debug, Clone)]
pub struct Tmfg {
    /// The filtered graph; edge weights are similarities from the input
    /// matrix.
    pub graph: WeightedGraph,
    /// The bubble tree constructed during insertion.
    pub bubble_tree: BubbleTree,
    /// The initial 4-clique (the four vertices with largest row sums, in
    /// decreasing row-sum order).
    pub initial_clique: [usize; 4],
    /// Every vertex insertion, in the order it was applied.
    pub insertions: Vec<Insertion>,
    /// Number of rounds of the outer loop (ρ in the paper's analysis).
    pub rounds: usize,
    /// Per-round fill-rate and staleness counters, one entry per round.
    pub round_stats: Vec<RoundStats>,
}

impl Tmfg {
    /// Sum of all edge weights of the filtered graph (used by the Figure 7
    /// edge-weight-sum-ratio experiment).
    pub fn edge_weight_sum(&self) -> f64 {
        self.graph.total_edge_weight()
    }

    /// Number of vertices of the filtered graph.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Mean per-round fill rate (1.0 when every round inserted its full
    /// target; 1.0 for a construction with no rounds).
    pub fn mean_fill_rate(&self) -> f64 {
        if self.round_stats.is_empty() {
            1.0
        } else {
            self.round_stats
                .iter()
                .map(RoundStats::fill_rate)
                .sum::<f64>()
                / self.round_stats.len() as f64
        }
    }

    /// Total vertex conflicts absorbed by the selector across all rounds.
    pub fn total_conflicts(&self) -> usize {
        self.round_stats.iter().map(|r| r.conflicts).sum()
    }

    /// Total candidate-cache exhaustions that forced a full rescan.
    pub fn total_rescans(&self) -> usize {
        self.round_stats.iter().map(|r| r.rescans).sum()
    }

    /// Total cohort vertices whose placement moved to a fresher face than
    /// their round-start selection (staleness absorbed by intra-round
    /// placement).
    pub fn total_reassigned(&self) -> usize {
        self.round_stats.iter().map(|r| r.reassigned).sum()
    }
}

/// Builds the TMFG of the similarity matrix `s` (Algorithm 1).
///
/// # Errors
/// Returns [`CoreError::TooFewVertices`] if `s` has fewer than 4 rows,
/// [`CoreError::InvalidPrefix`] if `config.prefix == 0`, and
/// [`CoreError::NonFiniteSimilarity`] if any off-diagonal entry is NaN or
/// ±Inf — the selector never picks NaN gains (and `+Inf + −Inf` sums to
/// NaN), so a vertex with an all-NaN row could never be inserted and
/// construction would not terminate.
pub fn tmfg<S: SimilaritySource>(s: &S, config: TmfgConfig) -> Result<Tmfg, CoreError> {
    if config.prefix == 0 {
        return Err(CoreError::InvalidPrefix);
    }
    let n = s.n();
    if n < 4 {
        return Err(CoreError::TooFewVertices { got: n });
    }
    // Parallel scan (one row per task, matching the builder's other
    // whole-matrix passes); the trait default's `min` makes the reported
    // entry deterministic.
    if let Some((row, col)) = s.find_non_finite() {
        return Err(CoreError::NonFiniteSimilarity { row, col });
    }
    Ok(Builder::new(s, config).run())
}

/// A `(face, vertex, gain)` entry of the selection heaps.
///
/// The heaps pop the maximum gain first; ties break towards the smaller
/// face id, then the smaller vertex id, so the pop order is a strict total
/// order (each face has at most one live entry) and the selection is
/// deterministic regardless of worker count.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    face: usize,
    vertex: usize,
    gain: f64,
    origin: Origin,
}

/// Where a [`Candidate`] came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    /// Position `pos` of the face's cached list: the face's head, or a
    /// round-local refill (the next refill for the face resumes at
    /// `pos + 1`).
    Cached(usize),
    /// The face's [`GainTable::bound`]: a stand-in, never selected, that
    /// is replaced by the face's exact head when it reaches the top.
    Bound,
    /// A full rescan of the remaining pool; a later refill for the same
    /// face must rescan again.
    Rescan,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for Candidate {}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // total_cmp keeps the comparator a total order even for NaN gains
        // (which the gain table filters out anyway).
        self.gain
            .total_cmp(&other.gain)
            .then_with(|| other.face.cmp(&self.face))
            .then_with(|| other.vertex.cmp(&self.vertex))
    }
}

/// Internal construction state for Algorithm 1.
struct Builder<'a, S: SimilaritySource> {
    s: &'a S,
    prefix: usize,
    freshness: BatchFreshness,
    graph: WeightedGraph,
    /// Face id → triangle.
    faces: Vec<Triangle>,
    /// Face id → still a face of the planar subgraph?
    face_active: Vec<bool>,
    /// Number of `true` entries in `face_active`.
    num_active_faces: usize,
    /// Face id → bubble id owning the face.
    face_bubble: Vec<usize>,
    /// Vertex → still waiting to be inserted?
    remaining: Vec<bool>,
    num_remaining: usize,
    gains: GainTable,
    tree: BubbleTree,
    initial_clique: [usize; 4],
    insertions: Vec<Insertion>,
    rounds: usize,
    round_stats: Vec<RoundStats>,
    /// Persistent selection heap: every active face's current head or
    /// bound, plus superseded entries that are dropped when they surface.
    heap: BinaryHeap<Candidate>,
    /// Vertex → already selected this round (all `false` between rounds).
    taken: Vec<bool>,
    /// Faces rescanned because their bound reached the top of the heap.
    #[cfg(test)]
    bound_refreshes: usize,
}

impl<'a, S: SimilaritySource> Builder<'a, S> {
    fn new(s: &'a S, config: TmfgConfig) -> Self {
        Self::with_gains(s, config, GainTable::new(s.n(), config.prefix))
    }

    /// [`Builder::new`] with a caller-supplied (empty) gain table, so tests
    /// can pick the cache depth.
    fn with_gains(s: &'a S, config: TmfgConfig, mut gains: GainTable) -> Self {
        let n = s.n();
        // Lines 1–2: the four vertices with the highest row sums and all six
        // edges among them.
        let top = s.top_rows_by_sum(4);
        let initial_clique = [top[0], top[1], top[2], top[3]];
        let mut graph = WeightedGraph::new(n);
        for i in 0..4 {
            for j in (i + 1)..4 {
                let (u, v) = (initial_clique[i], initial_clique[j]);
                graph.add_edge(u, v, s.get(u, v));
            }
        }
        // Line 3: the four triangular faces of the initial clique.
        let [v1, v2, v3, v4] = initial_clique;
        let faces = vec![
            Triangle::new(v1, v2, v3),
            Triangle::new(v1, v2, v4),
            Triangle::new(v1, v3, v4),
            Triangle::new(v2, v3, v4),
        ];
        // Line 4: the remaining vertices.
        let mut remaining = vec![true; n];
        for &v in &initial_clique {
            remaining[v] = false;
        }
        let num_remaining = n - 4;
        // Lines 6–7: the bubble tree starts with the initial clique and the
        // outer face {v1, v2, v3}.
        let outer_face = Triangle::new(v1, v2, v3);
        let tree = BubbleTree::new(initial_clique, outer_face, n);
        // Line 5: the candidate lists for each initial face.
        let depth = gains.depth();
        let face_candidates: Vec<CandidateList> = faces
            .par_iter()
            .map(|&t| GainTable::compute_candidates(s, t, &remaining, depth))
            .collect();
        let mut face_active = Vec::with_capacity(4);
        let mut face_bubble = Vec::with_capacity(4);
        for (list, truncated) in face_candidates {
            let id = gains.push_face();
            face_active.push(true);
            face_bubble.push(0);
            gains.install(id, list, truncated);
        }
        let mut builder = Self {
            s,
            prefix: config.prefix,
            freshness: config.freshness,
            graph,
            faces,
            face_active,
            num_active_faces: 4,
            face_bubble,
            remaining,
            num_remaining,
            gains,
            tree,
            initial_clique,
            insertions: Vec::with_capacity(num_remaining),
            rounds: 0,
            round_stats: Vec::new(),
            heap: BinaryHeap::new(),
            taken: vec![false; n],
            #[cfg(test)]
            bound_refreshes: 0,
        };
        for face in 0..4 {
            builder.push_entry(face);
        }
        builder
    }

    fn run(mut self) -> Tmfg {
        self.insert_remaining();
        self.into_tmfg()
    }

    /// Lines 8–17: insert the remaining vertices in rounds of up to
    /// `prefix` vertices.
    fn insert_remaining(&mut self) {
        while self.num_remaining > 0 {
            self.rounds += 1;
            let mut stats = RoundStats {
                target: self
                    .prefix
                    .min(self.num_remaining)
                    .min(self.num_active_faces),
                ..RoundStats::default()
            };
            let selected = self.select_batch(&mut stats);
            stats.selected = selected.len();
            debug_assert_eq!(
                stats.selected, stats.target,
                "the conflict-aware selector must fill every round"
            );
            self.apply_batch(&selected, &mut stats);
            self.round_stats.push(stats);
        }
        debug_assert!(self.graph.has_maximal_planar_edge_count());
    }

    fn into_tmfg(self) -> Tmfg {
        Tmfg {
            graph: self.graph,
            bubble_tree: self.tree,
            initial_clique: self.initial_clique,
            insertions: self.insertions,
            rounds: self.rounds,
            round_stats: self.round_stats,
        }
    }

    /// Lines 9–10: select up to `prefix` vertex–face pairs in decreasing
    /// gain order, resolving vertex conflicts in favour of the largest gain
    /// *without* shrinking the batch — a face that loses its candidate
    /// re-enters the draw with its next-best vertex. Returns
    /// `(face_id, vertex, gain)` triples in the order they were accepted
    /// (non-increasing gain).
    fn select_batch(&mut self, stats: &mut RoundStats) -> Vec<(usize, usize, f64)> {
        let target = stats.target;
        let mut refills: BinaryHeap<Candidate> = BinaryHeap::new();
        let mut selected: Vec<(usize, usize, f64)> = Vec::with_capacity(target);
        while selected.len() < target {
            let Some(c) = self.pop_next(&mut refills) else {
                break;
            };
            debug_assert!(self.remaining[c.vertex], "candidates must be fresh");
            if !self.taken[c.vertex] {
                self.taken[c.vertex] = true;
                selected.push((c.face, c.vertex, c.gain));
                continue;
            }
            // Conflict: a higher-gain pair already claimed this vertex.
            // Refill the face with its next-best available candidate so the
            // conflict shrinks neither the batch nor the candidate pool.
            stats.conflicts += 1;
            let next = match c.origin {
                Origin::Cached(pos) => {
                    self.gains
                        .next_best(c.face, pos + 1, &self.remaining, &self.taken)
                }
                Origin::Rescan => NextBest::Exhausted { truncated: true },
                Origin::Bound => unreachable!("pop_next replaces bounds by exact heads"),
            };
            match next {
                NextBest::Found { pos, vertex, gain } => refills.push(Candidate {
                    face: c.face,
                    vertex,
                    gain,
                    origin: Origin::Cached(pos),
                }),
                NextBest::Exhausted { truncated: true } => {
                    // The cached list ran dry but the remaining pool holds
                    // more: rescan it, excluding this round's selections.
                    stats.rescans += 1;
                    if let Some((vertex, gain)) = GainTable::rescan_excluding(
                        self.s,
                        self.faces[c.face],
                        &self.remaining,
                        &self.taken,
                    ) {
                        refills.push(Candidate {
                            face: c.face,
                            vertex,
                            gain,
                            origin: Origin::Rescan,
                        });
                    }
                }
                NextBest::Exhausted { truncated: false } => {}
            }
        }
        for &(_, v, _) in &selected {
            self.taken[v] = false;
        }
        selected
    }

    /// Pops the next candidate in selection order from the persistent heap
    /// merged with the round's `refills`. Superseded persistent entries are
    /// dropped on the way. Bounds that reach the top are first replaced by
    /// their faces' exact heads: every bound consecutive at the top is
    /// rescanned in one parallel pass.
    fn pop_next(&mut self, refills: &mut BinaryHeap<Candidate>) -> Option<Candidate> {
        let mut drained: Vec<usize> = Vec::new();
        loop {
            while let Some(&top) = self.heap.peek() {
                if !self.is_current(&top) {
                    self.heap.pop();
                } else if top.origin == Origin::Bound
                    && refills.peek().is_none_or(|refill| top > *refill)
                {
                    drained.push(top.face);
                    self.heap.pop();
                } else {
                    break;
                }
            }
            if drained.is_empty() {
                break;
            }
            self.refresh(&drained);
            drained.clear();
        }
        match (self.heap.peek(), refills.peek()) {
            (Some(top), Some(refill)) if refill > top => refills.pop(),
            (Some(_), _) => self.heap.pop(),
            (None, _) => refills.pop(),
        }
    }

    /// Rescans the `drained` faces against the remaining pool (unchanged
    /// during selection, so the order of the rescans does not matter),
    /// installs the fresh lists and pushes the new heads.
    fn refresh(&mut self, drained: &[usize]) {
        let (s, faces, remaining) = (self.s, &self.faces, &self.remaining);
        let depth = self.gains.depth();
        let lists: Vec<CandidateList> = drained
            .par_iter()
            .map(|&f| GainTable::compute_candidates(s, faces[f], remaining, depth))
            .collect();
        for (&f, (list, truncated)) in drained.iter().zip(lists) {
            self.gains.install(f, list, truncated);
            self.push_entry(f);
        }
        #[cfg(test)]
        {
            self.bound_refreshes += drained.len();
        }
    }

    /// The face's entry in the selection order: its head, else its bound,
    /// else `None` (no candidate left).
    fn entry(&self, face: usize) -> Option<Candidate> {
        let (vertex, gain, origin) = match self.gains.head(face) {
            Some((vertex, gain)) => (vertex, gain, Origin::Cached(self.gains.head_pos(face))),
            None => {
                let (vertex, gain) = self.gains.bound(face)?;
                (vertex, gain, Origin::Bound)
            }
        };
        Some(Candidate {
            face,
            vertex,
            gain,
            origin,
        })
    }

    /// Pushes the face's current entry onto the persistent heap.
    fn push_entry(&mut self, face: usize) {
        if let Some(c) = self.entry(face) {
            self.heap.push(c);
        }
    }

    /// Whether a persistent-heap entry still describes its face: the face
    /// is active and its head (position and vertex) or bound is unchanged
    /// since the entry was pushed.
    fn is_current(&self, c: &Candidate) -> bool {
        self.face_active[c.face]
            && self
                .entry(c.face)
                .is_some_and(|e| e.vertex == c.vertex && e.origin == c.origin)
    }

    /// Inserts `v` into face `face_id`: adds the three edges, updates the
    /// bubble tree, deactivates the face and registers its three children.
    /// Returns the new face ids.
    fn insert_vertex(&mut self, face_id: usize, v: usize) -> [usize; 3] {
        let t = self.faces[face_id];
        let [a, b, c] = t.corners();
        // Line 13: add the three edges from v to the face corners.
        self.graph.add_edge(v, a, self.s.get(v, a));
        self.graph.add_edge(v, b, self.s.get(v, b));
        self.graph.add_edge(v, c, self.s.get(v, c));
        // Line 17: update the bubble tree (Algorithm 2).
        let bubble = self.face_bubble[face_id];
        let new_bubble = self.tree.insert(v, t, bubble);
        // Line 14: replace face t by the three new faces.
        self.face_active[face_id] = false;
        let mut ids = [0usize; 3];
        for (slot, new_face) in t.split_with(v).into_iter().enumerate() {
            let id = self.gains.push_face();
            self.faces.push(new_face);
            self.face_active.push(true);
            self.face_bubble.push(new_bubble);
            debug_assert_eq!(id, self.faces.len() - 1);
            ids[slot] = id;
        }
        self.num_active_faces += 2;
        ids
    }

    /// Lines 11–17: insert the selected vertices, update faces, the gain
    /// table and the bubble tree.
    fn apply_batch(&mut self, selected: &[(usize, usize, f64)], stats: &mut RoundStats) {
        // Line 11: remove the selected vertices from V first, so candidate
        // maintenance below never proposes a vertex inserted this round.
        for &(_, v, _) in selected {
            debug_assert!(self.remaining[v]);
            self.remaining[v] = false;
            self.num_remaining -= 1;
        }

        let groups: Vec<ChildGroup> = match self.freshness {
            BatchFreshness::Simultaneous => self.place_simultaneous(selected),
            BatchFreshness::IntraRound => self.place_intra_round(selected, stats),
        };

        // Line 15: advance the faces whose head vertex was inserted this
        // round and queue their new heads (or bounds, for drained lists).
        let mut advanced: Vec<usize> = Vec::new();
        for &(_, v, _) in selected {
            self.gains
                .on_vertex_inserted(v, &self.remaining, &self.face_active, &mut advanced);
        }
        for face in advanced {
            self.push_entry(face);
        }

        // Line 16: each insertion's three new faces refresh off one fused
        // scan of the remaining pool (4 similarity loads per vertex
        // instead of 9 — the follow-up paper's gain maintenance). Children
        // consumed later in the same round (intra-round freshness) are
        // skipped at install. Drained survivors are not rescanned here;
        // their bounds wait in the heap (see `pop_next`).
        let s = self.s;
        let remaining = &self.remaining;
        let depth = self.gains.depth();
        let fused: Vec<(ChildGroup, [CandidateList; 3])> = groups
            .par_iter()
            .map(|&g| {
                (
                    g,
                    GainTable::compute_candidates_for_children(
                        s, g.parent, g.vertex, remaining, depth,
                    ),
                )
            })
            .collect();
        for (g, lists) in fused {
            for (slot, (list, truncated)) in lists.into_iter().enumerate() {
                let f = g.children[slot];
                if self.face_active[f] {
                    self.gains.install(f, list, truncated);
                    self.push_entry(f);
                }
            }
        }
    }

    /// Applies every selected pair against the round-start face set (the
    /// paper's literal semantics). Returns the created child groups.
    fn place_simultaneous(&mut self, selected: &[(usize, usize, f64)]) -> Vec<ChildGroup> {
        let round = self.rounds;
        let mut groups = Vec::with_capacity(selected.len());
        for &(face_id, v, gain) in selected {
            let t = self.faces[face_id];
            let children = self.insert_vertex(face_id, v);
            groups.push(ChildGroup {
                parent: t,
                vertex: v,
                children,
            });
            self.insertions.push(Insertion {
                vertex: v,
                face: t,
                gain,
                round,
            });
        }
        groups
    }

    /// Places the selected cohort one vertex at a time in decreasing
    /// fresh-gain order, letting each placement's three new faces compete
    /// for the rest of the cohort — the intra-round freshness that lets an
    /// arrival cohort nucleate the way sequential insertion would. Each
    /// vertex keeps its phase-1 face reserved as a fallback, so the cohort
    /// always places completely. O(batch²) sequential work. Returns the
    /// created child groups; groups whose faces were consumed later in the
    /// same round are filtered by the caller's `face_active` check.
    fn place_intra_round(
        &mut self,
        selected: &[(usize, usize, f64)],
        stats: &mut RoundStats,
    ) -> Vec<ChildGroup> {
        let round = self.rounds;
        struct Pending {
            vertex: usize,
            /// The phase-1 face, reserved for this vertex only.
            reserved: usize,
            reserved_gain: f64,
            /// Best placement known so far (the reserved face or a face
            /// created earlier this round).
            best_face: usize,
            best_gain: f64,
        }
        let mut pending: Vec<Pending> = selected
            .iter()
            .map(|&(face, vertex, gain)| Pending {
                vertex,
                reserved: face,
                reserved_gain: gain,
                best_face: face,
                best_gain: gain,
            })
            .collect();
        // Faces created this round that are still unused; every pending
        // vertex may claim any of them.
        let mut open_children: Vec<usize> = Vec::with_capacity(3 * selected.len());
        let mut groups: Vec<ChildGroup> = Vec::with_capacity(selected.len());

        while !pending.is_empty() {
            // Deterministic argmax: gain, ties towards the smaller vertex.
            let next = pending
                .iter()
                .enumerate()
                .max_by(|(_, a), (_, b)| {
                    a.best_gain
                        .total_cmp(&b.best_gain)
                        .then_with(|| b.vertex.cmp(&a.vertex))
                })
                .map(|(i, _)| i)
                .expect("pending is non-empty");
            let p = pending.swap_remove(next);
            let face_id = p.best_face;
            let t = self.faces[face_id];
            if face_id != p.reserved {
                stats.reassigned += 1;
                open_children.retain(|&c| c != face_id);
            }
            let created = self.insert_vertex(face_id, p.vertex);
            self.insertions.push(Insertion {
                vertex: p.vertex,
                face: t,
                gain: p.best_gain,
                round,
            });
            open_children.extend(created);
            groups.push(ChildGroup {
                parent: t,
                vertex: p.vertex,
                children: created,
            });

            for q in &mut pending {
                if q.best_face == face_id {
                    // The face this vertex targeted was just consumed:
                    // fall back to its reserved face, then re-derive the
                    // best open child.
                    q.best_face = q.reserved;
                    q.best_gain = q.reserved_gain;
                    for &child in &open_children {
                        let gain = GainTable::gain_of(self.s, self.faces[child], q.vertex);
                        if gain.total_cmp(&q.best_gain).is_gt() {
                            q.best_face = child;
                            q.best_gain = gain;
                        }
                    }
                } else {
                    for &child in &created {
                        let gain = GainTable::gain_of(self.s, self.faces[child], q.vertex);
                        if gain.total_cmp(&q.best_gain).is_gt() {
                            q.best_face = child;
                            q.best_gain = gain;
                        }
                    }
                }
            }
        }
        groups
    }
}

/// One insertion's split, kept together for the fused candidate refresh:
/// the consumed parent face, the inserted vertex, and the three child face
/// ids in [`Triangle::split_with`] order (so
/// [`GainTable::compute_candidates_for_children`]'s k-th list installs
/// into `children[k]`).
#[derive(Debug, Clone, Copy)]
struct ChildGroup {
    parent: Triangle,
    vertex: usize,
    children: [usize; 3],
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::BatchSchedule;
    use pfg_graph::SymmetricMatrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The correlation matrix of Figure 12 in the paper's appendix.
    fn appendix_matrix() -> SymmetricMatrix {
        let rows = vec![
            1.0, 0.8, 0.4, 0.8, 0.8, 0.4, //
            0.8, 1.0, 0.41, 0.9, 0.4, 0.0, //
            0.4, 0.41, 1.0, 0.0, 0.4, 0.42, //
            0.8, 0.9, 0.0, 1.0, 0.8, 0.8, //
            0.8, 0.4, 0.4, 0.8, 1.0, 0.8, //
            0.4, 0.0, 0.42, 0.8, 0.8, 1.0,
        ];
        SymmetricMatrix::from_rows(6, rows).unwrap()
    }

    fn random_similarity(n: usize, seed: u64) -> SymmetricMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        SymmetricMatrix::from_fn(n, |i, j| if i == j { 1.0 } else { rng.gen_range(0.0..1.0) })
    }

    #[test]
    fn rejects_degenerate_inputs() {
        let s = SymmetricMatrix::filled(3, 1.0);
        assert!(matches!(
            tmfg(&s, TmfgConfig::default()),
            Err(CoreError::TooFewVertices { got: 3 })
        ));
        let s = SymmetricMatrix::filled(5, 1.0);
        assert!(matches!(
            tmfg(&s, TmfgConfig::with_prefix(0)),
            Err(CoreError::InvalidPrefix)
        ));
    }

    #[test]
    fn nan_similarity_is_rejected_up_front() {
        // A vertex whose similarities are all NaN (e.g. the correlation of
        // a series containing a NaN sample) could never be selected — the
        // candidate generation skips NaN gains — so construction must
        // reject the input instead of looping forever.
        let s = SymmetricMatrix::from_fn(6, |i, j| {
            if i == j {
                1.0
            } else if i.max(j) == 4 {
                f64::NAN
            } else {
                0.5
            }
        });
        for prefix in [1, 3] {
            assert!(matches!(
                tmfg(&s, TmfgConfig::with_prefix(prefix)),
                Err(CoreError::NonFiniteSimilarity { .. })
            ));
        }
    }

    #[test]
    fn infinite_similarity_is_rejected_up_front() {
        // ±Inf is no similarity, and one +Inf and one −Inf on the same
        // face sum to a NaN gain.
        for bad in [f64::INFINITY, f64::NEG_INFINITY] {
            let mut s = random_similarity(12, 2);
            s.set(4, 9, bad);
            for prefix in [1, 3] {
                assert_eq!(
                    tmfg(&s, TmfgConfig::with_prefix(prefix)).unwrap_err(),
                    CoreError::NonFiniteSimilarity { row: 4, col: 9 },
                    "{bad} prefix {prefix}"
                );
            }
        }
    }

    #[test]
    fn four_vertices_is_just_the_clique() {
        let s = SymmetricMatrix::filled(4, 0.5);
        let t = tmfg(&s, TmfgConfig::with_prefix(1)).unwrap();
        assert_eq!(t.graph.num_edges(), 6);
        assert_eq!(t.bubble_tree.len(), 1);
        assert_eq!(t.rounds, 0);
        assert!(t.insertions.is_empty());
        assert!(t.round_stats.is_empty());
        assert!((t.mean_fill_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn appendix_prefix_one_matches_paper_example() {
        // Figure 13(a)-(d): with PREFIX = 1 the algorithm starts from the
        // clique {0,1,3,4}, inserts 5 into {0,3,4} and then 2 into {0,4,5}.
        let s = appendix_matrix();
        let t = tmfg(&s, TmfgConfig::with_prefix(1)).unwrap();
        let mut clique = t.initial_clique;
        clique.sort_unstable();
        assert_eq!(clique, [0, 1, 3, 4]);
        assert_eq!(t.insertions.len(), 2);
        assert_eq!(t.insertions[0].vertex, 5);
        assert_eq!(t.insertions[0].face, Triangle::new(0, 3, 4));
        assert_eq!(t.insertions[1].vertex, 2);
        assert_eq!(t.insertions[1].face, Triangle::new(0, 4, 5));
        assert_eq!(t.rounds, 2);
    }

    #[test]
    fn appendix_prefix_three_matches_paper_example() {
        // Figure 13(e)-(h): with PREFIX = 3 and the paper's simultaneous
        // placement, vertices 5 and 2 are inserted in the same round; 2
        // goes into {0,1,4} because {0,4,5} does not exist yet.
        let s = appendix_matrix();
        let t = tmfg(&s, TmfgConfig::with_prefix(3).simultaneous()).unwrap();
        assert_eq!(t.rounds, 1);
        assert_eq!(t.insertions.len(), 2);
        let by_vertex: std::collections::HashMap<usize, Triangle> = t
            .insertions
            .iter()
            .map(|ins| (ins.vertex, ins.face))
            .collect();
        assert_eq!(by_vertex[&5], Triangle::new(0, 3, 4));
        assert_eq!(by_vertex[&2], Triangle::new(0, 1, 4));
        assert_eq!(t.total_reassigned(), 0);
    }

    #[test]
    fn appendix_prefix_three_intra_round_recovers_sequential_placement() {
        // Same input, default (intra-round) freshness: 5 still lands in
        // {0,3,4}, but 2 is placed after 5 and sees the freshly created
        // {0,4,5} (gain 1.22 > 1.21), reproducing the sequential TMFG in a
        // single round. Exactly one placement moved off its round-start
        // face, and the counters record it.
        let s = appendix_matrix();
        let batched = tmfg(&s, TmfgConfig::with_prefix(3)).unwrap();
        let sequential = tmfg(&s, TmfgConfig::with_prefix(1)).unwrap();
        assert_eq!(batched.rounds, 1);
        assert_eq!(batched.total_reassigned(), 1);
        let batched_pairs: Vec<(usize, Triangle)> = batched
            .insertions
            .iter()
            .map(|ins| (ins.vertex, ins.face))
            .collect();
        let sequential_pairs: Vec<(usize, Triangle)> = sequential
            .insertions
            .iter()
            .map(|ins| (ins.vertex, ins.face))
            .collect();
        assert_eq!(batched_pairs, sequential_pairs);
        let batched_edges: Vec<_> = batched.graph.edges().collect();
        let sequential_edges: Vec<_> = sequential.graph.edges().collect();
        assert_eq!(batched_edges, sequential_edges);
    }

    #[test]
    fn tmfg_has_maximal_planar_structure() {
        for seed in 0..3 {
            let n = 40;
            let s = random_similarity(n, seed);
            for prefix in [1, 2, 5, 50] {
                let t = tmfg(&s, TmfgConfig::with_prefix(prefix)).unwrap();
                assert_eq!(t.graph.num_edges(), 3 * n - 6, "prefix {prefix}");
                assert!(t.graph.is_connected());
                assert!(pfg_graph::is_planar(&t.graph), "TMFG must be planar");
                assert_eq!(t.bubble_tree.len(), n - 3);
                t.bubble_tree.check_invariants().unwrap();
                // Every non-clique vertex inserted exactly once.
                assert_eq!(t.insertions.len(), n - 4);
            }
        }
    }

    #[test]
    fn edge_weights_come_from_similarity_matrix() {
        let s = random_similarity(25, 7);
        let t = tmfg(&s, TmfgConfig::with_prefix(1)).unwrap();
        for (u, v, w) in t.graph.edges() {
            assert!((w - s.get(u, v)).abs() < 1e-12);
        }
    }

    #[test]
    fn prefix_one_is_greedy_optimal_each_step() {
        // For the sequential TMFG, each insertion's gain must be the best
        // available at that time; in particular gains of later insertions
        // can exceed earlier ones only if enabled by newly created faces.
        let s = random_similarity(20, 3);
        let t = tmfg(&s, TmfgConfig::with_prefix(1)).unwrap();
        assert_eq!(t.rounds, 16);
        for ins in &t.insertions {
            assert!(ins.gain.is_finite());
        }
    }

    #[test]
    fn larger_prefix_needs_fewer_rounds() {
        let s = random_similarity(60, 11);
        let seq = tmfg(&s, TmfgConfig::with_prefix(1)).unwrap();
        let par = tmfg(&s, TmfgConfig::with_prefix(20)).unwrap();
        assert_eq!(seq.rounds, 56);
        assert!(par.rounds < seq.rounds);
        // Quality stays close: parallel edge weight sum within a few percent.
        let ratio = par.edge_weight_sum() / seq.edge_weight_sum();
        assert!(ratio > 0.85 && ratio < 1.05, "ratio {ratio}");
    }

    #[test]
    fn every_round_is_fully_filled() {
        // The conflict-aware selector's defining property: a round inserts
        // exactly min(prefix, |remaining|, |active faces|) vertices — a
        // conflict never shrinks the batch. (The old truncate-then-dedup
        // selector failed this whenever several faces championed the same
        // vertex inside the top-prefix pairs.)
        for (n, prefix, seed) in [(60, 5, 2u64), (60, 10, 4), (90, 16, 8)] {
            let s = random_similarity(n, seed);
            let t = tmfg(&s, TmfgConfig::with_prefix(prefix)).unwrap();
            let mut remaining = n - 4;
            let mut active_faces = 4usize;
            for (i, stats) in t.round_stats.iter().enumerate() {
                let expect = prefix.min(remaining).min(active_faces);
                assert_eq!(
                    stats.target, expect,
                    "round {i}: target (n {n}, prefix {prefix})"
                );
                assert_eq!(
                    stats.selected, expect,
                    "round {i}: under-filled (n {n}, prefix {prefix})"
                );
                assert!((stats.fill_rate() - 1.0).abs() < 1e-12);
                remaining -= stats.selected;
                active_faces += 2 * stats.selected;
            }
            assert_eq!(remaining, 0);
            assert!((t.mean_fill_rate() - 1.0).abs() < 1e-12);
            assert_eq!(t.round_stats.len(), t.rounds);
        }
    }

    #[test]
    fn conflicts_are_detected_and_absorbed() {
        // A rank-one-ish similarity concentrates every face's best on the
        // same few vertices, so a batched round must absorb conflicts; the
        // counters record them and the batch still fills.
        let n = 40;
        let mut rng = StdRng::seed_from_u64(17);
        let pull: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1..1.0)).collect();
        let s = SymmetricMatrix::from_fn(n, |i, j| if i == j { 1.0 } else { pull[i] * pull[j] });
        let t = tmfg(&s, TmfgConfig::with_prefix(8)).unwrap();
        assert!(
            t.total_conflicts() > 0,
            "shared-champion input must conflict"
        );
        assert!((t.mean_fill_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn huge_prefix_still_valid() {
        let n = 30;
        let s = random_similarity(n, 5);
        let t = tmfg(&s, TmfgConfig::with_prefix(10_000)).unwrap();
        assert_eq!(t.graph.num_edges(), 3 * n - 6);
        assert!(pfg_graph::is_planar(&t.graph));
    }

    #[test]
    fn sequential_selector_matches_uncached_reference() {
        // prefix = 1 must reproduce the sequential TMFG exactly. Replay the
        // insertion trace against a from-scratch reference that rescans
        // every face's best vertex at every step (no candidate caching, no
        // reverse index), with the same gain/face/vertex tie-breaking.
        let s = random_similarity(50, 21);
        let seq = tmfg(&s, TmfgConfig::with_prefix(1)).unwrap();
        // Reference: a fresh sequential TMFG computed via best_for_face
        // scans only (no caching), validating the cached selector.
        let n = s.n();
        let mut remaining = vec![true; n];
        for &v in &seq.initial_clique {
            remaining[v] = false;
        }
        let mut faces = vec![
            Triangle::new(
                seq.initial_clique[0],
                seq.initial_clique[1],
                seq.initial_clique[2],
            ),
            Triangle::new(
                seq.initial_clique[0],
                seq.initial_clique[1],
                seq.initial_clique[3],
            ),
            Triangle::new(
                seq.initial_clique[0],
                seq.initial_clique[2],
                seq.initial_clique[3],
            ),
            Triangle::new(
                seq.initial_clique[1],
                seq.initial_clique[2],
                seq.initial_clique[3],
            ),
        ];
        let mut active = vec![true; 4];
        for ins in &seq.insertions {
            // Recompute every face's best from scratch and take the max.
            let mut best: Option<(usize, usize, f64)> = None;
            for (f, &t) in faces.iter().enumerate() {
                if !active[f] {
                    continue;
                }
                if let Some((v, g)) = GainTable::best_for_face(&s, t, &remaining) {
                    let better = match best {
                        None => true,
                        Some((bf, bv, bg)) => g
                            .total_cmp(&bg)
                            .then_with(|| bf.cmp(&f))
                            .then_with(|| bv.cmp(&v))
                            .is_gt(),
                    };
                    if better {
                        best = Some((f, v, g));
                    }
                }
            }
            let (f, v, g) = best.expect("candidates remain");
            assert_eq!(ins.vertex, v);
            assert_eq!(ins.face, faces[f]);
            assert!((ins.gain - g).abs() < 1e-12);
            remaining[v] = false;
            active[f] = false;
            for nf in faces[f].split_with(v) {
                faces.push(nf);
                active.push(true);
            }
        }
    }

    #[test]
    fn parallel_pool_matches_sequential_reference() {
        // The candidate maintenance, head gathering and batch selection
        // run on the work-stealing executor; their results must be
        // bit-identical to the single-threaded reference for every worker
        // count (the split-tree decomposition depends on input length
        // only, stealing may reorder execution but never results,
        // candidate order is preserved, and the selection heap is a
        // strict total order).
        //
        // n is chosen so the parallel path actually dispatches: the shim
        // runs pipelines under 512 items inline. The pipelines that see n
        // items are the input scans over all rows — the non-finite check
        // and the row sums that pick the initial clique — so n = 512 is
        // the smallest size at which they split across workers. The
        // per-round child scans and bound rescans hold at most `prefix`
        // items and stay inline at any n. Below 512 both runs would
        // execute the identical inline code and the comparison would be
        // vacuous.
        let n = 512;
        let s = random_similarity(n, 13);
        for freshness in [BatchFreshness::IntraRound, BatchFreshness::Simultaneous] {
            for prefix in [1, 10, 50] {
                let config = TmfgConfig { prefix, freshness };
                let sequential = rayon::ThreadPoolBuilder::new()
                    .num_threads(1)
                    .build()
                    .unwrap()
                    .install(|| tmfg(&s, config).unwrap());
                for threads in [2, 8] {
                    let parallel = rayon::ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .build()
                        .unwrap()
                        .install(|| tmfg(&s, config).unwrap());
                    let ctx = format!("prefix {prefix} {freshness:?} threads {threads}");
                    assert_eq!(
                        sequential.insertions, parallel.insertions,
                        "{ctx}: insertion traces (incl. gains) must match"
                    );
                    assert_eq!(sequential.initial_clique, parallel.initial_clique);
                    assert_eq!(sequential.rounds, parallel.rounds);
                    assert_eq!(
                        sequential.round_stats, parallel.round_stats,
                        "{ctx}: fill/staleness counters must match"
                    );
                    let seq_edges: Vec<_> = sequential.graph.edges().collect();
                    let par_edges: Vec<_> = parallel.graph.edges().collect();
                    assert_eq!(seq_edges, par_edges, "{ctx}: edge sets must match");
                }
            }
        }
    }

    /// Block-structured similarities: `clusters` groups of mutually similar
    /// vertices, scaled by a per-vertex pull that makes faces everywhere
    /// rank the same strong vertices first, so cached lists drain while
    /// truncated even at large prefixes.
    fn clustered_similarity(n: usize, clusters: usize, seed: u64) -> SymmetricMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let pull: Vec<f64> = (0..n).map(|_| rng.gen_range(0.2..1.0)).collect();
        SymmetricMatrix::from_fn(n, |i, j| {
            let shared = pull[i] * pull[j];
            if i == j {
                1.0
            } else if i % clusters == j % clusters {
                0.3 + 0.6 * shared
            } else {
                0.6 * shared
            }
        })
    }

    /// Builds with an explicit cache depth; also returns how many bound
    /// entries reached the top of the selection heap and were rescanned.
    fn build_with_depth(s: &SymmetricMatrix, config: TmfgConfig, depth: usize) -> (Tmfg, usize) {
        let mut builder = Builder::with_gains(s, config, GainTable::with_depth(s.n(), depth));
        builder.insert_remaining();
        let refreshes = builder.bound_refreshes;
        (builder.into_tmfg(), refreshes)
    }

    #[test]
    fn lazy_bounds_match_untruncated_oracle() {
        // With a cache depth of at least n − 4 no candidate list is ever
        // truncated, so no face ever waits at a bound: every head is exact
        // from the start. The default depth must select the same batches
        // although it defers drained faces behind their bounds.
        let n = 200;
        let s = clustered_similarity(n, 8, 31);
        for freshness in [BatchFreshness::IntraRound, BatchFreshness::Simultaneous] {
            for prefix in [1, 10, 50] {
                let config = TmfgConfig { prefix, freshness };
                let ctx = format!("prefix {prefix} {freshness:?}");
                let (oracle, oracle_refreshes) = build_with_depth(&s, config, n - 4);
                let (lazy, lazy_refreshes) =
                    build_with_depth(&s, config, BatchSchedule::TMFG_CACHE_DEPTH.clamp(prefix));
                assert_eq!(oracle_refreshes, 0, "{ctx}: the oracle never drains");
                assert!(lazy_refreshes > 0, "{ctx}: bounds must be exercised");

                let trace = |t: &Tmfg| -> Vec<(usize, Triangle, u64, usize)> {
                    t.insertions
                        .iter()
                        .map(|i| (i.vertex, i.face, i.gain.to_bits(), i.round))
                        .collect()
                };
                assert_eq!(trace(&oracle), trace(&lazy), "{ctx}: insertions");
                let edges = |t: &Tmfg| -> Vec<(usize, usize, u64)> {
                    t.graph
                        .edges()
                        .map(|(u, v, w)| (u, v, w.to_bits()))
                        .collect()
                };
                assert_eq!(edges(&oracle), edges(&lazy), "{ctx}: edges");
                let rounds = |t: &Tmfg| -> Vec<[usize; 4]> {
                    t.round_stats
                        .iter()
                        .map(|r| [r.target, r.selected, r.conflicts, r.reassigned])
                        .collect()
                };
                assert_eq!(rounds(&oracle), rounds(&lazy), "{ctx}: round stats");
            }
        }
    }

    #[test]
    fn runs_on_f32_storage() {
        // The f32 source reads back exactly the rounded weights, so the
        // TMFG over it is byte-identical to the TMFG over an f64 matrix
        // holding those same rounded values.
        let s = random_similarity(40, 29);
        let f32_data: Vec<f32> = s.as_slice().iter().map(|&x| x as f32).collect();
        let rounded = SymmetricMatrix::from_fn(s.n(), |i, j| f32_data[i * s.n() + j] as f64);
        let s32 = pfg_graph::SymmetricMatrixF32::from_symmetrized(s.n(), f32_data);
        let config = TmfgConfig::default();
        let wide = tmfg(&rounded, config).unwrap();
        let narrow = tmfg(&s32, config).unwrap();
        assert_eq!(wide.insertions, narrow.insertions);
        let wide_edges: Vec<_> = wide.graph.edges().collect();
        let narrow_edges: Vec<_> = narrow.graph.edges().collect();
        assert_eq!(wide_edges, narrow_edges);
        assert!(narrow.graph.has_maximal_planar_edge_count());
    }

    #[test]
    fn initial_clique_has_highest_row_sums() {
        let s = random_similarity(30, 9);
        let t = tmfg(&s, TmfgConfig::with_prefix(1)).unwrap();
        let sums = s.row_sums();
        let min_clique_sum = t
            .initial_clique
            .iter()
            .map(|&v| sums[v])
            .fold(f64::INFINITY, f64::min);
        let max_other = (0..30)
            .filter(|v| !t.initial_clique.contains(v))
            .map(|v| sums[v])
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(min_clique_sum >= max_other);
    }
}
