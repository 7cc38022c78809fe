//! The three-level complete-linkage hierarchy and dendrogram heights
//! (Algorithm 4, lines 24–33, and §V-D), built by a parallel
//! nearest-neighbor-merge HAC.
//!
//! The hierarchy is built bottom-up:
//!
//! 1. **intra-bubble** — within every *subgroup* (vertices sharing both a
//!    group, i.e. converging bubble, and a bubble assignment) the vertices
//!    are merged by complete linkage under the shortest-path distance;
//! 2. **inter-bubble** — within every group the subgroup dendrograms are
//!    merged by complete linkage;
//! 3. **inter-group** — the group dendrograms are merged by complete
//!    linkage over the groups' *converging-bubble vertices* (the anchors
//!    of the bubble-tree paths between group cores), which is what lets
//!    the whole hierarchy run on the demand-driven restricted distance
//!    store instead of the full `n²` APSP matrix.
//!
//! Heights are then re-assigned: inter-group nodes receive the number of
//! converging bubbles among their descendants, and the nodes inside each
//! group receive the ladder `[1/(n_b−1), …, 1/2, 1]` in the prescribed
//! order, so that every single-group subtree tops out at height 1.
//!
//! # The mutual-NN round rule, and why it reproduces NN-chain output
//!
//! Each linkage run can be planned by either of two engines
//! ([`HacBackend`]):
//!
//! * [`HacBackend::ParallelRounds`] — per round, every active cluster
//!   finds its nearest neighbor (one parallel scan per cluster row), and
//!   every *mutually*-nearest pair merges. Mutual pairs are disjoint by
//!   construction (nearest-of is a function), so all merges of a round
//!   commute.
//! * [`HacBackend::NnChain`] — the classical sequential nearest-neighbor
//!   chain, kept as the differential reference.
//!
//! Both engines order candidate pairs by the same **strict total order**
//! `K(A, B) = (max cross distance, mean cross distance, min member id of
//! one cluster, min member id of the other)`. Min member ids are unique
//! per active cluster, so no two coexisting pairs ever compare equal and
//! every cluster has a *unique* nearest neighbor. Complete linkage is
//! *reducible* under `K`: merging a mutually-nearest pair `(A, B)` gives,
//! for any other cluster `C`, `K(A∪B, C) ≥ min(K(A,C), K(B,C))` — the
//! max component can only grow, the mean lands between the children's
//! means, and the merged min-member is the smaller child min-member. So a
//! merge never steals another pair's mutual-nearest status, every
//! NN-chain merge is itself a mutual-NN merge, and by the standard
//! confluence argument for reducible linkages **any** schedule of
//! mutual-NN merges — one at a time along a chain, or a whole round in
//! parallel — produces the same merge tree with the same `(max, mean)`
//! labels.
//!
//! Two implementation rules turn "same tree" into "byte-identical
//! dendrogram":
//!
//! * **Exact maxima, pure means.** The max component is maintained by
//!   the complete-linkage Lance–Williams update `max(A∪B, C) =
//!   max(max(A, C), max(B, C))`. `f64::max` is exact and order-free, so
//!   the maintained value has the same bits as a fresh max over the
//!   merged member multiset (level-3 proxy sets may share vertices; the
//!   max does not care), and a merge updates the survivor in O(m)
//!   instead of re-reading every member pair. The mean is never
//!   accumulated: a Lance–Williams mean drifts by ulps depending on
//!   merge order, which on tie-heavy inputs is enough to flip a
//!   comparison and change the tree. Instead it is recomputed from the
//!   two member sets in a canonical order (outer loop over the
//!   smaller-min-member cluster, members ascending) — lazily, only where
//!   a comparison's maxima tie or a merge event records it, and memoised
//!   until either cluster merges again. Every comparison therefore sees
//!   identical values across engines and thread counts. Between two
//!   merges of its clusters a pair's mean is computed at most once per
//!   scanning row (twice in a round where both rows tie on it), and
//!   pairs whose maxima never tie never compute one.
//! * **Canonical replay.** Engines discover merges in different orders,
//!   so planned merges are renumbered before touching the [`Dendrogram`]:
//!   repeatedly emit the *available* merge (both children already
//!   emitted) with the smallest `K`-key. Available merges have disjoint
//!   member sets, hence distinct keys, so the emission order — and with
//!   it every dendrogram node id — is a pure function of the merge set.

use pfg_graph::PairDistances;
use rayon::prelude::*;

use crate::dbht::assignment::VertexAssignment;
use crate::dbht::bubble_graph::DirectedBubbleGraph;
use crate::dendrogram::Dendrogram;

/// Which engine plans the complete-linkage merges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HacBackend {
    /// Merge every mutually-nearest pair per round, rounds in parallel.
    #[default]
    ParallelRounds,
    /// The sequential nearest-neighbor chain (differential reference).
    NnChain,
}

/// Counters from the HAC planning phase, aggregated over all linkage runs
/// (one per subgroup, one per group, one inter-group).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HacStats {
    /// Total merge rounds across all linkage runs (for the chain engine
    /// every merge is its own round).
    pub rounds: usize,
    /// Total merges (= internal dendrogram nodes).
    pub merges: usize,
    /// Largest number of merges performed in a single round.
    pub max_round_merges: usize,
}

impl HacStats {
    fn record_round(&mut self, merges: usize) {
        self.rounds += 1;
        self.merges += merges;
        self.max_round_merges = self.max_round_merges.max(merges);
    }

    fn absorb(&mut self, other: &HacStats) {
        self.rounds += other.rounds;
        self.merges += other.merges;
        self.max_round_merges = self.max_round_merges.max(other.max_round_merges);
    }
}

/// Which of the three levels created an internal dendrogram node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MergeKind {
    /// Merge inside a subgroup (same group and bubble assignment).
    IntraBubble { group: usize, bubble: usize },
    /// Merge of subgroup dendrograms inside one group.
    InterBubble { group: usize },
    /// Merge of group dendrograms.
    InterGroup,
}

/// Book-keeping for one internal node created during hierarchy
/// construction.
#[derive(Debug, Clone, Copy)]
struct MergeRecord {
    node: usize,
    kind: MergeKind,
    distance: f64,
}

/// One input cluster of a linkage run.
#[derive(Debug, Clone)]
struct LinkItem {
    /// Vertices whose pairwise distances define the cluster distance
    /// (sorted ascending). For levels 1–2 these are the true members; for
    /// level 3 they are the group's converging-bubble vertices.
    members: Vec<usize>,
    /// Canonical cluster identity for tie-breaking: the smallest *true*
    /// member id. Unique across the items of one run.
    mm: usize,
}

/// One planned merge. References `0..m` are input items; `m + k` is the
/// `k`-th event of the same plan. After canonicalization the events are in
/// canonical emission order and `left` names the smaller-min-member child.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PlanEvent {
    left: usize,
    right: usize,
    dist: f64,
    mean: f64,
}

/// Per-group planning output: the canonical merge plans of the group's
/// subgroups (level 1) and of the group itself (level 2).
struct GroupPlan {
    group: usize,
    num_members: usize,
    /// `(bubble id, subgroup vertices ascending, canonical plan)`.
    subgroups: Vec<(usize, Vec<usize>, Vec<PlanEvent>)>,
    /// Level-2 plan; item `i` is `subgroups[i]`'s dendrogram root.
    inter_bubble: Vec<PlanEvent>,
    stats: HacStats,
}

/// Builds the DBHT dendrogram with an explicit planning engine, returning
/// the engine's counters. Both engines produce byte-identical dendrograms
/// (see the module docs); the counters differ.
pub fn build_hierarchy_with<D: PairDistances + Sync>(
    bubble_graph: &DirectedBubbleGraph,
    assignment: &VertexAssignment,
    distances: &D,
    backend: HacBackend,
) -> (Dendrogram, HacStats) {
    let n = bubble_graph.num_vertices();
    let mut dendrogram = Dendrogram::new(n);
    if n == 0 {
        return (dendrogram, HacStats::default());
    }

    let group_members = assignment.group_members();

    // ---- Plan levels 1 + 2, groups in parallel ---------------------------
    let plans: Vec<GroupPlan> = (0..assignment.groups.len())
        .into_par_iter()
        .map(|gi| {
            let group = assignment.groups[gi];
            let members = &group_members[gi];
            let mut stats = HacStats::default();
            let mut bubbles: Vec<usize> = members.iter().map(|&v| assignment.bubble[v]).collect();
            bubbles.sort_unstable();
            bubbles.dedup();
            let subgroups: Vec<(usize, Vec<usize>, Vec<PlanEvent>)> = bubbles
                .iter()
                .map(|&b| {
                    let verts: Vec<usize> = members
                        .iter()
                        .copied()
                        .filter(|&v| assignment.bubble[v] == b)
                        .collect();
                    let items: Vec<LinkItem> = verts
                        .iter()
                        .map(|&v| LinkItem {
                            members: vec![v],
                            mm: v,
                        })
                        .collect();
                    let plan = plan_linkage(items, distances, backend, &mut stats);
                    (b, verts, plan)
                })
                .collect();
            let sub_items: Vec<LinkItem> = subgroups
                .iter()
                .map(|(_, verts, _)| LinkItem {
                    members: verts.clone(),
                    mm: verts[0],
                })
                .collect();
            let inter_bubble = plan_linkage(sub_items, distances, backend, &mut stats);
            GroupPlan {
                group,
                num_members: members.len(),
                subgroups,
                inter_bubble,
                stats,
            }
        })
        .collect();

    // ---- Replay sequentially in group order ------------------------------
    let mut records: Vec<MergeRecord> = Vec::new();
    let mut stats = HacStats::default();
    let mut group_roots: Vec<usize> = Vec::with_capacity(plans.len());
    let mut group_sizes: Vec<(usize, usize)> = Vec::with_capacity(plans.len());
    for plan in &plans {
        stats.absorb(&plan.stats);
        group_sizes.push((plan.group, plan.num_members));
        let mut sub_roots: Vec<usize> = Vec::with_capacity(plan.subgroups.len());
        for (b, verts, events) in &plan.subgroups {
            let root = replay(&mut dendrogram, verts, events, |node, distance| {
                records.push(MergeRecord {
                    node,
                    kind: MergeKind::IntraBubble {
                        group: plan.group,
                        bubble: *b,
                    },
                    distance,
                });
            });
            sub_roots.push(root);
        }
        let group_root = replay(
            &mut dendrogram,
            &sub_roots,
            &plan.inter_bubble,
            |node, d| {
                records.push(MergeRecord {
                    node,
                    kind: MergeKind::InterBubble { group: plan.group },
                    distance: d,
                });
            },
        );
        group_roots.push(group_root);
    }

    // ---- Level 3: inter-group over converging-bubble vertices ------------
    let group_items: Vec<LinkItem> = (0..assignment.groups.len())
        .map(|gi| {
            let mut proxy = bubble_graph.bubble(assignment.groups[gi]).to_vec();
            proxy.sort_unstable();
            LinkItem {
                members: proxy,
                mm: group_members[gi][0],
            }
        })
        .collect();
    let inter_group = plan_linkage(group_items, distances, backend, &mut stats);
    let _root = replay(&mut dendrogram, &group_roots, &inter_group, |node, d| {
        records.push(MergeRecord {
            node,
            kind: MergeKind::InterGroup,
            distance: d,
        });
    });

    assign_heights(&mut dendrogram, &records, &group_sizes, &group_roots);
    (dendrogram, stats)
}

/// Emits a canonical plan into the dendrogram. `slot_nodes[i]` is the
/// dendrogram node id of plan item `i`; returns the root node id.
fn replay(
    dendrogram: &mut Dendrogram,
    slot_nodes: &[usize],
    events: &[PlanEvent],
    mut on_merge: impl FnMut(usize, f64),
) -> usize {
    let mut node_of: Vec<usize> = Vec::with_capacity(slot_nodes.len() + events.len());
    node_of.extend_from_slice(slot_nodes);
    for event in events {
        let node = dendrogram.merge(node_of[event.left], node_of[event.right], event.dist);
        on_merge(node, event.dist);
        node_of.push(node);
    }
    *node_of.last().expect("at least one cluster")
}

/// The canonical `(max, mean)` cross statistics of two clusters: outer
/// loop over the smaller-min-member cluster, members ascending. A pure
/// function of the unordered cluster pair and the distance store, so every
/// engine and every thread count computes bitwise-identical values.
fn cross_stats<D: PairDistances>(d: &D, a: (&[usize], usize), b: (&[usize], usize)) -> (f64, f64) {
    let (outer, inner) = if a.1 < b.1 { (a.0, b.0) } else { (b.0, a.0) };
    let mut max = 0.0_f64;
    let mut sum = 0.0_f64;
    for &u in outer {
        for &v in inner {
            let x = d.pair(u, v);
            max = max.max(x);
            sum += x;
        }
    }
    (max, sum / (outer.len() * inner.len()) as f64)
}

/// The complete-linkage distance of two clusters: the largest member-pair
/// distance, i.e. the max component of [`cross_stats`] without the sum.
fn cross_max<D: PairDistances>(d: &D, a: &[usize], b: &[usize]) -> f64 {
    let mut max = 0.0_f64;
    for &u in a {
        for &v in b {
            max = max.max(d.pair(u, v));
        }
    }
    max
}

/// Average pair reads per row above which [`LinkState::init`] gives every
/// row its own stealable leaf.
const HEAVY_ROW_READS: usize = 1024;

/// Mutable state of one linkage run: the active clusters, the exact
/// complete-linkage distance of every active pair, and a memo of the
/// canonical mean distances that comparisons have needed so far.
struct LinkState {
    m: usize,
    members: Vec<Vec<usize>>,
    mm: Vec<usize>,
    /// Plan reference currently representing each slot.
    refid: Vec<usize>,
    active: Vec<bool>,
    remaining: usize,
    /// Max cross distance of every active pair, kept exact on merge by
    /// the Lance–Williams update.
    dist: Vec<f64>,
    /// Memo of the canonical mean cross distance; an entry is valid only
    /// while its `fresh` flag is set.
    mean: Vec<f64>,
    /// Cleared for the survivor's row and column on every merge.
    fresh: Vec<bool>,
    /// Means computed to break a tie between two maxima.
    #[cfg(test)]
    tie_means: usize,
}

impl LinkState {
    fn init<D: PairDistances + Sync>(items: Vec<LinkItem>, d: &D) -> Self {
        let m = items.len();
        let mut dist = vec![f64::INFINITY; m * m];
        // Maxima for the upper triangle, rows in parallel. Means are
        // computed on demand. Rows averaging `HEAVY_ROW_READS` pair reads
        // are declared heavy, so a short run such as the inter-group
        // level still spreads over the pool; lighter runs keep the
        // executor's inline gate (`usize::MAX` is no cap).
        let points: usize = items.iter().map(|it| it.members.len()).sum();
        let max_len = if points * points / (2 * m) >= HEAVY_ROW_READS {
            1
        } else {
            usize::MAX
        };
        let rows: Vec<Vec<f64>> = {
            let items = &items;
            (0..m)
                .into_par_iter()
                .with_max_len(max_len)
                .map(|i| {
                    ((i + 1)..m)
                        .map(|j| cross_max(d, &items[i].members, &items[j].members))
                        .collect()
                })
                .collect()
        };
        for (i, row) in rows.into_iter().enumerate() {
            for (k, dv) in row.into_iter().enumerate() {
                let j = i + 1 + k;
                dist[i * m + j] = dv;
                dist[j * m + i] = dv;
            }
        }
        let (members, mm) = items.into_iter().map(|it| (it.members, it.mm)).unzip();
        Self {
            m,
            members,
            mm,
            refid: (0..m).collect(),
            active: vec![true; m],
            remaining: m,
            dist,
            mean: vec![f64::INFINITY; m * m],
            fresh: vec![false; m * m],
            #[cfg(test)]
            tie_means: 0,
        }
    }

    /// The canonical mean cross distance of slots `i` and `j`, recomputed
    /// from the member sets.
    fn canonical_mean<D: PairDistances>(&self, i: usize, j: usize, d: &D) -> f64 {
        let (max, mean) = cross_stats(
            d,
            (&self.members[i], self.mm[i]),
            (&self.members[j], self.mm[j]),
        );
        debug_assert_eq!(
            max.to_bits(),
            self.dist[i * self.m + j].to_bits(),
            "the Lance–Williams max must equal the pure max"
        );
        mean
    }

    /// The unique nearest neighbor of active slot `i` under the strict
    /// order `K`. For a fixed row, ordering partners by `(dist, mean,
    /// partner min-member)` is equivalent to ordering the full keys. A
    /// mean is only needed where two maxima tie; each one missing from
    /// the memo is computed here and pushed onto `computed` as
    /// `(partner, mean)` for [`LinkState::memoise`].
    fn nearest<D: PairDistances>(
        &self,
        i: usize,
        d: &D,
        computed: &mut Vec<(usize, f64)>,
    ) -> usize {
        let row = i * self.m;
        let mut mean_of = |j: usize| {
            if self.fresh[row + j] {
                self.mean[row + j]
            } else {
                let mean = self.canonical_mean(i, j, d);
                computed.push((j, mean));
                mean
            }
        };
        // The scan starts from the sentinel key (∞, ∞); the best
        // partner's mean stays unknown until a tie needs it.
        let mut best = usize::MAX;
        let mut best_dist = f64::INFINITY;
        let mut best_mean = Some(f64::INFINITY);
        for j in 0..self.m {
            if !self.active[j] || j == i {
                continue;
            }
            let dist = self.dist[row + j];
            let mut mean = None;
            let ordering = match dist.total_cmp(&best_dist) {
                std::cmp::Ordering::Equal => {
                    let known = match best_mean {
                        Some(known) => known,
                        None => *best_mean.insert(mean_of(best)),
                    };
                    let x = mean_of(j);
                    mean = Some(x);
                    x.total_cmp(&known)
                }
                ordering => ordering,
            };
            if ordering.is_lt()
                || (ordering.is_eq() && (best == usize::MAX || self.mm[j] < self.mm[best]))
            {
                best = j;
                best_dist = dist;
                best_mean = mean;
            }
        }
        best
    }

    /// Stores the means [`LinkState::nearest`] computed for row `i`.
    fn memoise(&mut self, i: usize, computed: &[(usize, f64)]) {
        let m = self.m;
        for &(j, mean) in computed {
            self.mean[i * m + j] = mean;
            self.mean[j * m + i] = mean;
            self.fresh[i * m + j] = true;
            self.fresh[j * m + i] = true;
        }
        #[cfg(test)]
        {
            self.tie_means += computed.len();
        }
    }

    /// Merges slots `x` and `y`, records the event, and returns the
    /// surviving slot. The survivor's maxima are updated in O(m) by
    /// Lance–Williams; its memoised means go stale.
    fn apply_merge<D: PairDistances>(
        &mut self,
        x: usize,
        y: usize,
        d: &D,
        events: &mut Vec<PlanEvent>,
    ) -> usize {
        let m = self.m;
        let (s, o) = (x.min(y), x.max(y));
        let dist = self.dist[s * m + o];
        let mean = if self.fresh[s * m + o] {
            self.mean[s * m + o]
        } else {
            self.canonical_mean(s, o, d)
        };
        // The canonical child order (left = smaller min member) is fixed
        // here; canonicalization only reorders whole events.
        let (left, right) = if self.mm[s] < self.mm[o] {
            (self.refid[s], self.refid[o])
        } else {
            (self.refid[o], self.refid[s])
        };
        self.refid[s] = m + events.len();
        events.push(PlanEvent {
            left,
            right,
            dist,
            mean,
        });
        // Complete linkage's Lance–Williams update: the merged cluster's
        // max to any partner is the larger of the children's. `f64::max`
        // is exact, so this is bitwise the max over the merged members.
        for j in 0..m {
            if !self.active[j] || j == s || j == o {
                continue;
            }
            let dv = self.dist[s * m + j].max(self.dist[o * m + j]);
            self.dist[s * m + j] = dv;
            self.dist[j * m + s] = dv;
            self.fresh[s * m + j] = false;
            self.fresh[j * m + s] = false;
        }
        let other = std::mem::take(&mut self.members[o]);
        let mut merged = Vec::with_capacity(self.members[s].len() + other.len());
        {
            // Merge two sorted lists.
            let a = &self.members[s];
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < other.len() {
                if a[i] < other[j] {
                    merged.push(a[i]);
                    i += 1;
                } else {
                    merged.push(other[j]);
                    j += 1;
                }
            }
            merged.extend_from_slice(&a[i..]);
            merged.extend_from_slice(&other[j..]);
        }
        self.members[s] = merged;
        self.mm[s] = self.mm[s].min(self.mm[o]);
        self.active[o] = false;
        self.remaining -= 1;
        s
    }
}

/// Plans one complete-linkage run and canonicalizes the result.
fn plan_linkage<D: PairDistances + Sync>(
    items: Vec<LinkItem>,
    d: &D,
    backend: HacBackend,
    stats: &mut HacStats,
) -> Vec<PlanEvent> {
    let m = items.len();
    assert!(m > 0, "complete linkage needs at least one cluster");
    if m == 1 {
        return Vec::new();
    }
    let item_mm: Vec<usize> = items.iter().map(|it| it.mm).collect();
    let mut state = LinkState::init(items, d);
    let events = match backend {
        HacBackend::ParallelRounds => plan_rounds(&mut state, d, stats),
        HacBackend::NnChain => plan_nn_chain(&mut state, d, stats),
    };
    canonicalize(m, &item_mm, events)
}

/// The mutual-NN round engine: every round scans all active rows for
/// nearest neighbors in parallel, then merges every mutually-nearest pair.
/// A merge updates the survivor's maxima by Lance–Williams in O(m); the
/// means the scans need are pure, computed lazily and memoised, so no
/// merge re-reads member pairs. Progress is guaranteed because the
/// globally `K`-minimal pair is always mutual.
fn plan_rounds<D: PairDistances + Sync>(
    state: &mut LinkState,
    d: &D,
    stats: &mut HacStats,
) -> Vec<PlanEvent> {
    let m = state.m;
    let mut events = Vec::with_capacity(m - 1);
    while state.remaining > 1 {
        let slots: Vec<usize> = (0..m).filter(|&i| state.active[i]).collect();
        let found: Vec<(usize, Vec<(usize, f64)>)> = {
            let state = &*state;
            slots
                .par_iter()
                .map(|&i| {
                    let mut computed = Vec::new();
                    (state.nearest(i, d, &mut computed), computed)
                })
                .collect()
        };
        // Memoise before merging: the merges below mark every entry of a
        // survivor stale again.
        let mut nn_of = vec![usize::MAX; m];
        for (&i, (j, computed)) in slots.iter().zip(&found) {
            nn_of[i] = *j;
            state.memoise(i, computed);
        }
        let pairs: Vec<(usize, usize)> = slots
            .iter()
            .copied()
            .filter(|&i| {
                let j = nn_of[i];
                i < j && nn_of[j] == i
            })
            .map(|i| (i, nn_of[i]))
            .collect();
        assert!(!pairs.is_empty(), "the K-minimal pair is always mutual");
        for &(x, y) in &pairs {
            state.apply_merge(x, y, d, &mut events);
        }
        stats.record_round(pairs.len());
    }
    events
}

/// The sequential nearest-neighbor-chain engine (O(m²) scans overall).
/// Under the strict order `K` nearest neighbors are unique, the chain key
/// strictly decreases, and every merge is a mutual-NN merge — exactly the
/// moves [`plan_rounds`] makes, hence the identical merge tree.
fn plan_nn_chain<D: PairDistances + Sync>(
    state: &mut LinkState,
    d: &D,
    stats: &mut HacStats,
) -> Vec<PlanEvent> {
    let m = state.m;
    let mut events = Vec::with_capacity(m - 1);
    let mut chain: Vec<usize> = Vec::new();
    let mut computed = Vec::new();
    while state.remaining > 1 {
        if chain.is_empty() {
            let start = (0..m)
                .filter(|&i| state.active[i])
                .min_by_key(|&i| state.mm[i])
                .expect("at least two active clusters remain");
            chain.push(start);
        }
        let current = *chain.last().expect("chain non-empty");
        let nearest = state.nearest(current, d, &mut computed);
        state.memoise(current, &computed);
        computed.clear();
        let prev = if chain.len() >= 2 {
            Some(chain[chain.len() - 2])
        } else {
            None
        };
        if Some(nearest) == prev {
            chain.pop();
            chain.pop();
            state.apply_merge(current, nearest, d, &mut events);
            stats.record_round(1);
        } else {
            chain.push(nearest);
        }
    }
    events
}

/// Canonicalization heap entry: pops the smallest `(dist, mean, mm_low,
/// mm_high)` key first.
struct CanonEntry {
    dist: f64,
    mean: f64,
    mm_low: usize,
    mm_high: usize,
    event: usize,
}

impl PartialEq for CanonEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for CanonEntry {}
impl PartialOrd for CanonEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for CanonEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed so BinaryHeap (a max-heap) pops the smallest key.
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.mean.total_cmp(&self.mean))
            .then_with(|| other.mm_low.cmp(&self.mm_low))
            .then_with(|| other.mm_high.cmp(&self.mm_high))
    }
}

/// Renumbers a plan into the canonical emission order: repeatedly emit the
/// available event (children already emitted) with the smallest `K`-key.
/// Coexisting available events have disjoint member sets and therefore
/// distinct `(mm_low, mm_high)`, so the order is deterministic; because a
/// run merges to a single root, the root is always emitted last.
fn canonicalize(m: usize, item_mm: &[usize], events: Vec<PlanEvent>) -> Vec<PlanEvent> {
    let e = events.len();
    if e == 0 {
        return events;
    }
    let mut ref_mm = vec![usize::MAX; m + e];
    ref_mm[..m].copy_from_slice(item_mm);
    for (k, ev) in events.iter().enumerate() {
        ref_mm[m + k] = ref_mm[ev.left].min(ref_mm[ev.right]);
    }
    let mut parent = vec![usize::MAX; m + e];
    let mut pending = vec![0_u8; e];
    for (k, ev) in events.iter().enumerate() {
        parent[ev.left] = k;
        parent[ev.right] = k;
        pending[k] = (ev.left >= m) as u8 + (ev.right >= m) as u8;
    }
    let entry = |k: usize, events: &[PlanEvent], ref_mm: &[usize]| {
        let ev = &events[k];
        let (a, b) = (ref_mm[ev.left], ref_mm[ev.right]);
        CanonEntry {
            dist: ev.dist,
            mean: ev.mean,
            mm_low: a.min(b),
            mm_high: a.max(b),
            event: k,
        }
    };
    let mut heap = std::collections::BinaryHeap::with_capacity(e);
    for (k, &count) in pending.iter().enumerate() {
        if count == 0 {
            heap.push(entry(k, &events, &ref_mm));
        }
    }
    let mut new_ref = vec![usize::MAX; m + e];
    for (i, slot) in new_ref.iter_mut().take(m).enumerate() {
        *slot = i;
    }
    let mut out = Vec::with_capacity(e);
    while let Some(CanonEntry { event: k, .. }) = heap.pop() {
        let ev = &events[k];
        let (left, right) = if ref_mm[ev.left] < ref_mm[ev.right] {
            (ev.left, ev.right)
        } else {
            (ev.right, ev.left)
        };
        out.push(PlanEvent {
            left: new_ref[left],
            right: new_ref[right],
            dist: ev.dist,
            mean: ev.mean,
        });
        new_ref[m + k] = m + out.len() - 1;
        let p = parent[m + k];
        if p != usize::MAX {
            pending[p] -= 1;
            if pending[p] == 0 {
                heap.push(entry(p, &events, &ref_mm));
            }
        }
    }
    debug_assert_eq!(out.len(), e, "plan must form a single tree");
    out
}

/// Re-assigns the dendrogram heights per §V-D.
fn assign_heights(
    dendrogram: &mut Dendrogram,
    records: &[MergeRecord],
    group_sizes: &[(usize, usize)],
    group_root_nodes: &[usize],
) {
    use std::collections::HashMap;

    // Inter-group nodes: height = number of converging bubbles (groups)
    // among the node's descendants. Group roots count 1; leaves of the
    // inter-group level are exactly the group roots.
    let group_root_set: std::collections::HashSet<usize> =
        group_root_nodes.iter().copied().collect();
    let mut groups_below: HashMap<usize, usize> = HashMap::new();
    let count_groups =
        |dendrogram: &Dendrogram, node: usize, groups_below: &mut HashMap<usize, usize>| {
            // Children of inter-group nodes are either group roots or earlier
            // inter-group nodes (already counted, since records are in creation
            // order).
            let n = dendrogram.node(node);
            let child_count = |c: usize, groups_below: &HashMap<usize, usize>| {
                if group_root_set.contains(&c) {
                    1
                } else {
                    *groups_below.get(&c).unwrap_or(&1)
                }
            };
            let total = child_count(n.left.expect("internal"), groups_below)
                + child_count(n.right.expect("internal"), groups_below);
            groups_below.insert(node, total);
            total
        };
    for record in records {
        if record.kind == MergeKind::InterGroup {
            let total = count_groups(dendrogram, record.node, &mut groups_below);
            dendrogram.set_height(record.node, total as f64);
        }
    }

    // Per-group ladder heights.
    let mut per_group: HashMap<usize, Vec<&MergeRecord>> = HashMap::new();
    for record in records {
        match record.kind {
            MergeKind::IntraBubble { group, .. } | MergeKind::InterBubble { group } => {
                per_group.entry(group).or_default().push(record);
            }
            MergeKind::InterGroup => {}
        }
    }
    // Drain in plan (`group_sizes`) order, not hash order: each group's
    // heights are independent, but the byte-identity contract bans
    // hash-order traversal on any result path outright.
    for &(group, nb) in group_sizes {
        let Some(mut group_records) = per_group.remove(&group) else {
            continue;
        };
        debug_assert_eq!(group_records.len(), nb.saturating_sub(1));
        // Sort: intra-bubble nodes first (by bubble assignment, then merge
        // distance, then creation order), then inter-bubble nodes (by merge
        // distance, then creation order).
        group_records.sort_by(|a, b| {
            let key = |r: &MergeRecord| match r.kind {
                MergeKind::IntraBubble { bubble, .. } => (0_usize, bubble),
                MergeKind::InterBubble { .. } => (1, 0),
                MergeKind::InterGroup => unreachable!("filtered above"),
            };
            key(a)
                .cmp(&key(b))
                .then(a.distance.total_cmp(&b.distance))
                .then(a.node.cmp(&b.node))
        });
        // Ladder 1/(nb−1), 1/(nb−2), …, 1/2, 1.
        for (i, record) in group_records.iter().enumerate() {
            let denom = (nb - 1 - i) as f64;
            dendrogram.set_height(record.node, 1.0 / denom);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbht::dbht_for_tmfg;
    use crate::tmfg::{tmfg, TmfgConfig};
    use pfg_graph::SymmetricMatrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn blocks_matrix(
        n: usize,
        blocks: usize,
        strong: f64,
        weak: f64,
        seed: u64,
    ) -> SymmetricMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        SymmetricMatrix::from_fn(n, |i, j| {
            if i == j {
                1.0
            } else if (i % blocks) == (j % blocks) {
                strong + rng.gen_range(-0.02..0.02)
            } else {
                weak + rng.gen_range(-0.02..0.02)
            }
        })
    }

    fn dissimilarity_of(s: &SymmetricMatrix) -> SymmetricMatrix {
        s.map(|p| (2.0 * (1.0 - p)).sqrt())
    }

    #[test]
    fn dendrogram_covers_all_vertices_and_is_monotone() {
        for prefix in [1, 5] {
            let n = 24;
            let s = blocks_matrix(n, 3, 0.8, 0.1, 7);
            let t = tmfg(&s, TmfgConfig::with_prefix(prefix)).unwrap();
            let d = dissimilarity_of(&s);
            let result = dbht_for_tmfg(&t, &d).unwrap();
            let dend = &result.dendrogram;
            assert_eq!(dend.num_leaves(), n);
            let root = dend.root().expect("fully merged dendrogram");
            assert_eq!(dend.node(root).size, n);
            assert!(dend.is_monotone(), "DBHT heights must be monotone");
        }
    }

    #[test]
    fn root_height_equals_number_of_groups() {
        let n = 30;
        let s = blocks_matrix(n, 3, 0.85, 0.05, 3);
        let t = tmfg(&s, TmfgConfig::with_prefix(2)).unwrap();
        let d = dissimilarity_of(&s);
        let result = dbht_for_tmfg(&t, &d).unwrap();
        let dend = &result.dendrogram;
        let root = dend.root().unwrap();
        let groups = result.assignment.num_groups();
        if groups > 1 {
            assert!((dend.node(root).height - groups as f64).abs() < 1e-9);
        } else {
            // A single group tops out at height 1.
            assert!((dend.node(root).height - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn three_blocks_recovered_by_cutting() {
        let n = 30;
        let s = blocks_matrix(n, 3, 0.85, 0.05, 11);
        let t = tmfg(&s, TmfgConfig::with_prefix(1)).unwrap();
        let d = dissimilarity_of(&s);
        let result = dbht_for_tmfg(&t, &d).unwrap();
        let labels = result.dendrogram.cut_to_clusters(3);
        // Measure agreement with ground truth (i % 3) via pair counting:
        // the clustering should be far better than random.
        let mut agree = 0_usize;
        let mut total = 0_usize;
        for i in 0..n {
            for j in (i + 1)..n {
                let same_truth = i % 3 == j % 3;
                let same_label = labels[i] == labels[j];
                if same_truth == same_label {
                    agree += 1;
                }
                total += 1;
            }
        }
        let agreement = agree as f64 / total as f64;
        assert!(agreement > 0.8, "agreement {agreement}");
    }

    #[test]
    fn group_subtrees_top_out_at_height_one() {
        let n = 26;
        let s = blocks_matrix(n, 2, 0.8, 0.1, 5);
        let t = tmfg(&s, TmfgConfig::with_prefix(3)).unwrap();
        let d = dissimilarity_of(&s);
        let result = dbht_for_tmfg(&t, &d).unwrap();
        let dend = &result.dendrogram;
        // Every internal node height is either in (0, 1] (within-group) or
        // an integer ≥ 2 (inter-group).
        for id in dend.internal_nodes() {
            let h = dend.node(id).height;
            let within = h > 0.0 && h <= 1.0 + 1e-12;
            let inter = h >= 2.0 - 1e-12 && (h - h.round()).abs() < 1e-9;
            assert!(within || inter, "unexpected height {h}");
        }
    }

    #[test]
    fn linkage_plan_merges_closest_first() {
        // Four singleton clusters on a line: 0-1 close, 2-3 close, the two
        // pairs far apart. Both engines must produce the same canonical
        // plan: the tight pairs at distance 1 (lower min-member first),
        // then the final merge at the complete-linkage distance 11.
        let spd = SymmetricMatrix::from_fn(4, |i, j| {
            let pos: [f64; 4] = [0.0, 1.0, 10.0, 11.0];
            (pos[i] - pos[j]).abs()
        });
        let items = || {
            (0..4)
                .map(|v| LinkItem {
                    members: vec![v],
                    mm: v,
                })
                .collect::<Vec<_>>()
        };
        for backend in [HacBackend::ParallelRounds, HacBackend::NnChain] {
            let mut stats = HacStats::default();
            let events = plan_linkage(items(), &spd, backend, &mut stats);
            assert_eq!(events.len(), 3, "{backend:?}");
            assert_eq!((events[0].left, events[0].right), (0, 1), "{backend:?}");
            assert!((events[0].dist - 1.0).abs() < 1e-12);
            assert_eq!((events[1].left, events[1].right), (2, 3), "{backend:?}");
            assert!((events[1].dist - 1.0).abs() < 1e-12);
            // Final merge of the two planned clusters (refs 4 and 5).
            assert_eq!((events[2].left, events[2].right), (4, 5), "{backend:?}");
            assert!((events[2].dist - 11.0).abs() < 1e-12);
            assert_eq!(stats.merges, 3);
        }
    }

    #[test]
    fn engines_plan_identical_events_on_random_inputs() {
        for seed in 0..6 {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = 14;
            let spd =
                SymmetricMatrix::from_fn(
                    m,
                    |i, j| {
                        if i == j {
                            0.0
                        } else {
                            rng.gen_range(0.1..2.0)
                        }
                    },
                );
            let items = || {
                (0..m)
                    .map(|v| LinkItem {
                        members: vec![v],
                        mm: v,
                    })
                    .collect::<Vec<_>>()
            };
            let mut s1 = HacStats::default();
            let mut s2 = HacStats::default();
            let rounds = plan_linkage(items(), &spd, HacBackend::ParallelRounds, &mut s1);
            let chain = plan_linkage(items(), &spd, HacBackend::NnChain, &mut s2);
            assert_eq!(rounds, chain, "seed {seed}");
            assert_eq!(s1.merges, s2.merges);
            // The round engine needs no more rounds than the chain engine
            // needs merges, and usually far fewer.
            assert!(s1.rounds <= s2.rounds, "seed {seed}");
        }
    }

    #[test]
    fn engines_plan_identical_events_under_maximal_ties() {
        // All pairwise distances equal: every comparison falls through to
        // the min-member tie level. Both engines must still agree on one
        // canonical plan.
        let m = 9;
        let spd = SymmetricMatrix::from_fn(m, |i, j| if i == j { 0.0 } else { 1.0 });
        let items = || {
            (0..m)
                .map(|v| LinkItem {
                    members: vec![v],
                    mm: v,
                })
                .collect::<Vec<_>>()
        };
        let mut s1 = HacStats::default();
        let mut s2 = HacStats::default();
        let rounds = plan_linkage(items(), &spd, HacBackend::ParallelRounds, &mut s1);
        let chain = plan_linkage(items(), &spd, HacBackend::NnChain, &mut s2);
        assert_eq!(rounds, chain);
        // Every round's merges bound: mutual pairs are disjoint.
        assert!(s1.max_round_merges <= m / 2);
    }

    /// The pure-recompute reference the incremental state replaced: every
    /// round recomputes [`cross_stats`] for every active pair from the
    /// member sets, then merges every mutually-nearest pair under `K`.
    fn plan_reference<D: PairDistances>(items: Vec<LinkItem>, d: &D) -> (Vec<PlanEvent>, HacStats) {
        let m = items.len();
        let item_mm: Vec<usize> = items.iter().map(|it| it.mm).collect();
        let mut members: Vec<Vec<usize>> = items.into_iter().map(|it| it.members).collect();
        let mut mm = item_mm.clone();
        let mut refid: Vec<usize> = (0..m).collect();
        let mut active = vec![true; m];
        let mut events = Vec::new();
        let mut stats = HacStats::default();
        while active.iter().filter(|&&a| a).count() > 1 {
            let slots: Vec<usize> = (0..m).filter(|&i| active[i]).collect();
            let key =
                |i: usize, j: usize| cross_stats(d, (&members[i], mm[i]), (&members[j], mm[j]));
            let mut nn_of = vec![usize::MAX; m];
            for &i in &slots {
                nn_of[i] = slots
                    .iter()
                    .copied()
                    .filter(|&j| j != i)
                    .min_by(|&a, &b| {
                        let (ka, kb) = (key(i, a), key(i, b));
                        ka.0.total_cmp(&kb.0)
                            .then(ka.1.total_cmp(&kb.1))
                            .then(mm[a].cmp(&mm[b]))
                    })
                    .expect("two active clusters");
            }
            let merges: Vec<(usize, usize, (f64, f64))> = slots
                .iter()
                .copied()
                .filter(|&i| i < nn_of[i] && nn_of[nn_of[i]] == i)
                .map(|i| (i, nn_of[i], key(i, nn_of[i])))
                .collect();
            for &(s, o, (dist, mean)) in &merges {
                let (left, right) = if mm[s] < mm[o] {
                    (refid[s], refid[o])
                } else {
                    (refid[o], refid[s])
                };
                events.push(PlanEvent {
                    left,
                    right,
                    dist,
                    mean,
                });
                refid[s] = m + events.len() - 1;
                let other = std::mem::take(&mut members[o]);
                members[s].extend(other);
                members[s].sort_unstable();
                mm[s] = mm[s].min(mm[o]);
                active[o] = false;
            }
            stats.record_round(merges.len());
        }
        (canonicalize(m, &item_mm, events), stats)
    }

    /// [`plan_linkage`], also returning how many means the engine
    /// computed to break a tie between two maxima.
    fn plan_counting<D: PairDistances + Sync>(
        items: Vec<LinkItem>,
        d: &D,
        backend: HacBackend,
    ) -> (Vec<PlanEvent>, HacStats, usize) {
        let m = items.len();
        let item_mm: Vec<usize> = items.iter().map(|it| it.mm).collect();
        let mut stats = HacStats::default();
        let mut state = LinkState::init(items, d);
        let events = match backend {
            HacBackend::ParallelRounds => plan_rounds(&mut state, d, &mut stats),
            HacBackend::NnChain => plan_nn_chain(&mut state, d, &mut stats),
        };
        (canonicalize(m, &item_mm, events), stats, state.tie_means)
    }

    fn event_bits(events: &[PlanEvent]) -> Vec<(usize, usize, u64, u64)> {
        events
            .iter()
            .map(|e| (e.left, e.right, e.dist.to_bits(), e.mean.to_bits()))
            .collect()
    }

    /// Asserts that both engines plan bit-identical events to
    /// [`plan_reference`] (the round engine also the same rounds) and
    /// returns the tie means each engine computed.
    fn assert_engines_match_reference<D: PairDistances + Sync>(
        items: &[LinkItem],
        d: &D,
        ctx: &str,
    ) -> [usize; 2] {
        let (reference, reference_stats) = plan_reference(items.to_vec(), d);
        let (rounds, rounds_stats, rounds_ties) =
            plan_counting(items.to_vec(), d, HacBackend::ParallelRounds);
        let (chain, chain_stats, chain_ties) =
            plan_counting(items.to_vec(), d, HacBackend::NnChain);
        assert_eq!(event_bits(&rounds), event_bits(&reference), "{ctx}: rounds");
        assert_eq!(rounds_stats, reference_stats, "{ctx}: round schedule");
        assert_eq!(event_bits(&chain), event_bits(&reference), "{ctx}: chain");
        assert_eq!(chain_stats.merges, reference_stats.merges, "{ctx}");
        [rounds_ties, chain_ties]
    }

    /// Symmetric distances with a zero diagonal: uniform in `[0.1, 2)`, or
    /// quantised to `{1, 2, 3}` so that maxima tie often.
    fn random_distances(n: usize, quantised: bool, rng: &mut StdRng) -> SymmetricMatrix {
        SymmetricMatrix::from_fn(n, |i, j| {
            if i == j {
                0.0
            } else if quantised {
                rng.gen_range(1_usize..4) as f64
            } else {
                rng.gen_range(0.1..2.0)
            }
        })
    }

    /// `0..n` in random order.
    fn permutation(n: usize, rng: &mut StdRng) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, rng.gen_range(0..=i));
        }
        p
    }

    /// A random partition of `0..points` into `m` clusters, as at levels 1
    /// and 2 (`m == points` gives singletons).
    fn partition_items(points: usize, m: usize, rng: &mut StdRng) -> Vec<LinkItem> {
        let order = permutation(points, rng);
        let mut members = vec![Vec::new(); m];
        for (k, &v) in order.iter().enumerate() {
            let slot = if k < m { k } else { rng.gen_range(0..m) };
            members[slot].push(v);
        }
        members
            .into_iter()
            .map(|mut members| {
                members.sort_unstable();
                LinkItem {
                    mm: members[0],
                    members,
                }
            })
            .collect()
    }

    /// Level-3-like items: each a random proxy set that may share
    /// vertices with other items, tie-broken by a unique shuffled `mm`.
    fn overlapping_items(points: usize, m: usize, rng: &mut StdRng) -> Vec<LinkItem> {
        permutation(m, rng)
            .into_iter()
            .map(|mm| {
                let mut members: Vec<usize> = (0..rng.gen_range(1_usize..5))
                    .map(|_| rng.gen_range(0..points))
                    .collect();
                members.sort_unstable();
                members.dedup();
                LinkItem { members, mm }
            })
            .collect()
    }

    #[test]
    fn engines_match_pure_recompute_oracle_on_random_inputs() {
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(seed);
            let d = random_distances(48, false, &mut rng);
            for m in [48, 16] {
                let items = partition_items(48, m, &mut rng);
                let ties =
                    assert_engines_match_reference(&items, &d, &format!("seed {seed} m {m}"));
                // Disjoint clusters over distinct distances never tie on
                // the max, so no comparison computes a mean.
                assert_eq!(ties, [0, 0], "seed {seed} m {m}");
            }
        }
    }

    #[test]
    fn engines_match_pure_recompute_oracle_on_tie_heavy_inputs() {
        let mut ties = [0; 2];
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(seed);
            let d = random_distances(40, true, &mut rng);
            for m in [40, 12] {
                let items = partition_items(40, m, &mut rng);
                let found =
                    assert_engines_match_reference(&items, &d, &format!("seed {seed} m {m}"));
                ties[0] += found[0];
                ties[1] += found[1];
            }
        }
        assert!(
            ties[0] > 0 && ties[1] > 0,
            "lazy means never computed: {ties:?}"
        );
    }

    #[test]
    fn engines_match_pure_recompute_oracle_on_overlapping_members() {
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(seed);
            for quantised in [false, true] {
                let d = random_distances(30, quantised, &mut rng);
                let items = overlapping_items(30, 18, &mut rng);
                assert_engines_match_reference(
                    &items,
                    &d,
                    &format!("seed {seed} quantised {quantised}"),
                );
            }
        }
    }
}
