//! Byte-identity under adversarial steal orders.
//!
//! The executor shim's chaos mode (`ThreadPoolBuilder::chaos_seed`)
//! permutes each steal's victim scan and injects yields, exercising
//! schedules an idle machine never produces. The workspace's determinism
//! contract says scheduling must be *invisible*: decomposition is a
//! function of input length alone, so every seed × thread-count
//! combination must reproduce the single-threaded result bit for bit —
//! for the most order-sensitive primitives (float reduction), the
//! parallel sort, and the full tiled correlation/dissimilarity kernels.

use pfg_data::correlation::{correlation_matrix_with, TileConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use rayon::{ThreadPool, ThreadPoolBuilder};

const CHAOS_SEEDS: [u64; 3] = [1, 2, 3];
const THREADS: [usize; 2] = [2, 8];

fn chaos_pool(threads: usize, seed: u64) -> ThreadPool {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .chaos_seed(seed)
        .build()
        .expect("pool builds")
}

fn reference_pool() -> ThreadPool {
    ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool builds")
}

/// Runs `op` on the reference pool and on every seed × thread-count chaos
/// pool, asserting all results equal via `eq` (callers pass bit-level
/// comparisons for floats).
fn assert_schedule_invariant<R>(op: impl Fn() -> R, eq: impl Fn(&R, &R) -> bool) {
    let reference = reference_pool().install(&op);
    for threads in THREADS {
        for seed in CHAOS_SEEDS {
            let got = chaos_pool(threads, seed).install(&op);
            assert!(
                eq(&got, &reference),
                "result diverged under chaos seed {seed} at {threads} threads"
            );
        }
    }
}

#[test]
fn float_reduction_is_schedule_invariant() {
    let v: Vec<f64> = (0..50_000).map(|i| (i as f64 * 0.37).sin()).collect();
    assert_schedule_invariant(
        || {
            v.par_iter()
                .map(|&x| x * 1.000001 + 0.25)
                .fold(|| 0.0f64, |acc, x| acc + x)
                .reduce(|| 0.0f64, |a, b| a + b)
        },
        |a, b| a.to_bits() == b.to_bits(),
    );
}

#[test]
fn parallel_sort_is_schedule_invariant() {
    let mut rng = StdRng::seed_from_u64(7);
    let base: Vec<f64> = (0..40_000).map(|_| rng.gen_range(-1.0f64..1.0)).collect();
    assert_schedule_invariant(
        || {
            let mut v = base.clone();
            v.par_sort_by(|a, b| a.total_cmp(b));
            v
        },
        |a, b| {
            a.len() == b.len()
                && a.iter()
                    .zip(b.iter())
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        },
    );
    // Tie-heavy unstable sort: 509 distinct keys over 50 000 elements, with
    // the index as payload. Unstable sorts may order equal keys any way
    // they like, so only a decomposition that ignores the pool size (and
    // the core count) returns the same permutation at 1, 2 and 8 workers.
    let keyed: Vec<(u64, usize)> = (0..50_000).map(|i| ((i as u64 * 131) % 509, i)).collect();
    assert_schedule_invariant(
        || {
            let mut v = keyed.clone();
            v.par_sort_unstable_by(|a, b| a.0.cmp(&b.0));
            v
        },
        |a, b| a == b,
    );
}

#[test]
fn tiled_correlation_is_schedule_invariant() {
    let mut rng = StdRng::seed_from_u64(11);
    let series: Vec<Vec<f64>> = (0..48)
        .map(|_| (0..96).map(|_| rng.gen_range(-1.0f64..1.0)).collect())
        .collect();
    let config = TileConfig { tile: 8 };
    assert_schedule_invariant(
        || correlation_matrix_with(&series, config).0,
        |a, b| {
            a.n() == b.n()
                && a.as_slice()
                    .iter()
                    .zip(b.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        },
    );
}

#[test]
fn fine_grained_steal_storm_is_schedule_invariant() {
    // `with_max_len(1)` turns every item into its own job, flooding the
    // owner's Chase–Lev deque and maximising thief CAS traffic on its top
    // pointer — the schedule-space stress for the lock-free deque's
    // owner/thief race window (last-element CAS, speculative cell reads,
    // buffer growth mid-storm). The fold tree is a function of input
    // length only, so the bit-exact sum must survive every steal order.
    let v: Vec<f64> = (0..4_096).map(|i| (i as f64 * 0.61).cos()).collect();
    assert_schedule_invariant(
        || {
            v.par_iter()
                .with_max_len(1)
                .map(|&x| x * 1.000001 + 0.25)
                .fold(|| 0.0f64, |acc, x| acc + x)
                .reduce(|| 0.0f64, |a, b| a + b)
        },
        |a, b| a.to_bits() == b.to_bits(),
    );
}

#[test]
fn pmfg_construction_is_schedule_invariant() {
    // End-to-end PMFG under chaos: the speculative round tests run on the
    // pool (and are reordered by the chaos schedule), but the
    // conflict-graph commit replays survivors in candidate order on the
    // calling thread, so edges, rounds and every counter — including the
    // commit re-test count — must be byte-identical to the 1-thread run.
    let mut rng = StdRng::seed_from_u64(23);
    let n = 60;
    let s = pfg_graph::SymmetricMatrix::from_fn(n, |i, j| {
        if i == j {
            1.0
        } else {
            rng.gen_range(0.0f64..1.0)
        }
    });
    assert_schedule_invariant(
        || pfg_core::pmfg(&s).expect("pmfg builds"),
        |a, b| {
            let a_edges: Vec<_> = a.graph.edges().collect();
            let b_edges: Vec<_> = b.graph.edges().collect();
            a_edges.len() == b_edges.len()
                && a_edges
                    .iter()
                    .zip(&b_edges)
                    .all(|((u1, v1, w1), (u2, v2, w2))| {
                        u1 == u2 && v1 == v2 && w1.to_bits() == w2.to_bits()
                    })
                && a.rounds == b.rounds
                && a.rejections == b.rejections
                && a.parallel_rejections == b.parallel_rejections
                && a.commit_retests == b.commit_retests
        },
    );
}

#[test]
fn dissimilarity_pipeline_input_is_schedule_invariant() {
    let mut rng = StdRng::seed_from_u64(13);
    let series: Vec<Vec<f64>> = (0..40)
        .map(|_| (0..64).map(|_| rng.gen_range(-1.0f64..1.0)).collect())
        .collect();
    assert_schedule_invariant(
        || pfg_data::correlation::dissimilarity_matrix(&series),
        |a, b| {
            a.n() == b.n()
                && a.as_slice()
                    .iter()
                    .zip(b.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        },
    );
}
