//! Table I microbenchmark of the parallel sort, plus executor
//! microbenchmarks of the work-stealing executor: fork–join round trips,
//! deque contention, a skewed round, and the parallel sort against the
//! std sort.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pfg_primitives::par_sort_unstable_by;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::hint::black_box;

/// Worker count for the executor benchmarks. Fixed (rather than detected)
/// so the numbers are comparable across machines; oversubscription on
/// small boxes still measures exactly what we care about — per-round
/// scheduling overhead.
const EXECUTOR_THREADS: usize = 4;

/// One fork–join round on the shim's work-stealing executor (one split
/// tree, halves reclaimed inline when not stolen).
fn stealing_map_sum(data: &[f64]) -> f64 {
    data.par_iter().map(|&x| x * 1.000_1 + 0.5).sum()
}

/// Skewed per-item work: the last eighth of the index space spins ~48x
/// longer than the rest, so the round stays balanced only if the stealing
/// executor keeps splitting the hot subtree.
fn skewed_work(x: f64, i: usize, n: usize) -> f64 {
    let spins = if i >= n - n / 8 { 48 } else { 1 };
    let mut acc = x;
    for _ in 0..spins {
        acc = acc * 1.000_000_1 + 0.5;
    }
    acc
}

/// Executor benchmarks: many fine-grained fork–join rounds (the pattern
/// of TMFG gain recomputation and per-source shortest paths) and a skewed
/// round on the work-stealing executor. Also reports parallel-sort
/// throughput against the std sort.
fn bench_executor(c: &mut Criterion) {
    let mut group = c.benchmark_group("executor");
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(7);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(EXECUTOR_THREADS)
        .build()
        .expect("executor bench pool");
    // `rounds` small fork–join rounds per iteration: round-trip overhead
    // dominates, which is exactly the regime stealing's pop-back fast
    // path targets.
    for &(n, rounds) in &[(1_024usize, 128usize), (2_048, 64), (16_384, 16)] {
        let data: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        group.bench_with_input(
            BenchmarkId::new("round_trip/work_stealing", n),
            &data,
            |b, data| {
                b.iter(|| {
                    pool.install(|| {
                        let mut acc = 0.0;
                        for _ in 0..rounds {
                            acc += stealing_map_sum(data);
                        }
                        black_box(acc)
                    })
                })
            },
        );
    }
    // Deque-contention series: `with_max_len(1)` forces one job per item,
    // so the split tree floods the owner's deque with fine-grained jobs
    // while the other workers hammer its top with steal CASes — the
    // contended owner-pop vs thief-steal regime the lock-free Chase–Lev
    // deque exists for. The `owner_only` variant runs the same job flood
    // on a 1-thread pool: no thief ever CASes, isolating the uncontended
    // push/pop fast path that the old mutex ring paid a lock for on every
    // operation.
    {
        let owner_pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("owner-only bench pool");
        for &n in &[1_024usize, 4_096] {
            let data: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
            group.bench_with_input(BenchmarkId::new("steal/contended", n), &data, |b, data| {
                b.iter(|| {
                    pool.install(|| {
                        let total: f64 = data
                            .par_iter()
                            .with_max_len(1)
                            .map(|&x| x * 1.000_1 + 0.5)
                            .sum();
                        black_box(total)
                    })
                })
            });
            group.bench_with_input(BenchmarkId::new("steal/owner_only", n), &data, |b, data| {
                b.iter(|| {
                    owner_pool.install(|| {
                        let total: f64 = data
                            .par_iter()
                            .with_max_len(1)
                            .map(|&x| x * 1.000_1 + 0.5)
                            .sum();
                        black_box(total)
                    })
                })
            });
        }
    }
    {
        let n = 32_768usize;
        let data: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        group.bench_with_input(
            BenchmarkId::new("skew/work_stealing", n),
            &data,
            |b, data| {
                b.iter(|| {
                    pool.install(|| {
                        let total: f64 = data
                            .par_iter()
                            .enumerate()
                            .map(|(i, &x)| skewed_work(x, i, data.len()))
                            .sum();
                        black_box(total)
                    })
                })
            },
        );
    }
    for &n in &[50_000usize, 200_000] {
        let data: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        group.bench_with_input(
            BenchmarkId::new("sort/std_unstable", n),
            &data,
            |b, data| {
                b.iter(|| {
                    let mut v = data.clone();
                    v.sort_unstable_by(f64::total_cmp);
                    black_box(v)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("sort/par_merge_sort", n),
            &data,
            |b, data| {
                b.iter(|| {
                    let mut v = data.clone();
                    pool.install(|| v.par_sort_unstable_by(f64::total_cmp));
                    black_box(v)
                })
            },
        );
    }
    group.finish();
}

fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("primitives");
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(1);
    for &n in &[10_000usize, 100_000] {
        let data: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        group.bench_with_input(BenchmarkId::new("sort", n), &data, |b, data| {
            b.iter(|| {
                let mut v = data.clone();
                par_sort_unstable_by(&mut v, f64::total_cmp);
                black_box(v)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_primitives, bench_executor);
criterion_main!(benches);
