//! Parallel sort helpers (Table I).
//!
//! Thin, well-tested wrappers over rayon that match the interfaces used in
//! the paper's pseudocode. Each helper is one parallel sort on the
//! persistent pool, and falls back to a plain sequential sort for small
//! inputs, where even one pool round trip would dominate the work.

use rayon::prelude::*;
use std::cmp::Ordering;

/// Below this many elements the primitives run sequentially; parallel
/// scheduling overhead outweighs the work for smaller inputs.
pub const SEQ_THRESHOLD: usize = 2048;

/// Parallel stable sort by a comparison function. Above the threshold this
/// delegates to rayon's `par_sort_by` (under the shim, a buffer-based
/// parallel merge sort that itself uses std sorts below ~4k elements).
/// Elements only need `T: Send`, as with real rayon.
pub fn par_sort_by<T, F>(items: &mut [T], cmp: F)
where
    T: Send,
    F: Fn(&T, &T) -> Ordering + Send + Sync,
{
    if items.len() < SEQ_THRESHOLD {
        items.sort_by(cmp);
    } else {
        items.par_sort_by(cmp);
    }
}

/// Parallel unstable sort by a comparison function. Above the threshold
/// this delegates to rayon's `par_sort_unstable_by` (under the shim, the
/// same buffer-based merge sort with unstable leaf sorts and the same
/// ~4k fallback). Elements only need `T: Send`.
pub fn par_sort_unstable_by<T, F>(items: &mut [T], cmp: F)
where
    T: Send,
    F: Fn(&T, &T) -> Ordering + Send + Sync,
{
    if items.len() < SEQ_THRESHOLD {
        items.sort_unstable_by(cmp);
    } else {
        items.par_sort_unstable_by(cmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_matches_std_sort_large() {
        let mut v: Vec<i64> = (0..50_000).map(|i| (i * 2654435761_i64) % 10_007).collect();
        let mut expected = v.clone();
        expected.sort();
        par_sort_by(&mut v, |a, b| a.cmp(b));
        assert_eq!(v, expected);
    }
}
