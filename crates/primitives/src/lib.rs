//! Parallel primitives used throughout the parallel filtered-graph algorithms.
//!
//! This crate implements the primitives of Table I of *Parallel Filtered
//! Graphs for Hierarchical Clustering* (Yu & Shun, ICDE 2023):
//!
//! * [`par_sort_by`] / [`par_sort_unstable_by`] — parallel comparison sorts,
//! * [`PriorityCell`] — the `WRITE_MIN` / `WRITE_MAX` priority concurrent
//!   writes on a keyed cell, used for the vertex assignment writes of
//!   Algorithm 4 (e.g. `WRITE_MAX(v.g, (χ, b))`).
//!
//! All parallel operations are built on rayon's fork–join API, which
//! matches the work–span model used in the paper. Under the offline shim
//! this means a persistent worker pool with lazily fused adapters (one
//! fork–join round per primitive call, no per-call thread spawning); with
//! registry rayon it is the randomized work-stealing scheduler — the
//! primitives are source-compatible with both.

pub mod allow;
pub mod atomic;
pub mod par;

pub use allow::{AllowEntry, AllowFile};
pub use atomic::PriorityCell;
pub use par::{par_sort_by, par_sort_unstable_by};

/// Re-export of rayon so downstream crates can build thread pools for the
/// scalability experiments without an extra direct dependency.
/// `rayon::ThreadPool::install` scopes all parallel work of a closure —
/// including the primitives in this crate — onto a caller-owned pool.
pub use rayon;

/// Re-export of the shadow-write audit crate: [`SendPtr`] is the one
/// shared raw-pointer wrapper for disjoint-write parallel kernels, and
/// [`DisjointWriteAudit`] is the registry those kernels declare their
/// claimed ranges/cells to (checked under `--cfg pfg_racecheck`, zero-cost
/// otherwise). The types live in the dependency-free `pfg_audit` crate so
/// the rayon shim can use them too (this crate depends on the shim, so
/// they cannot be defined here), but downstream crates should reach them
/// through this re-export.
pub use pfg_audit::{DisjointWriteAudit, RangeClaim, SendPtr};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_reexports() {
        let mut v = vec![3_i64, 1, 4, 1, 5];
        par_sort_by(&mut v, |a, b| a.cmp(b));
        assert_eq!(v, vec![1, 1, 3, 4, 5]);
        let cell = PriorityCell::neg_infinity();
        assert!(cell.write_max(1.5, 2));
        assert_eq!(cell.load(), (1.5, 2));
    }
}
